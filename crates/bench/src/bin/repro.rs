//! `repro` — regenerate every table and figure from the paper.
//!
//! Usage: `repro <artifact>` where artifact is one of
//! `table1..table6`, `fig1..fig5b`, `pca`, `importance`, `ablations`,
//! `ablation-<name>`, `chaos`, `conformance`, or `all`.
//!
//! Expensive intermediates (training sweeps, model-grid validations) are
//! cached as JSON under `repro-out/`; delete that directory to force a full
//! regeneration.

use coloc_bench::{cache, figures, tables};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    match what {
        "table1" => table1(),
        "table2" => table2(),
        "table3" => table3(),
        "table4" => table4(),
        "table5" => table5(),
        "table6" => table6(),
        "fig1" => fig_mpe("e5649", "Figure 1: MPE, 6-core Xeon E5649"),
        "fig2" => fig_mpe("e5_2697v2", "Figure 2: MPE, 12-core Xeon E5-2697v2"),
        "fig3" => fig_nrmse("e5649", "Figure 3: NRMSE, 6-core Xeon E5649"),
        "fig4" => fig_nrmse("e5_2697v2", "Figure 4: NRMSE, 12-core Xeon E5-2697v2"),
        "fig5a" => fig5a(),
        "fig5b" => fig5b(),
        "pca" => pca(),
        "ablation-size" => ablation("Training-set size", coloc_bench::ablations::train_size()),
        "ablation-noise" => ablation("Measurement noise", coloc_bench::ablations::noise()),
        "ablation-hidden" => ablation("Hidden-layer width", coloc_bench::ablations::hidden_width()),
        "ablation-hetero" => ablation(
            "Heterogeneous co-location",
            coloc_bench::ablations::heterogeneous(),
        ),
        "ablation-classavg" => ablation(
            "Class-average features",
            coloc_bench::ablations::class_average(),
        ),
        "ablation-quad" => ablation(
            "Quadratic feature expansion",
            coloc_bench::ablations::quadratic(),
        ),
        "ablation-partition" => ablation(
            "LLC partitioning (values are slowdowns: shared | partitioned)",
            coloc_bench::ablations::partitioning(),
        ),
        "ablation-phases" => ablation(
            "Phase detail (paper SI claim)",
            coloc_bench::ablations::phases(),
        ),
        "importance" => importance(),
        "chaos" => coloc_bench::chaos::run_chaos(),
        "conformance" => coloc_bench::conformance::run_conformance(),
        "ablations" => {
            ablation("Training-set size", coloc_bench::ablations::train_size());
            ablation("Measurement noise", coloc_bench::ablations::noise());
            ablation("Hidden-layer width", coloc_bench::ablations::hidden_width());
            ablation(
                "Heterogeneous co-location",
                coloc_bench::ablations::heterogeneous(),
            );
            ablation(
                "Class-average features",
                coloc_bench::ablations::class_average(),
            );
            ablation(
                "Quadratic feature expansion",
                coloc_bench::ablations::quadratic(),
            );
            ablation(
                "LLC partitioning (values are slowdowns: shared | partitioned)",
                coloc_bench::ablations::partitioning(),
            );
            ablation(
                "Phase detail (paper SI claim)",
                coloc_bench::ablations::phases(),
            );
            importance();
        }
        "all" => {
            table1();
            table2();
            table3();
            table4();
            table5();
            table6();
            fig_mpe("e5649", "Figure 1: MPE, 6-core Xeon E5649");
            fig_mpe("e5_2697v2", "Figure 2: MPE, 12-core Xeon E5-2697v2");
            fig_nrmse("e5649", "Figure 3: NRMSE, 6-core Xeon E5649");
            fig_nrmse("e5_2697v2", "Figure 4: NRMSE, 12-core Xeon E5-2697v2");
            fig5a();
            fig5b();
            pca();
        }
        other => {
            eprintln!("unknown artifact `{other}`");
            eprintln!(
                "expected: table1..table6, fig1..fig5b, pca, importance, chaos, \
                 conformance, all, ablations, \
                 ablation-{{size,noise,hidden,hetero,classavg,quad,partition,phases}}"
            );
            std::process::exit(2);
        }
    }
}

fn hr(title: &str) {
    println!("\n=== {title} ===");
}

fn table1() {
    hr("Table I: Model Features");
    println!("{:<14} | aspect of execution measured", "feature");
    println!("{}", "-".repeat(76));
    for (name, desc) in tables::table1() {
        println!("{name:<14} | {desc}");
    }
}

fn table2() {
    hr("Table II: Sets of Model Feature Groups");
    for (set, features) in tables::table2() {
        println!("{set}  =  {features}");
    }
}

fn table3() {
    hr("Table III: Benchmark Applications (measured on 6-core E5649)");
    println!("{:<20} {:>14}   class", "application", "mem. intensity");
    println!("{}", "-".repeat(50));
    let lab = coloc_bench::lab_6core();
    for row in tables::table3(&lab) {
        println!(
            "{:<20} {:>14.3e}   {}",
            row.app, row.memory_intensity, row.class
        );
    }
}

fn table4() {
    hr("Table IV: Multicore Processors Used for Validation");
    println!(
        "{:<16} {:>10} {:>9}   frequency range",
        "Intel processor", "num cores", "L3 cache"
    );
    println!("{}", "-".repeat(58));
    for r in tables::table4() {
        println!(
            "{:<16} {:>10} {:>7}MB   {:.2}-{:.2} GHz",
            r.processor, r.cores, r.l3_mib, r.freq_range_ghz.0, r.freq_range_ghz.1
        );
    }
}

fn table5() {
    hr("Table V: Training Data Setup");
    for r in tables::table5() {
        println!("{}:", r.processor);
        println!("  P-state frequencies (GHz): {:?}", r.pstates_ghz);
        println!("  target applications:       {}", r.num_targets);
        println!("  co-located applications:   {:?}", r.co_apps);
        println!(
            "  num. of co-locations:      {}..={}",
            r.num_co_locations.first().unwrap_or(&0),
            r.num_co_locations.last().unwrap_or(&0)
        );
        println!("  total training runs:       {}", r.total_runs);
    }
}

fn table6() {
    hr("Table VI: canneal vs. N x cg on the 12-core E5-2697v2 (set F models)");
    let (baseline, rows) = tables::table6();
    println!("canneal baseline execution time: {baseline:.0} s");
    println!(
        "{:>6} {:>12} {:>12} {:>14} {:>11}",
        "num cg", "actual (s)", "normalized", "linear MPE (%)", "NN MPE (%)"
    );
    println!("{}", "-".repeat(60));
    for r in rows {
        println!(
            "{:>6} {:>12.1} {:>12.3} {:>14.2} {:>11.2}",
            r.num_cg, r.actual_s, r.normalized, r.linear_f_pe, r.nn_f_pe
        );
    }
}

fn print_fig(points: &[figures::FigPoint]) {
    println!(
        "{:<12} {:>4} {:>10} {:>10}",
        "model", "set", "train (%)", "test (%)"
    );
    println!("{}", "-".repeat(40));
    for p in points {
        println!(
            "{:<12} {:>4} {:>10.2} {:>10.2}",
            p.kind, p.set, p.train, p.test
        );
    }
}

fn fig_mpe(lab_key: &str, title: &str) {
    hr(title);
    print_fig(&figures::fig_mpe(lab_key));
}

fn fig_nrmse(lab_key: &str, title: &str) {
    hr(title);
    print_fig(&figures::fig_nrmse(lab_key));
}

fn fig5a() {
    hr("Figure 5(a): execution-time distributions per application (6-core)");
    println!(
        "{:<14} {:>5} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "app", "n", "min", "q1", "median", "q3", "max"
    );
    println!("{}", "-".repeat(64));
    for d in figures::fig5a() {
        println!(
            "{:<14} {:>5} {:>8.0} {:>8.0} {:>8.0} {:>8.0} {:>8.0}",
            d.app, d.n, d.min, d.q1, d.median, d.q3, d.max
        );
    }
}

fn fig5b() {
    hr("Figure 5(b): NN set-F percent-error distributions per application (6-core)");
    println!(
        "{:<14} {:>5} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "app", "n", "min", "q1", "median", "q3", "max"
    );
    println!("{}", "-".repeat(64));
    for d in figures::fig5b(20) {
        println!(
            "{:<14} {:>5} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            d.app, d.n, d.min, d.q1, d.median, d.q3, d.max
        );
    }
}

fn ablation(title: &str, rows: Vec<coloc_bench::ablations::AblationRow>) {
    hr(&format!("Ablation: {title}"));
    println!("{:<34} {:>14} {:>12}", "", "linear MPE (%)", "NN MPE (%)");
    println!("{}", "-".repeat(62));
    for r in rows {
        let lin = if r.linear_mpe.is_nan() {
            "-".to_string()
        } else {
            format!("{:.2}", r.linear_mpe)
        };
        println!("{:<34} {:>14} {:>12.2}", r.x, lin, r.nn_mpe);
    }
}

fn importance() {
    use coloc_model::{samples_to_dataset, FeatureSet, ModelKind, Predictor};
    hr("Permutation feature importance of the NN set-F model (6-core)");
    let lab = coloc_bench::lab_6core();
    let samples = cache::training_samples("e5649", &lab);
    let nn = Predictor::train(
        ModelKind::NeuralNet,
        FeatureSet::F,
        &samples,
        coloc_bench::SEED,
    )
    .expect("train");
    let ds = samples_to_dataset(&samples, FeatureSet::F).expect("dataset");
    // Predictor over set F consumes the full 8-vector, so wrap it.
    struct Wrap<'a>(&'a Predictor);
    impl coloc_ml::Regressor for Wrap<'_> {
        fn predict(&self, features: &[f64]) -> f64 {
            let mut full = [0.0; 8];
            full.copy_from_slice(features);
            self.0.predict(&full)
        }
    }
    let (baseline, imps) = coloc_ml::permutation_importance(&Wrap(&nn), &ds, 3, coloc_bench::SEED);
    println!("intact-data MPE: {baseline:.2}%");
    println!("{:<14} {:>18}", "feature", "MPE increase (%)");
    println!("{}", "-".repeat(34));
    for imp in imps {
        let name = coloc_model::Feature::ALL[imp.feature].paper_name();
        println!("{:<14} {:>18.2}", name, imp.mpe_increase);
    }
}

fn pca() {
    hr("PCA feature ranking (paper SIII-B) on the 6-core training data");
    let lab = coloc_bench::lab_6core();
    let samples = cache::training_samples("e5649", &lab);
    let ranking = coloc_model::experiment::rank_features(&samples).expect("rank");
    println!("{:<14} {:>12}", "feature", "score");
    println!("{}", "-".repeat(28));
    for (f, score) in ranking {
        println!("{:<14} {:>12.4}", f.paper_name(), score);
    }
}
