//! P-state (DVFS) sensitivity of co-location degradation.
//!
//! Memory-bound applications lose less from frequency scaling than
//! compute-bound ones (the memory wall), and co-location degradation
//! interacts with the P-state. The models take the target's baseline
//! time at the running P-state as a feature, so one model trained across
//! P-states predicts the slowdown at each.
//!
//! Run with: `cargo run --release --example dvfs_sweep`

use coloc::machine::presets;
use coloc::model::{FeatureSet, Lab, ModelKind, Predictor, Scenario, TrainingPlan};
use coloc::workloads::standard;

fn main() {
    let lab = Lab::new(presets::xeon_e5649(), standard(), 21).expect("valid preset");

    // Train a predictor across all P-states.
    let plan = TrainingPlan {
        counts: vec![1, 3, 5],
        ..lab.paper_plan()
    };
    println!("training on {} runs…", plan.len());
    let samples = lab.collect(&plan).expect("sweep");
    let nn = Predictor::train(ModelKind::NeuralNet, FeatureSet::F, &samples, 5).expect("train");

    println!("\nslowdown of canneal under 5x cg, per P-state:");
    println!(
        "{:>4} {:>6} {:>10} {:>10}",
        "P", "GHz", "measured", "predicted"
    );
    let base = lab
        .baselines()
        .get("canneal")
        .expect("canneal")
        .exec_time_s
        .clone();
    for (p, ghz) in lab.machine().spec().pstates_ghz.iter().enumerate() {
        let sc = Scenario::homogeneous("canneal", "cg", 5, p);
        let measured = lab.run_scenario(&sc).expect("run") / base[p];
        let predicted = nn.predict_slowdown(&lab.featurize(&sc).expect("features"));
        println!("{p:>4} {ghz:>6.2} {measured:>9.3}x {predicted:>9.3}x");
    }
}
