//! Chaos-lab integration tests: the whole degradation pipeline, end to
//! end, under seeded fault injection. Everything here is deterministic —
//! the same faults fire in the same places on every run.

use coloc_machine::{presets, FaultPlan};
use coloc_ml::metrics::{mpe, nrmse};
use coloc_model::{
    lab::CheckpointConfig, sanitize_samples, train_robust, ColocError, FeatureSet, Lab, ModelKind,
    Predictor, SanitizePolicy, TrainPolicy, TrainingPlan,
};

fn plan() -> TrainingPlan {
    TrainingPlan {
        pstates: vec![0, 3],
        targets: vec![
            "canneal".into(),
            "cg".into(),
            "ep".into(),
            "sp".into(),
            "blackscholes".into(),
        ],
        co_runners: vec!["cg".into(), "ep".into()],
        counts: vec![1, 3, 5],
    }
}

fn clean_lab() -> Lab {
    Lab::new(presets::xeon_e5649(), coloc_workloads::standard(), 2015).unwrap()
}

fn chaotic_lab() -> Lab {
    clean_lab().with_faults(FaultPlan::heavy(99)).unwrap()
}

fn tmpfile(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("coloc-chaos-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Satellite (c), first half: NaN faults poison raw accuracy metrics, and
/// sanitization restores finite, sane numbers.
#[test]
fn metrics_nan_propagation_raw_vs_quarantined() {
    let samples = chaotic_lab().collect(&plan()).unwrap();
    // The heavy plan must actually land NaN readings on a 60-run sweep.
    assert!(
        samples.iter().any(|s| !s.actual_time_s.is_finite()),
        "no NaN faults fired — plan or seed changed?"
    );

    // Train on a clean sweep, evaluate against the faulted measurements.
    let clean = clean_lab().collect(&plan()).unwrap();
    let predictor = Predictor::train(ModelKind::Linear, FeatureSet::C, &clean, 1).unwrap();

    let raw_actual: Vec<f64> = samples.iter().map(|s| s.actual_time_s).collect();
    let raw_pred = predictor.predict_samples(&samples);
    assert!(
        mpe(&raw_pred, &raw_actual).is_nan(),
        "NaN measurements must propagate through MPE, not vanish"
    );
    assert!(nrmse(&raw_pred, &raw_actual).is_nan());

    let (kept, report) = sanitize_samples(&samples, &SanitizePolicy::default());
    assert!(!report.is_clean());
    assert!(kept.len() >= 8, "{report}");
    let actual: Vec<f64> = kept.iter().map(|s| s.actual_time_s).collect();
    let m = mpe(&predictor.predict_samples(&kept), &actual);
    let n = nrmse(&predictor.predict_samples(&kept), &actual);
    assert!(m.is_finite() && m < 100.0, "quarantined MPE {m}");
    assert!(n.is_finite(), "quarantined NRMSE {n}");
}

/// Regression: a sweep whose entire first scenario is fault-damaged — so
/// every one of its samples lands in quarantine — still produces finite
/// aggregate statistics. The first scenario is the edge that matters:
/// quarantining index 0 must not shift survivor indexing or leak a NaN
/// through `mpe`/`nrmse`.
#[test]
fn fully_quarantined_first_scenario_keeps_aggregates_finite() {
    let mut samples = clean_lab().collect(&plan()).unwrap();
    let first = samples[0].scenario.clone();
    let damaged = samples
        .iter_mut()
        .filter(|s| s.scenario == first)
        .map(|s| s.actual_time_s = f64::NAN)
        .count();
    assert!(
        damaged >= 1,
        "plan produced no samples of its first scenario"
    );

    let (kept, report) = sanitize_samples(&samples, &SanitizePolicy::default());
    assert!(
        report.quarantined.len() >= damaged,
        "the damaged scenario must be quarantined: {report}"
    );
    assert_eq!(report.quarantined[0].index, 0, "index 0 is quarantined");
    assert!(kept.iter().all(|s| s.scenario != first));

    let (predictor, treport) = train_robust(
        ModelKind::Linear,
        FeatureSet::C,
        &samples,
        1,
        &TrainPolicy::default(),
    )
    .unwrap();
    assert!(!treport.sanitize.is_clean());
    let actual: Vec<f64> = kept.iter().map(|s| s.actual_time_s).collect();
    let m = mpe(&predictor.predict_samples(&kept), &actual);
    let n = nrmse(&predictor.predict_samples(&kept), &actual);
    assert!(m.is_finite() && m >= 0.0, "aggregate MPE {m}");
    assert!(n.is_finite() && n >= 0.0, "aggregate NRMSE {n}");
}

/// Degenerate metric inputs stay NaN rather than panicking or lying.
#[test]
fn metric_edge_cases_are_nan_not_panics() {
    assert!(mpe(&[], &[]).is_nan());
    assert!(mpe(&[1.0], &[0.0]).is_nan());
    assert!(nrmse(&[1.0, 2.0], &[5.0, 5.0]).is_nan());
}

/// Tentpole acceptance: a killed-and-resumed faulted collect is
/// bit-identical to the uninterrupted faulted collect.
#[test]
fn chaos_collect_survives_a_crash_bit_identically() {
    let scenarios = plan().scenarios();
    let reference = chaotic_lab().collect_scenarios(&scenarios).unwrap();

    let path = tmpfile("chaos_resume.json");
    let _ = std::fs::remove_file(&path);
    let mut cfg = CheckpointConfig::new(&path, 5);
    cfg.crash_after = Some(23);
    match chaotic_lab().collect_resumable(&scenarios, &cfg) {
        Err(ColocError::Interrupted { completed }) => assert_eq!(completed, 23),
        other => panic!("expected Interrupted, got {:?}", other.err()),
    }
    cfg.crash_after = None;
    let resumed = chaotic_lab().collect_resumable(&scenarios, &cfg).unwrap();
    assert_eq!(resumed.len(), reference.len());
    for (a, b) in resumed.iter().zip(&reference) {
        assert_eq!(a.scenario.label(), b.scenario.label());
        // to_bits comparison: NaN == NaN here, and any drift in the
        // fault stream or JSON round-trip would show up.
        assert_eq!(
            a.actual_time_s.to_bits(),
            b.actual_time_s.to_bits(),
            "{}",
            a.scenario.label()
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// Tentpole acceptance: training on fault-riddled data never panics; the
/// robust path quarantines the damage and produces a usable model, on the
/// smallest feature set that sees co-runners and on the full one.
#[test]
fn robust_training_on_chaotic_data_produces_a_model() {
    let samples = chaotic_lab().collect(&plan()).unwrap();
    for set in [FeatureSet::D, FeatureSet::F] {
        let (p, report) = train_robust(
            ModelKind::NeuralNet,
            set,
            &samples,
            7,
            &TrainPolicy::default(),
        )
        .unwrap();
        assert!(!report.attempts.is_empty(), "{set:?}");
        assert!(!report.sanitize.is_clean(), "{set:?}: {report}");
        // Whatever rung it landed on, the model must predict finite times.
        for s in samples.iter().filter(|s| s.actual_time_s.is_finite()) {
            assert!(p.predict(&s.features).is_finite(), "{set:?}");
        }
    }
}

/// Tentpole acceptance: an unreachable loss ceiling forces every SCG
/// attempt to fail and the pipeline lands on the linear fallback, with the
/// whole ladder recorded in the report, on clean and on faulted data.
#[test]
fn divergence_triggers_linear_fallback_with_full_report() {
    let policy = TrainPolicy {
        loss_ceiling: 0.0,
        ..Default::default()
    };
    for lab in [clean_lab(), chaotic_lab()] {
        let samples = lab.collect(&plan()).unwrap();
        let (p, report) =
            train_robust(ModelKind::NeuralNet, FeatureSet::F, &samples, 3, &policy).unwrap();
        assert!(report.fell_back);
        assert_eq!(p.kind(), ModelKind::Linear);
        assert_eq!(report.attempts.len(), policy.retries + 2);
        let text = format!("{report}");
        assert!(text.contains("fell back"), "{text}");
    }
}
