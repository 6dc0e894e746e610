//! Fuzz the two files a deployment reads back: model artifacts
//! (`ModelRegistry::load`, which `coloc serve` re-reads on every hot
//! reload) and sweep checkpoints (`Lab::collect_resumable`, which
//! `coloc collect --checkpoint` resumes from). Every byte string must
//! load or resume, or come back as a `ColocError`, within a deadline,
//! and never panic. A loaded artifact must also predict a real feature
//! row, since `load` refuses a predictor that would panic on first use,
//! and a resumed sweep must return one sample per scenario. Inputs:
//! arbitrary bytes, and truncations, byte flips and value splices of a
//! saved linear artifact, a saved neural-net artifact and a partial
//! checkpoint.

use coloc_machine::presets;
use coloc_model::lab::CheckpointConfig;
use coloc_model::{
    ColocError, FeatureSet, Lab, ModelKind, ModelRegistry, Scenario, TrainRequest, TrainingPlan,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, OnceLock};
use std::time::Duration;

/// What every case reads: a lab, its scenario list, two saved artifacts
/// and a checkpoint of the first three scenarios, as bytes.
struct Inputs {
    lab: Lab,
    scenarios: Vec<Scenario>,
    row: [f64; 8],
    artifacts: [Vec<u8>; 2],
    checkpoint: Vec<u8>,
}

/// A fresh path in the temp directory, unique within this process.
fn tmp_path(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("coloc-artifact-fuzz");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{tag}-{}-{}.json",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn inputs() -> &'static Inputs {
    static INPUTS: OnceLock<Inputs> = OnceLock::new();
    INPUTS.get_or_init(|| {
        let lab = Lab::new(presets::xeon_e5649(), coloc_workloads::standard(), 2015).unwrap();
        let plan = TrainingPlan {
            pstates: vec![0],
            targets: vec!["canneal".into(), "ep".into(), "ft".into()],
            co_runners: vec!["cg".into(), "ep".into()],
            counts: vec![1, 3],
        };
        let registry = ModelRegistry::new();
        let artifacts = [
            (ModelKind::Linear, FeatureSet::F),
            (ModelKind::NeuralNet, FeatureSet::C),
        ]
        .map(|(kind, set)| {
            let req = TrainRequest {
                kind,
                set,
                plan: plan.clone(),
                seed: 1,
                policy: None,
            };
            let trained = registry.train(&lab, &req).unwrap();
            let path = tmp_path("artifact");
            registry.save(&trained.artifact, &path).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            bytes
        });
        let scenarios = plan.scenarios();
        let path = tmp_path("checkpoint");
        let crash = CheckpointConfig {
            crash_after: Some(3),
            ..CheckpointConfig::new(&path, 2)
        };
        assert!(matches!(
            lab.collect_resumable(&scenarios, &crash),
            Err(ColocError::Interrupted { completed: 3 })
        ));
        let checkpoint = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let row = lab.featurize(&scenarios[0]).unwrap();
        Inputs {
            lab,
            scenarios,
            row,
            artifacts,
            checkpoint,
        }
    })
}

/// Run `f` on a thread of its own: it must return within the deadline
/// and must not panic.
fn within_deadline(what: &str, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(30)) {
        Ok(()) => {}
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{what} hung"),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("{what} panicked"),
    }
}

/// Load `bytes` as a model artifact; a loaded one predicts a real row.
fn load_artifact(bytes: Vec<u8>) {
    within_deadline("ModelRegistry::load", move || {
        let path = tmp_path("load");
        std::fs::write(&path, &bytes).unwrap();
        let loaded = ModelRegistry::new().load(&path);
        let _ = std::fs::remove_file(&path);
        if let Ok(artifact) = loaded {
            artifact.predictor.predict(&inputs().row);
        }
    });
}

/// Resume the sweep from `bytes` as its checkpoint; a resumed sweep
/// returns one sample per scenario.
fn resume(bytes: Vec<u8>) {
    within_deadline("Lab::collect_resumable", move || {
        let inputs = inputs();
        let path = tmp_path("resume");
        std::fs::write(&path, &bytes).unwrap();
        let resumed = inputs
            .lab
            .collect_resumable(&inputs.scenarios, &CheckpointConfig::new(&path, 2));
        let _ = std::fs::remove_file(&path);
        if let Ok(samples) = resumed {
            assert_eq!(samples.len(), inputs.scenarios.len());
        }
    });
}

/// The three seed files: both artifacts, then the checkpoint.
fn seed_file(i: usize) -> Vec<u8> {
    let inputs = inputs();
    match i % 3 {
        2 => inputs.checkpoint.clone(),
        a => inputs.artifacts[a].clone(),
    }
}

/// Read `bytes` as the kind of file seed file `i` is.
fn read_as(i: usize, bytes: Vec<u8>) {
    if i % 3 == 2 {
        resume(bytes)
    } else {
        load_artifact(bytes)
    }
}

/// Values spliced in for a field's own: out-of-range and wrong-typed
/// numbers, the other JSON kinds, and shapes no field expects.
const SPLICES: [&str; 14] = [
    "-1",
    "0",
    "1e309",
    "18446744073709551616",
    "-9223372036854775809",
    "1.5",
    "null",
    "true",
    "\"\"",
    "\"Quadratic\"",
    "[]",
    "{}",
    "[1, 2, 3, 4, 5, 6, 7, 8, 9]",
    "[[1, 2], [3]]",
];

/// `bytes` with the value after its `n`th `:` (up to the next `,`, `}`
/// or `]`) replaced by `splice`.
fn splice_value(bytes: &[u8], n: usize, splice: &str) -> Vec<u8> {
    let colons: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b':').collect();
    if colons.is_empty() {
        return bytes.to_vec();
    }
    let start = colons[n % colons.len()] + 1;
    let end = (start..bytes.len())
        .find(|&i| matches!(bytes[i], b',' | b'}' | b']'))
        .unwrap_or(bytes.len());
    let mut out = bytes[..start].to_vec();
    out.extend_from_slice(splice.as_bytes());
    out.extend_from_slice(&bytes[end..]);
    out
}

#[test]
fn saved_files_load_and_resume() {
    let inputs = inputs();
    for bytes in &inputs.artifacts {
        let path = tmp_path("intact");
        std::fs::write(&path, bytes).unwrap();
        let loaded = ModelRegistry::new().load(&path);
        let _ = std::fs::remove_file(&path);
        loaded.unwrap();
    }
    let path = tmp_path("intact");
    std::fs::write(&path, &inputs.checkpoint).unwrap();
    let resumed = inputs
        .lab
        .collect_resumable(&inputs.scenarios, &CheckpointConfig::new(&path, 2));
    let _ = std::fs::remove_file(&path);
    assert_eq!(resumed.unwrap().len(), inputs.scenarios.len());
}

#[test]
fn deep_nesting_is_an_error() {
    let deep = "[".repeat(10_000).into_bytes();
    let path = tmp_path("deep");
    std::fs::write(&path, &deep).unwrap();
    assert!(matches!(
        ModelRegistry::new().load(&path),
        Err(ColocError::CorruptArtifact { .. })
    ));
    let resumed = inputs()
        .lab
        .collect_resumable(&inputs().scenarios, &CheckpointConfig::new(&path, 2));
    let _ = std::fs::remove_file(&path);
    assert!(matches!(resumed, Err(ColocError::CorruptArtifact { .. })));
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(raw in prop::collection::vec(0u16..256, 0..256)) {
        let raw: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
        load_artifact(raw.clone());
        resume(raw);
    }

    #[test]
    fn truncated_files_never_panic(file in 0usize..3, cut in 0.0f64..1.0) {
        let bytes = seed_file(file);
        let cut = (cut * bytes.len() as f64) as usize;
        read_as(file, bytes[..cut].to_vec());
    }

    #[test]
    fn flipped_files_never_panic(
        file in 0usize..3,
        flips in prop::collection::vec((0.0f64..1.0, 0u16..256), 1..8),
    ) {
        let mut bytes = seed_file(file);
        for (at, raw) in flips {
            let at = (at * bytes.len() as f64) as usize;
            bytes[at] = raw as u8;
        }
        read_as(file, bytes);
    }

    #[test]
    fn spliced_files_never_panic(
        file in 0usize..3,
        splices in prop::collection::vec((0usize..4096, 0usize..SPLICES.len()), 1..4),
    ) {
        let mut bytes = seed_file(file);
        for (at, splice) in splices {
            bytes = splice_value(&bytes, at, SPLICES[splice]);
        }
        read_as(file, bytes);
    }
}
