//! Explicit job lists on one machine's sockets: the path `coloc schedule`
//! takes, a single-group [`PlacementSim`] over a loaded model artifact.
//!
//! Three job lists × two policies are pinned: each case's per-socket
//! assignment and its determinism digest, which covers every job's
//! socket, expected slowdown and oracle slowdown bits. Beside them, the
//! relations the pinned numbers must keep whenever they are regenerated:
//! every job placed once within capacity, and least-interference
//! splitting the memory hogs and beating blind packing on measured
//! slowdown and unfairness.

use coloc_machine::presets;
use coloc_model::{
    ColocError, FeatureSet, Lab, ModelArtifact, ModelKind, ModelRegistry, TrainRequest,
    TrainingPlan,
};
use coloc_placement::{Assignment, FleetSpec, PlacePolicy, PlacementSim, PolicyOutcome, SimConfig};
use std::sync::{Arc, OnceLock};

/// A linear full-feature model trained on a small E5649 sweep, saved and
/// loaded back as `coloc schedule --model` loads it.
fn artifact() -> Arc<ModelArtifact> {
    static CELL: OnceLock<Arc<ModelArtifact>> = OnceLock::new();
    CELL.get_or_init(|| {
        let lab = Lab::new(presets::xeon_e5649(), coloc_workloads::standard(), 9).unwrap();
        let req = TrainRequest {
            kind: ModelKind::Linear,
            set: FeatureSet::F,
            plan: TrainingPlan {
                pstates: vec![0],
                targets: vec![
                    "cg".into(),
                    "canneal".into(),
                    "fluidanimate".into(),
                    "ep".into(),
                ],
                co_runners: vec!["cg".into(), "sp".into(), "ep".into()],
                counts: vec![1, 2, 3, 5],
            },
            seed: 1,
            policy: None,
        };
        let registry = ModelRegistry::new();
        let trained = registry.resolve(&lab, &req).unwrap();
        let dir = std::env::temp_dir().join("coloc-placement-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("linear-f-{}.json", std::process::id()));
        registry.save(&trained, &path).unwrap();
        let loaded = registry.load(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        loaded
    })
    .clone()
}

fn suite_names() -> Vec<&'static str> {
    coloc_workloads::standard().iter().map(|b| b.name).collect()
}

/// Places `jobs` on `sockets` E5649 sockets with the loaded artifact.
fn place(policy: PlacePolicy, sockets: usize, jobs: &[&str]) -> (PolicyOutcome, Vec<Assignment>) {
    let names = suite_names();
    let apps: Vec<u8> = jobs
        .iter()
        .map(|j| names.iter().position(|n| n == j).unwrap() as u8)
        .collect();
    let cfg = SimConfig {
        fleet: FleetSpec::single(presets::xeon_e5649(), sockets),
        seed: 9,
        ..SimConfig::smoke(jobs.len())
    };
    let mut sim = PlacementSim::with_artifact(cfg, artifact()).unwrap();
    sim.run_policy_on_jobs(policy, apps).unwrap()
}

/// Job names per socket, in list order within each socket.
fn per_socket(sockets: usize, placed: &[Assignment]) -> Vec<Vec<&'static str>> {
    let names = suite_names();
    let mut out = vec![Vec::new(); sockets];
    for a in placed {
        out[a.socket as usize].push(names[a.app as usize]);
    }
    out
}

const MIXED: &[&str] = &["cg", "cg", "cg", "cg", "ep", "ep", "ep", "ep"];
const UNIFORM: &[&str] = &["ep"; 6];
const PARTIAL: &[&str] = &["cg", "canneal", "ep"];

#[test]
fn pinned_cases_keep_their_assignments_and_digests() {
    use PlacePolicy::{LeastInterference as Li, PackFirstFit as Pack};
    type Pinned = (
        PlacePolicy,
        usize,
        &'static [&'static str],
        &'static [&'static [&'static str]],
        u64,
    );
    let cases: [Pinned; 6] = [
        (
            Pack,
            2,
            MIXED,
            &[&["cg", "cg", "cg", "cg", "ep", "ep"], &["ep", "ep"]],
            0x4d521d3cdba5010e,
        ),
        (Pack, 2, UNIFORM, &[&["ep"; 6], &[]], 0xbf5590115a893fe0),
        (
            Pack,
            3,
            PARTIAL,
            &[&["cg", "canneal", "ep"], &[], &[]],
            0x97b675bd631125bf,
        ),
        (
            Li,
            2,
            MIXED,
            &[&["cg", "cg", "ep", "ep", "ep", "ep"], &["cg", "cg"]],
            0x495c870c54e11938,
        ),
        (
            Li,
            2,
            UNIFORM,
            &[&["ep"; 3], &["ep"; 3]],
            0x6679b872f72fffff,
        ),
        (
            Li,
            3,
            PARTIAL,
            &[&["cg"], &["canneal"], &["ep"]],
            0xda7bf789df320277,
        ),
    ];
    for (policy, sockets, jobs, want, digest) in cases {
        let (outcome, placed) = place(policy, sockets, jobs);
        let got = per_socket(sockets, &placed);
        // What must hold whatever the pinned values: one wave, every job
        // once in list order, no socket over its six cores, and sane
        // aggregates.
        assert_eq!((outcome.jobs, outcome.waves), (jobs.len(), 1), "{policy}");
        let order: Vec<usize> = placed.iter().map(|a| a.job).collect();
        assert_eq!(order, (0..jobs.len()).collect::<Vec<_>>(), "{policy}");
        assert!(got.iter().all(|s| s.len() <= 6), "{policy}: {got:?}");
        assert!(outcome.oracle_max_slowdown >= outcome.oracle_mean_slowdown);
        assert!(
            outcome.unfairness >= 1.0,
            "{policy}: {}",
            outcome.unfairness
        );

        assert_eq!(got, want, "{policy} on {jobs:?}");
        assert_eq!(
            outcome.determinism_digest, digest,
            "{policy} on {jobs:?}: digest {:#018x}",
            outcome.determinism_digest
        );
    }
}

#[test]
fn least_interference_splits_the_hogs_and_beats_packing() {
    let (packed, _) = place(PlacePolicy::PackFirstFit, 2, MIXED);
    let (spread, placed) = place(PlacePolicy::LeastInterference, 2, MIXED);
    let hogs: Vec<usize> = per_socket(2, &placed)
        .iter()
        .map(|s| s.iter().filter(|&&j| j == "cg").count())
        .collect();
    assert_eq!(hogs, [2, 2], "{placed:?}");
    assert!(
        spread.oracle_mean_slowdown < packed.oracle_mean_slowdown,
        "measured mean: spread {} vs packed {}",
        spread.oracle_mean_slowdown,
        packed.oracle_mean_slowdown
    );
    assert!(
        spread.unfairness < packed.unfairness,
        "unfairness: spread {} vs packed {}",
        spread.unfairness,
        packed.unfairness
    );
}

#[test]
fn an_empty_job_list_is_a_typed_error() {
    let cfg = SimConfig {
        fleet: FleetSpec::single(presets::xeon_e5649(), 2),
        ..SimConfig::smoke(1)
    };
    let mut sim = PlacementSim::with_artifact(cfg, artifact()).unwrap();
    assert!(matches!(
        sim.run_policy_on_jobs(PlacePolicy::LeastInterference, Vec::new()),
        Err(ColocError::DegenerateDataset(_))
    ));
    assert!(matches!(
        sim.run_policy_on_jobs(PlacePolicy::LeastInterference, vec![200]),
        Err(ColocError::UnknownApp(_))
    ));
}
