//! The replayable scenario corpus.
//!
//! `crates/conformance/corpus/` holds checked-in JSON cases: a seed set
//! covering every engine feature axis, plus any shrunk counterexample a
//! failing suite run persisted. Replay is cheap — `coloc verify` and the
//! root package's `differential` suite both walk the directory, re-running
//! the differential oracle on plain cases and the named law on law-tagged
//! cases — so every future change re-litigates old failures for free.

use crate::case::CorpusCase;
use crate::diff;
use crate::laws;
use std::path::{Path, PathBuf};

/// The checked-in corpus directory (compile-time anchored to this crate,
/// so replay works from any working directory).
pub fn default_corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// Save a case as pretty JSON (trailing newline, diff-friendly).
pub fn save_case(path: &Path, case: &CorpusCase) -> Result<(), String> {
    let mut bytes = serde_json::to_vec_pretty(case).map_err(|e| e.to_string())?;
    bytes.push(b'\n');
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// Load one case.
pub fn load_case(path: &Path) -> Result<CorpusCase, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_slice(&bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// Load every `.json` case in a directory, sorted by file name for a
/// stable replay order. A missing directory is an empty corpus.
pub fn load_dir(dir: &Path) -> Result<Vec<(PathBuf, CorpusCase)>, String> {
    let mut paths: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("{}: {e}", dir.display())),
    };
    paths.sort();
    paths
        .into_iter()
        .map(|p| load_case(&p).map(|c| (p, c)))
        .collect()
}

/// Persist a shrunk counterexample; returns the path written. The file
/// name embeds the law (or `differential`) and the case seed, so repeat
/// failures overwrite rather than accumulate.
pub fn write_counterexample(
    dir: &Path,
    law: Option<&str>,
    case: &CorpusCase,
) -> Result<PathBuf, String> {
    let mut case = case.clone();
    case.law = law.map(str::to_string);
    let tag = law.unwrap_or("differential");
    let path = dir.join(format!("counterexample-{tag}-{:016x}.json", case.seed));
    save_case(&path, &case)?;
    Ok(path)
}

/// Result of replaying a corpus directory.
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Cases replayed through the differential oracle.
    pub differential: usize,
    /// Cases replayed through their named law.
    pub law_checks: usize,
    /// Failures, as `path: detail` strings.
    pub failures: Vec<String>,
}

impl VerifyReport {
    /// True when every case replayed clean.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Total cases replayed.
    pub fn total(&self) -> usize {
        self.differential + self.law_checks
    }
}

/// Replay every case in `dir` on one thread: law-tagged cases re-check
/// their law, everything else goes through the differential oracle.
/// Equivalent to [`verify_dir_threaded`] with `threads = 1`.
pub fn verify_dir(dir: &Path) -> Result<VerifyReport, String> {
    verify_dir_threaded(dir, 1)
}

/// Replay every case in `dir` across `threads` workers (0 = one per
/// core, capped at the case count). Cases are independent, so replay
/// fans out over the work-stealing pool; results aggregate in the
/// sorted-by-file-name order, making the report identical to a
/// sequential replay.
pub fn verify_dir_threaded(dir: &Path, threads: usize) -> Result<VerifyReport, String> {
    let cases = load_dir(dir)?;
    // (counted-as-law, counted-as-differential, failure) per case; an
    // unknown law counts as neither, matching the sequential replay.
    let outcomes = coloc_ml::parallel::run_indexed(cases.len(), threads, |i| {
        let (path, case) = &cases[i];
        match &case.law {
            Some(name) => match laws::law_by_name(name) {
                Some(law) => match law.check_case(case) {
                    Ok(()) => (true, false, None),
                    Err(detail) => (true, false, Some(format!("{}: {detail}", path.display()))),
                },
                None => (
                    false,
                    false,
                    Some(format!("{}: unknown law {name:?}", path.display())),
                ),
            },
            None => match diff::check_case(case) {
                Ok(_) => (false, true, None),
                Err(detail) => (false, true, Some(format!("{}: {detail}", path.display()))),
            },
        }
    });

    let mut report = VerifyReport::default();
    for (is_law, is_diff, failure) in outcomes {
        if is_law {
            report.law_checks += 1;
        }
        if is_diff {
            report.differential += 1;
        }
        if let Some(detail) = failure {
            report.failures.push(detail);
        }
    }
    Ok(report)
}

/// The canonical seed corpus: hand-picked cases pinning every feature
/// axis of the engine (both machines, multi-phase apps, partitioning,
/// degraded fixed points, every fault preset, solo and crowded mixes).
/// Checked into `corpus/` and replayed by CI; regenerate the files with
/// `COLOC_REGEN_CORPUS=1 cargo test --test differential seed_corpus`.
pub fn seed_corpus() -> Vec<CorpusCase> {
    use crate::case::{CoGroup, FaultSpec};
    let mk = |name: &str,
              machine: &str,
              target: &str,
              co: &[(&str, usize)],
              pstate: usize,
              seed: u64,
              noise: f64|
     -> CorpusCase {
        CorpusCase {
            name: name.into(),
            machine: machine.into(),
            target: target.into(),
            co: co
                .iter()
                .map(|&(app, count)| CoGroup::plain(app, count))
                .collect(),
            pstate,
            seed,
            noise_sigma: noise,
            instr_scale: 0.02,
            llc_partitioned: false,
            fp_budget: 0,
            faults: None,
            law: None,
        }
    };

    let mut cases = vec![
        // The plainest possible case: solo, noiseless, fastest P-state.
        mk("seed-solo-clean", "e5649", "canneal", &[], 0, 1, 0.0),
        // A paper-style contended mix with measurement noise.
        mk(
            "seed-contended-noisy",
            "e5649",
            "canneal",
            &[("cg", 3)],
            2,
            2,
            0.008,
        ),
        // Multi-phase target (ft) against a multi-phase co-runner
        // (bodytrack): exercises phase-boundary segmentation.
        mk(
            "seed-multiphase",
            "e5649",
            "ft",
            &[("bodytrack", 2)],
            1,
            3,
            0.008,
        ),
        // The 12-core machine at full occupancy, slowest P-state.
        mk(
            "seed-12core-full",
            "e5_2697v2",
            "streamcluster",
            &[("cg", 6), ("ep", 5)],
            5,
            4,
            0.0,
        ),
    ];

    // Partitioned LLC: cache contention off, DRAM contention on.
    let mut partitioned = mk("seed-partitioned", "e5649", "mg", &[("sp", 4)], 3, 5, 0.008);
    partitioned.llc_partitioned = true;
    cases.push(partitioned);

    // A budgeted fixed point that must degrade identically in both
    // engines (truncated solves, warm-started CPI).
    let mut budgeted = mk("seed-fp-budget", "e5649", "cg", &[("mg", 4)], 0, 6, 0.0);
    budgeted.fp_budget = 32;
    cases.push(budgeted);

    // Fault presets: a plan that cannot fire, and both chaos presets.
    let mut noop = mk("seed-fault-noop", "e5649", "ua", &[("cg", 2)], 1, 7, 0.008);
    noop.faults = Some(FaultSpec::Noop { seed: 70 });
    cases.push(noop);
    let mut light = mk(
        "seed-fault-light",
        "e5_2697v2",
        "canneal",
        &[("cg", 5)],
        2,
        8,
        0.008,
    );
    light.faults = Some(FaultSpec::Light { seed: 80 });
    cases.push(light);
    let mut heavy = mk(
        "seed-fault-heavy",
        "e5_2697v2",
        "ft",
        &[("streamcluster", 7)],
        4,
        9,
        0.008,
    );
    heavy.faults = Some(FaultSpec::Heavy { seed: 90 });
    cases.push(heavy);

    // A compute-bound target barely disturbed by a crowd — the regime
    // where slowdown sits just above 1 and relative tolerances are
    // tightest.
    cases.push(mk(
        "seed-compute-bound",
        "e5649",
        "ep",
        &[("blackscholes", 5)],
        0,
        10,
        0.0,
    ));

    // ---- Event-schedule families ------------------------------------
    // Every value is an exact binary fraction, so the JSON files replay
    // bit-identically. Ticks are in simulated seconds; at the corpus
    // `instr_scale` runs last a few hundredths of a second, so the
    // palette values land mid-run.

    // Staggered starts: co-runners begin mid-app, no arrivals.
    let mut stagger = mk(
        "seed-event-stagger",
        "e5649",
        "canneal",
        &[("cg", 2), ("mg", 1)],
        1,
        11,
        0.0,
    );
    stagger.co[0].phase_offset = Some(0.25);
    stagger.co[1].phase_offset = Some(0.5);
    cases.push(stagger);

    // A co-runner that arrives mid-run.
    let mut arrival = mk(
        "seed-event-arrival",
        "e5649",
        "ft",
        &[("bodytrack", 2)],
        2,
        12,
        0.0,
    );
    arrival.co[0].arrival = Some(0.015625);
    cases.push(arrival);

    // A co-runner that departs mid-run, under measurement noise.
    let mut departure = mk(
        "seed-event-departure",
        "e5649",
        "ua",
        &[("cg", 3)],
        0,
        13,
        0.008,
    );
    departure.co[0].departure = Some(0.0625);
    cases.push(departure);

    // A bounded residency window: arrive, contend, leave.
    let mut window = mk(
        "seed-event-window",
        "e5_2697v2",
        "streamcluster",
        &[("sp", 4)],
        3,
        14,
        0.0,
    );
    window.co[0].arrival = Some(0.015625);
    window.co[0].departure = Some(0.078125);
    cases.push(window);

    // Per-core clock ratios: one slow group, one fast.
    let mut clocks = mk(
        "seed-event-clocks",
        "e5649",
        "mg",
        &[("cg", 2), ("ep", 2)],
        1,
        15,
        0.0,
    );
    clocks.co[0].clock_ratio = Some(0.5);
    clocks.co[1].clock_ratio = Some(1.5);
    cases.push(clocks);

    // Mixed intensity classes with mixed event kinds: a class-I streamer
    // arriving mid-run next to a staggered, overclocked class-IV group.
    let mut mixed = mk(
        "seed-event-mixed-class",
        "e5_2697v2",
        "canneal",
        &[("cg", 4), ("ep", 4)],
        2,
        16,
        0.008,
    );
    mixed.co[0].arrival = Some(0.03125);
    mixed.co[1].phase_offset = Some(0.375);
    mixed.co[1].clock_ratio = Some(1.25);
    cases.push(mixed);

    // Disjoint residency windows: 10 co instances on a 6-core machine,
    // legal because the first wave departs before the second arrives —
    // the capacity check is over *peak* concurrency, not the static sum.
    let mut disjoint = mk(
        "seed-event-disjoint-windows",
        "e5649",
        "canneal",
        &[("cg", 5), ("mg", 5)],
        0,
        17,
        0.0,
    );
    disjoint.co[0].departure = Some(0.03125);
    disjoint.co[1].arrival = Some(0.03125);
    cases.push(disjoint);

    // Every schedule field at once on a single group.
    let mut full = mk(
        "seed-event-all-fields",
        "e5649",
        "fluidanimate",
        &[("streamcluster", 2)],
        4,
        18,
        0.0,
    );
    full.co[0].phase_offset = Some(0.125);
    full.co[0].arrival = Some(0.0078125);
    full.co[0].departure = Some(0.1328125);
    full.co[0].clock_ratio = Some(0.75);
    cases.push(full);

    // Events composed with a partitioned LLC.
    let mut part = mk(
        "seed-event-partitioned",
        "e5649",
        "sp",
        &[("canneal", 3)],
        2,
        19,
        0.0,
    );
    part.llc_partitioned = true;
    part.co[0].arrival = Some(0.015625);
    part.co[0].departure = Some(0.140625);
    cases.push(part);

    // Events composed with fault injection and a fixed-point budget: the
    // full degraded-path stack on top of a scheduled workload.
    let mut chaotic = mk(
        "seed-event-faulted-budget",
        "e5_2697v2",
        "ft",
        &[("cg", 6), ("bodytrack", 3)],
        5,
        20,
        0.008,
    );
    chaotic.faults = Some(FaultSpec::Light { seed: 200 });
    chaotic.fp_budget = 200;
    chaotic.co[0].phase_offset = Some(0.25);
    chaotic.co[1].arrival = Some(0.015625);
    chaotic.co[1].clock_ratio = Some(1.25);
    cases.push(chaotic);

    // ---- Law-tagged cases -------------------------------------------
    // Replayed through their named law instead of the differential
    // oracle, so `coloc verify` re-litigates the exact invariants the
    // registry pipeline leans on.

    // A cross-interference matrix diagonal cell: canneal against one
    // instance of itself, with measurement noise — the identical-pair
    // counter symmetry must hold bit-for-bit anyway.
    let mut diagonal = mk(
        "seed-law-identical-pair",
        "e5649",
        "canneal",
        &[("canneal", 1)],
        1,
        21,
        0.008,
    );
    diagonal.law = Some("matrix-identical-pair-symmetry".into());
    cases.push(diagonal);

    // A heterogeneous mixed pair: the per-co-runner encoding must lower
    // to the same bits whichever way the pair is listed.
    let mut mixed_pair = mk(
        "seed-law-mixed-pair",
        "e5649",
        "ft",
        &[("cg", 1), ("ep", 1)],
        0,
        22,
        0.0,
    );
    mixed_pair.law = Some("mixed-pair-order-invariance".into());
    cases.push(mixed_pair);

    cases
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::CoGroup;
    use coloc_machine::GroupRef;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("coloc_conformance_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_load_round_trip() {
        let dir = tmp_dir("roundtrip");
        let case = crate::case::gen_case(3, &crate::case::GenConstraints::default());
        let path = dir.join("case.json");
        save_case(&path, &case).unwrap();
        assert_eq!(load_case(&path).unwrap(), case);
        let loaded = load_dir(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].1, case);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_dir_is_empty_corpus() {
        let dir = std::env::temp_dir().join("coloc_conformance_definitely_missing");
        assert!(load_dir(&dir).unwrap().is_empty());
    }

    #[test]
    fn counterexample_files_carry_their_law() {
        let dir = tmp_dir("counterexample");
        let case = crate::case::gen_case(4, &crate::case::GenConstraints::default());
        let path = write_counterexample(&dir, Some("solo-unity"), &case).unwrap();
        let loaded = load_case(&path).unwrap();
        assert_eq!(loaded.law.as_deref(), Some("solo-unity"));
        assert!(path
            .file_name()
            .unwrap()
            .to_string_lossy()
            .starts_with("counterexample-solo-unity-"));
        let diff_path = write_counterexample(&dir, None, &case).unwrap();
        assert!(diff_path
            .file_name()
            .unwrap()
            .to_string_lossy()
            .starts_with("counterexample-differential-"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seed_corpus_is_buildable_and_distinctly_named() {
        let cases = seed_corpus();
        assert!(cases.len() >= 18, "corpus should cover the feature axes");
        assert!(
            cases
                .iter()
                .filter(|c| c.co.iter().any(CoGroup::has_schedule))
                .count()
                >= 10,
            "corpus should cover the event families"
        );
        let mut names: Vec<_> = cases.iter().map(|c| c.name.clone()).collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate corpus case names");
        for case in &cases {
            let built = case.build().expect("seed case builds");
            // Capacity is over *peak* concurrency: disjoint residency
            // windows legally oversubscribe the static sum.
            let refs: Vec<GroupRef> = built.workload.iter().map(GroupRef::from_group).collect();
            let occupied = coloc_machine::event::cores_needed(&refs, built.schedules.as_deref());
            assert!(occupied <= built.spec.cores, "{}", case.describe());
        }
    }

    #[test]
    fn verify_reports_unknown_laws() {
        let dir = tmp_dir("unknown_law");
        let mut case = crate::case::gen_case(5, &crate::case::GenConstraints::default());
        case.law = Some("not-a-law".into());
        save_case(&dir.join("bad.json"), &case).unwrap();
        let report = verify_dir(&dir).unwrap();
        assert!(!report.is_clean());
        assert!(report.failures[0].contains("unknown law"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
