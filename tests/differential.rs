//! The differential conformance suite: ≥ 400 seeded scenarios through
//! the optimized stack and the naive reference engine, plus the replay
//! of the checked-in engine and placement corpus. Roughly half the
//! co-located cases carry an event schedule (staggered starts, mid-run
//! arrival/departure, per-core clocks), so the era-compacted driver is
//! differentially checked against the naive per-segment replay. A failure is shrunk and persisted under
//! `corpus/` before the test panics, so the regression is replayed by
//! every future run (and uploaded as a CI artifact).

use coloc_conformance::{corpus, differential_sweep, verify_dir, Case};

/// Base seed of the generated sweep. Changing it trades one slice of
/// scenario space for another; the corpus keeps old discoveries alive.
const SWEEP_SEED: u64 = 0xC0_10C;
const SWEEP_CASES: usize = 400;

#[test]
fn optimized_engine_matches_reference_on_generated_scenarios() {
    match differential_sweep(SWEEP_SEED, SWEEP_CASES, 1) {
        Ok(summary) => {
            assert_eq!(summary.cases, SWEEP_CASES);
            // The sweep must actually exercise the interesting axes, not
            // just happy-path mixes.
            assert!(summary.faulted > 0, "no faulted case generated");
            assert!(summary.budgeted > 0, "no fp-budget case generated");
            assert!(summary.solo > 0, "no solo case generated");
            assert!(summary.events > 0, "no event-schedule case generated");
            assert!(
                summary.max_slowdown_gap <= coloc_conformance::SLOWDOWN_REL_TOL,
                "slowdown gap {} exceeds tolerance",
                summary.max_slowdown_gap
            );
        }
        Err(failure) => {
            let dir = corpus::default_corpus_dir();
            let path = corpus::write_counterexample(&dir, None, &failure.case)
                .unwrap_or_else(|e| panic!("failed to persist counterexample: {e}"));
            panic!(
                "differential divergence (shrunk case persisted to {}):\n{}\n{}",
                path.display(),
                failure.case.describe(),
                failure.detail
            );
        }
    }
}

#[test]
fn capped_solves_skip_their_cycles_bit_for_bit() {
    use coloc_conformance::{gen_case, GenConstraints, RefEngine};
    use coloc_machine::{SegmentTrace, StageId, StageProfile};

    // The engine skips whole periods of a segment solve that repeats its
    // state exactly; the reference runs every iteration. Over the sweep's
    // cases with a segment that stopped short of tolerance, the two must
    // agree bit for bit, and the engine must have run fewer solver stage
    // calls than the iterations it reports.
    let capped = coloc_ml::parallel::run_indexed(SWEEP_CASES, 0, |i| {
        let case = gen_case(
            SWEEP_SEED.wrapping_add(i as u64),
            &GenConstraints::default(),
        );
        let ir = case.to_ir().expect("generated cases lower");
        let machine = ir.machine().expect("generated spec validates");
        let mut profile = StageProfile::new();
        let mut trace = SegmentTrace::new(ir.opts.max_segments);
        let schedules = ir.schedules.as_deref();
        // Rejected workloads are the differential sweep's concern.
        let engine = machine
            .run_observed(
                &ir.workload,
                schedules,
                &ir.opts,
                Some(&mut profile),
                Some(&mut trace),
            )
            .ok()?;
        assert_eq!(trace.dropped(), 0, "{}: trace is complete", case.describe());
        if !trace.records().any(|r| r.residual > 0.0) {
            return None;
        }
        let reference = RefEngine::new(ir.machine.clone())
            .and_then(|r| r.run_scheduled(&ir.workload, schedules, &ir.opts))
            .unwrap_or_else(|e| panic!("{}: reference rejected it: {e}", case.describe()));
        assert!(
            engine.digest() == reference.digest(),
            "{}: capped run diverged from the reference",
            case.describe()
        );
        Some((
            profile.get(StageId::LlcShare).invocations,
            engine.fp_iterations,
        ))
    });
    let capped: Vec<(u64, u64)> = capped.into_iter().flatten().collect();
    assert!(
        capped.len() >= 100,
        "only {} cases with a capped segment",
        capped.len()
    );
    let calls: u64 = capped.iter().map(|c| c.0).sum();
    let iterations: u64 = capped.iter().map(|c| c.1).sum();
    assert!(
        calls < iterations,
        "no cycle skipped: {calls} LlcShare calls for {iterations} iterations"
    );
}

#[test]
fn event_execution_is_bit_identical_across_thread_counts() {
    use coloc_conformance::{gen_case, CoGroup, GenConstraints};

    // A batch of generated cases, keeping only those carrying an event
    // schedule — the scheduler's determinism claim is that the worker
    // pool's thread count is invisible to every simulated bit.
    let cases: Vec<_> = (0..64u64)
        .map(|i| gen_case(0xE7E27 + i, &GenConstraints::default()))
        .filter(|c| c.co.iter().any(CoGroup::has_schedule))
        .collect();
    assert!(cases.len() >= 8, "not enough event cases generated");

    let run_all = |threads: usize| {
        coloc_ml::parallel::run_indexed(cases.len(), threads, |i| {
            let ir = cases[i].to_ir().expect("case lowers");
            ir.machine()
                .unwrap()
                .run_observed(&ir.workload, ir.schedules.as_deref(), &ir.opts, None, None)
                .expect("event case runs")
        })
    };
    let sequential = run_all(1);
    for threads in [2usize, 8] {
        let parallel = run_all(threads);
        for (i, (a, b)) in sequential.iter().zip(&parallel).enumerate() {
            assert!(
                a.digest() == b.digest(),
                "case {i} diverged at {threads} threads: {}",
                cases[i].describe()
            );
        }
    }
}

#[test]
fn featurize_matches_independent_sums_across_the_sweep() {
    use coloc_conformance::{gen_case, CoGroup, GenConstraints};
    use coloc_model::{Feature, Lab, Scenario};

    // Every fault-free lockstep sweep case, mapped to a `Scenario`:
    // `Lab::featurize` must equal the Table I row summed here, straight
    // from the lab's baselines, bit for bit — the homogeneous and mixed
    // cases alike — and listing the co groups in reverse must not move a
    // single bit. One lab per machine key, built lazily, so baselines are
    // profiled once per preset.
    let mut labs: Vec<(String, Lab)> = Vec::new();
    let mut checked = 0usize;
    for i in 0..SWEEP_CASES as u64 {
        let case = gen_case(SWEEP_SEED.wrapping_add(i), &GenConstraints::default());
        if case.faults.is_some() || case.co.iter().any(CoGroup::has_schedule) {
            continue;
        }
        if !labs.iter().any(|(k, _)| *k == case.machine) {
            let spec = coloc_conformance::case::machine_spec(&case.machine).unwrap();
            let lab = Lab::new(spec, coloc_workloads::standard(), 7)
                .unwrap()
                .with_threads(1);
            labs.push((case.machine.clone(), lab));
        }
        let lab = &labs.iter().find(|(k, _)| *k == case.machine).unwrap().1;
        let scenario = Scenario {
            target: case.target.clone(),
            co_located: case.co.iter().map(|g| (g.app.clone(), g.count)).collect(),
            pstate: case.pstate,
        };
        let row = lab.featurize(&scenario).expect("sweep case featurizes");

        let db = lab.baselines();
        let target = db.get(&case.target).expect("target profiled");
        let mut expected = [0.0; 8];
        expected[Feature::BaseExTime.index()] = target.exec_time_s[case.pstate];
        expected[Feature::TargetMem.index()] = target.memory_intensity;
        expected[Feature::TargetCmCa.index()] = target.cm_ca;
        expected[Feature::TargetCaIns.index()] = target.ca_ins;
        for g in case.co.iter().filter(|g| g.count > 0) {
            let b = db.get(&g.app).expect("co-runner profiled");
            let n = g.count as f64;
            expected[Feature::NumCoApp.index()] += n;
            expected[Feature::CoAppMem.index()] += b.memory_intensity * n;
            expected[Feature::CoAppCmCa.index()] += b.cm_ca * n;
            expected[Feature::CoAppCaIns.index()] += b.ca_ins * n;
        }
        for (k, (a, b)) in row.iter().zip(&expected).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "case {}: feature {k} diverged from the baseline sums ({a} vs {b})",
                case.describe()
            );
        }
        let mut reversed = scenario.clone();
        reversed.co_located.reverse();
        let reversed_row = lab.featurize(&reversed).expect("reversed featurizes");
        for (k, (a, b)) in row.iter().zip(&reversed_row).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "case {}: feature {k} moved under co-order reversal ({a} vs {b})",
                case.describe()
            );
        }
        checked += 1;
    }
    assert!(checked >= 100, "only {checked} lockstep cases in the sweep");
}

#[test]
fn checked_in_corpus_replays_clean() {
    // The 22 engine and 6 placement seed files, plus any counterexample
    // persisted beside them; `corpus/README.md` lists the seeds.
    let report = verify_dir(&corpus::default_corpus_dir(), 0).expect("corpus readable");
    assert!(
        report.differential + report.law_checks >= 22 && report.placement >= 6,
        "corpus on disk is smaller than its seed set: {report:?}"
    );
    assert!(
        report.is_clean(),
        "corpus replay failures:\n{}",
        report.failures.join("\n")
    );
}
