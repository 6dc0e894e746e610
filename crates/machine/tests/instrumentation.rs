//! Audit tests for run observation: stage profiles and segment traces
//! must *describe* a run without perturbing it, and their accounting has
//! to be physically possible — per-stage time can never exceed the time
//! the whole run took, and event-granular counts must add up to the
//! schedule that was actually dispatched.

use coloc_cachesim::StackDistanceDist;
use coloc_machine::{
    presets, AppPhase, AppProfile, GroupSchedule, Machine, RunOptions, RunnerGroup, SegmentRecord,
    SegmentTrace, StageId, StageProfile,
};

fn hungry(name: &str, instructions: f64) -> AppProfile {
    AppProfile::single_phase(
        name,
        instructions,
        AppPhase {
            weight: 1.0,
            dist: StackDistanceDist::power_law(1_000_000, 0.35, 0.02),
            accesses_per_instr: 0.03,
            cpi_base: 0.9,
            mlp: 4.0,
        },
    )
}

fn scheduled_fixture() -> (Machine, Vec<RunnerGroup>, Vec<GroupSchedule>, RunOptions) {
    let machine = Machine::new(presets::xeon_e5649()).expect("valid preset");
    let workload = vec![
        RunnerGroup::solo(hungry("target", 2e9)),
        RunnerGroup {
            app: hungry("windowed", 1e9),
            count: 2,
        },
        RunnerGroup {
            app: hungry("late", 1e9),
            count: 1,
        },
    ];
    // Probe the horizon so the window is guaranteed to open and close
    // mid-run: departure at half the co-located wall, arrival at an
    // eighth of it.
    let probe = machine
        .run(&workload, &RunOptions::default())
        .expect("probe run")
        .wall_time_s;
    let schedules = vec![
        GroupSchedule::default(),
        GroupSchedule {
            departure_tick: Some(probe * 0.5),
            ..GroupSchedule::default()
        },
        GroupSchedule {
            arrival_tick: probe * 0.125,
            ..GroupSchedule::default()
        },
    ];
    (machine, workload, schedules, RunOptions::default())
}

#[test]
fn stage_nanos_never_exceed_the_run_wall_clock() {
    let (machine, workload, schedules, opts) = scheduled_fixture();
    let mut profile = StageProfile::new();
    let started = std::time::Instant::now();
    let outcome = machine
        .run_observed(&workload, Some(&schedules), &opts, Some(&mut profile), None)
        .expect("instrumented run");
    let elapsed = started.elapsed().as_nanos() as u64;

    // Stages are timed disjointly inside the run, so their sum is a
    // lower-bound decomposition of the run's own wall clock: any stage
    // (and the total) claiming more time than the run took is
    // double-counting.
    let mut total_nanos = 0u64;
    for (id, stats) in profile.iter() {
        assert!(
            stats.nanos <= elapsed,
            "stage {} claims {}ns of a {}ns run",
            id.label(),
            stats.nanos,
            elapsed
        );
        total_nanos += stats.nanos;
    }
    assert!(
        total_nanos <= elapsed,
        "stages claim {total_nanos}ns of a {elapsed}ns run"
    );
    assert!(outcome.wall_time_s > 0.0);
}

#[test]
fn event_dispatch_is_counted_iff_events_fire() {
    let (machine, workload, schedules, opts) = scheduled_fixture();

    // The scheduled run dispatches events, and says so.
    let mut scheduled = StageProfile::new();
    machine
        .run_observed(
            &workload,
            Some(&schedules),
            &opts,
            Some(&mut scheduled),
            None,
        )
        .expect("instrumented run");
    assert!(
        scheduled.get(StageId::EventDispatch).invocations > 0,
        "no event dispatch recorded for a scheduled run"
    );

    // A lockstep run of the same workload never touches the stage.
    let mut lockstep = StageProfile::new();
    machine
        .run_observed(&workload, None, &opts, Some(&mut lockstep), None)
        .expect("instrumented run");
    assert_eq!(
        lockstep.get(StageId::EventDispatch).invocations,
        0,
        "event dispatch recorded for a lockstep run"
    );
    // ...and neither does an all-default schedule (the degenerate case).
    let defaults = vec![GroupSchedule::default(); workload.len()];
    let mut degenerate = StageProfile::new();
    machine
        .run_observed(
            &workload,
            Some(&defaults),
            &opts,
            Some(&mut degenerate),
            None,
        )
        .expect("instrumented run");
    assert_eq!(degenerate.get(StageId::EventDispatch).invocations, 0);
}

#[test]
fn observation_does_not_perturb_the_outcome() {
    let (machine, workload, schedules, opts) = scheduled_fixture();
    let sched = Some(schedules.as_slice());
    let plain = machine
        .run_observed(&workload, sched, &opts, None, None)
        .expect("plain run");
    let mut profile_only = StageProfile::new();
    let instrumented = machine
        .run_observed(&workload, sched, &opts, Some(&mut profile_only), None)
        .expect("instrumented run");
    let mut trace_only = SegmentTrace::new(64);
    let traced = machine
        .run_observed(&workload, sched, &opts, None, Some(&mut trace_only))
        .expect("traced run");
    // Both observers on one run, as `coloc trace --stage-stats` attaches
    // them.
    let mut profile = StageProfile::new();
    let mut trace = SegmentTrace::new(64);
    let both = machine
        .run_observed(
            &workload,
            sched,
            &opts,
            Some(&mut profile),
            Some(&mut trace),
        )
        .expect("doubly observed run");
    for other in [&instrumented, &traced, &both] {
        assert_eq!(plain.wall_time_s.to_bits(), other.wall_time_s.to_bits());
        assert_eq!(plain.segments, other.segments);
        assert_eq!(plain.fp_iterations, other.fp_iterations);
        assert_eq!(
            plain.avg_mem_latency_ns.to_bits(),
            other.avg_mem_latency_ns.to_bits()
        );
        for (a, b) in plain.counters.iter().zip(&other.counters) {
            assert_eq!(a.cycles.to_bits(), b.cycles.to_bits());
            assert_eq!(a.instructions.to_bits(), b.instructions.to_bits());
            assert_eq!(a.llc_misses.to_bits(), b.llc_misses.to_bits());
        }
    }
    // Each observer sees the same run whether or not the other watches.
    let records = |t: &SegmentTrace| t.records().copied().collect::<Vec<SegmentRecord>>();
    assert!(!trace.is_empty());
    assert_eq!(records(&trace), records(&trace_only));
    assert_eq!(trace.dropped(), trace_only.dropped());
    let calls = |p: &StageProfile| p.iter().map(|(_, s)| s.invocations).collect::<Vec<u64>>();
    assert_eq!(calls(&profile), calls(&profile_only));
    assert!(profile.get(StageId::LlcShare).invocations > 0);
}

#[test]
fn segment_trace_accounts_for_every_dispatched_event() {
    let (machine, workload, schedules, opts) = scheduled_fixture();
    // Capacity covers the whole run, so no record is evicted and the
    // event counts must add up exactly: one departure + one arrival.
    let mut trace = SegmentTrace::new(1_000_000);
    let outcome = machine
        .run_observed(&workload, Some(&schedules), &opts, None, Some(&mut trace))
        .expect("traced run");
    assert_eq!(trace.records().count(), outcome.segments);
    let fired: u32 = trace.records().map(|r| r.events).sum();
    assert_eq!(fired, 2, "expected exactly one departure and one arrival");

    // Era structure: residency shrinks after the departure, grows after
    // the arrival, and is always within [1, groups].
    let n_groups = workload.len();
    for record in trace.records() {
        assert!(record.resident_groups >= 1 && record.resident_groups <= n_groups);
        assert!(record.dt >= 0.0);
    }
    // A lockstep trace reports full residency and zero events everywhere.
    let mut lockstep = SegmentTrace::new(1_000_000);
    machine
        .run_observed(&workload, None, &opts, None, Some(&mut lockstep))
        .expect("traced run");
    for record in lockstep.records() {
        assert_eq!(record.events, 0);
        assert_eq!(record.resident_groups, n_groups);
    }
}
