//! Property-based tests for the co-execution engine's invariants.

use coloc_cachesim::StackDistanceDist;
use coloc_machine::{
    presets, AppPhase, AppProfile, EventKind, EventQueue, GroupSchedule, Machine, RunOptions,
    RunnerGroup,
};
use proptest::prelude::*;

fn app_strategy() -> impl Strategy<Value = AppProfile> {
    (
        10u64..200,    // instructions, billions
        1usize..400,   // working set, thousands of lines
        0.2f64..1.8,   // locality alpha
        1e-4f64..0.05, // churn
        1e-4f64..0.05, // accesses per instruction
        0.5f64..1.5,   // base CPI
        1.0f64..8.0,   // MLP
    )
        .prop_map(|(gi, ws, alpha, churn, apki, cpi, mlp)| {
            AppProfile::single_phase(
                "prop",
                gi as f64 * 1e9,
                AppPhase {
                    weight: 1.0,
                    dist: StackDistanceDist::power_law(ws * 1000, alpha, churn),
                    accesses_per_instr: apki,
                    cpi_base: cpi,
                    mlp,
                },
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conservation and sanity of counters for arbitrary solo runs.
    #[test]
    fn solo_run_counters_are_consistent(app in app_strategy(), pstate in 0usize..6) {
        let m = Machine::new(presets::xeon_e5649()).expect("valid preset");
        let out = m.run_solo(&app, &RunOptions { pstate, ..Default::default() }).unwrap();
        let c = &out.counters[0];
        // All instructions retired, exactly one completion.
        prop_assert!((c.instructions - app.instructions).abs() < 1e-3 * app.instructions);
        prop_assert_eq!(c.completed_runs, 1);
        // Misses never exceed accesses; counters non-negative.
        prop_assert!(c.llc_misses <= c.llc_accesses + 1e-9);
        prop_assert!(c.llc_misses >= 0.0 && c.llc_accesses >= 0.0);
        // Cycles consistent with wall time and frequency.
        let freq = m.spec().freq_hz(pstate).unwrap();
        prop_assert!((c.cycles - out.wall_time_s * freq).abs() < 1.0);
        // Time is bounded below by pure compute and above by a stall bound.
        let compute = app.instructions * app.phases[0].cpi_base / freq;
        prop_assert!(out.wall_time_s >= compute * 0.999);
        prop_assert!(out.wall_time_s <= compute * 1000.0);
    }

    /// Co-location never speeds the target up, and the target's solo time
    /// is a lower bound.
    #[test]
    fn co_location_never_helps(
        target in app_strategy(),
        co in app_strategy(),
        n in 1usize..6,
    ) {
        let m = Machine::new(presets::xeon_e5649()).expect("valid preset");
        let solo = m.run_solo(&target, &RunOptions::default()).unwrap();
        let wl = vec![
            RunnerGroup::solo(target.clone()),
            RunnerGroup { app: co, count: n },
        ];
        let shared = m.run(&wl, &RunOptions::default()).unwrap();
        prop_assert!(
            shared.wall_time_s >= solo.wall_time_s * 0.999,
            "co-location sped target up: {} vs {}",
            shared.wall_time_s,
            solo.wall_time_s
        );
        // Target misses can only grow under contention.
        prop_assert!(
            shared.counters[0].llc_misses >= solo.counters[0].llc_misses * 0.999
        );
    }

    /// Frequency scaling: lower P-states never make anything faster, and
    /// the slowdown never exceeds the frequency ratio.
    #[test]
    fn pstate_scaling_is_bounded(app in app_strategy()) {
        let m = Machine::new(presets::xeon_e5649()).expect("valid preset");
        let fast = m.run_solo(&app, &RunOptions::default()).unwrap();
        let slow = m.run_solo(&app, &RunOptions { pstate: 5, ..Default::default() }).unwrap();
        let ratio = slow.wall_time_s / fast.wall_time_s;
        let freq_ratio = 2.53 / 1.60;
        prop_assert!(ratio >= 0.999, "lower frequency sped things up: {ratio}");
        prop_assert!(ratio <= freq_ratio * 1.001, "{ratio} > frequency ratio");
    }

    /// Partitioned-LLC runs conserve the same instruction totals.
    #[test]
    fn partitioning_preserves_work(target in app_strategy(), n in 1usize..5) {
        let m = Machine::new(presets::xeon_e5649()).expect("valid preset");
        let wl = vec![
            RunnerGroup::solo(target.clone()),
            RunnerGroup { app: target.clone(), count: n },
        ];
        let parts = m
            .run(&wl, &RunOptions { llc_partitioned: true, ..Default::default() })
            .unwrap();
        prop_assert!(
            (parts.counters[0].instructions - target.instructions).abs()
                < 1e-3 * target.instructions
        );
        // Equal fixed shares.
        let slice = m.spec().llc_bytes as f64 / (n + 1) as f64;
        prop_assert!((parts.avg_llc_share_bytes[0] - slice).abs() < 1.0);
    }

    /// The event queue's pop order is a *total* order on `(tick, seq)`:
    /// ticks never move backwards, and events at equal ticks pop in push
    /// (sequence) order — the stable tie-break that makes the scheduler
    /// deterministic.
    #[test]
    fn event_queue_pop_order_is_total_and_stable(
        ticks in prop::collection::vec(0u32..16, 1..64),
    ) {
        // Draw from a small integer palette so equal ticks are common —
        // the tie-break is the property under test.
        let mut queue = EventQueue::new();
        for (i, &t) in ticks.iter().enumerate() {
            // Alternate kinds; the order must not depend on the payload.
            let kind = if i % 2 == 0 {
                EventKind::Arrival(i)
            } else {
                EventKind::Departure(i)
            };
            queue.push(f64::from(t) * 0.125, kind);
        }
        prop_assert_eq!(queue.len(), ticks.len());

        let mut popped = Vec::new();
        while let Some(next) = queue.peek_tick() {
            let ev = queue.pop().unwrap();
            // `peek_tick` previews exactly the event `pop` returns.
            prop_assert_eq!(next.to_bits(), ev.tick.to_bits());
            popped.push(ev);
        }
        prop_assert_eq!(popped.len(), ticks.len());
        for pair in popped.windows(2) {
            // Ticks are non-decreasing…
            prop_assert!(pair[1].tick >= pair[0].tick, "tick moved backwards");
            // …and ties break by sequence number, i.e. push order.
            if pair[0].tick == pair[1].tick {
                prop_assert!(pair[0].seq < pair[1].seq, "tie-break not stable");
            }
        }
    }

    /// `pop_through` drains exactly the prefix at or before the horizon,
    /// in the same total order `pop` would produce.
    #[test]
    fn event_queue_pop_through_respects_the_horizon(
        ticks in prop::collection::vec(0u32..16, 1..48),
        horizon in 0u32..16,
    ) {
        let horizon = f64::from(horizon) * 0.125;
        let mut queue = EventQueue::new();
        let mut mirror = EventQueue::new();
        for (i, &t) in ticks.iter().enumerate() {
            queue.push(f64::from(t) * 0.125, EventKind::Arrival(i));
            mirror.push(f64::from(t) * 0.125, EventKind::Arrival(i));
        }
        let fired = queue.pop_through(horizon);
        // Everything fired is within the horizon; everything left is past it.
        for ev in &fired {
            prop_assert!(ev.tick <= horizon);
        }
        if let Some(next) = queue.peek_tick() {
            prop_assert!(next > horizon);
        }
        // The fired prefix matches a pop-by-pop drain exactly.
        for ev in &fired {
            let expect = mirror.pop().unwrap();
            prop_assert_eq!(expect.tick.to_bits(), ev.tick.to_bits());
            prop_assert_eq!(expect.seq, ev.seq);
        }
    }

    /// Scheduled (event-mode) runs are deterministic: re-running the same
    /// schedule yields bit-identical outcomes, and a departing co-runner
    /// never makes the target slower than the same co-runner staying.
    #[test]
    fn scheduled_runs_are_deterministic(
        target in app_strategy(),
        co in app_strategy(),
        n in 1usize..4,
        stay_num in 1u32..8,
    ) {
        let m = Machine::new(presets::xeon_e5649()).expect("valid preset");
        let wl = vec![
            RunnerGroup::solo(target.clone()),
            RunnerGroup { app: co, count: n },
        ];
        let solo = m.run_solo(&target, &RunOptions::default()).unwrap();
        // Departure mid-run, as a binary fraction of the solo wall time
        // (any exact value works; exactness just keeps the test honest).
        let depart = solo.wall_time_s * (f64::from(stay_num) / 8.0);
        let schedules = vec![
            GroupSchedule::default(),
            GroupSchedule { departure_tick: Some(depart), ..GroupSchedule::default() },
        ];
        let opts = RunOptions::default();
        let a = m.run_observed(&wl, Some(&schedules), &opts, None, None).unwrap();
        let b = m.run_observed(&wl, Some(&schedules), &opts, None, None).unwrap();
        prop_assert_eq!(a.wall_time_s.to_bits(), b.wall_time_s.to_bits());
        for (ca, cb) in a.counters.iter().zip(&b.counters) {
            prop_assert_eq!(ca.cycles.to_bits(), cb.cycles.to_bits());
            prop_assert_eq!(ca.instructions.to_bits(), cb.instructions.to_bits());
        }
        // Leaving early can only help the target (or leave it unchanged).
        let full = m.run(&wl, &RunOptions::default()).unwrap();
        prop_assert!(
            a.wall_time_s <= full.wall_time_s * 1.001,
            "departure at {} made the target slower: {} vs {}",
            depart, a.wall_time_s, full.wall_time_s
        );
        prop_assert!(a.wall_time_s >= solo.wall_time_s * 0.999);
    }
}
