//! Property-based tests for the co-execution engine's invariants.

use coloc_cachesim::StackDistanceDist;
use coloc_machine::event::scheduled_events;
use coloc_machine::{
    presets, AppPhase, AppProfile, EventKind, GroupSchedule, Machine, RunOptions, RunnerGroup,
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

    /// The events come out in `(tick, seq)` order, where `seq` numbers
    /// them departures first, then arrivals, each in group order: ticks
    /// never move backwards, and equal ticks keep that numbering — the
    /// stable tie-break that makes the scheduler deterministic.
    #[test]
    fn scheduled_events_fire_in_tick_then_list_order(
        windows in prop::collection::vec((0u32..16, 0u32..16), 1..32),
    ) {
        // Draw from a small integer palette so equal ticks are common —
        // the tie-break is the property under test. A stay of 0 never
        // departs.
        let schedules: Vec<GroupSchedule> = windows
            .iter()
            .map(|&(arrive, stay)| GroupSchedule {
                arrival_tick: f64::from(arrive) * 0.125,
                departure_tick: (stay > 0).then(|| f64::from(arrive + stay) * 0.125),
                ..GroupSchedule::default()
            })
            .collect();
        let mut numbered: Vec<(f64, usize, EventKind)> = Vec::new();
        for (g, s) in schedules.iter().enumerate() {
            if let Some(t) = s.departure_tick {
                numbered.push((t, numbered.len(), EventKind::Departure(g)));
            }
        }
        for (g, s) in schedules.iter().enumerate() {
            if s.arrival_tick > 0.0 {
                numbered.push((s.arrival_tick, numbered.len(), EventKind::Arrival(g)));
            }
        }
        numbered.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        let events = scheduled_events(&schedules);
        prop_assert_eq!(events.len(), numbered.len());
        for (ev, (tick, _, kind)) in events.iter().zip(&numbered) {
            prop_assert_eq!(ev.tick.to_bits(), tick.to_bits());
            prop_assert_eq!(ev.kind, *kind);
        }
        for pair in events.windows(2) {
            prop_assert!(pair[1].tick >= pair[0].tick, "tick moved backwards");
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
