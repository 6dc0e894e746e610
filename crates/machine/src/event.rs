//! Deterministic discrete-event scheduling for the co-execution engine.
//!
//! Without schedules the epoch pipeline advances every group in
//! lockstep: all groups share one clock, start together, and run until
//! the target completes. This module generalizes the driver into a discrete-event
//! simulation without giving up bit-reproducibility:
//!
//! * [`GroupSchedule`] — per-group event-mode fields: a starting
//!   `phase_offset`, an `arrival_tick` / `departure_tick` window on the
//!   simulated clock, and a per-core `clock_ratio` (DVFS per group, not
//!   per chip). The default schedule is exactly the lockstep contract,
//!   and a workload whose schedules are all default runs through the
//!   *same arithmetic, in the same order* as the lockstep pipeline —
//!   the degenerate case is bit-identical, not merely close.
//! * [`scheduled_events`] — every [`Event`] of a schedule set is known
//!   before the run starts, so they are sorted once, stably by tick:
//!   departures before arrivals at equal ticks, each in group order. Event
//!   order — and therefore the whole simulation — is a pure function of
//!   the scenario, independent of thread count.
//!
//! The driver in [`crate::engine`] reads the sorted events through a
//! cursor, era by era: an *era* is a maximal interval of the simulated
//! clock with a fixed resident set. Within an era the unmodified stage
//! passes run over the resident groups; segment lengths are additionally
//! capped by the next event tick (`dt_cap`), and when the clock reaches
//! that tick the resident set is rebuilt and the next era begins. See
//! DESIGN.md §14 for the tie-break rule and the lockstep-equivalence
//! argument.

use crate::{GroupRef, MachineError, Result};

/// Per-group event-mode schedule. The [`Default`] value encodes the
/// lockstep contract (present for the whole run, no phase offset, the
/// chip clock) and is *canonically absent*: scenario digests only
/// encode schedules when at least one group deviates from the default,
/// so every pre-event scenario digests identically to before.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GroupSchedule {
    /// Starting position within the app, as a fraction of its total
    /// instructions in `[0, 1)`. Applies to the group's first pass only;
    /// a restarting co-runner restarts from progress 0 like before.
    pub phase_offset: f64,
    /// Simulated time (seconds) at which the group arrives. Groups with
    /// a positive arrival tick are absent before it: they hold no LLC,
    /// add no bandwidth, and accrue no counters. The target (group 0)
    /// must arrive at 0.
    pub arrival_tick: f64,
    /// Simulated time (seconds) at which the group departs, or `None`
    /// to stay for the whole run. Must be strictly after the arrival
    /// tick. The target must not depart.
    pub departure_tick: Option<f64>,
    /// Per-group clock multiplier applied to the chip's P-state
    /// frequency (per-core DVFS). Must be finite and positive; 1.0 is
    /// the chip clock.
    pub clock_ratio: f64,
}

impl Default for GroupSchedule {
    fn default() -> GroupSchedule {
        GroupSchedule {
            phase_offset: 0.0,
            arrival_tick: 0.0,
            departure_tick: None,
            clock_ratio: 1.0,
        }
    }
}

impl GroupSchedule {
    /// True when this schedule is exactly the lockstep default — the
    /// canonical form under which it is omitted from scenario digests.
    pub fn is_default(&self) -> bool {
        self.phase_offset == 0.0
            && self.arrival_tick == 0.0
            && self.departure_tick.is_none()
            && self.clock_ratio == 1.0
    }
}

/// True when `schedules` adds nothing over the lockstep default —
/// either absent entirely or present with every entry default.
pub fn schedules_are_default(schedules: Option<&[GroupSchedule]>) -> bool {
    schedules.is_none_or(|s| s.iter().all(GroupSchedule::is_default))
}

/// What happens when an event fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// The group with this (original workload) index leaves the machine.
    Departure(usize),
    /// The group with this (original workload) index arrives.
    Arrival(usize),
}

/// One scheduled residency change.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// Simulated time at which the event fires, seconds.
    pub tick: f64,
    /// What fires.
    pub kind: EventKind,
}

/// The events of a validated schedule set, in firing order: one departure
/// and/or arrival per non-default group, listed departures first and then
/// arrivals (each in group order), then stably sorted by tick. So at equal
/// ticks a departing group frees its cores before an arriving group claims
/// capacity — the same order [`cores_needed`] uses for its peak
/// concurrency count. A stable sort keeps equal ticks in list order, which
/// is the order a min-heap keyed on `(tick, list index)` pops them in.
pub fn scheduled_events(schedules: &[GroupSchedule]) -> Vec<Event> {
    let departures = schedules.iter().enumerate().filter_map(|(g, s)| {
        s.departure_tick.map(|tick| Event {
            tick,
            kind: EventKind::Departure(g),
        })
    });
    let arrivals = schedules
        .iter()
        .enumerate()
        .filter(|(_, s)| s.arrival_tick > 0.0)
        .map(|(g, s)| Event {
            tick: s.arrival_tick,
            kind: EventKind::Arrival(g),
        });
    let mut events: Vec<Event> = departures.chain(arrivals).collect();
    events.sort_by(|a, b| a.tick.total_cmp(&b.tick));
    events
}

/// Cores a run needs: the sum of the group counts for a lockstep run
/// (`schedules` absent), the peak number of cores simultaneously
/// resident under `schedules` otherwise — disjoint arrival/departure
/// windows may oversubscribe the static sum. Departures free capacity
/// before same-tick arrivals claim it, matching [`scheduled_events`].
/// The count saturates at `usize::MAX` instead of wrapping, so an
/// overflowing workload is refused like any other oversubscription.
/// Shared by the optimized engine and the conformance [`RefEngine`].
///
/// [`RefEngine`]: ../../coloc_conformance/refengine/struct.RefEngine.html
pub fn cores_needed(workload: &[GroupRef<'_>], schedules: Option<&[GroupSchedule]>) -> usize {
    let Some(schedules) = schedules else {
        return workload
            .iter()
            .fold(0usize, |n, g| n.saturating_add(g.count));
    };
    // (tick, is_arrival, delta) — departures sort before arrivals at
    // the same tick via the bool. `i128` holds any sum of `usize` counts
    // a workload can list.
    let mut deltas: Vec<(f64, bool, i128)> = Vec::with_capacity(2 * workload.len());
    for (g, s) in schedules.iter().enumerate() {
        let count = workload[g].count as i128;
        deltas.push((s.arrival_tick, true, count));
        if let Some(t) = s.departure_tick {
            deltas.push((t, false, -count));
        }
    }
    deltas.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut now: i128 = 0;
    let mut peak: i128 = 0;
    for (_, _, d) in deltas {
        now += d;
        peak = peak.max(now);
    }
    usize::try_from(peak).unwrap_or(usize::MAX)
}

/// Validate `schedules` against `workload`: one schedule per group,
/// finite fields in range, target resident for the whole run, and a
/// well-ordered arrival/departure window per group. Shared verbatim by
/// the optimized engine and the conformance [`RefEngine`] so both
/// reject exactly the same inputs with exactly the same typed error.
///
/// [`RefEngine`]: ../../coloc_conformance/refengine/struct.RefEngine.html
pub fn validate_schedules(workload: &[GroupRef<'_>], schedules: &[GroupSchedule]) -> Result<()> {
    if schedules.len() != workload.len() {
        return Err(MachineError::BadSchedule(format!(
            "{} schedules for {} groups",
            schedules.len(),
            workload.len()
        )));
    }
    for (g, s) in schedules.iter().enumerate() {
        let name = &workload[g].app.name;
        if !(s.phase_offset.is_finite() && (0.0..1.0).contains(&s.phase_offset)) {
            return Err(MachineError::BadSchedule(format!(
                "{name}: phase_offset {} outside [0, 1)",
                s.phase_offset
            )));
        }
        if !(s.arrival_tick.is_finite() && s.arrival_tick >= 0.0) {
            return Err(MachineError::BadSchedule(format!(
                "{name}: arrival_tick {} is not a finite time ≥ 0",
                s.arrival_tick
            )));
        }
        if let Some(t) = s.departure_tick {
            if !(t.is_finite() && t > s.arrival_tick) {
                return Err(MachineError::BadSchedule(format!(
                    "{name}: departure_tick {t} must be finite and after arrival \
                     ({})",
                    s.arrival_tick
                )));
            }
        }
        if !(s.clock_ratio.is_finite() && s.clock_ratio > 0.0) {
            return Err(MachineError::BadSchedule(format!(
                "{name}: clock_ratio {} must be finite and positive",
                s.clock_ratio
            )));
        }
        if g == 0 && (s.arrival_tick != 0.0 || s.departure_tick.is_some()) {
            return Err(MachineError::BadSchedule(format!(
                "{name}: the target must be resident for the whole run \
                 (arrival 0, no departure)"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppPhase, AppProfile};
    use coloc_cachesim::StackDistanceDist;

    fn app(name: &str) -> AppProfile {
        AppProfile::single_phase(
            name,
            1e9,
            AppPhase {
                weight: 1.0,
                dist: StackDistanceDist::power_law(10_000, 1.0, 0.01),
                accesses_per_instr: 0.01,
                cpi_base: 1.0,
                mlp: 2.0,
            },
        )
    }

    fn sched(arrival: f64, departure: Option<f64>) -> GroupSchedule {
        GroupSchedule {
            arrival_tick: arrival,
            departure_tick: departure,
            ..Default::default()
        }
    }

    #[test]
    fn default_schedule_is_canonical_lockstep() {
        let d = GroupSchedule::default();
        assert!(d.is_default());
        assert!(schedules_are_default(None));
        assert!(schedules_are_default(Some(&[d, d])));
        assert!(!schedules_are_default(Some(&[
            d,
            GroupSchedule {
                clock_ratio: 0.5,
                ..Default::default()
            }
        ])));
    }

    #[test]
    fn events_fire_by_tick_with_departures_first_at_equal_ticks() {
        let schedules = [
            GroupSchedule::default(),
            sched(0.0, Some(1.0)),
            sched(1.0, None),
            sched(0.5, Some(2.0)),
            sched(0.0, Some(1.0)),
        ];
        let order: Vec<(f64, EventKind)> = scheduled_events(&schedules)
            .iter()
            .map(|e| (e.tick, e.kind))
            .collect();
        assert_eq!(
            order,
            vec![
                (0.5, EventKind::Arrival(3)),
                (1.0, EventKind::Departure(1)),
                (1.0, EventKind::Departure(4)),
                (1.0, EventKind::Arrival(2)),
                (2.0, EventKind::Departure(3)),
            ]
        );
        assert!(scheduled_events(&[GroupSchedule::default(); 3]).is_empty());
    }

    #[test]
    fn cores_needed_tracks_concurrent_residency() {
        let a0 = app("t");
        let a1 = app("x");
        let a2 = app("y");
        let wl = [
            GroupRef::solo(&a0),
            GroupRef {
                count: 3,
                ..GroupRef::solo(&a1)
            },
            GroupRef {
                count: 3,
                ..GroupRef::solo(&a2)
            },
        ];
        assert_eq!(cores_needed(&wl, None), 7, "lockstep needs every group");
        // Disjoint windows: 3 departs at 1.0 exactly when the other 3
        // arrive, so the peak is 4, not 7.
        let schedules = [
            GroupSchedule::default(),
            sched(0.0, Some(1.0)),
            sched(1.0, None),
        ];
        assert_eq!(cores_needed(&wl, Some(&schedules)), 4);
        // Overlapping windows count together.
        let schedules = [
            GroupSchedule::default(),
            sched(0.0, Some(2.0)),
            sched(1.0, None),
        ];
        assert_eq!(cores_needed(&wl, Some(&schedules)), 7);
    }

    #[test]
    fn validation_rejects_malformed_schedules() {
        let a0 = app("t");
        let a1 = app("x");
        let wl = [GroupRef::solo(&a0), GroupRef::solo(&a1)];
        let ok = [GroupSchedule::default(), sched(0.5, Some(1.5))];
        assert!(validate_schedules(&wl, &ok).is_ok());

        let wrong_len = [GroupSchedule::default()];
        assert!(matches!(
            validate_schedules(&wl, &wrong_len),
            Err(MachineError::BadSchedule(_))
        ));
        let bad_offset = [
            GroupSchedule::default(),
            GroupSchedule {
                phase_offset: 1.0,
                ..Default::default()
            },
        ];
        assert!(validate_schedules(&wl, &bad_offset).is_err());
        let departs_before_arrival = [GroupSchedule::default(), sched(2.0, Some(1.0))];
        assert!(validate_schedules(&wl, &departs_before_arrival).is_err());
        let target_leaves = [sched(0.0, Some(1.0)), GroupSchedule::default()];
        assert!(validate_schedules(&wl, &target_leaves).is_err());
        let bad_clock = [
            GroupSchedule::default(),
            GroupSchedule {
                clock_ratio: 0.0,
                ..Default::default()
            },
        ];
        assert!(validate_schedules(&wl, &bad_clock).is_err());
    }
}
