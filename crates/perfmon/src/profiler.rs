//! The flat profiler: one low-overhead counter sample per run.
//!
//! Mirrors HPCToolkit's `hpcrun-flat` (paper §IV-A2): attach an event set,
//! run the application to completion (alone or co-located), read the
//! counters once. The paper stresses that (a) the profiler must be
//! low-overhead and (b) flat counts lose temporal information — they are
//! averages over the run (§IV-A3). Both properties hold here by
//! construction.

use crate::events::EventSet;
use crate::metrics::DerivedMetrics;
use crate::preset::Preset;
use crate::{PerfmonError, Result};
use coloc_machine::{CounterBlock, Machine, RunOptions, RunnerGroup};
use std::collections::BTreeMap;

/// Anything that can execute a workload and report raw counter values for
/// the target. The simulator backend lives below; a PAPI/perf-event
/// backend on real hardware would implement the same trait.
pub trait CounterBackend {
    /// Execute the workload (index 0 = target) and return the target's raw
    /// value for each requested preset, plus the wall time in seconds.
    fn measure(
        &self,
        workload: &[RunnerGroup],
        events: &EventSet,
        opts: &RunOptions,
    ) -> Result<(BTreeMap<Preset, f64>, f64)>;
}

/// Map the target's counter block onto the requested presets.
fn read_presets(c: &CounterBlock, events: &EventSet) -> BTreeMap<Preset, f64> {
    let mut values = BTreeMap::new();
    for &p in events.presets() {
        let v = match p {
            Preset::TotIns => c.instructions,
            Preset::TotCyc => c.cycles,
            Preset::LlcTca => c.llc_accesses,
            Preset::LlcTcm => c.llc_misses,
        };
        values.insert(p, v);
    }
    values
}

impl CounterBackend for Machine {
    fn measure(
        &self,
        workload: &[RunnerGroup],
        events: &EventSet,
        opts: &RunOptions,
    ) -> Result<(BTreeMap<Preset, f64>, f64)> {
        let outcome = self
            .run(workload, opts)
            .map_err(|e| PerfmonError::Machine(e.to_string()))?;
        Ok((
            read_presets(&outcome.counters[0], events),
            outcome.wall_time_s,
        ))
    }
}

/// One completed flat measurement.
#[derive(Clone, Debug)]
pub struct FlatProfile {
    /// Raw counter values for the target application.
    pub counts: BTreeMap<Preset, f64>,
    /// Wall-clock time of the target, seconds.
    pub wall_time_s: f64,
}

impl FlatProfile {
    /// Raw value of one preset, if it was measured.
    pub fn value(&self, preset: Preset) -> Option<f64> {
        self.counts.get(&preset).copied()
    }

    /// Derived metrics; requires the methodology presets to be present
    /// (missing ones are treated as zero).
    pub fn derived(&self) -> DerivedMetrics {
        let get = |p| self.value(p).unwrap_or(0.0);
        DerivedMetrics::from_counts(
            get(Preset::TotIns),
            get(Preset::TotCyc),
            get(Preset::LlcTca),
            get(Preset::LlcTcm),
        )
    }
}

/// The `hpcrun-flat` equivalent: binds a backend and an event set, then
/// profiles workloads.
pub struct FlatProfiler<'a, B: CounterBackend> {
    backend: &'a B,
    events: EventSet,
}

impl<'a, B: CounterBackend> FlatProfiler<'a, B> {
    /// Create a profiler over `backend` measuring `events`.
    pub fn new(backend: &'a B, events: EventSet) -> FlatProfiler<'a, B> {
        FlatProfiler { backend, events }
    }

    /// Profile a full co-location workload; the profile describes the
    /// target (workload index 0).
    pub fn profile(&self, workload: &[RunnerGroup], opts: &RunOptions) -> Result<FlatProfile> {
        if self.events.is_empty() {
            return Err(PerfmonError::NothingMeasured);
        }
        let (counts, wall_time_s) = self.backend.measure(workload, &self.events, opts)?;
        Ok(FlatProfile {
            counts,
            wall_time_s,
        })
    }

    /// Profile an application running alone — the paper's single baseline
    /// measurement per application (§I: models "require only a single
    /// serial baseline measurement").
    pub fn profile_solo(
        &self,
        app: &coloc_machine::AppProfile,
        opts: &RunOptions,
    ) -> Result<FlatProfile> {
        self.profile(&[RunnerGroup::solo(app.clone())], opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coloc_machine::presets;

    fn test_app(name: &str) -> coloc_machine::AppProfile {
        use coloc_machine::cachesim::StackDistanceDist;
        coloc_machine::AppProfile::single_phase(
            name,
            20e9,
            coloc_machine::AppPhase {
                weight: 1.0,
                dist: StackDistanceDist::power_law(100_000, 0.6, 0.01),
                accesses_per_instr: 0.02,
                cpi_base: 0.9,
                mlp: 4.0,
            },
        )
    }

    #[test]
    fn solo_profile_reads_all_methodology_counters() {
        let machine = Machine::new(presets::xeon_e5649()).expect("valid preset");
        let profiler = FlatProfiler::new(&machine, EventSet::methodology());
        let p = profiler
            .profile_solo(&test_app("a"), &RunOptions::default())
            .unwrap();
        assert!(p.wall_time_s > 0.0);
        for preset in Preset::METHODOLOGY_SET {
            assert!(p.value(preset).unwrap() > 0.0, "{preset}");
        }
        let d = p.derived();
        assert!(d.memory_intensity > 0.0);
        assert!(d.ipc > 0.0);
    }

    #[test]
    fn partial_event_set_reads_only_requested() {
        let machine = Machine::new(presets::xeon_e5649()).expect("valid preset");
        let mut es = EventSet::new();
        es.add(Preset::TotIns).unwrap();
        let profiler = FlatProfiler::new(&machine, es);
        let p = profiler
            .profile_solo(&test_app("a"), &RunOptions::default())
            .unwrap();
        assert!(p.value(Preset::TotIns).is_some());
        assert!(p.value(Preset::LlcTcm).is_none());
    }

    #[test]
    fn empty_event_set_is_error() {
        let machine = Machine::new(presets::xeon_e5649()).expect("valid preset");
        let profiler = FlatProfiler::new(&machine, EventSet::new());
        let err = profiler.profile_solo(&test_app("a"), &RunOptions::default());
        assert_eq!(err.err(), Some(PerfmonError::NothingMeasured));
    }

    #[test]
    fn co_located_profile_shows_degradation() {
        let machine = Machine::new(presets::xeon_e5649()).expect("valid preset");
        let profiler = FlatProfiler::new(&machine, EventSet::methodology());
        let solo = profiler
            .profile_solo(&test_app("t"), &RunOptions::default())
            .unwrap();
        let wl = vec![
            RunnerGroup::solo(test_app("t")),
            RunnerGroup {
                app: test_app("agg"),
                count: 5,
            },
        ];
        let shared = profiler.profile(&wl, &RunOptions::default()).unwrap();
        assert!(shared.wall_time_s > solo.wall_time_s);
        // More misses under contention, same instruction count.
        assert!(shared.value(Preset::LlcTcm).unwrap() > solo.value(Preset::LlcTcm).unwrap());
        assert!(
            (shared.value(Preset::TotIns).unwrap() - solo.value(Preset::TotIns).unwrap()).abs()
                < 1.0
        );
    }

    #[test]
    fn machine_errors_surface() {
        let machine = Machine::new(presets::xeon_e5649()).expect("valid preset");
        let profiler = FlatProfiler::new(&machine, EventSet::methodology());
        let wl = vec![RunnerGroup {
            app: test_app("t"),
            count: 99,
        }];
        assert!(matches!(
            profiler.profile(&wl, &RunOptions::default()),
            Err(PerfmonError::Machine(_))
        ));
    }
}
