//! # coloc-perfmon
//!
//! A portable performance-counter layer in the spirit of PAPI + HPCToolkit
//! (paper §IV-A2): the methodology deliberately refuses to touch
//! architecture-specific counter registers, going through a preset-based
//! API instead so it ports across microarchitectures. This crate is that
//! API for the `coloc` workspace.
//!
//! * [`preset::Preset`] — architecture-independent event names (a subset of
//!   PAPI's preset list sufficient for the methodology: total instructions,
//!   total cycles, LLC accesses, LLC misses).
//! * [`events::EventSet`] — a set of presets to measure together, mirroring
//!   PAPI's `EventSet` workflow (create → add events → start → read).
//! * [`profiler::FlatProfiler`] — the `hpcrun-flat` equivalent: run an
//!   application (solo or co-located) and return one flat sample of every
//!   requested counter, plus derived metrics.
//! * [`metrics::DerivedMetrics`] — memory intensity (TCM/INS), miss ratio
//!   (TCM/TCA) and access ratio (TCA/INS) — the paper's Table I inputs.
//!
//! The backend here is the `coloc-machine` simulator; the trait boundary
//! ([`profiler::CounterBackend`]) is where a perf-event/PAPI backend would
//! slot in on real hardware.

pub mod events;
pub mod metrics;
pub mod preset;
pub mod profiler;

pub use events::EventSet;
pub use metrics::DerivedMetrics;
pub use preset::Preset;
pub use profiler::{CounterBackend, FlatProfile, FlatProfiler};

/// Errors from the counter layer.
#[derive(Debug, Clone, PartialEq)]
pub enum PerfmonError {
    /// The preset is not supported by the active backend.
    UnsupportedPreset(Preset),
    /// The same preset was added to an event set twice.
    DuplicatePreset(Preset),
    /// Reading before any measurement completed.
    NothingMeasured,
    /// The underlying machine run failed.
    Machine(String),
}

impl std::fmt::Display for PerfmonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PerfmonError::UnsupportedPreset(p) => write!(f, "unsupported preset {p}"),
            PerfmonError::DuplicatePreset(p) => write!(f, "preset {p} already in event set"),
            PerfmonError::NothingMeasured => write!(f, "no measurement has completed"),
            PerfmonError::Machine(s) => write!(f, "machine error: {s}"),
        }
    }
}

impl std::error::Error for PerfmonError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, PerfmonError>;
