//! # coloc-machine
//!
//! A multicore processor simulator: the hardware substrate the IPPS'15
//! methodology was measured on, rebuilt in software.
//!
//! The paper collected its data on two Intel Xeon machines (Table IV) by
//! running a target application co-located with up to `cores − 1` copies of
//! a co-runner at six DVFS P-states, reading execution time and LLC
//! performance counters. This crate reproduces that measurement apparatus:
//!
//! * [`spec::MachineSpec`] — core count, shared-LLC geometry, P-state
//!   frequency table, and DRAM subsystem; [`presets`] provides the two
//!   Xeons from Table IV.
//! * [`app::AppProfile`] — the simulator-facing description of an
//!   application: total instructions plus one or more execution *phases*,
//!   each with a base CPI, an LLC access rate, a memory-level-parallelism
//!   factor, and a cache-locality model ([`coloc_cachesim::StackDistanceDist`]).
//! * [`engine::Machine`] — the co-execution engine. Applications sharing
//!   the processor are advanced through piecewise-constant *segments*: in
//!   each segment a coupled fixed point determines every app's LLC share
//!   (via the occupancy model), miss rate, average memory latency (via the
//!   DRAM model), and effective CPI; segments end at phase boundaries,
//!   co-runner restarts, or target completion.
//!
//! The contention mechanics are entirely mechanistic — nothing in this
//! crate knows about the prediction models that will be trained on its
//! output, so the ML layer faces the same inference problem the paper did.

pub mod app;
pub mod cache;
pub mod engine;
pub mod event;
pub mod faults;
pub mod ir;
pub mod presets;
pub mod spec;

pub use app::{AppPhase, AppProfile};
pub use cache::{CacheStats, RunCache, DEFAULT_RUN_CACHE_CAPACITY, DEFAULT_RUN_CACHE_SHARDS};
pub use engine::{
    Convergence, CounterBlock, GroupRef, GroupView, Machine, RunOptions, RunOutcome, RunnerGroup,
    SegmentRecord, SegmentTrace, StageId, StageProfile, StageStats,
};
pub use event::{Event, EventKind, GroupSchedule};
pub use faults::{FaultEvent, FaultKind, FaultPlan};
pub use ir::{IrWriter, ScenarioIr};
pub use spec::MachineSpec;

// Re-export the cache substrate: app profiles embed locality models, so
// downstream crates need the types without a direct dependency.
pub use coloc_cachesim as cachesim;

/// Errors from the machine simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum MachineError {
    /// The workload asks for more cores than the machine has.
    NotEnoughCores { requested: usize, available: usize },
    /// The requested P-state index is out of range.
    BadPState { index: usize, available: usize },
    /// An app profile is malformed (empty phases, non-positive counts…).
    BadProfile(String),
    /// The run crossed the [`engine::RunOptions::max_segments`] safety cap
    /// — typically a co-runner far shorter than the target, restarting so
    /// often the segment count explodes.
    SegmentOverflow {
        /// Segment count at which the run was abandoned.
        segments: usize,
        /// The configured cap it exceeded.
        cap: usize,
    },
    /// No workload was supplied.
    EmptyWorkload,
    /// A machine spec failed validation (zero cores, empty or
    /// non-descending P-state table…).
    InvalidSpec(String),
    /// The simulation hit a numerically degenerate state (non-finite or
    /// non-positive segment time).
    Numeric(String),
    /// A fault plan failed validation (rate outside [0, 1]…).
    InvalidFaultPlan(String),
    /// An event schedule failed validation (offset outside [0, 1),
    /// departure before arrival, an absent target…).
    BadSchedule(String),
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineError::NotEnoughCores {
                requested,
                available,
            } => {
                write!(
                    f,
                    "workload needs {requested} cores, machine has {available}"
                )
            }
            MachineError::BadPState { index, available } => {
                write!(f, "P-state {index} out of range (machine has {available})")
            }
            MachineError::BadProfile(s) => write!(f, "bad app profile: {s}"),
            MachineError::SegmentOverflow { segments, cap } => write!(
                f,
                "run exceeded {cap} segments (abandoned at {segments}); \
                 co-runner far shorter than target?"
            ),
            MachineError::EmptyWorkload => write!(f, "workload is empty"),
            MachineError::InvalidSpec(s) => write!(f, "invalid machine spec: {s}"),
            MachineError::Numeric(s) => write!(f, "numeric degeneracy: {s}"),
            MachineError::InvalidFaultPlan(s) => write!(f, "invalid fault plan: {s}"),
            MachineError::BadSchedule(s) => write!(f, "invalid event schedule: {s}"),
        }
    }
}

impl std::error::Error for MachineError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, MachineError>;
