//! Datacenter-scale interference-aware placement.
//!
//! The paper motivates its prediction methodology with "intelligent
//! application scheduling … increasing opportunities for server
//! consolidation to save power while still maintaining quality of
//! service". This crate is that scheduler, from one machine's sockets
//! (`coloc schedule`, a single-group fleet placing the jobs it is given)
//! up to a fleet (`coloc place`): millions of seeded synthetic jobs,
//! thousands of simulated sockets across four machine presets,
//! predictor-guided policies, and — because the workloads are simulated
//! — an *oracle* that re-measures every final placement in the engine
//! and scores each policy by its **regret**: the gap between what the
//! policy expected at decision time and what the oracle measured once
//! the dust settled.
//!
//! ## The model
//!
//! - A **job** is one instance of a suite application (Table III), drawn
//!   from a seeded stream with class-mix knobs ([`ClassMix`]).
//! - A **socket** is one multicore processor (a
//!   [`coloc_machine::MachineSpec`] preset);
//!   the **fleet** ([`FleetSpec`]) is a list of socket groups.
//! - Placement proceeds in **waves**: the fleet fills to capacity, the
//!   wave is scored against the oracle, and the fleet flushes. Within a
//!   wave, jobs are placed in canonical (app-sorted) order, so the scored
//!   outcome is a pure function of the wave's job *multiset* — the
//!   job-permutation conformance law holds exactly, and placement is
//!   bit-identical across thread counts and re-runs.
//! - Socket contents are interned as a [`ContentsKey`] (5 bits per suite
//!   app), so predictor and oracle evaluations memoize per distinct
//!   `(machine, contents, target)` — a million jobs need only tens of
//!   thousands of engine runs, fanned out through
//!   [`coloc_model::Lab::run_scenarios_batch`].
//!
//! ## Scores
//!
//! Per policy ([`PlacePolicy`]): mean/max oracle slowdown, MISE-style
//! unfairness (max/min slowdown), soft-QoS violations at a configurable
//! threshold, sockets used, and the headline **placement regret** —
//! mean |decision-time expected slowdown − final oracle slowdown| per
//! job. Slowdowns are ratio-normalized so a solo job's predicted and
//! measured slowdowns are both *exactly* 1.0 (making the solo-regret-zero
//! law exact, not approximate).

pub mod estimator;
pub mod fleet;
pub mod jobs;
pub mod oracle;
pub mod policy;
pub mod report;
pub mod sim;

pub use estimator::SpecEstimator;
pub use fleet::{ContentsKey, Fleet, FleetGroup, FleetSpec};
pub use jobs::{ClassMix, JobStream};
pub use oracle::SpecOracle;
pub use policy::PlacePolicy;
pub use report::{PlacementReport, PolicyOutcome};
pub use sim::{Assignment, PlacementSim, SimConfig};

/// Errors share the model crate's taxonomy ([`coloc_model::ColocError`]).
pub type Result<T> = coloc_model::Result<T>;
