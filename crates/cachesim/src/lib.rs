//! # coloc-cachesim
//!
//! Last-level cache simulation substrate for the `coloc` workspace.
//!
//! The IPPS'15 methodology characterizes applications by their last-level
//! cache behaviour (misses, accesses, memory intensity — paper §IV-A3) and
//! attributes co-location slowdown to contention for the shared LLC and
//! DRAM. This crate provides the cache side of that story:
//!
//! * [`set_assoc::SetAssocCache`] — an exact set-associative LRU cache with
//!   per-owner statistics, usable both private and shared.
//! * [`stream`] — the reuse-distance distribution the workload suite's
//!   locality tables are, and a deterministic address-stream generator
//!   for it (the LRU-stack access model).
//! * [`stack::StackAnalyzer`] — Mattson's stack algorithm: one pass over a
//!   trace yields the stack-distance histogram and hence the miss rate at
//!   *every* cache capacity simultaneously.
//! * [`mrc::MissRateCurve`] — miss rate as a function of allocated capacity,
//!   built from a stack histogram, an analytic distribution, or points.
//! * [`share`] — a fixed-point shared-cache occupancy model: given each
//!   co-runner's access rate and miss-rate curve, compute the equilibrium
//!   capacity split and resulting per-application miss rates.
//!
//! The machine simulator (`coloc-machine`) uses the analytic path
//! (distribution → MRC → occupancy model) for speed; the exact simulators
//! here exist to *validate* that path (see the crate's integration tests)
//! and for standalone cache studies. The generator and the analyzer share
//! one LRU stack, a Fenwick tree over access times, so each costs
//! O(log n) per access in the number of accesses, at any span.

pub mod mrc;
pub mod set_assoc;
pub mod share;
pub mod stack;
pub mod stream;

pub use mrc::{MissRateCurve, MrcCursor};
pub use set_assoc::{AccessOutcome, CacheConfig, OwnerStats, SetAssocCache};
pub use share::{
    occupancy_step, occupancy_step_rates, shared_occupancy, SharedApp, SharedCacheSolution,
};
pub use stack::StackAnalyzer;
pub use stream::{StackDistanceDist, StreamGen};

/// A cache-line-aligned memory address (the line index, not the byte
/// address). All simulators in this crate operate on line numbers; callers
/// divide byte addresses by the line size once at the boundary.
pub type Line = u64;

/// Standard cache line size used across the workspace, in bytes.
pub const LINE_BYTES: u64 = 64;
