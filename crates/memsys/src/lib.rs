//! # coloc-memsys
//!
//! Main-memory (DRAM) model for the `coloc` multicore simulator.
//!
//! The paper attributes co-location slowdown to contention in the shared
//! last-level cache *and* in main memory (§I): as co-located applications
//! raise the aggregate miss traffic, each miss waits longer, so every
//! application's average memory access time rises. This crate supplies that
//! mechanism:
//!
//! * [`DramSpec`] — channel/bandwidth/latency parameters of a memory
//!   subsystem, with presets matching the two Xeon platforms the paper
//!   tests (triple-channel DDR3-1333 for the E5649, quad-channel DDR3-1866
//!   for the E5-2697 v2).
//! * [`MemorySystem::access_latency_ns`] — average per-miss latency as a
//!   function of offered bandwidth, combining an M/M/1-style queueing term
//!   with a bank-conflict penalty that grows with the number of competing
//!   access streams. This is the *nonlinear, saturating* curve that makes
//!   co-location slowdown fundamentally non-linear in the co-runner
//!   features — the reason the paper's neural networks beat its linear
//!   models.
//!
//! The model is analytic but grounded: latency is bounded, monotone in
//! load, convex near saturation, and validated by unit tests for each of
//! those properties.

pub mod dram;

pub use dram::{DramSpec, MemorySystem};

/// Bytes transferred per LLC miss (one cache line).
pub const MISS_BYTES: f64 = 64.0;
