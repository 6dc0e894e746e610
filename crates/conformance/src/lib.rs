//! # coloc-conformance
//!
//! Correctness tooling for the co-location pipeline: a differential
//! oracle, metamorphic laws, and a replayable scenario corpus.
//!
//! The optimized engine ([`coloc_machine::engine`]) has accumulated
//! performance machinery — reusable run scratch, incremental MRC
//! loading, group-first indexing, a memoizing [`coloc_machine::RunCache`]
//! — that the paper's validation protocol cannot see: repeated
//! sub-sampling shows predictions are *stable*, not that the simulated
//! physics is *right*. This crate supplies the independent witnesses:
//!
//! * [`refengine::RefEngine`] — a naive re-implementation of the engine
//!   (fresh allocations per segment, MRCs recomputed from distributions,
//!   O(n²) owner scans, inline DRAM/occupancy formulas, no caching) that
//!   the differential harness compares against the optimized stack on
//!   every field of every outcome, to 1e-9 relative (bit-identity in
//!   practice).
//! * [`laws`] — reusable [`laws::Law`] objects encoding paper-derived
//!   invariants: monotone interference, solo unity, co-runner
//!   permutation invariance, MPE/NRMSE scale invariance, feature-set
//!   nesting of the linear model's train fit, three event-semantics
//!   laws (arrival-order invariance of interchangeable twins, lockstep
//!   degeneracy of all-default schedules, departure-past-the-end no-op),
//!   and two feature-pipeline laws (identical-pair counter symmetry on
//!   the cross-interference matrix diagonal, mixed-pair order
//!   invariance of the heterogeneous co-runner encoding).
//! * [`case`] / [`corpus`] — a seeded scenario generator with a
//!   deterministic shrinker, and a checked-in JSON corpus under
//!   `corpus/` that `coloc verify` and the root package's `differential`
//!   suite replay on every change. Failing generated cases are shrunk and persisted
//!   there, so a bug found once is re-checked forever.
//! * [`mod@placement_laws`] — the same law/shrink/corpus discipline one
//!   layer up, for the fleet-placement simulation (`crates/placement`):
//!   job-permutation invariance of single-wave outcomes, exact
//!   solo-regret zero, and empty-machine monotonicity, with their own
//!   case type and `corpus/placement/` subdirectory.

#![warn(missing_docs)]

pub mod case;
pub mod corpus;
pub mod diff;
pub mod laws;
pub mod placement_laws;
pub mod refengine;

pub use case::{
    gen_case, gen_cases, shrink, BuiltCase, CoGroup, CorpusCase, FaultSpec, GenConstraints,
};
pub use corpus::{default_corpus_dir, seed_corpus, verify_dir, verify_dir_threaded, VerifyReport};
pub use diff::{
    check_case, differential_sweep, differential_sweep_threaded, DiffReport, DiffSummary, REL_TOL,
    SLOWDOWN_REL_TOL,
};
pub use laws::{all_laws, law_by_name, Law, Violation};
pub use placement_laws::{
    placement_corpus_dir, placement_law_by_name, placement_laws, shrink_placement,
    verify_placement_dir, PlacementCase, PlacementLaw,
};
pub use refengine::RefEngine;
