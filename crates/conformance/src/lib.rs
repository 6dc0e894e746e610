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
//!   invariance of the feature row).
//! * [`case`] — a seeded scenario generator over [`CorpusCase`], which
//!   lowers to the engine's `ScenarioIr`.
//! * [`mod@placement_laws`] — three laws one layer up, for the
//!   fleet-placement simulation (`crates/placement`): job-permutation
//!   invariance of single-wave outcomes, exact solo-regret zero, and
//!   empty-machine monotonicity, over [`PlacementCase`]s.
//! * [`corpus`] — the one harness both case types share. A case type
//!   implements [`Case`] (seed, law tag, description, one-step
//!   simplifications); one [`shrink`], one loader and writer, one
//!   [`check_law`] and one [`verify_dir`] serve every case type, and
//!   every law is a [`Law`] over its case type. The checked-in JSON files
//!   under `corpus/` (placement cases under `corpus/placement/`) are the
//!   only copy of each seed case; `coloc verify` and the root package's
//!   `differential` suite replay them on every change. Failing generated
//!   cases are shrunk and persisted there, so a bug found once is
//!   re-checked forever.
//!
//! Every check that calls two outcomes bit-identical compares
//! [`coloc_machine::RunOutcome::digest`]; [`compare_outcomes`] names the
//! fields that diverged.

#![warn(missing_docs)]

pub mod case;
pub mod corpus;
pub mod diff;
pub mod laws;
pub mod placement_laws;
pub mod refengine;

pub use case::{gen_case, gen_cases, CoGroup, CorpusCase, FaultSpec, GenConstraints};
pub use corpus::{
    default_corpus_dir, load_case, load_dir, placement_corpus_dir, save_case, shrink, verify_dir,
    write_counterexample, Case, VerifyReport,
};
pub use diff::{
    check_case, compare_outcomes, differential_sweep, DiffReport, DiffSummary, REL_TOL,
    SLOWDOWN_REL_TOL,
};
pub use laws::{all_laws, check_law, law_by_name, Law, Violation};
pub use placement_laws::{placement_laws, PlacementCase};
pub use refengine::RefEngine;
