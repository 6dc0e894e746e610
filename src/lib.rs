//! # coloc — co-location aware application performance modeling
//!
//! Umbrella crate re-exporting the full `coloc` workspace: a reproduction of
//! *"A Methodology for Co-Location Aware Application Performance Modeling in
//! Multicore Computing"* (Dauwe et al., IPPS 2015).
//!
//! The workspace layers, bottom-up:
//!
//! * [`linalg`] — dense matrices, QR least squares, Jacobi eigensolver.
//! * [`ml`] — linear regression, MLP trained with scaled conjugate
//!   gradient, PCA, bootstrap validation, MPE/NRMSE metrics.
//! * [`cachesim`] — set-associative caches, reuse-distance analysis,
//!   miss-rate curves, shared-cache occupancy models.
//! * [`memsys`] — DRAM bandwidth/queueing contention model.
//! * [`machine`] — multicore processor simulator with DVFS P-states and an
//!   epoch-based co-execution engine (Xeon E5649 / E5-2697v2 presets).
//! * [`perfmon`] — PAPI-like portable performance-counter API + profiler.
//! * [`workloads`] — eleven synthetic PARSEC/NAS-class applications in four
//!   memory-intensity classes.
//! * [`model`] — the paper's contribution: features, feature sets A–F,
//!   training plans, data collection, and trained predictors.
//! * [`placement`] — interference-aware placement of jobs on sockets,
//!   scored against the simulator as oracle.
//!
//! ## Quickstart
//!
//! ```
//! use coloc::model::{Lab, TrainingPlan, ModelKind, FeatureSet, Predictor, Scenario};
//! use coloc::machine::presets;
//! use coloc::workloads::standard;
//!
//! let lab = Lab::new(presets::xeon_e5649(), standard(), 42).expect("valid preset");
//! // A thinned sweep keeps the doctest quick; use `lab.paper_plan()` for
//! // the paper's full Table-V sweep.
//! let plan = TrainingPlan {
//!     pstates: vec![0],
//!     targets: vec!["canneal".into(), "cg".into(), "ep".into()],
//!     co_runners: vec!["cg".into(), "ep".into()],
//!     counts: vec![1, 3, 5],
//! };
//! let data = lab.collect(&plan).unwrap();
//! let predictor =
//!     Predictor::train(ModelKind::Linear, FeatureSet::C, &data, 7).unwrap();
//! let scenario = Scenario::homogeneous("canneal", "cg", 3, 0);
//! let predicted = predictor.predict(&lab.featurize(&scenario).unwrap());
//! assert!(predicted > 0.0);
//! ```

pub use coloc_cachesim as cachesim;
pub use coloc_linalg as linalg;
pub use coloc_machine as machine;
pub use coloc_memsys as memsys;
pub use coloc_ml as ml;
pub use coloc_model as model;
pub use coloc_perfmon as perfmon;
pub use coloc_placement as placement;
pub use coloc_workloads as workloads;
