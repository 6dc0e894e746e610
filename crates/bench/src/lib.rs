//! # coloc-bench
//!
//! The reproduction harness: one generator per table and figure in the
//! paper's evaluation, plus the ablations, which the `repro` binary
//! prints. Timing lives only in the separate `perfbench` package; the
//! placement and cross-interference results reproduce with `coloc place`
//! and `coloc matrix`.
//!
//! Generated artifacts are cached as JSON under `repro-out/` (next to the
//! workspace root, override with `COLOC_REPRO_DIR`) because the full
//! 12-core sweep plus 100-partition neural-network validation is minutes of
//! compute; every table/figure can then be re-printed instantly.

pub mod ablations;
pub mod cache;
pub mod figures;
pub mod tables;

use coloc_machine::presets;
use coloc_model::Lab;
use coloc_workloads::standard;

/// The experiment master seed. Everything derives from it; changing it
/// regenerates a statistically equivalent but bit-different data set.
pub const SEED: u64 = 2015;

/// The lab for the 6-core Xeon E5649.
pub fn lab_6core() -> Lab {
    Lab::new(presets::xeon_e5649(), standard(), SEED).expect("valid preset")
}

/// The lab for the 12-core Xeon E5-2697 v2.
pub fn lab_12core() -> Lab {
    Lab::new(presets::xeon_e5_2697v2(), standard(), SEED).expect("valid preset")
}

/// Both labs, in paper order, with short identifiers used in cache keys.
pub fn labs() -> Vec<(&'static str, Lab)> {
    vec![("e5649", lab_6core()), ("e5_2697v2", lab_12core())]
}
