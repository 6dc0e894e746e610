//! # coloc-workloads
//!
//! The benchmark suite: eleven synthetic scientific applications standing
//! in for the PARSEC and NAS programs of paper Table III.
//!
//! The original study characterizes each benchmark by one number — its
//! baseline *memory intensity* (LLC misses per instruction measured solo) —
//! and groups the eleven into four classes whose intensities differ by
//! orders of magnitude:
//!
//! * **Class I** (most memory-bound, MI ~ 10⁻²): `cg`, `streamcluster`, `mg`
//! * **Class II** (MI ~ 10⁻³): `sp`, `canneal`, `ft`
//! * **Class III** (MI ~ 10⁻⁴): `fluidanimate`, `bodytrack`, `ua`
//! * **Class IV** (CPU-bound, MI ~ 10⁻⁶): `blackscholes`, `ep`
//!
//! The training co-runners (`cg`, `sp`, `fluidanimate`, `ep`) represent one
//! class each, exactly as in §IV-B3. Each synthetic application is an
//! [`coloc_machine::AppProfile`] whose working-set size, locality exponent,
//! LLC access rate, base CPI and memory-level parallelism were chosen so
//! its *measured* solo behaviour on the simulated Xeon E5649 falls in the
//! right class band (verified by this crate's tests — the numbers are
//! calibrated against the simulator, not asserted into it).

pub mod classes;
pub mod suite;

pub use classes::MemoryClass;
pub use suite::{by_name, standard, training_co_runners, Benchmark, Suite};
