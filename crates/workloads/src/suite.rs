//! The eleven-application benchmark suite (paper Table III).

use crate::classes::MemoryClass;
use coloc_machine::cachesim::StackDistanceDist;
use coloc_machine::{AppPhase, AppProfile};

/// Which benchmark suite an application was drawn from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Suite {
    /// PARSEC (denoted "(P)" in Table III).
    Parsec,
    /// NAS Parallel Benchmarks (denoted "(N)").
    Nas,
}

impl Suite {
    /// The paper's one-letter tag.
    pub fn tag(&self) -> &'static str {
        match self {
            Suite::Parsec => "P",
            Suite::Nas => "N",
        }
    }
}

/// One suite application: identity plus its simulator profile.
#[derive(Clone, Debug)]
pub struct Benchmark {
    /// Application name as in Table III.
    pub name: &'static str,
    /// Source suite.
    pub suite: Suite,
    /// Memory-intensity class the app is documented to fall in (verified
    /// against measurement by this crate's tests).
    pub class: MemoryClass,
    /// The simulator profile.
    pub app: AppProfile,
}

fn phase(
    span_lines: usize,
    alpha: f64,
    p_new: f64,
    apki: f64,
    cpi: f64,
    mlp: f64,
    weight: f64,
) -> AppPhase {
    AppPhase {
        weight,
        dist: StackDistanceDist::power_law(span_lines, alpha, p_new),
        accesses_per_instr: apki,
        cpi_base: cpi,
        mlp,
    }
}

fn single(
    name: &'static str,
    suite: Suite,
    class: MemoryClass,
    instructions: f64,
    ph: AppPhase,
) -> Benchmark {
    Benchmark {
        name,
        suite,
        class,
        app: AppProfile::single_phase(name, instructions, ph),
    }
}

/// The full eleven-application suite.
///
/// Working-set spans are in cache lines (64 B each); e.g. 3,000,000 lines ≈
/// 192 MiB, far beyond either machine's LLC, while 120,000 lines ≈ 7.3 MiB
/// fits the 12 MiB E5649 LLC with room to spare. Parameters are calibrated
/// so measured solo memory intensity on the simulated E5649 lands in each
/// app's documented class band and baseline execution times at the top
/// P-state span roughly 150–700 s, mirroring the paper's "150 seconds to
/// over 1000" across P-states.
pub fn standard() -> Vec<Benchmark> {
    vec![
        // ---- Class I: memory-bound streamers -------------------------
        // NAS CG: sparse conjugate gradient — huge irregular working set.
        single(
            "cg",
            Suite::Nas,
            MemoryClass::I,
            620e9,
            phase(3_000_000, 0.75, 0.020, 0.036, 0.85, 5.0, 1.0),
        ),
        // PARSEC streamcluster: streaming k-median clustering.
        single(
            "streamcluster",
            Suite::Parsec,
            MemoryClass::I,
            520e9,
            phase(2_000_000, 0.75, 0.015, 0.028, 0.80, 4.5, 1.0),
        ),
        // NAS MG: multigrid — large strided sweeps.
        single(
            "mg",
            Suite::Nas,
            MemoryClass::I,
            700e9,
            phase(1_500_000, 0.70, 0.012, 0.020, 0.90, 5.5, 1.0),
        ),
        // ---- Class II: working sets a few × the LLC ------------------
        // NAS SP: scalar pentadiagonal solver.
        single(
            "sp",
            Suite::Nas,
            MemoryClass::II,
            800e9,
            phase(600_000, 0.90, 0.010, 0.022, 0.95, 4.0, 1.0),
        ),
        // PARSEC canneal: simulated annealing over a netlist —
        // pointer-chasing, low MLP.
        single(
            "canneal",
            Suite::Parsec,
            MemoryClass::II,
            480e9,
            phase(1_000_000, 1.00, 0.010, 0.012, 1.05, 2.0, 1.0),
        ),
        // NAS FT: 3-D FFT — alternating compute and all-to-all transpose
        // phases (the suite's showcase multi-phase profile).
        Benchmark {
            name: "ft",
            suite: Suite::Nas,
            class: MemoryClass::II,
            app: AppProfile {
                name: "ft".into(),
                instructions: 750e9,
                phases: vec![
                    // compute-heavy butterfly phase
                    phase(200_000, 1.10, 0.004, 0.010, 0.80, 4.0, 0.6),
                    // transpose phase: streams the full volume
                    phase(900_000, 0.85, 0.015, 0.024, 0.95, 5.0, 0.4),
                ],
            },
        },
        // ---- Class III: LLC-resident working sets --------------------
        // PARSEC fluidanimate: SPH fluid dynamics — grid mostly fits.
        single(
            "fluidanimate",
            Suite::Parsec,
            MemoryClass::III,
            900e9,
            phase(150_000, 1.20, 0.004, 0.050, 0.75, 3.0, 1.0),
        ),
        // PARSEC bodytrack: computer-vision pipeline, two stages.
        Benchmark {
            name: "bodytrack",
            suite: Suite::Parsec,
            class: MemoryClass::III,
            app: AppProfile {
                name: "bodytrack".into(),
                instructions: 650e9,
                phases: vec![
                    phase(100_000, 1.25, 0.003, 0.045, 0.72, 3.0, 0.7),
                    phase(160_000, 1.10, 0.004, 0.050, 0.78, 3.0, 0.3),
                ],
            },
        },
        // NAS UA: unstructured adaptive mesh — irregular but cached.
        single(
            "ua",
            Suite::Nas,
            MemoryClass::III,
            780e9,
            phase(120_000, 1.20, 0.002, 0.040, 0.80, 3.5, 1.0),
        ),
        // ---- Class IV: CPU-bound ------------------------------------
        // PARSEC blackscholes: option pricing — tiny hot data.
        single(
            "blackscholes",
            Suite::Parsec,
            MemoryClass::IV,
            1_000e9,
            phase(5_000, 1.50, 0.0075, 4e-4, 0.65, 2.0, 1.0),
        ),
        // NAS EP: embarrassingly parallel random-number kernel.
        single(
            "ep",
            Suite::Nas,
            MemoryClass::IV,
            1_100e9,
            phase(2_000, 1.50, 0.0050, 2e-4, 0.60, 2.0, 1.0),
        ),
    ]
}

/// Look up a benchmark by name.
pub fn by_name(name: &str) -> Option<Benchmark> {
    standard().into_iter().find(|b| b.name == name)
}

/// The four training co-runners of §IV-B3, one per memory-intensity class:
/// `cg` (I), `sp` (II), `fluidanimate` (III), `ep` (IV). Filtered from one
/// build of the suite, whose order lists them in that order.
pub fn training_co_runners() -> Vec<Benchmark> {
    const NAMES: [&str; 4] = ["cg", "sp", "fluidanimate", "ep"];
    standard()
        .into_iter()
        .filter(|b| NAMES.contains(&b.name))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_eleven_valid_apps() {
        let suite = standard();
        assert_eq!(suite.len(), 11);
        for b in &suite {
            b.app.validate().unwrap();
            assert_eq!(b.app.name, b.name);
        }
    }

    #[test]
    fn names_are_unique() {
        let suite = standard();
        let mut names: Vec<_> = suite.iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 11);
    }

    #[test]
    fn class_representation() {
        let suite = standard();
        for class in MemoryClass::ALL {
            let n = suite.iter().filter(|b| b.class == class).count();
            assert!(n >= 2 || class == MemoryClass::IV, "{class} has {n}");
        }
        // Both source suites are represented (paper Table III mixes P and N).
        assert!(suite.iter().any(|b| b.suite == Suite::Parsec));
        assert!(suite.iter().any(|b| b.suite == Suite::Nas));
    }

    #[test]
    fn training_co_runners_cover_all_classes() {
        let co = training_co_runners();
        let names: Vec<_> = co.iter().map(|b| b.name).collect();
        assert_eq!(names, ["cg", "sp", "fluidanimate", "ep"]);
        let classes: Vec<_> = co.iter().map(|b| b.class).collect();
        assert_eq!(
            classes,
            vec![
                MemoryClass::I,
                MemoryClass::II,
                MemoryClass::III,
                MemoryClass::IV
            ]
        );
    }

    #[test]
    fn by_name_works() {
        assert!(by_name("canneal").is_some());
        assert!(by_name("doom").is_none());
    }

    #[test]
    fn suite_tags() {
        assert_eq!(Suite::Parsec.tag(), "P");
        assert_eq!(Suite::Nas.tag(), "N");
    }
}
