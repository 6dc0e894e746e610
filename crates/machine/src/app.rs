//! Application profiles: how the simulator sees a running program.
//!
//! An [`AppProfile`] captures everything the engine needs to co-execute an
//! application: how many instructions it retires, and — per execution
//! phase — its compute intensity (base CPI), how often it reaches the LLC,
//! how much latency it can hide (memory-level parallelism), and its cache
//! locality as a stack-distance model. The paper notes applications move
//! through memory-use phases (§I, citing \[SaS13\]) but shows coarse
//! averages suffice for prediction; profiles here support both single- and
//! multi-phase structure so that claim can be tested.

use coloc_cachesim::{MissRateCurve, StackDistanceDist};

/// One execution phase of an application.
#[derive(Clone, Debug)]
pub struct AppPhase {
    /// Fraction of the app's instructions spent in this phase (> 0; phases
    /// must sum to ≈ 1).
    pub weight: f64,
    /// Cache-locality model of the phase's LLC reference stream.
    pub dist: StackDistanceDist,
    /// LLC accesses per instruction (references that miss the private
    /// L1/L2 hierarchy and reach the shared cache).
    pub accesses_per_instr: f64,
    /// Cycles per instruction excluding LLC-miss stalls, at any frequency.
    pub cpi_base: f64,
    /// Memory-level parallelism: average overlapped misses; divides the
    /// effective per-miss stall.
    pub mlp: f64,
}

impl AppPhase {
    /// Miss-rate curve of this phase (delegates to the locality model).
    pub fn mrc(&self) -> MissRateCurve {
        self.dist.miss_rate_curve()
    }

    // Negated comparisons are deliberate: `!(x > 0.0)` also rejects NaN,
    // which `x <= 0.0` would let through.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn validate(&self, i: usize) -> Result<(), String> {
        if !(self.weight > 0.0) {
            return Err(format!("phase {i}: weight must be positive"));
        }
        if !(self.accesses_per_instr >= 0.0) {
            return Err(format!("phase {i}: negative access rate"));
        }
        if !(self.cpi_base > 0.0) {
            return Err(format!("phase {i}: cpi_base must be positive"));
        }
        if !(self.mlp >= 1.0) {
            return Err(format!("phase {i}: mlp must be >= 1"));
        }
        Ok(())
    }
}

/// A complete application profile.
#[derive(Clone, Debug)]
pub struct AppProfile {
    /// Application name (e.g. `"canneal"`).
    pub name: String,
    /// Total instructions retired over one complete run.
    pub instructions: f64,
    /// Execution phases, in order.
    pub phases: Vec<AppPhase>,
}

impl AppProfile {
    /// Validate the profile; the engine calls this before running.
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN-rejecting guards
    pub fn validate(&self) -> Result<(), String> {
        if self.phases.is_empty() {
            return Err(format!("{}: no phases", self.name));
        }
        if !(self.instructions > 0.0) {
            return Err(format!("{}: instructions must be positive", self.name));
        }
        for (i, p) in self.phases.iter().enumerate() {
            p.validate(i).map_err(|e| format!("{}: {e}", self.name))?;
        }
        let total: f64 = self.phases.iter().map(|p| p.weight).sum();
        if (total - 1.0).abs() > 1e-6 {
            return Err(format!(
                "{}: phase weights sum to {total}, expected 1",
                self.name
            ));
        }
        Ok(())
    }

    /// Phase index active at instruction-progress `done` (0..instructions),
    /// plus the instruction count at which that phase ends.
    pub fn phase_at(&self, done: f64) -> (usize, f64) {
        let mut boundary = 0.0;
        for (i, p) in self.phases.iter().enumerate() {
            boundary += p.weight * self.instructions;
            if i == self.phases.len() - 1 {
                // Pin the final boundary to the exact instruction count so
                // completion checks are immune to weight-sum rounding.
                return (i, self.instructions);
            }
            if done < boundary - 1e-9 {
                return (i, boundary);
            }
        }
        unreachable!("phases are non-empty")
    }

    /// Instruction-weighted average of a per-phase quantity.
    pub fn weighted<F: Fn(&AppPhase) -> f64>(&self, f: F) -> f64 {
        self.phases.iter().map(|p| p.weight * f(p)).sum()
    }

    /// A convenience single-phase profile.
    pub fn single_phase(name: impl Into<String>, instructions: f64, phase: AppPhase) -> AppProfile {
        AppProfile {
            name: name.into(),
            instructions,
            phases: vec![AppPhase {
                weight: 1.0,
                ..phase
            }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(weight: f64) -> AppPhase {
        AppPhase {
            weight,
            dist: StackDistanceDist::power_law(64, 1.0, 0.01),
            accesses_per_instr: 0.01,
            cpi_base: 1.0,
            mlp: 2.0,
        }
    }

    fn two_phase() -> AppProfile {
        AppProfile {
            name: "toy".into(),
            instructions: 1000.0,
            phases: vec![phase(0.25), phase(0.75)],
        }
    }

    #[test]
    fn valid_profile_passes() {
        two_phase().validate().unwrap();
    }

    #[test]
    fn weight_sum_checked() {
        let mut p = two_phase();
        p.phases[0].weight = 0.5;
        assert!(p.validate().is_err());
    }

    #[test]
    fn rejects_bad_fields() {
        let mut p = two_phase();
        p.phases[0].mlp = 0.5;
        assert!(p.validate().is_err());
        let mut p = two_phase();
        p.phases[1].cpi_base = 0.0;
        assert!(p.validate().is_err());
        let mut p = two_phase();
        p.instructions = -1.0;
        assert!(p.validate().is_err());
        let p = AppProfile {
            name: "x".into(),
            instructions: 1.0,
            phases: vec![],
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn phase_lookup() {
        let p = two_phase();
        assert_eq!(p.phase_at(0.0), (0, 250.0));
        assert_eq!(p.phase_at(100.0), (0, 250.0));
        assert_eq!(p.phase_at(250.0), (1, 1000.0));
        assert_eq!(p.phase_at(999.0), (1, 1000.0));
        // At/after the end, the last phase remains active.
        assert_eq!(p.phase_at(1000.0).0, 1);
    }

    #[test]
    fn weighted_average() {
        let mut p = two_phase();
        p.phases[0].cpi_base = 2.0;
        p.phases[1].cpi_base = 1.0;
        assert!((p.weighted(|ph| ph.cpi_base) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn single_phase_normalizes_weight() {
        let p = AppProfile::single_phase("s", 10.0, phase(0.123));
        p.validate().unwrap();
        assert_eq!(p.phases[0].weight, 1.0);
    }
}
