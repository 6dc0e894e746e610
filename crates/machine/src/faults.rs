//! Deterministic measurement-fault injection.
//!
//! Real PMU-derived measurements are not clean: multiplexed counter events
//! get dropped, counters stick or saturate, timer reads come back NaN after
//! a failed `rdmsr`, and background daemons inject noise bursts far larger
//! than steady-state run-to-run variation. The paper's methodology assumes
//! clean solo baselines; a production pipeline has to survive inputs that
//! violate that assumption.
//!
//! A [`FaultPlan`] describes *how often* and *how hard* each fault kind
//! strikes. Faults are injected per run, seeded from the plan's own seed
//! mixed with the run's noise seed — the same scenario under the same plan
//! always faults identically, regardless of sweep order or thread count, so
//! chaos sweeps are exactly reproducible and memoizable. The plan is part
//! of the [`RunCache`](crate::RunCache) digest: changing any fault
//! parameter invalidates memoized outcomes.
//!
//! The roll order is fixed and documented (noise burst → stuck counter →
//! saturated counter → NaN reading → dropped sample) so a plan's behaviour
//! is stable across releases; later rolls may overwrite earlier ones (a
//! dropped sample zeroes a wall time the NaN fault just poisoned), exactly
//! like a real collector that discards a sample after the fact.

use crate::engine::RunOutcome;
use rand::rngs::StdRng;
use rand::Rng as _;
use rand::SeedableRng as _;

/// The kinds of measurement fault the injector can produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The whole sample was lost: wall time and the target's counters read
    /// zero, as when a collector times out and records nothing.
    DroppedSample,
    /// The wall-time reading came back NaN (failed timer read).
    NanReading,
    /// One group's cycle counter stuck near zero mid-run, deflating its
    /// cycle count by a large factor.
    StuckCounter,
    /// One group's LLC-miss counter saturated: it reports misses equal to
    /// accesses (a 100% miss ratio, physically implausible).
    SaturatedCounter,
    /// A multiplicative noise burst far beyond steady-state σ scaled the
    /// wall time and every group's cycles.
    NoiseBurst,
}

impl FaultKind {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::DroppedSample => "dropped-sample",
            FaultKind::NanReading => "nan-reading",
            FaultKind::StuckCounter => "stuck-counter",
            FaultKind::SaturatedCounter => "saturated-counter",
            FaultKind::NoiseBurst => "noise-burst",
        }
    }
}

/// One fault that actually fired during a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// What struck.
    pub kind: FaultKind,
    /// Workload group whose counters were affected (0 = target; kinds that
    /// hit the whole sample report group 0).
    pub group: usize,
}

/// A seeded description of how often each measurement fault strikes.
///
/// All rates are per-run probabilities in `[0, 1]`. The default plan is a
/// no-op (all rates zero); [`FaultPlan::light`] and [`FaultPlan::heavy`]
/// are calibrated presets for chaos testing.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FaultPlan {
    /// Plan seed, mixed with each run's noise seed to draw that run's
    /// fault rolls. Two plans differing only in seed fault different runs.
    pub seed: u64,
    /// Probability the whole sample is dropped (zeroed).
    pub dropped_sample_rate: f64,
    /// Probability the wall-time reading is NaN.
    pub nan_reading_rate: f64,
    /// Probability one group's cycle counter sticks near zero.
    pub stuck_counter_rate: f64,
    /// Probability one group's LLC-miss counter saturates to its accesses.
    pub saturated_counter_rate: f64,
    /// Probability of a multiplicative noise burst on wall time + cycles.
    pub noise_burst_rate: f64,
    /// Lognormal σ of the burst (≫ steady-state noise; 0 disables bursts
    /// even when `noise_burst_rate > 0`).
    pub noise_burst_sigma: f64,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 0,
            dropped_sample_rate: 0.0,
            nan_reading_rate: 0.0,
            stuck_counter_rate: 0.0,
            saturated_counter_rate: 0.0,
            noise_burst_rate: 0.0,
            noise_burst_sigma: 0.0,
        }
    }
}

impl FaultPlan {
    /// A mild chaos preset: a few percent of samples take a fault.
    pub fn light(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            dropped_sample_rate: 0.01,
            nan_reading_rate: 0.01,
            stuck_counter_rate: 0.01,
            saturated_counter_rate: 0.01,
            noise_burst_rate: 0.02,
            noise_burst_sigma: 0.25,
        }
    }

    /// An aggressive chaos preset: a large fraction of samples are damaged
    /// badly enough that training on the raw data diverges.
    pub fn heavy(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            dropped_sample_rate: 0.05,
            nan_reading_rate: 0.08,
            stuck_counter_rate: 0.08,
            saturated_counter_rate: 0.08,
            noise_burst_rate: 0.25,
            noise_burst_sigma: 0.8,
        }
    }

    /// Check every rate is a probability and the burst σ is sane.
    pub fn validate(&self) -> std::result::Result<(), String> {
        let rates = [
            ("dropped_sample_rate", self.dropped_sample_rate),
            ("nan_reading_rate", self.nan_reading_rate),
            ("stuck_counter_rate", self.stuck_counter_rate),
            ("saturated_counter_rate", self.saturated_counter_rate),
            ("noise_burst_rate", self.noise_burst_rate),
        ];
        for (name, r) in rates {
            if !r.is_finite() || !(0.0..=1.0).contains(&r) {
                return Err(format!("{name} must be in [0, 1], got {r}"));
            }
        }
        if !self.noise_burst_sigma.is_finite() || self.noise_burst_sigma < 0.0 {
            return Err(format!(
                "noise_burst_sigma must be finite and >= 0, got {}",
                self.noise_burst_sigma
            ));
        }
        Ok(())
    }

    /// True when no fault can ever fire under this plan.
    pub fn is_noop(&self) -> bool {
        self.dropped_sample_rate == 0.0
            && self.nan_reading_rate == 0.0
            && self.stuck_counter_rate == 0.0
            && self.saturated_counter_rate == 0.0
            && (self.noise_burst_rate == 0.0 || self.noise_burst_sigma == 0.0)
    }

    /// Stable 64-bit digest of the plan, folded into run digests and sweep
    /// checkpoint headers so a changed plan invalidates both. Uses the
    /// canonical [`crate::IrWriter`] encoding (fields in declaration
    /// order, floats by bit pattern).
    pub fn digest(&self) -> u64 {
        let mut d = crate::ir::IrWriter::new();
        d.u64(self.seed);
        d.f64(self.dropped_sample_rate);
        d.f64(self.nan_reading_rate);
        d.f64(self.stuck_counter_rate);
        d.f64(self.saturated_counter_rate);
        d.f64(self.noise_burst_rate);
        d.f64(self.noise_burst_sigma);
        d.finish64()
    }

    /// Inject this plan's faults into a run outcome, in place.
    ///
    /// `stream` identifies the run — callers pass the run's noise seed,
    /// which sweeps already derive per scenario, so injection is
    /// order- and thread-independent. Fired faults are appended to
    /// `outcome.faults` and mirrored in the return value.
    pub fn apply(&self, stream: u64, outcome: &mut RunOutcome) -> Vec<FaultEvent> {
        let mut fired = Vec::new();
        if self.is_noop() {
            return fired;
        }
        let mut rng = StdRng::seed_from_u64(splitmix(self.seed, stream));
        let n_groups = outcome.counters.len();

        // Fixed roll order; see the module docs. Each branch draws from the
        // shared stream, so which faults fire shifts later draws — still
        // fully determined by (plan, stream).
        if rng.gen::<f64>() < self.noise_burst_rate && self.noise_burst_sigma > 0.0 {
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen::<f64>();
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let scale = (self.noise_burst_sigma * z).exp();
            outcome.wall_time_s *= scale;
            for c in outcome.counters.iter_mut() {
                c.cycles *= scale;
            }
            fired.push(FaultEvent {
                kind: FaultKind::NoiseBurst,
                group: 0,
            });
        }
        if rng.gen::<f64>() < self.stuck_counter_rate && n_groups > 0 {
            let group = rng.gen_range(0..n_groups);
            let deflate = rng.gen_range(0.01..0.1);
            outcome.counters[group].cycles *= deflate;
            fired.push(FaultEvent {
                kind: FaultKind::StuckCounter,
                group,
            });
        }
        if rng.gen::<f64>() < self.saturated_counter_rate && n_groups > 0 {
            let group = rng.gen_range(0..n_groups);
            outcome.counters[group].llc_misses = outcome.counters[group].llc_accesses;
            fired.push(FaultEvent {
                kind: FaultKind::SaturatedCounter,
                group,
            });
        }
        if rng.gen::<f64>() < self.nan_reading_rate {
            // Canonical NaN: serializes as JSON null and reloads as the
            // same canonical NaN, so checkpointed faulty samples survive a
            // crash/resume round trip bit-identically.
            outcome.wall_time_s = f64::NAN;
            fired.push(FaultEvent {
                kind: FaultKind::NanReading,
                group: 0,
            });
        }
        if rng.gen::<f64>() < self.dropped_sample_rate {
            outcome.wall_time_s = 0.0;
            if n_groups > 0 {
                outcome.counters[0] = Default::default();
            }
            fired.push(FaultEvent {
                kind: FaultKind::DroppedSample,
                group: 0,
            });
        }
        outcome.faults.extend_from_slice(&fired);
        fired
    }
}

/// SplitMix64-style mixer combining the plan seed with a run's stream id.
/// Lives here because this crate has no dependency on `coloc_ml::rng`.
fn splitmix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CounterBlock;

    fn outcome() -> RunOutcome {
        RunOutcome {
            wall_time_s: 100.0,
            counters: vec![
                CounterBlock {
                    instructions: 1e9,
                    cycles: 2e9,
                    llc_accesses: 1e7,
                    llc_misses: 1e6,
                    completed_runs: 1,
                },
                CounterBlock {
                    instructions: 2e9,
                    cycles: 3e9,
                    llc_accesses: 2e7,
                    llc_misses: 3e6,
                    completed_runs: 4,
                },
            ],
            segments: 3,
            fp_iterations: 50,
            avg_llc_share_bytes: vec![1e6, 1e6],
            avg_mem_latency_ns: 80.0,
            convergence: crate::engine::Convergence::Converged,
            faults: Vec::new(),
        }
    }

    #[test]
    fn noop_plan_changes_nothing() {
        let plan = FaultPlan::default();
        assert!(plan.is_noop());
        let mut out = outcome();
        let fired = plan.apply(42, &mut out);
        assert!(fired.is_empty());
        assert_eq!(out.wall_time_s.to_bits(), 100.0f64.to_bits());
        assert!(out.faults.is_empty());
    }

    #[test]
    fn injection_is_deterministic_per_stream() {
        let plan = FaultPlan::heavy(7);
        let mut a = outcome();
        let mut b = outcome();
        let fa = plan.apply(1234, &mut a);
        let fb = plan.apply(1234, &mut b);
        assert_eq!(fa, fb);
        assert_eq!(a.wall_time_s.to_bits(), b.wall_time_s.to_bits());
        for (ca, cb) in a.counters.iter().zip(&b.counters) {
            assert_eq!(ca.cycles.to_bits(), cb.cycles.to_bits());
            assert_eq!(ca.llc_misses.to_bits(), cb.llc_misses.to_bits());
        }
    }

    #[test]
    fn different_streams_fault_differently() {
        let plan = FaultPlan::heavy(7);
        // Across many streams, outcomes must not all be identical and at
        // least one fault of each kind must fire at heavy rates.
        let mut kinds = std::collections::HashSet::new();
        let mut distinct_walls = std::collections::HashSet::new();
        for stream in 0..400u64 {
            let mut out = outcome();
            for ev in plan.apply(stream, &mut out) {
                kinds.insert(ev.kind.label());
            }
            distinct_walls.insert(out.wall_time_s.to_bits());
        }
        assert!(distinct_walls.len() > 10, "{}", distinct_walls.len());
        for kind in [
            "dropped-sample",
            "nan-reading",
            "stuck-counter",
            "saturated-counter",
            "noise-burst",
        ] {
            assert!(kinds.contains(kind), "kind {kind} never fired");
        }
    }

    #[test]
    fn saturated_counter_pins_miss_ratio_to_one() {
        let plan = FaultPlan {
            seed: 1,
            saturated_counter_rate: 1.0,
            ..Default::default()
        };
        let mut out = outcome();
        let fired = plan.apply(9, &mut out);
        let ev = fired
            .iter()
            .find(|e| e.kind == FaultKind::SaturatedCounter)
            .expect("saturation must fire at rate 1.0");
        let c = &out.counters[ev.group];
        assert_eq!(c.llc_misses.to_bits(), c.llc_accesses.to_bits());
    }

    #[test]
    fn nan_reading_uses_canonical_nan() {
        let plan = FaultPlan {
            seed: 1,
            nan_reading_rate: 1.0,
            ..Default::default()
        };
        let mut out = outcome();
        plan.apply(9, &mut out);
        assert_eq!(out.wall_time_s.to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn validate_rejects_bad_rates() {
        let mut plan = FaultPlan::light(0);
        assert!(plan.validate().is_ok());
        plan.nan_reading_rate = 1.5;
        assert!(plan.validate().is_err());
        plan.nan_reading_rate = f64::NAN;
        assert!(plan.validate().is_err());
        plan.nan_reading_rate = 0.0;
        plan.noise_burst_sigma = -1.0;
        assert!(plan.validate().is_err());
    }

    #[test]
    fn digest_tracks_every_field() {
        let base = FaultPlan::light(0);
        let d0 = base.digest();
        assert_eq!(d0, FaultPlan::light(0).digest(), "digest is stable");
        assert_ne!(d0, FaultPlan { seed: 1, ..base }.digest());
        assert_ne!(
            d0,
            FaultPlan {
                dropped_sample_rate: 0.5,
                ..base
            }
            .digest()
        );
        assert_ne!(
            d0,
            FaultPlan {
                noise_burst_sigma: 0.9,
                ..base
            }
            .digest()
        );
    }
}
