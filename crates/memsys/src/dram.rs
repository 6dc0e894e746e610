//! DRAM latency under load.
//!
//! The model: a miss's average service time is
//!
//! ```text
//! L(ρ, s) = L_idle + L_queue · ρ/(1 − ρ)  (capped at L_max)
//!           + L_bank · bank_conflict(s)
//! ```
//!
//! where `ρ` is channel utilization (offered bandwidth / peak bandwidth,
//! clamped below 1) and `s` is the number of concurrently active access
//! streams. The `ρ/(1−ρ)` term is the M/M/1 waiting-time factor — the
//! simplest queueing form with the right qualitative shape (flat at low
//! load, explosive near saturation); the cap models the finite queue of a
//! real memory controller. The bank term models row-buffer interference:
//! each additional independent stream makes row hits rarer, saturating once
//! streams outnumber banks.

/// Static description of a platform's memory subsystem.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DramSpec {
    /// Peak sustainable bandwidth, bytes/second.
    pub peak_bw_bytes_per_sec: f64,
    /// Unloaded (idle) access latency, nanoseconds.
    pub idle_latency_ns: f64,
    /// Scale of the queueing term, nanoseconds.
    pub queue_latency_ns: f64,
    /// Hard cap on total queueing delay, nanoseconds (finite MC queue).
    pub max_queue_ns: f64,
    /// Row-buffer interference penalty scale, nanoseconds.
    pub bank_penalty_ns: f64,
    /// Number of independent banks (streams beyond this saturate the
    /// bank-conflict term).
    pub banks: usize,
}

impl DramSpec {
    /// Triple-channel DDR3-1333 — the Westmere-EP Xeon E5649 platform.
    /// Peak = 3 channels × 10.667 GB/s.
    pub fn ddr3_1333_triple_channel() -> DramSpec {
        DramSpec {
            peak_bw_bytes_per_sec: 32.0e9,
            idle_latency_ns: 65.0,
            queue_latency_ns: 14.0,
            max_queue_ns: 320.0,
            bank_penalty_ns: 9.0,
            banks: 24,
        }
    }

    /// Quad-channel DDR3-1866 — the Ivy Bridge-EP Xeon E5-2697 v2 platform.
    /// Peak = 4 channels × 14.933 GB/s.
    pub fn ddr3_1866_quad_channel() -> DramSpec {
        DramSpec {
            peak_bw_bytes_per_sec: 59.7e9,
            idle_latency_ns: 62.0,
            queue_latency_ns: 12.0,
            max_queue_ns: 300.0,
            bank_penalty_ns: 8.0,
            banks: 32,
        }
    }
}

/// A memory system evaluating latency under offered load.
#[derive(Clone, Copy, Debug, serde::Serialize, serde::Deserialize)]
pub struct MemorySystem {
    spec: DramSpec,
}

impl MemorySystem {
    /// Wrap a spec.
    pub fn new(spec: DramSpec) -> MemorySystem {
        assert!(
            spec.peak_bw_bytes_per_sec > 0.0,
            "peak bandwidth must be positive"
        );
        assert!(spec.idle_latency_ns > 0.0, "idle latency must be positive");
        MemorySystem { spec }
    }

    /// The underlying spec.
    pub fn spec(&self) -> &DramSpec {
        &self.spec
    }

    /// Channel utilization for an offered bandwidth, clamped to `[0, 0.99]`
    /// (demand beyond peak queues up; effective ρ saturates).
    pub fn utilization(&self, offered_bytes_per_sec: f64) -> f64 {
        (offered_bytes_per_sec.max(0.0) / self.spec.peak_bw_bytes_per_sec).clamp(0.0, 0.99)
    }

    /// Average access latency (ns) at an offered aggregate bandwidth with
    /// `streams` concurrently active miss streams.
    pub fn access_latency_ns(&self, offered_bytes_per_sec: f64, streams: usize) -> f64 {
        let rho = self.utilization(offered_bytes_per_sec);
        let queue = (self.spec.queue_latency_ns * rho / (1.0 - rho)).min(self.spec.max_queue_ns);
        self.spec.idle_latency_ns + queue + self.bank_conflict_ns(streams)
    }

    /// Row-buffer interference penalty: zero for a single stream, growing
    /// and saturating as streams approach the bank count.
    pub fn bank_conflict_ns(&self, streams: usize) -> f64 {
        if streams <= 1 {
            return 0.0;
        }
        let x = (streams - 1) as f64 / self.spec.banks as f64;
        // Saturating exponential: ≈ linear at first, flat beyond ~2×banks.
        self.spec.bank_penalty_ns * self.spec.banks as f64 * 0.5 * (1.0 - (-2.0 * x).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemorySystem {
        MemorySystem::new(DramSpec::ddr3_1333_triple_channel())
    }

    #[test]
    fn idle_latency_at_zero_load() {
        let m = sys();
        assert_eq!(m.access_latency_ns(0.0, 1), m.spec().idle_latency_ns);
    }

    #[test]
    fn latency_monotone_in_load() {
        let m = sys();
        let mut prev = 0.0;
        for i in 0..100 {
            let bw = i as f64 * 0.5e9;
            let l = m.access_latency_ns(bw, 1);
            assert!(l >= prev, "at {bw}");
            prev = l;
        }
    }

    #[test]
    fn latency_convex_near_saturation() {
        // The increase from 80%→90% must exceed the increase from 10%→20%.
        let m = sys();
        let peak = m.spec().peak_bw_bytes_per_sec;
        let low_rise = m.access_latency_ns(0.2 * peak, 1) - m.access_latency_ns(0.1 * peak, 1);
        let high_rise = m.access_latency_ns(0.9 * peak, 1) - m.access_latency_ns(0.8 * peak, 1);
        assert!(high_rise > 3.0 * low_rise, "{high_rise} vs {low_rise}");
    }

    #[test]
    fn latency_bounded_even_beyond_peak() {
        let m = sys();
        let l = m.access_latency_ns(1e15, 200);
        let s = m.spec();
        let bound = s.idle_latency_ns + s.max_queue_ns + s.bank_penalty_ns * s.banks as f64;
        assert!(l <= bound, "{l} > {bound}");
        assert!(l.is_finite());
    }

    #[test]
    fn bank_conflicts_grow_then_saturate() {
        let m = sys();
        assert_eq!(m.bank_conflict_ns(0), 0.0);
        assert_eq!(m.bank_conflict_ns(1), 0.0);
        let few = m.bank_conflict_ns(4);
        let some = m.bank_conflict_ns(12);
        let many = m.bank_conflict_ns(48);
        let lots = m.bank_conflict_ns(96);
        assert!(few > 0.0);
        assert!(some > few);
        assert!(many > some);
        // Saturation: doubling streams far past the bank count changes little.
        assert!((lots - many) < (some - few));
    }

    #[test]
    fn utilization_clamped() {
        let m = sys();
        assert_eq!(m.utilization(-5.0), 0.0);
        assert!(m.utilization(1e18) <= 0.99);
    }

    #[test]
    fn presets_are_ordered_sensibly() {
        // The 12-core platform has more bandwidth and more banks.
        let small = DramSpec::ddr3_1333_triple_channel();
        let big = DramSpec::ddr3_1866_quad_channel();
        assert!(big.peak_bw_bytes_per_sec > small.peak_bw_bytes_per_sec);
        assert!(big.banks > small.banks);
    }

    #[test]
    #[should_panic(expected = "peak bandwidth")]
    fn rejects_zero_bandwidth() {
        MemorySystem::new(DramSpec {
            peak_bw_bytes_per_sec: 0.0,
            ..DramSpec::ddr3_1333_triple_channel()
        });
    }
}
