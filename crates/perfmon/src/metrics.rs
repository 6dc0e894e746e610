//! Derived metrics from raw counter values (paper §IV-A3).

/// The derived quantities the prediction models consume, computed from one
/// flat counter sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DerivedMetrics {
    /// Memory intensity: LLC misses per instruction. "Gives an idea of the
    /// rate at which an application needs to go to main memory" (§IV-A3).
    pub memory_intensity: f64,
    /// LLC misses per LLC access (the CM/CA feature of Table I).
    pub miss_ratio: f64,
    /// LLC accesses per instruction (the CA/INS feature of Table I).
    pub access_ratio: f64,
    /// Instructions per cycle, a general health indicator.
    pub ipc: f64,
}

impl DerivedMetrics {
    /// Compute from raw counts. Zero denominators yield zero (an app that
    /// never touches the LLC has zero intensity, not NaN).
    pub fn from_counts(instructions: f64, cycles: f64, tca: f64, tcm: f64) -> DerivedMetrics {
        let safe = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        DerivedMetrics {
            memory_intensity: safe(tcm, instructions),
            miss_ratio: safe(tcm, tca),
            access_ratio: safe(tca, instructions),
            ipc: safe(instructions, cycles),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_values() {
        let m = DerivedMetrics::from_counts(1000.0, 2000.0, 100.0, 25.0);
        assert!((m.memory_intensity - 0.025).abs() < 1e-12);
        assert!((m.miss_ratio - 0.25).abs() < 1e-12);
        assert!((m.access_ratio - 0.1).abs() < 1e-12);
        assert!((m.ipc - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_denominators_are_zero() {
        let m = DerivedMetrics::from_counts(0.0, 0.0, 0.0, 0.0);
        assert_eq!(m.memory_intensity, 0.0);
        assert_eq!(m.miss_ratio, 0.0);
        assert_eq!(m.access_ratio, 0.0);
        assert_eq!(m.ipc, 0.0);
    }

    #[test]
    fn identity_consistency() {
        // memory_intensity == miss_ratio × access_ratio
        let m = DerivedMetrics::from_counts(1e9, 2e9, 3e7, 4e6);
        assert!((m.memory_intensity - m.miss_ratio * m.access_ratio).abs() < 1e-15);
    }
}
