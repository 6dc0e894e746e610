//! Static machine descriptions: cores, LLC, P-states, memory subsystem.

use coloc_memsys::DramSpec;

/// A multicore processor platform (paper Table IV plus the parameters the
/// simulator needs that the table summarizes).
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MachineSpec {
    /// Marketing name, e.g. `"Xeon E5649"`.
    pub name: String,
    /// Physical cores (hyperthreading is off throughout, as in the paper).
    pub cores: usize,
    /// Shared last-level cache capacity in bytes.
    pub llc_bytes: u64,
    /// LLC associativity.
    pub llc_ways: usize,
    /// Available P-state core frequencies in GHz, **descending** (index 0 =
    /// fastest). The paper samples six per machine.
    pub pstates_ghz: Vec<f64>,
    /// DRAM subsystem parameters.
    pub dram: DramSpec,
}

impl MachineSpec {
    /// Validate internal consistency; used by constructors and tests.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("machine needs at least one core".into());
        }
        if self.llc_bytes == 0 {
            return Err("LLC must be non-empty".into());
        }
        if self.pstates_ghz.is_empty() {
            return Err("need at least one P-state".into());
        }
        // `!(f > 0.0)` deliberately also rejects NaN.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if self.pstates_ghz.iter().any(|&f| !(f > 0.0)) {
            return Err("P-state frequencies must be positive".into());
        }
        if self.pstates_ghz.windows(2).any(|w| w[1] > w[0]) {
            return Err("P-states must be sorted descending".into());
        }
        Ok(())
    }

    /// Frequency of P-state `index` in Hz.
    pub fn freq_hz(&self, index: usize) -> Option<f64> {
        self.pstates_ghz.get(index).map(|&g| g * 1e9)
    }

    /// Number of P-states.
    pub fn num_pstates(&self) -> usize {
        self.pstates_ghz.len()
    }
}

#[cfg(test)]
mod tests {
    use crate::presets;

    #[test]
    fn presets_validate() {
        presets::xeon_e5649().validate().unwrap();
        presets::xeon_e5_2697v2().validate().unwrap();
    }

    #[test]
    fn presets_match_paper_table4() {
        let small = presets::xeon_e5649();
        assert_eq!(small.cores, 6);
        assert_eq!(small.llc_bytes, 12 << 20);
        assert_eq!(small.num_pstates(), 6);
        assert!((small.pstates_ghz[0] - 2.53).abs() < 1e-9);
        assert!((small.pstates_ghz[5] - 1.60).abs() < 1e-9);

        let big = presets::xeon_e5_2697v2();
        assert_eq!(big.cores, 12);
        assert_eq!(big.llc_bytes, 30 << 20);
        assert_eq!(big.num_pstates(), 6);
        assert!((big.pstates_ghz[0] - 2.70).abs() < 1e-9);
        assert!((big.pstates_ghz[5] - 1.20).abs() < 1e-9);
    }

    #[test]
    fn freq_lookup() {
        let m = presets::xeon_e5649();
        assert_eq!(m.freq_hz(0), Some(2.53e9));
        assert_eq!(m.freq_hz(99), None);
    }

    #[test]
    fn validation_catches_errors() {
        let mut m = presets::xeon_e5649();
        m.pstates_ghz = vec![1.0, 2.0]; // ascending: invalid
        assert!(m.validate().is_err());
        m.pstates_ghz = vec![];
        assert!(m.validate().is_err());
        let mut m2 = presets::xeon_e5649();
        m2.cores = 0;
        assert!(m2.validate().is_err());
    }
}
