//! Memory-intensity classes (paper Table III).
//!
//! Classes let a resource manager that only roughly knows how
//! memory-intensive an application is still use the prediction models, by
//! substituting class-average feature values (paper §IV-B1).

/// The four memory-intensity classes. Class I is the most memory-bound
//  (highest LLC misses per instruction); Class IV the most CPU-bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemoryClass {
    /// Most memory intensive (MI ≳ 5·10⁻³).
    I,
    /// MI in [5·10⁻⁴, 5·10⁻³).
    II,
    /// MI in [2·10⁻⁵, 5·10⁻⁴).
    III,
    /// Least memory intensive (MI < 2·10⁻⁵).
    IV,
}

impl MemoryClass {
    /// All classes, most to least intensive.
    pub const ALL: [MemoryClass; 4] = [
        MemoryClass::I,
        MemoryClass::II,
        MemoryClass::III,
        MemoryClass::IV,
    ];

    /// Memory-intensity band `[lo, hi)` for this class. Bands tile the
    /// full range with order-of-magnitude separation between class centers,
    /// matching the paper's observation that "memory intensity values
    /// between application classes tend to differ by orders of magnitude".
    pub fn band(&self) -> (f64, f64) {
        match self {
            MemoryClass::I => (5e-3, 1.0),
            MemoryClass::II => (5e-4, 5e-3),
            MemoryClass::III => (2e-5, 5e-4),
            MemoryClass::IV => (0.0, 2e-5),
        }
    }

    /// Classify a measured memory intensity.
    pub fn classify(memory_intensity: f64) -> MemoryClass {
        for c in MemoryClass::ALL {
            let (lo, hi) = c.band();
            if memory_intensity >= lo && memory_intensity < hi {
                return c;
            }
        }
        // >= 1.0 is impossible for MI but classify defensively as Class I.
        MemoryClass::I
    }

    /// Geometric center of the class band — the "average value for that
    /// application's class" a developer would plug into the models when
    /// exact measurements are unavailable (§IV-B1).
    pub fn representative_intensity(&self) -> f64 {
        match self {
            // Class I's band is open-ended upward; use the suite's region.
            MemoryClass::I => 1.2e-2,
            MemoryClass::II => (5e-4f64 * 5e-3).sqrt(),
            MemoryClass::III => (2e-5f64 * 5e-4).sqrt(),
            MemoryClass::IV => 2e-6,
        }
    }

    /// Roman-numeral label as in the paper ("Class I" … "Class IV").
    pub fn label(&self) -> &'static str {
        match self {
            MemoryClass::I => "Class I",
            MemoryClass::II => "Class II",
            MemoryClass::III => "Class III",
            MemoryClass::IV => "Class IV",
        }
    }
}

impl std::fmt::Display for MemoryClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_tile_without_gaps() {
        for w in MemoryClass::ALL.windows(2) {
            let (lo_hi, _) = w[0].band();
            let (_, hi_lo) = w[1].band();
            assert_eq!(lo_hi, hi_lo, "{:?}/{:?}", w[0], w[1]);
        }
    }

    #[test]
    fn classification_round_trips_representatives() {
        for c in MemoryClass::ALL {
            assert_eq!(MemoryClass::classify(c.representative_intensity()), c);
        }
    }

    #[test]
    fn classify_known_values() {
        assert_eq!(MemoryClass::classify(2e-2), MemoryClass::I);
        assert_eq!(MemoryClass::classify(1e-3), MemoryClass::II);
        assert_eq!(MemoryClass::classify(1e-4), MemoryClass::III);
        assert_eq!(MemoryClass::classify(1e-6), MemoryClass::IV);
        assert_eq!(MemoryClass::classify(0.0), MemoryClass::IV);
    }

    #[test]
    fn ordering_matches_intensity() {
        assert!(MemoryClass::I < MemoryClass::IV);
        let mut prev = f64::INFINITY;
        for c in MemoryClass::ALL {
            let r = c.representative_intensity();
            assert!(r < prev);
            prev = r;
        }
    }
}
