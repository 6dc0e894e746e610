//! Class-average prediction mode (paper §IV-B1).
//!
//! "Should a system developer not have detailed memory intensity
//! information about the applications running in the system, but still
//! \[have\] a general idea of how memory intensive the applications might
//! be, … the developer can still gain some insight … by running the model
//! with average values for that application's class."
//!
//! [`ClassAverager`] computes per-class average feature values from a
//! baseline database and featurizes scenarios using only class membership
//! for the cache-behaviour features (exact baseline execution time is still
//! used — a resource manager always knows how long a job ran alone).

use crate::baseline::BaselineDb;
use crate::features::feature_row;
use crate::lab::Lab;
use crate::scenario::Scenario;
use crate::{ColocError, Result};
use coloc_workloads::MemoryClass;
use std::collections::BTreeMap;

/// Per-class average cache-behaviour values.
#[derive(Clone, Copy, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ClassAverages {
    /// Mean memory intensity of the class's applications.
    pub memory_intensity: f64,
    /// Mean CM/CA.
    pub cm_ca: f64,
    /// Mean CA/INS.
    pub ca_ins: f64,
}

/// Featurizer that substitutes class averages for exact measurements.
#[derive(Clone, Debug)]
pub struct ClassAverager {
    averages: BTreeMap<MemoryClass, ClassAverages>,
    class_of: BTreeMap<String, MemoryClass>,
}

impl ClassAverager {
    /// Build from a lab: classes come from the suite's documentation,
    /// averages from the measured baselines.
    pub fn from_lab(lab: &Lab) -> ClassAverager {
        let mut class_of = BTreeMap::new();
        for b in lab.suite() {
            class_of.insert(b.name.to_string(), b.class);
        }
        Self::from_parts(lab.baselines(), &class_of)
    }

    /// Build from an explicit baseline database and class map.
    pub fn from_parts(db: &BaselineDb, class_of: &BTreeMap<String, MemoryClass>) -> ClassAverager {
        let mut sums: BTreeMap<MemoryClass, (ClassAverages, usize)> = BTreeMap::new();
        for b in db.iter() {
            if let Some(&class) = class_of.get(&b.name) {
                let e = sums.entry(class).or_default();
                e.0.memory_intensity += b.memory_intensity;
                e.0.cm_ca += b.cm_ca;
                e.0.ca_ins += b.ca_ins;
                e.1 += 1;
            }
        }
        let averages = sums
            .into_iter()
            .map(|(class, (s, n))| {
                let n = n as f64;
                (
                    class,
                    ClassAverages {
                        memory_intensity: s.memory_intensity / n,
                        cm_ca: s.cm_ca / n,
                        ca_ins: s.ca_ins / n,
                    },
                )
            })
            .collect();
        ClassAverager {
            averages,
            class_of: class_of.clone(),
        }
    }

    /// The averages computed for a class, if any of its apps were measured.
    pub fn averages(&self, class: MemoryClass) -> Option<ClassAverages> {
        self.averages.get(&class).copied()
    }

    /// The class recorded for an application.
    pub fn class_of(&self, app: &str) -> Option<MemoryClass> {
        self.class_of.get(app).copied()
    }

    /// An app's class averages in [`feature_row`]'s ratio order.
    fn class_ratios(&self, app: &str) -> Result<[f64; 3]> {
        let class = self
            .class_of(app)
            .ok_or_else(|| ColocError::UnknownApp(app.to_string()))?;
        let a = self
            .averages(class)
            .ok_or_else(|| ColocError::InsufficientData(format!("no measured apps in {class}")))?;
        Ok([a.memory_intensity, a.cm_ca, a.ca_ins])
    }

    /// Featurize a scenario with class-average cache behaviour: the
    /// target's baseline time (and P-state) stay exact, read from `lab`'s
    /// baselines; every intensity and cache-ratio feature is its class
    /// average. The row is `features::feature_row`'s, as for [`Lab::featurize`].
    pub fn featurize(&self, lab: &Lab, scenario: &Scenario) -> Result<[f64; 8]> {
        let db = lab.baselines();
        feature_row(
            scenario,
            |app, p| db.time_at(app, p),
            |app| self.class_ratios(app),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::Feature;
    use coloc_machine::presets;

    fn lab() -> Lab {
        Lab::new(presets::xeon_e5649(), coloc_workloads::standard(), 42).unwrap()
    }

    #[test]
    fn averages_sit_inside_class_bands() {
        let lab = lab();
        let avg = ClassAverager::from_lab(&lab);
        for class in MemoryClass::ALL {
            let a = avg.averages(class).expect("every class has apps");
            let (lo, hi) = class.band();
            assert!(
                a.memory_intensity >= lo && a.memory_intensity < hi,
                "{class}: avg MI {:.3e} outside [{lo:.0e},{hi:.0e})",
                a.memory_intensity
            );
        }
    }

    #[test]
    fn class_featurization_keeps_exact_base_time() {
        let lab = lab();
        let avg = ClassAverager::from_lab(&lab);
        let sc = Scenario::homogeneous("canneal", "cg", 4, 1);
        let exact = lab.featurize(&sc).unwrap();
        let approx = avg.featurize(&lab, &sc).unwrap();
        assert_eq!(
            exact[Feature::BaseExTime.index()],
            approx[Feature::BaseExTime.index()]
        );
        assert_eq!(
            exact[Feature::NumCoApp.index()],
            approx[Feature::NumCoApp.index()]
        );
        // Cache features differ (canneal ≠ its class mean in general)…
        assert_ne!(
            exact[Feature::TargetMem.index()],
            approx[Feature::TargetMem.index()]
        );
        // …but stay the right order of magnitude.
        let ratio = approx[Feature::CoAppMem.index()] / exact[Feature::CoAppMem.index()];
        assert!(ratio > 0.2 && ratio < 5.0, "ratio {ratio}");
    }

    #[test]
    fn unknown_app_is_an_error() {
        let lab = lab();
        let avg = ClassAverager::from_lab(&lab);
        let sc = Scenario::homogeneous("doom", "cg", 1, 0);
        assert!(avg.featurize(&lab, &sc).is_err());
    }
}
