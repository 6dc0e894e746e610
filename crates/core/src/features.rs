//! The eight model features (paper Table I), the one function that builds
//! them, and the six nested feature sets A–F (paper Table II).

use crate::scenario::Scenario;
use crate::{ColocError, Result};

/// One of the eight features the models may consume. All are computable
/// from *baseline* (solo) measurements plus the shape of the co-location —
/// the methodology's key economy: no measurement under co-location is ever
/// required to make a prediction (paper §I).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Feature {
    /// Baseline execution time of the target at the scenario's P-state.
    BaseExTime,
    /// Number of co-located applications.
    NumCoApp,
    /// Sum of co-located applications' baseline memory intensities.
    CoAppMem,
    /// Target's baseline memory intensity.
    TargetMem,
    /// Sum of co-apps' baseline LLC miss/access ratios (CM/CA).
    CoAppCmCa,
    /// Sum of co-apps' baseline LLC access/instruction ratios (CA/INS).
    CoAppCaIns,
    /// Target's baseline CM/CA.
    TargetCmCa,
    /// Target's baseline CA/INS.
    TargetCaIns,
}

impl Feature {
    /// All eight features, in canonical (Table I) order. This is also the
    /// column order of [`crate::Sample::features`].
    pub const ALL: [Feature; 8] = [
        Feature::BaseExTime,
        Feature::NumCoApp,
        Feature::CoAppMem,
        Feature::TargetMem,
        Feature::CoAppCmCa,
        Feature::CoAppCaIns,
        Feature::TargetCmCa,
        Feature::TargetCaIns,
    ];

    /// Canonical column index of this feature.
    pub fn index(&self) -> usize {
        Feature::ALL
            .iter()
            .position(|f| f == self)
            .expect("feature in ALL")
    }

    /// The paper's name for the feature (Table I, first column).
    pub fn paper_name(&self) -> &'static str {
        match self {
            Feature::BaseExTime => "baseExTime",
            Feature::NumCoApp => "numCoApp",
            Feature::CoAppMem => "coAppMem",
            Feature::TargetMem => "targetMem",
            Feature::CoAppCmCa => "coAppCM/CA",
            Feature::CoAppCaIns => "coAppCA/INS",
            Feature::TargetCmCa => "targetCM/CA",
            Feature::TargetCaIns => "targetCA/INS",
        }
    }

    /// The aspect of execution measured (Table I, second column).
    pub fn description(&self) -> &'static str {
        match self {
            Feature::BaseExTime => "baseline execution time of target application at all P-states",
            Feature::NumCoApp => "number of co-located applications",
            Feature::CoAppMem => "sum of co-application memory intensities",
            Feature::TargetMem => "target application memory intensity",
            Feature::CoAppCmCa => "sum of co-application last-level cache misses/cache accesses",
            Feature::CoAppCaIns => "sum of co-application last-level cache accesses/instructions",
            Feature::TargetCmCa => "target application last-level cache misses/cache accesses",
            Feature::TargetCaIns => "target application last-level cache accesses/instructions",
        }
    }
}

impl std::fmt::Display for Feature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.paper_name())
    }
}

/// Build the paper's eight-feature row (Table I) for `scenario` from solo
/// values alone. `base_time_s(target, pstate)` looks up the target's solo
/// time at the scenario's P-state; `ratios(app)` looks up an app's solo
/// memory intensity, CM/CA and CA/INS, in that order.
///
/// This is the one definition of the row: [`crate::Lab::featurize`] calls
/// it with the lab's baselines, [`crate::classavg::ClassAverager`] with
/// class averages. The three co-runner sums accumulate in
/// [`Scenario::co_groups`] order, one `count as f64 * value` step per group
/// from `0.0`, so a row's bits depend on the listing order only through
/// those additions.
///
/// Errors, in this order: a core count (target plus co-runners) that
/// overflows `usize` is [`ColocError::InvalidSpec`], never a wrapped sum;
/// then `base_time_s`'s error for the target, `ratios`' for the target,
/// and `ratios`' for each co-runner in listing order.
pub(crate) fn feature_row(
    scenario: &Scenario,
    base_time_s: impl FnOnce(&str, usize) -> Result<f64>,
    mut ratios: impl FnMut(&str) -> Result<[f64; 3]>,
) -> Result<[f64; 8]> {
    if scenario
        .co_located
        .iter()
        .try_fold(1usize, |n, &(_, c)| n.checked_add(c))
        .is_none()
    {
        return Err(ColocError::InvalidSpec(format!(
            "{}: co-runner counts overflow the core count",
            scenario.target
        )));
    }
    let base_time_s = base_time_s(&scenario.target, scenario.pstate)?;
    let [target_mem, target_cm_ca, target_ca_ins] = ratios(&scenario.target)?;
    let mut co_mem = 0.0;
    let mut co_cm_ca = 0.0;
    let mut co_ca_ins = 0.0;
    for (name, count) in scenario.co_groups() {
        let [mem, cm_ca, ca_ins] = ratios(name)?;
        co_mem += count as f64 * mem;
        co_cm_ca += count as f64 * cm_ca;
        co_ca_ins += count as f64 * ca_ins;
    }
    let mut row = [0.0; 8];
    row[Feature::BaseExTime.index()] = base_time_s;
    row[Feature::NumCoApp.index()] = scenario.num_co_located() as f64;
    row[Feature::CoAppMem.index()] = co_mem;
    row[Feature::TargetMem.index()] = target_mem;
    row[Feature::CoAppCmCa.index()] = co_cm_ca;
    row[Feature::CoAppCaIns.index()] = co_ca_ins;
    row[Feature::TargetCmCa.index()] = target_cm_ca;
    row[Feature::TargetCaIns.index()] = target_ca_ins;
    Ok(row)
}

/// The six nested feature sets (paper Table II). Each set adds information
/// a resource manager might progressively obtain about the system: A knows
/// only the target's solo time; F knows the full cache behaviour of target
/// and co-runners.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum FeatureSet {
    /// `baseExTime` only — the baseline model.
    A,
    /// A + `numCoApp`.
    B,
    /// B + `coAppMem`.
    C,
    /// C + `targetMem`.
    D,
    /// D + `coAppCM/CA`, `coAppCA/INS`.
    E,
    /// E + `targetCM/CA`, `targetCA/INS` — all eight features.
    F,
}

impl FeatureSet {
    /// All six sets, in increasing information order.
    pub const ALL: [FeatureSet; 6] = [
        FeatureSet::A,
        FeatureSet::B,
        FeatureSet::C,
        FeatureSet::D,
        FeatureSet::E,
        FeatureSet::F,
    ];

    /// The features in this set, in canonical order.
    pub fn features(&self) -> &'static [Feature] {
        use Feature::*;
        match self {
            FeatureSet::A => &[BaseExTime],
            FeatureSet::B => &[BaseExTime, NumCoApp],
            FeatureSet::C => &[BaseExTime, NumCoApp, CoAppMem],
            FeatureSet::D => &[BaseExTime, NumCoApp, CoAppMem, TargetMem],
            FeatureSet::E => &[
                BaseExTime, NumCoApp, CoAppMem, TargetMem, CoAppCmCa, CoAppCaIns,
            ],
            FeatureSet::F => &[
                BaseExTime,
                NumCoApp,
                CoAppMem,
                TargetMem,
                CoAppCmCa,
                CoAppCaIns,
                TargetCmCa,
                TargetCaIns,
            ],
        }
    }

    /// Canonical column indices of this set's features.
    pub fn indices(&self) -> Vec<usize> {
        self.features().iter().map(|f| f.index()).collect()
    }

    /// Number of features in the set.
    pub fn arity(&self) -> usize {
        self.features().len()
    }

    /// Project a full 8-feature vector down to this set.
    pub fn project(&self, full: &[f64; 8]) -> Vec<f64> {
        self.features().iter().map(|f| full[f.index()]).collect()
    }

    /// Single-letter label ("A"…"F").
    pub fn label(&self) -> &'static str {
        match self {
            FeatureSet::A => "A",
            FeatureSet::B => "B",
            FeatureSet::C => "C",
            FeatureSet::D => "D",
            FeatureSet::E => "E",
            FeatureSet::F => "F",
        }
    }
}

impl std::fmt::Display for FeatureSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{AppBaseline, BaselineDb};

    fn db() -> BaselineDb {
        let mut db = BaselineDb::new();
        for (name, t, mem, cm, ca) in [
            ("t", 100.0, 1e-3, 0.1, 0.02),
            ("a", 90.0, 1.8e-2, 0.5, 0.036),
            ("b", 80.0, 1.1e-5, 0.02, 0.004),
        ] {
            db.insert(AppBaseline {
                name: name.into(),
                exec_time_s: vec![t, t * 1.2],
                memory_intensity: mem,
                cm_ca: cm,
                ca_ins: ca,
            });
        }
        db
    }

    fn row(db: &BaselineDb, sc: &Scenario) -> Result<[f64; 8]> {
        feature_row(sc, |app, p| db.time_at(app, p), |app| db.ratios(app))
    }

    fn legacy_sums(db: &BaselineDb, sc: &Scenario) -> [f64; 8] {
        // Independent re-implementation of the historical inline sums
        // (IEEE multiplication commutes, so the operand order is free).
        let target = db.get(&sc.target).unwrap();
        let mut co_mem = 0.0;
        let mut co_cm_ca = 0.0;
        let mut co_ca_ins = 0.0;
        for (name, count) in sc.co_groups() {
            let b = db.get(name).unwrap();
            let n = count as f64;
            co_mem += b.memory_intensity * n;
            co_cm_ca += b.cm_ca * n;
            co_ca_ins += b.ca_ins * n;
        }
        let mut out = [0.0; 8];
        out[Feature::BaseExTime.index()] = target.time_at(sc.pstate).unwrap();
        out[Feature::NumCoApp.index()] = sc.num_co_located() as f64;
        out[Feature::CoAppMem.index()] = co_mem;
        out[Feature::TargetMem.index()] = target.memory_intensity;
        out[Feature::CoAppCmCa.index()] = co_cm_ca;
        out[Feature::CoAppCaIns.index()] = co_ca_ins;
        out[Feature::TargetCmCa.index()] = target.cm_ca;
        out[Feature::TargetCaIns.index()] = target.ca_ins;
        out
    }

    fn bits(f: &[f64; 8]) -> [u64; 8] {
        std::array::from_fn(|i| f[i].to_bits())
    }

    #[test]
    fn homogeneous_row_matches_legacy_sums_bitwise() {
        let db = db();
        for count in 0..6 {
            let sc = Scenario::homogeneous("t", "a", count, 1);
            assert_eq!(bits(&row(&db, &sc).unwrap()), bits(&legacy_sums(&db, &sc)));
        }
    }

    #[test]
    fn heterogeneous_row_matches_legacy_sums_bitwise() {
        // A zero-count group adds nothing, as in `co_groups`.
        let db = db();
        let sc = Scenario {
            target: "t".into(),
            co_located: vec![("a".into(), 2), ("b".into(), 0), ("b".into(), 3)],
            pstate: 0,
        };
        let f = row(&db, &sc).unwrap();
        assert_eq!(bits(&f), bits(&legacy_sums(&db, &sc)));
        assert_eq!(f[Feature::NumCoApp.index()], 5.0);
    }

    #[test]
    fn two_group_mix_order_is_bitwise_commutative() {
        // A pair mix sums exactly two terms per feature; IEEE addition of
        // two values is commutative, so swapping the groups is identity.
        let db = db();
        let fwd = Scenario {
            target: "t".into(),
            co_located: vec![("a".into(), 1), ("b".into(), 1)],
            pstate: 0,
        };
        let rev = Scenario {
            target: "t".into(),
            co_located: vec![("b".into(), 1), ("a".into(), 1)],
            pstate: 0,
        };
        assert_eq!(
            bits(&row(&db, &fwd).unwrap()),
            bits(&row(&db, &rev).unwrap())
        );
    }

    #[test]
    fn unknown_apps_fail_in_featurize_order() {
        let db = db();
        match row(&db, &Scenario::solo("nope", 0)) {
            Err(ColocError::UnknownApp(n)) => assert_eq!(n, "nope"),
            other => panic!("expected UnknownApp, got {other:?}"),
        }
        match row(&db, &Scenario::homogeneous("t", "ghost", 2, 0)) {
            Err(ColocError::UnknownApp(n)) => assert_eq!(n, "ghost"),
            other => panic!("expected UnknownApp, got {other:?}"),
        }
        // A missing P-state comes before an unknown co-runner…
        match row(&db, &Scenario::homogeneous("t", "ghost", 2, 5)) {
            Err(ColocError::Machine(m)) => assert_eq!(m, "no baseline at P-state 5"),
            other => panic!("expected a machine error, got {other:?}"),
        }
        // …and co-runners fail in listing order.
        let sc = Scenario {
            target: "t".into(),
            co_located: vec![("a".into(), 1), ("ghost".into(), 2), ("spook".into(), 1)],
            pstate: 0,
        };
        match row(&db, &sc) {
            Err(ColocError::UnknownApp(n)) => assert_eq!(n, "ghost"),
            other => panic!("expected UnknownApp, got {other:?}"),
        }
    }

    #[test]
    fn overflowing_counts_are_a_typed_error() {
        // Checked before any lookup: the target here is unknown too.
        let half = 1usize << (usize::BITS - 1);
        for co in [vec![("a", usize::MAX)], vec![("a", half), ("b", half)]] {
            let sc = Scenario {
                target: "nope".into(),
                co_located: co.into_iter().map(|(n, c)| (n.to_string(), c)).collect(),
                pstate: 0,
            };
            assert!(matches!(row(&db(), &sc), Err(ColocError::InvalidSpec(_))));
        }
        // The largest count that still fits is counted as given.
        let sc = Scenario::homogeneous("t", "a", usize::MAX - 1, 0);
        let f = row(&db(), &sc).unwrap();
        assert_eq!(f[Feature::NumCoApp.index()], (usize::MAX - 1) as f64);
    }

    #[test]
    fn canonical_order_is_stable() {
        for (i, f) in Feature::ALL.iter().enumerate() {
            assert_eq!(f.index(), i);
        }
    }

    #[test]
    fn sets_are_nested() {
        // Each set's features must be a strict superset of the previous.
        for w in FeatureSet::ALL.windows(2) {
            let prev = w[0].features();
            let next = w[1].features();
            assert!(next.len() > prev.len());
            for f in prev {
                assert!(next.contains(f), "{:?} missing {f:?}", w[1]);
            }
        }
    }

    #[test]
    fn arities_match_table2() {
        let arities: Vec<usize> = FeatureSet::ALL.iter().map(|s| s.arity()).collect();
        assert_eq!(arities, vec![1, 2, 3, 4, 6, 8]);
        assert_eq!(FeatureSet::F.features(), &Feature::ALL);
    }

    #[test]
    fn projection_selects_right_columns() {
        let full = [10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        assert_eq!(FeatureSet::A.project(&full), vec![10.0]);
        assert_eq!(FeatureSet::C.project(&full), vec![10.0, 1.0, 2.0]);
        assert_eq!(FeatureSet::F.project(&full).len(), 8);
    }

    #[test]
    fn paper_names_are_unique() {
        let mut names: Vec<_> = Feature::ALL.iter().map(|f| f.paper_name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
    }
}
