//! Heterogeneous co-runner feature encoding.
//!
//! The paper's eight features (Table I) describe co-runners only through
//! three *sums* over the mix (`coAppMem`, `coAppCM/CA`, `coAppCA/INS`), a
//! representation that cannot distinguish two different mixes with equal
//! sums. [`MixFeatures`] is the canonical intermediate encoding that can:
//! it keeps one baseline-derived feature *vector per co-runner group*
//! (Alves & Drummond's quantitative cross-application interference view)
//! and *lowers* to the paper's summed form on demand.
//!
//! The lowering is the single definition of co-runner summation in the
//! workspace — [`crate::Lab::featurize`] routes through it — and the
//! homogeneous case is **bit-identical** to the historical inline sums:
//! groups are accumulated in [`crate::Scenario::co_groups`] order with the
//! same `count as f64 * baseline` multiply-add sequence, so every float
//! rounding step is preserved. The conformance suite gates this (the
//! differential sweep and the `mixed-pair-order-invariance` law both
//! re-check the sums against an independent re-implementation).
//!
//! The encoding is digest-stable: [`MixFeatures::digest`] writes a
//! versioned canonical byte stream through [`IrWriter`], pinned by the
//! `digest_stability` fixture alongside the `ScenarioIr` lines, with the
//! same append-only discipline.

use crate::baseline::BaselineDb;
use crate::features::Feature;
use crate::scenario::Scenario;
use crate::{ColocError, Result};
use coloc_machine::IrWriter;

/// Baseline-derived feature vector of one co-runner group: the three
/// per-app quantities the paper's co-runner sums are built from, kept
/// per-group instead of pre-summed.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CoVector {
    /// Suite application name.
    pub app: String,
    /// Instances of this app in the mix.
    pub count: usize,
    /// Solo memory intensity (LLC misses / instruction).
    pub memory_intensity: f64,
    /// Solo LLC miss ratio (CM/CA).
    pub cm_ca: f64,
    /// Solo LLC accesses per instruction (CA/INS).
    pub ca_ins: f64,
}

/// Per-co-runner feature vectors for one scenario: the heterogeneous-mix
/// generalization of the paper's feature row, lowered to the classic
/// eight-feature array by [`MixFeatures::lower`].
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MixFeatures {
    /// Target application name.
    pub target: String,
    /// P-state index the scenario runs at.
    pub pstate: usize,
    /// Target solo execution time at `pstate`, seconds (`baseExTime`).
    pub base_time_s: f64,
    /// Target solo memory intensity (`targetMem`).
    pub target_mem: f64,
    /// Target solo CM/CA (`targetCM/CA`).
    pub target_cm_ca: f64,
    /// Target solo CA/INS (`targetCA/INS`).
    pub target_ca_ins: f64,
    /// One feature vector per co-runner group, in scenario listing order
    /// (zero-count groups dropped, as in [`Scenario::co_groups`]).
    pub co: Vec<CoVector>,
}

/// Encoding schema version, bumped on any change to the canonical byte
/// stream [`MixFeatures::digest`] writes. Version 1: the layout below.
pub const MIX_ENCODING_VERSION: u8 = 1;

impl MixFeatures {
    /// Build the mix encoding for `scenario` from baseline measurements
    /// only — the same inputs (and the same failure modes, in the same
    /// order) as the historical `Lab::featurize`, plus one up front: a
    /// scenario whose core count (target plus co-runners) overflows
    /// `usize` is [`ColocError::InvalidSpec`], never a wrapped sum.
    pub fn from_baselines(db: &BaselineDb, scenario: &Scenario) -> Result<MixFeatures> {
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
        let target = db
            .get(&scenario.target)
            .ok_or_else(|| ColocError::UnknownApp(scenario.target.clone()))?;
        let base_time_s = target
            .time_at(scenario.pstate)
            .ok_or(ColocError::Machine(format!(
                "no baseline at P-state {}",
                scenario.pstate
            )))?;
        let mut co = Vec::new();
        for (name, count) in scenario.co_groups() {
            let b = db
                .get(name)
                .ok_or_else(|| ColocError::UnknownApp(name.to_string()))?;
            co.push(CoVector {
                app: name.to_string(),
                count,
                memory_intensity: b.memory_intensity,
                cm_ca: b.cm_ca,
                ca_ins: b.ca_ins,
            });
        }
        Ok(MixFeatures {
            target: scenario.target.clone(),
            pstate: scenario.pstate,
            base_time_s,
            target_mem: target.memory_intensity,
            target_cm_ca: target.cm_ca,
            target_ca_ins: target.ca_ins,
            co,
        })
    }

    /// Total co-located instances (integer sum, like
    /// [`Scenario::num_co_located`]).
    pub fn num_co_located(&self) -> usize {
        self.co.iter().map(|g| g.count).sum()
    }

    /// Lower the per-group vectors to the paper's eight-feature array.
    ///
    /// The three co-runner sums accumulate in group listing order with a
    /// `0.0`-initialized `count as f64 * value` multiply-add per group —
    /// the exact float operation sequence the inline featurizer always
    /// used, so the homogeneous case is bit-identical by construction.
    pub fn lower(&self) -> [f64; 8] {
        let mut co_mem = 0.0;
        let mut co_cm_ca = 0.0;
        let mut co_ca_ins = 0.0;
        for g in &self.co {
            co_mem += g.count as f64 * g.memory_intensity;
            co_cm_ca += g.count as f64 * g.cm_ca;
            co_ca_ins += g.count as f64 * g.ca_ins;
        }
        let mut out = [0.0; 8];
        out[Feature::BaseExTime.index()] = self.base_time_s;
        out[Feature::NumCoApp.index()] = self.num_co_located() as f64;
        out[Feature::CoAppMem.index()] = co_mem;
        out[Feature::TargetMem.index()] = self.target_mem;
        out[Feature::CoAppCmCa.index()] = co_cm_ca;
        out[Feature::CoAppCaIns.index()] = co_ca_ins;
        out[Feature::TargetCmCa.index()] = self.target_cm_ca;
        out[Feature::TargetCaIns.index()] = self.target_ca_ins;
        out
    }

    /// 128-bit digest of the canonical encoding: version byte, target
    /// identity and baselines, then each co vector length-prefixed in
    /// order. Pinned by the digest-stability fixture; extend append-only.
    pub fn digest(&self) -> u128 {
        let mut d = IrWriter::new();
        d.byte(MIX_ENCODING_VERSION);
        d.str(&self.target);
        d.usize(self.pstate);
        d.f64(self.base_time_s);
        d.f64(self.target_mem);
        d.f64(self.target_cm_ca);
        d.f64(self.target_ca_ins);
        d.usize(self.co.len());
        for g in &self.co {
            d.str(&g.app);
            d.usize(g.count);
            d.f64(g.memory_intensity);
            d.f64(g.cm_ca);
            d.f64(g.ca_ins);
        }
        d.finish()
    }

    /// 64-bit fold of [`MixFeatures::digest`] (same fold as
    /// `ScenarioIr::digest64`).
    pub fn digest64(&self) -> u64 {
        let d = self.digest();
        (d >> 64) as u64 ^ d as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::AppBaseline;

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

    fn legacy_sums(db: &BaselineDb, sc: &Scenario) -> [f64; 8] {
        // Independent re-implementation of the historical inline sums.
        let target = db.get(&sc.target).unwrap();
        let mut co_mem = 0.0;
        let mut co_cm_ca = 0.0;
        let mut co_ca_ins = 0.0;
        for (name, count) in sc.co_groups() {
            let b = db.get(name).unwrap();
            co_mem += count as f64 * b.memory_intensity;
            co_cm_ca += count as f64 * b.cm_ca;
            co_ca_ins += count as f64 * b.ca_ins;
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
    fn homogeneous_lowering_matches_legacy_sums_bitwise() {
        let db = db();
        for count in 0..6 {
            let sc = Scenario::homogeneous("t", "a", count, 1);
            let mix = MixFeatures::from_baselines(&db, &sc).unwrap();
            assert_eq!(bits(&mix.lower()), bits(&legacy_sums(&db, &sc)));
        }
    }

    #[test]
    fn heterogeneous_lowering_matches_legacy_sums_bitwise() {
        let db = db();
        let sc = Scenario {
            target: "t".into(),
            co_located: vec![("a".into(), 2), ("b".into(), 0), ("b".into(), 3)],
            pstate: 0,
        };
        let mix = MixFeatures::from_baselines(&db, &sc).unwrap();
        // Zero-count groups are dropped from the encoding, like co_groups.
        assert_eq!(mix.co.len(), 2);
        assert_eq!(bits(&mix.lower()), bits(&legacy_sums(&db, &sc)));
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
        let f = MixFeatures::from_baselines(&db, &fwd).unwrap().lower();
        let r = MixFeatures::from_baselines(&db, &rev).unwrap().lower();
        assert_eq!(bits(&f), bits(&r));
    }

    #[test]
    fn unknown_apps_fail_in_featurize_order() {
        let db = db();
        match MixFeatures::from_baselines(&db, &Scenario::solo("nope", 0)) {
            Err(ColocError::UnknownApp(n)) => assert_eq!(n, "nope"),
            other => panic!("expected UnknownApp, got {other:?}"),
        }
        match MixFeatures::from_baselines(&db, &Scenario::homogeneous("t", "ghost", 2, 0)) {
            Err(ColocError::UnknownApp(n)) => assert_eq!(n, "ghost"),
            other => panic!("expected UnknownApp, got {other:?}"),
        }
    }

    #[test]
    fn digest_separates_mixes_with_equal_sums() {
        // Two different mixes engineered to have identical feature sums
        // still get distinct canonical digests — the whole point of
        // keeping per-group vectors.
        let db = db();
        let one = MixFeatures::from_baselines(
            &db,
            &Scenario {
                target: "t".into(),
                co_located: vec![("a".into(), 2)],
                pstate: 0,
            },
        )
        .unwrap();
        let two = MixFeatures::from_baselines(
            &db,
            &Scenario {
                target: "t".into(),
                co_located: vec![("a".into(), 1), ("a".into(), 1)],
                pstate: 0,
            },
        )
        .unwrap();
        assert_eq!(
            bits(&one.lower())[Feature::CoAppMem.index()],
            bits(&two.lower())[Feature::CoAppMem.index()]
        );
        assert_ne!(one.digest(), two.digest());
        assert_eq!(
            one.digest64(),
            ((one.digest() >> 64) as u64) ^ (one.digest() as u64)
        );
    }

    #[test]
    fn overflowing_counts_are_a_typed_error() {
        let half = 1usize << (usize::BITS - 1);
        for co in [vec![("a", usize::MAX)], vec![("a", half), ("b", half)]] {
            let sc = Scenario {
                target: "t".into(),
                co_located: co.into_iter().map(|(n, c)| (n.to_string(), c)).collect(),
                pstate: 0,
            };
            assert!(matches!(
                MixFeatures::from_baselines(&db(), &sc),
                Err(ColocError::InvalidSpec(_))
            ));
        }
        // The largest count that still fits is encoded as given.
        let sc = Scenario::homogeneous("t", "a", usize::MAX - 1, 0);
        let mix = MixFeatures::from_baselines(&db(), &sc).unwrap();
        assert_eq!(mix.num_co_located(), usize::MAX - 1);
    }
}
