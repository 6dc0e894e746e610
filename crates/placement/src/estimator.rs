//! Per-spec slowdown estimator: a trained predictor with interned,
//! ratio-normalized evaluations.
//!
//! Policies query predicted slowdowns millions of times; distinct
//! `(contents, target)` pairs number only in the thousands. Every
//! evaluation memoizes on the socket's [`ContentsKey`], and raw model
//! outputs are normalized by the model's own solo prediction —
//! `sd(a | C) = predict(a | C) / predict(a | ∅)`, clamped at 1.0 — so a
//! solo job's predicted slowdown is *exactly* 1.0 (bitwise), interference
//! can only hurt, and an empty socket's greedy delta is exactly 1.0.
//! Both properties make the conformance placement laws exact relations
//! instead of tolerance checks.

use crate::fleet::{key_add, key_co_groups, key_count, ContentsKey, MAX_APPS};
use crate::Result;
use coloc_model::{
    FeatureSet, Lab, ModelArtifact, ModelKind, ModelRegistry, Scenario, TrainRequest, TrainingPlan,
};
use std::collections::HashMap;
use std::sync::Arc;

/// A trained estimator for one machine spec.
pub struct SpecEstimator {
    artifact: Arc<ModelArtifact>,
    pstate: usize,
    app_names: Vec<String>,
    /// Raw (un-normalized) solo prediction per app.
    solo: Vec<f64>,
    /// `(others key, target app)` → normalized slowdown.
    sd_memo: HashMap<(ContentsKey, u8), f64>,
    /// contents key → total predicted socket cost.
    cost_memo: HashMap<ContentsKey, f64>,
}

impl SpecEstimator {
    /// The registry request this estimator trains: a linear full-feature
    /// model over a small deterministic plan — every suite app as target,
    /// the paper's four class representatives as co-runners, three
    /// occupancy levels. Exposed so callers can address the same artifact
    /// by digest.
    pub fn request(lab: &Lab, pstate: usize) -> TrainRequest {
        let cores = lab.machine().spec().cores;
        let mut counts = vec![1usize, (cores / 2).max(1), cores - 1];
        counts.dedup();
        counts.retain(|&c| c >= 1);
        TrainRequest {
            kind: ModelKind::Linear,
            set: FeatureSet::F,
            plan: TrainingPlan {
                pstates: vec![pstate],
                targets: lab.suite().iter().map(|b| b.name.to_string()).collect(),
                co_runners: coloc_workloads::training_co_runners()
                    .iter()
                    .map(|b| b.name.to_string())
                    .collect(),
                counts,
            },
            seed: 1,
            policy: None,
        }
    }

    /// Resolve this spec's estimator model through `registry` (memoized:
    /// a fleet simulation training many sockets on the same spec shares
    /// one artifact). The linear fit is closed-form, so training is
    /// deterministic and cheap; the sharded run cache memoizes the plan's
    /// scenarios.
    pub fn train_with(registry: &ModelRegistry, lab: &Lab, pstate: usize) -> Result<SpecEstimator> {
        let artifact = registry.resolve(lab, &Self::request(lab, pstate))?;
        Self::from_artifact(lab, artifact, pstate)
    }

    /// An estimator over a given artifact — a trained or loaded model of
    /// any kind and feature set — evaluated on `lab`'s features at
    /// `pstate`.
    pub fn from_artifact(
        lab: &Lab,
        artifact: Arc<ModelArtifact>,
        pstate: usize,
    ) -> Result<SpecEstimator> {
        let app_names: Vec<String> = lab.suite().iter().map(|b| b.name.to_string()).collect();
        assert!(app_names.len() <= MAX_APPS, "suite exceeds key packing");
        let solo = app_names
            .iter()
            .map(|name| {
                let f = lab.featurize(&Scenario::solo(name, pstate))?;
                Ok(artifact.predictor.predict_slowdown(&f))
            })
            .collect::<Result<Vec<f64>>>()?;
        Ok(SpecEstimator {
            artifact,
            pstate,
            app_names,
            solo,
            sd_memo: HashMap::new(),
            cost_memo: HashMap::new(),
        })
    }

    /// [`SpecEstimator::train_with`] on a throwaway registry, for callers
    /// that need exactly one estimator.
    pub fn train(lab: &Lab, pstate: usize) -> Result<SpecEstimator> {
        Self::train_with(&ModelRegistry::new(), lab, pstate)
    }

    /// The digest-addressed artifact backing this estimator.
    pub fn artifact(&self) -> &Arc<ModelArtifact> {
        &self.artifact
    }

    /// Normalized predicted slowdown of `app` co-located with `others`
    /// (a contents key NOT including the app itself). Exactly 1.0 when
    /// `others` is empty; never below 1.0.
    pub fn slowdown(&mut self, lab: &Lab, app: u8, others: ContentsKey) -> Result<f64> {
        if others == 0 {
            return Ok(1.0);
        }
        if let Some(&sd) = self.sd_memo.get(&(others, app)) {
            return Ok(sd);
        }
        let sc = Scenario {
            target: self.app_names[app as usize].clone(),
            co_located: key_co_groups(others, &self.app_names),
            pstate: self.pstate,
        };
        let f = lab.featurize(&sc)?;
        let sd = (self.artifact.predictor.predict_slowdown(&f) / self.solo[app as usize]).max(1.0);
        self.sd_memo.insert((others, app), sd);
        Ok(sd)
    }

    /// Total predicted slowdown of every job on a socket with contents
    /// `key`: `Σ count(a) · sd(a | key − a)`. Zero for an empty socket.
    pub fn socket_cost(&mut self, lab: &Lab, key: ContentsKey) -> Result<f64> {
        if key == 0 {
            return Ok(0.0);
        }
        if let Some(&c) = self.cost_memo.get(&key) {
            return Ok(c);
        }
        let mut cost = 0.0;
        for a in 0..MAX_APPS as u8 {
            let n = key_count(key, a);
            if n == 0 {
                continue;
            }
            let others = crate::fleet::key_remove(key, a);
            cost += n as f64 * self.slowdown(lab, a, others)?;
        }
        self.cost_memo.insert(key, cost);
        Ok(cost)
    }

    /// Marginal predicted cost of adding `app` to a socket with contents
    /// `key`: `cost(key + app) − cost(key)`. Exactly 1.0 for an empty
    /// socket; at least 1.0 everywhere (slowdowns are clamped).
    pub fn delta(&mut self, lab: &Lab, app: u8, key: ContentsKey) -> Result<f64> {
        if key == 0 {
            return Ok(1.0);
        }
        let with = self.socket_cost(lab, key_add(key, app))?;
        let without = self.socket_cost(lab, key)?;
        Ok(with - without)
    }

    /// Number of distinct `(contents, target)` predictor evaluations
    /// performed so far.
    pub fn distinct_evaluations(&self) -> usize {
        self.sd_memo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::key_add;
    use coloc_machine::presets;

    fn lab() -> Lab {
        Lab::new(presets::xeon_e5649(), coloc_workloads::standard(), 17).unwrap()
    }

    #[test]
    fn solo_slowdown_is_exactly_one() {
        let lab = lab();
        let mut est = SpecEstimator::train(&lab, 0).unwrap();
        for app in 0..11u8 {
            assert_eq!(
                est.slowdown(&lab, app, 0).unwrap().to_bits(),
                1f64.to_bits()
            );
        }
    }

    #[test]
    fn interference_never_predicts_below_one() {
        let lab = lab();
        let mut est = SpecEstimator::train(&lab, 0).unwrap();
        // cg index in suite order.
        let cg = lab.suite().iter().position(|b| b.name == "cg").unwrap() as u8;
        let ep = lab.suite().iter().position(|b| b.name == "ep").unwrap() as u8;
        let mut crowd = 0u64;
        for _ in 0..4 {
            crowd = key_add(crowd, cg);
        }
        for target in [cg, ep] {
            let sd = est.slowdown(&lab, target, crowd).unwrap();
            assert!(sd >= 1.0, "target {target}: {sd}");
        }
        // A memory-bound crowd hurts strictly, and more crowd hurts more.
        let light = key_add(0, cg);
        let sd_light = est.slowdown(&lab, cg, light).unwrap();
        let sd_heavy = est.slowdown(&lab, cg, crowd).unwrap();
        assert!(sd_heavy > 1.0, "4×cg crowd must bite: {sd_heavy}");
        assert!(
            sd_heavy > sd_light,
            "crowd monotonicity: {sd_light} vs {sd_heavy}"
        );
    }

    #[test]
    fn empty_socket_delta_is_exactly_one() {
        let lab = lab();
        let mut est = SpecEstimator::train(&lab, 0).unwrap();
        for app in 0..11u8 {
            assert_eq!(est.delta(&lab, app, 0).unwrap().to_bits(), 1f64.to_bits());
        }
    }

    #[test]
    fn delta_decomposes_socket_cost_and_memoizes() {
        let lab = lab();
        let mut est = SpecEstimator::train(&lab, 0).unwrap();
        let cg = lab.suite().iter().position(|b| b.name == "cg").unwrap() as u8;
        let ep = lab.suite().iter().position(|b| b.name == "ep").unwrap() as u8;
        let key = key_add(key_add(0, cg), ep);
        let delta = est.delta(&lab, cg, key).unwrap();
        let direct =
            est.socket_cost(&lab, key_add(key, cg)).unwrap() - est.socket_cost(&lab, key).unwrap();
        assert_eq!(delta.to_bits(), direct.to_bits());
        assert!(delta >= 1.0, "clamped slowdowns keep deltas >= 1: {delta}");
        let before = est.distinct_evaluations();
        est.delta(&lab, cg, key).unwrap();
        assert_eq!(est.distinct_evaluations(), before, "fully memoized");
    }
}
