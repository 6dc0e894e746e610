//! The simulator-as-oracle: ground-truth slowdowns for final placements.
//!
//! Because workloads are simulated, the "deployed" outcome of a placement
//! is measurable exactly: run each socket's final contents through the
//! engine and compare every job's wall time to its solo wall time on the
//! same machine. Distinct `(contents, target)` pairs memoize in the
//! oracle's own map — independent of the lab's bounded run cache, so
//! eviction can never change a score — and cold batches fan out through
//! [`coloc_model::Lab::run_scenarios_batch`].
//!
//! Slowdowns are ratios of two measured times. A solo job's slowdown is
//! `measured(a|∅) / measured(a|∅)` — the *same* memoized number in
//! numerator and denominator — so it is exactly 1.0, noise or no noise.

use crate::fleet::{key_co_groups, ContentsKey};
use crate::Result;
use coloc_model::{Lab, Scenario};
use std::collections::HashMap;

/// Memoized ground-truth measurements for one machine spec.
pub struct SpecOracle {
    pstate: usize,
    app_names: Vec<String>,
    /// `(others key, target app)` → measured target wall time.
    time_memo: HashMap<(ContentsKey, u8), f64>,
    /// Engine-backed scenario evaluations (memo fills).
    evaluations: u64,
}

impl SpecOracle {
    /// An empty oracle for `lab`'s machine at `pstate`.
    pub fn new(lab: &Lab, pstate: usize) -> SpecOracle {
        SpecOracle {
            pstate,
            app_names: lab.suite().iter().map(|b| b.name.to_string()).collect(),
            time_memo: HashMap::new(),
            evaluations: 0,
        }
    }

    fn scenario(&self, app: u8, others: ContentsKey) -> Scenario {
        Scenario {
            target: self.app_names[app as usize].clone(),
            co_located: key_co_groups(others, &self.app_names),
            pstate: self.pstate,
        }
    }

    /// Pre-measure a batch of `(others, target)` wants through the lab's
    /// batched run path. Duplicates and already-memoized pairs are free.
    pub fn warm(&mut self, lab: &Lab, wants: &[(ContentsKey, u8)]) -> Result<()> {
        let mut cold: Vec<(ContentsKey, u8)> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for &(others, app) in wants {
            if !self.time_memo.contains_key(&(others, app)) && seen.insert((others, app)) {
                cold.push((others, app));
            }
        }
        if cold.is_empty() {
            return Ok(());
        }
        let scenarios: Vec<Scenario> = cold
            .iter()
            .map(|&(others, app)| self.scenario(app, others))
            .collect();
        let times = lab.run_scenarios_batch(&scenarios)?;
        for (&(others, app), t) in cold.iter().zip(times) {
            self.time_memo.insert((others, app), t);
            self.evaluations += 1;
        }
        Ok(())
    }

    /// Measured wall time of `app` co-located with `others`.
    pub fn time(&mut self, lab: &Lab, app: u8, others: ContentsKey) -> Result<f64> {
        if let Some(&t) = self.time_memo.get(&(others, app)) {
            return Ok(t);
        }
        let t = lab.run_scenario(&self.scenario(app, others))?;
        self.time_memo.insert((others, app), t);
        self.evaluations += 1;
        Ok(t)
    }

    /// Ground-truth slowdown of `app` co-located with `others`:
    /// `time(app | others) / time(app | ∅)`. Exactly 1.0 when `others`
    /// is empty.
    pub fn slowdown(&mut self, lab: &Lab, app: u8, others: ContentsKey) -> Result<f64> {
        let solo = self.time(lab, app, 0)?;
        let loaded = self.time(lab, app, others)?;
        Ok(loaded / solo)
    }

    /// Engine-backed evaluations so far (distinct memo entries).
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::key_add;
    use coloc_machine::presets;

    fn lab() -> Lab {
        Lab::new(presets::xeon_e5649(), coloc_workloads::standard(), 23).unwrap()
    }

    #[test]
    fn solo_slowdown_is_exactly_one() {
        let lab = lab();
        let mut oracle = SpecOracle::new(&lab, 0);
        for app in 0..11u8 {
            let sd = oracle.slowdown(&lab, app, 0).unwrap();
            assert_eq!(sd.to_bits(), 1f64.to_bits(), "app {app}");
        }
    }

    #[test]
    fn crowded_slowdown_exceeds_one_and_memoizes() {
        let lab = lab();
        let mut oracle = SpecOracle::new(&lab, 0);
        let cg = lab.suite().iter().position(|b| b.name == "cg").unwrap() as u8;
        let canneal = lab
            .suite()
            .iter()
            .position(|b| b.name == "canneal")
            .unwrap() as u8;
        let mut crowd = 0u64;
        for _ in 0..4 {
            crowd = key_add(crowd, cg);
        }
        let sd = oracle.slowdown(&lab, canneal, crowd).unwrap();
        assert!(sd > 1.02, "canneal under 4×cg: {sd}");
        let evals = oracle.evaluations();
        let again = oracle.slowdown(&lab, canneal, crowd).unwrap();
        assert_eq!(sd.to_bits(), again.to_bits());
        assert_eq!(oracle.evaluations(), evals, "memoized");
    }

    #[test]
    fn warm_matches_cold_and_dedups() {
        let lab_a = lab();
        let lab_b = lab();
        let cg = lab_a.suite().iter().position(|b| b.name == "cg").unwrap() as u8;
        let ep = lab_a.suite().iter().position(|b| b.name == "ep").unwrap() as u8;
        let crowd = key_add(key_add(0, cg), ep);

        let mut cold = SpecOracle::new(&lab_a, 0);
        let direct = cold.slowdown(&lab_a, cg, crowd).unwrap();

        let mut warmed = SpecOracle::new(&lab_b, 0);
        warmed
            .warm(&lab_b, &[(crowd, cg), (crowd, cg), (0, cg), (crowd, cg)])
            .unwrap();
        let evals = warmed.evaluations();
        assert_eq!(evals, 2, "dedup: crowd+solo only");
        let sd = warmed.slowdown(&lab_b, cg, crowd).unwrap();
        assert_eq!(sd.to_bits(), direct.to_bits());
        assert_eq!(warmed.evaluations(), evals, "warm covered everything");
    }
}
