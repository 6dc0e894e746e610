//! Full pairwise cross-interference matrix over the benchmark suite.
//!
//! The ROADMAP's "cross-interference matrix" item, and the empirical
//! check behind the paper's central claim: solo-baseline features carry
//! enough signal to predict slowdown under *mixed-class* co-runners, not
//! only the homogeneous sweeps the training plan contains. For every
//! ordered pair `(target, co)` of suite apps we measure the slowdown of
//! `target` when co-located with one copy of `co` and compare it with
//! the registry-resolved model's prediction — a full 11×11 grid from a
//! model that never saw most of these mixes during training.
//!
//! Two structural invariants are recorded alongside the numbers:
//!
//! - **Identical-pair counter symmetry**: in the `(a, 1×a)` cell both
//!   runner groups execute the same program from the same start state,
//!   so their hardware-counter blocks must be bit-identical. This is the
//!   conformance law `matrix-identical-pair-symmetry`.
//! - **Determinism**: every cell is produced through the lab's memoized
//!   run path, so the matrix is bit-identical at any thread count.

use crate::lab::Lab;
use crate::registry::ModelArtifact;
use crate::scenario::Scenario;
use crate::Result;

/// Aggregate error statistics of predicted vs measured pair times.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MatrixSummary {
    /// Mean percentage error of predicted pair execution time, in percent
    /// (paper's MPE convention).
    pub mpe_pct: f64,
    /// RMS error of predicted pair time, normalized by the mean measured
    /// pair time, in percent.
    pub nrmse_pct: f64,
    /// Worst absolute percentage error over all pair cells.
    pub max_abs_pct_err: f64,
    /// True when every identical-app pair had bit-identical per-group
    /// counter blocks.
    pub identical_pairs_symmetric: bool,
}

/// The measured + predicted pairwise interference matrix. Row `i`,
/// column `j` describes target `apps[i]` co-located with one copy of
/// `apps[j]`.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CrossMatrix {
    /// Machine-spec name the matrix was measured on.
    pub machine: String,
    /// P-state of every run.
    pub pstate: usize,
    /// Digest (hex) of the model artifact whose predictions fill
    /// `predicted_slowdown`.
    pub model_digest: String,
    /// Suite apps, in suite order; indexes both matrix dimensions.
    pub apps: Vec<String>,
    /// Measured solo wall time per app (the slowdown denominators).
    pub solo_time_s: Vec<f64>,
    /// Measured slowdown: `wall(i | 1×j) / wall(i | ∅)`.
    pub measured_slowdown: Vec<Vec<f64>>,
    /// Model-predicted slowdown, normalized by the model's own solo
    /// prediction so a perfect model and the measured matrix agree.
    pub predicted_slowdown: Vec<Vec<f64>>,
    /// Per-app: were the two counter blocks of the `(a, 1×a)` run
    /// bit-identical?
    pub identical_pair_counter_symmetry: Vec<bool>,
    /// Aggregate prediction error.
    pub summary: MatrixSummary,
}

/// Bit-equality of the interference-relevant counter fields of two
/// per-group counter blocks. `completed_runs` is deliberately excluded:
/// the target group is the completion criterion while co-runner groups
/// restart, so run *counts* may legitimately differ even when the two
/// groups did bit-identical work.
pub fn counter_blocks_symmetric(
    a: &coloc_machine::CounterBlock,
    b: &coloc_machine::CounterBlock,
) -> bool {
    a.instructions.to_bits() == b.instructions.to_bits()
        && a.cycles.to_bits() == b.cycles.to_bits()
        && a.llc_accesses.to_bits() == b.llc_accesses.to_bits()
        && a.llc_misses.to_bits() == b.llc_misses.to_bits()
}

impl CrossMatrix {
    /// Measure the full pairwise matrix on `lab` at `pstate` and fill the
    /// predicted side from `artifact`'s predictor. Runs `n` solos plus
    /// `n²` pairs through the lab's parallel sweep path (memoized,
    /// bit-identical at any thread count).
    pub fn compute(lab: &Lab, artifact: &ModelArtifact, pstate: usize) -> Result<CrossMatrix> {
        let apps: Vec<String> = lab.suite().iter().map(|b| b.name.to_string()).collect();
        let n = apps.len();

        // One scenario list — solos first, then pairs row-major — so the
        // whole grid fans out across the lab's worker threads at once.
        let mut scenarios = Vec::with_capacity(n + n * n);
        for a in &apps {
            scenarios.push(Scenario::solo(a, pstate));
        }
        for target in &apps {
            for co in &apps {
                scenarios.push(Scenario {
                    target: target.clone(),
                    co_located: vec![(co.clone(), 1)],
                    pstate,
                });
            }
        }
        let samples = lab.collect_scenarios(&scenarios)?;
        let (solos, pairs) = samples.split_at(n);

        let solo_time_s: Vec<f64> = solos.iter().map(|s| s.actual_time_s).collect();
        let solo_pred: Vec<f64> = solos
            .iter()
            .map(|s| artifact.predictor.predict(&s.features))
            .collect();

        let mut measured = vec![vec![0.0; n]; n];
        let mut predicted = vec![vec![0.0; n]; n];
        let mut abs_err_sum = 0.0;
        let mut sq_err_sum = 0.0;
        let mut time_sum = 0.0;
        let mut max_abs = 0.0f64;
        for i in 0..n {
            for j in 0..n {
                let s = &pairs[i * n + j];
                let pred_time = artifact.predictor.predict(&s.features);
                measured[i][j] = s.actual_time_s / solo_time_s[i];
                predicted[i][j] = pred_time / solo_pred[i];
                let pct = (pred_time - s.actual_time_s) / s.actual_time_s * 100.0;
                abs_err_sum += pct.abs();
                sq_err_sum += (pred_time - s.actual_time_s) * (pred_time - s.actual_time_s);
                time_sum += s.actual_time_s;
                max_abs = max_abs.max(pct.abs());
            }
        }
        let cells = (n * n) as f64;
        let mean_time = time_sum / cells;
        let summary_mpe = abs_err_sum / cells;
        let nrmse = (sq_err_sum / cells).sqrt() / mean_time * 100.0;

        // Identical-app pairs: both groups run the same program from the
        // same start state, so their counter blocks must agree bitwise.
        let mut symmetry = Vec::with_capacity(n);
        for a in &apps {
            let outcome = lab.run_outcome(&Scenario {
                target: a.clone(),
                co_located: vec![(a.clone(), 1)],
                pstate,
            })?;
            let ok = outcome.counters.len() == 2
                && counter_blocks_symmetric(&outcome.counters[0], &outcome.counters[1]);
            symmetry.push(ok);
        }
        let all_symmetric = symmetry.iter().all(|&s| s);

        Ok(CrossMatrix {
            machine: lab.machine().spec().name.clone(),
            pstate,
            model_digest: artifact.digest_hex(),
            apps,
            solo_time_s,
            measured_slowdown: measured,
            predicted_slowdown: predicted,
            identical_pair_counter_symmetry: symmetry,
            summary: MatrixSummary {
                mpe_pct: summary_mpe,
                nrmse_pct: nrmse,
                max_abs_pct_err: max_abs,
                identical_pairs_symmetric: all_symmetric,
            },
        })
    }

    /// Render the measured matrix as an aligned text table (targets down,
    /// co-runners across), for `coloc matrix` output.
    pub fn render_measured(&self) -> String {
        let mut out = String::new();
        let w = 14usize;
        out.push_str(&format!("{:>w$}", "target\\co", w = w));
        for a in &self.apps {
            out.push_str(&format!("{a:>w$}", w = w));
        }
        out.push('\n');
        for (i, a) in self.apps.iter().enumerate() {
            out.push_str(&format!("{a:>w$}", w = w));
            for j in 0..self.apps.len() {
                out.push_str(&format!("{:>w$.4}", self.measured_slowdown[i][j], w = w));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureSet;
    use crate::plan::TrainingPlan;
    use crate::predictor::ModelKind;
    use crate::registry::{ModelRegistry, TrainRequest};
    use coloc_machine::presets;

    fn lab() -> Lab {
        Lab::new(presets::xeon_e5649(), coloc_workloads::standard(), 7)
            .unwrap()
            .with_threads(4)
    }

    fn small_artifact(lab: &Lab) -> std::sync::Arc<ModelArtifact> {
        let registry = ModelRegistry::new();
        let plan = TrainingPlan {
            pstates: vec![0],
            targets: lab.suite().iter().map(|b| b.name.to_string()).collect(),
            co_runners: coloc_workloads::training_co_runners()
                .iter()
                .map(|b| b.name.to_string())
                .collect(),
            counts: vec![1, 3],
        };
        registry
            .resolve(
                lab,
                &TrainRequest {
                    kind: ModelKind::Linear,
                    set: FeatureSet::F,
                    plan,
                    seed: 1,
                    policy: None,
                },
            )
            .unwrap()
    }

    #[test]
    fn matrix_is_full_identical_pairs_symmetric_and_deterministic() {
        let lab1 = lab();
        let artifact = small_artifact(&lab1);
        let m1 = CrossMatrix::compute(&lab1, &artifact, 0).unwrap();
        let n = m1.apps.len();
        assert_eq!(n, lab1.suite().len());
        assert_eq!(m1.measured_slowdown.len(), n);
        assert!(m1.measured_slowdown.iter().all(|row| row.len() == n));
        assert!(
            m1.summary.identical_pairs_symmetric,
            "identical-app pairs must have bit-identical counter blocks: {:?}",
            m1.identical_pair_counter_symmetry
        );
        // Interference never speeds a target up beyond measurement noise
        // (the lab's default σ is 0.8%, so allow a few σ of jitter).
        for row in &m1.measured_slowdown {
            for &sd in row {
                assert!(sd > 0.95, "measured slowdown far below 1: {sd}");
            }
        }
        assert_eq!(m1.model_digest, artifact.digest_hex());

        // Bit-identical across thread counts (the lab's determinism
        // contract extends to the matrix artifact).
        let lab8 = Lab::new(presets::xeon_e5649(), coloc_workloads::standard(), 7)
            .unwrap()
            .with_threads(8);
        let m8 = CrossMatrix::compute(&lab8, &artifact, 0).unwrap();
        assert_eq!(m1, m8);
    }
}
