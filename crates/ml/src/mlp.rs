//! Single-hidden-layer perceptron trained with scaled conjugate gradient.
//!
//! The paper (§III-D) uses neural networks of 10–20 hidden nodes, with the
//! feature values as input neurons and the predicted co-located execution
//! time as output, trained with a scaled conjugate gradient method. This is
//! that network: `tanh` hidden units, a linear output unit, full-batch mean
//! squared error with a small L2 penalty, optimized by [`crate::scg`].
//!
//! Inputs and targets are z-score standardized internally (fit-time
//! statistics are stored in the model), so callers always work in raw
//! feature/target units.

use crate::rng::derive_seed;
use crate::scaler::Standardizer;
use crate::scg::{self, Objective, ScgConfig};
use crate::{Dataset, MlError, Result};
use coloc_linalg::Mat;
use rand::Rng as _;
use rand::SeedableRng;

/// Hyperparameters for [`Mlp::fit`].
#[derive(Clone, Debug)]
pub struct MlpConfig {
    /// Hidden-layer width. The paper varies this from 10 to 20 with the
    /// size of the feature set; [`MlpConfig::for_features`] reproduces that
    /// scaling.
    pub hidden: usize,
    /// L2 weight penalty (biases unpenalized).
    pub l2: f64,
    /// SCG iteration cap per restart.
    pub max_iters: usize,
    /// Independent random initializations; the best final training loss
    /// wins. Guards against poor local minima.
    pub restarts: usize,
    /// RNG seed for weight initialization.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            hidden: 12,
            l2: 1e-4,
            max_iters: 400,
            restarts: 2,
            seed: 1,
        }
    }
}

impl MlpConfig {
    /// The paper's sizing rule: 10 hidden nodes for the smallest feature
    /// set, growing to 20 for the largest (8-feature) set.
    pub fn for_features(num_features: usize, seed: u64) -> MlpConfig {
        let hidden = (10 + num_features.saturating_sub(1) * 10 / 7).min(20);
        MlpConfig {
            hidden,
            seed,
            ..Default::default()
        }
    }
}

/// A trained network.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Mlp {
    inputs: usize,
    hidden: usize,
    /// Flat parameter vector: `[W1 (h×n) | b1 (h) | w2 (h) | b2 (1)]`.
    params: Vec<f64>,
    x_scaler: Standardizer,
    y_scaler: Standardizer,
    /// Final training loss (standardized units), for diagnostics.
    train_loss: f64,
}

fn param_count(inputs: usize, hidden: usize) -> usize {
    hidden * inputs + hidden + hidden + 1
}

/// Forward pass in standardized space; `act` receives hidden activations.
fn forward(params: &[f64], inputs: usize, hidden: usize, x: &[f64], act: &mut [f64]) -> f64 {
    let (w1, rest) = params.split_at(hidden * inputs);
    let (b1, rest) = rest.split_at(hidden);
    let (w2, b2) = rest.split_at(hidden);
    for j in 0..hidden {
        let row = &w1[j * inputs..(j + 1) * inputs];
        let z = coloc_linalg::vecops::dot(row, x) + b1[j];
        act[j] = z.tanh();
    }
    coloc_linalg::vecops::dot(w2, act) + b2[0]
}

/// Full-batch MSE + L2 objective over a standardized dataset.
struct MlpObjective<'a> {
    x: &'a Mat,
    y: &'a [f64],
    inputs: usize,
    hidden: usize,
    l2: f64,
}

impl Objective for MlpObjective<'_> {
    fn dim(&self) -> usize {
        param_count(self.inputs, self.hidden)
    }

    fn value(&self, w: &[f64]) -> f64 {
        let m = self.y.len() as f64;
        let mut act = vec![0.0; self.hidden];
        let mut sse = 0.0;
        for (row, &t) in self.x.rows_iter().zip(self.y) {
            let out = forward(w, self.inputs, self.hidden, row, &mut act);
            sse += (out - t).powi(2);
        }
        let weights_only = self.hidden * self.inputs + self.hidden + self.hidden;
        let mut l2 = 0.0;
        for (i, wi) in w.iter().enumerate() {
            // Penalize W1 and w2; skip the two bias blocks.
            let is_b1 =
                (self.hidden * self.inputs..self.hidden * self.inputs + self.hidden).contains(&i);
            if !is_b1 && i < weights_only {
                l2 += wi * wi;
            }
        }
        0.5 * sse / m + 0.5 * self.l2 * l2
    }

    fn gradient(&self, w: &[f64], grad: &mut [f64]) {
        let (inputs, hidden) = (self.inputs, self.hidden);
        let m = self.y.len() as f64;
        grad.fill(0.0);
        let (w1, rest) = w.split_at(hidden * inputs);
        let (_b1, rest) = rest.split_at(hidden);
        let (w2, _b2) = rest.split_at(hidden);

        let w1_off = 0;
        let b1_off = hidden * inputs;
        let w2_off = b1_off + hidden;
        let b2_off = w2_off + hidden;

        let mut act = vec![0.0; hidden];
        for (row, &t) in self.x.rows_iter().zip(self.y) {
            let out = forward(w, inputs, hidden, row, &mut act);
            let e = (out - t) / m;
            grad[b2_off] += e;
            for j in 0..hidden {
                grad[w2_off + j] += e * act[j];
                let dh = e * w2[j] * (1.0 - act[j] * act[j]);
                grad[b1_off + j] += dh;
                let grow = &mut grad[w1_off + j * inputs..w1_off + (j + 1) * inputs];
                for (g, &xi) in grow.iter_mut().zip(row) {
                    *g += dh * xi;
                }
            }
        }
        if self.l2 > 0.0 {
            for i in 0..hidden * inputs {
                grad[i] += self.l2 * w1[i];
            }
            for j in 0..hidden {
                grad[w2_off + j] += self.l2 * w2[j];
            }
        }
    }
}

impl Mlp {
    /// Train on `data` with the given configuration.
    pub fn fit(data: &Dataset, cfg: &MlpConfig) -> Result<Mlp> {
        if cfg.hidden == 0 {
            return Err(MlError::BadDataset("hidden layer must be non-empty".into()));
        }
        if data.len() < 2 {
            return Err(MlError::BadDataset("need at least 2 samples".into()));
        }
        let inputs = data.num_features();
        let x_scaler = Standardizer::fit(data.x());
        let y_scaler = Standardizer::fit_vec(data.y());
        let zx = x_scaler.transform(data.x());
        let zy: Vec<f64> = data
            .y()
            .iter()
            .map(|&v| y_scaler.transform_scalar(v))
            .collect();

        let obj = MlpObjective {
            x: &zx,
            y: &zy,
            inputs,
            hidden: cfg.hidden,
            l2: cfg.l2,
        };
        let scg_cfg = ScgConfig {
            max_iters: cfg.max_iters,
            ..Default::default()
        };

        let mut best: Option<(f64, Vec<f64>)> = None;
        for restart in 0..cfg.restarts.max(1) {
            let mut w = init_params(inputs, cfg.hidden, derive_seed(cfg.seed, restart as u64));
            let report = scg::minimize(&obj, &mut w, &scg_cfg);
            if report.diverged || !report.value.is_finite() {
                continue;
            }
            if best.as_ref().is_none_or(|(v, _)| report.value < *v) {
                best = Some((report.value, w));
            }
        }
        let (train_loss, params) = best.ok_or(MlError::NoConvergence {
            iterations: cfg.max_iters,
            grad_norm: f64::NAN,
        })?;

        Ok(Mlp {
            inputs,
            hidden: cfg.hidden,
            params,
            x_scaler,
            y_scaler,
            train_loss,
        })
    }

    /// The number of features [`Mlp::predict`] takes, after checking that
    /// the scalers and the parameter vector agree with the layer sizes;
    /// `Err` describes the first disagreement (a corrupt deserialized
    /// network).
    pub fn checked_arity(&self) -> std::result::Result<usize, String> {
        let x_width = self.x_scaler.checked_width()?;
        if x_width != self.inputs {
            return Err(format!(
                "input scaler has {x_width} columns for {} inputs",
                self.inputs
            ));
        }
        let y_width = self.y_scaler.checked_width()?;
        if y_width != 1 {
            return Err(format!("target scaler has {y_width} columns, not 1"));
        }
        // `param_count`, checked: the sizes come from the file.
        let want = (self.inputs.checked_add(2))
            .and_then(|n| n.checked_mul(self.hidden))
            .and_then(|n| n.checked_add(1));
        if want != Some(self.params.len()) {
            return Err(format!(
                "{} parameters for {} inputs and {} hidden units",
                self.params.len(),
                self.inputs,
                self.hidden
            ));
        }
        Ok(self.inputs)
    }

    /// Predict the target for one raw feature vector.
    pub fn predict(&self, features: &[f64]) -> f64 {
        assert_eq!(
            features.len(),
            self.inputs,
            "feature arity mismatch: model has {}, got {}",
            self.inputs,
            features.len()
        );
        let mut z = features.to_vec();
        self.x_scaler.transform_row(&mut z);
        let mut act = vec![0.0; self.hidden];
        let out = forward(&self.params, self.inputs, self.hidden, &z, &mut act);
        self.y_scaler.inverse_scalar(out)
    }

    /// Predict for every row of a dataset.
    pub fn predict_all(&self, data: &Dataset) -> Vec<f64> {
        (0..data.len())
            .map(|i| self.predict(data.sample(i).0))
            .collect()
    }

    /// Hidden-layer width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Final training loss in standardized units (½·MSE + L2 term).
    pub fn train_loss(&self) -> f64 {
        self.train_loss
    }
}

/// Xavier/Glorot-style uniform initialization.
fn init_params(inputs: usize, hidden: usize, seed: u64) -> Vec<f64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = param_count(inputs, hidden);
    let mut w = vec![0.0; n];
    let limit1 = (6.0 / (inputs + hidden) as f64).sqrt();
    let limit2 = (6.0 / (hidden + 1) as f64).sqrt();
    let w2_off = hidden * inputs + hidden;
    for (i, wi) in w.iter_mut().enumerate() {
        if i < hidden * inputs {
            *wi = rng.gen_range(-limit1..limit1);
        } else if i < w2_off {
            *wi = 0.0; // b1
        } else if i < w2_off + hidden {
            *wi = rng.gen_range(-limit2..limit2);
        } else {
            *wi = 0.0; // b2
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    /// Numerical-vs-analytic gradient check — the canonical backprop test.
    #[test]
    fn gradient_matches_finite_differences() {
        let x = Mat::from_fn(7, 3, |i, j| ((i * 3 + j) as f64 * 0.7).sin());
        let y: Vec<f64> = (0..7).map(|i| (i as f64 * 0.3).cos()).collect();
        let obj = MlpObjective {
            x: &x,
            y: &y,
            inputs: 3,
            hidden: 4,
            l2: 1e-3,
        };
        let w = init_params(3, 4, 99);
        let mut analytic = vec![0.0; w.len()];
        obj.gradient(&w, &mut analytic);
        let eps = 1e-6;
        for i in 0..w.len() {
            let mut wp = w.clone();
            wp[i] += eps;
            let mut wm = w.clone();
            wm[i] -= eps;
            let numeric = (obj.value(&wp) - obj.value(&wm)) / (2.0 * eps);
            assert!(
                (numeric - analytic[i]).abs() < 1e-5,
                "param {i}: numeric {numeric} vs analytic {}",
                analytic[i]
            );
        }
    }

    #[test]
    fn learns_linear_function() {
        let x = Mat::from_fn(60, 2, |i, j| ((i + 1) as f64 * (j + 1) as f64 * 0.13).sin());
        let y: Vec<f64> = (0..60).map(|i| 2.0 * x[(i, 0)] - x[(i, 1)] + 5.0).collect();
        let ds = Dataset::new(x, y).unwrap();
        let mlp = Mlp::fit(
            &ds,
            &MlpConfig {
                hidden: 6,
                seed: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let preds = mlp.predict_all(&ds);
        assert!(
            metrics::rmse(&preds, ds.y()) < 0.05,
            "rmse {}",
            metrics::rmse(&preds, ds.y())
        );
    }

    #[test]
    fn learns_nonlinear_function_better_than_linear_model() {
        // y = x0² + saturating term — the shape contention curves take.
        let x = Mat::from_fn(120, 2, |i, j| {
            let t = i as f64 / 120.0;
            if j == 0 {
                t * 4.0 - 2.0
            } else {
                (t * 12.9898).sin() * 2.0
            }
        });
        let y: Vec<f64> = (0..120)
            .map(|i| x[(i, 0)].powi(2) + 1.0 / (1.0 + (-3.0 * x[(i, 1)]).exp()))
            .collect();
        let ds = Dataset::new(x, y).unwrap();

        let mlp = Mlp::fit(
            &ds,
            &MlpConfig {
                hidden: 12,
                seed: 5,
                ..Default::default()
            },
        )
        .unwrap();
        let lin = crate::LinearRegression::fit(&ds).unwrap();

        let mlp_rmse = metrics::rmse(&mlp.predict_all(&ds), ds.y());
        let lin_rmse = metrics::rmse(&lin.predict_all(&ds), ds.y());
        assert!(
            mlp_rmse < lin_rmse * 0.3,
            "mlp {mlp_rmse} should beat linear {lin_rmse} by >3x"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let x = Mat::from_fn(30, 2, |i, j| ((i * 2 + j) as f64).sin());
        let y: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let ds = Dataset::new(x, y).unwrap();
        let cfg = MlpConfig {
            hidden: 8,
            seed: 42,
            ..Default::default()
        };
        let a = Mlp::fit(&ds, &cfg).unwrap();
        let b = Mlp::fit(&ds, &cfg).unwrap();
        assert_eq!(a.predict(&[0.5, -0.5]), b.predict(&[0.5, -0.5]));
    }

    #[test]
    fn config_sizing_matches_paper_range() {
        // 1 feature -> 10 nodes; 8 features -> 20 nodes; monotone between.
        assert_eq!(MlpConfig::for_features(1, 0).hidden, 10);
        assert_eq!(MlpConfig::for_features(8, 0).hidden, 20);
        let mut prev = 0;
        for n in 1..=8 {
            let h = MlpConfig::for_features(n, 0).hidden;
            assert!((10..=20).contains(&h));
            assert!(h >= prev);
            prev = h;
        }
    }

    #[test]
    fn rejects_degenerate_configs() {
        let ds = Dataset::from_samples(&[(vec![1.0], 1.0), (vec![2.0], 2.0)]).unwrap();
        assert!(Mlp::fit(
            &ds,
            &MlpConfig {
                hidden: 0,
                ..Default::default()
            }
        )
        .is_err());
        let tiny = Dataset::from_samples(&[(vec![1.0], 1.0)]).unwrap();
        assert!(Mlp::fit(&tiny, &MlpConfig::default()).is_err());
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn predict_checks_arity() {
        let ds = Dataset::from_samples(&[(vec![1.0, 2.0], 1.0), (vec![2.0, 1.0], 2.0)]).unwrap();
        let mlp = Mlp::fit(
            &ds,
            &MlpConfig {
                hidden: 2,
                max_iters: 5,
                ..Default::default()
            },
        )
        .unwrap();
        mlp.predict(&[1.0]);
    }
}
