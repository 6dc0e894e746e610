//! Trained predictors: the paper's twelve models.
//!
//! Two learning techniques (paper §III-C, §III-D) × six feature sets
//! (Table II) = twelve models. [`Predictor`] wraps one trained instance
//! and always accepts the *full* eight-feature vector, projecting the
//! subset its feature set uses — so call sites never track arities.

use crate::features::FeatureSet;
use crate::sample::{samples_to_dataset, Sample};
use crate::Result;
use coloc_ml::{LinearRegression, Mlp, MlpConfig, QuadraticRegression};

/// Which learning technique to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ModelKind {
    /// Linear least squares (paper Eq. 1).
    Linear,
    /// Single-hidden-layer neural network trained with scaled conjugate
    /// gradient (paper §III-D).
    NeuralNet,
    /// Linear least squares over a degree-2 polynomial expansion of the
    /// feature set — an extension beyond the paper, quantifying how much
    /// of the neural network's advantage cheap interaction features
    /// recover (see `repro ablation-quad`).
    QuadraticLinear,
}

impl ModelKind {
    /// The paper's two techniques, in paper order (Figures 1–4 cover
    /// exactly these).
    pub const ALL: [ModelKind; 2] = [ModelKind::Linear, ModelKind::NeuralNet];

    /// All techniques including this reproduction's extensions.
    pub const EXTENDED: [ModelKind; 3] = [
        ModelKind::Linear,
        ModelKind::NeuralNet,
        ModelKind::QuadraticLinear,
    ];

    /// Human-readable name.
    pub fn label(&self) -> &'static str {
        match self {
            ModelKind::Linear => "linear",
            ModelKind::NeuralNet => "neural-net",
            ModelKind::QuadraticLinear => "quadratic",
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[derive(serde::Serialize, serde::Deserialize)]
enum ModelImpl {
    Linear(LinearRegression),
    Nn(Box<Mlp>),
    Quadratic(Box<QuadraticRegression>),
}

/// One trained co-location performance model.
///
/// Serializable: a trained predictor round-trips through JSON (see
/// [`crate::persist`]) so models can be deployed without retraining.
#[derive(serde::Serialize, serde::Deserialize)]
pub struct Predictor {
    kind: ModelKind,
    set: FeatureSet,
    model: ModelImpl,
}

impl Predictor {
    /// Train a model of `kind` over feature set `set` on `samples`.
    ///
    /// `seed` controls neural-network initialization (ignored for linear
    /// models); the same inputs always produce the same model.
    pub fn train(
        kind: ModelKind,
        set: FeatureSet,
        samples: &[Sample],
        seed: u64,
    ) -> Result<Predictor> {
        let data = samples_to_dataset(samples, set)?;
        let model = match kind {
            ModelKind::Linear => ModelImpl::Linear(LinearRegression::fit(&data)?),
            ModelKind::NeuralNet => {
                let cfg = MlpConfig::for_features(set.arity(), seed);
                ModelImpl::Nn(Box::new(Mlp::fit(&data, &cfg)?))
            }
            ModelKind::QuadraticLinear => {
                ModelImpl::Quadratic(Box::new(QuadraticRegression::fit(&data)?))
            }
        };
        Ok(Predictor { kind, set, model })
    }

    /// The learning technique.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// The feature set.
    pub fn feature_set(&self) -> FeatureSet {
        self.set
    }

    /// Check that the trained model takes exactly the features its set
    /// projects, so [`Predictor::predict`] cannot fail on arity; `Err`
    /// describes the disagreement (a corrupt deserialized predictor).
    pub fn check_shape(&self) -> std::result::Result<(), String> {
        let arity = match &self.model {
            ModelImpl::Linear(m) => m.checked_arity(),
            ModelImpl::Nn(m) => m.checked_arity(),
            ModelImpl::Quadratic(m) => m.checked_arity(),
        }?;
        if arity != self.set.arity() {
            return Err(format!(
                "{} model takes {arity} features, but feature set {} has {}",
                self.kind,
                self.set,
                self.set.arity()
            ));
        }
        Ok(())
    }

    /// Predict co-located execution time (seconds) from a full
    /// eight-feature vector (see [`crate::Lab::featurize`]).
    pub fn predict(&self, full_features: &[f64; 8]) -> f64 {
        let x = self.set.project(full_features);
        match &self.model {
            ModelImpl::Linear(m) => m.predict(&x),
            ModelImpl::Nn(m) => m.predict(&x),
            ModelImpl::Quadratic(m) => m.predict(&x),
        }
    }

    /// Predict for a slice of samples (e.g. a withheld test set).
    pub fn predict_samples(&self, samples: &[Sample]) -> Vec<f64> {
        samples.iter().map(|s| self.predict(&s.features)).collect()
    }

    /// Predicted *slowdown* relative to the baseline time embedded in the
    /// feature vector (predicted time / baseExTime).
    pub fn predict_slowdown(&self, full_features: &[f64; 8]) -> f64 {
        let base = full_features[crate::features::Feature::BaseExTime.index()];
        if base > 0.0 {
            self.predict(full_features) / base
        } else {
            f64::NAN
        }
    }

    /// Final training loss of the underlying learner, when it exposes one
    /// (the SCG-trained network, in standardized units). `None` for the
    /// closed-form linear fits. [`crate::robust::train_robust`] uses this
    /// as its divergence signal.
    pub fn train_loss(&self) -> Option<f64> {
        match &self.model {
            ModelImpl::Nn(m) => Some(m.train_loss()),
            _ => None,
        }
    }

    /// For linear models: the raw-space coefficients `(coeffs, constant)`
    /// of paper Eq. 1 over this feature set's columns. `None` for neural
    /// networks.
    pub fn linear_coefficients(&self) -> Option<(Vec<f64>, f64)> {
        match &self.model {
            ModelImpl::Linear(m) => Some(m.raw_coefficients()),
            _ => None,
        }
    }
}

impl std::fmt::Debug for Predictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Predictor({} / set {})", self.kind, self.set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    /// Synthetic samples with a known relationship:
    /// time = base × (1 + 0.1·coAppMem·40) plus mild nonlinearity.
    fn synthetic_samples(n: usize) -> Vec<Sample> {
        (0..n)
            .map(|i| {
                let base = 150.0 + (i % 7) as f64 * 50.0;
                let ncoapp = (i % 5) as f64;
                let co_mem = ncoapp * 0.01 * (1.0 + (i % 3) as f64);
                let target_mem = 1e-3 * (1.0 + (i % 4) as f64);
                let slowdown = 1.0 + 4.0 * co_mem + 8.0 * co_mem * co_mem / (0.01 + co_mem);
                Sample {
                    scenario: Scenario::homogeneous("t", "c", ncoapp as usize, 0),
                    features: [
                        base,
                        ncoapp,
                        co_mem,
                        target_mem,
                        ncoapp * 0.4,
                        ncoapp * 0.03,
                        0.1,
                        0.02,
                    ],
                    actual_time_s: base * slowdown,
                }
            })
            .collect()
    }

    #[test]
    fn linear_model_exposes_eq1_coefficients() {
        let samples = synthetic_samples(100);
        let p = Predictor::train(ModelKind::Linear, FeatureSet::C, &samples, 0).unwrap();
        let (coeffs, _constant) = p.linear_coefficients().unwrap();
        assert_eq!(coeffs.len(), 3);
        // Reconstruct a prediction manually.
        let f = &samples[10].features;
        let x = FeatureSet::C.project(f);
        let manual: f64 = coeffs.iter().zip(&x).map(|(c, v)| c * v).sum::<f64>()
            + p.linear_coefficients().unwrap().1;
        assert!((manual - p.predict(f)).abs() < 1e-9);
    }

    #[test]
    fn nn_beats_linear_on_nonlinear_data() {
        let samples = synthetic_samples(240);
        let lin = Predictor::train(ModelKind::Linear, FeatureSet::F, &samples, 1).unwrap();
        let nn = Predictor::train(ModelKind::NeuralNet, FeatureSet::F, &samples, 1).unwrap();
        let actual: Vec<f64> = samples.iter().map(|s| s.actual_time_s).collect();
        let lin_mpe = coloc_ml::metrics::mpe(&lin.predict_samples(&samples), &actual);
        let nn_mpe = coloc_ml::metrics::mpe(&nn.predict_samples(&samples), &actual);
        assert!(nn_mpe < lin_mpe, "nn {nn_mpe} vs linear {lin_mpe}");
    }

    #[test]
    fn quadratic_sits_between_linear_and_nn_on_nonlinear_data() {
        let samples = synthetic_samples(240);
        let lin = Predictor::train(ModelKind::Linear, FeatureSet::F, &samples, 1).unwrap();
        let quad =
            Predictor::train(ModelKind::QuadraticLinear, FeatureSet::F, &samples, 1).unwrap();
        let actual: Vec<f64> = samples.iter().map(|s| s.actual_time_s).collect();
        let lin_mpe = coloc_ml::metrics::mpe(&lin.predict_samples(&samples), &actual);
        let quad_mpe = coloc_ml::metrics::mpe(&quad.predict_samples(&samples), &actual);
        assert!(quad_mpe < lin_mpe, "quad {quad_mpe} vs linear {lin_mpe}");
        assert!(quad.linear_coefficients().is_none());
    }

    #[test]
    fn deterministic_nn_training() {
        let samples = synthetic_samples(80);
        let a = Predictor::train(ModelKind::NeuralNet, FeatureSet::D, &samples, 9).unwrap();
        let b = Predictor::train(ModelKind::NeuralNet, FeatureSet::D, &samples, 9).unwrap();
        assert_eq!(
            a.predict(&samples[3].features),
            b.predict(&samples[3].features)
        );
    }

    #[test]
    fn slowdown_helper() {
        let samples = synthetic_samples(60);
        let p = Predictor::train(ModelKind::Linear, FeatureSet::A, &samples, 0).unwrap();
        let sd = p.predict_slowdown(&samples[0].features);
        assert!(sd > 0.5 && sd < 10.0, "{sd}");
    }

    #[test]
    fn too_few_samples_fails_cleanly() {
        let samples = synthetic_samples(2);
        assert!(Predictor::train(ModelKind::Linear, FeatureSet::F, &samples, 0).is_err());
    }
}
