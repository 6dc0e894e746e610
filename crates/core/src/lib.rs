//! # coloc-model — the IPPS'15 co-location modeling methodology
//!
//! This crate is the paper's contribution: a pipeline that turns one solo
//! *baseline* measurement per application into models predicting the
//! execution time that application will have under any co-location.
//!
//! The flow (paper §III–§IV):
//!
//! 1. **Baselines** — [`Lab::baselines`] profiles every application alone:
//!    execution time at each P-state plus one counter sample yielding
//!    memory intensity, CM/CA and CA/INS ([`baseline::BaselineDb`]).
//! 2. **Training data** — [`TrainingPlan`] enumerates the co-location
//!    sweep of Table V (each target × each of four class-representative
//!    co-runners × each homogeneous count × each P-state);
//!    [`Lab::collect`] executes it on the machine simulator.
//! 3. **Features** — each run is described by up to eight features
//!    (Table I, [`features::Feature`]) computed **only from baseline
//!    measurements**, grouped into nested sets A–F (Table II,
//!    [`features::FeatureSet`]).
//! 4. **Models** — [`Predictor::train`] fits either the linear model of
//!    Eq. 1 or the scaled-conjugate-gradient neural network of §III-D.
//! 5. **Evaluation** — [`experiment::evaluate_model`] reproduces the
//!    repeated random sub-sampling protocol (100 × 70/30) and reports
//!    MPE/NRMSE, the numbers behind Figs. 1–4.
//!
//! Beyond the paper's core results, the crate implements its §IV-B1
//! class-average prediction mode ([`classavg`]). The interference-aware
//! scheduler the introduction motivates is the `coloc-placement` crate,
//! built on this one.

pub mod baseline;
pub mod classavg;
pub mod experiment;
pub mod features;
pub mod lab;
pub mod matrix;
pub mod persist;
pub mod plan;
pub mod predictor;
pub mod registry;
pub mod robust;
pub mod sample;
pub mod sanitize;
pub mod scenario;

pub use baseline::{AppBaseline, BaselineDb};
pub use experiment::{evaluate_model, ModelEvaluation};
pub use features::{Feature, FeatureSet};
pub use lab::{Lab, SweepCheckpoint, SweepStats};
pub use matrix::{CrossMatrix, MatrixSummary};
pub use plan::TrainingPlan;
pub use predictor::{ModelKind, Predictor};
pub use registry::{
    machine_spec_digest, ModelArtifact, ModelRegistry, ModelSpec, TrainRequest, TrainedModel,
    MODEL_SCHEMA_VERSION,
};
pub use robust::{train_robust, AttemptOutcome, TrainAttempt, TrainPolicy, TrainingReport};
pub use sample::{samples_to_dataset, Sample};
pub use sanitize::{sanitize_samples, QuarantineReason, SanitizePolicy, SanitizeReport};
pub use scenario::Scenario;

/// Typed error taxonomy of the whole pipeline. Every failure mode the
/// chaos lab exercises — bad specs, flaky measurements, corrupt artifacts,
/// degenerate datasets, interrupted sweeps — has its own variant, so
/// callers can degrade gracefully instead of unwinding.
#[derive(Debug, Clone, PartialEq)]
pub enum ColocError {
    /// Scenario references an application absent from the lab's suite.
    UnknownApp(String),
    /// The machine simulator rejected a run.
    Machine(String),
    /// A machine or fault-plan spec failed validation.
    InvalidSpec(String),
    /// The underlying learner failed.
    Ml(String),
    /// A predictor was asked about a feature set it was not trained for.
    FeatureMismatch { expected: usize, got: usize },
    /// Not enough data for the requested operation.
    InsufficientData(String),
    /// A dataset survived sanitization with too little usable signal to
    /// train anything.
    DegenerateDataset(String),
    /// A persisted artifact exists but cannot be parsed (corrupt or
    /// truncated JSON, wrong shape). Carries the offending path.
    CorruptArtifact { path: String, detail: String },
    /// A persisted artifact could not be read or written at the I/O layer.
    ArtifactIo { path: String, detail: String },
    /// A sweep checkpoint belongs to a different plan/lab configuration
    /// than the resume attempt.
    CheckpointMismatch { expected: u64, found: u64 },
    /// A collect was interrupted (simulated crash) after `completed`
    /// samples; a checkpoint holds the partial progress.
    Interrupted { completed: usize },
    /// A request's deadline expired before (or while) it was served.
    Timeout {
        /// The deadline the request carried, in milliseconds.
        deadline_ms: u64,
    },
    /// A service shed the request because its admission queue was full.
    /// Callers should back off and retry; `queue_depth` is the depth
    /// observed at shed time.
    Overloaded { queue_depth: usize },
    /// The service is draining (e.g. SIGTERM received) and no longer
    /// admits new work.
    ShuttingDown,
    /// A service refused a connection because `open` connections, its
    /// bound, were already open. Callers should back off and reconnect.
    TooManyConnections { open: usize },
}

impl std::fmt::Display for ColocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColocError::UnknownApp(n) => write!(f, "unknown application `{n}`"),
            ColocError::Machine(s) => write!(f, "machine error: {s}"),
            ColocError::InvalidSpec(s) => write!(f, "invalid spec: {s}"),
            ColocError::Ml(s) => write!(f, "learner error: {s}"),
            ColocError::FeatureMismatch { expected, got } => {
                write!(
                    f,
                    "feature arity mismatch: model expects {expected}, got {got}"
                )
            }
            ColocError::InsufficientData(s) => write!(f, "insufficient data: {s}"),
            ColocError::DegenerateDataset(s) => write!(f, "degenerate dataset: {s}"),
            ColocError::CorruptArtifact { path, detail } => {
                write!(f, "corrupt artifact `{path}`: {detail}")
            }
            ColocError::ArtifactIo { path, detail } => {
                write!(f, "artifact I/O error `{path}`: {detail}")
            }
            ColocError::CheckpointMismatch { expected, found } => {
                write!(
                    f,
                    "checkpoint belongs to a different sweep \
                     (expected plan digest {expected:#x}, found {found:#x})"
                )
            }
            ColocError::Interrupted { completed } => {
                write!(f, "collect interrupted after {completed} samples")
            }
            ColocError::Timeout { deadline_ms } => {
                write!(f, "deadline expired ({deadline_ms} ms)")
            }
            ColocError::Overloaded { queue_depth } => {
                write!(
                    f,
                    "overloaded (queue depth {queue_depth}); retry with backoff"
                )
            }
            ColocError::ShuttingDown => write!(f, "service is shutting down"),
            ColocError::TooManyConnections { open } => {
                write!(
                    f,
                    "too many connections ({open} open); reconnect with backoff"
                )
            }
        }
    }
}

impl std::error::Error for ColocError {}

impl From<coloc_machine::MachineError> for ColocError {
    fn from(e: coloc_machine::MachineError) -> Self {
        match e {
            coloc_machine::MachineError::InvalidSpec(s) => ColocError::InvalidSpec(s),
            coloc_machine::MachineError::InvalidFaultPlan(s) => ColocError::InvalidSpec(s),
            other => ColocError::Machine(other.to_string()),
        }
    }
}

impl From<coloc_ml::MlError> for ColocError {
    fn from(e: coloc_ml::MlError) -> Self {
        ColocError::Ml(e.to_string())
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, ColocError>;
