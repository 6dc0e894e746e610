//! The model registry: one canonical pipeline from training to serving.
//!
//! Historically three layers trained and loaded predictors through their
//! own ad-hoc paths (the CLI's `train`, serve's self-train fallback,
//! placement's inline estimator fit), each with its own feature
//! construction, error handling, and no shared artifact format. This
//! module replaces all of them: a [`ModelRegistry`] is the **only** way
//! any layer trains, persists, loads, or resolves a predictor, and what
//! it produces is a [`ModelArtifact`] — a schema-versioned, immutable,
//! digest-addressed serialization of the trained [`Predictor`] together
//! with its full provenance:
//!
//! - the [`TrainingPlan`] (or the plan reconstructed from a sample file),
//! - the requested [`ModelKind`] / [`FeatureSet`] / seed / robust flag,
//! - the machine-spec digest it was trained against, and
//! - the training-data digest (the lab's `ScenarioIr` digest fold for
//!   plan-trained models, a bit-exact sample fold for file-trained ones).
//!
//! [`ModelArtifact::digest`] is a pure function of those serialized
//! fields, so two independent processes that train the same plan on the
//! same lab resolve the **same digest** — the property serve's hot
//! reload, placement's estimator, and the CLI all rely on to agree on
//! model identity — and a loaded artifact re-digests to the digest it
//! was saved under.
//!
//! Failures are never cached: [`ModelRegistry::resolve`] memoizes only
//! successful artifacts (by digest), so a transient training or I/O
//! error is retryable by construction.

use crate::features::FeatureSet;
use crate::lab::Lab;
use crate::persist;
use crate::plan::TrainingPlan;
use crate::predictor::{ModelKind, Predictor};
use crate::robust::{train_robust, TrainPolicy, TrainingReport};
use crate::sample::Sample;
use crate::{ColocError, Result};
use coloc_machine::{IrWriter, MachineSpec};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// On-disk artifact schema version. Bump on any change to the serialized
/// shape of [`ModelArtifact`]; loading a mismatched version is a
/// [`ColocError::CorruptArtifact`] naming both versions.
pub const MODEL_SCHEMA_VERSION: u32 = 1;

/// Machine label recorded when a model is trained from a sample file
/// with no lab attached (the CLI `train` path).
pub const MACHINE_UNKNOWN: &str = "samples";

/// What to train: the provenance half of a [`ModelArtifact`], fully
/// serializable and digestable.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ModelSpec {
    /// Requested learner kind (robust training may fall back to linear;
    /// the spec records the request, the predictor records the outcome).
    pub kind: ModelKind,
    /// Feature set the model was trained over.
    pub set: FeatureSet,
    /// The training sweep (for sample-file training, the plan
    /// reconstructed from the samples' scenarios).
    pub plan: TrainingPlan,
    /// Training seed.
    pub seed: u64,
    /// True when trained through the robust ladder
    /// ([`crate::robust::train_robust`]).
    pub robust: bool,
}

/// A trained, digest-addressed model artifact: predictor + provenance.
/// Deliberately not `Clone` — artifacts are immutable and shared by
/// [`Arc`], which is how serve's epoch swap stays drain-free.
#[derive(serde::Serialize, serde::Deserialize)]
pub struct ModelArtifact {
    /// Serialization schema version ([`MODEL_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Machine-spec name the training data came from, or
    /// [`MACHINE_UNKNOWN`] for sample-file training.
    pub machine: String,
    /// Digest of the machine spec ([`machine_spec_digest`]); 0 when the
    /// machine is unknown.
    pub machine_digest: u64,
    /// What was trained.
    pub spec: ModelSpec,
    /// Digest of the exact training data: [`Lab::plan_digest`] over the
    /// plan's scenarios for lab training, [`samples_digest`] for
    /// sample-file training.
    pub data_digest: u64,
    /// Number of training samples.
    pub samples: usize,
    /// Final training loss, when the learner reports one.
    pub train_loss: Option<f64>,
    /// The trained predictor.
    pub predictor: Predictor,
}

/// The digest every artifact identity reduces to: a 128-bit IrWriter fold
/// over provenance only — never the learned weights, which are a
/// deterministic function of the provenance. Shared by
/// [`ModelArtifact::digest`] and [`ModelRegistry::request_digest`] so a
/// request's address can be computed before anything is trained.
fn provenance_digest(
    machine: &str,
    machine_digest: u64,
    spec: &ModelSpec,
    data_digest: u64,
) -> u128 {
    let mut d = IrWriter::new();
    d.u64(MODEL_SCHEMA_VERSION as u64);
    d.str(machine);
    d.u64(machine_digest);
    d.str(spec.kind.label());
    d.str(spec.set.label());
    d.usize(spec.plan.pstates.len());
    for &p in &spec.plan.pstates {
        d.usize(p);
    }
    d.usize(spec.plan.targets.len());
    for t in &spec.plan.targets {
        d.str(t);
    }
    d.usize(spec.plan.co_runners.len());
    for c in &spec.plan.co_runners {
        d.str(c);
    }
    d.usize(spec.plan.counts.len());
    for &c in &spec.plan.counts {
        d.usize(c);
    }
    d.u64(spec.seed);
    d.byte(spec.robust as u8);
    d.u64(data_digest);
    d.finish()
}

impl std::fmt::Debug for ModelArtifact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelArtifact")
            .field("schema_version", &self.schema_version)
            .field("machine", &self.machine)
            .field("machine_digest", &self.machine_digest)
            .field("spec", &self.spec)
            .field("data_digest", &self.data_digest)
            .field("samples", &self.samples)
            .field("train_loss", &self.train_loss)
            .field("digest", &format_args!("{:032x}", self.digest()))
            .finish_non_exhaustive()
    }
}

impl ModelArtifact {
    /// The artifact's identity: a 128-bit digest over every serialized
    /// provenance field (never the learned weights — they are a
    /// deterministic function of the provenance). Recomputable from a
    /// loaded artifact, identical across processes for identical
    /// provenance.
    pub fn digest(&self) -> u128 {
        provenance_digest(
            &self.machine,
            self.machine_digest,
            &self.spec,
            self.data_digest,
        )
    }

    /// [`ModelArtifact::digest`] as the canonical 32-hex-digit string the
    /// wire protocol and telemetry report.
    pub fn digest_hex(&self) -> String {
        format!("{:032x}", self.digest())
    }
}

/// 64-bit digest of a machine spec's model-relevant identity (name,
/// topology, LLC, P-state table, DRAM parameters).
pub fn machine_spec_digest(spec: &MachineSpec) -> u64 {
    let mut d = IrWriter::new();
    d.str(&spec.name);
    d.usize(spec.cores);
    d.u64(spec.llc_bytes);
    d.usize(spec.llc_ways);
    d.usize(spec.pstates_ghz.len());
    for &g in &spec.pstates_ghz {
        d.f64(g);
    }
    d.f64(spec.dram.peak_bw_bytes_per_sec);
    d.f64(spec.dram.idle_latency_ns);
    d.f64(spec.dram.queue_latency_ns);
    d.f64(spec.dram.max_queue_ns);
    d.f64(spec.dram.bank_penalty_ns);
    d.usize(spec.dram.banks);
    d.finish64()
}

/// Bit-exact 64-bit fold of a training sample set: every scenario label,
/// every feature bit pattern, every measured time.
pub fn samples_digest(samples: &[Sample]) -> u64 {
    let mut d = IrWriter::new();
    d.usize(samples.len());
    for s in samples {
        d.str(&s.scenario.label());
        for &f in &s.features {
            d.f64(f);
        }
        d.f64(s.actual_time_s);
    }
    d.finish64()
}

/// Reconstruct a best-effort [`TrainingPlan`] from a sample set's
/// scenarios (first-seen order, deterministic): the provenance recorded
/// when training from a file instead of a live lab.
pub fn plan_from_samples(samples: &[Sample]) -> TrainingPlan {
    let mut plan = TrainingPlan {
        pstates: Vec::new(),
        targets: Vec::new(),
        co_runners: Vec::new(),
        counts: Vec::new(),
    };
    for s in samples {
        let sc = &s.scenario;
        if !plan.pstates.contains(&sc.pstate) {
            plan.pstates.push(sc.pstate);
        }
        if !plan.targets.contains(&sc.target) {
            plan.targets.push(sc.target.clone());
        }
        for (name, count) in sc.co_groups() {
            if !plan.co_runners.iter().any(|c| c == name) {
                plan.co_runners.push(name.to_string());
            }
            if !plan.counts.contains(&count) {
                plan.counts.push(count);
            }
        }
    }
    plan
}

/// A training request: what the caller wants trained, and how hard to
/// try. `policy: Some(_)` routes through the robust ladder; `None` is a
/// single plain fit. The request's digest-relevant parts become the
/// artifact's [`ModelSpec`].
#[derive(Clone, Debug)]
pub struct TrainRequest {
    /// Learner kind.
    pub kind: ModelKind,
    /// Feature set.
    pub set: FeatureSet,
    /// Training sweep.
    pub plan: TrainingPlan,
    /// Training seed (attempt 0 of the robust ladder uses it unchanged,
    /// so plain and robust training are bit-compatible on clean data).
    pub seed: u64,
    /// Robust-training policy, or `None` for a plain fit.
    pub policy: Option<TrainPolicy>,
}

/// A freshly trained model: the immutable artifact plus the robust
/// ladder's report when one was produced.
pub struct TrainedModel {
    /// The artifact.
    pub artifact: Arc<ModelArtifact>,
    /// Robust-training report (`None` for plain fits).
    pub report: Option<TrainingReport>,
}

/// The registry: trains, persists, loads, and resolves model artifacts.
/// Successful artifacts are memoized by digest; failures are never
/// cached, so a failed train or load is always retryable.
#[derive(Default)]
pub struct ModelRegistry {
    cache: Mutex<HashMap<u128, Arc<ModelArtifact>>>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> ModelRegistry {
        ModelRegistry::default()
    }

    fn fit(
        kind: ModelKind,
        set: FeatureSet,
        samples: &[Sample],
        seed: u64,
        policy: Option<&TrainPolicy>,
    ) -> Result<(Predictor, Option<TrainingReport>)> {
        match policy {
            Some(p) => train_robust(kind, set, samples, seed, p).map(|(m, r)| (m, Some(r))),
            None => Predictor::train(kind, set, samples, seed).map(|m| (m, None)),
        }
    }

    /// Collect `req.plan` on `lab` and train. Full provenance: the lab's
    /// machine digest and the exact `ScenarioIr` digest fold of the
    /// training sweep.
    pub fn train(&self, lab: &Lab, req: &TrainRequest) -> Result<TrainedModel> {
        let samples = lab.collect(&req.plan)?;
        let (predictor, report) =
            Self::fit(req.kind, req.set, &samples, req.seed, req.policy.as_ref())?;
        let spec = lab.machine().spec();
        let artifact = Arc::new(ModelArtifact {
            schema_version: MODEL_SCHEMA_VERSION,
            machine: spec.name.clone(),
            machine_digest: machine_spec_digest(spec),
            spec: ModelSpec {
                kind: req.kind,
                set: req.set,
                plan: req.plan.clone(),
                seed: req.seed,
                robust: req.policy.is_some(),
            },
            data_digest: lab.plan_digest(&req.plan.scenarios()),
            samples: samples.len(),
            train_loss: predictor.train_loss(),
            predictor,
        });
        self.remember(&artifact);
        Ok(TrainedModel { artifact, report })
    }

    /// Train from a pre-collected sample set (the CLI `train` path): the
    /// plan provenance is reconstructed from the samples' scenarios and
    /// the data digest is a bit-exact fold of the samples themselves.
    pub fn train_from_samples(
        &self,
        samples: &[Sample],
        kind: ModelKind,
        set: FeatureSet,
        seed: u64,
        policy: Option<&TrainPolicy>,
    ) -> Result<TrainedModel> {
        let (predictor, report) = Self::fit(kind, set, samples, seed, policy)?;
        let artifact = Arc::new(ModelArtifact {
            schema_version: MODEL_SCHEMA_VERSION,
            machine: MACHINE_UNKNOWN.to_string(),
            machine_digest: 0,
            spec: ModelSpec {
                kind,
                set,
                plan: plan_from_samples(samples),
                seed,
                robust: policy.is_some(),
            },
            data_digest: samples_digest(samples),
            samples: samples.len(),
            train_loss: predictor.train_loss(),
            predictor,
        });
        self.remember(&artifact);
        Ok(TrainedModel { artifact, report })
    }

    /// The digest [`ModelRegistry::resolve`] would address for this
    /// request — computable without running a single training scenario
    /// (the data digest folds scenario IRs, not measurements).
    pub fn request_digest(&self, lab: &Lab, req: &TrainRequest) -> u128 {
        let spec = lab.machine().spec();
        let model_spec = ModelSpec {
            kind: req.kind,
            set: req.set,
            plan: req.plan.clone(),
            seed: req.seed,
            robust: req.policy.is_some(),
        };
        provenance_digest(
            &spec.name,
            machine_spec_digest(spec),
            &model_spec,
            lab.plan_digest(&req.plan.scenarios()),
        )
    }

    /// Resolve a request to its artifact: return the memoized artifact
    /// when one with the same digest exists, train otherwise. Errors are
    /// not memoized — a transient failure retrains on the next call.
    pub fn resolve(&self, lab: &Lab, req: &TrainRequest) -> Result<Arc<ModelArtifact>> {
        let digest = self.request_digest(lab, req);
        if let Some(hit) = self.cache.lock().expect("registry cache lock").get(&digest) {
            return Ok(hit.clone());
        }
        let trained = self.train(lab, req)?;
        debug_assert_eq!(trained.artifact.digest(), digest);
        Ok(trained.artifact)
    }

    /// Persist an artifact (atomically: temp file + rename).
    pub fn save(&self, artifact: &ModelArtifact, path: impl AsRef<Path>) -> Result<()> {
        persist::save_json(artifact, path)
    }

    /// Load an artifact saved with [`ModelRegistry::save`]. I/O and parse
    /// failures carry the path ([`ColocError::ArtifactIo`] /
    /// [`ColocError::CorruptArtifact`]); a schema-version mismatch is a
    /// [`ColocError::CorruptArtifact`] naming both versions, and so is a
    /// predictor whose parts disagree on its input arity
    /// ([`Predictor::check_shape`]) — it would panic on first use. The
    /// loaded artifact joins the digest cache.
    pub fn load(&self, path: impl AsRef<Path>) -> Result<Arc<ModelArtifact>> {
        let path = path.as_ref();
        let artifact: ModelArtifact = persist::load_json(path)?;
        let corrupt = |detail| ColocError::CorruptArtifact {
            path: path.display().to_string(),
            detail,
        };
        if artifact.schema_version != MODEL_SCHEMA_VERSION {
            return Err(corrupt(format!(
                "artifact schema version {} (this build reads version {})",
                artifact.schema_version, MODEL_SCHEMA_VERSION
            )));
        }
        artifact.predictor.check_shape().map_err(corrupt)?;
        let artifact = Arc::new(artifact);
        self.remember(&artifact);
        Ok(artifact)
    }

    fn remember(&self, artifact: &Arc<ModelArtifact>) {
        self.cache
            .lock()
            .expect("registry cache lock")
            .insert(artifact.digest(), artifact.clone());
    }

    /// Number of distinct artifacts memoized.
    pub fn cached(&self) -> usize {
        self.cache.lock().expect("registry cache lock").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use coloc_machine::presets;

    fn lab() -> Lab {
        Lab::new(presets::xeon_e5649(), coloc_workloads::standard(), 17)
            .unwrap()
            .with_threads(4)
    }

    fn small_request() -> TrainRequest {
        TrainRequest {
            kind: ModelKind::Linear,
            set: FeatureSet::F,
            plan: TrainingPlan {
                pstates: vec![0],
                targets: vec!["cg".into(), "ep".into(), "canneal".into()],
                co_runners: vec!["cg".into(), "blackscholes".into()],
                counts: vec![1, 2, 3],
            },
            seed: 1,
            policy: None,
        }
    }

    #[test]
    fn resolve_memoizes_by_digest_and_two_processes_agree() {
        let lab = lab();
        let req = small_request();
        let r1 = ModelRegistry::new();
        let a = r1.resolve(&lab, &req).unwrap();
        let b = r1.resolve(&lab, &req).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second resolve must hit the cache");
        assert_eq!(r1.cached(), 1);

        // An independent registry (a different process, in effect)
        // resolves the same request to the same digest — model identity
        // is a pure function of provenance.
        let r2 = ModelRegistry::new();
        let c = r2.resolve(&lab, &req).unwrap();
        assert_eq!(a.digest(), c.digest());
        assert_eq!(a.digest(), r1.request_digest(&lab, &req));
    }

    #[test]
    fn digest_separates_every_provenance_field() {
        let lab = lab();
        let r = ModelRegistry::new();
        let base = r.request_digest(&lab, &small_request());
        let mut req = small_request();
        req.seed = 2;
        assert_ne!(r.request_digest(&lab, &req), base, "seed");
        let mut req = small_request();
        req.kind = ModelKind::QuadraticLinear;
        assert_ne!(r.request_digest(&lab, &req), base, "kind");
        let mut req = small_request();
        req.set = FeatureSet::A;
        assert_ne!(r.request_digest(&lab, &req), base, "set");
        let mut req = small_request();
        req.policy = Some(TrainPolicy::default());
        assert_ne!(r.request_digest(&lab, &req), base, "robust flag");
        let mut req = small_request();
        req.plan.counts = vec![1];
        assert_ne!(r.request_digest(&lab, &req), base, "plan");
    }

    #[test]
    fn save_load_round_trip_preserves_digest_and_predictions() {
        let lab = lab();
        let r = ModelRegistry::new();
        let trained = r.train(&lab, &small_request()).unwrap();
        let dir = std::env::temp_dir().join(format!("coloc-registry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round_trip.model.json");
        r.save(&trained.artifact, &path).unwrap();

        let fresh = ModelRegistry::new();
        let loaded = fresh.load(&path).unwrap();
        assert_eq!(loaded.digest(), trained.artifact.digest());
        assert_eq!(loaded.spec, trained.artifact.spec);
        let f = lab
            .featurize(&Scenario {
                target: "cg".into(),
                co_located: vec![("blackscholes".into(), 2)],
                pstate: 0,
            })
            .unwrap();
        assert_eq!(
            loaded.predictor.predict(&f).to_bits(),
            trained.artifact.predictor.predict(&f).to_bits()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_wrong_schema_version_with_path() {
        let lab = lab();
        let r = ModelRegistry::new();
        let trained = r.train(&lab, &small_request()).unwrap();
        let dir = std::env::temp_dir().join(format!("coloc-registry-v-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wrong_schema.model.json");
        r.save(&trained.artifact, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let bumped = text.replacen(
            &format!("\"schema_version\": {MODEL_SCHEMA_VERSION}"),
            &format!("\"schema_version\": {}", MODEL_SCHEMA_VERSION + 1),
            1,
        );
        assert_ne!(text, bumped, "fixture must actually change the version");
        std::fs::write(&path, bumped).unwrap();
        match r.load(&path) {
            Err(ColocError::CorruptArtifact { path: p, detail }) => {
                assert!(p.ends_with("wrong_schema.model.json"), "{p}");
                assert!(detail.contains("schema version"), "{detail}");
            }
            other => panic!("expected CorruptArtifact, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    /// Drop the last element of the first flat JSON array named `key`.
    fn drop_last(json: &str, key: &str) -> String {
        let open = json.find(&format!("\"{key}\": [")).expect("key present") + key.len() + 5;
        let close = open + json[open..].find(']').expect("array closes");
        let cut = json[open..close].rfind(',').expect("two or more elements");
        format!("{}{}", &json[..open + cut], &json[close..])
    }

    fn expect_corrupt(r: &ModelRegistry, path: &Path, what: &str) {
        match r.load(path) {
            Err(ColocError::CorruptArtifact { path: p, .. }) => {
                assert_eq!(p, path.display().to_string(), "{what}");
            }
            other => panic!("{what}: expected CorruptArtifact, got {other:?}"),
        }
    }

    #[test]
    fn load_rejects_predictors_that_would_panic_on_first_use() {
        let dir = std::env::temp_dir().join(format!("coloc-registry-a-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("arity.model.json");
        let r = ModelRegistry::new();

        // The golden artifact, one coefficient short.
        let golden = include_str!("../tests/fixtures/model_artifact.json");
        std::fs::write(&path, drop_last(golden, "coeffs")).unwrap();
        expect_corrupt(&r, &path, "golden minus one coefficient");

        // Every model kind, each part that fixes an arity cut short. The
        // quadratic expansion of set F needs more than 44 samples.
        let mut plan = small_request().plan;
        plan.pstates = vec![0, 1, 2];
        let samples = lab().collect(&plan).unwrap();
        let cases: [(ModelKind, &[&str]); 3] = [
            (ModelKind::Linear, &["coeffs", "means", "stds"]),
            (ModelKind::NeuralNet, &["params", "means", "stds"]),
            (ModelKind::QuadraticLinear, &["coeffs", "means"]),
        ];
        for (kind, keys) in cases {
            let artifact = r
                .train_from_samples(&samples, kind, FeatureSet::F, 1, None)
                .unwrap()
                .artifact;
            r.save(&artifact, &path).unwrap();
            let intact = std::fs::read_to_string(&path).unwrap();
            assert_eq!(r.load(&path).unwrap().digest(), artifact.digest(), "{kind}");
            for key in keys {
                std::fs::write(&path, drop_last(&intact, key)).unwrap();
                expect_corrupt(&r, &path, &format!("{kind} minus one `{key}` entry"));
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_failure_is_not_cached_and_is_retryable() {
        let r = ModelRegistry::new();
        let dir = std::env::temp_dir().join(format!("coloc-registry-r-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("late.model.json");
        std::fs::remove_file(&path).ok();

        let err = r.load(&path).unwrap_err();
        assert!(
            matches!(err, ColocError::ArtifactIo { .. }),
            "missing file must be a typed I/O error: {err:?}"
        );
        assert_eq!(r.cached(), 0, "failures are never memoized");

        // The artifact appears later; the same registry now succeeds.
        let lab = lab();
        let trained = r.train(&lab, &small_request()).unwrap();
        r.save(&trained.artifact, &path).unwrap();
        let loaded = r.load(&path).unwrap();
        assert_eq!(loaded.digest(), trained.artifact.digest());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sample_trained_artifacts_reconstruct_plan_provenance() {
        let lab = lab();
        let samples = lab.collect(&small_request().plan).unwrap();
        let r = ModelRegistry::new();
        let trained = r
            .train_from_samples(&samples, ModelKind::Linear, FeatureSet::F, 1, None)
            .unwrap();
        let a = &trained.artifact;
        assert_eq!(a.machine, MACHINE_UNKNOWN);
        assert_eq!(a.machine_digest, 0);
        assert_eq!(a.spec.plan.pstates, vec![0]);
        assert_eq!(
            a.spec.plan.targets,
            vec!["cg".to_string(), "ep".to_string(), "canneal".to_string()]
        );
        assert_eq!(a.data_digest, samples_digest(&samples));
        // Same samples → same digest; any sample perturbation changes it.
        let again = r
            .train_from_samples(&samples, ModelKind::Linear, FeatureSet::F, 1, None)
            .unwrap();
        assert_eq!(a.digest(), again.artifact.digest());
        let mut tweaked = samples.clone();
        tweaked[0].actual_time_s *= 1.0 + 1e-9;
        let other = r
            .train_from_samples(&tweaked, ModelKind::Linear, FeatureSet::F, 1, None)
            .unwrap();
        assert_ne!(a.digest(), other.artifact.digest());
    }

    #[test]
    fn robust_and_plain_linear_training_agree_bitwise() {
        // Attempt 0 of the robust ladder uses the caller's seed unchanged,
        // so on clean data the two pipelines produce the same weights —
        // the property that let serve and the CLI move onto the registry
        // without changing a single prediction.
        let lab = lab();
        let r = ModelRegistry::new();
        let plain = r.train(&lab, &small_request()).unwrap();
        let mut robust_req = small_request();
        robust_req.policy = Some(TrainPolicy::default());
        let robust = r.train(&lab, &robust_req).unwrap();
        assert_ne!(
            plain.artifact.digest(),
            robust.artifact.digest(),
            "provenance records the pipeline"
        );
        let f = lab.featurize(&Scenario::solo("cg", 0)).unwrap();
        assert_eq!(
            plain.artifact.predictor.predict(&f).to_bits(),
            robust.artifact.predictor.predict(&f).to_bits()
        );
        assert!(robust.report.is_some());
        assert!(plain.report.is_none());
    }
}
