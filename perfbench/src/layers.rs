//! The per-scenario layer path, replayed call by call under spans.
//!
//! `Lab::collect_scenarios`, the service's `measure`/`predict` answers and
//! the placement oracle all run a scenario through the same layers:
//! lowering (`Lab::scenario_ir`), the canonical digest (`ScenarioIr::digest`,
//! computed as the cache computes it, `RunCache::key_for_scheduled`), a
//! run-cache probe (`RunCache::peek`), the
//! engine on a miss (`RunCache::run_scheduled_observed` with a
//! `StageProfile`), featurization (`Lab::featurize`) and, where a model
//! answers, `Predictor::predict`. [`Replay`] calls those public functions
//! one by one with a span around each, so the traced pass times every
//! layer from outside the program.

use crate::report::Report;
use crate::trace::{LayerTotals, Tracer};
use coloc_machine::{CacheStats, RunCache, StageId, StageProfile};
use coloc_model::{ColocError, Lab, Predictor, Sample, Scenario};
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-metric samples gathered across a run's traced iterations; each
/// metric reports the median.
#[derive(Default)]
pub struct Samples(BTreeMap<String, (&'static str, Vec<f64>)>);

impl Samples {
    /// Add one sample.
    pub fn add(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.0
            .entry(name.into())
            .or_insert((unit, Vec::new()))
            .1
            .push(value);
    }

    /// Move every metric into `report`.
    pub fn into_report(self, report: &mut Report) {
        for (name, (unit, samples)) in self.0 {
            report.put(name, unit, samples);
        }
    }
}

/// One lab's layer path, with the engine work it did.
pub struct Replay<'a> {
    lab: &'a Lab,
    cache: RunCache,
    predictor: Option<&'a Predictor>,
    profile: StageProfile,
    segments: u64,
    fp_iterations: u64,
}

impl<'a> Replay<'a> {
    /// A replay over `lab` with an empty run cache of the default size.
    pub fn new(lab: &'a Lab, predictor: Option<&'a Predictor>) -> Replay<'a> {
        Replay {
            lab,
            cache: RunCache::default(),
            predictor,
            profile: StageProfile::new(),
            segments: 0,
            fp_iterations: 0,
        }
    }

    /// The measure half of the path: lower, digest, probe, and the engine
    /// on a miss. Returns the target's measured wall time.
    pub fn measure(
        &mut self,
        tr: &mut Tracer,
        request: u64,
        sc: &Scenario,
    ) -> Result<f64, ColocError> {
        let ir = tr.span("lab.lower", request, |_| self.lab.scenario_ir(sc))?;
        // The canonical digest as the run cache keys it: bit-identical to
        // `ScenarioIr::digest`, through the cache's digest memo.
        let key = tr.span("ir.digest", request, |_| {
            self.cache.key_for_scheduled(
                self.lab.machine(),
                &ir.workload,
                &ir.opts,
                ir.faults.as_ref(),
                ir.schedules.as_deref(),
            )
        });
        if let Some(hit) = tr.span("cache.probe", request, |_| self.cache.peek(key)) {
            return Ok(hit.wall_time_s);
        }
        let (outcome, _) = tr.span("engine.run", request, |_| {
            self.cache.run_scheduled_observed(
                self.lab.machine(),
                &ir.workload,
                ir.schedules.as_deref(),
                &ir.opts,
                ir.faults.as_ref(),
                Some(&mut self.profile),
            )
        })?;
        self.segments += outcome.segments as u64;
        self.fp_iterations += outcome.fp_iterations;
        Ok(outcome.wall_time_s)
    }

    /// Featurize `sc`, and predict from the features when the replay
    /// carries a predictor.
    pub fn features(
        &self,
        tr: &mut Tracer,
        request: u64,
        sc: &Scenario,
    ) -> Result<([f64; 8], Option<f64>), ColocError> {
        let features = tr.span("features.featurize", request, |_| self.lab.featurize(sc))?;
        let predicted = self
            .predictor
            .map(|p| tr.span("predictor.predict", request, |_| p.predict(&features)));
        Ok((features, predicted))
    }

    /// Run `sc` through every layer, inside a `root` span for `request`;
    /// returns exactly what `Lab::sample` returns for it.
    pub fn scenario(
        &mut self,
        tr: &mut Tracer,
        root: &'static str,
        request: u64,
        sc: &Scenario,
    ) -> Result<Sample, ColocError> {
        tr.span(root, request, |tr| {
            let actual_time_s = self.measure(tr, request, sc)?;
            let (features, _) = self.features(tr, request, sc)?;
            Ok(Sample {
                scenario: sc.clone(),
                features,
                actual_time_s,
            })
        })
    }

    /// The replay's run-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

/// Per-layer samples shared by every workload's traced pass: mean time
/// per call of each layer span, and the engine's stage profile and exact
/// work counts summed over `replays`.
pub fn add_layer_samples(
    acc: &mut Samples,
    spans: &BTreeMap<&'static str, LayerTotals>,
    replays: &[Replay<'_>],
) {
    let mean = |name: &str| spans.get(name).map_or(0.0, LayerTotals::mean_ns);
    acc.add("lab.lower_ns", "ns", mean("lab.lower"));
    acc.add("ir.digest_ns", "ns", mean("ir.digest"));
    acc.add("cache.probe_ns", "ns", mean("cache.probe"));
    acc.add("features.featurize_ns", "ns", mean("features.featurize"));
    if spans.contains_key("predictor.predict") {
        acc.add("predictor.predict_ns", "ns", mean("predictor.predict"));
    }

    let mut profile = StageProfile::new();
    let (mut segments, mut fp_iterations) = (0, 0);
    for r in replays {
        profile.merge(&r.profile);
        segments += r.segments;
        fp_iterations += r.fp_iterations;
    }
    let engine = spans.get("engine.run").copied().unwrap_or_default();
    acc.add("engine.run_us", "us", engine.mean_ns() / 1e3);
    let mut staged = 0;
    for id in StageId::ALL {
        let s = profile.get(id);
        staged += s.nanos;
        let per_call = if s.invocations == 0 {
            0.0
        } else {
            s.nanos as f64 / s.invocations as f64
        };
        acc.add(format!("engine.stage.{}.ns", id.label()), "ns", per_call);
        acc.add(
            format!("engine.stage.{}.calls", id.label()),
            "count",
            s.invocations as f64,
        );
    }
    let runs = engine.calls.max(1) as f64;
    acc.add(
        "engine.unattributed_ns",
        "ns",
        engine.total_ns.saturating_sub(staged) as f64 / runs,
    );
    acc.add("engine.segments", "count", segments as f64);
    acc.add("engine.fp_iterations", "count", fp_iterations as f64);
}

/// Run-cache traffic of the measured path, summed over its caches.
pub fn add_cache_samples(acc: &mut Samples, stats: impl IntoIterator<Item = CacheStats>) {
    let mut cache = CacheStats::default();
    for s in stats {
        cache.hits += s.hits;
        cache.misses += s.misses;
        cache.evictions += s.evictions;
    }
    acc.add("cache.hits", "count", cache.hits as f64);
    acc.add("cache.misses", "count", cache.misses as f64);
    acc.add("cache.evictions", "count", cache.evictions as f64);
    let lookups = (cache.hits + cache.misses).max(1) as f64;
    acc.add("cache.hit_ratio", "ratio", cache.hits as f64 / lookups);
}

/// Seconds for one cold 1-worker `collect_scenarios` over `scenarios` on
/// a fresh lab, with the engine's stage instrumentation on or off.
pub fn cold_pass_s(
    spec: &coloc_machine::MachineSpec,
    lab_seed: u64,
    scenarios: &[Scenario],
    stage_stats: bool,
) -> Result<f64, ColocError> {
    let lab = Lab::new(spec.clone(), coloc_workloads::standard(), lab_seed)?
        .with_threads(1)
        .with_stage_stats(stage_stats);
    lab.baselines();
    let t0 = Instant::now();
    std::hint::black_box(lab.collect_scenarios(scenarios)?);
    Ok(t0.elapsed().as_secs_f64())
}

/// `engine.stage_stats_cost_pct`: how much slower a cold 1-worker pass
/// over `scenarios` runs with stage instrumentation on, in percent.
pub fn stage_stats_cost_pct(
    spec: &coloc_machine::MachineSpec,
    lab_seed: u64,
    scenarios: &[Scenario],
) -> Result<f64, ColocError> {
    let off = cold_pass_s(spec, lab_seed, scenarios, false)?;
    let on = cold_pass_s(spec, lab_seed, scenarios, true)?;
    Ok((on / off - 1.0) * 100.0)
}

/// Whether two sample lists are bit-identical: same scenarios, same
/// feature bits, same measured-time bits. Returns the first difference.
pub fn first_difference(a: &[Sample], b: &[Sample]) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("{} vs {} samples", a.len(), b.len()));
    }
    a.iter()
        .zip(b)
        .position(|(x, y)| {
            x.scenario != y.scenario
                || x.actual_time_s.to_bits() != y.actual_time_s.to_bits()
                || x.features
                    .iter()
                    .zip(&y.features)
                    .any(|(p, q)| p.to_bits() != q.to_bits())
        })
        .map(|i| format!("sample {i} ({}) differs", a[i].scenario.label()))
}
