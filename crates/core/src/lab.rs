//! The measurement laboratory: machines + suite + deterministic seeds.
//!
//! [`Lab`] is the reproduction of the paper's testing environment (§IV):
//! a machine (simulated Xeon), a benchmark suite, and the measurement
//! procedures — baseline profiling through the PAPI-like counter layer,
//! co-location runs, featurization, and parallel sweep collection.

use crate::baseline::{AppBaseline, BaselineDb};
use crate::features::feature_row;
use crate::plan::TrainingPlan;
use crate::sample::Sample;
use crate::scenario::Scenario;
use crate::{ColocError, Result};
use coloc_cachesim::stream::DigestSlots;
use coloc_machine::{
    FaultPlan, GroupRef, IrWriter, Machine, MachineSpec, RunCache, RunOptions, RunOutcome,
    RunnerGroup, ScenarioIr, StageProfile,
};
use coloc_ml::rng::{derive_seed, derive_seed_fmt};
use coloc_perfmon::{EventSet, FlatProfiler};
use coloc_workloads::Benchmark;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default measurement-noise σ: the paper's per-partition error spread is
/// "at most a quarter of a percent", consistent with sub-percent
/// run-to-run timing variation.
pub const DEFAULT_NOISE_SIGMA: f64 = 0.008;

/// Sweep-runtime telemetry: what the lab actually did, as opposed to what
/// it was asked for. Scenario counts and cache traffic diverge exactly
/// when memoization is paying off.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SweepStats {
    /// Scenario executions requested (cache hits included).
    pub scenarios_run: u64,
    /// Runs answered from the memo cache.
    pub cache_hits: u64,
    /// Runs that reached the engine.
    pub cache_misses: u64,
    /// Cache entries displaced by the capacity bound.
    pub cache_evictions: u64,
    /// Piecewise-constant segments actually simulated (misses only).
    pub segments_simulated: u64,
    /// Fixed-point solver iterations of the runs that reached the engine
    /// (misses only), skipped cycle periods included.
    pub fp_iterations: u64,
    /// Measurement faults injected by the lab's [`FaultPlan`] (fresh runs
    /// only; memoized replays of a faulted run do not re-count).
    pub faults_injected: u64,
    /// Wall time spent inside parallel sweeps ([`Lab::collect`] /
    /// [`Lab::collect_scenarios`]), seconds.
    pub sweep_wall_time_s: f64,
    /// Per-stage engine calls and time of the runs that reached the
    /// engine. Empty unless [`Lab::with_stage_stats`] enabled
    /// instrumentation (the un-instrumented engine path pays no timing
    /// cost).
    pub stages: StageProfile,
}

impl std::fmt::Display for SweepStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} scenarios ({} cache hits, {} misses, {} evictions), \
             {} segments, {} fixed-point iters, {} faults injected, \
             {:.2}s sweep wall time",
            self.scenarios_run,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.segments_simulated,
            self.fp_iterations,
            self.faults_injected,
            self.sweep_wall_time_s,
        )
    }
}

/// A machine + suite measurement environment.
///
/// The lab keeps one set of [`DigestSlots`] per suite application, in
/// suite order, and hands them to every group it lowers, so a run-cache
/// key absorbs each application's whole encoding as one multiply-add
/// once its slot is filled, with the same bits as the byte-by-byte
/// encoding. The slots cannot go stale: the lab owns its suite, sets it
/// once in [`Lab::new`] and only ever lends it out immutably, so each
/// application's encoded bytes never change. A set is allocated when
/// its application is first lowered.
pub struct Lab {
    machine: Machine,
    suite: Vec<Benchmark>,
    /// Digest slots of each suite application's encoding, parallel to
    /// `suite`, allocated on the application's first lowering (about 8
    /// KiB each), so building a lab allocates none.
    app_slots: Vec<OnceLock<Box<DigestSlots>>>,
    seed: u64,
    noise_sigma: f64,
    /// Worker threads for sweeps; 0 = one per available CPU.
    threads: usize,
    /// Measurement-fault injection plan; `None` = healthy lab.
    faults: Option<FaultPlan>,
    baselines: OnceLock<BaselineDb>,
    run_cache: RunCache,
    /// Per-stage engine instrumentation, merged across all runs when
    /// enabled via [`Lab::with_stage_stats`]; `None` = uninstrumented.
    stage_profile: Option<Mutex<StageProfile>>,
    segments_simulated: AtomicU64,
    fp_iterations: AtomicU64,
    scenarios_run: AtomicU64,
    faults_injected: AtomicU64,
    /// Nanoseconds spent inside parallel sweeps.
    sweep_nanos: AtomicU64,
}

impl Lab {
    /// Create a lab for `spec` over `suite`, seeding all measurement noise
    /// from `seed`. Uses [`DEFAULT_NOISE_SIGMA`]; adjust with
    /// [`Lab::with_noise`]. Fails with [`ColocError::InvalidSpec`] when the
    /// machine spec does not validate.
    pub fn new(spec: MachineSpec, suite: Vec<Benchmark>, seed: u64) -> Result<Lab> {
        Ok(Lab {
            machine: Machine::new(spec)?,
            app_slots: suite.iter().map(|_| OnceLock::new()).collect(),
            suite,
            seed,
            noise_sigma: DEFAULT_NOISE_SIGMA,
            threads: 0,
            faults: None,
            baselines: OnceLock::new(),
            run_cache: RunCache::default(),
            stage_profile: None,
            segments_simulated: AtomicU64::new(0),
            fp_iterations: AtomicU64::new(0),
            scenarios_run: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
            sweep_nanos: AtomicU64::new(0),
        })
    }

    /// Override the measurement-noise σ (0 = noiseless). Resets cached
    /// baselines and invalidates the run cache: every cache key embeds
    /// the noise σ, so stale entries could never be returned, but dropping
    /// them keeps the capacity bound working for the new configuration.
    pub fn with_noise(mut self, sigma: f64) -> Lab {
        self.noise_sigma = sigma;
        self.baselines = OnceLock::new();
        self.run_cache.clear();
        self
    }

    /// Inject measurement faults into every subsequent co-location run
    /// according to `plan`. Baselines stay clean — they are measured
    /// through the flat profiler, below the fault layer, matching the
    /// paper's assumption that the one-off solo characterization is
    /// curated while sweep measurements are exposed to flakiness.
    ///
    /// The run cache is cleared because the plan changes every cache key;
    /// fails with [`ColocError::InvalidSpec`] when `plan` has nonsensical
    /// rates.
    pub fn with_faults(mut self, plan: FaultPlan) -> Result<Lab> {
        plan.validate()
            .map_err(coloc_machine::MachineError::InvalidFaultPlan)?;
        self.faults = Some(plan);
        self.run_cache.clear();
        Ok(self)
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Set how many threads work on one parallel sweep
    /// ([`Lab::collect_scenarios`], [`Lab::run_scenarios_batch`]); 0 =
    /// one per available CPU, 1 = on the calling thread. The threads are
    /// helpers of the process-wide worker pool
    /// ([`coloc_ml::parallel::run_indexed`]), started once and reused,
    /// and the caller waits while they work. Results are bit-identical at
    /// any setting; this only controls resources.
    pub fn with_threads(mut self, threads: usize) -> Lab {
        self.threads = threads;
        self
    }

    /// Enable (or disable) per-stage engine instrumentation. When on,
    /// every fresh (cache-missing) run is timed stage by stage and the
    /// counters surface through [`SweepStats::stages`]. Outcomes are
    /// bit-identical either way; only the timing bookkeeping toggles.
    pub fn with_stage_stats(mut self, enabled: bool) -> Lab {
        self.stage_profile = enabled.then(|| Mutex::new(StageProfile::new()));
        self
    }

    /// The simulated machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The benchmark suite.
    pub fn suite(&self) -> &[Benchmark] {
        &self.suite
    }

    /// The lab's base seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Look up a suite application by name.
    pub fn app(&self, name: &str) -> Result<&Benchmark> {
        Ok(&self.suite[self.app_index(name)?])
    }

    /// The suite index of the application named `name`.
    fn app_index(&self, name: &str) -> Result<usize> {
        self.suite
            .iter()
            .position(|b| b.name == name)
            .ok_or_else(|| ColocError::UnknownApp(name.to_string()))
    }

    /// Run options at P-state 0, seeded from the bytes `label` displays
    /// as and `stream`.
    fn run_options(&self, label: impl std::fmt::Display, stream: u64) -> RunOptions {
        RunOptions {
            pstate: 0,
            seed: derive_seed(derive_seed_fmt(self.seed, label), stream),
            noise_sigma: self.noise_sigma,
            ..RunOptions::default()
        }
    }

    /// Baseline measurements for every suite application: solo execution
    /// time at each P-state (through the flat profiler) plus one counter
    /// sample for the cache ratios. Computed once and cached.
    pub fn baselines(&self) -> &BaselineDb {
        self.baselines.get_or_init(|| {
            let profiler = FlatProfiler::new(&self.machine, EventSet::methodology());
            let mut db = BaselineDb::new();
            for b in &self.suite {
                let mut exec_time_s = Vec::new();
                let mut derived = None;
                for p in 0..self.machine.spec().num_pstates() {
                    let mut opts = self.run_options(b.name, 7_000 + p as u64);
                    opts.pstate = p;
                    let profile = profiler
                        .profile_solo(&b.app, &opts)
                        .expect("baseline run cannot fail for a validated suite");
                    exec_time_s.push(profile.wall_time_s);
                    if p == 0 {
                        derived = Some(profile.derived());
                    }
                }
                let d = derived.expect("at least one P-state");
                db.insert(AppBaseline {
                    name: b.name.to_string(),
                    exec_time_s,
                    memory_intensity: d.memory_intensity,
                    cm_ca: d.miss_ratio,
                    ca_ins: d.access_ratio,
                });
            }
            db
        })
    }

    /// Lower a scenario onto borrowed parts: its groups resolved into the
    /// lab's own suite (target first, zero-count co-groups dropped), each
    /// with its application's digest slots, and its run options, seeded
    /// from the label bytes as `Scenario`'s `Display` writes them.
    /// Nothing is cloned and no label is built.
    fn lower(&self, scenario: &Scenario) -> Result<(Vec<GroupRef<'_>>, RunOptions)> {
        let mut groups = Vec::with_capacity(1 + scenario.co_located.len());
        groups.push(self.group(&scenario.target, 1)?);
        for (name, count) in scenario.co_groups() {
            groups.push(self.group(name, count)?);
        }
        let mut opts = self.run_options(scenario, 1);
        opts.pstate = scenario.pstate;
        Ok((groups, opts))
    }

    /// `count` instances of the suite application `name`, with its
    /// digest slots.
    fn group(&self, name: &str, count: usize) -> Result<GroupRef<'_>> {
        let i = self.app_index(name)?;
        Ok(GroupRef {
            app: &self.suite[i].app,
            count,
            slots: Some(self.app_slots[i].get_or_init(Box::default)),
        })
    }

    /// The run-cache key the lab runs a lowered scenario under.
    fn key(&self, groups: &[GroupRef<'_>], opts: &RunOptions) -> u128 {
        self.run_cache
            .key_for_scheduled(&self.machine, groups, opts, self.faults.as_ref(), None)
    }

    /// Lower a [`Scenario`] to the canonical [`ScenarioIr`] this lab
    /// would execute it as: the resolved workload, the derived run
    /// options (seed stream, noise σ, P-state), and the lab's fault
    /// plan. [`Lab::run_scenario`] runs the same pieces borrowed from the
    /// lab's suite, under the run-cache key that equals this IR's
    /// digest, and [`Lab::plan_digest`] folds that key — one encoding
    /// for what runs, what is cached, and what is resumable.
    pub fn scenario_ir(&self, scenario: &Scenario) -> Result<ScenarioIr> {
        let (groups, opts) = self.lower(scenario)?;
        let workload = groups
            .iter()
            .map(|g| RunnerGroup {
                app: g.app.clone(),
                count: g.count,
            })
            .collect();
        let ir = ScenarioIr::new(self.machine.spec().clone(), workload, opts);
        Ok(match &self.faults {
            Some(plan) => ir.with_faults(*plan),
            None => ir,
        })
    }

    /// Execute one scenario and return the target's measured wall time.
    /// Identical `(workload, options)` pairs are answered from the run
    /// cache; determinism makes the memoized outcome bit-identical to a
    /// fresh simulation.
    pub fn run_scenario(&self, scenario: &Scenario) -> Result<f64> {
        Ok(self.run_outcome(scenario)?.wall_time_s)
    }

    /// Execute one scenario like [`Lab::run_scenario`] and return the full
    /// engine outcome (counters, segments, convergence — not just the wall
    /// time). The matrix artifact reads per-group counter blocks from
    /// here; the memoized outcome is bit-identical to a fresh simulation.
    pub fn run_outcome(&self, scenario: &Scenario) -> Result<Arc<RunOutcome>> {
        let (groups, opts) = self.lower(scenario)?;
        self.run_groups(&groups, &opts)
    }

    /// The lab's one call into the run cache, over groups borrowed from
    /// its suite, with its fault plan, stage profiling and sweep
    /// telemetry.
    fn run_groups(&self, groups: &[GroupRef<'_>], opts: &RunOptions) -> Result<Arc<RunOutcome>> {
        let mut profile = self.stage_profile.as_ref().map(|_| StageProfile::new());
        let (outcome, hit) = self.run_cache.run_scheduled_observed(
            &self.machine,
            groups,
            None,
            opts,
            self.faults.as_ref(),
            profile.as_mut(),
        )?;
        if let (Some(shared), Some(local)) = (&self.stage_profile, &profile) {
            shared.lock().expect("stage profile lock").merge(local);
        }
        self.scenarios_run.fetch_add(1, Ordering::Relaxed);
        if !hit {
            self.segments_simulated
                .fetch_add(outcome.segments as u64, Ordering::Relaxed);
            self.fp_iterations
                .fetch_add(outcome.fp_iterations, Ordering::Relaxed);
            self.faults_injected
                .fetch_add(outcome.faults.len() as u64, Ordering::Relaxed);
        }
        Ok(outcome)
    }

    /// Execute a scenario batch: duplicates (by run-cache key) collapse
    /// onto one run, and the distinct scenarios fan out across the lab's
    /// worker threads ([`coloc_ml::parallel::run_indexed`]) through the
    /// run path of [`Lab::run_scenario`]. Returns measured wall times in
    /// request order, bit-identical to calling [`Lab::run_scenario`] per
    /// element at any thread count.
    ///
    /// This is the placement-oracle entry point: a placement wave asks
    /// for thousands of socket outcomes at once, most of them repeats.
    /// Telemetry counts the batch as the same requests made one by one:
    /// R requests that needed M engine runs add M misses and R − M hits.
    /// On failure the error of the first failing request, in request
    /// order, is returned.
    pub fn run_scenarios_batch(&self, scenarios: &[Scenario]) -> Result<Vec<f64>> {
        let lowered = scenarios
            .iter()
            .map(|sc| self.lower(sc))
            .collect::<Result<Vec<_>>>()?;
        let mut seen = HashSet::new();
        let is_first: Vec<bool> = lowered
            .iter()
            .map(|(groups, opts)| seen.insert(self.key(groups, opts)))
            .collect();
        let distinct: Vec<_> = lowered
            .iter()
            .zip(&is_first)
            .filter_map(|(low, &first)| first.then_some(low))
            .collect();
        let wall_time = |(groups, opts): &(Vec<GroupRef<'_>>, RunOptions)| {
            self.run_groups(groups, opts).map(|o| o.wall_time_s)
        };
        let mut firsts = coloc_ml::parallel::run_indexed(distinct.len(), self.threads, |d| {
            wall_time(distinct[d])
        })
        .into_iter();
        // Repeats run after every first occurrence is resident, so each
        // is a cache hit, exactly as it would be when asked one by one.
        lowered
            .iter()
            .zip(is_first)
            .map(|(low, first)| {
                if first {
                    firsts.next().expect("one result per distinct scenario")
                } else {
                    wall_time(low)
                }
            })
            .collect()
    }

    /// Probe the run cache for a scenario without ever simulating:
    /// `Ok(Some(t))` when this exact run is memoized (bit-identical to
    /// what [`Lab::run_scenario`] would return), `Ok(None)` when
    /// answering would need the engine. This is the degraded path of an
    /// overloaded prediction service — a probe costs one digest and one
    /// shard lock, never a simulation. A resident probe counts as a
    /// cache hit (it is one); a miss is not counted, because nothing
    /// fell through to the engine.
    pub fn cached_run(&self, scenario: &Scenario) -> Result<Option<f64>> {
        let (groups, opts) = self.lower(scenario)?;
        Ok(self
            .run_cache
            .peek(self.key(&groups, &opts))
            .map(|o| o.wall_time_s))
    }

    /// Snapshot the sweep-runtime telemetry accumulated so far.
    pub fn sweep_stats(&self) -> SweepStats {
        let cache = self.run_cache.stats();
        SweepStats {
            scenarios_run: self.scenarios_run.load(Ordering::Relaxed),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            segments_simulated: self.segments_simulated.load(Ordering::Relaxed),
            fp_iterations: self.fp_iterations.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            sweep_wall_time_s: self.sweep_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
            stages: self
                .stage_profile
                .as_ref()
                .map(|m| *m.lock().expect("stage profile lock"))
                .unwrap_or_default(),
        }
    }

    /// Compute the full eight-feature vector for a scenario from baseline
    /// data only (paper Table I): `features::feature_row` over the lab's
    /// [`BaselineDb`]. Fails, in this order, on a core count that
    /// overflows `usize` ([`ColocError::InvalidSpec`]), an unknown target,
    /// a P-state the baselines lack, and an unknown co-runner.
    pub fn featurize(&self, scenario: &Scenario) -> Result<[f64; 8]> {
        let db = self.baselines();
        feature_row(scenario, |app, p| db.time_at(app, p), |app| db.ratios(app))
    }

    /// Run and featurize one scenario.
    pub fn sample(&self, scenario: &Scenario) -> Result<Sample> {
        let features = self.featurize(scenario)?;
        let actual_time_s = self.run_scenario(scenario)?;
        Ok(Sample {
            scenario: scenario.clone(),
            features,
            actual_time_s,
        })
    }

    /// Execute a whole training plan, in parallel across scenarios.
    /// Results are in plan order regardless of thread scheduling.
    pub fn collect(&self, plan: &TrainingPlan) -> Result<Vec<Sample>> {
        let scenarios = plan.scenarios();
        self.collect_scenarios(&scenarios)
    }

    /// Execute an explicit scenario list, in parallel, preserving order.
    ///
    /// Workers pull scenarios from a shared work-stealing cursor
    /// ([`coloc_ml::parallel::run_indexed`]): scenario cost varies by an
    /// order of magnitude with the workload mix, so static chunking would
    /// strand the expensive tail on one thread. Results come back in plan
    /// order and are bit-identical at any thread count.
    pub fn collect_scenarios(&self, scenarios: &[Scenario]) -> Result<Vec<Sample>> {
        // Force baselines before fanning out (OnceLock would serialize the
        // first computation anyway; this keeps the timing predictable).
        self.baselines();

        let start = Instant::now();
        let results = coloc_ml::parallel::run_indexed(scenarios.len(), self.threads, |i| {
            self.sample(&scenarios[i])
        });
        self.sweep_nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        results.into_iter().collect()
    }

    /// The paper's default training plan for this lab: all suite apps as
    /// targets, the four class-representative co-runners, all P-states,
    /// counts `1..=cores−1` (Table V).
    pub fn paper_plan(&self) -> TrainingPlan {
        TrainingPlan::paper_shape(
            self.machine.spec().cores,
            self.machine.spec().num_pstates(),
            self.suite.iter().map(|b| b.name.to_string()).collect(),
            coloc_workloads::suite::training_co_runners()
                .iter()
                .map(|b| b.name.to_string())
                .collect(),
        )
    }

    /// 64-bit digest binding a checkpoint to this lab's configuration and
    /// an exact scenario list, built on the canonical [`ScenarioIr`]
    /// encoding: each scenario contributes the digest of the exact IR the
    /// lab would run it as. Any change to the seed, the noise σ, the
    /// fault plan, the machine spec, or the scenarios changes the digest
    /// — which is exactly when resuming would splice incompatible samples
    /// together. A scenario that no longer lowers (e.g. an app renamed
    /// out of the suite) still contributes its label, keeping the digest
    /// total and the mismatch detectable.
    pub fn plan_digest(&self, scenarios: &[Scenario]) -> u64 {
        let mut d = IrWriter::new();
        d.u64(self.seed);
        d.f64(self.noise_sigma);
        d.u64(self.faults.as_ref().map_or(0, FaultPlan::digest));
        d.str(&self.machine.spec().name);
        d.usize(scenarios.len());
        for sc in scenarios {
            match self.lower(sc) {
                Ok((groups, opts)) => {
                    // The IR's `digest64`: its digest, which is the run
                    // key, folded to 64 bits.
                    let key = self.key(&groups, &opts);
                    d.byte(1);
                    d.u64((key >> 64) as u64 ^ key as u64);
                }
                Err(_) => {
                    d.byte(0);
                    d.str(&sc.label());
                }
            }
        }
        d.finish64()
    }

    /// Execute a scenario list with periodic crash-safe checkpointing,
    /// resuming from `cfg.path` when a compatible checkpoint exists.
    ///
    /// On entry, an existing checkpoint is loaded (a corrupt one is a
    /// [`ColocError::CorruptArtifact`]; one written by a different
    /// lab/plan is a [`ColocError::CheckpointMismatch`]) and its samples
    /// are reused verbatim — determinism makes them bit-identical to what
    /// re-running would produce. Progress is flushed atomically every
    /// `cfg.every` samples and once at the end.
    ///
    /// `cfg.crash_after` simulates a crash: after that many *new* samples
    /// the collect checkpoints and returns [`ColocError::Interrupted`],
    /// letting tests and the chaos artifact kill a sweep mid-flight
    /// without process gymnastics.
    pub fn collect_resumable(
        &self,
        scenarios: &[Scenario],
        cfg: &CheckpointConfig,
    ) -> Result<Vec<Sample>> {
        let digest = self.plan_digest(scenarios);
        let mut samples: Vec<Sample> = match crate::persist::load_json::<SweepCheckpoint>(&cfg.path)
        {
            Ok(cp) => {
                if cp.plan_digest != digest {
                    return Err(ColocError::CheckpointMismatch {
                        expected: digest,
                        found: cp.plan_digest,
                    });
                }
                cp.samples
            }
            Err(ColocError::ArtifactIo { .. }) => Vec::new(), // no checkpoint yet
            Err(e) => return Err(e),
        };
        if samples.len() > scenarios.len() {
            return Err(ColocError::CheckpointMismatch {
                expected: digest,
                found: digest, // right plan, impossible length ⇒ tampered
            });
        }

        let every = cfg.every.max(1);
        let mut new_since_start = 0usize;
        while samples.len() < scenarios.len() {
            let mut chunk = every.min(scenarios.len() - samples.len());
            let mut crash = false;
            if let Some(limit) = cfg.crash_after {
                let budget = limit.saturating_sub(new_since_start);
                if budget <= chunk {
                    chunk = budget;
                    crash = true;
                }
            }
            if chunk > 0 {
                let next = &scenarios[samples.len()..samples.len() + chunk];
                samples.extend(self.collect_scenarios(next)?);
                new_since_start += chunk;
            }
            crate::persist::save_json(
                &SweepCheckpoint {
                    plan_digest: digest,
                    samples: samples.clone(),
                },
                &cfg.path,
            )?;
            if crash {
                return Err(ColocError::Interrupted {
                    completed: samples.len(),
                });
            }
        }
        Ok(samples)
    }
}

/// Durable partial progress of a resumable sweep (see
/// [`Lab::collect_resumable`]). The digest pins the checkpoint to one
/// exact (lab, scenario list) pair.
#[derive(serde::Serialize, serde::Deserialize)]
pub struct SweepCheckpoint {
    /// [`Lab::plan_digest`] of the sweep this progress belongs to.
    pub plan_digest: u64,
    /// Samples collected so far, in plan order.
    pub samples: Vec<Sample>,
}

/// Where and how often [`Lab::collect_resumable`] checkpoints.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Checkpoint file (written atomically via a `.tmp` sibling).
    pub path: PathBuf,
    /// Flush after every this many newly collected samples.
    pub every: usize,
    /// Simulate a crash after this many new samples (tests/chaos only).
    pub crash_after: Option<usize>,
}

impl CheckpointConfig {
    /// Checkpoint to `path` every `every` samples, no simulated crash.
    pub fn new(path: impl Into<PathBuf>, every: usize) -> CheckpointConfig {
        CheckpointConfig {
            path: path.into(),
            every,
            crash_after: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::Feature;
    use coloc_machine::{presets, StageId};
    use coloc_ml::rng::derive_seed_str;

    fn small_lab() -> Lab {
        Lab::new(presets::xeon_e5649(), coloc_workloads::standard(), 42).unwrap()
    }

    #[test]
    fn baselines_cover_suite_and_pstates() {
        let lab = small_lab();
        let db = lab.baselines();
        assert_eq!(db.len(), 11);
        let cg = db.get("cg").unwrap();
        assert_eq!(cg.exec_time_s.len(), 6);
        // Times increase as frequency drops.
        for w in cg.exec_time_s.windows(2) {
            assert!(w[1] > w[0] * 0.98, "{:?}", cg.exec_time_s);
        }
        assert!(cg.memory_intensity > 5e-3);
        let ep = db.get("ep").unwrap();
        assert!(ep.memory_intensity < 2e-5);
    }

    #[test]
    fn baselines_are_cached_and_deterministic() {
        let lab = small_lab();
        let a = lab.baselines().clone();
        let b = lab.baselines().clone();
        assert_eq!(a, b);
        let lab2 = small_lab();
        assert_eq!(a, lab2.baselines().clone());
    }

    #[test]
    fn featurize_matches_table1_semantics() {
        let lab = small_lab();
        let sc = Scenario::homogeneous("canneal", "cg", 3, 2);
        let f = lab.featurize(&sc).unwrap();
        let db = lab.baselines();
        let canneal = db.get("canneal").unwrap();
        let cg = db.get("cg").unwrap();
        assert_eq!(f[Feature::BaseExTime.index()], canneal.exec_time_s[2]);
        assert_eq!(f[Feature::NumCoApp.index()], 3.0);
        assert!((f[Feature::CoAppMem.index()] - 3.0 * cg.memory_intensity).abs() < 1e-12);
        assert_eq!(f[Feature::TargetMem.index()], canneal.memory_intensity);
        assert!((f[Feature::CoAppCmCa.index()] - 3.0 * cg.cm_ca).abs() < 1e-12);
        assert_eq!(f[Feature::TargetCaIns.index()], canneal.ca_ins);
    }

    #[test]
    fn unknown_app_and_bad_pstate_error() {
        let lab = small_lab();
        assert!(matches!(
            lab.featurize(&Scenario::solo("doom", 0)),
            Err(ColocError::UnknownApp(_))
        ));
        assert!(lab.featurize(&Scenario::solo("cg", 17)).is_err());
        assert!(matches!(
            lab.run_scenario(&Scenario::homogeneous("cg", "doom", 1, 0)),
            Err(ColocError::UnknownApp(_))
        ));
    }

    #[test]
    fn co_location_sample_shows_degradation() {
        let lab = small_lab();
        let solo = lab.run_scenario(&Scenario::solo("canneal", 0)).unwrap();
        let crowded = lab
            .run_scenario(&Scenario::homogeneous("canneal", "cg", 5, 0))
            .unwrap();
        assert!(crowded > solo * 1.03, "crowded {crowded} vs solo {solo}");
    }

    #[test]
    fn collect_preserves_plan_order_and_parallel_determinism() {
        let lab = small_lab();
        let plan = TrainingPlan {
            pstates: vec![0],
            targets: vec!["canneal".into(), "ep".into()],
            co_runners: vec!["cg".into()],
            counts: vec![1, 3],
        };
        let s1 = lab.collect(&plan).unwrap();
        let s2 = lab.collect(&plan).unwrap();
        assert_eq!(s1.len(), 4);
        assert_eq!(s1[0].scenario.label(), "canneal+1x cg @P0");
        for (a, b) in s1.iter().zip(&s2) {
            assert_eq!(a.actual_time_s, b.actual_time_s);
            assert_eq!(a.features, b.features);
        }
    }

    #[test]
    fn paper_plan_matches_machine_shape() {
        let lab = small_lab();
        let plan = lab.paper_plan();
        assert_eq!(plan.len(), 6 * 11 * 4 * 5);
        let lab12 = Lab::new(presets::xeon_e5_2697v2(), coloc_workloads::standard(), 1).unwrap();
        assert_eq!(lab12.paper_plan().len(), 6 * 11 * 4 * 11);
    }

    #[test]
    fn noiseless_lab_is_exact() {
        let lab = small_lab().with_noise(0.0);
        let a = lab.run_scenario(&Scenario::solo("ep", 0)).unwrap();
        let b = lab.run_scenario(&Scenario::solo("ep", 0)).unwrap();
        assert_eq!(a, b);
    }

    fn small_plan() -> TrainingPlan {
        TrainingPlan {
            pstates: vec![0, 3],
            targets: vec!["canneal".into(), "ep".into(), "cg".into()],
            co_runners: vec!["cg".into(), "ep".into()],
            counts: vec![1, 3, 5],
        }
    }

    #[test]
    fn collect_is_bit_identical_across_thread_counts() {
        let plan = small_plan();
        let reference = small_lab().with_threads(1).collect(&plan).unwrap();
        for threads in [2, 8] {
            let lab = small_lab().with_threads(threads);
            let got = lab.collect(&plan).unwrap();
            assert_eq!(got.len(), reference.len());
            for (a, b) in got.iter().zip(&reference) {
                assert_eq!(a.scenario.label(), b.scenario.label());
                assert_eq!(a.actual_time_s.to_bits(), b.actual_time_s.to_bits());
                for (fa, fb) in a.features.iter().zip(b.features.iter()) {
                    assert_eq!(fa.to_bits(), fb.to_bits());
                }
            }
        }
    }

    #[test]
    fn repeat_collect_is_served_from_cache() {
        let plan = small_plan();
        let n = plan.len() as u64;
        for threads in [2, 8] {
            let lab = small_lab().with_threads(threads);
            let cold = lab.collect(&plan).unwrap();
            let after_cold = lab.sweep_stats();
            assert_eq!(after_cold.scenarios_run, n);
            assert!(after_cold.cache_misses >= n);
            assert!(after_cold.segments_simulated > 0);
            assert!(after_cold.fp_iterations > 0);
            assert!(after_cold.sweep_wall_time_s > 0.0);

            let warm = lab.collect(&plan).unwrap();
            let after_warm = lab.sweep_stats();
            // The warm pass must be answered entirely by the memo cache:
            // exactly one hit per scenario, no miss, no eviction, and
            // segments and fixed-point work stay flat.
            assert_eq!(
                (
                    after_warm.cache_hits - after_cold.cache_hits,
                    after_warm.cache_misses - after_cold.cache_misses,
                    after_warm.cache_evictions - after_cold.cache_evictions,
                ),
                (n, 0, 0),
                "threads={threads}"
            );
            assert_eq!(after_warm.segments_simulated, after_cold.segments_simulated);
            assert_eq!(after_warm.fp_iterations, after_cold.fp_iterations);
            for (a, b) in cold.iter().zip(&warm) {
                assert_eq!(a.actual_time_s.to_bits(), b.actual_time_s.to_bits());
            }
        }
    }

    /// Telemetry that must not depend on scheduling: everything but the
    /// sweep wall time.
    fn counts(lab: &Lab) -> SweepStats {
        SweepStats {
            sweep_wall_time_s: 0.0,
            ..lab.sweep_stats()
        }
    }

    #[test]
    fn batch_run_matches_sequential_and_dedups() {
        let scenarios = vec![
            Scenario::homogeneous("canneal", "cg", 3, 0),
            Scenario::solo("ep", 0),
            Scenario::homogeneous("canneal", "cg", 3, 0), // duplicate
            Scenario::homogeneous("cg", "ep", 2, 1),
            Scenario::solo("ep", 0), // duplicate
        ];
        for faults in [None, Some(FaultPlan::heavy(5))] {
            let lab = |threads: usize| {
                let lab = small_lab().with_threads(threads);
                match faults {
                    Some(plan) => lab.with_faults(plan).unwrap(),
                    None => lab,
                }
            };
            // The same requests made one by one: cold, then warm.
            let one_by_one = lab(1);
            let want: Vec<f64> = scenarios
                .iter()
                .map(|sc| one_by_one.run_scenario(sc).unwrap())
                .collect();
            let cold = counts(&one_by_one);
            for sc in &scenarios {
                one_by_one.run_scenario(sc).unwrap();
            }
            let warm = counts(&one_by_one);
            // 5 requests over 3 distinct scenarios: 3 engine runs.
            assert_eq!((cold.cache_misses, cold.cache_hits), (3, 2));
            assert_eq!((warm.cache_misses, warm.cache_hits), (3, 7));
            for threads in [1, 2, 8] {
                let batched = lab(threads);
                let got = batched.run_scenarios_batch(&scenarios).unwrap();
                for (a, b) in got.iter().zip(&want) {
                    assert_eq!(a.to_bits(), b.to_bits(), "threads={threads} {faults:?}");
                }
                assert_eq!(counts(&batched), cold, "cold, threads={threads} {faults:?}");
                let again = batched.run_scenarios_batch(&scenarios).unwrap();
                for (a, b) in again.iter().zip(&want) {
                    assert_eq!(a.to_bits(), b.to_bits(), "threads={threads} {faults:?}");
                }
                assert_eq!(counts(&batched), warm, "warm, threads={threads} {faults:?}");
            }
        }
        // Unknown apps surface as typed errors, not panics.
        assert!(matches!(
            small_lab().run_scenarios_batch(&[Scenario::solo("doom", 0)]),
            Err(ColocError::UnknownApp(_))
        ));
    }

    #[test]
    fn batch_run_serves_warm_entries_without_simulating() {
        let lab = small_lab().with_threads(4);
        let warm = Scenario::solo("ep", 0);
        lab.run_scenario(&warm).unwrap();
        lab.run_scenarios_batch(&[warm, Scenario::solo("cg", 0)])
            .unwrap();
        let s = lab.sweep_stats();
        assert_eq!(s.cache_misses, 2, "only the cold scenario ran");
        assert_eq!(s.cache_hits, 1);
    }

    #[test]
    fn batch_run_returns_the_first_failure_in_request_order() {
        // 9 and 8 runners on the 6-core E5649: the engine refuses both,
        // each with its own message.
        let scenarios = vec![
            Scenario::solo("ep", 0),
            Scenario::homogeneous("cg", "ep", 8, 0),
            Scenario::homogeneous("canneal", "cg", 3, 0),
            Scenario::homogeneous("cg", "ep", 7, 0),
        ];
        let first = small_lab().run_scenario(&scenarios[1]).unwrap_err();
        let second = small_lab().run_scenario(&scenarios[3]).unwrap_err();
        assert_ne!(first, second);
        for threads in [1, 2, 8] {
            let lab = small_lab().with_threads(threads);
            assert_eq!(
                lab.run_scenarios_batch(&scenarios).unwrap_err(),
                first,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn cached_run_probes_without_simulating() {
        let lab = small_lab();
        let sc = Scenario::solo("cg", 0);
        assert_eq!(lab.cached_run(&sc).unwrap(), None);
        assert_eq!(lab.sweep_stats().cache_misses, 0, "a probe never simulates");
        let t = lab.run_scenario(&sc).unwrap();
        let probed = lab.cached_run(&sc).unwrap().expect("resident after run");
        assert_eq!(probed.to_bits(), t.to_bits());
        assert!(matches!(
            lab.cached_run(&Scenario::solo("doom", 0)),
            Err(ColocError::UnknownApp(_))
        ));
    }

    #[test]
    fn with_noise_resets_the_run_cache() {
        let lab = small_lab();
        let sc = Scenario::solo("cg", 0);
        let a = lab.run_scenario(&sc).unwrap();
        let lab = lab.with_noise(0.0);
        assert_eq!(
            lab.sweep_stats().cache_misses,
            1,
            "clear drops entries, not counters"
        );
        let b = lab.run_scenario(&sc).unwrap();
        assert_ne!(
            a, b,
            "noiseless rerun must not be served from the noisy cache"
        );
    }

    #[test]
    fn sweep_stats_display_is_readable() {
        let s = SweepStats {
            scenarios_run: 10,
            cache_hits: 4,
            cache_misses: 6,
            cache_evictions: 0,
            segments_simulated: 120,
            fp_iterations: 900,
            faults_injected: 3,
            sweep_wall_time_s: 1.25,
            stages: StageProfile::new(),
        };
        let text = format!("{s}");
        assert!(text.contains("10 scenarios"), "{text}");
        assert!(text.contains("4 cache hits"), "{text}");
        assert!(text.contains("3 faults injected"), "{text}");
        assert!(text.contains("1.25s"), "{text}");
    }

    #[test]
    fn stage_stats_flow_through_the_lab() {
        let plan = small_plan();
        let plain = small_lab();
        let instrumented = small_lab().with_stage_stats(true);
        let a = plain.collect(&plan).unwrap();
        let b = instrumented.collect(&plan).unwrap();
        // Instrumentation must not perturb the simulation.
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.actual_time_s.to_bits(), y.actual_time_s.to_bits());
        }
        let off = plain.sweep_stats();
        let on = instrumented.sweep_stats();
        assert_eq!(off.stages, StageProfile::new(), "off by default");
        // Driver stages run once per segment; the two solver stages once
        // per fixed-point iteration actually run, which is at most the
        // iterations counted, since a cycling solve skips whole periods.
        // The lab's aggregate counters pin both.
        let seg = on.segments_simulated;
        let fp = on.fp_iterations;
        let calls = |id| on.stages.get(id).invocations;
        let solver = calls(StageId::LlcShare);
        assert_eq!(calls(StageId::PState), seg);
        assert_eq!(calls(StageId::PhaseSync), seg);
        assert!(
            0 < solver && solver <= fp,
            "{solver} solver calls, {fp} iterations"
        );
        assert_eq!(calls(StageId::DramFixedPoint), solver);
        assert_eq!(calls(StageId::CounterAccrual), seg);

        // Cache hits do no stage work: a warm pass leaves counters flat.
        instrumented.collect(&plan).unwrap();
        assert_eq!(instrumented.sweep_stats().stages, on.stages);
    }

    #[test]
    fn plan_digest_tracks_the_scenario_ir() {
        let plan = small_plan();
        let scenarios = plan.scenarios();
        let base = small_lab().plan_digest(&scenarios);
        // Stable across lab instances and thread settings.
        assert_eq!(base, small_lab().with_threads(8).plan_digest(&scenarios));
        // Every configuration axis moves it.
        let reseeded = Lab::new(presets::xeon_e5649(), coloc_workloads::standard(), 43).unwrap();
        assert_ne!(base, reseeded.plan_digest(&scenarios));
        assert_ne!(base, small_lab().with_noise(0.0).plan_digest(&scenarios));
        assert_ne!(
            base,
            small_lab()
                .with_faults(FaultPlan::heavy(5))
                .unwrap()
                .plan_digest(&scenarios)
        );
        let other_machine =
            Lab::new(presets::xeon_e5_2697v2(), coloc_workloads::standard(), 42).unwrap();
        assert_ne!(base, other_machine.plan_digest(&scenarios));
        assert_ne!(base, small_lab().plan_digest(&scenarios[1..]));
        // An unresolvable scenario still digests (totality), distinctly.
        let mut broken = scenarios.clone();
        broken[0].target = "doom".into();
        assert_ne!(base, small_lab().plan_digest(&broken));
    }

    #[test]
    fn scenario_ir_is_what_run_scenario_executes() {
        let lab = small_lab();
        let sc = Scenario::homogeneous("canneal", "cg", 3, 2);
        let ir = lab.scenario_ir(&sc).unwrap();
        assert_eq!(ir.workload.len(), 2);
        assert_eq!(ir.workload[0].count, 1);
        assert_eq!(ir.workload[1].count, 3);
        assert_eq!(ir.opts.pstate, 2);
        assert!(ir.faults.is_none());
        // Running the IR's machine directly reproduces the lab run
        // (modulo the cache, which is keyed on the same encoding).
        let direct = ir.machine().unwrap().run(&ir.workload, &ir.opts).unwrap();
        let via_lab = lab.run_scenario(&sc).unwrap();
        assert_eq!(direct.wall_time_s.to_bits(), via_lab.to_bits());
        // The faulted lab threads its plan into the IR.
        let faulty = small_lab().with_faults(FaultPlan::heavy(5)).unwrap();
        assert!(faulty.scenario_ir(&sc).unwrap().faults.is_some());
    }

    /// Both paper plans plus 1000 seeded mixes of 2 or 3 co-groups on
    /// `lab`'s machine; every other mix has a zero-count co-group.
    fn key_scenarios(lab: &Lab) -> Vec<Scenario> {
        let names: Vec<&str> = lab.suite().iter().map(|b| b.name).collect();
        let mut state = 0x5eed_u64;
        let mut below = |n: usize| {
            state = coloc_ml::rng::splitmix64(state);
            (state % n as u64) as usize
        };
        let mut scenarios = lab.paper_plan().scenarios();
        for m in 0..1000 {
            let groups = 2 + below(2);
            let zero = (m % 2 == 0).then(|| below(groups));
            let co_located = (0..groups)
                .map(|g| {
                    let count = if zero == Some(g) { 0 } else { below(3) };
                    (names[below(names.len())].to_string(), count)
                })
                .collect();
            scenarios.push(Scenario {
                target: names[below(names.len())].to_string(),
                co_located,
                pstate: below(lab.machine().spec().num_pstates()),
            });
        }
        scenarios
    }

    /// The key a lab runs a scenario under is the digest of the owned IR
    /// it lowers to, the cache key of that IR, and the digest of an IR
    /// built here from the suite by name; its seed comes from the label's
    /// bytes. On both paper presets, with and without a fault plan.
    #[test]
    fn borrowed_keys_equal_the_ir_digest() {
        let lab_seed = 42;
        for spec in [presets::xeon_e5649(), presets::xeon_e5_2697v2()] {
            let clean = Lab::new(spec.clone(), coloc_workloads::standard(), lab_seed).unwrap();
            let faulty = Lab::new(spec, coloc_workloads::standard(), lab_seed)
                .unwrap()
                .with_faults(FaultPlan::light(lab_seed))
                .unwrap();
            let scenarios = key_scenarios(&clean);
            let zeros = scenarios
                .iter()
                .filter(|sc| sc.co_located.iter().any(|&(_, c)| c == 0))
                .count();
            assert_eq!(scenarios.len(), clean.paper_plan().len() + 1000);
            assert!(zeros >= 500, "{zeros} scenarios with a zero-count co-group");
            for lab in [&clean, &faulty] {
                for sc in &scenarios {
                    let seed = derive_seed(derive_seed_str(lab_seed, &sc.label()), 1);
                    let app = |name: &str| lab.app(name).unwrap().app.clone();
                    let mut workload = vec![RunnerGroup::solo(app(&sc.target))];
                    for (name, count) in &sc.co_located {
                        if *count > 0 {
                            workload.push(RunnerGroup {
                                app: app(name),
                                count: *count,
                            });
                        }
                    }
                    let mut reference = ScenarioIr::new(
                        lab.machine().spec().clone(),
                        workload,
                        RunOptions {
                            pstate: sc.pstate,
                            seed,
                            noise_sigma: DEFAULT_NOISE_SIGMA,
                            ..RunOptions::default()
                        },
                    );
                    reference.faults = lab.fault_plan().copied();

                    let (groups, opts) = lab.lower(sc).unwrap();
                    assert_eq!(opts.seed, seed, "{sc}");
                    let key = lab.key(&groups, &opts);
                    let ir = lab.scenario_ir(sc).unwrap();
                    assert_eq!(key, ir.digest(), "{sc}");
                    assert_eq!(key, reference.digest(), "{sc}");
                    let ir_key = lab.run_cache.key_for_scheduled(
                        lab.machine(),
                        &ir.workload,
                        &ir.opts,
                        ir.faults.as_ref(),
                        None,
                    );
                    assert_eq!(key, ir_key, "{sc}");
                }
            }
        }
    }

    fn chaos_tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("coloc-lab-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn faulty_lab_injects_deterministically_and_keeps_baselines_clean() {
        let plan = small_plan();
        let clean = small_lab().collect(&plan).unwrap();
        let faulty = || small_lab().with_faults(FaultPlan::heavy(5)).unwrap();
        let a = faulty().collect(&plan).unwrap();
        let b = faulty().collect(&plan).unwrap();
        let lab = faulty();
        lab.collect(&plan).unwrap();
        assert!(
            lab.sweep_stats().faults_injected > 0,
            "heavy plan must fire on a {}-scenario sweep",
            plan.len()
        );
        // Deterministic: two labs with the same plan agree bit-for-bit.
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.actual_time_s.to_bits(), y.actual_time_s.to_bits());
        }
        // Different from the clean sweep somewhere.
        assert!(a
            .iter()
            .zip(&clean)
            .any(|(x, y)| x.actual_time_s.to_bits() != y.actual_time_s.to_bits()));
        // Baselines are measured below the fault layer: identical.
        assert_eq!(small_lab().baselines(), faulty().baselines());
        // Features come from baselines, so they stay finite even when the
        // measured time is NaN.
        for s in &a {
            assert!(s.features.iter().all(|f| f.is_finite()));
        }
    }

    #[test]
    fn invalid_fault_plan_is_rejected() {
        let plan = FaultPlan {
            nan_reading_rate: 1.5,
            ..FaultPlan::default()
        };
        match small_lab().with_faults(plan) {
            Err(ColocError::InvalidSpec(msg)) => assert!(msg.contains("nan"), "{msg}"),
            other => panic!("expected InvalidSpec, got {:?}", other.err()),
        }
    }

    #[test]
    fn crashed_collect_resumes_bit_identical() {
        let plan = small_plan();
        let scenarios = plan.scenarios();
        let reference = small_lab().collect(&plan).unwrap();

        let path = chaos_tmp("resume.json");
        let _ = std::fs::remove_file(&path);
        let mut cfg = CheckpointConfig::new(&path, 4);
        cfg.crash_after = Some(7);
        match small_lab().collect_resumable(&scenarios, &cfg) {
            Err(ColocError::Interrupted { completed }) => assert_eq!(completed, 7),
            other => panic!("expected Interrupted, got {:?}", other.err()),
        }
        // A fresh lab (simulating a restarted process) finishes the sweep.
        cfg.crash_after = None;
        let resumed = small_lab().collect_resumable(&scenarios, &cfg).unwrap();
        assert_eq!(resumed.len(), reference.len());
        for (a, b) in resumed.iter().zip(&reference) {
            assert_eq!(a.scenario.label(), b.scenario.label());
            assert_eq!(a.actual_time_s.to_bits(), b.actual_time_s.to_bits());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_from_a_different_lab_is_rejected() {
        let plan = small_plan();
        let scenarios = plan.scenarios();
        let path = chaos_tmp("mismatch.json");
        let _ = std::fs::remove_file(&path);
        let mut cfg = CheckpointConfig::new(&path, 4);
        cfg.crash_after = Some(5);
        let _ = small_lab().collect_resumable(&scenarios, &cfg);
        cfg.crash_after = None;
        // Same plan, different lab seed ⇒ different digest ⇒ rejected.
        let other = Lab::new(presets::xeon_e5649(), coloc_workloads::standard(), 43).unwrap();
        assert!(matches!(
            other.collect_resumable(&scenarios, &cfg),
            Err(ColocError::CheckpointMismatch { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_checkpoint_is_a_typed_error() {
        let plan = small_plan();
        let scenarios = plan.scenarios();
        let path = chaos_tmp("corrupt.json");
        std::fs::write(&path, b"{\"plan_digest\": 12, \"samples\": [{").unwrap();
        let cfg = CheckpointConfig::new(&path, 4);
        assert!(matches!(
            small_lab().collect_resumable(&scenarios, &cfg),
            Err(ColocError::CorruptArtifact { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }
}
