//! The placement simulation: stream jobs through a fleet in waves, place
//! them with a policy, and score every decision against the oracle.
//!
//! # Determinism
//!
//! Everything is seeded and ordered: the job stream is a seeded RNG, each
//! wave's jobs are placed in canonical (app, stream-index) order, bucket
//! iteration follows `BTreeMap` order, float accumulation follows job
//! order, and oracle measurements are bit-identical across thread counts
//! (the batched run path guarantees it). Two runs with the same
//! [`SimConfig`] — at any `threads` — produce bit-identical
//! [`PolicyOutcome`]s; the `determinism_digest` field proves it.
//!
//! # Waves
//!
//! The fleet is far smaller than the stream, so jobs arrive in *waves*:
//! each wave takes up to `total_cores` jobs, places them, scores the
//! resulting co-location against the oracle, and flushes the fleet.
//! Scored outcomes are a pure function of each wave's job multiset, so
//! memoization carries across waves and engine work scales with distinct
//! `(spec, contents, target)` triples, not with the stream length.

use crate::estimator::SpecEstimator;
use crate::fleet::{key_remove, ContentsKey, Fleet, FleetSpec};
use crate::jobs::{ClassMix, JobStream};
use crate::oracle::SpecOracle;
use crate::policy::PlacePolicy;
use crate::report::{PlacementReport, PolicyOutcome};
use crate::Result;
use coloc_machine::IrWriter;
use coloc_ml::rng::derive_seed_str;
use coloc_model::{ColocError, Lab};

/// Candidate ranking: the sort key (predicted-delta bits, occupants,
/// group, contents — a deterministic total order) plus the candidate
/// bucket it ranks.
type RankedCandidate = ((u64, usize, usize, ContentsKey), (usize, ContentsKey));

/// Full description of one benchmark run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// The fleet to place onto.
    pub fleet: FleetSpec,
    /// Jobs in the stream.
    pub jobs: usize,
    /// Class mix the stream draws from.
    pub mix: ClassMix,
    /// Stream / lab seed.
    pub seed: u64,
    /// Operating P-state for every socket.
    pub pstate: usize,
    /// Oracle slowdown above which a job counts as a QoS violation.
    pub qos_threshold: f64,
    /// Measurement noise σ for the oracle labs (`None` keeps the lab
    /// default, [`coloc_model::lab::DEFAULT_NOISE_SIGMA`]).
    pub noise_sigma: Option<f64>,
    /// Worker threads for batched oracle evaluation (0 = one per CPU).
    pub threads: usize,
}

impl SimConfig {
    /// A small deterministic default: standard rack, uniform mix.
    pub fn smoke(jobs: usize) -> SimConfig {
        SimConfig {
            fleet: FleetSpec::standard(1),
            jobs,
            mix: ClassMix::uniform(),
            seed: 42,
            pstate: 0,
            qos_threshold: 1.5,
            noise_sigma: None,
            threads: 0,
        }
    }
}

/// One job's placement record within a wave.
struct Placed {
    /// Stream index of the job.
    job: usize,
    app: u8,
    socket: u32,
    /// Spec index of the socket's group.
    spec: usize,
    /// Decision-time expected slowdown of this job on its socket.
    expected: f64,
}

/// One job's final assignment, for inspection and property checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Assignment {
    /// Stream index of the job.
    pub job: usize,
    /// Suite app index.
    pub app: u8,
    /// Global socket id the job landed on.
    pub socket: u32,
    /// Wave the job was placed in.
    pub wave: usize,
}

/// The placement simulator: per-spec labs, trained estimators, and
/// oracles, shared across policies so memoization compounds.
pub struct PlacementSim {
    cfg: SimConfig,
    /// One lab per *distinct* machine spec (by name).
    labs: Vec<Lab>,
    estimators: Vec<SpecEstimator>,
    oracles: Vec<SpecOracle>,
    /// Fleet group index → distinct-spec index.
    group_spec: Vec<usize>,
}

impl PlacementSim {
    /// Validate the fleet, build one lab per distinct spec (seeded from
    /// the config seed and the spec name), and train each estimator.
    pub fn new(cfg: SimConfig) -> Result<PlacementSim> {
        cfg.fleet.validate().map_err(ColocError::InvalidSpec)?;
        if !cfg.qos_threshold.is_finite() {
            return Err(ColocError::InvalidSpec(format!(
                "QoS threshold {} is not finite",
                cfg.qos_threshold
            )));
        }
        if cfg.jobs == 0 {
            return Err(ColocError::DegenerateDataset(
                "placement stream has no jobs".into(),
            ));
        }
        let mut names: Vec<String> = Vec::new();
        let mut group_spec = Vec::with_capacity(cfg.fleet.groups.len());
        let mut labs = Vec::new();
        for g in &cfg.fleet.groups {
            let idx = match names.iter().position(|n| *n == g.machine.name) {
                Some(i) => i,
                None => {
                    let mut lab = Lab::new(
                        g.machine.clone(),
                        coloc_workloads::standard(),
                        derive_seed_str(cfg.seed, &g.machine.name),
                    )?
                    .with_threads(cfg.threads);
                    if let Some(sigma) = cfg.noise_sigma {
                        lab = lab.with_noise(sigma);
                    }
                    names.push(g.machine.name.clone());
                    labs.push(lab);
                    names.len() - 1
                }
            };
            group_spec.push(idx);
        }
        // One registry across the fleet: specs sharing a machine resolve
        // the same digest-addressed artifact instead of retraining.
        let registry = coloc_model::ModelRegistry::new();
        let estimators = labs
            .iter()
            .map(|lab| SpecEstimator::train_with(&registry, lab, cfg.pstate))
            .collect::<Result<Vec<_>>>()?;
        let oracles = labs
            .iter()
            .map(|lab| SpecOracle::new(lab, cfg.pstate))
            .collect();
        Ok(PlacementSim {
            cfg,
            labs,
            estimators,
            oracles,
            group_spec,
        })
    }

    /// The configuration this simulator was built from.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Run every benchmark policy and assemble the full report.
    pub fn run_benchmark(&mut self) -> Result<PlacementReport> {
        let policies = PlacePolicy::benchmark_set()
            .into_iter()
            .map(|p| self.run_policy(p))
            .collect::<Result<Vec<_>>>()?;
        let mut report = self.report_shell();
        report.policies = policies;
        Ok(report)
    }

    /// A report skeleton for this config with no policy outcomes yet —
    /// callers running a policy subset fill `policies` themselves.
    pub fn report_shell(&self) -> PlacementReport {
        PlacementReport {
            jobs: self.cfg.jobs,
            fleet: self
                .cfg
                .fleet
                .groups
                .iter()
                .map(|g| format!("{} × {}", g.machine.name, g.sockets))
                .collect(),
            total_sockets: self.cfg.fleet.total_sockets(),
            total_cores: self.cfg.fleet.total_cores(),
            seed: self.cfg.seed,
            mix: self.cfg.mix.weights,
            pstate: self.cfg.pstate,
            policies: Vec::new(),
        }
    }

    /// Place the whole stream with `policy` and score it against the
    /// oracle. Deterministic: bit-identical across runs and thread
    /// counts for a fixed config.
    pub fn run_policy(&mut self, policy: PlacePolicy) -> Result<PolicyOutcome> {
        let jobs = self.stream_jobs()?;
        self.run_policy_inner(policy, jobs, None).map(|(o, _)| o)
    }

    /// Like [`PlacementSim::run_policy`], additionally returning every
    /// job's final [`Assignment`] in stream order.
    pub fn run_policy_traced(
        &mut self,
        policy: PlacePolicy,
    ) -> Result<(PolicyOutcome, Vec<Assignment>)> {
        let jobs = self.stream_jobs()?;
        let (outcome, trace) = self.run_policy_inner(policy, jobs, Some(Vec::new()))?;
        Ok((outcome, trace.expect("trace requested")))
    }

    /// Place an *explicit* job list (suite app indices) instead of the
    /// seeded stream — the conformance permutation law reorders jobs and
    /// requires the scored outcome to stay bit-identical.
    pub fn run_policy_on_jobs(
        &mut self,
        policy: PlacePolicy,
        jobs: Vec<u8>,
    ) -> Result<PolicyOutcome> {
        let apps = self.labs[0].suite().len() as u8;
        if let Some(&bad) = jobs.iter().find(|&&a| a >= apps) {
            return Err(ColocError::UnknownApp(format!("job app index {bad}")));
        }
        self.run_policy_inner(policy, jobs, None).map(|(o, _)| o)
    }

    /// The seeded job stream this config generates.
    pub fn stream_jobs(&self) -> Result<Vec<u8>> {
        let suite = coloc_workloads::standard();
        Ok(JobStream::new(self.cfg.seed, self.cfg.mix, &suite)
            .map_err(ColocError::InvalidSpec)?
            .take_jobs(self.cfg.jobs))
    }

    fn run_policy_inner(
        &mut self,
        policy: PlacePolicy,
        jobs: Vec<u8>,
        mut trace: Option<Vec<Assignment>>,
    ) -> Result<(PolicyOutcome, Option<Vec<Assignment>>)> {
        if jobs.is_empty() {
            return Err(ColocError::DegenerateDataset(
                "placement stream has no jobs".into(),
            ));
        }
        let started = std::time::Instant::now();
        let spec = self.cfg.fleet.clone();
        let total_cores = spec.total_cores();
        let mut fleet = Fleet::new(&spec);

        let mut regret_sum = 0.0f64;
        let mut regret_max = 0.0f64;
        let mut oracle_sum = 0.0f64;
        let mut oracle_max = f64::MIN;
        let mut oracle_min = f64::MAX;
        let mut expected_sum = 0.0f64;
        let mut qos_violations = 0u64;
        let mut sockets_used = 0usize;
        let mut waves = 0usize;
        let mut digest = IrWriter::new();
        digest.str(&policy.to_string());

        let mut pos = 0usize;
        while pos < jobs.len() {
            let wave_end = (pos + total_cores).min(jobs.len());
            // Canonical order: app id, then stream index. Scored outcomes
            // become a pure function of the wave's job *multiset*.
            let mut order: Vec<usize> = (pos..wave_end).collect();
            order.sort_by_key(|&i| (jobs[i], i));

            let placed = match policy {
                PlacePolicy::PackFirstFit => self.place_pack(&jobs, &order, &mut fleet)?,
                PlacePolicy::LeastInterference => self.place_greedy(&jobs, &order, &mut fleet)?,
                PlacePolicy::RegretBatched { batch, top_k } => {
                    self.place_regret_batched(&jobs, &order, &mut fleet, batch, top_k)?
                }
            };

            // Score the wave: warm every final-contents measurement in one
            // batched oracle pass per spec, then read back in job order.
            let mut wants: Vec<Vec<(ContentsKey, u8)>> = vec![Vec::new(); self.labs.len()];
            for p in &placed {
                let others = key_remove(fleet.socket_key(p.socket), p.app);
                wants[p.spec].push((others, p.app));
                wants[p.spec].push((0, p.app));
            }
            for (si, w) in wants.iter().enumerate() {
                self.oracles[si].warm(&self.labs[si], w)?;
            }
            for p in &placed {
                let others = key_remove(fleet.socket_key(p.socket), p.app);
                let oracle_sd = self.oracles[p.spec].slowdown(&self.labs[p.spec], p.app, others)?;
                let regret = (p.expected - oracle_sd).abs();
                regret_sum += regret;
                regret_max = regret_max.max(regret);
                oracle_sum += oracle_sd;
                oracle_max = oracle_max.max(oracle_sd);
                oracle_min = oracle_min.min(oracle_sd);
                expected_sum += p.expected;
                if oracle_sd > self.cfg.qos_threshold {
                    qos_violations += 1;
                }
                digest.u64(p.socket as u64);
                digest.f64(p.expected);
                digest.f64(oracle_sd);
            }

            if let Some(t) = trace.as_mut() {
                t.extend(placed.iter().map(|p| Assignment {
                    job: p.job,
                    app: p.app,
                    socket: p.socket,
                    wave: waves,
                }));
            }
            sockets_used = sockets_used.max(fleet.sockets_used());
            waves += 1;
            fleet.reset();
            pos = wave_end;
        }
        if let Some(t) = trace.as_mut() {
            t.sort_by_key(|a| a.job);
        }

        let n = jobs.len() as f64;
        let elapsed = started.elapsed().as_secs_f64();
        let oracle_evaluations = self.oracles.iter().map(|o| o.evaluations()).sum();
        let outcome = PolicyOutcome {
            policy: policy.to_string(),
            jobs: jobs.len(),
            waves,
            regret_mean: regret_sum / n,
            regret_max,
            oracle_mean_slowdown: oracle_sum / n,
            oracle_max_slowdown: oracle_max,
            expected_mean_slowdown: expected_sum / n,
            unfairness: oracle_max / oracle_min,
            qos_threshold: self.cfg.qos_threshold,
            qos_violations,
            sockets_used,
            oracle_evaluations,
            jobs_per_sec: if elapsed > 0.0 {
                n / elapsed
            } else {
                f64::INFINITY
            },
            determinism_digest: digest.finish64(),
        };
        Ok((outcome, trace))
    }

    /// Interference-blind consolidation: fill socket 0 to capacity, then
    /// socket 1, and so on. The expected slowdown recorded for regret is
    /// still the predictor's decision-time estimate — first-fit's regret
    /// therefore measures how much the *final* crowding differs from what
    /// was known when each job landed.
    fn place_pack(
        &mut self,
        jobs: &[u8],
        order: &[usize],
        fleet: &mut Fleet<'_>,
    ) -> Result<Vec<Placed>> {
        let mut placed = Vec::with_capacity(order.len());
        let mut cur = 0u32;
        for &ji in order {
            let app = jobs[ji];
            let mut group = fleet.group_of(cur);
            while !fleet.has_free(group, fleet.socket_key(cur)) {
                cur += 1;
                group = fleet.group_of(cur);
            }
            let key = fleet.socket_key(cur);
            let spec = self.group_spec[group];
            let expected = self.estimators[spec].slowdown(&self.labs[spec], app, key)?;
            let socket = fleet.place(group, key, app);
            debug_assert_eq!(socket, cur, "first-fit fills in id order");
            placed.push(Placed {
                job: ji,
                app,
                socket,
                spec,
                expected,
            });
        }
        Ok(placed)
    }

    /// Predictor-greedy: each job takes the candidate bucket with the
    /// smallest predicted marginal slowdown. Empty sockets have a delta
    /// of exactly 1.0, so the tie-break (fewer occupants, lower group,
    /// lower key) spreads jobs across idle sockets before stacking.
    fn place_greedy(
        &mut self,
        jobs: &[u8],
        order: &[usize],
        fleet: &mut Fleet<'_>,
    ) -> Result<Vec<Placed>> {
        let mut placed = Vec::with_capacity(order.len());
        for &ji in order {
            let app = jobs[ji];
            let (group, key) = self.best_candidate(app, fleet)?;
            let spec = self.group_spec[group];
            let expected = self.estimators[spec].slowdown(&self.labs[spec], app, key)?;
            let socket = fleet.place(group, key, app);
            placed.push(Placed {
                job: ji,
                app,
                socket,
                spec,
                expected,
            });
        }
        Ok(placed)
    }

    /// The candidate bucket minimizing predicted marginal slowdown, with
    /// a deterministic tie-break.
    fn best_candidate(&mut self, app: u8, fleet: &Fleet<'_>) -> Result<(usize, ContentsKey)> {
        let candidates: Vec<(usize, ContentsKey)> = fleet.candidates().collect();
        let mut best: Option<RankedCandidate> = None;
        for (group, key) in candidates {
            let spec = self.group_spec[group];
            let delta = self.estimators[spec].delta(&self.labs[spec], app, key)?;
            // Sort key: delta (total order over bits — deltas are ≥ 1.0,
            // so the bit pattern orders like the value), occupants,
            // group, contents.
            let rank = (delta.to_bits(), crate::fleet::key_total(key), group, key);
            if best.as_ref().is_none_or(|(b, _)| rank < *b) {
                best = Some((rank, (group, key)));
            }
        }
        best.map(|(_, c)| c)
            .ok_or_else(|| ColocError::InsufficientData("no free socket in fleet".into()))
    }

    /// Regret-bounded batched greedy: the predictor screens `top_k`
    /// candidates per job against a chunk-start snapshot, the oracle
    /// measures the survivors in one batched pass, and each job takes the
    /// measured-best candidate still valid in the live fleet (falling
    /// back to live predictor-greedy when the chunk consumed them all).
    fn place_regret_batched(
        &mut self,
        jobs: &[u8],
        order: &[usize],
        fleet: &mut Fleet<'_>,
        batch: usize,
        top_k: usize,
    ) -> Result<Vec<Placed>> {
        let batch = batch.max(1);
        let top_k = top_k.max(1);
        let mut placed = Vec::with_capacity(order.len());
        for chunk in order.chunks(batch) {
            // Snapshot the candidate set once per chunk; screen each
            // job's candidates with the predictor.
            let snapshot: Vec<(usize, ContentsKey)> = fleet.candidates().collect();
            let mut screened: Vec<Vec<(usize, ContentsKey)>> = Vec::with_capacity(chunk.len());
            let mut wants: Vec<Vec<(ContentsKey, u8)>> = vec![Vec::new(); self.labs.len()];
            for &ji in chunk {
                let app = jobs[ji];
                let mut ranked: Vec<RankedCandidate> = Vec::with_capacity(snapshot.len());
                for &(group, key) in &snapshot {
                    let spec = self.group_spec[group];
                    let delta = self.estimators[spec].delta(&self.labs[spec], app, key)?;
                    ranked.push((
                        (delta.to_bits(), crate::fleet::key_total(key), group, key),
                        (group, key),
                    ));
                }
                ranked.sort_by_key(|(rank, _)| *rank);
                ranked.truncate(top_k);
                for &(_, (group, key)) in &ranked {
                    wants[self.group_spec[group]].push((key, app));
                }
                screened.push(ranked.into_iter().map(|(_, c)| c).collect());
            }
            // One batched oracle pass per spec warms every screened
            // measurement; placement below then reads memoized values.
            for (si, w) in wants.iter().enumerate() {
                self.oracles[si].warm(&self.labs[si], w)?;
            }
            for (&ji, cands) in chunk.iter().zip(&screened) {
                let app = jobs[ji];
                let mut best: Option<(RankedCandidate, f64)> = None;
                for &(group, key) in cands {
                    if !fleet.has_free(group, key) {
                        continue;
                    }
                    let spec = self.group_spec[group];
                    let sd = self.oracles[spec].slowdown(&self.labs[spec], app, key)?;
                    let rank = (sd.to_bits(), crate::fleet::key_total(key), group, key);
                    if best.as_ref().is_none_or(|((b, _), _)| rank < *b) {
                        best = Some(((rank, (group, key)), sd));
                    }
                }
                let (group, key, expected) = match best {
                    Some(((_, (group, key)), sd)) => (group, key, sd),
                    None => {
                        // Every screened bucket was consumed by earlier
                        // chunk jobs — fall back to live greedy.
                        let (group, key) = self.best_candidate(app, fleet)?;
                        let spec = self.group_spec[group];
                        let sd = self.oracles[spec].slowdown(&self.labs[spec], app, key)?;
                        (group, key, sd)
                    }
                };
                let spec = self.group_spec[group];
                let socket = fleet.place(group, key, app);
                placed.push(Placed {
                    job: ji,
                    app,
                    socket,
                    spec,
                    expected,
                });
            }
        }
        Ok(placed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coloc_machine::presets;

    fn sim(jobs: usize) -> PlacementSim {
        PlacementSim::new(SimConfig::smoke(jobs)).unwrap()
    }

    #[test]
    fn rejects_degenerate_configs() {
        assert!(PlacementSim::new(SimConfig {
            jobs: 0,
            ..SimConfig::smoke(1)
        })
        .is_err());
        let mut cfg = SimConfig::smoke(10);
        cfg.fleet = FleetSpec { groups: vec![] };
        assert!(PlacementSim::new(cfg).is_err());
    }

    #[test]
    fn solo_wave_has_zero_regret_under_greedy() {
        // Fewer jobs than sockets: least-interference spreads them all
        // solo, expected and oracle slowdowns are both exactly 1.0, so
        // regret is exactly zero and fairness is perfect.
        let mut sim = sim(6);
        let out = sim.run_policy(PlacePolicy::LeastInterference).unwrap();
        assert_eq!(out.jobs, 6);
        assert_eq!(out.waves, 1);
        assert_eq!(out.regret_mean.to_bits(), 0f64.to_bits());
        assert_eq!(out.regret_max.to_bits(), 0f64.to_bits());
        assert_eq!(out.oracle_mean_slowdown.to_bits(), 1f64.to_bits());
        assert_eq!(out.unfairness.to_bits(), 1f64.to_bits());
        assert_eq!(out.qos_violations, 0);
        assert_eq!(out.sockets_used, 6, "one socket per job");
    }

    #[test]
    fn pack_consolidates_and_greedy_spreads() {
        let mut sim = sim(12);
        let pack = sim.run_policy(PlacePolicy::PackFirstFit).unwrap();
        let greedy = sim.run_policy(PlacePolicy::LeastInterference).unwrap();
        assert!(
            pack.sockets_used <= greedy.sockets_used,
            "pack {} vs greedy {}",
            pack.sockets_used,
            greedy.sockets_used
        );
        // 12 jobs fit on the first two sockets of group 0 (6 cores each).
        assert_eq!(pack.sockets_used, 2);
        // Greedy goes solo-first: 8 sockets, then stacks the remainder.
        assert_eq!(greedy.sockets_used, 8);
        assert!(
            greedy.oracle_mean_slowdown <= pack.oracle_mean_slowdown,
            "interference-aware placement beats packing: {} vs {}",
            greedy.oracle_mean_slowdown,
            pack.oracle_mean_slowdown
        );
    }

    #[test]
    fn reruns_are_bit_identical_across_thread_counts() {
        let outcomes: Vec<PolicyOutcome> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                let mut cfg = SimConfig::smoke(100);
                cfg.threads = threads;
                let mut sim = PlacementSim::new(cfg).unwrap();
                sim.run_policy(PlacePolicy::RegretBatched {
                    batch: 16,
                    top_k: 3,
                })
                .unwrap()
            })
            .collect();
        for other in &outcomes[1..] {
            assert_eq!(outcomes[0].digest(), other.digest());
            assert_eq!(outcomes[0].determinism_digest, other.determinism_digest);
        }
    }

    #[test]
    fn single_spec_fleet_runs_every_policy() {
        let mut cfg = SimConfig::smoke(30);
        cfg.fleet = FleetSpec::single(presets::xeon_e5649(), 3);
        let mut sim = PlacementSim::new(cfg).unwrap();
        let report = sim.run_benchmark().unwrap();
        assert_eq!(report.policies.len(), 3);
        assert_eq!(report.total_cores, 18);
        for p in &report.policies {
            assert_eq!(p.jobs, 30);
            assert_eq!(p.waves, 2, "30 jobs over 18 cores");
            assert!(p.oracle_mean_slowdown >= 1.0);
            assert!(p.unfairness >= 1.0);
            assert!(p.regret_mean >= 0.0);
        }
        // The oracle-assisted policy should not lose to blind packing.
        let rb = report.policy("regret-batched").unwrap();
        let pack = report.policy("pack-first-fit").unwrap();
        assert!(rb.oracle_mean_slowdown <= pack.oracle_mean_slowdown);
    }
}
