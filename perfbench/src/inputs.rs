//! Seeded inputs for every workload.
//!
//! The benchmark's `--seed` is the only source of variation: it picks the
//! heterogeneous co-runner mixes a sweep measures, the queries and the
//! Poisson arrival schedule sent to the service, and the placement job
//! stream. The program under test receives only these generated inputs.

use coloc_machine::{presets, MachineSpec, DEFAULT_RUN_CACHE_CAPACITY};
use coloc_ml::rng::{derive_seed_str, splitmix64};
use coloc_model::{Scenario, TrainingPlan};
use coloc_placement::{ClassMix, FleetSpec, SimConfig};
use std::collections::HashSet;

/// Scenarios one sweep lab measures per pass: its Table V plan topped up
/// with seeded heterogeneous mixes. Half the run cache's capacity, so no
/// cache shard comes near its bound and the repeat pass never evicts.
pub const SWEEP_SCENARIOS_PER_LAB: usize = DEFAULT_RUN_CACHE_CAPACITY / 2;

/// Warmed `measure` scenarios the service answers from its cache.
pub const SERVE_POOL: usize = 256;
/// Distinct `predict` scenarios; the prediction error is taken over them.
pub const SERVE_PREDICT_SET: usize = 512;
/// Share of queries that ask for a prediction.
pub const SERVE_PREDICT_SHARE: f64 = 0.5;
/// Share of `measure` queries naming a scenario the service has not seen.
pub const SERVE_FIRST_SEEN_SHARE: f64 = 0.02;
/// Offered rate of the fixed-rate phase, queries per second.
pub const SERVE_FIXED_RATE: f64 = 2_000.0;
/// Offered rates of the ladder, queries per second, in the order run.
pub const SERVE_LADDER: [f64; 6] = [2_000.0, 4_000.0, 6_000.0, 8_000.0, 10_000.0, 12_000.0];
/// Shares of the run's seconds: the fixed-rate phase of mixed queries,
/// the phase at the same rate of warmed `measure` queries only, and the
/// ladder, whose rungs split their share equally. The fixed phase holds
/// as many queries as the top rung, so peak memory does not depend on
/// how far up the ladder a run gets.
pub const SERVE_FIXED_SHARE: f64 = 0.4;
/// See [`SERVE_FIXED_SHARE`].
pub const SERVE_REPEAT_SHARE: f64 = 0.2;
/// See [`SERVE_FIXED_SHARE`].
pub const SERVE_LADDER_SHARE: f64 = 0.4;

/// Jobs in the placement stream.
pub const PLACE_JOBS: usize = 2_000;

/// Deterministic generator (splitmix64 over a counter).
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose of one benchmark seed.
    pub fn new(seed: u64, purpose: &str) -> Rng {
        Rng(derive_seed_str(seed, purpose))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given rate (mean `1 / rate`).
    pub fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// Suite application names, in suite order.
pub fn app_names() -> Vec<String> {
    coloc_workloads::standard()
        .iter()
        .map(|b| b.name.to_string())
        .collect()
}

/// A seeded co-location on a `cores`-core machine: a random target and
/// P-state, and `groups` distinct co-runner apps sharing between
/// `groups` and `cores - 1` copies. Groups are sorted by name, so one
/// co-location has one spelling.
pub fn random_mix(
    rng: &mut Rng,
    apps: &[String],
    cores: usize,
    pstates: usize,
    groups: usize,
) -> Scenario {
    assert!(
        (1..cores).contains(&groups),
        "{groups} groups on {cores} cores"
    );
    let target = apps[rng.below(apps.len())].clone();
    let pstate = rng.below(pstates);
    let mut co: Vec<(String, usize)> = Vec::with_capacity(groups);
    while co.len() < groups {
        let app = &apps[rng.below(apps.len())];
        if !co.iter().any(|(name, _)| name == app) {
            co.push((app.clone(), 1));
        }
    }
    let copies = groups + rng.below(cores - groups);
    for _ in groups..copies {
        let g = rng.below(groups);
        co[g].1 += 1;
    }
    co.sort();
    Scenario {
        target,
        co_located: co,
        pstate,
    }
}

/// Draw `n` distinct mixes not in `taken` (which grows by them), with
/// `groups_of` choosing each mix's co-runner group count.
fn distinct_mixes(
    rng: &mut Rng,
    spec: &MachineSpec,
    n: usize,
    taken: &mut HashSet<Scenario>,
    groups_of: impl Fn(&mut Rng) -> usize,
) -> Vec<Scenario> {
    let apps = app_names();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let groups = groups_of(rng);
        let sc = random_mix(rng, &apps, spec.cores, spec.num_pstates(), groups);
        if taken.insert(sc.clone()) {
            out.push(sc);
        }
    }
    out
}

/// One sweep lab: a machine preset, its lab seed and its scenario list.
#[derive(Clone, Debug, PartialEq)]
pub struct LabInput {
    /// Preset key, as `coloc` names it.
    pub preset: &'static str,
    /// The machine.
    pub spec: MachineSpec,
    /// Seed of the lab's measurement noise.
    pub lab_seed: u64,
    /// Table V plan followed by the seeded heterogeneous mixes.
    pub scenarios: Vec<Scenario>,
}

/// The two validation presets the paper measures on.
pub fn validation_presets() -> [(&'static str, MachineSpec); 2] {
    [
        ("e5649", presets::xeon_e5649()),
        ("e5_2697v2", presets::xeon_e5_2697v2()),
    ]
}

/// Sweep inputs: for each validation preset, the Table V plan plus
/// seeded two- and three-group mixes, [`SWEEP_SCENARIOS_PER_LAB`] in all.
pub fn sweep_inputs(seed: u64) -> Vec<LabInput> {
    validation_presets()
        .into_iter()
        .map(|(preset, spec)| {
            let plan = TrainingPlan::paper_shape(
                spec.cores,
                spec.num_pstates(),
                app_names(),
                coloc_workloads::training_co_runners()
                    .iter()
                    .map(|b| b.name.to_string())
                    .collect(),
            )
            .scenarios();
            let mut rng = Rng::new(seed, &format!("sweep-mixes/{preset}"));
            let mut taken: HashSet<Scenario> = plan.iter().cloned().collect();
            let extra = SWEEP_SCENARIOS_PER_LAB.saturating_sub(plan.len());
            let mixes = distinct_mixes(&mut rng, &spec, extra, &mut taken, |r| 2 + r.below(2));
            LabInput {
                preset,
                lab_seed: derive_seed_str(seed, &format!("sweep-lab/{preset}")),
                scenarios: plan.into_iter().chain(mixes).collect(),
                spec,
            }
        })
        .collect()
}

/// What one query asks for; indices point into [`ServeInputs`] lists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// `predict` for `ServeInputs::predict[i]`.
    Predict(usize),
    /// `measure` for the warmed `ServeInputs::pool[i]`.
    Measure(usize),
    /// `measure` for `ServeInputs::first_seen[i]`, asked exactly once.
    FirstSeen(usize),
}

/// One scheduled query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Query {
    /// When the query is due, seconds after its phase starts.
    pub due_s: f64,
    /// What it asks.
    pub kind: QueryKind,
}

/// One open-loop phase at a fixed offered rate.
#[derive(Clone, Debug, PartialEq)]
pub struct Phase {
    /// `fixed`, `repeat` or `ladder-<rate>`.
    pub name: String,
    /// Offered rate, queries per second.
    pub rate: f64,
    /// Phase length, seconds.
    pub duration_s: f64,
    /// Poisson arrivals in due order.
    pub queries: Vec<Query>,
}

/// Service inputs: scenario lists and the arrival schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeInputs {
    /// `measure` scenarios warmed before timing.
    pub pool: Vec<Scenario>,
    /// `predict` scenarios.
    pub predict: Vec<Scenario>,
    /// `measure` scenarios outside the pool, one query each.
    pub first_seen: Vec<Scenario>,
    /// The fixed-rate phase, the repeat phase, then the ladder.
    pub phases: Vec<Phase>,
}

/// Service inputs on the server's default machine for a run of `seconds`.
pub fn serve_inputs(seed: u64, seconds: f64) -> ServeInputs {
    let spec = presets::xeon_e5649();
    let mut rng = Rng::new(seed, "serve-scenarios");
    let mut taken = HashSet::new();
    let pool = distinct_mixes(&mut rng, &spec, SERVE_POOL, &mut taken, |r| 1 + r.below(3));
    let predict = distinct_mixes(
        &mut rng,
        &spec,
        SERVE_PREDICT_SET,
        &mut HashSet::new(),
        |r| 1 + r.below(3),
    );

    let mut arrivals = Rng::new(seed, "serve-arrivals");
    let mut first_seen_count = 0;
    let rung_s = seconds * SERVE_LADDER_SHARE / SERVE_LADDER.len() as f64;
    let plan = [
        (
            "fixed".to_string(),
            SERVE_FIXED_RATE,
            seconds * SERVE_FIXED_SHARE,
        ),
        (
            "repeat".to_string(),
            SERVE_FIXED_RATE,
            seconds * SERVE_REPEAT_SHARE,
        ),
    ]
    .into_iter()
    .chain(
        SERVE_LADDER
            .iter()
            .map(|&rate| (format!("ladder-{rate:.0}"), rate, rung_s)),
    );
    let phases = plan
        .map(|(name, rate, duration_s)| {
            let mut queries = Vec::new();
            let mut t = arrivals.exp(rate);
            while t < duration_s {
                let kind = if name == "repeat" {
                    QueryKind::Measure(arrivals.below(pool.len()))
                } else if arrivals.unit() < SERVE_PREDICT_SHARE {
                    QueryKind::Predict(arrivals.below(predict.len()))
                } else if arrivals.unit() < SERVE_FIRST_SEEN_SHARE {
                    first_seen_count += 1;
                    QueryKind::FirstSeen(first_seen_count - 1)
                } else {
                    QueryKind::Measure(arrivals.below(pool.len()))
                };
                queries.push(Query { due_s: t, kind });
                t += arrivals.exp(rate);
            }
            Phase {
                name,
                rate,
                duration_s,
                queries,
            }
        })
        .collect();
    let first_seen = distinct_mixes(&mut rng, &spec, first_seen_count, &mut taken, |r| {
        1 + r.below(3)
    });
    ServeInputs {
        pool,
        predict,
        first_seen,
        phases,
    }
}

/// The placement run: the standard four-preset rack, a seeded
/// memory-heavy stream of [`PLACE_JOBS`] jobs, oracle work at `threads`.
pub fn place_config(seed: u64, threads: usize) -> SimConfig {
    SimConfig {
        fleet: FleetSpec::standard(1),
        jobs: PLACE_JOBS,
        mix: ClassMix::memory_heavy(),
        seed: derive_seed_str(seed, "place-stream"),
        pstate: 0,
        qos_threshold: 1.5,
        noise_sigma: None,
        threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coloc_placement::JobStream;

    fn jobs(cfg: &SimConfig) -> Vec<u8> {
        JobStream::new(cfg.seed, cfg.mix, &coloc_workloads::standard())
            .expect("valid stream")
            .take_jobs(cfg.jobs)
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(sweep_inputs(3), sweep_inputs(3));
        assert_ne!(sweep_inputs(3), sweep_inputs(4));
        assert_eq!(serve_inputs(3, 2.0), serve_inputs(3, 2.0));
        assert_ne!(serve_inputs(3, 2.0), serve_inputs(4, 2.0));
        assert_eq!(jobs(&place_config(3, 1)), jobs(&place_config(3, 1)));
        assert_ne!(jobs(&place_config(3, 1)), jobs(&place_config(4, 1)));
    }

    #[test]
    fn sweep_inputs_fit_the_run_cache() {
        for lab in sweep_inputs(11) {
            let distinct: HashSet<&Scenario> = lab.scenarios.iter().collect();
            assert_eq!(
                distinct.len(),
                lab.scenarios.len(),
                "{} repeats",
                lab.preset
            );
            assert!(lab.scenarios.len() <= DEFAULT_RUN_CACHE_CAPACITY);
            assert_eq!(lab.scenarios.len(), SWEEP_SCENARIOS_PER_LAB);
            // The Table V plan leads, and every mix fits the machine.
            assert_eq!(lab.scenarios[0].co_located.len(), 1);
            assert!(lab
                .scenarios
                .iter()
                .all(|s| s.cores_needed() <= lab.spec.cores));
        }
    }

    #[test]
    fn serve_schedule_is_poisson_at_the_offered_rate() {
        let inputs = serve_inputs(5, 10.0);
        assert_eq!(inputs.phases.len(), 2 + SERVE_LADDER.len());
        assert!(inputs.phases[1]
            .queries
            .iter()
            .all(|q| matches!(q.kind, QueryKind::Measure(_))));
        for phase in &inputs.phases {
            let expected = phase.rate * phase.duration_s;
            let got = phase.queries.len() as f64;
            assert!(
                (got - expected).abs() < 5.0 * expected.sqrt(),
                "{}: {got}",
                phase.name
            );
            assert!(phase.queries.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        }
        let asked = inputs
            .phases
            .iter()
            .flat_map(|p| &p.queries)
            .filter(|q| matches!(q.kind, QueryKind::FirstSeen(_)))
            .count();
        assert_eq!(asked, inputs.first_seen.len());
        let pool: HashSet<&Scenario> = inputs.pool.iter().collect();
        assert!(inputs.first_seen.iter().all(|s| !pool.contains(s)));
    }
}
