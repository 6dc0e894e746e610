//! `place`: `PlacementSim::new` then every benchmark policy in order,
//! exactly what `coloc place --policy all` runs.
//!
//! The oracle asks the engine for many small batches through
//! `RunCache::run_batch`, mostly repeats, across four machine shapes;
//! the estimator's featurize+predict dominates least-interference.

use crate::inputs::place_config;
use crate::layers::{add_cache_samples, add_layer_samples, stage_stats_cost_pct, Replay, Samples};
use crate::report::{ms, Clocks, Report, Series};
use crate::trace::{self, Tracer};
use coloc_model::{ColocError, ModelRegistry, Scenario};
use coloc_placement::fleet::{key_add, key_apps, key_co_groups, key_remove};
use coloc_placement::{
    Assignment, ContentsKey, Fleet, PlacePolicy, PlacementSim, SimConfig, SpecEstimator, SpecOracle,
};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Repeat placements per fresh simulator, on its warm memo tables.
const PLACE_REPEATS: usize = 10;

/// Run the workload for `seconds`; `trace` selects the per-layer pass.
pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    nproc: usize,
    report: &mut Report,
) -> Result<(), ColocError> {
    let cfg = place_config(seed, nproc);
    let policies = PlacePolicy::benchmark_set();
    report.notes.push(format!(
        "inputs: {} jobs, memory-heavy mix, stream seed {}, fleet {} sockets / {} cores",
        cfg.jobs,
        cfg.seed,
        cfg.fleet.total_sockets(),
        cfg.fleet.total_cores()
    ));
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut digests: Option<Vec<(String, u64)>> = None;
    let mut stable = true;
    let mut record_digests = |outcomes: Vec<(String, u64)>| match &digests {
        Some(first) => stable &= *first == outcomes,
        None => digests = Some(outcomes),
    };
    if trace {
        traced(&cfg, &policies, deadline, report, &mut record_digests)?;
    } else {
        let jobs = (cfg.jobs * policies.len()) as f64;
        let (mut setup, mut run, mut repeat) =
            (Series::default(), Series::default(), Series::default());
        let mut regret = Vec::new();
        let digest_list = |bench: &coloc_placement::PlacementReport| -> Vec<(String, u64)> {
            bench
                .policies
                .iter()
                .map(|p| (p.policy.clone(), p.determinism_digest))
                .collect()
        };
        loop {
            let clocks = Clocks::start();
            let mut sim = PlacementSim::new(cfg.clone())?;
            setup.push(clocks);
            let clocks = Clocks::start();
            let bench = sim.run_benchmark()?;
            run.push(clocks);
            if let Some(rb) = bench.policy(&policies[2].to_string()) {
                regret.push(rb.regret_mean);
            }
            record_digests(digest_list(&bench));
            // The identical placement again on the warm simulator: every
            // oracle and estimator answer is now memoized.
            for _ in 0..PLACE_REPEATS {
                let clocks = Clocks::start();
                let again = sim.run_benchmark()?;
                repeat.push(clocks);
                record_digests(digest_list(&again));
            }
            report.attempted += ((1 + PLACE_REPEATS) * cfg.jobs * policies.len()) as u64;
            if Instant::now() >= deadline {
                break;
            }
        }
        report.check(
            "place: regret-batched outcome present",
            regret.len() == run.wall.len(),
            format!("{} runs", run.wall.len()),
        );
        report.put("setup_s", "s", setup.cpu);
        report.put("setup_wall_s", "s", setup.wall);
        report.put(
            "place.jobs_per_s",
            "jobs/s",
            run.wall.iter().map(|s| jobs / s).collect(),
        );
        report.put("place.run_ms", "ms", ms(&run.wall));
        report.put("place.repeat_ms", "ms", ms(&repeat.wall));
        report.put_pooled("place.run_cpu_ms", "ms", ms(&run.cpu));
        report.put_pooled("place.repeat_cpu_ms", "ms", ms(&repeat.cpu));
        report.put("place.regret_mean", "ratio", regret);
    }
    let digests = digests.unwrap_or_default();
    let listed: Vec<String> = digests
        .iter()
        .map(|(p, d)| format!("{p}={d:016x}"))
        .collect();
    let now: BTreeMap<String, String> = digests
        .iter()
        .map(|(p, d)| (p.clone(), format!("{d:016x}")))
        .collect();
    let earlier = crate::record::prior_digests("place", seed);
    let differ = earlier.iter().filter(|e| **e != now).count();
    report.check(
        "place: determinism digests equal to earlier recorded runs of this seed",
        differ == 0,
        format!("{} earlier runs, {differ} differ", earlier.len()),
    );
    report
        .notes
        .push(format!("determinism digests: {}", listed.join(" ")));
    report.digests = digests;
    report.check(
        "place: determinism digests equal across runs of this seed",
        stable,
        listed.join(" "),
    );
    Ok(())
}

/// Socket contents per spec index, from one policy's assignments.
fn contents(
    cfg: &SimConfig,
    spec_of_group: &[usize],
    assignments: &[Assignment],
    out: &mut [BTreeSet<ContentsKey>],
) {
    let fleet = Fleet::new(&cfg.fleet);
    let mut sockets: BTreeMap<(usize, u32), ContentsKey> = BTreeMap::new();
    for a in assignments {
        let key = sockets.entry((a.wave, a.socket)).or_insert(0);
        *key = key_add(*key, a.app);
    }
    for ((_, socket), key) in sockets {
        out[spec_of_group[fleet.group_of(socket)]].insert(key);
    }
}

fn traced(
    cfg: &SimConfig,
    policies: &[PlacePolicy],
    deadline: Instant,
    report: &mut Report,
    record_digests: &mut impl FnMut(Vec<(String, u64)>),
) -> Result<(), ColocError> {
    // Distinct machine specs in fleet order, as `PlacementSim` builds them.
    let mut specs: Vec<coloc_machine::MachineSpec> = Vec::new();
    let spec_of_group: Vec<usize> = cfg
        .fleet
        .groups
        .iter()
        .map(
            |g| match specs.iter().position(|s| s.name == g.machine.name) {
                Some(i) => i,
                None => {
                    specs.push(g.machine.clone());
                    specs.len() - 1
                }
            },
        )
        .collect();
    let names = crate::inputs::app_names();
    let mut acc = Samples::default();
    loop {
        let mut untraced = PlacementSim::new(cfg.clone())?;
        let t0 = Instant::now();
        for &p in policies {
            untraced.run_policy(p)?;
        }
        let untraced_s = t0.elapsed().as_secs_f64();
        drop(untraced);

        let mut tr = Tracer::new(Instant::now());
        let mut sim = tr.span("place.setup", 0, |_| PlacementSim::new(cfg.clone()))?;
        let mut per_spec: Vec<BTreeSet<ContentsKey>> = vec![BTreeSet::new(); specs.len()];
        let mut outcomes = Vec::new();
        let mut evaluated = 0;
        let t0 = Instant::now();
        tr.span("place.run", 0, |tr| {
            for (i, &p) in policies.iter().enumerate() {
                let (outcome, assignments) =
                    tr.span("place.policy", i as u64, |_| sim.run_policy_traced(p))?;
                acc.add(
                    format!("oracle.evaluations.{}", p.name()),
                    "count",
                    (outcome.oracle_evaluations - evaluated) as f64,
                );
                evaluated = outcome.oracle_evaluations;
                contents(cfg, &spec_of_group, &assignments, &mut per_spec);
                outcomes.push(outcome);
            }
            Ok::<(), ColocError>(())
        })?;
        let traced_s = t0.elapsed().as_secs_f64();
        drop(sim);
        report.attempted += (cfg.jobs * policies.len()) as u64;
        acc.add(
            "trace.overhead_pct",
            "%",
            (traced_s / untraced_s - 1.0) * 100.0,
        );
        record_digests(
            outcomes
                .iter()
                .map(|o| (o.policy.clone(), o.determinism_digest))
                .collect(),
        );

        // Fresh instances over the placement's distinct socket contents:
        // each lab seeded as `PlacementSim::new` seeds it.
        let mut oracle_ns = 0u64;
        let mut oracle_evals = 0u64;
        let mut estimator_ns = 0u64;
        let mut estimator_calls = 0u64;
        let registry = ModelRegistry::new();
        let mut scenarios: Vec<Vec<Scenario>> = Vec::new();
        let mut labs = Vec::new();
        let mut artifacts = Vec::new();
        for (si, spec) in specs.iter().enumerate() {
            let lab = coloc_model::Lab::new(
                spec.clone(),
                coloc_workloads::standard(),
                coloc_ml::rng::derive_seed_str(cfg.seed, &spec.name),
            )?
            .with_threads(cfg.threads);
            tr.span("perfmon.baselines", si as u64, |_| lab.baselines());
            let mut estimator = tr.span("registry.resolve", si as u64, |_| {
                SpecEstimator::train_with(&registry, &lab, cfg.pstate)
            })?;
            let mut oracle = SpecOracle::new(&lab, cfg.pstate);
            let mut wants = BTreeSet::new();
            for &key in &per_spec[si] {
                for app in key_apps(key) {
                    wants.insert((key_remove(key, app), app));
                    wants.insert((0, app));
                }
            }
            let wants: Vec<(ContentsKey, u8)> = wants.into_iter().collect();
            let t = Instant::now();
            tr.span("oracle.warm", si as u64, |_| oracle.warm(&lab, &wants))?;
            oracle_ns += t.elapsed().as_nanos() as u64;
            oracle_evals += oracle.evaluations();
            for &(others, app) in wants.iter().filter(|(others, _)| *others != 0) {
                let t = Instant::now();
                tr.span("estimator.slowdown", si as u64, |_| {
                    estimator.slowdown(&lab, app, others)
                })?;
                estimator_ns += t.elapsed().as_nanos() as u64;
                estimator_calls += 1;
            }
            scenarios.push(
                wants
                    .iter()
                    .map(|&(others, app)| Scenario {
                        target: names[app as usize].clone(),
                        co_located: key_co_groups(others, &names),
                        pstate: cfg.pstate,
                    })
                    .collect(),
            );
            artifacts.push(std::sync::Arc::clone(estimator.artifact()));
            labs.push(lab);
        }
        acc.add(
            "oracle.time_us",
            "us",
            oracle_ns as f64 / oracle_evals.max(1) as f64 / 1e3,
        );
        acc.add(
            "estimator.slowdown_us",
            "us",
            estimator_ns as f64 / estimator_calls.max(1) as f64 / 1e3,
        );

        // The common layer path over the same scenarios, on the fresh labs
        // (their own run caches stay untouched: the replay has its own).
        let mut replays: Vec<Replay<'_>> = labs
            .iter()
            .zip(&artifacts)
            .map(|(lab, a)| Replay::new(lab, Some(&a.predictor)))
            .collect();
        for (r, list) in replays.iter_mut().zip(&scenarios) {
            for (i, sc) in list.iter().enumerate() {
                r.scenario(&mut tr, "place.scenario", i as u64, sc)?;
            }
        }
        let totals = trace::totals(tr.spans());
        add_layer_samples(&mut acc, &totals, &replays);
        // Cache traffic of the oracle path itself, on the fresh labs.
        add_cache_samples(
            &mut acc,
            labs.iter().map(|lab| {
                let s = lab.sweep_stats();
                coloc_machine::CacheStats {
                    hits: s.cache_hits,
                    misses: s.cache_misses,
                    evictions: s.cache_evictions,
                    len: 0,
                }
            }),
        );
        drop(replays);
        let stats_cost: f64 = specs
            .iter()
            .zip(&scenarios)
            .map(|(spec, list)| stage_stats_cost_pct(spec, cfg.seed, list))
            .collect::<Result<Vec<_>, _>>()?
            .iter()
            .sum::<f64>()
            / specs.len() as f64;
        acc.add("engine.stage_stats_cost_pct", "%", stats_cost);

        let policy_total = totals["place.run"].total_ns as f64 * 1e-9;
        for (i, p) in policies.iter().enumerate() {
            let s: u64 = tr
                .spans()
                .iter()
                .filter(|s| s.name == "place.policy" && s.request == i as u64)
                .map(|s| s.end_ns - s.start_ns)
                .sum();
            acc.add(format!("place.policy_s.{}", p.name()), "s", s as f64 * 1e-9);
        }
        let attributed = (oracle_ns + estimator_ns) as f64 * 1e-9;
        acc.add("place.unattributed_s", "s", policy_total - attributed);
        acc.add(
            "path.unattributed_pct",
            "%",
            (policy_total - attributed) / policy_total * 100.0,
        );
        acc.add(
            "perfmon.baselines_s",
            "s",
            totals["perfmon.baselines"].total_ns as f64 * 1e-9,
        );
        acc.add(
            "registry.resolve_s",
            "s",
            totals["registry.resolve"].total_ns as f64 * 1e-9,
        );
        if Instant::now() >= deadline {
            report.spans = tr.spans().to_vec();
            break;
        }
    }
    acc.into_report(report);
    Ok(())
}
