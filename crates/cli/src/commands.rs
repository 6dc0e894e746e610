//! Command implementations.

use crate::args::ArgMap;
use coloc_machine::{FaultPlan, MachineSpec, SegmentTrace, StageId, StageProfile};
use coloc_model::lab::CheckpointConfig;
use coloc_model::persist;
use coloc_model::scheduler::{Policy, Scheduler};
use coloc_model::{
    ColocError, CrossMatrix, FeatureSet, Lab, ModelKind, ModelRegistry, Scenario, TrainPolicy,
    TrainRequest, TrainingPlan,
};
use coloc_serve::proto::QueryMode;
use coloc_serve::server::{BindAddr, ServeConfig, Server};
use coloc_serve::{QueryClient, Reply, RetryPolicy};

type CmdResult = Result<(), String>;

/// A command failure carrying the process exit code. Service errors map
/// to the sysexits-style codes scripts key on: `overloaded` → 75
/// (EX_TEMPFAIL, retry later), `timeout` → 124 (the `timeout(1)`
/// convention), `shutting_down` → 69 (EX_UNAVAILABLE); everything else
/// is the generic 1.
#[derive(Debug)]
pub struct Failure {
    /// Process exit code.
    pub code: u8,
    /// Message printed to stderr.
    pub message: String,
}

impl From<String> for Failure {
    fn from(message: String) -> Failure {
        Failure { code: 1, message }
    }
}

/// The exit code a [`ColocError`] terminates the process with.
pub fn exit_code_for(err: &ColocError) -> u8 {
    match err {
        ColocError::Overloaded { .. } => 75,
        ColocError::Timeout { .. } => 124,
        ColocError::ShuttingDown => 69,
        _ => 1,
    }
}

fn service_failure(err: ColocError) -> Failure {
    Failure {
        code: exit_code_for(&err),
        message: err.to_string(),
    }
}

fn machine_by_key(key: &str) -> Result<MachineSpec, String> {
    match key {
        "e5649" | "6core" => Ok(coloc_machine::presets::xeon_e5649()),
        "e5_2697v2" | "e5-2697v2" | "12core" => Ok(coloc_machine::presets::xeon_e5_2697v2()),
        "e5_2630v3" | "e5-2630v3" | "8core" => Ok(coloc_machine::presets::xeon_e5_2630v3()),
        "platinum_8153" | "platinum-8153" | "16core" => {
            Ok(coloc_machine::presets::xeon_platinum_8153())
        }
        other => Err(format!(
            "unknown machine `{other}` (try `coloc machines` for the preset list)"
        )),
    }
}

/// The CLI key for a preset spec — inverse of [`machine_by_key`] over the
/// preset list (core counts are unique across presets).
fn preset_key(m: &MachineSpec) -> &'static str {
    match m.cores {
        6 => "e5649",
        8 => "e5_2630v3",
        12 => "e5_2697v2",
        _ => "platinum_8153",
    }
}

fn lab_from(args: &ArgMap) -> Result<Lab, String> {
    let spec = machine_by_key(args.get("machine").unwrap_or("e5649"))?;
    let seed = args.get_parsed_or("seed", 2015u64)?;
    let threads = args.get_parsed_or("threads", 0usize)?;
    let lab = Lab::new(spec, coloc_workloads::standard(), seed).map_err(|e| e.to_string())?;
    let mut lab = lab.with_threads(threads);
    if let Some(spec) = args.get("faults") {
        lab = lab
            .with_faults(parse_fault_plan(spec, seed)?)
            .map_err(|e| e.to_string())?;
    }
    Ok(lab)
}

/// Parse a `--faults` spec: the built-in `light`/`heavy` presets (seeded
/// from the lab seed) or a path to a JSON-serialized [`FaultPlan`].
fn parse_fault_plan(spec: &str, seed: u64) -> Result<FaultPlan, String> {
    match spec {
        "light" => Ok(FaultPlan::light(seed)),
        "heavy" => Ok(FaultPlan::heavy(seed)),
        path => {
            let bytes = std::fs::read(path).map_err(|e| {
                format!("--faults `{path}` is neither light|heavy nor a readable file: {e}")
            })?;
            serde_json::from_slice(&bytes).map_err(|e| format!("bad fault plan `{path}`: {e}"))
        }
    }
}

fn parse_kind(s: &str) -> Result<ModelKind, String> {
    match s {
        "linear" => Ok(ModelKind::Linear),
        "nn" | "neural-net" => Ok(ModelKind::NeuralNet),
        "quadratic" => Ok(ModelKind::QuadraticLinear),
        other => Err(format!(
            "unknown model kind `{other}` (linear | nn | quadratic)"
        )),
    }
}

fn parse_set(s: &str) -> Result<FeatureSet, String> {
    FeatureSet::ALL
        .into_iter()
        .find(|f| f.label().eq_ignore_ascii_case(s))
        .ok_or_else(|| format!("unknown feature set `{s}` (A..F)"))
}

/// Parse `name:count` co-runner specs.
fn parse_co(specs: &[String]) -> Result<Vec<(String, usize)>, String> {
    specs
        .iter()
        .map(|s| {
            let (name, count) = s.split_once(':').unwrap_or((s.as_str(), "1"));
            let count: usize = count
                .parse()
                .map_err(|_| format!("bad co-runner spec `{s}` (want name:count)"))?;
            Ok((name.to_string(), count))
        })
        .collect()
}

/// `coloc baselines --machine <key> [--seed N] --out <file>`
pub fn baselines(argv: &[String]) -> CmdResult {
    let args = ArgMap::parse(argv)?;
    if args.has_flag("help") {
        println!("coloc baselines --machine <e5649|e5_2697v2> [--seed N] --out <file>");
        return Ok(());
    }
    let lab = lab_from(&args)?;
    let out = args.require("out")?;
    let db = lab.baselines();
    db.save(out).map_err(|e| e.to_string())?;
    println!("wrote {} baselines to {out}", db.len());
    for b in db.iter() {
        println!(
            "  {:<14} MI {:.3e}  t@P0 {:.0}s",
            b.name, b.memory_intensity, b.exec_time_s[0]
        );
    }
    Ok(())
}

/// `coloc collect --machine <key> (--paper-plan | --counts a,b,c) --out <file>`
pub fn collect(argv: &[String]) -> CmdResult {
    let args = ArgMap::parse(argv)?;
    if args.has_flag("help") {
        println!(
            "coloc collect --machine <key> [--paper-plan] [--counts 1,3,5] \
             [--pstates 0,3] [--seed N] [--threads N] [--stage-stats] \
             [--faults light|heavy|<plan.json>] [--checkpoint <file>] \
             [--checkpoint-every N] [--crash-after N] --out <file>"
        );
        return Ok(());
    }
    let mut lab = lab_from(&args)?;
    if args.has_flag("stage-stats") {
        lab = lab.with_stage_stats(true);
    }
    let out = args.require("out")?;
    let mut plan = lab.paper_plan();
    if !args.has_flag("paper-plan") {
        if let Some(counts) = args.get("counts") {
            plan.counts = parse_usize_list(counts)?;
        }
        if let Some(pstates) = args.get("pstates") {
            plan.pstates = parse_usize_list(pstates)?;
        }
    }
    eprintln!("collecting {} runs…", plan.len());
    let samples = if let Some(cp) = args.get("checkpoint") {
        let cfg = CheckpointConfig {
            path: cp.into(),
            every: args.get_parsed_or("checkpoint-every", 25usize)?,
            crash_after: match args.get("crash-after") {
                Some(v) => Some(
                    v.parse()
                        .map_err(|e| format!("invalid value for --crash-after: {e}"))?,
                ),
                None => None,
            },
        };
        lab.collect_resumable(&plan.scenarios(), &cfg)
            .map_err(|e| e.to_string())?
    } else {
        lab.collect(&plan).map_err(|e| e.to_string())?
    };
    let stats = lab.sweep_stats();
    eprintln!("sweep: {stats}");
    if let Some(stages) = stats.stage_summary() {
        eprintln!("stage breakdown (engine misses only):\n{stages}");
    }
    persist::save_samples(&samples, out).map_err(|e| e.to_string())?;
    println!("wrote {} samples to {out}", samples.len());
    Ok(())
}

fn parse_usize_list(s: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(|x| {
            x.trim()
                .parse()
                .map_err(|_| format!("bad list entry `{x}`"))
        })
        .collect()
}

/// `coloc train --samples <file> --kind <k> --set <s> --out <file>`
pub fn train(argv: &[String]) -> CmdResult {
    let args = ArgMap::parse(argv)?;
    if args.has_flag("help") {
        println!(
            "coloc train --samples <file> [--kind linear|nn|quadratic] \
             [--set A..F] [--seed N] [--robust] [--retries N] --out <file>\n\n\
             Trains through the model registry and writes a versioned,\n\
             digest-addressed model artifact (predictor + provenance) that\n\
             `coloc predict`, `coloc schedule`, `coloc matrix` and\n\
             `coloc serve --model` all resolve the same way."
        );
        return Ok(());
    }
    let samples = persist::load_samples(args.require("samples")?).map_err(|e| e.to_string())?;
    let kind = parse_kind(args.get("kind").unwrap_or("nn"))?;
    let set = parse_set(args.get("set").unwrap_or("F"))?;
    let seed = args.get_parsed_or("seed", 2015u64)?;
    let out = args.require("out")?;
    let policy = if args.has_flag("robust") || args.get("retries").is_some() {
        Some(TrainPolicy {
            retries: args.get_parsed_or("retries", TrainPolicy::default().retries)?,
            ..Default::default()
        })
    } else {
        None
    };
    let registry = ModelRegistry::new();
    let trained = registry
        .train_from_samples(&samples, kind, set, seed, policy.as_ref())
        .map_err(|e| e.to_string())?;
    if let Some(report) = &trained.report {
        eprintln!("robust training: {report}");
    }
    registry
        .save(&trained.artifact, out)
        .map_err(|e| e.to_string())?;
    println!(
        "trained {} model on feature set {} ({} samples) -> {out}",
        trained.artifact.predictor.kind().label(),
        set.label(),
        samples.len()
    );
    println!("artifact digest {}", trained.artifact.digest_hex());
    Ok(())
}

/// `coloc predict --machine <key> --model <file> --target <app> --co name:count… --pstate N`
pub fn predict(argv: &[String]) -> CmdResult {
    let args = ArgMap::parse(argv)?;
    if args.has_flag("help") {
        println!(
            "coloc predict --machine <key> --model <file> --target <app> \
             [--co name:count]… [--pstate N] [--measure]"
        );
        return Ok(());
    }
    let lab = lab_from(&args)?;
    let artifact = ModelRegistry::new()
        .load(args.require("model")?)
        .map_err(|e| e.to_string())?;
    let model = &artifact.predictor;
    let scenario = Scenario {
        target: args.require("target")?.to_string(),
        co_located: parse_co(args.get_all("co"))?,
        pstate: args.get_parsed_or("pstate", 0usize)?,
    };
    let features = lab.featurize(&scenario).map_err(|e| e.to_string())?;
    let predicted = model.predict(&features);
    println!("scenario:  {scenario}");
    println!(
        "predicted: {predicted:.1} s  (slowdown {:.3}x)",
        model.predict_slowdown(&features)
    );
    if args.has_flag("measure") {
        let actual = lab.run_scenario(&scenario).map_err(|e| e.to_string())?;
        println!(
            "measured:  {actual:.1} s  (prediction error {:+.2}%)",
            100.0 * (predicted - actual) / actual
        );
    }
    Ok(())
}

/// `coloc schedule --machine <key> --model <file> --jobs a,b,c --sockets N`
pub fn schedule(argv: &[String]) -> CmdResult {
    let args = ArgMap::parse(argv)?;
    if args.has_flag("help") {
        println!(
            "coloc schedule --machine <key> --model <file> --jobs a,b,c \
             [--sockets N] [--pstate N] [--naive]"
        );
        return Ok(());
    }
    let lab = lab_from(&args)?;
    let artifact = ModelRegistry::new()
        .load(args.require("model")?)
        .map_err(|e| e.to_string())?;
    let model = &artifact.predictor;
    let jobs: Vec<String> = args
        .require("jobs")?
        .split(',')
        .map(|s| s.trim().to_string())
        .collect();
    let sockets = args.get_parsed_or("sockets", 1usize)?;
    let pstate = args.get_parsed_or("pstate", 0usize)?;
    let policy = if args.has_flag("naive") {
        Policy::PackFirstFit
    } else {
        Policy::LeastInterference
    };
    let sched = Scheduler::new(&lab, model, pstate);
    let placement = sched
        .place(&jobs, sockets, policy)
        .map_err(|e| e.to_string())?;
    for (i, s) in placement.sockets.iter().enumerate() {
        println!("socket {i}: {}", s.jobs.join(", "));
    }
    if placement.predicted_slowdowns.is_empty() {
        println!("no jobs placed");
        return Ok(());
    }
    println!(
        "predicted slowdown: mean {:.3}x, worst {:.3}x, unfairness {:.3} ({} sockets used)",
        placement.mean_slowdown().map_err(|e| e.to_string())?,
        placement.max_slowdown().map_err(|e| e.to_string())?,
        placement.unfairness().map_err(|e| e.to_string())?,
        placement.sockets_used()
    );
    Ok(())
}

/// `coloc matrix --machine <key> [--pstate N] [--model <file>] [--out <file>]`
///
/// Measures the full pairwise cross-interference matrix over the suite
/// (every target × every single co-runner) and compares it with a
/// registry-resolved model's predictions.
pub fn matrix(argv: &[String]) -> CmdResult {
    let args = ArgMap::parse(argv)?;
    if args.has_flag("help") {
        println!(
            "coloc matrix --machine <key> [--pstate N] [--seed N] [--threads N]\n\
             \x20           [--model <artifact.json>] [--out <matrix.json>]\n\n\
             Measures slowdown for all suite pairs (target × 1 co-runner) and\n\
             fills the predicted side from a model artifact: either --model,\n\
             or a linear full-feature model the registry trains on the spot.\n\
             Identical-app pairs are checked for bit-identical per-group\n\
             counters (the `matrix-identical-pair-symmetry` law)."
        );
        return Ok(());
    }
    let lab = lab_from(&args)?;
    let pstate = args.get_parsed_or("pstate", 0usize)?;
    let registry = ModelRegistry::new();
    let artifact = match args.get("model") {
        Some(path) => registry.load(path).map_err(|e| e.to_string())?,
        None => {
            let cores = lab.machine().spec().cores;
            let mut counts = vec![1usize, (cores / 2).max(1), cores - 1];
            counts.dedup();
            counts.retain(|&c| c >= 1);
            let req = TrainRequest {
                kind: ModelKind::Linear,
                set: FeatureSet::F,
                plan: TrainingPlan {
                    pstates: vec![pstate],
                    targets: lab.suite().iter().map(|b| b.name.to_string()).collect(),
                    co_runners: coloc_workloads::training_co_runners()
                        .iter()
                        .map(|b| b.name.to_string())
                        .collect(),
                    counts,
                },
                seed: args.get_parsed_or("seed", 2015u64)?,
                policy: None,
            };
            registry.resolve(&lab, &req).map_err(|e| e.to_string())?
        }
    };
    let m = CrossMatrix::compute(&lab, &artifact, pstate).map_err(|e| e.to_string())?;
    print!(
        "measured slowdown matrix ({} @ P{}):\n{}",
        m.machine,
        m.pstate,
        m.render_measured()
    );
    println!(
        "model {}: MPE {:.2}%, NRMSE {:.2}%, worst cell {:.2}%",
        m.model_digest, m.summary.mpe_pct, m.summary.nrmse_pct, m.summary.max_abs_pct_err
    );
    println!(
        "identical-pair counter symmetry: {}",
        if m.summary.identical_pairs_symmetric {
            "ok (all pairs bit-identical)"
        } else {
            "VIOLATED"
        }
    );
    if let Some(out) = args.get("out") {
        persist::save_json_atomic(&m, out).map_err(|e| e.to_string())?;
        println!("wrote matrix artifact to {out}");
    }
    if !m.summary.identical_pairs_symmetric {
        return Err("identical-app pairs produced asymmetric counters".into());
    }
    Ok(())
}

/// `coloc suite`
pub fn suite(argv: &[String]) -> CmdResult {
    let args = ArgMap::parse(argv)?;
    if args.has_flag("help") {
        println!("coloc suite — list the benchmark suite");
        return Ok(());
    }
    println!("{:<16} {:<8} class", "application", "suite");
    for b in coloc_workloads::standard() {
        println!("{:<16} {:<8} {}", b.name, b.suite.tag(), b.class);
    }
    Ok(())
}

/// `coloc machines`
pub fn machines(argv: &[String]) -> CmdResult {
    let args = ArgMap::parse(argv)?;
    if args.has_flag("help") {
        println!("coloc machines — list machine presets");
        return Ok(());
    }
    for m in coloc_machine::presets::all() {
        let key = preset_key(&m);
        println!(
            "{key:<12} {} — {} cores, {} MB L3, {:.2}–{:.2} GHz",
            m.name,
            m.cores,
            m.llc_bytes >> 20,
            m.pstates_ghz.last().expect("pstates"),
            m.pstates_ghz[0]
        );
    }
    Ok(())
}

/// `coloc trace --machine <key> --target <app> [--co name:count]… [--pstate N]`
///
/// Runs one scenario through the staged engine with the segment trace
/// ring attached and dumps the most recent segments: per-segment dt,
/// converged DRAM latency, fixed-point iteration count and final
/// residual. `--stage-stats` attaches a stage profile to the same run
/// and adds the per-stage pipeline breakdown.
pub fn trace(argv: &[String]) -> CmdResult {
    let args = ArgMap::parse(argv)?;
    if args.has_flag("help") {
        println!(
            "coloc trace --machine <key> --target <app> [--co name:count]… \
             [--pstate N] [--seed N] [--last N] [--stage-stats]\n\n\
             Replays one scenario with the engine's segment trace ring\n\
             attached and dumps the last N segments (default 32), plus the\n\
             per-stage pipeline breakdown with --stage-stats."
        );
        return Ok(());
    }
    let lab = lab_from(&args)?;
    let scenario = Scenario {
        target: args.require("target")?.to_string(),
        co_located: parse_co(args.get_all("co"))?,
        pstate: args.get_parsed_or("pstate", 0usize)?,
    };
    let last = args.get_parsed_or("last", 32usize)?;
    let ir = lab.scenario_ir(&scenario).map_err(|e| e.to_string())?;
    let machine = ir.machine().map_err(|e| e.to_string())?;
    let mut trace = SegmentTrace::new(last);
    let mut profile = args.has_flag("stage-stats").then(StageProfile::new);
    let outcome = machine
        .run_observed(
            &ir.workload,
            ir.schedules.as_deref(),
            &ir.opts,
            profile.as_mut(),
            Some(&mut trace),
        )
        .map_err(|e| e.to_string())?;

    println!("scenario: {scenario}");
    println!("ir digest: {:#034x}", ir.digest());
    println!(
        "{} segments, {} fixed-point iters, wall {:.3}s",
        outcome.segments, outcome.fp_iterations, outcome.wall_time_s
    );
    if trace.dropped() > 0 {
        println!(
            "… {} earlier segments dropped (ring capacity {})",
            trace.dropped(),
            trace.capacity()
        );
    }
    println!(
        "{:>9}  {:>13}  {:>12}  {:>4}  {:>10}  {:>6}  {:>8}",
        "segment", "dt (s)", "latency (ns)", "fp", "residual", "events", "resident"
    );
    for r in trace.records() {
        println!(
            "{:>9}  {:>13.6}  {:>12.2}  {:>4}  {:>10.3e}  {:>6}  {:>8}",
            r.segment, r.dt, r.latency_ns, r.fp_iters, r.residual, r.events, r.resident_groups
        );
    }

    if let Some(profile) = profile {
        println!("stage breakdown:");
        for id in StageId::ALL {
            let s = profile.get(id);
            println!(
                "  {:<17} {:>9} calls  {:>10.3} ms",
                id.label(),
                s.invocations,
                s.nanos as f64 * 1e-6
            );
        }
    }
    Ok(())
}

/// `coloc place --jobs N [--fleet standard:<scale> | --machine <key>
/// --sockets N] [--mix <name>] [--policy <name>|all] [--qos X]
/// [--seed N] [--threads N] [--out <file>]`
pub fn place(argv: &[String]) -> CmdResult {
    use coloc_placement::fleet::MAX_SOCKETS;
    use coloc_placement::{ClassMix, FleetSpec, PlacePolicy, PlacementSim, SimConfig};
    let args = ArgMap::parse(argv)?;
    if args.has_flag("help") {
        println!(
            "coloc place --jobs N [--fleet standard:<scale>] [--machine <key> --sockets N]\n\
             \x20          [--mix uniform|memory-heavy|compute-heavy] [--policy <name>|all]\n\
             \x20          [--qos X] [--seed N] [--threads N] [--out <file>]\n\n\
             Streams N synthetic jobs through a simulated fleet in waves,\n\
             places each wave with the chosen policy (pack-first-fit |\n\
             least-interference | regret-batched | all), and scores the\n\
             result against the simulator-as-oracle: mean/max slowdown,\n\
             unfairness, QoS violations above --qos, sockets used, and the\n\
             regret between decision-time expectations and measured truth.\n\
             --fleet standard:<scale> is the mixed 4-preset rack (8×scale\n\
             sockets); --machine/--sockets builds a single-preset fleet.\n\
             --out writes the full JSON report."
        );
        return Ok(());
    }
    let jobs = args.get_parsed_or("jobs", 1000usize)?;
    let fleet = match (args.get("fleet"), args.get("machine")) {
        (Some(_), Some(_)) => return Err("--fleet and --machine are mutually exclusive".into()),
        (None, Some(key)) => {
            FleetSpec::single(machine_by_key(key)?, args.get_parsed_or("sockets", 4usize)?)
        }
        (fleet, None) => {
            let spec = fleet.unwrap_or("standard:1");
            let scale = match spec.strip_prefix("standard:") {
                Some(s) => s
                    .parse::<usize>()
                    .map_err(|_| format!("bad fleet scale in `{spec}`"))?,
                None => return Err(format!("unknown fleet `{spec}` (try standard:<scale>)")),
            };
            // Refused before it is built: `FleetSpec::standard` itself
            // overflows on scales far beyond the socket bound.
            let per_scale = FleetSpec::standard(1).total_sockets();
            if scale > MAX_SOCKETS / per_scale {
                return Err(format!("fleet `{spec}` exceeds {MAX_SOCKETS} sockets"));
            }
            FleetSpec::standard(scale)
        }
    };
    let mix = ClassMix::by_name(args.get("mix").unwrap_or("uniform"))?;
    let cfg = SimConfig {
        fleet,
        jobs,
        mix,
        seed: args.get_parsed_or("seed", 2015u64)?,
        pstate: args.get_parsed_or("pstate", 0usize)?,
        qos_threshold: args.get_parsed_or("qos", 1.5f64)?,
        noise_sigma: None,
        threads: args.get_parsed_or("threads", 0usize)?,
    };
    let mut sim = PlacementSim::new(cfg).map_err(|e| e.to_string())?;
    let report = match args.get("policy").unwrap_or("all") {
        "all" => sim.run_benchmark().map_err(|e| e.to_string())?,
        name => {
            let policy = PlacePolicy::by_name(name)?;
            let outcome = sim.run_policy(policy).map_err(|e| e.to_string())?;
            let mut report = sim.report_shell();
            report.policies.push(outcome);
            report
        }
    };
    println!(
        "fleet: {} ({} sockets, {} cores) — {} jobs, seed {}",
        report.fleet.join(" + "),
        report.total_sockets,
        report.total_cores,
        report.jobs,
        report.seed
    );
    println!(
        "{:<32} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8} {:>10}",
        "policy", "regret", "oracle-sd", "unfair", "qos", "sockets", "waves", "jobs/s"
    );
    for p in &report.policies {
        println!(
            "{:<32} {:>10.4} {:>10.4} {:>10.3} {:>8} {:>8} {:>8} {:>10.0}",
            p.policy,
            p.regret_mean,
            p.oracle_mean_slowdown,
            p.unfairness,
            p.qos_violations,
            p.sockets_used,
            p.waves,
            p.jobs_per_sec
        );
    }
    if let Some(out) = args.get("out") {
        let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        std::fs::write(out, json + "\n").map_err(|e| format!("{out}: {e}"))?;
        println!("report written to {out}");
    }
    Ok(())
}

/// `coloc verify [--corpus <dir>] [--spot N] [--seed N] [--threads N]`
pub fn verify(argv: &[String]) -> CmdResult {
    let args = ArgMap::parse(argv)?;
    if args.has_flag("help") {
        println!(
            "coloc verify [--corpus <dir>] [--spot N] [--seed N] [--threads N]\n\n\
             Replays the checked-in conformance corpus (differential cases\n\
             through the naive reference engine, law-tagged cases through\n\
             their metamorphic law), then differential-spot-checks N freshly\n\
             generated scenarios. Cases fan out across --threads workers\n\
             (0 = one per core); the report is identical at any setting.\n\
             Exits non-zero on any divergence."
        );
        return Ok(());
    }
    let dir = match args.get("corpus") {
        Some(d) => std::path::PathBuf::from(d),
        None => coloc_conformance::default_corpus_dir(),
    };
    let spot = args.get_parsed_or("spot", 16usize)?;
    let seed = args.get_parsed_or("seed", 0xC0_10Cu64)?;
    let threads = args.get_parsed_or("threads", 0usize)?;

    let report = coloc_conformance::verify_dir_threaded(&dir, threads)?;
    println!(
        "corpus {} — {} cases replayed ({} differential, {} law)",
        dir.display(),
        report.total(),
        report.differential,
        report.law_checks
    );
    for failure in &report.failures {
        println!("  FAIL {failure}");
    }

    let placement_dir = coloc_conformance::placement_corpus_dir(&dir);
    let placement = coloc_conformance::verify_placement_dir(&placement_dir)?;
    println!(
        "placement corpus {} — {} cases replayed through their laws",
        placement_dir.display(),
        placement.law_checks
    );
    for failure in &placement.failures {
        println!("  FAIL {failure}");
    }

    let mut spot_failures = 0usize;
    if spot > 0 {
        match coloc_conformance::differential_sweep_threaded(seed, spot, threads) {
            Ok(summary) => println!(
                "spot-check — {} generated scenarios agree (max slowdown gap {:.2e})",
                summary.cases, summary.max_slowdown_gap
            ),
            Err(failure) => {
                spot_failures = 1;
                println!(
                    "  FAIL spot-check (shrunk): {}\n       {}",
                    failure.case.describe(),
                    failure.detail
                );
            }
        }
    }

    if report.is_clean() && placement.is_clean() && spot_failures == 0 {
        println!("verify: OK");
        Ok(())
    } else {
        Err(format!(
            "{} corpus failure(s), {} placement failure(s), {} spot-check failure(s)",
            report.failures.len(),
            placement.failures.len(),
            spot_failures
        ))
    }
}

/// `coloc serve [--tcp addr | --unix path] [--machine <key>] …`
///
/// Runs the prediction service on the calling thread until SIGTERM /
/// SIGINT / a `shutdown` frame drains it, then prints the final stats
/// frame to stderr. SIGHUP (or a `reload` frame) hot-swaps the model
/// artifacts without a drain.
pub fn serve(argv: &[String]) -> Result<(), Failure> {
    let args = ArgMap::parse(argv)?;
    if args.has_flag("help") {
        println!(
            "coloc serve [--tcp 127.0.0.1:7105 | --unix <path>] [--machine <key>]\n\
             \x20           [--seed N] [--threads N] [--capacity N] [--watermark N]\n\
             \x20           [--max-batch N] [--deadline-ms N] [--retry-hint-ms N]\n\
             \x20           [--stats-interval-s N] [--model <file>] [--quiet]\n\n\
             Serves slowdown queries as line-delimited JSON. Bounded admission\n\
             sheds with `overloaded` past --capacity; past --watermark the\n\
             degradation ladder answers from cache / the linear fallback and\n\
             labels those answers degraded. --model points at a registry\n\
             artifact (as written by `coloc train`); SIGHUP or a `reload`\n\
             frame hot-swaps it with zero drain — in-flight requests finish\n\
             on the old artifact and stats frames report model_epoch and\n\
             model_digest. SIGTERM drains gracefully."
        );
        return Ok(());
    }
    let bind = match (args.get("tcp"), args.get("unix")) {
        (Some(_), Some(_)) => {
            return Err(Failure::from(
                "--tcp and --unix are mutually exclusive".to_string(),
            ))
        }
        (None, Some(path)) => BindAddr::Unix(path.into()),
        (tcp, None) => BindAddr::Tcp(tcp.unwrap_or("127.0.0.1:7105").to_string()),
    };
    let machine = args.get("machine").unwrap_or("e5649");
    machine_by_key(machine)?; // fail with the preset list before binding
    let cfg = ServeConfig {
        bind,
        seed: args.get_parsed_or("seed", 2015u64)?,
        default_machine: machine.to_string(),
        admission_capacity: args.get_parsed_or("capacity", 256usize)?,
        degrade_watermark: args.get_parsed_or("watermark", 128usize)?,
        max_batch: args.get_parsed_or("max-batch", 32usize)?,
        engine_threads: args.get_parsed_or("threads", 0usize)?,
        default_deadline_ms: args.get_parsed_or("deadline-ms", 2_000u64)?,
        retry_hint_ms: args.get_parsed_or("retry-hint-ms", 50u64)?,
        stats_interval: std::time::Duration::from_secs(
            args.get_parsed_or("stats-interval-s", 10u64)?,
        ),
        quiet: args.has_flag("quiet"),
        model_path: args.get("model").map(Into::into),
    };
    coloc_serve::signals::install();
    let frame = Server::run(cfg).map_err(service_failure)?;
    eprintln!(
        "serve: drained — {} admitted, {} completed, {} shed, p99 {:.1} ms",
        frame.admitted,
        frame.completed,
        frame.shed_overload + frame.shed_deadline,
        frame.latency_p99_ms
    );
    Ok(())
}

fn connect_client(args: &ArgMap) -> Result<QueryClient, Failure> {
    match (args.get("addr"), args.get("unix")) {
        (Some(_), Some(_)) => Err(Failure::from(
            "--addr and --unix are mutually exclusive".to_string(),
        )),
        (None, Some(path)) => {
            #[cfg(unix)]
            {
                QueryClient::connect_unix(std::path::Path::new(path)).map_err(service_failure)
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                Err(Failure::from(
                    "--unix sockets are only available on Unix targets".to_string(),
                ))
            }
        }
        (addr, None) => {
            QueryClient::connect_tcp(addr.unwrap_or("127.0.0.1:7105")).map_err(service_failure)
        }
    }
}

/// `coloc query [--addr host:port | --unix path] --target <app> …`
///
/// One round trip to a running `coloc serve`, with the bounded
/// retry-with-backoff discipline on `overloaded` answers. Exit codes:
/// 0 ok, 75 overloaded after retries, 124 deadline expired, 69 server
/// draining, 1 anything else.
pub fn query(argv: &[String]) -> Result<(), Failure> {
    let args = ArgMap::parse(argv)?;
    if args.has_flag("help") {
        println!(
            "coloc query [--addr 127.0.0.1:7105 | --unix <path>] --target <app>\n\
             \x20           [--co name:count]… [--pstate N] [--predict]\n\
             \x20           [--deadline-ms N] [--machine <key>] [--retries N]\n\
             \x20           [--backoff-ms N] [--jitter-seed N]\n\
             coloc query … --ping | --stats | --reload | --shutdown\n\n\
             Exit codes: 0 ok, 75 overloaded (after retries), 124 deadline\n\
             expired, 69 server shutting down, 1 other errors, 2 usage."
        );
        return Ok(());
    }
    let mut client = connect_client(&args)?;
    if args.has_flag("ping") {
        client.ping().map_err(service_failure)?;
        println!("pong");
        return Ok(());
    }
    if args.has_flag("stats") {
        let frame = client.stats().map_err(service_failure)?;
        println!(
            "{}",
            serde_json::to_string(&frame).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    if args.has_flag("reload") {
        let (epoch, digest) = client.reload().map_err(service_failure)?;
        println!("reloaded: model_epoch {epoch}, model_digest {digest}");
        return Ok(());
    }
    if args.has_flag("shutdown") {
        client.shutdown().map_err(service_failure)?;
        println!("server draining");
        return Ok(());
    }
    let scenario = Scenario {
        target: args.require("target")?.to_string(),
        co_located: parse_co(args.get_all("co"))?,
        pstate: args.get_parsed_or("pstate", 0usize)?,
    };
    let mode = if args.has_flag("predict") {
        QueryMode::Predict
    } else {
        QueryMode::Measure
    };
    let deadline_ms = match args.get("deadline-ms") {
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|e| format!("invalid value for --deadline-ms: {e}"))?,
        ),
        None => None,
    };
    let policy = RetryPolicy {
        retries: args.get_parsed_or("retries", RetryPolicy::default().retries)?,
        base_backoff_ms: args
            .get_parsed_or("backoff-ms", RetryPolicy::default().base_backoff_ms)?,
        jitter_seed: args.get_parsed_or("jitter-seed", RetryPolicy::default().jitter_seed)?,
        ..RetryPolicy::default()
    };
    let reply = client
        .query_with_retry(&scenario, mode, deadline_ms, args.get("machine"), &policy)
        .map_err(service_failure)?;
    match reply {
        Reply::Ok {
            time_s,
            slowdown,
            source,
            degraded,
            ..
        } => {
            println!("scenario:  {scenario}");
            print!("answer:    {time_s:.3} s");
            if let Some(s) = slowdown {
                print!("  (slowdown {s:.3}x)");
            }
            print!("  [{source}]");
            if degraded {
                print!("  DEGRADED");
            }
            println!();
            Ok(())
        }
        Reply::Err { error, .. } => Err(service_failure(error)),
        other => Err(Failure::from(format!("unexpected reply: {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("coloc-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn full_workflow_roundtrips_through_files() {
        let samples_path = tmp("samples.json");
        let model_path = tmp("model.json");
        let baselines_path = tmp("baselines.json");

        baselines(&argv(&["--machine", "e5649", "--out", &baselines_path])).unwrap();
        collect(&argv(&[
            "--machine",
            "e5649",
            "--counts",
            "1,3",
            "--pstates",
            "0",
            "--out",
            &samples_path,
        ]))
        .unwrap();
        train(&argv(&[
            "--samples",
            &samples_path,
            "--kind",
            "linear",
            "--set",
            "C",
            "--out",
            &model_path,
        ]))
        .unwrap();
        predict(&argv(&[
            "--machine",
            "e5649",
            "--model",
            &model_path,
            "--target",
            "canneal",
            "--co",
            "cg:3",
            "--pstate",
            "0",
        ]))
        .unwrap();
        schedule(&argv(&[
            "--machine",
            "e5649",
            "--model",
            &model_path,
            "--jobs",
            "cg,cg,ep,ep",
            "--sockets",
            "2",
        ]))
        .unwrap();
    }

    #[test]
    fn chaotic_workflow_with_faults_checkpoint_and_robust_training() {
        let samples_path = tmp("chaos_samples.json");
        let model_path = tmp("chaos_model.json");
        let checkpoint_path = tmp("chaos_checkpoint.json");
        let _ = std::fs::remove_file(&checkpoint_path);

        // A crash-after collect is interrupted but leaves a checkpoint…
        let collect_args = |crash: Option<&str>| {
            let mut v = argv(&[
                "--machine",
                "e5649",
                "--counts",
                "1,3",
                "--pstates",
                "0",
                "--faults",
                "heavy",
                "--checkpoint",
                &checkpoint_path,
                "--checkpoint-every",
                "3",
                "--out",
                &samples_path,
            ]);
            if let Some(n) = crash {
                v.extend(argv(&["--crash-after", n]));
            }
            v
        };
        let err = collect(&collect_args(Some("4"))).unwrap_err();
        assert!(err.contains("interrupted after 4"), "{err}");
        // …and a rerun resumes from it and completes.
        collect(&collect_args(None)).unwrap();

        train(&argv(&[
            "--samples",
            &samples_path,
            "--kind",
            "nn",
            "--set",
            "C",
            "--robust",
            "--out",
            &model_path,
        ]))
        .unwrap();
        let artifact = ModelRegistry::new().load(&model_path).unwrap();
        assert!(artifact.spec.robust, "provenance records the robust ladder");

        assert!(parse_fault_plan("light", 1).is_ok());
        assert!(parse_fault_plan("/nonexistent/plan.json", 1).is_err());
        let _ = std::fs::remove_file(&checkpoint_path);
    }

    #[test]
    fn helpful_errors() {
        assert!(machine_by_key("pentium4").is_err());
        assert!(parse_kind("svm").is_err());
        assert!(parse_set("G").is_err());
        assert!(parse_co(&["cg:x".to_string()]).is_err());
        assert!(train(&argv(&["--out", "x.json"])).is_err());
        assert!(predict(&argv(&[])).is_err());
    }

    #[test]
    fn place_refuses_oversize_fleets_and_non_finite_qos() {
        for bad in [
            &["--machine", "e5649", "--sockets", "4294967297"][..],
            &["--fleet", "standard:3000000000000000000"],
            &["--fleet", "standard:99999999999"],
            &["--qos", "nan"],
        ] {
            let mut args = argv(&["--jobs", "10"]);
            args.extend(argv(bad));
            let err = place(&args).unwrap_err();
            assert!(err.contains("sockets") || err.contains("QoS"), "{err}");
        }
    }

    #[test]
    fn co_spec_defaults_to_one() {
        let co = parse_co(&["cg".to_string(), "ep:4".to_string()]).unwrap();
        assert_eq!(co, vec![("cg".to_string(), 1), ("ep".to_string(), 4)]);
    }

    #[test]
    fn info_commands_run() {
        suite(&[]).unwrap();
        machines(&[]).unwrap();
    }

    #[test]
    fn trace_dumps_segment_telemetry() {
        trace(&argv(&[
            "--machine",
            "e5649",
            "--target",
            "canneal",
            "--co",
            "cg:3",
            "--last",
            "8",
            "--stage-stats",
        ]))
        .unwrap();
        assert!(trace(&argv(&["--machine", "e5649", "--target", "doom"])).is_err());
    }

    #[test]
    fn collect_with_stage_stats_writes_the_same_samples() {
        let plain_path = tmp("stageless_samples.json");
        let staged_path = tmp("staged_samples.json");
        let base = [
            "--machine",
            "e5649",
            "--counts",
            "1",
            "--pstates",
            "0",
            "--out",
        ];
        let mut plain = argv(&base);
        plain.push(plain_path.clone());
        collect(&plain).unwrap();
        let mut staged = argv(&base);
        staged.push(staged_path.clone());
        staged.push("--stage-stats".into());
        collect(&staged).unwrap();
        // Instrumentation is observation only: identical artifacts.
        assert_eq!(
            std::fs::read(&plain_path).unwrap(),
            std::fs::read(&staged_path).unwrap()
        );
    }

    #[test]
    fn query_round_trips_against_a_spawned_server() {
        let handle = Server::spawn(ServeConfig {
            bind: BindAddr::Tcp("127.0.0.1:0".into()),
            quiet: true,
            engine_threads: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = handle.local_addr().unwrap().to_string();
        query(&argv(&["--addr", &addr, "--ping"])).unwrap();
        query(&argv(&[
            "--addr", &addr, "--target", "canneal", "--co", "cg:3", "--pstate", "0",
        ]))
        .unwrap();
        query(&argv(&["--addr", &addr, "--target", "ep", "--predict"])).unwrap();
        query(&argv(&["--addr", &addr, "--stats"])).unwrap();
        // An unknown target surfaces as a generic (code 1) failure.
        let f = query(&argv(&["--addr", &addr, "--target", "doom"])).unwrap_err();
        assert_eq!(f.code, 1, "{}", f.message);
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn service_errors_map_to_typed_exit_codes() {
        assert_eq!(
            exit_code_for(&ColocError::Overloaded { queue_depth: 9 }),
            75
        );
        assert_eq!(exit_code_for(&ColocError::Timeout { deadline_ms: 5 }), 124);
        assert_eq!(exit_code_for(&ColocError::ShuttingDown), 69);
        assert_eq!(exit_code_for(&ColocError::Machine("x".into())), 1);
        let f: Failure = "boom".to_string().into();
        assert_eq!((f.code, f.message.as_str()), (1, "boom"));
    }

    #[test]
    fn verify_replays_corpus_and_spot_checks() {
        // Default corpus, tiny spot-check: must come back clean.
        verify(&argv(&["--spot", "2", "--seed", "11"])).unwrap();
        // An empty corpus directory is vacuously clean.
        let dir = tmp("empty-corpus");
        std::fs::create_dir_all(&dir).unwrap();
        verify(&argv(&["--corpus", &dir, "--spot", "0"])).unwrap();
    }

    #[test]
    fn verify_fails_on_a_poisoned_corpus_case() {
        let dir = std::env::temp_dir()
            .join("coloc-cli-tests")
            .join("bad-corpus");
        std::fs::create_dir_all(&dir).unwrap();
        let mut case =
            coloc_conformance::gen_case(7, &coloc_conformance::GenConstraints::default());
        case.law = Some("not-a-law".into());
        coloc_conformance::corpus::save_case(&dir.join("bad.json"), &case).unwrap();
        let err = verify(&argv(&["--corpus", &dir.to_string_lossy(), "--spot", "0"])).unwrap_err();
        assert!(err.contains("1 corpus failure"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
