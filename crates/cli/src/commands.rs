//! Command implementations.

use crate::args::{ArgMap, Usage};
use coloc_machine::{
    presets, FaultPlan, MachineSpec, RunOutcome, ScenarioIr, SegmentTrace, StageProfile,
};
use coloc_model::lab::CheckpointConfig;
use coloc_model::persist;
use coloc_model::{
    ColocError, CrossMatrix, FeatureSet, Lab, ModelKind, ModelRegistry, Scenario, TrainPolicy,
    TrainRequest, TrainingPlan,
};
use coloc_placement::fleet::MAX_SOCKETS;
use coloc_placement::{ClassMix, FleetSpec, PlacePolicy, PlacementSim, SimConfig};
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
        ColocError::Overloaded { .. } | ColocError::TooManyConnections { .. } => 75,
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
    presets::lookup(key).map(|p| (p.spec)()).ok_or_else(|| {
        format!("unknown machine `{key}` (try `coloc machines` for the preset list)")
    })
}

/// The options [`lab_from`] reads.
const LAB_OPTIONS: &[&str] = &["machine", "seed", "threads", "faults"];

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

const BASELINES_USAGE: Usage = Usage {
    help: "coloc baselines --machine <e5649|e5_2697v2> [--seed N] --out <file>",
    options: &[LAB_OPTIONS, &["out"]],
    flags: &[],
};

/// `coloc baselines --machine <key> [--seed N] --out <file>`
pub fn baselines(argv: &[String]) -> CmdResult {
    let args = ArgMap::parse(argv, &BASELINES_USAGE)?;
    if args.has_flag("help") {
        println!("{}", BASELINES_USAGE.help);
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

const COLLECT_USAGE: Usage = Usage {
    help: "coloc collect --machine <key> [--paper-plan] [--counts 1,3,5] \
          [--pstates 0,3] [--seed N] [--threads N] [--stage-stats] \
          [--faults light|heavy|<plan.json>] [--checkpoint <file>] \
          [--checkpoint-every N] [--crash-after N] --out <file>",
    options: &[
        LAB_OPTIONS,
        &[
            "out",
            "counts",
            "pstates",
            "checkpoint",
            "checkpoint-every",
            "crash-after",
        ],
    ],
    flags: &["paper-plan", "stage-stats"],
};

/// `coloc collect --machine <key> (--paper-plan | --counts a,b,c) --out <file>`
pub fn collect(argv: &[String]) -> CmdResult {
    let args = ArgMap::parse(argv, &COLLECT_USAGE)?;
    if args.has_flag("help") {
        println!("{}", COLLECT_USAGE.help);
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
    if stats.stages != StageProfile::new() {
        eprintln!("stage breakdown (engine misses only):\n{}", stats.stages);
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

const TRAIN_USAGE: Usage = Usage {
    help: "coloc train --samples <file> [--kind linear|nn|quadratic] \
          [--set A..F] [--seed N] [--robust] [--retries N] --out <file>\n\n\
          Trains through the model registry and writes a versioned,\n\
          digest-addressed model artifact (predictor + provenance) that\n\
          `coloc predict`, `coloc schedule`, `coloc matrix` and\n\
          `coloc serve --model` all resolve the same way.",
    options: &[&["samples", "kind", "set", "seed", "retries", "out"]],
    flags: &["robust"],
};

/// `coloc train --samples <file> --kind <k> --set <s> --out <file>`
pub fn train(argv: &[String]) -> CmdResult {
    let args = ArgMap::parse(argv, &TRAIN_USAGE)?;
    if args.has_flag("help") {
        println!("{}", TRAIN_USAGE.help);
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

const PREDICT_USAGE: Usage = Usage {
    help: "coloc predict --machine <key> --model <file> --target <app> \
          [--co name:count]… [--pstate N] [--measure]",
    options: &[LAB_OPTIONS, &["model", "target", "co", "pstate"]],
    flags: &["measure"],
};

/// `coloc predict --machine <key> --model <file> --target <app> --co name:count… --pstate N`
pub fn predict(argv: &[String]) -> CmdResult {
    let args = ArgMap::parse(argv, &PREDICT_USAGE)?;
    if args.has_flag("help") {
        println!("{}", PREDICT_USAGE.help);
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

const SCHEDULE_USAGE: Usage = Usage {
    help: "coloc schedule --machine <key> --model <file> --jobs a,b,c \
          [--sockets N] [--pstate N] [--seed N] [--threads N] [--naive]\n\n\
          Places the listed jobs on N sockets of one machine at once.\n\
          Least-interference (the default) puts each job, in suite order,\n\
          where the model predicts the smallest added slowdown, empty\n\
          sockets first on ties; --naive packs socket by socket instead.\n\
          Slowdowns are normalized by the model's own solo prediction.\n\
          Every job's expected slowdown (when it was placed) prints beside\n\
          the slowdown the simulator measures on its final socket.",
    options: &[&[
        "machine", "sockets", "jobs", "model", "seed", "pstate", "threads",
    ]],
    flags: &["naive"],
};

/// `coloc schedule --machine <key> --model <file> --jobs a,b,c --sockets N`
///
/// One wave of a single-group [`PlacementSim`]: the listed jobs, placed
/// by the loaded model and scored against the simulator.
pub fn schedule(argv: &[String]) -> CmdResult {
    let args = ArgMap::parse(argv, &SCHEDULE_USAGE)?;
    if args.has_flag("help") {
        println!("{}", SCHEDULE_USAGE.help);
        return Ok(());
    }
    let fleet = FleetSpec::single(
        machine_by_key(args.get("machine").unwrap_or("e5649"))?,
        args.get_parsed_or("sockets", 1usize)?,
    );
    // Validated first: an unchecked socket count overflows the capacity.
    fleet
        .validate()
        .map_err(|e| ColocError::InvalidSpec(e).to_string())?;
    let suite = coloc_workloads::standard();
    let jobs = args
        .require("jobs")?
        .split(',')
        .map(|name| {
            let name = name.trim();
            suite
                .iter()
                .position(|b| b.name == name)
                .map(|app| app as u8)
                .ok_or_else(|| ColocError::UnknownApp(name.to_string()).to_string())
        })
        .collect::<Result<Vec<u8>, String>>()?;
    if jobs.len() > fleet.total_cores() {
        return Err(format!(
            "{} jobs exceed {} sockets × {} cores",
            jobs.len(),
            fleet.total_sockets(),
            fleet.groups[0].machine.cores
        ));
    }
    let artifact = ModelRegistry::new()
        .load(args.require("model")?)
        .map_err(|e| e.to_string())?;
    let policy = if args.has_flag("naive") {
        PlacePolicy::PackFirstFit
    } else {
        PlacePolicy::LeastInterference
    };
    let cfg = SimConfig {
        fleet,
        seed: args.get_parsed_or("seed", 2015u64)?,
        pstate: args.get_parsed_or("pstate", 0usize)?,
        threads: args.get_parsed_or("threads", 0usize)?,
        ..SimConfig::smoke(jobs.len())
    };
    let mut sim = PlacementSim::with_artifact(cfg, artifact).map_err(|e| e.to_string())?;
    let (outcome, placed) = sim
        .run_policy_on_jobs(policy, jobs)
        .map_err(|e| e.to_string())?;

    let mut sockets: std::collections::BTreeMap<u32, Vec<&str>> = Default::default();
    for a in &placed {
        sockets
            .entry(a.socket)
            .or_default()
            .push(suite[a.app as usize].name);
    }
    for (socket, names) in &sockets {
        println!("socket {socket}: {}", names.join(", "));
    }
    println!(
        "{:>4}  {:<14} {:>6}  {:>9}  {:>9}",
        "job", "app", "socket", "expected", "measured"
    );
    for a in &placed {
        println!(
            "{:>4}  {:<14} {:>6}  {:>8.3}x  {:>8.3}x",
            a.job, suite[a.app as usize].name, a.socket, a.expected, a.oracle
        );
    }
    println!("policy: {}", outcome.policy);
    println!(
        "expected slowdown: mean {:.3}x (regret {:.4})",
        outcome.expected_mean_slowdown, outcome.regret_mean
    );
    println!(
        "measured slowdown: mean {:.3}x, worst {:.3}x, unfairness {:.3} ({} sockets used)",
        outcome.oracle_mean_slowdown,
        outcome.oracle_max_slowdown,
        outcome.unfairness,
        outcome.sockets_used
    );
    Ok(())
}

const MATRIX_USAGE: Usage = Usage {
    help: "coloc matrix --machine <key> [--pstate N] [--seed N] [--threads N]\n\
          \x20           [--model <artifact.json>] [--out <matrix.json>]\n\n\
          Measures slowdown for all suite pairs (target × 1 co-runner) and\n\
          fills the predicted side from a model artifact: either --model,\n\
          or a linear full-feature model the registry trains on the spot.\n\
          Identical-app pairs are checked for bit-identical per-group\n\
          counters (the `matrix-identical-pair-symmetry` law).",
    options: &[LAB_OPTIONS, &["pstate", "model", "out"]],
    flags: &[],
};

/// `coloc matrix --machine <key> [--pstate N] [--model <file>] [--out <file>]`
///
/// Measures the full pairwise cross-interference matrix over the suite
/// (every target × every single co-runner) and compares it with a
/// registry-resolved model's predictions.
pub fn matrix(argv: &[String]) -> CmdResult {
    let args = ArgMap::parse(argv, &MATRIX_USAGE)?;
    if args.has_flag("help") {
        println!("{}", MATRIX_USAGE.help);
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
        persist::save_json(&m, out).map_err(|e| e.to_string())?;
        println!("wrote matrix artifact to {out}");
    }
    if !m.summary.identical_pairs_symmetric {
        return Err("identical-app pairs produced asymmetric counters".into());
    }
    Ok(())
}

const SUITE_USAGE: Usage = Usage {
    help: "coloc suite — list the benchmark suite",
    options: &[],
    flags: &[],
};

/// `coloc suite`
pub fn suite(argv: &[String]) -> CmdResult {
    let args = ArgMap::parse(argv, &SUITE_USAGE)?;
    if args.has_flag("help") {
        println!("{}", SUITE_USAGE.help);
        return Ok(());
    }
    println!("{:<16} {:<8} class", "application", "suite");
    for b in coloc_workloads::standard() {
        println!("{:<16} {:<8} {}", b.name, b.suite.tag(), b.class);
    }
    Ok(())
}

const MACHINES_USAGE: Usage = Usage {
    help: "coloc machines — list machine presets",
    options: &[],
    flags: &[],
};

/// `coloc machines`
pub fn machines(argv: &[String]) -> CmdResult {
    let args = ArgMap::parse(argv, &MACHINES_USAGE)?;
    if args.has_flag("help") {
        println!("{}", MACHINES_USAGE.help);
        return Ok(());
    }
    for p in presets::PRESETS {
        let m = (p.spec)();
        println!(
            "{:<12} {} — {} cores, {} MB L3, {:.2}–{:.2} GHz",
            p.key,
            m.name,
            m.cores,
            m.llc_bytes >> 20,
            m.pstates_ghz.last().expect("pstates"),
            m.pstates_ghz[0]
        );
    }
    Ok(())
}

const TRACE_USAGE: Usage = Usage {
    help: "coloc trace --machine <key> --target <app> [--co name:count]… \
          [--pstate N] [--seed N] [--last N] [--stage-stats]\n\n\
          Replays one scenario with the engine's segment trace ring\n\
          attached and dumps the last N segments (default 32), plus the\n\
          per-stage pipeline breakdown with --stage-stats.",
    options: &[LAB_OPTIONS, &["target", "co", "pstate", "last"]],
    flags: &["stage-stats"],
};

/// `coloc trace --machine <key> --target <app> [--co name:count]… [--pstate N]`
///
/// Runs one scenario through the staged engine with the segment trace
/// ring attached and dumps the most recent segments: per-segment dt,
/// converged DRAM latency, fixed-point iteration count and final
/// residual. `--stage-stats` attaches a stage profile to the same run
/// and adds the per-stage pipeline breakdown.
pub fn trace(argv: &[String]) -> CmdResult {
    let args = ArgMap::parse(argv, &TRACE_USAGE)?;
    if args.has_flag("help") {
        println!("{}", TRACE_USAGE.help);
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
    let mut trace = SegmentTrace::new(last);
    let mut profile = args.has_flag("stage-stats").then(StageProfile::new);
    let outcome = traced_run(&lab, &ir, &mut trace, profile.as_mut())?;

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
        println!("stage breakdown:\n{profile}");
    }
    Ok(())
}

/// Run `ir` on the lab's machine with the segment trace ring (and a
/// stage profile, if given) attached, then apply the IR's fault plan as
/// the run cache does on a miss: the outcome is the one
/// [`Lab::run_outcome`] returns for the same scenario.
fn traced_run(
    lab: &Lab,
    ir: &ScenarioIr,
    trace: &mut SegmentTrace,
    profile: Option<&mut StageProfile>,
) -> Result<RunOutcome, String> {
    let mut outcome = lab
        .machine()
        .run_observed(
            &ir.workload,
            ir.schedules.as_deref(),
            &ir.opts,
            profile,
            Some(trace),
        )
        .map_err(|e| e.to_string())?;
    if let Some(plan) = &ir.faults {
        plan.apply(ir.opts.seed, &mut outcome);
    }
    Ok(outcome)
}

const PLACE_USAGE: Usage = Usage {
    help: "coloc place --jobs N [--fleet standard:<scale>] [--machine <key> --sockets N]\n\
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
          --out writes the full JSON report.",
    options: &[&[
        "jobs", "fleet", "machine", "sockets", "mix", "policy", "qos", "seed", "pstate", "threads",
        "out",
    ]],
    flags: &[],
};

/// `coloc place --jobs N [--fleet standard:<scale> | --machine <key>
/// --sockets N] [--mix <name>] [--policy <name>|all] [--qos X]
/// [--seed N] [--threads N] [--out <file>]`
pub fn place(argv: &[String]) -> CmdResult {
    let args = ArgMap::parse(argv, &PLACE_USAGE)?;
    if args.has_flag("help") {
        println!("{}", PLACE_USAGE.help);
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

const VERIFY_USAGE: Usage = Usage {
    help: "coloc verify [--corpus <dir>] [--spot N] [--seed N] [--threads N]\n\n\
          Replays the checked-in conformance corpus (differential cases\n\
          through the naive reference engine; law-tagged cases, and the\n\
          placement cases in <dir>/placement, through their law), then\n\
          differential-spot-checks N freshly generated scenarios. Cases fan\n\
          out across --threads workers (0 = one per core); the report is\n\
          identical at any setting. Exits non-zero on any divergence.",
    options: &[&["corpus", "spot", "seed", "threads"]],
    flags: &[],
};

/// `coloc verify [--corpus <dir>] [--spot N] [--seed N] [--threads N]`
pub fn verify(argv: &[String]) -> CmdResult {
    use coloc_conformance::Case as _;
    let args = ArgMap::parse(argv, &VERIFY_USAGE)?;
    if args.has_flag("help") {
        println!("{}", VERIFY_USAGE.help);
        return Ok(());
    }
    let dir = match args.get("corpus") {
        Some(d) => std::path::PathBuf::from(d),
        None => coloc_conformance::default_corpus_dir(),
    };
    let spot = args.get_parsed_or("spot", 16usize)?;
    let seed = args.get_parsed_or("seed", 0xC0_10Cu64)?;
    let threads = args.get_parsed_or("threads", 0usize)?;

    let report = coloc_conformance::verify_dir(&dir, threads)?;
    println!(
        "corpus {} — {} cases replayed ({} differential, {} law, {} placement)",
        dir.display(),
        report.total(),
        report.differential,
        report.law_checks,
        report.placement
    );
    for failure in &report.failures {
        println!("  FAIL {failure}");
    }

    let mut spot_failures = 0usize;
    if spot > 0 {
        match coloc_conformance::differential_sweep(seed, spot, threads) {
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

    if report.is_clean() && spot_failures == 0 {
        println!("verify: OK");
        Ok(())
    } else {
        Err(format!(
            "{} corpus failure(s), {} spot-check failure(s)",
            report.failures.len(),
            spot_failures
        ))
    }
}

const SERVE_USAGE: Usage = Usage {
    help: "coloc serve [--tcp 127.0.0.1:7105 | --unix <path>] [--machine <key>]\n\
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
          model_digest. SIGTERM drains gracefully.",
    options: &[&[
        "tcp",
        "unix",
        "machine",
        "seed",
        "threads",
        "capacity",
        "watermark",
        "max-batch",
        "deadline-ms",
        "retry-hint-ms",
        "stats-interval-s",
        "model",
    ]],
    flags: &["quiet"],
};

/// `coloc serve [--tcp addr | --unix path] [--machine <key>] …`
///
/// Runs the prediction service on the calling thread until SIGTERM /
/// SIGINT / a `shutdown` frame drains it, then prints the final stats
/// frame to stderr. SIGHUP (or a `reload` frame) hot-swaps the model
/// artifacts without a drain.
pub fn serve(argv: &[String]) -> Result<(), Failure> {
    let args = ArgMap::parse(argv, &SERVE_USAGE)?;
    if args.has_flag("help") {
        println!("{}", SERVE_USAGE.help);
        return Ok(());
    }
    // The server resolves the key, and refuses one it does not serve,
    // before it binds.
    let cfg = serve_config(&args)?;
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

/// The library's [`ServeConfig::default`], listening on 127.0.0.1:7105
/// unless `--tcp` or `--unix` says otherwise, with each option given
/// overriding its field.
fn serve_config(args: &ArgMap) -> Result<ServeConfig, Failure> {
    let bind = match (args.get("tcp"), args.get("unix")) {
        (Some(_), Some(_)) => {
            return Err(Failure::from(
                "--tcp and --unix are mutually exclusive".to_string(),
            ))
        }
        (None, Some(path)) => BindAddr::Unix(path.into()),
        (tcp, None) => BindAddr::Tcp(tcp.unwrap_or("127.0.0.1:7105").to_string()),
    };
    let mut cfg = ServeConfig {
        bind,
        ..ServeConfig::default()
    };
    cfg.seed = args.get_parsed_or("seed", cfg.seed)?;
    if let Some(key) = args.get("machine") {
        cfg.default_machine = key.to_string();
    }
    cfg.admission_capacity = args.get_parsed_or("capacity", cfg.admission_capacity)?;
    cfg.degrade_watermark = args.get_parsed_or("watermark", cfg.degrade_watermark)?;
    cfg.max_batch = args.get_parsed_or("max-batch", cfg.max_batch)?;
    cfg.engine_threads = args.get_parsed_or("threads", cfg.engine_threads)?;
    cfg.default_deadline_ms = args.get_parsed_or("deadline-ms", cfg.default_deadline_ms)?;
    cfg.retry_hint_ms = args.get_parsed_or("retry-hint-ms", cfg.retry_hint_ms)?;
    if args.get("stats-interval-s").is_some() {
        cfg.stats_interval =
            std::time::Duration::from_secs(args.get_parsed_or("stats-interval-s", 0)?);
    }
    cfg.quiet |= args.has_flag("quiet");
    if let Some(path) = args.get("model") {
        cfg.model_path = Some(path.into());
    }
    Ok(cfg)
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

const QUERY_USAGE: Usage = Usage {
    help: "coloc query [--addr 127.0.0.1:7105 | --unix <path>] --target <app>\n\
          \x20           [--co name:count]… [--pstate N] [--predict]\n\
          \x20           [--deadline-ms N] [--machine <key>] [--retries N]\n\
          \x20           [--backoff-ms N] [--jitter-seed N]\n\
          coloc query … --ping | --stats | --reload | --shutdown\n\n\
          Exit codes: 0 ok, 75 overloaded (after retries), 124 deadline\n\
          expired, 69 server shutting down, 1 other errors, 2 usage.",
    options: &[&[
        "addr",
        "unix",
        "target",
        "co",
        "pstate",
        "deadline-ms",
        "machine",
        "retries",
        "backoff-ms",
        "jitter-seed",
    ]],
    flags: &["predict", "ping", "stats", "reload", "shutdown"],
};

/// `coloc query [--addr host:port | --unix path] --target <app> …`
///
/// One round trip to a running `coloc serve`, with the bounded
/// retry-with-backoff discipline on `overloaded` answers. Exit codes:
/// 0 ok, 75 overloaded after retries, 124 deadline expired, 69 server
/// draining, 1 anything else.
pub fn query(argv: &[String]) -> Result<(), Failure> {
    let args = ArgMap::parse(argv, &QUERY_USAGE)?;
    if args.has_flag("help") {
        println!("{}", QUERY_USAGE.help);
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
    fn serve_without_options_takes_the_library_defaults() {
        let args = ArgMap::parse(&[], &SERVE_USAGE).unwrap();
        let expect = ServeConfig {
            bind: BindAddr::Tcp("127.0.0.1:7105".into()),
            ..ServeConfig::default()
        };
        // Every field derives `Debug`, so equal text is equal fields.
        assert_eq!(
            format!("{:?}", serve_config(&args).unwrap()),
            format!("{expect:?}")
        );

        let args = ArgMap::parse(
            &argv(&["--seed", "7", "--stats-interval-s", "3", "--quiet"]),
            &SERVE_USAGE,
        )
        .unwrap();
        let cfg = serve_config(&args).unwrap();
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.stats_interval, std::time::Duration::from_secs(3));
        assert!(cfg.quiet);
        assert_eq!(cfg.max_batch, ServeConfig::default().max_batch);
    }

    #[test]
    fn every_option_in_each_help_synopsis_parses() {
        let usages = [
            ("baselines", &BASELINES_USAGE),
            ("collect", &COLLECT_USAGE),
            ("train", &TRAIN_USAGE),
            ("predict", &PREDICT_USAGE),
            ("schedule", &SCHEDULE_USAGE),
            ("matrix", &MATRIX_USAGE),
            ("suite", &SUITE_USAGE),
            ("machines", &MACHINES_USAGE),
            ("trace", &TRACE_USAGE),
            ("place", &PLACE_USAGE),
            ("verify", &VERIFY_USAGE),
            ("serve", &SERVE_USAGE),
            ("query", &QUERY_USAGE),
        ];
        for (name, usage) in usages {
            let synopsis = usage.help.split("\n\n").next().unwrap();
            assert!(synopsis.starts_with(&format!("coloc {name}")), "{synopsis}");
            let mut args = vec!["--help".to_string()];
            for word in synopsis.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
                let Some(key) = word.strip_prefix("--").filter(|k| !k.is_empty()) else {
                    continue;
                };
                args.push(word.to_string());
                if usage.options.iter().any(|list| list.contains(&key)) {
                    args.push("1".to_string());
                }
            }
            let parsed = ArgMap::parse(&args, usage).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(parsed.has_flag("help"), "{name}");
        }
        // And an option no synopsis lists is refused by name.
        let err = schedule(&argv(&["--sokets", "2"])).unwrap_err();
        assert!(err.contains("--sokets"), "{err}");
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
    fn every_preset_key_and_alias_resolves_to_its_spec() {
        // Includes `xeon_e5649` and `E5649`, which only the service
        // accepted before the table.
        for p in presets::PRESETS {
            for key in std::iter::once(p.key).chain(p.aliases.iter().copied()) {
                for k in [
                    key.to_string(),
                    key.to_ascii_uppercase(),
                    key.replace('_', "-"),
                ] {
                    assert_eq!(machine_by_key(&k), Ok((p.spec)()), "`{k}`");
                }
            }
        }
    }

    #[test]
    fn helpful_errors() {
        assert!(machine_by_key("pentium4").is_err());
        assert!(machine_by_key("e5").is_err());
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
            &["--machine", "e5649", "--sockets", "1048577"],
            &["--fleet", "standard:131073"],
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
    fn trace_runs_the_labs_outcome_with_and_without_faults() {
        let scenario = Scenario {
            target: "mg".into(),
            co_located: vec![("cg".into(), 3)],
            pstate: 0,
        };
        let mut walls = Vec::new();
        for faults in [&[][..], &["--faults", "heavy"][..]] {
            let mut opts = vec!["--machine", "e5649"];
            opts.extend_from_slice(faults);
            let lab = lab_from(&ArgMap::parse(&argv(&opts), &TRACE_USAGE).unwrap()).unwrap();
            let ir = lab.scenario_ir(&scenario).unwrap();
            let traced = traced_run(&lab, &ir, &mut SegmentTrace::new(4), None).unwrap();
            let wall = lab.run_outcome(&scenario).unwrap().wall_time_s;
            assert_eq!(traced.wall_time_s.to_bits(), wall.to_bits(), "{faults:?}");
            walls.push(wall);
        }
        assert_ne!(walls[0], walls[1], "the heavy plan fires on this scenario");
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
        assert_eq!(
            exit_code_for(&ColocError::TooManyConnections { open: 64 }),
            75
        );
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
