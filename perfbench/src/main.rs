//! The repository's benchmark: the three user paths (`sweep`, `serve`,
//! `place`) timed end to end with no instrumentation, and a separate
//! traced pass that times each layer from outside.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep|serve|place|all --seed N --seconds S --trace 0|1
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --summary
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics of
//! `BENCHMARK.json` untraced, its per-layer metrics traced). Every run is
//! also appended to `perfbench/out/runs.jsonl`; see `perfbench/README.md`.

mod inputs;
mod layers;
mod place;
mod record;
mod report;
mod serve;
mod stats;
mod sweep;
mod trace;

use report::{json_num, json_str, Report};
use std::process::ExitCode;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["sweep", "serve", "place"];

/// `BENCHMARK.json`'s end-to-end metrics: the name every workload
/// reports, its unit, and the workload metric it carries for `sweep`,
/// `serve` and `place`.
const END_TO_END: &[(&str, &str, [&str; 3])] = &[
    ("setup_s", "s", ["setup_s", "setup_s", "setup_s"]),
    (
        "peak_rss_mb",
        "MiB",
        ["peak_rss_mb", "peak_rss_mb", "peak_rss_mb"],
    ),
    (
        "cpu_ms",
        "ms",
        [
            "sweep.cold_cpu_ms",
            "serve.cpu_ms_per_query",
            "place.run_cpu_ms",
        ],
    ),
    (
        "repeat_cpu_ms",
        "ms",
        [
            "sweep.repeat_cpu_ms",
            "serve.repeat_cpu_ms_per_query",
            "place.repeat_cpu_ms",
        ],
    ),
];

/// `BENCHMARK.json`'s per-layer metrics: layers every workload's traced
/// pass measures under the same name.
const PER_LAYER: &[(&str, &str)] = &[
    ("lab.lower_ns", "ns"),
    ("ir.digest_ns", "ns"),
    ("cache.probe_ns", "ns"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_ratio", "ratio"),
    ("engine.run_us", "us"),
    ("engine.stage.pstate.ns", "ns"),
    ("engine.stage.pstate.calls", "count"),
    ("engine.stage.phase-sync.ns", "ns"),
    ("engine.stage.phase-sync.calls", "count"),
    ("engine.stage.llc-share.ns", "ns"),
    ("engine.stage.llc-share.calls", "count"),
    ("engine.stage.dram-fixed-point.ns", "ns"),
    ("engine.stage.dram-fixed-point.calls", "count"),
    ("engine.stage.counter-accrual.ns", "ns"),
    ("engine.stage.counter-accrual.calls", "count"),
    ("engine.unattributed_ns", "ns"),
    ("engine.segments", "count"),
    ("engine.fp_iterations", "count"),
    ("engine.stage_stats_cost_pct", "%"),
    ("features.featurize_ns", "ns"),
    ("perfmon.baselines_s", "s"),
    ("path.unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
];

const USAGE: &str = "usage: perfbench --workload sweep|serve|place|all --seed N --seconds S --trace 0|1\n       perfbench --summary";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    if argv.iter().any(|a| a == "--summary") {
        return Ok(None);
    }
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => return record::summary(),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&argv);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut report = Report::default();
    let result = match args.workload.as_str() {
        "sweep" => sweep::run(args.seed, args.seconds, args.trace, nproc, &mut report),
        "serve" => serve::run(args.seed, args.seconds, args.trace, nproc, &mut report),
        _ => place::run(args.seed, args.seconds, args.trace, nproc, &mut report),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    if !args.trace {
        report.put1("peak_rss_mb", "MiB", report::peak_rss_mb());
        let frac = report.failed as f64 / report.attempted.max(1) as f64;
        report.put1("failed_frac", "ratio", frac);
    }
    let w = WORKLOADS
        .iter()
        .position(|&n| n == args.workload)
        .expect("workload validated");
    let json = result_line(&report, args.trace, w);
    print_human(&args, nproc, &report);
    record::append(&args, nproc, &report, &json);
    println!("{json}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics
/// `BENCHMARK.json` names for this mode.
fn result_line(report: &Report, trace: bool, workload: usize) -> String {
    let entries: Vec<(&str, &str, f64)> = if trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, report.get(name).map_or(f64::NAN, |m| m.value())))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit, sources)| {
                let value = report
                    .get(sources[workload])
                    .map_or(f64::NAN, |m| m.value());
                (name, unit, value)
            })
            .collect()
    };
    let metrics: Vec<String> = entries
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

fn print_human(args: &Args, nproc: usize, report: &Report) {
    println!(
        "perfbench {} seed {} seconds {} {} (available_parallelism {nproc})",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    for note in &report.notes {
        println!("  {note}");
    }
    for m in &report.metrics {
        let s = stats::Summary::of(&m.samples);
        let name = match m.name.as_str() {
            "trace.overhead_pct" => format!("trace.overhead_pct.{}", args.workload),
            "path.unattributed_pct" => format!("{}.unattributed_pct", args.workload),
            other => other.to_string(),
        };
        println!(
            "  {name:<40} {:>14.6} {:<7} n={:<4} q1={:.6} q3={:.6}",
            m.value(),
            m.unit,
            s.n,
            s.q1,
            s.q3
        );
    }
    println!(
        "  attempted {} failed {} ({:.6} failed_frac)",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for c in &report.checks {
        println!(
            "  check {}: {} {}",
            if c.ok { "ok" } else { "FAILED" },
            c.name,
            c.detail
        );
    }
}

/// `--workload all`: each workload in its own child process (so peak
/// memory stays per workload), output relayed, non-zero exit if any
/// workload fails a check or errors.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut lines = Vec::new();
    for w in WORKLOADS {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().cloned().unwrap_or_default();
            child_args.push(flag.clone());
            child_args.push(if flag == "--workload" {
                w.to_string()
            } else {
                value
            });
        }
        match std::process::Command::new(&exe).args(&child_args).output() {
            Ok(out) => {
                let stdout = String::from_utf8_lossy(&out.stdout);
                let mut body: Vec<&str> = stdout.lines().collect();
                let last = body.pop().unwrap_or("null").to_string();
                for line in body {
                    println!("{line}");
                }
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                ok &= out.status.success();
                lines.push(format!("{}: {last}", json_str(w)));
            }
            Err(e) => {
                eprintln!("perfbench: cannot run {w}: {e}");
                ok = false;
            }
        }
    }
    println!("{{{}}}", lines.join(", "));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
