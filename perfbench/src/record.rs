//! The run record: one JSON line per run in `perfbench/out/runs.jsonl`
//! (host parallelism, commit, source digest, seed, every per-run sample
//! with its median and quartiles, checks and notes), the traced pass's
//! spans as TSV beside it, and `--summary` over all recorded runs.

use crate::report::{json_num, json_str, Report};
use crate::stats::Summary;
use crate::Args;
use coloc_machine::IrWriter;
use serde::Value;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Spans written to a run's trace file (the first ones recorded): enough
/// to inspect every layer, small enough to keep beside each run.
const TRACE_FILE_SPANS: usize = 100_000;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
}

/// Where records and traces go.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The checked-out commit, when the tree is a git work tree.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(repo_root())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Digest of the measured sources (`crates/` and the root manifests), so
/// a record names the code it measured even outside a git work tree.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let root = repo_root();
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut d = IrWriter::new();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            d.str(&f.strip_prefix(root).unwrap_or(&f).to_string_lossy());
            d.str(&String::from_utf8_lossy(&bytes));
        }
    }
    format!("{:016x}", d.finish64())
}

/// Append this run's record and write its spans. Failures to write are
/// reported on stderr and do not fail the run.
pub fn append(args: &Args, nproc: usize, report: &Report, result: &str) {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let s = Summary::of(&m.samples);
            let samples: Vec<String> = m.samples.iter().map(|&x| json_num(x)).collect();
            format!(
                "{}: {{\"unit\": {}, \"value\": {}, \"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"samples\": [{}]}}",
                json_str(&m.name),
                json_str(m.unit),
                json_num(m.value()),
                s.n,
                json_num(s.median),
                json_num(s.q1),
                json_num(s.q3),
                samples.join(", ")
            )
        })
        .collect();
    let checks: Vec<String> = report
        .checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
                json_str(&c.name),
                c.ok,
                json_str(&c.detail)
            )
        })
        .collect();
    let digests: Vec<String> = report
        .digests
        .iter()
        .map(|(p, d)| format!("{}: {}", json_str(p), json_str(&format!("{d:016x}"))))
        .collect();
    let notes: Vec<String> = report.notes.iter().map(|n| json_str(n)).collect();
    let line = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"available_parallelism\": {nproc}, \"commit\": {}, \"source_digest\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"checks\": [{}], \"digests\": {{{}}}, \"notes\": [{}], \"metrics\": {{{}}}, \"result\": {result}}}",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        args.trace,
        json_str(&commit()),
        json_str(&source_digest()),
        report.correct(),
        report.attempted,
        report.failed,
        checks.join(", "),
        digests.join(", "),
        notes.join(", "),
        metrics.join(", "),
    );
    let dir = out_dir();
    let written = std::fs::create_dir_all(&dir).and_then(|_| {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("runs.jsonl"))?;
        writeln!(f, "{line}")?;
        if !report.spans.is_empty() {
            // Parents precede their children, so a prefix stays whole.
            let spans = &report.spans[..report.spans.len().min(TRACE_FILE_SPANS)];
            let name = format!("trace-{}-seed{}.tsv", args.workload, args.seed);
            crate::trace::write_tsv(spans, &dir.join(name))?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!(
            "perfbench: could not write the run record in {}: {e}",
            dir.display()
        );
    }
}

fn records() -> Vec<Value> {
    let Ok(text) = std::fs::read_to_string(out_dir().join("runs.jsonl")) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|l| serde_json::value_from_slice(l.as_bytes()).ok())
        .collect()
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(m) => m.get(key),
        _ => None,
    }
}

/// Determinism digests recorded by earlier runs of `workload` at `seed`.
pub fn prior_digests(workload: &str, seed: u64) -> Vec<BTreeMap<String, String>> {
    records()
        .iter()
        .filter(|r| {
            matches!(field(r, "workload"), Some(Value::Str(w)) if w == workload)
                && field(r, "seed").and_then(Value::as_f64) == Some(seed as f64)
        })
        .filter_map(|r| match field(r, "digests") {
            Some(Value::Object(m)) => Some(
                m.iter()
                    .filter_map(|(k, v)| match v {
                        Value::Str(s) => Some((k.to_string(), s.clone())),
                        _ => None,
                    })
                    .collect(),
            ),
            _ => None,
        })
        .filter(|m: &BTreeMap<String, String>| !m.is_empty())
        .collect()
}

/// `--summary`: per (workload, mode, metric), the runs' median, quartiles
/// and quartile spread as a share of the median.
pub fn summary() -> ExitCode {
    let mut groups: BTreeMap<(String, bool, String), (String, Vec<f64>)> = BTreeMap::new();
    let mut seeds: BTreeMap<(String, bool), Vec<f64>> = BTreeMap::new();
    for r in records() {
        let (Some(Value::Str(w)), Some(Value::Bool(t))) =
            (field(&r, "workload"), field(&r, "trace"))
        else {
            continue;
        };
        if let Some(s) = field(&r, "seed").and_then(Value::as_f64) {
            seeds.entry((w.clone(), *t)).or_default().push(s);
        }
        let Some(Value::Object(metrics)) = field(&r, "metrics") else {
            continue;
        };
        for (name, m) in metrics.iter() {
            let unit = match field(m, "unit") {
                Some(Value::Str(u)) => u.clone(),
                _ => String::new(),
            };
            if let Some(v) = field(m, "value").and_then(Value::as_f64) {
                groups
                    .entry((w.clone(), *t, name.to_string()))
                    .or_insert((unit, Vec::new()))
                    .1
                    .push(v);
            }
        }
    }
    if groups.is_empty() {
        eprintln!("no runs recorded in {}", out_dir().display());
        return ExitCode::FAILURE;
    }
    for ((w, t), s) in &seeds {
        println!(
            "{w} {}: {} runs",
            if *t { "traced" } else { "untraced" },
            s.len()
        );
    }
    println!(
        "{:<8} {:<5} {:<40} {:>4} {:>14} {:>14} {:>14} {:>8}",
        "workload", "trace", "metric", "n", "median", "q1", "q3", "spread%"
    );
    for ((w, t, name), (unit, values)) in groups {
        let s = Summary::of(&values);
        println!(
            "{w:<8} {:<5} {:<40} {:>4} {:>14.6} {:>14.6} {:>14.6} {:>8.2} {unit}",
            u8::from(t),
            name,
            s.n,
            s.median,
            s.q1,
            s.q3,
            (s.q3 - s.q1) / s.median.abs() * 100.0
        );
    }
    ExitCode::SUCCESS
}
