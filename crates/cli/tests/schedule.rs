//! `coloc schedule` end to end: the binary, a linear full-feature model
//! artifact on disk, and what the command prints or refuses.

use coloc_model::{Lab, ModelRegistry};
use coloc_placement::SpecEstimator;
use std::process::{Command, Output};
use std::sync::OnceLock;

/// A linear full-feature artifact over the placement estimator's plan on
/// the E5649, written once per test process.
fn model() -> &'static str {
    static PATH: OnceLock<String> = OnceLock::new();
    PATH.get_or_init(|| {
        let lab = Lab::new(
            coloc_machine::presets::xeon_e5649(),
            coloc_workloads::standard(),
            2015,
        )
        .unwrap();
        let registry = ModelRegistry::new();
        let artifact = registry
            .resolve(&lab, &SpecEstimator::request(&lab, 0))
            .unwrap();
        let dir = std::env::temp_dir().join("coloc-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("schedule-linear-f-{}.json", std::process::id()));
        registry.save(&artifact, &path).unwrap();
        path.to_string_lossy().into_owned()
    })
}

fn schedule(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_coloc"))
        .args(["schedule", "--machine", "e5649", "--model", model()])
        .args(args)
        .output()
        .unwrap()
}

/// Runs a refused command: exit code 1 (an error, not a panic's 101)
/// and an error message naming the problem.
fn refused(args: &[&str], needle: &str) {
    let out = schedule(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
}

/// Per-socket job names and the measured mean slowdown a successful run
/// prints.
fn placed(args: &[&str]) -> (Vec<Vec<String>>, f64) {
    let out = schedule(args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let sockets = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("socket "))
        .map(|l| {
            let (_, jobs) = l.split_once(": ").unwrap();
            jobs.split(", ").map(String::from).collect()
        })
        .collect();
    let mean = stdout
        .lines()
        .find_map(|l| l.strip_prefix("measured slowdown: mean "))
        .and_then(|rest| rest.split_once('x'))
        .unwrap_or_else(|| panic!("no measured mean in:\n{stdout}"))
        .0
        .parse()
        .unwrap();
    (sockets, mean)
}

#[test]
fn least_interference_splits_the_hogs_and_measures_below_packing() {
    let jobs = ["--sockets", "2", "--jobs", "cg,cg,cg,cg,ep,ep,ep,ep"];
    let (spread, spread_mean) = placed(&jobs);
    let naive: Vec<&str> = jobs.iter().copied().chain(["--naive"]).collect();
    let (packed, packed_mean) = placed(&naive);
    let hogs: Vec<usize> = spread
        .iter()
        .map(|s| s.iter().filter(|j| *j == "cg").count())
        .collect();
    assert_eq!(hogs, [2, 2], "{spread:?}");
    assert_eq!(packed[0][..4], ["cg"; 4], "{packed:?}");
    assert!(
        spread_mean < packed_mean,
        "measured mean: spread {spread_mean} vs packed {packed_mean}"
    );
}

#[test]
fn refuses_a_socket_count_whose_capacity_overflows() {
    refused(
        &["--sockets", "18446744073709551615", "--jobs", "cg"],
        "sockets",
    );
}

#[test]
fn refuses_an_unknown_job() {
    refused(
        &["--sockets", "2", "--jobs", "cg,doom"],
        "unknown application `doom`",
    );
}

#[test]
fn refuses_more_jobs_than_cores() {
    let twelve = ["ep"; 12].join(",");
    let thirteen = ["ep"; 13].join(",");
    refused(&["--sockets", "1", "--jobs", &twelve], "12 jobs exceed");
    refused(&["--sockets", "2", "--jobs", &thirteen], "13 jobs exceed");
    // Twelve jobs fill two six-core sockets exactly.
    let (sockets, _) = placed(&["--sockets", "2", "--jobs", &twelve]);
    assert_eq!(sockets.iter().map(Vec::len).sum::<usize>(), 12);
}

#[test]
fn refuses_an_unknown_option_by_name() {
    // A misspelled `--sockets` used to place every job on one socket.
    refused(&["--sokets", "2", "--jobs", "cg,cg"], "--sokets");
    // `schedule` reads no fault plan; it used to ignore one.
    refused(&["--faults", "heavy", "--jobs", "cg,cg"], "--faults");
}
