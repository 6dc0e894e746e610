//! `sweep`: `Lab::collect_scenarios` on fresh labs for both validation
//! presets, one cold pass then the identical repeat pass.
//!
//! The cold pass is engine work behind one `run_indexed` call per lab;
//! the repeat pass is served entirely from the run cache, so it times the
//! per-scenario plumbing (lowering, digest, probe, featurize).

use crate::inputs::{sweep_inputs, LabInput};
use crate::layers::{
    add_cache_samples, add_layer_samples, cold_pass_s, first_difference, Replay, Samples,
};
use crate::report::{ms, Clocks, Report, Series};
use crate::trace::{self, Tracer};
use coloc_model::{ColocError, Lab, Sample};
use std::time::{Duration, Instant};

/// Repeat passes after each cold pass (all answered from the run cache).
const REPEAT_PASSES: usize = 5;

/// Fresh labs for every input, with baselines measured: the sweep's
/// set-up.
fn build_labs(inputs: &[LabInput], threads: usize) -> Result<Vec<Lab>, ColocError> {
    inputs
        .iter()
        .map(|li| {
            let lab = Lab::new(li.spec.clone(), coloc_workloads::standard(), li.lab_seed)?
                .with_threads(threads);
            lab.baselines();
            Ok(lab)
        })
        .collect()
}

/// One `collect_scenarios` per lab.
fn pass(labs: &[Lab], inputs: &[LabInput]) -> Result<Vec<Vec<Sample>>, ColocError> {
    labs.iter()
        .zip(inputs)
        .map(|(lab, li)| lab.collect_scenarios(&li.scenarios))
        .collect()
}

/// [`pass`], timed on the wall clock.
fn timed_pass(labs: &[Lab], inputs: &[LabInput]) -> Result<(Vec<Vec<Sample>>, f64), ColocError> {
    let t0 = Instant::now();
    let out = pass(labs, inputs)?;
    Ok((out, t0.elapsed().as_secs_f64()))
}

fn differs(a: &[Vec<Sample>], b: &[Vec<Sample>]) -> Option<String> {
    a.iter().zip(b).find_map(|(x, y)| first_difference(x, y))
}

/// Run the workload for `seconds`; `trace` selects the per-layer pass.
pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    nproc: usize,
    report: &mut Report,
) -> Result<(), ColocError> {
    let inputs = sweep_inputs(seed);
    let n: usize = inputs.iter().map(|li| li.scenarios.len()).sum();
    report.notes.push(format!(
        "inputs: {}",
        inputs
            .iter()
            .map(|li| format!("{} {} scenarios", li.preset, li.scenarios.len()))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    if trace {
        traced(&inputs, n, deadline, nproc, report)
    } else {
        untraced(&inputs, n, deadline, nproc, report)
    }
}

fn untraced(
    inputs: &[LabInput],
    n: usize,
    deadline: Instant,
    nproc: usize,
    report: &mut Report,
) -> Result<(), ColocError> {
    let (mut setup, mut cold, mut repeat) =
        (Series::default(), Series::default(), Series::default());
    let mut reference: Option<Vec<Vec<Sample>>> = None;
    let mut mismatch = None;
    let mut cache_ok = true;
    let mut cache_detail = String::new();
    loop {
        let clocks = Clocks::start();
        let labs = build_labs(inputs, nproc)?;
        setup.push(clocks);
        let clocks = Clocks::start();
        let first = pass(&labs, inputs)?;
        cold.push(clocks);
        for _ in 0..REPEAT_PASSES {
            let clocks = Clocks::start();
            let again = pass(&labs, inputs)?;
            repeat.push(clocks);
            mismatch =
                mismatch.or_else(|| differs(&first, &again).map(|d| format!("repeat pass: {d}")));
        }
        report.attempted += ((1 + REPEAT_PASSES) * n) as u64;

        mismatch = mismatch.or_else(|| {
            reference
                .as_deref()
                .and_then(|r| differs(r, &first))
                .map(|d| format!("cold pass vs first cold pass: {d}"))
        });
        for (lab, li) in labs.iter().zip(inputs) {
            let s = lab.sweep_stats();
            let len = li.scenarios.len() as u64;
            if s.cache_hits != REPEAT_PASSES as u64 * len
                || s.cache_misses != len
                || s.cache_evictions != 0
            {
                cache_ok = false;
            }
            cache_detail = format!(
                "{} hits, {} misses, {} evictions on {}",
                s.cache_hits, s.cache_misses, s.cache_evictions, li.preset
            );
        }
        reference.get_or_insert(first);
        if Instant::now() >= deadline {
            break;
        }
    }
    report.check(
        "sweep: cold and repeat passes bit-identical",
        mismatch.is_none(),
        mismatch.unwrap_or_else(|| {
            format!(
                "{} passes of {n} samples",
                cold.wall.len() + repeat.wall.len()
            )
        }),
    );
    report.check(
        "sweep: repeat pass all hits, no evictions",
        cache_ok,
        cache_detail,
    );
    let rate = |secs: &[f64]| secs.iter().map(|s| n as f64 / s).collect::<Vec<_>>();
    report.put("sweep.cold_scen_per_s", "scen/s", rate(&cold.wall));
    report.put("sweep.memo_scen_per_s", "scen/s", rate(&repeat.wall));
    report.put("sweep.cold_ms", "ms", ms(&cold.wall));
    report.put("sweep.repeat_ms", "ms", ms(&repeat.wall));
    report.put_pooled("sweep.cold_cpu_ms", "ms", ms(&cold.cpu));
    report.put_pooled("sweep.repeat_cpu_ms", "ms", ms(&repeat.cpu));
    report.put("setup_s", "s", setup.cpu);
    report.put("setup_wall_s", "s", setup.wall);
    Ok(())
}

fn traced(
    inputs: &[LabInput],
    n: usize,
    deadline: Instant,
    nproc: usize,
    report: &mut Report,
) -> Result<(), ColocError> {
    let mut acc = Samples::default();
    let mut mismatch = None;
    let mut hits_ok = true;
    loop {
        // Untraced 1-worker cold + repeat: the baseline the traced pass
        // is compared against, for samples and for wall time.
        let labs = build_labs(inputs, 1)?;
        let (cold_1w, cold_1w_s) = timed_pass(&labs, inputs)?;
        let (_, memo_1w_s) = timed_pass(&labs, inputs)?;
        drop(labs);
        let stats_on_s: f64 = inputs
            .iter()
            .map(|li| cold_pass_s(&li.spec, li.lab_seed, &li.scenarios, true))
            .sum::<Result<f64, _>>()?;
        acc.add(
            "engine.stage_stats_cost_pct",
            "%",
            (stats_on_s / cold_1w_s - 1.0) * 100.0,
        );
        let labs = build_labs(inputs, nproc)?;
        let (cold_np, cold_np_s) = timed_pass(&labs, inputs)?;
        drop(labs);
        mismatch = mismatch
            .or_else(|| differs(&cold_1w, &cold_np).map(|d| format!("{nproc}-worker pass: {d}")));
        acc.add("parallel.speedup", "ratio", cold_1w_s / cold_np_s);

        // The traced replay, on fresh labs with fresh run caches.
        let mut tr = Tracer::new(Instant::now());
        let labs = tr.span("sweep.setup", 0, |tr| {
            inputs
                .iter()
                .map(|li| {
                    let lab = Lab::new(li.spec.clone(), coloc_workloads::standard(), li.lab_seed)?
                        .with_threads(1);
                    tr.span("perfmon.baselines", 0, |_| lab.baselines());
                    Ok(lab)
                })
                .collect::<Result<Vec<_>, ColocError>>()
        })?;
        let mut replays: Vec<Replay<'_>> = labs.iter().map(|lab| Replay::new(lab, None)).collect();
        let t0 = Instant::now();
        let mut traced_cold = Vec::new();
        for pass_name in ["sweep.cold", "sweep.repeat"] {
            let samples = tr.span(pass_name, 0, |tr| {
                replays
                    .iter_mut()
                    .zip(inputs)
                    .map(|(r, li)| {
                        li.scenarios
                            .iter()
                            .enumerate()
                            .map(|(i, sc)| r.scenario(tr, "sweep.scenario", i as u64, sc))
                            .collect::<Result<Vec<_>, _>>()
                    })
                    .collect::<Result<Vec<_>, ColocError>>()
            })?;
            mismatch = mismatch
                .or_else(|| differs(&cold_1w, &samples).map(|d| format!("{pass_name}: {d}")));
            if pass_name == "sweep.cold" {
                traced_cold = replays.iter().map(|r| r.cache_stats()).collect();
            }
        }
        let traced_s = t0.elapsed().as_secs_f64();
        report.attempted += 4 * n as u64;
        for (r, before) in replays.iter().zip(&traced_cold) {
            let after = r.cache_stats();
            hits_ok &= after.hits - before.hits == before.misses && after.evictions == 0;
        }
        acc.add(
            "trace.overhead_pct",
            "%",
            (traced_s / (cold_1w_s + memo_1w_s) - 1.0) * 100.0,
        );

        let totals = trace::totals(tr.spans());
        add_layer_samples(&mut acc, &totals, &replays);
        add_cache_samples(&mut acc, replays.iter().map(Replay::cache_stats));
        let baselines = totals.get("perfmon.baselines").copied().unwrap_or_default();
        acc.add("perfmon.baselines_s", "s", baselines.total_ns as f64 * 1e-9);
        let passes: u64 = ["sweep.cold", "sweep.repeat"]
            .iter()
            .map(|p| totals[p].total_ns)
            .sum();
        let unattributed: u64 = ["sweep.cold", "sweep.repeat", "sweep.scenario"]
            .iter()
            .map(|p| totals[p].self_ns)
            .sum();
        acc.add(
            "path.unattributed_pct",
            "%",
            unattributed as f64 / passes as f64 * 100.0,
        );
        drop(replays);
        if Instant::now() >= deadline {
            report.spans = tr.spans().to_vec();
            break;
        }
    }
    report.check(
        "sweep: traced 1-worker passes bit-identical to the untraced passes",
        mismatch.is_none(),
        mismatch.unwrap_or_else(|| format!("{n} samples per pass")),
    );
    report.check(
        "sweep: traced repeat pass all hits, no evictions",
        hits_ok,
        "",
    );
    acc.into_report(report);
    Ok(())
}
