//! The differential oracle: optimized engine vs [`RefEngine`], field by
//! field.
//!
//! For every case the harness runs the full optimized stack —
//! [`RunCache::run_scheduled_observed`] over
//! [`coloc_machine::Machine`], twice, so both the cold engine path and
//! the memoized hit path are exercised — and the naive [`RefEngine`].
//! Event-mode cases (arrivals, departures, staggered starts, per-core
//! clocks) flow through the same comparison: the reference replays the
//! schedule naively, so the era-compacted driver has an independent
//! check. Outcomes must agree on every field to
//! [`REL_TOL`] relative (bit-equality always passes, which also handles
//! NaN wall times from injected faults), and the derived *slowdown*
//! (co-located wall time over solo wall time, both sides computed by
//! their own engine) must agree to [`SLOWDOWN_REL_TOL`].

use crate::case::{gen_case, CorpusCase, GenConstraints};
use crate::corpus::{shrink, Case};
use crate::refengine::RefEngine;
use coloc_machine::{Convergence, CounterBlock, RunCache, RunOutcome, RunnerGroup};

/// Relative tolerance for per-field outcome comparison.
pub const REL_TOL: f64 = 1e-9;
/// Relative tolerance for the derived slowdown (the acceptance bound).
pub const SLOWDOWN_REL_TOL: f64 = 1e-9;

/// Two floats agree when bit-identical (covers NaN, ±0, infinities) or
/// within `tol` relative of the larger magnitude.
pub fn close(a: f64, b: f64, tol: f64) -> bool {
    a.to_bits() == b.to_bits() || (a - b).abs() <= tol * a.abs().max(b.abs())
}

fn field(errors: &mut Vec<String>, name: &str, a: f64, b: f64) {
    if !close(a, b, REL_TOL) {
        errors.push(format!("{name}: engine {a:?} vs reference {b:?}"));
    }
}

/// Compare two outcomes field by field; returns the list of mismatches
/// (empty = conformant). The destructuring is exhaustive, so a new
/// outcome field fails to compile here until it is compared too.
pub fn compare_outcomes(engine: &RunOutcome, reference: &RunOutcome) -> Vec<String> {
    let RunOutcome {
        wall_time_s,
        counters,
        segments,
        fp_iterations,
        avg_llc_share_bytes,
        avg_mem_latency_ns,
        convergence,
        faults,
    } = engine;
    let mut errors = Vec::new();
    field(
        &mut errors,
        "wall_time_s",
        *wall_time_s,
        reference.wall_time_s,
    );
    if *segments != reference.segments {
        errors.push(format!("segments: {segments} vs {}", reference.segments));
    }
    if *fp_iterations != reference.fp_iterations {
        errors.push(format!(
            "fp_iterations: {fp_iterations} vs {}",
            reference.fp_iterations
        ));
    }
    for (name, a, b) in [
        ("counters", counters.len(), reference.counters.len()),
        (
            "avg_llc_share_bytes",
            avg_llc_share_bytes.len(),
            reference.avg_llc_share_bytes.len(),
        ),
    ] {
        if a != b {
            errors.push(format!("{name} length: {a} vs {b}"));
            return errors;
        }
    }
    for (gi, (ca, cb)) in counters.iter().zip(&reference.counters).enumerate() {
        let CounterBlock {
            instructions,
            cycles,
            llc_accesses,
            llc_misses,
            completed_runs,
        } = ca;
        for (name, a, b) in [
            ("instructions", *instructions, cb.instructions),
            ("cycles", *cycles, cb.cycles),
            ("llc_accesses", *llc_accesses, cb.llc_accesses),
            ("llc_misses", *llc_misses, cb.llc_misses),
        ] {
            field(&mut errors, &format!("counters[{gi}].{name}"), a, b);
        }
        if *completed_runs != cb.completed_runs {
            errors.push(format!(
                "counters[{gi}].completed_runs: {completed_runs} vs {}",
                cb.completed_runs
            ));
        }
    }
    for (gi, (&sa, &sb)) in avg_llc_share_bytes
        .iter()
        .zip(&reference.avg_llc_share_bytes)
        .enumerate()
    {
        field(&mut errors, &format!("avg_llc_share_bytes[{gi}]"), sa, sb);
    }
    field(
        &mut errors,
        "avg_mem_latency_ns",
        *avg_mem_latency_ns,
        reference.avg_mem_latency_ns,
    );
    match (*convergence, reference.convergence) {
        (Convergence::Converged, Convergence::Converged) => {}
        (
            Convergence::Degraded {
                fp_iterations: ia,
                residual: ra,
            },
            Convergence::Degraded {
                fp_iterations: ib,
                residual: rb,
            },
        ) => {
            if ia != ib || !close(ra, rb, REL_TOL) {
                errors.push(format!(
                    "degraded convergence: ({ia}, {ra}) vs ({ib}, {rb})"
                ));
            }
        }
        (a, b) => errors.push(format!("convergence: {a:?} vs {b:?}")),
    }
    if *faults != reference.faults {
        errors.push(format!("faults: {faults:?} vs {:?}", reference.faults));
    }
    errors
}

/// What one differential check observed.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// Case description.
    pub case: String,
    /// Target slowdown from the optimized stack (NaN when faulted away).
    pub slowdown_engine: f64,
    /// Target slowdown from the reference engine.
    pub slowdown_ref: f64,
    /// Both engines rejected the workload (with the same error).
    pub rejected: bool,
}

/// Run the differential oracle on one case.
///
/// Errors describe the first divergence found: a field mismatch, a
/// slowdown gap beyond tolerance, a cache hit that is not bit-identical
/// to the cold run, or the two engines disagreeing about whether the
/// workload is even valid.
pub fn check_case(case: &CorpusCase) -> Result<DiffReport, String> {
    let ir = case.to_ir()?;
    let machine = ir
        .machine()
        .map_err(|e| format!("machine rejected spec: {e}"))?;
    let reference =
        RefEngine::new(ir.machine.clone()).map_err(|e| format!("reference rejected spec: {e}"))?;
    let cache = RunCache::new(64);

    let run_cached = || {
        cache.run_scheduled_observed(
            &machine,
            &ir.workload,
            ir.schedules.as_deref(),
            &ir.opts,
            ir.faults.as_ref(),
            None,
        )
    };
    let engine_result = run_cached();
    let ref_result = reference.run_scheduled_faulted(
        &ir.workload,
        ir.schedules.as_deref(),
        &ir.opts,
        ir.faults.as_ref(),
    );

    let (engine_out, _) = match (engine_result, ref_result) {
        (Err(ea), Err(eb)) => {
            if ea == eb {
                return Ok(DiffReport {
                    case: case.describe(),
                    slowdown_engine: f64::NAN,
                    slowdown_ref: f64::NAN,
                    rejected: true,
                });
            }
            return Err(format!(
                "divergent errors: engine {ea:?} vs reference {eb:?}"
            ));
        }
        (Ok(_), Err(e)) => return Err(format!("reference errored, engine did not: {e:?}")),
        (Err(e), Ok(_)) => return Err(format!("engine errored, reference did not: {e:?}")),
        (Ok(pair), Ok(ref_out)) => {
            let errors = compare_outcomes(&pair.0, &ref_out);
            if !errors.is_empty() {
                return Err(format!(
                    "outcome mismatch on {}:\n  {}",
                    case.describe(),
                    errors.join("\n  ")
                ));
            }
            (pair.0, ref_out)
        }
    };

    // The memoized path must replay the cold outcome bit for bit.
    let (hit_out, was_hit) = run_cached().map_err(|e| format!("cache replay errored: {e}"))?;
    if !was_hit {
        return Err("second identical run missed the cache".into());
    }
    if engine_out.digest() != hit_out.digest() {
        return Err("cache hit is not bit-identical to the cold run".into());
    }

    // Derived slowdown: each side computes its own solo baseline (clean —
    // baselines sit below the fault layer, as in `Lab`).
    let solo_wl: Vec<RunnerGroup> = ir.workload[..1].to_vec();
    let engine_solo = machine
        .run(&solo_wl, &ir.opts)
        .map_err(|e| format!("engine solo baseline failed: {e}"))?;
    let ref_solo = reference
        .run(&solo_wl, &ir.opts)
        .map_err(|e| format!("reference solo baseline failed: {e}"))?;
    let slowdown_engine = engine_out.wall_time_s / engine_solo.wall_time_s;
    let slowdown_ref = hit_out.wall_time_s / ref_solo.wall_time_s;
    if !close(slowdown_engine, slowdown_ref, SLOWDOWN_REL_TOL) {
        return Err(format!(
            "slowdown diverged on {}: engine {slowdown_engine:?} vs reference {slowdown_ref:?}",
            case.describe()
        ));
    }

    Ok(DiffReport {
        case: case.describe(),
        slowdown_engine,
        slowdown_ref,
        rejected: false,
    })
}

/// Aggregate results of a differential sweep.
#[derive(Clone, Debug, Default)]
pub struct DiffSummary {
    /// Cases checked.
    pub cases: usize,
    /// Cases whose outcome carried at least one injected fault.
    pub faulted: usize,
    /// Cases that ran with a finite fixed-point budget.
    pub budgeted: usize,
    /// Solo cases (slowdown ≈ 1 expected).
    pub solo: usize,
    /// Cases carrying an event schedule (arrival, departure, staggered
    /// start, or per-core clock on at least one group).
    pub events: usize,
    /// Largest observed |slowdown_engine − slowdown_ref| / slowdown.
    pub max_slowdown_gap: f64,
}

/// A differential failure, already shrunk to a local minimum.
#[derive(Clone, Debug)]
pub struct DiffFailure {
    /// The shrunk failing case.
    pub case: CorpusCase,
    /// The divergence the shrunk case exhibits.
    pub detail: String,
}

/// Sweep `n` generated cases from `base_seed` across `threads` workers
/// (0 = one per core, capped at `n`).
///
/// Each case is independent, so the sweep fans out over the
/// work-stealing pool and aggregates in index order — the summary and
/// the chosen failure are the same at any thread count. On failure the
/// lowest-index failing case is shrunk (sequentially; shrinking is a
/// chain of dependent re-checks) and returned.
pub fn differential_sweep(
    base_seed: u64,
    n: usize,
    threads: usize,
) -> Result<DiffSummary, Box<DiffFailure>> {
    let results = coloc_ml::parallel::run_indexed(n, threads, |i| {
        let case = gen_case(base_seed.wrapping_add(i as u64), &GenConstraints::default());
        let result = check_case(&case);
        (case, result)
    });

    let mut summary = DiffSummary::default();
    for (case, result) in results {
        match result {
            Ok(report) => {
                summary.cases += 1;
                if case.faults.is_some() {
                    summary.faulted += 1;
                }
                if case.fp_budget > 0 {
                    summary.budgeted += 1;
                }
                if case.co.is_empty() {
                    summary.solo += 1;
                }
                if case.co.iter().any(crate::case::CoGroup::has_schedule) {
                    summary.events += 1;
                }
                if report.slowdown_engine.is_finite() && report.slowdown_ref.is_finite() {
                    let denom = report.slowdown_engine.abs().max(report.slowdown_ref.abs());
                    if denom > 0.0 {
                        let gap = (report.slowdown_engine - report.slowdown_ref).abs() / denom;
                        summary.max_slowdown_gap = summary.max_slowdown_gap.max(gap);
                    }
                }
            }
            Err(_) => {
                let shrunk = shrink(&case, |c| check_case(c).is_err());
                let detail = check_case(&shrunk)
                    .err()
                    .unwrap_or_else(|| "shrunk case no longer fails (flaky check?)".into());
                return Err(Box::new(DiffFailure {
                    case: shrunk,
                    detail,
                }));
            }
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn close_handles_special_values() {
        assert!(close(f64::NAN, f64::NAN, 0.0));
        assert!(close(0.0, 0.0, 0.0));
        assert!(close(1.0, 1.0 + 1e-12, 1e-9));
        assert!(!close(1.0, 1.01, 1e-9));
        assert!(close(f64::INFINITY, f64::INFINITY, 0.0));
    }

    #[test]
    fn a_single_case_passes_end_to_end() {
        let case = gen_case(12345, &GenConstraints::default());
        let report = check_case(&case).expect("differential check passes");
        assert!(report.rejected || report.slowdown_ref.is_nan() || report.slowdown_ref > 0.0);
    }

    #[test]
    fn staged_driver_matches_the_reference_bit_for_bit_across_the_corpus() {
        // The refactored engine is staged (five stage functions) and
        // era-compacted for event schedules; the reference still
        // walks the pre-refactor monolithic loop, naively re-deriving
        // the resident set every segment. Across 220 generated scenarios
        // — faults, noise, budgets, partitioning, event schedules, both
        // machines — every outcome (or rejection) must match bit for
        // bit, not just within tolerance.
        let cases = crate::case::gen_cases(0xD1FF, 220);
        let failures: Vec<String> = coloc_ml::parallel::run_indexed(cases.len(), 0, |i| {
            let case = &cases[i];
            let ir = case.to_ir().expect("generated cases lower");
            let machine = ir.machine().unwrap();
            let reference = RefEngine::new(ir.machine.clone()).unwrap();
            let cache = RunCache::new(4);
            let engine = cache.run_scheduled_observed(
                &machine,
                &ir.workload,
                ir.schedules.as_deref(),
                &ir.opts,
                ir.faults.as_ref(),
                None,
            );
            let refd = reference.run_scheduled_faulted(
                &ir.workload,
                ir.schedules.as_deref(),
                &ir.opts,
                ir.faults.as_ref(),
            );
            match (engine, refd) {
                (Ok((a, _)), Ok(b)) if a.digest() == b.digest() => None,
                (Err(ea), Err(eb)) if ea == eb => None,
                (a, b) => Some(format!(
                    "{}: engine {a:?} vs reference {b:?}",
                    case.describe()
                )),
            }
        })
        .into_iter()
        .flatten()
        .collect();
        assert!(
            failures.is_empty(),
            "{} divergences:\n{}",
            failures.len(),
            failures.join("\n")
        );
    }

    #[test]
    fn detects_a_tampered_reference() {
        // Sanity-check that the comparator actually bites: compare an
        // outcome against a perturbed copy of itself.
        let case = gen_case(7, &GenConstraints::default());
        let ir = case.to_ir().unwrap();
        let out = ir.machine().unwrap().run(&ir.workload, &ir.opts).unwrap();
        let mut bad = out.clone();
        bad.wall_time_s *= 1.0 + 1e-6;
        let errors = compare_outcomes(&out, &bad);
        assert!(
            errors.iter().any(|e| e.contains("wall_time_s")),
            "{errors:?}"
        );
        assert!(compare_outcomes(&out, &out).is_empty());
    }
}
