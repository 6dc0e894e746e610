//! Shared-cache occupancy under co-location.
//!
//! When several applications share one LLC, each ends up holding a share of
//! the capacity determined by how aggressively it inserts new lines. In
//! steady state under (pseudo-)LRU, an application's occupancy is
//! approximately proportional to its *insertion rate* — its access rate
//! times its miss rate at its current share. Because a smaller share raises
//! the miss rate (more insertions → larger share), the system has a
//! negative-feedback fixed point, which this module finds by damped
//! iteration. The approach follows the spirit of Chandra et al.'s
//! inter-thread contention models and is validated against the exact shared
//! [`crate::SetAssocCache`] in this crate's integration tests.

use crate::mrc::MissRateCurve;

/// One co-located application, as the occupancy model sees it.
#[derive(Clone, Debug)]
pub struct SharedApp {
    /// LLC accesses per unit time (any consistent unit across apps).
    pub access_rate: f64,
    /// Miss rate as a function of allocated capacity.
    pub mrc: MissRateCurve,
}

/// The equilibrium the fixed-point iteration found.
#[derive(Clone, Debug)]
pub struct SharedCacheSolution {
    /// Capacity share of each app, in bytes (sums to the total capacity).
    pub occupancy_bytes: Vec<f64>,
    /// Miss rate of each app at its equilibrium share.
    pub miss_rates: Vec<f64>,
    /// Iterations taken.
    pub iterations: usize,
    /// True if the iteration met tolerance (it practically always does).
    pub converged: bool,
}

/// One damped update of the occupancy fixed point: recompute each app's
/// insertion rate at its current share, move shares toward
/// insertion-proportional targets, and renormalize to exactly fill the
/// cache. Returns the largest per-app change in bytes.
///
/// Exposed so callers with *additional* coupled state (the machine engine
/// couples occupancy with CPI and DRAM latency) can interleave their own
/// updates between occupancy steps instead of nesting full solves.
pub fn occupancy_step(capacity_bytes: u64, apps: &[SharedApp], occ: &mut [f64]) -> f64 {
    debug_assert_eq!(apps.len(), occ.len());
    let ins: Vec<f64> = apps
        .iter()
        .zip(occ.iter())
        .map(|(a, &o)| a.access_rate.max(0.0) * a.mrc.miss_rate(o as u64).max(1e-9))
        .collect();
    occupancy_step_rates(capacity_bytes, &vec![1; apps.len()], &ins, occ)
}

/// The allocation-free core of [`occupancy_step`], over groups of
/// identical instances: one damped update given each group's per-instance
/// insertion rate `ins` (access rate × miss rate at the current share,
/// both floored as in [`occupancy_step`]), its instance count `counts`,
/// and the share `occ` every instance of the group holds. Returns the
/// largest per-instance change in bytes.
///
/// Instances of a group start from the same share and see the same rate,
/// so the per-instance update keeps them bit-identical; this kernel
/// computes each group's update once. It is still the per-instance model
/// to the last bit: the residency floor divides by the *total* instance
/// count, and both sums (insertion rates and shares) add each group's
/// value once per instance, in instance order, through the same
/// `Iterator::sum`. Multiplying by the count instead would round
/// differently. [`occupancy_step`] calls this with counts of 1, so both
/// paths share one kernel.
///
/// The machine engine keeps its solver state per group, fills a
/// reusable `ins` buffer with one incremental MRC probe per group, and
/// calls this directly, so the hot fixed-point loop allocates nothing.
pub fn occupancy_step_rates(
    capacity_bytes: u64,
    counts: &[usize],
    ins: &[f64],
    occ: &mut [f64],
) -> f64 {
    debug_assert_eq!(counts.len(), ins.len());
    debug_assert_eq!(counts.len(), occ.len());
    let n: usize = counts.iter().sum();
    let cap = capacity_bytes as f64;
    const DAMPING: f64 = 0.5;
    // Floor keeps every app minimally resident, matching the observation
    // that even tiny-footprint apps retain their hot lines under LRU.
    let floor = (cap * 1e-4).min(cap / (4.0 * n as f64));

    let ins_total: f64 = per_instance(counts, ins).sum();
    if ins_total <= 0.0 {
        return 0.0;
    }
    let mut max_delta = 0.0f64;
    for (o, &rate) in occ.iter_mut().zip(ins) {
        let target = (cap * rate / ins_total).max(floor);
        let next = *o + DAMPING * (target - *o);
        max_delta = max_delta.max((next - *o).abs());
        *o = next;
    }
    let sum: f64 = per_instance(counts, occ).sum();
    for o in occ.iter_mut() {
        *o *= cap / sum;
    }
    max_delta
}

/// Each group's value repeated once per instance, in instance order.
fn per_instance<'a>(counts: &'a [usize], per_group: &'a [f64]) -> impl Iterator<Item = f64> + 'a {
    counts
        .iter()
        .zip(per_group)
        .flat_map(|(&count, &x)| std::iter::repeat_n(x, count))
}

/// Solve for the equilibrium occupancy split of `capacity_bytes` among
/// `apps`.
///
/// Returns equal shares for the degenerate cases (no apps with positive
/// access rate). Never panics on valid MRCs.
pub fn shared_occupancy(capacity_bytes: u64, apps: &[SharedApp]) -> SharedCacheSolution {
    let n = apps.len();
    if n == 0 {
        return SharedCacheSolution {
            occupancy_bytes: vec![],
            miss_rates: vec![],
            iterations: 0,
            converged: true,
        };
    }
    let cap = capacity_bytes as f64;
    let mut occ = vec![cap / n as f64; n];

    let total_rate: f64 = apps.iter().map(|a| a.access_rate.max(0.0)).sum();
    if total_rate <= 0.0 {
        let miss_rates = apps
            .iter()
            .zip(&occ)
            .map(|(a, &o)| a.mrc.miss_rate(o as u64))
            .collect();
        return SharedCacheSolution {
            occupancy_bytes: occ,
            miss_rates,
            iterations: 0,
            converged: true,
        };
    }

    const MAX_ITERS: usize = 300;
    let tol = cap * 1e-6;

    let mut iterations = 0;
    let mut converged = false;
    while iterations < MAX_ITERS {
        iterations += 1;
        let max_delta = occupancy_step(capacity_bytes, apps, &mut occ);
        if max_delta < tol {
            converged = true;
            break;
        }
    }

    let miss_rates = apps
        .iter()
        .zip(&occ)
        .map(|(a, &o)| a.mrc.miss_rate(o as u64))
        .collect();
    SharedCacheSolution {
        occupancy_bytes: occ,
        miss_rates,
        iterations,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StackDistanceDist;

    fn app(span_lines: usize, alpha: f64, p_new: f64, rate: f64) -> SharedApp {
        SharedApp {
            access_rate: rate,
            mrc: StackDistanceDist::power_law(span_lines, alpha, p_new).miss_rate_curve(),
        }
    }

    const MB: u64 = 1 << 20;

    #[test]
    fn identical_apps_split_evenly() {
        let apps = vec![app(40_000, 0.8, 0.01, 1.0), app(40_000, 0.8, 0.01, 1.0)];
        let sol = shared_occupancy(8 * MB, &apps);
        assert!(sol.converged);
        assert!((sol.occupancy_bytes[0] - sol.occupancy_bytes[1]).abs() < 1.0);
        assert!((sol.miss_rates[0] - sol.miss_rates[1]).abs() < 1e-9);
    }

    #[test]
    fn occupancies_sum_to_capacity() {
        let apps = vec![
            app(100_000, 0.5, 0.02, 3.0),
            app(10_000, 1.5, 0.001, 1.0),
            app(500, 2.0, 0.0001, 0.2),
        ];
        let sol = shared_occupancy(12 * MB, &apps);
        let sum: f64 = sol.occupancy_bytes.iter().sum();
        assert!((sum - (12 * MB) as f64).abs() < 1.0, "sum {sum}");
    }

    #[test]
    fn hungrier_app_takes_more_cache() {
        // Same locality, but app 0 issues 10x the accesses.
        let apps = vec![app(50_000, 0.8, 0.01, 10.0), app(50_000, 0.8, 0.01, 1.0)];
        let sol = shared_occupancy(8 * MB, &apps);
        assert!(
            sol.occupancy_bytes[0] > sol.occupancy_bytes[1] * 1.5,
            "{:?}",
            sol.occupancy_bytes
        );
    }

    #[test]
    fn victim_miss_rate_rises_with_more_co_runners() {
        // A fixed target app joined by increasing numbers of aggressors:
        // its equilibrium miss rate must be non-decreasing. This is the
        // mechanism behind the paper's Table VI degradation column.
        let target = app(60_000, 1.0, 0.005, 1.0);
        let mut prev = 0.0;
        for n_aggr in 0..6 {
            let mut apps = vec![target.clone()];
            for _ in 0..n_aggr {
                apps.push(app(200_000, 0.4, 0.05, 2.0));
            }
            let sol = shared_occupancy(12 * MB, &apps);
            assert!(
                sol.miss_rates[0] >= prev - 1e-9,
                "n={n_aggr}: {} < {prev}",
                sol.miss_rates[0]
            );
            prev = sol.miss_rates[0];
        }
        // And strictly worse with 5 aggressors than alone.
        assert!(prev > target.mrc.miss_rate(12 * MB) + 1e-4);
    }

    #[test]
    fn low_intensity_app_barely_disturbs_target() {
        let target = app(60_000, 1.0, 0.005, 1.0);
        let gentle = app(100, 2.0, 1e-6, 0.01); // ep-like: tiny, quiet
        let aggressive = app(200_000, 0.3, 0.08, 3.0); // cg-like

        let alone = shared_occupancy(12 * MB, std::slice::from_ref(&target)).miss_rates[0];
        let with_gentle = shared_occupancy(12 * MB, &[target.clone(), gentle]).miss_rates[0];
        let with_aggr = shared_occupancy(12 * MB, &[target, aggressive]).miss_rates[0];

        assert!(
            with_gentle - alone < 0.01,
            "gentle {with_gentle} vs alone {alone}"
        );
        assert!(
            with_aggr > with_gentle,
            "aggr {with_aggr} vs gentle {with_gentle}"
        );
    }

    #[test]
    fn empty_and_zero_rate_cases() {
        let sol = shared_occupancy(MB, &[]);
        assert!(sol.occupancy_bytes.is_empty());
        let apps = vec![app(100, 1.0, 0.01, 0.0), app(100, 1.0, 0.01, 0.0)];
        let sol = shared_occupancy(MB, &apps);
        assert!((sol.occupancy_bytes[0] - (MB / 2) as f64).abs() < 1.0);
    }

    #[test]
    fn deterministic() {
        let apps = vec![app(50_000, 0.7, 0.01, 2.0), app(20_000, 1.2, 0.003, 1.0)];
        let a = shared_occupancy(6 * MB, &apps);
        let b = shared_occupancy(6 * MB, &apps);
        assert_eq!(a.occupancy_bytes, b.occupancy_bytes);
    }
}
