//! Property-based tests for cache-simulation invariants.

use coloc_cachesim::{
    occupancy_step_rates, shared_occupancy, CacheConfig, Line, MissRateCurve, MrcCursor,
    SetAssocCache, SharedApp, StackAnalyzer, StackDistanceDist, StreamGen,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// The generator over a `Vec` LRU stack that moves each reused line with
/// `Vec::remove`, O(depth) per access: the reference [`StreamGen`] must
/// match line for line.
struct VecStream {
    dist: StackDistanceDist,
    rng: rand::rngs::StdRng,
    /// LRU stack, most recent at the back.
    stack: Vec<Line>,
    next_line: Line,
}

impl VecStream {
    fn new(dist: StackDistanceDist, seed: u64, base_line: Line) -> VecStream {
        let span = dist.reuse_span() as Line;
        VecStream {
            dist,
            rng: rand::rngs::StdRng::seed_from_u64(seed),
            stack: (base_line..base_line + span).collect(),
            next_line: base_line + span,
        }
    }

    fn next_access(&mut self) -> Line {
        let fresh = self.stack.is_empty() || self.rng.gen::<f64>() < self.dist.p_new();
        if fresh {
            let line = self.next_line;
            self.next_line += 1;
            self.stack.push(line);
            line
        } else {
            // Inverse-CDF sample over the quantized support.
            let u = self.rng.gen::<f64>();
            let (cdf, reps) = (self.dist.cdf(), self.dist.representatives());
            let d = reps[cdf.partition_point(|&c| c < u).min(reps.len() - 1)];
            let d = d.min(self.stack.len() - 1);
            let pos = self.stack.len() - 1 - d;
            let line = self.stack.remove(pos);
            self.stack.push(line);
            line
        }
    }
}

/// Run both generators `n` accesses from one seed; `Err` names the first
/// access where they part.
fn compare_with_vec_stack(
    dist: StackDistanceDist,
    seed: u64,
    n: usize,
) -> Result<(), TestCaseError> {
    let base_line = seed << 40;
    let mut fenwick = StreamGen::new(dist.clone(), seed, base_line);
    let mut reference = VecStream::new(dist, seed, base_line);
    for i in 0..n {
        prop_assert_eq!((i, fenwick.next_access()), (i, reference.next_access()));
    }
    prop_assert_eq!(fenwick.footprint_lines(), reference.stack.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Spans on both sides of the distribution's 256-line exact prefix,
    /// `p_new` exactly 0 in a quarter of the cases.
    #[test]
    fn stream_matches_the_vec_stack_reference(
        span in (0u8..2, 1usize..257, 257usize..3_001)
            .prop_map(|(small, a, b)| if small == 0 { a } else { b }),
        alpha in 0.0f64..1.5,
        p_new in (0u8..4, 0.0f64..0.3).prop_map(|(zero, p)| if zero == 0 { 0.0 } else { p }),
        seed in prop::sample::select(vec![0u64, 1, 7, 2015]),
        n in 1usize..4_000,
    ) {
        compare_with_vec_stack(StackDistanceDist::power_law(span, alpha, p_new), seed, n)?;
    }
}

#[test]
fn long_stream_matches_the_vec_stack_reference() {
    let dist = StackDistanceDist::power_law(5_000, 0.6, 0.01);
    compare_with_vec_stack(dist, 11, 100_000).expect("same lines");
}

proptest! {
    /// Conservation: hits + misses == accesses, per owner, for any trace.
    #[test]
    fn cache_stats_conserve(
        trace in prop::collection::vec((0usize..3, 0u64..200), 1..500),
        ways_pow in 0u32..4,
    ) {
        let ways = 1usize << ways_pow;
        let lines = 64usize;
        let mut c = SetAssocCache::new(
            CacheConfig { capacity_bytes: lines as u64 * 64, line_bytes: 64, ways },
            3,
        );
        for &(owner, line) in &trace {
            c.access(owner, line);
        }
        let mut total_acc = 0;
        for o in 0..3 {
            let s = c.stats(o);
            prop_assert_eq!(s.hits + s.misses, s.accesses);
            total_acc += s.accesses;
        }
        prop_assert_eq!(total_acc as usize, trace.len());
        // Occupancy never exceeds capacity.
        prop_assert!(c.total_occupied() <= lines as u64);
    }

    /// Stack analyzer: miss count at any capacity equals the exact
    /// fully-associative simulation on the same trace.
    #[test]
    fn mattson_equals_exact_fa(
        trace in prop::collection::vec(0u64..60, 1..400),
        cap in 1usize..80,
    ) {
        let mut an = StackAnalyzer::new();
        an.access_all(trace.iter().copied());
        let mut cache = SetAssocCache::new(CacheConfig::fully_associative(cap), 1);
        for &l in &trace {
            cache.access(0, l);
        }
        prop_assert_eq!(an.misses_at(cap), cache.stats(0).misses);
    }

    /// Miss-rate-at-capacity is monotone non-increasing for any trace.
    #[test]
    fn mattson_monotone(trace in prop::collection::vec(0u64..100, 1..400)) {
        let mut an = StackAnalyzer::new();
        an.access_all(trace);
        let mut prev = f64::INFINITY;
        for cap in 1..64 {
            let mr = an.miss_rate_at(cap);
            prop_assert!(mr <= prev + 1e-12);
            prev = mr;
        }
    }

    /// Analytic distribution miss rate stays in [p_new, 1] and is monotone.
    #[test]
    fn dist_miss_rate_bounded_and_monotone(
        span in 1usize..500,
        alpha in 0.0f64..3.0,
        p_new in 0.0f64..0.5,
    ) {
        let d = StackDistanceDist::power_law(span, alpha, p_new);
        let mut prev = 1.0f64 + 1e-12;
        for cap in 0..span + 10 {
            let mr = d.miss_rate_at(cap);
            prop_assert!(mr <= prev + 1e-12, "cap {}", cap);
            prop_assert!(mr >= p_new - 1e-12);
            prop_assert!(mr <= 1.0 + 1e-12);
            prev = mr;
        }
    }

    /// Occupancy model: shares are positive and sum to capacity for any mix.
    #[test]
    fn occupancy_sums_to_capacity(
        rates in prop::collection::vec(0.01f64..10.0, 1..8),
        cap_mb in 1u64..64,
    ) {
        let apps: Vec<SharedApp> = rates
            .iter()
            .enumerate()
            .map(|(i, &r)| SharedApp {
                access_rate: r,
                mrc: StackDistanceDist::power_law(1000 * (i + 1), 0.5 + 0.3 * i as f64, 0.01)
                    .miss_rate_curve(),
            })
            .collect();
        let cap = cap_mb << 20;
        let sol = shared_occupancy(cap, &apps);
        let sum: f64 = sol.occupancy_bytes.iter().sum();
        prop_assert!((sum - cap as f64).abs() < 1.0);
        for &o in &sol.occupancy_bytes {
            prop_assert!(o > 0.0);
        }
        for &m in &sol.miss_rates {
            prop_assert!((0.0..=1.0).contains(&m));
        }
    }

    /// The cursor-probed MRC lookup is bit-identical to the plain lookup
    /// for any curve and any probe sequence: runs of a repeated byte
    /// count (answered from the cursor's memo), jumps that leave the
    /// cursor's segment, a cursor arriving from another curve (a stale,
    /// possibly out-of-range segment; its memo dropped by `reset`), and
    /// probes pinned to segment boundaries, where an off-by-one in the
    /// segment-validity test would hide.
    #[test]
    fn mrc_hinted_equals_plain(
        pts in prop::collection::vec((1u64..2_000_000, 0.0f64..1.0), 1..12),
        queries in prop::collection::vec((0u64..3_000_000, 1usize..4), 1..64),
        other_pts in prop::collection::vec((1u64..2_000_000, 0.0f64..1.0), 1..16),
    ) {
        let mrc = MissRateCurve::from_points(pts);
        let other = MissRateCurve::from_points(other_pts);
        let mut cursor = MrcCursor::default();
        for &(q, _) in &queries {
            other.miss_rate_hinted(q, &mut cursor);
        }
        cursor.reset();
        let boundary: Vec<(u64, usize)> = mrc
            .points()
            .iter()
            .flat_map(|&(c, _)| [c.saturating_sub(1), c, c + 1])
            .map(|q| (q, 2))
            .collect();
        for (q, repeats) in queries.into_iter().chain(boundary) {
            for _ in 0..repeats {
                let plain = mrc.miss_rate(q);
                let hinted = mrc.miss_rate_hinted(q, &mut cursor);
                prop_assert_eq!(plain.to_bits(), hinted.to_bits());
            }
        }
    }

    /// The grouped occupancy step is the per-instance step to the last
    /// bit: stepping one share per group, weighted by instance counts,
    /// gives the occupancies and the max delta of the same call on the
    /// instance-expanded slices (every count 1), step after step. Rates
    /// mix zeros, the 1e-9 miss-rate floor and ordinary magnitudes.
    #[test]
    fn grouped_occupancy_step_equals_instance_expanded(
        groups in prop::collection::vec((1usize..17, 0usize..4, 0.0f64..1e9, 0.0f64..1.0), 1..7),
        capacity in (1u64 << 20)..(64u64 << 20),
        steps in 1usize..8,
    ) {
        let counts: Vec<usize> = groups.iter().map(|g| g.0).collect();
        let ins: Vec<f64> = groups
            .iter()
            .map(|&(_, kind, x, _)| match kind {
                0 => 0.0,
                1 => 1e-9,
                2 => x * 1e-9,
                _ => x,
            })
            .collect();
        let n: usize = counts.iter().sum();
        let mut occ: Vec<f64> = groups
            .iter()
            .map(|g| (0.01 + g.3) * capacity as f64 / n as f64)
            .collect();
        let expand = |per_group: &[f64]| -> Vec<f64> {
            counts
                .iter()
                .zip(per_group)
                .flat_map(|(&c, &x)| std::iter::repeat_n(x, c))
                .collect()
        };
        let ones = vec![1usize; n];
        let ins_x = expand(&ins);
        let mut occ_x = expand(&occ);
        for step in 0..steps {
            let d = occupancy_step_rates(capacity, &counts, &ins, &mut occ);
            let d_x = occupancy_step_rates(capacity, &ones, &ins_x, &mut occ_x);
            // Step and instance ride along so a failure names them.
            prop_assert_eq!((step, d.to_bits()), (step, d_x.to_bits()));
            for (i, o) in expand(&occ).into_iter().enumerate() {
                prop_assert_eq!((step, i, o.to_bits()), (step, i, occ_x[i].to_bits()));
            }
        }
    }

    /// MRC interpolation stays within the convex hull of sampled rates.
    #[test]
    fn mrc_interpolation_bounded(
        pts in prop::collection::vec((10u64..1_000_000, 0.0f64..1.0), 1..10),
        query in 1u64..2_000_000,
    ) {
        let mrc = MissRateCurve::from_points(pts.clone());
        let lo = pts.iter().map(|&(_, m)| m).fold(f64::INFINITY, f64::min);
        let hi = pts.iter().map(|&(_, m)| m).fold(0.0f64, f64::max);
        let v = mrc.miss_rate(query);
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    }
}
