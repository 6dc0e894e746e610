//! Miss-rate curves: miss rate as a function of allocated cache capacity.
//!
//! A miss-rate curve (MRC) is the bridge between a workload's intrinsic
//! locality and its behaviour in any particular (share of a) cache. The
//! machine simulator evaluates each co-located application's MRC at its
//! equilibrium share of the LLC to obtain its effective miss rate under
//! contention.

/// A piecewise-linear miss-rate curve over capacity in bytes.
///
/// Points are sorted by capacity; evaluation interpolates linearly in
/// *log-capacity* (locality effects are multiplicative in size) and clamps
/// to the end values outside the sampled range.
#[derive(Clone, Debug, PartialEq)]
pub struct MissRateCurve {
    /// `(capacity_bytes, miss_rate)`, sorted ascending by capacity.
    points: Vec<(u64, f64)>,
    /// `ln(capacity_bytes)` of each point, computed once at construction
    /// for [`MissRateCurve::miss_rate_hinted`]. `ln` of the same input is
    /// the same value wherever it is taken, so reading it here instead of
    /// recomputing it changes no bit of a probe.
    ln_caps: Vec<f64>,
}

/// Incremental-probe state for [`MissRateCurve::miss_rate_hinted`]: the
/// bracketing segment the last probe used, and the last `(bytes, rate)`
/// pair it answered.
///
/// A cursor belongs to one curve. [`MrcCursor::reset`] it before probing
/// a different curve: its memo would otherwise answer a repeated byte
/// count with the old curve's rate. The segment index is only a hint,
/// checked on every use, so it survives a reset.
#[derive(Clone, Copy, Debug, Default)]
pub struct MrcCursor {
    /// Upper index of the last bracketing segment (what
    /// `partition_point` returned last time).
    segment: usize,
    /// The last probe's byte count and the rate it returned.
    last: Option<(u64, f64)>,
}

impl MrcCursor {
    /// Forget the memoized probe, before the cursor moves to another
    /// curve.
    pub fn reset(&mut self) {
        self.last = None;
    }
}

impl MissRateCurve {
    /// Build from unsorted points. Duplicate capacities keep the last value.
    ///
    /// # Panics
    /// Panics if `points` is empty or any miss rate is outside `[0, 1]`.
    pub fn from_points(mut points: Vec<(u64, f64)>) -> MissRateCurve {
        assert!(!points.is_empty(), "MRC needs at least one point");
        for &(c, m) in &points {
            assert!(
                (0.0..=1.0).contains(&m) && m.is_finite(),
                "miss rate {m} at capacity {c} out of [0,1]"
            );
        }
        points.sort_by_key(|&(c, _)| c);
        points.dedup_by_key(|&mut (c, _)| c);
        let ln_caps = points.iter().map(|&(c, _)| (c as f64).ln()).collect();
        MissRateCurve { points, ln_caps }
    }

    /// A constant curve (capacity-insensitive workload, e.g. a pure-compute
    /// kernel whose few misses are all compulsory).
    pub fn constant(miss_rate: f64) -> MissRateCurve {
        MissRateCurve::from_points(vec![(1, miss_rate)])
    }

    /// The sampled points.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Miss rate at an allocated capacity of `bytes`, by log-linear
    /// interpolation with clamping.
    pub fn miss_rate(&self, bytes: u64) -> f64 {
        let pts = &self.points;
        if bytes <= pts[0].0 {
            return pts[0].1;
        }
        if bytes >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        // Binary search for the bracketing segment.
        let idx = pts.partition_point(|&(c, _)| c <= bytes);
        let (c0, m0) = pts[idx - 1];
        let (c1, m1) = pts[idx];
        if c0 == c1 {
            return m1;
        }
        let t = ((bytes as f64).ln() - (c0 as f64).ln()) / ((c1 as f64).ln() - (c0 as f64).ln());
        m0 + t * (m1 - m0)
    }

    /// [`MissRateCurve::miss_rate`], probed through a cursor. Always
    /// bit-identical to `miss_rate(bytes)`:
    ///
    /// * a probe at the byte count the cursor's last probe answered
    ///   returns that answer without touching the curve (a damped fixed
    ///   point often probes the same integer share twice in a row);
    /// * otherwise the cursor's segment is tried first, and the binary
    ///   search runs only when the query has left it. The validity test
    ///   (`points[seg-1].0 <= bytes < points[seg].0`) is exactly the
    ///   `partition_point` postcondition on a strictly increasing
    ///   capacity axis (duplicates are deduped at construction), so both
    ///   paths select the same segment;
    /// * the interpolation reads the two bracketing logarithms from the
    ///   table built at construction, so a probe takes one `ln`, of
    ///   `bytes`, and evaluates the same expression as `miss_rate`.
    pub fn miss_rate_hinted(&self, bytes: u64, cursor: &mut MrcCursor) -> f64 {
        if let Some((last_bytes, rate)) = cursor.last {
            if last_bytes == bytes {
                return rate;
            }
        }
        let rate = self.interpolate_from(bytes, &mut cursor.segment);
        cursor.last = Some((bytes, rate));
        rate
    }

    /// The log-linear interpolation behind [`MissRateCurve::miss_rate_hinted`],
    /// seeded with (and updating) the bracketing-segment hint `seg`.
    fn interpolate_from(&self, bytes: u64, seg: &mut usize) -> f64 {
        let pts = &self.points;
        if bytes <= pts[0].0 {
            return pts[0].1;
        }
        if bytes >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        let mut idx = *seg;
        if !(idx >= 1 && idx < pts.len() && pts[idx - 1].0 <= bytes && bytes < pts[idx].0) {
            idx = pts.partition_point(|&(c, _)| c <= bytes);
        }
        *seg = idx;
        let (m0, m1) = (pts[idx - 1].1, pts[idx].1);
        let (ln0, ln1) = (self.ln_caps[idx - 1], self.ln_caps[idx]);
        let t = ((bytes as f64).ln() - ln0) / (ln1 - ln0);
        m0 + t * (m1 - m0)
    }

    /// The smallest sampled capacity at which the miss rate first drops to
    /// within `epsilon` of its minimum — a practical "working set size".
    pub fn working_set_bytes(&self, epsilon: f64) -> u64 {
        let min_mr = self
            .points
            .iter()
            .map(|&(_, m)| m)
            .fold(f64::INFINITY, f64::min);
        self.points
            .iter()
            .find(|&&(_, m)| m <= min_mr + epsilon)
            .map(|&(c, _)| c)
            .unwrap_or(self.points[self.points.len() - 1].0)
    }

    /// True if the curve never increases with capacity (LRU stack property;
    /// synthetic curves should satisfy this).
    pub fn is_monotone(&self) -> bool {
        self.points.windows(2).all(|w| w[1].1 <= w[0].1 + 1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MissRateCurve {
        MissRateCurve::from_points(vec![
            (1 << 10, 0.80),
            (1 << 14, 0.40),
            (1 << 20, 0.05),
            (1 << 24, 0.01),
        ])
    }

    #[test]
    fn clamps_outside_range() {
        let mrc = sample();
        assert_eq!(mrc.miss_rate(1), 0.80);
        assert_eq!(mrc.miss_rate(u64::MAX), 0.01);
    }

    #[test]
    fn interpolates_at_sample_points_exactly() {
        let mrc = sample();
        assert!((mrc.miss_rate(1 << 14) - 0.40).abs() < 1e-12);
        assert!((mrc.miss_rate(1 << 20) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn log_interpolation_midpoint() {
        let mrc = MissRateCurve::from_points(vec![(1 << 10, 0.8), (1 << 14, 0.4)]);
        // Log-midpoint of 2^10 and 2^14 is 2^12.
        assert!((mrc.miss_rate(1 << 12) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn interpolation_is_monotone_between_points() {
        let mrc = sample();
        let mut prev = f64::INFINITY;
        for exp in 8..26 {
            let mr = mrc.miss_rate(1u64 << exp);
            assert!(mr <= prev + 1e-12, "at 2^{exp}");
            prev = mr;
        }
        assert!(mrc.is_monotone());
    }

    #[test]
    fn constant_curve() {
        let mrc = MissRateCurve::constant(0.002);
        assert_eq!(mrc.miss_rate(0), 0.002);
        assert_eq!(mrc.miss_rate(1 << 30), 0.002);
    }

    #[test]
    fn working_set_detection() {
        let mrc = sample();
        // Within 0.05 of min (0.01) first happens at 1 MiB (0.05).
        assert_eq!(mrc.working_set_bytes(0.05), 1 << 20);
        // Exact min only at 16 MiB.
        assert_eq!(mrc.working_set_bytes(0.0), 1 << 24);
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn rejects_bad_miss_rate() {
        MissRateCurve::from_points(vec![(1, 1.5)]);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn rejects_empty() {
        MissRateCurve::from_points(vec![]);
    }

    #[test]
    fn duplicate_capacities_deduped() {
        let mrc = MissRateCurve::from_points(vec![(100, 0.5), (100, 0.4), (200, 0.2)]);
        assert_eq!(mrc.points().len(), 2);
    }
}
