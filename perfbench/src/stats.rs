//! Order statistics over a run's samples.
//!
//! Every quantile in the benchmark uses the ceil-rank convention: the
//! q-quantile of n samples is the ⌈q·n⌉-th smallest (rank clamped to
//! `1..=n`). It always returns an observed sample, never an
//! interpolation, and matches the service's own latency histogram.

/// The ceil-rank q-quantile of `sorted` (ascending). NaN when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Median and quartiles of one metric's per-run samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Ceil-rank median.
    pub median: f64,
    /// Ceil-rank first quartile.
    pub q1: f64,
    /// Ceil-rank third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarize `samples` (any order). NaN fields when empty.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_ceil_rank() {
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        // ⌈0.5·10⌉ = 5th smallest, not the 5.5 an interpolating median gives.
        assert_eq!(quantile(&sorted, 0.5), 5.0);
        assert_eq!(quantile(&sorted, 0.25), 3.0);
        assert_eq!(quantile(&sorted, 0.75), 8.0);
        assert_eq!(quantile(&sorted, 0.99), 10.0);
        assert_eq!(quantile(&sorted, 0.0), 1.0);
        assert_eq!(quantile(&sorted, 1.0), 10.0);
        // 100 samples: p99 is the 99th observation, the max is only p100.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.99), 99.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn summary_sorts_its_input() {
        let s = Summary::of(&[9.0, 1.0, 5.0, 3.0, 7.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.median, 5.0);
        assert_eq!(s.q1, 3.0);
        assert_eq!(s.q3, 7.0);
        assert_eq!(Summary::of(&[4.0, 2.0]).median, 2.0);
    }
}
