//! Service telemetry: lock-free latency quantiles and traffic counters.
//!
//! Every admitted query stamps its end-to-end latency (admission →
//! response written) into a log-scaled histogram of atomics, so the
//! periodic stats frame can report p50/p95/p99 without the server ever
//! taking a lock on the hot path or retaining per-request state. The
//! bucket layout trades ≤ ~9% relative error for a fixed 256-slot
//! footprint — the standard HDR-style compromise for service latency,
//! where the interesting signal is the order of magnitude of the tail,
//! not its fourth significant digit.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power of two: 3 mantissa bits ⇒ ≤ 1/8 ≈ 12.5% bucket
/// width, ≤ ~6% median quantile error.
const SUB_BITS: u32 = 3;
const SUBS: usize = 1 << SUB_BITS;
/// Powers of two covered: 2^32 µs ≈ 71 minutes, far past any deadline.
const EXPS: usize = 32;
const BUCKETS: usize = EXPS * SUBS;

/// A fixed-size log-bucket latency histogram over microseconds.
///
/// `record` is wait-free (one relaxed `fetch_add`); `quantile` is a scan
/// over 256 slots, paid only when a stats frame is built.
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }

    fn bucket_index(us: u64) -> usize {
        // Values below 2^SUB_BITS map to their own linear buckets; above,
        // the exponent picks the power-of-two band and the top SUB_BITS
        // of the mantissa pick the sub-bucket.
        let v = us.max(1);
        let exp = 63 - v.leading_zeros();
        if exp < SUB_BITS {
            return v as usize;
        }
        let sub = ((v >> (exp - SUB_BITS)) & ((SUBS as u64) - 1)) as usize;
        let band = (exp - SUB_BITS + 1) as usize;
        (band * SUBS + sub).min(BUCKETS - 1)
    }

    /// Representative value (µs) for a bucket: its lower bound, matching
    /// the convention that quantiles never over-report.
    fn bucket_floor(idx: usize) -> u64 {
        if idx < SUBS {
            return idx as u64;
        }
        let band = (idx / SUBS) as u32;
        let sub = (idx % SUBS) as u64;
        let exp = band + SUB_BITS - 1;
        (1u64 << exp) + (sub << (exp - SUB_BITS))
    }

    /// Record one latency observation.
    pub fn record_us(&self, us: u64) {
        self.buckets[Self::bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum_us.load(Ordering::Relaxed) as f64 / n as f64 * 1e-3
    }

    /// The `q`-quantile (`0.0..=1.0`) in milliseconds, 0 when empty.
    /// Reads are relaxed: a frame built concurrently with traffic is a
    /// near-snapshot, which is all a periodic stats line needs.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_floor(i) as f64 * 1e-3;
            }
        }
        Self::bucket_floor(BUCKETS - 1) as f64 * 1e-3
    }
}

/// Aggregate traffic counters, one atomic each. Everything the stats
/// frame reports that is not a latency quantile or cache traffic.
#[derive(Default)]
pub struct Counters {
    /// Queries accepted into the admission queue.
    pub admitted: AtomicU64,
    /// Queries answered (any source, including degraded).
    pub completed: AtomicU64,
    /// Queries shed at admission because the queue was full.
    pub shed_overload: AtomicU64,
    /// Admitted queries whose deadline expired before dispatch.
    pub shed_deadline: AtomicU64,
    /// Queries rejected because the server was draining.
    pub rejected_shutdown: AtomicU64,
    /// Degraded answers served from the memo cache.
    pub degraded_cache: AtomicU64,
    /// Degraded answers served by the fallback predictor.
    pub degraded_fallback: AtomicU64,
    /// Engine sweeps dispatched (each covers ≥ 1 query).
    pub batches: AtomicU64,
    /// Queries covered by those sweeps.
    pub batched_queries: AtomicU64,
    /// Responses dropped because a client's write queue was full (slow
    /// reader); the engine never blocks on a client.
    pub dropped_responses: AtomicU64,
    /// `ping` requests answered.
    pub pings: AtomicU64,
    /// Lines that failed to parse or validate.
    pub bad_requests: AtomicU64,
    /// Connections refused because the connection bound was reached.
    pub refused_connections: AtomicU64,
}

impl Counters {
    fn get(c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }
}

/// One periodic (or final) telemetry frame: the service's vital signs as
/// a line of JSON. Serialized with the same float-exact writer the rest
/// of the workspace persists artifacts with.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StatsFrame {
    /// Seconds since the server started.
    pub uptime_s: f64,
    /// Admission-queue depth at frame time.
    pub queue_depth: usize,
    /// Queries accepted into the queue.
    pub admitted: u64,
    /// Queries answered.
    pub completed: u64,
    /// Queries shed with `overloaded`.
    pub shed_overload: u64,
    /// Admitted queries expired before dispatch.
    pub shed_deadline: u64,
    /// Queries rejected while draining.
    pub rejected_shutdown: u64,
    /// Degraded answers from the memo cache.
    pub degraded_cache: u64,
    /// Degraded answers from the fallback predictor.
    pub degraded_fallback: u64,
    /// Engine sweeps dispatched.
    pub batches: u64,
    /// Queries covered by those sweeps.
    pub batched_queries: u64,
    /// Responses dropped on slow readers.
    pub dropped_responses: u64,
    /// Pings answered.
    pub pings: u64,
    /// Unparseable/invalid request lines.
    pub bad_requests: u64,
    /// Connections refused at the connection bound.
    pub refused_connections: u64,
    /// Median admitted-query latency, milliseconds.
    pub latency_p50_ms: f64,
    /// 95th-percentile latency, milliseconds.
    pub latency_p95_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub latency_p99_ms: f64,
    /// Mean latency, milliseconds.
    pub latency_mean_ms: f64,
    /// Run-cache hits across all labs.
    pub cache_hits: u64,
    /// Run-cache misses across all labs.
    pub cache_misses: u64,
    /// Run-cache evictions across all labs.
    pub cache_evictions: u64,
    /// Monotonic model epoch: 0 at startup, +1 per completed hot reload.
    pub model_epoch: u64,
    /// Hex digest of the default machine's active model artifact; empty
    /// until that model is first resolved.
    pub model_digest: String,
}

impl StatsFrame {
    /// Snapshot counters + histogram into a frame. Cache traffic and the
    /// active model identity are supplied by the caller (summed/read over
    /// the server's labs and model slots).
    pub fn snapshot(
        uptime_s: f64,
        queue_depth: usize,
        counters: &Counters,
        latency: &LatencyHistogram,
        cache: (u64, u64, u64),
        model: (u64, String),
    ) -> StatsFrame {
        StatsFrame {
            uptime_s,
            queue_depth,
            admitted: Counters::get(&counters.admitted),
            completed: Counters::get(&counters.completed),
            shed_overload: Counters::get(&counters.shed_overload),
            shed_deadline: Counters::get(&counters.shed_deadline),
            rejected_shutdown: Counters::get(&counters.rejected_shutdown),
            degraded_cache: Counters::get(&counters.degraded_cache),
            degraded_fallback: Counters::get(&counters.degraded_fallback),
            batches: Counters::get(&counters.batches),
            batched_queries: Counters::get(&counters.batched_queries),
            dropped_responses: Counters::get(&counters.dropped_responses),
            pings: Counters::get(&counters.pings),
            bad_requests: Counters::get(&counters.bad_requests),
            refused_connections: Counters::get(&counters.refused_connections),
            latency_p50_ms: latency.quantile_ms(0.50),
            latency_p95_ms: latency.quantile_ms(0.95),
            latency_p99_ms: latency.quantile_ms(0.99),
            latency_mean_ms: latency.mean_ms(),
            cache_hits: cache.0,
            cache_misses: cache.1,
            cache_evictions: cache.2,
            model_epoch: model.0,
            model_digest: model.1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_ms(0.5), 0.0);
        assert_eq!(h.mean_ms(), 0.0);
    }

    #[test]
    fn quantiles_are_order_of_magnitude_accurate() {
        let h = LatencyHistogram::new();
        // 90 fast (1ms), 9 medium (10ms), 1 slow (100ms).
        for _ in 0..90 {
            h.record_us(1_000);
        }
        for _ in 0..9 {
            h.record_us(10_000);
        }
        h.record_us(100_000);
        let p50 = h.quantile_ms(0.50);
        let p95 = h.quantile_ms(0.95);
        // ceil-rank convention: of 100 samples, p99 is observation #99 —
        // the last 10ms one; only the max reaches the 100ms outlier.
        let p99 = h.quantile_ms(0.99);
        let p100 = h.quantile_ms(1.0);
        assert!((0.8..=1.0).contains(&p50), "p50 = {p50}");
        assert!((8.0..=10.0).contains(&p95), "p95 = {p95}");
        assert!((8.0..=10.0).contains(&p99), "p99 = {p99}");
        assert!((80.0..=100.0).contains(&p100), "p100 = {p100}");
        assert!(p50 <= p95 && p95 <= p99 && p99 <= p100);
    }

    #[test]
    fn bucket_floor_never_exceeds_the_value() {
        for us in [0u64, 1, 7, 8, 9, 100, 1_000, 65_537, 1 << 30, u64::MAX] {
            let floor = LatencyHistogram::bucket_floor(LatencyHistogram::bucket_index(us));
            assert!(floor <= us.max(1), "us = {us}, floor = {floor}");
            // Bucket width is bounded: floor is within 12.5% + 1 of v.
            if us > 8 && us < (1 << 35) {
                assert!(
                    floor as f64 >= us as f64 * 0.85,
                    "us = {us}, floor = {floor}"
                );
            }
        }
    }

    #[test]
    fn stats_frame_round_trips_through_json() {
        let counters = Counters::default();
        counters.admitted.fetch_add(7, Ordering::Relaxed);
        counters.shed_overload.fetch_add(2, Ordering::Relaxed);
        let h = LatencyHistogram::new();
        h.record_us(1_500);
        let frame = StatsFrame::snapshot(1.25, 3, &counters, &h, (10, 4, 1), (2, "abc123".into()));
        let json = serde_json::to_string(&frame).unwrap();
        let back: StatsFrame = serde_json::from_str(&json).unwrap();
        assert_eq!(back.admitted, 7);
        assert_eq!(back.shed_overload, 2);
        assert_eq!(back.queue_depth, 3);
        assert_eq!(back.cache_hits, 10);
        assert_eq!(back.model_epoch, 2);
        assert_eq!(back.model_digest, "abc123");
        assert_eq!(
            back.latency_p50_ms.to_bits(),
            frame.latency_p50_ms.to_bits()
        );
    }
}
