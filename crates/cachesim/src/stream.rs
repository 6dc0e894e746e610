//! Synthetic address streams with controllable temporal locality.
//!
//! Real applications were not available to this reproduction (the paper
//! uses PARSEC and NAS binaries), so workloads synthesize their memory
//! behaviour with the *LRU-stack access model*: each access either touches
//! a brand-new line (probability `p_new`, producing compulsory misses and
//! footprint growth) or re-touches the line at stack distance `d`, with `d`
//! drawn from a truncated power law. The stack-distance distribution of the
//! generated trace then matches the model by construction, which makes the
//! analytic miss-rate curve in [`StackDistanceDist::miss_rate_curve`] exact
//! — a property the crate's integration tests verify against the trace
//! simulators.
//!
//! ## Quantization
//!
//! Working sets in the workload suite reach hundreds of megabytes
//! (millions of cache lines), so the distribution does not store
//! per-distance probabilities. Distances are quantized onto a set of
//! *representative distances*: exact for small spans (≤ 256), log-spaced
//! above that. Both the sampler and the analytic miss-rate evaluation use
//! the same quantized support, so they agree exactly in distribution
//! regardless of span.

use crate::mrc::MissRateCurve;
use crate::stack::LruStack;
use crate::Line;
use rand::Rng;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};

/// Distances below this are always represented exactly.
const EXACT_PREFIX: usize = 256;
/// Log-spaced representatives beyond the exact prefix.
const LOG_REPS: usize = 192;

/// A parametric stack-distance distribution.
///
/// With probability `p_new` an access touches a never-before-seen line;
/// otherwise it reuses the line at stack distance `d ∈ [0, reuse_span)`
/// where `P(d) ∝ (d + 1)^{-alpha}`. Larger `alpha` = tighter locality;
/// larger `reuse_span` = bigger working set.
///
/// The parameters are fixed at construction, and the quantized tables
/// are built from them once. The tables live in one immutable block that
/// clones share by reference, so cloning a distribution (and the
/// application profile around it) bumps a refcount instead of copying
/// hundreds of entries. The block also keeps what is derived from the
/// tables alone: the analytic miss-rate curve
/// ([`StackDistanceDist::shared_curve`]) and the digest slots
/// ([`StackDistanceDist::digest_slots`]). Each constructor call builds a
/// fresh block, so independently built distributions share nothing, even
/// with equal parameters.
#[derive(Clone, Debug)]
pub struct StackDistanceDist {
    p_new: f64,
    reuse_span: usize,
    alpha: f64,
    tables: Arc<Tables>,
}

/// The immutable block a distribution's clones share.
#[derive(Debug)]
struct Tables {
    /// Representative distances, ascending (quantized support).
    reps: Vec<usize>,
    /// CDF over `reps`, conditioned on the access being a reuse.
    cdf: Vec<f64>,
    /// The distribution's miss-rate curve, built on first use.
    curve: OnceLock<Arc<MissRateCurve>>,
    digest: DigestSlots,
}

/// Memo slots for a digest writer's transition over one fixed byte
/// block, filled by `coloc_machine::ir`.
///
/// An FNV-1a-style writer absorbs the block as an affine map of its
/// state: `state ↦ state · pow + add`, where `pow` depends only on the
/// block's length and `add` only on the block and the low byte of the
/// input state. A slot holds what the first absorption from that low byte
/// computed, so a later absorption replays it as one multiply-add. The
/// slots are a pure function of the block's bytes, so they stay valid
/// for as long as those bytes cannot change: a distribution's table block
/// keeps one set for its tables, and a lab keeps one per suite
/// application for that application's whole encoding.
#[derive(Debug)]
pub struct DigestSlots {
    /// The multiplicative part, shared by every input state.
    pub pow: OnceLock<u128>,
    /// The additive part, one slot per input state's low byte.
    pub add: [OnceLock<u128>; 256],
}

impl DigestSlots {
    /// Empty slots: each part is computed on its first use.
    pub fn new() -> DigestSlots {
        DigestSlots {
            pow: OnceLock::new(),
            add: std::array::from_fn(|_| OnceLock::new()),
        }
    }
}

impl Default for DigestSlots {
    fn default() -> DigestSlots {
        DigestSlots::new()
    }
}

impl StackDistanceDist {
    /// Build a truncated power-law distribution.
    ///
    /// # Panics
    /// Panics if `p_new` is outside `[0, 1]`, `reuse_span` is 0, or
    /// `alpha < 0`.
    pub fn power_law(reuse_span: usize, alpha: f64, p_new: f64) -> StackDistanceDist {
        assert!((0.0..=1.0).contains(&p_new), "p_new {p_new} out of [0,1]");
        assert!(reuse_span > 0, "reuse_span must be positive");
        assert!(alpha >= 0.0, "alpha must be non-negative");

        // Representative distances: exact prefix, then log-spaced.
        let mut reps: Vec<usize> = (0..reuse_span.min(EXACT_PREFIX)).collect();
        if reuse_span > EXACT_PREFIX {
            let lo = EXACT_PREFIX as f64;
            let hi = (reuse_span - 1) as f64;
            let ratio = (hi / lo).powf(1.0 / LOG_REPS as f64);
            let mut d = lo;
            for _ in 0..=LOG_REPS {
                let di = d.round() as usize;
                if *reps.last().expect("non-empty prefix") < di {
                    reps.push(di.min(reuse_span - 1));
                }
                d *= ratio;
            }
            if *reps.last().expect("non-empty") != reuse_span - 1 {
                reps.push(reuse_span - 1);
            }
        }

        // Mass of each band [reps[k], reps[k+1]) under the power law.
        // Exact summation for small spans, integral form above the prefix.
        let pdf_sum = |a: usize, b: usize| -> f64 {
            // Σ_{d=a}^{b-1} (d+1)^-alpha
            if b <= a {
                return 0.0;
            }
            if b - a <= 64 {
                (a..b).map(|d| ((d + 1) as f64).powf(-alpha)).sum()
            } else {
                // ∫_{a+0.5}^{b+0.5} (x+0.5... -> use midpoint-corrected integral
                let f = |x: f64| (x + 1.0).powf(-alpha);
                if (alpha - 1.0).abs() < 1e-9 {
                    ((b as f64 + 0.5) / (a as f64 + 0.5)).ln()
                } else {
                    let g = |x: f64| (x + 0.5).powf(1.0 - alpha) / (1.0 - alpha);
                    let _ = f;
                    g(b as f64) - g(a as f64)
                }
            }
        };

        let mut mass: Vec<f64> = Vec::with_capacity(reps.len());
        for k in 0..reps.len() {
            let a = reps[k];
            let b = if k + 1 < reps.len() {
                reps[k + 1]
            } else {
                reuse_span
            };
            mass.push(pdf_sum(a, b));
        }
        let total: f64 = mass.iter().sum();
        let mut cdf = Vec::with_capacity(mass.len());
        let mut acc = 0.0;
        for m in &mass {
            acc += m / total;
            cdf.push(acc);
        }
        // Pin the final value against rounding.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }

        StackDistanceDist {
            p_new,
            reuse_span,
            alpha,
            tables: Arc::new(Tables {
                reps,
                cdf,
                curve: OnceLock::new(),
                digest: DigestSlots::new(),
            }),
        }
    }

    /// Uniform reuse over the span (alpha = 0).
    pub fn uniform(reuse_span: usize, p_new: f64) -> StackDistanceDist {
        StackDistanceDist::power_law(reuse_span, 0.0, p_new)
    }

    /// Probability of touching a fresh line.
    pub fn p_new(&self) -> f64 {
        self.p_new
    }

    /// Maximum reuse distance (in distinct lines).
    pub fn reuse_span(&self) -> usize {
        self.reuse_span
    }

    /// Power-law exponent of the reuse-distance pdf.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The quantized support (representative distances).
    pub fn representatives(&self) -> &[usize] {
        &self.tables.reps
    }

    /// The CDF over the representatives.
    pub fn cdf(&self) -> &[f64] {
        &self.tables.cdf
    }

    /// Whether `self` and `other` share one table block, and so its
    /// memos: true for clones, false for independently built
    /// distributions, whatever their parameters.
    pub fn shares_tables(&self, other: &StackDistanceDist) -> bool {
        Arc::ptr_eq(&self.tables, &other.tables)
    }

    /// The digest slots of this distribution's table block.
    pub fn digest_slots(&self) -> &DigestSlots {
        &self.tables.digest
    }

    /// Probability that an access has stack distance ≥ `capacity_lines`
    /// (i.e. misses in a fully-associative LRU cache of that size), which
    /// is the analytic miss rate of the generated stream.
    pub fn miss_rate_at(&self, capacity_lines: usize) -> f64 {
        if capacity_lines == 0 {
            return 1.0;
        }
        // Reuses hit iff their representative distance < capacity.
        let k = self.tables.reps.partition_point(|&r| r < capacity_lines);
        let p_hit = if k == 0 { 0.0 } else { self.tables.cdf[k - 1] };
        self.p_new + (1.0 - self.p_new) * (1.0 - p_hit)
    }

    /// Sample the analytic MRC at power-of-two capacities covering the span.
    pub fn miss_rate_curve(&self) -> MissRateCurve {
        let mut caps: Vec<usize> = Vec::new();
        let mut c = 1usize;
        while c < self.reuse_span {
            caps.push(c);
            // Finer sampling than powers of two: ×√2 steps.
            c = (c + c / 2).max(c + 1);
        }
        caps.push(self.reuse_span);
        caps.push(self.reuse_span.saturating_mul(2));
        MissRateCurve::from_points(
            caps.into_iter()
                .map(|cap| (cap as u64 * crate::LINE_BYTES, self.miss_rate_at(cap)))
                .collect(),
        )
    }

    /// [`StackDistanceDist::miss_rate_curve`], built once per table block
    /// and shared by its clones.
    pub fn shared_curve(&self) -> Arc<MissRateCurve> {
        Arc::clone(
            self.tables
                .curve
                .get_or_init(|| Arc::new(self.miss_rate_curve())),
        )
    }

    /// Inverse-CDF sample of a reuse distance, given `u ∈ [0, 1)`.
    fn sample_distance(&self, u: f64) -> usize {
        let k = self
            .tables
            .cdf
            .partition_point(|&c| c < u)
            .min(self.tables.reps.len() - 1);
        self.tables.reps[k]
    }
}

/// A deterministic address-stream generator implementing the LRU-stack
/// model for a given [`StackDistanceDist`].
///
/// For validation and cache studies at any span the suite uses: the stack
/// starts `reuse_span` lines deep and lives in the crate's Fenwick-tree
/// LRU stack, so an access costs O(log n) in the accesses so far, and
/// memory grows by about 12 bytes per access. The machine simulator never
/// generates streams — it uses the analytic MRC.
pub struct StreamGen {
    dist: StackDistanceDist,
    rng: rand::rngs::StdRng,
    stack: LruStack,
    next_line: Line,
}

impl StreamGen {
    /// Create a generator; `base_line` offsets the address space so
    /// multiple co-located generators never alias.
    ///
    /// The LRU stack is pre-populated with `reuse_span` lines so sampled
    /// reuse distances are never clamped by a shallow stack — without this,
    /// low-`p_new` streams would spend a long warm-up period with
    /// artificially tight locality.
    pub fn new(dist: StackDistanceDist, seed: u64, base_line: Line) -> StreamGen {
        let next_line = base_line + dist.reuse_span as Line;
        let mut stack = LruStack::new();
        for line in base_line..next_line {
            stack.push(line);
        }
        StreamGen {
            dist,
            rng: rand::rngs::StdRng::seed_from_u64(seed),
            stack,
            next_line,
        }
    }

    /// Generate the next line address.
    pub fn next_access(&mut self) -> Line {
        if self.rng.gen::<f64>() < self.dist.p_new {
            let line = self.next_line;
            self.next_line += 1;
            self.stack.push(line);
            line
        } else {
            // Sampled distances stay below `reuse_span`, the stack's
            // starting depth, so each names a line on the stack.
            let d = self.dist.sample_distance(self.rng.gen::<f64>());
            let time = self.stack.raise(self.stack.time_at(d));
            self.stack.line(time)
        }
    }

    /// Generate a trace of `n` accesses.
    pub fn take_trace(&mut self, n: usize) -> Vec<Line> {
        (0..n).map(|_| self.next_access()).collect()
    }

    /// Distinct lines touched so far.
    pub fn footprint_lines(&self) -> usize {
        self.stack.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::StackAnalyzer;

    #[test]
    fn cdf_is_normalized_and_monotone() {
        for span in [100usize, 300, 100_000] {
            let d = StackDistanceDist::power_law(span, 1.2, 0.01);
            assert!((d.cdf().last().unwrap() - 1.0).abs() < 1e-12, "span {span}");
            for w in d.cdf().windows(2) {
                assert!(w[1] >= w[0] - 1e-15);
            }
            assert_eq!(d.representatives().len(), d.cdf().len());
        }
    }

    #[test]
    fn small_spans_are_exact() {
        let d = StackDistanceDist::power_law(100, 1.0, 0.0);
        // Representatives are every distance 0..100.
        assert_eq!(d.representatives().len(), 100);
        // P(d=0) = 1/H where H = Σ 1/(k+1).
        let h: f64 = (0..100).map(|k| 1.0 / (k + 1) as f64).sum();
        assert!((d.cdf()[0] - 1.0 / h).abs() < 1e-12);
    }

    #[test]
    fn large_span_support_is_compact() {
        let d = StackDistanceDist::power_law(4_000_000, 0.5, 0.01);
        assert!(
            d.representatives().len() < 600,
            "{}",
            d.representatives().len()
        );
        assert_eq!(*d.representatives().last().unwrap(), 3_999_999);
    }

    #[test]
    fn analytic_miss_rate_endpoints() {
        let d = StackDistanceDist::power_law(64, 1.0, 0.05);
        assert_eq!(d.miss_rate_at(0), 1.0);
        assert!((d.miss_rate_at(64) - 0.05).abs() < 1e-12);
        assert!((d.miss_rate_at(1000) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn higher_alpha_means_lower_miss_rate_at_small_caches() {
        let loose = StackDistanceDist::power_law(256, 0.2, 0.01);
        let tight = StackDistanceDist::power_law(256, 2.0, 0.01);
        assert!(tight.miss_rate_at(8) < loose.miss_rate_at(8));
    }

    #[test]
    fn generated_trace_matches_analytic_miss_rate() {
        // The core validation: simulate the generated stream through the
        // exact Mattson analyzer and compare with the analytic prediction.
        let dist = StackDistanceDist::power_law(128, 1.0, 0.002);
        let mut g = StreamGen::new(dist.clone(), 7, 0);
        let trace = g.take_trace(200_000);
        let mut an = StackAnalyzer::new();
        an.access_all(trace);
        for cap in [4usize, 16, 64, 128] {
            let measured = an.miss_rate_at(cap);
            let analytic = dist.miss_rate_at(cap);
            assert!(
                (measured - analytic).abs() < 0.01,
                "cap {cap}: measured {measured} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn quantized_trace_matches_analytic_too() {
        // Same validation beyond the exact prefix (span 2000 > 256).
        let dist = StackDistanceDist::power_law(2000, 0.8, 0.005);
        let mut g = StreamGen::new(dist.clone(), 13, 0);
        let trace = g.take_trace(150_000);
        let mut an = StackAnalyzer::new();
        an.access_all(trace);
        for cap in [32usize, 300, 1000, 2000] {
            let measured = an.miss_rate_at(cap);
            let analytic = dist.miss_rate_at(cap);
            assert!(
                (measured - analytic).abs() < 0.015,
                "cap {cap}: measured {measured} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let dist = StackDistanceDist::uniform(32, 0.1);
        let t1 = StreamGen::new(dist.clone(), 5, 0).take_trace(500);
        let t2 = StreamGen::new(dist, 5, 0).take_trace(500);
        assert_eq!(t1, t2);
    }

    #[test]
    fn base_line_separates_address_spaces() {
        let dist = StackDistanceDist::uniform(16, 0.5);
        let ta = StreamGen::new(dist.clone(), 1, 0).take_trace(100);
        let tb = StreamGen::new(dist, 1, 1 << 40).take_trace(100);
        let max_a = ta.iter().max().unwrap();
        let min_b = tb.iter().min().unwrap();
        assert!(max_a < min_b);
    }

    #[test]
    fn footprint_grows_with_p_new() {
        let sticky = StreamGen::new(StackDistanceDist::uniform(64, 0.001), 3, 0).take_trace(10_000);
        let churny = StreamGen::new(StackDistanceDist::uniform(64, 0.2), 3, 0).take_trace(10_000);
        let distinct = |t: &[Line]| {
            let mut v = t.to_vec();
            v.sort_unstable();
            v.dedup();
            v.len()
        };
        assert!(distinct(&churny) > distinct(&sticky) * 5);
    }

    #[test]
    #[should_panic(expected = "p_new")]
    fn rejects_bad_p_new() {
        StackDistanceDist::power_law(10, 1.0, 1.5);
    }

    #[test]
    fn mrc_export_spans_the_reuse_range() {
        let d = StackDistanceDist::power_law(1000, 0.8, 0.01);
        let mrc = d.miss_rate_curve();
        assert!(mrc.is_monotone());
        assert!((mrc.miss_rate(u64::MAX) - 0.01).abs() < 1e-9);
        assert!(mrc.miss_rate(crate::LINE_BYTES) > 0.5);
    }

    #[test]
    fn mrc_of_huge_span_is_cheap_and_sane() {
        let d = StackDistanceDist::power_law(8_000_000, 0.4, 0.02);
        let mrc = d.miss_rate_curve();
        assert!(mrc.is_monotone());
        // At 12 MiB (196608 lines) the miss rate should be strictly between
        // the extremes.
        let mr = mrc.miss_rate(12 << 20);
        assert!(mr > 0.03 && mr < 0.95, "mr {mr}");
    }
}
