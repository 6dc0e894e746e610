//! O(log n) stack-distance analysis (Bennett–Kruskal algorithm).
//!
//! The naive LRU-stack analyzer in [`crate::stack`] pays O(depth) per
//! access, which is fine for validation traces but quadratic-ish on
//! loosely-local streams. This module implements the classic
//! Bennett–Kruskal formulation: keep each line's *time of last access*,
//! mark those times in a Fenwick (binary-indexed) tree, and read the stack
//! distance as the number of marked slots after the line's previous
//! access — an O(log n) query + two O(log n) updates per access.
//!
//! Equivalence with the naive analyzer is property-tested.

use crate::Line;
use std::collections::HashMap;

/// Fenwick tree over access timestamps, with mark/unmark semantics.
///
/// Grows by capacity doubling. A plain Fenwick array cannot be extended by
/// zero-padding — the new high nodes must cover sums of existing positions
/// — so growth rebuilds the tree from a live-position bitmap (amortized
/// O(log n) per operation overall).
struct Fenwick {
    tree: Vec<u32>,
    /// Bitmap of currently marked positions (1 bit per timestamp).
    live: Vec<u64>,
}

impl Fenwick {
    fn new() -> Fenwick {
        Fenwick {
            tree: Vec::new(),
            live: Vec::new(),
        }
    }

    #[inline]
    fn is_live(&self, i: usize) -> bool {
        self.live
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    fn grow_for(&mut self, i: usize) {
        if i < self.tree.len() {
            return;
        }
        let new_len = (i + 1).next_power_of_two().max(64);
        self.tree = vec![0; new_len];
        self.live.resize(new_len.div_ceil(64), 0);
        // Rebuild: re-apply every live mark into the fresh tree.
        for word_idx in 0..self.live.len() {
            let mut w = self.live[word_idx];
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                self.raw_add(word_idx * 64 + bit);
            }
        }
    }

    /// Internal +1 at position `i` without touching the bitmap.
    fn raw_add(&mut self, i: usize) {
        let mut idx = i + 1;
        while idx <= self.tree.len() {
            self.tree[idx - 1] += 1;
            idx += idx & idx.wrapping_neg();
        }
    }

    /// Internal −1 at position `i`.
    fn raw_sub(&mut self, i: usize) {
        let mut idx = i + 1;
        while idx <= self.tree.len() {
            self.tree[idx - 1] -= 1;
            idx += idx & idx.wrapping_neg();
        }
    }

    /// Mark position `i` (must not already be marked).
    fn mark(&mut self, i: usize) {
        self.grow_for(i);
        debug_assert!(!self.is_live(i), "position {i} already marked");
        self.live[i / 64] |= 1u64 << (i % 64);
        self.raw_add(i);
    }

    /// Unmark position `i` (must be marked).
    fn unmark(&mut self, i: usize) {
        debug_assert!(self.is_live(i), "position {i} not marked");
        self.live[i / 64] &= !(1u64 << (i % 64));
        self.raw_sub(i);
    }

    /// Count of marked positions in `0..=i`.
    fn prefix(&self, i: usize) -> u32 {
        let mut idx = (i + 1).min(self.tree.len());
        let mut sum = 0u32;
        while idx > 0 {
            sum += self.tree[idx - 1];
            idx -= idx & idx.wrapping_neg();
        }
        sum
    }

    /// Count of marked positions in `lo..hi` (half-open). Positions at or
    /// beyond the tree's length are unmarked by definition.
    fn range(&self, lo: usize, hi: usize) -> u32 {
        if hi <= lo {
            return 0;
        }
        let upper = self.prefix(hi - 1);
        if lo == 0 {
            upper
        } else {
            upper - self.prefix(lo - 1)
        }
    }
}

/// O(log n)-per-access stack-distance analyzer, drop-in compatible with
/// the measurement surface of [`crate::StackAnalyzer`].
pub struct FastStackAnalyzer {
    last_access: HashMap<Line, usize>,
    marks: Fenwick,
    clock: usize,
    histogram: Vec<u64>,
    cold: u64,
    total: u64,
}

impl Default for FastStackAnalyzer {
    fn default() -> Self {
        Self::new()
    }
}

impl FastStackAnalyzer {
    /// A fresh analyzer.
    pub fn new() -> FastStackAnalyzer {
        FastStackAnalyzer {
            last_access: HashMap::new(),
            marks: Fenwick::new(),
            clock: 0,
            histogram: Vec::new(),
            cold: 0,
            total: 0,
        }
    }

    /// Record one access and return its stack distance (`None` = cold).
    pub fn access(&mut self, line: Line) -> Option<usize> {
        self.total += 1;
        let t = self.clock;
        self.clock += 1;
        match self.last_access.insert(line, t) {
            None => {
                self.marks.mark(t);
                self.cold += 1;
                None
            }
            Some(prev) => {
                // Distinct lines touched strictly after `prev`: each has
                // exactly one mark (its most recent access time).
                let dist = self.marks.range(prev + 1, t) as usize;
                self.marks.unmark(prev);
                self.marks.mark(t);
                if self.histogram.len() <= dist {
                    self.histogram.resize(dist + 1, 0);
                }
                self.histogram[dist] += 1;
                Some(dist)
            }
        }
    }

    /// Feed a whole trace.
    pub fn access_all(&mut self, trace: impl IntoIterator<Item = Line>) {
        for l in trace {
            self.access(l);
        }
    }

    /// Total accesses observed.
    pub fn total_accesses(&self) -> u64 {
        self.total
    }

    /// Cold (compulsory) misses observed.
    pub fn cold_misses(&self) -> u64 {
        self.cold
    }

    /// Distinct lines touched.
    pub fn footprint_lines(&self) -> usize {
        self.last_access.len()
    }

    /// The stack-distance histogram.
    pub fn histogram(&self) -> &[u64] {
        &self.histogram
    }

    /// Miss count at a fully-associative LRU capacity.
    pub fn misses_at(&self, capacity_lines: usize) -> u64 {
        let reuse: u64 = self.histogram.iter().skip(capacity_lines).sum();
        self.cold + reuse
    }

    /// Miss rate at a capacity; NaN with no accesses.
    pub fn miss_rate_at(&self, capacity_lines: usize) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        self.misses_at(capacity_lines) as f64 / self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::StackAnalyzer;
    use crate::stream::{StackDistanceDist, StreamGen};

    #[test]
    fn simple_trace_distances() {
        let mut an = FastStackAnalyzer::new();
        assert_eq!(an.access(10), None);
        assert_eq!(an.access(20), None);
        assert_eq!(an.access(30), None);
        assert_eq!(an.access(10), Some(2));
        assert_eq!(an.access(10), Some(0));
        assert_eq!(an.access(20), Some(2));
        assert_eq!(an.cold_misses(), 3);
        assert_eq!(an.footprint_lines(), 3);
    }

    #[test]
    fn matches_naive_analyzer_on_generated_stream() {
        let dist = StackDistanceDist::power_law(500, 0.7, 0.02);
        let trace = StreamGen::new(dist, 17, 0).take_trace(50_000);
        let mut fast = FastStackAnalyzer::new();
        let mut naive = StackAnalyzer::new();
        for &l in &trace {
            let a = fast.access(l);
            let b = naive.access(l);
            assert_eq!(a, b);
        }
        assert_eq!(fast.histogram(), naive.histogram());
        assert_eq!(fast.cold_misses(), naive.cold_misses());
        for cap in [1usize, 7, 64, 300, 1000] {
            assert_eq!(fast.misses_at(cap), naive.misses_at(cap));
        }
    }

    #[test]
    fn sequential_scan_all_cold() {
        let mut an = FastStackAnalyzer::new();
        an.access_all(0..5000u64);
        assert_eq!(an.cold_misses(), 5000);
        assert_eq!(an.miss_rate_at(1 << 20), 1.0);
    }

    #[test]
    fn cyclic_reuse_has_constant_distance() {
        let mut an = FastStackAnalyzer::new();
        for _ in 0..10 {
            for l in 0..8u64 {
                an.access(l);
            }
        }
        // After warmup every access has distance 7.
        assert_eq!(an.histogram()[7], 72);
        assert_eq!(an.misses_at(8), 8);
        assert_eq!(an.misses_at(7), 80);
    }

    #[test]
    fn empty_is_nan() {
        assert!(FastStackAnalyzer::new().miss_rate_at(1).is_nan());
    }
}
