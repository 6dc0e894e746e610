//! Mattson stack-distance analysis, and the LRU stack the crate's
//! simulators share.
//!
//! For an LRU cache, the *stack distance* of an access is the number of
//! distinct lines touched since the previous access to the same line. An
//! access hits in a fully-associative LRU cache of `C` lines iff its stack
//! distance is `< C`. Mattson's classic result is that one pass over a
//! trace therefore yields the miss rate at **every** capacity at once.
//! The suite's reuse tables are analytic
//! ([`crate::StackDistanceDist`]); this analyzer measures generated and
//! hand-written traces to check them.

use crate::mrc::MissRateCurve;
use crate::Line;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// An LRU stack kept as access times (the Bennett–Kruskal formulation).
///
/// Every push takes the next time. A line's place on the stack is the
/// time of its last push, marked in a Fenwick (binary-indexed) tree over
/// all times: a line's depth is the count of marked times after its own,
/// and the line at a given depth is the marked time of that rank. Both
/// are O(log n) in the number of pushes. Times only grow, so the tree
/// only appends, and its memory grows with the number of pushes.
pub(crate) struct LruStack {
    /// One-based Fenwick tree: `tree[i - 1]` counts the marked times in
    /// `(i - lowbit(i), i]`, time `t` being position `t + 1`.
    tree: Vec<u32>,
    /// The line pushed at each time.
    lines: Vec<Line>,
    /// Marked times, which is the number of lines on the stack.
    len: usize,
}

impl LruStack {
    pub(crate) fn new() -> LruStack {
        LruStack {
            tree: Vec::new(),
            lines: Vec::new(),
            len: 0,
        }
    }

    /// Lines on the stack.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The line pushed at `time`.
    pub(crate) fn line(&self, time: usize) -> Line {
        self.lines[time]
    }

    /// Put `line` on top at the next time, and return that time. `line`
    /// must not be on the stack already.
    pub(crate) fn push(&mut self, line: Line) -> usize {
        let time = self.tree.len();
        // Node `i` is its own mark plus its children `i - 1`, `i - 2`,
        // `i - 4`, … below `lowbit(i)`, all already in the tree.
        let i = time + 1;
        let lowbit = i & i.wrapping_neg();
        let mut count = 1;
        let mut step = 1;
        while step < lowbit {
            count += self.tree[i - step - 1];
            step <<= 1;
        }
        self.tree.push(count);
        self.lines.push(line);
        self.len += 1;
        time
    }

    /// Move the line pushed at `time` to the top, and return its new time.
    pub(crate) fn raise(&mut self, time: usize) -> usize {
        let mut i = time + 1;
        while i <= self.tree.len() {
            self.tree[i - 1] -= 1;
            i += i & i.wrapping_neg();
        }
        self.len -= 1;
        self.push(self.lines[time])
    }

    /// The depth of the line pushed at `time`: the number of lines on the
    /// stack pushed after it (0 = top).
    pub(crate) fn depth_of(&self, time: usize) -> usize {
        let mut i = time + 1;
        let mut through = 0;
        while i > 0 {
            through += self.tree[i - 1] as usize;
            i -= i & i.wrapping_neg();
        }
        self.len - through
    }

    /// The time of the line at `depth` (0 = top); `depth < len()`.
    pub(crate) fn time_at(&self, depth: usize) -> usize {
        // The `len - depth`-th marked time, counting from the oldest: walk
        // down from the largest power of two to the last position whose
        // prefix count is still short of that rank.
        let mut rank = (self.len - depth) as u32;
        let mut pos = 0;
        let mut step = 1 << self.tree.len().ilog2();
        while step > 0 {
            if pos + step <= self.tree.len() && self.tree[pos + step - 1] < rank {
                pos += step;
                rank -= self.tree[pos - 1];
            }
            step >>= 1;
        }
        pos
    }
}

/// Online stack-distance analyzer: O(log n) per access in the number of
/// accesses.
pub struct StackAnalyzer {
    /// Each line's last access time on `stack`.
    last_access: HashMap<Line, usize>,
    stack: LruStack,
    /// histogram[d] = number of accesses with stack distance exactly d.
    histogram: Vec<u64>,
    /// First-touch (compulsory) misses: infinite stack distance.
    cold: u64,
    total: u64,
}

impl Default for StackAnalyzer {
    fn default() -> Self {
        Self::new()
    }
}

impl StackAnalyzer {
    /// A fresh analyzer.
    pub fn new() -> StackAnalyzer {
        StackAnalyzer {
            last_access: HashMap::new(),
            stack: LruStack::new(),
            histogram: Vec::new(),
            cold: 0,
            total: 0,
        }
    }

    /// Record one access and return its stack distance (`None` = cold).
    pub fn access(&mut self, line: Line) -> Option<usize> {
        self.total += 1;
        match self.last_access.entry(line) {
            Entry::Vacant(slot) => {
                slot.insert(self.stack.push(line));
                self.cold += 1;
                None
            }
            Entry::Occupied(mut slot) => {
                let time = slot.get_mut();
                let dist = self.stack.depth_of(*time);
                *time = self.stack.raise(*time);
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

    /// Number of distinct lines touched (the observed footprint).
    pub fn footprint_lines(&self) -> usize {
        self.stack.len()
    }

    /// The raw stack-distance histogram (`histogram()[d]` = accesses at
    /// distance `d`).
    pub fn histogram(&self) -> &[u64] {
        &self.histogram
    }

    /// Miss count for a fully-associative LRU cache of `capacity_lines`:
    /// cold misses plus all accesses with distance ≥ capacity.
    pub fn misses_at(&self, capacity_lines: usize) -> u64 {
        let reuse_misses: u64 = self.histogram.iter().skip(capacity_lines).sum();
        self.cold + reuse_misses
    }

    /// Miss *rate* at a capacity; NaN if no accesses were recorded.
    pub fn miss_rate_at(&self, capacity_lines: usize) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        self.misses_at(capacity_lines) as f64 / self.total as f64
    }

    /// Build a [`MissRateCurve`] sampled at every power-of-two capacity up
    /// to the footprint (plus the exact footprint point).
    pub fn miss_rate_curve(&self) -> MissRateCurve {
        let mut capacities: Vec<usize> = Vec::new();
        let mut c = 1usize;
        let fp = self.footprint_lines().max(1);
        while c < fp {
            capacities.push(c);
            c *= 2;
        }
        capacities.push(fp);
        capacities.push(fp * 2);
        let points = capacities
            .into_iter()
            .map(|cap| (cap as u64 * crate::LINE_BYTES, self.miss_rate_at(cap)))
            .collect();
        MissRateCurve::from_points(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_assoc::{CacheConfig, SetAssocCache};

    #[test]
    fn distances_of_simple_trace() {
        // Trace: A B C A -> A's second access has distance 2 (B, C between).
        let mut an = StackAnalyzer::new();
        assert_eq!(an.access(0), None);
        assert_eq!(an.access(1), None);
        assert_eq!(an.access(2), None);
        assert_eq!(an.access(0), Some(2));
        assert_eq!(an.access(0), Some(0));
        assert_eq!(an.access(1), Some(2));
        assert_eq!(an.cold_misses(), 3);
        assert_eq!(an.footprint_lines(), 3);
    }

    #[test]
    fn cyclic_reuse_has_constant_distance() {
        let mut an = StackAnalyzer::new();
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
    fn misses_match_exact_fully_associative_simulation() {
        // Deterministic pseudo-random trace over 64 lines.
        let trace: Vec<Line> = (0..4000u64)
            .map(|i| {
                let x = i.wrapping_mul(2654435761) ^ (i >> 3);
                x % 64
            })
            .collect();
        let mut an = StackAnalyzer::new();
        an.access_all(trace.iter().copied());

        for capacity in [1usize, 2, 4, 8, 16, 32, 64, 128] {
            let mut cache = SetAssocCache::new(CacheConfig::fully_associative(capacity), 1);
            for &l in &trace {
                cache.access(0, l);
            }
            assert_eq!(
                an.misses_at(capacity),
                cache.stats(0).misses,
                "capacity {capacity}"
            );
        }
    }

    #[test]
    fn miss_rate_monotone_in_capacity() {
        let trace: Vec<Line> = (0..2000u64).map(|i| (i * i) % 97).collect();
        let mut an = StackAnalyzer::new();
        an.access_all(trace);
        let mut prev = f64::INFINITY;
        for c in 1..120 {
            let mr = an.miss_rate_at(c);
            assert!(mr <= prev + 1e-15, "capacity {c}");
            prev = mr;
        }
    }

    #[test]
    fn capacity_beyond_footprint_leaves_only_cold_misses() {
        let mut an = StackAnalyzer::new();
        an.access_all([1u64, 2, 3, 1, 2, 3, 1, 2, 3]);
        assert_eq!(an.misses_at(100), 3);
        assert!((an.miss_rate_at(100) - 3.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn sequential_scan_has_no_reuse() {
        let mut an = StackAnalyzer::new();
        an.access_all(0..5000u64);
        assert_eq!(an.cold_misses(), 5000);
        assert!(an.histogram().iter().all(|&h| h == 0));
        assert_eq!(an.miss_rate_at(1_000_000), 1.0);
    }

    #[test]
    fn mrc_export_is_monotone_and_bounded() {
        let trace: Vec<Line> = (0..5000u64)
            .map(|i| (i.wrapping_mul(48271)) % 200)
            .collect();
        let mut an = StackAnalyzer::new();
        an.access_all(trace);
        let mrc = an.miss_rate_curve();
        let mut prev = f64::INFINITY;
        for &(_, mr) in mrc.points() {
            assert!((0.0..=1.0).contains(&mr));
            assert!(mr <= prev + 1e-15);
            prev = mr;
        }
    }

    #[test]
    fn empty_analyzer_is_nan() {
        let an = StackAnalyzer::new();
        assert!(an.miss_rate_at(4).is_nan());
        assert_eq!(an.total_accesses(), 0);
    }
}
