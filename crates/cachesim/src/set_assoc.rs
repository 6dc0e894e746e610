//! Exact set-associative LRU cache with per-owner accounting.
//!
//! This is the reference simulator the analytic models are validated
//! against. It supports multiple *owners* (co-located applications) sharing
//! one cache, tracking per-owner hits, misses and occupancy — the exact
//! quantities the shared-LLC occupancy model in [`crate::share`]
//! approximates.

use crate::Line;

/// Geometry of a cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Associativity (ways per set). Use [`CacheConfig::fully_associative`]
    /// for a single-set cache.
    pub ways: usize,
}

impl CacheConfig {
    /// A fully-associative cache of `lines` lines.
    pub fn fully_associative(lines: usize) -> CacheConfig {
        CacheConfig {
            capacity_bytes: lines as u64 * crate::LINE_BYTES,
            line_bytes: crate::LINE_BYTES,
            ways: lines.max(1),
        }
    }

    /// Total number of lines.
    pub fn num_lines(&self) -> usize {
        (self.capacity_bytes / self.line_bytes) as usize
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        (self.num_lines() / self.ways).max(1)
    }
}

/// Result of a single access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent; if a valid line was displaced, `evicted_owner`
    /// names whose it was.
    Miss { evicted_owner: Option<usize> },
}

impl AccessOutcome {
    /// True for [`AccessOutcome::Miss`].
    pub fn is_miss(&self) -> bool {
        matches!(self, AccessOutcome::Miss { .. })
    }
}

/// Per-owner access statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct OwnerStats {
    /// Total accesses issued by this owner.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl OwnerStats {
    /// Miss ratio; 0 when no accesses were made.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    tag: Line,
    owner: usize,
    /// Logical timestamp of last touch; larger = more recent.
    last_used: u64,
}

/// A set-associative LRU cache shared by multiple owners.
///
/// Owners are dense small integers (application slots); `new` takes the
/// owner count so occupancy is tracked in a flat vector.
pub struct SetAssocCache {
    config: CacheConfig,
    sets: Vec<Vec<Entry>>,
    stats: Vec<OwnerStats>,
    occupancy: Vec<u64>,
    clock: u64,
}

impl SetAssocCache {
    /// Create an empty cache for `num_owners` co-located owners.
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (zero lines or ways).
    pub fn new(config: CacheConfig, num_owners: usize) -> SetAssocCache {
        assert!(config.ways > 0, "associativity must be positive");
        assert!(config.num_lines() > 0, "cache must hold at least one line");
        assert!(
            config.num_lines().is_multiple_of(config.ways),
            "lines ({}) must divide evenly into ways ({})",
            config.num_lines(),
            config.ways
        );
        let sets = vec![Vec::with_capacity(config.ways); config.num_sets()];
        SetAssocCache {
            config,
            sets,
            stats: vec![OwnerStats::default(); num_owners],
            occupancy: vec![0; num_owners],
            clock: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Access `line` on behalf of `owner`, updating LRU state and stats.
    pub fn access(&mut self, owner: usize, line: Line) -> AccessOutcome {
        self.clock += 1;
        let set_idx = (line % self.sets.len() as u64) as usize;
        let ways = self.config.ways;
        let set = &mut self.sets[set_idx];
        self.stats[owner].accesses += 1;

        if let Some(e) = set.iter_mut().find(|e| e.tag == line) {
            e.last_used = self.clock;
            self.stats[owner].hits += 1;
            return AccessOutcome::Hit;
        }

        self.stats[owner].misses += 1;
        let evicted_owner = if set.len() < ways {
            set.push(Entry {
                tag: line,
                owner,
                last_used: self.clock,
            });
            self.occupancy[owner] += 1;
            None
        } else {
            let victim = set
                .iter_mut()
                .min_by_key(|e| e.last_used)
                .expect("non-empty full set");
            let old_owner = victim.owner;
            self.occupancy[old_owner] -= 1;
            self.occupancy[owner] += 1;
            *victim = Entry {
                tag: line,
                owner,
                last_used: self.clock,
            };
            Some(old_owner)
        };
        AccessOutcome::Miss { evicted_owner }
    }

    /// Statistics for one owner.
    pub fn stats(&self, owner: usize) -> OwnerStats {
        self.stats[owner]
    }

    /// Lines currently held by `owner`.
    pub fn occupancy_lines(&self, owner: usize) -> u64 {
        self.occupancy[owner]
    }

    /// Fraction of total capacity currently held by `owner`.
    pub fn occupancy_fraction(&self, owner: usize) -> f64 {
        self.occupancy[owner] as f64 / self.config.num_lines() as f64
    }

    /// Total valid lines across all owners.
    pub fn total_occupied(&self) -> u64 {
        self.occupancy.iter().sum()
    }

    /// Reset statistics (not contents) — used to discard warm-up effects.
    pub fn reset_stats(&mut self) {
        for s in &mut self.stats {
            *s = OwnerStats::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(lines: usize, ways: usize, owners: usize) -> SetAssocCache {
        SetAssocCache::new(
            CacheConfig {
                capacity_bytes: lines as u64 * 64,
                line_bytes: 64,
                ways,
            },
            owners,
        )
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny(8, 2, 1);
        assert!(c.access(0, 100).is_miss());
        assert_eq!(c.access(0, 100), AccessOutcome::Hit);
        assert_eq!(
            c.stats(0),
            OwnerStats {
                accesses: 2,
                hits: 1,
                misses: 1
            }
        );
    }

    #[test]
    fn lru_evicts_least_recent_within_set() {
        // Fully associative, 2 lines.
        let mut c = tiny(2, 2, 1);
        c.access(0, 1);
        c.access(0, 2);
        c.access(0, 1); // 1 is now MRU, 2 is LRU
        c.access(0, 3); // evicts 2
        assert_eq!(c.access(0, 1), AccessOutcome::Hit);
        assert!(c.access(0, 2).is_miss());
    }

    #[test]
    fn set_conflicts_cause_misses_despite_spare_capacity() {
        // 4 lines, direct-mapped (1 way, 4 sets). Lines 0 and 4 conflict.
        let mut c = tiny(4, 1, 1);
        c.access(0, 0);
        c.access(0, 4);
        assert!(c.access(0, 0).is_miss(), "conflict miss expected");
        // Lines 0 and 4 both map to set 0, so only one line is ever resident.
        assert_eq!(c.total_occupied(), 1);
    }

    #[test]
    fn shared_cache_tracks_owner_occupancy() {
        let mut c = tiny(4, 4, 2);
        c.access(0, 1);
        c.access(0, 2);
        c.access(1, 3);
        c.access(1, 4);
        assert_eq!(c.occupancy_lines(0), 2);
        assert_eq!(c.occupancy_lines(1), 2);
        assert!((c.occupancy_fraction(0) - 0.5).abs() < 1e-12);
        // Owner 1 streams through, stealing owner 0's lines.
        for line in 10..14 {
            c.access(1, line);
        }
        assert_eq!(c.occupancy_lines(0) + c.occupancy_lines(1), 4);
        assert!(c.occupancy_lines(1) > c.occupancy_lines(0));
    }

    #[test]
    fn eviction_reports_previous_owner() {
        let mut c = tiny(1, 1, 2);
        c.access(0, 7);
        match c.access(1, 8) {
            AccessOutcome::Miss { evicted_owner } => assert_eq!(evicted_owner, Some(0)),
            other => panic!("expected miss, got {other:?}"),
        }
    }

    #[test]
    fn hot_working_set_within_capacity_never_misses_after_warmup() {
        let mut c = tiny(64, 8, 1);
        let ws: Vec<Line> = (0..32).collect();
        for &l in &ws {
            c.access(0, l);
        }
        c.reset_stats();
        for _ in 0..10 {
            for &l in &ws {
                assert_eq!(c.access(0, l), AccessOutcome::Hit);
            }
        }
        assert_eq!(c.stats(0).miss_rate(), 0.0);
    }

    #[test]
    fn working_set_exceeding_capacity_thrashes_under_lru() {
        // Classic LRU pathology: cyclic access to capacity+1 lines in a
        // fully-associative cache misses every time.
        let mut c = tiny(8, 8, 1);
        for _ in 0..5 {
            for l in 0..9u64 {
                c.access(0, l);
            }
        }
        let s = c.stats(0);
        assert_eq!(s.hits, 0, "{s:?}");
    }

    #[test]
    fn reset_stats_preserves_contents() {
        let mut c = tiny(4, 4, 1);
        c.access(0, 1);
        c.reset_stats();
        assert_eq!(c.stats(0).accesses, 0);
        assert_eq!(c.access(0, 1), AccessOutcome::Hit);
    }

    #[test]
    #[should_panic(expected = "associativity")]
    fn zero_ways_panics() {
        tiny(4, 0, 1);
    }

    #[test]
    fn geometry_accessors() {
        let cfg = CacheConfig {
            capacity_bytes: 12 << 20,
            line_bytes: 64,
            ways: 16,
        };
        assert_eq!(cfg.num_lines(), 196_608);
        assert_eq!(cfg.num_sets(), 12_288);
        let fa = CacheConfig::fully_associative(128);
        assert_eq!(fa.num_sets(), 1);
    }
}
