//! Concurrency and compatibility properties of the sharded [`RunCache`].
//!
//! Two contracts pinned here, from the service PR that sharded the
//! cache:
//!
//! * **Concurrent soundness** — under an 8-thread storm of overlapping
//!   lookups, the aggregate counters stay consistent (`hits + misses`
//!   equals the exact number of lookups), every returned outcome is
//!   bit-identical to a direct engine run (no lost or torn insertions),
//!   and the per-shard LRU bound holds throughout.
//! * **Single-shard compatibility** — `with_shards(cap, 1)` reproduces
//!   the pre-sharding single-mutex cache exactly on a pinned access
//!   plan: one map, one lock, one global eviction order. The old cache
//!   evicted in insertion (FIFO) order and never promoted on hit, which
//!   LRU reproduces verbatim on any hit-free plan; the hit-bearing plan
//!   below pins the one intentional divergence (promote-on-hit) against
//!   an explicit model so the semantics can never drift silently.

use coloc_machine::cachesim::StackDistanceDist;
use coloc_machine::{presets, AppPhase, AppProfile, Machine, RunCache, RunOptions, RunnerGroup};
use std::collections::VecDeque;

fn app(name: &str, span: usize) -> AppProfile {
    AppProfile::single_phase(
        name,
        30e9,
        AppPhase {
            weight: 1.0,
            dist: StackDistanceDist::power_law(span, 0.35, 0.02),
            accesses_per_instr: 0.03,
            cpi_base: 0.9,
            mlp: 4.0,
        },
    )
}

fn wl(span: usize) -> Vec<RunnerGroup> {
    vec![
        RunnerGroup::solo(app("t", span)),
        RunnerGroup {
            app: app("c", span / 2),
            count: 2,
        },
    ]
}

/// Eight threads hammer a cache whose capacity is far below the working
/// set, with heavily overlapping keys. Everything observable must stay
/// exact.
#[test]
fn eight_thread_storm_keeps_counters_and_outcomes_exact() {
    let machine = Machine::new(presets::xeon_e5649()).unwrap();
    let opts = RunOptions::default();

    // 12 distinct scenarios, capacity 8 across 4 shards: misses, hits
    // and evictions all occur concurrently.
    let spans: Vec<usize> = (0..12).map(|i| 100_000 + 20_000 * i).collect();
    let workloads: Vec<Vec<RunnerGroup>> = spans.iter().map(|&s| wl(s)).collect();

    // Ground truth, computed single-threaded outside the cache.
    let direct: Vec<u64> = workloads
        .iter()
        .map(|w| machine.run(w, &opts).unwrap().wall_time_s.to_bits())
        .collect();

    let cache = RunCache::with_shards(8, 4);
    assert_eq!(cache.shard_count(), 4);
    assert_eq!(cache.shard_capacity(), 2);

    const THREADS: usize = 8;
    const PASSES: usize = 4;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let cache = &cache;
                let machine = &machine;
                let workloads = &workloads;
                let direct = &direct;
                let opts = &opts;
                scope.spawn(move || {
                    // Each thread walks the working set from a different
                    // offset so shard locks genuinely interleave.
                    for pass in 0..PASSES {
                        for i in 0..workloads.len() {
                            let k = (i + t * 5 + pass) % workloads.len();
                            let (out, _) = cache
                                .run_scheduled_observed(
                                    machine,
                                    &workloads[k],
                                    None,
                                    opts,
                                    None,
                                    None,
                                )
                                .unwrap();
                            assert_eq!(
                                out.wall_time_s.to_bits(),
                                direct[k],
                                "thread {t} got a wrong outcome for workload {k}"
                            );
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });

    let s = cache.stats();
    let lookups = (THREADS * PASSES * workloads.len()) as u64;
    // Counter conservation: every lookup was exactly a hit or a miss.
    assert_eq!(s.hits + s.misses, lookups, "{s:?}");
    // The working set exceeds capacity, so both paths were exercised.
    assert!(s.hits > 0, "{s:?}");
    assert!(s.misses >= workloads.len() as u64, "{s:?}");
    // Conservation of entries: inserted = resident + evicted. (Every
    // miss inserts; concurrent same-key misses insert-if-vacant, so
    // misses can exceed insertions — never the reverse.)
    assert!(s.len as u64 + s.evictions <= s.misses, "{s:?}");
    // Per-shard LRU bound: 4 shards × 2 entries.
    assert!(s.len <= 8, "{s:?}");

    // No lost insertions: after a full quiet pass, every scenario is
    // answerable and still bit-exact.
    for (k, w) in workloads.iter().enumerate() {
        let (out, _) = cache
            .run_scheduled_observed(&machine, w, None, &opts, None, None)
            .unwrap();
        assert_eq!(out.wall_time_s.to_bits(), direct[k]);
    }
}

/// Reference model of the cache's replacement policy: a capacity-bound
/// map with a recency queue. `promote_on_hit = false` models the
/// pre-sharding FIFO cache; `true` models the sharded LRU.
struct ModelCache {
    capacity: usize,
    promote_on_hit: bool,
    order: VecDeque<u128>,
}

impl ModelCache {
    /// Apply one access; returns `(hit, evicted_key)`.
    fn access(&mut self, key: u128) -> (bool, Option<u128>) {
        if self.order.contains(&key) {
            if self.promote_on_hit {
                self.order.retain(|&k| k != key);
                self.order.push_back(key);
            }
            return (true, None);
        }
        self.order.push_back(key);
        let evicted = if self.order.len() > self.capacity {
            self.order.pop_front()
        } else {
            None
        };
        (false, evicted)
    }
}

/// Drive `cache` and the model through the same pinned access plan and
/// assert they agree access-by-access: same hit/miss, same residency
/// after every step (checked via counter deltas, which observe the
/// internal state without re-running anything).
fn assert_matches_model(cache: &RunCache, model: &mut ModelCache, plan: &[usize]) {
    let machine = Machine::new(presets::xeon_e5649()).unwrap();
    let opts = RunOptions::default();
    for (step, &span) in plan.iter().enumerate() {
        let w = wl(span);
        let key = cache.key_for_scheduled(&machine, &w, &opts, None, None);
        let before = cache.stats();
        let (out, was_hit) = cache
            .run_scheduled_observed(&machine, &w, None, &opts, None, None)
            .unwrap();
        assert!(out.wall_time_s.is_finite());
        let after = cache.stats();
        let (model_hit, model_evicted) = model.access(key);
        assert_eq!(
            was_hit, model_hit,
            "step {step} (span {span}): cache and model disagree on hit/miss"
        );
        assert_eq!(
            after.evictions - before.evictions,
            u64::from(model_evicted.is_some()),
            "step {step} (span {span}): eviction behavior diverged"
        );
        assert_eq!(
            after.len,
            model.order.len(),
            "step {step}: residency diverged"
        );
    }
}

/// On a hit-free plan, promote-on-hit never fires, so the sharded LRU
/// at shard count 1 must walk the exact eviction sequence the old FIFO
/// single-mutex cache walked.
#[test]
fn single_shard_reproduces_fifo_eviction_order_on_hit_free_plan() {
    // 6 distinct scenarios through a 3-entry, 1-shard cache; every
    // access is a first sight, twice over (the second round re-misses
    // everything the first round evicted).
    let plan: Vec<usize> = vec![
        100_000, 140_000, 180_000, 220_000, 260_000, 300_000, // fill + evict
        100_000, 140_000, 180_000, // all evicted by now: miss again
    ];
    let cache = RunCache::with_shards(3, 1);
    assert_eq!(cache.shard_count(), 1);
    let mut fifo = ModelCache {
        capacity: 3,
        promote_on_hit: false,
        order: VecDeque::new(),
    };
    assert_matches_model(&cache, &mut fifo, &plan);
    let s = cache.stats();
    assert_eq!(s.hits, 0, "the plan is hit-free by construction");
    assert_eq!(s.misses, plan.len() as u64);

    // The same plan against an LRU model also matches — with no hits
    // the two policies are indistinguishable, which is exactly why the
    // sharded cache is a drop-in for the old one on miss-dominated
    // sweeps.
    let cache2 = RunCache::with_shards(3, 1);
    let mut lru = ModelCache {
        capacity: 3,
        promote_on_hit: true,
        order: VecDeque::new(),
    };
    assert_matches_model(&cache2, &mut lru, &plan);
}

/// A hit-bearing pinned plan, checked against the LRU model: documents
/// the one intentional behavior change vs the old FIFO cache
/// (promote-on-hit) precisely, so future edits cannot drift it.
#[test]
fn single_shard_follows_lru_model_on_hit_bearing_plan() {
    let plan: Vec<usize> = vec![
        100_000, 140_000, 180_000, // fill (cap 3)
        100_000, // hit: promotes the oldest entry
        220_000, // insert: evicts 140k (not the promoted 100k)
        140_000, // miss again — FIFO would have kept it and hit
        100_000, // still resident: hit
    ];
    let cache = RunCache::with_shards(3, 1);
    let mut lru = ModelCache {
        capacity: 3,
        promote_on_hit: true,
        order: VecDeque::new(),
    };
    assert_matches_model(&cache, &mut lru, &plan);
    let s = cache.stats();
    assert_eq!((s.hits, s.misses, s.evictions), (2, 5, 2), "{s:?}");
}
