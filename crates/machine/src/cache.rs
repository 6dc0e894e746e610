//! Memoizing run cache — sharded for concurrent sweeps and services.
//!
//! Sweeps re-run identical `(machine, workload, RunOptions)` triples
//! constantly: every scenario in a training plan re-measures the same
//! baselines, ablations re-execute the shared arm, and repeated
//! validation drives the same scenarios again. A run is a pure function
//! of its inputs, so [`RunCache`] memoizes [`Machine::run_observed`]
//! behind a canonical 128-bit digest of everything the engine reads: the
//! machine spec (cores, LLC geometry, P-state table, DRAM parameters),
//! the full workload (group counts, per-phase locality distributions down
//! to their CDF tables, access rates, CPIs, MLP), the run options
//! (P-state, noise seed and σ, segment cap, partitioning flag, budget),
//! the fault plan and the event schedules. The digest is
//! [`crate::ScenarioIr::digest`] of the same scenario, bit for bit.
//!
//! The cache has one run path, [`RunCache::run_scheduled_observed`], one
//! key function, [`RunCache::key_for_scheduled`], and one probe,
//! [`RunCache::peek`].
//!
//! A hit returns a shared [`Arc`] handle to the stored [`RunOutcome`] —
//! bit-identical to what the engine produced, including applied noise,
//! because the noise seed is part of the key. Sharing instead of deep
//! cloning matters on the hit path: an outcome owns per-group counter and
//! telemetry vectors, and memoized sweeps hit thousands of times.
//!
//! ## Sharding
//!
//! The map is split into `shards` independently locked segments, selected
//! by the low bits of the scenario digest (FNV-1a/128 mixes its inputs
//! thoroughly, so low bits spread well). A work-stealing sweep or a
//! high-concurrency prediction service therefore never serializes on one
//! global mutex: two lookups collide only when their keys land in the
//! same shard. Each shard is bounded at `capacity / shards` entries and
//! evicts least-recently-used (a hit refreshes recency; with no
//! intervening hits this degenerates to insertion order, the previous
//! FIFO behavior). Each shard counts its own hits, misses and evictions
//! under the lock every request already holds, so a request touches no
//! cache-wide counter; [`RunCache::stats`] sums the shards, which gives
//! exactly what the single-mutex cache reported, and
//! `SweepStats`/`repro` artifacts are unchanged.

use crate::engine::{GroupView, Machine, RunOptions, RunOutcome, StageProfile};
use crate::event::GroupSchedule;
use crate::faults::FaultPlan;
use crate::ir;
use crate::Result;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Counter snapshot for telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the engine.
    pub misses: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
    /// Entries currently resident (summed across shards).
    pub len: usize,
}

/// One independently locked cache segment: a key→outcome map whose
/// entries carry their recency stamp, and the shard's share of the
/// cache's counters. Recency is a per-shard logical clock: every touch
/// stamps the entry, and eviction scans the shard for the minimum stamp.
/// Stamps are unique per shard, so the victim is exactly the
/// least-recently-used entry. The scan is `O(n)` in the shard's entries
/// (at most 512 at the default capacity) and runs only at the bound; a
/// hit writes one stamp and no index.
struct Shard {
    /// key → (outcome, recency stamp).
    map: HashMap<u128, (Arc<RunOutcome>, u64)>,
    /// Next recency stamp.
    clock: u64,
    /// Lookups in this shard answered from it.
    hits: u64,
    /// Lookups in this shard that fell through to the engine.
    misses: u64,
    /// Entries this shard displaced at its bound.
    evictions: u64,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            map: HashMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look up `key`, refreshing its recency and counting a hit when it
    /// is resident.
    fn get(&mut self, key: u128) -> Option<Arc<RunOutcome>> {
        let clock = &mut self.clock;
        let hit = self.map.get_mut(&key).map(|(outcome, stamp)| {
            *stamp = *clock;
            *clock += 1;
            Arc::clone(outcome)
        });
        if hit.is_some() {
            self.hits += 1;
        }
        hit
    }

    /// Insert `key` if vacant, then evict down to `capacity`, counting
    /// every eviction.
    fn insert_bounded(&mut self, key: u128, outcome: Arc<RunOutcome>, capacity: usize) {
        if let Entry::Vacant(slot) = self.map.entry(key) {
            slot.insert((outcome, self.clock));
            self.clock += 1;
        }
        while self.map.len() > capacity {
            let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(&victim, _)| victim)
            else {
                break;
            };
            self.map.remove(&victim);
            self.evictions += 1;
        }
    }
}

/// A bounded, thread-safe, sharded memo table over
/// [`Machine::run_observed`].
pub struct RunCache {
    /// Per-shard entry bound (total capacity / shard count).
    shard_capacity: usize,
    shards: Vec<Mutex<Shard>>,
    /// Bit mask selecting a shard from a digest (shard count is a power
    /// of two).
    shard_mask: usize,
}

/// Default capacity: comfortably holds a full paper-shape sweep
/// (6 × 11 × 4 × 11 = 2904 scenarios) plus baselines.
pub const DEFAULT_RUN_CACHE_CAPACITY: usize = 8192;

/// Default shard count: enough that a machine-sized worker pool rarely
/// collides, cheap enough that a single-threaded sweep never notices.
pub const DEFAULT_RUN_CACHE_SHARDS: usize = 16;

impl Default for RunCache {
    fn default() -> RunCache {
        RunCache::new(DEFAULT_RUN_CACHE_CAPACITY)
    }
}

impl RunCache {
    /// Create a cache holding at most `capacity` outcomes across
    /// [`DEFAULT_RUN_CACHE_SHARDS`] shards.
    pub fn new(capacity: usize) -> RunCache {
        RunCache::with_shards(capacity, DEFAULT_RUN_CACHE_SHARDS)
    }

    /// Create a cache holding at most `capacity` outcomes across `shards`
    /// independently locked segments. The shard count is rounded up to a
    /// power of two (min 1); each shard is bounded at `capacity / shards`
    /// entries (min 1), so the aggregate bound is `capacity` rounded up
    /// to a multiple of the shard count. `with_shards(cap, 1)` reproduces
    /// the single-mutex cache exactly: one map, one lock, one LRU order.
    pub fn with_shards(capacity: usize, shards: usize) -> RunCache {
        let shards = shards.clamp(1, 1 << 16).next_power_of_two();
        let shard_capacity = capacity.max(1).div_ceil(shards).max(1);
        RunCache {
            shard_capacity,
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            shard_mask: shards - 1,
        }
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard entry bound.
    pub fn shard_capacity(&self) -> usize {
        self.shard_capacity
    }

    /// Lock the shard `key` lives in.
    fn shard_for(&self, key: u128) -> std::sync::MutexGuard<'_, Shard> {
        self.shards[(key as usize) & self.shard_mask]
            .lock()
            .expect("run cache poisoned")
    }

    /// Whether `key` is resident, refreshing its recency (and counting a
    /// hit) when it is. Lets callers probe for memoized outcomes without
    /// triggering a simulation — the degraded path of an overloaded
    /// prediction service.
    pub fn peek(&self, key: u128) -> Option<Arc<RunOutcome>> {
        self.shard_for(key).get(key)
    }

    /// The memo key this cache uses for a scenario: the encoding behind
    /// [`crate::ScenarioIr::digest`] of the same inputs, so the same bits.
    /// Each locality table it absorbs through its table block's digest
    /// slots, shared by every clone of that table, and each group that
    /// carries slots for its application ([`crate::GroupRef::slots`])
    /// absorbs its whole application block through them. All-default (or
    /// absent) schedules key like no schedules, and a no-op fault plan
    /// like no plan.
    pub fn key_for_scheduled<G: GroupView>(
        &self,
        machine: &Machine,
        workload: &[G],
        opts: &RunOptions,
        faults: Option<&FaultPlan>,
        schedules: Option<&[GroupSchedule]>,
    ) -> u128 {
        let mut d = machine.spec_prefix().clone();
        ir::encode_run(&mut d, workload, opts, faults, schedules);
        d.finish()
    }

    /// The one memoized run path: run `workload` on `machine` under
    /// optional event schedules and fault plan, returning the memoized
    /// outcome when this exact scenario has run before, plus whether it
    /// was a hit (`true`) or a fresh simulation (`false`). Errors are
    /// never cached (they are cheap to recompute and carry no simulation
    /// work).
    ///
    /// Faults are applied exactly once, on the miss path, streamed by
    /// `opts.seed` — so a hit replays the identical faulted outcome, and
    /// the plan is part of the memo key (a clean request never sees a
    /// faulted entry). Stage costs accrue into `profile` only on the miss
    /// path — a hit does no simulation work, so there is nothing to time.
    pub fn run_scheduled_observed<G: GroupView>(
        &self,
        machine: &Machine,
        workload: &[G],
        schedules: Option<&[GroupSchedule]>,
        opts: &RunOptions,
        faults: Option<&FaultPlan>,
        profile: Option<&mut StageProfile>,
    ) -> Result<(Arc<RunOutcome>, bool)> {
        let key = self.key_for_scheduled(machine, workload, opts, faults, schedules);
        {
            let mut shard = self.shard_for(key);
            if let Some(hit) = shard.get(key) {
                return Ok((hit, true));
            }
            shard.misses += 1;
        }
        // The engine runs outside the lock: concurrent misses on the same
        // key may both simulate, but they produce identical outcomes, so
        // the race is benign and the sweep never serializes on the cache.
        let mut outcome = machine.run_observed(workload, schedules, opts, profile, None)?;
        if let Some(plan) = faults {
            plan.apply(opts.seed, &mut outcome);
        }
        let outcome = Arc::new(outcome);
        self.shard_for(key)
            .insert_bounded(key, Arc::clone(&outcome), self.shard_capacity);
        Ok((outcome, false))
    }

    /// Drop all entries; counters keep accumulating.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("run cache poisoned").map.clear();
        }
    }

    /// Snapshot the hit/miss/eviction counters and current size, summed
    /// over the shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let s = shard.lock().expect("run cache poisoned");
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.len += s.map.len();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{AppPhase, AppProfile};
    use crate::engine::RunnerGroup;
    use crate::presets;
    use crate::ScenarioIr;
    use coloc_cachesim::StackDistanceDist;

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

    /// A lockstep, fault-free, unobserved run through the cache.
    fn run(cache: &RunCache, m: &Machine, span: usize, opts: &RunOptions) -> Arc<RunOutcome> {
        cache
            .run_scheduled_observed(m, &wl(span), None, opts, None, None)
            .unwrap()
            .0
    }

    /// The cache key of a lockstep scenario, checked against the
    /// [`ScenarioIr::digest`] of the same inputs.
    fn key(m: &Machine, span: usize, opts: RunOptions, faults: Option<FaultPlan>) -> u128 {
        let workload = wl(span);
        let key = RunCache::new(8).key_for_scheduled(m, &workload, &opts, faults.as_ref(), None);
        let mut ir = ScenarioIr::new(m.spec().clone(), workload, opts);
        ir.faults = faults;
        assert_eq!(key, ir.digest(), "cache key and IR digest disagree");
        key
    }

    #[test]
    fn hit_is_bit_identical_to_engine_output() {
        let m = Machine::new(presets::xeon_e5649()).unwrap();
        let cache = RunCache::new(64);
        let opts = RunOptions {
            noise_sigma: 0.008,
            seed: 3,
            ..Default::default()
        };
        let direct = m.run(&wl(800_000), &opts).unwrap();
        let miss = run(&cache, &m, 800_000, &opts);
        let hit = run(&cache, &m, 800_000, &opts);
        assert_eq!(miss.digest(), direct.digest());
        assert_eq!(hit.digest(), direct.digest());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.len), (1, 1, 1));
    }

    #[test]
    fn scheduled_keys_compose_with_the_lockstep_key_space() {
        let m = Machine::new(presets::xeon_e5649()).unwrap();
        let cache = RunCache::new(64);
        let opts = RunOptions::default();
        let workload = wl(800_000);
        let plain = cache.key_for_scheduled(&m, &workload, &opts, None, None);

        // All-default schedules key identically to lockstep: pre-event
        // cache entries stay addressable.
        let defaults = vec![GroupSchedule::default(); workload.len()];
        assert_eq!(
            plain,
            cache.key_for_scheduled(&m, &workload, &opts, None, Some(&defaults))
        );

        // Any non-default field keys apart — and each field is its own
        // axis of the key space.
        let mut offset = defaults.clone();
        offset[1].phase_offset = 0.25;
        let mut window = defaults.clone();
        window[1].departure_tick = Some(0.125);
        let mut clock = defaults.clone();
        clock[1].clock_ratio = 1.25;
        let keys: Vec<u128> = [&offset, &window, &clock]
            .iter()
            .map(|s| cache.key_for_scheduled(&m, &workload, &opts, None, Some(s)))
            .collect();
        for (i, &k) in keys.iter().enumerate() {
            assert_ne!(plain, k, "schedule variant {i} collides with lockstep");
            for &other in &keys[i + 1..] {
                assert_ne!(k, other, "schedule variants collide with each other");
            }
        }

        // And the cache actually serves a scheduled hit.
        let (cold, was_hit) = cache
            .run_scheduled_observed(&m, &workload, Some(&window), &opts, None, None)
            .unwrap();
        assert!(!was_hit);
        let (warm, was_hit) = cache
            .run_scheduled_observed(&m, &workload, Some(&window), &opts, None, None)
            .unwrap();
        assert!(was_hit);
        assert_eq!(cold.wall_time_s.to_bits(), warm.wall_time_s.to_bits());
    }

    #[test]
    fn distinct_inputs_key_apart() {
        let m = Machine::new(presets::xeon_e5649()).unwrap();
        let base = RunOptions::default();
        let k0 = key(&m, 800_000, base, None);
        assert_eq!(k0, key(&m, 800_000, base, None), "key is stable");
        assert_ne!(k0, key(&m, 400_000, base, None), "workload matters");
        let variants = [
            (RunOptions { pstate: 2, ..base }, "pstate matters"),
            (RunOptions { seed: 1, ..base }, "noise seed matters"),
            (
                RunOptions {
                    noise_sigma: 0.01,
                    ..base
                },
                "noise sigma matters",
            ),
            (
                RunOptions {
                    llc_partitioned: true,
                    ..base
                },
                "partitioning matters",
            ),
        ];
        for (opts, why) in variants {
            assert_ne!(k0, key(&m, 800_000, opts, None), "{why}");
        }
        let m12 = Machine::new(presets::xeon_e5_2697v2()).unwrap();
        assert_ne!(k0, key(&m12, 800_000, base, None), "machine matters");
    }

    #[test]
    fn fault_plan_changes_the_digest() {
        let m = Machine::new(presets::xeon_e5649()).unwrap();
        let opts = RunOptions::default();
        let clean = key(&m, 800_000, opts, None);
        assert_eq!(
            clean,
            key(&m, 800_000, opts, Some(FaultPlan::default())),
            "a no-op plan keys like no plan"
        );
        let keyed = key(&m, 800_000, opts, Some(FaultPlan::light(3)));
        assert_ne!(clean, keyed, "an active plan must key apart from clean");
        assert_ne!(
            keyed,
            key(&m, 800_000, opts, Some(FaultPlan::light(4))),
            "plan seed matters"
        );
        assert_ne!(
            keyed,
            key(&m, 800_000, opts, Some(FaultPlan::heavy(3))),
            "plan rates matter"
        );
        assert_ne!(
            clean,
            key(
                &m,
                800_000,
                RunOptions {
                    fp_budget: 100,
                    ..opts
                },
                None
            ),
            "fp budget matters"
        );
    }

    #[test]
    fn changing_the_plan_invalidates_memoized_outcomes() {
        let m = Machine::new(presets::xeon_e5649()).unwrap();
        let cache = RunCache::new(64);
        let opts = RunOptions {
            seed: 11,
            ..Default::default()
        };
        // Nail a plan whose nan fault always fires so the faulted outcome
        // is unmistakable.
        let plan = FaultPlan {
            seed: 5,
            nan_reading_rate: 1.0,
            ..Default::default()
        };
        let run = |faults: Option<&FaultPlan>| {
            cache
                .run_scheduled_observed(&m, &wl(800_000), None, &opts, faults, None)
                .unwrap()
        };
        let (clean, hit) = run(None);
        assert!(!hit);
        assert!(clean.wall_time_s.is_finite());
        // Same scenario under the plan: a fresh miss, faulted outcome.
        let (faulted, hit) = run(Some(&plan));
        assert!(!hit, "plan change must miss, not reuse the clean entry");
        assert!(faulted.wall_time_s.is_nan());
        assert_eq!(faulted.faults.len(), 1);
        // Replay under the plan: a hit, bit-identical faulted outcome.
        let (replay, hit) = run(Some(&plan));
        assert!(hit);
        assert_eq!(replay.wall_time_s.to_bits(), faulted.wall_time_s.to_bits());
        assert_eq!(replay.faults, faulted.faults);
        // And the clean entry is still intact.
        let (clean2, hit) = run(None);
        assert!(hit);
        assert_eq!(clean2.wall_time_s.to_bits(), clean.wall_time_s.to_bits());
        assert!(clean2.faults.is_empty());
    }

    #[test]
    fn capacity_bound_evicts_in_recency_order() {
        let m = Machine::new(presets::xeon_e5649()).unwrap();
        // One shard: globally ordered eviction, like the old FIFO cache.
        let cache = RunCache::with_shards(2, 1);
        let opts = RunOptions::default();
        for span in [100_000, 200_000, 300_000] {
            run(&cache, &m, span, &opts);
        }
        let s = cache.stats();
        assert_eq!(s.misses, 3);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.len, 2);
        // Oldest entry is gone: running it again is a miss...
        run(&cache, &m, 100_000, &opts);
        assert_eq!(cache.stats().misses, 4);
        // ...while the newest survives as a hit until displaced.
        run(&cache, &m, 300_000, &opts);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn lru_hit_refreshes_recency() {
        let m = Machine::new(presets::xeon_e5649()).unwrap();
        let cache = RunCache::with_shards(2, 1);
        let opts = RunOptions::default();
        run(&cache, &m, 100_000, &opts);
        run(&cache, &m, 200_000, &opts);
        // Touch the older entry, then insert a third: the *untouched*
        // middle entry is now least recent and gets displaced.
        run(&cache, &m, 100_000, &opts);
        run(&cache, &m, 300_000, &opts);
        assert_eq!(cache.stats().evictions, 1);
        let before = cache.stats().hits;
        run(&cache, &m, 100_000, &opts);
        assert_eq!(cache.stats().hits, before + 1, "touched entry survived");
        run(&cache, &m, 200_000, &opts);
        assert_eq!(cache.stats().misses, 4, "untouched entry was evicted");
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn sharded_cache_respects_aggregate_semantics() {
        let m = Machine::new(presets::xeon_e5649()).unwrap();
        let cache = RunCache::with_shards(64, 8);
        assert_eq!(cache.shard_count(), 8);
        assert_eq!(cache.shard_capacity(), 8);
        let opts = RunOptions::default();
        let spans = [100_000usize, 150_000, 200_000, 250_000, 300_000];
        for &span in &spans {
            run(&cache, &m, span, &opts);
        }
        for &span in &spans {
            run(&cache, &m, span, &opts);
        }
        let s = cache.stats();
        assert_eq!(s.misses, spans.len() as u64);
        assert_eq!(s.hits, spans.len() as u64);
        assert_eq!(s.len, spans.len());
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn peek_probes_without_running() {
        let m = Machine::new(presets::xeon_e5649()).unwrap();
        let cache = RunCache::new(64);
        let opts = RunOptions::default();
        let key = cache.key_for_scheduled(&m, &wl(100_000), &opts, None, None);
        assert!(cache.peek(key).is_none());
        assert_eq!(cache.stats().misses, 0, "peek never simulates");
        let direct = run(&cache, &m, 100_000, &opts);
        let peeked = cache.peek(key).expect("resident after run");
        assert_eq!(peeked.wall_time_s.to_bits(), direct.wall_time_s.to_bits());
        assert_eq!(cache.stats().hits, 1, "a successful peek counts as a hit");
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let m = Machine::new(presets::xeon_e5649()).unwrap();
        let cache = RunCache::new(8);
        run(&cache, &m, 100_000, &RunOptions::default());
        cache.clear();
        let s = cache.stats();
        assert_eq!(s.len, 0);
        assert_eq!(s.misses, 1);
    }
}
