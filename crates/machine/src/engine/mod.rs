//! The co-execution engine.
//!
//! A run places a *target* application (group 0) and zero or more groups
//! of identical co-runners on the machine's cores and advances them
//! through piecewise-constant *segments*. Within a segment every
//! application's behaviour is stationary, so the coupled contention state —
//! LLC occupancy split, per-app miss rate, DRAM latency at the aggregate
//! miss bandwidth, and effective CPI — is a fixed point, found by damped
//! iteration (interleaving [`coloc_cachesim::occupancy_step`] with CPI/DRAM
//! updates). A segment ends when any application crosses a phase boundary,
//! a co-runner finishes (and restarts, keeping contention pressure constant
//! — the standard co-location measurement methodology), or the target
//! completes, which ends the run.
//!
//! The circular dependency the fixed point resolves is physical: an app's
//! access *rate* depends on its CPI, its CPI depends on memory latency and
//! its miss rate, its miss rate depends on its LLC share, and its LLC share
//! depends on everyone's access rates.
//!
//! Structurally, the per-segment work is a staged pipeline: five stage
//! functions in `stages.rs` for governor/P-state application, phase
//! sync, LLC share solving, DRAM latency/fixed-point convergence, and
//! counter accrual, called in order by one thin driver. The driver has
//! three entry points: [`Machine::run`] (lockstep,
//! unobserved), [`Machine::run_solo`] (the borrowed baseline run) and
//! [`Machine::run_observed`], which adds optional event schedules and
//! can time each stage into a [`StageProfile`] and record per-segment
//! history into a [`SegmentTrace`], either or both, at zero cost to
//! plain runs.

mod scratch;
mod stages;

use stages::{EpochState, SegmentEnv};
pub use stages::{SegmentRecord, SegmentTrace, StageId, StageProfile, StageStats};

use crate::app::AppProfile;
use crate::event::{self, Event, EventKind, GroupSchedule};
use crate::faults::FaultEvent;
use crate::ir::IrWriter;
use crate::spec::MachineSpec;
use crate::{MachineError, Result};
use coloc_cachesim::stream::DigestSlots;
use coloc_cachesim::MissRateCurve;
use coloc_memsys::MemorySystem;
use rand::Rng as _;
use rand::SeedableRng as _;

/// A group of `count` identical co-located application instances. Instances
/// in a group start together and advance in lockstep.
#[derive(Clone, Debug)]
pub struct RunnerGroup {
    /// Profile shared by every instance in the group.
    pub app: AppProfile,
    /// Number of instances (one core each).
    pub count: usize,
}

impl RunnerGroup {
    /// A single-instance group.
    pub fn solo(app: AppProfile) -> RunnerGroup {
        RunnerGroup { app, count: 1 }
    }
}

/// A borrowed view of one workload group — the engine's internal workload
/// representation. [`Machine::run_observed`] lowers any [`GroupView`]
/// slice to a slice of these (a pointer-sized copy per group), and
/// [`Machine::run_solo`] builds one directly from the borrowed profile, so
/// the per-query baseline measurement never clones the [`AppProfile`] just
/// to run it.
///
/// A group may carry digest slots for its profile's whole canonical
/// encoding. The run-cache key then absorbs the profile as one
/// multiply-add once the slot for the writer's low byte is filled,
/// instead of byte by byte; the key's bits are the same either way. The
/// slots must belong to exactly this profile and be used for no other:
/// a lab keeps one set per suite application and never mutates its
/// suite. [`GroupRef::from_group`] and [`GroupRef::solo`] carry none.
#[derive(Clone, Copy, Debug)]
pub struct GroupRef<'a> {
    /// Profile shared by every instance in the group.
    pub app: &'a AppProfile,
    /// Number of instances (one core each).
    pub count: usize,
    /// Digest slots for `app`'s encoding, owned by whoever owns `app`;
    /// `None` absorbs the encoding byte by byte.
    pub slots: Option<&'a DigestSlots>,
}

impl<'a> GroupRef<'a> {
    /// Borrow a [`RunnerGroup`].
    pub fn from_group(g: &'a RunnerGroup) -> GroupRef<'a> {
        GroupRef {
            app: &g.app,
            count: g.count,
            slots: None,
        }
    }

    /// A single-instance group over a borrowed profile.
    pub fn solo(app: &'a AppProfile) -> GroupRef<'a> {
        GroupRef {
            app,
            count: 1,
            slots: None,
        }
    }
}

/// Anything that reads as one workload group: an owned [`RunnerGroup`]
/// or a borrowed [`GroupRef`]. The run and key paths
/// ([`Machine::run_observed`], [`crate::RunCache::key_for_scheduled`],
/// [`crate::RunCache::run_scheduled_observed`]) take a slice of either,
/// so a caller holding profiles elsewhere (a lab's suite) runs and keys
/// a scenario without cloning them into an owned workload.
pub trait GroupView {
    /// The group as a borrowed view.
    fn group(&self) -> GroupRef<'_>;
}

impl GroupView for RunnerGroup {
    fn group(&self) -> GroupRef<'_> {
        GroupRef::from_group(self)
    }
}

impl GroupView for GroupRef<'_> {
    fn group(&self) -> GroupRef<'_> {
        *self
    }
}

/// Per-instance hardware event counts accumulated over a run, as a
/// performance-counter reader would observe them. Values are `f64` because
/// segments advance in fractional quanta; round at the presentation layer.
#[derive(Clone, Copy, Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct CounterBlock {
    /// Instructions retired.
    pub instructions: f64,
    /// Core cycles elapsed.
    pub cycles: f64,
    /// LLC accesses issued.
    pub llc_accesses: f64,
    /// LLC misses suffered.
    pub llc_misses: f64,
    /// Completed runs (co-runners restart; the target completes exactly 1).
    pub completed_runs: u32,
}

impl CounterBlock {
    /// Memory intensity: LLC misses per instruction (paper §IV-A3).
    pub fn memory_intensity(&self) -> f64 {
        if self.instructions > 0.0 {
            self.llc_misses / self.instructions
        } else {
            0.0
        }
    }

    /// LLC misses per LLC access (the paper's CM/CA feature).
    pub fn miss_ratio(&self) -> f64 {
        if self.llc_accesses > 0.0 {
            self.llc_misses / self.llc_accesses
        } else {
            0.0
        }
    }

    /// LLC accesses per instruction (the paper's CA/INS feature).
    pub fn access_ratio(&self) -> f64 {
        if self.instructions > 0.0 {
            self.llc_accesses / self.instructions
        } else {
            0.0
        }
    }
}

/// Options for one run.
#[derive(Clone, Copy, Debug, serde::Serialize, serde::Deserialize)]
pub struct RunOptions {
    /// P-state index into the machine's frequency table (0 = fastest).
    pub pstate: usize,
    /// Seed for measurement noise (ignored when `noise_sigma == 0`).
    pub seed: u64,
    /// Relative σ of multiplicative lognormal noise on the measured wall
    /// time, modeling run-to-run variation (≈ 0.008 matches the tight
    /// intervals the paper reports; 0 = noiseless).
    pub noise_sigma: f64,
    /// Safety cap on segments (guards against degenerate profiles).
    pub max_segments: usize,
    /// Statically way-partition the LLC: every application instance gets an
    /// equal private slice instead of competing for occupancy. Isolates the
    /// cache-contention component of slowdown from the memory-bandwidth
    /// component (DRAM stays shared) — an ablation over the paper's premise
    /// that the *shared* LLC drives interference.
    pub llc_partitioned: bool,
    /// Budget on total fixed-point iterations across the whole run
    /// (0 = unlimited). Once exceeded, remaining segments solve under a
    /// small per-segment iteration cap and the outcome is marked
    /// [`Convergence::Degraded`] instead of spinning — the run always
    /// terminates with its residual reported.
    pub fp_budget: u64,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            pstate: 0,
            seed: 0,
            noise_sigma: 0.0,
            max_segments: 200_000,
            llc_partitioned: false,
            fp_budget: 0,
        }
    }
}

/// Whether every segment's fixed point converged to tolerance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Convergence {
    /// Every segment's fixed point converged to tolerance.
    Converged,
    /// Some segment's solve stopped above tolerance, for one of two
    /// causes. Either it reached the per-segment cap of 250 iterations,
    /// which happens when the solve repeats its state exactly and so
    /// can never converge; with no [`RunOptions::fp_budget`] (every
    /// sweep, serve and placement run) this is the only cause. Or the
    /// run exhausted its budget, and a later segment's truncated solve
    /// stopped short. The result is usable but approximate.
    Degraded {
        /// Total fixed-point iterations of the run, skipped cycle
        /// periods included; [`StageProfile`] counts the solver stage
        /// calls that actually ran.
        fp_iterations: u64,
        /// Worst relative CPI residual among the segments that stopped
        /// above tolerance.
        residual: f64,
    },
}

impl Convergence {
    /// True when some segment's solve stopped above tolerance, at the
    /// per-segment cap or under an exhausted budget.
    pub fn is_degraded(&self) -> bool {
        matches!(self, Convergence::Degraded { .. })
    }
}

/// Everything measured about one run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Wall-clock execution time of the target, seconds (noise applied).
    pub wall_time_s: f64,
    /// Per-group, per-instance counters (index matches the workload).
    pub counters: Vec<CounterBlock>,
    /// Segments simulated.
    pub segments: usize,
    /// Fixed-point solver iterations summed over all segments — the
    /// engine's unit of simulation work, surfaced for sweep telemetry.
    /// Counts the iterations each solve specifies, skipped cycle periods
    /// included; [`StageProfile`] counts the solver stage calls that
    /// actually ran.
    pub fp_iterations: u64,
    /// Average LLC share of each group's instances over the run, bytes
    /// (time-weighted).
    pub avg_llc_share_bytes: Vec<f64>,
    /// Time-average DRAM latency seen by the target's misses, ns.
    pub avg_mem_latency_ns: f64,
    /// Whether every segment's fixed point converged, or some segment
    /// stopped above tolerance at the iteration cap or under an exhausted
    /// [`RunOptions::fp_budget`].
    pub convergence: Convergence,
    /// Measurement faults injected into this outcome (empty for a clean
    /// engine run; populated by [`crate::FaultPlan::apply`]).
    pub faults: Vec<FaultEvent>,
}

impl RunOutcome {
    /// Digest of every field, floats by bit pattern: two outcomes are
    /// bit-identical exactly when their digests are equal (up to FNV
    /// collisions). The destructuring is exhaustive, so a new field fails
    /// to compile here until it is digested too. The bytes are pinned by
    /// `tests/fixtures/outcome_digests.txt`.
    pub fn digest(&self) -> u128 {
        let RunOutcome {
            wall_time_s,
            counters,
            segments,
            fp_iterations,
            avg_llc_share_bytes,
            avg_mem_latency_ns,
            convergence,
            faults,
        } = self;
        let mut w = IrWriter::new();
        w.f64(*wall_time_s);
        w.usize(counters.len());
        for c in counters {
            let CounterBlock {
                instructions,
                cycles,
                llc_accesses,
                llc_misses,
                completed_runs,
            } = c;
            w.f64(*instructions);
            w.f64(*cycles);
            w.f64(*llc_accesses);
            w.f64(*llc_misses);
            w.u64(u64::from(*completed_runs));
        }
        w.usize(*segments);
        w.u64(*fp_iterations);
        w.usize(avg_llc_share_bytes.len());
        for &share in avg_llc_share_bytes {
            w.f64(share);
        }
        w.f64(*avg_mem_latency_ns);
        match convergence {
            Convergence::Converged => w.byte(0),
            Convergence::Degraded {
                fp_iterations,
                residual,
            } => {
                w.byte(1);
                w.u64(*fp_iterations);
                w.f64(*residual);
            }
        }
        w.usize(faults.len());
        for FaultEvent { kind, group } in faults {
            w.str(kind.label());
            w.usize(*group);
        }
        w.finish()
    }
}

/// The simulator: a machine spec plus its memory system.
///
/// The miss-rate curve of each locality table is memoized in the table
/// itself ([`coloc_cachesim::StackDistanceDist::shared_curve`]), so every
/// machine and every thread running clones of one profile shares one
/// curve. The machine's one memo is the digest writer's state after
/// absorbing its spec, the prefix of every run-cache key on it; the
/// machine owns its spec immutably, so the prefix cannot go stale.
#[derive(Clone, Debug)]
pub struct Machine {
    spec: MachineSpec,
    mem: MemorySystem,
    spec_prefix: IrWriter,
}

/// Run `f`, attributing its wall time to `id` when a profile is attached.
/// The un-instrumented path never reads a clock.
fn timed<T>(profile: &mut Option<&mut StageProfile>, id: StageId, f: impl FnOnce() -> T) -> T {
    if let Some(p) = profile {
        let t0 = std::time::Instant::now();
        let out = f();
        p.record(id, t0.elapsed());
        out
    } else {
        f()
    }
}

impl Machine {
    /// Build a machine from a spec, validating it first. Malformed specs —
    /// which reach this path from user-supplied configuration, not just
    /// presets — come back as [`MachineError::InvalidSpec`] instead of a
    /// panic.
    pub fn new(spec: MachineSpec) -> Result<Machine> {
        spec.validate().map_err(MachineError::InvalidSpec)?;
        let mem = MemorySystem::new(spec.dram);
        let mut spec_prefix = IrWriter::new();
        crate::ir::encode_spec(&mut spec_prefix, &spec);
        Ok(Machine {
            spec,
            mem,
            spec_prefix,
        })
    }

    /// The machine's spec.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// A digest writer that has absorbed this machine's spec: where every
    /// canonical scenario encoding on this machine starts.
    pub(crate) fn spec_prefix(&self) -> &IrWriter {
        &self.spec_prefix
    }

    /// The machine's memory system (stage-test access).
    #[cfg(test)]
    pub(crate) fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Run `workload` (group 0 = target) at the given options until the
    /// target completes. Returns the measured outcome.
    pub fn run(&self, workload: &[RunnerGroup], opts: &RunOptions) -> Result<RunOutcome> {
        self.run_observed(workload, None, opts, None, None)
    }

    /// Run `workload` under optional per-group event schedules (phase
    /// offsets, arrival/departure ticks, per-core clock ratios), with
    /// optional observers. `schedules`, when present, must supply one
    /// [`GroupSchedule`] per group; `None` — or all-default schedules —
    /// is exactly [`Machine::run`], bit-for-bit. `profile` times every
    /// pipeline stage; `trace` records the most recent segments into its
    /// ring. Either, both or neither may be attached: observation never
    /// changes a bit of the outcome.
    pub fn run_observed<G: GroupView>(
        &self,
        workload: &[G],
        schedules: Option<&[GroupSchedule]>,
        opts: &RunOptions,
        profile: Option<&mut StageProfile>,
        trace: Option<&mut SegmentTrace>,
    ) -> Result<RunOutcome> {
        let groups: Vec<GroupRef<'_>> = workload.iter().map(GroupView::group).collect();
        self.drive(&groups, schedules, opts, profile, trace)
    }

    /// Run an app alone (the paper's baseline measurement). Borrows the
    /// profile directly — no per-query workload clone.
    pub fn run_solo(&self, app: &AppProfile, opts: &RunOptions) -> Result<RunOutcome> {
        self.drive(&[GroupRef::solo(app)], None, opts, None, None)
    }

    /// The discrete-event driver behind every entry point: validate, then
    /// advance the stage pipeline era by era. An *era* is a maximal
    /// interval of the simulated clock with a fixed resident set; within
    /// an era the unmodified segment pipeline runs over the resident
    /// groups, with segment lengths additionally capped by the next
    /// scheduled event tick. A default (or absent) schedule yields no
    /// events and a single full-residency era, which executes
    /// the lockstep pipeline's exact arithmetic in its exact order — the
    /// lockstep engine is the degenerate case, bit-for-bit (DESIGN.md
    /// §14). `profile` and `trace` attach observation without perturbing
    /// the simulation.
    fn drive(
        &self,
        workload: &[GroupRef<'_>],
        schedules: Option<&[GroupSchedule]>,
        opts: &RunOptions,
        mut profile: Option<&mut StageProfile>,
        mut trace: Option<&mut SegmentTrace>,
    ) -> Result<RunOutcome> {
        if workload.is_empty() {
            return Err(MachineError::EmptyWorkload);
        }
        if let Some(s) = schedules {
            event::validate_schedules(workload, s)?;
        }
        // Canonical form: a schedule set that adds nothing over lockstep
        // is treated as absent, matching the digest rules in `ir`.
        let sched: Option<&[GroupSchedule]> = match schedules {
            Some(s) if !event::schedules_are_default(Some(s)) => Some(s),
            _ => None,
        };
        // Core capacity: lockstep workloads need every group at once;
        // event schedules only need the peak *concurrent* residency.
        let requested = event::cores_needed(workload, sched);
        if requested > self.spec.cores {
            return Err(MachineError::NotEnoughCores {
                requested,
                available: self.spec.cores,
            });
        }
        let freq_hz = self
            .spec
            .freq_hz(opts.pstate)
            .ok_or(MachineError::BadPState {
                index: opts.pstate,
                available: self.spec.num_pstates(),
            })?;
        for g in workload {
            if g.count == 0 {
                return Err(MachineError::BadProfile(format!(
                    "{}: group count is zero",
                    g.app.name
                )));
            }
            g.app.validate().map_err(MachineError::BadProfile)?;
        }

        // Per-group, per-phase MRCs, each served from its table's curve
        // memo: the value a fresh construction gives.
        let mrcs: Vec<Vec<std::sync::Arc<MissRateCurve>>> = workload
            .iter()
            .map(|g| g.app.phases.iter().map(|p| p.dist.shared_curve()).collect())
            .collect();
        let n_groups = workload.len();

        // Run-global state carried across eras, indexed by the original
        // workload group. For a lockstep run there is exactly one era and
        // these are folded in and out once with identical values.
        let mut progress: Vec<f64> = vec![0.0; n_groups];
        let mut cpi: Vec<f64> = workload.iter().map(|g| g.app.phases[0].cpi_base).collect();
        let mut counters: Vec<CounterBlock> = vec![CounterBlock::default(); n_groups];
        let mut share_time_acc: Vec<f64> = vec![0.0; n_groups];
        let mut wall = 0.0f64;
        let mut latency_time_acc = 0.0f64;
        let mut segments = 0usize;
        let mut fp_iterations = 0u64;
        let mut degraded = false;
        let mut worst_residual = 0.0f64;

        // Residency and the events, in firing order; `next_event` is the
        // first that has not fired. Initially-resident groups start at
        // their phase offset with the matching CPI warm start (offset 0
        // reproduces the `phases[0].cpi_base` lockstep warm start).
        let mut resident: Vec<bool> = vec![true; n_groups];
        let events: Vec<Event> = sched.map_or_else(Vec::new, event::scheduled_events);
        let mut next_event = 0usize;
        if let Some(s) = sched {
            for (g, gs) in s.iter().enumerate() {
                resident[g] = gs.arrival_tick == 0.0;
                if resident[g] {
                    let start = gs.phase_offset * workload[g].app.instructions;
                    progress[g] = start;
                    cpi[g] = workload[g].app.phases[workload[g].app.phase_at(start).0].cpi_base;
                }
            }
        }

        'run: loop {
            // ---- Era setup: compacted views over the resident groups,
            // in original group order. The full-residency era borrows the
            // run-level tables directly — the lockstep path allocates
            // nothing extra here.
            let active: Vec<usize> = (0..n_groups).filter(|&g| resident[g]).collect();
            let compact_wl: Vec<GroupRef<'_>>;
            let compact_mrcs: Vec<Vec<std::sync::Arc<MissRateCurve>>>;
            let (era_wl, era_mrcs): (&[GroupRef<'_>], &[Vec<std::sync::Arc<MissRateCurve>>]) =
                if active.len() == n_groups {
                    (workload, &mrcs)
                } else {
                    compact_wl = active.iter().map(|&g| workload[g]).collect();
                    compact_mrcs = active.iter().map(|&g| mrcs[g].clone()).collect();
                    (&compact_wl, &compact_mrcs)
                };
            let env = SegmentEnv {
                spec: &self.spec,
                mem: &self.mem,
                workload: era_wl,
                opts,
                mrcs: era_mrcs,
            };
            // All per-segment buffers live in the state; the segment loop
            // below is allocation free no matter how many segments the
            // era takes.
            let mut st = EpochState::new(era_wl, freq_hz);
            if let Some(s) = sched {
                for (i, &g) in active.iter().enumerate() {
                    st.clock[i] = s[g].clock_ratio;
                }
            }
            // Fold run-global state into the era state.
            for (i, &g) in active.iter().enumerate() {
                st.progress[i] = progress[g];
                st.cpi[i] = cpi[g];
                st.counters[i] = counters[g];
                st.share_time_acc[i] = share_time_acc[g];
            }
            st.wall = wall;
            st.latency_time_acc = latency_time_acc;
            st.segments = segments;
            st.fp_iterations = fp_iterations;
            st.degraded = degraded;
            st.worst_residual = worst_residual;

            // ---- Era segments ---------------------------------------
            let mut fired: &[Event] = &[];
            let target_done = loop {
                st.segments += 1;
                if st.segments > opts.max_segments {
                    return Err(MachineError::SegmentOverflow {
                        segments: st.segments,
                        cap: opts.max_segments,
                    });
                }

                timed(&mut profile, StageId::PState, || {
                    stages::pstate(&env, &mut st)
                })?;
                timed(&mut profile, StageId::PhaseSync, || {
                    stages::phase_sync(&env, &mut st)
                });
                // Distance to the next scheduled event caps this segment.
                let pending = events.get(next_event).map(|e| e.tick);
                st.dt_cap = match pending {
                    Some(t) => t - st.wall,
                    None => f64::INFINITY,
                };

                st.begin_solve(&env);
                loop {
                    st.seg_iters += 1;
                    timed(&mut profile, StageId::LlcShare, || {
                        stages::llc_share(&env, &mut st)
                    });
                    if timed(&mut profile, StageId::DramFixedPoint, || {
                        stages::dram_fixed_point(&env, &mut st)
                    }) {
                        break;
                    }
                }
                st.fp_iterations += st.seg_iters;
                if st.seg_residual >= FP_TOLERANCE {
                    st.degraded = true;
                    st.worst_residual = st.worst_residual.max(st.seg_residual);
                }

                let finished = timed(&mut profile, StageId::CounterAccrual, || {
                    stages::counter_accrual(&env, &mut st)
                })?;

                // Dispatch events once the clock reaches the next tick —
                // either because the segment was cut at the tick (snap
                // the clock exactly) or because a phase boundary landed
                // on or past it.
                let fire = match pending {
                    Some(t) => st.event_capped || st.wall >= t,
                    None => false,
                };
                if fire {
                    if st.event_capped {
                        st.wall = pending.expect("capped segment implies a pending event");
                    }
                    let due = timed(&mut profile, StageId::EventDispatch, || {
                        events[next_event..]
                            .iter()
                            .take_while(|e| e.tick <= st.wall)
                            .count()
                    });
                    fired = &events[next_event..next_event + due];
                    next_event += due;
                }
                if let Some(t) = trace.as_deref_mut() {
                    t.push(SegmentRecord {
                        segment: st.segments,
                        dt: st.dt,
                        latency_ns: st.latency_ns,
                        fp_iters: st.seg_iters,
                        residual: st.seg_residual,
                        events: fired.len() as u32,
                        resident_groups: era_wl.len(),
                    });
                }
                if finished {
                    break true;
                }
                if fire {
                    break false;
                }
            };

            // ---- Era teardown: fold era state back into the run ------
            for (i, &g) in active.iter().enumerate() {
                progress[g] = st.progress[i];
                cpi[g] = st.cpi[i];
                counters[g] = st.counters[i];
                share_time_acc[g] = st.share_time_acc[i];
            }
            wall = st.wall;
            latency_time_acc = st.latency_time_acc;
            segments = st.segments;
            fp_iterations = st.fp_iterations;
            degraded = st.degraded;
            worst_residual = st.worst_residual;

            if target_done {
                break 'run;
            }
            // Apply residency changes in firing order: departures freeze
            // a group where it stands; arrivals seed the group at its
            // phase offset with the matching warm start.
            for ev in fired {
                match ev.kind {
                    EventKind::Departure(g) => resident[g] = false,
                    EventKind::Arrival(g) => {
                        resident[g] = true;
                        let s = &sched.expect("arrival events imply schedules")[g];
                        let start = s.phase_offset * workload[g].app.instructions;
                        progress[g] = start;
                        cpi[g] = workload[g].app.phases[workload[g].app.phase_at(start).0].cpi_base;
                    }
                }
            }
        }

        // Measurement noise: multiplicative lognormal on the observed time.
        // The scale applies uniformly to every group's cycle counter — a
        // slow (or fast) measured run is slow for everyone sharing the
        // machine, not just the target.
        let mut wall_measured = wall;
        if opts.noise_sigma > 0.0 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(opts.seed);
            // Box–Muller from two uniforms (StdRng has no normal sampler
            // without rand_distr; this keeps dependencies lean).
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen::<f64>();
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let scale = (opts.noise_sigma * z).exp();
            wall_measured *= scale;
            for c in counters.iter_mut() {
                c.cycles *= scale;
            }
        }

        Ok(RunOutcome {
            wall_time_s: wall_measured,
            counters,
            segments,
            fp_iterations,
            avg_llc_share_bytes: share_time_acc.iter().map(|&s| s / wall).collect(),
            avg_mem_latency_ns: latency_time_acc / wall,
            convergence: if degraded {
                Convergence::Degraded {
                    fp_iterations,
                    residual: worst_residual,
                }
            } else {
                Convergence::Converged
            },
            faults: Vec::new(),
        })
    }
}

/// Relative-CPI convergence tolerance of the segment fixed point.
pub const FP_TOLERANCE: f64 = 1e-9;
/// Per-segment iteration cap for a full (unbudgeted) solve.
const MAX_FP_ITERS: u64 = 250;
/// Per-segment floor once the run's fixed-point budget is exhausted: a
/// short damped solve that keeps the run terminating and the state sane.
const DEGRADED_FP_ITERS: u64 = 4;
/// Iterations between the segment solver's cycle-skip snapshots, and so
/// the longest cycle period it skips.
const CYCLE_SNAPSHOT_EVERY: u64 = 16;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppPhase;
    use crate::presets;
    use coloc_cachesim::StackDistanceDist;

    /// A memory-hungry app: working set ≫ LLC, frequent accesses.
    fn hungry(name: &str, instructions: f64) -> AppProfile {
        AppProfile::single_phase(
            name,
            instructions,
            AppPhase {
                weight: 1.0,
                dist: StackDistanceDist::power_law(1_000_000, 0.35, 0.02),
                accesses_per_instr: 0.03,
                cpi_base: 0.9,
                mlp: 4.0,
            },
        )
    }

    /// A compute-bound app: tiny working set, almost no LLC traffic.
    fn compute(name: &str, instructions: f64) -> AppProfile {
        AppProfile::single_phase(
            name,
            instructions,
            AppPhase {
                weight: 1.0,
                dist: StackDistanceDist::power_law(2_000, 2.0, 1e-6),
                accesses_per_instr: 0.001,
                cpi_base: 0.7,
                mlp: 2.0,
            },
        )
    }

    fn m6() -> Machine {
        Machine::new(presets::xeon_e5649()).unwrap()
    }

    #[test]
    fn invalid_spec_is_a_typed_error_not_a_panic() {
        let mut spec = presets::xeon_e5649();
        spec.cores = 0;
        match Machine::new(spec) {
            Err(MachineError::InvalidSpec(msg)) => {
                assert!(msg.contains("core"), "unexpected message: {msg}")
            }
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
        let mut spec = presets::xeon_e5649();
        spec.pstates_ghz.clear();
        assert!(matches!(
            Machine::new(spec),
            Err(MachineError::InvalidSpec(_))
        ));
    }

    #[test]
    fn fp_budget_degrades_instead_of_spinning() {
        let m = m6();
        let wl = vec![
            RunnerGroup::solo(hungry("t", 100e9)),
            RunnerGroup {
                app: hungry("short", 10e9),
                count: 2,
            },
        ];
        let full = m.run(&wl, &RunOptions::default()).unwrap();
        assert_eq!(full.convergence, Convergence::Converged);

        let tight = RunOptions {
            fp_budget: 1,
            ..Default::default()
        };
        let out = m.run(&wl, &tight).unwrap();
        match out.convergence {
            Convergence::Degraded {
                fp_iterations,
                residual,
            } => {
                assert!(fp_iterations < full.fp_iterations);
                assert!(residual > 0.0 && residual.is_finite(), "{residual}");
            }
            Convergence::Converged => panic!("budget of 1 iteration cannot converge"),
        }
        // Degraded, not garbage: the run completed with a finite time in
        // the neighbourhood of the converged result.
        assert!(out.wall_time_s.is_finite() && out.wall_time_s > 0.0);
        let rel = (out.wall_time_s - full.wall_time_s).abs() / full.wall_time_s;
        assert!(rel < 0.5, "degraded run drifted {rel} from converged");
    }

    #[test]
    fn solo_run_produces_sane_counters() {
        let m = m6();
        let app = hungry("h", 200e9);
        let out = m.run_solo(&app, &RunOptions::default()).unwrap();
        assert!(out.wall_time_s > 10.0, "{}", out.wall_time_s);
        let c = &out.counters[0];
        assert!((c.instructions - 200e9).abs() < 1.0);
        assert_eq!(c.completed_runs, 1);
        assert!(c.llc_accesses > 0.0);
        assert!(c.llc_misses > 0.0);
        assert!(c.llc_misses <= c.llc_accesses);
        assert!(c.memory_intensity() > 1e-4);
    }

    #[test]
    fn lower_pstate_is_slower() {
        let m = m6();
        let app = compute("c", 100e9);
        let fast = m
            .run_solo(
                &app,
                &RunOptions {
                    pstate: 0,
                    ..Default::default()
                },
            )
            .unwrap();
        let slow = m
            .run_solo(
                &app,
                &RunOptions {
                    pstate: 5,
                    ..Default::default()
                },
            )
            .unwrap();
        // Compute-bound: time scales ≈ inversely with frequency.
        let ratio = slow.wall_time_s / fast.wall_time_s;
        let freq_ratio = 2.53 / 1.60;
        assert!((ratio - freq_ratio).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn memory_bound_app_scales_sublinearly_with_frequency() {
        let m = m6();
        let app = hungry("h", 100e9);
        let fast = m
            .run_solo(
                &app,
                &RunOptions {
                    pstate: 0,
                    ..Default::default()
                },
            )
            .unwrap();
        let slow = m
            .run_solo(
                &app,
                &RunOptions {
                    pstate: 5,
                    ..Default::default()
                },
            )
            .unwrap();
        let ratio = slow.wall_time_s / fast.wall_time_s;
        let freq_ratio = 2.53 / 1.60;
        assert!(
            ratio < freq_ratio - 0.05,
            "memory-bound ratio {ratio} should undercut frequency ratio {freq_ratio}"
        );
        assert!(ratio > 1.0);
    }

    #[test]
    fn co_location_slows_the_target_monotonically() {
        let m = m6();
        let target = hungry("t", 100e9);
        let mut prev = 0.0;
        for n in 0..=5usize {
            let mut wl = vec![RunnerGroup::solo(target.clone())];
            if n > 0 {
                wl.push(RunnerGroup {
                    app: hungry("agg", 120e9),
                    count: n,
                });
            }
            let out = m.run(&wl, &RunOptions::default()).unwrap();
            assert!(
                out.wall_time_s > prev,
                "n={n}: {} !> {prev}",
                out.wall_time_s
            );
            prev = out.wall_time_s;
        }
    }

    #[test]
    fn compute_bound_co_runners_barely_hurt() {
        let m = m6();
        let target = hungry("t", 100e9);
        let solo = m.run_solo(&target, &RunOptions::default()).unwrap();
        let wl = vec![
            RunnerGroup::solo(target.clone()),
            RunnerGroup {
                app: compute("ep-ish", 100e9),
                count: 5,
            },
        ];
        let with = m.run(&wl, &RunOptions::default()).unwrap();
        let slowdown = with.wall_time_s / solo.wall_time_s;
        assert!(slowdown < 1.05, "compute co-runners caused {slowdown}");
        assert!(slowdown >= 1.0 - 1e-9);
    }

    #[test]
    fn memory_hungry_co_runners_hurt_more_than_compute() {
        let m = m6();
        let target = hungry("t", 100e9);
        let with_compute = m
            .run(
                &[
                    RunnerGroup::solo(target.clone()),
                    RunnerGroup {
                        app: compute("c", 100e9),
                        count: 5,
                    },
                ],
                &RunOptions::default(),
            )
            .unwrap();
        let with_hungry = m
            .run(
                &[
                    RunnerGroup::solo(target.clone()),
                    RunnerGroup {
                        app: hungry("h", 100e9),
                        count: 5,
                    },
                ],
                &RunOptions::default(),
            )
            .unwrap();
        assert!(
            with_hungry.wall_time_s > with_compute.wall_time_s * 1.1,
            "{} vs {}",
            with_hungry.wall_time_s,
            with_compute.wall_time_s
        );
    }

    #[test]
    fn co_runners_restart_to_keep_pressure() {
        let m = m6();
        // Short co-runner, long target: co-runner must loop.
        let wl = vec![
            RunnerGroup::solo(hungry("t", 100e9)),
            RunnerGroup {
                app: hungry("short", 10e9),
                count: 2,
            },
        ];
        let out = m.run(&wl, &RunOptions::default()).unwrap();
        assert!(out.counters[1].completed_runs >= 5, "{:?}", out.counters[1]);
        assert_eq!(out.counters[0].completed_runs, 1);
    }

    #[test]
    fn noise_is_small_and_deterministic() {
        let m = m6();
        let app = hungry("t", 50e9);
        let clean = m.run_solo(&app, &RunOptions::default()).unwrap();
        let noisy_opts = RunOptions {
            noise_sigma: 0.008,
            seed: 7,
            ..Default::default()
        };
        let a = m.run_solo(&app, &noisy_opts).unwrap();
        let b = m.run_solo(&app, &noisy_opts).unwrap();
        assert_eq!(a.wall_time_s, b.wall_time_s);
        assert_ne!(a.wall_time_s, clean.wall_time_s);
        let rel = (a.wall_time_s - clean.wall_time_s).abs() / clean.wall_time_s;
        assert!(rel < 0.05, "noise moved time by {rel}");
    }

    #[test]
    fn rejects_bad_workloads() {
        let m = m6();
        assert!(matches!(
            m.run(&[], &RunOptions::default()),
            Err(MachineError::EmptyWorkload)
        ));
        let wl = vec![RunnerGroup {
            app: hungry("t", 1e9),
            count: 7,
        }];
        assert!(matches!(
            m.run(&wl, &RunOptions::default()),
            Err(MachineError::NotEnoughCores {
                requested: 7,
                available: 6
            })
        ));
        let wl = vec![RunnerGroup::solo(hungry("t", 1e9))];
        assert!(matches!(
            m.run(
                &wl,
                &RunOptions {
                    pstate: 6,
                    ..Default::default()
                }
            ),
            Err(MachineError::BadPState { .. })
        ));
        let wl = vec![RunnerGroup {
            app: hungry("t", 1e9),
            count: 0,
        }];
        assert!(matches!(
            m.run(&wl, &RunOptions::default()),
            Err(MachineError::BadProfile(_))
        ));
    }

    #[test]
    fn segment_overflow_is_a_typed_error() {
        let m = m6();
        // Short co-runner, long target: restarts force many segments.
        let wl = vec![
            RunnerGroup::solo(hungry("t", 100e9)),
            RunnerGroup {
                app: hungry("short", 10e9),
                count: 2,
            },
        ];
        let opts = RunOptions {
            max_segments: 3,
            ..Default::default()
        };
        match m.run(&wl, &opts) {
            Err(MachineError::SegmentOverflow { segments, cap }) => {
                assert_eq!(cap, 3);
                assert_eq!(segments, 4, "abandoned on the first segment past the cap");
            }
            other => panic!("expected SegmentOverflow, got {other:?}"),
        }
    }

    #[test]
    fn multi_phase_app_changes_behaviour_mid_run() {
        let m = m6();
        let app = AppProfile {
            name: "phased".into(),
            instructions: 100e9,
            phases: vec![
                AppPhase {
                    weight: 0.5,
                    dist: StackDistanceDist::power_law(1_000_000, 0.35, 0.02),
                    accesses_per_instr: 0.03,
                    cpi_base: 0.9,
                    mlp: 4.0,
                },
                AppPhase {
                    weight: 0.5,
                    dist: StackDistanceDist::power_law(2_000, 2.0, 1e-6),
                    accesses_per_instr: 0.001,
                    cpi_base: 0.7,
                    mlp: 2.0,
                },
            ],
        };
        let out = m.run_solo(&app, &RunOptions::default()).unwrap();
        assert!(
            out.segments >= 2,
            "expected a phase boundary, got {}",
            out.segments
        );
        // Time must be between the all-hungry and all-compute extremes.
        let hungry_t = m
            .run_solo(&hungry("h", 100e9), &RunOptions::default())
            .unwrap();
        let compute_t = m
            .run_solo(&compute("c", 100e9), &RunOptions::default())
            .unwrap();
        assert!(out.wall_time_s < hungry_t.wall_time_s);
        assert!(out.wall_time_s > compute_t.wall_time_s);
    }

    #[test]
    fn outcome_reports_contention_telemetry() {
        let m = m6();
        let solo = m
            .run_solo(&hungry("t", 50e9), &RunOptions::default())
            .unwrap();
        let shared = m
            .run(
                &[
                    RunnerGroup::solo(hungry("t", 50e9)),
                    RunnerGroup {
                        app: hungry("agg", 60e9),
                        count: 5,
                    },
                ],
                &RunOptions::default(),
            )
            .unwrap();
        // Under contention the target holds less cache and sees slower DRAM.
        assert!(shared.avg_llc_share_bytes[0] < solo.avg_llc_share_bytes[0]);
        assert!(shared.avg_mem_latency_ns > solo.avg_mem_latency_ns);
    }

    #[test]
    fn partitioned_llc_removes_cache_contention_only() {
        let m = m6();
        let target = hungry("t", 50e9);
        // Asymmetric mix: with identical apps the competitive equilibrium
        // *is* the equal split, so shared and partitioned would coincide.
        let aggressor = AppProfile::single_phase(
            "agg",
            60e9,
            AppPhase {
                weight: 1.0,
                dist: StackDistanceDist::power_law(2_000_000, 0.3, 0.04),
                accesses_per_instr: 0.05,
                cpi_base: 0.8,
                mlp: 5.0,
            },
        );
        let wl = vec![
            RunnerGroup::solo(target.clone()),
            RunnerGroup {
                app: aggressor,
                count: 5,
            },
        ];
        let shared = m.run(&wl, &RunOptions::default()).unwrap();
        let parts = m
            .run(
                &wl,
                &RunOptions {
                    llc_partitioned: true,
                    ..Default::default()
                },
            )
            .unwrap();
        let solo = m.run_solo(&target, &RunOptions::default()).unwrap();

        // Partitioning pins every instance to an equal slice.
        let slice = m.spec().llc_bytes as f64 / 6.0;
        assert!((parts.avg_llc_share_bytes[0] - slice).abs() < 1.0);

        // For a memory-hungry target, an equal slice under partitioning is
        // *less* cache than it wins competitively, so cache-side behaviour
        // differs — but DRAM contention persists in both modes: neither
        // matches the solo run.
        assert!(parts.wall_time_s > solo.wall_time_s * 1.02);
        assert!(shared.wall_time_s > solo.wall_time_s * 1.02);
        // And the two contention modes disagree, proving the switch works.
        assert!((parts.wall_time_s - shared.wall_time_s).abs() > 1e-6);
    }

    #[test]
    fn twelve_core_machine_hosts_eleven_co_runners() {
        let m = Machine::new(presets::xeon_e5_2697v2()).unwrap();
        let wl = vec![
            RunnerGroup::solo(hungry("t", 50e9)),
            RunnerGroup {
                app: hungry("agg", 60e9),
                count: 11,
            },
        ];
        let out = m.run(&wl, &RunOptions::default()).unwrap();
        assert!(out.wall_time_s > 0.0);
        assert_eq!(out.counters.len(), 2);
    }

    #[test]
    fn instrumented_run_is_bit_identical_and_counts_stage_work() {
        let m = m6();
        let wl = vec![
            RunnerGroup::solo(hungry("t", 50e9)),
            RunnerGroup {
                app: hungry("short", 10e9),
                count: 2,
            },
        ];
        let opts = RunOptions {
            noise_sigma: 0.008,
            seed: 3,
            ..Default::default()
        };
        let plain = m.run(&wl, &opts).unwrap();
        let mut profile = StageProfile::new();
        let out = m
            .run_observed(&wl, None, &opts, Some(&mut profile), None)
            .unwrap();
        assert_eq!(out.digest(), plain.digest());
        // Per-segment stages run once per segment. Every solve here
        // converges, so nothing is skipped: solver stages run once per
        // fixed-point iteration.
        assert_eq!(plain.convergence, Convergence::Converged);
        let segs = plain.segments as u64;
        assert_eq!(profile.get(StageId::PState).invocations, segs);
        assert_eq!(profile.get(StageId::PhaseSync).invocations, segs);
        assert_eq!(profile.get(StageId::CounterAccrual).invocations, segs);
        assert_eq!(
            profile.get(StageId::LlcShare).invocations,
            plain.fp_iterations
        );
        assert_eq!(
            profile.get(StageId::DramFixedPoint).invocations,
            plain.fp_iterations
        );
    }

    #[test]
    fn cycling_solve_skips_stage_calls_without_moving_a_bit() {
        // A compute-bound target beside three memory-hungry co-runners:
        // the segment solve repeats its state exactly and runs to the
        // iteration cap, which the solver reaches by skipping whole
        // periods of the cycle.
        let m = m6();
        let wl = vec![
            RunnerGroup::solo(compute("t", 50e9)),
            RunnerGroup {
                app: hungry("h", 50e9),
                count: 3,
            },
        ];
        let opts = RunOptions::default();
        let plain = m.run(&wl, &opts).unwrap();
        let mut profile = StageProfile::new();
        let out = m
            .run_observed(&wl, None, &opts, Some(&mut profile), None)
            .unwrap();
        assert!(plain.convergence.is_degraded(), "the solve must cycle");
        // `{:?}` prints every float in its shortest round-trip form, so
        // equal text is equal bits in every field.
        assert_eq!(format!("{out:?}"), format!("{plain:?}"));
        // The profile counts the solver stage calls that ran; the outcome
        // counts the iterations the solve specifies.
        let llc = profile.get(StageId::LlcShare).invocations;
        assert_eq!(llc, profile.get(StageId::DramFixedPoint).invocations);
        assert!(
            llc < plain.fp_iterations,
            "{llc} solver calls for {} iterations: no cycle skipped",
            plain.fp_iterations
        );
    }

    #[test]
    fn stage_nanos_never_exceed_total_run_time() {
        // The profile attributes only time spent *inside* stage closures;
        // driver overhead (loop control, trace pushes, validation, noise)
        // must not be billed to any stage. Hence the summed stage nanos are
        // bounded by the wall time of the whole instrumented run.
        let m = m6();
        let wl = vec![
            RunnerGroup::solo(hungry("t", 50e9)),
            RunnerGroup {
                app: hungry("short", 10e9),
                count: 2,
            },
        ];
        let mut profile = StageProfile::new();
        let t0 = std::time::Instant::now();
        m.run_observed(&wl, None, &RunOptions::default(), Some(&mut profile), None)
            .unwrap();
        let total_run_nanos = t0.elapsed().as_nanos() as u64;
        let stage_sum: u64 = profile.iter().map(|(_, s)| s.nanos).sum();
        assert!(stage_sum > 0, "instrumented run recorded no stage time");
        assert!(
            stage_sum <= total_run_nanos,
            "stage nanos {stage_sum} exceed the whole run's {total_run_nanos}"
        );
    }

    #[test]
    fn traced_run_records_recent_segments() {
        let m = m6();
        let wl = vec![
            RunnerGroup::solo(hungry("t", 50e9)),
            RunnerGroup {
                app: hungry("short", 5e9),
                count: 2,
            },
        ];
        let mut trace = SegmentTrace::new(4);
        let out = m
            .run_observed(&wl, None, &RunOptions::default(), None, Some(&mut trace))
            .unwrap();
        assert_eq!(trace.len() as u64 + trace.dropped(), out.segments as u64);
        assert!(trace.len() <= 4);
        let segs: Vec<usize> = trace.records().map(|r| r.segment).collect();
        assert_eq!(
            *segs.last().unwrap(),
            out.segments,
            "trace ends at the last segment"
        );
        assert!(
            segs.windows(2).all(|w| w[1] == w[0] + 1),
            "records are consecutive"
        );
        for r in trace.records() {
            assert!(r.dt > 0.0 && r.fp_iters > 0 && r.latency_ns > 0.0);
        }
        // Observation does not perturb the run.
        let plain = m.run(&wl, &RunOptions::default()).unwrap();
        assert_eq!(out.wall_time_s.to_bits(), plain.wall_time_s.to_bits());
    }
}
