//! The staged segment pipeline.
//!
//! The engine driver behind [`super::Machine::run_observed`] advances a
//! workload through piecewise-constant segments; this module splits the
//! body of that loop into five stage functions, called in order by the
//! thin driver in the parent module:
//!
//! ```text
//!   per segment:
//!     pstate ─► phase_sync ─► ┌─ fixed-point loop ────────────┐ ─► counter_accrual
//!     (governor: frequency,   │ llc_share ─► dram_fixed_point │    (segment length,
//!      iteration budget)      │ (occupancy,  (latency,        │     counters, restarts,
//!                             │  miss rates)  damped CPI)     │     completion)
//!                             └─── until converged/capped ────┘
//! ```
//!
//! The split is pure code motion from the former monolithic
//! `Machine::run`: the arithmetic, its ordering, and every early-exit
//! condition are unchanged, so the staged driver is bit-identical to the
//! pre-split engine (the conformance differential suite holds it to
//! that). The one later addition, the fixed-point loop's cycle skip, runs
//! fewer iterations of a solve that repeats its state exactly but ends in
//! the same state, so it keeps every bit too. Each function returns only
//! what the driver acts on: whether the solve is done
//! ([`dram_fixed_point`]), whether the target is ([`counter_accrual`]),
//! and the two errors a segment can raise. What the split buys is a seam:
//! each stage is testable on its own, and the driver can time every
//! stage call into a [`StageProfile`] or record per-segment history into
//! a [`SegmentTrace`] without touching the physics.

use super::scratch::RunScratch;
use super::{
    CounterBlock, GroupRef, RunOptions, CYCLE_SNAPSHOT_EVERY, DEGRADED_FP_ITERS, FP_TOLERANCE,
    MAX_FP_ITERS,
};
use crate::spec::MachineSpec;
use crate::{MachineError, Result};
use coloc_cachesim::{occupancy_step_rates, MissRateCurve};
use coloc_memsys::{MemorySystem, MISS_BYTES};
use std::collections::VecDeque;
use std::time::Duration;

/// Identity of one pipeline stage, in driver execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StageId {
    /// Governor / P-state application: per-segment operating frequency and
    /// the fixed-point iteration budget for the upcoming solve.
    PState,
    /// Phase bookkeeping: locate each group's current phase and load its
    /// miss-rate curves.
    PhaseSync,
    /// One LLC iteration: access rates from current CPI, an occupancy
    /// step, per-group miss rates.
    LlcShare,
    /// One DRAM/CPI iteration: latency at the aggregate miss bandwidth,
    /// damped CPI update, convergence decision.
    DramFixedPoint,
    /// Segment close-out: segment length, counter accrual, boundary
    /// snapping, completion/restart handling.
    CounterAccrual,
    /// Discrete-event dispatch: advancing the event cursor past the due
    /// arrivals/departures, whose residency changes start the next era.
    /// Zero invocations for lockstep (default-schedule) runs.
    EventDispatch,
}

impl StageId {
    /// Every stage, in driver execution order.
    pub const ALL: [StageId; 6] = [
        StageId::PState,
        StageId::PhaseSync,
        StageId::LlcShare,
        StageId::DramFixedPoint,
        StageId::CounterAccrual,
        StageId::EventDispatch,
    ];

    /// Stable human-readable name (used by `--stage-stats` output).
    pub fn label(self) -> &'static str {
        match self {
            StageId::PState => "pstate",
            StageId::PhaseSync => "phase-sync",
            StageId::LlcShare => "llc-share",
            StageId::DramFixedPoint => "dram-fixed-point",
            StageId::CounterAccrual => "counter-accrual",
            StageId::EventDispatch => "event-dispatch",
        }
    }

    /// Dense index into per-stage arrays (`0..6`, driver order).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Read-only per-run context shared by every stage: the machine being
/// simulated, the workload, the run options, and the pre-computed
/// per-group, per-phase miss-rate curves.
pub(crate) struct SegmentEnv<'a> {
    pub(crate) spec: &'a MachineSpec,
    pub(crate) mem: &'a MemorySystem,
    pub(crate) workload: &'a [GroupRef<'a>],
    pub(crate) opts: &'a RunOptions,
    pub(crate) mrcs: &'a [Vec<std::sync::Arc<MissRateCurve>>],
}

/// The mutable state a run threads through the pipeline: progress,
/// counters, time accumulators, the CPI warm start, and the per-segment
/// solver scratch. Stages communicate exclusively through this value;
/// fields are crate-private so the contention physics stays sealed behind
/// the stage seam.
pub(crate) struct EpochState {
    pub(crate) scratch: RunScratch,
    pub(crate) progress: Vec<f64>,
    pub(crate) counters: Vec<CounterBlock>,
    pub(crate) share_time_acc: Vec<f64>,
    pub(crate) latency_time_acc: f64,
    pub(crate) wall: f64,
    pub(crate) segments: usize,
    pub(crate) fp_iterations: u64,
    pub(crate) degraded: bool,
    pub(crate) worst_residual: f64,
    /// CPI warm start carried across segments for fast convergence.
    pub(crate) cpi: Vec<f64>,
    /// Operating frequency for the current segment (set by [`pstate`]).
    pub(crate) freq_hz: f64,
    /// Per-segment fixed-point iteration cap (set by [`pstate`]).
    pub(crate) iter_cap: u64,
    /// Iterations the current segment's solve has reached so far,
    /// including whole cycle periods skipped by the solver.
    pub(crate) seg_iters: u64,
    /// Iteration of the current solve's last cycle-skip snapshot (0 =
    /// none yet).
    pub(crate) snapshot_iter: u64,
    /// Final relative CPI residual of the current segment's solve (0.0
    /// when converged below [`FP_TOLERANCE`]).
    pub(crate) seg_residual: f64,
    /// DRAM latency of the current segment, ns.
    pub(crate) latency_ns: f64,
    /// Length of the segment just closed, seconds.
    pub(crate) dt: f64,
    /// Per-group clock ratios for the groups in this (era's) workload.
    /// All 1.0 for lockstep runs — `freq_hz × 1.0` is exact, so the
    /// generalization costs no bits on the default path.
    pub(crate) clock: Vec<f64>,
    /// Upper bound on the next segment's length, seconds: the distance
    /// to the next scheduled event. `INFINITY` (never binding) for
    /// lockstep runs; set by the event driver each segment.
    pub(crate) dt_cap: f64,
    /// True when the segment just closed was cut short by `dt_cap`
    /// rather than a phase boundary — the driver's cue to dispatch
    /// events and start a new era.
    pub(crate) event_capped: bool,
}

impl EpochState {
    pub(crate) fn new(workload: &[GroupRef<'_>], freq_hz: f64) -> EpochState {
        let n_groups = workload.len();
        EpochState {
            scratch: RunScratch::new(workload),
            progress: vec![0.0; n_groups],
            counters: vec![CounterBlock::default(); n_groups],
            share_time_acc: vec![0.0; n_groups],
            latency_time_acc: 0.0,
            wall: 0.0,
            segments: 0,
            fp_iterations: 0,
            degraded: false,
            worst_residual: 0.0,
            cpi: workload.iter().map(|g| g.app.phases[0].cpi_base).collect(),
            freq_hz,
            iter_cap: 0,
            seg_iters: 0,
            snapshot_iter: 0,
            seg_residual: 0.0,
            latency_ns: 0.0,
            dt: 0.0,
            clock: vec![1.0; n_groups],
            dt_cap: f64::INFINITY,
            event_capped: false,
        }
    }

    /// Reset the solver state for a fresh segment: refill occupancies to
    /// the equal split (same numerics as a fresh allocation), forget each
    /// group's memoized MRC probe (the segment may have moved the group
    /// to another phase's curve) and the last cycle-skip snapshot, and
    /// start latency from idle. Driver glue between [`phase_sync`]
    /// and the solver loop.
    pub(crate) fn begin_solve(&mut self, env: &SegmentEnv<'_>) {
        let cap = env.spec.llc_bytes;
        let n_inst = self.scratch.n_instances();
        self.scratch
            .occ
            .iter_mut()
            .for_each(|o| *o = cap as f64 / n_inst as f64);
        self.scratch.cursor.iter_mut().for_each(|c| c.reset());
        self.latency_ns = env.mem.spec().idle_latency_ns;
        self.seg_iters = 0;
        self.snapshot_iter = 0;
        self.seg_residual = 0.0;
    }

    /// Skip whole periods of an exact cycle in the current solve. Called
    /// after an iteration that neither converged nor reached the cap.
    ///
    /// An iteration carries nothing to the next but each group's `cpi`
    /// and `occ`: access rates, miss rates, latency and the residual are
    /// recomputed from them, and the MRC cursor's memo is bit-transparent.
    /// So once that state repeats an earlier iteration's bits at distance
    /// `p`, every later iteration repeats one of the cycle's, none of
    /// which converged, and the solve runs to `iter_cap`. Advancing
    /// `seg_iters` by whole periods lands on a state the solve would have
    /// reached and leaves 1 to `p` iterations to run, so it still ends at
    /// `iter_cap` with the same state, latency and residual.
    ///
    /// The state is compared with a snapshot taken every
    /// [`CYCLE_SNAPSHOT_EVERY`] iterations, so a longer period runs in
    /// full.
    fn skip_cycle(&mut self) {
        let k = self.seg_iters;
        let s = &mut self.scratch;
        let repeats = self.snapshot_iter > 0
            && self
                .cpi
                .iter()
                .zip(&s.occ)
                .zip(&s.snapshot)
                .all(|((c, o), &snap)| (c.to_bits(), o.to_bits()) == snap);
        if repeats {
            let p = k - self.snapshot_iter;
            self.seg_iters += p * ((self.iter_cap - k - 1) / p);
        } else if k.is_multiple_of(CYCLE_SNAPSHOT_EVERY) {
            for ((c, o), snap) in self.cpi.iter().zip(&s.occ).zip(&mut s.snapshot) {
                *snap = (c.to_bits(), o.to_bits());
            }
            self.snapshot_iter = k;
        }
    }
}

/// Governor seam: applies the segment's operating frequency from the
/// P-state table and budgets the upcoming fixed-point solve. Under an
/// [`RunOptions::fp_budget`], segments past the budget get a short
/// truncated solve instead of spinning; the run still terminates, marked
/// degraded by the driver if any truncated segment missed tolerance.
/// Fails only on a P-state outside the machine's table.
pub(crate) fn pstate(env: &SegmentEnv<'_>, st: &mut EpochState) -> Result<()> {
    st.freq_hz = env
        .spec
        .freq_hz(env.opts.pstate)
        .ok_or(MachineError::BadPState {
            index: env.opts.pstate,
            available: env.spec.num_pstates(),
        })?;
    st.iter_cap = if env.opts.fp_budget == 0 {
        MAX_FP_ITERS
    } else {
        let remaining = env.opts.fp_budget.saturating_sub(st.fp_iterations);
        remaining.clamp(DEGRADED_FP_ITERS, MAX_FP_ITERS)
    };
    // Per-group effective frequency: chip clock × clock ratio. A
    // ratio of exactly 1.0 multiplies out to the chip frequency
    // bit-for-bit, so lockstep runs see the lockstep numerics.
    for gi in 0..env.workload.len() {
        st.scratch.freq[gi] = st.freq_hz * st.clock[gi];
    }
    Ok(())
}

/// Phase bookkeeping: locates each group's current phase and its end
/// boundary. The phase index is all downstream stages need — they read
/// miss-rate curves straight from the pre-computed `SegmentEnv` MRC
/// table, so a phase change costs an index update, never a curve clone.
pub(crate) fn phase_sync(env: &SegmentEnv<'_>, st: &mut EpochState) {
    for (gi, (g, &p)) in env.workload.iter().zip(&st.progress).enumerate() {
        st.scratch.phase_info[gi] = g.app.phase_at(p);
    }
}

/// One LLC iteration of the segment fixed point: access rates from the
/// current CPI estimate, one occupancy step at those rates (skipped when
/// the LLC is statically partitioned: shares are fixed equal slices), and
/// per-group miss rates at the resulting shares.
///
/// The stage works per group, never per instance: a group's instances
/// hold bit-identical shares, so each group probes its curve for its
/// insertion rate (the opening probe), takes one grouped
/// [`occupancy_step_rates`], and probes again at the new share (the
/// closing probe). The next iteration opens at the share this one closed
/// at, so the group's cursor answers that probe from its memo: an
/// iteration evaluates each curve at most once.
#[allow(clippy::needless_range_loop)]
pub(crate) fn llc_share(env: &SegmentEnv<'_>, st: &mut EpochState) {
    let n_groups = env.workload.len();
    let s = &mut st.scratch;
    // Rates from current CPI.
    for gi in 0..n_groups {
        let ph = &env.workload[gi].app.phases[s.phase_info[gi].0];
        s.access_rate[gi] = s.freq[gi] / st.cpi[gi] * ph.accesses_per_instr;
    }

    if !env.opts.llc_partitioned {
        // Insertion rates: access rate × miss rate at the current
        // share, with the same floors as [`coloc_cachesim::
        // occupancy_step`].
        for gi in 0..n_groups {
            let mrc = &env.mrcs[gi][s.phase_info[gi].0];
            let rate = s.access_rate[gi].max(0.0);
            let miss = mrc
                .miss_rate_hinted(s.occ[gi] as u64, &mut s.cursor[gi])
                .max(1e-9);
            s.ins[gi] = rate * miss;
        }
        occupancy_step_rates(env.spec.llc_bytes, &s.count, &s.ins, &mut s.occ);
    }
    for gi in 0..n_groups {
        s.miss_rate[gi] =
            env.mrcs[gi][s.phase_info[gi].0].miss_rate_hinted(s.occ[gi] as u64, &mut s.cursor[gi]);
    }
}

/// One DRAM/CPI iteration of the segment fixed point: latency at the
/// aggregate miss bandwidth, damped CPI update, and the convergence
/// decision. Returns true when the solve is done: the relative CPI
/// residual dropped below [`FP_TOLERANCE`] or the iteration cap is
/// reached. An iteration that continues may skip the solve ahead by whole
/// periods of an exact cycle ([`EpochState`]'s cycle skip), so the stage
/// can run fewer times than the solve's iteration count.
#[allow(clippy::needless_range_loop)]
pub(crate) fn dram_fixed_point(env: &SegmentEnv<'_>, st: &mut EpochState) -> bool {
    let n_groups = env.workload.len();

    // DRAM latency at the aggregate miss bandwidth.
    let mut bw = 0.0;
    let mut streams = 0usize;
    for gi in 0..n_groups {
        let miss_per_sec = st.scratch.access_rate[gi] * st.scratch.miss_rate[gi];
        bw += env.workload[gi].count as f64 * miss_per_sec * MISS_BYTES;
        if miss_per_sec > 1e5 {
            streams += env.workload[gi].count;
        }
    }
    st.latency_ns = env.mem.access_latency_ns(bw, streams);

    // CPI update with damping.
    let mut max_rel = 0.0f64;
    for gi in 0..n_groups {
        let ph = &env.workload[gi].app.phases[st.scratch.phase_info[gi].0];
        let stall_cycles_per_instr = ph.accesses_per_instr
            * st.scratch.miss_rate[gi]
            * (st.latency_ns * 1e-9 * st.scratch.freq[gi])
            / ph.mlp;
        let target = ph.cpi_base + stall_cycles_per_instr;
        let next = 0.5 * st.cpi[gi] + 0.5 * target;
        max_rel = max_rel.max(((next - st.cpi[gi]) / st.cpi[gi]).abs());
        st.cpi[gi] = next;
    }
    st.seg_residual = max_rel;
    if max_rel < FP_TOLERANCE {
        st.seg_residual = 0.0;
        return true;
    }
    if st.seg_iters >= st.iter_cap {
        return true;
    }
    st.skip_cycle();
    false
}

/// Segment close-out: converts the converged CPIs into instruction rates,
/// sizes the segment (time until the nearest phase boundary), accrues
/// hardware counters and time-weighted telemetry, snaps boundary
/// crossings, and handles completions — co-runners restart to keep
/// contention pressure constant. Returns true when the target completed,
/// which ends the run; fails on a segment of non-finite or non-positive
/// length.
#[allow(clippy::needless_range_loop)]
pub(crate) fn counter_accrual(env: &SegmentEnv<'_>, st: &mut EpochState) -> Result<bool> {
    let n_groups = env.workload.len();

    // Converged per-group rates for this segment.
    for gi in 0..n_groups {
        st.scratch.ips[gi] = st.scratch.freq[gi] / st.cpi[gi];
    }

    // Time until each group hits its next boundary.
    let mut dt = f64::INFINITY;
    for (gi, p) in st.progress.iter().enumerate() {
        let remaining = st.scratch.phase_info[gi].1 - p;
        let t = remaining / st.scratch.ips[gi];
        if t < dt {
            dt = t;
        }
    }
    // The next scheduled event caps the segment: strictly-less, so
    // a boundary landing exactly on the event tick takes the
    // boundary path (same arithmetic), and the lockstep cap of
    // `INFINITY` never binds — that comparison is the *only* thing
    // the event generalization adds to a default-schedule segment.
    st.event_capped = st.dt_cap < dt;
    if st.event_capped {
        dt = st.dt_cap;
    }
    if !(dt.is_finite() && dt > 0.0) {
        return Err(MachineError::Numeric(format!(
            "degenerate segment dt = {dt} at segment {}",
            st.segments
        )));
    }
    st.dt = dt;

    // Advance everyone by dt.
    for gi in 0..n_groups {
        let instr = st.scratch.ips[gi] * dt;
        st.progress[gi] += instr;
        let acc =
            instr * env.workload[gi].app.phases[st.scratch.phase_info[gi].0].accesses_per_instr;
        st.counters[gi].instructions += instr;
        st.counters[gi].cycles += st.scratch.freq[gi] * dt;
        st.counters[gi].llc_accesses += acc;
        st.counters[gi].llc_misses += acc * st.scratch.miss_rate[gi];
        st.share_time_acc[gi] += st.scratch.occ[gi] * dt;
    }
    st.latency_time_acc += st.latency_ns * dt;
    st.wall += dt;

    // Snap boundary crossings and handle completions.
    let mut target_done = false;
    for gi in 0..n_groups {
        let boundary = st.scratch.phase_info[gi].1;
        if st.progress[gi] >= boundary - 1e-6 * env.workload[gi].app.instructions.max(1.0) {
            st.progress[gi] = boundary;
            if (boundary - env.workload[gi].app.instructions).abs()
                < 1e-9 * env.workload[gi].app.instructions
            {
                st.counters[gi].completed_runs += 1;
                if gi == 0 {
                    target_done = true;
                } else {
                    st.progress[gi] = 0.0; // co-runner restarts
                }
            }
        }
    }
    Ok(target_done)
}

/// Accumulated cost of one pipeline stage across a run (or a whole
/// sweep, when profiles are merged).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Times the stage executed.
    pub invocations: u64,
    /// Total wall time spent inside the stage, nanoseconds.
    pub nanos: u64,
}

/// Per-stage cost counters for an instrumented run: one [`StageStats`]
/// slot per [`StageId`]. The un-instrumented path pays nothing — the
/// driver only reads clocks when a profile is attached.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageProfile {
    stats: [StageStats; 6],
}

impl StageProfile {
    /// An empty profile.
    pub fn new() -> StageProfile {
        StageProfile::default()
    }

    /// Record one invocation of `id` costing `elapsed`.
    pub fn record(&mut self, id: StageId, elapsed: Duration) {
        let slot = &mut self.stats[id.index()];
        slot.invocations += 1;
        slot.nanos += elapsed.as_nanos() as u64;
    }

    /// Counters for one stage.
    pub fn get(&self, id: StageId) -> StageStats {
        self.stats[id.index()]
    }

    /// Fold another profile into this one (sweep aggregation).
    pub fn merge(&mut self, other: &StageProfile) {
        for id in StageId::ALL {
            self.stats[id.index()].invocations += other.stats[id.index()].invocations;
            self.stats[id.index()].nanos += other.stats[id.index()].nanos;
        }
    }

    /// All stages with their counters, in driver order.
    pub fn iter(&self) -> impl Iterator<Item = (StageId, StageStats)> + '_ {
        StageId::ALL.iter().map(|&id| (id, self.get(id)))
    }
}

/// The stage breakdown `--stage-stats` prints: one line per stage, in
/// driver order, with its calls and milliseconds, and no trailing
/// newline.
impl std::fmt::Display for StageProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, (id, s)) in self.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(
                f,
                "  {:<17} {:>9} calls  {:>10.3} ms",
                id.label(),
                s.invocations,
                s.nanos as f64 * 1e-6
            )?;
        }
        Ok(())
    }
}

/// One closed segment, as recorded by a traced run.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SegmentRecord {
    /// 1-based segment index.
    pub segment: usize,
    /// Segment length, seconds.
    pub dt: f64,
    /// DRAM latency over the segment, ns.
    pub latency_ns: f64,
    /// Fixed-point iterations the segment's solve took, skipped cycle
    /// periods included; [`StageProfile`] counts the stage calls that
    /// actually ran.
    pub fp_iters: u64,
    /// Final relative CPI residual (0.0 = converged).
    pub residual: f64,
    /// Scheduled events (arrivals/departures) dispatched when this
    /// segment closed. Always 0 for lockstep runs; a positive count
    /// marks an era boundary — the segment was cut at the event tick
    /// rather than a phase boundary.
    pub events: u32,
    /// Groups resident (on core) during this segment.
    pub resident_groups: usize,
}

/// Bounded ring buffer of the most recent [`SegmentRecord`]s from a
/// traced run. Capacity-bounded so tracing a million-segment run holds
/// memory constant; `dropped` counts evicted records.
#[derive(Clone, Debug)]
pub struct SegmentTrace {
    capacity: usize,
    records: VecDeque<SegmentRecord>,
    dropped: u64,
}

impl SegmentTrace {
    /// A trace retaining at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> SegmentTrace {
        SegmentTrace {
            capacity: capacity.max(1),
            records: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Append a record, evicting the oldest when full.
    pub fn push(&mut self, record: SegmentRecord) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(record);
    }

    /// Retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &SegmentRecord> {
        self.records.iter()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retention bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::super::Machine;
    use super::*;
    use crate::app::{AppPhase, AppProfile};
    use crate::presets;
    use coloc_cachesim::StackDistanceDist;

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

    /// Two-group fixture: a two-phase target plus two hungry co-runners,
    /// with everything a stage needs (machine, MRCs, state) pre-built.
    /// The workload is leaked to `'static` so the fixture can hold the
    /// borrowed [`GroupRef`] views the engine now runs on (a few hundred
    /// bytes per test — fine for a test process).
    struct Fixture {
        machine: Machine,
        groups: Vec<GroupRef<'static>>,
        opts: RunOptions,
        mrcs: Vec<Vec<std::sync::Arc<coloc_cachesim::MissRateCurve>>>,
    }

    impl Fixture {
        fn new(opts: RunOptions) -> Fixture {
            let target = AppProfile {
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
            let workload = vec![
                super::super::RunnerGroup::solo(target),
                super::super::RunnerGroup {
                    app: hungry("co", 60e9),
                    count: 2,
                },
            ];
            let workload: &'static [super::super::RunnerGroup] =
                Box::leak(workload.into_boxed_slice());
            let groups: Vec<GroupRef<'static>> =
                workload.iter().map(GroupRef::from_group).collect();
            let mrcs = workload
                .iter()
                .map(|g| {
                    g.app
                        .phases
                        .iter()
                        .map(|p| std::sync::Arc::new(p.mrc()))
                        .collect()
                })
                .collect();
            Fixture {
                machine: Machine::new(presets::xeon_e5649()).unwrap(),
                groups,
                opts,
                mrcs,
            }
        }

        fn env(&self) -> SegmentEnv<'_> {
            SegmentEnv {
                spec: self.machine.spec(),
                mem: self.machine.mem(),
                workload: &self.groups,
                opts: &self.opts,
                mrcs: &self.mrcs,
            }
        }

        fn state(&self) -> EpochState {
            // 0.0 for an out-of-range pstate: `pstate` re-derives (and
            // rejects) it anyway.
            let freq = self.machine.spec().freq_hz(self.opts.pstate).unwrap_or(0.0);
            EpochState::new(&self.groups, freq)
        }
    }

    #[test]
    fn pstate_stage_sets_frequency_and_budget() {
        let fx = Fixture::new(RunOptions::default());
        let mut st = fx.state();
        st.freq_hz = 0.0;
        pstate(&fx.env(), &mut st).unwrap();
        assert_eq!(st.freq_hz, 2.53e9);
        assert_eq!(st.iter_cap, 250, "unbudgeted runs get the full cap");

        // Under a budget the cap shrinks with spent iterations, floored at
        // the degraded minimum.
        let fx = Fixture::new(RunOptions {
            fp_budget: 100,
            ..Default::default()
        });
        let mut st = fx.state();
        st.fp_iterations = 90;
        pstate(&fx.env(), &mut st).unwrap();
        assert_eq!(st.iter_cap, 10);
        st.fp_iterations = 100_000;
        pstate(&fx.env(), &mut st).unwrap();
        assert_eq!(
            st.iter_cap, 4,
            "exhausted budget floors at the degraded cap"
        );
    }

    #[test]
    fn pstate_stage_reports_bad_pstates() {
        let fx = Fixture::new(RunOptions {
            pstate: 99,
            ..Default::default()
        });
        let mut st = fx.state();
        assert!(matches!(
            pstate(&fx.env(), &mut st),
            Err(MachineError::BadPState {
                index: 99,
                available: 6
            })
        ));
    }

    #[test]
    fn phase_sync_stage_tracks_phase_boundaries() {
        let fx = Fixture::new(RunOptions::default());
        let mut st = fx.state();
        phase_sync(&fx.env(), &mut st);
        assert_eq!(st.scratch.phase_info[0], (0, 50e9), "phase 0 ends halfway");
        assert_eq!(st.scratch.phase_info[1], (0, 60e9));

        // Push the target past its phase boundary: the stage must flip its
        // phase index, which redirects downstream MRC reads to the
        // compute-phase curve in the env table.
        let miss_before = fx.mrcs[0][st.scratch.phase_info[0].0].miss_rate(1 << 20);
        st.progress[0] = 60e9;
        phase_sync(&fx.env(), &mut st);
        assert_eq!(st.scratch.phase_info[0], (1, 100e9));
        let miss_after = fx.mrcs[0][st.scratch.phase_info[0].0].miss_rate(1 << 20);
        assert!(
            miss_after < miss_before,
            "compute phase must miss less: {miss_after} !< {miss_before}"
        );
    }

    #[test]
    fn llc_share_stage_computes_rates_shares_and_misses() {
        let fx = Fixture::new(RunOptions::default());
        let mut st = fx.state();
        pstate(&fx.env(), &mut st).unwrap();
        phase_sync(&fx.env(), &mut st);
        st.begin_solve(&fx.env());
        st.seg_iters = 1;
        llc_share(&fx.env(), &mut st);

        // Access rates follow directly from frequency, CPI, and the phase.
        let expect = st.freq_hz / st.cpi[0] * 0.03;
        assert_eq!(st.scratch.access_rate[0], expect);
        // Occupancies stay a partition of the LLC: each group's share
        // is held by every one of its instances.
        let total: f64 = st
            .scratch
            .occ
            .iter()
            .zip(&st.scratch.count)
            .map(|(&o, &count)| o * count as f64)
            .sum();
        let cap = fx.machine.spec().llc_bytes as f64;
        assert!(
            (total - cap).abs() < 1.0,
            "occupancy leaked: {total} vs {cap}"
        );
        for gi in 0..2 {
            assert!((0.0..=1.0).contains(&st.scratch.miss_rate[gi]));
        }

        // Partitioned mode pins every group at the equal slice.
        let fx_part = Fixture::new(RunOptions {
            llc_partitioned: true,
            ..Default::default()
        });
        let mut stp = fx_part.state();
        pstate(&fx_part.env(), &mut stp).unwrap();
        phase_sync(&fx_part.env(), &mut stp);
        stp.begin_solve(&fx_part.env());
        llc_share(&fx_part.env(), &mut stp);
        let slice = cap / 3.0;
        for &o in &stp.scratch.occ {
            assert_eq!(o, slice);
        }
    }

    #[test]
    fn dram_stage_converges_the_damped_fixed_point() {
        let fx = Fixture::new(RunOptions::default());
        let mut st = fx.state();
        pstate(&fx.env(), &mut st).unwrap();
        phase_sync(&fx.env(), &mut st);
        st.begin_solve(&fx.env());

        let idle = fx.machine.mem().spec().idle_latency_ns;
        let mut iters = 0u64;
        loop {
            st.seg_iters += 1;
            iters += 1;
            llc_share(&fx.env(), &mut st);
            if dram_fixed_point(&fx.env(), &mut st) {
                break;
            }
            assert!(iters < 250, "solver failed to converge");
        }
        assert_eq!(
            st.seg_residual, 0.0,
            "converged solve reports zero residual"
        );
        assert!(st.latency_ns >= idle, "contended latency below idle");
        // Contention must raise CPI above the base for the hungry phase.
        assert!(st.cpi[0] > 0.9 && st.cpi[0].is_finite());
    }

    #[test]
    fn dram_stage_respects_the_iteration_cap() {
        let fx = Fixture::new(RunOptions::default());
        let mut st = fx.state();
        pstate(&fx.env(), &mut st).unwrap();
        phase_sync(&fx.env(), &mut st);
        st.begin_solve(&fx.env());
        st.iter_cap = 1;
        st.seg_iters = 1;
        llc_share(&fx.env(), &mut st);
        assert!(
            dram_fixed_point(&fx.env(), &mut st),
            "cap of 1 ends the solve after one iteration"
        );
        assert!(
            st.seg_residual > 0.0,
            "truncated solve reports its residual"
        );
    }

    #[test]
    fn counter_accrual_stage_advances_and_completes() {
        let fx = Fixture::new(RunOptions::default());
        let mut st = fx.state();
        pstate(&fx.env(), &mut st).unwrap();
        st.segments = 1;
        phase_sync(&fx.env(), &mut st);
        st.begin_solve(&fx.env());
        loop {
            st.seg_iters += 1;
            llc_share(&fx.env(), &mut st);
            if dram_fixed_point(&fx.env(), &mut st) {
                break;
            }
        }
        assert!(
            !counter_accrual(&fx.env(), &mut st).unwrap(),
            "first segment cannot finish the run"
        );
        assert!(st.dt > 0.0 && st.wall == st.dt);
        let c = &st.counters[0];
        assert!((c.instructions - st.scratch.ips[0] * st.dt).abs() < 1e-3);
        assert_eq!(c.cycles, st.freq_hz * st.dt);
        assert!(c.llc_misses <= c.llc_accesses);

        // Drop the target at the brink of completion: the stage must snap
        // the boundary, count the completion, and end the run.
        let mut st2 = fx.state();
        pstate(&fx.env(), &mut st2).unwrap();
        st2.segments = 1;
        st2.progress[0] = 100e9 - 1.0;
        st2.progress[1] = 1.0;
        phase_sync(&fx.env(), &mut st2);
        st2.begin_solve(&fx.env());
        loop {
            st2.seg_iters += 1;
            llc_share(&fx.env(), &mut st2);
            if dram_fixed_point(&fx.env(), &mut st2) {
                break;
            }
        }
        assert!(counter_accrual(&fx.env(), &mut st2).unwrap());
        assert_eq!(st2.counters[0].completed_runs, 1);
        assert_eq!(st2.progress[0], 100e9);
    }

    #[test]
    fn counter_accrual_rejects_degenerate_segments() {
        let fx = Fixture::new(RunOptions::default());
        let mut st = fx.state();
        pstate(&fx.env(), &mut st).unwrap();
        st.segments = 7;
        phase_sync(&fx.env(), &mut st);
        // A non-finite rate forces dt = inf/NaN, which must surface as a
        // typed numeric error naming the segment.
        st.scratch.ips = vec![0.0, 0.0];
        st.scratch.phase_info[0].1 = st.progress[0]; // remaining = 0
        match counter_accrual(&fx.env(), &mut st) {
            Err(MachineError::Numeric(msg)) => {
                assert!(msg.contains("segment 7"), "unexpected message: {msg}")
            }
            other => panic!("expected Numeric, got {other:?}"),
        }
    }

    #[test]
    fn stage_profile_records_and_merges() {
        let mut a = StageProfile::new();
        a.record(StageId::LlcShare, Duration::from_nanos(50));
        a.record(StageId::LlcShare, Duration::from_nanos(25));
        a.record(StageId::PState, Duration::from_nanos(5));
        let mut b = StageProfile::new();
        b.record(StageId::LlcShare, Duration::from_nanos(100));
        a.merge(&b);
        assert_eq!(
            a.get(StageId::LlcShare),
            StageStats {
                invocations: 3,
                nanos: 175
            }
        );
        assert_eq!(a.get(StageId::PState).invocations, 1);
        assert_eq!(a.get(StageId::CounterAccrual), StageStats::default());
        assert_eq!(a.iter().count(), 6);
    }

    #[test]
    fn stage_profile_displays_one_line_per_stage() {
        let mut p = StageProfile::new();
        for _ in 0..40 {
            p.record(StageId::LlcShare, Duration::from_nanos(75));
        }
        p.record(StageId::PState, Duration::from_nanos(1_500_000));
        let text = p.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6, "{text}");
        assert!(!text.ends_with('\n'));
        assert_eq!(
            lines[0],
            "  pstate                    1 calls       1.500 ms"
        );
        assert_eq!(
            lines[2],
            "  llc-share                40 calls       0.003 ms"
        );
        for (line, id) in lines.iter().zip(StageId::ALL) {
            assert!(line.starts_with(&format!("  {}", id.label())), "{line}");
        }
    }

    #[test]
    fn segment_trace_is_a_bounded_ring() {
        let mut t = SegmentTrace::new(3);
        for i in 1..=5 {
            t.push(SegmentRecord {
                segment: i,
                dt: i as f64,
                latency_ns: 60.0,
                fp_iters: 2,
                residual: 0.0,
                events: 0,
                resident_groups: 2,
            });
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let kept: Vec<usize> = t.records().map(|r| r.segment).collect();
        assert_eq!(kept, vec![3, 4, 5], "ring keeps the most recent records");
        assert!(!t.is_empty());
        assert_eq!(t.capacity(), 3);
        assert_eq!(SegmentTrace::new(0).capacity(), 1, "capacity floors at 1");
    }

    #[test]
    fn stage_ids_are_dense_and_labelled() {
        for (i, id) in StageId::ALL.iter().enumerate() {
            assert_eq!(id.index(), i);
            assert!(!id.label().is_empty());
        }
        let labels: std::collections::HashSet<_> =
            StageId::ALL.iter().map(|id| id.label()).collect();
        assert_eq!(labels.len(), 6, "labels are unique");
    }
}
