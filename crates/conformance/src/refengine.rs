//! The reference engine: a deliberately naive re-implementation of
//! [`coloc_machine::engine::Machine::run_observed`], without observers.
//!
//! The optimized engine earns its speed through data-structure tricks —
//! per-run solver scratch so the segment loop allocates nothing; solver
//! state kept once per workload group, because a group's instances hold
//! bit-identical shares (the occupancy step runs per group and sums over
//! instances by repetition); miss-rate curves memoized per machine and
//! probed through a cursor that keeps its last segment and last answer
//! and reads logarithms from a table; and a memoizing `RunCache` in front
//! of the whole thing. None of those tricks may change a single bit of
//! the answer: within a segment the contention fixed point is a pure
//! function of the phase parameters, and across segments the only
//! carried state is per-group progress, the CPI warm start, and the
//! accumulated counters.
//!
//! `RefEngine` re-derives everything from first principles every segment:
//!
//! * fresh allocations for every per-segment vector (occupancy, rates,
//!   instance tables) — no scratch reuse;
//! * one occupancy per core instance, each probed and stepped on its own;
//! * miss-rate curves recomputed from the stack-distance distribution at
//!   the top of every segment and evaluated by `MissRateCurve::miss_rate`,
//!   which takes every logarithm from the definition — no cursor, no
//!   memo, no log table;
//! * owner lookups by linear `position()` scans — O(groups × instances);
//! * the DRAM latency and LLC occupancy formulas written out inline from
//!   their definitions rather than through `MemorySystem` /
//!   `occupancy_step`, so a regression in either substrate crate is also
//!   caught;
//! * no memoization anywhere.
//!
//! Because both engines evaluate the same real-number formulas in the
//! same order, their outcomes agree *bit for bit*; the differential
//! harness in this crate's tests asserts agreement to 1e-9 relative on
//! every field and on derived slowdowns, which the bit-identity satisfies
//! with the entire tolerance left as headroom for future refactors that
//! legitimately reassociate arithmetic.

use coloc_cachesim::MissRateCurve;
use coloc_machine::engine::{GroupRef, FP_TOLERANCE};
use coloc_machine::event::{self, EventKind, GroupSchedule};
use coloc_machine::{
    Convergence, CounterBlock, FaultPlan, MachineError, MachineSpec, Result, RunOptions,
    RunOutcome, RunnerGroup,
};
use rand::Rng as _;
use rand::SeedableRng as _;

/// Per-segment iteration cap for a full solve. Mirrors the optimized
/// engine's private constant; if the engine's cap ever drifts, the
/// differential suite fails on any scenario whose fixed point is still
/// moving at iteration 250 — exactly the alarm we want.
const MAX_FP_ITERS: u64 = 250;
/// Per-segment floor once the fixed-point budget is exhausted (mirrors
/// the engine's private `DEGRADED_FP_ITERS`).
const DEGRADED_FP_ITERS: u64 = 4;

/// Bytes transferred per LLC miss (mirrors `coloc_memsys::MISS_BYTES`,
/// spelled out here so the oracle does not read the optimized constant).
const MISS_BYTES: f64 = 64.0;

/// The naive oracle. Holds only the static machine description.
#[derive(Clone, Debug)]
pub struct RefEngine {
    spec: MachineSpec,
}

impl RefEngine {
    /// Build a reference engine over a validated spec.
    pub fn new(spec: MachineSpec) -> Result<RefEngine> {
        spec.validate().map_err(MachineError::InvalidSpec)?;
        if spec.dram.peak_bw_bytes_per_sec <= 0.0 || spec.dram.idle_latency_ns <= 0.0 {
            return Err(MachineError::InvalidSpec(
                "DRAM peak bandwidth and idle latency must be positive".into(),
            ));
        }
        Ok(RefEngine { spec })
    }

    /// The machine's spec.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// Run `workload` (group 0 = target) exactly as the optimized engine
    /// would, recomputing all derived state from scratch each segment.
    /// The lockstep entry point: event semantics with no events.
    pub fn run(&self, workload: &[RunnerGroup], opts: &RunOptions) -> Result<RunOutcome> {
        self.run_scheduled(workload, None, opts)
    }

    /// Run `workload` under per-group event schedules, mirroring
    /// `Machine::run_observed` in deliberately naive form: the next
    /// event is found by a full linear scan over a plain list instead of
    /// a cursor over a list sorted once, the resident set and every per-segment table are
    /// re-derived from scratch each segment instead of once per era, and
    /// owner lookups stay `position()` scans. Schedule validation and
    /// the core count ([`event::cores_needed`]) are shared verbatim with
    /// the optimized engine so both reject exactly the same inputs with
    /// exactly the same typed error.
    pub fn run_scheduled(
        &self,
        workload: &[RunnerGroup],
        schedules: Option<&[GroupSchedule]>,
        opts: &RunOptions,
    ) -> Result<RunOutcome> {
        if workload.is_empty() {
            return Err(MachineError::EmptyWorkload);
        }
        let group_refs: Vec<GroupRef<'_>> = workload.iter().map(GroupRef::from_group).collect();
        if let Some(s) = schedules {
            event::validate_schedules(&group_refs, s)?;
        }
        // Canonical form: an all-default schedule set is lockstep.
        let sched: Option<&[GroupSchedule]> = match schedules {
            Some(s) if !event::schedules_are_default(Some(s)) => Some(s),
            _ => None,
        };
        let requested = event::cores_needed(&group_refs, sched);
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

        let n_groups = workload.len();
        let mut progress = vec![0.0f64; n_groups];
        let mut counters = vec![CounterBlock::default(); n_groups];
        let mut share_time_acc = vec![0.0f64; n_groups];
        let mut latency_time_acc = 0.0f64;
        let mut wall = 0.0f64;
        let mut segments = 0usize;
        let mut fp_iterations = 0u64;
        let mut degraded = false;
        let mut worst_residual = 0.0f64;
        // The CPI warm start is semantics, not an optimization: segment N's
        // solve starts from segment N−1's converged CPI, so the oracle must
        // carry it too.
        let mut cpi: Vec<f64> = workload.iter().map(|g| g.app.phases[0].cpi_base).collect();

        // Pending events as a flat `(tick, seq, kind)` list, numbered
        // all departures before all arrivals, each in group order, with
        // every "pop" re-scanning the whole list for the minimum
        // `(tick, seq)`. The engine sorts its events once instead.
        let mut events: Vec<(f64, u64, EventKind)> = Vec::new();
        let mut resident = vec![true; n_groups];
        if let Some(s) = sched {
            let mut seq = 0u64;
            for (g, gs) in s.iter().enumerate() {
                if let Some(t) = gs.departure_tick {
                    events.push((t, seq, EventKind::Departure(g)));
                    seq += 1;
                }
            }
            for (g, gs) in s.iter().enumerate() {
                if gs.arrival_tick > 0.0 {
                    events.push((gs.arrival_tick, seq, EventKind::Arrival(g)));
                    seq += 1;
                }
            }
            // Initially-resident groups start at their phase offset with
            // the matching CPI warm start.
            for (g, gs) in s.iter().enumerate() {
                resident[g] = gs.arrival_tick == 0.0;
                if resident[g] {
                    let start = gs.phase_offset * workload[g].app.instructions;
                    progress[g] = start;
                    cpi[g] = workload[g].app.phases[workload[g].app.phase_at(start).0].cpi_base;
                }
            }
        }

        loop {
            segments += 1;
            if segments > opts.max_segments {
                // Typed in lockstep with the engine: the differential suite
                // requires errors, not just outcomes, to match exactly.
                return Err(MachineError::SegmentOverflow {
                    segments,
                    cap: opts.max_segments,
                });
            }

            // Everything below is rebuilt from scratch: the resident set,
            // phases, MRCs, instance tables, occupancy.
            let active: Vec<usize> = (0..n_groups).filter(|&g| resident[g]).collect();
            let era_wl: Vec<GroupRef<'_>> = active.iter().map(|&g| group_refs[g]).collect();
            let phase_info: Vec<(usize, f64)> = era_wl
                .iter()
                .zip(&active)
                .map(|(g, &gi)| g.app.phase_at(progress[gi]))
                .collect();
            let mrcs: Vec<MissRateCurve> = era_wl
                .iter()
                .enumerate()
                .map(|(i, g)| g.app.phases[phase_info[i].0].dist.miss_rate_curve())
                .collect();
            // One entry per core-resident instance: its owning group
            // (index into the resident set).
            let owner: Vec<usize> = era_wl
                .iter()
                .enumerate()
                .flat_map(|(i, g)| std::iter::repeat_n(i, g.count))
                .collect();
            // Per-group effective frequency: chip clock × clock ratio
            // (×1.0 is bit-identical to the chip clock for lockstep).
            let freqs: Vec<f64> = active
                .iter()
                .map(|&g| match sched {
                    Some(s) => freq_hz * s[g].clock_ratio,
                    None => freq_hz,
                })
                .collect();

            let iter_cap = if opts.fp_budget == 0 {
                MAX_FP_ITERS
            } else {
                let remaining = opts.fp_budget.saturating_sub(fp_iterations);
                remaining.clamp(DEGRADED_FP_ITERS, MAX_FP_ITERS)
            };
            // Fold the resident groups' CPI warm starts in and out around
            // the solve (bitwise copies, exactly like the engine's era
            // fold).
            let mut acpi: Vec<f64> = active.iter().map(|&g| cpi[g]).collect();
            let (ips, miss_rate, occ_per_instance, latency_ns, iters, residual) = self
                .solve_segment_naive(
                    &era_wl,
                    &phase_info,
                    &mrcs,
                    &owner,
                    &freqs,
                    opts.llc_partitioned,
                    &mut acpi,
                    iter_cap,
                );
            for (i, &g) in active.iter().enumerate() {
                cpi[g] = acpi[i];
            }
            fp_iterations += iters;
            if residual >= FP_TOLERANCE {
                degraded = true;
                worst_residual = worst_residual.max(residual);
            }

            let mut dt = f64::INFINITY;
            for (i, &g) in active.iter().enumerate() {
                let remaining = phase_info[i].1 - progress[g];
                let t = remaining / ips[i];
                if t < dt {
                    dt = t;
                }
            }
            // The next scheduled event caps the segment — strictly-less,
            // so a phase boundary landing exactly on the tick takes the
            // boundary path and an empty schedule (cap = ∞) never binds.
            let pending: Option<f64> = events.iter().map(|&(t, _, _)| t).min_by(f64::total_cmp);
            let dt_cap = match pending {
                Some(t) => t - wall,
                None => f64::INFINITY,
            };
            let event_capped = dt_cap < dt;
            let dt = if event_capped { dt_cap } else { dt };
            if !(dt.is_finite() && dt > 0.0) {
                return Err(MachineError::Numeric(format!(
                    "degenerate segment dt = {dt} at segment {segments}"
                )));
            }

            for (i, &g) in active.iter().enumerate() {
                let instr = ips[i] * dt;
                progress[g] += instr;
                let acc = instr * era_wl[i].app.phases[phase_info[i].0].accesses_per_instr;
                counters[g].instructions += instr;
                counters[g].cycles += freqs[i] * dt;
                counters[g].llc_accesses += acc;
                counters[g].llc_misses += acc * miss_rate[i];
                share_time_acc[g] += occ_per_instance[i] * dt;
            }
            latency_time_acc += latency_ns * dt;
            wall += dt;

            let mut target_done = false;
            for (i, &g) in active.iter().enumerate() {
                let boundary = phase_info[i].1;
                if progress[g] >= boundary - 1e-6 * era_wl[i].app.instructions.max(1.0) {
                    progress[g] = boundary;
                    if (boundary - era_wl[i].app.instructions).abs()
                        < 1e-9 * era_wl[i].app.instructions
                    {
                        counters[g].completed_runs += 1;
                        if g == 0 {
                            target_done = true;
                        } else {
                            progress[g] = 0.0;
                        }
                    }
                }
            }

            // Dispatch events once the clock reaches the next tick —
            // either because the segment was cut at the tick (snap the
            // clock exactly) or because a phase boundary landed on or
            // past it. Fired events are applied in `(tick, seq)` order,
            // each found by a fresh full scan.
            let fire = match pending {
                Some(t) => event_capped || wall >= t,
                None => false,
            };
            if fire {
                if event_capped {
                    wall = pending.expect("capped segment implies a pending event");
                }
                while let Some(idx) = (0..events.len()).min_by(|&a, &b| {
                    events[a]
                        .0
                        .total_cmp(&events[b].0)
                        .then(events[a].1.cmp(&events[b].1))
                }) {
                    if events[idx].0 > wall {
                        break;
                    }
                    let (_, _, kind) = events.remove(idx);
                    if target_done {
                        // The run is over; the queue drains but residency
                        // no longer changes (the engine discards its
                        // fired list the same way).
                        continue;
                    }
                    match kind {
                        EventKind::Departure(g) => resident[g] = false,
                        EventKind::Arrival(g) => {
                            resident[g] = true;
                            let s = &sched.expect("arrival events imply schedules")[g];
                            let start = s.phase_offset * workload[g].app.instructions;
                            progress[g] = start;
                            cpi[g] =
                                workload[g].app.phases[workload[g].app.phase_at(start).0].cpi_base;
                        }
                    }
                }
            }
            if target_done {
                break;
            }
        }

        let mut wall_measured = wall;
        if opts.noise_sigma > 0.0 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(opts.seed);
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

    /// [`RefEngine::run_scheduled`] followed by fault injection with the
    /// run's noise seed as the stream, mirroring the miss path of
    /// `RunCache::run_scheduled_observed`.
    pub fn run_scheduled_faulted(
        &self,
        workload: &[RunnerGroup],
        schedules: Option<&[GroupSchedule]>,
        opts: &RunOptions,
        plan: Option<&FaultPlan>,
    ) -> Result<RunOutcome> {
        let mut outcome = self.run_scheduled(workload, schedules, opts)?;
        if let Some(plan) = plan {
            plan.apply(opts.seed, &mut outcome);
        }
        Ok(outcome)
    }

    /// Solve one segment's contention fixed point with per-call
    /// allocations and linear scans. Returns
    /// `(ips, miss_rate, occ_per_instance, latency_ns, iters, residual)`,
    /// the first three indexed per group.
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    fn solve_segment_naive(
        &self,
        workload: &[GroupRef<'_>],
        phase_info: &[(usize, f64)],
        mrcs: &[MissRateCurve],
        owner: &[usize],
        freqs: &[f64],
        llc_partitioned: bool,
        cpi: &mut [f64],
        max_iters: u64,
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>, f64, u64, f64) {
        let n_groups = workload.len();
        let cap = self.spec.llc_bytes;
        let n_inst = owner.len();

        let mut occ: Vec<f64> = vec![cap as f64 / n_inst as f64; n_inst];
        let mut access_rate = vec![0.0f64; n_groups];
        let mut miss_rate = vec![0.0f64; n_groups];
        let mut latency_ns = self.spec.dram.idle_latency_ns;
        let mut iters = 0u64;
        let mut residual = 0.0f64;

        for _iter in 0..max_iters {
            iters += 1;
            for gi in 0..n_groups {
                let ph = &workload[gi].app.phases[phase_info[gi].0];
                access_rate[gi] = freqs[gi] / cpi[gi] * ph.accesses_per_instr;
            }
            // Per-instance access rates, owner resolved by scan.
            let inst_rate: Vec<f64> = (0..n_inst).map(|ii| access_rate[owner[ii]]).collect();

            if !llc_partitioned {
                naive_occupancy_step(cap, &inst_rate, owner, mrcs, &mut occ);
            }
            for gi in 0..n_groups {
                // First instance of the group, found the slow way.
                let ii = owner
                    .iter()
                    .position(|&o| o == gi)
                    .expect("every group has at least one instance");
                miss_rate[gi] = mrcs[gi].miss_rate(occ[ii] as u64);
            }

            let mut bw = 0.0;
            let mut streams = 0usize;
            for gi in 0..n_groups {
                let miss_per_sec = access_rate[gi] * miss_rate[gi];
                bw += workload[gi].count as f64 * miss_per_sec * MISS_BYTES;
                if miss_per_sec > 1e5 {
                    streams += workload[gi].count;
                }
            }
            latency_ns = self.dram_latency_ns(bw, streams);

            let mut max_rel = 0.0f64;
            for gi in 0..n_groups {
                let ph = &workload[gi].app.phases[phase_info[gi].0];
                let stall_cycles_per_instr =
                    ph.accesses_per_instr * miss_rate[gi] * (latency_ns * 1e-9 * freqs[gi])
                        / ph.mlp;
                let target = ph.cpi_base + stall_cycles_per_instr;
                let next = 0.5 * cpi[gi] + 0.5 * target;
                max_rel = max_rel.max(((next - cpi[gi]) / cpi[gi]).abs());
                cpi[gi] = next;
            }
            residual = max_rel;
            if max_rel < FP_TOLERANCE {
                residual = 0.0;
                break;
            }
        }

        let mut ips = vec![0.0f64; n_groups];
        let mut occ_per_instance = vec![0.0f64; n_groups];
        for gi in 0..n_groups {
            ips[gi] = freqs[gi] / cpi[gi];
            let ii = owner
                .iter()
                .position(|&o| o == gi)
                .expect("every group has at least one instance");
            occ_per_instance[gi] = occ[ii];
        }
        (
            ips,
            miss_rate,
            occ_per_instance,
            latency_ns,
            iters,
            residual,
        )
    }

    /// DRAM latency from the spec's queueing model, written out from its
    /// definition: `L_idle + min(L_queue·ρ/(1−ρ), L_max) + bank(s)` with
    /// `ρ = clamp(offered/peak, 0, 0.99)` and a saturating-exponential
    /// bank-conflict term.
    fn dram_latency_ns(&self, offered_bytes_per_sec: f64, streams: usize) -> f64 {
        let d = &self.spec.dram;
        let rho = (offered_bytes_per_sec.max(0.0) / d.peak_bw_bytes_per_sec).clamp(0.0, 0.99);
        let queue = (d.queue_latency_ns * rho / (1.0 - rho)).min(d.max_queue_ns);
        let bank = if streams <= 1 {
            0.0
        } else {
            let x = (streams - 1) as f64 / d.banks as f64;
            d.bank_penalty_ns * d.banks as f64 * 0.5 * (1.0 - (-2.0 * x).exp())
        };
        d.idle_latency_ns + queue + bank
    }
}

/// One damped LLC-occupancy update, written out from its definition:
/// insertion rates at current shares, shares moved halfway toward
/// insertion-proportional targets (floored), then renormalized to fill
/// the cache exactly. Instance `ii`'s MRC is its owner group's.
fn naive_occupancy_step(
    capacity_bytes: u64,
    inst_rate: &[f64],
    owner: &[usize],
    mrcs: &[MissRateCurve],
    occ: &mut [f64],
) -> f64 {
    let n = inst_rate.len();
    let cap = capacity_bytes as f64;
    const DAMPING: f64 = 0.5;
    let floor = (cap * 1e-4).min(cap / (4.0 * n as f64));

    let ins: Vec<f64> = inst_rate
        .iter()
        .zip(occ.iter())
        .enumerate()
        .map(|(ii, (r, &o))| r.max(0.0) * mrcs[owner[ii]].miss_rate(o as u64).max(1e-9))
        .collect();
    let ins_total: f64 = ins.iter().sum();
    if ins_total <= 0.0 {
        return 0.0;
    }
    let mut max_delta = 0.0f64;
    for i in 0..n {
        let target = (cap * ins[i] / ins_total).max(floor);
        let next = occ[i] + DAMPING * (target - occ[i]);
        max_delta = max_delta.max((next - occ[i]).abs());
        occ[i] = next;
    }
    let sum: f64 = occ.iter().sum();
    for o in occ.iter_mut() {
        *o *= cap / sum;
    }
    max_delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use coloc_machine::{presets, Machine};
    use coloc_workloads::suite;

    fn workload(target: &str, co: &[(&str, usize)]) -> Vec<RunnerGroup> {
        let mut wl = vec![RunnerGroup::solo(scaled(target))];
        for &(name, count) in co {
            wl.push(RunnerGroup {
                app: scaled(name),
                count,
            });
        }
        wl
    }

    fn scaled(name: &str) -> coloc_machine::AppProfile {
        let mut app = suite::by_name(name).expect("app in suite").app;
        app.instructions *= 0.01;
        app
    }

    #[test]
    fn matches_engine_bit_for_bit_on_a_contended_mix() {
        let spec = presets::xeon_e5649();
        let m = Machine::new(spec.clone()).unwrap();
        let r = RefEngine::new(spec).unwrap();
        let wl = workload("canneal", &[("cg", 3)]);
        let opts = RunOptions {
            pstate: 2,
            seed: 11,
            noise_sigma: 0.008,
            ..Default::default()
        };
        let a = m.run(&wl, &opts).unwrap();
        let b = r.run(&wl, &opts).unwrap();
        assert_eq!(a.wall_time_s.to_bits(), b.wall_time_s.to_bits());
        assert_eq!(a.segments, b.segments);
        assert_eq!(a.fp_iterations, b.fp_iterations);
        for (ca, cb) in a.counters.iter().zip(&b.counters) {
            assert_eq!(ca.cycles.to_bits(), cb.cycles.to_bits());
            assert_eq!(ca.llc_misses.to_bits(), cb.llc_misses.to_bits());
        }
    }

    #[test]
    fn matches_engine_bit_for_bit_on_an_event_schedule() {
        let spec = presets::xeon_e5649();
        let m = Machine::new(spec.clone()).unwrap();
        let r = RefEngine::new(spec).unwrap();
        let wl = workload("canneal", &[("cg", 2), ("mg", 2)]);
        let sched = [
            GroupSchedule::default(),
            GroupSchedule {
                phase_offset: 0.25,
                arrival_tick: 0.05,
                departure_tick: Some(0.6),
                clock_ratio: 0.8,
            },
            GroupSchedule {
                arrival_tick: 0.2,
                clock_ratio: 1.25,
                ..Default::default()
            },
        ];
        let opts = RunOptions {
            pstate: 1,
            seed: 7,
            noise_sigma: 0.004,
            ..Default::default()
        };
        let a = m
            .run_observed(&wl, Some(&sched), &opts, None, None)
            .unwrap();
        let b = r.run_scheduled(&wl, Some(&sched), &opts).unwrap();
        assert_eq!(a.wall_time_s.to_bits(), b.wall_time_s.to_bits());
        assert_eq!(a.segments, b.segments);
        assert_eq!(a.fp_iterations, b.fp_iterations);
        assert_eq!(
            a.avg_mem_latency_ns.to_bits(),
            b.avg_mem_latency_ns.to_bits()
        );
        for (ca, cb) in a.counters.iter().zip(&b.counters) {
            assert_eq!(ca.instructions.to_bits(), cb.instructions.to_bits());
            assert_eq!(ca.cycles.to_bits(), cb.cycles.to_bits());
            assert_eq!(ca.llc_misses.to_bits(), cb.llc_misses.to_bits());
            assert_eq!(ca.completed_runs, cb.completed_runs);
        }
    }

    #[test]
    fn mirrors_engine_errors_on_schedules() {
        let spec = presets::xeon_e5649();
        let m = Machine::new(spec.clone()).unwrap();
        let r = RefEngine::new(spec).unwrap();
        let wl = workload("ep", &[("cg", 2)]);
        let opts = RunOptions::default();
        // Malformed schedule: both engines reject with the same error.
        let bad = [
            GroupSchedule::default(),
            GroupSchedule {
                phase_offset: 2.0,
                ..Default::default()
            },
        ];
        assert_eq!(
            m.run_observed(&wl, Some(&bad), &opts, None, None)
                .unwrap_err(),
            r.run_scheduled(&wl, Some(&bad), &opts).unwrap_err()
        );
        // Oversubscribed *concurrent* residency: overlapping windows on
        // a 6-core machine.
        let wl = workload("ep", &[("cg", 4), ("mg", 4)]);
        let over = [
            GroupSchedule::default(),
            GroupSchedule {
                departure_tick: Some(1.0),
                ..Default::default()
            },
            GroupSchedule {
                arrival_tick: 0.5,
                ..Default::default()
            },
        ];
        let ea = m
            .run_observed(&wl, Some(&over), &opts, None, None)
            .unwrap_err();
        assert_eq!(ea, r.run_scheduled(&wl, Some(&over), &opts).unwrap_err());
        assert!(matches!(ea, MachineError::NotEnoughCores { .. }));
        // Disjoint windows fit: departure frees the cores first.
        let fits = [
            GroupSchedule::default(),
            GroupSchedule {
                departure_tick: Some(0.5),
                ..Default::default()
            },
            GroupSchedule {
                arrival_tick: 0.5,
                ..Default::default()
            },
        ];
        let a = m.run_observed(&wl, Some(&fits), &opts, None, None).unwrap();
        let b = r.run_scheduled(&wl, Some(&fits), &opts).unwrap();
        assert_eq!(a.wall_time_s.to_bits(), b.wall_time_s.to_bits());
    }

    #[test]
    fn mirrors_engine_errors() {
        let spec = presets::xeon_e5649();
        let m = Machine::new(spec.clone()).unwrap();
        let r = RefEngine::new(spec).unwrap();
        let wl = workload("ep", &[("cg", 9)]);
        let opts = RunOptions::default();
        assert_eq!(
            m.run(&wl, &opts).unwrap_err(),
            r.run(&wl, &opts).unwrap_err()
        );
        let wl = workload("ep", &[]);
        let opts = RunOptions {
            pstate: 17,
            ..Default::default()
        };
        assert_eq!(
            m.run(&wl, &opts).unwrap_err(),
            r.run(&wl, &opts).unwrap_err()
        );
    }

    #[test]
    fn overflowing_core_counts_are_refused_alike() {
        // A core count that wrapped `usize` would pass the capacity
        // check as a small number. Both engines saturate it and refuse
        // the run with one typed error, in lockstep and under an event
        // schedule.
        let spec = presets::xeon_e5649();
        let m = Machine::new(spec.clone()).unwrap();
        let r = RefEngine::new(spec).unwrap();
        let opts = RunOptions::default();
        let half = 1usize << (usize::BITS - 1);
        let refused = MachineError::NotEnoughCores {
            requested: usize::MAX,
            available: 6,
        };
        for co in [vec![("ep", usize::MAX)], vec![("ep", half), ("cg", half)]] {
            let wl = workload("cg", &co);
            let mut sched = vec![GroupSchedule::default(); wl.len()];
            sched[1].departure_tick = Some(1.0);
            for schedules in [None, Some(sched.as_slice())] {
                let ea = m
                    .run_observed(&wl, schedules, &opts, None, None)
                    .unwrap_err();
                assert_eq!(ea, refused, "{co:?}, scheduled: {}", schedules.is_some());
                assert_eq!(ea, r.run_scheduled(&wl, schedules, &opts).unwrap_err());
            }
        }
    }

    #[test]
    fn rejects_invalid_spec() {
        let mut spec = presets::xeon_e5649();
        spec.cores = 0;
        assert!(matches!(
            RefEngine::new(spec),
            Err(MachineError::InvalidSpec(_))
        ));
    }
}
