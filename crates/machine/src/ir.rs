//! The canonical scenario intermediate representation.
//!
//! Before this module existed, "a scenario" was re-described independently
//! in four places: `coloc_core::Scenario` (suite names + counts), the
//! conformance corpus' `CorpusCase` (names + run axes), the `RunCache`
//! digest (a private byte encoding), and `Lab::plan_digest` (another
//! private byte encoding). [`ScenarioIr`] is the one representation they
//! all converge on: a digestable value holding everything the engine
//! reads — machine spec, workload groups, run options, and the optional
//! fault plan.
//!
//! ## Digest canonicalization rules
//!
//! Every digest in the workspace is produced by [`IrWriter`], a 128-bit
//! FNV-1a writer. Scenario digests hash one canonical byte encoding,
//! written by one private encoder behind [`ScenarioIr::digest`],
//! [`ScenarioIr::digest64`] and the run-cache key
//! ([`crate::RunCache::key_for_scheduled`]). The encoding opens with the
//! machine spec; a [`Machine`] keeps the writer's state after its spec,
//! so the run-cache key starts there and absorbs only the rest:
//!
//! * integers are hashed as little-endian `u64` bytes (`usize` widens);
//! * floats are hashed by **bit pattern** (`f64::to_bits`), so `-0.0`,
//!   `0.0`, and every NaN payload key apart — exactly right for memo keys,
//!   where bit-identical inputs imply bit-identical outputs;
//! * strings are length-prefixed, then raw UTF-8 bytes;
//! * locality distributions hash their scalar parameters **and** their
//!   representative/CDF tables, so two distributions with equal parameters
//!   but different construction key apart. The table bytes are absorbed
//!   through digest slots kept in the distribution's shared table block:
//!   after the first absorption from a given state low byte, a table costs
//!   one multiply-add instead of thousands of byte steps, with the same
//!   bits (see `absorb_block`). A group that carries slots for its whole
//!   application block (a lab's lowering hands each group its suite
//!   application's) absorbs that block, name, scalars and tables, the
//!   same way; owned [`RunnerGroup`]s carry none and absorb it byte by
//!   byte, to the same bits;
//! * a fault plan contributes a `1` tag byte plus its digest only when it
//!   can actually fire; a no-op plan encodes as the `0` tag, identical to
//!   no plan at all (it cannot change any outcome, so clean sweeps and
//!   faultless chaos sweeps share cache entries).
//!
//! The encoding is append-only by convention: the digest-stability fixture
//! under `crates/machine/tests/` pins digests of known scenarios, so any
//! accidental change to this encoding — which would silently invalidate
//! run caches and sweep checkpoints — fails CI instead.

use crate::app::AppProfile;
use crate::engine::{GroupView, Machine, RunOptions, RunnerGroup};
use crate::event::GroupSchedule;
use crate::faults::FaultPlan;
use crate::spec::MachineSpec;
use coloc_cachesim::stream::DigestSlots;
use coloc_cachesim::StackDistanceDist;

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

/// 128-bit FNV-1a style digest writer: the single hashing primitive
/// behind every scenario digest (run-cache keys, checkpoint headers,
/// fault-plan digests). Not cryptographic — it only needs to make
/// accidental collisions between distinct inputs negligible.
#[derive(Clone, Debug)]
pub struct IrWriter {
    state: u128,
}

impl Default for IrWriter {
    fn default() -> IrWriter {
        IrWriter::new()
    }
}

impl IrWriter {
    /// A writer at the FNV-128 offset basis.
    pub fn new() -> IrWriter {
        IrWriter {
            state: FNV128_OFFSET,
        }
    }

    /// Absorb one byte.
    pub fn byte(&mut self, b: u8) {
        self.state ^= b as u128;
        self.state = self.state.wrapping_mul(FNV128_PRIME);
    }

    /// Absorb a `u64` as little-endian bytes.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    /// Absorb a `usize`, widened to `u64` for a platform-stable encoding.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Absorb a float by bit pattern: distinguishes `-0.0` from `0.0` and
    /// every NaN payload, which is exactly right for a memo key
    /// (bit-identical inputs ⇒ bit-identical outputs).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Absorb a length-prefixed string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        for b in s.bytes() {
            self.byte(b);
        }
    }

    /// The 128-bit digest.
    pub fn finish(self) -> u128 {
        self.state
    }

    /// The digest folded to 64 bits (high half XOR low half) for callers
    /// that persist a `u64` — checkpoint headers, fault-plan digests.
    pub fn finish64(self) -> u64 {
        let d = self.finish();
        (d >> 64) as u64 ^ d as u64
    }
}

/// Canonical encoding of a locality distribution's tables: length-prefixed
/// representatives, then the CDF. This is the reference [`absorb_dist`]
/// fills the table's digest slots from; [`dist_block_len`] is its byte
/// count.
fn absorb_dist_tables(d: &mut IrWriter, dist: &StackDistanceDist) {
    d.usize(dist.representatives().len());
    for &r in dist.representatives() {
        d.usize(r);
    }
    for &c in dist.cdf() {
        d.f64(c);
    }
}

/// Bytes [`absorb_dist_tables`] writes: every entry widens to 8.
fn dist_block_len(dist: &StackDistanceDist) -> usize {
    (1 + dist.representatives().len() + dist.cdf().len()) * 8
}

/// Absorb a fixed block, which `encode` writes and whose byte count
/// `len` returns, through the block's digest slots: bit-identical to
/// calling `encode` on `d`.
///
/// FNV-1a is affine in its state: absorbing one byte `b` maps `s` to
/// `(s ^ b) * p`, and `s ^ b = s + ((l ^ b) - l)` where `l` is the low
/// byte of `s` (XOR with a one-byte value only touches the low byte, and
/// the carry-free difference is exact in wrapping arithmetic). Chaining
/// over a fixed byte block `B` therefore gives `s_out = s * p^|B| + D`,
/// where `D` depends only on `B` and the low byte of `s` — because the
/// low byte of the state after each step, `((l ^ b) * p) & 0xff`, is
/// itself a function of the previous low byte alone (`p`'s low byte is
/// `0x3b`). So the first absorption of a block from each input low byte
/// runs `encode` and stores `D` in that byte's slot; every later one,
/// from any state with the same low byte, is one multiply-add, which
/// reads neither the block nor its length. `len` must return the number
/// of bytes `encode` writes, and the slots must be used for this block
/// alone.
fn absorb_block(
    d: &mut IrWriter,
    slots: &DigestSlots,
    len: impl FnOnce() -> usize,
    encode: impl FnOnce(&mut IrWriter),
) {
    let s_in = d.state;
    let pow = *slots.pow.get_or_init(|| fnv_pow(len()));
    let mul = s_in.wrapping_mul(pow);
    let add = *slots.add[usize::from(s_in as u8)].get_or_init(|| {
        let mut probe = IrWriter { state: s_in };
        encode(&mut probe);
        probe.state.wrapping_sub(mul)
    });
    d.state = mul.wrapping_add(add);
}

/// Absorb `dist`'s tables into `d`, bit-identical to
/// [`absorb_dist_tables`], through the digest slots kept in the table
/// block, so clones of a distribution share them and an independently
/// built one starts cold.
fn absorb_dist(d: &mut IrWriter, dist: &StackDistanceDist) {
    absorb_block(
        d,
        dist.digest_slots(),
        || dist_block_len(dist),
        |d| absorb_dist_tables(d, dist),
    );
}

/// Canonical encoding of an application profile, down to its per-phase
/// locality tables. [`app_block_len`] is its byte count.
fn encode_app(d: &mut IrWriter, app: &AppProfile) {
    d.str(&app.name);
    d.f64(app.instructions);
    d.usize(app.phases.len());
    for ph in &app.phases {
        d.f64(ph.weight);
        d.f64(ph.accesses_per_instr);
        d.f64(ph.cpi_base);
        d.f64(ph.mlp);
        // The locality model: scalar parameters plus the actual
        // distribution tables, so two dists with equal parameters but
        // different construction (power-law vs uniform) key apart.
        d.f64(ph.dist.p_new());
        d.usize(ph.dist.reuse_span());
        d.f64(ph.dist.alpha());
        absorb_dist(d, &ph.dist);
    }
}

/// Bytes [`encode_app`] writes: the length-prefixed name, the
/// instruction count and phase count, then per phase seven scalars and
/// the table block.
fn app_block_len(app: &AppProfile) -> usize {
    let phases: usize = app
        .phases
        .iter()
        .map(|ph| 7 * 8 + dist_block_len(&ph.dist))
        .sum();
    8 + app.name.len() + 2 * 8 + phases
}

/// `FNV128_PRIME` raised to `n_bytes` (one multiply per absorbed byte),
/// by repeated squaring.
fn fnv_pow(n_bytes: usize) -> u128 {
    let mut acc: u128 = 1;
    let mut base = FNV128_PRIME;
    let mut n = n_bytes;
    while n > 0 {
        if n & 1 == 1 {
            acc = acc.wrapping_mul(base);
        }
        base = base.wrapping_mul(base);
        n >>= 1;
    }
    acc
}

/// Canonical encoding of a machine spec: the first bytes of every
/// scenario encoding. [`Machine::new`] keeps the writer's state after
/// these bytes, and the run-cache key starts from it.
pub(crate) fn encode_spec(d: &mut IrWriter, spec: &MachineSpec) {
    d.str(&spec.name);
    d.usize(spec.cores);
    d.u64(spec.llc_bytes);
    d.usize(spec.llc_ways);
    d.usize(spec.pstates_ghz.len());
    for &p in &spec.pstates_ghz {
        d.f64(p);
    }
    d.f64(spec.dram.peak_bw_bytes_per_sec);
    d.f64(spec.dram.idle_latency_ns);
    d.f64(spec.dram.queue_latency_ns);
    d.f64(spec.dram.max_queue_ns);
    d.f64(spec.dram.bank_penalty_ns);
    d.usize(spec.dram.banks);
}

/// Canonical encoding of the rest of a scenario — workload, run options,
/// optional fault plan, optional event schedules — into `d`, after the
/// machine spec ([`encode_spec`]). The two together are **the** scenario
/// byte encoding: [`ScenarioIr::digest`], the run-cache key, and the
/// sweep-checkpoint digest all read these exact bytes.
pub(crate) fn encode_run<G: GroupView>(
    d: &mut IrWriter,
    workload: &[G],
    opts: &RunOptions,
    faults: Option<&FaultPlan>,
    schedules: Option<&[GroupSchedule]>,
) {
    d.usize(workload.len());
    for g in workload {
        let g = g.group();
        d.usize(g.count);
        match g.slots {
            Some(slots) => {
                absorb_block(d, slots, || app_block_len(g.app), |d| encode_app(d, g.app))
            }
            None => encode_app(d, g.app),
        }
    }

    d.usize(opts.pstate);
    d.u64(opts.seed);
    d.f64(opts.noise_sigma);
    d.usize(opts.max_segments);
    d.byte(opts.llc_partitioned as u8);
    d.u64(opts.fp_budget);
    match faults {
        // A no-op plan keys like no plan at all: it cannot change any
        // outcome, so clean sweeps and faultless "chaos" sweeps share
        // cache entries.
        Some(plan) if !plan.is_noop() => {
            d.byte(1);
            d.u64(plan.digest());
        }
        _ => d.byte(0),
    }
    // Event schedules append *after* the fault tag, and only when they
    // deviate from lockstep: an all-default (or absent) schedule adds no
    // bytes, so it digests — and therefore caches and checkpoints —
    // exactly like the scenarios that predate event scheduling. The tag
    // byte 2 opens the block (the fault tag above is always 0 or 1, so
    // the stream stays prefix-free).
    match schedules {
        Some(s) if !crate::event::schedules_are_default(Some(s)) => {
            d.byte(2);
            d.usize(s.len());
            for g in s {
                d.f64(g.phase_offset);
                d.f64(g.arrival_tick);
                match g.departure_tick {
                    Some(t) => {
                        d.byte(1);
                        d.f64(t);
                    }
                    None => d.byte(0),
                }
                d.f64(g.clock_ratio);
            }
        }
        _ => {}
    }
}

/// One digestable description of everything a run reads: machine preset,
/// workload groups, run options, and fault plan.
///
/// Higher layers lower their own scenario notions onto this type —
/// `coloc_core::Scenario` through `Lab::scenario_ir`, the conformance
/// corpus through `CorpusCase::to_ir` — so one canonical encoding backs
/// every cache key and checkpoint digest in the workspace.
#[derive(Clone, Debug)]
pub struct ScenarioIr {
    /// The machine the workload runs on.
    pub machine: MachineSpec,
    /// Workload groups; group 0 is the target.
    pub workload: Vec<RunnerGroup>,
    /// Run options (P-state, seed, noise, caps).
    pub opts: RunOptions,
    /// Optional measurement-fault plan.
    pub faults: Option<FaultPlan>,
    /// Optional per-group event schedules (one per workload group).
    /// `None` — and the all-default schedule — mean lockstep, and add no
    /// bytes to the canonical encoding.
    pub schedules: Option<Vec<GroupSchedule>>,
}

impl ScenarioIr {
    /// Build an IR without faults.
    pub fn new(machine: MachineSpec, workload: Vec<RunnerGroup>, opts: RunOptions) -> ScenarioIr {
        ScenarioIr {
            machine,
            workload,
            opts,
            faults: None,
            schedules: None,
        }
    }

    /// Attach a fault plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> ScenarioIr {
        self.faults = Some(plan);
        self
    }

    /// Attach per-group event schedules (one entry per workload group).
    pub fn with_schedules(mut self, schedules: Vec<GroupSchedule>) -> ScenarioIr {
        self.schedules = Some(schedules);
        self
    }

    /// The canonical 128-bit digest of this scenario (see the module docs
    /// for the encoding rules). Equal to the run-cache key of the same
    /// scenario ([`crate::RunCache::key_for_scheduled`]).
    pub fn digest(&self) -> u128 {
        self.encoded().finish()
    }

    /// [`ScenarioIr::digest`] folded to 64 bits for persisted headers.
    pub fn digest64(&self) -> u64 {
        self.encoded().finish64()
    }

    /// A writer that has absorbed this scenario's canonical encoding.
    fn encoded(&self) -> IrWriter {
        let mut d = IrWriter::new();
        encode_spec(&mut d, &self.machine);
        encode_run(
            &mut d,
            &self.workload,
            &self.opts,
            self.faults.as_ref(),
            self.schedules.as_deref(),
        );
        d
    }

    /// Validate and instantiate the machine this IR describes.
    pub fn machine(&self) -> crate::Result<Machine> {
        Machine::new(self.machine.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppPhase;
    use crate::engine::GroupRef;
    use crate::presets;
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

    fn ir(span: usize) -> ScenarioIr {
        ScenarioIr::new(
            presets::xeon_e5649(),
            vec![
                RunnerGroup::solo(app("t", span)),
                RunnerGroup {
                    app: app("c", span / 2),
                    count: 2,
                },
            ],
            RunOptions::default(),
        )
    }

    #[test]
    fn digest_matches_the_run_cache_key() {
        let cache = crate::RunCache::new(8);
        for s in [
            ir(800_000),
            ir(800_000).with_faults(FaultPlan::light(3)),
            ir(800_000).with_schedules(vec![
                GroupSchedule::default(),
                GroupSchedule {
                    arrival_tick: 0.5,
                    ..GroupSchedule::default()
                },
            ]),
        ] {
            let m = s.machine().unwrap();
            assert_eq!(
                s.digest(),
                cache.key_for_scheduled(
                    &m,
                    &s.workload,
                    &s.opts,
                    s.faults.as_ref(),
                    s.schedules.as_deref()
                )
            );
        }
    }

    #[test]
    fn every_axis_moves_the_digest() {
        let d0 = ir(800_000).digest();
        assert_eq!(d0, ir(800_000).digest(), "digest is a pure function");
        assert_ne!(d0, ir(400_000).digest(), "workload matters");
        let mut other_machine = ir(800_000);
        other_machine.machine = presets::xeon_e5_2697v2();
        assert_ne!(d0, other_machine.digest(), "machine matters");
        let mut other_opts = ir(800_000);
        other_opts.opts.pstate = 2;
        assert_ne!(d0, other_opts.digest(), "options matter");
        let noop = ir(800_000).with_faults(FaultPlan::default());
        assert_eq!(d0, noop.digest(), "a no-op plan keys like no plan");
        let faulted = ir(800_000).with_faults(FaultPlan::heavy(1));
        assert_ne!(d0, faulted.digest(), "an active plan keys apart");
    }

    /// The writer state after `encode` absorbs a block from `state`.
    fn absorbed(state: u128, encode: impl FnOnce(&mut IrWriter)) -> u128 {
        let mut w = IrWriter { state };
        encode(&mut w);
        w.state
    }

    /// Check a slot path against its reference encoder from every input
    /// low byte, with two input states per byte that differ above it: the
    /// first fills the byte's slot, then hits it warm, and the second
    /// replays it. A wrong block length passes the first two and fails
    /// the replay.
    fn assert_slots_match(
        what: &str,
        reference: impl Fn(&mut IrWriter),
        through_slots: impl Fn(&mut IrWriter),
    ) {
        let (high_a, high_b) = (0x0123_4567_89ab_cdef_fedc_ba98_7654_3200u128, FNV128_OFFSET);
        for low in 0..=255u8 {
            let a = high_a & !0xff | u128::from(low);
            let b = high_b & !0xff | u128::from(low);
            let cold = absorbed(a, &through_slots);
            let warm = absorbed(a, &through_slots);
            let other = absorbed(b, &through_slots);
            assert_eq!(cold, absorbed(a, &reference), "{what}, {low:#04x}: cold");
            assert_eq!(warm, absorbed(a, &reference), "{what}, {low:#04x}: warm");
            assert_eq!(other, absorbed(b, &reference), "{what}, {low:#04x}: replay");
        }
    }

    #[test]
    fn table_slots_match_the_reference_encoder() {
        // The suite's `cg` table: 449 representatives, 7,192 bytes.
        let dist = StackDistanceDist::power_law(3_000_000, 0.75, 0.02);
        assert_eq!(dist.representatives().len(), 449);
        assert_slots_match(
            "cg table",
            |w| absorb_dist_tables(w, &dist),
            |w| absorb_dist(w, &dist),
        );
        assert!(dist.digest_slots().add.iter().all(|s| s.get().is_some()));

        // A clone shares the block and its filled slots; an equal-parameter
        // rebuild and a second suite build do not. All digest alike.
        let base = ir(800_000);
        let clone = base.clone();
        let rebuilt = ir(800_000);
        let target = |s: &ScenarioIr| s.workload[0].app.phases[0].dist.clone();
        assert!(target(&clone).shares_tables(&target(&base)));
        assert!(!target(&rebuilt).shares_tables(&target(&base)));
        assert_eq!(base.digest(), clone.digest());
        assert_eq!(base.digest(), rebuilt.digest());
        let (suite_a, suite_b) = (coloc_workloads::standard(), coloc_workloads::standard());
        for (a, b) in suite_a.iter().zip(&suite_b) {
            for (pa, pb) in a.app.phases.iter().zip(&b.app.phases) {
                assert!(!pa.dist.shares_tables(&pb.dist), "{}", a.name);
                let (mut wa, mut wb) = (IrWriter::new(), IrWriter::new());
                absorb_dist(&mut wa, &pa.dist);
                absorb_dist_tables(&mut wb, &pb.dist);
                assert_eq!(wa.finish(), wb.finish(), "{}", a.name);
            }
        }
    }

    /// Each app of the standard suite as this crate's profile type (the
    /// suite crate links its own copy of this one), sharing its tables.
    fn suite_apps() -> Vec<AppProfile> {
        coloc_workloads::standard()
            .iter()
            .map(|b| AppProfile {
                name: b.app.name.clone(),
                instructions: b.app.instructions,
                phases: (b.app.phases.iter())
                    .map(|ph| AppPhase {
                        weight: ph.weight,
                        dist: ph.dist.clone(),
                        accesses_per_instr: ph.accesses_per_instr,
                        cpi_base: ph.cpi_base,
                        mlp: ph.mlp,
                    })
                    .collect(),
            })
            .collect()
    }

    #[test]
    fn app_slots_match_the_reference_encoder() {
        let suite = suite_apps();
        assert_eq!(suite.len(), 11);
        for multi_phase in ["ft", "bodytrack"] {
            let app = suite.iter().find(|a| a.name == multi_phase).unwrap();
            assert_eq!(app.phases.len(), 2, "{multi_phase}");
        }
        let machine = Machine::new(presets::xeon_e5649()).unwrap();
        let cache = crate::RunCache::new(1);
        let opts = RunOptions::default();
        for app in &suite {
            let slots = DigestSlots::new();
            assert_slots_match(
                &app.name,
                |w| encode_app(w, app),
                |w| absorb_block(w, &slots, || app_block_len(app), |w| encode_app(w, app)),
            );
            assert!(slots.add.iter().all(|s| s.get().is_some()), "{}", app.name);
            // The run-cache key takes the slot path for a group that
            // carries slots, with the bits of the owned group's key.
            let owned = [RunnerGroup {
                app: app.clone(),
                count: 3,
            }];
            let borrowed = [GroupRef {
                app,
                count: 3,
                slots: Some(&slots),
            }];
            assert_eq!(
                cache.key_for_scheduled(&machine, &borrowed, &opts, None, None),
                cache.key_for_scheduled(&machine, &owned, &opts, None, None),
                "{}",
                app.name
            );
        }
    }

    #[test]
    fn digest64_folds_the_full_digest() {
        let a = ir(800_000);
        let d = a.digest();
        assert_eq!(a.digest64(), (d >> 64) as u64 ^ d as u64);
        assert_ne!(a.digest64(), ir(400_000).digest64());
    }
}
