//! Conformance scenarios: a serializable case description, a seeded
//! generator, and a deterministic shrinker.
//!
//! A [`CorpusCase`] names everything a differential or metamorphic check
//! needs — machine, target, co-runner groups, P-state, run options, fault
//! preset — in terms of the standard workload suite, so a case is a small
//! JSON document rather than a dump of profile tables. A case lowers to
//! the engine's canonical [`ScenarioIr`] via [`CorpusCase::to_ir`].
//!
//! Apps are scaled by a shared `instr_scale` so a case simulates in
//! milliseconds; one scale for every app in the case preserves the
//! duration *ratios* that determine segment structure, so scaled cases
//! exercise the same code paths as paper-sized runs.

use crate::corpus::Case;
use coloc_machine::{
    presets, FaultPlan, GroupSchedule, MachineSpec, RunOptions, RunnerGroup, ScenarioIr,
};
use coloc_workloads::suite;
use rand::rngs::StdRng;
use rand::Rng as _;
use rand::SeedableRng as _;
use serde::{Deserialize, Serialize};

/// One co-runner group of a case.
///
/// The four optional fields are the event-mode schedule: all `None`
/// (the only state pre-event corpus JSON can express) is exactly the
/// lockstep contract, and lowers to *no* [`GroupSchedule`] at all, so
/// old cases digest and run bit-identically to before.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CoGroup {
    /// Suite application name.
    pub app: String,
    /// Instances (one core each).
    pub count: usize,
    /// Starting phase offset in `[0, 1)` (fraction of the app's
    /// instructions, first pass only).
    pub phase_offset: Option<f64>,
    /// Arrival tick, seconds of simulated time (`None` or 0 = present
    /// from the start).
    pub arrival: Option<f64>,
    /// Departure tick, seconds of simulated time (`None` = stays for
    /// the whole run).
    pub departure: Option<f64>,
    /// Per-core clock ratio (`None` = the chip clock).
    pub clock_ratio: Option<f64>,
}

impl CoGroup {
    /// A lockstep co group: no event schedule.
    pub fn plain(app: impl Into<String>, count: usize) -> CoGroup {
        CoGroup {
            app: app.into(),
            count,
            phase_offset: None,
            arrival: None,
            departure: None,
            clock_ratio: None,
        }
    }

    /// True when any event-mode field deviates from lockstep.
    pub fn has_schedule(&self) -> bool {
        self.phase_offset.is_some()
            || self.arrival.is_some()
            || self.departure.is_some()
            || self.clock_ratio.is_some()
    }

    /// The [`GroupSchedule`] this group lowers to.
    pub fn schedule(&self) -> GroupSchedule {
        GroupSchedule {
            phase_offset: self.phase_offset.unwrap_or(0.0),
            arrival_tick: self.arrival.unwrap_or(0.0),
            departure_tick: self.departure,
            clock_ratio: self.clock_ratio.unwrap_or(1.0),
        }
    }
}

/// A named fault-plan preset, serializable without embedding rate tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultSpec {
    /// A plan that can never fire (exercises the no-op fast path and the
    /// cache-key canonicalization of no-op plans).
    Noop {
        /// Plan seed.
        seed: u64,
    },
    /// [`FaultPlan::light`].
    Light {
        /// Plan seed.
        seed: u64,
    },
    /// [`FaultPlan::heavy`].
    Heavy {
        /// Plan seed.
        seed: u64,
    },
}

impl FaultSpec {
    /// Materialize the preset.
    pub fn plan(&self) -> FaultPlan {
        match *self {
            FaultSpec::Noop { seed } => FaultPlan {
                seed,
                ..FaultPlan::default()
            },
            FaultSpec::Light { seed } => FaultPlan::light(seed),
            FaultSpec::Heavy { seed } => FaultPlan::heavy(seed),
        }
    }
}

/// One conformance scenario, the unit the corpus persists and replays.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CorpusCase {
    /// Case name (generator index or counterexample tag).
    pub name: String,
    /// Machine key: any preset key accepted by [`machine_spec`].
    pub machine: String,
    /// Target application (suite name).
    pub target: String,
    /// Co-runner groups (may be empty: a solo case).
    pub co: Vec<CoGroup>,
    /// P-state index.
    pub pstate: usize,
    /// Run seed (noise + fault stream).
    pub seed: u64,
    /// Lognormal noise σ (0 = noiseless).
    pub noise_sigma: f64,
    /// Shared instruction-count scale applied to every app in the case.
    pub instr_scale: f64,
    /// Statically way-partition the LLC.
    pub llc_partitioned: bool,
    /// Fixed-point iteration budget (0 = unlimited).
    pub fp_budget: u64,
    /// Optional fault-plan preset.
    pub faults: Option<FaultSpec>,
    /// When set, replay re-checks this metamorphic law instead of the
    /// differential oracle (shrunk law counterexamples carry their law).
    pub law: Option<String>,
}

/// Resolve a machine key to its preset spec through
/// [`presets::lookup`], as the CLI and the service do.
pub fn machine_spec(key: &str) -> Result<MachineSpec, String> {
    presets::lookup(key).map(|p| (p.spec)()).ok_or_else(|| {
        let keys: Vec<&str> = presets::PRESETS.iter().map(|p| p.key).collect();
        format!("unknown machine key {key:?} (expected one of {keys:?} or an alias)")
    })
}

fn scaled_app(name: &str, scale: f64) -> Result<coloc_machine::AppProfile, String> {
    let mut app = suite::by_name(name)
        .ok_or_else(|| format!("unknown suite app {name:?}"))?
        .app;
    if !(scale > 0.0 && scale.is_finite()) {
        return Err(format!(
            "instr_scale must be positive and finite, got {scale}"
        ));
    }
    app.instructions *= scale;
    Ok(app)
}

impl CorpusCase {
    /// Lower the case to the canonical [`ScenarioIr`]. Fails on unknown
    /// machine or app names and degenerate scales; over-subscription and
    /// similar workload problems are left for the engines (both must
    /// reject them identically — that, too, is conformance surface).
    pub fn to_ir(&self) -> Result<ScenarioIr, String> {
        let spec = machine_spec(&self.machine)?;
        let mut workload = vec![RunnerGroup::solo(scaled_app(
            &self.target,
            self.instr_scale,
        )?)];
        for g in &self.co {
            workload.push(RunnerGroup {
                app: scaled_app(&g.app, self.instr_scale)?,
                count: g.count,
            });
        }
        let opts = RunOptions {
            pstate: self.pstate,
            seed: self.seed,
            noise_sigma: self.noise_sigma,
            llc_partitioned: self.llc_partitioned,
            fp_budget: self.fp_budget,
            ..Default::default()
        };
        let mut ir = ScenarioIr::new(spec, workload, opts);
        if let Some(f) = &self.faults {
            ir = ir.with_faults(f.plan());
        }
        if self.co.iter().any(CoGroup::has_schedule) {
            let mut schedules = vec![GroupSchedule::default()];
            schedules.extend(self.co.iter().map(CoGroup::schedule));
            ir = ir.with_schedules(schedules);
        }
        Ok(ir)
    }

    /// Total co-runner instances.
    pub fn co_instances(&self) -> usize {
        self.co.iter().map(|g| g.count).sum()
    }
}

const APP_NAMES: [&str; 11] = [
    "cg",
    "streamcluster",
    "mg",
    "sp",
    "canneal",
    "ft",
    "fluidanimate",
    "bodytrack",
    "ua",
    "blackscholes",
    "ep",
];

const SCALES: [f64; 3] = [0.01, 0.02, 0.05];

/// Constraints a law imposes on generated cases (the differential sweep
/// uses the permissive default).
#[derive(Clone, Copy, Debug)]
pub struct GenConstraints {
    /// Permit fault presets.
    pub allow_faults: bool,
    /// Permit measurement noise.
    pub allow_noise: bool,
    /// Permit a finite fixed-point budget.
    pub allow_fp_budget: bool,
    /// Cores to leave unused (a law that *adds* a co-runner needs one).
    pub reserve_cores: usize,
    /// Minimum number of co-runner groups.
    pub min_co_groups: usize,
    /// Permit event schedules on co groups (staggered starts, mid-run
    /// arrival/departure, per-core clock ratios).
    pub allow_events: bool,
}

impl Default for GenConstraints {
    fn default() -> GenConstraints {
        GenConstraints {
            allow_faults: true,
            allow_noise: true,
            allow_fp_budget: true,
            reserve_cores: 0,
            min_co_groups: 0,
            allow_events: true,
        }
    }
}

/// Generate one case from a seed, deterministically. The same `(seed,
/// constraints)` always yields the same case, independent of everything
/// else the process has done — cases are addressable by seed alone, which
/// is what makes shrunk counterexamples and corpus replay stable.
pub fn gen_case(seed: u64, cons: &GenConstraints) -> CorpusCase {
    let mut rng = StdRng::seed_from_u64(seed);
    let machine = if rng.gen_bool(0.5) {
        "e5649"
    } else {
        "e5_2697v2"
    };
    let cores = if machine == "e5649" { 6 } else { 12 };
    let target = APP_NAMES[rng.gen_range(0..APP_NAMES.len())];

    let free = cores - 1 - cons.reserve_cores.min(cores - 1);
    let n_groups = if free == 0 {
        0
    } else {
        let roll = rng.gen_range(0..10u32);
        let wish = if roll < 2 {
            0
        } else if roll < 7 || free < 2 {
            1
        } else {
            2
        };
        wish.max(cons.min_co_groups)
    };

    let mut co = Vec::new();
    let mut used = 0usize;
    for g in 0..n_groups {
        let remaining = free - used;
        if remaining == 0 {
            break;
        }
        // Later groups must leave at least one core per group still to come.
        let still_to_come = n_groups - g - 1;
        let max_here = remaining.saturating_sub(still_to_come).max(1);
        let count = rng.gen_range(1..=max_here);
        let mut app = APP_NAMES[rng.gen_range(0..APP_NAMES.len())];
        // Distinct apps per group keep permutation checks meaningful.
        while co.iter().any(|c: &CoGroup| c.app == app) {
            app = APP_NAMES[rng.gen_range(0..APP_NAMES.len())];
        }
        co.push(CoGroup::plain(app, count));
        used += count;
    }

    let pstate = rng.gen_range(0..6usize);
    let noise_sigma = if cons.allow_noise && rng.gen_bool(0.5) {
        0.008
    } else {
        0.0
    };
    let instr_scale = SCALES[rng.gen_range(0..SCALES.len())];
    let llc_partitioned = rng.gen_bool(0.1);
    let fp_budget = if cons.allow_fp_budget && rng.gen_bool(0.15) {
        [32u64, 200, 1000][rng.gen_range(0..3usize)]
    } else {
        0
    };
    let faults = if cons.allow_faults {
        match rng.gen_range(0..10u32) {
            7 => Some(FaultSpec::Noop { seed: rng.gen() }),
            8 => Some(FaultSpec::Light { seed: rng.gen() }),
            9 => Some(FaultSpec::Heavy { seed: rng.gen() }),
            _ => None,
        }
    } else {
        None
    };
    let run_seed: u64 = rng.gen();

    // Event-mode families, drawn strictly *after* every lockstep field so
    // a given generator seed keeps its pre-event machine/workload/options
    // unchanged. Every value comes from an exact-binary-fraction palette:
    // the f64s print as finite decimals and JSON round-trips are exact.
    if cons.allow_events && !co.is_empty() && rng.gen_bool(0.45) {
        const OFFSETS: [f64; 5] = [0.125, 0.25, 0.375, 0.5, 0.75];
        const ARRIVALS: [f64; 4] = [0.0078125, 0.015625, 0.03125, 0.0625];
        const STAYS: [f64; 4] = [0.015625, 0.0625, 0.125, 0.25];
        const CLOCKS: [f64; 4] = [0.5, 0.75, 1.25, 1.5];
        for g in co.iter_mut() {
            // Staggered start: begin mid-app.
            if rng.gen_bool(0.4) {
                g.phase_offset = Some(OFFSETS[rng.gen_range(0..OFFSETS.len())]);
            }
            // Mid-run arrival.
            if rng.gen_bool(0.35) {
                g.arrival = Some(ARRIVALS[rng.gen_range(0..ARRIVALS.len())]);
            }
            // Mid-run departure, always after the arrival (exact sums of
            // exact binary fractions stay exact).
            if rng.gen_bool(0.35) {
                g.departure = Some(g.arrival.unwrap_or(0.0) + STAYS[rng.gen_range(0..STAYS.len())]);
            }
            // Per-core clock ratio.
            if rng.gen_bool(0.4) {
                g.clock_ratio = Some(CLOCKS[rng.gen_range(0..CLOCKS.len())]);
            }
        }
    }

    CorpusCase {
        name: format!("gen-{seed:016x}"),
        machine: machine.to_string(),
        target: target.to_string(),
        co,
        pstate,
        seed: run_seed,
        noise_sigma,
        instr_scale,
        llc_partitioned,
        fp_budget,
        faults,
        law: None,
    }
}

/// Generate `n` cases from a base seed (case `i` uses `base_seed + i`,
/// so any failing case can be regenerated from its index alone).
pub fn gen_cases(base_seed: u64, n: usize) -> Vec<CorpusCase> {
    (0..n)
        .map(|i| gen_case(base_seed.wrapping_add(i as u64), &GenConstraints::default()))
        .collect()
}

impl Case for CorpusCase {
    fn seed(&self) -> u64 {
        self.seed
    }

    fn law(&self) -> Option<&str> {
        self.law.as_deref()
    }

    fn set_law(&mut self, law: Option<&str>) {
        self.law = law.map(str::to_string);
    }

    fn describe(&self) -> String {
        let co = if self.co.is_empty() {
            "solo".to_string()
        } else {
            self.co
                .iter()
                .map(|g| format!("{}x{}", g.count, g.app))
                .collect::<Vec<_>>()
                .join("+")
        };
        let mut extras = Vec::new();
        if self.noise_sigma > 0.0 {
            extras.push("noise".to_string());
        }
        if self.llc_partitioned {
            extras.push("partitioned".to_string());
        }
        if self.fp_budget > 0 {
            extras.push(format!("budget={}", self.fp_budget));
        }
        if let Some(f) = &self.faults {
            extras.push(format!("{f:?}").to_lowercase());
        }
        if self.co.iter().any(CoGroup::has_schedule) {
            extras.push("events".to_string());
        }
        let extras = if extras.is_empty() {
            String::new()
        } else {
            format!(" [{}]", extras.join(", "))
        };
        format!(
            "{}: {} vs {} @P{} on {}{}",
            self.name, self.target, co, self.pstate, self.machine, extras
        )
    }

    /// Structural deletions (drop a co group, shrink a count) come before
    /// parameter simplifications (events, faults, noise, budget,
    /// partitioning, P0), so the minimum is small in the ways that matter
    /// for debugging.
    fn simplifications(&self) -> Vec<CorpusCase> {
        let mut candidates = Vec::new();
        let mut push = |edit: &dyn Fn(&mut CorpusCase)| {
            let mut c = self.clone();
            edit(&mut c);
            candidates.push(c);
        };
        for i in 0..self.co.len() {
            push(&|c| {
                c.co.remove(i);
            });
        }
        for i in 0..self.co.len() {
            if self.co[i].count >= 2 {
                push(&|c| c.co[i].count /= 2);
                push(&|c| c.co[i].count = 1);
            }
        }
        // Event-schedule simplifications: first a whole group back to
        // lockstep, then one field at a time.
        for (i, g) in self.co.iter().enumerate() {
            if g.has_schedule() {
                push(&|c| c.co[i] = CoGroup::plain(g.app.clone(), g.count));
            }
            if g.departure.is_some() {
                push(&|c| c.co[i].departure = None);
            }
            if g.arrival.is_some() {
                push(&|c| c.co[i].arrival = None);
            }
            if g.phase_offset.is_some() {
                push(&|c| c.co[i].phase_offset = None);
            }
            if g.clock_ratio.is_some() {
                push(&|c| c.co[i].clock_ratio = None);
            }
        }
        if self.faults.is_some() {
            push(&|c| c.faults = None);
        }
        if self.noise_sigma > 0.0 {
            push(&|c| c.noise_sigma = 0.0);
        }
        if self.fp_budget > 0 {
            push(&|c| c.fp_budget = 0);
        }
        if self.llc_partitioned {
            push(&|c| c.llc_partitioned = false);
        }
        if self.pstate != 0 {
            push(&|c| c.pstate = 0);
        }
        candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::shrink;

    #[test]
    fn every_preset_key_and_alias_resolves_to_its_spec() {
        for p in presets::PRESETS {
            for key in std::iter::once(p.key).chain(p.aliases.iter().copied()) {
                for k in [
                    key.to_string(),
                    key.to_ascii_uppercase(),
                    key.replace('_', "-"),
                ] {
                    assert_eq!(machine_spec(&k), Ok((p.spec)()), "`{k}`");
                }
            }
        }
        assert!(machine_spec("cray").is_err());
    }

    #[test]
    fn generation_is_deterministic_and_buildable() {
        let a = gen_cases(42, 50);
        let b = gen_cases(42, 50);
        assert_eq!(a, b);
        for case in &a {
            let ir = case.to_ir().expect("generated cases lower");
            let total: usize = ir.workload.iter().map(|g| g.count).sum();
            assert!(total <= ir.machine.cores, "{}", case.describe());
            assert!(ir.opts.pstate < ir.machine.num_pstates());
        }
    }

    #[test]
    fn generator_covers_the_interesting_axes() {
        let cases = gen_cases(7, 300);
        assert!(cases.iter().any(|c| c.machine == "e5649"));
        assert!(cases.iter().any(|c| c.machine == "e5_2697v2"));
        assert!(cases.iter().any(|c| c.co.is_empty()));
        assert!(cases.iter().any(|c| c.co.len() == 2));
        assert!(cases.iter().any(|c| c.noise_sigma > 0.0));
        assert!(cases.iter().any(|c| c.llc_partitioned));
        assert!(cases.iter().any(|c| c.fp_budget > 0));
        assert!(cases
            .iter()
            .any(|c| matches!(c.faults, Some(FaultSpec::Heavy { .. }))));
        assert!(cases
            .iter()
            .any(|c| matches!(c.faults, Some(FaultSpec::Noop { .. }))));
    }

    #[test]
    fn constraints_are_honoured() {
        let cons = GenConstraints {
            allow_faults: false,
            allow_noise: false,
            allow_fp_budget: false,
            reserve_cores: 1,
            min_co_groups: 1,
            allow_events: true,
        };
        for i in 0..200 {
            let c = gen_case(1000 + i, &cons);
            assert!(c.faults.is_none());
            assert_eq!(c.noise_sigma, 0.0);
            assert_eq!(c.fp_budget, 0);
            assert!(!c.co.is_empty());
            let cores = if c.machine == "e5649" { 6 } else { 12 };
            assert!(c.co_instances() + 2 <= cores, "{}", c.describe());
        }
    }

    #[test]
    fn shrink_reaches_a_local_minimum() {
        let case = gen_case(99, &GenConstraints::default());
        // Predicate: "fails whenever there are any co-runner instances or
        // noise" — the shrinker must strip everything else away.
        let shrunk = shrink(&case, |c| c.co_instances() > 0 || c.noise_sigma > 0.0);
        if case.co_instances() > 0 || case.noise_sigma > 0.0 {
            assert!(shrunk.faults.is_none());
            assert_eq!(shrunk.fp_budget, 0);
            assert_eq!(shrunk.pstate, 0);
            assert!(!shrunk.llc_partitioned);
        }
        // Shrinking something that "always fails" strips it bare.
        let bare = shrink(&case, |_| true);
        assert!(bare.co.is_empty());
        assert_eq!(bare.noise_sigma, 0.0);
        assert!(bare.faults.is_none());
    }

    #[test]
    fn json_round_trip() {
        for case in gen_cases(5, 20) {
            let json = serde_json::to_string_pretty(&case).unwrap();
            let back: CorpusCase = serde_json::from_str(&json).unwrap();
            assert_eq!(case, back);
        }
    }

    #[test]
    fn unknown_names_fail_cleanly() {
        let mut case = gen_case(1, &GenConstraints::default());
        case.machine = "cray-1".into();
        assert!(case.to_ir().is_err());
        let mut case = gen_case(1, &GenConstraints::default());
        case.target = "doom".into();
        assert!(case.to_ir().is_err());
    }
}
