//! Digest-stability fixture for the canonical [`ScenarioIr`] encoding.
//!
//! `RunCache` keys, `Lab::plan_digest` checkpoints, and the conformance
//! corpus all hash scenarios through one implementation:
//! [`ScenarioIr::digest`]. That makes the digest a *persistence format* —
//! an accidental change to the canonical encoding silently invalidates
//! every memo entry and orphans every sweep checkpoint in the field. This
//! test pins the digests of a fixed scenario set against a checked-in
//! fixture; after an **intentional** encoding change, regenerate with
//! `COLOC_REGEN_FIXTURES=1 cargo test --test digest_stability`.
//!
//! The fixture is plain text, one `name = 0x<32 hex>` line per scenario,
//! so an encoding change reviews as a readable diff. The run cache's own
//! key path ([`RunCache::key_for_scheduled`]) is pinned against the same
//! lines, with each table's digest slots cold and warm.
//!
//! The fixture is **append-only**: new encoding axes add lines, existing
//! lines never change without a schema-version bump.
//!
//! A second fixture, `outcome_digests.txt`, pins what the engine
//! *answers* for the same scenarios (plus two with large co-runner
//! groups and two whose segment solves stop at the iteration cap): one
//! [`coloc_machine::RunOutcome::digest`] (every field by bit pattern)
//! per line. The differential suite compares engines to a 1e-9
//! tolerance and the golden fixtures round their figures, so an engine
//! change that moves the last bits of an outcome passes them; it fails
//! here. The outcome
//! fixture is regenerated the same way, and only for an intentional
//! change to the engine's arithmetic.
//!
//! A third fixture, `sample_digests.txt`, pins the training inputs
//! behind EXPERIMENTS.md: one [`samples_digest`] per paper platform of
//! `Lab::collect` over the paper plan at seed 2015. It covers the
//! baselines, every feature bit and every measured time, so a change to
//! the engine, the baselines or featurization that moves one training
//! input fails it.

use coloc_cachesim::StackDistanceDist;
use coloc_machine::IrWriter;
use coloc_machine::{
    presets, AppPhase, AppProfile, FaultPlan, GroupSchedule, RunCache, RunOptions, RunnerGroup,
    ScenarioIr, SegmentTrace,
};
use coloc_model::lab::DEFAULT_NOISE_SIGMA;
use coloc_model::registry::samples_digest;
use coloc_model::{Lab, Scenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/scenario_digests.txt")
}

fn outcome_fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/outcome_digests.txt")
}

fn sample_fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/sample_digests.txt")
}

/// Compare `rendered` with the fixture at `path`, rewriting the file
/// first when `COLOC_REGEN_FIXTURES` is set.
fn check_fixture(path: &std::path::Path, rendered: &str, what: &str) {
    if std::env::var("COLOC_REGEN_FIXTURES").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, rendered).unwrap();
    }
    let on_disk = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{}: {e} (run with COLOC_REGEN_FIXTURES=1)", path.display()));
    assert_eq!(
        on_disk, rendered,
        "{what} changed. If intentional, regenerate with COLOC_REGEN_FIXTURES=1."
    );
}

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

fn phased(name: &str, instructions: f64) -> AppProfile {
    AppProfile {
        name: name.into(),
        instructions,
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
    }
}

/// The pinned scenario set: every encoding axis is exercised by at least
/// one entry (machine preset, group counts, multi-phase apps, P-state,
/// seed, noise, partitioning, budget, and fault plans — firing and no-op).
fn pinned_scenarios() -> Vec<(&'static str, ScenarioIr)> {
    let solo = ScenarioIr::new(
        presets::xeon_e5649(),
        vec![RunnerGroup::solo(hungry("streamer", 50e9))],
        RunOptions::default(),
    );

    let contended = ScenarioIr::new(
        presets::xeon_e5649(),
        vec![
            RunnerGroup::solo(phased("target", 100e9)),
            RunnerGroup {
                app: hungry("co", 60e9),
                count: 3,
            },
        ],
        RunOptions {
            pstate: 2,
            seed: 7,
            noise_sigma: 0.008,
            ..Default::default()
        },
    );

    let partitioned_budgeted = ScenarioIr::new(
        presets::xeon_e5_2697v2(),
        vec![
            RunnerGroup::solo(hungry("target", 80e9)),
            RunnerGroup {
                app: phased("co", 40e9),
                count: 7,
            },
        ],
        RunOptions {
            pstate: 5,
            seed: 99,
            llc_partitioned: true,
            fp_budget: 32,
            max_segments: 50_000,
            ..Default::default()
        },
    );

    let faulted = ScenarioIr::new(
        presets::xeon_e5649(),
        vec![
            RunnerGroup::solo(hungry("target", 80e9)),
            RunnerGroup {
                app: hungry("co", 60e9),
                count: 2,
            },
        ],
        RunOptions {
            seed: 11,
            noise_sigma: 0.008,
            ..Default::default()
        },
    )
    .with_faults(FaultPlan::heavy(123));

    let noop_faulted = ScenarioIr::new(
        presets::xeon_e5649(),
        vec![RunnerGroup::solo(hungry("target", 80e9))],
        RunOptions::default(),
    )
    .with_faults(FaultPlan::default());

    // Event schedules: a staggered, windowed, clock-ratioed co-runner.
    // The schedule block is appended to the encoding only when some
    // field is non-default, so this entry pins the extended format while
    // the five entries above pin that lockstep scenarios still encode
    // exactly as they did before schedules existed.
    let scheduled = ScenarioIr::new(
        presets::xeon_e5649(),
        vec![
            RunnerGroup::solo(hungry("target", 80e9)),
            RunnerGroup {
                app: hungry("co", 60e9),
                count: 2,
            },
        ],
        RunOptions {
            seed: 5,
            ..Default::default()
        },
    )
    .with_schedules(vec![
        GroupSchedule::default(),
        GroupSchedule {
            phase_offset: 0.25,
            arrival_tick: 0.015625,
            departure_tick: Some(0.25),
            clock_ratio: 1.25,
        },
    ]);

    // Departure-free variant: pins the Option-tag byte in the encoding.
    let scheduled_no_departure = ScenarioIr::new(
        presets::xeon_e5649(),
        vec![
            RunnerGroup::solo(hungry("target", 80e9)),
            RunnerGroup {
                app: hungry("co", 60e9),
                count: 2,
            },
        ],
        RunOptions {
            seed: 5,
            ..Default::default()
        },
    )
    .with_schedules(vec![
        GroupSchedule::default(),
        GroupSchedule {
            phase_offset: 0.25,
            arrival_tick: 0.015625,
            departure_tick: None,
            clock_ratio: 1.25,
        },
    ]);

    // Scheduled *and* faulted: the schedule block sits after the fault
    // block, so their composition is its own encoding axis.
    let scheduled_faulted = ScenarioIr::new(
        presets::xeon_e5649(),
        vec![
            RunnerGroup::solo(hungry("target", 80e9)),
            RunnerGroup {
                app: hungry("co", 60e9),
                count: 2,
            },
        ],
        RunOptions {
            seed: 11,
            noise_sigma: 0.008,
            ..Default::default()
        },
    )
    .with_faults(FaultPlan::heavy(123))
    .with_schedules(vec![
        GroupSchedule::default(),
        GroupSchedule {
            phase_offset: 0.5,
            arrival_tick: 0.0,
            departure_tick: Some(0.125),
            clock_ratio: 1.0,
        },
    ]);

    vec![
        ("solo", solo),
        ("contended", contended),
        ("partitioned-budgeted", partitioned_budgeted),
        ("faulted-heavy", faulted),
        ("faulted-noop", noop_faulted),
        ("scheduled", scheduled),
        ("scheduled-no-departure", scheduled_no_departure),
        ("scheduled-faulted", scheduled_faulted),
    ]
}

fn render(scenarios: &[(&str, ScenarioIr)]) -> String {
    let mut out = String::new();
    for (name, ir) in scenarios {
        out.push_str(&format!("{name} = {:#034x}\n", ir.digest()));
    }
    out
}

#[test]
fn scenario_digests_match_the_checked_in_fixture() {
    let scenarios = pinned_scenarios();
    let rendered = render(&scenarios);
    check_fixture(
        &fixture_path(),
        &rendered,
        "canonical ScenarioIr encoding changed: run-cache keys and sweep \
         checkpoints in the field would be invalidated",
    );
}

/// A suite application's profile.
fn suite_app(name: &str) -> AppProfile {
    coloc_workloads::by_name(name)
        .unwrap_or_else(|| panic!("{name}: not in the suite"))
        .app
}

/// Noiseless suite mixes on the E5-2697v2 whose every segment solve
/// stops at the iteration cap without converging: the segment fixed
/// point settles into an exact cycle instead.
fn capped_scenarios() -> Vec<(&'static str, ScenarioIr)> {
    let mix = |groups: &[(&str, usize)], pstate: usize| {
        ScenarioIr::new(
            presets::xeon_e5_2697v2(),
            groups
                .iter()
                .map(|&(app, count)| RunnerGroup {
                    app: suite_app(app),
                    count,
                })
                .collect(),
            RunOptions {
                pstate,
                ..Default::default()
            },
        )
    };
    vec![
        (
            "capped-bodytrack-beside-3-fluidanimate",
            mix(&[("bodytrack", 1), ("fluidanimate", 3)], 0),
        ),
        (
            "capped-ua-with-bodytrack-ft-3-ep-p1",
            mix(&[("ua", 1), ("bodytrack", 1), ("ft", 1), ("ep", 3)], 1),
        ),
    ]
}

/// The scenarios whose outcomes are pinned: every [`pinned_scenarios`]
/// entry, plus two large co-runner groups and the [`capped_scenarios`].
/// The first large group fills the 16-core preset, which the
/// differential generator never draws. The second runs the two-phase app
/// beside eleven copies of itself, so every phase change happens under a
/// near-equal LLC split.
fn outcome_scenarios() -> Vec<(&'static str, ScenarioIr)> {
    let mut scenarios = pinned_scenarios();
    scenarios.push((
        "platinum-15-co-runners",
        ScenarioIr::new(
            presets::xeon_platinum_8153(),
            vec![
                RunnerGroup::solo(phased("target", 100e9)),
                RunnerGroup {
                    app: hungry("co", 60e9),
                    count: 15,
                },
            ],
            RunOptions {
                seed: 13,
                ..Default::default()
            },
        ),
    ));
    scenarios.push((
        "phased-beside-11-of-itself",
        ScenarioIr::new(
            presets::xeon_e5_2697v2(),
            vec![
                RunnerGroup::solo(phased("phased", 100e9)),
                RunnerGroup {
                    app: phased("phased", 100e9),
                    count: 11,
                },
            ],
            RunOptions {
                seed: 17,
                ..Default::default()
            },
        ),
    ));
    scenarios.extend(capped_scenarios());
    scenarios
}

#[test]
fn run_outcomes_match_the_checked_in_fixture() {
    let mut rendered = String::new();
    for (name, ir) in outcome_scenarios() {
        let machine = ir.machine().expect("pinned machine validates");
        let mut outcome = machine
            .run_observed(&ir.workload, ir.schedules.as_deref(), &ir.opts, None, None)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        if let Some(plan) = &ir.faults {
            plan.apply(ir.opts.seed, &mut outcome);
        }
        rendered.push_str(&format!(
            "{name} = {:#034x} segments={} fp_iterations={}\n",
            outcome.digest(),
            outcome.segments,
            outcome.fp_iterations
        ));
    }
    check_fixture(
        &outcome_fixture_path(),
        &rendered,
        "engine outcome bits changed: every memoized outcome, golden figure \
         and checkpointed sample would disagree with a fresh run",
    );
}

#[test]
fn paper_plan_samples_match_the_checked_in_fixture() {
    let mut rendered = String::new();
    for (name, spec) in [
        ("e5649", presets::xeon_e5649()),
        ("e5_2697v2", presets::xeon_e5_2697v2()),
    ] {
        let lab = Lab::new(spec, coloc_workloads::standard(), 2015).expect("preset validates");
        let samples = lab
            .collect(&lab.paper_plan())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        rendered.push_str(&format!(
            "{name} = {:#018x} samples={}\n",
            samples_digest(&samples),
            samples.len()
        ));
    }
    check_fixture(
        &sample_fixture_path(),
        &rendered,
        "paper-plan training samples at seed 2015 changed: every EXPERIMENTS \
         table and figure trained on them would move",
    );
}

#[test]
fn capped_scenarios_hit_the_segment_cap() {
    // The outcome fixture pins the capped solve only while these runs
    // still reach it: a segment that stops short of tolerance keeps its
    // residual in the trace.
    for (name, ir) in capped_scenarios() {
        let machine = ir.machine().expect("pinned machine validates");
        let mut trace = SegmentTrace::new(ir.opts.max_segments);
        let outcome = machine
            .run_observed(&ir.workload, None, &ir.opts, None, Some(&mut trace))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(trace.len(), outcome.segments, "{name}: trace is complete");
        assert!(
            trace.records().any(|r| r.residual > 0.0),
            "{name}: no segment reached the iteration cap"
        );
    }
}

#[test]
fn run_cache_keys_match_the_checked_in_fixture() {
    // The pinned digests, parsed from the fixture itself rather than
    // recomputed through `ScenarioIr::digest`.
    let path = fixture_path();
    let on_disk = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (run with COLOC_REGEN_FIXTURES=1)", path.display()));
    let pinned = |name: &str| -> u128 {
        let line = on_disk
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(" = 0x"))
            .unwrap_or_else(|| panic!("{name}: no fixture line"));
        u128::from_str_radix(line, 16).expect("fixture digest is hex")
    };
    // The first key of a scenario hashes each locality table byte by
    // byte and fills the table's digest slot for that input state, the
    // second replays the slot. Both must hit the pinned bits.
    let cache = RunCache::new(8);
    for (name, ir) in pinned_scenarios() {
        let machine = ir.machine().expect("pinned machine validates");
        let key = || {
            cache.key_for_scheduled(
                &machine,
                &ir.workload,
                &ir.opts,
                ir.faults.as_ref(),
                ir.schedules.as_deref(),
            )
        };
        let (first, replay) = (key(), key());
        assert_eq!(first, pinned(name), "{name}: first-sight cache key");
        assert_eq!(replay, pinned(name), "{name}: memo-replayed cache key");
    }
}

#[test]
fn rewritten_scalars_never_reuse_a_stale_curve() {
    // A distribution's scalars are read-only, so no curve can outlive the
    // scalars it was built from. What stays to check: tables rebuilt with
    // `power_law` from the suite's scalars carry the suite's bits.
    let run = |target: &AppProfile| {
        let ir = ScenarioIr::new(
            presets::xeon_e5649(),
            vec![
                RunnerGroup::solo(target.clone()),
                RunnerGroup {
                    app: suite_app("cg"),
                    count: 2,
                },
            ],
            RunOptions::default(),
        );
        let machine = ir.machine().expect("preset validates");
        let outcome = machine.run(&ir.workload, &ir.opts).expect("suite mix runs");
        (outcome.digest(), ir.digest())
    };
    // A suite table that has run: its block holds its curve.
    let suite = suite_app("canneal");
    let before = run(&suite);
    // The same profile on freshly built table blocks, whose memos are
    // empty.
    let mut fresh = suite.clone();
    for (p, built) in fresh.phases.iter_mut().zip(&suite.phases) {
        let d = &built.dist;
        p.dist = StackDistanceDist::power_law(d.reuse_span(), d.alpha(), d.p_new());
        assert!(!p.dist.shares_tables(d));
    }
    assert_eq!(run(&fresh), before, "a rebuild has the suite's bits");
}

#[test]
fn pinned_digests_are_pairwise_distinct() {
    let scenarios = pinned_scenarios();
    for (i, (na, a)) in scenarios.iter().enumerate() {
        for (nb, b) in &scenarios[i + 1..] {
            assert_ne!(a.digest(), b.digest(), "{na} collides with {nb}");
        }
    }
}

#[test]
fn default_schedules_leave_every_pinned_digest_unchanged() {
    // An all-default schedule vector is canonicalized away: attaching it
    // to *any* scenario must reproduce the schedule-free digest exactly.
    // This is the compatibility contract that keeps pre-event cache
    // entries, checkpoints, and corpus digests valid.
    for (name, ir) in pinned_scenarios() {
        let n = ir.workload.len();
        let with_defaults = ir.clone().with_schedules(vec![GroupSchedule::default(); n]);
        if ir
            .schedules
            .as_deref()
            .is_none_or(|s| s.iter().all(GroupSchedule::is_default))
        {
            assert_eq!(
                ir.digest(),
                with_defaults.digest(),
                "{name}: default schedules moved the digest"
            );
        } else {
            // A genuinely scheduled scenario must NOT collide with its
            // lockstep shadow — the block has to be hashed when present.
            assert_ne!(
                ir.digest(),
                with_defaults.digest(),
                "{name}: schedule block is not part of the digest"
            );
        }
    }
}

#[test]
fn digest64_is_stable_too() {
    // `Lab::plan_digest` folds the 64-bit projection; pin its relation to
    // the full digest rather than a second fixture.
    for (name, ir) in pinned_scenarios() {
        let d = ir.digest();
        assert_eq!(
            ir.digest64(),
            (d >> 64) as u64 ^ d as u64,
            "{name}: digest64 is no longer the folded 128-bit digest"
        );
    }
}

/// `n` seeded 2- and 3-group mixes over `lab`'s suite at any of its
/// P-states, each fitting the machine's cores. Some co-groups repeat an
/// application, and some carry a zero count, which lowering drops.
fn seeded_mixes(lab: &Lab, seed: u64, n: usize) -> Vec<Scenario> {
    let mut rng = StdRng::seed_from_u64(seed);
    let names: Vec<&str> = lab.suite().iter().map(|b| b.name).collect();
    let spec = lab.machine().spec();
    let pick = |rng: &mut StdRng| names[rng.gen_range(0..names.len())].to_string();
    (0..n)
        .map(|i| {
            let target = pick(&mut rng);
            let groups = 1 + i % 2;
            let mut free = spec.cores - 1;
            let co_located = (0..groups)
                .map(|_| {
                    let count = rng.gen_range(0..=free.min(4));
                    free -= count;
                    (pick(&mut rng), count)
                })
                .collect();
            Scenario {
                target,
                co_located,
                pstate: rng.gen_range(0..spec.num_pstates()),
            }
        })
        .collect()
}

#[test]
fn plan_digest_equals_a_fold_over_owned_scenario_digests() {
    // `Lab::plan_digest` keys each scenario through the lab's per-app
    // digest slots; `ScenarioIr::digest64` of the owned lowering takes
    // the byte-by-byte path. The fold below is `plan_digest`'s documented
    // layout: seed, noise σ, fault-plan digest, machine name and scenario
    // count, then per scenario `1` and its 64-bit IR digest, or `0` and
    // its label when it does not lower.
    for spec in [presets::xeon_e5649(), presets::xeon_e5_2697v2()] {
        let clean = Lab::new(spec.clone(), coloc_workloads::standard(), 2015).unwrap();
        let faulted = Lab::new(spec, coloc_workloads::standard(), 7)
            .unwrap()
            .with_faults(FaultPlan::light(3))
            .unwrap();
        for lab in [clean, faulted] {
            let mut scenarios = lab.paper_plan().scenarios();
            scenarios.extend(seeded_mixes(&lab, 29, 240));
            scenarios.push(Scenario::homogeneous("canneal", "doom", 2, 0));
            let mut fold = IrWriter::new();
            fold.u64(lab.seed());
            fold.f64(DEFAULT_NOISE_SIGMA);
            fold.u64(lab.fault_plan().map_or(0, FaultPlan::digest));
            fold.str(&lab.machine().spec().name);
            fold.usize(scenarios.len());
            for sc in &scenarios {
                match lab.scenario_ir(sc) {
                    Ok(ir) => {
                        fold.byte(1);
                        fold.u64(ir.digest64());
                    }
                    Err(_) => {
                        fold.byte(0);
                        fold.str(&sc.label());
                    }
                }
            }
            let name = &lab.machine().spec().name;
            let expected = fold.finish64();
            // Cold slots, then warm ones: both must give the fold's bits.
            assert_eq!(lab.plan_digest(&scenarios), expected, "{name}: cold slots");
            assert_eq!(lab.plan_digest(&scenarios), expected, "{name}: warm slots");
        }
    }
}
