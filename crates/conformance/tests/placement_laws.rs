//! Run every placement law over its budget of generated seeds. A
//! violation is shrunk and persisted to `corpus/placement/` before the
//! test panics — the same routine as the engine laws. The checked-in
//! placement corpus replays with the engine corpus, through
//! `verify_dir`, in the root package's `differential` suite.

use coloc_conformance::{
    check_law, default_corpus_dir, law_by_name, placement_corpus_dir, placement_laws, shrink, Law,
    PlacementCase,
};

/// Base seed for placement-law sweeps; each law's case `i` uses
/// `PLACEMENT_LAW_SEED + i`.
const PLACEMENT_LAW_SEED: u64 = 0x9_1A55;

fn check(law: &dyn Law<PlacementCase>, seeds: impl IntoIterator<Item = u64>) {
    let dir = placement_corpus_dir(&default_corpus_dir());
    check_law(law, seeds, &dir).unwrap_or_else(|e| panic!("{e}"));
}

fn run_law(name: &str) {
    let laws = placement_laws();
    let law = law_by_name(&laws, name).unwrap();
    check(law, (PLACEMENT_LAW_SEED..).take(law.cases_per_run()));
}

#[test]
fn placement_permutation_law_holds() {
    run_law("placement-permutation");
}

#[test]
fn placement_solo_regret_law_holds() {
    run_law("placement-solo-regret");
}

#[test]
fn placement_empty_machine_law_holds() {
    run_law("placement-empty-machine");
}

/// Wide sweep of every placement law (50 seeds each) — too slow for the
/// default suite; CI's placement job and `cargo test -- --ignored` run
/// it. The empty-machine law's monotone arm is the one with theoretical
/// room for Graham-style anomalies, so it gets the deep soak.
#[test]
#[ignore = "wide sweep; run explicitly or in CI"]
fn placement_laws_hold_over_a_wide_seed_sweep() {
    for law in placement_laws() {
        check(
            law.as_ref(),
            PLACEMENT_LAW_SEED + 1000..PLACEMENT_LAW_SEED + 1050,
        );
    }
}

#[test]
fn every_placement_law_is_covered_by_a_named_test_above() {
    let names: Vec<_> = placement_laws().iter().map(|l| l.name()).collect();
    assert_eq!(
        names,
        vec![
            "placement-permutation",
            "placement-solo-regret",
            "placement-empty-machine",
        ]
    );
}

#[test]
fn shrinker_reaches_a_minimal_failing_case() {
    // Shrink with a predicate that keeps "jobs >= 4 on a non-e5649
    // machine" failing — the shrinker must drive everything else to its
    // floor without escaping the predicate.
    let laws = placement_laws();
    let law = law_by_name(&laws, "placement-permutation").unwrap();
    let case = law.case_for_seed(PLACEMENT_LAW_SEED + 1).unwrap();
    let shrunk = shrink(&case, |c| c.jobs >= 4);
    assert_eq!(shrunk.jobs, 4);
    assert_eq!(shrunk.sockets, 1);
    assert_eq!(shrunk.machine, "e5649");
    assert_eq!(
        shrunk.mix,
        coloc_placement::ClassMix::uniform().weights,
        "mix simplifies to uniform"
    );
}
