//! Run every metamorphic law over its budget of generated seeds. A
//! scenario-based violation is shrunk and persisted to the corpus before
//! the test panics.

use coloc_conformance::{all_laws, check_law, default_corpus_dir, law_by_name};

/// Base seed for law sweeps; each law's case `i` uses `LAW_SEED + i`.
const LAW_SEED: u64 = 0x1A55;

fn run_law(name: &str) {
    let laws = all_laws();
    let law = law_by_name(&laws, name).unwrap();
    let seeds = (LAW_SEED..).take(law.cases_per_run());
    check_law(law, seeds, &default_corpus_dir()).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn monotone_co_runner_law_holds() {
    run_law("monotone-co-runner");
}

#[test]
fn solo_unity_law_holds() {
    run_law("solo-unity");
}

#[test]
fn permutation_invariance_law_holds() {
    run_law("permutation-invariance");
}

#[test]
fn metric_scale_invariance_law_holds() {
    run_law("metric-scale-invariance");
}

#[test]
fn feature_nesting_law_holds() {
    run_law("feature-nesting");
}

#[test]
fn arrival_order_invariance_law_holds() {
    run_law("arrival-order-invariance");
}

#[test]
fn lockstep_degeneracy_law_holds() {
    run_law("lockstep-degeneracy");
}

#[test]
fn departure_at_end_noop_law_holds() {
    run_law("departure-at-end-noop");
}

#[test]
fn matrix_identical_pair_symmetry_law_holds() {
    run_law("matrix-identical-pair-symmetry");
}

#[test]
fn mixed_pair_order_invariance_law_holds() {
    run_law("mixed-pair-order-invariance");
}

#[test]
fn every_law_is_covered_by_a_named_test_above() {
    // If a new law lands in `all_laws`, this forces a matching test.
    let names: Vec<_> = all_laws().iter().map(|l| l.name()).collect();
    assert_eq!(
        names,
        vec![
            "monotone-co-runner",
            "solo-unity",
            "permutation-invariance",
            "metric-scale-invariance",
            "feature-nesting",
            "arrival-order-invariance",
            "lockstep-degeneracy",
            "departure-at-end-noop",
            "matrix-identical-pair-symmetry",
            "mixed-pair-order-invariance",
        ]
    );
}
