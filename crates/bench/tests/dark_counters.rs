//! The run counters that no pinned output exercises.
//!
//! The pinned outputs are the checked-in golden corpus and the five chaos
//! campaigns behind `corpus/chaos_digests.txt` (CoEfficient and Greedy at
//! `CHAOS_SEED` over `DEFAULT_HORIZON_CYCLES`). A counter that is zero in
//! all of them is not checked by any of them, so the list below names
//! each such counter with the reason it stays zero. A counter that goes
//! dark, or one that a new pinned run brings to life, fails here until
//! the list is updated.

use std::path::Path;

use bench_harness::chaos::{
    chaos_scenario, run_campaign, ChaosContract, CAMPAIGNS, CHAOS_SEED, DEFAULT_HORIZON_CYCLES,
};
use bench_harness::golden::load_corpus;
use coefficient::{RunCounters, Scenario, COEFFICIENT, GREEDY};

/// Every counter that is zero in every golden cell and every chaos
/// scorecard, in `RunCounters::fields` order, with the reason.
const DARK: [(&str, &str); 3] = [
    (
        "steal_denied",
        "every SAE frame fits a static slot, so the online denial path is \
         not reached on the pinned geometries (ROADMAP item 14)",
    ),
    (
        "dropped_copies",
        "static slack is plentiful in every pinned run, so the selective \
         criterion never drops a copy (ROADMAP item 14)",
    ),
    (
        "preemptions",
        "FlexRay slots are non-preemptive: the scheduler writes a literal 0 \
         (ROADMAP item 15)",
    ),
];

/// Marks each counter whose value in `counters` (in
/// `RunCounters::fields` order) is nonzero.
fn mark(exercised: &mut [bool; 20], counters: [u64; 20]) {
    for (seen, value) in exercised.iter_mut().zip(counters) {
        *seen |= value != 0;
    }
}

#[test]
fn only_the_listed_counters_are_zero_in_every_pinned_output() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus/golden.json");
    let corpus = load_corpus(Path::new(path)).expect("the checked-in corpus loads");
    let mut exercised = [false; 20];
    for cell in &corpus.cells {
        mark(&mut exercised, cell.counters);
    }
    for campaign in &CAMPAIGNS {
        let scenario = chaos_scenario(Scenario::ber7(), campaign.name, (campaign.build)());
        let cards = run_campaign(
            &scenario,
            &[COEFFICIENT, GREEDY],
            DEFAULT_HORIZON_CYCLES,
            CHAOS_SEED,
            1,
            ChaosContract::default(),
        )
        .expect("every pinned campaign schedules");
        for card in &cards {
            mark(
                &mut exercised,
                card.counters.fields().map(|(_, value)| value),
            );
        }
    }
    let names = RunCounters::default().fields().map(|(name, _)| name);
    let dark: Vec<_> = names
        .into_iter()
        .zip(exercised)
        .filter_map(|(name, seen)| (!seen).then_some(name))
        .collect();
    assert_eq!(
        dark,
        DARK.map(|(name, _)| name),
        "the counters no pinned output exercises"
    );
}
