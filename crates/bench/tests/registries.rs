//! The name-matching contract shared by every registry: policies,
//! reservations, topologies, environment models, scenarios and chaos
//! campaigns all resolve through `coefficient::registry::lookup`, so one
//! rule holds for all six and one test checks it.

use bench_harness::chaos::CAMPAIGNS;
use bench_harness::sweep::SCENARIOS;
use coefficient::registry::{keys, lookup, Named};

/// Every key, label and alias of `entries` resolves to its own entry when
/// upper-cased and space-padded; an unknown name's message names the
/// kind and the offender and lists every key.
fn check_table<T: Named>(entries: &'static [T]) {
    for entry in entries {
        let spellings = [entry.key(), entry.label()]
            .into_iter()
            .chain(entry.aliases().iter().copied());
        for spelling in spellings {
            let padded = format!("  {}\t", spelling.to_ascii_uppercase());
            let found = lookup(entries, &padded)
                .unwrap_or_else(|e| panic!("{:?} does not resolve: {e}", padded));
            assert_eq!(found.key(), entry.key(), "{padded:?}");
        }
    }
    let message = lookup(entries, "no-such-name")
        .err()
        .expect("no entry is named no-such-name")
        .to_string();
    assert!(
        message.starts_with(&format!("unknown {} \"no-such-name\"", T::KIND)),
        "{message}"
    );
    for key in keys(entries) {
        assert!(message.contains(key), "{message} does not list {key}");
    }
}

#[test]
fn all_six_registries_match_names_by_one_rule() {
    check_table(coefficient::registry::ALL);
    check_table(backbone::ALL_RESERVATIONS);
    check_table(backbone::topology::all());
    check_table(fleet::env::all());
    check_table(&SCENARIOS);
    check_table(&CAMPAIGNS);
}

#[test]
fn every_spelling_accepted_before_the_shared_lookup_still_resolves() {
    let policies = [
        ("coefficient", "coefficient"),
        ("CoEfficient", "coefficient"),
        ("co", "coefficient"),
        ("FSPEC", "fspec"),
        (" hosa ", "hosa"),
        ("greedy", "greedy"),
        ("slack-steal", "slack-steal"),
        ("slacksteal", "slack-steal"),
        ("slack_steal", "slack-steal"),
        ("SlackSteal", "slack-steal"),
        ("match-up", "matchup"),
        ("Matchup", "matchup"),
    ];
    for (name, key) in policies {
        assert_eq!(lookup(coefficient::registry::ALL, name).unwrap().key(), key);
    }
    let reservations = [
        ("per-cycle", "per-cycle"),
        ("percycle", "per-cycle"),
        ("Baseline", "per-cycle"),
        ("Per-cycle gate columns", "per-cycle"),
        (" HYPER ", "hypercycle"),
        ("Hypercycle window packing", "hypercycle"),
    ];
    for (name, key) in reservations {
        assert_eq!(lookup(backbone::ALL_RESERVATIONS, name).unwrap().key, key);
    }
    assert_eq!(
        lookup(backbone::topology::all(), "  Paper-Duplex ")
            .unwrap()
            .name,
        "paper-duplex"
    );
    assert_eq!(
        lookup(fleet::env::all(), "HIGHWAY").unwrap().name,
        "highway"
    );
    // The golden corpus stores scenario display names (`BER-7-storm`).
    let scenarios = [
        ("ber7", "BER-7"),
        ("ber-7", "BER-7"),
        ("BER-7", "BER-7"),
        ("ber7-bursty", "BER-7-bursty"),
        ("ber-7-bursty", "BER-7-bursty"),
        ("ber7-storm", "BER-7-storm"),
        ("BER-7-storm", "BER-7-storm"),
        ("ber9", "BER-9"),
        ("BER-9-storm", "BER-9-storm"),
        ("ber-9-bursty", "BER-9-bursty"),
        ("fault-free", "fault-free"),
        ("faultfree", "fault-free"),
        ("faultfree-bursty", "fault-free-bursty"),
        ("fault-free-storm", "fault-free-storm"),
    ];
    for (name, built) in scenarios {
        let scenario = bench_harness::sweep::parse_scenario(name).unwrap();
        assert_eq!(scenario.name, built, "{name:?}");
    }
    for name in ["blackout", "double-blackout", "spike", "babble", "dropout"] {
        assert_eq!(lookup(&CAMPAIGNS, name).unwrap().name, name);
    }
}

#[test]
fn scenario_variants_carry_their_fault_models() {
    use coefficient::FaultModel;
    let bursty = bench_harness::sweep::parse_scenario("ber7-bursty").unwrap();
    let storm = bench_harness::sweep::parse_scenario("ber7-storm").unwrap();
    assert_eq!(bursty, coefficient::Scenario::ber7().bursty());
    assert_eq!(storm, coefficient::Scenario::ber7().storm());
    assert!(matches!(
        bench_harness::sweep::parse_scenario("ber9")
            .unwrap()
            .fault_model,
        FaultModel::Bernoulli
    ));
}
