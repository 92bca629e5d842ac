//! CLI error-path contract for the `experiments` binary.
//!
//! An unknown policy name anywhere in the CLI — `sweep`, `replay`,
//! `trace` or a corrupted golden corpus — must produce a diagnostic that
//! *lists every registered policy name* and a clean non-zero exit, never
//! a panic. The listing comes from `coefficient::registry`, so these
//! tests stay correct as the zoo grows.

use bench_harness::experiments::SEED;
use bench_harness::golden::{corpus_to_json, record_corpus};
use bench_harness::sweep::SweepSpec;
use coefficient::Scenario;
use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn assert_lists_registry(stderr: &str, bad_name: &str) {
    assert!(
        stderr.contains(&format!("unknown policy \"{bad_name}\"")),
        "diagnostic does not name the offender: {stderr}"
    );
    for policy in coefficient::registry::all() {
        assert!(
            stderr.contains(policy.key()),
            "diagnostic does not list {:?}: {stderr}",
            policy.key()
        );
    }
}

#[test]
fn sweep_with_an_unknown_policy_lists_the_registered_names() {
    let out = experiments(&["sweep", "--policy", "bogus"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert_lists_registry(&stderr, "bogus");
}

#[test]
fn trace_with_an_unknown_policy_lists_the_registered_names() {
    let out = experiments(&["trace", "--cell", "0,0,0", "--policy", "SPEC-F"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert_lists_registry(&stderr, "SPEC-F");
}

#[test]
fn replay_with_an_unknown_policy_lists_the_registered_names() {
    let out = experiments(&["replay", "--cell", "0,0,0", "--policy", "hosa2"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert_lists_registry(&stderr, "hosa2");
}

#[test]
fn golden_verify_against_a_corpus_with_an_unknown_policy_lists_the_registry() {
    // Record a real (tiny) corpus, then corrupt its policy column the way
    // a stale file from a renamed policy would look.
    let spec = SweepSpec {
        horizon_ms: 8,
        seeds: 1,
        scenarios: vec![Scenario::ber7()],
        threads: Some(2),
        ..SweepSpec::default()
    };
    let recorded = record_corpus("cli-bad-policy", &spec).expect("tiny spec is schedulable");
    let doc = corpus_to_json(&recorded)
        .to_string()
        .replace("\"CoEfficient\"", "\"NoSuchPolicy\"");
    let path = std::env::temp_dir().join(format!("cli-bad-policy-{SEED}.json"));
    std::fs::write(&path, doc).expect("temp corpus writes");

    let out = experiments(&["golden", "verify", "--corpus", path.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert_lists_registry(&stderr, "NoSuchPolicy");
}

#[test]
fn a_misspelled_subcommand_lists_the_subcommands_and_figures() {
    // Any positional argument that is not a subcommand is read as a figure
    // name, so a typo must not fall through to an empty figure run.
    let out = experiments(&["swep"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing may run");
    assert!(
        stderr.contains("unknown subcommand or figure \"swep\""),
        "diagnostic does not name the offender: {stderr}"
    );
    for name in [
        "sweep",
        "golden",
        "trace-overhead",
        "fig1",
        "fig4d",
        "fig5",
        "faults",
    ] {
        assert!(
            stderr.contains(name),
            "diagnostic does not list {name:?}: {stderr}"
        );
    }
}

#[test]
fn a_known_figure_name_still_runs() {
    // Happy-path twin of the misspelling test above.
    let out = experiments(&["fig5"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("Figure 5"));
}

fn assert_lists_scenarios(stderr: &str, bad_name: &str) {
    assert!(
        stderr.contains(&format!("unknown scenario \"{bad_name}\"")),
        "diagnostic does not name the offender: {stderr}"
    );
    for name in bench_harness::sweep::scenario_names() {
        assert!(
            stderr.contains(name),
            "diagnostic does not list {name:?}: {stderr}"
        );
    }
}

#[test]
fn sweep_with_an_unknown_scenario_lists_the_valid_names() {
    let out = experiments(&["sweep", "--scenario", "ber11"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert_lists_scenarios(&stderr, "ber11");
}

#[test]
fn chaos_with_an_unknown_scenario_lists_the_valid_names() {
    let out = experiments(&["chaos", "--scenario", "sunny-day"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert_lists_scenarios(&stderr, "sunny-day");
}

#[test]
fn chaos_with_an_unknown_campaign_lists_the_pinned_names() {
    let out = experiments(&["chaos", "--campaign", "earthquake"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("unknown campaign \"earthquake\""),
        "diagnostic does not name the offender: {stderr}"
    );
    for name in bench_harness::chaos::campaign_names() {
        assert!(
            stderr.contains(name),
            "diagnostic does not list {name:?}: {stderr}"
        );
    }
}

fn assert_lists_env_models(stderr: &str) {
    for name in fleet::env_names() {
        assert!(
            stderr.contains(name),
            "diagnostic does not list {name:?}: {stderr}"
        );
    }
}

#[test]
fn fleet_with_an_unknown_env_lists_the_valid_models() {
    let out = experiments(&["fleet", "--env", "parking-lot"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("unknown environment model \"parking-lot\""),
        "diagnostic does not name the offender: {stderr}"
    );
    assert_lists_env_models(&stderr);
}

#[test]
fn fleet_with_zero_vehicles_lists_the_valid_models() {
    let out = experiments(&["fleet", "--vehicles", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("--vehicles >= 1"),
        "diagnostic does not explain the bound: {stderr}"
    );
    assert_lists_env_models(&stderr);
}

#[test]
fn fleet_with_an_unknown_policy_lists_the_registered_names() {
    let out = experiments(&["fleet", "--policy", "bogus"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert_lists_registry(&stderr, "bogus");
}

#[test]
fn every_env_model_is_accepted_by_the_fleet_cli() {
    // Happy path of `--env`: every registered model parses and a tiny
    // fleet completes — keeps the error tests honest against registry
    // typos, like the sweep-side twin below.
    for name in fleet::env_names() {
        let out = experiments(&[
            "fleet",
            "--env",
            name,
            "--vehicles",
            "4",
            "--horizon-ms",
            "5",
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{name:?} rejected: {stderr}");
    }
}

#[test]
fn backbone_with_an_unknown_topology_lists_the_registered_names() {
    let out = experiments(&["backbone", "--topology", "star-of-death"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("unknown topology \"star-of-death\""),
        "diagnostic does not name the offender: {stderr}"
    );
    for name in backbone::topology::names() {
        assert!(
            stderr.contains(name),
            "diagnostic does not list {name:?}: {stderr}"
        );
    }
}

#[test]
fn backbone_with_an_unknown_reservation_lists_the_registered_names() {
    let out = experiments(&["backbone", "--reservation", "first-come"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("unknown reservation \"first-come\""),
        "diagnostic does not name the offender: {stderr}"
    );
    for name in backbone::reservation::names() {
        assert!(
            stderr.contains(name),
            "diagnostic does not list {name:?}: {stderr}"
        );
    }
}

#[test]
fn every_registered_topology_and_reservation_is_accepted_by_the_backbone_cli() {
    // Happy path of both backbone registries, same spirit as the
    // sweep-side twin: every registered name must parse and complete.
    for topology in backbone::topology::names() {
        for reservation in backbone::reservation::names() {
            let out = experiments(&[
                "backbone",
                "--topology",
                topology,
                "--reservation",
                reservation,
                "--hypercycles",
                "2",
            ]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(0),
                "{topology:?}/{reservation:?} rejected: {stderr}"
            );
        }
    }
}

#[test]
fn every_registered_name_is_accepted_by_the_sweep_cli() {
    // The happy path of the same flag: each registry key parses and the
    // single-cell sweep completes. Keeps the error tests honest — a typo
    // in the registry keys would otherwise pass them vacuously.
    for policy in coefficient::registry::all() {
        let out = experiments(&[
            "sweep",
            "--policy",
            policy.key(),
            "--seeds",
            "1",
            "--horizon-ms",
            "8",
            "--scenario",
            "ber7",
            "--json",
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{:?} rejected: {stderr}",
            policy.key()
        );
    }
}
