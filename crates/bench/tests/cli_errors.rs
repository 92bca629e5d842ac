//! CLI error-path contract for the `experiments` binary.
//!
//! An unknown name anywhere in the CLI — a policy, scenario, campaign,
//! environment, topology or reservation, a flag, or a corrupted golden
//! corpus — must produce a diagnostic that *lists every valid name* and
//! exit 2, never a panic or a silent default. The listings come from the
//! registries themselves, so these tests stay correct as they grow.

use bench_harness::experiments::SEED;
use bench_harness::golden::{corpus_to_json, record_corpus};
use bench_harness::sweep::SweepSpec;
use coefficient::registry::keys;
use coefficient::Scenario;
use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("binary runs")
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
    assert_lists(
        &stderr,
        "policy",
        "NoSuchPolicy",
        &keys(coefficient::registry::ALL),
    );
}

#[test]
fn golden_verify_against_a_deeply_nested_corpus_exits_2() {
    // 200,000 open brackets used to overflow the parser's stack (exit 134).
    let path = std::env::temp_dir().join(format!("cli-deep-nesting-{SEED}.json"));
    std::fs::write(&path, "[".repeat(200_000)).expect("temp corpus writes");
    let out = experiments(&["golden", "verify", "--corpus", path.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("nest deeper than 128 levels"),
        "diagnostic does not name the defect: {stderr}"
    );
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
fn help_lists_every_subcommand_with_its_flags_and_exits_0() {
    // `--help`, `-h` and `help` used to exit 2 as an unknown flag or figure.
    for arg in ["--help", "-h", "help"] {
        let out = experiments(&[arg]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{arg}: {out:?}");
        assert!(out.stderr.is_empty(), "{arg}: {out:?}");
        // Each subcommand's own row carries its flags: the first flag sits
        // on the name's line.
        for (name, flag) in [
            ("sweep", "--seeds <value>"),
            ("golden", "--out <value>"),
            ("chaos", "--campaign <value>"),
            ("cycles", "--iters <value>"),
            ("backbone", "--topology <value>"),
            ("trace-overhead", "--cell <value>"),
        ] {
            assert!(
                stdout
                    .lines()
                    .any(|l| l.split_whitespace().next() == Some(name) && l.contains(flag)),
                "{arg}: no {name} row with {flag}: {stdout}"
            );
        }
        for flag in [
            "--shared-seeds",
            "--smoke",
            "--flows",
            "--stats-every-ms <value>",
        ] {
            assert!(stdout.contains(flag), "{arg}: {flag} missing: {stdout}");
        }
        for figure in ["fig1", "fig4d", "verify"] {
            assert!(stdout.contains(figure), "{arg}: {figure} missing: {stdout}");
        }
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

#[test]
fn fleet_with_zero_vehicles_lists_the_valid_models() {
    let out = experiments(&["fleet", "--vehicles", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("--vehicles >= 1"),
        "diagnostic does not explain the bound: {stderr}"
    );
    for name in keys(fleet::env::all()) {
        assert!(
            stderr.contains(name),
            "diagnostic does not list {name:?}: {stderr}"
        );
    }
}

#[test]
fn every_env_model_is_accepted_by_the_fleet_cli() {
    // Happy path of `--env`: every registered model parses and a tiny
    // fleet completes — keeps the error tests honest against registry
    // typos, like the sweep-side twin below.
    for name in keys(fleet::env::all()) {
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
fn every_registered_topology_and_reservation_is_accepted_by_the_backbone_cli() {
    // Happy path of both backbone registries, same spirit as the
    // sweep-side twin: every registered name must parse and complete.
    for topology in keys(backbone::topology::all()) {
        for reservation in keys(backbone::ALL_RESERVATIONS) {
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

#[test]
fn every_unknown_name_exits_2_with_its_registry_listing() {
    let policies = keys(coefficient::registry::ALL);
    let scenarios = keys(&bench_harness::sweep::SCENARIOS);
    let cases: [(&[&str], &str, &str, Vec<&str>); 10] = [
        (
            &["sweep", "--policy", "bogus"],
            "policy",
            "bogus",
            policies.clone(),
        ),
        (
            &["trace", "--cell", "0,0,0", "--policy", "SPEC-F"],
            "policy",
            "SPEC-F",
            policies.clone(),
        ),
        (
            &["replay", "--cell", "0,0,0", "--policy", "hosa2"],
            "policy",
            "hosa2",
            policies.clone(),
        ),
        (&["fleet", "--policy", "bogus"], "policy", "bogus", policies),
        (
            &["sweep", "--scenario", "ber11"],
            "scenario",
            "ber11",
            scenarios.clone(),
        ),
        (
            &["chaos", "--scenario", "sunny-day"],
            "scenario",
            "sunny-day",
            scenarios,
        ),
        (
            &["chaos", "--campaign", "earthquake"],
            "campaign",
            "earthquake",
            bench_harness::chaos::campaign_names(),
        ),
        (
            &["fleet", "--env", "parking-lot"],
            "environment model",
            "parking-lot",
            keys(fleet::env::all()),
        ),
        (
            &["backbone", "--topology", "star-of-death"],
            "topology",
            "star-of-death",
            keys(backbone::topology::all()),
        ),
        (
            &["backbone", "--reservation", "first-come"],
            "reservation",
            "first-come",
            keys(backbone::ALL_RESERVATIONS),
        ),
    ];
    for (args, kind, bad, valid) in cases {
        let out = experiments(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_lists(&stderr, kind, bad, &valid);
    }
}

fn assert_lists(stderr: &str, kind: &str, bad_name: &str, valid: &[&str]) {
    assert!(
        stderr.contains(&format!("unknown {kind} \"{bad_name}\"")),
        "diagnostic does not name the offender: {stderr}"
    );
    for name in valid {
        assert!(
            stderr.contains(name),
            "diagnostic does not list {name:?}: {stderr}"
        );
    }
}

#[test]
fn a_misspelled_flag_exits_2_and_lists_the_subcommands_flags() {
    // `--polcy` used to be ignored: the sweep ran every default policy.
    let out = experiments(&["sweep", "--polcy", "fspec"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing may run");
    assert_lists(
        &stderr,
        "flag",
        "--polcy",
        &[
            "--policy",
            "--seeds",
            "--scenario",
            "--shared-seeds",
            "--json",
        ],
    );
}

#[test]
fn a_value_flag_without_a_value_exits_2() {
    // `--seeds` with nothing after it used to run the default 8 seeds.
    for args in [&["sweep", "--seeds"][..], &["sweep", "--seeds", "--json"]] {
        let out = experiments(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "nothing may run");
        assert!(
            stderr.contains("--seeds needs a value"),
            "diagnostic does not name the flag: {stderr}"
        );
    }
}

#[test]
fn every_flag_the_ci_workflow_passes_is_accepted() {
    // Happy-path twin of the flag checks: the CI invocations of each
    // subcommand, shrunk to tiny runs where a flag allows it. Reports are
    // written into a scratch working directory.
    let dir = std::env::temp_dir().join(format!("cli-ci-flags-{SEED}"));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cases = [
        "sweep --seeds 1 --horizon-ms 8 --threads 2 --policy fspec --scenario ber7 \
         --master-seed 3 --minislots 50 --shared-seeds --json",
        "determinism --thread-counts 1,2 --policy coefficient --policy matchup \
         --scenario ber7 --scenario ber7-storm --seeds 1 --horizon-ms 8",
        "chaos --campaign spike --policy coefficient --policy greedy \
         --require coefficient --threads 2 --out chaos.json",
        "fleet --smoke --vehicles 4 --horizon-ms 5 --threads 2 --shard-size 3 \
         --out fleet.json --bench-out bench-fleet.json",
        "backbone --topology tight-backbone --threads 2 --flows --hypercycles 2 \
         --out backbone.json",
        "trace --cell 0,2,1 --golden --format chrome --out trace.chrome.json",
    ];
    for case in cases {
        let run = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(case.split_whitespace())
            .current_dir(&dir)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(0), "{case:?} rejected: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// What a `--minislots` the paper cycle cannot fit must say: the flag and
/// the `ConfigError` behind the refusal.
const TOO_MANY_MINISLOTS: &str = "--minislots: 100000 (SegmentsExceedCycle";

#[test]
fn inputs_that_used_to_panic_exit_2_naming_the_flag() {
    // Each of these hit a library assert or `expect` (exit 101), tried to
    // allocate hundreds of gigabytes (exit 134), or ran a degenerate
    // zero-length experiment and exited 0; the CLI now rejects them
    // before the library sees them.
    let cases: [(&[&str], &str); 19] = [
        (
            &["chaos", "--policy", "greedy", "--require", "coefficient"],
            "--require",
        ),
        (&["chaos", "--threads", "0"], "--threads"),
        (&["sweep", "--threads", "0"], "--threads"),
        (&["determinism", "--thread-counts", "0"], "--thread-counts"),
        (&["trace-overhead", "--iters", "0"], "--iters"),
        (&["backbone", "--hypercycles", "0"], "--hypercycles"),
        (
            &["backbone", "--hypercycles", "1000000000"],
            "--hypercycles must be at most",
        ),
        (&["sweep", "--seeds", "0"], "--seeds"),
        (&["sweep", "--horizon-ms", "0"], "--horizon-ms"),
        (&["fleet", "--horizon-ms", "0"], "--horizon-ms"),
        (&["chaos", "--horizon-cycles", "0"], "--horizon-cycles"),
        (&["sweep", "--minislots", "100000"], TOO_MANY_MINISLOTS),
        (
            &["replay", "--cell", "0,0,0", "--minislots", "100000"],
            TOO_MANY_MINISLOTS,
        ),
        (
            &["trace", "--cell", "0,0,0", "--minislots", "100000"],
            TOO_MANY_MINISLOTS,
        ),
        (
            &["determinism", "--minislots", "100000"],
            TOO_MANY_MINISLOTS,
        ),
        (&["fleet", "--minislots", "100000"], TOO_MANY_MINISLOTS),
        // These ran: fleet and backbone with "0 threads", storm-smoke
        // with an empty horizon that then failed its gate (exit 1).
        (&["fleet", "--vehicles", "4", "--threads", "0"], "--threads"),
        (
            &["backbone", "--hypercycles", "2", "--threads", "0"],
            "--threads",
        ),
        (&["storm-smoke", "--horizon-ms", "0"], "--horizon-ms"),
    ];
    for (args, flag) in cases {
        let out = experiments(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(flag) && !stderr.contains("panicked"),
            "{args:?}: diagnostic does not name {flag}: {stderr}"
        );
    }
}

#[test]
fn malformed_arguments_exit_2_before_anything_runs() {
    // Each of these used to run: a positional word was ignored (`cycles
    // smoke` ran the full matrix), a NaN or infinite `--tolerance` turned
    // the gate into a pass and a negative one into a failure, a second
    // `--seeds` was silently dropped, `trace --golden` ignored the sweep
    // flags and `cycles --tolerance` without `--baseline` ran the whole
    // matrix and gated nothing.
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus/golden.json");
    let golden = |flag: &'static [&'static str]| -> Vec<&'static str> {
        let mut args = vec!["trace", "--golden", "--cell", "0,2,1"];
        args.extend(flag);
        args
    };
    let sweep_flags: [&[&str]; 8] = [
        &["--seeds", "9"],
        &["--horizon-ms", "5"],
        &["--master-seed", "1"],
        &["--minislots", "40"],
        &["--threads", "2"],
        &["--policy", "greedy"],
        &["--scenario", "ber7"],
        &["--shared-seeds"],
    ];
    let traced: Vec<(Vec<&str>, &str)> = sweep_flags
        .into_iter()
        .map(|flag| (golden(flag), flag[0]))
        .collect();
    let cases: [(&[&str], &str); 12] = [
        (&["cycles", "smoke"], "\"smoke\""),
        (&["storm-smoke", "5"], "\"5\""),
        (&["replay", "ber7", "--cell", "0,0,0"], "\"ber7\""),
        (
            &["golden", "verify", "--corpus", corpus, "extra"],
            "\"extra\"",
        ),
        (&["trace-overhead", "--tolerance", "nan"], "--tolerance"),
        (&["trace-overhead", "--tolerance", "-0.05"], "--tolerance"),
        (&["trace-overhead", "--tolerance", "inf"], "--tolerance"),
        (&["cycles", "--tolerance", "NaN"], "--tolerance"),
        (
            &["sweep", "--seeds", "1", "--seeds", "2", "--horizon-ms", "8"],
            "--seeds given twice",
        ),
        (
            &["trace-overhead", "--iters", "1", "--iters", "2"],
            "--iters given twice",
        ),
        (
            &["fleet", "--smoke", "--smoke", "--vehicles", "4"],
            "--smoke given twice",
        ),
        (&["cycles", "--tolerance", "0.1"], "--tolerance"),
    ];
    let traced = traced.iter().map(|(args, named)| (&args[..], *named));
    for (args, named) in cases.into_iter().chain(traced) {
        let out = experiments(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run");
        assert!(
            stderr.contains(named),
            "{args:?}: diagnostic does not name {named}: {stderr}"
        );
    }
}
