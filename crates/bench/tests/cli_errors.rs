//! CLI error-path contract for the `experiments` binary.
//!
//! An unknown name anywhere in the CLI — a policy, scenario, campaign,
//! environment, topology or reservation, a flag, or a corrupted golden
//! corpus — must produce a diagnostic that *lists every valid name* and
//! exit 2, never a panic or a silent default. The listings come from the
//! registries themselves, so these tests stay correct as they grow.

use bench_harness::cycles::{cycles_from_json, cycles_to_json};
use bench_harness::experiments::SEED;
use bench_harness::golden::{corpus_to_json, record_corpus};
use bench_harness::json::Json;
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
    let recorded = record_corpus(&spec).expect("tiny spec is schedulable");
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
    assert!(!stderr.contains(RECORD_HINT), "re-record advice: {stderr}");
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
fn a_gate_run_outside_the_repo_points_at_its_reference_flag() {
    // From a directory without `corpus/`, both gates advised recording a
    // reference there, which the build under test then passes trivially.
    let dir = std::env::temp_dir().join(format!("cli-no-corpus-{SEED}"));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cwd = dir.canonicalize().expect("temp dir resolves");
    let baseline = "corpus/bench_baseline.json";
    for (args, reference, flag) in [
        (
            &["golden", "verify"][..],
            "corpus/golden.json",
            "--corpus PATH",
        ),
        (
            &["cycles", "--smoke", "--baseline", baseline][..],
            baseline,
            "--baseline PATH",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let named = format!("at {} (", cwd.join(reference).display());
        assert!(
            stderr.contains(&named) && stderr.contains(flag),
            "{args:?}: does not name {named:?} and {flag}: {stderr}"
        );
        assert!(!stderr.contains(RECORD_HINT), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run");
    }
    let _ = std::fs::remove_dir_all(&dir);
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
            "--shard-size <value>",
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

/// `u64::MAX`, the largest value a number flag parses.
const U64_MAX: &str = "18446744073709551615";

#[test]
fn inputs_that_used_to_panic_exit_2_naming_the_flag() {
    // Each of these hit a library assert or `expect` (exit 101), tried to
    // allocate hundreds of gigabytes (exit 134), or ran a degenerate
    // zero-length experiment and exited 0; the CLI now rejects them
    // before the library sees them.
    let cases: [(&[&str], &str); 34] = [
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
        // A zero-event ring stored nothing: `trace` wrote an empty trace
        // and `trace-overhead` timed a run that recorded nothing.
        (
            &["trace", "--cell", "0,0,0", "--capacity", "0"],
            "--capacity must be at least 1",
        ),
        (
            &["trace-overhead", "--capacity", "0"],
            "--capacity must be at least 1",
        ),
        // A horizon past the 5,000,000-cycle run cap reserved its whole
        // instance store up front and aborted (`--horizon-ms 100000000`
        // asked for 19.9 GB, `u64::MAX` for petabytes).
        (
            &["sweep", "--seeds", "1", "--horizon-ms", "100000000"],
            "--horizon-ms",
        ),
        (&["sweep", "--horizon-ms", U64_MAX], "--horizon-ms"),
        (
            &["replay", "--cell", "0,0,0", "--horizon-ms", U64_MAX],
            "--horizon-ms",
        ),
        (
            &["trace", "--cell", "0,0,0", "--horizon-ms", U64_MAX],
            "--horizon-ms",
        ),
        (&["determinism", "--horizon-ms", U64_MAX], "--horizon-ms"),
        (&["storm-smoke", "--horizon-ms", U64_MAX], "--horizon-ms"),
        (&["fleet", "--horizon-ms", "25000001"], "--horizon-ms"),
        (&["fleet", "--horizon-ms", U64_MAX], "--horizon-ms"),
        (
            &["chaos", "--horizon-cycles", "5000001"],
            "--horizon-cycles",
        ),
        // A seed list no allocation can hold overflowed building the
        // sweep matrix (`capacity overflow`, exit 101).
        (&["sweep", "--seeds", U64_MAX], "--seeds"),
        (
            &["replay", "--cell", "0,0,0", "--seeds", U64_MAX],
            "--seeds",
        ),
        (&["trace", "--cell", "0,0,0", "--seeds", U64_MAX], "--seeds"),
        (&["determinism", "--seeds", U64_MAX], "--seeds"),
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
    // smoke` ran the full matrix), a second `--seeds` was silently
    // dropped and `trace --golden` ignored the sweep flags. Every gate's
    // bounds are constants: `--tolerance` of both perf gates and the
    // chaos contract's two budget flags are unknown flags. The fleet has
    // no live-stats endpoint: its three flags are unknown too. Every
    // recorded corpus is named `default`: `golden record` has no `--name`.
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
    let fleet_flags = "(valid: --vehicles, --policy, --env, --seed, --threads, --shard-size, \
                       --horizon-ms, --minislots, --out, --bench-out, --smoke)";
    let stats_flag = |flag: &str| format!("unknown flag \"{flag}\" {fleet_flags}");
    let (stats_file, stats_socket, stats_every) = (
        stats_flag("--stats-file"),
        stats_flag("--stats-socket"),
        stats_flag("--stats-every-ms"),
    );
    let cases: [(&[&str], &str); 15] = [
        (&["cycles", "smoke"], "\"smoke\""),
        (
            &["golden", "record", "--name", "x"],
            "unknown flag \"--name\" (valid: --out, --corpus)",
        ),
        (&["storm-smoke", "5"], "\"5\""),
        (&["replay", "ber7", "--cell", "0,0,0"], "\"ber7\""),
        (
            &["golden", "verify", "--corpus", corpus, "extra"],
            "\"extra\"",
        ),
        (
            &["trace-overhead", "--tolerance", "0.5"],
            "unknown flag \"--tolerance\"",
        ),
        (
            &["cycles", "--tolerance", "0.5"],
            "unknown flag \"--tolerance\"",
        ),
        (
            &["chaos", "--recovery-budget", "5"],
            "unknown flag \"--recovery-budget\" (valid: --campaign, --scenario, --policy, \
             --require, --seed, --horizon-cycles, --threads, --out)",
        ),
        (
            &["chaos", "--hard-miss-budget", "5"],
            "unknown flag \"--hard-miss-budget\" (valid: --campaign, --scenario, --policy, \
             --require, --seed, --horizon-cycles, --threads, --out)",
        ),
        (&["fleet", "--stats-file", "x"], &stats_file),
        (&["fleet", "--stats-socket", "x"], &stats_socket),
        (&["fleet", "--stats-every-ms", "5"], &stats_every),
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

#[test]
fn a_cycles_baseline_that_cannot_gate_every_policy_exits_2() {
    // A baseline listing only FSPEC and HOSA used to pass the gate with
    // the other four policies unchecked, and a negative `wall_per_cal`
    // failed it as a regression (exit 1) instead of as a malformed file.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../corpus/bench_baseline.json"
    );
    let text = std::fs::read_to_string(path).expect("checked-in baseline reads");
    let recorded = cycles_from_json(&Json::parse(&text).unwrap()).unwrap();
    let mut partial = recorded.clone();
    partial
        .policies
        .retain(|p| p.policy == "FSPEC" || p.policy == "HOSA");
    let mut negative = recorded;
    negative.policies[0].wall_per_cal = -1.0;
    let cases = [
        (
            "partial",
            partial,
            "policy \"CoEfficient\" missing from baseline",
            true,
        ),
        (
            "negative",
            negative,
            "policy \"CoEfficient\": wall_per_cal -1e0 is not a finite number of at least 1e-12",
            false,
        ),
    ];
    // The missing policy shows once the matrix ran; a malformed file is
    // refused before it runs.
    for (name, baseline, named, ran) in cases {
        let file = std::env::temp_dir().join(format!("cli-cycles-{name}-{SEED}.json"));
        std::fs::write(&file, cycles_to_json(&baseline).to_string()).expect("temp baseline writes");
        let out = experiments(&[
            "cycles",
            "--smoke",
            "--iters",
            "1",
            "--baseline",
            file.to_str().unwrap(),
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let _ = std::fs::remove_file(&file);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(
            stderr.contains(named),
            "{name}: diagnostic does not name the defect: {stderr}"
        );
        assert_eq!(!out.stdout.is_empty(), ran, "{name}: {out:?}");
    }
}

#[test]
fn truncated_and_mutated_input_files_exit_2_naming_the_defect() {
    // The two files the CLI reads, cut short at a few offsets and with
    // one field changed each. The `minislots` and `seeds` rows panicked
    // (exit 101) in `ClusterConfig::paper_mixed` and
    // `SweepSpec::build_matrix`, the `horizon_ms` row ran for minutes,
    // the `wall_ms` row panicked in `Duration::from_secs_f64`, and the
    // subnormal `wall_per_cal` and out-of-range `calibration_ns` rows ran
    // the matrix and failed it as a regression (exit 1); each is refused
    // as the matching flag is. A file that exists is never answered with
    // advice to re-record over it.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus/");
    let golden = std::fs::read_to_string(format!("{root}golden.json")).expect("corpus reads");
    let baseline =
        std::fs::read_to_string(format!("{root}bench_baseline.json")).expect("baseline reads");
    let verify: &[&str] = &["golden", "verify", "--corpus"];
    let cycles: &[&str] = &["cycles", "--smoke", "--iters", "1", "--baseline"];
    let mut rows: Vec<(&[&str], String, &str)> = Vec::new();
    for (args, text) in [(verify, &golden), (cycles, &baseline)] {
        for at in [0, 1, text.len() / 7, text.len() / 2, text.len() - 3] {
            rows.push((args, text[..at].to_string(), "JSON parse error"));
        }
    }
    // (field, its value in the file, the mutated value, what the
    // diagnostic must name)
    let golden_fields = [
        (
            "minislots",
            "50",
            "100000",
            "\"minislots\": 100000 (Segments",
        ),
        ("seeds", "3", "1000000000000", "\"seeds\": 1000000000000"),
        (
            "horizon_ms",
            "100",
            "1000000000000000",
            "\"horizon_ms\": 1000000000000000",
        ),
        ("seeds", "3", "18446744073709551616", "seeds"),
        ("minislots", "50", "-1", "minislots"),
        ("horizon_ms", "100", "2.5", "horizon_ms"),
        ("schema", "\"coefficient-golden/2\"", "\"v2\"", "schema"),
        // The first schema gets no reader: there is one code path.
        (
            "schema",
            "\"coefficient-golden/2\"",
            "\"coefficient-golden/1\"",
            "schema \"coefficient-golden/1\" is not \"coefficient-golden/2\"",
        ),
        // A cell's place in the spec's matrix is its identity, and its
        // labels must say the same.
        (
            "scenario",
            "\"BER-7\"",
            "\"BER-9\"",
            "cells[0] \"scenario\" is \"BER-9\", but the spec's matrix has \"BER-7\" there",
        ),
        ("shared_seeds", "false", "0", "shared_seeds"),
        ("ratio_abs", "0.000001", "\"tight\"", "ratio_abs"),
        // The bands are constants: a loosened one would switch the
        // envelope off.
        (
            "ratio_abs",
            "0.000001",
            "1",
            "\"tolerance\" \"ratio_abs\" is 1",
        ),
        ("fingerprint", "\"", "\"xyz", "is not hex"),
        (
            "utilization",
            "0.3174",
            "\"x\"",
            "\"utilization\" is not a number",
        ),
        (
            "steal_attempts",
            "180",
            "-1",
            "\"steal_attempts\" is not an unsigned integer",
        ),
        // A counter a corpus may omit must still be typed when present.
        (
            "health_transitions",
            "0",
            "\"x\"",
            "\"health_transitions\" is not an unsigned integer",
        ),
        (
            "miss_ratio_p99",
            "0.002793296089385475",
            "\"x\"",
            "\"miss_ratio_p99\" is not a number",
        ),
    ];
    // The baseline is re-recorded after perf changes, so its rows take
    // the value to replace from the checked-in file.
    let recorded = |field: &str| -> &str {
        let key = format!("\"{field}\": ");
        let rest = &baseline[baseline.find(&key).expect("field in the baseline") + key.len()..];
        &rest[..rest.find([',', '\n']).expect("value ends")]
    };
    let baseline_fields = [
        (
            "wall_ms",
            recorded("wall_ms"),
            "1e300",
            "wall_ms 1e300 is out of range",
        ),
        (
            "iters",
            recorded("iters"),
            "5000000000",
            "iters out of range",
        ),
        (
            "calibration_ns",
            recorded("calibration_ns"),
            "-5",
            "calibration_ns",
        ),
        (
            "calibration_ns",
            recorded("calibration_ns"),
            "0",
            "calibration_ns 0 is not in",
        ),
        (
            "calibration_ns",
            recorded("calibration_ns"),
            U64_MAX,
            "calibration_ns 18446744073709551615 is not in",
        ),
        (
            "wall_per_cal",
            recorded("wall_per_cal"),
            "1e-320",
            "wall_per_cal 1e-320 is not a finite number",
        ),
        ("policy", "\"CoEfficient\"", "7", "policy"),
    ];
    let golden_rows = golden_fields.map(|field| (verify, &golden, field));
    let baseline_rows = baseline_fields.map(|field| (cycles, &baseline, field));
    for (args, text, (field, value, to, named)) in golden_rows.into_iter().chain(baseline_rows) {
        let from = format!("\"{field}\": {value}");
        assert!(text.contains(&from), "{from} is not in the checked-in file");
        rows.push((
            args,
            text.replacen(&from, &format!("\"{field}\": {to}"), 1),
            named,
        ));
    }
    // A group relabelled to another registered policy, and a cell deleted
    // or duplicated: the entries no longer match the spec's matrix.
    let groups = golden.find("\"groups\": [").expect("corpus has groups");
    let (head, tail) = golden.split_at(groups);
    let relabelled = tail.replacen("\"policy\": \"CoEfficient\"", "\"policy\": \"FSPEC\"", 1);
    let (open, close) = ("\"cells\": [\n", "\n    },\n");
    let first_cell = golden.find(open).expect("corpus has cells") + open.len();
    let after_it = golden.find(close).expect("the first cell closes") + close.len();
    let (before, cell) = (&golden[..first_cell], &golden[first_cell..after_it]);
    for (text, named) in [
        (
            format!("{head}{relabelled}"),
            "groups[0] \"policy\" is \"FSPEC\", but the spec's matrix has \"CoEfficient\" there",
        ),
        (
            format!("{before}{}", &golden[after_it..]),
            "\"cells\" holds 53 entries, but the spec's matrix has 54",
        ),
        (
            format!("{before}{cell}{}", &golden[first_cell..]),
            "\"cells\" holds 55 entries, but the spec's matrix has 54",
        ),
    ] {
        rows.push((verify, text, named));
    }
    // A renamed key is a missing one: a corpus holds the backbone cells
    // and all twenty counters, whichever schema first had them.
    for (key, named) in [
        ("backbone", "missing key \"backbone\""),
        ("campaign_events", "missing key \"campaign_events\""),
    ] {
        let from = format!("\"{key}\": ");
        assert!(golden.contains(&from), "{from} is not in the corpus");
        rows.push((
            verify,
            golden.replacen(&from, &format!("\"{key}_renamed\": "), 1),
            named,
        ));
    }
    // A key given twice: readers take the first, so the parser refuses
    // the file, naming the key, before the second can pass unread.
    for (args, text, schema) in [
        (verify, &golden, "\"schema\": \"coefficient-golden/2\",\n"),
        (
            cycles,
            &baseline,
            "\"schema\": \"coefficient-bench-cycles/1\",\n",
        ),
    ] {
        assert!(
            text.contains(schema),
            "{schema} is not in the checked-in file"
        );
        let again = format!("{schema}  \"schema\": \"coefficient-golden/999\",\n");
        rows.push((
            args,
            text.replacen(schema, &again, 1),
            "duplicate key \"schema\"",
        ));
    }
    let dir = std::env::temp_dir().join(format!("cli-file-inputs-{SEED}"));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (i, (args, text, named)) in rows.iter().enumerate() {
        let file = dir.join(format!("row-{i}.json"));
        std::fs::write(&file, text).expect("temp input writes");
        let mut argv = args.to_vec();
        argv.push(file.to_str().unwrap());
        let out = experiments(&argv);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "row {i} {argv:?}: {stderr}");
        assert!(
            stderr.contains(named) && !stderr.contains("panicked"),
            "row {i} {argv:?}: diagnostic does not name {named:?}: {stderr}"
        );
        assert!(
            !stderr.contains(RECORD_HINT),
            "row {i} {argv:?}: re-record advice for an existing file: {stderr}"
        );
        assert!(out.stdout.is_empty(), "row {i} {argv:?}: nothing may run");
    }
    // A missing file is named where it was looked for, and the advice is
    // the flag that points at the checked-in file, never a re-record.
    let missing = dir.join("missing.json");
    for (args, flag) in [(verify, "--corpus PATH"), (cycles, "--baseline PATH")] {
        let mut argv = args.to_vec();
        argv.push(missing.to_str().unwrap());
        let out = experiments(&argv);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(
            stderr.contains(&format!("at {}", missing.display())) && stderr.contains(flag),
            "{argv:?}: does not name the path and {flag}: {stderr}"
        );
        assert!(!stderr.contains(RECORD_HINT), "{argv:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{argv:?}: nothing may run");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Either form of the re-record advice ("record one with: …", "re-record
/// with: …"), which no missing or defective input file may get.
const RECORD_HINT: &str = " with: experiments ";
