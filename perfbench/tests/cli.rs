//! Input errors are loud: an unknown workload, flag or malformed value
//! exits 2 before any work starts and lists the valid names.

use std::process::{Command, Output};

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn assert_refused(args: &[&str], mentions: &[&str]) {
    let out = perfbench(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a result");
    for word in mentions {
        assert!(
            stderr.contains(word),
            "{args:?}: {word:?} missing from {stderr}"
        );
    }
}

#[test]
fn unknown_workload_lists_the_workloads() {
    assert_refused(
        &["--workload", "sweep", "--seed", "1"],
        &[
            "unknown workload `sweep`",
            "sweep-steady",
            "fleet-setup",
            "chaos-recovery",
        ],
    );
}

#[test]
fn unknown_flag_lists_the_flags() {
    assert_refused(
        &[
            "--workload",
            "fleet-setup",
            "--seed",
            "1",
            "--vehicles",
            "9",
        ],
        &[
            "unknown argument `--vehicles`",
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
        ],
    );
}

#[test]
fn malformed_and_missing_values_are_refused() {
    assert_refused(&["--workload", "fleet-setup", "--seed", "-1"], &["--seed"]);
    assert_refused(&["--workload", "fleet-setup"], &["missing `--seed`"]);
    assert_refused(
        &["--workload", "fleet-setup", "--seed", "1", "--seconds", "0"],
        &["--seconds"],
    );
    assert_refused(
        &["--workload", "fleet-setup", "--seed", "1", "--trace", "2"],
        &["--trace"],
    );
    assert_refused(&["--workload", "fleet-setup", "--seed"], &["needs a value"]);
    assert_refused(
        &["--seed", "1", "--seed", "2", "--workload", "fleet-setup"],
        &["given twice"],
    );
    assert_refused(
        &["record", "--workload", "fleet-setup", "--seed", "1"],
        &["record"],
    );
}
