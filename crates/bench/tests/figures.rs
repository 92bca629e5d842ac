//! Each figure of the figure run prints alone exactly what it prints in
//! `experiments all`: the figures share no state, so running one cannot
//! change another's table or rows.

use std::process::Command;

/// Every figure name, in the order `experiments all` prints them.
const FIGURES: [&str; 11] = [
    "fig1", "fig2", "fig3", "fig4a", "fig4b", "fig4c", "fig4d", "verify", "ablation", "faults",
    "fig5",
];

fn experiments(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

#[test]
fn each_figure_alone_prints_its_section_of_all() {
    let all = experiments(&["all", "--json"]);
    let mut rest = all.as_str();
    for name in FIGURES {
        let alone = experiments(&[name, "--json"]);
        assert!(
            alone.starts_with("\n=== "),
            "{name} prints no table: {alone}"
        );
        assert!(
            rest.starts_with(&alone),
            "{name} alone differs from its section of `all`:\n{alone}"
        );
        rest = &rest[alone.len()..];
    }
    assert!(
        rest.is_empty(),
        "`all` prints more than its figures: {rest}"
    );
}
