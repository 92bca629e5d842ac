//! A failed `golden verify`, rendered line by line.
//!
//! The corpus here is a slice of the checked-in one: the CoEfficient and
//! FSPEC columns of the BER-7 scenario (6 cells, 2 groups), taken by
//! position, since an entry's place in its spec's matrix is its identity.
//! Perturbing it moves one of each kind of diff, and the verdict must
//! read exactly as pinned below. A slice whose entry counts or labels
//! disagree with its spec is refused at load; `cli_errors` pins those.

use bench_harness::golden::{load_corpus, verify_corpus};
use bench_harness::json::Json;

/// The member `key` of an object, for editing.
fn member<'a>(doc: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Object(entries) = doc else {
        panic!("{key}: parent is not an object");
    };
    let (_, value) = entries.iter_mut().find(|(k, _)| k == key).expect(key);
    value
}

/// The items of an array, for editing.
fn items(doc: &mut Json) -> &mut Vec<Json> {
    let Json::Array(items) = doc else {
        panic!("not an array");
    };
    items
}

/// Keeps the entries of `array` at `positions`, in order.
fn keep(array: &mut Json, positions: &[usize]) {
    let kept = positions.iter().map(|&i| items(array)[i].clone()).collect();
    *items(array) = kept;
}

/// Adds `by` to the number at `doc[key]`.
fn bump(doc: &mut Json, key: &str, by: f64) {
    let value = member(doc, key);
    *value = match *value {
        Json::UInt(v) => Json::UInt(v + by as u64),
        Json::Float(v) => Json::Float(v + by),
        ref other => panic!("{key} is {other}"),
    };
}

/// Loads `doc` through the file reader and verifies it.
fn verify(doc: &Json, name: &str) -> String {
    let path = std::env::temp_dir().join(format!("golden-render-{name}.json"));
    std::fs::write(&path, doc.pretty()).expect("temp corpus writes");
    let file = load_corpus(&path).expect("sliced corpus loads");
    let _ = std::fs::remove_file(&path);
    let report = verify_corpus(&file).expect("sliced spec replays");
    assert_eq!(report.passed(), name == "clean", "{report}");
    report.to_string()
}

/// The verdict on the perturbed slice. The padded columns leave trailing
/// spaces after a metric's fresh value.
const FAILED: &str = concat!(
    "golden verify: 6 cells, 4 passed, 2 failed\n",
    "  FAIL CoEfficient × BER-7 (seed 0x6b9bdd0f4d94ea04): fingerprint 1b3b27723c84f8d4 -> 1b3b27723c84f8d5\n",
    "    counter steal_denied                          5 -> 0          (-5)\n",
    "  FAIL FSPEC × BER-7 (seed 0x9bef7fdc470b2514): fingerprint 1dd25a9010e76870 -> 1dd25a9010e76870\n",
    "    metric  miss_ratio                         0.628492 -> 0.128492      \n",
    "  GROUP CoEfficient × BER-7 metric static_latency_ms_p50          1.862467 -> 0.862467      \n",
);

#[test]
fn a_failed_verify_names_every_moved_value() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus/golden.json");
    let mut doc = Json::parse(&std::fs::read_to_string(path).expect("corpus reads")).unwrap();
    let spec = member(&mut doc, "spec");
    items(member(spec, "policies")).truncate(2);
    items(member(spec, "scenarios")).truncate(1);
    // The recorded matrix is 6 policies × 3 scenarios × 3 seeds, so BER-7
    // holds cells 0..3 of CoEfficient and 9..12 of FSPEC, and groups 0
    // and 3.
    keep(member(&mut doc, "cells"), &[0, 1, 2, 9, 10, 11]);
    keep(member(&mut doc, "groups"), &[0, 3]);
    assert_eq!(
        verify(&doc, "clean"),
        "golden verify: 6 cells, 6 passed, 0 failed\n"
    );

    let cells = items(member(&mut doc, "cells"));
    let fingerprint = member(&mut cells[0], "fingerprint");
    let flipped = u64::from_str_radix(fingerprint.as_str().unwrap(), 16).unwrap() ^ 1;
    *fingerprint = Json::String(format!("{flipped:016x}"));
    bump(member(&mut cells[0], "counters"), "steal_denied", 5.0);
    bump(member(&mut cells[4], "metrics"), "miss_ratio", 0.5);
    let group = &mut items(member(&mut doc, "groups"))[0];
    bump(group, "static_latency_ms_p50", 1.0);
    assert_eq!(verify(&doc, "failed"), FAILED);
}
