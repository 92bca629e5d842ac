//! Both trace exports, pinned byte for byte on a log that holds one event
//! of every kind.
//!
//! The recorded texts under `tests/data/` were written by the
//! two-exporter implementation this one replaced, so a diff here is a
//! change to a file format users load, not a refactor.

use bench_harness::golden::golden_spec;
use bench_harness::json::Json;
use bench_harness::trace::{chrome_json, counter_names, trace_log_json, validate_trace};
use coefficient::{CellOutcome, SweepRunner};
use event_sim::{SimDuration, SimTime};
use observe::{EventKind, TraceEvent, TraceLog};

/// One event of each of the 15 kinds, one microsecond apart, then a
/// frame shorter than a microsecond and two more health scopes.
fn every_kind_log() -> TraceLog {
    let kinds = vec![
        EventKind::CycleStart { cycle: 1 },
        EventKind::SlotFrame {
            channel: 0,
            slot: 3,
            frame_id: 3,
            payload_bits: 128,
            duration: SimDuration::from_micros(40),
            corrupted: false,
        },
        EventKind::MinislotFrame {
            channel: 1,
            slot_counter: 81,
            minislot: 4,
            frame_id: 90,
            payload_bits: 64,
            duration: SimDuration::from_micros(10),
            corrupted: true,
        },
        EventKind::FaultHit {
            channel: 1,
            frame_id: 90,
            in_burst: true,
        },
        EventKind::StealGranted {
            channel: 0,
            slot: 5,
            frame_id: 7,
        },
        EventKind::StealDenied {
            channel: 1,
            slot: 6,
        },
        EventKind::EarlyCopy {
            channel: 0,
            slot: 8,
            frame_id: 9,
        },
        EventKind::RetransmissionCopy {
            channel: 1,
            frame_id: 10,
        },
        EventKind::SoftShed {
            frame_id: 11,
            criticality: 1,
        },
        EventKind::DegradedCopy {
            channel: 0,
            slot: 12,
            frame_id: 13,
        },
        EventKind::FailoverMirror {
            channel: 1,
            slot: 14,
            frame_id: 15,
        },
        EventKind::HealthTransition {
            scope: 3,
            from: 0,
            to: 2,
        },
        EventKind::CounterSample {
            cycle: 4,
            values: (1..=20).collect(),
        },
        EventKind::GatewayQueued {
            port: 0,
            flow: 3,
            instance: 7,
        },
        EventKind::EthernetFrame {
            port: 1,
            flow: 3,
            instance: 7,
            payload_bits: 512,
            duration: SimDuration::from_micros(6),
            missed_window: true,
        },
    ];
    let mut events: Vec<TraceEvent> = kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| TraceEvent {
            at: SimTime::from_micros(i as u64),
            kind,
        })
        .collect();
    events.push(TraceEvent {
        at: SimTime::from_nanos(15_250),
        kind: EventKind::SlotFrame {
            channel: 1,
            slot: 2,
            frame_id: 2,
            payload_bits: 16,
            duration: SimDuration::from_nanos(875),
            corrupted: false,
        },
    });
    events.push(TraceEvent {
        at: SimTime::from_nanos(16_005),
        kind: EventKind::HealthTransition {
            scope: 0,
            from: 0,
            to: 1,
        },
    });
    events.push(TraceEvent {
        at: SimTime::from_nanos(17_000),
        kind: EventKind::HealthTransition {
            scope: 2,
            from: 1,
            to: 0,
        },
    });
    TraceLog {
        events,
        dropped: 2,
        capacity: 64,
    }
}

fn chrome_entries(text: &str) -> Vec<Json> {
    let doc = Json::parse(text).expect("the Chrome export parses");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    doc.get("traceEvents")
        .and_then(Json::as_array)
        .expect("a traceEvents array")
        .to_vec()
}

/// The first golden cell, whose coordinates head the recorded document.
fn golden_cell() -> CellOutcome {
    let matrix = golden_spec().build_matrix();
    SweepRunner::new(matrix.clone())
        .replay(matrix.coords()[0])
        .expect("golden cell is schedulable")
}

/// The fields of event `index` of a `coefficient-trace/1` document.
fn event_fields(doc: &mut Json, index: usize) -> &mut Vec<(String, Json)> {
    let Json::Object(pairs) = doc else {
        panic!("the document is an object")
    };
    let events = pairs.iter_mut().find(|(key, _)| key == "events");
    let Some((_, Json::Array(events))) = events else {
        panic!("the document has an events array")
    };
    let Json::Object(fields) = &mut events[index] else {
        panic!("event {index} is an object")
    };
    fields
}

#[test]
fn every_kind_exports_match_the_recorded_text() {
    let cell = golden_cell();
    let log = every_kind_log();
    assert_eq!(
        trace_log_json(&cell, &log).to_string() + "\n",
        include_str!("data/every_kind.trace.json")
    );
    assert_eq!(
        chrome_json(&log),
        include_str!("data/every_kind.chrome.json")
    );
}

#[test]
fn every_chrome_entry_is_placed_on_the_timeline() {
    let log = every_kind_log();
    let entries = chrome_entries(&chrome_json(&log));
    let mut timed = 0;
    for entry in &entries {
        let ph = entry.get("ph").and_then(Json::as_str);
        assert!(ph.is_some(), "no ph: {entry}");
        assert!(entry.get("pid").and_then(Json::as_u64).is_some(), "{entry}");
        assert!(entry.get("tid").and_then(Json::as_u64).is_some(), "{entry}");
        assert!(entry.get("args").is_some(), "{entry}");
        if ph != Some("M") {
            assert!(entry.get("ts").and_then(Json::as_f64).is_some(), "{entry}");
            timed += 1;
        }
    }
    // Each event is one entry, except that a counter sample is one per
    // counter and a health transition adds its state counter.
    let health = 3;
    assert_eq!(timed, log.events.len() - 1 + counter_names().len() + health);
}

#[test]
fn chrome_timestamps_keep_nanosecond_precision() {
    let log = TraceLog {
        events: [1_234, 5, 1_000_000]
            .into_iter()
            .map(|nanos| TraceEvent {
                at: SimTime::from_nanos(nanos),
                kind: EventKind::CycleStart { cycle: nanos },
            })
            .collect(),
        dropped: 0,
        capacity: 3,
    };
    let text = chrome_json(&log);
    for ts in ["\"ts\":1.234,", "\"ts\":0.005,", "\"ts\":1000.000,"] {
        assert!(text.contains(ts), "{ts} missing from {text}");
    }
}

#[test]
fn empty_log_exports_only_metadata() {
    let entries = chrome_entries(&chrome_json(&TraceLog::default()));
    assert!(!entries.is_empty());
    for entry in &entries {
        assert_eq!(entry.get("ph").and_then(Json::as_str), Some("M"), "{entry}");
    }
}

#[test]
fn counter_values_beyond_the_run_counters_get_positional_names() {
    let extra = counter_names().len();
    let log = TraceLog {
        events: vec![TraceEvent {
            at: SimTime::from_micros(1),
            kind: EventKind::CounterSample {
                cycle: 0,
                values: vec![7; extra + 1],
            },
        }],
        dropped: 0,
        capacity: 1,
    };
    assert!(chrome_json(&log).contains(&format!("\"name\":\"counter_{extra}\"")));
}

#[test]
fn the_every_kind_document_passes_the_validator() {
    let log = every_kind_log();
    let doc = trace_log_json(&golden_cell(), &log);
    assert_eq!(validate_trace(&doc), Ok(log.events.len()));
    let events = doc.get("events").and_then(Json::as_array).unwrap();
    let mut types: Vec<&str> = events
        .iter()
        .map(|e| e.get("type").and_then(Json::as_str).unwrap())
        .collect();
    types.sort_unstable();
    types.dedup();
    assert_eq!(types.len(), 15, "one event of every type: {types:?}");
}

#[test]
fn a_missing_or_mistyped_event_field_is_named() {
    let doc = trace_log_json(&golden_cell(), &every_kind_log());
    let events = doc.get("events").and_then(Json::as_array).unwrap();
    let mut checked = 0;
    for (index, event) in events.iter().enumerate() {
        let Json::Object(fields) = event else {
            panic!("event {index} is an object")
        };
        for (field, value) in fields {
            let mut missing = doc.clone();
            event_fields(&mut missing, index).retain(|(key, _)| key != field);
            let mut defects = vec![("removed", missing)];
            if let Json::Bool(flag) = value {
                let mut mistyped = doc.clone();
                for (key, value) in event_fields(&mut mistyped, index).iter_mut() {
                    if key == field {
                        *value = Json::UInt(u64::from(*flag));
                    }
                }
                defects.push(("made an integer", mistyped));
            }
            for (defect, bad) in defects {
                let err = validate_trace(&bad)
                    .expect_err(&format!("event {index}: {field} {defect} still validates"));
                assert!(
                    err.starts_with(&format!("event {index}: "))
                        && err.contains(&format!("\"{field}\"")),
                    "event {index}: {field} {defect}: {err}"
                );
                checked += 1;
            }
        }
    }
    // The 97 fields of the 18 events, plus their five bool fields mistyped.
    assert_eq!(checked, 102);
}
