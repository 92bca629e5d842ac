//! The `coefficient-trace/1` JSON schema: export and validation.
//!
//! [`trace_json`] renders a traced cell ([`CellOutcome`] whose report
//! carries a [`TraceLog`]) as a compact self-describing document, and
//! [`validate_trace`] checks a parsed document against the schema — the
//! CI `trace-smoke` job round-trips an exported trace through
//! [`crate::json::Json::parse`] and this validator. [`chrome_json`]
//! renders the same event objects as a Chrome `trace_event` timeline, so
//! each event's fields are written in one place, `event_json`.
//!
//! Document shape:
//!
//! ```text
//! {
//!   "schema": "coefficient-trace/1",
//!   "policy": "CoEfficient", "scenario": "BER-7",
//!   "policy_index": 0, "scenario_index": 0, "seed_index": 0,
//!   "seed": 123, "fingerprint": "0123456789abcdef",
//!   "capacity": 65536, "dropped": 0,
//!   "counter_names": ["steal_attempts", ...],      // 20 names
//!   "events": [ {"at_ns": 0, "type": "cycle_start", "cycle": 0}, ... ]
//! }
//! ```
//!
//! Every event field is an exact integer (`at_ns` nanoseconds on the
//! simulated clock, durations as `*_ns`) or a bool, so documents are
//! byte-stable across replays — the determinism the `experiments trace`
//! subcommand asserts.

use coefficient::{RunCounters, TraceLog};
use observe::{EventKind, TraceEvent};

use crate::json::Json;
use coefficient::CellOutcome;

/// Schema tag of the trace document.
pub const TRACE_SCHEMA: &str = "coefficient-trace/1";

/// The run-counter field names, in the order [`EventKind::CounterSample`]
/// values are recorded (the order of [`RunCounters::fields`]).
pub fn counter_names() -> [&'static str; 20] {
    RunCounters::default().fields().map(|(name, _)| name)
}

fn event_json(event: &TraceEvent) -> Json {
    let at = ("at_ns", Json::from(event.at.as_nanos()));
    match &event.kind {
        EventKind::CycleStart { cycle } => Json::object([
            at,
            ("type", Json::str("cycle_start")),
            ("cycle", Json::from(*cycle)),
        ]),
        EventKind::SlotFrame {
            channel,
            slot,
            frame_id,
            payload_bits,
            duration,
            corrupted,
        } => Json::object([
            at,
            ("type", Json::str("slot_frame")),
            ("channel", Json::from(u64::from(*channel))),
            ("slot", Json::from(*slot)),
            ("frame_id", Json::from(*frame_id)),
            ("payload_bits", Json::from(*payload_bits)),
            ("duration_ns", Json::from(duration.as_nanos())),
            ("corrupted", Json::from(*corrupted)),
        ]),
        EventKind::MinislotFrame {
            channel,
            slot_counter,
            minislot,
            frame_id,
            payload_bits,
            duration,
            corrupted,
        } => Json::object([
            at,
            ("type", Json::str("minislot_frame")),
            ("channel", Json::from(u64::from(*channel))),
            ("slot_counter", Json::from(*slot_counter)),
            ("minislot", Json::from(*minislot)),
            ("frame_id", Json::from(*frame_id)),
            ("payload_bits", Json::from(*payload_bits)),
            ("duration_ns", Json::from(duration.as_nanos())),
            ("corrupted", Json::from(*corrupted)),
        ]),
        EventKind::FaultHit {
            channel,
            frame_id,
            in_burst,
        } => Json::object([
            at,
            ("type", Json::str("fault_hit")),
            ("channel", Json::from(u64::from(*channel))),
            ("frame_id", Json::from(*frame_id)),
            ("in_burst", Json::from(*in_burst)),
        ]),
        EventKind::StealGranted {
            channel,
            slot,
            frame_id,
        } => Json::object([
            at,
            ("type", Json::str("steal_granted")),
            ("channel", Json::from(u64::from(*channel))),
            ("slot", Json::from(*slot)),
            ("frame_id", Json::from(*frame_id)),
        ]),
        EventKind::StealDenied { channel, slot } => Json::object([
            at,
            ("type", Json::str("steal_denied")),
            ("channel", Json::from(u64::from(*channel))),
            ("slot", Json::from(*slot)),
        ]),
        EventKind::EarlyCopy {
            channel,
            slot,
            frame_id,
        } => Json::object([
            at,
            ("type", Json::str("early_copy")),
            ("channel", Json::from(u64::from(*channel))),
            ("slot", Json::from(*slot)),
            ("frame_id", Json::from(*frame_id)),
        ]),
        EventKind::RetransmissionCopy { channel, frame_id } => Json::object([
            at,
            ("type", Json::str("retransmission_copy")),
            ("channel", Json::from(u64::from(*channel))),
            ("frame_id", Json::from(*frame_id)),
        ]),
        EventKind::SoftShed {
            frame_id,
            criticality,
        } => Json::object([
            at,
            ("type", Json::str("soft_shed")),
            ("frame_id", Json::from(*frame_id)),
            ("criticality", Json::from(u64::from(*criticality))),
        ]),
        EventKind::DegradedCopy {
            channel,
            slot,
            frame_id,
        } => Json::object([
            at,
            ("type", Json::str("degraded_copy")),
            ("channel", Json::from(u64::from(*channel))),
            ("slot", Json::from(*slot)),
            ("frame_id", Json::from(*frame_id)),
        ]),
        EventKind::FailoverMirror {
            channel,
            slot,
            frame_id,
        } => Json::object([
            at,
            ("type", Json::str("failover_mirror")),
            ("channel", Json::from(u64::from(*channel))),
            ("slot", Json::from(*slot)),
            ("frame_id", Json::from(*frame_id)),
        ]),
        EventKind::HealthTransition { scope, from, to } => Json::object([
            at,
            ("type", Json::str("health_transition")),
            ("scope", Json::from(u64::from(*scope))),
            ("from", Json::from(u64::from(*from))),
            ("to", Json::from(u64::from(*to))),
        ]),
        EventKind::CounterSample { cycle, values } => Json::object([
            at,
            ("type", Json::str("counter_sample")),
            ("cycle", Json::from(*cycle)),
            ("values", Json::array(values.iter().map(|&v| Json::from(v)))),
        ]),
        EventKind::GatewayQueued {
            port,
            flow,
            instance,
        } => Json::object([
            at,
            ("type", Json::str("gateway_queued")),
            ("port", Json::from(u64::from(*port))),
            ("flow", Json::from(*flow)),
            ("instance", Json::from(*instance)),
        ]),
        EventKind::EthernetFrame {
            port,
            flow,
            instance,
            payload_bits,
            duration,
            missed_window,
        } => Json::object([
            at,
            ("type", Json::str("ethernet_frame")),
            ("port", Json::from(u64::from(*port))),
            ("flow", Json::from(*flow)),
            ("instance", Json::from(*instance)),
            ("payload_bits", Json::from(*payload_bits)),
            ("duration_ns", Json::from(duration.as_nanos())),
            ("missed_window", Json::from(*missed_window)),
        ]),
    }
}

/// Chrome tracks (threads of the one exported process): `(tid, name)`,
/// each sorted by its tid.
const TRACKS: [(u64, &str); 7] = [
    (0, "Channel A"),
    (1, "Channel B"),
    (2, "Scheduler"),
    (3, "Health"),
    (4, "Counters"),
    (6, "Gateway"),
    (7, "Ethernet"),
];

/// Chrome phases, with the members each one adds.
const METADATA: &str = r#""M""#;
const INSTANT: &str = r#""i","s":"t""#;
const COMPLETE: &str = r#""X""#;
const COUNTER: &str = r#""C""#;

fn tid(track: &str) -> u64 {
    let declared = TRACKS.iter().find(|&&(_, name)| name == track);
    declared.expect("a declared track").0
}

/// Chrome's microsecond `ts`/`dur`, with three decimals keeping the
/// integer nanoseconds exact.
fn micros(nanos: u64) -> String {
    format!("{}.{:03}", nanos / 1_000, nanos % 1_000)
}

fn health_name(state: u64) -> &'static str {
    ["Nominal", "Stressed", "Storm"]
        .get(state as usize)
        .map_or("?", |name| name)
}

fn scope_name(scope: u64) -> &'static str {
    ["channel-A", "channel-B", "bus"]
        .get(scope as usize)
        .map_or("effective", |name| name)
}

/// One `traceEvents` entry; `timing` holds its `,"ts":…` (and
/// `,"dur":…`) members, and is empty for metadata.
fn chrome_entry(name: &str, ph: &str, track: &str, timing: &str, args: Json) -> String {
    let (name, tid) = (Json::str(name), tid(track));
    format!(r#"{{"name":{name},"ph":{ph},"pid":1,"tid":{tid}{timing},"args":{args}}}"#)
}

/// Renders a captured log as a Chrome `trace_event` document, loadable
/// in Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing`.
///
/// Each event is its `coefficient-trace/1` object (see
/// [`trace_log_json`]), placed by one rule: the type picks the track
/// (`slot_frame`, `minislot_frame` and `fault_hit` go on their channel's
/// track), an event with `duration_ns` becomes a complete (`X`) event of
/// that length and any other event an instant, and the remaining fields
/// become `args`, less the channel on a channel track. A health
/// transition also sets its scope's state counter, and a counter sample
/// becomes one counter series per run counter.
pub fn chrome_json(log: &TraceLog) -> String {
    let mut entries = Vec::new();
    for (tid, track) in TRACKS {
        let name = Json::object([("name", Json::str(track))]);
        let sort = Json::object([("sort_index", Json::from(tid))]);
        entries.push(chrome_entry("thread_name", METADATA, track, "", name));
        entries.push(chrome_entry("thread_sort_index", METADATA, track, "", sort));
    }
    let names = counter_names();
    for event in &log.events {
        let Json::Object(mut args) = event_json(event) else {
            unreachable!("an event renders as an object")
        };
        let mut take = |key: &str| {
            let i = args.iter().position(|(k, _)| k == key)?;
            Some(args.remove(i).1)
        };
        take("at_ns");
        let ts = format!(r#","ts":{}"#, micros(event.at.as_nanos()));
        let Some(Json::String(ty)) = take("type") else {
            unreachable!("every event has a type")
        };
        if let Some(Json::Array(values)) = take("values") {
            for (i, value) in values.into_iter().enumerate() {
                let name = names
                    .get(i)
                    .map_or(format!("counter_{i}"), |n| n.to_string());
                let value = Json::object([("value", value)]);
                entries.push(chrome_entry(&name, COUNTER, "Counters", &ts, value));
            }
            continue;
        }
        let track = match ty.as_str() {
            "slot_frame" | "minislot_frame" | "fault_hit" => match take("channel") {
                Some(Json::UInt(0)) => "Channel A",
                _ => "Channel B",
            },
            "health_transition" => "Health",
            "gateway_queued" => "Gateway",
            "ethernet_frame" => "Ethernet",
            _ => "Scheduler",
        };
        let (ph, timing) = match take("duration_ns").and_then(|dur| dur.as_u64()) {
            Some(dur) => (COMPLETE, format!(r#"{ts},"dur":{}"#, micros(dur))),
            None => (INSTANT, ts.clone()),
        };
        let args = Json::Object(args);
        let field = |key: &str| args.get(key).and_then(Json::as_u64).unwrap_or(0);
        let mut state = None;
        let name = match ty.as_str() {
            "cycle_start" => "cycle".to_string(),
            "fault_hit" => "fault".to_string(),
            "slot_frame" => format!("slot {} · frame {}", field("slot"), field("frame_id")),
            "minislot_frame" => {
                format!(
                    "minislot {} · frame {}",
                    field("minislot"),
                    field("frame_id")
                )
            }
            "ethernet_frame" => format!("flow {} · instance {}", field("flow"), field("instance")),
            "health_transition" => {
                let scope = format!("health {}", scope_name(field("scope")));
                let to = Json::object([("state", Json::from(field("to")))]);
                state = Some(chrome_entry(&scope, COUNTER, "Health", &ts, to));
                let (from, to) = (health_name(field("from")), health_name(field("to")));
                format!("{scope} {from} → {to}")
            }
            other => other.replace('_', " "),
        };
        entries.push(chrome_entry(&name, ph, track, &timing, args));
        entries.extend(state);
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        entries.join(",\n")
    )
}

/// Renders a [`TraceLog`] plus its cell coordinates as a
/// `coefficient-trace/1` document.
pub fn trace_log_json(cell: &CellOutcome, log: &TraceLog) -> Json {
    Json::object([
        ("schema", Json::str(TRACE_SCHEMA)),
        ("policy", Json::str(cell.policy.label())),
        ("scenario", Json::str(cell.scenario)),
        ("policy_index", Json::from(cell.coord.policy)),
        ("scenario_index", Json::from(cell.coord.scenario)),
        ("seed_index", Json::from(cell.coord.seed)),
        ("seed", Json::from(cell.seed)),
        (
            "fingerprint",
            Json::String(format!("{:016x}", cell.fingerprint)),
        ),
        ("capacity", Json::from(log.capacity)),
        ("dropped", Json::from(log.dropped)),
        (
            "counter_names",
            Json::array(counter_names().into_iter().map(Json::str)),
        ),
        ("events", Json::array(log.events.iter().map(event_json))),
    ])
}

/// Renders a traced cell as a `coefficient-trace/1` document.
///
/// # Errors
/// A message if the cell's report carries no [`TraceLog`] (the run was
/// not configured with [`coefficient::TraceConfig::ring`]).
pub fn trace_json(cell: &CellOutcome) -> Result<Json, String> {
    let log = cell
        .report
        .trace
        .as_ref()
        .ok_or_else(|| "cell report carries no trace (tracing was off)".to_string())?;
    Ok(trace_log_json(cell, log))
}

fn require_u64(event: &Json, field: &str, index: usize) -> Result<u64, String> {
    event
        .get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("event {index}: missing integer field \"{field}\""))
}

fn require_bool(event: &Json, field: &str, index: usize) -> Result<bool, String> {
    event
        .get(field)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("event {index}: missing bool field \"{field}\""))
}

/// Validates a parsed document against the `coefficient-trace/1` schema:
/// header fields, per-type required event fields, counter-sample arity
/// and monotone non-decreasing `at_ns` per lane. Returns the event
/// count.
///
/// Monotonicity is checked per *lane* — one lane per
/// `(event type, channel)` pair — not globally: the bus engine
/// serializes channel A's whole segment before channel B's, the
/// scheduler emits cycle-N planning decisions (sheds, steals) before
/// the bus serializes cycle N itself. Only events of the same type on
/// the same channel are guaranteed to appear in stamp order.
///
/// # Errors
/// A human-readable description of the first defect.
pub fn validate_trace(doc: &Json) -> Result<usize, String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(TRACE_SCHEMA) => {}
        other => return Err(format!("bad schema tag: {other:?}")),
    }
    for field in ["policy", "scenario"] {
        if doc.get(field).and_then(Json::as_str).is_none() {
            return Err(format!("missing string field \"{field}\""));
        }
    }
    let fingerprint = doc
        .get("fingerprint")
        .and_then(Json::as_str)
        .ok_or("missing \"fingerprint\"")?;
    if fingerprint.len() != 16 || !fingerprint.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("malformed fingerprint: {fingerprint:?}"));
    }
    for field in [
        "policy_index",
        "scenario_index",
        "seed_index",
        "seed",
        "capacity",
        "dropped",
    ] {
        if doc.get(field).and_then(Json::as_u64).is_none() {
            return Err(format!("missing integer field \"{field}\""));
        }
    }
    let names = doc
        .get("counter_names")
        .and_then(Json::as_array)
        .ok_or("missing \"counter_names\" array")?;
    if names.iter().any(|n| n.as_str().is_none()) {
        return Err("non-string entry in \"counter_names\"".to_string());
    }
    let events = doc
        .get("events")
        .and_then(Json::as_array)
        .ok_or("missing \"events\" array")?;

    // One monotonicity lane per (type, channel); channel-less events use
    // channel 2 as their lane key.
    let mut prev_at: std::collections::HashMap<(&str, u64), u64> = std::collections::HashMap::new();
    for (i, event) in events.iter().enumerate() {
        let at = require_u64(event, "at_ns", i)?;
        let ty = event
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing \"type\""))?;
        let u64_fields: &[&str] = match ty {
            "cycle_start" => &["cycle"],
            "slot_frame" => &["channel", "slot", "frame_id", "payload_bits", "duration_ns"],
            "minislot_frame" => &[
                "channel",
                "slot_counter",
                "minislot",
                "frame_id",
                "payload_bits",
                "duration_ns",
            ],
            "fault_hit" => &["channel", "frame_id"],
            "steal_granted" | "early_copy" | "degraded_copy" | "failover_mirror" => {
                &["channel", "slot", "frame_id"]
            }
            "steal_denied" => &["channel", "slot"],
            "retransmission_copy" => &["channel", "frame_id"],
            "soft_shed" => &["frame_id", "criticality"],
            "health_transition" => &["scope", "from", "to"],
            "counter_sample" => &["cycle"],
            "gateway_queued" => &["port", "flow", "instance"],
            "ethernet_frame" => &["port", "flow", "instance", "payload_bits", "duration_ns"],
            other => return Err(format!("event {i}: unknown type {other:?}")),
        };
        for field in u64_fields {
            require_u64(event, field, i)?;
        }
        match ty {
            "slot_frame" | "minislot_frame" => {
                require_bool(event, "corrupted", i)?;
            }
            "fault_hit" => {
                require_bool(event, "in_burst", i)?;
            }
            "ethernet_frame" => {
                require_bool(event, "missed_window", i)?;
            }
            "counter_sample" => {
                let values = event
                    .get("values")
                    .and_then(Json::as_array)
                    .ok_or_else(|| format!("event {i}: missing \"values\" array"))?;
                if values.len() != names.len() {
                    return Err(format!(
                        "event {i}: {} counter values but {} names",
                        values.len(),
                        names.len()
                    ));
                }
                if values.iter().any(|v| v.as_u64().is_none()) {
                    return Err(format!("event {i}: non-integer counter value"));
                }
            }
            _ => {}
        }
        let channel = match event.get("channel").and_then(Json::as_u64) {
            Some(c @ (0 | 1)) => c,
            Some(c) => return Err(format!("event {i}: channel {c} out of range")),
            None => 2,
        };
        let lane = prev_at.entry((ty, channel)).or_insert(0);
        if at < *lane {
            return Err(format!(
                "event {i}: at_ns {at} goes backwards on the {ty}/ch{channel} lane (previous {lane})"
            ));
        }
        *lane = at;
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use coefficient::sweep::SweepRunner;
    use coefficient::{TraceConfig, TraceMode};

    use crate::golden::golden_spec;

    fn traced_cell() -> CellOutcome {
        let matrix = golden_spec().build_matrix();
        let coord = matrix.coords()[0];
        let mut cfg = matrix.config(coord);
        cfg.trace = TraceConfig::ring(1 << 16).sample_every(8);
        let report = coefficient::Runner::new(cfg).unwrap().run();
        CellOutcome {
            coord,
            policy: matrix.policies[coord.policy],
            scenario: matrix.scenarios[coord.scenario].name,
            seed: matrix.cell_seed(coord),
            fingerprint: report.fingerprint(),
            report,
        }
    }

    #[test]
    fn export_round_trips_through_parser_and_validator() {
        let cell = traced_cell();
        let doc = trace_json(&cell).unwrap();
        let text = doc.to_string();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, doc);
        let events = validate_trace(&parsed).unwrap();
        assert!(events > 0, "a golden cell must produce events");
        assert_eq!(events, cell.report.trace.as_ref().unwrap().events.len());
    }

    #[test]
    fn untraced_cell_is_rejected() {
        let matrix = golden_spec().build_matrix();
        let coord = matrix.coords()[0];
        let runner = SweepRunner::new(matrix);
        let cell = runner.replay(coord).unwrap();
        assert!(cell.report.trace.is_none());
        assert!(trace_json(&cell).is_err());
    }

    #[test]
    fn validator_rejects_defects() {
        let cell = traced_cell();
        let good = trace_json(&cell).unwrap();

        let mut bad_schema = good.clone();
        if let Json::Object(pairs) = &mut bad_schema {
            pairs[0].1 = Json::str("coefficient-trace/999");
        }
        assert!(validate_trace(&bad_schema).is_err());

        let no_events = Json::object([("schema", Json::str(TRACE_SCHEMA))]);
        assert!(validate_trace(&no_events).is_err());

        // An event with a rewound clock must be rejected.
        let mut rewound = good;
        if let Json::Object(pairs) = &mut rewound {
            let events = pairs
                .iter_mut()
                .find(|(k, _)| k == "events")
                .map(|(_, v)| v)
                .unwrap();
            if let Json::Array(items) = events {
                let mut copy = items[0].clone();
                if let Json::Object(fields) = &mut copy {
                    for (k, v) in fields.iter_mut() {
                        if k == "at_ns" {
                            *v = Json::UInt(u64::MAX);
                        }
                    }
                }
                items.insert(0, copy);
            }
        }
        assert!(validate_trace(&rewound).is_err());
    }

    #[test]
    fn counter_names_match_run_counter_arity() {
        assert_eq!(counter_names().len(), RunCounters::default().fields().len());
        assert_eq!(counter_names().len(), 20);
    }

    #[test]
    fn trace_mode_default_is_off() {
        assert!(matches!(TraceConfig::default().mode, TraceMode::Off));
    }
}
