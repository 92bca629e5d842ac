//! The `coefficient-trace/1` JSON schema: export and validation.
//!
//! [`trace_json`] renders a traced cell ([`CellOutcome`] whose report
//! carries a [`TraceLog`]) as a compact self-describing document, and
//! [`validate_trace`] checks a parsed document against the schema — the
//! CI `trace-smoke` job round-trips an exported trace through
//! [`crate::json::Json::parse`] and this validator. [`chrome_json`]
//! renders the same events as a Chrome `trace_event` timeline.
//!
//! Each event type's `type` tag, fields and field kinds are declared
//! once, by `observe` ([`EventKind::TYPES`], [`EventKind::values`]); a
//! field's export name is its `EventKind` field name. This module holds
//! what belongs to the document: `HEADER` names its fields, and
//! `EVENT_TRACKS` gives every event type its Chrome track. The export,
//! the validator and the Chrome view all read them. A new event type is
//! one entry of `observe`'s table and one `EVENT_TRACKS` row.
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
use observe::{EventKind, FieldKind, FieldValue, TraceEvent};

use crate::json::Json;
use coefficient::CellOutcome;
use Kind::*;

/// Schema tag of the trace document.
pub const TRACE_SCHEMA: &str = "coefficient-trace/1";

/// The run-counter field names, in the order [`EventKind::CounterSample`]
/// values are recorded (the order of [`RunCounters::fields`]).
pub fn counter_names() -> [&'static str; 20] {
    RunCounters::default().fields().map(|(name, _)| name)
}

/// What a field holds; [`check`] holds a field to its kind.
#[derive(Clone, Copy)]
enum Kind {
    /// The schema tag, [`TRACE_SCHEMA`].
    Tag,
    /// A string.
    Text,
    /// 16 hex digits.
    Hex,
    /// An exact integer.
    Int,
    /// A bool.
    Bool,
    /// An array of strings: the names of the counter values.
    Names,
    /// The array of events.
    Events,
    /// An array of integers, one per counter name.
    Counts,
}

/// The document's fields in export order, each with its kind.
const HEADER: &[(Kind, &str)] = &[
    (Tag, "schema"),
    (Text, "policy"),
    (Text, "scenario"),
    (Int, "policy_index"),
    (Int, "scenario_index"),
    (Int, "seed_index"),
    (Int, "seed"),
    (Hex, "fingerprint"),
    (Int, "capacity"),
    (Int, "dropped"),
    (Names, "counter_names"),
    (Events, "events"),
];

impl From<FieldKind> for Kind {
    fn from(kind: FieldKind) -> Kind {
        match kind {
            FieldKind::Int => Int,
            FieldKind::Bool => Bool,
            FieldKind::Counts => Counts,
        }
    }
}

/// Where the Chrome view puts an event.
#[derive(Clone, Copy)]
enum Track {
    /// `Channel A` or `Channel B` by its `channel`, which leaves `args`.
    Channel,
    /// The named entry of [`TRACKS`].
    On(&'static str),
}

/// The Chrome track of every event type, by its `type` tag, in
/// [`EventKind::TYPES`]' order.
const EVENT_TRACKS: &[(&str, Track)] = {
    use Track::{Channel, On};
    const SCHEDULER: Track = On("Scheduler");
    &[
        ("cycle_start", SCHEDULER),
        ("slot_frame", Channel),
        ("minislot_frame", Channel),
        ("fault_hit", Channel),
        ("steal_granted", SCHEDULER),
        ("steal_denied", SCHEDULER),
        ("early_copy", SCHEDULER),
        ("retransmission_copy", SCHEDULER),
        ("soft_shed", SCHEDULER),
        ("degraded_copy", SCHEDULER),
        ("failover_mirror", SCHEDULER),
        ("health_transition", On("Health")),
        ("counter_sample", On("Counters")),
        ("gateway_queued", On("Gateway")),
        ("ethernet_frame", On("Ethernet")),
    ]
};

/// An event's fields after `at_ns` and `type`, named by its type.
fn fields(kind: &EventKind) -> Vec<(String, Json)> {
    let names = kind.event_type().fields.iter().map(|&(_, name)| name);
    let values = kind.values().into_iter().map(|value| match value {
        FieldValue::Int(n) => Json::UInt(n),
        FieldValue::Bool(flag) => Json::Bool(flag),
        FieldValue::Counts(values) => Json::array(values.iter().map(|&n| Json::UInt(n))),
    });
    names.map(String::from).zip(values).collect()
}

fn event_json(event: &TraceEvent) -> Json {
    let at = ("at_ns".to_string(), Json::from(event.at.as_nanos()));
    let ty = ("type".to_string(), Json::str(event.kind.event_type().tag));
    Json::Object([at, ty].into_iter().chain(fields(&event.kind)).collect())
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
/// Each event's type picks its track from `EVENT_TRACKS`, an event with
/// `duration_ns` becomes a complete (`X`) event of that length and any
/// other event an instant, and its remaining fields become `args`. A
/// health transition also sets its scope's state counter, and a counter
/// sample becomes one counter series per run counter.
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
        let tag = event.kind.event_type().tag;
        let mut args = fields(&event.kind);
        let mut take = |key: &str| {
            let i = args.iter().position(|(k, _)| k == key)?;
            Some(args.remove(i).1)
        };
        let ts = format!(r#","ts":{}"#, micros(event.at.as_nanos()));
        let declared = EVENT_TRACKS.iter().find(|&&(t, _)| t == tag);
        let track = match declared.expect("every event type has a track").1 {
            Track::Channel => match take("channel") {
                Some(Json::UInt(0)) => "Channel A",
                _ => "Channel B",
            },
            Track::On(track) => track,
        };
        if let Some(Json::Array(values)) = take("values") {
            for (i, value) in values.into_iter().enumerate() {
                let name = names
                    .get(i)
                    .map_or(format!("counter_{i}"), |n| n.to_string());
                let value = Json::object([("value", value)]);
                entries.push(chrome_entry(&name, COUNTER, track, &ts, value));
            }
            continue;
        }
        let (ph, timing) = match take("duration_ns").and_then(|dur| dur.as_u64()) {
            Some(dur) => (COMPLETE, format!(r#"{ts},"dur":{}"#, micros(dur))),
            None => (INSTANT, ts.clone()),
        };
        let args = Json::Object(args);
        let field = |key: &str| args.get(key).and_then(Json::as_u64).unwrap_or(0);
        let mut state = None;
        let name = match tag {
            "cycle_start" => "cycle".to_string(),
            "fault_hit" => "fault".to_string(),
            "slot_frame" => format!("slot {} · frame {}", field("slot"), field("frame_id")),
            "minislot_frame" => {
                let (minislot, frame_id) = (field("minislot"), field("frame_id"));
                format!("minislot {minislot} · frame {frame_id}")
            }
            "ethernet_frame" => format!("flow {} · instance {}", field("flow"), field("instance")),
            "health_transition" => {
                let scope = format!("health {}", scope_name(field("scope")));
                let to = Json::object([("state", Json::from(field("to")))]);
                state = Some(chrome_entry(&scope, COUNTER, track, &ts, to));
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
    // The values of the `HEADER` fields, in its order; the array type
    // holds their number to its length.
    let values: [Json; HEADER.len()] = [
        Json::str(TRACE_SCHEMA),
        Json::str(cell.policy.label()),
        Json::str(cell.scenario),
        Json::from(cell.coord.policy),
        Json::from(cell.coord.scenario),
        Json::from(cell.coord.seed),
        Json::from(cell.seed),
        Json::String(format!("{:016x}", cell.fingerprint)),
        Json::from(log.capacity),
        Json::from(log.dropped),
        Json::array(counter_names().into_iter().map(Json::str)),
        Json::array(log.events.iter().map(event_json)),
    ];
    Json::object(HEADER.iter().map(|&(_, field)| field).zip(values))
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

/// Checks that `object`'s `field` holds a `kind`, where `names` is the
/// number of counter names. Returns the field's array, empty for a kind
/// that is not an array.
fn check<'a>(
    object: &'a Json,
    field: &str,
    kind: Kind,
    names: usize,
) -> Result<&'a [Json], String> {
    let value = object.get(field);
    let missing = |what: &str| format!("missing {what} field \"{field}\"");
    let array = || {
        value
            .and_then(Json::as_array)
            .ok_or_else(|| format!("missing \"{field}\" array"))
    };
    match kind {
        Tag => match value.and_then(Json::as_str) {
            Some(TRACE_SCHEMA) => {}
            other => return Err(format!("bad schema tag: {other:?}")),
        },
        Text if value.and_then(Json::as_str).is_none() => return Err(missing("string")),
        Int if value.and_then(Json::as_u64).is_none() => return Err(missing("integer")),
        Bool if value.and_then(Json::as_bool).is_none() => return Err(missing("bool")),
        Text | Int | Bool => {}
        Hex => {
            let hex = value
                .and_then(Json::as_str)
                .ok_or_else(|| format!("missing \"{field}\""))?;
            if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(format!("malformed {field}: {hex:?}"));
            }
        }
        Names => {
            let entries = array()?;
            if entries.iter().any(|n| n.as_str().is_none()) {
                return Err(format!("non-string entry in \"{field}\""));
            }
            return Ok(entries);
        }
        Events => return array(),
        Counts => {
            let values = array()?;
            if values.len() != names {
                return Err(format!("{} counter values but {names} names", values.len()));
            }
            if values.iter().any(|v| v.as_u64().is_none()) {
                return Err("non-integer counter value".to_string());
            }
        }
    }
    Ok(&[])
}

/// Names the first field of `object` that `declared` does not list, or
/// that `object` holds twice.
fn undeclared(object: &Json, declared: impl Fn(&str) -> bool) -> Result<(), String> {
    let Json::Object(pairs) = object else {
        return Ok(());
    };
    for (i, (field, _)) in pairs.iter().enumerate() {
        if !declared(field) {
            return Err(format!("undeclared field {field:?}"));
        }
        if pairs[..i].iter().any(|(earlier, _)| earlier == field) {
            return Err(format!("duplicate field {field:?}"));
        }
    }
    Ok(())
}

/// Validates a parsed document against the `coefficient-trace/1` schema:
/// exactly the `HEADER` fields, exactly each event's fields by its
/// declared type ([`EventKind::TYPES`]), counter-sample arity and
/// monotone non-decreasing `at_ns` per lane. Returns the event count.
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
    let (mut names, mut events) = (0, &[][..]);
    for &(kind, field) in HEADER {
        let array = check(doc, field, kind, 0)?;
        match kind {
            Names => names = array.len(),
            Events => events = array,
            _ => {}
        }
    }
    undeclared(doc, |field| HEADER.iter().any(|&(_, name)| name == field))?;

    // One monotonicity lane per (type, channel); channel-less events use
    // channel 2 as their lane key.
    let mut prev_at: std::collections::HashMap<(&str, u64), u64> = std::collections::HashMap::new();
    for (i, event) in events.iter().enumerate() {
        let defect = |e: String| format!("event {i}: {e}");
        check(event, "at_ns", Int, names).map_err(defect)?;
        let at = event.get("at_ns").and_then(Json::as_u64).unwrap_or(0);
        let ty = event
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing \"type\""))?;
        let declared = EventKind::TYPES.iter().find(|declared| declared.tag == ty);
        let declared = declared.ok_or_else(|| format!("event {i}: unknown type {ty:?}"))?;
        for &(kind, field) in declared.fields {
            check(event, field, kind.into(), names).map_err(defect)?;
        }
        let field_of_type = |field: &str| declared.fields.iter().any(|&(_, name)| name == field);
        undeclared(event, |field| {
            ["at_ns", "type"].contains(&field) || field_of_type(field)
        })
        .map_err(defect)?;
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

    /// A new event type fails here until it has a Chrome track, and
    /// every track it names is a declared one.
    #[test]
    fn every_declared_event_type_has_one_chrome_track() {
        let tags: Vec<_> = EventKind::TYPES.iter().map(|ty| ty.tag).collect();
        let tracked: Vec<_> = EVENT_TRACKS.iter().map(|&(tag, _)| tag).collect();
        assert_eq!(tracked, tags, "one track per declared tag, in its order");
        for &(tag, track) in EVENT_TRACKS {
            if let Track::On(name) = track {
                assert!(TRACKS.iter().any(|&(_, t)| t == name), "{tag}: {name}");
            }
        }
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
