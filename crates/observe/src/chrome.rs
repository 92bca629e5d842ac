//! Chrome `trace_event` JSON export.
//!
//! [`chrome_trace_json`] renders a [`TraceLog`] as the JSON object format
//! understood by Perfetto (<https://ui.perfetto.dev>) and
//! `chrome://tracing`: one process, with channels, the scheduler, the
//! health monitors, counter samples, the gateway and the Ethernet
//! backbone as named tracks.
//! Frame transmissions become complete (`"ph":"X"`) events with their
//! wire occupancy as duration; decisions (steals, sheds, mirrors, fault
//! hits) become track-scoped instants; counter samples and health states
//! become counter (`"ph":"C"`) series.
//!
//! The writer is self-contained string building (the crate has no JSON
//! dependency); all emitted strings are ASCII, so no escaping beyond the
//! JSON string quoting of fixed labels is needed.

use crate::event::{EventKind, TraceLog};

/// Track (thread) ids inside the exported process.
const TID_CHANNEL_A: u32 = 0;
const TID_CHANNEL_B: u32 = 1;
const TID_SCHEDULER: u32 = 2;
const TID_HEALTH: u32 = 3;
const TID_COUNTERS: u32 = 4;
const TID_GATEWAY: u32 = 6;
const TID_ETHERNET: u32 = 7;

fn channel_tid(channel: u8) -> u32 {
    if channel == 0 {
        TID_CHANNEL_A
    } else {
        TID_CHANNEL_B
    }
}

/// Microsecond timestamp with nanosecond precision (Chrome `ts` is in
/// microseconds; fractional digits keep the integer nanoseconds exact).
fn ts(nanos: u64) -> String {
    format!("{}.{:03}", nanos / 1_000, nanos % 1_000)
}

fn health_name(state: u8) -> &'static str {
    match state {
        0 => "Nominal",
        1 => "Stressed",
        2 => "Storm",
        _ => "?",
    }
}

fn scope_name(scope: u8) -> &'static str {
    match scope {
        0 => "channel-A",
        1 => "channel-B",
        2 => "bus",
        _ => "effective",
    }
}

struct Writer {
    out: String,
    first: bool,
}

impl Writer {
    fn new() -> Self {
        Writer {
            out: String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"),
            first: true,
        }
    }

    fn push(&mut self, event: &str) {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        self.out.push_str(event);
    }

    fn meta_thread(&mut self, tid: u32, name: &str, sort: u32) {
        self.push(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        ));
        self.push(&format!(
            "{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"sort_index\":{sort}}}}}"
        ));
    }

    fn instant(&mut self, name: &str, tid: u32, at_ns: u64, args: &str) {
        self.push(&format!(
            "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{tid},\
             \"ts\":{},\"args\":{{{args}}}}}",
            ts(at_ns)
        ));
    }

    fn complete(&mut self, name: &str, tid: u32, at_ns: u64, dur_ns: u64, args: &str) {
        self.push(&format!(
            "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
             \"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
            ts(at_ns),
            ts(dur_ns)
        ));
    }

    fn counter(&mut self, name: &str, at_ns: u64, series: &str, value: u64) {
        self.push(&format!(
            "{{\"name\":\"{name}\",\"ph\":\"C\",\"pid\":1,\"tid\":{TID_COUNTERS},\
             \"ts\":{},\"args\":{{\"{series}\":{value}}}}}",
            ts(at_ns)
        ));
    }

    fn finish(mut self) -> String {
        self.out.push_str("\n]}\n");
        self.out
    }
}

/// Renders a captured log as a Chrome `trace_event` JSON document.
///
/// `counter_names` labels the values of
/// [`EventKind::CounterSample`] events, in order; extra values fall back
/// to positional names.
pub fn chrome_trace_json(log: &TraceLog, counter_names: &[&str]) -> String {
    let mut w = Writer::new();
    w.meta_thread(TID_CHANNEL_A, "Channel A", 0);
    w.meta_thread(TID_CHANNEL_B, "Channel B", 1);
    w.meta_thread(TID_SCHEDULER, "Scheduler", 2);
    w.meta_thread(TID_HEALTH, "Health", 3);
    w.meta_thread(TID_COUNTERS, "Counters", 4);
    w.meta_thread(TID_GATEWAY, "Gateway", 6);
    w.meta_thread(TID_ETHERNET, "Ethernet", 7);

    for event in &log.events {
        let at = event.at.as_nanos();
        match &event.kind {
            EventKind::CycleStart { cycle } => {
                w.instant("cycle", TID_SCHEDULER, at, &format!("\"cycle\":{cycle}"));
            }
            EventKind::SlotFrame {
                channel,
                slot,
                frame_id,
                payload_bits,
                duration,
                corrupted,
            } => {
                w.complete(
                    &format!("slot {slot} · frame {frame_id}"),
                    channel_tid(*channel),
                    at,
                    duration.as_nanos(),
                    &format!(
                        "\"slot\":{slot},\"frame_id\":{frame_id},\
                         \"payload_bits\":{payload_bits},\"corrupted\":{corrupted}"
                    ),
                );
            }
            EventKind::MinislotFrame {
                channel,
                slot_counter,
                minislot,
                frame_id,
                payload_bits,
                duration,
                corrupted,
            } => {
                w.complete(
                    &format!("minislot {minislot} · frame {frame_id}"),
                    channel_tid(*channel),
                    at,
                    duration.as_nanos(),
                    &format!(
                        "\"slot_counter\":{slot_counter},\"minislot\":{minislot},\
                         \"frame_id\":{frame_id},\"payload_bits\":{payload_bits},\
                         \"corrupted\":{corrupted}"
                    ),
                );
            }
            EventKind::FaultHit {
                channel,
                frame_id,
                in_burst,
            } => {
                w.instant(
                    "fault",
                    channel_tid(*channel),
                    at,
                    &format!("\"frame_id\":{frame_id},\"in_burst\":{in_burst}"),
                );
            }
            EventKind::StealGranted {
                channel,
                slot,
                frame_id,
            } => {
                w.instant(
                    "steal granted",
                    TID_SCHEDULER,
                    at,
                    &format!("\"channel\":{channel},\"slot\":{slot},\"frame_id\":{frame_id}"),
                );
            }
            EventKind::StealDenied { channel, slot } => {
                w.instant(
                    "steal denied",
                    TID_SCHEDULER,
                    at,
                    &format!("\"channel\":{channel},\"slot\":{slot}"),
                );
            }
            EventKind::EarlyCopy {
                channel,
                slot,
                frame_id,
            } => {
                w.instant(
                    "early copy",
                    TID_SCHEDULER,
                    at,
                    &format!("\"channel\":{channel},\"slot\":{slot},\"frame_id\":{frame_id}"),
                );
            }
            EventKind::RetransmissionCopy { channel, frame_id } => {
                w.instant(
                    "retransmission copy",
                    TID_SCHEDULER,
                    at,
                    &format!("\"channel\":{channel},\"frame_id\":{frame_id}"),
                );
            }
            EventKind::SoftShed {
                frame_id,
                criticality,
            } => {
                w.instant(
                    "soft shed",
                    TID_SCHEDULER,
                    at,
                    &format!("\"frame_id\":{frame_id},\"criticality\":{criticality}"),
                );
            }
            EventKind::DegradedCopy {
                channel,
                slot,
                frame_id,
            } => {
                w.instant(
                    "degraded copy",
                    TID_SCHEDULER,
                    at,
                    &format!("\"channel\":{channel},\"slot\":{slot},\"frame_id\":{frame_id}"),
                );
            }
            EventKind::FailoverMirror {
                channel,
                slot,
                frame_id,
            } => {
                w.instant(
                    "failover mirror",
                    TID_SCHEDULER,
                    at,
                    &format!("\"channel\":{channel},\"slot\":{slot},\"frame_id\":{frame_id}"),
                );
            }
            EventKind::HealthTransition { scope, from, to } => {
                w.instant(
                    &format!(
                        "health {} {} → {}",
                        scope_name(*scope),
                        health_name(*from),
                        health_name(*to)
                    ),
                    TID_HEALTH,
                    at,
                    &format!("\"scope\":{scope},\"from\":{from},\"to\":{to}"),
                );
                w.push(&format!(
                    "{{\"name\":\"health {}\",\"ph\":\"C\",\"pid\":1,\"tid\":{TID_HEALTH},\
                     \"ts\":{},\"args\":{{\"state\":{to}}}}}",
                    scope_name(*scope),
                    ts(at)
                ));
            }
            EventKind::CounterSample { cycle: _, values } => {
                for (i, &value) in values.iter().enumerate() {
                    let name = counter_names
                        .get(i)
                        .copied()
                        .map(String::from)
                        .unwrap_or_else(|| format!("counter_{i}"));
                    w.counter(&name, at, "value", value);
                }
            }
            EventKind::GatewayQueued {
                port,
                flow,
                instance,
            } => {
                w.instant(
                    "gateway queued",
                    TID_GATEWAY,
                    at,
                    &format!("\"port\":{port},\"flow\":{flow},\"instance\":{instance}"),
                );
            }
            EventKind::EthernetFrame {
                port,
                flow,
                instance,
                payload_bits,
                duration,
                missed_window,
            } => {
                w.complete(
                    &format!("flow {flow} · instance {instance}"),
                    TID_ETHERNET,
                    at,
                    duration.as_nanos(),
                    &format!(
                        "\"port\":{port},\"flow\":{flow},\"instance\":{instance},\
                         \"payload_bits\":{payload_bits},\"missed_window\":{missed_window}"
                    ),
                );
            }
        }
    }

    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use event_sim::{SimDuration, SimTime};

    fn log_with(kinds: Vec<EventKind>) -> TraceLog {
        TraceLog {
            events: kinds
                .into_iter()
                .enumerate()
                .map(|(i, kind)| TraceEvent {
                    at: SimTime::from_micros(i as u64),
                    kind,
                })
                .collect(),
            dropped: 0,
            capacity: 64,
        }
    }

    #[test]
    fn exports_every_event_kind_without_panicking() {
        let log = log_with(vec![
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
                values: vec![1, 2, 3],
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
        ]);
        let json = chrome_trace_json(&log, &["a", "b"]);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains("\"Channel A\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(
            json.contains("counter_2"),
            "extra values get positional names"
        );
        // Balanced braces/brackets (cheap well-formedness check; the full
        // parse-back check lives in the bench crate's schema validator).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn timestamps_keep_nanosecond_precision() {
        assert_eq!(ts(1_234), "1.234");
        assert_eq!(ts(5), "0.005");
        assert_eq!(ts(1_000_000), "1000.000");
    }

    #[test]
    fn empty_log_exports_only_metadata() {
        let json = chrome_trace_json(&TraceLog::default(), &[]);
        assert!(json.contains("thread_name"));
        assert!(!json.contains("\"ph\":\"X\""));
    }
}
