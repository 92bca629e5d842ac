//! The typed event model and its schema.
//!
//! Everything in a [`TraceEvent`] is an integer (simulation nanoseconds,
//! indices, counts, small enums encoded as `u8`), so event streams derive
//! `Eq` and two replays of the same run compare bit for bit.
//!
//! Each event type is declared once, in the `event_types!` table below:
//! its doc, its variant, its `type` tag, and each field's doc, name and
//! Rust type. The table generates [`EventKind`], its schema
//! ([`EventKind::TYPES`]: the tag plus one `(kind, name)` per field, the
//! kind following from the field's type) and [`EventKind::values`]. A
//! field's export name is its field name, so a duration is `*_ns`.

use event_sim::{SimDuration, SimTime};

/// One recorded event: an instant on the simulated clock plus a typed
/// payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// When the event happened, on the simulated clock.
    pub at: SimTime,
    /// What happened.
    pub kind: EventKind,
}

/// Channel scope used by [`EventKind::HealthTransition`].
///
/// `0` = channel A's monitor, `1` = channel B's monitor, `2` = the
/// bus-wide (merged-counters) monitor, `3` = the *effective* health the
/// scheduler reacts to (worst of the three).
pub type HealthScope = u8;

/// What an exported field holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// An exact integer.
    Int,
    /// A bool.
    Bool,
    /// An array of integers: the counter values of a sample.
    Counts,
}

/// The value of one exported field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldValue<'a> {
    /// An integer ([`FieldKind::Int`]); a duration in nanoseconds.
    Int(u64),
    /// A bool ([`FieldKind::Bool`]).
    Bool(bool),
    /// Counter values ([`FieldKind::Counts`]).
    Counts(&'a [u64]),
}

/// One event type of the schema: its `type` tag and its fields in
/// export order.
#[derive(Debug, PartialEq, Eq)]
pub struct EventType {
    /// The `type` tag.
    pub tag: &'static str,
    /// One `(kind, name)` per field, in the variant's order.
    pub fields: &'static [(FieldKind, &'static str)],
}

/// A Rust type an event field may have: its kind and how it exports.
trait Field {
    const KIND: FieldKind;
    fn value(&self) -> FieldValue<'_>;
}

impl Field for u64 {
    const KIND: FieldKind = FieldKind::Int;
    fn value(&self) -> FieldValue<'_> {
        FieldValue::Int(*self)
    }
}

impl Field for u8 {
    const KIND: FieldKind = FieldKind::Int;
    fn value(&self) -> FieldValue<'_> {
        FieldValue::Int(u64::from(*self))
    }
}

impl Field for SimDuration {
    const KIND: FieldKind = FieldKind::Int;
    fn value(&self) -> FieldValue<'_> {
        FieldValue::Int(self.as_nanos())
    }
}

impl Field for bool {
    const KIND: FieldKind = FieldKind::Bool;
    fn value(&self) -> FieldValue<'_> {
        FieldValue::Bool(*self)
    }
}

impl Field for Vec<u64> {
    const KIND: FieldKind = FieldKind::Counts;
    fn value(&self) -> FieldValue<'_> {
        FieldValue::Counts(self)
    }
}

/// Generates [`EventKind`], [`EventKind::TYPES`] and
/// [`EventKind::values`] from one entry per event type:
/// `Variant as "tag" { field: Type, .. }`, each with its docs.
macro_rules! event_types {
    (
        $(#[$attr:meta])*
        pub enum EventKind {
            $(
                $(#[$variant_attr:meta])*
                $variant:ident as $tag:literal {
                    $( $(#[$field_attr:meta])* $field:ident: $ty:ty, )*
                },
            )*
        }
    ) => {
        $(#[$attr])*
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum EventKind {
            $(
                $(#[$variant_attr])*
                $variant { $( $(#[$field_attr])* $field: $ty, )* },
            )*
        }

        /// The position of each variant's type in [`EventKind::TYPES`].
        enum Ordinal {
            $($variant,)*
        }

        impl EventKind {
            /// Every event type, in the variants' order.
            pub const TYPES: &'static [EventType] = &[$(EventType {
                tag: $tag,
                fields: &[$((<$ty as Field>::KIND, stringify!($field)),)*],
            },)*];

            /// This event's type.
            pub fn event_type(&self) -> &'static EventType {
                let ordinal = match self {
                    $(Self::$variant { .. } => Ordinal::$variant,)*
                };
                &Self::TYPES[ordinal as usize]
            }

            /// This event's values, one per field of its type, in order.
            pub fn values(&self) -> Vec<FieldValue<'_>> {
                match self {
                    $(Self::$variant { $($field,)* } => vec![$(Field::value($field),)*],)*
                }
            }
        }
    };
}

event_types! {
    /// The taxonomy of traceable events.
    ///
    /// Bus-side events carry the channel as a `u8` index (0 = A, 1 = B);
    /// health states are encoded `0` = Nominal, `1` = Stressed, `2` = Storm.
    pub enum EventKind {
        /// A communication cycle began.
        CycleStart as "cycle_start" {
            /// Cycle number (0-based).
            cycle: u64,
        },
        /// A frame went out in a static slot.
        SlotFrame as "slot_frame" {
            /// Channel index (0 = A, 1 = B).
            channel: u8,
            /// Static slot number (1-based, per the FlexRay schedule).
            slot: u64,
            /// Frame identifier.
            frame_id: u64,
            /// Payload length in bits.
            payload_bits: u64,
            /// Wire occupancy of the transmission.
            duration_ns: SimDuration,
            /// Whether fault injection corrupted the frame.
            corrupted: bool,
        },
        /// A frame went out in a dynamic-segment minislot window.
        MinislotFrame as "minislot_frame" {
            /// Channel index (0 = A, 1 = B).
            channel: u8,
            /// Dynamic slot counter value at transmission.
            slot_counter: u64,
            /// Minislot index the transmission started in (0-based).
            minislot: u64,
            /// Frame identifier.
            frame_id: u64,
            /// Payload length in bits.
            payload_bits: u64,
            /// Wire occupancy of the transmission.
            duration_ns: SimDuration,
            /// Whether fault injection corrupted the frame.
            corrupted: bool,
        },
        /// Fault injection corrupted a frame.
        FaultHit as "fault_hit" {
            /// Channel index (0 = A, 1 = B).
            channel: u8,
            /// Frame identifier of the corrupted transmission.
            frame_id: u64,
            /// Whether the channel's fault process was inside a fault burst
            /// (always `false` for memoryless models).
            in_burst: bool,
        },
        /// The scheduler stole static slack for a pending hard copy or
        /// backlogged dynamic message.
        StealGranted as "steal_granted" {
            /// Channel index (0 = A, 1 = B).
            channel: u8,
            /// Static slot whose slack was stolen.
            slot: u64,
            /// Frame identifier served by the stolen slack.
            frame_id: u64,
        },
        /// The scheduler looked for slack and found nothing that fits.
        StealDenied as "steal_denied" {
            /// Channel index (0 = A, 1 = B).
            channel: u8,
            /// Static slot that had no usable slack.
            slot: u64,
        },
        /// A released static instance went out early through free slack.
        EarlyCopy as "early_copy" {
            /// Channel index (0 = A, 1 = B).
            channel: u8,
            /// Static slot carrying the early transmission.
            slot: u64,
            /// Frame identifier.
            frame_id: u64,
        },
        /// A planned (Theorem-1) retransmission copy went out.
        RetransmissionCopy as "retransmission_copy" {
            /// Channel index (0 = A, 1 = B).
            channel: u8,
            /// Frame identifier.
            frame_id: u64,
        },
        /// Degraded mode shed a soft dynamic message at the source.
        SoftShed as "soft_shed" {
            /// Frame identifier of the shed message.
            frame_id: u64,
            /// Criticality of the shed message (ordinal).
            criticality: u8,
        },
        /// Degraded mode bought an extra hard copy beyond the Theorem-1 plan.
        DegradedCopy as "degraded_copy" {
            /// Channel index (0 = A, 1 = B).
            channel: u8,
            /// Static slot carrying the extra copy.
            slot: u64,
            /// Frame identifier.
            frame_id: u64,
        },
        /// Dual-channel failover re-hosted a hard instance on the healthier
        /// channel.
        FailoverMirror as "failover_mirror" {
            /// Channel index of the *healthy* channel that carried the mirror.
            channel: u8,
            /// Static slot carrying the mirror.
            slot: u64,
            /// Frame identifier.
            frame_id: u64,
        },
        /// A reliability monitor changed health state.
        HealthTransition as "health_transition" {
            /// Which monitor: see [`HealthScope`].
            scope: HealthScope,
            /// Previous state (0 = Nominal, 1 = Stressed, 2 = Storm).
            from: u8,
            /// New state (same encoding).
            to: u8,
        },
        /// A periodic snapshot of the run counters.
        CounterSample as "counter_sample" {
            /// Cycle number the sample was taken after.
            cycle: u64,
            /// Counter values, in the run-counter field order of the
            /// instrumented simulator (named by the trace document that
            /// exports them).
            values: Vec<u64>,
        },
        /// A backbone gateway enqueued a FlexRay-delivered frame for
        /// store-and-forward onto a TT-Ethernet egress port.
        GatewayQueued as "gateway_queued" {
            /// Egress port index on the gateway.
            port: u8,
            /// Backbone flow index.
            flow: u64,
            /// 0-based instance index within the flow.
            instance: u64,
        },
        /// A frame left the gateway through a reserved TT-Ethernet gate
        /// window.
        EthernetFrame as "ethernet_frame" {
            /// Egress port index on the gateway.
            port: u8,
            /// Backbone flow index.
            flow: u64,
            /// 0-based instance index within the flow.
            instance: u64,
            /// Payload length in bits.
            payload_bits: u64,
            /// Wire occupancy of the transmission.
            duration_ns: SimDuration,
            /// Whether the frame arrived after its reserved window and had to
            /// wait a full hypercycle for the window's next occurrence.
            missed_window: bool,
        },
    }
}

/// A captured event stream plus ring-buffer accounting.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceLog {
    /// The retained events, in emission order.
    pub events: Vec<TraceEvent>,
    /// Events dropped because the ring was full.
    pub dropped: u64,
    /// Capacity of the ring that recorded this log.
    pub capacity: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_compare_bit_for_bit() {
        let a = TraceEvent {
            at: SimTime::from_micros(7),
            kind: EventKind::StealGranted {
                channel: 0,
                slot: 12,
                frame_id: 3,
            },
        };
        assert_eq!(a, a.clone());
        let b = TraceEvent {
            at: a.at,
            kind: EventKind::StealDenied {
                channel: 0,
                slot: 12,
            },
        };
        assert_ne!(a, b);
    }

    #[test]
    fn an_event_exports_its_fields_in_declaration_order() {
        let kind = EventKind::SlotFrame {
            channel: 1,
            slot: 2,
            frame_id: 3,
            payload_bits: 4,
            duration_ns: SimDuration::from_micros(5),
            corrupted: true,
        };
        let ty = kind.event_type();
        assert_eq!(ty.tag, "slot_frame");
        let names: Vec<_> = ty.fields.iter().map(|&(_, name)| name).collect();
        let fields = [
            "channel",
            "slot",
            "frame_id",
            "payload_bits",
            "duration_ns",
            "corrupted",
        ];
        assert_eq!(names, fields);
        assert_eq!(ty.fields[5].0, FieldKind::Bool);
        let values = [1, 2, 3, 4, 5_000].map(FieldValue::Int);
        assert_eq!(
            kind.values(),
            [&values[..], &[FieldValue::Bool(true)]].concat()
        );
        let sample = EventKind::CounterSample {
            cycle: 7,
            values: vec![8, 9],
        };
        let counts = [FieldValue::Int(7), FieldValue::Counts(&[8, 9])];
        assert_eq!(sample.values(), counts);
        assert_eq!(sample.event_type().fields[1], (FieldKind::Counts, "values"));
    }

    #[test]
    fn event_type_tags_are_unique() {
        let types = EventKind::TYPES;
        for (i, ty) in types.iter().enumerate() {
            assert!(types[..i].iter().all(|t| t.tag != ty.tag), "{}", ty.tag);
        }
    }
}
