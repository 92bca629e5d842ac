//! The typed event model.
//!
//! Everything in a [`TraceEvent`] is an integer (simulation nanoseconds,
//! indices, counts, small enums encoded as `u8`), so event streams derive
//! `Eq` and two replays of the same run compare bit for bit.

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

/// The taxonomy of traceable events.
///
/// Bus-side events carry the channel as a `u8` index (0 = A, 1 = B);
/// health states are encoded `0` = Nominal, `1` = Stressed, `2` = Storm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A communication cycle began.
    CycleStart {
        /// Cycle number (0-based).
        cycle: u64,
    },
    /// A frame went out in a static slot.
    SlotFrame {
        /// Channel index (0 = A, 1 = B).
        channel: u8,
        /// Static slot number (1-based, per the FlexRay schedule).
        slot: u64,
        /// Frame identifier.
        frame_id: u64,
        /// Payload length in bits.
        payload_bits: u64,
        /// Wire occupancy of the transmission.
        duration: SimDuration,
        /// Whether fault injection corrupted the frame.
        corrupted: bool,
    },
    /// A frame went out in a dynamic-segment minislot window.
    MinislotFrame {
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
        duration: SimDuration,
        /// Whether fault injection corrupted the frame.
        corrupted: bool,
    },
    /// Fault injection corrupted a frame.
    FaultHit {
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
    StealGranted {
        /// Channel index (0 = A, 1 = B).
        channel: u8,
        /// Static slot whose slack was stolen.
        slot: u64,
        /// Frame identifier served by the stolen slack.
        frame_id: u64,
    },
    /// The scheduler looked for slack and found nothing that fits.
    StealDenied {
        /// Channel index (0 = A, 1 = B).
        channel: u8,
        /// Static slot that had no usable slack.
        slot: u64,
    },
    /// A released static instance went out early through free slack.
    EarlyCopy {
        /// Channel index (0 = A, 1 = B).
        channel: u8,
        /// Static slot carrying the early transmission.
        slot: u64,
        /// Frame identifier.
        frame_id: u64,
    },
    /// A planned (Theorem-1) retransmission copy went out.
    RetransmissionCopy {
        /// Channel index (0 = A, 1 = B).
        channel: u8,
        /// Frame identifier.
        frame_id: u64,
    },
    /// Degraded mode shed a soft dynamic message at the source.
    SoftShed {
        /// Frame identifier of the shed message.
        frame_id: u64,
        /// Criticality of the shed message (ordinal).
        criticality: u8,
    },
    /// Degraded mode bought an extra hard copy beyond the Theorem-1 plan.
    DegradedCopy {
        /// Channel index (0 = A, 1 = B).
        channel: u8,
        /// Static slot carrying the extra copy.
        slot: u64,
        /// Frame identifier.
        frame_id: u64,
    },
    /// Dual-channel failover re-hosted a hard instance on the healthier
    /// channel.
    FailoverMirror {
        /// Channel index of the *healthy* channel that carried the mirror.
        channel: u8,
        /// Static slot carrying the mirror.
        slot: u64,
        /// Frame identifier.
        frame_id: u64,
    },
    /// A reliability monitor changed health state.
    HealthTransition {
        /// Which monitor: see [`HealthScope`].
        scope: HealthScope,
        /// Previous state (0 = Nominal, 1 = Stressed, 2 = Storm).
        from: u8,
        /// New state (same encoding).
        to: u8,
    },
    /// A periodic snapshot of the run counters.
    CounterSample {
        /// Cycle number the sample was taken after.
        cycle: u64,
        /// Counter values, in the run-counter field order of the
        /// instrumented simulator (named by the trace document that
        /// exports them).
        values: Vec<u64>,
    },
    /// A backbone gateway enqueued a FlexRay-delivered frame for
    /// store-and-forward onto a TT-Ethernet egress port.
    GatewayQueued {
        /// Egress port index on the gateway.
        port: u8,
        /// Backbone flow index.
        flow: u64,
        /// 0-based instance index within the flow.
        instance: u64,
    },
    /// A frame left the gateway through a reserved TT-Ethernet gate
    /// window.
    EthernetFrame {
        /// Egress port index on the gateway.
        port: u8,
        /// Backbone flow index.
        flow: u64,
        /// 0-based instance index within the flow.
        instance: u64,
        /// Payload length in bits.
        payload_bits: u64,
        /// Wire occupancy of the transmission.
        duration: SimDuration,
        /// Whether the frame arrived after its reserved window and had to
        /// wait a full hypercycle for the window's next occurrence.
        missed_window: bool,
    },
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
}
