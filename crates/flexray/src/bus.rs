//! The dual-channel bus engine.
//!
//! [`BusEngine`] plays out communication cycles at slot/minislot
//! granularity: TDMA in the static segment, FTDMA (minislot counting with
//! `pLatestTx` gating) in the dynamic segment, independently per channel,
//! with BER-driven fault injection on each transmitted frame.
//!
//! Traffic is supplied by a [`TrafficSource`], a scheduler-level
//! implementation such as the CoEfficient/FSPEC runners in the
//! `coefficient` crate. Everything the paper's metrics need (who occupied
//! the bus when, and whether the frame was corrupted) is reported through
//! [`TransmissionOutcome`].

use event_sim::{SimDuration, SimTime};

use observe::{EventKind, Tracer};
use reliability::fault::{FaultProcess, NoFaults};
use reliability::monitor::{HealthState, MonitorConfig, ReliabilityMonitor};

use crate::channel::ChannelId;
use crate::codec::{FrameCoding, BITS_PER_BYTE_CODED, MAX_PAYLOAD_BYTES};
use crate::config::{ClusterConfig, ACTION_POINT_OFFSET, DYNAMIC_SLOT_IDLE_PHASE};
use crate::schedule::MessageId;

/// A payload handed to the engine for transmission. The engine reads
/// its message, length and production instant, and carries its `tag`
/// through to the frame's [`TransmissionOutcome`] untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutboundPayload {
    /// Which message is being transmitted.
    pub message: MessageId,
    /// Payload length in bytes (even).
    pub payload_bytes: u16,
    /// When the host produced the message (for latency accounting).
    pub produced_at: SimTime,
    /// The source's own handle for this frame. The engine never reads it
    /// and echoes it unchanged in the frame's [`TransmissionOutcome::tag`],
    /// so a source can tell which of its records an outcome belongs to
    /// without keeping a queue of staged frames.
    pub tag: u64,
}

/// Where in the cycle a transmission happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotLocation {
    /// A static slot (1-based).
    Static {
        /// Slot number.
        slot: u16,
    },
    /// A dynamic slot.
    Dynamic {
        /// The dynamic slot counter value (continues after the static
        /// slots).
        slot_counter: u64,
        /// The minislot index (0-based) at which transmission started.
        minislot: u64,
    },
}

/// The engine's record of one frame transmission. Its `tag` is the tag
/// of the [`OutboundPayload`] the source returned for the frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransmissionOutcome {
    /// Communication cycle index (unbounded).
    pub cycle: u64,
    /// Channel the frame went out on.
    pub channel: ChannelId,
    /// Slot/minislot placement.
    pub location: SlotLocation,
    /// The transmitted message.
    pub message: MessageId,
    /// Transmission start instant.
    pub start: SimTime,
    /// Time the frame occupied the wire.
    pub duration: SimDuration,
    /// On-wire length in bits (coding overhead included).
    pub wire_bits: u64,
    /// `true` if fault injection corrupted the frame (receivers observe a
    /// CRC failure).
    pub corrupted: bool,
    /// When the host produced the message.
    pub produced_at: SimTime,
    /// The [`OutboundPayload::tag`] of the transmitted payload, unchanged.
    pub tag: u64,
}

impl TransmissionOutcome {
    /// Latency from production to the end of this transmission.
    pub fn latency(&self) -> SimDuration {
        (self.start + self.duration).saturating_duration_since(self.produced_at)
    }
}

/// Supplies frames to the engine, one decision at a time.
///
/// Implementations must be deterministic: the engine polls in a fixed
/// order (cycle → channel A then B → slot order).
///
/// # Skipping positions
///
/// The engine asks the two provided hooks,
/// [`offer_static`](Self::offer_static) and
/// [`next_dynamic_slot`](Self::next_dynamic_slot), which positions are
/// worth offering, and books every position they skip as idle without
/// calling the source. A source may skip a position only if
/// [`static_frame`](Self::static_frame) or
/// [`dynamic_frame`](Self::dynamic_frame) would have returned `None`
/// there *and changed no state*: no counter, no trace event, no RNG draw.
/// Under that contract a skipping source yields exactly the outcomes,
/// statistics and side effects of one that is offered every position.
/// The defaults skip nothing.
///
/// # Tags
///
/// Each [`OutboundPayload`] carries a `tag` the engine does not read. The
/// [`TransmissionOutcome`] passed to [`on_outcome`](Self::on_outcome) for
/// that frame carries the same tag, unchanged, so a source can key its
/// per-frame records by tag instead of queueing them in staging order.
///
/// # Outcomes
///
/// [`on_outcome`](Self::on_outcome) is the only way an outcome leaves the
/// engine, which keeps none: a source (or a wrapper around one) that
/// wants the outcomes records them there.
pub trait TrafficSource {
    /// The frame to transmit in static `slot` on `channel` during `cycle`
    /// (whose 0–63 counter is `cycle_counter`), or `None` for a null/idle
    /// slot.
    fn static_frame(
        &mut self,
        cycle: u64,
        cycle_counter: u8,
        slot: u16,
        channel: ChannelId,
    ) -> Option<OutboundPayload>;

    /// The frame to transmit in the dynamic slot with counter value
    /// `slot_counter` on `channel`, or `None` to let the minislot pass.
    /// The returned payload must not exceed `max_payload_bytes` (what fits
    /// in the remaining minislots); the engine panics otherwise.
    fn dynamic_frame(
        &mut self,
        cycle: u64,
        channel: ChannelId,
        slot_counter: u64,
        max_payload_bytes: u16,
    ) -> Option<OutboundPayload>;

    /// Notification after every transmission (success or corruption) —
    /// retransmission schemes hook here. `outcome.tag` is the tag of the
    /// payload this source returned for the frame.
    fn on_outcome(&mut self, outcome: &TransmissionOutcome) {
        let _ = outcome;
    }

    /// Offers static `slot`: returns what
    /// [`static_frame`](Self::static_frame) returns there, plus the next
    /// slot worth offering. The engine books the slots in between as idle
    /// without offering them (see the skip contract above). A next slot
    /// at or below `slot` means `slot + 1`; one past the segment ends it.
    fn offer_static(
        &mut self,
        cycle: u64,
        cycle_counter: u8,
        slot: u16,
        channel: ChannelId,
    ) -> (Option<OutboundPayload>, u16) {
        let frame = self.static_frame(cycle, cycle_counter, slot, channel);
        (frame, slot.saturating_add(1))
    }

    /// The first dynamic slot counter at or after `from` worth offering on
    /// `channel`. The engine lets the minislots before it pass empty
    /// without calling [`dynamic_frame`](Self::dynamic_frame) (see the
    /// skip contract above); a counter the segment never reaches ends it.
    fn next_dynamic_slot(&mut self, cycle: u64, channel: ChannelId, from: u64) -> u64 {
        let _ = (cycle, channel);
        from
    }
}

/// Aggregate per-channel counters maintained by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Frames transmitted.
    pub frames: u64,
    /// Frames corrupted by fault injection.
    pub corrupted: u64,
    /// Static slots that carried no frame.
    pub idle_static_slots: u64,
    /// Minislots that passed without a transmission.
    pub idle_minislots: u64,
    /// Total wire-busy time (frame bits on the wire).
    pub busy: SimDuration,
    /// Total *allocated* time: occupied static slots count whole (TDMA
    /// reserves the slot regardless of the frame length) and dynamic
    /// transmissions count their consumed minislots. This is the
    /// "bandwidth actually used" of the paper's utilization metric — time
    /// nobody else could have used.
    pub occupied: SimDuration,
}

impl ChannelStats {
    /// Wire-busy fraction of `[0, horizon)`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        assert!(horizon > SimTime::ZERO, "horizon must be positive");
        (self.busy.as_nanos() as f64 / horizon.as_nanos() as f64).min(1.0)
    }

    /// Allocated (slot-granular) fraction of `[0, horizon)`.
    pub fn occupied_utilization(&self, horizon: SimTime) -> f64 {
        assert!(horizon > SimTime::ZERO, "horizon must be positive");
        (self.occupied.as_nanos() as f64 / horizon.as_nanos() as f64).min(1.0)
    }
}

/// Entries of a wire-time table: one per payload byte count a FlexRay
/// frame can carry (0..=[`MAX_PAYLOAD_BYTES`]).
const WIRE_TIME_ENTRIES: usize = MAX_PAYLOAD_BYTES as usize + 1;

/// The cycle-level dual-channel bus simulator.
///
/// Both segments put a frame on the wire through one transmit step, and
/// its [`TransmissionOutcome`] reaches the [`TrafficSource`] only through
/// [`TrafficSource::on_outcome`]; the engine keeps counters
/// ([`stats`](Self::stats)), not outcomes.
pub struct BusEngine {
    config: ClusterConfig,
    coding: FrameCoding,
    /// Wire time of a frame by payload byte count, under static (`[0]`)
    /// and dynamic (`[1]`) coding: `transmission_duration` of the frame's
    /// wire bits, filled on first use. Every frame takes at least 1 ns on
    /// the wire, so [`SimDuration::ZERO`] marks an entry not yet computed.
    wire_time: [[SimDuration; WIRE_TIME_ENTRIES]; 2],
    /// Bits transferable per minislot, precomputed from the config once —
    /// the dynamic segment consults it every cycle on both channels.
    minislot_bits: u64,
    /// Coded wire bits of a zero-payload dynamic frame (header + trailer
    /// overhead), precomputed from the coding parameters.
    dynamic_overhead_bits: u64,
    faults: [Box<dyn FaultProcess>; 2],
    stats: [ChannelStats; 2],
    /// Optional per-channel reliability monitors, fed each cycle from the
    /// fault processes' counters (see [`with_health_monitoring`]).
    ///
    /// [`with_health_monitoring`]: Self::with_health_monitoring
    monitors: Option<[ReliabilityMonitor; 2]>,
    cycles_run: u64,
    tracer: Tracer,
}

impl std::fmt::Debug for BusEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BusEngine")
            .field("config", &self.config)
            .field("cycles_run", &self.cycles_run)
            .field("stats", &self.stats)
            .finish()
    }
}

impl BusEngine {
    /// Creates a fault-free engine.
    pub fn new(config: ClusterConfig) -> Self {
        let coding = FrameCoding;
        BusEngine {
            minislot_bits: (config.minislot_duration().as_nanos() as u128
                * config.bit_rate_bps() as u128
                / 1_000_000_000u128) as u64,
            dynamic_overhead_bits: coding.frame_wire_bits(0, true),
            config,
            coding,
            wire_time: [[SimDuration::ZERO; WIRE_TIME_ENTRIES]; 2],
            faults: [Box::new(NoFaults::new()), Box::new(NoFaults::new())],
            stats: [ChannelStats::default(), ChannelStats::default()],
            monitors: None,
            cycles_run: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Replaces the physical coding parameters.
    pub fn with_coding(mut self, coding: FrameCoding) -> Self {
        self.coding = coding;
        self.dynamic_overhead_bits = coding.frame_wire_bits(0, true);
        self.wire_time = [[SimDuration::ZERO; WIRE_TIME_ENTRIES]; 2];
        self
    }

    /// Installs independent fault processes for channels A and B.
    pub fn with_faults(mut self, a: Box<dyn FaultProcess>, b: Box<dyn FaultProcess>) -> Self {
        self.faults = [a, b];
        self
    }

    /// Enables per-channel health monitoring: each channel's fault
    /// counters feed an independent [`ReliabilityMonitor`] at the end of
    /// every cycle, and [`channel_health`](Self::channel_health) exposes
    /// the resulting [`HealthState`]s. Monitoring never perturbs the
    /// transmission schedule or the fault RNGs, so enabling it does not
    /// change a run's outcomes.
    pub fn with_health_monitoring(mut self, cfg: MonitorConfig) -> Self {
        self.monitors = Some([ReliabilityMonitor::new(cfg), ReliabilityMonitor::new(cfg)]);
        let tracer = self.tracer.clone();
        self.set_tracer(tracer);
        self
    }

    /// Attaches a structured event tracer. The engine emits cycle
    /// boundaries, slot/minislot occupancy and fault hits through it,
    /// and hands clones to the per-channel reliability monitors
    /// (scopes 0 and 1) so health transitions are timestamped too.
    /// Tracing observes — it never perturbs the schedule or the fault
    /// RNGs.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        if let Some(monitors) = self.monitors.as_mut() {
            for (i, monitor) in monitors.iter_mut().enumerate() {
                monitor.set_tracer(tracer.clone(), i as u8);
            }
        }
        self.tracer = tracer;
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Aggregate counters for `channel`.
    pub fn stats(&self, channel: ChannelId) -> &ChannelStats {
        &self.stats[channel.index()]
    }

    /// Injection counters of `channel`'s fault process (frames consulted
    /// and faults injected so far).
    pub fn fault_counters(&self, channel: ChannelId) -> reliability::fault::FaultCounters {
        self.faults[channel.index()].counters()
    }

    /// Campaign-layer counters of `channel`'s fault process, when it is a
    /// scripted [`reliability::campaign::CampaignFaults`] decorator
    /// (`None` for plain stochastic processes).
    pub fn campaign_counters(
        &self,
        channel: ChannelId,
    ) -> Option<reliability::campaign::CampaignCounters> {
        self.faults[channel.index()].campaign_counters()
    }

    /// The health classification of `channel` from its reliability
    /// monitor. Always [`HealthState::Nominal`] when monitoring was not
    /// enabled via [`with_health_monitoring`](Self::with_health_monitoring).
    pub fn channel_health(&self, channel: ChannelId) -> HealthState {
        self.monitors
            .as_ref()
            .map_or(HealthState::Nominal, |m| m[channel.index()].state())
    }

    /// The reliability monitor watching `channel`, if monitoring is
    /// enabled.
    pub fn channel_monitor(&self, channel: ChannelId) -> Option<&ReliabilityMonitor> {
        self.monitors.as_ref().map(|m| &m[channel.index()])
    }

    /// Simulated time elapsed (cycles × cycle duration).
    pub fn elapsed(&self) -> SimTime {
        self.config.cycle_start(self.cycles_run)
    }

    /// Runs one communication cycle, pulling traffic from `source`.
    /// Cycles must be run in order starting from 0.
    ///
    /// # Panics
    /// Panics if `cycle` is not the next cycle, if a static frame exceeds
    /// the slot capacity, or if a dynamic frame exceeds the advertised
    /// maximum.
    pub fn run_cycle(&mut self, cycle: u64, source: &mut dyn TrafficSource) {
        assert_eq!(cycle, self.cycles_run, "cycles must be run in order");
        self.tracer
            .emit(self.config.cycle_start(cycle), || EventKind::CycleStart {
                cycle,
            });
        let cycle_counter = self.config.cycle_counter(cycle);
        // Announce the cycle to both fault processes first: scripted
        // campaigns key their disturbance windows off this clock. A no-op
        // for stochastic processes (no RNG draws, no counter writes).
        for fault in &mut self.faults {
            fault.on_cycle_start(cycle);
        }
        for channel in ChannelId::BOTH {
            self.run_static_segment(cycle, cycle_counter, channel, source);
            self.run_dynamic_segment(cycle, channel, source);
        }
        if let Some(monitors) = self.monitors.as_mut() {
            let cycle_end = self.config.cycle_start(cycle + 1);
            for (i, monitor) in monitors.iter_mut().enumerate() {
                monitor.set_trace_clock(cycle_end);
                let _ = monitor.observe(self.faults[i].counters());
            }
        }
        self.cycles_run += 1;
    }

    fn run_static_segment(
        &mut self,
        cycle: u64,
        cycle_counter: u8,
        channel: ChannelId,
        source: &mut dyn TrafficSource,
    ) {
        let capacity = self.config.static_slot_capacity_bits();
        let slots = self.config.static_slot_count();
        let mut slot = 1;
        while slot <= slots {
            let slot_u16 = slot as u16;
            let (frame, next) = source.offer_static(cycle, cycle_counter, slot_u16, channel);
            match frame {
                Some(payload) => {
                    let start = self.config.static_slot_start(cycle, slot)
                        + self.config.mt(ACTION_POINT_OFFSET);
                    let location = SlotLocation::Static { slot: slot_u16 };
                    let wire_bits = self.transmit(cycle, channel, location, start, payload, source);
                    // The transmit step sizes the frame, so an oversized
                    // one is caught after it; the panic ends the run.
                    assert!(
                        wire_bits <= capacity,
                        "frame of {wire_bits} wire bits exceeds static slot capacity {capacity}"
                    );
                    self.stats[channel.index()].occupied += self.config.static_slot_duration();
                }
                None => {
                    self.stats[channel.index()].idle_static_slots += 1;
                }
            }
            // The slots the source skipped carry no frame.
            let next = u64::from(next).clamp(slot + 1, slots + 1);
            self.stats[channel.index()].idle_static_slots += next - slot - 1;
            slot = next;
        }
    }

    fn run_dynamic_segment(
        &mut self,
        cycle: u64,
        channel: ChannelId,
        source: &mut dyn TrafficSource,
    ) {
        let n_ms = self.config.minislot_count();
        let latest_tx = self.config.latest_tx();
        let ms_bits = self.minislot_bits;
        let mut ms: u64 = 0;
        let mut slot_counter = self.config.static_slot_count() + 1;
        // A transmission may start only before pLatestTx, and only while
        // some frame still fits the minislots left (a bound that only
        // shrinks); after that the remaining minislots tick away empty.
        while ms < latest_tx {
            let max_payload = self.max_dynamic_payload(n_ms - ms, ms_bits);
            if max_payload == 0 {
                break;
            }
            let next = source.next_dynamic_slot(cycle, channel, slot_counter);
            if next > slot_counter {
                // The minislots before the next frame id worth offering
                // pass empty, one slot counter each.
                let gap = (next - slot_counter).min(latest_tx - ms);
                self.stats[channel.index()].idle_minislots += gap;
                ms += gap;
                slot_counter += gap;
                continue;
            }
            match source.dynamic_frame(cycle, channel, slot_counter, max_payload) {
                Some(payload) => {
                    assert!(
                        payload.payload_bytes <= max_payload,
                        "dynamic payload {} exceeds advertised maximum {max_payload}",
                        payload.payload_bytes
                    );
                    let start = self.config.cycle_start(cycle) + self.config.minislot_offset(ms);
                    let location = SlotLocation::Dynamic {
                        slot_counter,
                        minislot: ms,
                    };
                    let wire_bits = self.transmit(cycle, channel, location, start, payload, source);
                    let used_ms = self.config.minislots_for(wire_bits);
                    debug_assert!(ms + used_ms <= n_ms, "engine sizing is consistent");
                    self.stats[channel.index()].occupied +=
                        self.config.minislot_duration() * used_ms;
                    ms += used_ms;
                }
                None => {
                    self.stats[channel.index()].idle_minislots += 1;
                    ms += 1;
                }
            }
            slot_counter += 1;
        }
        self.stats[channel.index()].idle_minislots += n_ms.saturating_sub(ms);
    }

    /// Puts `payload` on `channel`'s wire at `start`, in either segment:
    /// looks up its wire time, draws the channel's fault, books the frame
    /// in the channel's counters (all but its occupied time, which the
    /// segment knows), traces it and reports its [`TransmissionOutcome`]
    /// to `source`. Returns the frame's wire bits.
    #[inline(always)]
    fn transmit(
        &mut self,
        cycle: u64,
        channel: ChannelId,
        location: SlotLocation,
        start: SimTime,
        payload: OutboundPayload,
        source: &mut dyn TrafficSource,
    ) -> u64 {
        let dynamic = matches!(location, SlotLocation::Dynamic { .. });
        let (wire_bits, duration) = self.wire_time(payload.payload_bytes, dynamic);
        let fault = &mut self.faults[channel.index()];
        let corrupted = fault.corrupts(wire_bits as u32);
        let st = &mut self.stats[channel.index()];
        st.frames += 1;
        st.corrupted += u64::from(corrupted);
        st.busy += duration;
        let (ch, frame_id) = (channel.index() as u8, u64::from(payload.message));
        self.tracer.emit(start, || match location {
            SlotLocation::Static { slot } => EventKind::SlotFrame {
                channel: ch,
                slot: u64::from(slot),
                frame_id,
                payload_bits: wire_bits,
                duration_ns: duration,
                corrupted,
            },
            SlotLocation::Dynamic {
                slot_counter,
                minislot,
            } => EventKind::MinislotFrame {
                channel: ch,
                slot_counter,
                minislot,
                frame_id,
                payload_bits: wire_bits,
                duration_ns: duration,
                corrupted,
            },
        });
        if corrupted {
            self.tracer.emit(start, || EventKind::FaultHit {
                channel: ch,
                frame_id,
                in_burst: fault.in_burst(),
            });
        }
        source.on_outcome(&TransmissionOutcome {
            cycle,
            channel,
            location,
            message: payload.message,
            start,
            duration,
            wire_bits,
            corrupted,
            produced_at: payload.produced_at,
            tag: payload.tag,
        });
        wire_bits
    }

    /// The wire bits and wire time of a frame of `payload_bytes` payload
    /// bytes under static or `dynamic` coding. The time comes from the
    /// table, which computes each entry once. A static frame above
    /// [`MAX_PAYLOAD_BYTES`], which only a source that ignores the
    /// FlexRay payload limit can stage in a wide enough slot, has no entry
    /// and is computed each time.
    fn wire_time(&mut self, payload_bytes: u16, dynamic: bool) -> (u64, SimDuration) {
        let wire_bits = self
            .coding
            .frame_wire_bits(u64::from(payload_bytes), dynamic);
        let table = &mut self.wire_time[usize::from(dynamic)];
        let Some(entry) = table.get_mut(usize::from(payload_bytes)) else {
            return (wire_bits, self.config.transmission_duration(wire_bits));
        };
        if entry.is_zero() {
            *entry = self.config.transmission_duration(wire_bits);
        }
        (wire_bits, *entry)
    }

    /// Largest payload (bytes) whose coded frame fits in `minislots_left`
    /// minislots of `ms_bits` bits each, accounting for the dynamic slot
    /// idle phase and coding overhead.
    fn max_dynamic_payload(&self, minislots_left: u64, ms_bits: u64) -> u16 {
        let idle = DYNAMIC_SLOT_IDLE_PHASE;
        if minislots_left <= idle {
            return 0;
        }
        let budget_bits = (minislots_left - idle) * ms_bits;
        let overhead = self.dynamic_overhead_bits;
        if budget_bits <= overhead {
            return 0;
        }
        let payload_bits = budget_bits - overhead;
        let bytes = payload_bits / BITS_PER_BYTE_CODED;
        (bytes.min(MAX_PAYLOAD_BYTES) as u16) & !1 // round down to an even byte count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reliability::fault::BernoulliFaults;
    use reliability::Ber;

    fn config() -> ClusterConfig {
        ClusterConfig::builder()
            .macroticks_per_cycle(1000)
            .static_slots(4, 60)
            .minislots(100, 2)
            .bit_rate(10_000_000)
            .build()
            .unwrap()
    }

    /// A scripted source for engine-level tests.
    #[derive(Debug, Default)]
    struct Script {
        static_payloads: Vec<(u64, u16, ChannelId, OutboundPayload)>,
        dynamic_payloads: Vec<(u64, ChannelId, u64, OutboundPayload)>,
        outcomes: Vec<TransmissionOutcome>,
    }

    impl TrafficSource for Script {
        fn static_frame(
            &mut self,
            cycle: u64,
            _cycle_counter: u8,
            slot: u16,
            channel: ChannelId,
        ) -> Option<OutboundPayload> {
            let idx = self
                .static_payloads
                .iter()
                .position(|(c, s, ch, _)| *c == cycle && *s == slot && *ch == channel)?;
            Some(self.static_payloads.remove(idx).3)
        }

        fn dynamic_frame(
            &mut self,
            cycle: u64,
            channel: ChannelId,
            slot_counter: u64,
            max_payload_bytes: u16,
        ) -> Option<OutboundPayload> {
            let idx = self.dynamic_payloads.iter().position(|(c, ch, sc, p)| {
                *c == cycle
                    && *ch == channel
                    && *sc == slot_counter
                    && p.payload_bytes <= max_payload_bytes
            })?;
            Some(self.dynamic_payloads.remove(idx).3)
        }

        fn on_outcome(&mut self, outcome: &TransmissionOutcome) {
            self.outcomes.push(outcome.clone());
        }
    }

    fn payload(message: MessageId, bytes: u16) -> OutboundPayload {
        OutboundPayload {
            message,
            payload_bytes: bytes,
            produced_at: SimTime::ZERO,
            tag: 0,
        }
    }

    #[test]
    fn static_transmission_lands_in_its_slot() {
        let mut engine = BusEngine::new(config());
        let mut src = Script::default();
        src.static_payloads
            .push((0, 2, ChannelId::A, payload(7, 8)));
        engine.run_cycle(0, &mut src);
        let out = &src.outcomes[0];
        assert_eq!(out.message, 7);
        assert_eq!(out.location, SlotLocation::Static { slot: 2 });
        // Slot 2 starts at 60 MT; +1 MT action point.
        assert_eq!(out.start, SimTime::from_micros(61));
        // 8-byte payload → (5+8+3)*10 + 5+1+2 = 168 bits → 16.8 µs.
        assert_eq!(out.wire_bits, 168);
        assert_eq!(out.duration, SimDuration::from_nanos(16_800));
        assert_eq!(engine.stats(ChannelId::A).frames, 1);
        assert_eq!(engine.stats(ChannelId::A).idle_static_slots, 3);
        assert_eq!(engine.stats(ChannelId::B).idle_static_slots, 4);
    }

    #[test]
    fn outcomes_echo_their_payload_tag() {
        // Distinct tags on both channels and in both segments, one of them
        // on a corrupted frame: each outcome the source sees carries the tag
        // of its own payload, and every frame the engine counts reaches it.
        let mut engine = BusEngine::new(config()).with_faults(
            Box::new(BernoulliFaults::new(Ber::new(0.9).unwrap(), 1)),
            Box::new(NoFaults::new()),
        );
        let tagged = |message: MessageId, tag: u64| OutboundPayload {
            tag,
            ..payload(message, 8)
        };
        let mut src = Script::default();
        src.static_payloads.extend([
            (0, 1, ChannelId::A, tagged(1, 0xA1)),
            (0, 3, ChannelId::B, tagged(2, u64::MAX)),
            (1, 2, ChannelId::A, tagged(3, 7)),
        ]);
        src.dynamic_payloads.extend([
            (0, ChannelId::A, 6, tagged(4, 1 << 40)),
            (1, ChannelId::B, 9, tagged(5, 0)),
        ]);
        for cycle in 0..2 {
            engine.run_cycle(cycle, &mut src);
        }
        let tags: Vec<(MessageId, u64)> = src.outcomes.iter().map(|o| (o.message, o.tag)).collect();
        assert_eq!(
            tags,
            [(1, 0xA1), (4, 1 << 40), (2, u64::MAX), (3, 7), (5, 0)]
        );
        let frames: u64 = ChannelId::BOTH
            .map(|ch| engine.stats(ch).frames)
            .iter()
            .sum();
        assert_eq!(src.outcomes.len() as u64, frames);
        assert!(src.outcomes.iter().any(|o| o.corrupted));
    }

    #[test]
    fn dynamic_transmission_consumes_minislots() {
        let mut engine = BusEngine::new(config());
        let mut src = Script::default();
        // Dynamic slot counter starts at 5 (4 static slots).
        src.dynamic_payloads
            .push((0, ChannelId::A, 7, payload(42, 16)));
        engine.run_cycle(0, &mut src);
        let out = &src.outcomes[0];
        match out.location {
            SlotLocation::Dynamic {
                slot_counter,
                minislot,
            } => {
                assert_eq!(slot_counter, 7);
                // Counters 5 and 6 passed as empty minislots 0 and 1.
                assert_eq!(minislot, 2);
            }
            other => panic!("unexpected location {other:?}"),
        }
        // 16-byte payload → (5+16+3)*10 + 5+1+2+2 = 250 bits → 13 minislots
        // of 20 bits + 1 idle phase = 14 minislots consumed.
        assert_eq!(out.wire_bits, 250);
        let st = engine.stats(ChannelId::A);
        assert_eq!(st.frames, 1);
        // 100 minislots total: 2 empty before + 14 used + 84 empty after.
        assert_eq!(st.idle_minislots, 86);
    }

    #[test]
    fn lower_dynamic_slot_counter_transmits_first() {
        let mut engine = BusEngine::new(config());
        let mut src = Script::default();
        // Staged in the opposite order: the minislot count decides.
        src.dynamic_payloads
            .push((0, ChannelId::A, 9, payload(200, 4)));
        src.dynamic_payloads
            .push((0, ChannelId::A, 6, payload(201, 4)));
        engine.run_cycle(0, &mut src);
        let order: Vec<(MessageId, SlotLocation)> = src
            .outcomes
            .iter()
            .map(|o| (o.message, o.location))
            .collect();
        // Counter 6 starts at minislot 1 and its 130-bit frame takes 7
        // minislots + 1 idle phase; counters 7 and 8 then pass empty.
        assert_eq!(
            order,
            vec![
                (
                    201,
                    SlotLocation::Dynamic {
                        slot_counter: 6,
                        minislot: 1
                    }
                ),
                (
                    200,
                    SlotLocation::Dynamic {
                        slot_counter: 9,
                        minislot: 11
                    }
                ),
            ]
        );
    }

    #[test]
    fn latest_tx_blocks_late_starts() {
        let cfg = ClusterConfig::builder()
            .macroticks_per_cycle(1000)
            .static_slots(4, 60)
            .minislots(100, 2)
            .latest_tx(3)
            .bit_rate(10_000_000)
            .build()
            .unwrap();
        let mut engine = BusEngine::new(cfg);
        let mut src = Script::default();
        // Would match at minislot 4 (slot counter 9) — after pLatestTx 3.
        src.dynamic_payloads
            .push((0, ChannelId::A, 9, payload(1, 2)));
        engine.run_cycle(0, &mut src);
        assert!(src.outcomes.is_empty(), "late start must be blocked");
        assert_eq!(engine.stats(ChannelId::A).frames, 0);
    }

    #[test]
    fn fault_injection_marks_corruption() {
        // BER 0.5: a 100+-bit frame is corrupted essentially always.
        let ber = Ber::new(0.5).unwrap();
        let mut engine = BusEngine::new(config()).with_faults(
            Box::new(BernoulliFaults::new(ber, 1)),
            Box::new(BernoulliFaults::new(ber, 2)),
        );
        let mut src = Script::default();
        src.static_payloads
            .push((0, 1, ChannelId::A, payload(1, 8)));
        engine.run_cycle(0, &mut src);
        let out = &src.outcomes[0];
        assert!(out.corrupted);
        let st = engine.stats(ChannelId::A);
        assert_eq!(st.corrupted, 1);
        // A corrupted frame still occupied the wire.
        assert_eq!(st.busy, out.duration);
        assert_eq!(st.occupied, engine.config().static_slot_duration());
    }

    #[test]
    fn channels_are_independent_and_both_polled() {
        let mut engine = BusEngine::new(config());
        let mut src = Script::default();
        src.static_payloads
            .push((0, 1, ChannelId::A, payload(1, 2)));
        src.static_payloads
            .push((0, 1, ChannelId::B, payload(2, 2)));
        // One message staged on both channels: A's copy goes out first.
        for ch in [ChannelId::B, ChannelId::A] {
            src.static_payloads.push((0, 2, ch, payload(3, 2)));
        }
        engine.run_cycle(0, &mut src);
        assert_eq!(src.outcomes.len(), 4);
        assert_eq!(engine.stats(ChannelId::A).frames, 2);
        assert_eq!(engine.stats(ChannelId::B).frames, 2);
        let copies: Vec<ChannelId> = src
            .outcomes
            .iter()
            .filter(|o| o.message == 3)
            .map(|o| o.channel)
            .collect();
        assert_eq!(copies, vec![ChannelId::A, ChannelId::B]);
    }

    #[test]
    #[should_panic(expected = "cycles must be run in order")]
    fn out_of_order_cycles_rejected() {
        let mut engine = BusEngine::new(config());
        let mut src = Script::default();
        engine.run_cycle(1, &mut src);
    }

    #[test]
    fn elapsed_and_slot_accounting_track_cycles() {
        let mut engine = BusEngine::new(config());
        let mut src = Script::default();
        for cycle in 0..8 {
            src.static_payloads
                .push((cycle, 1, ChannelId::A, payload(1, 8)));
        }
        for cycle in 0..8 {
            engine.run_cycle(cycle, &mut src);
        }
        assert_eq!(engine.elapsed(), SimTime::from_millis(8));
        let slots = engine.config().static_slot_count();
        for ch in ChannelId::BOTH {
            // Every static slot is either a frame or idle.
            let st = engine.stats(ch);
            assert_eq!(st.frames + st.idle_static_slots, 8 * slots);
            assert!(st.occupied >= st.busy, "slot time includes wire time");
        }
        assert_eq!(engine.stats(ChannelId::A).frames, 8);
    }

    proptest::proptest! {
        /// The wire-time table holds exactly what the formula computes,
        /// for every payload a frame can carry, both codings and any bit
        /// rate, whether the entry is filled by this lookup or read back
        /// by the next one. A static payload above the table falls back to
        /// the formula; a dynamic one cannot occur (the engine never
        /// advertises more than `MAX_PAYLOAD_BYTES`).
        #[test]
        fn wire_time_table_equals_the_formula(
            rate in (1u64..=u64::MAX, 0u32..64),
            order in 0u64..3,
        ) {
            // Spread the bit rates over every order of magnitude.
            let rate = (rate.0 >> rate.1).max(1);
            let cfg = ClusterConfig::builder()
                .macroticks_per_cycle(1000)
                .static_slots(4, 60)
                .minislots(100, 2)
                .bit_rate(rate)
                .build()
                .unwrap();
            let mut engine = BusEngine::new(cfg.clone()).with_coding(FrameCoding);
            let coding = FrameCoding;
            let mut payloads: Vec<u16> = (0..=MAX_PAYLOAD_BYTES as u16).collect();
            match order {
                0 => {}
                1 => payloads.reverse(),
                _ => payloads.sort_by_key(|p| (p % 7, *p)),
            }
            for _use in ["first", "reuse"] {
                for &p in &payloads {
                    for dynamic in [false, true] {
                        let bits = coding.frame_wire_bits(u64::from(p), dynamic);
                        let want = (bits, cfg.transmission_duration(bits));
                        proptest::prop_assert_eq!(engine.wire_time(p, dynamic), want);
                    }
                }
            }
            for p in [MAX_PAYLOAD_BYTES as u16 + 2, 1000, u16::MAX] {
                let bits = coding.frame_wire_bits(u64::from(p), false);
                let want = (bits, cfg.transmission_duration(bits));
                proptest::prop_assert_eq!(engine.wire_time(p, false), want);
            }
        }
    }

    #[test]
    fn max_dynamic_payload_is_even_and_bounded() {
        let engine = BusEngine::new(config());
        // Full segment: 100 minislots, 1 idle → 99 * 20 = 1980 bits budget;
        // overhead (0-byte payload, dynamic) = 5+1+80+2+2 = 90 → 1890 bits
        // → 189 bytes → floor to even = 188.
        assert_eq!(engine.max_dynamic_payload(100, 20), 188);
        assert_eq!(engine.max_dynamic_payload(1, 20), 0);
        assert_eq!(engine.max_dynamic_payload(0, 20), 0);
        // Huge budget clamps at the 254-byte FlexRay maximum.
        assert_eq!(engine.max_dynamic_payload(10_000, 20), 254);
    }

    /// A [`Script`] behind the skip hooks: it offers only the static slots
    /// and dynamic slot counters it has a payload staged for, hints past
    /// the segment's end when nothing is left, and counts the offers.
    #[derive(Debug, Default)]
    struct Hinted {
        script: Script,
        static_offers: u64,
        dynamic_offers: u64,
    }

    impl TrafficSource for Hinted {
        fn static_frame(
            &mut self,
            cycle: u64,
            cycle_counter: u8,
            slot: u16,
            channel: ChannelId,
        ) -> Option<OutboundPayload> {
            self.static_offers += 1;
            self.script
                .static_frame(cycle, cycle_counter, slot, channel)
        }

        fn dynamic_frame(
            &mut self,
            cycle: u64,
            channel: ChannelId,
            slot_counter: u64,
            max_payload_bytes: u16,
        ) -> Option<OutboundPayload> {
            self.dynamic_offers += 1;
            self.script
                .dynamic_frame(cycle, channel, slot_counter, max_payload_bytes)
        }

        fn on_outcome(&mut self, outcome: &TransmissionOutcome) {
            self.script.on_outcome(outcome);
        }

        fn offer_static(
            &mut self,
            cycle: u64,
            cycle_counter: u8,
            slot: u16,
            channel: ChannelId,
        ) -> (Option<OutboundPayload>, u16) {
            let frame = self.static_frame(cycle, cycle_counter, slot, channel);
            let next = self
                .script
                .static_payloads
                .iter()
                .filter(|(c, s, ch, _)| *c == cycle && *ch == channel && *s > slot)
                .map(|&(_, s, _, _)| s)
                .min()
                .unwrap_or(u16::MAX);
            (frame, next)
        }

        fn next_dynamic_slot(&mut self, cycle: u64, channel: ChannelId, from: u64) -> u64 {
            self.script
                .dynamic_payloads
                .iter()
                .filter(|(c, ch, sc, _)| *c == cycle && *ch == channel && *sc >= from)
                .map(|&(_, _, sc, _)| sc)
                .min()
                .unwrap_or(u64::MAX)
        }
    }

    /// Runs `script` for `cycles` cycles once offering every position and
    /// once through [`Hinted`], checks that both record the same outcomes
    /// and statistics, and returns the hinted source's offer counts.
    fn skip_matches_offering_everything(
        cfg: ClusterConfig,
        script: Script,
        cycles: u64,
    ) -> (u64, u64) {
        let run = |source: &mut dyn TrafficSource| {
            let mut engine = BusEngine::new(cfg.clone());
            for cycle in 0..cycles {
                engine.run_cycle(cycle, source);
            }
            ChannelId::BOTH.map(|ch| *engine.stats(ch))
        };
        let mut hinted = Hinted {
            script: Script {
                static_payloads: script.static_payloads.clone(),
                dynamic_payloads: script.dynamic_payloads.clone(),
                outcomes: Vec::new(),
            },
            ..Hinted::default()
        };
        let mut every = script;
        let (want, skipped) = (run(&mut every), run(&mut hinted));
        assert_eq!(want, skipped);
        // Every static slot is either a frame or idle.
        for ch in ChannelId::BOTH {
            let frames = every
                .outcomes
                .iter()
                .filter(|o| o.channel == ch && matches!(o.location, SlotLocation::Static { .. }))
                .count() as u64;
            let idle = want[ch.index()].idle_static_slots;
            assert_eq!(frames + idle, cycles * cfg.static_slot_count());
        }
        assert_eq!(every.outcomes, hinted.script.outcomes);
        (hinted.static_offers, hinted.dynamic_offers)
    }

    #[test]
    fn skipped_positions_are_booked_idle_in_bulk() {
        let mut src = Script::default();
        for cycle in 0..3 {
            src.static_payloads
                .push((cycle, 2, ChannelId::A, payload(1, 8)));
            src.static_payloads
                .push((cycle, 4, ChannelId::B, payload(2, 8)));
            src.dynamic_payloads
                .push((cycle, ChannelId::A, 7, payload(3, 16)));
            src.dynamic_payloads
                .push((cycle, ChannelId::B, 40, payload(4, 4)));
        }
        // A payload too large for the minislots left is offered and
        // refused, like any other position.
        src.dynamic_payloads
            .push((1, ChannelId::A, 30, payload(5, 200)));
        let (static_offers, dynamic_offers) = skip_matches_offering_everything(config(), src, 3);
        // Per cycle: slots 1 and 2 on A (slot 1 before the hint), slot 1
        // and 4 on B; one dynamic offer per staged frame id.
        assert_eq!(static_offers, 3 * 4);
        assert_eq!(dynamic_offers, 3 * 2 + 1);
    }

    #[test]
    fn skipping_respects_latest_tx_and_an_empty_dynamic_segment() {
        let latest = ClusterConfig::builder()
            .macroticks_per_cycle(1000)
            .static_slots(4, 60)
            .minislots(100, 2)
            .latest_tx(3)
            .bit_rate(10_000_000)
            .build()
            .unwrap();
        let mut src = Script::default();
        // Counter 6 starts in minislot 1, before pLatestTx; counter 9 would
        // start in minislot 4, after it, so the hint runs past the gate.
        src.dynamic_payloads
            .push((0, ChannelId::A, 6, payload(1, 2)));
        src.dynamic_payloads
            .push((0, ChannelId::B, 9, payload(2, 2)));
        let (_, dynamic_offers) = skip_matches_offering_everything(latest, src, 1);
        assert_eq!(dynamic_offers, 1, "the late frame is never offered");

        let no_minislots = ClusterConfig::builder()
            .macroticks_per_cycle(1000)
            .static_slots(4, 60)
            .minislots(0, 2)
            .bit_rate(10_000_000)
            .build()
            .unwrap();
        let mut src = Script::default();
        src.static_payloads
            .push((0, 3, ChannelId::A, payload(1, 8)));
        let (static_offers, dynamic_offers) =
            skip_matches_offering_everything(no_minislots, src, 2);
        assert_eq!((static_offers, dynamic_offers), (2 + 1 + 1 + 1, 0));
    }

    #[test]
    fn skipping_spans_more_than_64_static_slots() {
        let wide = ClusterConfig::builder()
            .macroticks_per_cycle(5000)
            .static_slots(80, 40)
            .minislots(100, 2)
            .bit_rate(10_000_000)
            .build()
            .unwrap();
        let mut src = Script::default();
        for (slot, ch) in [(3, ChannelId::A), (65, ChannelId::A), (80, ChannelId::B)] {
            src.static_payloads.push((0, slot, ch, payload(1, 8)));
        }
        let (static_offers, _) = skip_matches_offering_everything(wide, src, 1);
        // A: slots 1, 3 and 65; B: slots 1 and 80.
        assert_eq!(static_offers, 5);
    }

    /// Fills every static slot on both channels for `cycles` cycles.
    fn saturating_script(cycles: u64) -> Script {
        let mut src = Script::default();
        for cycle in 0..cycles {
            for slot in 1..=4u16 {
                for ch in ChannelId::BOTH {
                    src.static_payloads
                        .push((cycle, slot, ch, payload(u32::from(slot), 8)));
                }
            }
        }
        src
    }

    #[test]
    fn health_monitoring_flags_only_the_sick_channel() {
        // Channel A corrupts every frame, channel B none: the monitors
        // must diverge, and the healthy channel must stay Nominal.
        let ber = Ber::new(0.9).unwrap();
        let mut engine = BusEngine::new(config())
            .with_faults(
                Box::new(BernoulliFaults::new(ber, 1)),
                Box::new(NoFaults::new()),
            )
            .with_health_monitoring(MonitorConfig {
                min_window_frames: 4,
                ..MonitorConfig::default()
            });
        let mut src = saturating_script(8);
        for cycle in 0..8 {
            engine.run_cycle(cycle, &mut src);
        }
        assert_eq!(engine.channel_health(ChannelId::A), HealthState::Storm);
        assert_eq!(engine.channel_health(ChannelId::B), HealthState::Nominal);
        let monitor_a = engine.channel_monitor(ChannelId::A).unwrap();
        assert!(monitor_a.counters().storm_entries >= 1);
        assert!(monitor_a.ewma_fault_rate() > 0.5);
    }

    #[test]
    fn health_monitoring_defaults_to_nominal_when_disabled() {
        let engine = BusEngine::new(config());
        for ch in ChannelId::BOTH {
            assert_eq!(engine.channel_health(ch), HealthState::Nominal);
            assert!(engine.channel_monitor(ch).is_none());
        }
    }

    #[test]
    fn scripted_campaign_runs_on_the_engine_cycle_clock() {
        use reliability::campaign::{CampaignFaults, CampaignSpec, CampaignTarget};
        // Blackout on channel A for cycles 2..4; channel B untouched even
        // though both decorators share the same spec (target filtering).
        let spec = CampaignSpec::new().blackout(CampaignTarget::A, 2, 2);
        let mut engine = BusEngine::new(config()).with_faults(
            Box::new(CampaignFaults::new(Box::new(NoFaults::new()), &spec, 0, 1)),
            Box::new(CampaignFaults::new(Box::new(NoFaults::new()), &spec, 1, 1)),
        );
        let mut src = saturating_script(6);
        for cycle in 0..6 {
            engine.run_cycle(cycle, &mut src);
        }
        // 4 occupied static slots per cycle per channel, 2 blackout cycles.
        assert_eq!(engine.stats(ChannelId::A).corrupted, 8);
        assert_eq!(engine.stats(ChannelId::B).corrupted, 0);
        let a = engine.campaign_counters(ChannelId::A).expect("decorated");
        assert_eq!(a.blackout_faults, 8);
        assert_eq!(a.events_started, 1);
        let b = engine.campaign_counters(ChannelId::B).expect("decorated");
        assert_eq!(b.blackout_faults, 0);
        assert_eq!(b.events_started, 0, "the event never targets B");
        // Plain stochastic processes report no campaign layer.
        assert!(BusEngine::new(config())
            .campaign_counters(ChannelId::A)
            .is_none());
    }

    #[test]
    fn per_channel_fault_counters_merge_to_the_bus_total() {
        let ber = Ber::new(0.3).unwrap();
        let run = |monitored: bool| {
            let mut engine = BusEngine::new(config()).with_faults(
                Box::new(BernoulliFaults::new(ber, 7)),
                Box::new(BernoulliFaults::new(ber, 8)),
            );
            if monitored {
                engine = engine.with_health_monitoring(MonitorConfig::default());
            }
            let mut src = saturating_script(6);
            for cycle in 0..6 {
                engine.run_cycle(cycle, &mut src);
            }
            let a = engine.fault_counters(ChannelId::A);
            let b = engine.fault_counters(ChannelId::B);
            let total = a.merged(b);
            // Every transmitted frame consulted exactly one fault process.
            let frames: u64 = ChannelId::BOTH
                .iter()
                .map(|&c| engine.stats(c).frames)
                .sum();
            let corrupted: u64 = ChannelId::BOTH
                .iter()
                .map(|&c| engine.stats(c).corrupted)
                .sum();
            assert_eq!(total.frames_checked, frames);
            assert_eq!(total.faults_injected, corrupted);
            (a, b)
        };
        // Observation must not perturb the fault processes: replaying with
        // monitoring on reproduces the identical per-channel counters.
        assert_eq!(run(false), run(true));
    }
}
