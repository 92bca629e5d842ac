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

/// A payload handed to the engine for transmission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutboundPayload {
    /// Which message is being transmitted.
    pub message: MessageId,
    /// Payload length in bytes (even).
    pub payload_bytes: u16,
    /// When the host produced the message (for latency accounting).
    pub produced_at: SimTime,
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

/// The engine's record of one frame transmission.
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
    /// retransmission schemes hook here.
    fn on_outcome(&mut self, outcome: &TransmissionOutcome) {
        let _ = outcome;
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

/// The cycle-level dual-channel bus simulator.
pub struct BusEngine {
    config: ClusterConfig,
    coding: FrameCoding,
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
    record: bool,
    outcomes: Vec<TransmissionOutcome>,
    cycles_run: u64,
    tracer: Tracer,
}

impl std::fmt::Debug for BusEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BusEngine")
            .field("config", &self.config)
            .field("cycles_run", &self.cycles_run)
            .field("stats", &self.stats)
            .field("recorded_outcomes", &self.outcomes.len())
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
            faults: [Box::new(NoFaults::new()), Box::new(NoFaults::new())],
            stats: [ChannelStats::default(), ChannelStats::default()],
            monitors: None,
            record: false,
            outcomes: Vec::new(),
            cycles_run: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Replaces the physical coding parameters.
    pub fn with_coding(mut self, coding: FrameCoding) -> Self {
        self.coding = coding;
        self.dynamic_overhead_bits = coding.frame_wire_bits(0, true);
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
        let mut monitors = [ReliabilityMonitor::new(cfg), ReliabilityMonitor::new(cfg)];
        if self.tracer.is_enabled() {
            for (i, monitor) in monitors.iter_mut().enumerate() {
                monitor.set_tracer(self.tracer.clone(), i as u8);
            }
        }
        self.monitors = Some(monitors);
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

    /// Enables in-memory recording of every [`TransmissionOutcome`]
    /// (disabled by default: long runs produce millions).
    pub fn record_outcomes(&mut self, on: bool) {
        self.record = on;
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

    /// Recorded outcomes (empty unless [`record_outcomes`] was enabled).
    ///
    /// [`record_outcomes`]: Self::record_outcomes
    pub fn outcomes(&self) -> &[TransmissionOutcome] {
        &self.outcomes
    }

    /// Number of cycles simulated so far.
    pub fn cycles_run(&self) -> u64 {
        self.cycles_run
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
        if self.tracer.is_enabled() {
            self.tracer.emit(
                self.config.cycle_start(cycle),
                EventKind::CycleStart { cycle },
            );
        }
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
        for slot in 1..=self.config.static_slot_count() {
            let slot_u16 = slot as u16;
            match source.static_frame(cycle, cycle_counter, slot_u16, channel) {
                Some(payload) => {
                    let wire_bits = self
                        .coding
                        .frame_wire_bits(u64::from(payload.payload_bytes), false);
                    assert!(
                        wire_bits <= capacity,
                        "frame of {wire_bits} wire bits exceeds static slot capacity {capacity}"
                    );
                    let start = self.config.static_slot_start(cycle, slot)
                        + self.config.mt(ACTION_POINT_OFFSET);
                    let duration = self.config.transmission_duration(wire_bits);
                    let corrupted = self.faults[channel.index()].corrupts(wire_bits as u32);
                    let outcome = TransmissionOutcome {
                        cycle,
                        channel,
                        location: SlotLocation::Static { slot: slot_u16 },
                        message: payload.message,
                        start,
                        duration,
                        wire_bits,
                        corrupted,
                        produced_at: payload.produced_at,
                    };
                    let st = &mut self.stats[channel.index()];
                    st.frames += 1;
                    st.corrupted += u64::from(corrupted);
                    st.busy += duration;
                    st.occupied += self.config.static_slot_duration();
                    if self.tracer.is_enabled() {
                        let ch = channel.index() as u8;
                        self.tracer.emit(
                            start,
                            EventKind::SlotFrame {
                                channel: ch,
                                slot: u64::from(slot_u16),
                                frame_id: u64::from(outcome.message),
                                payload_bits: wire_bits,
                                duration,
                                corrupted,
                            },
                        );
                        if corrupted {
                            self.tracer.emit(
                                start,
                                EventKind::FaultHit {
                                    channel: ch,
                                    frame_id: u64::from(outcome.message),
                                    in_burst: self.faults[channel.index()].in_burst(),
                                },
                            );
                        }
                    }
                    source.on_outcome(&outcome);
                    if self.record {
                        self.outcomes.push(outcome);
                    }
                }
                None => {
                    self.stats[channel.index()].idle_static_slots += 1;
                }
            }
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
        while ms < n_ms {
            // A transmission may start in this minislot only before
            // pLatestTx; afterwards the remaining minislots tick away empty.
            let max_payload = if ms < latest_tx {
                self.max_dynamic_payload(n_ms - ms, ms_bits)
            } else {
                0
            };
            let frame = if max_payload > 0 {
                source.dynamic_frame(cycle, channel, slot_counter, max_payload)
            } else {
                None
            };
            match frame {
                Some(payload) => {
                    assert!(
                        payload.payload_bytes <= max_payload,
                        "dynamic payload {} exceeds advertised maximum {max_payload}",
                        payload.payload_bytes
                    );
                    let wire_bits = self
                        .coding
                        .frame_wire_bits(u64::from(payload.payload_bytes), true);
                    let used_ms = self.config.minislots_for(wire_bits);
                    debug_assert!(ms + used_ms <= n_ms, "engine sizing is consistent");
                    let start = self.config.cycle_start(cycle) + self.config.minislot_offset(ms);
                    let duration = self.config.transmission_duration(wire_bits);
                    let corrupted = self.faults[channel.index()].corrupts(wire_bits as u32);
                    let outcome = TransmissionOutcome {
                        cycle,
                        channel,
                        location: SlotLocation::Dynamic {
                            slot_counter,
                            minislot: ms,
                        },
                        message: payload.message,
                        start,
                        duration,
                        wire_bits,
                        corrupted,
                        produced_at: payload.produced_at,
                    };
                    let st = &mut self.stats[channel.index()];
                    st.frames += 1;
                    st.corrupted += u64::from(corrupted);
                    st.busy += duration;
                    st.occupied += self.config.minislot_duration() * used_ms;
                    if self.tracer.is_enabled() {
                        let ch = channel.index() as u8;
                        self.tracer.emit(
                            start,
                            EventKind::MinislotFrame {
                                channel: ch,
                                slot_counter,
                                minislot: ms,
                                frame_id: u64::from(outcome.message),
                                payload_bits: wire_bits,
                                duration,
                                corrupted,
                            },
                        );
                        if corrupted {
                            self.tracer.emit(
                                start,
                                EventKind::FaultHit {
                                    channel: ch,
                                    frame_id: u64::from(outcome.message),
                                    in_burst: self.faults[channel.index()].in_burst(),
                                },
                            );
                        }
                    }
                    source.on_outcome(&outcome);
                    if self.record {
                        self.outcomes.push(outcome);
                    }
                    ms += used_ms;
                }
                None => {
                    self.stats[channel.index()].idle_minislots += 1;
                    ms += 1;
                }
            }
            slot_counter += 1;
        }
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
        }
    }

    #[test]
    fn static_transmission_lands_in_its_slot() {
        let mut engine = BusEngine::new(config());
        engine.record_outcomes(true);
        let mut src = Script::default();
        src.static_payloads
            .push((0, 2, ChannelId::A, payload(7, 8)));
        engine.run_cycle(0, &mut src);
        let out = &engine.outcomes()[0];
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
    fn dynamic_transmission_consumes_minislots() {
        let mut engine = BusEngine::new(config());
        engine.record_outcomes(true);
        let mut src = Script::default();
        // Dynamic slot counter starts at 5 (4 static slots).
        src.dynamic_payloads
            .push((0, ChannelId::A, 7, payload(42, 16)));
        engine.run_cycle(0, &mut src);
        let out = &engine.outcomes()[0];
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
        engine.record_outcomes(true);
        let mut src = Script::default();
        // Staged in the opposite order: the minislot count decides.
        src.dynamic_payloads
            .push((0, ChannelId::A, 9, payload(200, 4)));
        src.dynamic_payloads
            .push((0, ChannelId::A, 6, payload(201, 4)));
        engine.run_cycle(0, &mut src);
        let order: Vec<(MessageId, SlotLocation)> = engine
            .outcomes()
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
        engine.record_outcomes(true);
        let mut src = Script::default();
        // Would match at minislot 4 (slot counter 9) — after pLatestTx 3.
        src.dynamic_payloads
            .push((0, ChannelId::A, 9, payload(1, 2)));
        engine.run_cycle(0, &mut src);
        assert!(engine.outcomes().is_empty(), "late start must be blocked");
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
        engine.record_outcomes(true);
        let mut src = Script::default();
        src.static_payloads
            .push((0, 1, ChannelId::A, payload(1, 8)));
        engine.run_cycle(0, &mut src);
        let out = &engine.outcomes()[0];
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
        engine.record_outcomes(true);
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
        assert_eq!(engine.outcomes().len(), 4);
        assert_eq!(engine.stats(ChannelId::A).frames, 2);
        assert_eq!(engine.stats(ChannelId::B).frames, 2);
        let copies: Vec<ChannelId> = engine
            .outcomes()
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
        assert_eq!(engine.cycles_run(), 8);
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
