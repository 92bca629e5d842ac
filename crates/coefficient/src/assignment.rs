//! Static-segment allocation and selective slack stealing.
//!
//! Everything periodic in a FlexRay schedule repeats over the 64-cycle
//! matrix, so CoEfficient's placement decisions — primaries, mirrors, and
//! the retransmission copies required by the reliability plan — are made
//! **offline** over a `(channel × slot × 64 cycles)` occupancy matrix:
//!
//! * **primaries**: each static message gets a slot and a
//!   `(base, repetition)` pattern on channel A, repetition being the
//!   largest power of two whose cycle multiple still fits the message
//!   period (so every period sees at least one transmission);
//! * **mirrors** (FSPEC): the same position on channel B — the
//!   spec's blanket dual-channel redundancy;
//! * **copies** (CoEfficient): `k_z` extra positions *stolen from the idle
//!   slack*, preferring zero-added-latency positions (channel B, same
//!   slot/cycle), then later slots of the same cycle, then following
//!   cycles — and only positions whose capacity fits the frame (the
//!   *selective* criterion of §III-F). Copies that find no static slack
//!   spill to the dynamic segment at run time.
//!
//! Placement tests freeness on one 64-bit cycle mask per `(channel, slot)`,
//! where a `(base, repetition)` pattern is itself a mask, so each candidate
//! is one AND. The occupant matrix and a per-`(channel, cycle)` bitset of
//! occupied slots serve the runtime's lookups.

use std::fmt;

use flexray::codec::FrameCoding;
use flexray::config::{ClusterConfig, CYCLE_COUNT_MAX};
use flexray::schedule::MessageId;
use flexray::signal::Signal;
use flexray::ChannelId;

/// Why an occupant sits in a position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OccupantKind {
    /// The message's primary transmission.
    Primary,
    /// FSPEC's channel-B duplicate of the primary.
    Mirror,
    /// A CoEfficient retransmission copy stolen from slack.
    Copy,
}

/// One occupied position in the allocation matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occupant {
    /// The message transmitted here.
    pub message: MessageId,
    /// Position of that message in the slice the allocation was built
    /// from (for a copy: of the message whose primary it protects), so the
    /// runtime reaches its per-message state without a search.
    pub index: u16,
    /// Primary, mirror or stolen copy.
    pub kind: OccupantKind,
}

// The fleet fills one occupant matrix per vehicle; the index rides in the
// padding, so an entry stays 8 bytes.
const _: () = assert!(std::mem::size_of::<Option<Occupant>>() == 8);

/// The most static messages one allocation indexes (`Occupant::index`).
const MAX_STATIC_MESSAGES: usize = u16::MAX as usize + 1;

/// A repeating position in the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotPosition {
    /// Static slot (1-based).
    pub slot: u16,
    /// First active cycle (0–63).
    pub base_cycle: u8,
    /// Cycle repetition (power of two ≤ 64).
    pub repetition: u8,
    /// Channel.
    pub channel: ChannelId,
}

/// A stolen-slack copy position for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyPlacement {
    /// The protected message.
    pub message: MessageId,
    /// Where the copy transmits.
    pub position: SlotPosition,
}

/// Allocation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocationError {
    /// A frame's wire length exceeds the static slot capacity.
    FrameTooLarge {
        /// The offending message.
        message: MessageId,
        /// Its on-wire bits.
        wire_bits: u64,
        /// The slot capacity.
        capacity: u64,
    },
    /// No `(slot, base)` could host the message's primary pattern.
    NoSlotAvailable {
        /// The message that could not be placed.
        message: MessageId,
    },
    /// More than 65,536 static messages: an occupant indexes its message
    /// in 16 bits.
    TooManyMessages {
        /// The number of static messages given.
        count: usize,
    },
}

impl fmt::Display for AllocationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocationError::FrameTooLarge {
                message,
                wire_bits,
                capacity,
            } => write!(
                f,
                "message {message}: frame of {wire_bits} wire bits exceeds slot capacity {capacity}"
            ),
            AllocationError::NoSlotAvailable { message } => {
                write!(
                    f,
                    "message {message}: no free static slot pattern available"
                )
            }
            AllocationError::TooManyMessages { count } => write!(
                f,
                "{count} static messages exceed the {MAX_STATIC_MESSAGES} one allocation indexes"
            ),
        }
    }
}

impl std::error::Error for AllocationError {}

/// The populated allocation matrix.
pub struct StaticAllocation {
    slots: u16,
    /// `matrix[channel][slot-1][cycle]`: who transmits where, for the
    /// runtime's occupant lookups.
    matrix: Vec<Option<Occupant>>,
    /// `busy[channel][slot-1]`: bit `c` is set when cycle `c` is taken.
    /// Placement tests pattern freeness here, one AND per candidate.
    busy: Vec<u64>,
    /// `occupied[channel][cycle]`: `words` 64-bit words whose bit `s - 1`
    /// is set when slot `s` is taken in that cycle, so the runtime finds
    /// the next occupied slot a word at a time.
    occupied: Vec<u64>,
    words: usize,
    /// In placement order, with each message's position in the input.
    primaries: Vec<(MessageId, u16, SlotPosition)>,
    copies: Vec<CopyPlacement>,
    /// Copies that found no static slack: `(message, count per instance)`.
    spill: Vec<(MessageId, u32)>,
}

impl fmt::Debug for StaticAllocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StaticAllocation")
            .field("slots", &self.slots)
            .field("primaries", &self.primaries.len())
            .field("copies", &self.copies.len())
            .field("spill", &self.spill)
            .finish()
    }
}

const CYCLES: usize = CYCLE_COUNT_MAX as usize;

/// The cycles of the `(base, rep)` pattern as a mask: bit `c` is set for
/// every `c ≡ base (mod rep)`. `rep` is a power of two ≤ 64 and
/// `base < rep`; `u64::MAX / (2^rep − 1)` has one bit every `rep` bits.
fn pattern_mask(base: u8, rep: u8) -> u64 {
    debug_assert!(rep.is_power_of_two() && base < rep && usize::from(rep) <= CYCLES);
    if usize::from(rep) == CYCLES {
        1 << base
    } else {
        (u64::MAX / ((1u64 << rep) - 1)) << base
    }
}

impl StaticAllocation {
    /// Index of `(channel, slot)` into [`Self::busy`]; times [`CYCLES`],
    /// the start of its row in [`Self::matrix`].
    fn row(&self, channel: ChannelId, slot: u16) -> usize {
        debug_assert!(slot >= 1 && slot <= self.slots);
        channel.index() * usize::from(self.slots) + usize::from(slot - 1)
    }

    /// The occupant of `(channel, slot)` in the cycle with counter
    /// `cycle_counter`, if any.
    pub fn occupant(&self, channel: ChannelId, slot: u16, cycle_counter: u8) -> Option<Occupant> {
        self.matrix[self.row(channel, slot) * CYCLES + usize::from(cycle_counter)]
    }

    /// The first slot at or after `from` (1-based) occupied on `channel`
    /// in the cycle with counter `cycle_counter`, or one past the last
    /// slot if none is.
    pub fn next_occupied_slot(&self, channel: ChannelId, cycle_counter: u8, from: u16) -> u16 {
        debug_assert!(from >= 1);
        let start = (channel.index() * CYCLES + usize::from(cycle_counter)) * self.words;
        let row = &self.occupied[start..start + self.words];
        let bit = usize::from(from) - 1;
        let mut w = bit / 64;
        let Some(&first) = row.get(w) else {
            return self.slots + 1;
        };
        let mut word = first & (u64::MAX << (bit % 64));
        while word == 0 {
            w += 1;
            let Some(&next) = row.get(w) else {
                return self.slots + 1;
            };
            word = next;
        }
        (w * 64 + word.trailing_zeros() as usize + 1) as u16
    }

    /// Primary position of `message`.
    pub fn primary_of(&self, message: MessageId) -> Option<SlotPosition> {
        self.primaries
            .iter()
            .find(|(m, _, _)| *m == message)
            .map(|&(_, _, p)| p)
    }

    /// All stolen-slack copy placements.
    pub fn copies(&self) -> &[CopyPlacement] {
        &self.copies
    }

    /// Copies that must spill to the dynamic segment, per instance.
    pub fn spill(&self) -> &[(MessageId, u32)] {
        &self.spill
    }

    /// Free positions over the whole matrix (both channels).
    pub fn free_positions(&self) -> usize {
        self.busy.iter().map(|b| b.count_zeros() as usize).sum()
    }

    /// Fraction of matrix positions occupied on `channel`.
    pub fn occupancy(&self, channel: ChannelId) -> f64 {
        let slots = usize::from(self.slots);
        let start = channel.index() * slots;
        let used: u32 = self.busy[start..start + slots]
            .iter()
            .map(|b| b.count_ones())
            .sum();
        f64::from(used) / (slots * CYCLES) as f64
    }

    /// Checks a candidate `(slot, base, rep)` pattern for freeness.
    fn pattern_free(&self, channel: ChannelId, slot: u16, base: u8, rep: u8) -> bool {
        self.busy[self.row(channel, slot)] & pattern_mask(base, rep) == 0
    }

    fn occupy_pattern(&mut self, pos: SlotPosition, occ: Occupant) {
        let row = self.row(pos.channel, pos.slot);
        let mask = pattern_mask(pos.base_cycle, pos.repetition);
        debug_assert!(self.busy[row] & mask == 0, "double allocation");
        self.busy[row] |= mask;
        let cycles = (usize::from(pos.base_cycle)..CYCLES).step_by(usize::from(pos.repetition));
        let bit = usize::from(pos.slot - 1);
        let channel_start = pos.channel.index() * CYCLES;
        for c in cycles {
            self.matrix[row * CYCLES + c] = Some(occ);
            self.occupied[(channel_start + c) * self.words + bit / 64] |= 1 << (bit % 64);
        }
    }

    /// The repetition used for a message of the given period: the largest
    /// power of two `r ≤ 64` with `r × cycle ≤ period`, at least 1.
    pub fn repetition_for(config: &ClusterConfig, period: event_sim::SimDuration) -> u8 {
        let cycle = config.cycle_duration();
        let mut rep: u64 = 1;
        while rep < CYCLE_COUNT_MAX && cycle * (rep * 2) <= period {
            rep *= 2;
        }
        rep as u8
    }

    /// Builds the allocation with dual-channel copy placement (the
    /// default CoEfficient behaviour). See [`Self::build_with_channels`].
    ///
    /// # Errors
    /// [`AllocationError`] if a frame exceeds the slot capacity or no
    /// primary pattern fits.
    pub fn build(
        config: &ClusterConfig,
        coding: &FrameCoding,
        messages: &[Signal],
        copy_counts: &[(MessageId, u32)],
        mirror_on_b: bool,
    ) -> Result<Self, AllocationError> {
        Self::build_with_channels(config, coding, messages, copy_counts, mirror_on_b, true)
    }

    /// Builds the allocation.
    ///
    /// * `messages` — the static workload;
    /// * `copy_counts` — per message id, the number of retransmission
    ///   copies to steal slack for (`k_z`; empty for FSPEC);
    /// * `mirror_on_b` — FSPEC's blanket channel-B duplication;
    /// * `copies_on_b` — whether stolen-slack copies may use channel B
    ///   (disabled by the single-channel ablation).
    ///
    /// # Errors
    /// [`AllocationError`] if a frame exceeds the slot capacity or no
    /// primary pattern fits.
    pub fn build_with_channels(
        config: &ClusterConfig,
        coding: &FrameCoding,
        messages: &[Signal],
        copy_counts: &[(MessageId, u32)],
        mirror_on_b: bool,
        copies_on_b: bool,
    ) -> Result<Self, AllocationError> {
        if messages.len() > MAX_STATIC_MESSAGES {
            return Err(AllocationError::TooManyMessages {
                count: messages.len(),
            });
        }
        let slots = config.static_slot_count() as u16;
        let capacity = config.static_slot_capacity_bits();
        let words = usize::from(slots).div_ceil(64);
        let mut alloc = StaticAllocation {
            slots,
            matrix: vec![None; 2 * usize::from(slots) * CYCLES],
            busy: vec![0; 2 * usize::from(slots)],
            occupied: vec![0; 2 * CYCLES * words],
            words,
            primaries: Vec::with_capacity(messages.len()),
            copies: Vec::new(),
            spill: Vec::new(),
        };

        // Capacity check up front (selective criterion: a slot must fit
        // the frame).
        for m in messages {
            let wire = coding.message_wire_bits(u64::from(m.size_bits), false);
            if wire > capacity {
                return Err(AllocationError::FrameTooLarge {
                    message: m.id,
                    wire_bits: wire,
                    capacity,
                });
            }
        }

        // Primary placement: tightest repetition first (they are the
        // hardest to fit), then by deadline, then id for determinism.
        let mut order: Vec<(u8, u16, &Signal)> = messages
            .iter()
            .enumerate()
            .map(|(i, m)| {
                (
                    StaticAllocation::repetition_for(config, m.period),
                    i as u16,
                    m,
                )
            })
            .collect();
        order.sort_by_key(|&(rep, _, m)| (rep, m.deadline, m.id));
        for &(rep, index, m) in &order {
            let mut placed = false;
            'search: for slot in 1..=slots {
                for base in 0..rep {
                    if alloc.pattern_free(ChannelId::A, slot, base, rep)
                        && (!mirror_on_b || alloc.pattern_free(ChannelId::B, slot, base, rep))
                    {
                        let pos = SlotPosition {
                            slot,
                            base_cycle: base,
                            repetition: rep,
                            channel: ChannelId::A,
                        };
                        alloc.occupy_pattern(
                            pos,
                            Occupant {
                                message: m.id,
                                index,
                                kind: OccupantKind::Primary,
                            },
                        );
                        if mirror_on_b {
                            alloc.occupy_pattern(
                                SlotPosition {
                                    channel: ChannelId::B,
                                    ..pos
                                },
                                Occupant {
                                    message: m.id,
                                    index,
                                    kind: OccupantKind::Mirror,
                                },
                            );
                        }
                        alloc.primaries.push((m.id, index, pos));
                        placed = true;
                        break 'search;
                    }
                }
            }
            if !placed {
                return Err(AllocationError::NoSlotAvailable { message: m.id });
            }
        }

        // Primaries by id; the stable sort keeps the first placed of
        // duplicate ids first, as `primary_of` finds it.
        let mut by_id = alloc.primaries.clone();
        by_id.sort_by_key(|&(m, _, _)| m);
        let primary_of = |message: MessageId| {
            let i = by_id.partition_point(|&(m, _, _)| m < message);
            by_id
                .get(i)
                .filter(|&&(m, _, _)| m == message)
                .map(|&(_, index, p)| (index, p))
        };

        // Copy placement: steal slack near the primary, cheapest added
        // latency first. Dynamic-message copies (ids without a primary)
        // spill by definition, after every static spill; record them so
        // the runtime enqueues extras.
        let mut dynamic_spill = Vec::new();
        for &(message, k) in copy_counts {
            if k == 0 {
                continue;
            }
            let Some((index, primary)) = primary_of(message) else {
                dynamic_spill.push((message, k));
                continue;
            };
            let mut remaining = k;
            // Candidate order: same slot on B (Δlatency 0), later slots of
            // the same cycle (A then B), then subsequent cycles.
            let channel_order: &[ChannelId] = if copies_on_b {
                &[ChannelId::B, ChannelId::A]
            } else {
                &[ChannelId::A]
            };
            'day: for delta_cycle in 0..u16::from(primary.repetition) {
                let base =
                    (u16::from(primary.base_cycle) + delta_cycle) % u16::from(primary.repetition);
                let slot_from = if delta_cycle == 0 { primary.slot } else { 1 };
                for slot in slot_from..=slots {
                    for &channel in channel_order {
                        if delta_cycle == 0 && slot == primary.slot && channel == ChannelId::A {
                            continue; // the primary itself
                        }
                        if alloc.pattern_free(channel, slot, base as u8, primary.repetition) {
                            let pos = SlotPosition {
                                slot,
                                base_cycle: base as u8,
                                repetition: primary.repetition,
                                channel,
                            };
                            alloc.occupy_pattern(
                                pos,
                                Occupant {
                                    message,
                                    index,
                                    kind: OccupantKind::Copy,
                                },
                            );
                            alloc.copies.push(CopyPlacement {
                                message,
                                position: pos,
                            });
                            remaining -= 1;
                            if remaining == 0 {
                                break 'day;
                            }
                        }
                    }
                }
            }
            if remaining > 0 {
                alloc.spill.push((message, remaining));
            }
        }
        alloc.spill.extend(dynamic_spill);

        Ok(alloc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use event_sim::SimDuration;

    fn config() -> ClusterConfig {
        ClusterConfig::paper_dynamic(50)
    }

    fn sig(id: u32, period_ms: u64, bits: u32) -> Signal {
        Signal::new(
            id,
            SimDuration::from_millis(period_ms),
            SimDuration::ZERO,
            SimDuration::from_millis(period_ms),
            bits,
        )
    }

    #[test]
    fn repetition_matches_period() {
        let c = config(); // 1 ms cycle
        assert_eq!(
            StaticAllocation::repetition_for(&c, SimDuration::from_millis(1)),
            1
        );
        assert_eq!(
            StaticAllocation::repetition_for(&c, SimDuration::from_millis(8)),
            8
        );
        assert_eq!(
            StaticAllocation::repetition_for(&c, SimDuration::from_millis(24)),
            16
        );
        assert_eq!(
            StaticAllocation::repetition_for(&c, SimDuration::from_millis(100)),
            64
        );
        // Period shorter than the cycle still transmits every cycle.
        assert_eq!(
            StaticAllocation::repetition_for(&c, SimDuration::from_micros(500)),
            1
        );
    }

    #[test]
    fn primaries_land_on_channel_a_without_conflicts() {
        let msgs = vec![
            sig(1, 1, 100),
            sig(2, 2, 100),
            sig(3, 2, 100),
            sig(4, 8, 100),
        ];
        let a = StaticAllocation::build(&config(), &FrameCoding, &msgs, &[], false).unwrap();
        // msg 1 needs a full slot; msgs 2 and 3 share slot 2 (bases 0/1).
        let p1 = a.primary_of(1).unwrap();
        let p2 = a.primary_of(2).unwrap();
        let p3 = a.primary_of(3).unwrap();
        assert_eq!(p1.repetition, 1);
        assert_eq!(p2.slot, p3.slot, "rep-2 messages share a slot");
        assert_ne!(p2.base_cycle, p3.base_cycle);
        for p in [p1, p2, p3] {
            assert_eq!(p.channel, ChannelId::A);
        }
        // Channel B stays empty without mirrors.
        assert_eq!(a.occupancy(ChannelId::B), 0.0);
    }

    #[test]
    fn mirror_mode_duplicates_on_b() {
        let msgs = vec![sig(1, 1, 100)];
        let a = StaticAllocation::build(&config(), &FrameCoding, &msgs, &[], true).unwrap();
        let p = a.primary_of(1).unwrap();
        let occ_b = a.occupant(ChannelId::B, p.slot, p.base_cycle).unwrap();
        assert_eq!(occ_b.kind, OccupantKind::Mirror);
        assert_eq!(occ_b.message, 1);
        assert!((a.occupancy(ChannelId::A) - a.occupancy(ChannelId::B)).abs() < 1e-12);
    }

    #[test]
    fn first_copy_prefers_channel_b_same_slot() {
        let msgs = vec![sig(1, 1, 100)];
        let a = StaticAllocation::build(&config(), &FrameCoding, &msgs, &[(1, 2)], false).unwrap();
        assert_eq!(a.copies().len(), 2);
        let p = a.primary_of(1).unwrap();
        let first = a.copies()[0].position;
        assert_eq!(first.channel, ChannelId::B);
        assert_eq!(first.slot, p.slot);
        assert_eq!(first.base_cycle, p.base_cycle);
        assert!(a.spill().is_empty());
    }

    #[test]
    fn copies_spill_when_matrix_is_full() {
        // Fill every slot with rep-1 messages, then ask for copies.
        let cfg = config();
        let slots = cfg.static_slot_count() as u32;
        let msgs: Vec<Signal> = (1..=slots * 2).map(|i| sig(i, 2, 100)).collect();
        // 2×slots rep-2 messages fill both bases of every slot on A...
        // with mirrors they'd fill B too; use mirrors to exhaust all slack.
        let a = StaticAllocation::build(&cfg, &FrameCoding, &msgs, &[(1, 3)], true).unwrap();
        assert_eq!(a.free_positions(), 0, "matrix fully packed");
        assert_eq!(a.spill(), &[(1, 3)]);
    }

    #[test]
    fn overflow_of_primaries_errors() {
        let cfg = config();
        let slots = cfg.static_slot_count() as u32;
        let msgs: Vec<Signal> = (1..=slots + 1).map(|i| sig(i, 1, 100)).collect();
        let err = StaticAllocation::build(&cfg, &FrameCoding, &msgs, &[], false).unwrap_err();
        assert!(matches!(err, AllocationError::NoSlotAvailable { .. }));
    }

    #[test]
    fn oversized_frame_errors() {
        let cfg = config();
        let cap = cfg.static_slot_capacity_bits();
        let msgs = vec![sig(1, 1, (cap + 1) as u32)];
        let err = StaticAllocation::build(&cfg, &FrameCoding, &msgs, &[], false).unwrap_err();
        assert!(matches!(
            err,
            AllocationError::FrameTooLarge { message: 1, .. }
        ));
    }

    #[test]
    fn occupants_index_their_message_and_copies_their_primary() {
        let msgs = vec![sig(7, 1, 100), sig(3, 4, 100), sig(5, 2, 100)];
        let alloc =
            StaticAllocation::build(&config(), &FrameCoding, &msgs, &[(3, 2)], false).unwrap();
        assert_eq!(alloc.copies().len(), 2);
        for (i, m) in msgs.iter().enumerate() {
            let p = alloc.primary_of(m.id).unwrap();
            let occ = alloc.occupant(p.channel, p.slot, p.base_cycle).unwrap();
            assert_eq!((occ.message, usize::from(occ.index)), (m.id, i));
        }
        for c in alloc.copies() {
            let p = c.position;
            let occ = alloc.occupant(p.channel, p.slot, p.base_cycle).unwrap();
            assert_eq!(
                (occ.message, occ.index, occ.kind),
                (3, 1, OccupantKind::Copy)
            );
        }
    }

    #[test]
    fn more_messages_than_an_occupant_indexes_error() {
        let msgs = vec![sig(1, 64, 100); MAX_STATIC_MESSAGES + 1];
        let err = StaticAllocation::build(&config(), &FrameCoding, &msgs, &[], false).unwrap_err();
        assert_eq!(
            err,
            AllocationError::TooManyMessages {
                count: MAX_STATIC_MESSAGES + 1
            }
        );
    }

    #[test]
    fn dynamic_message_copies_always_spill() {
        let msgs = vec![sig(1, 1, 100)];
        let a = StaticAllocation::build(
            &config(),
            &FrameCoding,
            &msgs,
            &[(99, 2)], // 99 has no primary → dynamic
            false,
        )
        .unwrap();
        assert_eq!(a.spill(), &[(99, 2)]);
        assert!(a.copies().is_empty());
    }

    #[test]
    fn occupancy_accounts_repetitions() {
        let cfg = config();
        let msgs = vec![sig(1, 2, 100)]; // rep 2: half the cycles of one slot
        let a = StaticAllocation::build(&cfg, &FrameCoding, &msgs, &[], false).unwrap();
        let expected = 0.5 / cfg.static_slot_count() as f64;
        assert!((a.occupancy(ChannelId::A) - expected).abs() < 1e-12);
    }

    #[test]
    fn bbw_and_acc_fit_the_paper_dynamic_preset() {
        let mut msgs = workloads::bbw::message_set();
        msgs.extend(workloads::acc::message_set());
        let a = StaticAllocation::build(&config(), &FrameCoding, &msgs, &[], false);
        let a = a.expect("BBW+ACC must fit 18 slots via cycle multiplexing");
        assert_eq!(a.primaries.len(), 40);
    }

    /// The modulo-scan allocator the cycle masks replaced, kept as the
    /// differential oracle: every pattern test walks all 64 cycles of the
    /// occupant matrix, and every primary lookup scans the placement list.
    struct ScanAllocation {
        slots: u16,
        matrix: Vec<Option<Occupant>>,
        primaries: Vec<(MessageId, u16, SlotPosition)>,
        copies: Vec<CopyPlacement>,
        spill: Vec<(MessageId, u32)>,
    }

    impl ScanAllocation {
        fn index(&self, channel: ChannelId, slot: u16, cycle: u8) -> usize {
            (channel.index() * usize::from(self.slots) + usize::from(slot - 1)) * CYCLES
                + usize::from(cycle)
        }

        fn is_free(&self, channel: ChannelId, slot: u16, cycle: u8) -> bool {
            self.matrix[self.index(channel, slot, cycle)].is_none()
        }

        fn primary_of(&self, message: MessageId) -> Option<(u16, SlotPosition)> {
            self.primaries
                .iter()
                .find(|(m, _, _)| *m == message)
                .map(|&(_, index, p)| (index, p))
        }

        fn pattern_free(&self, channel: ChannelId, slot: u16, base: u8, rep: u8) -> bool {
            (0..CYCLES as u16)
                .filter(|c| c % u16::from(rep) == u16::from(base))
                .all(|c| self.is_free(channel, slot, c as u8))
        }

        fn occupy_pattern(&mut self, pos: SlotPosition, occ: Occupant) {
            for c in 0..CYCLES as u16 {
                if c % u16::from(pos.repetition) == u16::from(pos.base_cycle) {
                    let i = self.index(pos.channel, pos.slot, c as u8);
                    assert!(self.matrix[i].is_none(), "double allocation");
                    self.matrix[i] = Some(occ);
                }
            }
        }

        fn build(
            config: &ClusterConfig,
            coding: &FrameCoding,
            messages: &[Signal],
            copy_counts: &[(MessageId, u32)],
            mirror_on_b: bool,
            copies_on_b: bool,
        ) -> Result<Self, AllocationError> {
            let slots = config.static_slot_count() as u16;
            let capacity = config.static_slot_capacity_bits();
            let mut alloc = ScanAllocation {
                slots,
                matrix: vec![None; 2 * usize::from(slots) * CYCLES],
                primaries: Vec::new(),
                copies: Vec::new(),
                spill: Vec::new(),
            };
            for m in messages {
                let wire = coding.message_wire_bits(u64::from(m.size_bits), false);
                if wire > capacity {
                    return Err(AllocationError::FrameTooLarge {
                        message: m.id,
                        wire_bits: wire,
                        capacity,
                    });
                }
            }
            let mut order: Vec<(u16, &Signal)> = (0u16..).zip(messages).collect();
            order.sort_by_key(|(_, m)| {
                (
                    StaticAllocation::repetition_for(config, m.period),
                    m.deadline,
                    m.id,
                )
            });
            for &(index, m) in &order {
                let rep = StaticAllocation::repetition_for(config, m.period);
                let mut placed = false;
                'search: for slot in 1..=slots {
                    for base in 0..rep {
                        if alloc.pattern_free(ChannelId::A, slot, base, rep)
                            && (!mirror_on_b || alloc.pattern_free(ChannelId::B, slot, base, rep))
                        {
                            let pos = SlotPosition {
                                slot,
                                base_cycle: base,
                                repetition: rep,
                                channel: ChannelId::A,
                            };
                            let primary = Occupant {
                                message: m.id,
                                index,
                                kind: OccupantKind::Primary,
                            };
                            alloc.occupy_pattern(pos, primary);
                            if mirror_on_b {
                                let mirror = Occupant {
                                    kind: OccupantKind::Mirror,
                                    ..primary
                                };
                                let on_b = SlotPosition {
                                    channel: ChannelId::B,
                                    ..pos
                                };
                                alloc.occupy_pattern(on_b, mirror);
                            }
                            alloc.primaries.push((m.id, index, pos));
                            placed = true;
                            break 'search;
                        }
                    }
                }
                if !placed {
                    return Err(AllocationError::NoSlotAvailable { message: m.id });
                }
            }
            for &(message, k) in copy_counts {
                if k == 0 {
                    continue;
                }
                let Some((index, primary)) = alloc.primary_of(message) else {
                    continue;
                };
                let mut remaining = k;
                let channel_order: &[ChannelId] = if copies_on_b {
                    &[ChannelId::B, ChannelId::A]
                } else {
                    &[ChannelId::A]
                };
                'day: for delta_cycle in 0..u16::from(primary.repetition) {
                    let base = (u16::from(primary.base_cycle) + delta_cycle)
                        % u16::from(primary.repetition);
                    let slot_from = if delta_cycle == 0 { primary.slot } else { 1 };
                    for slot in slot_from..=slots {
                        for &channel in channel_order {
                            if delta_cycle == 0 && slot == primary.slot && channel == ChannelId::A {
                                continue;
                            }
                            if alloc.pattern_free(channel, slot, base as u8, primary.repetition) {
                                let pos = SlotPosition {
                                    slot,
                                    base_cycle: base as u8,
                                    repetition: primary.repetition,
                                    channel,
                                };
                                let copy = Occupant {
                                    message,
                                    index,
                                    kind: OccupantKind::Copy,
                                };
                                alloc.occupy_pattern(pos, copy);
                                alloc.copies.push(CopyPlacement {
                                    message,
                                    position: pos,
                                });
                                remaining -= 1;
                                if remaining == 0 {
                                    break 'day;
                                }
                            }
                        }
                    }
                }
                if remaining > 0 {
                    alloc.spill.push((message, remaining));
                }
            }
            for &(message, k) in copy_counts {
                if k > 0 && alloc.primary_of(message).is_none() {
                    alloc.spill.push((message, k));
                }
            }
            Ok(alloc)
        }
    }

    #[test]
    fn pattern_masks_are_the_modulo_classes() {
        for rep in [1u8, 2, 4, 8, 16, 32, 64] {
            for base in 0..rep {
                let scan = (0..CYCLES)
                    .filter(|c| c % usize::from(rep) == usize::from(base))
                    .fold(0u64, |m, c| m | 1 << c);
                assert_eq!(pattern_mask(base, rep), scan, "base {base} rep {rep}");
            }
        }
    }

    /// One random static message: the period is a quarter cycle times
    /// `2^exp × (4 + quarters) / 4` (repetitions 1–64, periods from a
    /// quarter cycle to past 64 cycles), the deadline whole quarters of
    /// the period, the size per mille of the largest size a static slot
    /// carries. A last draw of 0 gives the message its predecessor's id,
    /// since nothing upstream forbids duplicate ids.
    type MessageCase = ((u32, u64), u64, u64, u8);

    /// How a differential run ended, to show the cases are not vacuous.
    #[derive(Debug, PartialEq, Eq)]
    enum Outcome {
        Placed { copies: usize, spilled: u32 },
        Failed(AllocationError),
    }

    /// Builds one random workload with both allocators and checks that
    /// they agree on every output: primaries, copies, spill, the error,
    /// and the occupant of every `(channel, slot, cycle)`.
    ///
    /// `copy_counts` index the messages; an index past the last message
    /// names an id without a primary (a dynamic message). `oversize`, when
    /// it indexes a message, makes that frame one byte too large for a slot.
    /// Bit 0 of `channels` sets `mirror_on_b`, bit 1 `copies_on_b`.
    fn check_against_scan(
        slots: u64,
        messages: &[MessageCase],
        copy_counts: &[(usize, u32)],
        (oversize, channels): (usize, u8),
    ) -> Outcome {
        let cfg = ClusterConfig::builder()
            .macroticks_per_cycle(1000)
            .static_slots(slots, 40)
            .minislots(50, 2)
            .bit_rate(80_000_000)
            .build()
            .expect("up to 18 static slots fit the 1 ms cycle");
        let coding = FrameCoding;
        let capacity = cfg.static_slot_capacity_bits();
        let max_bits = (8u32..)
            .step_by(8)
            .take_while(|&b| coding.message_wire_bits(u64::from(b), false) <= capacity)
            .last()
            .expect("a byte fits a static slot");
        let quarter = cfg.cycle_duration().as_nanos() / 4;
        let signals: Vec<Signal> = messages
            .iter()
            .enumerate()
            .map(|(i, &((exp, quarters), deadline, size, duplicate))| {
                let period = quarter * (1 << exp) * (4 + quarters) / 4;
                let bits = if i == oversize {
                    max_bits + 8
                } else {
                    (u64::from(max_bits) * size / 1000).max(1) as u32
                };
                let id = if duplicate == 0 && i > 0 { i } else { i + 1 };
                Signal::new(
                    id as u32,
                    SimDuration::from_nanos(period),
                    SimDuration::ZERO,
                    SimDuration::from_nanos(period * deadline / 4),
                    bits,
                )
            })
            .collect();
        let counts: Vec<(MessageId, u32)> = copy_counts
            .iter()
            .map(|&(i, k)| (i as u32 + 1, k))
            .collect();
        let (mirror_on_b, copies_on_b) = (channels & 1 != 0, channels & 2 != 0);
        let masks = StaticAllocation::build_with_channels(
            &cfg,
            &coding,
            &signals,
            &counts,
            mirror_on_b,
            copies_on_b,
        );
        let scan =
            ScanAllocation::build(&cfg, &coding, &signals, &counts, mirror_on_b, copies_on_b);
        match (masks, scan) {
            (Ok(a), Ok(s)) => {
                assert_eq!(a.primaries, s.primaries);
                assert_eq!(a.copies(), &s.copies[..]);
                assert_eq!(a.spill(), &s.spill[..]);
                for channel in [ChannelId::A, ChannelId::B] {
                    for slot in 1..=s.slots {
                        for cycle in 0..CYCLES as u8 {
                            assert_eq!(
                                a.occupant(channel, slot, cycle),
                                s.matrix[s.index(channel, slot, cycle)],
                                "{channel:?} slot {slot} cycle {cycle}"
                            );
                        }
                    }
                    assert_next_occupied_follows_the_occupants(&a, channel);
                    let per_channel = usize::from(s.slots) * CYCLES;
                    let start = channel.index() * per_channel;
                    let used = s.matrix[start..start + per_channel]
                        .iter()
                        .filter(|o| o.is_some())
                        .count();
                    assert_eq!(
                        a.occupancy(channel),
                        used as f64 / per_channel as f64,
                        "{channel:?}"
                    );
                }
                let free = s.matrix.iter().filter(|o| o.is_none()).count();
                assert_eq!(a.free_positions(), free);
                Outcome::Placed {
                    copies: a.copies().len(),
                    spilled: a.spill().iter().map(|&(_, k)| k).sum(),
                }
            }
            (Err(a), Err(s)) => {
                assert_eq!(a, s);
                Outcome::Failed(a)
            }
            (a, s) => panic!("masks {:?} but scan {:?}", a.map(|_| ()), s.map(|_| ())),
        }
    }

    /// Checks [`StaticAllocation::next_occupied_slot`] against a scan of
    /// the occupants, from every slot of every cycle on `channel`.
    fn assert_next_occupied_follows_the_occupants(a: &StaticAllocation, channel: ChannelId) {
        for cycle in 0..CYCLES as u8 {
            let mut next = a.slots + 1;
            for from in (1..=a.slots + 1).rev() {
                if from <= a.slots && a.occupant(channel, from, cycle).is_some() {
                    next = from;
                }
                assert_eq!(
                    a.next_occupied_slot(channel, cycle, from),
                    next,
                    "{channel:?} cycle {cycle} from {from}"
                );
            }
        }
    }

    #[test]
    fn next_occupied_slot_reads_every_word_of_a_wide_segment() {
        // 80 and 128 slots: two words, the second partly or wholly used.
        for slots in [80, 128] {
            let cfg = ClusterConfig::builder()
                .macroticks_per_cycle(8000)
                .static_slots(slots, 40)
                .minislots(50, 2)
                .bit_rate(80_000_000)
                .build()
                .unwrap();
            // Enough every-cycle and rep-2 primaries to reach past slot
            // 64, each with a copy, mirrored on B.
            let msgs: Vec<Signal> = (1..=70)
                .map(|i| sig(i, if i % 3 == 0 { 10 } else { 5 }, 100))
                .collect();
            let copies: Vec<(MessageId, u32)> = (1..=70).step_by(7).map(|i| (i, 1)).collect();
            let a = StaticAllocation::build(&cfg, &FrameCoding, &msgs, &copies, true).unwrap();
            assert!(a.primaries.iter().any(|&(_, _, p)| p.slot > 64));
            for channel in [ChannelId::A, ChannelId::B] {
                assert_next_occupied_follows_the_occupants(&a, channel);
            }
        }
    }

    proptest::proptest! {
        /// The cycle-mask allocator places exactly what the modulo scans
        /// over the occupant matrix place, fails exactly where they fail,
        /// and leaves the same occupant in every position.
        #[test]
        fn cycle_masks_allocate_what_the_modulo_scans_allocate(
            slots in 1u64..=18,
            messages in proptest::collection::vec(((0u32..10, 0u64..4), 1u64..=4, 1u64..=1000, 0u8..8), 1..40),
            copy_counts in proptest::collection::vec((0usize..44, 0u32..=8), 0..48),
            options in (0usize..400, 0u8..4),
        ) {
            check_against_scan(slots, &messages, &copy_counts, options);
        }
    }

    #[test]
    fn the_differential_check_reaches_every_outcome() {
        // Mixed repetitions with copies that fill the slack and spill,
        // one of them for a message without a primary.
        let messages: Vec<MessageCase> = vec![
            ((2, 0), 4, 500, 1),
            ((3, 1), 2, 900, 1),
            ((5, 3), 1, 100, 1),
            ((9, 2), 3, 1000, 1),
            ((6, 0), 4, 10, 1),
        ];
        let copies = [(0, 8), (1, 3), (2, 8), (3, 8), (4, 2), (7, 2)];
        for channels in 0..4 {
            let outcome = check_against_scan(2, &messages, &copies, (usize::MAX, channels));
            let Outcome::Placed { copies, spilled } = outcome else {
                panic!("{outcome:?}");
            };
            assert!(
                copies > 0 && spilled > 2,
                "{copies} copies, {spilled} spilled"
            );
        }
        // Three every-cycle messages in two slots.
        let crowded = [((0, 0), 4, 100, 1); 3];
        assert_eq!(
            check_against_scan(2, &crowded, &[], (usize::MAX, 0)),
            Outcome::Failed(AllocationError::NoSlotAvailable { message: 3 })
        );
        // A frame one byte too large for the slot.
        let outcome = check_against_scan(18, &messages, &copies, (3, 3));
        assert!(
            matches!(
                outcome,
                Outcome::Failed(AllocationError::FrameTooLarge { message: 4, .. })
            ),
            "{outcome:?}"
        );
    }
}
