//! Cluster-wide FlexRay protocol configuration.
//!
//! Parameter names follow the FlexRay 2.1 specification (`gd*` = global
//! duration, `g*` = global count, `p*` = node parameter hoisted to the
//! cluster for simulation convenience). All durations derive from the
//! macrotick, the cluster-wide time base ([`MACROTICK`], 1 µs as in the
//! paper's setup).
//!
//! A communication cycle is partitioned, in order, into:
//!
//! ```text
//! | static segment | dynamic segment | NIT |
//! ```
//!
//! where the static segment holds `gNumberOfStaticSlots` equal slots of
//! `gdStaticSlot` macroticks, the dynamic segment holds
//! `gNumberOfMinislots` minislots of `gdMinislot` macroticks, and the
//! network idle time (NIT) absorbs clock correction. The cycle has no
//! symbol window (`gdSymbolWindow` = 0).
//!
//! Seven values are configurable: the cycle length, the static and
//! dynamic segment geometry, `pLatestTx` and the bit rate. The protocol
//! settings every experiment shares are the constants below.

use event_sim::{SimDuration, SimTime};

use crate::error::ConfigError;

/// The number of cycles after which the cycle counter wraps (FlexRay fixes
/// this at 64: cycle counter values are 0–63).
pub const CYCLE_COUNT_MAX: u64 = 64;

/// `gdMacrotick`: the cluster-wide time base.
pub const MACROTICK: SimDuration = SimDuration::from_micros(1);

/// `gdActionPointOffset`: macroticks into each static slot before a
/// transmission starts (the same margin closes the slot).
pub const ACTION_POINT_OFFSET: u64 = 1;

/// `gdMinislotActionPointOffset`: macroticks into a minislot before a
/// dynamic transmission starts. Only validated (a minislot must be
/// longer); the bus engine times dynamic frames from the minislot edge.
pub const MINISLOT_ACTION_POINT_OFFSET: u64 = 1;

/// `gdDynamicSlotIdlePhase`: minislots of silence after each dynamic
/// transmission.
pub const DYNAMIC_SLOT_IDLE_PHASE: u64 = 1;

/// Validated cluster configuration. Construct through
/// [`ClusterConfig::builder`] or a preset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfig {
    g_macro_per_cycle: u64,
    g_number_of_static_slots: u64,
    gd_static_slot: u64,
    g_number_of_minislots: u64,
    gd_minislot: u64,
    p_latest_tx: u64,
    bit_rate_bps: u64,
}

/// Incremental builder for [`ClusterConfig`]; see the crate-level example.
#[derive(Debug, Clone)]
pub struct ClusterConfigBuilder {
    g_macro_per_cycle: u64,
    g_number_of_static_slots: u64,
    gd_static_slot: u64,
    g_number_of_minislots: u64,
    gd_minislot: u64,
    p_latest_tx: Option<u64>,
    bit_rate_bps: u64,
}

impl Default for ClusterConfigBuilder {
    fn default() -> Self {
        ClusterConfigBuilder {
            g_macro_per_cycle: 5000,
            g_number_of_static_slots: 80,
            gd_static_slot: 40,
            g_number_of_minislots: 120,
            gd_minislot: 2,
            p_latest_tx: None,
            bit_rate_bps: 10_000_000,
        }
    }
}

impl ClusterConfigBuilder {
    /// Sets `gMacroPerCycle`, the cycle length in macroticks.
    pub fn macroticks_per_cycle(&mut self, mt: u64) -> &mut Self {
        self.g_macro_per_cycle = mt;
        self
    }

    /// Sets `gNumberOfStaticSlots` and `gdStaticSlot` (macroticks).
    pub fn static_slots(&mut self, count: u64, slot_macroticks: u64) -> &mut Self {
        self.g_number_of_static_slots = count;
        self.gd_static_slot = slot_macroticks;
        self
    }

    /// Sets `gNumberOfMinislots` and `gdMinislot` (macroticks).
    pub fn minislots(&mut self, count: u64, minislot_macroticks: u64) -> &mut Self {
        self.g_number_of_minislots = count;
        self.gd_minislot = minislot_macroticks;
        self
    }

    /// Sets `pLatestTx`: the last minislot in which a dynamic transmission
    /// may still *start*. Defaults to the number of minislots (no extra
    /// restriction beyond fitting the segment).
    pub fn latest_tx(&mut self, minislot: u64) -> &mut Self {
        self.p_latest_tx = Some(minislot);
        self
    }

    /// Sets the channel bit rate in bits per second (default 10 Mbit/s).
    pub fn bit_rate(&mut self, bps: u64) -> &mut Self {
        self.bit_rate_bps = bps;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    /// A [`ConfigError`] describing the first violated constraint.
    pub fn build(&self) -> Result<ClusterConfig, ConfigError> {
        if self.g_macro_per_cycle == 0 {
            return Err(ConfigError::ZeroCycleLength);
        }
        if self.g_number_of_static_slots == 0 {
            return Err(ConfigError::NoStaticSlots);
        }
        if self.gd_static_slot == 0 {
            return Err(ConfigError::ZeroStaticSlot);
        }
        if self.g_number_of_minislots > 0 && self.gd_minislot == 0 {
            return Err(ConfigError::ZeroMinislot);
        }
        if self.bit_rate_bps == 0 {
            return Err(ConfigError::ZeroBitRate);
        }
        if 2 * ACTION_POINT_OFFSET >= self.gd_static_slot {
            return Err(ConfigError::ActionPointTooLarge);
        }
        if self.g_number_of_minislots > 0 && MINISLOT_ACTION_POINT_OFFSET >= self.gd_minislot {
            return Err(ConfigError::ActionPointTooLarge);
        }
        let static_mt = self.g_number_of_static_slots * self.gd_static_slot;
        let dynamic_mt = self.g_number_of_minislots * self.gd_minislot;
        let required = static_mt + dynamic_mt;
        if required >= self.g_macro_per_cycle {
            // `>=` not `>`: the NIT needs at least one macrotick.
            if required > self.g_macro_per_cycle {
                return Err(ConfigError::SegmentsExceedCycle {
                    required,
                    available: self.g_macro_per_cycle,
                });
            }
            return Err(ConfigError::NoNetworkIdleTime);
        }
        let p_latest_tx = self.p_latest_tx.unwrap_or(self.g_number_of_minislots);
        if p_latest_tx > self.g_number_of_minislots {
            return Err(ConfigError::LatestTxOutOfRange {
                latest_tx: p_latest_tx,
                minislots: self.g_number_of_minislots,
            });
        }
        Ok(ClusterConfig {
            g_macro_per_cycle: self.g_macro_per_cycle,
            g_number_of_static_slots: self.g_number_of_static_slots,
            gd_static_slot: self.gd_static_slot,
            g_number_of_minislots: self.g_number_of_minislots,
            gd_minislot: self.gd_minislot,
            p_latest_tx,
            bit_rate_bps: self.bit_rate_bps,
        })
    }
}

impl ClusterConfig {
    /// Starts building a configuration from the defaults (the paper's 5 ms
    /// cycle with 80 static slots of 40 macroticks and 120 minislots).
    pub fn builder() -> ClusterConfigBuilder {
        ClusterConfigBuilder::default()
    }

    /// The paper's *static-segment* experiment geometry (§IV-A): 1 µs
    /// macrotick, `gdCycle` = 5000 µs, `gdStaticSlot` = 40 macroticks,
    /// `gNumberOfStaticSlots` = 80 or 120, minislots of 2 macroticks
    /// filling part of the remainder.
    ///
    /// The simulated bit rate is 80 Mbit/s rather than FlexRay's physical
    /// 10 Mbit/s: the paper's message tables contain frames up to 1742 bits
    /// which cannot fit a 40-macrotick slot at 10 Mbit/s; raising the
    /// simulated rate preserves the paper's timing geometry (the quantity
    /// every reported metric depends on). See DESIGN.md §5.
    ///
    /// # Panics
    /// Panics if `static_slots` makes the layout infeasible (the paper
    /// values 80 and 120 are always valid).
    pub fn paper_static(static_slots: u64) -> ClusterConfig {
        let static_mt = static_slots * 40;
        let remaining = 5000u64
            .checked_sub(static_mt)
            .expect("static segment exceeds the 5 ms cycle");
        // The paper's default dynamic segment is 120 minislots
        // (`gNumberOfMinislots`); larger static configurations shrink it
        // (the 120-slot runs "incur more idle slots and decrease the
        // bandwidth utilization", §IV-B.1). At least 20 macroticks stay
        // for the NIT.
        let minislots = 120.min(remaining.saturating_sub(20) / 2);
        assert!(minislots > 0, "no room for a dynamic segment");
        ClusterConfig::builder()
            .macroticks_per_cycle(5000)
            .static_slots(static_slots, 40)
            .minislots(minislots, 2)
            .bit_rate(80_000_000)
            .build()
            .expect("paper static preset must be valid")
    }

    /// The paper's *mixed* experiment geometry (Figures 3–5): the 5 ms
    /// cycle with 80 static slots and a configurable dynamic segment of
    /// 25–100 minislots — the range the utilization, latency and
    /// miss-ratio sweeps cover. The SAE aperiodic set's frame ids 81–110
    /// sit directly above the 80 static slots, so the number of minislots
    /// directly limits how many of them the slot counter can reach per
    /// cycle.
    ///
    /// # Panics
    /// Panics if the layout is infeasible (the paper's 25–100 range is
    /// always valid).
    pub fn paper_mixed(minislots: u64) -> ClusterConfig {
        ClusterConfig::try_paper_mixed(minislots).expect("paper mixed preset must be valid")
    }

    /// [`paper_mixed`](Self::paper_mixed), returning the [`ConfigError`]
    /// of a minislot count the cycle cannot fit instead of panicking.
    ///
    /// # Errors
    /// The first constraint the layout violates.
    pub fn try_paper_mixed(minislots: u64) -> Result<ClusterConfig, ConfigError> {
        ClusterConfig::builder()
            .macroticks_per_cycle(5000)
            .static_slots(80, 40)
            .minislots(minislots, 2)
            .bit_rate(80_000_000)
            .build()
    }

    /// A compact 1 ms-cycle geometry (18 static slots of 40 macroticks,
    /// 0.75 ms static segment incl. NIT share, configurable minislots) —
    /// handy for fast unit tests and examples.
    ///
    /// # Panics
    /// Panics if `minislots` does not fit the cycle (valid for 1–100).
    pub fn paper_dynamic(minislots: u64) -> ClusterConfig {
        // 750 MT static segment: 18 slots of 40 MT = 720, plus action
        // points the slots already include; the remaining 30 MT join the NIT.
        ClusterConfig::builder()
            .macroticks_per_cycle(1000)
            .static_slots(18, 40)
            .minislots(minislots, 2)
            .bit_rate(80_000_000)
            .build()
            .expect("paper dynamic preset must be valid")
    }

    // ----- raw parameters -----

    /// Cycle length in macroticks (`gMacroPerCycle`).
    pub fn macroticks_per_cycle(&self) -> u64 {
        self.g_macro_per_cycle
    }

    /// Number of static slots (`gNumberOfStaticSlots`).
    pub fn static_slot_count(&self) -> u64 {
        self.g_number_of_static_slots
    }

    /// Number of minislots (`gNumberOfMinislots`).
    pub fn minislot_count(&self) -> u64 {
        self.g_number_of_minislots
    }

    /// `pLatestTx`: last minislot in which a dynamic transmission may
    /// start (1-based count; a value of `n` allows starts in minislots
    /// `0..n`).
    pub fn latest_tx(&self) -> u64 {
        self.p_latest_tx
    }

    /// Channel bit rate in bits per second.
    pub fn bit_rate_bps(&self) -> u64 {
        self.bit_rate_bps
    }

    // ----- derived timing -----

    /// Duration of `mt` macroticks.
    pub fn mt(&self, mt: u64) -> SimDuration {
        MACROTICK * mt
    }

    /// Duration of one communication cycle (`gdCycle`).
    pub fn cycle_duration(&self) -> SimDuration {
        self.mt(self.g_macro_per_cycle)
    }

    /// Duration of the static segment.
    pub fn static_segment_duration(&self) -> SimDuration {
        self.mt(self.g_number_of_static_slots * self.gd_static_slot)
    }

    /// Duration of the dynamic segment.
    pub fn dynamic_segment_duration(&self) -> SimDuration {
        self.mt(self.g_number_of_minislots * self.gd_minislot)
    }

    /// Duration of one static slot.
    pub fn static_slot_duration(&self) -> SimDuration {
        self.mt(self.gd_static_slot)
    }

    /// Duration of one minislot.
    pub fn minislot_duration(&self) -> SimDuration {
        self.mt(self.gd_minislot)
    }

    /// Start instant of communication cycle `cycle` (0-based, unbounded —
    /// the 64-cycle counter wraps but time does not).
    pub fn cycle_start(&self, cycle: u64) -> SimTime {
        SimTime::ZERO + self.cycle_duration() * cycle
    }

    /// The 0–63 cycle-counter value of cycle `cycle`.
    pub fn cycle_counter(&self, cycle: u64) -> u8 {
        (cycle % CYCLE_COUNT_MAX) as u8
    }

    /// Offset of static slot `slot` (1-based, per FlexRay convention) from
    /// the cycle start.
    ///
    /// # Panics
    /// Panics if `slot` is 0 or exceeds the static slot count.
    pub fn static_slot_offset(&self, slot: u64) -> SimDuration {
        assert!(
            slot >= 1 && slot <= self.g_number_of_static_slots,
            "static slot {slot} out of range 1..={}",
            self.g_number_of_static_slots
        );
        self.mt((slot - 1) * self.gd_static_slot)
    }

    /// Absolute start instant of static slot `slot` in cycle `cycle`.
    ///
    /// # Panics
    /// Panics if `slot` is out of range.
    pub fn static_slot_start(&self, cycle: u64, slot: u64) -> SimTime {
        self.cycle_start(cycle) + self.static_slot_offset(slot)
    }

    /// Offset of the start of the dynamic segment from the cycle start.
    pub fn dynamic_segment_offset(&self) -> SimDuration {
        self.static_segment_duration()
    }

    /// The communication cycle containing instant `t`.
    pub fn cycle_of(&self, t: SimTime) -> u64 {
        t.as_nanos() / self.cycle_duration().as_nanos()
    }

    /// The hypercycle of this cluster against a second periodic schedule:
    /// the least common multiple of the communication cycle and `base` —
    /// the shortest span after which both schedules realign. A
    /// time-triggered Ethernet backbone reserving gate windows per `base`
    /// period repeats its whole gate-control list once per hypercycle.
    ///
    /// # Panics
    /// Panics if `base` is zero or the LCM overflows `u64` nanoseconds.
    pub fn hypercycle(&self, base: SimDuration) -> SimDuration {
        let a = self.cycle_duration().as_nanos();
        let b = base.as_nanos();
        assert!(b > 0, "base period must be positive");
        fn gcd(mut a: u64, mut b: u64) -> u64 {
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a
        }
        let lcm = (a / gcd(a, b))
            .checked_mul(b)
            .expect("hypercycle overflows u64 nanoseconds");
        SimDuration::from_nanos(lcm)
    }

    // ----- capacity -----

    /// How long `bits` bits occupy the wire at the configured rate
    /// (rounded up to whole nanoseconds).
    pub fn transmission_duration(&self, bits: u64) -> SimDuration {
        let ns = (bits as u128 * 1_000_000_000u128).div_ceil(self.bit_rate_bps as u128);
        SimDuration::from_nanos(ns as u64)
    }

    /// The on-wire bit capacity of a static slot, after subtracting the
    /// action-point offsets at both ends.
    pub fn static_slot_capacity_bits(&self) -> u64 {
        let usable_mt = self.gd_static_slot - 2 * ACTION_POINT_OFFSET;
        (self.mt(usable_mt).as_nanos() as u128 * self.bit_rate_bps as u128 / 1_000_000_000u128)
            as u64
    }

    /// Bits transferable per minislot at the configured rate.
    pub fn minislot_bits(&self) -> u64 {
        (self.minislot_duration().as_nanos() as u128 * self.bit_rate_bps as u128
            / 1_000_000_000u128) as u64
    }
}

/// The number of minislots of `minislot_bits` bits
/// ([`ClusterConfig::minislot_bits`]) a dynamic transmission of `bits`
/// bits occupies (rounded up; at least one), including the dynamic slot
/// idle phase.
pub(crate) fn minislots_for(bits: u64, minislot_bits: u64) -> u64 {
    bits.div_ceil(minislot_bits.max(1)).max(1) + DYNAMIC_SLOT_IDLE_PHASE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ClusterConfig {
        ClusterConfig::builder().build().unwrap()
    }

    #[test]
    fn default_geometry_adds_up() {
        let c = cfg();
        assert_eq!(c.cycle_duration(), SimDuration::from_micros(5000));
        assert_eq!(c.static_segment_duration(), SimDuration::from_micros(3200));
        assert_eq!(c.dynamic_segment_duration(), SimDuration::from_micros(240));
    }

    #[test]
    fn slot_offsets() {
        let c = cfg();
        assert_eq!(c.static_slot_offset(1), SimDuration::ZERO);
        assert_eq!(c.static_slot_offset(2), SimDuration::from_micros(40));
        assert_eq!(c.static_slot_start(2, 1), SimTime::from_micros(10_000));
        assert_eq!(c.dynamic_segment_offset(), SimDuration::from_micros(3200));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slot_zero_rejected() {
        let _ = cfg().static_slot_offset(0);
    }

    #[test]
    fn cycle_mapping() {
        let c = cfg();
        assert_eq!(c.cycle_of(SimTime::from_micros(4_999)), 0);
        assert_eq!(c.cycle_of(SimTime::from_micros(5_000)), 1);
        assert_eq!(c.cycle_counter(63), 63);
        assert_eq!(c.cycle_counter(64), 0);
        assert_eq!(c.cycle_start(3), SimTime::from_micros(15_000));
    }

    #[test]
    fn validation_errors() {
        use crate::error::ConfigError::*;
        let mut b = ClusterConfig::builder();
        b.macroticks_per_cycle(100);
        assert_eq!(
            b.build().unwrap_err(),
            SegmentsExceedCycle {
                required: 3440,
                available: 100
            }
        );

        let mut b = ClusterConfig::builder();
        b.static_slots(0, 40);
        assert_eq!(b.build().unwrap_err(), NoStaticSlots);

        let mut b = ClusterConfig::builder();
        b.static_slots(80, 40).minislots(901, 2);
        assert_eq!(
            b.build().unwrap_err(),
            SegmentsExceedCycle {
                required: 5002,
                available: 5000
            }
        );
        // Exactly filling the cycle leaves no NIT.
        let mut b = ClusterConfig::builder();
        b.static_slots(80, 40).minislots(900, 2);
        assert_eq!(b.build().unwrap_err(), NoNetworkIdleTime);

        let mut b = ClusterConfig::builder();
        b.latest_tx(500);
        assert_eq!(
            b.build().unwrap_err(),
            LatestTxOutOfRange {
                latest_tx: 500,
                minislots: 120
            }
        );

        // A 2-MT static slot has no room between its two action-point
        // offsets; a 1-MT minislot none after its action point.
        let mut b = ClusterConfig::builder();
        b.static_slots(80, 2);
        assert_eq!(b.build().unwrap_err(), ActionPointTooLarge);
        let mut b = ClusterConfig::builder();
        b.minislots(120, 1);
        assert_eq!(b.build().unwrap_err(), ActionPointTooLarge);

        let mut b = ClusterConfig::builder();
        b.bit_rate(0);
        assert_eq!(b.build().unwrap_err(), ZeroBitRate);
    }

    #[test]
    fn paper_presets_are_valid() {
        for slots in [80, 120] {
            let c = ClusterConfig::paper_static(slots);
            assert_eq!(c.static_slot_count(), slots);
            assert_eq!(c.cycle_duration(), SimDuration::from_millis(5));
            let segments = c.static_segment_duration() + c.dynamic_segment_duration();
            assert!(segments < c.cycle_duration(), "no network idle time");
        }
        for ms in [25, 50, 75, 100] {
            let c = ClusterConfig::paper_dynamic(ms);
            assert_eq!(c.minislot_count(), ms);
            assert_eq!(c.cycle_duration(), SimDuration::from_millis(1));
        }
    }

    #[test]
    fn capacity_calculations() {
        let c = cfg(); // 10 Mbit/s, 1 µs MT → 10 bits/MT.
                       // 40 MT slot minus 2 action-point MT → 38 µs → 380 bits.
        assert_eq!(c.static_slot_capacity_bits(), 380);
        assert_eq!(c.transmission_duration(100), SimDuration::from_micros(10));
        // Minislot = 2 MT = 20 bits; 50 bits → 3 minislots + 1 idle phase.
        assert_eq!(minislots_for(50, c.minislot_bits()), 4);
        assert_eq!(minislots_for(1, c.minislot_bits()), 2);
    }

    #[test]
    fn paper_static_capacity_fits_largest_table_message() {
        // The largest BBW message is 1742 bits; its on-wire encoding adds
        // ~30% (checked precisely in the codec tests). The preset must
        // accommodate it inside one 40-MT slot.
        let c = ClusterConfig::paper_static(80);
        assert!(
            c.static_slot_capacity_bits() >= 2400,
            "capacity {} too small",
            c.static_slot_capacity_bits()
        );
    }
}
