//! Scripted fault-injection campaigns.
//!
//! The stochastic processes in [`crate::fault`] answer "how often does the
//! channel corrupt a frame?"; a *campaign* answers "what happens when the
//! channel suffers a specific disturbance at a specific time?" — the
//! question every recovery claim ("service restores within N cycles after
//! a 50-cycle blackout") is actually about.
//!
//! A [`CampaignSpec`] is a typed timeline of [`FaultEvent`]s on the
//! communication-cycle clock:
//!
//! * [`FaultEventKind::Blackout`] — the channel corrupts *every* frame in
//!   the window (severed wire / dead driver). An open-ended blackout
//!   (`duration_cycles: None`) is the permanent fault the paper attributes
//!   to physical damage (§I) — the semantics of the retired
//!   `ChannelOutage` decorator, absorbed here.
//! * [`FaultEventKind::BerSpike`] — extra corruption probability ramping
//!   linearly from 0 to `peak` across the window (EMI/temperature ramp).
//! * [`FaultEventKind::Babble`] — a babbling-node burst: each frame is
//!   additionally corrupted with probability `duty` for the whole window,
//!   the bus-level effect of a node saturating the dynamic segment.
//! * [`FaultEventKind::SensorDropout`] — the *fault sensor* (not the
//!   channel) goes dark: [`FaultProcess::counters`] freezes at its
//!   window-entry snapshot, so downstream health monitors see a stalled
//!   counter stream while injection continues underneath.
//!
//! [`CampaignFaults`] wraps any existing [`FaultProcess`] as a
//! deterministic decorator: the base process is consulted exactly as
//! before outside disturbance windows (its RNG stream is untouched), and
//! the decorator draws any extra randomness from its own
//! [`event_sim::rng::substream`], so adding a campaign to one channel
//! never perturbs the other. The bus engine drives the cycle clock via
//! [`FaultProcess::on_cycle_start`].

use rand::rngs::SmallRng;

use event_sim::rng::substream;

use crate::fault::{draw_threshold, draws_below, FaultCounters, FaultProcess};

/// Which channel(s) of the dual-channel bus an event strikes.
///
/// The reliability crate does not know the bus's channel type; the engine
/// installs one fault process per channel and tells the decorator its
/// channel index (0 = A, 1 = B) at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignTarget {
    /// Channel A only (index 0).
    A,
    /// Channel B only (index 1).
    B,
    /// Both channels.
    Both,
}

impl CampaignTarget {
    /// Whether the event applies to the channel at `channel_index`.
    #[must_use]
    pub fn includes(self, channel_index: usize) -> bool {
        match self {
            CampaignTarget::A => channel_index == 0,
            CampaignTarget::B => channel_index == 1,
            CampaignTarget::Both => channel_index <= 1,
        }
    }
}

/// What a [`FaultEvent`] does while its window is active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEventKind {
    /// Corrupt every frame unconditionally; the base process is *not*
    /// consulted while down (its RNG stream pauses), exactly as the old
    /// `ChannelOutage` behaved once struck.
    Blackout,
    /// Extra per-frame corruption probability ramping linearly from 0 at
    /// the window start to `peak` at the window end (an open-ended spike
    /// holds `peak` from the start).
    BerSpike {
        /// Probability reached at the end of the ramp, in `[0, 1]`.
        peak: f64,
    },
    /// Extra per-frame corruption with constant probability `duty` for the
    /// whole window.
    Babble {
        /// Per-frame corruption probability of the burst, in `[0, 1]`.
        duty: f64,
    },
    /// Freeze the counters the process *reports* (injection continues).
    SensorDropout,
}

impl FaultEventKind {
    /// Short lowercase label (scorecards, traces).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultEventKind::Blackout => "blackout",
            FaultEventKind::BerSpike { .. } => "ber-spike",
            FaultEventKind::Babble { .. } => "babble",
            FaultEventKind::SensorDropout => "sensor-dropout",
        }
    }
}

/// One scripted disturbance on the cycle clock: a kind, a target channel
/// set, and a `[start_cycle, start_cycle + duration_cycles)` window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Channel(s) the event strikes.
    pub target: CampaignTarget,
    /// First cycle (inclusive) the event is active.
    pub start_cycle: u64,
    /// Window length in cycles; `None` means the event never clears (a
    /// permanent fault).
    pub duration_cycles: Option<u64>,
    /// What the event does while active.
    pub kind: FaultEventKind,
}

impl FaultEvent {
    /// First cycle (exclusive) after the event has cleared, or `None` for
    /// a permanent event.
    #[must_use]
    pub fn end_cycle(&self) -> Option<u64> {
        self.duration_cycles
            .map(|d| self.start_cycle.saturating_add(d))
    }

    /// Whether the event is active during `cycle`.
    #[must_use]
    pub fn active(&self, cycle: u64) -> bool {
        cycle >= self.start_cycle && self.end_cycle().is_none_or(|end| cycle < end)
    }

    /// The extra corruption probability this event contributes at `cycle`
    /// (0 when inactive or when the kind adds no per-frame probability).
    #[must_use]
    pub fn extra_probability(&self, cycle: u64) -> f64 {
        if !self.active(cycle) {
            return 0.0;
        }
        match self.kind {
            FaultEventKind::BerSpike { peak } => match self.duration_cycles {
                // Linear ramp reaching `peak` on the window's last cycle.
                Some(d) if d > 1 => peak * (cycle - self.start_cycle + 1) as f64 / d as f64,
                _ => peak,
            },
            FaultEventKind::Babble { duty } => duty,
            FaultEventKind::Blackout | FaultEventKind::SensorDropout => 0.0,
        }
    }
}

/// A validated, ordered timeline of [`FaultEvent`]s.
///
/// Build one with the fluent constructors; each validates its parameters
/// (probabilities in range, non-empty windows) so a malformed campaign
/// fails at construction, not mid-run.
///
/// ```
/// use reliability::campaign::{CampaignSpec, CampaignTarget};
/// let spec = CampaignSpec::new()
///     .blackout(CampaignTarget::A, 40, 50)
///     .ber_spike(CampaignTarget::Both, 120, 30, 0.2);
/// assert_eq!(spec.events().len(), 2);
/// assert_eq!(spec.last_clear_cycle(), Some(150));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CampaignSpec {
    events: Vec<FaultEvent>,
}

impl CampaignSpec {
    /// An empty campaign (no disturbances).
    #[must_use]
    pub fn new() -> Self {
        CampaignSpec::default()
    }

    fn push(mut self, event: FaultEvent) -> Self {
        if let Some(d) = event.duration_cycles {
            assert!(d > 0, "event window must span at least one cycle");
        }
        self.events.push(event);
        self
    }

    /// Adds a channel blackout of `cycles` cycles starting at `start`.
    #[must_use]
    pub fn blackout(self, target: CampaignTarget, start: u64, cycles: u64) -> Self {
        self.push(FaultEvent {
            target,
            start_cycle: start,
            duration_cycles: Some(cycles),
            kind: FaultEventKind::Blackout,
        })
    }

    /// Adds a permanent blackout (never clears) starting at `start` — the
    /// severed-wire case the retired `ChannelOutage` modelled.
    #[must_use]
    pub fn permanent_blackout(self, target: CampaignTarget, start: u64) -> Self {
        self.push(FaultEvent {
            target,
            start_cycle: start,
            duration_cycles: None,
            kind: FaultEventKind::Blackout,
        })
    }

    /// Adds a BER spike ramping linearly to `peak` over `cycles` cycles.
    ///
    /// # Panics
    /// Panics if `peak` is outside `[0, 1]`.
    #[must_use]
    pub fn ber_spike(self, target: CampaignTarget, start: u64, cycles: u64, peak: f64) -> Self {
        assert!((0.0..=1.0).contains(&peak), "spike peak out of range");
        self.push(FaultEvent {
            target,
            start_cycle: start,
            duration_cycles: Some(cycles),
            kind: FaultEventKind::BerSpike { peak },
        })
    }

    /// Adds a babbling-node burst corrupting frames with probability
    /// `duty` for `cycles` cycles.
    ///
    /// # Panics
    /// Panics if `duty` is outside `[0, 1]`.
    #[must_use]
    pub fn babble(self, target: CampaignTarget, start: u64, cycles: u64, duty: f64) -> Self {
        assert!((0.0..=1.0).contains(&duty), "babble duty out of range");
        self.push(FaultEvent {
            target,
            start_cycle: start,
            duration_cycles: Some(cycles),
            kind: FaultEventKind::Babble { duty },
        })
    }

    /// Adds a health-sensor dropout window of `cycles` cycles.
    #[must_use]
    pub fn sensor_dropout(self, target: CampaignTarget, start: u64, cycles: u64) -> Self {
        self.push(FaultEvent {
            target,
            start_cycle: start,
            duration_cycles: Some(cycles),
            kind: FaultEventKind::SensorDropout,
        })
    }

    /// The scripted events, in insertion order.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// `true` when the campaign scripts no disturbances.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The latest clear cycle over all finite events (`None` if the
    /// campaign is empty or every event is permanent). Recovery checkers
    /// use it to know when the disturbance is over for good.
    #[must_use]
    pub fn last_clear_cycle(&self) -> Option<u64> {
        self.events.iter().filter_map(FaultEvent::end_cycle).max()
    }

    /// Whether any permanent (never-clearing) event is scripted.
    #[must_use]
    pub fn has_permanent_event(&self) -> bool {
        self.events.iter().any(|e| e.duration_cycles.is_none())
    }
}

/// Counters specific to the campaign layer, on top of the base process's
/// [`FaultCounters`]. These fold into the run fingerprint only when
/// nonzero, so campaign-free runs keep their recorded golden digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CampaignCounters {
    /// Scripted events whose window has opened.
    pub events_started: u64,
    /// Frames corrupted unconditionally by an active blackout.
    pub blackout_faults: u64,
    /// Frames corrupted by a spike/babble draw that the base process had
    /// left intact.
    pub extra_faults: u64,
    /// Cycles during which the reported counters were frozen by a sensor
    /// dropout.
    pub dropout_cycles: u64,
}

impl CampaignCounters {
    /// Field-wise sum of two counter sets (e.g. across channels).
    #[must_use]
    pub fn merged(self, other: CampaignCounters) -> CampaignCounters {
        CampaignCounters {
            events_started: self.events_started + other.events_started,
            blackout_faults: self.blackout_faults + other.blackout_faults,
            extra_faults: self.extra_faults + other.extra_faults,
            dropout_cycles: self.dropout_cycles + other.dropout_cycles,
        }
    }
}

/// Decorates any [`FaultProcess`] with a scripted [`CampaignSpec`].
///
/// Counters are kept at this layer — during a blackout the base is not
/// consulted, so its own counters would under-report — and the decorator
/// satisfies the same identities as every other process: `faults_injected`
/// equals the corruptions the bus observes, whatever their source.
#[derive(Debug)]
pub struct CampaignFaults {
    base: Box<dyn FaultProcess>,
    /// Events striking this channel, in spec order.
    events: Vec<FaultEvent>,
    /// Per-event "window has opened" latches (for `events_started`).
    started: Vec<bool>,
    /// Disturbance state recomputed at each cycle start.
    blackout: bool,
    extra_probability: f64,
    /// The [`draw_threshold`] of `extra_probability`.
    extra_threshold: u64,
    /// Counter snapshot reported while a sensor dropout is active.
    frozen: Option<FaultCounters>,
    rng: SmallRng,
    counters: FaultCounters,
    campaign: CampaignCounters,
}

impl CampaignFaults {
    /// Wraps `base` with the events of `spec` that strike the channel at
    /// `channel_index` (0 = A, 1 = B). Extra randomness (spike/babble
    /// draws) comes from a dedicated substream of `seed`, leaving the base
    /// process's stream untouched outside blackout windows.
    pub fn new(
        base: Box<dyn FaultProcess>,
        spec: &CampaignSpec,
        channel_index: usize,
        seed: u64,
    ) -> Self {
        let events: Vec<FaultEvent> = spec
            .events()
            .iter()
            .filter(|e| e.target.includes(channel_index))
            .copied()
            .collect();
        let started = vec![false; events.len()];
        let mut this = CampaignFaults {
            base,
            events,
            started,
            blackout: false,
            extra_probability: 0.0,
            extra_threshold: 0,
            frozen: None,
            rng: substream(seed, "fault/campaign"),
            counters: FaultCounters::default(),
            campaign: CampaignCounters::default(),
        };
        // The engine announces cycle starts from cycle 0 onward, but a
        // decorator used standalone (tests) must start consistent too.
        this.recompute(0, false);
        this
    }

    /// `true` while an active blackout corrupts everything — the
    /// `ChannelOutage::is_down` observation, generalized to windows.
    #[must_use]
    pub fn is_down(&self) -> bool {
        self.blackout
    }

    /// Recomputes the disturbance state for `cycle`; `count` guards the
    /// side-effecting accounting (event latches, dropout cycles) so the
    /// constructor's consistency pass does not count cycle 0 twice.
    fn recompute(&mut self, cycle: u64, count: bool) {
        self.blackout = false;
        self.extra_probability = 0.0;
        let mut dropout = false;
        for (i, event) in self.events.iter().enumerate() {
            let active = event.active(cycle);
            if active && count && !self.started[i] {
                self.started[i] = true;
                self.campaign.events_started += 1;
            }
            if !active {
                continue;
            }
            match event.kind {
                FaultEventKind::Blackout => self.blackout = true,
                FaultEventKind::BerSpike { .. } | FaultEventKind::Babble { .. } => {
                    self.extra_probability =
                        self.extra_probability.max(event.extra_probability(cycle));
                }
                FaultEventKind::SensorDropout => dropout = true,
            }
        }
        self.extra_threshold = draw_threshold(self.extra_probability);
        if dropout {
            if self.frozen.is_none() {
                self.frozen = Some(self.counters);
            }
            if count {
                self.campaign.dropout_cycles += 1;
            }
        } else {
            self.frozen = None;
        }
    }
}

impl FaultProcess for CampaignFaults {
    fn corrupts(&mut self, bits: u32) -> bool {
        self.counters.frames_checked += 1;
        let hit = if self.blackout {
            // The wire is dead: corrupt unconditionally without consulting
            // the base, so its RNG stream pauses for the window.
            self.campaign.blackout_faults += 1;
            true
        } else {
            let base_hit = self.base.corrupts(bits);
            if !base_hit
                && self.extra_threshold > 0
                && draws_below(&mut self.rng, self.extra_threshold)
            {
                self.campaign.extra_faults += 1;
                true
            } else {
                base_hit
            }
        };
        self.counters.faults_injected += u64::from(hit);
        hit
    }

    fn frame_failure_probability(&self, bits: u32) -> f64 {
        if self.blackout {
            return 1.0;
        }
        let base = self.base.frame_failure_probability(bits);
        // Independent extra draw on base survivors.
        1.0 - (1.0 - base) * (1.0 - self.extra_probability)
    }

    fn counters(&self) -> FaultCounters {
        // A sensor dropout freezes what we *report*; accumulation
        // continues underneath so the post-dropout jump stays monotone.
        self.frozen.unwrap_or(self.counters)
    }

    fn in_burst(&self) -> bool {
        self.blackout || self.extra_probability > 0.0 || self.base.in_burst()
    }

    fn on_cycle_start(&mut self, cycle: u64) {
        self.base.on_cycle_start(cycle);
        self.recompute(cycle, true);
    }

    fn campaign_counters(&self) -> Option<CampaignCounters> {
        Some(self.campaign)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ber::Ber;
    use crate::fault::{BernoulliFaults, NoFaults};

    fn boxed_quiet() -> Box<dyn FaultProcess> {
        Box::new(NoFaults::new())
    }

    #[test]
    fn blackout_window_down_and_up_transitions() {
        let spec = CampaignSpec::new().blackout(CampaignTarget::A, 2, 3);
        let mut f = CampaignFaults::new(boxed_quiet(), &spec, 0, 1);
        for cycle in 0..8u64 {
            f.on_cycle_start(cycle);
            let expect_down = (2..5).contains(&cycle);
            assert_eq!(f.is_down(), expect_down, "cycle {cycle}");
            assert_eq!(f.corrupts(100), expect_down, "cycle {cycle}");
            assert_eq!(f.in_burst(), expect_down, "cycle {cycle}");
            let p = f.frame_failure_probability(100);
            assert_eq!(p, if expect_down { 1.0 } else { 0.0 });
        }
        assert_eq!(
            f.counters(),
            FaultCounters {
                frames_checked: 8,
                faults_injected: 3,
            }
        );
        let c = f.campaign_counters().unwrap();
        assert_eq!(c.events_started, 1);
        assert_eq!(c.blackout_faults, 3);
    }

    #[test]
    fn permanent_blackout_is_the_old_channel_outage() {
        // Dead from cycle 0 — the `ChannelOutage::new(_, 0)` case.
        let spec = CampaignSpec::new().permanent_blackout(CampaignTarget::Both, 0);
        let mut f = CampaignFaults::new(boxed_quiet(), &spec, 1, 1);
        assert!(f.is_down(), "down before any cycle announcement");
        assert!(f.corrupts(1));
        for cycle in 0..100 {
            f.on_cycle_start(cycle);
            assert!(f.is_down());
            assert!(f.corrupts(1));
        }
        assert!(spec.has_permanent_event());
        assert_eq!(spec.last_clear_cycle(), None);
    }

    #[test]
    fn base_faults_pass_through_outside_windows() {
        let ber = Ber::new(0.9).unwrap();
        let spec = CampaignSpec::new().blackout(CampaignTarget::A, 1000, 10);
        let mut wrapped = CampaignFaults::new(Box::new(BernoulliFaults::new(ber, 7)), &spec, 0, 99);
        let mut bare = BernoulliFaults::new(ber, 7);
        wrapped.on_cycle_start(0);
        for _ in 0..200 {
            assert_eq!(wrapped.corrupts(10_000), bare.corrupts(10_000));
        }
        assert_eq!(wrapped.counters(), bare.counters());
        assert!(
            (wrapped.frame_failure_probability(100) - bare.frame_failure_probability(100)).abs()
                < 1e-12
        );
    }

    #[test]
    fn blackout_pauses_the_base_rng_stream() {
        // Frames consumed during the blackout must not advance the base
        // stream: after the window, the wrapped process continues exactly
        // where a never-interrupted twin that skipped those frames would.
        let ber = Ber::new(0.5).unwrap();
        let spec = CampaignSpec::new().blackout(CampaignTarget::A, 1, 1);
        let mut wrapped = CampaignFaults::new(Box::new(BernoulliFaults::new(ber, 3)), &spec, 0, 5);
        let mut twin = BernoulliFaults::new(ber, 3);
        wrapped.on_cycle_start(0);
        for _ in 0..10 {
            assert_eq!(wrapped.corrupts(1000), twin.corrupts(1000));
        }
        wrapped.on_cycle_start(1);
        for _ in 0..10 {
            assert!(wrapped.corrupts(1000), "blackout corrupts everything");
        }
        wrapped.on_cycle_start(2);
        for _ in 0..10 {
            assert_eq!(wrapped.corrupts(1000), twin.corrupts(1000));
        }
    }

    #[test]
    fn counter_accounting_across_down_and_up() {
        // 2 clean cycles, 2 down cycles, 2 clean cycles; one frame each.
        let spec = CampaignSpec::new().blackout(CampaignTarget::A, 2, 2);
        let mut f = CampaignFaults::new(boxed_quiet(), &spec, 0, 1);
        let mut injected = 0u64;
        for cycle in 0..6 {
            f.on_cycle_start(cycle);
            injected += u64::from(f.corrupts(64));
        }
        assert_eq!(injected, 2);
        assert_eq!(
            f.counters(),
            FaultCounters {
                frames_checked: 6,
                faults_injected: 2,
            }
        );
        assert_eq!(f.campaign_counters().unwrap().blackout_faults, 2);
    }

    #[test]
    fn spike_ramps_linearly_to_peak() {
        let spec = CampaignSpec::new().ber_spike(CampaignTarget::A, 10, 4, 0.8);
        let event = spec.events()[0];
        assert_eq!(event.extra_probability(9), 0.0);
        assert!((event.extra_probability(10) - 0.2).abs() < 1e-12);
        assert!((event.extra_probability(11) - 0.4).abs() < 1e-12);
        assert!((event.extra_probability(13) - 0.8).abs() < 1e-12);
        assert_eq!(event.extra_probability(14), 0.0);
    }

    #[test]
    fn spike_injects_extra_faults_deterministically() {
        let spec = CampaignSpec::new().ber_spike(CampaignTarget::A, 0, 10, 1.0);
        let run = || {
            let mut f = CampaignFaults::new(boxed_quiet(), &spec, 0, 42);
            let mut hits = Vec::new();
            for cycle in 0..10 {
                f.on_cycle_start(cycle);
                for _ in 0..8 {
                    hits.push(f.corrupts(100));
                }
            }
            (hits, f.counters(), f.campaign_counters().unwrap())
        };
        let (hits_a, counters, campaign) = run();
        let (hits_b, ..) = run();
        assert_eq!(hits_a, hits_b, "campaign draws are seed-deterministic");
        assert!(campaign.extra_faults > 0, "a peak-1.0 spike must inject");
        assert_eq!(counters.faults_injected, campaign.extra_faults);
        // The ramp's last cycle reaches probability 1.0: all 8 frames hit.
        assert!(hits_a[72..80].iter().all(|&h| h));
    }

    #[test]
    fn babble_burst_holds_constant_duty() {
        let spec = CampaignSpec::new().babble(CampaignTarget::Both, 5, 3, 1.0);
        let mut f = CampaignFaults::new(boxed_quiet(), &spec, 1, 9);
        for cycle in 0..10 {
            f.on_cycle_start(cycle);
            let expect = (5..8).contains(&cycle);
            assert_eq!(f.corrupts(100), expect, "cycle {cycle}");
            assert_eq!(f.in_burst(), expect);
        }
    }

    #[test]
    fn sensor_dropout_freezes_reported_counters_monotonically() {
        let ber = Ber::new(0.9).unwrap();
        let spec = CampaignSpec::new().sensor_dropout(CampaignTarget::A, 2, 3);
        let mut f = CampaignFaults::new(Box::new(BernoulliFaults::new(ber, 1)), &spec, 0, 1);
        let mut reported = Vec::new();
        for cycle in 0..8 {
            f.on_cycle_start(cycle);
            let _ = f.corrupts(1000);
            reported.push(f.counters());
        }
        // Frozen at the window-entry snapshot for cycles 2..5.
        assert_eq!(reported[1], reported[2]);
        assert_eq!(reported[2], reported[3]);
        assert_eq!(reported[2], reported[4]);
        // After the window the true (larger) totals reappear — monotone.
        assert!(reported[5].frames_checked > reported[4].frames_checked);
        for pair in reported.windows(2) {
            assert!(pair[1].frames_checked >= pair[0].frames_checked);
            assert!(pair[1].faults_injected >= pair[0].faults_injected);
        }
        assert_eq!(reported[7].frames_checked, 8, "accumulation never stopped");
        assert_eq!(f.campaign_counters().unwrap().dropout_cycles, 3);
    }

    #[test]
    fn events_filter_by_target_channel() {
        let spec = CampaignSpec::new()
            .blackout(CampaignTarget::A, 0, 5)
            .babble(CampaignTarget::B, 0, 5, 1.0)
            .sensor_dropout(CampaignTarget::Both, 0, 5);
        let a = CampaignFaults::new(boxed_quiet(), &spec, 0, 1);
        let b = CampaignFaults::new(boxed_quiet(), &spec, 1, 1);
        assert_eq!(a.events.len(), 2, "blackout + dropout");
        assert_eq!(b.events.len(), 2, "babble + dropout");
        assert!(a.is_down());
        assert!(!b.is_down());
        assert!(CampaignTarget::Both.includes(0) && CampaignTarget::Both.includes(1));
        assert!(!CampaignTarget::A.includes(1) && !CampaignTarget::B.includes(0));
    }

    #[test]
    fn overlapping_probabilities_take_the_maximum() {
        let spec = CampaignSpec::new()
            .babble(CampaignTarget::A, 0, 10, 0.3)
            .ber_spike(CampaignTarget::A, 0, 10, 0.6);
        let mut f = CampaignFaults::new(boxed_quiet(), &spec, 0, 1);
        f.on_cycle_start(9); // spike ramp at its peak
        assert!((f.extra_probability - 0.6).abs() < 1e-12);
        f.on_cycle_start(0); // ramp barely started: babble dominates
        assert!((f.extra_probability - 0.3).abs() < 1e-12);
    }

    #[test]
    fn empty_campaign_is_transparent() {
        let ber = Ber::new(0.3).unwrap();
        let spec = CampaignSpec::new();
        assert!(spec.is_empty());
        let mut wrapped = CampaignFaults::new(Box::new(BernoulliFaults::new(ber, 11)), &spec, 0, 2);
        let mut bare = BernoulliFaults::new(ber, 11);
        for cycle in 0..5 {
            wrapped.on_cycle_start(cycle);
            for _ in 0..20 {
                assert_eq!(wrapped.corrupts(500), bare.corrupts(500));
            }
        }
        assert_eq!(wrapped.counters(), bare.counters());
        assert_eq!(
            wrapped.campaign_counters().unwrap(),
            CampaignCounters::default()
        );
    }

    #[test]
    fn campaign_counters_merge_fieldwise() {
        let a = CampaignCounters {
            events_started: 1,
            blackout_faults: 2,
            extra_faults: 3,
            dropout_cycles: 4,
        };
        let b = CampaignCounters {
            events_started: 10,
            blackout_faults: 20,
            extra_faults: 30,
            dropout_cycles: 40,
        };
        let m = a.merged(b);
        assert_eq!(m.events_started, 11);
        assert_eq!(m.blackout_faults, 22);
        assert_eq!(m.extra_faults, 33);
        assert_eq!(m.dropout_cycles, 44);
    }

    #[test]
    #[should_panic(expected = "spike peak out of range")]
    fn spike_rejects_bad_peak() {
        let _ = CampaignSpec::new().ber_spike(CampaignTarget::A, 0, 1, 1.5);
    }

    #[test]
    #[should_panic(expected = "event window must span at least one cycle")]
    fn zero_length_window_rejected() {
        let _ = CampaignSpec::new().blackout(CampaignTarget::A, 0, 0);
    }
}
