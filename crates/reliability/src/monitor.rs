//! Online reliability monitoring over fault-process counters.
//!
//! The Theorem-1 retransmission plan is computed *offline* from a long-run
//! BER, so a bursty fault storm (a Gilbert–Elliott bad state) can exhaust
//! the per-message copy budget `k_z` and silently blow the ρ = 1 − γ
//! reliability goal. [`ReliabilityMonitor`] closes that loop at runtime:
//! it watches the cumulative [`FaultCounters`] a fault process exposes,
//! folds the per-window fault rate into an EWMA, and classifies the
//! channel (or the whole bus) into one of three [`HealthState`]s with
//! dual-threshold hysteresis:
//!
//! * **Nominal** — achieved delivery tracks the offline plan; no action.
//! * **Stressed** — the observed fault rate is far above what the plan
//!   assumed; degraded-mode policies shed low-criticality soft traffic
//!   and spend the freed slack on extra copies of hard messages.
//! * **Storm** — the channel is effectively inside a burst; shedding
//!   widens and hard frames are mirrored to the healthier channel.
//!
//! States *enter* immediately when the EWMA crosses an enter threshold
//! (a storm must be reacted to within a couple of windows) but *exit*
//! only after the EWMA has stayed below the exit threshold for a
//! configured number of consecutive windows — the bounded hysteresis that
//! keeps the scheduler from flapping between nominal and degraded service
//! on the edge of a burst.
//!
//! Everything here is pure arithmetic over counters: no clocks, no RNG,
//! so monitored runs stay bit-for-bit replayable at any thread count.
//! (Tracing does not break this: the owner *pushes* the current simulated
//! time in via [`ReliabilityMonitor::set_trace_clock`] purely to stamp
//! emitted [`observe::EventKind::HealthTransition`] events — the clock
//! never feeds back into classification.)

use event_sim::SimTime;
use observe::{EventKind, Tracer};

use crate::fault::FaultCounters;

/// Channel/bus health classification emitted by [`ReliabilityMonitor`].
///
/// Ordered by severity, so `a.max(b)` is "the worse of the two" — handy
/// when combining per-channel states into an overall bus health.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum HealthState {
    /// Fault rate consistent with the offline plan's BER assumption.
    #[default]
    Nominal,
    /// Sustained fault rate well above the planned regime.
    Stressed,
    /// Burst regime: the channel behaves like a Gilbert–Elliott bad state.
    Storm,
}

impl HealthState {
    /// `true` for [`Stressed`](HealthState::Stressed) and
    /// [`Storm`](HealthState::Storm) — any state in which degraded-mode
    /// policies are active.
    pub fn is_degraded(self) -> bool {
        self != HealthState::Nominal
    }

    /// Compact encoding used by trace events: `0` = Nominal,
    /// `1` = Stressed, `2` = Storm.
    pub fn as_u8(self) -> u8 {
        match self {
            HealthState::Nominal => 0,
            HealthState::Stressed => 1,
            HealthState::Storm => 2,
        }
    }
}

/// Thresholds and smoothing parameters for a [`ReliabilityMonitor`].
///
/// Invariants (checked at monitor construction):
/// `0 < alpha ≤ 1`, `min_window_frames ≥ 1`, `hysteresis_windows ≥ 1`,
/// and `0 ≤ stressed_exit ≤ stressed_enter ≤ storm_enter` with
/// `stressed_exit ≤ storm_exit ≤ storm_enter`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorConfig {
    /// EWMA smoothing factor: weight of the newest window's fault rate.
    pub alpha: f64,
    /// Fault-counter deltas accumulate until at least this many frames
    /// were checked, then fold into the EWMA as one window. Small windows
    /// react faster but are noisier; the default suits the ~16 frames per
    /// FlexRay cycle the paper's mixed workloads produce.
    pub min_window_frames: u64,
    /// EWMA fault rate at or above which the state enters `Stressed`.
    pub stressed_enter: f64,
    /// EWMA fault rate below which `Stressed` may decay to `Nominal`.
    pub stressed_exit: f64,
    /// EWMA fault rate at or above which the state enters `Storm`.
    pub storm_enter: f64,
    /// EWMA fault rate below which `Storm` may decay to `Stressed`.
    pub storm_exit: f64,
    /// Consecutive windows the EWMA must sit below the exit threshold
    /// before the state steps down one level (bounded hysteresis).
    pub hysteresis_windows: u32,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            alpha: 0.5,
            min_window_frames: 24,
            stressed_enter: 0.04,
            stressed_exit: 0.01,
            storm_enter: 0.10,
            storm_exit: 0.04,
            hysteresis_windows: 3,
        }
    }
}

impl MonitorConfig {
    /// A config whose enter thresholds sit a safe factor above the frame
    /// failure rate `expected` the offline plan assumed, so that nominal
    /// operation (including the occasional isolated fault) never trips
    /// the monitor, while a Gilbert–Elliott bad state (orders of
    /// magnitude above plan) trips it within a couple of windows.
    ///
    /// For the paper's BER regimes (10⁻⁷…10⁻⁹, expected frame failure
    /// ≲ 10⁻⁴) this returns the default thresholds; on noisier baselines
    /// the thresholds scale up proportionally.
    pub fn for_expected_fault_rate(expected: f64) -> Self {
        let d = MonitorConfig::default();
        let stressed_enter = (expected * 50.0).clamp(d.stressed_enter, 0.5);
        let scale = stressed_enter / d.stressed_enter;
        MonitorConfig {
            stressed_enter,
            stressed_exit: d.stressed_exit * scale,
            storm_enter: (d.storm_enter * scale).min(0.9),
            storm_exit: d.storm_exit * scale,
            ..d
        }
    }

    fn validate(&self) {
        assert!(self.alpha > 0.0 && self.alpha <= 1.0, "alpha out of (0, 1]");
        assert!(self.min_window_frames >= 1, "min_window_frames must be ≥ 1");
        assert!(
            self.hysteresis_windows >= 1,
            "hysteresis_windows must be ≥ 1"
        );
        assert!(
            0.0 <= self.stressed_exit
                && self.stressed_exit <= self.stressed_enter
                && self.stressed_enter <= self.storm_enter,
            "stressed/storm enter thresholds must be ordered"
        );
        assert!(
            self.stressed_exit <= self.storm_exit && self.storm_exit <= self.storm_enter,
            "storm_exit must sit between stressed_exit and storm_enter"
        );
    }
}

/// Cumulative transition statistics a [`ReliabilityMonitor`] maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MonitorCounters {
    /// Completed observation windows folded into the EWMA.
    pub windows: u64,
    /// State changes in either direction.
    pub transitions: u64,
    /// Transitions *into* [`HealthState::Storm`].
    pub storm_entries: u64,
    /// Transitions back to [`HealthState::Nominal`] from a degraded state.
    pub recoveries: u64,
}

/// EWMA-over-fault-windows health classifier with dual-threshold
/// hysteresis.
///
/// Feed it the *cumulative* [`FaultCounters`] of a fault process (per
/// channel, or merged across channels) once per scheduling quantum —
/// typically once per FlexRay cycle — via [`observe`](Self::observe);
/// it returns the current [`HealthState`].
///
/// ```
/// use reliability::fault::FaultCounters;
/// use reliability::monitor::{HealthState, MonitorConfig, ReliabilityMonitor};
///
/// let mut m = ReliabilityMonitor::new(MonitorConfig::default());
/// // A clean window keeps the state nominal…
/// let clean = FaultCounters { frames_checked: 100, faults_injected: 0 };
/// assert_eq!(m.observe(clean), HealthState::Nominal);
/// // …a burst window (30% frame loss) trips the monitor immediately.
/// let burst = FaultCounters { frames_checked: 200, faults_injected: 30 };
/// assert!(m.observe(burst).is_degraded());
/// ```
#[derive(Debug, Clone)]
pub struct ReliabilityMonitor {
    cfg: MonitorConfig,
    state: HealthState,
    ewma: f64,
    /// Counter snapshot at the last call, to form deltas.
    last_seen: FaultCounters,
    /// Delta accumulated towards the next window.
    pending: FaultCounters,
    /// Consecutive completed windows whose classification was below the
    /// current state.
    downgrade_streak: u32,
    counters: MonitorCounters,
    /// Observability: where health transitions are reported (disabled by
    /// default), which scope tag they carry, and the simulated instant the
    /// owner last pushed in to stamp them with.
    tracer: Tracer,
    trace_scope: u8,
    trace_now: SimTime,
}

impl ReliabilityMonitor {
    /// Creates a monitor in [`HealthState::Nominal`] with a zero EWMA.
    ///
    /// # Panics
    /// Panics if the config violates its documented invariants.
    pub fn new(cfg: MonitorConfig) -> Self {
        cfg.validate();
        ReliabilityMonitor {
            cfg,
            state: HealthState::Nominal,
            ewma: 0.0,
            last_seen: FaultCounters::default(),
            pending: FaultCounters::default(),
            downgrade_streak: 0,
            counters: MonitorCounters::default(),
            tracer: Tracer::disabled(),
            trace_scope: 0,
            trace_now: SimTime::ZERO,
        }
    }

    /// Reports health transitions through `tracer`, tagged with `scope`
    /// (see [`observe::EventKind::HealthTransition`]). Tracing never
    /// affects classification.
    pub fn set_tracer(&mut self, tracer: Tracer, scope: u8) {
        self.tracer = tracer;
        self.trace_scope = scope;
    }

    /// Stamps subsequently emitted transition events with `now`. The
    /// owner (which *does* know the simulated clock) calls this before
    /// each [`observe`](Self::observe); the monitor itself stays clock-free.
    pub fn set_trace_clock(&mut self, now: SimTime) {
        self.trace_now = now;
    }

    /// Ingests the fault process's cumulative counters and returns the
    /// (possibly updated) health state.
    ///
    /// Deltas since the previous call accumulate until at least
    /// [`MonitorConfig::min_window_frames`] frames were checked; the
    /// accumulated span then folds into the EWMA as one window.
    /// Counters that move backwards (a replaced fault process) reset the
    /// delta baseline without emitting a window.
    pub fn observe(&mut self, cumulative: FaultCounters) -> HealthState {
        if cumulative.frames_checked < self.last_seen.frames_checked
            || cumulative.faults_injected < self.last_seen.faults_injected
        {
            self.last_seen = cumulative;
            return self.state;
        }
        self.pending.frames_checked += cumulative.frames_checked - self.last_seen.frames_checked;
        self.pending.faults_injected += cumulative.faults_injected - self.last_seen.faults_injected;
        self.last_seen = cumulative;
        if self.pending.frames_checked < self.cfg.min_window_frames {
            return self.state;
        }
        let rate = self.pending.faults_injected as f64 / self.pending.frames_checked as f64;
        self.pending = FaultCounters::default();
        self.ewma = self.cfg.alpha * rate + (1.0 - self.cfg.alpha) * self.ewma;
        self.counters.windows += 1;
        self.reclassify();
        self.state
    }

    fn reclassify(&mut self) {
        // Enter thresholds give the level the EWMA demands on its own;
        // exit thresholds give the floor the current state defends until
        // the EWMA decays below them.
        let demanded = if self.ewma >= self.cfg.storm_enter {
            HealthState::Storm
        } else if self.ewma >= self.cfg.stressed_enter {
            HealthState::Stressed
        } else {
            HealthState::Nominal
        };
        let defended = match self.state {
            HealthState::Storm if self.ewma >= self.cfg.storm_exit => HealthState::Storm,
            HealthState::Storm | HealthState::Stressed if self.ewma >= self.cfg.stressed_exit => {
                HealthState::Stressed
            }
            _ => HealthState::Nominal,
        };
        let candidate = demanded.max(defended);
        if candidate > self.state {
            self.transition(candidate);
        } else if candidate < self.state {
            self.downgrade_streak += 1;
            if self.downgrade_streak >= self.cfg.hysteresis_windows {
                // Step down one level at a time so recovery from Storm
                // passes through Stressed rather than snapping to Nominal.
                let next = match self.state {
                    HealthState::Storm => HealthState::Stressed.max(candidate),
                    _ => HealthState::Nominal,
                };
                self.transition(next);
            }
        } else {
            self.downgrade_streak = 0;
        }
    }

    fn transition(&mut self, next: HealthState) {
        let prev = self.state;
        self.state = next;
        self.downgrade_streak = 0;
        self.counters.transitions += 1;
        self.tracer
            .emit(self.trace_now, || EventKind::HealthTransition {
                scope: self.trace_scope,
                from: prev.as_u8(),
                to: next.as_u8(),
            });
        if next == HealthState::Storm {
            self.counters.storm_entries += 1;
        }
        if next == HealthState::Nominal && prev.is_degraded() {
            self.counters.recoveries += 1;
        }
    }

    /// The current health classification.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// The smoothed per-frame fault rate.
    pub fn ewma_fault_rate(&self) -> f64 {
        self.ewma
    }

    /// Cumulative window/transition statistics.
    pub fn counters(&self) -> MonitorCounters {
        self.counters
    }

    /// The configuration this monitor was built with.
    pub fn config(&self) -> &MonitorConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cum(frames: u64, faults: u64) -> FaultCounters {
        FaultCounters {
            frames_checked: frames,
            faults_injected: faults,
        }
    }

    /// Drives `m` with `n` windows of exactly `min_window_frames` frames
    /// at the given per-window fault count; returns the final state.
    fn drive(m: &mut ReliabilityMonitor, n: u64, faults_per_window: u64) -> HealthState {
        let w = m.config().min_window_frames;
        let mut last = m.last_seen;
        let mut state = m.state();
        for _ in 0..n {
            last = last.merged(cum(w, faults_per_window));
            state = m.observe(last);
        }
        state
    }

    #[test]
    fn stays_nominal_on_clean_windows() {
        let mut m = ReliabilityMonitor::new(MonitorConfig::default());
        assert_eq!(drive(&mut m, 100, 0), HealthState::Nominal);
        assert_eq!(m.counters().windows, 100);
        assert_eq!(m.counters().transitions, 0);
        assert_eq!(m.ewma_fault_rate(), 0.0);
    }

    #[test]
    fn an_isolated_fault_does_not_trip_the_monitor() {
        // One corrupted frame in an otherwise clean run — the baseline
        // BER-7 golden cells look like this — must stay Nominal.
        let mut m = ReliabilityMonitor::new(MonitorConfig::default());
        drive(&mut m, 10, 0);
        assert_eq!(drive(&mut m, 1, 1), HealthState::Nominal);
        assert_eq!(drive(&mut m, 10, 0), HealthState::Nominal);
        assert_eq!(m.counters().transitions, 0);
    }

    #[test]
    fn storm_enters_immediately_and_exits_with_hysteresis() {
        let cfg = MonitorConfig::default();
        let w = cfg.min_window_frames;
        let mut m = ReliabilityMonitor::new(cfg);
        // 25% frame loss per window: EWMA 0.125 after one window ≥ 0.10.
        assert_eq!(drive(&mut m, 1, w / 4), HealthState::Storm);
        assert_eq!(m.counters().storm_entries, 1);
        // Clean windows: the EWMA halves each window, but the state only
        // steps down after `hysteresis_windows` sub-threshold windows.
        let mut states = Vec::new();
        for _ in 0..12 {
            states.push(drive(&mut m, 1, 0));
        }
        assert_eq!(states.first(), Some(&HealthState::Storm));
        assert!(states.contains(&HealthState::Stressed), "{states:?}");
        assert_eq!(states.last(), Some(&HealthState::Nominal));
        assert_eq!(m.counters().recoveries, 1);
        // Storm → Stressed → Nominal: three transitions in total.
        assert_eq!(m.counters().transitions, 3);
    }

    #[test]
    fn recovery_from_storm_passes_through_stressed() {
        let cfg = MonitorConfig::default();
        let w = cfg.min_window_frames;
        let mut m = ReliabilityMonitor::new(cfg);
        drive(&mut m, 3, w / 3);
        assert_eq!(m.state(), HealthState::Storm);
        let mut prev = m.state();
        let mut saw_direct_drop = false;
        for _ in 0..20 {
            let s = drive(&mut m, 1, 0);
            if prev == HealthState::Storm && s == HealthState::Nominal {
                saw_direct_drop = true;
            }
            prev = s;
        }
        assert!(!saw_direct_drop, "Storm must not snap straight to Nominal");
        assert_eq!(m.state(), HealthState::Nominal);
    }

    #[test]
    fn sub_window_deltas_accumulate() {
        let cfg = MonitorConfig {
            min_window_frames: 10,
            ..MonitorConfig::default()
        };
        let mut m = ReliabilityMonitor::new(cfg);
        // Nine frames: below the window size, no EWMA update yet.
        assert_eq!(m.observe(cum(9, 9)), HealthState::Nominal);
        assert_eq!(m.counters().windows, 0);
        // The tenth frame completes the window at 90% loss → Storm.
        assert_eq!(m.observe(cum(10, 9)), HealthState::Storm);
        assert_eq!(m.counters().windows, 1);
    }

    #[test]
    fn counter_regression_resets_the_baseline() {
        let mut m = ReliabilityMonitor::new(MonitorConfig::default());
        drive(&mut m, 2, 0);
        let before = m.counters().windows;
        // A smaller cumulative value (fault process swapped out) must not
        // underflow or emit a bogus window.
        assert_eq!(m.observe(cum(1, 0)), HealthState::Nominal);
        assert_eq!(m.counters().windows, before);
    }

    #[test]
    fn observe_is_deterministic() {
        let mk = || ReliabilityMonitor::new(MonitorConfig::default());
        let (mut a, mut b) = (mk(), mk());
        let mut last = FaultCounters::default();
        for i in 0..200u64 {
            last = last.merged(cum(7 + i % 5, u64::from(i % 11 == 0)));
            assert_eq!(a.observe(last), b.observe(last));
        }
        assert_eq!(a.counters(), b.counters());
        assert_eq!(a.ewma_fault_rate().to_bits(), b.ewma_fault_rate().to_bits());
    }

    #[test]
    fn expected_rate_scaling_keeps_threshold_order() {
        for expected in [0.0, 1e-7, 1e-4, 1e-2, 0.2, 1.0] {
            let cfg = MonitorConfig::for_expected_fault_rate(expected);
            // Construction validates the ordering invariants.
            let m = ReliabilityMonitor::new(cfg);
            assert!(m.config().stressed_enter >= 50.0 * expected || expected > 0.01);
        }
        // Paper-regime BERs keep the defaults.
        assert_eq!(
            MonitorConfig::for_expected_fault_rate(1.6e-4),
            MonitorConfig::default()
        );
    }

    #[test]
    fn health_state_orders_by_severity() {
        assert!(HealthState::Nominal < HealthState::Stressed);
        assert!(HealthState::Stressed < HealthState::Storm);
        assert_eq!(
            HealthState::Stressed.max(HealthState::Storm),
            HealthState::Storm
        );
        assert!(!HealthState::Nominal.is_degraded());
        assert!(HealthState::Storm.is_degraded());
    }

    #[test]
    #[should_panic(expected = "thresholds must be ordered")]
    fn rejects_inverted_thresholds() {
        let cfg = MonitorConfig {
            stressed_enter: 0.2,
            storm_enter: 0.1,
            ..MonitorConfig::default()
        };
        let _ = ReliabilityMonitor::new(cfg);
    }
}
