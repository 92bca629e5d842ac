//! End-to-end simulation runner.
//!
//! [`Runner`] wires a [`Scheduler`] to a fault-injecting
//! [`flexray::bus::BusEngine`], produces workload instances cycle by
//! cycle, and collects the paper's four metrics into a [`RunReport`].

use event_sim::rng::substream;
use event_sim::{SimDuration, SimTime};
use flexray::bus::BusEngine;
use flexray::codec::FrameCoding;
use flexray::config::ClusterConfig;
use flexray::signal::Signal;
use flexray::ChannelId;
use metrics::{DeadlineTracker, Summary};
use observe::{EventKind, TraceConfig, TraceLog, TraceMode, Tracer};
use rand::Rng;
use reliability::campaign::{CampaignCounters, CampaignFaults, CampaignSpec, CampaignTarget};
use reliability::fault::{BernoulliFaults, FaultCounters, FaultProcess, GilbertElliott};
use reliability::monitor::{HealthState, MonitorConfig, ReliabilityMonitor};
use reliability::Ber;
use workloads::AperiodicMessage;

use crate::instance::{InstanceStatus, MessageClass};
use crate::policy::{CoefficientOptions, Scheduler, SchedulerError};
use crate::registry::PolicyRef;
use crate::scenario::{FaultModel, Scenario};

/// When a run ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCondition {
    /// Produce this many message instances (across both classes), then run
    /// until all pending transmissions drain.
    ProducedInstances(u64),
    /// Run (producing continuously) until this many instances have been
    /// **successfully transmitted** (delivered within their deadline, the
    /// paper's §III-E success notion). The running-time experiments
    /// measure the time to complete the transmission of a message set
    /// (§IV-B.1); a scheduler that drops, loses or delays instances needs
    /// proportionally longer to complete the same count.
    DeliveredInstances(u64),
    /// Run for a fixed span of simulated time (production continues to the
    /// end) — used by the utilization/latency/miss-ratio experiments.
    Horizon(SimDuration),
}

/// Everything a run needs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Cluster geometry.
    pub cluster: ClusterConfig,
    /// Fault/reliability scenario.
    pub scenario: Scenario,
    /// Static (time-triggered) workload.
    pub static_messages: Vec<Signal>,
    /// Dynamic (event-triggered) workload.
    pub dynamic_messages: Vec<AperiodicMessage>,
    /// Scheduling policy under test (resolved from [`crate::registry`]).
    pub policy: PolicyRef,
    /// Stop condition.
    pub stop: StopCondition,
    /// Master seed (drives fault injection and arrival phases).
    pub seed: u64,
    /// Structured event tracing (off by default). Tracing observes the
    /// run without perturbing it: the [`RunReport::fingerprint`] of a
    /// traced run equals the untraced one.
    pub trace: TraceConfig,
}

/// Structured counters aggregated across every layer of one run: the
/// scheduler's steal decisions ([`tasks::ScheduleCounters`]), the fault
/// processes' injection counts ([`reliability::fault::FaultCounters`]),
/// and the instance tracker's recovery accounting. These explain *why*
/// two run fingerprints differ; the golden corpus diffs them field by
/// field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunCounters {
    /// Free static positions offered while dynamic backlog was pending.
    pub steal_attempts: u64,
    /// Steal attempts that served a backlogged dynamic entry.
    pub steal_granted: u64,
    /// Steal attempts where no backlogged entry fit the slot.
    pub steal_denied: u64,
    /// Early static copies sent through free slack.
    pub early_copies_sent: u64,
    /// Planned retransmission copies dropped for lack of fitting slack.
    pub dropped_copies: u64,
    /// Retransmission copies actually transmitted — the consumed part of
    /// the planned retransmission budget (Theorem 1's `k_i` copies).
    pub retransmission_budget_used: u64,
    /// Job resumptions after interruption: always zero on the FlexRay
    /// bus, whose slots are non-preemptive, but recorded in the golden
    /// corpus, so the field stays.
    pub preemptions: u64,
    /// Frames the fault processes were consulted about (both channels).
    pub frames_checked: u64,
    /// Frames the fault processes corrupted (both channels).
    pub faults_injected: u64,
    /// Instances that suffered ≥ 1 corrupted transmission yet were still
    /// delivered — faults masked by retransmission redundancy.
    pub faults_recovered: u64,
    /// Health-state changes of the effective bus health (overall monitor
    /// ⊔ per-channel monitors), in either direction.
    pub health_transitions: u64,
    /// Transitions of the effective health into `Storm`.
    pub storm_entries: u64,
    /// Recoveries of the effective health back to `Nominal` from a
    /// degraded state (each one restores nominal soft-traffic service).
    pub service_restores: u64,
    /// Soft dynamic instances shed by the degraded mode (produced but
    /// refused admission by criticality).
    pub soft_shed: u64,
    /// Extra hard-message copies sent through slack freed by shedding
    /// (beyond the Theorem-1 plan and the nominal early copy).
    pub degraded_extra_copies: u64,
    /// Hard frames mirrored to the healthy channel while the owning
    /// channel was in `Storm`.
    pub failover_mirrors: u64,
    /// Scripted campaign events whose window opened during the run.
    pub campaign_events: u64,
    /// Frames corrupted unconditionally by scripted blackouts.
    pub campaign_blackout_faults: u64,
    /// Frames corrupted by scripted spike/babble draws on top of the
    /// stochastic model.
    pub campaign_extra_faults: u64,
    /// Cycles the reported fault counters spent frozen by a scripted
    /// sensor dropout.
    pub campaign_dropout_cycles: u64,
}

impl RunCounters {
    /// How many leading [`fields`](Self::fields) the first recorded
    /// golden corpus held. These always fold into
    /// [`RunReport::fingerprint`]; the resilience counters after them
    /// (`[10..16]`) and the campaign counters after those (`[16..]`)
    /// joined later and fold in only when nonzero, so a run that never
    /// engaged them keeps its earlier fingerprint. A corpus records all
    /// twenty.
    pub const BASELINE: usize = 10;

    /// Every counter as a `(name, value)` pair, in a fixed order — the
    /// golden corpus, the fingerprint and the trace's counter samples
    /// read counters through this list, so a field added here is
    /// recorded, compared and digested.
    pub fn fields(&self) -> [(&'static str, u64); 20] {
        [
            ("steal_attempts", self.steal_attempts),
            ("steal_granted", self.steal_granted),
            ("steal_denied", self.steal_denied),
            ("early_copies_sent", self.early_copies_sent),
            ("dropped_copies", self.dropped_copies),
            (
                "retransmission_budget_used",
                self.retransmission_budget_used,
            ),
            ("preemptions", self.preemptions),
            ("frames_checked", self.frames_checked),
            ("faults_injected", self.faults_injected),
            ("faults_recovered", self.faults_recovered),
            ("health_transitions", self.health_transitions),
            ("storm_entries", self.storm_entries),
            ("service_restores", self.service_restores),
            ("soft_shed", self.soft_shed),
            ("degraded_extra_copies", self.degraded_extra_copies),
            ("failover_mirrors", self.failover_mirrors),
            ("campaign_events", self.campaign_events),
            ("campaign_blackout_faults", self.campaign_blackout_faults),
            ("campaign_extra_faults", self.campaign_extra_faults),
            ("campaign_dropout_cycles", self.campaign_dropout_cycles),
        ]
    }

    /// `true` iff every steal attempt was resolved one way or the other.
    pub fn steal_identity_holds(&self) -> bool {
        self.steal_granted + self.steal_denied == self.steal_attempts
    }
}

/// The measured results of one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Which policy produced this report.
    pub policy: PolicyRef,
    /// Scenario label.
    pub scenario: &'static str,
    /// Simulated time from start to completion (drain) or horizon.
    pub running_time: SimDuration,
    /// Channel-A bandwidth utilization: the allocated fraction of the
    /// channel timeline (occupied static slots count whole, as TDMA
    /// reserves them; dynamic transmissions count their consumed
    /// minislots).
    pub utilization_a: f64,
    /// Channel-B bandwidth utilization (same definition).
    pub utilization_b: f64,
    /// Combined utilization over both channels.
    pub utilization: f64,
    /// Wire-level busy fraction over both channels (frame bits only).
    pub wire_utilization: f64,
    /// Latency of delivered static instances.
    pub static_latency: Summary,
    /// Latency of delivered dynamic instances.
    pub dynamic_latency: Summary,
    /// Deadline accounting for static instances.
    pub static_deadlines: DeadlineTracker,
    /// Deadline accounting for dynamic instances.
    pub dynamic_deadlines: DeadlineTracker,
    /// Instances produced.
    pub produced: u64,
    /// Instances delivered (≥ 1 uncorrupted transmission).
    pub delivered: u64,
    /// Frames transmitted (both channels).
    pub frames: u64,
    /// Frames corrupted by fault injection.
    pub corrupted: u64,
    /// Dynamic messages served through stolen static slack (CoEfficient).
    pub cooperative_static_serves: u64,
    /// Early static copies sent through free slack (CoEfficient).
    pub early_copies_sent: u64,
    /// Retransmission copies transmitted.
    pub copy_transmissions: u64,
    /// Structured counters from every layer (steal decisions, fault
    /// injection/recovery, retransmission budget).
    pub counters: RunCounters,
    /// Per-channel fault-process counters (A, B) — the merged totals are
    /// `counters.frames_checked` / `counters.faults_injected`; the split
    /// view shows which channel the storm hit.
    pub channel_faults: [FaultCounters; 2],
    /// `true` if the run hit the safety cycle cap before draining.
    pub truncated: bool,
    /// High-water bytes of the scheduler's reusable scratch buffers (see
    /// [`Scheduler::scratch_bytes`]). A measurement of the implementation,
    /// not of the schedule, so — like `trace` — it is **excluded** from
    /// [`fingerprint`](Self::fingerprint).
    pub peak_scratch_bytes: u64,
    /// The captured event stream when [`RunConfig::trace`] was enabled
    /// (`None` otherwise). Deliberately **excluded** from
    /// [`fingerprint`](Self::fingerprint): traces describe a run, they
    /// are not part of its measured result.
    pub trace: Option<TraceLog>,
    /// Recovery observations when the scenario carried a scripted
    /// campaign (`None` otherwise). Excluded from
    /// [`fingerprint`](Self::fingerprint) like `trace`.
    pub chaos: Option<ChaosObservation>,
}

impl RunReport {
    /// Combined deadline miss ratio over both classes.
    pub fn miss_ratio(&self) -> f64 {
        let mut t = self.static_deadlines;
        t.merge(&self.dynamic_deadlines);
        t.miss_ratio()
    }

    /// Stable digest over every measured quantity of this run.
    ///
    /// Two runs of the same [`RunConfig`] must produce the same
    /// fingerprint — on any thread of any sweep, at any parallelism. The
    /// sweep harness's determinism regression tests and the `replay`
    /// entry point compare these digests, so the fingerprint folds in the
    /// *exact* bit patterns of every float (no rounding) and the raw
    /// counters behind every derived metric.
    pub fn fingerprint(&self) -> u64 {
        let mut d = event_sim::rng::Digest::new();
        d.push(self.policy.fingerprint_tag());
        d.push_bytes(self.scenario.as_bytes());
        d.push(self.running_time.as_nanos());
        d.push_f64(self.utilization_a);
        d.push_f64(self.utilization_b);
        d.push_f64(self.wire_utilization);
        for latency in [&self.static_latency, &self.dynamic_latency] {
            d.push(latency.count());
            d.push_u128(latency.total_nanos());
            d.push(latency.min().map_or(u64::MAX, |m| m.as_nanos()));
            d.push(latency.max().map_or(u64::MAX, |m| m.as_nanos()));
        }
        for deadlines in [&self.static_deadlines, &self.dynamic_deadlines] {
            d.push(deadlines.met());
            d.push(deadlines.missed());
        }
        d.push(self.produced);
        d.push(self.delivered);
        d.push(self.frames);
        d.push(self.corrupted);
        d.push(self.cooperative_static_serves);
        d.push(self.early_copies_sent);
        d.push(self.copy_transmissions);
        let counters = self.counters.fields().map(|(_, value)| value);
        for &value in &counters[..RunCounters::BASELINE] {
            d.push(value);
        }
        // The resilience and campaign counters joined the schema after the
        // baseline corpus was recorded. Each folds in only when it engaged,
        // tagged with its family and index so distinct fields cannot alias,
        // which keeps the digest of every run where those subsystems stayed
        // idle identical to its recorded baseline.
        let families = [
            (0x5245_5349_4c00, &counters[RunCounters::BASELINE..16]),
            (0x4348_414F_5300, &counters[16..]),
        ];
        for (tag, family) in families {
            for (i, &value) in family.iter().enumerate() {
                if value != 0 {
                    d.push(tag | i as u64);
                    d.push(value);
                }
            }
        }
        d.push(u64::from(self.truncated));
        d.finish()
    }
}

/// What happened to one scripted [`reliability::campaign::FaultEvent`]
/// during a run: when it
/// struck, when it cleared, and when — if ever — the effective bus health
/// returned to `Nominal` afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignEventOutcome {
    /// The event kind's short label (`"blackout"`, `"ber-spike"`, …).
    pub kind: &'static str,
    /// Channel(s) the event struck.
    pub target: CampaignTarget,
    /// First cycle the event was active.
    pub start_cycle: u64,
    /// First cycle after the event cleared (`None` for a permanent fault,
    /// which by definition has no recovery to await).
    pub clear_cycle: Option<u64>,
    /// First cycle at or after `clear_cycle` where the effective health
    /// was back to `Nominal` (`None` if the run ended first or the event
    /// is permanent). Recovery latency is `restored_at_cycle −
    /// clear_cycle`: zero means service was nominal again on the very
    /// first clean cycle.
    pub restored_at_cycle: Option<u64>,
}

/// Per-run recovery observations, collected only when the scenario
/// carries a [`CampaignSpec`]. Like [`RunReport::trace`] this *describes*
/// the run rather than measuring the schedule, so it is **excluded** from
/// [`RunReport::fingerprint`] — the counters it summarizes already feed
/// the digest through [`RunCounters::fields`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosObservation {
    /// One outcome per scripted event, in spec order.
    pub events: Vec<CampaignEventOutcome>,
    /// Cycles whose effective health was `Nominal`.
    pub nominal_cycles: u64,
    /// Cycles whose effective health was degraded (`Stressed`/`Storm`).
    pub degraded_cycles: u64,
    /// Effective health when the run ended.
    pub final_health: HealthState,
    /// `true` iff every [`RunCounters`] field was monotone non-decreasing
    /// across the whole run (sampled once per cycle).
    pub counters_monotone: bool,
}

impl ChaosObservation {
    /// Availability: the fraction of cycles with `Nominal` effective
    /// health.
    pub fn availability(&self) -> f64 {
        let total = self.nominal_cycles + self.degraded_cycles;
        if total == 0 {
            1.0
        } else {
            self.nominal_cycles as f64 / total as f64
        }
    }
}

/// Cycle-by-cycle recovery bookkeeping behind [`ChaosObservation`].
#[derive(Debug)]
struct ChaosTracker {
    spec: CampaignSpec,
    nominal_cycles: u64,
    degraded_cycles: u64,
    /// Index-aligned with `spec.events()`.
    restored_at: Vec<Option<u64>>,
    prev_fields: [u64; 20],
    monotone: bool,
}

impl ChaosTracker {
    fn new(spec: CampaignSpec) -> Self {
        let restored_at = vec![None; spec.events().len()];
        ChaosTracker {
            spec,
            nominal_cycles: 0,
            degraded_cycles: 0,
            restored_at,
            prev_fields: [0; 20],
            monotone: true,
        }
    }

    /// Records the health of the cycle that just completed (`cycle` is its
    /// index) and the counters sampled after it.
    fn observe(&mut self, cycle: u64, effective: HealthState, counters: &RunCounters) {
        if effective == HealthState::Nominal {
            self.nominal_cycles += 1;
        } else {
            self.degraded_cycles += 1;
        }
        let fields = counters.fields().map(|(_, v)| v);
        if fields
            .iter()
            .zip(self.prev_fields.iter())
            .any(|(now, before)| now < before)
        {
            self.monotone = false;
        }
        self.prev_fields = fields;
        for (event, restored) in self.spec.events().iter().zip(self.restored_at.iter_mut()) {
            if restored.is_none()
                && effective == HealthState::Nominal
                && event.end_cycle().is_some_and(|end| cycle >= end)
            {
                *restored = Some(cycle);
            }
        }
    }

    fn observation(&self, final_health: HealthState) -> ChaosObservation {
        let events = self
            .spec
            .events()
            .iter()
            .zip(self.restored_at.iter())
            .map(|(event, restored)| CampaignEventOutcome {
                kind: event.kind.label(),
                target: event.target,
                start_cycle: event.start_cycle,
                clear_cycle: event.end_cycle(),
                restored_at_cycle: *restored,
            })
            .collect();
        ChaosObservation {
            events,
            nominal_cycles: self.nominal_cycles,
            degraded_cycles: self.degraded_cycles,
            final_health,
            counters_monotone: self.monotone,
        }
    }
}

/// Safety cap on the cycles one run simulates: no experiment in the suite
/// needs more, and a run that reaches it reports itself
/// [`truncated`](RunReport::truncated).
pub const MAX_CYCLES: u64 = 5_000_000;

/// The class bit of a packed release key's low word: set for dynamic.
const DYNAMIC_KEY: u64 = 1 << 63;

/// One message's release cursor.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    /// Its next release.
    next: SimTime,
    /// Its release spacing.
    period: SimDuration,
    /// The low word of its batch keys: [`DYNAMIC_KEY`] for a dynamic
    /// message, then its index within its class.
    key: u64,
}

/// A run's release cursors, one per message. A cycle's releases are
/// gathered into a reused buffer of packed `(instant, class, index)` keys
/// and sorted: within a class the lowest index wins a tie, and a static
/// release wins at an equal instant.
///
/// The cursors are gathered in a fixed order, by in-cycle phase (first
/// release modulo the cycle), then class, then index. A message whose
/// period is a multiple of the cycle releases at the same phase every
/// cycle, so a batch of such messages arrives sorted and the sort only
/// confirms it. Shorter or incommensurate periods break the order, and
/// the sort restores it: it is the one rule the order rests on.
#[derive(Debug)]
struct Releases {
    /// In gather order.
    cursors: Vec<Cursor>,
    /// The releases of the cycle being produced: the instant's nanoseconds
    /// in the high word, the cursor's key in the low word.
    batch: Vec<u128>,
}

impl Releases {
    /// Cursors from each message's `(first release, spacing)`, per class,
    /// with the batch sized for the most releases one cycle of `cycle`
    /// can hold.
    fn new(
        statics: Vec<(SimTime, SimDuration)>,
        dynamics: Vec<(SimTime, SimDuration)>,
        cycle: SimDuration,
    ) -> Self {
        let per_cycle: usize = statics
            .iter()
            .chain(&dynamics)
            .map(|&(_, period)| cycle.as_nanos().div_ceil(period.as_nanos().max(1)) as usize + 1)
            .sum();
        // The gather order as packed `(phase, class, index)` keys, so the
        // sort compares integers and takes each phase's division once.
        let phase_key = |class: u64| {
            move |(i, &(next, _)): (usize, &(SimTime, SimDuration))| {
                u128::from(next.as_nanos() % cycle.as_nanos()) << 64 | u128::from(class | i as u64)
            }
        };
        let mut order: Vec<u128> = (statics.iter().enumerate().map(phase_key(0)))
            .chain(dynamics.iter().enumerate().map(phase_key(DYNAMIC_KEY)))
            .collect();
        order.sort_unstable();
        let cursors = order
            .into_iter()
            .map(|phase_key| {
                let key = phase_key as u64;
                let class = if key & DYNAMIC_KEY == 0 {
                    &statics
                } else {
                    &dynamics
                };
                let (next, period) = class[(key & !DYNAMIC_KEY) as usize];
                Cursor { next, period, key }
            })
            .collect();
        Releases {
            cursors,
            batch: Vec::with_capacity(per_cycle),
        }
    }

    /// Gathers and sorts every release before `limit` into the batch,
    /// moving each cursor past it. Returns whether a release remains
    /// before `cycle_end`, which only a `limit` before it can leave.
    fn gather(&mut self, limit: SimTime, cycle_end: SimTime) -> bool {
        self.batch.clear();
        for cursor in &mut self.cursors {
            while cursor.next < limit {
                self.batch
                    .push(u128::from(cursor.next.as_nanos()) << 64 | u128::from(cursor.key));
                cursor.next += cursor.period;
            }
        }
        self.batch.sort_unstable();
        limit < cycle_end && self.cursors.iter().any(|c| c.next < cycle_end)
    }
}

/// The production side of a run: releases in time order, cut off by the
/// stop condition's horizon or instance target.
#[derive(Debug)]
struct Production {
    releases: Releases,
    /// [`StopCondition::ProducedInstances`]' target.
    target: Option<u64>,
    /// [`StopCondition::Horizon`]'s end: releases at or after it are not
    /// produced.
    horizon: Option<SimTime>,
    produced: u64,
    /// No release will be produced any more.
    done: bool,
    /// The latest release produced.
    last: SimTime,
}

impl Production {
    fn new(releases: Releases, stop: StopCondition) -> Self {
        let done = releases.cursors.is_empty();
        Production {
            releases,
            target: match stop {
                StopCondition::ProducedInstances(n) => Some(n),
                StopCondition::Horizon(_) | StopCondition::DeliveredInstances(_) => None,
            },
            horizon: match stop {
                StopCondition::Horizon(h) => Some(SimTime::ZERO + h),
                StopCondition::ProducedInstances(_) | StopCondition::DeliveredInstances(_) => None,
            },
            produced: 0,
            done,
            last: SimTime::ZERO,
        }
    }

    /// Hands every release before `cycle_end` to `produce`, in time order,
    /// as `(class, message index, instant)`.
    fn produce_until(
        &mut self,
        cycle_end: SimTime,
        mut produce: impl FnMut(MessageClass, usize, SimTime),
    ) {
        if self.done {
            return;
        }
        let limit = self.horizon.map_or(cycle_end, |h| h.min(cycle_end));
        // What remains before the cycle's end lies at or after the horizon.
        let horizon_reached = self.releases.gather(limit, cycle_end);
        for &key in &self.releases.batch {
            let release = SimTime::from_nanos((key >> 64) as u64);
            let low = key as u64;
            let class = if low & DYNAMIC_KEY == 0 {
                MessageClass::Static
            } else {
                MessageClass::Dynamic
            };
            produce(class, (low & !DYNAMIC_KEY) as usize, release);
            self.produced += 1;
            self.last = release;
            if self.target.is_some_and(|n| self.produced >= n) {
                self.done = true;
                return;
            }
        }
        self.done = horizon_reached;
    }
}

/// Drives one policy over one workload. See the crate-level example.
#[derive(Debug)]
pub struct Runner {
    cfg: RunConfig,
    scheduler: Scheduler,
    engine: BusEngine,
    /// Arrival phase per dynamic message (index-aligned).
    dynamic_phases: Vec<SimDuration>,
    /// Bus-wide reliability monitor over the merged fault counters; the
    /// engine holds the per-channel monitors.
    monitor: ReliabilityMonitor,
    /// Worst of (overall, channel A, channel B) health at the last cycle.
    effective_health: HealthState,
    health_transitions: u64,
    storm_entries: u64,
    service_restores: u64,
    /// The run's trace, drained into [`RunReport::trace`] by
    /// [`report`](Self::report).
    tracer: Tracer,
    /// Recovery bookkeeping, present iff the scenario carries a campaign
    /// — campaign-free runs pay nothing on the cycle path.
    chaos: Option<ChaosTracker>,
}

impl Runner {
    /// Builds the scheduler and fault-injecting engine for `cfg` with
    /// default [`CoefficientOptions`].
    ///
    /// # Errors
    /// Propagates [`SchedulerError`] from scheduler construction.
    pub fn new(cfg: RunConfig) -> Result<Self, SchedulerError> {
        Self::new_with_options(cfg, CoefficientOptions::default())
    }

    /// Like [`Runner::new`] with explicit CoEfficient feature switches
    /// (used by the ablation experiments).
    ///
    /// # Errors
    /// Propagates [`SchedulerError`] from scheduler construction.
    pub fn new_with_options(
        cfg: RunConfig,
        options: CoefficientOptions,
    ) -> Result<Self, SchedulerError> {
        let coding = FrameCoding;
        let tracer = match cfg.trace.mode {
            TraceMode::Off => Tracer::disabled(),
            TraceMode::Ring { capacity } => Tracer::ring(capacity),
        };
        let mut scheduler = Scheduler::new_with_options(
            cfg.policy,
            cfg.cluster.clone(),
            coding,
            &cfg.scenario,
            &cfg.static_messages,
            &cfg.dynamic_messages,
            options,
        )?;
        scheduler.set_tracer(tracer.clone());
        let fault = |channel_index: usize, seed: u64| -> Box<dyn FaultProcess> {
            let base: Box<dyn FaultProcess> = match cfg.scenario.fault_model {
                FaultModel::Bernoulli => Box::new(BernoulliFaults::new(cfg.scenario.ber, seed)),
                FaultModel::GilbertElliott {
                    bad_factor,
                    p_gb,
                    p_bg,
                } => {
                    let bad = Ber::new((cfg.scenario.ber.rate() * bad_factor).min(0.999))
                        .expect("scaled BER in range");
                    Box::new(GilbertElliott::new(cfg.scenario.ber, bad, p_gb, p_bg, seed))
                }
            };
            // The decorator draws from its own `fault/campaign` substream
            // of the same per-channel seed, so the base stream is exactly
            // the stream a campaign-free run would consume.
            match &cfg.scenario.campaign {
                Some(spec) => Box::new(CampaignFaults::new(base, spec, channel_index, seed)),
                None => base,
            }
        };
        // Thresholds sit a safe factor above the frame-failure rate the
        // offline plan assumed (a representative 1000-bit frame at the
        // scenario's good-state BER), so nominal runs never trip the
        // monitor while a Gilbert–Elliott bad state does within windows.
        let monitor_cfg = MonitorConfig::for_expected_fault_rate(
            cfg.scenario.ber.frame_failure_probability(1000),
        );
        let mut engine = BusEngine::new(cfg.cluster.clone())
            .with_coding(coding)
            .with_faults(fault(0, cfg.seed ^ 0xA), fault(1, cfg.seed ^ 0xB))
            .with_health_monitoring(monitor_cfg);
        engine.set_tracer(tracer.clone());
        let mut monitor = ReliabilityMonitor::new(monitor_cfg);
        monitor.set_tracer(tracer.clone(), 2);
        let mut rng = substream(cfg.seed, "runner/dynamic-phases");
        let dynamic_phases: Vec<SimDuration> = cfg
            .dynamic_messages
            .iter()
            .map(|d| {
                let span = d.min_interarrival.as_nanos();
                SimDuration::from_nanos(rng.gen_range(0..span))
            })
            .collect();
        // Size the instance store for the whole run up front so the
        // steady-state production path never grows it (the counting-
        // allocator test pins this for the cycle loop proper), but never
        // for more than the releases before the cycle cap.
        let releases_within = |span: SimDuration| -> u64 {
            let periods = cfg.static_messages.iter().map(|s| s.period);
            let periods = periods.chain(cfg.dynamic_messages.iter().map(|d| d.min_interarrival));
            periods
                .map(|period| span.as_nanos() / period.as_nanos() + 1)
                .fold(0, u64::saturating_add)
        };
        let reach = cfg
            .cluster
            .cycle_duration()
            .checked_mul(MAX_CYCLES)
            .unwrap_or(SimDuration::MAX);
        let expected_instances = match cfg.stop {
            StopCondition::Horizon(h) => releases_within(h.min(reach)),
            StopCondition::ProducedInstances(n) => n
                .saturating_add((cfg.static_messages.len() + cfg.dynamic_messages.len()) as u64)
                .min(releases_within(reach)),
            // Open-ended: delivery-gated runs produce until enough arrive;
            // twice the target is a generous steady-state estimate.
            StopCondition::DeliveredInstances(n) => n.saturating_mul(2).min(releases_within(reach)),
        };
        scheduler.reserve_instances(usize::try_from(expected_instances).unwrap_or(usize::MAX));
        let chaos = cfg.scenario.campaign.clone().map(ChaosTracker::new);
        Ok(Runner {
            cfg,
            scheduler,
            engine,
            dynamic_phases,
            monitor,
            effective_health: HealthState::Nominal,
            health_transitions: 0,
            storm_entries: 0,
            service_restores: 0,
            tracer,
            chaos,
        })
    }

    /// Read-only access to the scheduler (allocation, tracker).
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// Runs to completion and reports.
    pub fn run(mut self) -> RunReport {
        let truncated = self.run_cycles();
        self.report(truncated)
    }

    /// Runs to completion and reports, additionally returning the life
    /// record of every message instance (production, deadline, first
    /// uncorrupted delivery). End-to-end pipelines — e.g. a backbone
    /// gateway forwarding FlexRay frames onto a TT-Ethernet link — need
    /// the per-instance delivery instants, which the aggregated
    /// [`RunReport`] deliberately summarizes away. The schedule itself is
    /// byte-identical to [`run`](Self::run)'s: the instance records are a
    /// read-out, not a mode.
    pub fn run_with_instances(mut self) -> (RunReport, Vec<InstanceStatus>) {
        let truncated = self.run_cycles();
        let instances = self.scheduler.tracker().instances().to_vec();
        (self.report(truncated), instances)
    }

    /// The cycle loop: produces each cycle's releases, runs the bus and
    /// the health monitors, until the stop condition holds. Returns
    /// whether the run hit [`MAX_CYCLES`] first.
    fn run_cycles(&mut self) -> bool {
        self.run_cycles_with(|engine, cycle, scheduler| engine.run_cycle(cycle, scheduler))
    }

    /// [`run_cycles`](Self::run_cycles), with `run_cycle` running each bus
    /// cycle over the scheduler.
    fn run_cycles_with(
        &mut self,
        mut run_cycle: impl FnMut(&mut BusEngine, u64, &mut Scheduler),
    ) -> bool {
        let cycle_dur = self.cfg.cluster.cycle_duration();
        let releases = Releases::new(
            self.cfg
                .static_messages
                .iter()
                .map(|s| (SimTime::ZERO + s.offset, s.period))
                .collect(),
            self.cfg
                .dynamic_messages
                .iter()
                .zip(&self.dynamic_phases)
                .map(|(d, phase)| (SimTime::ZERO + *phase, d.min_interarrival))
                .collect(),
            cycle_dur,
        );
        let mut production = Production::new(releases, self.cfg.stop);
        let max_static_period = self
            .cfg
            .static_messages
            .iter()
            .map(|s| s.period)
            .max()
            .unwrap_or(SimDuration::ZERO);

        let mut cycle: u64 = 0;

        loop {
            let cycle_start = self.cfg.cluster.cycle_start(cycle);
            let cycle_end = cycle_start + cycle_dur;
            self.scheduler.purge_expired(cycle_start);

            // Produce every release falling in this cycle, in time order
            // across messages.
            let scheduler = &mut self.scheduler;
            production.produce_until(cycle_end, |class, i, t| match class {
                MessageClass::Static => {
                    scheduler.produce_static_at(i, cycle, t);
                }
                MessageClass::Dynamic => {
                    scheduler.produce_dynamic_at(i, t);
                }
            });

            run_cycle(&mut self.engine, cycle, &mut self.scheduler);
            cycle += 1;
            self.observe_health();
            if self.chaos.is_some() {
                let counters = self.collect_counters();
                let effective = self.effective_health;
                if let Some(tracker) = self.chaos.as_mut() {
                    tracker.observe(cycle - 1, effective, &counters);
                }
            }
            let elapsed = self.engine.elapsed();
            let every = self.cfg.trace.counter_sample_every;
            if every != 0 && cycle.is_multiple_of(every) {
                self.tracer.emit(elapsed, || EventKind::CounterSample {
                    cycle,
                    values: self
                        .collect_counters()
                        .fields()
                        .iter()
                        .map(|&(_, v)| v)
                        .collect(),
                });
            }

            // Stop checks.
            match self.cfg.stop {
                StopCondition::Horizon(h) => {
                    if elapsed >= SimTime::ZERO + h {
                        break;
                    }
                }
                StopCondition::ProducedInstances(_) => {
                    let windows_closed =
                        elapsed >= production.last.saturating_add(max_static_period);
                    if production.done && windows_closed && self.scheduler.pending_work() == 0 {
                        break;
                    }
                }
                StopCondition::DeliveredInstances(n) => {
                    if self.scheduler.tracker().delivered_in_time() >= n {
                        break;
                    }
                }
            }
            if cycle >= MAX_CYCLES {
                return true;
            }
        }
        false
    }

    /// Feeds the bus-wide monitor the merged fault counters, combines it
    /// with the engine's per-channel health into the *effective* health
    /// (the worst of the three — a single-channel storm must degrade
    /// service even when the merged rate is diluted by the healthy
    /// channel), counts transitions, and pushes the result into the
    /// scheduler for the next cycle's degraded-mode decisions.
    fn observe_health(&mut self) {
        let merged = self
            .engine
            .fault_counters(ChannelId::A)
            .merged(self.engine.fault_counters(ChannelId::B));
        let now = self.engine.elapsed();
        self.monitor.set_trace_clock(now);
        let overall = self.monitor.observe(merged);
        let channels = [
            self.engine.channel_health(ChannelId::A),
            self.engine.channel_health(ChannelId::B),
        ];
        let effective = overall.max(channels[0]).max(channels[1]);
        if effective != self.effective_health {
            self.health_transitions += 1;
            self.tracer.emit(now, || EventKind::HealthTransition {
                scope: 3,
                from: self.effective_health.as_u8(),
                to: effective.as_u8(),
            });
            if effective == HealthState::Storm {
                self.storm_entries += 1;
            }
            if effective == HealthState::Nominal {
                self.service_restores += 1;
            }
            self.effective_health = effective;
        }
        self.scheduler.set_health(effective, channels);
    }

    /// Aggregates the run counters from every layer (scheduler steal
    /// decisions, fault injection/recovery, health transitions). Shared by
    /// the final [`report`](Self::report) and the periodic
    /// [`EventKind::CounterSample`] emission.
    fn collect_counters(&self) -> RunCounters {
        let tracker = self.scheduler.tracker();
        let sched = self.scheduler.schedule_counters();
        let faults = self
            .engine
            .fault_counters(ChannelId::A)
            .merged(self.engine.fault_counters(ChannelId::B));
        let campaign = [ChannelId::A, ChannelId::B]
            .into_iter()
            .filter_map(|ch| self.engine.campaign_counters(ch))
            .fold(CampaignCounters::default(), CampaignCounters::merged);
        RunCounters {
            steal_attempts: sched.steal_attempts,
            steal_granted: sched.steal_granted,
            steal_denied: sched.steal_denied,
            early_copies_sent: sched.early_copies,
            dropped_copies: self.scheduler.dropped_copies(),
            retransmission_budget_used: self.scheduler.copy_transmissions(),
            preemptions: sched.preemptions,
            frames_checked: faults.frames_checked,
            faults_injected: faults.faults_injected,
            faults_recovered: tracker.faults_recovered(),
            health_transitions: self.health_transitions,
            storm_entries: self.storm_entries,
            service_restores: self.service_restores,
            soft_shed: sched.degraded_sheds,
            degraded_extra_copies: self.scheduler.degraded_extra_copies(),
            failover_mirrors: self.scheduler.failover_mirrors(),
            campaign_events: campaign.events_started,
            campaign_blackout_faults: campaign.blackout_faults,
            campaign_extra_faults: campaign.extra_faults,
            campaign_dropout_cycles: campaign.dropout_cycles,
        }
    }

    fn report(self, truncated: bool) -> RunReport {
        let elapsed = self.engine.elapsed();
        let counters = self.collect_counters();
        let trace = self.tracer.take_log();
        let a = self.engine.stats(ChannelId::A);
        let b = self.engine.stats(ChannelId::B);
        let tracker = self.scheduler.tracker();
        let log = tracker.summary();
        let [static_latency, dynamic_latency] = log.latency;
        let [static_deadlines, dynamic_deadlines] = log.deadlines;
        let utilization_a = a.occupied_utilization(elapsed);
        let utilization_b = b.occupied_utilization(elapsed);
        let wire_utilization = (a.utilization(elapsed) + b.utilization(elapsed)) / 2.0;
        RunReport {
            policy: self.scheduler.policy(),
            scenario: self.cfg.scenario.name,
            running_time: elapsed - SimTime::ZERO,
            utilization_a,
            utilization_b,
            utilization: (utilization_a + utilization_b) / 2.0,
            wire_utilization,
            static_latency,
            dynamic_latency,
            static_deadlines,
            dynamic_deadlines,
            produced: tracker.produced() as u64,
            delivered: log.delivered as u64,
            frames: a.frames + b.frames,
            corrupted: a.corrupted + b.corrupted,
            cooperative_static_serves: self.scheduler.cooperative_static_serves(),
            early_copies_sent: self.scheduler.early_copies_sent(),
            copy_transmissions: self.scheduler.copy_transmissions(),
            counters,
            channel_faults: [
                self.engine.fault_counters(ChannelId::A),
                self.engine.fault_counters(ChannelId::B),
            ],
            truncated,
            peak_scratch_bytes: self.scheduler.scratch_bytes(),
            trace,
            chaos: self
                .chaos
                .as_ref()
                .map(|t| t.observation(self.effective_health)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{ALL, COEFFICIENT, FSPEC, HOSA};
    use flexray::bus::{ChannelStats, OutboundPayload, TrafficSource, TransmissionOutcome};

    fn base_config(policy: PolicyRef, stop: StopCondition) -> RunConfig {
        RunConfig {
            cluster: ClusterConfig::paper_dynamic(50),
            scenario: Scenario::ber7(),
            static_messages: workloads::bbw::message_set(),
            dynamic_messages: workloads::sae::message_set(
                workloads::sae::IdRange::StartingAt(20),
                1,
            ),
            policy,
            stop,
            seed: 42,
            trace: TraceConfig::off(),
        }
    }

    #[test]
    fn coefficient_run_delivers_and_drains() {
        let report = Runner::new(base_config(
            COEFFICIENT,
            StopCondition::ProducedInstances(300),
        ))
        .unwrap()
        .run();
        assert!(!report.truncated);
        assert_eq!(report.produced, 300);
        assert!(report.delivered as f64 >= 0.95 * report.produced as f64);
        assert!(report.running_time > SimDuration::ZERO);
        assert!(report.frames > 0);
    }

    #[test]
    fn fspec_run_completes_too() {
        let report = Runner::new(base_config(FSPEC, StopCondition::ProducedInstances(300)))
            .unwrap()
            .run();
        assert!(!report.truncated);
        assert_eq!(report.produced, 300);
        assert!(report.delivered > 0);
    }

    #[test]
    fn coefficient_beats_fspec_on_running_time() {
        let co = Runner::new(base_config(
            COEFFICIENT,
            StopCondition::ProducedInstances(500),
        ))
        .unwrap()
        .run();
        let fs = Runner::new(base_config(FSPEC, StopCondition::ProducedInstances(500)))
            .unwrap()
            .run();
        assert!(
            co.running_time < fs.running_time,
            "CoEfficient {:?} !< FSPEC {:?}",
            co.running_time,
            fs.running_time
        );
    }

    #[test]
    fn coefficient_utilizes_more_bandwidth() {
        let horizon = StopCondition::Horizon(SimDuration::from_millis(500));
        let co = Runner::new(base_config(COEFFICIENT, horizon))
            .unwrap()
            .run();
        let fs = Runner::new(base_config(FSPEC, horizon)).unwrap().run();
        assert!(
            co.utilization > fs.utilization,
            "CoEfficient {} !> FSPEC {}",
            co.utilization,
            fs.utilization
        );
    }

    #[test]
    fn coefficient_outperforms_fspec_under_pressure() {
        // With a tight 25-minislot dynamic segment, FSPEC's copies crowd
        // the FTDMA arbitration; CoEfficient offloads to static slack.
        //
        // Mean dynamic latency is deliberately NOT compared here: FSPEC
        // fails to deliver dozens of messages that CoEfficient delivers
        // (late ones included), so its latency average survives on the
        // easy subset and the strict `<` flips with the seed. Deliveries
        // and deadline misses are the seed-robust superiority claims.
        let mk = |policy| {
            let mut cfg = base_config(
                policy,
                StopCondition::Horizon(SimDuration::from_millis(500)),
            );
            cfg.cluster = ClusterConfig::paper_dynamic(25);
            Runner::new(cfg).unwrap().run()
        };
        let co = mk(COEFFICIENT);
        let fs = mk(FSPEC);
        assert!(
            co.delivered > fs.delivered,
            "CoEfficient delivered {} !> FSPEC {}",
            co.delivered,
            fs.delivered
        );
        assert!(
            co.miss_ratio() < fs.miss_ratio(),
            "CoEfficient miss {} !< FSPEC {}",
            co.miss_ratio(),
            fs.miss_ratio()
        );
    }

    #[test]
    fn horizon_stop_is_exact() {
        let report = Runner::new(base_config(
            COEFFICIENT,
            StopCondition::Horizon(SimDuration::from_millis(100)),
        ))
        .unwrap()
        .run();
        assert_eq!(report.running_time, SimDuration::from_millis(100));
    }

    #[test]
    fn counters_are_sampled_on_multiples_of_the_period_only() {
        let sampled_cycles = |every: u64| -> Vec<u64> {
            let mut cfg = base_config(
                COEFFICIENT,
                StopCondition::Horizon(SimDuration::from_millis(45)),
            );
            cfg.trace = TraceConfig::ring(1 << 16).sample_every(every);
            let log = Runner::new(cfg).unwrap().run().trace.expect("traced run");
            assert_eq!(log.dropped, 0);
            log.events
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::CounterSample { cycle, .. } => Some(cycle),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(
            sampled_cycles(0),
            Vec::<u64>::new(),
            "period 0 never samples"
        );
        // 45 cycles of 1 ms: samples after cycles 10, 20, 30 and 40.
        assert_eq!(sampled_cycles(10), vec![10, 20, 30, 40]);
        assert_eq!(sampled_cycles(1), (1..=45).collect::<Vec<_>>());
    }

    #[test]
    fn the_instance_store_is_sized_for_no_more_than_the_cycle_cap() {
        // One 64 ms message on the 1 ms cycle releases 78,126 instances
        // within the cap. Unbounded stop conditions used to size the store
        // for the whole nominal run: `Horizon(MAX)` asked for exabytes and
        // `ProducedInstances(u64::MAX)` overflowed.
        let period = SimDuration::from_millis(64);
        for stop in [
            StopCondition::Horizon(SimDuration::MAX),
            StopCondition::ProducedInstances(u64::MAX),
            StopCondition::DeliveredInstances(u64::MAX),
        ] {
            let mut cfg = base_config(COEFFICIENT, stop);
            cfg.static_messages = vec![Signal::new(1, period, SimDuration::ZERO, period, 64)];
            cfg.dynamic_messages.clear();
            let runner = Runner::new(cfg).unwrap();
            assert_eq!(runner.scheduler.tracker().capacity(), 78_126, "{stop:?}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let mk = || {
            Runner::new(base_config(
                COEFFICIENT,
                StopCondition::ProducedInstances(200),
            ))
            .unwrap()
            .run()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.running_time, b.running_time);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.frames, b.frames);
        assert_eq!(a.corrupted, b.corrupted);
    }

    #[test]
    fn fault_free_scenario_delivers_everything() {
        let mut cfg = base_config(COEFFICIENT, StopCondition::ProducedInstances(200));
        cfg.scenario = Scenario::fault_free();
        let report = Runner::new(cfg).unwrap().run();
        assert_eq!(report.corrupted, 0);
        assert_eq!(report.delivered, report.produced);
    }

    #[test]
    fn hosa_sits_between_the_extremes() {
        let horizon = StopCondition::Horizon(SimDuration::from_millis(500));
        let co = Runner::new(base_config(COEFFICIENT, horizon))
            .unwrap()
            .run();
        let ho = Runner::new(base_config(HOSA, horizon)).unwrap().run();
        assert!(ho.delivered > 0);
        assert!(ho.cooperative_static_serves == 0);
        // HOSA's blanket mirror gives it decent delivery but it cannot
        // exceed CoEfficient's slack-assisted delivery.
        assert!(ho.delivered <= co.delivered);
    }

    #[test]
    fn static_only_workload_runs() {
        let mut cfg = base_config(
            COEFFICIENT,
            StopCondition::Horizon(SimDuration::from_millis(100)),
        );
        cfg.dynamic_messages.clear();
        let report = Runner::new(cfg).unwrap().run();
        assert!(report.delivered > 0);
        assert_eq!(report.dynamic_latency.count(), 0);
    }

    #[test]
    fn dynamic_only_workload_runs() {
        let mut cfg = base_config(
            COEFFICIENT,
            StopCondition::Horizon(SimDuration::from_millis(200)),
        );
        cfg.static_messages.clear();
        let report = Runner::new(cfg).unwrap().run();
        assert!(report.delivered > 0);
        assert_eq!(report.static_latency.count(), 0);
    }

    #[test]
    fn bursty_scenario_still_meets_goals() {
        let mut cfg = base_config(
            COEFFICIENT,
            StopCondition::Horizon(SimDuration::from_millis(300)),
        );
        cfg.scenario = Scenario::ber7().bursty();
        let report = Runner::new(cfg).unwrap().run();
        assert!(report.delivered > 0);
        // Burstiness changes the fault pattern, not feasibility.
        assert!(report.delivered * 10 >= report.produced * 9);
    }

    #[test]
    fn run_counters_are_consistent_with_legacy_fields() {
        let report = Runner::new(base_config(
            COEFFICIENT,
            StopCondition::Horizon(SimDuration::from_millis(200)),
        ))
        .unwrap()
        .run();
        let c = report.counters;
        assert!(c.steal_identity_holds(), "{c:?}");
        assert_eq!(c.steal_granted, report.cooperative_static_serves);
        assert_eq!(c.early_copies_sent, report.early_copies_sent);
        assert_eq!(c.retransmission_budget_used, report.copy_transmissions);
        assert_eq!(
            c.faults_injected, report.corrupted,
            "fault-process injections must equal bus-observed corruptions"
        );
        assert!(c.frames_checked >= report.frames);
        assert_eq!(c.preemptions, 0, "FlexRay slots are non-preemptive");
        assert!(
            c.faults_recovered <= c.faults_injected,
            "cannot recover more instances than frames corrupted"
        );
    }

    #[test]
    fn counters_feed_the_fingerprint() {
        let report = Runner::new(base_config(
            COEFFICIENT,
            StopCondition::Horizon(SimDuration::from_millis(100)),
        ))
        .unwrap()
        .run();
        let base = report.fingerprint();
        let mut perturbed = report.clone();
        perturbed.counters.faults_recovered += 1;
        assert_ne!(
            base,
            perturbed.fingerprint(),
            "a counter change must move the fingerprint"
        );
    }

    #[test]
    fn counter_fields_list_every_counter_once() {
        // A struct literal must name every field, so a counter added to
        // the struct but not to `fields()` leaves one value unlisted.
        let counters = RunCounters {
            steal_attempts: 1,
            steal_granted: 2,
            steal_denied: 3,
            early_copies_sent: 4,
            dropped_copies: 5,
            retransmission_budget_used: 6,
            preemptions: 7,
            frames_checked: 8,
            faults_injected: 9,
            faults_recovered: 10,
            health_transitions: 11,
            storm_entries: 12,
            service_restores: 13,
            soft_shed: 14,
            degraded_extra_copies: 15,
            failover_mirrors: 16,
            campaign_events: 17,
            campaign_blackout_faults: 18,
            campaign_extra_faults: 19,
            campaign_dropout_cycles: 20,
        };
        let fields = counters.fields();
        let mut values: Vec<u64> = fields.iter().map(|&(_, v)| v).collect();
        values.sort_unstable();
        assert_eq!(values, (1..=20).collect::<Vec<u64>>());
        let names: std::collections::BTreeSet<_> = fields.iter().map(|&(n, _)| n).collect();
        assert_eq!(names.len(), 20, "{fields:?}");
    }

    /// A base config plus a 50-cycle channel-A blackout opening at cycle
    /// 40, with a horizon long enough to watch the recovery.
    fn blackout_config(policy: PolicyRef) -> RunConfig {
        let campaign = CampaignSpec::new().blackout(CampaignTarget::A, 40, 50);
        let horizon = ClusterConfig::paper_dynamic(50).cycle_duration() * 220;
        let mut cfg = base_config(policy, StopCondition::Horizon(horizon));
        cfg.scenario = Scenario::ber7().with_campaign("BER-7-blackout", campaign);
        cfg
    }

    #[test]
    fn campaign_free_run_reports_no_chaos() {
        let report = Runner::new(base_config(
            COEFFICIENT,
            StopCondition::Horizon(SimDuration::from_millis(100)),
        ))
        .unwrap()
        .run();
        assert!(report.chaos.is_none());
        assert!(report.counters.fields()[16..].iter().all(|&(_, v)| v == 0));
    }

    #[test]
    fn blackout_campaign_disturbs_and_recovers() {
        let report = Runner::new(blackout_config(COEFFICIENT)).unwrap().run();
        let c = report.counters;
        assert_eq!(c.campaign_events, 1);
        assert!(c.campaign_blackout_faults > 0, "{c:?}");
        assert_eq!(
            c.faults_injected, report.corrupted,
            "the blackout's corruptions must be bus-observed like any other"
        );
        let chaos = report.chaos.expect("campaign scenario collects chaos");
        assert_eq!(chaos.events.len(), 1);
        let event = chaos.events[0];
        assert_eq!(event.kind, "blackout");
        assert_eq!(event.clear_cycle, Some(90));
        let restored = event
            .restored_at_cycle
            .expect("service must restore after the blackout clears");
        assert!(restored >= 90);
        assert_eq!(chaos.final_health, HealthState::Nominal);
        assert!(chaos.counters_monotone);
        assert!(
            chaos.degraded_cycles > 0,
            "the blackout must degrade health"
        );
        assert!(
            c.service_restores >= 1,
            "recovery must fire a service restore: {c:?}"
        );
    }

    #[test]
    fn campaign_counters_feed_the_fingerprint_but_chaos_does_not() {
        let report = Runner::new(blackout_config(COEFFICIENT)).unwrap().run();
        let base = report.fingerprint();
        let mut counter_bump = report.clone();
        counter_bump.counters.campaign_extra_faults += 1;
        assert_ne!(base, counter_bump.fingerprint());
        let mut chaos_stripped = report.clone();
        chaos_stripped.chaos = None;
        assert_eq!(
            base,
            chaos_stripped.fingerprint(),
            "chaos observations describe the run; they are not measurements"
        );
    }

    #[test]
    fn campaign_runs_are_deterministic() {
        let a = Runner::new(blackout_config(COEFFICIENT)).unwrap().run();
        let b = Runner::new(blackout_config(COEFFICIENT)).unwrap().run();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.chaos, b.chaos);
    }

    #[test]
    fn run_reports_what_run_with_instances_reports() {
        let mut bursty = base_config(
            COEFFICIENT,
            StopCondition::Horizon(SimDuration::from_millis(200)),
        );
        bursty.scenario = Scenario::ber7().bursty();
        for cfg in [
            base_config(COEFFICIENT, StopCondition::ProducedInstances(300)),
            bursty,
            blackout_config(COEFFICIENT),
        ] {
            let name = cfg.scenario.name;
            let plain = Runner::new(cfg.clone()).unwrap().run();
            let (logged, instances) = Runner::new(cfg).unwrap().run_with_instances();
            assert_eq!(plain.fingerprint(), logged.fingerprint(), "{name}");
            assert_eq!(plain.counters, logged.counters, "{name}");
            assert_eq!(plain.chaos, logged.chaos, "{name}");
            assert_eq!(instances.len() as u64, plain.produced, "{name}");
        }
    }

    #[test]
    fn miss_ratio_combines_classes() {
        let report = Runner::new(base_config(
            COEFFICIENT,
            StopCondition::Horizon(SimDuration::from_millis(200)),
        ))
        .unwrap()
        .run();
        let r = report.miss_ratio();
        assert!((0.0..=1.0).contains(&r));
    }

    /// The scheduler behind only the required [`TrafficSource`] methods,
    /// so the engine offers it every static slot and dynamic slot counter;
    /// `offers` counts the static and dynamic frames asked of it, and
    /// `outcomes` records every outcome handed to the scheduler.
    struct EveryPosition<'a> {
        scheduler: &'a mut Scheduler,
        offers: [u64; 2],
        outcomes: &'a mut Vec<TransmissionOutcome>,
    }

    impl TrafficSource for EveryPosition<'_> {
        fn static_frame(
            &mut self,
            cycle: u64,
            cycle_counter: u8,
            slot: u16,
            channel: ChannelId,
        ) -> Option<OutboundPayload> {
            self.offers[0] += 1;
            self.scheduler
                .static_frame(cycle, cycle_counter, slot, channel)
        }

        fn dynamic_frame(
            &mut self,
            cycle: u64,
            channel: ChannelId,
            slot_counter: u64,
            max_payload_bytes: u16,
        ) -> Option<OutboundPayload> {
            self.offers[1] += 1;
            self.scheduler
                .dynamic_frame(cycle, channel, slot_counter, max_payload_bytes)
        }

        fn on_outcome(&mut self, outcome: &TransmissionOutcome) {
            self.scheduler.on_outcome(outcome);
            self.outcomes.push(outcome.clone());
        }
    }

    /// [`EveryPosition`] plus the scheduler's skip hooks: the engine offers
    /// only the positions the scheduler names.
    struct Skipping<'a>(EveryPosition<'a>);

    impl TrafficSource for Skipping<'_> {
        fn static_frame(
            &mut self,
            cycle: u64,
            cycle_counter: u8,
            slot: u16,
            channel: ChannelId,
        ) -> Option<OutboundPayload> {
            self.0.static_frame(cycle, cycle_counter, slot, channel)
        }

        fn dynamic_frame(
            &mut self,
            cycle: u64,
            channel: ChannelId,
            slot_counter: u64,
            max_payload_bytes: u16,
        ) -> Option<OutboundPayload> {
            self.0
                .dynamic_frame(cycle, channel, slot_counter, max_payload_bytes)
        }

        fn on_outcome(&mut self, outcome: &TransmissionOutcome) {
            self.0.on_outcome(outcome);
        }

        fn offer_static(
            &mut self,
            cycle: u64,
            cycle_counter: u8,
            slot: u16,
            channel: ChannelId,
        ) -> (Option<OutboundPayload>, u16) {
            self.0.offers[0] += 1;
            self.0
                .scheduler
                .offer_static(cycle, cycle_counter, slot, channel)
        }

        fn next_dynamic_slot(&mut self, cycle: u64, channel: ChannelId, from: u64) -> u64 {
            self.0.scheduler.next_dynamic_slot(cycle, channel, from)
        }
    }

    /// Everything a run leaves that skipping positions must not change.
    #[derive(Debug, PartialEq)]
    struct Observed {
        outcomes: Vec<TransmissionOutcome>,
        stats: [ChannelStats; 2],
        counters: RunCounters,
        fingerprint: u64,
    }

    /// Runs `cfg` with the engine offering every position or only the
    /// ones the scheduler's hooks name; returns what the run left and the
    /// static and dynamic offers made.
    fn observe(
        cfg: &RunConfig,
        options: CoefficientOptions,
        every_position: bool,
    ) -> (Observed, [u64; 2]) {
        let mut runner = Runner::new_with_options(cfg.clone(), options).unwrap();
        let (mut offers, mut outcomes) = ([0; 2], Vec::new());
        let truncated = runner.run_cycles_with(|engine, cycle, scheduler| {
            let every = EveryPosition {
                scheduler,
                offers: [0; 2],
                outcomes: &mut outcomes,
            };
            let counted = if every_position {
                let mut source = every;
                engine.run_cycle(cycle, &mut source);
                source.offers
            } else {
                let mut source = Skipping(every);
                engine.run_cycle(cycle, &mut source);
                source.0.offers
            };
            offers[0] += counted[0];
            offers[1] += counted[1];
        });
        let stats = ChannelId::BOTH.map(|ch| *runner.engine.stats(ch));
        let report = runner.report(truncated);
        let observed = Observed {
            outcomes,
            stats,
            counters: report.counters,
            fingerprint: report.fingerprint(),
        };
        (observed, offers)
    }

    /// One equivalence case: a policy (index into the registry), a
    /// scenario (0 BER-7, 1 bursty, 2 storm, 3 blackout + dropout), the
    /// [`CoefficientOptions`] switch turned off (0 none, 1 early copies,
    /// 2 cooperative dynamic, 3 dual channel), a geometry, the minislots
    /// of the 1 ms geometries, the horizon in cycles and the seed.
    ///
    /// The geometries: 0 is BBW on the 18-slot 1 ms cycle, 1 is BBW + ACC
    /// on the 80-slot 5 ms cycle, and 2 is a light static set on the
    /// 18-slot cycle at 10 Mbit/s, whose 380-bit slots a 1,200-bit
    /// dynamic frame does not fit (its steals are denied).
    type SkipCase = (usize, usize, usize, usize, u64, u64, u64);

    /// Runs one case both ways, checks that the runs are identical and
    /// returns the run's counters and the offers of both runs, `[every
    /// position, skipping]`.
    fn check_skipping(
        (policy, scenario, switch_off, geometry, minislots, cycles, seed): SkipCase,
    ) -> (RunCounters, [[u64; 2]; 2]) {
        let mut long_frame = None;
        let (cluster, statics, ids) = match geometry {
            0 => (
                ClusterConfig::paper_dynamic(minislots),
                workloads::bbw::message_set(),
                workloads::sae::IdRange::StartingAt(20),
            ),
            1 => {
                let mut statics = workloads::bbw::message_set();
                statics.extend(workloads::acc::message_set());
                (
                    ClusterConfig::paper_static(80),
                    statics,
                    workloads::sae::IdRange::For80Slots,
                )
            }
            _ => {
                let slow = ClusterConfig::builder()
                    .macroticks_per_cycle(1000)
                    .static_slots(18, 40)
                    .minislots(minislots, 2)
                    .bit_rate(10_000_000)
                    .build()
                    .unwrap();
                let statics = (1..=14u32)
                    .map(|id| {
                        let period = SimDuration::from_millis(1 << (id % 4));
                        Signal::new(id, period, SimDuration::ZERO, period, 16 * id)
                    })
                    .collect();
                let period = SimDuration::from_millis(20);
                long_frame = Some(AperiodicMessage::new(19, period, period, 1_200));
                (slow, statics, workloads::sae::IdRange::StartingAt(20))
            }
        };
        let horizon = cluster.cycle_duration() * cycles;
        let scenario = match scenario {
            0 => Scenario::ber7(),
            1 => Scenario::ber7().bursty(),
            2 => Scenario::ber7().storm(),
            _ => Scenario::ber7().with_campaign(
                "BER-7-blackout-dropout",
                CampaignSpec::new()
                    .blackout(CampaignTarget::A, cycles / 5, cycles / 3)
                    .sensor_dropout(CampaignTarget::B, cycles / 4, cycles / 4),
            ),
        };
        let mut dynamics = workloads::sae::message_set(ids, seed);
        // Second in the list: its home is channel B, whose static segment
        // has free slots under every policy.
        dynamics.splice(1..1, long_frame);
        let cfg = RunConfig {
            cluster,
            scenario,
            static_messages: statics,
            dynamic_messages: dynamics,
            policy: ALL[policy],
            stop: StopCondition::Horizon(horizon),
            seed,
            trace: TraceConfig::off(),
        };
        let options = CoefficientOptions {
            early_copies: switch_off != 1,
            cooperative_dynamic: switch_off != 2,
            dual_channel: switch_off != 3,
        };
        let (every, every_offers) = observe(&cfg, options, true);
        let (skipping, skipping_offers) = observe(&cfg, options, false);
        let case = (policy, cfg.scenario.name, switch_off, geometry, seed);
        assert_eq!(every.stats, skipping.stats, "{case:?}");
        assert_eq!(every.counters, skipping.counters, "{case:?}");
        assert_eq!(every.fingerprint, skipping.fingerprint, "{case:?}");
        assert!(
            every.outcomes == skipping.outcomes,
            "{case:?}: outcomes differ"
        );
        (every.counters, [every_offers, skipping_offers])
    }

    proptest::proptest! {
        /// A run whose scheduler names the positions worth offering is
        /// the run whose scheduler is offered every position: the same
        /// outcomes in the same order, channel statistics (both idle
        /// counters included), counters and fingerprint, for every
        /// policy, scenario, ablation switch and geometry.
        #[test]
        fn skipping_positions_changes_no_run(
            run in (0usize..6, 0usize..4, 0usize..4, 0usize..3),
            shape in (10u64..=100, 20u64..120, 0u64..1_000_000),
        ) {
            let (policy, scenario, switch_off, geometry) = run;
            let (minislots, cycles, seed) = shape;
            check_skipping((policy, scenario, switch_off, geometry, minislots, cycles, seed));
        }
    }

    #[test]
    fn the_skipping_check_skips_and_reaches_every_mechanism() {
        let mut total = RunCounters::default();
        let (mut every, mut skipping) = ([0u64; 2], [0u64; 2]);
        for (policy, name) in ALL.iter().map(|p| p.key()).enumerate() {
            let mut skipped = [0u64; 2];
            for scenario in 0..4 {
                for geometry in 0..3 {
                    let case = (policy, scenario, 0, geometry, 40, 150, 7);
                    let (counters, [all, hinted]) = check_skipping(case);
                    for k in 0..2 {
                        assert!(hinted[k] <= all[k], "{name} {scenario} {geometry}");
                        skipped[k] += all[k] - hinted[k];
                        every[k] += all[k];
                        skipping[k] += hinted[k];
                    }
                    total.steal_granted += counters.steal_granted;
                    total.steal_denied += counters.steal_denied;
                    total.early_copies_sent += counters.early_copies_sent;
                    total.degraded_extra_copies += counters.degraded_extra_copies;
                    total.failover_mirrors += counters.failover_mirrors;
                }
            }
            assert!(skipped[0] > 0 && skipped[1] > 0, "{name}: {skipped:?}");
        }
        // About a quarter of the static offers go, and nearly all dynamic
        // ones: only frame ids with a queued entry are offered.
        assert!(skipping[0] * 10 < every[0] * 8, "{skipping:?} of {every:?}");
        assert!(skipping[1] * 10 < every[1], "{skipping:?} of {every:?}");
        assert!(total.steal_granted > 0, "{total:?}");
        assert!(total.steal_denied > 0, "{total:?}");
        assert!(total.early_copies_sent > 0, "{total:?}");
        assert!(total.degraded_extra_copies > 0, "{total:?}");
        assert!(total.failover_mirrors > 0, "{total:?}");
    }

    /// The per-release `min_by_key` merge the batches replaced, kept as the
    /// release-order oracle: each release scans every cursor of both
    /// classes; the first minimum wins within a class, and static wins at
    /// an equal instant (`ts <= td`).
    struct ScanProduction {
        /// Next release per message, `[static, dynamic]`.
        next: [Vec<SimTime>; 2],
        periods: [Vec<SimDuration>; 2],
        target: Option<u64>,
        horizon: Option<SimTime>,
        produced: u64,
        done: bool,
        last: SimTime,
    }

    impl ScanProduction {
        fn produce_until(
            &mut self,
            cycle_end: SimTime,
            out: &mut Vec<(MessageClass, usize, SimTime)>,
        ) {
            if self.done {
                return;
            }
            loop {
                let earliest = |next: &[SimTime]| {
                    next.iter()
                        .enumerate()
                        .min_by_key(|(_, t)| **t)
                        .map(|(i, t)| (i, *t))
                };
                let next_static = earliest(&self.next[0]);
                let next_dynamic = earliest(&self.next[1]);
                let pick_static = match (next_static, next_dynamic) {
                    (Some((_, ts)), Some((_, td))) => ts <= td,
                    (Some(_), None) => true,
                    (None, _) => false,
                };
                let next = if pick_static {
                    next_static
                } else {
                    next_dynamic
                };
                let Some((i, release)) = next else { break };
                if release >= cycle_end {
                    break;
                }
                if let Some(h) = self.horizon {
                    if release >= h {
                        self.done = true;
                        break;
                    }
                }
                let (k, class) = if pick_static {
                    (0, MessageClass::Static)
                } else {
                    (1, MessageClass::Dynamic)
                };
                out.push((class, i, release));
                self.next[k][i] = release + self.periods[k][i];
                self.produced += 1;
                self.last = release;
                if let Some(target) = self.target {
                    if self.produced >= target {
                        self.done = true;
                        break;
                    }
                }
            }
        }
    }

    /// How a release-order run went, to show the cases are not vacuous.
    #[derive(Debug, Default)]
    struct ReleaseTally {
        /// Releases sharing their instant with the previous release.
        ties: u64,
        /// Of those, a static release followed by a dynamic one.
        class_ties: u64,
        /// Runs whose production ended before the last cycle.
        cut: u64,
        /// Cycles whose releases, gathered in cursor order, were not yet
        /// sorted: the sort had work to do.
        unsorted: u64,
    }

    /// Merges random releases on a coarse grid (quarter-cycle offsets and
    /// periods, so equal instants within and across classes are common)
    /// with the batches and with the scan, cycle by cycle under `stop`, and
    /// checks that they produce the same `(class, index, instant)`
    /// sequence and agree on when and where production ended.
    ///
    /// `stop.0` picks the condition (0 horizon, 1 produced, 2 delivered)
    /// and `stop.1` its size: quarter cycles of horizon or instances.
    fn check_release_order(
        statics: &[(u64, u64)],
        dynamics: &[(u64, u64)],
        (kind, size): (u8, u64),
        cycles: u64,
    ) -> ReleaseTally {
        let quarter = SimDuration::from_nanos(250_000);
        let grid =
            |(offset, period): (u64, u64)| (SimTime::ZERO + quarter * offset, quarter * period);
        let statics: Vec<(SimTime, SimDuration)> = statics.iter().copied().map(grid).collect();
        let dynamics: Vec<(SimTime, SimDuration)> = dynamics.iter().copied().map(grid).collect();
        let stop = match kind {
            0 => StopCondition::Horizon(quarter * size),
            1 => StopCondition::ProducedInstances(size),
            _ => StopCondition::DeliveredInstances(size),
        };
        let cycle = quarter * 4;
        let mut batches = Production::new(
            Releases::new(statics.clone(), dynamics.clone(), cycle),
            stop,
        );
        let batch_capacity = batches.releases.batch.capacity();
        let split = |class: &[(SimTime, SimDuration)]| -> (Vec<SimTime>, Vec<SimDuration>) {
            class.iter().copied().unzip()
        };
        let ((static_next, static_periods), (dynamic_next, dynamic_periods)) =
            (split(&statics), split(&dynamics));
        let mut scan = ScanProduction {
            next: [static_next, dynamic_next],
            periods: [static_periods, dynamic_periods],
            target: batches.target,
            horizon: batches.horizon,
            produced: 0,
            done: statics.is_empty() && dynamics.is_empty(),
            last: SimTime::ZERO,
        };
        let mut tally = ReleaseTally::default();
        let (mut merged, mut scanned) = (Vec::new(), Vec::new());
        for n in 1..=cycles {
            let cycle_end = SimTime::ZERO + cycle * n;
            merged.clear();
            scanned.clear();
            if !batches.done {
                let limit = batches.horizon.map_or(cycle_end, |h| h.min(cycle_end));
                let gathered: Vec<(SimTime, u64)> = batches
                    .releases
                    .cursors
                    .iter()
                    .flat_map(|c| {
                        std::iter::successors(Some(c.next), move |&t| Some(t + c.period))
                            .take_while(|&t| t < limit)
                            .map(move |t| (t, c.key))
                    })
                    .collect();
                tally.unsorted += u64::from(!gathered.is_sorted());
            }
            batches.produce_until(cycle_end, |class, i, t| merged.push((class, i, t)));
            scan.produce_until(cycle_end, &mut scanned);
            assert_eq!(merged, scanned, "releases of cycle {n}");
            assert_eq!(
                (batches.done, batches.produced, batches.last),
                (scan.done, scan.produced, scan.last),
                "production state after cycle {n}"
            );
            for pair in merged.windows(2) {
                if pair[0].2 == pair[1].2 {
                    tally.ties += 1;
                    tally.class_ties += u64::from(pair[0].0 != pair[1].0);
                }
            }
        }
        assert_eq!(
            batches.releases.batch.capacity(),
            batch_capacity,
            "the batch outgrew its sizing"
        );
        tally.cut = u64::from(batches.done);
        tally
    }

    proptest::proptest! {
        /// The per-cycle batches release exactly what the per-release
        /// scans over every cursor release, in the same order, under every
        /// stop condition.
        #[test]
        fn release_batches_merge_what_the_old_scans_merge(
            statics in proptest::collection::vec((0u64..8, 1u64..8), 0..10),
            dynamics in proptest::collection::vec((0u64..8, 1u64..8), 0..6),
            stop in (0u8..3, 0u64..160),
            cycles in 1u64..40,
        ) {
            check_release_order(&statics, &dynamics, stop, cycles);
        }
    }

    #[test]
    fn the_release_order_check_reaches_every_case() {
        let statics = [(0, 2), (0, 4), (1, 3), (2, 2), (0, 1)];
        let dynamics = [(0, 4), (2, 3), (1, 1)];
        for kind in 0..3 {
            let tally = check_release_order(&statics, &dynamics, (kind, 60), 30);
            assert!(tally.ties > 0 && tally.class_ties > 0, "{kind}: {tally:?}");
            assert!(tally.unsorted > 0, "{kind}: {tally:?}");
            // The horizon and the instance target end production early;
            // a delivery target never does.
            assert_eq!(tally.cut, u64::from(kind < 2), "{kind}: {tally:?}");
        }
        // Either class alone, and no messages at all.
        check_release_order(&statics, &[], (1, 50), 20);
        check_release_order(&[], &dynamics, (0, 50), 20);
        let tally = check_release_order(&[], &[], (2, 0), 3);
        assert_eq!(tally.cut, 1, "{tally:?}");
    }
}
