//! A benchmark-side replica of `Runner::run` that records a span around
//! every call into a layer.
//!
//! [`drive`] builds the engine `Runner::new` builds — the same fault
//! processes on the same seeds, the same monitors, the same dynamic
//! arrival phases — but wraps the scheduler in a timing
//! [`TrafficSource`] and each channel's fault process in a timing
//! decorator, then replays `Runner::run`'s cycle loop call for call.
//! [`compare`] and [`same_allocation`] check the result against the real
//! runner; the traced run fails instead of reporting spans when they
//! disagree.

use std::time::Instant;

use coefficient::{
    CampaignCounters, FaultModel, MessageClass, RunConfig, RunCounters, RunReport, Scheduler,
    StaticAllocation, StopCondition,
};
use event_sim::rng::substream;
use event_sim::{SimDuration, SimTime};
use flexray::bus::{BusEngine, OutboundPayload, TrafficSource, TransmissionOutcome};
use flexray::codec::FrameCoding;
use flexray::ChannelId;
use rand::Rng;
use reliability::campaign::CampaignFaults;
use reliability::fault::{
    BernoulliFaults, FaultCounters, FaultProcess, GilbertElliott, SegmentHits,
};
use reliability::monitor::{HealthState, MonitorConfig, ReliabilityMonitor};
use reliability::Ber;

use crate::spans::{self, Kind};

/// `Runner`'s safety cap on simulated cycles.
const MAX_CYCLES: u64 = 5_000_000;

/// Calls the timing traffic source saw, and how many returned a frame.
#[derive(Debug, Clone, Copy, Default)]
pub struct SourceCounts {
    /// `static_frame` calls.
    pub static_calls: u64,
    /// `static_frame` calls that returned a frame.
    pub static_some: u64,
    /// `dynamic_frame` calls.
    pub dynamic_calls: u64,
    /// `dynamic_frame` calls that returned a frame.
    pub dynamic_some: u64,
}

/// What the driver measured besides the report.
#[derive(Debug, Clone, Copy, Default)]
pub struct DriveStats {
    /// Traffic-source calls.
    pub source: SourceCounts,
    /// Host time of the whole cycle loop.
    pub loop_ns: u64,
    /// Health transitions of the bus-wide and both per-channel monitors.
    pub monitor_transitions: u64,
}

/// The scheduler as the bus engine sees it, with a span per call.
struct TimedSource<'a> {
    scheduler: &'a mut Scheduler,
    counts: &'a mut SourceCounts,
}

impl TrafficSource for TimedSource<'_> {
    fn static_frame(
        &mut self,
        cycle: u64,
        cycle_counter: u8,
        slot: u16,
        channel: ChannelId,
    ) -> Option<OutboundPayload> {
        let frame = spans::span(Kind::StaticFrame, || {
            self.scheduler
                .static_frame(cycle, cycle_counter, slot, channel)
        });
        self.counts.static_calls += 1;
        self.counts.static_some += u64::from(frame.is_some());
        frame
    }

    fn dynamic_frame(
        &mut self,
        cycle: u64,
        channel: ChannelId,
        slot_counter: u64,
        max_payload_bytes: u16,
    ) -> Option<OutboundPayload> {
        let frame = spans::span(Kind::DynamicFrame, || {
            self.scheduler
                .dynamic_frame(cycle, channel, slot_counter, max_payload_bytes)
        });
        self.counts.dynamic_calls += 1;
        self.counts.dynamic_some += u64::from(frame.is_some());
        frame
    }

    fn on_outcome(&mut self, outcome: &TransmissionOutcome) {
        spans::span(Kind::OnOutcome, || self.scheduler.on_outcome(outcome));
    }
}

/// A channel's fault process with a span around every call that draws or
/// advances it. Observers (`counters`, `in_burst`, ...) pass through
/// untimed; every call is forwarded, so the RNG streams are untouched.
#[derive(Debug)]
struct TimedFaults(Box<dyn FaultProcess>);

impl FaultProcess for TimedFaults {
    fn corrupts(&mut self, bits: u32) -> bool {
        spans::span(Kind::FaultDraw, || self.0.corrupts(bits))
    }

    fn frame_failure_probability(&self, bits: u32) -> f64 {
        self.0.frame_failure_probability(bits)
    }

    fn counters(&self) -> FaultCounters {
        self.0.counters()
    }

    fn in_burst(&self) -> bool {
        self.0.in_burst()
    }

    fn on_cycle_start(&mut self, cycle: u64) {
        spans::span(Kind::FaultDraw, || self.0.on_cycle_start(cycle));
    }

    fn campaign_counters(&self) -> Option<CampaignCounters> {
        self.0.campaign_counters()
    }

    fn corrupts_run(&mut self, bits: u32, frames: u32) -> SegmentHits {
        spans::span(Kind::FaultDraw, || self.0.corrupts_run(bits, frames))
    }
}

/// The fault process `Runner::new` installs on a channel, timed.
fn fault_process(cfg: &RunConfig, channel_index: usize, seed: u64) -> Box<dyn FaultProcess> {
    let scenario = &cfg.scenario;
    let base: Box<dyn FaultProcess> = match scenario.fault_model {
        FaultModel::Bernoulli => Box::new(BernoulliFaults::new(scenario.ber, seed)),
        FaultModel::GilbertElliott {
            bad_factor,
            p_gb,
            p_bg,
        } => {
            let bad = Ber::new((scenario.ber.rate() * bad_factor).min(0.999))
                .expect("scaled BER in range");
            Box::new(GilbertElliott::new(scenario.ber, bad, p_gb, p_bg, seed))
        }
    };
    let process: Box<dyn FaultProcess> = match &scenario.campaign {
        Some(spec) => Box::new(CampaignFaults::new(base, spec, channel_index, seed)),
        None => base,
    };
    Box::new(TimedFaults(process))
}

/// The instance count `Runner::new` reserves tracker capacity for.
fn expected_instances(cfg: &RunConfig) -> u64 {
    match cfg.stop {
        StopCondition::Horizon(h) => {
            let statics: u64 = cfg
                .static_messages
                .iter()
                .map(|s| h.as_nanos() / s.period.as_nanos() + 1)
                .sum();
            let dynamics: u64 = cfg
                .dynamic_messages
                .iter()
                .map(|d| h.as_nanos() / d.min_interarrival.as_nanos() + 1)
                .sum();
            statics + dynamics
        }
        StopCondition::ProducedInstances(n) => {
            n + (cfg.static_messages.len() + cfg.dynamic_messages.len()) as u64
        }
        StopCondition::DeliveredInstances(n) => n.saturating_mul(2),
    }
}

/// `Runner`'s effective-health bookkeeping.
struct Health {
    monitor: ReliabilityMonitor,
    effective: HealthState,
    transitions: u64,
    storm_entries: u64,
    service_restores: u64,
}

impl Health {
    /// Feeds the bus-wide monitor, combines it with the per-channel
    /// health and pushes the result into the scheduler, as `Runner` does
    /// after every cycle.
    fn observe(&mut self, engine: &BusEngine, scheduler: &mut Scheduler) {
        let merged = engine
            .fault_counters(ChannelId::A)
            .merged(engine.fault_counters(ChannelId::B));
        self.monitor.set_trace_clock(engine.elapsed());
        let overall = spans::span(Kind::MonitorObserve, || self.monitor.observe(merged));
        let channels = [
            engine.channel_health(ChannelId::A),
            engine.channel_health(ChannelId::B),
        ];
        let effective = overall.max(channels[0]).max(channels[1]);
        if effective != self.effective {
            self.transitions += 1;
            if effective == HealthState::Storm {
                self.storm_entries += 1;
            }
            if effective == HealthState::Nominal {
                self.service_restores += 1;
            }
            self.effective = effective;
        }
        scheduler.set_health(effective, channels);
    }
}

/// Every run counter, gathered the way `Runner` gathers them.
fn collect_counters(scheduler: &Scheduler, engine: &BusEngine, health: &Health) -> RunCounters {
    let tracker = scheduler.tracker();
    let sched = scheduler.schedule_counters();
    let faults = engine
        .fault_counters(ChannelId::A)
        .merged(engine.fault_counters(ChannelId::B));
    let faults_recovered = tracker
        .instances()
        .iter()
        .filter(|i| i.corrupted > 0 && i.is_delivered())
        .count() as u64;
    let campaign = [ChannelId::A, ChannelId::B]
        .into_iter()
        .filter_map(|ch| engine.campaign_counters(ch))
        .fold(CampaignCounters::default(), CampaignCounters::merged);
    RunCounters {
        steal_attempts: sched.steal_attempts,
        steal_granted: sched.steal_granted,
        steal_denied: sched.steal_denied,
        early_copies_sent: sched.early_copies,
        dropped_copies: scheduler.dropped_copies(),
        retransmission_budget_used: scheduler.copy_transmissions(),
        preemptions: sched.preemptions,
        frames_checked: faults.frames_checked,
        faults_injected: faults.faults_injected,
        faults_recovered,
        health_transitions: health.transitions,
        storm_entries: health.storm_entries,
        service_restores: health.service_restores,
        soft_shed: sched.degraded_sheds,
        degraded_extra_copies: scheduler.degraded_extra_copies(),
        failover_mirrors: scheduler.failover_mirrors(),
        campaign_events: campaign.events_started,
        campaign_blackout_faults: campaign.blackout_faults,
        campaign_extra_faults: campaign.extra_faults,
        campaign_dropout_cycles: campaign.dropout_cycles,
    }
}

/// Replays `Runner::run` for `cfg` over `scheduler`, which the caller
/// built from the same config with `Scheduler::new_with_options`.
/// Records spans into the current run of [`spans`].
pub fn drive(cfg: &RunConfig, mut scheduler: Scheduler) -> (RunReport, DriveStats) {
    let coding = FrameCoding::default();
    // `Runner::new`'s thresholds: a safe factor above the failure rate of
    // a representative 1000-bit frame at the scenario's BER.
    let monitor_cfg =
        MonitorConfig::for_expected_fault_rate(cfg.scenario.ber.frame_failure_probability(1000));
    let mut engine = BusEngine::new(cfg.cluster.clone())
        .with_coding(coding)
        .with_faults(
            fault_process(cfg, 0, cfg.seed ^ 0xA),
            fault_process(cfg, 1, cfg.seed ^ 0xB),
        )
        .with_health_monitoring(monitor_cfg);
    let mut health = Health {
        monitor: ReliabilityMonitor::new(monitor_cfg),
        effective: HealthState::Nominal,
        transitions: 0,
        storm_entries: 0,
        service_restores: 0,
    };
    let mut rng = substream(cfg.seed, "runner/dynamic-phases");
    let dynamic_phases: Vec<SimDuration> = cfg
        .dynamic_messages
        .iter()
        .map(|d| SimDuration::from_nanos(rng.gen_range(0..d.min_interarrival.as_nanos())))
        .collect();
    scheduler.reserve_instances(usize::try_from(expected_instances(cfg)).unwrap_or(usize::MAX));

    let started = Instant::now();
    let root = spans::enter(Kind::RunLoop);
    let cycle_dur = cfg.cluster.cycle_duration();
    let production_target = match cfg.stop {
        StopCondition::ProducedInstances(n) => Some(n),
        StopCondition::Horizon(_) | StopCondition::DeliveredInstances(_) => None,
    };
    let horizon = match cfg.stop {
        StopCondition::Horizon(h) => Some(SimTime::ZERO + h),
        StopCondition::ProducedInstances(_) | StopCondition::DeliveredInstances(_) => None,
    };
    let mut static_next: Vec<SimTime> = cfg
        .static_messages
        .iter()
        .map(|s| SimTime::ZERO + s.offset)
        .collect();
    let mut dynamic_next: Vec<SimTime> =
        dynamic_phases.iter().map(|p| SimTime::ZERO + *p).collect();
    let max_static_period = cfg
        .static_messages
        .iter()
        .map(|s| s.period)
        .max()
        .unwrap_or(SimDuration::ZERO);
    let mut produced: u64 = 0;
    let mut production_done = cfg.static_messages.is_empty() && cfg.dynamic_messages.is_empty();
    let mut last_production = SimTime::ZERO;
    let mut cycle: u64 = 0;
    let mut truncated = false;
    let mut counts = SourceCounts::default();
    // Campaign runs collect every counter after each cycle (the runner's
    // recovery bookkeeping, which scans every instance).
    let mut chaos_fields = cfg.scenario.campaign.as_ref().map(|_| [0u64; 20]);

    loop {
        let cycle_start = cfg.cluster.cycle_start(cycle);
        let cycle_end = cycle_start + cycle_dur;
        spans::span(Kind::Purge, || scheduler.purge_expired(cycle_start));

        if !production_done {
            loop {
                let next_static = static_next
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, t)| **t)
                    .map(|(i, t)| (i, *t));
                let next_dynamic = dynamic_next
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, t)| **t)
                    .map(|(i, t)| (i, *t));
                let pick_static = match (next_static, next_dynamic) {
                    (Some((_, ts)), Some((_, td))) => ts <= td,
                    (Some(_), None) => true,
                    (None, _) => false,
                };
                let release = if pick_static {
                    next_static.map(|(_, t)| t)
                } else {
                    next_dynamic.map(|(_, t)| t)
                };
                let Some(release) = release else { break };
                if release >= cycle_end {
                    break;
                }
                if let Some(h) = horizon {
                    if release >= h {
                        production_done = true;
                        break;
                    }
                }
                if pick_static {
                    let (i, t) = next_static.expect("static release exists");
                    let id = cfg.static_messages[i].id;
                    spans::span(Kind::Produce, || scheduler.produce_static(id, t));
                    static_next[i] = t + cfg.static_messages[i].period;
                } else {
                    let (i, t) = next_dynamic.expect("dynamic release exists");
                    let frame_id = cfg.dynamic_messages[i].frame_id;
                    spans::span(Kind::Produce, || scheduler.produce_dynamic(frame_id, t));
                    dynamic_next[i] = t + cfg.dynamic_messages[i].min_interarrival;
                }
                produced += 1;
                last_production = release;
                if let Some(target) = production_target {
                    if produced >= target {
                        production_done = true;
                        break;
                    }
                }
            }
        }

        spans::span(Kind::RunCycle, || {
            let mut source = TimedSource {
                scheduler: &mut scheduler,
                counts: &mut counts,
            };
            engine.run_cycle(cycle, &mut source);
        });
        cycle += 1;
        health.observe(&engine, &mut scheduler);
        if let Some(previous) = chaos_fields.as_mut() {
            let fields = collect_counters(&scheduler, &engine, &health)
                .fields()
                .map(|(_, v)| v);
            std::hint::black_box(fields.iter().zip(previous.iter()).all(|(a, b)| a >= b));
            *previous = fields;
        }
        let elapsed = engine.elapsed();
        match cfg.stop {
            StopCondition::Horizon(h) => {
                if elapsed >= SimTime::ZERO + h {
                    break;
                }
            }
            StopCondition::ProducedInstances(_) => {
                let windows_closed = elapsed >= last_production.saturating_add(max_static_period);
                if production_done && windows_closed && scheduler.pending_work() == 0 {
                    break;
                }
            }
            StopCondition::DeliveredInstances(n) => {
                if scheduler.tracker().delivered_in_time() >= n {
                    break;
                }
            }
        }
        if cycle >= MAX_CYCLES {
            truncated = true;
            break;
        }
    }
    spans::exit(root);
    let loop_ns = started.elapsed().as_nanos() as u64;

    let monitor_transitions = health.monitor.counters().transitions
        + [ChannelId::A, ChannelId::B]
            .into_iter()
            .filter_map(|ch| engine.channel_monitor(ch))
            .map(|m| m.counters().transitions)
            .sum::<u64>();
    let report = report(cfg, &scheduler, &engine, &health, truncated);
    let stats = DriveStats {
        source: counts,
        loop_ns,
        monitor_transitions,
    };
    (report, stats)
}

/// The report `Runner::run` assembles at the end of a run.
fn report(
    cfg: &RunConfig,
    scheduler: &Scheduler,
    engine: &BusEngine,
    health: &Health,
    truncated: bool,
) -> RunReport {
    let elapsed = engine.elapsed();
    let a = engine.stats(ChannelId::A);
    let b = engine.stats(ChannelId::B);
    let tracker = scheduler.tracker();
    let utilization_a = a.occupied_utilization(elapsed);
    let utilization_b = b.occupied_utilization(elapsed);
    RunReport {
        policy: scheduler.policy(),
        scenario: cfg.scenario.name,
        running_time: elapsed - SimTime::ZERO,
        utilization_a,
        utilization_b,
        utilization: (utilization_a + utilization_b) / 2.0,
        wire_utilization: (a.utilization(elapsed) + b.utilization(elapsed)) / 2.0,
        static_latency: tracker.latency_summary(MessageClass::Static),
        dynamic_latency: tracker.latency_summary(MessageClass::Dynamic),
        static_deadlines: tracker.deadline_tracker(MessageClass::Static),
        dynamic_deadlines: tracker.deadline_tracker(MessageClass::Dynamic),
        produced: tracker.produced() as u64,
        delivered: tracker.delivered() as u64,
        frames: a.frames + b.frames,
        corrupted: a.corrupted + b.corrupted,
        cooperative_static_serves: scheduler.cooperative_static_serves(),
        early_copies_sent: scheduler.early_copies_sent(),
        copy_transmissions: scheduler.copy_transmissions(),
        counters: collect_counters(scheduler, engine, health),
        channel_faults: [
            engine.fault_counters(ChannelId::A),
            engine.fault_counters(ChannelId::B),
        ],
        truncated,
        peak_scratch_bytes: scheduler.scratch_bytes(),
        trace: None,
        chaos: None,
    }
}

/// Checks the driver's report against `Runner::run`'s on the compared
/// fields: produced, delivered, frames, corrupted, every run counter, the
/// deadlines met and missed per class, and the full fingerprint.
///
/// # Errors
/// Every differing field, with both values.
pub fn compare(driver: &RunReport, runner: &RunReport) -> Result<(), String> {
    let mut diffs = Vec::new();
    let fields = [
        ("produced", driver.produced, runner.produced),
        ("delivered", driver.delivered, runner.delivered),
        ("frames", driver.frames, runner.frames),
        ("corrupted", driver.corrupted, runner.corrupted),
        (
            "static_met",
            driver.static_deadlines.met(),
            runner.static_deadlines.met(),
        ),
        (
            "static_missed",
            driver.static_deadlines.missed(),
            runner.static_deadlines.missed(),
        ),
        (
            "dynamic_met",
            driver.dynamic_deadlines.met(),
            runner.dynamic_deadlines.met(),
        ),
        (
            "dynamic_missed",
            driver.dynamic_deadlines.missed(),
            runner.dynamic_deadlines.missed(),
        ),
        ("fingerprint", driver.fingerprint(), runner.fingerprint()),
    ];
    let counters = driver
        .counters
        .fields()
        .into_iter()
        .zip(runner.counters.fields())
        .map(|((name, d), (_, r))| (name, d, r));
    for (name, d, r) in fields.into_iter().chain(counters) {
        if d != r {
            diffs.push(format!("{name}: driver {d}, runner {r}"));
        }
    }
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "traced driver diverged from Runner::run ({} on {}): {}",
            runner.policy.key(),
            runner.scenario,
            diffs.join("; ")
        ))
    }
}

/// Checks that the allocation the traced run timed equals the one a
/// scheduler built (copies and spill).
///
/// # Errors
/// Both allocations' copy counts and spill lists.
pub fn same_allocation(timed: &StaticAllocation, built: &StaticAllocation) -> Result<(), String> {
    if timed.copies() == built.copies() && timed.spill() == built.spill() {
        Ok(())
    } else {
        Err(format!(
            "timed allocation differs from the scheduler's: {} copies, spill {:?} vs {} copies, spill {:?}",
            timed.copies().len(),
            timed.spill(),
            built.copies().len(),
            built.spill()
        ))
    }
}
