//! The traced run: per-layer self times and work counts.
//!
//! Each traced run first times the set-up calls directly, on the inputs
//! `Scheduler::new` builds: Theorem 1 (`Policy::plan_copies` over a
//! `RetransmissionPlanner`), `StaticAllocation::build_with_channels`,
//! `Scheduler::new_with_options` and `Runner::new`. The scheduler then
//! runs under the span-recording cycle driver ([`driver::drive`]) and the
//! runner runs `Runner::run` untraced on the same config, as the
//! differential reference: the two must agree on every compared field,
//! and the timed allocation must equal both schedulers', or the traced
//! run fails instead of reporting spans.
//!
//! The timed set-up calls repeat work the next call does again inside
//! itself (`Scheduler::new` plans and allocates, `Runner::new` builds a
//! scheduler), so `scheduler.new_self_s` and `runner.new_self_s` are
//! differences of separately timed calls.

use std::time::Instant;

use coefficient::{
    registry, CoefficientOptions, RunConfig, RunReport, Runner, Scheduler, StaticAllocation,
};
use fleet::{FleetAggregate, FleetSpec};
use flexray::codec::FrameCoding;
use reliability::{MessageReliability, RetransmissionPlanner};

use crate::driver::{self, SourceCounts};
use crate::spans::{self, Kind};
use crate::timed::{fleet_failures, policy_index, vehicle_fold, Metric};

/// Registered policies; per-policy metrics follow registry order.
const POLICIES: usize = registry::ALL.len();

/// Span slot for calls outside any policy's run (fleet shard merges).
const NO_POLICY: usize = POLICIES;

/// Tracker id offset of dynamic messages in the reliability plan, as
/// `Scheduler::new` assigns it.
const DYN_NS: u32 = 0x0001_0000;

/// Everything the traced passes accumulated.
#[derive(Debug, Default)]
pub struct LayerTotals {
    /// Traced passes folded in.
    pub passes: u64,
    /// Self time per span kind and policy slot.
    self_ns: [[u64; POLICIES + 1]; Kind::COUNT],
    source: SourceCounts,
    early_copies: u64,
    dropped_copies: u64,
    steal_attempts: u64,
    steal_granted: u64,
    frames: u64,
    corrupted: u64,
    frames_checked: u64,
    faults_injected: u64,
    monitor_transitions: u64,
    copies_planned: u64,
    static_copies_planned: u64,
    copies_placed: u64,
    produced: u64,
    delivered: u64,
    peak_live: u64,
    driver_loop_ns: u64,
    runner_run_ns: u64,
    footprint_bytes: u64,
}

impl LayerTotals {
    /// Adds the current run's span self times to `slot`.
    fn fold_spans(&mut self, slot: usize) {
        for (kind, ns) in spans::self_times().into_iter().enumerate() {
            self.self_ns[kind][slot] += ns;
        }
    }

    fn add_report(&mut self, report: &RunReport, stats: &driver::DriveStats) {
        let c = &report.counters;
        self.source.static_calls += stats.source.static_calls;
        self.source.static_some += stats.source.static_some;
        self.source.dynamic_calls += stats.source.dynamic_calls;
        self.source.dynamic_some += stats.source.dynamic_some;
        self.early_copies += c.early_copies_sent;
        self.dropped_copies += c.dropped_copies;
        self.steal_attempts += c.steal_attempts;
        self.steal_granted += c.steal_granted;
        self.frames += report.frames;
        self.corrupted += report.corrupted;
        self.frames_checked += c.frames_checked;
        self.faults_injected += c.faults_injected;
        self.monitor_transitions += stats.monitor_transitions;
        self.produced += report.produced;
        self.delivered += report.delivered;
        // The tracker keeps every instance of a run until the run ends.
        self.peak_live = self.peak_live.max(report.produced);
        self.driver_loop_ns += stats.loop_ns;
    }

    fn kind_ns(&self, kind: Kind) -> u64 {
        self.self_ns[kind as usize].iter().sum()
    }
}

/// How a traced run ended.
#[derive(Debug)]
pub enum Traced {
    /// Every set-up call refused the config.
    Unschedulable,
    /// The run completed and matched `Runner::run`.
    Ran(Box<RunReport>),
}

impl Traced {
    /// The run's fingerprint (`None` when unschedulable).
    pub fn fingerprint(&self) -> Option<u64> {
        match self {
            Traced::Unschedulable => None,
            Traced::Ran(report) => Some(report.fingerprint()),
        }
    }
}

/// Traces one run of `cfg` into the current span run and checks the
/// driver against `Runner::run`.
///
/// # Errors
/// The first disagreement between the timed set-up calls, the driver and
/// the real runner.
pub fn trace_run(cfg: &RunConfig, totals: &mut LayerTotals) -> Result<Traced, String> {
    let coding = FrameCoding::default();
    let policy = cfg.policy;
    let mirror = policy.behavior().mirror_allocation;
    let plan = || {
        let mut messages = Vec::new();
        for s in &cfg.static_messages {
            let wire = coding.message_wire_bits(u64::from(s.size_bits), false) as u32;
            messages.push(MessageReliability::from_ber(
                s.id,
                wire,
                s.period,
                cfg.scenario.ber,
            ));
        }
        for d in &cfg.dynamic_messages {
            let wire = coding.message_wire_bits(u64::from(d.size_bits), true) as u32;
            messages.push(MessageReliability::from_ber(
                DYN_NS + u32::from(d.frame_id),
                wire,
                d.min_interarrival,
                cfg.scenario.ber,
            ));
        }
        let planner = RetransmissionPlanner::new(messages).unit(cfg.scenario.unit);
        policy.plan_copies(&planner, cfg.scenario.reliability_goal())
    };
    let static_counts_of = |counts: &[(u32, u32)]| -> Vec<(u32, u32)> {
        cfg.static_messages
            .iter()
            .map(|s| {
                let k = counts
                    .iter()
                    .find(|(m, _)| *m == s.id)
                    .map_or(0, |&(_, k)| k);
                (s.id, k)
            })
            .collect()
    };
    let assign = |static_counts: &[(u32, u32)]| {
        if mirror {
            StaticAllocation::build(&cfg.cluster, &coding, &cfg.static_messages, &[], true)
        } else {
            StaticAllocation::build_with_channels(
                &cfg.cluster,
                &coding,
                &cfg.static_messages,
                static_counts,
                false,
                true,
            )
        }
    };
    // One untimed round first, so the timed calls run as warm as the same
    // work inside `Scheduler::new` and `Runner::new` after them; otherwise
    // the self-time differences charge the first call's cache misses to
    // whichever call happened to run first.
    let _ = std::hint::black_box(assign(&static_counts_of(&plan())));
    let counts = spans::span(Kind::Plan, plan);
    let static_counts = static_counts_of(&counts);
    let alloc = spans::span(Kind::Assignment, || assign(&static_counts));
    let cluster = cfg.cluster.clone();
    let scheduler = spans::span(Kind::SchedulerNew, || {
        Scheduler::new_with_options(
            policy,
            cluster,
            coding,
            &cfg.scenario,
            &cfg.static_messages,
            &cfg.dynamic_messages,
            CoefficientOptions::default(),
        )
    });
    let runner_cfg = cfg.clone();
    let runner = spans::span(Kind::RunnerNew, || Runner::new(runner_cfg));
    let (scheduler, runner) = match (scheduler, runner) {
        (Ok(scheduler), Ok(runner)) => (scheduler, runner),
        (Err(_), Err(_)) => return Ok(Traced::Unschedulable),
        _ => return Err("Scheduler::new and Runner::new disagree on schedulability".to_string()),
    };
    let alloc =
        alloc.map_err(|e| format!("timed allocation failed where the scheduler did not: {e}"))?;
    driver::same_allocation(&alloc, scheduler.allocation())?;
    driver::same_allocation(&alloc, runner.scheduler().allocation())?;
    totals.copies_planned += counts.iter().map(|&(_, k)| u64::from(k)).sum::<u64>();
    if !mirror {
        totals.static_copies_planned += static_counts
            .iter()
            .map(|&(_, k)| u64::from(k))
            .sum::<u64>();
    }
    totals.copies_placed += alloc.copies().len() as u64;

    let (report, stats) = driver::drive(cfg, scheduler);
    let started = Instant::now();
    let reference = spans::span(Kind::RunnerRun, || runner.run());
    totals.runner_run_ns += started.elapsed().as_nanos() as u64;
    driver::compare(&report, &reference)?;
    totals.add_report(&report, &stats);
    Ok(Traced::Ran(Box::new(report)))
}

/// Traces every run of a pass over independent configs. Returns runs
/// attempted and runs whose fingerprint differed from the reference.
///
/// # Errors
/// A traced-driver divergence (see [`trace_run`]).
pub fn runs_pass(
    configs: &[RunConfig],
    reference: &[Option<u64>],
    totals: &mut LayerTotals,
) -> Result<(u64, u64), String> {
    let mut failed = 0;
    for (i, (cfg, expected)) in configs.iter().zip(reference).enumerate() {
        spans::begin_run(i as u32);
        let outcome = trace_run(cfg, totals)?;
        totals.fold_spans(policy_index(cfg.policy));
        failed += u64::from(outcome.fingerprint() != *expected);
    }
    totals.passes += 1;
    Ok((configs.len() as u64, failed))
}

/// Traces one serial fleet pass, with spans around the fleet's own
/// environment draws, aggregate records and shard merges.
///
/// # Errors
/// A traced-driver divergence (see [`trace_run`]).
pub fn fleet_pass(
    spec: &FleetSpec,
    reference: &[Option<u64>],
    totals: &mut LayerTotals,
) -> Result<(u64, u64), String> {
    let mut global = FleetAggregate::new(&spec.policies);
    let mut local = FleetAggregate::new(&spec.policies);
    let mut folds = vec![0u64; spec.policies.len()];
    let mut run = 0u32;
    for shard in 0..spec.shard_count() {
        for v in spec.shard_range(shard) {
            for (p, &policy) in spec.policies.iter().enumerate() {
                spans::begin_run(run);
                run += 1;
                let cfg = spans::span(Kind::EnvDraw, || spec.vehicle_config(v, policy));
                let outcome = trace_run(&cfg, totals)?;
                folds[p] = folds[p].wrapping_add(vehicle_fold(v, outcome.fingerprint()));
                match &outcome {
                    Traced::Ran(report) => {
                        let condition =
                            spans::span(Kind::EnvDraw, || spec.vehicle_draw(v).condition);
                        spans::span(Kind::AggRecord, || local.record(p, v, condition, report));
                    }
                    Traced::Unschedulable => {
                        spans::span(Kind::AggRecord, || local.record_unschedulable(p, v));
                    }
                }
                totals.fold_spans(policy_index(policy));
            }
        }
        spans::begin_run(run);
        run += 1;
        spans::span(Kind::AggMerge, || global.merge(&local));
        local.clear();
        totals.fold_spans(NO_POLICY);
    }
    totals.passes += 1;
    totals.footprint_bytes = global.footprint_bytes() as u64;
    let attempted = spec.vehicles * spec.policies.len() as u64;
    Ok((attempted, fleet_failures(spec, &global, &folds, reference)))
}

/// A per-layer metric with the end-to-end metric it should move.
#[derive(Debug, Clone)]
pub struct LayerMetric {
    /// The metric.
    pub metric: Metric,
    /// Which end-to-end metric, on which workload, it should move.
    pub moves: &'static str,
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

const STATIC_PATH: &str =
    "cycles_per_s.{coefficient,greedy,slack-steal,matchup} and wall_s on sweep-steady; ~nothing on fleet-setup";
const DYNAMIC_PATH: &str = "wall_s on sweep-steady and chaos-recovery";
const BUS: &str = "cycles_per_s.{fspec,hosa} on sweep-steady";
const FAULT: &str = "cycles_per_s.fspec on sweep-steady; wall_s on chaos-recovery";
const CHAOS: &str = "wall_s on chaos-recovery";
const SETUP: &str =
    "runs_per_s, run_ms.tail, cycles_per_s.coefficient on fleet-setup; ~nothing on sweep-steady";
const INPUTS: &str = "setup_s on sweep-steady and chaos-recovery; runs_per_s on fleet-setup";
const AGG: &str = "runs_per_s on fleet-setup";
const INSTANCE: &str = "peak_rss_mb on sweep-steady";

/// The per-layer metrics of a traced run, per traced pass, in
/// `BENCHMARK.json` order. `build_s` is the median input-build time of
/// the set-up.
pub fn layer_metrics(t: &LayerTotals, build_s: f64) -> Vec<LayerMetric> {
    let passes = t.passes.max(1) as f64;
    let per = |x: u64| x as f64 / passes;
    let secs = |ns: u64| ns as f64 * 1e-9 / passes;
    let signed_secs = |a: u64, b: u64| (a as f64 - b as f64) * 1e-9 / passes;
    let policies = registry::all();
    let mut out = Vec::new();
    let mut push = |name: String, value: f64, unit: &'static str, moves: &'static str| {
        out.push(LayerMetric {
            metric: Metric::new(name, value, unit),
            moves,
        });
    };

    push(
        "policy.static_frame_s".into(),
        secs(t.kind_ns(Kind::StaticFrame)),
        "s",
        STATIC_PATH,
    );
    for (i, p) in policies.iter().enumerate() {
        let ns = t.self_ns[Kind::StaticFrame as usize][i];
        push(
            format!("policy.static_frame_s.{}", p.key()),
            secs(ns),
            "s",
            STATIC_PATH,
        );
    }
    push(
        "policy.static_frame_calls".into(),
        per(t.source.static_calls),
        "count",
        STATIC_PATH,
    );
    push(
        "policy.static_frame_fill_ratio".into(),
        ratio(t.source.static_some, t.source.static_calls),
        "ratio",
        STATIC_PATH,
    );
    push(
        "policy.early_copies".into(),
        per(t.early_copies),
        "count",
        STATIC_PATH,
    );
    push(
        "policy.dropped_copies".into(),
        per(t.dropped_copies),
        "count",
        STATIC_PATH,
    );

    push(
        "policy.dynamic_frame_s".into(),
        secs(t.kind_ns(Kind::DynamicFrame)),
        "s",
        DYNAMIC_PATH,
    );
    push(
        "policy.dynamic_frame_calls".into(),
        per(t.source.dynamic_calls),
        "count",
        DYNAMIC_PATH,
    );
    push(
        "policy.dynamic_frame_fill_ratio".into(),
        ratio(t.source.dynamic_some, t.source.dynamic_calls),
        "ratio",
        DYNAMIC_PATH,
    );
    push(
        "policy.steal_grant_ratio".into(),
        ratio(t.steal_granted, t.steal_attempts),
        "ratio",
        DYNAMIC_PATH,
    );
    push(
        "policy.on_outcome_s".into(),
        secs(t.kind_ns(Kind::OnOutcome)),
        "s",
        DYNAMIC_PATH,
    );
    push(
        "policy.produce_s".into(),
        secs(t.kind_ns(Kind::Produce)),
        "s",
        DYNAMIC_PATH,
    );
    push(
        "policy.purge_s".into(),
        secs(t.kind_ns(Kind::Purge)),
        "s",
        DYNAMIC_PATH,
    );

    push(
        "bus.run_cycle_self_s".into(),
        secs(t.kind_ns(Kind::RunCycle)),
        "s",
        BUS,
    );
    push("bus.frames".into(), per(t.frames), "count", BUS);
    push("bus.corrupted".into(), per(t.corrupted), "count", BUS);

    push(
        "fault.draw_s".into(),
        secs(t.kind_ns(Kind::FaultDraw)),
        "s",
        FAULT,
    );
    push(
        "fault.frames_checked".into(),
        per(t.frames_checked),
        "count",
        FAULT,
    );
    push(
        "fault.faults_injected".into(),
        per(t.faults_injected),
        "count",
        FAULT,
    );

    push(
        "monitor.observe_s".into(),
        secs(t.kind_ns(Kind::MonitorObserve)),
        "s",
        CHAOS,
    );
    push(
        "monitor.transitions".into(),
        per(t.monitor_transitions),
        "count",
        CHAOS,
    );
    push(
        "runner.unattributed_s".into(),
        secs(t.kind_ns(Kind::RunLoop)),
        "s",
        CHAOS,
    );

    push(
        "plan.theorem1_s".into(),
        secs(t.kind_ns(Kind::Plan)),
        "s",
        SETUP,
    );
    push(
        "plan.copies_planned".into(),
        per(t.copies_planned),
        "count",
        SETUP,
    );
    push(
        "assignment.build_s".into(),
        secs(t.kind_ns(Kind::Assignment)),
        "s",
        SETUP,
    );
    push(
        "assignment.copies_placed".into(),
        per(t.copies_placed),
        "count",
        SETUP,
    );
    push(
        "assignment.place_ratio".into(),
        ratio(t.copies_placed, t.static_copies_planned),
        "ratio",
        SETUP,
    );
    push(
        "scheduler.new_self_s".into(),
        signed_secs(
            t.kind_ns(Kind::SchedulerNew),
            t.kind_ns(Kind::Plan) + t.kind_ns(Kind::Assignment),
        ),
        "s",
        SETUP,
    );
    push(
        "runner.new_self_s".into(),
        signed_secs(t.kind_ns(Kind::RunnerNew), t.kind_ns(Kind::SchedulerNew)),
        "s",
        SETUP,
    );
    for (i, p) in policies.iter().enumerate() {
        let ns = t.self_ns[Kind::RunnerNew as usize][i];
        push(format!("runner.new_s.{}", p.key()), secs(ns), "s", SETUP);
    }
    for (i, p) in policies.iter().enumerate() {
        let ns = t.self_ns[Kind::RunnerRun as usize][i];
        push(
            format!("runner.run_s.{}", p.key()),
            secs(ns),
            "s",
            "the matching cycles_per_s.<policy> on every workload",
        );
    }

    push("workloads.build_s".into(), build_s, "s", INPUTS);
    push(
        "fleet.env_draw_s".into(),
        secs(t.kind_ns(Kind::EnvDraw)),
        "s",
        INPUTS,
    );

    push(
        "agg.record_s".into(),
        secs(t.kind_ns(Kind::AggRecord)),
        "s",
        AGG,
    );
    push(
        "agg.merge_s".into(),
        secs(t.kind_ns(Kind::AggMerge)),
        "s",
        AGG,
    );
    push(
        "agg.footprint_bytes".into(),
        t.footprint_bytes as f64,
        "bytes",
        AGG,
    );

    push(
        "instance.produced".into(),
        per(t.produced),
        "count",
        INSTANCE,
    );
    push(
        "instance.delivered".into(),
        per(t.delivered),
        "count",
        INSTANCE,
    );
    push(
        "instance.peak_live".into(),
        t.peak_live as f64,
        "count",
        INSTANCE,
    );

    push(
        "trace.overhead_ratio".into(),
        ratio(t.driver_loop_ns, t.runner_run_ns),
        "ratio",
        "none: traced driver loop / untraced Runner::run on the same runs",
    );
    out
}

/// The two checks the workload split rests on, as report lines:
/// CoEfficient's self time per layer, largest first, and CoEfficient's
/// `Runner::new` against its `Runner::run`.
pub fn explain(t: &LayerTotals) -> Vec<String> {
    let c = policy_index(coefficient::COEFFICIENT);
    let layers = [
        ("policy.static_frame", Kind::StaticFrame),
        ("policy.dynamic_frame", Kind::DynamicFrame),
        ("policy.on_outcome", Kind::OnOutcome),
        ("policy.produce", Kind::Produce),
        ("policy.purge", Kind::Purge),
        ("bus.run_cycle (self)", Kind::RunCycle),
        ("fault.draw", Kind::FaultDraw),
        ("monitor.observe", Kind::MonitorObserve),
        ("runner.unattributed", Kind::RunLoop),
        ("plan.theorem1", Kind::Plan),
        ("assignment.build", Kind::Assignment),
    ];
    let mut ranked: Vec<(&str, u64)> = layers
        .iter()
        .map(|&(name, kind)| (name, t.self_ns[kind as usize][c]))
        .collect();
    ranked.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    let ranking = ranked
        .iter()
        .take(4)
        .map(|(name, ns)| format!("{name} {:.4} s", *ns as f64 * 1e-9 / t.passes.max(1) as f64))
        .collect::<Vec<_>>()
        .join(", ");
    let new_ns = t.self_ns[Kind::RunnerNew as usize][c];
    let run_ns = t.self_ns[Kind::RunnerRun as usize][c];
    vec![
        format!("CoEfficient self time by layer, largest first: {ranking}"),
        format!(
            "CoEfficient Runner::new {:.4} s vs Runner::run {:.4} s per pass: set-up {} the steady state",
            new_ns as f64 * 1e-9 / t.passes.max(1) as f64,
            run_ns as f64 * 1e-9 / t.passes.max(1) as f64,
            if new_ns > run_ns { "exceeds" } else { "is below" }
        ),
    ]
}
