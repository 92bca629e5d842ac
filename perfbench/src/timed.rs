//! Untraced timed passes and the end-to-end metrics.
//!
//! A pass runs every input of the workload once, serially, on the calling
//! thread: `Runner::new` + `Runner::run` per config, or for the fleet the
//! shard loop one `fleet::exec` worker runs. Each run's result is checked
//! against its reference digest as it completes.

use std::time::Instant;

use coefficient::{registry, PolicyRef, RunConfig, RunReport, Runner};
use event_sim::rng::Digest;
use fleet::{FleetAggregate, FleetSpec};
use flexray::config::ClusterConfig;

use crate::stats::{median, percentile};

/// Host time of one completed run.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Registry index of the run's policy.
    pub policy: usize,
    /// Simulated cycles the run covered.
    pub cycles: u64,
    /// Host nanoseconds in `Runner::new` + `Runner::run`.
    pub host_ns: u64,
}

/// One timed pass.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Wall time of the whole pass.
    pub wall_ns: u64,
    /// One sample per completed run.
    pub samples: Vec<Sample>,
    /// Runs attempted.
    pub attempted: u64,
    /// Runs whose outcome differed from the reference.
    pub failed: u64,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric; panics on a non-finite value, which would be a bug.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        let name = name.into();
        assert!(value.is_finite(), "{name} is not finite: {value}");
        Metric { name, value, unit }
    }
}

/// Registry index of `policy`; metric suffixes follow registry order.
pub fn policy_index(policy: PolicyRef) -> usize {
    registry::all()
        .iter()
        .position(|p| p.key() == policy.key())
        .expect("policy is registered")
}

/// One pass over independent runs, each checked against its reference
/// fingerprint (`None`: the reference found it unschedulable).
pub fn runs_pass(configs: &[RunConfig], reference: &[Option<u64>]) -> Pass {
    let mut pass = Pass {
        samples: Vec::with_capacity(configs.len()),
        ..Pass::default()
    };
    let started = Instant::now();
    for (cfg, expected) in configs.iter().zip(reference) {
        let cycle_ns = cfg.cluster.cycle_duration().as_nanos().max(1);
        let policy = policy_index(cfg.policy);
        let cfg = cfg.clone();
        let t0 = Instant::now();
        let outcome = Runner::new(cfg).map(Runner::run);
        let host_ns = t0.elapsed().as_nanos() as u64;
        pass.attempted += 1;
        let fingerprint = outcome.as_ref().ok().map(RunReport::fingerprint);
        pass.failed += u64::from(fingerprint != *expected);
        if let Ok(report) = &outcome {
            pass.samples.push(Sample {
                policy,
                cycles: report.running_time.as_nanos() / cycle_ns,
                host_ns,
            });
        }
    }
    pass.wall_ns = started.elapsed().as_nanos() as u64;
    pass
}

/// One vehicle's contribution to a per-policy reference fold: a digest
/// of `(vehicle, fingerprint)`, wrapping-summed like the fleet's own, so
/// the fold is order-independent.
pub fn vehicle_fold(vehicle: u64, fingerprint: Option<u64>) -> u64 {
    let mut d = Digest::new();
    d.push(vehicle);
    match fingerprint {
        Some(fp) => d.push(fp),
        None => d.push_bytes(b"unschedulable"),
    };
    d.finish()
}

/// One serial pass over the fleet, shard by shard, as a `fleet::exec`
/// worker runs it: configs are built inside the loop, every completed
/// vehicle is recorded into a shard-local aggregate, and each shard is
/// merged into the global one. Returns the pass (failures not yet
/// counted), the aggregate and the per-policy reference folds.
pub fn fleet_pass(spec: &FleetSpec) -> (Pass, FleetAggregate, Vec<u64>) {
    let cycle_ns = ClusterConfig::paper_mixed(spec.minislots)
        .cycle_duration()
        .as_nanos()
        .max(1);
    let mut global = FleetAggregate::new(&spec.policies);
    let mut local = FleetAggregate::new(&spec.policies);
    let mut folds = vec![0u64; spec.policies.len()];
    let mut pass = Pass::default();
    let started = Instant::now();
    for shard in 0..spec.shard_count() {
        for v in spec.shard_range(shard) {
            for (p, &policy) in spec.policies.iter().enumerate() {
                let cfg = spec.vehicle_config(v, policy);
                let t0 = Instant::now();
                let outcome = Runner::new(cfg).map(Runner::run);
                let host_ns = t0.elapsed().as_nanos() as u64;
                pass.attempted += 1;
                match outcome {
                    Ok(report) => {
                        pass.samples.push(Sample {
                            policy: policy_index(policy),
                            cycles: report.running_time.as_nanos() / cycle_ns,
                            host_ns,
                        });
                        folds[p] =
                            folds[p].wrapping_add(vehicle_fold(v, Some(report.fingerprint())));
                        local.record(p, v, spec.vehicle_draw(v).condition, &report);
                    }
                    Err(_) => {
                        folds[p] = folds[p].wrapping_add(vehicle_fold(v, None));
                        local.record_unschedulable(p, v);
                    }
                }
            }
        }
        global.merge(&local);
        local.clear();
    }
    pass.wall_ns = started.elapsed().as_nanos() as u64;
    (pass, global, folds)
}

/// Runs the fleet reference counts as failed: every run if the aggregate
/// digest differs, otherwise every run of each policy whose fold differs.
pub fn fleet_failures(
    spec: &FleetSpec,
    aggregate: &FleetAggregate,
    folds: &[u64],
    reference: &[Option<u64>],
) -> u64 {
    if reference.first() != Some(&Some(aggregate.digest())) {
        return spec.vehicles * spec.policies.len() as u64;
    }
    let mismatched = folds
        .iter()
        .zip(&reference[1..])
        .filter(|(fold, expected)| Some(**fold) != **expected)
        .count() as u64;
    mismatched * spec.vehicles
}

/// Simulated cycles per host second over `samples`, restricted to one
/// policy's runs or over all of them.
fn cycles_per_s(samples: &[Sample], policy: Option<usize>) -> f64 {
    let (cycles, ns) = samples
        .iter()
        .filter(|s| policy.is_none_or(|p| s.policy == p))
        .fold((0u64, 0u64), |(c, ns), s| (c + s.cycles, ns + s.host_ns));
    if ns == 0 {
        0.0
    } else {
        cycles as f64 / (ns as f64 * 1e-9)
    }
}

/// Peak resident set size of this process in MiB: `VmHWM` from
/// `/proc/self/status`. (`getrusage`'s `ru_maxrss` would not do: it keeps
/// the high-water mark of the image the process was exec'ed from, such as
/// `cargo run`'s.)
///
/// # Errors
/// A message when the status file is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|n| n.trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Each run's best host time over the passes. Every pass runs the same
/// deterministic inputs in the same order, so sample `j` of every pass is
/// the same run; its minimum is that run's time with the least
/// interference from whatever else shares the host.
pub fn best_of(passes: &[Pass]) -> Vec<Sample> {
    let first = &passes.first().expect("at least one pass").samples;
    let mut best = first.clone();
    for pass in &passes[1..] {
        assert_eq!(pass.samples.len(), best.len(), "passes ran different runs");
        for (b, s) in best.iter_mut().zip(&pass.samples) {
            debug_assert_eq!((b.policy, b.cycles), (s.policy, s.cycles));
            b.host_ns = b.host_ns.min(s.host_ns);
        }
    }
    best
}

/// The end-to-end metrics of a timed run, in `BENCHMARK.json` order.
///
/// The host is shared, and a pass can run 30% slower than the next for
/// reasons outside the program, so every time is taken from the runs'
/// best times ([`best_of`]): `wall_s` is the sum of every run's best time
/// plus the least time any pass spent outside runs (config clones,
/// environment draws, aggregation), and the rates and run-time quantiles
/// are computed over the best times.
///
/// # Errors
/// When the peak resident set size cannot be read.
pub fn end_to_end(passes: &[Pass], setup_s: f64, tail_pct: f64) -> Result<Vec<Metric>, String> {
    let best = best_of(passes);
    let in_runs = |samples: &[Sample]| samples.iter().map(|s| s.host_ns).sum::<u64>();
    let outside_runs = passes
        .iter()
        .map(|p| p.wall_ns.saturating_sub(in_runs(&p.samples)))
        .min()
        .expect("at least one pass");
    let wall_s = (in_runs(&best) + outside_runs) as f64 * 1e-9;
    let run_ms: Vec<f64> = best.iter().map(|s| s.host_ns as f64 * 1e-6).collect();
    let mut metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("wall_s", wall_s, "s"),
        Metric::new("sim_cycles_per_s", cycles_per_s(&best, None), "cycles/s"),
        Metric::new("runs_per_s", best.len() as f64 / wall_s, "runs/s"),
        Metric::new("run_ms.p50", median(&run_ms), "ms"),
        Metric::new("run_ms.tail", percentile(&run_ms, tail_pct), "ms"),
    ];
    for (i, policy) in registry::all().iter().enumerate() {
        metrics.push(Metric::new(
            format!("cycles_per_s.{}", policy.key()),
            cycles_per_s(&best, Some(i)),
            "cycles/s",
        ));
    }
    metrics.push(Metric::new("peak_rss_mb", peak_rss_mb()?, "MiB"));
    Ok(metrics)
}
