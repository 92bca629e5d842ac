//! Experiment definitions, one per paper figure.
//!
//! Shared conventions:
//!
//! * the *running time* figures (1, 2) measure the makespan of producing a
//!   fixed number of message instances and draining every pending
//!   transmission ([`StopCondition::ProducedInstances`]);
//! * the rate figures (3, 4, 5) run for a fixed simulated horizon and
//!   report utilization / latency / miss ratios;
//! * every run is deterministic under its seed; the same seed is used for
//!   both policies of a comparison so they see identical workloads and
//!   fault processes.

use event_sim::SimDuration;

use coefficient::sweep::default_threads;
use coefficient::{
    run_parallel, run_parallel_with_options, PolicyRef, RunConfig, RunReport, Runner, Scenario,
    StopCondition,
};
use flexray::config::ClusterConfig;
use flexray::signal::Signal;
use workloads::sae::IdRange;
use workloads::synthetic::SyntheticSpec;
use workloads::AperiodicMessage;

/// Default seed of the whole suite.
pub const SEED: u64 = 20140630; // ICDCS 2014 ;-)

/// Runs one configuration to a report.
pub fn run_once(
    cluster: ClusterConfig,
    scenario: Scenario,
    static_messages: Vec<Signal>,
    dynamic_messages: Vec<AperiodicMessage>,
    policy: PolicyRef,
    stop: StopCondition,
    seed: u64,
) -> RunReport {
    Runner::new(RunConfig {
        cluster,
        scenario,
        static_messages,
        dynamic_messages,
        policy,
        stop,
        seed,
        trace: Default::default(),
    })
    .expect("experiment configuration must be schedulable")
    .run()
}

// ---------------------------------------------------------------------------
// Figures 1 & 2 — running time
// ---------------------------------------------------------------------------

/// One point of Figures 1/2.
#[derive(Debug, Clone)]
pub struct RunningTimeRow {
    /// `"BBW+ACC"` or `"synthetic"`.
    pub workload: &'static str,
    /// Static slot configuration (80 or 120).
    pub slots: u64,
    /// Scheduling policy.
    pub policy: &'static str,
    /// Scenario label (`BER-7` for Fig 1, `BER-9` for Fig 2).
    pub scenario: &'static str,
    /// Number of message instances delivered (the x axis).
    pub messages: u64,
    /// Makespan in simulated seconds (the y axis).
    pub running_time_s: f64,
}

/// The static workload of the combined real-world runs: BBW + ACC.
pub fn bbw_acc_messages() -> Vec<Signal> {
    let mut m = workloads::bbw::message_set();
    m.extend(workloads::acc::message_set());
    m
}

fn id_range_for(slots: u64) -> IdRange {
    if slots >= 120 {
        IdRange::For120Slots
    } else {
        IdRange::For80Slots
    }
}

/// Figure 1 (scenario `BER-7`) / Figure 2 (scenario `BER-9`): running time
/// of the BBW+ACC and synthetic workloads for 80- and 120-slot
/// configurations, sweeping the produced-instance count.
pub fn fig_running_time(scenario: &Scenario, message_counts: &[u64]) -> Vec<RunningTimeRow> {
    // Build every cell first, then execute the whole figure through the
    // parallel sweep primitive. Each cell keeps the exact serial-era
    // RunConfig (same SEED for both policies of a comparison), so the rows
    // are bit-identical to the old one-at-a-time loop.
    let mut meta = Vec::new();
    let mut configs = Vec::new();
    for &slots in &[80u64, 120] {
        let cluster = ClusterConfig::paper_static(slots);
        let sae = workloads::sae::message_set(id_range_for(slots), SEED);
        for (workload, statics) in [
            ("BBW+ACC", bbw_acc_messages()),
            (
                "synthetic",
                workloads::synthetic::message_set(
                    &SyntheticSpec {
                        count: 40,
                        ..SyntheticSpec::default()
                    },
                    SEED,
                ),
            ),
        ] {
            for policy in [coefficient::COEFFICIENT, coefficient::FSPEC] {
                for &n in message_counts {
                    meta.push((workload, slots, policy, n));
                    configs.push(RunConfig {
                        cluster: cluster.clone(),
                        scenario: scenario.clone(),
                        static_messages: statics.clone(),
                        dynamic_messages: sae.clone(),
                        policy,
                        stop: StopCondition::DeliveredInstances(n),
                        seed: SEED,
                        trace: Default::default(),
                    });
                }
            }
        }
    }
    let reports = run_parallel(configs, default_threads())
        .expect("experiment configuration must be schedulable");
    meta.into_iter()
        .zip(reports)
        .map(|((workload, slots, policy, n), report)| RunningTimeRow {
            workload,
            slots,
            policy: policy.label(),
            scenario: scenario.name,
            messages: n,
            running_time_s: report.running_time.as_secs_f64(),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 3 — bandwidth utilization
// ---------------------------------------------------------------------------

/// One bar of Figure 3.
#[derive(Debug, Clone)]
pub struct BandwidthRow {
    /// Number of minislots (25/50/75/100).
    pub minislots: u64,
    /// Scheduling policy.
    pub policy: &'static str,
    /// Combined two-channel bus utilization in percent.
    pub utilization_pct: f64,
}

/// The static workload of the Figure 3–5 experiments: a synthetic set
/// sized to the 80-slot static segment of the `paper_mixed` geometry.
pub fn dynamic_experiment_statics() -> Vec<Signal> {
    workloads::synthetic::message_set(
        &SyntheticSpec {
            count: 40,
            ..SyntheticSpec::default()
        },
        SEED,
    )
}

/// Figure 3: bandwidth utilization for 25–100 minislots, CoEfficient vs
/// FSPEC (scenario `BER-7`, 1 s horizon).
pub fn fig3_bandwidth() -> Vec<BandwidthRow> {
    let mut meta = Vec::new();
    let mut configs = Vec::new();
    for &ms in &[25u64, 50, 75, 100] {
        let cluster = ClusterConfig::paper_mixed(ms);
        for policy in [coefficient::COEFFICIENT, coefficient::FSPEC] {
            meta.push((ms, policy));
            configs.push(RunConfig {
                cluster: cluster.clone(),
                scenario: Scenario::ber7(),
                static_messages: dynamic_experiment_statics(),
                dynamic_messages: workloads::sae::message_set(IdRange::For80Slots, SEED),
                policy,
                stop: StopCondition::Horizon(SimDuration::from_secs(1)),
                seed: SEED,
                trace: Default::default(),
            });
        }
    }
    let reports = run_parallel(configs, default_threads())
        .expect("experiment configuration must be schedulable");
    meta.into_iter()
        .zip(reports)
        .map(|((ms, policy), report)| BandwidthRow {
            minislots: ms,
            policy: policy.label(),
            utilization_pct: report.utilization * 100.0,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 4 — transmission latency
// ---------------------------------------------------------------------------

/// Which traffic class a latency row reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Segment {
    /// Static-segment (time-triggered) messages — Fig 4(a)/(b).
    Static,
    /// Dynamic-segment (event-triggered) messages — Fig 4(c)/(d).
    Dynamic,
}

/// One point of Figure 4.
#[derive(Debug, Clone)]
pub struct LatencyRow {
    /// `"synthetic"` or `"BBW+ACC"`.
    pub workload: &'static str,
    /// Static or dynamic segment.
    pub segment: Segment,
    /// Minislot configuration (50 or 100).
    pub minislots: u64,
    /// Scenario label.
    pub scenario: &'static str,
    /// Scheduling policy.
    pub policy: &'static str,
    /// Mean transmission latency in milliseconds.
    pub mean_latency_ms: f64,
}

/// Figure 4: average transmission latency of static and dynamic segments
/// for 50/100 minislots under both scenarios, for one workload.
pub fn fig4_latency(workload: &'static str) -> Vec<LatencyRow> {
    let statics = match workload {
        "BBW+ACC" => bbw_acc_messages(),
        _ => dynamic_experiment_statics(),
    };
    let mut meta = Vec::new();
    let mut configs = Vec::new();
    for &ms in &[50u64, 100] {
        let cluster = ClusterConfig::paper_mixed(ms);
        for scenario in [Scenario::ber7(), Scenario::ber9()] {
            for policy in [coefficient::COEFFICIENT, coefficient::FSPEC] {
                meta.push((ms, scenario.name, policy));
                configs.push(RunConfig {
                    cluster: cluster.clone(),
                    scenario: scenario.clone(),
                    static_messages: statics.clone(),
                    dynamic_messages: workloads::sae::message_set(IdRange::For80Slots, SEED),
                    policy,
                    stop: StopCondition::Horizon(SimDuration::from_secs(2)),
                    seed: SEED,
                    trace: Default::default(),
                });
            }
        }
    }
    let reports = run_parallel(configs, default_threads())
        .expect("experiment configuration must be schedulable");
    let mut rows = Vec::new();
    for ((ms, scenario, policy), report) in meta.into_iter().zip(reports) {
        for (segment, summary) in [
            (Segment::Static, &report.static_latency),
            (Segment::Dynamic, &report.dynamic_latency),
        ] {
            rows.push(LatencyRow {
                workload,
                segment,
                minislots: ms,
                scenario,
                policy: policy.label(),
                mean_latency_ms: summary.mean_millis_f64(),
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 5 — deadline miss ratio
// ---------------------------------------------------------------------------

/// One point of Figure 5.
#[derive(Debug, Clone)]
pub struct MissRatioRow {
    /// Number of minislots (25–100).
    pub minislots: u64,
    /// Scenario label.
    pub scenario: &'static str,
    /// Scheduling policy.
    pub policy: &'static str,
    /// Combined deadline miss ratio in percent.
    pub miss_pct: f64,
}

/// Figure 5: deadline miss ratio for 25–100 minislots under both
/// scenarios.
pub fn fig5_miss_ratio() -> Vec<MissRatioRow> {
    let mut meta = Vec::new();
    let mut configs = Vec::new();
    for &ms in &[25u64, 50, 75, 100] {
        let cluster = ClusterConfig::paper_mixed(ms);
        for scenario in [Scenario::ber7(), Scenario::ber9()] {
            for policy in [coefficient::COEFFICIENT, coefficient::FSPEC] {
                meta.push((ms, scenario.name, policy));
                configs.push(RunConfig {
                    cluster: cluster.clone(),
                    scenario: scenario.clone(),
                    static_messages: dynamic_experiment_statics(),
                    dynamic_messages: workloads::sae::message_set(IdRange::For80Slots, SEED),
                    policy,
                    stop: StopCondition::Horizon(SimDuration::from_secs(1)),
                    seed: SEED,
                    trace: Default::default(),
                });
            }
        }
    }
    let reports = run_parallel(configs, default_threads())
        .expect("experiment configuration must be schedulable");
    meta.into_iter()
        .zip(reports)
        .map(|((ms, scenario, policy), report)| MissRatioRow {
            minislots: ms,
            scenario,
            policy: policy.label(),
            miss_pct: report.miss_ratio() * 100.0,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Reproduction verdict
// ---------------------------------------------------------------------------

/// One checked claim of the paper, with the measured values behind it.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The claim, as the paper states it.
    pub claim: &'static str,
    /// Whether the reproduction confirms it.
    pub pass: bool,
    /// The measured evidence.
    pub evidence: String,
}

/// Checks every headline claim of the paper's evaluation against fresh
/// runs and returns a verdict per claim. Used by `experiments verify`.
pub fn verify_reproduction() -> Vec<Verdict> {
    let mut verdicts = Vec::new();

    // Claim 1 (Figs 1/2): CoEfficient completes message transmission
    // faster than FSPEC, for every workload and slot configuration.
    let rows = fig_running_time(&Scenario::ber7(), &[400]);
    let mut worst_ratio = f64::INFINITY;
    let mut all_faster = true;
    for workload in ["BBW+ACC", "synthetic"] {
        for slots in [80, 120] {
            let co = rows
                .iter()
                .find(|r| r.workload == workload && r.slots == slots && r.policy == "CoEfficient")
                .expect("row exists");
            let fs = rows
                .iter()
                .find(|r| r.workload == workload && r.slots == slots && r.policy == "FSPEC")
                .expect("row exists");
            all_faster &= co.running_time_s < fs.running_time_s;
            worst_ratio = worst_ratio.min(fs.running_time_s / co.running_time_s);
        }
    }
    verdicts.push(Verdict {
        claim: "running time: CoEfficient completes the message set first (Figs 1-2)",
        pass: all_faster,
        evidence: format!(
            "FSPEC/CoEfficient makespan ratio >= {worst_ratio:.2} on every sweep point"
        ),
    });

    // Claim 2 (Fig 2 vs 1): the stricter reliability goal costs CoEfficient
    // running time.
    let r7 = fig_running_time(&Scenario::ber7(), &[400]);
    let r9 = fig_running_time(&Scenario::ber9(), &[400]);
    let slower = r7
        .iter()
        .zip(&r9)
        .filter(|(a, b)| a.policy == "CoEfficient" && b.policy == "CoEfficient")
        .all(|(a, b)| b.running_time_s >= a.running_time_s);
    verdicts.push(Verdict {
        claim: "higher reliability goals increase running time (Fig 2 vs Fig 1)",
        pass: slower,
        evidence: "BER-9 CoEfficient makespans >= BER-7 at every point".into(),
    });

    // Claim 3 (Fig 3): CoEfficient improves bandwidth utilization at every
    // minislot count.
    let rows = fig3_bandwidth();
    let mut min_gain = f64::INFINITY;
    for ms in [25, 50, 75, 100] {
        let co = rows
            .iter()
            .find(|r| r.minislots == ms && r.policy == "CoEfficient")
            .expect("row");
        let fs = rows
            .iter()
            .find(|r| r.minislots == ms && r.policy == "FSPEC")
            .expect("row");
        min_gain = min_gain.min(co.utilization_pct - fs.utilization_pct);
    }
    verdicts.push(Verdict {
        claim: "bandwidth utilization: CoEfficient above FSPEC at 25-100 minislots (Fig 3)",
        pass: min_gain > 0.0,
        evidence: format!("minimum gain {min_gain:.1} percentage points"),
    });

    // Claim 4 (Fig 4): lower latency in both segments, both scenarios.
    let mut all_lower = true;
    let mut evidence = String::new();
    for workload in ["synthetic", "BBW+ACC"] {
        let rows = fig4_latency(workload);
        for segment in [Segment::Static, Segment::Dynamic] {
            let co: f64 = rows
                .iter()
                .filter(|r| r.segment == segment && r.policy == "CoEfficient")
                .map(|r| r.mean_latency_ms)
                .sum();
            let fs: f64 = rows
                .iter()
                .filter(|r| r.segment == segment && r.policy == "FSPEC")
                .map(|r| r.mean_latency_ms)
                .sum();
            all_lower &= co < fs;
            evidence.push_str(&format!(
                "{workload}/{segment:?}: -{:.0}% ",
                (1.0 - co / fs) * 100.0
            ));
        }
    }
    verdicts.push(Verdict {
        claim: "transmission latency: CoEfficient below FSPEC in both segments (Fig 4)",
        pass: all_lower,
        evidence,
    });

    // Claim 5 (Fig 5): an order of magnitude fewer deadline misses.
    let rows = fig5_miss_ratio();
    let co_max = rows
        .iter()
        .filter(|r| r.policy == "CoEfficient")
        .map(|r| r.miss_pct)
        .fold(0.0f64, f64::max);
    let fs_min = rows
        .iter()
        .filter(|r| r.policy == "FSPEC")
        .map(|r| r.miss_pct)
        .fold(f64::INFINITY, f64::min);
    verdicts.push(Verdict {
        claim: "deadline miss ratio: CoEfficient far below FSPEC at every sweep point (Fig 5)",
        pass: co_max < fs_min,
        evidence: format!("CoEfficient max {co_max:.2}% vs FSPEC min {fs_min:.2}%"),
    });

    verdicts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_shape_coefficient_faster() {
        let rows = fig_running_time(&Scenario::ber7(), &[200]);
        // For every (workload, slots) pair, CoEfficient must beat FSPEC.
        for workload in ["BBW+ACC", "synthetic"] {
            for slots in [80, 120] {
                let co = rows
                    .iter()
                    .find(|r| {
                        r.workload == workload && r.slots == slots && r.policy == "CoEfficient"
                    })
                    .unwrap();
                let fs = rows
                    .iter()
                    .find(|r| r.workload == workload && r.slots == slots && r.policy == "FSPEC")
                    .unwrap();
                assert!(
                    co.running_time_s < fs.running_time_s,
                    "{workload}/{slots}: {co:?} vs {fs:?}"
                );
            }
        }
    }

    #[test]
    fn fig3_shape_coefficient_higher_utilization() {
        let rows = fig3_bandwidth();
        for ms in [25, 50, 75, 100] {
            let co = rows
                .iter()
                .find(|r| r.minislots == ms && r.policy == "CoEfficient")
                .unwrap();
            let fs = rows
                .iter()
                .find(|r| r.minislots == ms && r.policy == "FSPEC")
                .unwrap();
            assert!(
                co.utilization_pct > fs.utilization_pct,
                "{ms} minislots: {co:?} vs {fs:?}"
            );
        }
    }

    #[test]
    fn ablation_shows_each_mechanism_contributes() {
        let rows = ablation();
        let find = |v: &str| rows.iter().find(|r| r.variant == v).unwrap();
        let full = find("CoEfficient (full)");
        // Every ablated variant delivers at most as much as the full scheme
        // (tiny scheduling noise tolerated).
        for r in &rows {
            assert!(
                r.delivered <= full.delivered + full.delivered / 100,
                "{} outperformed the full scheme: {} vs {}",
                r.variant,
                r.delivered,
                full.delivered
            );
        }
        // Cooperative dynamic service is what keeps dynamic latency low.
        assert!(full.dynamic_latency_ms < find("– cooperative dynamic").dynamic_latency_ms,);
        // Early copies are what rescue tight static deadlines.
        assert!(full.miss_pct < find("– early copies").miss_pct);
        // The dual channel carries a large share of the throughput.
        assert!(full.utilization_pct > find("– channel B (single)").utilization_pct);
        // The baselines trail the full scheme.
        assert!(find("FSPEC").delivered < full.delivered);
        assert!(find("HOSA (dual-channel)").delivered < full.delivered);
    }

    #[test]
    fn fault_model_changes_burst_structure_not_feasibility() {
        let rows = fault_model_ablation();
        for r in &rows {
            assert!(r.delivered > 0, "{r:?}");
        }
        // CoEfficient's redundancy keeps its miss ratio far below FSPEC's
        // under either fault process.
        for model in ["bernoulli", "gilbert-elliott"] {
            let co = rows
                .iter()
                .find(|r| r.model == model && r.policy == "CoEfficient")
                .unwrap();
            let fs = rows
                .iter()
                .find(|r| r.model == model && r.policy == "FSPEC")
                .unwrap();
            assert!(co.miss_pct < fs.miss_pct, "{model}: {co:?} vs {fs:?}");
        }
    }

    #[test]
    fn reproduction_verdicts_all_pass() {
        for v in verify_reproduction() {
            assert!(v.pass, "claim failed: {} ({})", v.claim, v.evidence);
        }
    }

    #[test]
    fn fig5_shape_coefficient_fewer_misses() {
        let rows = fig5_miss_ratio();
        for ms in [25, 100] {
            let co = rows
                .iter()
                .find(|r| r.minislots == ms && r.scenario == "BER-7" && r.policy == "CoEfficient")
                .unwrap();
            let fs = rows
                .iter()
                .find(|r| r.minislots == ms && r.scenario == "BER-7" && r.policy == "FSPEC")
                .unwrap();
            assert!(
                co.miss_pct <= fs.miss_pct,
                "{ms} minislots: {co:?} vs {fs:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Ablations (beyond the paper: isolate each CoEfficient mechanism)
// ---------------------------------------------------------------------------

/// One row of the mechanism ablation.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant label.
    pub variant: &'static str,
    /// In-time deliveries over the horizon.
    pub delivered: u64,
    /// Mean static latency, ms.
    pub static_latency_ms: f64,
    /// Mean dynamic latency, ms.
    pub dynamic_latency_ms: f64,
    /// Combined utilization, %.
    pub utilization_pct: f64,
    /// Combined miss ratio, %.
    pub miss_pct: f64,
}

/// Mechanism ablation: full CoEfficient vs each feature disabled, plus the
/// HOSA-like dual-channel baseline and FSPEC (BBW+ACC + SAE on the
/// `paper_mixed(50)` geometry, 1 s horizon).
pub fn ablation() -> Vec<AblationRow> {
    use coefficient::CoefficientOptions;
    let variants: Vec<(&'static str, PolicyRef, CoefficientOptions)> = vec![
        (
            "CoEfficient (full)",
            coefficient::COEFFICIENT,
            CoefficientOptions::default(),
        ),
        (
            "– early copies",
            coefficient::COEFFICIENT,
            CoefficientOptions {
                early_copies: false,
                ..CoefficientOptions::default()
            },
        ),
        (
            "– cooperative dynamic",
            coefficient::COEFFICIENT,
            CoefficientOptions {
                cooperative_dynamic: false,
                ..CoefficientOptions::default()
            },
        ),
        (
            "– channel B (single)",
            coefficient::COEFFICIENT,
            CoefficientOptions {
                dual_channel: false,
                ..CoefficientOptions::default()
            },
        ),
        (
            "HOSA (dual-channel)",
            coefficient::HOSA,
            CoefficientOptions::default(),
        ),
        ("FSPEC", coefficient::FSPEC, CoefficientOptions::default()),
    ];
    let mut statics = bbw_acc_messages();
    statics.truncate(40);
    let sae = workloads::sae::message_set(IdRange::For80Slots, SEED);
    let labels: Vec<&'static str> = variants.iter().map(|&(v, ..)| v).collect();
    let cells: Vec<(RunConfig, CoefficientOptions)> = variants
        .into_iter()
        .map(|(_, policy, options)| {
            (
                RunConfig {
                    cluster: ClusterConfig::paper_mixed(50),
                    scenario: Scenario::ber7(),
                    static_messages: statics.clone(),
                    dynamic_messages: sae.clone(),
                    policy,
                    stop: StopCondition::Horizon(SimDuration::from_secs(1)),
                    seed: SEED,
                    trace: Default::default(),
                },
                options,
            )
        })
        .collect();
    let reports = run_parallel_with_options(cells, default_threads())
        .expect("ablation configuration must be schedulable");
    labels
        .into_iter()
        .zip(reports)
        .map(|(variant, report)| AblationRow {
            variant,
            delivered: report.delivered,
            static_latency_ms: report.static_latency.mean_millis_f64(),
            dynamic_latency_ms: report.dynamic_latency.mean_millis_f64(),
            utilization_pct: report.utilization * 100.0,
            miss_pct: report.miss_ratio() * 100.0,
        })
        .collect()
}

/// One row of the fault-model ablation.
#[derive(Debug, Clone)]
pub struct FaultModelRow {
    /// Fault process label.
    pub model: &'static str,
    /// Scheduling policy.
    pub policy: &'static str,
    /// In-time deliveries.
    pub delivered: u64,
    /// Frames corrupted by injection.
    pub corrupted: u64,
    /// Combined miss ratio, %.
    pub miss_pct: f64,
}

/// Fault-model ablation: independent Bernoulli faults vs a bursty
/// Gilbert–Elliott channel with a comparable average rate, at an elevated
/// BER so corruption is visible over a 1 s horizon.
pub fn fault_model_ablation() -> Vec<FaultModelRow> {
    use reliability::Ber;
    let base = Scenario {
        name: "BER-5",
        ber: Ber::new(1e-5).expect("constant in range"),
        gamma: 1e-7,
        unit: SimDuration::from_secs(3600),
        fault_model: coefficient::FaultModel::Bernoulli,
        campaign: None,
    };
    let scenarios = [
        ("bernoulli", base.clone()),
        ("gilbert-elliott", base.bursty()),
    ];
    let mut meta = Vec::new();
    let mut configs = Vec::new();
    for (model, scenario) in scenarios {
        for policy in [coefficient::COEFFICIENT, coefficient::FSPEC] {
            meta.push((model, policy));
            configs.push(RunConfig {
                cluster: ClusterConfig::paper_mixed(50),
                scenario: scenario.clone(),
                static_messages: dynamic_experiment_statics(),
                dynamic_messages: workloads::sae::message_set(IdRange::For80Slots, SEED),
                policy,
                stop: StopCondition::Horizon(SimDuration::from_secs(1)),
                seed: SEED,
                trace: Default::default(),
            });
        }
    }
    let reports = run_parallel(configs, default_threads())
        .expect("experiment configuration must be schedulable");
    meta.into_iter()
        .zip(reports)
        .map(|((model, policy), report)| FaultModelRow {
            model,
            policy: policy.label(),
            delivered: report.delivered,
            corrupted: report.corrupted,
            miss_pct: report.miss_ratio() * 100.0,
        })
        .collect()
}
