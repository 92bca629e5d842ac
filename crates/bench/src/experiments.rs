//! Experiment definitions, one per paper figure.
//!
//! Shared conventions:
//!
//! * each experiment returns its runs as `(key, RunReport)` pairs in a
//!   fixed order; the key holds only what the report does not carry
//!   (the report names its policy and scenario), and the `experiments`
//!   binary computes every printed column from the report;
//! * the *running time* figures (1, 2) measure the makespan of delivering
//!   a fixed number of message instances
//!   ([`StopCondition::DeliveredInstances`]);
//! * the rate figures (4, 5) and the ablations run [`mixed_config`] for
//!   a fixed simulated horizon; Figure 3 reads Figure 5's `BER-7` runs;
//! * every run is deterministic under its seed; the same seed is used for
//!   both policies of a comparison so they see identical workloads and
//!   fault processes.

use event_sim::SimDuration;

use coefficient::sweep::default_threads;
use coefficient::{
    parallel_map, run_parallel, PolicyRef, RunConfig, RunReport, Runner, Scenario, StopCondition,
    TraceConfig,
};
use flexray::config::ClusterConfig;
use flexray::signal::Signal;
use workloads::sae::IdRange;
use workloads::synthetic::SyntheticSpec;

/// Default seed of the whole suite.
pub const SEED: u64 = 20140630; // ICDCS 2014 ;-)

/// An experiment's runs, each report under the key that tells it apart.
pub type Runs<K> = Vec<(K, RunReport)>;

/// A run on the `paper_mixed(minislots)` geometry: `statics` plus the
/// 80-slot SAE set drawn from `seed`, for `horizon` of simulated time,
/// tracing off. Every paper-mixed run is one: Figures 3–5, both
/// ablations, the chaos campaigns and the storm smoke.
pub fn mixed_config(
    minislots: u64,
    scenario: Scenario,
    statics: Vec<Signal>,
    policy: PolicyRef,
    horizon: SimDuration,
    seed: u64,
) -> RunConfig {
    RunConfig {
        cluster: ClusterConfig::paper_mixed(minislots),
        scenario,
        static_messages: statics,
        dynamic_messages: workloads::sae::message_set(IdRange::For80Slots, seed),
        policy,
        stop: StopCondition::Horizon(horizon),
        seed,
        trace: TraceConfig::off(),
    }
}

/// The horizon of the Figure 5 and ablation runs; Figure 4 runs two.
const SECOND: SimDuration = SimDuration::from_secs(1);

/// Runs every keyed cell through the parallel sweep primitive and pairs
/// each key with its report, in order.
fn run_cells<K>(cells: Vec<(K, RunConfig)>) -> Runs<K> {
    let (keys, configs): (Vec<K>, Vec<RunConfig>) = cells.into_iter().unzip();
    let reports = run_parallel(configs, default_threads())
        .expect("experiment configuration must be schedulable");
    keys.into_iter().zip(reports).collect()
}

/// Both policies of the paper's comparisons, CoEfficient first.
const PAPER_POLICIES: [PolicyRef; 2] = [coefficient::COEFFICIENT, coefficient::FSPEC];

// ---------------------------------------------------------------------------
// Figures 1 & 2 — running time
// ---------------------------------------------------------------------------

/// The static workload of the combined real-world runs: BBW + ACC.
pub fn bbw_acc_messages() -> Vec<Signal> {
    let mut m = workloads::bbw::message_set();
    m.extend(workloads::acc::message_set());
    m
}

/// The delivered-instance counts Figures 1 and 2 sweep.
pub const MESSAGE_COUNTS: [u64; 5] = [200, 400, 600, 800, 1000];

/// A Figure 1 or 2 run's key: `(workload, slots, messages)`.
pub type RunningTimeKey = (&'static str, u64, u64);

/// Figure 1 (scenario `BER-7`) / Figure 2 (scenario `BER-9`): running time
/// of the BBW+ACC and synthetic workloads for 80- and 120-slot
/// configurations, sweeping the delivered-instance count. Keyed by
/// `(workload, slots, messages)`; the makespan is the report's
/// `running_time`.
pub fn fig_running_time(scenario: &Scenario, message_counts: &[u64]) -> Runs<RunningTimeKey> {
    let mut cells = Vec::new();
    for (slots, ids) in [(80u64, IdRange::For80Slots), (120, IdRange::For120Slots)] {
        let cluster = ClusterConfig::paper_static(slots);
        let sae = workloads::sae::message_set(ids, SEED);
        for (workload, statics) in [
            ("BBW+ACC", bbw_acc_messages()),
            ("synthetic", dynamic_experiment_statics()),
        ] {
            for policy in PAPER_POLICIES {
                for &n in message_counts {
                    let config = RunConfig {
                        cluster: cluster.clone(),
                        scenario: scenario.clone(),
                        static_messages: statics.clone(),
                        dynamic_messages: sae.clone(),
                        policy,
                        stop: StopCondition::DeliveredInstances(n),
                        seed: SEED,
                        trace: TraceConfig::off(),
                    };
                    cells.push(((workload, slots, n), config));
                }
            }
        }
    }
    run_cells(cells)
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

// ---------------------------------------------------------------------------
// Figure 4 — transmission latency
// ---------------------------------------------------------------------------

/// Which traffic class a Figure 4 panel reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Segment {
    /// Static-segment (time-triggered) messages — Fig 4(a)/(b).
    Static,
    /// Dynamic-segment (event-triggered) messages — Fig 4(c)/(d).
    Dynamic,
}

impl Segment {
    /// The mean transmission latency of this segment's messages in
    /// `report`, in milliseconds.
    pub fn mean_latency_ms(self, report: &RunReport) -> f64 {
        match self {
            Segment::Static => report.static_latency.mean_millis_f64(),
            Segment::Dynamic => report.dynamic_latency.mean_millis_f64(),
        }
    }
}

/// Figure 4: average transmission latency of static and dynamic segments
/// for 50/100 minislots under both scenarios, for one workload (2 s
/// horizon). Keyed by the minislot count.
pub fn fig4_latency(workload: &str) -> Runs<u64> {
    let statics = match workload {
        "BBW+ACC" => bbw_acc_messages(),
        _ => dynamic_experiment_statics(),
    };
    let mut cells = Vec::new();
    for &ms in &[50u64, 100] {
        for scenario in [Scenario::ber7(), Scenario::ber9()] {
            for policy in PAPER_POLICIES {
                let statics = statics.clone();
                let config = mixed_config(ms, scenario.clone(), statics, policy, SECOND * 2, SEED);
                cells.push((ms, config));
            }
        }
    }
    run_cells(cells)
}

// ---------------------------------------------------------------------------
// Figures 5 and 3 — deadline miss ratio and bandwidth utilization
// ---------------------------------------------------------------------------

/// Figure 5: deadline miss ratio for 25–100 minislots under both
/// scenarios (1 s horizon). Keyed by the minislot count.
pub fn fig5_miss_ratio() -> Runs<u64> {
    let mut cells = Vec::new();
    for &ms in &[25u64, 50, 75, 100] {
        for scenario in [Scenario::ber7(), Scenario::ber9()] {
            for policy in PAPER_POLICIES {
                let statics = dynamic_experiment_statics();
                let config = mixed_config(ms, scenario.clone(), statics, policy, SECOND, SEED);
                cells.push((ms, config));
            }
        }
    }
    run_cells(cells)
}

/// Figure 3: bandwidth utilization is the paper's second metric of Figure
/// 5's `BER-7` runs (25–100 minislots, CoEfficient vs FSPEC).
pub fn fig3_runs(fig5: &Runs<u64>) -> impl Iterator<Item = &(u64, RunReport)> {
    fig5.iter().filter(|(_, r)| r.scenario == "BER-7")
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

/// The report of the one run of `policy` under `key`.
fn run_of<'a, K: PartialEq>(runs: &'a Runs<K>, key: &K, policy: PolicyRef) -> &'a RunReport {
    runs.iter()
        .find(|(k, r)| k == key && r.policy == policy)
        .map(|(_, r)| r)
        .expect("run exists")
}

/// Checks every headline claim of the paper's evaluation against the
/// figures' runs and returns a verdict per claim: Figures 1 and 2 (claims
/// 1–2 read their 400-message points), Figure 4 under each named workload
/// and Figure 5 (claim 3 reads its `BER-7` half, as Figure 3 does). It
/// runs nothing itself. Used by `experiments verify`.
pub fn verify_reproduction(
    fig1: &Runs<RunningTimeKey>,
    fig2: &Runs<RunningTimeKey>,
    fig4: [(&str, &Runs<u64>); 2],
    fig5: &Runs<u64>,
) -> Vec<Verdict> {
    use coefficient::{COEFFICIENT, FSPEC};
    let mut verdicts = Vec::new();

    // Claim 1 (Figs 1/2): CoEfficient completes message transmission
    // faster than FSPEC, for every workload and slot configuration.
    let mut worst_ratio = f64::INFINITY;
    let mut all_faster = true;
    for workload in ["BBW+ACC", "synthetic"] {
        for slots in [80, 120] {
            let seconds = |policy| {
                let report = run_of(fig1, &(workload, slots, 400), policy);
                report.running_time.as_secs_f64()
            };
            let (co, fs) = (seconds(COEFFICIENT), seconds(FSPEC));
            all_faster &= co < fs;
            worst_ratio = worst_ratio.min(fs / co);
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
    let slower = fig1
        .iter()
        .zip(fig2)
        .filter(|((key, a), _)| key.2 == 400 && a.policy == COEFFICIENT)
        .all(|((_, a), (_, b))| b.running_time.as_secs_f64() >= a.running_time.as_secs_f64());
    verdicts.push(Verdict {
        claim: "higher reliability goals increase running time (Fig 2 vs Fig 1)",
        pass: slower,
        evidence: "BER-9 CoEfficient makespans >= BER-7 at every point".into(),
    });

    // Claim 3 (Fig 3): CoEfficient improves bandwidth utilization at every
    // minislot count.
    let utilization = |policy| fig3_runs(fig5).filter(move |(_, r)| r.policy == policy);
    let min_gain = utilization(COEFFICIENT)
        .zip(utilization(FSPEC))
        .map(|((_, co), (_, fs))| co.utilization * 100.0 - fs.utilization * 100.0)
        .fold(f64::INFINITY, f64::min);
    verdicts.push(Verdict {
        claim: "bandwidth utilization: CoEfficient above FSPEC at 25-100 minislots (Fig 3)",
        pass: min_gain > 0.0,
        evidence: format!("minimum gain {min_gain:.1} percentage points"),
    });

    // Claim 4 (Fig 4): lower latency in both segments, both scenarios.
    let mut all_lower = true;
    let mut evidence = String::new();
    for (workload, runs) in fig4 {
        for segment in [Segment::Static, Segment::Dynamic] {
            let total = |policy| -> f64 {
                runs.iter()
                    .filter(|(_, r)| r.policy == policy)
                    .map(|(_, r)| segment.mean_latency_ms(r))
                    .sum()
            };
            let (co, fs) = (total(COEFFICIENT), total(FSPEC));
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
    let miss_pcts = |policy| {
        fig5.iter()
            .filter(move |(_, r)| r.policy == policy)
            .map(|(_, r)| r.miss_ratio() * 100.0)
    };
    let co_max = miss_pcts(COEFFICIENT).fold(0.0f64, f64::max);
    let fs_min = miss_pcts(FSPEC).fold(f64::INFINITY, f64::min);
    verdicts.push(Verdict {
        claim: "deadline miss ratio: CoEfficient far below FSPEC at every sweep point (Fig 5)",
        pass: co_max < fs_min,
        evidence: format!("CoEfficient max {co_max:.2}% vs FSPEC min {fs_min:.2}%"),
    });

    verdicts
}

// ---------------------------------------------------------------------------
// Ablations (beyond the paper: isolate each CoEfficient mechanism)
// ---------------------------------------------------------------------------

/// Mechanism ablation: full CoEfficient vs each feature disabled, plus the
/// HOSA-like dual-channel baseline and FSPEC (BBW+ACC + SAE on the
/// `paper_mixed(50)` geometry, 1 s horizon). Keyed by the variant label.
pub fn ablation() -> Runs<&'static str> {
    use coefficient::CoefficientOptions;
    let full = CoefficientOptions::default();
    let variants: Vec<(&'static str, PolicyRef, CoefficientOptions)> = vec![
        ("CoEfficient (full)", coefficient::COEFFICIENT, full),
        (
            "– early copies",
            coefficient::COEFFICIENT,
            CoefficientOptions {
                early_copies: false,
                ..full
            },
        ),
        (
            "– cooperative dynamic",
            coefficient::COEFFICIENT,
            CoefficientOptions {
                cooperative_dynamic: false,
                ..full
            },
        ),
        (
            "– channel B (single)",
            coefficient::COEFFICIENT,
            CoefficientOptions {
                dual_channel: false,
                ..full
            },
        ),
        ("HOSA (dual-channel)", coefficient::HOSA, full),
        ("FSPEC", coefficient::FSPEC, full),
    ];
    let mut statics = bbw_acc_messages();
    statics.truncate(40);
    parallel_map(variants, default_threads(), |(variant, policy, options)| {
        let config = mixed_config(50, Scenario::ber7(), statics.clone(), policy, SECOND, SEED);
        let run = Runner::new_with_options(config, options).map(Runner::run);
        (
            variant,
            run.expect("ablation configuration must be schedulable"),
        )
    })
}

/// Fault-model ablation: independent Bernoulli faults vs a bursty
/// Gilbert–Elliott channel with a comparable average rate, at an elevated
/// BER so corruption is visible over a 1 s horizon. Keyed by the fault
/// model label.
pub fn fault_model_ablation() -> Runs<&'static str> {
    use reliability::Ber;
    let base = Scenario {
        name: "BER-5",
        ber: Ber::new(1e-5).expect("constant in range"),
        gamma: 1e-7,
        unit: SimDuration::from_secs(3600),
        fault_model: coefficient::FaultModel::Bernoulli,
        campaign: None,
    };
    let mut cells = Vec::new();
    for (model, scenario) in [
        ("bernoulli", base.clone()),
        ("gilbert-elliott", base.bursty()),
    ] {
        for policy in PAPER_POLICIES {
            let statics = dynamic_experiment_statics();
            let config = mixed_config(50, scenario.clone(), statics, policy, SECOND, SEED);
            cells.push((model, config));
        }
    }
    run_cells(cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coefficient::{COEFFICIENT, FSPEC};

    #[test]
    fn fig1_shape_coefficient_faster() {
        let runs = fig_running_time(&Scenario::ber7(), &[200]);
        // For every (workload, slots) pair, CoEfficient must beat FSPEC.
        for workload in ["BBW+ACC", "synthetic"] {
            for slots in [80, 120] {
                let key = (workload, slots, 200);
                let co = run_of(&runs, &key, COEFFICIENT).running_time;
                let fs = run_of(&runs, &key, FSPEC).running_time;
                assert!(co < fs, "{workload}/{slots}: {co:?} vs {fs:?}");
            }
        }
    }

    #[test]
    fn ablation_shows_each_mechanism_contributes() {
        let runs = ablation();
        let find = |v: &str| &runs.iter().find(|(k, _)| *k == v).unwrap().1;
        let full = find("CoEfficient (full)");
        // Every ablated variant delivers at most as much as the full scheme
        // (tiny scheduling noise tolerated).
        for (variant, r) in &runs {
            assert!(
                r.delivered <= full.delivered + full.delivered / 100,
                "{variant} outperformed the full scheme: {} vs {}",
                r.delivered,
                full.delivered
            );
        }
        // Cooperative dynamic service is what keeps dynamic latency low.
        let dynamic = |r| Segment::Dynamic.mean_latency_ms(r);
        assert!(dynamic(full) < dynamic(find("– cooperative dynamic")));
        // Early copies are what rescue tight static deadlines.
        assert!(full.miss_ratio() < find("– early copies").miss_ratio());
        // The dual channel carries a large share of the throughput.
        assert!(full.utilization > find("– channel B (single)").utilization);
        // The baselines trail the full scheme.
        assert!(find("FSPEC").delivered < full.delivered);
        assert!(find("HOSA (dual-channel)").delivered < full.delivered);
    }

    #[test]
    fn fault_model_changes_burst_structure_not_feasibility() {
        let runs = fault_model_ablation();
        for (model, r) in &runs {
            assert!(r.delivered > 0, "{model}/{}", r.policy.label());
        }
        // CoEfficient's redundancy keeps its miss ratio far below FSPEC's
        // under either fault process.
        for model in ["bernoulli", "gilbert-elliott"] {
            let co = run_of(&runs, &model, COEFFICIENT).miss_ratio();
            let fs = run_of(&runs, &model, FSPEC).miss_ratio();
            assert!(co < fs, "{model}: {co} vs {fs}");
        }
    }

    #[test]
    fn reproduction_verdicts_pass_and_read_only_the_runs_they_are_handed() {
        let fig1 = fig_running_time(&Scenario::ber7(), &MESSAGE_COUNTS);
        let fig2 = fig_running_time(&Scenario::ber9(), &MESSAGE_COUNTS);
        let (synthetic, bbw_acc) = (fig4_latency("synthetic"), fig4_latency("BBW+ACC"));
        let mut fig5 = fig5_miss_ratio();
        let verify = |fig5: &Runs<u64>| {
            let fig4 = [("synthetic", &synthetic), ("BBW+ACC", &bbw_acc)];
            verify_reproduction(&fig1, &fig2, fig4, fig5)
        };
        for v in verify(&fig5) {
            assert!(v.pass, "claim failed: {} ({})", v.claim, v.evidence);
        }

        // Swap the two policies' utilization at 50 minislots, BER-7: a
        // verdict that reads these runs must now fail claim 3.
        let mut doctored = fig5
            .iter_mut()
            .filter(|(ms, r)| *ms == 50 && r.scenario == Scenario::ber7().name)
            .map(|(_, r)| r);
        let (first, second) = (doctored.next().unwrap(), doctored.next().unwrap());
        assert_ne!(first.policy, second.policy);
        std::mem::swap(&mut first.utilization, &mut second.utilization);
        let claim3 = &verify(&fig5)[2];
        assert!(claim3.claim.contains("Fig 3"), "{}", claim3.claim);
        assert!(!claim3.pass, "{}", claim3.evidence);
    }
}
