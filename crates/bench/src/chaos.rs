//! Scripted fault-campaign scorecards and the recovery contract.
//!
//! The `experiments chaos` subcommand runs a pinned disturbance campaign
//! ([`resolve_campaign`]) against every requested policy on the paper's
//! mixed geometry, then checks each run against a declarative
//! **recovery contract** ([`ChaosContract`]):
//!
//! * run counters stay monotone non-decreasing across the whole run;
//! * after every *cleared* fault window, `service_restores` fires within
//!   the recovery budget (effective health back to `Nominal`);
//! * the health monitors never latch in `Storm` once all faults end;
//! * hard (static) deadline misses stay within the campaign's budget;
//! * service restores at least once per disjoint disturbance episode.
//!
//! The result is a per-policy resilience scorecard — recovery-latency
//! distribution, availability, worst survived outage — emitted as a
//! `coefficient-chaos/1` document. The document deliberately excludes
//! wall-clock times and thread counts, so the bytes are identical at any
//! parallelism (CI diffs a 1-thread run against an 8-thread run).

use coefficient::registry::{keys, lookup};
use coefficient::sweep::run_parallel;
use coefficient::{
    CampaignSpec, CampaignTarget, ChaosObservation, Named, PolicyRef, RunConfig, RunCounters,
    RunReport, Scenario, SchedulerError, StopCondition, TraceConfig, UnknownName,
};
use flexray::config::ClusterConfig;
use reliability::monitor::HealthState;

use crate::experiments::dynamic_experiment_statics;
use crate::json::Json;

/// Pinned seed of the CI chaos gate (see `experiments chaos`).
pub const CHAOS_SEED: u64 = 7;

/// Default campaign of the CI chaos gate.
pub const DEFAULT_CAMPAIGN: &str = "blackout";

/// Default run length in communication cycles: long enough that every
/// pinned campaign clears and the slowest policy's health decays back to
/// `Nominal` well before the horizon.
pub const DEFAULT_HORIZON_CYCLES: u64 = 220;

/// A pinned campaign: its registry name and its fault script.
#[derive(Debug)]
pub struct Campaign {
    /// Registry name (the `--campaign` value and report key).
    pub name: &'static str,
    /// Builds the campaign's script.
    pub build: fn() -> CampaignSpec,
}

impl Named for Campaign {
    const KIND: &'static str = "campaign";
    fn key(&self) -> &str {
        self.name
    }
}

const fn campaign(name: &'static str, build: fn() -> CampaignSpec) -> Campaign {
    Campaign { name, build }
}

/// Every pinned campaign. The scripts are part of the CI contract:
/// changing a window moves the chaos scorecards, so treat them like
/// golden inputs.
pub static CAMPAIGNS: [Campaign; 5] = [
    // The canonical CI gate: channel A goes completely dark for 50
    // cycles while channel B stays nominal — the failover path must
    // carry hard traffic and service must restore after cycle 90.
    campaign("blackout", || {
        CampaignSpec::new().blackout(CampaignTarget::A, 40, 50)
    }),
    // Two disjoint outages, one per channel: two recovery episodes, two
    // service restores.
    campaign("double-blackout", || {
        CampaignSpec::new()
            .blackout(CampaignTarget::A, 30, 40)
            .blackout(CampaignTarget::B, 110, 30)
    }),
    // EMI ramp on both channels: corruption climbs linearly to 35%.
    campaign("spike", || {
        CampaignSpec::new().ber_spike(CampaignTarget::Both, 40, 60, 0.35)
    }),
    // A babbling node saturates channel B at 50% duty.
    campaign("babble", || {
        CampaignSpec::new().babble(CampaignTarget::B, 50, 40, 0.5)
    }),
    // The fault sensor goes dark while a blackout rages underneath: the
    // monitors must still classify and recover once both clear.
    campaign("dropout", || {
        CampaignSpec::new()
            .sensor_dropout(CampaignTarget::A, 30, 30)
            .blackout(CampaignTarget::A, 45, 30)
    }),
];

/// Every pinned campaign name, in registry order.
pub fn campaign_names() -> Vec<&'static str> {
    keys(&CAMPAIGNS)
}

/// Resolves a pinned campaign by name and builds its script.
///
/// # Errors
/// Returns [`UnknownName`] — whose message lists every pinned campaign —
/// when nothing matches.
pub fn resolve_campaign(name: &str) -> Result<CampaignSpec, UnknownName> {
    lookup(&CAMPAIGNS, name).map(|c| (c.build)())
}

/// Applies `spec` to `base` under a `base+campaign` scenario name.
///
/// [`Scenario::with_campaign`] requires a `&'static str` (scenario names
/// flow into seed derivation and reports); the CLI composes base and
/// campaign at runtime, so the composed name is leaked — a few bytes once
/// per invocation.
pub fn chaos_scenario(base: Scenario, campaign_name: &str, spec: CampaignSpec) -> Scenario {
    let name: &'static str = Box::leak(format!("{}+{campaign_name}", base.name).into_boxed_str());
    base.with_campaign(name, spec)
}

/// The declarative recovery contract a chaos run is checked against.
/// `experiments chaos` checks every run against the
/// [`default`](Self::default) budgets; no flag widens them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosContract {
    /// Maximum cycles between a fault window clearing and the effective
    /// health returning to `Nominal`.
    pub recovery_budget_cycles: u64,
    /// Maximum hard (static) deadline misses tolerated across the run —
    /// the disturbance may cost some, but the count is bounded and pinned.
    pub hard_miss_budget: u64,
}

impl Default for ChaosContract {
    fn default() -> Self {
        // The budgets are pinned against the default blackout campaign:
        // CoEfficient recovers in single-digit cycles and loses 13 hard
        // deadlines while channel A is dark (failover + degraded mode
        // absorb the rest); a policy without those mechanisms (e.g.
        // Greedy at 34 misses) blows the hard-miss budget and fails the
        // contract — the gate separates the resilient from the lucky.
        ChaosContract {
            recovery_budget_cycles: 40,
            hard_miss_budget: 20,
        }
    }
}

/// One contract check: a human-readable claim and whether it held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContractCheck {
    /// The claim, phrased to be printed next to `[PASS]`/`[FAIL]`.
    pub name: String,
    /// Whether the run satisfied it.
    pub pass: bool,
}

/// The per-policy resilience scorecard of one campaign run.
#[derive(Debug, Clone)]
pub struct ChaosScorecard {
    /// Registry key of the policy.
    pub policy: &'static str,
    /// Display label of the policy.
    pub label: &'static str,
    /// The run's fingerprint (thread-count independent).
    pub fingerprint: u64,
    /// The runner's recovery observations.
    pub chaos: ChaosObservation,
    /// Full run counters.
    pub counters: RunCounters,
    /// Static (hard) deadlines met / missed.
    pub static_deadlines: (u64, u64),
    /// Dynamic (soft) deadlines met / missed.
    pub dynamic_deadlines: (u64, u64),
    /// Recovery latency in cycles of every restored finite event, in
    /// spec order (`restored_at − clear`; 0 = nominal on the first clean
    /// cycle).
    pub recovery_latencies: Vec<u64>,
    /// Longest finite fault window the policy recovered from.
    pub worst_survived_outage_cycles: Option<u64>,
    /// The contract checks, in a fixed order.
    pub checks: Vec<ContractCheck>,
}

impl ChaosScorecard {
    /// Evaluates `report` (which must come from a campaign scenario)
    /// against `contract`.
    ///
    /// # Panics
    /// Panics if the report carries no [`ChaosObservation`] — i.e. the
    /// scenario had no campaign.
    pub fn from_report(report: &RunReport, contract: ChaosContract) -> ChaosScorecard {
        let chaos = report
            .chaos
            .clone()
            .expect("chaos scorecards require a campaign scenario");
        let c = report.counters;
        let finite: Vec<(u64, u64, Option<u64>)> = chaos
            .events
            .iter()
            .filter_map(|e| {
                e.clear_cycle
                    .map(|clear| (e.start_cycle, clear, e.restored_at_cycle))
            })
            .collect();
        let recovery_latencies: Vec<u64> = finite
            .iter()
            .filter_map(|&(_, clear, restored)| restored.map(|r| r - clear))
            .collect();
        let worst_survived_outage_cycles = finite
            .iter()
            .filter(|&&(_, _, restored)| restored.is_some())
            .map(|&(start, clear, _)| clear - start)
            .max();
        let campaign_over = chaos.events.iter().all(|e| e.clear_cycle.is_some());
        let episodes = disjoint_episodes(&finite);
        let mut checks = vec![
            ContractCheck {
                name: "run counters are monotone non-decreasing".to_string(),
                pass: chaos.counters_monotone,
            },
            ContractCheck {
                name: format!(
                    "service restores within {} cycles of every cleared fault",
                    contract.recovery_budget_cycles
                ),
                pass: finite.iter().all(|&(_, clear, restored)| {
                    restored.is_some_and(|r| r - clear <= contract.recovery_budget_cycles)
                }),
            },
            ContractCheck {
                name: format!(
                    "hard (static) deadline misses within budget ({})",
                    contract.hard_miss_budget
                ),
                pass: report.static_deadlines.missed() <= contract.hard_miss_budget,
            },
            ContractCheck {
                name: format!("at least one service restore per disturbance episode ({episodes})"),
                pass: c.service_restores >= episodes,
            },
        ];
        if campaign_over {
            checks.push(ContractCheck {
                name: "health does not latch in Storm after the campaign ends".to_string(),
                pass: chaos.final_health != HealthState::Storm,
            });
        }
        ChaosScorecard {
            policy: report.policy.key(),
            label: report.policy.label(),
            fingerprint: report.fingerprint(),
            chaos,
            counters: c,
            static_deadlines: (
                report.static_deadlines.met(),
                report.static_deadlines.missed(),
            ),
            dynamic_deadlines: (
                report.dynamic_deadlines.met(),
                report.dynamic_deadlines.missed(),
            ),
            recovery_latencies,
            worst_survived_outage_cycles,
            checks,
        }
    }

    /// `true` iff every contract check held.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }
}

/// Counts the disjoint disturbance episodes among finite fault windows:
/// overlapping or touching `[start, clear)` windows merge into one
/// episode, since the health can only restore once after the union.
fn disjoint_episodes(finite: &[(u64, u64, Option<u64>)]) -> u64 {
    let mut windows: Vec<(u64, u64)> = finite.iter().map(|&(s, c, _)| (s, c)).collect();
    windows.sort_unstable();
    let mut episodes = 0u64;
    let mut current_end: Option<u64> = None;
    for (start, end) in windows {
        match current_end {
            Some(e) if start <= e => current_end = Some(e.max(end)),
            _ => {
                episodes += 1;
                current_end = Some(end);
            }
        }
    }
    episodes
}

/// Builds the per-policy run configurations of one campaign: the paper's
/// mixed geometry, the dynamic-experiment workloads, a cycle-denominated
/// horizon, and the campaign scenario shared across policies.
pub fn chaos_configs(
    scenario: &Scenario,
    policies: &[PolicyRef],
    horizon_cycles: u64,
    seed: u64,
) -> Vec<RunConfig> {
    let cluster = ClusterConfig::paper_mixed(50);
    let horizon = cluster.cycle_duration() * horizon_cycles;
    policies
        .iter()
        .map(|&policy| RunConfig {
            cluster: cluster.clone(),
            scenario: scenario.clone(),
            static_messages: dynamic_experiment_statics(),
            dynamic_messages: workloads::sae::message_set(
                workloads::sae::IdRange::For80Slots,
                seed,
            ),
            policy,
            stop: StopCondition::Horizon(horizon),
            seed,
            trace: TraceConfig::off(),
        })
        .collect()
}

/// Runs one campaign for every policy (fanning cells across `threads`
/// workers) and evaluates the contract on each.
///
/// # Errors
/// Propagates the first [`SchedulerError`] from any cell.
pub fn run_campaign(
    scenario: &Scenario,
    policies: &[PolicyRef],
    horizon_cycles: u64,
    seed: u64,
    threads: usize,
    contract: ChaosContract,
) -> Result<Vec<ChaosScorecard>, SchedulerError> {
    let configs = chaos_configs(scenario, policies, horizon_cycles, seed);
    let reports = run_parallel(configs, threads)?;
    Ok(reports
        .iter()
        .map(|r| ChaosScorecard::from_report(r, contract))
        .collect())
}

fn target_str(target: CampaignTarget) -> &'static str {
    match target {
        CampaignTarget::A => "A",
        CampaignTarget::B => "B",
        CampaignTarget::Both => "both",
    }
}

fn health_str(health: HealthState) -> &'static str {
    match health {
        HealthState::Nominal => "nominal",
        HealthState::Stressed => "stressed",
        HealthState::Storm => "storm",
    }
}

fn opt_u64_json(v: Option<u64>) -> Json {
    v.map_or(Json::Null, Json::from)
}

fn scorecard_json(card: &ChaosScorecard) -> Json {
    let latency = if card.recovery_latencies.is_empty() {
        Json::Null
    } else {
        let min = *card.recovery_latencies.iter().min().expect("non-empty");
        let max = *card.recovery_latencies.iter().max().expect("non-empty");
        let mean = card.recovery_latencies.iter().sum::<u64>() as f64
            / card.recovery_latencies.len() as f64;
        Json::object([
            ("min_cycles", Json::from(min)),
            ("mean_cycles", Json::Float(mean)),
            ("max_cycles", Json::from(max)),
        ])
    };
    Json::object([
        ("policy", Json::str(card.policy)),
        ("label", Json::str(card.label)),
        (
            "fingerprint",
            Json::String(format!("{:016x}", card.fingerprint)),
        ),
        (
            "events",
            Json::array(card.chaos.events.iter().map(|e| {
                Json::object([
                    ("kind", Json::str(e.kind)),
                    ("target", Json::str(target_str(e.target))),
                    ("start_cycle", Json::from(e.start_cycle)),
                    ("clear_cycle", opt_u64_json(e.clear_cycle)),
                    ("restored_at_cycle", opt_u64_json(e.restored_at_cycle)),
                    (
                        "recovery_latency_cycles",
                        opt_u64_json(
                            e.clear_cycle
                                .and_then(|c| e.restored_at_cycle.map(|r| r - c)),
                        ),
                    ),
                ])
            })),
        ),
        ("availability", Json::Float(card.chaos.availability())),
        ("nominal_cycles", Json::from(card.chaos.nominal_cycles)),
        ("degraded_cycles", Json::from(card.chaos.degraded_cycles)),
        (
            "final_health",
            Json::str(health_str(card.chaos.final_health)),
        ),
        ("recovery_latency", latency),
        (
            "worst_survived_outage_cycles",
            opt_u64_json(card.worst_survived_outage_cycles),
        ),
        (
            "deadlines",
            Json::object([
                ("static_met", Json::from(card.static_deadlines.0)),
                ("static_missed", Json::from(card.static_deadlines.1)),
                ("dynamic_met", Json::from(card.dynamic_deadlines.0)),
                ("dynamic_missed", Json::from(card.dynamic_deadlines.1)),
            ]),
        ),
        (
            "counters",
            Json::object(
                card.counters
                    .fields()
                    .into_iter()
                    .map(|(name, value)| (name, Json::from(value))),
            ),
        ),
        (
            "checks",
            Json::array(card.checks.iter().map(|c| {
                Json::object([
                    ("name", Json::str(c.name.clone())),
                    ("pass", Json::from(c.pass)),
                ])
            })),
        ),
        ("passed", Json::from(card.passed())),
    ])
}

/// The `coefficient-chaos/1` document: campaign identity, contract
/// parameters and one scorecard per policy. No wall-clock and no thread
/// count — the bytes are identical at any parallelism.
pub fn chaos_report_json(
    campaign: &str,
    scenario: &str,
    seed: u64,
    horizon_cycles: u64,
    contract: ChaosContract,
    cards: &[ChaosScorecard],
) -> Json {
    Json::object([
        ("schema", Json::str("coefficient-chaos/1")),
        ("campaign", Json::str(campaign)),
        ("scenario", Json::str(scenario)),
        ("seed", Json::from(seed)),
        ("horizon_cycles", Json::from(horizon_cycles)),
        (
            "contract",
            Json::object([
                (
                    "recovery_budget_cycles",
                    Json::from(contract.recovery_budget_cycles),
                ),
                ("hard_miss_budget", Json::from(contract.hard_miss_budget)),
            ]),
        ),
        ("policies", Json::array(cards.iter().map(scorecard_json))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use coefficient::registry::{COEFFICIENT, GREEDY};

    #[test]
    fn every_pinned_campaign_clears_inside_the_default_horizon() {
        for name in campaign_names() {
            let spec = resolve_campaign(name).expect(name);
            assert!(!spec.is_empty());
            assert!(
                !spec.has_permanent_event(),
                "pinned campaigns must clear so recovery is checkable"
            );
            assert!(
                spec.last_clear_cycle().unwrap() < DEFAULT_HORIZON_CYCLES,
                "{name} must clear inside the default horizon"
            );
        }
    }

    #[test]
    fn blackout_campaign_satisfies_the_contract_for_coefficient() {
        let spec = resolve_campaign(DEFAULT_CAMPAIGN).expect("pinned");
        let scenario = chaos_scenario(Scenario::ber7(), DEFAULT_CAMPAIGN, spec);
        let cards = run_campaign(
            &scenario,
            &[COEFFICIENT],
            DEFAULT_HORIZON_CYCLES,
            CHAOS_SEED,
            1,
            ChaosContract::default(),
        )
        .expect("schedulable");
        assert_eq!(cards.len(), 1);
        let card = &cards[0];
        for check in &card.checks {
            assert!(check.pass, "failed: {}", check.name);
        }
        assert!(card.passed());
        assert_eq!(card.recovery_latencies.len(), 1, "one cleared outage");
        assert_eq!(card.worst_survived_outage_cycles, Some(50));
        let availability = card.chaos.availability();
        assert!(availability > 0.0 && availability < 1.0, "{availability}");
        assert!(card.counters.campaign_blackout_faults > 0);
    }

    #[test]
    fn chaos_document_is_thread_count_invariant() {
        let spec = resolve_campaign(DEFAULT_CAMPAIGN).expect("pinned");
        let scenario = chaos_scenario(Scenario::ber7(), DEFAULT_CAMPAIGN, spec);
        let contract = ChaosContract::default();
        let policies = [COEFFICIENT, GREEDY];
        let render = |threads: usize| {
            let cards = run_campaign(
                &scenario,
                &policies,
                DEFAULT_HORIZON_CYCLES,
                CHAOS_SEED,
                threads,
                contract,
            )
            .expect("schedulable");
            chaos_report_json(
                DEFAULT_CAMPAIGN,
                scenario.name,
                CHAOS_SEED,
                DEFAULT_HORIZON_CYCLES,
                contract,
                &cards,
            )
            .to_string()
        };
        assert_eq!(render(1), render(4));
    }

    #[test]
    fn episodes_merge_overlapping_windows() {
        assert_eq!(disjoint_episodes(&[]), 0);
        assert_eq!(disjoint_episodes(&[(10, 20, None)]), 1);
        assert_eq!(disjoint_episodes(&[(10, 20, None), (15, 30, None)]), 1);
        assert_eq!(disjoint_episodes(&[(10, 20, None), (20, 30, None)]), 1);
        assert_eq!(disjoint_episodes(&[(10, 20, None), (40, 50, None)]), 2);
    }
}
