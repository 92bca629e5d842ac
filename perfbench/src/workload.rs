//! The three workloads and the inputs each one generates from a seed.
//!
//! A seed selects one of [`INPUT_SETS`] input sets (`seed mod
//! INPUT_SETS`). Every set has reference digests recorded under
//! `perfbench/reference/`, so each timed run is checked against a result
//! recorded through the library's own harnesses, not against itself.

use bench_harness::chaos::{
    campaign_names, chaos_configs, chaos_scenario, resolve_campaign, CHAOS_SEED,
    DEFAULT_HORIZON_CYCLES,
};
use bench_harness::cycles::cycles_spec;
use bench_harness::experiments::SEED;
use coefficient::{registry, RunConfig, Scenario, SweepMatrix};
use event_sim::SimDuration;
use fleet::env::MIXED;
use fleet::{FleetSpec, DEFAULT_SEED};

/// Number of recorded input sets a seed maps onto.
pub const INPUT_SETS: u64 = 32;

/// Per-run horizon of `sweep-steady`: long enough that `Runner::new`
/// stays under about 2% of a run's host time.
pub const SWEEP_HORIZON_MS: u64 = 1000;

/// Vehicles of one `fleet-setup` pass.
pub const FLEET_VEHICLES: u64 = 1000;

/// Vehicles per fleet shard (one `FleetAggregate::merge` each).
pub const FLEET_SHARD: u64 = 128;

/// Horizon of one fleet vehicle: two 5 ms cycles, so set-up dominates.
pub const FLEET_HORIZON_MS: u64 = 10;

/// Seeds per campaign in one `chaos-recovery` pass.
pub const CHAOS_SEEDS: u64 = 4;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The pinned `cycles` matrix at a long horizon: the steady-state
    /// cycle loop.
    SweepSteady,
    /// A mixed-environment fleet of two-cycle vehicles: per-vehicle
    /// set-up (Theorem 1, copy placement) and aggregation.
    FleetSetup,
    /// The pinned fault campaigns: degraded mode, failover and the
    /// campaign fault decorator.
    ChaosRecovery,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::SweepSteady,
        Workload::FleetSetup,
        Workload::ChaosRecovery,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepSteady => "sweep-steady",
            Workload::FleetSetup => "fleet-setup",
            Workload::ChaosRecovery => "chaos-recovery",
        }
    }

    /// Every workload name.
    pub fn names() -> [&'static str; 3] {
        Self::ALL.map(Workload::name)
    }

    /// Resolves a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The percentile `run_ms.tail` reports: the highest one that leaves
    /// at least ten runs of a single pass beyond it (108, 6000 and 120
    /// runs per pass).
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::SweepSteady => 90.0,
            Workload::FleetSetup => 99.8,
            Workload::ChaosRecovery => 90.0,
        }
    }
}

/// The generated inputs of one input set.
#[derive(Debug, Clone)]
pub enum Inputs {
    /// Independent runs in pass order, each with its own reference
    /// fingerprint.
    Runs(Vec<RunConfig>),
    /// A fleet run serially: every vehicle under every policy.
    Fleet(FleetSpec),
}

/// The input set a seed selects.
pub fn input_set(seed: u64) -> u64 {
    seed % INPUT_SETS
}

/// The `sweep-steady` matrix of input set `set`: the pinned `cycles`
/// matrix (6 scenarios × 3 seeds × every policy) at the long horizon.
/// Set 0 is the pinned matrix itself; set `k` moves its three master
/// seeds to `SEED + 3k ..`.
pub fn sweep_matrix(set: u64) -> SweepMatrix {
    let mut spec = cycles_spec(false).sweep;
    spec.horizon_ms = SWEEP_HORIZON_MS;
    spec.master_seed = SEED.wrapping_add(spec.seeds * set);
    spec.build_matrix()
}

/// The `fleet-setup` fleet of input set `set`.
pub fn fleet_spec(set: u64) -> FleetSpec {
    FleetSpec {
        vehicles: FLEET_VEHICLES,
        policies: registry::all().to_vec(),
        env: &MIXED,
        seed: DEFAULT_SEED.wrapping_add(set),
        horizon: SimDuration::from_millis(FLEET_HORIZON_MS),
        minislots: 50,
        shard_size: FLEET_SHARD,
    }
}

/// The `chaos-recovery` seeds of input set `set`; set 0 starts at the
/// pinned CI chaos seed.
pub fn chaos_seeds(set: u64) -> std::ops::Range<u64> {
    let first = CHAOS_SEED + CHAOS_SEEDS * set;
    first..first + CHAOS_SEEDS
}

/// The `chaos-recovery` scenarios: every pinned campaign over BER-7.
pub fn chaos_scenarios() -> Vec<Scenario> {
    campaign_names()
        .into_iter()
        .map(|name| {
            let spec = resolve_campaign(name).expect("pinned campaigns resolve");
            chaos_scenario(Scenario::ber7(), name, spec)
        })
        .collect()
}

/// Builds the inputs of `workload`'s input set `set`.
pub fn build(workload: Workload, set: u64) -> Inputs {
    match workload {
        Workload::SweepSteady => {
            let matrix = sweep_matrix(set);
            Inputs::Runs(
                matrix
                    .coords()
                    .into_iter()
                    .map(|c| matrix.config(c))
                    .collect(),
            )
        }
        Workload::ChaosRecovery => {
            let mut configs = Vec::new();
            for scenario in chaos_scenarios() {
                for seed in chaos_seeds(set) {
                    configs.extend(chaos_configs(
                        &scenario,
                        registry::all(),
                        DEFAULT_HORIZON_CYCLES,
                        seed,
                    ));
                }
            }
            Inputs::Runs(configs)
        }
        Workload::FleetSetup => {
            let spec = fleet_spec(set);
            // Materialize every vehicle's config once as the fleet's input
            // build. The timed pass rebuilds them inside its loop, exactly
            // as `fleet::exec` does, so their cost also shows in runs/s.
            for v in 0..spec.vehicles {
                for &policy in &spec.policies {
                    std::hint::black_box(spec.vehicle_config(v, policy));
                }
            }
            Inputs::Fleet(spec)
        }
    }
}
