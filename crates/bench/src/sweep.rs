//! Bench-side sweep layer: matrix builders and JSON reports.
//!
//! The core harness ([`coefficient::sweep`]) executes a
//! `{policy × scenario × seed}` matrix and guarantees determinism; this
//! module supplies what the binaries need around it:
//!
//! * [`SweepSpec`] — the CLI-facing description of a sweep (parsed from
//!   `experiments sweep` flags) and its [`build_matrix`](SweepSpec::build_matrix);
//! * [`sweep_report_json`] — the stable JSON schema of a sweep result
//!   (see `README.md`, "Running sweeps").

use coefficient::registry::lookup;
use coefficient::{
    CellOutcome, GroupSummary, Named, PolicyRef, Scenario, SchedulerError, SeedStrategy,
    StopCondition, SweepMatrix, SweepReport, SweepRunner, UnknownName, COEFFICIENT, FSPEC,
    MAX_CYCLES,
};
use event_sim::SimDuration;
use flexray::config::ClusterConfig;
use metrics::AggregateSummary;
use workloads::sae::IdRange;

use crate::experiments::{dynamic_experiment_statics, SEED};
use crate::json::Json;

/// CLI-facing description of a sweep over the paper's mixed geometry.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Minislot count of the `paper_mixed` cluster.
    pub minislots: u64,
    /// Simulated horizon per cell, milliseconds.
    pub horizon_ms: u64,
    /// Number of seeds (seed indices `0..seeds` of `master_seed`).
    pub seeds: u64,
    /// Master seed the per-cell seeds derive from.
    pub master_seed: u64,
    /// Worker threads; `None` means all available parallelism.
    pub threads: Option<usize>,
    /// Policies under test.
    pub policies: Vec<PolicyRef>,
    /// Scenarios under test.
    pub scenarios: Vec<Scenario>,
    /// Seed derivation discipline.
    pub strategy: SeedStrategy,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            minislots: 50,
            horizon_ms: 1000,
            seeds: 8,
            master_seed: SEED,
            threads: None,
            policies: vec![COEFFICIENT, FSPEC],
            scenarios: vec![Scenario::ber7(), Scenario::ber9()],
            strategy: SeedStrategy::PerCell,
        }
    }
}

impl SweepSpec {
    /// Materializes the spec into a core [`SweepMatrix`].
    ///
    /// # Panics
    /// Panics on a spec that fails [`check`](Self::check).
    pub fn build_matrix(&self) -> SweepMatrix {
        SweepMatrix {
            cluster: ClusterConfig::paper_mixed(self.minislots),
            static_messages: dynamic_experiment_statics(),
            dynamic_messages: workloads::sae::message_set(IdRange::For80Slots, self.master_seed),
            policies: self.policies.clone(),
            scenarios: self.scenarios.clone(),
            seeds: (0..self.seeds)
                .map(|i| self.master_seed.wrapping_add(i))
                .collect(),
            stop: StopCondition::Horizon(SimDuration::from_millis(self.horizon_ms)),
            seed_strategy: self.strategy,
        }
    }

    /// Checks the three sizes a flag or a corpus file can set beyond what
    /// a run honours: the minislots the cycle fits, the horizon before
    /// the run's cycle cap, and a seed list that can be allocated. A spec
    /// that passes builds its matrix without panicking.
    ///
    /// # Errors
    /// The first size that fails, named by its field.
    pub fn check(&self) -> Result<(), SpecError> {
        let cluster = check_minislots(self.minislots)?;
        check_horizon_ms(self.horizon_ms, &cluster)?;
        let seeds = usize::try_from(self.seeds).unwrap_or(usize::MAX);
        Vec::<u64>::new()
            .try_reserve_exact(seeds)
            .map_err(|e| SpecError {
                field: "seeds",
                value: self.seeds,
                reason: e.to_string(),
            })
    }

    /// Builds and runs the sweep.
    ///
    /// # Errors
    /// Returns [`SchedulerError`] if a cell is unschedulable.
    pub fn run(&self) -> Result<SweepReport, SchedulerError> {
        let mut runner = SweepRunner::new(self.build_matrix());
        if let Some(threads) = self.threads {
            runner = runner.threads(threads);
        }
        runner.run()
    }
}

/// A [`SweepSpec`] size no run can honour, named by its field.
#[derive(Debug)]
pub struct SpecError {
    /// The field as a corpus spells it (`minislots`, `horizon_ms`,
    /// `seeds`); its flag is `--` and the field with `-` for `_`.
    pub field: &'static str,
    /// The rejected value.
    pub value: u64,
    /// Why no run can honour it.
    pub reason: String,
}

/// The `paper_mixed` cluster with `minislots`, or why its cycle cannot
/// fit them.
///
/// # Errors
/// The layout's [`ConfigError`](flexray::ConfigError), as a
/// `minislots` [`SpecError`].
pub fn check_minislots(minislots: u64) -> Result<ClusterConfig, SpecError> {
    ClusterConfig::try_paper_mixed(minislots).map_err(|e| SpecError {
        field: "minislots",
        value: minislots,
        reason: format!("{e:?}: {e}"),
    })
}

/// Whether a run on `cluster` reaches `horizon_ms` before its
/// [`MAX_CYCLES`] cap stops it.
///
/// # Errors
/// A `horizon_ms` [`SpecError`] naming the cap.
pub fn check_horizon_ms(horizon_ms: u64, cluster: &ClusterConfig) -> Result<(), SpecError> {
    let cycle = cluster.cycle_duration();
    let cap_ms = cycle.as_nanos().saturating_mul(MAX_CYCLES) / 1_000_000;
    if horizon_ms <= cap_ms {
        return Ok(());
    }
    Err(SpecError {
        field: "horizon_ms",
        value: horizon_ms,
        reason: format!(
            "a run stops after {MAX_CYCLES} cycles of {} ms, {cap_ms} ms",
            cycle.as_secs_f64() * 1e3
        ),
    })
}

/// One scenario flag value: its registry key, further accepted
/// spellings and the scenario it builds. The built scenario's own name
/// (`BER-7-storm`, as reports and the golden corpus store it) is its
/// label, so it resolves too.
#[derive(Debug)]
pub struct ScenarioName {
    key: &'static str,
    aliases: &'static [&'static str],
    build: fn() -> Scenario,
}

impl Named for ScenarioName {
    const KIND: &'static str = "scenario";
    fn key(&self) -> &str {
        self.key
    }
    fn label(&self) -> &str {
        (self.build)().name
    }
    fn aliases(&self) -> &[&str] {
        self.aliases
    }
}

const fn scenario(
    key: &'static str,
    aliases: &'static [&'static str],
    build: fn() -> Scenario,
) -> ScenarioName {
    ScenarioName {
        key,
        aliases,
        build,
    }
}

/// Every scenario flag value: the three bases, each with its `-bursty`
/// (Gilbert–Elliott) and `-storm` (fault-storm) variant.
pub static SCENARIOS: [ScenarioName; 9] = [
    scenario("ber7", &[], Scenario::ber7),
    scenario("ber7-bursty", &[], || Scenario::ber7().bursty()),
    scenario("ber7-storm", &[], || Scenario::ber7().storm()),
    scenario("ber9", &[], Scenario::ber9),
    scenario("ber9-bursty", &[], || Scenario::ber9().bursty()),
    scenario("ber9-storm", &[], || Scenario::ber9().storm()),
    scenario("fault-free", &["faultfree"], Scenario::fault_free),
    scenario("fault-free-bursty", &["faultfree-bursty"], || {
        Scenario::fault_free().bursty()
    }),
    scenario("fault-free-storm", &["faultfree-storm"], || {
        Scenario::fault_free().storm()
    }),
];

/// Parses a scenario flag value against [`SCENARIOS`].
///
/// # Errors
/// Returns [`UnknownName`] — whose message lists every valid name — when
/// nothing matches.
pub fn parse_scenario(s: &str) -> Result<Scenario, UnknownName> {
    lookup(&SCENARIOS, s).map(|entry| (entry.build)())
}

fn hex64(v: u64) -> Json {
    Json::String(format!("{v:016x}"))
}

/// JSON form of an [`AggregateSummary`].
pub fn summary_json(s: &AggregateSummary) -> Json {
    Json::object([
        ("count", Json::from(s.count)),
        ("mean", Json::from(s.mean)),
        ("std_dev", Json::from(s.std_dev)),
        ("min", Json::from(s.min)),
        ("max", Json::from(s.max)),
        ("p50", Json::from(s.p50)),
        ("p90", Json::from(s.p90)),
        ("p99", Json::from(s.p99)),
    ])
}

fn group_json(g: &GroupSummary) -> Json {
    Json::object([
        ("policy", Json::str(g.policy.label())),
        ("scenario", Json::str(g.scenario)),
        ("cells", Json::from(g.cells)),
        ("running_time_s", summary_json(&g.running_time_s)),
        ("utilization", summary_json(&g.utilization)),
        ("static_latency_ms", summary_json(&g.static_latency_ms)),
        ("dynamic_latency_ms", summary_json(&g.dynamic_latency_ms)),
        ("miss_ratio", summary_json(&g.miss_ratio)),
        ("delivery_ratio", summary_json(&g.delivery_ratio)),
    ])
}

/// JSON form of one sweep cell (coordinates + seed + headline metrics).
pub fn cell_json(c: &CellOutcome) -> Json {
    let r = &c.report;
    Json::object([
        ("policy", Json::str(c.policy.label())),
        ("scenario", Json::str(c.scenario)),
        ("policy_index", Json::from(c.coord.policy)),
        ("scenario_index", Json::from(c.coord.scenario)),
        ("seed_index", Json::from(c.coord.seed)),
        ("seed", Json::from(c.seed)),
        ("fingerprint", hex64(c.fingerprint)),
        ("running_time_s", Json::from(r.running_time.as_secs_f64())),
        ("utilization", Json::from(r.utilization)),
        (
            "static_latency_ms",
            Json::from(r.static_latency.mean_millis_f64()),
        ),
        (
            "dynamic_latency_ms",
            Json::from(r.dynamic_latency.mean_millis_f64()),
        ),
        ("miss_ratio", Json::from(r.miss_ratio())),
        ("produced", Json::from(r.produced)),
        ("delivered", Json::from(r.delivered)),
        ("corrupted", Json::from(r.corrupted)),
        (
            "counters",
            Json::object(
                r.counters
                    .fields()
                    .iter()
                    .map(|&(name, value)| (name, Json::from(value))),
            ),
        ),
    ])
}

/// The stable JSON schema of a sweep result (`schema:
/// "coefficient-sweep/1"`). Documented in `README.md`.
pub fn sweep_report_json(report: &SweepReport) -> Json {
    Json::object([
        ("schema", Json::str("coefficient-sweep/1")),
        ("threads", Json::from(report.threads)),
        (
            "wall_clock_ms",
            Json::Float(report.wall_clock.as_secs_f64() * 1e3),
        ),
        ("fingerprint", hex64(report.fingerprint())),
        ("cells", Json::array(report.cells.iter().map(cell_json))),
        ("groups", Json::array(report.groups.iter().map(group_json))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_json_has_the_documented_shape() {
        let spec = SweepSpec {
            seeds: 2,
            horizon_ms: 20,
            threads: Some(2),
            scenarios: vec![Scenario::ber7()],
            ..SweepSpec::default()
        };
        let report = spec.run().unwrap();
        let json = sweep_report_json(&report).to_string();
        assert!(json.starts_with(r#"{"schema":"coefficient-sweep/1""#));
        assert!(json.contains(r#""threads":2"#));
        assert!(json.contains(r#""cells":[{"policy":"CoEfficient""#));
        assert!(json.contains(r#""groups":[{"policy":"CoEfficient""#));
        assert!(json.contains(r#""fingerprint":"#));
    }
}
