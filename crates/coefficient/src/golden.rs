//! Golden-corpus regression gating.
//!
//! A *golden corpus* is a checked-in record of a `{policy × scenario ×
//! seed}` sweep: for every cell the exact run [`fingerprint`], a metric
//! envelope (miss ratio by traffic class, delivered bandwidth, latency
//! statistics with per-group percentiles), and the structured
//! [`RunCounters`]. Verification re-runs the same matrix and holds the
//! fresh results against the record:
//!
//! * **fingerprints must be byte-identical** — the determinism contract
//!   of [`crate::sweep`] means any divergence is a real behavior change,
//!   not noise;
//! * **metrics must sit inside tolerance bands** — a second, independent
//!   line of defense that keeps working even if the fingerprint function
//!   itself is refactored;
//! * **counters are diffed field by field** — so a failure explains
//!   *why* the schedule moved ("steal_denied 12 → 31") instead of only
//!   reporting an opaque digest mismatch.
//!
//! This module owns the corpus data model and the comparison logic; JSON
//! serialization of the `coefficient-golden/1` schema and file I/O live
//! in the bench harness, which also provides the `experiments golden
//! record|verify` CLI.
//!
//! [`fingerprint`]: RunReport::fingerprint

use std::fmt;

use crate::runner::{RunCounters, RunReport};
use crate::sweep::{CellCoord, CellOutcome, GroupSummary, SweepReport};

/// Version tag of the corpus schema; bump on incompatible change.
pub const SCHEMA: &str = "coefficient-golden/1";

/// How far a fresh metric may drift from its recorded value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    /// Absolute tolerance for ratio-valued metrics (miss ratios,
    /// utilizations, delivery ratio) — all live in `[0, 1]`.
    pub ratio_abs: f64,
    /// Relative tolerance for scale-valued metrics (latency statistics,
    /// running time, delivered bandwidth).
    pub scale_rel: f64,
}

impl Default for Tolerances {
    /// Tight defaults: replays of a deterministic simulator reproduce
    /// metrics exactly, so the bands only need to absorb float printing
    /// round-trips, not run-to-run noise.
    fn default() -> Self {
        Tolerances {
            ratio_abs: 1e-6,
            scale_rel: 1e-6,
        }
    }
}

/// Which tolerance band applies to a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Band {
    /// Compare `|recorded − fresh|` against [`Tolerances::ratio_abs`].
    RatioAbs,
    /// Compare `|recorded − fresh|` against
    /// `scale_rel · max(|recorded|, |fresh|)`.
    ScaleRel,
}

impl Band {
    /// `true` if `fresh` sits within this band around `recorded`.
    pub fn within(self, tol: &Tolerances, recorded: f64, fresh: f64) -> bool {
        // NaN-safe: a NaN on either side only passes when both are NaN
        // (e.g. a latency mean of an empty class on both sides).
        if recorded.is_nan() || fresh.is_nan() {
            return recorded.is_nan() && fresh.is_nan();
        }
        let delta = (recorded - fresh).abs();
        match self {
            Band::RatioAbs => delta <= tol.ratio_abs,
            Band::ScaleRel => delta <= tol.scale_rel * recorded.abs().max(fresh.abs()),
        }
    }
}

/// The metric envelope of one cell, extracted from its [`RunReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoldenMetrics {
    /// Simulated running time, milliseconds.
    pub running_time_ms: f64,
    /// Combined two-channel allocated utilization (fraction).
    pub utilization: f64,
    /// Wire-level busy fraction (fraction).
    pub wire_utilization: f64,
    /// Deadline miss ratio of static instances (fraction).
    pub static_miss_ratio: f64,
    /// Deadline miss ratio of dynamic instances (fraction).
    pub dynamic_miss_ratio: f64,
    /// Combined miss ratio over both classes (fraction).
    pub miss_ratio: f64,
    /// Delivered / produced instances (fraction).
    pub delivery_ratio: f64,
    /// Delivered bandwidth: instances delivered per simulated second.
    pub delivered_per_second: f64,
    /// Mean latency of delivered static instances, milliseconds (NaN if
    /// none were delivered).
    pub static_latency_mean_ms: f64,
    /// Worst observed static latency, milliseconds (NaN if none).
    pub static_latency_max_ms: f64,
    /// Mean latency of delivered dynamic instances, milliseconds (NaN if
    /// none were delivered).
    pub dynamic_latency_mean_ms: f64,
    /// Worst observed dynamic latency, milliseconds (NaN if none).
    pub dynamic_latency_max_ms: f64,
}

/// Milliseconds in an optional duration, NaN when absent.
fn opt_ms(d: Option<event_sim::SimDuration>) -> f64 {
    d.map_or(f64::NAN, |v| v.as_nanos() as f64 / 1e6)
}

impl GoldenMetrics {
    /// Extracts the envelope from a run report.
    pub fn from_report(report: &RunReport) -> Self {
        let running_time_s = report.running_time.as_nanos() as f64 / 1e9;
        let delivered_per_second = if running_time_s > 0.0 {
            report.delivered as f64 / running_time_s
        } else {
            0.0
        };
        GoldenMetrics {
            running_time_ms: report.running_time.as_nanos() as f64 / 1e6,
            utilization: report.utilization,
            wire_utilization: report.wire_utilization,
            static_miss_ratio: report.static_deadlines.miss_ratio(),
            dynamic_miss_ratio: report.dynamic_deadlines.miss_ratio(),
            miss_ratio: report.miss_ratio(),
            delivery_ratio: if report.produced > 0 {
                report.delivered as f64 / report.produced as f64
            } else {
                0.0
            },
            delivered_per_second,
            static_latency_mean_ms: opt_ms(report.static_latency.mean()),
            static_latency_max_ms: opt_ms(report.static_latency.max()),
            dynamic_latency_mean_ms: opt_ms(report.dynamic_latency.mean()),
            dynamic_latency_max_ms: opt_ms(report.dynamic_latency.max()),
        }
    }

    /// Every metric as `(name, value, band)`, in a fixed order — the
    /// corpus serializes and verifies metrics through this list.
    pub fn fields(&self) -> [(&'static str, f64, Band); 12] {
        [
            ("running_time_ms", self.running_time_ms, Band::ScaleRel),
            ("utilization", self.utilization, Band::RatioAbs),
            ("wire_utilization", self.wire_utilization, Band::RatioAbs),
            ("static_miss_ratio", self.static_miss_ratio, Band::RatioAbs),
            (
                "dynamic_miss_ratio",
                self.dynamic_miss_ratio,
                Band::RatioAbs,
            ),
            ("miss_ratio", self.miss_ratio, Band::RatioAbs),
            ("delivery_ratio", self.delivery_ratio, Band::RatioAbs),
            (
                "delivered_per_second",
                self.delivered_per_second,
                Band::ScaleRel,
            ),
            (
                "static_latency_mean_ms",
                self.static_latency_mean_ms,
                Band::ScaleRel,
            ),
            (
                "static_latency_max_ms",
                self.static_latency_max_ms,
                Band::ScaleRel,
            ),
            (
                "dynamic_latency_mean_ms",
                self.dynamic_latency_mean_ms,
                Band::ScaleRel,
            ),
            (
                "dynamic_latency_max_ms",
                self.dynamic_latency_max_ms,
                Band::ScaleRel,
            ),
        ]
    }
}

/// One recorded corpus cell.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenCell {
    /// Matrix coordinates of the cell.
    pub coord: CellCoord,
    /// Policy label (e.g. `"CoEfficient"`), for human-readable diffs and
    /// JSON round-trips.
    pub policy: String,
    /// Scenario label (e.g. `"BER-7"`).
    pub scenario: String,
    /// The derived master seed the cell ran under.
    pub seed: u64,
    /// The exact run fingerprint; verification requires byte identity.
    pub fingerprint: u64,
    /// Metric envelope checked against [`Tolerances`].
    pub metrics: GoldenMetrics,
    /// Structured counters, diffed field by field on mismatch.
    pub counters: RunCounters,
}

impl GoldenCell {
    /// Records a cell from a sweep outcome, under its policy's label.
    pub fn from_outcome(cell: &CellOutcome) -> Self {
        GoldenCell {
            coord: cell.coord,
            policy: cell.policy.label().to_string(),
            scenario: cell.scenario.to_string(),
            seed: cell.seed,
            fingerprint: cell.fingerprint,
            metrics: GoldenMetrics::from_report(&cell.report),
            counters: cell.report.counters,
        }
    }
}

/// Latency-percentile envelope of one `{policy × scenario}` group over
/// its seeds: p50/p90/p99 of the per-run mean latencies, per class.
/// Per-cell metrics pin each run exactly; the group percentiles give the
/// corpus the distribution view the paper's figures are drawn from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoldenGroup {
    /// Index into the recorded policy axis.
    pub policy: usize,
    /// Index into the recorded scenario axis.
    pub scenario: usize,
    /// Static-latency percentiles (ms over per-run means): p50, p90, p99.
    pub static_latency_ms_p: [f64; 3],
    /// Dynamic-latency percentiles (ms over per-run means): p50, p90, p99.
    pub dynamic_latency_ms_p: [f64; 3],
    /// Miss-ratio percentiles over seeds: p50, p90, p99.
    pub miss_ratio_p: [f64; 3],
}

impl GoldenGroup {
    /// Extracts the percentile envelope from a sweep group summary.
    pub fn from_summary(policy: usize, scenario: usize, g: &GroupSummary) -> Self {
        GoldenGroup {
            policy,
            scenario,
            static_latency_ms_p: [
                g.static_latency_ms.p50,
                g.static_latency_ms.p90,
                g.static_latency_ms.p99,
            ],
            dynamic_latency_ms_p: [
                g.dynamic_latency_ms.p50,
                g.dynamic_latency_ms.p90,
                g.dynamic_latency_ms.p99,
            ],
            miss_ratio_p: [g.miss_ratio.p50, g.miss_ratio.p90, g.miss_ratio.p99],
        }
    }

    /// Percentile metrics as `(name, value, band)` triples.
    pub fn fields(&self) -> [(&'static str, f64, Band); 9] {
        [
            (
                "static_latency_ms_p50",
                self.static_latency_ms_p[0],
                Band::ScaleRel,
            ),
            (
                "static_latency_ms_p90",
                self.static_latency_ms_p[1],
                Band::ScaleRel,
            ),
            (
                "static_latency_ms_p99",
                self.static_latency_ms_p[2],
                Band::ScaleRel,
            ),
            (
                "dynamic_latency_ms_p50",
                self.dynamic_latency_ms_p[0],
                Band::ScaleRel,
            ),
            (
                "dynamic_latency_ms_p90",
                self.dynamic_latency_ms_p[1],
                Band::ScaleRel,
            ),
            (
                "dynamic_latency_ms_p99",
                self.dynamic_latency_ms_p[2],
                Band::ScaleRel,
            ),
            ("miss_ratio_p50", self.miss_ratio_p[0], Band::RatioAbs),
            ("miss_ratio_p90", self.miss_ratio_p[1], Band::RatioAbs),
            ("miss_ratio_p99", self.miss_ratio_p[2], Band::RatioAbs),
        ]
    }
}

/// A complete golden corpus: the recorded cells and groups plus the
/// tolerance bands verification applies.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenCorpus {
    /// Human-readable corpus name (e.g. `"default"`).
    pub name: String,
    /// Tolerance bands for the metric envelope.
    pub tolerance: Tolerances,
    /// Recorded cells in canonical matrix order.
    pub cells: Vec<GoldenCell>,
    /// Per-group latency-percentile envelopes in matrix order.
    pub groups: Vec<GoldenGroup>,
}

impl GoldenCorpus {
    /// Records a corpus from a finished sweep.
    pub fn record(name: &str, report: &SweepReport) -> Self {
        let cells = report.cells.iter().map(GoldenCell::from_outcome).collect();
        let scenarios = report
            .cells
            .iter()
            .map(|c| c.coord.scenario)
            .max()
            .map_or(0, |m| m + 1);
        let groups = report
            .groups
            .iter()
            .enumerate()
            .map(|(i, g)| GoldenGroup::from_summary(i / scenarios.max(1), i % scenarios.max(1), g))
            .collect();
        GoldenCorpus {
            name: name.to_string(),
            tolerance: Tolerances::default(),
            cells,
            groups,
        }
    }

    /// Verifies a fresh sweep of the same matrix against this corpus.
    pub fn verify(&self, fresh: &SweepReport) -> VerifyReport {
        let mut checks = Vec::with_capacity(self.cells.len());
        let mut missing = Vec::new();
        for recorded in &self.cells {
            let Some(cell) = fresh.cell(recorded.coord) else {
                missing.push(recorded.coord);
                continue;
            };
            checks.push(check_cell(recorded, cell, &self.tolerance));
        }
        let mut group_diffs = Vec::new();
        for (i, recorded) in self.groups.iter().enumerate() {
            let Some(g) = fresh.groups.get(i) else {
                continue; // axis shrank: already visible as missing cells
            };
            let fresh_group = GoldenGroup::from_summary(recorded.policy, recorded.scenario, g);
            for ((name, want, band), (_, got, _)) in
                recorded.fields().iter().zip(fresh_group.fields())
            {
                if !band.within(&self.tolerance, *want, got) {
                    group_diffs.push(MetricDiff {
                        group: Some((recorded.policy, recorded.scenario)),
                        name,
                        recorded: *want,
                        fresh: got,
                    });
                }
            }
        }
        let extra = fresh.cells.len().saturating_sub(self.cells.len());
        VerifyReport {
            checks,
            missing,
            extra_cells: extra,
            group_diffs,
        }
    }
}

/// A counter whose fresh value differs from the recorded one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterDiff {
    /// Counter name (one of [`RunCounters::fields`]).
    pub name: &'static str,
    /// Value in the corpus.
    pub recorded: u64,
    /// Value of the fresh run.
    pub fresh: u64,
}

/// A metric outside its tolerance band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDiff {
    /// `Some((policy, scenario))` for group-envelope metrics, `None` for
    /// per-cell metrics.
    pub group: Option<(usize, usize)>,
    /// Metric name.
    pub name: &'static str,
    /// Value in the corpus.
    pub recorded: f64,
    /// Value of the fresh run.
    pub fresh: f64,
}

/// The comparison result of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellCheck {
    /// Matrix coordinates.
    pub coord: CellCoord,
    /// Policy label from the corpus.
    pub policy: String,
    /// Scenario label from the corpus.
    pub scenario: String,
    /// The derived master seed.
    pub seed: u64,
    /// Fingerprint in the corpus.
    pub recorded_fingerprint: u64,
    /// Fingerprint of the fresh replay.
    pub fresh_fingerprint: u64,
    /// Counters that moved (empty when the cell passes).
    pub counter_diffs: Vec<CounterDiff>,
    /// Metrics outside their band (empty when the cell passes).
    pub metric_diffs: Vec<MetricDiff>,
}

impl CellCheck {
    /// `true` iff fingerprint, counters and metrics all match.
    pub fn passed(&self) -> bool {
        self.recorded_fingerprint == self.fresh_fingerprint
            && self.counter_diffs.is_empty()
            && self.metric_diffs.is_empty()
    }
}

fn check_cell(recorded: &GoldenCell, fresh: &CellOutcome, tol: &Tolerances) -> CellCheck {
    let fresh_metrics = GoldenMetrics::from_report(&fresh.report);
    let counter_diffs = recorded
        .counters
        .fields()
        .iter()
        .zip(fresh.report.counters.fields())
        .filter(|((_, want), (_, got))| want != got)
        .map(|((name, want), (_, got))| CounterDiff {
            name,
            recorded: *want,
            fresh: got,
        })
        .collect();
    let metric_diffs = recorded
        .metrics
        .fields()
        .iter()
        .zip(fresh_metrics.fields())
        .filter(|((_, want, band), (_, got, _))| !band.within(tol, *want, *got))
        .map(|((name, want, _), (_, got, _))| MetricDiff {
            group: None,
            name,
            recorded: *want,
            fresh: got,
        })
        .collect();
    CellCheck {
        coord: recorded.coord,
        policy: recorded.policy.clone(),
        scenario: recorded.scenario.clone(),
        seed: recorded.seed,
        recorded_fingerprint: recorded.fingerprint,
        fresh_fingerprint: fresh.fingerprint,
        counter_diffs,
        metric_diffs,
    }
}

/// The result of verifying a whole corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    /// One check per corpus cell found in the fresh sweep.
    pub checks: Vec<CellCheck>,
    /// Corpus cells the fresh sweep did not produce at all.
    pub missing: Vec<CellCoord>,
    /// Fresh cells beyond the corpus (matrix grew without re-recording).
    pub extra_cells: usize,
    /// Group-envelope metrics outside their band.
    pub group_diffs: Vec<MetricDiff>,
}

impl VerifyReport {
    /// `true` iff every cell passed and the matrices line up.
    pub fn passed(&self) -> bool {
        self.missing.is_empty()
            && self.extra_cells == 0
            && self.group_diffs.is_empty()
            && self.checks.iter().all(CellCheck::passed)
    }

    /// The checks that failed.
    pub fn failures(&self) -> impl Iterator<Item = &CellCheck> {
        self.checks.iter().filter(|c| !c.passed())
    }
}

impl fmt::Display for VerifyReport {
    /// Renders the verdict with a counter-level diff per failing cell.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let failed = self.failures().count();
        writeln!(
            f,
            "golden verify: {} cells, {} passed, {} failed, {} missing, {} extra",
            self.checks.len(),
            self.checks.len() - failed,
            failed,
            self.missing.len(),
            self.extra_cells,
        )?;
        for coord in &self.missing {
            writeln!(
                f,
                "  MISSING cell {{policy {}, scenario {}, seed {}}}",
                coord.policy, coord.scenario, coord.seed
            )?;
        }
        for c in self.failures() {
            writeln!(
                f,
                "  FAIL {} × {} (seed {:#018x}): fingerprint {:016x} -> {:016x}",
                c.policy, c.scenario, c.seed, c.recorded_fingerprint, c.fresh_fingerprint
            )?;
            for d in &c.counter_diffs {
                writeln!(
                    f,
                    "    counter {:<28} {:>10} -> {:<10} ({:+})",
                    d.name,
                    d.recorded,
                    d.fresh,
                    d.fresh as i128 - d.recorded as i128
                )?;
            }
            for d in &c.metric_diffs {
                writeln!(
                    f,
                    "    metric  {:<28} {:>14.6} -> {:<14.6}",
                    d.name, d.recorded, d.fresh
                )?;
            }
            if c.counter_diffs.is_empty() && c.metric_diffs.is_empty() {
                writeln!(
                    f,
                    "    (no counter or metric moved: divergence is in the \
                     latency/deadline tails folded into the fingerprint)"
                )?;
            }
        }
        for d in &self.group_diffs {
            let (p, s) = d.group.expect("group diffs carry their group");
            writeln!(
                f,
                "  GROUP {{policy {p}, scenario {s}}} metric {:<24} {:>14.6} -> {:<14.6}",
                d.name, d.recorded, d.fresh
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{SeedStrategy, SweepMatrix, SweepRunner};
    use crate::{Scenario, StopCondition, COEFFICIENT, FSPEC, GREEDY};
    use event_sim::SimDuration;
    use flexray::config::ClusterConfig;

    fn small_matrix() -> SweepMatrix {
        SweepMatrix {
            cluster: ClusterConfig::paper_dynamic(50),
            static_messages: workloads::bbw::message_set(),
            dynamic_messages: workloads::sae::message_set(
                workloads::sae::IdRange::StartingAt(20),
                1,
            ),
            policies: vec![COEFFICIENT, FSPEC],
            scenarios: vec![Scenario::ber7()],
            seeds: vec![11, 22],
            stop: StopCondition::Horizon(SimDuration::from_millis(20)),
            seed_strategy: SeedStrategy::PerCell,
        }
    }

    fn sweep() -> SweepReport {
        SweepRunner::new(small_matrix())
            .threads(2)
            .run()
            .expect("matrix is schedulable")
    }

    #[test]
    fn replay_of_the_same_matrix_verifies_clean() {
        let corpus = GoldenCorpus::record("test", &sweep());
        assert_eq!(corpus.cells.len(), 4);
        let report = corpus.verify(&sweep());
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn perturbed_fingerprint_fails_with_counter_diff() {
        let mut corpus = GoldenCorpus::record("test", &sweep());
        corpus.cells[0].fingerprint ^= 1;
        corpus.cells[0].counters.steal_denied += 5;
        let report = corpus.verify(&sweep());
        assert!(!report.passed());
        let failure = report.failures().next().expect("cell 0 fails");
        assert_eq!(failure.coord, corpus.cells[0].coord);
        assert!(
            failure
                .counter_diffs
                .iter()
                .any(|d| d.name == "steal_denied"),
            "diff must name the moved counter: {failure:?}"
        );
        let rendered = report.to_string();
        assert!(rendered.contains("steal_denied"), "{rendered}");
    }

    #[test]
    fn metric_outside_band_fails_even_with_matching_fingerprint() {
        let mut corpus = GoldenCorpus::record("test", &sweep());
        corpus.cells[1].metrics.miss_ratio += 0.5;
        let report = corpus.verify(&sweep());
        assert!(!report.passed());
        let failure = report.failures().next().expect("cell 1 fails");
        assert!(failure.metric_diffs.iter().any(|d| d.name == "miss_ratio"));
    }

    #[test]
    fn missing_and_extra_cells_are_reported() {
        let corpus = GoldenCorpus::record("test", &sweep());
        let mut shrunk = small_matrix();
        shrunk.seeds.pop();
        let fresh = SweepRunner::new(shrunk).threads(1).run().unwrap();
        let report = corpus.verify(&fresh);
        assert!(!report.passed());
        assert_eq!(report.missing.len(), 2, "one seed × two policies");
    }

    #[test]
    fn nan_latencies_compare_equal() {
        // A matrix with no dynamic messages has NaN dynamic-latency
        // metrics on both sides; that must not fail verification.
        let mut m = small_matrix();
        m.dynamic_messages.clear();
        let run = || SweepRunner::new(m.clone()).threads(1).run().unwrap();
        let corpus = GoldenCorpus::record("test", &run());
        assert!(corpus.cells[0].metrics.dynamic_latency_mean_ms.is_nan());
        let report = corpus.verify(&run());
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn a_new_policy_column_cannot_mask_an_old_column_regression() {
        // The corpus grows by appending policy columns. The per-cell
        // checks must stay anchored to coordinates, so a widened corpus
        // still rejects a perturbed cell in one of the *original*
        // columns even though every new-policy cell verifies clean.
        let mut wide = small_matrix();
        wide.policies.push(GREEDY);
        let run = || {
            SweepRunner::new(wide.clone())
                .threads(2)
                .run()
                .expect("widened matrix is schedulable")
        };
        let mut corpus = GoldenCorpus::record("test", &run());
        assert_eq!(corpus.cells.len(), 6);
        // Perturb an FSPEC cell (an "old" column) the way a behavioral
        // regression would move it.
        let victim = corpus
            .cells
            .iter()
            .position(|c| c.policy == "FSPEC")
            .expect("fspec column recorded");
        corpus.cells[victim].fingerprint ^= 1;
        corpus.cells[victim].counters.dropped_copies += 3;
        let report = corpus.verify(&run());
        assert!(!report.passed(), "old-column regression slipped through");
        let failures: Vec<_> = report.failures().collect();
        assert_eq!(failures.len(), 1, "exactly the perturbed cell fails");
        assert_eq!(failures[0].policy, "FSPEC");
        assert_eq!(failures[0].coord, corpus.cells[victim].coord);
        // And the greedy column genuinely verified — it is present, not
        // skipped (its passing must not be what hides the regression).
        assert!(report
            .checks
            .iter()
            .any(|c| c.policy == "Greedy" && c.passed()));
    }

    #[test]
    fn widening_the_matrix_without_rerecording_is_flagged() {
        // Appending a policy column makes the fresh sweep larger than the
        // corpus; verification must surface that as extra cells rather
        // than silently ignoring the unrecorded column.
        let corpus = GoldenCorpus::record("test", &sweep());
        let mut wide = small_matrix();
        wide.policies.push(GREEDY);
        let fresh = SweepRunner::new(wide).threads(2).run().unwrap();
        let report = corpus.verify(&fresh);
        assert!(!report.passed());
        assert_eq!(report.extra_cells, 2, "one new policy × two seeds");
    }

    #[test]
    fn band_semantics() {
        let tol = Tolerances {
            ratio_abs: 0.01,
            scale_rel: 0.05,
        };
        assert!(Band::RatioAbs.within(&tol, 0.50, 0.505));
        assert!(!Band::RatioAbs.within(&tol, 0.50, 0.52));
        assert!(Band::ScaleRel.within(&tol, 100.0, 104.0));
        assert!(!Band::ScaleRel.within(&tol, 100.0, 106.0));
        assert!(Band::ScaleRel.within(&tol, f64::NAN, f64::NAN));
        assert!(!Band::ScaleRel.within(&tol, 1.0, f64::NAN));
    }
}
