//! Golden-corpus regression gating.
//!
//! A *golden corpus* is a checked-in record of a `{policy × scenario ×
//! seed}` sweep: for every cell the exact run [`fingerprint`], a metric
//! envelope (miss ratio by traffic class, delivered bandwidth, latency
//! statistics with per-group percentiles), and the structured
//! [`RunCounters`](crate::RunCounters). Verification re-runs the same
//! matrix and holds the fresh results against the record:
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
//! Each kind of value is named once, in one list that recording,
//! verifying, diffing and the JSON reader and writer all loop over: the
//! cell metrics in [`CELL_METRICS`] and the group percentiles in
//! [`GROUP_METRICS`] (each row a name, a [`Band`] and an extractor), and
//! the counters in [`RunCounters::fields`](crate::RunCounters::fields).
//!
//! This module owns the corpus data model and the comparison logic; JSON
//! serialization of the `coefficient-golden/1` schema and file I/O live
//! in the bench harness, which also provides the `experiments golden
//! record|verify` CLI.
//!
//! [`fingerprint`]: RunReport::fingerprint

use std::fmt;

use crate::runner::RunReport;
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

/// One value of the metric envelope: its key in the corpus, the band it
/// is verified against, and how it is read from its source.
#[derive(Debug)]
pub struct Metric<T> {
    /// Key of the value in the corpus and in diffs.
    pub name: &'static str,
    /// Tolerance band that applies to the value.
    pub band: Band,
    /// Reads the value from a run report or a group summary.
    pub read: fn(&T) -> f64,
}

impl<T> Metric<T> {
    /// A value in `[0, 1]`, held to [`Tolerances::ratio_abs`].
    const fn ratio(name: &'static str, read: fn(&T) -> f64) -> Self {
        let band = Band::RatioAbs;
        Metric { name, band, read }
    }

    /// A scale-valued value, held to [`Tolerances::scale_rel`].
    const fn scale(name: &'static str, read: fn(&T) -> f64) -> Self {
        let band = Band::ScaleRel;
        Metric { name, band, read }
    }
}

/// Milliseconds in a duration, NaN when absent.
fn ms(d: Option<event_sim::SimDuration>) -> f64 {
    d.map_or(f64::NAN, |v| v.as_nanos() as f64 / 1e6)
}

/// `count / over`, or 0 when `over` is not positive.
fn per(count: u64, over: f64) -> f64 {
    if over > 0.0 {
        count as f64 / over
    } else {
        0.0
    }
}

/// The metric envelope of one cell, read from its [`RunReport`], in the
/// order the corpus records it. Ratios are fractions; latencies are
/// milliseconds and NaN for a class with no delivered instance;
/// `delivered_per_second` is the delivered bandwidth in instances per
/// simulated second.
pub const CELL_METRICS: [Metric<RunReport>; 12] = [
    Metric::scale("running_time_ms", |r| ms(Some(r.running_time))),
    Metric::ratio("utilization", |r| r.utilization),
    Metric::ratio("wire_utilization", |r| r.wire_utilization),
    Metric::ratio("static_miss_ratio", |r| r.static_deadlines.miss_ratio()),
    Metric::ratio("dynamic_miss_ratio", |r| r.dynamic_deadlines.miss_ratio()),
    Metric::ratio("miss_ratio", RunReport::miss_ratio),
    Metric::ratio("delivery_ratio", |r| per(r.delivered, r.produced as f64)),
    Metric::scale("delivered_per_second", |r| {
        per(r.delivered, r.running_time.as_nanos() as f64 / 1e9)
    }),
    Metric::scale("static_latency_mean_ms", |r| ms(r.static_latency.mean())),
    Metric::scale("static_latency_max_ms", |r| ms(r.static_latency.max())),
    Metric::scale("dynamic_latency_mean_ms", |r| ms(r.dynamic_latency.mean())),
    Metric::scale("dynamic_latency_max_ms", |r| ms(r.dynamic_latency.max())),
];

/// The percentile envelope of one `{policy × scenario}` group over its
/// seeds, read from its [`GroupSummary`]: p50/p90/p99 of the per-run mean
/// latencies (ms) per class and of the miss ratio. Per-cell metrics pin
/// each run exactly; the group percentiles give the corpus the
/// distribution view the paper's figures are drawn from.
pub const GROUP_METRICS: [Metric<GroupSummary>; 9] = [
    Metric::scale("static_latency_ms_p50", |g| g.static_latency_ms.p50),
    Metric::scale("static_latency_ms_p90", |g| g.static_latency_ms.p90),
    Metric::scale("static_latency_ms_p99", |g| g.static_latency_ms.p99),
    Metric::scale("dynamic_latency_ms_p50", |g| g.dynamic_latency_ms.p50),
    Metric::scale("dynamic_latency_ms_p90", |g| g.dynamic_latency_ms.p90),
    Metric::scale("dynamic_latency_ms_p99", |g| g.dynamic_latency_ms.p99),
    Metric::ratio("miss_ratio_p50", |g| g.miss_ratio.p50),
    Metric::ratio("miss_ratio_p90", |g| g.miss_ratio.p90),
    Metric::ratio("miss_ratio_p99", |g| g.miss_ratio.p99),
];

/// The rows of `table` whose value read from `fresh` left its band
/// around the `recorded` value (given in table order).
fn metric_diffs<T>(
    table: &[Metric<T>],
    recorded: &[f64],
    fresh: &T,
    tol: &Tolerances,
    group: Option<(usize, usize)>,
) -> Vec<MetricDiff> {
    table
        .iter()
        .zip(recorded)
        .map(|(m, &want)| (m, want, (m.read)(fresh)))
        .filter(|&(m, want, got)| !m.band.within(tol, want, got))
        .map(|(m, want, got)| MetricDiff {
            group,
            name: m.name,
            recorded: want,
            fresh: got,
        })
        .collect()
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
    /// One value per [`CELL_METRICS`] row, checked against [`Tolerances`].
    pub metrics: [f64; CELL_METRICS.len()],
    /// The [`RunCounters::fields`](crate::RunCounters::fields) values in
    /// that order, diffed field by field on mismatch.
    pub counters: [u64; 20],
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
            metrics: CELL_METRICS.map(|m| (m.read)(&cell.report)),
            counters: cell.report.counters.fields().map(|(_, v)| v),
        }
    }
}

/// One recorded `{policy × scenario}` group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoldenGroup {
    /// Index into the recorded policy axis.
    pub policy: usize,
    /// Index into the recorded scenario axis.
    pub scenario: usize,
    /// One value per [`GROUP_METRICS`] row.
    pub percentiles: [f64; GROUP_METRICS.len()],
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
            .map(|(i, g)| GoldenGroup {
                policy: i / scenarios.max(1),
                scenario: i % scenarios.max(1),
                percentiles: GROUP_METRICS.map(|m| (m.read)(g)),
            })
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
            group_diffs.extend(metric_diffs(
                &GROUP_METRICS,
                &recorded.percentiles,
                g,
                &self.tolerance,
                Some((recorded.policy, recorded.scenario)),
            ));
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
    /// Counter name (one of [`RunCounters::fields`](crate::RunCounters::fields)).
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
    let counter_diffs = recorded
        .counters
        .iter()
        .zip(fresh.report.counters.fields())
        .filter(|&(&want, (_, got))| want != got)
        .map(|(&want, (name, got))| CounterDiff {
            name,
            recorded: want,
            fresh: got,
        })
        .collect();
    let metric_diffs = metric_diffs(&CELL_METRICS, &recorded.metrics, &fresh.report, tol, None);
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

    /// The index of a [`CELL_METRICS`] row.
    fn metric(name: &str) -> usize {
        CELL_METRICS.iter().position(|m| m.name == name).unwrap()
    }

    /// The index of a [`crate::RunCounters::fields`] entry.
    fn counter(name: &str) -> usize {
        let fields = crate::RunCounters::default().fields();
        fields.iter().position(|&(n, _)| n == name).unwrap()
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
        corpus.cells[0].counters[counter("steal_denied")] += 5;
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
        corpus.cells[1].metrics[metric("miss_ratio")] += 0.5;
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
        assert!(corpus.cells[0].metrics[metric("dynamic_latency_mean_ms")].is_nan());
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
        corpus.cells[victim].counters[counter("dropped_copies")] += 3;
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
