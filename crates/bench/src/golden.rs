//! The golden corpus: a checked-in record of a `{policy × scenario ×
//! seed}` sweep and the pinned backbone matrix, and the `experiments
//! golden record|verify` gate that replays it.
//!
//! For every sweep cell the corpus holds the exact run fingerprint, a
//! metric envelope (miss ratio by traffic class, delivered bandwidth,
//! latency statistics, with per-group percentiles) and the structured
//! [`RunCounters`](coefficient::RunCounters). Verification replays the
//! same matrix and holds the fresh results against the record:
//!
//! * **fingerprints must be byte-identical**: the sweep's determinism
//!   contract means any divergence is a real behavior change, not noise;
//! * **metrics must sit inside fixed tolerance bands**: a second,
//!   independent line of defense that keeps working even if the
//!   fingerprint function itself is refactored;
//! * **counters are diffed field by field**, so a failure explains *why*
//!   the schedule moved ("steal_denied 12 → 31") instead of only
//!   reporting an opaque digest mismatch.
//!
//! Each kind of value is named once, in one list that recording,
//! verifying, diffing and the JSON reader and writer all loop over: the
//! cell metrics in [`CELL_METRICS`] and the group percentiles in
//! [`GROUP_METRICS`] (each row a name, a [`Band`] and an extractor), and
//! the counters in [`counter_names`].
//!
//! A corpus file embeds the [`SweepSpec`] it was recorded from, so
//! `verify` rebuilds exactly the recorded matrix, and a cell's or group's
//! place in that matrix is its identity: the `cells` and `groups` arrays
//! follow the matrix order ([`SweepMatrix::coords`]: policy-major, then
//! scenario, then seed), and nothing else locates an entry. Each entry
//! also carries its `policy` and `scenario` labels so a corpus diff reads
//! by name; the reader checks them, and the entry counts, against the
//! spec and refuses a file they disagree with.
//!
//! [`SweepMatrix::coords`]: coefficient::SweepMatrix::coords

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use backbone::{run_cell, run_matrix, ALL_RESERVATIONS};
use backbone::{CellSpec as BackboneCellSpec, MatrixSpec as BackboneMatrixSpec};
use coefficient::registry::lookup;
use coefficient::{
    CellCoord, CellOutcome, GroupSummary, PolicyRef, RunReport, Scenario, SchedulerError,
    SeedStrategy, SweepReport,
};
use event_sim::SimDuration;

use crate::experiments::SEED;
use crate::json::{want, want_array, want_f64, want_str, want_u64, Json};
use crate::sweep::{parse_scenario, SweepSpec};
use crate::trace::counter_names;

/// Version tag of the corpus schema; bump on incompatible change.
pub const SCHEMA: &str = "coefficient-golden/2";

/// Default on-disk location of the checked-in corpus.
pub const DEFAULT_CORPUS_PATH: &str = "corpus/golden.json";

/// The name every recorded corpus carries.
const NAME: &str = "default";

/// How far a ratio metric (a miss ratio, a utilization, the delivery
/// ratio, all in `[0, 1]`) may drift from its recorded value.
pub const RATIO_ABS: f64 = 1e-6;

/// How far a scale metric (a latency, the running time, the delivered
/// bandwidth) may drift, relative to the larger of the two values.
///
/// Both bands are tight: replays of a deterministic simulator reproduce
/// metrics exactly, so the bands only absorb float printing round trips,
/// not run-to-run noise. A corpus records them, and one whose recorded
/// bands differ from these is refused.
pub const SCALE_REL: f64 = 1e-6;

/// Which tolerance band applies to a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Band {
    /// `|recorded − fresh| ≤` [`RATIO_ABS`].
    RatioAbs,
    /// `|recorded − fresh| ≤` [`SCALE_REL`] `· max(|recorded|, |fresh|)`.
    ScaleRel,
}

impl Band {
    /// `true` if `fresh` sits within this band around `recorded`.
    pub fn within(self, recorded: f64, fresh: f64) -> bool {
        // NaN-safe: a NaN on either side only passes when both are NaN
        // (e.g. a latency mean of an empty class on both sides).
        if recorded.is_nan() || fresh.is_nan() {
            return recorded.is_nan() && fresh.is_nan();
        }
        let delta = (recorded - fresh).abs();
        match self {
            Band::RatioAbs => delta <= RATIO_ABS,
            Band::ScaleRel => delta <= SCALE_REL * recorded.abs().max(fresh.abs()),
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
    /// A value in `[0, 1]`, held to [`RATIO_ABS`].
    const fn ratio(name: &'static str, read: fn(&T) -> f64) -> Self {
        let band = Band::RatioAbs;
        Metric { name, band, read }
    }

    /// A scale-valued value, held to [`SCALE_REL`].
    const fn scale(name: &'static str, read: fn(&T) -> f64) -> Self {
        let band = Band::ScaleRel;
        Metric { name, band, read }
    }
}

/// Milliseconds in a duration, NaN when absent.
fn ms(d: Option<SimDuration>) -> f64 {
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
    group: Option<(PolicyRef, &'static str)>,
) -> Vec<MetricDiff> {
    table
        .iter()
        .zip(recorded)
        .map(|(m, &want)| (m, want, (m.read)(fresh)))
        .filter(|&(m, want, got)| !m.band.within(want, got))
        .map(|(m, want, got)| MetricDiff {
            group,
            name: m.name,
            recorded: want,
            fresh: got,
        })
        .collect()
}

/// The pinned spec of the CI regression gate: every registered policy ×
/// 3 scenarios × 3 seeds = 54 cells on the paper's mixed geometry, with
/// a horizon short enough for every CI run but long enough that faults,
/// steals and early copies all occur in every cell. The `BER-7-storm`
/// column pins the resilience subsystem: monitor transitions,
/// degraded-mode shedding and dual-channel failover all engage there and
/// their counters are part of the recorded fingerprints. Per-cell seeds
/// key on the scenario *name* (not the policy), and the registry lists
/// the legacy pair first, so growing the policy axis appends columns
/// without shifting the original CoEfficient/FSPEC cells' coordinates,
/// seeds or digests.
pub fn golden_spec() -> SweepSpec {
    SweepSpec {
        minislots: 50,
        horizon_ms: 100,
        seeds: 3,
        master_seed: SEED,
        threads: None,
        policies: coefficient::registry::all().to_vec(),
        scenarios: vec![Scenario::ber7(), Scenario::ber9(), Scenario::ber7().storm()],
        strategy: SeedStrategy::PerCell,
    }
}

/// A recorded corpus: the unit the `coefficient-golden/2` file stores.
#[derive(Debug, Clone)]
pub struct CorpusFile {
    /// Corpus name (`"default"` when recorded).
    pub name: String,
    /// The sweep spec the corpus was recorded from (and is verified
    /// against).
    pub spec: SweepSpec,
    /// One recorded cell per cell of `spec`'s matrix, in matrix order.
    pub cells: Vec<GoldenCell>,
    /// One percentile envelope per `{policy × scenario}` group of
    /// `spec`'s matrix, in matrix order.
    pub groups: Vec<GoldenGroup>,
    /// The recorded end-to-end backbone cells (a corpus file must hold
    /// at least one).
    pub backbone: Vec<BackboneGoldenCell>,
}

/// One recorded sweep cell, identified by its position in
/// [`CorpusFile::cells`].
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenCell {
    /// The exact run fingerprint; verification requires byte identity.
    pub fingerprint: u64,
    /// One value per [`CELL_METRICS`] row, checked against its band.
    pub metrics: [f64; CELL_METRICS.len()],
    /// The [`counter_names`] values in that order, diffed field by field
    /// on mismatch.
    pub counters: [u64; 20],
}

impl GoldenCell {
    /// Records a cell from a sweep outcome.
    fn from_outcome(cell: &CellOutcome) -> Self {
        GoldenCell {
            fingerprint: cell.fingerprint,
            metrics: CELL_METRICS.map(|m| (m.read)(&cell.report)),
            counters: cell.report.counters.fields().map(|(_, v)| v),
        }
    }
}

/// One recorded `{policy × scenario}` group, identified by its position
/// in [`CorpusFile::groups`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoldenGroup {
    /// One value per [`GROUP_METRICS`] row.
    pub percentiles: [f64; GROUP_METRICS.len()],
}

/// One recorded cell of the pinned backbone matrix. Unlike the sweep
/// cells, which carry tolerance-banded metrics, a backbone cell is pure
/// identity: it stores the replayable coordinates plus the report
/// fingerprint, and `verify` re-runs exactly those coordinates and
/// demands a bit-identical digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackboneGoldenCell {
    /// Registered topology name.
    pub topology: String,
    /// Reservation-policy registry key.
    pub reservation: String,
    /// Fault-scenario name.
    pub scenario: String,
    /// Master seed of the cell.
    pub seed: u64,
    /// Hypercycles in the measured span.
    pub hypercycles: u64,
    /// Flows the reservation policy admitted.
    pub admitted: u64,
    /// Full [`backbone::CellReport`] fingerprint.
    pub fingerprint: u64,
}

impl CorpusFile {
    /// Records the sweep `report` of `spec`, with no backbone cells. The
    /// report lists cells and groups in matrix order, and so does the
    /// corpus.
    fn record(spec: &SweepSpec, report: &SweepReport) -> CorpusFile {
        let groups = report.groups.iter().map(|g| GoldenGroup {
            percentiles: GROUP_METRICS.map(|m| (m.read)(g)),
        });
        CorpusFile {
            name: NAME.to_string(),
            spec: spec.clone(),
            cells: report.cells.iter().map(GoldenCell::from_outcome).collect(),
            groups: groups.collect(),
            backbone: Vec::new(),
        }
    }

    /// Verifies a fresh sweep of the recorded matrix against the corpus'
    /// cells and groups, pairing each recorded entry with the fresh one
    /// at its position.
    ///
    /// # Panics
    /// Panics if `fresh` is not a sweep of the corpus' own spec.
    fn verify(&self, fresh: &SweepReport) -> VerifyReport {
        assert_eq!(
            (self.cells.len(), self.groups.len()),
            (fresh.cells.len(), fresh.groups.len()),
            "the fresh sweep is not the corpus' matrix"
        );
        let cells = self.cells.iter().zip(&fresh.cells);
        let groups = self.groups.iter().zip(&fresh.groups);
        let group_diffs = groups.flat_map(|(recorded, g)| {
            let at = Some((g.policy, g.scenario));
            metric_diffs(&GROUP_METRICS, &recorded.percentiles, g, at)
        });
        VerifyReport {
            checks: cells.map(check_cell).collect(),
            group_diffs: group_diffs.collect(),
        }
    }
}

/// A counter whose fresh value differs from the recorded one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterDiff {
    /// Counter name (one of [`counter_names`]).
    pub name: &'static str,
    /// Value in the corpus.
    pub recorded: u64,
    /// Value of the fresh run.
    pub fresh: u64,
}

/// A metric outside its tolerance band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDiff {
    /// `Some((policy, scenario label))` for group-envelope metrics,
    /// `None` for per-cell metrics.
    pub group: Option<(PolicyRef, &'static str)>,
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
    /// Policy of the cell.
    pub policy: PolicyRef,
    /// Scenario label.
    pub scenario: &'static str,
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

fn check_cell((recorded, fresh): (&GoldenCell, &CellOutcome)) -> CellCheck {
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
    CellCheck {
        coord: fresh.coord,
        policy: fresh.policy,
        scenario: fresh.scenario,
        seed: fresh.seed,
        recorded_fingerprint: recorded.fingerprint,
        fresh_fingerprint: fresh.fingerprint,
        counter_diffs,
        metric_diffs: metric_diffs(&CELL_METRICS, &recorded.metrics, &fresh.report, None),
    }
}

/// The result of verifying a whole corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    /// One check per corpus cell, in matrix order.
    pub checks: Vec<CellCheck>,
    /// Group-envelope metrics outside their band.
    pub group_diffs: Vec<MetricDiff>,
}

impl VerifyReport {
    /// `true` iff every cell and every group passed.
    pub fn passed(&self) -> bool {
        self.group_diffs.is_empty() && self.checks.iter().all(CellCheck::passed)
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
            "golden verify: {} cells, {} passed, {} failed",
            self.checks.len(),
            self.checks.len() - failed,
            failed,
        )?;
        for c in self.failures() {
            writeln!(
                f,
                "  FAIL {} × {} (seed {:#018x}): fingerprint {:016x} -> {:016x}",
                c.policy.label(),
                c.scenario,
                c.seed,
                c.recorded_fingerprint,
                c.fresh_fingerprint
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
            let (policy, scenario) = d.group.expect("group diffs carry their group");
            writeln!(
                f,
                "  GROUP {} × {scenario} metric {:<24} {:>14.6} -> {:<14.6}",
                policy.label(),
                d.name,
                d.recorded,
                d.fresh
            )?;
        }
        Ok(())
    }
}

/// Records a corpus by running `spec` and capturing every cell, plus
/// the pinned backbone matrix on the default topology.
///
/// # Errors
/// Returns a rendered message if a sweep cell is unschedulable or a
/// backbone cell fails to run.
pub fn record_corpus(spec: &SweepSpec) -> Result<CorpusFile, String> {
    let report = spec
        .run()
        .map_err(|e: SchedulerError| format!("golden spec is unschedulable: {e}"))?;
    Ok(CorpusFile {
        backbone: record_backbone_cells()?,
        ..CorpusFile::record(spec, &report)
    })
}

/// Runs the pinned backbone matrix and snapshots each cell's identity.
fn record_backbone_cells() -> Result<Vec<BackboneGoldenCell>, String> {
    let spec = BackboneMatrixSpec::pinned(backbone::topology::default_topology());
    let reports = run_matrix(&spec, 4).map_err(|e| e.to_string())?;
    Ok(reports
        .iter()
        .map(|r| BackboneGoldenCell {
            topology: r.topology.clone(),
            reservation: r.reservation.to_string(),
            scenario: r.scenario.clone(),
            seed: r.seed,
            hypercycles: r.hypercycles,
            admitted: r.admitted,
            fingerprint: r.fingerprint(),
        })
        .collect())
}

/// Replays the corpus' own spec and verifies the fresh sweep against it.
/// Backbone cells are checked separately by [`verify_backbone`].
///
/// # Errors
/// Returns a rendered message if a cell is unschedulable.
pub fn verify_corpus(file: &CorpusFile) -> Result<VerifyReport, String> {
    let fresh = file
        .spec
        .run()
        .map_err(|e: SchedulerError| format!("recorded spec is unschedulable: {e}"))?;
    Ok(file.verify(&fresh))
}

/// Replays every recorded backbone cell from its stored coordinates and
/// compares fingerprints. Returns one description per diverging cell
/// (empty means the replay was bit-identical).
///
/// # Errors
/// Returns a rendered message when a recorded coordinate no longer
/// resolves (unknown topology/reservation/scenario) or a cell fails to
/// run — distinct from a divergence, which is a gate failure.
pub fn verify_backbone(file: &CorpusFile) -> Result<Vec<String>, String> {
    let mut defects = Vec::new();
    for cell in &file.backbone {
        let topology =
            lookup(backbone::topology::all(), &cell.topology).map_err(|e| e.to_string())?;
        let reservation = lookup(ALL_RESERVATIONS, &cell.reservation)
            .copied()
            .map_err(|e| e.to_string())?;
        let scenario = parse_scenario(&cell.scenario).map_err(|e| e.to_string())?;
        let report = run_cell(&BackboneCellSpec {
            topology,
            reservation,
            scenario,
            seed: cell.seed,
            hypercycles: cell.hypercycles,
        })
        .map_err(|e| e.to_string())?;
        let fresh = report.fingerprint();
        if fresh != cell.fingerprint || report.admitted != cell.admitted {
            defects.push(format!(
                "backbone {} {} {} seed {}: recorded fingerprint {:016x} (admitted {}), \
                 replay produced {fresh:016x} (admitted {})",
                cell.topology,
                cell.reservation,
                cell.scenario,
                cell.seed,
                cell.fingerprint,
                cell.admitted,
                report.admitted,
            ));
        }
    }
    Ok(defects)
}

// ---------------------------------------------------------------------------
// JSON serialization
// ---------------------------------------------------------------------------

/// The `(policy, scenario)` labels a corpus entry carries.
type Labels = (&'static str, &'static str);

/// The labels of the `{policy × scenario}` groups of `spec`'s matrix, in
/// matrix order (policy-major).
fn group_labels(spec: &SweepSpec) -> impl Iterator<Item = Labels> + '_ {
    let column = move |&p: &PolicyRef| spec.scenarios.iter().map(move |s| (p.label(), s.name));
    spec.policies.iter().flat_map(column)
}

/// The labels of the cells of `spec`'s matrix, in matrix order: each
/// group's labels once per seed.
fn cell_labels(spec: &SweepSpec) -> impl Iterator<Item = Labels> + '_ {
    group_labels(spec).flat_map(|labels| std::iter::repeat_n(labels, spec.seeds as usize))
}

/// Serializes a corpus file into the `coefficient-golden/2` document.
///
/// # Panics
/// Panics unless `file` holds one entry per cell and group of its spec's
/// matrix, since the labels written come from the spec.
pub fn corpus_to_json(file: &CorpusFile) -> Json {
    let spec = &file.spec;
    assert_eq!(
        (file.cells.len(), file.groups.len()),
        (cell_labels(spec).count(), group_labels(spec).count()),
        "a corpus holds one entry per cell and group of its spec's matrix"
    );
    Json::object([
        ("schema", Json::str(SCHEMA)),
        ("name", Json::str(file.name.clone())),
        (
            "tolerance",
            Json::object([
                ("ratio_abs", Json::from(RATIO_ABS)),
                ("scale_rel", Json::from(SCALE_REL)),
            ]),
        ),
        (
            "spec",
            Json::object([
                ("minislots", Json::from(spec.minislots)),
                ("horizon_ms", Json::from(spec.horizon_ms)),
                ("seeds", Json::from(spec.seeds)),
                ("master_seed", Json::from(spec.master_seed)),
                (
                    "shared_seeds",
                    Json::from(matches!(spec.strategy, SeedStrategy::Shared)),
                ),
                (
                    "policies",
                    Json::array(spec.policies.iter().map(|&p| Json::str(p.label()))),
                ),
                (
                    "scenarios",
                    Json::array(spec.scenarios.iter().map(|s| Json::str(s.name))),
                ),
            ]),
        ),
        (
            "cells",
            Json::array(cell_labels(spec).zip(&file.cells).map(cell_to_json)),
        ),
        (
            "groups",
            Json::array(group_labels(spec).zip(&file.groups).map(group_to_json)),
        ),
        (
            "backbone",
            Json::array(file.backbone.iter().map(backbone_cell_to_json)),
        ),
    ])
}

fn backbone_cell_to_json(cell: &BackboneGoldenCell) -> Json {
    Json::object([
        ("topology", Json::str(cell.topology.clone())),
        ("reservation", Json::str(cell.reservation.clone())),
        ("scenario", Json::str(cell.scenario.clone())),
        ("seed", Json::from(cell.seed)),
        ("hypercycles", Json::from(cell.hypercycles)),
        ("admitted", Json::from(cell.admitted)),
        (
            "fingerprint",
            Json::String(format!("{:016x}", cell.fingerprint)),
        ),
    ])
}

/// An entry of the `cells` or `groups` array: its labels, then `fields`.
fn labelled(labels: Labels, fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let labels = [("policy", labels.0), ("scenario", labels.1)].map(|(k, v)| (k, Json::str(v)));
    Json::object(labels.into_iter().chain(fields))
}

fn cell_to_json((labels, cell): (Labels, &GoldenCell)) -> Json {
    let fingerprint = Json::String(format!("{:016x}", cell.fingerprint));
    let metrics = CELL_METRICS.map(|m| m.name).into_iter();
    let metrics = metrics.zip(cell.metrics.map(Json::from));
    let counters = counter_names().into_iter();
    let counters = counters.zip(cell.counters.map(Json::from));
    let fields = [
        ("fingerprint", fingerprint),
        ("metrics", Json::object(metrics)),
        ("counters", Json::object(counters)),
    ];
    labelled(labels, fields)
}

fn group_to_json((labels, group): (Labels, &GoldenGroup)) -> Json {
    let percentiles = GROUP_METRICS.map(|m| m.name).into_iter();
    labelled(labels, percentiles.zip(group.percentiles.map(Json::from)))
}

// ---------------------------------------------------------------------------
// JSON deserialization
// ---------------------------------------------------------------------------

/// Parses a `coefficient-golden/2` document back into a corpus file.
///
/// # Errors
/// Names the defect on a schema mismatch, a recorded band other than
/// [`RATIO_ABS`] and [`SCALE_REL`], any missing or mistyped field, or
/// `cells` and `groups` arrays that are not the spec's matrix.
fn corpus_from_json(doc: &Json) -> Result<CorpusFile, String> {
    let schema = want_str(doc, "schema")?;
    if schema != SCHEMA {
        return Err(format!("schema {schema:?} is not {SCHEMA:?}"));
    }
    // The bands are recorded for readers of the file, not read back: a
    // hand-loosened band would silently switch the envelope off.
    let tolerance = want(doc, "tolerance")?;
    for (key, band) in [("ratio_abs", RATIO_ABS), ("scale_rel", SCALE_REL)] {
        let recorded = want_f64(tolerance, key)?;
        if recorded != band {
            return Err(format!(
                "\"tolerance\" {key:?} is {recorded}, not the fixed band {band}"
            ));
        }
    }
    let spec = spec_from_json(want(doc, "spec")?)?;
    let groups = spec.policies.len() * spec.scenarios.len();
    let cells = groups.saturating_mul(spec.seeds as usize);
    let cells = entries(doc, "cells", cells, cell_labels(&spec), cell_from_json)?;
    let groups = entries(doc, "groups", groups, group_labels(&spec), group_from_json)?;
    // A corpus without backbone cells would gate only the sweep half.
    let backbone = want_array(doc, "backbone")?
        .iter()
        .map(backbone_cell_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    if backbone.is_empty() {
        return Err("\"backbone\" holds no cells".to_string());
    }
    Ok(CorpusFile {
        name: want_str(doc, "name")?.to_string(),
        spec,
        cells,
        groups,
        backbone,
    })
}

/// The 16 hex digits of a recorded fingerprint.
fn fingerprint_from_json(doc: &Json) -> Result<u64, String> {
    let fingerprint = want_str(doc, "fingerprint")?;
    u64::from_str_radix(fingerprint, 16)
        .map_err(|_| format!("fingerprint {fingerprint:?} is not hex"))
}

fn backbone_cell_from_json(doc: &Json) -> Result<BackboneGoldenCell, String> {
    let fingerprint = fingerprint_from_json(doc)?;
    // Resolve eagerly so an unknown name in a corpus file lists every
    // registered topology/reservation, mirroring the policy axis.
    let topology = want_str(doc, "topology")?;
    lookup(backbone::topology::all(), topology).map_err(|e| e.to_string())?;
    let reservation = want_str(doc, "reservation")?;
    lookup(ALL_RESERVATIONS, reservation).map_err(|e| e.to_string())?;
    Ok(BackboneGoldenCell {
        topology: topology.to_string(),
        reservation: reservation.to_string(),
        scenario: want_str(doc, "scenario")?.to_string(),
        seed: want_u64(doc, "seed")?,
        hypercycles: want_u64(doc, "hypercycles")?,
        admitted: want_u64(doc, "admitted")?,
        fingerprint,
    })
}

fn spec_from_json(doc: &Json) -> Result<SweepSpec, String> {
    let policies = want_array(doc, "policies")?
        .iter()
        .map(|p| {
            let name = p
                .as_str()
                .ok_or_else(|| format!("policy {p} is not a string"))?;
            // Surface the registry's own error so an unknown name in a
            // corpus file lists every registered policy.
            coefficient::registry::resolve(name).map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let scenarios = want_array(doc, "scenarios")?
        .iter()
        .map(|s| {
            let name = s
                .as_str()
                .ok_or_else(|| format!("scenario entry {s} is not a string"))?;
            parse_scenario(name).map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let shared = want(doc, "shared_seeds")?
        .as_bool()
        .ok_or("\"shared_seeds\" is not a bool")?;
    let spec = SweepSpec {
        minislots: want_u64(doc, "minislots")?,
        horizon_ms: want_u64(doc, "horizon_ms")?,
        seeds: want_u64(doc, "seeds")?,
        master_seed: want_u64(doc, "master_seed")?,
        threads: None,
        policies,
        scenarios,
        strategy: if shared {
            SeedStrategy::Shared
        } else {
            SeedStrategy::PerCell
        },
    };
    spec.check()
        .map_err(|e| format!("spec {:?}: {} ({})", e.field, e.value, e.reason))?;
    Ok(spec)
}

/// The `key` array of a corpus: `count` entries carrying `labels` in
/// order, each read by `read`.
///
/// # Errors
/// Names the array and both counts when it does not hold `count`
/// entries, and the entry, the label and both values when a label is
/// not the one the spec's matrix has at that position.
fn entries<T>(
    doc: &Json,
    key: &str,
    count: usize,
    labels: impl Iterator<Item = Labels>,
    read: fn(&Json) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let items = want_array(doc, key)?;
    if items.len() != count {
        let n = items.len();
        return Err(format!(
            "{key:?} holds {n} entries, but the spec's matrix has {count}"
        ));
    }
    let labelled = items.iter().zip(labels).enumerate();
    labelled
        .map(|(i, (item, (policy, scenario)))| {
            for (label, want) in [("policy", policy), ("scenario", scenario)] {
                let got = want_str(item, label)?;
                if got != want {
                    return Err(format!(
                        "{key}[{i}] {label:?} is {got:?}, but the spec's matrix has {want:?} there"
                    ));
                }
            }
            read(item)
        })
        .collect()
}

fn cell_from_json(doc: &Json) -> Result<GoldenCell, String> {
    let fingerprint = fingerprint_from_json(doc)?;
    let (metrics, counters) = (want(doc, "metrics")?, want(doc, "counters")?);
    Ok(GoldenCell {
        fingerprint,
        metrics: values(CELL_METRICS.map(|m| m.name), |name| want_f64(metrics, name))?,
        counters: values(counter_names(), |name| want_u64(counters, name))?,
    })
}

fn group_from_json(doc: &Json) -> Result<GoldenGroup, String> {
    Ok(GoldenGroup {
        percentiles: values(GROUP_METRICS.map(|m| m.name), |name| want_f64(doc, name))?,
    })
}

/// Reads the value of each of `names` by `read(name)`: the one loop by
/// which the corpus reader fills metrics, percentiles and counters.
fn values<V: Copy + Default, const N: usize>(
    names: [&str; N],
    read: impl Fn(&str) -> Result<V, String>,
) -> Result<[V; N], String> {
    let mut values = [V::default(); N];
    for (value, name) in values.iter_mut().zip(names) {
        *value = read(name)?;
    }
    Ok(values)
}

// ---------------------------------------------------------------------------
// file I/O
// ---------------------------------------------------------------------------

/// Writes a corpus file to `path` (pretty-printed, creating parent
/// directories, with a trailing newline so it diffs cleanly in git).
///
/// # Errors
/// Propagates filesystem errors.
pub fn save_corpus(path: &Path, file: &CorpusFile) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let mut text = corpus_to_json(file).pretty();
    text.push('\n');
    fs::write(path, text)
}

/// Reads and parses a corpus file from `path`.
///
/// # Errors
/// Returns a rendered message for filesystem, JSON-syntax or schema
/// defects (the CLI prints it verbatim).
pub fn load_corpus(path: &Path) -> Result<CorpusFile, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    corpus_from_json(&doc).map_err(|e| format!("{}: invalid golden corpus: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use coefficient::{SweepRunner, FSPEC, GREEDY};

    /// CoEfficient and FSPEC under BER-7 for 2 seeds of 20 ms.
    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            horizon_ms: 20,
            seeds: 2,
            scenarios: vec![Scenario::ber7()],
            threads: Some(2),
            ..SweepSpec::default()
        }
    }

    fn sweep(spec: &SweepSpec) -> SweepReport {
        spec.run().expect("spec is schedulable")
    }

    /// The sweep half of a corpus recorded from `spec`.
    fn recorded(spec: &SweepSpec) -> CorpusFile {
        CorpusFile::record(spec, &sweep(spec))
    }

    /// The index of a [`CELL_METRICS`] row.
    fn metric(name: &str) -> usize {
        CELL_METRICS.iter().position(|m| m.name == name).unwrap()
    }

    /// The index of a [`counter_names`] entry.
    fn counter(name: &str) -> usize {
        counter_names().iter().position(|&n| n == name).unwrap()
    }

    #[test]
    fn golden_spec_covers_the_whole_registry_with_a_storm_column() {
        let spec = golden_spec();
        let matrix = spec.build_matrix();
        assert_eq!(spec.policies.len(), coefficient::registry::all().len());
        assert_eq!(matrix.cell_count(), 9 * spec.policies.len());
        assert_eq!(matrix.cell_count(), 54);
        // The legacy pair leads the axis, so its cells keep coordinates
        // (and, via scenario-keyed seeds, digests) from the 18-cell era.
        assert_eq!(spec.policies[0], coefficient::COEFFICIENT);
        assert_eq!(spec.policies[1], coefficient::FSPEC);
        assert!(spec.scenarios.iter().any(|s| s.name == "BER-7-storm"));
    }

    #[test]
    fn replay_of_the_same_matrix_verifies_clean() {
        let corpus = recorded(&tiny_spec());
        assert_eq!(corpus.cells.len(), 4);
        let report = corpus.verify(&sweep(&tiny_spec()));
        assert!(report.passed(), "{report}");
    }

    #[test]
    #[should_panic(expected = "one entry per cell and group of its spec's matrix")]
    fn a_corpus_that_is_not_its_specs_matrix_is_not_written() {
        let mut corpus = recorded(&tiny_spec());
        corpus.groups.push(corpus.groups[0]);
        corpus_to_json(&corpus);
    }

    #[test]
    fn entries_are_labelled_as_the_sweep_lists_its_cells_and_groups() {
        let spec = SweepSpec {
            scenarios: vec![Scenario::ber7(), Scenario::ber9()],
            ..tiny_spec()
        };
        let report = sweep(&spec);
        let doc = corpus_to_json(&CorpusFile::record(&spec, &report));
        let labels = |key: &str| -> Vec<[String; 2]> {
            let entries = doc.get(key).and_then(Json::as_array).unwrap();
            let label = |e: &Json, k| e.get(k).and_then(Json::as_str).unwrap().to_string();
            let pair = |e: &Json| [label(e, "policy"), label(e, "scenario")];
            entries.iter().map(pair).collect()
        };
        let swept = |p: PolicyRef, s: &str| [p.label().to_string(), s.to_string()];
        let cells = report.cells.iter().map(|c| swept(c.policy, c.scenario));
        assert_eq!(labels("cells"), cells.collect::<Vec<_>>());
        let groups = report.groups.iter().map(|g| swept(g.policy, g.scenario));
        assert_eq!(labels("groups"), groups.collect::<Vec<_>>());
    }

    #[test]
    fn perturbed_fingerprint_fails_with_counter_diff() {
        let mut corpus = recorded(&tiny_spec());
        corpus.cells[0].fingerprint ^= 1;
        corpus.cells[0].counters[counter("steal_denied")] += 5;
        let report = corpus.verify(&sweep(&tiny_spec()));
        assert!(!report.passed());
        let failure = report.failures().next().expect("cell 0 fails");
        let first = CellCoord {
            policy: 0,
            scenario: 0,
            seed: 0,
        };
        assert_eq!(failure.coord, first);
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
        let mut corpus = recorded(&tiny_spec());
        corpus.cells[1].metrics[metric("miss_ratio")] += 0.5;
        let report = corpus.verify(&sweep(&tiny_spec()));
        assert!(!report.passed());
        let failure = report.failures().next().expect("cell 1 fails");
        assert!(failure.metric_diffs.iter().any(|d| d.name == "miss_ratio"));
    }

    #[test]
    #[should_panic(expected = "not the corpus' matrix")]
    fn a_sweep_of_another_matrix_is_not_verified() {
        let corpus = recorded(&tiny_spec());
        let shrunk = SweepSpec {
            seeds: 1,
            ..tiny_spec()
        };
        corpus.verify(&sweep(&shrunk));
    }

    #[test]
    fn nan_latencies_compare_equal() {
        // A matrix with no dynamic messages has NaN dynamic-latency
        // metrics on both sides; that must not fail verification.
        let spec = tiny_spec();
        let mut matrix = spec.build_matrix();
        matrix.dynamic_messages.clear();
        let run = || SweepRunner::new(matrix.clone()).threads(1).run().unwrap();
        let corpus = CorpusFile::record(&spec, &run());
        assert!(corpus.cells[0].metrics[metric("dynamic_latency_mean_ms")].is_nan());
        let report = corpus.verify(&run());
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn a_new_policy_column_cannot_mask_an_old_column_regression() {
        // The corpus grows by appending policy columns. The per-cell
        // checks must stay anchored to matrix positions, so a widened corpus
        // still rejects a perturbed cell in one of the *original*
        // columns even though every new-policy cell verifies clean.
        let mut wide = tiny_spec();
        wide.policies.push(GREEDY);
        let fresh = sweep(&wide);
        let mut corpus = CorpusFile::record(&wide, &fresh);
        assert_eq!(corpus.cells.len(), 6);
        // Perturb an FSPEC cell (an "old" column) the way a behavioral
        // regression would move it.
        let victim = fresh
            .cells
            .iter()
            .position(|c| c.policy == FSPEC)
            .expect("fspec column recorded");
        corpus.cells[victim].fingerprint ^= 1;
        corpus.cells[victim].counters[counter("dropped_copies")] += 3;
        let report = corpus.verify(&fresh);
        assert!(!report.passed(), "old-column regression slipped through");
        let failures: Vec<_> = report.failures().collect();
        assert_eq!(failures.len(), 1, "exactly the perturbed cell fails");
        assert_eq!(failures[0].policy, FSPEC);
        assert_eq!(failures[0].coord, fresh.cells[victim].coord);
        // And the greedy column genuinely verified — it is present, not
        // skipped (its passing must not be what hides the regression).
        assert!(report
            .checks
            .iter()
            .any(|c| c.policy == GREEDY && c.passed()));
    }

    #[test]
    fn a_miscounted_or_mislabelled_corpus_is_refused() {
        let recorded = record_corpus(&tiny_spec()).unwrap();
        let refused = |key: &str, edit: fn(&mut Vec<Json>)| {
            let mut doc = corpus_to_json(&recorded);
            let Json::Object(fields) = &mut doc else {
                panic!("corpus document is not an object");
            };
            let Some((_, Json::Array(items))) = fields.iter_mut().find(|(k, _)| k == key) else {
                panic!("{key} is not an array");
            };
            edit(items);
            corpus_from_json(&doc).unwrap_err()
        };
        let err = refused("cells", |cells| drop(cells.pop()));
        assert_eq!(
            err,
            "\"cells\" holds 3 entries, but the spec's matrix has 4"
        );
        let err = refused("groups", |groups| groups.push(groups[0].clone()));
        assert_eq!(
            err,
            "\"groups\" holds 3 entries, but the spec's matrix has 2"
        );
        let err = refused("cells", |cells| {
            let Json::Object(fields) = &mut cells[2] else {
                panic!("a cell is not an object");
            };
            fields[0].1 = Json::str("CoEfficient");
        });
        assert_eq!(
            err,
            "cells[2] \"policy\" is \"CoEfficient\", but the spec's matrix has \"FSPEC\" there"
        );
    }

    #[test]
    fn band_semantics() {
        assert!(Band::RatioAbs.within(0.5, 0.5 + 0.9 * RATIO_ABS));
        assert!(!Band::RatioAbs.within(0.5, 0.5 + 2.0 * RATIO_ABS));
        assert!(Band::ScaleRel.within(100.0, 100.0 * (1.0 + 0.9 * SCALE_REL)));
        assert!(!Band::ScaleRel.within(100.0, 100.0 * (1.0 + 2.0 * SCALE_REL)));
        assert!(Band::ScaleRel.within(f64::NAN, f64::NAN));
        assert!(!Band::ScaleRel.within(1.0, f64::NAN));
    }

    #[test]
    fn unknown_policy_in_a_corpus_file_lists_the_registry() {
        let recorded = record_corpus(&tiny_spec()).unwrap();
        let doc = corpus_to_json(&recorded)
            .to_string()
            .replace("\"CoEfficient\"", "\"NoSuchPolicy\"");
        let err = corpus_from_json(&Json::parse(&doc).unwrap()).unwrap_err();
        assert!(err.contains("unknown policy \"NoSuchPolicy\""), "{err}");
        for policy in coefficient::registry::all() {
            assert!(err.contains(policy.key()), "{err}");
        }
    }

    #[test]
    fn corpus_round_trips_through_json() {
        let recorded = record_corpus(&tiny_spec()).unwrap();
        let text = corpus_to_json(&recorded).pretty();
        let parsed = corpus_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed.name, "default");
        assert_eq!(parsed.cells, recorded.cells);
        assert_eq!(parsed.groups, recorded.groups);
        assert_eq!(parsed.backbone, recorded.backbone);
        assert_eq!(parsed.spec.minislots, recorded.spec.minislots);
        assert_eq!(parsed.spec.horizon_ms, recorded.spec.horizon_ms);
        assert_eq!(parsed.spec.seeds, recorded.spec.seeds);
        assert_eq!(parsed.spec.master_seed, recorded.spec.master_seed);
        assert_eq!(parsed.spec.policies, recorded.spec.policies);
        let names = |spec: &SweepSpec| spec.scenarios.iter().map(|s| s.name).collect::<Vec<_>>();
        assert_eq!(names(&parsed.spec), names(&recorded.spec));
    }

    #[test]
    fn parsed_corpus_verifies_against_a_fresh_replay() {
        let recorded = record_corpus(&tiny_spec()).unwrap();
        let text = corpus_to_json(&recorded).to_string();
        let parsed = corpus_from_json(&Json::parse(&text).unwrap()).unwrap();
        let report = verify_corpus(&parsed).unwrap();
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn rejects_wrong_schema_loosened_bands_and_broken_fields() {
        let recorded = record_corpus(&tiny_spec()).unwrap();
        let good = corpus_to_json(&recorded).to_string();
        let refused = |doc: String| corpus_from_json(&Json::parse(&doc).unwrap()).unwrap_err();

        let wrong_schema = good.replace(SCHEMA, "coefficient-golden/999");
        let err = refused(wrong_schema);
        assert!(err.contains("schema"), "{err}");

        let loosened = good.replace("\"scale_rel\":0.000001", "\"scale_rel\":1");
        assert_ne!(loosened, good);
        let err = refused(loosened);
        assert!(err.contains("\"tolerance\" \"scale_rel\" is 1"), "{err}");

        refused(good.replace("\"CoEfficient\"", "\"NoSuchPolicy\""));
        let first_counter = format!("\"{}\"", counter_names()[0]);
        refused(good.replace(&first_counter, "\"renamed_counter\""));
    }

    #[test]
    fn backbone_cells_join_the_corpus_and_replay() {
        let mut recorded = record_corpus(&tiny_spec()).unwrap();
        // The pinned matrix: 2 reservation policies x {BER-7, BER-7-storm}.
        assert_eq!(recorded.backbone.len(), 4);
        assert!(verify_backbone(&recorded).unwrap().is_empty());
        recorded.backbone[0].fingerprint ^= 1;
        let defects = verify_backbone(&recorded).unwrap();
        assert_eq!(defects.len(), 1, "{defects:?}");
        assert!(defects[0].contains("backbone paper-duplex"), "{defects:?}");
    }

    #[test]
    fn corpus_without_backbone_cells_is_refused() {
        let recorded = record_corpus(&tiny_spec()).unwrap();
        let Json::Object(entries) = corpus_to_json(&recorded) else {
            panic!("corpus document is not an object");
        };
        let without = |backbone: Option<Json>| {
            let mut entries: Vec<_> = entries
                .iter()
                .filter(|(k, _)| k != "backbone")
                .cloned()
                .collect();
            entries.extend(backbone.map(|v| ("backbone".to_string(), v)));
            corpus_from_json(&Json::Object(entries)).unwrap_err()
        };
        let absent = without(None);
        assert!(absent.contains("missing key \"backbone\""), "{absent}");
        let empty = without(Some(Json::Array(Vec::new())));
        assert!(empty.contains("\"backbone\" holds no cells"), "{empty}");
    }

    #[test]
    fn save_and_load_round_trip_on_disk() {
        let dir = std::env::temp_dir().join("coefficient-golden-test");
        let path = dir.join("nested").join("golden.json");
        let recorded = record_corpus(&tiny_spec()).unwrap();
        save_corpus(&path, &recorded).unwrap();
        let loaded = load_corpus(&path).unwrap();
        assert_eq!(loaded.cells, recorded.cells);
        assert_eq!(loaded.groups, recorded.groups);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_reports_readable_errors() {
        let missing = load_corpus(Path::new("/nonexistent/golden.json")).unwrap_err();
        assert!(missing.contains("cannot read"), "{missing}");
    }
}
