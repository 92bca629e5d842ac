//! Golden-corpus persistence and entry points for the `experiments
//! golden record|verify` CLI.
//!
//! The comparison logic (fingerprint identity, tolerance bands,
//! counter-level diffs) lives in [`coefficient::golden`]; this module
//! owns the `coefficient-golden/1` JSON schema, the pinned corpus spec
//! the CI gate runs, and file I/O.
//!
//! A corpus file is self-describing: it embeds the [`SweepSpec`] it was
//! recorded from, so `verify` rebuilds exactly the recorded matrix —
//! the checked-in file is the single source of truth, and drift between
//! "what was recorded" and "what is replayed" is impossible by
//! construction.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use coefficient::golden::{GoldenGroup, CELL_METRICS, GROUP_METRICS, SCHEMA};
use coefficient::{
    CellCoord, GoldenCell, GoldenCorpus, Scenario, SchedulerError, SeedStrategy, Tolerances,
    VerifyReport,
};

use backbone::{run_cell, run_matrix, ALL_RESERVATIONS};
use backbone::{CellSpec as BackboneCellSpec, MatrixSpec as BackboneMatrixSpec};
use coefficient::registry::lookup;

use crate::experiments::SEED;
use crate::json::{want, want_array, want_f64, want_str, want_u64, Json};
use crate::sweep::{parse_scenario, SweepSpec};
use crate::trace::counter_names;

/// Default on-disk location of the checked-in corpus.
pub const DEFAULT_CORPUS_PATH: &str = "corpus/golden.json";

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

/// A corpus together with the spec that produced it — the unit the
/// `coefficient-golden/1` file stores.
#[derive(Debug, Clone)]
pub struct CorpusFile {
    /// The sweep spec the corpus was recorded from (and is verified
    /// against).
    pub spec: SweepSpec,
    /// The recorded cells, groups and tolerances.
    pub corpus: GoldenCorpus,
    /// The recorded end-to-end backbone cells (a corpus file must hold
    /// at least one).
    pub backbone: Vec<BackboneGoldenCell>,
}

/// One recorded cell of the pinned backbone matrix. Unlike the sweep
/// cells — which carry tolerance-banded metrics — a backbone cell is
/// pure identity: it stores the replayable coordinates plus the report
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

/// Records a corpus by running `spec` and capturing every cell, plus
/// the pinned backbone matrix on the default topology.
///
/// # Errors
/// Returns a rendered message if a sweep cell is unschedulable or a
/// backbone cell fails to run.
pub fn record_corpus(name: &str, spec: &SweepSpec) -> Result<CorpusFile, String> {
    let report = spec
        .run()
        .map_err(|e: SchedulerError| format!("golden spec is unschedulable: {e}"))?;
    Ok(CorpusFile {
        spec: spec.clone(),
        corpus: GoldenCorpus::record(name, &report),
        backbone: record_backbone_cells()?,
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
    Ok(file.corpus.verify(&fresh))
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

/// Serializes a corpus file into the `coefficient-golden/1` document.
pub fn corpus_to_json(file: &CorpusFile) -> Json {
    let spec = &file.spec;
    let corpus = &file.corpus;
    Json::object([
        ("schema", Json::str(SCHEMA)),
        ("name", Json::str(corpus.name.clone())),
        (
            "tolerance",
            Json::object([
                ("ratio_abs", Json::from(corpus.tolerance.ratio_abs)),
                ("scale_rel", Json::from(corpus.tolerance.scale_rel)),
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
        ("cells", Json::array(corpus.cells.iter().map(cell_to_json))),
        (
            "groups",
            Json::array(corpus.groups.iter().map(group_to_json)),
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

fn cell_to_json(cell: &GoldenCell) -> Json {
    Json::object([
        ("policy", Json::str(cell.policy.clone())),
        ("scenario", Json::str(cell.scenario.clone())),
        ("policy_index", Json::from(cell.coord.policy)),
        ("scenario_index", Json::from(cell.coord.scenario)),
        ("seed_index", Json::from(cell.coord.seed)),
        ("seed", Json::from(cell.seed)),
        (
            "fingerprint",
            Json::String(format!("{:016x}", cell.fingerprint)),
        ),
        (
            "metrics",
            Json::object(
                CELL_METRICS
                    .map(|m| m.name)
                    .into_iter()
                    .zip(cell.metrics.map(Json::from)),
            ),
        ),
        (
            "counters",
            Json::object(
                counter_names()
                    .into_iter()
                    .zip(cell.counters.map(Json::from)),
            ),
        ),
    ])
}

fn group_to_json(group: &GoldenGroup) -> Json {
    let index = [
        ("policy_index", Json::from(group.policy)),
        ("scenario_index", Json::from(group.scenario)),
    ];
    let percentiles = GROUP_METRICS
        .map(|m| m.name)
        .into_iter()
        .zip(group.percentiles.map(Json::from));
    Json::object(index.into_iter().chain(percentiles))
}

// ---------------------------------------------------------------------------
// JSON deserialization
// ---------------------------------------------------------------------------

/// A structural defect in a corpus document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusError {
    /// What was wrong, with the offending key.
    pub message: String,
}

impl CorpusError {
    fn new(message: impl Into<String>) -> CorpusError {
        CorpusError {
            message: message.into(),
        }
    }
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid golden corpus: {}", self.message)
    }
}

impl std::error::Error for CorpusError {}

impl From<String> for CorpusError {
    fn from(message: String) -> CorpusError {
        CorpusError::new(message)
    }
}

/// Parses a `coefficient-golden/1` document back into a corpus file.
///
/// # Errors
/// Returns [`CorpusError`] on a schema mismatch or any missing or
/// mistyped field.
pub fn corpus_from_json(doc: &Json) -> Result<CorpusFile, CorpusError> {
    let schema = want_str(doc, "schema")?;
    if schema != SCHEMA {
        return Err(CorpusError::new(format!(
            "schema {schema:?} is not {SCHEMA:?}"
        )));
    }
    let tolerance = want(doc, "tolerance")?;
    let tolerance = Tolerances {
        ratio_abs: want_f64(tolerance, "ratio_abs")?,
        scale_rel: want_f64(tolerance, "scale_rel")?,
    };
    let spec = spec_from_json(want(doc, "spec")?)?;
    let cells = want_array(doc, "cells")?
        .iter()
        .map(cell_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    let groups = want_array(doc, "groups")?
        .iter()
        .map(group_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    // A corpus without backbone cells would gate only the sweep half.
    let backbone = want_array(doc, "backbone")?
        .iter()
        .map(backbone_cell_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    if backbone.is_empty() {
        return Err(CorpusError::new("\"backbone\" holds no cells"));
    }
    Ok(CorpusFile {
        spec,
        corpus: GoldenCorpus {
            name: want_str(doc, "name")?.to_string(),
            tolerance,
            cells,
            groups,
        },
        backbone,
    })
}

fn backbone_cell_from_json(doc: &Json) -> Result<BackboneGoldenCell, CorpusError> {
    let fingerprint = want_str(doc, "fingerprint")?;
    let fingerprint = u64::from_str_radix(fingerprint, 16)
        .map_err(|_| CorpusError::new(format!("fingerprint {fingerprint:?} is not hex")))?;
    // Resolve eagerly so an unknown name in a corpus file lists every
    // registered topology/reservation, mirroring the policy axis.
    let topology = want_str(doc, "topology")?;
    lookup(backbone::topology::all(), topology).map_err(|e| CorpusError::new(e.to_string()))?;
    let reservation = want_str(doc, "reservation")?;
    lookup(ALL_RESERVATIONS, reservation).map_err(|e| CorpusError::new(e.to_string()))?;
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

fn spec_from_json(doc: &Json) -> Result<SweepSpec, CorpusError> {
    let policies = want_array(doc, "policies")?
        .iter()
        .map(|p| {
            let name = p
                .as_str()
                .ok_or_else(|| CorpusError::new(format!("policy {p} is not a string")))?;
            // Surface the registry's own error so an unknown name in a
            // corpus file lists every registered policy.
            coefficient::registry::resolve(name).map_err(|e| CorpusError::new(e.to_string()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let scenarios = want_array(doc, "scenarios")?
        .iter()
        .map(|s| {
            s.as_str()
                .ok_or_else(|| CorpusError::new(format!("scenario entry {s} is not a string")))
                .and_then(|name| parse_scenario(name).map_err(|e| CorpusError::new(e.to_string())))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let shared = want(doc, "shared_seeds")?
        .as_bool()
        .ok_or_else(|| CorpusError::new("\"shared_seeds\" is not a bool"))?;
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
        .map_err(|e| CorpusError::new(format!("spec {:?}: {} ({})", e.field, e.value, e.reason)))?;
    Ok(spec)
}

fn cell_from_json(doc: &Json) -> Result<GoldenCell, CorpusError> {
    let fingerprint = want_str(doc, "fingerprint")?;
    let fingerprint = u64::from_str_radix(fingerprint, 16)
        .map_err(|_| CorpusError::new(format!("fingerprint {fingerprint:?} is not hex")))?;
    let (metrics, counters) = (want(doc, "metrics")?, want(doc, "counters")?);
    Ok(GoldenCell {
        coord: CellCoord {
            policy: want_u64(doc, "policy_index")? as usize,
            scenario: want_u64(doc, "scenario_index")? as usize,
            seed: want_u64(doc, "seed_index")? as usize,
        },
        policy: want_str(doc, "policy")?.to_string(),
        scenario: want_str(doc, "scenario")?.to_string(),
        seed: want_u64(doc, "seed")?,
        fingerprint,
        metrics: values(CELL_METRICS.map(|m| m.name), |name| want_f64(metrics, name))?,
        counters: values(counter_names(), |name| want_u64(counters, name))?,
    })
}

fn group_from_json(doc: &Json) -> Result<GoldenGroup, CorpusError> {
    Ok(GoldenGroup {
        policy: want_u64(doc, "policy_index")? as usize,
        scenario: want_u64(doc, "scenario_index")? as usize,
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
    corpus_from_json(&doc).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            horizon_ms: 20,
            seeds: 2,
            scenarios: vec![Scenario::ber7()],
            threads: Some(2),
            ..SweepSpec::default()
        }
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
    fn unknown_policy_in_a_corpus_file_lists_the_registry() {
        let recorded = record_corpus("bad-policy", &tiny_spec()).unwrap();
        let doc = corpus_to_json(&recorded)
            .to_string()
            .replace("\"CoEfficient\"", "\"NoSuchPolicy\"");
        let err = corpus_from_json(&Json::parse(&doc).unwrap()).unwrap_err();
        assert!(
            err.message.contains("unknown policy \"NoSuchPolicy\""),
            "{err}"
        );
        for policy in coefficient::registry::all() {
            assert!(err.message.contains(policy.key()), "{err}");
        }
    }

    #[test]
    fn corpus_round_trips_through_json() {
        let recorded = record_corpus("roundtrip", &tiny_spec()).unwrap();
        let text = corpus_to_json(&recorded).pretty();
        let parsed = corpus_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed.corpus, recorded.corpus);
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
        let recorded = record_corpus("replay", &tiny_spec()).unwrap();
        let text = corpus_to_json(&recorded).to_string();
        let parsed = corpus_from_json(&Json::parse(&text).unwrap()).unwrap();
        let report = verify_corpus(&parsed).unwrap();
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn rejects_wrong_schema_and_broken_fields() {
        let recorded = record_corpus("bad", &tiny_spec()).unwrap();
        let good = corpus_to_json(&recorded).to_string();

        let wrong_schema = good.replace("coefficient-golden/1", "coefficient-golden/999");
        let err = corpus_from_json(&Json::parse(&wrong_schema).unwrap()).unwrap_err();
        assert!(err.message.contains("schema"), "{err}");

        let bad_policy = good.replace("\"CoEfficient\"", "\"NoSuchPolicy\"");
        assert!(corpus_from_json(&Json::parse(&bad_policy).unwrap()).is_err());

        let first_counter = format!("\"{}\"", counter_names()[0]);
        let truncated = good.replace(&first_counter, "\"renamed_counter\"");
        assert!(corpus_from_json(&Json::parse(&truncated).unwrap()).is_err());
    }

    #[test]
    fn backbone_cells_join_the_corpus_and_replay() {
        let mut recorded = record_corpus("backbone", &tiny_spec()).unwrap();
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
        let recorded = record_corpus("legacy", &tiny_spec()).unwrap();
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
            corpus_from_json(&Json::Object(entries))
                .unwrap_err()
                .message
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
        let recorded = record_corpus("disk", &tiny_spec()).unwrap();
        save_corpus(&path, &recorded).unwrap();
        let loaded = load_corpus(&path).unwrap();
        assert_eq!(loaded.corpus, recorded.corpus);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_reports_readable_errors() {
        let missing = load_corpus(Path::new("/nonexistent/golden.json")).unwrap_err();
        assert!(missing.contains("cannot read"), "{missing}");
    }
}
