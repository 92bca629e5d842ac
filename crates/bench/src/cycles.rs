//! The `bench cycles` perf-trajectory harness.
//!
//! Runs a pinned 18-cell matrix per registered policy (6 scenarios × 3
//! seeds on the golden geometry) serially, and reports raw cycle-loop
//! throughput: simulated cycles per wall-clock second, nanoseconds per
//! cycle, and the peak scratch-buffer footprint of each policy's
//! scheduler. The resulting `BENCH_cycles.json`
//! (`schema: "coefficient-bench-cycles/1"`) is uploaded per PR by CI, and
//! the `bench-cycles` job compares cycles/sec against the checked-in
//! `corpus/bench_baseline.json`, failing on a regression beyond
//! [`CYCLES_TOLERANCE`].
//!
//! The matrix is pinned — same master seed, scenarios and horizon every
//! run — so trajectory points are comparable across commits. Host speed
//! is not pinned: the recording machine and the CI runner differ, and
//! even one machine drifts under load. Every report therefore embeds a
//! calibration measurement — the wall clock of a fixed CPU-bound
//! workload, timed in the same process — and the baseline gate compares
//! *host-normalized* throughput (simulated cycles per calibration unit),
//! which cancels first-order machine speed; the tolerance band absorbs
//! the rest.

use std::time::{Duration, Instant};

use coefficient::{Runner, Scenario, SchedulerError, SeedStrategy};

use crate::experiments::SEED;
use crate::json::{want_array, want_f64, want_str, want_u64, Json};
use crate::sweep::SweepSpec;

/// Relative host-normalized cycles/sec drop below baseline that fails
/// the CI gate.
pub const CYCLES_TOLERANCE: f64 = 0.15;

/// The smallest `wall_per_cal` the gate divides by. A baseline recording
/// less is refused: clamping it would fail every policy as a regression.
const MIN_WALL_PER_CAL: f64 = 1e-12;

/// The longest calibration pass a baseline may record: 60 s. The pass
/// takes milliseconds, so more is a corrupted file, not a slow host.
const MAX_CALIBRATION_NS: u64 = 60_000_000_000;

/// One pass of the calibration workload: a fixed number of SplitMix64
/// finalizer rounds, CPU-bound and allocation-free, sized to take a few
/// milliseconds on current hardware.
pub(crate) fn calibration_pass() -> Duration {
    const ITERS: u64 = 8_000_000;
    let started = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..ITERS {
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
    }
    std::hint::black_box(x);
    started.elapsed()
}

/// Description of one `bench cycles` measurement.
#[derive(Debug, Clone)]
pub struct CyclesSpec {
    /// The matrix every policy runs (the harness times each policy's
    /// slice of it separately, single-threaded).
    pub sweep: SweepSpec,
    /// Timing repetitions per policy; the best (minimum) wall clock is
    /// reported, damping scheduler noise on shared CI hosts.
    pub iters: u32,
    /// `"smoke"` or `"full"` — recorded in the report so baselines are
    /// only ever compared against measurements of the same matrix.
    pub mode: &'static str,
}

/// The pinned spec: 18 cells per policy (6 scenarios × 3 seeds), every
/// registered policy, golden geometry and master seed. Smoke mode runs a
/// shorter horizon for CI; full mode is the recorded trajectory point.
pub fn cycles_spec(smoke: bool) -> CyclesSpec {
    CyclesSpec {
        sweep: SweepSpec {
            minislots: 50,
            horizon_ms: if smoke { 100 } else { 400 },
            seeds: 3,
            master_seed: SEED,
            threads: Some(1),
            policies: coefficient::registry::all().to_vec(),
            scenarios: vec![
                Scenario::ber7(),
                Scenario::ber9(),
                Scenario::ber7().storm(),
                Scenario::fault_free(),
                Scenario::ber7().bursty(),
                Scenario::ber9().storm(),
            ],
            strategy: SeedStrategy::PerCell,
        },
        // More repetitions in smoke mode: CI hosts are noisy and the
        // walls are short, so the best-of minimum needs more samples.
        iters: if smoke { 7 } else { 5 },
        mode: if smoke { "smoke" } else { "full" },
    }
}

/// Throughput measurement of one policy over its cell slice.
#[derive(Debug, Clone)]
pub struct PolicyCycles {
    /// Policy label (as in the registry / table output).
    pub policy: String,
    /// Cells this policy ran.
    pub cells: u64,
    /// Simulated communication cycles across those cells (deterministic).
    pub sim_cycles: u64,
    /// Best-of-iters wall clock for the whole slice.
    pub wall: Duration,
    /// Best-of-iters slice wall divided by the calibration wall timed
    /// immediately before that same slice (dimensionless). The temporal
    /// pairing means a load spike inflates both sides of one round's
    /// ratio, and the min across rounds discards mismatched rounds.
    pub wall_per_cal: f64,
    /// Peak scheduler scratch-buffer bytes over the slice.
    pub peak_scratch_bytes: u64,
}

impl PolicyCycles {
    /// Simulated cycles executed per wall-clock second.
    pub fn cycles_per_sec(&self) -> f64 {
        self.sim_cycles as f64 / self.wall.as_secs_f64().max(1e-12)
    }

    /// Wall-clock nanoseconds per simulated cycle.
    pub fn ns_per_cycle(&self) -> f64 {
        self.wall.as_nanos() as f64 / (self.sim_cycles as f64).max(1.0)
    }

    /// Host-normalized throughput: simulated cycles per calibration unit
    /// of wall clock. This is what the baseline gate compares.
    pub fn cycles_per_cal(&self) -> f64 {
        self.sim_cycles as f64 / self.wall_per_cal.max(MIN_WALL_PER_CAL)
    }
}

/// Result of one [`measure_cycles`] run.
#[derive(Debug, Clone)]
pub struct CyclesReport {
    /// `"smoke"` or `"full"`.
    pub mode: String,
    /// Per-cell horizon, milliseconds.
    pub horizon_ms: u64,
    /// Seeds per scenario.
    pub seeds: u64,
    /// Timing repetitions the wall clocks are the best of.
    pub iters: u32,
    /// Scenario names of the matrix.
    pub scenarios: Vec<String>,
    /// Best-of wall clock of one calibration pass on this host, measured
    /// interleaved with the rounds. The baseline gate divides throughput
    /// by host speed via this value.
    pub calibration: Duration,
    /// One entry per policy, registry order.
    pub policies: Vec<PolicyCycles>,
}

/// Runs the matrix once per policy per iteration and reports best-of-iters
/// throughput.
///
/// # Errors
/// Returns [`SchedulerError`] if a cell is unschedulable.
pub fn measure_cycles(spec: &CyclesSpec) -> Result<CyclesReport, SchedulerError> {
    let matrix = spec.sweep.build_matrix();
    let cycle_ns = matrix.cluster.cycle_duration().as_nanos().max(1);
    let coords = matrix.coords();
    let mut policies: Vec<PolicyCycles> = spec
        .sweep
        .policies
        .iter()
        .enumerate()
        .map(|(p_idx, policy)| PolicyCycles {
            policy: policy.label().to_string(),
            cells: coords.iter().filter(|c| c.policy == p_idx).count() as u64,
            sim_cycles: 0,
            wall: Duration::MAX,
            wall_per_cal: f64::INFINITY,
            peak_scratch_bytes: 0,
        })
        .collect();
    // Rounds interleave the policies (round 1 times every policy, then
    // round 2, ...) so a transient load spike on the host degrades one
    // round of every policy instead of every round of one policy — the
    // per-policy best-of minimum then shrugs it off. Each policy slice is
    // preceded by its own calibration pass so the paired ratio sees the
    // same load conditions on both sides.
    let mut calibration = calibration_pass(); // warm-up pass still counts
    for iter in 0..spec.iters.max(1) {
        for (p_idx, entry) in policies.iter_mut().enumerate() {
            let cal = calibration_pass();
            calibration = calibration.min(cal);
            let started = Instant::now();
            let mut cycles_this_iter = 0u64;
            let mut scratch_this_iter = 0u64;
            for coord in coords.iter().filter(|c| c.policy == p_idx) {
                let report = Runner::new(matrix.config(*coord))?.run();
                cycles_this_iter += report.running_time.as_nanos() / cycle_ns;
                scratch_this_iter = scratch_this_iter.max(report.peak_scratch_bytes);
            }
            let wall = started.elapsed();
            if iter == 0 {
                entry.sim_cycles = cycles_this_iter;
                entry.peak_scratch_bytes = scratch_this_iter;
            } else {
                debug_assert_eq!(
                    entry.sim_cycles, cycles_this_iter,
                    "matrix is deterministic"
                );
            }
            entry.wall = entry.wall.min(wall);
            entry.wall_per_cal = entry
                .wall_per_cal
                .min(wall.as_secs_f64() / cal.as_secs_f64().max(1e-12));
        }
    }
    Ok(CyclesReport {
        mode: spec.mode.to_string(),
        horizon_ms: spec.sweep.horizon_ms,
        seeds: spec.sweep.seeds,
        iters: spec.iters.max(1),
        scenarios: spec
            .sweep
            .scenarios
            .iter()
            .map(|s| s.name.to_string())
            .collect(),
        calibration,
        policies,
    })
}

/// JSON form of a [`CyclesReport`] (`schema: "coefficient-bench-cycles/1"`).
pub fn cycles_to_json(report: &CyclesReport) -> Json {
    Json::object([
        ("schema", Json::str("coefficient-bench-cycles/1")),
        ("mode", Json::str(report.mode.clone())),
        ("horizon_ms", Json::from(report.horizon_ms)),
        ("seeds", Json::from(report.seeds)),
        ("iters", Json::from(u64::from(report.iters))),
        (
            "calibration_ns",
            Json::from(report.calibration.as_nanos() as u64),
        ),
        (
            "scenarios",
            Json::array(report.scenarios.iter().map(|s| Json::str(s.clone()))),
        ),
        (
            "policies",
            Json::array(report.policies.iter().map(|p| {
                Json::object([
                    ("policy", Json::str(p.policy.clone())),
                    ("cells", Json::from(p.cells)),
                    ("sim_cycles", Json::from(p.sim_cycles)),
                    ("wall_ms", Json::Float(p.wall.as_secs_f64() * 1e3)),
                    ("wall_per_cal", Json::Float(p.wall_per_cal)),
                    ("cycles_per_sec", Json::Float(p.cycles_per_sec())),
                    ("ns_per_cycle", Json::Float(p.ns_per_cycle())),
                    ("peak_scratch_bytes", Json::from(p.peak_scratch_bytes)),
                ])
            })),
        ),
    ])
}

/// Parses a `coefficient-bench-cycles/1` document back into a
/// [`CyclesReport`] (used to load the checked-in baseline).
///
/// # Errors
/// Returns a description of the first schema violation, including a
/// `wall_per_cal` that is not finite or is below 1e-12 (the gate divides
/// by it), a `wall_ms` no [`Duration`] holds and a `calibration_ns` of 0
/// or above 60 s.
pub fn cycles_from_json(doc: &Json) -> Result<CyclesReport, String> {
    let schema = want_str(doc, "schema")?;
    if schema != "coefficient-bench-cycles/1" {
        return Err(format!("unexpected schema {schema:?}"));
    }
    let scenarios = want_array(doc, "scenarios")?
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_string)
                .ok_or_else(|| "scenario entry is not a string".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let policies = want_array(doc, "policies")?
        .iter()
        .map(|p| {
            let policy = want_str(p, "policy")?.to_string();
            let wall_per_cal = want_f64(p, "wall_per_cal")?;
            if !(wall_per_cal.is_finite() && wall_per_cal >= MIN_WALL_PER_CAL) {
                return Err(format!(
                    "policy {policy:?}: wall_per_cal {wall_per_cal:e} is not a finite number \
                     of at least {MIN_WALL_PER_CAL:e}"
                ));
            }
            let wall_ms = want_f64(p, "wall_ms")?;
            let wall = Duration::try_from_secs_f64(wall_ms.max(0.0) / 1e3).map_err(|e| {
                format!("policy {policy:?}: wall_ms {wall_ms:e} is out of range ({e})")
            })?;
            Ok(PolicyCycles {
                policy,
                cells: want_u64(p, "cells")?,
                sim_cycles: want_u64(p, "sim_cycles")?,
                wall,
                wall_per_cal,
                peak_scratch_bytes: want_u64(p, "peak_scratch_bytes")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let calibration_ns = want_u64(doc, "calibration_ns")?;
    if !(1..=MAX_CALIBRATION_NS).contains(&calibration_ns) {
        return Err(format!(
            "calibration_ns {calibration_ns} is not in 1..={MAX_CALIBRATION_NS} \
             (the calibration pass takes milliseconds)"
        ));
    }
    Ok(CyclesReport {
        mode: want_str(doc, "mode")?.to_string(),
        horizon_ms: want_u64(doc, "horizon_ms")?,
        seeds: want_u64(doc, "seeds")?,
        iters: u32::try_from(want_u64(doc, "iters")?).map_err(|_| "iters out of range")?,
        scenarios,
        calibration: Duration::from_nanos(calibration_ns),
        policies,
    })
}

/// One policy's current-vs-baseline verdict.
#[derive(Debug, Clone)]
pub struct PolicyComparison {
    /// Policy label.
    pub policy: String,
    /// Baseline cycles/sec, raw (as recorded on the baseline host).
    pub baseline_cps: f64,
    /// Current cycles/sec, raw (on this host).
    pub current_cps: f64,
    /// Host-normalized `current / baseline`: the ratio of the two sides'
    /// [`PolicyCycles::cycles_per_cal`], cancelling machine speed.
    pub ratio: f64,
    /// `true` if the normalized drop exceeds the tolerance band.
    pub regressed: bool,
}

/// Compares a current report against a baseline with a relative tolerance
/// (`0.15` = fail when *host-normalized* throughput drops more than 15%
/// below baseline). Each side's throughput is measured in simulated
/// cycles per calibration unit ([`PolicyCycles::cycles_per_cal`]), so a
/// slower or busier host moves both the measurement and the yardstick and
/// the ratio stays put. Faster-than-baseline results always pass — the
/// gate is one-sided.
///
/// # Errors
/// Returns an error when the reports measured different matrices (mode,
/// horizon or seed count mismatch) or a policy of either report is
/// missing from the other — comparisons would be meaningless, and a
/// policy the baseline leaves out would go unchecked.
pub fn compare_to_baseline(
    current: &CyclesReport,
    baseline: &CyclesReport,
    tolerance: f64,
) -> Result<Vec<PolicyComparison>, String> {
    if current.mode != baseline.mode
        || current.horizon_ms != baseline.horizon_ms
        || current.seeds != baseline.seeds
    {
        return Err(format!(
            "matrix mismatch: current {}/{}ms/{} seeds vs baseline {}/{}ms/{} seeds \
             (re-record the baseline with the same flags)",
            current.mode,
            current.horizon_ms,
            current.seeds,
            baseline.mode,
            baseline.horizon_ms,
            baseline.seeds,
        ));
    }
    if let Some(cur) = current.policies.iter().find(|cur| {
        !baseline
            .policies
            .iter()
            .any(|base| base.policy == cur.policy)
    }) {
        return Err(format!(
            "policy {:?} missing from baseline (re-record it with the same flags)",
            cur.policy
        ));
    }
    baseline
        .policies
        .iter()
        .map(|base| {
            let cur = current
                .policies
                .iter()
                .find(|p| p.policy == base.policy)
                .ok_or_else(|| format!("policy {:?} missing from current report", base.policy))?;
            let baseline_cps = base.cycles_per_sec();
            let current_cps = cur.cycles_per_sec();
            let ratio = cur.cycles_per_cal() / base.cycles_per_cal().max(1e-12);
            Ok(PolicyComparison {
                policy: base.policy.clone(),
                baseline_cps,
                current_cps,
                ratio,
                regressed: ratio < 1.0 - tolerance,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> CyclesSpec {
        CyclesSpec {
            sweep: SweepSpec {
                horizon_ms: 10,
                seeds: 1,
                policies: vec![coefficient::COEFFICIENT, coefficient::GREEDY],
                scenarios: vec![Scenario::ber7()],
                threads: Some(1),
                ..SweepSpec::default()
            },
            iters: 2,
            mode: "smoke",
        }
    }

    #[test]
    fn pinned_spec_is_18_cells_per_policy() {
        for smoke in [false, true] {
            let spec = cycles_spec(smoke);
            let matrix = spec.sweep.build_matrix();
            let per_policy = spec.sweep.seeds as usize * spec.sweep.scenarios.len();
            assert_eq!(per_policy, 18);
            assert_eq!(
                matrix.cell_count(),
                per_policy * coefficient::registry::all().len()
            );
        }
        assert_eq!(cycles_spec(true).mode, "smoke");
        assert_eq!(cycles_spec(false).mode, "full");
    }

    #[test]
    fn measure_and_round_trip_json() {
        let report = measure_cycles(&tiny_spec()).unwrap();
        assert_eq!(report.policies.len(), 2);
        for p in &report.policies {
            assert_eq!(p.cells, 1);
            assert!(p.sim_cycles > 0, "{}: no cycles measured", p.policy);
            assert!(p.cycles_per_sec() > 0.0);
            assert!(p.ns_per_cycle() > 0.0);
            assert!(p.wall_per_cal.is_finite() && p.wall_per_cal > 0.0);
            assert!(p.cycles_per_cal() > 0.0);
            assert!(p.peak_scratch_bytes > 0);
        }
        let json = cycles_to_json(&report);
        let text = json.to_string();
        assert!(text.starts_with(r#"{"schema":"coefficient-bench-cycles/1""#));
        let parsed = cycles_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed.mode, report.mode);
        assert_eq!(parsed.calibration, report.calibration);
        assert!(parsed.calibration > Duration::ZERO);
        assert_eq!(parsed.policies.len(), report.policies.len());
        for (a, b) in parsed.policies.iter().zip(&report.policies) {
            assert_eq!(a.policy, b.policy);
            assert_eq!(a.sim_cycles, b.sim_cycles);
            assert_eq!(a.peak_scratch_bytes, b.peak_scratch_bytes);
            assert!((a.cycles_per_sec() - b.cycles_per_sec()).abs() / b.cycles_per_sec() < 1e-3);
            assert!((a.wall_per_cal - b.wall_per_cal).abs() / b.wall_per_cal < 1e-9);
        }
    }

    #[test]
    fn comparison_gates_on_regression_only() {
        let report = measure_cycles(&tiny_spec()).unwrap();
        // Identical reports: everything passes.
        let same = compare_to_baseline(&report, &report, CYCLES_TOLERANCE).unwrap();
        assert!(same.iter().all(|c| !c.regressed));
        // A baseline twice as fast: current regresses beyond any sane band.
        let mut fast = report.clone();
        for p in &mut fast.policies {
            p.wall /= 2;
            p.wall_per_cal /= 2.0;
        }
        let against_fast = compare_to_baseline(&report, &fast, CYCLES_TOLERANCE).unwrap();
        assert!(against_fast.iter().all(|c| c.regressed));
        // A baseline twice as slow: current is faster, which always passes.
        let mut slow = report.clone();
        for p in &mut slow.policies {
            p.wall *= 2;
            p.wall_per_cal *= 2.0;
        }
        let against_slow = compare_to_baseline(&report, &slow, CYCLES_TOLERANCE).unwrap();
        assert!(against_slow.iter().all(|c| !c.regressed && c.ratio > 1.5));
    }

    #[test]
    fn comparison_normalizes_away_host_speed() {
        let report = measure_cycles(&tiny_spec()).unwrap();
        // A baseline recorded on a host twice as fast: every wall halves,
        // including each slice's paired calibration pass, so `wall_per_cal`
        // is unchanged. Normalized throughput is identical and the gate
        // must not fire.
        let mut fast_host = report.clone();
        fast_host.calibration /= 2;
        for p in &mut fast_host.policies {
            p.wall /= 2;
        }
        let cmp = compare_to_baseline(&report, &fast_host, CYCLES_TOLERANCE).unwrap();
        for ((c, slow), fast) in cmp.iter().zip(&report.policies).zip(&fast_host.policies) {
            assert!(
                !c.regressed,
                "{}: host speed leaked into the gate",
                c.policy
            );
            assert!(
                (c.ratio - 1.0).abs() < 1e-12,
                "{}: ratio {}",
                c.policy,
                c.ratio
            );
            // Raw numbers still show the host difference for display.
            // Halving a Duration truncates to whole nanoseconds, so the
            // exact ratio is the two walls' nanosecond counts, not 2.
            let want = slow.wall.as_nanos() as f64 / fast.wall.as_nanos() as f64;
            let got = c.baseline_cps / c.current_cps;
            assert!(
                (got / want - 1.0).abs() < 1e-12,
                "{}: raw ratio {got}, want {want}",
                c.policy
            );
        }
        // A genuine regression — the sim slowed down but the host did not
        // (paired calibration unchanged) — still fails.
        let mut slower_sim = report.clone();
        for p in &mut slower_sim.policies {
            p.wall *= 2;
            p.wall_per_cal *= 2.0;
        }
        let cmp = compare_to_baseline(&slower_sim, &report, CYCLES_TOLERANCE).unwrap();
        assert!(cmp.iter().all(|c| c.regressed));
    }

    #[test]
    fn comparison_rejects_mismatched_matrices() {
        let report = measure_cycles(&tiny_spec()).unwrap();
        let mut other = report.clone();
        other.mode = "full".to_string();
        let err = compare_to_baseline(&report, &other, CYCLES_TOLERANCE).unwrap_err();
        assert!(err.contains("matrix mismatch"), "{err}");
        let mut missing = report.clone();
        missing.policies.push(PolicyCycles {
            policy: "NotARealPolicy".to_string(),
            cells: 1,
            sim_cycles: 1,
            wall: Duration::from_millis(1),
            wall_per_cal: 0.1,
            peak_scratch_bytes: 1,
        });
        let err = compare_to_baseline(&report, &missing, CYCLES_TOLERANCE).unwrap_err();
        assert!(err.contains("missing from current report"), "{err}");
        // A baseline that leaves a measured policy out cannot vouch for it.
        let mut partial = report.clone();
        let dropped = partial.policies.remove(1).policy;
        let err = compare_to_baseline(&report, &partial, CYCLES_TOLERANCE).unwrap_err();
        assert!(
            err.contains(&format!("policy {dropped:?} missing from baseline")),
            "{err}"
        );
    }

    #[test]
    fn a_baseline_wall_per_cal_must_be_finite_and_positive() {
        let report = measure_cycles(&tiny_spec()).unwrap();
        let text = cycles_to_json(&report).to_string();
        assert!(cycles_from_json(&Json::parse(&text).unwrap()).is_ok());
        let policy = &report.policies[0];
        let recorded = format!("\"wall_per_cal\":{}", Json::Float(policy.wall_per_cal));
        assert!(text.contains(&recorded), "{text}");
        for bad in ["-1", "0", "0.0", "1e-320", "9e-13"] {
            let doc = text.replacen(&recorded, &format!("\"wall_per_cal\":{bad}"), 1);
            let err = cycles_from_json(&Json::parse(&doc).unwrap()).unwrap_err();
            assert!(
                err.contains(&format!("policy {:?}", policy.policy))
                    && err.contains("is not a finite number of at least 1e-12"),
                "{bad}: {err}"
            );
        }
    }
}
