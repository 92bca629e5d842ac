//! Parallel multi-seed sweep harness with deterministic replay.
//!
//! The paper's headline figures are *statistical* claims: bandwidth,
//! latency and miss-ratio gaps between CoEfficient and FSPEC that only
//! hold over many seeds and BER scenarios. [`SweepRunner`] executes a
//! whole `{policy × scenario × seed}` matrix across worker threads and
//! aggregates the per-cell [`RunReport`]s into a [`SweepReport`] with
//! mean/stddev/min/max and percentile summaries per metric.
//!
//! Parallelism is only trustworthy with determinism as a contract:
//!
//! * every cell derives its own master seed via
//!   [`event_sim::rng::derive`], so no RNG state is shared between
//!   cells or threads;
//! * every [`RunReport`] carries a [`fingerprint`](RunReport::fingerprint)
//!   digest, and [`SweepReport::fingerprint`] folds the cell digests in
//!   matrix order — byte-identical for any worker count;
//! * any cell can be [`replay`](SweepRunner::replay)ed in isolation from
//!   its [`CellCoord`] alone and must reproduce its recorded fingerprint.
//!
//! ```
//! use coefficient::sweep::{SeedStrategy, SweepMatrix, SweepRunner};
//! use coefficient::{Scenario, StopCondition, COEFFICIENT, FSPEC};
//! use event_sim::SimDuration;
//! use flexray::config::ClusterConfig;
//!
//! let matrix = SweepMatrix {
//!     cluster: ClusterConfig::paper_dynamic(50),
//!     static_messages: workloads::bbw::message_set(),
//!     dynamic_messages: workloads::sae::message_set(
//!         workloads::sae::IdRange::StartingAt(20),
//!         1,
//!     ),
//!     policies: vec![COEFFICIENT, FSPEC],
//!     scenarios: vec![Scenario::ber7()],
//!     seeds: vec![1, 2],
//!     stop: StopCondition::Horizon(SimDuration::from_millis(20)),
//!     seed_strategy: SeedStrategy::PerCell,
//! };
//! let report = SweepRunner::new(matrix).threads(2).run().unwrap();
//! assert_eq!(report.cells.len(), 4);
//! ```

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use event_sim::rng;
use flexray::config::ClusterConfig;
use flexray::signal::Signal;
use metrics::{Aggregate, AggregateSummary};
use workloads::AperiodicMessage;

use crate::policy::SchedulerError;
use crate::registry::PolicyRef;
use crate::runner::{RunConfig, RunReport, Runner, StopCondition};
use crate::scenario::Scenario;

/// How a cell's master seed is obtained from the matrix seed list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedStrategy {
    /// Every cell uses its matrix seed verbatim. This is the paper-figure
    /// convention: both policies (and both scenarios) of a comparison see
    /// identical workload phases and fault processes, so differences are
    /// attributable to the scheduler alone.
    Shared,
    /// Each `{scenario × seed}` pair derives an independent seed via
    /// [`event_sim::rng::derive`], decorrelating the cells of a
    /// statistical sweep. Policies still share the derived seed, keeping
    /// policy comparisons paired.
    PerCell,
}

/// The full cross product a sweep executes.
#[derive(Debug, Clone)]
pub struct SweepMatrix {
    /// Cluster geometry (shared by every cell).
    pub cluster: ClusterConfig,
    /// Static (time-triggered) workload.
    pub static_messages: Vec<Signal>,
    /// Dynamic (event-triggered) workload.
    pub dynamic_messages: Vec<AperiodicMessage>,
    /// Policies under test (axis 1).
    pub policies: Vec<PolicyRef>,
    /// Fault/reliability scenarios (axis 2).
    pub scenarios: Vec<Scenario>,
    /// Master seeds (axis 3).
    pub seeds: Vec<u64>,
    /// Stop condition (shared by every cell).
    pub stop: StopCondition,
    /// Seed derivation discipline.
    pub seed_strategy: SeedStrategy,
}

/// Coordinates of one cell inside a [`SweepMatrix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellCoord {
    /// Index into [`SweepMatrix::policies`].
    pub policy: usize,
    /// Index into [`SweepMatrix::scenarios`].
    pub scenario: usize,
    /// Index into [`SweepMatrix::seeds`].
    pub seed: usize,
}

impl SweepMatrix {
    /// Number of cells in the cross product.
    pub fn cell_count(&self) -> usize {
        self.policies.len() * self.scenarios.len() * self.seeds.len()
    }

    /// All coordinates in canonical matrix order (policy-major, then
    /// scenario, then seed). [`SweepReport::cells`] and the sweep
    /// fingerprint follow this order regardless of execution order.
    pub fn coords(&self) -> Vec<CellCoord> {
        let mut coords = Vec::with_capacity(self.cell_count());
        for policy in 0..self.policies.len() {
            for scenario in 0..self.scenarios.len() {
                for seed in 0..self.seeds.len() {
                    coords.push(CellCoord {
                        policy,
                        scenario,
                        seed,
                    });
                }
            }
        }
        coords
    }

    /// The master seed the cell at `coord` runs under.
    ///
    /// # Panics
    /// Panics if `coord` is out of bounds for this matrix.
    pub fn cell_seed(&self, coord: CellCoord) -> u64 {
        let master = self.seeds[coord.seed];
        match self.seed_strategy {
            SeedStrategy::Shared => master,
            SeedStrategy::PerCell => rng::derive(
                master,
                self.scenarios[coord.scenario].name,
                coord.seed as u64,
            ),
        }
    }

    /// Builds the standalone [`RunConfig`] of one cell — the same config
    /// whether the cell runs inside a 64-thread sweep or alone in
    /// [`SweepRunner::replay`].
    ///
    /// # Panics
    /// Panics if `coord` is out of bounds for this matrix.
    pub fn config(&self, coord: CellCoord) -> RunConfig {
        RunConfig {
            cluster: self.cluster.clone(),
            scenario: self.scenarios[coord.scenario].clone(),
            static_messages: self.static_messages.clone(),
            dynamic_messages: self.dynamic_messages.clone(),
            policy: self.policies[coord.policy],
            stop: self.stop,
            seed: self.cell_seed(coord),
            trace: Default::default(),
        }
    }
}

/// One executed cell: its coordinates, seed, report and fingerprint.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Where in the matrix this cell sits.
    pub coord: CellCoord,
    /// Policy the cell ran (resolved from the coordinate).
    pub policy: PolicyRef,
    /// Scenario label (resolved from the coordinate).
    pub scenario: &'static str,
    /// The derived master seed the cell ran under.
    pub seed: u64,
    /// [`RunReport::fingerprint`] of the report.
    pub fingerprint: u64,
    /// The full measured report.
    pub report: RunReport,
}

/// Distribution summaries of one `{policy × scenario}` group over its
/// seeds.
#[derive(Debug, Clone)]
pub struct GroupSummary {
    /// Policy of the group.
    pub policy: PolicyRef,
    /// Scenario label of the group.
    pub scenario: &'static str,
    /// Number of cells (seeds) aggregated.
    pub cells: u64,
    /// Makespan / horizon in simulated seconds.
    pub running_time_s: AggregateSummary,
    /// Combined two-channel allocated utilization (fraction).
    pub utilization: AggregateSummary,
    /// Mean static-segment latency per run, milliseconds.
    pub static_latency_ms: AggregateSummary,
    /// Mean dynamic-segment latency per run, milliseconds.
    pub dynamic_latency_ms: AggregateSummary,
    /// Combined deadline miss ratio (fraction).
    pub miss_ratio: AggregateSummary,
    /// Delivered / produced fraction.
    pub delivery_ratio: AggregateSummary,
}

/// Everything a sweep produced.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Per-cell outcomes in canonical matrix order (independent of the
    /// execution interleaving).
    pub cells: Vec<CellOutcome>,
    /// Per-`{policy × scenario}` distribution summaries, in matrix order.
    pub groups: Vec<GroupSummary>,
    /// Worker threads the sweep ran with.
    pub threads: usize,
    /// Wall-clock time of the parallel execution.
    pub wall_clock: Duration,
}

impl SweepReport {
    /// Digest over every cell fingerprint in matrix order.
    ///
    /// This is the sweep determinism contract in one number: it must be
    /// byte-identical for the same matrix at any thread count.
    pub fn fingerprint(&self) -> u64 {
        let mut d = rng::Digest::new();
        for cell in &self.cells {
            d.push(cell.fingerprint);
        }
        d.finish()
    }

    /// The outcome at `coord`, if the sweep contains it.
    pub fn cell(&self, coord: CellCoord) -> Option<&CellOutcome> {
        self.cells.iter().find(|c| c.coord == coord)
    }
}

/// Executes many [`RunConfig`]s across worker threads, preserving input
/// order in the output.
///
/// This is [`parallel_map`] over [`Runner::new`]; the figure generators
/// and the chaos campaigns in the bench crate use it directly because
/// their cells vary axes (cluster geometry, stop condition, workload)
/// that a [`SweepMatrix`] holds fixed. Each runner is built and consumed
/// entirely on its worker thread, so results are bitwise identical to
/// serial execution.
///
/// # Errors
/// Returns the first [`SchedulerError`] (in input order) if any
/// configuration fails to build a schedule.
///
/// # Panics
/// Panics if `threads` is zero.
pub fn run_parallel(
    configs: Vec<RunConfig>,
    threads: usize,
) -> Result<Vec<RunReport>, SchedulerError> {
    parallel_map(configs, threads, |config| {
        Runner::new(config).map(Runner::run)
    })
    .into_iter()
    .collect()
}

/// Applies `f` to every item on up to `threads` worker threads and
/// returns the results in input order.
///
/// Workers claim items by index from a shared counter and write each
/// result into the item's own slot, so the output never depends on the
/// worker count or on which worker ran what.
///
/// # Panics
/// Panics if `threads` is zero.
pub fn parallel_map<T: Send, R: Send>(
    items: Vec<T>,
    threads: usize,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    assert!(threads > 0, "at least one worker thread required");
    let n = items.len();
    let threads = threads.min(n.max(1));
    let items: Vec<Mutex<Option<T>>> = items.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= n {
                    break;
                }
                let item = items[index]
                    .lock()
                    .expect("item mutex")
                    .take()
                    .expect("each item is claimed exactly once");
                let result = f(item);
                *results[index].lock().expect("result mutex") = Some(result);
            });
        }
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result mutex")
                .expect("every item was processed")
        })
        .collect()
}

/// Worker count used when none is requested: all available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Drives a [`SweepMatrix`] to a [`SweepReport`]. See the module docs.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    matrix: SweepMatrix,
    threads: Option<usize>,
}

impl SweepRunner {
    /// Wraps a matrix with the default worker count (available
    /// parallelism, capped at the cell count).
    pub fn new(matrix: SweepMatrix) -> Self {
        SweepRunner {
            matrix,
            threads: None,
        }
    }

    /// Overrides the worker count (1 forces serial execution).
    ///
    /// # Panics
    /// Panics if `threads` is zero.
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "at least one worker thread required");
        self.threads = Some(threads);
        self
    }

    /// The matrix this runner executes.
    pub fn matrix(&self) -> &SweepMatrix {
        &self.matrix
    }

    /// The worker count [`run`](Self::run) will use.
    pub fn effective_threads(&self) -> usize {
        self.threads
            .unwrap_or_else(default_threads)
            .min(self.matrix.cell_count().max(1))
    }

    /// Executes every cell and aggregates.
    ///
    /// # Errors
    /// Returns the first [`SchedulerError`] (in matrix order) if any cell
    /// is unschedulable.
    pub fn run(&self) -> Result<SweepReport, SchedulerError> {
        let coords = self.matrix.coords();
        let threads = self.effective_threads();
        let configs: Vec<RunConfig> = coords.iter().map(|&c| self.matrix.config(c)).collect();
        let started = std::time::Instant::now();
        let reports = run_parallel(configs, threads)?;
        let wall_clock = started.elapsed();

        let cells: Vec<CellOutcome> = coords
            .iter()
            .zip(reports)
            .map(|(&coord, report)| CellOutcome {
                coord,
                policy: self.matrix.policies[coord.policy],
                scenario: self.matrix.scenarios[coord.scenario].name,
                seed: self.matrix.cell_seed(coord),
                fingerprint: report.fingerprint(),
                report,
            })
            .collect();

        let mut groups =
            Vec::with_capacity(self.matrix.policies.len() * self.matrix.scenarios.len());
        for (pi, &policy) in self.matrix.policies.iter().enumerate() {
            for (si, scenario) in self.matrix.scenarios.iter().enumerate() {
                let members = cells
                    .iter()
                    .filter(|c| c.coord.policy == pi && c.coord.scenario == si);
                groups.push(summarize_group(policy, scenario.name, members));
            }
        }

        Ok(SweepReport {
            cells,
            groups,
            threads,
            wall_clock,
        })
    }

    /// Re-runs a single cell from its sweep coordinates — the replay entry
    /// point of the determinism contract. The returned outcome must carry
    /// the same fingerprint as the cell in any [`SweepReport`] of the same
    /// matrix.
    ///
    /// # Errors
    /// Returns [`SchedulerError`] if the cell is unschedulable.
    ///
    /// # Panics
    /// Panics if `coord` is out of bounds for the matrix.
    pub fn replay(&self, coord: CellCoord) -> Result<CellOutcome, SchedulerError> {
        let report = Runner::new(self.matrix.config(coord))?.run();
        Ok(CellOutcome {
            coord,
            policy: self.matrix.policies[coord.policy],
            scenario: self.matrix.scenarios[coord.scenario].name,
            seed: self.matrix.cell_seed(coord),
            fingerprint: report.fingerprint(),
            report,
        })
    }
}

fn summarize_group<'a>(
    policy: PolicyRef,
    scenario: &'static str,
    members: impl Iterator<Item = &'a CellOutcome>,
) -> GroupSummary {
    let mut running_time_s = Aggregate::new();
    let mut utilization = Aggregate::new();
    let mut static_latency_ms = Aggregate::new();
    let mut dynamic_latency_ms = Aggregate::new();
    let mut miss_ratio = Aggregate::new();
    let mut delivery_ratio = Aggregate::new();
    let mut cells = 0u64;
    for cell in members {
        cells += 1;
        let r = &cell.report;
        running_time_s.record(r.running_time.as_secs_f64());
        utilization.record(r.utilization);
        static_latency_ms.record(r.static_latency.mean_millis_f64());
        dynamic_latency_ms.record(r.dynamic_latency.mean_millis_f64());
        miss_ratio.record(r.miss_ratio());
        delivery_ratio.record(if r.produced == 0 {
            0.0
        } else {
            r.delivered as f64 / r.produced as f64
        });
    }
    GroupSummary {
        policy,
        scenario,
        cells,
        running_time_s: running_time_s.summary(),
        utilization: utilization.summary(),
        static_latency_ms: static_latency_ms.summary(),
        dynamic_latency_ms: dynamic_latency_ms.summary(),
        miss_ratio: miss_ratio.summary(),
        delivery_ratio: delivery_ratio.summary(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{COEFFICIENT, FSPEC};
    use event_sim::SimDuration;

    fn small_matrix(seed_strategy: SeedStrategy) -> SweepMatrix {
        SweepMatrix {
            cluster: ClusterConfig::paper_dynamic(50),
            static_messages: workloads::bbw::message_set(),
            dynamic_messages: workloads::sae::message_set(
                workloads::sae::IdRange::StartingAt(20),
                1,
            ),
            policies: vec![COEFFICIENT, FSPEC],
            scenarios: vec![Scenario::ber7(), Scenario::fault_free()],
            seeds: vec![11, 22],
            stop: StopCondition::Horizon(SimDuration::from_millis(25)),
            seed_strategy,
        }
    }

    #[test]
    fn coords_enumerate_the_cross_product_in_order() {
        let m = small_matrix(SeedStrategy::PerCell);
        let coords = m.coords();
        assert_eq!(coords.len(), m.cell_count());
        assert_eq!(coords.len(), 8);
        assert_eq!(
            coords[0],
            CellCoord {
                policy: 0,
                scenario: 0,
                seed: 0
            }
        );
        assert_eq!(
            coords[1],
            CellCoord {
                policy: 0,
                scenario: 0,
                seed: 1
            }
        );
        assert_eq!(
            coords[7],
            CellCoord {
                policy: 1,
                scenario: 1,
                seed: 1
            }
        );
    }

    #[test]
    fn shared_seeds_pass_through_and_pair_policies() {
        let m = small_matrix(SeedStrategy::Shared);
        for coord in m.coords() {
            assert_eq!(m.cell_seed(coord), m.seeds[coord.seed]);
        }
    }

    #[test]
    fn per_cell_seeds_pair_policies_but_separate_scenarios() {
        let m = small_matrix(SeedStrategy::PerCell);
        let co = CellCoord {
            policy: 0,
            scenario: 0,
            seed: 0,
        };
        let fs = CellCoord {
            policy: 1,
            scenario: 0,
            seed: 0,
        };
        assert_eq!(m.cell_seed(co), m.cell_seed(fs), "comparisons stay paired");
        let other_scenario = CellCoord {
            policy: 0,
            scenario: 1,
            seed: 0,
        };
        assert_ne!(m.cell_seed(co), m.cell_seed(other_scenario));
        let other_seed = CellCoord {
            policy: 0,
            scenario: 0,
            seed: 1,
        };
        assert_ne!(m.cell_seed(co), m.cell_seed(other_seed));
    }

    #[test]
    fn sweep_aggregates_every_group() {
        let report = SweepRunner::new(small_matrix(SeedStrategy::PerCell))
            .threads(2)
            .run()
            .unwrap();
        assert_eq!(report.cells.len(), 8);
        assert_eq!(report.groups.len(), 4);
        for group in &report.groups {
            assert_eq!(group.cells, 2);
            assert!(group.utilization.mean > 0.0);
            assert!(group.running_time_s.min <= group.running_time_s.p50);
            assert!(group.running_time_s.p50 <= group.running_time_s.max);
        }
        assert_eq!(report.threads, 2);
    }

    #[test]
    fn parallel_execution_matches_serial_bit_for_bit() {
        let serial = SweepRunner::new(small_matrix(SeedStrategy::PerCell))
            .threads(1)
            .run()
            .unwrap();
        let parallel = SweepRunner::new(small_matrix(SeedStrategy::PerCell))
            .threads(4)
            .run()
            .unwrap();
        assert_eq!(serial.fingerprint(), parallel.fingerprint());
        for (a, b) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!(a.coord, b.coord);
            assert_eq!(a.fingerprint, b.fingerprint);
        }
    }

    #[test]
    fn replay_reproduces_a_cell() {
        let runner = SweepRunner::new(small_matrix(SeedStrategy::PerCell)).threads(4);
        let report = runner.run().unwrap();
        let coord = CellCoord {
            policy: 1,
            scenario: 0,
            seed: 1,
        };
        let replayed = runner.replay(coord).unwrap();
        let original = report.cell(coord).expect("cell exists");
        assert_eq!(replayed.fingerprint, original.fingerprint);
        assert_eq!(replayed.seed, original.seed);
        assert_eq!(replayed.report.delivered, original.report.delivered);
    }

    #[test]
    fn run_parallel_preserves_input_order() {
        let m = small_matrix(SeedStrategy::Shared);
        let configs: Vec<RunConfig> = m.coords().iter().map(|&c| m.config(c)).collect();
        let expected: Vec<u64> = configs
            .iter()
            .map(|c| Runner::new(c.clone()).unwrap().run().fingerprint())
            .collect();
        let got: Vec<u64> = run_parallel(configs, 4)
            .unwrap()
            .iter()
            .map(RunReport::fingerprint)
            .collect();
        assert_eq!(expected, got);
    }

    #[test]
    fn effective_threads_cap_at_cell_count() {
        let runner = SweepRunner::new(small_matrix(SeedStrategy::PerCell)).threads(64);
        assert_eq!(runner.effective_threads(), 8);
        assert!(SweepRunner::new(small_matrix(SeedStrategy::PerCell)).effective_threads() >= 1);
    }

    #[test]
    fn fingerprint_differs_between_policies() {
        let report = SweepRunner::new(small_matrix(SeedStrategy::PerCell))
            .threads(4)
            .run()
            .unwrap();
        let co = report
            .cell(CellCoord {
                policy: 0,
                scenario: 0,
                seed: 0,
            })
            .unwrap();
        let fs = report
            .cell(CellCoord {
                policy: 1,
                scenario: 0,
                seed: 0,
            })
            .unwrap();
        assert_ne!(co.fingerprint, fs.fingerprint);
    }
}
