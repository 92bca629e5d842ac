//! The sharded fleet executor.
//!
//! Vehicles are split into fixed-size shards ([`FleetSpec::shard_size`]);
//! worker threads claim shards from a shared atomic counter, simulate
//! each vehicle under every policy, and fold the results into a
//! shard-local [`FleetAggregate`] that is merged into the global one when
//! the shard completes. Because the aggregate's merge is commutative and
//! associative and every vehicle's outcome is a pure function of its
//! derived seed, the final aggregate — and its digest — is identical for
//! any thread count and any shard size.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use coefficient::Runner;

use crate::agg::FleetAggregate;
use crate::spec::FleetSpec;

/// Live progress counters the stats endpoint reads while a run is going.
/// Updated at shard granularity.
#[derive(Debug)]
pub struct Progress {
    /// Vehicles whose simulation completed (all policies).
    pub completed: AtomicU64,
    /// Vehicle-policy runs rejected as unschedulable.
    pub unschedulable: AtomicU64,
    /// Shards fully merged so far.
    pub shards_done: AtomicU64,
    /// Total vehicles of the run.
    pub total: u64,
    /// Total shards of the run.
    pub total_shards: u64,
    /// Partial aggregate of every merged shard (the stats endpoint
    /// snapshots this; the executor's final result is the same object).
    pub partial: Mutex<FleetAggregate>,
}

impl Progress {
    /// Fresh progress for `spec`.
    pub fn new(spec: &FleetSpec) -> Self {
        Progress {
            completed: AtomicU64::new(0),
            unschedulable: AtomicU64::new(0),
            shards_done: AtomicU64::new(0),
            total: spec.vehicles,
            total_shards: spec.shard_count(),
            partial: Mutex::new(FleetAggregate::new(&spec.policies)),
        }
    }
}

/// Result of a fleet run.
#[derive(Debug)]
pub struct FleetRun {
    /// The merged aggregate of every vehicle.
    pub aggregate: FleetAggregate,
    /// Wall-clock time of the run.
    pub wall_clock: Duration,
    /// Worker threads used.
    pub threads: usize,
    /// High-water memory of the aggregation state across all workers:
    /// `(threads + 1) × footprint` of one aggregate (each worker's
    /// shard-local aggregate plus the global one) — O(shards × buckets),
    /// independent of the vehicle count.
    pub aggregation_bytes: usize,
}

/// Runs `spec` on `threads` workers, reporting progress through `progress`.
/// No more workers start than the run has shards.
///
/// `progress.partial` accumulates merged shards as they finish and ends
/// as the final aggregate.
pub fn run_with_progress(spec: &FleetSpec, threads: usize, progress: &Progress) -> FleetRun {
    let shard_count = spec.shard_count();
    let threads = threads
        .min(shard_count.try_into().unwrap_or(usize::MAX))
        .max(1);
    let start = Instant::now();
    let next_shard = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                // One reusable shard-local aggregate per worker: fixed
                // footprint, cleared between shards.
                let mut local = FleetAggregate::new(&spec.policies);
                loop {
                    let shard = next_shard.fetch_add(1, Ordering::Relaxed) as u64;
                    if shard >= shard_count {
                        break;
                    }
                    let mut completed = 0u64;
                    let mut unschedulable = 0u64;
                    for v in spec.shard_range(shard) {
                        for (p, &policy) in spec.policies.iter().enumerate() {
                            match Runner::new(spec.vehicle_config(v, policy)) {
                                Ok(runner) => {
                                    let report = runner.run();
                                    let condition = spec.vehicle_draw(v).condition;
                                    local.record(p, v, condition, &report);
                                }
                                Err(_) => {
                                    local.record_unschedulable(p, v);
                                    unschedulable += 1;
                                }
                            }
                        }
                        completed += 1;
                    }
                    progress
                        .partial
                        .lock()
                        .expect("aggregate lock poisoned")
                        .merge(&local);
                    local.clear();
                    progress.completed.fetch_add(completed, Ordering::Relaxed);
                    progress
                        .unschedulable
                        .fetch_add(unschedulable, Ordering::Relaxed);
                    progress.shards_done.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    let aggregate = progress
        .partial
        .lock()
        .expect("aggregate lock poisoned")
        .clone();
    let aggregation_bytes = aggregate.footprint_bytes() * (threads + 1);
    FleetRun {
        aggregate,
        wall_clock: start.elapsed(),
        threads,
        aggregation_bytes,
    }
}

/// Runs `spec` on `threads` workers (no live progress reporting).
pub fn run(spec: &FleetSpec, threads: usize) -> FleetRun {
    let progress = Progress::new(spec);
    run_with_progress(spec, threads, &progress)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> FleetSpec {
        FleetSpec {
            vehicles: 12,
            shard_size: 5,
            horizon: event_sim::SimDuration::from_millis(5),
            ..FleetSpec::default()
        }
    }

    #[test]
    fn executor_accounts_for_every_vehicle() {
        let spec = tiny_spec();
        let run = run(&spec, 2);
        let agg = run.aggregate.policy(0);
        assert_eq!(agg.vehicles + agg.unschedulable, spec.vehicles);
        assert!(agg.produced > 0);
        assert_eq!(run.threads, 2);
    }

    #[test]
    fn workers_are_capped_at_the_shard_count() {
        let spec = tiny_spec();
        assert_eq!(spec.shard_count(), 3);
        let capped = run(&spec, 8);
        assert_eq!(capped.threads, 3);
        let one = run(&spec, 1);
        assert_eq!(capped.aggregate.digest(), one.aggregate.digest());
        assert_eq!(
            capped.aggregation_bytes,
            capped.aggregate.footprint_bytes() * 4
        );
    }

    #[test]
    fn progress_reaches_the_totals() {
        let spec = tiny_spec();
        let progress = Progress::new(&spec);
        run_with_progress(&spec, 2, &progress);
        assert_eq!(progress.completed.load(Ordering::Relaxed), spec.vehicles);
        assert_eq!(
            progress.shards_done.load(Ordering::Relaxed),
            spec.shard_count()
        );
        assert_eq!(
            progress.partial.lock().unwrap().vehicles_accounted(),
            spec.vehicles
        );
    }
}
