//! The sharded fleet executor.
//!
//! Vehicles are split into fixed-size shards ([`FleetSpec::shard_size`]);
//! worker threads claim shards from a shared atomic counter, simulate
//! each vehicle under every policy, and fold every vehicle they run into
//! their own [`FleetAggregate`]. The worker aggregates are merged once
//! the workers join. Because the aggregate's merge is commutative and
//! associative and every vehicle's outcome is a pure function of its
//! derived seed, the final aggregate — and its digest — is identical for
//! any thread count and any shard size.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use coefficient::Runner;

use crate::agg::FleetAggregate;
use crate::spec::FleetSpec;

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
    /// aggregate plus the merged one) — O(threads × buckets),
    /// independent of the vehicle count.
    pub aggregation_bytes: usize,
}

/// Runs `spec` on `threads` workers. No more workers start than the run
/// has shards.
pub fn run(spec: &FleetSpec, threads: usize) -> FleetRun {
    let shard_count = spec.shard_count();
    let threads = threads
        .min(shard_count.try_into().unwrap_or(usize::MAX))
        .max(1);
    let start = Instant::now();
    let next_shard = AtomicUsize::new(0);

    let mut aggregate = FleetAggregate::new(&spec.policies);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = FleetAggregate::new(&spec.policies);
                    loop {
                        let shard = next_shard.fetch_add(1, Ordering::Relaxed) as u64;
                        if shard >= shard_count {
                            return local;
                        }
                        for v in spec.shard_range(shard) {
                            let condition = spec.vehicle_draw(v).condition;
                            for (p, &policy) in spec.policies.iter().enumerate() {
                                match Runner::new(spec.vehicle_config(v, policy)) {
                                    Ok(runner) => local.record(p, v, condition, &runner.run()),
                                    Err(_) => local.record_unschedulable(p, v),
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        for worker in workers {
            aggregate.merge(&worker.join().expect("fleet worker panicked"));
        }
    });

    let aggregation_bytes = aggregate.footprint_bytes() * (threads + 1);
    FleetRun {
        aggregate,
        wall_clock: start.elapsed(),
        threads,
        aggregation_bytes,
    }
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
        assert_eq!(run.aggregate.vehicles_accounted(), spec.vehicles);
        assert!(run.aggregate.policy(0).produced > 0);
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
}
