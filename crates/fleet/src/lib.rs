//! Fleet-scale Monte Carlo over the CoEfficient simulator.
//!
//! The paper evaluates scheduling policies one cell at a time; this crate
//! asks the production-scale question: *across a million heterogeneous
//! vehicles, what is the p99.999 deadline-miss probability?* It provides:
//!
//! * [`mod@env`] — environment models ([`EnvModel`]): named distributions
//!   over per-vehicle channel quality (log-uniform BER, clean/bursty/
//!   storm condition weights), reliability goals and message-set mixes;
//! * [`FleetSpec`] — the fleet description; vehicle `v`'s entire world
//!   derives from `derive(seed, env.name, v)`, the workspace's standard
//!   seed-derivation scheme;
//! * [`agg`] — streaming aggregation ([`FleetAggregate`]): integer
//!   counters and mergeable log-scale histograms
//!   ([`metrics::LogHistogram`]) folded as each vehicle completes, so
//!   memory is O(workers × buckets), never O(vehicles), and the merge is
//!   exactly commutative and associative;
//! * [`exec`] — the sharded executor: workers claim fixed-size vehicle
//!   shards from an atomic queue and fold them into per-worker
//!   aggregates merged when the workers join; the final
//!   [`FleetAggregate::digest`] is invariant to thread count and shard
//!   size.
//!
//! ```
//! use fleet::{exec, FleetSpec};
//! let spec = FleetSpec {
//!     vehicles: 20,
//!     shard_size: 8,
//!     ..FleetSpec::default()
//! };
//! let a = exec::run(&spec, 1);
//! let b = exec::run(&spec, 2);
//! assert_eq!(a.aggregate.digest(), b.aggregate.digest());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod agg;
pub mod env;
pub mod exec;
pub mod spec;

pub use agg::{FleetAggregate, PolicyAggregate, PPB};
pub use env::{Condition, EnvModel, VehicleDraw};
pub use exec::FleetRun;
pub use spec::{FleetSpec, DEFAULT_SEED};
