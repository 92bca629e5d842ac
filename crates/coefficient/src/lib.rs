//! **CoEfficient** — cooperative and efficient real-time scheduling for
//! FlexRay automotive communications (ICDCS 2014 reproduction).
//!
//! FlexRay offers no acknowledgements, so tolerance against transient
//! faults must come from *redundant transmission*. The standard approach
//! (our [`FSPEC`] baseline) retransmits **everything**, best
//! effort: every frame is duplicated on the second channel and an extra
//! copy of every message is pushed through the dynamic segment. Under
//! realistic loads that exhausts the bandwidth, queues grow, and both
//! latency and deadline-miss ratios blow up.
//!
//! CoEfficient ([`COEFFICIENT`]) instead:
//!
//! 1. models static messages as hard periodic tasks, retransmission copies
//!    as hard aperiodic tasks and dynamic messages as soft aperiodic tasks
//!    (§III-A);
//! 2. computes **differentiated retransmission counts** `k_z` per message
//!    from the channel BER and an IEC 61508 reliability goal ρ (Theorem 1,
//!    via [`reliability::RetransmissionPlanner`]);
//! 3. places those copies — and backlogged dynamic messages — into the
//!    **selectively stolen slack** of the dual-channel static segment:
//!    idle `(slot, cycle, channel)` positions whose capacity fits the
//!    frame (§III-F);
//! 4. schedules both segments **cooperatively**: released static instances
//!    may go out early through free slack, and dynamic messages may ride
//!    idle static slots.
//!
//! The crate's entry point is [`Runner`]: configure a
//! [`RunConfig`] with a cluster geometry, a scenario and workloads, and it
//! simulates the full dual-channel bus, returning a [`RunReport`] with the
//! paper's four metrics (running time, bandwidth utilization, transmission
//! latency, deadline miss ratio).
//!
//! Schedulers are [`Policy`] rows resolved from a string-keyed
//! [`registry`], so policy names flow from CLI flags and corpus files all
//! the way to the scheduler without an enum in between:
//!
//! ```
//! use coefficient::{RunConfig, Runner, Scenario, StopCondition};
//! use flexray::config::ClusterConfig;
//!
//! let report = Runner::new(RunConfig {
//!     cluster: ClusterConfig::paper_dynamic(50),
//!     scenario: Scenario::ber7(),
//!     static_messages: workloads::bbw::message_set(),
//!     dynamic_messages: workloads::sae::message_set(workloads::sae::IdRange::StartingAt(20), 1),
//!     policy: coefficient::registry::resolve("coefficient").unwrap(),
//!     stop: StopCondition::ProducedInstances(200),
//!     seed: 1,
//!     trace: Default::default(),
//! })
//! .unwrap()
//! .run();
//! assert!(report.delivered > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod assignment;
mod instance;
mod policy;
pub mod registry;
mod runner;
mod scenario;
pub mod sweep;

pub use assignment::{AllocationError, CopyPlacement, StaticAllocation};
pub use instance::{InstanceStatus, InstanceTracker, LogSummary, MessageClass};
// Re-exported so downstream users can configure [`RunConfig::trace`] and
// consume [`RunReport::trace`] without naming the `observe` crate.
pub use observe::{TraceConfig, TraceLog, TraceMode};
pub use policy::{CoefficientOptions, Scheduler, SchedulerError};
pub use registry::{
    Named, Policy, PolicyBehavior, PolicyRef, UnknownName, COEFFICIENT, FSPEC, GREEDY, HOSA,
    MATCHUP, SLACK_STEAL,
};
pub use reliability::campaign::{CampaignCounters, CampaignSpec, CampaignTarget};
pub use runner::{
    CampaignEventOutcome, ChaosObservation, RunConfig, RunCounters, RunReport, Runner,
    StopCondition, MAX_CYCLES,
};
pub use scenario::{FaultModel, Scenario};
pub use sweep::{
    parallel_map, run_parallel, CellCoord, CellOutcome, GroupSummary, SeedStrategy, SweepMatrix,
    SweepReport, SweepRunner,
};
