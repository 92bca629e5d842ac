//! Fixed-priority real-time scheduling theory.
//!
//! This crate holds the uniprocessor side of the reproduction: the
//! periodic task model of the paper's §III-A, exact response-time
//! analysis, and a preemptive fixed-priority schedule simulator. The
//! backbone runs its sensor and actuator CPUs through [`simulate`]; the
//! bus scheduler's slack model lives in `coefficient::policy` and reports
//! its decisions as [`ScheduleCounters`].
//!
//! Contents:
//!
//! * [`PeriodicTask`] — the task model (§III-A);
//! * [`TaskSet`] — a priority-ordered set with deadline-monotonic
//!   assignment;
//! * [`response_time`] — exact worst-case response-time analysis for
//!   constrained-deadline fixed-priority task sets;
//! * [`simulate`] — an exact preemptive fixed-priority schedule simulator
//!   producing an [`ExecutionTrace`].
//!
//! # Example
//!
//! ```
//! use tasks::{PeriodicTask, TaskSet, response_time};
//! use event_sim::SimDuration;
//!
//! let set = TaskSet::deadline_monotonic(vec![
//!     PeriodicTask::new(0, SimDuration::from_millis(1), SimDuration::from_millis(4), SimDuration::from_millis(4)),
//!     PeriodicTask::new(1, SimDuration::from_millis(2), SimDuration::from_millis(8), SimDuration::from_millis(8)),
//! ]).unwrap();
//! let rta = response_time::analyze(&set).unwrap();
//! assert!(rta.schedulable());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod counters;
pub mod hyperperiod;
pub mod response_time;
mod simulator;
mod task;
mod taskset;
mod trace;

pub use counters::ScheduleCounters;
pub use simulator::simulate;
pub use task::{PeriodicTask, TaskError, TaskId};
pub use taskset::TaskSet;
pub use trace::{ExecutionTrace, JobCompletion, Slice, SliceKind, TraceError};
