//! Measurement utilities for the CoEfficient simulation.
//!
//! The paper's evaluation reports four metrics (§IV-B): overall running
//! time, bandwidth utilization, average transmission latency and deadline
//! miss ratio. This crate provides the accounting primitives those metrics
//! are computed from:
//!
//! * [`Summary`] — streaming count/min/max/mean over durations;
//! * [`LogHistogram`] — mergeable log-scale `u64` histograms for
//!   fleet-scale streaming aggregation (fixed memory, order-independent
//!   merge);
//! * [`DeadlineTracker`] — met/missed deadline counting per message class;
//! * [`Aggregate`] — cross-run distribution summaries (mean/stddev/min/max
//!   and exact percentiles) for the multi-seed sweep harness.
//!
//! ```
//! use metrics::Summary;
//! use event_sim::SimDuration;
//! let mut s = Summary::new();
//! s.record(SimDuration::from_micros(10));
//! s.record(SimDuration::from_micros(30));
//! assert_eq!(s.mean().unwrap().as_micros(), 20);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod aggregate;
mod deadline;
mod histogram;
mod stats;

pub use aggregate::{Aggregate, AggregateSummary};
pub use deadline::{DeadlineOutcome, DeadlineTracker};
pub use histogram::LogHistogram;
pub use stats::Summary;
