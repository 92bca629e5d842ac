//! Layer-attributed host-time benchmark of the CoEfficient simulator.
//!
//! The benchmark drives the simulator from outside, through the public
//! library calls a user of the crates makes, and reports two kinds of
//! numbers for each workload ([`workload`]):
//!
//! * end-to-end host time ([`timed`]), measured with tracing off: set-up
//!   time, the wall time of one pass, simulated cycles per host second
//!   (pooled and per policy), runs per second, run-time quantiles and
//!   peak memory;
//! * per-layer self time and work counts ([`traced`]), from a separate
//!   traced run in which a benchmark-side cycle driver ([`driver`])
//!   replays `Runner::run` call for call while recording one span per
//!   layer call ([`spans`]).
//!
//! No number is reported unless the golden corpus gate passes, and every
//! run is checked against recorded reference digests ([`reference`]).

pub mod cli;
pub mod driver;
pub mod reference;
pub mod spans;
pub mod stats;
pub mod timed;
pub mod traced;
pub mod workload;
