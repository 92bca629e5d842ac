//! Time-triggered Ethernet backbone between FlexRay domains.
//!
//! The paper's cluster is a single FlexRay bus; real vehicles bridge
//! several such domains over a switched time-triggered Ethernet backbone.
//! This crate models the smallest interesting instance of that
//! architecture: **two FlexRay domains joined by one store-and-forward
//! gateway** whose egress ports open transmission *gate windows* from a
//! gate-control list (GCL), IEEE 802.1Qbv style.
//!
//! Everything is phased on the **hypercycle** — the least common multiple
//! of the FlexRay communication cycle and the Ethernet base period
//! ([`flexray::config::ClusterConfig::hypercycle`]). Two reservation
//! policies compete for the same gate windows, behind a string-keyed
//! [`reservation`] registry resolved by [`coefficient::registry::lookup`]:
//!
//! * [`reservation::PER_CYCLE`] — the classic baseline: a flow is
//!   admitted only if one gate column is free in **every** base period of
//!   the hypercycle, and it reserves the whole column. Simple, but a flow
//!   whose period exceeds the base period wastes every window it does not
//!   use.
//! * [`reservation::HYPERCYCLE`] — plans at hypercycle granularity: each
//!   admitted flow reserves exactly one window per *instance*, and the
//!   windows the baseline would have wasted are handed to flows the
//!   baseline rejected. By construction it admits a superset of the
//!   baseline's flows (a property test in `tests/gcl_props.rs` pins
//!   this on random topologies).
//!
//! End-to-end [`topology::FlowSpec`]s traverse five stages — sensor task
//! on the source-domain CPU ([`tasks`]), FlexRay static slot
//! ([`coefficient::Runner`]), gateway queue, Ethernet gate window,
//! actuator task on the destination CPU — and the [`runner`] folds
//! per-flow latency/jitter into all-integer [`flow::FlowCounters`] and a
//! replayable fingerprint.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod flow;
pub mod gateway;
pub mod reservation;
pub mod runner;
pub mod topology;

pub use flow::FlowCounters;
pub use gateway::{simulate_gateway, GatewayOutcome};
pub use reservation::{
    FlowPlan, Reservation, ReservationPlan, ReservationRef, ALL_RESERVATIONS, HYPERCYCLE, PER_CYCLE,
};
pub use runner::{
    run_cell, run_matrix, BackboneError, CellReport, CellSpec, FlowOutcome, MatrixSpec, PortStats,
};
pub use topology::{FlowSpec, PortSpec, Topology};
