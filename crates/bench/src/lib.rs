//! Benchmark harness regenerating every figure of the CoEfficient paper's
//! evaluation (§IV-B).
//!
//! Each `figN_*` function runs the full dual-channel bus simulation for
//! every parameter combination of the corresponding figure and returns
//! typed rows; the `experiments` binary prints them as tables (or JSON).
//! The figure
//! cells execute through the parallel sweep harness
//! ([`coefficient::sweep`], with the bench-side layer in [`sweep`]).
//! Paper-reported values and our measured shapes are recorded side by
//! side in `EXPERIMENTS.md`.

pub mod backbone;
pub mod chaos;
pub mod cycles;
pub mod experiments;
pub mod fleet;
pub mod golden;
pub mod json;
pub mod sweep;
pub mod table;
pub mod trace;

pub use experiments::*;
