//! A from-scratch FlexRay 2.1 protocol substrate.
//!
//! The CoEfficient paper evaluates its scheduler on a 10-node FlexRay
//! testbed; this crate is the simulated equivalent, faithful at the level
//! the evaluation observes: cycle/slot/minislot timing, dual channels,
//! on-wire frame lengths, TDMA arbitration in the static segment, FTDMA
//! (minislot) arbitration in the dynamic segment, and BER-driven transient
//! fault injection. A frame is modelled by its length alone: no bit is
//! encoded and no CRC is computed, because a transient fault is drawn per
//! frame from that length (`p_z = 1 − (1 − BER)^{W_z}`).
//!
//! Module map:
//!
//! * [`config`] — cluster-wide protocol constants (`gdCycle`,
//!   `gdStaticSlot`, `gNumberOfStaticSlots`, `gdMinislot`, `pLatestTx`, …)
//!   with validation and derived timing, plus the protocol settings this
//!   reproduction fixes (`gdMacrotick`, the action-point offsets, the
//!   dynamic slot idle phase);
//! * [`codec`] — the on-wire length of a frame (header, trailer CRC and
//!   physical bit coding) and FlexRay's 254-byte payload limit;
//! * [`signal`] — ECU signals (§II-A);
//! * [`schedule`] — the [`schedule::MessageId`] shared with the schedulers;
//! * [`bus`] — the cycle-level dual-channel bus engine with fault
//!   injection and a bus-analyzer-style trace.
//!
//! # Example
//!
//! ```
//! use flexray::config::ClusterConfig;
//! let cfg = ClusterConfig::builder()
//!     .macroticks_per_cycle(5000)
//!     .static_slots(80, 40)
//!     .minislots(120, 2)
//!     .build()
//!     .unwrap();
//! assert_eq!(cfg.cycle_duration().as_micros(), 5000);
//! assert_eq!(cfg.static_segment_duration().as_micros(), 3200);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bus;
pub mod codec;
pub mod config;
pub mod schedule;
pub mod signal;

mod channel;
mod error;

pub use channel::ChannelId;
pub use error::ConfigError;
