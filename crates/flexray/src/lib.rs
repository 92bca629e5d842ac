//! A from-scratch FlexRay 2.1 protocol substrate.
//!
//! The CoEfficient paper evaluates its scheduler on a 10-node FlexRay
//! testbed; this crate is the simulated equivalent, faithful at the level
//! the evaluation observes: cycle/slot/minislot timing, dual channels,
//! frame formats and CRCs, TDMA arbitration in the static segment, FTDMA
//! (minislot) arbitration in the dynamic segment, and BER-driven transient
//! fault injection.
//!
//! Module map:
//!
//! * [`config`] — cluster-wide protocol constants (`gdCycle`,
//!   `gdStaticSlot`, `gNumberOfStaticSlots`, `gdMinislot`, `pLatestTx`, …)
//!   with validation and derived timing;
//! * [`frame`] + [`crc`] + [`codec`] + [`bitstream`] — frame format,
//!   header CRC-11, frame CRC-24, the physical bit coding that determines
//!   how long a frame occupies the wire, and bit-exact
//!   serialization/deserialization;
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

pub mod bitstream;
pub mod bus;
pub mod codec;
pub mod config;
pub mod crc;
pub mod frame;
pub mod schedule;
pub mod signal;

mod channel;
mod error;

pub use channel::ChannelId;
pub use error::ConfigError;
pub use frame::{Frame, FrameHeader, FrameId};
