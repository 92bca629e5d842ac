//! Deterministic simulation time and seeded randomness.
//!
//! This crate is the foundation of the CoEfficient reproduction: the
//! cycle-level FlexRay bus engine, the schedulers and the experiment
//! harness all share its clock and its RNG discipline.
//!
//! * time is an integer number of nanoseconds ([`SimTime`], [`SimDuration`]),
//!   so FlexRay macroticks (1 µs) and bit times (100 ns at 10 Mbit/s) are
//!   exact;
//! * all randomness is injected through seeded RNGs built by [`rng`], so a
//!   single experiment seed reproduces an identical run.
//!
//! # Example
//!
//! ```
//! use event_sim::rng::substream;
//! use event_sim::{SimDuration, SimTime};
//! use rand::Rng;
//!
//! // Five 1 ms cycles, each start shifted by a seeded sub-bit jitter.
//! let mut rng = substream(7, "jitter");
//! let mut now = SimTime::ZERO;
//! for _ in 0..5 {
//!     let jitter = SimDuration::from_nanos(rng.gen_range(0..100));
//!     assert!(now + jitter < now + SimDuration::from_micros(1));
//!     now += SimDuration::from_millis(1);
//! }
//! assert_eq!(now, SimTime::from_millis(5));
//! // The same seed and label replay the same stream.
//! assert_eq!(
//!     substream(7, "jitter").gen::<u64>(),
//!     substream(7, "jitter").gen::<u64>()
//! );
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod rng;
mod time;

pub use time::{SimDuration, SimTime};
