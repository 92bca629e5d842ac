//! **observe** — structured event tracing and time-series observability
//! for deterministic simulation runs.
//!
//! The rest of the workspace reports end-of-run aggregates (run counters,
//! latency summaries). This crate records any run as an inspectable
//! *timeline*: instrumented components emit typed [`TraceEvent`]s through
//! clones of one [`Tracer`] handle into its bounded ring, and the run
//! drains the captured [`TraceLog`] with [`Tracer::take_log`]. It records
//! and does not export: the bench harness (`bench_harness::trace`)
//! renders a log as its `coefficient-trace/1` JSON document, and the
//! Chrome `trace_event` timeline (loadable in Perfetto or
//! `chrome://tracing`) is a view of that document's events.
//!
//! Design contract:
//!
//! * **Zero-cost when disabled.** A disabled [`Tracer`] is a `None`, and
//!   [`Tracer::emit`] takes the event as a closure: the closure is the
//!   guard, called only when the tracer is enabled, so the untraced path
//!   adds one predictable branch per emit site and builds nothing.
//!   Enabling tracing must never change simulation behaviour — traces
//!   observe, they do not perturb, so run fingerprints are identical with
//!   tracing on or off.
//! * **Bounded overhead when enabled.** The ring has a fixed capacity:
//!   old events are dropped (and counted) rather than growing memory
//!   without bound. A run is single-threaded, so an emit takes no lock.
//! * **Deterministic.** Events carry integer simulation time and integer
//!   payloads only. The same run produces the bit-identical event stream
//!   on every replay and at any worker-thread count.
//!
//! ```
//! use event_sim::SimTime;
//! use observe::{EventKind, Tracer};
//!
//! let tracer = Tracer::ring(16);
//! tracer.emit(SimTime::from_micros(5), || EventKind::CycleStart { cycle: 0 });
//! let log = tracer.take_log().expect("an enabled tracer has a log");
//! assert_eq!(log.events.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
mod tracer;

pub use event::{EventKind, HealthScope, TraceEvent, TraceLog};
pub use tracer::Tracer;

/// How (and whether) a run records its trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// No tracing: the zero-cost default.
    Off,
    /// Record into a ring ([`Tracer::ring`]) holding at most `capacity`
    /// events.
    Ring {
        /// Maximum number of retained events; older events are dropped
        /// (and counted in [`TraceLog::dropped`]) once full.
        capacity: usize,
    },
}

/// Per-run trace configuration, carried by the simulation's run config.
///
/// The default is [`TraceMode::Off`], which keeps the untraced path
/// byte-identical to a build without this crate wired in at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Whether to record, and into how large a ring.
    pub mode: TraceMode,
    /// Snapshot the run counters as a [`EventKind::CounterSample`] every
    /// this many cycles (`0` disables sampling).
    pub counter_sample_every: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::off()
    }
}

impl TraceConfig {
    /// Tracing disabled (the default).
    pub const fn off() -> Self {
        TraceConfig {
            mode: TraceMode::Off,
            counter_sample_every: 0,
        }
    }

    /// Ring-buffer tracing with the given event capacity and no counter
    /// sampling; chain [`sample_every`](Self::sample_every) to add it.
    pub const fn ring(capacity: usize) -> Self {
        TraceConfig {
            mode: TraceMode::Ring { capacity },
            counter_sample_every: 0,
        }
    }

    /// Sets the counter-sampling period in cycles (`0` disables).
    #[must_use]
    pub const fn sample_every(mut self, cycles: u64) -> Self {
        self.counter_sample_every = cycles;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_off() {
        let cfg = TraceConfig::default();
        assert_eq!(cfg.mode, TraceMode::Off);
        assert_eq!(cfg.counter_sample_every, 0);
    }

    #[test]
    fn ring_config_builder() {
        let cfg = TraceConfig::ring(1024).sample_every(10);
        assert_eq!(cfg.mode, TraceMode::Ring { capacity: 1024 });
        assert_eq!(cfg.counter_sample_every, 10);
        assert_ne!(cfg.mode, TraceMode::Off);
    }
}
