//! Sinks and the cloneable [`Tracer`] handle.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};

use event_sim::SimTime;

use crate::event::{EventKind, TraceEvent, TraceLog};

/// Receives recorded events.
///
/// Implementations must be `Send` so a tracer can live inside components
/// that cross worker-thread boundaries (each simulation run is still
/// single-threaded; the bound is about *moving* runs between threads,
/// never about concurrent emission).
pub trait TraceSink: Send {
    /// Records one event.
    fn record(&mut self, event: TraceEvent);

    /// How many events were discarded (bounded sinks only).
    fn dropped(&self) -> u64 {
        0
    }
}

/// A bounded FIFO sink: keeps the most recent `capacity` events and
/// counts the rest as dropped, so tracing overhead stays O(capacity)
/// regardless of run length.
#[derive(Debug, Clone, Default)]
pub struct RingBufferSink {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl RingBufferSink {
    /// Creates a sink retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        RingBufferSink {
            capacity,
            events: VecDeque::with_capacity(capacity.min(4096)),
            dropped: 0,
        }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drains the sink into a [`TraceLog`], resetting the drop counter.
    pub fn take_log(&mut self) -> TraceLog {
        TraceLog {
            events: std::mem::take(&mut self.events).into(),
            dropped: std::mem::take(&mut self.dropped),
            capacity: self.capacity,
        }
    }
}

impl TraceSink for RingBufferSink {
    fn record(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// A cheap, cloneable handle instrumented components emit through.
///
/// Disabled tracers hold no sink: [`Tracer::is_enabled`] is a single
/// branch and [`Tracer::emit`] does nothing, so the untraced hot path
/// stays byte-identical. Enabled tracers share one sink behind
/// `Arc<Mutex<_>>`; within a run emission is single-threaded, so the
/// lock is uncontended.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<Mutex<dyn TraceSink>>>);

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Tracer")
            .field(&if self.0.is_some() {
                "enabled"
            } else {
                "disabled"
            })
            .finish()
    }
}

impl Tracer {
    /// A tracer that records nothing (the default).
    pub fn disabled() -> Self {
        Tracer(None)
    }

    /// Wraps a shared sink.
    pub fn new(sink: Arc<Mutex<dyn TraceSink>>) -> Self {
        Tracer(Some(sink))
    }

    /// Whether emits reach a sink. Emit sites should guard event
    /// construction on this so disabled runs allocate nothing.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records one event (no-op when disabled).
    pub fn emit(&self, at: SimTime, kind: EventKind) {
        if let Some(sink) = &self.0 {
            sink.lock()
                .expect("trace sink lock poisoned")
                .record(TraceEvent { at, kind });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u64) -> (SimTime, EventKind) {
        (SimTime::from_nanos(n), EventKind::CycleStart { cycle: n })
    }

    #[test]
    fn ring_buffer_bounds_and_counts_drops() {
        let mut sink = RingBufferSink::new(2);
        for n in 0..5 {
            let (at, kind) = ev(n);
            sink.record(TraceEvent { at, kind });
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 3);
        let log = sink.take_log();
        assert_eq!(log.capacity, 2);
        assert_eq!(log.dropped, 3);
        assert_eq!(
            log.events[0].kind,
            EventKind::CycleStart { cycle: 3 },
            "oldest events are evicted first"
        );
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 0, "take_log resets the drop counter");
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let mut sink = RingBufferSink::new(0);
        let (at, kind) = ev(1);
        sink.record(TraceEvent { at, kind });
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 1);
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        let (at, kind) = ev(9);
        tracer.emit(at, kind); // must not panic
        assert_eq!(format!("{tracer:?}"), r#"Tracer("disabled")"#);
    }

    #[test]
    fn enabled_tracer_reaches_the_shared_sink() {
        let sink = Arc::new(Mutex::new(RingBufferSink::new(8)));
        let tracer = Tracer::new(sink.clone());
        let clone = tracer.clone();
        assert!(clone.is_enabled());
        let (at, kind) = ev(1);
        tracer.emit(at, kind);
        let (at, kind) = ev(2);
        clone.emit(at, kind);
        assert_eq!(sink.lock().unwrap().len(), 2);
        assert_eq!(format!("{tracer:?}"), r#"Tracer("enabled")"#);
    }
}
