//! The [`Tracer`] handle and the bounded ring it records into.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use event_sim::SimTime;

use crate::event::{EventKind, TraceEvent, TraceLog};

/// A bounded FIFO: keeps the most recent `capacity` events and counts
/// the rest as dropped, so tracing memory stays O(capacity) regardless
/// of run length.
#[derive(Debug)]
struct Ring {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl Ring {
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
}

/// A run's one trace handle: instrumented components emit through
/// clones of it, and the run drains the shared ring with
/// [`take_log`](Self::take_log).
///
/// A disabled tracer holds no ring: [`Tracer::emit`] is a single branch
/// that never calls its event closure, so the untraced hot path builds
/// no event and stays byte-identical. An enabled tracer shares its ring
/// behind `Rc<RefCell<_>>`: a run is built and stepped on one thread, so
/// an emit takes no lock. The handle is therefore `!Send`, and so is every
/// component holding one.
#[derive(Clone, Default)]
pub struct Tracer(Option<Rc<RefCell<Ring>>>);

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

    /// A tracer recording into a ring that retains at most `capacity`
    /// events.
    pub fn ring(capacity: usize) -> Self {
        Tracer(Some(Rc::new(RefCell::new(Ring {
            capacity,
            events: VecDeque::with_capacity(capacity.min(4096)),
            dropped: 0,
        }))))
    }

    /// Records the event `kind` builds, stamped `at`. The closure is the
    /// guard: a disabled tracer never calls it, so an emit site builds
    /// (and allocates) nothing on an untraced run.
    #[inline]
    pub fn emit(&self, at: SimTime, kind: impl FnOnce() -> EventKind) {
        if let Some(ring) = &self.0 {
            let kind = kind();
            ring.borrow_mut().record(TraceEvent { at, kind });
        }
    }

    /// Drains the ring into a [`TraceLog`] and resets its drop counter;
    /// `None` when disabled.
    pub fn take_log(&self) -> Option<TraceLog> {
        self.0.as_ref().map(|ring| {
            let mut ring = ring.borrow_mut();
            TraceLog {
                events: std::mem::take(&mut ring.events).into(),
                dropped: std::mem::take(&mut ring.dropped),
                capacity: ring.capacity,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emit_cycles(tracer: &Tracer, cycles: std::ops::Range<u64>) {
        for n in cycles {
            tracer.emit(SimTime::from_nanos(n), || EventKind::CycleStart {
                cycle: n,
            });
        }
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let tracer = Tracer::ring(2);
        emit_cycles(&tracer, 0..5);
        let log = tracer.take_log().unwrap();
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.capacity, 2);
        assert_eq!(log.dropped, 3);
        assert_eq!(
            log.events[0].kind,
            EventKind::CycleStart { cycle: 3 },
            "oldest events are evicted first"
        );
        let log = tracer.take_log().unwrap();
        assert!(log.events.is_empty());
        assert_eq!(log.dropped, 0, "take_log resets the drop counter");
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let tracer = Tracer::ring(0);
        emit_cycles(&tracer, 1..2);
        let log = tracer.take_log().unwrap();
        assert!(log.events.is_empty());
        assert_eq!(log.dropped, 1);
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let tracer = Tracer::disabled();
        emit_cycles(&tracer, 9..10); // must not panic
        assert_eq!(tracer.take_log(), None);
        assert_eq!(format!("{tracer:?}"), r#"Tracer("disabled")"#);
    }

    #[test]
    fn a_disabled_tracer_never_builds_the_event() {
        let tracer = Tracer::disabled();
        for n in 0..3 {
            tracer.emit(SimTime::from_nanos(n), || {
                panic!("a disabled tracer must not call the event closure")
            });
        }
        assert_eq!(tracer.take_log(), None);
    }

    #[test]
    fn an_enabled_tracer_builds_each_event_once_in_emission_order() {
        let tracer = Tracer::ring(8);
        let calls = std::cell::Cell::new(0);
        for (emitted, n) in [5, 2, 9].into_iter().enumerate() {
            tracer.emit(SimTime::from_nanos(n), || {
                calls.set(calls.get() + 1);
                EventKind::CycleStart { cycle: n }
            });
            assert_eq!(calls.get(), emitted + 1, "one closure call per emit");
        }
        let log = tracer.take_log().unwrap();
        let order: Vec<(u64, EventKind)> = log
            .events
            .into_iter()
            .map(|e| (e.at.as_nanos(), e.kind))
            .collect();
        assert_eq!(
            order,
            [5, 2, 9].map(|n| (n, EventKind::CycleStart { cycle: n }))
        );
    }

    #[test]
    fn clones_share_one_ring() {
        let tracer = Tracer::ring(8);
        let clone = tracer.clone();
        assert_eq!(format!("{clone:?}"), r#"Tracer("enabled")"#);
        emit_cycles(&tracer, 1..2);
        emit_cycles(&clone, 2..3);
        assert_eq!(tracer.take_log().unwrap().events.len(), 2);
        assert_eq!(format!("{tracer:?}"), r#"Tracer("enabled")"#);
    }
}
