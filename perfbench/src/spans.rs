//! In-memory span recorder of the traced run.
//!
//! One span per layer call: its kind, run id, parent span, start and end
//! (nanoseconds since the run began). Spans stay in memory for the whole
//! run and are folded into per-kind self times when it ends
//! ([`self_times`]): a span's self time is its duration minus the
//! durations of its direct children.
//!
//! The recorder is thread-local because the fault processes the bus
//! engine owns and the traffic source it borrows record into the same run
//! from inside one `run_cycle` call.

use std::cell::RefCell;
use std::time::Instant;

/// A layer boundary the traced run records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The driver's whole cycle loop; its self time is the bookkeeping
    /// `Runner::run` does between layer calls.
    RunLoop,
    /// `Scheduler::purge_expired`.
    Purge,
    /// `Scheduler::produce_static` / `produce_dynamic`.
    Produce,
    /// `BusEngine::run_cycle`.
    RunCycle,
    /// The scheduler's `TrafficSource::static_frame`.
    StaticFrame,
    /// The scheduler's `TrafficSource::dynamic_frame`.
    DynamicFrame,
    /// The scheduler's `TrafficSource::on_outcome`.
    OnOutcome,
    /// A call into a channel's fault process (frame draws and the
    /// campaign decorator's cycle clock).
    FaultDraw,
    /// `ReliabilityMonitor::observe` of the bus-wide monitor.
    MonitorObserve,
    /// Theorem 1: the planner inputs and `Policy::plan_copies`.
    Plan,
    /// `StaticAllocation::build_with_channels` (or the mirror `build`).
    Assignment,
    /// `Scheduler::new_with_options`.
    SchedulerNew,
    /// `Runner::new`.
    RunnerNew,
    /// `Runner::run`, the untraced reference of the differential.
    RunnerRun,
    /// `FleetSpec::vehicle_config` / `vehicle_draw`.
    EnvDraw,
    /// `FleetAggregate::record` / `record_unschedulable`.
    AggRecord,
    /// `FleetAggregate::merge`.
    AggMerge,
}

impl Kind {
    /// Number of kinds.
    pub const COUNT: usize = 17;
}

/// One recorded layer call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Which layer boundary.
    pub kind: Kind,
    /// The run the span belongs to.
    pub run: u32,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Nanoseconds from the run's start to the call.
    pub start_ns: u64,
    /// Nanoseconds from the run's start to the return.
    pub end_ns: u64,
}

/// Parent index of a top-level span.
pub const NO_PARENT: u32 = u32::MAX;

struct Recorder {
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        run: 0,
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Starts run `run`, dropping the previous run's spans.
pub fn begin_run(run: u32) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.run = run;
        r.spans.clear();
        r.open.clear();
        r.epoch = Instant::now();
    });
}

/// Opens a span of `kind` inside the innermost open one.
pub fn enter(kind: Kind) -> u32 {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let id = r.spans.len() as u32;
        let parent = r.open.last().copied().unwrap_or(NO_PARENT);
        let (run, start_ns) = (r.run, r.epoch.elapsed().as_nanos() as u64);
        r.spans.push(Span {
            kind,
            run,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        r.open.push(id);
        id
    })
}

/// Closes span `id`, which must be the innermost open one.
pub fn exit(id: u32) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let end_ns = r.epoch.elapsed().as_nanos() as u64;
        assert_eq!(r.open.pop(), Some(id), "spans close innermost first");
        r.spans[id as usize].end_ns = end_ns;
    });
}

/// Runs `f` inside a span of `kind`.
pub fn span<T>(kind: Kind, f: impl FnOnce() -> T) -> T {
    let id = enter(kind);
    let out = f();
    exit(id);
    out
}

/// Self time, in nanoseconds, per kind over the current run's spans.
///
/// # Panics
/// Panics if a span is still open.
pub fn self_times() -> [u64; Kind::COUNT] {
    RECORDER.with(|r| {
        let r = r.borrow();
        assert!(r.open.is_empty(), "a span is still open");
        let mut children = vec![0u64; r.spans.len()];
        for s in &r.spans {
            if s.parent != NO_PARENT {
                children[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = [0u64; Kind::COUNT];
        for (s, child) in r.spans.iter().zip(&children) {
            out[s.kind as usize] += (s.end_ns - s.start_ns).saturating_sub(*child);
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children_only() {
        begin_run(7);
        span(Kind::RunLoop, || {
            span(Kind::RunCycle, || {
                span(Kind::StaticFrame, || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        });
        let times = self_times();
        assert!(times[Kind::StaticFrame as usize] >= 2_000_000);
        assert!(times[Kind::RunCycle as usize] < times[Kind::StaticFrame as usize]);
        assert!(times[Kind::RunLoop as usize] < times[Kind::StaticFrame as usize]);
        RECORDER.with(|r| {
            let r = r.borrow();
            assert_eq!(r.spans.len(), 3);
            assert!(r.spans.iter().all(|s| s.run == 7));
            assert_eq!(r.spans[0].parent, NO_PARENT);
            assert_eq!(r.spans[2].parent, 1);
        });
    }
}
