//! Exact preemptive fixed-priority schedule simulation.
//!
//! [`simulate`] plays out a [`TaskSet`] over a finite horizon and returns
//! the exact [`ExecutionTrace`]: which job ran when, every completion, and
//! explicit idle slices. The backbone runs its sensor and actuator CPUs
//! through it, and the response-time analysis is tested against it.

use event_sim::{SimDuration, SimTime};

use crate::taskset::TaskSet;
use crate::trace::{ExecutionTrace, JobCompletion, Slice, SliceKind};

/// A periodic job in the ready queue.
#[derive(Debug, Clone)]
struct ReadyJob {
    level: usize,
    job_index: u64,
    release: SimTime,
    deadline: SimTime,
    remaining: SimDuration,
}

/// Simulates the fixed-priority preemptive schedule of `set` (priority =
/// set order) over `[0, horizon)`, starting from an empty system at t = 0.
///
/// Jobs released before the horizon but unfinished at it produce **no**
/// completion record; callers treat them as lost. Deadline misses do *not*
/// abort the job: it keeps executing (and the completion record will show
/// the miss), matching a bus that transmits late rather than dropping.
///
/// # Panics
/// Panics if `horizon` is zero.
pub fn simulate(set: &TaskSet, horizon: SimTime) -> ExecutionTrace {
    assert!(horizon > SimTime::ZERO, "horizon must be positive");
    let mut sim = SimState::new(set, horizon);
    sim.run();
    ExecutionTrace::new(sim.slices, sim.completions, horizon)
}

struct SimState<'a> {
    set: &'a TaskSet,
    horizon: SimTime,
    /// Next release index per priority level.
    next_release: Vec<u64>,
    /// Ready periodic jobs, kept sorted by (level, release): index 0 runs.
    ready: Vec<ReadyJob>,
    now: SimTime,
    slices: Vec<Slice>,
    completions: Vec<JobCompletion>,
}

impl<'a> SimState<'a> {
    fn new(set: &'a TaskSet, horizon: SimTime) -> Self {
        SimState {
            set,
            horizon,
            next_release: vec![0; set.len()],
            ready: Vec::new(),
            now: SimTime::ZERO,
            slices: Vec::new(),
            completions: Vec::new(),
        }
    }

    /// Release every periodic job due at or before `now`.
    fn admit_arrivals(&mut self) {
        for (level, task) in self.set.iter().enumerate() {
            loop {
                let k = self.next_release[level];
                let rel = task.release_of_job(k);
                if rel > self.now || rel >= self.horizon {
                    break;
                }
                self.ready.push(ReadyJob {
                    level,
                    job_index: k,
                    release: rel,
                    deadline: task.deadline_of_job(k),
                    remaining: task.wcet(),
                });
                self.next_release[level] = k + 1;
            }
        }
        // Keep FIFO within a level: sort by (level, release, job index).
        self.ready
            .sort_by_key(|j| (j.level, j.release, j.job_index));
    }

    /// The next instant at which the set of ready work can change.
    fn next_arrival_after(&self, t: SimTime) -> SimTime {
        let mut next = self.horizon;
        for (level, task) in self.set.iter().enumerate() {
            let rel = task.release_of_job(self.next_release[level]);
            if rel > t && rel < next {
                next = rel;
            }
        }
        next
    }

    fn emit(&mut self, start: SimTime, end: SimTime, kind: SliceKind) {
        if end <= start {
            return;
        }
        // Coalesce with the previous slice when it continues the same work.
        if let Some(last) = self.slices.last_mut() {
            if last.end == start && last.kind == kind {
                last.end = end;
                return;
            }
        }
        self.slices.push(Slice { start, end, kind });
    }

    fn run(&mut self) {
        while self.now < self.horizon {
            self.admit_arrivals();
            let next_change = self.next_arrival_after(self.now);
            if self.ready.is_empty() {
                // Nothing ready: idle to the next arrival (or horizon).
                self.emit(self.now, next_change, SliceKind::Idle);
                self.now = next_change;
            } else {
                self.run_job_until(next_change);
            }
        }
    }

    fn run_job_until(&mut self, next_change: SimTime) {
        let job = &mut self.ready[0];
        let budget = next_change - self.now;
        let slice_len = job.remaining.min(budget);
        let end = self.now + slice_len;
        let task = self.set.task_at_level(job.level).id();
        let kind = SliceKind::Periodic {
            task,
            job: job.job_index,
            level: job.level,
        };
        job.remaining -= slice_len;
        let finished = job.remaining.is_zero();
        let completion = JobCompletion {
            task,
            job: job.job_index,
            release: job.release,
            completion: end,
            deadline: job.deadline,
        };
        self.emit(self.now, end, kind);
        self.now = end;
        if finished {
            self.ready.remove(0);
            self.completions.push(completion);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::response_time;
    use crate::task::{PeriodicTask, TaskId};

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn t(id: TaskId, wcet_ms: u64, period_ms: u64) -> PeriodicTask {
        PeriodicTask::new(id, ms(wcet_ms), ms(period_ms), ms(period_ms))
    }

    #[test]
    fn single_task_runs_every_period() {
        let set = TaskSet::rate_monotonic(vec![t(1, 1, 4)]).unwrap();
        let tr = simulate(&set, SimTime::from_millis(12));
        tr.validate().unwrap();
        assert_eq!(tr.busy_time(), ms(3)); // 3 jobs of 1 ms, the only task
        assert_eq!(tr.completions().len(), 3);
        assert!(tr.completions().iter().all(|c| !c.missed_deadline()));
    }

    #[test]
    fn preemption_by_higher_priority() {
        // Low-priority 4 ms job is preempted by a 1 ms job at t = 4.
        let hi = t(1, 1, 4);
        let lo = t(2, 4, 12);
        let set = TaskSet::with_explicit_priorities(vec![hi, lo]).unwrap();
        let tr = simulate(&set, SimTime::from_millis(12));
        tr.validate().unwrap();
        // Timeline: hi [0,1), lo [1,4), hi [4,5), lo [5,6), ...
        let kinds: Vec<_> = tr
            .slices()
            .iter()
            .map(|s| (s.start.as_millis(), s.kind))
            .collect();
        assert_eq!(
            kinds[0].1,
            SliceKind::Periodic {
                task: 1,
                job: 0,
                level: 0
            }
        );
        assert_eq!(
            kinds[1].1,
            SliceKind::Periodic {
                task: 2,
                job: 0,
                level: 1
            }
        );
        // lo resumes after hi's second job.
        let lo_completion = tr.completions().iter().find(|c| c.task == 2).unwrap();
        assert_eq!(lo_completion.completion, SimTime::from_millis(6));
    }

    #[test]
    fn simulation_completions_match_rta_worst_case() {
        // With zero offsets, the first job experiences the critical
        // instant, so its response time equals the RTA bound.
        let set = TaskSet::rate_monotonic(vec![t(1, 1, 4), t(2, 2, 6), t(3, 3, 12)]).unwrap();
        let rta = response_time::analyze(&set).unwrap();
        let tr = simulate(&set, SimTime::from_millis(12));
        for task_id in [1, 2, 3] {
            let first = tr
                .completions()
                .iter()
                .find(|c| c.task == task_id && c.job == 0)
                .unwrap();
            let bound = rta.response_for(task_id).unwrap().wcrt.unwrap();
            assert_eq!(first.response_time(), bound, "task {task_id}");
        }
    }

    #[test]
    fn work_conservation() {
        let set = TaskSet::rate_monotonic(vec![t(1, 2, 5), t(2, 3, 10)]).unwrap();
        let tr = simulate(&set, SimTime::from_millis(10));
        // 2 jobs of 2 ms + 1 job of 3 ms = 7 ms busy.
        assert_eq!(tr.busy_time(), ms(7));
    }

    #[test]
    fn unfinished_jobs_produce_no_completion() {
        let set = TaskSet::rate_monotonic(vec![t(1, 3, 4)]).unwrap();
        // Horizon cuts the first job short.
        let tr = simulate(&set, SimTime::from_millis(2));
        assert!(tr.completions().is_empty());
        assert_eq!(tr.busy_time(), ms(2));
    }

    #[test]
    fn offsets_shift_releases() {
        let task = PeriodicTask::try_new(1, ms(1), ms(4), ms(4), ms(2)).unwrap();
        let set = TaskSet::with_explicit_priorities(vec![task]).unwrap();
        let tr = simulate(&set, SimTime::from_millis(8));
        assert_eq!(tr.slices()[0].kind, SliceKind::Idle);
        assert_eq!(tr.slices()[0].end, SimTime::from_millis(2));
        assert_eq!(tr.completions()[0].completion, SimTime::from_millis(3));
    }

    #[test]
    fn overload_misses_are_recorded_not_dropped() {
        // Utilization 1.25: the lower task must miss.
        let set = TaskSet::with_explicit_priorities(vec![t(1, 3, 4), t(2, 4, 8)]).unwrap();
        let tr = simulate(&set, SimTime::from_millis(32));
        assert!(tr.periodic_misses().count() > 0);
    }

    #[test]
    fn trace_has_no_gaps() {
        let set = TaskSet::rate_monotonic(vec![t(1, 1, 3), t(2, 1, 5)]).unwrap();
        let horizon = SimTime::from_millis(15);
        let tr = simulate(&set, horizon);
        let mut cursor = SimTime::ZERO;
        for s in tr.slices() {
            assert_eq!(s.start, cursor, "gap before slice at {}", s.start);
            cursor = s.end;
        }
        assert_eq!(cursor, horizon);
    }

    #[test]
    fn emit_drops_zero_length_slices() {
        let set = TaskSet::rate_monotonic(vec![t(1, 1, 4)]).unwrap();
        let mut sim = SimState::new(&set, SimTime::from_millis(8));
        // Zero-length and inverted intervals must leave no trace...
        sim.emit(
            SimTime::from_millis(2),
            SimTime::from_millis(2),
            SliceKind::Idle,
        );
        sim.emit(
            SimTime::from_millis(3),
            SimTime::from_millis(1),
            SliceKind::Idle,
        );
        assert!(sim.slices.is_empty());
        // ...including between two coalescible slices: the real pair still
        // merges across the dropped degenerate emit.
        sim.emit(SimTime::ZERO, SimTime::from_millis(1), SliceKind::Idle);
        sim.emit(
            SimTime::from_millis(1),
            SimTime::from_millis(1),
            SliceKind::Idle,
        );
        sim.emit(
            SimTime::from_millis(1),
            SimTime::from_millis(2),
            SliceKind::Idle,
        );
        assert_eq!(sim.slices.len(), 1);
        assert_eq!(sim.slices[0].start, SimTime::ZERO);
        assert_eq!(sim.slices[0].end, SimTime::from_millis(2));
    }

    #[test]
    fn emit_coalesces_only_adjacent_same_kind() {
        let set = TaskSet::rate_monotonic(vec![t(1, 1, 4)]).unwrap();
        let mut sim = SimState::new(&set, SimTime::from_millis(8));
        let periodic = SliceKind::Periodic {
            task: 1,
            job: 0,
            level: 0,
        };
        sim.emit(SimTime::ZERO, SimTime::from_millis(1), periodic);
        sim.emit(SimTime::from_millis(1), SimTime::from_millis(2), periodic);
        assert_eq!(sim.slices.len(), 1, "same kind, adjacent: coalesce");
        // Different kind at the boundary: new slice.
        sim.emit(
            SimTime::from_millis(2),
            SimTime::from_millis(3),
            SliceKind::Idle,
        );
        assert_eq!(sim.slices.len(), 2);
        // Same kind but not adjacent (gap): new slice.
        sim.emit(
            SimTime::from_millis(5),
            SimTime::from_millis(6),
            SliceKind::Idle,
        );
        assert_eq!(sim.slices.len(), 3);
    }
}
