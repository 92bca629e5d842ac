//! Execution traces of simulated schedules.

use std::collections::HashMap;
use std::fmt;

use event_sim::{SimDuration, SimTime};

use crate::task::TaskId;

/// What the processor was doing during a slice of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SliceKind {
    /// Executing job `job` (0-based) of the periodic task at priority
    /// `level`, with the task's caller-chosen id `task`.
    Periodic {
        /// Task id.
        task: TaskId,
        /// 0-based job index.
        job: u64,
        /// Priority level in the owning [`crate::TaskSet`] (0 = highest).
        level: usize,
    },
    /// Nothing to execute.
    Idle,
}

/// A half-open interval `[start, end)` of uniform activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slice {
    /// Inclusive start.
    pub start: SimTime,
    /// Exclusive end.
    pub end: SimTime,
    /// Activity during the interval.
    pub kind: SliceKind,
}

impl Slice {
    /// Length of the slice.
    pub fn len(&self) -> SimDuration {
        self.end - self.start
    }

    /// `true` if the slice is degenerate (zero length).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A completed periodic job with its timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobCompletion {
    /// Id of the job's task.
    pub task: TaskId,
    /// 0-based job index.
    pub job: u64,
    /// When it was released.
    pub release: SimTime,
    /// When its last unit of work finished.
    pub completion: SimTime,
    /// Its absolute deadline.
    pub deadline: SimTime,
}

impl JobCompletion {
    /// Response time (completion − release).
    pub fn response_time(&self) -> SimDuration {
        self.completion - self.release
    }

    /// `true` if the job finished after its deadline.
    pub fn missed_deadline(&self) -> bool {
        self.completion > self.deadline
    }
}

/// Structural defects [`ExecutionTrace::validate`] can detect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceError {
    /// A slice has `end ≤ start`.
    EmptySlice(usize),
    /// Slice `i` overlaps or precedes slice `i − 1`.
    OutOfOrder(usize),
    /// A slice extends beyond the trace horizon.
    BeyondHorizon(usize),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::EmptySlice(i) => write!(f, "slice {i} is empty or inverted"),
            TraceError::OutOfOrder(i) => write!(f, "slice {i} overlaps its predecessor"),
            TraceError::BeyondHorizon(i) => write!(f, "slice {i} extends beyond the horizon"),
        }
    }
}

impl std::error::Error for TraceError {}

/// The complete record of a simulated schedule over `[0, horizon)`.
///
/// Invariants (checked by [`validate`](Self::validate), and by
/// construction in [`crate::simulate`]): slices are non-empty,
/// non-overlapping, sorted by start time, and contained in the horizon.
/// Gaps between slices are implicit idle time only if the producer chose
/// not to emit idle slices; [`crate::simulate`] always emits explicit
/// idle slices, so its traces have no gaps.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionTrace {
    slices: Vec<Slice>,
    completions: Vec<JobCompletion>,
    /// Index into `completions` of each `(task, job)`'s first record.
    by_job: HashMap<(TaskId, u64), usize>,
    horizon: SimTime,
}

impl ExecutionTrace {
    /// Assembles a trace; intended for schedule producers.
    pub fn new(slices: Vec<Slice>, completions: Vec<JobCompletion>, horizon: SimTime) -> Self {
        let mut by_job = HashMap::with_capacity(completions.len());
        for (i, c) in completions.iter().enumerate() {
            by_job.entry((c.task, c.job)).or_insert(i);
        }
        ExecutionTrace {
            slices,
            completions,
            by_job,
            horizon,
        }
    }

    /// The recorded slices in time order.
    pub fn slices(&self) -> &[Slice] {
        &self.slices
    }

    /// All recorded job completions, in completion order.
    pub fn completions(&self) -> &[JobCompletion] {
        &self.completions
    }

    /// The end of the observation window.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// The completion record of job `job` of periodic task `task`, if the
    /// job finished inside the observation window. End-to-end pipelines
    /// (sensor task → bus → actuator task) use this to read one job's
    /// completion instant out of a simulated schedule, one hash lookup
    /// per job.
    pub fn completion_of_job(&self, task: TaskId, job: u64) -> Option<&JobCompletion> {
        let &i = self.by_job.get(&(task, job))?;
        Some(&self.completions[i])
    }

    /// Checks the structural invariants.
    ///
    /// # Errors
    /// The first defect found, as a [`TraceError`].
    pub fn validate(&self) -> Result<(), TraceError> {
        let mut prev_end = SimTime::ZERO;
        for (i, s) in self.slices.iter().enumerate() {
            if s.end <= s.start {
                return Err(TraceError::EmptySlice(i));
            }
            if s.start < prev_end {
                return Err(TraceError::OutOfOrder(i));
            }
            if s.end > self.horizon {
                return Err(TraceError::BeyondHorizon(i));
            }
            prev_end = s.end;
        }
        Ok(())
    }

    /// Total time spent executing any job.
    pub fn busy_time(&self) -> SimDuration {
        self.slices
            .iter()
            .filter(|s| !matches!(s.kind, SliceKind::Idle))
            .map(Slice::len)
            .fold(SimDuration::ZERO, |a, b| a + b)
    }

    /// Total time spent executing a specific periodic task.
    pub fn task_time(&self, task: TaskId) -> SimDuration {
        self.slices
            .iter()
            .filter(|s| matches!(s.kind, SliceKind::Periodic { task: t, .. } if t == task))
            .map(Slice::len)
            .fold(SimDuration::ZERO, |a, b| a + b)
    }

    /// The completions of jobs that missed their deadline.
    pub fn periodic_misses(&self) -> impl Iterator<Item = &JobCompletion> {
        self.completions.iter().filter(|c| c.missed_deadline())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn slice(start_ms: u64, end_ms: u64, kind: SliceKind) -> Slice {
        Slice {
            start: t(start_ms),
            end: t(end_ms),
            kind,
        }
    }

    fn periodic(level: usize) -> SliceKind {
        SliceKind::Periodic {
            task: level as TaskId,
            job: 0,
            level,
        }
    }

    #[test]
    fn validate_accepts_well_formed() {
        let tr = ExecutionTrace::new(
            vec![
                slice(0, 2, periodic(0)),
                slice(2, 3, SliceKind::Idle),
                slice(5, 6, periodic(1)),
            ],
            vec![],
            t(10),
        );
        assert!(tr.validate().is_ok());
    }

    #[test]
    fn validate_rejects_defects() {
        let empty = ExecutionTrace::new(vec![slice(2, 2, SliceKind::Idle)], vec![], t(10));
        assert_eq!(empty.validate(), Err(TraceError::EmptySlice(0)));

        let overlap = ExecutionTrace::new(
            vec![slice(0, 3, periodic(0)), slice(2, 4, periodic(1))],
            vec![],
            t(10),
        );
        assert_eq!(overlap.validate(), Err(TraceError::OutOfOrder(1)));

        let beyond = ExecutionTrace::new(vec![slice(8, 12, SliceKind::Idle)], vec![], t(10));
        assert_eq!(beyond.validate(), Err(TraceError::BeyondHorizon(0)));
    }

    #[test]
    fn busy_and_task_times() {
        let tr = ExecutionTrace::new(
            vec![
                slice(0, 2, periodic(0)),
                slice(2, 3, periodic(1)),
                slice(3, 5, SliceKind::Idle),
                slice(5, 6, periodic(0)),
            ],
            vec![],
            t(6),
        );
        assert_eq!(tr.busy_time(), SimDuration::from_millis(4));
        assert_eq!(tr.task_time(0), SimDuration::from_millis(3));
        assert_eq!(tr.task_time(1), SimDuration::from_millis(1));
    }

    #[test]
    fn completion_of_job_finds_each_recorded_job_and_no_other() {
        let done = |task, job, ms| JobCompletion {
            task,
            job,
            release: t(0),
            completion: t(ms),
            deadline: t(10),
        };
        let completions = vec![done(1, 0, 1), done(2, 0, 2), done(1, 1, 3), done(1, 1, 4)];
        let tr = ExecutionTrace::new(vec![], completions.clone(), t(10));
        assert_eq!(tr.completion_of_job(1, 0), Some(&completions[0]));
        assert_eq!(tr.completion_of_job(2, 0), Some(&completions[1]));
        // The first record of a job wins, as a scan in completion order would.
        assert_eq!(tr.completion_of_job(1, 1), Some(&completions[2]));
        assert_eq!(tr.completion_of_job(2, 1), None);
        assert_eq!(tr.completion_of_job(3, 0), None);
        assert_eq!(tr.completions(), &completions[..]);
    }

    #[test]
    fn completion_helpers() {
        let late = JobCompletion {
            task: 1,
            job: 0,
            release: t(0),
            completion: t(5),
            deadline: t(4),
        };
        assert_eq!(late.response_time(), SimDuration::from_millis(5));
        assert!(late.missed_deadline());
        let on_time = JobCompletion {
            completion: t(4),
            ..late
        };
        assert!(!on_time.missed_deadline());
    }
}
