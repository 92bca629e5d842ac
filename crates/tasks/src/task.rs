//! Periodic task model.

use std::fmt;

use event_sim::{SimDuration, SimTime};

/// Identifier of a task within a [`crate::TaskSet`] (caller-chosen; stable
/// across priority assignment).
pub type TaskId = u32;

/// Errors validating task parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskError {
    /// Worst-case execution time is zero.
    ZeroWcet,
    /// Period is zero.
    ZeroPeriod,
    /// Deadline is zero.
    ZeroDeadline,
    /// Deadline exceeds the period (only constrained deadlines are
    /// supported, as in the paper: `d_i ≤ T_i`).
    DeadlineExceedsPeriod,
    /// Offset is not smaller than the period (`0 ≤ φ_i < T_i`).
    OffsetNotBelowPeriod,
    /// WCET exceeds the deadline — the task can never finish in time.
    WcetExceedsDeadline,
    /// Two tasks in a set share the same id.
    DuplicateId(TaskId),
    /// The set is empty.
    EmptySet,
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskError::ZeroWcet => write!(f, "worst-case execution time must be positive"),
            TaskError::ZeroPeriod => write!(f, "period must be positive"),
            TaskError::ZeroDeadline => write!(f, "deadline must be positive"),
            TaskError::DeadlineExceedsPeriod => {
                write!(
                    f,
                    "deadline must not exceed the period (constrained deadlines)"
                )
            }
            TaskError::OffsetNotBelowPeriod => write!(f, "offset must be smaller than the period"),
            TaskError::WcetExceedsDeadline => {
                write!(f, "worst-case execution time exceeds the deadline")
            }
            TaskError::DuplicateId(id) => write!(f, "duplicate task id {id}"),
            TaskError::EmptySet => write!(f, "task set must not be empty"),
        }
    }
}

impl std::error::Error for TaskError {}

/// A hard-deadline periodic task `τ_i = (C_i, T_i, φ_i, d_i)` (§III-A.1).
///
/// The `k`-th job releases at `φ_i + (k−1)·T_i`, requires up to `C_i` of
/// processing and must complete by its release plus `d_i`, with
/// `d_i ≤ T_i`.
///
/// ```
/// use tasks::PeriodicTask;
/// use event_sim::{SimDuration, SimTime};
/// let t = PeriodicTask::new(7, SimDuration::from_micros(400),
///     SimDuration::from_millis(8), SimDuration::from_millis(8));
/// assert_eq!(t.release_of_job(0), SimTime::ZERO);
/// assert_eq!(t.release_of_job(2), SimTime::from_millis(16));
/// assert_eq!(t.deadline_of_job(2), SimTime::from_millis(24));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PeriodicTask {
    id: TaskId,
    wcet: SimDuration,
    period: SimDuration,
    deadline: SimDuration,
    offset: SimDuration,
}

impl PeriodicTask {
    /// Creates a task with zero offset.
    ///
    /// # Panics
    /// Panics if the parameters are invalid; use [`PeriodicTask::try_new`]
    /// for fallible construction.
    pub fn new(id: TaskId, wcet: SimDuration, period: SimDuration, deadline: SimDuration) -> Self {
        Self::try_new(id, wcet, period, deadline, SimDuration::ZERO)
            .expect("invalid periodic task parameters")
    }

    /// Creates a task with an explicit offset `0 ≤ φ < T`.
    ///
    /// # Errors
    /// Returns a [`TaskError`] describing the first violated constraint.
    pub fn try_new(
        id: TaskId,
        wcet: SimDuration,
        period: SimDuration,
        deadline: SimDuration,
        offset: SimDuration,
    ) -> Result<Self, TaskError> {
        if wcet.is_zero() {
            return Err(TaskError::ZeroWcet);
        }
        if period.is_zero() {
            return Err(TaskError::ZeroPeriod);
        }
        if deadline.is_zero() {
            return Err(TaskError::ZeroDeadline);
        }
        if deadline > period {
            return Err(TaskError::DeadlineExceedsPeriod);
        }
        if offset >= period {
            return Err(TaskError::OffsetNotBelowPeriod);
        }
        if wcet > deadline {
            return Err(TaskError::WcetExceedsDeadline);
        }
        Ok(PeriodicTask {
            id,
            wcet,
            period,
            deadline,
            offset,
        })
    }

    /// The caller-chosen identifier.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// Worst-case computation requirement `C_i`.
    pub fn wcet(&self) -> SimDuration {
        self.wcet
    }

    /// Period `T_i`.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// Relative hard deadline `d_i`.
    pub fn deadline(&self) -> SimDuration {
        self.deadline
    }

    /// Release offset `φ_i`.
    pub fn offset(&self) -> SimDuration {
        self.offset
    }

    /// Utilization `C_i / T_i`.
    pub fn utilization(&self) -> f64 {
        self.wcet.as_nanos() as f64 / self.period.as_nanos() as f64
    }

    /// Release instant of job `k` (0-based): `φ_i + k·T_i`.
    pub fn release_of_job(&self, k: u64) -> SimTime {
        SimTime::ZERO + self.offset + self.period * k
    }

    /// Absolute deadline of job `k` (0-based).
    pub fn deadline_of_job(&self, k: u64) -> SimTime {
        self.release_of_job(k) + self.deadline
    }

    /// Index of the first job released at or after `t`.
    pub fn first_job_at_or_after(&self, t: SimTime) -> u64 {
        let t = t.as_nanos();
        let phi = self.offset.as_nanos();
        if t <= phi {
            0
        } else {
            (t - phi).div_ceil(self.period.as_nanos())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn validation_catches_each_violation() {
        use TaskError::*;
        assert_eq!(
            PeriodicTask::try_new(0, SimDuration::ZERO, ms(4), ms(4), SimDuration::ZERO),
            Err(ZeroWcet)
        );
        assert_eq!(
            PeriodicTask::try_new(0, ms(1), SimDuration::ZERO, ms(4), SimDuration::ZERO),
            Err(ZeroPeriod)
        );
        assert_eq!(
            PeriodicTask::try_new(0, ms(1), ms(4), SimDuration::ZERO, SimDuration::ZERO),
            Err(ZeroDeadline)
        );
        assert_eq!(
            PeriodicTask::try_new(0, ms(1), ms(4), ms(5), SimDuration::ZERO),
            Err(DeadlineExceedsPeriod)
        );
        assert_eq!(
            PeriodicTask::try_new(0, ms(1), ms(4), ms(4), ms(4)),
            Err(OffsetNotBelowPeriod)
        );
        assert_eq!(
            PeriodicTask::try_new(0, ms(3), ms(4), ms(2), SimDuration::ZERO),
            Err(WcetExceedsDeadline)
        );
        assert!(PeriodicTask::try_new(0, ms(1), ms(4), ms(4), ms(3)).is_ok());
    }

    #[test]
    fn job_releases_and_deadlines() {
        let t = PeriodicTask::try_new(1, ms(1), ms(10), ms(6), ms(2)).unwrap();
        assert_eq!(t.release_of_job(0), SimTime::from_millis(2));
        assert_eq!(t.release_of_job(3), SimTime::from_millis(32));
        assert_eq!(t.deadline_of_job(0), SimTime::from_millis(8));
        assert_eq!(t.utilization(), 0.1);
    }

    #[test]
    fn first_job_at_or_after_boundaries() {
        let t = PeriodicTask::try_new(1, ms(1), ms(10), ms(10), ms(2)).unwrap();
        assert_eq!(t.first_job_at_or_after(SimTime::ZERO), 0);
        assert_eq!(t.first_job_at_or_after(SimTime::from_millis(2)), 0);
        assert_eq!(t.first_job_at_or_after(SimTime::from_nanos(2_000_001)), 1);
        assert_eq!(t.first_job_at_or_after(SimTime::from_millis(12)), 1);
        assert_eq!(t.first_job_at_or_after(SimTime::from_millis(13)), 2);
    }

    #[test]
    fn display_of_errors() {
        assert!(TaskError::DuplicateId(3).to_string().contains('3'));
        assert!(!TaskError::EmptySet.to_string().is_empty());
    }
}
