//! Priority-ordered task sets.

use std::collections::HashSet;

use event_sim::SimDuration;

use crate::hyperperiod::hyperperiod;
use crate::task::{PeriodicTask, TaskError};

/// A set of periodic tasks ordered by fixed priority: index 0 is the
/// highest priority level, matching the paper's convention that "tasks with
/// smaller value of d_i are allocated higher priority" (§III-A.1).
///
/// Construction validates that ids are unique and the set is non-empty.
///
/// ```
/// use tasks::{PeriodicTask, TaskSet};
/// use event_sim::SimDuration;
/// let set = TaskSet::deadline_monotonic(vec![
///     PeriodicTask::new(10, SimDuration::from_micros(100), SimDuration::from_millis(8), SimDuration::from_millis(8)),
///     PeriodicTask::new(20, SimDuration::from_micros(100), SimDuration::from_millis(8), SimDuration::from_millis(1)),
/// ])?;
/// // The 1 ms-deadline task got the higher priority (level 0).
/// assert_eq!(set.task_at_level(0).id(), 20);
/// # Ok::<(), tasks::TaskError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSet {
    /// Tasks in priority order (index = priority level; 0 highest).
    tasks: Vec<PeriodicTask>,
}

impl TaskSet {
    /// Builds a set using **deadline-monotonic** priority assignment
    /// (shorter relative deadline → higher priority; ties broken by id for
    /// determinism). This is the paper's assignment rule.
    ///
    /// # Errors
    /// [`TaskError::EmptySet`] or [`TaskError::DuplicateId`].
    pub fn deadline_monotonic(mut tasks: Vec<PeriodicTask>) -> Result<Self, TaskError> {
        Self::validate(&tasks)?;
        tasks.sort_by_key(|t| (t.deadline(), t.id()));
        Ok(TaskSet { tasks })
    }

    /// Builds a set using **rate-monotonic** assignment (shorter period →
    /// higher priority; ties by id).
    ///
    /// # Errors
    /// [`TaskError::EmptySet`] or [`TaskError::DuplicateId`].
    pub fn rate_monotonic(mut tasks: Vec<PeriodicTask>) -> Result<Self, TaskError> {
        Self::validate(&tasks)?;
        tasks.sort_by_key(|t| (t.period(), t.id()));
        Ok(TaskSet { tasks })
    }

    /// Builds a set preserving the given order as the priority order
    /// (index 0 = highest).
    ///
    /// # Errors
    /// [`TaskError::EmptySet`] or [`TaskError::DuplicateId`].
    pub fn with_explicit_priorities(tasks: Vec<PeriodicTask>) -> Result<Self, TaskError> {
        Self::validate(&tasks)?;
        Ok(TaskSet { tasks })
    }

    fn validate(tasks: &[PeriodicTask]) -> Result<(), TaskError> {
        if tasks.is_empty() {
            return Err(TaskError::EmptySet);
        }
        let mut seen = HashSet::new();
        for t in tasks {
            if !seen.insert(t.id()) {
                return Err(TaskError::DuplicateId(t.id()));
            }
        }
        Ok(())
    }

    /// Number of priority levels (= number of tasks).
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Always `false` (construction rejects empty sets); provided for API
    /// completeness.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The task at priority level `level` (0 = highest).
    ///
    /// # Panics
    /// Panics if `level` is out of range.
    pub fn task_at_level(&self, level: usize) -> &PeriodicTask {
        &self.tasks[level]
    }

    /// Iterates tasks in priority order (highest first).
    pub fn iter(&self) -> std::slice::Iter<'_, PeriodicTask> {
        self.tasks.iter()
    }

    /// The tasks in priority order.
    pub fn tasks(&self) -> &[PeriodicTask] {
        &self.tasks
    }

    /// Total utilization `Σ C_i / T_i`.
    pub fn utilization(&self) -> f64 {
        self.tasks.iter().map(PeriodicTask::utilization).sum()
    }

    /// The hyperperiod (LCM of periods), or `None` on overflow.
    pub fn hyperperiod(&self) -> Option<SimDuration> {
        hyperperiod(&self.tasks)
    }
}

impl<'a> IntoIterator for &'a TaskSet {
    type Item = &'a PeriodicTask;
    type IntoIter = std::slice::Iter<'a, PeriodicTask>;
    fn into_iter(self) -> Self::IntoIter {
        self.tasks.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskId;

    fn t(id: TaskId, wcet_us: u64, period_ms: u64, deadline_ms: u64) -> PeriodicTask {
        PeriodicTask::new(
            id,
            SimDuration::from_micros(wcet_us),
            SimDuration::from_millis(period_ms),
            SimDuration::from_millis(deadline_ms),
        )
    }

    #[test]
    fn deadline_monotonic_orders_by_deadline() {
        let set = TaskSet::deadline_monotonic(vec![t(1, 10, 8, 8), t(2, 10, 8, 2), t(3, 10, 8, 4)])
            .unwrap();
        let order: Vec<TaskId> = set.iter().map(|x| x.id()).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn rate_monotonic_orders_by_period() {
        let set = TaskSet::rate_monotonic(vec![t(1, 10, 16, 16), t(2, 10, 8, 8)]).unwrap();
        assert_eq!(set.task_at_level(0).id(), 2);
    }

    #[test]
    fn ties_break_by_id_for_determinism() {
        let set = TaskSet::deadline_monotonic(vec![t(5, 10, 8, 8), t(3, 10, 8, 8)]).unwrap();
        assert_eq!(set.task_at_level(0).id(), 3);
    }

    #[test]
    fn duplicate_ids_rejected() {
        let err = TaskSet::deadline_monotonic(vec![t(1, 10, 8, 8), t(1, 10, 4, 4)]).unwrap_err();
        assert_eq!(err, TaskError::DuplicateId(1));
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(
            TaskSet::deadline_monotonic(vec![]).unwrap_err(),
            TaskError::EmptySet
        );
    }

    #[test]
    fn utilization_sums() {
        let set = TaskSet::deadline_monotonic(vec![t(1, 1000, 8, 8), t(2, 1000, 4, 4)]).unwrap();
        assert!((set.utilization() - (0.125 + 0.25)).abs() < 1e-12);
    }

    #[test]
    fn hyperperiod_ignores_offsets() {
        let a = PeriodicTask::try_new(
            1,
            SimDuration::from_micros(10),
            SimDuration::from_millis(8),
            SimDuration::from_millis(8),
            SimDuration::from_micros(280),
        )
        .unwrap();
        let b = t(2, 10, 1, 1);
        let set = TaskSet::deadline_monotonic(vec![a, b]).unwrap();
        assert_eq!(set.hyperperiod(), Some(SimDuration::from_millis(8)));
    }
}
