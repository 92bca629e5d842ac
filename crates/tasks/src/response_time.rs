//! Worst-case response-time analysis (RTA) for fixed-priority preemptive
//! scheduling of constrained-deadline periodic tasks.
//!
//! The classic recurrence (Joseph & Pandya / Audsley et al.):
//!
//! ```text
//! R_i^(n+1) = C_i + Σ_{j ∈ hp(i)} ⌈ R_i^(n) / T_j ⌉ · C_j
//! ```
//!
//! iterated from `R_i^(0) = C_i` to a fixed point. Offsets are ignored
//! (critical-instant assumption), which is safe: the bound is an upper
//! bound for any offset assignment.

use event_sim::SimDuration;

use crate::task::TaskId;
use crate::taskset::TaskSet;

/// The per-task result of [`analyze`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskResponse {
    /// The analyzed task.
    pub id: TaskId,
    /// Worst-case response time, if the recurrence converged within the
    /// deadline horizon; `None` means the task is unschedulable (the
    /// response time exceeds its deadline).
    pub wcrt: Option<SimDuration>,
    /// The task's relative deadline, for convenience.
    pub deadline: SimDuration,
}

impl TaskResponse {
    /// `true` if this task provably meets its deadline.
    pub fn meets_deadline(&self) -> bool {
        matches!(self.wcrt, Some(r) if r <= self.deadline)
    }
}

/// The result of analyzing a whole set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Analysis {
    results: Vec<TaskResponse>,
}

impl Analysis {
    /// `true` if every task provably meets its deadline.
    pub fn schedulable(&self) -> bool {
        self.results.iter().all(TaskResponse::meets_deadline)
    }

    /// The response entry for a given task id.
    pub fn response_for(&self, id: TaskId) -> Option<&TaskResponse> {
        self.results.iter().find(|r| r.id == id)
    }
}

/// Errors from [`analyze`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisError {
    /// Total utilization is at least 1; the recurrence would diverge.
    Overloaded,
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::Overloaded => write!(f, "task set utilization is ≥ 1"),
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Runs exact RTA over the set.
///
/// # Errors
/// [`AnalysisError::Overloaded`] if total utilization is ≥ 1 (no fixed
/// point exists for the lowest-priority tasks).
pub fn analyze(set: &TaskSet) -> Result<Analysis, AnalysisError> {
    if set.utilization() >= 1.0 {
        return Err(AnalysisError::Overloaded);
    }
    let mut results = Vec::with_capacity(set.len());
    for (level, task) in set.iter().enumerate() {
        let mut r = task.wcet();
        let wcrt = loop {
            let mut next = task.wcet();
            for hp in set.tasks()[..level].iter() {
                let releases = r.as_nanos().div_ceil(hp.period().as_nanos());
                next += hp.wcet() * releases;
            }
            if next == r {
                break Some(r);
            }
            if next > task.deadline() {
                break None; // exceeded the deadline: unschedulable
            }
            r = next;
        };
        results.push(TaskResponse {
            id: task.id(),
            wcrt,
            deadline: task.deadline(),
        });
    }
    Ok(Analysis { results })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::PeriodicTask;

    fn t(id: TaskId, wcet_ms: u64, period_ms: u64) -> PeriodicTask {
        PeriodicTask::new(
            id,
            SimDuration::from_millis(wcet_ms),
            SimDuration::from_millis(period_ms),
            SimDuration::from_millis(period_ms),
        )
    }

    #[test]
    fn textbook_example() {
        // Classic example: C = (1, 2, 3), T = (4, 6, 12).
        // R1 = 1; R2 = 2 + ⌈R2/4⌉·1 → 3; R3 = 3 + ⌈R3/4⌉·1 + ⌈R3/6⌉·2 → ...
        let set = TaskSet::rate_monotonic(vec![t(1, 1, 4), t(2, 2, 6), t(3, 3, 12)]).unwrap();
        let a = analyze(&set).unwrap();
        assert!(a.schedulable());
        assert_eq!(
            a.response_for(1).unwrap().wcrt,
            Some(SimDuration::from_millis(1))
        );
        assert_eq!(
            a.response_for(2).unwrap().wcrt,
            Some(SimDuration::from_millis(3))
        );
        // R3: iterate: 3 → 3+1+2=6 → 3+2+2=7 → 3+2+4=9 → 3+3+4=10 → 3+3+4=10 ✓
        assert_eq!(
            a.response_for(3).unwrap().wcrt,
            Some(SimDuration::from_millis(10))
        );
    }

    #[test]
    fn detects_unschedulable_low_priority_task() {
        // Same execution demand as the textbook example (WCRT of the lowest
        // task is 10 ms) but with a 9 ms constrained deadline: infeasible.
        let tight = PeriodicTask::new(
            3,
            SimDuration::from_millis(3),
            SimDuration::from_millis(12),
            SimDuration::from_millis(9),
        );
        let set = TaskSet::with_explicit_priorities(vec![t(1, 1, 4), t(2, 2, 6), tight]).unwrap();
        let a = analyze(&set).unwrap();
        assert!(!a.schedulable());
        assert!(a.response_for(1).unwrap().meets_deadline());
        assert!(!a.response_for(3).unwrap().meets_deadline());
        assert_eq!(a.response_for(3).unwrap().wcrt, None);
    }

    #[test]
    fn overload_is_an_error() {
        let set = TaskSet::rate_monotonic(vec![t(1, 3, 4), t(2, 2, 6)]).unwrap();
        assert_eq!(analyze(&set).unwrap_err(), AnalysisError::Overloaded);
    }

    #[test]
    fn highest_priority_wcrt_is_its_wcet() {
        let set = TaskSet::rate_monotonic(vec![t(1, 2, 10), t(2, 3, 20)]).unwrap();
        let a = analyze(&set).unwrap();
        assert_eq!(
            a.response_for(1).unwrap().wcrt,
            Some(SimDuration::from_millis(2))
        );
    }
}
