//! Deadline hit/miss accounting.

use event_sim::SimTime;

/// Whether a message instance met its deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeadlineOutcome {
    /// Completed at or before its absolute deadline.
    Met,
    /// Completed after its absolute deadline, or never completed.
    Missed,
}

/// Counts met and missed deadlines.
///
/// The paper's *deadline miss ratio* (§IV-B.4) is "the number of
/// missing-deadline messages divided by the total number of the transmitted
/// messages".
///
/// ```
/// use metrics::{DeadlineTracker, DeadlineOutcome};
/// use event_sim::SimTime;
/// let mut t = DeadlineTracker::new();
/// t.record_completion(SimTime::from_millis(4), SimTime::from_millis(5));
/// t.record_completion(SimTime::from_millis(9), SimTime::from_millis(5));
/// t.record_lost();
/// assert_eq!(t.met(), 1);
/// assert_eq!(t.missed(), 2);
/// assert!((t.miss_ratio() - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeadlineTracker {
    met: u64,
    missed: u64,
}

impl DeadlineTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a completion at `finished` against an absolute `deadline`
    /// and returns the outcome. Completion exactly at the deadline counts
    /// as met.
    pub fn record_completion(&mut self, finished: SimTime, deadline: SimTime) -> DeadlineOutcome {
        if finished <= deadline {
            self.met += 1;
            DeadlineOutcome::Met
        } else {
            self.missed += 1;
            DeadlineOutcome::Missed
        }
    }

    /// Records a message that never completed (dropped / still pending at
    /// the end of the run); counts as a miss.
    pub fn record_lost(&mut self) {
        self.missed += 1;
    }

    /// Number of met deadlines.
    pub fn met(&self) -> u64 {
        self.met
    }

    /// Number of missed deadlines (including lost messages).
    pub fn missed(&self) -> u64 {
        self.missed
    }

    /// Total accounted messages.
    pub fn total(&self) -> u64 {
        self.met + self.missed
    }

    /// Miss ratio in `0.0 ..= 1.0`; `0.0` when nothing was recorded.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.missed as f64 / total as f64
        }
    }

    /// Adds the counts of another tracker.
    pub fn merge(&mut self, other: &DeadlineTracker) {
        self.met += other.met;
        self.missed += other.missed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_deadline_counts_as_met() {
        let mut t = DeadlineTracker::new();
        let out = t.record_completion(SimTime::from_millis(5), SimTime::from_millis(5));
        assert_eq!(out, DeadlineOutcome::Met);
        assert_eq!(t.met(), 1);
        assert_eq!(t.miss_ratio(), 0.0);
    }

    #[test]
    fn late_counts_as_missed() {
        let mut t = DeadlineTracker::new();
        let out = t.record_completion(SimTime::from_nanos(5_000_001), SimTime::from_millis(5));
        assert_eq!(out, DeadlineOutcome::Missed);
        assert_eq!(t.missed(), 1);
        assert_eq!(t.miss_ratio(), 1.0);
    }

    #[test]
    fn empty_tracker_ratio_is_zero() {
        assert_eq!(DeadlineTracker::new().miss_ratio(), 0.0);
    }

    #[test]
    fn merge_adds_counts() {
        let on_time = SimTime::from_millis(1);
        let mut a = DeadlineTracker::new();
        a.record_completion(on_time, on_time);
        let mut b = DeadlineTracker::new();
        b.record_lost();
        b.record_completion(on_time, on_time);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.missed(), 1);
    }
}
