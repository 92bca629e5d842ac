//! Counters a schedule producer records while it runs.

/// Structured counters a schedule producer records while it runs.
///
/// The `coefficient` bus scheduler reports its steal and early-copy
/// decisions through this record, so the runner, the sweep JSON and the
/// golden corpus can explain *why* two schedules differ, not just *that*
/// they do. The invariant `steal_granted + steal_denied == steal_attempts`
/// holds for every producer by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScheduleCounters {
    /// Times a job resumed execution after being interrupted by
    /// higher-priority work (counted per resumption, not per interrupting
    /// job). Always zero for a non-preemptive bus.
    pub preemptions: u64,
    /// Times the scheduler consulted slack with slack-stealing work
    /// pending.
    pub steal_attempts: u64,
    /// Steal attempts where positive slack existed and the stolen work
    /// was served.
    pub steal_granted: u64,
    /// Steal attempts where no slack was usable and the work had to wait.
    pub steal_denied: u64,
    /// Proactive early copies sent.
    pub early_copies: u64,
    /// Soft jobs refused admission while the producer operated in a
    /// degraded (fault-storm) mode — mixed-criticality shedding. Always
    /// zero for producers without a degraded mode.
    pub degraded_sheds: u64,
}

impl ScheduleCounters {
    /// `true` iff every steal attempt was resolved one way or the other.
    pub fn steal_identity_holds(&self) -> bool {
        self.steal_granted + self.steal_denied == self.steal_attempts
    }
}
