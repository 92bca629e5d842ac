//! Message-instance bookkeeping.
//!
//! The runner tracks every produced message instance from production to
//! (first successful) delivery; all of the paper's metrics — latency,
//! deadline miss ratio, running time — fall out of this record.

use event_sim::{SimDuration, SimTime};
use flexray::schedule::MessageId;
use metrics::{DeadlineTracker, Summary};

/// Which paper traffic class an instance belongs to. `Static` sorts
/// first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MessageClass {
    /// Time-triggered, static segment (hard periodic task).
    Static,
    /// Event-triggered, dynamic segment (soft aperiodic task).
    Dynamic,
}

/// Index of an instance within the tracker.
pub type InstanceId = usize;

/// The life record of one message instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceStatus {
    /// The message this is an instance of.
    pub message: MessageId,
    /// Traffic class.
    pub class: MessageClass,
    /// Production instant.
    pub produced_at: SimTime,
    /// Absolute deadline.
    pub deadline: SimTime,
    /// Completion instant of the first *uncorrupted* transmission.
    pub delivered_at: Option<SimTime>,
    /// Transmissions attempted (primary + copies, all channels).
    pub transmissions: u32,
    /// Of those, how many fault injection corrupted.
    pub corrupted: u32,
    /// Opportunistic early copies already spent on this instance.
    pub early_copies: u32,
}

impl InstanceStatus {
    /// Latency if delivered.
    pub fn latency(&self) -> Option<SimDuration> {
        self.delivered_at
            .map(|d| d.saturating_duration_since(self.produced_at))
    }

    /// `true` once the first uncorrupted copy completed.
    pub fn is_delivered(&self) -> bool {
        self.delivered_at.is_some()
    }
}

/// What a run report reads off the instance log, per class
/// (`[static, dynamic]`, indexed by `class as usize`), from one pass.
#[derive(Debug, Clone, Default)]
pub struct LogSummary {
    /// Latency of delivered instances.
    pub latency: [Summary; 2],
    /// Deadline accounting: delivered instances compare `delivered_at`
    /// to the deadline, undelivered ones count as lost.
    pub deadlines: [DeadlineTracker; 2],
    /// Instances delivered (≥ 1 uncorrupted transmission), both classes.
    pub delivered: usize,
}

/// Tracks all instances of a run.
#[derive(Debug, Default)]
pub struct InstanceTracker {
    instances: Vec<InstanceStatus>,
    /// Running count of instances delivered within their deadline.
    delivered_in_time: u64,
    /// Running count of instances that were corrupted at least once and
    /// delivered (in either order).
    faults_recovered: u64,
}

impl InstanceTracker {
    /// Empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-reserves room for `instances` further productions so the
    /// steady-state production path never reallocates the instance store.
    pub fn reserve(&mut self, instances: usize) {
        self.instances.reserve(instances);
    }

    /// Instances the store holds before it must grow.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.instances.capacity()
    }

    /// Registers a newly produced instance.
    pub fn produce(
        &mut self,
        message: MessageId,
        class: MessageClass,
        produced_at: SimTime,
        deadline: SimTime,
    ) -> InstanceId {
        let id = self.instances.len();
        self.instances.push(InstanceStatus {
            message,
            class,
            produced_at,
            deadline,
            delivered_at: None,
            transmissions: 0,
            corrupted: 0,
            early_copies: 0,
        });
        id
    }

    /// Immutable access to an instance.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn get(&self, id: InstanceId) -> &InstanceStatus {
        &self.instances[id]
    }

    /// Mutable access to an instance.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn get_mut(&mut self, id: InstanceId) -> &mut InstanceStatus {
        &mut self.instances[id]
    }

    /// Records a transmission of `id` finishing at `end`; an uncorrupted
    /// transmission delivers the instance if nothing did earlier.
    pub fn record_transmission(&mut self, id: InstanceId, end: SimTime, corrupted: bool) {
        let inst = &mut self.instances[id];
        let was_recovered = inst.corrupted > 0 && inst.is_delivered();
        inst.transmissions += 1;
        if corrupted {
            inst.corrupted += 1;
        } else if inst.delivered_at.is_none() {
            inst.delivered_at = Some(end);
            if end <= inst.deadline {
                self.delivered_in_time += 1;
            }
        }
        if !was_recovered && inst.corrupted > 0 && inst.is_delivered() {
            self.faults_recovered += 1;
        }
    }

    /// Number of instances delivered at or before their deadline — the
    /// paper's notion of a *successful* transmission (§III-E).
    pub fn delivered_in_time(&self) -> u64 {
        self.delivered_in_time
    }

    /// Number of instances with at least one corrupted transmission that
    /// were delivered anyway — by a clean copy after the corruption, or
    /// before it.
    pub fn faults_recovered(&self) -> u64 {
        self.faults_recovered
    }

    /// Number of produced instances.
    pub fn produced(&self) -> usize {
        self.instances.len()
    }

    /// Number of delivered instances (a view of [`summary`](Self::summary)).
    pub fn delivered(&self) -> usize {
        self.summary().delivered
    }

    /// All instances.
    pub fn instances(&self) -> &[InstanceStatus] {
        &self.instances
    }

    /// Both classes' latency summaries and deadline trackers and the
    /// delivered count, from one pass over the log in instance order, so
    /// each class's Welford summary sees its latencies in production order.
    pub fn summary(&self) -> LogSummary {
        let mut s = LogSummary::default();
        for i in &self.instances {
            let k = i.class as usize;
            match i.delivered_at {
                Some(d) => {
                    s.latency[k].record(d.saturating_duration_since(i.produced_at));
                    s.deadlines[k].record_completion(d, i.deadline);
                    s.delivered += 1;
                }
                None => s.deadlines[k].record_lost(),
            }
        }
        s
    }

    /// Latency summary over delivered instances of `class` (a view of
    /// [`summary`](Self::summary)).
    pub fn latency_summary(&self, class: MessageClass) -> Summary {
        self.summary().latency[class as usize].clone()
    }

    /// Deadline accounting over instances of `class` (a view of
    /// [`summary`](Self::summary)).
    pub fn deadline_tracker(&self, class: MessageClass) -> DeadlineTracker {
        self.summary().deadlines[class as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn produce_and_deliver() {
        let mut tr = InstanceTracker::new();
        let a = tr.produce(1, MessageClass::Static, t(0), t(8));
        tr.record_transmission(a, t(2), false);
        assert!(tr.get(a).is_delivered());
        assert_eq!(tr.get(a).latency(), Some(SimDuration::from_millis(2)));
        assert_eq!(tr.delivered(), 1);
    }

    #[test]
    fn corrupted_transmission_does_not_deliver() {
        let mut tr = InstanceTracker::new();
        let a = tr.produce(1, MessageClass::Static, t(0), t(8));
        tr.record_transmission(a, t(2), true);
        assert!(!tr.get(a).is_delivered());
        assert_eq!(tr.get(a).corrupted, 1);
        // A later clean copy delivers.
        tr.record_transmission(a, t(3), false);
        assert_eq!(tr.get(a).delivered_at, Some(t(3)));
        // Further copies don't move the delivery time.
        tr.record_transmission(a, t(4), false);
        assert_eq!(tr.get(a).delivered_at, Some(t(3)));
        assert_eq!(tr.get(a).transmissions, 3);
    }

    #[test]
    fn each_production_is_a_new_instance() {
        let mut tr = InstanceTracker::new();
        let a = tr.produce(1, MessageClass::Static, t(0), t(8));
        let b = tr.produce(1, MessageClass::Static, t(8), t(16));
        assert_ne!(a, b);
        assert_eq!(tr.produced(), 2);
    }

    #[test]
    fn class_summaries_are_separate() {
        let mut tr = InstanceTracker::new();
        let s = tr.produce(1, MessageClass::Static, t(0), t(8));
        let d = tr.produce(90, MessageClass::Dynamic, t(0), t(50));
        tr.record_transmission(s, t(1), false);
        tr.record_transmission(d, t(30), false);
        assert_eq!(tr.latency_summary(MessageClass::Static).count(), 1);
        assert_eq!(tr.latency_summary(MessageClass::Dynamic).count(), 1);
        assert_eq!(
            tr.latency_summary(MessageClass::Dynamic).mean().unwrap(),
            SimDuration::from_millis(30)
        );
    }

    #[test]
    fn deadline_tracking() {
        let mut tr = InstanceTracker::new();
        let a = tr.produce(1, MessageClass::Static, t(0), t(8));
        let b = tr.produce(2, MessageClass::Static, t(0), t(8));
        let _lost = tr.produce(3, MessageClass::Static, t(0), t(8));
        tr.record_transmission(a, t(5), false); // met
        tr.record_transmission(b, t(9), false); // missed
        let dt = tr.deadline_tracker(MessageClass::Static);
        assert_eq!(dt.met(), 1);
        assert_eq!(dt.missed(), 2); // late + lost
        assert_eq!(tr.deadline_tracker(MessageClass::Dynamic).total(), 0);
    }

    /// The per-class scan `latency_summary` ran before the one-pass
    /// summary, kept as its oracle.
    fn scan_latency(tr: &InstanceTracker, class: MessageClass) -> Summary {
        let mut s = Summary::new();
        for i in tr.instances().iter().filter(|i| i.class == class) {
            if let Some(l) = i.latency() {
                s.record(l);
            }
        }
        s
    }

    /// The per-class scan `deadline_tracker` ran, likewise.
    fn scan_deadlines(tr: &InstanceTracker, class: MessageClass) -> DeadlineTracker {
        let mut t = DeadlineTracker::new();
        for i in tr.instances().iter().filter(|i| i.class == class) {
            match i.delivered_at {
                Some(d) => {
                    t.record_completion(d, i.deadline);
                }
                None => t.record_lost(),
            }
        }
        t
    }

    proptest! {
        /// The one-pass summary is the per-class scans' result on random
        /// logs of both classes (delivered on time or late, corrupted and
        /// lost): counts, extremes and totals, Welford's mean and sum of
        /// squares by `f64::to_bits`, the deadline counts and the
        /// delivered count.
        #[test]
        fn one_pass_summary_matches_the_per_class_scans(
            log in proptest::collection::vec(
                (0u8..2, 0u64..1_000_000_000, 0u64..100_000_000, 0u8..4),
                0..200,
            ),
        ) {
            let mut tr = InstanceTracker::new();
            for (i, &(class, produced, latency, fate)) in log.iter().enumerate() {
                let class = [MessageClass::Static, MessageClass::Dynamic][usize::from(class)];
                let produced = SimTime::from_nanos(produced);
                let deadline = produced + SimDuration::from_millis(50);
                let id = tr.produce(i as MessageId, class, produced, deadline);
                // 0: never sent; 1: corrupted only; 2: delivered; 3: a
                // corrupted frame, then a clean one.
                if fate % 2 == 1 {
                    tr.record_transmission(id, produced, true);
                }
                if fate >= 2 {
                    tr.record_transmission(id, produced + SimDuration::from_nanos(latency), false);
                }
            }
            let one = tr.summary();
            for class in [MessageClass::Static, MessageClass::Dynamic] {
                let k = class as usize;
                let scan = scan_latency(&tr, class);
                prop_assert_eq!(&one.latency[k], &scan);
                prop_assert_eq!(
                    one.latency[k].std_dev_nanos().map(f64::to_bits),
                    scan.std_dev_nanos().map(f64::to_bits)
                );
                prop_assert_eq!(one.deadlines[k], scan_deadlines(&tr, class));
                prop_assert_eq!(&tr.latency_summary(class), &scan);
                prop_assert_eq!(tr.deadline_tracker(class), one.deadlines[k]);
            }
            let delivered = tr.instances().iter().filter(|i| i.is_delivered()).count();
            prop_assert_eq!(one.delivered, delivered);
            prop_assert_eq!(tr.delivered(), delivered);
        }

        /// The running `faults_recovered` equals a full recount over the
        /// record, whatever the order of clean and corrupted transmissions
        /// (corruptions after delivery included).
        #[test]
        fn running_faults_recovered_matches_the_recount(
            instances in 1usize..6,
            transmissions in proptest::collection::vec((0usize..6, 0u64..20, 0u8..2), 0..40),
        ) {
            let mut tr = InstanceTracker::new();
            for i in 0..instances {
                tr.produce(i as MessageId, MessageClass::Static, t(0), t(10));
            }
            for (id, end, corrupted) in transmissions {
                tr.record_transmission(id % instances, t(end), corrupted == 1);
                let recount = tr
                    .instances()
                    .iter()
                    .filter(|i| i.corrupted > 0 && i.is_delivered())
                    .count() as u64;
                prop_assert_eq!(tr.faults_recovered(), recount);
            }
        }
    }
}
