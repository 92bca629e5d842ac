//! Message-instance bookkeeping.
//!
//! The runner tracks every produced message instance from production to
//! (first successful) delivery; all of the paper's metrics — latency,
//! deadline miss ratio, running time — fall out of this record.

use event_sim::{SimDuration, SimTime};
use flexray::schedule::MessageId;
use metrics::{DeadlineTracker, Summary};

/// Which paper traffic class an instance belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

    /// Number of delivered instances.
    pub fn delivered(&self) -> usize {
        self.instances.iter().filter(|i| i.is_delivered()).count()
    }

    /// All instances.
    pub fn instances(&self) -> &[InstanceStatus] {
        &self.instances
    }

    /// Completion instant of the last delivery, if any.
    pub fn last_delivery(&self) -> Option<SimTime> {
        self.instances.iter().filter_map(|i| i.delivered_at).max()
    }

    /// Latency summary over delivered instances of `class`.
    pub fn latency_summary(&self, class: MessageClass) -> Summary {
        let mut s = Summary::new();
        for i in &self.instances {
            if i.class == class {
                if let Some(l) = i.latency() {
                    s.record(l);
                }
            }
        }
        s
    }

    /// Deadline accounting over instances of `class`: delivered instances
    /// compare `delivered_at` to the deadline, undelivered count as lost.
    pub fn deadline_tracker(&self, class: MessageClass) -> DeadlineTracker {
        let mut t = DeadlineTracker::new();
        for i in &self.instances {
            if i.class != class {
                continue;
            }
            match i.delivered_at {
                Some(d) => {
                    t.record_completion(d, i.deadline);
                }
                None => t.record_lost(),
            }
        }
        t
    }

    /// Combined deadline accounting over both classes.
    pub fn deadline_tracker_all(&self) -> DeadlineTracker {
        let mut t = self.deadline_tracker(MessageClass::Static);
        t.merge(&self.deadline_tracker(MessageClass::Dynamic));
        t
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
        assert_eq!(tr.last_delivery(), Some(t(2)));
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
        assert_eq!(tr.deadline_tracker_all().total(), 3);
    }

    proptest! {
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
