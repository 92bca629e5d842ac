//! Streaming, mergeable fleet aggregation.
//!
//! A fleet run never holds per-vehicle results: each completed vehicle
//! run is folded into a [`FleetAggregate`] immediately and dropped, so
//! memory is O(workers × buckets), never O(vehicles). Every field is an
//! integer counter or a [`LogHistogram`] — there is **no floating-point
//! accumulation** — so [`merge`](FleetAggregate::merge) is exactly
//! commutative and associative, and the fleet
//! [`digest`](FleetAggregate::digest) is invariant to how vehicles were sharded
//! across workers. That invariance is what lets CI `cmp` the reports of
//! `--threads 1/2/8` byte for byte.

use coefficient::{PolicyRef, RunReport};
use event_sim::rng::Digest;
use metrics::LogHistogram;

use crate::env::{Condition, CONDITIONS};

/// Parts-per-billion scale of the deadline-miss histogram: a per-vehicle
/// miss ratio `missed/total` is recorded as `missed * 1e9 / total`
/// (exact integer division via `u128`), so p99.999 fleet quantiles of
/// ratios as small as 10⁻⁹ stay resolvable in integer buckets.
pub const PPB: u64 = 1_000_000_000;

/// Mergeable per-policy aggregate of vehicle outcomes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PolicyAggregate {
    /// Vehicles whose run completed under this policy.
    pub vehicles: u64,
    /// Vehicles whose message set the policy could not schedule (no run
    /// was performed; they appear in no other counter).
    pub unschedulable: u64,
    /// Completed runs that hit the safety cycle cap before draining.
    pub truncated: u64,
    /// Vehicles per channel condition (indexed like
    /// [`CONDITIONS`]).
    pub by_condition: [u64; 3],
    /// Total instances produced across vehicles.
    pub produced: u64,
    /// Total instances delivered across vehicles.
    pub delivered: u64,
    /// Total frames transmitted across vehicles.
    pub frames: u64,
    /// Total frames corrupted by fault injection.
    pub corrupted: u64,
    /// Total deadlines met (both message classes).
    pub deadlines_met: u64,
    /// Total deadlines missed (both message classes).
    pub deadlines_missed: u64,
    /// Per-vehicle deadline-miss ratio in parts per billion (see [`PPB`]).
    pub miss_ppb: LogHistogram,
    /// Per-vehicle worst delivered-instance latency, nanoseconds — the
    /// recovery-latency proxy: how long the slowest instance (typically
    /// one that needed retransmissions to mask faults) took to get
    /// through.
    pub recovery_ns: LogHistogram,
    /// Per-vehicle mean delivered-instance latency, nanoseconds.
    pub latency_ns: LogHistogram,
    /// Commutative fold (wrapping sum) of per-vehicle contribution
    /// digests — each hashes `(vehicle, fingerprint)`, so the fold
    /// detects a vehicle simulated differently *or* attributed to the
    /// wrong index, while staying order-independent.
    digest_acc: u64,
}

impl PolicyAggregate {
    /// Folds one completed vehicle run in. Allocation-free: every path is
    /// integer arithmetic plus fixed-bucket histogram increments (the
    /// `alloc_free` test pins this).
    pub fn record(&mut self, vehicle: u64, condition: Condition, report: &RunReport) {
        self.vehicles += 1;
        self.truncated += u64::from(report.truncated);
        self.by_condition[condition.index()] += 1;
        self.produced += report.produced;
        self.delivered += report.delivered;
        self.frames += report.frames;
        self.corrupted += report.corrupted;

        let met = report.static_deadlines.met() + report.dynamic_deadlines.met();
        let missed = report.static_deadlines.missed() + report.dynamic_deadlines.missed();
        self.deadlines_met += met;
        self.deadlines_missed += missed;
        let total = met + missed;
        if total > 0 {
            let ppb = (u128::from(missed) * u128::from(PPB) / u128::from(total)) as u64;
            self.miss_ppb.record(ppb);
        }

        let worst = report
            .static_latency
            .max()
            .map_or(0, |d| d.as_nanos())
            .max(report.dynamic_latency.max().map_or(0, |d| d.as_nanos()));
        let count = report.static_latency.count() + report.dynamic_latency.count();
        if count > 0 {
            self.recovery_ns.record(worst);
            let total_ns =
                report.static_latency.total_nanos() + report.dynamic_latency.total_nanos();
            self.latency_ns
                .record((total_ns / u128::from(count)) as u64);
        }

        let mut d = Digest::new();
        d.push(vehicle);
        d.push(report.fingerprint());
        self.digest_acc = self.digest_acc.wrapping_add(d.finish());
    }

    /// Counts a vehicle the policy could not schedule.
    pub fn record_unschedulable(&mut self, vehicle: u64) {
        self.unschedulable += 1;
        // Unschedulability is an outcome too: fold it so a digest cannot
        // match between runs that disagree on which vehicles ran.
        let mut d = Digest::new();
        d.push(vehicle);
        d.push_bytes(b"unschedulable");
        self.digest_acc = self.digest_acc.wrapping_add(d.finish());
    }

    /// Merges another aggregate in. Commutative and associative: plain
    /// integer sums, histogram bucket sums, and a wrapping-sum digest
    /// fold.
    pub fn merge(&mut self, other: &PolicyAggregate) {
        self.vehicles += other.vehicles;
        self.unschedulable += other.unschedulable;
        self.truncated += other.truncated;
        for (a, b) in self.by_condition.iter_mut().zip(&other.by_condition) {
            *a += b;
        }
        self.produced += other.produced;
        self.delivered += other.delivered;
        self.frames += other.frames;
        self.corrupted += other.corrupted;
        self.deadlines_met += other.deadlines_met;
        self.deadlines_missed += other.deadlines_missed;
        self.miss_ppb.merge(&other.miss_ppb);
        self.recovery_ns.merge(&other.recovery_ns);
        self.latency_ns.merge(&other.latency_ns);
        self.digest_acc = self.digest_acc.wrapping_add(other.digest_acc);
    }

    /// Resets every counter, keeping the histogram storage (workers reuse
    /// one aggregate across shards without reallocating).
    pub fn clear(&mut self) {
        self.vehicles = 0;
        self.unschedulable = 0;
        self.truncated = 0;
        self.by_condition = [0; 3];
        self.produced = 0;
        self.delivered = 0;
        self.frames = 0;
        self.corrupted = 0;
        self.deadlines_met = 0;
        self.deadlines_missed = 0;
        self.miss_ppb.clear();
        self.recovery_ns.clear();
        self.latency_ns.clear();
        self.digest_acc = 0;
    }

    /// Folds the full contents into `d` (order-canonical: scalar fields,
    /// then each histogram's non-empty buckets).
    fn fold_digest(&self, d: &mut Digest) {
        d.push(self.vehicles);
        d.push(self.unschedulable);
        d.push(self.truncated);
        for &c in &self.by_condition {
            d.push(c);
        }
        d.push(self.produced);
        d.push(self.delivered);
        d.push(self.frames);
        d.push(self.corrupted);
        d.push(self.deadlines_met);
        d.push(self.deadlines_missed);
        for h in [&self.miss_ppb, &self.recovery_ns, &self.latency_ns] {
            d.push(h.count());
            for (idx, count) in h.iter_nonzero() {
                d.push(idx as u64);
                d.push(count);
            }
        }
        d.push(self.digest_acc);
    }

    /// Fleet-level deadline-miss ratio (total missed over total tracked).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.deadlines_met + self.deadlines_missed;
        if total == 0 {
            0.0
        } else {
            self.deadlines_missed as f64 / total as f64
        }
    }

    /// Fixed memory footprint of this aggregate (the O(buckets) term).
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.miss_ppb.footprint_bytes()
            + self.recovery_ns.footprint_bytes()
            + self.latency_ns.footprint_bytes()
            - 3 * std::mem::size_of::<LogHistogram>()
    }
}

/// The whole fleet's aggregate: one [`PolicyAggregate`] per policy, in
/// spec order.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetAggregate {
    policies: Vec<PolicyRef>,
    per_policy: Vec<PolicyAggregate>,
}

impl FleetAggregate {
    /// An empty aggregate over `policies` (spec order).
    pub fn new(policies: &[PolicyRef]) -> Self {
        FleetAggregate {
            policies: policies.to_vec(),
            per_policy: policies
                .iter()
                .map(|_| PolicyAggregate::default())
                .collect(),
        }
    }

    /// The policies this aggregate tracks, in spec order.
    pub fn policies(&self) -> &[PolicyRef] {
        &self.policies
    }

    /// The aggregate of policy index `p`.
    pub fn policy(&self, p: usize) -> &PolicyAggregate {
        &self.per_policy[p]
    }

    /// Folds one vehicle run under policy index `p` in (allocation-free).
    pub fn record(&mut self, p: usize, vehicle: u64, condition: Condition, report: &RunReport) {
        self.per_policy[p].record(vehicle, condition, report);
    }

    /// Counts an unschedulable vehicle under policy index `p`.
    pub fn record_unschedulable(&mut self, p: usize, vehicle: u64) {
        self.per_policy[p].record_unschedulable(vehicle);
    }

    /// Vehicles fully accounted for (completed or unschedulable) under
    /// the first policy — the executor's progress notion.
    pub fn vehicles_accounted(&self) -> u64 {
        self.per_policy
            .first()
            .map_or(0, |p| p.vehicles + p.unschedulable)
    }

    /// Merges `other` in (same policy list required). Commutative and
    /// associative, like every part it sums.
    ///
    /// # Panics
    /// Panics if the two aggregates track different policy lists.
    pub fn merge(&mut self, other: &FleetAggregate) {
        assert_eq!(
            self.policies.len(),
            other.policies.len(),
            "policy list mismatch"
        );
        for (a, b) in self.per_policy.iter_mut().zip(&other.per_policy) {
            a.merge(b);
        }
    }

    /// Resets every counter, keeping all storage.
    pub fn clear(&mut self) {
        for p in &mut self.per_policy {
            p.clear();
        }
    }

    /// The fleet digest: a stable 64-bit hash of the complete aggregate
    /// contents. Equal across any thread count or shard partition of the
    /// same [`FleetSpec`](crate::FleetSpec) — the determinism tests and
    /// the CI `cmp` gate rest on this value.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.push(self.policies.len() as u64);
        for (policy, agg) in self.policies.iter().zip(&self.per_policy) {
            d.push(policy.fingerprint_tag());
            agg.fold_digest(&mut d);
        }
        d.finish()
    }

    /// Fixed memory footprint (the O(policies × buckets) term of one
    /// shard's aggregate).
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .per_policy
                .iter()
                .map(PolicyAggregate::footprint_bytes)
                .sum::<usize>()
            + self.policies.capacity() * std::mem::size_of::<PolicyRef>()
    }

    /// The condition labels `by_condition` is indexed by.
    pub fn condition_labels() -> [&'static str; 3] {
        [
            CONDITIONS[0].label(),
            CONDITIONS[1].label(),
            CONDITIONS[2].label(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coefficient::{Runner, COEFFICIENT, GREEDY};

    use crate::spec::FleetSpec;

    fn tiny_report(v: u64) -> RunReport {
        let spec = FleetSpec {
            vehicles: 4,
            horizon: event_sim::SimDuration::from_millis(5),
            ..FleetSpec::default()
        };
        Runner::new(spec.vehicle_config(v, COEFFICIENT))
            .expect("schedulable")
            .run()
    }

    #[test]
    fn record_then_merge_matches_recording_into_one() {
        let policies = [COEFFICIENT, GREEDY];
        let reports: Vec<_> = (0..4).map(tiny_report).collect();
        let spec = FleetSpec::default();

        let mut whole = FleetAggregate::new(&policies);
        for (v, r) in reports.iter().enumerate() {
            let c = spec.vehicle_draw(v as u64).condition;
            whole.record(0, v as u64, c, r);
        }

        let mut left = FleetAggregate::new(&policies);
        let mut right = FleetAggregate::new(&policies);
        for (v, r) in reports.iter().enumerate() {
            let c = spec.vehicle_draw(v as u64).condition;
            if v % 2 == 0 {
                left.record(0, v as u64, c, r);
            } else {
                right.record(0, v as u64, c, r);
            }
        }
        let mut merged = left.clone();
        merged.merge(&right);
        assert_eq!(whole, merged);
        assert_eq!(whole.digest(), merged.digest());

        // And commutativity of the merge itself.
        let mut swapped = right.clone();
        swapped.merge(&left);
        assert_eq!(merged, swapped);
    }

    #[test]
    fn digest_distinguishes_vehicle_attribution() {
        let policies = [COEFFICIENT];
        let r = tiny_report(0);
        let mut a = FleetAggregate::new(&policies);
        let mut b = FleetAggregate::new(&policies);
        a.record(0, 0, Condition::Clean, &r);
        b.record(0, 1, Condition::Clean, &r);
        assert_ne!(a.digest(), b.digest(), "vehicle index must be folded in");
    }

    #[test]
    fn unschedulable_vehicles_change_the_digest() {
        let policies = [COEFFICIENT];
        let mut a = FleetAggregate::new(&policies);
        let b = FleetAggregate::new(&policies);
        a.record_unschedulable(0, 5);
        assert_eq!(a.policy(0).unschedulable, 1);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn clear_resets_to_empty() {
        let policies = [COEFFICIENT];
        let mut a = FleetAggregate::new(&policies);
        a.record(0, 0, Condition::Bursty, &tiny_report(0));
        let empty = FleetAggregate::new(&policies);
        assert_ne!(a, empty);
        a.clear();
        assert_eq!(a, empty);
    }

    #[test]
    fn footprint_is_independent_of_vehicle_count() {
        let policies = [COEFFICIENT];
        let mut a = FleetAggregate::new(&policies);
        let before = a.footprint_bytes();
        let r = tiny_report(0);
        for v in 0..1000 {
            a.record(0, v, Condition::Clean, &r);
        }
        assert_eq!(a.footprint_bytes(), before);
        // O(buckets): three ~1.9k-bucket histograms, comfortably < 96 KiB.
        assert!(before < 96 * 1024, "{before}");
    }
}
