//! Differentiated retransmission planning.
//!
//! Given a reliability goal ρ over a time unit *u*, choose per-message
//! retransmission counts `k_z` so that Theorem 1's success probability
//! reaches ρ with the smallest added bandwidth. This is the heart of the
//! paper's "differentiated retransmission" (§I, §III-E): instead of
//! retransmitting every frame best-effort, only the frames whose failure
//! probability actually threatens the goal receive budget.

use std::fmt;

use event_sim::SimDuration;

use crate::message::MessageReliability;
use crate::theorem::message_success_log;

/// Error cases of [`RetransmissionPlanner::plan_for_goal`].
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The goal is not a probability in `(0, 1]`.
    InvalidGoal(f64),
    /// The goal cannot be met even with `max_retransmissions` per message
    /// (e.g. a message's failure probability is too high).
    Unreachable {
        /// Best achievable success probability at the cap.
        best: f64,
        /// The requested goal.
        goal: f64,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::InvalidGoal(g) => write!(f, "reliability goal must lie in (0, 1], got {g}"),
            PlanError::Unreachable { best, goal } => write!(
                f,
                "reliability goal {goal} unreachable: best achievable is {best} at the retransmission cap"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// A fully decided retransmission plan: one `k_z` per message.
#[derive(Debug, Clone, PartialEq)]
pub struct RetransmissionPlan {
    msgs: Vec<MessageReliability>,
    ks: Vec<u32>,
    unit: SimDuration,
    log_success: f64,
}

impl RetransmissionPlan {
    /// The per-message retransmission counts, parallel to [`Self::messages`].
    pub fn retransmission_counts(&self) -> &[u32] {
        &self.ks
    }

    /// The messages the plan covers.
    pub fn messages(&self) -> &[MessageReliability] {
        &self.msgs
    }

    /// The time unit the plan was computed over.
    pub fn unit(&self) -> SimDuration {
        self.unit
    }

    /// The retransmission count for the message with identifier `id`, if it
    /// is part of the plan.
    pub fn count_for(&self, id: u32) -> Option<u32> {
        self.msgs
            .iter()
            .position(|m| m.id == id)
            .map(|i| self.ks[i])
    }

    /// Theorem-1 success probability of this plan.
    pub fn success_probability(&self) -> f64 {
        self.log_success.exp()
    }

    /// Total extra bandwidth the plan costs per unit, in bits: the sum over
    /// messages of `k_z · W_z · (u / T_z)`.
    pub fn bandwidth_cost_bits(&self) -> u64 {
        self.msgs
            .iter()
            .zip(&self.ks)
            .map(|(m, &k)| u64::from(k) * u64::from(m.size_bits) * m.instances_per_unit(self.unit))
            .sum()
    }

    /// Messages with at least one planned retransmission, i.e. the
    /// *selected* set that the slack stealer must find room for.
    pub fn retransmitted_messages(&self) -> impl Iterator<Item = (&MessageReliability, u32)> {
        self.msgs
            .iter()
            .zip(self.ks.iter().copied())
            .filter(|&(_, k)| k > 0)
    }
}

/// Builder/optimizer producing [`RetransmissionPlan`]s.
///
/// Two strategies are provided:
///
/// * [`plan_for_goal`](Self::plan_for_goal) — the paper's differentiated
///   scheme: greedy marginal-gain ascent in the log domain until the goal is
///   met;
/// * [`uniform`](Self::uniform) — the best-effort baseline: the same `k`
///   for every message (FSPEC's retransmit-everything corresponds to
///   `uniform(1)` and above).
#[derive(Debug, Clone)]
pub struct RetransmissionPlanner {
    msgs: Vec<MessageReliability>,
    unit: SimDuration,
    max_k: u32,
}

impl RetransmissionPlanner {
    /// Creates a planner over `msgs` with the default unit of one hour and a
    /// per-message cap of 16 retransmissions.
    pub fn new(msgs: Vec<MessageReliability>) -> Self {
        RetransmissionPlanner {
            msgs,
            unit: SimDuration::from_secs(3600),
            max_k: 16,
        }
    }

    /// Sets the time unit `u` the reliability goal refers to.
    pub fn unit(mut self, unit: SimDuration) -> Self {
        self.unit = unit;
        self
    }

    /// Sets the per-message retransmission cap (default 16).
    pub fn max_retransmissions(mut self, max_k: u32) -> Self {
        self.max_k = max_k;
        self
    }

    /// Builds the plan that assigns the same count `k` to every message
    /// (the best-effort baseline).
    pub fn uniform(&self, k: u32) -> RetransmissionPlan {
        let ks = vec![k; self.msgs.len()];
        let log_success = self.log_success(&ks);
        RetransmissionPlan {
            msgs: self.msgs.clone(),
            ks,
            unit: self.unit,
            log_success,
        }
    }

    fn log_success(&self, ks: &[u32]) -> f64 {
        self.msgs
            .iter()
            .zip(ks)
            .map(|(m, &k)| message_success_log(m, k, self.unit))
            .sum()
    }

    /// Computes the differentiated plan: starting from no copies, it adds
    /// one copy at a time to the message with the largest marginal
    /// log-gain per bit of bandwidth, never past the per-message cap,
    /// until the plan reaches `goal`. The greedy rule does not promise
    /// the cheapest plan that reaches the goal, but it comes within one
    /// copy of it: `cost(greedy) ≤ OPT + max_z W_z·u/T_z`. Each message's
    /// gain `(u/T_z)·ln(1 − p^{k+1})` is concave in `k` at a constant cost
    /// per copy, so the ratio order solves the fractional relaxation
    /// (whose cost is at most `OPT`), and the greedy plan is that
    /// solution's integral part plus one whole copy.
    /// `crates/reliability/tests/planner_bound.rs` checks the bound
    /// against an exhaustive search.
    ///
    /// # Errors
    /// * [`PlanError::InvalidGoal`] if `goal` is not in `(0, 1]`;
    /// * [`PlanError::Unreachable`] if even the cap cannot reach the goal.
    pub fn plan_for_goal(&self, goal: f64) -> Result<RetransmissionPlan, PlanError> {
        if !(goal > 0.0 && goal <= 1.0) {
            return Err(PlanError::InvalidGoal(goal));
        }
        let target_log = goal.ln();
        let n = self.msgs.len();
        let mut ks = vec![0u32; n];
        // Per-message log contribution at the current k.
        let mut contrib: Vec<f64> = self
            .msgs
            .iter()
            .map(|m| message_success_log(m, 0, self.unit))
            .collect();
        let mut total: f64 = contrib.iter().sum();

        while total < target_log {
            // Pick the increment with the best marginal gain per bandwidth
            // bit. Gain: Δ = (u/T_z)·[ln(1−p^{k+2}) − ln(1−p^{k+1})];
            // cost: W_z instances-per-unit bits.
            let mut best: Option<(usize, f64, f64)> = None; // (idx, new_contrib, score)
            for (i, m) in self.msgs.iter().enumerate() {
                if ks[i] >= self.max_k || m.failure_probability == 0.0 {
                    continue;
                }
                let new_contrib = message_success_log(m, ks[i] + 1, self.unit);
                let gain = new_contrib - contrib[i];
                if gain <= 0.0 {
                    continue;
                }
                let cost = (u64::from(m.size_bits) * m.instances_per_unit(self.unit)).max(1) as f64;
                let score = gain / cost;
                if best.is_none_or(|(_, _, s)| score > s) {
                    best = Some((i, new_contrib, score));
                }
            }
            let Some((i, new_contrib, _)) = best else {
                return Err(PlanError::Unreachable {
                    best: total.exp(),
                    goal,
                });
            };
            total += new_contrib - contrib[i];
            contrib[i] = new_contrib;
            ks[i] += 1;
        }

        Ok(RetransmissionPlan {
            msgs: self.msgs.clone(),
            ks,
            unit: self.unit,
            log_success: total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ber::Ber;

    const SEC: SimDuration = SimDuration::from_secs(1);

    fn msgs_with_ber(ber: f64) -> Vec<MessageReliability> {
        let ber = Ber::new(ber).unwrap();
        vec![
            MessageReliability::from_ber(1, 1292, SimDuration::from_millis(8), ber),
            MessageReliability::from_ber(2, 285, SimDuration::from_millis(8), ber),
            MessageReliability::from_ber(3, 1574, SimDuration::from_millis(1), ber),
            MessageReliability::from_ber(4, 552, SimDuration::from_millis(1), ber),
        ]
    }

    #[test]
    fn trivial_goal_needs_no_retransmissions() {
        let planner = RetransmissionPlanner::new(msgs_with_ber(1e-9)).unit(SEC);
        let plan = planner.plan_for_goal(0.5).unwrap();
        assert!(plan.retransmission_counts().iter().all(|&k| k == 0));
        assert_eq!(plan.bandwidth_cost_bits(), 0);
    }

    #[test]
    fn plan_meets_goal() {
        let planner = RetransmissionPlanner::new(msgs_with_ber(1e-4)).unit(SEC);
        let goal = 0.999_999;
        let plan = planner.plan_for_goal(goal).unwrap();
        assert!(
            plan.success_probability() >= goal,
            "{}",
            plan.success_probability()
        );
        assert!(plan.retransmission_counts().iter().any(|&k| k > 0));
    }

    #[test]
    fn differentiated_is_cheaper_than_uniform() {
        let planner = RetransmissionPlanner::new(msgs_with_ber(1e-4)).unit(SEC);
        let goal = 0.999_999;
        let diff = planner.plan_for_goal(goal).unwrap();
        // Find the smallest uniform k that meets the same goal.
        let uniform = (0..=16)
            .map(|k| planner.uniform(k))
            .find(|p| p.success_probability() >= goal)
            .expect("uniform plan exists");
        assert!(diff.bandwidth_cost_bits() <= uniform.bandwidth_cost_bits());
    }

    #[test]
    fn stricter_goal_costs_more() {
        let planner = RetransmissionPlanner::new(msgs_with_ber(1e-4)).unit(SEC);
        let a = planner.plan_for_goal(0.999).unwrap();
        let b = planner.plan_for_goal(0.999_999_9).unwrap();
        assert!(b.bandwidth_cost_bits() >= a.bandwidth_cost_bits());
        assert!(b.success_probability() >= a.success_probability());
    }

    #[test]
    fn larger_frames_get_priority_only_if_efficient() {
        // The greedy criterion is gain per bit, so a small frame with equal
        // failure probability should be upgraded first.
        let msgs = vec![
            MessageReliability::new(10, 10_000, SimDuration::from_millis(10), 0.01),
            MessageReliability::new(11, 100, SimDuration::from_millis(10), 0.01),
        ];
        let planner = RetransmissionPlanner::new(msgs).unit(SEC);
        let plan = planner.plan_for_goal(0.5).unwrap();
        // Both messages start at k=0; if any retransmission was needed the
        // cheap one is chosen first.
        if plan.retransmission_counts().iter().any(|&k| k > 0) {
            assert!(plan.count_for(11).unwrap() >= plan.count_for(10).unwrap());
        }
    }

    #[test]
    fn unreachable_goal_reports_best() {
        let msgs = vec![MessageReliability::new(
            0,
            10,
            SimDuration::from_millis(1),
            0.9,
        )];
        let planner = RetransmissionPlanner::new(msgs)
            .unit(SEC)
            .max_retransmissions(1);
        let err = planner.plan_for_goal(0.999_999).unwrap_err();
        match err {
            PlanError::Unreachable { best, goal } => {
                assert!(best < goal);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn invalid_goals_rejected() {
        let planner = RetransmissionPlanner::new(msgs_with_ber(1e-7));
        assert!(matches!(
            planner.plan_for_goal(0.0),
            Err(PlanError::InvalidGoal(_))
        ));
        assert!(matches!(
            planner.plan_for_goal(1.5),
            Err(PlanError::InvalidGoal(_))
        ));
        assert!(matches!(
            planner.plan_for_goal(f64::NAN),
            Err(PlanError::InvalidGoal(_))
        ));
    }

    #[test]
    fn goal_of_exactly_one_met_only_by_perfect_channel() {
        let perfect = vec![MessageReliability::new(
            0,
            10,
            SimDuration::from_millis(1),
            0.0,
        )];
        let plan = RetransmissionPlanner::new(perfect)
            .plan_for_goal(1.0)
            .unwrap();
        assert_eq!(plan.success_probability(), 1.0);

        let faulty = vec![MessageReliability::new(
            0,
            10,
            SimDuration::from_millis(1),
            0.1,
        )];
        assert!(RetransmissionPlanner::new(faulty)
            .plan_for_goal(1.0)
            .is_err());
    }

    #[test]
    fn uniform_plan_counts() {
        let planner = RetransmissionPlanner::new(msgs_with_ber(1e-7)).unit(SEC);
        let plan = planner.uniform(2);
        assert!(plan.retransmission_counts().iter().all(|&k| k == 2));
        assert_eq!(plan.retransmitted_messages().count(), 4);
    }

    #[test]
    fn count_for_unknown_id_is_none() {
        let planner = RetransmissionPlanner::new(msgs_with_ber(1e-7));
        let plan = planner.uniform(0);
        assert_eq!(plan.count_for(999), None);
        assert_eq!(plan.count_for(1), Some(0));
    }
}
