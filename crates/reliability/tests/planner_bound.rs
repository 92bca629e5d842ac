//! The greedy Theorem-1 planner against exact oracles.
//!
//! Each copy of message `z` costs `W_z·u/T_z` bits, and its gain
//! `(u/T_z)·ln(1 − p^{k+1})` shrinks as `k` grows, so the greedy ratio
//! order is the order that solves the fractional relaxation: the greedy
//! plan is that relaxation's integral part plus one whole copy, and costs
//! at most the cheapest plan plus one copy of the dearest message. The
//! planner must meet the goal within that bound, and report `Unreachable`
//! exactly when no vector within the cap meets the goal. Two oracles find
//! the cheapest plan: an exhaustive search over every count vector (2–5
//! messages), and a branch and bound that prunes by the fractional
//! relaxation (up to 12 messages), itself checked against the exhaustive
//! search.

use std::ops::Range;

use event_sim::SimDuration;
use proptest::prelude::*;
use proptest::{TestCaseError, TestCaseResult};
use reliability::{
    log_success_probability, message_success_log, Ber, MessageReliability, PlanError,
    RetransmissionPlanner,
};

const UNIT: SimDuration = SimDuration::from_secs(1);

/// The highest goal log drawn, a success probability of about `1 − 1e-8`
/// per unit: closer to 1, a goal's own rounding outweighs a copy's gain.
const CEILING: f64 = -1e-8;

/// One copy's bandwidth per unit: `W_z · u/T_z` bits.
fn copy_bits(m: &MessageReliability) -> u64 {
    u64::from(m.size_bits) * m.instances_per_unit(UNIT)
}

/// Log gain per bit of the `k + 1`-th copy of `m`.
fn ratio(m: &MessageReliability, k: u32) -> f64 {
    (message_success_log(m, k + 1, UNIT) - message_success_log(m, k, UNIT)) / copy_bits(m) as f64
}

/// The cost of a count vector.
fn cost_bits(msgs: &[MessageReliability], ks: &[u32]) -> u64 {
    msgs.iter()
        .zip(ks)
        .map(|(m, &k)| u64::from(k) * copy_bits(m))
        .sum()
}

/// The cost of the cheapest count vector within `cap` whose success log
/// reaches `target`, by enumerating all `(cap + 1)^n` of them.
fn cheapest_bits(msgs: &[MessageReliability], cap: u32, target: f64) -> Option<u64> {
    let mut ks = vec![0u32; msgs.len()];
    let mut best: Option<u64> = None;
    loop {
        if log_success_probability(msgs, &ks, UNIT) >= target {
            let cost = cost_bits(msgs, &ks);
            best = Some(best.map_or(cost, |b: u64| b.min(cost)));
        }
        // Next vector, odometer-style.
        let Some(i) = ks.iter().position(|&k| k < cap) else {
            return best;
        };
        ks[i] += 1;
        ks[..i].fill(0);
    }
}

/// The same cheapest cost as [`cheapest_bits`], by branch and bound: fix
/// the messages' counts one message at a time, and drop a branch whose
/// fixed cost plus the fractional relaxation of the rest is no cheaper
/// than the best plan found.
fn branch_and_bound(msgs: &[MessageReliability], cap: u32, target: f64) -> Option<u64> {
    let mut search = Search {
        msgs,
        cap,
        target,
        ks: vec![0; msgs.len()],
        best: None,
    };
    search.descend(0);
    search.best
}

struct Search<'a> {
    msgs: &'a [MessageReliability],
    cap: u32,
    target: f64,
    /// The counts fixed so far; the messages not yet fixed are at 0.
    ks: Vec<u32>,
    best: Option<u64>,
}

impl Search<'_> {
    /// Searches every count of messages `z..`, the counts before `z` fixed.
    fn descend(&mut self, z: usize) {
        let reached = log_success_probability(self.msgs, &self.ks, UNIT);
        let cost = cost_bits(self.msgs, &self.ks);
        if reached >= self.target {
            // Every other plan of this branch adds copies to this one.
            self.best = Some(self.best.map_or(cost, |b| b.min(cost)));
            return;
        }
        let Some(rest) = self.relaxation(z, self.target - reached) else {
            return;
        };
        // Rounding in the relaxation must not drop the optimum's branch.
        let bound = (cost as f64 + rest) * (1.0 - 1e-9);
        if z == self.msgs.len() || self.best.is_some_and(|b| bound >= b as f64) {
            return;
        }
        // Most copies first, so a plan is found early and prunes the rest.
        for k in (0..=self.cap).rev() {
            self.ks[z] = k;
            self.descend(z + 1);
        }
        self.ks[z] = 0;
    }

    /// The least cost of raising the log by `deficit` with copies of
    /// messages `z..` when a copy may be bought in part: every copy in
    /// ratio order, the last one in part. `None` when their caps fall
    /// short by more than rounding.
    fn relaxation(&self, z: usize, deficit: f64) -> Option<f64> {
        let copy = |m: &MessageReliability, k: u32| {
            let gain = message_success_log(m, k + 1, UNIT) - message_success_log(m, k, UNIT);
            (ratio(m, k), gain, copy_bits(m) as f64)
        };
        let mut copies: Vec<(f64, f64, f64)> = (self.msgs[z..].iter())
            .flat_map(|m| (0..self.cap).map(move |k| copy(m, k)))
            .collect();
        copies.sort_by(|a, b| b.0.total_cmp(&a.0));
        let (mut need, mut cost) = (deficit, 0.0);
        for (_, gain, bits) in copies {
            if gain >= need {
                return Some(cost + bits * need / gain);
            }
            need -= gain;
            cost += bits;
        }
        (need <= 1e-9 * deficit).then_some(cost)
    }
}

/// One drawn instance: the messages, a goal, the goal's log and the
/// rounding slack of a success log.
struct Instance {
    msgs: Vec<MessageReliability>,
    goal: f64,
    target: f64,
    slack: f64,
}

/// Messages on one bus from their size in bits and period in ms: the
/// bus BER is `10^(-tenths/10)`, 1e-4 to 1e-9.
fn on_bus(specs: &[(u32, u64)], tenths: u32) -> Vec<MessageReliability> {
    let ber = Ber::new(10f64.powf(-f64::from(tenths) / 10.0)).unwrap();
    let message = |(i, &(bits, period_ms)): (usize, &(u32, u64))| {
        MessageReliability::from_ber(i as u32, bits, SimDuration::from_millis(period_ms), ber)
    };
    specs.iter().enumerate().map(message).collect()
}

/// Messages from their size in bits, period in ms and own failure
/// probability `10^(-tenths/10)`, 1e-1 to 1e-9: unlike [`on_bus`], two
/// copies of the same size may differ in gain by orders of magnitude.
fn with_own_failure(specs: &[(u32, u64, u32)]) -> Vec<MessageReliability> {
    let message = |(i, &(bits, period_ms, tenths)): (usize, &(u32, u64, u32))| {
        let p = 10f64.powf(-f64::from(tenths) / 10.0);
        MessageReliability::new(i as u32, bits, SimDuration::from_millis(period_ms), p)
    };
    specs.iter().enumerate().map(message).collect()
}

/// An instance of `msgs`. `percent` places the goal's log relative to
/// the capped plan's (30) and the bare transmissions' (130), on a log
/// scale between them: below 30 no plan within the cap reaches it, above
/// 130 the bare transmissions already do.
fn instance(msgs: Vec<MessageReliability>, cap: u32, percent: u32) -> Instance {
    let bare = log_success_probability(&msgs, &vec![0; msgs.len()], UNIT);
    let capped = log_success_probability(&msgs, &vec![cap; msgs.len()], UNIT).min(CEILING);
    let at = f64::from(percent) / 100.0 - 0.3;
    let goal = if at < 0.0 {
        capped * (1.0 + at)
    } else if at <= 1.0 {
        capped * (bare / capped).powf(at)
    } else {
        bare * at
    }
    .exp();
    Instance {
        msgs,
        goal,
        target: goal.ln(),
        // Summing the same terms in another order moves the last bits:
        // the planner meets the goal to within `slack`, so it answers for
        // a goal no higher than `target + slack`.
        slack: 64.0 * f64::EPSILON * bare.abs(),
    }
}

/// Plans `case` greedily within `cap` and holds the plan to the oracle's
/// cheapest cost `oracle` (for the goal raised by the slack): within the
/// cap, the goal met, at most one copy of the dearest message dearer than
/// the optimum, and `Unreachable` exactly when the oracle finds no plan.
/// Also checks the premise of the bound, that every copy bought is worth
/// at least as much per bit as any copy left out: a plan that buys a
/// single copy out of ratio order can still meet the cost bound.
fn check_greedy(case: &Instance, cap: u32, oracle: Option<u64>) -> TestCaseResult {
    let msgs = &case.msgs;
    let planner = RetransmissionPlanner::new(msgs.clone())
        .unit(UNIT)
        .max_retransmissions(cap);
    let plan = match planner.plan_for_goal(case.goal) {
        Ok(plan) => plan,
        Err(PlanError::Unreachable { .. }) => {
            prop_assert!(
                oracle.is_none(),
                "the planner gave up on a goal within the cap"
            );
            return Ok(());
        }
        Err(e) => return Err(TestCaseError::fail(format!("unexpected {e}"))),
    };
    let ks = plan.retransmission_counts();
    prop_assert!(ks.iter().all(|&k| k <= cap), "{ks:?} past cap {cap}");
    let reached = log_success_probability(msgs, ks, UNIT);
    prop_assert!(
        reached >= case.target - case.slack,
        "{ks:?} reaches {reached}, short of the goal's {}",
        case.target
    );
    // `None` only within `slack` of the capped plan's log.
    if let Some(opt) = oracle {
        let dearest = msgs.iter().map(copy_bits).max().unwrap_or(0);
        let cost = plan.bandwidth_cost_bits();
        prop_assert!(
            cost <= opt + dearest,
            "{ks:?} costs {cost} bits; the optimum is {opt}, one copy {dearest}"
        );
    }
    let bought = msgs.iter().zip(ks).filter(|&(_, &k)| k > 0);
    let worst_bought = bought
        .map(|(m, &k)| ratio(m, k - 1))
        .fold(f64::INFINITY, f64::min);
    let left = msgs.iter().zip(ks).filter(|&(_, &k)| k < cap);
    let best_left = left.map(|(m, &k)| ratio(m, k)).fold(0.0, f64::max);
    prop_assert!(
        worst_bought >= best_left,
        "{ks:?} buys a copy worth {worst_bought}/bit and leaves one worth {best_left}/bit"
    );
    Ok(())
}

/// 2–5 messages on one bus: size in bits and period in ms.
fn messages() -> impl Strategy<Value = Vec<(u32, u64)>> {
    proptest::collection::vec((100u32..2000, 5u64..100), 2..6)
}

/// Messages for [`with_own_failure`], `count` of them.
fn own_failure_messages(count: Range<usize>) -> impl Strategy<Value = Vec<(u32, u64, u32)>> {
    proptest::collection::vec((100u32..2000, 5u64..100, 10u32..90), count)
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn greedy_plans_cost_at_most_the_optimum_plus_one_copy(
        specs in messages(),
        tenths in 40u32..90,
        cap in 1u32..4,
        percent in 0u32..150,
    ) {
        let case = instance(on_bus(&specs, tenths), cap, percent);
        let oracle = cheapest_bits(&case.msgs, cap, case.target + case.slack);
        check_greedy(&case, cap, oracle)?;
    }

    /// The branch and bound finds the exhaustive search's optimum.
    #[test]
    fn branch_and_bound_finds_the_exhaustive_optimum(
        specs in own_failure_messages(2..6),
        cap in 1u32..4,
        percent in 0u32..150,
    ) {
        let case = instance(with_own_failure(&specs), cap, percent);
        let target = case.target + case.slack;
        prop_assert_eq!(
            branch_and_bound(&case.msgs, cap, target),
            cheapest_bits(&case.msgs, cap, target)
        );
    }

    #[test]
    fn greedy_plans_of_up_to_12_messages_cost_at_most_the_optimum_plus_one_copy(
        specs in own_failure_messages(2..13),
        cap in 1u32..4,
        percent in 0u32..150,
    ) {
        let case = instance(with_own_failure(&specs), cap, percent);
        let oracle = branch_and_bound(&case.msgs, cap, case.target + case.slack);
        check_greedy(&case, cap, oracle)?;
    }
}
