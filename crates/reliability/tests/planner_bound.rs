//! The greedy Theorem-1 planner against a brute-force oracle.
//!
//! Each copy of message `z` costs `W_z·u/T_z` bits, and its gain
//! `(u/T_z)·ln(1 − p^{k+1})` shrinks as `k` grows, so the greedy ratio
//! order is the order that solves the fractional relaxation: the greedy
//! plan is that relaxation's integral part plus one whole copy, and costs
//! at most the cheapest plan plus one copy of the dearest message. On
//! instances small enough to enumerate every count vector, the planner
//! must meet the goal within that bound, and report `Unreachable`
//! exactly when no vector within the cap meets the goal.

use event_sim::SimDuration;
use proptest::prelude::*;
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

/// The cost of the cheapest count vector within `cap` whose success log
/// reaches `target`, by enumerating all `(cap + 1)^n` of them.
fn cheapest_bits(msgs: &[MessageReliability], cap: u32, target: f64) -> Option<u64> {
    let mut ks = vec![0u32; msgs.len()];
    let mut best: Option<u64> = None;
    loop {
        if log_success_probability(msgs, &ks, UNIT) >= target {
            let cost = msgs
                .iter()
                .zip(&ks)
                .map(|(m, &k)| u64::from(k) * copy_bits(m))
                .sum();
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

/// 2–5 messages on one bus: size in bits and period in ms.
fn messages() -> impl Strategy<Value = Vec<(u32, u64)>> {
    proptest::collection::vec((100u32..2000, 5u64..100), 2..6)
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    /// The bus BER is `10^(-tenths/10)`, 1e-4 to 1e-9. `percent` places
    /// the goal's log relative to the capped plan's (30) and the bare
    /// transmissions' (130), on a log scale between them: below 30 no
    /// plan within the cap reaches it, above 130 the bare transmissions
    /// already do.
    #[test]
    fn greedy_plans_cost_at_most_the_optimum_plus_one_copy(
        specs in messages(),
        tenths in 40u32..90,
        cap in 1u32..4,
        percent in 0u32..150,
    ) {
        let ber = Ber::new(10f64.powf(-f64::from(tenths) / 10.0)).unwrap();
        let msgs: Vec<MessageReliability> = specs
            .iter()
            .enumerate()
            .map(|(i, &(bits, period_ms))| {
                MessageReliability::from_ber(i as u32, bits, SimDuration::from_millis(period_ms), ber)
            })
            .collect();
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
        let target = goal.ln();
        // Summing the same terms in another order moves the last bits:
        // the planner meets the goal to within `slack`, so it answers for
        // a goal no higher than `target + slack`.
        let slack = 64.0 * f64::EPSILON * bare.abs();
        let oracle = cheapest_bits(&msgs, cap, target + slack);
        let planner = RetransmissionPlanner::new(msgs.clone())
            .unit(UNIT)
            .max_retransmissions(cap);
        match planner.plan_for_goal(goal) {
            Ok(plan) => {
                let ks = plan.retransmission_counts();
                prop_assert!(ks.iter().all(|&k| k <= cap), "{ks:?} past cap {cap}");
                let reached = log_success_probability(&msgs, ks, UNIT);
                prop_assert!(
                    reached >= target - slack,
                    "{ks:?} reaches {reached}, short of the goal's {target}"
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
                // The premise of the bound: every copy bought is worth at
                // least as much per bit as any copy left out.
                let bought = msgs.iter().zip(ks).filter(|&(_, &k)| k > 0);
                let worst_bought = bought.map(|(m, &k)| ratio(m, k - 1)).fold(f64::INFINITY, f64::min);
                let left = msgs.iter().zip(ks).filter(|&(_, &k)| k < cap);
                let best_left = left.map(|(m, &k)| ratio(m, k)).fold(0.0, f64::max);
                prop_assert!(
                    worst_bought >= best_left,
                    "{ks:?} buys a copy worth {worst_bought}/bit and leaves one worth {best_left}/bit"
                );
            }
            Err(PlanError::Unreachable { .. }) => prop_assert!(
                oracle.is_none(),
                "the planner gave up on a goal within the cap"
            ),
            Err(e) => prop_assert!(false, "unexpected {e}"),
        }
    }
}
