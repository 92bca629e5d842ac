//! Pins the Theorem-1 planner's output ahead of any rewrite of it.
//!
//! `RetransmissionPlanner::plan_for_goal` is run over message sets drawn
//! the way fleet vehicles of the MIXED environment draw theirs (the
//! vehicle's synthetic static set and SAE dynamic set, with `p_z` from the
//! vehicle's BER over the on-wire frame length, as `Scheduler::new` builds
//! them), in four shapes per vehicle:
//!
//! * as drawn;
//! * with duplicated messages, so equal scores test the first-index tie
//!   rule;
//! * with `p == 0` messages, which must never receive a copy;
//! * under a retransmission cap of 0–2, which makes most goals
//!   `Unreachable`.
//!
//! Every retransmission count, every plan's success probability and every
//! `Unreachable { best, goal }` is folded into one digest. A faster planner
//! (cached per-message scores, a heap) must reproduce it bit for bit.

use coefficient::COEFFICIENT;
use fleet::FleetSpec;
use flexray::codec::FrameCoding;
use reliability::{MessageReliability, PlanError, RetransmissionPlanner};

const VEHICLES: u64 = 200;

/// The digest of every plan and error, recorded before any planner
/// rewrite.
const PINNED_DIGEST: u64 = 0x5801_a1d4_0c48_49d6;

/// FNV-1a, 64-bit.
struct Digest(u64);

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Tallies of what the digest covers, to show it is not vacuous.
#[derive(Debug, Default)]
struct Tally {
    plans: u64,
    unreachable: u64,
    copies: u64,
}

/// Vehicle `v`'s messages, built as `Scheduler::new` builds them, and its
/// reliability goal.
fn vehicle_messages(spec: &FleetSpec, v: u64) -> (Vec<MessageReliability>, f64) {
    let run = spec.vehicle_config(v, COEFFICIENT);
    let coding = FrameCoding;
    let ber = run.scenario.ber;
    let mut msgs: Vec<MessageReliability> = run
        .static_messages
        .iter()
        .map(|s| {
            let wire = coding.message_wire_bits(u64::from(s.size_bits), false) as u32;
            MessageReliability::from_ber(s.id, wire, s.period, ber)
        })
        .collect();
    msgs.extend(run.dynamic_messages.iter().map(|d| {
        let wire = coding.message_wire_bits(u64::from(d.size_bits), true) as u32;
        MessageReliability::from_ber(
            0x1_0000 + u32::from(d.frame_id),
            wire,
            d.min_interarrival,
            ber,
        )
    }));
    (msgs, run.scenario.reliability_goal())
}

fn plan_into(digest: &mut Digest, tally: &mut Tally, planner: &RetransmissionPlanner, goal: f64) {
    match planner.plan_for_goal(goal) {
        Ok(plan) => {
            tally.plans += 1;
            digest.bytes(&[0]);
            for (m, &k) in plan.messages().iter().zip(plan.retransmission_counts()) {
                assert!(m.failure_probability > 0.0 || k == 0, "{m:?} got {k}");
                tally.copies += u64::from(k);
                digest.bytes(&k.to_le_bytes());
            }
            digest.bytes(&plan.success_probability().to_bits().to_le_bytes());
        }
        Err(PlanError::Unreachable { best, goal }) => {
            tally.unreachable += 1;
            digest.bytes(&[1]);
            digest.bytes(&best.to_bits().to_le_bytes());
            digest.bytes(&goal.to_bits().to_le_bytes());
        }
        Err(e) => panic!("goal {goal}: {e}"),
    }
}

#[test]
fn theorem1_plans_match_the_pinned_digest() {
    let spec = FleetSpec::default();
    let mut digest = Digest(0xcbf2_9ce4_8422_2325);
    let mut tally = Tally::default();
    for v in 0..VEHICLES {
        let (msgs, goal) = vehicle_messages(&spec, v);

        // As drawn.
        let planner = RetransmissionPlanner::new(msgs.clone());
        plan_into(&mut digest, &mut tally, &planner, goal);

        // Ties: every third message again, identical but for its id, right
        // behind the original and at the end.
        let mut tied = Vec::with_capacity(msgs.len() * 2);
        for (i, m) in msgs.iter().enumerate() {
            tied.push(m.clone());
            if i % 3 == 0 {
                tied.push(MessageReliability {
                    id: m.id + 0x10_0000,
                    ..m.clone()
                });
            }
        }
        tied.extend(msgs.iter().step_by(3).map(|m| MessageReliability {
            id: m.id + 0x20_0000,
            ..m.clone()
        }));
        let planner = RetransmissionPlanner::new(tied);
        plan_into(&mut digest, &mut tally, &planner, goal);

        // Error-free messages: a copy buys them nothing.
        let mut clean = msgs.clone();
        for (i, m) in msgs.iter().enumerate().step_by(4) {
            clean.insert(
                i,
                MessageReliability::new(m.id + 0x30_0000, m.size_bits, m.period, 0.0),
            );
        }
        let planner = RetransmissionPlanner::new(clean);
        plan_into(&mut digest, &mut tally, &planner, goal);

        // The cap.
        let planner = RetransmissionPlanner::new(msgs).max_retransmissions((v % 3) as u32);
        plan_into(&mut digest, &mut tally, &planner, goal);
    }
    assert_eq!(tally.plans + tally.unreachable, 4 * VEHICLES);
    assert!(tally.plans > VEHICLES, "{tally:?}");
    assert!(tally.unreachable > VEHICLES / 2, "{tally:?}");
    assert!(tally.copies > 0, "{tally:?}");
    assert_eq!(
        digest.0, PINNED_DIGEST,
        "Theorem-1 plans changed: digest {:#018x} ({tally:?})",
        digest.0
    );
}
