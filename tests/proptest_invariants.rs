//! Property-based invariants over the core data structures and algorithms.

use event_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use reliability::{Ber, MessageReliability, RetransmissionPlanner};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The retransmission planner always meets a reachable goal, respects
    /// its cap, is deterministic, and spends nothing on trivial goals.
    /// (Greedy is a heuristic: it usually beats the minimal uniform plan —
    /// asserted on fixed instances in the unit tests — but not provably on
    /// every input, so that is not asserted here.)
    #[test]
    fn planner_meets_goal_with_bounded_counts(
        sizes in proptest::collection::vec(64u32..2000, 1..6),
        goal_exp in 1u32..6,
    ) {
        let ber = Ber::new(1e-4).unwrap();
        let msgs: Vec<MessageReliability> = sizes
            .iter()
            .enumerate()
            .map(|(i, &bits)| {
                MessageReliability::from_ber(
                    i as u32,
                    bits,
                    SimDuration::from_millis(10 * (i as u64 + 1)),
                    ber,
                )
            })
            .collect();
        let goal = 1.0 - 10f64.powi(-(goal_exp as i32));
        let planner = RetransmissionPlanner::new(msgs)
            .unit(SimDuration::from_secs(1))
            .max_retransmissions(16);
        let plan = planner.plan_for_goal(goal).unwrap();
        prop_assert!(plan.success_probability() >= goal);
        prop_assert!(plan.retransmission_counts().iter().all(|&k| k <= 16));

        // Deterministic: planning twice gives the same counts.
        let again = planner.plan_for_goal(goal).unwrap();
        prop_assert_eq!(plan.retransmission_counts(), again.retransmission_counts());

        // A goal already met by the bare transmissions costs nothing.
        let trivial = planner.plan_for_goal(1e-300).unwrap();
        prop_assert_eq!(trivial.bandwidth_cost_bits(), 0);
    }

    /// Raising the goal never lowers the planned redundancy of any message.
    #[test]
    fn planner_is_monotone_in_the_goal(
        sizes in proptest::collection::vec(64u32..2000, 1..5),
    ) {
        let ber = Ber::new(1e-4).unwrap();
        let msgs: Vec<MessageReliability> = sizes
            .iter()
            .enumerate()
            .map(|(i, &bits)| {
                MessageReliability::from_ber(i as u32, bits, SimDuration::from_millis(20), ber)
            })
            .collect();
        let planner = RetransmissionPlanner::new(msgs)
            .unit(SimDuration::from_millis(100))
            .max_retransmissions(16);
        let loose = planner.plan_for_goal(0.9).unwrap();
        let tight = planner.plan_for_goal(0.9999).unwrap();
        prop_assert!(tight.bandwidth_cost_bits() >= loose.bandwidth_cost_bits());
        prop_assert!(
            tight.success_probability() >= loose.success_probability() - 1e-12
        );
    }

    /// Frame failure probability is monotone in both BER and frame size,
    /// and stays a probability.
    #[test]
    fn frame_failure_probability_is_well_behaved(
        ber_exp in 3u32..10,
        bits in 1u32..10_000,
    ) {
        let ber = Ber::new(10f64.powi(-(ber_exp as i32))).unwrap();
        let p = ber.frame_failure_probability(bits);
        prop_assert!((0.0..1.0).contains(&p));
        prop_assert!(p >= ber.frame_failure_probability(bits.saturating_sub(1)));
        let worse = Ber::new(10f64.powi(-(ber_exp as i32 - 1))).unwrap();
        prop_assert!(worse.frame_failure_probability(bits) >= p);
    }

    /// SimTime arithmetic round-trips.
    #[test]
    fn time_arithmetic_roundtrips(a in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(a);
        let dur = SimDuration::from_nanos(d);
        prop_assert_eq!((t + dur) - dur, t);
        prop_assert_eq!((t + dur).duration_since(t), dur);
        prop_assert_eq!(t.saturating_add(dur).as_nanos(), a + d);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The static allocation never double-books a (channel, slot, cycle)
    /// position, whatever the message mix.
    #[test]
    fn allocation_is_conflict_free(
        periods in proptest::collection::vec(0usize..4, 1..12),
        copies in 0u32..3,
    ) {
        use coefficient::StaticAllocation;
        use flexray::codec::FrameCoding;
        use flexray::config::ClusterConfig;
        use flexray::signal::Signal;

        const PERIODS: [u64; 4] = [1, 2, 4, 8];
        let config = ClusterConfig::paper_dynamic(50);
        let msgs: Vec<Signal> = periods
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                Signal::new(
                    i as u32 + 1,
                    SimDuration::from_millis(PERIODS[p]),
                    SimDuration::ZERO,
                    SimDuration::from_millis(PERIODS[p]),
                    256,
                )
            })
            .collect();
        let copy_counts: Vec<(u32, u32)> = msgs.iter().map(|m| (m.id, copies)).collect();
        let Ok(alloc) =
            StaticAllocation::build(&config, &FrameCoding, &msgs, &copy_counts, false)
        else {
            // Overfull workloads may legitimately fail to allocate.
            return Ok(());
        };
        // Every (channel, slot, cycle) position yields at most one
        // occupant by construction; verify occupancy bookkeeping agrees
        // with a manual count.
        use flexray::ChannelId;
        for channel in ChannelId::BOTH {
            let mut used = 0u64;
            for slot in 1..=config.static_slot_count() as u16 {
                for cycle in 0..64u8 {
                    if alloc.occupant(channel, slot, cycle).is_some() {
                        used += 1;
                    }
                }
            }
            let expected = (alloc.occupancy(channel)
                * (config.static_slot_count() * 64) as f64)
                .round() as u64;
            prop_assert_eq!(used, expected);
        }
    }
}

/// `GilbertElliott::frame_failure_probability` advertises the *stationary*
/// failure rate — the good/bad mixture weighted by `p_gb / (p_gb + p_bg)`.
/// The reliability monitor and the retransmission planner both budget
/// against that number, so it must match what the process actually does:
/// over a long deterministic run, the empirical corruption rate has to
/// land on the advertised probability. Checked at several
/// (good/bad BER, transition-probability) operating points, from the
/// fast-mixing symmetric channel to the slow storm bursts used by the
/// `BER-7-storm` scenario. The runs are seeded, so the tolerance is
/// exact for CI, not statistical.
#[test]
fn gilbert_elliott_advertised_rate_matches_empirical_rate() {
    use reliability::fault::{FaultProcess, GilbertElliott};

    // (good BER, bad BER, p_gb, p_bg, frame bits)
    let points = [
        // Fast symmetric mixing, half the time in the bad state.
        (1e-7, 5e-5, 0.05, 0.05, 1_000u32),
        // Paper-style bursty channel: quarter of the time bad.
        (1e-7, 1e-4, 0.01, 0.03, 2_000),
        // The storm scenario's slow, deep bursts (mean burst ~167 frames).
        (1e-7, 1.5e-4, 0.002, 0.006, 2_000),
    ];
    const FRAMES: u64 = 1_000_000;
    for (i, &(good, bad, p_gb, p_bg, bits)) in points.iter().enumerate() {
        let mut ge = GilbertElliott::new(
            Ber::new(good).unwrap(),
            Ber::new(bad).unwrap(),
            p_gb,
            p_bg,
            0xC0EF + i as u64,
        );
        let advertised = ge.frame_failure_probability(bits);
        let mut hits = 0u64;
        for _ in 0..FRAMES {
            hits += u64::from(ge.corrupts(bits));
        }
        let empirical = hits as f64 / FRAMES as f64;
        let tolerance = 0.2 * advertised;
        assert!(
            (empirical - advertised).abs() < tolerance,
            "point {i}: empirical {empirical:.5} vs advertised {advertised:.5} \
             (tolerance {tolerance:.5})"
        );
        // The counters must account for exactly this run.
        assert_eq!(ge.counters().frames_checked, FRAMES);
        assert_eq!(ge.counters().faults_injected, hits);
    }
}

proptest! {
    // Each case runs six full end-to-end simulations; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A stealing policy takes static-segment slack for extra
    /// transmissions, but must never trade away a hard periodic guarantee.
    /// On a TDMA bus a copy can only take a static slot no primary owns, so
    /// the bus's own static-deadline accounting is the check. Two faces of
    /// that invariant, probed under randomized static sets and dynamic load:
    ///
    /// (a) when periods are multiples of the 5 ms cycle the slot schedule
    ///     alone is feasible, and every policy that uses free static
    ///     positions cooperatively (every non-mirror scheme) misses
    ///     *nothing*. FSPEC and HOSA steal no slack and serialize copies
    ///     through their own slots by design, so they are not held to it;
    /// (b) when periods are misaligned with the cycle (ACC-like), plain
    ///     slot repetition is structurally late for some instances —
    ///     CoEfficient's stealing may rescue them but must never *create*
    ///     a miss relative to the stealing-free baseline on the same
    ///     input.
    #[test]
    fn slack_stealing_never_misses_a_static_deadline(
        period_sel in proptest::collection::vec(0usize..4, 1..13),
        dyn_seed in 0u64..1_000,
        run_seed in 0u64..1_000,
        horizon_ms in 25u64..60,
    ) {
        use coefficient::{
            registry, CoefficientOptions, PolicyRef, RunConfig, Runner, Scenario, StopCondition,
            COEFFICIENT,
        };
        use flexray::config::ClusterConfig;
        use flexray::signal::Signal;
        use workloads::sae::IdRange;

        let statics = |palette: &[u64; 4]| -> Vec<Signal> {
            period_sel
                .iter()
                .enumerate()
                .map(|(i, &p)| {
                    let period = SimDuration::from_millis(palette[p]);
                    Signal::new(i as u32 + 1, period, SimDuration::ZERO, period, 64 + 16 * (i as u32 % 8))
                })
                .collect()
        };
        let run = |policy: PolicyRef, static_messages: Vec<Signal>, options: CoefficientOptions| {
            let cfg = RunConfig {
                cluster: ClusterConfig::paper_mixed(50),
                scenario: Scenario::fault_free(),
                static_messages,
                dynamic_messages: workloads::sae::message_set(IdRange::For80Slots, dyn_seed),
                policy,
                stop: StopCondition::Horizon(SimDuration::from_millis(horizon_ms)),
                seed: run_seed,
                trace: Default::default(),
            };
            Runner::new_with_options(cfg, options)
                .expect("palette keeps the allocation feasible")
                .run()
        };

        for &policy in registry::ALL
            .iter()
            .filter(|p| !p.behavior().mirror_allocation)
        {
            let aligned = run(policy, statics(&[5, 10, 20, 40]), CoefficientOptions::default());
            prop_assert!(
                aligned.static_deadlines.missed() == 0,
                "{policy:?}: aligned geometry missed {} static deadline(s) \
                 (dyn_seed {dyn_seed}, run_seed {run_seed})",
                aligned.static_deadlines.missed()
            );
            // Guard against a vacuous pass: the horizon must cover instances.
            prop_assert!(
                aligned.static_deadlines.met() > 0,
                "{policy:?}: no static instances observed"
            );
        }

        let no_steal = CoefficientOptions {
            early_copies: false,
            cooperative_dynamic: false,
            ..Default::default()
        };
        let stealing = run(COEFFICIENT, statics(&[8, 16, 25, 32]), CoefficientOptions::default());
        let baseline = run(COEFFICIENT, statics(&[8, 16, 25, 32]), no_steal);
        prop_assert!(
            stealing.static_deadlines.missed() <= baseline.static_deadlines.missed(),
            "stealing created misses: {} with vs {} without \
             (dyn_seed {dyn_seed}, run_seed {run_seed})",
            stealing.static_deadlines.missed(),
            baseline.static_deadlines.missed()
        );
        prop_assert!(
            stealing.static_deadlines.met() >= baseline.static_deadlines.met(),
            "stealing lost on-time instances: {} with vs {} without",
            stealing.static_deadlines.met(),
            baseline.static_deadlines.met()
        );
    }
}
