//! The policy contract: one invariant battery, every registered policy.
//!
//! The registry (`coefficient::registry`) is the single source of truth
//! for the scheduler zoo. Everything here iterates `registry::all()`, so
//! adding a policy automatically enrolls it in the battery — a new
//! scheme that violates a shared invariant fails CI without anyone
//! writing a test for it:
//!
//! * **Theorem-1 static schedulability** — the scheduler builds and every
//!   static message holds a primary slot;
//! * **slack-table conservation** — occupied + free positions tile the
//!   allocation matrix exactly, per channel;
//! * **counter sum-identities** — steal accounting, per-channel fault
//!   splits and produced/delivered ordering hold on full runs;
//! * **determinism** — identical fingerprints and counters at 1, 2 and
//!   8 worker threads;
//! * **non-perturbation** — a traced run fingerprints identically to an
//!   untraced one.
//!
//! Three differential checks ride on the same registry: the dynamic
//! segment never overlaps minislot transmissions or overruns its budget
//! (property-based, any policy), on fault-free scenarios the greedy
//! baseline reproduces CoEfficient's static schedule cell by cell, and
//! while the bus stays nominal SlackSteal and Matchup reproduce
//! CoEfficient's whole run (property-based).

use bench_harness::sweep::SweepSpec;
use coefficient::{
    CellCoord, PolicyRef, RunConfig, Runner, Scenario, Scheduler, SeedStrategy, StopCondition,
    SweepMatrix, SweepRunner, TraceConfig, COEFFICIENT, GREEDY, MATCHUP, SLACK_STEAL,
};
use event_sim::SimDuration;
use flexray::codec::FrameCoding;
use flexray::config::ClusterConfig;
use flexray::ChannelId;
use observe::EventKind;
use proptest::prelude::*;
use proptest::TestCaseError;
use workloads::sae::IdRange;

/// The pinned workload the battery runs on: the brake-by-wire static set
/// plus the SAE-style dynamic set, on the paper's mixed 50-minislot
/// cluster.
fn cluster() -> ClusterConfig {
    ClusterConfig::paper_mixed(50)
}

fn scheduler_for(policy: PolicyRef, scenario: &Scenario) -> Scheduler {
    Scheduler::new(
        policy,
        cluster(),
        FrameCoding,
        scenario,
        &workloads::bbw::message_set(),
        &workloads::sae::message_set(IdRange::For80Slots, 9),
    )
    .unwrap_or_else(|e| panic!("{policy:?} failed to build: {e}"))
}

/// Every registered policy × {BER-7, BER-7-storm} × two seeds.
fn registry_matrix() -> SweepMatrix {
    SweepMatrix {
        cluster: cluster(),
        static_messages: workloads::bbw::message_set(),
        dynamic_messages: workloads::sae::message_set(IdRange::For80Slots, 9),
        policies: coefficient::registry::all().to_vec(),
        scenarios: vec![Scenario::ber7(), Scenario::ber7().storm()],
        seeds: vec![11, 12],
        stop: StopCondition::Horizon(SimDuration::from_millis(24)),
        seed_strategy: SeedStrategy::PerCell,
    }
}

/// The registry itself is populated and well-formed: at least the five
/// schemes the corpus covers, resolvable by their own keys, with unique
/// fingerprint tags (a tag collision would let two policies alias in the
/// golden corpus).
#[test]
fn the_registry_resolves_every_policy_by_key_and_tags_are_unique() {
    let all = coefficient::registry::all();
    assert!(all.len() >= 5, "registry too small: {:?}", all);
    let mut tags: Vec<u64> = Vec::new();
    for &p in all {
        let resolved = coefficient::registry::resolve(p.key()).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            resolved,
            p,
            "key {:?} resolved to a different policy",
            p.key()
        );
        assert!(
            !tags.contains(&p.fingerprint_tag()),
            "duplicate fingerprint tag {} for {p:?}",
            p.fingerprint_tag()
        );
        tags.push(p.fingerprint_tag());
    }
}

/// Theorem-1 static schedulability: under every registered policy the
/// pinned workload admits a static schedule, and every static message
/// owns a primary slot position.
#[test]
fn every_policy_statically_schedules_the_pinned_workload() {
    for &policy in coefficient::registry::all() {
        for scenario in [Scenario::ber7(), Scenario::ber7().storm()] {
            let s = scheduler_for(policy, &scenario);
            for m in workloads::bbw::message_set() {
                assert!(
                    s.allocation().primary_of(m.id).is_some(),
                    "{policy:?}/{}: static message {} has no primary slot",
                    scenario.name,
                    m.id
                );
            }
        }
    }
}

/// Slack-table conservation: for each channel the occupied positions
/// counted by hand agree with the advertised occupancy fraction, and
/// occupied + free positions tile the (2 channels × slots × 64 cycles)
/// matrix exactly. A policy that leaked or double-counted slack when
/// placing copies would break the tiling.
#[test]
fn the_slack_table_is_conserved_under_every_policy() {
    let config = cluster();
    let total_per_channel = config.static_slot_count() * 64;
    for &policy in coefficient::registry::all() {
        let s = scheduler_for(policy, &Scenario::ber7());
        let alloc = s.allocation();
        let mut occupied = 0u64;
        for channel in ChannelId::BOTH {
            let mut used = 0u64;
            for slot in 1..=config.static_slot_count() as u16 {
                for cycle in 0..64u8 {
                    if alloc.occupant(channel, slot, cycle).is_some() {
                        used += 1;
                    }
                }
            }
            let advertised = (alloc.occupancy(channel) * total_per_channel as f64).round() as u64;
            assert_eq!(
                used, advertised,
                "{policy:?}: channel {channel:?} occupancy disagrees with the matrix"
            );
            occupied += used;
        }
        assert_eq!(
            occupied + alloc.free_positions() as u64,
            2 * total_per_channel,
            "{policy:?}: occupied + free positions do not tile the slack table"
        );
        assert!(occupied > 0, "{policy:?}: empty allocation is vacuous");
    }
}

/// Counter sum-identities on full runs of the whole matrix:
/// `granted + denied == attempts`, the per-channel fault counters merge
/// to the run totals, and delivery never exceeds production.
#[test]
fn counter_identities_hold_for_every_policy() {
    let report = SweepRunner::new(registry_matrix()).run().unwrap();
    assert_eq!(report.cells.len(), coefficient::registry::all().len() * 4);
    for cell in &report.cells {
        let c = cell.report.counters;
        let who = (cell.report.policy, cell.coord);
        assert!(c.steal_identity_holds(), "{who:?}: {c:?}");
        let [a, b] = cell.report.channel_faults;
        let merged = a.merged(b);
        assert_eq!(merged.frames_checked, c.frames_checked, "{who:?}");
        assert_eq!(merged.faults_injected, c.faults_injected, "{who:?}");
        assert!(c.faults_injected <= c.frames_checked, "{who:?}: {c:?}");
        assert!(
            cell.report.delivered <= cell.report.produced,
            "{who:?}: delivered {} > produced {}",
            cell.report.delivered,
            cell.report.produced
        );
    }
}

/// Determinism across worker-thread counts: the full registry matrix
/// fingerprints and counts identically at 1, 2 and 8 threads.
#[test]
fn every_policy_is_deterministic_across_1_2_and_8_threads() {
    let serial = SweepRunner::new(registry_matrix())
        .threads(1)
        .run()
        .unwrap();
    for threads in [2, 8] {
        let parallel = SweepRunner::new(registry_matrix())
            .threads(threads)
            .run()
            .unwrap();
        assert_eq!(serial.cells.len(), parallel.cells.len());
        for (a, b) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!(a.coord, b.coord);
            assert_eq!(
                a.fingerprint, b.fingerprint,
                "{:?} cell {:?}: 1-thread vs {threads}-thread fingerprints",
                a.report.policy, a.coord
            );
            assert_eq!(a.report.counters, b.report.counters, "cell {:?}", a.coord);
        }
    }
}

/// Non-perturbation: tracing any policy's storm cell leaves the
/// fingerprint untouched.
#[test]
fn tracing_never_perturbs_any_policy() {
    let m = registry_matrix();
    for (i, &policy) in coefficient::registry::all().iter().enumerate() {
        let coord = CellCoord {
            policy: i,
            scenario: 1,
            seed: 0,
        };
        let untraced = SweepRunner::new(m.clone())
            .replay(coord)
            .expect("cell is schedulable");
        let mut cfg = m.config(coord);
        cfg.trace = TraceConfig::ring(1 << 18);
        let traced = Runner::new(cfg).expect("cell is schedulable").run();
        assert_eq!(
            traced.fingerprint(),
            untraced.fingerprint,
            "{policy:?}: tracing perturbed the run"
        );
        assert!(
            traced.trace.is_some_and(|log| !log.events.is_empty()),
            "{policy:?}: traced run recorded nothing"
        );
    }
}

proptest! {
    // Each case replays one full traced run; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite invariant over the whole registry: for any registered
    /// policy and any valid scenario seed, dynamic-segment minislot
    /// transmissions on a channel never overlap in time and never spill
    /// past the dynamic segment of their cycle.
    #[test]
    fn minislot_assignments_never_overlap_and_respect_the_cycle_budget(
        seed in 0u64..1_000,
        dyn_seed in 0u64..1_000,
        policy_idx in 0usize..coefficient::registry::all().len(),
        storm_sel in 0u8..2,
    ) {
        let policy = coefficient::registry::all()[policy_idx];
        let scenario = if storm_sel == 1 {
            Scenario::ber7().storm()
        } else {
            Scenario::ber7()
        };
        let config = cluster();
        let report = Runner::new(RunConfig {
            cluster: config.clone(),
            scenario,
            static_messages: workloads::bbw::message_set(),
            dynamic_messages: workloads::sae::message_set(IdRange::For80Slots, dyn_seed),
            policy,
            stop: StopCondition::Horizon(SimDuration::from_millis(16)),
            seed,
            trace: TraceConfig::ring(1 << 20),
        })
        .expect("cell is schedulable")
        .run();
        let log = report.trace.expect("tracing was enabled");
        prop_assert!(log.dropped == 0, "ring too small to observe the run");

        // Per channel: strictly ordered, non-overlapping transmissions,
        // each contained in the dynamic segment of its own cycle.
        let mut last_end = [event_sim::SimTime::ZERO; 2];
        let mut seen = 0u64;
        for e in &log.events {
            let EventKind::MinislotFrame { channel, duration_ns, frame_id, .. } = e.kind else {
                continue;
            };
            seen += 1;
            let cycle = config.cycle_of(e.at);
            let dyn_start = config.cycle_start(cycle) + config.dynamic_segment_offset();
            let dyn_end = dyn_start + config.dynamic_segment_duration();
            let end = e.at + duration_ns;
            prop_assert!(
                e.at >= dyn_start && end <= dyn_end,
                "{policy:?}: frame {frame_id} [{:?}..{:?}] outside dynamic segment \
                 [{dyn_start:?}..{dyn_end:?}] of cycle {cycle}",
                e.at, end
            );
            let ch = channel as usize;
            prop_assert!(
                e.at >= last_end[ch],
                "{policy:?}: frame {frame_id} at {:?} overlaps previous transmission \
                 ending {:?} on channel {channel}",
                e.at, last_end[ch]
            );
            last_end[ch] = end;
        }
        // Some policies legally drain everything through stolen static
        // slack on a short horizon, so `seen == 0` is allowed here; the
        // companion test below pins a cell that must use the segment.
        let _ = seen;
    }
}

/// Non-vacuity companion for the property above: CoEfficient-family
/// policies can drain the short pinned cell entirely through stolen
/// static slack, but FSPEC has no cooperative path — its dynamic traffic
/// must cross the dynamic segment, so the overlap/budget property is
/// exercised on real minislot transmissions.
#[test]
fn the_minislot_property_is_not_vacuous() {
    let report = Runner::new(RunConfig {
        cluster: cluster(),
        scenario: Scenario::ber7(),
        static_messages: workloads::bbw::message_set(),
        dynamic_messages: workloads::sae::message_set(IdRange::For80Slots, 9),
        policy: coefficient::FSPEC,
        stop: StopCondition::Horizon(SimDuration::from_millis(16)),
        seed: 11,
        trace: TraceConfig::ring(1 << 20),
    })
    .expect("cell is schedulable")
    .run();
    let log = report.trace.expect("tracing was enabled");
    let minislot_frames = log
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::MinislotFrame { .. }))
        .count();
    assert!(minislot_frames > 0, "no minislot transmissions observed");
}

/// Satellite differential: on fault-free scenarios the greedy best-effort
/// baseline plans zero retransmission copies — exactly like CoEfficient —
/// so the two static-segment schedules must agree *cell by cell* across
/// the pinned (2 channels × slots × 64 cycles) matrix.
#[test]
fn greedy_matches_coefficient_cell_by_cell_on_fault_free_schedules() {
    let scenario = Scenario::fault_free();
    let config = cluster();
    let greedy = scheduler_for(GREEDY, &scenario);
    let coefficient = scheduler_for(COEFFICIENT, &scenario);
    let mut occupied = 0u64;
    for channel in ChannelId::BOTH {
        for slot in 1..=config.static_slot_count() as u16 {
            for cycle in 0..64u8 {
                let g = greedy.allocation().occupant(channel, slot, cycle);
                let c = coefficient.allocation().occupant(channel, slot, cycle);
                assert_eq!(
                    g, c,
                    "schedules diverge at ({channel:?}, slot {slot}, cycle {cycle})"
                );
                occupied += u64::from(g.is_some());
            }
        }
    }
    assert!(occupied > 0, "empty schedules make the comparison vacuous");
    // Fault-free means no redundancy anywhere: the agreement is between
    // two pure primary layouts, not two coincidentally-equal copy plans.
    assert!(greedy.allocation().copies().is_empty());
    assert!(coefficient.allocation().copies().is_empty());
}

proptest! {
    /// The nominal contract. SlackSteal is CoEfficient without its
    /// degraded mode, and Matchup is CoEfficient plus a recovery schedule
    /// (criticality levels after Novák, Šůcha and Hanzálek); both differ
    /// from it only once the health monitor leaves `Nominal`. So whenever
    /// CoEfficient's run ends with no health transition, their reports
    /// equal its report field for field, except the policy (and so the
    /// policy tag its fingerprint folds in). The workload is the golden
    /// corpus' one, whose SlackSteal and Matchup cells under BER-7 and
    /// BER-9 repeat CoEfficient's.
    #[test]
    fn slack_steal_and_matchup_repeat_coefficient_while_the_bus_stays_nominal(
        master_seed in 0u64..u64::MAX,
        minislots in 25u64..=100,
        scenario in 0usize..3,
    ) {
        let scenario = [Scenario::ber7(), Scenario::ber9(), Scenario::fault_free()][scenario].clone();
        let spec = SweepSpec {
            minislots,
            horizon_ms: 100,
            seeds: 1,
            master_seed,
            threads: Some(1),
            policies: vec![COEFFICIENT, SLACK_STEAL, MATCHUP],
            scenarios: vec![scenario],
            strategy: SeedStrategy::PerCell,
        };
        let sweep = spec.run().expect("the golden workload is schedulable");
        let (nominal, others) = sweep.cells.split_first().expect("three cells");
        if nominal.report.counters.health_transitions != 0 {
            return Err(TestCaseError::Reject("the bus left Nominal".into()));
        }
        let expected = format!("{:?}", nominal.report);
        for cell in others {
            let mut report = cell.report.clone();
            report.policy = COEFFICIENT;
            prop_assert!(
                format!("{report:?}") == expected,
                "{:?} differs from CoEfficient:\n{report:?}\n{expected}",
                cell.policy
            );
            prop_assert_eq!(report.fingerprint(), nominal.fingerprint);
        }
    }
}
