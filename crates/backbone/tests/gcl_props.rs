//! Property tests for gate-control-list window arithmetic.
//!
//! Over random topologies, every reservation policy must produce plans
//! where (1) no two reserved windows on one egress port overlap in
//! absolute time, (2) every admitted frame's transmission fits inside
//! one gate window, and (3) the hypercycle policy admits a superset of
//! the per-cycle baseline's flows.

use backbone::reservation::{window_start, ALL_RESERVATIONS, HYPERCYCLE, PER_CYCLE};
use backbone::topology::{FlowSpec, PortSpec, Topology};
use event_sim::SimDuration;
use flexray::config::ClusterConfig;
use proptest::prelude::*;

/// Gate counts that divide every candidate base period evenly.
const GATE_CHOICES: [u32; 5] = [1, 2, 4, 5, 8];
/// Candidate Ethernet base periods, nanoseconds.
const BASE_CHOICES: [u64; 3] = [1_000_000, 2_000_000, 2_500_000];
/// Candidate flow periods, nanoseconds (filtered against the hypercycle).
const PERIOD_CHOICES: [u64; 4] = [1_000_000, 2_500_000, 5_000_000, 10_000_000];

/// Builds a structurally valid random topology from raw draws. Flow
/// periods that do not divide the hypercycle fall back to the FlexRay
/// cycle (5 ms), which always divides it.
fn build_topology(
    base_idx: usize,
    gate_idx: [usize; 2],
    flow_draws: Vec<(u8, usize, u32)>,
) -> Topology {
    let eth_base = SimDuration::from_nanos(BASE_CHOICES[base_idx]);
    let cluster = ClusterConfig::paper_mixed(50);
    let hyper = cluster.hypercycle(eth_base).as_nanos();
    let flows = flow_draws
        .into_iter()
        .enumerate()
        .map(|(i, (source, period_idx, size_bits))| {
            let mut period = PERIOD_CHOICES[period_idx];
            if !hyper.is_multiple_of(period) {
                period = 5_000_000;
            }
            FlowSpec {
                id: 1 + i as u32,
                source_domain: source % 2,
                size_bits,
                period: SimDuration::from_nanos(period),
                sensor_wcet: SimDuration::from_micros(50),
                actuator_wcet: SimDuration::from_micros(50),
                jitter_bound: SimDuration::from_millis(100),
            }
        })
        .collect();
    Topology {
        name: "random".into(),
        summary: "property-test draw".into(),
        cluster,
        eth_base,
        ports: gate_idx
            .iter()
            .map(|&g| PortSpec {
                rate_bps: 100_000_000,
                gates: GATE_CHOICES[g],
            })
            .collect(),
        flows,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No two reserved windows on one egress port overlap in absolute
    /// time, under either policy.
    #[test]
    fn reserved_windows_never_overlap(
        base_idx in 0usize..3,
        g0 in 0usize..5,
        g1 in 0usize..5,
        flow_draws in proptest::collection::vec(
            (0u8..2, 0usize..4, 64u32..4096), 0..12),
    ) {
        let t = build_topology(base_idx, [g0, g1], flow_draws);
        prop_assert!(t.validate().is_ok(), "generator built invalid topology");
        for policy in ALL_RESERVATIONS {
            let plan = (policy.plan)(&t);
            for (port, pp) in plan.ports.iter().enumerate() {
                let gate_len = t.gate_length(port);
                let mut intervals: Vec<(u64, u64)> = (0..pp.occupancy.len() as u64)
                    .filter(|&w| pp.occupancy[w as usize].is_some())
                    .map(|w| {
                        let start = window_start(&t, port, w).as_nanos();
                        (start, start + gate_len.as_nanos())
                    })
                    .collect();
                intervals.sort_unstable();
                for pair in intervals.windows(2) {
                    prop_assert!(
                        pair[0].1 <= pair[1].0,
                        "{}: port {port} windows overlap: {pair:?}",
                        policy.key
                    );
                }
            }
        }
    }

    /// Every admitted frame's wire time fits inside one gate window, and
    /// each admitted flow's windows are really owned by it.
    #[test]
    fn admitted_frames_fit_their_windows(
        base_idx in 0usize..3,
        g0 in 0usize..5,
        g1 in 0usize..5,
        flow_draws in proptest::collection::vec(
            (0u8..2, 0usize..4, 64u32..262_144), 0..12),
    ) {
        let t = build_topology(base_idx, [g0, g1], flow_draws);
        for policy in ALL_RESERVATIONS {
            let plan = (policy.plan)(&t);
            for (fp, flow) in plan.flows.iter().zip(&t.flows) {
                if !fp.admitted {
                    continue;
                }
                prop_assert!(
                    t.tx_duration(fp.port, flow.size_bits) <= t.gate_length(fp.port),
                    "{}: flow {} admitted but frame exceeds its window",
                    policy.key,
                    fp.flow
                );
                prop_assert!(!fp.windows.is_empty());
                for &w in &fp.windows {
                    prop_assert_eq!(
                        plan.ports[fp.port].occupancy[w as usize],
                        Some(fp.flow)
                    );
                }
            }
        }
    }

    /// The hypercycle policy admits every flow the per-cycle baseline
    /// admits (and possibly more) on any random topology.
    #[test]
    fn hypercycle_admission_dominates_per_cycle(
        base_idx in 0usize..3,
        g0 in 0usize..5,
        g1 in 0usize..5,
        flow_draws in proptest::collection::vec(
            (0u8..2, 0usize..4, 64u32..4096), 0..12),
    ) {
        let t = build_topology(base_idx, [g0, g1], flow_draws);
        let per_cycle = (PER_CYCLE.plan)(&t);
        let hyper = (HYPERCYCLE.plan)(&t);
        prop_assert!(hyper.admitted() >= per_cycle.admitted());
        for (a, b) in per_cycle.flows.iter().zip(&hyper.flows) {
            prop_assert!(
                !a.admitted || b.admitted,
                "flow {} admitted per-cycle but rejected at hypercycle level",
                a.flow
            );
        }
    }
}
