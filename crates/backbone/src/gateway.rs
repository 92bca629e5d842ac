//! Store-and-forward gateway runtime.
//!
//! Frames arrive from the FlexRay side (and the sensor CPU), wait in the
//! gateway queue, and leave through their flow's reserved gate windows.
//! The simulation is a deterministic fold over arrival order with an
//! explicit tie-break — `(arrival, flow id, instance)` — so reports are
//! invariant under worker-thread count.

use event_sim::{SimDuration, SimTime};
use observe::{EventKind, Tracer};

use crate::reservation::{window_start, ReservationPlan};
use crate::topology::Topology;

/// One frame's passage through the gateway.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatewayOutcome {
    /// The flow.
    pub flow: u32,
    /// 0-based instance index within the flow.
    pub instance: u64,
    /// When the frame was ready at the gateway (max of sensor completion
    /// and FlexRay delivery).
    pub arrival: SimTime,
    /// Start of the gate window that carried the frame.
    pub departure: SimTime,
    /// End of the Ethernet transmission.
    pub delivery: SimTime,
    /// Whether the frame waited at least one full hypercycle for a
    /// reserved window (it arrived after the window's occurrence).
    pub missed_window: bool,
}

/// One frame awaiting forwarding: `(arrival, flow, instance)`.
pub type GatewayArrival = (SimTime, u32, u64);

/// Forwards `arrivals` through the plan's reserved windows.
///
/// Arrivals are processed in `(arrival, flow, instance)` order — the
/// deterministic store-and-forward tie-break. Each flow's instances
/// consume the flow's owned window occurrences in start order: an
/// instance departs at the earliest occurrence that is at or after its
/// arrival **and** strictly after the previous instance's departure (one
/// frame per window occurrence). Flows without an admitted plan entry
/// contribute no outcomes.
///
/// Every arrival emits an [`EventKind::GatewayQueued`] and every
/// departure an [`EventKind::EthernetFrame`] through `tracer`; tracing is
/// pure observation.
pub fn simulate_gateway(
    topology: &Topology,
    plan: &ReservationPlan,
    arrivals: &[GatewayArrival],
    tracer: &Tracer,
) -> Vec<GatewayOutcome> {
    let hyper = topology.hypercycle();
    let mut ordered: Vec<GatewayArrival> = arrivals.to_vec();
    ordered.sort();
    // Per-flow cursor: the last occupied window occurrence, so two
    // instances of one flow never share an occurrence.
    let mut last_departure: std::collections::BTreeMap<u32, SimTime> =
        std::collections::BTreeMap::new();
    let mut outcomes = Vec::with_capacity(ordered.len());
    for &(arrival, flow_id, instance) in &ordered {
        let Some(fp) = plan.flow_plan(flow_id).filter(|fp| fp.admitted) else {
            continue;
        };
        let flow = topology
            .flows
            .iter()
            .find(|f| f.id == flow_id)
            .expect("plan flows come from the topology");
        let port = fp.port;
        tracer.emit(arrival, || EventKind::GatewayQueued {
            port: port as u8,
            flow: u64::from(flow_id),
            instance,
        });
        let floor = match last_departure.get(&flow_id) {
            Some(&t) => t + SimDuration::from_nanos(1),
            None => SimTime::ZERO,
        };
        let earliest = arrival.max(floor);
        let departure = fp
            .windows
            .iter()
            .map(|&w| next_occurrence(window_start(topology, port, w), hyper, earliest))
            .min()
            .expect("admitted flows own at least one window");
        last_departure.insert(flow_id, departure);
        let duration = topology.tx_duration(port, flow.size_bits);
        let missed_window = departure.saturating_duration_since(arrival) >= hyper;
        tracer.emit(departure, || EventKind::EthernetFrame {
            port: port as u8,
            flow: u64::from(flow_id),
            instance,
            payload_bits: u64::from(flow.size_bits),
            duration_ns: duration,
            missed_window,
        });
        outcomes.push(GatewayOutcome {
            flow: flow_id,
            instance,
            arrival,
            departure,
            delivery: departure + duration,
            missed_window,
        });
    }
    outcomes
}

/// First occurrence of a pattern window (offset `start` into each
/// hypercycle) at or after `earliest`.
fn next_occurrence(start: SimDuration, hyper: SimDuration, earliest: SimTime) -> SimTime {
    let first = SimTime::ZERO + start;
    if earliest <= first {
        return first;
    }
    let gap = earliest.saturating_duration_since(first).as_nanos();
    let repeats = gap.div_ceil(hyper.as_nanos());
    first + hyper * repeats
}

/// Peak number of frames simultaneously inside the gateway per port
/// (queued but not yet departed), from a set of outcomes.
pub fn peak_queue_depths(topology: &Topology, outcomes: &[GatewayOutcome]) -> Vec<u64> {
    let mut peaks = vec![0u64; topology.ports.len()];
    for (port, peak) in peaks.iter_mut().enumerate() {
        // (time, +1 for arrival / -1 for departure); departures sort
        // before arrivals at the same instant, so a frame leaving as
        // another lands is not double-counted.
        let mut edges: Vec<(SimTime, i64)> = Vec::new();
        for o in outcomes {
            let flow = topology.flows.iter().find(|f| f.id == o.flow);
            if flow.map(|f| topology.egress_port(f)) != Some(port) {
                continue;
            }
            edges.push((o.arrival, 1));
            edges.push((o.departure, -1));
        }
        edges.sort_by_key(|&(t, delta)| (t, delta));
        let mut depth = 0i64;
        for (_, delta) in edges {
            depth += delta;
            *peak = (*peak).max(depth.max(0) as u64);
        }
    }
    peaks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reservation::PER_CYCLE;
    use crate::topology;

    #[test]
    fn next_occurrence_wraps_hypercycles() {
        let hyper = SimDuration::from_millis(10);
        let start = SimDuration::from_millis(3);
        assert_eq!(
            next_occurrence(start, hyper, SimTime::ZERO),
            SimTime::ZERO + start
        );
        assert_eq!(
            next_occurrence(start, hyper, SimTime::from_millis(3)),
            SimTime::from_millis(3)
        );
        assert_eq!(
            next_occurrence(start, hyper, SimTime::from_nanos(3_000_001)),
            SimTime::from_millis(13)
        );
    }

    #[test]
    fn instances_consume_distinct_occurrences() {
        let t = topology::default_topology();
        let plan = (PER_CYCLE.plan)(t);
        let flow = t.flows[0].id;
        // Two frames arriving together must take two different windows.
        let arrivals = vec![
            (SimTime::from_millis(1), flow, 0),
            (SimTime::from_millis(1), flow, 1),
        ];
        let out = simulate_gateway(t, &plan, &arrivals, &Tracer::disabled());
        assert_eq!(out.len(), 2);
        assert!(out[1].departure > out[0].departure);
        assert!(out.iter().all(|o| o.delivery > o.departure));
    }
}
