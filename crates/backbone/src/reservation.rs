//! Gate-window reservation policies behind a string-keyed registry.
//!
//! A reservation policy turns a [`Topology`] into a [`ReservationPlan`]:
//! which flows are admitted, and which gate windows of the hypercycle
//! each admitted flow owns. The two registered policies bracket the
//! design space:
//!
//! * [`PER_CYCLE`] reserves one gate *column* per flow — the same window
//!   in every Ethernet base period — the way a period-agnostic GCL is
//!   provisioned in practice.
//! * [`HYPERCYCLE`] starts from the per-cycle admission, keeps only the
//!   windows each instance actually needs, and re-assigns the reclaimed
//!   windows to flows the per-cycle policy rejected. Its admitted set is
//!   therefore a superset of the baseline's **by construction**.
//!
//! Each policy is a [`Reservation`] row of [`ALL_RESERVATIONS`], resolved
//! by name through [`coefficient::registry::lookup`] like every other
//! registry.

use std::collections::BTreeSet;

use coefficient::Named;
use event_sim::SimDuration;

use crate::topology::{FlowSpec, Topology};

/// Per-port reserved-window map: `occupancy[p * gates + g]` names the
/// flow owning gate `g` of base period `p`, if any.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortPlan {
    /// Owner of each window in the hypercycle pattern, indexed by
    /// `period_index * gates + gate_index`.
    pub occupancy: Vec<Option<u32>>,
}

impl PortPlan {
    /// Reserved windows in one hypercycle.
    pub fn windows_reserved(&self) -> u64 {
        self.occupancy.iter().filter(|w| w.is_some()).count() as u64
    }

    /// Total windows in one hypercycle.
    pub fn windows_total(&self) -> u64 {
        self.occupancy.len() as u64
    }
}

/// One flow's admission outcome and owned windows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowPlan {
    /// The flow id.
    pub flow: u32,
    /// Egress port the flow is (or would be) carried on.
    pub port: usize,
    /// Whether the policy admitted the flow.
    pub admitted: bool,
    /// Owned windows of the hypercycle pattern, as
    /// `period_index * gates + gate_index`, ascending (which is also
    /// ascending start order). The pattern repeats every hypercycle.
    /// Empty when rejected.
    pub windows: Vec<u64>,
}

/// A full reservation: per-port occupancy plus per-flow admissions, in
/// topology flow order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReservationPlan {
    /// Occupancy per egress port.
    pub ports: Vec<PortPlan>,
    /// Admission outcome per flow, in [`Topology::flows`] order.
    pub flows: Vec<FlowPlan>,
}

impl ReservationPlan {
    /// Number of admitted flows.
    pub fn admitted(&self) -> u64 {
        self.flows.iter().filter(|f| f.admitted).count() as u64
    }

    /// The plan entry for `flow`, if the topology declares it.
    pub fn flow_plan(&self, flow: u32) -> Option<&FlowPlan> {
        self.flows.iter().find(|f| f.flow == flow)
    }
}

/// Start of pattern window `w` on `port`, as an offset into the
/// hypercycle.
pub fn window_start(topology: &Topology, port: usize, w: u64) -> SimDuration {
    let gates = u64::from(topology.ports[port].gates);
    let period = w / gates;
    let gate = w % gates;
    topology.eth_base * period + topology.gate_length(port) * gate
}

/// A gate-window reservation policy: one registry row.
#[derive(Debug)]
pub struct Reservation {
    /// Stable registry key (lower-case, also the corpus/report name).
    pub key: &'static str,
    /// Human-facing label.
    pub label: &'static str,
    /// Alternative names the lookup accepts.
    pub aliases: &'static [&'static str],
    /// Stable tag folded into run fingerprints. Frozen once published.
    pub fingerprint_tag: u64,
    /// Plans the topology's flows onto gate windows.
    pub plan: fn(&Topology) -> ReservationPlan,
}

/// A `'static` reservation reference, as stored in registries and specs.
pub type ReservationRef = &'static Reservation;

impl Named for Reservation {
    const KIND: &'static str = "reservation";
    fn key(&self) -> &str {
        self.key
    }
    fn label(&self) -> &str {
        self.label
    }
    fn aliases(&self) -> &[&str] {
        self.aliases
    }
}

/// How far after an instance's release the planner assumes its frame has
/// reached the gateway (sensor completion + FlexRay delivery). One
/// FlexRay cycle is generous for the paper geometry: statics are
/// delivered in their release cycle and the sensor tasks run well under
/// one cycle.
fn arrival_bound(topology: &Topology) -> SimDuration {
    topology.cluster.cycle_duration()
}

/// Whether a single frame of `flow` fits one gate window of its port.
fn frame_fits(topology: &Topology, flow: &FlowSpec) -> bool {
    let port = topology.egress_port(flow);
    topology.tx_duration(port, flow.size_bits) <= topology.gate_length(port)
}

fn empty_ports(topology: &Topology) -> Vec<PortPlan> {
    let periods = topology.base_periods_per_hypercycle();
    topology
        .ports
        .iter()
        .map(|p| PortPlan {
            occupancy: vec![None; (periods * u64::from(p.gates)) as usize],
        })
        .collect()
}

/// The per-cycle (gate-column) baseline.
pub static PER_CYCLE: ReservationRef = &Reservation {
    key: "per-cycle",
    label: "Per-cycle gate columns",
    aliases: &["percycle", "baseline"],
    fingerprint_tag: 0,
    plan: per_cycle_plan,
};

/// The hypercycle-level policy (reclaims the baseline's unused windows).
pub static HYPERCYCLE: ReservationRef = &Reservation {
    key: "hypercycle",
    label: "Hypercycle window packing",
    aliases: &["hyper"],
    fingerprint_tag: 1,
    plan: hypercycle_plan,
};

/// Every registered reservation policy, in registry order.
pub static ALL_RESERVATIONS: &[ReservationRef] = &[PER_CYCLE, HYPERCYCLE];

/// Per-cycle planning: each flow needs one gate index free in **every**
/// base period of its port, and its period must cover at least one base
/// period (a column window carries one frame per base period).
fn per_cycle_plan(topology: &Topology) -> ReservationPlan {
    let periods = topology.base_periods_per_hypercycle();
    let mut ports = empty_ports(topology);
    let mut flows = Vec::with_capacity(topology.flows.len());
    for flow in &topology.flows {
        let port = topology.egress_port(flow);
        let gates = u64::from(topology.ports[port].gates);
        let eligible = frame_fits(topology, flow) && flow.period >= topology.eth_base;
        let mut column = None;
        if eligible {
            column = (0..gates).find(|&g| {
                (0..periods).all(|p| ports[port].occupancy[(p * gates + g) as usize].is_none())
            });
        }
        match column {
            Some(g) => {
                let windows: Vec<u64> = (0..periods).map(|p| p * gates + g).collect();
                for &w in &windows {
                    ports[port].occupancy[w as usize] = Some(flow.id);
                }
                flows.push(FlowPlan {
                    flow: flow.id,
                    port,
                    admitted: true,
                    windows,
                });
            }
            None => flows.push(FlowPlan {
                flow: flow.id,
                port,
                admitted: false,
                windows: Vec::new(),
            }),
        }
    }
    ReservationPlan { ports, flows }
}

/// Picks, for each instance `k` of `flow`, the first candidate window at
/// or after the instance's planned gateway arrival, wrapping to the
/// earliest still-free candidate when the arrival falls past the end of
/// the hypercycle pattern (the instance then uses the pattern's next
/// repetition). Returns `None` if the candidates run out.
fn place_instances(
    topology: &Topology,
    flow: &FlowSpec,
    candidates: &[u64],
    starts: &[SimDuration],
) -> Option<Vec<u64>> {
    let instances = topology.instances_per_hypercycle(flow);
    let bound = arrival_bound(topology);
    let mut used = BTreeSet::new();
    for k in 0..instances {
        let target = flow.period * k + bound;
        let pick = (0..candidates.len())
            .find(|&i| !used.contains(&i) && starts[i] >= target)
            .or_else(|| (0..candidates.len()).find(|&i| !used.contains(&i)))?;
        used.insert(pick);
    }
    Some(used.iter().map(|&i| candidates[i]).collect())
}

/// Hypercycle planning: pass 1 re-admits every per-cycle flow with only
/// its per-instance windows (always possible — the column has one window
/// per base period and a column-eligible flow has at most that many
/// instances); pass 2 offers the reclaimed windows to rejected flows,
/// one window per instance, in declaration order.
fn hypercycle_plan(topology: &Topology) -> ReservationPlan {
    let base = per_cycle_plan(topology);
    let mut ports = empty_ports(topology);
    let mut flows = Vec::with_capacity(topology.flows.len());
    // Pass 1: keep the baseline's admissions, shrunk to per-instance
    // windows inside each flow's own gate column.
    for (flow, plan) in topology.flows.iter().zip(&base.flows) {
        let port = plan.port;
        if !plan.admitted {
            flows.push(FlowPlan {
                flow: flow.id,
                port,
                admitted: false,
                windows: Vec::new(),
            });
            continue;
        }
        let starts: Vec<SimDuration> = plan
            .windows
            .iter()
            .map(|&w| window_start(topology, port, w))
            .collect();
        let windows = place_instances(topology, flow, &plan.windows, &starts)
            .expect("a per-cycle column always covers its flow's instances");
        for &w in &windows {
            ports[port].occupancy[w as usize] = Some(flow.id);
        }
        flows.push(FlowPlan {
            flow: flow.id,
            port,
            admitted: true,
            windows,
        });
    }
    // Pass 2: place rejected flows into the reclaimed windows.
    for (flow, plan) in topology.flows.iter().zip(&base.flows) {
        if plan.admitted || !frame_fits(topology, flow) {
            continue;
        }
        let port = plan.port;
        let free: Vec<u64> = (0..ports[port].occupancy.len() as u64)
            .filter(|&w| ports[port].occupancy[w as usize].is_none())
            .collect();
        let starts: Vec<SimDuration> = free
            .iter()
            .map(|&w| window_start(topology, port, w))
            .collect();
        if let Some(windows) = place_instances(topology, flow, &free, &starts) {
            for &w in &windows {
                ports[port].occupancy[w as usize] = Some(flow.id);
            }
            let slot = flows
                .iter_mut()
                .find(|f| f.flow == flow.id)
                .expect("pass 1 records every flow");
            slot.admitted = true;
            slot.windows = windows;
        }
    }
    ReservationPlan { ports, flows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;
    use coefficient::registry::lookup;

    #[test]
    fn fingerprint_tags_are_frozen_and_unique() {
        let tags: Vec<u64> = ALL_RESERVATIONS.iter().map(|r| r.fingerprint_tag).collect();
        assert_eq!(tags, vec![0, 1]);
    }

    #[test]
    fn paper_duplex_hypercycle_admits_strictly_more() {
        let t = topology::default_topology();
        let per_cycle = (PER_CYCLE.plan)(t);
        let hyper = (HYPERCYCLE.plan)(t);
        // Port 0 carries ten forward flows against eight gate columns.
        assert_eq!(per_cycle.admitted(), 12);
        assert_eq!(hyper.admitted(), 14);
        for (a, b) in per_cycle.flows.iter().zip(&hyper.flows) {
            assert!(!a.admitted || b.admitted, "flow {} lost admission", a.flow);
        }
    }

    #[test]
    fn tight_backbone_recovers_two_flows() {
        let t = lookup(topology::all(), "tight-backbone").unwrap();
        assert_eq!((PER_CYCLE.plan)(t).admitted(), 6);
        assert_eq!((HYPERCYCLE.plan)(t).admitted(), 8);
    }

    #[test]
    fn occupancy_and_flow_windows_agree() {
        let t = topology::default_topology();
        for policy in ALL_RESERVATIONS {
            let plan = (policy.plan)(t);
            for fp in plan.flows.iter().filter(|f| f.admitted) {
                assert!(!fp.windows.is_empty());
                for &w in &fp.windows {
                    assert_eq!(plan.ports[fp.port].occupancy[w as usize], Some(fp.flow));
                }
            }
            let owned: u64 = plan.flows.iter().map(|f| f.windows.len() as u64).sum();
            let reserved: u64 = plan.ports.iter().map(|p| p.windows_reserved()).sum();
            assert_eq!(owned, reserved, "window double-booked under {}", policy.key);
        }
    }
}
