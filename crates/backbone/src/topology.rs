//! Backbone topologies: two FlexRay domains, one TT-Ethernet gateway.
//!
//! A [`Topology`] pins the shared FlexRay cluster geometry, the Ethernet
//! base period, the per-port gate-control lists and the end-to-end flow
//! population. Named presets live in a registry ([`all`]) resolved
//! through [`coefficient::registry::lookup`], so topology names flow from
//! CLI flags and corpus files straight to a preset.

use std::sync::OnceLock;

use coefficient::Named;
use event_sim::{SimDuration, SimTime};
use flexray::config::ClusterConfig;

/// Number of FlexRay domains a gateway bridges. Frames from domain `d`
/// leave the gateway through egress port `d`.
pub const DOMAINS: u8 = 2;

/// Task-id offset distinguishing actuator tasks from sensor tasks on a
/// domain CPU (sensor task id = flow id, actuator task id = flow id +
/// this).
pub const ACTUATOR_TASK_BASE: u32 = 1_000_000;

/// One TT-Ethernet egress port of the gateway: a link rate plus a
/// gate-control list of `gates` equal windows per base period.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortSpec {
    /// Link rate in bits per second.
    pub rate_bps: u64,
    /// Gate windows per Ethernet base period. The base period must divide
    /// evenly into this many windows.
    pub gates: u32,
}

/// One end-to-end flow: sensor task → FlexRay slot → gateway queue →
/// Ethernet gate window → actuator task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowSpec {
    /// Flow identifier; doubles as the FlexRay frame id on the source
    /// domain and the sensor task id on the source CPU.
    pub id: u32,
    /// Domain producing the flow (0 or 1); the flow leaves the gateway
    /// through egress port `source_domain`.
    pub source_domain: u8,
    /// Payload length in bits, used on both the FlexRay and Ethernet legs.
    pub size_bits: u32,
    /// Generation period of the sensor task and the FlexRay signal. Must
    /// divide the topology hypercycle.
    pub period: SimDuration,
    /// Worst-case execution time of the sensor task.
    pub sensor_wcet: SimDuration,
    /// Worst-case execution time of the actuator task.
    pub actuator_wcet: SimDuration,
    /// Declared bound on end-to-end jitter (max − min observed latency);
    /// the runner flags flows whose observed jitter exceeds it.
    pub jitter_bound: SimDuration,
}

impl FlowSpec {
    /// The domain whose CPU runs the actuator task (the other domain).
    pub fn dest_domain(&self) -> u8 {
        1 - self.source_domain
    }

    /// Release instant of the flow's `k`-th instance (offset-free).
    pub fn release(&self, k: u64) -> SimTime {
        SimTime::ZERO + self.period * k
    }
}

/// A full backbone topology: cluster geometry shared by both FlexRay
/// domains, the Ethernet schedule and the flow population.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Registry name (e.g. `paper-duplex`).
    pub name: String,
    /// One-line description for `--help`-style listings.
    pub summary: String,
    /// FlexRay geometry used by both domains.
    pub cluster: ClusterConfig,
    /// Ethernet base period; the GCL repeats every base period unless a
    /// hypercycle-level reservation policy overrides it.
    pub eth_base: SimDuration,
    /// Egress ports, indexed by source domain (always [`DOMAINS`] many).
    pub ports: Vec<PortSpec>,
    /// The end-to-end flows.
    pub flows: Vec<FlowSpec>,
}

impl Topology {
    /// The hypercycle: LCM of the FlexRay cycle and the Ethernet base
    /// period.
    pub fn hypercycle(&self) -> SimDuration {
        self.cluster.hypercycle(self.eth_base)
    }

    /// Ethernet base periods per hypercycle.
    pub fn base_periods_per_hypercycle(&self) -> u64 {
        self.hypercycle().as_nanos() / self.eth_base.as_nanos()
    }

    /// Duration of one gate window on `port`.
    pub fn gate_length(&self, port: usize) -> SimDuration {
        self.eth_base / u64::from(self.ports[port].gates)
    }

    /// Wire occupancy of a `bits`-bit frame on `port` (ceiling in
    /// nanoseconds).
    pub fn tx_duration(&self, port: usize, bits: u32) -> SimDuration {
        let ns = (u64::from(bits) * 1_000_000_000).div_ceil(self.ports[port].rate_bps);
        SimDuration::from_nanos(ns)
    }

    /// Egress port carrying `flow` (its source domain's port).
    pub fn egress_port(&self, flow: &FlowSpec) -> usize {
        usize::from(flow.source_domain)
    }

    /// Instances of `flow` released per hypercycle.
    pub fn instances_per_hypercycle(&self, flow: &FlowSpec) -> u64 {
        self.hypercycle().as_nanos() / flow.period.as_nanos()
    }

    /// Structural validation; every registry preset passes.
    ///
    /// # Errors
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.ports.len() != usize::from(DOMAINS) {
            return Err(format!(
                "topology {:?} must have exactly {DOMAINS} egress ports",
                self.name
            ));
        }
        for (i, port) in self.ports.iter().enumerate() {
            if port.gates == 0 || port.rate_bps == 0 {
                return Err(format!("port {i} must have gates and a link rate"));
            }
            if !self
                .eth_base
                .as_nanos()
                .is_multiple_of(u64::from(port.gates))
            {
                return Err(format!(
                    "port {i}: base period {} ns does not divide into {} gates",
                    self.eth_base.as_nanos(),
                    port.gates
                ));
            }
        }
        let hyper = self.hypercycle().as_nanos();
        let mut seen = std::collections::BTreeSet::new();
        for flow in &self.flows {
            if !seen.insert(flow.id) {
                return Err(format!("duplicate flow id {}", flow.id));
            }
            if flow.source_domain >= DOMAINS {
                return Err(format!("flow {}: bad source domain", flow.id));
            }
            if flow.period.is_zero() || !hyper.is_multiple_of(flow.period.as_nanos()) {
                return Err(format!(
                    "flow {}: period {} ns must divide the hypercycle {} ns",
                    flow.id,
                    flow.period.as_nanos(),
                    hyper
                ));
            }
            if flow.size_bits == 0 || flow.sensor_wcet.is_zero() || flow.actuator_wcet.is_zero() {
                return Err(format!("flow {}: zero size or wcet", flow.id));
            }
            if flow.jitter_bound.is_zero() {
                return Err(format!("flow {}: zero jitter bound", flow.id));
            }
        }
        Ok(())
    }
}

fn flow(
    id: u32,
    source_domain: u8,
    size_bits: u32,
    period_ms: u64,
    jitter_bound_ms: u64,
) -> FlowSpec {
    FlowSpec {
        id,
        source_domain,
        size_bits,
        period: SimDuration::from_millis(period_ms),
        sensor_wcet: SimDuration::from_micros(100),
        actuator_wcet: SimDuration::from_micros(100),
        jitter_bound: SimDuration::from_millis(jitter_bound_ms),
    }
}

/// `paper-duplex`: the paper's mixed geometry on both domains, a 2 ms
/// Ethernet base period (hypercycle 10 ms) and 8 × 250 µs gates per
/// 100 Mb/s port. Port 0 carries ten forward flows — two more than the
/// per-cycle baseline's eight gate columns, so the hypercycle policy's
/// reclaimed windows are visible as extra admissions.
fn paper_duplex() -> Topology {
    let mut flows = Vec::new();
    // Ten forward flows (domain 0 → 1): six at 5 ms, four at 10 ms.
    for id in 1..=6u32 {
        flows.push(flow(id, 0, 800 + 128 * id, 5, 16));
    }
    for id in 7..=10u32 {
        flows.push(flow(id, 0, 1200 + 64 * id, 10, 21));
    }
    // Four reverse flows (domain 1 → 0) at 10 ms; admitted by both
    // policies, they keep the second domain and port busy.
    for id in 11..=14u32 {
        flows.push(flow(id, 1, 640 + 96 * id, 10, 21));
    }
    Topology {
        name: "paper-duplex".into(),
        summary: "paper mixed geometry ×2, 2 ms base, 8 gates/port, 14 flows (10 forward)".into(),
        cluster: ClusterConfig::paper_mixed(50),
        eth_base: SimDuration::from_millis(2),
        ports: vec![
            PortSpec {
                rate_bps: 100_000_000,
                gates: 8,
            },
            PortSpec {
                rate_bps: 100_000_000,
                gates: 8,
            },
        ],
        flows,
    }
}

/// `tight-backbone`: a 2.5 ms base period (hypercycle 5 ms) with only
/// 4 × 625 µs gates per port; six forward flows contend for four gate
/// columns, so the per-cycle baseline rejects two that the hypercycle
/// policy recovers.
fn tight_backbone() -> Topology {
    let mut flows = Vec::new();
    for id in 1..=6u32 {
        flows.push(flow(id, 0, 512 + 100 * id, 5, 11));
    }
    for id in 7..=8u32 {
        flows.push(flow(id, 1, 1024, 5, 11));
    }
    Topology {
        name: "tight-backbone".into(),
        summary: "2.5 ms base, 4 gates/port, 8 flows (6 forward vs 4 columns)".into(),
        cluster: ClusterConfig::paper_mixed(50),
        eth_base: SimDuration::from_nanos(2_500_000),
        ports: vec![
            PortSpec {
                rate_bps: 100_000_000,
                gates: 4,
            },
            PortSpec {
                rate_bps: 100_000_000,
                gates: 4,
            },
        ],
        flows,
    }
}

/// Every registered topology, in registry order.
pub fn all() -> &'static [Topology] {
    static TOPOLOGIES: OnceLock<Vec<Topology>> = OnceLock::new();
    TOPOLOGIES.get_or_init(|| {
        let presets = vec![paper_duplex(), tight_backbone()];
        for preset in &presets {
            preset
                .validate()
                .unwrap_or_else(|e| panic!("invalid preset topology: {e}"));
        }
        presets
    })
}

/// The default topology for pinned matrices (`paper-duplex`).
pub fn default_topology() -> &'static Topology {
    &all()[0]
}

impl Named for Topology {
    const KIND: &'static str = "topology";
    fn key(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate_under_their_registry_names() {
        assert_eq!(
            coefficient::registry::keys(all()),
            vec!["paper-duplex", "tight-backbone"]
        );
    }

    #[test]
    fn paper_duplex_arithmetic() {
        let t = default_topology();
        assert_eq!(t.hypercycle(), SimDuration::from_millis(10));
        assert_eq!(t.base_periods_per_hypercycle(), 5);
        assert_eq!(t.gate_length(0), SimDuration::from_micros(250));
        // 1600 bits at 100 Mb/s = 16 µs, comfortably inside a gate.
        assert_eq!(t.tx_duration(0, 1600), SimDuration::from_micros(16));
        assert_eq!(t.instances_per_hypercycle(&t.flows[0]), 2);
    }
}
