//! The backbone cell runner and parallel matrix driver.
//!
//! A **cell** is one `(topology, reservation, scenario, seed)` point.
//! Running it composes every layer of the workspace: the flows become
//! FlexRay static signals simulated by [`coefficient::Runner`] per
//! domain, sensor/actuator CPUs are simulated by [`tasks::simulate`],
//! the gateway forwards frames through the reservation plan's gate
//! windows ([`crate::gateway`]), and per-flow end-to-end latency lands
//! in all-integer [`FlowCounters`] plus a replayable fingerprint.

use coefficient::{parallel_map, RunConfig, Runner, Scenario, StopCondition};
use event_sim::rng::{derive, Digest};
use event_sim::{SimDuration, SimTime};
use flexray::signal::Signal;
use metrics::LogHistogram;
use observe::Tracer;
use tasks::{simulate, ExecutionTrace, PeriodicTask, TaskSet};

use crate::flow::FlowCounters;
use crate::gateway::{peak_queue_depths, simulate_gateway, GatewayArrival};
use crate::reservation::{ReservationRef, ALL_RESERVATIONS};
use crate::topology::{Topology, ACTUATOR_TASK_BASE, DOMAINS};

/// Tag namespace for [`FlowCounters`] fields in cell fingerprints
/// (`BKFL` + field index); each counter folds in only when non-zero.
const FLOW_COUNTER_TAG: u64 = 0x424B_464C_0000;

/// Simulated hypercycles measured per cell (plus drain margin).
pub const DEFAULT_HYPERCYCLES: u64 = 8;

/// An error from assembling or running a backbone cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackboneError(pub String);

impl std::fmt::Display for BackboneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "backbone: {}", self.0)
    }
}

impl std::error::Error for BackboneError {}

/// One matrix cell: a topology under one reservation policy, scenario
/// and seed.
#[derive(Debug, Clone)]
pub struct CellSpec<'a> {
    /// The topology under test.
    pub topology: &'a Topology,
    /// The reservation policy under test.
    pub reservation: ReservationRef,
    /// Fault scenario driving both FlexRay domains.
    pub scenario: Scenario,
    /// Master seed; per-domain streams derive from it.
    pub seed: u64,
    /// Hypercycles in the measured span.
    pub hypercycles: u64,
}

/// Per-port reservation and runtime statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PortStats {
    /// Gate windows in one hypercycle.
    pub windows_total: u64,
    /// Windows the plan reserved.
    pub windows_reserved: u64,
    /// Frames the port carried in the measured span.
    pub frames: u64,
    /// Frames that waited at least one hypercycle for their window.
    pub missed_windows: u64,
    /// Peak simultaneous frames inside the gateway for this port.
    pub peak_queue: u64,
}

/// One flow's outcome within a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowOutcome {
    /// The flow id.
    pub flow: u32,
    /// Whether the reservation policy admitted the flow.
    pub admitted: bool,
    /// Declared jitter bound, nanoseconds.
    pub jitter_bound_ns: u64,
    /// End-to-end counters (all zero when rejected).
    pub counters: FlowCounters,
    /// Median end-to-end latency upper bound, nanoseconds (0 if none).
    pub p50_ns: u64,
    /// 99th-percentile end-to-end latency upper bound, nanoseconds.
    pub p99_ns: u64,
}

/// The replayable result of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Topology name.
    pub topology: String,
    /// Reservation registry key.
    pub reservation: &'static str,
    /// Reservation fingerprint tag.
    pub reservation_tag: u64,
    /// Scenario name.
    pub scenario: String,
    /// Master seed.
    pub seed: u64,
    /// Measured hypercycles.
    pub hypercycles: u64,
    /// Hypercycle length, nanoseconds.
    pub hypercycle_ns: u64,
    /// Admitted flows.
    pub admitted: u64,
    /// Per-flow outcomes, in topology flow order.
    pub flows: Vec<FlowOutcome>,
    /// Per-port statistics.
    pub ports: Vec<PortStats>,
    /// Fingerprint of each domain's FlexRay run (0 for an idle domain).
    pub domain_fingerprints: Vec<u64>,
    /// Admitted flows whose observed jitter exceeded the declared bound.
    pub jitter_violations: u64,
}

impl CellReport {
    /// Order-independent digest of everything the cell observed; two
    /// replays (any thread count) must agree bit for bit. [`FlowCounters`]
    /// fields fold in tagged and only when non-zero, so adding a counter
    /// later keeps old fingerprints stable while it stays zero.
    pub fn fingerprint(&self) -> u64 {
        let mut d = Digest::new();
        d.push_bytes(self.topology.as_bytes());
        d.push(self.reservation_tag);
        d.push_bytes(self.scenario.as_bytes());
        d.push(self.seed);
        d.push(self.hypercycles);
        d.push(self.hypercycle_ns);
        d.push(self.admitted);
        for fp in &self.domain_fingerprints {
            d.push(*fp);
        }
        for port in &self.ports {
            d.push(port.windows_total);
            d.push(port.windows_reserved);
            d.push(port.frames);
            d.push(port.missed_windows);
            d.push(port.peak_queue);
        }
        for flow in &self.flows {
            d.push(u64::from(flow.flow));
            d.push(u64::from(flow.admitted));
            for (i, (_, value)) in flow.counters.fields().into_iter().enumerate() {
                if value != 0 {
                    d.push(FLOW_COUNTER_TAG | i as u64);
                    d.push(value);
                }
            }
        }
        d.finish()
    }
}

/// One domain's simulated legs: the FlexRay bus run and the CPU
/// schedule of its sensor and actuator tasks.
struct DomainSim {
    fingerprint: u64,
    /// Delivery instant of instance `k` of each flow sourced here,
    /// indexed by position in `Topology::flows`.
    deliveries: Vec<Vec<Option<SimTime>>>,
    cpu: Option<ExecutionTrace>,
}

fn err(e: impl std::fmt::Display) -> BackboneError {
    BackboneError(e.to_string())
}

/// Simulates one domain: its flows as FlexRay statics under the cell's
/// scenario, and its CPU running sensor tasks (flows sourced here) plus
/// actuator tasks (flows terminating here).
fn simulate_domain(
    spec: &CellSpec<'_>,
    domain: u8,
    releases: &[u64],
    span: SimDuration,
    hyper: SimDuration,
) -> Result<DomainSim, BackboneError> {
    let t = spec.topology;
    let sourced: Vec<usize> = (0..t.flows.len())
        .filter(|&i| t.flows[i].source_domain == domain)
        .collect();
    let mut deliveries = vec![Vec::new(); t.flows.len()];
    let mut fingerprint = 0;
    if !sourced.is_empty() {
        let statics: Vec<Signal> = sourced
            .iter()
            .map(|&i| {
                let f = &t.flows[i];
                Signal::new(f.id, f.period, SimDuration::ZERO, f.period, f.size_bits)
            })
            .collect();
        let (report, instances) = Runner::new(RunConfig {
            cluster: t.cluster.clone(),
            scenario: spec.scenario.clone(),
            static_messages: statics,
            dynamic_messages: Vec::new(),
            policy: coefficient::COEFFICIENT,
            stop: StopCondition::Horizon(span + hyper),
            seed: derive(spec.seed, "backbone/domain", u64::from(domain)),
            trace: Default::default(),
        })
        .map_err(err)?
        .run_with_instances();
        fingerprint = report.fingerprint();
        for &i in &sourced {
            let flow = &t.flows[i];
            deliveries[i] = instances
                .iter()
                .filter(|s| s.message == flow.id)
                .take(releases[i] as usize)
                .map(|s| s.delivered_at)
                .collect();
            // Instances the bus never produced (horizon margin too
            // tight) count as undelivered rather than panicking.
            deliveries[i].resize(releases[i] as usize, None);
        }
    }
    let mut cpu_tasks = Vec::new();
    for flow in &t.flows {
        if flow.source_domain == domain {
            cpu_tasks.push(PeriodicTask::new(
                flow.id,
                flow.sensor_wcet,
                flow.period,
                flow.period,
            ));
        }
        if flow.dest_domain() == domain {
            cpu_tasks.push(PeriodicTask::new(
                ACTUATOR_TASK_BASE + flow.id,
                flow.actuator_wcet,
                flow.period,
                flow.period,
            ));
        }
    }
    let cpu = if cpu_tasks.is_empty() {
        None
    } else {
        let set = TaskSet::deadline_monotonic(cpu_tasks).map_err(err)?;
        Some(simulate(&set, SimTime::ZERO + span + hyper * 2))
    };
    Ok(DomainSim {
        fingerprint,
        deliveries,
        cpu,
    })
}

/// Runs one cell to a [`CellReport`].
///
/// # Errors
/// Returns [`BackboneError`] when the topology fails validation or a
/// domain simulation cannot be assembled; the registry presets never do.
pub fn run_cell(spec: &CellSpec<'_>) -> Result<CellReport, BackboneError> {
    run_cell_traced(spec, &Tracer::disabled())
}

/// [`run_cell`], but emitting gateway/Ethernet events through `tracer`.
/// Tracing is pure observation: the report is byte-identical to
/// [`run_cell`]'s.
pub fn run_cell_traced(spec: &CellSpec<'_>, tracer: &Tracer) -> Result<CellReport, BackboneError> {
    let t = spec.topology;
    t.validate().map_err(BackboneError)?;
    assert!(spec.hypercycles > 0, "cell must span at least 1 hypercycle");
    let hyper = t.hypercycle();
    let span = hyper * spec.hypercycles;
    let plan = (spec.reservation.plan)(t);
    // Instances released inside the measured span, per flow.
    let releases: Vec<u64> = t
        .flows
        .iter()
        .map(|f| span.as_nanos() / f.period.as_nanos())
        .collect();
    let domains: Vec<DomainSim> = (0..DOMAINS)
        .map(|d| simulate_domain(spec, d, &releases, span, hyper))
        .collect::<Result<_, _>>()?;

    // Stage fold: sensor completion + FlexRay delivery → gateway arrival.
    let mut counters = vec![FlowCounters::default(); t.flows.len()];
    let mut arrivals: Vec<GatewayArrival> = Vec::new();
    for (i, flow) in t.flows.iter().enumerate() {
        let admitted = plan.flows[i].admitted;
        if !admitted {
            continue;
        }
        counters[i].instances = releases[i];
        let source = &domains[usize::from(flow.source_domain)];
        let sensor = source.cpu.as_ref().expect("source domain has tasks");
        for k in 0..releases[i] {
            let completed = sensor.completion_of_job(flow.id, k).map(|c| c.completion);
            let delivered = source.deliveries[i][k as usize];
            match (completed, delivered) {
                (Some(c), Some(d)) => arrivals.push((c.max(d), flow.id, k)),
                _ => counters[i].lost += 1,
            }
        }
    }

    let outcomes = simulate_gateway(t, &plan, &arrivals, tracer);
    let peaks = peak_queue_depths(t, &outcomes);

    // Stage fold: Ethernet delivery → actuator job → end-to-end latency.
    let mut hists: Vec<LogHistogram> = t.flows.iter().map(|_| LogHistogram::new(4)).collect();
    let mut ports = vec![PortStats::default(); t.ports.len()];
    for (port, stats) in ports.iter_mut().enumerate() {
        stats.windows_total = plan.ports[port].windows_total();
        stats.windows_reserved = plan.ports[port].windows_reserved();
        stats.peak_queue = peaks[port];
    }
    for outcome in &outcomes {
        let i = t
            .flows
            .iter()
            .position(|f| f.id == outcome.flow)
            .expect("outcomes come from topology flows");
        let flow = &t.flows[i];
        let port = t.egress_port(flow);
        ports[port].frames += 1;
        if outcome.missed_window {
            ports[port].missed_windows += 1;
            counters[i].missed_windows += 1;
        }
        let dest = &domains[usize::from(flow.dest_domain())];
        let actuator = PeriodicTask::new(
            ACTUATOR_TASK_BASE + flow.id,
            flow.actuator_wcet,
            flow.period,
            flow.period,
        );
        let job = actuator.first_job_at_or_after(outcome.delivery);
        let actuated = dest
            .cpu
            .as_ref()
            .and_then(|cpu| cpu.completion_of_job(actuator.id(), job))
            .map(|c| c.completion);
        match actuated {
            Some(done) => {
                let release = flow.release(outcome.instance);
                let latency = done.saturating_duration_since(release);
                counters[i].record_latency(latency);
                hists[i].record(latency.as_nanos());
            }
            None => counters[i].lost += 1,
        }
    }

    let mut flows = Vec::with_capacity(t.flows.len());
    let mut jitter_violations = 0;
    for (i, flow) in t.flows.iter().enumerate() {
        let admitted = plan.flows[i].admitted;
        if admitted && counters[i].jitter_ns > flow.jitter_bound.as_nanos() {
            jitter_violations += 1;
        }
        flows.push(FlowOutcome {
            flow: flow.id,
            admitted,
            jitter_bound_ns: flow.jitter_bound.as_nanos(),
            counters: counters[i],
            p50_ns: hists[i].quantile_upper_bound(0.50).unwrap_or(0),
            p99_ns: hists[i].quantile_upper_bound(0.99).unwrap_or(0),
        });
    }
    Ok(CellReport {
        topology: t.name.clone(),
        reservation: spec.reservation.key,
        reservation_tag: spec.reservation.fingerprint_tag,
        scenario: spec.scenario.name.to_string(),
        seed: spec.seed,
        hypercycles: spec.hypercycles,
        hypercycle_ns: hyper.as_nanos(),
        admitted: plan.admitted(),
        flows,
        ports,
        domain_fingerprints: domains.iter().map(|d| d.fingerprint).collect(),
        jitter_violations,
    })
}

/// A full backbone matrix: one topology × reservations × scenarios ×
/// seeds, in that (row-major) cell order.
#[derive(Debug, Clone)]
pub struct MatrixSpec {
    /// The topology under test.
    pub topology: &'static Topology,
    /// Reservation policies, outermost dimension.
    pub reservations: Vec<ReservationRef>,
    /// Fault scenarios.
    pub scenarios: Vec<Scenario>,
    /// Master seeds, innermost dimension.
    pub seeds: Vec<u64>,
    /// Hypercycles per cell.
    pub hypercycles: u64,
}

impl MatrixSpec {
    /// The pinned matrix `experiments backbone` and the golden corpus
    /// run: every reservation policy × {BER-7, BER-7 storm} × one seed.
    pub fn pinned(topology: &'static Topology) -> MatrixSpec {
        MatrixSpec {
            topology,
            reservations: ALL_RESERVATIONS.to_vec(),
            scenarios: vec![Scenario::ber7(), Scenario::ber7().storm()],
            seeds: vec![1],
            hypercycles: DEFAULT_HYPERCYCLES,
        }
    }

    /// The cells, in report order.
    pub fn cells(&self) -> Vec<CellSpec<'static>> {
        let mut cells = Vec::new();
        for &reservation in &self.reservations {
            for scenario in &self.scenarios {
                for &seed in &self.seeds {
                    cells.push(CellSpec {
                        topology: self.topology,
                        reservation,
                        scenario: scenario.clone(),
                        seed,
                        hypercycles: self.hypercycles,
                    });
                }
            }
        }
        cells
    }
}

/// Runs every cell of the matrix, fanning out over `threads` workers.
///
/// Workers claim cells from a shared queue and write results into the
/// cell's own slot, so the report vector — and every fingerprint in it —
/// is byte-identical for any worker count.
///
/// # Errors
/// Returns the first failing cell's [`BackboneError`] (by cell order).
pub fn run_matrix(spec: &MatrixSpec, threads: usize) -> Result<Vec<CellReport>, BackboneError> {
    parallel_map(spec.cells(), threads.max(1), |cell| run_cell(&cell))
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reservation::{HYPERCYCLE, PER_CYCLE};
    use crate::topology;

    fn quick_spec(reservation: ReservationRef) -> CellSpec<'static> {
        CellSpec {
            topology: topology::default_topology(),
            reservation,
            scenario: Scenario::ber7(),
            seed: 1,
            hypercycles: 4,
        }
    }

    #[test]
    fn paper_duplex_cell_delivers_flows() {
        let report = run_cell(&quick_spec(HYPERCYCLE)).unwrap();
        assert_eq!(report.admitted, 14);
        assert_eq!(report.jitter_violations, 0);
        let delivered: u64 = report.flows.iter().map(|f| f.counters.delivered).sum();
        assert!(delivered > 0, "no flow delivered end to end");
        for flow in report.flows.iter().filter(|f| f.admitted) {
            assert!(flow.counters.instances > 0);
            assert_eq!(
                flow.counters.instances,
                flow.counters.delivered + flow.counters.lost,
                "flow {} instance accounting",
                flow.flow
            );
        }
    }

    #[test]
    fn hypercycle_beats_per_cycle_admission() {
        let per_cycle = run_cell(&quick_spec(PER_CYCLE)).unwrap();
        let hyper = run_cell(&quick_spec(HYPERCYCLE)).unwrap();
        assert!(hyper.admitted > per_cycle.admitted);
    }

    #[test]
    fn reports_are_replayable_and_thread_invariant() {
        let a = run_cell(&quick_spec(PER_CYCLE)).unwrap();
        let b = run_cell(&quick_spec(PER_CYCLE)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let spec = MatrixSpec {
            hypercycles: 2,
            ..MatrixSpec::pinned(topology::default_topology())
        };
        let serial = run_matrix(&spec, 1).unwrap();
        let parallel = run_matrix(&spec, 4).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn tracing_is_pure_observation() {
        let tracer = Tracer::ring(1 << 16);
        let traced = run_cell_traced(&quick_spec(HYPERCYCLE), &tracer).unwrap();
        let untraced = run_cell(&quick_spec(HYPERCYCLE)).unwrap();
        assert_eq!(traced, untraced);
        let log = tracer.take_log().expect("the tracer is enabled");
        assert!(
            log.events
                .iter()
                .any(|e| matches!(e.kind, observe::EventKind::EthernetFrame { .. })),
            "gateway emitted no ethernet events"
        );
    }
}
