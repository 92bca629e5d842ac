//! Exports a Perfetto-loadable timeline of one fault-storm run.
//!
//! Runs a single CoEfficient cell under the BER-7 storm scenario with
//! structured event tracing enabled, proves the trace changed nothing
//! (the traced fingerprint equals an untraced run's), and writes a
//! Chrome `trace_event` file. Open the output at <https://ui.perfetto.dev>
//! to see the per-channel slot occupancy, steal grants, retransmission
//! copies, fault hits, health transitions and counter time-series.
//!
//! ```text
//! cargo run --example trace_timeline [OUT.json]
//! ```

use coefficient::{RunConfig, Runner, Scenario, StopCondition, TraceConfig, COEFFICIENT};
use event_sim::SimDuration;
use flexray::config::ClusterConfig;

fn main() {
    let config = RunConfig {
        cluster: ClusterConfig::paper_mixed(50),
        scenario: Scenario::ber7().storm(),
        static_messages: workloads::bbw::message_set(),
        dynamic_messages: workloads::sae::message_set(workloads::sae::IdRange::For80Slots, 9),
        policy: COEFFICIENT,
        stop: StopCondition::Horizon(SimDuration::from_millis(100)),
        seed: 424242,
        trace: Default::default(),
    };

    // Baseline first: the untraced fingerprint the traced run must match.
    let untraced = Runner::new(config.clone())
        .expect("storm cell is schedulable")
        .run();

    let mut traced_config = config;
    traced_config.trace = TraceConfig::ring(1 << 20).sample_every(5);
    let report = Runner::new(traced_config)
        .expect("storm cell is schedulable")
        .run();
    assert_eq!(
        report.fingerprint(),
        untraced.fingerprint(),
        "tracing must not perturb the simulation"
    );

    let log = report.trace.as_ref().expect("tracing was enabled");
    let json = bench_harness::trace::chrome_json(log);

    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "trace_timeline.json".into());
    std::fs::write(&out, &json).expect("writable output path");

    println!(
        "storm cell: {:?} over {:?}",
        report.policy, report.running_time
    );
    println!(
        "  delivered {} / produced {}, {} corrupted, {} faults injected",
        report.delivered, report.produced, report.corrupted, report.counters.faults_injected
    );
    println!(
        "  {} trace events captured ({} dropped, ring capacity {})",
        log.events.len(),
        log.dropped,
        log.capacity
    );
    println!(
        "  fingerprint {:016x} — identical to the untraced run",
        report.fingerprint()
    );
    println!("\nwrote {out}; open it at https://ui.perfetto.dev");
}
