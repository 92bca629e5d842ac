//! Brake-By-Wire case study (the paper's Table II workload).
//!
//! Shows the full CoEfficient pipeline on the safety-critical BBW message
//! set: the differentiated retransmission plan, the static allocation with
//! stolen-slack copies, and the resulting end-to-end metrics under
//! transient faults.
//!
//! ```text
//! cargo run --example brake_by_wire
//! ```

use coefficient::{RunConfig, Runner, Scenario, StopCondition, COEFFICIENT, FSPEC};
use event_sim::SimDuration;
use flexray::codec::FrameCoding;
use flexray::config::ClusterConfig;
use reliability::{MessageReliability, RetransmissionPlanner};

fn main() {
    let bbw = workloads::bbw::message_set();
    let scenario = Scenario::ber7();
    let coding = FrameCoding;

    // --- 1. The reliability view: p_z per message --------------------------
    println!("Brake-By-Wire reliability analysis ({}):", scenario.ber);
    let rel: Vec<MessageReliability> = bbw
        .iter()
        .map(|s| {
            let wire = coding.message_wire_bits(u64::from(s.size_bits), false) as u32;
            MessageReliability::from_ber(s.id, wire, s.period, scenario.ber)
        })
        .collect();

    // --- 2. The differentiated retransmission plan -------------------------
    let plan = RetransmissionPlanner::new(rel.clone())
        .unit(scenario.unit)
        .plan_for_goal(scenario.reliability_goal())
        .expect("goal reachable for BBW at BER 1e-7");
    println!(
        "  goal ρ = {:.9} per hour  →  plan success = {:.9}",
        scenario.reliability_goal(),
        plan.success_probability()
    );
    println!("  msg  period  size     p_z          k_z");
    for (m, k) in plan.messages().iter().zip(plan.retransmission_counts()) {
        println!(
            "  {:>3}  {:>4}ms  {:>4}b  {:.3e}  {:>3}",
            m.id,
            m.period.as_millis(),
            bbw.iter()
                .find(|s| s.id == m.id)
                .map(|s| s.size_bits)
                .unwrap_or(0),
            m.failure_probability,
            k
        );
    }
    println!(
        "  extra bandwidth: {} bits per hour",
        plan.bandwidth_cost_bits()
    );

    // --- 3. Run the full simulation under both policies --------------------
    println!("\nEnd-to-end over 1 s of bus time (1 ms cycle, 50 minislots):");
    for policy in [COEFFICIENT, FSPEC] {
        let report = Runner::new(RunConfig {
            cluster: ClusterConfig::paper_dynamic(50),
            scenario: scenario.clone(),
            static_messages: bbw.clone(),
            dynamic_messages: vec![],
            policy,
            stop: StopCondition::Horizon(SimDuration::from_secs(1)),
            seed: 1,
            trace: Default::default(),
        })
        .expect("BBW fits the cluster")
        .run();
        println!(
            "  {:<12}  delivered {:>4}/{:<4}  mean latency {:>6.3} ms  misses {:>5.2}%  corrupted frames {}",
            format!("{:?}", report.policy),
            report.delivered,
            report.produced,
            report.static_latency.mean_millis_f64(),
            report.static_deadlines.miss_ratio() * 100.0,
            report.corrupted,
        );
    }
}
