//! Dual-channel failover: a permanent fault kills channel A mid-run and
//! the redundancy design keeps safety messages flowing on channel B.
//!
//! Drives the scheduler against the bus engine directly (rather than
//! through `Runner`) to install an asymmetric scripted fault: a
//! permanent-blackout campaign kills channel A at cycle 120, channel B
//! stays healthy.
//!
//! ```text
//! cargo run --example dual_channel_failover
//! ```

use coefficient::{Scenario, Scheduler, COEFFICIENT, HOSA};
use event_sim::{SimDuration, SimTime};
use flexray::bus::BusEngine;
use flexray::codec::FrameCoding;
use flexray::config::ClusterConfig;
use flexray::signal::Signal;
use reliability::campaign::{CampaignFaults, CampaignSpec, CampaignTarget};
use reliability::fault::NoFaults;

fn main() {
    let cluster = ClusterConfig::paper_dynamic(50);
    let statics: Vec<Signal> = (1..=6)
        .map(|i| {
            Signal::new(
                i,
                SimDuration::from_millis(2),
                SimDuration::ZERO,
                SimDuration::from_millis(2),
                400,
            )
        })
        .collect();

    let outage_cycle = 120u64;
    println!("Channel A dies permanently at cycle {outage_cycle}; channel B stays up.\n");
    println!("policy        delivered/produced   delivered after outage");
    for policy in [COEFFICIENT, HOSA] {
        let mut scheduler = Scheduler::new(
            policy,
            cluster.clone(),
            FrameCoding,
            &Scenario::ber7(),
            &statics,
            &[],
        )
        .expect("valid configuration");
        let campaign = CampaignSpec::new().permanent_blackout(CampaignTarget::A, outage_cycle);
        let mut engine = BusEngine::new(cluster.clone()).with_faults(
            Box::new(CampaignFaults::new(
                Box::new(NoFaults::new()),
                &campaign,
                0,
                1,
            )),
            Box::new(NoFaults::new()),
        );

        let horizon_cycles = 400u64; // 400 ms
        let mut delivered_before = 0;
        for cycle in 0..horizon_cycles {
            let now = cluster.cycle_start(cycle);
            // Produce releases due this cycle (period 2 ms = every 2nd cycle).
            if cycle % 2 == 0 {
                for s in &statics {
                    scheduler.produce_static(s.id, now);
                }
            }
            engine.run_cycle(cycle, &mut scheduler);
            if cycle == outage_cycle {
                delivered_before = scheduler.tracker().delivered();
            }
        }
        let t = scheduler.tracker();
        let after = t.delivered() - delivered_before;
        println!(
            "{:<12}  {:>9}/{:<9}  {:>6}  (A stats: {} corrupted of {} frames)",
            format!("{policy:?}"),
            t.delivered(),
            t.produced(),
            after,
            engine.stats(flexray::ChannelId::A).corrupted,
            engine.stats(flexray::ChannelId::A).frames,
        );
        assert!(
            after > 0,
            "{policy:?}: dual-channel redundancy must keep delivering after the outage"
        );
        let _ = SimTime::ZERO;
    }
    println!("\nBoth dual-channel schemes keep delivering through channel B;");
    println!("CoEfficient additionally re-uses A's share of the slack it lost.");
}
