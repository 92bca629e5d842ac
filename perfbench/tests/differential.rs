//! The traced cycle driver must end every run exactly where `Runner::run`
//! ends it. `trace_run` performs the comparison itself — counters,
//! deadlines, frames, fingerprint and the timed allocation — and returns
//! `Err` on any difference; these tests pin that it never does, for every
//! policy on a nominal, a storming and a blacked-out bus, and under each
//! stop condition the driver replays.

use bench_harness::chaos::{chaos_configs, chaos_scenario, resolve_campaign};
use coefficient::{registry, RunConfig, Scenario, StopCondition};
use perfbench::spans;
use perfbench::traced::{layer_metrics, trace_run, LayerTotals, Traced};

/// Every policy on `scenario` for `cycles` cycles of the paper's mixed
/// geometry.
fn configs(scenario: &Scenario, cycles: u64) -> Vec<RunConfig> {
    chaos_configs(scenario, registry::all(), cycles, 11)
}

fn assert_driver_matches(configs: &[RunConfig], totals: &mut LayerTotals) {
    for (i, cfg) in configs.iter().enumerate() {
        spans::begin_run(i as u32);
        match trace_run(cfg, totals) {
            Ok(Traced::Ran(_)) => {}
            Ok(Traced::Unschedulable) => panic!("{} unschedulable", cfg.policy.key()),
            Err(e) => panic!("{} on {}: {e}", cfg.policy.key(), cfg.scenario.name),
        }
    }
}

#[test]
fn driver_matches_runner_for_every_policy_and_fault_regime() {
    let blackout = chaos_scenario(
        Scenario::ber7(),
        "blackout",
        resolve_campaign("blackout").expect("pinned campaign"),
    );
    let mut totals = LayerTotals::default();
    for scenario in [Scenario::ber7(), Scenario::ber9().storm(), blackout] {
        assert_driver_matches(&configs(&scenario, 120), &mut totals);
    }
}

#[test]
fn driver_matches_runner_under_every_stop_condition() {
    let mut totals = LayerTotals::default();
    for stop in [
        StopCondition::ProducedInstances(300),
        StopCondition::DeliveredInstances(200),
    ] {
        let mut runs = configs(&Scenario::ber7(), 1);
        for cfg in &mut runs {
            cfg.stop = stop;
        }
        assert_driver_matches(&runs, &mut totals);
    }
}

#[test]
fn metric_names_match_the_benchmark_manifest() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
    let doc = bench_harness::json::Json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(|v| v.as_array())
            .expect("metric list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(|n| n.as_str())
                    .expect("name")
                    .to_string()
            })
            .collect()
    };
    let mut totals = LayerTotals::default();
    totals.passes = 1;
    let layers: Vec<String> = layer_metrics(&totals, 0.0)
        .into_iter()
        .map(|l| l.metric.name)
        .collect();
    assert_eq!(layers, names("per_layer"));
    let pass = perfbench::timed::Pass {
        wall_ns: 1,
        samples: vec![perfbench::timed::Sample {
            policy: 0,
            cycles: 1,
            host_ns: 1,
        }],
        attempted: 1,
        failed: 0,
    };
    let e2e: Vec<String> = perfbench::timed::end_to_end(&[pass], 1.0, 90.0)
        .expect("metrics")
        .into_iter()
        .map(|m| m.name)
        .collect();
    assert_eq!(e2e, names("end_to_end"));
}
