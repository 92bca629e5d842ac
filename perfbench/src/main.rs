//! `perfbench`: the repository's benchmark. Run it from the repository
//! root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-steady --seed 1 --seconds 10 --trace 0
//! ```
//!
//! It prints one line per metric (name, value, unit) and, as its last
//! line, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`.

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use bench_harness::chaos::{run_campaign, ChaosContract, DEFAULT_HORIZON_CYCLES};
use bench_harness::golden::{load_corpus, verify_backbone, verify_corpus, DEFAULT_CORPUS_PATH};
use bench_harness::json::Json;
use coefficient::{registry, SweepRunner};
use perfbench::cli::{self, Command, RunOptions};
use perfbench::stats::{beyond, median};
use perfbench::timed::{self, Metric, Pass};
use perfbench::traced::{self, LayerTotals};
use perfbench::workload::{self, Inputs, Workload, INPUT_SETS};
use perfbench::{reference, timed::fleet_failures};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match cli::parse(&args) {
        Err(msg) => {
            eprintln!("perfbench: {msg}\n\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
        Ok(Command::Help) => {
            println!("{}", cli::USAGE);
            return ExitCode::SUCCESS;
        }
        Ok(Command::Record(workload)) => record(workload),
        Ok(Command::Run(opts)) => run(opts),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::from(1)
        }
    }
}

/// What a measuring run reports.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

/// A workload's inputs with their reference digests.
struct Prepared {
    inputs: Inputs,
    digests: Vec<Option<u64>>,
    /// Seconds spent building the inputs.
    build_s: f64,
    /// Seconds spent building the inputs and loading the digests.
    setup_s: f64,
}

/// Builds the inputs of `workload`'s input set `set` and loads their
/// reference digests.
fn set_up(workload: Workload, set: u64) -> Result<Prepared, String> {
    let started = Instant::now();
    let inputs = workload::build(workload, set);
    let build_s = started.elapsed().as_secs_f64();
    let digests = reference::load(workload, set)?;
    let expected = match &inputs {
        Inputs::Runs(configs) => configs.len(),
        Inputs::Fleet(spec) => 1 + spec.policies.len(),
    };
    if digests.len() != expected {
        return Err(format!(
            "reference of {} set {set} holds {} digests, the inputs need {expected}",
            workload.name(),
            digests.len()
        ));
    }
    Ok(Prepared {
        inputs,
        digests,
        build_s,
        setup_s: started.elapsed().as_secs_f64(),
    })
}

fn run(opts: RunOptions) -> Result<(), String> {
    golden_gate()?;
    let set = workload::input_set(opts.seed);
    let Prepared {
        inputs,
        digests,
        build_s,
        setup_s,
    } = set_up(opts.workload, set)?;
    println!(
        "perfbench {} seed {} (input set {set} of {INPUT_SETS}), {} s, {}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        if opts.trace { "traced" } else { "untraced" }
    );
    println!(
        "context: calibration pass {:.2} ms, host parallelism {} (the benchmark runs one thread)",
        bench_harness::fleet::fleet_calibration().as_secs_f64() * 1e3,
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let budget = Duration::from_secs(opts.seconds);
    let outcome = if opts.trace {
        traced_run(&inputs, &digests, budget, build_s)?
    } else {
        timed_run(&inputs, &digests, budget, setup_s, opts.workload, set)?
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    println!(
        "failed_ratio {} ({} of {} runs)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    for m in &outcome.metrics {
        println!("{:<36} {:>20} {}", m.name, m.value, m.unit);
    }
    let metrics = Json::object(outcome.metrics.iter().map(|m| {
        (
            m.name.clone(),
            Json::object([("value", Json::Float(m.value)), ("unit", Json::str(m.unit))]),
        )
    }));
    let result = Json::object([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::UInt(outcome.attempted)),
        ("failed", Json::UInt(outcome.failed)),
        ("metrics", metrics),
    ]);
    println!("{result}");
    Ok(())
}

/// The golden corpus gate: 54 sweep cells and 4 backbone cells must
/// replay bit-identically before any number is reported.
fn golden_gate() -> Result<(), String> {
    let mut corpus = load_corpus(Path::new(DEFAULT_CORPUS_PATH))?;
    corpus.spec.threads = Some(1);
    let verdict = verify_corpus(&corpus)?;
    if !verdict.passed() {
        return Err(format!(
            "golden gate failed, no numbers reported:\n{verdict}"
        ));
    }
    let defects = verify_backbone(&corpus)?;
    if !defects.is_empty() {
        return Err(format!(
            "backbone golden gate failed, no numbers reported:\n{}",
            defects.join("\n")
        ));
    }
    Ok(())
}

fn timed_run(
    inputs: &Inputs,
    digests: &[Option<u64>],
    budget: Duration,
    first_setup_s: f64,
    workload: Workload,
    set: u64,
) -> Result<Outcome, String> {
    let started = Instant::now();
    // The set-up is repeated before every pass, so its median spans the
    // same stretch of host time the passes do; ten times, so the median is
    // a warm set-up, not the first one after each pass, which runs on
    // caches the pass evicted.
    let mut setup_s = vec![first_setup_s];
    let mut passes: Vec<Pass> = Vec::new();
    let mut notes = Vec::new();
    let mut correct = true;
    while passes.is_empty() || started.elapsed() < budget {
        for _ in 0..10 {
            setup_s.push(set_up(workload, set)?.setup_s);
        }
        let pass = match inputs {
            Inputs::Runs(configs) => timed::runs_pass(configs, digests),
            Inputs::Fleet(spec) => {
                let (mut pass, aggregate, folds) = timed::fleet_pass(spec);
                pass.failed = fleet_failures(spec, &aggregate, &folds, digests);
                if passes.is_empty() {
                    // The serial loop must agree with the library's executor.
                    let exec = fleet::exec::run(spec, 1);
                    if exec.aggregate.digest() != aggregate.digest() {
                        correct = false;
                        notes.push(format!(
                            "fleet digest mismatch: serial loop {:016x}, fleet::exec {:016x}",
                            aggregate.digest(),
                            exec.aggregate.digest()
                        ));
                    }
                }
                pass
            }
        };
        passes.push(pass);
    }
    let attempted = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let runs = passes[0].samples.len();
    let pct = workload.tail_percentile();
    notes.push(format!(
        "{} timed passes of {runs} runs; times are each run's best over the passes; \
         run_ms.tail is p{pct} with {} runs beyond it; setup_s is the median of {} set-ups",
        passes.len(),
        beyond(runs, pct),
        setup_s.len()
    ));
    let walls: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.3}", p.wall_ns as f64 * 1e-9))
        .collect();
    notes.push(format!("pass walls (s): {}", walls.join(" ")));
    Ok(Outcome {
        correct: correct && failed == 0,
        attempted,
        failed,
        metrics: timed::end_to_end(&passes, median(&setup_s), pct)?,
        notes,
    })
}

fn traced_run(
    inputs: &Inputs,
    digests: &[Option<u64>],
    budget: Duration,
    build_s: f64,
) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut totals = LayerTotals::default();
    let (mut attempted, mut failed) = (0, 0);
    while totals.passes == 0 || started.elapsed() < budget {
        let (a, f) = match inputs {
            Inputs::Runs(configs) => traced::runs_pass(configs, digests, &mut totals)?,
            Inputs::Fleet(spec) => traced::fleet_pass(spec, digests, &mut totals)?,
        };
        attempted += a;
        failed += f;
    }
    let layers = traced::layer_metrics(&totals, build_s);
    let mut notes = vec![format!(
        "{} traced passes; every run matched Runner::run field for field",
        totals.passes
    )];
    notes.extend(traced::explain(&totals));
    for l in &layers {
        notes.push(format!("  {} should move: {}", l.metric.name, l.moves));
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: layers.into_iter().map(|l| l.metric).collect(),
        notes,
    })
}

/// Re-records `workload`'s reference digests for every input set through
/// the library's own harnesses.
fn record(workload: Workload) -> Result<(), String> {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut lines = Vec::new();
    for set in 0..INPUT_SETS {
        let digests: Vec<Option<u64>> = match workload {
            Workload::SweepSteady => SweepRunner::new(workload::sweep_matrix(set))
                .threads(threads)
                .run()
                .map_err(|e| format!("sweep-steady set {set}: {e}"))?
                .cells
                .iter()
                .map(|cell| Some(cell.fingerprint))
                .collect(),
            Workload::ChaosRecovery => {
                let mut digests = Vec::new();
                for scenario in workload::chaos_scenarios() {
                    for seed in workload::chaos_seeds(set) {
                        let cards = run_campaign(
                            &scenario,
                            registry::all(),
                            DEFAULT_HORIZON_CYCLES,
                            seed,
                            threads,
                            ChaosContract::default(),
                        )
                        .map_err(|e| format!("chaos-recovery set {set}: {e}"))?;
                        digests.extend(cards.iter().map(|card| Some(card.fingerprint)));
                    }
                }
                digests
            }
            Workload::FleetSetup => {
                let spec = workload::fleet_spec(set);
                let exec = fleet::exec::run(&spec, threads);
                let (_, serial, folds) = timed::fleet_pass(&spec);
                if serial.digest() != exec.aggregate.digest() {
                    return Err(format!(
                        "fleet-setup set {set}: serial loop and fleet::exec disagree"
                    ));
                }
                std::iter::once(Some(exec.aggregate.digest()))
                    .chain(folds.into_iter().map(Some))
                    .collect()
            }
        };
        lines.push(reference::format_line(set, &digests));
        eprintln!("recorded {} input set {set}", workload.name());
    }
    reference::save(workload, &lines)
}
