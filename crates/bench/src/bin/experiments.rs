//! Regenerates every figure of the CoEfficient paper's evaluation, and
//! runs multi-seed sweeps on the same machinery.
//!
//! ```text
//! experiments [fig1|fig2|fig3|fig4a..fig4d|fig5|ablation|faults|verify|all] [--json]
//! experiments sweep  [--seeds N] [--master-seed X] [--minislots M]
//!                    [--horizon-ms H] [--threads T] [--policy P]...
//!                    [--scenario S]... [--shared-seeds] [--json] [--pretty]
//! experiments replay --cell POLICY,SCENARIO,SEED [sweep flags]
//! experiments trace  --cell POLICY,SCENARIO,SEED [--golden] [--out PATH]
//!                    [--format chrome|json] [--capacity N]
//!                    [--sample-every N] [sweep flags]
//! experiments golden record [--out PATH] [--name NAME]
//! experiments golden verify [--corpus PATH]
//! experiments determinism [--thread-counts 1,2,8] [sweep flags]
//! experiments chaos  [--campaign NAME] [--scenario S] [--policy P]...
//!                    [--require P]... [--seed N] [--horizon-cycles N]
//!                    [--recovery-budget N] [--hard-miss-budget N]
//!                    [--threads T] [--out PATH]
//! experiments cycles [--smoke] [--iters N] [--out PATH]
//!                    [--baseline PATH] [--tolerance F]
//! experiments backbone [--topology T] [--reservation R]... [--threads N]
//!                      [--hypercycles H] [--flows] [--out PATH]
//! experiments trace-overhead [--cell POLICY,SCENARIO,SEED] [--iters N]
//!                    [--capacity N] [--sample-every N] [--tolerance F]
//! experiments fleet  [--vehicles N] [--policy P]... [--env E] [--seed N]
//!                    [--threads T] [--shard-size N] [--horizon-ms H]
//!                    [--minislots M] [--out PATH] [--bench-out PATH]
//!                    [--stats-file PATH] [--stats-socket PATH]
//!                    [--stats-every-ms N] [--smoke]
//! ```
//!
//! `verify` re-runs the paper's headline claims and exits non-zero if any
//! fails — the one-command reproduction check. `sweep` executes a
//! `{policy × scenario × seed}` matrix in parallel and prints per-group
//! distribution summaries (schema `coefficient-sweep/1` with `--json`).
//! `replay` re-runs one cell of that matrix from its coordinates and
//! prints its fingerprint — it must match the cell in any sweep of the
//! same flags, at any thread count.
//!
//! `trace` replays one cell with structured event tracing enabled and
//! writes either a Chrome `trace_event` file (`--format chrome`, openable
//! in <https://ui.perfetto.dev>) or a `coefficient-trace/1` document
//! (`--format json`, the default). The cell is run twice and the event
//! streams must compare bit-for-bit; the traced fingerprint must equal an
//! untraced replay's. `--golden` selects the golden-corpus matrix instead
//! of the sweep flags.
//!
//! `golden record` runs the pinned 54-cell regression matrix and writes
//! the `coefficient-golden/1` corpus (default `corpus/golden.json`);
//! `golden verify` replays the corpus' own spec and exits non-zero on any
//! fingerprint, counter or metric divergence, printing a counter-level
//! diff. `determinism` runs the same sweep at several worker-thread
//! counts and exits non-zero if the fingerprints disagree.
//!
//! `cycles` runs the pinned per-policy throughput matrix (18 cells per
//! registered policy) and prints cycles/sec, ns/cycle and peak scratch
//! bytes per policy; `--out` writes the `coefficient-bench-cycles/1`
//! document (CI uploads it as `BENCH_cycles.json`) and `--baseline`
//! compares cycles/sec against a recorded baseline, exiting non-zero on a
//! regression beyond `--tolerance` (default 0.15).
//!
//! `backbone` runs the time-triggered Ethernet gateway matrix: a named
//! topology (two FlexRay domains bridged by GCL-windowed egress ports)
//! under every registered reservation policy, writing the
//! `coefficient-backbone/1` report with `--out`. It exits non-zero if an
//! admitted flow's observed end-to-end jitter exceeds its declared bound
//! or if the hypercycle policy shows no gain over the per-cycle baseline
//! on a shared `(scenario, seed)` cell. `trace-overhead` times a pinned
//! golden cell untraced vs traced (1 MiB ring, `sample_every(10)`) and
//! exits non-zero if the traced run costs more than `--tolerance`
//! (default 5%) over the untraced one.
//!
//! Without arguments, runs every figure. `--json` additionally dumps the
//! raw rows as JSON to stdout (for plotting). An unknown subcommand or
//! figure name exits 2 and lists the valid ones. `--help` (or `-h`, or
//! `help`) prints every subcommand with its flags and exits 0.

use bench_harness::experiments::{
    ablation, dynamic_experiment_statics, fault_model_ablation, fig3_bandwidth, fig4_latency,
    fig5_miss_ratio, fig_running_time, run_once, verify_reproduction, Segment,
};
use std::path::Path;

use bench_harness::backbone::{backbone_report_json, check_matrix as check_backbone_matrix};
use bench_harness::chaos::{self, ChaosContract};
use bench_harness::cycles::{
    compare_to_baseline, cycles_from_json, cycles_spec, cycles_to_json, measure_cycles,
    CYCLES_TOLERANCE,
};
use bench_harness::fleet as fleet_bench;
use bench_harness::golden::{
    golden_spec, load_corpus, record_corpus, save_corpus, verify_backbone, verify_corpus,
    DEFAULT_CORPUS_PATH,
};
use bench_harness::json::Json;
use bench_harness::sweep::{cell_json, parse_scenario, sweep_report_json, SweepSpec};
use bench_harness::table::print_table;
use bench_harness::trace::{counter_names, trace_json, validate_trace};
use coefficient::registry::{self, lookup};
use coefficient::{
    CellCoord, PolicyRef, Scenario, SeedStrategy, StopCondition, SweepRunner, TraceConfig,
    UnknownName,
};
use event_sim::SimDuration;
use fleet::FleetSpec;
use flexray::config::ClusterConfig;

/// A subcommand: its entry point, which gets the arguments after its
/// name, and the flags it takes.
struct Command {
    name: &'static str,
    run: fn(&[String]),
    /// Flags followed by a value, in space-separated groups.
    values: &'static [&'static str],
    /// Flags that stand alone, space-separated.
    switches: &'static str,
}

/// The value flags `parse_spec` reads, shared by every sweep-shaped
/// subcommand; `--shared-seeds` is their one switch.
const SWEEP_FLAGS: &str =
    "--seeds --master-seed --minislots --horizon-ms --threads --policy --scenario";

/// Every subcommand. Any other first argument is a figure name (see
/// `FIGURES`) or a flag of the figure run.
const SUBCOMMANDS: [Command; 11] = [
    Command {
        name: "sweep",
        run: run_sweep,
        values: &[SWEEP_FLAGS],
        switches: "--shared-seeds --json --pretty",
    },
    Command {
        name: "replay",
        run: run_replay,
        values: &[SWEEP_FLAGS, "--cell"],
        switches: "--shared-seeds",
    },
    Command {
        name: "trace",
        run: run_trace,
        values: &[
            SWEEP_FLAGS,
            "--cell --out --format --capacity --sample-every",
        ],
        switches: "--shared-seeds --golden",
    },
    Command {
        name: "golden",
        run: run_golden,
        values: &["--out --name --corpus"],
        switches: "",
    },
    Command {
        name: "determinism",
        run: run_determinism,
        values: &[SWEEP_FLAGS, "--thread-counts"],
        switches: "--shared-seeds",
    },
    Command {
        name: "storm-smoke",
        run: run_storm_smoke,
        values: &["--seed --horizon-ms"],
        switches: "",
    },
    Command {
        name: "chaos",
        run: run_chaos,
        values: &[
            "--campaign --scenario --policy --require --seed --horizon-cycles",
            "--recovery-budget --hard-miss-budget --threads --out",
        ],
        switches: "",
    },
    Command {
        name: "cycles",
        run: run_cycles,
        values: &["--iters --out --baseline --tolerance"],
        switches: "--smoke",
    },
    Command {
        name: "fleet",
        run: run_fleet,
        values: &[
            "--vehicles --policy --env --seed --threads --shard-size --horizon-ms --minislots",
            "--out --bench-out --stats-file --stats-socket --stats-every-ms",
        ],
        switches: "--smoke",
    },
    Command {
        name: "backbone",
        run: run_backbone,
        values: &["--topology --reservation --threads --hypercycles --out"],
        switches: "--flows",
    },
    Command {
        name: "trace-overhead",
        run: run_trace_overhead,
        values: &["--cell --iters --capacity --sample-every --tolerance"],
        switches: "",
    },
];

/// The figure run: positional figure names plus `--json`.
const FIGURE_RUN: Command = Command {
    name: "figures",
    run: run_figures,
    values: &[],
    switches: "--json",
};

/// The names `run_figures` accepts as positional arguments.
const FIGURES: [&str; 12] = [
    "fig1", "fig2", "fig3", "fig4a", "fig4b", "fig4c", "fig4d", "fig5", "ablation", "faults",
    "verify", "all",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let first = args.first().map(String::as_str);
    if matches!(first, Some("--help" | "-h" | "help")) {
        print!("{}", help());
        return;
    }
    let (command, rest) = match SUBCOMMANDS.iter().find(|c| Some(c.name) == first) {
        Some(command) => (command, &args[1..]),
        None => (&FIGURE_RUN, &args[..]),
    };
    check_flags(command, rest);
    (command.run)(rest);
}

/// The `--help` text: every subcommand with the flags it declares, then
/// the figure run.
fn help() -> String {
    let mut out = String::from(
        "usage: experiments <subcommand> [flags]\n       experiments [figure ...] [--json]\n\nsubcommands:\n",
    );
    for command in &SUBCOMMANDS {
        let values = command
            .values
            .iter()
            .flat_map(|g| g.split_whitespace())
            .map(|f| format!("{f} <value>"));
        let switches = command.switches.split_whitespace().map(String::from);
        help_row(&mut out, command.name, values.chain(switches));
    }
    out.push_str("\nfigures (no name runs every one):\n");
    help_row(&mut out, "", FIGURES.iter().map(|f| f.to_string()));
    help_row(
        &mut out,
        "",
        FIGURE_RUN.switches.split_whitespace().map(String::from),
    );
    out
}

/// Appends one `--help` row: `name`, then `words` wrapped at 80 columns.
fn help_row(out: &mut String, name: &str, words: impl Iterator<Item = String>) {
    const INDENT: usize = 18;
    let mut line = format!("  {name:<width$}", width = INDENT - 2);
    for word in words {
        if line.len() > INDENT && line.len() + 1 + word.len() > 80 {
            out.push_str(&line);
            out.push('\n');
            line = " ".repeat(INDENT);
        } else if line.len() > INDENT {
            line.push(' ');
        }
        line.push_str(&word);
    }
    out.push_str(line.trim_end());
    out.push('\n');
}

/// Prints `message` and exits 2, the exit code of every usage error.
fn usage_error(message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// Prints `message` and exits 1: a run failed or a gate did not pass.
fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(1);
}

/// Writes `contents` to `path`, failing the run if it cannot.
fn write_out(path: &str, contents: impl AsRef<[u8]>) {
    std::fs::write(path, contents).unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
}

/// Exits 2 on a `--…` argument `command` does not take, or on one of its
/// value flags with no value after it.
fn check_flags(command: &Command, args: &[String]) {
    let values = || command.values.iter().flat_map(|g| g.split_whitespace());
    let switches = || command.switches.split_whitespace();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if values().any(|f| f == arg) {
            if rest.next().is_none_or(|v| v.starts_with("--")) {
                usage_error(format!("{arg} needs a value"));
            }
        } else if arg.starts_with("--") && !switches().any(|f| f == arg) {
            usage_error(UnknownName {
                kind: "flag",
                name: arg.clone(),
                valid: values().chain(switches()).collect(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// sweep / replay
// ---------------------------------------------------------------------------

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_number<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    flag_value(args, flag).map(|v| {
        v.parse()
            .unwrap_or_else(|_| usage_error(format!("invalid value for {flag}: {v}")))
    })
}

/// [`parse_number`] for a count that must be at least 1 (the library
/// asserts it, or a zero would run an empty experiment): a zero exits 2.
fn parse_count<T: std::str::FromStr + Default + PartialEq>(
    args: &[String],
    flag: &str,
) -> Option<T> {
    let v = parse_number(args, flag);
    if v == Some(T::default()) {
        usage_error(format!("{flag} must be at least 1"));
    }
    v
}

/// `--minislots`, exit 2 unless the `paper_mixed` cycle fits that many.
fn parse_minislots(args: &[String]) -> Option<u64> {
    let v = parse_number(args, "--minislots")?;
    if let Err(e) = ClusterConfig::try_paper_mixed(v) {
        usage_error(format!("invalid value for --minislots: {v} ({e:?}: {e})"));
    }
    Some(v)
}

fn flag_values<'a>(args: &'a [String], flag: &str) -> Vec<&'a str> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == flag)
        .filter_map(|(i, _)| args.get(i + 1))
        .map(String::as_str)
        .collect()
}

/// Every `flag` value, resolved against the policy registry.
fn parse_policies(args: &[String], flag: &str) -> Vec<PolicyRef> {
    flag_values(args, flag)
        .into_iter()
        .map(|v| registry::resolve(v).unwrap_or_else(|e| usage_error(e)))
        .collect()
}

/// Runs one cell's configuration, failing the run if it is unschedulable.
fn run_config(cfg: coefficient::RunConfig) -> coefficient::RunReport {
    coefficient::Runner::new(cfg)
        .unwrap_or_else(|e| fail(format!("cell is unschedulable: {e:?}")))
        .run()
}

fn parse_spec(args: &[String]) -> SweepSpec {
    let mut spec = SweepSpec::default();
    if let Some(v) = parse_count(args, "--seeds") {
        spec.seeds = v;
    }
    if let Some(v) = parse_number(args, "--master-seed") {
        spec.master_seed = v;
    }
    if let Some(v) = parse_minislots(args) {
        spec.minislots = v;
    }
    if let Some(v) = parse_count(args, "--horizon-ms") {
        spec.horizon_ms = v;
    }
    if let Some(v) = parse_count(args, "--threads") {
        spec.threads = Some(v);
    }
    let policies = parse_policies(args, "--policy");
    if !policies.is_empty() {
        spec.policies = policies;
    }
    let scenarios: Vec<_> = flag_values(args, "--scenario")
        .into_iter()
        .map(|v| parse_scenario(v).unwrap_or_else(|e| usage_error(e)))
        .collect();
    if !scenarios.is_empty() {
        spec.scenarios = scenarios;
    }
    if args.iter().any(|a| a == "--shared-seeds") {
        spec.strategy = SeedStrategy::Shared;
    }
    spec
}

fn run_sweep(args: &[String]) {
    let spec = parse_spec(args);
    let report = spec
        .run()
        .unwrap_or_else(|e| fail(format!("sweep configuration is unschedulable: {e:?}")));
    if args.iter().any(|a| a == "--json" || a == "--pretty") {
        let doc = sweep_report_json(&report);
        if args.iter().any(|a| a == "--pretty") {
            println!("{}", doc.pretty());
        } else {
            println!("{doc}");
        }
        return;
    }
    print_table(
        &format!(
            "Sweep — {} cells on {} threads in {:.0} ms (fingerprint {:016x})",
            report.cells.len(),
            report.threads,
            report.wall_clock.as_secs_f64() * 1e3,
            report.fingerprint(),
        ),
        &[
            "policy",
            "scenario",
            "seeds",
            "util mean±sd",
            "miss mean±sd",
            "dyn lat p90 [ms]",
        ],
        &report
            .groups
            .iter()
            .map(|g| {
                vec![
                    g.policy.label().to_string(),
                    g.scenario.to_string(),
                    g.cells.to_string(),
                    format!("{:.3}±{:.3}", g.utilization.mean, g.utilization.std_dev),
                    format!("{:.4}±{:.4}", g.miss_ratio.mean, g.miss_ratio.std_dev),
                    format!("{:.3}", g.dynamic_latency_ms.p90),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

/// Parses `--cell P,S,SEED` and bounds-checks it against `matrix`.
fn parse_cell(args: &[String], matrix: &coefficient::SweepMatrix, subcommand: &str) -> CellCoord {
    let Some(cell) = flag_value(args, "--cell") else {
        usage_error(format!(
            "{subcommand} requires --cell POLICY_INDEX,SCENARIO_INDEX,SEED_INDEX"
        ));
    };
    let indices: Vec<usize> = cell
        .split(',')
        .map(|p| {
            p.trim()
                .parse()
                .unwrap_or_else(|_| usage_error(format!("invalid --cell component: {p}")))
        })
        .collect();
    let [policy, scenario, seed] = indices[..] else {
        usage_error("--cell needs exactly three comma-separated indices");
    };
    let coord = CellCoord {
        policy,
        scenario,
        seed,
    };
    if coord.policy >= matrix.policies.len()
        || coord.scenario >= matrix.scenarios.len()
        || coord.seed >= matrix.seeds.len()
    {
        usage_error(format!(
            "--cell {cell} out of range for a {}x{}x{} matrix",
            matrix.policies.len(),
            matrix.scenarios.len(),
            matrix.seeds.len()
        ));
    }
    coord
}

fn run_replay(args: &[String]) {
    let spec = parse_spec(args);
    let runner = SweepRunner::new(spec.build_matrix());
    let coord = parse_cell(args, runner.matrix(), "replay");
    let outcome = runner
        .replay(coord)
        .unwrap_or_else(|e| fail(format!("replayed cell is unschedulable: {e:?}")));
    println!("{}", cell_json(&outcome).pretty());
}

// ---------------------------------------------------------------------------
// trace
// ---------------------------------------------------------------------------

/// `experiments trace`: replays one cell with tracing on and exports the
/// event stream. Runs the cell twice and refuses to write anything if the
/// two streams differ or if the traced fingerprint diverges from an
/// untraced replay — the export is only as useful as its determinism.
fn run_trace(args: &[String]) {
    let spec = if args.iter().any(|a| a == "--golden") {
        golden_spec()
    } else {
        parse_spec(args)
    };
    let matrix = spec.build_matrix();
    let coord = parse_cell(args, &matrix, "trace");
    let capacity: usize = parse_number(args, "--capacity").unwrap_or(1 << 20);
    let sample_every: u64 = parse_number(args, "--sample-every").unwrap_or(10);
    let format = flag_value(args, "--format").unwrap_or("json");
    if !matches!(format, "json" | "chrome") {
        usage_error(format!("unknown --format: {format} (expected chrome|json)"));
    }

    let mut cfg = matrix.config(coord);
    cfg.trace = TraceConfig::ring(capacity).sample_every(sample_every);
    let first = run_config(cfg.clone());
    let second = run_config(cfg);
    if first.trace != second.trace {
        fail("trace FAILED: two replays of the same cell produced different event streams")
    }
    let untraced = SweepRunner::new(matrix.clone())
        .replay(coord)
        .unwrap_or_else(|e| fail(format!("replayed cell is unschedulable: {e:?}")));
    if first.fingerprint() != untraced.fingerprint {
        fail(format!(
            "trace FAILED: traced fingerprint {:016x} != untraced {:016x} — tracing perturbed the run",
            first.fingerprint(),
            untraced.fingerprint
        ))
    }

    let cell = coefficient::CellOutcome {
        coord,
        policy: matrix.policies[coord.policy],
        scenario: matrix.scenarios[coord.scenario].name,
        seed: matrix.cell_seed(coord),
        fingerprint: first.fingerprint(),
        report: first,
    };
    let log = cell.report.trace.as_ref().expect("tracing was enabled");
    let names = counter_names();
    let (content, default_name) = match format {
        "chrome" => (
            observe::chrome_trace_json(log, &names),
            format!(
                "trace-{}-{}-{}.chrome.json",
                coord.policy, coord.scenario, coord.seed
            ),
        ),
        _ => {
            let doc = trace_json(&cell).expect("trace is present");
            // Round-trip the document through the parser and the schema
            // validator before letting it out of the process.
            let parsed = Json::parse(&doc.to_string()).unwrap_or_else(|e| {
                fail(format!("trace FAILED: exported JSON does not parse: {e}"))
            });
            if let Err(defect) = validate_trace(&parsed) {
                fail(format!(
                    "trace FAILED: exported JSON violates coefficient-trace/1: {defect}"
                ))
            }
            (
                doc.to_string(),
                format!(
                    "trace-{}-{}-{}.json",
                    coord.policy, coord.scenario, coord.seed
                ),
            )
        }
    };
    let out = flag_value(args, "--out")
        .map(String::from)
        .unwrap_or(default_name);
    write_out(&out, &content);
    println!(
        "trace: {} {} seed {} -> {out}",
        cell.policy.label(),
        cell.scenario,
        cell.seed
    );
    println!(
        "  {} events ({} dropped, capacity {}), fingerprint {:016x} (= untraced replay)",
        log.events.len(),
        log.dropped,
        log.capacity,
        cell.fingerprint
    );
}

// ---------------------------------------------------------------------------
// golden / determinism
// ---------------------------------------------------------------------------

fn run_golden(args: &[String]) {
    match args.first().map(String::as_str) {
        Some("record") => {
            let out = flag_value(args, "--out").unwrap_or(DEFAULT_CORPUS_PATH);
            let name = flag_value(args, "--name").unwrap_or("default");
            let file = record_corpus(name, &golden_spec())
                .unwrap_or_else(|e| fail(format!("golden record failed: {e}")));
            save_corpus(Path::new(out), &file)
                .unwrap_or_else(|e| fail(format!("cannot write {out}: {e}")));
            println!(
                "golden record: wrote {} cells, {} groups and {} backbone cells to {out}",
                file.corpus.cells.len(),
                file.corpus.groups.len(),
                file.backbone.len(),
            );
        }
        Some("verify") => {
            let path = flag_value(args, "--corpus").unwrap_or(DEFAULT_CORPUS_PATH);
            let file = load_corpus(Path::new(path)).unwrap_or_else(|e| {
                eprintln!("{e}");
                eprintln!("(record one with: experiments golden record --out {path})");
                std::process::exit(2);
            });
            let report = verify_corpus(&file)
                .unwrap_or_else(|e| fail(format!("golden verify could not replay: {e}")));
            print!("{report}");
            let backbone_defects = verify_backbone(&file)
                .unwrap_or_else(|e| fail(format!("backbone replay failed to run: {e}")));
            for defect in &backbone_defects {
                eprintln!("{defect}");
            }
            if backbone_defects.is_empty() {
                println!(
                    "backbone: {} cell(s) replayed bit-identically",
                    file.backbone.len()
                );
            }
            if !report.passed() || !backbone_defects.is_empty() {
                fail(format!(
                    "golden verify FAILED against {path}; if the change is intentional, \
                     re-record with: experiments golden record --out {path}"
                ))
            }
        }
        _ => usage_error("usage: experiments golden record|verify [--out|--corpus PATH]"),
    }
}

// ---------------------------------------------------------------------------
// cycles (perf trajectory)
// ---------------------------------------------------------------------------

fn run_cycles(args: &[String]) {
    let mut spec = cycles_spec(args.iter().any(|a| a == "--smoke"));
    if let Some(iters) = parse_number(args, "--iters") {
        spec.iters = iters;
    }
    let report = measure_cycles(&spec)
        .unwrap_or_else(|e| fail(format!("cycles matrix is unschedulable: {e:?}")));
    println!(
        "bench cycles ({} mode): {} scenarios x {} seeds, best of {} iters, \
         calibration {:.2} ms",
        report.mode,
        report.scenarios.len(),
        report.seeds,
        report.iters,
        report.calibration.as_secs_f64() * 1e3,
    );
    for p in &report.policies {
        println!(
            "  {:<12} {:>3} cells  {:>9} cycles  {:>8.1} ms  {:>12.0} cycles/s  {:>8.1} ns/cycle  {:>7} scratch B",
            p.policy,
            p.cells,
            p.sim_cycles,
            p.wall.as_secs_f64() * 1e3,
            p.cycles_per_sec(),
            p.ns_per_cycle(),
            p.peak_scratch_bytes,
        );
    }
    if let Some(out) = flag_value(args, "--out") {
        let text = cycles_to_json(&report).pretty() + "\n";
        write_out(out, text);
        println!("bench cycles: wrote {out}");
    }
    if let Some(path) = flag_value(args, "--baseline") {
        let tolerance: f64 = parse_number(args, "--tolerance").unwrap_or(CYCLES_TOLERANCE);
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            eprintln!("(record one with: experiments cycles --smoke --out {path})");
            std::process::exit(2);
        });
        let baseline = Json::parse(&text)
            .map_err(|e| e.to_string())
            .and_then(|doc| cycles_from_json(&doc))
            .unwrap_or_else(|e| usage_error(format!("invalid baseline {path}: {e}")));
        let comparisons = compare_to_baseline(&report, &baseline, tolerance)
            .unwrap_or_else(|e| usage_error(format!("cannot compare against {path}: {e}")));
        let mut regressed = false;
        for c in &comparisons {
            let verdict = if c.regressed { "FAIL" } else { "PASS" };
            println!(
                "  [{verdict}] {:<12} {:>12.0} cycles/s vs baseline {:>12.0} \
                 ({:+.1}% host-normalized)",
                c.policy,
                c.current_cps,
                c.baseline_cps,
                (c.ratio - 1.0) * 100.0,
            );
            regressed |= c.regressed;
        }
        if regressed {
            fail(format!(
                "bench cycles: REGRESSION beyond {:.0}% against {path}; if intentional, \
                 re-record with: experiments cycles --smoke --out {path}",
                tolerance * 100.0,
            ))
        }
        println!(
            "bench cycles: all policies within {:.0}% of {path}",
            tolerance * 100.0,
        );
    }
}

// ---------------------------------------------------------------------------
// fleet
// ---------------------------------------------------------------------------

fn run_fleet(args: &[String]) {
    let mut spec = if args.iter().any(|a| a == "--smoke") {
        fleet_bench::smoke_spec()
    } else {
        FleetSpec::default()
    };
    if let Some(v) = flag_value(args, "--env") {
        spec.env = lookup(fleet::env::all(), v).unwrap_or_else(|e| usage_error(e));
    }
    if let Some(v) = parse_number(args, "--vehicles") {
        spec.vehicles = v;
    }
    let models = registry::keys(fleet::env::all()).join(", ");
    if spec.vehicles == 0 {
        usage_error(format!(
            "fleet needs --vehicles >= 1 (environment models: {models})"
        ));
    }
    if let Some(v) = parse_number(args, "--seed") {
        spec.seed = v;
    }
    if let Some(v) = parse_number(args, "--shard-size") {
        if v == 0 {
            usage_error(format!(
                "fleet needs --shard-size >= 1 (environment models: {models})"
            ));
        }
        spec.shard_size = v;
    }
    if let Some(v) = parse_count(args, "--horizon-ms") {
        spec.horizon = fleet_bench::horizon_from_ms(v);
    }
    if let Some(v) = parse_minislots(args) {
        spec.minislots = v;
    }
    let policies = parse_policies(args, "--policy");
    if !policies.is_empty() {
        spec.policies = policies;
    }
    let threads = parse_number(args, "--threads").unwrap_or(1);

    let stats = fleet::StatsConfig {
        file: flag_value(args, "--stats-file").map(Into::into),
        socket: flag_value(args, "--stats-socket").map(Into::into),
        every: parse_number(args, "--stats-every-ms").map(std::time::Duration::from_millis),
    };

    println!(
        "fleet: {} vehicles, env {}, seed {}, {} polic{}, {} shards x {}, {} threads",
        spec.vehicles,
        spec.env.name,
        spec.seed,
        spec.policies.len(),
        if spec.policies.len() == 1 { "y" } else { "ies" },
        spec.shard_count(),
        spec.shard_size,
        threads,
    );

    let calibration = fleet_bench::fleet_calibration();
    let run = fleet::stats::run_with_stats(&spec, threads, &stats);

    println!(
        "fleet: done in {:.1}s ({:.0} vehicles/s), digest {:016x}, \
         aggregation state {} KiB",
        run.wall_clock.as_secs_f64(),
        spec.vehicles as f64 / run.wall_clock.as_secs_f64().max(1e-9),
        run.aggregate.digest(),
        run.aggregation_bytes / 1024,
    );
    for (p, &policy) in spec.policies.iter().enumerate() {
        let agg = run.aggregate.policy(p);
        let q = |h: &metrics::LogHistogram, q: f64| {
            h.quantile_upper_bound(q)
                .map_or_else(|| "n/a".to_string(), |v| v.to_string())
        };
        println!(
            "  {}: {} vehicles ({} unschedulable), miss ratio {:.3e}, \
             miss ppb p50/p99/p99.99/p99.999 = {}/{}/{}/{}, recovery p99.999 {} ns",
            policy.label(),
            agg.vehicles,
            agg.unschedulable,
            agg.miss_ratio(),
            q(&agg.miss_ppb, 0.5),
            q(&agg.miss_ppb, 0.99),
            q(&agg.miss_ppb, 0.9999),
            q(&agg.miss_ppb, 0.99999),
            q(&agg.recovery_ns, 0.99999),
        );
    }

    if let Some(path) = flag_value(args, "--out") {
        let doc = fleet_bench::fleet_report_json(&spec, &run.aggregate);
        write_out(path, format!("{doc}\n"));
        println!("  wrote {path}");
    }
    if let Some(path) = flag_value(args, "--bench-out") {
        let doc = fleet_bench::fleet_bench_json(&spec, &run, calibration);
        write_out(path, format!("{doc}\n"));
        println!("  wrote {path}");
    }
}

/// The longest backbone cell `--hypercycles` accepts. The CPU legs look
/// up each job's completion by a linear scan, so a cell's run time grows
/// with the square of its span: 1,000 hypercycles take about 1 s on a
/// 2-vCPU host, 10,000 more than two minutes.
const MAX_HYPERCYCLES: u64 = 1_000;

fn run_backbone(args: &[String]) {
    let topology_name = flag_value(args, "--topology").unwrap_or("paper-duplex");
    let topology =
        lookup(backbone::topology::all(), topology_name).unwrap_or_else(|e| usage_error(e));
    let mut spec = backbone::MatrixSpec::pinned(topology);
    let reservations = flag_values(args, "--reservation");
    if !reservations.is_empty() {
        spec.reservations = reservations
            .iter()
            .map(|name| {
                *lookup(backbone::ALL_RESERVATIONS, name).unwrap_or_else(|e| usage_error(e))
            })
            .collect();
    }
    if let Some(hypercycles) = parse_count(args, "--hypercycles") {
        if hypercycles > MAX_HYPERCYCLES {
            usage_error(format!("--hypercycles must be at most {MAX_HYPERCYCLES}"));
        }
        spec.hypercycles = hypercycles;
    }
    let threads: usize = parse_number(args, "--threads").unwrap_or(1);
    let reports = backbone::run_matrix(&spec, threads).unwrap_or_else(|e| fail(e));
    println!(
        "backbone {}: {} — hypercycle {} µs, {} flows, {} cells",
        topology.name,
        topology.summary,
        topology.hypercycle().as_nanos() / 1_000,
        topology.flows.len(),
        reports.len(),
    );
    for cell in &reports {
        let worst_p99 = cell
            .flows
            .iter()
            .filter(|f| f.admitted)
            .map(|f| f.p99_ns)
            .max()
            .unwrap_or(0);
        let reserved: u64 = cell.ports.iter().map(|p| p.windows_reserved).sum();
        let total: u64 = cell.ports.iter().map(|p| p.windows_total).sum();
        println!(
            "  {:<10} {:<12} seed {}  admitted {:>2}/{}  windows {:>2}/{}  \
             worst p99 {:>9} ns  missed {}  fingerprint {:016x}",
            cell.reservation,
            cell.scenario,
            cell.seed,
            cell.admitted,
            cell.flows.len(),
            reserved,
            total,
            worst_p99,
            cell.ports.iter().map(|p| p.missed_windows).sum::<u64>(),
            cell.fingerprint(),
        );
        if args.iter().any(|a| a == "--flows") {
            for flow in cell.flows.iter().filter(|f| f.admitted) {
                println!(
                    "    flow {:>3}  {:>3}/{:<3} delivered  p50 {:>9} ns  p99 {:>9} ns  \
                     jitter {:>9} ns (bound {} ns)",
                    flow.flow,
                    flow.counters.delivered,
                    flow.counters.instances,
                    flow.p50_ns,
                    flow.p99_ns,
                    flow.counters.jitter_ns,
                    flow.jitter_bound_ns,
                );
            }
        }
    }
    if let Some(out) = flag_value(args, "--out") {
        let doc = backbone_report_json(topology, &reports);
        write_out(out, doc.pretty() + "\n");
        println!("  wrote {out}");
    }
    if let Err(defect) = check_backbone_matrix(&reports) {
        fail(format!("backbone GATE FAILED: {defect}"))
    }
    println!("backbone: gates passed (jitter within declared bounds, hypercycle gain present)");
}

fn run_trace_overhead(args: &[String]) {
    let spec = golden_spec();
    let matrix = spec.build_matrix();
    let coord = if flag_value(args, "--cell").is_some() {
        parse_cell(args, &matrix, "trace-overhead")
    } else {
        CellCoord {
            policy: 0,
            scenario: 2,
            seed: 1,
        }
    };
    let iters: u32 = parse_count(args, "--iters").unwrap_or(7);
    let capacity: usize = parse_number(args, "--capacity").unwrap_or(1 << 20);
    let sample_every: u64 = parse_number(args, "--sample-every").unwrap_or(10);
    let tolerance: f64 = parse_number(args, "--tolerance").unwrap_or(0.05);
    let untraced_cfg = matrix.config(coord);
    let mut traced_cfg = matrix.config(coord);
    traced_cfg.trace = TraceConfig::ring(capacity).sample_every(sample_every);
    let untraced_fp = run_config(untraced_cfg.clone()).fingerprint();
    let traced_fp = run_config(traced_cfg.clone()).fingerprint();
    if untraced_fp != traced_fp {
        fail(format!(
            "trace-overhead FAILED: traced fingerprint {traced_fp:016x} != \
             untraced {untraced_fp:016x} — tracing perturbed the run"
        ))
    }
    let untraced = bench_harness::timing::bench("trace-overhead/untraced", iters, || {
        run_config(untraced_cfg.clone())
    });
    let traced = bench_harness::timing::bench("trace-overhead/traced", iters, || {
        run_config(traced_cfg.clone())
    });
    let ratio = traced.min.as_secs_f64() / untraced.min.as_secs_f64();
    println!(
        "trace-overhead: cell {},{},{} — untraced best {:.3} ms, traced best {:.3} ms \
         (ring {capacity}, sample_every {sample_every}): {:+.2}% (gate < {:.0}%)",
        coord.policy,
        coord.scenario,
        coord.seed,
        untraced.min.as_secs_f64() * 1e3,
        traced.min.as_secs_f64() * 1e3,
        (ratio - 1.0) * 100.0,
        tolerance * 100.0,
    );
    if ratio > 1.0 + tolerance {
        fail(format!(
            "trace-overhead FAILED: traced run is {:.2}% slower than untraced \
             (gate {:.0}%)",
            (ratio - 1.0) * 100.0,
            tolerance * 100.0,
        ))
    }
}

fn run_determinism(args: &[String]) {
    let spec = parse_spec(args);
    let thread_counts: Vec<usize> = flag_value(args, "--thread-counts")
        .map(|v| {
            v.split(',')
                .map(|p| match p.trim().parse() {
                    Ok(0) => usage_error("--thread-counts entries must be at least 1"),
                    Ok(threads) => threads,
                    Err(_) => usage_error(format!("invalid --thread-counts component: {p}")),
                })
                .collect()
        })
        .unwrap_or_else(|| vec![1, 2, 8]);
    let mut fingerprints = Vec::with_capacity(thread_counts.len());
    for &threads in &thread_counts {
        let mut run = spec.clone();
        run.threads = Some(threads);
        let report = run
            .run()
            .unwrap_or_else(|e| fail(format!("sweep configuration is unschedulable: {e:?}")));
        println!(
            "determinism: {} cells on {threads:>2} thread(s) in {:>7.0} ms -> fingerprint {:016x}",
            report.cells.len(),
            report.wall_clock.as_secs_f64() * 1e3,
            report.fingerprint(),
        );
        fingerprints.push(report.fingerprint());
    }
    if fingerprints.windows(2).any(|w| w[0] != w[1]) {
        fail("determinism FAILED: fingerprints diverge across thread counts")
    }
    println!("determinism: all {} runs agree", thread_counts.len());
}

// ---------------------------------------------------------------------------
// storm smoke
// ---------------------------------------------------------------------------

/// Pinned seed of the scripted CI fault storm (see `run_storm_smoke`).
const STORM_SMOKE_SEED: u64 = 1;

/// `experiments storm-smoke [--seed N] [--horizon-ms H]`: runs CoEfficient
/// through one scripted `BER-7-storm` fault storm on the paper's mixed
/// geometry and checks the fault-storm resilience contract — hard
/// (static) messages miss zero deadlines while soft dynamic traffic is
/// shed during the storm and nominal service is restored after it. Exits
/// non-zero if any check fails; CI runs this as the fault-storm gate.
///
/// The default seed/horizon pin a storm script in which every mechanism
/// engages (asymmetric bursts on both channels, a recovery window at the
/// end); the run is deterministic, so the gate is exact, not statistical.
fn run_storm_smoke(args: &[String]) {
    let seed = parse_number(args, "--seed").unwrap_or(STORM_SMOKE_SEED);
    let horizon_ms: u64 = parse_number(args, "--horizon-ms").unwrap_or(200);
    let report = run_once(
        ClusterConfig::paper_mixed(50),
        Scenario::ber7().storm(),
        dynamic_experiment_statics(),
        workloads::sae::message_set(workloads::sae::IdRange::For80Slots, seed),
        coefficient::COEFFICIENT,
        StopCondition::Horizon(SimDuration::from_millis(horizon_ms)),
        seed,
    );
    let c = report.counters;
    println!(
        "storm-smoke: seed {seed}, horizon {horizon_ms} ms, fingerprint {:016x}",
        report.fingerprint()
    );
    println!(
        "  frames {} ({} corrupted; channel A {}/{}, channel B {}/{})",
        report.frames,
        report.corrupted,
        report.channel_faults[0].faults_injected,
        report.channel_faults[0].frames_checked,
        report.channel_faults[1].faults_injected,
        report.channel_faults[1].frames_checked,
    );
    println!(
        "  static deadlines {}/{} met, dynamic {}/{} met",
        report.static_deadlines.met(),
        report.static_deadlines.met() + report.static_deadlines.missed(),
        report.dynamic_deadlines.met(),
        report.dynamic_deadlines.met() + report.dynamic_deadlines.missed(),
    );
    println!(
        "  health: {} transitions, {} storm entries, {} restores",
        c.health_transitions, c.storm_entries, c.service_restores
    );
    println!(
        "  degraded mode: {} soft shed, {} extra hard copies, {} failover mirrors",
        c.soft_shed, c.degraded_extra_copies, c.failover_mirrors
    );
    let checks: [(&str, bool); 5] = [
        (
            "hard (static) messages miss zero deadlines",
            report.static_deadlines.missed() == 0,
        ),
        ("a storm was detected", c.storm_entries >= 1),
        ("soft traffic was shed", c.soft_shed > 0),
        (
            "freed slack bought extra hard copies",
            c.degraded_extra_copies > 0,
        ),
        ("nominal service was restored", c.service_restores >= 1),
    ];
    let mut failed = false;
    for (claim, pass) in checks {
        println!("  [{}] {claim}", if pass { "PASS" } else { "FAIL" });
        failed |= !pass;
    }
    if failed {
        fail("storm-smoke FAILED")
    }
}

// ---------------------------------------------------------------------------
// chaos campaigns
// ---------------------------------------------------------------------------

/// `experiments chaos`: runs a pinned fault-injection campaign
/// ([`bench_harness::chaos::resolve_campaign`]) for every requested
/// policy, checks each run against the recovery contract, prints the
/// per-policy resilience scorecards, and writes the `coefficient-chaos/1`
/// document with `--out`. Exits 1 if any `--require`d policy fails its
/// contract. The document excludes thread counts and wall-clock, so its
/// bytes are identical at any `--threads` value — CI diffs 1 vs 8.
fn run_chaos(args: &[String]) {
    let campaign_name = flag_value(args, "--campaign").unwrap_or(chaos::DEFAULT_CAMPAIGN);
    let campaign = lookup(&chaos::CAMPAIGNS, campaign_name).unwrap_or_else(|e| usage_error(e));
    let campaign_name = campaign.name;
    let base = flag_value(args, "--scenario").map_or_else(Scenario::ber7, |v| {
        parse_scenario(v).unwrap_or_else(|e| usage_error(e))
    });
    let seed = parse_number(args, "--seed").unwrap_or(chaos::CHAOS_SEED);
    let horizon_cycles =
        parse_count(args, "--horizon-cycles").unwrap_or(chaos::DEFAULT_HORIZON_CYCLES);
    let threads = parse_count(args, "--threads").unwrap_or(1);
    let mut contract = ChaosContract::default();
    if let Some(v) = parse_number(args, "--recovery-budget") {
        contract.recovery_budget_cycles = v;
    }
    if let Some(v) = parse_number(args, "--hard-miss-budget") {
        contract.hard_miss_budget = v;
    }
    let mut policies = parse_policies(args, "--policy");
    if policies.is_empty() {
        policies = registry::ALL.to_vec();
    }
    let required = parse_policies(args, "--require");
    if let Some(req) = required.iter().find(|req| !policies.contains(req)) {
        usage_error(format!(
            "--require {} must also be among the policies under test",
            req.key()
        ));
    }

    let scenario = chaos::chaos_scenario(base, campaign_name, (campaign.build)());
    let cards = chaos::run_campaign(
        &scenario,
        &policies,
        horizon_cycles,
        seed,
        threads,
        contract,
    )
    .unwrap_or_else(|e| fail(format!("chaos campaign failed to schedule: {e}")));

    println!(
        "chaos: campaign {campaign_name}, scenario {}, seed {seed}, horizon {horizon_cycles} cycles",
        scenario.name
    );
    for card in &cards {
        let latency = if card.recovery_latencies.is_empty() {
            "n/a".to_string()
        } else {
            let min = card.recovery_latencies.iter().min().expect("non-empty");
            let max = card.recovery_latencies.iter().max().expect("non-empty");
            format!("{min}..{max} cycles")
        };
        println!(
            "  {}: availability {:.4}, recovery {latency}, worst outage {} cycles, \
             {} restores, static misses {}",
            card.label,
            card.chaos.availability(),
            card.worst_survived_outage_cycles
                .map_or_else(|| "n/a".to_string(), |v| v.to_string()),
            card.counters.service_restores,
            card.static_deadlines.1,
        );
        for check in &card.checks {
            println!(
                "    [{}] {}",
                if check.pass { "PASS" } else { "FAIL" },
                check.name
            );
        }
    }

    if let Some(path) = flag_value(args, "--out") {
        let doc = chaos::chaos_report_json(
            campaign_name,
            scenario.name,
            seed,
            horizon_cycles,
            contract,
            &cards,
        );
        write_out(path, format!("{doc}\n"));
        println!("  wrote {path}");
    }

    let mut failed = false;
    for &req in &required {
        let card = cards
            .iter()
            .find(|c| c.policy == req.key())
            .expect("required policy was run");
        if !card.passed() {
            eprintln!(
                "chaos: required policy {} FAILED its recovery contract",
                req.key()
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// figures
// ---------------------------------------------------------------------------

fn run_figures(args: &[String]) {
    let json = args.iter().any(|a| a == "--json");
    let which: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    if let Some(bad) = which.iter().find(|w| !FIGURES.contains(w)) {
        let subcommands: Vec<&str> = SUBCOMMANDS.iter().map(|c| c.name).collect();
        eprintln!("unknown subcommand or figure \"{bad}\"");
        eprintln!("valid subcommands: {}", subcommands.join(", "));
        eprintln!("valid figures: {}", FIGURES.join(", "));
        std::process::exit(2);
    }
    let all = which.is_empty() || which.contains(&"all");
    let want = |f: &str| all || which.contains(&f);

    let counts: Vec<u64> = vec![200, 400, 600, 800, 1000];

    for (fig, scenario) in [("fig1", Scenario::ber7()), ("fig2", Scenario::ber9())] {
        if !want(fig) {
            continue;
        }
        let rows = fig_running_time(&scenario, &counts);
        print_table(
            &format!(
                "Figure {} — running time, {} (seconds of simulated bus time)",
                &fig[3..],
                scenario.name
            ),
            &[
                "workload",
                "slots",
                "policy",
                "messages",
                "running time [s]",
            ],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.workload.to_string(),
                        r.slots.to_string(),
                        r.policy.to_string(),
                        r.messages.to_string(),
                        format!("{:.3}", r.running_time_s),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        if json {
            let doc = Json::array(rows.iter().map(|r| {
                Json::object([
                    ("workload", Json::str(r.workload)),
                    ("slots", Json::from(r.slots)),
                    ("policy", Json::str(r.policy)),
                    ("scenario", Json::str(r.scenario)),
                    ("messages", Json::from(r.messages)),
                    ("running_time_s", Json::from(r.running_time_s)),
                ])
            }));
            println!("{doc}");
        }
    }

    if want("fig3") {
        let rows = fig3_bandwidth();
        print_table(
            "Figure 3 — bandwidth utilization (%)",
            &["minislots", "policy", "utilization [%]"],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.minislots.to_string(),
                        r.policy.to_string(),
                        format!("{:.1}", r.utilization_pct),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        if json {
            let doc = Json::array(rows.iter().map(|r| {
                Json::object([
                    ("minislots", Json::from(r.minislots)),
                    ("policy", Json::str(r.policy)),
                    ("utilization_pct", Json::from(r.utilization_pct)),
                ])
            }));
            println!("{doc}");
        }
    }

    for (fig, workload, segment) in [
        ("fig4a", "synthetic", Segment::Static),
        ("fig4b", "BBW+ACC", Segment::Static),
        ("fig4c", "synthetic", Segment::Dynamic),
        ("fig4d", "BBW+ACC", Segment::Dynamic),
    ] {
        if !want(fig) {
            continue;
        }
        let rows: Vec<_> = fig4_latency(workload)
            .into_iter()
            .filter(|r| r.segment == segment)
            .collect();
        print_table(
            &format!(
                "Figure 4({}) — average {} -segment latency, {workload} (ms)",
                &fig[4..],
                if segment == Segment::Static {
                    "static"
                } else {
                    "dynamic"
                },
            ),
            &["minislots", "scenario", "policy", "mean latency [ms]"],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.minislots.to_string(),
                        r.scenario.to_string(),
                        r.policy.to_string(),
                        format!("{:.3}", r.mean_latency_ms),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        if json {
            let doc = Json::array(rows.iter().map(|r| {
                Json::object([
                    ("workload", Json::str(r.workload)),
                    (
                        "segment",
                        Json::str(if r.segment == Segment::Static {
                            "static"
                        } else {
                            "dynamic"
                        }),
                    ),
                    ("minislots", Json::from(r.minislots)),
                    ("scenario", Json::str(r.scenario)),
                    ("policy", Json::str(r.policy)),
                    ("mean_latency_ms", Json::from(r.mean_latency_ms)),
                ])
            }));
            println!("{doc}");
        }
    }

    if want("verify") {
        let verdicts = verify_reproduction();
        print_table(
            "Reproduction verdict — the paper's headline claims vs this build",
            &["claim", "verdict", "evidence"],
            &verdicts
                .iter()
                .map(|v| {
                    vec![
                        v.claim.to_string(),
                        if v.pass { "PASS".into() } else { "FAIL".into() },
                        v.evidence.clone(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        if json {
            let doc = Json::array(verdicts.iter().map(|v| {
                Json::object([
                    ("claim", Json::str(v.claim)),
                    ("pass", Json::from(v.pass)),
                    ("evidence", Json::str(v.evidence.clone())),
                ])
            }));
            println!("{doc}");
        }
        if verdicts.iter().any(|v| !v.pass) {
            std::process::exit(1);
        }
    }

    if want("ablation") {
        let rows = ablation();
        print_table(
            "Ablation — each CoEfficient mechanism isolated (BBW+ACC + SAE, 1 s)",
            &[
                "variant",
                "delivered",
                "static lat [ms]",
                "dynamic lat [ms]",
                "util [%]",
                "miss [%]",
            ],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.variant.to_string(),
                        r.delivered.to_string(),
                        format!("{:.3}", r.static_latency_ms),
                        format!("{:.3}", r.dynamic_latency_ms),
                        format!("{:.1}", r.utilization_pct),
                        format!("{:.2}", r.miss_pct),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        if json {
            let doc = Json::array(rows.iter().map(|r| {
                Json::object([
                    ("variant", Json::str(r.variant)),
                    ("delivered", Json::from(r.delivered)),
                    ("static_latency_ms", Json::from(r.static_latency_ms)),
                    ("dynamic_latency_ms", Json::from(r.dynamic_latency_ms)),
                    ("utilization_pct", Json::from(r.utilization_pct)),
                    ("miss_pct", Json::from(r.miss_pct)),
                ])
            }));
            println!("{doc}");
        }
    }

    if want("faults") {
        let rows = fault_model_ablation();
        print_table(
            "Fault-model ablation — Bernoulli vs Gilbert–Elliott at BER 1e-5",
            &["model", "policy", "delivered", "corrupted", "miss [%]"],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.model.to_string(),
                        r.policy.to_string(),
                        r.delivered.to_string(),
                        r.corrupted.to_string(),
                        format!("{:.2}", r.miss_pct),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        if json {
            let doc = Json::array(rows.iter().map(|r| {
                Json::object([
                    ("model", Json::str(r.model)),
                    ("policy", Json::str(r.policy)),
                    ("delivered", Json::from(r.delivered)),
                    ("corrupted", Json::from(r.corrupted)),
                    ("miss_pct", Json::from(r.miss_pct)),
                ])
            }));
            println!("{doc}");
        }
    }

    if want("fig5") {
        let rows = fig5_miss_ratio();
        print_table(
            "Figure 5 — deadline miss ratio (%)",
            &["minislots", "scenario", "policy", "miss ratio [%]"],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.minislots.to_string(),
                        r.scenario.to_string(),
                        r.policy.to_string(),
                        format!("{:.2}", r.miss_pct),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        if json {
            let doc = Json::array(rows.iter().map(|r| {
                Json::object([
                    ("minislots", Json::from(r.minislots)),
                    ("scenario", Json::str(r.scenario)),
                    ("policy", Json::str(r.policy)),
                    ("miss_pct", Json::from(r.miss_pct)),
                ])
            }));
            println!("{doc}");
        }
    }
}
