//! Regenerates every figure of the CoEfficient paper's evaluation, and
//! runs multi-seed sweeps on the same machinery.
//!
//! `experiments --help` lists every subcommand with its flags. Each
//! `SUBCOMMANDS` row declares its flags with their kinds and the
//! positional words it takes; one parse pass checks every argument
//! against the row before anything runs.
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
//! raw rows as JSON to stdout (for plotting). An unknown subcommand,
//! figure name or flag, a malformed or repeated value, or a positional
//! word a subcommand does not take exits 2 with a message. `--help` (or
//! `-h`, or `help`) prints every subcommand with its flags and exits 0.

use bench_harness::experiments::{
    ablation, dynamic_experiment_statics, fault_model_ablation, fig3_bandwidth, fig4_latency,
    fig5_miss_ratio, fig_running_time, verify_reproduction, Segment,
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
use bench_harness::trace::{chrome_json, trace_json, validate_trace};
use coefficient::registry::{self, lookup};
use coefficient::{
    CellCoord, Scenario, SeedStrategy, StopCondition, SweepRunner, TraceConfig, UnknownName,
};
use event_sim::SimDuration;
use fleet::FleetSpec;
use flexray::config::ClusterConfig;
use Kind::*;

/// What follows a flag on the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// Nothing: the flag stands alone.
    Switch,
    /// One value, kept as text (a path, a registry name, a cell).
    Text,
    /// Text that may be given again; every value counts.
    Texts,
    /// An integer of at least 1.
    Count,
    /// A non-negative integer.
    Number,
    /// A finite fraction, 0 <= f < 1.
    Fraction,
}

/// Flags a command takes: what follows them, and their space-separated
/// names.
type Flag = (Kind, &'static str);

/// A subcommand: its entry point, the positional words it takes and its
/// flags.
struct Command {
    name: &'static str,
    run: fn(&Flags),
    words: fn() -> Vec<&'static str>,
    /// In groups, so the sweep-shaped subcommands share [`SWEEP_FLAGS`].
    flags: &'static [&'static [Flag]],
}

/// The flags `parse_spec` reads, shared by every sweep-shaped subcommand.
const SWEEP_FLAGS: &[Flag] = &[
    (Count, "--seeds"),
    (Number, "--master-seed --minislots"),
    (Count, "--horizon-ms --threads"),
    (Texts, "--policy --scenario"),
    (Switch, "--shared-seeds"),
];

/// Every subcommand. Any other first argument is a figure name (see
/// `FIGURES`) or a flag of the figure run.
static SUBCOMMANDS: [Command; 11] = [
    Command {
        name: "sweep",
        run: run_sweep,
        words: Vec::new,
        flags: &[SWEEP_FLAGS, &[(Switch, "--json --pretty")]],
    },
    Command {
        name: "replay",
        run: run_replay,
        words: Vec::new,
        flags: &[SWEEP_FLAGS, &[(Text, "--cell")]],
    },
    Command {
        name: "trace",
        run: run_trace,
        words: Vec::new,
        flags: &[
            SWEEP_FLAGS,
            &[
                (Text, "--cell --out --format"),
                (Number, "--capacity --sample-every"),
                (Switch, "--golden"),
            ],
        ],
    },
    Command {
        name: "golden",
        run: run_golden,
        words: || vec!["record", "verify"],
        flags: &[&[(Text, "--out --name --corpus")]],
    },
    Command {
        name: "determinism",
        run: run_determinism,
        words: Vec::new,
        flags: &[SWEEP_FLAGS, &[(Text, "--thread-counts")]],
    },
    Command {
        name: "storm-smoke",
        run: run_storm_smoke,
        words: Vec::new,
        flags: &[&[(Number, "--seed"), (Count, "--horizon-ms")]],
    },
    Command {
        name: "chaos",
        run: run_chaos,
        words: Vec::new,
        flags: &[&[
            (Text, "--campaign --scenario"),
            (Texts, "--policy --require"),
            (Number, "--seed"),
            (Count, "--horizon-cycles"),
            (Number, "--recovery-budget --hard-miss-budget"),
            (Count, "--threads"),
            (Text, "--out"),
        ]],
    },
    Command {
        name: "cycles",
        run: run_cycles,
        words: Vec::new,
        flags: &[&[
            (Count, "--iters"),
            (Text, "--out --baseline"),
            (Fraction, "--tolerance"),
            (Switch, "--smoke"),
        ]],
    },
    Command {
        name: "fleet",
        run: run_fleet,
        words: Vec::new,
        flags: &[&[
            (Number, "--vehicles"),
            (Texts, "--policy"),
            (Text, "--env"),
            (Number, "--seed"),
            (Count, "--threads --shard-size --horizon-ms"),
            (Number, "--minislots"),
            (Text, "--out --bench-out --stats-file --stats-socket"),
            (Number, "--stats-every-ms"),
            (Switch, "--smoke"),
        ]],
    },
    Command {
        name: "backbone",
        run: run_backbone,
        words: Vec::new,
        flags: &[&[
            (Text, "--topology"),
            (Texts, "--reservation"),
            (Count, "--threads --hypercycles"),
            (Text, "--out"),
            (Switch, "--flows"),
        ]],
    },
    Command {
        name: "trace-overhead",
        run: run_trace_overhead,
        words: Vec::new,
        flags: &[&[
            (Text, "--cell"),
            (Count, "--iters"),
            (Number, "--capacity --sample-every"),
            (Fraction, "--tolerance"),
        ]],
    },
];

/// The figure run: positional figure names plus `--json`.
static FIGURE_RUN: Command = Command {
    name: "figures",
    run: run_figures,
    words: figure_names,
    flags: &[&[(Switch, "--json")]],
};

impl Command {
    /// Every flag it declares, one at a time.
    fn flags(&self) -> impl Iterator<Item = Flag> + '_ {
        let groups = self.flags.iter().flat_map(|group| group.iter());
        groups.flat_map(|&(kind, names)| names.split_whitespace().map(move |name| (kind, name)))
    }

    /// Its flags as `--help` lists them: value flags, then switches.
    fn help_words(&self) -> impl Iterator<Item = String> + '_ {
        let values = self.flags().filter(|&(kind, _)| kind != Switch);
        let switches = self.flags().filter(|&(kind, _)| kind == Switch);
        values
            .map(|(_, name)| format!("{name} <value>"))
            .chain(switches.map(|(_, name)| name.to_string()))
    }
}

/// A flag's checked value.
enum Value {
    On,
    Text(String),
    Number(u64),
    Fraction(f64),
}

/// The arguments of one run, each checked against its command's row.
struct Flags {
    command: &'static Command,
    /// The positional words, each one the row declares.
    words: Vec<&'static str>,
    /// Every flag given, in order; only a [`Texts`] flag appears twice.
    given: Vec<(&'static str, Value)>,
}

impl Flags {
    /// Checks `args` against `command`'s row. Exits 2 on a word or flag it
    /// does not declare, a missing or malformed value, or a second use of
    /// a flag that is not [`Texts`].
    fn parse(command: &'static Command, args: &[String]) -> Flags {
        let words = (command.words)();
        let mut flags = Flags {
            command,
            words: Vec::new(),
            given: Vec::new(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                match words.iter().find(|&word| word == arg) {
                    Some(word) => flags.words.push(word),
                    None => unexpected_word(command, arg),
                }
                continue;
            }
            let Some((kind, name)) = command.flags().find(|&(_, name)| name == arg) else {
                usage_error(UnknownName {
                    kind: "flag",
                    name: arg.clone(),
                    valid: command.flags().map(|(_, name)| name).collect(),
                })
            };
            if kind != Texts && flags.given.iter().any(|&(given, _)| given == name) {
                usage_error(format!("{name} given twice"));
            }
            let value = match kind {
                Switch => Value::On,
                _ => match args.next() {
                    Some(text) if !text.starts_with("--") => parse_value(name, kind, text),
                    _ => usage_error(format!("{name} needs a value")),
                },
            };
            flags.given.push((name, value));
        }
        flags
    }

    /// The values `name` was given, which the row must declare as one of
    /// `kinds`.
    fn values(&self, name: &str, kinds: &[Kind]) -> impl Iterator<Item = &Value> {
        let (_, name) = self
            .command
            .flags()
            .find(|&(kind, flag)| flag == name && kinds.contains(&kind))
            .unwrap_or_else(|| panic!("{} declares no {name} {kinds:?}", self.command.name));
        self.given
            .iter()
            .filter(move |&&(given, _)| given == name)
            .map(|(_, value)| value)
    }

    /// Whether flag `name`, of any kind, was given.
    fn present(&self, name: &str) -> bool {
        let kinds = [Switch, Text, Texts, Count, Number, Fraction];
        self.values(name, &kinds).next().is_some()
    }

    /// Whether [`Switch`] `name` was given.
    fn on(&self, name: &str) -> bool {
        self.values(name, &[Switch]).next().is_some()
    }

    /// The value of [`Text`] `name`.
    fn text(&self, name: &str) -> Option<&str> {
        self.values(name, &[Text]).next().map(Value::text)
    }

    /// Every value of [`Texts`] `name`, in order.
    fn texts(&self, name: &str) -> Vec<&str> {
        self.values(name, &[Texts]).map(Value::text).collect()
    }

    /// The value of [`Count`] or [`Number`] `name`; exits 2 if `T` cannot
    /// hold it.
    fn number<T: TryFrom<u64>>(&self, name: &str) -> Option<T> {
        let &Value::Number(n) = self.values(name, &[Count, Number]).next()? else {
            unreachable!("{name} is declared a number")
        };
        Some(
            T::try_from(n)
                .unwrap_or_else(|_| usage_error(format!("invalid value for {name}: {n}"))),
        )
    }

    /// The value of [`Fraction`] `name`.
    fn fraction(&self, name: &str) -> Option<f64> {
        let &Value::Fraction(f) = self.values(name, &[Fraction]).next()? else {
            unreachable!("{name} is declared a fraction")
        };
        Some(f)
    }
}

impl Value {
    fn text(&self) -> &str {
        let Value::Text(text) = self else {
            unreachable!("a text flag holds text")
        };
        text
    }
}

/// Reads `text` as the value of flag `name`, exiting 2 unless it is a
/// `kind`.
fn parse_value(name: &str, kind: Kind, text: &str) -> Value {
    match kind {
        Switch => unreachable!("a switch takes no value"),
        Text | Texts => Value::Text(text.to_string()),
        Count | Number => match text.parse() {
            Ok(0) if kind == Count => usage_error(format!("{name} must be at least 1")),
            Ok(n) => Value::Number(n),
            Err(_) => usage_error(format!("invalid value for {name}: {text}")),
        },
        Fraction => match text.parse() {
            Ok(f) if (0.0..1.0).contains(&f) => Value::Fraction(f),
            _ => usage_error(format!(
                "invalid value for {name}: {text} (a fraction 0 <= f < 1)"
            )),
        },
    }
}

/// Exits 2 on a positional `word` that `command` does not take.
fn unexpected_word(command: &Command, word: &str) -> ! {
    if command.name != FIGURE_RUN.name {
        usage_error(format!("{} takes no argument \"{word}\"", command.name))
    }
    let subcommands: Vec<&str> = SUBCOMMANDS.iter().map(|c| c.name).collect();
    usage_error(format!(
        "unknown subcommand or figure \"{word}\"\nvalid subcommands: {}\nvalid figures: {}",
        subcommands.join(", "),
        figure_names().join(", ")
    ))
}

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
    (command.run)(&Flags::parse(command, rest));
}

/// The `--help` text: every subcommand with the flags it declares, then
/// the figure run.
fn help() -> String {
    let mut out = String::from(
        "usage: experiments <subcommand> [flags]\n       experiments [figure ...] [--json]\n\nsubcommands:\n",
    );
    for command in &SUBCOMMANDS {
        help_row(&mut out, command.name, command.help_words());
    }
    out.push_str("\nfigures (no name runs every one):\n");
    help_row(&mut out, "", figure_names().into_iter().map(String::from));
    help_row(&mut out, "", FIGURE_RUN.help_words());
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

// ---------------------------------------------------------------------------
// sweep / replay
// ---------------------------------------------------------------------------

/// `--minislots`, exit 2 unless the `paper_mixed` cycle fits that many.
fn parse_minislots(flags: &Flags) -> Option<u64> {
    let v = flags.number("--minislots")?;
    if let Err(e) = ClusterConfig::try_paper_mixed(v) {
        usage_error(format!("invalid value for --minislots: {v} ({e:?}: {e})"));
    }
    Some(v)
}

/// Every value of `flag`, resolved by `resolve`; `default` if it has none.
fn parse_all<T, E: std::fmt::Display>(
    flags: &Flags,
    flag: &str,
    resolve: impl Fn(&str) -> Result<T, E>,
    default: Vec<T>,
) -> Vec<T> {
    let values: Vec<T> = flags
        .texts(flag)
        .into_iter()
        .map(|v| resolve(v).unwrap_or_else(|e| usage_error(e)))
        .collect();
    if values.is_empty() {
        default
    } else {
        values
    }
}

/// Runs one cell's configuration, failing the run if it is unschedulable.
fn run_config(cfg: coefficient::RunConfig) -> coefficient::RunReport {
    coefficient::Runner::new(cfg)
        .unwrap_or_else(|e| fail(format!("cell is unschedulable: {e:?}")))
        .run()
}

fn parse_spec(flags: &Flags) -> SweepSpec {
    let default = SweepSpec::default();
    SweepSpec {
        minislots: parse_minislots(flags).unwrap_or(default.minislots),
        horizon_ms: flags.number("--horizon-ms").unwrap_or(default.horizon_ms),
        seeds: flags.number("--seeds").unwrap_or(default.seeds),
        master_seed: flags.number("--master-seed").unwrap_or(default.master_seed),
        threads: flags.number("--threads").or(default.threads),
        policies: parse_all(flags, "--policy", registry::resolve, default.policies),
        scenarios: parse_all(flags, "--scenario", parse_scenario, default.scenarios),
        strategy: if flags.on("--shared-seeds") {
            SeedStrategy::Shared
        } else {
            default.strategy
        },
    }
}

fn run_sweep(flags: &Flags) {
    let spec = parse_spec(flags);
    let report = spec
        .run()
        .unwrap_or_else(|e| fail(format!("sweep configuration is unschedulable: {e:?}")));
    if flags.on("--json") || flags.on("--pretty") {
        let doc = sweep_report_json(&report);
        if flags.on("--pretty") {
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
fn parse_cell(flags: &Flags, matrix: &coefficient::SweepMatrix) -> CellCoord {
    let Some(cell) = flags.text("--cell") else {
        usage_error(format!(
            "{} requires --cell POLICY_INDEX,SCENARIO_INDEX,SEED_INDEX",
            flags.command.name
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

fn run_replay(flags: &Flags) {
    let spec = parse_spec(flags);
    let runner = SweepRunner::new(spec.build_matrix());
    let coord = parse_cell(flags, runner.matrix());
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
fn run_trace(flags: &Flags) {
    let spec = if flags.on("--golden") {
        let mut sweep_flags = SWEEP_FLAGS
            .iter()
            .flat_map(|(_, names)| names.split_whitespace());
        if let Some(name) = sweep_flags.find(|name| flags.present(name)) {
            usage_error(format!(
                "{name} cannot be combined with --golden, which traces the pinned golden matrix"
            ));
        }
        golden_spec()
    } else {
        parse_spec(flags)
    };
    let matrix = spec.build_matrix();
    let coord = parse_cell(flags, &matrix);
    let capacity: usize = flags.number("--capacity").unwrap_or(1 << 20);
    let sample_every: u64 = flags.number("--sample-every").unwrap_or(10);
    let format = flags.text("--format").unwrap_or("json");
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
    let stem = format!("trace-{}-{}-{}", coord.policy, coord.scenario, coord.seed);
    let (content, default_name) = match format {
        "chrome" => (chrome_json(log), format!("{stem}.chrome.json")),
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
            (doc.to_string(), format!("{stem}.json"))
        }
    };
    let out = flags
        .text("--out")
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

fn run_golden(flags: &Flags) {
    match flags.words[..] {
        ["record"] => {
            let out = flags.text("--out").unwrap_or(DEFAULT_CORPUS_PATH);
            let name = flags.text("--name").unwrap_or("default");
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
        ["verify"] => {
            let path = flags.text("--corpus").unwrap_or(DEFAULT_CORPUS_PATH);
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

fn run_cycles(flags: &Flags) {
    if flags.fraction("--tolerance").is_some() && flags.text("--baseline").is_none() {
        usage_error("--tolerance needs --baseline: it bounds the regression against a baseline");
    }
    let mut spec = cycles_spec(flags.on("--smoke"));
    if let Some(iters) = flags.number("--iters") {
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
    if let Some(out) = flags.text("--out") {
        let text = cycles_to_json(&report).pretty() + "\n";
        write_out(out, text);
        println!("bench cycles: wrote {out}");
    }
    if let Some(path) = flags.text("--baseline") {
        let tolerance = flags.fraction("--tolerance").unwrap_or(CYCLES_TOLERANCE);
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

fn run_fleet(flags: &Flags) {
    let mut spec = if flags.on("--smoke") {
        fleet_bench::smoke_spec()
    } else {
        FleetSpec::default()
    };
    if let Some(v) = flags.text("--env") {
        spec.env = lookup(fleet::env::all(), v).unwrap_or_else(|e| usage_error(e));
    }
    if let Some(v) = flags.number("--vehicles") {
        spec.vehicles = v;
    }
    let models = registry::keys(fleet::env::all()).join(", ");
    if spec.vehicles == 0 {
        usage_error(format!(
            "fleet needs --vehicles >= 1 (environment models: {models})"
        ));
    }
    spec.seed = flags.number("--seed").unwrap_or(spec.seed);
    spec.shard_size = flags.number("--shard-size").unwrap_or(spec.shard_size);
    if let Some(v) = flags.number("--horizon-ms") {
        spec.horizon = fleet_bench::horizon_from_ms(v);
    }
    spec.minislots = parse_minislots(flags).unwrap_or(spec.minislots);
    spec.policies = parse_all(flags, "--policy", registry::resolve, spec.policies);
    let threads = flags.number("--threads").unwrap_or(1);

    let stats = fleet::StatsConfig {
        file: flags.text("--stats-file").map(Into::into),
        socket: flags.text("--stats-socket").map(Into::into),
        every: flags
            .number("--stats-every-ms")
            .map(std::time::Duration::from_millis),
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

    if let Some(path) = flags.text("--out") {
        let doc = fleet_bench::fleet_report_json(&spec, &run.aggregate);
        write_out(path, format!("{doc}\n"));
        println!("  wrote {path}");
    }
    if let Some(path) = flags.text("--bench-out") {
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

fn run_backbone(flags: &Flags) {
    let topology_name = flags.text("--topology").unwrap_or("paper-duplex");
    let topology =
        lookup(backbone::topology::all(), topology_name).unwrap_or_else(|e| usage_error(e));
    let mut spec = backbone::MatrixSpec::pinned(topology);
    let reservation = |name: &str| lookup(backbone::ALL_RESERVATIONS, name).copied();
    spec.reservations = parse_all(flags, "--reservation", reservation, spec.reservations);
    if let Some(hypercycles) = flags.number("--hypercycles") {
        if hypercycles > MAX_HYPERCYCLES {
            usage_error(format!("--hypercycles must be at most {MAX_HYPERCYCLES}"));
        }
        spec.hypercycles = hypercycles;
    }
    let threads = flags.number("--threads").unwrap_or(1);
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
        if flags.on("--flows") {
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
    if let Some(out) = flags.text("--out") {
        let doc = backbone_report_json(topology, &reports);
        write_out(out, doc.pretty() + "\n");
        println!("  wrote {out}");
    }
    if let Err(defect) = check_backbone_matrix(&reports) {
        fail(format!("backbone GATE FAILED: {defect}"))
    }
    println!("backbone: gates passed (jitter within declared bounds, hypercycle gain present)");
}

fn run_trace_overhead(flags: &Flags) {
    let spec = golden_spec();
    let matrix = spec.build_matrix();
    let coord = if flags.text("--cell").is_some() {
        parse_cell(flags, &matrix)
    } else {
        CellCoord {
            policy: 0,
            scenario: 2,
            seed: 1,
        }
    };
    let iters = flags.number("--iters").unwrap_or(7);
    let capacity: usize = flags.number("--capacity").unwrap_or(1 << 20);
    let sample_every: u64 = flags.number("--sample-every").unwrap_or(10);
    let tolerance = flags.fraction("--tolerance").unwrap_or(0.05);
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

fn run_determinism(flags: &Flags) {
    let spec = parse_spec(flags);
    let thread_counts: Vec<usize> = flags
        .text("--thread-counts")
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
fn run_storm_smoke(flags: &Flags) {
    let seed = flags.number("--seed").unwrap_or(STORM_SMOKE_SEED);
    let horizon_ms: u64 = flags.number("--horizon-ms").unwrap_or(200);
    let report = run_config(coefficient::RunConfig {
        cluster: ClusterConfig::paper_mixed(50),
        scenario: Scenario::ber7().storm(),
        static_messages: dynamic_experiment_statics(),
        dynamic_messages: workloads::sae::message_set(workloads::sae::IdRange::For80Slots, seed),
        policy: coefficient::COEFFICIENT,
        stop: StopCondition::Horizon(SimDuration::from_millis(horizon_ms)),
        seed,
        trace: Default::default(),
    });
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
fn run_chaos(flags: &Flags) {
    let campaign_name = flags.text("--campaign").unwrap_or(chaos::DEFAULT_CAMPAIGN);
    let campaign = lookup(&chaos::CAMPAIGNS, campaign_name).unwrap_or_else(|e| usage_error(e));
    let campaign_name = campaign.name;
    let base = flags.text("--scenario").map_or_else(Scenario::ber7, |v| {
        parse_scenario(v).unwrap_or_else(|e| usage_error(e))
    });
    let seed = flags.number("--seed").unwrap_or(chaos::CHAOS_SEED);
    let horizon_cycles = flags
        .number("--horizon-cycles")
        .unwrap_or(chaos::DEFAULT_HORIZON_CYCLES);
    let threads = flags.number("--threads").unwrap_or(1);
    let mut contract = ChaosContract::default();
    if let Some(v) = flags.number("--recovery-budget") {
        contract.recovery_budget_cycles = v;
    }
    if let Some(v) = flags.number("--hard-miss-budget") {
        contract.hard_miss_budget = v;
    }
    let policies = parse_all(flags, "--policy", registry::resolve, registry::ALL.to_vec());
    let required = parse_all(flags, "--require", registry::resolve, Vec::new());
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

    if let Some(path) = flags.text("--out") {
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

/// One column of a figure row: its table header (empty keeps the column
/// out of the table), its JSON key, its table text and its JSON value.
type Column = (&'static str, &'static str, String, Json);

fn text(header: &'static str, key: &'static str, v: &str) -> Column {
    (header, key, v.to_string(), Json::str(v))
}

fn count(header: &'static str, key: &'static str, n: u64) -> Column {
    (header, key, n.to_string(), Json::from(n))
}

/// A number shown with `decimals` decimals.
fn real(header: &'static str, key: &'static str, v: f64, decimals: usize) -> Column {
    (header, key, format!("{v:.decimals$}"), Json::from(v))
}

/// A checked claim, `PASS` or `FAIL`; a failed one makes the figure run
/// exit 1.
fn pass(header: &'static str, key: &'static str, pass: bool) -> Column {
    let verdict = if pass { "PASS" } else { "FAIL" };
    (header, key, verdict.to_string(), Json::from(pass))
}

/// A figure of the figure run.
struct Figure {
    name: &'static str,
    title: &'static str,
    /// Runs the figure's experiment: one row of columns per point.
    rows: fn() -> Vec<Vec<Column>>,
}

/// Every figure, in the order the figure run prints them.
static FIGURES: [Figure; 11] = [
    Figure {
        name: "fig1",
        title: "Figure 1 — running time, BER-7 (seconds of simulated bus time)",
        rows: || running_time(Scenario::ber7()),
    },
    Figure {
        name: "fig2",
        title: "Figure 2 — running time, BER-9 (seconds of simulated bus time)",
        rows: || running_time(Scenario::ber9()),
    },
    Figure {
        name: "fig3",
        title: "Figure 3 — bandwidth utilization (%)",
        rows: || {
            columns(fig3_bandwidth(), |r| {
                vec![
                    count("minislots", "minislots", r.minislots),
                    text("policy", "policy", r.policy),
                    real("utilization [%]", "utilization_pct", r.utilization_pct, 1),
                ]
            })
        },
    },
    Figure {
        name: "fig4a",
        title: "Figure 4(a) — average static -segment latency, synthetic (ms)",
        rows: || latency("synthetic", Segment::Static),
    },
    Figure {
        name: "fig4b",
        title: "Figure 4(b) — average static -segment latency, BBW+ACC (ms)",
        rows: || latency("BBW+ACC", Segment::Static),
    },
    Figure {
        name: "fig4c",
        title: "Figure 4(c) — average dynamic -segment latency, synthetic (ms)",
        rows: || latency("synthetic", Segment::Dynamic),
    },
    Figure {
        name: "fig4d",
        title: "Figure 4(d) — average dynamic -segment latency, BBW+ACC (ms)",
        rows: || latency("BBW+ACC", Segment::Dynamic),
    },
    Figure {
        name: "verify",
        title: "Reproduction verdict — the paper's headline claims vs this build",
        rows: || {
            columns(verify_reproduction(), |v| {
                vec![
                    text("claim", "claim", v.claim),
                    pass("verdict", "pass", v.pass),
                    text("evidence", "evidence", &v.evidence),
                ]
            })
        },
    },
    Figure {
        name: "ablation",
        title: "Ablation — each CoEfficient mechanism isolated (BBW+ACC + SAE, 1 s)",
        rows: || {
            columns(ablation(), |r| {
                vec![
                    text("variant", "variant", r.variant),
                    count("delivered", "delivered", r.delivered),
                    real(
                        "static lat [ms]",
                        "static_latency_ms",
                        r.static_latency_ms,
                        3,
                    ),
                    real(
                        "dynamic lat [ms]",
                        "dynamic_latency_ms",
                        r.dynamic_latency_ms,
                        3,
                    ),
                    real("util [%]", "utilization_pct", r.utilization_pct, 1),
                    real("miss [%]", "miss_pct", r.miss_pct, 2),
                ]
            })
        },
    },
    Figure {
        name: "faults",
        title: "Fault-model ablation — Bernoulli vs Gilbert–Elliott at BER 1e-5",
        rows: || {
            columns(fault_model_ablation(), |r| {
                vec![
                    text("model", "model", r.model),
                    text("policy", "policy", r.policy),
                    count("delivered", "delivered", r.delivered),
                    count("corrupted", "corrupted", r.corrupted),
                    real("miss [%]", "miss_pct", r.miss_pct, 2),
                ]
            })
        },
    },
    Figure {
        name: "fig5",
        title: "Figure 5 — deadline miss ratio (%)",
        rows: || {
            columns(fig5_miss_ratio(), |r| {
                vec![
                    count("minislots", "minislots", r.minislots),
                    text("scenario", "scenario", r.scenario),
                    text("policy", "policy", r.policy),
                    real("miss ratio [%]", "miss_pct", r.miss_pct, 2),
                ]
            })
        },
    },
];

/// The rows of `points`, each turned into its columns.
fn columns<R>(points: Vec<R>, row: fn(&R) -> Vec<Column>) -> Vec<Vec<Column>> {
    points.iter().map(row).collect()
}

/// The rows of Figure 1 or 2.
fn running_time(scenario: Scenario) -> Vec<Vec<Column>> {
    columns(
        fig_running_time(&scenario, &[200, 400, 600, 800, 1000]),
        |r| {
            vec![
                text("workload", "workload", r.workload),
                count("slots", "slots", r.slots),
                text("policy", "policy", r.policy),
                text("", "scenario", r.scenario),
                count("messages", "messages", r.messages),
                real("running time [s]", "running_time_s", r.running_time_s, 3),
            ]
        },
    )
}

/// The rows of one Figure 4 panel.
fn latency(workload: &'static str, segment: Segment) -> Vec<Vec<Column>> {
    let mut points = fig4_latency(workload);
    points.retain(|r| r.segment == segment);
    columns(points, |r| {
        let segment = match r.segment {
            Segment::Static => "static",
            Segment::Dynamic => "dynamic",
        };
        vec![
            text("", "workload", r.workload),
            text("", "segment", segment),
            count("minislots", "minislots", r.minislots),
            text("scenario", "scenario", r.scenario),
            text("policy", "policy", r.policy),
            real("mean latency [ms]", "mean_latency_ms", r.mean_latency_ms, 3),
        ]
    })
}

/// The figure names as `--help` lists them: the paper's figures, the
/// ablations, `verify`, then `all`.
fn figure_names() -> Vec<&'static str> {
    let mut names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    names.sort_by_key(|&name| (!name.starts_with("fig"), name == "verify"));
    names.push("all");
    names
}

fn run_figures(flags: &Flags) {
    let all = flags.words.is_empty() || flags.words.contains(&"all");
    for figure in FIGURES
        .iter()
        .filter(|f| all || flags.words.contains(&f.name))
    {
        let rows = (figure.rows)();
        let shown = |(header, ..): &&Column| !header.is_empty();
        let headers: Vec<&str> = rows
            .iter()
            .take(1)
            .flatten()
            .filter(shown)
            .map(|&(header, ..)| header)
            .collect();
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|row| {
                row.iter()
                    .filter(shown)
                    .map(|(.., text, _)| text.clone())
                    .collect()
            })
            .collect();
        print_table(figure.title, &headers, &table);
        if flags.on("--json") {
            let doc = Json::array(rows.iter().map(|row| {
                Json::object(row.iter().map(|(_, key, _, value)| (*key, value.clone())))
            }));
            println!("{doc}");
        }
        if rows
            .iter()
            .flatten()
            .any(|(.., json)| *json == Json::from(false))
        {
            std::process::exit(1);
        }
    }
}
