//! Command-line parsing. Every input error is loud: an unknown workload,
//! flag or malformed value becomes an `Err` naming the valid choices,
//! which `main` turns into exit code 2 before any work starts.

use crate::workload::Workload;

/// Usage text, printed with every input error.
pub const USAGE: &str = "\
usage: perfbench --workload <name> --seed <n> [--seconds <n>] [--trace <0|1>]
       perfbench record --workload <name>

  --workload  sweep-steady | fleet-setup | chaos-recovery
  --seed      input seed, an unsigned integer
  --seconds   how long to measure, 1..=3600 (default 10)
  --trace     0: end-to-end metrics from untraced runs (default)
              1: per-layer metrics from a traced run
  record      re-records the workload's reference digests";

/// What a measuring invocation asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// The workload to run.
    pub workload: Workload,
    /// The seed the workload's inputs derive from.
    pub seed: u64,
    /// Measured duration.
    pub seconds: u64,
    /// Per-layer (traced) instead of end-to-end metrics.
    pub trace: bool,
}

/// A parsed command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Measure a workload.
    Run(RunOptions),
    /// Re-record a workload's reference digests.
    Record(Workload),
    /// Print the usage text.
    Help,
}

const FLAGS: [&str; 4] = ["--workload", "--seed", "--seconds", "--trace"];

/// Parses the arguments after the program name.
///
/// # Errors
/// A message naming the offending argument and the valid choices.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let (record, rest) = match args.first().map(String::as_str) {
        Some("record") => (true, &args[1..]),
        _ => (false, args),
    };
    let mut values: [Option<String>; 4] = Default::default();
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        if arg == "--help" || arg == "-h" {
            return Ok(Command::Help);
        }
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) => (flag, Some(value.to_string())),
            None => (arg.as_str(), None),
        };
        let Some(slot) = FLAGS.iter().position(|f| *f == flag) else {
            return Err(format!(
                "unknown argument `{arg}` (valid flags: {})",
                FLAGS.join(", ")
            ));
        };
        let value = match inline {
            Some(value) => value,
            None => iter
                .next()
                .cloned()
                .ok_or_else(|| format!("`{flag}` needs a value"))?,
        };
        if values[slot].replace(value).is_some() {
            return Err(format!("`{flag}` given twice"));
        }
    }
    let [workload, seed, seconds, trace] = values;
    let workload = workload.ok_or("missing `--workload`")?;
    let workload = Workload::parse(&workload).ok_or_else(|| {
        format!(
            "unknown workload `{workload}` (valid: {})",
            Workload::names().join(", ")
        )
    })?;
    if record {
        if seed.is_some() || seconds.is_some() || trace.is_some() {
            return Err("`record` takes only `--workload`".to_string());
        }
        return Ok(Command::Record(workload));
    }
    let seed = seed.ok_or("missing `--seed`")?;
    let seed = seed
        .parse::<u64>()
        .map_err(|_| format!("malformed `--seed` value `{seed}` (want an unsigned integer)"))?;
    let seconds = match seconds {
        None => 10,
        Some(s) => match s.parse::<u64>() {
            Ok(n) if (1..=3600).contains(&n) => n,
            _ => {
                return Err(format!(
                    "malformed `--seconds` value `{s}` (want an integer in 1..=3600)"
                ))
            }
        },
    };
    let trace = match trace.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(format!("malformed `--trace` value `{t}` (want 0 or 1)")),
    };
    Ok(Command::Run(RunOptions {
        workload,
        seed,
        seconds,
        trace,
    }))
}
