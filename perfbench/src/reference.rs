//! Recorded reference digests, one line per input set.
//!
//! `perfbench/reference/<workload>.txt` holds, for each input set, the
//! digests its runs must reproduce. For `sweep-steady` and
//! `chaos-recovery` that is one `RunReport::fingerprint` per run, in pass
//! order (`-` for a run the reference found unschedulable). For
//! `fleet-setup` it is the `FleetAggregate::digest` followed by one fold
//! per policy of `(vehicle, fingerprint)` digests
//! ([`crate::timed::vehicle_fold`]). `perfbench record` writes the files
//! through the library's own harnesses: `SweepRunner`, `run_campaign` and
//! `fleet::exec`.

use std::fs;
use std::path::PathBuf;

use crate::workload::Workload;

/// Directory of the reference files, relative to the repository root.
pub const DIR: &str = "perfbench/reference";

/// The reference file of `workload`.
pub fn path(workload: Workload) -> PathBuf {
    PathBuf::from(DIR).join(format!("{}.txt", workload.name()))
}

/// Reads the digests of input set `set`.
///
/// # Errors
/// A message for an unreadable file, a malformed line or a missing set.
pub fn load(workload: Workload, set: u64) -> Result<Vec<Option<u64>>, String> {
    let path = path(workload);
    let text =
        fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let mut tokens = line.split_whitespace();
        let key = tokens.next().and_then(|t| t.parse::<u64>().ok());
        if key == Some(set) {
            return tokens
                .map(|t| parse_digest(t).map_err(|e| format!("{}: {e}", path.display())))
                .collect();
        }
    }
    Err(format!("{} has no input set {set}", path.display()))
}

fn parse_digest(token: &str) -> Result<Option<u64>, String> {
    if token == "-" {
        return Ok(None);
    }
    u64::from_str_radix(token, 16)
        .map(Some)
        .map_err(|_| format!("malformed digest `{token}`"))
}

/// One reference line.
pub fn format_line(set: u64, digests: &[Option<u64>]) -> String {
    let mut line = set.to_string();
    for digest in digests {
        match digest {
            Some(d) => line.push_str(&format!(" {d:016x}")),
            None => line.push_str(" -"),
        }
    }
    line
}

/// Writes `workload`'s reference file.
///
/// # Errors
/// The filesystem error, rendered.
pub fn save(workload: Workload, lines: &[String]) -> Result<(), String> {
    let path = path(workload);
    let mut text = format!(
        "# {} reference digests: `<input set> <digest>...`, see src/reference.rs.\n\
         # Re-record with `perfbench record --workload {}`.\n",
        workload.name(),
        workload.name()
    );
    for line in lines {
        text.push_str(line);
        text.push('\n');
    }
    fs::create_dir_all(DIR).map_err(|e| format!("cannot create {DIR}: {e}"))?;
    fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip() {
        let digests = [Some(0xdead_beef_u64), None, Some(u64::MAX)];
        let line = format_line(5, &digests);
        assert_eq!(line, "5 00000000deadbeef - ffffffffffffffff");
        let parsed: Result<Vec<_>, _> = line.split_whitespace().skip(1).map(parse_digest).collect();
        assert_eq!(parsed.unwrap(), digests);
        assert!(parse_digest("xyz").is_err());
    }
}
