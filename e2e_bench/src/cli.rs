//! Strict command-line parsing: every flag is known, given once, and
//! carries a valid value. A typo is an error, never a silently ignored
//! flag that starts a long run with defaults.

use std::fmt;

use crate::workload::Workload;
use crate::RUN_SECONDS;

/// Usage text printed with `--help` and after a parse error.
pub const USAGE: &str = "usage: e2e_bench --workload <name> --seed <u64> \
[--seconds 20] [--trace <0|1>]
workloads: batch_a_r25, overlap_a_r57, overlap_b_r25, small_batch_a_r25";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// What the command line asked for.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run a workload.
    Run(Args),
    /// Print [`USAGE`] and exit.
    Help,
}

/// A rejected command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

fn err<T>(msg: String) -> Result<T, CliError> {
    Err(CliError(msg))
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// [`CliError`] on an unknown flag, a flag without a value or given twice,
/// an unknown workload, a value that does not parse, a `--seconds` other
/// than [`RUN_SECONDS`], or a missing `--workload` or `--seed`.
pub fn parse<I, S>(args: I) -> Result<Command, CliError>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.into_iter().map(Into::into);
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(Command::Help);
        }
        let slot: &mut Option<String> = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            _ => return err(format!("unknown argument `{flag}`")),
        };
        if slot.is_some() {
            return err(format!("`{flag}` given twice"));
        }
        match it.next() {
            Some(v) if !v.starts_with("--") => *slot = Some(v),
            _ => return err(format!("`{flag}` needs a value")),
        }
    }
    let name = workload.ok_or_else(|| CliError("missing `--workload`".into()))?;
    let workload =
        Workload::from_name(&name).ok_or_else(|| CliError(format!("unknown workload `{name}`")))?;
    let seed = seed.ok_or_else(|| CliError("missing `--seed`".into()))?;
    let seed = seed
        .parse::<u64>()
        .map_err(|_| CliError(format!("`--seed {seed}` is not a u64")))?;
    // The benchmark runner passes `run_seconds` from `BENCHMARK.json`; the
    // run length is fixed, so any other value is refused.
    if let Some(s) = seconds {
        if s.parse::<u64>() != Ok(RUN_SECONDS) {
            return err(format!(
                "`--seconds {s}`: the measured phase is fixed at {RUN_SECONDS} s"
            ));
        }
    }
    let trace = match trace.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return err(format!("`--trace {t}` must be 0 or 1")),
    };
    Ok(Command::Run(Args {
        workload,
        seed,
        trace,
    }))
}
