//! Command-line entry point. Prints progress to stderr and, as the last
//! line of stdout, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Writes a stamped record (and, for a traced run, its
//! spans) under `out/` in this package's directory.
//!
//! Exit codes: 0 when every check passed, 1 when a check or the run
//! failed, 2 for a rejected command line.

use std::path::PathBuf;
use std::process::ExitCode;

use e2e_bench::cli::{self, Command, USAGE};
use e2e_bench::report::ResultLine;
use e2e_bench::Config;

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(Command::Run(args)) => args,
        Ok(Command::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("e2e_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = Config::paper();
    let outcome = match e2e_bench::run(args.workload, args.seed, args.trace, &cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            return ExitCode::from(1);
        }
    };
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!(
        "{}_seed{}_trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let mut files = vec![(
        format!("{stem}.json"),
        serde_json::to_string_pretty(&outcome.record),
    )];
    if let Some(trace) = &outcome.trace {
        files.push((format!("{stem}_spans.json"), serde_json::to_string(trace)));
    }
    for (name, body) in files {
        let written = body.map_err(std::io::Error::other).and_then(|body| {
            std::fs::create_dir_all(&out)?;
            std::fs::write(out.join(&name), body)
        });
        if let Err(e) = written {
            eprintln!("e2e_bench: could not write {name}: {e}");
        }
    }
    let line = ResultLine {
        correct: outcome.correct,
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: outcome.metrics,
    };
    match serde_json::to_string(&line) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("e2e_bench: could not write the result line: {e}");
            return ExitCode::from(1);
        }
    }
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
