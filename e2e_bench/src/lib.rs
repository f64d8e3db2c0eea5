//! End-to-end benchmark of the multi-precision pipeline at the paper's
//! geometry: the FINN-topology BNN, the margin DMU and a paper host model,
//! timed through `MultiPrecisionPipeline::execute` on four workloads, with
//! a separate traced run that attributes the time to layers. See
//! `README.md` in this package for the workloads and metrics.

pub mod cli;
pub mod heap;
pub mod measure;
pub mod report;
pub mod stats;
pub mod system;
pub mod workload;

use std::path::Path;
use std::time::Instant;

use mp_tensor::Parallelism;
use serde::Serialize;

use crate::measure::{Bench, TraceLog};
use crate::report::{CallStats, LayerCosts, Metrics};
use crate::stats::median;
use crate::system::{Geometry, System};
use crate::workload::Workload;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Error type of the benchmark's fallible steps.
pub type BenchResult<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Seconds of measurement of a run: `run_seconds` in `BENCHMARK.json`, and
/// the run length the metric bounds were set from.
pub const RUN_SECONDS: u64 = 20;

/// Share of a traced run's time spent on the single-thread BNN probe; the
/// rest alternates untraced and traced calls.
const PROBE_SHARE: f64 = 0.15;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Flagged and kept images each checked against the per-image oracle.
const ORACLE_PER_SIDE: usize = 8;

/// How a run is sized.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Input and model sizes.
    pub geometry: Geometry,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Parallelism of `execute` and the set-up.
    pub par: Parallelism,
}

impl Config {
    /// The benchmark's configuration: paper geometry at
    /// `Parallelism::available()`, measured for [`RUN_SECONDS`].
    pub fn paper() -> Self {
        Self {
            geometry: Geometry::Paper,
            seconds: RUN_SECONDS as f64,
            par: Parallelism::available(),
        }
    }
}

/// What one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Images attempted in timed calls (or checked by the oracle, when it
    /// failed before timing).
    pub attempted: usize,
    /// Images of failed calls plus images that differed from the reference.
    pub failed: usize,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Metrics,
    /// The stamped record.
    pub record: Record,
    /// The traced run's spans, when there was one.
    pub trace: Option<TraceLog>,
}

/// The stamped record of one run, written under `out/`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Threads of `execute` and the set-up.
    pub threads: usize,
    /// Processors the machine reports.
    pub nproc: usize,
    /// The commit measured; `None` outside a git checkout.
    pub git_rev: Option<String>,
    /// Input and model sizes.
    pub geometry: String,
    /// Seconds of measurement asked for.
    pub seconds: f64,
    /// Images in the pool.
    pub pool_images: usize,
    /// The calibrated DMU gate.
    pub gate: f32,
    /// The workload's target flag share.
    pub flag_frac_target: f64,
    /// Flag share of the reference `execute`.
    pub reference_flag_frac: f64,
    /// Images checked against the per-image oracle.
    pub oracle_checked: usize,
    /// Of those, images that differed.
    pub oracle_mismatched: usize,
    /// Wall seconds of each set-up.
    pub setup_s_samples: Vec<f64>,
    /// `ok`, `failed`, or `failed before timing`.
    pub status: String,
    /// The timed phase; `None` when the run failed before timing.
    pub timed: Option<Timed>,
}

/// The timed phase of a [`Record`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Timed {
    /// Flag share of each timed phase (untraced, then traced).
    pub flag_frac_realised: Vec<f64>,
    /// Untraced calls timed.
    pub calls: usize,
    /// Images per call.
    pub call_images: usize,
    /// Percentile reported as `latency_p90_ms`.
    pub latency_tail_pct: f64,
    /// Throughput of the fastest call.
    pub throughput_img_s_max: f64,
    /// Throughput of the median call.
    pub throughput_img_s_median: f64,
    /// Throughput of the tail call.
    pub throughput_img_s_tail: f64,
    /// Peak resident set in MiB, when the platform reports it.
    pub peak_rss_mib: Option<f64>,
    /// Wall seconds of each untraced call.
    pub call_wall_s: Vec<f64>,
    /// Images attempted.
    pub attempted: usize,
    /// Images failed or mismatched.
    pub failed: usize,
    /// The metrics printed in the result line.
    pub metrics: Metrics,
}

/// Peak resident set of this process in MiB (`VmHWM`), if the platform
/// reports it. Recorded, not a metric: see [`heap`].
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The commit checked out at `root`, read from `.git` without running git;
/// `None` outside a git checkout.
pub fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(name).map(|rev| rev.trim().to_string()))
}

/// Runs one workload: set-up (repeated, timed), the pre-timing correctness
/// gate, then the untraced closed loop or, with `trace`, the traced run.
///
/// # Errors
///
/// An error of the set-up or of the reference `execute`; errors of timed
/// calls are counted in [`Outcome::failed`] instead.
pub fn run(workload: Workload, seed: u64, trace: bool, cfg: &Config) -> BenchResult<Outcome> {
    let spec = workload.spec();
    let mut setup_s = Vec::new();
    let mut gates = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous system first so set-ups never overlap in memory.
        drop(built.take());
        let t0 = Instant::now();
        let sys = System::build(cfg.geometry, spec.host, spec.flag_frac, seed, cfg.par)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        gates.push(sys.gate.to_bits());
        built = Some(sys);
    }
    let sys = built.expect("at least one set-up ran");
    let deterministic = gates.iter().all(|&g| g == gates[0]);
    let (bench, oracle) = Bench::new(&sys, &spec, cfg.par, ORACLE_PER_SIDE, seed)?;
    let tolerance = cfg.geometry.flag_tolerance();
    let setup = median(&setup_s).expect("set-up times are finite");
    let mut record = Record {
        workload: workload.name().to_string(),
        seed,
        trace,
        threads: cfg.par.threads(),
        nproc: std::thread::available_parallelism().map_or(0, usize::from),
        git_rev: git_rev(
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .parent()
                .unwrap_or(Path::new(".")),
        ),
        geometry: format!("{:?}", cfg.geometry),
        seconds: cfg.seconds,
        pool_images: sys.data.len(),
        gate: sys.gate,
        flag_frac_target: spec.flag_frac,
        reference_flag_frac: oracle.flag_frac,
        oracle_checked: oracle.checked,
        oracle_mismatched: oracle.mismatched,
        setup_s_samples: setup_s,
        status: "failed before timing".into(),
        timed: None,
    };
    if oracle.mismatched > 0
        || !deterministic
        || (oracle.flag_frac - spec.flag_frac).abs() > tolerance
    {
        eprintln!(
            "correctness gate failed before timing: {} of {} oracle images differ, \
             deterministic set-up {deterministic}, flag share {:.4} for target {}",
            oracle.mismatched, oracle.checked, oracle.flag_frac, spec.flag_frac
        );
        return Ok(Outcome {
            correct: false,
            attempted: oracle.checked.max(1),
            failed: oracle.mismatched.max(1),
            metrics: Metrics::default(),
            record,
            trace: None,
        });
    }
    // The memory metric covers the timed calls, not the set-up's transients.
    heap::reset_peak();
    let (log, trace_log) = if trace {
        let (log, tl) = bench.traced(cfg.seconds * (1.0 - PROBE_SHARE));
        (log, Some(tl))
    } else {
        (bench.untraced(cfg.seconds), None)
    };
    let stats = CallStats::new(&log, bench.call_images(), spec.latency_tail_pct())
        .ok_or("no call was timed")?;
    let mut attempted = log.images;
    let mut failed = log.failed_images + log.mismatched;
    // The realised flag share of every timed phase must match the target.
    let mut flag_fracs = vec![log.flagged as f64 / log.images.max(1) as f64];
    let metrics = match &trace_log {
        Some(tl) => {
            let rates = bench.bnn_single_thread(cfg.seconds * PROBE_SHARE)?;
            let images: usize = tl.calls.iter().map(|c| c.images).sum();
            let flagged: usize = tl.calls.iter().map(|c| c.flagged).sum();
            attempted += images;
            failed += tl.mismatched;
            flag_fracs.push(flagged as f64 / images.max(1) as f64);
            let costs = LayerCosts {
                bnn_macs: sys.hw.engines().iter().map(|e| e.macs_per_image()).sum(),
                host_macs: sys.host.total_cost()?.macs,
            };
            let rate_1t = median(&rates).unwrap_or(0.0);
            report::per_layer(&stats, &log, tl, bench.threaded(), rate_1t, costs)
        }
        None => Some(report::end_to_end(&stats, setup, heap::peak_mib())),
    };
    if metrics.is_none() {
        eprintln!("no traced call gave layer times");
    }
    let flag_ok = flag_fracs
        .iter()
        .all(|f| (f - spec.flag_frac).abs() <= tolerance);
    if !flag_ok {
        eprintln!(
            "flag shares {flag_fracs:?} are more than {tolerance} from the target {}",
            spec.flag_frac
        );
    }
    let correct = failed == 0 && attempted > 0 && flag_ok && metrics.is_some();
    let metrics = metrics.unwrap_or_default();
    record.status = if correct { "ok" } else { "failed" }.into();
    record.timed = Some(Timed {
        flag_frac_realised: flag_fracs,
        calls: stats.calls,
        call_images: stats.call_images,
        latency_tail_pct: stats.tail.pct,
        throughput_img_s_max: stats.call_images as f64 / stats.min_s,
        throughput_img_s_median: stats.throughput(),
        throughput_img_s_tail: stats.call_images as f64 / stats.tail.value,
        peak_rss_mib: peak_rss_mib(),
        call_wall_s: log.wall_s,
        attempted,
        failed,
        metrics: metrics.clone(),
    });
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        record,
        trace: trace_log,
    })
}
