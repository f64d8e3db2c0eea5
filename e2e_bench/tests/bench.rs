//! The benchmark's own tests: strict CLI, gate calibration on the toy net,
//! the small-call mix, and a tiny-geometry smoke of every workload in both
//! the untraced and the traced mode.

use e2e_bench::cli::{parse, Args, Command};
use e2e_bench::measure::Bench;
use e2e_bench::system::{calibrate_gate, Geometry, System};
use e2e_bench::workload::{small_calls, Workload};
use e2e_bench::{run, Config, RUN_SECONDS};
use mp_core::gate_accepts;
use mp_tensor::Parallelism;
use serde::Deserialize;

fn tiny(seconds: f64) -> Config {
    Config {
        geometry: Geometry::Tiny,
        seconds,
        par: Parallelism::new(2),
    }
}

fn args(list: &[&str]) -> Result<Command, e2e_bench::cli::CliError> {
    parse(list.iter().copied())
}

#[test]
fn cli_accepts_a_full_invocation() {
    let cmd = args(&[
        "--workload",
        "overlap_b_r25",
        "--seed",
        "7",
        "--seconds",
        "20",
        "--trace",
        "1",
    ])
    .unwrap();
    assert_eq!(
        cmd,
        Command::Run(Args {
            workload: Workload::OverlapBR25,
            seed: 7,
            trace: true,
        })
    );
    let cmd = args(&["--seed", "0", "--workload", "batch_a_r25"]).unwrap();
    assert_eq!(
        cmd,
        Command::Run(Args {
            workload: Workload::BatchAR25,
            seed: 0,
            trace: false,
        })
    );
    // The one accepted `--seconds` is the runner's.
    assert_eq!(RUN_SECONDS, benchmark().run_seconds);
    assert_eq!(args(&["--help"]).unwrap(), Command::Help);
}

#[test]
fn cli_rejects_anything_else() {
    let base = ["--workload", "batch_a_r25", "--seed", "1"];
    let bad: &[&[&str]] = &[
        &["--workload", "batch_a_r25", "--seed", "1", "--secs", "5"],
        &["--workload", "batch_a_r25", "--seed", "1", "--trace"],
        &["--workload", "batch_a_r25", "--seed", "1", "--trace", "2"],
        &["--workload", "batch_a_r25", "--seed", "1", "--seconds", "0"],
        &[
            "--workload",
            "batch_a_r25",
            "--seed",
            "1",
            "--seconds",
            "61",
        ],
        &[
            "--workload",
            "batch_a_r25",
            "--seed",
            "1",
            "--seconds",
            "1.5",
        ],
        &["--workload", "batch_a_r25", "--seed", "1", "--seed", "2"],
        &["--workload", "batch_a_r25", "--seed", "-1"],
        &["--workload", "batch_a_r25", "--seed", "--trace", "1"],
        &["--workload", "batch_a", "--seed", "1"],
        &["--workload", "batch_a_r25"],
        &["--seed", "1"],
        &["batch_a_r25"],
    ];
    assert!(args(&base).is_ok());
    for case in bad {
        assert!(args(case).is_err(), "accepted {case:?}");
    }
    let e = args(&["--workload", "batch_a_r25", "--seed", "1", "--tarce", "1"]).unwrap_err();
    assert!(e.0.contains("--tarce"), "{e}");
}

#[test]
fn gate_calibration_hits_the_closest_share_on_the_toy_net() {
    let par = Parallelism::new(2);
    for w in [Workload::BatchAR25, Workload::OverlapAR57] {
        let spec = w.spec();
        for seed in [1, 2, 3] {
            let sys = System::build(Geometry::Tiny, spec.host, spec.flag_frac, seed, par).unwrap();
            let conf = sys.dmu.predict_batch(&sys.scores).unwrap();
            assert_eq!(sys.gate, calibrate_gate(&conf, spec.flag_frac));
            let n = conf.len() as f64;
            let share =
                |gate: f32| conf.iter().filter(|&&p| !gate_accepts(p, gate)).count() as f64 / n;
            // No other gate gets closer to the target.
            let best = conf
                .iter()
                .map(|&p| (share(p) - spec.flag_frac).abs())
                .fold(f64::INFINITY, f64::min);
            let miss = (share(sys.gate) - spec.flag_frac).abs();
            assert!(
                miss <= best,
                "{} seed {seed}: miss {miss} > {best}",
                w.name()
            );
            // `execute` flags exactly what the calibration counted.
            let (_, check) = Bench::new(&sys, &spec, par, 4, seed).unwrap();
            assert_eq!(check.mismatched, 0);
            assert_eq!(check.flag_frac, share(sys.gate));
        }
    }
}

#[test]
fn small_calls_cover_the_pool_with_a_fixed_flag_mix() {
    let flagged: Vec<bool> = (0..256).map(|i| i % 4 == 1).collect();
    let calls = small_calls(&flagged, 8, 5);
    assert_eq!(calls.len(), 32);
    let mut seen: Vec<usize> = calls.iter().flatten().copied().collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..256).collect::<Vec<_>>());
    let counts: Vec<usize> = calls
        .iter()
        .map(|c| c.iter().filter(|&&i| flagged[i]).count())
        .collect();
    assert_eq!(&counts[..8], &[0, 1, 1, 2, 2, 3, 3, 4]);
    assert_eq!(
        counts,
        small_calls(&flagged, 8, 6)
            .iter()
            .map(|c| c.iter().filter(|&&i| flagged[i]).count())
            .collect::<Vec<_>>()
    );
    // A share too high for the mix spills into calls with room.
    let flagged: Vec<bool> = (0..20).map(|i| i < 18).collect();
    let calls = small_calls(&flagged, 8, 5);
    assert_eq!(calls.iter().map(Vec::len).collect::<Vec<_>>(), [8, 8, 4]);
    assert_eq!(calls.iter().flatten().filter(|&&i| flagged[i]).count(), 18);
}

/// The parts of `BENCHMARK.json` the tests compare against.
#[derive(Deserialize)]
struct Benchmark {
    run_seconds: u64,
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

/// One declared metric.
#[derive(Deserialize)]
struct Declared {
    name: String,
    unit: String,
}

fn benchmark() -> Benchmark {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// Metric names and units of one list.
fn names(list: &[Declared]) -> Vec<(String, String)> {
    list.iter()
        .map(|d| (d.name.clone(), d.unit.clone()))
        .collect()
}

#[test]
fn every_workload_runs_at_tiny_geometry() {
    let declared = benchmark();
    let e2e = names(&declared.end_to_end);
    let layers = names(&declared.per_layer);
    for w in Workload::ALL {
        for trace in [false, true] {
            let out = run(w, 3, trace, &tiny(0.05)).unwrap();
            assert!(out.correct, "{} trace {trace}: {:?}", w.name(), out.record);
            assert_eq!(out.failed, 0);
            assert!(out.attempted > 0);
            let got: Vec<(String, String)> = out
                .metrics
                .0
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(got, if trace { layers.clone() } else { e2e.clone() });
            for m in &out.metrics.0 {
                assert!(m.value.is_finite(), "{} {}: {}", w.name(), m.name, m.value);
            }
            assert_eq!(out.trace.is_some(), trace);
        }
    }
}
