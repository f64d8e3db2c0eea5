//! Golden-schema tests for the observability layer: the exported
//! `results/obs_*.json` contract. Span names, counter keys and histogram
//! bucket edges are stable strings — CI catches accidental renames here
//! before any dashboard does.

use std::time::Instant;

use multiprec::bnn::{BnnClassifier, FinnTopology, HardwareBnn};
use multiprec::core::dmu::Dmu;
use multiprec::core::{MultiPrecisionPipeline, PipelineTiming, RunOptions};
use multiprec::dataset::{Dataset, SynthSpec};
use multiprec::nn::train::Model;
use multiprec::nn::{Mode, Network};
use multiprec::obs::{report, schema, SharedRecorder};
use multiprec::tensor::init::TensorRng;
use multiprec::tensor::{Parallelism, Shape};

/// The golden names. These literals are duplicated from `mp_obs::schema`
/// ON PURPOSE: if a constant over there is renamed, this test — not a
/// downstream dashboard — is what breaks.
const GOLDEN_SPANS: [(&str, &str); 6] = [
    ("SPAN_PIPELINE_EXECUTE", "pipeline.execute"),
    ("SPAN_PIPELINE_BNN_STAGE", "pipeline.bnn_stage"),
    ("SPAN_PIPELINE_BNN_BLOCK", "pipeline.bnn_block"),
    ("SPAN_PIPELINE_HOST_RERUN", "pipeline.host_rerun"),
    ("SPAN_SERVE_BATCH", "serve.batch"),
    ("SPAN_FLEET_BATCH", "fleet.batch"),
];

const GOLDEN_COUNTERS: [(&str, &str); 22] = [
    ("CTR_IMAGES", "pipeline.images"),
    ("CTR_FLAGGED", "pipeline.flagged"),
    ("CTR_RERUN_OK", "pipeline.rerun_ok"),
    ("CTR_DEGRADED", "pipeline.degraded"),
    ("CTR_RETRIES", "pipeline.retries"),
    ("CTR_BREAKER_TRIPS", "pipeline.breaker_trips"),
    ("CTR_BACKPRESSURE", "pipeline.backpressure"),
    ("CTR_HOST_ATTEMPTS", "pipeline.host_attempts"),
    ("CTR_STREAM_IMAGES", "stream.images"),
    ("CTR_SERVE_REQUESTS", "serve.requests"),
    ("CTR_SERVE_SHED", "serve.shed"),
    ("CTR_SERVE_BATCHES", "serve.batches"),
    ("CTR_FLEET_REQUESTS", "fleet.requests"),
    ("CTR_FLEET_SERVED", "fleet.served"),
    ("CTR_FLEET_SHED", "fleet.shed"),
    ("CTR_FLEET_REDIRECTED", "fleet.redirected"),
    ("CTR_FLEET_HEDGES", "fleet.hedges"),
    ("CTR_FLEET_HEDGE_WINS", "fleet.hedge_wins"),
    ("CTR_FLEET_BREAKER_OPENS", "fleet.breaker_opens"),
    ("CTR_FLEET_BREAKER_CLOSES", "fleet.breaker_closes"),
    ("CTR_FLEET_CRASHES", "fleet.crashes"),
    ("CTR_FLEET_RECOVERIES", "fleet.recoveries"),
];

const GOLDEN_HISTOGRAMS: [(&str, &str); 12] = [
    ("HIST_BNN_IMAGE_S", "pipeline.bnn_image_s"),
    ("HIST_HOST_BATCH_S", "pipeline.host_batch_s"),
    ("HIST_BACKOFF_S", "pipeline.backoff_s"),
    ("HIST_QUEUE_DEPTH", "pipeline.queue_depth"),
    ("HIST_BACKPRESSURE_WAIT_S", "pipeline.backpressure_wait_s"),
    ("HIST_STREAM_LATENCY_S", "stream.latency_s"),
    ("HIST_SERVE_QUEUE_WAIT_S", "serve.queue_wait_s"),
    ("HIST_SERVE_LATENCY_S", "serve.latency_s"),
    ("HIST_SERVE_BATCH_SIZE", "serve.batch_size"),
    ("HIST_FLEET_QUEUE_WAIT_S", "fleet.queue_wait_s"),
    ("HIST_FLEET_LATENCY_S", "fleet.latency_s"),
    ("HIST_FLEET_BATCH_SIZE", "fleet.batch_size"),
];

#[test]
fn schema_names_are_golden() {
    assert_eq!(
        schema::SCHEMA_VERSION,
        1,
        "schema version bumped — update the goldens"
    );
    let actual_spans = [
        schema::SPAN_PIPELINE_EXECUTE,
        schema::SPAN_PIPELINE_BNN_STAGE,
        schema::SPAN_PIPELINE_BNN_BLOCK,
        schema::SPAN_PIPELINE_HOST_RERUN,
        schema::SPAN_SERVE_BATCH,
        schema::SPAN_FLEET_BATCH,
    ];
    for ((label, golden), actual) in GOLDEN_SPANS.iter().zip(actual_spans) {
        assert_eq!(actual, *golden, "{label} renamed");
    }
    let actual_counters = [
        schema::CTR_IMAGES,
        schema::CTR_FLAGGED,
        schema::CTR_RERUN_OK,
        schema::CTR_DEGRADED,
        schema::CTR_RETRIES,
        schema::CTR_BREAKER_TRIPS,
        schema::CTR_BACKPRESSURE,
        schema::CTR_HOST_ATTEMPTS,
        schema::CTR_STREAM_IMAGES,
        schema::CTR_SERVE_REQUESTS,
        schema::CTR_SERVE_SHED,
        schema::CTR_SERVE_BATCHES,
        schema::CTR_FLEET_REQUESTS,
        schema::CTR_FLEET_SERVED,
        schema::CTR_FLEET_SHED,
        schema::CTR_FLEET_REDIRECTED,
        schema::CTR_FLEET_HEDGES,
        schema::CTR_FLEET_HEDGE_WINS,
        schema::CTR_FLEET_BREAKER_OPENS,
        schema::CTR_FLEET_BREAKER_CLOSES,
        schema::CTR_FLEET_CRASHES,
        schema::CTR_FLEET_RECOVERIES,
    ];
    for ((label, golden), actual) in GOLDEN_COUNTERS.iter().zip(actual_counters) {
        assert_eq!(actual, *golden, "{label} renamed");
    }
    let actual_hists = [
        schema::HIST_BNN_IMAGE_S,
        schema::HIST_HOST_BATCH_S,
        schema::HIST_BACKOFF_S,
        schema::HIST_QUEUE_DEPTH,
        schema::HIST_BACKPRESSURE_WAIT_S,
        schema::HIST_STREAM_LATENCY_S,
        schema::HIST_SERVE_QUEUE_WAIT_S,
        schema::HIST_SERVE_LATENCY_S,
        schema::HIST_SERVE_BATCH_SIZE,
        schema::HIST_FLEET_QUEUE_WAIT_S,
        schema::HIST_FLEET_LATENCY_S,
        schema::HIST_FLEET_BATCH_SIZE,
    ];
    for ((label, golden), actual) in GOLDEN_HISTOGRAMS.iter().zip(actual_hists) {
        assert_eq!(actual, *golden, "{label} renamed");
    }
    assert_eq!(schema::SPAN_BNN_STAGE_PREFIX, "bnn.stage");
    assert_eq!(schema::SPAN_HOST_LAYER_PREFIX, "host.layer");
    assert_eq!(schema::SPAN_STREAM_STAGE_PREFIX, "stream.stage");
    assert_eq!(schema::CTR_FLEET_REPLICA_PREFIX, "fleet.replica");
    assert_eq!(schema::SPAN_CASCADE_STAGE_PREFIX, "cascade.stage");
    assert_eq!(schema::CTR_CASCADE_STAGE_PREFIX, "cascade.stage");
    // The per-stage helper names are part of the exported contract too.
    assert_eq!(schema::cascade_stage_span(0), "cascade.stage0");
    assert_eq!(schema::cascade_entered_counter(1), "cascade.stage1.entered");
    assert_eq!(
        schema::cascade_accepted_counter(2),
        "cascade.stage2.accepted"
    );
}

#[test]
fn bucket_edges_are_golden() {
    assert_eq!(
        schema::LATENCY_BUCKET_EDGES_S,
        [1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.25, 1.0, 5.0, 30.0],
        "latency bucket edges drifted"
    );
    assert_eq!(
        schema::COUNT_BUCKET_EDGES,
        [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
        "count bucket edges drifted"
    );
    // The suffix rule is load-bearing: `_s` means seconds.
    for (_, name) in GOLDEN_HISTOGRAMS {
        let expect: &[f64] = if name.ends_with("_s") {
            &schema::LATENCY_BUCKET_EDGES_S
        } else {
            &schema::COUNT_BUCKET_EDGES
        };
        assert_eq!(schema::bucket_edges(name), expect, "{name}");
    }
}

fn tiny_system(images: usize) -> (HardwareBnn, Dmu, Dataset, Network) {
    let (_, hw, dmu, data, host) = tiny_system_full(images);
    (hw, dmu, data, host)
}

fn tiny_system_full(images: usize) -> (BnnClassifier, HardwareBnn, Dmu, Dataset, Network) {
    let mut rng = TensorRng::seed_from(2018);
    let mut bnn = BnnClassifier::new(FinnTopology::scaled(8, 8, 8), &mut rng).unwrap();
    for _ in 0..3 {
        let x = rng.normal(Shape::nchw(8, 3, 8, 8), 0.0, 1.0);
        bnn.forward_mode(&x, Mode::Train).unwrap();
    }
    let hw = HardwareBnn::from_classifier(&bnn).unwrap();
    let dmu = Dmu::with_weights(vec![0.1; 10], 0.0);
    let data = SynthSpec::tiny().generate(images).unwrap();
    let host = Network::builder(Shape::nchw(1, 3, 8, 8))
        .conv2d(8, 3, 1, 1, &mut rng)
        .unwrap()
        .relu()
        .global_avg_pool()
        .linear(10, &mut rng)
        .unwrap()
        .build();
    (bnn, hw, dmu, data, host)
}

/// A multi-stage cascade run must emit `cascade.stage<i>` spans and
/// `cascade.stage<i>.{entered,accepted}` counters that pass schema
/// validation and mirror the run's own `stage_traffic` accounting.
#[test]
fn cascade_report_validates_and_mirrors_traffic() {
    use multiprec::core::{CascadePolicy, CascadeStage, StageClassifier};
    use multiprec::int::{NetworkPrecision, QuantBnn};
    use std::sync::Arc;

    let (bnn, hw, dmu, data, host) = tiny_system_full(40);
    let layers = bnn.export_latent().len();
    let quant =
        QuantBnn::from_classifier(&bnn, NetworkPrecision::uniform(layers, 4, 4).unwrap()).unwrap();
    let policy = CascadePolicy::try_new(vec![
        CascadeStage::gated(StageClassifier::Primary, 0.6),
        CascadeStage::gated(StageClassifier::Quantized(Arc::new(quant)), 0.4),
        CascadeStage::terminal(StageClassifier::HostFloat),
    ])
    .unwrap();
    let rec = SharedRecorder::new();
    let opts = RunOptions::new(PipelineTiming::new(1.0 / 430.0, 1.0 / 30.0, 10))
        .with_host_accuracy(0.5)
        .with_cascade(policy)
        .with_recorder(&rec);
    let result = MultiPrecisionPipeline::new(&hw, &dmu, 0.7)
        .execute(&host, &data, &opts)
        .unwrap();
    let report = rec.report();
    schema::validate_report(&report).unwrap();
    assert_eq!(result.stage_traffic.len(), 3);
    for (s, traffic) in result.stage_traffic.iter().enumerate() {
        assert_eq!(
            report.counter(&schema::cascade_entered_counter(s)),
            traffic.entered as u64,
            "stage {s} entered"
        );
        assert_eq!(
            report.counter(&schema::cascade_accepted_counter(s)),
            traffic.accepted as u64,
            "stage {s} accepted"
        );
    }
}

#[test]
fn exported_report_round_trips_and_validates() {
    let (hw, dmu, data, host) = tiny_system(40);
    let rec = SharedRecorder::new();
    let opts = RunOptions::new(PipelineTiming::new(1.0 / 430.0, 1.0 / 30.0, 10))
        .with_host_accuracy(0.5)
        .with_recorder(&rec);
    let result = MultiPrecisionPipeline::new(&hw, &dmu, 0.7)
        .execute(&host, &data, &opts)
        .unwrap();
    let original = rec.report();
    schema::validate_report(&original).unwrap();

    let dir = std::env::temp_dir().join(format!("mp-obs-golden-{}", std::process::id()));
    let path = report::write_report(&original, &dir, "golden_test").unwrap();
    assert!(path.ends_with("obs_golden_test.json"));
    let text = std::fs::read_to_string(&path).unwrap();
    let parsed = report::report_from_json(&text).unwrap();
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
    schema::validate_report(&parsed).unwrap();

    // The round trip preserves the whole aggregate…
    assert_eq!(parsed.schema_version, original.schema_version);
    assert_eq!(parsed.spans.len(), original.spans.len());
    assert_eq!(parsed.counters.len(), original.counters.len());
    assert_eq!(parsed.histograms.len(), original.histograms.len());
    assert_eq!(parsed.events.len(), original.events.len());
    // …and the counters still mirror the run they came from.
    assert_eq!(
        parsed.counter(schema::CTR_IMAGES),
        result.total_images as u64
    );
    assert_eq!(
        parsed.counter(schema::CTR_RERUN_OK),
        result.rerun_count as u64
    );
    assert_eq!(parsed.span(schema::SPAN_PIPELINE_EXECUTE).unwrap().count, 1);
}

/// Every `bnn.stage<i>.*` span records one entry per engine pass — a
/// block of up to eight images through one engine — so all stages share
/// one count, for the batched path and the block stream alike.
#[test]
fn bnn_stage_spans_share_one_count() {
    let (hw, _, data, _) = tiny_system(21);
    let stage_counts = |rec: &SharedRecorder| -> Vec<u64> {
        rec.report()
            .spans
            .iter()
            .filter(|s| s.name.starts_with(schema::SPAN_BNN_STAGE_PREFIX))
            .map(|s| s.count)
            .collect()
    };
    let stages = hw.stage_summaries().len();
    let rec = SharedRecorder::new();
    hw.infer_batch_obs(data.images(), Parallelism::new(1), &rec)
        .unwrap();
    // 21 images: passes of 8, 8 and 5.
    assert_eq!(stage_counts(&rec), vec![3; stages]);
    let rec = SharedRecorder::new();
    let mut stream = hw.block_stream();
    let mut scores = Vec::new();
    for (start, end) in [(0, 5), (5, 21)] {
        stream
            .infer_block_into(data.images(), start, end, &rec, &mut scores)
            .unwrap();
    }
    // 0..5 is one pass; 5..21 is two.
    assert_eq!(stage_counts(&rec), vec![3; stages]);
}

/// Acceptance criterion: the per-stage BNN spans must account for the
/// measured batch wall time. With sequential parallelism the stage spans
/// tile the whole inner loop, so their sum can neither exceed the wall
/// clock nor fall far below it.
#[test]
fn bnn_stage_spans_sum_to_batch_wall_time() {
    let (hw, _, data, _) = tiny_system(128);
    let rec = SharedRecorder::new();
    // Warm-up outside the measurement (page faults, lazy allocs).
    hw.infer_batch_obs(
        data.images(),
        Parallelism::new(1),
        &multiprec::obs::NULL_RECORDER,
    )
    .unwrap();
    let t0 = Instant::now();
    hw.infer_batch_obs(data.images(), Parallelism::new(1), &rec)
        .unwrap();
    let wall_s = t0.elapsed().as_secs_f64();
    let report = rec.report();
    schema::validate_report(&report).unwrap();
    let stage_sum: f64 = report
        .spans
        .iter()
        .filter(|s| s.name.starts_with(schema::SPAN_BNN_STAGE_PREFIX))
        .map(|s| s.total_s)
        .sum();
    assert!(stage_sum > 0.0, "no BNN stage spans recorded");
    assert!(
        stage_sum <= wall_s * 1.02 + 1e-4,
        "stage spans ({stage_sum:.6}s) exceed the batch wall time ({wall_s:.6}s)"
    );
    assert!(
        stage_sum >= wall_s * 0.5,
        "stage spans ({stage_sum:.6}s) account for under half the wall time ({wall_s:.6}s)"
    );
}
