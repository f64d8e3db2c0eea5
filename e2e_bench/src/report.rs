//! Metrics from the timed runs, and the result line they are printed in.

use mp_core::model;
use serde::{Serialize, Value};

use crate::measure::{CallLog, LayerCall, TraceLog};
use crate::stats::{median, supported_tail, Percentile};

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed there.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// A set of metrics, written as `{"name": {"value": v, "unit": u}, …}` in
/// list order; a non-finite value is written as `null`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Serialize for Metrics {
    fn to_value(&self) -> Value {
        Value::Map(
            self.0
                .iter()
                .map(|m| {
                    let body = vec![
                        ("value".to_string(), m.value.to_value()),
                        ("unit".to_string(), m.unit.to_value()),
                    ];
                    (m.name.to_string(), Value::Map(body))
                })
                .collect(),
        )
    }
}

/// The result line: the last line the benchmark prints.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ResultLine {
    /// Every correctness check passed.
    pub correct: bool,
    /// Images attempted.
    pub attempted: usize,
    /// Images of failed calls plus images that differed from the reference.
    pub failed: usize,
    /// The run's metrics.
    pub metrics: Metrics,
}

/// The untraced run's call statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct CallStats {
    /// Calls timed.
    pub calls: usize,
    /// Images per call.
    pub call_images: usize,
    /// Median call wall seconds.
    pub p50_s: f64,
    /// The latency tail: see [`CallStats::new`].
    pub tail: Percentile,
    /// Fastest call.
    pub min_s: f64,
}

impl CallStats {
    /// Statistics of `log`, or `None` when no call was timed. The tail is
    /// the nearest-rank `tail_pct` percentile, lowered until ten calls lie
    /// beyond it ([`supported_tail`]); a `tail_pct` of 50 makes it the
    /// median at any call count.
    pub fn new(log: &CallLog, call_images: usize, tail_pct: f64) -> Option<Self> {
        Some(Self {
            calls: log.wall_s.len(),
            call_images,
            p50_s: median(&log.wall_s)?,
            tail: supported_tail(&log.wall_s, tail_pct)?,
            min_s: log.wall_s.iter().copied().fold(f64::INFINITY, f64::min),
        })
    }

    /// Median throughput: images per wall second of the median call. Every
    /// call of a run has the same size, so this is the median of per-call
    /// throughput too.
    pub fn throughput(&self) -> f64 {
        self.call_images as f64 / self.p50_s
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub fn end_to_end(stats: &CallStats, setup_s: f64, peak_heap_mib: f64) -> Metrics {
    Metrics(vec![
        metric("throughput_img_s", "img/s", stats.throughput()),
        metric("latency_p50_ms", "ms", stats.p50_s * 1e3),
        metric("latency_p90_ms", "ms", stats.tail.value * 1e3),
        metric("setup_s", "s", setup_s),
        metric("peak_heap_mib", "MiB", peak_heap_mib),
    ])
}

/// Static costs the per-layer rates are scaled by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerCosts {
    /// Binary MACs per image of the BNN (`EngineSpec::macs_per_image`
    /// summed over engines).
    pub bnn_macs: u64,
    /// MACs per image of the host (`Network::total_cost().macs`).
    pub host_macs: u64,
}

fn mean(calls: &[LayerCall], f: impl Fn(&LayerCall) -> f64) -> f64 {
    calls.iter().map(f).sum::<f64>() / calls.len().max(1) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics, in `BENCHMARK.json` order; `None` when there is
/// no traced call, or no BNN time was recorded (every image goes through
/// the BNN, so its spans went missing).
///
/// Busy times are per-call means over the traced calls, so they add up.
/// `execute`'s wall is the untraced run's mean call on the Modeled
/// workloads, and the recorded run's on the Threaded ones, whose spans come
/// from that run. The producer is the BNN and the DMU, the worker the
/// gather and the host. On Modeled the two run one after the other, so the
/// unattributed rest is wall minus all four; on Threaded they overlap, and
/// the rest is wall minus the busier side (the producer counting its
/// backpressure waits).
pub fn per_layer(
    untraced: &CallStats,
    untraced_log: &CallLog,
    trace: &TraceLog,
    threaded: bool,
    bnn_img_s_1t: f64,
    costs: LayerCosts,
) -> Option<Metrics> {
    let calls = &trace.calls;
    let images = mean(calls, |c| c.images as f64);
    let flagged = mean(calls, |c| c.flagged as f64);
    let bnn = mean(calls, |c| c.bnn_s);
    if calls.is_empty() || bnn <= 0.0 {
        return None;
    }
    let dmu = mean(calls, |c| c.dmu_s);
    let gather = mean(calls, |c| c.gather_s);
    let host = mean(calls, |c| c.host_s);
    let bp_wait = mean(calls, |c| c.backpressure_wait_s);
    let bp_events = mean(calls, |c| c.backpressure_events as f64);
    let wall = if threaded {
        mean(calls, |c| c.wall_s)
    } else {
        untraced_log.wall_s.iter().sum::<f64>() / untraced_log.wall_s.len().max(1) as f64
    };
    let producer = bnn + dmu;
    let worker = gather + host;
    let attributed = if threaded {
        (producer + bp_wait).max(worker)
    } else {
        producer + worker
    };
    let bnn_img_s = ratio(images, bnn);
    let host_img_s = ratio(flagged, host);
    let flag_frac = ratio(flagged, images);
    let eq1 = model::images_per_sec(ratio(host, flagged), ratio(bnn, images), flag_frac);
    let traced_wall: Vec<f64> = calls.iter().map(|c| c.wall_s).collect();
    let traced_p50 = median(&traced_wall)?;
    Some(Metrics(vec![
        metric("bnn.busy_s", "s", bnn),
        metric("bnn.img_s", "img/s", bnn_img_s),
        metric("bnn.img_s_1t", "img/s", bnn_img_s_1t),
        metric(
            "bnn.thread_scaling",
            "ratio",
            ratio(bnn_img_s, bnn_img_s_1t),
        ),
        metric(
            "bnn.gmacs_s",
            "GMAC/s",
            costs.bnn_macs as f64 * bnn_img_s / 1e9,
        ),
        metric("bnn.share", "frac", ratio(bnn, wall)),
        metric("host.busy_s", "s", host),
        metric("host.img_s", "img/s", host_img_s),
        metric(
            "host.gmacs_s",
            "GMAC/s",
            costs.host_macs as f64 * host_img_s / 1e9,
        ),
        metric("host.share", "frac", ratio(host, wall)),
        metric("dmu.us_per_img", "us", ratio(dmu, images) * 1e6),
        metric("dmu.flag_frac", "frac", flag_frac),
        metric("gather.busy_s", "s", gather),
        metric("pipeline.overhead_s", "s", wall - attributed),
        metric("pipeline.attributed_frac", "frac", ratio(attributed, wall)),
        metric("pipeline.producer_busy_frac", "frac", ratio(producer, wall)),
        metric("pipeline.worker_busy_frac", "frac", ratio(worker, wall)),
        metric("pipeline.backpressure_events", "count", bp_events),
        metric("pipeline.backpressure_wait_s", "s", bp_wait),
        metric(
            "pipeline.overlap_ratio",
            "ratio",
            ratio(wall, producer + worker),
        ),
        metric("model.eq1_img_s", "img/s", eq1),
        metric(
            "model.eq1_ratio",
            "ratio",
            ratio(untraced.throughput(), eq1),
        ),
        metric(
            "trace.overhead_frac",
            "frac",
            1.0 - untraced.p50_s / traced_p50,
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = ResultLine {
            correct: true,
            attempted: 8,
            failed: 0,
            metrics: Metrics(vec![
                metric("setup_s", "s", 0.5),
                metric("bnn.share", "frac", f64::NAN),
            ]),
        };
        assert_eq!(
            serde_json::to_string(&line).unwrap(),
            "{\"correct\":true,\"attempted\":8,\"failed\":0,\"metrics\":\
             {\"setup_s\":{\"value\":0.5,\"unit\":\"s\"},\
             \"bnn.share\":{\"value\":null,\"unit\":\"frac\"}}}"
        );
    }

    #[test]
    fn no_traced_call_gives_no_per_layer_metrics() {
        let log = CallLog {
            wall_s: vec![0.1],
            images: 8,
            ..CallLog::default()
        };
        let stats = CallStats::new(&log, 8, 50.0).unwrap();
        let costs = LayerCosts {
            bnn_macs: 1,
            host_macs: 1,
        };
        let empty = TraceLog::default();
        assert_eq!(per_layer(&stats, &log, &empty, false, 100.0, costs), None);
        // Every image goes through the BNN: a traced call without BNN time
        // lost its spans.
        let mut call = LayerCall {
            wall_s: 0.1,
            images: 8,
            ..LayerCall::default()
        };
        let lost = TraceLog {
            calls: vec![call.clone()],
            ..TraceLog::default()
        };
        assert_eq!(per_layer(&stats, &log, &lost, false, 100.0, costs), None);
        // Without host work eq. (1) is the BNN's rate.
        call.bnn_s = 0.05;
        let idle = TraceLog {
            calls: vec![call],
            ..TraceLog::default()
        };
        let m = per_layer(&stats, &log, &idle, false, 100.0, costs).unwrap();
        let eq1 = m.0.iter().find(|m| m.name == "model.eq1_img_s").unwrap();
        assert!((eq1.value - 160.0).abs() < 1e-9, "{}", eq1.value);
    }

    #[test]
    fn whole_pool_latency_tail_is_the_median_at_any_call_count() {
        for n in [3, 14, 28, 200] {
            let log = CallLog {
                wall_s: (1..=n).map(f64::from).collect(),
                images: 256 * n as usize,
                ..CallLog::default()
            };
            let stats = CallStats::new(&log, 256, 50.0).unwrap();
            assert_eq!(stats.tail.value, stats.p50_s, "{n} calls");
        }
    }
}
