//! Timed runs of one workload: the untraced closed loop behind the
//! end-to-end metrics, and the traced run behind the per-layer ones.
//!
//! Every timed call goes through `MultiPrecisionPipeline::execute`. The
//! traced run adds no span inside the program. On the Modeled workloads it
//! replays `execute`'s layer sequence from the layers' public functions,
//! with a span around each call; on the Threaded workloads it attaches the
//! program's existing `SharedRecorder` and reads its `pipeline.bnn_block`,
//! `pipeline.host_rerun` and `pipeline.backpressure_wait_s` totals.

use std::hint::black_box;
use std::time::Instant;

use mp_core::{
    CascadePolicy, Concurrency, MultiPrecisionPipeline, PipelineResult, PipelineTiming, RunOptions,
};
use mp_dataset::Dataset;
use mp_nn::Network;
use mp_obs::{now_ns, schema, ObsReport, SharedRecorder};
use mp_tensor::{Parallelism, Tensor};
use serde::Serialize;

use crate::system::{oracle_subset, System};
use crate::workload::{small_calls, WorkloadSpec};
use crate::BenchResult;

/// Images per host batch in the Modeled executor's rerun (`HOST_BATCH` in
/// `mp-core`'s pipeline), mirrored by the traced replay so that it gathers
/// and infers the same batches.
const HOST_BATCH: usize = 32;
/// `PipelineTiming::batch_size`: the Threaded producer's block and the
/// capacity of its bounded channel to the host worker.
const BLOCK: usize = 32;
/// The paper's FINN rate (Table III), only used for `execute`'s modelled
/// time, which no metric reads.
const PAPER_BNN_IMG_S: f64 = 430.15;
/// A timed phase runs at least this many calls, however long they take.
const MIN_CALLS: usize = 3;
/// Images per call of the single-thread BNN probe.
const PROBE_IMAGES: usize = 64;

/// A layer the traced run attributes time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Layer {
    /// `HardwareBnn::infer_batch_with` (Threaded: `pipeline.bnn_block`).
    Bnn,
    /// `Dmu::estimate_batch`.
    Dmu,
    /// `Dataset::select`: the gather of a call's images or flagged subset.
    Gather,
    /// `Network::infer_batch_with` (Threaded: `pipeline.host_rerun`).
    Host,
}

/// One benchmark-side span, in `mp_obs::now_ns` nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Span {
    /// Index of the traced call the span belongs to.
    pub call: usize,
    /// Layer called.
    pub layer: Layer,
    /// Start of the call into the layer.
    pub start_ns: u64,
    /// Its end.
    pub end_ns: u64,
}

/// Outcome of the untraced closed loop.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CallLog {
    /// Wall seconds of each call.
    pub wall_s: Vec<f64>,
    /// Images attempted.
    pub images: usize,
    /// Images the DMU flagged.
    pub flagged: usize,
    /// Images of calls that returned an error.
    pub failed_images: usize,
    /// Images whose prediction or flag differed from the reference.
    pub mismatched: usize,
}

/// Per-layer busy time of one traced call.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct LayerCall {
    /// Wall seconds of the traced call (Modeled: the replay; Threaded: the
    /// recorded `execute`).
    pub wall_s: f64,
    /// Images in the call.
    pub images: usize,
    /// Images flagged for the host.
    pub flagged: usize,
    /// BNN busy seconds.
    pub bnn_s: f64,
    /// DMU busy seconds.
    pub dmu_s: f64,
    /// Gather busy seconds.
    pub gather_s: f64,
    /// Host busy seconds.
    pub host_s: f64,
    /// Seconds the Threaded producer waited on a full host queue.
    pub backpressure_wait_s: f64,
    /// Producer sends that found the host queue full.
    pub backpressure_events: usize,
}

/// Outcome of the traced run, written out when the run ends.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct TraceLog {
    /// One entry per traced call.
    pub calls: Vec<LayerCall>,
    /// Benchmark-side spans, kept in memory until the run ends.
    pub spans: Vec<Span>,
    /// Images whose replayed or recorded prediction or flag differed from
    /// the reference, plus images of failed calls.
    pub mismatched: usize,
}

/// Result of the pre-timing correctness gate.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleCheck {
    /// Images checked against the per-image oracle.
    pub checked: usize,
    /// Of those, images whose prediction or flag differed.
    pub mismatched: usize,
    /// Share of the pool the reference run flagged.
    pub flag_frac: f64,
}

/// One workload's system wired to `execute`, with its verified reference.
pub struct Bench<'s> {
    sys: &'s System,
    threaded: bool,
    par: Parallelism,
    pipeline: MultiPrecisionPipeline<'s>,
    opts: RunOptions<'static>,
    /// Index sets of small calls, cycled in order; empty when every call
    /// runs the whole pool.
    windows: Vec<Vec<usize>>,
    /// Per-image `(prediction, flagged)` of a whole-pool `execute`.
    reference: Vec<(usize, bool)>,
}

impl<'s> Bench<'s> {
    /// Wires `sys` to the workload's executor, runs one whole-pool
    /// `execute` as the reference (and warm-up), and checks a seeded subset
    /// of it image by image against [`System::oracle`].
    ///
    /// # Errors
    ///
    /// Any error of `execute` or of the oracle.
    pub fn new(
        sys: &'s System,
        spec: &WorkloadSpec,
        par: Parallelism,
        oracle_per_side: usize,
        seed: u64,
    ) -> BenchResult<(Self, OracleCheck)> {
        let threaded = spec.concurrency == Concurrency::Threaded;
        let timing = PipelineTiming::new(
            1.0 / PAPER_BNN_IMG_S,
            1.0 / spec.host.paper_images_per_sec(),
            BLOCK,
        );
        let mut opts = RunOptions::new(timing)
            .with_cascade(CascadePolicy::dmu(sys.gate))
            .with_parallelism(par);
        if threaded {
            opts = opts.threaded();
        }
        let pipeline = MultiPrecisionPipeline::new(&sys.hw, &sys.dmu, sys.gate);
        let r = pipeline.execute(&sys.host, &sys.data, &opts)?;
        let windows = match spec.call_images {
            None => Vec::new(),
            Some(size) => small_calls(&r.flagged, size, seed),
        };
        let reference: Vec<(usize, bool)> = r
            .predictions
            .iter()
            .copied()
            .zip(r.flagged.iter().copied())
            .collect();
        let subset = oracle_subset(&r.flagged, oracle_per_side, seed);
        let mut mismatched = 0;
        for &i in &subset {
            if sys.oracle(i)? != reference[i] {
                mismatched += 1;
            }
        }
        let flagged = r.flagged.iter().filter(|&&f| f).count();
        let check = OracleCheck {
            checked: subset.len(),
            mismatched,
            flag_frac: flagged as f64 / r.flagged.len().max(1) as f64,
        };
        let bench = Self {
            sys,
            threaded,
            par,
            pipeline,
            opts,
            windows,
            reference,
        };
        Ok((bench, check))
    }

    /// Calls per cycle over the pool; timed phases end on a cycle boundary
    /// so every image is seen equally often.
    fn cycle(&self) -> usize {
        self.windows.len().max(1)
    }

    /// Pool indices of call `k`, or `None` for the whole pool.
    fn indices(&self, k: usize) -> Option<&[usize]> {
        (!self.windows.is_empty()).then(|| self.windows[k % self.windows.len()].as_slice())
    }

    fn images(&self, k: usize) -> usize {
        self.indices(k).map_or(self.sys.data.len(), <[usize]>::len)
    }

    /// Pool index of row `row` of call `k`.
    fn pool_index(&self, k: usize, row: usize) -> usize {
        self.indices(k).map_or(row, |ix| ix[row])
    }

    /// Counts rows of call `k` whose `(prediction, flagged)` differ from
    /// the reference.
    fn mismatches(&self, k: usize, preds: &[usize], flagged: &[bool]) -> usize {
        let n = self.images(k);
        if preds.len() != n || flagged.len() != n {
            return n;
        }
        (0..n)
            .filter(|&row| self.reference[self.pool_index(k, row)] != (preds[row], flagged[row]))
            .count()
    }

    /// One timed call: gather (small calls only, as `BatchServer::run_batch`
    /// does) and `execute`, optionally with a recorder attached.
    fn call(&self, k: usize, rec: Option<&SharedRecorder>) -> (f64, BenchResult<PipelineResult>) {
        let recorded;
        let opts = match rec {
            Some(r) => {
                recorded = self.opts.clone().with_recorder(r);
                &recorded
            }
            None => &self.opts,
        };
        let t0 = Instant::now();
        let out = (|| -> BenchResult<PipelineResult> {
            let gathered;
            let data = match self.indices(k) {
                Some(ix) => {
                    gathered = self.sys.data.select(ix)?;
                    &gathered
                }
                None => &self.sys.data,
            };
            Ok(self.pipeline.execute(&self.sys.host, data, opts)?)
        })();
        let wall = t0.elapsed().as_secs_f64();
        (wall, black_box(out))
    }

    /// Whether a phase started at `start` that has run `calls` calls is done.
    fn done(&self, start: Instant, calls: usize, seconds: f64) -> bool {
        calls >= MIN_CALLS
            && calls.is_multiple_of(self.cycle())
            && start.elapsed().as_secs_f64() >= seconds
    }

    /// The untraced closed loop: calls `execute` back to back for at least
    /// `seconds`, checking every result against the reference.
    pub fn untraced(&self, seconds: f64) -> CallLog {
        let mut log = CallLog::default();
        let start = Instant::now();
        let mut k = 0;
        while !self.done(start, k, seconds) {
            self.untraced_call(k, &mut log);
            k += 1;
        }
        log
    }

    /// The traced run, for at least `seconds`: untraced and traced calls
    /// alternate, so that load from outside the process, which drifts over
    /// seconds, weighs on both alike.
    pub fn traced(&self, seconds: f64) -> (CallLog, TraceLog) {
        let mut untraced = CallLog::default();
        let mut log = TraceLog::default();
        let start = Instant::now();
        let mut k = 0;
        while !self.done(start, k, seconds) {
            self.untraced_call(k, &mut untraced);
            let out = if self.threaded {
                self.recorded_call(k, &mut log.spans)
            } else {
                self.replay(k, &mut log.spans)
            };
            match out {
                Ok((call, preds, flagged)) => {
                    log.mismatched += self.mismatches(k, &preds, &flagged);
                    log.calls.push(call);
                }
                Err(e) => {
                    eprintln!("traced call {k} failed: {e}");
                    log.mismatched += self.images(k);
                }
            }
            k += 1;
        }
        (untraced, log)
    }

    /// Times untraced call `k` into `log` and checks its result.
    fn untraced_call(&self, k: usize, log: &mut CallLog) {
        let (wall, out) = self.call(k, None);
        let n = self.images(k);
        log.wall_s.push(wall);
        log.images += n;
        match out {
            Ok(r) => {
                log.flagged += r.flagged.iter().filter(|&&f| f).count();
                log.mismatched += self.mismatches(k, &r.predictions, &r.flagged);
            }
            Err(e) => {
                eprintln!("call {k} failed: {e}");
                log.failed_images += n;
            }
        }
    }

    /// Replays the Modeled executor's layer sequence for call `k` from the
    /// layers' public functions, with a span around each call.
    fn replay(
        &self,
        k: usize,
        spans: &mut Vec<Span>,
    ) -> BenchResult<(LayerCall, Vec<usize>, Vec<bool>)> {
        let (sys, par) = (self.sys, self.par);
        let first = spans.len();
        let span = |layer| SpanStart {
            call: k,
            layer,
            start_ns: now_ns(),
        };
        let t0 = Instant::now();
        let gathered;
        let data: &Dataset = match self.indices(k) {
            Some(ix) => {
                let s = span(Layer::Gather);
                gathered = sys.data.select(ix)?;
                s.end(spans);
                &gathered
            }
            None => &sys.data,
        };
        let s = span(Layer::Bnn);
        let scores = sys.hw.infer_batch_with(data.images(), par)?;
        s.end(spans);
        let mut preds = Network::argmax_rows(&scores)?;
        let s = span(Layer::Dmu);
        let keep = sys.dmu.estimate_batch(&scores, sys.gate)?;
        s.end(spans);
        let flagged_idx: Vec<usize> = (0..keep.len()).filter(|&i| !keep[i]).collect();
        for chunk in flagged_idx.chunks(HOST_BATCH) {
            let s = span(Layer::Gather);
            let subset = data.select(chunk)?;
            s.end(spans);
            let s = span(Layer::Host);
            let out = sys.host.infer_batch_with(subset.images(), par)?;
            s.end(spans);
            for (&i, p) in chunk.iter().zip(Network::argmax_rows(&out)?) {
                preds[i] = p;
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let mut layer_call = LayerCall {
            wall_s,
            images: data.len(),
            flagged: flagged_idx.len(),
            ..LayerCall::default()
        };
        layer_call.add_spans(&spans[first..]);
        let flagged = keep.iter().map(|&k| !k).collect();
        Ok((layer_call, preds, flagged))
    }

    /// Call `k` through the Threaded `execute` with a `SharedRecorder`
    /// attached. The DMU and gather terms, which the producer runs without
    /// a span of its own, come from benchmark-side calls of
    /// `Dmu::estimate_batch` and `Dataset::select` on the same images.
    fn recorded_call(
        &self,
        k: usize,
        spans: &mut Vec<Span>,
    ) -> BenchResult<(LayerCall, Vec<usize>, Vec<bool>)> {
        let rec = SharedRecorder::new();
        let (wall_s, out) = self.call(k, Some(&rec));
        let r = out?;
        let report = rec.report();
        let first = spans.len();
        let span = |layer| SpanStart {
            call: k,
            layer,
            start_ns: now_ns(),
        };
        let scores = match self.indices(k) {
            Some(ix) => rows(&self.sys.scores, ix)?,
            None => self.sys.scores.clone(),
        };
        let s = span(Layer::Dmu);
        black_box(self.sys.dmu.estimate_batch(&scores, self.sys.gate)?);
        s.end(spans);
        let flagged_idx: Vec<usize> = (0..r.flagged.len())
            .filter(|&row| r.flagged[row])
            .map(|row| self.pool_index(k, row))
            .collect();
        for chunk in flagged_idx.chunks(HOST_BATCH) {
            let s = span(Layer::Gather);
            black_box(self.sys.data.select(chunk)?);
            s.end(spans);
        }
        let mut layer_call = LayerCall {
            wall_s,
            images: r.total_images,
            flagged: flagged_idx.len(),
            bnn_s: span_total(&report, schema::SPAN_PIPELINE_BNN_BLOCK),
            host_s: span_total(&report, schema::SPAN_PIPELINE_HOST_RERUN),
            backpressure_wait_s: hist_sum(&report, schema::HIST_BACKPRESSURE_WAIT_S),
            backpressure_events: r.backpressure_events,
            ..LayerCall::default()
        };
        layer_call.add_spans(&spans[first..]);
        Ok((layer_call, r.predictions, r.flagged))
    }

    /// Single-thread BNN rate: `HardwareBnn::infer_batch_with` at
    /// `Parallelism::sequential()` on the pool's first images, in img/s
    /// per call, for at least `seconds`.
    ///
    /// # Errors
    ///
    /// Any inference error.
    pub fn bnn_single_thread(&self, seconds: f64) -> BenchResult<Vec<f64>> {
        let batch = self.sys.data.take(PROBE_IMAGES.min(self.sys.data.len()))?;
        let mut rates = Vec::new();
        let start = Instant::now();
        while rates.len() < MIN_CALLS || start.elapsed().as_secs_f64() < seconds {
            let t0 = Instant::now();
            black_box(
                self.sys
                    .hw
                    .infer_batch_with(batch.images(), Parallelism::sequential())?,
            );
            rates.push(batch.len() as f64 / t0.elapsed().as_secs_f64());
        }
        Ok(rates)
    }

    /// Whether the workload runs the Threaded executor.
    pub fn threaded(&self) -> bool {
        self.threaded
    }

    /// Images per call.
    pub fn call_images(&self) -> usize {
        self.images(0)
    }
}

impl LayerCall {
    /// Adds each span's duration to its layer's busy time.
    fn add_spans(&mut self, spans: &[Span]) {
        for s in spans {
            let busy = match s.layer {
                Layer::Bnn => &mut self.bnn_s,
                Layer::Dmu => &mut self.dmu_s,
                Layer::Gather => &mut self.gather_s,
                Layer::Host => &mut self.host_s,
            };
            *busy += s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9;
        }
    }
}

/// An open span; [`end`](Self::end) closes it into the trace.
struct SpanStart {
    call: usize,
    layer: Layer,
    start_ns: u64,
}

impl SpanStart {
    fn end(self, spans: &mut Vec<Span>) {
        spans.push(Span {
            call: self.call,
            layer: self.layer,
            start_ns: self.start_ns,
            end_ns: now_ns(),
        });
    }
}

/// Rows `ix` of a `[N, k]` matrix.
fn rows(m: &Tensor, ix: &[usize]) -> BenchResult<Tensor> {
    let k = m.shape().dim(1);
    let mut data = Vec::with_capacity(ix.len() * k);
    for &i in ix {
        data.extend_from_slice(&m.as_slice()[i * k..(i + 1) * k]);
    }
    Ok(Tensor::from_vec(
        mp_tensor::Shape::matrix(ix.len(), k),
        data,
    )?)
}

fn span_total(report: &ObsReport, name: &str) -> f64 {
    report
        .spans
        .iter()
        .find(|s| s.name == name)
        .map_or(0.0, |s| s.total_s)
}

fn hist_sum(report: &ObsReport, name: &str) -> f64 {
    report
        .histograms
        .iter()
        .find(|h| h.name == name)
        .map_or(0.0, |h| h.sum)
}
