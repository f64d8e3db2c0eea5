//! The run configuration for the heterogeneous pipeline.
//!
//! [`RunOptions`] is the one builder consumed by
//! [`MultiPrecisionPipeline::execute`](crate::pipeline::MultiPrecisionPipeline::execute):
//! pick a [`Concurrency`], optionally install a
//! [`CascadePolicy`] (overriding the pipeline's
//! `CascadePolicy::dmu(threshold)` default) and the host parallelism,
//! attach a fault plan / degradation policy, and plug in an
//! [`mp_obs::Recorder`] for zero-cost-when-disabled instrumentation.
//!
//! # Example
//!
//! ```no_run
//! use mp_core::{MultiPrecisionPipeline, PipelineTiming, RunOptions};
//! use mp_obs::SharedRecorder;
//! # fn run(
//! #     pipeline: &MultiPrecisionPipeline<'_>,
//! #     host: &mp_nn::Network,
//! #     data: &mp_dataset::Dataset,
//! # ) -> Result<(), mp_core::CoreError> {
//! let rec = SharedRecorder::new();
//! let opts = RunOptions::new(PipelineTiming::new(1.0 / 430.15, 1.0 / 29.68, 100))
//!     .threaded()
//!     .with_host_accuracy(0.88)
//!     .with_recorder(&rec);
//! let result = pipeline.execute(host, data, &opts)?;
//! println!("{} reruns, {:?}", result.rerun_count, rec.report().counters);
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;

use mp_int::QuantBnn;
use mp_obs::{Recorder, NULL_RECORDER};
use mp_tensor::Parallelism;

use crate::cascade::CascadePolicy;
use crate::fault::{DegradationPolicy, FaultPlan};
use crate::pipeline::PipelineTiming;

/// How [`execute`](crate::pipeline::MultiPrecisionPipeline::execute)
/// drives the two processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Concurrency {
    /// Functional run of any cascade policy with **modelled** timing:
    /// the paper's `async(1)`/`wait(1)` batch overlap is replayed
    /// arithmetically.
    #[default]
    Modeled,
    /// The FPGA simulator and the host network run on separate threads
    /// connected by a bounded channel (Fig. 2's concurrent structure),
    /// and wall-clock time is reported. Runs the 2-stage, 1-bit policy
    /// only; its result differs from [`Concurrency::Modeled`]'s only in
    /// the wall clock and the backpressure count, fault plans included.
    Threaded,
}

/// Numeric precision of the low-precision classification stage — a
/// first-class axis of
/// [`execute`](crate::pipeline::MultiPrecisionPipeline::execute)
/// alongside [`Concurrency`].
///
/// The quantized and float corners are *modeled-only*: they price
/// throughput through the MPIC cost LUT / the host timing constants
/// rather than simulating a second accelerator thread, so combining
/// them with [`Concurrency::Threaded`] is an
/// [`CoreError`](crate::CoreError)`::InvalidConfig`.
#[derive(Debug, Clone, Default)]
pub enum Precision {
    /// The shipped 1-bit XNOR datapath (`HardwareBnn`). The default,
    /// available under both executors.
    #[default]
    OneBit,
    /// The multi-precision integer path at the network's per-layer
    /// `(a_bits, w_bits)` widths: the [`QuantBnn`] classifies every
    /// image, the DMU flags on its normalised scores, and the modeled
    /// BNN batch time is scaled by the MAC-weighted MPIC cost factor.
    Quantized(Arc<QuantBnn>),
    /// The float32 corner: every image is re-inferred by the host
    /// network (the DMU stage still runs for accounting, but keeps
    /// nothing), so accuracy and throughput degenerate to the host
    /// model's.
    Float32,
}

impl Precision {
    /// Stable human-readable label: `1bit`, the per-layer precision
    /// string (e.g. `a8w4-a2w4-…`), or `float32`.
    pub fn label(&self) -> String {
        match self {
            Precision::OneBit => "1bit".to_owned(),
            Precision::Quantized(q) => q.precision().to_string(),
            Precision::Float32 => "float32".to_owned(),
        }
    }

    /// Whether this is the default 1-bit datapath.
    pub fn is_one_bit(&self) -> bool {
        matches!(self, Precision::OneBit)
    }
}

/// Builder-style configuration for one pipeline run.
///
/// The lifetime `'r` is the borrow of the attached [`Recorder`];
/// options built without [`with_recorder`](Self::with_recorder) are
/// `RunOptions<'static>` (they point at the shared
/// [`NULL_RECORDER`]).
pub struct RunOptions<'r> {
    timing: PipelineTiming,
    cascade: Option<CascadePolicy>,
    parallelism: Option<Parallelism>,
    concurrency: Concurrency,
    precision: Precision,
    plan: FaultPlan,
    policy: DegradationPolicy,
    host_global_accuracy: f64,
    recorder: &'r dyn Recorder,
}

impl std::fmt::Debug for RunOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOptions")
            .field("timing", &self.timing)
            .field("cascade", &self.cascade)
            .field("parallelism", &self.parallelism)
            .field("concurrency", &self.concurrency)
            .field("precision", &self.precision.label())
            .field("plan", &self.plan)
            .field("policy", &self.policy)
            .field("host_global_accuracy", &self.host_global_accuracy)
            .field("recorder_enabled", &self.recorder.enabled())
            .finish()
    }
}

impl Clone for RunOptions<'_> {
    fn clone(&self) -> Self {
        Self {
            timing: self.timing,
            cascade: self.cascade.clone(),
            parallelism: self.parallelism,
            concurrency: self.concurrency,
            precision: self.precision.clone(),
            plan: self.plan.clone(),
            policy: self.policy,
            host_global_accuracy: self.host_global_accuracy,
            recorder: self.recorder,
        }
    }
}

impl RunOptions<'static> {
    /// Options for a [`Concurrency::Modeled`] run at `timing`, with the
    /// pipeline's own decision policy, sequential host inference, no
    /// faults, the default
    /// degradation policy, a host global accuracy of `0.0` (the eq. (2)
    /// prediction is meaningless until
    /// [`with_host_accuracy`](Self::with_host_accuracy) supplies the
    /// real value), and the [`NULL_RECORDER`].
    pub fn new(timing: PipelineTiming) -> Self {
        Self {
            timing,
            cascade: None,
            parallelism: None,
            concurrency: Concurrency::Modeled,
            precision: Precision::OneBit,
            plan: FaultPlan::none(),
            policy: DegradationPolicy::default(),
            host_global_accuracy: 0.0,
            recorder: &NULL_RECORDER,
        }
    }
}

impl<'r> RunOptions<'r> {
    /// Installs an N-stage confidence cascade as this run's decision
    /// policy, overriding the pipeline's constructor threshold. The
    /// canonical 2-stage instance [`CascadePolicy::dmu`]`(t)` runs under
    /// both executors; other shapes run under [`Concurrency::Modeled`].
    /// A fault plan acts on whichever stage is the float host.
    #[must_use]
    pub fn with_cascade(mut self, cascade: CascadePolicy) -> Self {
        self.cascade = Some(cascade);
        self
    }

    /// Shards this run's batched inference across `parallelism` worker
    /// threads (sequential by default). Predictions are bit-identical
    /// for every setting, and the fault log stays seed-deterministic:
    /// fault decisions depend only on arrival order, `(image, attempt)`
    /// and breaker state, never on how the deferred inference batch is
    /// sharded.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = Some(parallelism);
        self
    }

    /// Selects the two-thread executor ([`Concurrency::Threaded`]): a
    /// block-pipelined stage graph in which the BNN thread runs the
    /// batched fast path over blocks of
    /// [`PipelineTiming::batch_size`](crate::pipeline::PipelineTiming)
    /// images and publishes each block's flagged subset to the host
    /// worker, which re-infers it while the BNN processes the next
    /// block. Predictions, flags, and fault accounting are bit-identical
    /// to [`Concurrency::Modeled`]: the choice is purely one of
    /// scheduling.
    #[must_use]
    pub fn threaded(mut self) -> Self {
        self.concurrency = Concurrency::Threaded;
        self
    }

    /// Selects the modelled-time executor ([`Concurrency::Modeled`]).
    #[must_use]
    pub fn modeled(mut self) -> Self {
        self.concurrency = Concurrency::Modeled;
        self
    }

    /// Injects `plan` into the run's host stage, under either
    /// executor; the selected [`Concurrency`] is left as it is.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Selects the numeric precision of the classification stage.
    /// Non-1-bit precisions are modeled-only;
    /// [`execute`](crate::pipeline::MultiPrecisionPipeline::execute)
    /// rejects them under [`Concurrency::Threaded`].
    #[must_use]
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Sets the degradation policy applied to host misbehaviour.
    #[must_use]
    pub fn with_degradation(mut self, policy: DegradationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the host model's standalone full-set accuracy, used for the
    /// paper's eq. (2) accuracy prediction.
    #[must_use]
    pub fn with_host_accuracy(mut self, accuracy: f64) -> Self {
        self.host_global_accuracy = accuracy;
        self
    }

    /// Attaches a recorder; spans, counters, histograms and typed events
    /// are written into it during
    /// [`execute`](crate::pipeline::MultiPrecisionPipeline::execute).
    /// Recording is strictly passive — predictions and fault accounting
    /// are bit-identical with any recorder.
    #[must_use]
    pub fn with_recorder<'s>(self, recorder: &'s dyn Recorder) -> RunOptions<'s> {
        RunOptions {
            timing: self.timing,
            cascade: self.cascade,
            parallelism: self.parallelism,
            concurrency: self.concurrency,
            precision: self.precision,
            plan: self.plan,
            policy: self.policy,
            host_global_accuracy: self.host_global_accuracy,
            recorder,
        }
    }

    /// The timing constants of the run.
    pub fn timing(&self) -> &PipelineTiming {
        &self.timing
    }

    /// The installed cascade policy, if any.
    pub fn cascade(&self) -> Option<&CascadePolicy> {
        self.cascade.as_ref()
    }

    /// The per-run parallelism override, if any.
    pub fn parallelism(&self) -> Option<Parallelism> {
        self.parallelism
    }

    /// The selected execution mode.
    pub fn concurrency(&self) -> Concurrency {
        self.concurrency
    }

    /// The selected classification-stage precision.
    pub fn precision(&self) -> &Precision {
        &self.precision
    }

    /// The fault plan ([`FaultPlan::none`] unless injected).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The degradation policy.
    pub fn degradation_policy(&self) -> &DegradationPolicy {
        &self.policy
    }

    /// The host model's standalone full-set accuracy.
    pub fn host_accuracy(&self) -> f64 {
        self.host_global_accuracy
    }

    /// The attached recorder (the [`NULL_RECORDER`] by default).
    pub fn recorder(&self) -> &'r dyn Recorder {
        self.recorder
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_modeled_and_null() {
        let opts = RunOptions::new(PipelineTiming::new(1e-3, 1e-2, 10));
        assert_eq!(opts.concurrency(), Concurrency::Modeled);
        assert!(opts.cascade().is_none());
        assert!(opts.parallelism().is_none());
        assert!(opts.fault_plan().is_none());
        assert!(!opts.recorder().enabled());
        assert_eq!(opts.host_accuracy(), 0.0);
    }

    #[test]
    fn with_faults_keeps_the_executor() {
        let plan = FaultPlan::seeded(1).with_host_error_rate(0.5);
        let opts = RunOptions::new(PipelineTiming::new(1e-3, 1e-2, 10)).with_faults(plan.clone());
        assert_eq!(opts.concurrency(), Concurrency::Modeled);
        assert_eq!(opts.fault_plan(), &plan);
        let opts = opts.threaded().with_faults(FaultPlan::none());
        assert_eq!(opts.concurrency(), Concurrency::Threaded);
        assert!(opts.fault_plan().is_none());
    }

    #[test]
    fn precision_defaults_to_one_bit_and_labels_corners() {
        let opts = RunOptions::new(PipelineTiming::new(1e-3, 1e-2, 10));
        assert!(opts.precision().is_one_bit());
        assert_eq!(opts.precision().label(), "1bit");
        let opts = opts.with_precision(Precision::Float32);
        assert!(!opts.precision().is_one_bit());
        assert_eq!(opts.precision().label(), "float32");
        assert_eq!(opts.clone().precision().label(), "float32");
        assert!(format!("{opts:?}").contains("float32"));
    }

    #[test]
    fn recorder_swap_keeps_settings() {
        let rec = mp_obs::SharedRecorder::new();
        let opts = RunOptions::new(PipelineTiming::new(1e-3, 1e-2, 10))
            .with_cascade(CascadePolicy::dmu(0.7))
            .with_parallelism(Parallelism::new(3))
            .threaded()
            .with_host_accuracy(0.9)
            .with_recorder(&rec);
        assert!(opts.recorder().enabled());
        assert_eq!(
            opts.cascade().and_then(CascadePolicy::dmu_threshold),
            Some(0.7)
        );
        assert_eq!(opts.concurrency(), Concurrency::Threaded);
        assert_eq!(opts.host_accuracy(), 0.9);
        let debug = format!("{opts:?}");
        assert!(debug.contains("recorder_enabled: true"));
        let cloned = opts.clone();
        assert_eq!(
            cloned.cascade().and_then(CascadePolicy::dmu_threshold),
            Some(0.7)
        );
    }
}
