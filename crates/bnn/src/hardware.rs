//! The folded hardware view of a trained BNN.
//!
//! [`HardwareBnn`] is functionally what FINN synthesises onto the FPGA:
//! bit-packed ±1 weight memories, integer threshold memories (each
//! batch-norm + sign pair folded into one comparison, paper §II), an
//! 8-bit fixed-point first stage, OR-based max-pooling over binary
//! activations, and a final accumulate-only engine whose integer scores
//! feed the DMU. `mp-fpga` attaches timing and memory models to this
//! structure; here it executes functionally, bit-exactly.

use serde::{Deserialize, Serialize, Value};

use mp_obs::Recorder;
use mp_tensor::{Parallelism, Shape, ShapeError, Tensor};

use crate::bits::{BitMatrix, BitVec};
use crate::classifier::{BnnClassifier, Stage};
use crate::packed::{BlockScratch, PackedNet};
use crate::{EngineKind, EngineSpec, FinnTopology};

/// Fixed-point scale of the first engine's pixel inputs (Q2.6: range ±2,
/// 1/64 resolution — the paper's first stage uses wider 24-bit threshold
/// words to absorb this scaling).
pub const INPUT_QUANT_SCALE: f32 = 64.0;

/// Clamp range of first-stage pixel inputs.
pub const INPUT_QUANT_RANGE: f32 = 2.0;

/// A folded threshold: the integer comparison that replaces
/// `sign(batch_norm(acc))`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HwThreshold {
    /// Comparison bound on the integer accumulation.
    pub bound: i64,
    /// `false`: activation fires when `acc >= bound` (positive γ);
    /// `true`: fires when `acc <= bound` (negative γ).
    pub negate: bool,
}

impl HwThreshold {
    /// Folds a float threshold `(t, negate)` at integer `scale`.
    pub fn fold(t: f32, negate: bool, scale: f32) -> Self {
        let scaled = t * scale;
        if scaled.is_infinite() || scaled.is_nan() {
            // Degenerate batch-norm (γ = 0): constant activation.
            let bound = if (scaled < 0.0) != negate {
                i64::MIN // always fires for >=; never for <=
            } else {
                i64::MAX
            };
            return Self { bound, negate };
        }
        let bound = if negate {
            scaled.floor() as i64
        } else {
            scaled.ceil() as i64
        };
        Self { bound, negate }
    }

    /// Evaluates the activation for an integer accumulation.
    pub fn fires(&self, acc: i64) -> bool {
        if self.negate {
            acc <= self.bound
        } else {
            acc >= self.bound
        }
    }
}

/// Observed accumulator extremes of one engine during a traced
/// inference ([`HardwareBnn::infer_image_traced`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccRange {
    /// Smallest accumulation seen.
    pub min: i64,
    /// Largest accumulation seen.
    pub max: i64,
}

impl AccRange {
    /// The empty range (`min > max`), before any observation.
    pub fn empty() -> Self {
        Self {
            min: i64::MAX,
            max: i64::MIN,
        }
    }

    /// Whether no accumulation was observed.
    pub fn is_empty(&self) -> bool {
        self.min > self.max
    }

    /// Widens the range to include `acc`.
    pub fn observe(&mut self, acc: i64) {
        self.min = self.min.min(acc);
        self.max = self.max.max(acc);
    }

    /// Merges another observed range into this one.
    pub fn merge(&mut self, other: AccRange) {
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Structural facts about one synthesised engine, exposed for static
/// analysis (mp-verify) without handing out the weight memories.
#[derive(Debug, Clone)]
pub struct StageSummary {
    /// Weight-matrix columns: the engine's accumulation fan-in.
    pub fan_in: usize,
    /// Weight-matrix rows: output channels (or features).
    pub out_channels: usize,
    /// Fixed-point first stage (Q2.6 pixels) rather than ±1 inputs.
    pub first: bool,
    /// Accumulate-only output stage (no thresholds by design).
    pub output: bool,
    /// Whether a 2×2 OR-pool follows the engine.
    pub pool: bool,
    /// Folded thresholds, one per output channel (empty for the output
    /// stage).
    pub thresholds: Vec<HwThreshold>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) enum HwStage {
    /// First engine: fixed-point pixels × binary weights.
    FirstConv {
        weights: BitMatrix,
        thresholds: Vec<HwThreshold>,
        in_channels: usize,
        kernel: usize,
        pool: bool,
    },
    /// Inner binary convolution engine.
    BinConv {
        weights: BitMatrix,
        thresholds: Vec<HwThreshold>,
        in_channels: usize,
        kernel: usize,
        pool: bool,
    },
    /// Inner binary FC engine.
    BinFc {
        weights: BitMatrix,
        thresholds: Vec<HwThreshold>,
    },
    /// Final accumulate-only FC engine.
    OutputFc { weights: BitMatrix },
}

/// Bit-exact functional model of the synthesised FINN accelerator.
///
/// # Example
///
/// ```
/// use mp_bnn::{BnnClassifier, FinnTopology, HardwareBnn};
/// use mp_tensor::{init::TensorRng, Shape, Tensor};
///
/// # fn main() -> Result<(), mp_tensor::ShapeError> {
/// let mut rng = TensorRng::seed_from(0);
/// let bnn = BnnClassifier::new(FinnTopology::scaled(8, 8, 8), &mut rng)?;
/// let hw = HardwareBnn::from_classifier(&bnn)?;
/// let scores = hw.infer_image(&Tensor::zeros(Shape::nchw(1, 3, 8, 8)))?;
/// assert_eq!(scores.len(), 10);
/// # Ok(())
/// # }
/// ```
///
/// The canonical stages are what serialises and what the per-image
/// reference path ([`Self::infer_image`]) reads; the batched paths run
/// the channel-packed engine derived from them at load (see
/// `packed.rs`). Deserialising checks the model and rejects a malformed
/// one with a [`ModelError`].
#[derive(Debug, Clone)]
pub struct HardwareBnn {
    topology: FinnTopology,
    stages: Vec<HwStage>,
    engine: PackedNet,
}

/// Why a hardware model failed its load-time checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The model has no engines.
    NoStages,
    /// The fixed-point first convolution is not (only) the first engine.
    FirstConvNotFirst {
        /// The offending engine position.
        stage: usize,
    },
    /// The accumulate-only output engine is not (only) the last engine.
    OutputNotLast {
        /// The offending engine position.
        stage: usize,
    },
    /// An engine has a different number of thresholds than weight rows.
    ThresholdCount {
        /// Engine position.
        stage: usize,
        /// Thresholds found.
        thresholds: usize,
        /// Weight rows (output channels).
        rows: usize,
    },
    /// An engine's weight columns differ from the topology's fan-in.
    FanIn {
        /// Engine position.
        stage: usize,
        /// Weight columns found.
        cols: usize,
        /// `K·K·ID` (conv) or `ID` (FC) of the topology's engine.
        expected: usize,
    },
    /// The engines do not match the topology in number, kind or shape,
    /// or the topology itself is unusable.
    Topology {
        /// What differs.
        reason: String,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoStages => write!(f, "hardware model has no engines"),
            Self::FirstConvNotFirst { stage } => write!(
                f,
                "engine {stage}: the fixed-point first conv must be engine 0 and only engine 0"
            ),
            Self::OutputNotLast { stage } => write!(
                f,
                "engine {stage}: the output engine must be the last engine and only the last"
            ),
            Self::ThresholdCount {
                stage,
                thresholds,
                rows,
            } => write!(
                f,
                "engine {stage}: {thresholds} thresholds for {rows} weight rows"
            ),
            Self::FanIn {
                stage,
                cols,
                expected,
            } => write!(
                f,
                "engine {stage}: {cols} weight columns, but the topology's fan-in is {expected}"
            ),
            Self::Topology { reason } => write!(f, "engines do not match the topology: {reason}"),
        }
    }
}

impl std::error::Error for ModelError {}

impl Serialize for HardwareBnn {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("topology".to_string(), self.topology.to_value()),
            ("stages".to_string(), self.stages.to_value()),
        ])
    }
}

impl<'de> Deserialize<'de> for HardwareBnn {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let topology = FinnTopology::from_value(value.get_field("topology")?)?;
        let stages = Vec::<HwStage>::from_value(value.get_field("stages")?)?;
        Self::from_parts(topology, stages).map_err(serde::Error::custom)
    }
}

impl HardwareBnn {
    /// Folds a trained [`BnnClassifier`] into its hardware form.
    ///
    /// Batch-norm running statistics become integer thresholds; latent
    /// weights become bit-packed signs.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the classifier is structurally
    /// inconsistent (which indicates a bug).
    pub fn from_classifier(classifier: &BnnClassifier) -> Result<Self, ShapeError> {
        if classifier.activation_bits() != 1 {
            return Err(ShapeError::new(
                "HardwareBnn::from_classifier",
                format!(
                    "only fully-binarised classifiers fold to the XNOR datapath; \
                     this one has {}-bit activations (the area of wider datapaths \
                     is modelled by mp-fpga's partial-binarisation support)",
                    classifier.activation_bits()
                ),
            ));
        }
        let mut stages = Vec::new();
        let mut first = true;
        for stage in &classifier.stages {
            match stage {
                Stage::Conv { conv, bn, pool, .. } => {
                    let wb = conv.binary_weight();
                    let weights = BitMatrix::from_signs(
                        conv.out_channels(),
                        wb.shape().dim(1),
                        wb.as_slice(),
                    );
                    let scale = if first { INPUT_QUANT_SCALE } else { 1.0 };
                    let thresholds = bn
                        .fold_threshold()
                        .into_iter()
                        .map(|(t, neg)| HwThreshold::fold(t, neg, scale))
                        .collect();
                    stages.push(if first {
                        HwStage::FirstConv {
                            weights,
                            thresholds,
                            in_channels: conv.in_channels(),
                            kernel: conv.geometry().kernel,
                            pool: pool.is_some(),
                        }
                    } else {
                        HwStage::BinConv {
                            weights,
                            thresholds,
                            in_channels: conv.in_channels(),
                            kernel: conv.geometry().kernel,
                            pool: pool.is_some(),
                        }
                    });
                    first = false;
                }
                Stage::Fc { fc, bn, .. } => {
                    let wb = fc.binary_weight();
                    let weights =
                        BitMatrix::from_signs(fc.out_features(), fc.in_features(), wb.as_slice());
                    let thresholds = bn
                        .fold_threshold()
                        .into_iter()
                        .map(|(t, neg)| HwThreshold::fold(t, neg, 1.0))
                        .collect();
                    stages.push(HwStage::BinFc {
                        weights,
                        thresholds,
                    });
                }
                Stage::Output { fc, .. } => {
                    let wb = fc.binary_weight();
                    let weights =
                        BitMatrix::from_signs(fc.out_features(), fc.in_features(), wb.as_slice());
                    stages.push(HwStage::OutputFc { weights });
                }
                Stage::Flatten { .. } => {}
            }
        }
        Self::from_parts(classifier.topology().clone(), stages)
            .map_err(|e| ShapeError::new("HardwareBnn::from_classifier", e.to_string()))
    }

    /// Checks `stages` against `topology` and derives the packed engine.
    /// Every invariant the inference paths rely on is established here,
    /// once, so neither the per-image reference nor the packed engine
    /// can panic on a model that loaded.
    fn from_parts(topology: FinnTopology, stages: Vec<HwStage>) -> Result<Self, ModelError> {
        let last = stages.len().checked_sub(1).ok_or(ModelError::NoStages)?;
        for (i, stage) in stages.iter().enumerate() {
            match stage {
                HwStage::FirstConv { .. } if i != 0 => {
                    return Err(ModelError::FirstConvNotFirst { stage: i })
                }
                HwStage::OutputFc { .. } if i != last => {
                    return Err(ModelError::OutputNotLast { stage: i })
                }
                _ => {}
            }
        }
        if !matches!(stages[0], HwStage::FirstConv { .. }) {
            return Err(ModelError::FirstConvNotFirst { stage: 0 });
        }
        if !matches!(stages[last], HwStage::OutputFc { .. }) {
            return Err(ModelError::OutputNotLast { stage: last });
        }
        let engines = topology
            .try_engines()
            .map_err(|reason| ModelError::Topology { reason })?;
        if engines.len() != stages.len() {
            return Err(ModelError::Topology {
                reason: format!(
                    "{} engines for a topology of {}",
                    stages.len(),
                    engines.len()
                ),
            });
        }
        for (i, (stage, spec)) in stages.iter().zip(&engines).enumerate() {
            check_stage(i, stage, spec)?;
        }
        let output_rows = engines[last].out_channels;
        if topology.classes() > output_rows {
            return Err(ModelError::Topology {
                reason: format!(
                    "{} classes but an output engine of {output_rows} rows",
                    topology.classes()
                ),
            });
        }
        let engine = PackedNet::new(
            &stages,
            (topology.channels(), topology.height(), topology.width()),
            topology.classes(),
        );
        Ok(Self {
            topology,
            stages,
            engine,
        })
    }

    /// The network topology.
    pub fn topology(&self) -> &FinnTopology {
        &self.topology
    }

    /// Engine dimension records (for the FPGA timing/memory model).
    pub fn engines(&self) -> Vec<EngineSpec> {
        self.topology.engines()
    }

    /// Per-engine structural summaries for static analysis: fan-in,
    /// output width, threshold tables, and stage role.
    pub fn stage_summaries(&self) -> Vec<StageSummary> {
        self.stages
            .iter()
            .map(|stage| match stage {
                HwStage::FirstConv {
                    weights,
                    thresholds,
                    pool,
                    ..
                } => StageSummary {
                    fan_in: weights.num_cols(),
                    out_channels: weights.num_rows(),
                    first: true,
                    output: false,
                    pool: *pool,
                    thresholds: thresholds.clone(),
                },
                HwStage::BinConv {
                    weights,
                    thresholds,
                    pool,
                    ..
                } => StageSummary {
                    fan_in: weights.num_cols(),
                    out_channels: weights.num_rows(),
                    first: false,
                    output: false,
                    pool: *pool,
                    thresholds: thresholds.clone(),
                },
                HwStage::BinFc {
                    weights,
                    thresholds,
                } => StageSummary {
                    fan_in: weights.num_cols(),
                    out_channels: weights.num_rows(),
                    first: false,
                    output: false,
                    pool: false,
                    thresholds: thresholds.clone(),
                },
                HwStage::OutputFc { weights } => StageSummary {
                    fan_in: weights.num_cols(),
                    out_channels: weights.num_rows(),
                    first: false,
                    output: true,
                    pool: false,
                    thresholds: Vec::new(),
                },
            })
            .collect()
    }

    /// Quantises one pixel to the first engine's fixed-point grid.
    pub fn quantize_pixel(x: f32) -> i64 {
        (x.clamp(-INPUT_QUANT_RANGE, INPUT_QUANT_RANGE) * INPUT_QUANT_SCALE).round() as i64
    }

    /// Runs one `[1, C, H, W]` image through the accelerator, returning
    /// the `classes` integer scores of the final engine.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the image does not match the topology.
    pub fn infer_image(&self, image: &Tensor) -> Result<Vec<i64>, ShapeError> {
        self.infer_image_obs(image, &mut |_, _| {})
    }

    /// [`Self::infer_image`] with per-engine accumulator extremes
    /// recorded: returns the scores plus one observed [`AccRange`] per
    /// engine. The soundness property tests compare these runtime
    /// ranges against mp-verify's static intervals.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the image does not match the topology.
    pub fn infer_image_traced(
        &self,
        image: &Tensor,
    ) -> Result<(Vec<i64>, Vec<AccRange>), ShapeError> {
        let mut ranges = vec![AccRange::empty(); self.stages.len()];
        let scores = self.infer_image_obs(image, &mut |stage, acc| ranges[stage].observe(acc))?;
        Ok((scores, ranges))
    }

    /// Reference inference with an observer called on every integer
    /// accumulation `(stage index, acc)` before thresholding. The no-op
    /// observer of [`Self::infer_image`] monomorphises away.
    fn infer_image_obs<F: FnMut(usize, i64)>(
        &self,
        image: &Tensor,
        obs: &mut F,
    ) -> Result<Vec<i64>, ShapeError> {
        let want = Shape::nchw(
            1,
            self.topology.channels(),
            self.topology.height(),
            self.topology.width(),
        );
        if image.shape() != &want {
            return Err(ShapeError::new(
                "HardwareBnn::infer_image",
                format!("expected {want}, got {}", image.shape()),
            ));
        }
        let mut bits: Vec<bool> = Vec::new();
        let mut dims = (
            self.topology.channels(),
            self.topology.height(),
            self.topology.width(),
        );
        let mut scores: Option<Vec<i64>> = None;
        for (si, stage) in self.stages.iter().enumerate() {
            match stage {
                HwStage::FirstConv {
                    weights,
                    thresholds,
                    in_channels,
                    kernel,
                    pool,
                } => {
                    let (c, h, w) = dims;
                    debug_assert_eq!(c, *in_channels);
                    let k = *kernel;
                    let (oh, ow) = (h - k + 1, w - k + 1);
                    let od = weights.num_rows();
                    // Quantise pixels once.
                    let q: Vec<i64> = image.iter().map(|&x| Self::quantize_pixel(x)).collect();
                    let mut out = vec![false; od * oh * ow];
                    for oy in 0..oh {
                        for ox in 0..ow {
                            // Gather the fixed-point patch in im2col row order.
                            let mut patch = Vec::with_capacity(c * k * k);
                            for ch in 0..c {
                                for ky in 0..k {
                                    for kx in 0..k {
                                        patch.push(q[(ch * h + oy + ky) * w + ox + kx]);
                                    }
                                }
                            }
                            for oc in 0..od {
                                let row = weights.row(oc);
                                let mut acc = 0i64;
                                for (i, &x) in patch.iter().enumerate() {
                                    acc += if row.get(i) { x } else { -x };
                                }
                                obs(si, acc);
                                out[(oc * oh + oy) * ow + ox] = thresholds[oc].fires(acc);
                            }
                        }
                    }
                    dims = (od, oh, ow);
                    bits = out;
                    if *pool {
                        let (nb, nd) = or_pool(&bits, dims);
                        bits = nb;
                        dims = nd;
                    }
                }
                HwStage::BinConv {
                    weights,
                    thresholds,
                    in_channels,
                    kernel,
                    pool,
                } => {
                    let (c, h, w) = dims;
                    debug_assert_eq!(c, *in_channels);
                    let k = *kernel;
                    let (oh, ow) = (h - k + 1, w - k + 1);
                    let od = weights.num_rows();
                    let mut out = vec![false; od * oh * ow];
                    let mut patch = BitVec::zeros(c * k * k);
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut idx = 0;
                            for ch in 0..c {
                                for ky in 0..k {
                                    for kx in 0..k {
                                        patch.set(idx, bits[(ch * h + oy + ky) * w + ox + kx]);
                                        idx += 1;
                                    }
                                }
                            }
                            for oc in 0..od {
                                let acc = weights.row(oc).xnor_dot(&patch) as i64;
                                obs(si, acc);
                                out[(oc * oh + oy) * ow + ox] = thresholds[oc].fires(acc);
                            }
                        }
                    }
                    dims = (od, oh, ow);
                    bits = out;
                    if *pool {
                        let (nb, nd) = or_pool(&bits, dims);
                        bits = nb;
                        dims = nd;
                    }
                }
                HwStage::BinFc {
                    weights,
                    thresholds,
                } => {
                    let x = BitVec::from_bools(&bits);
                    let acc = weights.xnor_matvec(&x);
                    bits = acc
                        .iter()
                        .zip(thresholds)
                        .map(|(&a, t)| {
                            obs(si, a as i64);
                            t.fires(a as i64)
                        })
                        .collect();
                    dims = (bits.len(), 1, 1);
                }
                HwStage::OutputFc { weights } => {
                    let x = BitVec::from_bools(&bits);
                    let acc = weights.xnor_matvec(&x);
                    for &a in &acc {
                        obs(si, i64::from(a));
                    }
                    scores = Some(
                        acc.into_iter()
                            .take(self.topology.classes())
                            .map(i64::from)
                            .collect(),
                    );
                }
            }
        }
        scores.ok_or_else(|| ShapeError::new("HardwareBnn::infer_image", "no output engine"))
    }

    /// Classifies one image (argmax of the integer scores, first index
    /// on ties).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the image does not match the topology.
    pub fn classify(&self, image: &Tensor) -> Result<usize, ShapeError> {
        let scores = self.infer_image(image)?;
        let mut best = 0;
        for (i, &s) in scores.iter().enumerate() {
            if s > scores[best] {
                best = i;
            }
        }
        Ok(best)
    }

    /// Runs a `[N, C, H, W]` batch, returning `[N, classes]` scores as
    /// floats (for the DMU, which consumes BNN class scores).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the batch does not match the topology.
    pub fn infer_batch(&self, images: &Tensor) -> Result<Tensor, ShapeError> {
        let n = images.shape().dim(0);
        let classes = self.topology.classes();
        let mut data = Vec::with_capacity(n * classes);
        for i in 0..n {
            let img = images.batch_item(i)?;
            let scores = self.infer_image(&img)?;
            data.extend(scores.into_iter().map(|s| s as f32));
        }
        Tensor::from_vec(Shape::matrix(n, classes), data)
    }

    /// Optimised batched inference, bit-identical to [`Self::infer_batch`],
    /// sharding images across `par` scoped worker threads.
    ///
    /// Each shard runs the channel-packed block engine: blocks of up to
    /// eight images pass through one engine at a time over bit-packed HWC
    /// activations and load-time-permuted weights, every binary dot an
    /// XOR–popcount. Integer sums are exact in any order, so scores match
    /// the reference path bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the batch does not match the topology.
    pub fn infer_batch_with(
        &self,
        images: &Tensor,
        par: Parallelism,
    ) -> Result<Tensor, ShapeError> {
        self.infer_batch_obs(images, par, &mp_obs::NULL_RECORDER)
    }

    /// [`Self::infer_batch_with`] with per-stage wall-time spans recorded
    /// against `rec` (`bnn.stage<i>.<kind>`, see `mp_obs::schema`).
    ///
    /// Recording is passive — scores are bit-identical to the
    /// uninstrumented path — and with a disabled recorder the overhead
    /// is one branch per stage boundary (no clock reads).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the batch does not match the topology.
    pub fn infer_batch_obs(
        &self,
        images: &Tensor,
        par: Parallelism,
        rec: &dyn Recorder,
    ) -> Result<Tensor, ShapeError> {
        let shape = images.shape();
        let (c, h, w) = (
            self.topology.channels(),
            self.topology.height(),
            self.topology.width(),
        );
        if shape.rank() != 4 || (shape.dim(1), shape.dim(2), shape.dim(3)) != (c, h, w) {
            return Err(ShapeError::new(
                "HardwareBnn::infer_batch_with",
                format!("expected [N,{c},{h},{w}] batch, got {shape}"),
            ));
        }
        let n = shape.dim(0);
        let classes = self.topology.classes();
        let image_len = c * h * w;
        let xv = images.as_slice();
        let names;
        let obs_ref: Option<(&dyn Recorder, &[String])> = if rec.enabled() {
            names = self.stage_span_names();
            Some((rec, names.as_slice()))
        } else {
            None
        };
        // The calling thread runs the first shard itself, straight into
        // the output: one thread spawn fewer per call.
        let chunks = par.chunks(n);
        let run = |(start, end): (usize, usize), out: &mut Vec<f32>| {
            let slice = &xv[start * image_len..end * image_len];
            self.engine
                .infer(slice, &mut BlockScratch::default(), obs_ref, out);
        };
        let mut data = Vec::with_capacity(n * classes);
        let parts: Vec<Vec<f32>> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .skip(1)
                .map(|&range| {
                    scope.spawn(move || {
                        let mut part = Vec::new();
                        run(range, &mut part);
                        part
                    })
                })
                .collect();
            if let Some(&first) = chunks.first() {
                run(first, &mut data);
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("BNN inference worker panicked"))
                .collect()
        });
        for part in parts {
            data.extend(part);
        }
        Tensor::from_vec(Shape::matrix(n, classes), data)
    }

    /// Creates a reusable single-thread block-inference stream: the
    /// producer side of the overlapped stage-graph executor. See
    /// [`BnnBlockStream`].
    pub fn block_stream(&self) -> BnnBlockStream<'_> {
        BnnBlockStream {
            hw: self,
            scratch: BlockScratch::default(),
            names: self.stage_span_names(),
        }
    }

    /// Stable per-stage span names: `bnn.stage<i>.<kind>`.
    fn stage_span_names(&self) -> Vec<String> {
        self.stages
            .iter()
            .enumerate()
            .map(|(i, stage)| {
                let kind = match stage {
                    HwStage::FirstConv { .. } => "first_conv",
                    HwStage::BinConv { .. } => "bin_conv",
                    HwStage::BinFc { .. } => "bin_fc",
                    HwStage::OutputFc { .. } => "output_fc",
                };
                format!("bnn.stage{i}.{kind}")
            })
            .collect()
    }
}

/// Largest engine fan-in a model may declare: keeps every accumulation
/// of the packed engine (first-engine partial sums reach `3·fan_in·128`)
/// inside `i32`.
const MAX_FAN_IN: usize = 1 << 22;

/// Checks one engine against its topology record.
fn check_stage(i: usize, stage: &HwStage, spec: &EngineSpec) -> Result<(), ModelError> {
    let mismatch = |what: &str, found: String, expected: String| ModelError::Topology {
        reason: format!("engine {i}: {what} {found}, expected {expected}"),
    };
    let (weights, thresholds, conv) = match stage {
        HwStage::FirstConv {
            weights,
            thresholds,
            in_channels,
            kernel,
            pool,
        }
        | HwStage::BinConv {
            weights,
            thresholds,
            in_channels,
            kernel,
            pool,
        } => (
            weights,
            Some(thresholds),
            Some((*in_channels, *kernel, *pool)),
        ),
        HwStage::BinFc {
            weights,
            thresholds,
        } => (weights, Some(thresholds), None),
        HwStage::OutputFc { weights } => (weights, None, None),
    };
    match (conv, spec.kind) {
        (Some((c, k, pool)), EngineKind::Conv) => {
            if c != spec.in_channels {
                return Err(mismatch(
                    "input channels",
                    c.to_string(),
                    spec.in_channels.to_string(),
                ));
            }
            if k != spec.kernel {
                return Err(mismatch("kernel", k.to_string(), spec.kernel.to_string()));
            }
            if pool != spec.pool_after {
                return Err(mismatch(
                    "pool flag",
                    pool.to_string(),
                    spec.pool_after.to_string(),
                ));
            }
        }
        (None, EngineKind::Fc) => {}
        (_, kind) => {
            return Err(mismatch(
                "kind",
                if conv.is_some() { "conv" } else { "FC" }.to_string(),
                format!("{kind:?}"),
            ))
        }
    }
    if weights.num_rows() != spec.out_channels {
        return Err(mismatch(
            "weight rows",
            weights.num_rows().to_string(),
            spec.out_channels.to_string(),
        ));
    }
    if weights.num_cols() != spec.weight_cols() {
        return Err(ModelError::FanIn {
            stage: i,
            cols: weights.num_cols(),
            expected: spec.weight_cols(),
        });
    }
    if spec.weight_cols() > MAX_FAN_IN {
        return Err(mismatch(
            "fan-in",
            spec.weight_cols().to_string(),
            format!("at most {MAX_FAN_IN}"),
        ));
    }
    match thresholds {
        Some(t) if t.len() != weights.num_rows() => Err(ModelError::ThresholdCount {
            stage: i,
            thresholds: t.len(),
            rows: weights.num_rows(),
        }),
        _ => Ok(()),
    }
}

/// A reusable single-thread block-inference stream: the FPGA side of the
/// overlapped stage-graph executor (`Concurrency::Threaded`).
///
/// Holds the per-stage span names and the packed engine's scratch across
/// calls, so inferring block after block of one workload is
/// allocation-free in steady state. Scores land in a caller-owned buffer
/// and are bit-identical per image to [`HardwareBnn::infer_batch`] —
/// batching never changes results.
pub struct BnnBlockStream<'a> {
    hw: &'a HardwareBnn,
    scratch: BlockScratch,
    names: Vec<String>,
}

impl BnnBlockStream<'_> {
    /// Runs images `start..end` of a `[N, C, H, W]` batch through the
    /// accelerator, replacing the contents of `out` with
    /// `(end - start) * classes` float scores. With `rec` enabled,
    /// per-stage spans are recorded exactly as
    /// [`HardwareBnn::infer_batch_obs`] records them.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the batch does not match the topology
    /// or the range falls outside it.
    pub fn infer_block_into(
        &mut self,
        images: &Tensor,
        start: usize,
        end: usize,
        rec: &dyn Recorder,
        out: &mut Vec<f32>,
    ) -> Result<(), ShapeError> {
        let shape = images.shape();
        let topo = self.hw.topology();
        let (c, h, w) = (topo.channels(), topo.height(), topo.width());
        if shape.rank() != 4 || (shape.dim(1), shape.dim(2), shape.dim(3)) != (c, h, w) {
            return Err(ShapeError::new(
                "BnnBlockStream::infer_block_into",
                format!("expected [N,{c},{h},{w}] batch, got {shape}"),
            ));
        }
        let n = shape.dim(0);
        if start > end || end > n {
            return Err(ShapeError::new(
                "BnnBlockStream::infer_block_into",
                format!("image range {start}..{end} outside batch of {n}"),
            ));
        }
        let image_len = c * h * w;
        let obs_ref: Option<(&dyn Recorder, &[String])> = if rec.enabled() {
            Some((rec, self.names.as_slice()))
        } else {
            None
        };
        out.clear();
        let slice = &images.as_slice()[start * image_len..end * image_len];
        self.hw.engine.infer(slice, &mut self.scratch, obs_ref, out);
        Ok(())
    }
}

/// 2×2 OR pooling over binary activations (`max` of ±1 values).
fn or_pool(bits: &[bool], (c, h, w): (usize, usize, usize)) -> (Vec<bool>, (usize, usize, usize)) {
    let (oh, ow) = (h / 2, w / 2);
    let mut out = vec![false; c * oh * ow];
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut v = false;
                for ky in 0..2 {
                    for kx in 0..2 {
                        v |= bits[(ch * h + 2 * oy + ky) * w + 2 * ox + kx];
                    }
                }
                out[(ch * oh + oy) * ow + ox] = v;
            }
        }
    }
    (out, (c, oh, ow))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::{Gate, IMG_BLOCK};
    use mp_nn::train::Model;
    use mp_tensor::init::TensorRng;

    fn trained_tiny(seed: u64) -> BnnClassifier {
        use mp_nn::Mode;
        let mut rng = TensorRng::seed_from(seed);
        let mut bnn = BnnClassifier::new(FinnTopology::scaled(8, 8, 8), &mut rng).unwrap();
        // A few training-mode forwards to populate batch-norm statistics.
        for _ in 0..4 {
            let x = rng.normal(Shape::nchw(8, 3, 8, 8), 0.0, 1.0);
            bnn.forward_mode(&x, Mode::Train).unwrap();
        }
        bnn
    }

    #[test]
    fn threshold_fold_semantics() {
        // Positive gamma: fires when acc >= ceil(t).
        let t = HwThreshold::fold(2.3, false, 1.0);
        assert!(!t.fires(2));
        assert!(t.fires(3));
        // Negative gamma: fires when acc <= floor(t).
        let t = HwThreshold::fold(2.3, true, 1.0);
        assert!(t.fires(2));
        assert!(!t.fires(3));
        // Integer threshold boundary is inclusive for >=.
        let t = HwThreshold::fold(2.0, false, 1.0);
        assert!(t.fires(2));
    }

    #[test]
    fn threshold_fold_handles_degenerate_gamma() {
        let always = HwThreshold::fold(f32::NEG_INFINITY, false, 1.0);
        assert!(always.fires(i64::MIN + 1) && always.fires(0));
        let never = HwThreshold::fold(f32::INFINITY, false, 1.0);
        assert!(!never.fires(i64::MAX - 1) && !never.fires(0));
    }

    #[test]
    fn quantize_pixel_grid() {
        assert_eq!(HardwareBnn::quantize_pixel(0.0), 0);
        assert_eq!(HardwareBnn::quantize_pixel(1.0), 64);
        assert_eq!(HardwareBnn::quantize_pixel(-1.0), -64);
        assert_eq!(HardwareBnn::quantize_pixel(100.0), 128); // clamped to ±2
        assert_eq!(HardwareBnn::quantize_pixel(-100.0), -128);
    }

    #[test]
    fn or_pool_is_max_of_signs() {
        let bits = vec![
            false, false, true, false, // 2×4 plane, channel 0
            false, false, false, false,
        ];
        let (out, dims) = or_pool(&bits, (1, 2, 4));
        assert_eq!(dims, (1, 1, 2));
        assert_eq!(out, vec![false, true]);
    }

    #[test]
    fn export_and_infer_shapes() {
        let bnn = trained_tiny(70);
        let hw = HardwareBnn::from_classifier(&bnn).unwrap();
        let mut rng = TensorRng::seed_from(71);
        let img = rng.normal(Shape::nchw(1, 3, 8, 8), 0.0, 1.0);
        let scores = hw.infer_image(&img).unwrap();
        assert_eq!(scores.len(), 10);
        let batch = rng.normal(Shape::nchw(3, 3, 8, 8), 0.0, 1.0);
        let t = hw.infer_batch(&batch).unwrap();
        assert_eq!(t.shape().dims(), &[3, 10]);
    }

    /// `hw` with every folded threshold redrawn: bounds spread around
    /// each engine's typical dot, both comparison senses, and a few
    /// bounds at or beyond the reachable range — cases batch-norm
    /// folding of fresh statistics never produces.
    fn with_random_thresholds(hw: &HardwareBnn, seed: u64) -> HardwareBnn {
        let mut rng = TensorRng::seed_from(seed);
        let mut stages = hw.stages.clone();
        for stage in &mut stages {
            let (fan_in, scale, thresholds) = match stage {
                HwStage::FirstConv {
                    weights,
                    thresholds,
                    ..
                } => (weights.num_cols(), 64.0, thresholds),
                HwStage::BinConv {
                    weights,
                    thresholds,
                    ..
                }
                | HwStage::BinFc {
                    weights,
                    thresholds,
                } => (weights.num_cols(), 1.0, thresholds),
                HwStage::OutputFc { .. } => continue,
            };
            let reach = fan_in as i64 * if scale > 1.0 { 128 } else { 1 };
            for t in thresholds.iter_mut() {
                t.negate = rng.next_bool(0.5);
                t.bound = match rng.next_index(20) {
                    0 => i64::MIN,
                    1 => i64::MAX,
                    2 => reach + 1,
                    3 => -reach - 1,
                    _ => (rng.next_normal() * scale * (fan_in as f32).sqrt()).round() as i64,
                };
            }
        }
        HardwareBnn::from_parts(hw.topology.clone(), stages).unwrap()
    }

    /// The wider topologies the packed layout must cover: the paper's
    /// (channel widths multiples of 64), `scaled(32, 32, 3)` (widths
    /// 21/42/85, none a multiple of 64) and `scaled(96, 96, 8)`
    /// (activation rows wider than one word). Untrained classifiers
    /// with random thresholds keep the set-up cheap; `images` is how
    /// many the per-image reference can afford.
    fn wide_models() -> Vec<(HardwareBnn, usize, usize)> {
        [
            (FinnTopology::paper(), 32, 3),
            (FinnTopology::scaled(32, 32, 3), 32, 10),
            (FinnTopology::scaled(96, 96, 8), 96, 3),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, (topo, edge, images))| {
            let mut rng = TensorRng::seed_from(90 + i as u64);
            let bnn = BnnClassifier::new(topo, &mut rng).unwrap();
            let hw = HardwareBnn::from_classifier(&bnn).unwrap();
            (with_random_thresholds(&hw, 95 + i as u64), edge, images)
        })
        .collect()
    }

    #[test]
    fn gates_match_threshold_semantics() {
        for fan_in in [1usize, 2, 7, 27, 64, 576] {
            let f = fan_in as i64;
            let bounds = (-f - 3..=f + 3).chain([i64::MIN, i64::MAX, i64::MIN + 1, i64::MAX - 1]);
            for bound in bounds {
                for negate in [false, true] {
                    let t = HwThreshold { bound, negate };
                    let on_m = Gate::on_mismatches(t, fan_in);
                    let on_dot = Gate::on_dot(t, f);
                    for m in 0..=fan_in as i32 {
                        let dot = f as i32 - 2 * m;
                        let want = u64::from(t.fires(i64::from(dot)));
                        assert_eq!(on_m.fires(m), want, "F={fan_in} {t:?} m={m}");
                        assert_eq!(on_dot.fires(dot), want, "F={fan_in} {t:?} dot={dot}");
                        assert_eq!(on_dot.mirrored().fires(-dot), want, "mirrored {t:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn batched_path_is_bit_identical_to_reference_across_threads() {
        let bnn = trained_tiny(80);
        let hw = HardwareBnn::from_classifier(&bnn).unwrap();
        let mut rng = TensorRng::seed_from(81);
        let mut cases = vec![(hw.clone(), 8, 1), (hw.clone(), 8, 4), (hw, 8, 7)];
        cases.extend(wide_models());
        for (hw, edge, n) in cases {
            let batch = rng.normal(Shape::nchw(n, 3, edge, edge), 0.0, 1.0);
            let reference = hw.infer_batch(&batch).unwrap();
            for threads in [1usize, 2, 5] {
                let got = hw
                    .infer_batch_with(&batch, mp_tensor::Parallelism::new(threads))
                    .unwrap();
                assert_eq!(reference.shape(), got.shape());
                assert_eq!(reference.as_slice(), got.as_slice(), "{edge}px n={n}");
            }
        }
    }

    #[test]
    fn block_stream_matches_infer_batch_across_splits() {
        let bnn = trained_tiny(80);
        let hw = HardwareBnn::from_classifier(&bnn).unwrap();
        let mut rng = TensorRng::seed_from(84);
        let mut cases = vec![(hw, 8, 21)];
        cases.extend(wide_models());
        for (hw, edge, n) in cases {
            let batch = rng.normal(Shape::nchw(n, 3, edge, edge), 0.0, 1.0);
            let reference = hw.infer_batch(&batch).unwrap();
            // One stream reused across every split: exercises scratch
            // reuse across block sizes that straddle IMG_BLOCK and n.
            let mut stream = hw.block_stream();
            let mut scores = Vec::new();
            for block in [1usize, 3, IMG_BLOCK, 10, n, n + 5] {
                let mut got = Vec::new();
                let mut start = 0;
                while start < n {
                    let end = (start + block).min(n);
                    stream
                        .infer_block_into(&batch, start, end, &mp_obs::NULL_RECORDER, &mut scores)
                        .unwrap();
                    got.extend_from_slice(&scores);
                    start = end;
                }
                assert_eq!(
                    got.as_slice(),
                    reference.as_slice(),
                    "{edge}px block={block}"
                );
            }
            // Empty range is well-formed and clears the output buffer.
            stream
                .infer_block_into(&batch, 1, 1, &mp_obs::NULL_RECORDER, &mut scores)
                .unwrap();
            assert!(scores.is_empty());
            // Out-of-bounds and inverted ranges are rejected.
            assert!(stream
                .infer_block_into(&batch, 0, n + 1, &mp_obs::NULL_RECORDER, &mut scores)
                .is_err());
            assert!(stream
                .infer_block_into(&batch, 2, 1, &mp_obs::NULL_RECORDER, &mut scores)
                .is_err());
        }
    }

    /// Regression: activation rows wider than 64 pixels used to panic in
    /// the batched path ("activation rows wider than one word") while
    /// the per-image reference ran fine.
    #[test]
    fn rows_wider_than_a_word_match_reference() {
        let mut rng = TensorRng::seed_from(86);
        let bnn = BnnClassifier::new(FinnTopology::scaled(96, 96, 8), &mut rng).unwrap();
        let hw = HardwareBnn::from_classifier(&bnn).unwrap();
        let batch = rng.normal(Shape::nchw(2, 3, 96, 96), 0.0, 1.0);
        let reference = hw.infer_batch(&batch).unwrap();
        let batched = hw
            .infer_batch_with(&batch, mp_tensor::Parallelism::sequential())
            .unwrap();
        assert_eq!(batched.as_slice(), reference.as_slice());
        let mut scores = Vec::new();
        hw.block_stream()
            .infer_block_into(&batch, 0, 2, &mp_obs::NULL_RECORDER, &mut scores)
            .unwrap();
        assert_eq!(scores.as_slice(), reference.as_slice());
    }

    /// Serialises `hw`, applies `mutate` to its stage list and loads it
    /// back through the checked deserialiser.
    fn reload_with(
        hw: &HardwareBnn,
        mutate: impl FnOnce(&mut Vec<Value>),
    ) -> Result<HardwareBnn, serde::Error> {
        let mut value = hw.to_value();
        let Value::Map(fields) = &mut value else {
            panic!("HardwareBnn must serialise to an object")
        };
        let (_, stages) = fields.iter_mut().find(|(k, _)| k == "stages").unwrap();
        let Value::Seq(items) = stages else {
            panic!("stages must serialise to an array")
        };
        mutate(items);
        HardwareBnn::from_value(&value)
    }

    /// Field `name` of a serialised stage (`{"Variant": {fields}}`).
    fn stage_field<'v>(stage: &'v mut Value, name: &str) -> &'v mut Value {
        let Value::Map(variant) = stage else {
            panic!("stage must serialise to a tagged object")
        };
        let Value::Map(fields) = &mut variant[0].1 else {
            panic!("stage payload must be an object")
        };
        &mut fields.iter_mut().find(|(k, _)| k == name).unwrap().1
    }

    fn assert_rejected(got: Result<HardwareBnn, serde::Error>, want: ModelError) {
        let err = got.expect_err("malformed model must be rejected");
        assert_eq!(err.to_string(), want.to_string());
    }

    #[test]
    fn deserialize_accepts_the_exported_model() {
        let hw = HardwareBnn::from_classifier(&trained_tiny(87)).unwrap();
        let back = reload_with(&hw, |_| {}).unwrap();
        let img = TensorRng::seed_from(88).normal(Shape::nchw(2, 3, 8, 8), 0.0, 1.0);
        assert_eq!(
            back.infer_batch_with(&img, mp_tensor::Parallelism::sequential())
                .unwrap()
                .as_slice(),
            hw.infer_batch(&img).unwrap().as_slice()
        );
    }

    #[test]
    fn deserialize_rejects_empty_stage_list() {
        let hw = HardwareBnn::from_classifier(&trained_tiny(87)).unwrap();
        assert_rejected(reload_with(&hw, Vec::clear), ModelError::NoStages);
    }

    #[test]
    fn deserialize_rejects_first_conv_out_of_place() {
        let hw = HardwareBnn::from_classifier(&trained_tiny(87)).unwrap();
        assert_rejected(
            reload_with(&hw, |stages| stages.swap(0, 1)),
            ModelError::FirstConvNotFirst { stage: 1 },
        );
        // A model that starts with a binary conv has no first conv at all.
        assert_rejected(
            reload_with(&hw, |stages| {
                stages.remove(0);
            }),
            ModelError::FirstConvNotFirst { stage: 0 },
        );
    }

    #[test]
    fn deserialize_rejects_missing_output_engine() {
        let hw = HardwareBnn::from_classifier(&trained_tiny(87)).unwrap();
        let last = hw.stages.len() - 1;
        assert_rejected(
            reload_with(&hw, |stages| {
                stages.pop();
            }),
            ModelError::OutputNotLast { stage: last - 1 },
        );
        assert_rejected(
            reload_with(&hw, |stages| stages.swap(last - 1, last)),
            ModelError::OutputNotLast { stage: last - 1 },
        );
    }

    #[test]
    fn deserialize_rejects_threshold_count_mismatch() {
        let hw = HardwareBnn::from_classifier(&trained_tiny(87)).unwrap();
        let rows = hw.stage_summaries()[1].out_channels;
        assert_rejected(
            reload_with(&hw, |stages| {
                let Value::Seq(t) = stage_field(&mut stages[1], "thresholds") else {
                    panic!("thresholds must serialise to an array")
                };
                t.pop();
            }),
            ModelError::ThresholdCount {
                stage: 1,
                thresholds: rows - 1,
                rows,
            },
        );
    }

    #[test]
    fn deserialize_rejects_fan_in_mismatch() {
        let hw = HardwareBnn::from_classifier(&trained_tiny(87)).unwrap();
        let s = &hw.stage_summaries()[2];
        let (rows, cols) = (s.out_channels, s.fan_in);
        assert_rejected(
            reload_with(&hw, |stages| {
                *stage_field(&mut stages[2], "weights") =
                    BitMatrix::from_signs(rows, cols + 1, &vec![1.0; rows * (cols + 1)]).to_value();
            }),
            ModelError::FanIn {
                stage: 2,
                cols: cols + 1,
                expected: cols,
            },
        );
    }

    #[test]
    fn batched_path_rejects_mismatched_batch_shape() {
        let bnn = trained_tiny(82);
        let hw = HardwareBnn::from_classifier(&bnn).unwrap();
        let mut rng = TensorRng::seed_from(83);
        let bad = rng.normal(Shape::nchw(2, 3, 4, 4), 0.0, 1.0);
        assert!(hw
            .infer_batch_with(&bad, mp_tensor::Parallelism::sequential())
            .is_err());
    }

    #[test]
    fn hardware_matches_float_classifier() {
        // On inputs already on the fixed-point grid, the first stage is
        // exact, so hardware and float paths must agree (up to f32
        // borderline rounding in thresholds, which is measure-zero here).
        let mut bnn = trained_tiny(72);
        let hw = HardwareBnn::from_classifier(&bnn).unwrap();
        let mut rng = TensorRng::seed_from(73);
        let n = 24;
        let raw = rng.normal(Shape::nchw(n, 3, 8, 8), 0.0, 1.0);
        let quantised = raw.map(|x| HardwareBnn::quantize_pixel(x) as f32 / INPUT_QUANT_SCALE);
        let float_scores = bnn.infer(&quantised).unwrap();
        let float_preds = mp_nn::Network::argmax_rows(&float_scores).unwrap();
        let mut agree = 0;
        #[allow(clippy::needless_range_loop)] // i selects both image and prediction
        for i in 0..n {
            let img = quantised.batch_item(i).unwrap();
            let hw_pred = hw.classify(&img).unwrap();
            if hw_pred == float_preds[i] {
                agree += 1;
            }
        }
        assert!(
            agree >= n - 1,
            "hardware and float paths disagree on {}/{n} images",
            n - agree
        );
    }

    #[test]
    fn hardware_scores_match_float_scores_exactly_on_grid_inputs() {
        let mut bnn = trained_tiny(74);
        let hw = HardwareBnn::from_classifier(&bnn).unwrap();
        let mut rng = TensorRng::seed_from(75);
        let raw = rng.normal(Shape::nchw(4, 3, 8, 8), 0.0, 1.0);
        let quantised = raw.map(|x| HardwareBnn::quantize_pixel(x) as f32 / INPUT_QUANT_SCALE);
        // Float classifier scores are scaled by 1/sqrt(fan_in); undo it.
        let float_scores = bnn.infer(&quantised).unwrap();
        let fan_in = bnn.topology().fc_sizes()[bnn.topology().fc_sizes().len() - 2] as f32;
        let mut exact = 0;
        let total = 4 * 10;
        for i in 0..4 {
            let img = quantised.batch_item(i).unwrap();
            let hw_scores = hw.infer_image(&img).unwrap();
            for (j, &s) in hw_scores.iter().enumerate() {
                let f = float_scores.as_slice()[i * 10 + j] * fan_in.sqrt();
                if (f - s as f32).abs() < 0.5 {
                    exact += 1;
                }
            }
        }
        assert!(
            exact as f32 >= total as f32 * 0.9,
            "only {exact}/{total} scores match"
        );
    }

    #[test]
    fn rejects_wrong_image_shape() {
        let bnn = trained_tiny(76);
        let hw = HardwareBnn::from_classifier(&bnn).unwrap();
        assert!(hw
            .infer_image(&Tensor::zeros(Shape::nchw(1, 3, 16, 16)))
            .is_err());
        assert!(hw
            .infer_image(&Tensor::zeros(Shape::nchw(2, 3, 8, 8)))
            .is_err());
    }

    #[test]
    fn output_parity_matches_xnor_arithmetic() {
        // Final engine scores are ±1 dots of fan_in entries: parity fixed.
        let bnn = trained_tiny(77);
        let hw = HardwareBnn::from_classifier(&bnn).unwrap();
        let mut rng = TensorRng::seed_from(78);
        let img = rng.normal(Shape::nchw(1, 3, 8, 8), 0.0, 1.0);
        let scores = hw.infer_image(&img).unwrap();
        let fan_in = bnn.topology().fc_sizes()[bnn.topology().fc_sizes().len() - 2] as i64;
        for &s in &scores {
            assert_eq!((s - fan_in).rem_euclid(2), 0, "score {s} has wrong parity");
        }
    }
}
