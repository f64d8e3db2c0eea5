//! The multi-precision integer inference network.
//!
//! [`QuantBnn`] is the `b`-bit generalisation of `mp_bnn::HardwareBnn`:
//! each layer runs at its own `(a_bits, w_bits) ∈ {1, 2, 4, 8}²`
//! precision (a [`NetworkPrecision`]), weights are quantized latent
//! floats packed into signed bit planes ([`PlaneMatrix`]), activations
//! are odd integer levels in `[−L, L]`, and every batch-norm + quantize
//! pair folds into a ladder of integer threshold comparisons
//! ([`LevelThresholds`]) — the multi-level FINN fold the paper's §II
//! describes for its partially-binarised variants.
//!
//! # The 1-bit corner is the BNN
//!
//! At [`NetworkPrecision::one_bit`] every piece of this path degenerates
//! to the XNOR datapath by construction:
//!
//! - a 1-plane [`PlaneMatrix`] is the `BitMatrix` sign packing (weights
//!   quantize by sign, exactly like `binary_weight()`);
//! - a 1-level [`LevelThresholds`] is one [`HwThreshold`] whose bound is
//!   IEEE-bit-identical to `BatchNorm::fold_threshold` (the single
//!   boundary sits at `x = 0`, so `v₀ = μ − β·σ/γ` evaluates the same
//!   float expression);
//! - max-pooling over `{−1, +1}` levels is OR-pooling.
//!
//! The property tests pin this: `QuantBnn` at `one_bit` produces scores
//! bit-identical to `HardwareBnn`.
//!
//! # Score scale
//!
//! A `q_a·q_w` integer product at levels `(L_a, L_w)` represents the
//! real product scaled by `L_a·L_w`, so [`QuantBnn::infer_batch`]
//! divides the output accumulations by [`QuantBnn::scores_scale`] to
//! keep scores comparable across precisions (at 1 bit the scale is 1
//! and the scores equal the hardware integers).

use serde::{Deserialize, Serialize, Value};

use mp_bnn::hardware::{check_engine, HwThreshold, INPUT_QUANT_SCALE};
use mp_bnn::planes::{levels, quantize_level, PlaneMatrix, PlaneVec};
use mp_bnn::{
    BnFold, BnnClassifier, EngineSpec, FinnTopology, HardwareBnn, LatentKind, ModelError,
};
use mp_obs::{now_ns, Recorder};
use mp_tensor::{Parallelism, Shape, ShapeError, Tensor};

use crate::cost::CostLut;
use crate::precision::NetworkPrecision;

/// A folded multi-level activation for one output channel: the
/// `L' = 2^out_bits − 1` boundary comparisons that replace
/// `quantize(batch_norm(acc))`.
///
/// Boundary `u` separates level index `u` from `u + 1`; by
/// monotonicity of the batch-norm affine, the fired boundaries are
/// always a prefix (γ > 0) or suffix (γ < 0) of the ladder, so the
/// quantized activation is just the *count* of fired boundaries mapped
/// back to the odd-level grid.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelThresholds {
    bounds: Vec<HwThreshold>,
}

impl LevelThresholds {
    /// Folds one channel's batch-norm parameters into `2^out_bits − 1`
    /// integer bounds at accumulator scale `scale`.
    ///
    /// Boundary `u` of the quantizer sits at
    /// `x_u = 2·(u + 0.5)/L' − 1` in batch-norm output space; solving
    /// `γ·(y − μ)/σ + β ≥ x_u` for the pre-norm value `y = acc/scale`
    /// gives the integer comparison. Degenerate γ (constant β output)
    /// folds each boundary to always/never.
    pub fn from_fold(fold: &BnFold, out_bits: usize, scale: f32) -> Self {
        let lp = levels(out_bits);
        let degenerate = fold.gamma.abs() < f32::EPSILON;
        let negate = fold.gamma < 0.0;
        let bounds = (0..lp)
            .map(|u| {
                let x_u = 2.0 * (u as f32 + 0.5) / lp as f32 - 1.0;
                if degenerate {
                    let bound = if fold.beta >= x_u { i64::MIN } else { i64::MAX };
                    HwThreshold {
                        bound,
                        negate: false,
                    }
                } else {
                    let v_u = fold.mean + (x_u - fold.beta) * fold.sigma / fold.gamma;
                    HwThreshold::fold(v_u, negate, scale)
                }
            })
            .collect();
        Self { bounds }
    }

    /// Number of boundaries (`2^out_bits − 1`).
    pub fn num_bounds(&self) -> usize {
        self.bounds.len()
    }

    /// Evaluates the quantized activation of an accumulation: the count
    /// of fired boundaries, mapped to the odd level `2·count − L'`.
    pub fn level(&self, acc: i64) -> i64 {
        let fired = self.bounds.iter().filter(|t| t.fires(acc)).count() as i64;
        2 * fired - self.bounds.len() as i64
    }
}

/// Quantizes latent float weights to `bits`-wide odd levels.
///
/// At 1 bit this is the *sign* (non-negative → `+1`), matching
/// `BitMatrix::from_signs` exactly; `quantize_level` agrees except for
/// latents within one f32 ulp below zero, so the corner case is pinned
/// here rather than left to rounding.
fn weight_levels(values: &[f32], bits: usize) -> Vec<i64> {
    if bits == 1 {
        values
            .iter()
            .map(|&x| if x >= 0.0 { 1 } else { -1 })
            .collect()
    } else {
        values.iter().map(|&x| quantize_level(x, bits)).collect()
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum QuantStage {
    /// First engine: Q2.6 fixed-point pixels × multi-plane weights.
    FirstConv {
        weights: PlaneMatrix,
        thresholds: Vec<LevelThresholds>,
        in_channels: usize,
        kernel: usize,
        pool: bool,
    },
    /// Inner multi-precision convolution engine.
    Conv {
        weights: PlaneMatrix,
        thresholds: Vec<LevelThresholds>,
        in_channels: usize,
        kernel: usize,
        pool: bool,
        a_bits: usize,
    },
    /// Inner multi-precision FC engine.
    Fc {
        weights: PlaneMatrix,
        thresholds: Vec<LevelThresholds>,
        a_bits: usize,
    },
    /// Final accumulate-only FC engine.
    Output { weights: PlaneMatrix, a_bits: usize },
}

impl QuantStage {
    fn kind_name(&self) -> &'static str {
        match self {
            QuantStage::FirstConv { .. } => "first_conv",
            QuantStage::Conv { .. } => "conv",
            QuantStage::Fc { .. } => "fc",
            QuantStage::Output { .. } => "output",
        }
    }
}

/// Why a quantized model failed its load-time checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuantModelError {
    /// The stages do not form a network for the topology: the checks a
    /// [`HardwareBnn`] load makes (stage order, and each stage's kind,
    /// geometry, weight shape and threshold count).
    Structure(ModelError),
    /// The precision does not have one layer per stage.
    PrecisionLayers {
        /// Layers in the [`NetworkPrecision`].
        layers: usize,
        /// Stages in the model.
        stages: usize,
    },
    /// A stage's weight planes differ from its layer's `w_bits`.
    WeightBits {
        /// Stage position.
        stage: usize,
        /// Planes found.
        bits: usize,
        /// The precision's `w_bits`.
        expected: usize,
    },
    /// A stage consumes activations at another width than its layer's
    /// `a_bits`.
    ActivationBits {
        /// Stage position.
        stage: usize,
        /// Width found.
        bits: usize,
        /// The precision's `a_bits`.
        expected: usize,
    },
    /// A threshold ladder has a different number of boundaries than the
    /// consuming layer's `2^a_bits − 1`.
    LadderWidth {
        /// Stage position.
        stage: usize,
        /// Boundaries found.
        bounds: usize,
        /// `2^a_bits − 1` of the next layer.
        expected: usize,
    },
}

impl std::fmt::Display for QuantModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Structure(e) => e.fmt(f),
            Self::PrecisionLayers { layers, stages } => {
                write!(
                    f,
                    "precision covers {layers} layers, model has {stages} stages"
                )
            }
            Self::WeightBits {
                stage,
                bits,
                expected,
            } => write!(
                f,
                "stage {stage}: {bits} weight planes, but the precision has w_bits = {expected}"
            ),
            Self::ActivationBits {
                stage,
                bits,
                expected,
            } => write!(
                f,
                "stage {stage}: {bits}-bit activations, but the precision has a_bits = {expected}"
            ),
            Self::LadderWidth {
                stage,
                bounds,
                expected,
            } => write!(
                f,
                "stage {stage}: a threshold ladder of {bounds} boundaries, \
                 but the next layer's a_bits needs {expected}"
            ),
        }
    }
}

impl std::error::Error for QuantModelError {}

impl From<ModelError> for QuantModelError {
    fn from(e: ModelError) -> Self {
        Self::Structure(e)
    }
}

/// Functional model of a multi-precision integer accelerator: per-layer
/// `(a_bits, w_bits)` quantized inference over bit-plane decomposed
/// weights and level-coded activations.
///
/// # Example
///
/// ```
/// use mp_bnn::{BnnClassifier, FinnTopology};
/// use mp_int::{NetworkPrecision, QuantBnn};
/// use mp_tensor::{init::TensorRng, Shape, Tensor};
///
/// # fn main() -> Result<(), mp_tensor::ShapeError> {
/// let mut rng = TensorRng::seed_from(0);
/// let bnn = BnnClassifier::new(FinnTopology::scaled(8, 8, 8), &mut rng)?;
/// let layers = bnn.export_latent().len();
/// let precision = NetworkPrecision::uniform(layers, 4, 4).unwrap();
/// let q = QuantBnn::from_classifier(&bnn, precision)?;
/// let scores = q.infer_batch(&Tensor::zeros(Shape::nchw(1, 3, 8, 8)))?;
/// assert_eq!(scores.shape().dims(), &[1, 10]);
/// # Ok(())
/// # }
/// ```
///
/// Deserialising checks the model against its topology and precision
/// and rejects a malformed one with a [`QuantModelError`].
#[derive(Debug, Clone, Serialize)]
pub struct QuantBnn {
    topology: FinnTopology,
    precision: NetworkPrecision,
    stages: Vec<QuantStage>,
}

impl<'de> Deserialize<'de> for QuantBnn {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let topology = FinnTopology::from_value(value.get_field("topology")?)?;
        let precision = NetworkPrecision::from_value(value.get_field("precision")?)?;
        let stages = Vec::<QuantStage>::from_value(value.get_field("stages")?)?;
        Self::from_parts(topology, precision, stages).map_err(serde::Error::custom)
    }
}

impl QuantBnn {
    /// Assembles a model after checking that the stages form a valid
    /// network for `topology` at `precision`: the fixed-point first conv
    /// first, the output stage last, one stage per engine and layer, and
    /// every weight matrix, threshold table and bit width consistent
    /// with both.
    fn from_parts(
        topology: FinnTopology,
        precision: NetworkPrecision,
        stages: Vec<QuantStage>,
    ) -> Result<Self, QuantModelError> {
        let last = stages.len().checked_sub(1).ok_or(ModelError::NoStages)?;
        for (i, stage) in stages.iter().enumerate() {
            let first = matches!(stage, QuantStage::FirstConv { .. });
            let output = matches!(stage, QuantStage::Output { .. });
            if first != (i == 0) {
                return Err(ModelError::FirstConvNotFirst { stage: i }.into());
            }
            if output != (i == last) {
                return Err(ModelError::OutputNotLast { stage: i }.into());
            }
        }
        if precision.len() != stages.len() {
            return Err(QuantModelError::PrecisionLayers {
                layers: precision.len(),
                stages: stages.len(),
            });
        }
        let topology_error = |reason| QuantModelError::Structure(ModelError::Topology { reason });
        let engines = topology.try_engines().map_err(topology_error)?;
        if engines.len() != stages.len() {
            return Err(topology_error(format!(
                "{} engines for a topology of {}",
                stages.len(),
                engines.len()
            )));
        }
        for (i, (stage, spec)) in stages.iter().zip(&engines).enumerate() {
            check_stage(i, stage, spec, &precision)?;
        }
        let output_rows = engines[last].out_channels;
        if topology.classes() > output_rows {
            return Err(topology_error(format!(
                "{} classes but an output engine of {output_rows} rows",
                topology.classes()
            )));
        }
        Ok(Self {
            topology,
            precision,
            stages,
        })
    }

    /// Quantizes a trained [`BnnClassifier`] to `precision`: latent
    /// weights become plane-packed levels, batch-norm + quantize pairs
    /// become level-threshold ladders.
    ///
    /// Layer `i`'s *output* width is layer `i + 1`'s `a_bits` (the
    /// precision at which the next layer consumes activations); the
    /// output stage produces raw accumulations.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `precision.len()` does not match the
    /// classifier's engine count or the classifier is structurally
    /// inconsistent.
    pub fn from_classifier(
        classifier: &BnnClassifier,
        precision: NetworkPrecision,
    ) -> Result<Self, ShapeError> {
        let latent = classifier.export_latent();
        if latent.len() != precision.len() {
            return Err(ShapeError::new(
                "QuantBnn::from_classifier",
                format!(
                    "precision covers {} layers, network has {} engines",
                    precision.len(),
                    latent.len()
                ),
            ));
        }
        let mut stages = Vec::new();
        for (i, (stage, &spec)) in latent.iter().zip(precision.layers()).enumerate() {
            let w_bits = spec.w_bits();
            let weights = PlaneMatrix::from_levels(
                stage.rows,
                stage.cols,
                &weight_levels(&stage.weights, w_bits),
                w_bits,
            );
            let out_bits = precision.layers().get(i + 1).map(|s| s.a_bits());
            let fold_ladder =
                |bn: &[BnFold], scale: f32| -> Result<Vec<LevelThresholds>, ShapeError> {
                    let out_bits = out_bits.ok_or_else(|| {
                        ShapeError::new(
                            "QuantBnn::from_classifier",
                            format!("engine {i} has an activation but no consumer layer"),
                        )
                    })?;
                    Ok(bn
                        .iter()
                        .map(|f| LevelThresholds::from_fold(f, out_bits, scale))
                        .collect())
                };
            let lw = levels(w_bits) as f32;
            match (&stage.kind, &stage.bn) {
                (
                    LatentKind::Conv {
                        in_channels,
                        kernel,
                        pool,
                        first,
                    },
                    Some(bn),
                ) => {
                    let scale = if *first {
                        INPUT_QUANT_SCALE * lw
                    } else {
                        levels(spec.a_bits()) as f32 * lw
                    };
                    let thresholds = fold_ladder(bn, scale)?;
                    stages.push(if *first {
                        QuantStage::FirstConv {
                            weights,
                            thresholds,
                            in_channels: *in_channels,
                            kernel: *kernel,
                            pool: *pool,
                        }
                    } else {
                        QuantStage::Conv {
                            weights,
                            thresholds,
                            in_channels: *in_channels,
                            kernel: *kernel,
                            pool: *pool,
                            a_bits: spec.a_bits(),
                        }
                    });
                }
                (LatentKind::Fc, Some(bn)) => {
                    let scale = levels(spec.a_bits()) as f32 * lw;
                    stages.push(QuantStage::Fc {
                        weights,
                        thresholds: fold_ladder(bn, scale)?,
                        a_bits: spec.a_bits(),
                    });
                }
                (LatentKind::Output, None) => {
                    stages.push(QuantStage::Output {
                        weights,
                        a_bits: spec.a_bits(),
                    });
                }
                _ => {
                    return Err(ShapeError::new(
                        "QuantBnn::from_classifier",
                        format!("engine {i}: batch-norm presence does not match stage kind"),
                    ));
                }
            }
        }
        Self::from_parts(classifier.topology().clone(), precision, stages)
            .map_err(|e| ShapeError::new("QuantBnn::from_classifier", e.to_string()))
    }

    /// The network topology.
    pub fn topology(&self) -> &FinnTopology {
        &self.topology
    }

    /// The per-layer precision this network was quantized to.
    pub fn precision(&self) -> &NetworkPrecision {
        &self.precision
    }

    /// Integer-to-real score scale of the output stage: `L_a·L_w`.
    /// Raw output accumulations divided by this are comparable across
    /// precisions; at the 1-bit corner the scale is 1.
    pub fn scores_scale(&self) -> f32 {
        let spec = self.precision.layers()[self.precision.len() - 1];
        (levels(spec.a_bits()) * levels(spec.w_bits())) as f32
    }

    /// Per-engine MAC counts (one entry per precision layer), from the
    /// topology's engine records.
    pub fn layer_macs(&self) -> Vec<u64> {
        self.topology
            .engines()
            .iter()
            .map(|e| e.macs_per_image())
            .collect()
    }

    /// Binary plane-MACs per image: each engine's MACs times its
    /// shift-add decomposition width — `w_bits` planes for the
    /// fixed-point first engine (pixels are consumed whole), and
    /// `a_bits·w_bits` plane pairs elsewhere.
    pub fn plane_macs_per_image(&self) -> u64 {
        self.layer_macs()
            .iter()
            .zip(self.precision.layers())
            .enumerate()
            .map(|(i, (&macs, spec))| {
                let planes = if i == 0 {
                    spec.w_bits()
                } else {
                    spec.a_bits() * spec.w_bits()
                };
                macs * planes as u64
            })
            .sum()
    }

    /// MAC-weighted cycle-cost multiplier of this precision relative to
    /// the 1-bit datapath, per `lut` (1.0 at the 1-bit corner).
    pub fn network_cost_factor(&self, lut: &CostLut) -> f64 {
        lut.network_factor(&self.precision, &self.layer_macs())
    }

    /// Runs one `[1, C, H, W]` image, returning the `classes` raw
    /// integer output accumulations (scaled by [`Self::scores_scale`]).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the image does not match the topology.
    pub fn infer_image(&self, image: &Tensor) -> Result<Vec<i64>, ShapeError> {
        self.infer_image_inner(image, None)
    }

    /// Reference inference for one image, optionally recording one span
    /// per stage (`quant.stage<i>.<kind>`).
    fn infer_image_inner(
        &self,
        image: &Tensor,
        obs: Option<(&dyn Recorder, &[String])>,
    ) -> Result<Vec<i64>, ShapeError> {
        let want = Shape::nchw(
            1,
            self.topology.channels(),
            self.topology.height(),
            self.topology.width(),
        );
        if image.shape() != &want {
            return Err(ShapeError::new(
                "QuantBnn::infer_image",
                format!("expected {want}, got {}", image.shape()),
            ));
        }
        let mut acts: Vec<i64> = Vec::new();
        let mut dims = (
            self.topology.channels(),
            self.topology.height(),
            self.topology.width(),
        );
        let mut scores: Option<Vec<i64>> = None;
        for (si, stage) in self.stages.iter().enumerate() {
            let t0 = obs.map(|_| now_ns());
            match stage {
                QuantStage::FirstConv {
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
                    let q: Vec<i64> = image
                        .iter()
                        .map(|&x| HardwareBnn::quantize_pixel(x))
                        .collect();
                    let mut out = vec![0i64; od * oh * ow];
                    let mut patch = Vec::with_capacity(c * k * k);
                    for oy in 0..oh {
                        for ox in 0..ow {
                            patch.clear();
                            for ch in 0..c {
                                for ky in 0..k {
                                    for kx in 0..k {
                                        patch.push(q[(ch * h + oy + ky) * w + ox + kx]);
                                    }
                                }
                            }
                            for oc in 0..od {
                                // Fixed-point pixels are consumed whole;
                                // only the weights decompose into planes.
                                let mut acc = 0i64;
                                for p in 0..weights.bits() {
                                    let row = weights.plane(p).row(oc);
                                    let mut partial = 0i64;
                                    for (i, &x) in patch.iter().enumerate() {
                                        partial += if row.get(i) { x } else { -x };
                                    }
                                    acc += partial << p;
                                }
                                out[(oc * oh + oy) * ow + ox] = thresholds[oc].level(acc);
                            }
                        }
                    }
                    dims = (od, oh, ow);
                    acts = out;
                    if *pool {
                        let (next, nd) = max_pool_levels(&acts, dims);
                        acts = next;
                        dims = nd;
                    }
                }
                QuantStage::Conv {
                    weights,
                    thresholds,
                    in_channels,
                    kernel,
                    pool,
                    a_bits,
                } => {
                    let (c, h, w) = dims;
                    debug_assert_eq!(c, *in_channels);
                    let k = *kernel;
                    let (oh, ow) = (h - k + 1, w - k + 1);
                    let od = weights.num_rows();
                    let mut out = vec![0i64; od * oh * ow];
                    let mut patch = Vec::with_capacity(c * k * k);
                    let mut accs = Vec::new();
                    for oy in 0..oh {
                        for ox in 0..ow {
                            patch.clear();
                            for ch in 0..c {
                                for ky in 0..k {
                                    for kx in 0..k {
                                        patch.push(acts[(ch * h + oy + ky) * w + ox + kx]);
                                    }
                                }
                            }
                            let pv = PlaneVec::from_levels(&patch, *a_bits);
                            weights.matvec_into(&pv, &mut accs);
                            for (oc, &acc) in accs.iter().enumerate() {
                                out[(oc * oh + oy) * ow + ox] = thresholds[oc].level(acc);
                            }
                        }
                    }
                    dims = (od, oh, ow);
                    acts = out;
                    if *pool {
                        let (next, nd) = max_pool_levels(&acts, dims);
                        acts = next;
                        dims = nd;
                    }
                }
                QuantStage::Fc {
                    weights,
                    thresholds,
                    a_bits,
                } => {
                    let x = PlaneVec::from_levels(&acts, *a_bits);
                    let accs = weights.matvec(&x);
                    acts = accs
                        .iter()
                        .zip(thresholds)
                        .map(|(&a, t)| t.level(a))
                        .collect();
                    dims = (acts.len(), 1, 1);
                }
                QuantStage::Output { weights, a_bits } => {
                    let x = PlaneVec::from_levels(&acts, *a_bits);
                    let accs = weights.matvec(&x);
                    scores = Some(accs.into_iter().take(self.topology.classes()).collect());
                }
            }
            if let (Some((rec, names)), Some(start)) = (obs, t0) {
                rec.record_span(&names[si], start, now_ns());
            }
        }
        scores.ok_or_else(|| ShapeError::new("QuantBnn::infer_image", "no output engine"))
    }

    /// Classifies one image (argmax of the raw scores, first index on
    /// ties).
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

    /// Runs a `[N, C, H, W]` batch, returning `[N, classes]` float
    /// scores normalised by [`Self::scores_scale`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the batch does not match the topology.
    pub fn infer_batch(&self, images: &Tensor) -> Result<Tensor, ShapeError> {
        self.infer_batch_obs(images, Parallelism::sequential(), &mp_obs::NULL_RECORDER)
    }

    /// [`Self::infer_batch`] sharded across `par` scoped worker threads
    /// with per-stage wall-time spans (`quant.stage<i>.<kind>`) and the
    /// `quant.images` / `quant.plane_macs` counters recorded against
    /// `rec`. Recording is passive: scores are bit-identical to the
    /// unobserved path.
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
                "QuantBnn::infer_batch",
                format!("expected [N,{c},{h},{w}] batch, got {shape}"),
            ));
        }
        let n = shape.dim(0);
        let classes = self.topology.classes();
        let scale = self.scores_scale();
        let names;
        let obs: Option<(&dyn Recorder, &[String])> = if rec.enabled() {
            names = self.stage_span_names();
            rec.add(mp_obs::schema::CTR_QUANT_IMAGES, n as u64);
            rec.add(
                mp_obs::schema::CTR_QUANT_PLANE_MACS,
                self.plane_macs_per_image() * n as u64,
            );
            Some((rec, names.as_slice()))
        } else {
            None
        };
        let infer_range = |range: std::ops::Range<usize>| -> Result<Vec<f32>, ShapeError> {
            let mut out = Vec::with_capacity(range.len() * classes);
            for i in range {
                let img = images.batch_item(i)?;
                let scores = self.infer_image_inner(&img, obs)?;
                out.extend(scores.into_iter().map(|s| s as f32 / scale));
            }
            Ok(out)
        };
        let chunks = par.chunks(n);
        let data = if chunks.len() <= 1 {
            infer_range(0..n)?
        } else {
            let parts: Vec<Result<Vec<f32>, ShapeError>> = std::thread::scope(|scope| {
                let handles: Vec<_> = chunks
                    .iter()
                    .map(|&(start, end)| scope.spawn(move || infer_range(start..end)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("quantized inference worker panicked"))
                    .collect()
            });
            let mut data = Vec::with_capacity(n * classes);
            for part in parts {
                data.extend(part?);
            }
            data
        };
        Tensor::from_vec(Shape::matrix(n, classes), data)
    }

    /// Stable per-stage span names: `quant.stage<i>.<kind>`.
    fn stage_span_names(&self) -> Vec<String> {
        self.stages
            .iter()
            .enumerate()
            .map(|(i, stage)| {
                format!(
                    "{}{i}.{}",
                    mp_obs::schema::SPAN_QUANT_STAGE_PREFIX,
                    stage.kind_name()
                )
            })
            .collect()
    }
}

/// Checks stage `i` against its topology engine `spec` and its layer of
/// `precision` (the caller has already placed the first and output
/// stages).
fn check_stage(
    i: usize,
    stage: &QuantStage,
    spec: &EngineSpec,
    precision: &NetworkPrecision,
) -> Result<(), QuantModelError> {
    let (weights, thresholds, conv, a_bits) = match stage {
        QuantStage::FirstConv {
            weights,
            thresholds,
            in_channels,
            kernel,
            pool,
        } => (
            weights,
            Some(thresholds),
            Some((*in_channels, *kernel, *pool)),
            None,
        ),
        QuantStage::Conv {
            weights,
            thresholds,
            in_channels,
            kernel,
            pool,
            a_bits,
        } => (
            weights,
            Some(thresholds),
            Some((*in_channels, *kernel, *pool)),
            Some(*a_bits),
        ),
        QuantStage::Fc {
            weights,
            thresholds,
            a_bits,
        } => (weights, Some(thresholds), None, Some(*a_bits)),
        QuantStage::Output { weights, a_bits } => (weights, None, None, Some(*a_bits)),
    };
    check_engine(
        i,
        spec,
        conv,
        (weights.num_rows(), weights.num_cols()),
        thresholds.map(Vec::len),
    )?;
    let layer = precision.layers()[i];
    if weights.bits() != layer.w_bits() {
        return Err(QuantModelError::WeightBits {
            stage: i,
            bits: weights.bits(),
            expected: layer.w_bits(),
        });
    }
    if let Some(bits) = a_bits.filter(|&bits| bits != layer.a_bits()) {
        return Err(QuantModelError::ActivationBits {
            stage: i,
            bits,
            expected: layer.a_bits(),
        });
    }
    // A stage with thresholds is not the last, so a consuming layer exists.
    let Some(thresholds) = thresholds else {
        return Ok(());
    };
    let expected = levels(precision.layers()[i + 1].a_bits()) as usize;
    match thresholds.iter().find(|t| t.num_bounds() != expected) {
        Some(t) => Err(QuantModelError::LadderWidth {
            stage: i,
            bounds: t.num_bounds(),
            expected,
        }),
        None => Ok(()),
    }
}

/// 2×2 max pooling over level-coded activations (the `b`-bit
/// generalisation of OR pooling: `max` over odd levels, which at 1 bit
/// is OR over `{−1, +1}`).
fn max_pool_levels(
    acts: &[i64],
    (c, h, w): (usize, usize, usize),
) -> (Vec<i64>, (usize, usize, usize)) {
    let (oh, ow) = (h / 2, w / 2);
    let mut out = vec![0i64; c * oh * ow];
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut v = i64::MIN;
                for ky in 0..2 {
                    for kx in 0..2 {
                        v = v.max(acts[(ch * h + 2 * oy + ky) * w + 2 * ox + kx]);
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
    use crate::precision::PrecisionSpec;
    use mp_nn::train::Model;
    use mp_nn::Mode;
    use mp_tensor::init::TensorRng;

    fn trained_tiny(seed: u64) -> BnnClassifier {
        let mut rng = TensorRng::seed_from(seed);
        let mut bnn = BnnClassifier::new(FinnTopology::scaled(8, 8, 8), &mut rng).unwrap();
        for _ in 0..4 {
            let x = rng.normal(Shape::nchw(8, 3, 8, 8), 0.0, 1.0);
            bnn.forward_mode(&x, Mode::Train).unwrap();
        }
        bnn
    }

    fn layer_count(bnn: &BnnClassifier) -> usize {
        bnn.export_latent().len()
    }

    #[test]
    fn level_thresholds_count_boundaries() {
        let fold = BnFold {
            gamma: 1.0,
            beta: 0.0,
            mean: 0.0,
            sigma: 1.0,
        };
        // 2-bit output, unit scale: boundaries at bn-space −2/3, 0, 2/3.
        let t = LevelThresholds::from_fold(&fold, 2, 3.0);
        assert_eq!(t.num_bounds(), 3);
        assert_eq!(t.level(-3), -3);
        assert_eq!(t.level(-1), -1);
        assert_eq!(t.level(0), 1); // bn(0) = 0 fires the middle bound
        assert_eq!(t.level(3), 3);
    }

    #[test]
    fn one_bit_threshold_matches_hardware_fold() {
        // The single boundary of a 1-bit ladder must be the BNN's
        // folded threshold, bit for bit.
        let folds = [
            BnFold {
                gamma: 0.7,
                beta: -0.3,
                mean: 0.11,
                sigma: 1.9,
            },
            BnFold {
                gamma: -1.3,
                beta: 0.45,
                mean: -2.0,
                sigma: 0.33,
            },
            BnFold {
                gamma: 0.0,
                beta: 0.2,
                mean: 1.0,
                sigma: 1.0,
            },
            BnFold {
                gamma: 0.0,
                beta: -0.2,
                mean: 1.0,
                sigma: 1.0,
            },
        ];
        for fold in &folds {
            for scale in [1.0f32, 64.0] {
                let ladder = LevelThresholds::from_fold(fold, 1, scale);
                let degenerate = fold.gamma.abs() < f32::EPSILON;
                let expect = if degenerate {
                    let t = if fold.beta >= 0.0 {
                        f32::NEG_INFINITY
                    } else {
                        f32::INFINITY
                    };
                    HwThreshold::fold(t, false, scale)
                } else {
                    HwThreshold::fold(
                        fold.mean - fold.beta * fold.sigma / fold.gamma,
                        fold.gamma < 0.0,
                        scale,
                    )
                };
                assert_eq!(ladder.bounds[0], expect, "fold {fold:?} scale {scale}");
            }
        }
    }

    #[test]
    fn one_bit_corner_is_bit_identical_to_hardware() {
        let bnn = trained_tiny(90);
        let hw = HardwareBnn::from_classifier(&bnn).unwrap();
        let precision = NetworkPrecision::one_bit(layer_count(&bnn)).unwrap();
        let q = QuantBnn::from_classifier(&bnn, precision).unwrap();
        assert_eq!(q.scores_scale(), 1.0);
        let mut rng = TensorRng::seed_from(91);
        let batch = rng.normal(Shape::nchw(5, 3, 8, 8), 0.0, 1.0);
        let hw_scores = hw.infer_batch(&batch).unwrap();
        let q_scores = q.infer_batch(&batch).unwrap();
        assert_eq!(hw_scores.shape(), q_scores.shape());
        assert_eq!(hw_scores.as_slice(), q_scores.as_slice());
    }

    #[test]
    fn quantized_inference_shapes_and_determinism() {
        let bnn = trained_tiny(92);
        let n = layer_count(&bnn);
        let mut rng = TensorRng::seed_from(93);
        let batch = rng.normal(Shape::nchw(3, 3, 8, 8), 0.0, 1.0);
        for (a, w) in [(2usize, 2usize), (4, 4), (8, 8), (2, 8)] {
            let precision = NetworkPrecision::uniform(n, a, w).unwrap();
            let q = QuantBnn::from_classifier(&bnn, precision).unwrap();
            let scores = q.infer_batch(&batch).unwrap();
            assert_eq!(scores.shape().dims(), &[3, 10]);
            let again = q.infer_batch(&batch).unwrap();
            assert_eq!(scores.as_slice(), again.as_slice());
        }
    }

    #[test]
    fn parallel_batches_are_bit_identical() {
        let bnn = trained_tiny(94);
        let precision = NetworkPrecision::uniform(layer_count(&bnn), 4, 2).unwrap();
        let q = QuantBnn::from_classifier(&bnn, precision).unwrap();
        let mut rng = TensorRng::seed_from(95);
        let batch = rng.normal(Shape::nchw(7, 3, 8, 8), 0.0, 1.0);
        let reference = q.infer_batch(&batch).unwrap();
        for threads in [2usize, 5] {
            let got = q
                .infer_batch_obs(&batch, Parallelism::new(threads), &mp_obs::NULL_RECORDER)
                .unwrap();
            assert_eq!(reference.as_slice(), got.as_slice());
        }
    }

    #[test]
    fn rejects_layer_count_mismatch_and_bad_shapes() {
        let bnn = trained_tiny(96);
        let precision = NetworkPrecision::uniform(3, 4, 4).unwrap();
        assert!(QuantBnn::from_classifier(&bnn, precision).is_err());
        let good = NetworkPrecision::uniform(layer_count(&bnn), 4, 4).unwrap();
        let q = QuantBnn::from_classifier(&bnn, good).unwrap();
        assert!(q
            .infer_image(&Tensor::zeros(Shape::nchw(1, 3, 16, 16)))
            .is_err());
        assert!(q
            .infer_batch(&Tensor::zeros(Shape::nchw(2, 1, 8, 8)))
            .is_err());
    }

    #[test]
    fn plane_macs_scale_with_precision() {
        let bnn = trained_tiny(97);
        let n = layer_count(&bnn);
        let one = QuantBnn::from_classifier(&bnn, NetworkPrecision::one_bit(n).unwrap()).unwrap();
        let wide =
            QuantBnn::from_classifier(&bnn, NetworkPrecision::uniform(n, 8, 8).unwrap()).unwrap();
        let macs: u64 = one.layer_macs().iter().sum();
        assert_eq!(one.plane_macs_per_image(), macs);
        assert!(wide.plane_macs_per_image() > 32 * one.plane_macs_per_image());
        // Cost factors order the same way.
        let lut = CostLut::mpic();
        assert_eq!(one.network_cost_factor(&lut), 1.0);
        assert!(wide.network_cost_factor(&lut) > 2.0);
    }

    #[test]
    fn spans_and_counters_are_recorded() {
        let bnn = trained_tiny(98);
        let precision = NetworkPrecision::uniform(layer_count(&bnn), 2, 2).unwrap();
        let q = QuantBnn::from_classifier(&bnn, precision).unwrap();
        let mut rng = TensorRng::seed_from(99);
        let batch = rng.normal(Shape::nchw(2, 3, 8, 8), 0.0, 1.0);
        let rec = mp_obs::SharedRecorder::new();
        q.infer_batch_obs(&batch, Parallelism::sequential(), &rec)
            .unwrap();
        let report = rec.report();
        let span_names: Vec<&str> = report.spans.iter().map(|s| s.name.as_str()).collect();
        assert!(span_names
            .iter()
            .any(|n| n.starts_with(mp_obs::schema::SPAN_QUANT_STAGE_PREFIX)));
        let images = report
            .counters
            .iter()
            .find(|c| c.name == mp_obs::schema::CTR_QUANT_IMAGES)
            .expect("images counter");
        assert_eq!(images.value, 2);
        let macs = report
            .counters
            .iter()
            .find(|c| c.name == mp_obs::schema::CTR_QUANT_PLANE_MACS)
            .expect("plane macs counter");
        assert_eq!(macs.value, 2 * q.plane_macs_per_image());
    }

    #[test]
    fn serde_round_trip_preserves_scores() {
        let bnn = trained_tiny(100);
        let precision = NetworkPrecision::uniform(layer_count(&bnn), 2, 4).unwrap();
        let q = QuantBnn::from_classifier(&bnn, precision).unwrap();
        let json = serde_json::to_string(&q).unwrap();
        let back: QuantBnn = serde_json::from_str(&json).unwrap();
        let mut rng = TensorRng::seed_from(101);
        let batch = rng.normal(Shape::nchw(2, 3, 8, 8), 0.0, 1.0);
        assert_eq!(
            q.infer_batch(&batch).unwrap().as_slice(),
            back.infer_batch(&batch).unwrap().as_slice()
        );
    }

    /// The shape of a serialised value: object keys, enum tags and
    /// scalar kinds, with runs of same-shaped array items collapsed.
    fn skeleton(v: &Value) -> String {
        match v {
            Value::Null => "null".into(),
            Value::Bool(_) => "bool".into(),
            Value::Int(_) | Value::UInt(_) => "int".into(),
            Value::Float(_) => "float".into(),
            Value::Str(_) => "str".into(),
            Value::Seq(items) => {
                let mut shapes: Vec<String> = items.iter().map(skeleton).collect();
                shapes.dedup();
                format!("[{}]", shapes.join(","))
            }
            Value::Map(fields) => {
                let fields: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("{k}:{}", skeleton(v)))
                    .collect();
                format!("{{{}}}", fields.join(","))
            }
        }
    }

    /// A 2-bit-activation, 4-bit-weight model of the tiny topology.
    fn tiny_quant() -> QuantBnn {
        let bnn = trained_tiny(104);
        let precision = NetworkPrecision::uniform(layer_count(&bnn), 2, 4).unwrap();
        QuantBnn::from_classifier(&bnn, precision).unwrap()
    }

    #[test]
    fn golden_serialised_format_is_unchanged() {
        // The checked deserialiser reads the derive-era format: object
        // keys, enum tags and nesting are pinned here.
        let q = tiny_quant();
        let planes = "{planes:[{rows:[{words:[int],len:int}],cols:int}],cols:int}";
        let ladders = "[{bounds:[{bound:int,negate:bool}]}]";
        let want = format!(
            "{{topology:{{channels:int,height:int,width:int,conv_channels:[int],\
             pool_after:[bool],fc_sizes:[int],classes:int}},\
             precision:{{layers:[{{a_bits:int,w_bits:int}}]}},\
             stages:[{{FirstConv:{{weights:{planes},thresholds:{ladders},\
             in_channels:int,kernel:int,pool:bool}}}},\
             {{Conv:{{weights:{planes},thresholds:{ladders},\
             in_channels:int,kernel:int,pool:bool,a_bits:int}}}},\
             {{Fc:{{weights:{planes},thresholds:{ladders},a_bits:int}}}},\
             {{Output:{{weights:{planes},a_bits:int}}}}]}}"
        );
        assert_eq!(skeleton(&q.to_value()), want);
        let json = serde_json::to_string(&q).unwrap();
        let back: QuantBnn = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    /// Serialises `q`, applies `mutate` to the serialised value and loads
    /// it back through the checked deserialiser.
    fn reload_with(
        q: &QuantBnn,
        mutate: impl FnOnce(&mut Value),
    ) -> Result<QuantBnn, serde::Error> {
        let mut value = q.to_value();
        mutate(&mut value);
        QuantBnn::from_value(&value)
    }

    /// Field `name` of a serialised object, or of the payload of a
    /// serialised enum variant (`{"Variant": {fields}}`).
    fn field<'v>(value: &'v mut Value, name: &str) -> &'v mut Value {
        let Value::Map(fields) = value else {
            panic!("expected an object")
        };
        if fields.len() == 1 && fields[0].0 != name {
            return field(&mut fields[0].1, name);
        }
        &mut fields.iter_mut().find(|(k, _)| k == name).unwrap().1
    }

    fn items(value: &mut Value) -> &mut Vec<Value> {
        let Value::Seq(items) = value else {
            panic!("expected an array")
        };
        items
    }

    fn stages(value: &mut Value) -> &mut Vec<Value> {
        items(field(value, "stages"))
    }

    fn assert_rejected(got: Result<QuantBnn, serde::Error>, want: QuantModelError) {
        let err = got.expect_err("malformed model must be rejected");
        assert_eq!(err.to_string(), want.to_string());
    }

    #[test]
    fn deserialize_rejects_empty_stage_list() {
        let q = tiny_quant();
        assert_rejected(
            reload_with(&q, |v| stages(v).clear()),
            ModelError::NoStages.into(),
        );
    }

    #[test]
    fn deserialize_rejects_first_conv_out_of_place() {
        let q = tiny_quant();
        assert_rejected(
            reload_with(&q, |v| stages(v).swap(0, 1)),
            ModelError::FirstConvNotFirst { stage: 0 }.into(),
        );
        assert_rejected(
            reload_with(&q, |v| {
                let first = stages(v)[0].clone();
                stages(v).insert(2, first);
            }),
            ModelError::FirstConvNotFirst { stage: 2 }.into(),
        );
    }

    #[test]
    fn deserialize_rejects_output_stage_out_of_place() {
        let q = tiny_quant();
        let last = q.stages.len() - 1;
        assert_rejected(
            reload_with(&q, |v| {
                stages(v).pop();
            }),
            ModelError::OutputNotLast { stage: last - 1 }.into(),
        );
        assert_rejected(
            reload_with(&q, |v| stages(v).swap(last - 1, last)),
            ModelError::OutputNotLast { stage: last - 1 }.into(),
        );
    }

    #[test]
    fn deserialize_rejects_precision_layer_count_mismatch() {
        let q = tiny_quant();
        let n = q.stages.len();
        assert_rejected(
            reload_with(&q, |v| {
                items(field(field(v, "precision"), "layers")).pop();
            }),
            QuantModelError::PrecisionLayers {
                layers: n - 1,
                stages: n,
            },
        );
    }

    #[test]
    fn deserialize_rejects_threshold_count_mismatch() {
        let q = tiny_quant();
        let rows = q.topology.engines()[1].out_channels;
        assert_rejected(
            reload_with(&q, |v| {
                items(field(&mut stages(v)[1], "thresholds")).pop();
            }),
            ModelError::ThresholdCount {
                stage: 1,
                thresholds: rows - 1,
                rows,
            }
            .into(),
        );
    }

    #[test]
    fn deserialize_rejects_fan_in_mismatch() {
        let q = tiny_quant();
        let e = &q.topology.engines()[2];
        let (rows, cols) = (e.out_channels, e.weight_cols());
        assert_rejected(
            reload_with(&q, |v| {
                *field(&mut stages(v)[2], "weights") =
                    PlaneMatrix::from_levels(rows, cols + 1, &vec![1; rows * (cols + 1)], 4)
                        .to_value();
            }),
            ModelError::FanIn {
                stage: 2,
                cols: cols + 1,
                expected: cols,
            }
            .into(),
        );
    }

    #[test]
    fn deserialize_rejects_weight_bits_mismatch() {
        let q = tiny_quant();
        let e = &q.topology.engines()[1];
        let (rows, cols) = (e.out_channels, e.weight_cols());
        assert_rejected(
            reload_with(&q, |v| {
                *field(&mut stages(v)[1], "weights") =
                    PlaneMatrix::from_levels(rows, cols, &vec![1; rows * cols], 2).to_value();
            }),
            QuantModelError::WeightBits {
                stage: 1,
                bits: 2,
                expected: 4,
            },
        );
    }

    #[test]
    fn deserialize_rejects_activation_bits_mismatch() {
        let q = tiny_quant();
        assert_rejected(
            reload_with(&q, |v| *field(&mut stages(v)[1], "a_bits") = Value::Int(4)),
            QuantModelError::ActivationBits {
                stage: 1,
                bits: 4,
                expected: 2,
            },
        );
    }

    #[test]
    fn deserialize_rejects_ladder_width_mismatch() {
        // Layer 1 now consumes 4-bit activations, but stage 0's ladders
        // still quantize to 2 bits (three boundaries).
        let q = tiny_quant();
        assert_rejected(
            reload_with(&q, |v| {
                let layers = items(field(field(v, "precision"), "layers"));
                *field(&mut layers[1], "a_bits") = Value::Int(4);
            }),
            QuantModelError::LadderWidth {
                stage: 0,
                bounds: 3,
                expected: 15,
            },
        );
    }

    #[test]
    fn deserialize_rejects_topology_mismatch() {
        let q = tiny_quant();
        assert_rejected(
            reload_with(&q, |v| *field(&mut stages(v)[1], "kernel") = Value::Int(5)),
            ModelError::Topology {
                reason: "engine 1: kernel 5, expected 3".to_string(),
            }
            .into(),
        );
        let engines = q.topology.engines().len();
        assert_rejected(
            reload_with(&q, |v| {
                let fc = items(field(field(v, "topology"), "fc_sizes"));
                let width = fc[0].clone();
                fc.insert(0, width);
            }),
            ModelError::Topology {
                reason: format!("{engines} engines for a topology of {}", engines + 1),
            }
            .into(),
        );
    }

    #[test]
    fn mixed_precision_per_layer_is_respected() {
        let bnn = trained_tiny(102);
        let n = layer_count(&bnn);
        let mut layers = vec![PrecisionSpec::try_new(8, 2).unwrap()];
        for i in 1..n {
            let spec = if i % 2 == 0 {
                PrecisionSpec::try_new(2, 4).unwrap()
            } else {
                PrecisionSpec::try_new(4, 2).unwrap()
            };
            layers.push(spec);
        }
        let precision = NetworkPrecision::try_new(layers).unwrap();
        let q = QuantBnn::from_classifier(&bnn, precision).unwrap();
        let mut rng = TensorRng::seed_from(103);
        let batch = rng.normal(Shape::nchw(2, 3, 8, 8), 0.0, 1.0);
        let scores = q.infer_batch(&batch).unwrap();
        assert_eq!(scores.shape().dims(), &[2, 10]);
    }
}
