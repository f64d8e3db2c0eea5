//! The system under test, built from a seed: dataset, BNN, DMU, host and
//! the calibrated DMU gate. Also the per-image correctness oracle.

use mp_bnn::{BnnClassifier, FinnTopology, HardwareBnn};
use mp_core::{gate_accepts, Dmu};
use mp_dataset::{Dataset, SynthSpec};
use mp_host::ModelId;
use mp_nn::train::Model;
use mp_nn::{Mode, Network};
use mp_tensor::init::TensorRng;
use mp_tensor::{Parallelism, Shape, Tensor};

use crate::BenchResult;

/// Train-mode forwards that populate the BNN's batch-norm statistics, and
/// the images in each. Throughput does not depend on weight values, so the
/// classifier is never trained.
const BN_FORWARDS: usize = 3;
const BN_BATCH: usize = 8;

/// Input and model sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Geometry {
    /// The paper's: 32×32 RGB, `FinnTopology::paper()`, the paper's host zoo.
    Paper,
    /// 8×8 RGB, `FinnTopology::scaled(8, 8, 8)` and two small host nets.
    /// For the benchmark's own tests only.
    Tiny,
}

impl Geometry {
    /// Images in the pool every workload draws its calls from.
    pub fn pool_images(self) -> usize {
        match self {
            Geometry::Paper => 256,
            Geometry::Tiny => 64,
        }
    }

    /// Largest allowed distance between a realised flag share and the
    /// workload's target. The toy net's integer scores are coarse, so equal
    /// confidences come in blocks and its gate can only land on a block
    /// edge.
    pub fn flag_tolerance(self) -> f64 {
        match self {
            Geometry::Paper => 0.02,
            Geometry::Tiny => 0.1,
        }
    }

    fn topology(self) -> FinnTopology {
        match self {
            Geometry::Paper => FinnTopology::paper(),
            Geometry::Tiny => FinnTopology::scaled(8, 8, 8),
        }
    }

    fn synth(self, seed: u64) -> SynthSpec {
        let base = match self {
            Geometry::Paper => SynthSpec::default(),
            Geometry::Tiny => SynthSpec::tiny(),
        };
        SynthSpec { seed, ..base }
    }

    fn host(self, id: ModelId, rng: &mut TensorRng) -> BenchResult<Network> {
        Ok(match self {
            Geometry::Paper => mp_host::zoo::build_paper(id, rng)?,
            Geometry::Tiny => {
                let width = if id == ModelId::A { 8 } else { 16 };
                Network::builder(Shape::nchw(1, 3, 8, 8))
                    .conv2d(width, 3, 1, 1, rng)?
                    .relu()
                    .conv2d(width, 3, 1, 1, rng)?
                    .relu()
                    .global_avg_pool()
                    .linear(10, rng)?
                    .try_build()?
            }
        })
    }
}

/// SplitMix64: derives independent sub-seeds from the benchmark seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A DMU whose confidence varies per image: a sigmoid of the top
/// standardised score against the runners-up, weighted `2, −1, −½, −¼, …`.
/// (A uniform-weight DMU sees sorted features summing to zero and gives
/// every image the same confidence, so it never flags anything. A plain
/// top-1 minus top-2 margin ties on many images of integer BNN scores; the
/// geometric tail breaks those ties, so a quantile gate can hit its share.)
pub fn margin_dmu(classes: usize) -> Dmu {
    let w = (0..classes)
        .map(|i| {
            if i == 0 {
                2.0
            } else {
                -(0.5f32.powi(i as i32 - 1))
            }
        })
        .collect();
    Dmu::with_weights(w, 0.0)
}

/// The gate that flags the share of `confidences` closest to `target`.
///
/// The executor flags an image when `gate_accepts(p, gate)` fails, i.e.
/// `p < gate` or `p` is NaN. Candidate gates are the distinct confidences
/// and one step above the largest; ties between equal confidences are why
/// the realised share can miss `target` by more than one image.
pub fn calibrate_gate(confidences: &[f32], target: f64) -> f32 {
    let nan = confidences.iter().filter(|p| p.is_nan()).count();
    let mut s: Vec<f32> = confidences
        .iter()
        .copied()
        .filter(|p| !p.is_nan())
        .collect();
    s.sort_by(f32::total_cmp);
    let want = (target * confidences.len() as f64).round() as i64;
    let mut best = (i64::MAX, 0.0f32);
    for i in 0..=s.len() {
        if i > 0 && i < s.len() && s[i] == s[i - 1] {
            continue;
        }
        let gate = match s.get(i) {
            Some(&p) => p,
            None => s.last().map_or(0.0, |&p| p.next_up()),
        };
        let miss = ((nan + i) as i64 - want).abs();
        if miss < best.0 {
            best = (miss, gate.clamp(0.0, 1.0));
        }
    }
    best.1
}

/// Everything one workload runs on.
#[derive(Debug)]
pub struct System {
    /// The exported accelerator model.
    pub hw: HardwareBnn,
    /// Decision-making unit.
    pub dmu: Dmu,
    /// Host network.
    pub host: Network,
    /// The image pool.
    pub data: Dataset,
    /// DMU gate calibrated on the pool to the workload's flag share.
    pub gate: f32,
    /// BNN scores of the pool, `[pool, classes]`, from calibration.
    pub scores: Tensor,
}

impl System {
    /// Builds the system for one workload: generates the pool, builds and
    /// exports the BNN, builds the host and calibrates the gate so that it
    /// flags `flag_frac` of the pool. This is the benchmark's set-up.
    ///
    /// # Errors
    ///
    /// Any model-construction or inference error.
    pub fn build(
        geometry: Geometry,
        host: ModelId,
        flag_frac: f64,
        seed: u64,
        par: Parallelism,
    ) -> BenchResult<Self> {
        let data = geometry
            .synth(mix(seed, 1))
            .generate(geometry.pool_images())?;
        let mut rng = TensorRng::seed_from(mix(seed, 2));
        let mut bnn = BnnClassifier::new(geometry.topology(), &mut rng)?;
        for k in 0..BN_FORWARDS {
            let batch = data.take_range(k * BN_BATCH..(k + 1) * BN_BATCH)?;
            bnn.forward_mode(batch.images(), Mode::Train)?;
        }
        let hw = HardwareBnn::from_classifier(&bnn)?;
        let host = geometry.host(host, &mut rng)?;
        let dmu = margin_dmu(hw.topology().classes());
        let scores = hw.infer_batch_with(data.images(), par)?;
        let gate = calibrate_gate(&dmu.predict_batch(&scores)?, flag_frac);
        Ok(Self {
            hw,
            dmu,
            host,
            data,
            gate,
            scores,
        })
    }

    /// The per-image reference for image `i` of the pool, computed only
    /// from the per-image entry points `HardwareBnn::infer_image`,
    /// `Dmu::predict` and `Network::infer`: `(prediction, flagged)`.
    ///
    /// # Errors
    ///
    /// Any inference error.
    pub fn oracle(&self, i: usize) -> BenchResult<(usize, bool)> {
        let image = self.data.images().batch_item(i)?;
        let scores: Vec<f32> = self
            .hw
            .infer_image(&image)?
            .into_iter()
            .map(|s| s as f32)
            .collect();
        let flagged = !gate_accepts(self.dmu.predict(&scores), self.gate);
        let pred = if flagged {
            first_max(self.host.infer(&image)?.as_slice())
        } else {
            first_max(&scores)
        };
        Ok((pred, flagged))
    }
}

/// Index of the first maximum (the accelerator's tie rule).
fn first_max(scores: &[f32]) -> usize {
    let mut best = 0;
    for (i, &s) in scores.iter().enumerate() {
        if s > scores[best] {
            best = i;
        }
    }
    best
}

/// A seeded oracle subset of at most `per_side` flagged and `per_side`
/// kept images, so both the BNN and the host path are checked.
pub fn oracle_subset(flagged: &[bool], per_side: usize, seed: u64) -> Vec<usize> {
    let mut rng = TensorRng::seed_from(mix(seed, 3));
    let mut pick = |want: bool| {
        let mut side: Vec<usize> = (0..flagged.len()).filter(|&i| flagged[i] == want).collect();
        rng.shuffle(&mut side);
        side.truncate(per_side);
        side
    };
    let mut subset = pick(true);
    subset.extend(pick(false));
    subset.sort_unstable();
    subset
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_hits_target_on_distinct_confidences() {
        let conf: Vec<f32> = (0..100).map(|i| 0.5 + i as f32 / 400.0).collect();
        for target in [0.0, 0.25, 0.57, 1.0] {
            let gate = calibrate_gate(&conf, target);
            let flagged = conf.iter().filter(|&&p| !gate_accepts(p, gate)).count();
            assert_eq!(
                flagged,
                (target * 100.0).round() as usize,
                "target {target}"
            );
        }
    }

    #[test]
    fn gate_takes_the_closest_share_under_ties() {
        // 40 images at 0.6, 60 at 0.9: a 25% target can flag 0 or 40.
        let mut conf = vec![0.6f32; 40];
        conf.extend(vec![0.9f32; 60]);
        let gate = calibrate_gate(&conf, 0.25);
        let flagged = conf.iter().filter(|&&p| !gate_accepts(p, gate)).count();
        assert_eq!(flagged, 40);
        // NaN confidences are always flagged and count toward the share.
        let conf = [f32::NAN, 0.7, 0.8, 0.9];
        let gate = calibrate_gate(&conf, 0.5);
        assert_eq!(conf.iter().filter(|&&p| !gate_accepts(p, gate)).count(), 2);
    }

    #[test]
    fn subset_covers_both_paths() {
        let flagged: Vec<bool> = (0..40).map(|i| i % 4 == 0).collect();
        let s = oracle_subset(&flagged, 3, 9);
        assert_eq!(s.len(), 6);
        assert_eq!(s.iter().filter(|&&i| flagged[i]).count(), 3);
        assert_eq!(s, oracle_subset(&flagged, 3, 9));
    }
}
