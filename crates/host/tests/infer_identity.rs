//! Batched host inference is bit-identical to per-image `forward`.
//!
//! `Network::infer_batch_with` lowers every convolution of a sub-batch
//! into one patch matrix and one blocked GEMM, and shards the batch over
//! threads; `forward(Mode::Infer)` on a single image takes the
//! per-image training-path lowering. Both must sum every output in the
//! same order, so the host's scores never depend on batch size or thread
//! count. The zoo covers 5×5, 3×3 and 1×1 convolutions, stride-2
//! convolutions (Model C), LRN (Model A) and pooling.

use mp_host::zoo::{build_fast, build_paper};
use mp_host::ModelId;
use mp_nn::{Mode, Network};
use mp_tensor::init::TensorRng;
use mp_tensor::{Parallelism, Shape, Tensor};

fn bits(t: &Tensor) -> Vec<u32> {
    t.iter().map(|v| v.to_bits()).collect()
}

/// Each image alone through the training-path forward, concatenated.
fn per_image(net: &mut Network, x: &Tensor) -> Vec<u32> {
    let mut out = Vec::new();
    for i in 0..x.shape().dim(0) {
        let image = x.batch_item(i).unwrap();
        out.extend(bits(&net.forward_mode(&image, Mode::Infer).unwrap()));
    }
    out
}

fn assert_batched_matches_per_image(
    label: &str,
    net: &mut Network,
    side: usize,
    batches: &[usize],
    rng: &mut TensorRng,
) {
    for &n in batches {
        let x = rng.normal(Shape::nchw(n, 3, side, side), 0.0, 1.0);
        let want = per_image(net, &x);
        for threads in [1, 2, 3] {
            let got = net.infer_batch_with(&x, Parallelism::new(threads)).unwrap();
            assert!(
                bits(&got) == want,
                "{label}: batch {n} at {threads} threads differs from per-image forward"
            );
        }
    }
}

#[test]
fn fast_models_batched_inference_is_bit_identical_to_per_image_forward() {
    for id in ModelId::ALL {
        let mut rng = TensorRng::seed_from(61);
        let mut net = build_fast(id, &mut rng).unwrap();
        assert_batched_matches_per_image(id.name(), &mut net, 16, &[1, 3, 17], &mut rng);
    }
}

#[test]
fn paper_model_a_batched_inference_is_bit_identical_to_per_image_forward() {
    let mut rng = TensorRng::seed_from(62);
    let mut net = build_paper(ModelId::A, &mut rng).unwrap();
    assert_batched_matches_per_image("paper Model A", &mut net, 32, &[1, 3], &mut rng);
}
