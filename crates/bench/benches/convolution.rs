//! Micro-benchmark: the host float convolution inference path
//! (`Layer::infer`: one-pass batch patch matrix + blocked GEMM) on one
//! `INFER_SUB_BATCH`-image sub-batch, as `Network::infer_batch_with`
//! runs it, at the host models' layer geometries.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use mp_nn::layers::Conv2d;
use mp_nn::{Layer, INFER_SUB_BATCH};
use mp_tensor::init::TensorRng;
use mp_tensor::{Shape, Tensor, Workspace};

fn bench_conv_infer(c: &mut Criterion) {
    let mut rng = TensorRng::seed_from(0);
    let mut group = c.benchmark_group("conv2d_infer");
    // (in_ch, out_ch, k, padding, size): Model A's three 5×5 stages, then
    // Model B's 5×5-192 at 15×15 and its 1×1 192→160 at 32×32.
    for (ic, oc, k, pad, size) in [
        (3usize, 32usize, 5usize, 2usize, 32usize),
        (32, 32, 5, 2, 15),
        (32, 64, 5, 2, 7),
        (96, 192, 5, 2, 15),
        (192, 160, 1, 0, 32),
    ] {
        let conv = Conv2d::new(ic, oc, k, 1, pad, &mut rng).unwrap();
        let x = rng.normal(Shape::nchw(INFER_SUB_BATCH, ic, size, size), 0.0, 1.0);
        let mut ws = Workspace::new();
        group.bench_function(format!("{k}x{k}-{ic}->{oc}@{size}x{size}"), |b| {
            b.iter(|| {
                let y = conv.infer(black_box(&x), &mut ws).unwrap();
                ws.put(y.into_vec());
            })
        });
    }
    group.finish();
}

fn bench_im2col(c: &mut Criterion) {
    use mp_tensor::conv::{im2col, ConvGeometry};
    let img = Tensor::from_fn(Shape::nchw(1, 64, 30, 30), |i| i as f32 * 1e-3);
    c.bench_function("im2col_64ch_30x30_3x3", |b| {
        b.iter(|| im2col(black_box(&img), ConvGeometry::new(3, 1, 0)).unwrap())
    });
}

criterion_group!(benches, bench_conv_infer, bench_im2col);
criterion_main!(benches);
