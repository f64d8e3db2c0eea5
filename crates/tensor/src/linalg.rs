//! Dense linear algebra over [`Tensor`] matrices.
//!
//! The workhorse is [`matmul`], a cache-blocked row-major GEMM used to lower
//! convolutions (via [`crate::conv::im2col`]) and fully-connected layers.
//! [`matmul_transpose_a`] / [`matmul_transpose_b`] cover the two transposed
//! products backpropagation needs without materialising transposed copies.
//!
//! Every product also has an `_into` variant that writes into a reusable
//! caller-owned buffer (see [`crate::Workspace`]) so hot inference loops can
//! run without per-call allocations.
//!
//! All kernels propagate non-finite values: `0 × NaN = NaN` and
//! `0 × ∞ = NaN` reach the output instead of being skipped, so upstream
//! numerical blowups surface instead of being masked by zero weights.

use std::cell::RefCell;

use crate::{Shape, ShapeError, Tensor};

/// Cache-blocking tile edge of the transposed (training-only) kernels.
const BLOCK: usize = 64;

/// Rows of `a` (output channels) per register tile of [`gemm_kernel`].
const MR: usize = 2;
/// Columns of `b` (output pixels) per register tile: four 4-lane SSE
/// vectors, so an `MR × NR` tile is eight accumulator registers.
const NR: usize = 16;
/// Depth of a k-block. A multiple of four, so every k-group of the
/// summation-order contract lies inside one block; one packed `KC × NR`
/// panel of `b` is 16 KiB and stays L1-resident while a tile sweeps it.
const KC: usize = 256;
/// Width of a column block: the packed `KC × NC` block of `b` is
/// 512 KiB, L2-resident while every row tile of `a` sweeps it.
const NC: usize = 512;

const _: () = assert!(KC.is_multiple_of(4) && NC.is_multiple_of(NR));

fn expect_matrix(t: &Tensor, op: &str, name: &str) -> Result<(usize, usize), ShapeError> {
    if t.shape().rank() != 2 {
        return Err(ShapeError::new(
            op,
            format!("{name} must be a matrix, got {}", t.shape()),
        ));
    }
    Ok((t.shape().dim(0), t.shape().dim(1)))
}

/// Core GEMM: `out[i][j] += sum_k a[i][k] * b[k][j]`.
///
/// **Summation order (the contract every host output rests on).** Each
/// output element adds `k` in aligned groups of four, each group folded as
/// `((a0·b0 + a1·b1) + a2·b2) + a3·b3` before it joins the running sum,
/// then the `k % 4` tail one term at a time. The blocking below only
/// changes which element is worked on when, never that order, so results
/// are bit-identical to the plain loop (see `reference_order` in the
/// tests). `out` must already be zeroed (or hold a partial sum to
/// accumulate onto).
fn gemm_kernel(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    PACKED.with_borrow_mut(|packed| {
        let len = KC.min(k) * NC.min(n.next_multiple_of(NR));
        if packed.len() < len {
            packed.resize(len, 0.0);
        }
        blocked_gemm(m, k, n, a, b, out, packed);
    });
}

thread_local! {
    /// Per-thread packing scratch of [`gemm_kernel`] (at most `KC × NC`
    /// floats), kept across calls so steady-state inference does not
    /// allocate.
    static PACKED: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// [`gemm_kernel`]'s loop nest. `n` is cut into `NC`-wide column blocks
/// and `k` into `KC`-deep blocks. Each `KC × NC` block of `b` is packed
/// into `NR`-wide panels, reading `b` row by row so the packing streams
/// even when the row stride is a power of two; every `MR × NR` output
/// tile then accumulates in registers across one panel, and a row tile
/// walks the panels left to right so `out` is touched in row order.
fn blocked_gemm(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    packed: &mut [f32],
) {
    for j0 in (0..n).step_by(NC) {
        let nc = NC.min(n - j0);
        for k0 in (0..k).step_by(KC) {
            let kc = KC.min(k - k0);
            for kk in 0..kc {
                let src = &b[(k0 + kk) * n + j0..][..nc];
                for (p, run) in src.chunks(NR).enumerate() {
                    packed[(p * kc + kk) * NR..][..run.len()].copy_from_slice(run);
                }
            }
            let packed = &packed[..nc.div_ceil(NR) * kc * NR];
            for i0 in (0..m).step_by(MR) {
                let mr = MR.min(m - i0);
                // Rows past `m` repeat the last row; their lanes are
                // computed and dropped, as are columns past `n`.
                let rows: [&[f32]; MR] = std::array::from_fn(|r| {
                    let i = i0 + r.min(mr - 1);
                    &a[i * k + k0..][..kc]
                });
                for (p, panel) in packed.chunks_exact(kc * NR).enumerate() {
                    let jp = j0 + p * NR;
                    let nr = NR.min(n - jp);
                    let mut acc = [[0.0f32; NR]; MR];
                    for (r, acc_row) in acc.iter_mut().enumerate().take(mr) {
                        acc_row[..nr].copy_from_slice(&out[(i0 + r) * n + jp..][..nr]);
                    }
                    micro_tile(&rows, panel, &mut acc);
                    for (r, acc_row) in acc.iter().enumerate().take(mr) {
                        out[(i0 + r) * n + jp..][..nr].copy_from_slice(&acc_row[..nr]);
                    }
                }
            }
        }
    }
}

/// One `MR × NR` register tile over one packed k-block: the groups of
/// four in contract order, then the block's tail (non-empty only in the
/// last block, since `KC` is a multiple of four).
///
/// Kept out of line so its codegen does not depend on the caller: alone,
/// the eight accumulators stay in registers and every group compiles to
/// broadcast + `mulps`/`addps` over the packed panel.
#[inline(never)]
fn micro_tile(rows: &[&[f32]; MR], panel: &[f32], tile: &mut [[f32; NR]; MR]) {
    let kc = rows[0].len();
    let body = kc - kc % 4;
    let mut acc = *tile;
    let mut quads = rows.map(|row| row[..body].chunks_exact(4));
    for bg in panel[..body * NR].chunks_exact(4 * NR) {
        let (b0, rest) = bg.split_at(NR);
        let (b1, rest) = rest.split_at(NR);
        let (b2, b3) = rest.split_at(NR);
        for (acc_row, quad) in acc.iter_mut().zip(quads.iter_mut()) {
            let Some(&[a0, a1, a2, a3]) = quad.next() else {
                unreachable!("every row holds one quad per panel group")
            };
            for j in 0..NR {
                acc_row[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
            }
        }
    }
    for kk in body..kc {
        let brow = &panel[kk * NR..][..NR];
        for (acc_row, row) in acc.iter_mut().zip(rows) {
            let aik = row[kk];
            for (o, &bkj) in acc_row.iter_mut().zip(brow) {
                *o += aik * bkj;
            }
        }
    }
    *tile = acc;
}

/// `aᵀ × b` micro-kernel: `out[i][j] += sum_k a[k][i] * b[k][j]`.
///
/// Follows [`gemm_kernel`]'s summation order exactly, so the result is
/// bit-identical to `gemm_kernel` run on a materialised `aᵀ`.
fn gemm_ta_kernel(k: usize, m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    for i0 in (0..m).step_by(BLOCK) {
        let i1 = (i0 + BLOCK).min(m);
        for k0 in (0..k).step_by(BLOCK) {
            let k1 = (k0 + BLOCK).min(k);
            for i in i0..i1 {
                let orow = &mut out[i * n..(i + 1) * n];
                let mut kk = k0;
                while kk + 4 <= k1 {
                    let a0 = a[kk * m + i];
                    let a1 = a[(kk + 1) * m + i];
                    let a2 = a[(kk + 2) * m + i];
                    let a3 = a[(kk + 3) * m + i];
                    let b0 = &b[kk * n..(kk + 1) * n];
                    let b1 = &b[(kk + 1) * n..(kk + 2) * n];
                    let b2 = &b[(kk + 2) * n..(kk + 3) * n];
                    let b3 = &b[(kk + 3) * n..(kk + 4) * n];
                    for (j, o) in orow.iter_mut().enumerate() {
                        *o += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
                    }
                    kk += 4;
                }
                for kr in kk..k1 {
                    let aki = a[kr * m + i];
                    let brow = &b[kr * n..(kr + 1) * n];
                    for (o, &bkj) in orow.iter_mut().zip(brow) {
                        *o += aki * bkj;
                    }
                }
            }
        }
    }
}

/// `a × bᵀ` micro-kernel: `out[i][j] = dot(a_row_i, b_row_j)`.
///
/// Both operands are walked along contiguous rows; the dot is split over
/// four accumulators to break the serial FP dependency chain.
fn gemm_tb_kernel(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (j, o) in orow.iter_mut().enumerate() {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc0 = 0.0f32;
            let mut acc1 = 0.0f32;
            let mut acc2 = 0.0f32;
            let mut acc3 = 0.0f32;
            let mut kk = 0;
            while kk + 4 <= k {
                acc0 += arow[kk] * brow[kk];
                acc1 += arow[kk + 1] * brow[kk + 1];
                acc2 += arow[kk + 2] * brow[kk + 2];
                acc3 += arow[kk + 3] * brow[kk + 3];
                kk += 4;
            }
            let mut acc = (acc0 + acc1) + (acc2 + acc3);
            for kr in kk..k {
                acc += arow[kr] * brow[kr];
            }
            *o += acc;
        }
    }
}

fn check_inner(op: &str, what: &str, ka: usize, kb: usize) -> Result<(), ShapeError> {
    if ka != kb {
        return Err(ShapeError::new(op, format!("{what} differ: {ka} vs {kb}")));
    }
    Ok(())
}

/// Zero-fills `out` to exactly `len` elements, reusing its capacity.
fn reset(out: &mut Vec<f32>, len: usize) {
    out.clear();
    out.resize(len, 0.0);
}

/// Matrix product `a × b` written into a reusable buffer.
///
/// `out` is cleared and resized to `m × n`; its existing capacity is
/// reused, so repeated calls with the same buffer do not allocate.
/// Returns the `(rows, cols)` of the product.
///
/// # Errors
///
/// Returns [`ShapeError`] if either input is not rank-2 or the inner
/// dimensions disagree.
pub fn matmul_into(
    a: &Tensor,
    b: &Tensor,
    out: &mut Vec<f32>,
) -> Result<(usize, usize), ShapeError> {
    let (m, ka) = expect_matrix(a, "matmul", "a")?;
    let (kb, n) = expect_matrix(b, "matmul", "b")?;
    check_inner("matmul", "inner dimensions", ka, kb)?;
    reset(out, m * n);
    gemm_kernel(m, ka, n, a.as_slice(), b.as_slice(), out);
    Ok((m, n))
}

/// Matrix product `a × b` for row-major matrices.
///
/// Packs `b` into cache-sized panels and accumulates register tiles,
/// with a fixed per-element summation order: `k` in aligned groups of
/// four, each folded as `((a0·b0 + a1·b1) + a2·b2) + a3·b3` before it
/// joins the running sum, then the `k % 4` tail one term at a time.
///
/// # Errors
///
/// Returns [`ShapeError`] if either input is not rank-2 or the inner
/// dimensions disagree.
///
/// # Example
///
/// ```
/// use mp_tensor::{linalg, Shape, Tensor};
///
/// # fn main() -> Result<(), mp_tensor::ShapeError> {
/// let identity = Tensor::from_vec(Shape::matrix(2, 2), vec![1., 0., 0., 1.])?;
/// let m = Tensor::from_vec(Shape::matrix(2, 2), vec![1., 2., 3., 4.])?;
/// assert_eq!(linalg::matmul(&identity, &m)?, m);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, ShapeError> {
    let mut out = Vec::new();
    let (m, n) = matmul_into(a, b, &mut out)?;
    Tensor::from_vec(Shape::matrix(m, n), out)
}

/// Matrix product `aᵀ × b` written into a reusable buffer.
///
/// Same buffer contract as [`matmul_into`]. Bit-identical to
/// `matmul_into(transpose(a), b, out)`.
///
/// # Errors
///
/// Returns [`ShapeError`] if either input is not rank-2 or the row counts
/// of `a` and `b` disagree.
pub fn matmul_transpose_a_into(
    a: &Tensor,
    b: &Tensor,
    out: &mut Vec<f32>,
) -> Result<(usize, usize), ShapeError> {
    let (ka, m) = expect_matrix(a, "matmul_transpose_a", "a")?;
    let (kb, n) = expect_matrix(b, "matmul_transpose_a", "b")?;
    check_inner("matmul_transpose_a", "row counts", ka, kb)?;
    reset(out, m * n);
    gemm_ta_kernel(ka, m, n, a.as_slice(), b.as_slice(), out);
    Ok((m, n))
}

/// Matrix product `aᵀ × b` without materialising `aᵀ`.
///
/// # Errors
///
/// Returns [`ShapeError`] if either input is not rank-2 or the row counts
/// of `a` and `b` disagree.
pub fn matmul_transpose_a(a: &Tensor, b: &Tensor) -> Result<Tensor, ShapeError> {
    let mut out = Vec::new();
    let (m, n) = matmul_transpose_a_into(a, b, &mut out)?;
    Tensor::from_vec(Shape::matrix(m, n), out)
}

/// Matrix product `a × bᵀ` written into a reusable buffer.
///
/// Same buffer contract as [`matmul_into`].
///
/// # Errors
///
/// Returns [`ShapeError`] if either input is not rank-2 or the column
/// counts of `a` and `b` disagree.
pub fn matmul_transpose_b_into(
    a: &Tensor,
    b: &Tensor,
    out: &mut Vec<f32>,
) -> Result<(usize, usize), ShapeError> {
    let (m, ka) = expect_matrix(a, "matmul_transpose_b", "a")?;
    let (n, kb) = expect_matrix(b, "matmul_transpose_b", "b")?;
    check_inner("matmul_transpose_b", "column counts", ka, kb)?;
    reset(out, m * n);
    gemm_tb_kernel(m, ka, n, a.as_slice(), b.as_slice(), out);
    Ok((m, n))
}

/// Matrix product `a × bᵀ` without materialising `bᵀ`.
///
/// # Errors
///
/// Returns [`ShapeError`] if either input is not rank-2 or the column
/// counts of `a` and `b` disagree.
pub fn matmul_transpose_b(a: &Tensor, b: &Tensor) -> Result<Tensor, ShapeError> {
    let mut out = Vec::new();
    let (m, n) = matmul_transpose_b_into(a, b, &mut out)?;
    Tensor::from_vec(Shape::matrix(m, n), out)
}

/// Matrix–vector product `a × x`.
///
/// # Errors
///
/// Returns [`ShapeError`] if `a` is not a matrix, `x` is not a vector, or
/// the dimensions disagree.
pub fn matvec(a: &Tensor, x: &Tensor) -> Result<Tensor, ShapeError> {
    let (m, k) = expect_matrix(a, "matvec", "a")?;
    if x.shape().rank() != 1 || x.shape().dim(0) != k {
        return Err(ShapeError::new(
            "matvec",
            format!("expected vector of length {k}, got {}", x.shape()),
        ));
    }
    let av = a.as_slice();
    let xv = x.as_slice();
    let mut out = vec![0.0f32; m];
    for (i, o) in out.iter_mut().enumerate() {
        let row = &av[i * k..(i + 1) * k];
        let mut acc = 0.0;
        for (&r, &v) in row.iter().zip(xv) {
            acc += r * v;
        }
        *o = acc;
    }
    Tensor::from_vec(Shape::vector(m), out)
}

/// Returns the transpose of a rank-2 tensor.
///
/// # Errors
///
/// Returns [`ShapeError`] if `a` is not rank-2.
pub fn transpose(a: &Tensor) -> Result<Tensor, ShapeError> {
    let (m, n) = expect_matrix(a, "transpose", "a")?;
    let av = a.as_slice();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = av[i * n + j];
        }
    }
    Tensor::from_vec(Shape::matrix(n, m), out)
}

/// Dot product of two equal-length vectors.
///
/// # Errors
///
/// Returns [`ShapeError`] if either input is not rank-1 or lengths differ.
pub fn dot(a: &Tensor, b: &Tensor) -> Result<f32, ShapeError> {
    if a.shape().rank() != 1 || b.shape().rank() != 1 || a.len() != b.len() {
        return Err(ShapeError::new(
            "dot",
            format!(
                "expected equal-length vectors, got {} and {}",
                a.shape(),
                b.shape()
            ),
        ));
    }
    Ok(a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum())
}

/// Naive triple-loop reference GEMM, kept for testing the blocked kernel.
///
/// # Errors
///
/// Returns [`ShapeError`] under the same conditions as [`matmul`].
pub fn matmul_reference(a: &Tensor, b: &Tensor) -> Result<Tensor, ShapeError> {
    let (m, ka) = expect_matrix(a, "matmul_reference", "a")?;
    let (kb, n) = expect_matrix(b, "matmul_reference", "b")?;
    if ka != kb {
        return Err(ShapeError::new(
            "matmul_reference",
            format!("inner dimensions differ: {ka} vs {kb}"),
        ));
    }
    let mut out = Tensor::zeros(Shape::matrix(m, n));
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for k in 0..ka {
                acc += a.as_slice()[i * ka + k] * b.as_slice()[k * n + j];
            }
            out.as_mut_slice()[i * n + j] = acc;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(shape: [usize; 2]) -> Tensor {
        Tensor::from_fn(shape, |i| (i as f32) * 0.37 - 2.0)
    }

    #[test]
    fn matmul_matches_reference_on_odd_sizes() {
        for (m, k, n) in [(1, 1, 1), (3, 5, 2), (7, 13, 11), (65, 70, 67)] {
            let a = seq([m, k]);
            let b = seq([k, n]);
            let fast = matmul(&a, &b).unwrap();
            let slow = matmul_reference(&a, &b).unwrap();
            for (x, y) in fast.iter().zip(slow.iter()) {
                // Mixed tolerance: the unrolled kernel groups partial sums
                // differently from the naive loop, so large magnitudes can
                // differ in the last f32 ulp (|y|·2⁻²³ ≈ 0.1 at 9e5).
                let tol = 1e-3 + y.abs() * 1e-6;
                assert!((x - y).abs() < tol, "mismatch {x} vs {y} at ({m},{k},{n})");
            }
        }
    }

    /// Scalar spelling of the summation-order contract of [`gemm_kernel`]:
    /// per output element, aligned groups of four folded as
    /// `((a0·b0 + a1·b1) + a2·b2) + a3·b3` and added to the running sum in
    /// k order, then the `k % 4` tail one term at a time.
    fn reference_order(a: &Tensor, b: &Tensor) -> Vec<f32> {
        let (m, k) = (a.shape().dim(0), a.shape().dim(1));
        let n = b.shape().dim(1);
        let (av, bv) = (a.as_slice(), b.as_slice());
        let term = |i: usize, kk: usize, j: usize| av[i * k + kk] * bv[kk * n + j];
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                let mut kk = 0;
                while kk + 4 <= k {
                    let group = ((term(i, kk, j) + term(i, kk + 1, j)) + term(i, kk + 2, j))
                        + term(i, kk + 3, j);
                    acc += group;
                    kk += 4;
                }
                for kr in kk..k {
                    acc += term(i, kr, j);
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    /// Operands whose products span several binades, so any change of
    /// summation order shows up in the low bits.
    fn operands(m: usize, k: usize, n: usize) -> (Tensor, Tensor) {
        let mut rng = crate::init::TensorRng::seed_from((m * 31 + k * 7 + n) as u64);
        let a = rng.normal(Shape::matrix(m, k), 0.0, 1.0);
        let b = rng
            .normal(Shape::matrix(k, n), 0.0, 1.0)
            .map(|v| v * (1.0 + 1e3 * v.abs()));
        (a, b)
    }

    fn assert_matches_reference_order(m: usize, k: usize, n: usize) {
        let (a, b) = operands(m, k, n);
        let want = reference_order(&a, &b);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let got = matmul(&a, &b).unwrap();
        assert!(
            bits(got.as_slice()) == bits(&want),
            "matmul ({m},{k},{n}) departs from the contract order"
        );
        let mut buf = vec![f32::NAN; 3]; // stale contents must not leak
        matmul_into(&a, &b, &mut buf).unwrap();
        assert!(
            bits(&buf) == bits(&want),
            "matmul_into ({m},{k},{n}) departs from the contract order"
        );
    }

    #[test]
    fn matmul_is_bit_identical_to_the_contract_order_across_block_edges() {
        // Every block edge: MR row tails (m odd), NR and NC column tails,
        // KC block boundaries, and each k % 4 residue in the last block.
        for m in [1, 2, 3, 5] {
            for k in [0, 1, 2, 3, 4, 5, 7] {
                for n in [1, 15, 16, 17, 33] {
                    assert_matches_reference_order(m, k, n);
                }
            }
        }
        for (m, k, n) in [
            (3, KC - 1, NR + 1),
            (3, KC, NC - 1),
            (2, KC + 1, NC),
            (5, KC + 2, NC + 1),
            (4, 2 * KC + 3, NC + NR + 3),
            (1, 3 * KC, 2 * NC + 5),
        ] {
            assert_matches_reference_order(m, k, n);
        }
    }

    #[test]
    #[ignore = "paper layer shapes: run in release (`--include-ignored`)"]
    fn matmul_is_bit_identical_to_the_contract_order_on_paper_layer_shapes() {
        // Host conv layers on a 16-image sub-batch: Model A's three 5×5
        // stages, Model B's 5×5-192 at 15×15 and 1×1 192→160 at 32×32,
        // and the 1×1 192→10 classifier at 7×7.
        for (m, k, n) in [
            (32, 75, 16 * 1024),
            (32, 800, 16 * 225),
            (64, 800, 16 * 49),
            (192, 2400, 16 * 225),
            (160, 192, 16 * 1024),
            (10, 192, 16 * 49),
        ] {
            assert_matches_reference_order(m, k, n);
        }
    }

    #[test]
    fn matmul_rejects_mismatched_inner_dims() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul(&a, &Tensor::zeros([3])).is_err());
    }

    #[test]
    fn transpose_products_match_explicit_transpose() {
        let a = seq([4, 6]);
        let b = seq([4, 5]);
        let at = transpose(&a).unwrap();
        let want = matmul(&at, &b).unwrap();
        let got = matmul_transpose_a(&a, &b).unwrap();
        assert_eq!(got, want);

        let c = seq([3, 6]);
        let ct = transpose(&c).unwrap();
        let want2 = matmul(&a, &ct).unwrap();
        let got2 = matmul_transpose_b(&a, &c).unwrap();
        for (x, y) in got2.iter().zip(want2.iter()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn transpose_a_is_bit_identical_to_explicit_transpose_across_block_edges() {
        // The unroll grouping in gemm_ta_kernel must mirror gemm_kernel so
        // reordered summation cannot introduce drift between the two paths.
        for (k, m, n) in [(5, 7, 3), (64, 65, 9), (130, 66, 4)] {
            let a = seq([k, m]);
            let b = seq([k, n]);
            let want = matmul(&transpose(&a).unwrap(), &b).unwrap();
            let got = matmul_transpose_a(&a, &b).unwrap();
            assert_eq!(got.as_slice(), want.as_slice(), "({k},{m},{n})");
        }
    }

    #[test]
    fn transpose_is_involution() {
        let a = seq([3, 7]);
        assert_eq!(transpose(&transpose(&a).unwrap()).unwrap(), a);
    }

    #[test]
    fn matvec_matches_matmul_column() {
        let a = seq([4, 3]);
        let x = Tensor::from_vec([3], vec![1.0, -1.0, 2.0]).unwrap();
        let xm = x.reshape([3, 1]).unwrap();
        let via_matmul = matmul(&a, &xm).unwrap();
        let via_matvec = matvec(&a, &x).unwrap();
        assert_eq!(via_matvec.as_slice(), via_matmul.as_slice());
        assert!(matvec(&a, &Tensor::zeros([4])).is_err());
    }

    #[test]
    fn dot_basic() {
        let a = Tensor::from_vec([3], vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor::from_vec([3], vec![4.0, 5.0, 6.0]).unwrap();
        assert_eq!(dot(&a, &b).unwrap(), 32.0);
        assert!(dot(&a, &Tensor::zeros([2])).is_err());
    }

    #[test]
    fn identity_is_neutral() {
        let n = 5;
        let eye = Tensor::from_fn([n, n], |i| if i / n == i % n { 1.0 } else { 0.0 });
        let a = seq([n, n]);
        assert_eq!(matmul(&eye, &a).unwrap(), a);
        assert_eq!(matmul(&a, &eye).unwrap(), a);
    }

    #[test]
    fn into_variants_reuse_buffers_and_match_allocating_paths() {
        let a = seq([5, 9]);
        let b = seq([9, 7]);
        let mut buf = Vec::new();
        let (m, n) = matmul_into(&a, &b, &mut buf).unwrap();
        assert_eq!((m, n), (5, 7));
        assert_eq!(buf.as_slice(), matmul(&a, &b).unwrap().as_slice());
        let cap = buf.capacity();

        // Smaller product into the same buffer: no reallocation.
        let c = seq([3, 9]);
        matmul_into(&c, &b, &mut buf).unwrap();
        assert_eq!(buf.capacity(), cap);
        assert_eq!(buf.as_slice(), matmul(&c, &b).unwrap().as_slice());

        let ta = seq([9, 5]);
        matmul_transpose_a_into(&ta, &b, &mut buf).unwrap();
        assert_eq!(
            buf.as_slice(),
            matmul_transpose_a(&ta, &b).unwrap().as_slice()
        );

        let tb = seq([7, 9]);
        matmul_transpose_b_into(&a, &tb, &mut buf).unwrap();
        assert_eq!(
            buf.as_slice(),
            matmul_transpose_b(&a, &tb).unwrap().as_slice()
        );
    }

    #[test]
    fn matmul_propagates_nan_through_zero_weights() {
        // Regression: the old kernel skipped a[i][k] == 0.0, so a zero
        // weight silently swallowed a NaN/inf activation.
        let a = Tensor::from_vec([1, 2], vec![0.0, 1.0]).unwrap();
        let b = Tensor::from_vec([2, 2], vec![f32::NAN, f32::INFINITY, 1.0, 2.0]).unwrap();
        let y = matmul(&a, &b).unwrap();
        assert!(y.as_slice()[0].is_nan(), "0 × NaN must propagate");
        assert!(
            y.as_slice()[1].is_nan(),
            "0 × ∞ must propagate (inf + finite stays NaN-free, 0·∞ = NaN)"
        );
    }

    #[test]
    fn matmul_transpose_a_propagates_nan_through_zero_weights() {
        let a = Tensor::from_vec([2, 1], vec![0.0, 1.0]).unwrap();
        let b = Tensor::from_vec([2, 2], vec![f32::NAN, f32::INFINITY, 1.0, 2.0]).unwrap();
        let y = matmul_transpose_a(&a, &b).unwrap();
        assert!(y.as_slice()[0].is_nan());
        assert!(y.as_slice()[1].is_nan());
    }

    #[test]
    fn matmul_transpose_b_propagates_nan_through_zero_weights() {
        let a = Tensor::from_vec([1, 2], vec![0.0, 1.0]).unwrap();
        let b = Tensor::from_vec([1, 2], vec![f32::NAN, 1.0]).unwrap();
        let y = matmul_transpose_b(&a, &b).unwrap();
        assert!(y.as_slice()[0].is_nan());
    }

    #[test]
    fn nan_rows_stay_nan_across_all_variants() {
        let a = Tensor::from_fn([3, 4], |i| if i < 4 { f32::NAN } else { 1.0 });
        let b = seq([4, 5]);
        let y = matmul(&a, &b).unwrap();
        assert!(y.as_slice()[..5].iter().all(|v| v.is_nan()));
        assert!(y.as_slice()[5..].iter().all(|v| v.is_finite()));

        let bt = seq([5, 4]);
        let yt = matmul_transpose_b(&a, &bt).unwrap();
        assert!(yt.as_slice()[..5].iter().all(|v| v.is_nan()));
        assert!(yt.as_slice()[5..].iter().all(|v| v.is_finite()));
    }
}
