//! The channel-packed block engine behind [`HardwareBnn`]'s batched paths.
//!
//! Binary activations are stored HWC and bit-packed: a pixel's channel
//! bits are contiguous, and pixels follow each other in row-major order
//! at a stride of `c` bits. When `c % 64 == 0` every pixel is `c / 64`
//! whole words, so each row of a `k × k` patch is `k·c / 64` contiguous
//! words; narrower layers pack densely and a patch row is one contiguous
//! `k·c`-bit run. Weights are permuted once, at load, from the canonical
//! `(ch, ky, kx)` conv order and CHW flatten order of the reference path
//! into this `(ky, kx, ch)` / HWC order.
//!
//! A binary dot over `fan_in` ±1 entries is `fan_in − 2·popcount(a ⊕ w)`.
//! Patches and weight rows are zero past `fan_in` bits, so the padding
//! XORs to zero and never counts; integer sums commute, so the permuted
//! order gives exactly the reference accumulation. Folded thresholds are
//! re-expressed at load as inclusive ranges on the mismatch count (or, in
//! the fixed-point first engine, on its signed partial sum), so every
//! output bit is set by two comparisons and no branch.
//!
//! The engine runs a block of up to [`IMG_BLOCK`] images through one
//! engine at a time, so every engine records one span per pass.
//!
//! [`HardwareBnn`]: crate::HardwareBnn

use mp_obs::{now_ns, Recorder};

use crate::bits::BitMatrix;
use crate::hardware::{HardwareBnn, HwStage, HwThreshold};

/// How many images one engine pass processes: the lane count of the
/// first engine's transposed integer accumulators.
pub(crate) const IMG_BLOCK: usize = 8;

/// An inclusive firing range `lo..=hi` on an engine's integer statistic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Gate {
    lo: i32,
    hi: i32,
}

impl Gate {
    /// Folds `t` (a bound on a dot product in `-reach..=reach`) into a
    /// range on the dot itself. Clamping the bound to `±(reach + 1)`
    /// keeps every comparison's outcome and makes negation safe.
    pub(crate) fn on_dot(t: HwThreshold, reach: i64) -> Self {
        let b = t.bound.clamp(-reach - 1, reach + 1) as i32;
        let edge = (reach + 1) as i32;
        if t.negate {
            Self { lo: -edge, hi: b }
        } else {
            Self { lo: b, hi: edge }
        }
    }

    /// Folds `t` into a range on the mismatch count `m` of a binary dot
    /// `fan_in − 2m`: `dot >= b` iff `m <= ⌊(fan_in − b) / 2⌋`, and
    /// `dot <= b` iff `m >= ⌈(fan_in − b) / 2⌉`.
    pub(crate) fn on_mismatches(t: HwThreshold, fan_in: usize) -> Self {
        let f = fan_in as i64;
        let d = f - t.bound.clamp(-f - 1, f + 1);
        if t.negate {
            Self {
                lo: (d + 1).div_euclid(2) as i32,
                hi: f as i32 + 1,
            }
        } else {
            Self {
                lo: -1,
                hi: d.div_euclid(2) as i32,
            }
        }
    }

    /// The same range seen through `x ↦ −x`.
    pub(crate) fn mirrored(self) -> Self {
        Self {
            lo: -self.hi,
            hi: -self.lo,
        }
    }

    /// The output bit for statistic `x`, without a branch.
    #[inline(always)]
    pub(crate) fn fires(self, x: i32) -> u64 {
        u64::from(x >= self.lo) & u64::from(x <= self.hi)
    }
}

/// Sequential bit writer position: pushes runs of up to 64 bits into a
/// word slice, storing whole words (no read–modify–write) and leaving
/// every bit above the last pushed one zero in the final word.
#[derive(Debug, Clone, Copy, Default)]
struct BitCursor {
    word: usize,
    cur: u64,
    fill: u32,
}

impl BitCursor {
    /// Appends the low `n` bits of `bits` (`1 <= n <= 64`; bits above
    /// `n` must be zero).
    #[inline(always)]
    fn push(&mut self, out: &mut [u64], bits: u64, n: u32) {
        self.cur |= bits << self.fill;
        let total = self.fill + n;
        if total >= 64 {
            out[self.word] = self.cur;
            self.word += 1;
            self.cur = if self.fill == 0 {
                0
            } else {
                bits >> (64 - self.fill)
            };
            self.fill = total - 64;
        } else {
            self.fill = total;
        }
    }

    /// Stores the trailing partial word, if any.
    #[inline(always)]
    fn finish(self, out: &mut [u64]) {
        if self.fill > 0 {
            out[self.word] = self.cur;
        }
    }
}

/// The `n` bits (`1 <= n <= 64`) of `words` starting at bit `pos`.
#[inline(always)]
fn read_bits(words: &[u64], pos: usize, n: u32) -> u64 {
    let (i, s) = (pos / 64, (pos % 64) as u32);
    let mut v = words[i] >> s;
    if s + n > 64 {
        v |= words[i + 1] << (64 - s);
    }
    v & (u64::MAX >> (64 - n))
}

/// Appends `n` bits of `src` starting at bit `pos`.
#[inline(always)]
fn copy_bits(src: &[u64], mut pos: usize, mut n: usize, out: &mut [u64], cur: &mut BitCursor) {
    while n > 0 {
        let take = n.min(64) as u32;
        cur.push(out, read_bits(src, pos, take), take);
        pos += take as usize;
        n -= take as usize;
    }
}

/// Word count of an activation run: the compile-time `PW` when it is
/// nonzero (so the kernels below unroll and drop their bounds checks),
/// else `x.len()`.
#[inline(always)]
fn width<const PW: usize>(x: &[u64]) -> usize {
    if PW > 0 {
        PW
    } else {
        x.len()
    }
}

/// Mismatch counts `popcount(row_j ⊕ x)` of four consecutive rows of
/// `rows` (each `width(x)` words) against one shared activation run.
#[inline(always)]
fn mismatches_x4<const PW: usize>(rows: &[u64], x: &[u64]) -> [i32; 4] {
    let pw = width::<PW>(x);
    let x = &x[..pw];
    let (r0, r1, r2, r3) = (
        &rows[..pw],
        &rows[pw..2 * pw],
        &rows[2 * pw..3 * pw],
        &rows[3 * pw..4 * pw],
    );
    let mut m = [0u32; 4];
    for t in 0..pw {
        let a = x[t];
        m[0] += (r0[t] ^ a).count_ones();
        m[1] += (r1[t] ^ a).count_ones();
        m[2] += (r2[t] ^ a).count_ones();
        m[3] += (r3[t] ^ a).count_ones();
    }
    m.map(|v| v as i32)
}

/// Mismatch count of one row against `x`.
#[inline(always)]
fn mismatches(row: &[u64], x: &[u64]) -> i32 {
    row.iter()
        .zip(x)
        .map(|(&w, &a)| (w ^ a).count_ones())
        .sum::<u32>() as i32
}

/// Packs a canonical weight matrix into contiguous rows of `row_words`
/// words, column `j` of the canonical row landing on bit `perm(j)`.
fn permute_rows(weights: &BitMatrix, row_words: usize, perm: impl Fn(usize) -> usize) -> Vec<u64> {
    let mut packed = vec![0u64; weights.num_rows() * row_words];
    for (r, dst) in packed.chunks_exact_mut(row_words).enumerate() {
        let row = weights.row(r);
        for j in 0..row.len() {
            if row.get(j) {
                let p = perm(j);
                dst[p / 64] |= 1 << (p % 64);
            }
        }
    }
    packed
}

/// Sets the output bits of `gates.len()` rows over one activation run,
/// 64 rows per pushed word, four rows per traversal of `x`.
#[inline(always)]
fn threshold_rows<const PW: usize>(
    weights: &[u64],
    gates: &[Gate],
    x: &[u64],
    out: &mut [u64],
    cur: &mut BitCursor,
) {
    let pw = width::<PW>(x);
    for (g, group) in gates.chunks(64).enumerate() {
        let rows = &weights[g * 64 * pw..];
        let mut bits = 0u64;
        let mut j = 0;
        while j + 4 <= group.len() {
            let m = mismatches_x4::<PW>(&rows[j * pw..(j + 4) * pw], x);
            for (l, &mm) in m.iter().enumerate() {
                bits |= group[j + l].fires(mm) << (j + l);
            }
            j += 4;
        }
        while j < group.len() {
            let m = mismatches(&rows[j * pw..(j + 1) * pw], x);
            bits |= group[j].fires(m) << j;
            j += 1;
        }
        cur.push(out, bits, group.len() as u32);
    }
}

/// The fixed-point first engine: the ±1 dot of a patch of quantised
/// pixels is `±(2·(sum over a tap subset) − (sum over all taps))`, with
/// the subset the positive- or negative-weight taps, whichever is
/// smaller (the sign folds into the mirrored gate). Pixels are stored
/// transposed (`qt[pixel][image]`), so each tap is one contiguous
/// `IMG_BLOCK`-lane integer add that vectorises across images.
#[derive(Debug, Clone)]
struct FirstConv {
    /// The raw image.
    plane: Plane,
    k: usize,
    pool: bool,
    /// Offsets of every tap relative to the window origin.
    all: Vec<usize>,
    /// Chosen-subset tap offsets, concatenated per output channel.
    taps: Vec<usize>,
    /// Range bounds into `taps` per output channel (`od + 1` entries).
    tap_start: Vec<usize>,
    /// Per-channel gates on `2·subset − total`.
    gates: Vec<Gate>,
}

impl FirstConv {
    fn new(
        weights: &BitMatrix,
        thresholds: &[HwThreshold],
        plane: Plane,
        k: usize,
        pool: bool,
    ) -> Self {
        let Plane { c, h, w } = plane;
        let mut all = Vec::with_capacity(c * k * k);
        for ch in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    all.push(ch * h * w + ky * w + kx);
                }
            }
        }
        let fan_in = all.len();
        // |q| <= 128, so every dot lies in ±fan_in·128.
        let reach = fan_in as i64 * 128;
        let (mut taps, mut tap_start, mut gates) = (Vec::new(), vec![0], Vec::new());
        for (r, &t) in thresholds.iter().enumerate() {
            let row = weights.row(r);
            let use_pos = 2 * row.count_ones() as usize <= fan_in;
            taps.extend(
                all.iter()
                    .enumerate()
                    .filter(|&(i, _)| row.get(i) == use_pos)
                    .map(|(_, &d)| d),
            );
            tap_start.push(taps.len());
            // dot = 2·pos − total = −(2·neg − total).
            let gate = Gate::on_dot(t, reach);
            gates.push(if use_pos { gate } else { gate.mirrored() });
        }
        Self {
            plane,
            k,
            pool,
            all,
            taps,
            tap_start,
            gates,
        }
    }

    fn conv_plane(&self) -> Plane {
        Plane {
            c: self.gates.len(),
            h: self.plane.h - self.k + 1,
            w: self.plane.w - self.k + 1,
        }
    }

    fn out_plane(&self) -> Plane {
        self.conv_plane().pooled(self.pool)
    }

    /// One pass over `b <= IMG_BLOCK` raw `C·H·W` images, writing image
    /// `i`'s packed output at `out[i * stride..]`.
    fn run(&self, images: &[f32], b: usize, qt: &mut Vec<i32>, out: &mut [u64], stride: usize) {
        let Plane { c, h, w } = self.plane;
        let image_len = c * h * w;
        qt.clear();
        qt.resize(image_len * IMG_BLOCK, 0);
        for (i, src) in images.chunks_exact(image_len).take(b).enumerate() {
            for (p, &x) in src.iter().enumerate() {
                qt[p * IMG_BLOCK + i] = HardwareBnn::quantize_pixel(x) as i32;
            }
        }
        let op = self.conv_plane();
        let mut cursors = [BitCursor::default(); IMG_BLOCK];
        for (i, cur) in cursors.iter_mut().enumerate().take(b) {
            cur.word = i * stride;
        }
        let lanes = |d: usize, p0: usize, acc: &mut [i32; IMG_BLOCK]| {
            let src = &qt[(p0 + d) * IMG_BLOCK..][..IMG_BLOCK];
            for (a, &x) in acc.iter_mut().zip(src) {
                *a += x;
            }
        };
        for oy in 0..op.h {
            for ox in 0..op.w {
                let p0 = oy * w + ox;
                let mut total = [0; IMG_BLOCK];
                for &d in &self.all {
                    lanes(d, p0, &mut total);
                }
                for (g, group) in self.gates.chunks(64).enumerate() {
                    let mut bits = [0u64; IMG_BLOCK];
                    for (j, &gate) in group.iter().enumerate() {
                        let oc = g * 64 + j;
                        let taps = &self.taps[self.tap_start[oc]..self.tap_start[oc + 1]];
                        let mut sum = [0; IMG_BLOCK];
                        for &d in taps {
                            lanes(d, p0, &mut sum);
                        }
                        for ((bw, &s), &t) in bits.iter_mut().zip(&sum).zip(&total) {
                            *bw |= gate.fires(2 * s - t) << j;
                        }
                    }
                    for (cur, &bw) in cursors.iter_mut().zip(&bits).take(b) {
                        cur.push(out, bw, group.len() as u32);
                    }
                }
            }
        }
        for cur in cursors.into_iter().take(b) {
            cur.finish(out);
        }
    }
}

/// Spatial shape of one packed activation tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Plane {
    c: usize,
    h: usize,
    w: usize,
}

impl Plane {
    fn words(self) -> usize {
        (self.c * self.h * self.w).div_ceil(64)
    }

    /// The plane after an optional 2×2 pool.
    fn pooled(self, pool: bool) -> Self {
        if pool {
            Self {
                h: self.h / 2,
                w: self.w / 2,
                ..self
            }
        } else {
            self
        }
    }
}

/// An inner binary convolution engine, optionally followed by a 2×2
/// OR-pool.
#[derive(Debug, Clone)]
struct BinConv {
    input: Plane,
    k: usize,
    pool: bool,
    /// `od` rows of `patch_words` words in `(ky, kx, ch)` bit order.
    weights: Vec<u64>,
    gates: Vec<Gate>,
}

impl BinConv {
    fn new(
        weights: &BitMatrix,
        thresholds: &[HwThreshold],
        input: Plane,
        k: usize,
        pool: bool,
    ) -> Self {
        let c = input.c;
        let fan_in = c * k * k;
        let patch_words = fan_in.div_ceil(64);
        // Canonical column ch·k² + ky·k + kx → bit (ky·k + kx)·c + ch.
        let weights = permute_rows(weights, patch_words, |j| {
            let (ch, tap) = (j / (k * k), j % (k * k));
            tap * c + ch
        });
        let gates = thresholds
            .iter()
            .map(|&t| Gate::on_mismatches(t, fan_in))
            .collect();
        Self {
            input,
            k,
            pool,
            weights,
            gates,
        }
    }

    fn conv_plane(&self) -> Plane {
        Plane {
            c: self.gates.len(),
            h: self.input.h - self.k + 1,
            w: self.input.w - self.k + 1,
        }
    }

    fn out_plane(&self) -> Plane {
        self.conv_plane().pooled(self.pool)
    }

    fn patch_words(&self) -> usize {
        (self.input.c * self.k * self.k).div_ceil(64)
    }

    /// Convolves one packed image `src` into `dst`, with the patch width
    /// fixed at compile time for the paper network's layers.
    fn run(&self, src: &[u64], dst: &mut [u64], patch: &mut [u64]) {
        match self.patch_words() {
            9 => self.run_with::<9>(src, dst, patch),
            18 => self.run_with::<18>(src, dst, patch),
            36 => self.run_with::<36>(src, dst, patch),
            _ => self.run_with::<0>(src, dst, patch),
        }
    }

    #[inline(always)]
    fn run_with<const PW: usize>(&self, src: &[u64], dst: &mut [u64], patch: &mut [u64]) {
        let Plane { c, w, .. } = self.input;
        let k = self.k;
        let op = self.conv_plane();
        let row_bits = k * c;
        let patch = &mut patch[..self.patch_words()];
        let mut cur = BitCursor::default();
        for oy in 0..op.h {
            for ox in 0..op.w {
                if c.is_multiple_of(64) {
                    let rw = row_bits / 64;
                    for (ky, dst_row) in patch.chunks_exact_mut(rw).enumerate() {
                        let at = ((oy + ky) * w + ox) * (c / 64);
                        dst_row.copy_from_slice(&src[at..at + rw]);
                    }
                } else {
                    let mut pc = BitCursor::default();
                    for ky in 0..k {
                        copy_bits(src, ((oy + ky) * w + ox) * c, row_bits, patch, &mut pc);
                    }
                    pc.finish(patch);
                }
                threshold_rows::<PW>(&self.weights, &self.gates, patch, dst, &mut cur);
            }
        }
        cur.finish(dst);
    }
}

/// 2×2 OR-pooling of one packed `plane` (`max` of ±1 values is the OR
/// of their bits), channel runs at a time.
fn or_pool(src: &[u64], plane: Plane, dst: &mut [u64]) {
    let Plane { c, h, w } = plane;
    let mut cur = BitCursor::default();
    for py in 0..h / 2 {
        for px in 0..w / 2 {
            let p00 = 2 * py * w + 2 * px;
            let corners = [p00, p00 + 1, p00 + w, p00 + w + 1];
            if c.is_multiple_of(64) {
                let cw = c / 64;
                for t in 0..cw {
                    let v = corners.iter().fold(0, |v, &p| v | src[p * cw + t]);
                    cur.push(dst, v, 64);
                }
            } else {
                let mut ch = 0;
                while ch < c {
                    let n = (c - ch).min(64) as u32;
                    let v = corners
                        .iter()
                        .fold(0, |v, &p| v | read_bits(src, p * c + ch, n));
                    cur.push(dst, v, n);
                    ch += n as usize;
                }
            }
        }
    }
    cur.finish(dst);
}

/// A binary FC engine over a packed HWC input of `fan_in` bits.
#[derive(Debug, Clone)]
struct BinFc {
    fan_in: usize,
    /// Rows of `fan_in.div_ceil(64)` words in HWC bit order.
    weights: Vec<u64>,
    /// Thresholded engines: one gate per row. Output engine: empty.
    gates: Vec<Gate>,
}

impl BinFc {
    fn new(weights: &BitMatrix, input: Plane, thresholds: Option<&[HwThreshold]>) -> Self {
        let fan_in = weights.num_cols();
        let Plane { c, h, w } = input;
        // Canonical CHW column ch·h·w + p → HWC bit p·c + ch.
        let weights = permute_rows(weights, fan_in.div_ceil(64), |j| {
            let (ch, p) = (j / (h * w), j % (h * w));
            p * c + ch
        });
        let gates = thresholds
            .unwrap_or_default()
            .iter()
            .map(|&t| Gate::on_mismatches(t, fan_in))
            .collect();
        Self {
            fan_in,
            weights,
            gates,
        }
    }

    fn out_plane(&self) -> Plane {
        Plane {
            c: self.gates.len(),
            h: 1,
            w: 1,
        }
    }

    /// Thresholded rows of one packed input into packed output bits.
    fn run(&self, src: &[u64], dst: &mut [u64]) {
        let x = &src[..self.fan_in.div_ceil(64)];
        let mut cur = BitCursor::default();
        threshold_rows::<0>(&self.weights, &self.gates, x, dst, &mut cur);
        cur.finish(dst);
    }

    /// The first `classes` integer scores of one packed input.
    fn scores(&self, src: &[u64], classes: usize, out: &mut Vec<f32>) {
        let pw = self.fan_in.div_ceil(64);
        let x = &src[..pw];
        out.extend(
            self.weights
                .chunks_exact(pw)
                .take(classes)
                .map(|row| (self.fan_in as i32 - 2 * mismatches(row, x)) as f32),
        );
    }
}

#[derive(Debug, Clone)]
enum Engine {
    Conv(BinConv),
    Fc(BinFc),
}

/// The whole packed network: the first engine, the binary engines after
/// it, and the accumulate-only output engine.
#[derive(Debug, Clone)]
pub(crate) struct PackedNet {
    first: FirstConv,
    inner: Vec<Engine>,
    output: BinFc,
    classes: usize,
    /// Per-image word stride of the activation buffers: the widest
    /// packed activation of any engine.
    stride: usize,
    /// Widest conv patch, in words.
    patch_words: usize,
}

impl PackedNet {
    /// Permutes a validated stage list (first conv first, output engine
    /// last, shapes matching the `(c, h, w)` input) into the packed
    /// engine.
    pub(crate) fn new(stages: &[HwStage], input: (usize, usize, usize), classes: usize) -> Self {
        let (c, h, w) = input;
        let mut plane = Plane { c, h, w };
        let mut stride = 0;
        let mut patch_words = 0;
        let mut first = None;
        let mut inner = Vec::new();
        let mut output = None;
        for stage in stages {
            match stage {
                HwStage::FirstConv {
                    weights,
                    thresholds,
                    kernel,
                    pool,
                    ..
                } => {
                    let conv = FirstConv::new(weights, thresholds, plane, *kernel, *pool);
                    stride = stride.max(conv.conv_plane().words());
                    plane = conv.out_plane();
                    first = Some(conv);
                }
                HwStage::BinConv {
                    weights,
                    thresholds,
                    kernel,
                    pool,
                    ..
                } => {
                    let conv = BinConv::new(weights, thresholds, plane, *kernel, *pool);
                    stride = stride.max(conv.conv_plane().words());
                    patch_words = patch_words.max(conv.patch_words());
                    plane = conv.out_plane();
                    inner.push(Engine::Conv(conv));
                }
                HwStage::BinFc {
                    weights,
                    thresholds,
                } => {
                    let fc = BinFc::new(weights, plane, Some(thresholds));
                    plane = fc.out_plane();
                    stride = stride.max(plane.words());
                    inner.push(Engine::Fc(fc));
                }
                HwStage::OutputFc { weights } => output = Some(BinFc::new(weights, plane, None)),
            }
        }
        Self {
            first: first.expect("validated: the first engine is the fixed-point conv"),
            inner,
            output: output.expect("validated: the last engine is the output engine"),
            classes,
            stride,
            patch_words,
        }
    }

    /// Runs raw `C·H·W` images through the network in passes of up to
    /// [`IMG_BLOCK`] images, appending `classes` float scores per image
    /// to `out`. Scratch lives in `ctx`, so repeated calls on one context
    /// are allocation-free in steady state. With `obs` present, every
    /// engine pass is recorded as one span under the engine's name.
    pub(crate) fn infer(
        &self,
        images: &[f32],
        ctx: &mut BlockScratch,
        obs: Option<(&dyn Recorder, &[String])>,
        out: &mut Vec<f32>,
    ) {
        let image_len = self.first.plane.c * self.first.plane.h * self.first.plane.w;
        let s = self.stride;
        let BlockScratch {
            qt,
            cur,
            next,
            patch,
        } = ctx;
        cur.resize(IMG_BLOCK * s, 0);
        next.resize(IMG_BLOCK * s, 0);
        patch.resize(self.patch_words, 0);
        out.reserve(images.len() / image_len * self.classes);
        let record = |stage: usize, start: Option<u64>| {
            if let (Some((rec, names)), Some(start)) = (obs, start) {
                rec.record_span(&names[stage], start, now_ns());
            }
        };
        for block in images.chunks(IMG_BLOCK * image_len) {
            let b = block.len() / image_len;
            let t = obs.map(|_| now_ns());
            self.first.run(block, b, qt, cur, s);
            if self.first.pool {
                pool_block(cur, next, self.first.conv_plane(), b, s);
            }
            record(0, t);
            for (e, engine) in self.inner.iter().enumerate() {
                let t = obs.map(|_| now_ns());
                let pairs = cur.chunks_exact(s).zip(next.chunks_exact_mut(s)).take(b);
                match engine {
                    Engine::Conv(conv) => {
                        for (src, dst) in pairs {
                            conv.run(src, dst, patch);
                        }
                        std::mem::swap(cur, next);
                        if conv.pool {
                            pool_block(cur, next, conv.conv_plane(), b, s);
                        }
                    }
                    Engine::Fc(fc) => {
                        for (src, dst) in pairs {
                            fc.run(src, dst);
                        }
                        std::mem::swap(cur, next);
                    }
                }
                record(e + 1, t);
            }
            let t = obs.map(|_| now_ns());
            for src in cur.chunks_exact(s).take(b) {
                self.output.scores(src, self.classes, out);
            }
            record(self.inner.len() + 1, t);
        }
    }
}

/// OR-pools `b` packed images of `cur` (each a `plane`) and leaves the
/// pooled images in `cur`.
fn pool_block(cur: &mut Vec<u64>, next: &mut Vec<u64>, plane: Plane, b: usize, s: usize) {
    for (src, dst) in cur.chunks_exact(s).zip(next.chunks_exact_mut(s)).take(b) {
        or_pool(src, plane, dst);
    }
    std::mem::swap(cur, next);
}

/// Reusable per-thread scratch of the packed engine.
#[derive(Debug, Default)]
pub(crate) struct BlockScratch {
    /// The first engine's transposed pixel lanes.
    qt: Vec<i32>,
    /// Packed activations of the block, `stride` words per image.
    cur: Vec<u64>,
    /// The next engine's packed activations (swapped with `cur`).
    next: Vec<u64>,
    /// One assembled conv patch.
    patch: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// splitmix64: a deterministic word stream without an RNG dependency.
    fn words(seed: u64, n: usize) -> Vec<u64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            })
            .collect()
    }

    fn bit(words: &[u64], pos: usize) -> bool {
        words[pos / 64] >> (pos % 64) & 1 == 1
    }

    #[test]
    fn cursor_writes_and_reader_reads_runs_across_word_boundaries() {
        let lens: Vec<u32> = (1..=64).chain([64, 3, 61, 64, 1]).collect();
        let total: usize = lens.iter().map(|&n| n as usize).sum();
        let src = words(1, lens.len());
        let mut out = vec![u64::MAX; total.div_ceil(64)];
        let mut cur = BitCursor::default();
        for (&n, &v) in lens.iter().zip(&src) {
            cur.push(&mut out, v & (u64::MAX >> (64 - n)), n);
        }
        cur.finish(&mut out);
        // Bits above the last pushed one are zero, not stale.
        assert!(total.is_multiple_of(64) || out[total / 64] >> (total % 64) == 0);
        let mut pos = 0;
        for (&n, &v) in lens.iter().zip(&src) {
            assert_eq!(read_bits(&out, pos, n), v & (u64::MAX >> (64 - n)), "n={n}");
            pos += n as usize;
        }
    }

    #[test]
    fn copy_bits_moves_any_run() {
        let src = words(2, 8);
        for (pos, n) in [(0usize, 512usize), (3, 200), (63, 65), (100, 1), (7, 128)] {
            let mut out = vec![0; n.div_ceil(64)];
            let mut cur = BitCursor::default();
            copy_bits(&src, pos, n, &mut out, &mut cur);
            cur.finish(&mut out);
            for i in 0..n {
                assert_eq!(bit(&out, i), bit(&src, pos + i), "pos={pos} n={n} i={i}");
            }
        }
    }

    #[test]
    fn or_pool_ors_each_channel_over_2x2_windows() {
        // Odd extents drop the last row and column, as the reference does.
        for (c, h, w) in [(8, 5, 7), (21, 4, 4), (64, 3, 5), (85, 6, 3), (128, 2, 2)] {
            let plane = Plane { c, h, w };
            let src = words(c as u64, plane.words());
            let mut dst = vec![0; plane.pooled(true).words()];
            or_pool(&src, plane, &mut dst);
            let (oh, ow) = (h / 2, w / 2);
            for py in 0..oh {
                for px in 0..ow {
                    for ch in 0..c {
                        let want = [(0, 0), (0, 1), (1, 0), (1, 1)]
                            .iter()
                            .any(|&(dy, dx)| bit(&src, ((2 * py + dy) * w + 2 * px + dx) * c + ch));
                        assert_eq!(
                            bit(&dst, (py * ow + px) * c + ch),
                            want,
                            "c={c} {py},{px},{ch}"
                        );
                    }
                }
            }
        }
    }
}
