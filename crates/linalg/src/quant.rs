//! Int8 symmetric quantization and the packed-panel int8 GEMM.
//!
//! The quantized inference fast lane (DESIGN.md §13) stores matcher
//! weights as `i8` with per-row scales and runs the Score-stage product
//! in integer arithmetic: `i8 x i8 -> i32` accumulation is **exact**, so
//! unlike the f32 kernels there is nothing to keep bit-stable across
//! blocking or dispatch — every execution strategy produces the same
//! `i32` sums, and the only float work is the final per-element rescale.
//!
//! The GEMM mirrors the structure of [`crate::ops`]: the RHS is packed
//! into 16-wide panels (quad-interleaved along the shared dimension,
//! see [`PackedI8Rhs`]), an [`MR`]`x16` register micro-kernel
//! accumulates over the full shared dimension, runtime feature
//! detection picks the best of three tiers — AVX-512 VNNI (`vpdpbusd`,
//! 64 MACs per instruction via an unsigned-activation zero-point
//! shift), AVX2 (`vpmaddwd`), or the scalar body — and large products
//! shard output rows across the [`crate::runtime`] worker pool.
//! Weights that multiply many batches are packed once via
//! [`PackedI8Rhs::pack`] + [`i8_matmul_t_packed`], and the per-batch
//! activation quantization is itself AVX-512-vectorized.

use crate::matrix::Matrix;
use crate::ops::{MR, PAR_FLOP_CUTOFF};
use crate::runtime;
use std::ops::Range;

/// Minimum output rows per shard for parallel int8 products (matches
/// the f32 kernels in `ops.rs`).
const MIN_ROWS_PER_SHARD: usize = 8;

/// Maximum quantized magnitude. Symmetric range `[-127, 127]` keeps
/// `-q` representable for every `q`, so negation never saturates.
pub const Q_MAX: f32 = 127.0;

/// A row-major `i8` matrix with one symmetric scale per row:
/// `f32_value ≈ data[r * cols + c] as f32 * scales[r]`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    data: Vec<i8>,
    scales: Vec<f32>,
}

/// Symmetric scale covering `max_abs`: the largest magnitude maps to
/// [`Q_MAX`]. Degenerate inputs (all-zero, empty, or non-finite ranges)
/// fall back to scale `1.0` so dequantization stays well-defined.
pub fn scale_for_max_abs(max_abs: f32) -> f32 {
    if max_abs.is_finite() && max_abs > 0.0 {
        max_abs / Q_MAX
    } else {
        1.0
    }
}

/// Largest finite absolute value in `m` (0.0 when empty or all-NaN) —
/// the activation-range statistic used for per-layer calibration.
pub fn max_abs(m: &Matrix) -> f32 {
    m.as_slice()
        .iter()
        .map(|v| v.abs())
        .filter(|v| v.is_finite())
        .fold(0.0f32, f32::max)
}

#[inline]
fn quantize_value(v: f32, inv_scale: f32) -> i8 {
    // NaN fails both comparisons and maps to 0; the clamp makes the
    // saturating `as` cast explicit.
    let q = (v * inv_scale).round();
    if q >= Q_MAX {
        127
    } else if q <= -Q_MAX {
        -127
    } else {
        q as i8
    }
}

/// Applies [`quantize_value`] to a slice, taking the AVX-512 lane when
/// the CPU has it. Element-identical to the scalar loop for every
/// input, including NaN (→ 0), infinities (→ ±127), and exact `.5`
/// boundaries (`f32::round` rounds half away from zero; the vector
/// path emulates that with a `copysign(0.5)` add before truncation).
///
/// # Panics
/// If `src` and `out` lengths differ. The AVX-512 lane derives its
/// store offsets from `src.len()`, so the check must hold in release
/// builds, not just under `debug_assertions`.
fn quantize_slice(src: &[f32], inv_scale: f32, out: &mut [i8]) {
    assert_eq!(
        src.len(),
        out.len(),
        "quantize_slice: src/out length mismatch"
    );
    #[allow(unused_mut)]
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: guarded by runtime CPU feature detection; the callee
        // reads/writes only full 16-lane chunks within `src`/`out` and
        // reports how many elements it covered.
        done = unsafe { quantize_slice_avx512(src, inv_scale, out) };
    }
    for (o, &v) in out[done..].iter_mut().zip(&src[done..]) {
        *o = quantize_value(v, inv_scale);
    }
}

/// AVX-512 instantiation of [`quantize_slice`] over the largest
/// 16-lane prefix; returns how many elements were quantized. Per
/// chunk: multiply by the inverse scale, add `copysign(0.5, v)` and
/// truncate (= round half away from zero, exactly `f32::round` — the
/// 0.5 add is exact below the clamp range because `v` and `v + 0.5`
/// share a binade step), clamp, and saturating-narrow to `i8`. NaN
/// lanes are zeroed through the ordered-compare mask, matching the
/// scalar path's NaN → 0.
// SAFETY: callable only when the CPU supports AVX-512F —
// `quantize_slice` is the sole caller and gates on
// `is_x86_feature_detected!("avx512f")`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn quantize_slice_avx512(src: &[f32], inv_scale: f32, out: &mut [i8]) -> usize {
    use std::arch::x86_64::*;
    const LANES: usize = 16;
    let n = src.len() / LANES * LANES;
    // SAFETY: every load reads 16 f32 at `i <= n - 16` and every store
    // writes 16 bytes at the same offset; `out.len() == src.len() >= n`.
    unsafe {
        let inv = _mm512_set1_ps(inv_scale);
        let half = _mm512_set1_ps(0.5);
        let signbit = _mm512_set1_ps(-0.0);
        // Float clamp wide enough to never touch in-range values but
        // keep ±inf finite before the int conversion.
        let lim = _mm512_set1_ps(130.0);
        let neg_lim = _mm512_set1_ps(-130.0);
        let qmax = _mm512_set1_epi32(127);
        let qmin = _mm512_set1_epi32(-127);
        let mut i = 0;
        while i < n {
            let v = _mm512_mul_ps(_mm512_loadu_ps(src.as_ptr().add(i)), inv);
            let ord = _mm512_cmp_ps_mask::<_CMP_ORD_Q>(v, v);
            let magic = _mm512_or_ps(_mm512_and_ps(v, signbit), half);
            let r = _mm512_min_ps(_mm512_max_ps(_mm512_add_ps(v, magic), neg_lim), lim);
            let q = _mm512_maskz_cvttps_epi32(ord, r);
            let q = _mm512_min_epi32(_mm512_max_epi32(q, qmin), qmax);
            _mm_storeu_si128(out.as_mut_ptr().add(i).cast(), _mm512_cvtsepi32_epi8(q));
            i += LANES;
        }
    }
    n
}

impl QuantizedMatrix {
    /// Quantizes `m` with one symmetric scale per **row** (the right
    /// granularity for weight matrices stored as `out x in`: each output
    /// channel gets its own scale).
    pub fn quantize_per_row(m: &Matrix) -> QuantizedMatrix {
        let (rows, cols) = m.shape();
        let mut data = Vec::with_capacity(rows * cols);
        let mut scales = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = m.row(r);
            let s = scale_for_max_abs(
                row.iter()
                    .map(|v| v.abs())
                    .filter(|v| v.is_finite())
                    .fold(0.0, f32::max),
            );
            let inv = 1.0 / s;
            data.extend(row.iter().map(|&v| quantize_value(v, inv)));
            scales.push(s);
        }
        QuantizedMatrix {
            rows,
            cols,
            data,
            scales,
        }
    }

    /// Quantizes `m` with a single shared scale for every row — used for
    /// activations, whose scale comes from offline calibration rather
    /// than the tensor being quantized. Non-finite or non-positive
    /// scales fall back to `1.0`. This is the per-batch cost of the
    /// int8 fast lane, so it is AVX-512-vectorized where available
    /// (element-identical to [`quantize_value`] by construction).
    pub fn quantize_uniform(m: &Matrix, scale: f32) -> QuantizedMatrix {
        let (rows, cols) = m.shape();
        let s = if scale.is_finite() && scale > 0.0 {
            scale
        } else {
            1.0
        };
        let inv = 1.0 / s;
        let mut data = vec![0i8; rows * cols];
        quantize_slice(m.as_slice(), inv, &mut data);
        QuantizedMatrix {
            rows,
            cols,
            data,
            scales: vec![s; rows],
        }
    }

    /// Reconstructs the f32 matrix `data[r][c] * scales[r]`.
    pub fn dequantize(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let s = self.scales[r];
            for (o, &q) in out.row_mut(r).iter_mut().zip(self.row(r)) {
                *o = q as f32 * s;
            }
        }
        out
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// One quantized row.
    ///
    /// # Panics
    /// Panics when `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[i8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Per-row symmetric scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }
}

/// Panel width of the int8 GEMM: output columns per packed panel.
/// Sixteen, one `i32` accumulator register's worth for the AVX-512 VNNI
/// micro-kernel; it shares only [`MR`] with the f32 tile, whose panels
/// are [`NR`](crate::NR) columns wide.
const NR_I8: usize = 16;

/// Shared-dim positions interleaved per packed block — `vpdpbusd`
/// consumes activation/weight bytes in groups of four.
const QUAD: usize = 4;

/// A weight matrix packed once for repeated int8 products:
/// [`NR_I8`]-wide column panels with the shared dimension interleaved
/// in **quads**, so one 64-byte block is exactly the `vpdpbusd` operand
/// for sixteen columns — `packed[t*stride + (p/4)*4*NR_I8 + 4*l + (p%4)]
/// = w[t*NR_I8 + l][p]` with `stride = ceil(k/4)*4*NR_I8`. Ragged `k`
/// and ragged panels are zero-padded; zeros contribute nothing to the
/// integer sums. Build one with [`PackedI8Rhs::pack`] when the same
/// weights multiply many activation batches (the quantized matcher
/// packs each layer once at calibration).
#[derive(Debug, Clone)]
pub struct PackedI8Rhs {
    packed: Vec<i8>,
    /// Output columns (`w.rows()`: one output channel per weight row).
    n: usize,
    /// Shared dimension (`w.cols()`).
    k: usize,
    /// Per-output-channel scales, copied from the quantized weights.
    scales: Vec<f32>,
    /// `128 * Σ_p w[col][p]` per panel-padded output column: the
    /// zero-point correction the VNNI kernel subtracts after running
    /// activations as `u8 = i8 + 128` (padding columns stay 0).
    colsum128: Vec<i32>,
}

impl PackedI8Rhs {
    /// Packs quantized weight rows (`n x k`, one output channel per
    /// row) into panel form.
    pub fn pack(w: &QuantizedMatrix) -> PackedI8Rhs {
        let (n, k) = (w.rows, w.cols);
        let panels = n.div_ceil(NR_I8).max(1);
        let stride = k.div_ceil(QUAD) * QUAD * NR_I8;
        let mut packed = vec![0i8; panels * stride];
        let mut colsum128 = vec![0i32; panels * NR_I8];
        for t in 0..panels {
            let j0 = t * NR_I8;
            let nv = NR_I8.min(n.saturating_sub(j0));
            let base = t * stride;
            for l in 0..nv {
                let src = w.row(j0 + l);
                let mut sum = 0i32;
                for (p, &v) in src.iter().enumerate() {
                    packed[base + (p / QUAD) * QUAD * NR_I8 + QUAD * l + (p % QUAD)] = v;
                    sum += v as i32;
                }
                colsum128[j0 + l] = sum * 128;
            }
        }
        PackedI8Rhs {
            packed,
            n,
            k,
            scales: w.scales.clone(),
            colsum128,
        }
    }

    /// Output columns of the packed product.
    pub fn out_cols(&self) -> usize {
        self.n
    }

    /// Shared dimension the activations must match.
    pub fn shared_dim(&self) -> usize {
        self.k
    }
}

/// The `MR x NR_I8` integer micro-kernel over one quad-interleaved
/// panel: `acc[m][l] += Σ_p staged[m][p] as i32 * w[col l][p] as i32`.
/// `staged` holds `MR` zero-padded activation rows of `kp` bytes each
/// (`kp` a multiple of [`QUAD`]); `mr` rows are live. Integer
/// accumulation is exact, so the order of additions is irrelevant for
/// correctness — the SIMD tiers below exist purely for speed and are
/// bit-identical to the scalar body by construction.
///
/// # Panics
/// If any slice is shorter than the `MR`/`NR_I8`/`kp` layout contract
/// requires, or `kp` is not a multiple of [`QUAD`]. The unsafe SIMD
/// tiers justify their raw loads against exactly these bounds, so the
/// checks are enforced at this dispatch boundary in release builds
/// (the tiers themselves keep `debug_assert!` restatements only).
fn i8_microkernel(
    staged: &[i8],
    kp: usize,
    mr: usize,
    panel: &[i8],
    colsum128: &[i32],
    acc: &mut [[i32; NR_I8]; MR],
) {
    assert!(
        panel.len() >= kp * NR_I8,
        "i8_microkernel: panel must hold kp x NR_I8 quad-interleaved bytes"
    );
    assert!(
        staged.len() >= MR * kp && kp.is_multiple_of(QUAD),
        "i8_microkernel: staged must hold MR zero-padded rows of quad-padded kp bytes"
    );
    assert!(
        colsum128.len() >= NR_I8,
        "i8_microkernel: colsum128 needs one +128-shift correction per column"
    );
    #[cfg(target_arch = "x86_64")]
    if mr == MR {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vnni")
        {
            // SAFETY: guarded by runtime CPU feature detection; the
            // callee's pointer arithmetic stays inside `staged`/`panel`/
            // `colsum128`/`acc`, whose lengths the caller guarantees
            // (see its SAFETY comments).
            unsafe { i8_microkernel_vnni(staged, kp, panel, colsum128, acc) };
            return;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: as above — AVX2 detected at runtime, bounds
            // guaranteed by the caller.
            unsafe { i8_microkernel_avx2(staged, kp, panel, acc) };
            return;
        }
    }
    i8_microkernel_body(staged, kp, mr, panel, acc);
}

/// AVX-512 VNNI instantiation: one 64-byte panel block is the whole
/// sixteen-column operand, activations ride as `u8 = i8 + 128` (a sign
/// bit flip), and `vpdpbusd` fuses four multiplies and the horizontal
/// add per output lane — 64 MACs per instruction. The constant
/// `128 * Σ_p w[col][p]` that the shift introduces is subtracted once
/// per tile from the precomputed `colsum128`, restoring the exact
/// signed sums: every bit identical to the scalar body. `i32`
/// accumulation cannot overflow below `k ≈ 2^31 / (255·127) ≈ 66k`,
/// far beyond any matcher layer width.
// SAFETY: callable only when the CPU supports AVX-512F + AVX-512 VNNI —
// `i8_microkernel` is the sole caller and gates on
// `is_x86_feature_detected!` for both features.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
fn i8_microkernel_vnni(
    staged: &[i8],
    kp: usize,
    panel: &[i8],
    colsum128: &[i32],
    acc: &mut [[i32; NR_I8]; MR],
) {
    use std::arch::x86_64::*;
    debug_assert!(panel.len() >= kp * NR_I8);
    debug_assert!(staged.len() >= MR * kp && kp.is_multiple_of(QUAD));
    debug_assert!(colsum128.len() >= NR_I8);
    // SAFETY: `acc` rows are `[i32; 16]` — exactly one unaligned 512-bit
    // load/store each; panel block `bq` spans bytes `[bq*64, bq*64+64)`,
    // in bounds by the first debug_assert (the packer allocates
    // `kp * NR_I8` bytes per panel); the 4-byte activation reads end at
    // `m*kp + kp <= MR*kp <= staged.len()`.
    unsafe {
        let mut acc0 = _mm512_loadu_si512(acc[0].as_ptr().cast());
        let mut acc1 = _mm512_loadu_si512(acc[1].as_ptr().cast());
        let mut acc2 = _mm512_loadu_si512(acc[2].as_ptr().cast());
        let mut acc3 = _mm512_loadu_si512(acc[3].as_ptr().cast());
        let base = staged.as_ptr();
        for bq in 0..kp / QUAD {
            let bvec = _mm512_loadu_si512(panel.as_ptr().add(bq * QUAD * NR_I8).cast());
            let quad = |m: usize| -> i32 {
                // Four consecutive i8 activations as one little-endian
                // u32, sign bits flipped: bytewise `i8 + 128` into u8.
                (base.add(m * kp + bq * QUAD).cast::<u32>().read_unaligned() ^ 0x8080_8080) as i32
            };
            acc0 = _mm512_dpbusd_epi32(acc0, _mm512_set1_epi32(quad(0)), bvec);
            acc1 = _mm512_dpbusd_epi32(acc1, _mm512_set1_epi32(quad(1)), bvec);
            acc2 = _mm512_dpbusd_epi32(acc2, _mm512_set1_epi32(quad(2)), bvec);
            acc3 = _mm512_dpbusd_epi32(acc3, _mm512_set1_epi32(quad(3)), bvec);
        }
        // Undo the +128 activation shift: padded positions multiplied
        // zero weights, so the correction is exactly `128·Σ w`.
        let corr = _mm512_loadu_si512(colsum128.as_ptr().cast());
        _mm512_storeu_si512(acc[0].as_mut_ptr().cast(), _mm512_sub_epi32(acc0, corr));
        _mm512_storeu_si512(acc[1].as_mut_ptr().cast(), _mm512_sub_epi32(acc1, corr));
        _mm512_storeu_si512(acc[2].as_mut_ptr().cast(), _mm512_sub_epi32(acc2, corr));
        _mm512_storeu_si512(acc[3].as_mut_ptr().cast(), _mm512_sub_epi32(acc3, corr));
    }
}

/// AVX2 instantiation for pre-VNNI hardware: 16-byte sub-blocks
/// sign-extend to sixteen `i16` (`vpmovsxbw`) and `vpmaddwd` fuses
/// pairs of multiplies; each activation quad rides as four `i16` in a
/// broadcast `i64`, leaving the per-column sum split across two `i32`
/// lanes that are combined scalar at the end. Products max out at
/// `127²`, so the `i16` pair-sums in `vpmaddwd` cannot saturate —
/// bit-identical to the scalar body.
// SAFETY: callable only when the CPU supports AVX2 — `i8_microkernel`
// is the sole caller and gates on `is_x86_feature_detected!("avx2")`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn i8_microkernel_avx2(staged: &[i8], kp: usize, panel: &[i8], acc: &mut [[i32; NR_I8]; MR]) {
    use std::arch::x86_64::*;
    debug_assert!(panel.len() >= kp * NR_I8);
    debug_assert!(staged.len() >= MR * kp && kp.is_multiple_of(QUAD));
    // SAFETY: per block `bq` and half `h`, the two 16-byte loads span
    // `[bq*64 + 32h, bq*64 + 32h + 32)` of `panel`, in bounds by the
    // debug_asserts; activation reads are as in the VNNI kernel; the
    // split-accumulator stores target a local stack array.
    unsafe {
        let base = staged.as_ptr();
        // Two passes of eight columns each keep the live register count
        // at 8 split accumulators + 2 panel vectors + 1 broadcast.
        for half in 0..2 {
            let hoff = half * 2 * NR_I8;
            let mut accs = [[_mm256_setzero_si256(); 2]; MR];
            for bq in 0..kp / QUAD {
                let bbase = panel.as_ptr().add(bq * QUAD * NR_I8 + hoff);
                let b0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(bbase.cast()));
                let b1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(bbase.add(16).cast()));
                for (m, accm) in accs.iter_mut().enumerate() {
                    let aq = base.add(m * kp + bq * QUAD);
                    // The quad as four sign-extended i16 in one i64,
                    // broadcast so vpmaddwd pairs (a0,a1) and (a2,a3)
                    // against each column's interleaved weights.
                    let a16 = (aq.read() as i16 as u16 as u64)
                        | ((aq.add(1).read() as i16 as u16 as u64) << 16)
                        | ((aq.add(2).read() as i16 as u16 as u64) << 32)
                        | ((aq.add(3).read() as i16 as u16 as u64) << 48);
                    let avec = _mm256_set1_epi64x(a16 as i64);
                    accm[0] = _mm256_add_epi32(accm[0], _mm256_madd_epi16(avec, b0));
                    accm[1] = _mm256_add_epi32(accm[1], _mm256_madd_epi16(avec, b1));
                }
            }
            for (m, accm) in accs.iter().enumerate() {
                for (s, av) in accm.iter().enumerate() {
                    let mut tmp = [0i32; 8];
                    _mm256_storeu_si256(tmp.as_mut_ptr().cast(), *av);
                    for c in 0..4 {
                        acc[m][half * 8 + s * 4 + c] += tmp[2 * c] + tmp[2 * c + 1];
                    }
                }
            }
        }
    }
}

#[inline(always)]
fn i8_microkernel_body(
    staged: &[i8],
    kp: usize,
    mr: usize,
    panel: &[i8],
    acc: &mut [[i32; NR_I8]; MR],
) {
    for bq in 0..kp / QUAD {
        let block = &panel[bq * QUAD * NR_I8..(bq + 1) * QUAD * NR_I8];
        for (accm, row) in acc.iter_mut().zip(staged.chunks_exact(kp)).take(mr) {
            let a = &row[bq * QUAD..(bq + 1) * QUAD];
            for (l, o) in accm.iter_mut().enumerate() {
                let wv = &block[QUAD * l..QUAD * (l + 1)];
                *o += a[0] as i32 * wv[0] as i32
                    + a[1] as i32 * wv[1] as i32
                    + a[2] as i32 * wv[2] as i32
                    + a[3] as i32 * wv[3] as i32;
            }
        }
    }
}

/// Blocked int8 kernel over output rows `rows`, writing rescaled f32
/// results into the disjoint row block `out`.
fn i8_blocked_rows(x: &QuantizedMatrix, w: &PackedI8Rhs, rows: Range<usize>, out: &mut [f32]) {
    let k = x.cols;
    let n = w.n;
    let kp = k.div_ceil(QUAD) * QUAD;
    let panels = n.div_ceil(NR_I8);
    let stride = kp * NR_I8;
    // Zero-padded activation staging: every kernel tier then reads whole
    // quads with no ragged tail (padded zeros meet padded zero weights,
    // contributing nothing to the sums). Rows past `mr` in a ragged
    // final tile may hold stale bytes; only the scalar body runs for
    // those tiles and it reads just the live rows.
    let mut staged = vec![0i8; MR * kp];
    let mut i0 = rows.start;
    while i0 < rows.end {
        let mr = MR.min(rows.end - i0);
        for m in 0..mr {
            staged[m * kp..m * kp + k].copy_from_slice(x.row(i0 + m));
        }
        for t in 0..panels {
            let j0 = t * NR_I8;
            let nv = NR_I8.min(n - j0);
            let panel = &w.packed[t * stride..(t + 1) * stride];
            let colsum = &w.colsum128[j0..j0 + NR_I8];
            let mut acc = [[0i32; NR_I8]; MR];
            i8_microkernel(&staged, kp, mr, panel, colsum, &mut acc);
            for (m, accm) in acc.iter().enumerate().take(mr) {
                let xs = x.scales[i0 + m];
                let base = (i0 - rows.start + m) * n + j0;
                for (o, (&q, &ws)) in out[base..base + nv]
                    .iter_mut()
                    .zip(accm.iter().zip(&w.scales[j0..j0 + nv]))
                {
                    *o = q as f32 * xs * ws;
                }
            }
        }
        i0 += mr;
    }
}

/// Quantized product `x * wᵀ` rescaled back to f32:
/// `out[i][j] = (Σ_p x[i][p] * w[j][p]) * x.scales[i] * w.scales[j]`.
///
/// `x` holds activation rows (`m x k`), `w` holds weight rows
/// (`n x k`, one output channel per row) — the same orientation as the
/// f32 `matmul_t`. Large products shard output rows across the worker
/// pool; integer accumulation makes every dispatch and thread count
/// produce bit-identical results.
///
/// # Panics
/// Panics when `x.cols() != w.cols()`.
pub fn i8_matmul_t(x: &QuantizedMatrix, w: &QuantizedMatrix) -> Matrix {
    assert_eq!(
        x.cols, w.cols,
        "i8_matmul_t shape mismatch: {}x{} x ({}x{})ᵀ",
        x.rows, x.cols, w.rows, w.cols
    );
    i8_matmul_t_packed(x, &PackedI8Rhs::pack(w))
}

/// [`i8_matmul_t`] against weights packed once up front — the steady
/// state of quantized inference, where one layer's weights multiply
/// every scoring batch and per-call re-packing would dominate small
/// products.
///
/// # Panics
/// Panics when `x.cols() != w.shared_dim()`.
pub fn i8_matmul_t_packed(x: &QuantizedMatrix, w: &PackedI8Rhs) -> Matrix {
    assert_eq!(
        x.cols, w.k,
        "i8_matmul_t shape mismatch: {}x{} x packed ({}x{})ᵀ",
        x.rows, x.cols, w.n, w.k
    );
    let (m, k) = (x.rows, x.cols);
    let n = w.n;
    let mut out = Matrix::zeros(m, n);
    let min_rows = if m * k * n >= PAR_FLOP_CUTOFF {
        MIN_ROWS_PER_SHARD
    } else {
        m.max(1)
    };
    runtime::for_each_row_shard_mut(out.as_mut_slice(), m, n, min_rows, |rows, chunk| {
        i8_blocked_rows(x, w, rows, chunk);
    });
    out
}

/// Naive triple-loop reference for [`i8_matmul_t`], retained as the
/// ground truth the blocked kernel is tested against (and as the scalar
/// baseline for the `micro` bench speedup gate).
///
/// # Panics
/// Panics when `x.cols() != w.cols()`.
pub fn i8_matmul_t_reference(x: &QuantizedMatrix, w: &QuantizedMatrix) -> Matrix {
    assert_eq!(x.cols, w.cols, "i8_matmul_t shape mismatch");
    let mut out = Matrix::zeros(x.rows, w.rows);
    for i in 0..x.rows {
        let xr = x.row(i);
        let xs = x.scales[i];
        let out_row = out.row_mut(i);
        for (j, o) in out_row.iter_mut().enumerate() {
            let wr = w.row(j);
            let mut acc = 0i32;
            for (&a, &b) in xr.iter().zip(wr) {
                acc += a as i32 * b as i32;
            }
            *o = acc as f32 * xs * w.scales[j];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::XorShiftRng;

    #[test]
    fn roundtrip_error_is_bounded_by_half_scale() {
        // Seeded property test: |x - dequantize(quantize(x))| <= scale/2
        // (plus float slack) for every element, per-row and uniform.
        let mut rng = XorShiftRng::new(0x51AB);
        for trial in 0..20 {
            let rows = 1 + (trial % 7);
            let cols = 1 + (trial * 3) % 13;
            let m = Matrix::gaussian(rows, cols, &mut rng).scale(1.0 + trial as f32);
            let q = QuantizedMatrix::quantize_per_row(&m);
            let back = q.dequantize();
            for r in 0..rows {
                let s = q.scales()[r];
                for (a, b) in m.row(r).iter().zip(back.row(r)) {
                    let err = (a - b).abs();
                    assert!(
                        err <= 0.5 * s * (1.0 + 1e-5),
                        "trial {trial} row {r}: err {err} > scale/2 {s}"
                    );
                }
            }
            let scale = scale_for_max_abs(max_abs(&m));
            let qu = QuantizedMatrix::quantize_uniform(&m, scale);
            let back = qu.dequantize();
            for (a, b) in m.as_slice().iter().zip(back.as_slice()) {
                assert!((a - b).abs() <= 0.5 * scale * (1.0 + 1e-5));
            }
        }
    }

    #[test]
    fn degenerate_inputs_quantize_to_zero_with_unit_scale() {
        let zeros = Matrix::zeros(3, 4);
        let q = QuantizedMatrix::quantize_per_row(&zeros);
        assert_eq!(q.scales(), &[1.0, 1.0, 1.0]);
        assert_eq!(q.dequantize(), zeros);
        let empty = Matrix::zeros(0, 4);
        let q = QuantizedMatrix::quantize_per_row(&empty);
        assert_eq!(q.rows(), 0);
        assert_eq!(
            i8_matmul_t(&q, &QuantizedMatrix::quantize_per_row(&Matrix::zeros(2, 4))).shape(),
            (0, 2)
        );
        // NaN maps to 0, infinities saturate.
        let weird = Matrix::from_rows(&[&[f32::NAN, f32::INFINITY, -1.0, 2.0]]);
        let q = QuantizedMatrix::quantize_per_row(&weird);
        assert_eq!(q.row(0)[0], 0);
        assert_eq!(q.row(0)[1], 127);
    }

    #[test]
    fn uniform_clamps_out_of_range_activations() {
        let m = Matrix::from_rows(&[&[10.0, -10.0, 0.5]]);
        let q = QuantizedMatrix::quantize_uniform(&m, scale_for_max_abs(1.0));
        assert_eq!(q.row(0)[0], 127);
        assert_eq!(q.row(0)[1], -127);
    }

    #[test]
    fn blocked_gemm_matches_reference_exactly() {
        let mut rng = XorShiftRng::new(0xD07);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 4),
            (4, 8, 8),
            (7, 11, 13),
            (17, 31, 19),
            (33, 9, 25),
        ] {
            let x = QuantizedMatrix::quantize_per_row(&Matrix::gaussian(m, k, &mut rng));
            let w = QuantizedMatrix::quantize_per_row(&Matrix::gaussian(n, k, &mut rng));
            let blocked = i8_matmul_t(&x, &w);
            let reference = i8_matmul_t_reference(&x, &w);
            assert_eq!(blocked.as_slice(), reference.as_slice(), "{m}x{k}x{n}");
        }
    }

    /// Builds a staged tile + packed panel pair for kernel-tier tests.
    #[cfg(target_arch = "x86_64")]
    fn tier_fixture(k: usize, seed: u64) -> (Vec<i8>, usize, PackedI8Rhs) {
        let mut rng = XorShiftRng::new(seed);
        let x = QuantizedMatrix::quantize_per_row(&Matrix::gaussian(MR, k, &mut rng));
        let w = PackedI8Rhs::pack(&QuantizedMatrix::quantize_per_row(&Matrix::gaussian(
            NR_I8, k, &mut rng,
        )));
        let kp = k.div_ceil(QUAD) * QUAD;
        let mut staged = vec![0i8; MR * kp];
        for m in 0..MR {
            staged[m * kp..m * kp + k].copy_from_slice(x.row(m));
        }
        (staged, kp, w)
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn simd_kernel_tiers_match_the_scalar_body_bitwise() {
        // The dispatcher always picks the best tier, so exercise each
        // SIMD instantiation directly against the scalar ground truth.
        for &k in &[1, 3, 4, 7, 8, 31, 64, 130] {
            let (staged, kp, w) = tier_fixture(k, 0xBEEF ^ k as u64);
            let panel = &w.packed[..kp * NR_I8];
            let mut want = [[0i32; NR_I8]; MR];
            i8_microkernel_body(&staged, kp, MR, panel, &mut want);
            if std::arch::is_x86_feature_detected!("avx2") {
                let mut got = [[0i32; NR_I8]; MR];
                // SAFETY: AVX2 presence checked on the line above;
                // staged/panel sizes match the kernel's contract.
                unsafe { i8_microkernel_avx2(&staged, kp, panel, &mut got) };
                assert_eq!(want, got, "avx2 tier diverged at k={k}");
            }
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512vnni")
            {
                let mut got = [[0i32; NR_I8]; MR];
                // SAFETY: AVX-512F+VNNI presence checked above;
                // staged/panel/colsum sizes match the kernel's contract.
                unsafe { i8_microkernel_vnni(&staged, kp, panel, &w.colsum128, &mut got) };
                assert_eq!(want, got, "vnni tier diverged at k={k}");
            }
        }
    }

    #[test]
    fn vectorized_quantization_matches_the_scalar_element_for_element() {
        // Adversarial values first: NaN, infinities, exact .5 halves
        // (f32::round goes half away from zero — nearest-even would
        // differ), negative zero, saturating magnitudes.
        let mut vals = vec![
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.5,
            -0.5,
            1.5,
            -2.5,
            126.5,
            127.49,
            127.5,
            -127.5,
            1e30,
            -1e30,
            -0.0,
            0.0,
            1e-30,
        ];
        let mut rng = XorShiftRng::new(0x0DD5);
        for _ in 0..500 {
            vals.push(rng.gaussian() * 64.0);
            vals.push((rng.gaussian() * 32.0).round() + 0.5);
        }
        for &inv in &[1.0f32, 0.37, 42.0] {
            let mut out = vec![0i8; vals.len()];
            quantize_slice(&vals, inv, &mut out);
            for (i, (&v, &q)) in vals.iter().zip(&out).enumerate() {
                assert_eq!(q, quantize_value(v, inv), "element {i} ({v}) at inv={inv}");
            }
        }
    }

    #[test]
    fn gemm_tracks_f32_product_within_quantization_error() {
        let mut rng = XorShiftRng::new(0xACC);
        let a = Matrix::gaussian(12, 24, &mut rng);
        let b = Matrix::gaussian(9, 24, &mut rng);
        let exact = a.matmul_t(&b);
        let q = i8_matmul_t(
            &QuantizedMatrix::quantize_per_row(&a),
            &QuantizedMatrix::quantize_per_row(&b),
        );
        // Worst-case relative error per dot product is ~k * (s_a*s_b)/2;
        // a loose absolute bound is enough to catch scale bugs.
        assert!(
            exact.max_abs_diff(&q) < 0.2,
            "diff {}",
            exact.max_abs_diff(&q)
        );
    }
}
