//! Arithmetic kernels on [`Matrix`].
//!
//! The three matrix products share one cache-blocked, register-tiled
//! kernel in the BLIS style: the right-hand operand is packed into
//! contiguous [`NR`]-wide column panels, and an [`MR`]`x`[`NR`] register
//! micro-kernel accumulates each output tile over the **full** shared
//! dimension. Blocking happens only over output rows and columns, so
//! every output element is still accumulated over `p` ascending — the
//! exact floating-point operation sequence of the naive triple loop —
//! which keeps blocked results **bit-identical** to the retained
//! reference kernels ([`matmul_reference`] and friends).
//!
//! Large products additionally shard output rows across the
//! [`crate::runtime`] worker pool (above [`PAR_FLOP_CUTOFF`]); the RHS
//! is packed once and shared read-only by all shards, so parallel
//! results are bit-identical to serial at any thread count.

use crate::matrix::Matrix;
use crate::runtime;
use std::ops::Range;

/// Multiply-add count below which a matrix product stays serial: below
/// it, handing half the rows to a parked worker costs more than it
/// saves. Set at the break-even measured by `cargo bench -p vaer-bench
/// --bench parallel_runtime` on a shared 2-vCPU KVM guest (seven runs):
/// a parked worker starts its shard p50 8–18 µs and p90 9–29 µs after
/// the call. With two workers the matcher's 32×64×96 and 32×128×32
/// products (2^17–2^17.6, 15–35 µs serial) ran at median 0.66× and
/// 0.65× serial speed, the 64- to 256-row ×128×32 blocks (≤ 2^20) at
/// 0.50–0.95×, and the 512×128×32 Score block (2^21) at 0.90–1.43×,
/// median 1.02×; a 512×256×512 product gained (median 1.29×). Below the
/// cutoff a product never pays the hand-off; at and above it, the
/// caller still runs any shard a late worker has not claimed.
pub const PAR_FLOP_CUTOFF: usize = 1 << 21;

/// Minimum output rows per shard for parallel products.
const MIN_ROWS_PER_SHARD: usize = 8;

/// Output rows per register tile of the blocked micro-kernel.
pub const MR: usize = 4;

/// Output columns per register tile of the blocked micro-kernel. One
/// packed RHS panel is `NR` columns wide.
///
/// The `MR x NR` tile is `MR * NR / lanes` independent add chains: 4 rows
/// × 2 zmm on AVX-512 and 4 × 4 ymm on AVX2. Each output element's adds
/// stay in one serial chain over `p`, so only the number of chains in
/// flight — what hides the add latency — depends on `NR`.
pub const NR: usize = 32;

/// Packs `b` (`k x n`) into `NR`-wide column panels: panel `t` holds
/// columns `t*NR .. t*NR+NR`, laid out row-major over `p` with
/// zero-padded tail columns, i.e. `packed[t*k*NR + p*NR + l] =
/// b[p][t*NR + l]`. Padding lanes are multiplied but never stored, so
/// they cannot affect results.
fn pack_rhs(b: &Matrix) -> Vec<f32> {
    let (k, n) = b.shape();
    let panels = n.div_ceil(NR.max(1)).max(1);
    let mut packed = vec![0.0f32; panels * k * NR];
    for t in 0..panels {
        let j0 = t * NR;
        let nv = NR.min(n.saturating_sub(j0));
        let base = t * k * NR;
        for p in 0..k {
            let dst = base + p * NR;
            packed[dst..dst + nv].copy_from_slice(&b.row(p)[j0..j0 + nv]);
        }
    }
    packed
}

/// Packs `bᵀ` into the same panel layout as [`pack_rhs`]: the logical
/// RHS has shared dimension `k = b.cols()` and output columns
/// `n = b.rows()`, so `packed[t*k*NR + p*NR + l] = b[t*NR + l][p]`.
fn pack_rhs_transposed(b: &Matrix) -> Vec<f32> {
    let (n, k) = b.shape();
    let panels = n.div_ceil(NR.max(1)).max(1);
    let mut packed = vec![0.0f32; panels * k * NR];
    for t in 0..panels {
        let j0 = t * NR;
        let nv = NR.min(n.saturating_sub(j0));
        let base = t * k * NR;
        for l in 0..nv {
            let src = b.row(j0 + l);
            for (p, &v) in src.iter().enumerate() {
                packed[base + p * NR + l] = v;
            }
        }
    }
    packed
}

/// The `MR x NR` register micro-kernel: for each LHS row slice `m`,
/// `acc[m][l] += Σ_p lhs[m][p] * panel[p*NR + l]` with `p` ascending —
/// the same per-element accumulation order as the naive loops, which is
/// what keeps the blocked kernels bit-identical to the references.
///
/// Dispatches to the widest compiled copy of the same body the CPU
/// supports: AVX-512F, then AVX2, then the baseline target (SSE2 on
/// x86_64). The body is identical scalar code in every tier — the
/// target feature only widens the auto-vectorised lanes, and rustc never
/// contracts `mul` + `add` into FMA, so every tier produces bit-identical
/// results.
fn microkernel(lhs: &[&[f32]], panel: &[f32], k: usize, acc: &mut [[f32; NR]; MR]) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: guarded by runtime CPU feature detection; the
            // function body contains no intrinsics, only code compiled
            // for AVX-512F.
            unsafe { microkernel_avx512(lhs, panel, k, acc) };
            return;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: guarded by runtime CPU feature detection; the
            // function body contains no intrinsics, only code compiled
            // for AVX2.
            unsafe { microkernel_avx2(lhs, panel, k, acc) };
            return;
        }
    }
    microkernel_body(lhs, panel, k, acc);
}

/// AVX-512F-compiled instantiation of [`microkernel_body`].
// SAFETY: callable only when the CPU supports AVX-512F — `microkernel`
// is the sole caller and gates on `is_x86_feature_detected!("avx512f")`.
// The body is plain safe Rust; the attribute only changes codegen.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn microkernel_avx512(lhs: &[&[f32]], panel: &[f32], k: usize, acc: &mut [[f32; NR]; MR]) {
    microkernel_body(lhs, panel, k, acc);
}

/// AVX2-compiled instantiation of [`microkernel_body`].
// SAFETY: callable only when the CPU supports AVX2 — `microkernel` is
// the sole caller and gates on `is_x86_feature_detected!("avx2")`. The
// body is plain safe Rust; the attribute only changes codegen.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn microkernel_avx2(lhs: &[&[f32]], panel: &[f32], k: usize, acc: &mut [[f32; NR]; MR]) {
    microkernel_body(lhs, panel, k, acc);
}

#[inline(always)]
fn microkernel_body(lhs: &[&[f32]], panel: &[f32], k: usize, acc: &mut [[f32; NR]; MR]) {
    if lhs.len() == MR {
        // Hot full-tile case: a fixed-size row array lets LLVM keep the
        // whole accumulator tile in registers and vectorise the NR lanes.
        // The shared dimension is unrolled 4x to amortise loop overhead;
        // each output element still receives its adds in ascending `p`.
        let mut rows: [&[f32]; MR] = [&[]; MR];
        for (slot, row) in rows.iter_mut().zip(lhs) {
            *slot = &row[..k];
        }
        let mut p = 0;
        while p + 4 <= k {
            let bp = &panel[p * NR..(p + 4) * NR];
            for (accm, row) in acc.iter_mut().zip(rows.iter()) {
                let a = [row[p], row[p + 1], row[p + 2], row[p + 3]];
                for (l, o) in accm.iter_mut().enumerate() {
                    let mut v = *o;
                    v += a[0] * bp[l];
                    v += a[1] * bp[NR + l];
                    v += a[2] * bp[2 * NR + l];
                    v += a[3] * bp[3 * NR + l];
                    *o = v;
                }
            }
            p += 4;
        }
        while p < k {
            let bp = &panel[p * NR..(p + 1) * NR];
            for (accm, row) in acc.iter_mut().zip(rows.iter()) {
                let a = row[p];
                for (o, &b) in accm.iter_mut().zip(bp) {
                    *o += a * b;
                }
            }
            p += 1;
        }
    } else {
        for p in 0..k {
            let bp = &panel[p * NR..(p + 1) * NR];
            for (accm, row) in acc.iter_mut().zip(lhs) {
                let a = row[p];
                for (o, &b) in accm.iter_mut().zip(bp) {
                    *o += a * b;
                }
            }
        }
    }
}

/// Runs the micro-kernel over every column panel for one block of
/// `lhs.len()` output rows, writing the `lhs.len() x n` block `out`.
fn blocked_panel_rows(lhs: &[&[f32]], packed: &[f32], k: usize, n: usize, out: &mut [f32]) {
    let mr = lhs.len();
    let panels = n.div_ceil(NR.max(1));
    for t in 0..panels {
        let j0 = t * NR;
        let nv = NR.min(n - j0);
        let panel = &packed[t * k * NR..(t + 1) * k * NR];
        let mut acc = [[0.0f32; NR]; MR];
        microkernel(lhs, panel, k, &mut acc);
        for (m, accm) in acc.iter().enumerate().take(mr) {
            out[m * n + j0..m * n + j0 + nv].copy_from_slice(&accm[..nv]);
        }
    }
}

/// Blocked kernel over output rows `rows` for products whose LHS rows
/// are rows of `a` (`matmul`, `matmul_t`); writes the disjoint row
/// block `out`.
fn blocked_rows(a: &Matrix, packed: &[f32], n: usize, rows: Range<usize>, out: &mut [f32]) {
    let k = a.cols();
    let mut i0 = rows.start;
    while i0 < rows.end {
        let mr = MR.min(rows.end - i0);
        let mut lhs: [&[f32]; MR] = [&[]; MR];
        for (m, slot) in lhs.iter_mut().enumerate().take(mr) {
            *slot = a.row(i0 + m);
        }
        let local0 = i0 - rows.start;
        blocked_panel_rows(
            &lhs[..mr],
            packed,
            k,
            n,
            &mut out[local0 * n..(local0 + mr) * n],
        );
        i0 += mr;
    }
}

/// Blocked kernel over output rows `rows` for `t_matmul`, whose LHS
/// rows are **columns** of `a`: each row block gathers its `MR` columns
/// into a contiguous scratch buffer, then reuses the shared micro-kernel.
fn blocked_rows_transposed(
    a: &Matrix,
    packed: &[f32],
    n: usize,
    rows: Range<usize>,
    out: &mut [f32],
) {
    let k = a.rows();
    let mut colbuf = vec![0.0f32; MR * k];
    let mut i0 = rows.start;
    while i0 < rows.end {
        let mr = MR.min(rows.end - i0);
        for p in 0..k {
            let a_row = a.row(p);
            for m in 0..mr {
                colbuf[m * k + p] = a_row[i0 + m];
            }
        }
        let mut lhs: [&[f32]; MR] = [&[]; MR];
        for (m, slot) in lhs.iter_mut().enumerate().take(mr) {
            *slot = &colbuf[m * k..(m + 1) * k];
        }
        let local0 = i0 - rows.start;
        blocked_panel_rows(
            &lhs[..mr],
            packed,
            k,
            n,
            &mut out[local0 * n..(local0 + mr) * n],
        );
        i0 += mr;
    }
}

/// Naive triple-loop `a * b`, accumulating over `p` ascending. Retained
/// as the ground-truth reference the blocked kernel is tested against.
///
/// # Panics
/// Panics on incompatible shapes (`a.cols() != b.rows()`).
pub fn matmul_reference(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul shape mismatch");
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        let out_row = out.row_mut(i);
        for (p, &a_ip) in a_row.iter().enumerate().take(k) {
            for (o, &v) in out_row.iter_mut().zip(b.row(p)) {
                *o += a_ip * v;
            }
        }
    }
    out
}

/// Naive `a * bᵀ` reference (dot products over `p` ascending).
///
/// # Panics
/// Panics on incompatible shapes (`a.cols() != b.cols()`).
pub fn matmul_t_reference(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "matmul_t shape mismatch");
    let (m, _) = a.shape();
    let n = b.rows();
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        for j in 0..n {
            out.set(i, j, crate::vector::dot(a_row, b.row(j)));
        }
    }
    out
}

/// Naive `aᵀ * b` reference (accumulation over `p` ascending).
///
/// # Panics
/// Panics on incompatible shapes (`a.rows() != b.rows()`).
pub fn t_matmul_reference(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "t_matmul shape mismatch");
    let (r, m) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    for p in 0..r {
        let a_row = a.row(p);
        let b_row = b.row(p);
        for (i, &av) in a_row.iter().enumerate() {
            let out_row = out.row_mut(i);
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
    out
}

impl Matrix {
    /// Matrix product `self * other` via the blocked kernel.
    ///
    /// # Panics
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows(), other.cols());
        self.matmul_into(other, &mut out);
        out
    }

    /// Computes `self * other` into `out`, overwriting every element.
    /// `out` does not need to be zeroed. Taking the destination lets
    /// callers (the autodiff tape) reuse pooled buffers.
    ///
    /// # Panics
    /// Panics on inner-dimension or output-shape mismatch.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols(),
            other.rows(),
            "matmul shape mismatch: {:?} x {:?}",
            self.shape(),
            other.shape()
        );
        let (m, k) = self.shape();
        let n = other.cols();
        assert_eq!(out.shape(), (m, n), "matmul output shape mismatch");
        let t0 = crate::obs::matmul_start();
        let packed = pack_rhs(other);
        let min_rows = if m * k * n >= PAR_FLOP_CUTOFF {
            MIN_ROWS_PER_SHARD
        } else {
            m.max(1)
        };
        runtime::for_each_row_shard_mut(out.as_mut_slice(), m, n, min_rows, |rows, chunk| {
            blocked_rows(self, &packed, n, rows, chunk);
        });
        let parallel = t0.is_some() && runtime::shard_count(m, min_rows) > 1;
        crate::obs::matmul_finish(crate::obs::MATMUL, m * k * n, parallel, t0);
    }

    /// `selfᵀ * other` without materialising the transpose.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols(), other.cols());
        self.t_matmul_into(other, &mut out);
        out
    }

    /// Computes `selfᵀ * other` into `out` (see [`Matrix::matmul_into`]).
    ///
    /// # Panics
    /// Panics on incompatible input or output shapes.
    pub fn t_matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows(),
            other.rows(),
            "t_matmul shape mismatch: {:?}ᵀ x {:?}",
            self.shape(),
            other.shape()
        );
        let (r, m) = self.shape();
        let n = other.cols();
        assert_eq!(out.shape(), (m, n), "t_matmul output shape mismatch");
        let t0 = crate::obs::matmul_start();
        let packed = pack_rhs(other);
        let min_rows = if m * r * n >= PAR_FLOP_CUTOFF {
            MIN_ROWS_PER_SHARD
        } else {
            m.max(1)
        };
        runtime::for_each_row_shard_mut(out.as_mut_slice(), m, n, min_rows, |rows, chunk| {
            blocked_rows_transposed(self, &packed, n, rows, chunk);
        });
        let parallel = t0.is_some() && runtime::shard_count(m, min_rows) > 1;
        crate::obs::matmul_finish(crate::obs::T_MATMUL, m * r * n, parallel, t0);
    }

    /// `self * otherᵀ` without materialising the transpose.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows(), other.rows());
        self.matmul_t_into(other, &mut out);
        out
    }

    /// Computes `self * otherᵀ` into `out` (see [`Matrix::matmul_into`]).
    ///
    /// # Panics
    /// Panics on incompatible input or output shapes.
    pub fn matmul_t_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols(),
            other.cols(),
            "matmul_t shape mismatch: {:?} x {:?}ᵀ",
            self.shape(),
            other.shape()
        );
        let (m, k) = self.shape();
        let n = other.rows();
        assert_eq!(out.shape(), (m, n), "matmul_t output shape mismatch");
        let t0 = crate::obs::matmul_start();
        let packed = pack_rhs_transposed(other);
        let min_rows = if m * k * n >= PAR_FLOP_CUTOFF {
            MIN_ROWS_PER_SHARD
        } else {
            m.max(1)
        };
        runtime::for_each_row_shard_mut(out.as_mut_slice(), m, n, min_rows, |rows, chunk| {
            blocked_rows(self, &packed, n, rows, chunk);
        });
        let parallel = t0.is_some() && runtime::shard_count(m, min_rows) > 1;
        crate::obs::matmul_finish(crate::obs::MATMUL_T, m * k * n, parallel, t0);
    }

    /// Element-wise sum; shapes must match.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise difference; shapes must match.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product; shapes must match.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a * b)
    }

    /// Element-wise binary map over two same-shaped matrices.
    ///
    /// # Panics
    /// Panics when the shapes differ.
    pub fn zip_with(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(
            self.shape(),
            other.shape(),
            "element-wise op shape mismatch: {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        let data = self
            .as_slice()
            .iter()
            .zip(other.as_slice().iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Matrix::from_vec(self.rows(), self.cols(), data)
    }

    /// Element-wise unary map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let data = self.as_slice().iter().map(|&a| f(a)).collect();
        Matrix::from_vec(self.rows(), self.cols(), data)
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|a| a * s)
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Panics
    /// Panics when the shapes differ.
    pub fn axpy_inplace(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += alpha * b;
        }
    }

    /// Adds a row vector to every row (broadcast).
    ///
    /// # Panics
    /// Panics when `row.len()` differs from the column count.
    pub fn add_row_broadcast(&self, row: &[f32]) -> Matrix {
        assert_eq!(self.cols(), row.len(), "broadcast row length mismatch");
        let mut out = self.clone();
        for i in 0..out.rows() {
            for (o, &b) in out.row_mut(i).iter_mut().zip(row.iter()) {
                *o += b;
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f32 {
        self.as_slice().iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Mean of all elements; 0 for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.as_slice().is_empty() {
            0.0
        } else {
            self.sum() / self.as_slice().len() as f32
        }
    }

    /// Per-column mean, as a vector of length `cols`.
    pub fn col_means(&self) -> Vec<f32> {
        let mut means = vec![0.0f32; self.cols()];
        if self.rows() == 0 {
            return means;
        }
        for i in 0..self.rows() {
            for (m, &v) in means.iter_mut().zip(self.row(i)) {
                *m += v;
            }
        }
        let inv = 1.0 / self.rows() as f32;
        for m in &mut means {
            *m *= inv;
        }
        means
    }

    /// L2-normalises every row in place; zero rows are left untouched.
    pub fn l2_normalize_rows(&mut self) {
        for i in 0..self.rows() {
            let row = self.row_mut(i);
            let norm = row.iter().map(|&x| x * x).sum::<f32>().sqrt();
            if norm > f32::EPSILON {
                let inv = 1.0 / norm;
                for v in row {
                    *v *= inv;
                }
            }
        }
    }

    /// Maximum absolute element difference vs `other`.
    ///
    /// # Panics
    /// Panics when the shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape());
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m22(a: f32, b: f32, c: f32, d: f32) -> Matrix {
        Matrix::from_rows(&[&[a, b], &[c, d]])
    }

    #[test]
    fn matmul_basic() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = m22(5.0, 6.0, 7.0, 8.0);
        let c = a.matmul(&b);
        assert_eq!(c, m22(19.0, 22.0, 43.0, 50.0));
    }

    #[test]
    fn matmul_identity() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        assert_eq!(a.matmul(&Matrix::identity(2)), a);
        assert_eq!(Matrix::identity(2).matmul(&a), a);
    }

    #[test]
    fn transpose_products_agree_with_explicit_transpose() {
        let mut rng = crate::XorShiftRng::new(42);
        let a = Matrix::gaussian(4, 3, &mut rng);
        let b = Matrix::gaussian(4, 5, &mut rng);
        let fast = a.t_matmul(&b);
        let slow = a.transpose().matmul(&b);
        assert!(fast.max_abs_diff(&slow) < 1e-5);
    }

    #[test]
    fn matmul_t_agrees() {
        let mut rng = crate::XorShiftRng::new(1);
        let a = Matrix::gaussian(3, 4, &mut rng);
        let b = Matrix::gaussian(5, 4, &mut rng);
        let fast = a.matmul_t(&b);
        let slow = a.matmul(&b.transpose());
        assert!(fast.max_abs_diff(&slow) < 1e-5);
    }

    #[test]
    fn elementwise_ops() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = m22(4.0, 3.0, 2.0, 1.0);
        assert_eq!(a.add(&b), Matrix::filled(2, 2, 5.0));
        assert_eq!(a.sub(&a), Matrix::zeros(2, 2));
        assert_eq!(a.hadamard(&b), m22(4.0, 6.0, 6.0, 4.0));
        assert_eq!(a.scale(2.0), m22(2.0, 4.0, 6.0, 8.0));
    }

    #[test]
    fn axpy_and_broadcast() {
        let mut a = m22(1.0, 1.0, 1.0, 1.0);
        let b = m22(1.0, 2.0, 3.0, 4.0);
        a.axpy_inplace(0.5, &b);
        assert_eq!(a, m22(1.5, 2.0, 2.5, 3.0));
        let c = b.add_row_broadcast(&[10.0, 20.0]);
        assert_eq!(c, m22(11.0, 22.0, 13.0, 24.0));
    }

    #[test]
    fn reductions() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.col_means(), vec![2.0, 3.0]);
        assert!((a.fro_norm() - 30.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn l2_normalize_rows_unit_norm() {
        let mut a = Matrix::from_rows(&[&[3.0, 4.0], &[0.0, 0.0]]);
        a.l2_normalize_rows();
        assert!((a.row(0)[0] - 0.6).abs() < 1e-6);
        assert!((a.row(0)[1] - 0.8).abs() < 1e-6);
        assert_eq!(a.row(1), &[0.0, 0.0]); // zero row untouched
    }

    #[test]
    #[should_panic]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn simd_kernel_tiers_match_the_scalar_body_bitwise() {
        // The dispatcher always picks the widest tier, so on an AVX-512
        // host the AVX2 tier never runs through the public products;
        // exercise each instantiation directly against the scalar body.
        let mut rng = crate::XorShiftRng::new(0x7113);
        for &live in &[1, NR - 1, NR] {
            for &k in &[1, 3, 4, 5, 33] {
                let a = Matrix::gaussian(MR, k, &mut rng);
                let packed = pack_rhs(&Matrix::gaussian(k, live, &mut rng));
                for mr in 1..=MR {
                    let lhs: Vec<&[f32]> = (0..mr).map(|m| a.row(m)).collect();
                    let mut want = [[0.0f32; NR]; MR];
                    microkernel_body(&lhs, &packed, k, &mut want);
                    let mut tiers = Vec::new();
                    if std::arch::is_x86_feature_detected!("avx2") {
                        let mut got = [[0.0f32; NR]; MR];
                        // SAFETY: AVX2 presence checked on the line above;
                        // the callee is the safe scalar body.
                        unsafe { microkernel_avx2(&lhs, &packed, k, &mut got) };
                        tiers.push(("avx2", got));
                    }
                    if std::arch::is_x86_feature_detected!("avx512f") {
                        let mut got = [[0.0f32; NR]; MR];
                        // SAFETY: AVX-512F presence checked on the line
                        // above; the callee is the safe scalar body.
                        unsafe { microkernel_avx512(&lhs, &packed, k, &mut got) };
                        tiers.push(("avx512f", got));
                    }
                    for (tier, got) in tiers {
                        let bits = |t: &[[f32; NR]; MR]| {
                            t.iter()
                                .flat_map(|row| row.map(f32::to_bits))
                                .collect::<Vec<_>>()
                        };
                        assert_eq!(
                            bits(&want),
                            bits(&got),
                            "{tier} tier diverged at mr={mr} k={k} live={live}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_products_are_bit_identical_to_serial() {
        let _guard = crate::runtime::OVERRIDE_LOCK.lock().unwrap();
        let mut rng = crate::XorShiftRng::new(0xBEEF);
        // Shapes straddling the parallel cutoff, including odd sizes that
        // don't divide evenly into shards; the last is sized from the
        // cutoff so it stays parallel, split unevenly at 2 and 4 threads,
        // whatever the cutoff is set to.
        let shapes = [
            (3, 5, 4),
            (17, 33, 9),
            (64, 64, 64),
            (130, 70, 110),
            (256, 96, 256),
            (131, 128, PAR_FLOP_CUTOFF.div_ceil(131 * 128)),
        ];
        for &(m, k, n) in &shapes {
            let a = Matrix::gaussian(m, k, &mut rng);
            let b = Matrix::gaussian(k, n, &mut rng);
            let bt = b.transpose();
            let at = a.transpose();
            crate::runtime::set_threads(1);
            let serial = (a.matmul(&b), a.matmul_t(&bt), at.t_matmul(&b));
            crate::runtime::set_threads(4);
            let parallel = (a.matmul(&b), a.matmul_t(&bt), at.t_matmul(&b));
            crate::runtime::set_threads(0);
            assert_eq!(
                serial.0.as_slice(),
                parallel.0.as_slice(),
                "matmul {m}x{k}x{n}"
            );
            assert_eq!(
                serial.1.as_slice(),
                parallel.1.as_slice(),
                "matmul_t {m}x{k}x{n}"
            );
            assert_eq!(
                serial.2.as_slice(),
                parallel.2.as_slice(),
                "t_matmul {m}x{k}x{n}"
            );
        }
    }
}
