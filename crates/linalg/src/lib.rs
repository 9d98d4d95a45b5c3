//! Dense `f32` linear algebra for VAER.
//!
//! This crate provides the numerical substrate used by every other VAER
//! crate: a row-major dense [`Matrix`], vector kernels, and the matrix
//! decompositions required by the representation-learning pipeline
//! (QR, symmetric Jacobi eigendecomposition, and randomized truncated SVD
//! in the style of Halko, Martinsson & Tropp).
//!
//! The implementation is deliberately simple and allocation-conscious:
//! contiguous `Vec<f32>` storage, iterator-driven inner loops (so the
//! compiler elides bounds checks), and cache-blocked, register-tiled
//! matrix products (packed 32-column RHS panels + a 4×32 `MR x NR`
//! micro-kernel) that are bit-identical to the naive reference loops.
//! The f32 micro-kernel is one scalar body compiled three times —
//! AVX-512F, AVX2 and the baseline target — and dispatched to the widest
//! tier the CPU has; no tier emits FMA, so all three produce the same
//! bits. The only `unsafe` in the crate is the feature-detection-guarded
//! SIMD dispatch of the matmul/int8-GEMM/distance-feature kernels
//! ([`ops`](crate), [`quant`](crate), [`simd`](crate)) and the worker
//! pool's lifetime erasure ([`runtime`]).
//!
//! The quantized inference fast lane adds [`QuantizedMatrix`] (int8
//! symmetric per-row quantization), an exact-integer [`i8_matmul_t`]
//! GEMM, and fused [`distance_row`] kernels for the attribute-wise
//! Wasserstein features.
//!
//! # Example
//!
//! ```
//! use vaer_linalg::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```

mod decomp;
mod matrix;
mod obs;
mod ops;
mod quant;
mod rng;
pub mod runtime;
mod simd;
pub mod vector;

pub use decomp::{jacobi_eigh, qr_thin, randomized_svd, EighResult, QrResult, SvdResult};
pub use matrix::Matrix;
pub use ops::{matmul_reference, matmul_t_reference, t_matmul_reference, MR, NR, PAR_FLOP_CUTOFF};
pub use quant::{
    i8_matmul_t, i8_matmul_t_packed, i8_matmul_t_reference, max_abs, scale_for_max_abs,
    PackedI8Rhs, QuantizedMatrix,
};
pub use rng::XorShiftRng;
pub use simd::{distance_row, distance_row_scalar, DistanceOp};

/// Errors produced by fallible linear-algebra routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// An operation received matrices with incompatible shapes.
    ShapeMismatch {
        /// Human-readable description of the expected shape relation.
        expected: String,
        /// Human-readable description of what was found.
        found: String,
    },
    /// An iterative routine failed to converge within its iteration budget.
    NoConvergence {
        /// Name of the routine.
        routine: &'static str,
        /// Iterations performed.
        iterations: usize,
    },
    /// A routine received an empty input where data was required.
    EmptyInput(&'static str),
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::ShapeMismatch { expected, found } => {
                write!(f, "shape mismatch: expected {expected}, found {found}")
            }
            LinalgError::NoConvergence {
                routine,
                iterations,
            } => {
                write!(
                    f,
                    "{routine} did not converge after {iterations} iterations"
                )
            }
            LinalgError::EmptyInput(what) => write!(f, "empty input: {what}"),
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = LinalgError::ShapeMismatch {
            expected: "2x2".into(),
            found: "3x1".into(),
        };
        assert!(e.to_string().contains("2x2"));
        let e = LinalgError::NoConvergence {
            routine: "jacobi",
            iterations: 5,
        };
        assert!(e.to_string().contains("jacobi"));
        let e = LinalgError::EmptyInput("matrix");
        assert!(e.to_string().contains("matrix"));
    }
}
