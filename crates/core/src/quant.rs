//! The int8 inference twin of the Siamese matcher (DESIGN.md §13).
//!
//! A [`QuantizedMatcher`] is built *after* training by calibrating a
//! fitted, frozen-encoder [`SiameseMatcher`](crate::matcher::SiameseMatcher):
//! weights are quantized symmetrically per output channel, and each
//! layer's activation scale is taken from the observed range of an f32
//! forward pass over a calibration set (the matcher's own training
//! features — deterministic, already materialised at fit time, and
//! distributionally representative of the candidate pairs scored at
//! resolution time).
//!
//! Inference then runs `quantize → i8 GEMM → rescale → bias → ReLU` per
//! layer with a final sigmoid, entirely outside the autodiff tape.
//! Training stays f32/bit-stable; only scoring takes the fast lane, and
//! only when `PipelineConfig::score_precision` asks for it — gated by
//! the test-enforced parity suite (`tests/quantization.rs`): per-pair
//! probability |Δ| ≤ ε and end-to-end F1 delta ≤ 0.01 vs the f32 path.

use crate::matcher::sanitize_features;
use crate::CoreError;
use std::borrow::Cow;
use vaer_linalg::{
    i8_matmul_t_packed, max_abs, scale_for_max_abs, Matrix, PackedI8Rhs, QuantizedMatrix,
};

/// One quantized dense layer: weights as `out x in` int8 rows with
/// per-output-channel scales, pre-packed into GEMM panels at
/// calibration (packing once amortises across every scoring batch),
/// f32 bias, and the calibrated input activation scale.
#[derive(Debug, Clone)]
struct QuantizedLinear {
    wt: PackedI8Rhs,
    bias: Vec<f32>,
    in_scale: f32,
}

/// An int8 scoring twin of a fitted matcher MLP. Produces duplicate
/// probabilities from the same cached distance features as
/// `SiameseMatcher::predict_features`, at integer-GEMM speed.
#[derive(Debug, Clone)]
pub struct QuantizedMatcher {
    layers: Vec<QuantizedLinear>,
    arity: usize,
    latent_dim: usize,
}

impl QuantizedMatcher {
    /// Calibrates a quantized matcher from f32 dense layers
    /// (`(weight, bias)` with weight `in x out`, bias `1 x out`, ReLU
    /// between layers, linear output) and a non-empty calibration
    /// feature matrix. Each layer's activation scale is the max-abs of
    /// the *f32* forward pass at that depth, so calibration error does
    /// not compound across layers.
    pub fn calibrate(
        layers: &[(&Matrix, &Matrix)],
        calibration: &Matrix,
        arity: usize,
        latent_dim: usize,
    ) -> Result<QuantizedMatcher, CoreError> {
        if layers.is_empty() {
            return Err(CoreError::BadInput("cannot quantize an empty MLP".into()));
        }
        if calibration.rows() == 0 {
            return Err(CoreError::InsufficientData(
                "activation calibration needs at least one feature row".into(),
            ));
        }
        if calibration.cols() != arity * latent_dim {
            return Err(CoreError::BadInput(format!(
                "calibration width {} != arity*latent {}",
                calibration.cols(),
                arity * latent_dim
            )));
        }
        let mut x: Cow<'_, Matrix> = sanitize_features(calibration);
        let mut quantized = Vec::with_capacity(layers.len());
        for (i, (w, b)) in layers.iter().enumerate() {
            if x.cols() != w.rows() || b.rows() != 1 || b.cols() != w.cols() {
                return Err(CoreError::BadInput(format!(
                    "layer {i} shape mismatch: activations {:?}, weight {:?}, bias {:?}",
                    x.shape(),
                    w.shape(),
                    b.shape()
                )));
            }
            quantized.push(QuantizedLinear {
                // Stored transposed (out x in) so scoring is a single
                // `x * wᵀ` with one scale per output channel.
                wt: PackedI8Rhs::pack(&QuantizedMatrix::quantize_per_row(&w.transpose())),
                bias: b.row(0).to_vec(),
                in_scale: scale_for_max_abs(max_abs(&x)),
            });
            let y = x.matmul(w).add_row_broadcast(b.row(0));
            x = Cow::Owned(if i + 1 < layers.len() {
                y.map(|v| v.max(0.0))
            } else {
                y
            });
        }
        Ok(QuantizedMatcher {
            layers: quantized,
            arity,
            latent_dim,
        })
    }

    /// Predicted duplicate probabilities from precomputed Distance-layer
    /// features (`n x (arity·latent)`) — the int8 twin of
    /// `SiameseMatcher::predict_features`. Non-finite feature values are
    /// sanitized to 0.0 at the boundary, matching the f32 path.
    ///
    /// # Panics
    /// Panics on a feature width mismatch.
    pub fn predict_features(&self, features: &Matrix) -> Vec<f32> {
        assert_eq!(
            features.cols(),
            self.arity * self.latent_dim,
            "feature width mismatch"
        );
        if features.rows() == 0 {
            return Vec::new();
        }
        let mut x: Cow<'_, Matrix> = sanitize_features(features);
        for (i, layer) in self.layers.iter().enumerate() {
            let xq = QuantizedMatrix::quantize_uniform(&x, layer.in_scale);
            let y = i8_matmul_t_packed(&xq, &layer.wt).add_row_broadcast(&layer.bias);
            x = Cow::Owned(if i + 1 < self.layers.len() {
                y.map(|v| v.max(0.0))
            } else {
                y
            });
        }
        x.as_slice().iter().map(|&z| stable_sigmoid(z)).collect()
    }

    /// Attribute count per tuple.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Latent dimensionality per attribute.
    pub fn latent_dim(&self) -> usize {
        self.latent_dim
    }
}

/// Same stable logistic as the tape's sigmoid op, so the only
/// f32-vs-int8 probability difference comes from quantization error in
/// the logits, not from the nonlinearity.
#[inline]
fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaer_linalg::XorShiftRng;

    fn toy_layers(rng: &mut XorShiftRng) -> (Matrix, Matrix, Matrix, Matrix) {
        let w0 = Matrix::gaussian(6, 4, rng).scale(0.5);
        let b0 = Matrix::gaussian(1, 4, rng).scale(0.1);
        let w1 = Matrix::gaussian(4, 1, rng).scale(0.5);
        let b1 = Matrix::gaussian(1, 1, rng).scale(0.1);
        (w0, b0, w1, b1)
    }

    fn f32_forward(x: &Matrix, layers: &[(&Matrix, &Matrix)]) -> Vec<f32> {
        let mut x = x.clone();
        for (i, (w, b)) in layers.iter().enumerate() {
            let y = x.matmul(w).add_row_broadcast(b.row(0));
            x = if i + 1 < layers.len() {
                y.map(|v| v.max(0.0))
            } else {
                y
            };
        }
        x.as_slice().iter().map(|&z| stable_sigmoid(z)).collect()
    }

    #[test]
    fn quantized_forward_tracks_f32_forward() {
        let mut rng = XorShiftRng::new(0x0F8);
        let (w0, b0, w1, b1) = toy_layers(&mut rng);
        let layers = [(&w0, &b0), (&w1, &b1)];
        let calib = Matrix::gaussian(64, 6, &mut rng);
        let q = QuantizedMatcher::calibrate(&layers, &calib, 3, 2).unwrap();
        let test = Matrix::gaussian(32, 6, &mut rng);
        let exact = f32_forward(&test, &layers);
        let fast = q.predict_features(&test);
        for (i, (a, b)) in exact.iter().zip(&fast).enumerate() {
            assert!((a - b).abs() < 0.05, "row {i}: f32 {a} vs int8 {b}");
        }
    }

    #[test]
    fn calibration_rejects_bad_shapes() {
        let mut rng = XorShiftRng::new(1);
        let (w0, b0, w1, b1) = toy_layers(&mut rng);
        let layers = [(&w0, &b0), (&w1, &b1)];
        let empty = Matrix::zeros(0, 6);
        assert!(QuantizedMatcher::calibrate(&layers, &empty, 3, 2).is_err());
        let wrong_width = Matrix::zeros(4, 5);
        assert!(QuantizedMatcher::calibrate(&layers, &wrong_width, 3, 2).is_err());
        assert!(QuantizedMatcher::calibrate(&[], &Matrix::zeros(4, 6), 3, 2).is_err());
    }

    #[test]
    fn nan_features_are_sanitized_like_the_f32_path() {
        let mut rng = XorShiftRng::new(2);
        let (w0, b0, w1, b1) = toy_layers(&mut rng);
        let layers = [(&w0, &b0), (&w1, &b1)];
        let calib = Matrix::gaussian(32, 6, &mut rng);
        let q = QuantizedMatcher::calibrate(&layers, &calib, 3, 2).unwrap();
        let mut poisoned = Matrix::gaussian(3, 6, &mut rng);
        poisoned.row_mut(1)[2] = f32::NAN;
        poisoned.row_mut(2)[0] = f32::INFINITY;
        let probs = q.predict_features(&poisoned);
        assert!(probs.iter().all(|p| p.is_finite()), "{probs:?}");
        // A NaN cell scores exactly like the same cell zeroed.
        let mut zeroed = poisoned.clone();
        zeroed.row_mut(1)[2] = 0.0;
        zeroed.row_mut(2)[0] = 0.0;
        assert_eq!(probs, q.predict_features(&zeroed));
    }
}
