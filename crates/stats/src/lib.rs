//! Probability and evaluation utilities for VAER.
//!
//! Everything statistical the paper needs outside the neural nets lives
//! here:
//!
//! - [`gaussian`] — diagonal Gaussians, the squared 2-Wasserstein distance
//!   of Eq. 3, the Mahalanobis alternative mentioned in §IV-A, and
//!   reparameterised sampling,
//! - [`kde`] — Gaussian kernel density estimation with Silverman's rule
//!   (used by the active-learning diversity score, Eq. 6),
//! - [`entropy`] — the binary prediction entropy of Eq. 5,
//! - [`metrics`] — precision/recall/F1 and recall@K as defined in §VI-A2,
//! - [`resample`] — bootstrap confidence intervals for honest comparisons
//!   on the scaled-down test sets.

pub mod entropy;
pub mod gaussian;
pub mod kde;
pub mod metrics;
pub mod resample;

/// Compares two sort keys as `partial_cmp` does, with every NaN after
/// every number and equal to any other NaN: a total order, so a sort by
/// it never panics and orders the numbers as `partial_cmp` would. Unlike
/// `f32::total_cmp` it keeps `-0.0 == +0.0` and puts a NaN last whatever
/// its sign bit.
pub fn nan_last(a: f32, b: f32) -> std::cmp::Ordering {
    a.partial_cmp(&b)
        .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}
