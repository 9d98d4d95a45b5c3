//! Diagonal Gaussian distributions and the distances VAER compares them
//! with.
//!
//! The paper represents every attribute value as `N(μ, σ)` with diagonal
//! covariance (§III-A) and compares representations with the squared
//! 2-Wasserstein distance of Eq. 3:
//!
//! ```text
//! W₂²(p, q) = Σᵢ (μᵢᵖ - μᵢ𝑞)² + (σᵢᵖ - σᵢ𝑞)²
//! ```

use rand::{Rng, RngExt};

/// A k-dimensional Gaussian with diagonal covariance.
///
/// `sigma` stores standard deviations (not variances), matching the
/// parameterisation used in the paper's Eq. 3.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagGaussian {
    /// Mean vector.
    pub mu: Vec<f32>,
    /// Per-dimension standard deviation (non-negative).
    pub sigma: Vec<f32>,
}

impl DiagGaussian {
    /// Creates a distribution; `mu` and `sigma` must have equal length.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn new(mu: Vec<f32>, sigma: Vec<f32>) -> Self {
        assert_eq!(mu.len(), sigma.len(), "mu/sigma length mismatch");
        Self { mu, sigma }
    }

    /// The standard normal `N(0, I)` in `k` dimensions.
    pub fn standard(k: usize) -> Self {
        Self {
            mu: vec![0.0; k],
            sigma: vec![1.0; k],
        }
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.mu.len()
    }

    /// Draws one sample via the reparameterisation `z = μ + σ ⊙ ε`,
    /// `ε ~ N(0, I)` — the paper's Sampling layer (§III-A).
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Vec<f32> {
        self.mu
            .iter()
            .zip(self.sigma.iter())
            .map(|(&m, &s)| m + s * standard_normal(rng))
            .collect()
    }
}

/// One standard-normal draw via Box–Muller.
pub fn standard_normal<R: Rng>(rng: &mut R) -> f32 {
    let u1: f32 = rng.random_range(f32::EPSILON..1.0);
    let u2: f32 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

/// Squared 2-Wasserstein distance between two diagonal Gaussians (Eq. 3).
///
/// # Panics
/// Panics if dimensions differ.
pub fn w2_squared(p: &DiagGaussian, q: &DiagGaussian) -> f32 {
    assert_eq!(p.dims(), q.dims(), "w2 dimension mismatch");
    w2_squared_slices((&p.mu, &p.sigma), (&q.mu, &q.sigma))
}

/// [`w2_squared`] over borrowed `(μ, σ)` rows: the μ term summed first,
/// then the σ term, each left to right. Latent caches call it on their
/// rows directly. Extra values of the longer row are ignored.
pub fn w2_squared_slices(p: (&[f32], &[f32]), q: (&[f32], &[f32])) -> f32 {
    let sq =
        |a: &[f32], b: &[f32]| -> f32 { a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum() };
    sq(p.0, q.0) + sq(p.1, q.1)
}

/// Per-dimension squared 2-Wasserstein contributions — the paper's
/// *Distance layer* vector `d⃗ = (μˢ-μᵗ)² + (σˢ-σᵗ)²` (§IV-A).
///
/// # Panics
/// Panics when the dimensionalities differ.
pub fn w2_vector(p: &DiagGaussian, q: &DiagGaussian) -> Vec<f32> {
    assert_eq!(p.dims(), q.dims(), "w2 dimension mismatch");
    p.mu.iter()
        .zip(q.mu.iter())
        .zip(p.sigma.iter().zip(q.sigma.iter()))
        .map(|((&mp, &mq), (&sp, &sq))| (mp - mq) * (mp - mq) + (sp - sq) * (sp - sq))
        .collect()
}

/// Symmetrised Mahalanobis-style distance between two diagonal Gaussians —
/// the alternative distance mentioned in §IV-A. Each squared mean
/// difference is scaled by the average of the two variances.
///
/// # Panics
/// Panics when the dimensionalities differ.
pub fn mahalanobis_squared(p: &DiagGaussian, q: &DiagGaussian) -> f32 {
    assert_eq!(p.dims(), q.dims(), "mahalanobis dimension mismatch");
    p.mu.iter()
        .zip(q.mu.iter())
        .zip(p.sigma.iter().zip(q.sigma.iter()))
        .map(|((&mp, &mq), (&sp, &sq))| {
            let var = 0.5 * (sp * sp + sq * sq) + 1e-6;
            (mp - mq) * (mp - mq) / var
        })
        .sum()
}

/// KL divergence `KL(q ‖ N(0, I))` for a diagonal Gaussian — the
/// regulariser of Eq. 2. `sigma` entries are standard deviations.
pub fn kl_to_standard(q: &DiagGaussian) -> f32 {
    q.mu.iter()
        .zip(q.sigma.iter())
        .map(|(&m, &s)| {
            let var = (s * s).max(1e-12);
            0.5 * (m * m + var - var.ln() - 1.0)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn g(mu: &[f32], sigma: &[f32]) -> DiagGaussian {
        DiagGaussian::new(mu.to_vec(), sigma.to_vec())
    }

    #[test]
    fn w2_identity_is_zero() {
        let p = g(&[1.0, 2.0], &[0.5, 0.7]);
        assert_eq!(w2_squared(&p, &p), 0.0);
    }

    #[test]
    fn w2_known_value() {
        let p = g(&[0.0, 0.0], &[1.0, 1.0]);
        let q = g(&[3.0, 4.0], &[1.0, 2.0]);
        // (9 + 16) + (0 + 1) = 26
        assert!((w2_squared(&p, &q) - 26.0).abs() < 1e-6);
    }

    #[test]
    fn w2_symmetric_and_vector_sums() {
        let p = g(&[1.0, -2.0, 0.5], &[0.1, 0.2, 0.3]);
        let q = g(&[0.0, 1.0, 2.0], &[0.4, 0.1, 0.2]);
        assert!((w2_squared(&p, &q) - w2_squared(&q, &p)).abs() < 1e-6);
        let v = w2_vector(&p, &q);
        assert_eq!(v.len(), 3);
        let sum: f32 = v.iter().sum();
        assert!((sum - w2_squared(&p, &q)).abs() < 1e-5);
        assert!(v.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn w2_positively_correlated_with_euclidean_means() {
        // The AL bootstrap (Alg. 1) relies on W₂ growing with the squared
        // Euclidean distance of the means when sigmas are equal.
        let base = g(&[0.0, 0.0], &[0.3, 0.3]);
        let near = g(&[0.1, 0.1], &[0.3, 0.3]);
        let far = g(&[2.0, 2.0], &[0.3, 0.3]);
        assert!(w2_squared(&base, &near) < w2_squared(&base, &far));
    }

    #[test]
    fn mahalanobis_scales_by_variance() {
        let tight = g(&[0.0], &[0.1]);
        let tight2 = g(&[1.0], &[0.1]);
        let wide = g(&[0.0], &[2.0]);
        let wide2 = g(&[1.0], &[2.0]);
        // Same mean gap is more significant under tighter variances.
        assert!(mahalanobis_squared(&tight, &tight2) > mahalanobis_squared(&wide, &wide2));
    }

    #[test]
    fn kl_zero_at_standard_and_positive_elsewhere() {
        let std2 = DiagGaussian::standard(2);
        assert!(kl_to_standard(&std2).abs() < 1e-6);
        let shifted = g(&[1.0, 0.0], &[1.0, 1.0]);
        assert!(kl_to_standard(&shifted) > 0.4);
        let squeezed = g(&[0.0], &[0.1]);
        assert!(kl_to_standard(&squeezed) > 0.0);
    }

    #[test]
    fn sampling_matches_moments() {
        let p = g(&[2.0, -1.0], &[0.5, 2.0]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = 20_000;
        let mut sum = [0.0f64; 2];
        let mut sumsq = [0.0f64; 2];
        for _ in 0..n {
            let z = p.sample(&mut rng);
            for d in 0..2 {
                sum[d] += z[d] as f64;
                sumsq[d] += (z[d] as f64) * (z[d] as f64);
            }
        }
        for d in 0..2 {
            let mean = sum[d] / n as f64;
            let var = sumsq[d] / n as f64 - mean * mean;
            assert!((mean - p.mu[d] as f64).abs() < 0.05, "mean[{d}] = {mean}");
            let expected_var = (p.sigma[d] * p.sigma[d]) as f64;
            assert!(
                (var - expected_var).abs() < 0.15 * expected_var.max(0.3),
                "var[{d}] = {var}"
            );
        }
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let p = g(&[0.0], &[1.0]);
        let q = DiagGaussian::standard(2);
        w2_squared(&p, &q);
    }
}
