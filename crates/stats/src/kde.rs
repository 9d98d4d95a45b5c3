//! Univariate Gaussian kernel density estimation.
//!
//! The active-learning sampler (paper §V-B3, Eq. 6) estimates the density
//! `f̂⁺(d)` of Euclidean distances between sampled duplicate
//! representations, then scores unlabeled candidates by how likely their
//! distance is under that density. Bandwidth defaults to Silverman's rule
//! of thumb (Silverman 1986), the reference the paper cites.

/// A fitted univariate Gaussian KDE.
#[derive(Debug, Clone)]
pub struct Kde {
    points: Vec<f32>,
    bandwidth: f32,
    /// The largest density over the support points, the normaliser of
    /// [`Kde::relative_density`]; computed once when the KDE is fitted.
    peak: f32,
}

impl Kde {
    /// Fits a KDE with Silverman's rule-of-thumb bandwidth
    /// `h = 0.9 · min(σ̂, IQR/1.34) · n^(-1/5)`.
    ///
    /// Returns `None` for an empty sample. Degenerate samples (all points
    /// identical) get a small floor bandwidth so the density stays proper.
    pub fn fit(samples: &[f32]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len() as f32;
        let mean = samples.iter().sum::<f32>() / n;
        let std = (samples
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f32>()
            / n)
            .sqrt();
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let iqr = percentile(&sorted, 0.75) - percentile(&sorted, 0.25);
        let spread = if iqr > 0.0 { std.min(iqr / 1.34) } else { std };
        let bandwidth = (0.9 * spread * n.powf(-0.2)).max(1e-3);
        Some(Self::with_points(samples.to_vec(), bandwidth))
    }

    /// Fits with an explicit bandwidth (must be positive).
    ///
    /// # Panics
    /// Panics if `bandwidth <= 0`.
    pub fn with_bandwidth(samples: &[f32], bandwidth: f32) -> Option<Self> {
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        if samples.is_empty() {
            return None;
        }
        Some(Self::with_points(samples.to_vec(), bandwidth))
    }

    /// The KDE over `points` with its relative-density peak: n density
    /// evaluations over n points, paid here once instead of per query.
    fn with_points(points: Vec<f32>, bandwidth: f32) -> Self {
        let mut kde = Self {
            points,
            bandwidth,
            peak: 0.0,
        };
        kde.peak = kde
            .points
            .iter()
            .map(|&p| kde.density(p))
            .fold(0.0f32, f32::max);
        kde
    }

    /// The bandwidth in use.
    pub fn bandwidth(&self) -> f32 {
        self.bandwidth
    }

    /// Number of support points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the KDE has no support points (never true for a fitted KDE).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Density estimate `f̂(x)`.
    pub fn density(&self, x: f32) -> f32 {
        let h = self.bandwidth;
        let norm = 1.0 / ((self.points.len() as f32) * h * (std::f32::consts::TAU).sqrt());
        self.points
            .iter()
            .map(|&p| {
                let u = (x - p) / h;
                (-0.5 * u * u).exp()
            })
            .sum::<f32>()
            * norm
    }

    /// Density normalised so the modal support point scores ≈ 1; handy as
    /// a bounded likelihood score in the AL sampler.
    pub fn relative_density(&self, x: f32) -> f32 {
        if self.peak <= f32::EPSILON {
            0.0
        } else {
            (self.density(x) / self.peak).min(1.0)
        }
    }
}

fn percentile(sorted: &[f32], q: f32) -> f32 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f32;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f32;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_peaks_near_data() {
        let kde = Kde::fit(&[0.0, 0.1, -0.1, 0.05, -0.05]).unwrap();
        assert!(kde.density(0.0) > kde.density(2.0));
        assert!(kde.density(0.0) > kde.density(-2.0));
    }

    #[test]
    fn density_integrates_to_one() {
        let kde = Kde::fit(&[1.0, 2.0, 3.0, 2.5, 1.5]).unwrap();
        // Trapezoidal integration over a generous range.
        let (lo, hi, steps) = (-5.0f32, 10.0f32, 3000);
        let dx = (hi - lo) / steps as f32;
        let integral: f32 = (0..=steps)
            .map(|i| {
                let x = lo + i as f32 * dx;
                let w = if i == 0 || i == steps { 0.5 } else { 1.0 };
                w * kde.density(x)
            })
            .sum::<f32>()
            * dx;
        assert!((integral - 1.0).abs() < 0.02, "integral {integral}");
    }

    #[test]
    fn empty_sample_returns_none() {
        assert!(Kde::fit(&[]).is_none());
        assert!(Kde::with_bandwidth(&[], 1.0).is_none());
    }

    #[test]
    fn degenerate_sample_has_floor_bandwidth() {
        let kde = Kde::fit(&[2.0, 2.0, 2.0]).unwrap();
        assert!(kde.bandwidth() >= 1e-3);
        assert!(kde.density(2.0).is_finite());
    }

    #[test]
    fn relative_density_bounded() {
        let kde = Kde::fit(&[0.0, 1.0, 2.0, 1.0, 1.0]).unwrap();
        for x in [-3.0f32, 0.0, 1.0, 2.0, 5.0] {
            let r = kde.relative_density(x);
            assert!((0.0..=1.0).contains(&r), "relative density {r} at {x}");
        }
        assert!(kde.relative_density(1.0) > kde.relative_density(5.0));
    }

    #[test]
    fn cached_peak_matches_the_per_call_fold_bitwise() {
        // The peak as `relative_density` folded it on every call.
        let per_call = |kde: &Kde, x: f32| {
            let peak = kde
                .points
                .iter()
                .map(|&p| kde.density(p))
                .fold(0.0f32, f32::max);
            if peak <= f32::EPSILON {
                0.0
            } else {
                (kde.density(x) / peak).min(1.0)
            }
        };
        use rand::{RngExt, SeedableRng};
        for seed in [1u64, 7, 42] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let samples: Vec<f32> = (0..200).map(|_| rng.random_range(0.0f32..3.0)).collect();
            let fitted = Kde::fit(&samples).unwrap();
            let fixed = Kde::with_bandwidth(&samples, 0.05).unwrap();
            for kde in [&fitted, &fixed] {
                for _ in 0..100 {
                    let x = rng.random_range(-1.0f32..4.0);
                    assert_eq!(
                        kde.relative_density(x).to_bits(),
                        per_call(kde, x).to_bits(),
                        "seed {seed}, x {x}"
                    );
                }
            }
        }
    }

    #[test]
    fn explicit_bandwidth_respected() {
        let kde = Kde::with_bandwidth(&[0.0], 0.5).unwrap();
        assert_eq!(kde.bandwidth(), 0.5);
        assert_eq!(kde.len(), 1);
    }

    #[test]
    #[should_panic]
    fn non_positive_bandwidth_panics() {
        Kde::with_bandwidth(&[1.0], 0.0);
    }
}
