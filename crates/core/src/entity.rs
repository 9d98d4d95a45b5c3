//! Entity-level representations: one Gaussian per attribute.

use vaer_index::Points;
use vaer_linalg::Matrix;
use vaer_stats::gaussian::{w2_squared, DiagGaussian};

/// A tuple's representation: `m` diagonal Gaussians, one per attribute
/// (the `{(μ₁, σ₁), …, (μ_m, σ_m)}` of paper §III-A).
#[derive(Debug, Clone, PartialEq)]
pub struct EntityRepr {
    /// Per-attribute latent distributions.
    pub attrs: Vec<DiagGaussian>,
}

impl EntityRepr {
    /// Wraps per-attribute Gaussians.
    pub fn new(attrs: Vec<DiagGaussian>) -> Self {
        Self { attrs }
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Latent dimensionality per attribute.
    pub fn latent_dim(&self) -> usize {
        self.attrs.first().map_or(0, DiagGaussian::dims)
    }

    /// Concatenated mean vector (`arity · latent_dim`) — the key used for
    /// LSH search, justified by the paper's observation that W₂ is
    /// positively correlated with the Euclidean distance of the means.
    pub fn flat_mu(&self) -> Vec<f32> {
        self.mu_values().collect()
    }

    fn mu_values(&self) -> impl Iterator<Item = f32> + '_ {
        self.attrs.iter().flat_map(|g| g.mu.iter().copied())
    }

    /// Concatenated `(μ, σ)` sample via the reparameterisation trick — one
    /// plausible latent encoding of the whole tuple (used by the AL
    /// diversity estimator, Eq. 6).
    pub fn sample_flat<R: rand::Rng>(&self, rng: &mut R) -> Vec<f32> {
        self.attrs.iter().flat_map(|g| g.sample(rng)).collect()
    }

    /// Total squared 2-Wasserstein distance to another entity: the sum of
    /// attribute-wise W₂² terms (Eq. 3 applied per attribute).
    ///
    /// # Panics
    /// Panics on arity or latent-dimension mismatch.
    pub fn w2_squared(&self, other: &EntityRepr) -> f32 {
        assert_eq!(self.arity(), other.arity(), "entity arity mismatch");
        self.attrs
            .iter()
            .zip(other.attrs.iter())
            .map(|(a, b)| w2_squared(a, b))
            .sum()
    }

    /// Euclidean distance between concatenated means.
    pub fn mu_distance(&self, other: &EntityRepr) -> f32 {
        vaer_linalg::vector::euclidean(&self.flat_mu(), &other.flat_mu())
    }
}

/// The [`flat_mu`](EntityRepr::flat_mu) keys of a table as one flat point
/// set, built without a vector per row: the input of the E2LSH index.
pub(crate) fn mean_points(reprs: &[EntityRepr]) -> Points {
    let dims = reprs.first().map_or(0, |r| r.mu_values().count());
    let mut points = Points::with_capacity(dims, reprs.len());
    for r in reprs {
        points.push(r.mu_values());
    }
    points
}

/// Groups a flat batch of per-attribute Gaussians (row-major: tuple 0's
/// attributes, tuple 1's, …) into entity representations.
///
/// # Panics
/// Panics if `flat.len()` is not a multiple of `arity`.
pub fn group_entities(flat: Vec<DiagGaussian>, arity: usize) -> Vec<EntityRepr> {
    assert!(arity > 0, "arity must be positive");
    assert_eq!(
        flat.len() % arity,
        0,
        "flat length {} not divisible by arity {arity}",
        flat.len()
    );
    let mut out = Vec::with_capacity(flat.len() / arity);
    let mut iter = flat.into_iter();
    while let Some(first) = iter.next() {
        let mut attrs = Vec::with_capacity(arity);
        attrs.push(first);
        for _ in 1..arity {
            attrs.push(iter.next().expect("length checked above"));
        }
        out.push(EntityRepr::new(attrs));
    }
    out
}

/// The IR matrix of one table: `tuples · arity` rows, row-major per tuple
/// (tuple 0's attributes first). This is the layout every core component
/// exchanges — the VAE trains on all rows, the matcher selects
/// per-attribute slices, the AL loop selects per-tuple slices.
#[derive(Debug, Clone)]
pub struct IrTable {
    /// Attribute count per tuple.
    pub arity: usize,
    /// The stacked IRs (`tuples * arity` rows).
    pub irs: Matrix,
}

impl IrTable {
    /// Wraps a stacked IR matrix.
    ///
    /// # Panics
    /// Panics if the row count is not a multiple of `arity`.
    pub fn new(arity: usize, irs: Matrix) -> Self {
        assert!(arity > 0, "arity must be positive");
        assert_eq!(
            irs.rows() % arity,
            0,
            "{} rows not divisible by arity {arity}",
            irs.rows()
        );
        Self { arity, irs }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.irs.rows() / self.arity
    }

    /// Whether the table holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.irs.rows() == 0
    }

    /// IR dimensionality.
    pub fn ir_dim(&self) -> usize {
        self.irs.cols()
    }

    /// Gathers attribute `attr` of the given tuples into a `len x ir_dim`
    /// matrix (one matcher-encoder input).
    ///
    /// # Panics
    /// Panics when `attr` or a tuple index is out of range (indices are
    /// produced by the caller, so this is a programming error).
    pub fn attr_rows(&self, tuples: &[usize], attr: usize) -> Matrix {
        assert!(attr < self.arity, "attribute {attr} out of range");
        let rows: Vec<usize> = tuples.iter().map(|&t| t * self.arity + attr).collect();
        self.irs.select_rows(&rows)
    }

    /// All `arity` IR rows of one tuple as an `arity x ir_dim` matrix.
    pub fn tuple_rows(&self, tuple: usize) -> Matrix {
        self.irs
            .slice_rows(tuple * self.arity, (tuple + 1) * self.arity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn entity(mu0: f32) -> EntityRepr {
        EntityRepr::new(vec![
            DiagGaussian::new(vec![mu0, 0.0], vec![0.1, 0.1]),
            DiagGaussian::new(vec![0.0, mu0], vec![0.2, 0.2]),
        ])
    }

    #[test]
    fn shapes() {
        let e = entity(1.0);
        assert_eq!(e.arity(), 2);
        assert_eq!(e.latent_dim(), 2);
        assert_eq!(e.flat_mu(), vec![1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn w2_is_sum_over_attributes() {
        let a = entity(0.0);
        let b = entity(1.0);
        // Attribute 1: μ diff (1,0) → 1; attribute 2: μ diff (0,1) → 1.
        assert!((a.w2_squared(&b) - 2.0).abs() < 1e-6);
        assert_eq!(a.w2_squared(&a), 0.0);
    }

    #[test]
    fn mu_distance_matches_flat_euclidean() {
        let a = entity(0.0);
        let b = entity(2.0);
        assert!((a.mu_distance(&b) - (8.0f32).sqrt()).abs() < 1e-5);
    }

    #[test]
    fn sampling_varies_but_centres_on_mu() {
        let e = entity(1.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let s1 = e.sample_flat(&mut rng);
        let s2 = e.sample_flat(&mut rng);
        assert_eq!(s1.len(), 4);
        assert_ne!(s1, s2);
        // Mean of many samples approaches flat_mu.
        let mut acc = [0.0f32; 4];
        let n = 2000;
        for _ in 0..n {
            for (a, v) in acc.iter_mut().zip(e.sample_flat(&mut rng)) {
                *a += v;
            }
        }
        for (a, m) in acc.iter().zip(e.flat_mu()) {
            assert!((a / n as f32 - m).abs() < 0.05);
        }
    }

    #[test]
    fn grouping() {
        let flat: Vec<DiagGaussian> = (0..6)
            .map(|i| DiagGaussian::new(vec![i as f32], vec![1.0]))
            .collect();
        let grouped = group_entities(flat, 3);
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[1].attrs[0].mu, vec![3.0]);
    }

    #[test]
    #[should_panic]
    fn grouping_requires_divisible_length() {
        let flat: Vec<DiagGaussian> = vec![DiagGaussian::standard(2); 5];
        group_entities(flat, 3);
    }

    #[test]
    fn ir_table_access() {
        // 2 tuples, arity 3, ir_dim 2; row value encodes (tuple, attr).
        let data: Vec<f32> = (0..6)
            .flat_map(|i| vec![i as f32, 10.0 + i as f32])
            .collect();
        let t = IrTable::new(3, Matrix::from_vec(6, 2, data));
        assert_eq!(t.len(), 2);
        assert_eq!(t.ir_dim(), 2);
        let a1 = t.attr_rows(&[0, 1], 1);
        assert_eq!(a1.row(0), &[1.0, 11.0]); // tuple 0, attr 1 = flat row 1
        assert_eq!(a1.row(1), &[4.0, 14.0]); // tuple 1, attr 1 = flat row 4
        let tup = t.tuple_rows(1);
        assert_eq!(tup.shape(), (3, 2));
        assert_eq!(tup.row(0), &[3.0, 13.0]);
    }

    #[test]
    #[should_panic]
    fn ir_table_rejects_ragged() {
        IrTable::new(3, Matrix::zeros(5, 2));
    }
}
