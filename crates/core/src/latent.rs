//! The frozen-encoder latent cache.
//!
//! Encoding a candidate pool through the VAE encoder is the dominant
//! repeated cost of the active-learning loop: every iteration used to
//! re-encode the same IR rows to score the pool, rebuild Wasserstein
//! features, and re-seed the bootstrap structures. But the
//! representation model is *frozen* after unsupervised training (Fig. 1
//! decouples the stages), so its `(μ, σ)` outputs per IR row never
//! change. A [`LatentTable`] materialises them once per table and is
//! then reused by the AL loop, pipeline resolution, and the matcher's
//! Wasserstein-feature construction.
//!
//! # Lifecycle
//!
//! 1. **Build** — [`LatentTable::encode`] runs exactly one encoder pass
//!    over a table's IRs (counted by [`crate::repr::encode_calls`]) and
//!    records the model's [`fingerprint`](crate::repr::ReprModel::fingerprint).
//! 2. **Reuse** — index into the cached `(μ, σ)` rows:
//!    [`attr_rows`](LatentTable::attr_rows) for matcher features,
//!    [`entities`](LatentTable::entities) for bootstrap/KDE structures,
//!    [`distance_features`] for the matcher's Distance layer.
//! 3. **Invalidate** — the cache is valid only for the weights it was
//!    built from. [`LatentTable::is_stale`] compares fingerprints;
//!    [`LatentTable::refresh`] re-encodes when a transferred or
//!    fine-tuned model replaces the original (see [`crate::transfer`]).
//!
//! Cached values are **bit-identical** to re-encoding: encoder outputs
//! are row-independent, and the feature arithmetic below mirrors the
//! tape ops of [`SiameseMatcher`](crate::matcher::SiameseMatcher)
//! expression for expression.

use crate::entity::{EntityRepr, IrTable};
use crate::matcher::DistanceKind;
use crate::repr::ReprModel;
use vaer_linalg::{distance_row, DistanceOp, Matrix};
use vaer_stats::gaussian::DiagGaussian;

/// Cached `(μ, σ)` encodings of one table's IR rows, in IR-row order
/// (`tuples · arity` rows, tuple-major — the [`IrTable`] layout).
#[derive(Debug, Clone)]
pub struct LatentTable {
    arity: usize,
    mu: Matrix,
    sigma: Matrix,
    fingerprint: u64,
}

impl LatentTable {
    /// Encodes a whole table in **one** encoder pass and caches the
    /// result, stamped with the model's current fingerprint.
    pub fn encode(repr: &ReprModel, table: &IrTable) -> Self {
        crate::obs::handles().cache_builds.incr();
        let (mu, sigma) = repr.encode_matrices(&table.irs);
        Self {
            arity: table.arity,
            mu,
            sigma,
            fingerprint: repr.fingerprint(),
        }
    }

    /// Number of tuples covered.
    pub fn len(&self) -> usize {
        self.mu.rows() / self.arity
    }

    /// Whether the table covers no tuples.
    pub fn is_empty(&self) -> bool {
        self.mu.rows() == 0
    }

    /// Attribute count per tuple.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Latent dimensionality per attribute.
    pub fn latent_dim(&self) -> usize {
        self.mu.cols()
    }

    /// The fingerprint of the model this cache was built from.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Whether `repr`'s weights differ from the weights this cache was
    /// built from (in which case every cached value is invalid).
    pub fn is_stale(&self, repr: &ReprModel) -> bool {
        self.fingerprint != repr.fingerprint()
    }

    /// Returns a cache valid for `repr`: `self` if still fresh, else a
    /// re-encode of `table` — the invalidation hook transfer uses after
    /// swapping representation models.
    pub fn refresh(self, repr: &ReprModel, table: &IrTable) -> Self {
        if self.is_stale(repr) {
            crate::obs::handles().cache_invalidations.incr();
            Self::encode(repr, table)
        } else {
            crate::obs::handles().cache_hits.incr();
            self
        }
    }

    /// Gathers attribute `attr` of the given tuples as `(μ, σ)` matrices
    /// of shape `tuples.len() x latent_dim` — the cached equivalent of
    /// encoding [`IrTable::attr_rows`].
    ///
    /// # Panics
    /// Panics when `attr` or a tuple index is out of range (indices are
    /// produced by the caller, so this is a programming error).
    pub fn attr_rows(&self, tuples: &[usize], attr: usize) -> (Matrix, Matrix) {
        assert!(attr < self.arity, "attribute {attr} out of range");
        crate::obs::handles().cache_reads.add(tuples.len() as u64);
        let rows: Vec<usize> = tuples.iter().map(|&t| t * self.arity + attr).collect();
        (self.mu.select_rows(&rows), self.sigma.select_rows(&rows))
    }

    /// Reconstructs per-tuple [`EntityRepr`]s (bootstrap, KDE sampling,
    /// and the retrieval reports consume this form) without touching the
    /// encoder.
    pub fn entities(&self) -> Vec<EntityRepr> {
        (0..self.len())
            .map(|t| {
                let attrs = (0..self.arity)
                    .map(|a| {
                        let row = t * self.arity + a;
                        DiagGaussian::new(self.mu.row(row).to_vec(), self.sigma.row(row).to_vec())
                    })
                    .collect();
                EntityRepr::new(attrs)
            })
            .collect()
    }
}

/// Element count above which [`distance_features`] shards output rows
/// across the worker pool (rows are independent, so parallel results are
/// bit-identical to serial).
const PAR_ELEM_CUTOFF: usize = 1 << 17;

/// Minimum output rows per shard for parallel feature construction.
const MIN_ROWS_PER_SHARD: usize = 8;

/// Builds the matcher's concatenated Distance-layer features for `pairs`
/// from two latent caches: `n x (arity · latent_dim)`, one attribute
/// block per [`DistanceKind`] distance vector.
///
/// Each output row is one fused pass over the cached `(μ, σ)` rows via
/// the [`vaer_linalg::distance_row`] SIMD kernels, which preserve the
/// exact per-element operation sequence of the historical matrix-op
/// construction (difference, square, halved-sum-plus-epsilon, divide) —
/// so the result is bit-identical to running the frozen encoder inside
/// `SiameseMatcher` on the pairs' IR rows, per element, at any thread
/// count and on every dispatch path.
///
/// # Panics
/// Panics when the caches disagree on arity or a pair indexes past
/// either cache.
pub fn distance_features(
    kind: DistanceKind,
    a: &LatentTable,
    b: &LatentTable,
    pairs: &[(usize, usize)],
) -> Matrix {
    assert_eq!(a.arity, b.arity, "tables must share arity");
    let arity = a.arity;
    let latent = a.latent_dim();
    let width = arity * latent;
    let mut out = Matrix::zeros(pairs.len(), width);
    // Same cache-read accounting as the attr_rows gather it replaces:
    // two tables x arity attributes x pairs.len() tuples.
    crate::obs::handles()
        .cache_reads
        .add(2 * (arity * pairs.len()) as u64);
    let op = match kind {
        DistanceKind::W2 => DistanceOp::W2,
        DistanceKind::MuOnly => DistanceOp::MuOnly,
        DistanceKind::SigmaOnly => DistanceOp::SigmaOnly,
        DistanceKind::Mahalanobis => DistanceOp::Mahalanobis,
    };
    let n = pairs.len();
    let min_rows = if n * width >= PAR_ELEM_CUTOFF {
        MIN_ROWS_PER_SHARD
    } else {
        n.max(1)
    };
    vaer_linalg::runtime::for_each_row_shard_mut(
        out.as_mut_slice(),
        n,
        width,
        min_rows,
        |rows, chunk| {
            for i in rows.clone() {
                let (l, r) = pairs[i];
                let orow = &mut chunk[(i - rows.start) * width..(i - rows.start) * width + width];
                for attr in 0..arity {
                    let s = l * arity + attr;
                    let t = r * arity + attr;
                    distance_row(
                        op,
                        a.mu.row(s),
                        b.mu.row(t),
                        a.sigma.row(s),
                        b.sigma.row(t),
                        &mut orow[attr * latent..(attr + 1) * latent],
                    );
                }
            }
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repr::ReprConfig;
    use vaer_linalg::XorShiftRng;

    fn toy_table(n_tuples: usize, arity: usize, ir_dim: usize, seed: u64) -> IrTable {
        let mut rng = XorShiftRng::new(seed);
        IrTable::new(arity, Matrix::gaussian(n_tuples * arity, ir_dim, &mut rng))
    }

    fn toy_model(irs: &IrTable) -> ReprModel {
        let (model, _) = ReprModel::train(&irs.irs, &ReprConfig::fast(irs.ir_dim())).unwrap();
        model
    }

    #[test]
    fn cached_latents_match_direct_encoding_bitwise() {
        let table = toy_table(12, 2, 8, 1);
        let model = toy_model(&table);
        let lat = LatentTable::encode(&model, &table);
        assert_eq!(lat.len(), 12);
        assert_eq!(lat.arity(), 2);
        let direct = model.encode(&table.irs);
        let ents = lat.entities();
        assert_eq!(ents.len(), 12);
        for (t, ent) in ents.iter().enumerate() {
            for (a, g) in ent.attrs.iter().enumerate() {
                assert_eq!(g.mu, direct[t * 2 + a].mu, "mu tuple {t} attr {a}");
                assert_eq!(g.sigma, direct[t * 2 + a].sigma, "sigma tuple {t} attr {a}");
            }
        }
        // attr_rows agrees with encoding the gathered IR rows directly.
        let tuples = [3usize, 0, 7];
        let (mu, sigma) = lat.attr_rows(&tuples, 1);
        let (dmu, dsigma) = model.encode_matrices(&table.attr_rows(&tuples, 1));
        assert_eq!(mu.as_slice(), dmu.as_slice());
        assert_eq!(sigma.as_slice(), dsigma.as_slice());
    }

    #[test]
    fn staleness_tracks_model_weights() {
        let table = toy_table(8, 2, 8, 2);
        let model = toy_model(&table);
        let lat = LatentTable::encode(&model, &table);
        assert!(!lat.is_stale(&model));
        // A differently-trained model must invalidate the cache.
        let other_irs = toy_table(8, 2, 8, 99);
        let other = toy_model(&other_irs);
        assert!(lat.is_stale(&other));
        crate::repr::reset_encode_calls();
        let same = lat.clone().refresh(&model, &table);
        assert_eq!(crate::repr::encode_calls(), 0, "fresh cache re-encoded");
        assert!(!same.is_stale(&model));
        let rebuilt = lat.refresh(&other, &table);
        assert_eq!(crate::repr::encode_calls(), 1, "stale cache not re-encoded");
        assert!(!rebuilt.is_stale(&other));
    }

    #[test]
    fn fused_distance_features_match_matrix_op_construction_bitwise() {
        // The SIMD kernels replaced a pipeline of whole-matrix
        // temporaries; this pins the fused path to that historical
        // construction bit for bit, for every DistanceKind.
        let ta = toy_table(10, 2, 8, 5);
        let tb = toy_table(9, 2, 8, 6);
        let model = toy_model(&ta);
        let la = LatentTable::encode(&model, &ta);
        let lb = LatentTable::encode(&model, &tb);
        let pairs: Vec<(usize, usize)> =
            (0..10).flat_map(|l| (0..9).map(move |r| (l, r))).collect();
        for kind in [
            DistanceKind::W2,
            DistanceKind::MuOnly,
            DistanceKind::SigmaOnly,
            DistanceKind::Mahalanobis,
        ] {
            let fused = distance_features(kind, &la, &lb, &pairs);
            let lefts: Vec<usize> = pairs.iter().map(|&(l, _)| l).collect();
            let rights: Vec<usize> = pairs.iter().map(|&(_, r)| r).collect();
            let latent = la.latent_dim();
            let mut want = Matrix::zeros(pairs.len(), la.arity() * latent);
            for attr in 0..la.arity() {
                let (mu_s, sig_s) = la.attr_rows(&lefts, attr);
                let (mu_t, sig_t) = lb.attr_rows(&rights, attr);
                let mu_diff = mu_s.sub(&mu_t);
                let mu_sq = mu_diff.hadamard(&mu_diff);
                let sig_diff = sig_s.sub(&sig_t);
                let sig_sq = sig_diff.hadamard(&sig_diff);
                let d = match kind {
                    DistanceKind::W2 => mu_sq.add(&sig_sq),
                    DistanceKind::MuOnly => mu_sq,
                    DistanceKind::SigmaOnly => sig_sq,
                    DistanceKind::Mahalanobis => {
                        let var_s = sig_s.hadamard(&sig_s);
                        let var_t = sig_t.hadamard(&sig_t);
                        let var = var_s.add(&var_t).scale(0.5).map(|x| x + 1e-4);
                        mu_sq.zip_with(&var, |m, v| m / v)
                    }
                };
                let offset = attr * latent;
                for i in 0..pairs.len() {
                    want.row_mut(i)[offset..offset + latent].copy_from_slice(d.row(i));
                }
            }
            let fused_bits: Vec<u32> = fused.as_slice().iter().map(|v| v.to_bits()).collect();
            let want_bits: Vec<u32> = want.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(fused_bits, want_bits, "{kind:?}");
        }
    }

    #[test]
    fn empty_table_is_handled() {
        let table = IrTable::new(2, Matrix::zeros(0, 8));
        let dummy = toy_table(4, 2, 8, 3);
        let model = toy_model(&dummy);
        let lat = LatentTable::encode(&model, &table);
        assert!(lat.is_empty());
        assert_eq!(lat.len(), 0);
        assert!(lat.entities().is_empty());
        let f = distance_features(DistanceKind::W2, &lat, &lat, &[]);
        assert_eq!(f.rows(), 0);
    }
}
