//! The frozen-encoder latent cache: the one in-memory form of a table's
//! encodings.
//!
//! Encoding a candidate pool through the VAE encoder is the dominant
//! repeated cost of the active-learning loop: every iteration used to
//! re-encode the same IR rows to score the pool, rebuild Wasserstein
//! features, and re-seed the bootstrap structures. But the
//! representation model is *frozen* after unsupervised training (Fig. 1
//! decouples the stages), so its `(μ, σ)` outputs per IR row never
//! change. A [`LatentTable`] materialises them once per table, and every
//! consumer reads its rows in place: no per-tuple copy exists.
//!
//! # Lifecycle
//!
//! 1. **Build** — [`LatentTable::encode`] runs exactly one encoder pass
//!    over a table's IRs (counted by [`crate::repr::encode_calls`]) and
//!    records the model's [`fingerprint`](crate::repr::ReprModel::fingerprint).
//! 2. **Reuse** — index into the cached `(μ, σ)` rows:
//!    [`attr_rows`](LatentTable::attr_rows) for matcher features,
//!    [`distance_features`] for the matcher's Distance layer, and the
//!    tuples' μ rows ([`mu_rows`](LatentTable::mu_rows),
//!    [`mu_points`](LatentTable::mu_points)) for the blocking and
//!    bootstrap joins and the top-K report, which also rank by the cached
//!    Eq. 3 W₂²; Algorithm 2 draws its Eq. 6 samples from the same rows.
//! 3. **Invalidate** — the cache is valid only for the weights it was
//!    built from. [`LatentTable::is_stale`] compares fingerprints;
//!    [`LatentTable::refresh`] re-encodes when a transferred or
//!    fine-tuned model replaces the original (see [`crate::transfer`]).
//!
//! Cached values are **bit-identical** to re-encoding: encoder outputs
//! are row-independent, and the feature arithmetic below mirrors the
//! tape ops of [`SiameseMatcher`](crate::matcher::SiameseMatcher)
//! expression for expression.

use crate::entity::IrTable;
use crate::matcher::DistanceKind;
use crate::repr::ReprModel;
use vaer_index::Points;
use vaer_linalg::{distance_row, DistanceOp, Matrix};
use vaer_stats::gaussian::{standard_normal, w2_squared_slices};

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

    /// Where tuple `t`'s `arity · latent_dim` values sit in the
    /// tuple-major `mu` and `sigma` data.
    fn tuple_span(&self, t: usize) -> std::ops::Range<usize> {
        let width = self.arity * self.latent_dim();
        t * width..(t + 1) * width
    }

    /// Tuple `t`'s μ row: its attributes' means side by side, one slice
    /// of the cache. Blocking and Algorithm 1 search on it, since W₂
    /// grows with the Euclidean distance of the means (paper §V-A).
    ///
    /// # Panics
    /// Panics when `t` is not below [`len`](Self::len).
    pub(crate) fn mu_row(&self, t: usize) -> &[f32] {
        &self.mu.as_slice()[self.tuple_span(t)]
    }

    /// Every tuple's μ row (its attributes' means side by side, one slice
    /// of the cache), in tuple order: the queries of a join.
    pub fn mu_rows(&self) -> Vec<&[f32]> {
        (0..self.len()).map(|t| self.mu_row(t)).collect()
    }

    /// The μ rows copied into an index point set.
    pub fn mu_points(&self) -> Points {
        Points::from(&self.mu_rows()[..])
    }

    /// The W₂² between tuple `l` of this table and tuple `r` of `other`:
    /// Eq. 3 per attribute, summed over the attributes in order.
    pub(crate) fn w2_squared(&self, l: usize, other: &LatentTable, r: usize) -> f32 {
        (0..self.arity)
            .map(|a| {
                let (s, t) = (l * self.arity + a, r * other.arity + a);
                w2_squared_slices(
                    (self.mu.row(s), self.sigma.row(s)),
                    (other.mu.row(t), other.sigma.row(t)),
                )
            })
            .sum()
    }

    /// Writes one reparameterised sample of tuple `t`, `μ + σ ⊙ ε` over
    /// all its attributes (Eq. 6), into `out`, drawing `ε` in row order.
    pub(crate) fn sample_into<R: rand::Rng>(&self, t: usize, rng: &mut R, out: &mut [f32]) {
        let span = self.tuple_span(t);
        let rows = self.mu.as_slice()[span.clone()]
            .iter()
            .zip(&self.sigma.as_slice()[span]);
        for (z, (&m, &s)) in out.iter_mut().zip(rows) {
            *z = m + s * standard_normal(rng);
        }
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

    impl LatentTable {
        /// A cache over given `(μ, σ)` rows (`tuples · arity` each), for
        /// tests that need exact latents without a model.
        pub(crate) fn from_matrices(arity: usize, mu: Matrix, sigma: Matrix) -> Self {
            Self {
                arity,
                mu,
                sigma,
                fingerprint: 0,
            }
        }
    }

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
        // A tuple's μ row is its attributes' encoder rows side by side.
        let (mu, _) = model.encode_matrices(&table.irs);
        let width = 2 * lat.latent_dim();
        let rows = lat.mu_rows();
        assert_eq!(rows.len(), 12);
        for (t, row) in rows.iter().enumerate() {
            assert_eq!(
                *row,
                &mu.as_slice()[t * width..(t + 1) * width],
                "tuple {t}"
            );
            assert_eq!(lat.mu_points().row(t), *row, "point {t}");
        }
        // attr_rows agrees with encoding the gathered IR rows directly.
        let tuples = [3usize, 0, 7];
        let (mu, sigma) = lat.attr_rows(&tuples, 1);
        let (dmu, dsigma) = model.encode_matrices(&table.attr_rows(&tuples, 1));
        assert_eq!(mu.as_slice(), dmu.as_slice());
        assert_eq!(sigma.as_slice(), dsigma.as_slice());
    }

    #[test]
    fn w2_and_samples_keep_the_per_attribute_gaussian_arithmetic() {
        use rand::SeedableRng;
        use vaer_stats::gaussian::{w2_squared, DiagGaussian};
        let (ta, tb) = (toy_table(6, 3, 8, 11), toy_table(5, 3, 8, 12));
        let model = toy_model(&ta);
        let (la, lb) = (
            LatentTable::encode(&model, &ta),
            LatentTable::encode(&model, &tb),
        );
        // One Gaussian per attribute row, as the paper writes a tuple.
        let gaussians = |lat: &LatentTable, t: usize| -> Vec<DiagGaussian> {
            (t * lat.arity..(t + 1) * lat.arity)
                .map(|row| DiagGaussian::new(lat.mu.row(row).to_vec(), lat.sigma.row(row).to_vec()))
                .collect()
        };
        for l in 0..la.len() {
            for r in 0..lb.len() {
                let (ga, gb) = (gaussians(&la, l), gaussians(&lb, r));
                let want: f32 = ga.iter().zip(&gb).map(|(p, q)| w2_squared(p, q)).sum();
                assert_eq!(
                    la.w2_squared(l, &lb, r).to_bits(),
                    want.to_bits(),
                    "({l}, {r})"
                );
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut twin = rand::rngs::StdRng::seed_from_u64(5);
        let mut z = vec![0.0; la.mu_row(0).len()];
        for t in [2, 0, 5, 2] {
            la.sample_into(t, &mut rng, &mut z);
            let want: Vec<f32> = gaussians(&la, t)
                .iter()
                .flat_map(|g| g.sample(&mut twin))
                .collect();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&z), bits(&want), "tuple {t}");
        }
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
        assert!(lat.mu_rows().is_empty() && lat.mu_points().is_empty());
        let f = distance_features(DistanceKind::W2, &lat, &lat, &[]);
        assert_eq!(f.rows(), 0);
    }
}

/// Golden digests of Algorithm 1 and the top-K report over latent caches
/// built straight from seeded matrices: no model, no training, no worker
/// count. Each case folds `bootstrap`'s positives, negatives and pool, the
/// `topk_eval_vae` reports at several `k` and the `recall_at_k_vae`
/// values into FNV-1a digests. They were recorded while bootstrap and the
/// report still read per-tuple copies of the caches, so any change to the
/// candidate join, the W₂² keys, their fold order, tie order among equal
/// keys (equal-W₂ cases below), the seed split or the report's
/// retrieval rule shows up here. No input holds a NaN.
#[cfg(test)]
mod golden {
    use super::LatentTable;
    use crate::active::{bootstrap, BootstrapConfig};
    use crate::evaluation::{recall_at_k_vae, topk_eval_vae};
    use crate::repr::fnv1a;
    use vaer_data::{LabeledPair, PairSet};
    use vaer_linalg::{Matrix, XorShiftRng};

    /// A cache over seeded `(μ, σ)` rows. The first `dups` tuples copy
    /// `like`'s with a little noise; `grid` rounds every value to a coarse
    /// grid so that many W₂² keys tie exactly.
    fn cache(
        n: usize,
        arity: usize,
        dim: usize,
        rng: &mut XorShiftRng,
        like: Option<(&LatentTable, usize)>,
        grid: bool,
    ) -> LatentTable {
        let rows = n * arity;
        let mut mu = Matrix::gaussian(rows, dim, rng);
        let mut sigma = Matrix::uniform(rows, dim, 0.05, 1.0, rng);
        if let Some((src, dups)) = like {
            for row in 0..dups.min(n) * arity {
                for j in 0..dim {
                    mu.set(row, j, src.mu.get(row, j) + 0.1 * rng.gaussian());
                    sigma.set(row, j, src.sigma.get(row, j));
                }
            }
        }
        if grid {
            mu = mu.map(|x| (x * 2.0).round() / 2.0);
            sigma = sigma.map(|s| if s < 0.5 { 0.25 } else { 0.5 });
        }
        LatentTable::from_matrices(arity, mu, sigma)
    }

    fn words(out: &mut Vec<u8>, pairs: &[(usize, usize)]) -> u64 {
        out.clear();
        out.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
        for &(l, r) in pairs {
            out.extend_from_slice(&(l as u64).to_le_bytes());
            out.extend_from_slice(&(r as u64).to_le_bytes());
        }
        fnv1a(out)
    }

    struct Case {
        name: &'static str,
        sizes: (usize, usize),
        arity: usize,
        dim: usize,
        seed: u64,
        grid: bool,
        config: BootstrapConfig,
        /// `(positives, negatives, pool, top-K reports, recall@K)`.
        want: [u64; 5],
    }

    fn small_config() -> BootstrapConfig {
        BootstrapConfig {
            neighbours_k: 3,
            seeds_per_class: 4,
            seed: 7,
        }
    }

    #[test]
    fn bootstrap_and_topk_reports_match_recorded_digests() {
        let cases = [
            Case {
                name: "40x40 arity 2",
                sizes: (40, 40),
                arity: 2,
                dim: 8,
                seed: 1,
                grid: false,
                config: BootstrapConfig::default(),
                want: [
                    0x4f06_e967_7562_274a,
                    0xc8de_114a_0a0b_21ee,
                    0xbbb5_fbc4_c689_2319,
                    0x10d1_53f3_ef50_08d0,
                    0x3e51_a653_6678_e71d,
                ],
            },
            Case {
                name: "25x60 arity 3",
                sizes: (25, 60),
                arity: 3,
                dim: 4,
                seed: 2,
                grid: false,
                config: small_config(),
                want: [
                    0x0d0d_b4a3_18a8_7e41,
                    0xd357_3836_c76a_1bfe,
                    0xe3be_dfda_4a2e_1f32,
                    0xb8bd_8bf5_b71f_575b,
                    0x0bb2_84a6_85d2_4c73,
                ],
            },
            Case {
                name: "equal-W2 ties",
                sizes: (30, 30),
                arity: 1,
                dim: 2,
                seed: 3,
                grid: true,
                config: BootstrapConfig::default(),
                want: [
                    0x8cb8_ca06_a054_b4ea,
                    0x16b5_cc30_5f5c_29c1,
                    0x4b86_9736_d864_e33a,
                    0x116d_ed99_dd06_1861,
                    0x5c08_dd26_5c68_3f94,
                ],
            },
            Case {
                name: "equal-W2 ties, arity 2",
                sizes: (24, 36),
                arity: 2,
                dim: 1,
                seed: 4,
                grid: true,
                config: small_config(),
                want: [
                    0xf56c_ddc1_5b74_ae81,
                    0x26e7_fdea_a490_497c,
                    0xf065_d539_5511_f5c0,
                    0x0df6_ecaa_4b76_4d01,
                    0x1014_fc78_0d49_4432,
                ],
            },
            Case {
                name: "k above rows",
                sizes: (7, 5),
                arity: 2,
                dim: 6,
                seed: 5,
                grid: false,
                config: BootstrapConfig::default(),
                want: [
                    0xd1f1_a3a7_2943_4a08,
                    0xfb7d_ff1f_0b88_0ae8,
                    0xda70_fa98_eaaf_528b,
                    0x41a7_328a_db48_52b6,
                    0x2680_d869_7d09_a245,
                ],
            },
            Case {
                name: "1x1",
                sizes: (1, 1),
                arity: 2,
                dim: 4,
                seed: 6,
                grid: false,
                config: BootstrapConfig::default(),
                want: [
                    0xa8c7_f832_281a_39c5,
                    0xa8c7_f832_281a_39c5,
                    0x5b2a_969b_42d2_38a4,
                    0x631b_06ec_c693_5c75,
                    0x526f_b645_bbd3_f295,
                ],
            },
            Case {
                name: "empty B",
                sizes: (5, 0),
                arity: 2,
                dim: 4,
                seed: 7,
                grid: false,
                config: BootstrapConfig::default(),
                want: [
                    0xa8c7_f832_281a_39c5,
                    0xa8c7_f832_281a_39c5,
                    0xa8c7_f832_281a_39c5,
                    0xf87b_38c6_cf34_ac55,
                    0xee85_fafd_354b_0935,
                ],
            },
            Case {
                name: "empty A",
                sizes: (0, 5),
                arity: 2,
                dim: 4,
                seed: 8,
                grid: false,
                config: BootstrapConfig::default(),
                want: [
                    0xa8c7_f832_281a_39c5,
                    0xa8c7_f832_281a_39c5,
                    0xa8c7_f832_281a_39c5,
                    0xf87b_38c6_cf34_ac55,
                    0xee85_fafd_354b_0935,
                ],
            },
            Case {
                name: "0x0",
                sizes: (0, 0),
                arity: 3,
                dim: 4,
                seed: 9,
                grid: false,
                config: small_config(),
                want: [
                    0xa8c7_f832_281a_39c5,
                    0xa8c7_f832_281a_39c5,
                    0xa8c7_f832_281a_39c5,
                    0xf87b_38c6_cf34_ac55,
                    0xee85_fafd_354b_0935,
                ],
            },
        ];
        let mut bytes = Vec::new();
        let mut mismatches = Vec::new();
        for case in &cases {
            let mut rng = XorShiftRng::new(case.seed);
            let (n_a, n_b) = case.sizes;
            let lat_a = cache(n_a, case.arity, case.dim, &mut rng, None, case.grid);
            let dups = (n_a.min(n_b) * 2).div_ceil(3);
            let lat_b = cache(
                n_b,
                case.arity,
                case.dim,
                &mut rng,
                Some((&lat_a, dups)),
                case.grid,
            );
            if case.grid {
                // Guard: on the grid, most W₂² keys repeat (exact sums of
                // squares of a few grid steps).
                let width = case.arity * case.dim;
                let key = |l: usize, r: usize| {
                    let (a, b) = (l * width..(l + 1) * width, r * width..(r + 1) * width);
                    let mu = lat_a.mu.as_slice()[a.clone()]
                        .iter()
                        .zip(&lat_b.mu.as_slice()[b.clone()]);
                    let sigma = lat_a.sigma.as_slice()[a]
                        .iter()
                        .zip(&lat_b.sigma.as_slice()[b]);
                    mu.chain(sigma).map(|(x, y)| (x - y) * (x - y)).sum::<f32>()
                };
                let keys: std::collections::BTreeSet<u32> = (0..n_a)
                    .flat_map(|l| (0..n_b).map(move |r| (l, r)))
                    .map(|(l, r)| key(l, r).to_bits())
                    .collect();
                assert!(keys.len() * 4 < n_a * n_b, "{}: too few ties", case.name);
            }
            let boot = bootstrap(&lat_a, &lat_b, &case.config);

            // Labelled pairs: the noisy duplicates, then seeded pairs of
            // either class anywhere in range (none when a table is empty).
            let mut duplicates: Vec<(usize, usize)> = (0..dups).map(|i| (i, i)).collect();
            let mut test: PairSet = duplicates
                .iter()
                .map(|&(l, r)| LabeledPair {
                    left: l,
                    right: r,
                    is_match: true,
                })
                .collect();
            if n_a > 0 && n_b > 0 {
                for _ in 0..n_a.max(n_b) {
                    let (l, r) = (rng.below(n_a), rng.below(n_b));
                    let is_match = rng.below(4) == 0;
                    test.pairs.push(LabeledPair {
                        left: l,
                        right: r,
                        is_match,
                    });
                    if is_match {
                        duplicates.push((l, r));
                    }
                }
            }
            let ks = [0, 1, 3, 10, n_a.max(n_b) + 5];
            bytes.clear();
            for &k in &ks {
                let report = topk_eval_vae(&lat_a, &lat_b, &test, k).unwrap();
                for v in [report.recall, report.precision, report.f1] {
                    bytes.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
            let topk = fnv1a(&bytes);
            bytes.clear();
            for &k in &ks {
                let recall = recall_at_k_vae(&lat_a, &lat_b, &duplicates, k).unwrap();
                bytes.extend_from_slice(&recall.to_bits().to_le_bytes());
            }
            let recall = fnv1a(&bytes);
            let got = [
                words(&mut bytes, &boot.positives),
                words(&mut bytes, &boot.negatives),
                words(&mut bytes, &boot.pool),
                topk,
                recall,
            ];
            println!(
                "{}: {} (pos {}, neg {}, pool {})",
                case.name,
                got.map(|d| format!("{d:#018x}")).join(", "),
                boot.positives.len(),
                boot.negatives.len(),
                boot.pool.len()
            );
            if got != case.want {
                mismatches.push(case.name);
            }
        }
        assert!(mismatches.is_empty(), "digests moved: {mismatches:?}");
    }
}
