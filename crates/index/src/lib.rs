//! Nearest-neighbour search for VAER: p-stable Euclidean LSH and exact
//! brute-force baselines.
//!
//! Algorithm 1 of the paper builds its unlabeled candidate pool with
//! "nearest-neighbour search, e.g., using Locality Sensitive Hashing with
//! Euclidean distance" — that index lives here ([`E2Lsh`]), together with
//! an exact [`BruteForceKnn`] used both as a correctness oracle in tests
//! and as the small-input fallback, plus the [`knn_join`] helpers that
//! produce candidate tuple pairs for blocking (§VI-B) and active-learning
//! bootstrapping (§V-A). Both indexes store their points in one flat
//! [`Points`] set.

mod brute;
mod join;
mod lsh;
mod points;
mod rank;

pub use brute::BruteForceKnn;
pub use join::{knn_join, CandidatePair, JoinCache, Neighbor};
pub use lsh::{E2Lsh, E2LshConfig};
pub use points::Points;

/// Common interface for top-K Euclidean search over a fixed point set.
///
/// Neighbours come back in one total order: ascending distance with NaN
/// distances last, ties broken by ascending row index. The order
/// therefore never depends on how an index collected its candidates.
pub trait KnnIndex {
    /// Number of indexed points.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The top-`k` neighbours of every query row, as `(query row,
    /// indexed row, distance)` pairs grouped by query row in input order
    /// and, within a row, in the neighbour order above. Scratch is
    /// allocated once per call, never per query row.
    ///
    /// `probe` is called once per query row before that row is searched;
    /// returning `true` abandons the join and yields `None`, dropping the
    /// partial result.
    ///
    /// # Panics
    /// Panics when a query's dimensionality differs from a non-empty
    /// index's.
    fn join(
        &self,
        queries: &[&[f32]],
        k: usize,
        probe: &mut dyn FnMut() -> bool,
    ) -> Option<Vec<CandidatePair>>;

    /// The `k` indexed points closest to `query`, in the neighbour order
    /// above. May return fewer than `k` when the index is small (or, for
    /// LSH, when few candidates collide).
    ///
    /// # Panics
    /// Panics when `query`'s dimensionality differs from a non-empty
    /// index's.
    fn knn(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        let mut never = || false;
        self.join(&[query], k, &mut never)
            .unwrap_or_default()
            .into_iter()
            .map(|c| Neighbor {
                index: c.right,
                distance: c.distance,
            })
            .collect()
    }
}
