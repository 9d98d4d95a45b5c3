//! Nearest-neighbour search for VAER: p-stable Euclidean LSH and exact
//! brute-force baselines.
//!
//! Algorithm 1 of the paper builds its unlabeled candidate pool with
//! "nearest-neighbour search, e.g., using Locality Sensitive Hashing with
//! Euclidean distance" — that index lives here ([`E2Lsh`]), together with
//! an exact [`BruteForceKnn`] used both as a correctness oracle in tests
//! and as the small-input fallback, plus the [`knn_join`] helpers that
//! produce candidate tuple pairs for blocking (§VI-B) and active-learning
//! bootstrapping (§V-A).

mod brute;
mod join;
mod lsh;

pub use brute::BruteForceKnn;
pub use join::{knn_join, CandidatePair, JoinCache, Neighbor};
pub use lsh::{E2Lsh, E2LshConfig};

/// Common interface for top-K Euclidean search over a fixed point set.
pub trait KnnIndex {
    /// Number of indexed points.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `k` indexed points closest to `query` (ascending distance).
    /// May return fewer than `k` when the index is small (or, for LSH,
    /// when few candidates collide).
    fn knn(&self, query: &[f32], k: usize) -> Vec<Neighbor>;
}
