//! Exact k-nearest-neighbour search by linear scan.

use crate::join::CandidatePair;
use crate::points::Points;
use crate::rank::Ranker;
use crate::KnnIndex;

/// Exact Euclidean top-K search over an owned point set.
///
/// O(n·d) per query; used as the correctness oracle for [`E2Lsh`]
/// (crate::E2Lsh) and as the index of choice for small collections where
/// hashing overhead isn't worth it.
#[derive(Debug, Clone)]
pub struct BruteForceKnn {
    points: Points,
}

impl BruteForceKnn {
    /// Builds the index. All points must share one dimensionality.
    ///
    /// # Panics
    /// Panics if points have inconsistent dimensions.
    pub fn build(points: impl Into<Points>) -> Self {
        Self {
            points: points.into(),
        }
    }
}

impl KnnIndex for BruteForceKnn {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn join(
        &self,
        queries: &[&[f32]],
        k: usize,
        probe: &mut dyn FnMut() -> bool,
    ) -> Option<Vec<CandidatePair>> {
        let n = self.points.len();
        let all: Vec<u32> = (0..n as u32).collect();
        let mut ranker = Ranker::new(n);
        let mut out = Vec::with_capacity(queries.len() * k.min(n));
        for (left, query) in queries.iter().enumerate() {
            if probe() {
                return None;
            }
            ranker.rank(query, &self.points, &all, k, left, &mut out);
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_exact_neighbours() {
        let idx = BruteForceKnn::build(vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![5.0, 5.0],
            vec![0.1, 0.1],
        ]);
        let nn = idx.knn(&[0.0, 0.0], 2);
        assert_eq!(nn.len(), 2);
        assert_eq!(nn[0].index, 0);
        assert_eq!(nn[1].index, 3);
        assert!(nn[0].distance <= nn[1].distance);
    }

    #[test]
    fn k_larger_than_n() {
        let idx = BruteForceKnn::build(vec![vec![1.0], vec![2.0]]);
        let nn = idx.knn(&[0.0], 10);
        assert_eq!(nn.len(), 2);
    }

    #[test]
    fn empty_index() {
        let idx = BruteForceKnn::build(Vec::new());
        assert!(idx.is_empty());
        assert!(idx.knn(&[], 3).is_empty());
    }

    #[test]
    #[should_panic]
    fn inconsistent_dims_panic() {
        BruteForceKnn::build(vec![vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    #[should_panic]
    fn query_dim_mismatch_panics() {
        let idx = BruteForceKnn::build(vec![vec![1.0, 2.0]]);
        idx.knn(&[1.0], 1);
    }
}
