//! Exact k-nearest-neighbour search by linear scan.

use crate::join::Neighbor;
use crate::KnnIndex;

/// Exact Euclidean top-K search over an owned point set.
///
/// O(n·d) per query; used as the correctness oracle for [`E2Lsh`]
/// (crate::E2Lsh) and as the index of choice for small collections where
/// hashing overhead isn't worth it.
#[derive(Debug, Clone)]
pub struct BruteForceKnn {
    points: Vec<Vec<f32>>,
    dims: usize,
}

impl BruteForceKnn {
    /// Builds the index. All points must share one dimensionality.
    ///
    /// # Panics
    /// Panics if points have inconsistent dimensions.
    pub fn build(points: Vec<Vec<f32>>) -> Self {
        let dims = points.first().map_or(0, Vec::len);
        // vaer-lint: allow(cancel-probe-coverage) -- dimension check pass bounded by point count at build time
        for (i, p) in points.iter().enumerate() {
            assert_eq!(
                p.len(),
                dims,
                "point {i} has {} dims, expected {dims}",
                p.len()
            );
        }
        Self { points, dims }
    }
}

impl KnnIndex for BruteForceKnn {
    fn len(&self) -> usize {
        self.points.len()
    }

    ///
    /// # Panics
    /// Panics when `query`'s dimensionality differs from the indexed points.
    fn knn(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        assert_eq!(
            query.len(),
            self.dims,
            "query dims {} != index dims {}",
            query.len(),
            self.dims
        );
        let mut all: Vec<Neighbor> = self
            .points
            .iter()
            .enumerate()
            .map(|(i, p)| Neighbor {
                index: i,
                distance: sq_dist(query, p).sqrt(),
            })
            .collect();
        all.sort_by(|a, b| {
            a.distance
                .partial_cmp(&b.distance)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        all.truncate(k);
        all
    }
}

#[inline]
pub(crate) fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum()
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
