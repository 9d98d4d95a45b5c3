//! p-stable Euclidean LSH (E2LSH; Datar et al., SoCG 2004).
//!
//! Each of `num_tables` tables hashes a vector with `hashes_per_table`
//! independent functions `h(v) = ⌊(a·v + b) / w⌋` where `a ~ N(0, I)` and
//! `b ~ U[0, w)`. Points colliding on the full concatenated key in at
//! least one table become candidates; candidates are re-ranked by exact
//! Euclidean distance.

use crate::brute::sq_dist;
use crate::join::Neighbor;
use crate::KnnIndex;
use rand::{Rng, RngExt, SeedableRng};
use std::collections::BTreeMap;

/// Tuning knobs for [`E2Lsh`].
#[derive(Debug, Clone)]
pub struct E2LshConfig {
    /// Number of hash tables (more tables → higher recall, more memory).
    pub num_tables: usize,
    /// Concatenated hash functions per table (more → higher precision).
    pub hashes_per_table: usize,
    /// Quantisation bucket width `w`. Should be on the order of typical
    /// nearest-neighbour distances.
    pub bucket_width: f32,
    /// Multi-probe level: in addition to the query's own bucket, probe
    /// buckets whose key differs by ±1 in up to this many coordinates
    /// (0 disables multi-probing). Multi-probing trades a few extra
    /// lookups for recall, letting `num_tables` stay small (Lv et al.,
    /// VLDB 2007).
    pub multiprobe: usize,
    /// RNG seed for the projection vectors.
    pub seed: u64,
}

impl Default for E2LshConfig {
    fn default() -> Self {
        Self {
            num_tables: 8,
            hashes_per_table: 4,
            bucket_width: 1.0,
            multiprobe: 1,
            seed: 0x5A5A,
        }
    }
}

impl E2LshConfig {
    /// A configuration whose bucket width is calibrated from a data sample:
    /// the mean distance between a few hundred random point pairs.
    pub fn calibrated(points: &[Vec<f32>], seed: u64) -> Self {
        let mut cfg = Self {
            seed,
            ..Self::default()
        };
        let n = points.len();
        if n >= 2 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC0FFEE);
            let samples = 256.min(n * (n - 1) / 2);
            let mut total = 0.0f64;
            // vaer-lint: allow(cancel-probe-coverage) -- width calibration capped at 256 sampled distances
            for _ in 0..samples {
                let i = rng.random_range(0..n);
                let mut j = rng.random_range(0..n);
                while j == i {
                    j = rng.random_range(0..n);
                }
                total += (sq_dist(&points[i], &points[j]) as f64).sqrt();
            }
            let mean = (total / samples as f64) as f32;
            if mean > 1e-6 {
                // A bucket of roughly half the typical inter-point distance
                // keeps near pairs colliding and far pairs apart.
                cfg.bucket_width = mean * 0.5;
            }
        }
        cfg
    }
}

#[derive(Debug, Clone)]
struct HashTable {
    /// `hashes_per_table` projection vectors, each of dimension `dims`.
    projections: Vec<Vec<f32>>,
    offsets: Vec<f32>,
    buckets: BTreeMap<Vec<i32>, Vec<u32>>,
}

impl HashTable {
    fn key(&self, v: &[f32], w: f32) -> Vec<i32> {
        self.projections
            .iter()
            .zip(self.offsets.iter())
            .map(|(a, &b)| {
                let dot: f32 = a.iter().zip(v.iter()).map(|(&x, &y)| x * y).sum();
                ((dot + b) / w).floor() as i32
            })
            .collect()
    }
}

/// The p-stable Euclidean LSH index.
#[derive(Debug, Clone)]
pub struct E2Lsh {
    config: E2LshConfig,
    tables: Vec<HashTable>,
    points: Vec<Vec<f32>>,
    dims: usize,
}

impl E2Lsh {
    /// Builds an index over `points` with the given configuration.
    ///
    /// # Panics
    /// Panics on inconsistent point dimensions or a non-positive bucket
    /// width.
    pub fn build(points: Vec<Vec<f32>>, config: E2LshConfig) -> Self {
        let mut probe = || false;
        Self::build_probed(points, config, &mut probe)
            .expect("an always-false probe never abandons the build") // vaer-lint: allow(panic) -- infallible by construction
    }

    /// [`build`](Self::build) with a cooperative stop probe, called once
    /// per hash table and once per 64 point insertions. Returning `true`
    /// abandons the build and yields `None` — the partially built index
    /// is dropped, never returned.
    ///
    /// # Panics
    /// Panics on inconsistent point dimensions or a non-positive bucket
    /// width.
    pub fn build_probed(
        points: Vec<Vec<f32>>,
        config: E2LshConfig,
        probe: &mut dyn FnMut() -> bool,
    ) -> Option<Self> {
        assert!(config.bucket_width > 0.0, "bucket_width must be positive");
        assert!(config.num_tables > 0 && config.hashes_per_table > 0);
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
        let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
        let mut tables = Vec::with_capacity(config.num_tables);
        for _ in 0..config.num_tables {
            if probe() {
                return None;
            }
            let projections = (0..config.hashes_per_table)
                .map(|_| (0..dims).map(|_| gaussian(&mut rng)).collect())
                .collect();
            let offsets = (0..config.hashes_per_table)
                .map(|_| rng.random_range(0.0..config.bucket_width))
                .collect();
            let mut table = HashTable {
                projections,
                offsets,
                buckets: BTreeMap::new(),
            };
            for (i, p) in points.iter().enumerate() {
                if i % 64 == 0 && probe() {
                    return None;
                }
                let key = table.key(p, config.bucket_width);
                table.buckets.entry(key).or_default().push(i as u32);
            }
            tables.push(table);
        }
        Some(Self {
            config,
            tables,
            points,
            dims,
        })
    }

    /// Builds with a data-calibrated bucket width.
    pub fn build_calibrated(points: Vec<Vec<f32>>, seed: u64) -> Self {
        let config = E2LshConfig::calibrated(&points, seed);
        Self::build(points, config)
    }

    /// [`build_calibrated`](Self::build_calibrated) with a cooperative
    /// stop probe (see [`build_probed`](Self::build_probed)).
    pub fn build_calibrated_probed(
        points: Vec<Vec<f32>>,
        seed: u64,
        probe: &mut dyn FnMut() -> bool,
    ) -> Option<Self> {
        let config = E2LshConfig::calibrated(&points, seed);
        Self::build_probed(points, config, probe)
    }

    /// All candidate point indices colliding with `query` in any table
    /// (deduplicated, unordered), including multi-probe buckets when
    /// configured.
    ///
    /// # Panics
    /// Panics when `query`'s dimensionality differs from the index.
    pub fn candidates(&self, query: &[f32]) -> Vec<usize> {
        assert_eq!(query.len(), self.dims, "query dims mismatch");
        let mut seen = vec![false; self.points.len()];
        let mut out = Vec::new();
        let collect = |bucket: Option<&Vec<u32>>, seen: &mut Vec<bool>, out: &mut Vec<usize>| {
            if let Some(bucket) = bucket {
                for &i in bucket {
                    let i = i as usize;
                    if !seen[i] {
                        seen[i] = true;
                        out.push(i);
                    }
                }
            }
        };
        // vaer-lint: allow(cancel-probe-coverage) -- bucket lookup bounded by num_tables x first-ring perturbations from config
        for table in &self.tables {
            let key = table.key(query, self.config.bucket_width);
            collect(table.buckets.get(&key), &mut seen, &mut out);
            if self.config.multiprobe > 0 {
                // One-coordinate ±1 perturbations (the first ring of the
                // query-directed probing sequence).
                for coord in 0..key.len() {
                    for delta in [-1i32, 1] {
                        let mut probe = key.clone();
                        probe[coord] += delta;
                        collect(table.buckets.get(&probe), &mut seen, &mut out);
                    }
                }
            }
        }
        out
    }
}

impl KnnIndex for E2Lsh {
    fn len(&self) -> usize {
        self.points.len()
    }

    /// Top-K among hash candidates, re-ranked by exact distance. Falls
    /// back to a full scan when the candidate pool is smaller than `k`
    /// (correctness first; the scan is still cheap at VAER's scales).
    fn knn(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        let mut cand = self.candidates(query);
        if cand.len() < k {
            cand = (0..self.points.len()).collect();
        }
        let mut scored: Vec<Neighbor> = cand
            .into_iter()
            .map(|i| Neighbor {
                index: i,
                distance: sq_dist(query, &self.points[i]).sqrt(),
            })
            .collect();
        scored.sort_by(|a, b| {
            a.distance
                .partial_cmp(&b.distance)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        scored.truncate(k);
        scored
    }
}

fn gaussian<R: Rng>(rng: &mut R) -> f32 {
    // Box–Muller.
    let u1: f32 = rng.random_range(f32::EPSILON..1.0);
    let u2: f32 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::BruteForceKnn;

    fn clustered_points(seed: u64, clusters: usize, per_cluster: usize) -> Vec<Vec<f32>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut points = Vec::new();
        for c in 0..clusters {
            let center: Vec<f32> = (0..8).map(|d| (c * 7 + d) as f32).collect();
            for _ in 0..per_cluster {
                points.push(
                    center
                        .iter()
                        .map(|&x| x + rng.random_range(-0.05f32..0.05))
                        .collect(),
                );
            }
        }
        points
    }

    #[test]
    fn lsh_recovers_cluster_neighbours() {
        let points = clustered_points(1, 10, 10);
        let lsh = E2Lsh::build_calibrated(points.clone(), 42);
        let brute = BruteForceKnn::build(points.clone());
        let mut recall_hits = 0;
        let mut recall_total = 0;
        for (qi, q) in points.iter().enumerate().step_by(3) {
            let truth: Vec<usize> = brute.knn(q, 5).iter().map(|n| n.index).collect();
            let got: Vec<usize> = lsh.knn(q, 5).iter().map(|n| n.index).collect();
            recall_total += truth.len();
            recall_hits += truth.iter().filter(|t| got.contains(t)).count();
            assert!(got.contains(&qi), "query point should be its own neighbour");
        }
        let recall = recall_hits as f32 / recall_total as f32;
        assert!(recall > 0.9, "LSH recall vs brute force = {recall}");
    }

    #[test]
    fn candidates_are_deduplicated() {
        let points = clustered_points(2, 3, 5);
        let lsh = E2Lsh::build_calibrated(points.clone(), 7);
        let cand = lsh.candidates(&points[0]);
        let mut sorted = cand.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(cand.len(), sorted.len());
    }

    #[test]
    fn knn_falls_back_when_sparse() {
        // A huge bucket width would lump everything; a tiny one isolates
        // points — either way knn must still return k results.
        let points = clustered_points(3, 4, 4);
        let cfg = E2LshConfig {
            bucket_width: 1e-4,
            ..E2LshConfig::default()
        };
        let lsh = E2Lsh::build(points.clone(), cfg);
        let nn = lsh.knn(&points[0], 6);
        assert_eq!(nn.len(), 6);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let points = clustered_points(4, 3, 4);
        let a = E2Lsh::build_calibrated(points.clone(), 9);
        let b = E2Lsh::build_calibrated(points.clone(), 9);
        for q in points.iter().take(4) {
            assert_eq!(
                a.knn(q, 3).iter().map(|n| n.index).collect::<Vec<_>>(),
                b.knn(q, 3).iter().map(|n| n.index).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn multiprobe_extends_candidates() {
        let points = clustered_points(8, 6, 8);
        let base = E2LshConfig {
            num_tables: 2,
            hashes_per_table: 4,
            bucket_width: 0.5,
            multiprobe: 0,
            seed: 77,
        };
        let without = E2Lsh::build(points.clone(), base.clone());
        let with = E2Lsh::build(
            points.clone(),
            E2LshConfig {
                multiprobe: 1,
                ..base
            },
        );
        let mut total_without = 0;
        let mut total_with = 0;
        for q in points.iter().step_by(5) {
            total_without += without.candidates(q).len();
            total_with += with.candidates(q).len();
        }
        assert!(
            total_with >= total_without,
            "multiprobe shrank candidates: {total_with} < {total_without}"
        );
    }

    #[test]
    fn empty_index_is_fine() {
        let lsh = E2Lsh::build(Vec::new(), E2LshConfig::default());
        assert!(lsh.is_empty());
        assert!(lsh.knn(&[], 3).is_empty());
    }

    #[test]
    #[should_panic]
    fn zero_bucket_width_panics() {
        E2Lsh::build(
            vec![vec![1.0]],
            E2LshConfig {
                bucket_width: 0.0,
                ..Default::default()
            },
        );
    }
}
