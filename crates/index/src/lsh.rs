//! p-stable Euclidean LSH (E2LSH; Datar et al., SoCG 2004).
//!
//! Each of `num_tables` tables hashes a vector with `hashes_per_table`
//! independent functions `h(v) = ⌊(a·v + b) / w⌋` where `a ~ N(0, I)` and
//! `b ~ U[0, w)`. Points colliding on the full concatenated key in at
//! least one table become candidates; candidates are re-ranked by exact
//! Euclidean distance.
//!
//! The index is flat (DESIGN.md §8.4): the points sit row-major in one
//! [`Points`] set, every table's buckets share one CSR layout (bucket
//! keys, offsets, and row ids in ascending order), and a bucket is found
//! through one open-addressed array of key hashes. A join allocates its
//! scratch once and reuses it for every query row.

use crate::join::CandidatePair;
use crate::points::Points;
use crate::rank::Ranker;
use crate::KnnIndex;
use rand::{Rng, RngExt, SeedableRng};

/// Rows projected together: query rows per projection pass of a join,
/// and points per build probe.
const BLOCK: usize = 64;

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
    /// Multi-probe switch. `0` looks up only the query's own bucket in
    /// each table. Any value above `0` also probes the
    /// `2 × hashes_per_table` buckets whose key differs from the query's
    /// by ±1 in exactly one coordinate — the first ring of the
    /// query-directed probing sequence; no value probes further rings.
    /// Multi-probing trades a few extra lookups for recall, letting
    /// `num_tables` stay small (Lv et al., VLDB 2007).
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
    pub fn calibrated(points: &Points, seed: u64) -> Self {
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
                let sq: f32 = points
                    .row(i)
                    .iter()
                    .zip(points.row(j))
                    .map(|(&x, &y)| (x - y) * (x - y))
                    .sum();
                total += (sq as f64).sqrt();
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

/// The `num_tables × hashes_per_table` hash functions, table-major:
/// function `j` of table `t` is function `t * hashes_per_table + j`.
#[derive(Debug, Clone)]
struct Projections {
    /// The `a` vectors transposed to `dims × count`: `a[d * count + f]`
    /// is coordinate `d` of function `f`.
    a: Vec<f32>,
    /// The `b` offset of each function.
    b: Vec<f32>,
    width: f32,
}

impl Projections {
    /// Draws the functions from `config.seed` in a fixed order — per
    /// table, its functions' `a` vectors, then their offsets — so a seed
    /// always yields the same functions and hence the same joins
    /// (`tests/golden_join.rs` pins them).
    fn draw(dims: usize, config: &E2LshConfig) -> Self {
        let per_table = config.hashes_per_table;
        let count = config.num_tables * per_table;
        let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
        let mut a = vec![0.0; dims * count];
        let mut b = Vec::with_capacity(count);
        // vaer-lint: allow(cancel-probe-coverage) -- num_tables x hashes_per_table x dims draws, once per build
        for table in 0..config.num_tables {
            for f in table * per_table..(table + 1) * per_table {
                for d in 0..dims {
                    a[d * count + f] = gaussian(&mut rng);
                }
            }
            b.extend((0..per_table).map(|_| rng.random_range(0.0..config.bucket_width)));
        }
        Self {
            a,
            b,
            width: config.bucket_width,
        }
    }

    /// Number of hash functions over all tables.
    fn count(&self) -> usize {
        self.b.len()
    }

    /// Writes every function's key coordinate for each of `rows` into
    /// `keys`, `count` per row; `dots` is `count` floats of scratch.
    ///
    /// A row's `count` dots advance together over the dimensions, so they
    /// vectorise, but each is still one left-to-right `f32` sum from
    /// `-0.0` (the value `f32: Sum` folds from): the keys are bit-for-bit
    /// those of `a.iter().zip(row).map(|(x, y)| x * y).sum()` per
    /// function.
    fn keys<'r>(
        &self,
        rows: impl IntoIterator<Item = &'r [f32]>,
        dots: &mut [f32],
        keys: &mut [i32],
    ) {
        let count = self.count();
        // vaer-lint: allow(cancel-probe-coverage) -- callers pass at most 64 rows and probe between calls
        for (row, key) in rows.into_iter().zip(keys.chunks_exact_mut(count)) {
            dots.fill(-0.0);
            for (&x, a) in row.iter().zip(self.a.chunks_exact(count)) {
                for (dot, &a) in dots.iter_mut().zip(a) {
                    *dot += a * x;
                }
            }
            for ((k, &dot), &b) in key.iter_mut().zip(dots.iter()).zip(&self.b) {
                *k = ((dot + b) / self.width).floor() as i32;
            }
        }
    }
}

/// Every table's buckets in one CSR layout, found by key hash.
#[derive(Debug, Clone)]
struct Buckets {
    /// Coordinates per key (`hashes_per_table`).
    key_len: usize,
    /// Bucket keys, `key_len` coordinates each, sorted within a table.
    keys: Vec<i32>,
    /// Table `t` owns buckets `tables[t]..tables[t + 1]`.
    tables: Vec<u32>,
    /// Bucket `b` holds rows `ids[offsets[b]..offsets[b + 1]]`, in
    /// ascending order.
    offsets: Vec<u32>,
    ids: Vec<u32>,
    /// Open-addressed, linearly probed slots, at most half full: `0` is
    /// empty, anything else is a key hash's high 32 bits over
    /// `bucket + 1`.
    slots: Vec<u64>,
}

impl Buckets {
    /// Groups the rows of every table by key. `keys` holds each row's
    /// coordinates for all tables (`num_tables × key_len` per row); the
    /// probe runs once per table.
    fn build(
        keys: &[i32],
        rows: usize,
        config: &E2LshConfig,
        probe: &mut dyn FnMut() -> bool,
    ) -> Option<Self> {
        let key_len = config.hashes_per_table;
        let stride = config.num_tables * key_len;
        let key =
            |table: usize, row: u32| &keys[row as usize * stride + table * key_len..][..key_len];
        let mut out = Self {
            key_len,
            keys: Vec::new(),
            tables: vec![0],
            offsets: vec![0],
            ids: Vec::with_capacity(rows * config.num_tables),
            slots: Vec::new(),
        };
        let mut order: Vec<u32> = Vec::with_capacity(rows);
        for table in 0..config.num_tables {
            if probe() {
                return None;
            }
            order.clear();
            order.extend(0..rows as u32);
            // A stable sort keeps each bucket's rows in ascending order.
            order.sort_by(|&x, &y| key(table, x).cmp(key(table, y)));
            for bucket in order.chunk_by(|&x, &y| key(table, x) == key(table, y)) {
                out.keys.extend_from_slice(key(table, bucket[0]));
                out.ids.extend_from_slice(bucket);
                out.offsets.push(out.ids.len() as u32);
            }
            out.tables.push(out.offsets.len() as u32 - 1);
        }
        let buckets = out.offsets.len() - 1;
        out.slots = vec![0; (2 * buckets).next_power_of_two()];
        let mask = out.slots.len() - 1;
        // vaer-lint: allow(cancel-probe-coverage) -- one insertion per bucket already grouped under the per-table probes
        for table in 0..config.num_tables {
            // vaer-lint: allow(cancel-probe-coverage) -- this table's buckets, at most one per point
            for b in out.tables[table] as usize..out.tables[table + 1] as usize {
                let hash = key_hash(table, &out.keys[b * key_len..(b + 1) * key_len]);
                let mut slot = hash as usize & mask;
                while out.slots[slot] != 0 {
                    slot = (slot + 1) & mask;
                }
                out.slots[slot] = (hash & !0xFFFF_FFFF) | (b as u64 + 1);
            }
        }
        Some(out)
    }

    /// The rows of table `table`'s bucket for `key` (empty when no point
    /// has that key).
    fn get(&self, table: usize, key: &[i32]) -> &[u32] {
        let hash = key_hash(table, key);
        let mask = self.slots.len() - 1;
        let owned = self.tables[table] as usize..self.tables[table + 1] as usize;
        let mut slot = hash as usize & mask;
        // vaer-lint: allow(cancel-probe-coverage) -- linear probing ends at the first empty slot of a table at most half full
        loop {
            let entry = self.slots[slot];
            if entry == 0 {
                return &[];
            }
            let b = (entry as u32 - 1) as usize;
            if entry >> 32 == hash >> 32
                && owned.contains(&b)
                && self.keys[b * self.key_len..(b + 1) * self.key_len] == *key
            {
                return &self.ids[self.offsets[b] as usize..self.offsets[b + 1] as usize];
            }
            slot = (slot + 1) & mask;
        }
    }
}

/// Hash of table `table`'s bucket key: a multiply-rotate fold of the
/// coordinates, finished with the murmur3 64-bit mixer.
fn key_hash(table: usize, key: &[i32]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = (table as u64 + 1).wrapping_mul(K);
    for &c in key {
        h = (h.rotate_left(26) ^ u64::from(c as u32)).wrapping_mul(K);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// Candidate-collection scratch owned by one join call.
struct Collector {
    /// `seen[row] == epoch` marks a row already collected for the
    /// current query, so starting a query clears nothing.
    seen: Vec<u32>,
    epoch: u32,
    /// The current query's distinct candidate rows, in collection order.
    rows: Vec<u32>,
    /// The multi-probe key being looked up.
    probe_key: Vec<i32>,
}

impl Collector {
    fn new(points: usize, key_len: usize) -> Self {
        Self {
            seen: vec![0; points],
            epoch: 0,
            rows: Vec::with_capacity(points),
            probe_key: vec![0; key_len],
        }
    }

    /// Collects the distinct rows that share a bucket with one query in
    /// any table, multi-probe buckets included; `key` holds the query's
    /// coordinates for every table.
    fn collect(&mut self, index: &E2Lsh, key: &[i32]) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen.fill(0);
            self.epoch = 1;
        }
        self.rows.clear();
        let key_len = index.buckets.key_len;
        // vaer-lint: allow(cancel-probe-coverage) -- bucket lookups bounded by num_tables x first-ring perturbations from config
        for (table, own) in key.chunks_exact(key_len).enumerate() {
            self.add(index.buckets.get(table, own));
            if index.config.multiprobe > 0 {
                self.probe_key.copy_from_slice(own);
                for (coord, &c) in own.iter().enumerate() {
                    for delta in [-1, 1] {
                        self.probe_key[coord] = c.saturating_add(delta);
                        self.add(index.buckets.get(table, &self.probe_key));
                    }
                    self.probe_key[coord] = c;
                }
            }
        }
    }

    fn add(&mut self, bucket: &[u32]) {
        for &row in bucket {
            let seen = &mut self.seen[row as usize];
            if *seen != self.epoch {
                *seen = self.epoch;
                self.rows.push(row);
            }
        }
    }
}

/// The p-stable Euclidean LSH index.
#[derive(Debug, Clone)]
pub struct E2Lsh {
    config: E2LshConfig,
    points: Points,
    projections: Projections,
    buckets: Buckets,
}

impl E2Lsh {
    /// Builds an index over `points` with the given configuration.
    ///
    /// # Panics
    /// Panics on inconsistent point dimensions or a non-positive bucket
    /// width.
    pub fn build(points: impl Into<Points>, config: E2LshConfig) -> Self {
        let mut probe = || false;
        Self::build_probed(points, config, &mut probe)
            .expect("an always-false probe never abandons the build") // vaer-lint: allow(panic) -- infallible by construction
    }

    /// [`build`](Self::build) with a cooperative stop probe, called once
    /// per 64 projected points and once per hash table. Returning `true`
    /// abandons the build and yields `None` — the partially built index
    /// is dropped, never returned.
    ///
    /// # Panics
    /// Panics on inconsistent point dimensions, a non-positive bucket
    /// width, or more than `u32::MAX` points across all tables.
    pub fn build_probed(
        points: impl Into<Points>,
        config: E2LshConfig,
        probe: &mut dyn FnMut() -> bool,
    ) -> Option<Self> {
        let points = points.into();
        assert!(config.bucket_width > 0.0, "bucket_width must be positive");
        assert!(config.num_tables > 0 && config.hashes_per_table > 0);
        // Rows and bucket offsets are stored as `u32`.
        let entries = points.len().checked_mul(config.num_tables);
        assert!(
            entries.is_some_and(|e| u32::try_from(e).is_ok()),
            "{} points × {} tables overflow u32 bucket offsets",
            points.len(),
            config.num_tables
        );
        let projections = Projections::draw(points.dims(), &config);
        let count = projections.count();
        let mut keys = vec![0; points.len() * count];
        let mut dots = vec![0.0; count];
        for (block, block_keys) in keys.chunks_mut(BLOCK * count).enumerate() {
            if probe() {
                return None;
            }
            let rows = (block * BLOCK..).map(|i| points.row(i));
            projections.keys(rows.take(block_keys.len() / count), &mut dots, block_keys);
        }
        let buckets = Buckets::build(&keys, points.len(), &config, probe)?;
        Some(Self {
            config,
            points,
            projections,
            buckets,
        })
    }

    /// Builds with a data-calibrated bucket width.
    pub fn build_calibrated(points: impl Into<Points>, seed: u64) -> Self {
        let points = points.into();
        let config = E2LshConfig::calibrated(&points, seed);
        Self::build(points, config)
    }

    /// [`build_calibrated`](Self::build_calibrated) with a cooperative
    /// stop probe (see [`build_probed`](Self::build_probed)).
    pub fn build_calibrated_probed(
        points: impl Into<Points>,
        seed: u64,
        probe: &mut dyn FnMut() -> bool,
    ) -> Option<Self> {
        let points = points.into();
        let config = E2LshConfig::calibrated(&points, seed);
        Self::build_probed(points, config, probe)
    }

    /// All candidate point indices colliding with `query` in any table
    /// (deduplicated, ascending), including multi-probe buckets when
    /// configured. A diagnostic: joins collect candidates into scratch
    /// they reuse across query rows.
    ///
    /// # Panics
    /// Panics when `query`'s dimensionality differs from a non-empty
    /// index's.
    pub fn candidates(&self, query: &[f32]) -> Vec<usize> {
        self.points.check_query(query);
        let count = self.projections.count();
        let mut key = vec![0; count];
        self.projections
            .keys([query], &mut vec![0.0; count], &mut key);
        let mut collector = Collector::new(self.points.len(), self.buckets.key_len);
        collector.collect(self, &key);
        let mut rows: Vec<usize> = collector.rows.iter().map(|&r| r as usize).collect();
        rows.sort_unstable();
        rows
    }
}

impl KnnIndex for E2Lsh {
    fn len(&self) -> usize {
        self.points.len()
    }

    /// Top-K among hash candidates, re-ranked by exact distance. A query
    /// colliding with fewer than `k` points falls back to a full scan
    /// (correctness first; the scan is still cheap at VAER's scales).
    /// Keys are computed for 64 query rows at a time.
    fn join(
        &self,
        queries: &[&[f32]],
        k: usize,
        probe: &mut dyn FnMut() -> bool,
    ) -> Option<Vec<CandidatePair>> {
        let n = self.points.len();
        let count = self.projections.count();
        let all: Vec<u32> = (0..n as u32).collect();
        let mut collector = Collector::new(n, self.buckets.key_len);
        let mut ranker = Ranker::new(n);
        let mut dots = vec![0.0; count];
        let mut keys = vec![0; BLOCK.min(queries.len()) * count];
        let mut out = Vec::with_capacity(queries.len() * k.min(n));
        for (block, rows) in queries.chunks(BLOCK).enumerate() {
            self.projections
                .keys(rows.iter().copied(), &mut dots, &mut keys);
            for (r, (query, key)) in rows.iter().zip(keys.chunks_exact(count)).enumerate() {
                if probe() {
                    return None;
                }
                collector.collect(self, key);
                let candidates = if collector.rows.len() < k {
                    &all
                } else {
                    &collector.rows
                };
                ranker.rank(
                    query,
                    &self.points,
                    candidates,
                    k,
                    block * BLOCK + r,
                    &mut out,
                );
            }
        }
        Some(out)
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
