//! kNN joins: candidate tuple-pair generation for blocking and
//! active-learning bootstrapping.

use crate::KnnIndex;
use std::collections::BTreeMap;

/// One retrieved neighbour: the indexed point's position and its exact
/// Euclidean distance to the query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index of the point inside the index it came from.
    pub index: usize,
    /// Euclidean distance to the query.
    pub distance: f32,
}

/// A candidate pair produced by a join: `(left, right, distance)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidatePair {
    /// Row in the left (query) collection.
    pub left: usize,
    /// Row in the right (indexed) collection.
    pub right: usize,
    /// Euclidean distance between the two vectors.
    pub distance: f32,
}

/// Joins every query vector against an index, keeping the top-`k`
/// neighbours of each. This is the blocking step of §VI-B: pairs that
/// never meet in a top-K list are never compared by the matcher.
pub fn knn_join<Q: AsRef<[f32]>>(
    queries: &[Q],
    index: &dyn KnnIndex,
    k: usize,
) -> Vec<CandidatePair> {
    let mut probe = || false;
    knn_join_probed(queries, index, k, &mut probe).unwrap_or_default()
}

/// [`knn_join`] with a cooperative stop probe, called once per query
/// row. Returning `true` from `probe` abandons the join and yields
/// `None` (callers map this to their own cancellation/deadline error) —
/// the partial candidate list is dropped, never returned.
pub fn knn_join_probed<Q: AsRef<[f32]>>(
    queries: &[Q],
    index: &dyn KnnIndex,
    k: usize,
    probe: &mut dyn FnMut() -> bool,
) -> Option<Vec<CandidatePair>> {
    let rows: Vec<&[f32]> = queries.iter().map(AsRef::as_ref).collect();
    index.join(&rows, k, probe)
}

/// Memoises [`knn_join`] results per `k` over one immutable index.
///
/// Blocking is re-run whenever a resolution plan is asked for a new
/// candidate budget; the index and query set never change between those
/// calls, so the join output is a pure function of `k`. The cache borrows
/// both sides and stores each distinct `k`'s candidate list the first
/// time it is requested.
pub struct JoinCache<'a> {
    queries: Vec<&'a [f32]>,
    index: &'a dyn KnnIndex,
    per_k: BTreeMap<usize, Vec<CandidatePair>>,
}

impl<'a> JoinCache<'a> {
    /// An empty cache over `queries` joined against `index`.
    pub fn new<Q: AsRef<[f32]>>(queries: &'a [Q], index: &'a dyn KnnIndex) -> Self {
        Self {
            queries: queries.iter().map(AsRef::as_ref).collect(),
            index,
            per_k: BTreeMap::new(),
        }
    }

    /// Top-`k` candidates for every query — computed on first request,
    /// served from the memo afterwards.
    pub fn candidates(&mut self, k: usize) -> &[CandidatePair] {
        let mut never = || false;
        self.candidates_probed(k, &mut never).unwrap_or_default()
    }

    /// [`candidates`](Self::candidates) with a cooperative stop probe
    /// (see [`knn_join_probed`]). A memoised `k` is returned without
    /// probing; on an abandoned join nothing is memoised and `None` is
    /// returned.
    pub fn candidates_probed(
        &mut self,
        k: usize,
        probe: &mut dyn FnMut() -> bool,
    ) -> Option<&[CandidatePair]> {
        if !self.per_k.contains_key(&k) {
            let joined = self.index.join(&self.queries, k, probe)?;
            self.per_k.insert(k, joined);
        }
        Some(&self.per_k[&k])
    }

    /// Seeds the memo for `k` with an externally recovered candidate list
    /// (e.g. a checkpointed blocking artifact), avoiding a recompute.
    pub fn insert(&mut self, k: usize, pairs: Vec<CandidatePair>) {
        self.per_k.insert(k, pairs);
    }

    /// Drops the memo for `k` (degradation path: a poisoned plan memo is
    /// rebuilt cold rather than trusted).
    pub fn invalidate(&mut self, k: usize) {
        self.per_k.remove(&k);
    }

    /// Whether `k`'s join is already memoised.
    pub fn contains(&self, k: usize) -> bool {
        self.per_k.contains_key(&k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::BruteForceKnn;

    #[test]
    fn knn_join_pairs_each_query() {
        let right = BruteForceKnn::build(vec![vec![0.0], vec![10.0], vec![20.0]]);
        let queries = vec![vec![1.0], vec![19.0]];
        let pairs = knn_join(&queries, &right, 1);
        assert_eq!(pairs.len(), 2);
        assert_eq!((pairs[0].left, pairs[0].right), (0, 0));
        assert_eq!((pairs[1].left, pairs[1].right), (1, 2));
    }

    #[test]
    fn join_cache_memoises_per_k_and_accepts_seeds() {
        let points = vec![vec![0.0], vec![10.0], vec![20.0]];
        let idx = BruteForceKnn::build(points);
        let queries = vec![vec![1.0], vec![19.0]];
        let mut cache = JoinCache::new(&queries, &idx);
        assert!(!cache.contains(2));
        let direct = knn_join(&queries, &idx, 2);
        assert_eq!(cache.candidates(2), &direct[..]);
        assert_eq!(cache.candidates(2), &direct[..], "memo changed on reread");
        assert!(cache.contains(2) && !cache.contains(1));
        // A seeded entry short-circuits the join entirely.
        let fake = vec![CandidatePair {
            left: 7,
            right: 7,
            distance: 0.0,
        }];
        cache.insert(1, fake.clone());
        assert!(cache.contains(1));
        assert_eq!(cache.candidates(1), &fake[..]);
    }

    #[test]
    fn probed_join_stops_cooperatively_and_memoises_nothing() {
        let points = vec![vec![0.0], vec![10.0], vec![20.0]];
        let idx = BruteForceKnn::build(points);
        let queries = vec![vec![1.0], vec![19.0], vec![21.0]];
        // A probe that trips on the third query abandons the join.
        let mut calls = 0;
        let mut probe = || {
            calls += 1;
            calls > 2
        };
        assert_eq!(knn_join_probed(&queries, &idx, 1, &mut probe), None);
        assert_eq!(calls, 3, "probe must run once per query until tripped");
        // Through the cache: nothing is memoised on abandonment…
        let mut cache = JoinCache::new(&queries, &idx);
        let mut stop = || true;
        assert!(cache.candidates_probed(1, &mut stop).is_none());
        assert!(!cache.contains(1));
        // …and a memoised k is served without consulting the probe.
        let mut go = || false;
        assert!(cache.candidates_probed(1, &mut go).is_some());
        assert!(cache.candidates_probed(1, &mut stop).is_some());
        // invalidate() really drops the memo.
        cache.invalidate(1);
        assert!(!cache.contains(1));
    }

    #[test]
    fn distances_are_exact() {
        let right = BruteForceKnn::build(vec![vec![3.0, 4.0]]);
        let pairs = knn_join(&[vec![0.0, 0.0]], &right, 1);
        assert!((pairs[0].distance - 5.0).abs() < 1e-6);
    }
}
