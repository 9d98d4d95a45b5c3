//! Entity consolidation: from pairwise links to entity clusters.
//!
//! Matching produces pairwise duplicate links; a deployed ER system
//! (Fig. 1's "resolved entities" output) needs *clusters* — groups of
//! rows, possibly spanning both tables, that refer to one real-world
//! entity. This module provides the standard union-find consolidation
//! over the matcher's links, with cluster-level reporting.

use std::collections::BTreeMap;

/// A row identifier across the two input tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RowId {
    /// Row of table A.
    A(usize),
    /// Row of table B.
    B(usize),
}

/// Union-find (disjoint-set) structure with path halving and union by
/// size.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
            size: vec![1; n],
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were
    /// separate.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
        true
    }
}

/// One resolved entity: the rows (from either table) it comprises.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntityCluster {
    /// Member rows, sorted (A rows before B rows).
    pub members: Vec<RowId>,
}

impl EntityCluster {
    /// Number of member rows.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the cluster is empty (never produced by [`cluster_links`]).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Rows from table A.
    pub fn a_rows(&self) -> impl Iterator<Item = usize> + '_ {
        self.members.iter().filter_map(|m| match m {
            RowId::A(i) => Some(*i),
            RowId::B(_) => None,
        })
    }

    /// Rows from table B.
    pub fn b_rows(&self) -> impl Iterator<Item = usize> + '_ {
        self.members.iter().filter_map(|m| match m {
            RowId::B(i) => Some(*i),
            RowId::A(_) => None,
        })
    }
}

/// Consolidates `(a_row, b_row)` links into entity clusters over tables of
/// `len_a` / `len_b` rows. Rows with no links become singleton clusters
/// only if `include_singletons` is set. Clusters are returned largest
/// first, ties broken by smallest member.
///
/// # Errors
/// [`crate::CoreError::BadInput`] when a link references a row outside
/// either table — links often come from external sources (files, other
/// matchers), so out-of-range rows are data, not a programming invariant.
pub fn cluster_links(
    links: &[(usize, usize)],
    len_a: usize,
    len_b: usize,
    include_singletons: bool,
) -> Result<Vec<EntityCluster>, crate::CoreError> {
    let total = len_a + len_b;
    let mut uf = UnionFind::new(total);
    // vaer-lint: allow(cancel-probe-coverage) -- union-find pass bounded by the link count handed in by the caller
    for &(a, b) in links {
        if a >= len_a || b >= len_b {
            return Err(crate::CoreError::BadInput(format!(
                "link ({a}, {b}) is out of range for tables of {len_a} x {len_b} rows"
            )));
        }
        uf.union(a, len_a + b);
    }
    let mut groups: BTreeMap<usize, Vec<RowId>> = BTreeMap::new();
    let mut linked = vec![false; total];
    for &(a, b) in links {
        linked[a] = true;
        linked[len_a + b] = true;
    }
    // vaer-lint: allow(cancel-probe-coverage) -- grouping pass bounded by total row count
    for (x, &is_linked) in linked.iter().enumerate() {
        if !include_singletons && !is_linked {
            continue;
        }
        let root = uf.find(x);
        let id = if x < len_a {
            RowId::A(x)
        } else {
            RowId::B(x - len_a)
        };
        groups.entry(root).or_default().push(id);
    }
    let mut clusters: Vec<EntityCluster> = groups
        .into_values()
        .map(|mut members| {
            members.sort();
            EntityCluster { members }
        })
        .collect();
    clusters.sort_by(|x, y| {
        y.len()
            .cmp(&x.len())
            .then_with(|| x.members.first().cmp(&y.members.first()))
    });
    Ok(clusters)
}

/// Pairwise cluster quality against ground-truth duplicate pairs: a pair
/// counts as predicted-positive when both rows land in one cluster.
///
/// # Errors
/// [`crate::CoreError::BadInput`] when a truth pair references a row
/// outside either table — same contract as [`cluster_links`]: ground
/// truth is data (files, generators), not a programming invariant.
pub fn pairwise_cluster_metrics(
    clusters: &[EntityCluster],
    truth: &[(usize, usize)],
    len_a: usize,
    len_b: usize,
) -> Result<vaer_stats::metrics::PrF1, crate::CoreError> {
    for &(a, b) in truth {
        if a >= len_a || b >= len_b {
            return Err(crate::CoreError::BadInput(format!(
                "truth pair ({a}, {b}) is out of range for tables of {len_a} x {len_b} rows"
            )));
        }
    }
    let mut cluster_of_a = vec![usize::MAX; len_a];
    let mut cluster_of_b = vec![usize::MAX; len_b];
    for (ci, c) in clusters.iter().enumerate() {
        for a in c.a_rows() {
            cluster_of_a[a] = ci;
        }
        for b in c.b_rows() {
            cluster_of_b[b] = ci;
        }
    }
    let truth_set: std::collections::BTreeSet<(usize, usize)> = truth.iter().copied().collect();
    let mut tp = 0;
    let mut fp = 0;
    // Predicted positives: every cross-table pair inside a cluster.
    for c in clusters {
        let a_rows: Vec<usize> = c.a_rows().collect();
        let b_rows: Vec<usize> = c.b_rows().collect();
        for &a in &a_rows {
            for &b in &b_rows {
                if truth_set.contains(&(a, b)) {
                    tp += 1;
                } else {
                    fp += 1;
                }
            }
        }
    }
    let fn_ = truth
        .iter()
        .filter(|&&(a, b)| cluster_of_a[a] == usize::MAX || cluster_of_a[a] != cluster_of_b[b])
        .count();
    Ok(vaer_stats::metrics::PrF1::from_counts(tp, fp, fn_, 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2), "already merged");
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(0), uf.find(3));
    }

    #[test]
    fn links_form_transitive_clusters() {
        // A0-B0, A1-B0 → {A0, A1, B0}; A2-B2 separate.
        let clusters = cluster_links(&[(0, 0), (1, 0), (2, 2)], 3, 3, false).unwrap();
        assert_eq!(clusters.len(), 2);
        assert_eq!(
            clusters[0].members,
            vec![RowId::A(0), RowId::A(1), RowId::B(0)]
        );
        assert_eq!(clusters[1].members, vec![RowId::A(2), RowId::B(2)]);
    }

    #[test]
    fn singletons_optional() {
        let with = cluster_links(&[(0, 0)], 2, 2, true).unwrap();
        assert_eq!(with.len(), 3); // {A0,B0}, {A1}, {B1}
        let without = cluster_links(&[(0, 0)], 2, 2, false).unwrap();
        assert_eq!(without.len(), 1);
    }

    #[test]
    fn ordering_largest_first() {
        let clusters = cluster_links(&[(0, 0), (0, 1), (2, 2)], 3, 3, false).unwrap();
        assert!(clusters[0].len() >= clusters[1].len());
    }

    #[test]
    fn cluster_row_accessors() {
        let clusters = cluster_links(&[(1, 2)], 3, 4, false).unwrap();
        let c = &clusters[0];
        assert_eq!(c.a_rows().collect::<Vec<_>>(), vec![1]);
        assert_eq!(c.b_rows().collect::<Vec<_>>(), vec![2]);
        assert!(!c.is_empty());
    }

    #[test]
    fn pairwise_metrics_perfect_and_imperfect() {
        let truth = vec![(0, 0), (1, 1)];
        let perfect = cluster_links(&[(0, 0), (1, 1)], 2, 2, false).unwrap();
        let m = pairwise_cluster_metrics(&perfect, &truth, 2, 2).unwrap();
        assert_eq!(m.f1, 1.0);
        // Over-merging costs precision: A0-B0 and A1-B0 in one cluster.
        let merged = cluster_links(&[(0, 0), (1, 0), (1, 1)], 2, 2, false).unwrap();
        let m2 = pairwise_cluster_metrics(&merged, &truth, 2, 2).unwrap();
        assert!(m2.precision < 1.0);
        assert_eq!(m2.recall, 1.0);
    }

    #[test]
    fn pairwise_metrics_reject_out_of_range_truth() {
        // Regression: this used to panic on `cluster_of_a[5]` instead of
        // reporting the bad truth pair like `cluster_links` does.
        let clusters = cluster_links(&[(0, 0)], 2, 2, false).unwrap();
        let err = pairwise_cluster_metrics(&clusters, &[(5, 0)], 2, 2).unwrap_err();
        assert!(
            matches!(err, crate::CoreError::BadInput(_)),
            "expected BadInput, got {err}"
        );
        assert!(err.to_string().contains("out of range"), "{err}");
        assert!(pairwise_cluster_metrics(&clusters, &[(0, 9)], 2, 2).is_err());
        // In-range truth on the same clusters still succeeds.
        assert!(pairwise_cluster_metrics(&clusters, &[(0, 0), (1, 1)], 2, 2).is_ok());
    }

    #[test]
    fn out_of_range_link_is_an_error() {
        let err = cluster_links(&[(5, 0)], 2, 2, false).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        assert!(cluster_links(&[(0, 9)], 2, 2, false).is_err());
    }
}
