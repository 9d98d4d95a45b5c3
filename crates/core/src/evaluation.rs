//! Representation-quality evaluation — the top-K protocol of Table IV,
//! Fig. 4 and Table VII.
//!
//! For each labelled test pair `(s, t)`, the pair counts as retrieved when
//! `t` is among the top-K neighbours of `s` in table B *or* `s` is among
//! the top-K neighbours of `t` in table A (paper footnote 5). VAER
//! representations are searched on their μ rows and re-ranked by the
//! full W₂² (paper §VI-B); raw IRs are searched on their concatenated
//! per-attribute vectors.

use crate::entity::IrTable;
use crate::latent::LatentTable;
use crate::CoreError;
use vaer_data::PairSet;
use vaer_index::{BruteForceKnn, KnnIndex};
use vaer_stats::metrics::TopKReport;

/// Top-K evaluation over raw IR tuple vectors (the paper's left-hand
/// baseline columns in Table IV).
///
/// # Errors
/// [`CoreError::BadInput`] when a pair indexes past either table.
pub fn topk_eval_irs(
    a: &IrTable,
    b: &IrTable,
    test: &PairSet,
    k: usize,
) -> Result<TopKReport, CoreError> {
    check_pairs(test, (a.len(), b.len()))?;
    Ok(topk_eval_keys(&ir_keys(a), &ir_keys(b), None, test, k))
}

/// Top-K evaluation over VAER latent caches: μ-row search re-ranked by
/// W₂² (the right-hand columns in Table IV).
///
/// # Errors
/// [`CoreError::BadInput`] when a pair indexes past either table.
pub fn topk_eval_vae(
    lat_a: &LatentTable,
    lat_b: &LatentTable,
    test: &PairSet,
    k: usize,
) -> Result<TopKReport, CoreError> {
    check_pairs(test, (lat_a.len(), lat_b.len()))?;
    Ok(topk_eval_keys(
        &lat_a.mu_rows(),
        &lat_b.mu_rows(),
        Some((lat_a, lat_b)),
        test,
        k,
    ))
}

/// Recall@K over the full ground-truth duplicate list (used for the
/// Fig. 4 sweep and Table VII's repr-recall column).
///
/// # Errors
/// [`CoreError::BadInput`] when a duplicate indexes past either table.
pub fn recall_at_k_vae(
    lat_a: &LatentTable,
    lat_b: &LatentTable,
    duplicates: &[(usize, usize)],
    k: usize,
) -> Result<f32, CoreError> {
    let test: PairSet = duplicates
        .iter()
        .map(|&(l, r)| vaer_data::LabeledPair {
            left: l,
            right: r,
            is_match: true,
        })
        .collect();
    Ok(topk_eval_vae(lat_a, lat_b, &test, k)?.recall)
}

/// [`CoreError::BadInput`] unless every pair indexes inside tables of
/// `len_a x len_b` rows.
pub(crate) fn check_pairs(
    pairs: &PairSet,
    (len_a, len_b): (usize, usize),
) -> Result<(), CoreError> {
    if pairs
        .pairs
        .iter()
        .any(|p| p.left >= len_a || p.right >= len_b)
    {
        let why = format!("a pair is out of range for tables of {len_a} x {len_b} rows");
        return Err(CoreError::BadInput(why));
    }
    Ok(())
}

/// Each tuple's IR rows side by side: one slice of the tuple-major
/// `irs` per tuple.
fn ir_keys(table: &IrTable) -> Vec<&[f32]> {
    let width = table.arity * table.ir_dim();
    (0..table.len())
        .map(|t| &table.irs.as_slice()[t * width..(t + 1) * width])
        .collect()
}

fn topk_eval_keys(
    a_keys: &[&[f32]],
    b_keys: &[&[f32]],
    rerank: Option<(&LatentTable, &LatentTable)>,
    test: &PairSet,
    k: usize,
) -> TopKReport {
    if a_keys.is_empty() || b_keys.is_empty() || test.is_empty() {
        return TopKReport::new(0, 0, 0, 0);
    }
    // Exact search keeps the evaluation deterministic; LSH speed is
    // benchmarked separately in the micro benches.
    let index_b = BruteForceKnn::build(b_keys);
    let index_a = BruteForceKnn::build(a_keys);
    // Per-query retrieval; with `(query cache, query tuple, target
    // cache)`, 2k candidates by μ re-ranked by W₂², NaN last.
    let topk_of = |index: &BruteForceKnn,
                   query: &[f32],
                   rerank: Option<(&LatentTable, usize, &LatentTable)>|
     -> Vec<usize> {
        match rerank {
            Some((query_lat, q, target_lat)) => {
                let mut cands: Vec<(usize, f32)> = index
                    .knn(query, 2 * k)
                    .into_iter()
                    .map(|n| (n.index, query_lat.w2_squared(q, target_lat, n.index)))
                    .collect();
                cands.sort_by(|a, b| vaer_stats::nan_last(a.1, b.1));
                cands.into_iter().take(k).map(|(i, _)| i).collect()
            }
            None => index.knn(query, k).into_iter().map(|n| n.index).collect(),
        }
    };

    let mut hits = 0usize;
    let mut total_pos = 0usize;
    let mut retrieved_labeled = 0usize;
    let mut retrieved_positive = 0usize;
    for p in &test.pairs {
        let fw = topk_of(
            &index_b,
            a_keys[p.left],
            rerank.map(|(la, lb)| (la, p.left, lb)),
        );
        let bw = topk_of(
            &index_a,
            b_keys[p.right],
            rerank.map(|(la, lb)| (lb, p.right, la)),
        );
        let retrieved = fw.contains(&p.right) || bw.contains(&p.left);
        if p.is_match {
            total_pos += 1;
            if retrieved {
                hits += 1;
            }
        }
        if retrieved {
            retrieved_labeled += 1;
            if p.is_match {
                retrieved_positive += 1;
            }
        }
    }
    TopKReport::new(hits, total_pos, retrieved_positive, retrieved_labeled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaer_data::LabeledPair;
    use vaer_linalg::Matrix;

    /// A cache of one-attribute tuples with means `mus` and σ `sigma`.
    fn lat(mus: &[[f32; 2]], sigma: f32) -> LatentTable {
        let mu = Matrix::from_vec(mus.len(), 2, mus.iter().flatten().copied().collect());
        LatentTable::from_matrices(1, mu, Matrix::filled(mus.len(), 2, sigma))
    }

    fn spaced(n: usize, step: f32, offset: [f32; 2]) -> Vec<[f32; 2]> {
        (0..n)
            .map(|i| [i as f32 * step + offset[0], offset[1]])
            .collect()
    }

    fn matches(pairs: &[(usize, usize)]) -> PairSet {
        pairs
            .iter()
            .map(|&(left, right)| LabeledPair {
                left,
                right,
                is_match: true,
            })
            .collect()
    }

    #[test]
    fn perfect_representation_scores_full_recall() {
        // A[i] and B[i] share coordinates.
        let lat_a = lat(&spaced(5, 10.0, [0.0, 0.0]), 0.1);
        let lat_b = lat_a.clone();
        let test: PairSet = (0..5)
            .map(|i| LabeledPair {
                left: i,
                right: i,
                is_match: true,
            })
            .chain((0..5).map(|i| LabeledPair {
                left: i,
                right: (i + 2) % 5,
                is_match: false,
            }))
            .collect();
        let report = topk_eval_vae(&lat_a, &lat_b, &test, 1).unwrap();
        assert!((report.recall - 1.0).abs() < 1e-6);
        // With K=1 only the true duplicate is retrieved, so precision = 1.
        assert!((report.precision - 1.0).abs() < 1e-6);
    }

    #[test]
    fn scrambled_representation_scores_zero_recall() {
        let lat_a = lat(&spaced(5, 10.0, [0.0, 0.0]), 0.1);
        // B reversed: duplicates are now far apart.
        let reversed: Vec<[f32; 2]> = (0..5)
            .map(|i| [(4 - i) as f32 * 10.0 + 5.0, 40.0])
            .collect();
        let lat_b = lat(&reversed, 0.1);
        let test = matches(&(0..5).map(|i| (i, i)).collect::<Vec<_>>());
        let report = topk_eval_vae(&lat_a, &lat_b, &test, 1).unwrap();
        assert!(report.recall < 0.5);
    }

    #[test]
    fn ir_eval_uses_concatenated_tuples() {
        // 3 tuples, arity 2, ir_dim 1: keys are 2-d concatenations.
        let a = IrTable::new(
            2,
            Matrix::from_vec(6, 1, vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0]),
        );
        let b = a.clone();
        let keys = ir_keys(&a);
        assert_eq!(keys.len(), 3);
        assert_eq!(keys[1], &[1.0, 1.0]);
        let test = matches(&[(0, 0), (1, 1), (2, 2)]);
        let report = topk_eval_irs(&a, &b, &test, 1).unwrap();
        assert!((report.recall - 1.0).abs() < 1e-6);
    }

    #[test]
    fn recall_at_k_increases_with_k() {
        let lat_a = lat(&spaced(8, 1.0, [0.0, 0.0]), 0.1);
        let lat_b = lat(&spaced(8, 1.0, [0.6, 0.0]), 0.1);
        let duplicates: Vec<(usize, usize)> = (0..8).map(|i| (i, i)).collect();
        let r1 = recall_at_k_vae(&lat_a, &lat_b, &duplicates, 1).unwrap();
        let r3 = recall_at_k_vae(&lat_a, &lat_b, &duplicates, 3).unwrap();
        assert!(r3 >= r1, "recall@3 {r3} < recall@1 {r1}");
    }

    #[test]
    fn empty_inputs_yield_zero_report() {
        let empty = lat(&[], 0.1);
        let report = topk_eval_vae(&empty, &empty, &PairSet::new(), 5).unwrap();
        assert_eq!(report.recall, 0.0);
        assert_eq!(report.f1, 0.0);
    }

    #[test]
    fn out_of_range_pairs_are_bad_input() {
        let (lat3, empty) = (lat(&spaced(3, 1.0, [0.0, 0.0]), 0.1), lat(&[], 0.1));
        let irs3 = IrTable::new(2, Matrix::zeros(6, 1));
        let irs0 = IrTable::new(2, Matrix::zeros(0, 1));
        let bad = |r: Result<TopKReport, CoreError>| matches!(r, Err(CoreError::BadInput(_)));
        for (pair, empty_b) in [((0, 3), false), ((3, 0), false), ((0, 0), true)] {
            let (lat_b, irs_b) = if empty_b {
                (&empty, &irs0)
            } else {
                (&lat3, &irs3)
            };
            let test = matches(&[pair]);
            assert!(bad(topk_eval_vae(&lat3, lat_b, &test, 2)), "{pair:?}");
            assert!(bad(topk_eval_irs(&irs3, irs_b, &test, 2)), "{pair:?}");
            let recall = recall_at_k_vae(&lat3, lat_b, &[pair], 2);
            assert!(matches!(recall, Err(CoreError::BadInput(_))), "{pair:?}");
        }
    }

    #[test]
    fn nan_w2_keys_rank_after_every_number() {
        // A NaN σ leaves the μ rows finite, so the μ search ranks that
        // tuple first while its W₂² is NaN. The duplicate (0, 1) has the
        // smallest finite W₂² both ways and must be retrieved at k = 1.
        let lat_a = LatentTable::from_matrices(
            1,
            Matrix::from_vec(2, 2, vec![0.0, 0.0, 0.2, 0.0]),
            Matrix::from_vec(2, 2, vec![0.1, 0.1, f32::NAN, 0.1]),
        );
        let lat_b = LatentTable::from_matrices(
            1,
            Matrix::from_vec(3, 2, vec![0.1, 0.0, 0.2, 0.0, 0.3, 0.0]),
            Matrix::from_vec(3, 2, vec![f32::NAN, 0.1, 0.1, 0.1, 0.1, 0.1]),
        );
        let report = topk_eval_vae(&lat_a, &lat_b, &matches(&[(0, 1)]), 1).unwrap();
        assert_eq!(report.recall, 1.0);
    }
}
