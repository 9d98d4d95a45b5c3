//! The neighbour order of both indexes: ascending distance with NaN
//! last, ties broken by ascending row index — whatever order an index
//! collects its candidates in.

use vaer_index::{BruteForceKnn, E2Lsh, E2LshConfig, KnnIndex, Neighbor};
use vaer_linalg::XorShiftRng;

/// Whether `a` may precede `b`: a smaller distance, NaN after every
/// number, and ascending rows among equal distances (or among NaNs).
fn in_order(a: &Neighbor, b: &Neighbor) -> bool {
    match (a.distance.is_nan(), b.distance.is_nan()) {
        (true, true) => a.index < b.index,
        (true, false) => false,
        (false, true) => true,
        (false, false) => {
            a.distance < b.distance || (a.distance == b.distance && a.index < b.index)
        }
    }
}

fn assert_ordered(what: &str, neighbours: &[Neighbor]) {
    for pair in neighbours.windows(2) {
        assert!(
            in_order(&pair[0], &pair[1]),
            "{what}: {:?} listed before {:?}",
            pair[0],
            pair[1]
        );
    }
}

/// Two hundred 64-dimensional points per set, ~3% of coordinates NaN.
/// Sorting by `partial_cmp(..).unwrap_or(Equal)` is not a total order
/// once a distance is NaN: that sort ranked a NaN neighbour ahead of a
/// number on 18 of these sets, and panicked with "does not correctly
/// implement a total order" on three more (seeds 18, 23 and 30). NaN
/// neighbours now rank last.
#[test]
fn nan_distances_rank_last_instead_of_panicking() {
    let (rows, dims) = (200, 64);
    for seed in 1..=30u64 {
        let mut rng = XorShiftRng::new(seed);
        let points: Vec<Vec<f32>> = (0..rows)
            .map(|_| {
                (0..dims)
                    .map(|_| {
                        if rng.next_f32() < 0.03 {
                            f32::NAN
                        } else {
                            rng.gaussian()
                        }
                    })
                    .collect()
            })
            .collect();
        let brute = BruteForceKnn::build(points.clone());
        let lsh = E2Lsh::build_calibrated(points.clone(), seed);
        for query in &points {
            assert_ordered("brute force", &brute.knn(query, 10));
            assert_ordered("E2LSH", &lsh.knn(query, 10));
        }
        let all = brute.knn(&points[0], rows);
        assert_eq!(all.len(), rows, "seed {seed}");
        assert_ordered("brute force, every row", &all);
    }
}

/// Exact duplicates are equally distant from every query; both indexes
/// list them in ascending row order.
#[test]
fn duplicate_points_come_back_in_row_order() {
    let mut rng = XorShiftRng::new(3);
    let twin: Vec<f32> = (0..6).map(|_| rng.gaussian()).collect();
    let mut points: Vec<Vec<f32>> = (0..30)
        .map(|_| (0..6).map(|_| 5.0 + rng.gaussian()).collect())
        .collect();
    let rows = [4, 11, 17, 23, 29];
    for &row in &rows {
        points[row] = twin.clone();
    }
    let query: Vec<f32> = twin.iter().map(|x| x + 0.01).collect();
    let brute = BruteForceKnn::build(points.clone());
    let lsh = E2Lsh::build(
        points,
        E2LshConfig {
            bucket_width: 4.0,
            ..E2LshConfig::default()
        },
    );
    for (what, index) in [("brute force", &brute as &dyn KnnIndex), ("E2LSH", &lsh)] {
        let got: Vec<usize> = index.knn(&query, 5).iter().map(|n| n.index).collect();
        assert_eq!(got, rows, "{what}");
    }
}

/// Forty points exactly `√5` from the query, in shuffled directions, so
/// they fall into different buckets and E2LSH collects them table by
/// table rather than in row order. Among these ties the top-k are still
/// the lowest candidate rows, ascending.
#[test]
fn ties_across_buckets_come_back_in_row_order() {
    let dims = 8;
    let mut rng = XorShiftRng::new(9);
    let mut points = Vec::new();
    while points.len() < 40 {
        // A 1 and a 2 (each of either sign) in two distinct coordinates:
        // every sum of squares is exactly 5, in whatever order it adds.
        let (i, j) = (rng.below(dims), rng.below(dims));
        if i == j {
            continue;
        }
        let mut p = vec![0.0f32; dims];
        p[i] = if rng.next_f32() < 0.5 { 1.0 } else { -1.0 };
        p[j] = if rng.next_f32() < 0.5 { 2.0 } else { -2.0 };
        if !points.contains(&p) {
            points.push(p);
        }
    }
    let query = vec![0.0f32; dims];
    let k = 10;
    let lsh = E2Lsh::build(
        points.clone(),
        E2LshConfig {
            bucket_width: 3.0,
            seed: 21,
            ..E2LshConfig::default()
        },
    );
    let candidates = lsh.candidates(&query);
    assert!(
        candidates.len() >= k && candidates.len() < points.len(),
        "{} candidates: the hashed path must run and must filter",
        candidates.len()
    );
    let got = lsh.knn(&query, k);
    assert!(got.iter().all(|n| n.distance == 5.0f32.sqrt()));
    let rows: Vec<usize> = got.iter().map(|n| n.index).collect();
    let mut lowest = candidates.clone();
    lowest.sort_unstable();
    assert_eq!(rows, lowest[..k], "lowest candidate rows, ascending");
    let brute: Vec<usize> = BruteForceKnn::build(points)
        .knn(&query, k)
        .iter()
        .map(|n| n.index)
        .collect();
    assert_eq!(brute, (0..k).collect::<Vec<_>>());
}
