//! Exact re-ranking shared by both indexes: squared distances computed
//! for several rows at once, and an exact top-k selection in the
//! `(distance, row)` order.

use crate::join::CandidatePair;
use crate::points::Points;

/// Rows whose distances to one query advance together over the
/// dimensions.
const LANES: usize = 8;

/// Dimensions per transposed tile in [`sq_dists`].
const TILE: usize = 8;

/// Re-ranking scratch owned by one join call and reused by every query
/// row of it, so ranking allocates nothing per query.
pub(crate) struct Ranker {
    /// Distance of each indexed row to the current query; valid for the
    /// rows ranked last.
    dist: Vec<f32>,
    /// [`order_key`] of every row ranked for the current query.
    order: Vec<u64>,
}

impl Ranker {
    /// Scratch for ranking against `rows` indexed points.
    pub(crate) fn new(rows: usize) -> Self {
        Self {
            dist: vec![0.0; rows],
            order: Vec::with_capacity(rows),
        }
    }

    /// Appends the `k` of `rows` closest to `query` to `out` as pairs
    /// `(left, row, distance)`, ordered by distance with NaN last, then
    /// by row.
    ///
    /// # Panics
    /// Panics when `query`'s dimensionality differs from a non-empty
    /// `points`'.
    pub(crate) fn rank(
        &mut self,
        query: &[f32],
        points: &Points,
        rows: &[u32],
        k: usize,
        left: usize,
        out: &mut Vec<CandidatePair>,
    ) {
        points.check_query(query);
        self.order.clear();
        for chunk in rows.chunks(LANES) {
            let sums = sq_dists(query, points, chunk);
            for (&row, &sum) in chunk.iter().zip(&sums) {
                let distance = sum.sqrt();
                self.dist[row as usize] = distance;
                self.order.push(order_key(distance, row));
            }
        }
        let kept = k.min(self.order.len());
        if kept == 0 {
            return;
        }
        if kept < self.order.len() {
            self.order.select_nth_unstable(kept - 1);
        }
        let best = &mut self.order[..kept];
        best.sort_unstable();
        out.extend(best.iter().map(|&key| {
            let right = key as u32 as usize;
            CandidatePair {
                left,
                right,
                distance: self.dist[right],
            }
        }));
    }
}

/// The neighbour order as one integer: the distance in the high half,
/// the row in the low half as the tie-break. Distances are square roots
/// of sums of squares, so never below zero, and non-negative floats
/// order like their bit patterns; `-0.0` folds onto `+0.0` and every
/// NaN maps above `+inf`, which makes the order total with NaN last.
fn order_key(distance: f32, row: u32) -> u64 {
    debug_assert!(
        distance.is_nan() || distance >= 0.0,
        "negative distance {distance}"
    );
    let bits = if distance.is_nan() {
        u32::MAX
    } else if distance == 0.0 {
        0
    } else {
        distance.to_bits()
    };
    (u64::from(bits) << 32) | u64::from(row)
}

/// Squared Euclidean distances from `query` to up to [`LANES`] indexed
/// rows. Every [`TILE`] dimensions the rows' values are gathered into a
/// `TILE × LANES` tile whose columns are the rows, so the row sums
/// advance together as independent, vectorisable chains. Each row's sum
/// is still one left-to-right `f32` sum from `-0.0` (the value
/// `f32: Sum` folds from), so it is bit-identical to
/// `query.iter().zip(row).map(|(x, y)| (x - y) * (x - y)).sum()`.
fn sq_dists(query: &[f32], points: &Points, rows: &[u32]) -> [f32; LANES] {
    debug_assert!(!rows.is_empty() && rows.len() <= LANES);
    let dims = query.len();
    // A short chunk repeats its last row in the spare lanes, whose sums
    // the caller never reads.
    let lanes: [&[f32]; LANES] = std::array::from_fn(|j| {
        let row = rows[j.min(rows.len() - 1)] as usize;
        &points.row(row)[..dims]
    });
    let mut acc = [-0.0f32; LANES];
    let tiled = dims - dims % TILE;
    // vaer-lint: allow(cancel-probe-coverage) -- one pass over the dimensions of eight rows; joins probe once per query row
    for d0 in (0..tiled).step_by(TILE) {
        let tile: [[f32; LANES]; TILE] =
            std::array::from_fn(|i| std::array::from_fn(|j| lanes[j][d0 + i]));
        for (&x, column) in query[d0..d0 + TILE].iter().zip(&tile) {
            for (sum, &y) in acc.iter_mut().zip(column) {
                let t = x - y;
                *sum += t * t;
            }
        }
    }
    for (d, &x) in query.iter().enumerate().skip(tiled) {
        for (sum, lane) in acc.iter_mut().zip(&lanes) {
            let t = x - lane[d];
            *sum += t * t;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_sums_match_the_serial_fold_bitwise() {
        // 37 dims: four whole tiles and a five-dimension tail.
        let mut points = Points::with_capacity(37, 11);
        for i in 0..11 {
            points.push((0..37).map(|d| ((i * 37 + d) as f32 * 0.731).sin() * 3.0));
        }
        let query: Vec<f32> = (0..37).map(|d| (d as f32 * 1.37).cos()).collect();
        let rows: Vec<u32> = vec![10, 3, 7, 0, 9, 1, 4, 8, 2, 6, 5];
        for chunk in rows.chunks(LANES) {
            let sums = sq_dists(&query, &points, chunk);
            for (&row, &sum) in chunk.iter().zip(&sums) {
                let serial: f32 = query
                    .iter()
                    .zip(points.row(row as usize))
                    .map(|(&x, &y)| (x - y) * (x - y))
                    .sum();
                assert_eq!(sum.to_bits(), serial.to_bits(), "row {row}");
            }
        }
    }

    #[test]
    fn order_is_total_with_nan_last_and_ties_by_row() {
        let mut keys = [
            order_key(f32::NAN, 0),
            order_key(1.0, 5),
            order_key(f32::INFINITY, 1),
            order_key(1.0, 2),
            order_key(-0.0, 9),
            order_key(0.0, 3),
        ];
        keys.sort_unstable();
        let rows: Vec<u32> = keys.iter().map(|&k| k as u32).collect();
        assert_eq!(rows, [3, 9, 2, 5, 1, 0]);
    }
}
