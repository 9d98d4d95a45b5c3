//! A flat, row-major set of equal-length vectors: the storage both
//! indexes keep their points in.

/// Equal-length `f32` vectors stored row-major in one `Vec<f32>`: row `i`
/// is `data[i * dims..(i + 1) * dims]`. Both indexes are built from one
/// and keep it as their point storage, so a distance reads one
/// contiguous row and building an index copies no per-row vectors.
#[derive(Debug, Clone)]
pub struct Points {
    data: Vec<f32>,
    dims: usize,
    len: usize,
}

impl Points {
    /// An empty set of `dims`-dimensional points with room for `rows`
    /// rows.
    pub fn with_capacity(dims: usize, rows: usize) -> Self {
        Self {
            data: Vec::with_capacity(dims * rows),
            dims,
            len: 0,
        }
    }

    /// Appends one point.
    ///
    /// # Panics
    /// Panics when `row` does not yield exactly [`dims`](Self::dims)
    /// values.
    pub fn push(&mut self, row: impl IntoIterator<Item = f32>) {
        let before = self.data.len();
        self.data.extend(row);
        let got = self.data.len() - before;
        assert_eq!(
            got, self.dims,
            "point {} has {got} dims, expected {}",
            self.len, self.dims
        );
        self.len += 1;
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set holds no point.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of every point.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Checks that `query` can be compared with these points.
    ///
    /// # Panics
    /// Panics when `query`'s dimensionality differs from a non-empty
    /// set's.
    pub(crate) fn check_query(&self, query: &[f32]) {
        assert!(
            self.is_empty() || query.len() == self.dims,
            "query dims {} != index dims {}",
            query.len(),
            self.dims
        );
    }

    /// Point `i`.
    ///
    /// # Panics
    /// Panics when `i >= len()`.
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.len, "point {i} out of {}", self.len);
        &self.data[i * self.dims..(i + 1) * self.dims]
    }
}

impl From<Vec<Vec<f32>>> for Points {
    /// Flattens row vectors; the dimensionality is the first row's.
    ///
    /// # Panics
    /// Panics when the rows differ in length.
    fn from(rows: Vec<Vec<f32>>) -> Self {
        let dims = rows.first().map_or(0, Vec::len);
        let mut points = Self::with_capacity(dims, rows.len());
        for row in rows {
            points.push(row);
        }
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip() {
        let points = Points::from(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!((points.len(), points.dims()), (2, 2));
        assert_eq!(points.row(1), &[3.0, 4.0]);
        assert!(Points::from(Vec::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "point 1 has 1 dims, expected 2")]
    fn ragged_rows_panic() {
        let _ = Points::from(vec![vec![1.0, 2.0], vec![1.0]]);
    }
}
