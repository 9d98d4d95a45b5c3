//! The IR table: a table's intermediate representations, one row per
//! attribute value, in the layout every core component exchanges.

use vaer_linalg::Matrix;

/// The IR matrix of one table: `tuples · arity` rows, row-major per tuple
/// (tuple 0's attributes first). This is the layout every core component
/// exchanges — the VAE trains on all rows, the matcher selects
/// per-attribute slices, the AL loop selects per-tuple slices.
#[derive(Debug, Clone)]
pub struct IrTable {
    /// Attribute count per tuple.
    pub arity: usize,
    /// The stacked IRs (`tuples * arity` rows).
    pub irs: Matrix,
}

impl IrTable {
    /// Wraps a stacked IR matrix.
    ///
    /// # Panics
    /// Panics if the row count is not a multiple of `arity`.
    pub fn new(arity: usize, irs: Matrix) -> Self {
        assert!(arity > 0, "arity must be positive");
        assert_eq!(
            irs.rows() % arity,
            0,
            "{} rows not divisible by arity {arity}",
            irs.rows()
        );
        Self { arity, irs }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.irs.rows() / self.arity
    }

    /// Whether the table holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.irs.rows() == 0
    }

    /// IR dimensionality.
    pub fn ir_dim(&self) -> usize {
        self.irs.cols()
    }

    /// Gathers attribute `attr` of the given tuples into a `len x ir_dim`
    /// matrix (one matcher-encoder input).
    ///
    /// # Panics
    /// Panics when `attr` or a tuple index is out of range (indices are
    /// produced by the caller, so this is a programming error).
    pub fn attr_rows(&self, tuples: &[usize], attr: usize) -> Matrix {
        assert!(attr < self.arity, "attribute {attr} out of range");
        let rows: Vec<usize> = tuples.iter().map(|&t| t * self.arity + attr).collect();
        self.irs.select_rows(&rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ir_table_access() {
        // 2 tuples, arity 3, ir_dim 2; row value encodes (tuple, attr).
        let data: Vec<f32> = (0..6)
            .flat_map(|i| vec![i as f32, 10.0 + i as f32])
            .collect();
        let t = IrTable::new(3, Matrix::from_vec(6, 2, data));
        assert_eq!(t.len(), 2);
        assert_eq!(t.ir_dim(), 2);
        let a1 = t.attr_rows(&[0, 1], 1);
        assert_eq!(a1.row(0), &[1.0, 11.0]); // tuple 0, attr 1 = flat row 1
        assert_eq!(a1.row(1), &[4.0, 14.0]); // tuple 1, attr 1 = flat row 4
    }

    #[test]
    #[should_panic]
    fn ir_table_rejects_ragged() {
        IrTable::new(3, Matrix::zeros(5, 2));
    }
}
