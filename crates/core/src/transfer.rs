//! Representation-model transfer — paper §III-D and the Table VII
//! experiment.
//!
//! Because the VAE consumes numeric IRs rather than domain vocabularies,
//! a trained [`ReprModel`] encodes IRs from *any*
//! domain with the same dimensionality. Transfer is therefore: serialise
//! the model in the source task, deserialise it in the target task, adapt
//! the target tables to the source arity (truncate or pad, §VI-D), and
//! skip representation training entirely.

use crate::repr::ReprModel;
use crate::CoreError;
use std::path::Path;
use vaer_data::Dataset;

/// Saves a representation model to disk.
///
/// # Errors
/// I/O failures are wrapped into [`CoreError::BadInput`].
pub fn save_repr(model: &ReprModel, path: &Path) -> Result<(), CoreError> {
    std::fs::write(path, model.to_bytes())
        .map_err(|e| CoreError::BadInput(format!("cannot write {}: {e}", path.display())))
}

/// Loads a representation model from disk.
///
/// # Errors
/// I/O failures and malformed files are reported.
pub fn load_repr(path: &Path) -> Result<ReprModel, CoreError> {
    let bytes = std::fs::read(path)
        .map_err(|e| CoreError::BadInput(format!("cannot read {}: {e}", path.display())))?;
    ReprModel::from_bytes(&bytes)
}

/// Adapts a dataset's tables to the arity a transferred model expects:
/// wider tables keep their first `arity` columns, narrower ones are padded
/// with empty columns (paper §VI-D). Pair labels are unchanged (row
/// indices are stable).
pub fn adapt_dataset_arity(dataset: &Dataset, arity: usize) -> Dataset {
    let mut out = dataset.clone();
    out.table_a = dataset.table_a.with_arity(arity);
    out.table_b = dataset.table_b.with_arity(arity);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::IrTable;
    use crate::latent::LatentTable;
    use crate::repr::ReprConfig;
    use vaer_data::domains::{Domain, DomainSpec, Scale};
    use vaer_linalg::{Matrix, XorShiftRng};

    #[test]
    fn save_load_round_trip() {
        let mut rng = XorShiftRng::new(1);
        let irs = Matrix::gaussian(30, 8, &mut rng);
        let (model, _) = ReprModel::train(&irs, &ReprConfig::fast(8)).unwrap();
        let dir = std::env::temp_dir().join("vaer_transfer_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repr.bin");
        save_repr(&model, &path).unwrap();
        let back = load_repr(&path).unwrap();
        let (a, _) = model.encode_matrices(&irs);
        let (b, _) = back.encode_matrices(&irs);
        assert_eq!(a.row(0), b.row(0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn refresh_reencodes_only_stale_caches_after_a_model_swap() {
        let mut rng = XorShiftRng::new(2);
        let table = IrTable::new(2, Matrix::gaussian(20, 8, &mut rng));
        let (model, _) = ReprModel::train(&table.irs, &ReprConfig::fast(8)).unwrap();
        let lat = LatentTable::encode(&model, &table);

        // Same weights round-tripped through disk: fingerprints match, so
        // the cache survives the swap without an encoder pass.
        let dir = std::env::temp_dir().join("vaer_transfer_latents_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repr.bin");
        save_repr(&model, &path).unwrap();
        let reloaded = load_repr(&path).unwrap();
        std::fs::remove_file(&path).ok();
        crate::repr::reset_encode_calls();
        let kept = lat.clone().refresh(&reloaded, &table);
        assert_eq!(crate::repr::encode_calls(), 0, "fresh cache re-encoded");
        assert!(!kept.is_stale(&reloaded));

        // Different weights: the cache must be rebuilt.
        let other_irs = Matrix::gaussian(20, 8, &mut rng);
        let (other, _) = ReprModel::train(&other_irs, &ReprConfig::fast(8)).unwrap();
        let rebuilt = lat.refresh(&other, &table);
        assert!(!rebuilt.is_stale(&other));
        let (direct, _) = other.encode_matrices(&table.irs);
        assert_eq!(&rebuilt.mu_row(0)[..direct.cols()], direct.row(0));
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(load_repr(Path::new("/nonexistent/vaer.bin")).is_err());
    }

    #[test]
    fn arity_adaptation_preserves_pairs() {
        let ds = DomainSpec::new(Domain::Restaurants, Scale::Tiny).generate(5);
        let adapted = adapt_dataset_arity(&ds, 4);
        assert_eq!(adapted.table_a.schema.arity(), 4);
        assert_eq!(adapted.table_b.schema.arity(), 4);
        assert_eq!(adapted.train_pairs, ds.train_pairs);
        adapted
            .train_pairs
            .validate(&adapted.table_a, &adapted.table_b)
            .unwrap();
        // Padding up also works.
        let wide = adapt_dataset_arity(&ds, 9);
        assert_eq!(wide.table_a.schema.arity(), 9);
        assert_eq!(wide.table_a.row(0)[8], "");
    }
}
