//! Integration tests of persistence: representation-model save/load, CSV
//! round-trips of generated benchmark tables, and corruption fuzzing of
//! every binary format (a corrupt file must come back as `Err`, never as
//! a panic or a silently wrong model).

use rand::{rngs::StdRng, RngExt, SeedableRng};
use vaer::core::checkpoint::CheckpointStore;
use vaer::core::pipeline::{Pipeline, PipelineConfig};
use vaer::core::repr::ReprModel;
use vaer::core::resilience::RunBudget;
use vaer::data::csv::{from_csv, to_csv};
use vaer::data::domains::{Domain, DomainSpec, Scale};
use vaer::linalg::Matrix;
use vaer::nn::{Adam, Optimizer, ParamStore};

#[test]
fn repr_model_survives_disk_round_trip() {
    let ds = DomainSpec::new(Domain::Beer, Scale::Tiny).generate(8);
    let mut config = PipelineConfig::fast();
    config.seed = 8;
    let pipeline = Pipeline::fit(&ds, &config).unwrap();
    let bytes = pipeline.repr().to_bytes();
    let restored = ReprModel::from_bytes(&bytes).unwrap();
    // Encodings must be bit-identical.
    let (irs_a, _) = pipeline.ir_tables();
    let (orig_mu, orig_sigma) = pipeline.repr().encode_matrices(&irs_a.irs);
    let (back_mu, back_sigma) = restored.encode_matrices(&irs_a.irs);
    assert_eq!(orig_mu.as_slice(), back_mu.as_slice());
    assert_eq!(orig_sigma.as_slice(), back_sigma.as_slice());
}

#[test]
fn generated_tables_round_trip_through_csv() {
    for domain in [Domain::Restaurants, Domain::Software, Domain::Crm] {
        let ds = DomainSpec::new(domain, Scale::Tiny).generate(12);
        for table in [&ds.table_a, &ds.table_b] {
            let csv = to_csv(table);
            let back = from_csv(&table.schema.name, &csv).unwrap();
            assert_eq!(&back, table, "{domain:?}/{}", table.schema.name);
        }
    }
}

#[test]
fn corrupted_model_bytes_are_rejected() {
    let ds = DomainSpec::new(Domain::Beer, Scale::Tiny).generate(9);
    let mut config = PipelineConfig::fast();
    config.seed = 9;
    let pipeline = Pipeline::fit(&ds, &config).unwrap();
    let mut bytes = pipeline.repr().to_bytes();
    // Flip the magic.
    bytes[0] ^= 0xFF;
    assert!(ReprModel::from_bytes(&bytes).is_err());
    // Truncate the payload.
    let mut short = pipeline.repr().to_bytes();
    short.truncate(short.len() / 2);
    assert!(ReprModel::from_bytes(&short).is_err());
}

/// A parameter store + optimizer mid-training, as a crash would leave them.
fn trained_store_and_adam() -> (ParamStore, Adam) {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut store = ParamStore::new();
    let mut ids = Vec::new();
    for (name, rows, cols) in [("enc.w", 6, 4), ("enc.b", 1, 4), ("dec.w", 4, 6)] {
        let data: Vec<f32> = (0..rows * cols)
            .map(|_| rng.random_range(-1.0..1.0))
            .collect();
        ids.push(store.add(name, Matrix::from_vec(rows, cols, data)));
    }
    let mut adam = Adam::new(1e-3, 0.9, 0.999, 1e-8);
    for _ in 0..3 {
        let grads: Vec<_> = ids
            .iter()
            .map(|&id| {
                let shape = store.get(id).shape();
                let g: Vec<f32> = (0..shape.0 * shape.1)
                    .map(|_| rng.random_range(-0.1..0.1))
                    .collect();
                (id, Matrix::from_vec(shape.0, shape.1, g))
            })
            .collect();
        adam.step(&mut store, &grads);
    }
    (store, adam)
}

/// Applies one seeded corruption (bit flip, byte splice, or truncation) to
/// `bytes`. Returns `None` when the corruption was a no-op.
fn corrupt(bytes: &[u8], rng: &mut StdRng) -> Option<Vec<u8>> {
    let mut out = bytes.to_vec();
    match rng.random_range(0..3u32) {
        0 => {
            let i = rng.random_range(0..out.len());
            let bit = 1u8 << rng.random_range(0..8u32);
            out[i] ^= bit;
        }
        1 => {
            let i = rng.random_range(0..out.len());
            let b = rng.random_range(0..=255u32) as u8;
            if out[i] == b {
                return None;
            }
            out[i] = b;
        }
        _ => {
            out.truncate(rng.random_range(0..out.len()));
        }
    }
    Some(out)
}

#[test]
fn fuzzed_param_store_and_optimizer_bytes_never_panic() {
    let (store, adam) = trained_store_and_adam();
    let store_bytes = store.to_bytes();
    let adam_bytes = adam.to_bytes();
    let mut rng = StdRng::seed_from_u64(0xF0CC);
    let mut store_rejected = 0u32;
    for round in 0..400 {
        let Some(bad) = corrupt(&store_bytes, &mut rng) else {
            continue;
        };
        // Either the CRC catches it (the common case) or — for flips in
        // the trailing CRC's own "don't care" positions — parsing must
        // still never panic.
        if ParamStore::from_bytes(&bad).is_err() {
            store_rejected += 1;
        }
        let Some(bad) = corrupt(&adam_bytes, &mut rng) else {
            continue;
        };
        let _ = Adam::from_bytes(&bad);
        let _ = round;
    }
    assert!(
        store_rejected > 350,
        "only {store_rejected}/400 corruptions rejected — CRC not doing its job"
    );
}

#[test]
fn fuzzed_model_bytes_never_panic() {
    let ds = DomainSpec::new(Domain::Beer, Scale::Tiny).generate(13);
    let mut config = PipelineConfig::fast();
    config.seed = 13;
    let pipeline = Pipeline::fit(&ds, &config).unwrap();
    let bytes = pipeline.repr().to_bytes();
    let mut rng = StdRng::seed_from_u64(0xAB5E);
    let mut rejected = 0u32;
    for _ in 0..200 {
        let Some(bad) = corrupt(&bytes, &mut rng) else {
            continue;
        };
        if ReprModel::from_bytes(&bad).is_err() {
            rejected += 1;
        }
    }
    assert!(rejected > 170, "only {rejected}/200 corruptions rejected");
}

#[test]
fn fuzzed_checkpoint_files_are_rejected_not_loaded() {
    let dir = std::env::temp_dir().join(format!("vaer-ckpt-fuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir, "fuzz").unwrap();
    let payload: Vec<u8> = (0u16..512).map(|i| (i % 251) as u8).collect();
    store.write(1, &payload, &RunBudget::unlimited()).unwrap();
    let path = dir.join("fuzz-00000001.ckpt");
    let good = std::fs::read(&path).unwrap();
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    for _ in 0..200 {
        let Some(bad) = corrupt(&good, &mut rng) else {
            continue;
        };
        std::fs::write(&path, &bad).unwrap();
        // Corruption must never surface a *different* payload.
        if let Ok(p) = store.read(1) {
            assert_eq!(p, payload, "corrupt checkpoint decoded to wrong payload");
        }
        // And the newest-valid fallback must never panic either.
        let _ = store.read_latest();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
