//! Shared harness code for the experiment benches.
//!
//! Every table and figure in the paper's evaluation section has a
//! `harness = false` bench target in this crate, so
//! `cargo bench --workspace` regenerates the entire evaluation. Each
//! target prints the paper's reported numbers next to our measured ones;
//! absolute values differ (synthetic data, CPU substrate — see DESIGN.md)
//! but the *shapes* are the comparison that matters.
//!
//! Environment knobs:
//! - `VAER_SCALE` = `tiny` | `small` | `paper` (default `small`),
//! - `VAER_SEED` = u64 (default 42),
//! - `VAER_DOMAINS` = comma-separated Table II names to restrict a run
//!   (e.g. `VAER_DOMAINS=Rest.,Beer`).

pub mod measure;
pub mod paper;
pub mod run_record;

use vaer_core::entity::IrTable;
use vaer_core::latent::LatentTable;
use vaer_core::repr::{ReprConfig, ReprModel};
use vaer_data::domains::{Domain, DomainSpec, Scale};
use vaer_data::Dataset;
use vaer_embed::{fit_ir_model, IrKind};

/// Reads the experiment scale from `VAER_SCALE`.
pub fn scale_from_env() -> Scale {
    match std::env::var("VAER_SCALE")
        .unwrap_or_default()
        .to_lowercase()
        .as_str()
    {
        "tiny" => Scale::Tiny,
        "paper" => Scale::Paper,
        _ => Scale::Small,
    }
}

/// Reads the master seed from `VAER_SEED`.
pub fn seed_from_env() -> u64 {
    std::env::var("VAER_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Whether `VAER_BENCH_QUICK=1` (the CI smoke mode: reduced sampling,
/// assertions on, trimmed run records).
pub fn quick_from_env() -> bool {
    std::env::var("VAER_BENCH_QUICK").is_ok_and(|v| v == "1")
}

/// The domains selected by `VAER_DOMAINS` (all nine by default).
pub fn domains_from_env() -> Vec<Domain> {
    match std::env::var("VAER_DOMAINS") {
        Ok(list) if !list.trim().is_empty() => {
            let wanted: Vec<String> = list.split(',').map(|s| s.trim().to_lowercase()).collect();
            Domain::ALL
                .into_iter()
                .filter(|d| wanted.iter().any(|w| d.meta().name.to_lowercase() == *w))
                .collect()
        }
        _ => Domain::ALL.to_vec(),
    }
}

/// Generates the benchmark dataset for a domain at the configured scale.
pub fn dataset(domain: Domain, scale: Scale, seed: u64) -> Dataset {
    DomainSpec::new(domain, scale).generate(seed)
}

/// IR + VAE pipeline front-end shared by the representation experiments:
/// fits the IR model of `kind`, encodes both tables, trains the VAE, and
/// returns the IR tables, the model, and both tables' latent caches.
pub struct ReprBundle {
    /// IR table of table A.
    pub irs_a: IrTable,
    /// IR table of table B.
    pub irs_b: IrTable,
    /// The trained representation model.
    pub repr: ReprModel,
    /// Cached latent encodings of table A (one encoder pass).
    pub lat_a: LatentTable,
    /// Cached latent encodings of table B (one encoder pass).
    pub lat_b: LatentTable,
    /// IR fit+encode seconds.
    pub ir_secs: f64,
    /// VAE training seconds.
    pub repr_secs: f64,
}

/// Fits IRs of `kind` and a VAE on top (the §VI-B experiment setup).
pub fn fit_repr_bundle(ds: &Dataset, kind: IrKind, ir_dim: usize, seed: u64) -> ReprBundle {
    let arity = ds.table_a.schema.arity();
    let t0 = std::time::Instant::now();
    let sentences = ds.all_sentences();
    let ir_model = fit_ir_model(kind, &sentences, &ds.tables_raw(), ir_dim, seed);
    let a_sentences: Vec<String> = ds.table_a.sentences().map(str::to_owned).collect();
    let b_sentences: Vec<String> = ds.table_b.sentences().map(str::to_owned).collect();
    let irs_a = IrTable::new(arity, ir_model.encode_batch(&a_sentences));
    let irs_b = IrTable::new(arity, ir_model.encode_batch(&b_sentences));
    let ir_secs = t0.elapsed().as_secs_f64();
    let t1 = std::time::Instant::now();
    let config = ReprConfig {
        ir_dim,
        seed: seed ^ 0xE301,
        ..ReprConfig::default()
    };
    let all = irs_a.irs.vconcat(&irs_b.irs);
    let (repr, _) = ReprModel::train(&all, &config).expect("VAE training failed"); // vaer-lint: allow(panic) -- bench setup; abort loudly if the model cannot train
    let repr_secs = t1.elapsed().as_secs_f64();
    // One encoder pass per table; downstream experiments read the caches
    // instead of re-encoding.
    let lat_a = LatentTable::encode(&repr, &irs_a);
    let lat_b = LatentTable::encode(&repr, &irs_b);
    ReprBundle {
        irs_a,
        irs_b,
        repr,
        lat_a,
        lat_b,
        ir_secs,
        repr_secs,
    }
}

/// Formats a metric the way the paper's tables do (`1`, `.97`, `.5`).
pub fn fmt_metric(v: f32) -> String {
    if (v - 1.0).abs() < 5e-3 {
        "1".to_string()
    } else if v <= 0.0 {
        "0".to_string()
    } else {
        let s = format!("{v:.2}");
        s.trim_start_matches('0').to_string()
    }
}

/// Prints a bench banner with the run configuration.
pub fn banner(title: &str) {
    let scale = scale_from_env();
    let seed = seed_from_env();
    println!("\n=== {title} ===");
    println!("(scale: {scale:?}, seed: {seed}; see DESIGN.md for the substitution notes)");
}

/// A tiny key→string cache under `target/vaer-cache/` so bench targets
/// that share expensive computation (Table V ↔ Table VI, Table VIII ↔
/// Fig. 5) don't run it twice within one `cargo bench` invocation.
pub mod cache {
    use std::path::PathBuf;

    fn path(key: &str) -> PathBuf {
        let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        p.pop();
        p.pop();
        p.push("target");
        p.push("vaer-cache");
        std::fs::create_dir_all(&p).ok();
        p.push(format!("{key}.txt"));
        p
    }

    /// Stores `value` under `key`.
    pub fn put(key: &str, value: &str) {
        std::fs::write(path(key), value).ok();
    }

    /// Fetches the cached value for `key`, if present and produced by the
    /// same scale/seed configuration (encoded into keys by callers).
    pub fn get(key: &str) -> Option<String> {
        std::fs::read_to_string(path(key)).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_formatting_matches_paper_style() {
        assert_eq!(fmt_metric(1.0), "1");
        assert_eq!(fmt_metric(0.97), ".97");
        assert_eq!(fmt_metric(0.5), ".50");
        assert_eq!(fmt_metric(0.0), "0");
    }

    #[test]
    fn env_parsing_defaults() {
        // Default scale/seed when env vars are unset in the test runner.
        assert_eq!(seed_from_env(), 42);
        assert_eq!(domains_from_env().len(), 9);
    }

    #[test]
    fn repr_bundle_shapes() {
        let ds = dataset(Domain::Restaurants, Scale::Tiny, 1);
        let bundle = fit_repr_bundle(&ds, IrKind::Lsa, 16, 1);
        assert_eq!(bundle.irs_a.len(), ds.table_a.len());
        assert_eq!(bundle.lat_b.len(), ds.table_b.len());
        assert!(bundle.repr_secs > 0.0);
    }

    #[test]
    fn cache_round_trip() {
        cache::put("test_key", "hello");
        assert_eq!(cache::get("test_key").as_deref(), Some("hello"));
        assert!(cache::get("missing_key_xyz").is_none());
    }
}
