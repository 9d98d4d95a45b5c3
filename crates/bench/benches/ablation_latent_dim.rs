//! Ablation: VAE latent dimensionality (paper Table III uses 100 at full
//! scale; our default is 32 — see DESIGN.md scaling notes).

use vaer_bench::{banner, dataset, fmt_metric, scale_from_env, seed_from_env};
use vaer_core::entity::IrTable;
use vaer_core::evaluation::recall_at_k_vae;
use vaer_core::latent::LatentTable;
use vaer_core::matcher::{MatcherConfig, PairExamples, SiameseMatcher};
use vaer_core::repr::{ReprConfig, ReprModel};
use vaer_data::domains::Domain;
use vaer_embed::{fit_ir_model, IrKind};

fn main() {
    banner("Ablation — VAE latent dimensionality");
    let scale = scale_from_env();
    let seed = seed_from_env();
    let dims = [8usize, 16, 32, 64];
    println!(
        "{:<8} | {:>24} | {:>24}",
        "Domain", "recall@10 (k=8/16/32/64)", "F1 (k=8/16/32/64)"
    );
    for domain in [Domain::Restaurants, Domain::Citations1, Domain::Beer] {
        let ds = dataset(domain, scale, seed);
        let arity = ds.table_a.schema.arity();
        let sentences = ds.all_sentences();
        let ir_model = fit_ir_model(IrKind::Lsa, &sentences, &ds.tables_raw(), 64, seed);
        let a_sentences: Vec<String> = ds.table_a.sentences().map(str::to_owned).collect();
        let b_sentences: Vec<String> = ds.table_b.sentences().map(str::to_owned).collect();
        let irs_a = IrTable::new(arity, ir_model.encode_batch(&a_sentences));
        let irs_b = IrTable::new(arity, ir_model.encode_batch(&b_sentences));
        let all = irs_a.irs.vconcat(&irs_b.irs);
        let mut recalls = Vec::new();
        let mut f1s = Vec::new();
        for latent in dims {
            let config = ReprConfig {
                ir_dim: 64,
                latent_dim: latent,
                seed,
                ..ReprConfig::default()
            };
            let (repr, _) = ReprModel::train(&all, &config).expect("VAE");
            let lat_a = LatentTable::encode(&repr, &irs_a);
            let lat_b = LatentTable::encode(&repr, &irs_b);
            let recall = recall_at_k_vae(&lat_a, &lat_b, &ds.duplicates, 10)
                .expect("duplicates index both tables");
            recalls.push(fmt_metric(recall));
            let train = PairExamples::build(&irs_a, &irs_b, &ds.train_pairs);
            let test = PairExamples::build(&irs_a, &irs_b, &ds.test_pairs);
            let f1 = SiameseMatcher::train(
                &repr,
                &train,
                &MatcherConfig {
                    seed,
                    ..Default::default()
                },
            )
            .map(|m| m.evaluate(&test).f1)
            .unwrap_or(0.0);
            f1s.push(fmt_metric(f1));
        }
        println!(
            "{:<8} | {:>24} | {:>24}",
            ds.name,
            recalls.join("/"),
            f1s.join("/")
        );
    }
    println!("\nShape check: quality should saturate well below the paper's k=100 —");
    println!("supporting the scaled-down latent width used throughout this repo.");
}
