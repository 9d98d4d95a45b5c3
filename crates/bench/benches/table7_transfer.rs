//! Table VII: local vs transferred representation models.
//!
//! A VAER^LSA representation model is trained once on Citations 2 and
//! reused — without retraining — on the other eight domains (tables
//! truncated/padded to arity 4, as in §VI-D). Reported: repr recall@10
//! and matching F1, local vs transferred.

use vaer_bench::paper::{DOMAIN_ORDER, TABLE_VII};
use vaer_bench::{banner, dataset, fmt_metric, scale_from_env, seed_from_env};
use vaer_core::pipeline::{Pipeline, PipelineConfig};
use vaer_core::transfer::adapt_dataset_arity;
use vaer_data::domains::Domain;

fn main() {
    banner("Table VII — recall/F1 with local vs transferred repr. models");
    let scale = scale_from_env();
    let seed = seed_from_env();
    let source_arity = Domain::Citations2.meta().arity;

    // Train the transferred model on Citations 2.
    let source_ds = dataset(Domain::Citations2, scale, seed);
    let mut config = PipelineConfig::paper();
    config.seed = seed;
    let source = Pipeline::fit(&source_ds, &config).expect("source pipeline");
    let transferred_repr = source.repr().clone();
    println!(
        "(transferred model: VAER^LSA trained on {} — {} tuples)",
        source_ds.name,
        source_ds.table_a.len() + source_ds.table_b.len()
    );
    println!(
        "{:<8} | {:>7} {:>7} {:>6} | {:>7} {:>7} {:>6} | paper Δrec / ΔF1",
        "Domain", "rec loc", "rec tra", "Δ", "F1 loc", "F1 tra", "Δ"
    );
    for domain in Domain::ALL {
        if domain == Domain::Citations2 {
            continue;
        }
        let di = Domain::ALL
            .iter()
            .position(|&d| d == domain)
            .expect("domain");
        let raw = dataset(domain, scale, seed);
        let ds = adapt_dataset_arity(&raw, source_arity);
        // Local model: trained on this domain's own (arity-adapted) IRs.
        let local = Pipeline::fit(&ds, &config).expect("local pipeline");
        let local_recall = local
            .recall_at_k(&ds.duplicates, 10)
            .expect("duplicates index both tables");
        let local_f1 = local.evaluate(&ds.test_pairs).f1;
        // Transferred model: no representation training at all.
        let transferred = Pipeline::fit_transferred(&ds, &config, transferred_repr.clone())
            .expect("transferred pipeline");
        assert_eq!(transferred.timings().repr_secs, 0.0);
        let transf_recall = transferred
            .recall_at_k(&ds.duplicates, 10)
            .expect("duplicates index both tables");
        let transf_f1 = transferred.evaluate(&ds.test_pairs).f1;
        let p = TABLE_VII[di];
        println!(
            "{:<8} | {:>7} {:>7} {:>+6.2} | {:>7} {:>7} {:>+6.2} | {:+.2} / {:+.2}",
            DOMAIN_ORDER[di],
            fmt_metric(local_recall),
            fmt_metric(transf_recall),
            transf_recall - local_recall,
            fmt_metric(local_f1),
            fmt_metric(transf_f1),
            transf_f1 - local_f1,
            p.1 - p.0,
            p.3 - p.2,
        );
    }
    println!("\nShape check: deltas should be small (|Δ| ≲ 0.05 for most domains) —");
    println!("the paper's claim is that transfer costs almost nothing in quality");
    println!("while eliminating representation training time entirely.");
}
