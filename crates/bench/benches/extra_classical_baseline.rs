//! Extra study: the classical feature-based matcher (Magellan-style)
//! against VAER, with bootstrap confidence intervals.
//!
//! The paper excludes Magellan from its tables as a non-deep system that
//! prior work already compared against; this harness recreates that
//! context: string-similarity + logistic regression is competitive on
//! clean structured domains and falls behind on dirty text — the gap that
//! motivates deep ER in the first place.

use vaer_baselines::{Baseline, Magellan, MagellanConfig};
use vaer_bench::{banner, dataset, fmt_metric, scale_from_env, seed_from_env};
use vaer_core::pipeline::{Pipeline, PipelineConfig};
use vaer_data::domains::Domain;
use vaer_stats::resample::bootstrap_f1;

fn main() {
    banner("Extra — classical (Magellan-style) baseline vs VAER, with 95% CIs");
    let scale = scale_from_env();
    let seed = seed_from_env();
    println!(
        "{:<8} {:<6} | {:>22} | {:>22}",
        "Domain", "class", "VAER F1 [95% CI]", "Magellan F1 [95% CI]"
    );
    for domain in Domain::ALL {
        let ds = dataset(domain, scale, seed);
        let clean = if domain.meta().clean {
            "clean"
        } else {
            "noisy"
        };
        let mut config = PipelineConfig::paper();
        config.seed = seed;
        let pipeline = Pipeline::fit(&ds, &config).expect("VAER pipeline");
        let vaer_pred: Vec<bool> = pipeline
            .predict(&ds.test_pairs)
            .expect("VAER predictions")
            .iter()
            .map(|&p| p > 0.5)
            .collect();
        let magellan = Magellan::train(&ds, &MagellanConfig::default()).expect("Magellan");
        let mag_pred: Vec<bool> = magellan
            .predict(&ds, &ds.test_pairs)
            .iter()
            .map(|&p| p > 0.5)
            .collect();
        let actual = ds.test_pairs.labels();
        let vaer_ci = bootstrap_f1(&vaer_pred, &actual, 400, 0.95, seed);
        let mag_ci = bootstrap_f1(&mag_pred, &actual, 400, 0.95, seed);
        println!(
            "{:<8} {:<6} | {:>6} [{:>4}, {:>4}]   | {:>6} [{:>4}, {:>4}]",
            ds.name,
            clean,
            fmt_metric(vaer_ci.point),
            fmt_metric(vaer_ci.lo),
            fmt_metric(vaer_ci.hi),
            fmt_metric(mag_ci.point),
            fmt_metric(mag_ci.lo),
            fmt_metric(mag_ci.hi),
        );
    }
    println!("\nShape check: Magellan should be competitive on clean domains and");
    println!("weaker on noisy ones (typos and missing values break exact string");
    println!("similarities) — the motivation for learned representations.");
}
