//! Blocking study for the §VI-B note: LSH top-K search over the latent
//! means "can also act as a blocking step in an end-to-end ER process",
//! aiming for high recall because missed duplicates are unrecoverable.
//!
//! Reports, per domain: candidate-set size vs. the full cross product
//! (reduction ratio) and the fraction of true duplicates surviving
//! (blocking recall), for K ∈ {5, 10, 20}.

use vaer_bench::{
    banner, dataset, domains_from_env, fit_repr_bundle, scale_from_env, seed_from_env,
};
use vaer_embed::IrKind;
use vaer_index::{knn_join, E2Lsh};

fn main() {
    banner("Blocking — LSH candidate generation over latent means (§VI-B)");
    let scale = scale_from_env();
    let seed = seed_from_env();
    println!(
        "{:<8} {:>4} | {:>10} {:>11} {:>9}",
        "Domain", "K", "candidates", "reduction", "recall"
    );
    for domain in domains_from_env() {
        let ds = dataset(domain, scale, seed);
        let bundle = fit_repr_bundle(&ds, IrKind::Lsa, 64, seed);
        let a_keys = bundle.lat_a.mu_rows();
        let index = E2Lsh::build_calibrated(bundle.lat_b.mu_points(), seed ^ 0xB10C);
        let cross = ds.table_a.len() * ds.table_b.len();
        for k in [5usize, 10, 20] {
            let candidates = knn_join(&a_keys, &index, k);
            let cand_set: std::collections::HashSet<(usize, usize)> =
                candidates.iter().map(|c| (c.left, c.right)).collect();
            let covered = ds
                .duplicates
                .iter()
                .filter(|&&(a, b)| cand_set.contains(&(a, b)))
                .count();
            println!(
                "{:<8} {:>4} | {:>10} {:>10.1}% {:>8.2}",
                ds.name,
                k,
                candidates.len(),
                100.0 * candidates.len() as f64 / cross as f64,
                covered as f32 / ds.duplicates.len().max(1) as f32,
            );
        }
    }
    println!("\nShape check: a few percent of the cross product should retain the");
    println!("large majority of duplicates, with recall rising in K — the blocking");
    println!("premise of §VI-B (missed duplicates here are unrecoverable later).");
}
