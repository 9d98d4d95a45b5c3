//! Figure 4: VAER^LSA recall@K as K increases (10 → 50), for the six
//! domains whose recall@10 was not already saturated in Table IV.

use vaer_bench::{banner, dataset, fit_repr_bundle, fmt_metric, scale_from_env, seed_from_env};
use vaer_core::evaluation::recall_at_k_vae;
use vaer_data::domains::Domain;
use vaer_embed::IrKind;

fn main() {
    banner("Figure 4 — VAER^LSA recall@K as K increases");
    let scale = scale_from_env();
    let seed = seed_from_env();
    // "the last six domains" of Table II.
    let domains = [
        Domain::Cosmetics,
        Domain::Software,
        Domain::Music,
        Domain::Beer,
        Domain::Stocks,
        Domain::Crm,
    ];
    let ks = [10usize, 20, 30, 40, 50];
    print!("{:<8}", "Domain");
    for k in ks {
        print!(" {:>7}", format!("K={k}"));
    }
    println!();
    for domain in domains {
        let ds = dataset(domain, scale, seed);
        let bundle = fit_repr_bundle(&ds, IrKind::Lsa, 64, seed);
        print!("{:<8}", ds.name);
        for k in ks {
            let r = recall_at_k_vae(&bundle.lat_a, &bundle.lat_b, &ds.duplicates, k)
                .expect("duplicates index both tables");
            print!(" {:>7}", fmt_metric(r));
        }
        println!();
    }
    println!("\nShape check: recall must be non-decreasing in K and most domains");
    println!("should approach high recall by K=50, as in the paper's Fig. 4.");
}
