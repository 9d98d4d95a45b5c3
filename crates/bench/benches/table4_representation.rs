//! Table IV: unsupervised representation learning P/R/F1 @K=10.
//!
//! For every domain and every IR family, compares top-K retrieval on the
//! raw IRs against retrieval on the VAE representations (μ search,
//! W₂² re-rank). Paper values are printed beside ours; the shape to
//! reproduce is "VAE encoding consistently improves (or matches) the raw
//! IRs, across all four IR types".

use vaer_bench::paper::{DOMAIN_ORDER, TABLE_IV};
use vaer_bench::{
    banner, dataset, domains_from_env, fit_repr_bundle, fmt_metric, scale_from_env, seed_from_env,
};
use vaer_core::evaluation::{topk_eval_irs, topk_eval_vae};
use vaer_data::domains::Domain;
use vaer_embed::IrKind;

fn main() {
    banner("Table IV — representation learning P/R/F1 @K=10 (IR vs VAER)");
    let scale = scale_from_env();
    let seed = seed_from_env();
    let k = 10;
    println!(
        "{:<8} {:<6} | {:>23} | {:>23} | {:>23}",
        "Domain", "IR", "P  (paper ir/vaer)", "R  (paper ir/vaer)", "F1 (paper ir/vaer)"
    );
    for domain in domains_from_env() {
        let ds = dataset(domain, scale, seed);
        let di = Domain::ALL
            .iter()
            .position(|&d| d == domain)
            .expect("known domain");
        for (ki, kind) in IrKind::ALL.into_iter().enumerate() {
            let bundle = fit_repr_bundle(&ds, kind, 64, seed ^ (ki as u64) << 8);
            let ir = topk_eval_irs(&bundle.irs_a, &bundle.irs_b, &ds.test_pairs, k)
                .expect("test pairs index both tables");
            let vae = topk_eval_vae(&bundle.lat_a, &bundle.lat_b, &ds.test_pairs, k)
                .expect("test pairs index both tables");
            let (pp_ir, pp_vae, pr_ir, pr_vae, pf_ir, pf_vae) = TABLE_IV[di][ki];
            println!(
                "{:<8} {:<6} | {:>4}/{:<4} ({:>4}/{:<4})   | {:>4}/{:<4} ({:>4}/{:<4})   | {:>4}/{:<4} ({:>4}/{:<4})",
                DOMAIN_ORDER[di],
                kind.name(),
                fmt_metric(ir.precision),
                fmt_metric(vae.precision),
                fmt_metric(pp_ir),
                fmt_metric(pp_vae),
                fmt_metric(ir.recall),
                fmt_metric(vae.recall),
                fmt_metric(pr_ir),
                fmt_metric(pr_vae),
                fmt_metric(ir.f1),
                fmt_metric(vae.f1),
                fmt_metric(pf_ir),
                fmt_metric(pf_vae),
            );
        }
    }
    println!("\nShape check: VAER columns should be >= the IR columns on most rows,");
    println!("as in the paper's Table IV.");
}
