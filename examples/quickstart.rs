//! Quickstart: end-to-end entity resolution with VAER in ~40 lines.
//!
//! Generates the Restaurants benchmark domain (a synthetic stand-in for
//! the Fodors–Zagat dataset, see DESIGN.md), fits the full VAER pipeline —
//! LSA intermediate representations → unsupervised VAE → Siamese matcher —
//! and evaluates on the held-out test pairs.
//!
//! Run with: `cargo run --release --example quickstart`

use vaer::core::pipeline::{Pipeline, PipelineConfig, ScorePrecision};
use vaer::data::domains::{Domain, DomainSpec, Scale};

fn main() {
    // 1. A benchmark dataset: two tables + labelled train/test pairs.
    let dataset = DomainSpec::new(Domain::Restaurants, Scale::Small).generate(7);
    println!("dataset: {}", dataset.summary());

    // 2. Fit the pipeline (IRs are unsupervised; only the matcher uses the
    //    training pairs).
    let mut config = PipelineConfig::paper();
    config.seed = 7;
    // Set VAER_SCORE_PRECISION=int8 to resolve on the quantized fast
    // lane (DESIGN.md §13). The int8 twin calibrates at fit time from a
    // frozen encoder, so fine-tuning is switched off with it.
    if std::env::var("VAER_SCORE_PRECISION").as_deref() == Ok("int8") {
        config.score_precision = ScorePrecision::Int8;
        config.matcher.fine_tune_encoder = false;
        println!("scoring precision: int8");
    }
    // Set VAER_CKPT_DIR=<dir> to snapshot VAE training state there; a
    // rerun after a crash (or an injected VAER_FAILPOINTS kill) resumes
    // from the newest valid snapshot instead of starting over.
    if let Ok(dir) = std::env::var("VAER_CKPT_DIR") {
        println!("checkpointing to {dir}");
        config.checkpoint_dir = Some(dir.into());
    }
    let pipeline = Pipeline::fit(&dataset, &config).expect("pipeline fits");
    let t = pipeline.timings();
    println!(
        "trained: IRs {:.2}s, VAE {:.2}s, matcher {:.2}s",
        t.ir_secs, t.repr_secs, t.match_secs
    );

    // 3. Evaluate on the held-out pairs.
    let report = pipeline.evaluate(&dataset.test_pairs);
    println!("test-set matching quality: {report}");

    // 4. Score a few individual pairs.
    let probs = pipeline.predict(&dataset.test_pairs).expect("predictions");
    for (pair, prob) in dataset.test_pairs.pairs.iter().zip(&probs).take(5) {
        let name_a = &dataset.table_a.row(pair.left)[0];
        let name_b = &dataset.table_b.row(pair.right)[0];
        println!(
            "  {:<38} vs {:<38} -> p(dup) = {:.2} (truth: {})",
            name_a, name_b, prob, pair.is_match
        );
    }

    // 5. Full resolution: block with LSH, score every candidate pair on
    //    the configured precision lane, link above the threshold.
    let resolution = pipeline.resolve_plan().run(10, 0.5).expect("resolution");
    println!(
        "resolved {} links from {} candidates ({:?} scoring)",
        resolution.links.len(),
        resolution.candidates,
        resolution.precision
    );

    // 6. The unsupervised representations alone already block well.
    let repr_report = pipeline.representation_report(&dataset.test_pairs, 10);
    println!(
        "unsupervised top-10 retrieval: recall {:.2}, precision {:.2}",
        repr_report.recall, repr_report.precision
    );
    assert!(
        report.f1 > 0.5,
        "quickstart should end with a usable matcher"
    );

    // 7. Telemetry: run with VAER_OBS=summary (or trace) to collect
    //    counters, timings, memory accounting, and throughput from the
    //    hot paths above and print the summary table (see DESIGN.md §9).
    //    With VAER_OBS=trace and VAER_TRACE_OUT=<path>, the span tree is
    //    also exported as Chrome Trace Event JSON (open in Perfetto or
    //    chrome://tracing — see DESIGN.md §14).
    if vaer::obs::enabled() {
        let sink = vaer::obs::ObsSink::snapshot();
        println!("\n{}", sink.summary());
        match sink.write_chrome_trace_if_requested() {
            Ok(Some(path)) => println!("(chrome trace written to {})", path.display()),
            Ok(None) => {}
            Err(e) => println!("(could not write chrome trace: {e})"),
        }
    }
}
