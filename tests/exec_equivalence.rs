//! Executor-vs-monolith equivalence: the staged `ResolvePlan` behind
//! `Pipeline::resolve` must reproduce the pre-refactor single-function
//! resolution path bit-for-bit. `resolve_reference` preserves that
//! monolith verbatim as the oracle; every comparison here is exact f32
//! equality, not tolerance-based.

use vaer::core::pipeline::{Pipeline, PipelineConfig};
use vaer::data::domains::{Domain, DomainSpec, Scale};
use vaer::data::{LabeledPair, PairSet};

fn fast(seed: u64) -> PipelineConfig {
    let mut c = PipelineConfig::fast();
    c.seed = seed;
    c
}

#[test]
fn staged_resolve_matches_monolith_across_domains_and_seeds() {
    for (domain, seed) in [
        (Domain::Restaurants, 41),
        (Domain::Beer, 42),
        (Domain::Crm, 43),
    ] {
        let ds = DomainSpec::new(domain, Scale::Tiny).generate(seed);
        let pipeline = Pipeline::fit(&ds, &fast(seed)).unwrap();
        for (k, threshold) in [(5usize, 0.5f32), (10, 0.7), (3, 0.9)] {
            let staged = pipeline.resolve(k, threshold).unwrap();
            let monolith = pipeline.resolve_reference(k, threshold);
            assert_eq!(
                staged, monolith,
                "{domain:?} seed {seed} k {k} threshold {threshold}"
            );
        }
    }
}

#[test]
fn staged_resolve_matches_monolith_with_fine_tuned_encoder() {
    // Force a fine-tuned encoder so Score reads the caches the fit
    // encoded through it rather than the VAE's.
    let ds = DomainSpec::new(Domain::Restaurants, Scale::Tiny).generate(7);
    let mut config = fast(7);
    config.matcher.fine_tune_min_pairs = 1;
    let pipeline = Pipeline::fit(&ds, &config).unwrap();
    for (k, threshold) in [(5usize, 0.5f32), (8, 0.8)] {
        assert_eq!(
            pipeline.resolve(k, threshold).unwrap(),
            pipeline.resolve_reference(k, threshold),
            "fine-tuned path diverged at k {k} threshold {threshold}"
        );
    }
}

#[test]
fn resolve_probabilities_agree_with_predict() {
    // Scores produced inside the plan's Score stage must be the same
    // numbers `predict` returns for the linked pairs — one scoring
    // path, not two — on the frozen and the fine-tuned encoder lane.
    let ds = DomainSpec::new(Domain::Beer, Scale::Tiny).generate(11);
    let mut fine_tuned = fast(11);
    fine_tuned.matcher.fine_tune_min_pairs = 0;
    for config in [fast(11), fine_tuned] {
        let pipeline = Pipeline::fit(&ds, &config).unwrap();
        let links = pipeline.resolve(5, 0.3).unwrap();
        assert!(!links.is_empty(), "need links for the cross-check");
        let pairs = PairSet {
            pairs: links
                .iter()
                .map(|&(a, b, _)| LabeledPair {
                    left: a,
                    right: b,
                    is_match: false,
                })
                .collect(),
        };
        let probs = pipeline.predict(&pairs).unwrap();
        for (link, prob) in links.iter().zip(&probs) {
            assert_eq!(link.2, *prob, "link {link:?} scored differently");
        }
    }
}

#[test]
fn plan_rerun_with_new_threshold_matches_fresh_resolve() {
    let ds = DomainSpec::new(Domain::Crm, Scale::Tiny).generate(17);
    let pipeline = Pipeline::fit(&ds, &fast(17)).unwrap();
    let mut plan = pipeline.resolve_plan();
    let first = plan.run(5, 0.5).unwrap();
    assert!(!first.reused);
    let rerun = plan.run(5, 0.9).unwrap();
    assert!(
        rerun.reused,
        "same-k re-run must reuse blocked+scored artifacts"
    );
    assert_eq!(rerun.links, pipeline.resolve(5, 0.9).unwrap());
    // A different k invalidates the cached candidates but not the plan.
    let wider = plan.run(9, 0.5).unwrap();
    assert!(!wider.reused);
    assert_eq!(wider.links, pipeline.resolve(9, 0.5).unwrap());
}

#[test]
fn fit_and_resolve_are_deterministic_given_seed() {
    let ds = DomainSpec::new(Domain::Restaurants, Scale::Tiny).generate(23);
    let a = Pipeline::fit(&ds, &fast(23)).unwrap();
    let b = Pipeline::fit(&ds, &fast(23)).unwrap();
    assert_eq!(
        a.predict(&ds.test_pairs).unwrap(),
        b.predict(&ds.test_pairs).unwrap()
    );
    assert_eq!(a.resolve(5, 0.5).unwrap(), b.resolve(5, 0.5).unwrap());
}
