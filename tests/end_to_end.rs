//! Integration tests spanning the whole workspace: data generation →
//! IRs → VAE → matcher → evaluation, plus blocking and transfer.

use vaer::core::evaluation::topk_eval_irs;
use vaer::core::pipeline::{Pipeline, PipelineConfig};
use vaer::core::transfer::adapt_dataset_arity;
use vaer::core::CoreError;
use vaer::data::domains::{Domain, DomainSpec, Scale};
use vaer::data::{LabeledPair, PairSet};

fn fast(seed: u64) -> PipelineConfig {
    let mut c = PipelineConfig::fast();
    c.seed = seed;
    c
}

#[test]
fn pipeline_learns_three_contrasting_domains() {
    // One clean structured domain, one noisy product domain, one contacts
    // domain — the pipeline must produce a usable matcher on each.
    for (domain, min_f1) in [
        (Domain::Restaurants, 0.6),
        (Domain::Cosmetics, 0.4),
        (Domain::Crm, 0.6),
    ] {
        let ds = DomainSpec::new(domain, Scale::Tiny).generate(97);
        let pipeline = Pipeline::fit(&ds, &fast(97)).unwrap();
        let f1 = pipeline.evaluate(&ds.test_pairs).f1;
        assert!(f1 >= min_f1, "{domain:?}: F1 {f1} < {min_f1}");
    }
}

#[test]
fn representations_beat_chance_on_retrieval() {
    let ds = DomainSpec::new(Domain::Citations1, Scale::Tiny).generate(5);
    let pipeline = Pipeline::fit(&ds, &fast(5)).unwrap();
    let report = pipeline.representation_report(&ds.test_pairs, 10).unwrap();
    assert!(
        report.recall > 0.5,
        "representation recall {}",
        report.recall
    );
}

#[test]
fn blocking_prunes_the_cross_product() {
    let ds = DomainSpec::new(Domain::Beer, Scale::Tiny).generate(9);
    let pipeline = Pipeline::fit(&ds, &fast(9)).unwrap();
    let k = 5;
    let candidates = pipeline.blocking_candidates(k);
    assert!(!candidates.is_empty());
    assert!(
        candidates.len() <= ds.table_a.len() * k,
        "blocking returned more than A·k pairs"
    );
    // Pairs reference valid rows.
    for c in &candidates {
        assert!(c.left < ds.table_a.len());
        assert!(c.right < ds.table_b.len());
    }
}

#[test]
fn transfer_between_unrelated_domains_works() {
    let config = fast(13);
    let source = DomainSpec::new(Domain::Music, Scale::Tiny).generate(13);
    let source_pipeline = Pipeline::fit(&source, &config).unwrap();

    let target = DomainSpec::new(Domain::Stocks, Scale::Tiny).generate(14);
    let adapted = adapt_dataset_arity(&target, source.table_a.schema.arity());
    let transferred =
        Pipeline::fit_transferred(&adapted, &config, source_pipeline.repr().clone()).unwrap();
    assert_eq!(
        transferred.timings().repr_secs,
        0.0,
        "transfer must skip repr training"
    );
    let f1 = transferred.evaluate(&adapted.test_pairs).f1;
    assert!(f1 > 0.4, "transferred F1 {f1}");
}

#[test]
fn timings_are_populated_and_ordered() {
    let ds = DomainSpec::new(Domain::Restaurants, Scale::Tiny).generate(3);
    let pipeline = Pipeline::fit(&ds, &fast(3)).unwrap();
    let t = pipeline.timings();
    assert!(t.ir_secs > 0.0);
    assert!(t.repr_secs > 0.0);
    assert!(t.match_secs > 0.0);
    assert!((t.total() - (t.ir_secs + t.repr_secs + t.match_secs)).abs() < 1e-9);
}

#[test]
fn deterministic_given_seed() {
    let ds = DomainSpec::new(Domain::Beer, Scale::Tiny).generate(4);
    let a = Pipeline::fit(&ds, &fast(4)).unwrap();
    let b = Pipeline::fit(&ds, &fast(4)).unwrap();
    assert_eq!(
        a.predict(&ds.test_pairs).unwrap(),
        b.predict(&ds.test_pairs).unwrap()
    );
}

#[test]
fn out_of_range_pairs_are_bad_input_not_panics() {
    let ds = DomainSpec::new(Domain::Beer, Scale::Tiny).generate(6);
    let config = fast(6);
    let mut bad = ds.clone();
    bad.train_pairs.pairs.push(LabeledPair {
        left: ds.table_a.len(),
        right: 0,
        is_match: true,
    });
    let fitted = Pipeline::fit(&bad, &config);
    assert!(matches!(fitted, Err(CoreError::BadInput(_))), "fit");
    let pipeline = Pipeline::fit(&ds, &config).unwrap();
    let transferred = Pipeline::fit_transferred(&bad, &config, pipeline.repr().clone());
    assert!(
        matches!(transferred, Err(CoreError::BadInput(_))),
        "fit_transferred"
    );
    // `predict` and the top-K reports check every pair against the
    // table sizes.
    let (len_a, len_b) = (ds.table_a.len(), ds.table_b.len());
    let (irs_a, irs_b) = pipeline.ir_tables();
    let bad_input = |e: CoreError| matches!(e, CoreError::BadInput(_));
    for (left, right) in [(len_a, 0), (0, len_b), (usize::MAX, usize::MAX)] {
        let far = PairSet {
            pairs: vec![LabeledPair {
                left,
                right,
                is_match: false,
            }],
        };
        let at = format!("({left}, {right})");
        assert!(pipeline.predict(&far).is_err_and(bad_input), "predict {at}");
        let report = pipeline.representation_report(&far, 10);
        assert!(report.is_err_and(bad_input), "representation_report {at}");
        let recall = pipeline.recall_at_k(&[(left, right)], 10);
        assert!(recall.is_err_and(bad_input), "recall_at_k {at}");
        let ir = topk_eval_irs(irs_a, irs_b, &far, 10);
        assert!(ir.is_err_and(bad_input), "topk_eval_irs {at}");
    }
    assert!(pipeline.recall_at_k(&ds.duplicates, 10).is_ok());
}
