//! Integration tests of the deployment tail: resolve → cluster → report.

use vaer::core::cluster::{cluster_links, pairwise_cluster_metrics, RowId};
use vaer::core::pipeline::{Pipeline, PipelineConfig};
use vaer::data::domains::{Domain, DomainSpec, Scale};

#[test]
fn resolve_then_cluster_produces_sound_entities() {
    let ds = DomainSpec::new(Domain::Restaurants, Scale::Tiny).generate(19);
    let mut config = PipelineConfig::fast();
    config.seed = 19;
    let pipeline = Pipeline::fit(&ds, &config).unwrap();
    let links: Vec<(usize, usize)> = pipeline
        .resolve(5, 0.5)
        .unwrap()
        .into_iter()
        .map(|(a, b, _)| (a, b))
        .collect();
    assert!(!links.is_empty(), "no links resolved");
    let clusters = cluster_links(&links, ds.table_a.len(), ds.table_b.len(), false).unwrap();
    assert!(!clusters.is_empty());
    // Every cluster that was produced references valid rows and contains
    // at least two members (singletons were excluded).
    for c in &clusters {
        assert!(c.len() >= 2);
        for m in &c.members {
            match *m {
                RowId::A(i) => assert!(i < ds.table_a.len()),
                RowId::B(i) => assert!(i < ds.table_b.len()),
            }
        }
    }
    // Cluster-level quality should be reasonable on this clean domain.
    let metrics = pairwise_cluster_metrics(
        &clusters,
        &ds.duplicates,
        ds.table_a.len(),
        ds.table_b.len(),
    )
    .unwrap();
    assert!(metrics.f1 > 0.5, "cluster F1 {metrics}");
}

#[test]
fn calibrated_threshold_is_usable_end_to_end() {
    let ds = DomainSpec::new(Domain::Beer, Scale::Tiny).generate(23);
    let mut config = PipelineConfig::fast();
    config.seed = 23;
    let pipeline = Pipeline::fit(&ds, &config).unwrap();
    // Calibrate on the training pairs, apply to resolve().
    let (irs_a, irs_b) = pipeline.ir_tables();
    let train_examples = vaer::core::matcher::PairExamples::build(irs_a, irs_b, &ds.train_pairs);
    let (threshold, f1_at_t) = pipeline.matcher().calibrate_threshold(&train_examples);
    assert!(f1_at_t > 0.0);
    let links = pipeline.resolve(5, threshold.clamp(0.05, 0.95)).unwrap();
    // Links at the calibrated threshold should skew correct.
    let truth: std::collections::HashSet<(usize, usize)> = ds.duplicates.iter().copied().collect();
    let correct = links
        .iter()
        .filter(|&&(a, b, _)| truth.contains(&(a, b)))
        .count();
    assert!(
        correct * 2 >= links.len(),
        "fewer than half of {} calibrated links are correct",
        links.len()
    );
}

#[test]
fn attribute_importance_sums_to_one_on_real_pipeline() {
    let ds = DomainSpec::new(Domain::Crm, Scale::Tiny).generate(29);
    let mut config = PipelineConfig::fast();
    config.seed = 29;
    let pipeline = Pipeline::fit(&ds, &config).unwrap();
    let importance = pipeline.matcher().attribute_importance();
    assert_eq!(importance.len(), ds.table_a.schema.arity());
    assert!((importance.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    assert!(importance.iter().all(|&x| x >= 0.0));
}
