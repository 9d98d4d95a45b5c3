//! Quantized-inference parity gate (DESIGN.md §13).
//!
//! The int8 fast lane is only allowed to exist because these tests hold
//! it against the exact f32 path: per-candidate probabilities within a
//! small ε on every generated domain, end-to-end link F1 within 0.01,
//! per-`(k, precision)` score memos that never mix lanes, a silent (but
//! reported) fall-back to f32 when no quantized twin was calibrated, and
//! bit-identity of the fused f32 Score stage against the unfused
//! full-matrix construction and the Encode → Score adapters on both
//! encoder lanes, all read from the latent caches of the matcher's
//! encoder.

use vaer::core::exec::{EncodeStage, FusedScoreStage, ScoreStage, Stage, SCORE_BLOCK};
use vaer::core::latent;
use vaer::core::matcher::PairExamples;
use vaer::core::pipeline::{Pipeline, PipelineConfig, ScorePrecision};
use vaer::core::resilience::RunBudget;
use vaer::data::domains::{Domain, DomainSpec, Scale};

/// Per-candidate probability tolerance of the int8 lane. Weights carry
/// per-channel scales but activations share one calibrated scale per
/// layer, so a borderline logit can move by a few centiprobabilities at
/// the sigmoid's steepest point (worst observed across the gated
/// domains: ~0.06).
const EPSILON: f32 = 0.08;

fn fast_config(seed: u64) -> PipelineConfig {
    let mut c = PipelineConfig::fast();
    c.seed = seed;
    c
}

/// Link F1 against the dataset's full duplicate ground truth.
fn link_f1(links: &[(usize, usize, f32)], duplicates: &[(usize, usize)]) -> f32 {
    let truth: std::collections::HashSet<(usize, usize)> = duplicates.iter().copied().collect();
    let tp = links
        .iter()
        .filter(|&&(a, b, _)| truth.contains(&(a, b)))
        .count();
    let fp = links.len() - tp;
    let fn_ = duplicates.len() - tp;
    if tp == 0 {
        return 0.0;
    }
    2.0 * tp as f32 / (2.0 * tp as f32 + fp as f32 + fn_ as f32)
}

#[test]
fn int8_scores_match_f32_within_epsilon_on_every_domain() {
    for (domain, seed) in [
        (Domain::Restaurants, 41),
        (Domain::Beer, 42),
        (Domain::Crm, 43),
    ] {
        let ds = DomainSpec::new(domain, Scale::Tiny).generate(seed);
        let p = Pipeline::fit(&ds, &fast_config(seed)).unwrap();
        assert!(p.matcher().encoder_frozen(), "{domain:?}: must stay frozen");
        assert!(
            p.quantized_matcher().is_some(),
            "{domain:?}: frozen fit must calibrate an int8 twin"
        );
        let pairs: Vec<(usize, usize)> = p
            .blocking_candidates(5)
            .iter()
            .map(|c| (c.left, c.right))
            .collect();
        let exact = FusedScoreStage {
            pipeline: &p,
            precision: ScorePrecision::F32,
            budget: RunBudget::unlimited(),
        }
        .run(pairs.clone())
        .unwrap();
        let fast = FusedScoreStage {
            pipeline: &p,
            precision: ScorePrecision::Int8,
            budget: RunBudget::unlimited(),
        }
        .run(pairs)
        .unwrap();
        assert_eq!(exact.len(), fast.len());
        for (i, (a, b)) in exact.iter().zip(&fast).enumerate() {
            assert!(
                (a - b).abs() <= EPSILON,
                "{domain:?} pair {i}: f32 {a} vs int8 {b}"
            );
        }
        // End-to-end: the quantized resolution's link quality tracks f32.
        let mut plan = p.resolve_plan();
        let f32_res = plan
            .run_with_precision(5, 0.5, ScorePrecision::F32)
            .unwrap();
        let int8_res = plan
            .run_with_precision(5, 0.5, ScorePrecision::Int8)
            .unwrap();
        assert_eq!(int8_res.precision, ScorePrecision::Int8);
        let delta = (link_f1(&f32_res.links, &ds.duplicates)
            - link_f1(&int8_res.links, &ds.duplicates))
        .abs();
        assert!(delta <= 0.01, "{domain:?}: link F1 delta {delta}");
    }
}

#[test]
fn score_memos_never_mix_precisions() {
    let ds = DomainSpec::new(Domain::Restaurants, Scale::Tiny).generate(17);
    let p = Pipeline::fit(&ds, &fast_config(17)).unwrap();
    let mut plan = p.resolve_plan();
    let first = plan
        .run_with_precision(5, 0.5, ScorePrecision::F32)
        .unwrap();
    assert!(!first.reused);
    // Same k, other precision: the f32 memo must NOT satisfy an int8 run.
    let int8 = plan
        .run_with_precision(5, 0.5, ScorePrecision::Int8)
        .unwrap();
    assert!(!int8.reused, "int8 run reused f32 scores");
    // Now both lanes are memoised and reusable independently.
    let int8_again = plan
        .run_with_precision(5, 0.8, ScorePrecision::Int8)
        .unwrap();
    assert!(int8_again.reused);
    let f32_again = plan
        .run_with_precision(5, 0.8, ScorePrecision::F32)
        .unwrap();
    assert!(f32_again.reused);
    // The f32 memo came through the int8 detour unpolluted: a threshold
    // re-run still matches a fresh f32 resolution exactly.
    assert_eq!(f32_again.links, p.resolve(5, 0.8).unwrap());
}

#[test]
fn config_precision_drives_resolution_and_reports_back() {
    let ds = DomainSpec::new(Domain::Beer, Scale::Tiny).generate(23);
    let mut config = fast_config(23);
    config.score_precision = ScorePrecision::Int8;
    let p = Pipeline::fit(&ds, &config).unwrap();
    let mut plan = p.resolve_plan();
    let res = plan.run(5, 0.5).unwrap();
    assert_eq!(res.precision, ScorePrecision::Int8);
    // `resolve` goes through the same configured lane.
    assert_eq!(p.resolve(5, 0.5).unwrap(), res.links);
}

#[test]
fn int8_request_falls_back_to_f32_when_fine_tuned() {
    let ds = DomainSpec::new(Domain::Beer, Scale::Tiny).generate(29);
    let mut config = fast_config(29);
    // Force fine-tuning even on tiny label budgets: no latent cache, no
    // quantized twin.
    config.matcher.fine_tune_min_pairs = 0;
    config.score_precision = ScorePrecision::Int8;
    let p = Pipeline::fit(&ds, &config).unwrap();
    assert!(!p.matcher().encoder_frozen());
    assert!(p.quantized_matcher().is_none());
    let mut plan = p.resolve_plan();
    let res = plan.run(5, 0.5).unwrap();
    assert_eq!(
        res.precision,
        ScorePrecision::F32,
        "no twin: must fall back"
    );
    // The fallback is the exact staged path: bit-identical to the
    // pre-refactor monolith oracle.
    assert_eq!(res.links, p.resolve_reference(5, 0.5));
}

#[test]
fn fused_f32_scoring_is_bit_identical_to_the_full_matrix_pass() {
    let ds = DomainSpec::new(Domain::Restaurants, Scale::Tiny).generate(31);
    // More pairs than one SCORE_BLOCK so the chunk seam is exercised,
    // including a ragged tail.
    let (len_a, len_b) = (ds.table_a.len(), ds.table_b.len());
    let n = 2 * SCORE_BLOCK + 137;
    let pairs: Vec<(usize, usize)> = (0..n)
        .map(|i| ((i * 7) % len_a, (i * 13) % len_b))
        .collect();
    // The fused stage scores a fine-tuned pipeline too, from the caches
    // its fit encoded through the tuned encoder; the tape `predict` over
    // the raw IRs is that lane's oracle.
    let mut fine_tuned = fast_config(31);
    fine_tuned.matcher.fine_tune_min_pairs = 0;
    for (config, frozen) in [(fast_config(31), true), (fine_tuned, false)] {
        let p = Pipeline::fit(&ds, &config).unwrap();
        assert_eq!(p.matcher().encoder_frozen(), frozen);
        let fused = FusedScoreStage {
            pipeline: &p,
            precision: ScorePrecision::F32,
            budget: RunBudget::unlimited(),
        }
        .run(pairs.clone())
        .unwrap();
        let full = if frozen {
            let (lat_a, lat_b) = p.latents();
            let features =
                latent::distance_features(p.config().matcher.distance, lat_a, lat_b, &pairs);
            p.matcher().predict_features(&features)
        } else {
            let (irs_a, irs_b) = p.ir_tables();
            p.matcher()
                .predict(&PairExamples::build_unlabeled(irs_a, irs_b, &pairs))
        };
        assert_eq!(fused.len(), full.len());
        for (i, (a, b)) in fused.iter().zip(&full).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "pair {i}: fused {a} vs full {b}");
        }
        // The unfused Encode → Score adapters read the same caches.
        let features = EncodeStage { pipeline: &p }.run(pairs.clone()).unwrap();
        let staged = ScoreStage { pipeline: &p }.run(features).unwrap();
        assert_eq!(fused.len(), staged.len());
        for (i, (a, b)) in fused.iter().zip(&staged).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "pair {i}: fused {a} vs staged {b}"
            );
        }
    }
}

#[test]
fn predict_features_sanitizes_non_finite_rows() {
    // Regression: a NaN/inf cell in a feature row used to propagate
    // straight through the MLP and surface as a NaN probability.
    let ds = DomainSpec::new(Domain::Beer, Scale::Tiny).generate(37);
    let p = Pipeline::fit(&ds, &fast_config(37)).unwrap();
    let pairs: Vec<(usize, usize)> = ds
        .test_pairs
        .pairs
        .iter()
        .map(|pr| (pr.left, pr.right))
        .collect();
    let (lat_a, lat_b) = p.latents();
    let mut features = latent::distance_features(p.config().matcher.distance, lat_a, lat_b, &pairs);
    assert!(features.rows() >= 3, "need rows to poison");
    features.row_mut(0)[0] = f32::NAN;
    features.row_mut(1)[1] = f32::INFINITY;
    features.row_mut(2)[0] = f32::NEG_INFINITY;
    let probs = p.matcher().predict_features(&features);
    assert!(
        probs.iter().all(|pr| pr.is_finite()),
        "non-finite probability leaked: {probs:?}"
    );
    // A poisoned cell scores exactly like the same cell zeroed.
    let mut zeroed = features.clone();
    zeroed.row_mut(0)[0] = 0.0;
    zeroed.row_mut(1)[1] = 0.0;
    zeroed.row_mut(2)[0] = 0.0;
    assert_eq!(probs, p.matcher().predict_features(&zeroed));
}
