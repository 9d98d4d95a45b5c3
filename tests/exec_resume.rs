//! Executor telemetry + durability: the staged resolution path must
//! build its LSH index exactly once per fitted pipeline no matter how
//! many times it resolves, report plan cache hits on threshold re-runs,
//! surface injected stage failures as errors, and — when checkpointed —
//! resume a killed resolve bit-for-bit from the stage artifacts.
//!
//! This binary mutates the global observability level and arms
//! failpoints, so every test holds `vaer::fault::test_lock()` for its
//! whole body: a sibling test could otherwise observe the level
//! mid-change or trip an armed failpoint.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use vaer::core::checkpoint::CheckpointStore;
use vaer::core::pipeline::{Pipeline, PipelineConfig};
use vaer::data::domains::{Domain, DomainSpec, Scale};
use vaer::obs::{Level, ObsSink};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vaer-exec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn staged_resolution_counts_builds_reports_failures_and_resumes() {
    let _guard = vaer::fault::test_lock();
    vaer::fault::clear();
    vaer::obs::set_level(Level::Summary);

    let ds = DomainSpec::new(Domain::Restaurants, Scale::Tiny).generate(31);
    let mut config = PipelineConfig::fast();
    config.seed = 31;
    let pipeline = Pipeline::fit(&ds, &config).unwrap();
    // Count resolution-phase telemetry only, not fit's.
    vaer::obs::reset();

    // --- One index build across arbitrarily many resolves. ---
    let baseline = pipeline.resolve(5, 0.5).unwrap();
    let mut plan = pipeline.resolve_plan();
    let first = plan.run(5, 0.5).unwrap();
    assert_eq!(first.links, baseline);
    let rerun = plan.run(5, 0.9).unwrap();
    assert!(rerun.reused, "threshold re-run must be a cache hit");
    let again = plan.run(5, 0.5).unwrap();
    assert!(again.reused);
    assert_eq!(again.links, baseline);
    // A second plan over the same pipeline shares the OnceLock index.
    let mut plan2 = pipeline.resolve_plan();
    plan2.run(5, 0.5).unwrap();
    let sink = ObsSink::snapshot();
    assert_eq!(
        sink.counter("exec.index.builds"),
        1,
        "LSH index must be built exactly once per fitted pipeline"
    );
    assert!(
        sink.counter("exec.plan.cache.hits") >= 2,
        "threshold re-runs were not served from the plan cache"
    );
    assert!(sink.counter("exec.plan.runs") >= 4);
    assert!(sink.counter("exec.stage.runs") >= 5);

    // --- An injected stage failure surfaces as Err, not a panic. ---
    vaer::fault::configure("exec.score=err@1").unwrap();
    let mut failing = pipeline.resolve_plan();
    let err = failing.run(7, 0.5);
    vaer::fault::clear();
    assert!(err.is_err(), "injected Score failure was swallowed");

    // --- Kill at Link, resume from the checkpointed stage artifacts. ---
    let dir = temp_dir("resume");
    {
        let store = CheckpointStore::open(&dir, "exec").unwrap();
        let plan = pipeline.resolve_plan().with_checkpoints(store);
        vaer::fault::configure("exec.link=panic@1").unwrap();
        let crashed = catch_unwind(AssertUnwindSafe(move || {
            let mut plan = plan;
            plan.run(5, 0.5)
        }));
        vaer::fault::clear();
        assert!(crashed.is_err(), "kill switch did not fire");
    }
    // "New process": same store, fresh same-seed plan. Block and Score
    // replay from their checkpoints; the result must be bit-identical to
    // the uninterrupted run.
    let resumed_before = ObsSink::snapshot().counter("exec.stage.resumed");
    let store = CheckpointStore::open(&dir, "exec").unwrap();
    let mut resumed_plan = pipeline.resolve_plan().with_checkpoints(store);
    let resumed = resumed_plan.run(5, 0.5).unwrap();
    assert_eq!(
        resumed.links, baseline,
        "resumed resolve diverged from uninterrupted run"
    );
    let resumed_after = ObsSink::snapshot().counter("exec.stage.resumed");
    assert_eq!(
        resumed_after - resumed_before,
        2,
        "Block and Score must both replay from checkpoints"
    );
    // And the resumed plan keeps serving threshold re-runs from memory.
    assert!(resumed_plan.run(5, 0.8).unwrap().reused);

    // Still exactly one index build after everything above.
    assert_eq!(ObsSink::snapshot().counter("exec.index.builds"), 1);

    let _ = std::fs::remove_dir_all(&dir);
    vaer::obs::set_level(Level::Off);
}

/// Two pipelines fitted on the same VAE, seed and tables but on
/// different labels share one checkpoint directory: each plan must
/// resolve to its own links, never resume the other's Score artifact.
#[test]
fn checkpoints_never_resume_another_pipelines_artifacts() {
    let _guard = vaer::fault::test_lock();
    vaer::fault::clear();
    let ds = DomainSpec::new(Domain::Restaurants, Scale::Tiny).generate(31);
    let mut config = PipelineConfig::fast();
    config.seed = 31;
    let vae = Pipeline::fit(&ds, &config).unwrap().repr().clone();
    let mut inverted = ds.clone();
    for pair in &mut inverted.train_pairs.pairs {
        pair.is_match = !pair.is_match;
    }
    let first = Pipeline::fit_transferred(&ds, &config, vae.clone()).unwrap();
    let second = Pipeline::fit_transferred(&inverted, &config, vae).unwrap();
    let dir = temp_dir("shared");
    let resolve = |pipeline: &Pipeline| {
        let store = CheckpointStore::open(&dir, "exec").unwrap();
        let mut plan = pipeline.resolve_plan().with_checkpoints(store);
        plan.run(5, 0.5).unwrap().links
    };
    let first_links = resolve(&first);
    let second_links = resolve(&second);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(first_links, first.resolve(5, 0.5).unwrap());
    assert_eq!(
        second_links,
        second.resolve(5, 0.5).unwrap(),
        "the second plan resumed the first pipeline's artifacts"
    );
    assert_ne!(first_links, second_links, "the two fits must differ");
}
