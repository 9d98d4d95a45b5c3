//! Seeded chaos soak for the resilience model (DESIGN.md §15).
//!
//! Every schedule here is a pure function of its seed: `vaer-fault`'s
//! probabilistic clauses (`name=action~p`, armed via `configure_seeded`)
//! draw from per-failpoint SplitMix64 streams, retry jitter is seeded,
//! and stage order is fixed. The contract under soak is absolute:
//!
//! - a run ends in a **bit-identical result** or a **typed error** —
//!   never a panic, never a hang;
//! - every fault a successful run absorbed is visible in its
//!   [`ResolutionHealth`] (retries burned, degradations taken) — silent
//!   degradation is the bug these tests exist to catch;
//! - cancellation and deadlines surface within a bounded number of
//!   probes, leaving no partial checkpoint behind.
//!
//! This binary arms process-global failpoints, so every test takes
//! `vaer::fault::test_lock()` for its whole body.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Duration;
use vaer::core::checkpoint::CheckpointStore;
use vaer::core::exec::{EncodeStage, Executor, FusedScoreStage, StageKind, SCORE_BLOCK};
use vaer::core::pipeline::{Pipeline, PipelineConfig, ScorePrecision};
use vaer::core::resilience::{CancelToken, RetryPolicy, RunBudget};
use vaer::core::CoreError;
use vaer::data::domains::{Domain, DomainSpec, Scale};

/// Failpoints the resolve soak arms; `fired()` over this set reconciles
/// injected faults against the health report a run hands back.
const SOAK_SITES: &[&str] = &["exec.block", "exec.score", "exec.link", "checkpoint.write"];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vaer-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fitted(seed: u64) -> (vaer::data::Dataset, Pipeline) {
    let ds = DomainSpec::new(Domain::Restaurants, Scale::Tiny).generate(seed);
    let mut config = PipelineConfig::fast();
    config.seed = seed;
    let p = Pipeline::fit(&ds, &config).unwrap();
    (ds, p)
}

/// A retry policy with microsecond-class backoff so a 50+-schedule soak
/// stays quick while still exercising the full retry machinery.
fn soak_retry(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_micros(5),
        max_backoff: Duration::from_micros(20),
        max_total_backoff: Duration::from_millis(5),
        seed,
    }
}

fn total_fired() -> u64 {
    SOAK_SITES.iter().map(|s| vaer::fault::fired(s)).sum()
}

/// The soak matrix: 60 seeded fault schedules over the staged resolve,
/// alternating durable/in-memory plans and int8/f32 lanes. Every run must
/// end in a bit-identical resolution or a typed error, with an honest
/// health report either way.
#[test]
fn chaos_soak_resolve_never_panics_and_never_degrades_silently() {
    let _guard = vaer::fault::test_lock();
    vaer::fault::clear();
    let (_ds, p) = fitted(53);
    assert!(
        p.quantized_matcher().is_some(),
        "soak needs both scoring lanes"
    );
    // Fault-free baselines, one per lane (the int8 lane is allowed to
    // round differently; "bit-identical" is per effective precision).
    let baseline_f32 = p
        .resolve_plan()
        .run_with_precision(5, 0.5, ScorePrecision::F32)
        .unwrap()
        .links;
    let baseline_int8 = p
        .resolve_plan()
        .run_with_precision(5, 0.5, ScorePrecision::Int8)
        .unwrap()
        .links;

    let spec = "exec.block=err~0.10,exec.score=err~0.20,exec.link=err~0.10,\
                checkpoint.write=err~0.25";
    let (mut clean, mut absorbed, mut failed) = (0u32, 0u32, 0u32);
    for seed in 0..60u64 {
        let durable = seed % 2 == 0;
        let requested = if seed % 3 == 0 {
            ScorePrecision::Int8
        } else {
            ScorePrecision::F32
        };
        let dir = temp_dir(&format!("soak-{seed}"));
        vaer::fault::configure_seeded(spec, seed).unwrap();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut plan = p.resolve_plan().with_retry(soak_retry(seed));
            if durable {
                let store = CheckpointStore::open(&dir, "exec")
                    .unwrap()
                    .with_retry(soak_retry(seed ^ 0xD15C));
                plan = plan.with_checkpoints(store);
            }
            plan.run_with_precision(5, 0.5, requested)
        }));
        let fired = total_fired();
        vaer::fault::clear();
        let _ = std::fs::remove_dir_all(&dir);

        let result =
            outcome.unwrap_or_else(|_| panic!("seed {seed}: chaos schedule escalated to a panic"));
        match result {
            Ok(res) => {
                let baseline = match res.precision {
                    ScorePrecision::F32 => &baseline_f32,
                    ScorePrecision::Int8 => &baseline_int8,
                };
                assert_eq!(
                    &res.links, baseline,
                    "seed {seed}: a surviving run must be bit-identical to \
                     its lane's fault-free baseline"
                );
                if res.health.degraded("degrade.score.f32_fallback") {
                    assert_eq!(
                        res.precision,
                        ScorePrecision::F32,
                        "seed {seed}: an int8 fallback must report f32"
                    );
                }
                if fired > 0 {
                    assert!(
                        !res.health.is_clean(),
                        "seed {seed}: {fired} fault(s) fired but the health \
                         report claims a clean run — silent degradation"
                    );
                    absorbed += 1;
                } else {
                    assert!(res.health.is_clean(), "seed {seed}: phantom health");
                    clean += 1;
                }
            }
            Err(e) => {
                assert!(fired > 0, "seed {seed}: error {e} without any fired fault");
                assert!(
                    matches!(e, CoreError::Io(_)),
                    "seed {seed}: injected IO faults must surface typed, got {e:?}"
                );
                failed += 1;
            }
        }
    }
    // The probabilities are tuned so the soak actually exercises all
    // three outcomes; a schedule drift that collapses one to zero means
    // the matrix stopped covering the ladder.
    assert!(clean > 0, "no schedule ran fault-free");
    assert!(
        absorbed > 0,
        "no schedule absorbed faults via retries/fallbacks"
    );
    assert!(failed > 0, "no schedule exhausted its retry budget");
}

/// Same (spec, seed) ⇒ same outcome, link-for-link or error-for-error:
/// the soak is replayable, which is what makes its failures debuggable.
#[test]
fn chaos_schedules_are_seed_reproducible() {
    let _guard = vaer::fault::test_lock();
    vaer::fault::clear();
    let (_ds, p) = fitted(59);
    let spec = "exec.score=err~0.35,exec.link=err~0.25";
    let run = |seed: u64| -> Result<Vec<(usize, usize, f32)>, String> {
        vaer::fault::configure_seeded(spec, seed).unwrap();
        let out = p
            .resolve_plan()
            .with_retry(soak_retry(seed))
            .run(5, 0.5)
            .map(|r| r.links)
            .map_err(|e| e.to_string());
        vaer::fault::clear();
        out
    };
    for seed in [3u64, 11, 27, 40, 55] {
        assert_eq!(run(seed), run(seed), "seed {seed} replay diverged");
    }
}

/// Mid-Score cancellation latency: the fused Score probes once per
/// `SCORE_BLOCK` chunk, so an armed token trips within one chunk — and
/// the aborted stage leaves no partial checkpoint behind.
#[test]
fn cancellation_trips_mid_score_without_partial_checkpoint() {
    let _guard = vaer::fault::test_lock();
    vaer::fault::clear();
    let (ds, p) = fitted(61);
    let dir = temp_dir("cancel-score");
    let (len_a, len_b) = (ds.table_a.len(), ds.table_b.len());
    // Three chunks: probe 1 = stage boundary, probes 2.. = chunk loop.
    let pairs: Vec<(usize, usize)> = (0..2 * SCORE_BLOCK + 64)
        .map(|i| ((i * 7) % len_a, (i * 13) % len_b))
        .collect();
    let token = CancelToken::new();
    let store = CheckpointStore::open(&dir, "exec").unwrap();
    let mut executor = Executor::with_checkpoints(store);
    executor.set_budget(RunBudget::unlimited().with_cancel(token.clone()));
    let mut stage = FusedScoreStage {
        pipeline: &p,
        precision: ScorePrecision::F32,
        budget: executor.budget().clone(),
    };
    token.cancel_after_probes(3); // boundary, chunk 1, trip inside chunk 2
    let err = executor.run(&mut stage, pairs, 0xF00D).unwrap_err();
    assert!(
        matches!(&err, CoreError::Cancelled(msg) if msg.contains("exec.score")),
        "expected Cancelled at exec.score, got {err:?}"
    );
    assert_eq!(
        token.probes(),
        3,
        "cancellation latency exceeded the probe bound"
    );
    let reopened = CheckpointStore::open(&dir, "exec").unwrap();
    assert!(
        reopened.list().unwrap().is_empty(),
        "cancelled Score left a checkpoint behind"
    );
    assert!(reopened.read(StageKind::Score.seq()).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Mid-Encode cancellation: the Encode boundary probe is the first thing
/// the executor does, so a cancelled token stops the stage before any
/// feature work happens.
#[test]
fn cancellation_trips_at_encode_boundary() {
    let _guard = vaer::fault::test_lock();
    vaer::fault::clear();
    let (_ds, p) = fitted(67);
    let token = CancelToken::new();
    let mut executor = Executor::new();
    executor.set_budget(RunBudget::unlimited().with_cancel(token.clone()));
    let mut stage = EncodeStage { pipeline: &p };
    token.cancel_after_probes(1);
    let err = match executor.run(&mut stage, vec![(0usize, 0usize)], 0xE2C0) {
        Ok(_) => panic!("cancelled Encode ran anyway"),
        Err(e) => e,
    };
    assert!(
        matches!(&err, CoreError::Cancelled(msg) if msg.contains("exec.encode")),
        "expected Cancelled at exec.encode, got {err:?}"
    );
    assert_eq!(token.probes(), 1, "Encode must stop at its first probe");
}

/// Plan-level budgets: a pre-cancelled token stops the run at the Block
/// boundary (no checkpoint written at all), a fuse trips inside the
/// blocking join within one row's probe, and a spent deadline surfaces as
/// `DeadlineExceeded` — all typed, none hung.
#[test]
fn plan_budgets_cancel_and_expire_with_typed_errors() {
    let _guard = vaer::fault::test_lock();
    vaer::fault::clear();
    let (_ds, p) = fitted(71);

    // Pre-cancelled: nothing runs, nothing is written.
    let dir = temp_dir("cancel-plan");
    let token = CancelToken::new();
    token.cancel();
    let store = CheckpointStore::open(&dir, "exec").unwrap();
    let err = p
        .resolve_plan()
        .with_checkpoints(store)
        .with_budget(RunBudget::unlimited().with_cancel(token.clone()))
        .run(5, 0.5)
        .unwrap_err();
    assert!(
        matches!(&err, CoreError::Cancelled(msg) if msg.contains("exec.block")),
        "expected Cancelled at the Block boundary, got {err:?}"
    );
    let reopened = CheckpointStore::open(&dir, "exec").unwrap();
    assert!(
        reopened.list().unwrap().is_empty(),
        "a run cancelled before its first stage wrote a checkpoint"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // Mid-Block: probe 1 is the stage boundary, probe 2 the first join
    // row — the fuse trips inside the join loop, not at a seam.
    let token = CancelToken::new();
    token.cancel_after_probes(2);
    let err = p
        .resolve_plan()
        .with_budget(RunBudget::unlimited().with_cancel(token.clone()))
        .run(5, 0.5)
        .unwrap_err();
    assert!(matches!(&err, CoreError::Cancelled(_)), "got {err:?}");
    assert_eq!(token.probes(), 2, "Block must honour the fuse mid-join");

    // Spent deadline: typed, immediate.
    let err = p
        .resolve_plan()
        .with_budget(RunBudget::unlimited().with_deadline(Duration::ZERO))
        .run(5, 0.5)
        .unwrap_err();
    assert!(matches!(err, CoreError::DeadlineExceeded(_)), "got {err:?}");

    // A budgeted plan constructor probes the (shared, already-built)
    // index path too — and a healthy budget resolves normally.
    let res = p
        .resolve_plan_budgeted(RunBudget::unlimited().with_deadline(Duration::from_secs(3600)))
        .unwrap()
        .run(5, 0.5)
        .unwrap();
    assert!(res.health.is_clean());
}

/// A torn checkpoint (crash mid-write) must degrade to recompute on the
/// next run — recorded in the health report — and still produce the
/// bit-identical resolution.
#[test]
fn torn_checkpoint_degrades_to_recompute_with_identical_result() {
    let _guard = vaer::fault::test_lock();
    vaer::fault::clear();
    let (_ds, p) = fitted(73);
    let baseline = p.resolve_plan().run(5, 0.5).unwrap().links;
    let dir = temp_dir("torn");
    {
        // First write (the Block artifact) lands torn: half an envelope
        // at the final path, exactly what a crash mid-write leaves.
        let store = CheckpointStore::open(&dir, "exec").unwrap();
        vaer::fault::configure("checkpoint.write=torn@1").unwrap();
        let res = p
            .resolve_plan()
            .with_checkpoints(store)
            .run(5, 0.5)
            .unwrap();
        vaer::fault::clear();
        assert_eq!(res.links, baseline);
    }
    let store = CheckpointStore::open(&dir, "exec").unwrap();
    let res = p
        .resolve_plan()
        .with_checkpoints(store)
        .run(5, 0.5)
        .unwrap();
    assert!(
        res.health.degraded("degrade.stage.recompute"),
        "corrupt Block checkpoint was not reported: {:?}",
        res.health
    );
    assert_eq!(
        res.links, baseline,
        "recompute after corruption diverged from the fault-free run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A poisoned score memo (length disagreeing with its candidate list) is
/// detected, reported as `degrade.plan.rebuild`, and rebuilt cold to the
/// bit-identical resolution.
#[test]
fn poisoned_score_memo_rebuilds_cold() {
    let _guard = vaer::fault::test_lock();
    vaer::fault::clear();
    let (_ds, p) = fitted(79);
    let mut plan = p.resolve_plan();
    let first = plan.run(5, 0.5).unwrap();
    assert!(first.health.is_clean());
    // Sanity: an honest memo is reused without degradation.
    let reused = plan.run(5, 0.8).unwrap();
    assert!(reused.reused && reused.health.is_clean());
    // Poison: wrong-length probabilities for the memoised k.
    plan.seed_scores(5, first.precision, vec![0.25; 3]);
    let rebuilt = plan.run(5, 0.5).unwrap();
    assert!(
        rebuilt.health.degraded("degrade.plan.rebuild"),
        "poisoned memo not reported: {:?}",
        rebuilt.health
    );
    assert!(!rebuilt.reused, "a poisoned memo must not count as a reuse");
    assert_eq!(rebuilt.links, first.links, "cold rebuild diverged");
}

/// Fit under gradient chaos: NaN-poisoned VAE/matcher gradient steps may
/// cost epochs or fail the fit, but must never panic or hang — and a
/// spent budget surfaces as a typed error on the epoch boundary.
#[test]
fn fit_survives_gradient_chaos_and_honours_budgets() {
    let _guard = vaer::fault::test_lock();
    vaer::fault::clear();
    let ds = DomainSpec::new(Domain::Beer, Scale::Tiny).generate(83);
    let mut config = PipelineConfig::fast();
    config.seed = 83;
    for seed in [1u64, 2, 3] {
        vaer::fault::configure_seeded("vae.grads=nan~0.04,matcher.grads=nan~0.04", seed).unwrap();
        let outcome = catch_unwind(AssertUnwindSafe(|| Pipeline::fit(&ds, &config)));
        vaer::fault::clear();
        match outcome.unwrap_or_else(|_| panic!("seed {seed}: fit panicked under NaN chaos")) {
            Ok(_) => {}
            Err(CoreError::Diverged(_) | CoreError::Model(_)) => {}
            Err(e) => panic!("seed {seed}: fit surfaced an untyped failure mode: {e:?}"),
        }
    }
    // Divergence-rollback retries and epochs alike consume the run
    // budget: a zero deadline stops training at the first epoch probe.
    let err = Pipeline::fit_budgeted(
        &ds,
        &config,
        &RunBudget::unlimited().with_deadline(Duration::ZERO),
    )
    .map(|_| ())
    .unwrap_err();
    assert!(matches!(err, CoreError::DeadlineExceeded(_)), "got {err:?}");
    // Cooperative cancellation reaches the training loops too.
    let token = CancelToken::new();
    token.cancel();
    let err = Pipeline::fit_budgeted(&ds, &config, &RunBudget::unlimited().with_cancel(token))
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, CoreError::Cancelled(_)), "got {err:?}");
}

/// The one-call entry points surface an injected stage fault as a typed
/// error, like the plan API they wrap, instead of panicking.
#[test]
fn resolve_and_predict_return_typed_errors_on_stage_faults() {
    let _guard = vaer::fault::test_lock();
    vaer::fault::clear();
    let (ds, p) = fitted(89);
    vaer::fault::configure("exec.score=err").unwrap();
    let resolved = catch_unwind(AssertUnwindSafe(|| p.resolve(5, 0.5).map(|_| ())));
    let predicted = catch_unwind(AssertUnwindSafe(|| p.predict(&ds.test_pairs).map(|_| ())));
    vaer::fault::clear();
    let resolved = resolved.unwrap_or_else(|_| panic!("resolve panicked on a stage fault"));
    assert!(
        matches!(resolved, Err(CoreError::Io(_))),
        "resolve: {resolved:?}"
    );
    let predicted = predicted.unwrap_or_else(|_| panic!("predict panicked on a stage fault"));
    assert!(
        matches!(predicted, Err(CoreError::Io(_))),
        "predict: {predicted:?}"
    );
}
