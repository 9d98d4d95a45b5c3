//! Per-stage wall-clock *and memory* of the staged resolution executor
//! (the §VI-B deployment path): fit once (frozen encoder, so the fused
//! Score fast lane is live), resolve through a `ResolvePlan`, record the
//! stage span totals — seconds, allocation count/bytes, peak RSS — and
//! artifact-reuse counters, then time the Score stage f32 vs int8 side
//! by side over fresh plans — all into `BENCH_run.json`, together with
//! the trainer spans from the fit phase, the hardware-thread count, and
//! thread-scaling numbers when more than one core is available.
//!
//! Resilience riders: the record also carries the clean-path resilience
//! counters (`degradations_fired`, `stage_retries`,
//! `checkpoint_write_retries` — all gated at zero by `vaer-report`, so a
//! run that silently fell back to a degraded lane fails the report) and
//! `score_degraded_secs`, the cost of a resolution that loses its int8
//! lane to an injected one-shot Score failure and reruns on f32.
//!
//! Lane timings come from the `vaer_bench::measure` harness: one warmup
//! run, then five measured runs per lane; `score_int8_speedup` is the
//! ratio of **medians** (mins ride along in the record). The old
//! single-shot best-of swung 0.63×–1.99× across identical runs.
//!
//! `VAER_BENCH_QUICK=1` additionally *asserts* the structural
//! invariants the refactor exists for: exactly one LSH index build
//! across repeated resolves, a threshold re-run that is a pure cache
//! hit, no separate Encode stage during a fused resolution, and an int8
//! run that really scored on the int8 lane.
//!
//! With `VAER_TRACE_OUT=<path>` the run records at `trace` level and
//! writes the resolution-phase span tree as Chrome Trace Event JSON.

use vaer_bench::run_record::RunRecord;
use vaer_bench::{banner, dataset, measure, scale_from_env, seed_from_env};
use vaer_core::exec::STAGES;
use vaer_core::pipeline::{Pipeline, PipelineConfig, ScorePrecision};
use vaer_data::domains::Domain;
use vaer_obs::{HistSnapshot, Level, ObsSink};

/// Cumulative `exec.score` span nanoseconds so far.
fn score_nanos() -> u64 {
    ObsSink::snapshot()
        .histograms
        .iter()
        .find(|h| h.name == "exec.score")
        .map_or(0, |h| h.sum_nanos)
}

/// Score-stage seconds per lane: one warmup resolve, then five measured
/// resolves over fresh plans (fresh plans so scoring really runs instead
/// of hitting the per-`(k, precision)` memo).
fn score_lane(pipeline: &Pipeline, k: usize, precision: ScorePrecision) -> measure::Measured {
    measure::sampled(1, 5, || {
        let before = score_nanos();
        let mut plan = pipeline.resolve_plan();
        let res = plan
            .run_with_precision(k, 0.5, precision)
            .expect("timed resolve");
        assert_eq!(res.precision, precision, "wrong lane scored the timed run");
        (score_nanos() - before) as f64 / 1e9
    })
}

/// Records one span histogram's time + memory under `<key>_*` fields.
fn record_hist(rec: &mut RunRecord, key: &str, h: Option<&HistSnapshot>) {
    rec.num(
        &format!("{key}_secs"),
        h.map_or(0.0, |h| h.sum_nanos as f64 / 1e9),
    )
    .int(&format!("{key}_runs"), h.map_or(0, |h| h.count))
    .int(&format!("{key}_allocs"), h.map_or(0, |h| h.allocs))
    .int(&format!("{key}_bytes"), h.map_or(0, |h| h.bytes))
    .int(&format!("{key}_rss_peak"), h.map_or(0, |h| h.rss_peak));
}

fn main() {
    let quick = vaer_bench::quick_from_env();
    banner("Resolve stages — staged executor wall-clock");
    // Record the span tree when a Chrome trace was requested; spans are
    // off at `summary`, which is otherwise all this harness needs.
    let trace_requested = std::env::var("VAER_TRACE_OUT").is_ok_and(|v| !v.is_empty());
    vaer_obs::set_level(if trace_requested {
        Level::Trace
    } else {
        Level::Summary
    });
    let scale = scale_from_env();
    let seed = seed_from_env();
    let ds = dataset(Domain::Restaurants, scale, seed);
    let mut config = if quick {
        PipelineConfig::fast()
    } else {
        PipelineConfig::paper()
    };
    config.seed = seed;
    // Keep the encoder frozen at every scale: the fused Score stage and
    // the int8 lane this harness times both require the latent caches.
    config.matcher.fine_tune_encoder = false;
    let pipeline = Pipeline::fit(&ds, &config).expect("pipeline fit");
    // Freeze the fit-phase trainer spans (VAE training, matcher fit)
    // before the reset wipes them: their time + memory accounting goes
    // into the run record alongside the resolution stages.
    let fit_sink = ObsSink::snapshot();
    let trainer_hist = |name: &str| fit_sink.histograms.iter().find(|h| h.name == name).cloned();
    let repr_train = trainer_hist("repr.train");
    let matcher_fit = trainer_hist("matcher.fit");
    // Count only resolution-phase telemetry: fit's Encode stages and
    // training spans are not what this harness reports.
    vaer_obs::reset();

    let k = 10;
    let mut plan = pipeline.resolve_plan();
    let full = plan.run(k, 0.5).expect("resolve");
    let rerun = plan.run(k, 0.9).expect("threshold re-run");
    let wider = plan.run(2 * k, 0.5).expect("wider-k resolve");
    let entities = plan.entities(k, 0.5, false).expect("clustering");

    let sink = ObsSink::snapshot();
    let stages: Vec<(&str, Option<HistSnapshot>)> = STAGES
        .iter()
        .map(|name| {
            (
                *name,
                sink.histograms.iter().find(|h| h.name == *name).cloned(),
            )
        })
        .collect();

    println!(
        "{} candidates -> {} links at p>=0.5 ({} links at p>=0.9), {} entities\n",
        full.candidates,
        full.links.len(),
        rerun.links.len(),
        entities.len()
    );
    println!(
        "{:<14} {:>6} {:>12} {:>8} {:>12} {:>12}",
        "stage", "runs", "total", "allocs", "bytes", "rss peak"
    );
    for (name, h) in &stages {
        let (secs, count, allocs, bytes, rss) = h.as_ref().map_or((0.0, 0, 0, 0, 0), |h| {
            (
                h.sum_nanos as f64 / 1e9,
                h.count,
                h.allocs,
                h.bytes,
                h.rss_peak,
            )
        });
        println!(
            "{name:<14} {count:>6} {:>9.3} ms {allocs:>8} {bytes:>12} {rss:>12}",
            secs * 1e3
        );
    }
    let index_builds = sink.counter("exec.index.builds");
    let cache_hits = sink.counter("exec.plan.cache.hits");
    println!("\nindex builds: {index_builds}, plan cache hits: {cache_hits}");

    // Score-stage fast lane: f32 vs int8 over fresh plans. Medians over
    // five post-warmup runs — the speedup of a single-shot pair swung
    // 0.63x–1.99x on this container.
    let f32_lane = score_lane(&pipeline, k, ScorePrecision::F32);
    let int8_lane = score_lane(&pipeline, k, ScorePrecision::Int8);
    let speedup = f32_lane.median_secs / int8_lane.median_secs;
    println!(
        "score stage    f32 {:>9.3} ms | int8 {:>9.3} ms | {speedup:.2}x (medians of {} runs; mins {:.3} / {:.3} ms)",
        f32_lane.median_secs * 1e3,
        int8_lane.median_secs * 1e3,
        f32_lane.samples,
        f32_lane.min_secs * 1e3,
        int8_lane.min_secs * 1e3
    );

    // Thread scaling of the Score stage, when the hardware has threads
    // to scale onto.
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let multithread_skipped = hardware_threads < 2;
    let mut scaled: Option<(f64, f64)> = None;
    if !multithread_skipped {
        vaer_linalg::runtime::set_threads(1);
        let one = score_lane(&pipeline, k, ScorePrecision::F32).median_secs;
        vaer_linalg::runtime::set_threads(0);
        let all = score_lane(&pipeline, k, ScorePrecision::F32).median_secs;
        println!(
            "score scaling  1 thread {:>9.3} ms | {hardware_threads} threads {:>9.3} ms",
            one * 1e3,
            all * 1e3
        );
        scaled = Some((one, all));
    } else {
        println!("score scaling  skipped ({hardware_threads} hardware thread)");
    }

    // Clean-path resilience counters: everything above ran without fault
    // injection, so any degradation or retry here means the executor
    // silently absorbed a problem — vaer-report gates these at zero.
    let clean = ObsSink::snapshot();
    let degradations_fired = clean.counter("degrade.fired");
    let stage_retries = clean.counter("exec.stage.retries");
    let checkpoint_write_retries = clean.counter("checkpoint.write.retries");

    // Degraded lane: arm a one-shot Score failure per run so the int8
    // request falls back to the f32 lane (`degrade.score.f32_fallback`),
    // and time what a resolution that takes the fallback costs.
    let degraded_lane = measure::sampled(1, 5, || {
        vaer_fault::configure("exec.score=err@1").expect("arm score failpoint");
        let before = score_nanos();
        let mut plan = pipeline.resolve_plan();
        let res = plan
            .run_with_precision(k, 0.5, ScorePrecision::Int8)
            .expect("degraded resolve");
        assert_eq!(
            res.precision,
            ScorePrecision::F32,
            "int8 score failure must land on the f32 lane"
        );
        assert!(
            res.health.degraded("degrade.score.f32_fallback"),
            "fallback ran but the resolution health does not report it"
        );
        (score_nanos() - before) as f64 / 1e9
    });
    vaer_fault::clear();
    println!(
        "score degraded int8->f32 {:>9.3} ms (median of {} runs; min {:.3} ms)",
        degraded_lane.median_secs * 1e3,
        degraded_lane.samples,
        degraded_lane.min_secs * 1e3
    );

    if quick {
        assert_eq!(degradations_fired, 0, "clean path fired a degradation");
        assert_eq!(stage_retries, 0, "clean path burned stage retries");
        assert_eq!(
            checkpoint_write_retries, 0,
            "clean path burned checkpoint write retries"
        );
        assert_eq!(
            index_builds, 1,
            "LSH index must be built exactly once per fitted pipeline"
        );
        assert!(rerun.reused, "threshold re-run recomputed the scores");
        assert!(cache_hits >= 1, "no plan cache hit recorded");
        assert!(!wider.reused, "a new k cannot be a cache hit");
        for (name, h) in &stages {
            let count = h.as_ref().map_or(0, |h| h.count);
            if *name == "exec.encode" {
                assert_eq!(count, 0, "fused Score must not run a separate Encode stage");
            } else {
                assert!(count >= 1, "stage {name} never ran");
            }
        }
        assert!(
            repr_train.as_ref().is_some_and(|h| h.allocs > 0),
            "repr.train span must account its allocations"
        );
        assert!(
            pipeline.quantized_matcher().is_some(),
            "frozen fit must calibrate the int8 twin"
        );
    }

    let mut rec = RunRecord::new("resolve_stages");
    for (name, h) in &stages {
        record_hist(&mut rec, &name.replace('.', "_"), h.as_ref());
    }
    record_hist(&mut rec, "repr_train", repr_train.as_ref());
    record_hist(&mut rec, "matcher_fit", matcher_fit.as_ref());
    rec.int("candidates", full.candidates as u64)
        .int("links", full.links.len() as u64)
        .int("entities", entities.len() as u64)
        .int("index_builds", index_builds)
        .int("plan_cache_hits", cache_hits)
        .int("k", k as u64)
        .num("score_f32_secs", f32_lane.median_secs)
        .num("score_int8_secs", int8_lane.median_secs)
        .num("score_f32_min_secs", f32_lane.min_secs)
        .num("score_int8_min_secs", int8_lane.min_secs)
        .num("score_int8_speedup", speedup)
        .num("score_degraded_secs", degraded_lane.median_secs)
        .num("score_degraded_min_secs", degraded_lane.min_secs)
        .int("degradations_fired", degradations_fired)
        .int("stage_retries", stage_retries)
        .int("checkpoint_write_retries", checkpoint_write_retries)
        .int("hardware_threads", hardware_threads as u64)
        .bool_field("multithread_skipped", multithread_skipped);
    if let Some((one, all)) = scaled {
        rec.num("score_f32_secs_1_thread", one)
            .num("score_f32_secs_all_threads", all);
    }
    rec.append();

    if trace_requested {
        match ObsSink::snapshot().write_chrome_trace_if_requested() {
            Ok(Some(path)) => println!("(chrome trace written to {})", path.display()),
            Ok(None) => {}
            Err(e) => println!("(could not write chrome trace: {e})"),
        }
    }
}
