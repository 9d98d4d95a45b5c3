//! The perf gate against the history committed in `BENCH_run.json`, for
//! records made the way CI makes them.
//!
//! `analyze` bands a record only against prior records with the same
//! `quick` flag and thread count, so CI's fresh records gate only if the
//! committed history holds enough peers of CI's configuration. CI runs
//! both smoke benches in quick mode; `micro` stamps its record with the
//! one thread its kernels run on, and the `resolve_stages` step pins
//! `VAER_THREADS=1`. The newest committed record in that configuration,
//! with every gated metric collapsed, must get a band wherever the
//! history holds three points of the metric at all, and read REGRESSION
//! against it.

use vaer_obs::json::JsonValue;
use vaer_report::{analyze, parse_jsonl, Verdict, GATED_METRICS};

/// The CLI's default history window.
const HISTORY: usize = 20;

/// Gated metrics whose committed history is too spread for a 4× collapse
/// to leave the band: the quick single-thread int8 Score speedup reads
/// 0.63-1.66, so its band reaches below zero. It still gets a band.
const TOO_NOISY: &[&str] = &["score_int8_speedup"];

fn repo_file(name: &str) -> String {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn set(record: &mut JsonValue, key: &str, value: JsonValue) {
    let JsonValue::Obj(members) = record else {
        panic!("a run record is a JSON object");
    };
    match members.iter_mut().find(|(k, _)| k == key) {
        Some((_, v)) => *v = value,
        None => members.push((key.to_string(), value)),
    }
}

#[test]
fn ci_resolve_stages_smoke_runs_quick_on_one_thread() {
    let ci = repo_file(".github/workflows/ci.yml");
    let step = ci
        .lines()
        .find(|l| l.contains("--bench resolve_stages"))
        .expect("CI runs the resolve_stages smoke bench");
    assert!(
        step.contains("VAER_BENCH_QUICK=1") && step.contains("VAER_THREADS=1"),
        "the committed quick resolve_stages history is single-threaded; \
         without VAER_THREADS=1 CI's record has no peers and never gates: {step}"
    );
}

#[test]
fn a_collapse_in_cis_configuration_reads_regression() {
    let history = parse_jsonl(&repo_file("BENCH_run.json"));
    for bench in ["micro", "resolve_stages"] {
        let newest = history
            .iter()
            .rev()
            .find(|r| {
                r.get_str("bench") == Some(bench)
                    && r.get("quick") == Some(&JsonValue::Bool(true))
                    && r.get_num("threads") == Some(1.0)
            })
            .unwrap_or_else(|| panic!("no quick single-thread {bench} record committed"));
        let mut current = newest.clone();
        for spec in GATED_METRICS.iter().filter(|s| s.bench == bench) {
            let v = newest.get_num(spec.key).unwrap_or(0.0);
            // A quarter of a throughput; four times a cost, plus one so
            // that a zero count (warm tape allocs, retries) moves too.
            let collapsed = if spec.higher_is_better {
                v / 4.0
            } else {
                4.0 * v + 1.0
            };
            set(&mut current, spec.key, JsonValue::Num(collapsed));
        }
        let mut records = history.clone();
        records.push(current);
        let mut gated = 0;
        for m in analyze(&records, HISTORY)
            .iter()
            .filter(|m| m.bench == bench)
        {
            let points = history
                .iter()
                .filter(|r| r.get_str("bench") == Some(bench) && r.get_num(m.key).is_some())
                .count();
            if points < 3 {
                continue;
            }
            assert!(
                m.history_len >= 3,
                "{bench}.{} has {points} committed points but only {} of CI's \
                 configuration: CI's record is never gated",
                m.key,
                m.history_len
            );
            if !TOO_NOISY.contains(&m.key) {
                assert_eq!(
                    m.verdict,
                    Verdict::Regression,
                    "{bench}.{} collapsed to {} reads {:?} against {} same-config \
                     peers (band {:?})",
                    m.key,
                    m.current,
                    m.verdict,
                    m.history_len,
                    m.band.as_ref().map(|b| (b.lo, b.hi))
                );
            }
            gated += 1;
        }
        assert!(gated > 0, "no {bench} metric has a gate-able history");
    }
}
