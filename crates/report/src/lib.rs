//! Regression analysis over the bench history: reads the JSONL run
//! records the benches append to `BENCH_run.json`, the kernel report in
//! `BENCH_kernels.json`, and (optionally) an [`vaer_obs`] JSONL dump,
//! and renders one markdown run report — per-stage time/alloc/RSS
//! tables, kernel throughput with cross-run trend verdicts, and the
//! telemetry histogram quantiles.
//!
//! The verdicts replace ad-hoc fixed-ratio gates (the old quick-mode
//! "current ≥ 0.4× previous" check in the `micro` bench): each gated
//! metric is compared against a **noise band** learned from its own
//! history — `median ± max(4·MAD, 25%·|median|)` over the last N runs
//! with the same `quick` flag and thread count —
//! so a metric that legitimately swings 2× between container runs gets
//! a wide band, while a stable metric gets a tight one. Fewer than three
//! prior points yields an `insufficient history` verdict, which never
//! gates.
//!
//! Everything here returns defaults on malformed input instead of
//! panicking: the report must not be able to fail a CI run for any
//! reason other than an actual regression verdict.

use vaer_obs::json::JsonValue;

/// Outcome of comparing one metric's current value to its noise band.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Inside the band: no evidence of change.
    Pass,
    /// Outside the band in the bad direction.
    Regression,
    /// Outside the band in the good direction.
    Improved,
    /// Fewer than three history points; no band, never gates.
    Insufficient,
}

impl Verdict {
    /// Stable label used in the markdown table and CI log lines.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Pass => "ok",
            Verdict::Regression => "REGRESSION",
            Verdict::Improved => "improved",
            Verdict::Insufficient => "insufficient history",
        }
    }
}

/// Acceptance interval for one metric, learned from its history.
#[derive(Clone, Copy, Debug)]
pub struct Band {
    /// Median of the history window.
    pub median: f64,
    /// Lower edge of the acceptance interval.
    pub lo: f64,
    /// Upper edge of the acceptance interval.
    pub hi: f64,
}

/// Median of a value slice (`None` when empty). Sorts a copy.
fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[sorted.len() / 2])
}

/// Noise band over a history window: `median ± max(4·MAD, 25%·|median|)`.
/// The MAD term widens the band for metrics that genuinely jitter; the
/// 25% floor keeps a few-lucky-runs history from shrinking the band to
/// nothing on a noisy substrate. `None` below three points.
pub fn noise_band(history: &[f64]) -> Option<Band> {
    if history.len() < 3 {
        return None;
    }
    let med = median(history)?;
    let devs: Vec<f64> = history.iter().map(|v| (v - med).abs()).collect();
    let mad = median(&devs)?;
    let half = (4.0 * mad).max(0.25 * med.abs());
    Some(Band {
        median: med,
        lo: med - half,
        hi: med + half,
    })
}

/// Verdict for `current` against a band, given the metric's direction.
pub fn judge(band: Option<&Band>, current: f64, higher_is_better: bool) -> Verdict {
    let Some(b) = band else {
        return Verdict::Insufficient;
    };
    let (low_side, high_side) = (current < b.lo, current > b.hi);
    match (higher_is_better, low_side, high_side) {
        (true, true, _) => Verdict::Regression,
        (true, _, true) => Verdict::Improved,
        (false, _, true) => Verdict::Regression,
        (false, true, _) => Verdict::Improved,
        _ => Verdict::Pass,
    }
}

/// A metric the report gates on.
pub struct MetricSpec {
    /// `bench` field of the run records the metric lives in.
    pub bench: &'static str,
    /// Record key holding the value.
    pub key: &'static str,
    /// Direction: `true` for throughput-like metrics.
    pub higher_is_better: bool,
}

/// The gated metric set: kernel throughput and the tape zero-alloc
/// contract from `micro`, lane medians and the int8 speedup from
/// `resolve_stages`. Wall-clock seconds are deliberately judged via the
/// noise band rather than absolute thresholds. The resilience counters
/// (`degradations_fired`, `stage_retries`, `checkpoint_write_retries`)
/// ride the same machinery: their history is all zeros on a healthy
/// clean path, which collapses the band to `[0, 0]`, so the first run
/// that silently degrades or burns retries gates as a regression.
pub const GATED_METRICS: &[MetricSpec] = &[
    MetricSpec {
        bench: "micro",
        key: "matmul_blocked_gflops",
        higher_is_better: true,
    },
    MetricSpec {
        bench: "micro",
        key: "matmul_t_blocked_gflops",
        higher_is_better: true,
    },
    MetricSpec {
        bench: "micro",
        key: "t_matmul_blocked_gflops",
        higher_is_better: true,
    },
    MetricSpec {
        bench: "micro",
        key: "i8_matmul_t_blocked_gflops",
        higher_is_better: true,
    },
    MetricSpec {
        bench: "micro",
        key: "w2_features_blocked_gflops",
        higher_is_better: true,
    },
    MetricSpec {
        bench: "micro",
        key: "tape_warm_allocs",
        higher_is_better: false,
    },
    MetricSpec {
        bench: "micro",
        key: "alloc_wrapper_kernel_share_pct",
        higher_is_better: false,
    },
    MetricSpec {
        bench: "resolve_stages",
        key: "score_f32_secs",
        higher_is_better: false,
    },
    MetricSpec {
        bench: "resolve_stages",
        key: "score_int8_secs",
        higher_is_better: false,
    },
    MetricSpec {
        bench: "resolve_stages",
        key: "score_int8_speedup",
        higher_is_better: true,
    },
    MetricSpec {
        bench: "resolve_stages",
        key: "degradations_fired",
        higher_is_better: false,
    },
    MetricSpec {
        bench: "resolve_stages",
        key: "stage_retries",
        higher_is_better: false,
    },
    MetricSpec {
        bench: "resolve_stages",
        key: "checkpoint_write_retries",
        higher_is_better: false,
    },
];

/// One judged metric in the report.
pub struct MetricReport {
    /// Source bench name.
    pub bench: &'static str,
    /// Record key.
    pub key: &'static str,
    /// Newest value.
    pub current: f64,
    /// History band (`None` below three prior points).
    pub band: Option<Band>,
    /// Number of prior points the band was learned from.
    pub history_len: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// Parses JSONL text into its object lines (non-objects are skipped —
/// a truncated tail line must not take the report down).
pub fn parse_jsonl(text: &str) -> Vec<JsonValue> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(vaer_obs::json::parse)
        .filter(|v| matches!(v, JsonValue::Obj(_)))
        .collect()
}

/// The run configuration a record was measured under: its `quick` flag
/// and worker `threads`. A missing field matches only a missing field.
fn run_config(record: &JsonValue) -> (Option<&JsonValue>, Option<&JsonValue>) {
    (record.get("quick"), record.get("threads"))
}

/// Judges every gated metric present in `records`. The newest record of
/// each bench supplies the current value; up to `history` prior records
/// of the same bench **and run configuration** ([`run_config`]) supply
/// the band, so a full-size or multi-threaded run is never judged
/// against a quick single-threaded history, or the reverse.
pub fn analyze(records: &[JsonValue], history: usize) -> Vec<MetricReport> {
    GATED_METRICS
        .iter()
        .filter_map(|spec| {
            let series: Vec<(&JsonValue, f64)> = records
                .iter()
                .filter(|r| r.get_str("bench") == Some(spec.bench))
                .filter_map(|r| Some((r, r.get_num(spec.key)?)))
                .collect();
            let (&(newest, current), prior) = series.split_last()?;
            let config = run_config(newest);
            let past: Vec<f64> = prior
                .iter()
                .filter(|(r, _)| run_config(r) == config)
                .map(|&(_, v)| v)
                .collect();
            let window = &past[past.len().saturating_sub(history)..];
            let band = noise_band(window);
            Some(MetricReport {
                bench: spec.bench,
                key: spec.key,
                current,
                band,
                history_len: window.len(),
                verdict: judge(band.as_ref(), current, spec.higher_is_better),
            })
        })
        .collect()
}

/// Formats a byte count with binary units.
pub fn human_bytes(bytes: u64) -> String {
    const UNITS: [&str; 4] = ["B", "KiB", "MiB", "GiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

/// Formats seconds with an adaptive unit.
pub fn human_secs(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.2} s")
    } else if secs >= 1e-3 {
        format!("{:.2} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.2} µs", secs * 1e6)
    } else {
        format!("{:.0} ns", secs * 1e9)
    }
}

/// Formats a metric value: integral values without decimals, the rest
/// with three significant decimals.
fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

/// The newest record with the given `bench` field, if any.
fn newest<'a>(records: &'a [JsonValue], bench: &str) -> Option<&'a JsonValue> {
    records
        .iter()
        .rev()
        .find(|r| r.get_str("bench") == Some(bench))
}

/// Stage rows of a run record: every key group
/// `<base>_secs` / `<base>_runs` / `<base>_allocs` / `<base>_bytes` /
/// `<base>_rss_peak`, in record order.
fn stage_rows(record: &JsonValue) -> Vec<(String, f64, u64, u64, u64, u64)> {
    let JsonValue::Obj(members) = record else {
        return Vec::new();
    };
    members
        .iter()
        .filter_map(|(key, value)| {
            let base = key.strip_suffix("_secs")?;
            let runs = record.get(&format!("{base}_runs"))?.u64()?;
            let allocs = record.get(&format!("{base}_allocs"))?.u64()?;
            let bytes = record.get(&format!("{base}_bytes"))?.u64()?;
            let rss = record.get(&format!("{base}_rss_peak"))?.u64()?;
            Some((base.to_string(), value.num()?, runs, allocs, bytes, rss))
        })
        .collect()
}

/// Everything the renderer consumes. `kernels` is the parsed
/// `BENCH_kernels.json` object; `obs` the parsed lines of an
/// `ObsSink::write_jsonl` dump.
pub struct Inputs<'a> {
    /// Parsed `BENCH_run.json` lines, oldest first.
    pub records: &'a [JsonValue],
    /// Parsed `BENCH_kernels.json`, when available.
    pub kernels: Option<&'a JsonValue>,
    /// Parsed obs JSONL dump lines, when available.
    pub obs: &'a [JsonValue],
    /// History window for the noise bands.
    pub history: usize,
}

/// Renders the markdown report and returns it with the judged metrics
/// (the caller decides whether a `Regression` fails the run).
pub fn render(inputs: &Inputs) -> (String, Vec<MetricReport>) {
    let metrics = analyze(inputs.records, inputs.history);
    let mut out = String::new();
    out.push_str("# VAER perf report\n\n");

    // Run header: one line per bench present, from its newest record.
    for bench in ["micro", "resolve_stages"] {
        if let Some(rec) = newest(inputs.records, bench) {
            out.push_str(&format!(
                "- `{bench}`: schema v{}, scale {}, {} thread(s), obs `{}`{}\n",
                rec.get_num("schema_version").unwrap_or(1.0) as u64,
                rec.get_str("scale").unwrap_or("?"),
                rec.get_num("threads").unwrap_or(0.0) as u64,
                rec.get_str("obs").unwrap_or("?"),
                if rec.get("quick") == Some(&JsonValue::Bool(true)) {
                    ", quick"
                } else {
                    ""
                },
            ));
        }
    }

    out.push_str("\n## Regression verdicts\n\n");
    if metrics.is_empty() {
        out.push_str("No gated metrics found in the run history.\n");
    } else {
        out.push_str("| metric | current | band (median of history) | verdict |\n");
        out.push_str("|---|---|---|---|\n");
        for m in &metrics {
            let band = match &m.band {
                Some(b) => format!(
                    "[{}, {}] (median {} of {})",
                    fmt_value(b.lo),
                    fmt_value(b.hi),
                    fmt_value(b.median),
                    m.history_len
                ),
                None => format!("— ({} prior point(s))", m.history_len),
            };
            out.push_str(&format!(
                "| `{}.{}` | {} | {} | {} |\n",
                m.bench,
                m.key,
                fmt_value(m.current),
                band,
                m.verdict.label()
            ));
        }
        let regressions = metrics
            .iter()
            .filter(|m| m.verdict == Verdict::Regression)
            .count();
        out.push_str(&format!(
            "\n**Overall: {}**\n",
            if regressions == 0 {
                "ok".to_string()
            } else {
                format!("{regressions} REGRESSION(S)")
            }
        ));
    }

    if let Some(rec) = newest(inputs.records, "resolve_stages") {
        let rows = stage_rows(rec);
        if !rows.is_empty() {
            out.push_str("\n## Stage profile (resolve_stages)\n\n");
            out.push_str("| span | runs | total | allocs | bytes | peak RSS |\n");
            out.push_str("|---|---|---|---|---|---|\n");
            for (name, secs, runs, allocs, bytes, rss) in &rows {
                out.push_str(&format!(
                    "| `{name}` | {runs} | {} | {allocs} | {} | {} |\n",
                    human_secs(*secs),
                    human_bytes(*bytes),
                    human_bytes(*rss)
                ));
            }
        }
    }

    if let Some(rec) = newest(inputs.records, "resolve_stages") {
        let counters = [
            ("degradations_fired", "degradations"),
            ("stage_retries", "stage retries"),
            ("checkpoint_write_retries", "checkpoint write retries"),
        ];
        let present: Vec<(&str, u64)> = counters
            .iter()
            .filter_map(|(key, label)| Some((*label, rec.get(key)?.u64()?)))
            .collect();
        if !present.is_empty() {
            out.push_str("\n## Resilience (resolve_stages)\n\n");
            let total: u64 = present.iter().map(|(_, v)| v).sum();
            let line = present
                .iter()
                .map(|(label, v)| format!("{label} {v}"))
                .collect::<Vec<_>>()
                .join(", ");
            if total == 0 {
                out.push_str(&format!("- clean path: {line} — no silent degradation\n"));
            } else {
                out.push_str(&format!(
                    "- **SILENTLY DEGRADED clean path: {line}** — the run produced a \
                     result through a fallback lane; check the `degrade.*` obs events\n"
                ));
            }
            if let Some(secs) = rec.get_num("score_degraded_secs") {
                out.push_str(&format!(
                    "- injected int8→f32 fallback lane: {} per resolve\n",
                    human_secs(secs)
                ));
            }
        }
    }

    if let Some(JsonValue::Obj(entries)) = inputs.kernels.and_then(|k| k.get("kernels")) {
        out.push_str("\n## Kernel throughput (micro, single thread)\n\n");
        out.push_str("| kernel | optimised | reference | speedup |\n");
        out.push_str("|---|---|---|---|\n");
        for (name, entry) in entries {
            out.push_str(&format!(
                "| `{name}` | {:.2} | {:.2} | {:.2}x |\n",
                entry.get_num("blocked_gflops").unwrap_or(0.0),
                entry.get_num("reference_gflops").unwrap_or(0.0),
                entry.get_num("speedup").unwrap_or(0.0)
            ));
        }
    }

    let mut hists: Vec<&JsonValue> = inputs
        .obs
        .iter()
        .filter(|l| l.get_str("type") == Some("histogram"))
        .collect();
    if !hists.is_empty() {
        hists.sort_by(|a, b| {
            let key = |v: &JsonValue| v.get_num("sum_nanos").unwrap_or(0.0);
            key(b).total_cmp(&key(a))
        });
        out.push_str("\n## Telemetry histograms (top by total time)\n\n");
        out.push_str("| span | count | p50 | p90 | p99 | allocs | bytes | peak RSS |\n");
        out.push_str("|---|---|---|---|---|---|---|---|\n");
        for h in hists.iter().take(20) {
            let nanos = |key: &str| human_secs(h.get_num(key).unwrap_or(0.0) / 1e9);
            let int = |key: &str| h.get(key).and_then(JsonValue::u64).unwrap_or(0);
            out.push_str(&format!(
                "| `{}` | {} | {} | {} | {} | {} | {} | {} |\n",
                h.get_str("name").unwrap_or("?"),
                int("count"),
                nanos("p50_nanos"),
                nanos("p90_nanos"),
                nanos("p99_nanos"),
                int("allocs"),
                human_bytes(int("bytes")),
                human_bytes(int("rss_peak"))
            ));
        }
    }

    (out, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(bench: &str, pairs: &[(&str, f64)]) -> JsonValue {
        let mut members = vec![("bench".to_string(), JsonValue::Str(bench.to_string()))];
        for (k, v) in pairs {
            members.push((k.to_string(), JsonValue::Num(*v)));
        }
        JsonValue::Obj(members)
    }

    #[test]
    fn noise_band_needs_three_points_and_uses_mad() {
        assert!(noise_band(&[]).is_none());
        assert!(noise_band(&[1.0, 2.0]).is_none());
        // Tight history: the 25% floor dominates the (zero) MAD.
        let b = noise_band(&[10.0, 10.0, 10.0]).unwrap();
        assert_eq!(b.median, 10.0);
        assert!((b.lo - 7.5).abs() < 1e-9 && (b.hi - 12.5).abs() < 1e-9);
        // Jittery history: the MAD term wins and widens the band.
        let b = noise_band(&[10.0, 14.0, 6.0, 11.0, 9.0]).unwrap();
        assert_eq!(b.median, 10.0);
        assert!(b.hi - b.median >= 4.0, "MAD band too narrow: {b:?}");
    }

    #[test]
    fn judge_respects_direction() {
        let band = noise_band(&[10.0, 10.0, 10.0]);
        let b = band.as_ref();
        assert_eq!(judge(b, 10.0, true), Verdict::Pass);
        assert_eq!(judge(b, 5.0, true), Verdict::Regression);
        assert_eq!(judge(b, 20.0, true), Verdict::Improved);
        assert_eq!(judge(b, 20.0, false), Verdict::Regression);
        assert_eq!(judge(b, 5.0, false), Verdict::Improved);
        assert_eq!(judge(None, 1.0, true), Verdict::Insufficient);
    }

    #[test]
    fn analyze_flags_a_throughput_collapse() {
        let mut records: Vec<JsonValue> = (0..5)
            .map(|i| record("micro", &[("matmul_blocked_gflops", 24.0 + i as f64 * 0.5)]))
            .collect();
        records.push(record("micro", &[("matmul_blocked_gflops", 3.0)]));
        let metrics = analyze(&records, 20);
        let m = metrics
            .iter()
            .find(|m| m.key == "matmul_blocked_gflops")
            .unwrap();
        assert_eq!(m.verdict, Verdict::Regression);
        assert_eq!(m.history_len, 5);
        // Within-band current on the same history passes.
        let mut ok = records.clone();
        ok.pop();
        ok.push(record("micro", &[("matmul_blocked_gflops", 25.0)]));
        let metrics = analyze(&ok, 20);
        assert_eq!(
            metrics
                .iter()
                .find(|m| m.key == "matmul_blocked_gflops")
                .unwrap()
                .verdict,
            Verdict::Pass
        );
    }

    #[test]
    fn analyze_bands_only_against_the_same_run_config() {
        let run = |quick: bool, threads: f64, secs: f64| {
            let mut r = record(
                "resolve_stages",
                &[("threads", threads), ("score_f32_secs", secs)],
            );
            if let JsonValue::Obj(members) = &mut r {
                members.push(("quick".to_string(), JsonValue::Bool(quick)));
            }
            r
        };
        let verdict = |records: &[JsonValue]| {
            let metrics = analyze(records, 20);
            let m = metrics.iter().find(|m| m.key == "score_f32_secs").unwrap();
            (m.verdict, m.history_len)
        };
        // Seven quick single-threaded runs, then a full-size two-thread
        // run three times slower: it has no history of its own config.
        let mut records: Vec<JsonValue> = (0..7)
            .map(|i| run(true, 1.0, 0.25e-3 + 0.01e-3 * i as f64))
            .collect();
        records.push(run(false, 2.0, 0.92e-3));
        assert_eq!(verdict(&records), (Verdict::Insufficient, 0));
        // Neither the quick flag nor the thread count alone matches.
        records.pop();
        records.push(run(false, 1.0, 0.92e-3));
        assert_eq!(verdict(&records), (Verdict::Insufficient, 0));
        records.pop();
        records.push(run(true, 2.0, 0.92e-3));
        assert_eq!(verdict(&records), (Verdict::Insufficient, 0));
        // A quick single-threaded run still sees its seven peers, across
        // the other configs interleaved in the history.
        records.push(run(true, 1.0, 0.26e-3));
        assert_eq!(verdict(&records), (Verdict::Pass, 7));
        records.pop();
        records.push(run(true, 1.0, 0.92e-3));
        assert_eq!(verdict(&records), (Verdict::Regression, 7));
    }

    #[test]
    fn analyze_short_history_never_gates() {
        let records = vec![
            record("micro", &[("matmul_blocked_gflops", 25.0)]),
            record("micro", &[("matmul_blocked_gflops", 1.0)]),
        ];
        let metrics = analyze(&records, 20);
        assert_eq!(metrics[0].verdict, Verdict::Insufficient);
    }

    #[test]
    fn tape_allocs_zero_history_is_strict() {
        let mut records: Vec<JsonValue> = (0..4)
            .map(|_| record("micro", &[("tape_warm_allocs", 0.0)]))
            .collect();
        records.push(record("micro", &[("tape_warm_allocs", 2.0)]));
        let metrics = analyze(&records, 20);
        let m = metrics
            .iter()
            .find(|m| m.key == "tape_warm_allocs")
            .unwrap();
        assert_eq!(m.verdict, Verdict::Regression, "a warm alloc must gate");
    }

    #[test]
    fn degradation_counters_gate_at_zero() {
        let mut records: Vec<JsonValue> = (0..4)
            .map(|_| record("resolve_stages", &[("degradations_fired", 0.0)]))
            .collect();
        records.push(record("resolve_stages", &[("degradations_fired", 1.0)]));
        let metrics = analyze(&records, 20);
        let m = metrics
            .iter()
            .find(|m| m.key == "degradations_fired")
            .unwrap();
        assert_eq!(
            m.verdict,
            Verdict::Regression,
            "a silent degradation must gate"
        );
    }

    #[test]
    fn render_flags_silently_degraded_runs() {
        let clean = record(
            "resolve_stages",
            &[
                ("degradations_fired", 0.0),
                ("stage_retries", 0.0),
                ("checkpoint_write_retries", 0.0),
                ("score_degraded_secs", 0.012),
            ],
        );
        let inputs = Inputs {
            records: std::slice::from_ref(&clean),
            kernels: None,
            obs: &[],
            history: 20,
        };
        let (md, _) = render(&inputs);
        assert!(md.contains("no silent degradation"), "{md}");
        assert!(md.contains("fallback lane: 12.00 ms"), "{md}");
        let degraded = record("resolve_stages", &[("degradations_fired", 2.0)]);
        let inputs = Inputs {
            records: std::slice::from_ref(&degraded),
            kernels: None,
            obs: &[],
            history: 20,
        };
        let (md, _) = render(&inputs);
        assert!(md.contains("SILENTLY DEGRADED"), "{md}");
        assert!(md.contains("degradations 2"), "{md}");
    }

    #[test]
    fn parse_jsonl_skips_garbage_lines() {
        let text = "{\"bench\":\"micro\"}\n\nnot json\n42\n{\"bench\":\"resolve_stages\"}\n";
        let records = parse_jsonl(text);
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].get_str("bench"), Some("resolve_stages"));
    }

    #[test]
    fn stage_rows_group_the_five_key_suffixes() {
        let line = "{\"bench\":\"resolve_stages\",\"exec_block_secs\":0.5,\
                    \"exec_block_runs\":2,\"exec_block_allocs\":10,\
                    \"exec_block_bytes\":2048,\"exec_block_rss_peak\":4096,\
                    \"score_f32_secs\":0.1}";
        let rec = vaer_obs::json::parse(line).unwrap();
        let rows = stage_rows(&rec);
        // score_f32_secs has no sibling keys and must not form a row.
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, "exec_block");
        assert_eq!(rows[0].2, 2);
        assert_eq!(rows[0].5, 4096);
    }

    #[test]
    fn render_is_deterministic_and_carries_verdicts() {
        let mut records: Vec<JsonValue> = (0..4)
            .map(|i| {
                record(
                    "resolve_stages",
                    &[("score_int8_speedup", 1.2 + 0.01 * i as f64)],
                )
            })
            .collect();
        records.push(record("resolve_stages", &[("score_int8_speedup", 0.3)]));
        let inputs = Inputs {
            records: &records,
            kernels: None,
            obs: &[],
            history: 20,
        };
        let (a, metrics) = render(&inputs);
        let (b, _) = render(&inputs);
        assert_eq!(a, b, "markdown must be byte-stable");
        assert!(a.contains("REGRESSION"), "{a}");
        assert!(metrics.iter().any(|m| m.verdict == Verdict::Regression));
    }

    #[test]
    fn render_includes_obs_histograms() {
        let hist = "{\"type\":\"histogram\",\"name\":\"exec.score\",\"count\":3,\
                    \"sum_nanos\":3000000,\"p50_nanos\":900000,\"p90_nanos\":1100000,\
                    \"p99_nanos\":1200000,\"allocs\":12,\"bytes\":4096,\"rss_peak\":1048576}";
        let obs = parse_jsonl(hist);
        let inputs = Inputs {
            records: &[],
            kernels: None,
            obs: &obs,
            history: 20,
        };
        let (md, _) = render(&inputs);
        assert!(md.contains("exec.score"), "{md}");
        assert!(md.contains("900.00 µs"), "{md}");
        assert!(md.contains("1.0 MiB"), "{md}");
    }

    #[test]
    fn human_units() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.0 KiB");
        assert_eq!(human_secs(0.25), "250.00 ms");
        assert_eq!(human_secs(2.5e-7), "250 ns");
    }
}
