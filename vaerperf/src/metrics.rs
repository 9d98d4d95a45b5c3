//! Metric catalogue, order statistics and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single source of the metric
//! names this benchmark prints; a test holds them equal to the lists in
//! the repository's `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric as declared in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Printed name.
    pub name: &'static str,
    /// Printed unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics, printed by the untraced run of every workload.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("train_s", "s", "lower", 0.25),
    e2e("labels_used", "labels", "lower", 0.25),
    e2e("resolve_p50_ms", "ms", "lower", 0.25),
    e2e("resolve_tail_ms", "ms", "lower", 0.25),
    e2e("rethreshold_p50_ms", "ms", "lower", 0.25),
    e2e("rethreshold_tail_ms", "ms", "lower", 0.25),
    e2e("link_f1", "ratio", "higher", 0.1),
    e2e("test_f1", "ratio", "higher", 0.1),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
];

/// Per-layer metrics, printed by the traced run of every workload.
pub const PER_LAYER: &[Metric] = &[
    layer("embed.fit.s", "s", "lower"),
    layer("embed.fit.allocs", "count", "lower"),
    layer("repr.train.s", "s", "lower"),
    layer("repr.train.allocs", "count", "lower"),
    layer("repr.train.rows_per_s", "1/s", "higher"),
    layer("latent.encode.s", "s", "lower"),
    layer("latent.encode.rows", "count", "lower"),
    layer("active.bootstrap.s", "s", "lower"),
    layer("active.bootstrap.pool", "count", "higher"),
    layer("active.bootstrap.corrections", "count", "lower"),
    layer("active.rounds.s", "s", "lower"),
    layer("active.rounds.count", "count", "lower"),
    layer("active.round.mean_s", "s", "lower"),
    layer("active.retrain.s", "s", "lower"),
    layer("active.retrain_share", "ratio", "lower"),
    layer("active.labels.positive_share", "ratio", "higher"),
    layer("pipeline.fit.s", "s", "lower"),
    layer("pipeline.fit.allocs", "count", "lower"),
    layer("matcher.fit.s", "s", "lower"),
    layer("index.build.s", "s", "lower"),
    layer("index.build.allocs", "count", "lower"),
    layer("index.block.s", "s", "lower"),
    layer("index.block.allocs", "count", "lower"),
    layer("index.block.candidates", "count", "lower"),
    layer("index.block.recall", "ratio", "higher"),
    layer("index.block.reduction", "ratio", "higher"),
    layer("exec.encode.s", "s", "lower"),
    layer("exec.encode.pairs", "count", "lower"),
    layer("exec.score.s", "s", "lower"),
    layer("exec.score.pairs_per_s", "1/s", "higher"),
    layer("exec.score.allocs", "count", "lower"),
    layer("exec.link.s", "s", "lower"),
    layer("exec.link.links", "count", "higher"),
    layer("exec.link.precision", "ratio", "higher"),
    layer("exec.plan.hit_ratio", "ratio", "higher"),
    layer("exec.health.retries", "count", "lower"),
    layer("exec.health.degradations", "count", "lower"),
    layer("cluster.s", "s", "lower"),
    layer("cluster.clusters", "count", "lower"),
    layer("layer_coverage", "ratio", "higher"),
    layer("residue.s", "s", "lower"),
    layer("obs.overhead", "ratio", "lower"),
];

/// The measured values of one run, each with an optional note naming
/// its base or how it was taken.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, (f64, String)>,
}

impl Report {
    /// Records `name = value`; `note` is printed beside it.
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.values.insert(name, (value, note.into()));
    }

    /// Human-readable table of `catalogue`, one metric per line, each
    /// with its unit and note.
    pub fn table(&self, catalogue: &[Metric]) -> String {
        let mut out = String::new();
        for m in catalogue {
            let (value, note) = self
                .values
                .get(m.name)
                .map_or((f64::NAN, "not measured"), |(v, n)| (*v, n.as_str()));
            let bound = m
                .bound
                .map_or(String::new(), |b| format!(", bound {:.0}%", b * 100.0));
            let _ = writeln!(
                out,
                "  {:<30} {:>16} {:<6} [{} is better{bound}] {note}",
                m.name,
                format_value(value),
                m.unit,
                m.better,
            );
        }
        out
    }

    /// The final result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`, holding every
    /// metric of `catalogue`.
    ///
    /// # Errors
    /// Names the first catalogue metric this run did not measure or
    /// measured as a non-finite number.
    pub fn result_line(
        &self,
        catalogue: &[Metric],
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(catalogue.len());
        for m in catalogue {
            let (value, _) = self
                .values
                .get(m.name)
                .ok_or_else(|| format!("metric {} was not measured", m.name))?;
            let value = *value;
            if !value.is_finite() {
                return Err(format!("metric {} is not a finite number", m.name));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                vaer_obs::json::escape(m.name),
                vaer_obs::json::number(value),
                vaer_obs::json::escape(m.unit)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            metrics.join(", ")
        ))
    }
}

fn format_value(v: f64) -> String {
    if v.is_nan() {
        "-".into()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

/// Median of `xs` (mean of the two middle values for even lengths).
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;
/// Ops per tail block (see [`tail`]): with 10 beyond, a p75 tail.
pub const TAIL_BLOCK: usize = 40;

/// A tail latency by the rule on [`tail`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Median over blocks of each block's tail sample.
    pub value: f64,
    /// `100 · (m − TAIL_BEYOND) / m` for blocks of `m` samples.
    pub percentile: f64,
    /// Sample count.
    pub samples: usize,
    /// Blocks covering the samples.
    pub blocks: usize,
}

impl Tail {
    /// The note printed beside a tail metric.
    pub fn note(&self) -> String {
        format!(
            "p{:.1} ({} beyond) per block, median of {} blocks of {} ops",
            self.percentile, TAIL_BEYOND, self.blocks, self.samples
        )
    }
}

/// The tail of `xs`: the samples, in run order, are covered by
/// `ceil(n / TAIL_BLOCK)` consecutive blocks of exactly [`TAIL_BLOCK`]
/// samples, the last one ending at the last sample (so it overlaps its
/// neighbour when `n` is not a multiple); in each block the tail is the
/// highest percentile with [`TAIL_BEYOND`] samples beyond it (nearest
/// rank `TAIL_BLOCK − TAIL_BEYOND`, p75); the result is the median over
/// blocks. With fewer than `TAIL_BLOCK` samples this is the plain rule
/// over all of them.
///
/// Blocks hold the percentile at p75 however many ops a run makes. On a
/// shared 2-vCPU host, stalls of about 3 ms hit from under 5% to over
/// 10% of 2 ms ops depending on the neighbours' load; a p90 of such ops
/// then jumps between the fast and the stalled mode from run to run,
/// and the plain rule over thousands of ops reports the 11th-slowest op,
/// set by how many stalls the run met. Blocks of one fixed size keep a
/// run's op count out of the percentile: a run of 79 ops and one of 80
/// both report a p75. `None` unless `n > TAIL_BEYOND`.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let size = n.min(TAIL_BLOCK);
    let blocks = n.div_ceil(size);
    let rank = size - TAIL_BEYOND;
    let values: Vec<f64> = (0..blocks)
        .map(|b| {
            let start = (b * size).min(n - size);
            let mut v = xs[start..start + size].to_vec();
            v.sort_by(f64::total_cmp);
            v[rank - 1]
        })
        .collect();
    Some(Tail {
        value: median(&values)?,
        percentile: 100.0 * rank as f64 / size as f64,
        samples: n,
        blocks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaer_obs::json::{parse, JsonValue};

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond_in_one_block() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(
            (t.value, t.percentile, t.samples, t.blocks),
            (30.0, 75.0, 40, 1)
        );
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        assert_eq!(
            t.note(),
            "p75.0 (10 beyond) per block, median of 1 blocks of 40 ops"
        );
        // Under one block's worth, the rule runs over every sample.
        let xs: Vec<f64> = (1..=30).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.value, t.blocks), (20.0, 1));
        assert!((t.percentile - 100.0 * 20.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_does_not_depend_on_the_op_count() {
        // 60 samples: blocks 1..=40 and 21..=60, tails 30 and 50.
        let xs: Vec<f64> = (1..=60).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(
            (t.value, t.percentile, t.samples, t.blocks),
            (40.0, 75.0, 60, 2)
        );
        for n in [40, 41, 79, 80, 81, 439] {
            let t = tail(&vec![1.0; n]).unwrap();
            assert_eq!((t.percentile, t.blocks), (75.0, n.div_ceil(TAIL_BLOCK)));
        }
    }

    #[test]
    fn tail_is_the_median_of_block_tails() {
        // Ten blocks of 1..=40; one block also holds ten stalls.
        let mut xs: Vec<f64> = (0..400).map(|i| f64::from(i % 40 + 1)).collect();
        for x in &mut xs[120..130] {
            *x = 1e6;
        }
        let t = tail(&xs).unwrap();
        assert_eq!(
            (t.value, t.percentile, t.samples, t.blocks),
            (30.0, 75.0, 400, 10)
        );
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert_eq!(tail(&[1.0; 10]), None);
        let t = tail(&(0..11).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!(t.value, 0.0);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        for (i, m) in END_TO_END.iter().enumerate() {
            r.set(m.name, 0.5 + i as f64, "");
        }
        let line = r.result_line(END_TO_END, 7, 1).unwrap();
        let v = parse(&line).expect("result line is JSON");
        let JsonValue::Obj(members) = &v else {
            panic!("result line is not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&JsonValue::Bool(false)));
        assert_eq!(v.get_num("attempted"), Some(7.0));
        let metrics = v.get("metrics").unwrap();
        assert_eq!(metrics.get("train_s").unwrap().get_num("value"), Some(1.5));
        assert_eq!(metrics.get("train_s").unwrap().get_str("unit"), Some("s"));
        // A missing or non-finite metric is refused, never printed.
        let mut partial = Report::default();
        partial.set("setup_s", 1.0, "");
        assert!(partial.result_line(END_TO_END, 1, 0).is_err());
        r.set("link_f1", f64::NAN, "");
        assert!(r.result_line(END_TO_END, 1, 0).is_err());
    }

    fn declared(list: &JsonValue) -> Vec<(String, String, String, Option<f64>)> {
        list.arr()
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get_str("name").expect("name").to_owned(),
                    m.get_str("unit").expect("unit").to_owned(),
                    m.get_str("better").expect("better").to_owned(),
                    m.get_num("bound"),
                )
            })
            .collect()
    }

    fn catalogue(list: &[Metric]) -> Vec<(String, String, String, Option<f64>)> {
        list.iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    m.unit.to_owned(),
                    m.better.to_owned(),
                    m.bound,
                )
            })
            .collect()
    }

    #[test]
    fn printed_names_equal_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let spec = parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            declared(spec.get("end_to_end").unwrap()),
            catalogue(END_TO_END)
        );
        assert_eq!(
            declared(spec.get("per_layer").unwrap()),
            catalogue(PER_LAYER)
        );
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(JsonValue::arr)
            .unwrap()
            .iter()
            .map(|w| w.get_str("name").unwrap())
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }
}
