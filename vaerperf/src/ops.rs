//! Resolve ops, their correctness checks, and the failure ledger.
//!
//! A **cold op** opens a fresh `ResolvePlan` and resolves at
//! `(K, THRESHOLD)`: Block → Score → Link, then Cluster — the dataflow
//! `ResolvePlan::entities` runs, kept apart here so the op's
//! `Resolution` (health, precision, memo reuse) can be checked. A
//! **re-threshold op** resolves the same plan again at one of
//! [`RETHRESHOLDS`], which reads the plan memo and runs Link → Cluster
//! only.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;
use vaer_core::cluster::{cluster_links, EntityCluster, RowId};
use vaer_core::exec::{
    ClusterStage, EncodeStage, Executor, FusedScoreStage, LinkStage, Resolution, ResolvePlan,
    ScoreStage,
};
use vaer_core::pipeline::Pipeline;
use vaer_core::resilience::RunBudget;
use vaer_data::Dataset;

use crate::trace::Tracer;

/// Blocking width of every op (the paper's top-10).
pub const K: usize = 10;
/// Threshold of cold ops; `link_f1` is measured here.
pub const THRESHOLD: f32 = 0.5;
/// Thresholds of the re-threshold ops that follow each cold op.
pub const RETHRESHOLDS: [f32; 4] = [0.3, 0.4, 0.6, 0.7];
/// Op groups (so cold ops) a run makes at least, so the tail is at
/// least a p80.
pub const MIN_COLD_OPS: usize = 50;

/// A link `(a_row, b_row, probability)`.
pub type Link = (usize, usize, f32);

/// Facts about one fitted pipeline that every op is checked against.
pub struct Truth {
    /// Candidate pairs of `Pipeline::blocking_candidates(K)`.
    pub candidates: BTreeSet<(usize, usize)>,
    /// Ground-truth duplicates.
    pub duplicates: BTreeSet<(usize, usize)>,
    /// Rows of table A.
    pub len_a: usize,
    /// Rows of table B.
    pub len_b: usize,
}

impl Truth {
    /// Collects the facts; blocks once (untimed).
    pub fn new(pipeline: &Pipeline, dataset: &Dataset) -> Self {
        Self {
            candidates: pipeline
                .blocking_candidates(K)
                .iter()
                .map(|c| (c.left, c.right))
                .collect(),
            duplicates: dataset.duplicates.iter().copied().collect(),
            len_a: dataset.table_a.len(),
            len_b: dataset.table_b.len(),
        }
    }

    /// Pairwise F1 of `links` against the duplicates.
    pub fn link_f1(&self, links: &[Link]) -> f64 {
        let tp = self.true_links(links);
        let precision = tp as f64 / links.len().max(1) as f64;
        let recall = tp as f64 / self.duplicates.len().max(1) as f64;
        if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        }
    }

    /// How many of `links` are true duplicates.
    pub fn true_links(&self, links: &[Link]) -> usize {
        links
            .iter()
            .filter(|&&(a, b, _)| self.duplicates.contains(&(a, b)))
            .count()
    }
}

/// What one op returned.
pub struct OpOutput {
    /// The op's links.
    pub links: Vec<Link>,
    /// The op's entity clusters (singletons included).
    pub clusters: Vec<EntityCluster>,
}

/// Clusters `links` over the pipeline's tables, singletons included.
fn cluster(links: &[Link], truth: &Truth) -> Result<Vec<EntityCluster>, String> {
    let pairs: Vec<(usize, usize)> = links.iter().map(|&(a, b, _)| (a, b)).collect();
    cluster_links(&pairs, truth.len_a, truth.len_b, true).map_err(|e| format!("cluster: {e}"))
}

/// One op through the plan: `run(K, threshold)`, then Cluster.
fn plan_op(
    plan: &mut ResolvePlan<'_>,
    threshold: f32,
    truth: &Truth,
) -> Result<(Resolution, Vec<EntityCluster>), String> {
    let res = plan
        .run(K, threshold)
        .map_err(|e| format!("resolve: {e}"))?;
    let clusters = cluster(&res.links, truth)?;
    Ok((res, clusters))
}

/// Checks every op makes: links one-to-one, by descending probability,
/// none under `threshold`, every link a blocking candidate; clusters
/// consistent with the links; clean health at the configured precision;
/// memo reuse exactly on re-threshold ops.
fn check_resolution(
    res: &Resolution,
    clusters: &[EntityCluster],
    pipeline: &Pipeline,
    truth: &Truth,
    threshold: f32,
    rethreshold: bool,
) -> Result<(), String> {
    if !res.health.is_clean() {
        return Err(format!("health not clean: {:?}", res.health));
    }
    if res.precision != pipeline.config().score_precision {
        return Err(format!(
            "scored at {:?}, configured {:?}",
            res.precision,
            pipeline.config().score_precision
        ));
    }
    if res.reused != rethreshold {
        return Err(format!(
            "reused = {} on a {} op",
            res.reused,
            if rethreshold { "re-threshold" } else { "cold" }
        ));
    }
    if res.candidates != truth.candidates.len() {
        return Err(format!(
            "{} candidates, blocking_candidates gives {}",
            res.candidates,
            truth.candidates.len()
        ));
    }
    check_links(&res.links, threshold, truth)?;
    check_clusters(clusters, &res.links, truth)
}

/// Links are one-to-one, sorted by descending probability, at or above
/// `threshold`, and each a blocking candidate.
fn check_links(links: &[Link], threshold: f32, truth: &Truth) -> Result<(), String> {
    let mut rows_a = BTreeSet::new();
    let mut rows_b = BTreeSet::new();
    for (i, &(a, b, p)) in links.iter().enumerate() {
        if !rows_a.insert(a) || !rows_b.insert(b) {
            return Err(format!("link ({a}, {b}) breaks one-to-one"));
        }
        if p.is_nan() || p < threshold {
            return Err(format!("link ({a}, {b}) at p = {p} under t = {threshold}"));
        }
        if i > 0 && links[i - 1].2 < p {
            return Err(format!("links not sorted by probability at {i}"));
        }
        if !truth.candidates.contains(&(a, b)) {
            return Err(format!("link ({a}, {b}) is not a blocking candidate"));
        }
    }
    Ok(())
}

/// With singletons included and one-to-one links, every row is in
/// exactly one cluster and every link joins two singletons, so there
/// are `|A| + |B| − links` clusters and each link's rows share one.
fn check_clusters(clusters: &[EntityCluster], links: &[Link], truth: &Truth) -> Result<(), String> {
    let expected = truth.len_a + truth.len_b - links.len();
    if clusters.len() != expected {
        return Err(format!(
            "{} clusters for {} links, expected {expected}",
            clusters.len(),
            links.len()
        ));
    }
    let mut home: BTreeMap<RowId, usize> = BTreeMap::new();
    for (i, c) in clusters.iter().enumerate() {
        for &m in &c.members {
            if home.insert(m, i).is_some() {
                return Err(format!("row {m:?} is in two clusters"));
            }
        }
    }
    for &(a, b, _) in links {
        if home.get(&RowId::A(a)) != home.get(&RowId::B(b)) {
            return Err(format!("link ({a}, {b}) split across clusters"));
        }
    }
    Ok(())
}

/// FNV-1a digest of a link list (rows and probability bits).
fn digest(links: &[Link]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(a, b, p) in links {
        for word in [a as u64, b as u64, u64::from(p.to_bits())] {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// Attempted and failed ops, the first failure reasons, and the link
/// digest of every op kind.
#[derive(Default)]
pub struct Ledger {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that returned `Err`, failed a check, or ran unclean.
    pub failed: u64,
    reasons: Vec<String>,
    /// Per op kind: the first digest seen and how many ops matched it.
    digests: BTreeMap<String, (u64, u64)>,
}

/// Failure reasons kept for printing.
const MAX_REASONS: usize = 8;

impl Ledger {
    /// Counts one op and its outcome.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.reasons.len() < MAX_REASONS {
                self.reasons.push(format!("{what}: {why}"));
            }
        }
    }

    /// Records an op's link digest under `kind`. Ops of one kind resolve
    /// the same inputs, so a digest that differs from the kind's first
    /// one is an error.
    fn digest(&mut self, kind: String, links: &[Link]) -> Result<(), String> {
        let d = digest(links);
        let entry = self.digests.entry(kind.clone()).or_insert((d, 0));
        if entry.0 != d {
            return Err(format!(
                "{kind} links digest {d:016x} differs from {:016x}",
                entry.0
            ));
        }
        entry.1 += 1;
        Ok(())
    }

    /// `error_rate`: failed ÷ attempted.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Report lines: one digest line per op kind, then failure reasons.
    pub fn lines(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .digests
            .iter()
            .map(|(kind, (d, n))| format!("digest {kind:<18} {d:016x} x{n}"))
            .collect();
        out.extend(self.reasons.iter().map(|r| format!("FAILED {r}")));
        out
    }
}

/// What a run of op groups left behind for the metrics.
#[derive(Default)]
pub struct OpsOutcome {
    /// Cold-op latencies (ms), telemetry off.
    pub cold_ms: Vec<f64>,
    /// Re-threshold-op latencies (ms).
    pub rethreshold_ms: Vec<f64>,
    /// Output of the first successful cold op.
    pub reference: Option<OpOutput>,
    /// `ResolvePlan::run` calls that returned.
    pub plan_runs: u64,
    /// Of those, how many were served from the plan memo.
    pub plan_hits: u64,
    /// Stage retries over all plan runs.
    pub retries: u64,
    /// Degradations over all plan runs.
    pub degradations: u64,
}

impl OpsOutcome {
    fn note(&mut self, res: &Resolution) {
        self.plan_runs += 1;
        self.plan_hits += u64::from(res.reused);
        self.retries += u64::from(res.health.retries);
        self.degradations += res.health.degradations.len() as u64;
    }
}

fn kind(rethreshold: bool, t: f32) -> String {
    format!(
        "{} t={t:.2}",
        if rethreshold { "rethreshold" } else { "cold" }
    )
}

/// Checks a plan op's result and records its digest.
fn check_op(
    out: Result<(Resolution, Vec<EntityCluster>), String>,
    pipeline: &Pipeline,
    truth: &Truth,
    threshold: f32,
    rethreshold: bool,
    outcome: &mut OpsOutcome,
    ledger: &mut Ledger,
) -> Result<OpOutput, String> {
    let (res, clusters) = out?;
    outcome.note(&res);
    check_resolution(&res, &clusters, pipeline, truth, threshold, rethreshold)?;
    ledger.digest(kind(rethreshold, threshold), &res.links)?;
    Ok(OpOutput {
        links: res.links,
        clusters,
    })
}

fn same_output(out: &OpOutput, reference: &OpOutput, what: &str) -> Result<(), String> {
    if out.links == reference.links && out.clusters == reference.clusters {
        Ok(())
    } else {
        Err(format!("{what} output differs from the untraced op"))
    }
}

/// Runs op groups in a closed loop until `seconds` have passed and at
/// least [`MIN_COLD_OPS`] groups ran. A group is one cold op with
/// telemetry off, then one re-threshold op per [`RETHRESHOLDS`] entry on
/// its plan. Every op is checked and counted in `ledger`.
///
/// When `tracer` is enabled, each group runs two more cold ops at the
/// traced run's telemetry level, both of which must equal the untraced
/// one: the same plan op as one `op.plan` span (the base of
/// `obs.overhead` and of cold-op attribution), and an `op.cold` op that
/// calls the layers one at a time, one span each. The re-threshold ops
/// then run on the `op.plan` plan, inside spans.
pub fn run_groups(
    pipeline: &Pipeline,
    truth: &Truth,
    seconds: f64,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
) -> OpsOutcome {
    let mut outcome = OpsOutcome::default();
    let mut op_id: u64 = 1;
    let start = Instant::now();
    let mut groups = 0;
    while groups < MIN_COLD_OPS || start.elapsed().as_secs_f64() < seconds {
        groups += 1;
        let level = vaer_obs::level();
        vaer_obs::set_level(vaer_obs::Level::Off);
        let t0 = Instant::now();
        let mut plan = pipeline.resolve_plan();
        let out = plan_op(&mut plan, THRESHOLD, truth);
        let elapsed = t0.elapsed().as_secs_f64() * 1e3;
        vaer_obs::set_level(level);
        let cold = match check_op(out, pipeline, truth, THRESHOLD, false, &mut outcome, ledger) {
            Ok(out) => {
                outcome.cold_ms.push(elapsed);
                ledger.record("cold op", Ok(()));
                out
            }
            Err(why) => {
                ledger.record("cold op", Err(why));
                continue;
            }
        };
        if tracer.enabled() {
            let span = tracer.open("op.plan", op_id);
            let mut traced_plan = pipeline.resolve_plan();
            let out = plan_op(&mut traced_plan, THRESHOLD, truth);
            tracer.close(span);
            let same = check_op(out, pipeline, truth, THRESHOLD, false, &mut outcome, ledger)
                .and_then(|out| same_output(&out, &cold, "plan op at summary"));
            ledger.record("cold op at summary", same);
            plan = traced_plan;
            let layered = traced_cold_op(pipeline, truth, tracer, op_id).and_then(|out| {
                same_output(&out, &cold, "layer-by-layer op")?;
                ledger.digest(kind(false, THRESHOLD), &out.links)
            });
            ledger.record("layer-by-layer cold op", layered);
            op_id += 1;
        }
        for t in RETHRESHOLDS {
            let span = tracer.open("op.rethreshold", op_id);
            let t0 = Instant::now();
            let res = tracer.call("exec.link", op_id, || {
                plan.run(K, t).map_err(|e| format!("resolve: {e}"))
            });
            let out = res.and_then(|res| {
                let clusters = tracer.call("cluster", op_id, || cluster(&res.links, truth))?;
                Ok((res, clusters))
            });
            let elapsed = t0.elapsed().as_secs_f64() * 1e3;
            tracer.close(span);
            op_id += 1;
            let checked = check_op(out, pipeline, truth, t, true, &mut outcome, ledger);
            if checked.is_ok() {
                outcome.rethreshold_ms.push(elapsed);
            }
            ledger.record("re-threshold op", checked.map(|_| ()));
        }
        outcome.reference.get_or_insert(cold);
    }
    outcome
}

/// A cold op that calls each layer itself, one span per layer, under an
/// `op.cold` root: Block (`blocking_candidates`), Encode (fine-tuned
/// encoders only), Score, Link, Cluster.
fn traced_cold_op(
    pipeline: &Pipeline,
    truth: &Truth,
    tracer: &mut Tracer,
    op: u64,
) -> Result<OpOutput, String> {
    let exec = Executor::new();
    let root = tracer.open("op.cold", op);
    let out = (|| {
        let candidates = tracer.call("index.block", op, || pipeline.blocking_candidates(K));
        let pairs: Vec<(usize, usize)> = candidates.iter().map(|c| (c.left, c.right)).collect();
        let probs = if pipeline.matcher().encoder_frozen() {
            tracer.call("exec.score", op, || {
                exec.run(
                    &mut FusedScoreStage {
                        pipeline,
                        precision: pipeline.config().score_precision,
                        budget: RunBudget::unlimited(),
                    },
                    pairs,
                    0,
                )
            })
        } else {
            let features = tracer.call("exec.encode", op, || {
                exec.run(&mut EncodeStage { pipeline }, pairs, 0)
            });
            features.and_then(|f| {
                tracer.call("exec.score", op, || {
                    exec.run(&mut ScoreStage { pipeline }, f, 0)
                })
            })
        }
        .map_err(|e| format!("score: {e}"))?;
        let links = tracer
            .call("exec.link", op, || {
                exec.run(
                    &mut LinkStage {
                        threshold: THRESHOLD,
                    },
                    (candidates, probs),
                    0,
                )
            })
            .map_err(|e| format!("link: {e}"))?;
        let pairs: Vec<(usize, usize)> = links.iter().map(|&(a, b, _)| (a, b)).collect();
        let clusters = tracer
            .call("cluster", op, || {
                exec.run(
                    &mut ClusterStage {
                        len_a: truth.len_a,
                        len_b: truth.len_b,
                        include_singletons: true,
                    },
                    pairs,
                    0,
                )
            })
            .map_err(|e| format!("cluster: {e}"))?;
        Ok(OpOutput { links, clusters })
    })();
    tracer.close(root);
    out
}

/// Resolves once through `ResolvePlan::entities` and checks that it
/// yields the clusters of the cold op, so the op stays equal to the
/// public one-call path.
pub fn check_entities_path(pipeline: &Pipeline, reference: &OpOutput) -> Result<(), String> {
    let clusters = pipeline
        .resolve_plan()
        .entities(K, THRESHOLD, true)
        .map_err(|e| format!("entities: {e}"))?;
    if clusters != reference.clusters {
        return Err("ResolvePlan::entities disagrees with the cold op".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth(cands: &[(usize, usize)]) -> Truth {
        Truth {
            candidates: cands.iter().copied().collect(),
            duplicates: [(0, 0), (1, 1)].into_iter().collect(),
            len_a: 3,
            len_b: 3,
        }
    }

    #[test]
    fn link_checks_catch_each_violation() {
        let t = truth(&[(0, 0), (0, 1), (1, 1), (2, 2)]);
        assert!(check_links(&[(0, 0, 0.9), (1, 1, 0.8)], 0.5, &t).is_ok());
        let err = |links: &[Link]| check_links(links, 0.5, &t).unwrap_err();
        assert!(err(&[(0, 0, 0.9), (0, 1, 0.8)]).contains("one-to-one"));
        assert!(err(&[(0, 0, 0.7), (1, 1, 0.8)]).contains("sorted"));
        assert!(err(&[(0, 0, 0.4)]).contains("under"));
        assert!(err(&[(0, 0, f32::NAN)]).contains("under"));
        assert!(err(&[(2, 1, 0.9)]).contains("candidate"));
    }

    #[test]
    fn cluster_check_matches_cluster_links() {
        let t = truth(&[(0, 0), (1, 1)]);
        let links = vec![(0, 0, 0.9), (1, 1, 0.8)];
        let clusters = cluster(&links, &t).unwrap();
        assert!(check_clusters(&clusters, &links, &t).is_ok());
        assert!(check_clusters(&clusters, &links[..1], &t).is_err());
        assert!(check_clusters(&clusters[1..], &links, &t).is_err());
    }

    #[test]
    fn ledger_counts_failures_and_digest_drift() {
        let mut ledger = Ledger::default();
        ledger.record("op", Ok(()));
        ledger.record("op", Err("boom".into()));
        let links = vec![(0, 0, 0.9)];
        assert!(ledger.digest("cold t=0.50".into(), &links).is_ok());
        let drift = ledger.digest("cold t=0.50".into(), &[(0, 0, 0.8)]);
        ledger.record("op", drift);
        assert_eq!((ledger.attempted, ledger.failed), (3, 2));
        assert!((ledger.error_rate() - 2.0 / 3.0).abs() < 1e-12);
        let lines = ledger.lines();
        assert!(lines[0].starts_with("digest cold t=0.50"));
        assert!(lines[0].ends_with("x1"));
        assert!(lines.iter().any(|l| l == "FAILED op: boom"));
        assert_eq!(Ledger::default().error_rate(), 0.0);
    }

    #[test]
    fn link_f1_counts_true_links() {
        let t = truth(&[(0, 0), (1, 1), (2, 2)]);
        assert_eq!(t.link_f1(&[(0, 0, 0.9), (1, 1, 0.8)]), 1.0);
        let f1 = t.link_f1(&[(0, 0, 0.9), (2, 2, 0.8)]);
        assert!((f1 - 0.5).abs() < 1e-12);
        assert_eq!(t.link_f1(&[]), 0.0);
    }

    #[test]
    fn digest_depends_on_rows_and_probability_bits() {
        let a = digest(&[(0, 1, 0.5)]);
        assert_eq!(a, digest(&[(0, 1, 0.5)]));
        assert_ne!(a, digest(&[(1, 0, 0.5)]));
        assert_ne!(a, digest(&[(0, 1, 0.500_001)]));
    }
}
