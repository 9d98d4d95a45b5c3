//! The two workloads: what a run sets up, what it times, and how each
//! metric is taken.
//!
//! The untraced run measures the end-to-end metrics. The traced run
//! repeats the same workload at the same seed, fits the pipeline through
//! its public layer calls one span at a time (IR fit, VAE, latent
//! caches, Algorithms 1 and 2 on `learn`, `Pipeline::fit_transferred`,
//! index build), runs the op groups of [`ops::run_groups`] with a
//! layer-by-layer cold op, and measures the per-layer metrics.

use std::time::Instant;
use vaer_core::active::{ActiveConfig, ActiveLearner};
use vaer_core::entity::IrTable;
use vaer_core::latent::LatentTable;
use vaer_core::pipeline::{Pipeline, PipelineConfig};
use vaer_core::repr::ReprModel;
use vaer_data::domains::{Domain, DomainSpec, Scale};
use vaer_data::Dataset;
use vaer_embed::fit_ir_model;

use crate::metrics::{median, tail, Report, PER_LAYER};
use crate::ops::{self, Ledger, OpsOutcome, Truth, K, THRESHOLD};
use crate::trace::Tracer;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Restaurants (Tiny, clean, arity 6): the cost-effective path —
    /// IR fit, VAE, Algorithm 1, Algorithm 2 to a label budget,
    /// `fit_transferred` on the labels bought — then resolve ops.
    Learn,
    /// Citations2 (Paper, clean, arity 4): a timed default
    /// `Pipeline::fit` (fine-tuned encoder), then resolve ops.
    Supervised,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Learn, Workload::Supervised];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Learn => "learn",
            Workload::Supervised => "supervised",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn spec(self) -> DomainSpec {
        match self {
            Workload::Learn => DomainSpec::new(Domain::Restaurants, Scale::Tiny),
            Workload::Supervised => DomainSpec::new(Domain::Citations2, Scale::Paper),
        }
    }
}

/// Oracle labels `learn` buys in Algorithm 2 rounds. The first round
/// buys 7–8 labels and later rounds 4–5, so a budget of 10 ends after
/// exactly two rounds on every seed tried (1–20): the rounds, which cost
/// (pool) × (64 × labelled positives)² each in `Kde::relative_density`,
/// are then the same work on every run.
pub const LABEL_BUDGET: usize = 10;

/// Set-up runs at least this many times per run ...
const SETUP_MIN_REPEATS: usize = 5;
/// ... and until this many seconds went into it ...
const SETUP_MIN_SECS: f64 = 0.5;
/// ... but never more often than this.
const SETUP_MAX_REPEATS: usize = 5000;

/// Everything one run measured.
pub struct Outcome {
    /// Metric values with notes.
    pub report: Report,
    /// Op counts, failures and digests.
    pub ledger: Ledger,
    /// Extra report lines (bases, attribution verdict).
    pub notes: Vec<String>,
    /// The traced run's spans.
    pub tracer: Tracer,
}

/// Runs `workload` at `seed`, timing ops for `seconds`; `traced` selects
/// the traced run.
///
/// # Errors
/// A fit failure, after which no op can run.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(traced);
    let mut ledger = Ledger::default();
    let mut report = Report::default();
    let mut notes = Vec::new();
    let config = PipelineConfig::paper();

    // Set-up, repeated; the last repetition's tables are used.
    let mut setup_secs = Vec::new();
    let mut generated = None;
    while setup_secs.len() < SETUP_MIN_REPEATS
        || (setup_secs.iter().sum::<f64>() < SETUP_MIN_SECS && setup_secs.len() < SETUP_MAX_REPEATS)
    {
        let t0 = Instant::now();
        let dataset = workload.spec().generate(seed);
        setup_secs.push(t0.elapsed().as_secs_f64());
        generated = Some(dataset);
        if traced {
            break;
        }
    }
    let dataset = generated.ok_or("no set-up ran")?;
    notes.push(format!("dataset: {}", dataset.summary()));
    report.set(
        "setup_s",
        median(&setup_secs).unwrap_or(f64::NAN),
        format!("median of {} set-ups: data generation", setup_secs.len()),
    );

    // Fit, timed once (through the layer spans when traced).
    let fitted = fit_once(workload, &dataset, &config, &mut tracer)?;
    let train_note = match (workload, traced) {
        (_, true) => "the traced fit through the layer calls",
        (Workload::Learn, false) => "IR fit through fit_transferred + first blocking_index",
        (Workload::Supervised, false) => "Pipeline::fit + first blocking_index",
    };
    report.set("train_s", fitted.train_s, train_note);
    if let Some(al) = &fitted.active {
        ledger.record("learn fit", al.check(fitted.labels_used));
        notes.push(al.describe(fitted.labels_used));
    }
    let labels_note = match workload {
        Workload::Learn => "Oracle::queries_used (bootstrap verification not billed)",
        Workload::Supervised => "labelled training pairs the fit consumed",
    };
    report.set("labels_used", fitted.labels_used as f64, labels_note);
    let pipeline = &fitted.pipeline;
    let truth = Truth::new(pipeline, &dataset);
    let outcome = ops::run_groups(pipeline, &truth, seconds, &mut tracer, &mut ledger);
    let Some(reference) = &outcome.reference else {
        return Err("no cold op succeeded".into());
    };
    ledger.record(
        "entities path",
        ops::check_entities_path(pipeline, reference),
    );

    let test = pipeline.evaluate(&dataset.test_pairs);
    report.set(
        "test_f1",
        f64::from(test.f1),
        format!(
            "Pipeline::evaluate on {} test pairs (P {:.4}, R {:.4})",
            dataset.test_pairs.len(),
            test.precision,
            test.recall
        ),
    );
    let true_links = truth.true_links(&reference.links);
    report.set(
        "link_f1",
        truth.link_f1(&reference.links),
        format!(
            "{true_links} true of {} links, {} duplicates, k={K} t={THRESHOLD}",
            reference.links.len(),
            truth.duplicates.len()
        ),
    );
    end_to_end_latency(&mut report, &outcome);
    report.set(
        "peak_rss_mb",
        vaer_obs::alloc::rss_peak_bytes() as f64 / (1u64 << 20) as f64,
        "VmHWM of this process",
    );
    if traced {
        per_layer(
            &mut report,
            &mut notes,
            &tracer,
            &fitted,
            &truth,
            &dataset,
            &outcome,
        );
    }
    Ok(Outcome {
        report,
        ledger,
        notes,
        tracer,
    })
}

fn end_to_end_latency(report: &mut Report, outcome: &OpsOutcome) {
    for (times, p50, tail_name, what) in [
        (
            &outcome.cold_ms,
            "resolve_p50_ms",
            "resolve_tail_ms",
            "cold",
        ),
        (
            &outcome.rethreshold_ms,
            "rethreshold_p50_ms",
            "rethreshold_tail_ms",
            "re-threshold",
        ),
    ] {
        report.set(
            p50,
            median(times).unwrap_or(f64::NAN),
            format!("median of {} {what} ops", times.len()),
        );
        match tail(times) {
            Some(t) => report.set(tail_name, t.value, t.note()),
            None => report.set(tail_name, f64::NAN, "too few ops for the tail rule"),
        }
    }
}

/// A fitted pipeline and what fitting it cost.
struct Fitted {
    pipeline: Pipeline,
    /// Seconds from raw tables to the fitted pipeline.
    train_s: f64,
    /// Labels the fit consumed.
    labels_used: usize,
    /// Active-learning facts (`learn` only).
    active: Option<ActiveFacts>,
}

/// What Algorithms 1 and 2 did on `learn`.
struct ActiveFacts {
    /// Candidate pool left by Algorithm 1.
    pool: usize,
    /// Seeds Algorithm 1 labelled automatically.
    seeds: usize,
    /// Seeds the oracle corrected.
    corrections: usize,
    /// Algorithm 2 rounds run.
    rounds: usize,
    /// Labelled positives and negatives at the end.
    positives: usize,
    negatives: usize,
    /// Labels and positives bought in the rounds.
    round_labels: usize,
    round_positives: usize,
    /// Label budget and per-round batch cap.
    budget: usize,
    batch: usize,
}

impl ActiveFacts {
    /// `labels_used` stops within one batch of the budget, and both
    /// classes are labelled.
    fn check(&self, labels_used: usize) -> Result<(), String> {
        if labels_used < self.budget || labels_used >= self.budget + self.batch {
            return Err(format!(
                "{labels_used} labels used for a budget of {} (batch {})",
                self.budget, self.batch
            ));
        }
        if self.positives == 0 || self.negatives == 0 {
            return Err(format!(
                "labelled set has {} positives and {} negatives",
                self.positives, self.negatives
            ));
        }
        Ok(())
    }

    fn describe(&self, labels_used: usize) -> String {
        format!(
            "active: pool {} after {} seeds ({} corrected), {} rounds, {labels_used} labels \
             (budget {}), labelled {} positive / {} negative",
            self.pool,
            self.seeds,
            self.corrections,
            self.rounds,
            self.budget,
            self.positives,
            self.negatives
        )
    }
}

/// One fit, timed from the raw tables to a pipeline ready to resolve:
/// on an untraced `supervised` run a plain `Pipeline::fit`, otherwise
/// the fit through the layer calls; both end with the first
/// `blocking_index`, which the first resolve would otherwise build.
fn fit_once(
    workload: Workload,
    dataset: &Dataset,
    config: &PipelineConfig,
    tracer: &mut Tracer,
) -> Result<Fitted, String> {
    if workload == Workload::Supervised && !tracer.enabled() {
        let t0 = Instant::now();
        let pipeline = Pipeline::fit(dataset, config).map_err(|e| format!("fit: {e}"))?;
        pipeline.blocking_index();
        return Ok(Fitted {
            train_s: t0.elapsed().as_secs_f64(),
            labels_used: dataset.train_pairs.len(),
            pipeline,
            active: None,
        });
    }
    fit_layers(dataset, config, workload == Workload::Learn, tracer)
}

/// Fits through the public layer calls, one span each: IR fit and
/// encoding, VAE training, latent caches, then — on `learn` —
/// Algorithms 1 and 2, and finally `Pipeline::fit_transferred` on the
/// labelled pairs. The VAE is trained with the configuration
/// `Pipeline::fit` derives, so the result equals a plain fit.
fn fit_layers(
    dataset: &Dataset,
    config: &PipelineConfig,
    learn: bool,
    tracer: &mut Tracer,
) -> Result<Fitted, String> {
    let root = tracer.open("fit", 0);
    let t0 = Instant::now();
    let out = (|| {
        let arity = dataset.table_a.schema.arity();
        let (irs_a, irs_b) = tracer.call("embed.fit", 0, || {
            let model = fit_ir_model(
                config.ir_kind,
                &dataset.all_sentences(),
                &dataset.tables_raw(),
                config.ir_dim,
                config.seed,
            );
            let a: Vec<String> = dataset.table_a.sentences().map(str::to_owned).collect();
            let b: Vec<String> = dataset.table_b.sentences().map(str::to_owned).collect();
            (
                IrTable::new(arity, model.encode_batch(&a)),
                IrTable::new(arity, model.encode_batch(&b)),
            )
        });
        let mut repr_config = config.repr.clone();
        repr_config.ir_dim = config.ir_dim;
        repr_config.seed = config.seed ^ 0xE301;
        let all_irs = irs_a.irs.vconcat(&irs_b.irs);
        let (repr, _) = tracer
            .call("repr.train", 0, || ReprModel::train(&all_irs, &repr_config))
            .map_err(|e| format!("repr: {e}"))?;
        let lat_a = tracer.call("latent.encode", 0, || LatentTable::encode(&repr, &irs_a));
        let lat_b = tracer.call("latent.encode", 0, || LatentTable::encode(&repr, &irs_b));
        let latent_fingerprints = (lat_a.fingerprint(), lat_b.fingerprint());
        let (labelled, labels_used, active) = if learn {
            let al_config = ActiveConfig::default();
            let (budget, batch) = (LABEL_BUDGET, al_config.samples_per_iteration);
            let oracle = dataset.oracle();
            let mut learner = tracer.call("active.bootstrap", 0, || {
                ActiveLearner::with_latents(&repr, &irs_a, &irs_b, lat_a, lat_b, al_config)
            });
            let (pool, seeds) = (learner.pool_size(), learner.labeled().len());
            tracer
                .call("active.rounds", 0, || learner.run(&oracle, budget, None))
                .map_err(|e| format!("active: {e}"))?;
            if tracer.enabled() {
                tracer
                    .call("active.retrain", 0, || learner.train_matcher())
                    .map_err(|e| format!("retrain: {e}"))?;
            }
            let labelled = learner.labeled();
            let history = learner.history();
            let (first, last) = match (history.first(), history.last()) {
                (Some(f), Some(l)) => (f, l),
                _ => return Err("active learning recorded no checkpoint".into()),
            };
            let facts = ActiveFacts {
                pool,
                seeds,
                corrections: learner.bootstrap_corrections(),
                rounds: history.len() - 1,
                positives: labelled.num_positive(),
                negatives: labelled.num_negative(),
                round_labels: last.labels_used - first.labels_used,
                round_positives: last.pool_sizes.0 - first.pool_sizes.0,
                budget,
                batch,
            };
            let mut with_labels = dataset.clone();
            with_labels.train_pairs = labelled;
            (Some(with_labels), oracle.queries_used(), Some(facts))
        } else {
            (None, dataset.train_pairs.len(), None)
        };
        let pipeline = tracer
            .call("pipeline.fit", 0, || {
                Pipeline::fit_transferred(labelled.as_ref().unwrap_or(dataset), config, repr)
            })
            .map_err(|e| format!("fit: {e}"))?;
        tracer.call("index.build", 0, || pipeline.blocking_index());
        let train_s = t0.elapsed().as_secs_f64();
        let (la, lb) = pipeline.latents();
        if (la.fingerprint(), lb.fingerprint()) != latent_fingerprints {
            return Err("fit_transferred re-encoded different latents".into());
        }
        Ok(Fitted {
            pipeline,
            train_s,
            labels_used,
            active,
        })
    })();
    tracer.close(root);
    out
}

/// The per-layer metrics of a traced run.
fn per_layer(
    report: &mut Report,
    notes: &mut Vec<String>,
    tracer: &Tracer,
    fitted: &Fitted,
    truth: &Truth,
    dataset: &Dataset,
    outcome: &OpsOutcome,
) {
    let sum = |name: &str| tracer.secs_of(name).iter().sum::<f64>();
    let sum_allocs = |name: &str| tracer.allocs_of(name).iter().sum::<f64>();
    let med = |name: &str| median(&tracer.secs_of(name)).unwrap_or(0.0);
    let med_allocs = |name: &str| median(&tracer.allocs_of(name)).unwrap_or(0.0);
    let calls = |name: &str| tracer.secs_of(name).len();
    let pipeline = &fitted.pipeline;
    let rows = dataset.table_a.len() + dataset.table_b.len();
    let arity = dataset.table_a.schema.arity();
    let ir_rows = rows * arity;

    report.set(
        "embed.fit.s",
        sum("embed.fit"),
        "fit_ir_model + encode_batch x2",
    );
    report.set("embed.fit.allocs", sum_allocs("embed.fit"), "allocations");
    let repr_s = sum("repr.train");
    let epochs = pipeline.config().repr.epochs;
    report.set("repr.train.s", repr_s, "ReprModel::train");
    report.set("repr.train.allocs", sum_allocs("repr.train"), "allocations");
    report.set(
        "repr.train.rows_per_s",
        (ir_rows * epochs) as f64 / repr_s,
        format!("{ir_rows} IR rows x {epochs} epochs / repr.train.s"),
    );
    report.set(
        "latent.encode.s",
        sum("latent.encode"),
        "LatentTable::encode x2",
    );
    report.set(
        "latent.encode.rows",
        rows as f64,
        format!("tuples of both tables ({ir_rows} IR rows)"),
    );

    match &fitted.active {
        Some(al) => {
            let rounds_s = sum("active.rounds");
            let retrain_s = sum("active.retrain");
            report.set(
                "active.bootstrap.s",
                sum("active.bootstrap"),
                "ActiveLearner::with_latents",
            );
            report.set(
                "active.bootstrap.pool",
                al.pool as f64,
                "candidate pool after Algorithm 1",
            );
            report.set(
                "active.bootstrap.corrections",
                al.corrections as f64,
                format!("of {} seeds", al.seeds),
            );
            report.set("active.rounds.s", rounds_s, "ActiveLearner::run");
            report.set(
                "active.rounds.count",
                al.rounds as f64,
                format!("budget {}", al.budget),
            );
            report.set(
                "active.round.mean_s",
                rounds_s / al.rounds.max(1) as f64,
                "active.rounds.s / rounds",
            );
            report.set(
                "active.retrain.s",
                retrain_s,
                "one train_matcher on the final labelled set",
            );
            report.set(
                "active.retrain_share",
                al.rounds as f64 * retrain_s / rounds_s,
                "rounds x retrain.s / rounds.s",
            );
            report.set(
                "active.labels.positive_share",
                al.round_positives as f64 / al.round_labels.max(1) as f64,
                format!(
                    "{} positives of {} labels bought in rounds",
                    al.round_positives, al.round_labels
                ),
            );
        }
        None => {
            for m in PER_LAYER.iter().filter(|m| m.name.starts_with("active.")) {
                report.set(m.name, 0.0, "no active learning on this workload");
            }
        }
    }

    report.set(
        "pipeline.fit.s",
        sum("pipeline.fit"),
        "Pipeline::fit_transferred (refits IRs, encodes latents, trains the matcher)",
    );
    report.set(
        "pipeline.fit.allocs",
        sum_allocs("pipeline.fit"),
        "allocations",
    );
    report.set(
        "matcher.fit.s",
        pipeline.timings().match_secs,
        format!(
            "Pipeline::timings().match_secs ({} encoder)",
            if pipeline.matcher().encoder_frozen() {
                "frozen"
            } else {
                "fine-tuned"
            }
        ),
    );
    report.set(
        "index.build.s",
        sum("index.build"),
        "first Pipeline::blocking_index",
    );
    report.set(
        "index.build.allocs",
        sum_allocs("index.build"),
        "allocations",
    );

    let n_cands = truth.candidates.len();
    let dup_cands = truth
        .duplicates
        .iter()
        .filter(|d| truth.candidates.contains(d))
        .count();
    let cross = truth.len_a * truth.len_b;
    report.set(
        "index.block.s",
        med("index.block"),
        format!(
            "median of {} blocking_candidates({K})",
            calls("index.block")
        ),
    );
    report.set(
        "index.block.allocs",
        med_allocs("index.block"),
        "median allocations per call",
    );
    report.set("index.block.candidates", n_cands as f64, format!("k={K}"));
    report.set(
        "index.block.recall",
        dup_cands as f64 / truth.duplicates.len().max(1) as f64,
        format!(
            "{dup_cands} of {} duplicates are candidates",
            truth.duplicates.len()
        ),
    );
    report.set(
        "index.block.reduction",
        1.0 - n_cands as f64 / cross as f64,
        format!("1 - candidates / {cross} (|A|x|B|)"),
    );

    let encode_calls = calls("exec.encode");
    report.set(
        "exec.encode.s",
        med("exec.encode"),
        if encode_calls > 0 {
            format!("median of {encode_calls} EncodeStage runs")
        } else {
            "frozen encoder: Score is fused, no Encode stage".into()
        },
    );
    report.set(
        "exec.encode.pairs",
        if encode_calls > 0 {
            n_cands as f64
        } else {
            0.0
        },
        "pairs encoded per cold op",
    );
    let score_s = med("exec.score");
    report.set(
        "exec.score.s",
        score_s,
        format!(
            "median of {} {} runs",
            calls("exec.score"),
            if encode_calls > 0 {
                "ScoreStage"
            } else {
                "FusedScoreStage"
            }
        ),
    );
    report.set(
        "exec.score.pairs_per_s",
        n_cands as f64 / score_s,
        "candidates / exec.score.s",
    );
    report.set(
        "exec.score.allocs",
        med_allocs("exec.score"),
        "median allocations per call",
    );

    let links = outcome.reference.as_ref().map_or(0, |r| r.links.len());
    let true_links = outcome
        .reference
        .as_ref()
        .map_or(0, |r| truth.true_links(&r.links));
    report.set(
        "exec.link.s",
        med("exec.link"),
        format!(
            "median of {} Link runs (LinkStage and memo re-runs)",
            calls("exec.link")
        ),
    );
    report.set("exec.link.links", links as f64, format!("t={THRESHOLD}"));
    report.set(
        "exec.link.precision",
        true_links as f64 / links.max(1) as f64,
        format!("{true_links} true of {links} links"),
    );
    report.set(
        "exec.plan.hit_ratio",
        outcome.plan_hits as f64 / outcome.plan_runs.max(1) as f64,
        format!(
            "{} memo hits of {} plan runs",
            outcome.plan_hits, outcome.plan_runs
        ),
    );
    report.set(
        "exec.health.retries",
        outcome.retries as f64,
        "over all plan runs",
    );
    report.set(
        "exec.health.degradations",
        outcome.degradations as f64,
        "over all plan runs",
    );
    report.set(
        "cluster.s",
        med("cluster"),
        format!("median of {} cluster runs", calls("cluster")),
    );
    let clusters = outcome.reference.as_ref().map_or(0, |r| r.clusters.len());
    report.set(
        "cluster.clusters",
        clusters as f64,
        "entities at t=0.5, singletons included",
    );

    // Attribution: layer spans against the wall time of what they stand
    // for. A traced cold op's layers stand for the plan op, so work the
    // plan does outside the public layer calls shows as residue.
    let parts = [
        ("fit", tracer.child_secs("fit"), sum("fit")),
        ("cold ops", tracer.child_secs("op.cold"), sum("op.plan")),
        (
            "re-threshold ops",
            tracer.child_secs("op.rethreshold"),
            sum("op.rethreshold"),
        ),
    ];
    let layers: f64 = parts.iter().map(|p| p.1).sum();
    let wall: f64 = parts.iter().map(|p| p.2).sum();
    let coverage = layers / wall;
    report.set(
        "layer_coverage",
        coverage,
        format!("{layers:.4} s of layer spans / {wall:.4} s of op wall time"),
    );
    report.set(
        "residue.s",
        wall - layers,
        format!("of {wall:.4} s of op wall time"),
    );
    for (part, layers, wall) in parts {
        notes.push(format!(
            "attribution {part}: layers {layers:.4} s of {wall:.4} s ({:.2}%)",
            100.0 * layers / wall
        ));
    }
    let summary = median(&tracer.secs_of("op.plan")).unwrap_or(f64::NAN);
    let off = median(&outcome.cold_ms).map_or(f64::NAN, |ms| ms * 1e-3);
    report.set(
        "obs.overhead",
        summary / off - 1.0,
        format!(
            "median cold op {:.4} ms at summary vs {:.4} ms off",
            summary * 1e3,
            off * 1e3
        ),
    );
    notes.push(if coverage >= ATTRIBUTION_TARGET {
        format!(
            "attribution: layers cover {:.2}% of op wall time (target {:.0}%)",
            coverage * 100.0,
            ATTRIBUTION_TARGET * 100.0
        )
    } else {
        format!(
            "attribution: BELOW TARGET, layers cover {:.2}% of op wall time (target {:.0}%); \
             residue.s is the unattributed rest",
            coverage * 100.0,
            ATTRIBUTION_TARGET * 100.0
        )
    });
}

/// Share of op wall time the layer spans should account for.
const ATTRIBUTION_TARGET: f64 = 0.95;
