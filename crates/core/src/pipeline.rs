//! The end-to-end VAER pipeline: IR generation → unsupervised VAE →
//! supervised Siamese matching, with per-stage timing (Table VI) and the
//! blocking/representation reports of §VI-B.

use crate::entity::IrTable;
use crate::evaluation::{check_pairs, recall_at_k_vae, topk_eval_vae};
use crate::exec::{self, ResolvePlan};
use crate::latent::{self, LatentTable};
use crate::matcher::{MatcherConfig, PairExamples, SiameseMatcher};
use crate::repr::{fnv1a, ReprConfig, ReprModel, ReprTrainStats};
use crate::resilience::RunBudget;
use crate::CoreError;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;
use vaer_data::{Dataset, LabeledPair, PairSet};
use vaer_embed::{fit_ir_model, IrKind, IrModel};
use vaer_index::{knn_join, CandidatePair, E2Lsh};
use vaer_stats::metrics::{PrF1, TopKReport};

/// Numeric precision of the resolution Score stage (DESIGN.md §13).
///
/// `F32` is the exact path: the trained matcher's own forward pass.
/// `Int8` scores through the calibrated [`crate::quant::QuantizedMatcher`]
/// twin — int8 GEMM with per-channel weight scales — which is only
/// available when the encoder stayed frozen at fit time; a fine-tuned
/// pipeline silently falls back to `F32` (the effective precision is
/// reported on [`crate::exec::Resolution::precision`]). Parity between
/// the two lanes is test-enforced in `tests/quantization.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum ScorePrecision {
    /// Exact f32 scoring (default).
    #[default]
    F32,
    /// Quantized int8 scoring via the calibrated matcher twin.
    Int8,
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Which IR family to use (the paper defaults to LSA as most robust).
    pub ir_kind: IrKind,
    /// IR dimensionality (shared by all four families).
    pub ir_dim: usize,
    /// VAE hyper-parameters (its `ir_dim` is kept in sync automatically).
    pub repr: ReprConfig,
    /// Siamese matcher hyper-parameters.
    pub matcher: MatcherConfig,
    /// Auto-labelled negatives added to matcher training, as a multiple of
    /// the labelled pair count. Uniform random (a, b) pairs are negatives
    /// with overwhelming probability (duplicates are a vanishing fraction
    /// of the cross product), so — in the spirit of the paper's
    /// Algorithm 1 bootstrap — they are free labels. Without them a
    /// matcher trained on a handful of pairs saturates and scores the
    /// hard negatives surfaced by blocking as confident matches.
    pub auto_negative_ratio: f32,
    /// Master seed.
    pub seed: u64,
    /// When set, VAE training snapshots its state into this directory and
    /// resumes from the newest valid snapshot after a crash (see
    /// [`ReprModel::train_with`]). `None` disables durability.
    pub checkpoint_dir: Option<PathBuf>,
    /// Snapshot cadence in epochs when `checkpoint_dir` is set.
    pub checkpoint_every: usize,
    /// Numeric precision of the resolution Score stage.
    pub score_precision: ScorePrecision,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            ir_kind: IrKind::Lsa,
            ir_dim: 64,
            repr: ReprConfig::default(),
            matcher: MatcherConfig::default(),
            auto_negative_ratio: 4.0,
            seed: 0x7A3E,
            checkpoint_dir: None,
            checkpoint_every: 5,
            score_precision: ScorePrecision::F32,
        }
    }
}

impl PipelineConfig {
    /// A small/fast configuration for tests and doc examples.
    pub fn fast() -> Self {
        Self {
            ir_dim: 24,
            repr: ReprConfig {
                epochs: 8,
                ..ReprConfig::fast(24)
            },
            matcher: MatcherConfig::fast(),
            ..Self::default()
        }
    }

    /// The configuration used by the reported experiments (closer to the
    /// paper's Table III, scaled per DESIGN.md).
    pub fn paper() -> Self {
        Self {
            ir_dim: 64,
            repr: ReprConfig {
                hidden_dim: 96,
                latent_dim: 32,
                epochs: 15,
                ..ReprConfig::default()
            },
            matcher: MatcherConfig {
                epochs: 40,
                ..MatcherConfig::default()
            },
            ..Self::default()
        }
    }
}

/// Wall-clock timings of the pipeline stages, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timings {
    /// IR model fitting + encoding.
    pub ir_secs: f64,
    /// VAE representation training (the paper's "Repr." column).
    pub repr_secs: f64,
    /// Siamese matcher training (the paper's "Match" column).
    pub match_secs: f64,
}

impl Timings {
    /// Total seconds.
    pub fn total(&self) -> f64 {
        self.ir_secs + self.repr_secs + self.match_secs
    }
}

/// A fitted end-to-end VAER pipeline.
pub struct Pipeline {
    ir_model: Box<dyn IrModel>,
    pub(crate) repr: ReprModel,
    pub(crate) matcher: SiameseMatcher,
    pub(crate) quantized: Option<crate::quant::QuantizedMatcher>,
    pub(crate) irs_a: IrTable,
    pub(crate) irs_b: IrTable,
    pub(crate) lat_a: LatentTable,
    pub(crate) lat_b: LatentTable,
    /// Both tables encoded through the fine-tuned matcher's encoder;
    /// `None` while the encoder is frozen.
    tuned: Option<(LatentTable, LatentTable)>,
    timings: Timings,
    repr_stats: ReprTrainStats,
    pub(crate) config: PipelineConfig,
    /// Content stamp of the fit (IR tables, VAE and matcher weights,
    /// seed) that checkpointed plan artifacts are keyed by.
    pub(crate) stamp: u64,
    /// The E2Lsh blocking index over table B's μ rows, shared by every
    /// [`ResolvePlan`] and `resolve` call. The latents are frozen once
    /// fitting ends, so it is built at most once per pipeline:
    /// `exec.index.builds` counts one build however often resolution runs.
    index: OnceLock<E2Lsh>,
}

impl Pipeline {
    /// Fits the full pipeline on a dataset: IRs, VAE, then matcher on the
    /// dataset's training pairs.
    ///
    /// # Errors
    /// Propagates representation/matcher training failures.
    pub fn fit(dataset: &Dataset, config: &PipelineConfig) -> Result<Self, CoreError> {
        Self::fit_inner(dataset, config, None, &RunBudget::from_env())
    }

    /// [`fit`](Self::fit) under an explicit [`RunBudget`]: representation
    /// and matcher training probe the budget at every epoch (including
    /// divergence-guard retries), and the table-encoding stages probe at
    /// their boundaries, so a deadline or cancellation surfaces as a typed
    /// error instead of a hang. The plain [`fit`](Self::fit) reads
    /// `VAER_DEADLINE_MS` from the environment for the same effect.
    ///
    /// # Errors
    /// Same as [`fit`](Self::fit), plus [`CoreError::Cancelled`] /
    /// [`CoreError::DeadlineExceeded`] when the budget trips.
    pub fn fit_budgeted(
        dataset: &Dataset,
        config: &PipelineConfig,
        budget: &RunBudget,
    ) -> Result<Self, CoreError> {
        Self::fit_inner(dataset, config, None, budget)
    }

    /// Fits with a *transferred* representation model (paper §III-D):
    /// representation training is skipped and `repr_secs` is 0. The
    /// dataset must already be arity-adapted (see
    /// [`crate::transfer::adapt_dataset_arity`]) and the transferred
    /// model's `ir_dim` must equal `config.ir_dim`.
    pub fn fit_transferred(
        dataset: &Dataset,
        config: &PipelineConfig,
        repr: ReprModel,
    ) -> Result<Self, CoreError> {
        if repr.config().ir_dim != config.ir_dim {
            return Err(CoreError::BadInput(format!(
                "transferred model expects ir_dim {}, config has {}",
                repr.config().ir_dim,
                config.ir_dim
            )));
        }
        Self::fit_inner(dataset, config, Some(repr), &RunBudget::from_env())
    }

    fn fit_inner(
        dataset: &Dataset,
        config: &PipelineConfig,
        transferred: Option<ReprModel>,
        budget: &RunBudget,
    ) -> Result<Self, CoreError> {
        let arity = dataset.table_a.schema.arity();
        if arity != dataset.table_b.schema.arity() {
            return Err(CoreError::BadInput("tables must share arity".into()));
        }
        dataset
            .train_pairs
            .validate(&dataset.table_a, &dataset.table_b)
            .map_err(|e| CoreError::BadInput(format!("training pairs: {e}")))?;
        let _span = vaer_obs::span("pipeline.fit");
        // Stage 1: IRs.
        let stage = vaer_obs::span("pipeline.stage.ir");
        // vaer-lint: allow(det-wallclock) -- feeds the reported per-stage Timings, not the model
        let t0 = Instant::now();
        let sentences = dataset.all_sentences();
        let ir_model = fit_ir_model(
            config.ir_kind,
            &sentences,
            &dataset.tables_raw(),
            config.ir_dim,
            config.seed,
        );
        let a_sentences: Vec<String> = dataset.table_a.sentences().map(str::to_owned).collect();
        let b_sentences: Vec<String> = dataset.table_b.sentences().map(str::to_owned).collect();
        let irs_a = IrTable::new(arity, ir_model.encode_batch(&a_sentences));
        let irs_b = IrTable::new(arity, ir_model.encode_batch(&b_sentences));
        let ir_secs = t0.elapsed().as_secs_f64();
        drop(stage);

        // Stage 2: representation learning (or transfer).
        let stage = vaer_obs::span("pipeline.stage.repr");
        // vaer-lint: allow(det-wallclock) -- feeds the reported per-stage Timings, not the model
        let t1 = Instant::now();
        let mut repr_config = config.repr.clone();
        repr_config.ir_dim = config.ir_dim;
        repr_config.seed = config.seed ^ 0xE301;
        let (repr, repr_stats, repr_secs) = match transferred {
            Some(model) => (model, ReprTrainStats::default(), 0.0),
            None => {
                let all_irs = irs_a.irs.vconcat(&irs_b.irs);
                let snapshots = match &config.checkpoint_dir {
                    Some(dir) => Some(crate::checkpoint::CheckpointStore::open(dir, "vae")?),
                    None => None,
                };
                let (model, stats) = ReprModel::train_with(
                    &all_irs,
                    &repr_config,
                    budget,
                    snapshots.as_ref().map(|s| (s, config.checkpoint_every)),
                )?;
                (model, stats, t1.elapsed().as_secs_f64())
            }
        };
        // The representation model is frozen from here on: encode each
        // table once into a latent cache via the executor's Encode stage;
        // matcher features, blocking, resolution and the reports all read
        // its rows.
        let mut executor = exec::Executor::new();
        executor.set_budget(budget.clone());
        let encode = |repr: &ReprModel, table: &IrTable| {
            executor.run(&mut exec::EncodeTableStage { repr, table }, (), config.seed)
        };
        let lat_a = encode(&repr, &irs_a)?;
        let lat_b = encode(&repr, &irs_b)?;
        drop(stage);

        // Stage 3: supervised matching, with Algorithm-1-style auto-labelled
        // random negatives mixed into the labelled pairs (see
        // [`PipelineConfig::auto_negative_ratio`]).
        let stage = vaer_obs::span("pipeline.stage.match");
        // vaer-lint: allow(det-wallclock) -- feeds the reported per-stage Timings, not the model
        let t2 = Instant::now();
        let mut matcher_config = config.matcher.clone();
        matcher_config.seed = config.seed ^ 0x3A7C;
        let mut train_pairs = dataset.train_pairs.clone();
        let n_auto = (config.auto_negative_ratio * train_pairs.pairs.len() as f32).round() as usize;
        if n_auto > 0 && !dataset.table_a.is_empty() && !dataset.table_b.is_empty() {
            let positives: BTreeSet<(usize, usize)> = train_pairs
                .pairs
                .iter()
                .filter(|p| p.is_match)
                .map(|p| (p.left, p.right))
                .collect();
            train_pairs.pairs.extend(sample_auto_negatives(
                n_auto,
                dataset.table_a.len(),
                dataset.table_b.len(),
                &positives,
                config.seed ^ 0xA06E,
            ));
        }
        let matcher = SiameseMatcher::train_labelled(
            &repr,
            (&irs_a, &irs_b),
            (&lat_a, &lat_b),
            &train_pairs,
            &matcher_config,
            budget,
        )?;
        // A frozen encoder's training pairs double as the int8 calibration
        // set; a fine-tuned one gets no twin (Int8 requests fall back to
        // f32 at resolution time).
        let quantized = matcher.int8_twin((&lat_a, &lat_b), &train_pairs)?;
        // A fine-tuned encoder is as fixed as the VAE's from here on:
        // encode both tables through it once, so Score reads caches.
        let tuned = match matcher.tuned_encoder(&repr) {
            Some(encoder) => Some((encode(&encoder, &irs_a)?, encode(&encoder, &irs_b)?)),
            None => None,
        };
        let stamp = content_stamp([&irs_a, &irs_b], &repr, &matcher, config.seed);
        let match_secs = t2.elapsed().as_secs_f64();
        drop(stage);
        vaer_obs::event(
            "pipeline.fit",
            &[
                ("ir_secs", ir_secs.into()),
                ("repr_secs", repr_secs.into()),
                ("match_secs", match_secs.into()),
                ("rows_a", dataset.table_a.len().into()),
                ("rows_b", dataset.table_b.len().into()),
                ("train_pairs", train_pairs.pairs.len().into()),
            ],
        );

        Ok(Self {
            ir_model,
            repr,
            matcher,
            quantized,
            irs_a,
            irs_b,
            lat_a,
            lat_b,
            tuned,
            timings: Timings {
                ir_secs,
                repr_secs,
                match_secs,
            },
            repr_stats,
            config: config.clone(),
            stamp,
            index: OnceLock::new(),
        })
    }

    /// Duplicate probabilities for labelled pairs, via the executor's
    /// fused Score stage at f32 — the scoring body resolution runs, over
    /// the latent caches the fit encoded, so no call re-runs the encoder.
    ///
    /// # Errors
    /// [`CoreError::BadInput`] when a pair indexes past either table;
    /// [`CoreError::Io`] when a `vaer-fault` failpoint injects an error
    /// into the Score stage.
    pub fn predict(&self, pairs: &PairSet) -> Result<Vec<f32>, CoreError> {
        check_pairs(pairs, (self.lat_a.len(), self.lat_b.len()))?;
        let idx: Vec<(usize, usize)> = pairs.pairs.iter().map(|p| (p.left, p.right)).collect();
        exec::Executor::new().run(
            &mut exec::FusedScoreStage {
                pipeline: self,
                precision: ScorePrecision::F32,
                budget: RunBudget::unlimited(),
            },
            idx,
            self.config.seed,
        )
    }

    /// P/R/F1 of the matcher on a labelled pair set.
    ///
    /// # Panics
    /// Panics when a pair indexes past either table (`predict` errors).
    pub fn evaluate(&self, pairs: &PairSet) -> PrF1 {
        self.matcher
            .evaluate(&PairExamples::build(&self.irs_a, &self.irs_b, pairs))
    }

    /// Table IV right-hand columns: top-K retrieval quality of the VAE
    /// representations.
    ///
    /// # Errors
    /// [`CoreError::BadInput`] when a pair indexes past either table.
    pub fn representation_report(
        &self,
        pairs: &PairSet,
        k: usize,
    ) -> Result<TopKReport, CoreError> {
        topk_eval_vae(&self.lat_a, &self.lat_b, pairs, k)
    }

    /// Recall@K over the dataset's full duplicate ground truth (Fig. 4 /
    /// Table VII protocol).
    ///
    /// # Errors
    /// [`CoreError::BadInput`] when a duplicate indexes past either table.
    pub fn recall_at_k(&self, duplicates: &[(usize, usize)], k: usize) -> Result<f32, CoreError> {
        recall_at_k_vae(&self.lat_a, &self.lat_b, duplicates, k)
    }

    /// The plan-owned E2Lsh blocking index over table B's μ rows,
    /// built on first use and shared by every later blocking or
    /// resolution call (the latents are frozen, so it never goes stale).
    pub fn blocking_index(&self) -> &E2Lsh {
        self.blocking_index_budgeted(&RunBudget::unlimited())
            .expect("an unlimited budget never abandons the index build") // vaer-lint: allow(panic) -- an unlimited budget never trips a probe
    }

    /// [`blocking_index`](Self::blocking_index) under a [`RunBudget`]:
    /// when the index is not built yet, the build is probed cooperatively
    /// (per hash table and every few dozen insertions) so a deadline or
    /// cancellation interrupts it; an already built index is returned
    /// without probing.
    ///
    /// # Errors
    /// [`CoreError::Cancelled`] / [`CoreError::DeadlineExceeded`] when the
    /// budget trips mid-build (nothing is cached in that case).
    pub(crate) fn blocking_index_budgeted(&self, budget: &RunBudget) -> Result<&E2Lsh, CoreError> {
        if let Some(index) = self.index.get() {
            return Ok(index);
        }
        let mut stop = None;
        let mut probe = || match budget.probe("exec.block") {
            Ok(()) => false,
            Err(e) => {
                stop = Some(e);
                true
            }
        };
        let points = self.lat_b.mu_points();
        match E2Lsh::build_calibrated_probed(points, self.config.seed ^ 0xB10C, &mut probe) {
            Some(index) => {
                let mut built = false;
                let index = self.index.get_or_init(|| {
                    built = true;
                    index
                });
                if built {
                    crate::obs::handles().exec_index_builds.incr();
                }
                Ok(index)
            }
            None => Err(stop
                .unwrap_or_else(|| CoreError::Cancelled("blocking index build abandoned".into()))),
        }
    }

    /// LSH blocking: candidate pairs from the latent means (§VI-B) — the
    /// filter an end-to-end deployment would run before matching.
    pub fn blocking_candidates(&self, k: usize) -> Vec<CandidatePair> {
        knn_join(&self.lat_a.mu_rows(), self.blocking_index(), k)
    }

    /// A re-runnable resolution plan over this pipeline: the staged
    /// Block → Encode → Score → Link → Cluster dataflow with per-`k`
    /// artifact reuse, optional checkpointing, and typed errors. Use this
    /// instead of [`resolve`](Self::resolve) to sweep thresholds without
    /// re-blocking or to survive mid-resolution crashes. The stage budget
    /// starts from [`RunBudget::from_env`], so `VAER_DEADLINE_MS` bounds
    /// resolutions out of the box; the blocking-index build (when this
    /// plan triggers it) is not budgeted — use
    /// [`resolve_plan_budgeted`](Self::resolve_plan_budgeted) to bound
    /// that too.
    pub fn resolve_plan(&self) -> ResolvePlan<'_> {
        ResolvePlan::new(self, RunBudget::from_env())
    }

    /// [`resolve_plan`](Self::resolve_plan) under an explicit
    /// [`RunBudget`]: the blocking-index build (when this plan triggers
    /// it) and every stage of every run are probed against the budget.
    ///
    /// # Errors
    /// [`CoreError::Cancelled`] / [`CoreError::DeadlineExceeded`] when the
    /// budget trips during the index build.
    pub fn resolve_plan_budgeted(&self, budget: RunBudget) -> Result<ResolvePlan<'_>, CoreError> {
        self.blocking_index_budgeted(&budget)?;
        Ok(ResolvePlan::new(self, budget))
    }

    /// Full ER resolution: LSH blocking with top-`k` candidates, then
    /// matcher scoring, keeping links with probability above `threshold`.
    /// Returns `(a_row, b_row, probability)` triples sorted by descending
    /// confidence — the deployment entry point sketched in §VI-B, run on
    /// the staged executor (see [`resolve_plan`](Self::resolve_plan) for
    /// the re-runnable form).
    ///
    /// Links are constrained to a (partial) one-to-one matching: each row
    /// participates in at most one link, resolved greedily by descending
    /// probability. Two deduplicated tables can share at most one record
    /// per entity, so many-to-many link sets are structurally wrong and
    /// were the main precision leak of an unconstrained threshold cut.
    /// Candidates scored NaN by a pathological matcher are dropped before
    /// the threshold cut, deterministically.
    ///
    /// # Errors
    /// Same as [`ResolvePlan::run`]: [`CoreError::Io`] when a `vaer-fault`
    /// failpoint injects an error into a stage, and
    /// [`CoreError::DeadlineExceeded`] when `VAER_DEADLINE_MS` expires.
    pub fn resolve(&self, k: usize, threshold: f32) -> Result<Vec<(usize, usize, f32)>, CoreError> {
        Ok(self.resolve_plan().run(k, threshold)?.links)
    }

    /// The pre-refactor monolithic resolution path, kept verbatim as the
    /// oracle for the executor equivalence suite: it rebuilds the LSH
    /// index and re-scores from scratch on every call, exactly as
    /// `resolve` did before the staged executor existed. Its output must
    /// stay bit-identical to [`resolve`](Self::resolve) at the same
    /// `(k, threshold)`.
    pub fn resolve_reference(&self, k: usize, threshold: f32) -> Vec<(usize, usize, f32)> {
        let index = E2Lsh::build_calibrated(self.lat_b.mu_points(), self.config.seed ^ 0xB10C);
        let candidates = knn_join(&self.lat_a.mu_rows(), &index, k);
        let pairs: PairSet = candidates
            .iter()
            .map(|c| LabeledPair {
                left: c.left,
                right: c.right,
                is_match: false,
            })
            .collect();
        let probs = if self.matcher.encoder_frozen() {
            let idx: Vec<(usize, usize)> = pairs.pairs.iter().map(|p| (p.left, p.right)).collect();
            let features = latent::distance_features(
                self.config.matcher.distance,
                &self.lat_a,
                &self.lat_b,
                &idx,
            );
            self.matcher.predict_features(&features)
        } else {
            self.matcher
                .predict(&PairExamples::build(&self.irs_a, &self.irs_b, &pairs))
        };
        let mut links: Vec<(usize, usize, f32)> = pairs
            .pairs
            .iter()
            .zip(&probs)
            .filter(|(_, &p)| p >= threshold)
            .map(|(pair, &p)| (pair.left, pair.right, p))
            .collect();
        links.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
        let mut used_a = std::collections::BTreeSet::new();
        let mut used_b = std::collections::BTreeSet::new();
        links.retain(|&(a, b, _)| {
            if used_a.contains(&a) || used_b.contains(&b) {
                return false;
            }
            used_a.insert(a);
            used_b.insert(b);
            true
        });
        links
    }

    /// Per-stage wall-clock timings.
    pub fn timings(&self) -> Timings {
        self.timings
    }

    /// The fitted IR model.
    pub fn ir_model(&self) -> &dyn IrModel {
        self.ir_model.as_ref()
    }

    /// The trained representation model.
    pub fn repr(&self) -> &ReprModel {
        &self.repr
    }

    /// VAE training statistics.
    pub fn repr_stats(&self) -> &ReprTrainStats {
        &self.repr_stats
    }

    /// The trained matcher.
    pub fn matcher(&self) -> &SiameseMatcher {
        &self.matcher
    }

    /// The calibrated int8 scoring twin, present iff the encoder stayed
    /// frozen at fit time (see [`ScorePrecision`]).
    pub fn quantized_matcher(&self) -> Option<&crate::quant::QuantizedMatcher> {
        self.quantized.as_ref()
    }

    /// The IR tables (`(table_a, table_b)`).
    pub fn ir_tables(&self) -> (&IrTable, &IrTable) {
        (&self.irs_a, &self.irs_b)
    }

    /// The cached latent encodings (`(table_a, table_b)`) — valid for
    /// [`repr`](Self::repr) until a transferred model replaces it.
    /// Blocking reads them; so does scoring while the encoder is frozen.
    pub fn latents(&self) -> (&LatentTable, &LatentTable) {
        (&self.lat_a, &self.lat_b)
    }

    /// The latent caches scoring reads: the fine-tuned encoder's once
    /// the matcher fine-tuned, else [`latents`](Self::latents).
    pub(crate) fn score_latents(&self) -> (&LatentTable, &LatentTable) {
        self.tuned
            .as_ref()
            .map_or((&self.lat_a, &self.lat_b), |(a, b)| (a, b))
    }

    /// The configuration the pipeline was fitted with.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }
}

/// FNV-1a over everything a checkpointed Block or Score artifact
/// depends on besides the plan's `k` and precision: the seed, both IR
/// tables, the VAE weights and the matcher weights.
fn content_stamp(irs: [&IrTable; 2], repr: &ReprModel, matcher: &SiameseMatcher, seed: u64) -> u64 {
    let mut bytes = seed.to_le_bytes().to_vec();
    for table in irs {
        let shape = [table.arity, table.irs.rows(), table.irs.cols()];
        bytes.extend(shape.iter().flat_map(|&n| (n as u64).to_le_bytes()));
        bytes.extend(table.irs.as_slice().iter().flat_map(|v| v.to_le_bytes()));
    }
    bytes.extend(repr.store().to_bytes());
    bytes.extend(matcher.store().to_bytes());
    fnv1a(&bytes)
}

/// Uniform random `(a, b)` auto-negatives avoiding every labelled
/// positive. The paper's Algorithm-1 rationale — a random pair is a
/// negative with overwhelming probability — breaks exactly when the draw
/// *is* a labelled positive, which would feed the matcher contradictory
/// labels for the same pair; such draws are rejected and resampled.
/// Retries are bounded so dense-positive data (labelled matches covering
/// most of the cross product) degrades to fewer auto-negatives instead of
/// looping forever.
pub(crate) fn sample_auto_negatives(
    n: usize,
    len_a: usize,
    len_b: usize,
    positives: &BTreeSet<(usize, usize)>,
    seed: u64,
) -> Vec<LabeledPair> {
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    const MAX_RETRIES: usize = 32;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    // vaer-lint: allow(cancel-probe-coverage) -- rejection sampler outer loop, bounded by the requested n
    for _ in 0..n {
        // vaer-lint: allow(cancel-probe-coverage) -- rejection retries hard-capped at MAX_RETRIES draws
        for _ in 0..MAX_RETRIES {
            let left = rng.random_range(0..len_a);
            let right = rng.random_range(0..len_b);
            if positives.contains(&(left, right)) {
                continue;
            }
            out.push(LabeledPair {
                left,
                right,
                is_match: false,
            });
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaer_data::domains::{Domain, DomainSpec, Scale};

    fn fast_config(seed: u64) -> PipelineConfig {
        let mut c = PipelineConfig::fast();
        c.seed = seed;
        c
    }

    #[test]
    fn end_to_end_restaurants() {
        let ds = DomainSpec::new(Domain::Restaurants, Scale::Tiny).generate(7);
        let p = Pipeline::fit(&ds, &fast_config(7)).unwrap();
        let report = p.evaluate(&ds.test_pairs);
        assert!(report.f1 > 0.6, "F1 = {report}");
        // Timings populated.
        assert!(p.timings().repr_secs > 0.0);
        assert!(p.timings().match_secs > 0.0);
        assert!(p.timings().total() > 0.0);
    }

    #[test]
    fn vae_report_at_least_as_good_as_reasonable() {
        let ds = DomainSpec::new(Domain::Citations1, Scale::Tiny).generate(3);
        let p = Pipeline::fit(&ds, &fast_config(3)).unwrap();
        let vae = p.representation_report(&ds.test_pairs, 10).unwrap();
        assert!(vae.recall > 0.5, "VAE recall {}", vae.recall);
        let ir = crate::evaluation::topk_eval_irs(&p.irs_a, &p.irs_b, &ds.test_pairs, 10).unwrap();
        assert!(ir.recall > 0.0);
    }

    #[test]
    fn blocking_produces_candidates_covering_duplicates() {
        let ds = DomainSpec::new(Domain::Restaurants, Scale::Tiny).generate(5);
        let p = Pipeline::fit(&ds, &fast_config(5)).unwrap();
        let candidates = p.blocking_candidates(10);
        assert!(!candidates.is_empty());
        let cand_set: std::collections::HashSet<(usize, usize)> =
            candidates.iter().map(|c| (c.left, c.right)).collect();
        let covered = ds
            .duplicates
            .iter()
            .filter(|&&(a, b)| cand_set.contains(&(a, b)))
            .count();
        let coverage = covered as f32 / ds.duplicates.len() as f32;
        assert!(coverage > 0.5, "blocking coverage {coverage}");
    }

    #[test]
    fn resolve_returns_confident_sorted_links() {
        let ds = DomainSpec::new(Domain::Restaurants, Scale::Tiny).generate(6);
        let p = Pipeline::fit(&ds, &fast_config(6)).unwrap();
        let links = p.resolve(5, 0.5).unwrap();
        assert!(!links.is_empty());
        for w in links.windows(2) {
            assert!(w[0].2 >= w[1].2, "links not sorted by confidence");
        }
        assert!(links.iter().all(|&(_, _, p)| p >= 0.5));
        // Most confident links should be true duplicates.
        let truth: std::collections::HashSet<(usize, usize)> =
            ds.duplicates.iter().copied().collect();
        let top_correct = links
            .iter()
            .take(5)
            .filter(|&&(a, b, _)| truth.contains(&(a, b)))
            .count();
        assert!(top_correct >= 3, "only {top_correct}/5 top links correct");
    }

    #[test]
    fn cached_prediction_matches_direct_matcher() {
        let ds = DomainSpec::new(Domain::Beer, Scale::Tiny).generate(8);
        let p = Pipeline::fit(&ds, &fast_config(8)).unwrap();
        assert!(p.matcher().encoder_frozen(), "tiny pairs must stay frozen");
        let cached = p.predict(&ds.test_pairs).unwrap();
        let direct = p
            .matcher()
            .predict(&PairExamples::build(&p.irs_a, &p.irs_b, &ds.test_pairs));
        assert_eq!(cached, direct, "cached pipeline predictions diverged");
        let (lat_a, lat_b) = p.latents();
        assert!(!lat_a.is_stale(p.repr()) && !lat_b.is_stale(p.repr()));
    }

    #[test]
    fn transfer_skips_repr_training() {
        let src = DomainSpec::new(Domain::Citations1, Scale::Tiny).generate(1);
        let config = fast_config(1);
        let source = Pipeline::fit(&src, &config).unwrap();
        let tgt = DomainSpec::new(Domain::Beer, Scale::Tiny).generate(2);
        let adapted = crate::transfer::adapt_dataset_arity(&tgt, 4);
        let transferred =
            Pipeline::fit_transferred(&adapted, &config, source.repr().clone()).unwrap();
        assert_eq!(transferred.timings().repr_secs, 0.0);
        let f1 = transferred.evaluate(&adapted.test_pairs).f1;
        assert!(f1 > 0.4, "transferred F1 {f1}");
    }

    #[test]
    fn checkpointed_fit_matches_plain_fit() {
        let ds = DomainSpec::new(Domain::Beer, Scale::Tiny).generate(11);
        let plain = Pipeline::fit(&ds, &fast_config(11)).unwrap();
        let dir = std::env::temp_dir().join(format!("vaer-pipeline-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = fast_config(11);
        config.checkpoint_dir = Some(dir.clone());
        config.checkpoint_every = 3;
        let durable = Pipeline::fit(&ds, &config).unwrap();
        assert_eq!(
            plain.repr().to_bytes(),
            durable.repr().to_bytes(),
            "checkpointing changed the trained representation"
        );
        let snapshots = crate::checkpoint::CheckpointStore::open(&dir, "vae").unwrap();
        assert!(
            !snapshots.list().unwrap().is_empty(),
            "no VAE snapshots written"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_negatives_never_collide_with_positives() {
        // Dense positives: 8 of the 9 cells of a 3x3 cross product are
        // labelled matches, so naive uniform draws collide constantly.
        let mut positives = BTreeSet::new();
        for a in 0..3 {
            for b in 0..3 {
                if (a, b) != (2, 2) {
                    positives.insert((a, b));
                }
            }
        }
        let negatives = sample_auto_negatives(50, 3, 3, &positives, 0xA06E);
        assert!(!negatives.is_empty(), "one free cell, none found");
        for p in &negatives {
            assert!(
                !positives.contains(&(p.left, p.right)),
                "auto-negative ({}, {}) is a labelled positive",
                p.left,
                p.right
            );
            assert!(!p.is_match);
        }
    }

    #[test]
    fn auto_negatives_bound_retries_on_saturated_truth() {
        // Every cell is a labelled positive: rejection sampling cannot
        // succeed and must give up instead of spinning.
        let positives: BTreeSet<(usize, usize)> =
            (0..2).flat_map(|a| (0..2).map(move |b| (a, b))).collect();
        assert!(sample_auto_negatives(10, 2, 2, &positives, 7).is_empty());
    }

    #[test]
    fn auto_negatives_match_legacy_draws_when_collision_free() {
        // With no positives the rejection sampler consumes the rng in the
        // same order as the pre-fix loop — fitted models stay identical
        // on realistic (sparse-positive) data.
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let legacy: Vec<(usize, usize)> = (0..20)
            .map(|_| (rng.random_range(0..10), rng.random_range(0..7)))
            .collect();
        let sampled = sample_auto_negatives(20, 10, 7, &BTreeSet::new(), 99);
        let got: Vec<(usize, usize)> = sampled.iter().map(|p| (p.left, p.right)).collect();
        assert_eq!(got, legacy);
    }

    #[test]
    fn resolve_plan_reuses_artifacts_across_runs() {
        let ds = DomainSpec::new(Domain::Restaurants, Scale::Tiny).generate(6);
        let p = Pipeline::fit(&ds, &fast_config(6)).unwrap();
        let mut plan = p.resolve_plan();
        let first = plan.run(5, 0.5).unwrap();
        assert!(!first.reused);
        // Same k, new threshold: Block/Encode/Score are skipped, and the
        // link set matches a fresh resolve at that threshold exactly.
        let rerun = plan.run(5, 0.8).unwrap();
        assert!(rerun.reused, "threshold re-run recomputed the scores");
        assert_eq!(rerun.candidates, first.candidates);
        assert_eq!(rerun.links, p.resolve(5, 0.8).unwrap());
        // New k: re-blocks (not reused) but still never rebuilds the
        // index (asserted via obs counters in tests/exec_resume.rs).
        let wider = plan.run(7, 0.5).unwrap();
        assert!(!wider.reused);
        assert_eq!(wider.links, p.resolve(7, 0.5).unwrap());
        // Clustering through the plan matches clustering the links.
        let entities = plan.entities(5, 0.5, false).unwrap();
        let direct: Vec<(usize, usize)> = first.links.iter().map(|&(a, b, _)| (a, b)).collect();
        let expect =
            crate::cluster::cluster_links(&direct, ds.table_a.len(), ds.table_b.len(), false)
                .unwrap();
        assert_eq!(entities, expect);
    }

    #[test]
    fn transfer_rejects_dim_mismatch() {
        let src = DomainSpec::new(Domain::Beer, Scale::Tiny).generate(4);
        let p = Pipeline::fit(&src, &fast_config(4)).unwrap();
        let mut other = fast_config(4);
        other.ir_dim = 12;
        other.repr = crate::repr::ReprConfig::fast(12);
        assert!(matches!(
            Pipeline::fit_transferred(&src, &other, p.repr().clone()),
            Err(CoreError::BadInput(_))
        ));
    }
}
