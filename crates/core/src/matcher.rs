//! Supervised matching in the latent space — the Siamese network of
//! paper §IV.
//!
//! Two encoder heads *share* the VAE encoder's parameters (bound twice on
//! the same tape, so gradients from both heads accumulate — §IV-A's
//! "parameter updating is mirrored"), initialised from the trained
//! representation model. The Distance layer computes attribute-wise
//! squared-2-Wasserstein vectors `d⃗ = (μˢ-μᵗ)² + (σˢ-σᵗ)²`, concatenates
//! them, and a two-layer MLP classifies. Training minimises Eq. 4:
//! binary cross-entropy plus an attribute-averaged contrastive term with
//! margin `M`.

use crate::entity::IrTable;
use crate::latent::{self, LatentTable};
use crate::quant::QuantizedMatcher;
use crate::repr::ReprModel;
use crate::resilience::RunBudget;
use crate::CoreError;
use vaer_data::{LabeledPair, PairSet};
use vaer_linalg::Matrix;
use vaer_nn::schedule::minibatches;
use vaer_nn::{
    sharded_step_pooled, Adam, Graph, GraphPool, Mlp, MlpConfig, NnRng, Optimizer, ParamStore,
    SeedableRng,
};
use vaer_stats::metrics::PrF1;

/// Which components of the latent Gaussians feed the Distance layer —
/// the ablation axis for the paper's §IV-A design choice of comparing
/// full distributions rather than points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DistanceKind {
    /// Full squared 2-Wasserstein: `(μˢ-μᵗ)² + (σˢ-σᵗ)²` (the paper).
    #[default]
    W2,
    /// Means only (ignores uncertainty; a plain point-embedding Siamese).
    MuOnly,
    /// Standard deviations only (sanity-check lower bound).
    SigmaOnly,
    /// Variance-normalised mean distance, the symmetrised Mahalanobis
    /// alternative the paper mentions in §IV-A:
    /// `(μˢ-μᵗ)² / (½(σˢ² + σᵗ²) + ε)`.
    Mahalanobis,
}

/// Matcher hyper-parameters (paper Table III: margin `M = 0.5`, Adam at
/// `0.001`).
#[derive(Debug, Clone)]
pub struct MatcherConfig {
    /// Contrastive margin `M`.
    pub margin: f32,
    /// Weight of the contrastive term relative to cross-entropy.
    pub contrastive_weight: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Decoupled (AdamW-style) weight decay applied to the trained
    /// parameters. Small labelled sets (tens of pairs) drive the MLP to
    /// saturated, over-confident logits without it; decay keeps the
    /// decision surface smooth enough to generalise to the hard
    /// near-duplicate negatives produced by blocking.
    pub weight_decay: f32,
    /// Hidden width of the classification MLP.
    pub mlp_hidden: usize,
    /// Minimum number of labelled pairs before the encoder fine-tunes
    /// (the paper fine-tunes; below this threshold it stays frozen at its
    /// transferred values). Fine-tuning the encoder on a handful of pairs
    /// memorises them (the train/test gap observed on small noisy
    /// domains). `0` always fine-tunes; `usize::MAX` never does (the
    /// frozen-encoder ablation).
    pub fine_tune_min_pairs: usize,
    /// Which Gaussian components the Distance layer compares.
    pub distance: DistanceKind,
    /// RNG seed (shuffling + MLP init).
    pub seed: u64,
}

impl Default for MatcherConfig {
    fn default() -> Self {
        Self {
            margin: 0.5,
            contrastive_weight: 1.0,
            epochs: 40,
            batch_size: 32,
            learning_rate: 8e-3,
            weight_decay: 1e-3,
            mlp_hidden: 32,
            fine_tune_min_pairs: 400,
            distance: DistanceKind::W2,
            seed: 0x3A7C,
        }
    }
}

impl MatcherConfig {
    /// A fast configuration for unit tests.
    pub fn fast() -> Self {
        Self {
            epochs: 40,
            mlp_hidden: 16,
            learning_rate: 1e-2,
            ..Self::default()
        }
    }
}

/// Training examples for the matcher: row-aligned IR slices of both sides.
#[derive(Debug, Clone)]
pub struct PairExamples {
    /// Per-attribute IR matrices of the left tuples (`arity` matrices of
    /// `n x ir_dim`).
    pub left: Vec<Matrix>,
    /// Per-attribute IR matrices of the right tuples.
    pub right: Vec<Matrix>,
    /// Labels (1.0 = duplicate).
    pub labels: Vec<f32>,
}

impl PairExamples {
    /// Assembles examples from two IR tables and labelled pairs.
    ///
    /// # Panics
    /// Panics when the tables disagree on arity or a pair indexes past
    /// either table — callers own the pair set, so both are programming
    /// errors, not recoverable input conditions.
    pub fn build(a: &IrTable, b: &IrTable, pairs: &PairSet) -> Self {
        let idx: Vec<(usize, usize)> = pairs.pairs.iter().map(|p| (p.left, p.right)).collect();
        let mut examples = Self::build_unlabeled(a, b, &idx);
        examples.labels = pairs.pairs.iter().map(label_of).collect();
        examples
    }

    /// From explicit index pairs (used by the AL loop on unlabeled pools).
    ///
    /// # Panics
    /// Same contract as [`build`](Self::build): arity mismatch or
    /// out-of-range pairs panic.
    pub fn build_unlabeled(a: &IrTable, b: &IrTable, pairs: &[(usize, usize)]) -> Self {
        assert_eq!(a.arity, b.arity, "tables must share arity");
        let lefts: Vec<usize> = pairs.iter().map(|&(l, _)| l).collect();
        let rights: Vec<usize> = pairs.iter().map(|&(_, r)| r).collect();
        let left = (0..a.arity).map(|attr| a.attr_rows(&lefts, attr)).collect();
        let right = (0..b.arity)
            .map(|attr| b.attr_rows(&rights, attr))
            .collect();
        let labels = vec![0.0; pairs.len()];
        Self {
            left,
            right,
            labels,
        }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether there are no examples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Arity of the examples.
    pub fn arity(&self) -> usize {
        self.left.len()
    }

    fn select(&self, rows: &[usize]) -> PairExamples {
        PairExamples {
            left: self.left.iter().map(|m| m.select_rows(rows)).collect(),
            right: self.right.iter().map(|m| m.select_rows(rows)).collect(),
            labels: rows.iter().map(|&i| self.labels[i]).collect(),
        }
    }
}

/// Training inputs in the form the encoder lane needs: Distance-layer
/// features read from the latent caches while the encoder stays frozen,
/// raw IR pair examples when it fine-tunes.
enum PairFeatures {
    /// Distance-layer features from the frozen-encoder latent caches.
    Cached(Matrix),
    /// Raw IR pair examples for a fine-tuned encoder.
    Raw(PairExamples),
}

/// Candidate pairs [`SiameseMatcher::score_pairs`] scores per block:
/// bounds the transient feature matrix at `SCORE_BLOCK x
/// (arity·latent)` however many candidates blocking produced. Scoring
/// is row-independent, so the chunked result is bit-identical to a
/// single full-matrix pass.
pub const SCORE_BLOCK: usize = 512;

/// The trained Siamese matching model (the `γ` of the paper).
#[derive(Debug, Clone)]
pub struct SiameseMatcher {
    store: ParamStore,
    mlp: Mlp,
    arity: usize,
    latent_dim: usize,
    config: MatcherConfig,
    /// Whether training left the encoder at its transferred values (in
    /// which case latent-cache-derived features stay valid for scoring).
    frozen_encoder: bool,
}

const MLP_NAME: &str = "matcher.mlp";

/// Replaces non-finite feature values with 0.0 at the scoring boundary,
/// borrowing (allocation-free) on the all-finite fast path. Shared by
/// the f32 and int8 `predict_features` twins so both sanitize
/// identically — Link drops NaN candidates, but predict-only callers
/// must never see NaN probabilities either.
pub(crate) fn sanitize_features(features: &Matrix) -> std::borrow::Cow<'_, Matrix> {
    if features.as_slice().iter().all(|v| v.is_finite()) {
        std::borrow::Cow::Borrowed(features)
    } else {
        std::borrow::Cow::Owned(features.map(|v| if v.is_finite() { v } else { 0.0 }))
    }
}

/// Divergence rollbacks a matcher fit absorbs (each with halved learning
/// rate) before giving up with [`CoreError::Diverged`].
const MAX_MATCHER_ROLLBACKS: u32 = 5;

/// Epoch-start snapshot for the matcher's divergence guard: restoring it
/// rewinds parameters, optimizer moments, and the shuffling RNG, so the
/// retried epoch replays the same batches at the halved learning rate.
struct MatcherGuard {
    store: ParamStore,
    adam: Adam,
    rng: NnRng,
}

/// Checks one batch's loss/gradients for the matcher trainers; applies
/// the `matcher.grads` NaN failpoint. Returns the reason when the epoch
/// must be rolled back.
fn batch_divergence(
    epoch: usize,
    loss: f32,
    grads: &[(vaer_nn::ParamId, Matrix)],
) -> Option<String> {
    let mut loss = loss;
    if matches!(
        vaer_fault::check("matcher.grads"),
        Some(vaer_fault::Action::Nan)
    ) {
        loss = f32::NAN;
    }
    let mut grad_sq = 0.0f64;
    for (_, grad) in grads {
        for &v in grad.as_slice() {
            grad_sq += f64::from(v) * f64::from(v);
        }
    }
    if !loss.is_finite() || !grad_sq.is_finite() {
        Some(format!("non-finite loss/gradient in matcher epoch {epoch}"))
    } else {
        None
    }
}

/// Applies one rollback: restores the guard snapshot, halves the restored
/// optimizer's learning rate, and reports. Errors out past the retry
/// budget.
fn roll_back(
    store: &mut ParamStore,
    adam: &mut Adam,
    rng: &mut NnRng,
    guard: MatcherGuard,
    epoch: usize,
    rollbacks: u32,
    why: &str,
) -> Result<(), CoreError> {
    *store = guard.store;
    *adam = guard.adam;
    *rng = guard.rng;
    let lr = adam.learning_rate() * 0.5;
    adam.set_learning_rate(lr);
    crate::obs::handles().matcher_rollbacks.add(1);
    vaer_obs::event(
        "matcher.rollback",
        &[
            ("epoch", epoch.into()),
            ("reason", why.into()),
            ("lr", f64::from(lr).into()),
            ("rollbacks", rollbacks.into()),
        ],
    );
    if rollbacks > MAX_MATCHER_ROLLBACKS {
        return Err(CoreError::Diverged(format!(
            "{why}; gave up after {MAX_MATCHER_ROLLBACKS} rollbacks"
        )));
    }
    Ok(())
}

impl SiameseMatcher {
    /// Trains the matcher from a representation model and labelled pairs.
    ///
    /// The encoder parameters are *copied* from `repr` (the representation
    /// model itself stays frozen, as in Fig. 1's decoupling) and then
    /// fine-tuned together with the fresh MLP once `examples` reaches
    /// [`MatcherConfig::fine_tune_min_pairs`]; below that only the MLP
    /// trains.
    ///
    /// # Errors
    /// [`CoreError::InsufficientData`] when `examples` is empty or
    /// single-class.
    pub fn train(
        repr: &ReprModel,
        examples: &PairExamples,
        config: &MatcherConfig,
    ) -> Result<Self, CoreError> {
        check_labels(&examples.labels)?;
        let (mut matcher, mut rng) = Self::init(repr, examples.arity(), examples.len(), config);
        let features = if matcher.frozen_encoder {
            PairFeatures::Cached(matcher.distance_features(examples))
        } else {
            PairFeatures::Raw(examples.clone())
        };
        matcher.fit(
            &features,
            &examples.labels,
            &mut rng,
            &RunBudget::unlimited(),
        )?;
        Ok(matcher)
    }

    /// Trains on `labelled` `(a_row, b_row)` pairs of two tables, under
    /// `budget` (probed every epoch, divergence-guard retries included),
    /// on the features [`pair_features`](Self::pair_features) builds for
    /// the lane the labelled-set size selects. Both lanes produce the
    /// matcher [`train`](Self::train) would on the same pairs.
    ///
    /// # Errors
    /// [`CoreError::InsufficientData`] on empty/single-class labels;
    /// [`CoreError::Cancelled`] / [`CoreError::DeadlineExceeded`] when the
    /// budget trips.
    pub(crate) fn train_labelled(
        repr: &ReprModel,
        irs: (&IrTable, &IrTable),
        lats: (&LatentTable, &LatentTable),
        labelled: &PairSet,
        config: &MatcherConfig,
        budget: &RunBudget,
    ) -> Result<Self, CoreError> {
        let labels: Vec<f32> = labelled.pairs.iter().map(label_of).collect();
        check_labels(&labels)?;
        let pairs: Vec<(usize, usize)> = labelled.pairs.iter().map(|p| (p.left, p.right)).collect();
        let (mut matcher, mut rng) = Self::init(repr, irs.0.arity, labels.len(), config);
        let features = matcher.pair_features(irs, lats, &pairs);
        matcher.fit(&features, &labels, &mut rng, budget)?;
        Ok(matcher)
    }

    /// The training-lane decision: inputs for `(a_row, b_row)` pairs of
    /// two tables — Distance-layer features from the latent caches `lats`
    /// while this matcher's encoder stays frozen, raw pair examples over
    /// the IRs `irs` when it fine-tunes.
    fn pair_features(
        &self,
        irs: (&IrTable, &IrTable),
        lats: (&LatentTable, &LatentTable),
        pairs: &[(usize, usize)],
    ) -> PairFeatures {
        if self.frozen_encoder {
            PairFeatures::Cached(latent::distance_features(
                self.config.distance,
                lats.0,
                lats.1,
                pairs,
            ))
        } else {
            PairFeatures::Raw(PairExamples::build_unlabeled(irs.0, irs.1, pairs))
        }
    }

    /// Duplicate probabilities for `(a_row, b_row)` pairs of two tables
    /// from latent caches `lats` of this matcher's encoder (see
    /// [`tuned_encoder`](Self::tuned_encoder)) — the one scoring body of
    /// resolution, `Pipeline::predict` and the active learner's pool.
    /// Each [`SCORE_BLOCK`] of pairs becomes Distance-layer features,
    /// scored through `int8` when given, else the f32 MLP; `budget` is
    /// probed once per block, so cancellation surfaces mid-Score.
    ///
    /// # Errors
    /// [`CoreError::Cancelled`] / [`CoreError::DeadlineExceeded`] when the
    /// budget trips.
    pub(crate) fn score_pairs(
        &self,
        lats: (&LatentTable, &LatentTable),
        pairs: &[(usize, usize)],
        int8: Option<&QuantizedMatcher>,
        budget: &RunBudget,
    ) -> Result<Vec<f32>, CoreError> {
        let mut probs = Vec::with_capacity(pairs.len());
        for chunk in pairs.chunks(SCORE_BLOCK) {
            budget.probe("exec.score")?;
            let features = latent::distance_features(self.config.distance, lats.0, lats.1, chunk);
            probs.extend(match int8 {
                Some(q) => q.predict_features(&features),
                None => self.mlp_probs(&features),
            });
        }
        Ok(probs)
    }

    /// The encoder scoring reads through once it fine-tuned: `repr`'s
    /// configuration over this matcher's store. `None` while frozen,
    /// when `repr`'s own latent caches serve scoring.
    pub(crate) fn tuned_encoder(&self, repr: &ReprModel) -> Option<ReprModel> {
        (!self.frozen_encoder)
            .then(|| ReprModel::from_parts(repr.config().clone(), self.store.clone()))
    }

    /// The int8 inference twin, calibrated on the cached features of the
    /// `calibration` pairs (a frozen fit passes its own training pairs:
    /// deterministic, and drawn from the distance-feature distribution
    /// resolution will score). `None` once the encoder fine-tuned: a twin
    /// on the tuned caches missed the int8 parity envelope.
    ///
    /// # Errors
    /// Same as [`quantized`](Self::quantized) on the frozen lane.
    pub(crate) fn int8_twin(
        &self,
        lats: (&LatentTable, &LatentTable),
        calibration: &PairSet,
    ) -> Result<Option<QuantizedMatcher>, CoreError> {
        if !self.frozen_encoder {
            return Ok(None);
        }
        let pairs: Vec<(usize, usize)> = calibration
            .pairs
            .iter()
            .map(|p| (p.left, p.right))
            .collect();
        let features = latent::distance_features(self.config.distance, lats.0, lats.1, &pairs);
        self.quantized(&features).map(Some)
    }

    /// Whether a matcher trained with `config` on `n_pairs` labelled
    /// pairs keeps the encoder frozen — the predicate that picks the
    /// training lane.
    fn frozen_for(config: &MatcherConfig, n_pairs: usize) -> bool {
        n_pairs < config.fine_tune_min_pairs
    }

    /// Whether this matcher's encoder is still the representation
    /// model's (so latent-cache features remain valid for it).
    pub fn encoder_frozen(&self) -> bool {
        self.frozen_encoder
    }

    fn init(
        repr: &ReprModel,
        arity: usize,
        n_pairs: usize,
        config: &MatcherConfig,
    ) -> (Self, NnRng) {
        let latent_dim = repr.config().latent_dim;
        let mut store = repr.store().clone();
        let mut rng = NnRng::seed_from_u64(config.seed);
        let mlp = Mlp::new(
            &mut store,
            MLP_NAME,
            &MlpConfig::relu(vec![arity * latent_dim, config.mlp_hidden, 1]),
            &mut rng,
        );
        let matcher = Self {
            store,
            mlp,
            arity,
            latent_dim,
            config: config.clone(),
            frozen_encoder: Self::frozen_for(config, n_pairs),
        };
        (matcher, rng)
    }

    /// Minimum optimisation budget: small labelled sets (tiny scaled
    /// domains, early AL iterations) would otherwise see only a handful
    /// of gradient steps.
    fn training_epochs(&self, n_examples: usize) -> usize {
        let batches_per_epoch = n_examples.div_ceil(self.config.batch_size).max(1);
        let min_steps = 600usize;
        self.config
            .epochs
            .max(min_steps.div_ceil(batches_per_epoch))
    }

    /// The guarded epoch loop of both lanes, over `labels` and the
    /// matching `features` (a `Raw` set's own label column is ignored).
    /// On cached features the encoder is fixed, so only the MLP trains
    /// on minibatch cross-entropy — exactly the cost profile Fig. 1's
    /// decoupling promises; on raw examples the shared encoder heads
    /// fine-tune under the full Eq. 4 loss. Every epoch probes `budget`
    /// (divergence-guard retries included) and snapshots the state a
    /// rollback restores.
    fn fit(
        &mut self,
        features: &PairFeatures,
        labels: &[f32],
        rng: &mut NnRng,
        budget: &RunBudget,
    ) -> Result<(), CoreError> {
        let _span = vaer_obs::span("matcher.fit");
        let mut adam =
            Adam::with_rate(self.config.learning_rate).with_weight_decay(self.config.weight_decay);
        let epochs = self.training_epochs(labels.len());
        let stride = epoch_event_stride(epochs);
        let labels = Matrix::from_vec(labels.len(), 1, labels.to_vec());
        let mut tapes = GraphPool::new();
        let mut epoch = 0usize;
        let mut rollbacks = 0u32;
        while epoch < epochs {
            // Probed every epoch, including divergence-guard retries
            // (`continue` re-enters here): a flapping trainer consumes its
            // run budget instead of looping past it.
            budget.probe("matcher.fit")?;
            let guard = MatcherGuard {
                store: self.store.clone(),
                adam: adam.clone(),
                rng: rng.clone(),
            };
            let mut epoch_loss = 0.0f32;
            let mut epoch_bce = 0.0f32;
            let mut epoch_con = 0.0f32;
            let mut batches = 0usize;
            let mut diverged: Option<String> = None;
            for batch in minibatches(labels.rows(), self.config.batch_size, rng) {
                let y = labels.select_rows(&batch);
                let (step, bce, contrastive) = match features {
                    PairFeatures::Cached(x) => {
                        let x = x.select_rows(&batch);
                        let step = sharded_step_pooled(&mut tapes, batch.len(), |g, rows| {
                            let xt = g.input_rows(&x, rows.start, rows.end);
                            let logits = self.mlp.forward(g, &self.store, xt);
                            g.bce_with_logits_rows(logits, &y, rows.start, rows.end)
                        });
                        // The whole loss is cross-entropy: the contrastive
                        // term has no trainable inputs here.
                        let bce = step.loss;
                        (step, bce, 0.0)
                    }
                    PairFeatures::Raw(examples) => {
                        self.tape_step(&mut tapes, &examples.select(&batch), &y)
                    }
                };
                if let Some(why) = batch_divergence(epoch, step.loss, &step.grads) {
                    diverged = Some(why);
                    break;
                }
                epoch_loss += step.loss;
                epoch_bce += bce;
                epoch_con += contrastive;
                batches += 1;
                adam.step(&mut self.store, &step.grads);
            }
            if let Some(why) = diverged {
                rollbacks += 1;
                roll_back(
                    &mut self.store,
                    &mut adam,
                    rng,
                    guard,
                    epoch,
                    rollbacks,
                    &why,
                )?;
                continue;
            }
            if vaer_obs::enabled() && (epoch.is_multiple_of(stride) || epoch + 1 == epochs) {
                let denom = batches.max(1) as f32;
                vaer_obs::event(
                    "matcher.epoch",
                    &[
                        ("epoch", epoch.into()),
                        ("loss", (epoch_loss / denom).into()),
                        ("bce", (epoch_bce / denom).into()),
                        ("contrastive", (epoch_con / denom).into()),
                        ("fine_tune", (!self.frozen_encoder).into()),
                    ],
                );
            }
            epoch += 1;
        }
        Ok(())
    }

    /// One fine-tuning step over `batch` with targets `y`: the sharded
    /// Eq. 4 gradient plus its `(bce, contrastive)` decomposition, merged
    /// with the same shard-size weights the step applies to the loss and
    /// read off the tape only when telemetry is on.
    fn tape_step(
        &self,
        tapes: &mut GraphPool,
        batch: &PairExamples,
        y: &Matrix,
    ) -> (vaer_nn::ShardedStep, f32, f32) {
        let batch_len = batch.len();
        let parts = std::sync::Mutex::new((0.0f64, 0.0f64));
        let step = sharded_step_pooled(tapes, batch_len, |g, rows| {
            let (loss, bce, contrastive) = self.loss_graph(g, batch, y, rows.start, rows.end);
            if vaer_obs::enabled() {
                let w = f64::from(rows.len() as f32 / batch_len.max(1) as f32);
                let mut p = parts.lock().expect("loss parts poisoned"); // vaer-lint: allow(panic) -- poisoning implies a worker already panicked; that panic propagates at join
                p.0 += w * f64::from(g.value(bce).get(0, 0));
                p.1 += w * f64::from(g.value(contrastive).get(0, 0));
            }
            loss
        });
        let (bce, contrastive) = parts.into_inner().expect("loss parts poisoned"); // vaer-lint: allow(panic) -- poisoning implies a worker already panicked; that panic propagates at join
        (step, bce as f32, contrastive as f32)
    }

    /// Concatenated Distance-layer features for a batch, computed outside
    /// any gradient tape (used when the encoder is frozen).
    fn distance_features(&self, examples: &PairExamples) -> Matrix {
        let mut g = Graph::new();
        let mut parts = Vec::with_capacity(self.arity);
        for attr in 0..self.arity {
            let xs = g.input_ref(&examples.left[attr]);
            let xt = g.input_ref(&examples.right[attr]);
            let d = self.distance_vector(&mut g, xs, xt);
            parts.push(d);
        }
        let cat = g.concat_cols(&parts);
        g.value(cat).clone()
    }

    /// The Distance layer (§IV-A): per-attribute latent distance vector
    /// according to the configured [`DistanceKind`].
    fn distance_vector(
        &self,
        g: &mut Graph,
        xs: vaer_nn::Tensor,
        xt: vaer_nn::Tensor,
    ) -> vaer_nn::Tensor {
        let (mu_s, sig_s) = ReprModel::encoder_forward(g, &self.store, xs);
        let (mu_t, sig_t) = ReprModel::encoder_forward(g, &self.store, xt);
        let mu_diff = g.sub(mu_s, mu_t);
        let mu_sq = g.square(mu_diff);
        let sig_diff = g.sub(sig_s, sig_t);
        let sig_sq = g.square(sig_diff);
        match self.config.distance {
            DistanceKind::W2 => g.add(mu_sq, sig_sq),
            DistanceKind::MuOnly => mu_sq,
            DistanceKind::SigmaOnly => sig_sq,
            DistanceKind::Mahalanobis => {
                let var_s = g.square(sig_s);
                let var_t = g.square(sig_t);
                let var_sum = g.add(var_s, var_t);
                let var = g.scale(var_sum, 0.5);
                let var = g.add_scalar(var, 1e-4);
                g.div(mu_sq, var)
            }
        }
    }

    /// Builds the Eq. 4 loss for rows `start..end` of `batch` against
    /// targets `y` on a tape; returns `(loss, bce, contrastive)` so the
    /// trainer can report the decomposition (forward values are eager, so
    /// the components are free to read once built).
    fn loss_graph(
        &self,
        g: &mut Graph,
        batch: &PairExamples,
        y: &Matrix,
        start: usize,
        end: usize,
    ) -> (vaer_nn::Tensor, vaer_nn::Tensor, vaer_nn::Tensor) {
        let n = end - start;
        let x = g.input_rows(y, start, end);
        let ones = g.input_filled(n, 1, 1.0);
        let one_minus_x = g.sub(ones, x);
        let mut dist_parts = Vec::with_capacity(self.arity);
        let mut contrastive_terms = Vec::with_capacity(self.arity);
        for attr in 0..self.arity {
            let xs = g.input_rows(&batch.left[attr], start, end);
            let xt = g.input_rows(&batch.right[attr], start, end);
            let d_vec = self.distance_vector(g, xs, xt);
            dist_parts.push(d_vec);
            // Contrastive term on the scalar W₂² of this attribute.
            let w2 = g.row_sum(d_vec); // n x 1
            let pos = g.mul(x, w2);
            let neg_margin = g.scale(w2, -1.0);
            let neg_margin = g.add_scalar(neg_margin, self.config.margin);
            let hinge = g.relu(neg_margin);
            let neg = g.mul(one_minus_x, hinge);
            let term = g.add(pos, neg);
            contrastive_terms.push(g.mean_all(term));
        }
        let dist = g.concat_cols(&dist_parts); // n x (m·k)
        let logits = self.mlp.forward(g, &self.store, dist);
        let bce = g.bce_with_logits_rows(logits, y, start, end);
        let mut contrastive = contrastive_terms[0];
        for &t in &contrastive_terms[1..] {
            contrastive = g.add(contrastive, t);
        }
        let contrastive = g.scale(
            contrastive,
            self.config.contrastive_weight / self.arity as f32,
        );
        let loss = g.add(bce, contrastive);
        (loss, bce, contrastive)
    }

    /// Predicted duplicate probabilities for a batch of pairs.
    ///
    /// Pairs are scored independently, so large batches (blocking
    /// candidates, AL pools) are split into contiguous shards on the
    /// [`vaer_linalg::runtime`] worker pool; each pair's probability is
    /// bit-identical at any thread count.
    pub fn predict(&self, examples: &PairExamples) -> Vec<f32> {
        if examples.is_empty() {
            return Vec::new();
        }
        const MIN_PAIRS_PER_SHARD: usize = 64;
        let shards =
            vaer_linalg::runtime::map_shards(examples.len(), MIN_PAIRS_PER_SHARD, |rows| {
                let mut g = Graph::new();
                let mut dist_parts = Vec::with_capacity(self.arity);
                for attr in 0..self.arity {
                    let xs = g.input_rows(&examples.left[attr], rows.start, rows.end);
                    let xt = g.input_rows(&examples.right[attr], rows.start, rows.end);
                    let d_vec = self.distance_vector(&mut g, xs, xt);
                    dist_parts.push(d_vec);
                }
                let dist = g.concat_cols(&dist_parts);
                let logits = self.mlp.forward(&mut g, &self.store, dist);
                let probs = g.sigmoid(logits);
                g.value(probs).as_slice().to_vec()
            });
        shards.into_iter().flatten().collect()
    }

    /// Predicted duplicate probabilities from precomputed Distance-layer
    /// features (`n x (arity·latent)`, e.g. from
    /// [`crate::latent::distance_features`]) — the latent-cache scoring
    /// path, bit-identical to [`predict`](Self::predict) on the same
    /// pairs.
    ///
    /// # Panics
    /// Panics if the matcher fine-tuned its encoder (cached features are
    /// stale for it — use [`predict`](Self::predict)) or on a feature
    /// width mismatch.
    pub fn predict_features(&self, features: &Matrix) -> Vec<f32> {
        assert!(
            self.frozen_encoder,
            "cached features are invalid for a fine-tuned encoder"
        );
        self.mlp_probs(features)
    }

    /// The f32 MLP pass over Distance-layer features built from caches of
    /// this matcher's own encoder, whichever lane trained it.
    ///
    /// # Panics
    /// Panics on a feature width mismatch.
    pub(crate) fn mlp_probs(&self, features: &Matrix) -> Vec<f32> {
        assert_eq!(
            features.cols(),
            self.arity * self.latent_dim,
            "feature width mismatch"
        );
        if features.rows() == 0 {
            return Vec::new();
        }
        // Degenerate upstream rows (e.g. corrupted IRs) must not leak
        // NaN probabilities to predict-only callers; the scan is a
        // no-op on the finite fast path.
        let features = sanitize_features(features);
        let mut g = Graph::new();
        let xt = g.input_ref(features.as_ref());
        let logits = self.mlp.forward(&mut g, &self.store, xt);
        let probs = g.sigmoid(logits);
        g.value(probs).as_slice().to_vec()
    }

    /// Builds the int8 inference twin of this matcher
    /// ([`QuantizedMatcher`](crate::quant::QuantizedMatcher)) by
    /// quantizing the MLP weights per output channel and calibrating
    /// per-layer activation scales from an f32 forward pass over
    /// `calibration` (typically the matcher's own training features).
    ///
    /// Errors when the encoder was fine-tuned (the quantized twin scores
    /// cached distance features, which are stale for a fine-tuned
    /// encoder), on a feature width mismatch, or on an empty
    /// calibration set.
    pub fn quantized(
        &self,
        calibration: &Matrix,
    ) -> Result<crate::quant::QuantizedMatcher, CoreError> {
        if !self.frozen_encoder {
            return Err(CoreError::BadInput(
                "quantized scoring requires a frozen encoder: cached distance features are stale after fine-tuning".into(),
            ));
        }
        if calibration.cols() != self.arity * self.latent_dim {
            return Err(CoreError::BadInput(format!(
                "calibration width {} != arity*latent {}",
                calibration.cols(),
                self.arity * self.latent_dim
            )));
        }
        let ids = self.mlp.param_ids();
        let layers: Vec<(&Matrix, &Matrix)> = ids
            .chunks_exact(2)
            .map(|pair| (self.store.get(pair[0]), self.store.get(pair[1])))
            .collect();
        crate::quant::QuantizedMatcher::calibrate(&layers, calibration, self.arity, self.latent_dim)
    }

    /// Evaluates P/R/F1 at threshold 0.5 against the examples' labels.
    pub fn evaluate(&self, examples: &PairExamples) -> PrF1 {
        let probs = self.predict(examples);
        let predicted: Vec<bool> = probs.iter().map(|&p| p > 0.5).collect();
        let actual: Vec<bool> = examples.labels.iter().map(|&l| l > 0.5).collect();
        PrF1::from_labels(&predicted, &actual)
    }

    /// Picks the decision threshold maximising F1 on a labelled validation
    /// set (sweeping the midpoints between consecutive predicted
    /// probabilities). Returns `(threshold, f1_at_threshold)`; `(0.5, 0)`
    /// for an empty or single-class validation set.
    pub fn calibrate_threshold(&self, validation: &PairExamples) -> (f32, f32) {
        let probs = self.predict(validation);
        if probs.is_empty() {
            return (0.5, 0.0);
        }
        let mut scored: Vec<(f32, bool)> = probs
            .iter()
            .zip(validation.labels.iter())
            .map(|(&p, &l)| (p, l > 0.5))
            .collect();
        scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let total_pos = scored.iter().filter(|&&(_, l)| l).count();
        if total_pos == 0 || total_pos == scored.len() {
            return (0.5, 0.0);
        }
        let mut best = (0.5f32, 0.0f32);
        // Threshold candidates: below everything, then each midpoint.
        let mut candidates = vec![scored[0].0 - 1e-3];
        for w in scored.windows(2) {
            candidates.push(0.5 * (w[0].0 + w[1].0));
        }
        for t in candidates {
            let mut tp = 0;
            let mut fp = 0;
            for &(p, l) in &scored {
                if p > t {
                    if l {
                        tp += 1;
                    } else {
                        fp += 1;
                    }
                }
            }
            let fn_ = total_pos - tp;
            let m = PrF1::from_counts(tp, fp, fn_, 0);
            if m.f1 > best.1 {
                best = (t, m.f1);
            }
        }
        best
    }

    /// Mean absolute first-layer MLP weight per attribute block — a cheap
    /// interpretability probe of which attributes the matcher relies on
    /// (the "attribute-level weighted matching schemes" §III-A anticipates
    /// fall out of the learned classifier for free).
    ///
    /// Returns one non-negative score per attribute, normalised to sum
    /// to 1 (uniform if the first layer is all zeros).
    pub fn attribute_importance(&self) -> Vec<f32> {
        let first = self
            .mlp
            .param_ids()
            .first()
            .copied()
            .expect("MLP has at least one layer"); // vaer-lint: allow(panic) -- the MLP constructor always registers at least one layer
        let w = self.store.get(first); // (arity·latent) x hidden
        let mut scores = vec![0.0f32; self.arity];
        for (i, score) in scores.iter_mut().enumerate() {
            let lo = i * self.latent_dim;
            let hi = lo + self.latent_dim;
            for row in lo..hi {
                *score += w.row(row).iter().map(|v| v.abs()).sum::<f32>();
            }
        }
        let total: f32 = scores.iter().sum();
        if total > f32::EPSILON {
            for s in &mut scores {
                *s /= total;
            }
        } else {
            scores.fill(1.0 / self.arity as f32);
        }
        scores
    }

    /// The fine-tuned parameter store (encoder + MLP).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Latent dimensionality per attribute.
    pub fn latent_dim(&self) -> usize {
        self.latent_dim
    }

    /// Arity the matcher was trained for.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The configuration used at training time.
    pub fn config(&self) -> &MatcherConfig {
        &self.config
    }
}

/// How often the matcher trainers emit a `matcher.epoch` event: at most
/// ~50 per fit (the implicit 600-step minimum budget can push tiny
/// labelled sets to hundreds of epochs, and the AL loop refits every
/// round).
fn epoch_event_stride(epochs: usize) -> usize {
    epochs.div_ceil(50).max(1)
}

/// A labelled pair's training target (1.0 = duplicate).
fn label_of(pair: &LabeledPair) -> f32 {
    if pair.is_match {
        1.0
    } else {
        0.0
    }
}

/// Validates that a label vector is non-empty and two-class.
fn check_labels(labels: &[f32]) -> Result<(), CoreError> {
    if labels.is_empty() {
        return Err(CoreError::InsufficientData("no training pairs".into()));
    }
    let has_pos = labels.iter().any(|&l| l > 0.5);
    let has_neg = labels.iter().any(|&l| l < 0.5);
    if !has_pos || !has_neg {
        return Err(CoreError::InsufficientData(
            "training pairs must contain both classes".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repr::ReprConfig;
    use vaer_linalg::XorShiftRng;

    /// Builds a toy world: tuples are 2-attribute entities whose IRs are
    /// cluster points; duplicates share a cluster.
    fn toy_world(seed: u64) -> (ReprModel, IrTable, IrTable, PairSet, PairSet) {
        let ir_dim = 8;
        let n_entities = 24;
        let mut rng = XorShiftRng::new(seed);
        let mut centers = Vec::new();
        for _ in 0..n_entities {
            let c: Vec<f32> = (0..ir_dim).map(|_| rng.gaussian()).collect();
            centers.push(c);
        }
        let jitter = |c: &[f32], rng: &mut XorShiftRng| -> Vec<f32> {
            c.iter().map(|&x| x + 0.05 * rng.gaussian()).collect()
        };
        // Each entity: 2 attributes with distinct cluster centres (offset).
        let mut a_rows = Vec::new();
        let mut b_rows = Vec::new();
        for c in &centers {
            let attr2: Vec<f32> = c.iter().map(|&x| -x).collect();
            a_rows.push(jitter(c, &mut rng));
            a_rows.push(jitter(&attr2, &mut rng));
            b_rows.push(jitter(c, &mut rng));
            b_rows.push(jitter(&attr2, &mut rng));
        }
        let flat = |rows: &Vec<Vec<f32>>| {
            Matrix::from_vec(rows.len(), ir_dim, rows.iter().flatten().copied().collect())
        };
        let a = IrTable::new(2, flat(&a_rows));
        let b = IrTable::new(2, flat(&b_rows));
        // Train the repr model on all IRs.
        let all = a.irs.vconcat(&b.irs);
        let (repr, _) = ReprModel::train(&all, &ReprConfig::fast(ir_dim)).unwrap();
        // Pairs: (i, i) duplicates, (i, i+1) negatives.
        let mut train = PairSet::new();
        let mut test = PairSet::new();
        for i in 0..n_entities {
            let pos = LabeledPair {
                left: i,
                right: i,
                is_match: true,
            };
            let neg = LabeledPair {
                left: i,
                right: (i + 1) % n_entities,
                is_match: false,
            };
            if i % 4 == 0 {
                test.pairs.push(pos);
                test.pairs.push(neg);
            } else {
                train.pairs.push(pos);
                train.pairs.push(neg);
            }
        }
        (repr, a, b, train, test)
    }

    #[test]
    fn matcher_learns_toy_duplicates() {
        let (repr, a, b, train, test) = toy_world(1);
        let examples = PairExamples::build(&a, &b, &train);
        let matcher = SiameseMatcher::train(&repr, &examples, &MatcherConfig::fast()).unwrap();
        let report = matcher.evaluate(&PairExamples::build(&a, &b, &test));
        assert!(report.f1 > 0.8, "F1 = {}", report.f1);
    }

    #[test]
    fn predictions_are_probabilities() {
        let (repr, a, b, train, _) = toy_world(2);
        let examples = PairExamples::build(&a, &b, &train);
        let matcher = SiameseMatcher::train(&repr, &examples, &MatcherConfig::fast()).unwrap();
        let probs = matcher.predict(&examples);
        assert_eq!(probs.len(), examples.len());
        assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
        assert!(matcher
            .predict(&PairExamples::build_unlabeled(&a, &b, &[]))
            .is_empty());
    }

    #[test]
    fn rejects_degenerate_training_sets() {
        let (repr, a, b, mut train, _) = toy_world(3);
        // Empty.
        let empty = PairExamples::build(&a, &b, &PairSet::new());
        assert!(matches!(
            SiameseMatcher::train(&repr, &empty, &MatcherConfig::fast()),
            Err(CoreError::InsufficientData(_))
        ));
        // Single class.
        train.pairs.retain(|p| p.is_match);
        let one_class = PairExamples::build(&a, &b, &train);
        assert!(SiameseMatcher::train(&repr, &one_class, &MatcherConfig::fast()).is_err());
    }

    #[test]
    fn frozen_encoder_keeps_weights() {
        let (repr, a, b, train, _) = toy_world(4);
        let examples = PairExamples::build(&a, &b, &train);
        let cfg = MatcherConfig {
            fine_tune_min_pairs: usize::MAX,
            epochs: 4,
            ..MatcherConfig::fast()
        };
        let matcher = SiameseMatcher::train(&repr, &examples, &cfg).unwrap();
        let orig = repr.store();
        let tuned = matcher.store();
        let name = format!("{}.w", crate::repr::ENC_HIDDEN);
        let a_id = orig.find(&name).unwrap();
        let b_id = tuned.find(&name).unwrap();
        assert_eq!(orig.get(a_id), tuned.get(b_id), "frozen encoder changed");
        // And fine-tuning does change them.
        let cfg2 = MatcherConfig {
            fine_tune_min_pairs: 0,
            epochs: 4,
            ..MatcherConfig::fast()
        };
        let tuned2 = SiameseMatcher::train(&repr, &examples, &cfg2).unwrap();
        let c_id = tuned2.store().find(&name).unwrap();
        assert_ne!(
            orig.get(a_id),
            tuned2.store().get(c_id),
            "fine-tuned encoder unchanged"
        );
    }

    #[test]
    fn mahalanobis_distance_also_learns() {
        let (repr, a, b, train, test) = toy_world(6);
        let examples = PairExamples::build(&a, &b, &train);
        let cfg = MatcherConfig {
            distance: DistanceKind::Mahalanobis,
            ..MatcherConfig::fast()
        };
        let matcher = SiameseMatcher::train(&repr, &examples, &cfg).unwrap();
        let report = matcher.evaluate(&PairExamples::build(&a, &b, &test));
        assert!(report.f1 > 0.7, "Mahalanobis F1 = {}", report.f1);
    }

    #[test]
    fn threshold_calibration_improves_or_matches_default() {
        let (repr, a, b, train, test) = toy_world(8);
        let examples = PairExamples::build(&a, &b, &train);
        let matcher = SiameseMatcher::train(&repr, &examples, &MatcherConfig::fast()).unwrap();
        let test_examples = PairExamples::build(&a, &b, &test);
        let (t, f1_at_t) = matcher.calibrate_threshold(&examples);
        assert!((0.0..=1.0).contains(&t) || t < 0.0, "threshold {t}");
        // Calibrated F1 on the calibration set beats or matches the 0.5 cut.
        let default_f1 = matcher.evaluate(&examples).f1;
        assert!(f1_at_t + 1e-5 >= default_f1, "{f1_at_t} < {default_f1}");
        // And the degenerate cases do not panic.
        let empty = PairExamples::build_unlabeled(&a, &b, &[]);
        assert_eq!(matcher.calibrate_threshold(&empty), (0.5, 0.0));
        let _ = test_examples;
    }

    #[test]
    fn attribute_importance_is_a_distribution() {
        let (repr, a, b, train, _) = toy_world(7);
        let examples = PairExamples::build(&a, &b, &train);
        let matcher = SiameseMatcher::train(&repr, &examples, &MatcherConfig::fast()).unwrap();
        let imp = matcher.attribute_importance();
        assert_eq!(imp.len(), 2);
        assert!(imp.iter().all(|&x| x >= 0.0));
        assert!((imp.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn fine_tuning_helps_on_misaligned_representations() {
        // Train the repr model on one distribution, then give the matcher
        // pairs whose similarity signal is weak in the unsupervised space;
        // fine-tuning should not be worse than the frozen encoder.
        let (repr, a, b, train, test) = toy_world(5);
        let examples = PairExamples::build(&a, &b, &train);
        let test_examples = PairExamples::build(&a, &b, &test);
        let frozen = SiameseMatcher::train(
            &repr,
            &examples,
            &MatcherConfig {
                fine_tune_min_pairs: usize::MAX,
                ..MatcherConfig::fast()
            },
        )
        .unwrap()
        .evaluate(&test_examples);
        let tuned = SiameseMatcher::train(
            &repr,
            &examples,
            &MatcherConfig {
                fine_tune_min_pairs: 0,
                ..MatcherConfig::fast()
            },
        )
        .unwrap()
        .evaluate(&test_examples);
        assert!(
            tuned.f1 + 0.1 >= frozen.f1,
            "tuned {} vs frozen {}",
            tuned.f1,
            frozen.f1
        );
    }

    #[test]
    fn divergence_guard_rolls_back_and_eventually_errors() {
        let (repr, a, b, train, _) = toy_world(9);
        let examples = PairExamples::build(&a, &b, &train);
        let _guard = vaer_fault::test_lock();
        // Persistent NaN: every epoch rolls back until the budget runs out.
        vaer_fault::configure_on_this_thread("matcher.grads=nan").unwrap();
        let err = SiameseMatcher::train(&repr, &examples, &MatcherConfig::fast());
        vaer_fault::clear();
        assert!(
            matches!(err, Err(CoreError::Diverged(_))),
            "expected Diverged, got {:?}",
            err.map(|_| "ok")
        );
        // One poisoned batch is absorbed by a single rollback.
        vaer_fault::configure_on_this_thread("matcher.grads=nan@1").unwrap();
        let recovered = SiameseMatcher::train(&repr, &examples, &MatcherConfig::fast());
        vaer_fault::clear();
        assert!(recovered.is_ok(), "one transient NaN must be survivable");
    }
}
