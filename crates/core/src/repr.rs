//! Unsupervised entity representation learning — the VAE of paper §III.
//!
//! One VAE with parameters *shared across attributes* (§III-A, footnote 1):
//! every attribute value's IR is a training row, and at inference each
//! attribute of a tuple is encoded independently into `N(μ, σ)`. The
//! architecture follows Fig. 2 and Table III:
//!
//! ```text
//! IR (d) ──Dense──ReLU──► hidden ──┬─Dense─► μ (k)
//!                                  └─Dense─► log σ² (k)
//! z = μ + σ⊙ε  ──Dense──ReLU──► hidden ──Dense──► ÎR (d)
//! ```
//!
//! trained to maximise Eq. 1 / minimise Eq. 2: reconstruction error plus
//! `KL(q(z|IR) ‖ N(0, I))`.

use crate::checkpoint::{put_blob, put_f32_vec, put_rng_state, CheckpointStore, Cur};
use crate::resilience::RunBudget;
use crate::CoreError;
use vaer_linalg::Matrix;
use vaer_nn::schedule::minibatches;
use vaer_nn::{
    sharded_step_pooled, Adam, Dense, Graph, GraphPool, Initializer, NnRng, Optimizer, ParamStore,
    SeedableRng, Tensor,
};
use vaer_stats::gaussian::DiagGaussian;

/// Representation-model hyper-parameters (Table III, scaled down by
/// default — see DESIGN.md).
#[derive(Debug, Clone)]
pub struct ReprConfig {
    /// IR input dimensionality `d`.
    pub ir_dim: usize,
    /// Encoder/decoder hidden width (paper: 200).
    pub hidden_dim: usize,
    /// Latent dimensionality `k` (paper: 100).
    pub latent_dim: usize,
    /// Training epochs over the IR corpus.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate (paper: 0.001).
    pub learning_rate: f32,
    /// Weight of the KL term (β; 1.0 = the plain VAE of the paper).
    pub kl_weight: f32,
    /// RNG seed.
    pub seed: u64,
    /// Divergence guard: an epoch whose mean gradient norm exceeds
    /// `grad_spike_factor × max(prev_epoch_norm, 1)` is rolled back and
    /// retried with halved learning rate.
    pub grad_spike_factor: f32,
    /// Divergence rollbacks allowed before training fails with
    /// [`CoreError::Diverged`].
    pub max_rollbacks: u32,
}

impl Default for ReprConfig {
    fn default() -> Self {
        Self {
            ir_dim: 64,
            hidden_dim: 96,
            latent_dim: 32,
            epochs: 12,
            batch_size: 64,
            learning_rate: 1e-3,
            kl_weight: 1.0,
            seed: 0xAE01,
            grad_spike_factor: 100.0,
            max_rollbacks: 5,
        }
    }
}

impl ReprConfig {
    /// A fast configuration for unit tests.
    pub fn fast(ir_dim: usize) -> Self {
        Self {
            ir_dim,
            hidden_dim: 32,
            latent_dim: 8,
            epochs: 6,
            batch_size: 32,
            ..Self::default()
        }
    }
}

/// Per-epoch training statistics.
///
/// All series are computed unconditionally (they are cheap reads of
/// values the tape already holds); when [`vaer_obs`] is enabled the same
/// numbers are also emitted as one `vae.epoch` event per epoch.
#[derive(Debug, Clone, Default)]
pub struct ReprTrainStats {
    /// Mean total loss (ELBO objective) per epoch.
    pub epoch_losses: Vec<f32>,
    /// Mean reconstruction term per epoch.
    pub epoch_recon: Vec<f32>,
    /// Mean (β-weighted) KL term per epoch.
    pub epoch_kl: Vec<f32>,
    /// Mean L2 norm of the merged parameter gradient per epoch.
    pub epoch_grad_norm: Vec<f32>,
}

/// The trained representation model (the `φ` of the paper).
#[derive(Debug, Clone)]
pub struct ReprModel {
    store: ParamStore,
    config: ReprConfig,
}

/// Process-wide count of full encoder passes ([`ReprModel::encode`] /
/// [`ReprModel::encode_matrices`] calls). The frozen-encoder cache exists
/// to keep this at one per table per model; benches assert on it.
static ENCODE_CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Number of encoder passes performed since the last
/// [`reset_encode_calls`] (process-wide).
pub fn encode_calls() -> usize {
    ENCODE_CALLS.load(std::sync::atomic::Ordering::Relaxed)
}

/// Resets the encoder-pass counter (test/bench instrumentation).
pub fn reset_encode_calls() {
    ENCODE_CALLS.store(0, std::sync::atomic::Ordering::Relaxed);
}

/// FNV-1a over `bytes` — the content hash behind
/// [`ReprModel::fingerprint`] and the fitted pipeline's checkpoint stamp.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

/// Layer-name constants shared with the Siamese matcher (which rebinds the
/// encoder by these names) and the transfer serialiser.
pub const ENC_HIDDEN: &str = "repr.enc.hidden";
pub const ENC_MU: &str = "repr.enc.mu";
pub const ENC_LOGVAR: &str = "repr.enc.logvar";
const DEC_HIDDEN: &str = "repr.dec.hidden";
const DEC_OUT: &str = "repr.dec.out";

impl ReprModel {
    /// Trains the VAE on an `n x ir_dim` matrix of IRs (one attribute value
    /// per row).
    ///
    /// # Errors
    /// [`CoreError::BadInput`] when `irs` is empty or its width disagrees
    /// with `config.ir_dim`.
    pub fn train(irs: &Matrix, config: &ReprConfig) -> Result<(Self, ReprTrainStats), CoreError> {
        Self::train_with(irs, config, &RunBudget::unlimited(), None)
    }

    /// [`train`](Self::train) under a [`RunBudget`], optionally durable.
    ///
    /// The budget is probed at the top of every epoch — including epochs
    /// retried by the divergence guard, so a flapping trainer consumes its
    /// deadline instead of looping past it.
    ///
    /// With `snapshots = Some((store, every))`, training state (weights,
    /// optimizer moments, RNG streams, per-epoch stats) is snapshotted to
    /// `store` every `every` epochs plus once after the final epoch, and —
    /// when a valid snapshot for this configuration already exists —
    /// training **resumes** from it instead of starting over. A resumed
    /// run is bit-identical to an uninterrupted one. Torn or corrupt
    /// snapshots are skipped in favour of the newest valid one; a valid
    /// snapshot whose dimensions disagree with `config` is an error (it
    /// belongs to a different run).
    ///
    /// # Errors
    /// Same as [`train`](Self::train), plus [`CoreError::Io`] /
    /// [`CoreError::Checkpoint`] on snapshot problems,
    /// [`CoreError::Diverged`] if the divergence guard exhausts its
    /// retries, and [`CoreError::Cancelled`] /
    /// [`CoreError::DeadlineExceeded`] when the budget trips.
    pub fn train_with(
        irs: &Matrix,
        config: &ReprConfig,
        budget: &RunBudget,
        snapshots: Option<(&CheckpointStore, usize)>,
    ) -> Result<(Self, ReprTrainStats), CoreError> {
        let snapshots = snapshots.map(|(store, every)| (store, every.max(1)));
        if irs.rows() == 0 {
            return Err(CoreError::BadInput("no IRs to train on".into()));
        }
        if irs.cols() != config.ir_dim {
            return Err(CoreError::BadInput(format!(
                "IR width {} != configured ir_dim {}",
                irs.cols(),
                config.ir_dim
            )));
        }
        let resumed = match snapshots {
            Some((ckpt, _)) => Self::resume_state(ckpt, config)?,
            None => None,
        };
        let mut state = match resumed {
            Some(s) => s,
            None => VaeTrainState::fresh(config),
        };
        Self::train_loop(irs, config, &mut state, snapshots, budget)?;
        Ok((
            Self {
                store: state.store,
                config: config.clone(),
            },
            state.stats,
        ))
    }

    /// Scans the snapshot directory newest-first for a state this run can
    /// resume from. Torn/corrupt snapshots are skipped (graceful
    /// degradation); a valid snapshot for a *different* configuration is
    /// refused loudly rather than silently retraining over it.
    fn resume_state(
        ckpt: &CheckpointStore,
        config: &ReprConfig,
    ) -> Result<Option<VaeTrainState>, CoreError> {
        for &seq in ckpt.list()?.iter().rev() {
            let Ok(payload) = ckpt.read(seq) else {
                crate::obs::handles().checkpoint_corrupt_skipped.add(1);
                continue;
            };
            let Ok((state, dims)) = VaeTrainState::from_bytes(&payload) else {
                crate::obs::handles().checkpoint_corrupt_skipped.add(1);
                continue;
            };
            state.validate(dims, config)?;
            vaer_obs::event(
                "vae.resume",
                &[("seq", seq.into()), ("epoch", state.epoch.into())],
            );
            return Ok(Some(state));
        }
        Ok(None)
    }

    fn train_loop(
        irs: &Matrix,
        config: &ReprConfig,
        state: &mut VaeTrainState,
        snapshots: Option<(&CheckpointStore, usize)>,
        budget: &RunBudget,
    ) -> Result<(), CoreError> {
        // One tape per shard slot, reused for the whole training run.
        let mut tapes = GraphPool::new();
        let _span = vaer_obs::span("repr.train");
        let mut rollbacks = 0u32;
        while state.epoch < config.epochs {
            // Probed every epoch, *including* divergence-guard retries
            // (`continue` below re-enters here), so a flapping trainer
            // consumes its run budget instead of looping past it. State is
            // only mutated after the probe, so a trip loses nothing.
            budget.probe("repr.train")?;
            // Crash-test kill switch: a `vae.epoch=panic@N` failpoint
            // aborts the run at the top of the Nth epoch.
            vaer_fault::trigger("vae.epoch");
            // In-memory guard for the divergence rollback. Restoring it
            // also rewinds the RNG streams, so a retried epoch sees the
            // same batches (only the halved learning rate differs).
            let guard = state.clone();
            let mut epoch_loss = 0.0f32;
            let mut epoch_recon = 0.0f32;
            let mut epoch_kl = 0.0f32;
            let mut epoch_grad = 0.0f32;
            let mut batches = 0usize;
            let mut diverged: Option<String> = None;
            {
                let VaeTrainState {
                    epoch,
                    store,
                    adam,
                    rng,
                    noise_rng,
                    ..
                } = &mut *state;
                let missing = |name: &str| {
                    CoreError::Checkpoint(format!("training state is missing layer '{name}'"))
                };
                let enc_hidden =
                    Dense::from_store(store, ENC_HIDDEN).ok_or_else(|| missing(ENC_HIDDEN))?;
                let enc_mu = Dense::from_store(store, ENC_MU).ok_or_else(|| missing(ENC_MU))?;
                let enc_logvar =
                    Dense::from_store(store, ENC_LOGVAR).ok_or_else(|| missing(ENC_LOGVAR))?;
                let dec_hidden =
                    Dense::from_store(store, DEC_HIDDEN).ok_or_else(|| missing(DEC_HIDDEN))?;
                let dec_out = Dense::from_store(store, DEC_OUT).ok_or_else(|| missing(DEC_OUT))?;
                for batch in minibatches(irs.rows(), config.batch_size, rng) {
                    // Batch inputs and noise are drawn up front so the RNG
                    // stream is independent of how many gradient shards the
                    // runtime decides to use.
                    let x = irs.select_rows(&batch);
                    let eps = gaussian_matrix(batch.len(), config.latent_dim, noise_rng);
                    let batch_len = batch.len();
                    // Per-shard loss decomposition, merged with the same
                    // shard-size weights sharded_step applies to the loss.
                    let parts = std::sync::Mutex::new((0.0f64, 0.0f64));
                    let store_ro: &ParamStore = store;
                    let step = sharded_step_pooled(&mut tapes, batch_len, |g, rows| {
                        let n = rows.len();
                        let xt = g.input_rows(&x, rows.start, rows.end);
                        // Encoder.
                        let h = enc_hidden.forward(g, store_ro, xt);
                        let h = g.relu(h);
                        let mu = enc_mu.forward(g, store_ro, h);
                        let logvar = enc_logvar.forward(g, store_ro, h);
                        // Reparameterisation: z = μ + exp(½ logvar) ⊙ ε.
                        let half_logvar = g.scale(logvar, 0.5);
                        let sigma = g.exp(half_logvar);
                        let eps_t = g.input_rows(&eps, rows.start, rows.end);
                        let noise = g.mul(sigma, eps_t);
                        let z = g.add(mu, noise);
                        // Decoder.
                        let dh = dec_hidden.forward(g, store_ro, z);
                        let dh = g.relu(dh);
                        let recon = dec_out.forward(g, store_ro, dh);
                        // Reconstruction: mean squared error over the shard.
                        let diff = g.sub(recon, xt);
                        let sq = g.square(diff);
                        let recon_loss = g.mean_all(sq);
                        let recon_loss = g.scale(recon_loss, config.ir_dim as f32);
                        // KL(q ‖ N(0, I)) = -½ Σ (1 + logvar - μ² - exp(logvar)),
                        // averaged over the shard (both loss terms are per-row
                        // means, as sharded_step's merge requires).
                        let mu_sq = g.square(mu);
                        let exp_logvar = g.exp(logvar);
                        let inner = g.add_scalar(logvar, 1.0);
                        let inner = g.sub(inner, mu_sq);
                        let inner = g.sub(inner, exp_logvar);
                        let kl_sum = g.sum_all(inner);
                        let kl = g.scale(kl_sum, -0.5 / n as f32);
                        let kl = g.scale(kl, config.kl_weight);
                        // Forward values are eager, so the decomposition is a
                        // free read off the tape. Uncontended by construction:
                        // shards finish building at different times.
                        let w = f64::from(n as f32 / batch_len.max(1) as f32);
                        let mut p = parts.lock().unwrap_or_else(|e| e.into_inner());
                        p.0 += w * f64::from(g.value(recon_loss).get(0, 0));
                        p.1 += w * f64::from(g.value(kl).get(0, 0));
                        drop(p);
                        g.add(recon_loss, kl)
                    });
                    let (recon_part, kl_part) =
                        parts.into_inner().unwrap_or_else(|e| e.into_inner());
                    let mut loss = step.loss;
                    // Numeric-fault injection: poison the loss as a NaN
                    // gradient would.
                    if matches!(
                        vaer_fault::check("vae.grads"),
                        Some(vaer_fault::Action::Nan)
                    ) {
                        loss = f32::NAN;
                    }
                    let mut grad_sq = 0.0f64;
                    for (_, grad) in &step.grads {
                        for &v in grad.as_slice() {
                            grad_sq += f64::from(v) * f64::from(v);
                        }
                    }
                    // Divergence guard: catch the poison *before* it
                    // reaches the parameters, so the epoch-start guard
                    // snapshot is still clean.
                    if !loss.is_finite() || !grad_sq.is_finite() {
                        diverged = Some(format!("non-finite loss/gradient in epoch {epoch}"));
                        break;
                    }
                    epoch_loss += loss;
                    epoch_recon += recon_part as f32;
                    epoch_kl += kl_part as f32;
                    epoch_grad += grad_sq.sqrt() as f32;
                    batches += 1;
                    adam.step(store, &step.grads);
                }
            }
            let denom = batches.max(1) as f32;
            let mean_grad = epoch_grad / denom;
            if diverged.is_none() {
                if let Some(&prev) = state.stats.epoch_grad_norm.last() {
                    if mean_grad > config.grad_spike_factor * prev.max(1.0) {
                        diverged = Some(format!(
                            "gradient-norm spike in epoch {}: {mean_grad} vs {prev}",
                            state.epoch
                        ));
                    }
                }
            }
            if let Some(why) = diverged {
                rollbacks += 1;
                *state = guard;
                let lr = state.adam.learning_rate() * 0.5;
                state.adam.set_learning_rate(lr);
                crate::obs::handles().vae_rollbacks.add(1);
                vaer_obs::event(
                    "vae.rollback",
                    &[
                        ("epoch", state.epoch.into()),
                        ("reason", why.clone().into()),
                        ("lr", f64::from(lr).into()),
                        ("rollbacks", rollbacks.into()),
                    ],
                );
                if rollbacks > config.max_rollbacks {
                    return Err(CoreError::Diverged(format!(
                        "{why}; gave up after {} rollbacks",
                        config.max_rollbacks
                    )));
                }
                continue;
            }
            state.stats.epoch_losses.push(epoch_loss / denom);
            state.stats.epoch_recon.push(epoch_recon / denom);
            state.stats.epoch_kl.push(epoch_kl / denom);
            state.stats.epoch_grad_norm.push(mean_grad);
            if vaer_obs::enabled() {
                let requests = tapes.buf_requests();
                let hit_rate = if requests == 0 {
                    0.0
                } else {
                    1.0 - tapes.fresh_allocs() as f64 / requests as f64
                };
                vaer_obs::event(
                    "vae.epoch",
                    &[
                        ("epoch", state.epoch.into()),
                        ("loss", (epoch_loss / denom).into()),
                        ("recon", (epoch_recon / denom).into()),
                        ("kl", (epoch_kl / denom).into()),
                        ("grad_norm", mean_grad.into()),
                        ("tape_fresh_allocs", tapes.fresh_allocs().into()),
                        ("tape_hit_rate", hit_rate.into()),
                    ],
                );
            }
            state.epoch += 1;
            if let Some((ckpt, every)) = snapshots {
                if state.epoch.is_multiple_of(every) && state.epoch < config.epochs {
                    ckpt.write(
                        state.epoch as u64,
                        &state.to_bytes(config),
                        &RunBudget::unlimited(),
                    )?;
                }
            }
        }
        // Final snapshot, unconditional: re-running a finished job resumes
        // here instantly instead of retraining.
        if let Some((ckpt, _)) = snapshots {
            ckpt.write(
                config.epochs as u64,
                &state.to_bytes(config),
                &RunBudget::unlimited(),
            )?;
        }
        Ok(())
    }

    /// Checks that `store` holds exactly the layers and shapes `config`
    /// prescribes — the guard that turns a config-vs-weights mismatch
    /// into a descriptive error instead of a downstream indexing panic.
    fn validate_store(store: &ParamStore, config: &ReprConfig) -> Result<(), CoreError> {
        let expect = [
            (ENC_HIDDEN, config.ir_dim, config.hidden_dim),
            (ENC_MU, config.hidden_dim, config.latent_dim),
            (ENC_LOGVAR, config.hidden_dim, config.latent_dim),
            (DEC_HIDDEN, config.latent_dim, config.hidden_dim),
            (DEC_OUT, config.hidden_dim, config.ir_dim),
        ];
        let bad = |why: String| CoreError::Model(vaer_nn::NnError::BadFormat(why));
        // vaer-lint: allow(cancel-probe-coverage) -- shape check over a fixed four-layer table
        for (name, in_dim, out_dim) in expect {
            let w = store
                .find(&format!("{name}.w"))
                .ok_or_else(|| bad(format!("model is missing layer '{name}.w'")))?;
            let b = store
                .find(&format!("{name}.b"))
                .ok_or_else(|| bad(format!("model is missing layer '{name}.b'")))?;
            let w_shape = store.get(w).shape();
            if w_shape != (in_dim, out_dim) {
                return Err(bad(format!(
                    "layer '{name}.w' has shape {w_shape:?} but the config requires ({in_dim}, {out_dim})"
                )));
            }
            let b_shape = store.get(b).shape();
            if b_shape != (1, out_dim) {
                return Err(bad(format!(
                    "layer '{name}.b' has shape {b_shape:?} but the config requires (1, {out_dim})"
                )));
            }
        }
        Ok(())
    }

    /// A model over `store`, whose encoder layers must have `config`'s
    /// shapes — how a fine-tuned matcher's encoder is run as an encoder.
    pub(crate) fn from_parts(config: ReprConfig, store: ParamStore) -> Self {
        Self { store, config }
    }

    /// The model configuration.
    pub fn config(&self) -> &ReprConfig {
        &self.config
    }

    /// The parameter store (encoder + decoder weights).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Encoder forward pass on a tape — reused by the Siamese matcher so
    /// both share one implementation of Fig. 2's encoding layer.
    ///
    /// Returns `(μ, σ)` tensors of shape `batch x latent_dim`, binding the
    /// encoder parameters from `store` (pass the matcher's own store to
    /// fine-tune a copy).
    ///
    /// # Panics
    /// If `store` lacks the three encoder layers. This is an invariant,
    /// not an input check: every store reaching here came from a
    /// constructor that validated or created those layers.
    pub fn encoder_forward(g: &mut Graph, store: &ParamStore, x: Tensor) -> (Tensor, Tensor) {
        let enc_hidden = Dense::from_store(store, ENC_HIDDEN)
            .expect("store is missing the repr encoder hidden layer");
        let enc_mu = Dense::from_store(store, ENC_MU).expect("store is missing the repr mu head");
        let enc_logvar =
            Dense::from_store(store, ENC_LOGVAR).expect("store is missing the repr logvar head");
        let h = enc_hidden.forward(g, store, x);
        let h = g.relu(h);
        let mu = enc_mu.forward(g, store, h);
        let logvar = enc_logvar.forward(g, store, h);
        let half = g.scale(logvar, 0.5);
        let sigma = g.exp(half);
        (mu, sigma)
    }

    /// Encodes a batch of IRs into diagonal Gaussians (one per row).
    ///
    /// Rows are encoded independently, so large batches are split into
    /// contiguous row shards on the [`vaer_linalg::runtime`] worker pool;
    /// each row's result is bit-identical at any thread count.
    pub fn encode(&self, irs: &Matrix) -> Vec<DiagGaussian> {
        let (mu, sigma) = self.encode_matrices(irs);
        (0..mu.rows())
            .map(|i| DiagGaussian::new(mu.row(i).to_vec(), sigma.row(i).to_vec()))
            .collect()
    }

    /// Encodes a batch of IRs into `(μ, σ)` matrices of shape
    /// `rows x latent_dim` — the matrix form backing [`Self::encode`] and
    /// the frozen-encoder cache ([`crate::latent::LatentTable`]).
    ///
    /// Each call is one full encoder pass and increments the
    /// process-wide [`encode_calls`] counter; row results are
    /// bit-identical at any thread count and for any row batching.
    ///
    /// # Panics
    /// If `irs` is not `ir_dim` wide — a caller bug, not a data
    /// condition; fallible entry points validate widths before reaching
    /// the encoder.
    pub fn encode_matrices(&self, irs: &Matrix) -> (Matrix, Matrix) {
        assert_eq!(irs.cols(), self.config.ir_dim, "IR width mismatch");
        ENCODE_CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let o = crate::obs::handles();
        o.encode_calls.incr();
        o.encode_rows.add(irs.rows() as u64);
        let _span = vaer_obs::span("repr.encode");
        let latent = self.config.latent_dim;
        if irs.rows() == 0 {
            return (Matrix::zeros(0, latent), Matrix::zeros(0, latent));
        }
        const MIN_ROWS_PER_SHARD: usize = 64;
        let shards = vaer_linalg::runtime::map_shards(irs.rows(), MIN_ROWS_PER_SHARD, |rows| {
            let mut g = Graph::new();
            let x = g.input_rows(irs, rows.start, rows.end);
            let (mu, sigma) = Self::encoder_forward(&mut g, &self.store, x);
            (g.value(mu).clone(), g.value(sigma).clone())
        });
        let mut mu = Matrix::zeros(irs.rows(), latent);
        let mut sigma = Matrix::zeros(irs.rows(), latent);
        let mut offset = 0;
        for (mu_s, sig_s) in shards {
            let n = mu_s.rows() * latent;
            mu.as_mut_slice()[offset..offset + n].copy_from_slice(mu_s.as_slice());
            sigma.as_mut_slice()[offset..offset + n].copy_from_slice(sig_s.as_slice());
            offset += n;
        }
        (mu, sigma)
    }

    /// A cheap content hash of the parameter store, used by the
    /// frozen-encoder cache to detect that a model's weights changed
    /// (e.g. after transfer loads different parameters).
    pub fn fingerprint(&self) -> u64 {
        fnv1a(&self.store.to_bytes())
    }

    /// Decodes latent samples back to IR space (the generative direction).
    ///
    /// # Panics
    /// If `z` is not `latent_dim` wide — a programming error in the
    /// caller, not a data condition (decoder layers themselves are
    /// guaranteed by construction/[deserialisation](Self::from_bytes)).
    pub fn decode(&self, z: &Matrix) -> Matrix {
        assert_eq!(z.cols(), self.config.latent_dim, "latent width mismatch");
        let dec_hidden =
            Dense::from_store(&self.store, DEC_HIDDEN).expect("decoder hidden layer missing");
        let dec_out = Dense::from_store(&self.store, DEC_OUT).expect("decoder output missing");
        let mut g = Graph::new();
        let zt = g.input(z.clone());
        let h = dec_hidden.forward(&mut g, &self.store, zt);
        let h = g.relu(h);
        let out = dec_out.forward(&mut g, &self.store, h);
        g.value(out).clone()
    }

    /// Serialises the model (config header + parameters).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"VAERREPR");
        for v in [
            self.config.ir_dim as u32,
            self.config.hidden_dim as u32,
            self.config.latent_dim as u32,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&self.store.to_bytes());
        out
    }

    /// Deserialises a model produced by [`ReprModel::to_bytes`].
    ///
    /// The deserialised parameters are re-validated against the header's
    /// dimensions: a blob whose config and weights disagree (hand-edited,
    /// spliced from another model, bit-rotted past the CRC) is rejected
    /// here with a descriptive error instead of panicking later inside
    /// encode/decode.
    ///
    /// # Errors
    /// [`CoreError::Model`] on malformed bytes or a config-vs-weight
    /// shape mismatch.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CoreError> {
        if bytes.len() < 20 || &bytes[..8] != b"VAERREPR" {
            return Err(CoreError::Model(vaer_nn::NnError::BadFormat(
                "missing VAERREPR magic".into(),
            )));
        }
        let dim = |i: usize| {
            // vaer-lint: allow(panic) -- length >= 20 checked above; fixed 4-byte slices are infallible
            u32::from_le_bytes(bytes[8 + 4 * i..12 + 4 * i].try_into().unwrap()) as usize
        };
        let store = ParamStore::from_bytes(&bytes[20..])?;
        let config = ReprConfig {
            ir_dim: dim(0),
            hidden_dim: dim(1),
            latent_dim: dim(2),
            ..ReprConfig::default()
        };
        Self::validate_store(&store, &config)?;
        Ok(Self { store, config })
    }
}

/// Full mid-training VAE state — everything [`ReprModel::train_with`]
/// needs to resume bit-identically: epoch counter, weights, Adam moments,
/// both RNG streams (batch shuffling and reparameterisation noise), and the
/// stats accumulated so far.
#[derive(Clone)]
struct VaeTrainState {
    epoch: usize,
    store: ParamStore,
    adam: Adam,
    rng: NnRng,
    noise_rng: NnRng,
    stats: ReprTrainStats,
}

/// Snapshot payload magic (wrapped in a `VAERCKP1` envelope on disk).
const STATE_MAGIC: &[u8; 8] = b"VAERVST1";

impl VaeTrainState {
    /// Epoch-zero state. Layer construction order fixes the RNG stream, so
    /// this must build the five layers exactly as the original trainer did
    /// — old seeds keep reproducing old models.
    fn fresh(config: &ReprConfig) -> Self {
        let mut rng = NnRng::seed_from_u64(config.seed);
        let mut store = ParamStore::new();
        let layers = [
            (
                ENC_HIDDEN,
                config.ir_dim,
                config.hidden_dim,
                Initializer::He,
            ),
            (
                ENC_MU,
                config.hidden_dim,
                config.latent_dim,
                Initializer::Xavier,
            ),
            (
                ENC_LOGVAR,
                config.hidden_dim,
                config.latent_dim,
                Initializer::Xavier,
            ),
            (
                DEC_HIDDEN,
                config.latent_dim,
                config.hidden_dim,
                Initializer::He,
            ),
            (
                DEC_OUT,
                config.hidden_dim,
                config.ir_dim,
                Initializer::Xavier,
            ),
        ];
        for (name, in_dim, out_dim, init) in layers {
            Dense::new(&mut store, name, in_dim, out_dim, init, &mut rng);
        }
        Self {
            epoch: 0,
            store,
            adam: Adam::with_rate(config.learning_rate),
            rng,
            noise_rng: NnRng::seed_from_u64(config.seed ^ 0xE95),
            stats: ReprTrainStats::default(),
        }
    }

    fn to_bytes(&self, config: &ReprConfig) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(STATE_MAGIC);
        for v in [
            config.ir_dim as u32,
            config.hidden_dim as u32,
            config.latent_dim as u32,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.epoch as u64).to_le_bytes());
        put_rng_state(&mut out, self.rng.state());
        put_rng_state(&mut out, self.noise_rng.state());
        put_f32_vec(&mut out, &self.stats.epoch_losses);
        put_f32_vec(&mut out, &self.stats.epoch_recon);
        put_f32_vec(&mut out, &self.stats.epoch_kl);
        put_f32_vec(&mut out, &self.stats.epoch_grad_norm);
        put_blob(&mut out, &self.store.to_bytes());
        put_blob(&mut out, &self.adam.to_bytes());
        out
    }

    /// Parses a snapshot payload; returns the state plus the
    /// `(ir_dim, hidden_dim, latent_dim)` it was trained under, which the
    /// caller must [`validate`](Self::validate) against its own config.
    /// Never panics, whatever the bytes are.
    fn from_bytes(bytes: &[u8]) -> Result<(Self, [usize; 3]), CoreError> {
        let mut cur = Cur::new(bytes);
        if cur.take(8)? != STATE_MAGIC {
            return Err(CoreError::Checkpoint("missing VAERVST1 magic".into()));
        }
        let dims = [
            cur.u32()? as usize,
            cur.u32()? as usize,
            cur.u32()? as usize,
        ];
        let epoch = cur.u64()? as usize;
        let rng = NnRng::from_state(cur.rng_state()?);
        let noise_rng = NnRng::from_state(cur.rng_state()?);
        let stats = ReprTrainStats {
            epoch_losses: cur.f32_vec()?,
            epoch_recon: cur.f32_vec()?,
            epoch_kl: cur.f32_vec()?,
            epoch_grad_norm: cur.f32_vec()?,
        };
        let store = ParamStore::from_bytes(cur.blob()?)?;
        let adam = Adam::from_bytes(cur.blob()?)?;
        if cur.pos != cur.bytes.len() {
            return Err(CoreError::Checkpoint(
                "trailing bytes after VAE training state".into(),
            ));
        }
        Ok((
            Self {
                epoch,
                store,
                adam,
                rng,
                noise_rng,
                stats,
            },
            dims,
        ))
    }

    /// Checks a deserialised state belongs to the resuming run: matching
    /// dimensions, well-shaped layers, and stats consistent with the epoch
    /// counter. Dimension mismatch is an error (not a skip) — the snapshot
    /// directory holds a *different* run's state, and silently retraining
    /// over it would clobber it.
    fn validate(&self, dims: [usize; 3], config: &ReprConfig) -> Result<(), CoreError> {
        let want = [config.ir_dim, config.hidden_dim, config.latent_dim];
        if dims != want {
            return Err(CoreError::Checkpoint(format!(
                "snapshot dims {dims:?} do not match config {want:?}"
            )));
        }
        ReprModel::validate_store(&self.store, config)?;
        if self.epoch > config.epochs {
            return Err(CoreError::Checkpoint(format!(
                "snapshot is at epoch {} but the config trains only {}",
                self.epoch, config.epochs
            )));
        }
        let s = &self.stats;
        if [
            s.epoch_losses.len(),
            s.epoch_recon.len(),
            s.epoch_kl.len(),
            s.epoch_grad_norm.len(),
        ] != [self.epoch; 4]
        {
            return Err(CoreError::Checkpoint(
                "snapshot stats are inconsistent with its epoch counter".into(),
            ));
        }
        Ok(())
    }
}

fn gaussian_matrix(rows: usize, cols: usize, rng: &mut NnRng) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| vaer_stats::gaussian::standard_normal(rng))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaer_linalg::XorShiftRng;

    /// IRs drawn from two well-separated clusters.
    fn clustered_irs(n_per: usize, dim: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = XorShiftRng::new(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for c in 0..2 {
            for _ in 0..n_per {
                let center = if c == 0 { 1.0 } else { -1.0 };
                let row: Vec<f32> = (0..dim).map(|_| center + 0.1 * rng.gaussian()).collect();
                rows.push(row);
                labels.push(c);
            }
        }
        let flat: Vec<f32> = rows.iter().flatten().copied().collect();
        (Matrix::from_vec(2 * n_per, dim, flat), labels)
    }

    #[test]
    fn training_reduces_loss() {
        let (irs, _) = clustered_irs(40, 8, 1);
        let config = ReprConfig {
            epochs: 10,
            ..ReprConfig::fast(8)
        };
        let (_, stats) = ReprModel::train(&irs, &config).unwrap();
        let first = stats.epoch_losses[0];
        let last = *stats.epoch_losses.last().unwrap();
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn latent_space_preserves_cluster_structure() {
        let (irs, labels) = clustered_irs(40, 8, 2);
        let (model, _) = ReprModel::train(&irs, &ReprConfig::fast(8)).unwrap();
        let reprs = model.encode(&irs);
        // Mean within-cluster μ distance should be far below between-cluster.
        let mut within = 0.0f32;
        let mut between = 0.0f32;
        let mut n_within = 0;
        let mut n_between = 0;
        for i in (0..reprs.len()).step_by(7) {
            for j in (i + 1..reprs.len()).step_by(5) {
                let d = vaer_linalg::vector::euclidean(&reprs[i].mu, &reprs[j].mu);
                if labels[i] == labels[j] {
                    within += d;
                    n_within += 1;
                } else {
                    between += d;
                    n_between += 1;
                }
            }
        }
        let within = within / n_within.max(1) as f32;
        let between = between / n_between.max(1) as f32;
        assert!(
            between > 1.5 * within,
            "within {within} vs between {between}"
        );
    }

    #[test]
    fn encode_shapes_and_sigma_positive() {
        let (irs, _) = clustered_irs(10, 8, 3);
        let (model, _) = ReprModel::train(&irs, &ReprConfig::fast(8)).unwrap();
        let reprs = model.encode(&irs);
        assert_eq!(reprs.len(), 20);
        for r in &reprs {
            assert_eq!(r.dims(), model.config().latent_dim);
            assert!(r.sigma.iter().all(|&s| s > 0.0), "sigma must be positive");
        }
        assert!(model.encode(&Matrix::zeros(0, 8)).is_empty());
    }

    #[test]
    fn decode_round_trip_is_reasonable() {
        let (irs, _) = clustered_irs(50, 8, 4);
        let config = ReprConfig {
            epochs: 30,
            kl_weight: 0.1,
            ..ReprConfig::fast(8)
        };
        let (model, _) = ReprModel::train(&irs, &config).unwrap();
        let reprs = model.encode(&irs);
        let mu_mat = Matrix::from_vec(
            reprs.len(),
            model.config().latent_dim,
            reprs.iter().flat_map(|r| r.mu.iter().copied()).collect(),
        );
        let recon = model.decode(&mu_mat);
        // Reconstruction should at least recover the cluster sign pattern.
        let mut sign_match = 0;
        let mut total = 0;
        for i in 0..irs.rows() {
            for j in 0..irs.cols() {
                total += 1;
                if (recon.get(i, j) > 0.0) == (irs.get(i, j) > 0.0) {
                    sign_match += 1;
                }
            }
        }
        let frac = sign_match as f32 / total as f32;
        assert!(frac > 0.8, "sign agreement {frac}");
    }

    #[test]
    fn serialization_round_trip() {
        let (irs, _) = clustered_irs(10, 8, 5);
        let (model, _) = ReprModel::train(&irs, &ReprConfig::fast(8)).unwrap();
        let bytes = model.to_bytes();
        let back = ReprModel::from_bytes(&bytes).unwrap();
        assert_eq!(back.config().latent_dim, model.config().latent_dim);
        let a = model.encode(&irs);
        let b = back.encode(&irs);
        assert_eq!(a[3].mu, b[3].mu);
        assert!(ReprModel::from_bytes(b"garbage").is_err());
    }

    #[test]
    fn input_validation() {
        assert!(ReprModel::train(&Matrix::zeros(0, 8), &ReprConfig::fast(8)).is_err());
        assert!(ReprModel::train(&Matrix::zeros(4, 5), &ReprConfig::fast(8)).is_err());
    }

    #[test]
    fn from_bytes_rejects_config_weight_shape_mismatch() {
        let (irs, _) = clustered_irs(10, 8, 6);
        let (model, _) = ReprModel::train(&irs, &ReprConfig::fast(8)).unwrap();
        // Splice the store of an 8-dim model under a header claiming 16.
        let mut bytes = model.to_bytes();
        bytes[8..12].copy_from_slice(&16u32.to_le_bytes());
        let err = ReprModel::from_bytes(&bytes).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("shape"), "undescriptive error: {msg}");
    }

    fn temp_ckpt(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("vaer-repr-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpointed_training_matches_plain_and_resumes_bit_identically() {
        let (irs, _) = clustered_irs(30, 8, 7);
        let config = ReprConfig {
            epochs: 6,
            ..ReprConfig::fast(8)
        };
        let (plain, plain_stats) = ReprModel::train(&irs, &config).unwrap();

        // A checkpointed run from scratch must produce the same bits.
        let dir = temp_ckpt("full");
        let ckpt = CheckpointStore::open(&dir, "vae").unwrap();
        let unlimited = RunBudget::unlimited();
        let (full, full_stats) =
            ReprModel::train_with(&irs, &config, &unlimited, Some((&ckpt, 2))).unwrap();
        assert_eq!(full.store().to_bytes(), plain.store().to_bytes());
        assert_eq!(full_stats.epoch_losses, plain_stats.epoch_losses);

        // A run resumed from a mid-training snapshot must as well: seed a
        // fresh directory with only the epoch-2 snapshot and train again.
        let (seq, payload) = {
            let (s, p) = ckpt.read_latest().unwrap().unwrap();
            assert_eq!(s, 6, "final snapshot must exist");
            (2u64, if s == 2 { p } else { ckpt.read(2).unwrap() })
        };
        let dir2 = temp_ckpt("resume");
        let ckpt2 = CheckpointStore::open(&dir2, "vae").unwrap();
        ckpt2.write(seq, &payload, &unlimited).unwrap();
        let (resumed, resumed_stats) =
            ReprModel::train_with(&irs, &config, &unlimited, Some((&ckpt2, 2))).unwrap();
        assert_eq!(
            resumed.store().to_bytes(),
            plain.store().to_bytes(),
            "resumed weights must be bit-identical to the uninterrupted run"
        );
        assert_eq!(resumed_stats.epoch_losses, plain_stats.epoch_losses);

        // A snapshot from a different configuration is refused loudly.
        let other = ReprConfig {
            epochs: 6,
            ..ReprConfig::fast(16)
        };
        let wide = Matrix::zeros(16, 16);
        assert!(matches!(
            ReprModel::train_with(&wide, &other, &unlimited, Some((&ckpt2, 2))),
            Err(CoreError::BadInput(_)) | Err(CoreError::Checkpoint(_))
        ));

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn vae_state_round_trips_and_rejects_corruption() {
        let config = ReprConfig::fast(8);
        let mut state = VaeTrainState::fresh(&config);
        state.epoch = 3;
        state.stats.epoch_losses = vec![3.0, 2.0, 1.0];
        state.stats.epoch_recon = vec![2.5, 1.5, 0.5];
        state.stats.epoch_kl = vec![0.5, 0.5, 0.5];
        state.stats.epoch_grad_norm = vec![1.0, 1.0, 1.0];
        let bytes = state.to_bytes(&config);
        let (back, dims) = VaeTrainState::from_bytes(&bytes).unwrap();
        assert_eq!(dims, [8, 32, 8]);
        assert_eq!(back.epoch, 3);
        assert_eq!(back.stats.epoch_losses, state.stats.epoch_losses);
        assert_eq!(back.store.to_bytes(), state.store.to_bytes());
        back.validate(dims, &config).unwrap();
        // Wrong dims refuse to resume.
        assert!(back.validate([9, 32, 8], &config).is_err());
        // Truncations never panic.
        for cut in [0, 7, 12, bytes.len() / 2, bytes.len() - 1] {
            assert!(VaeTrainState::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn divergence_rolls_back_and_eventually_errors() {
        let (irs, _) = clustered_irs(20, 8, 8);
        // Non-finite loss on every batch: the guard retries with halved LR
        // max_rollbacks times, then gives up with Diverged.
        let config = ReprConfig {
            epochs: 3,
            max_rollbacks: 2,
            ..ReprConfig::fast(8)
        };
        let _guard = vaer_fault::test_lock();
        vaer_fault::configure_on_this_thread("vae.grads=nan").unwrap();
        let err = ReprModel::train(&irs, &config);
        vaer_fault::clear();
        assert!(
            matches!(err, Err(CoreError::Diverged(_))),
            "expected Diverged, got {err:?}"
        );

        // A single poisoned batch is absorbed: rollback, retry, converge.
        vaer_fault::configure_on_this_thread("vae.grads=nan@1").unwrap();
        let recovered = ReprModel::train(&irs, &config);
        vaer_fault::clear();
        let (_, stats) = recovered.expect("one transient NaN must be survivable");
        assert_eq!(stats.epoch_losses.len(), config.epochs);
    }
}
