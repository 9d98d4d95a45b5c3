//! Active learning in the latent space — paper §V.
//!
//! [`bootstrap`] is Algorithm 1: LSH nearest-neighbour candidates over the
//! latent means, with the W₂-closest pairs taken as initial positives and
//! the W₂-furthest as initial negatives. [`ActiveLearner`] is Algorithm 2:
//! each iteration trains the (cheap) Siamese matcher on the current
//! labelled pool and then asks the oracle to label four kinds of samples —
//! certain positives/negatives (low entropy, KDE-consistent distance) and
//! uncertain positives/negatives (high entropy, KDE-surprising distance) —
//! giving class-balanced, informative, diverse batches.
//!
//! The paper's Algorithm 1 is written over a single tuple collection `T`;
//! in the two-table ER setting used by every experiment we adapt it to
//! cross-table candidates (each left tuple is joined to its top-k right
//! neighbours), which is the pairing the matcher ultimately has to judge.

use crate::checkpoint::{put_rng_state, AlSession, Cur};
use crate::entity::{mean_points, EntityRepr, IrTable};
use crate::latent::LatentTable;
use crate::matcher::{MatcherConfig, PairExamples, SiameseMatcher};
use crate::repr::ReprModel;
use crate::resilience::RunBudget;
use crate::CoreError;
use rand::SeedableRng;
use vaer_data::{LabeledPair, Oracle, PairSet};
use vaer_index::{knn_join, E2Lsh};
use vaer_stats::entropy::binary_entropy;
use vaer_stats::kde::Kde;
use vaer_stats::metrics::PrF1;

/// Algorithm 1 configuration.
#[derive(Debug, Clone)]
pub struct BootstrapConfig {
    /// Top-K neighbours per left tuple (paper Table III: 10).
    pub neighbours_k: usize,
    /// Seed positives/negatives taken from the distance extremes
    /// (the paper reports ~15 of each on average).
    pub seeds_per_class: usize,
    /// LSH seed.
    pub seed: u64,
}

impl Default for BootstrapConfig {
    fn default() -> Self {
        Self {
            neighbours_k: 10,
            seeds_per_class: 15,
            seed: 0xA1B0,
        }
    }
}

/// Algorithm 1 output: automatically labelled seeds plus the unlabeled
/// candidate pool `U`.
#[derive(Debug, Clone)]
pub struct Bootstrap {
    /// W₂-closest candidate pairs (assumed duplicates). May contain false
    /// positives — the paper notes some domains needed manual cleanup.
    pub positives: Vec<(usize, usize)>,
    /// W₂-furthest candidate pairs (assumed non-duplicates).
    pub negatives: Vec<(usize, usize)>,
    /// Remaining unlabeled candidates, each with its W₂² distance.
    pub pool: Vec<(usize, usize)>,
}

/// Runs Algorithm 1 over the entity representations of the two tables.
pub fn bootstrap(
    reprs_a: &[EntityRepr],
    reprs_b: &[EntityRepr],
    config: &BootstrapConfig,
) -> Bootstrap {
    if reprs_a.is_empty() || reprs_b.is_empty() {
        return Bootstrap {
            positives: Vec::new(),
            negatives: Vec::new(),
            pool: Vec::new(),
        };
    }
    // LSH over table B's concatenated means (lines 3–4); W₂ ranking is
    // sound on Euclidean candidates because the two are positively
    // correlated (paper §V-A).
    let a_keys: Vec<Vec<f32>> = reprs_a.iter().map(EntityRepr::flat_mu).collect();
    let index = E2Lsh::build_calibrated(mean_points(reprs_b), config.seed);
    let candidates = knn_join(&a_keys, &index, config.neighbours_k);
    // Score every candidate with the full W₂² (lines 11–12).
    let mut scored: Vec<((usize, usize), f32)> = candidates
        .iter()
        .map(|c| {
            (
                (c.left, c.right),
                reprs_a[c.left].w2_squared(&reprs_b[c.right]),
            )
        })
        .collect();
    scored.sort_by(|x, y| x.1.partial_cmp(&y.1).unwrap_or(std::cmp::Ordering::Equal));
    scored.dedup_by(|a, b| a.0 == b.0);
    let n = scored.len();
    let k = config.seeds_per_class.min(n / 3);
    let positives: Vec<(usize, usize)> = scored[..k].iter().map(|&(p, _)| p).collect();
    let negatives: Vec<(usize, usize)> = scored[n - k..].iter().map(|&(p, _)| p).collect();
    let pool: Vec<(usize, usize)> = scored[k..n - k].iter().map(|&(p, _)| p).collect();
    Bootstrap {
        positives,
        negatives,
        pool,
    }
}

/// Algorithm 2 configuration.
#[derive(Debug, Clone)]
pub struct ActiveConfig {
    /// Bootstrap (Algorithm 1) settings.
    pub bootstrap: BootstrapConfig,
    /// Oracle labels requested per iteration (paper Table III: 10),
    /// split across the four sample kinds.
    pub samples_per_iteration: usize,
    /// Maximum AL iterations.
    pub iterations: usize,
    /// Latent samples drawn per labelled positive pair when estimating
    /// the duplicate-distance density (Eq. 6; the paper uses ~1000 total).
    pub kde_samples_per_pair: usize,
    /// Whether bootstrap seeds are oracle-verified (the paper's "false
    /// positives had to be manually removed"). Verification is *not*
    /// billed against the AL label budget — the paper reports it
    /// separately with a † marker — but the number of corrected seeds is
    /// recorded in [`ActiveLearner::bootstrap_corrections`].
    pub verify_bootstrap: bool,
    /// Matcher training settings for each iteration.
    pub matcher: MatcherConfig,
    /// RNG seed (sampling).
    pub seed: u64,
}

impl Default for ActiveConfig {
    fn default() -> Self {
        Self {
            bootstrap: BootstrapConfig::default(),
            samples_per_iteration: 10,
            iterations: 25,
            kde_samples_per_pair: 64,
            verify_bootstrap: true,
            matcher: MatcherConfig::default(),
            seed: 0xAC71,
        }
    }
}

/// One point of the AL learning curve.
#[derive(Debug, Clone, Copy)]
pub struct AlCheckpoint {
    /// Oracle queries billed so far.
    pub labels_used: usize,
    /// Labelled-pool sizes `(positives, negatives)`.
    pub pool_sizes: (usize, usize),
    /// Test F1 at this point (if a test set was supplied).
    pub test_f1: Option<f32>,
    /// How many samples the round's batch drew from each Algorithm 2
    /// quadrant: `[certain⁺, certain⁻, uncertain⁺, uncertain⁻]`
    /// (all zero for the bootstrap checkpoint, which selects nothing).
    pub sample_mix: [usize; 4],
    /// Wall-clock seconds spent retraining the matcher for this round.
    pub retrain_secs: f64,
}

/// The Algorithm 2 driver.
///
/// The representation model is frozen for the duration of the loop, so
/// the learner encodes each table **once** into a [`LatentTable`] at
/// construction; every later matcher-training and pool-scoring step
/// indexes into the cache instead of re-running the encoder, until a
/// round's matcher fine-tunes (then its pool scores from one pass per
/// table through the tuned encoder).
pub struct ActiveLearner<'a> {
    repr: &'a ReprModel,
    irs_a: &'a IrTable,
    irs_b: &'a IrTable,
    lat_a: LatentTable,
    lat_b: LatentTable,
    reprs_a: Vec<EntityRepr>,
    reprs_b: Vec<EntityRepr>,
    pool: Vec<(usize, usize)>,
    labeled_pos: Vec<(usize, usize)>,
    labeled_neg: Vec<(usize, usize)>,
    config: ActiveConfig,
    rng: rand::rngs::StdRng,
    history: Vec<AlCheckpoint>,
    bootstrap_corrections: usize,
    /// Position in the durable label journal: the next oracle query's
    /// sequence number when running under an [`AlSession`].
    journal_seq: u64,
}

impl<'a> ActiveLearner<'a> {
    /// Bootstraps the learner (Algorithm 1) from a representation model
    /// and the IR tables of the two input tables. Each table is encoded
    /// exactly once; the resulting latent caches serve the whole loop.
    pub fn new(
        repr: &'a ReprModel,
        irs_a: &'a IrTable,
        irs_b: &'a IrTable,
        config: ActiveConfig,
    ) -> Self {
        let lat_a = LatentTable::encode(repr, irs_a);
        let lat_b = LatentTable::encode(repr, irs_b);
        Self::with_latents(repr, irs_a, irs_b, lat_a, lat_b, config)
    }

    /// Like [`new`](Self::new) but reuses latent caches built elsewhere
    /// (e.g. by the pipeline), avoiding even the initial encoder pass.
    ///
    /// # Panics
    /// If either cache was built from different weights than `repr`.
    pub fn with_latents(
        repr: &'a ReprModel,
        irs_a: &'a IrTable,
        irs_b: &'a IrTable,
        lat_a: LatentTable,
        lat_b: LatentTable,
        config: ActiveConfig,
    ) -> Self {
        assert!(
            !lat_a.is_stale(repr) && !lat_b.is_stale(repr),
            "latent caches must match the representation model"
        );
        let reprs_a = lat_a.entities();
        let reprs_b = lat_b.entities();
        let boot = bootstrap(&reprs_a, &reprs_b, &config.bootstrap);
        let rng = rand::rngs::StdRng::seed_from_u64(config.seed);
        Self {
            repr,
            irs_a,
            irs_b,
            lat_a,
            lat_b,
            reprs_a,
            reprs_b,
            pool: boot.pool,
            labeled_pos: boot.positives,
            labeled_neg: boot.negatives,
            config,
            rng,
            history: Vec::new(),
            bootstrap_corrections: 0,
            journal_seq: 0,
        }
    }

    /// Rebuilds a learner from a snapshot produced by
    /// [`state_bytes`](Self::state_bytes), encoding fresh latent caches.
    ///
    /// # Errors
    /// [`CoreError::Checkpoint`] when `state` is corrupt, refers to
    /// out-of-range tuples, or was taken under different representation
    /// weights.
    pub fn resume(
        repr: &'a ReprModel,
        irs_a: &'a IrTable,
        irs_b: &'a IrTable,
        config: ActiveConfig,
        state: &[u8],
    ) -> Result<Self, CoreError> {
        let lat_a = LatentTable::encode(repr, irs_a);
        let lat_b = LatentTable::encode(repr, irs_b);
        Self::resume_with_latents(repr, irs_a, irs_b, lat_a, lat_b, config, state)
    }

    /// Like [`resume`](Self::resume) but reuses latent caches built
    /// elsewhere. Unlike [`with_latents`](Self::with_latents) a stale
    /// cache is not an error here: resuming is exactly the situation where
    /// caches from a previous process may no longer match the weights, so
    /// stale ones are auto-invalidated and re-encoded.
    ///
    /// # Errors
    /// [`CoreError::Checkpoint`] when `state` is corrupt, refers to
    /// out-of-range tuples, or was taken under different representation
    /// weights (a snapshot is only resumable onto the weights that
    /// produced it).
    pub fn resume_with_latents(
        repr: &'a ReprModel,
        irs_a: &'a IrTable,
        irs_b: &'a IrTable,
        lat_a: LatentTable,
        lat_b: LatentTable,
        config: ActiveConfig,
        state: &[u8],
    ) -> Result<Self, CoreError> {
        let lat_a = lat_a.refresh(repr, irs_a);
        let lat_b = lat_b.refresh(repr, irs_b);
        let st = AlState::from_bytes(state)?;
        if st.fingerprint != repr.fingerprint() {
            return Err(CoreError::Checkpoint(
                "snapshot was taken under different representation weights".into(),
            ));
        }
        let reprs_a = lat_a.entities();
        let reprs_b = lat_b.entities();
        for &(l, r) in st.pool.iter().chain(&st.labeled_pos).chain(&st.labeled_neg) {
            if l >= reprs_a.len() || r >= reprs_b.len() {
                return Err(CoreError::Checkpoint(format!(
                    "snapshot pair ({l}, {r}) is out of range for tables of {} x {} entities",
                    reprs_a.len(),
                    reprs_b.len()
                )));
            }
        }
        let rng = rand::rngs::StdRng::from_state(st.rng_state);
        Ok(Self {
            repr,
            irs_a,
            irs_b,
            lat_a,
            lat_b,
            reprs_a,
            reprs_b,
            pool: st.pool,
            labeled_pos: st.labeled_pos,
            labeled_neg: st.labeled_neg,
            config,
            rng,
            history: st.history,
            bootstrap_corrections: st.bootstrap_corrections,
            journal_seq: st.journal_seq,
        })
    }

    /// Serialises the learner's full mutable state — labelled sets, pool,
    /// RNG stream, learning-curve history, journal position, and the
    /// representation fingerprint it is valid for — as a snapshot payload
    /// for [`resume`](Self::resume).
    pub fn state_bytes(&self) -> Vec<u8> {
        AlState::to_bytes(self)
    }

    /// The latent caches backing this learner (left, right).
    pub fn latents(&self) -> (&LatentTable, &LatentTable) {
        (&self.lat_a, &self.lat_b)
    }

    /// Number of bootstrap seeds whose automatic label was wrong and had
    /// to be corrected during verification (the paper's † cases).
    pub fn bootstrap_corrections(&self) -> usize {
        self.bootstrap_corrections
    }

    /// The current labelled set as a [`PairSet`].
    pub fn labeled(&self) -> PairSet {
        self.labeled_pos
            .iter()
            .map(|&(l, r)| LabeledPair {
                left: l,
                right: r,
                is_match: true,
            })
            .chain(self.labeled_neg.iter().map(|&(l, r)| LabeledPair {
                left: l,
                right: r,
                is_match: false,
            }))
            .collect()
    }

    /// Remaining unlabeled pool size.
    pub fn pool_size(&self) -> usize {
        self.pool.len()
    }

    /// Learning-curve checkpoints recorded by [`run`](Self::run).
    pub fn history(&self) -> &[AlCheckpoint] {
        &self.history
    }

    /// Trains a matcher on the current labelled set.
    ///
    /// While the encoder stays frozen the Distance-layer features come
    /// straight from the latent caches (no encoder pass); once the
    /// labelled set is large enough to fine-tune, training falls back to
    /// the full Siamese path over the IR tables.
    ///
    /// # Errors
    /// Propagates [`CoreError::InsufficientData`] when a class is empty.
    pub fn train_matcher(&self) -> Result<SiameseMatcher, CoreError> {
        SiameseMatcher::train_labelled(
            self.repr,
            (self.irs_a, self.irs_b),
            (&self.lat_a, &self.lat_b),
            &self.labeled(),
            &self.config.matcher,
            &RunBudget::unlimited(),
        )
    }

    /// Scores the unlabeled pool with `matcher` from latent caches: the
    /// learner's own while the matcher's encoder is frozen (the common
    /// case), else one encoder pass per table through the fine-tuned
    /// encoder.
    fn score_pool(&self, matcher: &SiameseMatcher) -> Vec<f32> {
        let tuned = matcher
            .tuned_encoder(self.repr)
            .map(|encoder| [self.irs_a, self.irs_b].map(|t| LatentTable::encode(&encoder, t)));
        let lats = tuned
            .as_ref()
            .map_or((&self.lat_a, &self.lat_b), |[a, b]| (a, b));
        matcher
            .score_pairs(lats, &self.pool, None, &RunBudget::unlimited())
            .expect("an unlimited budget never stops pool scoring") // vaer-lint: allow(panic) -- an unlimited budget never trips a probe
    }

    /// Verifies bootstrap seeds against the oracle and moves misfiled
    /// seeds to the correct side. Not billed (see
    /// [`ActiveConfig::verify_bootstrap`]); corrections are counted.
    fn verify_bootstrap(&mut self, oracle: &Oracle) {
        let pos = std::mem::take(&mut self.labeled_pos);
        let neg = std::mem::take(&mut self.labeled_neg);
        // vaer-lint: allow(cancel-probe-coverage) -- one-shot audit over already-labeled pairs at setup; bounded by label count
        for (l, r) in pos {
            if oracle.peek(l, r) {
                self.labeled_pos.push((l, r));
            } else {
                self.bootstrap_corrections += 1;
                self.labeled_neg.push((l, r));
            }
        }
        // vaer-lint: allow(cancel-probe-coverage) -- same bounded audit as the positive half above
        for (l, r) in neg {
            if oracle.peek(l, r) {
                self.bootstrap_corrections += 1;
                self.labeled_pos.push((l, r));
            } else {
                self.labeled_neg.push((l, r));
            }
        }
    }

    /// Estimates `f̂⁺(d)`: the KDE of Euclidean distances between sampled
    /// latent encodings of labelled duplicates (Eq. 6).
    fn positive_distance_kde(&mut self) -> Option<Kde> {
        if self.labeled_pos.is_empty() {
            return None;
        }
        let mut distances =
            Vec::with_capacity(self.labeled_pos.len() * self.config.kde_samples_per_pair);
        for &(l, r) in &self.labeled_pos {
            for _ in 0..self.config.kde_samples_per_pair {
                let zs = self.reprs_a[l].sample_flat(&mut self.rng);
                let zt = self.reprs_b[r].sample_flat(&mut self.rng);
                distances.push(vaer_linalg::vector::euclidean(&zs, &zt));
            }
        }
        Kde::fit(&distances)
    }

    /// Runs up to `iterations` AL rounds against `oracle`, stopping early
    /// when `max_labels` is reached or the pool empties. When `test` is
    /// supplied, the matcher is evaluated after every round and recorded
    /// in [`history`](Self::history).
    ///
    /// # Errors
    /// Propagates matcher-training failures.
    pub fn run(
        &mut self,
        oracle: &Oracle,
        max_labels: usize,
        test: Option<&PairExamples>,
    ) -> Result<SiameseMatcher, CoreError> {
        self.run_inner(oracle, max_labels, test, None)
    }

    /// Like [`run`](Self::run), but durable: every oracle answer is
    /// journaled before use and the learner state is snapshotted after
    /// each round. A run killed at any point and resumed (via
    /// [`resume`](Self::resume) from `session`'s newest snapshot, then
    /// `run_checkpointed` again) completes with bit-identical labelled
    /// sets, history, and matcher — journaled labels from a crashed round
    /// are replayed instead of re-queried.
    ///
    /// # Errors
    /// Everything [`run`](Self::run) raises, plus [`CoreError::Io`] /
    /// [`CoreError::Checkpoint`] on journal/snapshot problems or when the
    /// session's journal disagrees with `oracle`.
    pub fn run_checkpointed(
        &mut self,
        oracle: &Oracle,
        max_labels: usize,
        test: Option<&PairExamples>,
        session: &mut AlSession,
    ) -> Result<SiameseMatcher, CoreError> {
        self.run_inner(oracle, max_labels, test, Some(session))
    }

    fn run_inner(
        &mut self,
        oracle: &Oracle,
        max_labels: usize,
        test: Option<&PairExamples>,
        mut session: Option<&mut AlSession>,
    ) -> Result<SiameseMatcher, CoreError> {
        let _span = vaer_obs::span("al.run");
        if let Some(s) = session.as_deref_mut() {
            // Warm the oracle with every journaled query so a resumed run
            // bills exactly the pairs the original asked (the oracle
            // charges once per unique pair) — and catch a journal that
            // belongs to different ground truth before it corrupts the
            // labelled sets.
            for e in s.labels() {
                if oracle.label(e.left, e.right) != e.is_match {
                    return Err(CoreError::Checkpoint(format!(
                        "journaled label for ({}, {}) disagrees with the oracle",
                        e.left, e.right
                    )));
                }
            }
        }
        let mut matcher = if self.history.is_empty() {
            if self.config.verify_bootstrap {
                self.verify_bootstrap(oracle);
            }
            // Guard: bootstrap can theoretically produce a single class
            // (e.g. all seeds verified negative); backfill from the pool
            // if so.
            self.ensure_both_classes(oracle, session.as_deref_mut())?;
            vaer_obs::event(
                "al.bootstrap",
                &[
                    ("positives", self.labeled_pos.len().into()),
                    ("negatives", self.labeled_neg.len().into()),
                    ("pool", self.pool.len().into()),
                    ("corrections", self.bootstrap_corrections.into()),
                ],
            );
            // vaer-lint: allow(det-wallclock) -- retrain_secs is a reported checkpoint field, not a model input
            let t0 = std::time::Instant::now();
            let matcher = self.train_matcher()?;
            self.checkpoint(oracle, &matcher, test, [0; 4], t0.elapsed().as_secs_f64());
            self.snapshot(session.as_deref_mut())?;
            matcher
        } else {
            // Resumed mid-run: the labelled sets are restored, so
            // retraining reproduces the matcher the crashed process held
            // (matcher training is deterministic given the labelled sets).
            self.train_matcher()?
        };
        while self.history.len().saturating_sub(1) < self.config.iterations {
            // Crash-test kill switch: `al.round=panic@N` aborts at the top
            // of the Nth executed round.
            vaer_fault::trigger("al.round");
            // The budget at the top of a round equals the last
            // checkpoint's `labels_used` (no queries happen in between);
            // reading it from history keeps resumed runs — whose oracle
            // was warmed with the crashed round's journaled queries —
            // deciding identically to uninterrupted ones.
            let labels_used = self.history.last().map_or(0, |c| c.labels_used);
            if self.pool.is_empty() || labels_used >= max_labels {
                break;
            }
            let (batch, sample_mix) = self.select_batch(&matcher);
            if batch.is_empty() {
                break;
            }
            for &(l, r) in &batch {
                if self.ask(oracle, session.as_deref_mut(), l, r)? {
                    self.labeled_pos.push((l, r));
                } else {
                    self.labeled_neg.push((l, r));
                }
            }
            // Crash-test kill switch between the durable journal append
            // and the snapshot: labels must survive via replay.
            vaer_fault::trigger("al.labels");
            self.pool.retain(|p| !batch.contains(p));
            // vaer-lint: allow(det-wallclock) -- retrain_secs is a reported checkpoint field, not a model input
            let t0 = std::time::Instant::now();
            matcher = self.train_matcher()?;
            self.checkpoint(
                oracle,
                &matcher,
                test,
                sample_mix,
                t0.elapsed().as_secs_f64(),
            );
            self.snapshot(session.as_deref_mut())?;
        }
        Ok(matcher)
    }

    /// One oracle query, journaled when running under a session (replayed
    /// for free on resume).
    fn ask(
        &mut self,
        oracle: &Oracle,
        session: Option<&mut AlSession>,
        l: usize,
        r: usize,
    ) -> Result<bool, CoreError> {
        match session {
            Some(s) => {
                let ans = s.label(oracle, self.journal_seq, l, r)?;
                self.journal_seq += 1;
                Ok(ans)
            }
            None => Ok(oracle.label(l, r)),
        }
    }

    /// Writes a durable snapshot of the learner state (sequence = number
    /// of completed checkpoints).
    fn snapshot(&self, session: Option<&mut AlSession>) -> Result<(), CoreError> {
        if let Some(s) = session {
            s.snapshot(self.history.len() as u64, &self.state_bytes())?;
        }
        Ok(())
    }

    fn checkpoint(
        &mut self,
        oracle: &Oracle,
        matcher: &SiameseMatcher,
        test: Option<&PairExamples>,
        sample_mix: [usize; 4],
        retrain_secs: f64,
    ) {
        let test_f1 = test.map(|t| matcher.evaluate(t).f1);
        let cp = AlCheckpoint {
            labels_used: oracle.queries_used(),
            pool_sizes: (self.labeled_pos.len(), self.labeled_neg.len()),
            test_f1,
            sample_mix,
            retrain_secs,
        };
        vaer_obs::event(
            "al.round",
            &[
                ("round", self.history.len().into()),
                ("labels_used", cp.labels_used.into()),
                ("labeled_pos", cp.pool_sizes.0.into()),
                ("labeled_neg", cp.pool_sizes.1.into()),
                ("pool_remaining", self.pool.len().into()),
                ("certain_pos", sample_mix[0].into()),
                ("certain_neg", sample_mix[1].into()),
                ("uncertain_pos", sample_mix[2].into()),
                ("uncertain_neg", sample_mix[3].into()),
                ("retrain_secs", retrain_secs.into()),
                // Serialised as JSON null when no test set was supplied.
                ("test_f1", f64::from(test_f1.unwrap_or(f32::NAN)).into()),
            ],
        );
        self.history.push(cp);
    }

    fn ensure_both_classes(
        &mut self,
        oracle: &Oracle,
        mut session: Option<&mut AlSession>,
    ) -> Result<(), CoreError> {
        // Pool is sorted by W₂ (bootstrap kept the middle); take from the
        // near end for positives, far end for negatives.
        while self.labeled_pos.is_empty() && !self.pool.is_empty() {
            let (l, r) = self.pool.remove(0);
            if self.ask(oracle, session.as_deref_mut(), l, r)? {
                self.labeled_pos.push((l, r));
            } else {
                self.labeled_neg.push((l, r));
            }
        }
        while self.labeled_neg.is_empty() {
            let Some((l, r)) = self.pool.pop() else { break };
            if self.ask(oracle, session.as_deref_mut(), l, r)? {
                self.labeled_pos.push((l, r));
            } else {
                self.labeled_neg.push((l, r));
            }
        }
        Ok(())
    }

    /// Selects one balanced, informative, diverse batch (Algorithm 2,
    /// lines 6–9): per quadrant, the best `samples_per_iteration / 4`
    /// pool pairs. Also returns how many pairs each quadrant contributed
    /// (`[certain⁺, certain⁻, uncertain⁺, uncertain⁻]`) — the round's
    /// sample mix reported in [`AlCheckpoint`].
    fn select_batch(&mut self, matcher: &SiameseMatcher) -> (Vec<(usize, usize)>, [usize; 4]) {
        let probs = self.score_pool(matcher);
        let kde = self.positive_distance_kde();
        const EPS: f32 = 1e-4;
        // Pre-compute per-candidate entropy and KDE likelihood.
        let feats: Vec<(usize, f32, f32, bool)> = self
            .pool
            .iter()
            .enumerate()
            .map(|(i, &(l, r))| {
                let p = probs[i];
                let h = binary_entropy(p);
                let d = self.reprs_a[l].mu_distance(&self.reprs_b[r]);
                let f = kde.as_ref().map_or(0.5, |k| k.relative_density(d));
                (i, h, f, p > 0.5)
            })
            .collect();
        let per_kind = (self.config.samples_per_iteration / 4).max(1);
        let mut chosen: Vec<usize> = Vec::with_capacity(per_kind * 4);
        let take =
            |score: Box<dyn Fn(f32, f32) -> f32>, positive: bool, chosen: &mut Vec<usize>| {
                let mut ranked: Vec<(usize, f32)> = feats
                    .iter()
                    .filter(|&&(i, _, _, pos)| pos == positive && !chosen.contains(&i))
                    .map(|&(i, h, f, _)| (i, score(h, f)))
                    .collect();
                ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
                for &(i, _) in ranked.iter().take(per_kind) {
                    chosen.push(i);
                }
            };
        let mut mix = [0usize; 4];
        // Certain positives: min H · 1/f̂⁺ (low entropy, high likelihood).
        take(Box::new(|h, f| h * (1.0 / (f + EPS))), true, &mut chosen);
        mix[0] = chosen.len();
        // Certain negatives: min H · f̂⁺ (low entropy, low likelihood).
        take(Box::new(|h, f| h * f), false, &mut chosen);
        mix[1] = chosen.len() - mix[0];
        // Uncertain positives: min (1/H) · f̂⁺ (high entropy, low likelihood).
        take(Box::new(|h, f| (1.0 / (h + EPS)) * f), true, &mut chosen);
        mix[2] = chosen.len() - mix[0] - mix[1];
        // Uncertain negatives: min (1/H) · 1/f̂⁺ (high entropy, high likelihood).
        take(
            Box::new(|h, f| (1.0 / (h + EPS)) * (1.0 / (f + EPS))),
            false,
            &mut chosen,
        );
        mix[3] = chosen.len() - mix[0] - mix[1] - mix[2];
        chosen.sort_unstable();
        chosen.dedup();
        (chosen.into_iter().map(|i| self.pool[i]).collect(), mix)
    }

    /// Baseline sampler for the ablation study: the `n` highest-entropy
    /// pool pairs (classic uncertainty sampling, no balance/diversity).
    pub fn select_entropy_only(
        &mut self,
        matcher: &SiameseMatcher,
        n: usize,
    ) -> Vec<(usize, usize)> {
        let probs = self.score_pool(matcher);
        let mut ranked: Vec<(usize, f32)> = probs
            .iter()
            .enumerate()
            .map(|(i, &p)| (i, binary_entropy(p)))
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let idx: Vec<usize> = ranked.into_iter().take(n).map(|(i, _)| i).collect();
        let batch: Vec<(usize, usize)> = idx.iter().map(|&i| self.pool[i]).collect();
        self.pool.retain(|p| !batch.contains(p));
        batch
    }

    /// Baseline sampler for the ablation study: `n` uniformly random pool
    /// pairs instead of the balanced/informative/diverse batch.
    pub fn select_random(&mut self, n: usize) -> Vec<(usize, usize)> {
        use rand::RngExt;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n.min(self.pool.len()) {
            let i = self.rng.random_range(0..self.pool.len());
            out.push(self.pool.swap_remove(i));
        }
        out
    }

    /// Applies externally selected labels (used by ablation baselines).
    pub fn absorb_labels(&mut self, oracle: &Oracle, batch: &[(usize, usize)]) {
        for &(l, r) in batch {
            if oracle.label(l, r) {
                self.labeled_pos.push((l, r));
            } else {
                self.labeled_neg.push((l, r));
            }
        }
        self.pool.retain(|p| !batch.contains(p));
    }
}

/// Snapshot form of an [`ActiveLearner`]'s mutable state (payload magic
/// `VAERALS1`; wrapped in a `VAERCKP1` envelope on disk by [`AlSession`]).
struct AlState {
    fingerprint: u64,
    journal_seq: u64,
    bootstrap_corrections: usize,
    rng_state: [u64; 4],
    pool: Vec<(usize, usize)>,
    labeled_pos: Vec<(usize, usize)>,
    labeled_neg: Vec<(usize, usize)>,
    history: Vec<AlCheckpoint>,
}

const AL_STATE_MAGIC: &[u8; 8] = b"VAERALS1";

impl AlState {
    fn to_bytes(learner: &ActiveLearner<'_>) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(AL_STATE_MAGIC);
        out.extend_from_slice(&learner.repr.fingerprint().to_le_bytes());
        out.extend_from_slice(&learner.journal_seq.to_le_bytes());
        out.extend_from_slice(&(learner.bootstrap_corrections as u64).to_le_bytes());
        put_rng_state(&mut out, learner.rng.state());
        for pairs in [&learner.pool, &learner.labeled_pos, &learner.labeled_neg] {
            out.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
            for &(l, r) in pairs.iter() {
                out.extend_from_slice(&(l as u64).to_le_bytes());
                out.extend_from_slice(&(r as u64).to_le_bytes());
            }
        }
        out.extend_from_slice(&(learner.history.len() as u64).to_le_bytes());
        // vaer-lint: allow(cancel-probe-coverage) -- checkpoint codec: bounded by history length, no budget handle in the wire format
        for cp in &learner.history {
            out.extend_from_slice(&(cp.labels_used as u64).to_le_bytes());
            out.extend_from_slice(&(cp.pool_sizes.0 as u64).to_le_bytes());
            out.extend_from_slice(&(cp.pool_sizes.1 as u64).to_le_bytes());
            match cp.test_f1 {
                Some(f1) => {
                    out.push(1);
                    out.extend_from_slice(&f1.to_le_bytes());
                }
                None => out.push(0),
            }
            for n in cp.sample_mix {
                out.extend_from_slice(&(n as u64).to_le_bytes());
            }
            out.extend_from_slice(&cp.retrain_secs.to_bits().to_le_bytes());
        }
        out
    }

    /// Never panics, whatever the bytes are.
    fn from_bytes(bytes: &[u8]) -> Result<Self, CoreError> {
        let mut cur = Cur::new(bytes);
        if cur.take(8)? != AL_STATE_MAGIC {
            return Err(CoreError::Checkpoint("missing VAERALS1 magic".into()));
        }
        let fingerprint = cur.u64()?;
        let journal_seq = cur.u64()?;
        let bootstrap_corrections = cur.u64()? as usize;
        let rng_state = cur.rng_state()?;
        let read_pairs = |cur: &mut Cur| -> Result<Vec<(usize, usize)>, CoreError> {
            let n = cur.u64()? as usize;
            // Bounds-check before allocating: 16 bytes per pair remaining.
            if n.checked_mul(16)
                .filter(|&b| b <= cur.bytes.len())
                .is_none()
            {
                return Err(CoreError::Checkpoint("pair list length overflow".into()));
            }
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                pairs.push((cur.u64()? as usize, cur.u64()? as usize));
            }
            Ok(pairs)
        };
        let pool = read_pairs(&mut cur)?;
        let labeled_pos = read_pairs(&mut cur)?;
        let labeled_neg = read_pairs(&mut cur)?;
        let n_history = cur.u64()? as usize;
        if n_history
            .checked_mul(65)
            .filter(|&b| b <= cur.bytes.len())
            .is_none()
        {
            return Err(CoreError::Checkpoint("history length overflow".into()));
        }
        let mut history = Vec::with_capacity(n_history);
        // vaer-lint: allow(cancel-probe-coverage) -- checkpoint codec: bounded by the length-checked stored count
        for _ in 0..n_history {
            let labels_used = cur.u64()? as usize;
            let pool_sizes = (cur.u64()? as usize, cur.u64()? as usize);
            let test_f1 = match cur.take(1)?[0] {
                0 => None,
                1 => Some(f32::from_le_bytes(cur.take(4)?.try_into().unwrap())), // vaer-lint: allow(panic) -- take(4) yields exactly 4 bytes; infallible
                other => {
                    return Err(CoreError::Checkpoint(format!(
                        "bad test-F1 presence flag {other}"
                    )))
                }
            };
            let mut sample_mix = [0usize; 4];
            for slot in &mut sample_mix {
                *slot = cur.u64()? as usize;
            }
            let retrain_secs = f64::from_bits(cur.u64()?);
            history.push(AlCheckpoint {
                labels_used,
                pool_sizes,
                test_f1,
                sample_mix,
                retrain_secs,
            });
        }
        if cur.pos != cur.bytes.len() {
            return Err(CoreError::Checkpoint(
                "trailing bytes after AL state".into(),
            ));
        }
        Ok(Self {
            fingerprint,
            journal_seq,
            bootstrap_corrections,
            rng_state,
            pool,
            labeled_pos,
            labeled_neg,
            history,
        })
    }
}

/// Evaluates a matcher trained by the AL loop on a labelled test set,
/// returning standard P/R/F1.
pub fn evaluate_matcher(
    matcher: &SiameseMatcher,
    irs_a: &IrTable,
    irs_b: &IrTable,
    test: &PairSet,
) -> PrF1 {
    matcher.evaluate(&PairExamples::build(irs_a, irs_b, test))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repr::{ReprConfig, ReprModel};
    use vaer_linalg::{Matrix, XorShiftRng};

    /// A toy two-table world with `n` entities; B's rows 0..n are noisy
    /// duplicates of A's rows 0..n (identity alignment).
    struct World {
        repr: ReprModel,
        a: IrTable,
        b: IrTable,
        duplicates: Vec<(usize, usize)>,
    }

    fn world(n: usize, seed: u64) -> World {
        let ir_dim = 8;
        let mut rng = XorShiftRng::new(seed);
        let mut a_rows = Vec::new();
        let mut b_rows = Vec::new();
        for _ in 0..n {
            let center: Vec<f32> = (0..ir_dim).map(|_| rng.gaussian()).collect();
            let attr2: Vec<f32> = center.iter().map(|&x| x * -0.5 + 1.0).collect();
            let jitter = |c: &[f32], rng: &mut XorShiftRng| -> Vec<f32> {
                c.iter().map(|&x| x + 0.08 * rng.gaussian()).collect()
            };
            a_rows.push(jitter(&center, &mut rng));
            a_rows.push(jitter(&attr2, &mut rng));
            b_rows.push(jitter(&center, &mut rng));
            b_rows.push(jitter(&attr2, &mut rng));
        }
        let flat = |rows: &Vec<Vec<f32>>| {
            Matrix::from_vec(rows.len(), ir_dim, rows.iter().flatten().copied().collect())
        };
        let a = IrTable::new(2, flat(&a_rows));
        let b = IrTable::new(2, flat(&b_rows));
        let all = a.irs.vconcat(&b.irs);
        let (repr, _) = ReprModel::train(&all, &ReprConfig::fast(ir_dim)).unwrap();
        let duplicates = (0..n).map(|i| (i, i)).collect();
        World {
            repr,
            a,
            b,
            duplicates,
        }
    }

    #[test]
    fn bootstrap_seeds_are_mostly_correct() {
        let w = world(40, 1);
        let reprs_a = crate::entity::group_entities(w.repr.encode(&w.a.irs), 2);
        let reprs_b = crate::entity::group_entities(w.repr.encode(&w.b.irs), 2);
        let boot = bootstrap(&reprs_a, &reprs_b, &BootstrapConfig::default());
        assert!(!boot.positives.is_empty());
        assert!(!boot.negatives.is_empty());
        let dup: std::collections::HashSet<_> = w.duplicates.iter().copied().collect();
        let pos_correct = boot.positives.iter().filter(|p| dup.contains(p)).count() as f32
            / boot.positives.len() as f32;
        let neg_correct = boot.negatives.iter().filter(|p| !dup.contains(p)).count() as f32
            / boot.negatives.len() as f32;
        assert!(pos_correct > 0.6, "bootstrap positive purity {pos_correct}");
        assert!(neg_correct > 0.9, "bootstrap negative purity {neg_correct}");
    }

    #[test]
    fn bootstrap_empty_inputs() {
        let boot = bootstrap(&[], &[], &BootstrapConfig::default());
        assert!(boot.positives.is_empty() && boot.pool.is_empty());
    }

    #[test]
    fn al_improves_with_labels() {
        let w = world(40, 2);
        let oracle = Oracle::new(w.duplicates.iter().copied());
        let config = ActiveConfig {
            iterations: 4,
            matcher: MatcherConfig {
                epochs: 10,
                ..MatcherConfig::fast()
            },
            ..ActiveConfig::default()
        };
        let mut learner = ActiveLearner::new(&w.repr, &w.a, &w.b, config);
        // Build a small test set: duplicates + shifted negatives.
        let test: PairSet = (0..40)
            .map(|i| LabeledPair {
                left: i,
                right: i,
                is_match: true,
            })
            .chain((0..40).map(|i| LabeledPair {
                left: i,
                right: (i + 7) % 40,
                is_match: false,
            }))
            .collect();
        let test_examples = PairExamples::build(&w.a, &w.b, &test);
        let matcher = learner.run(&oracle, 80, Some(&test_examples)).unwrap();
        let history = learner.history();
        assert!(history.len() >= 2, "expected multiple checkpoints");
        let first = history.first().unwrap().test_f1.unwrap();
        let last = history.last().unwrap().test_f1.unwrap();
        assert!(last >= first - 0.05, "AL degraded: {first} -> {last}");
        let final_f1 = matcher.evaluate(&test_examples).f1;
        assert!(final_f1 > 0.7, "final F1 {final_f1}");
        // Label budget respected (bootstrap verification + iterations).
        assert!(oracle.queries_used() <= 90);
    }

    #[test]
    fn labeled_set_grows_each_iteration() {
        let w = world(30, 3);
        let oracle = Oracle::new(w.duplicates.iter().copied());
        let config = ActiveConfig {
            iterations: 2,
            matcher: MatcherConfig {
                epochs: 5,
                ..MatcherConfig::fast()
            },
            ..ActiveConfig::default()
        };
        let mut learner = ActiveLearner::new(&w.repr, &w.a, &w.b, config);
        let before = learner.labeled().len();
        learner.run(&oracle, 60, None).unwrap();
        let after = learner.labeled().len();
        assert!(
            after > before,
            "labelled pool did not grow: {before} -> {after}"
        );
        assert!(learner.pool_size() > 0);
    }

    #[test]
    fn cached_pool_scoring_matches_direct_prediction() {
        let w = world(25, 5);
        // The default keeps a small pool's encoder frozen; 0 fine-tunes
        // it, so the pool scores through the tuned encoder's caches.
        for (fine_tune_min_pairs, frozen) in [
            (MatcherConfig::default().fine_tune_min_pairs, true),
            (0, false),
        ] {
            let config = ActiveConfig {
                matcher: MatcherConfig {
                    fine_tune_min_pairs,
                    ..MatcherConfig::default()
                },
                ..ActiveConfig::default()
            };
            let learner = ActiveLearner::new(&w.repr, &w.a, &w.b, config);
            let matcher = learner.train_matcher().unwrap();
            assert_eq!(matcher.encoder_frozen(), frozen, "lane");
            let cached = learner.score_pool(&matcher);
            let direct = matcher.predict(&PairExamples::build_unlabeled(&w.a, &w.b, &learner.pool));
            assert_eq!(cached, direct, "cached probabilities diverged");

            // The cached trainer must be indistinguishable from the full one.
            let full = SiameseMatcher::train(
                &w.repr,
                &PairExamples::build(&w.a, &w.b, &learner.labeled()),
                &learner.config.matcher,
            )
            .unwrap();
            let via_full = full.predict(&PairExamples::build_unlabeled(&w.a, &w.b, &learner.pool));
            assert_eq!(cached, via_full, "cached training diverged");
        }
    }

    #[test]
    fn with_latents_matches_new_and_rejects_stale_caches() {
        let w = world(20, 6);
        let lat_a = LatentTable::encode(&w.repr, &w.a);
        let lat_b = LatentTable::encode(&w.repr, &w.b);
        let from_caches = ActiveLearner::with_latents(
            &w.repr,
            &w.a,
            &w.b,
            lat_a.clone(),
            lat_b.clone(),
            ActiveConfig::default(),
        );
        let fresh = ActiveLearner::new(&w.repr, &w.a, &w.b, ActiveConfig::default());
        assert_eq!(from_caches.pool, fresh.pool);
        assert_eq!(from_caches.labeled_pos, fresh.labeled_pos);
        assert_eq!(from_caches.labeled_neg, fresh.labeled_neg);

        let other = world(20, 7);
        let stale = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ActiveLearner::with_latents(
                &other.repr,
                &w.a,
                &w.b,
                lat_a,
                lat_b,
                ActiveConfig::default(),
            )
        }));
        assert!(stale.is_err(), "stale caches must be rejected");
    }

    #[test]
    fn state_round_trips_and_resume_rejects_bad_snapshots() {
        let w = world(25, 8);
        let oracle = Oracle::new(w.duplicates.iter().copied());
        let config = ActiveConfig {
            iterations: 1,
            matcher: MatcherConfig {
                epochs: 5,
                ..MatcherConfig::fast()
            },
            ..ActiveConfig::default()
        };
        let mut learner = ActiveLearner::new(&w.repr, &w.a, &w.b, config.clone());
        learner.run(&oracle, 30, None).unwrap();
        let state = learner.state_bytes();

        let resumed = ActiveLearner::resume(&w.repr, &w.a, &w.b, config.clone(), &state).unwrap();
        assert_eq!(resumed.pool, learner.pool);
        assert_eq!(resumed.labeled_pos, learner.labeled_pos);
        assert_eq!(resumed.labeled_neg, learner.labeled_neg);
        assert_eq!(resumed.journal_seq, learner.journal_seq);
        assert_eq!(resumed.history.len(), learner.history.len());
        assert_eq!(resumed.rng.state(), learner.rng.state());

        // A different representation model must be refused (fingerprint).
        let other = world(25, 9);
        assert!(matches!(
            ActiveLearner::resume(&other.repr, &w.a, &w.b, config.clone(), &state),
            Err(CoreError::Checkpoint(_))
        ));
        // Truncations and garbage never panic.
        for cut in [0, 7, 20, state.len() / 2, state.len() - 1] {
            assert!(
                ActiveLearner::resume(&w.repr, &w.a, &w.b, config.clone(), &state[..cut]).is_err()
            );
        }
    }

    #[test]
    fn resume_refreshes_stale_latent_caches() {
        let w = world(20, 10);
        let config = ActiveConfig {
            iterations: 1,
            matcher: MatcherConfig {
                epochs: 5,
                ..MatcherConfig::fast()
            },
            ..ActiveConfig::default()
        };
        let oracle = Oracle::new(w.duplicates.iter().copied());
        let mut learner = ActiveLearner::new(&w.repr, &w.a, &w.b, config.clone());
        learner.run(&oracle, 20, None).unwrap();
        let state = learner.state_bytes();

        // Caches built from *different* weights: resume must detect the
        // fingerprint mismatch and re-encode rather than panic (unlike
        // `with_latents`) or silently serve stale latents.
        let other = world(20, 11);
        let stale_a = LatentTable::encode(&other.repr, &w.a);
        let stale_b = LatentTable::encode(&other.repr, &w.b);
        assert!(stale_a.is_stale(&w.repr));
        let resumed = ActiveLearner::resume_with_latents(
            &w.repr, &w.a, &w.b, stale_a, stale_b, config, &state,
        )
        .unwrap();
        assert!(!resumed.lat_a.is_stale(&w.repr), "cache must be refreshed");
        assert!(!resumed.lat_b.is_stale(&w.repr), "cache must be refreshed");
        assert_eq!(resumed.labeled_pos, learner.labeled_pos);
    }

    #[test]
    fn random_sampler_consumes_pool() {
        let w = world(20, 4);
        let config = ActiveConfig::default();
        let mut learner = ActiveLearner::new(&w.repr, &w.a, &w.b, config);
        let pool_before = learner.pool_size();
        let batch = learner.select_random(5);
        assert_eq!(batch.len(), 5.min(pool_before));
        assert_eq!(learner.pool_size(), pool_before - batch.len());
        let oracle = Oracle::new(w.duplicates.iter().copied());
        learner.absorb_labels(&oracle, &batch);
        assert_eq!(oracle.queries_used(), batch.len());
    }
}
