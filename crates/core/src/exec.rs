//! Staged resolution executor: the deployment dataflow of §VI-B as
//! composable stages.
//!
//! Resolution is a fixed five-stage dataflow:
//!
//! ```text
//! Block ──► Encode ──► Score ──► Link ──► Cluster
//! ```
//!
//! * **Block** — LSH top-`k` join over the frozen latent means, producing
//!   candidate pairs ([`vaer_index::JoinCache`] memoises per `k`).
//! * **Encode** — Distance-layer features for the candidate pairs, read
//!   from the latent caches of the matcher's encoder.
//! * **Score** — matcher probabilities for the candidate pairs.
//!   Resolution and `Pipeline::predict` run the *fused* form
//!   ([`FusedScoreStage`]): encode → score in one pass per block of
//!   candidates, never materialising the full feature matrix
//!   ([`SCORE_BLOCK`] pairs per block), optionally through the int8 lane
//!   ([`ScorePrecision::Int8`]). [`EncodeStage`] and [`ScoreStage`] are
//!   the unfused adapters over the same matcher primitives.
//! * **Link** — threshold cut + greedy one-to-one matching, dropping
//!   NaN-probability candidates deterministically.
//! * **Cluster** — union-find consolidation into resolved entities.
//!
//! Each stage is an object with typed inputs/outputs ([`Stage`]); the
//! [`Executor`] wraps every invocation with a `vaer-obs` span named after
//! the stage, run counters, a registered `vaer-fault` failpoint, and —
//! when a [`crate::checkpoint::CheckpointStore`] is mounted — load/save of
//! the stage's artifact, so a killed resolution resumes from the last
//! durable stage instead of re-blocking and re-scoring.
//!
//! [`ResolvePlan`] owns the cross-run artifacts (the blocking join memo
//! and per-`k` probabilities; the E2Lsh index itself lives on the fitted
//! [`Pipeline`]) and re-runs the tail of the dataflow when only the
//! threshold changes. `Pipeline::{fit, predict, resolve}` are all
//! implemented on top of these stages; `Pipeline::resolve_reference`
//! keeps the pre-refactor monolith alive as the equivalence oracle.

use crate::checkpoint::CheckpointStore;
use crate::cluster::{cluster_links, EntityCluster};
use crate::latent::{self, LatentTable};
use crate::pipeline::{Pipeline, ScorePrecision};
use crate::repr::ReprModel;
use crate::resilience::{ResolutionHealth, RetryClass, RetryPolicy, RunBudget};
use crate::CoreError;
use std::cell::RefCell;
use std::collections::BTreeMap;
use vaer_index::{CandidatePair, JoinCache};
use vaer_linalg::Matrix;

pub use crate::matcher::SCORE_BLOCK;

/// Every executor stage, in dataflow order. Each name is simultaneously
/// the stage's obs span name and its registered failpoint; the
/// `stage-registry` lint rule holds this list against both registries.
pub const STAGES: &[&str] = &[
    "exec.block",
    "exec.encode",
    "exec.score",
    "exec.link",
    "exec.cluster",
];

/// Identity of a stage: names its span/failpoint and its checkpoint slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// LSH blocking join.
    Block,
    /// Pair-feature construction.
    Encode,
    /// Matcher scoring.
    Score,
    /// Threshold + one-to-one link selection.
    Link,
    /// Entity consolidation.
    Cluster,
}

impl StageKind {
    /// The registered span/failpoint name (an entry of [`STAGES`]).
    pub fn name(self) -> &'static str {
        match self {
            StageKind::Block => "exec.block",
            StageKind::Encode => "exec.encode",
            StageKind::Score => "exec.score",
            StageKind::Link => "exec.link",
            StageKind::Cluster => "exec.cluster",
        }
    }

    /// Checkpoint sequence slot (dataflow position, 1-based).
    pub fn seq(self) -> u64 {
        match self {
            StageKind::Block => 1,
            StageKind::Encode => 2,
            StageKind::Score => 3,
            StageKind::Link => 4,
            StageKind::Cluster => 5,
        }
    }

    /// Fires this stage's failpoint. Names are spelled out literally so
    /// the failpoint registry lint sees one call site per entry.
    ///
    /// # Panics
    /// Panics when the stage's failpoint is armed with
    /// [`vaer_fault::Action::Panic`] — the injected-crash feature.
    fn trigger(self) -> Option<vaer_fault::Action> {
        match self {
            StageKind::Block => vaer_fault::trigger("exec.block"),
            StageKind::Encode => vaer_fault::trigger("exec.encode"),
            StageKind::Score => vaer_fault::trigger("exec.score"),
            StageKind::Link => vaer_fault::trigger("exec.link"),
            StageKind::Cluster => vaer_fault::trigger("exec.cluster"),
        }
    }

    /// Opens this stage's obs span. Literal names for the same reason as
    /// [`trigger`](Self::trigger).
    fn span(self) -> vaer_obs::SpanGuard {
        match self {
            StageKind::Block => vaer_obs::span("exec.block"),
            StageKind::Encode => vaer_obs::span("exec.encode"),
            StageKind::Score => vaer_obs::span("exec.score"),
            StageKind::Link => vaer_obs::span("exec.link"),
            StageKind::Cluster => vaer_obs::span("exec.cluster"),
        }
    }
}

/// One resolution stage: a typed `Input → Output` transform plus
/// optional checkpoint (de)serialisation of its artifact.
///
/// Implementations are cheap transient objects borrowing the fitted
/// pipeline's artifacts; all policy (spans, counters, failpoints,
/// durability) lives in [`Executor::run`], so a stage body is exactly the
/// computation.
pub trait Stage {
    /// What the stage consumes.
    type Input;
    /// What the stage produces.
    type Output;

    /// Which stage this is (names the span, failpoint, checkpoint slot).
    fn kind(&self) -> StageKind;

    /// The stage computation.
    ///
    /// # Errors
    /// Stage-specific input validation ([`CoreError::BadInput`]).
    fn run(&mut self, input: Self::Input) -> Result<Self::Output, CoreError>;

    /// Serialises the artifact for checkpointing; `None` (the default)
    /// means the stage's output is cheap to recompute and is never
    /// persisted.
    fn save(&self, _out: &Self::Output) -> Option<Vec<u8>> {
        None
    }

    /// Deserialises a checkpointed artifact; `None` on any mismatch, in
    /// which case the executor recomputes.
    fn load(&self, _bytes: &[u8]) -> Option<Self::Output> {
        None
    }
}

/// Runs stages with uniform telemetry, fault injection, durability, and
/// resilience policy (budget probes, retries, degradation accounting).
///
/// Checkpointed artifacts are stamped with the caller's `fingerprint`
/// (for a [`ResolvePlan`], the fitted pipeline's content stamp salted
/// with the plan parameters); a stored artifact whose stamp does not
/// match is ignored, not trusted. A stored artifact that *should*
/// match but cannot be read back (torn envelope, CRC failure, undecodable
/// body) degrades to a recompute and is recorded in the executor's
/// [`ResolutionHealth`] rather than silently swallowed.
#[derive(Default)]
pub struct Executor {
    store: Option<CheckpointStore>,
    budget: RunBudget,
    retry: RetryPolicy,
    health: RefCell<ResolutionHealth>,
}

impl Executor {
    /// An executor without durability: stages always recompute.
    pub fn new() -> Self {
        Self::default()
    }

    /// An executor that loads/saves checkpointable stage artifacts in
    /// `store`.
    pub fn with_checkpoints(store: CheckpointStore) -> Self {
        Self {
            store: Some(store),
            ..Self::default()
        }
    }

    /// Installs the run budget probed at every stage boundary (and handed
    /// to stages with long inner loops).
    pub fn set_budget(&mut self, budget: RunBudget) {
        self.budget = budget;
    }

    /// The installed run budget (defaults to unlimited).
    pub fn budget(&self) -> &RunBudget {
        &self.budget
    }

    /// Installs the retry policy [`run_retrying`](Self::run_retrying)
    /// applies to transient stage failures (defaults to
    /// [`RetryPolicy::none`]).
    pub fn set_retry(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Records a degradation into this executor's health accumulator
    /// (also fires the matching obs event and counter).
    pub fn note_degrade(&self, name: &'static str, detail: impl Into<String>) {
        self.health.borrow_mut().degrade(name, detail);
    }

    /// Clears accumulated health (call at the start of a logical run).
    pub fn reset_health(&self) {
        *self.health.borrow_mut() = ResolutionHealth::default();
    }

    /// Takes the accumulated health, leaving a clean slate behind.
    pub fn take_health(&self) -> ResolutionHealth {
        std::mem::take(&mut *self.health.borrow_mut())
    }

    /// Runs one stage: budget probe + span + counters + failpoint,
    /// resuming from a fingerprint-matching checkpoint when possible and
    /// persisting the artifact afterwards when the stage opts in via
    /// [`Stage::save`].
    ///
    /// # Errors
    /// The stage's own validation errors, [`CoreError::Io`] when the
    /// stage's failpoint injects one or a checkpoint write fails,
    /// [`CoreError::Cancelled`] / [`CoreError::DeadlineExceeded`] when the
    /// installed budget trips at the stage boundary.
    ///
    /// # Panics
    /// Panics when the stage's failpoint is armed with
    /// [`vaer_fault::Action::Panic`] (injected crash).
    pub fn run<S: Stage>(
        &self,
        stage: &mut S,
        input: S::Input,
        fingerprint: u64,
    ) -> Result<S::Output, CoreError> {
        let kind = stage.kind();
        self.budget.probe(kind.name())?;
        let _span = kind.span();
        crate::obs::handles().exec_stage_runs.incr();
        if let Some(vaer_fault::Action::Err) = kind.trigger() {
            return Err(CoreError::Io(std::io::Error::other(format!(
                "injected failure at stage {}",
                kind.name()
            ))));
        }
        if let Some(store) = &self.store {
            match try_resume(store, stage, fingerprint) {
                Resume::Hit(out) => {
                    crate::obs::handles().exec_stage_resumed.incr();
                    return Ok(out);
                }
                Resume::Corrupt(why) => self.note_degrade(
                    "degrade.stage.recompute",
                    format!("{} checkpoint unusable ({why}); recomputing", kind.name()),
                ),
                Resume::Miss => {}
            }
        }
        let out = stage.run(input)?;
        if let Some(store) = &self.store {
            if let Some(body) = stage.save(&out) {
                let mut payload = fingerprint.to_le_bytes().to_vec();
                payload.extend_from_slice(&body);
                let retries = store.write(kind.seq(), &payload, &self.budget)?;
                if retries > 0 {
                    self.health.borrow_mut().add_retries(retries);
                }
            }
        }
        Ok(out)
    }

    /// [`run`](Self::run) wrapped in the installed [`RetryPolicy`]: a
    /// retryable stage failure (per [`RetryClass`]) is re-attempted with
    /// backoff, within the budget. With the default `RetryPolicy::none`
    /// this is exactly `run` — fault-injection contracts on plans that
    /// never opted in stay exact.
    ///
    /// # Errors
    /// Same as [`run`](Self::run); the last attempt's error when retries
    /// are exhausted.
    ///
    /// # Panics
    /// Same as [`run`](Self::run).
    pub fn run_retrying<S: Stage>(
        &self,
        stage: &mut S,
        input: S::Input,
        fingerprint: u64,
    ) -> Result<S::Output, CoreError>
    where
        S::Input: Clone,
    {
        if !self.retry.retries() {
            return self.run(stage, input, fingerprint);
        }
        let mut retries = 0u32;
        let out = self.retry.run(
            &self.budget,
            |_| self.run(stage, input.clone(), fingerprint),
            |_, _| {
                retries += 1;
                crate::obs::handles().exec_stage_retries.add(1);
            },
        );
        if retries > 0 {
            self.health.borrow_mut().add_retries(retries);
        }
        out
    }
}

/// Outcome of a checkpoint-resume attempt.
enum Resume<T> {
    /// A fingerprint-matching artifact was loaded.
    Hit(T),
    /// No usable artifact for this run (absent, or stamped by a run with
    /// different parameters) — the expected cold-start case.
    Miss,
    /// An artifact that should have served this run exists but cannot be
    /// trusted (torn/CRC-failed envelope, undecodable body). The executor
    /// degrades to recompute and records why.
    Corrupt(String),
}

/// Loads a stage's checkpointed artifact when present, uncorrupted, and
/// stamped with the expected fingerprint.
fn try_resume<S: Stage>(store: &CheckpointStore, stage: &S, fingerprint: u64) -> Resume<S::Output> {
    let payload = match store.read(stage.kind().seq()) {
        Ok(p) => p,
        // Every stored generation failed validation — corruption, not a
        // cold start (an empty slot reads as a clean NotFound Io error).
        Err(CoreError::Checkpoint(why)) => return Resume::Corrupt(why),
        Err(_) => return Resume::Miss,
    };
    let stamp = match payload.get(..8).and_then(|b| <[u8; 8]>::try_from(b).ok()) {
        Some(b) => u64::from_le_bytes(b),
        None => return Resume::Corrupt("fingerprint stamp truncated".into()),
    };
    if stamp != fingerprint {
        // A different run's artifact: stale, not corrupt.
        return Resume::Miss;
    }
    match stage.load(&payload[8..]) {
        Some(out) => Resume::Hit(out),
        None => Resume::Corrupt("artifact body failed to decode".into()),
    }
}

// ---------------------------------------------------------------------
// Concrete stages
// ---------------------------------------------------------------------

/// Block: top-`k` LSH join of table A's latent means against the
/// plan-owned index over table B's.
pub struct BlockStage<'c, 'p> {
    /// Per-`k` join memo owned by the plan.
    pub cache: &'c mut JoinCache<'p>,
    /// Run budget probed once per query row inside the join (a memoised
    /// `k` is served without probing).
    pub budget: RunBudget,
}

impl Stage for BlockStage<'_, '_> {
    type Input = usize;
    type Output = Vec<CandidatePair>;

    fn kind(&self) -> StageKind {
        StageKind::Block
    }

    fn run(&mut self, k: usize) -> Result<Self::Output, CoreError> {
        let budget = &self.budget;
        let mut stop = None;
        let mut probe = || match budget.probe("exec.block") {
            Ok(()) => false,
            Err(e) => {
                stop = Some(e);
                true
            }
        };
        match self.cache.candidates_probed(k, &mut probe) {
            Some(c) => Ok(c.to_vec()),
            None => {
                Err(stop.unwrap_or_else(|| CoreError::Cancelled("blocking join abandoned".into())))
            }
        }
    }

    fn save(&self, out: &Self::Output) -> Option<Vec<u8>> {
        Some(save_candidates(out))
    }

    fn load(&self, bytes: &[u8]) -> Option<Self::Output> {
        load_candidates(bytes)
    }
}

/// Bit-exact candidate-list serialisation (u64 count, then
/// `(left, right, distance-bits)` records).
fn save_candidates(out: &[CandidatePair]) -> Vec<u8> {
    let mut bytes = (out.len() as u64).to_le_bytes().to_vec();
    for c in out {
        bytes.extend_from_slice(&(c.left as u64).to_le_bytes());
        bytes.extend_from_slice(&(c.right as u64).to_le_bytes());
        bytes.extend_from_slice(&c.distance.to_bits().to_le_bytes());
    }
    bytes
}

fn load_candidates(bytes: &[u8]) -> Option<Vec<CandidatePair>> {
    let n = u64::from_le_bytes(bytes.get(..8)?.try_into().ok()?) as usize;
    let body = bytes.get(8..)?;
    if body.len() != n * 20 {
        return None;
    }
    let mut out = Vec::with_capacity(n);
    for rec in body.chunks_exact(20) {
        out.push(CandidatePair {
            left: u64::from_le_bytes(rec[..8].try_into().ok()?) as usize,
            right: u64::from_le_bytes(rec[8..16].try_into().ok()?) as usize,
            distance: f32::from_bits(u32::from_le_bytes(rec[16..].try_into().ok()?)),
        });
    }
    Some(out)
}

/// Encode: Distance-layer features for candidate `(a_row, b_row)` pairs,
/// read from the latent caches of the matcher's encoder — the unfused
/// adapter ahead of [`ScoreStage`].
pub struct EncodeStage<'p> {
    /// The fitted pipeline whose caches feed the features.
    pub pipeline: &'p Pipeline,
}

impl Stage for EncodeStage<'_> {
    type Input = Vec<(usize, usize)>;
    type Output = Matrix;

    fn kind(&self) -> StageKind {
        StageKind::Encode
    }

    fn run(&mut self, pairs: Self::Input) -> Result<Self::Output, CoreError> {
        let p = self.pipeline;
        let ((a, b), kind) = (p.score_latents(), p.matcher.config().distance);
        Ok(latent::distance_features(kind, a, b, &pairs))
    }
}

/// Encode (fit-time variant): one table's IRs into a latent cache. Same
/// stage identity as [`EncodeStage`] — it is the same dataflow node,
/// reached from `fit` instead of `resolve`.
pub struct EncodeTableStage<'a> {
    /// The representation model, or a fine-tuned matcher's encoder.
    pub repr: &'a ReprModel,
    /// The IR table to encode.
    pub table: &'a crate::entity::IrTable,
}

impl Stage for EncodeTableStage<'_> {
    type Input = ();
    type Output = LatentTable;

    fn kind(&self) -> StageKind {
        StageKind::Encode
    }

    fn run(&mut self, (): ()) -> Result<Self::Output, CoreError> {
        Ok(LatentTable::encode(self.repr, self.table))
    }
}

/// Score: f32 matcher probabilities for [`EncodeStage`] features — the
/// unfused adapter over the same scoring primitive [`FusedScoreStage`]
/// runs per block.
pub struct ScoreStage<'p> {
    /// The fitted pipeline whose matcher scores the features.
    pub pipeline: &'p Pipeline,
}

impl Stage for ScoreStage<'_> {
    type Input = Matrix;
    type Output = Vec<f32>;

    fn kind(&self) -> StageKind {
        StageKind::Score
    }

    fn run(&mut self, features: Matrix) -> Result<Self::Output, CoreError> {
        Ok(self.pipeline.matcher.mlp_probs(&features))
    }

    fn save(&self, out: &Self::Output) -> Option<Vec<u8>> {
        Some(save_probs(out))
    }

    fn load(&self, bytes: &[u8]) -> Option<Self::Output> {
        load_probs(bytes)
    }
}

/// Bit-exact probability serialisation (u64 count, then f32 bit
/// patterns) — NaNs survive the round trip unchanged.
fn save_probs(out: &[f32]) -> Vec<u8> {
    let mut bytes = (out.len() as u64).to_le_bytes().to_vec();
    for p in out {
        bytes.extend_from_slice(&p.to_bits().to_le_bytes());
    }
    bytes
}

fn load_probs(bytes: &[u8]) -> Option<Vec<f32>> {
    let n = u64::from_le_bytes(bytes.get(..8)?.try_into().ok()?) as usize;
    let body = bytes.get(8..)?;
    if body.len() != n * 4 {
        return None;
    }
    let mut out = Vec::with_capacity(n);
    for rec in body.chunks_exact(4) {
        out.push(f32::from_bits(u32::from_le_bytes(rec.try_into().ok()?)));
    }
    Some(out)
}

/// Score (fused): encode → score over the candidate pairs, one pass per
/// block — the one Score body of resolution and `Pipeline::predict`.
/// The full feature matrix is never materialised (see [`SCORE_BLOCK`]).
/// Same stage identity (span, failpoint, checkpoint slot) as
/// [`ScoreStage`]; `exec.encode` simply never fires during a fused
/// resolution.
pub struct FusedScoreStage<'p> {
    /// The fitted pipeline whose latent caches and matcher score pairs.
    pub pipeline: &'p Pipeline,
    /// Which scoring lane to run. `Int8` requires the pipeline to carry a
    /// calibrated [`crate::quant::QuantizedMatcher`].
    pub precision: ScorePrecision,
    /// Run budget probed once per scoring block, so cancellation and
    /// deadlines surface mid-Score instead of only at stage boundaries.
    pub budget: RunBudget,
}

impl Stage for FusedScoreStage<'_> {
    type Input = Vec<(usize, usize)>;
    type Output = Vec<f32>;

    fn kind(&self) -> StageKind {
        StageKind::Score
    }

    fn run(&mut self, pairs: Self::Input) -> Result<Self::Output, CoreError> {
        let p = self.pipeline;
        let int8 = match self.precision {
            ScorePrecision::F32 => None,
            ScorePrecision::Int8 => Some(p.quantized_matcher().ok_or_else(|| {
                CoreError::BadInput(
                    "int8 scoring requested but the pipeline has no quantized matcher".into(),
                )
            })?),
        };
        p.matcher
            .score_pairs(p.score_latents(), &pairs, int8, &self.budget)
    }

    fn save(&self, out: &Self::Output) -> Option<Vec<u8>> {
        Some(save_probs(out))
    }

    fn load(&self, bytes: &[u8]) -> Option<Self::Output> {
        load_probs(bytes)
    }
}

/// Link: threshold cut plus greedy one-to-one matching by descending
/// probability. Candidates whose probability is NaN (an upstream model
/// pathology) are dropped before the cut, deterministically — they can
/// neither link nor perturb the sort.
pub struct LinkStage {
    /// Minimum probability for a candidate to become a link.
    pub threshold: f32,
}

impl Stage for LinkStage {
    type Input = (Vec<CandidatePair>, Vec<f32>);
    type Output = Vec<(usize, usize, f32)>;

    fn kind(&self) -> StageKind {
        StageKind::Link
    }

    fn run(&mut self, (candidates, probs): Self::Input) -> Result<Self::Output, CoreError> {
        if candidates.len() != probs.len() {
            return Err(CoreError::BadInput(format!(
                "{} candidates scored with {} probabilities",
                candidates.len(),
                probs.len()
            )));
        }
        let mut links: Vec<(usize, usize, f32)> = candidates
            .iter()
            .zip(&probs)
            .filter(|(_, &p)| !p.is_nan() && p >= self.threshold)
            .map(|(c, &p)| (c.left, c.right, p))
            .collect();
        // NaN-free by construction, so partial_cmp is total here; the
        // stable sort keeps candidate order among equal probabilities.
        links.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
        let mut used_a = UsedRows::new(links.len());
        let mut used_b = UsedRows::new(links.len());
        links.retain(|&(a, b, _)| match (used_a.find(a), used_b.find(b)) {
            (Err(slot_a), Err(slot_b)) => {
                used_a.slots[slot_a] = Some(a);
                used_b.slots[slot_b] = Some(b);
                true
            }
            _ => false,
        });
        Ok(links)
    }
}

/// The rows one side of [`LinkStage`] has linked: an open-addressed table
/// of at least twice as many slots as there are survivors of the cut, so
/// it is at most half full and its size follows the survivors, never the
/// largest row id (any `usize` is a row).
struct UsedRows {
    slots: Vec<Option<usize>>,
    /// `64 - log2(slots.len())`: a hash's top bits pick the home slot.
    shift: u32,
}

impl UsedRows {
    fn new(survivors: usize) -> Self {
        let len = (2 * survivors).next_power_of_two().max(2);
        Self {
            slots: vec![None; len],
            shift: 64 - len.trailing_zeros(),
        }
    }

    /// `Ok` with `row`'s slot when it is marked, else `Err` with the free
    /// slot that marks it (the convention of `slice::binary_search`).
    fn find(&self, row: usize) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i = ((row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        // vaer-lint: allow(cancel-probe-coverage) -- linear probe bounded by the table length; the table is at most half full
        loop {
            match self.slots[i] {
                None => return Err(i),
                Some(r) if r == row => return Ok(i),
                Some(_) => i = (i + 1) & mask,
            }
        }
    }
}

/// Cluster: union-find consolidation of links into resolved entities.
pub struct ClusterStage {
    /// Rows in table A.
    pub len_a: usize,
    /// Rows in table B.
    pub len_b: usize,
    /// Whether unlinked rows become singleton clusters.
    pub include_singletons: bool,
}

impl Stage for ClusterStage {
    type Input = Vec<(usize, usize)>;
    type Output = Vec<EntityCluster>;

    fn kind(&self) -> StageKind {
        StageKind::Cluster
    }

    fn run(&mut self, links: Self::Input) -> Result<Self::Output, CoreError> {
        cluster_links(&links, self.len_a, self.len_b, self.include_singletons)
    }
}

// ---------------------------------------------------------------------
// ResolvePlan
// ---------------------------------------------------------------------

/// The outcome of one [`ResolvePlan::run`].
#[derive(Debug, Clone)]
pub struct Resolution {
    /// `(a_row, b_row, probability)` links, descending probability,
    /// one-to-one.
    pub links: Vec<(usize, usize, f32)>,
    /// Candidate pairs the blocking stage produced for this `k`.
    pub candidates: usize,
    /// Whether Block/Encode/Score were skipped because this `k` was
    /// already scored at this precision by an earlier run (threshold-only
    /// re-run).
    pub reused: bool,
    /// The precision that actually scored this run. An `Int8` request
    /// falls back to `F32` when the pipeline carries no quantized matcher
    /// (fine-tuned encoder) or when the int8 lane degrades mid-run; every
    /// such downgrade is recorded in [`health`](Self::health).
    pub precision: ScorePrecision,
    /// Degradations and retries this run survived. A clean run reports
    /// [`ResolutionHealth::is_clean`]; anything else means the result is
    /// honest but was produced on a fallback path.
    pub health: ResolutionHealth,
}

/// A re-runnable resolution over one fitted pipeline.
///
/// The plan owns the cross-run artifacts: the per-`k` blocking join memo
/// and the per-`(k, precision)` candidate probabilities (the E2Lsh index
/// itself is owned by the [`Pipeline`] and shared by every plan).
/// Re-running with a new `threshold` at a known `(k, precision)` executes
/// only the Link stage; re-running with a new `k` re-blocks and re-scores
/// but never rebuilds the index; f32 and int8 score memos coexist and
/// never mix. Artifacts never invalidate mid-plan because the pipeline is
/// immutable once fitted; a newly fitted (or transferred) pipeline means
/// a new plan.
pub struct ResolvePlan<'p> {
    pipeline: &'p Pipeline,
    executor: Executor,
    blocks: JoinCache<'p>,
    scored: BTreeMap<(usize, ScorePrecision), Vec<f32>>,
}

impl<'p> ResolvePlan<'p> {
    /// A plan over `pipeline` whose stages run under `budget`, building
    /// the blocking index now (unbudgeted) if no earlier plan/resolve call
    /// already has. [`Pipeline::resolve_plan_budgeted`] builds the index
    /// under the budget first, so a plan it opens finds it built.
    pub(crate) fn new(pipeline: &'p Pipeline, budget: RunBudget) -> Self {
        let mut executor = Executor::new();
        executor.set_budget(budget);
        Self {
            pipeline,
            executor,
            blocks: JoinCache::new(pipeline.lat_a.mu_rows(), pipeline.blocking_index()),
            scored: BTreeMap::new(),
        }
    }

    /// Mounts a checkpoint store: Block and Score artifacts become
    /// durable, and a plan opened on the same store after a crash resumes
    /// from them instead of recomputing.
    pub fn with_checkpoints(mut self, store: CheckpointStore) -> Self {
        let budget = self.executor.budget().clone();
        self.executor = Executor::with_checkpoints(store);
        self.executor.set_budget(budget);
        self
    }

    /// Replaces the stage budget (deadline/cancellation) probed at stage
    /// boundaries and inside long stage loops. The blocking index is
    /// already built by the time a plan exists; use
    /// [`Pipeline::resolve_plan_budgeted`] to bound that too.
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.executor.set_budget(budget);
        self
    }

    /// Installs a retry policy: transient stage failures (injected IO
    /// faults, torn checkpoint reads) are re-attempted with backoff
    /// instead of failing the run. Defaults to [`RetryPolicy::none`].
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.executor.set_retry(retry);
        self
    }

    /// The precision that will actually score, given a request: `Int8`
    /// downgrades to `F32` when no quantized matcher was calibrated at
    /// fit time (fine-tuned encoder).
    fn effective_precision(&self, requested: ScorePrecision) -> ScorePrecision {
        match requested {
            ScorePrecision::Int8 if self.pipeline.quantized_matcher().is_none() => {
                ScorePrecision::F32
            }
            p => p,
        }
    }

    /// Stamp for checkpointed artifacts: the pipeline's content stamp,
    /// computed once per fit, salted with `k` and the scoring precision
    /// (an int8 probability checkpoint must never resume an f32 run).
    fn fingerprint(&self, k: usize, precision: ScorePrecision) -> u64 {
        let salt = match precision {
            ScorePrecision::F32 => 0,
            ScorePrecision::Int8 => 0x18A7_C0DE_0000_0001,
        };
        self.pipeline.stamp ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt
    }

    /// Runs Block → Score (fused) → Link for this `(k, threshold)` at the
    /// pipeline's configured
    /// [`score_precision`](crate::pipeline::PipelineConfig::score_precision),
    /// reusing every artifact an earlier run of this plan produced.
    ///
    /// # Errors
    /// Stage validation errors, or [`CoreError::Io`] from injected
    /// failpoints / checkpoint writes.
    pub fn run(&mut self, k: usize, threshold: f32) -> Result<Resolution, CoreError> {
        self.run_with_precision(k, threshold, self.pipeline.config.score_precision)
    }

    /// [`run`](Self::run) with an explicit scoring precision, overriding
    /// the pipeline configuration for this invocation only.
    ///
    /// # Errors
    /// Same as [`run`](Self::run).
    pub fn run_with_precision(
        &mut self,
        k: usize,
        threshold: f32,
        precision: ScorePrecision,
    ) -> Result<Resolution, CoreError> {
        crate::obs::handles().exec_plan_runs.incr();
        self.executor.reset_health();
        let requested = precision;
        let mut precision = self.effective_precision(precision);
        if requested == ScorePrecision::Int8 && precision == ScorePrecision::F32 {
            self.executor.note_degrade(
                "degrade.score.f32_fallback",
                "int8 requested but no quantized matcher is calibrated; scoring f32",
            );
        }
        let mut fingerprint = self.fingerprint(k, precision);
        let mut reused = self.blocks.contains(k) && self.scored.contains_key(&(k, precision));
        if reused {
            // Memo-poisoning ladder: a score memo whose length disagrees
            // with its candidate list can only produce garbage links —
            // rebuild this k cold instead of trusting it.
            let n_probs = self.scored[&(k, precision)].len();
            let n_cands = self.blocks.candidates(k).len();
            if n_probs != n_cands {
                self.executor.note_degrade(
                    "degrade.plan.rebuild",
                    format!(
                        "poisoned memo for k={k}: {n_probs} probabilities for {n_cands} \
                         candidates; rebuilding cold"
                    ),
                );
                self.scored.remove(&(k, precision));
                self.blocks.invalidate(k);
                reused = false;
            }
        }
        let (candidates, probs) = if reused {
            crate::obs::handles().exec_plan_cache_hits.incr();
            (
                self.blocks.candidates(k).to_vec(),
                self.scored[&(k, precision)].clone(),
            )
        } else {
            let candidates = self.executor.run_retrying(
                &mut BlockStage {
                    cache: &mut self.blocks,
                    budget: self.executor.budget().clone(),
                },
                k,
                fingerprint,
            )?;
            // A checkpoint-resumed Block bypasses the join memo; seed it
            // so threshold re-runs stay pure cache hits.
            if !self.blocks.contains(k) {
                self.blocks.insert(k, candidates.clone());
            }
            let pairs: Vec<(usize, usize)> = candidates.iter().map(|c| (c.left, c.right)).collect();
            let probs = match self.score(pairs.clone(), precision, fingerprint) {
                Ok(p) => p,
                // Int8-lane ladder: a transiently failing quantized Score
                // retries (inside `score`) and then degrades to the f32
                // lane rather than failing the resolution. Fatal errors
                // (bad input, cancellation, deadline) are not masked.
                Err(e) if precision == ScorePrecision::Int8 && e.retryable() => {
                    self.executor.note_degrade(
                        "degrade.score.f32_fallback",
                        format!("int8 score lane failed ({e}); retrying on the f32 lane"),
                    );
                    precision = ScorePrecision::F32;
                    fingerprint = self.fingerprint(k, precision);
                    self.score(pairs, precision, fingerprint)?
                }
                Err(e) => return Err(e),
            };
            self.scored.insert((k, precision), probs.clone());
            (candidates, probs)
        };
        let n_candidates = candidates.len();
        let links = self.executor.run_retrying(
            &mut LinkStage { threshold },
            (candidates, probs),
            fingerprint,
        )?;
        Ok(Resolution {
            links,
            candidates: n_candidates,
            reused,
            precision,
            health: self.executor.take_health(),
        })
    }

    /// Seeds (or, in tests, deliberately poisons) the score memo for
    /// `(k, precision)`. A seeded entry whose length disagrees with the
    /// blocking memo is detected on the next run and rebuilt cold via the
    /// `degrade.plan.rebuild` ladder.
    pub fn seed_scores(&mut self, k: usize, precision: ScorePrecision, probs: Vec<f32>) {
        self.scored.insert((k, precision), probs);
    }

    /// One fused Score run over `pairs` at `precision`, under the plan's
    /// retry policy, stamped with `fingerprint`.
    fn score(
        &self,
        pairs: Vec<(usize, usize)>,
        precision: ScorePrecision,
        fingerprint: u64,
    ) -> Result<Vec<f32>, CoreError> {
        self.executor.run_retrying(
            &mut FusedScoreStage {
                pipeline: self.pipeline,
                precision,
                budget: self.executor.budget().clone(),
            },
            pairs,
            fingerprint,
        )
    }

    /// Runs the full dataflow through Cluster: resolved entity clusters
    /// at this `(k, threshold)`.
    ///
    /// # Errors
    /// Same as [`run`](Self::run).
    pub fn entities(
        &mut self,
        k: usize,
        threshold: f32,
        include_singletons: bool,
    ) -> Result<Vec<EntityCluster>, CoreError> {
        let resolution = self.run(k, threshold)?;
        let fingerprint = self.fingerprint(k, resolution.precision);
        let links: Vec<(usize, usize)> = resolution.links.iter().map(|&(a, b, _)| (a, b)).collect();
        self.executor.run(
            &mut ClusterStage {
                len_a: self.pipeline.lat_a.len(),
                len_b: self.pipeline.lat_b.len(),
                include_singletons,
            },
            links,
            fingerprint,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_match_registries() {
        // Defense in depth alongside the `stage-registry` lint rule: the
        // executor's stage list is a subset of both closed registries.
        for name in STAGES {
            assert!(
                vaer_fault::FAILPOINTS.contains(name),
                "stage {name} missing from FAILPOINTS"
            );
            assert!(
                vaer_obs::registry::is_registered(name),
                "stage {name} outside registered obs namespaces"
            );
        }
        let kinds = [
            StageKind::Block,
            StageKind::Encode,
            StageKind::Score,
            StageKind::Link,
            StageKind::Cluster,
        ];
        let names: Vec<&str> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(names, STAGES, "StageKind::name drifted from STAGES");
        let mut seqs: Vec<u64> = kinds.iter().map(|k| k.seq()).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), kinds.len(), "checkpoint slots collide");
    }

    #[test]
    fn link_stage_is_one_to_one_sorted_and_validates() {
        let cand = |l: usize, r: usize| CandidatePair {
            left: l,
            right: r,
            distance: 0.0,
        };
        let candidates = vec![cand(0, 0), cand(0, 1), cand(1, 1), cand(2, 2)];
        let probs = vec![0.7, 0.9, 0.8, 0.2];
        let mut stage = LinkStage { threshold: 0.5 };
        let links = stage.run((candidates.clone(), probs)).unwrap();
        // (0,1) wins row 0 at 0.9; (1,1) then loses column 1; (0,0) loses
        // row 0; (2,2) is under threshold.
        assert_eq!(links, vec![(0, 1, 0.9)]);
        let err = stage.run((candidates, vec![0.5])).unwrap_err();
        assert!(matches!(err, CoreError::BadInput(_)), "{err}");
    }

    #[test]
    fn link_stage_drops_nan_probabilities_deterministically() {
        let cand = |l: usize, r: usize| CandidatePair {
            left: l,
            right: r,
            distance: 0.0,
        };
        let candidates = vec![cand(0, 0), cand(1, 1), cand(2, 2)];
        let probs = vec![0.9, f32::NAN, 0.8];
        let mut stage = LinkStage { threshold: 0.5 };
        let first = stage.run((candidates.clone(), probs.clone())).unwrap();
        assert_eq!(first, vec![(0, 0, 0.9), (2, 2, 0.8)]);
        for _ in 0..10 {
            assert_eq!(
                stage.run((candidates.clone(), probs.clone())).unwrap(),
                first,
                "NaN handling was not deterministic"
            );
        }
    }

    #[test]
    fn link_stage_keeps_candidate_order_among_equal_probabilities() {
        let cand = |l: usize, r: usize| CandidatePair {
            left: l,
            right: r,
            distance: 0.0,
        };
        // Four 0.9 candidates contend for row 0 and column 1 behind a 0.6
        // one: among the ties the earlier candidate links first and
        // claims its row and column.
        let candidates = vec![cand(2, 2), cand(0, 1), cand(3, 3), cand(0, 0), cand(1, 1)];
        let probs = vec![0.6, 0.9, 0.9, 0.9, 0.9];
        let mut stage = LinkStage { threshold: 0.5 };
        let links = stage.run((candidates.clone(), probs.clone())).unwrap();
        assert_eq!(links, vec![(0, 1, 0.9), (3, 3, 0.9), (2, 2, 0.6)]);
        // Reversed candidates: the other ties win.
        let reversed = (
            candidates.into_iter().rev().collect(),
            probs.into_iter().rev().collect(),
        );
        assert_eq!(
            stage.run(reversed).unwrap(),
            vec![(1, 1, 0.9), (0, 0, 0.9), (3, 3, 0.9), (2, 2, 0.6)]
        );
    }

    #[test]
    fn block_and_score_artifacts_roundtrip() {
        let out = vec![
            CandidatePair {
                left: 3,
                right: 9,
                distance: 1.25,
            },
            CandidatePair {
                left: 0,
                right: 2,
                distance: f32::MIN_POSITIVE,
            },
        ];
        let bytes = save_candidates(&out);
        assert_eq!(load_candidates(&bytes).unwrap(), out);
        assert!(load_candidates(&bytes[..bytes.len() - 1]).is_none(), "torn");
        // Score probs round-trip bit-exactly, including weird floats.
        let probs = vec![0.25_f32, f32::NAN, -0.0, 1.0];
        let bytes = save_probs(&probs);
        let back = load_probs(&bytes).unwrap();
        assert_eq!(probs.len(), back.len());
        for (a, b) in probs.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits(), "prob bits changed");
        }
        assert!(load_probs(&bytes[..bytes.len() - 2]).is_none(), "torn");
    }
}
