//! VAER core: the paper's contribution.
//!
//! *Cost-effective Variational Active Entity Resolution* (Bogatu et al.,
//! ICDE 2021) decouples ER feature engineering from matching:
//!
//! 1. [`repr`] — an unsupervised VAE maps intermediate representations
//!    (IRs) of attribute values to diagonal-Gaussian latent distributions,
//!    with parameters shared across attributes (paper §III).
//! 2. [`matcher`] — a Siamese network initialised from the VAE encoder
//!    compares two tuples attribute-wise via squared 2-Wasserstein
//!    distance vectors and classifies with a 2-layer MLP, trained with the
//!    combined cross-entropy + contrastive loss of Eq. 4 (paper §IV).
//! 3. [`active`] — Algorithm 1 bootstraps initial labels from the latent
//!    space; Algorithm 2 iteratively samples balanced, informative,
//!    diverse pairs for the user to label (paper §V).
//! 4. [`transfer`] — a representation model trained on one domain is
//!    serialised and reused on another without retraining (paper §III-D).
//! 5. [`pipeline`] — glues everything into an end-to-end ER run on the
//!    staged [`exec`] dataflow (Block → Encode → Score → Link → Cluster),
//!    [`evaluation`] implements the paper's top-K representation metrics,
//!    and [`cluster`] consolidates pairwise links into resolved entities.
//!
//! Because the representation model is frozen after stage 1, its
//! encodings of a table never change during stages 2–3; [`latent`]
//! caches them once per table and the AL loop, matcher, and pipeline
//! all index into the cache instead of re-running the encoder. A
//! fine-tuned matcher encoder is cached the same way once its fit ends.

pub mod active;
pub mod checkpoint;
pub mod cluster;
pub mod entity;
pub mod evaluation;
pub mod exec;
pub mod latent;
pub mod matcher;
mod obs;
pub mod pipeline;
pub mod quant;
pub mod repr;
pub mod resilience;
pub mod transfer;

/// Errors surfaced by the core pipeline.
#[derive(Debug)]
pub enum CoreError {
    /// Training/encoding input had the wrong shape.
    BadInput(String),
    /// A model failed to (de)serialise.
    Model(vaer_nn::NnError),
    /// Labelled data was insufficient to train (e.g. one class missing).
    InsufficientData(String),
    /// A checkpoint/journal file operation failed at the filesystem level.
    Io(std::io::Error),
    /// A checkpoint or journal was corrupt, inconsistent with the run
    /// being resumed, or otherwise unusable.
    Checkpoint(String),
    /// Training diverged (non-finite loss or exploding gradients) and
    /// exhausted its rollback retries.
    Diverged(String),
    /// The run's [`resilience::RunBudget`] deadline passed before the
    /// work completed.
    DeadlineExceeded(String),
    /// The run's [`resilience::CancelToken`] was cancelled.
    Cancelled(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::BadInput(why) => write!(f, "bad input: {why}"),
            CoreError::Model(e) => write!(f, "model error: {e}"),
            CoreError::InsufficientData(why) => write!(f, "insufficient data: {why}"),
            CoreError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CoreError::Checkpoint(why) => write!(f, "checkpoint error: {why}"),
            CoreError::Diverged(why) => write!(f, "training diverged: {why}"),
            CoreError::DeadlineExceeded(why) => write!(f, "deadline exceeded: {why}"),
            CoreError::Cancelled(why) => write!(f, "cancelled: {why}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<vaer_nn::NnError> for CoreError {
    fn from(e: vaer_nn::NnError) -> Self {
        CoreError::Model(e)
    }
}

impl From<std::io::Error> for CoreError {
    fn from(e: std::io::Error) -> Self {
        CoreError::Io(e)
    }
}
