//! Runtime resilience primitives (DESIGN.md §15): deadlines, cooperative
//! cancellation, unified retry with deterministic backoff, and the
//! degradation ledger that keeps every fallback honest.
//!
//! The contracts, in one place:
//!
//! - A [`RunBudget`] travels with a run (fit or resolve). Long-running
//!   code `probe()`s it at stage boundaries and inside long inner loops
//!   (training epochs, Score chunks, LSH build/join). A probe either
//!   returns `Ok(())` or surfaces a typed [`CoreError::Cancelled`] /
//!   [`CoreError::DeadlineExceeded`] — never a hang, never a partial
//!   write (probes sit *before* mutation points, and checkpoint writes
//!   stay atomic regardless).
//! - A [`CancelToken`] is a relaxed-atomic flag: one load per probe on
//!   the un-cancelled fast path, mirroring how `vaer-obs` gates levels.
//! - A [`RetryPolicy`] retries *retryable* errors (see [`RetryClass`])
//!   with exponential backoff, deterministic seeded jitter, and an
//!   arithmetic cap on total sleep — no clock reads, so the policy
//!   itself stays det-wallclock-clean and testable.
//! - Every fallback a run takes (int8 → f32 scoring, checkpoint →
//!   recompute, memo → cold rebuild) is named in [`DEGRADATIONS`],
//!   fires an obs event, and lands in the [`ResolutionHealth`] attached
//!   to the run's result. Silent degradation is a bug; `vaer-lint`'s
//!   `degradation-registry` rule enforces the naming.

use crate::CoreError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every degradation a run may take, sorted and unique. Each entry names
/// an obs event namespace; `vaer-lint` enforces that every
/// `ResolutionHealth::degrade` call site uses a registered name and that
/// every entry here is exercised somewhere.
pub const DEGRADATIONS: &[&str] = &[
    "degrade.plan.rebuild",
    "degrade.score.f32_fallback",
    "degrade.stage.recompute",
];

/// Bit 63 of [`CancelInner::state`]: the token is cancelled.
const CANCELLED: u64 = 1 << 63;

#[derive(Debug, Default)]
struct CancelInner {
    /// Bit 63 = cancelled; low 63 bits = a probe-fuse countdown armed by
    /// [`CancelToken::cancel_after_probes`] (a test hook — production
    /// tokens keep the low bits at zero so the fast path is one load).
    state: AtomicU64,
    /// Probes observed while the token was armed or cancelled (the
    /// latency tests bound cancellation by this count).
    probes: AtomicU64,
}

/// Cooperative cancellation handle. Cloning shares the flag; any clone
/// may [`cancel`](Self::cancel), and every probe site sees it at its
/// next probe. Un-cancelled probes cost a single relaxed atomic load.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.inner.state.fetch_or(CANCELLED, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested (does not consume a
    /// fuse step or count as a probe).
    pub fn is_cancelled(&self) -> bool {
        self.inner.state.load(Ordering::Relaxed) & CANCELLED != 0
    }

    /// Test hook: arms a fuse so the `n`-th subsequent probe trips the
    /// token (the tripping probe itself observes cancellation). Meant
    /// for single-threaded latency tests; concurrent probing of an
    /// armed fuse may trip it one probe early.
    pub fn cancel_after_probes(&self, n: u64) {
        debug_assert!(n > 0 && n < CANCELLED, "fuse must fit in 63 bits");
        self.inner.state.store(n, Ordering::Relaxed);
    }

    /// Probes observed while the token was armed or cancelled.
    pub fn probes(&self) -> u64 {
        self.inner.probes.load(Ordering::Relaxed)
    }

    /// One cancellation check. Returns `true` when the run must stop.
    pub fn probe(&self) -> bool {
        let state = self.inner.state.load(Ordering::Relaxed);
        if state == 0 {
            return false; // fast path: one relaxed load, nothing else
        }
        self.inner.probes.fetch_add(1, Ordering::Relaxed);
        if state & CANCELLED != 0 {
            return true;
        }
        // Armed fuse: burn one step; the step that reaches zero trips.
        let prev = self.inner.state.fetch_sub(1, Ordering::Relaxed);
        if prev & !CANCELLED == 1 {
            self.inner.state.fetch_or(CANCELLED, Ordering::Relaxed);
            true
        } else {
            false
        }
    }
}

/// A wall-clock deadline. Constructed from a duration at run start;
/// probed cheaply (one monotonic clock read) at probe sites.
#[derive(Clone, Copy, Debug)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn after(budget: Duration) -> Self {
        Self {
            at: Instant::now() + budget,
        }
    }

    /// Time left before the deadline (zero once exceeded).
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }

    /// Whether the deadline has passed.
    pub fn exceeded(&self) -> bool {
        Instant::now() >= self.at
    }
}

/// The budget a run carries: an optional [`Deadline`] and an optional
/// [`CancelToken`]. The default is unlimited, which keeps every probe a
/// pair of `Option` checks — existing call paths pay nothing.
#[derive(Clone, Debug, Default)]
pub struct RunBudget {
    deadline: Option<Deadline>,
    cancel: Option<CancelToken>,
}

impl RunBudget {
    /// No deadline, no cancellation: probes always succeed.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Adds a deadline `budget` from now.
    #[must_use]
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(Deadline::after(budget));
        self
    }

    /// Attaches a cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Reads `VAER_DEADLINE_MS` (milliseconds) into a budget; unset,
    /// empty, unparsable, or zero values mean unlimited.
    pub fn from_env() -> Self {
        match std::env::var("VAER_DEADLINE_MS") {
            Ok(v) => match v.trim().parse::<u64>() {
                Ok(ms) if ms > 0 => Self::default().with_deadline(Duration::from_millis(ms)),
                _ => Self::default(),
            },
            Err(_) => Self::default(),
        }
    }

    /// Whether this budget can never fail a probe.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.cancel.is_none()
    }

    /// Time left under the deadline, if one is set.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline.map(|d| d.remaining())
    }

    /// Whether the budget is already spent (cancelled or past deadline)
    /// — a peek that does not count as a probe or burn a test fuse.
    pub fn exhausted(&self) -> bool {
        self.cancel.as_ref().is_some_and(|c| c.is_cancelled())
            || self.deadline.is_some_and(|d| d.exceeded())
    }

    /// One budget check at `site`. Cancellation wins over the deadline
    /// when both have tripped.
    ///
    /// # Errors
    /// [`CoreError::Cancelled`] / [`CoreError::DeadlineExceeded`] naming
    /// the probe site.
    pub fn probe(&self, site: &'static str) -> Result<(), CoreError> {
        if let Some(c) = &self.cancel {
            if c.probe() {
                crate::obs::handles().budget_cancels.add(1);
                return Err(CoreError::Cancelled(format!("cancelled at {site}")));
            }
        }
        if let Some(d) = &self.deadline {
            if d.exceeded() {
                crate::obs::handles().budget_deadlines.add(1);
                return Err(CoreError::DeadlineExceeded(format!(
                    "deadline exceeded at {site} (budget spent)"
                )));
            }
        }
        Ok(())
    }
}

/// Classifies errors for [`RetryPolicy`]: retryable failures are
/// transient (a retry may genuinely succeed); everything else is fatal
/// and must surface immediately.
pub trait RetryClass {
    /// Whether a retry of the failed operation could succeed.
    fn retryable(&self) -> bool;
}

impl RetryClass for std::io::Error {
    fn retryable(&self) -> bool {
        // Filesystem writes are retried unless the failure is clearly
        // permanent. Injected faults (`checkpoint.write=err`) land in
        // the retryable bucket on purpose — that is the transient-IO
        // class they model.
        !matches!(
            self.kind(),
            std::io::ErrorKind::NotFound
                | std::io::ErrorKind::PermissionDenied
                | std::io::ErrorKind::InvalidInput
                | std::io::ErrorKind::Unsupported
        )
    }
}

impl RetryClass for CoreError {
    fn retryable(&self) -> bool {
        match self {
            // Transient IO bubbles its classification up.
            CoreError::Io(e) => e.retryable(),
            // Torn/CRC-failed checkpoint payloads: a retry re-reads or
            // recomputes past the corruption.
            CoreError::Checkpoint(_) => true,
            // Budget errors must never be retried away.
            CoreError::Cancelled(_) | CoreError::DeadlineExceeded(_) => false,
            CoreError::BadInput(_)
            | CoreError::Model(_)
            | CoreError::InsufficientData(_)
            | CoreError::Diverged(_) => false,
        }
    }
}

/// SplitMix64: the jitter generator. Stateless per call — jitter for
/// attempt `k` depends only on `(seed, k)`, so retry schedules are
/// reproducible without any clock or global RNG.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Unified retry: bounded attempts, exponential backoff with a per-sleep
/// cap, deterministic seeded jitter, and an *arithmetic* cap on total
/// sleep (`max_total_backoff`) so the policy never reads a clock itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub base_backoff: Duration,
    /// Per-sleep ceiling for the exponential curve.
    pub max_backoff: Duration,
    /// Ceiling on the *sum* of all sleeps; once the next planned sleep
    /// would cross it, the last error is returned instead.
    pub max_total_backoff: Duration,
    /// Jitter seed; same seed + same failures = same schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// The default is [`none`](Self::none): retrying is opt-in, so
    /// fault-injection contracts on un-opted paths stay exact.
    fn default() -> Self {
        Self::none()
    }
}

impl RetryPolicy {
    /// No retries: the first error is final.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            max_total_backoff: Duration::ZERO,
            seed: 0,
        }
    }

    /// The checkpoint-write default: three attempts from a 10 ms base
    /// (the envelope the old ad-hoc loop provided), now with a per-sleep
    /// cap, a 500 ms total-sleep ceiling, and jitter.
    pub fn checkpoint_default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(80),
            max_total_backoff: Duration::from_millis(500),
            seed: 0xC4EC_909E,
        }
    }

    /// Whether this policy ever retries.
    pub fn retries(&self) -> bool {
        self.max_attempts > 1
    }

    /// The planned sleep before retry number `retry` (1-based):
    /// `min(base · 2^(retry-1), max_backoff)`, scaled by a deterministic
    /// jitter factor in `[0.5, 1.0)` drawn from `(seed, retry)`.
    pub fn backoff(&self, retry: u32) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let exp = self
            .base_backoff
            .saturating_mul(
                1u32.checked_shl(retry.saturating_sub(1))
                    .unwrap_or(u32::MAX),
            )
            .min(self.max_backoff.max(self.base_backoff));
        // 53 high-entropy bits → a uniform fraction in [0, 1), folded
        // into [0.5, 1.0) so backoff never collapses to zero.
        let r = splitmix64(self.seed ^ u64::from(retry));
        let frac = 0.5 + (r >> 11) as f64 / (1u64 << 53) as f64 * 0.5;
        exp.mul_f64(frac)
    }

    /// Runs `op` under this policy. `op` receives the 0-based attempt
    /// index. Fatal errors (per [`RetryClass`]) return immediately;
    /// retryable errors sleep the planned backoff and try again until
    /// attempts, the total-sleep cap, or the run budget is exhausted —
    /// in each of those cases the *last operation error* is returned
    /// (the caller's next `budget.probe()` surfaces budget errors, so
    /// no failure cause is masked).
    ///
    /// Planned sleeps are clamped to the budget's remaining deadline, so
    /// a retrying writer can never sleep through its own deadline.
    ///
    /// # Errors
    /// The last error `op` produced.
    pub fn run<T, E: RetryClass>(
        &self,
        budget: &RunBudget,
        mut op: impl FnMut(u32) -> Result<T, E>,
        mut on_retry: impl FnMut(u32, &E),
    ) -> Result<T, E> {
        let attempts = self.max_attempts.max(1);
        let mut slept = Duration::ZERO;
        let mut attempt = 0u32;
        loop {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    attempt += 1;
                    if !e.retryable() || attempt >= attempts || budget.exhausted() {
                        return Err(e);
                    }
                    let mut pause = self.backoff(attempt);
                    if slept + pause > self.max_total_backoff {
                        return Err(e);
                    }
                    if let Some(rem) = budget.remaining() {
                        if pause >= rem {
                            // Sleeping would blow the deadline; stop
                            // here and let the caller's probe surface
                            // `DeadlineExceeded`.
                            return Err(e);
                        }
                        pause = pause.min(rem);
                    }
                    slept += pause;
                    on_retry(attempt, &e);
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                }
            }
        }
    }
}

/// One degradation a run took, as recorded in [`ResolutionHealth`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DegradationEvent {
    /// The registered [`DEGRADATIONS`] name.
    pub name: &'static str,
    /// Human-readable context (which stage, which artifact, why).
    pub detail: String,
}

/// The honesty report attached to a resolution: every fallback taken and
/// every retry burned on the way to the result. A clean run has an empty
/// report; consumers (serving layers, `vaer-report`) can refuse or flag
/// degraded results without re-running anything.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResolutionHealth {
    /// Degradations in the order they fired.
    pub degradations: Vec<DegradationEvent>,
    /// Retry sleeps burned across the run (checkpoint writes, stages).
    pub retries: u32,
}

impl ResolutionHealth {
    /// Whether the run took no fallback and burned no retries.
    pub fn is_clean(&self) -> bool {
        self.degradations.is_empty() && self.retries == 0
    }

    /// Whether a specific registered degradation fired.
    pub fn degraded(&self, name: &str) -> bool {
        self.degradations.iter().any(|d| d.name == name)
    }

    /// Records a degradation and makes it observable: bumps the
    /// `degrade.fired` counter and emits the event under the entry's own
    /// name. `name` must be a [`DEGRADATIONS`] entry (lint-enforced at
    /// call sites, debug-asserted here).
    pub fn degrade(&mut self, name: &'static str, detail: impl Into<String>) {
        let detail = detail.into();
        debug_assert!(
            DEGRADATIONS.binary_search(&name).is_ok(),
            "unregistered degradation `{name}`"
        );
        crate::obs::handles().degrade_fired.add(1);
        // Literal event names per arm (instead of `event(name, …)`) so
        // registry tooling sees each namespace exercised, mirroring
        // `StageKind::span`.
        match name {
            "degrade.plan.rebuild" => {
                vaer_obs::event(
                    "degrade.plan.rebuild",
                    &[("detail", detail.as_str().into())],
                );
            }
            "degrade.score.f32_fallback" => {
                vaer_obs::event(
                    "degrade.score.f32_fallback",
                    &[("detail", detail.as_str().into())],
                );
            }
            "degrade.stage.recompute" => {
                vaer_obs::event(
                    "degrade.stage.recompute",
                    &[("detail", detail.as_str().into())],
                );
            }
            _ => {}
        }
        self.degradations.push(DegradationEvent { name, detail });
    }

    /// Accounts retry sleeps (e.g. from a [`RetryPolicy::run`] pass).
    pub fn add_retries(&mut self, retries: u32) {
        self.retries += retries;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degradations_registry_is_sorted_unique() {
        for w in DEGRADATIONS.windows(2) {
            assert!(w[0] < w[1], "DEGRADATIONS must be sorted+unique: {w:?}");
        }
    }

    #[test]
    fn cancel_token_trips_all_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!t.probe());
        assert_eq!(t.probes(), 0, "fast-path probes are not counted");
        c.cancel();
        assert!(t.is_cancelled());
        assert!(t.probe());
        assert_eq!(t.probes(), 1);
    }

    #[test]
    fn probe_fuse_trips_on_exact_probe() {
        let t = CancelToken::new();
        t.cancel_after_probes(3);
        assert!(!t.probe());
        assert!(!t.probe());
        assert!(t.probe(), "third probe trips the fuse");
        assert!(t.is_cancelled());
        assert_eq!(t.probes(), 3);
    }

    #[test]
    fn budget_probe_surfaces_typed_errors() {
        let unlimited = RunBudget::unlimited();
        assert!(unlimited.probe("test.site").is_ok());
        assert!(unlimited.is_unlimited());

        let token = CancelToken::new();
        let b = RunBudget::unlimited().with_cancel(token.clone());
        assert!(b.probe("test.site").is_ok());
        token.cancel();
        match b.probe("test.site") {
            Err(CoreError::Cancelled(msg)) => assert!(msg.contains("test.site")),
            other => panic!("expected Cancelled, got {other:?}"),
        }

        let b = RunBudget::unlimited().with_deadline(Duration::ZERO);
        assert!(b.exhausted());
        match b.probe("test.site") {
            Err(CoreError::DeadlineExceeded(msg)) => assert!(msg.contains("test.site")),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn from_env_parses_deadline() {
        std::env::set_var("VAER_DEADLINE_MS", "50");
        let b = RunBudget::from_env();
        assert!(!b.is_unlimited());
        assert!(b.remaining().unwrap() <= Duration::from_millis(50));
        std::env::set_var("VAER_DEADLINE_MS", "not-a-number");
        assert!(RunBudget::from_env().is_unlimited());
        std::env::set_var("VAER_DEADLINE_MS", "0");
        assert!(RunBudget::from_env().is_unlimited());
        std::env::remove_var("VAER_DEADLINE_MS");
        assert!(RunBudget::from_env().is_unlimited());
    }

    #[test]
    fn backoff_is_deterministic_jittered_and_capped() {
        let p = RetryPolicy {
            max_attempts: 6,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(40),
            max_total_backoff: Duration::from_secs(1),
            seed: 7,
        };
        for retry in 1..=5 {
            let a = p.backoff(retry);
            let b = p.backoff(retry);
            assert_eq!(a, b, "same (seed, retry) must give same backoff");
            let exp = Duration::from_millis(10 * (1 << (retry - 1)) as u64)
                .min(Duration::from_millis(40));
            assert!(a >= exp.mul_f64(0.5) && a < exp, "jitter in [0.5, 1.0)·exp");
        }
        assert_ne!(
            p.backoff(1),
            RetryPolicy { seed: 8, ..p }.backoff(1),
            "different seeds should almost surely jitter differently"
        );
    }

    #[test]
    fn retry_runs_until_success_and_reports_retries() {
        let p = RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_micros(1),
            max_backoff: Duration::from_micros(2),
            max_total_backoff: Duration::from_millis(10),
            seed: 1,
        };
        let budget = RunBudget::unlimited();
        let mut retries = 0u32;
        let out: Result<u32, std::io::Error> = p.run(
            &budget,
            |attempt| {
                if attempt < 2 {
                    Err(std::io::Error::other("transient"))
                } else {
                    Ok(attempt)
                }
            },
            |_, _| retries += 1,
        );
        assert_eq!(out.unwrap(), 2);
        assert_eq!(retries, 2);
    }

    #[test]
    fn retry_stops_on_fatal_errors() {
        let p = RetryPolicy::checkpoint_default();
        let budget = RunBudget::unlimited();
        let mut calls = 0u32;
        let out: Result<(), std::io::Error> = p.run(
            &budget,
            |_| {
                calls += 1;
                Err(std::io::Error::new(
                    std::io::ErrorKind::PermissionDenied,
                    "fatal",
                ))
            },
            |_, _| {},
        );
        assert!(out.is_err());
        assert_eq!(calls, 1, "fatal errors must not be retried");
    }

    #[test]
    fn retry_respects_total_backoff_cap() {
        let p = RetryPolicy {
            max_attempts: 100,
            base_backoff: Duration::from_millis(4),
            max_backoff: Duration::from_millis(4),
            max_total_backoff: Duration::from_millis(6),
            seed: 3,
        };
        let budget = RunBudget::unlimited();
        let mut calls = 0u32;
        let out: Result<(), std::io::Error> = p.run(
            &budget,
            |_| {
                calls += 1;
                Err(std::io::Error::other("transient"))
            },
            |_, _| {},
        );
        assert!(out.is_err());
        // 4ms-class sleeps (jittered to [2,4)ms) fit at most thrice
        // under a 6ms ceiling; far fewer than 100 attempts either way.
        assert!(
            calls < 6,
            "total-backoff cap must bound attempts, got {calls}"
        );
    }

    #[test]
    fn retry_never_sleeps_past_deadline() {
        let p = RetryPolicy {
            max_attempts: 50,
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_millis(20),
            max_total_backoff: Duration::from_secs(10),
            seed: 5,
        };
        let budget = RunBudget::unlimited().with_deadline(Duration::from_millis(25));
        let start = Instant::now();
        let out: Result<(), std::io::Error> = p.run(
            &budget,
            |_| Err(std::io::Error::other("transient")),
            |_, _| {},
        );
        assert!(out.is_err());
        assert!(
            start.elapsed() < Duration::from_millis(200),
            "retry loop must stop near the deadline instead of sleeping on"
        );
    }

    #[test]
    fn core_error_retry_classification() {
        assert!(CoreError::Checkpoint("torn".into()).retryable());
        assert!(CoreError::Io(std::io::Error::other("transient")).retryable());
        assert!(!CoreError::Cancelled("c".into()).retryable());
        assert!(!CoreError::DeadlineExceeded("d".into()).retryable());
        assert!(!CoreError::BadInput("b".into()).retryable());
        assert!(!CoreError::Diverged("d".into()).retryable());
    }

    #[test]
    fn health_records_degradations_and_retries() {
        let mut h = ResolutionHealth::default();
        assert!(h.is_clean());
        h.degrade("degrade.score.f32_fallback", "int8 lane failed twice");
        h.add_retries(2);
        assert!(!h.is_clean());
        assert!(h.degraded("degrade.score.f32_fallback"));
        assert!(!h.degraded("degrade.plan.rebuild"));
    }
}
