//! Deterministic, env-driven failpoints.
//!
//! Production code sprinkles named failpoints at the places where the
//! real world fails — checkpoint writes, label journals, epoch and round
//! boundaries — and tests (or an operator, via the `VAER_FAILPOINTS`
//! environment variable) arm them to inject IO errors, torn writes,
//! panics, or NaN gradients at an exact, reproducible hit count. When no
//! failpoint is armed, [`check`] is a single relaxed atomic load, so the
//! hooks are free on hot paths.
//!
//! # Spec syntax
//!
//! A spec is a comma-separated list of `name=action[@N[+]]` or
//! `name=action~p` clauses:
//!
//! ```text
//! VAER_FAILPOINTS=checkpoint.write=err@2,al.round=panic@3
//! VAER_FAILPOINTS=exec.score=err~0.25
//! ```
//!
//! - `action` is one of `err`, `panic`, `torn`, `nan`.
//! - `@N` fires on the Nth hit only (1-based).
//! - `@N+` fires on the Nth and every later hit.
//! - `~p` fires each hit independently with probability `p` in `(0, 1]`,
//!   drawn from a per-failpoint deterministic RNG (seed it with
//!   [`configure_seeded`]; plain [`configure`] uses seed 0). Same spec +
//!   same seed + same hit order = same firing schedule — the substrate
//!   chaos-soak harnesses randomise over.
//! - No `@`/`~` clause fires on every hit.
//!
//! The environment variable is read once, on the first [`check`] call;
//! tests arm failpoints programmatically with [`configure`] and disarm
//! them with [`clear`]. Failpoint state is process-global — tests that
//! arm failpoints must serialise against each other (e.g. behind a
//! `Mutex`), and a unit test that arms a site other tests reach
//! concurrently arms it with [`configure_on_this_thread`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, Once};

/// Central registry of every failpoint site in the workspace (sorted,
/// unique). The `failpoint-registry` rule of `vaer-lint` rejects any
/// [`check`]/[`trigger`] call whose name is missing here, and flags
/// entries no code references — so this list is always exactly the
/// injectable surface, and fault-matrix tests can iterate it instead of
/// relying on tribal knowledge of where the hooks live.
pub const FAILPOINTS: &[&str] = &[
    // Label-arrival boundary in the active-learning loop.
    "al.labels",
    // Per-round boundary in the active-learning loop.
    "al.round",
    // Durable snapshot write (supports err/torn/panic).
    "checkpoint.write",
    // Resolution executor stage boundaries (support err/panic): LSH
    // blocking, feature encoding, matcher scoring, link selection, and
    // entity clustering.
    "exec.block",
    "exec.cluster",
    "exec.encode",
    "exec.link",
    "exec.score",
    // Label journal append (supports err).
    "journal.append",
    // Matcher gradient step (supports nan).
    "matcher.grads",
    // VAE epoch boundary (the kill-switch used by crash tests).
    "vae.epoch",
    // VAE gradient step (supports nan).
    "vae.grads",
];

/// What an armed failpoint injects at its trigger site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Return an injected IO error.
    Err,
    /// Panic (simulates a crash / kill at the failpoint).
    Panic,
    /// Write a torn (truncated) file instead of the full payload.
    Torn,
    /// Poison a value with NaN (simulates numeric divergence).
    Nan,
}

impl Action {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "err" => Ok(Action::Err),
            "panic" => Ok(Action::Panic),
            "torn" => Ok(Action::Torn),
            "nan" => Ok(Action::Nan),
            other => Err(format!(
                "unknown failpoint action '{other}' (expected err|panic|torn|nan)"
            )),
        }
    }
}

#[derive(Debug, Clone)]
struct Failpoint {
    name: String,
    action: Action,
    /// First hit (1-based) the failpoint fires on.
    from: u64,
    /// Last hit it fires on (`u64::MAX` = open-ended).
    to: u64,
    hits: u64,
    /// Hits that actually fired (≤ `hits`; differs under `~p`).
    fired: u64,
    /// `~p` clause: per-hit firing probability.
    prob: Option<f64>,
    /// Deterministic per-failpoint RNG state for `~p` draws.
    rng: u64,
    /// The only thread whose hits count (see [`configure_on_this_thread`]);
    /// `None` for every thread.
    only_on: Option<std::thread::ThreadId>,
}

/// FNV-1a, folding a failpoint name into its RNG stream so two `~p`
/// clauses under one seed still draw independent schedules.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// SplitMix64 step: advances `state` and returns a uniform draw.
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

static ARMED: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<Vec<Failpoint>> = Mutex::new(Vec::new());
static ENV_INIT: Once = Once::new();

fn registry() -> MutexGuard<'static, Vec<Failpoint>> {
    // Survive poisoning: a failpoint-induced panic in one test must not
    // wedge every later check in the process.
    REGISTRY
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Arms the failpoints described by `spec` (see the module docs for the
/// syntax), replacing any previously armed set and resetting hit counts.
///
/// # Errors
/// Returns a description of the first malformed clause; the previously
/// armed set is left untouched in that case.
pub fn configure(spec: &str) -> Result<(), String> {
    configure_seeded(spec, 0)
}

/// Like [`configure`], but seeds the RNG streams behind `~p` clauses:
/// each probabilistic failpoint draws from `seed ^ fnv1a(name)`, so a
/// chaos harness gets a reproducible firing schedule per `(spec, seed)`
/// pair while distinct sites stay decorrelated.
///
/// # Errors
/// Returns a description of the first malformed clause; the previously
/// armed set is left untouched in that case.
pub fn configure_seeded(spec: &str, seed: u64) -> Result<(), String> {
    arm(spec, seed, None)
}

/// Like [`configure`], but the failpoints count and fire only on hits
/// from the calling thread; other threads pass through them as if they
/// were unarmed. Unit tests that arm a site which concurrently running
/// tests also reach (a training step, a checkpoint write) use this, so
/// the injected fault stays inside the test that asked for it.
///
/// # Errors
/// Returns a description of the first malformed clause; the previously
/// armed set is left untouched in that case.
pub fn configure_on_this_thread(spec: &str) -> Result<(), String> {
    arm(spec, 0, Some(std::thread::current().id()))
}

fn arm(spec: &str, seed: u64, only_on: Option<std::thread::ThreadId>) -> Result<(), String> {
    let mut parsed = Vec::new();
    for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
        let (name, rhs) = clause
            .split_once('=')
            .ok_or_else(|| format!("failpoint clause '{clause}' is missing '='"))?;
        let name = name.trim();
        if name.is_empty() {
            return Err(format!("failpoint clause '{clause}' has an empty name"));
        }
        let (action, from, to, prob) = if let Some((action, p)) = rhs.split_once('~') {
            let action = Action::parse(action.trim())?;
            let p: f64 = p
                .trim()
                .parse()
                .map_err(|_| format!("failpoint clause '{clause}' has a bad probability"))?;
            if !(p > 0.0 && p <= 1.0) {
                return Err(format!(
                    "failpoint clause '{clause}': probability must be in (0, 1]"
                ));
            }
            (action, 1, u64::MAX, Some(p))
        } else {
            match rhs.split_once('@') {
                None => (Action::parse(rhs.trim())?, 1, u64::MAX, None),
                Some((action, count)) => {
                    let action = Action::parse(action.trim())?;
                    let (count, open) = match count.strip_suffix('+') {
                        Some(c) => (c, true),
                        None => (count, false),
                    };
                    let n: u64 = count
                        .trim()
                        .parse()
                        .map_err(|_| format!("failpoint clause '{clause}' has a bad hit count"))?;
                    if n == 0 {
                        return Err(format!("failpoint clause '{clause}': hits are 1-based"));
                    }
                    (action, n, if open { u64::MAX } else { n }, None)
                }
            }
        };
        parsed.push(Failpoint {
            name: name.to_string(),
            action,
            from,
            to,
            hits: 0,
            fired: 0,
            prob,
            rng: seed ^ fnv1a(name),
            only_on,
        });
    }
    let armed = !parsed.is_empty();
    *registry() = parsed;
    ARMED.store(armed, Ordering::Release);
    Ok(())
}

/// Disarms every failpoint and resets hit counts.
pub fn clear() {
    registry().clear();
    ARMED.store(false, Ordering::Release);
}

/// Number of times the named failpoint site has been reached since it was
/// armed (0 if it is not armed).
pub fn hits(name: &str) -> u64 {
    registry()
        .iter()
        .find(|fp| fp.name == name)
        .map_or(0, |fp| fp.hits)
}

/// Number of times the named failpoint actually *fired* (injected its
/// action) since it was armed. Equals [`hits`] inside the window for
/// deterministic clauses; under `~p` it counts the successful draws, so
/// chaos harnesses can reconcile injected faults against the health
/// report a run returned.
pub fn fired(name: &str) -> u64 {
    registry()
        .iter()
        .find(|fp| fp.name == name)
        .map_or(0, |fp| fp.fired)
}

/// Checks the named failpoint site. Returns the action to inject if the
/// site is armed and this hit falls inside the configured window.
///
/// When nothing is armed this is a single relaxed atomic load — cheap
/// enough for per-batch hot loops.
pub fn check(name: &str) -> Option<Action> {
    ENV_INIT.call_once(|| {
        if let Ok(spec) = std::env::var("VAER_FAILPOINTS") {
            if let Err(e) = configure(&spec) {
                eprintln!("vaer-fault: ignoring VAER_FAILPOINTS: {e}");
            }
        }
    });
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    check_slow(name)
}

#[cold]
fn check_slow(name: &str) -> Option<Action> {
    let mut fps = registry();
    let here = std::thread::current().id();
    let fp = fps
        .iter_mut()
        .find(|fp| fp.name == name && fp.only_on.is_none_or(|t| t == here))?;
    fp.hits += 1;
    if fp.hits < fp.from || fp.hits > fp.to {
        return None;
    }
    if let Some(p) = fp.prob {
        // Every in-window hit consumes exactly one draw, so schedules
        // are a pure function of (spec, seed, hit order).
        let draw = (next_u64(&mut fp.rng) >> 11) as f64 / (1u64 << 53) as f64;
        if draw >= p {
            return None;
        }
    }
    fp.fired += 1;
    Some(fp.action)
}

static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Serialises tests that arm failpoints. Failpoint state is
/// process-global, so any test calling [`configure`] should hold this
/// guard for its whole body (poisoning from an injected panic is
/// absorbed).
pub fn test_lock() -> MutexGuard<'static, ()> {
    TEST_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Like [`check`], but executes [`Action::Panic`] on the spot (the
/// standard kill-switch shape). The other actions are returned for the
/// call site to inject, since only it knows what "an IO error" or "a torn
/// write" means there.
///
/// # Panics
/// Panics when the site is armed with [`Action::Panic`] and the hit falls
/// inside the configured window — that is the feature.
pub fn trigger(name: &str) -> Option<Action> {
    match check(name) {
        Some(Action::Panic) => panic!("vaer-fault: injected panic at failpoint '{name}'"),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guard() -> MutexGuard<'static, ()> {
        test_lock()
    }

    #[test]
    fn thread_scoped_arming_ignores_other_threads() {
        let _g = guard();
        configure_on_this_thread("scoped.site=nan").unwrap();
        let elsewhere = std::thread::spawn(|| check("scoped.site")).join().unwrap();
        assert_eq!(elsewhere, None);
        assert_eq!(
            hits("scoped.site"),
            0,
            "other threads' hits are not counted"
        );
        assert_eq!(check("scoped.site"), Some(Action::Nan));
        assert_eq!(hits("scoped.site"), 1);
        clear();
    }

    #[test]
    fn unarmed_sites_are_silent() {
        let _g = guard();
        clear();
        assert_eq!(check("nothing.here"), None);
        assert_eq!(hits("nothing.here"), 0);
    }

    #[test]
    fn nth_hit_fires_exactly_once() {
        let _g = guard();
        configure("x=err@3").unwrap();
        assert_eq!(check("x"), None);
        assert_eq!(check("x"), None);
        assert_eq!(check("x"), Some(Action::Err));
        assert_eq!(check("x"), None);
        assert_eq!(hits("x"), 4);
        clear();
    }

    #[test]
    fn open_window_fires_from_n_onward() {
        let _g = guard();
        configure("y=torn@2+").unwrap();
        assert_eq!(check("y"), None);
        assert_eq!(check("y"), Some(Action::Torn));
        assert_eq!(check("y"), Some(Action::Torn));
        clear();
    }

    #[test]
    fn bare_action_fires_every_hit_and_names_are_scoped() {
        let _g = guard();
        configure("a=nan, b=err@1").unwrap();
        assert_eq!(check("a"), Some(Action::Nan));
        assert_eq!(check("a"), Some(Action::Nan));
        assert_eq!(check("b"), Some(Action::Err));
        assert_eq!(check("b"), None);
        assert_eq!(check("c"), None);
        clear();
    }

    #[test]
    fn trigger_panics_on_panic_action() {
        let _g = guard();
        configure("kill=panic@1").unwrap();
        let r = std::panic::catch_unwind(|| trigger("kill"));
        assert!(r.is_err(), "panic action must panic");
        clear();
    }

    #[test]
    fn registry_is_sorted_unique_and_armable() {
        let _g = guard();
        for pair in FAILPOINTS.windows(2) {
            assert!(pair[0] < pair[1], "{pair:?} out of order or duplicated");
        }
        // Every registered site can actually be armed and tripped — the
        // registry is a live surface, not documentation.
        for name in FAILPOINTS {
            configure(&format!("{name}=err@1")).unwrap();
            assert_eq!(check(name), Some(Action::Err), "site `{name}` did not fire");
            clear();
        }
    }

    #[test]
    fn probabilistic_clause_is_seed_deterministic() {
        let _g = guard();
        let schedule = |seed: u64| -> Vec<bool> {
            configure_seeded("p=err~0.5", seed).unwrap();
            let s = (0..64).map(|_| check("p").is_some()).collect();
            clear();
            s
        };
        let a = schedule(42);
        let b = schedule(42);
        assert_eq!(a, b, "same (spec, seed) must give the same schedule");
        let c = schedule(43);
        assert_ne!(a, c, "different seeds should differ over 64 draws");
        let fires = a.iter().filter(|&&f| f).count();
        assert!(
            (8..=56).contains(&fires),
            "p=0.5 over 64 draws fired {fires} times — draw mapping broken?"
        );
    }

    #[test]
    fn probabilistic_fired_counts_successful_draws() {
        let _g = guard();
        configure_seeded("p=err~0.5", 7).unwrap();
        let mut expect = 0;
        for _ in 0..32 {
            if check("p").is_some() {
                expect += 1;
            }
        }
        assert_eq!(hits("p"), 32);
        assert_eq!(fired("p"), expect);
        assert!(fired("p") < hits("p"), "p=0.5 over 32 draws never skipped?");
        clear();
    }

    #[test]
    fn probability_one_fires_every_hit() {
        let _g = guard();
        configure_seeded("p=nan~1.0", 9).unwrap();
        for _ in 0..8 {
            assert_eq!(check("p"), Some(Action::Nan));
        }
        assert_eq!(fired("p"), 8);
        clear();
    }

    #[test]
    fn malformed_probabilities_are_rejected() {
        let _g = guard();
        clear();
        assert!(configure("x=err~0").is_err());
        assert!(configure("x=err~1.5").is_err());
        assert!(configure("x=err~nope").is_err());
        assert!(configure("x=err~-0.1").is_err());
    }

    #[test]
    fn malformed_specs_are_rejected() {
        let _g = guard();
        clear();
        assert!(configure("noequals").is_err());
        assert!(configure("x=explode").is_err());
        assert!(configure("x=err@0").is_err());
        assert!(configure("x=err@abc").is_err());
        assert!(configure("=err").is_err());
        // A rejected spec leaves the armed set untouched.
        configure("ok=err").unwrap();
        assert!(configure("bad=").is_err());
        assert_eq!(check("ok"), Some(Action::Err));
        clear();
    }
}
