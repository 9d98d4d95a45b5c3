//! `vaer-obs` — dependency-free observability for the VAER workspace.
//!
//! Three layers, all behind one env knob (`VAER_OBS=off|summary|trace`,
//! default `off`):
//!
//! 1. **Spans** — RAII guards ([`span()`] / [`span!`]) recording wall-time,
//!    thread slot, and parent span. Durations always feed a per-name
//!    [`Histogram`]; at `trace` level each span is additionally pushed to
//!    the global collector as an individual [`SpanRecord`].
//! 2. **Metrics** — a fixed-capacity registry of named
//!    [`Counter`]s / [`Gauge`]s / [`Histogram`]s backed by static atomics:
//!    registration takes a lock once, but recording through a handle is
//!    lock-free and allocation-free.
//! 3. **Events** — point-in-time records with typed fields
//!    ([`event`]), e.g. one `al.round` per active-learning iteration.
//!
//! When the level is `off` every recording entry point reduces to a single
//! relaxed atomic load and an early return: no clock reads, no allocation,
//! no lock. This is the contract the pooled-tape zero-alloc test and the
//! micro bench assert.
//!
//! Snapshots are taken with [`ObsSink::snapshot`] and exported as JSONL
//! ([`ObsSink::write_jsonl`], one JSON object per line) or rendered as a
//! human table ([`ObsSink::summary`]). See DESIGN.md §9 for the schema.

pub mod alloc;
mod collect;
pub mod json;
pub mod metrics;
pub mod registry;
mod sink;
mod trace;

pub use alloc::AllocStats;
pub use collect::{records_len, EventRecord, SpanRecord, Value};
pub use metrics::{counter, gauge, histogram, Counter, Gauge, Histogram};
pub use registry::{ENV_KNOBS, NAME_PREFIXES};
pub use sink::{HistSnapshot, ObsSink};

use std::sync::atomic::{AtomicU8, Ordering};

/// Telemetry verbosity. Resolved once from `VAER_OBS` on first use;
/// overridable programmatically with [`set_level`] (tests, benches).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Nothing is recorded; hot paths pay one relaxed load.
    Off = 0,
    /// Metrics and events are recorded; spans feed duration histograms
    /// but are not stored individually.
    Summary = 1,
    /// Everything in `summary`, plus one collector record per span.
    Trace = 2,
}

impl Level {
    /// Lower-case name, matching the `VAER_OBS` values.
    pub fn name(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Summary => "summary",
            Level::Trace => "trace",
        }
    }
}

/// Sentinel meaning "not yet resolved from the environment".
const LEVEL_UNSET: u8 = u8::MAX;

static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

/// Current telemetry level (env-resolved on first call).
#[inline]
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Level::Off,
        1 => Level::Summary,
        2 => Level::Trace,
        _ => init_level(),
    }
}

#[cold]
fn init_level() -> Level {
    let lvl = match std::env::var("VAER_OBS").as_deref() {
        Ok("summary") => Level::Summary,
        Ok("trace") => Level::Trace,
        // Unset, "off", or anything unrecognised: stay dark.
        _ => Level::Off,
    };
    LEVEL.store(lvl as u8, Ordering::Relaxed);
    lvl
}

/// Overrides the level programmatically (wins over `VAER_OBS`).
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// True when anything at all should be recorded (`summary` or `trace`).
/// One relaxed load — safe to call on the hottest paths.
#[inline]
pub fn enabled() -> bool {
    level() >= Level::Summary
}

/// True only at `trace` level (per-span records, verbose exports).
#[inline]
pub fn trace_enabled() -> bool {
    level() == Level::Trace
}

/// Allocator-hook view of the level: a single raw load with NO env
/// fallback. `init_level` reads `VAER_OBS` via `std::env::var`, which
/// allocates — calling it from inside the allocator would recurse — so
/// the counting hook treats an unresolved level as off and waits for
/// the first ordinary probe (or [`set_level`]) to resolve it. This is
/// the "hook ordering contract" of DESIGN.md §14.
#[inline]
pub(crate) fn counting_enabled() -> bool {
    matches!(LEVEL.load(Ordering::Relaxed), 1 | 2)
}

/// Starts a span; the returned guard records the span when dropped.
///
/// When the level is `off` this returns an inert guard without reading
/// the clock or touching any global state.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    SpanGuard(Some(collect::start_span(name)))
}

/// RAII span guard: drop it to close the span. See [`span()`].
#[must_use = "a span measures the scope it is alive for; bind it to a local"]
pub struct SpanGuard(Option<collect::ActiveSpan>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(active) = self.0.take() {
            collect::finish_span(active);
        }
    }
}

/// Expression form of [`span()`]: `let _s = vaer_obs::span!("pipeline.fit");`
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

/// Records a point-in-time event with typed fields.
///
/// The field slice lives on the caller's stack and is only cloned when
/// telemetry is enabled, so numeric fields cost nothing at `off`. Callers
/// passing [`Value::Str`] should gate construction on [`enabled`] to keep
/// the off path allocation-free.
#[inline]
pub fn event(name: &'static str, fields: &[(&'static str, Value)]) {
    if !enabled() {
        return;
    }
    collect::push_event(name, fields);
}

/// Clears all collector records and zeroes every metric value. Registered
/// names (and therefore existing handles) stay valid.
pub fn reset() {
    collect::reset_records();
    metrics::reset_values();
}

#[cfg(test)]
mod tests {
    use super::*;

    // The only level-mutating test in this crate: unit tests share one
    // process, so level toggling is confined to this single #[test].
    #[test]
    fn smoke_span_event_metric_roundtrip() {
        set_level(Level::Trace);
        reset();
        let c = counter("obs.test.counter");
        c.add(2);
        c.add(3);
        let g = gauge("obs.test.gauge");
        g.set(1.5);
        let h = histogram("obs.test.hist");
        h.record_nanos(2048);
        {
            let _outer = span("obs.test.outer");
            let _inner = span!("obs.test.inner");
            // Give the allocation accounting something to see.
            let ballast: Vec<u8> = Vec::with_capacity(4096);
            drop(ballast);
            event(
                "obs.test.event",
                &[("k", Value::U64(7)), ("f", Value::F64(0.5))],
            );
        }
        let sink = ObsSink::snapshot();
        assert_eq!(sink.counter("obs.test.counter"), 5);
        assert_eq!(c.get(), 5);
        assert!((g.get() - 1.5).abs() < 1e-12);
        let hist = sink
            .histograms
            .iter()
            .find(|h| h.name == "obs.test.hist")
            .unwrap();
        assert_eq!(hist.count, 1);
        assert_eq!(hist.sum_nanos, 2048);
        let spans: Vec<_> = sink.spans.iter().map(|s| s.name).collect();
        assert!(spans.contains(&"obs.test.outer"));
        assert!(spans.contains(&"obs.test.inner"));
        let inner = sink
            .spans
            .iter()
            .find(|s| s.name == "obs.test.inner")
            .unwrap();
        let outer = sink
            .spans
            .iter()
            .find(|s| s.name == "obs.test.outer")
            .unwrap();
        assert_eq!(inner.parent, outer.id, "inner span must nest under outer");
        assert_eq!(outer.parent, 0, "outer span is a root");
        assert!(outer.allocs >= 1, "outer span saw the ballast alloc");
        assert!(outer.bytes >= 4096, "outer span counted ballast bytes");
        if cfg!(target_os = "linux") {
            assert!(outer.rss_peak > 0, "span carries a VmHWM sample");
        }
        let outer_hist = sink
            .histograms
            .iter()
            .find(|h| h.name == "obs.test.outer")
            .unwrap();
        assert!(outer_hist.allocs >= 1 && outer_hist.bytes >= 4096);
        let ev = sink.events_named("obs.test.event").next().unwrap();
        assert_eq!(ev.u64("k"), Some(7));
        assert_eq!(ev.f64("f"), Some(0.5));

        let mut buf = Vec::new();
        sink.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(!text.is_empty());
        for line in text.lines() {
            assert!(json::is_valid(line), "invalid JSONL line: {line}");
        }
        assert!(sink.summary().contains("obs.test.counter"));

        // Off: nothing records, nothing accumulates.
        set_level(Level::Off);
        reset();
        c.add(10);
        h.record_nanos(1);
        event("obs.test.event", &[]);
        let _dead = span("obs.test.dead");
        drop(_dead);
        assert_eq!(records_len(), 0);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn handles_are_stable_across_lookups() {
        let a = counter("obs.test.stable");
        let b = counter("obs.test.stable");
        assert_eq!(a.index(), b.index());
    }

    #[test]
    fn level_names_round_trip() {
        assert_eq!(Level::Off.name(), "off");
        assert_eq!(Level::Summary.name(), "summary");
        assert_eq!(Level::Trace.name(), "trace");
        assert!(Level::Trace > Level::Summary && Level::Summary > Level::Off);
    }
}
