//! Lock-sharded global collector for span and event records, plus the
//! thread-local machinery behind span parenting and thread slots.
//!
//! Threads are assigned small sequential *slots* on first contact (every
//! thread that calls `vaer_linalg::runtime` starts workers of its own, so
//! raw `ThreadId`s would be both unstable-API and unbounded). A thread's slot
//! picks its collector shard, so recording threads rarely contend on the
//! same mutex.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Typed event-field value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer (counts, ids, label budgets).
    U64(u64),
    /// Float (losses, rates, seconds).
    F64(f64),
    /// Short string (dataset names, modes). Construct only when
    /// [`crate::enabled`] to keep the off path allocation-free.
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::F64(f64::from(v))
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// A recorded point-in-time event.
#[derive(Clone, Debug)]
pub struct EventRecord {
    /// Event name, e.g. `al.round`.
    pub name: &'static str,
    /// Recording thread's slot.
    pub thread: u32,
    /// Microseconds since the process-wide obs epoch.
    pub at_us: u64,
    /// Typed fields in caller order.
    pub fields: Vec<(&'static str, Value)>,
}

impl EventRecord {
    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Unsigned-integer field accessor.
    pub fn u64(&self, key: &str) -> Option<u64> {
        match self.field(key)? {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// Float field accessor (also widens `U64` fields).
    pub fn f64(&self, key: &str) -> Option<f64> {
        match self.field(key)? {
            Value::F64(v) => Some(*v),
            Value::U64(v) => Some(*v as f64),
            Value::Str(_) => None,
        }
    }

    /// String field accessor.
    pub fn str(&self, key: &str) -> Option<&str> {
        match self.field(key)? {
            Value::Str(v) => Some(v.as_str()),
            _ => None,
        }
    }
}

/// A completed span (recorded individually only at `trace` level).
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    /// Span name, e.g. `pipeline.repr`.
    pub name: &'static str,
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Enclosing span's id on the same thread, or 0 for a root span.
    pub parent: u64,
    /// Recording thread's slot.
    pub thread: u32,
    /// Microseconds since the process-wide obs epoch.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
    /// Heap allocations performed while the span was open (process-wide
    /// delta of the counting allocator, so concurrent threads bleed in).
    pub allocs: u64,
    /// Heap bytes allocated while the span was open (same caveat).
    pub bytes: u64,
    /// Peak RSS (`VmHWM`) in bytes sampled when the span closed; 0 when
    /// the sampler is unavailable.
    pub rss_peak: u64,
}

pub(crate) enum Record {
    Span(SpanRecord),
    Event(EventRecord),
}

const SHARDS: usize = 8;

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_SHARD: Mutex<Vec<Record>> = Mutex::new(Vec::new());

static COLLECTOR: [Mutex<Vec<Record>>; SHARDS] = [EMPTY_SHARD; SHARDS];

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Microseconds since the first obs clock read in this process.
pub(crate) fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD_SLOT: Cell<u32> = const { Cell::new(u32::MAX) };
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Small sequential id for the calling thread, assigned on first use.
pub(crate) fn thread_slot() -> u32 {
    THREAD_SLOT.with(|slot| {
        let v = slot.get();
        if v != u32::MAX {
            v
        } else {
            let v = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            slot.set(v);
            v
        }
    })
}

fn push(record: Record) {
    let shard = thread_slot() as usize % SHARDS;
    COLLECTOR[shard]
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .push(record);
}

/// Number of records currently held by the collector (spans + events).
pub fn records_len() -> usize {
    COLLECTOR
        .iter()
        .map(|s| {
            s.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .len()
        })
        .sum()
}

pub(crate) fn reset_records() {
    for shard in COLLECTOR.iter() {
        shard
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
    }
}

/// Clones all records out of the collector (does not drain).
pub(crate) fn snapshot_records() -> (Vec<SpanRecord>, Vec<EventRecord>) {
    let mut spans = Vec::new();
    let mut events = Vec::new();
    for shard in COLLECTOR.iter() {
        for record in shard
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
        {
            match record {
                Record::Span(s) => spans.push(*s),
                Record::Event(e) => events.push(e.clone()),
            }
        }
    }
    spans.sort_by_key(|s| (s.start_us, s.id));
    events.sort_by_key(|e| e.at_us);
    (spans, events)
}

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// Live span state held by a [`crate::SpanGuard`].
pub(crate) struct ActiveSpan {
    name: &'static str,
    id: u64,
    parent: u64,
    start_us: u64,
    start: Instant,
    start_allocs: u64,
    start_bytes: u64,
}

pub(crate) fn start_span(name: &'static str) -> ActiveSpan {
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().copied().unwrap_or(0);
        stack.push(id);
        parent
    });
    let mem = crate::alloc::stats();
    ActiveSpan {
        name,
        id,
        parent,
        start_us: now_us(),
        start: Instant::now(),
        start_allocs: mem.allocs,
        start_bytes: mem.bytes,
    }
}

pub(crate) fn finish_span(active: ActiveSpan) {
    let elapsed = active.start.elapsed();
    // Deltas before the RSS sample: reading /proc allocates a transient
    // buffer that must not count against this span.
    let mem = crate::alloc::stats();
    let allocs = mem.allocs.saturating_sub(active.start_allocs);
    let bytes = mem.bytes.saturating_sub(active.start_bytes);
    let rss_peak = crate::alloc::rss_peak_bytes();
    SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        // Guards drop LIFO in well-formed code; tolerate leaks anyway.
        if stack.last() == Some(&active.id) {
            stack.pop();
        } else {
            stack.retain(|&id| id != active.id);
        }
    });
    crate::metrics::histogram(active.name).record_span(
        elapsed.as_nanos() as u64,
        allocs,
        bytes,
        rss_peak,
    );
    if crate::trace_enabled() {
        push(Record::Span(SpanRecord {
            name: active.name,
            id: active.id,
            parent: active.parent,
            thread: thread_slot(),
            start_us: active.start_us,
            dur_us: elapsed.as_micros() as u64,
            allocs,
            bytes,
            rss_peak,
        }));
    }
}

pub(crate) fn push_event(name: &'static str, fields: &[(&'static str, Value)]) {
    push(Record::Event(EventRecord {
        name,
        thread: thread_slot(),
        at_us: now_us(),
        fields: fields.to_vec(),
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(3usize), Value::U64(3));
        assert_eq!(Value::from(true), Value::U64(1));
        assert_eq!(Value::from(2.5f32), Value::F64(2.5));
        assert_eq!(Value::from("x"), Value::Str("x".to_string()));
    }

    #[test]
    fn event_record_accessors() {
        let rec = EventRecord {
            name: "t",
            thread: 0,
            at_us: 0,
            fields: vec![
                ("a", Value::U64(4)),
                ("b", Value::F64(0.25)),
                ("c", Value::Str("s".into())),
            ],
        };
        assert_eq!(rec.u64("a"), Some(4));
        assert_eq!(rec.f64("a"), Some(4.0));
        assert_eq!(rec.f64("b"), Some(0.25));
        assert_eq!(rec.str("c"), Some("s"));
        assert_eq!(rec.u64("missing"), None);
    }
}
