//! The traced run's span recorder.
//!
//! Spans are opened and closed by the benchmark around its own calls into
//! each layer, kept in memory, and written out as JSON lines at exit. A
//! disabled tracer (the untraced run) records nothing and reads no clock.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or op name.
    pub name: &'static str,
    /// Op this span belongs to (0 = the fit phase).
    pub op: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Heap allocations made while the span was open
    /// (`vaer_obs::alloc::stats()` delta; counted only at `summary`).
    pub allocs: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle of an open span, returned by [`Tracer::open`].
#[must_use = "an opened span must be closed"]
pub struct Open(Option<usize>);

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `enabled` and is inert otherwise.
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.stack.last().copied(),
            start_ns: 0,
            end_ns: 0,
            allocs: vaer_obs::alloc::stats().allocs,
        });
        self.stack.push(id);
        // Read the clock last so the span's own bookkeeping stays outside it.
        self.spans[id].start_ns = self.now_ns();
        Open(Some(id))
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn close(&mut self, span: Open) {
        let Some(id) = span.0 else { return };
        let end = self.now_ns();
        let allocs = vaer_obs::alloc::stats().allocs;
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let s = &mut self.spans[id];
        s.end_ns = end;
        s.allocs = allocs.saturating_sub(s.allocs);
    }

    /// Runs `f` inside a span named `name`.
    pub fn call<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let span = self.open(name, op);
        let out = f();
        self.close(span);
        out
    }

    /// Every closed span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (s) of every span named `name`.
    pub fn secs_of(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::secs).collect()
    }

    /// Allocation counts of every span named `name`.
    pub fn allocs_of(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.allocs as f64).collect()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover.
    pub fn self_secs(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.secs();
            }
        }
        own
    }

    /// Summed durations (s) of the spans whose parent is named `parent`.
    pub fn child_secs(&self, parent: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == parent))
            .map(Span::secs)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    /// Any I/O error creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let own = self.self_secs();
        for (id, (s, o)) in self.spans.iter().zip(&own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_s\": {}, \"allocs\": {}}}",
                s.name,
                s.op,
                s.start_ns,
                s.end_ns,
                vaer_obs::json::number(*o),
                s.allocs
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.open("op", 1);
        t.call("a", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        t.call("b", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let own = t.self_secs();
        let children = spans[1].secs() + spans[2].secs();
        assert_eq!(t.child_secs("op"), children);
        assert_eq!(t.child_secs("a"), 0.0);
        assert!((own[0] - (spans[0].secs() - children)).abs() < 1e-12);
        assert!(own[0] >= 0.0 && children >= 0.005);
        assert_eq!(t.secs_of("a").len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.open("op", 1);
        assert_eq!(t.call("a", 1, || 7), 7);
        t.close(root);
        assert!(t.spans().is_empty());
        assert_eq!(t.child_secs("op"), 0.0);
    }
}
