//! Structured bench run records: one JSON object per run, appended as a
//! line to `BENCH_run.json` at the repository root (JSON-Lines, because
//! appending to a JSON array would mean rewriting the file on every run).
//!
//! Every record carries the run configuration (bench name, scale, seed,
//! thread count, observability level, quick flag, unix timestamp) plus
//! whatever datasets/F1s/wall-times/counters the bench adds. The JSON is
//! hand-assembled via [`vaer_obs::json`] — the workspace carries no
//! serialisation dependency.

use std::path::{Path, PathBuf};
use vaer_obs::json;

/// Version of the record schema. Bump when field meanings change so
/// `vaer-report` can refuse (or adapt to) incompatible history.
/// History: 1 = implicit pre-versioning records; 2 = adds per-stage
/// memory accounting, median-based lane timings, and this field.
pub const SCHEMA_VERSION: u64 = 2;

/// Maximum `BENCH_run.json` lines kept on disk; older lines are dropped
/// on append so history stays bounded and `vaer-report` reads stay O(1).
pub const MAX_RUN_RECORDS: usize = 200;

/// A builder for one `BENCH_run.json` line. Field order is preserved.
pub struct RunRecord {
    /// `(key, serialised JSON value)` pairs, in insertion order.
    fields: Vec<(String, String)>,
}

impl RunRecord {
    /// Starts a record stamped with the shared run configuration, at the
    /// process's worker width ([`vaer_linalg::runtime::threads`]).
    pub fn new(bench: &str) -> Self {
        Self::with_threads(bench, vaer_linalg::runtime::threads())
    }

    /// Starts a record stamped with the shared run configuration, for a
    /// bench whose recorded numbers were all measured at `threads`
    /// workers whatever the process's width. `vaer-report` bands a
    /// record only against records of the same `threads`.
    pub fn with_threads(bench: &str, threads: usize) -> Self {
        let mut r = Self { fields: Vec::new() };
        r.str_field("bench", bench);
        r.int("schema_version", SCHEMA_VERSION);
        r.str_field("scale", &format!("{:?}", crate::scale_from_env()));
        r.int("seed", crate::seed_from_env());
        r.int("threads", threads as u64);
        r.str_field("obs", vaer_obs::level().name());
        r.bool_field("quick", crate::quick_from_env());
        let unix_secs = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        r.int("unix_secs", unix_secs);
        r
    }

    /// Adds a string field.
    pub fn str_field(&mut self, key: &str, v: &str) -> &mut Self {
        self.raw(key, format!("\"{}\"", json::escape(v)))
    }

    /// Adds an unsigned-integer field.
    pub fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.raw(key, v.to_string())
    }

    /// Adds a number field (`null` for NaN/inf).
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        self.raw(key, json::number(v))
    }

    /// Adds a boolean field.
    pub fn bool_field(&mut self, key: &str, v: bool) -> &mut Self {
        self.raw(key, v.to_string())
    }

    /// Adds a list-of-strings field.
    pub fn str_list(&mut self, key: &str, vs: &[String]) -> &mut Self {
        let items: Vec<String> = vs
            .iter()
            .map(|v| format!("\"{}\"", json::escape(v)))
            .collect();
        self.raw(key, format!("[{}]", items.join(",")))
    }

    /// Adds a pre-serialised JSON value (caller guarantees validity).
    pub fn raw(&mut self, key: &str, value: String) -> &mut Self {
        self.fields.push((key.to_string(), value));
        self
    }

    /// Snapshots the current values of the given [`vaer_obs`] counters
    /// into a nested `"counters"` object (zeros when `VAER_OBS=off`,
    /// since nothing increments then).
    pub fn counters(&mut self, names: &[&str]) -> &mut Self {
        let items: Vec<String> = names
            .iter()
            .map(|n| format!("\"{}\":{}", json::escape(n), vaer_obs::counter(n).get()))
            .collect();
        self.raw("counters", format!("{{{}}}", items.join(",")))
    }

    /// The record as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", json::escape(k), v))
            .collect();
        format!("{{{}}}", items.join(","))
    }

    /// Appends the record as one line to `BENCH_run.json` at the repo
    /// root, creating the file on first use. Returns the path written,
    /// or prints a warning and returns `None` on I/O failure (benches
    /// must not fail because a read-only checkout rejects the write).
    pub fn append(&self) -> Option<PathBuf> {
        use std::io::Write;
        let path = run_record_path();
        let line = self.to_json();
        debug_assert!(json::is_valid(&line), "run record is not valid JSON");
        let res = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "{line}"));
        match res {
            Ok(()) => {
                compact(&path, MAX_RUN_RECORDS);
                println!("(run record appended to {})", path.display());
                Some(path)
            }
            Err(e) => {
                println!("(could not append run record to {}: {e})", path.display());
                None
            }
        }
    }
}

/// Keeps only the newest `keep` lines of a JSONL file. Best-effort: any
/// I/O failure leaves the file as it was (benches never fail on
/// housekeeping). Benches run serially, so the read-rewrite is not
/// racing other writers.
pub fn compact(path: &Path, keep: usize) {
    let Ok(text) = std::fs::read_to_string(path) else {
        return;
    };
    let lines: Vec<&str> = text.lines().collect();
    if lines.len() <= keep {
        return;
    }
    let mut kept = lines[lines.len() - keep..].join("\n");
    kept.push('\n');
    if std::fs::write(path, kept).is_ok() {
        println!(
            "(rotated {}: kept newest {keep} of {} records)",
            path.display(),
            lines.len()
        );
    }
}

/// The `BENCH_run.json` path at the repository root.
pub fn run_record_path() -> PathBuf {
    let mut path = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.pop();
    path.pop();
    path.push("BENCH_run.json");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_serialises_to_valid_json() {
        let mut r = RunRecord::new("unit_test");
        r.str_field("domain", "Rest.\"quoted\"")
            .num("f1", 0.9125)
            .num("bad", f64::NAN)
            .int("labels", 40)
            .bool_field("skipped", false)
            .str_list("domains", &["a".into(), "b\nc".into()])
            .counters(&["repr.encode.calls"]);
        let line = r.to_json();
        assert!(json::is_valid(&line), "invalid: {line}");
        assert!(line.starts_with("{\"bench\":\"unit_test\""));
        assert!(line.contains(&format!("\"schema_version\":{SCHEMA_VERSION}")));
        assert!(line.contains("\"bad\":null"));
        assert!(line.contains("\"repr.encode.calls\":"));
    }

    #[test]
    fn compact_keeps_newest_lines() {
        let dir = std::env::temp_dir().join(format!("vaer_compact_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rotate.jsonl");
        let lines: Vec<String> = (0..10).map(|i| format!("{{\"run\":{i}}}")).collect();
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();

        compact(&path, 4);
        let text = std::fs::read_to_string(&path).unwrap();
        let kept: Vec<&str> = text.lines().collect();
        assert_eq!(kept.len(), 4);
        assert_eq!(kept[0], "{\"run\":6}");
        assert_eq!(kept[3], "{\"run\":9}");
        assert!(text.ends_with('\n'));

        // Under the cap: untouched.
        compact(&path, 100);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        // Missing file: no-op, no panic.
        compact(&dir.join("absent.jsonl"), 4);
        std::fs::remove_dir_all(&dir).ok();
    }
}
