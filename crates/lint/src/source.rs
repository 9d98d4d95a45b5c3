//! Per-file facts derived from the token stream: which lines are test
//! code, where `// vaer-lint: allow(...)` markers sit, and which lines
//! fall inside functions documented with a `# Panics` section. Test code
//! and `# Panics` spans are read off the [`ItemTree`].

use crate::scanner::{scan, Tok};
use crate::syntax::{self, ItemTree};
use std::path::PathBuf;

/// How a file entered the workspace walk. Rules use this to decide
/// whether their invariant applies (most only guard library code).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// A crate's `src/` (or the workspace root `src/`).
    Lib,
    /// Integration tests (`tests/` at any level).
    Test,
    /// Benchmarks (`benches/`).
    Bench,
    /// Examples (`examples/`).
    Example,
}

/// An inline suppression marker: `// vaer-lint: allow(rule) -- reason`.
#[derive(Clone, Debug)]
pub struct AllowMarker {
    /// Rule the marker suppresses.
    pub rule: String,
    /// Justification after `--` (empty when the author omitted one —
    /// which the engine reports as its own finding).
    pub reason: String,
    /// Line the marker sits on. It suppresses findings on this line and
    /// the next, so it works both trailing and as a line above.
    pub line: u32,
}

/// A scanned source file plus the line-level facts rules consume.
#[derive(Debug)]
pub struct SourceFile {
    /// Absolute (or walk-root-relative) path on disk.
    pub path: PathBuf,
    /// Path relative to the workspace root, with `/` separators —
    /// the form used in reports, configs, and the unsafe ledger.
    pub rel: String,
    /// Kind by directory.
    pub kind: FileKind,
    /// Token stream.
    pub toks: Vec<Tok>,
    /// Item tree: fns, calls, loops, attributes, guard regions.
    pub tree: ItemTree,
    /// Raw source text (the ledger-sync rule greps construct names).
    pub src: String,
    /// Total number of lines.
    pub num_lines: u32,
    /// Inline suppression markers.
    pub allows: Vec<AllowMarker>,
}

impl SourceFile {
    /// Scans `src` into a file model.
    pub fn parse(path: PathBuf, rel: String, kind: FileKind, src: &str) -> Self {
        let toks = scan(src);
        let num_lines = src.lines().count() as u32;
        let allows = collect_allow_markers(&toks);
        let tree = syntax::parse(&toks);
        Self {
            path,
            rel,
            kind,
            toks,
            tree,
            src: src.to_string(),
            num_lines,
            allows,
        }
    }

    /// Whether the 1-based line is test code: the whole file for
    /// `tests/` files, or a `#[cfg(test)]` region in library code.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.kind == FileKind::Test
            || self
                .tree
                .test_spans
                .iter()
                .any(|&(first, last)| first <= line && line <= last)
    }

    /// Whether the line is inside a fn documented with `# Panics`.
    pub fn in_panics_documented_fn(&self, line: u32) -> bool {
        self.tree
            .fns
            .iter()
            .any(|f| f.panics_doc && f.line <= line && line <= f.end_line)
    }

    /// The allow marker (if any) covering `line` for `rule`.
    pub fn allow_for(&self, rule: &str, line: u32) -> Option<&AllowMarker> {
        self.allows
            .iter()
            .find(|m| m.rule == rule && (m.line == line || m.line + 1 == line))
    }
}

/// Extracts `vaer-lint: allow(rule)` / `vaer-lint: allow(rule) -- reason`
/// markers from comment tokens.
fn collect_allow_markers(toks: &[Tok]) -> Vec<AllowMarker> {
    let mut out = Vec::new();
    for t in toks {
        if !t.is_comment() {
            continue;
        }
        let mut rest = t.text.as_str();
        while let Some(pos) = rest.find("vaer-lint:") {
            rest = &rest[pos + "vaer-lint:".len()..];
            let trimmed = rest.trim_start();
            let Some(args) = trimmed.strip_prefix("allow(") else {
                continue;
            };
            let Some(close) = args.find(')') else {
                continue;
            };
            let rule = args[..close].trim().to_string();
            let after = &args[close + 1..];
            let reason = after
                .trim_start()
                .strip_prefix("--")
                .map(|r| r.trim().to_string())
                .unwrap_or_default();
            out.push(AllowMarker {
                rule,
                reason,
                line: t.line,
            });
            rest = after;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::parse(PathBuf::from("x.rs"), "x.rs".into(), FileKind::Lib, src)
    }

    #[test]
    fn cfg_test_region_covers_module_body() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() {}\n}\nfn c() {}\n";
        let f = file(src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(4));
        assert!(f.is_test_line(5));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn panics_doc_covers_fn_body() {
        let src = "/// Does things.\n///\n/// # Panics\n/// When x.\npub fn f() {\n  panic!();\n}\nfn g() {\n  panic!();\n}\n";
        let f = file(src);
        assert!(f.in_panics_documented_fn(6));
        assert!(!f.in_panics_documented_fn(9));
    }

    #[test]
    fn panics_doc_survives_semicolons_in_array_types() {
        // `[[i32; 4]; 2]` puts `;` tokens in the signature; they must
        // not be read as a bodyless trait-method declaration.
        let src = "/// # Panics\n/// When y.\nfn f(acc: &mut [[i32; 4]; 2]) {\n  assert!(acc[0][0] == 0);\n}\n";
        let f = file(src);
        assert!(f.in_panics_documented_fn(4));
    }

    #[test]
    fn allow_markers_parse_rule_and_reason() {
        let src = "let x = m.get(k).unwrap(); // vaer-lint: allow(panic) -- key inserted above\n";
        let f = file(src);
        assert_eq!(f.allows.len(), 1);
        assert_eq!(f.allows[0].rule, "panic");
        assert_eq!(f.allows[0].reason, "key inserted above");
        assert!(f.allow_for("panic", 1).is_some());
        assert!(f.allow_for("panic", 2).is_some(), "marker covers next line");
        assert!(f.allow_for("panic", 3).is_none());
    }

    #[test]
    fn test_files_are_test_everywhere() {
        let f = SourceFile::parse(
            PathBuf::from("t.rs"),
            "t.rs".into(),
            FileKind::Test,
            "fn a() {}\n",
        );
        assert!(f.is_test_line(1));
    }
}
