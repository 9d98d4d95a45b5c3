//! The rule catalogue. Each rule walks a file's token stream and emits
//! findings; the engine applies config levels, path exemptions, and
//! inline allow markers afterwards.

use crate::callgraph::CallGraph;
use crate::config::{AtomicsPolicy, Level};
use crate::report::Finding;
use crate::scanner::{Tok, TokKind};
use crate::semantic::{
    AtomicOrderingPolicy, CancelProbeCoverage, FeatureGuardDominance, UnsafeLedgerSync,
};
use crate::source::{FileKind, SourceFile};
use std::collections::BTreeMap;

/// Loop-size threshold for `cancel-probe-coverage` when `lints.toml`
/// does not override it.
pub const DEFAULT_MIN_LOOP_LINES: u32 = 8;

/// One parsed `UNSAFE_LEDGER.md` table row.
#[derive(Clone, Debug)]
pub struct LedgerRow {
    /// Workspace-relative path from the first cell.
    pub file: String,
    /// The Construct cell — what the row claims the file contains.
    pub construct: String,
    /// 1-based line of the row in the ledger.
    pub line: u32,
}

/// Workspace-level facts shared by registry-backed and semantic rules.
#[derive(Clone, Debug)]
pub struct Context {
    /// Names in `vaer_fault`'s `FAILPOINTS` registry const.
    pub failpoints: Vec<String>,
    /// Prefixes in `vaer_obs`'s `NAME_PREFIXES` registry const.
    pub obs_prefixes: Vec<String>,
    /// Environment knobs in `vaer_obs`'s `ENV_KNOBS` registry const.
    pub env_knobs: Vec<String>,
    /// Degradation names in `vaer_core`'s `DEGRADATIONS` registry const.
    pub degradations: Vec<String>,
    /// Rows parsed from `UNSAFE_LEDGER.md`.
    pub ledger_rows: Vec<LedgerRow>,
    /// Whether an `UNSAFE_LEDGER.md` was found at the workspace root.
    pub has_ledger: bool,
    /// `#[target_feature]` fn name -> required feature set, workspace-wide.
    pub feature_fns: BTreeMap<String, Vec<String>>,
    /// The intra-workspace call graph.
    pub callgraph: CallGraph,
    /// The `[atomics."<prefix>"]` policy table from `lints.toml`.
    pub atomics: Vec<AtomicsPolicy>,
    /// Loop-size threshold for `cancel-probe-coverage`.
    pub min_loop_lines: u32,
}

impl Default for Context {
    fn default() -> Self {
        Self {
            failpoints: Vec::new(),
            obs_prefixes: Vec::new(),
            env_knobs: Vec::new(),
            degradations: Vec::new(),
            ledger_rows: Vec::new(),
            has_ledger: false,
            feature_fns: BTreeMap::new(),
            callgraph: CallGraph::default(),
            atomics: Vec::new(),
            min_loop_lines: DEFAULT_MIN_LOOP_LINES,
        }
    }
}

/// A single lint rule.
pub trait Rule {
    /// Stable id used in configs, markers, and reports.
    fn id(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn description(&self) -> &'static str;
    /// Emits raw findings for one file (levels are patched by the
    /// engine; emit everything at `Deny`).
    fn check(&self, file: &SourceFile, ctx: &Context, out: &mut Vec<Finding>);
}

/// The full rule set, in report order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(DetHashIter),
        Box::new(DetWallclock),
        Box::new(DetThreadSpawn),
        Box::new(SafetyComment),
        Box::new(NoStaticMut),
        Box::new(PanicMarkers),
        Box::new(FailpointRegistry),
        Box::new(ObsRegistry),
        Box::new(StageRegistry),
        Box::new(DegradationRegistry),
        Box::new(FeatureGuardDominance),
        Box::new(UnsafeLedgerSync),
        Box::new(AtomicOrderingPolicy),
        Box::new(CancelProbeCoverage),
    ]
}

/// Ids of every rule plus the engine's own pseudo-rules (valid in
/// configs and allow markers).
pub fn known_rule_ids() -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = all_rules().iter().map(|r| r.id()).collect();
    ids.push("bare-allow");
    ids.push("stale-registry");
    ids
}

pub(crate) fn finding(
    file: &SourceFile,
    rule: &'static str,
    line: u32,
    message: String,
) -> Finding {
    Finding {
        rule,
        level: Level::Deny,
        file: file.rel.clone(),
        line,
        message,
    }
}

/// Indices of non-comment tokens, the stream rules pattern-match over.
pub(crate) fn code(file: &SourceFile) -> Vec<&Tok> {
    file.toks.iter().filter(|t| !t.is_comment()).collect()
}

/// Marks which code-token positions sit inside a `use …;` declaration,
/// so type-name rules flag usage sites rather than imports.
pub(crate) fn in_use_decl(code: &[&Tok]) -> Vec<bool> {
    let mut marks = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        if code[i].is_ident("use") && (i == 0 || !code[i - 1].is_punct(".")) {
            let mut j = i;
            while j < code.len() && !code[j].is_punct(";") {
                marks[j] = true;
                j += 1;
            }
            if j < code.len() {
                marks[j] = true;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    marks
}

/// determinism: no `HashMap`/`HashSet` in library code. Hash iteration
/// order is seeded per-process, so anything that ever iterates one into
/// serialized output, obs snapshots, or reported metrics breaks VAER's
/// bit-reproducibility guarantees. Use `BTreeMap`/`BTreeSet`, or sort
/// explicitly and mark the site `// vaer-lint: allow(det-hash-iter) --
/// <why iteration order cannot escape>`.
struct DetHashIter;

impl Rule for DetHashIter {
    fn id(&self) -> &'static str {
        "det-hash-iter"
    }
    fn description(&self) -> &'static str {
        "HashMap/HashSet in library code risks nondeterministic iteration; use BTree* or sort"
    }
    fn check(&self, file: &SourceFile, _ctx: &Context, out: &mut Vec<Finding>) {
        if file.kind != FileKind::Lib {
            return;
        }
        let code = code(file);
        let uses = in_use_decl(&code);
        for (i, t) in code.iter().enumerate() {
            if t.kind == TokKind::Ident
                && (t.text == "HashMap" || t.text == "HashSet")
                && !uses[i]
                && !file.is_test_line(t.line)
            {
                out.push(finding(
                    file,
                    self.id(),
                    t.line,
                    format!(
                        "`{}` has nondeterministic iteration order; use `BTree{}` (or sort before iterating) so serialized output stays byte-stable",
                        t.text,
                        &t.text[4..]
                    ),
                ));
            }
        }
    }
}

/// determinism: no wall-clock reads (`Instant`/`SystemTime`) in compute
/// paths. Timing belongs to `vaer-obs` spans and the bench harness;
/// ad-hoc clocks smuggle nondeterminism into results. Path exemptions in
/// `lints.toml` cover the crates whose *business* is timing.
struct DetWallclock;

impl Rule for DetWallclock {
    fn id(&self) -> &'static str {
        "det-wallclock"
    }
    fn description(&self) -> &'static str {
        "Instant/SystemTime outside obs/bench timing paths makes results run-dependent"
    }
    fn check(&self, file: &SourceFile, _ctx: &Context, out: &mut Vec<Finding>) {
        if file.kind != FileKind::Lib {
            return;
        }
        let code = code(file);
        let uses = in_use_decl(&code);
        for (i, t) in code.iter().enumerate() {
            if t.kind == TokKind::Ident
                && (t.text == "Instant" || t.text == "SystemTime")
                && !uses[i]
                && !file.is_test_line(t.line)
            {
                out.push(finding(
                    file,
                    self.id(),
                    t.line,
                    format!(
                        "`{}` read in a compute path; route timing through `vaer_obs::span` or mark why wall-clock is the measured quantity",
                        t.text
                    ),
                ));
            }
        }
    }
}

/// determinism: no raw `thread::spawn` or `thread::Builder` — all
/// parallelism goes through `vaer_linalg::runtime`, whose fixed shard
/// order is what keeps parallel gradients bit-identical.
struct DetThreadSpawn;

impl Rule for DetThreadSpawn {
    fn id(&self) -> &'static str {
        "det-thread-spawn"
    }
    fn description(&self) -> &'static str {
        "raw thread::spawn/thread::Builder bypasses the deterministic vaer_linalg::runtime worker pool"
    }
    fn check(&self, file: &SourceFile, _ctx: &Context, out: &mut Vec<Finding>) {
        let code = code(file);
        for w in code.windows(4) {
            if w[0].is_ident("thread")
                && w[1].is_punct(":")
                && w[2].is_punct(":")
                && (w[3].is_ident("spawn") || w[3].is_ident("Builder"))
                && !file.is_test_line(w[0].line)
            {
                out.push(finding(
                    file,
                    self.id(),
                    w[0].line,
                    format!(
                        "raw `thread::{}`; use `vaer_linalg::runtime` so work keeps its deterministic shard order",
                        w[3].text
                    ),
                ));
            }
        }
    }
}

/// safety: every `unsafe` occurrence (blocks, fns, impls) and every
/// `#[target_feature]` fn must carry a `// SAFETY:` comment just above
/// (or on) its line. Ledger membership is the `unsafe-ledger-sync`
/// rule's job.
struct SafetyComment;

impl SafetyComment {
    fn has_safety_comment(file: &SourceFile, line: u32) -> bool {
        // Within 5 lines above: a SAFETY comment may span several lines
        // and sit above `#[cfg]`-style attributes of the same item.
        file.toks.iter().any(|t| {
            t.is_comment() && t.text.contains("SAFETY:") && t.line + 5 >= line && t.line <= line
        })
    }

    fn require(&self, file: &SourceFile, line: u32, what: &str, out: &mut Vec<Finding>) {
        if !Self::has_safety_comment(file, line) {
            out.push(finding(
                file,
                self.id(),
                line,
                format!("{what} without a `// SAFETY:` comment on or directly above it"),
            ));
        }
    }
}

impl Rule for SafetyComment {
    fn id(&self) -> &'static str {
        "safety-comment"
    }
    fn description(&self) -> &'static str {
        "unsafe blocks/fns and #[target_feature] need a SAFETY: comment on or directly above them"
    }
    fn check(&self, file: &SourceFile, _ctx: &Context, out: &mut Vec<Finding>) {
        if file.kind != FileKind::Lib {
            return;
        }
        let code = code(file);
        for (i, t) in code.iter().enumerate() {
            if file.is_test_line(t.line) {
                continue;
            }
            if t.is_ident("unsafe") {
                self.require(file, t.line, "`unsafe`", out);
            }
            // `#[target_feature(...)]` — the call contract (CPU must
            // support the feature) is an unsafe-style obligation.
            if t.is_ident("target_feature")
                && i >= 2
                && code[i - 1].is_punct("[")
                && code[i - 2].is_punct("#")
            {
                self.require(file, t.line, "`#[target_feature]`", out);
            }
        }
    }
}

/// safety: `static mut` is banned outright — there is always a better
/// primitive (`AtomicU64`, `Mutex`, `OnceLock`).
struct NoStaticMut;

impl Rule for NoStaticMut {
    fn id(&self) -> &'static str {
        "no-static-mut"
    }
    fn description(&self) -> &'static str {
        "static mut is banned; use atomics, Mutex, or OnceLock"
    }
    fn check(&self, file: &SourceFile, _ctx: &Context, out: &mut Vec<Finding>) {
        let code = code(file);
        for w in code.windows(2) {
            if w[0].is_ident("static") && w[1].is_ident("mut") {
                out.push(finding(
                    file,
                    self.id(),
                    w[0].line,
                    "`static mut`; use an atomic, `Mutex`, or `OnceLock` instead".into(),
                ));
            }
        }
    }
}

/// panics: `unwrap`/`expect`/`panic!`/`assert!` in non-test library code
/// must either sit in a fn documented with a `# Panics` section or carry
/// an inline `// vaer-lint: allow(panic) -- <reason>` marker. Extends
/// PR 4's panic audit into a machine-checked gate. (`debug_assert!` is
/// exempt: it compiles out of release builds.)
struct PanicMarkers;

const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

impl Rule for PanicMarkers {
    fn id(&self) -> &'static str {
        "panic"
    }
    fn description(&self) -> &'static str {
        "unwrap/expect/panic!/assert! in library code need a # Panics doc or an allow(panic) marker"
    }
    fn check(&self, file: &SourceFile, _ctx: &Context, out: &mut Vec<Finding>) {
        if file.kind != FileKind::Lib {
            return;
        }
        let code = code(file);
        for i in 1..code.len() {
            let t = code[i];
            if t.kind != TokKind::Ident
                || file.is_test_line(t.line)
                || file.in_panics_documented_fn(t.line)
            {
                continue;
            }
            let next_is = |text: &str| code.get(i + 1).is_some_and(|n| n.is_punct(text));
            let what = if (t.text == "unwrap" || t.text == "expect")
                && code[i - 1].is_punct(".")
                && next_is("(")
            {
                format!("`.{}()`", t.text)
            } else if PANIC_MACROS.contains(&t.text.as_str())
                && next_is("!")
                && !code[i - 1].is_punct(".")
            {
                format!("`{}!`", t.text)
            } else {
                continue;
            };
            out.push(finding(
                file,
                self.id(),
                t.line,
                format!(
                    "{what} in library code; return a typed error, document the invariant under `# Panics`, or mark `// vaer-lint: allow(panic) -- <reason>`"
                ),
            ));
        }
    }
}

/// observability: every failpoint name used at a `vaer_fault::check` /
/// `vaer_fault::trigger` site must appear in the `FAILPOINTS` registry
/// const, so crash-recovery tests can iterate the full surface.
struct FailpointRegistry;

impl Rule for FailpointRegistry {
    fn id(&self) -> &'static str {
        "failpoint-registry"
    }
    fn description(&self) -> &'static str {
        "failpoint names at check/trigger sites must be listed in vaer_fault::FAILPOINTS"
    }
    fn check(&self, file: &SourceFile, ctx: &Context, out: &mut Vec<Finding>) {
        if file.kind != FileKind::Lib {
            return;
        }
        let code = code(file);
        for w in code.windows(6) {
            if w[0].is_ident("vaer_fault")
                && w[1].is_punct(":")
                && w[2].is_punct(":")
                && (w[3].is_ident("check") || w[3].is_ident("trigger"))
                && w[4].is_punct("(")
                && w[5].kind == TokKind::Str
                && !file.is_test_line(w[0].line)
                && !ctx.failpoints.iter().any(|n| n == &w[5].text)
            {
                out.push(finding(
                    file,
                    self.id(),
                    w[0].line,
                    format!(
                        "failpoint `{}` is not in the FAILPOINTS registry; add it so tests can iterate every site",
                        w[5].text
                    ),
                ));
            }
        }
    }
}

/// observability: every obs counter/gauge/histogram/span/event name
/// registered in library code must use a prefix from the `NAME_PREFIXES`
/// registry const, and every `VAER_*` environment knob read through
/// `env::var` must be listed in the `ENV_KNOBS` registry const — both
/// keep the observable surface enumerable by tests and docs.
struct ObsRegistry;

pub(crate) const OBS_FNS: &[&str] = &["counter", "gauge", "histogram", "span", "event"];

impl Rule for ObsRegistry {
    fn id(&self) -> &'static str {
        "obs-registry"
    }
    fn description(&self) -> &'static str {
        "obs metric/span names need a NAME_PREFIXES prefix; VAER_* env reads need an ENV_KNOBS row"
    }
    fn check(&self, file: &SourceFile, ctx: &Context, out: &mut Vec<Finding>) {
        if file.kind != FileKind::Lib {
            return;
        }
        let code = code(file);
        for i in 1..code.len().saturating_sub(2) {
            let t = code[i];
            if t.kind != TokKind::Ident
                || code[i - 1].is_punct(".") // method call, not a registration
                || !code[i + 1].is_punct("(")
                || code[i + 2].kind != TokKind::Str
                || file.is_test_line(t.line)
            {
                continue;
            }
            if OBS_FNS.contains(&t.text.as_str()) {
                let name = &code[i + 2].text;
                let prefix = name.split('.').next().unwrap_or(name);
                if !ctx.obs_prefixes.iter().any(|p| p == prefix) {
                    out.push(finding(
                        file,
                        self.id(),
                        t.line,
                        format!(
                            "obs name `{name}` uses unregistered prefix `{prefix}`; add it to NAME_PREFIXES or reuse a registered namespace"
                        ),
                    ));
                }
            } else if t.text == "var" && code[i + 2].text.starts_with("VAER_") {
                let knob = &code[i + 2].text;
                if !ctx.env_knobs.iter().any(|k| k == knob) {
                    out.push(finding(
                        file,
                        self.id(),
                        t.line,
                        format!(
                            "env knob `{knob}` is not in the ENV_KNOBS registry; add it so the knob surface stays enumerable"
                        ),
                    ));
                }
            }
        }
    }
}

/// staged executor: every stage name declared in a `STAGES` const (the
/// executor's dataflow list) must be a registered failpoint AND live
/// inside a registered obs namespace — a stage always carries both, so a
/// missing registry entry means un-injectable faults or un-enumerable
/// telemetry.
struct StageRegistry;

impl Rule for StageRegistry {
    fn id(&self) -> &'static str {
        "stage-registry"
    }
    fn description(&self) -> &'static str {
        "exec stage names in STAGES consts must be registered failpoints inside a registered obs namespace"
    }
    fn check(&self, file: &SourceFile, ctx: &Context, out: &mut Vec<Finding>) {
        if file.kind != FileKind::Lib {
            return;
        }
        let code = code(file);
        for i in 1..code.len() {
            if !code[i].is_ident("STAGES")
                || !code[i - 1].is_ident("const")
                || file.is_test_line(code[i].line)
            {
                continue;
            }
            // Skip the type annotation: strings live after the `=`.
            let mut j = i + 1;
            while j < code.len() && !code[j].is_punct("=") {
                j += 1;
            }
            while j < code.len() && !code[j].is_punct("[") {
                j += 1;
            }
            j += 1;
            while j < code.len() && !code[j].is_punct("]") {
                let t = code[j];
                j += 1;
                if t.kind != TokKind::Str {
                    continue;
                }
                let name = &t.text;
                if !ctx.failpoints.iter().any(|n| n == name) {
                    out.push(finding(
                        file,
                        self.id(),
                        t.line,
                        format!(
                            "stage `{name}` has no registered failpoint; add it to vaer_fault::FAILPOINTS"
                        ),
                    ));
                }
                let prefix = name.split('.').next().unwrap_or(name);
                if !ctx.obs_prefixes.iter().any(|p| p == prefix) {
                    out.push(finding(
                        file,
                        self.id(),
                        t.line,
                        format!(
                            "stage `{name}` is outside every registered obs namespace; add `{prefix}` to NAME_PREFIXES"
                        ),
                    ));
                }
            }
        }
    }
}

/// resilience: every degradation name fired at a `degrade` /
/// `note_degrade` site must appear in the `DEGRADATIONS` registry const,
/// so the chaos soak and `vaer-report` can enumerate every way a run is
/// allowed to weaken itself. Method receivers are deliberately matched
/// (unlike obs registrations): real sites are `health.degrade(…)` and
/// `executor.note_degrade(…)` calls.
struct DegradationRegistry;

impl Rule for DegradationRegistry {
    fn id(&self) -> &'static str {
        "degradation-registry"
    }
    fn description(&self) -> &'static str {
        "degradation names at degrade/note_degrade sites must be listed in DEGRADATIONS"
    }
    fn check(&self, file: &SourceFile, ctx: &Context, out: &mut Vec<Finding>) {
        if file.kind != FileKind::Lib {
            return;
        }
        let code = code(file);
        for i in 0..code.len().saturating_sub(2) {
            let t = code[i];
            if t.kind != TokKind::Ident
                || (t.text != "degrade" && t.text != "note_degrade")
                || !code[i + 1].is_punct("(")
                || code[i + 2].kind != TokKind::Str
                || file.is_test_line(t.line)
            {
                continue;
            }
            let name = &code[i + 2].text;
            if !ctx.degradations.iter().any(|d| d == name) {
                out.push(finding(
                    file,
                    self.id(),
                    t.line,
                    format!(
                        "degradation `{name}` is not in the DEGRADATIONS registry; add it so every fallback lane stays enumerable"
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn lib_file(src: &str) -> SourceFile {
        SourceFile::parse(
            PathBuf::from("crates/x/src/lib.rs"),
            "crates/x/src/lib.rs".into(),
            FileKind::Lib,
            src,
        )
    }

    fn run(rule: &dyn Rule, src: &str, ctx: &Context) -> Vec<Finding> {
        let mut out = Vec::new();
        rule.check(&lib_file(src), ctx, &mut out);
        out
    }

    #[test]
    fn stage_registry_requires_failpoint_and_obs_namespace() {
        let ctx = Context {
            failpoints: vec!["exec.block".into()],
            obs_prefixes: vec!["exec".into()],
            ..Context::default()
        };
        let ok = "pub const STAGES: &[&str] = &[\"exec.block\"];";
        assert!(run(&StageRegistry, ok, &ctx).is_empty());
        // Unregistered failpoint + unregistered namespace = two findings;
        // registered-prefix-but-unregistered-failpoint = one.
        let bad = "pub const STAGES: &[&str] = &[\"rogue.stage\", \"exec.ghost\"];";
        let f = run(&StageRegistry, bad, &ctx);
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f
            .iter()
            .any(|x| x.message.contains("rogue.stage") && x.message.contains("failpoint")));
        assert!(f.iter().any(|x| x.message.contains("`rogue`")));
        assert!(f.iter().any(|x| x.message.contains("exec.ghost")));
        // Other consts and test code are ignored.
        let other = "pub const NAMES: &[&str] = &[\"rogue.stage\"];\n#[cfg(test)]\nmod tests { pub const STAGES: &[&str] = &[\"rogue.stage\"]; }";
        assert!(run(&StageRegistry, other, &ctx).is_empty());
    }

    #[test]
    fn hash_rule_flags_usage_not_imports_or_tests() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n#[cfg(test)]\nmod tests { fn g() { let s = std::collections::HashSet::<u32>::new(); let _ = s; } }\n";
        let f = run(&DetHashIter, src, &Context::default());
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.line == 2));
    }

    #[test]
    fn wallclock_rule_flags_instant() {
        let f = run(
            &DetWallclock,
            "fn f() { let t = std::time::Instant::now(); }",
            &Context::default(),
        );
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn thread_spawn_flagged() {
        let f = run(
            &DetThreadSpawn,
            "fn f() { std::thread::spawn(|| {}); }",
            &Context::default(),
        );
        assert_eq!(f.len(), 1);
        let f = run(
            &DetThreadSpawn,
            "fn f() { let _ = std::thread::Builder::new().spawn(|| {}); }",
            &Context::default(),
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("thread::Builder"), "{f:?}");
    }

    #[test]
    fn unsafe_needs_comment() {
        let ctx = Context::default();
        let f = run(&SafetyComment, "fn f() { unsafe { work() } }", &ctx);
        assert_eq!(f.len(), 1, "missing SAFETY comment: {f:?}");
        let ok_src = "fn f() {\n    // SAFETY: bounds checked above.\n    unsafe { work() }\n}";
        assert!(run(&SafetyComment, ok_src, &ctx).is_empty());
    }

    #[test]
    fn static_mut_flagged() {
        let f = run(&NoStaticMut, "static mut X: u32 = 0;", &Context::default());
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn panic_rule_honours_panics_doc_and_skips_unwrap_or() {
        let src = "/// # Panics\n/// When empty.\npub fn f(v: &[u32]) -> u32 { *v.first().unwrap() }\nfn g(v: &[u32]) -> u32 { v.first().copied().unwrap_or(0) }\nfn h() { panic!(\"boom\") }\n";
        let f = run(&PanicMarkers, src, &Context::default());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn debug_assert_is_exempt() {
        let f = run(
            &PanicMarkers,
            "fn f(x: u32) { debug_assert!(x > 0); }",
            &Context::default(),
        );
        assert!(f.is_empty());
    }

    #[test]
    fn failpoint_names_checked_against_registry() {
        let ctx = Context {
            failpoints: vec!["vae.epoch".into()],
            ..Context::default()
        };
        let src =
            "fn f() { vaer_fault::trigger(\"vae.epoch\"); vaer_fault::check(\"rogue.site\"); }";
        let f = run(&FailpointRegistry, src, &ctx);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("rogue.site"));
    }

    #[test]
    fn degradation_names_checked_against_registry() {
        let ctx = Context {
            degradations: vec!["degrade.score.f32_fallback".into()],
            ..Context::default()
        };
        // Both free-fn and method-receiver spellings are in scope; only
        // the unregistered name fires.
        let src = "fn f(h: &mut Health, e: &Exec) { h.degrade(\"degrade.score.f32_fallback\", \"no twin\"); e.note_degrade(\"degrade.rogue\", \"oops\"); }";
        let f = run(&DegradationRegistry, src, &ctx);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("degrade.rogue"));
        // Non-literal names (runtime values) are out of scope.
        let dynamic = "fn g(h: &mut Health, n: &str) { h.degrade(n, \"detail\"); }";
        assert!(run(&DegradationRegistry, dynamic, &ctx).is_empty());
    }

    #[test]
    fn obs_prefixes_checked_against_registry() {
        let ctx = Context {
            obs_prefixes: vec!["vae".into()],
            ..Context::default()
        };
        let src = "fn f() { vaer_obs::span(\"vae.step\"); vaer_obs::counter(\"mystery.count\"); }";
        let f = run(&ObsRegistry, src, &ctx);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("mystery"));
    }

    #[test]
    fn env_knobs_checked_against_registry() {
        let ctx = Context {
            env_knobs: vec!["VAER_OBS".into()],
            ..Context::default()
        };
        // Registered knob, unregistered knob, and a non-VAER env read
        // (outside the rule's scope entirely).
        let src = "fn f() { let a = std::env::var(\"VAER_OBS\"); let b = std::env::var(\"VAER_SECRET_KNOB\"); let c = std::env::var(\"HOME\"); let _ = (a, b, c); }";
        let f = run(&ObsRegistry, src, &ctx);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("VAER_SECRET_KNOB"));
    }

    #[test]
    fn obs_method_reads_are_not_registrations() {
        let ctx = Context::default();
        let f = run(
            &ObsRegistry,
            "fn f(s: &Sink) { s.counter(\"anything.at.all\"); }",
            &ctx,
        );
        assert!(f.is_empty());
    }
}
