//! Item-tree parser on top of the token scanner.
//!
//! The semantic rules (feature-guard dominance, cancel-probe coverage,
//! ledger sync) need more structure than a flat token stream: which fn
//! a call sits in, which `#[target_feature]` set a fn enables, which
//! `if is_x86_feature_detected!(...)` block dominates a line, where a
//! loop body starts and ends. This module recovers exactly that much
//! structure — fn/impl nesting, attributes (including `#[cfg_attr]`-
//! wrapped and multi-line forms), call expressions, loop spans,
//! feature-guard regions, `#[cfg(test)]` item spans, and `# Panics` doc
//! sections — in a single linear pass over the tokens. It is deliberately
//! not a full parser: unbalanced or exotic input degrades to fewer facts,
//! never to a panic.

use crate::scanner::{Tok, TokKind};

/// One parsed function item (including nested fns and trait default
/// methods with bodies; bodyless trait declarations are skipped).
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Line of the body's closing `}`.
    pub end_line: u32,
    /// Features from `#[target_feature(enable = "...")]`, split on `,`.
    /// `#[cfg_attr(..., target_feature(enable = "..."))]` counts too.
    pub features: Vec<String>,
    /// Whether the fn sits directly in an `impl <...> Stage for ...`
    /// block — the staged executor's entry points when named `run`.
    pub in_stage_impl: bool,
    /// Whether the fn's doc comment has a `# Panics` section (the
    /// documented-invariant escape hatch of the panic rule).
    pub panics_doc: bool,
    /// Call expressions in the body: every `name(...)` / `.name(...)`.
    pub calls: Vec<Call>,
    /// `for`/`while`/`loop` body spans in the body (nested included).
    pub loops: Vec<LoopSpan>,
}

/// A call expression site (callee name only — resolution is the call
/// graph's job).
#[derive(Clone, Debug)]
pub struct Call {
    /// Last path segment of the callee (`foo` for `a::b::foo(...)`).
    pub name: String,
    /// 1-based line of the callee token.
    pub line: u32,
}

/// One loop body span.
#[derive(Clone, Debug)]
pub struct LoopSpan {
    /// Line of the loop keyword.
    pub line: u32,
    /// Line of the body's closing `}`.
    pub end_line: u32,
}

/// A region dominated by an `if` whose condition checks CPU features:
/// code between the braces runs only when every listed feature was
/// detected at runtime.
#[derive(Clone, Debug)]
pub struct GuardRegion {
    /// Features named by `is_x86_feature_detected!("...")` calls in the
    /// condition (several checks `&&`-ed together all apply).
    pub features: Vec<String>,
    /// First line of the guarded block (the `if` line).
    pub start: u32,
    /// Line of the block's closing `}`.
    pub end: u32,
}

/// The per-file item tree.
#[derive(Clone, Debug, Default)]
pub struct ItemTree {
    /// Every fn with a body, in source order.
    pub fns: Vec<FnItem>,
    /// Lines carrying an `unsafe` token (blocks, fns, impls).
    pub unsafe_lines: Vec<u32>,
    /// Lines of `#[target_feature]` attributes (direct or `cfg_attr`).
    pub target_feature_lines: Vec<u32>,
    /// Feature-guarded block spans.
    pub guards: Vec<GuardRegion>,
    /// `(first, last)` lines of each item annotated `#[cfg(test)]`: the
    /// attribute's line through the close of the item's brace block (or
    /// its `;` for block-less items).
    pub test_spans: Vec<(u32, u32)>,
}

impl ItemTree {
    /// Whether the file contains any unsafe construct the ledger must
    /// list: an `unsafe` token or a `#[target_feature]` attribute.
    pub fn has_unsafe_surface(&self) -> bool {
        !self.unsafe_lines.is_empty() || !self.target_feature_lines.is_empty()
    }

    /// Union of guard features dominating `line`.
    pub fn guard_features_at(&self, line: u32) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for g in &self.guards {
            if g.start <= line && line <= g.end {
                for f in &g.features {
                    if !out.contains(&f.as_str()) {
                        out.push(f);
                    }
                }
            }
        }
        out
    }
}

/// Keywords that look like `ident (` but are never calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "loop", "match", "return", "fn", "unsafe", "move", "in", "as", "let",
    "else", "impl", "pub", "use", "mod", "struct", "enum", "trait", "where", "break", "continue",
    "ref", "mut", "dyn", "box", "await", "async", "const", "static", "type", "crate", "super",
];

/// Qualifier idents that may sit between an attribute and its `fn`.
const FN_QUALIFIERS: &[&str] = &["pub", "crate", "unsafe", "const", "async", "extern", "in"];

#[derive(Clone, Copy, Debug, PartialEq)]
enum PendingKind {
    Impl { is_stage: bool, saw_for: bool },
    Fn { fn_idx: usize },
    Loop { line: u32 },
    If { has_features: bool },
}

#[derive(Debug)]
struct Pending {
    kind: PendingKind,
    /// `(`/`[` depth at which the opener appeared; the body `{` is the
    /// first one seen back at this depth (closure braces inside header
    /// call arguments sit at a deeper paren depth).
    paren_depth: i32,
    /// Features collected from the condition (If only).
    features: Vec<String>,
}

#[derive(Debug)]
enum Frame {
    /// Plain `{ ... }` (blocks, structs, matches, closures, modules).
    Block,
    /// An `impl` block; `is_stage` when the header read `... Stage for ...`.
    Impl { is_stage: bool },
    /// A fn body; index into `ItemTree::fns`.
    Fn { fn_idx: usize },
    /// A loop body; `(fn_idx, loop_idx)` into the owning fn's loops.
    Loop { fn_idx: usize, loop_idx: usize },
    /// A feature-guarded `if` body; index into `ItemTree::guards`.
    Guard { guard_idx: usize },
}

/// Parses the token stream into an item tree. Comments only feed the
/// `# Panics` doc facts; strings/chars are opaque (an `unsafe` inside
/// `r#"..."#` is data, not a site).
pub fn parse(toks: &[Tok]) -> ItemTree {
    // Non-comment tokens, each flagged when a `# Panics` doc comment
    // precedes it. Inner docs (`//!`, `/*! … */`) document the enclosing
    // module, not the next item; the scanner strips the comment opener,
    // so they start `!`.
    let mut code: Vec<&Tok> = Vec::new();
    let mut panics_doc_before: Vec<bool> = Vec::new();
    let mut saw_panics_doc = false;
    for t in toks {
        if t.is_comment() {
            saw_panics_doc |= !t.text.starts_with('!') && t.text.contains("# Panics");
        } else {
            code.push(t);
            panics_doc_before.push(std::mem::take(&mut saw_panics_doc));
        }
    }
    let mut tree = ItemTree::default();
    let mut stack: Vec<Frame> = Vec::new();
    let mut fn_stack: Vec<usize> = Vec::new();
    let mut pending: Option<Pending> = None;
    let mut pending_attrs: Vec<Vec<&Tok>> = Vec::new();
    let mut paren_depth: i32 = 0;
    let mut last_line = 0u32;
    // A `# Panics` doc comment waiting for its `fn`: it stays attached
    // across attributes, qualifiers, visibility parens and ABI strings.
    let mut pending_panics_doc = false;
    // Start line of a `#[cfg(test)]` attribute whose item has not opened
    // its block yet, and `(stack depth, start line)` of open test items.
    let mut pending_test: Option<u32> = None;
    let mut open_tests: Vec<(usize, u32)> = Vec::new();

    let mut i = 0usize;
    while i < code.len() {
        let t = code[i];
        last_line = t.line;
        pending_panics_doc |= panics_doc_before[i];

        // Attributes: consume `#[ ... ]` / `#![ ... ]` wholesale.
        if t.is_punct("#") && code.get(i + 1).is_some_and(|n| n.is_punct("[")) {
            let mut j = i + 2;
            let mut depth = 1i32;
            let start = j;
            while j < code.len() && depth > 0 {
                if code[j].is_punct("[") {
                    depth += 1;
                } else if code[j].is_punct("]") {
                    depth -= 1;
                }
                j += 1;
            }
            let attr: Vec<&Tok> = code[start..j.saturating_sub(1)].to_vec();
            if attr_target_features(&attr).is_some() {
                tree.target_feature_lines.push(t.line);
            }
            // `#[cfg(test)]` or `#[cfg(all(test, ...))]`.
            if attr.first().is_some_and(|a| a.is_ident("cfg"))
                && attr.iter().any(|a| a.is_ident("test"))
            {
                pending_test.get_or_insert(t.line);
            }
            pending_attrs.push(attr);
            i = j;
            continue;
        }
        if t.is_punct("#")
            && code.get(i + 1).is_some_and(|n| n.is_punct("!"))
            && code.get(i + 2).is_some_and(|n| n.is_punct("["))
        {
            // Inner attribute `#![...]`: skip, attaches to nothing here.
            let mut j = i + 3;
            let mut depth = 1i32;
            while j < code.len() && depth > 0 {
                if code[j].is_punct("[") {
                    depth += 1;
                } else if code[j].is_punct("]") {
                    depth -= 1;
                }
                j += 1;
            }
            i = j;
            continue;
        }

        match t.kind {
            TokKind::Ident if FN_QUALIFIERS.contains(&t.text.as_str()) || t.text == "fn" => {}
            TokKind::Str => {}
            TokKind::Punct if t.text == "(" || t.text == ")" => {}
            _ => pending_panics_doc = false,
        }
        // A block-less `#[cfg(test)]` item (`use …;`) ends at its `;`.
        if t.is_punct(";") {
            if let Some(start) = pending_test.take() {
                tree.test_spans.push((start, t.line));
            }
        }

        // Track paren depth for pending-header resolution.
        match t.text.as_str() {
            "(" | "[" if t.kind == TokKind::Punct => paren_depth += 1,
            ")" | "]" if t.kind == TokKind::Punct => paren_depth -= 1,
            _ => {}
        }

        // Feed header-state machines while a header is pending.
        if let Some(p) = pending.as_mut() {
            match &mut p.kind {
                PendingKind::Impl { is_stage, saw_for } => {
                    if t.is_ident("for") {
                        *saw_for = true;
                    } else if t.is_ident("Stage") && !*saw_for {
                        *is_stage = true;
                    }
                }
                PendingKind::If { has_features }
                    if t.kind == TokKind::Str
                        && i >= 3
                        && code[i - 1].is_punct("(")
                        && code[i - 2].is_punct("!")
                        && code[i - 3].is_ident("is_x86_feature_detected") =>
                {
                    p.features.push(t.text.clone());
                    *has_features = true;
                }
                _ => {}
            }
            // A `;` at header depth aborts the pending item (trait fn
            // declarations, stray openers).
            if t.is_punct(";") && paren_depth <= p.paren_depth {
                if let PendingKind::Fn { fn_idx } = p.kind {
                    // Bodyless declaration: keep the item with an empty
                    // span so name-level facts (features) survive.
                    tree.fns[fn_idx].end_line = t.line;
                }
                pending = None;
                i += 1;
                continue;
            }
        }

        match t.kind {
            TokKind::Ident => {
                match t.text.as_str() {
                    "unsafe" => tree.unsafe_lines.push(t.line),
                    "impl" if pending.is_none() => {
                        pending = Some(Pending {
                            kind: PendingKind::Impl {
                                is_stage: false,
                                saw_for: false,
                            },
                            paren_depth,
                            features: Vec::new(),
                        });
                    }
                    "fn" if pending.is_none() => {
                        if let Some(name) = code.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                            let features = pending_attrs
                                .iter()
                                .filter_map(|a| attr_target_features(a))
                                .flatten()
                                .collect();
                            let in_stage_impl = stack
                                .iter()
                                .rev()
                                .find_map(|f| match f {
                                    Frame::Impl { is_stage } => Some(*is_stage),
                                    _ => None,
                                })
                                .unwrap_or(false);
                            tree.fns.push(FnItem {
                                name: name.text.clone(),
                                line: t.line,
                                end_line: t.line,
                                features,
                                in_stage_impl,
                                panics_doc: std::mem::take(&mut pending_panics_doc),
                                calls: Vec::new(),
                                loops: Vec::new(),
                            });
                            pending = Some(Pending {
                                kind: PendingKind::Fn {
                                    fn_idx: tree.fns.len() - 1,
                                },
                                paren_depth,
                                features: Vec::new(),
                            });
                        }
                    }
                    "for" | "while" | "loop"
                        if pending.is_none()
                            && !fn_stack.is_empty()
                            // `for<'a>` in types is not a loop.
                            && !(t.text == "for"
                                && code.get(i + 1).is_some_and(|n| n.is_punct("<"))) =>
                    {
                        pending = Some(Pending {
                            kind: PendingKind::Loop { line: t.line },
                            paren_depth,
                            features: Vec::new(),
                        });
                    }
                    "if" if pending.is_none() => {
                        pending = Some(Pending {
                            kind: PendingKind::If {
                                has_features: false,
                            },
                            paren_depth,
                            features: Vec::new(),
                        });
                    }
                    name => {
                        // Call expression: `ident (` that isn't a keyword
                        // or a definition. Macros (`ident !(`) are not
                        // graph edges.
                        if code.get(i + 1).is_some_and(|n| n.is_punct("("))
                            && !NON_CALL_KEYWORDS.contains(&name)
                            && !(i >= 1 && code[i - 1].is_ident("fn"))
                        {
                            if let Some(&fn_idx) = fn_stack.last() {
                                tree.fns[fn_idx].calls.push(Call {
                                    name: name.to_string(),
                                    line: t.line,
                                });
                            }
                        }
                    }
                }
                // Any ident other than a qualifier detaches pending
                // attributes from a later `fn`.
                if !FN_QUALIFIERS.contains(&t.text.as_str()) && t.text != "fn" && pending.is_none()
                {
                    pending_attrs.clear();
                }
            }
            TokKind::Punct if t.text == "{" => {
                let frame = match pending.take() {
                    Some(p) if paren_depth <= p.paren_depth => match p.kind {
                        PendingKind::Impl { is_stage, .. } => {
                            pending_attrs.clear();
                            Frame::Impl { is_stage }
                        }
                        PendingKind::Fn { fn_idx } => {
                            fn_stack.push(fn_idx);
                            pending_attrs.clear();
                            Frame::Fn { fn_idx }
                        }
                        PendingKind::Loop { line } => {
                            let fn_idx = *fn_stack.last().unwrap_or(&0);
                            tree.fns[fn_idx].loops.push(LoopSpan {
                                line,
                                end_line: line,
                            });
                            Frame::Loop {
                                fn_idx,
                                loop_idx: tree.fns[fn_idx].loops.len() - 1,
                            }
                        }
                        PendingKind::If { has_features } => {
                            if has_features {
                                tree.guards.push(GuardRegion {
                                    features: p.features,
                                    start: t.line,
                                    end: t.line,
                                });
                                Frame::Guard {
                                    guard_idx: tree.guards.len() - 1,
                                }
                            } else {
                                Frame::Block
                            }
                        }
                    },
                    Some(p) => {
                        // Closure brace inside header args; keep waiting.
                        pending = Some(p);
                        Frame::Block
                    }
                    None => Frame::Block,
                };
                if let Some(start) = pending_test.take() {
                    open_tests.push((stack.len(), start));
                }
                stack.push(frame);
            }
            TokKind::Punct if t.text == "}" => {
                match stack.pop() {
                    Some(Frame::Fn { fn_idx }) => {
                        tree.fns[fn_idx].end_line = t.line;
                        fn_stack.pop();
                    }
                    Some(Frame::Loop { fn_idx, loop_idx }) => {
                        tree.fns[fn_idx].loops[loop_idx].end_line = t.line;
                    }
                    Some(Frame::Guard { guard_idx }) => {
                        tree.guards[guard_idx].end = t.line;
                    }
                    _ => {}
                }
                if let Some(&(depth, start)) = open_tests.last() {
                    if depth == stack.len() {
                        open_tests.pop();
                        tree.test_spans.push((start, t.line));
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }

    // Unbalanced input: close whatever is still open at the last line.
    for (_, start) in open_tests {
        tree.test_spans.push((start, last_line));
    }
    if let Some(start) = pending_test {
        tree.test_spans.push((start, start));
    }
    while let Some(frame) = stack.pop() {
        match frame {
            Frame::Fn { fn_idx } => tree.fns[fn_idx].end_line = last_line,
            Frame::Loop { fn_idx, loop_idx } => {
                tree.fns[fn_idx].loops[loop_idx].end_line = last_line;
            }
            Frame::Guard { guard_idx } => tree.guards[guard_idx].end = last_line,
            _ => {}
        }
    }
    tree
}

/// If the attribute token list is (or wraps, via `cfg_attr`) a
/// `target_feature(enable = "...")`, returns the enabled features.
fn attr_target_features(attr: &[&Tok]) -> Option<Vec<String>> {
    for (i, t) in attr.iter().enumerate() {
        if !t.is_ident("target_feature") {
            continue;
        }
        // Expect `( ... enable = "features" ... )`.
        let mut j = i + 1;
        if !attr.get(j).is_some_and(|n| n.is_punct("(")) {
            continue;
        }
        let mut features = Vec::new();
        while j < attr.len() && !attr[j].is_punct(")") {
            if attr[j].is_ident("enable")
                && attr.get(j + 1).is_some_and(|n| n.is_punct("="))
                && attr.get(j + 2).is_some_and(|n| n.kind == TokKind::Str)
            {
                features.extend(
                    attr[j + 2]
                        .text
                        .split(',')
                        .map(|f| f.trim().to_string())
                        .filter(|f| !f.is_empty()),
                );
                j += 2;
            }
            j += 1;
        }
        if !features.is_empty() {
            return Some(features);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn tree(src: &str) -> ItemTree {
        parse(&scan(src))
    }

    #[test]
    fn fn_items_record_name_span_and_calls() {
        let src = "fn outer() {\n    helper(1);\n    x.method(2);\n}\nfn helper(_x: u32) {}\n";
        let t = tree(src);
        assert_eq!(t.fns.len(), 2);
        assert_eq!(t.fns[0].name, "outer");
        assert_eq!(t.fns[0].line, 1);
        assert_eq!(t.fns[0].end_line, 4);
        let calls: Vec<&str> = t.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(calls, vec!["helper", "method"]);
        assert!(t.fns[1].calls.is_empty());
    }

    #[test]
    fn target_feature_attrs_direct_and_cfg_attr_wrapped() {
        let src = "#[target_feature(enable = \"avx2\")]\nfn a() {}\n\
                   #[cfg_attr(target_arch = \"x86_64\", target_feature(enable = \"avx512f,avx512vnni\"))]\nfn b() {}\n\
                   #[inline]\nfn c() {}\n";
        let t = tree(src);
        assert_eq!(t.fns[0].features, vec!["avx2"]);
        assert_eq!(t.fns[1].features, vec!["avx512f", "avx512vnni"]);
        assert!(t.fns[2].features.is_empty());
        assert_eq!(t.target_feature_lines.len(), 2);
    }

    #[test]
    fn multi_line_attribute_arguments_parse() {
        let src = "#[target_feature(\n    enable = \"avx2\"\n)]\nfn a() {}\n";
        let t = tree(src);
        assert_eq!(t.fns[0].features, vec!["avx2"]);
    }

    #[test]
    fn unsafe_in_nested_raw_strings_is_not_a_site() {
        let src = "fn f() -> &'static str {\n    r#\"unsafe { ignore() } \"quoted\" \"#\n}\n\
                   fn g() { let _ = r##\"also unsafe r#\"nested\"# here\"##; }\n";
        let t = tree(src);
        assert!(t.unsafe_lines.is_empty(), "{:?}", t.unsafe_lines);
        assert!(!t.has_unsafe_surface());
        // A real one still counts.
        let t2 = tree("fn h(p: *const u8) -> u8 { unsafe { *p } }");
        assert_eq!(t2.unsafe_lines, vec![1]);
    }

    #[test]
    fn stage_impl_run_fns_are_flagged() {
        let src = "struct S;\nimpl Stage for S {\n    fn run(&self) {}\n    fn save(&self) {}\n}\n\
                   impl S {\n    fn run_inherent(&self) {}\n}\n\
                   impl BlockStage {\n    fn run(&self) {}\n}\n";
        let t = tree(src);
        let by_name = |n: &str| t.fns.iter().find(|f| f.name == n).unwrap();
        assert!(by_name("run").in_stage_impl);
        assert!(by_name("save").in_stage_impl);
        assert!(!by_name("run_inherent").in_stage_impl);
        // `BlockStage` is not the exact trait ident `Stage`.
        assert!(!t.fns.iter().filter(|f| f.line > 8).any(|f| f.in_stage_impl));
    }

    #[test]
    fn generic_stage_impl_headers_are_detected() {
        let src =
            "impl<'c, 'p> Stage for BlockStage<'c, 'p> {\n    fn run(&mut self) { probe(); }\n}\n";
        let t = tree(src);
        assert!(t.fns[0].in_stage_impl);
        assert_eq!(t.fns[0].calls[0].name, "probe");
    }

    #[test]
    fn loop_spans_cover_for_while_loop_but_not_hrtb() {
        let src = "fn f(v: &[u32]) {\n    for x in v {\n        touch(x);\n    }\n    while v.len() > 0 {\n        break;\n    }\n    loop {\n        break;\n    }\n    let _c: Box<dyn for<'a> Fn(&'a u32)> = Box::new(|_| ());\n}\n";
        let t = tree(src);
        let spans: Vec<(u32, u32)> = t.fns[0]
            .loops
            .iter()
            .map(|l| (l.line, l.end_line))
            .collect();
        assert_eq!(spans, vec![(2, 4), (5, 7), (8, 10)]);
    }

    #[test]
    fn guard_regions_collect_exact_feature_sets() {
        let src = "fn f() {\n    if std::arch::is_x86_feature_detected!(\"avx512f\")\n        && std::arch::is_x86_feature_detected!(\"avx512vnni\")\n    {\n        fast();\n    }\n    if is_x86_feature_detected!(\"avx2\") {\n        medium();\n    } else {\n        slow();\n    }\n}\n";
        let t = tree(src);
        assert_eq!(t.guards.len(), 2);
        assert_eq!(t.guards[0].features, vec!["avx512f", "avx512vnni"]);
        assert_eq!(t.guards[1].features, vec!["avx2"]);
        // Line 5 is inside the first guard; line 10 (the else) is not.
        assert_eq!(t.guard_features_at(5), vec!["avx512f", "avx512vnni"]);
        assert!(t.guard_features_at(10).is_empty());
    }

    #[test]
    fn calls_in_loop_headers_and_closures_attach_to_the_fn() {
        let src = "fn f(v: &[u32]) {\n    for x in v.iter().map(|y| { deep(y) }) {\n        let _ = x;\n    }\n}\nfn deep(_y: &u32) -> u32 { 0 }\n";
        let t = tree(src);
        let calls: Vec<&str> = t.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert!(calls.contains(&"deep"), "{calls:?}");
        assert_eq!(t.fns[0].loops.len(), 1);
        assert_eq!(t.fns[0].loops[0].end_line, 4);
    }

    #[test]
    fn trait_declarations_without_bodies_are_kept_bodyless() {
        let src = "trait Stage {\n    fn run(&self);\n    fn save(&self) {}\n}\n";
        let t = tree(src);
        assert_eq!(t.fns.len(), 2);
        assert_eq!(t.fns[0].end_line, 2, "declaration spans its own line");
    }
}
