//! Pass `unsafe-audit`: inventory every `unsafe` occurrence and require an
//! adjacent safety comment naming the invariant.
//!
//! The borrow checker proves that the level-parallel blocks write disjoint
//! table ranges, but the kernels still index the construction-validated
//! topology, and the ranges each block checked once, without bounds checks,
//! and the worker pool erases a job's lifetime. This pass (a) inventories
//! every `unsafe` block, `unsafe fn`,
//! `unsafe impl` and `unsafe trait` in the workspace into a
//! machine-readable report, and (b) flags any occurrence without an
//! adjacent justification: a `// SAFETY:` comment within a few lines for
//! blocks and impls, or a `# Safety` doc section (or `SAFETY:` comment)
//! in the doc block above for `unsafe fn` declarations.

use crate::findings::Sink;
use crate::model::FileModel;

pub const PASS: &str = "unsafe-audit";

/// Lines above an `unsafe` block/impl in which a `// SAFETY:` comment
/// counts as adjacent.
const BLOCK_WINDOW: u32 = 5;
/// Lines above an `unsafe fn` in which a `# Safety` doc section counts as
/// adjacent (doc blocks with examples can get long).
const FN_WINDOW: u32 = 60;

/// One inventoried `unsafe` occurrence.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    pub file: String,
    pub line: u32,
    /// `block`, `fn`, `impl` or `trait`.
    pub kind: &'static str,
    /// Enclosing function (for blocks) or declared item name.
    pub context: String,
    /// Whether an adjacent safety justification was found.
    pub documented: bool,
}

/// Runs the pass over one file; returns the inventory entries.
pub fn run(model: &FileModel, sink: &mut Sink) -> Vec<UnsafeSite> {
    let toks = &model.lexed.toks;
    let mut sites = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("unsafe") {
            continue;
        }
        let next = toks.get(i + 1);
        let (kind, context) = if next.is_some_and(|n| n.is_ident("fn")) {
            let name = toks
                .get(i + 2)
                .map(|n| n.text.clone())
                .unwrap_or_else(|| "?".into());
            ("fn", name)
        } else if next.is_some_and(|n| n.is_ident("impl")) {
            ("impl", impl_target(toks, i + 2))
        } else if next.is_some_and(|n| n.is_ident("trait")) {
            let name = toks
                .get(i + 2)
                .map(|n| n.text.clone())
                .unwrap_or_else(|| "?".into());
            ("trait", name)
        } else {
            let ctx = model
                .enclosing_fn(i)
                .map(|f| f.name.clone())
                .unwrap_or_else(|| "-".into());
            ("block", ctx)
        };
        let documented = match kind {
            "fn" => {
                model.comment_near(t.line, FN_WINDOW, "# Safety")
                    || model.comment_near(t.line, FN_WINDOW, "SAFETY")
            }
            _ => model.comment_near(t.line, BLOCK_WINDOW, "SAFETY"),
        };
        if !documented {
            sink.push(
                PASS,
                &model.path,
                t.line,
                &context,
                &format!("unsafe-{kind}"),
                match kind {
                    "fn" => format!(
                        "`unsafe fn {context}` has no `# Safety` doc section or `// SAFETY:` \
                         comment naming the invariant callers must uphold"
                    ),
                    "block" => format!(
                        "`unsafe` block in `{context}` has no adjacent `// SAFETY:` comment \
                         naming the invariant that makes it sound"
                    ),
                    _ => format!("`unsafe {kind} {context}` has no adjacent `// SAFETY:` comment"),
                },
            );
        }
        sites.push(UnsafeSite {
            file: model.path.clone(),
            line: t.line,
            kind,
            context,
            documented,
        });
    }
    sites
}

/// Best-effort name of an `unsafe impl` target (`Send for Foo` → `Foo`).
fn impl_target(toks: &[crate::lexer::Tok], mut i: usize) -> String {
    // Skip generics `<…>`.
    let mut depth = 0usize;
    let mut last_ident = String::from("?");
    while let Some(t) = toks.get(i) {
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            depth = depth.saturating_sub(1);
        } else if t.is_punct('{') && depth == 0 {
            break;
        } else if depth == 0 && t.kind == crate::lexer::TokKind::Ident && !t.is_ident("for") {
            last_ident = t.text.clone();
        }
        i += 1;
    }
    last_ident
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FileModel;

    fn run_on(src: &str) -> (Vec<String>, Vec<UnsafeSite>) {
        let model = FileModel::build("u.rs".into(), src);
        let mut sink = Sink::default();
        let sites = run(&model, &mut sink);
        let details: Vec<String> = sink
            .findings
            .iter()
            .map(|f| format!("{}:{}", f.detail, f.context))
            .collect();
        (details, sites)
    }

    #[test]
    fn documented_block_and_fn_pass() {
        let src = r#"
/// Does things.
///
/// # Safety
///
/// `i` must be in bounds.
pub unsafe fn get(p: *const f64, i: usize) -> f64 {
    *p.add(i)
}

fn caller(xs: &[f64]) -> f64 {
    // SAFETY: 0 is in bounds for the non-empty slice.
    unsafe { get(xs.as_ptr(), 0) }
}
"#;
        let (details, sites) = run_on(src);
        assert!(details.is_empty(), "unexpected findings: {details:?}");
        assert_eq!(sites.len(), 2);
        assert!(sites.iter().all(|s| s.documented));
    }

    #[test]
    fn undocumented_sites_are_flagged_with_context() {
        let src = r#"
pub unsafe fn bare(p: *const f64) -> f64 { *p }

fn caller(xs: &[f64]) -> f64 {
    unsafe { bare(xs.as_ptr()) }
}

unsafe impl Send for Wrapper {}
"#;
        let (details, sites) = run_on(src);
        assert_eq!(
            details,
            vec![
                "unsafe-fn:bare",
                "unsafe-block:caller",
                "unsafe-impl:Wrapper"
            ]
        );
        assert_eq!(sites.len(), 3);
        assert!(sites.iter().all(|s| !s.documented));
    }

    #[test]
    fn safety_comment_too_far_away_does_not_count_for_blocks() {
        let src = format!(
            "fn f(p: *const u8) -> u8 {{\n    // SAFETY: stale, far away\n{}    unsafe {{ *p }}\n}}",
            "    let _x = 0;\n".repeat(8)
        );
        let (details, _) = run_on(&src);
        assert_eq!(details, vec!["unsafe-block:f"]);
    }

    #[test]
    fn unsafe_in_string_literals_is_not_inventoried() {
        let (details, sites) = run_on(r#"fn f() -> &'static str { "unsafe { }" }"#);
        assert!(details.is_empty());
        assert!(sites.is_empty());
    }
}
