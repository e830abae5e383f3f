//! # ncgws-analyze — workspace invariant lints
//!
//! The ncgws workspace rests on conventions no compiler checks:
//!
//! * hot sweep/kernel paths are **allocation-free** (PR 1/4/6) — the
//!   [`passes::no_alloc`] pass lints the functions declared in
//!   [`manifest::HOT_PATHS`];
//! * every `unsafe` site (unchecked indexing the kernels validated up
//!   front, the worker pool's lifetime erasure) states its invariant —
//!   [`passes::unsafe_audit`] inventories all `unsafe` sites and requires
//!   adjacent `// SAFETY:` / `# Safety` documentation;
//! * the serving layer **never panics** outside injected faults (PR 9) —
//!   [`passes::panic_path`] denies `unwrap`/`expect`/`panic!`/unjustified
//!   indexing in non-test `crates/serve` code;
//! * `#[cfg(feature = "parallel")]` code keeps a **sequential fallback** —
//!   [`passes::feature_gate`] checks gated early-returns and items.
//!
//! Everything is built on a hand-rolled lexer ([`lexer`]) and a
//! brace-matching structural model ([`model`]); there are no dependencies,
//! so the analyzer works in the offline build environment. Findings carry
//! `file:line` plus a line-number-free fingerprint; the committed baseline
//! (`ANALYZE_BASELINE.txt`) suppresses accepted findings, and
//! `cargo run -p ncgws-analyze -- --deny` exits nonzero on anything new.

pub mod findings;
pub mod lexer;
pub mod manifest;
pub mod model;
pub mod passes {
    pub mod feature_gate;
    pub mod no_alloc;
    pub mod panic_path;
    pub mod unsafe_audit;
}
pub mod report;

use std::path::{Path, PathBuf};

use findings::{Finding, Sink};
use model::FileModel;
use passes::unsafe_audit::UnsafeSite;

/// The result of analyzing a workspace tree.
#[derive(Debug, Default)]
pub struct Analysis {
    /// All findings, sorted by (file, line, pass).
    pub findings: Vec<Finding>,
    /// Every `unsafe` occurrence (documented or not).
    pub unsafe_sites: Vec<UnsafeSite>,
    /// Number of files analyzed.
    pub files: usize,
}

/// Directories under the root that contain first-party sources.
const SCAN_DIRS: &[&str] = &["src", "crates", "examples", "tests"];

/// Path fragments that are never analyzed, matched against the
/// *root-relative* path — so the lint-fixture mini-trees under
/// `crates/analyze/tests/fixtures/` are skipped when the repo is the root,
/// yet fully scanned when a fixture tree is itself passed as the root.
const SKIP_FRAGMENTS: &[&str] = &["/vendor/", "/target/", "/fixtures/"];

/// Collects the repo-relative paths of all first-party `.rs` files under
/// `root`, sorted for deterministic output.
pub fn collect_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for dir in SCAN_DIRS {
        walk(root, &root.join(dir), &mut out);
    }
    out.sort();
    out
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let rel = path.strip_prefix(root).unwrap_or(&path);
        let as_str = format!("/{}/", rel.display()).replace('\\', "/");
        if SKIP_FRAGMENTS.iter().any(|f| as_str.contains(f)) {
            continue;
        }
        if path.is_dir() {
            walk(root, &path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Analyzes every first-party file under `root` with all four passes.
pub fn analyze(root: &Path) -> std::io::Result<Analysis> {
    let files = collect_files(root);
    let mut sink = Sink::default();
    let mut unsafe_sites = Vec::new();
    let mut count = 0usize;
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(path)?;
        let model = FileModel::build(rel.clone(), &src);
        analyze_model(&model, &mut sink, &mut unsafe_sites);
        count += 1;
    }
    let mut findings = sink.findings;
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.pass).cmp(&(b.file.as_str(), b.line, b.pass)));
    Ok(Analysis {
        findings,
        unsafe_sites,
        files: count,
    })
}

/// Runs all applicable passes over one modeled file. Public so fixture
/// tests can drive the exact production pass wiring on synthetic files.
pub fn analyze_model(model: &FileModel, sink: &mut Sink, unsafe_sites: &mut Vec<UnsafeSite>) {
    if let Some((_, hot_fns)) = manifest::HOT_PATHS.iter().find(|(f, _)| *f == model.path) {
        passes::no_alloc::run(model, hot_fns, sink);
    }
    unsafe_sites.extend(passes::unsafe_audit::run(model, sink));
    if model.path.starts_with("crates/serve/src/") {
        passes::panic_path::run(model, sink);
    }
    passes::feature_gate::run(model, sink);
}

/// Locates the workspace root: the current directory when it holds a
/// `[workspace]` manifest, else the compile-time crate location's
/// grandparent (`crates/analyze/../..`).
pub fn workspace_root() -> PathBuf {
    if let Ok(cwd) = std::env::current_dir() {
        if std::fs::read_to_string(cwd.join("Cargo.toml"))
            .map(|t| t.contains("[workspace]"))
            .unwrap_or(false)
        {
            return cwd;
        }
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .components()
        .collect()
}
