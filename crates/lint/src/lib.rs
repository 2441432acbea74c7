//! `qserve-lint` — in-repo static analysis enforcing the determinism and
//! accounting contracts this reproduction rests on.
//!
//! The golden CSVs are byte-diffed, the cost models are exact-integer, the
//! page ledgers never subtract unchecked, and the workspace never grows a
//! crates.io dependency. Those contracts used to be enforced by review
//! vigilance; this crate makes them machine-checked. It is dependency-free
//! by construction: a hand-rolled lexer (see [`lexer`]), token-level rules
//! (see `rules`), and a line-level manifest checker (see [`manifest`]).
//!
//! Rules:
//!
//! - `manifest-policy` — every `[dependencies]`/`[dev-dependencies]` entry
//!   in every `Cargo.toml` must be a workspace-internal `path` dependency.
//! - `unordered-iteration` — any `HashMap`/`HashSet` identifier, anywhere:
//!   unordered iteration is how bit-identical goldens die, and a token scan
//!   cannot see every expression that iterates one, so the workspace names
//!   none (`BTreeMap`/`BTreeSet` iterate in key order).
//! - `wall-clock` — `std::time::{Instant, SystemTime}`, `std::env`, and
//!   `std::thread` outside the `qserve_tensor::pool` worker pool (the one
//!   sanctioned home for OS threads and for `QSERVE_THREADS`; everything
//!   else forks through it). Nothing in the workspace reads a clock: the
//!   repository is timed from outside, by `benchmark/`.
//! - `nondeterministic-parallel` — `Mutex`/`RwLock` shared state and atomic
//!   read-modify-write calls (`fetch_add`, `compare_exchange`, ..) outside
//!   the pool's own merge machinery; accumulating across threads in
//!   scheduling-dependent order is how bit-identical parallel reports die.
//!   Deterministic parallelism routes results through
//!   `qserve_tensor::pool::Pool::par_map`, which merges in submission
//!   order.
//! - `unchecked-sub` / `raw-cast` — raw `-`/`-=` and truncating `as` casts
//!   on page/token counter expressions in ledger and cost-model files.
//! - `float-eq` — `==`/`!=` against float literals anywhere (`to_bits`
//!   identity comparisons are the sanctioned form).
//! - `float-sort` — any `.partial_cmp` / `::partial_cmp` call, anywhere (a
//!   `fn partial_cmp` in a `PartialOrd` impl is no call): unwrapped it
//!   panics on a NaN, and a NaN mapped to `Ordering::Equal` is no total
//!   order, which std's sort may panic on (`f64::total_cmp` is the
//!   sanctioned form).
//! - `fused-accumulate` — `.mul_add(..)` / `f32::mul_add` / `f64::mul_add`
//!   in the numeric crates (`tensor`, `quant`, `core`, `kernels`, `model`):
//!   a fused multiply-add rounds once where `a * b + c` rounds twice, and
//!   the tiled GEMM, the quantizers and every frozen digest are bit-exact
//!   only because accumulation is unfused and in index order.
//! - `hygiene` — `todo!`, `unimplemented!`, `dbg!` anywhere.
//! - `unreferenced-pub` — a `pub fn | struct | enum | trait | type | const |
//!   static | mod` defined under `crates/*/src` whose name no *other* scanned
//!   file mentions (workspace crates, `src/`, `tests/`, `examples/`,
//!   `benchmark/`). `pub` is what hides an item from rustc's `dead_code`;
//!   this is the one rule that needs every file at once
//!   ([`lint_sources`]).
//!
//! A finding is suppressed by an allow comment with a mandatory reason:
//!
//! ```text
//! self.clock = wall();  // lint: allow(wall-clock) -- replay harness, not simulation
//! ```
//!
//! An own-line allow comment targets the next code line. A missing or empty
//! reason is itself a finding (`malformed-allow`) and cannot be suppressed.

pub mod lexer;
pub mod manifest;
mod rules;

use std::fmt;
use std::path::{Path, PathBuf};

use lexer::{lex, Comment, Tok};

/// Lint names that may appear in an allow directive.
pub const LINTS: &[&str] = &[
    "manifest-policy",
    "unordered-iteration",
    "wall-clock",
    "nondeterministic-parallel",
    "unchecked-sub",
    "raw-cast",
    "float-eq",
    "float-sort",
    "fused-accumulate",
    "hygiene",
    "unreferenced-pub",
];

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub lint: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}: {}: {}", self.file, self.line, self.col, self.lint, self.message)
    }
}

/// One parsed `lint: allow(..) -- reason` directive.
#[derive(Debug, Clone)]
pub(crate) struct Allow {
    pub lint: String,
    pub reason: String,
    /// The code line this directive suppresses.
    pub target_line: u32,
}

/// A finding that an allow directive suppressed, with its recorded reason.
#[derive(Debug, Clone)]
// lint: allow(unreferenced-pub) -- element type of the public `WorkspaceReport::suppressed`; `main` reads its fields
pub struct Suppressed {
    pub finding: Finding,
    pub reason: String,
}

/// The outcome of linting one file.
#[derive(Debug, Default)]
pub struct FileOutcome {
    pub findings: Vec<Finding>,
    pub suppressed: Vec<Suppressed>,
    pub allow_comments: usize,
}

/// Which rule families apply to a Rust file, derived from its path.
#[derive(Debug, Clone, Copy)]
pub struct FileScope {
    /// Wall-clock isolation applies (everything but `qserve_tensor::pool`
    /// and this lint crate itself). The same flag
    /// gates `nondeterministic-parallel`: the files allowed to spawn
    /// threads are exactly the files allowed to synchronize them.
    pub wall_clock: bool,
    /// Ledger / cost-model file: accounting rules apply.
    pub accounting: bool,
    /// Numeric crate whose results are pinned bit for bit:
    /// fused-accumulate applies.
    pub numeric: bool,
}

/// How a workspace-relative path is linted.
#[derive(Debug, Clone, Copy)]
enum FileKind {
    Rust(FileScope),
    Manifest,
}

/// Classifies a workspace-relative path (`/`-separated). Returns `None` for
/// files the linter does not look at.
fn classify(rel: &str) -> Option<FileKind> {
    if rel.ends_with("Cargo.toml") {
        return Some(FileKind::Manifest);
    }
    if !rel.ends_with(".rs") {
        return None;
    }
    let wall_clock = !rel.starts_with("crates/lint/") && rel != "crates/tensor/src/pool.rs";
    let accounting = matches!(
        rel,
        "crates/serve/src/scheduler.rs"
            | "crates/serve/src/ledger.rs"
            | "crates/serve/src/kv_cache.rs"
            | "crates/serve/src/memory.rs"
            | "crates/serve/src/engine.rs"
            | "crates/serve/src/fault.rs"
            | "crates/serve/src/control.rs"
            | "crates/serve/src/report.rs"
            | "crates/serve/src/cluster.rs"
            | "crates/serve/src/request.rs"
            | "crates/serve/src/model_exec.rs"
            | "crates/serve/src/event.rs"
            | "crates/serve/src/sketch.rs"
            | "crates/serve/src/prefix.rs"
    ) || rel.starts_with("crates/gpusim/src/");
    let numeric = rel.strip_prefix("crates/").is_some_and(|r| {
        ["tensor/", "quant/", "core/", "kernels/", "model/"].iter().any(|k| r.starts_with(k))
    });
    Some(FileKind::Rust(FileScope { wall_clock, accounting, numeric }))
}

/// Lints one file given as a string, classified by its (pseudo-)path.
/// This is the entry point the fixture tests drive.
pub fn lint_file_str(rel: &str, src: &str) -> FileOutcome {
    match classify(rel) {
        Some(FileKind::Rust(scope)) => rules::lint_rust(rel, src, &scope),
        Some(FileKind::Manifest) => manifest::lint_manifest(rel, src),
        None => FileOutcome::default(),
    }
}

/// Parses allow directives out of a comment stream. Returns the directives
/// plus `malformed-allow` findings for directives that do not follow the
/// grammar `lint: allow(<name>) -- <non-empty reason>`.
///
/// `toks` provides the code lines: an own-line directive targets the next
/// line that holds any token.
pub(crate) fn parse_directives(
    comments: &[Comment],
    rel: &str,
    toks: &[Tok],
) -> (Vec<Allow>, Vec<Finding>) {
    let content_lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
    parse_directives_on(comments, rel, &content_lines)
}

/// As [`parse_directives`], over an explicit sorted list of content lines
/// (the manifest checker has no token stream).
pub(crate) fn parse_directives_on(
    comments: &[Comment],
    rel: &str,
    content_lines: &[u32],
) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut findings = Vec::new();
    for c in comments {
        let body = c.text.trim_start_matches(['/', '#', '!', '*']).trim_start();
        let Some(rest) = body.strip_prefix("lint:") else { continue };
        let malformed = |msg: &str| Finding {
            file: rel.to_string(),
            line: c.line,
            col: c.col,
            lint: "malformed-allow",
            message: msg.to_string(),
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix("allow(") else {
            findings.push(malformed(
                "allow directive must look like `lint: allow(<name>) -- <reason>`",
            ));
            continue;
        };
        let Some(close) = rest.find(')') else {
            findings.push(malformed("unclosed `allow(`"));
            continue;
        };
        let name = rest[..close].trim();
        if !LINTS.contains(&name) {
            findings.push(malformed(&format!("unknown lint `{}` in allow directive", name)));
            continue;
        }
        let tail = rest[close + 1..].trim_start();
        let reason = match tail.strip_prefix("--") {
            Some(r) => r.trim(),
            None => {
                findings.push(malformed(
                    "allow directive is missing its `-- <reason>`; a reason is mandatory",
                ));
                continue;
            }
        };
        if reason.is_empty() {
            findings.push(malformed("allow reason must not be empty"));
            continue;
        }
        let target_line = if c.own_line {
            match content_lines.iter().copied().filter(|&l| l > c.line).min() {
                Some(l) => l,
                None => continue, // dangling directive at EOF: suppresses nothing
            }
        } else {
            c.line
        };
        allows.push(Allow { lint: name.to_string(), reason: reason.to_string(), target_line });
    }
    (allows, findings)
}

/// Splits raw findings into (kept, suppressed) under the allow directives.
pub(crate) fn apply_allows(findings: Vec<Finding>, allows: Vec<Allow>) -> FileOutcome {
    let mut out = FileOutcome { allow_comments: allows.len(), ..Default::default() };
    for f in findings {
        let hit = allows.iter().find(|a| a.lint == f.lint && a.target_line == f.line);
        match hit {
            Some(a) => out.suppressed.push(Suppressed { finding: f, reason: a.reason.clone() }),
            None => out.findings.push(f),
        }
    }
    out
}

/// The aggregate result of linting a whole workspace tree.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    pub findings: Vec<Finding>,
    pub suppressed: Vec<Suppressed>,
    pub allow_comments: usize,
    pub files_scanned: usize,
}

/// Directories the walker never descends into: build artifacts, VCS
/// internals, and this crate's intentionally-dirty lint fixtures.
fn skip_dir(rel: &str) -> bool {
    matches!(rel, "target" | ".git" | "results") || rel == "crates/lint/tests/fixtures"
}

impl WorkspaceReport {
    fn absorb(&mut self, outcome: FileOutcome) {
        self.findings.extend(outcome.findings);
        self.suppressed.extend(outcome.suppressed);
        self.allow_comments += outcome.allow_comments;
        self.files_scanned += 1;
    }
}

/// Lints a set of files given as `(workspace-relative path, source)`: the
/// per-file rules on each, then the one rule that needs every file at once
/// (`unreferenced-pub`). Findings come back sorted by (file, line, col).
/// Pure — [`lint_workspace`] feeds it from disk, the cross-file tests from
/// memory.
pub fn lint_sources(sources: &[(String, String)]) -> WorkspaceReport {
    let mut report = WorkspaceReport::default();
    let mut rust = Vec::new();
    for (rel, src) in sources {
        match classify(rel) {
            Some(FileKind::Rust(scope)) => rust.push((rel.as_str(), scope, lex(src))),
            Some(FileKind::Manifest) => report.absorb(manifest::lint_manifest(rel, src)),
            None => {}
        }
    }
    let streams: Vec<(&str, &[Tok])> =
        rust.iter().map(|(rel, _, lexed)| (*rel, &lexed.toks[..])).collect();
    let unreferenced = rules::unreferenced_pub(&streams);
    for ((rel, scope, lexed), cross_file) in rust.iter().zip(unreferenced) {
        report.absorb(rules::lint_lexed(rel, lexed, scope, cross_file));
    }
    report.findings.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.lint).cmp(&(&b.file, b.line, b.col, b.lint))
    });
    report
}

/// Walks the workspace rooted at `root` and lints every `.rs` file and
/// `Cargo.toml` it holds through [`lint_sources`].
pub fn lint_workspace(root: &Path) -> std::io::Result<WorkspaceReport> {
    let mut sources: Vec<(String, String)> = Vec::new();
    let mut stack: Vec<PathBuf> = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> =
            std::fs::read_dir(&dir)?.map(|e| e.map(|e| e.path())).collect::<Result<_, _>>()?;
        entries.sort();
        for path in entries {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            if path.is_dir() {
                if !skip_dir(&rel) {
                    stack.push(path);
                }
            } else if classify(&rel).is_some() {
                if let Ok(src) = std::fs::read_to_string(&path) {
                    sources.push((rel, src));
                }
            }
        }
    }
    Ok(lint_sources(&sources))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_suppresses_same_line_with_reason() {
        let src = "fn f() { todo!(); } // lint: allow(hygiene) -- fixture\n";
        let out = lint_file_str("crates/core/src/x.rs", src);
        assert!(out.findings.is_empty());
        assert_eq!(out.suppressed.len(), 1);
        assert_eq!(out.suppressed[0].reason, "fixture");
        assert_eq!(out.allow_comments, 1);
    }

    #[test]
    fn own_line_allow_targets_next_code_line() {
        let src = "// lint: allow(hygiene) -- stub under construction\n\n// another comment\nfn f() { todo!(); }\n";
        let out = lint_file_str("crates/core/src/x.rs", src);
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(out.suppressed.len(), 1);
    }

    #[test]
    fn allow_without_reason_is_malformed_and_suppresses_nothing() {
        let src = "fn f() { todo!(); } // lint: allow(hygiene)\n";
        let out = lint_file_str("crates/core/src/x.rs", src);
        let lints: Vec<_> = out.findings.iter().map(|f| f.lint).collect();
        assert!(lints.contains(&"hygiene"));
        assert!(lints.contains(&"malformed-allow"));
    }

    #[test]
    fn allow_of_wrong_lint_does_not_suppress() {
        let src = "fn f() { todo!(); } // lint: allow(float-eq) -- wrong rule\n";
        let out = lint_file_str("crates/core/src/x.rs", src);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].lint, "hygiene");
    }

    #[test]
    fn unknown_lint_name_is_malformed() {
        let src = "// lint: allow(no-such-lint) -- whatever\nfn f() {}\n";
        let out = lint_file_str("crates/core/src/x.rs", src);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].lint, "malformed-allow");
    }

    #[test]
    fn classification_scopes_rules_by_path() {
        for accounting in [
            "scheduler", "ledger", "fault", "control", "report", "cluster", "request",
            "model_exec", "event", "sketch", "prefix",
        ] {
            assert!(matches!(classify(&format!("crates/serve/src/{accounting}.rs")),
                Some(FileKind::Rust(s)) if s.accounting && s.wall_clock));
        }
        for other in ["attention_exec", "block_exec", "lib"] {
            assert!(matches!(classify(&format!("crates/serve/src/{other}.rs")),
                Some(FileKind::Rust(s)) if !s.accounting && s.wall_clock));
        }
        assert!(matches!(classify("crates/core/src/rotation.rs"),
            Some(FileKind::Rust(s)) if !s.accounting && s.wall_clock));
        assert!(matches!(classify("crates/bench/src/timing.rs"),
            Some(FileKind::Rust(s)) if s.wall_clock));
        assert!(matches!(classify("crates/tensor/src/pool.rs"),
            Some(FileKind::Rust(s)) if !s.wall_clock));
        assert!(matches!(classify("crates/tensor/src/matrix.rs"),
            Some(FileKind::Rust(s)) if s.wall_clock && s.numeric));
        for numeric in ["quant/src/rounding.rs", "core/src/pipeline.rs", "model/tests/x.rs"] {
            assert!(matches!(classify(&format!("crates/{numeric}")),
                Some(FileKind::Rust(s)) if s.numeric));
        }
        for other in ["crates/serve/src/engine.rs", "crates/corelike/src/x.rs", "src/lib.rs"] {
            assert!(matches!(classify(other), Some(FileKind::Rust(s)) if !s.numeric));
        }
        assert!(matches!(classify("crates/lint/src/main.rs"),
            Some(FileKind::Rust(s)) if !s.wall_clock));
        assert!(matches!(classify("Cargo.toml"), Some(FileKind::Manifest)));
        assert!(classify("README.md").is_none());
    }

    #[test]
    fn finding_display_is_file_line_col_lint_message() {
        let f = Finding {
            file: "crates/x/src/y.rs".into(),
            line: 3,
            col: 7,
            lint: "hygiene",
            message: "boom".into(),
        };
        assert_eq!(f.to_string(), "crates/x/src/y.rs:3:7: hygiene: boom");
    }
}
