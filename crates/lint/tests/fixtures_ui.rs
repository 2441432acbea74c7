//! Fixture-based UI tests: every file under `tests/fixtures/` is linted
//! under a pseudo-path and its rendered output must match the sibling
//! `.expected` file byte for byte.
//!
//! Fixture grammar:
//! - Rust fixtures start with `//@ path: <workspace-relative path>`;
//!   TOML fixtures start with `#@ path: ...`. The directive line stays in
//!   the source handed to the linter, so reported line numbers match the
//!   fixture file itself.
//! - `<fixture>.expected` holds the sorted `file:line:col: lint: message`
//!   lines followed by one trailer line
//!   `-- suppressed: <S> by <A> allow comment(s)`.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use qserve_lint::{lint_file_str, lint_sources};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn pseudo_path(src: &str, fixture: &Path) -> String {
    let first = src.lines().next().unwrap_or("");
    let rest = first
        .strip_prefix("//@ path:")
        .or_else(|| first.strip_prefix("#@ path:"))
        .unwrap_or_else(|| {
            panic!(
                "{} must start with `//@ path:` or `#@ path:`",
                fixture.display()
            )
        });
    rest.trim().to_string()
}

fn render(rel: &str, src: &str) -> String {
    let outcome = lint_file_str(rel, src);
    let mut lines: Vec<String> = outcome.findings.iter().map(|f| f.to_string()).collect();
    lines.sort();
    render_lines(&lines, outcome.suppressed.len(), outcome.allow_comments)
}

fn render_lines(lines: &[String], suppressed: usize, allow_comments: usize) -> String {
    let mut out = String::new();
    for l in lines {
        writeln!(out, "{}", l).unwrap();
    }
    writeln!(out, "-- suppressed: {} by {} allow comment(s)", suppressed, allow_comments).unwrap();
    out
}

/// `unreferenced-pub` is the one rule that needs more than one file, which
/// the fixture grammar above cannot express: its cases are sets of
/// in-memory files through `lint_sources`, rendered like a fixture.
fn render_sources(files: &[(&str, &str)]) -> String {
    let sources: Vec<(String, String)> =
        files.iter().map(|(rel, src)| (rel.to_string(), src.to_string())).collect();
    let report = lint_sources(&sources);
    let lines: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    render_lines(&lines, report.suppressed.len(), report.allow_comments)
}

/// A crate's API file: one item a caller names, one nobody does, one only
/// its own tests do, and one that is not `pub` to the outside at all.
const API: &str = "\
pub struct Used;
pub fn orphan() {}
pub fn only_my_tests_call_me() {}
pub(crate) fn internal() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        super::only_my_tests_call_me();
    }
}
";

const UNREFERENCED_PUB_FIRES: &str = "\
crates/core/src/api.rs:2:1: unreferenced-pub: `pub fn orphan` is named by no other file in the workspace, `benchmark/`, `examples/` or `tests/`; make it private (or `pub(crate)`) so rustc's `dead_code` can see it, or delete it
crates/core/src/api.rs:3:1: unreferenced-pub: `pub fn only_my_tests_call_me` is named by no other file in the workspace, `benchmark/`, `examples/` or `tests/`; make it private (or `pub(crate)`) so rustc's `dead_code` can see it, or delete it
-- suppressed: 0 by 0 allow comment(s)
";

fn unreferenced_pub_fires() -> String {
    render_sources(&[
        ("crates/core/src/api.rs", API),
        ("tests/caller.rs", "fn main() { let _ = qserve_core::api::Used; }\n"),
    ])
}

#[test]
fn unreferenced_pub_fires_on_items_no_other_file_names() {
    assert_eq!(unreferenced_pub_fires(), UNREFERENCED_PUB_FIRES);
}

#[test]
fn unreferenced_pub_is_clean_when_any_scanned_file_names_the_item() {
    // `benchmark/` counts as a caller and is never itself flagged; a name in
    // a comment or a string is not a reference, a `$crate::` path in an
    // exported macro is (the expansion names the item from other crates).
    let caller = "\
pub fn bound_by_nobody() {}
fn main() {
    qserve_core::api::orphan(); // not Used
    let _ = \"only_my_tests_call_me\";
    qserve_core::api::only_my_tests_call_me();
    let _ = qserve_core::api::Used;
}
";
    let macro_support = "\
pub fn helper() {}
#[macro_export]
macro_rules! with_helper {
    () => {
        $crate::support::helper()
    };
}
";
    let clean = "-- suppressed: 0 by 0 allow comment(s)\n";
    assert_eq!(
        render_sources(&[
            ("crates/core/src/api.rs", API),
            ("crates/core/src/support.rs", macro_support),
            ("benchmark/src/surface.rs", caller),
        ]),
        clean
    );
    // Definitions outside `crates/*/src` are callers, not API.
    assert_eq!(
        render_sources(&[("tests/a.rs", "pub fn lonely() {}\n"), ("examples/b.rs", "fn main() {}\n")]),
        clean
    );
}

#[test]
fn unreferenced_pub_honours_a_reasoned_allow() {
    let api = "\
#[derive(Debug)]
// lint: allow(unreferenced-pub) -- return type of `make`; callers read its fields
pub struct Made;
pub fn make() -> Made { Made }
pub fn orphan() {} // lint: allow(unreferenced-pub)
";
    let expected = "\
crates/core/src/api.rs:5:1: unreferenced-pub: `pub fn orphan` is named by no other file in the workspace, `benchmark/`, `examples/` or `tests/`; make it private (or `pub(crate)`) so rustc's `dead_code` can see it, or delete it
crates/core/src/api.rs:5:20: malformed-allow: allow directive is missing its `-- <reason>`; a reason is mandatory
-- suppressed: 1 by 1 allow comment(s)
";
    assert_eq!(
        render_sources(&[
            ("crates/core/src/api.rs", api),
            ("examples/e.rs", "fn main() { qserve_core::api::make(); }\n"),
        ]),
        expected
    );
}

#[test]
fn fixtures_match_expected_output() {
    let dir = fixture_dir();
    let mut fixtures: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("missing fixture dir {}: {}", dir.display(), e))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().map_or(true, |x| x != "expected"))
        .collect();
    fixtures.sort();
    assert!(!fixtures.is_empty(), "no fixtures found in {}", dir.display());

    let mut failures = String::new();
    for fixture in &fixtures {
        let src = fs::read_to_string(fixture).unwrap();
        let rel = pseudo_path(&src, fixture);
        let expected_path = PathBuf::from(format!("{}.expected", fixture.display()));
        let expected = fs::read_to_string(&expected_path).unwrap_or_else(|e| {
            panic!("missing {}: {}", expected_path.display(), e)
        });
        let actual = render(&rel, &src);
        if actual != expected {
            writeln!(
                failures,
                "== {} (as {})\n-- expected --\n{}-- actual --\n{}",
                fixture.file_name().unwrap().to_string_lossy(),
                rel,
                expected,
                actual
            )
            .unwrap();
        }
    }
    assert!(failures.is_empty(), "fixture mismatches:\n{}", failures);
}

#[test]
fn every_lint_has_a_firing_fixture() {
    // Guards against adding a rule without fixture coverage: each public
    // lint name must appear in at least one .expected file (or, for the
    // cross-file rule, in what its in-memory firing case renders).
    let dir = fixture_dir();
    let mut all_expected = String::new();
    for e in fs::read_dir(&dir).unwrap() {
        let p = e.unwrap().path();
        if p.extension().is_some_and(|x| x == "expected") {
            all_expected.push_str(&fs::read_to_string(&p).unwrap());
        }
    }
    // The cross-file rule fires in memory, not from a fixture file.
    all_expected.push_str(&unreferenced_pub_fires());
    for lint in qserve_lint::LINTS {
        assert!(
            all_expected.contains(&format!(": {}: ", lint)),
            "no fixture exercises lint `{}`",
            lint
        );
    }
}
