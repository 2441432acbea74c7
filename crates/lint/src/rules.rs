//! Token-level lint rules over the [`crate::lexer`] stream.
//!
//! Every rule is a linear scan with a little local context — no AST, no
//! type information. Where a rule would need types ("is this a map?", "is
//! this a float comparison?") it bans a name instead, and the workspace names
//! none of them; where it needs "is this a counter?", it uses the workspace's
//! counter-style identifier names. The false-positive escape hatch is an
//! allow comment with a mandatory reason.

use std::collections::BTreeSet;

use crate::lexer::{lex, Lexed, Tok, TokKind};
use crate::{apply_allows, parse_directives, FileOutcome, FileScope, Finding};

/// Integer targets for the raw-cast rule; `as f64` widening for reporting
/// is allowed, truncating integer casts on counters are not.
const INT_TYPES: &[&str] =
    &["usize", "u64", "u32", "u16", "u8", "isize", "i64", "i32", "i16", "i8", "u128", "i128"];

const HYGIENE_MACROS: &[&str] = &["todo", "unimplemented", "dbg"];

/// Identifier names that denote page/token accounting state. The ledger and
/// cost-model rules only fire when an operand mentions one of these.
fn is_counter_ident(name: &str) -> bool {
    let n = name.to_ascii_lowercase();
    n.contains("page")
        || n.contains("token")
        || n.contains("refcount")
        || n.contains("ref_count")
        || matches!(n.as_str(), "used" | "free" | "filled" | "remaining" | "outstanding" | "refs")
}

/// Lints one Rust source file under the given scope flags.
pub fn lint_rust(rel: &str, src: &str, scope: &FileScope) -> FileOutcome {
    lint_lexed(rel, &lex(src), scope, Vec::new())
}

/// As [`lint_rust`], over an already lexed file. `cross_file` holds what a
/// workspace-level pass ([`unreferenced_pub`]) found in this file; those
/// findings meet the file's allow directives here, with the per-file ones.
pub(crate) fn lint_lexed(
    rel: &str,
    lexed: &Lexed,
    scope: &FileScope,
    cross_file: Vec<Finding>,
) -> FileOutcome {
    let toks = &lexed.toks;
    let (allows, mut findings) = parse_directives(&lexed.comments, rel, &lexed.toks);
    findings.extend(cross_file);

    hygiene(rel, toks, &mut findings);
    float_eq(rel, toks, &mut findings);
    float_sort(rel, toks, &mut findings);
    unordered_iteration(rel, toks, &mut findings);
    if scope.wall_clock {
        wall_clock(rel, toks, &mut findings);
        nondeterministic_parallel(rel, toks, &mut findings);
    }
    if scope.accounting {
        unchecked_sub(rel, toks, &mut findings);
        raw_cast(rel, toks, &mut findings);
    }
    if scope.numeric {
        fused_accumulate(rel, toks, &mut findings);
    }

    apply_allows(findings, allows)
}

fn text(toks: &[Tok], i: isize) -> &str {
    if i < 0 {
        return "";
    }
    toks.get(i as usize).map(|t| t.text.as_str()).unwrap_or("")
}

fn kind(toks: &[Tok], i: isize) -> Option<TokKind> {
    if i < 0 {
        return None;
    }
    toks.get(i as usize).map(|t| t.kind)
}

fn finding(rel: &str, tok: &Tok, lint: &'static str, message: String) -> Finding {
    Finding { file: rel.to_string(), line: tok.line, col: tok.col, lint, message }
}

// ---------------------------------------------------------------------------
// unreferenced-pub: a `pub` item under `crates/*/src` that no other scanned
// file names. `pub` hides an item from rustc's `dead_code`; this pass is the
// second caller check that visibility switched off. Identifier-level, like
// everything here: a common name (`new`, `len`) is always "referenced".
// ---------------------------------------------------------------------------

/// Item keywords that, after `pub`, introduce a named definition.
const ITEM_KEYWORDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static", "mod"];

/// The name token of the item a plain `pub` at `toks[i]` introduces, with
/// its keyword. `pub(crate)` / `pub(super)` are rustc's to audit, and
/// `pub use`, fields and variants define nothing.
fn pub_item(toks: &[Tok], i: usize) -> Option<(&str, &Tok)> {
    let mut j = i as isize + 1;
    if text(toks, j) == "const" && text(toks, j + 1) == "fn" {
        j += 1;
    }
    let keyword = *ITEM_KEYWORDS.iter().find(|k| **k == text(toks, j))?;
    let name = toks.get(j as usize + 1)?;
    (name.kind == TokKind::Ident && name.text != "_").then_some((keyword, name))
}

/// Items an exported macro of this file names as `$crate::path::item`: the
/// macro expands in other crates, so every file that invokes it references
/// the item — through tokens only the expansion holds.
fn named_by_exported_macros(toks: &[Tok]) -> BTreeSet<&str> {
    let mut names = BTreeSet::new();
    for i in 0..toks.len() {
        if toks[i].text != "$" || text(toks, i as isize + 1) != "crate" {
            continue;
        }
        let mut j = i as isize + 2;
        while text(toks, j) == "::" && kind(toks, j + 1) == Some(TokKind::Ident) {
            j += 2;
        }
        names.insert(text(toks, j - 1));
    }
    names
}

/// The workspace-level pass: one list of findings per file of `files`
/// (`(workspace-relative path, tokens)`), in order. Every file counts as a
/// reference site; only definitions under `crates/<name>/src/` are flagged
/// (`benchmark/`, `tests/` and `examples/` are callers, not API).
pub(crate) fn unreferenced_pub(files: &[(&str, &[Tok])]) -> Vec<Vec<Finding>> {
    let idents: Vec<BTreeSet<&str>> = files
        .iter()
        .map(|(_, toks)| {
            toks.iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text.as_str()).collect()
        })
        .collect();
    let mut out = vec![Vec::new(); files.len()];
    for (at, (rel, toks)) in files.iter().enumerate() {
        let in_crate_src = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split_once('/'))
            .is_some_and(|(_, rest)| rest.starts_with("src/"));
        if !in_crate_src {
            continue;
        }
        let via_macro = named_by_exported_macros(toks);
        for i in 0..toks.len() {
            if toks[i].kind != TokKind::Ident || toks[i].text != "pub" {
                continue;
            }
            let Some((keyword, name)) = pub_item(toks, i) else { continue };
            let named_elsewhere = via_macro.contains(name.text.as_str())
                || idents
                    .iter()
                    .enumerate()
                    .any(|(other, set)| other != at && set.contains(name.text.as_str()));
            if !named_elsewhere {
                out[at].push(finding(
                    rel,
                    &toks[i],
                    "unreferenced-pub",
                    format!(
                        "`pub {} {}` is named by no other file in the workspace, `benchmark/`, `examples/` or `tests/`; make it private (or `pub(crate)`) so rustc's `dead_code` can see it, or delete it",
                        keyword, name.text
                    ),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// hygiene: todo! / unimplemented! / dbg! anywhere
// ---------------------------------------------------------------------------

fn hygiene(rel: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        if toks[i].kind == TokKind::Ident
            && HYGIENE_MACROS.contains(&toks[i].text.as_str())
            && text(toks, i as isize + 1) == "!"
        {
            out.push(finding(
                rel,
                &toks[i],
                "hygiene",
                format!("`{}!` must not ship; finish the implementation or delete it", toks[i].text),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// float-eq: == / != against a float literal (to_bits comparisons are the
// sanctioned identity form and never involve a float literal)
// ---------------------------------------------------------------------------

fn float_eq(rel: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        let op = toks[i].text.as_str();
        if toks[i].kind != TokKind::Punct || (op != "==" && op != "!=") {
            continue;
        }
        let i = i as isize;
        // `1.0f32.to_bits()` is an integer expression — the sanctioned exact
        // form — even though it starts with a float literal.
        let bits_of = |j: isize| {
            kind(toks, j) == Some(TokKind::Float)
                && text(toks, j + 1) == "."
                && text(toks, j + 2) == "to_bits"
        };
        let left = kind(toks, i - 1) == Some(TokKind::Float);
        let right = (kind(toks, i + 1) == Some(TokKind::Float) && !bits_of(i + 1))
            || (text(toks, i + 1) == "-" && kind(toks, i + 2) == Some(TokKind::Float));
        if left || right {
            out.push(finding(
                rel,
                &toks[i as usize],
                "float-eq",
                format!(
                    "float `{}` comparison; compare `.to_bits()` or restructure to exact integers",
                    op
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// float-sort: every `.partial_cmp` / `::partial_cmp` (a `fn partial_cmp` in
// a `PartialOrd` impl is no call). On floats it is no total order:
// `.unwrap()` panics on NaN, and a NaN mapped to `unwrap_or(Ordering::Equal)`
// lets std's sort panic instead; `f64::total_cmp` is the sanctioned order
// ---------------------------------------------------------------------------

fn float_sort(rel: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        let called = matches!(text(toks, i as isize - 1), "." | "::");
        if t.kind == TokKind::Ident && t.text == "partial_cmp" && called {
            out.push(finding(
                rel,
                t,
                "float-sort",
                "`partial_cmp` is no total order on floats: unwrapped it panics on NaN, and a NaN mapped to `Equal` makes a sort panic; use `total_cmp`".to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// fused-accumulate: `.mul_add(` / `f32::mul_add` / `f64::mul_add` in the
// numeric crates — one rounding where `a * b + c` has two, so a fused step
// anywhere in an accumulation moves bits the frozen digests pin
// ---------------------------------------------------------------------------

fn fused_accumulate(rel: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || toks[i].text != "mul_add" {
            continue;
        }
        let at = i as isize;
        let method = text(toks, at - 1) == "." && text(toks, at + 1) == "(";
        let float_path =
            text(toks, at - 1) == "::" && matches!(text(toks, at - 2), "f32" | "f64");
        if method || float_path {
            out.push(finding(
                rel,
                &toks[i],
                "fused-accumulate",
                "`mul_add` rounds once where `a * b + c` rounds twice; bit-exact kernels and quantizers accumulate unfused, in index order — write the multiply and the add separately".to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// wall-clock: std::env / std::thread paths are off-limits outside
// qserve_tensor::pool, and the Instant / SystemTime types everywhere
// ---------------------------------------------------------------------------

fn wall_clock(rel: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let i = i as isize;
        match t.text.as_str() {
            "std" if text(toks, i + 1) == "::" => {
                let seg = text(toks, i + 2);
                if seg == "env" || seg == "thread" {
                    out.push(finding(
                        rel,
                        t,
                        "wall-clock",
                        format!(
                            "`std::{}` is forbidden in simulation code; only `qserve_tensor::pool` spawns threads and reads `QSERVE_THREADS`",
                            seg
                        ),
                    ));
                }
            }
            "Instant" | "SystemTime" => {
                out.push(finding(
                    rel,
                    t,
                    "wall-clock",
                    format!(
                        "wall-clock type `{}` is forbidden in simulation code; nothing in the workspace reads a clock — `benchmark/` times it from outside",
                        t.text
                    ),
                ));
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// nondeterministic-parallel: Mutex/RwLock shared state and atomic
// read-modify-write calls outside the pool's merge machinery — cross-thread
// accumulation in scheduling-dependent order breaks bit-identical reports
// ---------------------------------------------------------------------------

/// Atomic read-modify-write methods whose result (or visible side-effect
/// order) depends on thread interleaving.
const ATOMIC_RMW: &[&str] = &[
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_min",
    "fetch_max",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

fn nondeterministic_parallel(rel: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let at = i as isize;
        match t.text.as_str() {
            "Mutex" | "RwLock" => {
                out.push(finding(
                    rel,
                    t,
                    "nondeterministic-parallel",
                    format!(
                        "`{}` shared state outside `qserve_tensor::pool`; cross-thread accumulation order is scheduling-dependent — return per-task results and let `par_map` merge them in submission order",
                        t.text
                    ),
                ));
            }
            _ if ATOMIC_RMW.contains(&t.text.as_str())
                && text(toks, at - 1) == "."
                && text(toks, at + 1) == "(" =>
            {
                out.push(finding(
                    rel,
                    t,
                    "nondeterministic-parallel",
                    format!(
                        "atomic `.{}()` outside `qserve_tensor::pool`; interleaving-dependent read-modify-write breaks bit-identical parallel reports — return per-task results and let `par_map` merge them in submission order",
                        t.text
                    ),
                ));
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// unordered-iteration: any `HashMap`/`HashSet` identifier, anywhere. A token
// scan cannot see every expression that is a hash collection (a map a call
// returns, one behind a getter, a `collect::<HashSet<_>>()`), so the
// workspace names none, and `BTreeMap`/`BTreeSet` iterate in key order
// ---------------------------------------------------------------------------

fn unordered_iteration(rel: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    for t in toks {
        if t.kind == TokKind::Ident && matches!(t.text.as_str(), "HashMap" | "HashSet") {
            out.push(finding(
                rel,
                t,
                "unordered-iteration",
                format!(
                    "`{}` iterates in unspecified order wherever it is reached; use `BTree{}`",
                    t.text,
                    &t.text[4..]
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// unchecked-sub / raw-cast: page/token counter arithmetic in ledger and
// cost-model files
// ---------------------------------------------------------------------------

/// Walks one postfix chain backward from `j` (`self.a.b(c)[d]` style),
/// collecting every identifier that appears in it, including inside bracket
/// groups. Stops at the first token that cannot extend the chain.
fn chain_idents_back(toks: &[Tok], mut j: isize, out: &mut Vec<String>) {
    loop {
        if j < 0 {
            return;
        }
        let t = &toks[j as usize];
        match t.text.as_str() {
            ")" | "]" => {
                let mut depth = 0i32;
                loop {
                    if j < 0 {
                        return;
                    }
                    let u = &toks[j as usize];
                    match u.text.as_str() {
                        ")" | "]" => depth += 1,
                        "(" | "[" => {
                            depth -= 1;
                            if depth == 0 {
                                j -= 1;
                                break;
                            }
                        }
                        _ => {
                            if u.kind == TokKind::Ident {
                                out.push(u.text.clone());
                            }
                        }
                    }
                    j -= 1;
                }
            }
            "." | "::" => j -= 1,
            _ if t.kind == TokKind::Ident => {
                out.push(t.text.clone());
                j -= 1;
            }
            _ => return,
        }
    }
}

/// Walks one operand forward from `j`, skipping prefix operators, then
/// collecting the identifiers of a single postfix chain.
fn chain_idents_fwd(toks: &[Tok], mut j: isize, out: &mut Vec<String>) {
    while matches!(text(toks, j), "&" | "*" | "-" | "!" | "mut") {
        j += 1;
    }
    loop {
        if j >= toks.len() as isize {
            return;
        }
        let t = &toks[j as usize];
        match t.text.as_str() {
            "(" | "[" => {
                let mut depth = 0i32;
                loop {
                    if j >= toks.len() as isize {
                        return;
                    }
                    let u = &toks[j as usize];
                    match u.text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {
                            if u.kind == TokKind::Ident {
                                out.push(u.text.clone());
                            }
                        }
                    }
                    j += 1;
                }
            }
            "." | "::" | "?" => j += 1,
            _ if t.kind == TokKind::Ident => {
                out.push(t.text.clone());
                j += 1;
            }
            _ => return,
        }
    }
}

/// Does the token end an expression (so a following `-` is binary)?
fn ends_expr(t: &Tok) -> bool {
    matches!(t.kind, TokKind::Ident | TokKind::Int | TokKind::Float)
        || matches!(t.text.as_str(), ")" | "]")
}

fn operand_hits_counter(toks: &[Tok], i: isize, both_sides: bool) -> bool {
    let mut idents = Vec::new();
    chain_idents_back(toks, i - 1, &mut idents);
    if both_sides {
        chain_idents_fwd(toks, i + 1, &mut idents);
    }
    idents.iter().any(|n| is_counter_ident(n))
}

fn unchecked_sub(rel: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Punct {
            continue;
        }
        let at = i as isize;
        let op = t.text.as_str();
        if op == "-" {
            // Only binary minus; a unary negation is not a ledger subtraction.
            if i == 0 || !ends_expr(&toks[i - 1]) {
                continue;
            }
        } else if op != "-=" {
            continue;
        }
        if operand_hits_counter(toks, at, true) {
            out.push(finding(
                rel,
                t,
                "unchecked-sub",
                format!(
                    "raw `{}` on a page/token counter; use `checked_sub`/`saturating_sub` so ledger drift fails loudly",
                    op
                ),
            ));
        }
    }
}

fn raw_cast(rel: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || toks[i].text != "as" {
            continue;
        }
        let at = i as isize;
        let ty = text(toks, at + 1);
        if !INT_TYPES.contains(&ty) {
            continue;
        }
        if operand_hits_counter(toks, at, false) {
            out.push(finding(
                rel,
                &toks[i],
                "raw-cast",
                format!(
                    "raw `as {ty}` cast on a page/token counter; use `{ty}::try_from` or `div_ceil` to keep accounting exact"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scope_all() -> FileScope {
        FileScope { wall_clock: true, accounting: true, numeric: true }
    }

    fn lints_of(src: &str) -> Vec<(&'static str, u32, u32)> {
        lint_rust("crates/serve/src/x.rs", src, &scope_all())
            .findings
            .into_iter()
            .map(|f| (f.lint, f.line, f.col))
            .collect()
    }

    #[test]
    fn hygiene_fires_on_macros_only() {
        let got = lints_of("fn todo() {}\nfn f() { todo!(); }\nlet s = \"dbg!\";\n");
        assert_eq!(got, vec![("hygiene", 2, 10)]);
    }

    #[test]
    fn float_eq_fires_on_literal_comparison() {
        let got = lints_of("fn f(x: f64) -> bool { x == 0.0 }");
        assert_eq!(got, vec![("float-eq", 1, 26)]);
        assert!(lints_of("fn f(x: f64) -> bool { x.abs().to_bits() == 0 }").is_empty());
        assert_eq!(lints_of("fn f(x: f64) -> bool { x != -1.5 }").len(), 1);
    }

    #[test]
    fn float_sort_fires_on_every_partial_cmp_call() {
        let got =
            lints_of("fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }");
        assert_eq!(got, vec![("float-sort", 1, 42)]);
        // The NaN-to-`Equal` fallback is no total order either, and an
        // `Option` handed on still compares partially.
        let got = lints_of(
            "v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));",
        );
        assert_eq!(got, vec![("float-sort", 1, 20)]);
        assert_eq!(lints_of("let o = a.partial_cmp(&b);"), vec![("float-sort", 1, 11)]);
        assert_eq!(lints_of("let o = f64::partial_cmp(&a, &b);"), vec![("float-sort", 1, 14)]);
    }

    #[test]
    fn float_sort_leaves_total_cmp_and_partial_ord_impls_alone() {
        assert!(lints_of("fn f(v: &mut [f64]) { v.sort_by(f64::total_cmp); }").is_empty());
        let imp = "impl PartialOrd for E {\n\
                   fn partial_cmp(&self, o: &Self) -> Option<Ordering> { Some(self.cmp(o)) }\n}";
        assert!(lints_of(imp).is_empty());
        assert!(lints_of("let s = \"a.partial_cmp(b)\"; // a.partial_cmp(b)").is_empty());
    }

    #[test]
    fn wall_clock_catches_paths_and_types() {
        let got = lints_of("use std::time::Instant;\nfn f() { let _ = std::env::var(\"X\"); }\n");
        assert_eq!(got, vec![("wall-clock", 1, 16), ("wall-clock", 2, 18)]);
        // std::thread_local is a different identifier and must not fire.
        assert!(lints_of("std::thread_local! { static X: u32 = 0; }")
            .iter()
            .all(|(l, _, _)| *l != "wall-clock"));
    }

    #[test]
    fn nondeterministic_parallel_catches_locks_and_rmw() {
        let got = lints_of("use std::sync::Mutex;\nstatic TOTAL: Mutex<u64> = Mutex::new(0);\n");
        assert_eq!(
            got,
            vec![
                ("nondeterministic-parallel", 1, 16),
                ("nondeterministic-parallel", 2, 15),
                ("nondeterministic-parallel", 2, 28),
            ]
        );
        let got = lints_of("fn f(n: &AtomicU64) { n.fetch_add(1, Ordering::Relaxed); }");
        assert_eq!(got, vec![("nondeterministic-parallel", 1, 25)]);
        let got = lints_of("let _ = cell.compare_exchange(0, 1, AcqRel, Acquire);");
        assert_eq!(got, vec![("nondeterministic-parallel", 1, 14)]);
    }

    #[test]
    fn nondeterministic_parallel_leaves_ordinary_code_alone() {
        // Plain loads/stores and unrelated identifiers never fire.
        assert!(lints_of("let x = flag.load(Ordering::Relaxed);").is_empty());
        assert!(lints_of("let fetch_add = 3; let y = fetch_add + 1;").is_empty());
        // The pool itself is out of scope entirely.
        let scope = FileScope { wall_clock: false, accounting: false, numeric: false };
        let src = "use std::sync::Mutex;\nlet n = next.fetch_add(1, Ordering::Relaxed);\n";
        assert!(lint_rust("crates/tensor/src/pool.rs", src, &scope).findings.is_empty());
    }

    #[test]
    fn unordered_iteration_flags_every_hash_collection_name() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: &HashMap<u64, u32>) -> usize { m.len() }\n\
                   let ids = xs.iter().collect::<std::collections::HashSet<_>>();\n";
        let got = lints_of(src);
        assert_eq!(
            got,
            vec![
                ("unordered-iteration", 1, 23),
                ("unordered-iteration", 2, 10),
                ("unordered-iteration", 3, 49),
            ]
        );
        // Ordered collections, and the names in strings and comments, are fine.
        assert!(lints_of("fn f(m: &BTreeMap<u64, u32>) { for _ in m {} }").is_empty());
        assert!(lints_of("let s = \"HashMap\"; // HashSet").is_empty());
    }

    #[test]
    fn unchecked_sub_needs_a_counter_operand() {
        assert_eq!(lints_of("self.free_pages -= pages;"), vec![("unchecked-sub", 1, 17)]);
        assert_eq!(
            lints_of("let u = self.total_pages - self.free_pages;"),
            vec![("unchecked-sub", 1, 26)]
        );
        // Wall-time deltas and index math on non-counters stay clean.
        assert!(lints_of("let dt = clock_s - arrival_s;").is_empty());
        assert!(lints_of("let last = xs.len() - 1;").is_empty());
        // Unary minus is not a subtraction.
        assert!(lints_of("let x = -tokens;").is_empty());
    }

    #[test]
    fn raw_cast_flags_truncating_counter_casts_only() {
        assert_eq!(lints_of("let p = max_tokens as usize;"), vec![("raw-cast", 1, 20)]);
        assert_eq!(
            lints_of("let p = (total / seq.max(1) as u64) as usize;"),
            Vec::<(&str, u32, u32)>::new()
        );
        assert_eq!(lints_of("let p = (free_pages * 2) as u32;"), vec![("raw-cast", 1, 26)]);
        // Widening to f64 for reporting is allowed.
        assert!(lints_of("let r = generated_tokens as f64 / clock_s;").is_empty());
        // try_from is the sanctioned form.
        assert!(lints_of("let p = usize::try_from(max_tokens).expect(\"fits\");").is_empty());
    }

    #[test]
    fn fused_accumulate_catches_method_and_float_path_forms() {
        let got = lints_of("fn f(a: f32, b: f32, c: f32) -> f32 { a.mul_add(b, c) }");
        assert_eq!(got, vec![("fused-accumulate", 1, 41)]);
        let got = lints_of("let y = f32::mul_add(a, b, c);\nlet z = f64::mul_add(a, b, c);");
        assert_eq!(got, vec![("fused-accumulate", 1, 14), ("fused-accumulate", 2, 14)]);
        // A method reference passed as a function value fuses just the same.
        assert_eq!(lints_of("let g = f32::mul_add;").len(), 1);
    }

    #[test]
    fn fused_accumulate_leaves_definitions_and_unfused_code_alone() {
        assert!(lints_of("impl F16 { fn mul_add(self, b: F16, c: F16) -> F16 { self } }").is_empty());
        assert!(lints_of("let y = F16::mul_add(a, b, c);").is_empty());
        assert!(lints_of("acc += a * b;").is_empty());
        assert!(lints_of("let s = \"x.mul_add(y, z)\"; // a.mul_add(b, c)").is_empty());
        let scope = FileScope { numeric: false, ..scope_all() };
        assert!(lint_rust("crates/serve/src/x.rs", "a.mul_add(b, c);", &scope).findings.is_empty());
    }

    #[test]
    fn scope_gates_rules_but_not_the_name_bans() {
        let off = FileScope { wall_clock: false, accounting: false, numeric: false };
        let src = "let y = free_pages - 1;\nlet t = std::time::Instant::now();\na.mul_add(b, c);\n";
        assert!(lint_rust("crates/core/src/x.rs", src, &off).findings.is_empty());
        let banned = "let m: HashSet<u32> = s;\nlet o = a.partial_cmp(&b);\n";
        let got: Vec<_> =
            lint_rust("crates/core/src/x.rs", banned, &off).findings.iter().map(|f| f.lint).collect();
        assert_eq!(got, vec!["float-sort", "unordered-iteration"]);
    }
}
