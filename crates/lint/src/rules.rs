//! Token-level lint rules over the [`crate::lexer`] stream.
//!
//! Every rule is a linear scan with a little local context — no AST, no
//! type information. Where a rule needs "is this a map?" or "is this a
//! counter?", it uses the conventions this workspace already follows
//! (declared types on bindings/fields, counter-style identifier names), and
//! the false-positive escape hatch is an allow comment with a mandatory
//! reason.

use std::collections::HashSet;

use crate::lexer::{lex, Lexed, Tok, TokKind};
use crate::{apply_allows, parse_directives, FileOutcome, FileScope, Finding};

/// Methods whose call on a `HashMap`/`HashSet` observes iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

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
    if scope.wall_clock {
        wall_clock(rel, toks, &mut findings);
        nondeterministic_parallel(rel, toks, &mut findings);
    }
    if scope.sim {
        unordered_iteration(rel, toks, &mut findings);
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
fn named_by_exported_macros(toks: &[Tok]) -> HashSet<&str> {
    let mut names = HashSet::new();
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
    let idents: Vec<HashSet<&str>> = files
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
// float-sort: `.partial_cmp(..).unwrap()` / `.expect(..)` in comparator
// position — panics on NaN mid-sort; `f64::total_cmp` is the sanctioned
// total order (explicit `unwrap_or(Ordering::..)` fallbacks stay legal)
// ---------------------------------------------------------------------------

fn float_sort(rel: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident
            || toks[i].text != "partial_cmp"
            || text(toks, i as isize - 1) != "."
            || text(toks, i as isize + 1) != "("
        {
            continue;
        }
        // Depth-match the argument list, then look for `.unwrap(` /
        // `.expect(` immediately on the comparison's result.
        let mut j = i + 1;
        let mut depth = 0i32;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if text(toks, j as isize + 1) == "."
            && kind(toks, j as isize + 2) == Some(TokKind::Ident)
            && matches!(text(toks, j as isize + 2), "unwrap" | "expect")
            && text(toks, j as isize + 3) == "("
        {
            out.push(finding(
                rel,
                &toks[i],
                "float-sort",
                format!(
                    "`partial_cmp(..).{}(..)` panics on NaN mid-comparison; use `f64::total_cmp` for a deterministic total order",
                    text(toks, j as isize + 2)
                ),
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
// unordered-iteration: iterating a HashMap/HashSet-typed binding in the
// simulation crates
// ---------------------------------------------------------------------------

/// Collects identifiers declared with a `HashMap`/`HashSet` type in this
/// file: `name: [std::collections::]HashMap<..>` (fields, params, lets) and
/// `name = [std::collections::]HashMap::new()`.
fn hash_typed_names(toks: &[Tok]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident
            || (toks[i].text != "HashMap" && toks[i].text != "HashSet")
        {
            continue;
        }
        // Walk back over a `std :: collections ::`-style path prefix.
        let mut j = i as isize - 1;
        while text(toks, j) == "::" && kind(toks, j - 1) == Some(TokKind::Ident) {
            j -= 2;
        }
        while matches!(text(toks, j), "&" | "mut") {
            j -= 1;
        }
        if matches!(text(toks, j), ":" | "=") && kind(toks, j - 1) == Some(TokKind::Ident) {
            let name = &toks[(j - 1) as usize].text;
            if !names.iter().any(|n| n == name) {
                names.push(name.clone());
            }
        }
    }
    names
}

fn unordered_iteration(rel: &str, toks: &[Tok], out: &mut Vec<Finding>) {
    let names = hash_typed_names(toks);
    if names.is_empty() {
        return;
    }
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || !names.iter().any(|n| *n == toks[i].text) {
            continue;
        }
        let at = i as isize;
        // `name.iter()` / `.keys()` / `.values()` / `.drain()` / ...
        if text(toks, at + 1) == "."
            && kind(toks, at + 2) == Some(TokKind::Ident)
            && ITER_METHODS.contains(&text(toks, at + 2))
            && text(toks, at + 3) == "("
        {
            out.push(finding(
                rel,
                &toks[(at + 2) as usize],
                "unordered-iteration",
                format!(
                    "`.{}()` on `{}` (HashMap/HashSet) iterates in unspecified order; use BTreeMap/BTreeSet or sort first",
                    text(toks, at + 2),
                    toks[i].text
                ),
            ));
            continue;
        }
        // `for pat in [&][mut] [self.]name {`
        if text(toks, at + 1) == "{" {
            let mut j = at - 1;
            if text(toks, j) == "." && text(toks, j - 1) == "self" {
                j -= 2;
            }
            if text(toks, j) == "mut" {
                j -= 1;
            }
            if text(toks, j) == "&" {
                j -= 1;
            }
            if text(toks, j) == "in" {
                out.push(finding(
                    rel,
                    &toks[i],
                    "unordered-iteration",
                    format!(
                        "`for .. in` over `{}` (HashMap/HashSet) iterates in unspecified order; use BTreeMap/BTreeSet or sort first",
                        toks[i].text
                    ),
                ));
            }
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
        FileScope { sim: true, wall_clock: true, accounting: true, numeric: true }
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
    fn float_sort_fires_on_unwrapped_comparators() {
        let got =
            lints_of("fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }");
        assert_eq!(got, vec![("float-sort", 1, 42)]);
        let got = lints_of(
            "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).expect(\"no NaN\")); }",
        );
        assert_eq!(got, vec![("float-sort", 1, 42)]);
        // A parenthesized argument must not fool the depth matcher.
        let got = lints_of("let o = x.partial_cmp(&(y + z.min(1.0))).unwrap();");
        assert_eq!(got, vec![("float-sort", 1, 11)]);
    }

    #[test]
    fn float_sort_leaves_sanctioned_forms_alone() {
        // total_cmp is the fix; a bare partial_cmp (e.g. propagated as an
        // Option) and an explicit Ordering fallback both stay legal.
        assert!(lints_of("fn f(v: &mut [f64]) { v.sort_by(f64::total_cmp); }").is_empty());
        assert!(lints_of("let o = a.partial_cmp(&b);").is_empty());
        assert!(lints_of(
            "v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));"
        )
        .is_empty());
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
        let scope = FileScope { sim: false, wall_clock: false, accounting: false, numeric: false };
        let src = "use std::sync::Mutex;\nlet n = next.fetch_add(1, Ordering::Relaxed);\n";
        assert!(lint_rust("crates/tensor/src/pool.rs", src, &scope).findings.is_empty());
    }

    #[test]
    fn unordered_iteration_tracks_declared_maps() {
        let src = "use std::collections::HashMap;\n\
                   struct S { pinned: HashMap<u64, usize> }\n\
                   impl S { fn f(&self) { for (k, v) in &self.pinned { let _ = (k, v); } } }\n";
        let got = lints_of(src);
        assert_eq!(got, vec![("unordered-iteration", 3, 44)]);
        // Lookups are fine; Vec iteration is fine.
        assert!(lints_of("fn f(v: Vec<u32>) { for x in &v { let _ = x; } }").is_empty());
        assert!(lints_of(
            "use std::collections::HashMap;\nfn f(m: &HashMap<u64, u32>) { let _ = m.get(&1); }"
        )
        .is_empty());
    }

    #[test]
    fn unordered_iteration_catches_method_calls() {
        let src = "let mut seen = std::collections::HashSet::new();\nseen.insert(1);\nlet n = seen.iter().count();\n";
        let got = lints_of(src);
        assert_eq!(got, vec![("unordered-iteration", 3, 14)]);
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
    fn scope_gates_rules() {
        let off = FileScope { sim: false, wall_clock: false, accounting: false, numeric: false };
        let src = "use std::collections::HashMap;\nlet m: HashMap<u32,u32> = HashMap::new();\nfor x in &m {}\nlet y = free_pages - 1;\n";
        assert!(lint_rust("crates/core/src/x.rs", src, &off).findings.is_empty());
    }
}
