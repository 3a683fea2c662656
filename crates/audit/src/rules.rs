//! The rule catalogue: D1–D6 (per-file) and D8–D9 (cross-file; D7
//! lives in [`crate::locks`]).
//!
//! Each per-file rule takes the scanned file, its scope facts and (for
//! D1) the statement segmentation, and returns raw findings; the
//! orchestrator in `lib.rs` then applies the suppression grammar. The
//! cross-file rules run once over the prepared file set and the symbol
//! table and attribute findings to whichever file owns the defect (a
//! digest-drifted *field*, not the digest fn). The analyses are
//! deliberately token-level heuristics — no type information exists
//! without `syn` — tuned so that every firing is either a genuine
//! invariant risk or a one-line, documented suppression. DESIGN.md
//! §11 and §16 record the exact patterns and their known blind spots.

use crate::callgraph::{body_lines, contains_member_ref};
use crate::lexer::Scanned;
use crate::locks::CrossFinding;
use crate::scope::FileScope;
use crate::segment::{stmts_in_block, Stmt};
use crate::suppress;
use crate::symbols::{find_word_from, SourceFile, SymbolTable};

/// One raw rule firing (pre-suppression).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RawFinding {
    /// 1-based line.
    pub line: usize,
    /// Rule id (`D1`…`D9`, `SUP`).
    pub rule: &'static str,
    /// Human message (no file:line prefix; the printer adds it).
    pub message: String,
}

fn finding(line: usize, rule: &'static str, message: impl Into<String>) -> RawFinding {
    RawFinding {
        line,
        rule,
        message: message.into(),
    }
}

/// Whether `needle` occurs in `hay` delimited by non-identifier chars.
pub fn contains_word(hay: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let abs = start + pos;
        let before_ok = abs == 0
            || !hay[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = abs + needle.len();
        let after_ok = after >= hay.len()
            || !hay[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = abs + needle.len();
    }
    false
}

// ---------------------------------------------------------------- D1

/// Crates whose engine code must not leak hash-iteration order.
const D1_CRATES: [&str; 3] = ["core", "crowd", "simtest"];

const ITER_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
];

/// Tokens that make an iteration order-*sensitive* when present in the
/// same statement or loop body: growing an ordered collection, feeding
/// a hasher, or writing output.
const ORDER_SINKS: [&str; 9] = [
    ".push(",
    ".push_str(",
    ".extend(",
    ".append(",
    ".write_u64(",
    ".write_u32(",
    ".write_usize(",
    "write!(",
    "writeln!(",
];

/// Chain terminals that are order-insensitive by construction.
const ORDER_FREE_TERMINALS: [&str; 12] = [
    ".count()",
    ".sum(",
    ".sum::",
    ".product(",
    ".min(",
    ".min_by",
    ".max(",
    ".max_by",
    ".all(",
    ".any(",
    ".contains(",
    ".len()",
];

/// D1 — hash-order leaks: iteration over a `HashMap`/`HashSet` in
/// `crates/{core,crowd,simtest}` whose results feed collection pushes,
/// digests/output, or collected vectors must be sorted (or collected
/// into a `BTree*`/re-keyed hash container, or sorted immediately
/// after) — otherwise it needs an `// audit: allow(D1, …)`.
pub fn d1(scope: &FileScope, stmts: &[Stmt]) -> Vec<RawFinding> {
    if scope.is_test_file
        || !D1_CRATES.contains(&scope.crate_name.as_str())
        || !scope.path.contains("/src/")
    {
        return Vec::new();
    }
    let names = hash_typed_names(stmts);
    if names.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (si, st) in stmts.iter().enumerate() {
        if scope.is_test_line(st.first_line) {
            continue;
        }
        let Some(name) = hash_iteration_in(&st.text, &names) else {
            continue;
        };
        let is_for_header =
            st.text.starts_with("for ") && st.text.contains(" in ") && st.text.ends_with('{');
        if is_for_header {
            let Some(close) = st.body_close_line else {
                continue;
            };
            let body: Vec<&Stmt> = stmts_in_block(stmts, st.first_line, close).collect();
            let sink = body
                .iter()
                .any(|b| ORDER_SINKS.iter().any(|s| b.text.contains(s)));
            if sink && !sinks_sorted_after(&body, stmts, close) {
                out.push(finding(
                    st.first_line,
                    "D1",
                    format!(
                        "iteration over hash-ordered `{name}` feeds an order-sensitive \
                         sink in the loop body; sort the keys first or annotate \
                         `audit: allow(D1, ...)`"
                    ),
                ));
            }
        } else {
            if ORDER_FREE_TERMINALS.iter().any(|t| st.text.contains(t)) {
                continue;
            }
            let collects = st.text.contains(".collect");
            let pushes = ORDER_SINKS.iter().any(|s| st.text.contains(s));
            if !collects && !pushes {
                continue;
            }
            // Collecting back into an unordered or sorted container is
            // order-free.
            if collects
                && (st.text.contains("BTree")
                    || st.text.contains("HashMap")
                    || st.text.contains("HashSet"))
            {
                continue;
            }
            if collects && sorted_in_next_stmts(st, stmts, si) {
                continue;
            }
            out.push(finding(
                st.first_line,
                "D1",
                format!(
                    "hash-ordered iteration of `{name}` reaches an ordered \
                     result (collect/push) without sorting; sort or annotate \
                     `audit: allow(D1, ...)`"
                ),
            ));
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Identifiers declared (or typed) as `HashMap`/`HashSet` anywhere in
/// the file: `let` bindings, struct fields and fn params.
fn hash_typed_names(stmts: &[Stmt]) -> Vec<String> {
    let mut names = Vec::new();
    for st in stmts {
        let t = &st.text;
        if !t.contains("HashMap") && !t.contains("HashSet") {
            continue;
        }
        // `let [mut] NAME …` where the hash type is the *binding's*
        // type annotation (before the `=`) or its constructor (right
        // after the `=`) — a hash literal buried deeper in the
        // initializer (e.g. a struct field inside a `map` closure)
        // does not make the binding hash-typed.
        if let Some(rest) = t.strip_prefix("let ") {
            let rest = rest.strip_prefix("mut ").unwrap_or(rest);
            let (before_eq, after_eq) = match rest.split_once('=') {
                Some((b, a)) => (b, a.trim_start()),
                None => (rest, ""),
            };
            let annotated = before_eq.contains("HashMap") || before_eq.contains("HashSet");
            let constructed = ["HashMap", "HashSet", "std::collections::Hash"]
                .iter()
                .any(|p| after_eq.starts_with(p));
            if annotated || constructed {
                if let Some(name) = leading_ident(rest) {
                    push_unique(&mut names, name);
                }
            }
        }
        // `NAME: [&]['a ][mut ][std::collections::]Hash{Map,Set}` —
        // struct fields and fn params.
        for marker in ["HashMap", "HashSet"] {
            let mut from = 0;
            while let Some(p) = t[from..].find(marker) {
                let abs = from + p;
                if let Some(name) = ident_before_colon(&t[..abs]) {
                    push_unique(&mut names, name);
                }
                from = abs + marker.len();
            }
        }
    }
    names
}

fn push_unique(names: &mut Vec<String>, name: String) {
    if !name.is_empty() && !names.contains(&name) {
        names.push(name);
    }
}

fn leading_ident(s: &str) -> Option<String> {
    let ident: String = s
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!ident.is_empty()).then_some(ident)
}

/// Walks back over `&`, lifetimes, `mut` and path prefixes from just
/// before a `Hash{Map,Set}` occurrence; returns the identifier before
/// the `:` if the shape is a type ascription.
fn ident_before_colon(prefix: &str) -> Option<String> {
    let mut rest = prefix.trim_end();
    loop {
        if let Some(r) = rest.strip_suffix("std::collections::") {
            rest = r.trim_end();
        } else if let Some(r) = rest.strip_suffix("collections::") {
            rest = r.trim_end();
        } else if let Some(r) = rest.strip_suffix("mut") {
            // Only strip `mut` as a whole word.
            if r.ends_with(|c: char| c.is_alphanumeric() || c == '_') {
                break;
            }
            rest = r.trim_end();
        } else if let Some(r) = rest.strip_suffix('&') {
            rest = r.trim_end();
        } else if let Some(apos) = rest.rfind('\'') {
            // A trailing lifetime like `&'a `.
            let (head, tail) = rest.split_at(apos);
            if tail.len() > 1 && tail[1..].chars().all(|c| c.is_alphanumeric() || c == '_') {
                rest = head.trim_end();
            } else {
                break;
            }
        } else {
            break;
        }
    }
    let rest = rest.strip_suffix(':')?.trim_end();
    let ident: String = rest
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    (!ident.is_empty() && !ident.chars().next().unwrap().is_numeric()).then_some(ident)
}

/// Finds `NAME.iter()`-style hash iteration (or `for _ in [&]NAME`) in
/// a statement; returns the matched name.
fn hash_iteration_in(text: &str, names: &[String]) -> Option<String> {
    for name in names {
        let mut from = 0;
        while let Some(p) = find_word_at(text, name, from) {
            let after = &text[p + name.len()..];
            // `NAME.method(` with an iteration method.
            if let Some(rest) = after.strip_prefix('.') {
                if ITER_METHODS
                    .iter()
                    .any(|m| rest.starts_with(&format!("{m}(")))
                {
                    return Some(name.clone());
                }
            }
            // `for pat in [&][mut ][self.]NAME {` / `.. in NAME.iter() ..`
            // (bare-name form: name directly followed by `{` or end).
            let before = text[..p].trim_end();
            let before = before.strip_suffix("self.").unwrap_or(before).trim_end();
            if (before.ends_with(" in") || before.ends_with("in &") || before.ends_with("&mut"))
                && (after.trim_start().starts_with('{') || after.trim().is_empty())
            {
                return Some(name.clone());
            }
            from = p + name.len();
        }
    }
    None
}

/// Word-boundary find of `name` starting at `from`; also accepts a
/// `self.` prefix (struct fields).
fn find_word_at(text: &str, name: &str, from: usize) -> Option<usize> {
    let mut start = from;
    while let Some(pos) = text[start..].find(name) {
        let abs = start + pos;
        let before = text[..abs].chars().next_back();
        let before_ok = match before {
            None => true,
            Some('.') => text[..abs].ends_with("self."),
            Some(c) => !(c.is_alphanumeric() || c == '_'),
        };
        let after = abs + name.len();
        let after_ok = !text[after..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return Some(abs);
        }
        start = after;
    }
    None
}

/// Whether every `V.push(..)` receiver in the loop body is sorted
/// within a few statements after the loop closes.
fn sinks_sorted_after(body: &[&Stmt], all: &[Stmt], close_line: usize) -> bool {
    let mut receivers: Vec<String> = Vec::new();
    for b in body {
        for sink in ORDER_SINKS {
            if let Some(p) = b.text.find(sink) {
                let recv: String = b.text[..p]
                    .chars()
                    .rev()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect::<String>()
                    .chars()
                    .rev()
                    .collect();
                if recv.is_empty() {
                    // A macro sink (`write!`) has no sortable receiver.
                    return false;
                }
                receivers.push(recv);
            }
        }
    }
    if receivers.is_empty() {
        return false;
    }
    receivers.iter().all(|r| {
        all.iter()
            .filter(|s| s.first_line > close_line && s.first_line <= close_line + 6)
            .any(|s| s.text.contains(&format!("{r}.sort")))
    })
}

/// Whether the `let` binding of a collect-statement is `.sort`-ed in
/// one of the next three statements.
fn sorted_in_next_stmts(st: &Stmt, all: &[Stmt], si: usize) -> bool {
    let Some(rest) = st.text.strip_prefix("let ") else {
        return false;
    };
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let Some(name) = leading_ident(rest) else {
        return false;
    };
    all.iter()
        .skip(si + 1)
        .take(3)
        .any(|s| s.text.contains(&format!("{name}.sort")))
}

// ---------------------------------------------------------------- D2

/// D2 — nondeterminism sources banned outside `crates/bench` and test
/// code: wall clocks, OS entropy, environment reads.
pub fn d2(scope: &FileScope, scanned: &Scanned) -> Vec<RawFinding> {
    if scope.is_test_file || scope.crate_name == "bench" {
        return Vec::new();
    }
    const BANNED_WORDS: [&str; 3] = ["SystemTime", "Instant", "thread_rng"];
    // `env::var` also catches `env::var_os` and `env::vars` as
    // substrings; `env::args` (argv) is user input, not ambient state,
    // and stays allowed.
    const BANNED_PATHS: [&str; 1] = ["env::var"];
    let mut out = Vec::new();
    for (i, line) in scanned.code.iter().enumerate() {
        let line_no = i + 1;
        if scope.is_test_line(line_no) {
            continue;
        }
        for w in BANNED_WORDS {
            if contains_word(line, w) {
                out.push(finding(
                    line_no,
                    "D2",
                    format!("nondeterminism source `{w}` outside bench/test code"),
                ));
            }
        }
        for p in BANNED_PATHS {
            if line.contains(p) {
                out.push(finding(
                    line_no,
                    "D2",
                    format!("environment read `{p}` outside bench/test code"),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------- D3

/// An `unsafe` site (for the census) — the keyword introducing a
/// block, fn, impl or trait.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// 1-based line of the `unsafe` keyword.
    pub line: usize,
    /// Whether a `// SAFETY:` justification covers it.
    pub justified: bool,
}

/// D3 — unsafe inventory: every `unsafe` keyword (all crates,
/// including vendor and tests) must carry a non-empty `// SAFETY:`
/// comment on the same line or the comment block above. Returns the
/// findings plus every site for the per-crate census.
pub fn d3(scanned: &Scanned) -> (Vec<RawFinding>, Vec<UnsafeSite>) {
    let mut out = Vec::new();
    let mut sites = Vec::new();
    for (i, line) in scanned.code.iter().enumerate() {
        let line_no = i + 1;
        if !contains_word(line, "unsafe") {
            continue;
        }
        let justified = suppress::has_marker(scanned, "SAFETY:", line_no);
        sites.push(UnsafeSite {
            line: line_no,
            justified,
        });
        if !justified {
            out.push(finding(
                line_no,
                "D3",
                "`unsafe` without a `// SAFETY:` justification",
            ));
        }
    }
    (out, sites)
}

// ---------------------------------------------------------------- D4

/// Path prefixes whose non-test panic surface must be justified: all
/// engine source in the three deterministic crates, the server, and the
/// JSON reader every WAL and frame byte passes through. A prefix match
/// (not a file list) means files added later — `oplog.rs`, `wire.rs`,
/// `recovery.rs`, whatever comes next — are audited the day they land
/// instead of silently exempt.
const D4_PATHS: [&str; 5] = [
    "crates/core/src/",
    "crates/crowd/src/",
    "crates/ontology/src/json.rs",
    "crates/server/src/",
    "crates/simtest/src/",
];

/// Explicit, intentional panic contexts: an assertion line is already
/// declared panic surface, so indexing inside it needs no second
/// annotation.
const ASSERT_MACROS: [&str; 5] = [
    "assert!(",
    "assert_eq!(",
    "assert_ne!(",
    "debug_assert",
    "unreachable!(",
];

/// D4 — panic surface: `unwrap`/`expect`/slice indexing in engine
/// source under `D4_PATHS` (non-test code) requires
/// `// PANIC-OK: reason`.
pub fn d4(scope: &FileScope, scanned: &Scanned) -> Vec<RawFinding> {
    if !D4_PATHS.iter().any(|p| scope.path.starts_with(p)) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, line) in scanned.code.iter().enumerate() {
        let line_no = i + 1;
        if scope.is_test_line(line_no) || ASSERT_MACROS.iter().any(|m| line.contains(m)) {
            continue;
        }
        let mut kinds: Vec<&str> = Vec::new();
        for pat in [".unwrap()", ".unwrap_err()"] {
            if line.contains(pat) {
                kinds.push("unwrap");
                break;
            }
        }
        for pat in [".expect(", ".expect_err("] {
            if line.contains(pat) {
                kinds.push("expect");
                break;
            }
        }
        if has_index_expr(line) {
            kinds.push("slice indexing");
        }
        if kinds.is_empty() {
            continue;
        }
        if suppress::has_marker(scanned, "PANIC-OK:", line_no) {
            continue;
        }
        for kind in kinds {
            out.push(finding(
                line_no,
                "D4",
                format!("{kind} in engine code without a `// PANIC-OK:` justification"),
            ));
        }
    }
    out
}

/// An index expression: `[` directly preceded by an identifier char,
/// `)` or `]`. Attributes (`#[...]`), macros (`vec![`), array types
/// (`[u64; 4]`) and slice patterns don't match.
fn has_index_expr(line: &str) -> bool {
    let mut prev = '\0';
    for c in line.chars() {
        if c == '[' && (prev.is_alphanumeric() || prev == '_' || prev == ')' || prev == ']') {
            return true;
        }
        prev = c;
    }
    false
}

// ---------------------------------------------------------------- D5

/// The agreed crate-root lint set (DESIGN.md §11): overflow/`Result`
/// misuse denied everywhere; unsafe either forbidden outright or — in
/// crates that need it — gated by `unsafe_op_in_unsafe_fn`.
pub const D5_MUST_USE: &str = "#![deny(unused_must_use)]";
/// Required when the crate has no `unsafe` at all.
pub const D5_FORBID_UNSAFE: &str = "#![forbid(unsafe_code)]";
/// Required (instead of the forbid) when the crate contains `unsafe`.
pub const D5_UNSAFE_OP: &str = "#![deny(unsafe_op_in_unsafe_fn)]";

/// D5 — lint hygiene on crate roots: the root must carry
/// `#![deny(unused_must_use)]`, plus `#![forbid(unsafe_code)]` when
/// the crate is unsafe-free or `#![deny(unsafe_op_in_unsafe_fn)]`
/// when it is not.
pub fn d5(scope: &FileScope, scanned: &Scanned, crate_has_unsafe: bool) -> Vec<RawFinding> {
    if !scope.is_crate_root {
        return Vec::new();
    }
    let joined = scanned.code.join("\n");
    let mut out = Vec::new();
    if !joined.contains(D5_MUST_USE) {
        out.push(finding(
            1,
            "D5",
            format!("crate root missing `{D5_MUST_USE}`"),
        ));
    }
    if crate_has_unsafe {
        if !joined.contains(D5_UNSAFE_OP) {
            out.push(finding(
                1,
                "D5",
                format!("crate with unsafe code missing `{D5_UNSAFE_OP}`"),
            ));
        }
    } else if !joined.contains(D5_FORBID_UNSAFE) {
        out.push(finding(
            1,
            "D5",
            format!("unsafe-free crate root missing `{D5_FORBID_UNSAFE}`"),
        ));
    }
    out
}

// ---------------------------------------------------------------- D6

/// The retired `Oassis` entry points: call-site patterns and, since
/// the wrappers were deleted outright, definition patterns too — a
/// reintroduced `fn execute` is the same regression as a call site.
const D6_CALLS: [&str; 3] = [".execute(", ".execute_concurrent(", ".execute_rules("];

/// Definition-level patterns: declaring any of the retired wrappers
/// anywhere (including their old home in `engine.rs`) fires.
const D6_DEFS: [&str; 3] = ["fn execute(", "fn execute_concurrent(", "fn execute_rules("];

/// D6 — retired entry points: the `execute*` wrappers are gone, not
/// frozen. No file anywhere — `engine.rs`, tests, benches — may call
/// them *or define them again*; everything goes through `Oassis::run`
/// (DESIGN.md §12.1). (String literals are blanked by the lexer, so
/// quoting a method name in a message never fires.)
pub fn d6(_scope: &FileScope, scanned: &Scanned) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for (i, line) in scanned.code.iter().enumerate() {
        let line_no = i + 1;
        for pat in D6_CALLS {
            if line.contains(pat) {
                out.push(finding(
                    line_no,
                    "D6",
                    format!(
                        "retired entry point `{}` — use `Oassis::run` (DESIGN.md §12.1)",
                        &pat[1..pat.len() - 1]
                    ),
                ));
            }
        }
        for pat in D6_DEFS {
            if line.contains(pat) {
                out.push(finding(
                    line_no,
                    "D6",
                    format!(
                        "retired entry point redefined (`{}`) — the wrappers were \
                         deleted; route through `Oassis::run` (DESIGN.md §12.1)",
                        &pat[..pat.len() - 1]
                    ),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------- D8

/// D8 — digest coverage: every fn whose name contains `digest`
/// (non-test) is a replica-equality contract; the struct it digests
/// must have *every* field folded in, or the field carries a reasoned
/// `audit: allow(D8, …)`. The "added a field, forgot the digest"
/// drift class fires at the *field's* declaration line, so a newly
/// added field is never masked by a suppression on an older sibling.
pub fn d8(files: &[SourceFile], table: &SymbolTable) -> Vec<CrossFinding> {
    let mut out: Vec<CrossFinding> = Vec::new();
    for f in &table.fns {
        if f.is_test || files[f.file].scope.is_test_file || files[f.file].scope.is_vendor {
            continue;
        }
        if !f.name.to_lowercase().contains("digest") {
            continue;
        }
        let Some((recv, st)) = fold_target(table, f) else {
            continue;
        };
        if st.is_test {
            continue;
        }
        let body: Vec<&str> = body_lines(table, f)
            .into_iter()
            .map(|l| files[f.file].scanned.line(l))
            .collect();
        for field in &st.fields {
            let folded = body
                .iter()
                .any(|l| contains_member_ref(l, &recv, &field.name));
            if !folded {
                out.push((
                    st.file,
                    finding(
                        field.line,
                        "D8",
                        format!(
                            "field `{}` of `{}` is not folded into digest fn `{}` \
                             ({}:{}) — replicas can silently diverge; fold it or \
                             annotate `audit: allow(D8, ...)`",
                            field.name,
                            st.name,
                            f.qual(),
                            files[f.file].path,
                            f.line
                        ),
                    ),
                ));
            }
        }
    }
    out.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    out.dedup();
    out
}

/// The (receiver name, struct) a digest fn folds: the impl type for
/// `&self` methods, else the first parameter whose type is a uniquely
/// named repo struct. `None` (primitive/ambiguous inputs) skips the fn.
fn fold_target<'t>(
    table: &'t SymbolTable,
    f: &crate::symbols::FnDef,
) -> Option<(String, &'t crate::symbols::StructDef)> {
    for (i, param) in header_params(&f.header).into_iter().enumerate() {
        let p = param.trim();
        if i == 0 && (p == "self" || p == "&self" || p == "&mut self") {
            if let Some(st) = f.impl_type.as_deref().and_then(|t| table.struct_named(t)) {
                return Some(("self".to_string(), st));
            }
            continue;
        }
        let Some((name, ty)) = p.split_once(':') else {
            continue;
        };
        let base = ty
            .trim()
            .trim_start_matches('&')
            .trim_start_matches("mut ")
            .trim();
        let base = base.split('<').next().unwrap_or(base).trim();
        let base = base.rsplit("::").next().unwrap_or(base).trim();
        if let Some(st) = table.struct_named(base) {
            return Some((name.trim().to_string(), st));
        }
    }
    None
}

/// The comma-split parameter list of a normalized fn header (top-level
/// commas only; generics and nested parens are depth-tracked).
fn header_params(header: &str) -> Vec<String> {
    let open = match header.find('(') {
        Some(p) => p,
        None => return Vec::new(),
    };
    let mut depth_paren = 0i32;
    let mut depth_angle = 0i32;
    let mut prev = '\0';
    let mut cur = String::new();
    let mut out = Vec::new();
    for c in header[open..].chars() {
        match c {
            '(' | '[' => {
                depth_paren += 1;
                if depth_paren > 1 {
                    cur.push(c);
                }
            }
            ')' | ']' => {
                depth_paren -= 1;
                if depth_paren == 0 {
                    break;
                }
                cur.push(c);
            }
            '<' => {
                depth_angle += 1;
                cur.push(c);
            }
            '>' if prev != '-' => {
                depth_angle -= 1;
                cur.push(c);
            }
            ',' if depth_paren == 1 && depth_angle == 0 => {
                out.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
        prev = c;
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
}

// ---------------------------------------------------------------- D9

/// The wire/fault enums whose `match`es must be exhaustive by name: a
/// new protocol op or fault kind must *fail to compile* at every
/// dispatch site, never fall into a `_` arm that silently drops it.
const D9_ENUMS: [&str; 3] = ["WireVerdict", "OpVerdict", "FaultKind"];

/// The `D9_ENUMS` names that no single enum declaration in the scanned
/// files resolves: D9 cannot check a `match` over them for missing
/// variants, so such a name is stale.
pub fn d9_unresolved(table: &SymbolTable) -> Vec<String> {
    D9_ENUMS
        .iter()
        .filter(|e| table.enum_named(e).is_none())
        .map(|e| e.to_string())
        .collect()
}

/// D9 — wire-op exhaustiveness: every non-test `match` whose arms name
/// a `D9_ENUMS` variant must (a) have no catch-all arm (`_`, a bare
/// binding, or an or/`Some`-wrapped one) and (b) name every variant of
/// the enum. Variants are recognized in qualified `Enum::Variant`
/// pattern position only; `if let` chains are out of scope (DESIGN.md
/// §16).
pub fn d9(files: &[SourceFile], table: &SymbolTable) -> Vec<CrossFinding> {
    let mut out: Vec<CrossFinding> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        if file.scope.is_test_file || file.scope.is_vendor {
            continue;
        }
        for st in &file.stmts {
            let Some(close) = st.body_close_line else {
                continue;
            };
            if !st.text.ends_with('{')
                || !contains_word(&st.text, "match")
                || file.scope.is_test_line(st.first_line)
            {
                continue;
            }
            let arms = match_arms(&file.scanned, st.last_line, close);
            // Which audited enum does this match dispatch on?
            let mut named: Vec<(&str, String)> = Vec::new(); // (enum, variant)
            for (_, pat) in &arms {
                for e in D9_ENUMS {
                    let marker = format!("{e}::");
                    let mut from = 0;
                    while let Some(p) = find_word_from(pat, e, from) {
                        from = p + e.len();
                        if !pat[from..].starts_with("::") {
                            continue;
                        }
                        let variant: String = pat[p + marker.len()..]
                            .chars()
                            .take_while(|c| c.is_alphanumeric() || *c == '_')
                            .collect();
                        if !variant.is_empty() {
                            named.push((e, variant));
                        }
                    }
                }
            }
            if named.is_empty() {
                continue;
            }
            let enum_name = named[0].0;
            for (line, pat) in &arms {
                if is_catch_all_arm(pat) {
                    out.push((
                        fi,
                        finding(
                            *line,
                            "D9",
                            format!(
                                "catch-all arm in `match` over `{enum_name}` — name every \
                                 variant so a new wire op fails to compile instead of \
                                 silently falling through"
                            ),
                        ),
                    ));
                }
            }
            if let Some(def) = table.enum_named(enum_name) {
                let covered: Vec<&String> = named
                    .iter()
                    .filter(|(e, _)| *e == enum_name)
                    .map(|(_, v)| v)
                    .collect();
                let missing: Vec<&str> = def
                    .variants
                    .iter()
                    .filter(|v| !covered.contains(v))
                    .map(String::as_str)
                    .collect();
                if !missing.is_empty() && !arms.iter().any(|(_, p)| is_catch_all_arm(p)) {
                    out.push((
                        fi,
                        finding(
                            st.first_line,
                            "D9",
                            format!(
                                "`match` over `{enum_name}` does not name variant(s) {} — \
                                 wire/fault dispatch must be exhaustive by name",
                                missing.join(", ")
                            ),
                        ),
                    ));
                }
            }
        }
    }
    out.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    out.dedup();
    out
}

/// The arms of a `match` block: (first line, normalized pattern text)
/// per arm, with guards stripped. The walker starts at the block's
/// opening `{` (last `{` on the header's closing line) and splits on
/// depth-1 `=>`; arm bodies (block or comma-terminated expression) are
/// consumed at depth so nested matches never leak arms outward.
fn match_arms(scanned: &Scanned, open_line: usize, close_line: usize) -> Vec<(usize, String)> {
    let mut arms = Vec::new();
    let mut brace = 0i32;
    let mut paren = 0i32;
    let mut in_body = false;
    let mut pat = String::new();
    let mut pat_line = 0usize;
    for line_no in open_line..=close_line {
        let line = scanned.line(line_no);
        let bytes = line.as_bytes();
        let mut i = if line_no == open_line {
            match line.rfind('{') {
                Some(p) => {
                    brace = 1;
                    p + 1
                }
                None => continue,
            }
        } else {
            0
        };
        while i < bytes.len() {
            let c = bytes[i] as char;
            match c {
                '{' => brace += 1,
                '}' => {
                    brace -= 1;
                    if brace == 0 {
                        return arms; // match closed
                    }
                    if in_body && brace == 1 {
                        in_body = false; // block body closed
                    }
                }
                '(' | '[' => paren += 1,
                ')' | ']' => paren -= 1,
                // The comma terminating an expression body must not
                // leak into the next arm's pattern text.
                ',' if in_body && brace == 1 && paren == 0 => {
                    in_body = false;
                    i += 1;
                    continue;
                }
                '=' if !in_body && brace == 1 && paren == 0 && bytes.get(i + 1) == Some(&b'>') => {
                    let text = normalize_pattern(&pat);
                    if !text.is_empty() {
                        arms.push((pat_line, text));
                    }
                    pat.clear();
                    in_body = true;
                    i += 2;
                    continue;
                }
                _ => {}
            }
            // `{`/`}` never join the pattern text: a struct pattern's
            // closing brace lands back at depth 1 and would otherwise
            // leak into the next arm's pattern.
            if !in_body && brace == 1 && c != '{' && c != '}' {
                if pat.trim().is_empty() && !c.is_whitespace() {
                    pat_line = line_no;
                }
                pat.push(c);
            }
            i += 1;
        }
        if !in_body && brace >= 1 {
            pat.push(' ');
        }
    }
    arms
}

/// Collapses whitespace and strips a trailing ` if GUARD`.
fn normalize_pattern(pat: &str) -> String {
    let collapsed = pat.split_whitespace().collect::<Vec<_>>().join(" ");
    match collapsed.find(" if ") {
        Some(p) => collapsed[..p].trim().to_string(),
        None => collapsed,
    }
}

/// Whether an arm pattern is a catch-all: any top-level `|` alternative
/// that — unwrapped through `&`/`Some`/`Ok`/`Err` — is `_` or a bare
/// lowercase binding. Capitalized bare idents (`None`, unit variants)
/// are named patterns, not catch-alls.
fn is_catch_all_arm(pat: &str) -> bool {
    split_top_level(pat, '|').into_iter().any(|alt| {
        let mut p = alt.trim();
        loop {
            p = p.trim().trim_start_matches('&').trim();
            let mut unwrapped = false;
            for w in ["Some(", "Ok(", "Err("] {
                if p.starts_with(w) && p.ends_with(')') {
                    p = &p[w.len()..p.len() - 1];
                    unwrapped = true;
                    break;
                }
            }
            if !unwrapped {
                break;
            }
        }
        if p == "_" {
            return true;
        }
        p.chars().all(|c| c.is_alphanumeric() || c == '_')
            && p.chars()
                .next()
                .is_some_and(|c| c.is_lowercase() || c == '_')
    })
}

/// Splits on `sep` at paren/bracket depth 0.
fn split_top_level(s: &str, sep: char) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    for (i, c) in s.char_indices() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            c if c == sep && depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}
