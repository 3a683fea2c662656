//! D7 — lock discipline over the call graph.
//!
//! Extracts every `Mutex`/`RwLock` acquisition site, derives how long
//! each guard is held (a `let`-bound guard lives to its enclosing
//! block's close or an explicit `drop(..)`, a temporary to its own
//! statement, a block-header scrutinee to the block close), and then
//! checks two properties:
//!
//! * **double lock** — the same lock acquired while already held, on
//!   the same path (directly, or through a uniquely-resolved call
//!   chain): a guaranteed self-deadlock under `std::sync::Mutex`;
//! * **acquisition-order cycles** — lock `A` held while `B` is
//!   acquired at one site and `B` held while `A` is acquired at
//!   another (possibly in different crates, via the call graph): a
//!   potential deadlock the moment the two paths run concurrently.
//!
//! Lock identity is name-resolved: `self.FIELD.lock()` binds through
//! the enclosing impl type to a `Mutex`-typed field (`Type.field`);
//! `NAME.lock()` binds to a `let`-declared local whose type or
//! constructor names a lock. Receivers the table cannot resolve are
//! skipped — like the call graph, D7 under-reports rather than
//! guesses (DESIGN.md §16 lists the blind spots).

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{body_lines, CallGraph};
use crate::rules::RawFinding;
use crate::symbols::{FnDef, SourceFile, SymbolTable};

/// Lock acquisition tokens (empty-parens forms only, so `io::Read::
/// read(buf)` and `fmt::Write::write(s)` never match).
const LOCK_TOKENS: [&str; 3] = [".lock()", ".read()", ".write()"];

/// A finding attributed to a file index (cross-file rules report into
/// other files than the one that triggered the analysis).
pub type CrossFinding = (usize, RawFinding);

/// One resolved lock acquisition.
#[derive(Debug, Clone)]
struct Site {
    /// Lock identity (`Type.field` or `path::fn::local`).
    id: String,
    line: usize,
    col: usize,
    /// Last 1-based line on which the guard is still held.
    span_end: usize,
}

/// Runs D7 over every non-test fn.
pub fn d7(files: &[SourceFile], table: &SymbolTable, graph: &CallGraph) -> Vec<CrossFinding> {
    analyze(files, table, graph).0
}

/// The statically derived acquisition-order edges `(held, acquired)`,
/// sorted. The runtime sanitizer's agreement test checks the orders a
/// sim run actually took against these.
pub fn order_edges(
    files: &[SourceFile],
    table: &SymbolTable,
    graph: &CallGraph,
) -> Vec<(String, String)> {
    analyze(files, table, graph).1.into_keys().collect()
}

type OrderEdges = BTreeMap<(String, String), (usize, usize)>;

fn analyze(
    files: &[SourceFile],
    table: &SymbolTable,
    graph: &CallGraph,
) -> (Vec<CrossFinding>, OrderEdges) {
    let mut out: Vec<CrossFinding> = Vec::new();
    // (from, to) → first acquisition site that witnessed the order.
    let mut edges: BTreeMap<(String, String), (usize, usize)> = BTreeMap::new();

    let sites: Vec<Vec<Site>> = table
        .fns
        .iter()
        .map(|f| fn_sites(files, table, f))
        .collect();
    let trans = transitive_acquires(graph, &sites);

    for (fi, f) in table.fns.iter().enumerate() {
        if f.is_test || files[f.file].scope.is_test_file || files[f.file].scope.is_vendor {
            continue;
        }
        let s = &sites[fi];
        // Direct pairwise overlap within the fn.
        for j in 1..s.len() {
            for i in 0..j {
                if !covers(&s[i], s[j].line, s[j].col) {
                    continue;
                }
                if s[i].id == s[j].id {
                    out.push((
                        f.file,
                        finding(
                            s[j].line,
                            format!(
                                "double lock: `{}` acquired while the guard from line {} is \
                                 still held (self-deadlock under std::sync::Mutex)",
                                s[j].id, s[i].line
                            ),
                        ),
                    ));
                } else {
                    edges
                        .entry((s[i].id.clone(), s[j].id.clone()))
                        .or_insert((f.file, s[j].line));
                }
            }
        }
        // Propagation through uniquely-resolved calls.
        for call in &graph.calls[fi] {
            let callee = &table.fns[call.callee];
            let tacq = &trans[call.callee];
            for h in s.iter().filter(|x| covers(x, call.line, call.col)) {
                if tacq.contains(&h.id) {
                    out.push((
                        f.file,
                        finding(
                            call.line,
                            format!(
                                "double lock via call: `{}` is held here and re-acquired \
                                 inside `{}` (possibly transitively)",
                                h.id,
                                callee.qual()
                            ),
                        ),
                    ));
                } else {
                    for a in tacq {
                        edges
                            .entry((h.id.clone(), a.clone()))
                            .or_insert((f.file, call.line));
                    }
                }
            }
        }
    }

    // Acquisition-order cycles: every edge on a cycle is reported at
    // the site that witnessed it, so each involved file gets a finding.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (u, v) in edges.keys() {
        adj.entry(u.as_str()).or_default().insert(v.as_str());
    }
    for ((u, v), &(file, line)) in &edges {
        if reachable(&adj, v, u) {
            out.push((
                file,
                finding(
                    line,
                    format!(
                        "lock-order cycle: `{v}` acquired while holding `{u}` here, but \
                         `{u}` is also acquired while `{v}` is held elsewhere — potential \
                         deadlock"
                    ),
                ),
            ));
        }
    }
    (out, edges)
}

fn finding(line: usize, message: String) -> RawFinding {
    RawFinding {
        line,
        rule: "D7",
        message,
    }
}

fn covers(s: &Site, line: usize, col: usize) -> bool {
    ((s.line, s.col) < (line, col)) && line <= s.span_end
}

fn reachable(adj: &BTreeMap<&str, BTreeSet<&str>>, from: &str, to: &str) -> bool {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut stack = vec![from];
    while let Some(n) = stack.pop() {
        if n == to {
            return true;
        }
        if !seen.insert(n) {
            continue;
        }
        if let Some(next) = adj.get(n) {
            stack.extend(next.iter().copied());
        }
    }
    false
}

/// Locks acquired by each fn *or any uniquely resolved callee*;
/// recursion is cut by returning the partial set (an
/// under-approximation, never a false positive).
fn transitive_acquires(graph: &CallGraph, sites: &[Vec<Site>]) -> Vec<BTreeSet<String>> {
    fn fill(
        i: usize,
        graph: &CallGraph,
        sites: &[Vec<Site>],
        acq: &mut [BTreeSet<String>],
        done: &mut [bool],
        on_stack: &mut Vec<usize>,
    ) {
        if done[i] || on_stack.contains(&i) {
            return;
        }
        on_stack.push(i);
        let mut own: BTreeSet<String> = sites[i].iter().map(|s| s.id.clone()).collect();
        for call in &graph.calls[i] {
            fill(call.callee, graph, sites, acq, done, on_stack);
            own.extend(acq[call.callee].iter().cloned());
        }
        on_stack.pop();
        acq[i] = own;
        done[i] = true;
    }
    let n = sites.len();
    let mut acq = vec![BTreeSet::new(); n];
    let mut done = vec![false; n];
    for i in 0..n {
        fill(i, graph, sites, &mut acq, &mut done, &mut Vec::new());
    }
    acq
}

/// Every resolved lock acquisition in a fn body, in (line, col) order.
fn fn_sites(files: &[SourceFile], table: &SymbolTable, f: &FnDef) -> Vec<Site> {
    let file = &files[f.file];
    let locals = local_locks(file, f);
    let mut out = Vec::new();
    for line_no in body_lines(table, f) {
        let line = file.scanned.line(line_no);
        for tok in LOCK_TOKENS {
            let mut from = 0;
            while let Some(p) = line[from..].find(tok) {
                let abs = from + p;
                from = abs + tok.len();
                let Some(id) = resolve_receiver(table, f, &locals, &line[..abs]) else {
                    continue;
                };
                let span_end = guard_span(file, f, line_no, tok);
                out.push(Site {
                    id,
                    line: line_no,
                    col: abs,
                    span_end,
                });
            }
        }
    }
    out.sort_by_key(|s| (s.line, s.col));
    out
}

/// `let`-declared lock bindings in the fn body: name → lock id.
fn local_locks(file: &SourceFile, f: &FnDef) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for st in &file.stmts {
        if st.first_line <= f.line || st.first_line > f.end_line {
            continue;
        }
        let Some(rest) = st.text.strip_prefix("let ") else {
            continue;
        };
        let rest = rest.strip_prefix("mut ").unwrap_or(rest);
        let name: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() || name == "_" {
            continue;
        }
        let (before_eq, after_eq) = match rest.split_once('=') {
            Some((b, a)) => (b, a),
            None => (rest, ""),
        };
        let is_lock = ["Mutex", "RwLock"]
            .iter()
            .any(|m| before_eq.contains(m) || after_eq.contains(&format!("{m}::new(")));
        if is_lock {
            out.insert(
                name.clone(),
                format!("{}::{}::{}", file.path, f.qual(), name),
            );
        }
    }
    out
}

/// Resolves the receiver chain ending just before a lock token:
/// `self.FIELD` through the impl type's lock fields, a bare name
/// through the fn's `let`-declared locks.
fn resolve_receiver(
    table: &SymbolTable,
    f: &FnDef,
    locals: &BTreeMap<String, String>,
    before: &str,
) -> Option<String> {
    let chain: String = before
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '.')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    let chain = chain.trim_matches('.');
    if let Some(field) = chain.strip_prefix("self.") {
        let ty = f.impl_type.as_deref()?;
        let st = table.struct_named(ty)?;
        let fd = st.fields.iter().find(|x| x.name == field)?;
        return fd.is_lock().then(|| format!("{ty}.{field}"));
    }
    if !chain.contains('.') {
        return locals.get(chain).cloned();
    }
    None
}

/// How long the guard produced at (`line_no`, token) is held.
fn guard_span(file: &SourceFile, f: &FnDef, line_no: usize, tok: &str) -> usize {
    let stmt = file
        .stmts
        .iter()
        .filter(|s| s.first_line <= line_no && line_no <= s.last_line)
        .find(|s| s.text.contains(tok));
    let Some(stmt) = stmt else {
        return line_no;
    };
    // A block header (`match m.lock() … {`, `if let Ok(g) = m.lock() {`)
    // keeps the scrutinee/binding alive for the whole block.
    if let Some(close) = stmt.body_close_line {
        return close.min(f.end_line);
    }
    let rest = match stmt.text.strip_prefix("let ") {
        Some(r) => r.strip_prefix("mut ").unwrap_or(r),
        None => return stmt.last_line, // temporary guard
    };
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() || name == "_" {
        return stmt.last_line;
    }
    // Innermost enclosing block within the fn, else the fn body.
    let close = file
        .stmts
        .iter()
        .filter(|h| {
            h.body_close_line.is_some_and(|c| c >= stmt.last_line)
                && h.first_line <= stmt.first_line
                && h.first_line >= f.line
                && !std::ptr::eq(*h, stmt)
        })
        .max_by_key(|h| h.first_line)
        .and_then(|h| h.body_close_line)
        .unwrap_or(f.end_line)
        .min(f.end_line);
    // An explicit `drop(NAME)` releases early.
    let drop_tok = format!("drop({name})");
    for l in stmt.last_line + 1..=close {
        if file.scanned.line(l).contains(&drop_tok) {
            return l;
        }
    }
    close
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;

    fn run(src: &str) -> Vec<(usize, String)> {
        let files = vec![SourceFile::prepare("crates/core/src/planted.rs", src)];
        let table = SymbolTable::build(&files);
        let graph = CallGraph::build(&files, &table);
        d7(&files, &table, &graph)
            .into_iter()
            .map(|(_, f)| (f.line, f.message))
            .collect()
    }

    const HEADER: &str =
        "use std::sync::Mutex;\npub struct S {\n    a: Mutex<u32>,\n    b: Mutex<u32>,\n}\n";

    #[test]
    fn sequential_guards_in_one_block_are_a_double_lock() {
        let src = format!(
            "{HEADER}impl S {{\n    fn f(&self) {{\n        let g1 = self.a.lock().unwrap();\n        \
             let g2 = self.a.lock().unwrap();\n        drop(g1);\n        drop(g2);\n    }}\n}}\n"
        );
        let got = run(&src);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].0, 9);
        assert!(got[0].1.contains("double lock"));
    }

    #[test]
    fn dropped_guard_clears_the_hold() {
        let src = format!(
            "{HEADER}impl S {{\n    fn f(&self) {{\n        let g1 = self.a.lock().unwrap();\n        \
             drop(g1);\n        let g2 = self.a.lock().unwrap();\n        drop(g2);\n    }}\n}}\n"
        );
        assert!(run(&src).is_empty());
    }

    #[test]
    fn temporaries_do_not_overlap() {
        let src = format!(
            "{HEADER}impl S {{\n    fn f(&self) {{\n        *self.a.lock().unwrap() += 1;\n        \
             *self.a.lock().unwrap() += 1;\n    }}\n}}\n"
        );
        assert!(run(&src).is_empty());
    }

    #[test]
    fn opposite_orders_make_a_cycle() {
        let src = format!(
            "{HEADER}impl S {{\n    fn f(&self) {{\n        let g = self.a.lock().unwrap();\n        \
             let h = self.b.lock().unwrap();\n        drop(h);\n        drop(g);\n    }}\n    \
             fn g(&self) {{\n        let g = self.b.lock().unwrap();\n        \
             let h = self.a.lock().unwrap();\n        drop(h);\n        drop(g);\n    }}\n}}\n"
        );
        let got = run(&src);
        let cycles: Vec<_> = got.iter().filter(|(_, m)| m.contains("cycle")).collect();
        assert_eq!(cycles.len(), 2, "both witnessing sites report: {got:?}");
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = format!(
            "{HEADER}impl S {{\n    fn f(&self) {{\n        let g = self.a.lock().unwrap();\n        \
             let h = self.b.lock().unwrap();\n        drop(h);\n        drop(g);\n    }}\n    \
             fn g(&self) {{\n        let g = self.a.lock().unwrap();\n        \
             let h = self.b.lock().unwrap();\n        drop(h);\n        drop(g);\n    }}\n}}\n"
        );
        assert!(run(&src).is_empty());
    }

    #[test]
    fn double_lock_through_a_call() {
        let src = format!(
            "{HEADER}impl S {{\n    fn leaf(&self) {{\n        *self.a.lock().unwrap() += 1;\n    }}\n    \
             fn caller(&self) {{\n        let g = self.a.lock().unwrap();\n        \
             self.leaf();\n        drop(g);\n    }}\n}}\n"
        );
        let got = run(&src);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].1.contains("double lock via call"), "{got:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let src = format!(
            "{HEADER}#[cfg(test)]\nmod tests {{\n    use super::*;\n    fn f(s: &S) {{\n        \
             let g1 = s.a.lock().unwrap();\n        let g2 = s.a.lock().unwrap();\n        \
             drop(g1);\n        drop(g2);\n    }}\n}}\n"
        );
        assert!(run(&src).is_empty());
    }
}
