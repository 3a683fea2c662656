//! `oassis-audit` — workspace determinism & safety static-analysis.
//!
//! Every correctness claim this repo makes (golden outcome digests,
//! bit-identical sim replays) rests on the engine being
//! deterministic. This crate enforces that invariant mechanically, as
//! nine named rules over the source tree:
//!
//! * **D1** — hash-order leaks: `HashMap`/`HashSet` iteration in
//!   `crates/{core,crowd,simtest}` must not feed ordered results
//!   unsorted.
//! * **D2** — nondeterminism sources: `SystemTime`, `Instant`,
//!   `thread_rng`, environment reads banned outside `crates/bench`
//!   and test code.
//! * **D3** — unsafe inventory: every `unsafe` needs `// SAFETY:`;
//!   a per-crate census is emitted.
//! * **D4** — panic surface: `unwrap`/`expect`/indexing in engine
//!   source under the audited path patterns needs `// PANIC-OK:`.
//! * **D5** — lint hygiene: crate roots carry the agreed
//!   `#![deny]`/`#![forbid]` set.
//! * **D6** — deprecated entry points route through `Oassis::run`.
//! * **D7** — lock discipline: acquisition-order cycles and double
//!   locks, propagated over the intra-repo call graph ([`locks`]).
//! * **D8** — digest coverage: every struct feeding a digest fn has
//!   all fields folded in, or each omission is justified.
//! * **D9** — wire-op exhaustiveness: `match`es over the wire/fault
//!   enums name every variant, no catch-all arms.
//!
//! D1–D6 are per-file lexical passes; D7–D9 are whole-repo semantic
//! passes over a symbol table ([`symbols`]) and name-resolved call
//! graph ([`callgraph`]) built from the same token stream. Exemptions
//! use the grepable grammar `// audit: allow(D1, reason)` /
//! `// audit: allow-file(D2, reason)` (see [`suppress`]); a reason is
//! mandatory. Findings print as `file:line rule message`; the binary
//! exits non-zero on any unsuppressed finding and writes a
//! machine-readable `AUDIT.json` so drift is diffable PR-over-PR.
//!
//! There is no `syn` (the registry is unreachable): the scanner is a
//! hand-rolled comment/string-aware token pass, like the vendored
//! shims. DESIGN.md §11 and §16 document each rule with before/after
//! examples and the known blind spots of the heuristics.

#![forbid(unsafe_code)]
#![deny(unused_must_use)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod lexer;
pub mod locks;
pub mod report;
pub mod rules;
pub mod scope;
pub mod segment;
pub mod suppress;
pub mod symbols;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use report::{Report, SuppressionRecord};
use rules::RawFinding;
use symbols::{SourceFile, SymbolTable};

/// One unsuppressed finding, ready to print as `file:line rule message`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Rule id (`D1`…`D9`, `SUP`).
    pub rule: String,
    /// Human-readable message.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{} {} {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// The known rule ids (used to validate suppression markers).
pub const RULE_IDS: [&str; 9] = ["D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8", "D9"];

/// The audit result of a single source file.
#[derive(Debug, Clone, Default)]
pub struct FileAudit {
    /// Findings not covered by any suppression.
    pub findings: Vec<Finding>,
    /// Findings covered by a suppression (kept for counting).
    pub suppressed: Vec<Finding>,
    /// Every suppression marker in the file, with use tracking.
    pub suppressions: Vec<SuppressionRecord>,
    /// `unsafe` sites for the census.
    pub unsafe_count: usize,
}

/// Audits one file's source text under its workspace-relative `path`.
///
/// This is the in-process API the single-file fixture tests use;
/// `crate_has_unsafe` (for D5's either/or) defaults to "this file
/// contains `unsafe`" when `None`. Only the per-file rules D1–D6 run
/// here — the cross-file rules D7–D9 need the whole file set and run
/// in [`audit_files`].
pub fn audit_source(path: &str, src: &str, crate_has_unsafe: Option<bool>) -> FileAudit {
    let file = SourceFile::prepare(path, src);
    let has_unsafe = crate_has_unsafe.unwrap_or_else(|| {
        file.scanned
            .code
            .iter()
            .any(|l| rules::contains_word(l, "unsafe"))
    });
    audit_prepared(&file, has_unsafe, &[])
}

/// The per-file half of the audit: runs D1–D6 on a prepared file,
/// merges in any cross-file findings attributed to it, and applies
/// the suppression grammar to the combined set.
fn audit_prepared(file: &SourceFile, crate_has_unsafe: bool, extra: &[RawFinding]) -> FileAudit {
    let scanned = &file.scanned;
    let scope = &file.scope;
    let stmts = &file.stmts;

    let mut raw = Vec::new();
    raw.extend(rules::d1(scope, stmts));
    raw.extend(rules::d2(scope, scanned));
    let (d3_findings, unsafe_sites) = rules::d3(scanned);
    raw.extend(d3_findings);
    raw.extend(rules::d4(scope, scanned));
    raw.extend(rules::d5(scope, scanned, crate_has_unsafe));
    raw.extend(rules::d6(scope, scanned));
    raw.extend(extra.iter().cloned());

    let sups = suppress::collect(scanned);
    let mut used = vec![false; sups.len()];

    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    for rf in raw {
        let f = Finding {
            path: scope.path.clone(),
            line: rf.line,
            rule: rf.rule.to_string(),
            message: rf.message,
        };
        match suppress::matches(&sups, scanned, rf.rule, rf.line) {
            Some(i) if !sups[i].reason.is_empty() => {
                used[i] = true;
                suppressed.push(f);
            }
            _ => findings.push(f),
        }
    }
    // Malformed suppressions are findings themselves: the grammar is
    // the audit trail.
    for s in &sups {
        if s.reason.is_empty() {
            findings.push(Finding {
                path: scope.path.clone(),
                line: s.line,
                rule: "SUP".to_string(),
                message: format!("suppression for {} is missing a reason string", s.rule),
            });
        } else if !RULE_IDS.contains(&s.rule.as_str()) {
            findings.push(Finding {
                path: scope.path.clone(),
                line: s.line,
                rule: "SUP".to_string(),
                message: format!("suppression names unknown rule `{}`", s.rule),
            });
        }
    }
    findings.sort();
    suppressed.sort();

    let suppressions = sups
        .iter()
        .zip(used)
        .map(|(s, u)| SuppressionRecord {
            file: scope.path.clone(),
            line: s.line,
            rule: s.rule.clone(),
            reason: s.reason.clone(),
            file_wide: s.file_wide,
            used: u,
        })
        .collect();

    FileAudit {
        findings,
        suppressed,
        suppressions,
        unsafe_count: unsafe_sites.len(),
    }
}

/// Audits a set of `(path, source)` pairs as one workspace: per-file
/// rules plus the cross-file D7–D9 passes, in input order on the
/// caller's thread.
///
/// This is the API both [`audit_workspace`] and the multi-file
/// fixture tests go through.
pub fn audit_files(sources: &[(String, String)]) -> Report {
    let prepared: Vec<SourceFile> = sources
        .iter()
        .map(|(path, src)| SourceFile::prepare(path, src))
        .collect();

    // Which crates contain `unsafe` at all (for D5's either/or).
    let mut crate_unsafe: BTreeMap<String, bool> = BTreeMap::new();
    for f in &prepared {
        let has = f
            .scanned
            .code
            .iter()
            .any(|l| rules::contains_word(l, "unsafe"));
        *crate_unsafe
            .entry(f.scope.crate_name.clone())
            .or_insert(false) |= has;
    }

    // Cross-file passes: they need the whole table.
    let table = SymbolTable::build(&prepared);
    let graph = callgraph::CallGraph::build(&prepared, &table);
    let mut extra: Vec<Vec<RawFinding>> = vec![Vec::new(); prepared.len()];
    for (fi, rf) in locks::d7(&prepared, &table, &graph)
        .into_iter()
        .chain(rules::d8(&prepared, &table))
        .chain(rules::d9(&prepared, &table))
    {
        extra[fi].push(rf);
    }

    let mut report = Report::default();
    for (f, extra) in prepared.iter().zip(&extra) {
        let has = *crate_unsafe.get(&f.scope.crate_name).unwrap_or(&false);
        report.add_file(&f.scope.crate_name, &audit_prepared(f, has, extra));
    }
    report.files_scanned = prepared.len();
    report
}

/// The statically derived lock acquisition-order edges for the whole
/// workspace, as sorted `(held, acquired)` lock-id pairs. The runtime
/// lock-order sanitizer's agreement test checks a sim run's observed
/// orders against these.
pub fn lock_order_edges(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let files = workspace_files(root)?;
    let mut prepared: Vec<SourceFile> = Vec::with_capacity(files.len());
    for rel in &files {
        prepared.push(SourceFile::prepare(
            rel,
            &std::fs::read_to_string(root.join(rel))?,
        ));
    }
    let table = SymbolTable::build(&prepared);
    let graph = callgraph::CallGraph::build(&prepared, &table);
    Ok(locks::order_edges(&prepared, &table, &graph))
}

/// Directories (workspace-relative) never scanned: build output, VCS
/// metadata, and the audit's own planted-violation fixtures.
const SKIP_DIRS: [&str; 3] = ["target", ".git", "crates/audit/tests/fixtures"];

/// Collects every `.rs` file under `root`, workspace-relative, sorted
/// (deterministic report order).
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let rel = rel_path(root, &path);
            if path.is_dir() {
                if SKIP_DIRS.contains(&rel.as_str()) || rel.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
                out.push(rel);
            }
        }
    }
    out.sort();
    Ok(out)
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Audits the whole workspace rooted at `root`.
pub fn audit_workspace(root: &Path) -> std::io::Result<Report> {
    let files = workspace_files(root)?;
    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for rel in &files {
        sources.push((rel.clone(), std::fs::read_to_string(root.join(rel))?));
    }
    Ok(audit_files(&sources))
}

/// Finds the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
