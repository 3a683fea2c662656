//! Golden gate: the workspace stays clean under its own static
//! analyzer. Runs the `audit` library in-process over the real tree and
//! fails on any unsuppressed finding, so a hash-order leak, stray
//! nondeterminism source, naked `unsafe`, unjustified panic site, or
//! missing crate-root lint cannot land without either a fix or a
//! reasoned `// audit: allow(...)` that shows up in review. A stale
//! suppression, or a D9 target enum the tree no longer declares, fails
//! too.

use audit::{audit_workspace, find_workspace_root};

#[test]
fn workspace_has_zero_unsuppressed_findings() {
    let root = find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root with Cargo.toml");
    let report = audit_workspace(&root).expect("audit scan succeeds");
    assert!(report.files_scanned > 50, "scan saw the whole tree");
    let open: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        open.is_empty(),
        "audit found {} unsuppressed finding(s):\n{}",
        open.len(),
        open.join("\n")
    );
}

#[test]
fn no_unsafe_anywhere() {
    let root = find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root with Cargo.toml");
    let report = audit_workspace(&root).expect("audit scan succeeds");
    let total: usize = report.unsafe_census.values().sum();
    assert_eq!(total, 0, "census: {:?}", report.unsafe_census);
}

#[test]
fn every_suppression_is_reasoned_and_used() {
    let root = find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root with Cargo.toml");
    let report = audit_workspace(&root).expect("audit scan succeeds");
    for s in &report.suppressions {
        assert!(
            !s.reason.trim().is_empty(),
            "{}:{} allow({}) has no reason",
            s.file,
            s.line,
            s.rule
        );
        assert!(
            s.used,
            "{}:{} allow({}) suppresses nothing — stale, remove it",
            s.file, s.line, s.rule
        );
    }
}

#[test]
fn every_d9_target_enum_is_declared() {
    let root = find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root with Cargo.toml");
    let report = audit_workspace(&root).expect("audit scan succeeds");
    assert!(
        report.d9_unresolved.is_empty(),
        "D9 names enum(s) {:?} that no single declaration resolves — stale, remove them",
        report.d9_unresolved
    );
}
