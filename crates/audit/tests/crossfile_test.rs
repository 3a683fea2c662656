//! Cross-file rule fixtures: planted D7/D8/D9 violations scanned
//! through [`audit::audit_files`] (the same multi-file path the real
//! workspace scan takes), asserted down to the exact `rule@line` set.
//!
//! The planted lock inversion here is the static half of the two-layer
//! D7 story; `tests/lockorder_agreement.rs` at the workspace root
//! replays the same shape against the runtime sanitizer.

use audit::audit_files;

/// Scans the given `(path, source)` pairs and returns every open
/// finding as `(rule, line, path)`.
fn scan(sources: &[(&str, &str)]) -> Vec<(String, usize, String)> {
    let owned: Vec<(String, String)> = sources
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    audit_files(&owned)
        .findings
        .iter()
        .map(|f| (f.rule.clone(), f.line, f.path.clone()))
        .collect()
}

#[test]
fn d7_fires_on_double_lock_and_inversion() {
    let got = scan(&[(
        "crates/planted/src/locks.rs",
        include_str!("fixtures/d7_locks.rs"),
    )]);
    let d7: Vec<usize> = got
        .iter()
        .filter(|(r, _, _)| r == "D7")
        .map(|&(_, line, _)| line)
        .collect();
    assert_eq!(
        d7,
        vec![15, 21, 27],
        "double-lock@15, both inversion witnesses@21/27: {got:?}"
    );
    assert!(
        got.iter().all(|(r, _, _)| r == "D7"),
        "nothing but D7 fires on the lock fixture: {got:?}"
    );
}

#[test]
fn d7_messages_name_the_failure_modes() {
    let owned = vec![(
        "crates/planted/src/locks.rs".to_string(),
        include_str!("fixtures/d7_locks.rs").to_string(),
    )];
    let report = audit_files(&owned);
    let msg = |line: usize| -> String {
        report
            .findings
            .iter()
            .find(|f| f.line == line)
            .map(|f| f.message.clone())
            .unwrap_or_default()
    };
    assert!(msg(15).contains("still held"), "double-lock: {}", msg(15));
    assert!(msg(21).contains("cycle"), "inversion: {}", msg(21));
}

#[test]
fn d8_catches_cross_file_digest_drift() {
    let got = scan(&[
        (
            "crates/planted/src/outcome.rs",
            include_str!("fixtures/d8_outcome.rs"),
        ),
        (
            "crates/planted/src/digest.rs",
            include_str!("fixtures/d8_digest.rs"),
        ),
    ]);
    assert_eq!(
        got,
        vec![(
            "D8".to_string(),
            7,
            "crates/planted/src/outcome.rs".to_string()
        )],
        "exactly the unfolded `flags` field fires, at its declaration"
    );
}

#[test]
fn d9_catches_catch_all_and_missing_variant() {
    let got = scan(&[(
        "crates/planted/src/dispatch.rs",
        include_str!("fixtures/d9_match.rs"),
    )]);
    let d9: Vec<usize> = got
        .iter()
        .filter(|(r, _, _)| r == "D9")
        .map(|&(_, line, _)| line)
        .collect();
    assert_eq!(
        d9,
        vec![15, 20],
        "catch-all arm@15, variant-missing match header@20: {got:?}"
    );
    assert!(
        got.iter().all(|(r, _, _)| r == "D9"),
        "nothing but D9 fires on the match fixture: {got:?}"
    );
}

#[test]
fn cross_file_findings_are_suppressible_with_reasons() {
    let src = include_str!("fixtures/d9_match.rs").replace(
        "        _ => 0,",
        "        // audit: allow(D9, planted)\n        _ => 0,",
    );
    let got = scan(&[("crates/planted/src/dispatch.rs", &src)]);
    let d9: Vec<usize> = got
        .iter()
        .filter(|(r, _, _)| r == "D9")
        .map(|&(_, line, _)| line)
        .collect();
    assert_eq!(
        d9,
        vec![21],
        "the allowed catch-all is suppressed; the missing-variant match \
         (shifted one line by the marker) still fires: {got:?}"
    );
}
