//! The machine-readable audit report (`AUDIT.json`).
//!
//! The report is fully deterministic — sorted keys, sorted findings,
//! no timestamps — so the committed `AUDIT.json` only changes when
//! the audited facts change, and drift is reviewable PR-over-PR with
//! a plain diff. JSON is emitted by a small hand-rolled writer (the
//! registry is unreachable, so no serde).

use std::collections::BTreeMap;

use crate::{FileAudit, Finding};

/// Per-rule firing counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleCount {
    /// Unsuppressed findings (must be 0 for a clean tree).
    pub open: usize,
    /// Findings covered by a reasoned suppression.
    pub suppressed: usize,
}

/// One suppression marker, with whether any finding actually used it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuppressionRecord {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the marker.
    pub line: usize,
    /// Rule id it names.
    pub rule: String,
    /// Justification text.
    pub reason: String,
    /// `allow-file` vs line-scoped `allow`.
    pub file_wide: bool,
    /// Whether a finding matched it (an unused suppression is stale
    /// and should be removed — visible in the report, not fatal).
    pub used: bool,
}

/// The aggregated workspace audit.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Unsuppressed findings, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Counts per rule id (all of D1–D5 present even when zero).
    pub rule_counts: BTreeMap<String, RuleCount>,
    /// `unsafe` sites per crate (every scanned crate present).
    pub unsafe_census: BTreeMap<String, usize>,
    /// Every suppression marker in the tree.
    pub suppressions: Vec<SuppressionRecord>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// D9 target enums with no single declaration in the scanned files
    /// (stale names — visible here, not fatal, like unused
    /// suppressions).
    pub d9_unresolved: Vec<String>,
}

impl Report {
    /// Folds one file's audit into the totals.
    pub fn add_file(&mut self, crate_name: &str, fa: &FileAudit) {
        for id in crate::RULE_IDS {
            self.rule_counts.entry(id.to_string()).or_default();
        }
        for f in &fa.findings {
            self.rule_counts.entry(f.rule.clone()).or_default().open += 1;
            self.findings.push(f.clone());
        }
        for f in &fa.suppressed {
            self.rule_counts
                .entry(f.rule.clone())
                .or_default()
                .suppressed += 1;
        }
        *self
            .unsafe_census
            .entry(crate_name.to_string())
            .or_insert(0) += fa.unsafe_count;
        self.suppressions.extend(fa.suppressions.iter().cloned());
        self.findings.sort();
        self.suppressions
            .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    }

    /// Whether the tree is clean (no unsuppressed findings).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Serializes the report as pretty-printed, key-sorted JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));

        s.push_str("  \"rules\": {\n");
        let rules: Vec<String> = self
            .rule_counts
            .iter()
            .map(|(id, c)| {
                format!(
                    "    {}: {{\"open\": {}, \"suppressed\": {}}}",
                    json_str(id),
                    c.open,
                    c.suppressed
                )
            })
            .collect();
        s.push_str(&rules.join(",\n"));
        s.push_str("\n  },\n");

        s.push_str("  \"unsafe_census\": {\n");
        let census: Vec<String> = self
            .unsafe_census
            .iter()
            .map(|(k, v)| format!("    {}: {}", json_str(k), v))
            .collect();
        s.push_str(&census.join(",\n"));
        s.push_str("\n  },\n");

        s.push_str("  \"suppressions\": [\n");
        let sups: Vec<String> = self
            .suppressions
            .iter()
            .map(|x| {
                format!(
                    "    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"scope\": {}, \
                     \"used\": {}, \"reason\": {}}}",
                    json_str(&x.file),
                    x.line,
                    json_str(&x.rule),
                    json_str(if x.file_wide { "file" } else { "line" }),
                    x.used,
                    json_str(&x.reason)
                )
            })
            .collect();
        s.push_str(&sups.join(",\n"));
        s.push_str(if self.suppressions.is_empty() {
            "  ],\n"
        } else {
            "\n  ],\n"
        });

        s.push_str("  \"findings\": [\n");
        let fs: Vec<String> = self
            .findings
            .iter()
            .map(|f| {
                format!(
                    "    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
                    json_str(&f.path),
                    f.line,
                    json_str(&f.rule),
                    json_str(&f.message)
                )
            })
            .collect();
        s.push_str(&fs.join(",\n"));
        s.push_str(if self.findings.is_empty() {
            "  ]\n"
        } else {
            "\n  ]\n"
        });
        s.push_str("}\n");
        s
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn empty_report_is_clean_and_serializes() {
        let r = Report::default();
        assert!(r.is_clean());
        let j = r.to_json();
        assert!(j.contains("\"findings\": ["));
        assert!(j.ends_with("}\n"));
    }
}
