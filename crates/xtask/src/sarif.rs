//! SARIF 2.1.0 output for `cargo xtask audit --format sarif`.
//!
//! Emits the minimal valid subset GitHub code scanning consumes: one run,
//! one driver with per-rule metadata from the [`crate::docs`] registry,
//! and one `result` per finding with a physical location. Results carry
//! no fingerprints (the upload action computes its own) and no
//! suppressions (an accepted site is `audit:allow`-marked and never
//! reported). The finding set round-trips `--format json` exactly: same
//! (rule, file, line) tuples.

use crate::docs::RULE_DOCS;
use crate::{json_escape, AuditReport};

/// Render `report` as a SARIF 2.1.0 document.
pub fn to_sarif(report: &AuditReport) -> String {
    let mut s = String::from(
        "{\"$schema\":\
         \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/\
         Schemata/sarif-schema-2.1.0.json\",\
         \"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{\
         \"name\":\"obscor-audit\",\
         \"informationUri\":\"https://example.invalid/obscor/DESIGN.md\",\
         \"version\":\"1.0.0\",\"rules\":[",
    );
    for (i, d) in RULE_DOCS.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"id\":\"{}\",\"shortDescription\":{{\"text\":\"rejects {}\"}},\
             \"fullDescription\":{{\"text\":\"{}\"}},\
             \"defaultConfiguration\":{{\"level\":\"error\"}}}}",
            json_escape(d.name),
            json_escape(d.short),
            json_escape(d.long),
        ));
    }
    s.push_str("]}},\"results\":[");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let rule_index = RULE_DOCS.iter().position(|r| r.name == d.rule);
        s.push_str(&format!(
            "{{\"ruleId\":\"{}\",{}\"level\":\"error\",\
             \"message\":{{\"text\":\"{}\"}},\
             \"locations\":[{{\"physicalLocation\":{{\
             \"artifactLocation\":{{\"uri\":\"{}\",\"uriBaseId\":\"SRCROOT\"}},\
             \"region\":{{\"startLine\":{}}}}}}}]}}",
            json_escape(d.rule),
            rule_index.map(|r| format!("\"ruleIndex\":{r},")).unwrap_or_default(),
            json_escape(&d.message),
            json_escape(&d.file),
            d.line,
        ));
    }
    s.push_str(
        "],\"columnKind\":\"utf16CodeUnits\",\
         \"originalUriBaseIds\":{\"SRCROOT\":{\"uri\":\"file:///\"}}}]}",
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Diagnostic;

    fn report() -> AuditReport {
        AuditReport {
            diagnostics: vec![
                Diagnostic {
                    rule: "panic-path",
                    file: "crates/core/src/lib.rs".into(),
                    line: 7,
                    message: "`unwrap()` in panic-free \"library\" code".into(),
                },
                Diagnostic {
                    rule: "nondet-reach",
                    file: "crates/cli/src/emit.rs".into(),
                    line: 12,
                    message: "hash iteration reaches the codec".into(),
                },
            ],
            files_scanned: 2,
            call_graph: Default::default(),
        }
    }

    #[test]
    fn sarif_has_required_structure() {
        let s = to_sarif(&report());
        assert!(s.contains("\"version\":\"2.1.0\""));
        assert!(s.contains("sarif-schema-2.1.0.json"));
        assert!(s.contains("\"name\":\"obscor-audit\""));
        assert!(s.contains("\"ruleId\":\"panic-path\""));
        assert!(s.contains("\"startLine\":7"));
        // Message quotes are escaped, not raw.
        assert!(s.contains("panic-free \\\"library\\\" code"));
        // Every engine rule is declared in driver metadata.
        for d in RULE_DOCS {
            assert!(s.contains(&format!("\"id\":\"{}\"", d.name)), "{} missing", d.name);
        }
    }
}
