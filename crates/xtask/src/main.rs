//! CLI entry point:
//! `cargo xtask audit [--format text|json|sarif] [--root <dir>]
//! [--explain <rule>]`.
//!
//! Exit codes: `0` clean, `1` any finding, `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::docs;

/// Static usage header; the rule list is appended from the doc registry
/// so it can never drift from the engine.
const USAGE_HEAD: &str = "usage: cargo xtask audit [options]

Options:
  --format <text|json|sarif>  output format (default text)
  --root <dir>                workspace root to audit (default .)
  --explain <rule>            print one rule's full documentation and exit

Runs the workspace static-analysis gate; any finding fails it. Rules:";

/// Full usage text: header plus the registry-driven rule list.
fn usage() -> String {
    let mut s = String::from(USAGE_HEAD);
    let width = docs::RULE_DOCS.iter().map(|d| d.name.len()).max().unwrap_or(0);
    for d in docs::RULE_DOCS {
        s.push_str(&format!("\n  {:width$}  {}", d.name, d.short));
    }
    s.push_str("\n\nAccept a single site with `// audit:allow(<rule>) — justification`.");
    s
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut format = Format::Text;
    let mut root: Option<PathBuf> = None;
    let mut explain: Option<String> = None;
    let mut command: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().as_deref() {
                Some("json") => format = Format::Json,
                Some("text") => format = Format::Text,
                Some("sarif") => format = Format::Sarif,
                other => {
                    let got = other.unwrap_or("<missing>");
                    eprintln!(
                        "error: --format expects `text`, `json`, or `sarif`, got `{got}`\n\n{}",
                        usage()
                    );
                    return ExitCode::from(2);
                }
            },
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("error: --root requires a directory argument\n\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--explain" => match it.next() {
                Some(r) => explain = Some(r),
                None => {
                    eprintln!("error: --explain requires a rule name\n\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            _ if command.is_none() && !arg.starts_with('-') => command = Some(arg),
            _ => {
                eprintln!("error: unrecognized argument `{arg}`\n\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }

    if command.as_deref() != Some("audit") {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    }
    if let Some(rule) = explain {
        return match docs::explain(&rule) {
            Some(text) => {
                println!("{text}");
                ExitCode::SUCCESS
            }
            None => {
                let known: Vec<&str> = docs::RULE_DOCS.iter().map(|d| d.name).collect();
                eprintln!("error: unknown rule `{rule}`; known rules: {}", known.join(", "));
                ExitCode::from(2)
            }
        };
    }

    // Default root: the workspace directory `cargo xtask` runs from (cargo
    // sets the cwd to the invocation directory; the alias lives in the
    // workspace `.cargo/config.toml`, so this is the workspace root).
    let root = root.unwrap_or_else(|| PathBuf::from("."));

    let report = match xtask::audit(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: audit failed: {e}");
            return ExitCode::from(2);
        }
    };

    match format {
        Format::Json => println!("{}", report.to_json()),
        Format::Sarif => println!("{}", xtask::sarif::to_sarif(&report)),
        Format::Text => {
            for d in &report.diagnostics {
                println!("{}", d.render());
            }
            if report.is_clean() {
                println!("audit: clean ({} files scanned)", report.files_scanned);
            } else {
                println!(
                    "audit: {} violation(s) ({} files scanned)",
                    report.diagnostics.len(),
                    report.files_scanned
                );
            }
        }
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Output format selector.
#[derive(Clone, Copy, PartialEq)]
enum Format {
    /// Human-readable `file:line: [rule] message` lines.
    Text,
    /// The audit's own JSON shape.
    Json,
    /// SARIF 2.1.0 for code-scanning upload.
    Sarif,
}
