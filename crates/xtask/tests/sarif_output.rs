//! SARIF 2.1.0 output validation and round-trip against `--format json`.
//!
//! The container has no network and no external schema validator, so the
//! test carries its own strict JSON parser and checks the emitted
//! document against the SARIF 2.1.0 *required-property* subset by hand:
//! version/runs at the root, tool.driver.name per run, message + location
//! per result. The finding set must round-trip `--format json` exactly —
//! same (rule, file, line) tuples — so code-scanning uploads and the
//! machine-read gate can never disagree.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

// ---------------------------------------------------------------------------
// A deliberately strict, dependency-free JSON parser (test-only).
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn req(&self, key: &str) -> &Json {
        self.get(key).unwrap_or_else(|| panic!("required property `{key}` missing in {self:?}"))
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected string, got {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("expected array, got {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("expected number, got {other:?}"),
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        assert!(
            self.i < self.b.len() && self.b[self.i] == c,
            "expected `{}` at byte {} (found `{}`)",
            c as char,
            self.i,
            self.b.get(self.i).map(|&b| b as char).unwrap_or('∅')
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.b[self.i] {
            b'{' => {
                self.eat(b'{');
                let mut kv = Vec::new();
                self.ws();
                if self.b[self.i] == b'}' {
                    self.eat(b'}');
                    return Json::Obj(kv);
                }
                loop {
                    self.ws();
                    let k = self.string();
                    self.ws();
                    self.eat(b':');
                    let v = self.value();
                    kv.push((k, v));
                    self.ws();
                    if self.b[self.i] == b',' {
                        self.eat(b',');
                    } else {
                        self.eat(b'}');
                        return Json::Obj(kv);
                    }
                }
            }
            b'[' => {
                self.eat(b'[');
                let mut a = Vec::new();
                self.ws();
                if self.b[self.i] == b']' {
                    self.eat(b']');
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    if self.b[self.i] == b',' {
                        self.eat(b',');
                    } else {
                        self.eat(b']');
                        return Json::Arr(a);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => {
                assert_eq!(&self.b[self.i..self.i + 4], b"true");
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                assert_eq!(&self.b[self.i..self.i + 5], b"false");
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                assert_eq!(&self.b[self.i..self.i + 4], b"null");
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.b.len()
                    && matches!(self.b[self.i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.b[start..self.i]).expect("utf8 number");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number `{text}`")))
            }
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut s = String::new();
        loop {
            match self.b[self.i] {
                b'"' => {
                    self.i += 1;
                    return s;
                }
                b'\\' => {
                    self.i += 1;
                    match self.b[self.i] {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.b[self.i + 1..self.i + 5])
                                .expect("utf8 escape");
                            let code = u32::from_str_radix(hex, 16).expect("hex escape");
                            s.push(char::from_u32(code).expect("scalar escape"));
                            self.i += 4;
                        }
                        other => panic!("bad escape `\\{}`", other as char),
                    }
                    self.i += 1;
                }
                _ => {
                    // Consume one UTF-8 scalar (multi-byte sequences intact).
                    let start = self.i;
                    self.i += 1;
                    while self.i < self.b.len() && (self.b[self.i] & 0b1100_0000) == 0b1000_0000 {
                        self.i += 1;
                    }
                    s.push_str(std::str::from_utf8(&self.b[start..self.i]).expect("utf8"));
                }
            }
        }
    }
}

fn parse_json(text: &str) -> Json {
    let mut p = Parser { b: text.as_bytes(), i: 0 };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, p.b.len(), "trailing bytes after JSON document");
    v
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn audit(extra: &[&str]) -> (Option<i32>, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_xtask"));
    cmd.args(["audit", "--root"]).arg(fixture("bad"));
    cmd.args(extra);
    let out = cmd.output().expect("binary runs");
    (out.status.code(), String::from_utf8(out.stdout).expect("utf8 stdout"))
}

/// Validate `doc` against the SARIF 2.1.0 required-property subset and
/// return the `(ruleId, uri, startLine)` tuple per result.
fn validate_sarif(doc: &Json) -> Vec<(String, String, u64)> {
    assert_eq!(doc.req("version").str(), "2.1.0");
    assert!(
        doc.req("$schema").str().ends_with("sarif-schema-2.1.0.json"),
        "schema URI must pin 2.1.0"
    );
    let runs = doc.req("runs").arr();
    assert_eq!(runs.len(), 1);
    let run = &runs[0];
    let driver = run.req("tool").req("driver");
    assert!(!driver.req("name").str().is_empty());
    let rules = driver.req("rules").arr();
    for rule in rules {
        assert!(!rule.req("id").str().is_empty());
        assert!(!rule.req("shortDescription").req("text").str().is_empty());
        assert!(!rule.req("fullDescription").req("text").str().is_empty());
    }
    let mut tuples = Vec::new();
    for result in run.req("results").arr() {
        assert!(!result.req("message").req("text").str().is_empty());
        let rule_id = result.req("ruleId").str().to_string();
        let index = result.req("ruleIndex").num() as usize;
        assert_eq!(
            rules[index].req("id").str(),
            rule_id,
            "ruleIndex must point at the matching driver rule"
        );
        let locations = result.req("locations").arr();
        assert_eq!(locations.len(), 1);
        let phys = locations[0].req("physicalLocation");
        let uri = phys.req("artifactLocation").req("uri").str().to_string();
        assert_eq!(phys.req("artifactLocation").req("uriBaseId").str(), "SRCROOT");
        let line = phys.req("region").req("startLine").num();
        assert!(line >= 1.0 && line.fract() == 0.0, "startLine must be a positive integer");
        tuples.push((rule_id, uri, line as u64));
    }
    tuples
}

#[test]
fn sarif_output_is_valid_2_1_0() {
    let (code, stdout) = audit(&["--format", "sarif"]);
    assert_eq!(code, Some(1), "bad fixture still fails in SARIF mode");
    let doc = parse_json(&stdout);
    let tuples = validate_sarif(&doc);
    assert!(!tuples.is_empty(), "bad fixture must produce results");
    // Driver metadata declares every registry rule, in registry order.
    let ids: Vec<String> = doc.req("runs").arr()[0]
        .req("tool")
        .req("driver")
        .req("rules")
        .arr()
        .iter()
        .map(|r| r.req("id").str().to_string())
        .collect();
    let expect: Vec<String> =
        xtask::docs::RULE_DOCS.iter().map(|d| d.name.to_string()).collect();
    assert_eq!(ids, expect);
}

#[test]
fn sarif_round_trips_the_json_finding_set() {
    let (_, sarif_out) = audit(&["--format", "sarif"]);
    let (_, json_out) = audit(&["--format", "json"]);
    let sarif_set: BTreeSet<(String, String, u64)> =
        validate_sarif(&parse_json(&sarif_out)).into_iter().collect();
    let json_doc = parse_json(&json_out);
    let json_set: BTreeSet<(String, String, u64)> = json_doc
        .req("violations")
        .arr()
        .iter()
        .map(|v| {
            (
                v.req("rule").str().to_string(),
                v.req("file").str().to_string(),
                v.req("line").num() as u64,
            )
        })
        .collect();
    assert_eq!(sarif_set, json_set, "SARIF and JSON must report identical findings");
    assert_eq!(sarif_set.len(), validate_sarif(&parse_json(&sarif_out)).len(), "no dup collapse");
}
