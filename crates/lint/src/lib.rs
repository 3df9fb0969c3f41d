//! `gat-lint` — the workspace's project-specific source rules.
//!
//! The simulator's headline guarantee is byte-identical output across
//! thread counts, reruns, and fault replays. The golden snapshots catch a
//! nondeterminism bug *after* it ships; static checks reject the usual
//! sources at review time. Clippy carries the generic ones (R1–R4, R9,
//! R11: see `clippy.toml` and DESIGN.md §10); this linter keeps the rules
//! clippy cannot express:
//!
//! | rule | forbids                                                    |
//! |------|------------------------------------------------------------|
//! | R5   | NaN-unsafe `partial_cmp().unwrap()` / float sorts in sim-state crates |
//! | R6   | bench `--flag`s absent from README.md; `GAT_*` knobs absent from DESIGN.md |
//! | R8   | per-tick heap allocation (`Vec::new`, `vec!`, `Box::new`, `.collect::<Vec<..>>()`) in tick-path modules |
//! | R12  | expressions mixing `Cycle`-domain values with wall-clock milliseconds in sim-state crates |
//!
//! Every rule is a token rule over one file's comment-free token stream
//! ([`lexer`]); R6 additionally cross-checks the docs.
//!
//! Findings are suppressible with a justified pragma —
//! `// gat-lint: allow(R8, "why")` (line scope) or `allow-file` — and a
//! pragma that suppresses nothing is itself an error, so stale
//! exemptions cannot linger. See DESIGN.md §10 for the full contract.

pub mod lexer;
pub mod policy;
pub mod report;
pub mod rules;

pub use report::{summary_json, Finding, RuleId};

use rules::FileLint;
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

/// An in-memory source file (workspace-relative path + contents). The
/// whole analysis runs over these, so tests can lint synthetic trees.
#[derive(Debug, Clone)]
pub struct SourceFile {
    pub path: String,
    pub text: String,
}

/// Lint a set of sources against the given documentation contents.
/// Findings come back sorted by (file, line, rule).
pub fn lint_sources(files: &[SourceFile], readme: &str, design: &str) -> Vec<Finding> {
    let mut findings: Vec<Finding> = Vec::new();
    for f in files {
        let mut fl = rules::lint_file(&f.path, &f.text);
        let r6 = check_docs(&f.path, &fl, readme, design);
        findings.extend(rules::suppress(r6, &mut fl.pragmas));
        findings.append(&mut fl.findings);
        for p in &fl.pragmas {
            if !p.used {
                findings.push(Finding {
                    rule: RuleId::Pragma,
                    file: f.path.clone(),
                    line: p.line,
                    message: format!(
                        "unused pragma: no {} finding here to suppress (reason was: {:?})",
                        p.rule.as_str(),
                        p.reason
                    ),
                });
            }
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// Rule R6 for one file: every `--flag` a bench binary parses must be
/// documented in README.md; every `GAT_*` knob mentioned in code must be
/// documented in DESIGN.md. One finding per (file, name).
fn check_docs(path: &str, fl: &FileLint, readme: &str, design: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for (flag, line) in &fl.flags {
        if seen.insert(flag) && !doc_mentions(readme, flag, flag_continues) {
            out.push(Finding {
                rule: RuleId::R6,
                file: path.into(),
                line: *line,
                message: format!("flag \"{flag}\" is parsed here but not documented in README.md"),
            });
        }
    }
    let mut seen_env: BTreeSet<&str> = BTreeSet::new();
    for (var, line) in &fl.env_vars {
        if seen_env.insert(var) && !doc_mentions(design, var, knob_continues) {
            out.push(Finding {
                rule: RuleId::R6,
                file: path.into(),
                line: *line,
                message: format!(
                    "environment knob \"{var}\" is referenced here but not documented in DESIGN.md"
                ),
            });
        }
    }
    out
}

/// Would `c` extend a `--flag` word? (so `--out` is not satisfied by a
/// README that only mentions `--output`).
fn flag_continues(c: char) -> bool {
    c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'
}

/// Would `c` extend a `GAT_*` knob name?
fn knob_continues(c: char) -> bool {
    c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'
}

/// Does `doc` mention `name` as a complete word (per the continuation
/// class)?
fn doc_mentions(doc: &str, name: &str, continues: fn(char) -> bool) -> bool {
    let mut start = 0usize;
    while let Some(pos) = doc[start..].find(name) {
        let end = start + pos + name.len();
        match doc[end..].chars().next() {
            Some(c) if continues(c) => start += pos + 1,
            _ => return true,
        }
    }
    false
}

/// Scan the workspace rooted at `root`: lint every `crates/*/src/**/*.rs`
/// against `README.md` and `DESIGN.md`. Returns (files scanned, findings).
pub fn lint_workspace(root: &Path) -> io::Result<(usize, Vec<Finding>)> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("{}: no crates/ directory (wrong --root?)", root.display()),
        ));
    }
    let mut files = Vec::new();
    for rel in rs_files(root, "crates")? {
        // Classification decides whether the file matters; reading only
        // what we lint keeps the scan fast on big checkouts.
        if policy::classify(&rel) == policy::FileClass::Skip {
            continue;
        }
        files.push(SourceFile {
            text: std::fs::read_to_string(root.join(&rel))?,
            path: rel,
        });
    }
    let readme = std::fs::read_to_string(root.join("README.md"))?;
    let design = std::fs::read_to_string(root.join("DESIGN.md"))?;
    let n = files.len();
    Ok((n, lint_sources(&files, &readme, &design)))
}

/// Every `.rs` file under `root/dir`, as sorted `/`-separated paths
/// relative to `root`.
pub fn rs_files(root: &Path, dir: &str) -> io::Result<Vec<String>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    collect_rs_files(&root.join(dir), &mut paths)?;
    let rel = |p: &PathBuf| {
        let rel = p.strip_prefix(root).unwrap_or(p).to_string_lossy();
        rel.replace('\\', "/")
    };
    let mut out: Vec<String> = paths.iter().map(rel).collect();
    out.sort();
    Ok(out)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(src: &str) -> Vec<SourceFile> {
        vec![SourceFile {
            path: "crates/gpu/src/fixture.rs".into(),
            text: src.into(),
        }]
    }

    #[test]
    fn clean_source_yields_no_findings() {
        let f = sim("pub fn tick(now: u64) -> u64 { now + 1 }\n");
        assert!(lint_sources(&f, "", "").is_empty());
    }

    #[test]
    fn findings_are_sorted_and_carry_spans() {
        let f = sim(
            "pub fn f(a: f64, b: f64, t_cycles: u64, t_ms: u64) {\n    let _ = t_cycles < t_ms;\n    let _ = a.partial_cmp(&b).unwrap();\n}\n",
        );
        let fs = lint_sources(&f, "", "");
        assert_eq!(fs.len(), 2);
        assert_eq!((fs[0].rule, fs[0].line), (RuleId::R12, 2));
        assert_eq!((fs[1].rule, fs[1].line), (RuleId::R5, 3));
    }

    #[test]
    fn doc_mentions_respects_word_boundaries() {
        assert!(doc_mentions(
            "use `--scale N` here",
            "--scale",
            flag_continues
        ));
        assert!(!doc_mentions(
            "only --output is listed",
            "--out",
            flag_continues
        ));
        assert!(doc_mentions(
            "set GAT_FAULTS=spec",
            "GAT_FAULTS",
            knob_continues
        ));
        assert!(!doc_mentions(
            "GAT_FAULTS_EXTRA",
            "GAT_FAULTS",
            knob_continues
        ));
        // A prefix miss must not mask a later complete mention.
        assert!(doc_mentions(
            "--outward then --out.",
            "--out",
            flag_continues
        ));
    }
}
