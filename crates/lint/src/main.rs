//! CLI for the workspace's project-specific source linter.
//!
//! ```text
//! cargo run -p gat-lint [-- --json] [--root PATH] [--rules R8,R12] [--list-rules]
//! ```
//!
//! Walks `crates/*/src` under the workspace root (default: the current
//! directory), applies the rule catalog (see DESIGN.md §10), and
//! prints one `file:line: rule: message` line per finding — or, with
//! `--json`, the observability layer's JSONL grammar (`lint_finding`
//! objects plus one `lint_summary` trailer).
//!
//! `--rules R8,R12` keeps only the named rules' findings (pragma
//! findings are always kept — a broken suppression comment is a problem
//! regardless of which rules you asked about). `--list-rules` prints the
//! catalog, one line per rule, and exits 0.
//!
//! Exit codes follow the workspace convention: 0 clean, 1 I/O failure,
//! 2 bad usage, 3 findings reported.

use gat_lint::report::ALL_RULES;
use gat_lint::RuleId;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: gat-lint [--json] [--root PATH] [--rules R8,R12,..] [--list-rules]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut root = PathBuf::from(".");
    let mut only: Option<Vec<RuleId>> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("gat-lint: --root needs a path\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--rules" => match it.next() {
                Some(spec) => {
                    let mut wanted = Vec::new();
                    for name in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                        match RuleId::from_pragma_name(name) {
                            Some(r) => wanted.push(r),
                            None => {
                                eprintln!("gat-lint: unknown rule id {name:?} (try --list-rules)");
                                return ExitCode::from(2);
                            }
                        }
                    }
                    if wanted.is_empty() {
                        eprintln!("gat-lint: --rules needs at least one rule id\n{USAGE}");
                        return ExitCode::from(2);
                    }
                    only = Some(wanted);
                }
                None => {
                    eprintln!("gat-lint: --rules needs a comma-separated id list\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--list-rules" => {
                for r in ALL_RULES {
                    println!("{:<6} {}", r.as_str(), r.summary());
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("gat-lint: unknown argument {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let (files_scanned, mut findings) = match gat_lint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("gat-lint: io error: {e}");
            return ExitCode::from(1);
        }
    };
    if let Some(only) = &only {
        findings.retain(|f| f.rule == RuleId::Pragma || only.contains(&f.rule));
    }

    if json {
        let mut out = String::new();
        for f in &findings {
            out.push_str(&f.to_json());
            out.push('\n');
        }
        out.push_str(&gat_lint::summary_json(files_scanned, &findings));
        out.push('\n');
        print!("{out}");
    } else {
        for f in &findings {
            println!("{}", f.render_text());
        }
        if findings.is_empty() {
            println!("gat-lint: clean ({files_scanned} files scanned)");
        } else {
            println!(
                "gat-lint: {} finding(s) in {files_scanned} files scanned",
                findings.len()
            );
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    }
}
