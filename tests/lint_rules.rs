//! Fixture suite for the determinism linter (DESIGN.md §10): passing and
//! failing cases per rule, the pragma machinery, and the capstone check
//! that the real tree is lint-clean.
//!
//! Fixtures are linted fully in memory via [`gat_lint::lint_sources`], so
//! the failing snippets never exist as workspace files (the linter would
//! otherwise flag its own test data).

use gat_lint::{lint_sources, lint_workspace, Finding, SourceFile};

/// Lint one synthetic sim-state file against empty docs.
fn lint_sim(src: &str) -> Vec<Finding> {
    let files = vec![SourceFile {
        path: "crates/cache/src/fixture.rs".into(),
        text: src.into(),
    }];
    lint_sources(&files, "", "")
}

fn rules(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule.as_str()).collect()
}

// --- R1: std hash collections -----------------------------------------

#[test]
fn r1_flags_std_hash_collections() {
    // Same line + same rule dedupes to one actionable finding.
    let f = lint_sim("use std::collections::{HashMap, HashSet};\n");
    assert_eq!(rules(&f), vec!["R1"]);
    assert_eq!(f[0].line, 1);
    assert!(f[0].message.contains("HashMap"));

    let f = lint_sim("pub struct S {\n    map: HashMap<u64, u64>,\n    set: HashSet<u64>,\n}\n");
    assert_eq!(rules(&f), vec!["R1", "R1"]);
    assert_eq!((f[0].line, f[1].line), (2, 3));
}

#[test]
fn r1_passes_deterministic_maps() {
    let f = lint_sim(
        "use gat_sim::hashing::{FastMap, FastSet};\nuse std::collections::{BTreeMap, VecDeque};\npub fn f(m: &FastMap<u64, u32>, o: &BTreeMap<u64, u32>) {}\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

// --- R2: ambient nondeterminism ---------------------------------------

#[test]
fn r2_flags_wall_clocks_threads_env_and_os_rng() {
    let cases = [
        "pub fn t() { let _ = std::time::Instant::now(); }",
        "pub fn t() { let _ = std::time::SystemTime::now(); }",
        "pub fn t() { std::thread::sleep(core::time::Duration::ZERO); }",
        "pub fn t() { let _ = std::env::var(\"HOME\"); }",
        "pub fn t() { let mut r = thread_rng(); }",
    ];
    for src in cases {
        let f = lint_sim(src);
        assert_eq!(rules(&f), vec!["R2"], "fixture: {src}");
    }
}

#[test]
fn r2_passes_cycle_timeline_code() {
    let f = lint_sim("pub fn tick(now: u64, horizon: u64) -> u64 { now.min(horizon) + 1 }\n");
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn r2_allows_env_reads_in_the_knob_module_only() {
    let knobs = SourceFile {
        path: "crates/sim/src/knobs.rs".into(),
        text: "pub fn k() -> bool { std::env::var_os(\"X\").is_some() }\n".into(),
    };
    assert!(lint_sources(std::slice::from_ref(&knobs), "", "").is_empty());
    let elsewhere = SourceFile {
        path: "crates/dram/src/knockoff.rs".into(),
        ..knobs
    };
    assert_eq!(rules(&lint_sources(&[elsewhere], "", "")), vec!["R2"]);
}

// --- R3: RNG discipline ------------------------------------------------

#[test]
fn r3_flags_rng_construction_and_forking_outside_approved_modules() {
    let f = lint_sim("pub fn f() { let r = SimRng::new(7); }");
    assert_eq!(rules(&f), vec!["R3"]);
    let f = lint_sim("pub fn f(root: &SimRng) { let _ = root.fork(\"mine\"); }");
    assert_eq!(rules(&f), vec!["R3"]);
}

#[test]
fn r3_passes_handed_in_streams_and_approved_modules() {
    // Using a stream you were handed is the sanctioned pattern.
    let f = lint_sim("pub fn f(rng: &mut SimRng) -> u64 { rng.next_u64() }\n");
    assert!(f.is_empty(), "{f:?}");
    // The system constructor owns the root RNG.
    let sys = SourceFile {
        path: "crates/hetero/src/system.rs".into(),
        text: "pub fn root(seed: u64) -> SimRng { SimRng::new(seed).fork(\"gpu\") }\n".into(),
    };
    assert!(lint_sources(&[sys], "", "").is_empty());
}

// --- R4: printing from library code -----------------------------------

#[test]
fn r4_flags_direct_printing() {
    let f = lint_sim("pub fn f() { println!(\"debug\"); eprintln!(\"oops\"); }");
    assert_eq!(rules(&f), vec!["R4"]); // same line: deduped to one finding
    let f = lint_sim("pub fn f(x: u32) -> u32 {\n    dbg!(x)\n}");
    assert_eq!(rules(&f), vec!["R4"]);
}

#[test]
fn r4_passes_writes_to_buffers() {
    let f = lint_sim(
        "use std::fmt::Write as _;\npub fn f(out: &mut String) { let _ = writeln!(out, \"row\"); }\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

// --- R5: NaN-unsafe patterns ------------------------------------------

#[test]
fn r5_flags_partial_cmp_unwrap_and_float_sorts() {
    let f = lint_sim("pub fn f(a: f64, b: f64) { let _ = a.partial_cmp(&b).unwrap(); }");
    assert_eq!(rules(&f), vec!["R5"]);
    let f = lint_sim("pub fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }");
    assert_eq!(rules(&f), vec!["R5"]);
    // Guarded with unwrap_or is still a non-total comparator: flagged.
    let f = lint_sim(
        "pub fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)); }",
    );
    assert_eq!(rules(&f), vec!["R5"]);
}

#[test]
fn r5_passes_total_cmp_and_trait_impls() {
    let f = lint_sim("pub fn f(v: &mut [f64]) { v.sort_by(f64::total_cmp); }");
    assert!(f.is_empty(), "{f:?}");
    // Implementing PartialOrd is a definition, not a NaN-unsafe call.
    let f = lint_sim(
        "impl PartialOrd for Ev {\n    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> { Some(self.cmp(o)) }\n}\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

// --- R8: per-tick heap allocation --------------------------------------

/// Lint one synthetic file at a tick-path module path (rule R8 applies).
fn lint_tick_path(src: &str) -> Vec<Finding> {
    let files = vec![SourceFile {
        path: "crates/dram/src/channel.rs".into(),
        text: src.into(),
    }];
    lint_sources(&files, "", "")
}

#[test]
fn r8_flags_per_tick_allocation_in_tick_path_modules() {
    let cases = [
        "pub fn tick(&mut self) { self.q = Vec::new(); }",
        "pub fn tick(&mut self) { let scratch = vec![0u64; 8]; }",
        "pub fn tick(&mut self) { self.policy = Box::new(FrFcfs); }",
        "pub fn drain(&mut self) { let ids = self.q.iter().map(|p| p.id).collect::<Vec<_>>(); }",
    ];
    for src in cases {
        let f = lint_tick_path(src);
        assert_eq!(rules(&f), vec!["R8"], "fixture: {src}");
        assert!(f[0].message.contains("per-tick heap allocation"));
    }
}

#[test]
fn r8_does_not_apply_outside_the_tick_path_list() {
    // The same allocation in a non-tick-path sim module is fine: R8 is a
    // budget rule for the hot layers, not a workspace-wide ban.
    let f = lint_sim("pub fn build(&mut self) { self.q = Vec::new(); }");
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn r8_exempts_constructors_tests_and_reasoned_pragmas() {
    // `fn new` is where pool allocation belongs.
    let f = lint_tick_path(
        "impl Channel {\n    pub fn new(banks: usize) -> Self {\n        Self { banks: vec![Bank::default(); banks], completions: Vec::new() }\n    }\n}\n",
    );
    assert!(f.is_empty(), "{f:?}");
    // Test harness code allocates freely.
    let f = lint_tick_path(
        "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let _ = Vec::<u64>::new(); }\n}\n",
    );
    assert!(f.is_empty(), "{f:?}");
    // A cold path keeps its allocation with a justification.
    let f = lint_tick_path(
        "// gat-lint: allow(R8, \"diagnostic dump, runs once per failure\")\npub fn dump(&self) -> Vec<u64> { self.q.iter().map(|p| p.id).collect::<Vec<_>>() }\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

// --- R6: docs/source consistency --------------------------------------

#[test]
fn r6_flags_undocumented_flags_and_knobs() {
    let bin = vec![SourceFile {
        path: "crates/bench/src/bin/fixture.rs".into(),
        text: r#"fn main() { let _ = ("--novel-flag", "GAT_NOVEL_KNOB"); }"#.into(),
    }];
    let f = lint_sources(&bin, "README without the flag", "DESIGN without the knob");
    assert_eq!(rules(&f), vec!["R6", "R6"]);
    assert!(f[0].message.contains("--novel-flag") && f[0].message.contains("README.md"));
    assert!(f[1].message.contains("GAT_NOVEL_KNOB") && f[1].message.contains("DESIGN.md"));
}

#[test]
fn r6_passes_documented_names_with_word_boundaries() {
    let bin = vec![SourceFile {
        path: "crates/bench/src/bin/fixture.rs".into(),
        text: r#"fn main() { let _ = ("--out", "GAT_NOVEL_KNOB"); }"#.into(),
    }];
    // `--output` alone must NOT satisfy `--out`.
    let f = lint_sources(&bin, "mentions --output only", "GAT_NOVEL_KNOB documented");
    assert_eq!(rules(&f), vec!["R6"]);
    let f = lint_sources(&bin, "use `--out PATH`", "GAT_NOVEL_KNOB documented");
    assert!(f.is_empty(), "{f:?}");
}

// --- R9: panic capture outside the serve supervisor --------------------

#[test]
fn r9_flags_panic_capture_in_sim_tool_and_bin_code() {
    // Unlike R1-R8, R9 applies to every scanned class: swallowing a panic
    // anywhere but the job supervisor hides invariant violations.
    let paths = [
        "crates/cache/src/fixture.rs",     // sim-state library
        "crates/serve/src/fixture.rs",     // tool library (the serve crate itself)
        "crates/bench/src/bin/fixture.rs", // bench binary
    ];
    for path in paths {
        let files = vec![SourceFile {
            path: path.into(),
            text: "pub fn f() { let _ = std::panic::catch_unwind(|| 1); }\n".into(),
        }];
        let f = lint_sources(&files, "", "");
        assert_eq!(rules(&f), vec!["R9"], "fixture path: {path}");
        assert!(f[0].message.contains("catch_unwind"), "{}", f[0].message);
    }
    // Hook manipulation is the other half of the rule: a stray set_hook
    // can silence the supervisor's sentinel filtering for everyone.
    let f = lint_sim("pub fn f() { std::panic::set_hook(Box::new(|_| {})); }");
    assert_eq!(rules(&f), vec!["R9"]);
    let f = lint_sim("pub fn f() { let _ = std::panic::take_hook(); }");
    assert_eq!(rules(&f), vec!["R9"]);
}

#[test]
fn r9_exempts_the_supervisor_tests_and_reasoned_pragmas() {
    // The one sanctioned isolation site.
    let sup = vec![SourceFile {
        path: "crates/serve/src/supervisor.rs".into(),
        text: "pub fn shield() { let _ = std::panic::catch_unwind(|| ()); }\n".into(),
    }];
    assert!(lint_sources(&sup, "", "").is_empty());
    // Test harnesses legitimately observe panics.
    let f = lint_sim(
        "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert!(std::panic::catch_unwind(|| panic!()).is_err()); }\n}\n",
    );
    assert!(f.is_empty(), "{f:?}");
    // Elsewhere, only a justified pragma lets one through.
    let f = lint_sim(
        "// gat-lint: allow(R9, \"FFI boundary must not unwind\")\npub fn guard() { let _ = std::panic::catch_unwind(|| ()); }\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

// --- R11: match-exhaustiveness drift ------------------------------------

#[test]
fn r11_flags_wildcard_arms_over_guarded_enums() {
    let f = lint_sim(
        "pub fn f(o: JobOutcome) -> u32 {\n    match o {\n        JobOutcome::Done => 1,\n        _ => 0,\n    }\n}\n",
    );
    assert_eq!(rules(&f), vec!["R11"], "{f:?}");
    assert_eq!(f[0].line, 4);
    // Serve's library code is covered too (JobOutcome lives there).
    let files = vec![SourceFile {
        path: "crates/serve/src/sink.rs".into(),
        text: "pub fn g(e: SimError) -> bool {\n    matches(e)\n}\nfn matches(e: SimError) -> bool {\n    match e { SimError::Wedged { .. } => true, _ => false }\n}\n".into(),
    }];
    let f = lint_sources(&files, "", "");
    assert_eq!(rules(&f), vec!["R11"], "{f:?}");
}

#[test]
fn r11_passes_exhaustive_matches_and_unguarded_enums() {
    // Every variant listed: nothing to flag.
    let f = lint_sim(
        "pub fn f(o: JobOutcome) -> u32 {\n    match o {\n        JobOutcome::Done => 1,\n        JobOutcome::Panicked => 2,\n    }\n}\n",
    );
    assert!(f.is_empty(), "{f:?}");
    // `_` over a non-guarded enum is fine.
    let f = lint_sim(
        "pub fn f(x: Option<u32>) -> u32 {\n    match x {\n        Some(v) => v,\n        _ => 0,\n    }\n}\n",
    );
    assert!(f.is_empty(), "{f:?}");
    // Bench binaries may wildcard (CLI plumbing fails loudly).
    let files = vec![SourceFile {
        path: "crates/bench/src/bin/fixture.rs".into(),
        text: "fn main() {\n    match outcome() {\n        JobOutcome::Done => {}\n        _ => {}\n    }\n}\n".into(),
    }];
    assert!(lint_sources(&files, "", "").is_empty());
}

#[test]
fn r11_sees_nested_matches_and_binding_arms() {
    // The wildcard lives in a match nested inside an arm body.
    let f = lint_sim(
        "pub fn f(a: Option<u32>, e: QosEvent) -> u32 {\n    match a {\n        Some(_) => match e {\n            QosEvent::Throttle => 1,\n            _ => 2,\n        },\n        None => 0,\n    }\n}\n",
    );
    assert_eq!(rules(&f), vec!["R11"], "{f:?}");
    // A named binding (`other => ..`) is not a `_` wildcard: rebinding is
    // visible in review; silent discard is what drifts.
    let f = lint_sim(
        "pub fn f(e: QosEvent) -> u32 {\n    match e {\n        QosEvent::Throttle => 1,\n        other => tag(other),\n    }\n}\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

// --- R12: cycle/millisecond unit confusion ------------------------------

#[test]
fn r12_flags_cycle_millis_arithmetic() {
    let f = lint_sim(
        "pub fn f(deadline_cycles: u64, budget_ms: u64) -> u64 {\n    deadline_cycles + budget_ms\n}\n",
    );
    assert_eq!(rules(&f), vec!["R12"], "{f:?}");
    assert_eq!(f[0].line, 2);
    // Comparisons confuse units just as silently as sums.
    let f = lint_sim(
        "pub fn late(now_cycle: u64, wall_ms: u64) -> bool {\n    now_cycle > wall_ms\n}\n",
    );
    assert_eq!(rules(&f), vec!["R12"], "{f:?}");
}

#[test]
fn r12_passes_single_unit_code_and_conversions() {
    // One unit per expression: fine.
    let f = lint_sim("pub fn f(a_cycles: u64, b_cycles: u64) -> u64 { a_cycles + b_cycles }\n");
    assert!(f.is_empty(), "{f:?}");
    let f = lint_sim("pub fn f(a_ms: u64, b_ms: u64) -> u64 { a_ms + b_ms }\n");
    assert!(f.is_empty(), "{f:?}");
    // Multiplication/division is the conversion idiom, not the bug.
    let f = lint_sim(
        "pub fn to_cycles(budget_ms: u64, cycles_per_ms: u64) -> u64 { budget_ms * cycles_per_ms }\n",
    );
    assert!(f.is_empty(), "{f:?}");
    // Generic positions (`Vec<Cycle>`) are not comparisons.
    let f = lint_sim("pub struct S { window_ms: u64, marks: Vec<Cycle> }\n");
    assert!(f.is_empty(), "{f:?}");
}

// --- Pragma census -----------------------------------------------------

/// The audited inventory of suppression pragmas in the scanned tree. A
/// new pragma (or a deleted one) must update this count *and* survive the
/// capstone's unused-pragma check — so a stale exemption cannot slip in
/// quietly, and neither can an unreviewed new one. Any other `gat-lint:`
/// comment (a marker grammar the lexer no longer knows) counts as
/// malformed, and the census expects none.
#[test]
fn pragma_census_matches_the_audited_inventory() {
    const EXPECTED_PRAGMAS: usize = 8;

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut paths = Vec::new();
    collect_rs(&root.join("crates"), &mut paths);
    paths.sort();
    let mut pragmas: Vec<String> = Vec::new();
    let mut malformed: Vec<String> = Vec::new();
    for p in &paths {
        let rel = p
            .strip_prefix(root)
            .unwrap()
            .to_string_lossy()
            .replace('\\', "/");
        if gat_lint::policy::classify(&rel) == gat_lint::policy::FileClass::Skip {
            continue;
        }
        let text = std::fs::read_to_string(p).unwrap();
        let lexed = gat_lint::lexer::lex(&text);
        for pr in &lexed.pragmas {
            pragmas.push(format!("{rel}:{} allow({})", pr.line, pr.rule));
        }
        for (line, problem) in &lexed.malformed {
            malformed.push(format!("{rel}:{line} {problem}"));
        }
    }
    assert_eq!(
        pragmas.len(),
        EXPECTED_PRAGMAS,
        "pragma inventory drifted — re-audit and update the census:\n{}",
        pragmas.join("\n")
    );
    assert!(
        malformed.is_empty(),
        "gat-lint comments that are not pragmas:\n{}",
        malformed.join("\n")
    );
}

fn collect_rs(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

// --- Pragmas -----------------------------------------------------------

#[test]
fn pragma_suppresses_the_named_rule_on_the_next_line() {
    let f = lint_sim(
        "// gat-lint: allow(R3, \"fixture justification\")\npub fn f() { let r = SimRng::new(7); }\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn file_level_pragma_covers_the_whole_file() {
    let f = lint_sim(
        "// gat-lint: allow-file(R1, \"fixture justification\")\nuse std::collections::HashMap;\npub struct S { m: HashMap<u64, u64> }\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn pragma_does_not_suppress_other_rules() {
    let f = lint_sim(
        "// gat-lint: allow(R1, \"wrong rule\")\npub fn f() { let r = SimRng::new(7); }\n",
    );
    // The R3 finding survives AND the pragma is reported unused
    // (findings sort by line: the pragma sits on line 1).
    assert_eq!(rules(&f), vec!["pragma", "R3"]);
}

#[test]
fn unused_pragma_is_an_error() {
    let f = lint_sim("// gat-lint: allow(R2, \"stale after refactor\")\npub fn clean() {}\n");
    assert_eq!(rules(&f), vec!["pragma"]);
    assert!(f[0].message.contains("unused"));
    assert!(f[0].message.contains("stale after refactor"));
}

#[test]
fn malformed_pragmas_are_errors_not_silence() {
    // Missing reason, and an unknown rule id.
    let f = lint_sim("// gat-lint: allow(R2)\n// gat-lint: allow(R99, \"who\")\npub fn g() {}\n");
    assert_eq!(rules(&f), vec!["pragma", "pragma"]);
}

#[test]
fn test_gated_code_is_exempt_from_r1_to_r5() {
    let f = lint_sim(
        r#"
pub fn prod(now: u64) -> u64 { now + 1 }

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn harness_scaffolding_is_fine() {
        let mut m = HashMap::new();
        m.insert(1u64, std::time::Instant::now());
        let r = SimRng::new(42).fork("test");
        println!("{:?}", (m.len(), r));
    }
}
"#,
    );
    assert!(f.is_empty(), "{f:?}");
}

// --- The capstone: the real tree is clean ------------------------------

#[test]
fn workspace_is_lint_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let (files, findings) = lint_workspace(root).expect("workspace scan");
    assert!(
        files > 50,
        "scan looks truncated: only {files} files — path wiring broken?"
    );
    let rendered: Vec<String> = findings.iter().map(Finding::render_text).collect();
    assert!(
        findings.is_empty(),
        "the workspace must stay lint-clean; fix or justify with a pragma:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn findings_export_valid_jsonl() {
    let f = lint_sim("use std::collections::HashMap;\n");
    assert_eq!(f.len(), 1);
    gat_sim::json::validate_json_line(&f[0].to_json()).unwrap();
    gat_sim::json::validate_json_line(&gat_lint::summary_json(1, &f)).unwrap();
}
