//! Static-analysis suite (DESIGN.md §10). For gat-lint's rules (R6, R8,
//! R12): passing and failing cases per rule, the pragma machinery, and
//! the capstone check that the real tree is lint-clean. For the rules
//! clippy enforces (R1–R5, R9, R11): the wiring a plain `cargo test` can
//! see — `clippy.toml` entries, crate-root opt-ins, and the sanctioned
//! suppression sites. Whether clippy actually fires is pinned by the
//! `expect` fixtures in `crates/sim/src/clippy_fixtures.rs`, which only
//! `cargo clippy -- -D warnings` checks.
//!
//! gat-lint fixtures are linted fully in memory via
//! [`gat_lint::lint_sources`], so the failing snippets never exist as
//! workspace files (the linter would otherwise flag its own test data).

use gat_lint::lexer::{lex, Tok};
use gat_lint::policy::SIM_CRATES;
use gat_lint::{lint_sources, lint_workspace, Finding, SourceFile};
use std::path::Path;

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

// --- R1–R4, R9, R11: clippy's half --------------------------------------

/// The restriction lints the sim crates opt in to at their crate roots.
const OPT_IN_LINTS: [&str; 5] = [
    "disallowed_types",
    "disallowed_methods",
    "print_stdout",
    "print_stderr",
    "wildcard_enum_match_arm",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The `clippy.toml` paths whose `reason` cites rule `rule`.
fn configured(rule: &str) -> Vec<String> {
    let tag = format!("reason = \"{rule}: ");
    read("clippy.toml")
        .lines()
        .filter(|l| l.contains(&tag))
        .filter_map(|l| Some(l.split_once("path = \"")?.1.split_once('"')?.0.to_string()))
        .collect()
}

/// One `#[..]`/`#![..]` attribute naming a clippy opt-in lint.
#[derive(Debug)]
struct LintAttr {
    /// `file:line`, or `file (module)` for an inner attribute.
    site: String,
    inner: bool,
    /// Every identifier inside the brackets, in order.
    idents: Vec<String>,
    reason: Option<String>,
}

impl LintAttr {
    fn names(&self, lint: &str) -> bool {
        self.idents
            .windows(2)
            .any(|w| w[0] == "clippy" && w[1] == lint)
    }

    /// The rule id a production suppression cites (`reason = "R3: …"`).
    fn rule(&self) -> Option<&str> {
        Some(self.reason.as_deref()?.split_once(": ")?.0)
    }
}

/// The [`OPT_IN_LINTS`] attributes in one workspace file.
fn lint_attrs(rel: &str) -> Vec<LintAttr> {
    let toks = lex(&read(rel)).tokens;
    let punct =
        |i: usize, c: char| matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c);
    let mut out = Vec::new();
    for i in (0..toks.len()).filter(|&i| punct(i, '#')) {
        let inner = punct(i + 1, '!');
        let open = i + 1 + usize::from(inner);
        if !punct(open, '[') {
            continue;
        }
        let (mut depth, mut idents, mut reason) = (0, Vec::new(), None);
        for t in &toks[open..] {
            match &t.tok {
                Tok::Punct('[') => depth += 1,
                Tok::Punct(']') => depth -= 1,
                Tok::Ident(s) => idents.push(s.clone()),
                Tok::Str(s) if idents.last().is_some_and(|l| l == "reason") => {
                    reason = Some(s.clone())
                }
                _ => {}
            }
            if depth == 0 {
                break;
            }
        }
        let site = if inner {
            format!("{rel} (module)")
        } else {
            format!("{rel}:{}", toks[i].line)
        };
        let attr = LintAttr {
            site,
            inner,
            idents,
            reason,
        };
        if OPT_IN_LINTS.iter().any(|l| attr.names(l)) {
            out.push(attr);
        }
    }
    out
}

fn rs_files(dir: &str) -> Vec<String> {
    gat_lint::rs_files(root(), dir).unwrap_or_else(|e| panic!("{dir}: {e}"))
}

/// Every attribute in `crates/*/src` that lowers an [`OPT_IN_LINTS`] lint.
fn suppressions() -> Vec<LintAttr> {
    let in_src = |rel: &String| rel.split('/').nth(2) == Some("src");
    let files = rs_files("crates").into_iter().filter(in_src);
    files
        .flat_map(|rel| lint_attrs(&rel))
        .filter(|a| a.idents[0] != "warn")
        .collect()
}

/// Production suppression sites citing rule `rule`, file-sorted (line
/// numbers dropped, so unrelated edits do not churn the lists below).
fn sanctioned(rule: &str) -> Vec<String> {
    let mut sites: Vec<String> = suppressions()
        .into_iter()
        .filter(|a| a.rule() == Some(rule))
        .map(|a| a.site.split(':').next().unwrap().to_string())
        .collect();
    sites.sort();
    sites
}

fn assert_opted_in(rel: &str, lints: &[&str]) {
    let attrs = lint_attrs(rel);
    for lint in lints {
        let warns = |a: &LintAttr| a.inner && a.idents[0] == "warn" && a.names(lint);
        assert!(
            attrs.iter().any(warns),
            "{rel} must opt in: #![warn(clippy::{lint})]"
        );
    }
}

fn sim_libs() -> Vec<String> {
    let mut libs: Vec<String> = SIM_CRATES
        .iter()
        .map(|k| format!("crates/{k}/src/lib.rs"))
        .collect();
    libs.sort();
    libs
}

#[test]
fn r1_flags_std_hash_collections() {
    assert_eq!(
        configured("R1"),
        ["std::collections::HashMap", "std::collections::HashSet"]
    );
}

#[test]
fn r1_passes_deterministic_maps() {
    // The one sanctioned std-hash site is the module defining FastMap/FastSet.
    assert_eq!(sanctioned("R1"), ["crates/sim/src/hashing.rs (module)"]);
}

#[test]
fn r2_flags_wall_clocks_threads_env_and_os_rng() {
    // `thread_rng` has no entry: `rand` is not a dependency.
    assert_eq!(
        configured("R2"),
        [
            "std::time::Instant",
            "std::time::SystemTime",
            "std::env::var",
            "std::env::var_os",
            "std::env::vars",
            "std::thread::spawn",
            "std::thread::scope",
            "std::thread::sleep",
            "std::thread::available_parallelism",
        ]
    );
}

#[test]
fn r2_allows_env_reads_in_the_knob_module_only() {
    // knobs.rs is the only module-wide R2 exemption; the rest are single
    // items: the worker pools and the wall-deadline thread.
    assert_eq!(
        sanctioned("R2"),
        [
            "crates/hetero/src/experiments.rs",
            "crates/hetero/src/experiments.rs",
            "crates/serve/src/pool.rs",
            "crates/serve/src/supervisor.rs",
            "crates/sim/src/knobs.rs (module)",
        ]
    );
}

#[test]
fn r3_flags_rng_construction_and_forking_outside_approved_modules() {
    assert_eq!(
        configured("R3"),
        ["gat_sim::rng::SimRng::new", "gat_sim::rng::SimRng::fork"]
    );
}

#[test]
fn r3_passes_handed_in_streams_and_approved_modules() {
    assert_eq!(
        sanctioned("R3"),
        [
            "crates/dram/src/sched.rs",
            "crates/hetero/src/system.rs (module)",
            "crates/hetero/src/uncore.rs",
            "crates/hetero/src/uncore.rs",
            "crates/sim/src/faults.rs (module)",
            "crates/sim/src/rng.rs (module)",
        ]
    );
}

#[test]
fn r4_flags_direct_printing() {
    for lib in sim_libs() {
        assert_opted_in(&lib, &["print_stdout", "print_stderr"]);
    }
    // `dbg!` is denied workspace-wide, not just in the sim crates.
    assert!(read("Cargo.toml").contains("dbg_macro = \"deny\""));
}

#[test]
fn r4_passes_writes_to_buffers() {
    // Sim crates emit through the events/metrics layer and `write!` into
    // buffers: no site needs to print, so none suppresses R4.
    assert!(sanctioned("R4").is_empty());
}

#[test]
fn r5_flags_partial_cmp_unwrap_and_float_sorts() {
    // One entry covers both: a float sort's comparator calls partial_cmp.
    assert_eq!(configured("R5"), ["std::cmp::PartialOrd::partial_cmp"]);
}

#[test]
fn r5_passes_total_cmp_and_trait_impls() {
    // Orderings use total_cmp, and no opted-in crate derives PartialOrd
    // (its expansion calls partial_cmp): no site suppresses R5.
    assert!(sanctioned("R5").is_empty());
}

#[test]
fn r9_flags_panic_capture_in_sim_tool_and_bin_code() {
    let hooks = [
        "std::panic::catch_unwind",
        "std::panic::set_hook",
        "std::panic::take_hook",
    ];
    assert_eq!(configured("R9"), hooks);
    let mut roots = rs_files("crates/bench/src/bin");
    assert!(roots.len() >= 7, "bench bins not found: {roots:?}");
    roots.push("crates/serve/src/lib.rs".into());
    for rel in roots {
        assert_opted_in(&rel, &["disallowed_methods"]);
    }
}

#[test]
fn r9_exempts_the_supervisor_tests_and_reasoned_pragmas() {
    let supervisor = "crates/serve/src/supervisor.rs";
    assert_eq!(sanctioned("R9"), [supervisor, supervisor]);
}

#[test]
fn r11_flags_wildcard_arms_over_guarded_enums() {
    let mut roots = sim_libs();
    roots.push("crates/serve/src/lib.rs".into());
    for rel in roots {
        assert_opted_in(&rel, &["wildcard_enum_match_arm"]);
    }
}

#[test]
fn r11_passes_exhaustive_matches_and_unguarded_enums() {
    // Every match in the opted-in crates lists its variants: outside the
    // fixtures, nothing lowers the lint, with or without a reason.
    let wildcards: Vec<String> = suppressions()
        .into_iter()
        .filter(|a| a.names("wildcard_enum_match_arm") && a.rule() != Some("fixture"))
        .map(|a| a.site)
        .collect();
    assert!(wildcards.is_empty(), "{wildcards:?}");
}

// --- Suppression census --------------------------------------------------

/// The audited inventory of suppressions. gat-lint pragmas: a new one (or
/// a deleted one) must update the count *and* survive the capstone's
/// unused-pragma check; any other `gat-lint:` comment counts as
/// malformed. Clippy suppressions of the opt-in lints: each must be an
/// `expect` — which `-D warnings` rejects once it suppresses nothing —
/// whose reason cites its rule id or marks a fixture. The one `allow` is
/// each sim crate's test exemption, and each sim crate must carry its
/// opt-in lines, since an item-level `expect` passes without them.
#[test]
fn pragma_census_matches_the_audited_inventory() {
    const EXPECTED_PRAGMAS: usize = 1;
    const EXPECTED_CLIPPY_EXPECTS: usize = 14;
    const EXPECTED_CLIPPY_FIXTURES: usize = 20;

    let mut pragmas: Vec<String> = Vec::new();
    let mut malformed: Vec<String> = Vec::new();
    for rel in rs_files("crates") {
        if gat_lint::policy::classify(&rel) == gat_lint::policy::FileClass::Skip {
            continue;
        }
        let lexed = lex(&read(&rel));
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
        pragmas.iter().all(|p| p.ends_with("allow(R8)")),
        "{pragmas:?}"
    );
    assert!(
        malformed.is_empty(),
        "gat-lint comments that are not pragmas:\n{}",
        malformed.join("\n")
    );

    let test_exemption = "cfg_attr test allow clippy disallowed_types clippy disallowed_methods";
    let (mut expects, mut fixtures, mut exempt) = (Vec::new(), 0, Vec::new());
    for a in suppressions() {
        let site = &a.site;
        if a.idents.join(" ") == test_exemption && site.ends_with("/src/lib.rs (module)") {
            exempt.push(site.trim_end_matches(" (module)").to_string());
            continue;
        }
        assert_eq!(
            a.idents[0], "expect",
            "{site}: suppress with #[expect(.., reason = \"..\")]"
        );
        match a.rule() {
            Some("fixture") => fixtures += 1,
            Some(rule @ ("R1" | "R2" | "R3" | "R4" | "R5" | "R9" | "R11")) => {
                expects.push(format!("{site} {rule}"))
            }
            _ => panic!("{site}: the reason must cite its rule id, as in \"R2: why\""),
        }
    }
    assert_eq!(
        expects.len(),
        EXPECTED_CLIPPY_EXPECTS,
        "clippy suppression inventory drifted — re-audit and update the census:\n{}",
        expects.join("\n")
    );
    assert_eq!(
        fixtures, EXPECTED_CLIPPY_FIXTURES,
        "clippy fixture count drifted"
    );
    exempt.sort();
    assert_eq!(
        exempt,
        sim_libs(),
        "one test exemption per sim crate, at its root"
    );
    for lib in sim_libs() {
        assert_opted_in(&lib, &OPT_IN_LINTS);
    }
}

// --- Pragmas -----------------------------------------------------------

#[test]
fn pragma_suppresses_the_named_rule_on_the_next_line() {
    let f = lint_sim(
        "// gat-lint: allow(R12, \"fixture justification\")\npub fn f(t_cycles: u64, t_ms: u64) -> bool { t_cycles < t_ms }\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn file_level_pragma_covers_the_whole_file() {
    let f = lint_sim(
        "// gat-lint: allow-file(R12, \"fixture justification\")\npub fn a(t_cycles: u64, t_ms: u64) -> u64 { t_cycles + t_ms }\npub fn b(t_cycles: u64, t_ms: u64) -> bool { t_cycles < t_ms }\n",
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn pragma_does_not_suppress_other_rules() {
    let f = lint_sim(
        "// gat-lint: allow(R8, \"wrong rule\")\npub fn f(t_cycles: u64, t_ms: u64) -> bool { t_cycles < t_ms }\n",
    );
    // The R12 finding survives AND the pragma is reported unused
    // (findings sort by line: the pragma sits on line 1).
    assert_eq!(rules(&f), vec!["pragma", "R12"]);
}

#[test]
fn unused_pragma_is_an_error() {
    let f = lint_sim("// gat-lint: allow(R8, \"stale after refactor\")\npub fn clean() {}\n");
    assert_eq!(rules(&f), vec!["pragma"]);
    assert!(f[0].message.contains("unused"));
    assert!(f[0].message.contains("stale after refactor"));
}

#[test]
fn malformed_pragmas_are_errors_not_silence() {
    // Missing reason, an unknown rule id, and a rule clippy now owns.
    let f = lint_sim(
        "// gat-lint: allow(R12)\n// gat-lint: allow(R99, \"who\")\n// gat-lint: allow(R1, \"moved to clippy\")\npub fn g() {}\n",
    );
    assert_eq!(rules(&f), vec!["pragma", "pragma", "pragma"]);
}

#[test]
fn test_gated_code_is_exempt_from_r8_r12() {
    let files = vec![SourceFile {
        path: "crates/dram/src/channel.rs".into(),
        text: r#"
pub fn prod(now: u64) -> u64 { now + 1 }

#[cfg(test)]
mod tests {
    #[test]
    fn harness_scaffolding_is_fine() {
        let mut v = vec![0.5f64, 0.25];
        v.push(0.125);
        let (deadline_cycles, budget_ms) = (10u64, 2u64);
        assert!(deadline_cycles > budget_ms);
    }
}
"#
        .into(),
    }];
    let f = lint_sources(&files, "", "");
    assert!(f.is_empty(), "{f:?}");
}

// --- The capstone: the real tree is clean ------------------------------

#[test]
fn workspace_is_lint_clean() {
    let (files, findings) = lint_workspace(root()).expect("workspace scan");
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
    let f = lint_sim("pub fn f(t_cycles: u64, t_ms: u64) -> u64 { t_cycles + t_ms }\n");
    assert_eq!(rules(&f), vec!["R12"]);
    gat_sim::json::validate_json_line(&f[0].to_json()).unwrap();
    gat_sim::json::validate_json_line(&gat_lint::summary_json(1, &f)).unwrap();
}
