//! Static-analysis suite (DESIGN.md §10). Clippy enforces the
//! determinism rules R1–R5, R9, R11 and R12; this file pins the wiring a
//! plain `cargo test` can see — `clippy.toml` entries, crate-root
//! opt-ins, and the sanctioned suppression sites. Whether clippy actually
//! fires is pinned by the `expect` fixtures in
//! `crates/sim/src/clippy_fixtures.rs`, which only
//! `cargo clippy -- -D warnings` checks.
//!
//! Two source checks have no clippy lint and run here over the tree: R6
//! (every bench `--flag` is in README.md and every `GAT_*` knob in
//! DESIGN.md) and R12's name half (no sim-crate identifier is in
//! milliseconds). R8 (no per-tick heap allocation) is measured at run
//! time by `tests/no_tick_alloc.rs`.

use std::path::Path;

/// Crates whose `src/` trees hold simulator state: the ones that opt in
/// to the clippy determinism lints and carry R12's name rule.
const SIM_CRATES: [&str; 10] = [
    "sim",
    "cache",
    "cpu",
    "gpu",
    "dram",
    "ring",
    "core",
    "hetero",
    "policies",
    "workloads",
];

// --- R6: docs/source consistency --------------------------------------

/// One token of Rust source: a word (identifier, keyword or number), a
/// string literal's contents, or any other character. Comments, char
/// literals and whitespace are dropped.
enum Tok {
    Word(String),
    Str(String),
    Punct(char),
}

fn tokens(src: &str) -> Vec<Tok> {
    let word = |c: &char| c.is_alphanumeric() || *c == '_';
    let mut out = Vec::new();
    let mut chars = src.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '/' if chars.peek() == Some(&'/') => {
                chars.find(|&c| c == '\n');
            }
            // Char literals: `'"'` must not open a string.
            '\'' if chars.clone().nth(1) == Some('\'') => {
                chars.nth(1);
            }
            '\'' if chars.peek() == Some(&'\\') => {
                chars.nth(1);
                chars.find(|&c| c == '\'');
            }
            '"' => {
                let mut lit = String::new();
                while let Some(c) = chars.next() {
                    match c {
                        '"' => break,
                        '\\' => lit.extend(chars.next()),
                        c => lit.push(c),
                    }
                }
                out.push(Tok::Str(lit));
            }
            c if word(&c) => {
                let mut w = String::from(c);
                while let Some(c) = chars.next_if(word) {
                    w.push(c);
                }
                out.push(Tok::Word(w));
            }
            c if c.is_whitespace() => {}
            c => out.push(Tok::Punct(c)),
        }
    }
    out
}

/// The string literals of Rust source `src`.
fn string_literals(src: &str) -> impl Iterator<Item = String> {
    tokens(src).into_iter().filter_map(|t| match t {
        Tok::Str(s) => Some(s),
        Tok::Word(_) | Tok::Punct(_) => None,
    })
}

/// The `--flag` words in a string literal (usage text, match arms).
fn flags_in(lit: &str) -> Vec<String> {
    lit.match_indices("--")
        .filter(|&(i, _)| !lit[..i].ends_with(|c: char| c == '-' || c.is_ascii_alphanumeric()))
        .map(|(i, _)| &lit[i..])
        .filter(|rest| rest[2..].starts_with(|c: char| c.is_ascii_lowercase()))
        .map(|rest| {
            let end = rest[2..].find(|c| !flag_continues(c));
            rest[..end.map_or(rest.len(), |e| e + 2)].to_string()
        })
        .collect()
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

/// Is `lit` exactly a `GAT_*` knob name?
fn is_knob(lit: &str) -> bool {
    lit.strip_prefix("GAT_")
        .is_some_and(|rest| !rest.is_empty() && rest.chars().all(knob_continues))
}

/// Does `doc` mention `name` as a whole word (per the continuation class)?
fn mentions(doc: &str, name: &str, continues: fn(char) -> bool) -> bool {
    doc.match_indices(name)
        .any(|(i, _)| !doc[i + name.len()..].starts_with(continues))
}

/// R6: the `--flag`s of the bench binaries `bins` missing from `readme`,
/// then the `GAT_*` knobs of the knob module `knobs` missing from
/// `design`. Only the knob module's non-test part counts: it is the one
/// place clippy lets a knob be read.
fn undocumented(bins: &[String], knobs: &str, readme: &str, design: &str) -> Vec<String> {
    let knobs = knobs.split("#[cfg(test)]").next().unwrap_or_default();
    let flags = bins
        .iter()
        .flat_map(|b| string_literals(b))
        .flat_map(|l| flags_in(&l));
    let mut missing: Vec<String> = flags
        .filter(|f| !mentions(readme, f, flag_continues))
        .map(|f| format!("{f} (README.md)"))
        .collect();
    missing.extend(
        string_literals(knobs)
            .filter(|k| is_knob(k) && !mentions(design, k, knob_continues))
            .map(|k| format!("{k} (DESIGN.md)")),
    );
    missing.sort();
    missing.dedup();
    missing
}

#[test]
fn r6_flags_undocumented_flags_and_knobs() {
    let bin = r#"fn main() { let _ = ("--novel-flag", '"', '\n', "--scale"); }"#;
    let knobs = r#"fn k() -> bool { switch("GAT_NOVEL_KNOB") }
#[cfg(test)]
mod tests { const UNSET: &str = "GAT_TEST_ONLY"; }"#;
    let missing = undocumented(&[bin.into()], knobs, "use --scale N", "no knobs here");
    assert_eq!(
        missing,
        ["--novel-flag (README.md)", "GAT_NOVEL_KNOB (DESIGN.md)"]
    );
}

#[test]
fn r6_passes_documented_names_with_word_boundaries() {
    let bin = r#"fn main() { let _ = "usage: x [--out PATH] -- --3d a--b"; }"#;
    let knobs = r#"fn k() -> bool { switch("GAT_NOVEL_KNOB") }"#;
    let design = "GAT_NOVEL_KNOB documented";
    // `--output` alone must NOT satisfy `--out`.
    let missing = undocumented(&[bin.into()], knobs, "mentions --output only", design);
    assert_eq!(missing, ["--out (README.md)"]);
    assert!(undocumented(&[bin.into()], knobs, "use `--out PATH`", design).is_empty());
    // Nor does `GAT_NOVEL_KNOBS` satisfy `GAT_NOVEL_KNOB`.
    let missing = undocumented(&[], knobs, "", "GAT_NOVEL_KNOBS");
    assert_eq!(missing, ["GAT_NOVEL_KNOB (DESIGN.md)"]);
}

// --- R12: cycle/millisecond unit confusion ------------------------------

/// R12's name half: the identifiers in `src` that name a millisecond
/// value (`budget_ms`, `WALL_MILLIS`). The type half is clippy's
/// `std::time::Duration` entry.
fn ms_idents(src: &str) -> Vec<String> {
    let millis = |w: &str| w.ends_with("_ms") || w.ends_with("_millis");
    tokens(src)
        .into_iter()
        .filter_map(|t| match t {
            Tok::Word(w) if millis(&w.to_ascii_lowercase()) => Some(w),
            Tok::Word(_) | Tok::Str(_) | Tok::Punct(_) => None,
        })
        .collect()
}

#[test]
fn r12_flags_cycle_millis_arithmetic() {
    let src = "pub fn f(deadline_cycles: u64, budget_ms: u64) -> u64 {\n    deadline_cycles + budget_ms\n}\n";
    assert_eq!(ms_idents(src), ["budget_ms", "budget_ms"]);
    assert_eq!(ms_idents("const WALL_MILLIS: u64 = 5;"), ["WALL_MILLIS"]);
}

#[test]
fn r12_passes_single_unit_code_and_conversions() {
    // One unit per expression: fine.
    assert!(
        ms_idents("pub fn f(a_cycles: u64, b_cycles: u64) -> u64 { a_cycles + b_cycles }")
            .is_empty()
    );
    // A conversion names its source unit up front, not as a suffix.
    assert!(ms_idents("pub fn ms_to_cycles(ms: u64) -> u64 { ms * 4_000_000 }").is_empty());
    // Words that merely end in "ms" are not millisecond values.
    assert!(ms_idents("let forms = items_msg.len(); // platforms").is_empty());
}

#[test]
fn r12_bans_wall_durations() {
    assert_eq!(configured("R12"), ["std::time::Duration"]);
}

// --- R1–R5, R9, R11: clippy's half --------------------------------------

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

/// The identifiers and the `reason` string inside the brackets of the
/// attribute that starts `text`, or `None` while its brackets are still
/// open. Brackets inside string literals do not count.
fn scan_attr(text: &str) -> Option<(Vec<String>, Option<String>)> {
    let (mut depth, mut idents, mut reason) = (0, Vec::<String>::new(), None);
    for tok in tokens(text) {
        match tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') if depth == 1 => return Some((idents, reason)),
            Tok::Punct(']') => depth -= 1,
            Tok::Word(w) => idents.push(w),
            Tok::Str(s) if idents.last().is_some_and(|l| l == "reason") => reason = Some(s),
            Tok::Str(_) | Tok::Punct(_) => {}
        }
    }
    None
}

/// The [`OPT_IN_LINTS`] attributes in one workspace file: each line that
/// starts with `#[` or `#![`, extended until its brackets balance.
fn lint_attrs(rel: &str) -> Vec<LintAttr> {
    let text = read(rel);
    let mut lines = text.lines().enumerate();
    let mut out = Vec::new();
    while let Some((i, line)) = lines.next() {
        let mut attr = line.trim().to_string();
        let inner = attr.starts_with("#![");
        if !inner && !attr.starts_with("#[") {
            continue;
        }
        let (idents, reason) = loop {
            match scan_attr(&attr) {
                Some(scanned) => break scanned,
                None => attr += &format!("\n{}", lines.next().expect("unclosed attribute").1),
            }
        };
        let site = if inner {
            format!("{rel} (module)")
        } else {
            format!("{rel}:{}", i + 1)
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

/// Every `.rs` file under `dir`, workspace-relative and sorted.
fn rs_files(dir: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut dirs = vec![root().join(dir)];
    while let Some(d) = dirs.pop() {
        for entry in std::fs::read_dir(&d).unwrap_or_else(|e| panic!("{}: {e}", d.display())) {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(root()).unwrap();
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    out.sort();
    out
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

/// The audited inventory of suppressions. Each clippy suppression of an
/// opt-in lint must be an `expect` — which `-D warnings` rejects once it
/// suppresses nothing — whose reason cites its rule id or marks a
/// fixture. The one `allow` is each sim crate's test exemption, and each
/// sim crate must carry its opt-in lines, since an item-level `expect`
/// passes without them.
#[test]
fn pragma_census_matches_the_audited_inventory() {
    const EXPECTED_CLIPPY_EXPECTS: usize = 14;
    const EXPECTED_CLIPPY_FIXTURES: usize = 21;

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
            Some(rule @ ("R1" | "R2" | "R3" | "R4" | "R5" | "R9" | "R11" | "R12")) => {
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

// --- The capstone: the real tree is clean ------------------------------

/// R6 and R12's name half over the real tree: every bench flag and knob
/// is documented, and no sim-crate identifier is in milliseconds.
#[test]
fn workspace_is_lint_clean() {
    let bins: Vec<String> = rs_files("crates/bench/src/bin")
        .iter()
        .map(|b| read(b))
        .collect();
    assert!(bins.len() >= 7, "bench bins not found");
    let missing = undocumented(
        &bins,
        &read("crates/sim/src/knobs.rs"),
        &read("README.md"),
        &read("DESIGN.md"),
    );
    assert!(
        missing.is_empty(),
        "R6: document every bench flag in README.md and every GAT_* knob in DESIGN.md:\n{}",
        missing.join("\n")
    );

    let mut millis = Vec::new();
    for krate in SIM_CRATES {
        for rel in rs_files(&format!("crates/{krate}/src")) {
            let text = read(&rel);
            millis.extend(ms_idents(&text).into_iter().map(|w| format!("{rel}: {w}")));
        }
    }
    assert!(
        millis.is_empty(),
        "R12: sim crates count cycles, never milliseconds:\n{}",
        millis.join("\n")
    );
}
