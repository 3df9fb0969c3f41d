//! The NaN-ordering rule (R5), the tick-path allocation rule (R8) and the
//! unit-mixing rule (R12) over one file's token stream, plus the raw
//! material (flag and knob literals) for the cross-file rule R6.
//!
//! Every matcher works on the comment-free token stream from
//! [`crate::lexer`]; spans are line-granular, which is enough for a
//! clickable `file:line` and for line-scoped pragma suppression.
//!
//! Code under `#[test]` / `#[cfg(test)]` items is exempt from every rule:
//! the contract governs simulator state, and test harness code routinely
//! (and harmlessly) allocates scratch buffers or sorts floats. The
//! golden/determinism suites verify the *outputs*; these rules police
//! the inputs.

use crate::lexer::{self, Tok, Token};
use crate::policy::{self, FileClass};
use crate::report::{Finding, RuleId};

/// A suppression pragma whose rule id resolved, ready for matching.
#[derive(Debug, Clone)]
pub struct CheckedPragma {
    pub rule: RuleId,
    pub line: u32,
    pub file_level: bool,
    pub reason: String,
    pub used: bool,
}

/// Everything the linter learned from one file.
#[derive(Debug, Default)]
pub struct FileLint {
    /// Token-rule findings surviving suppression, plus pragma-syntax errors.
    pub findings: Vec<Finding>,
    /// Parsed pragmas with use-marks (the driver settles R6 suppression
    /// and then reports any still-unused pragma as an error).
    pub pragmas: Vec<CheckedPragma>,
    /// `--flag` literals found in bench binaries: `(flag, line)`.
    pub flags: Vec<(String, u32)>,
    /// `GAT_*` literals found outside test code: `(name, line)`.
    pub env_vars: Vec<(String, u32)>,
}

/// Lint one file's source. `rel_path` is workspace-relative and selects
/// the file's class and approved-module exemptions.
pub fn lint_file(rel_path: &str, source: &str) -> FileLint {
    let class = policy::classify(rel_path);
    let mut out = FileLint::default();
    if class == FileClass::Skip {
        return out;
    }
    let lexed = lexer::lex(source);

    for (line, problem) in &lexed.malformed {
        out.findings.push(Finding {
            rule: RuleId::Pragma,
            file: rel_path.into(),
            line: *line,
            message: format!("malformed gat-lint pragma: {problem}"),
        });
    }
    for p in &lexed.pragmas {
        match RuleId::from_pragma_name(&p.rule) {
            Some(rule) => out.pragmas.push(CheckedPragma {
                rule,
                line: p.line,
                file_level: p.file_level,
                reason: p.reason.clone(),
                used: false,
            }),
            None => out.findings.push(Finding {
                rule: RuleId::Pragma,
                file: rel_path.into(),
                line: p.line,
                message: format!("pragma names unknown rule {:?} (see --list-rules)", p.rule),
            }),
        }
    }

    let toks = &lexed.tokens;
    let in_test = test_mask(toks);

    let mut raw: Vec<Finding> = Vec::new();
    if class == FileClass::SimLib {
        check_r5_nan(rel_path, toks, &in_test, &mut raw);
        check_r8_tick_alloc(rel_path, toks, &in_test, &mut raw);
        check_r12_unit_mix(rel_path, toks, &in_test, &mut raw);
    }
    dedupe(&mut raw);
    let survived = suppress(raw, &mut out.pragmas);
    out.findings.extend(survived);

    // R6 raw material. Flags come from the bench binaries only; GAT_*
    // knob names from every scanned class (a knob read can hide in a
    // sim crate just as easily as in a CLI).
    for (i, t) in toks.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        if let Tok::Str(s) = &t.tok {
            if class == FileClass::BenchBin {
                for flag in extract_flags(s) {
                    out.flags.push((flag, t.line));
                }
            }
            if is_gat_knob_name(s) {
                out.env_vars.push((s.clone(), t.line));
            }
        }
    }
    out
}

/// Drop a finding when a matching pragma covers its line (same line or
/// the line directly above) or the whole file; mark the pragma used.
pub fn suppress(findings: Vec<Finding>, pragmas: &mut [CheckedPragma]) -> Vec<Finding> {
    findings
        .into_iter()
        .filter(|f| {
            let mut suppressed = false;
            for p in pragmas.iter_mut() {
                if p.rule == f.rule && (p.file_level || p.line == f.line || p.line + 1 == f.line) {
                    p.used = true;
                    suppressed = true;
                }
            }
            !suppressed
        })
        .collect()
}

/// Per-token "is inside a `#[test]` / `#[cfg(test)]` item" mask.
pub(crate) fn test_mask(toks: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if !is_punct(toks, i, '#') || !is_punct(toks, i + 1, '[') {
            i += 1;
            continue;
        }
        // Collect the attribute's tokens up to the matching ']'.
        let close = match matching(toks, i + 1, '[', ']') {
            Some(c) => c,
            None => break,
        };
        let attr: Vec<&str> = toks[i + 2..close]
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Ident(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        let gates_test = attr.contains(&"test") && !attr.contains(&"not");
        if !gates_test {
            i = close + 1;
            continue;
        }
        // Skip any further attributes, then span the gated item: either
        // `…;` (e.g. `mod tests;`) or a braced body.
        let mut j = close + 1;
        while is_punct(toks, j, '#') && is_punct(toks, j + 1, '[') {
            match matching(toks, j + 1, '[', ']') {
                Some(c) => j = c + 1,
                None => return mask,
            }
        }
        let mut depth_paren = 0i32;
        let mut body_end = toks.len().saturating_sub(1);
        let mut k = j;
        while k < toks.len() {
            match toks[k].tok {
                Tok::Punct('(') => depth_paren += 1,
                Tok::Punct(')') => depth_paren -= 1,
                Tok::Punct(';') if depth_paren == 0 => {
                    body_end = k;
                    break;
                }
                Tok::Punct('{') if depth_paren == 0 => {
                    body_end = matching(toks, k, '{', '}').unwrap_or(toks.len() - 1);
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        for m in mask.iter_mut().take(body_end + 1).skip(i) {
            *m = true;
        }
        i = body_end + 1;
    }
    mask
}

/// Index of the token closing the bracket opened at `open_idx`.
fn matching(toks: &[Token], open_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open_idx) {
        match &t.tok {
            Tok::Punct(c) if *c == open => depth += 1,
            Tok::Punct(c) if *c == close => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

fn ident_at(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn is_punct(toks: &[Token], i: usize, c: char) -> bool {
    matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

/// `a :: b` path step: ident at `i`, `::`, ident `b` at `i+3`.
fn path_step(toks: &[Token], i: usize, a: &str, b: &str) -> bool {
    ident_at(toks, i) == Some(a)
        && is_punct(toks, i + 1, ':')
        && is_punct(toks, i + 2, ':')
        && ident_at(toks, i + 3) == Some(b)
}

fn push(raw: &mut Vec<Finding>, rule: RuleId, file: &str, line: u32, message: String) {
    raw.push(Finding {
        rule,
        file: file.into(),
        line,
        message,
    });
}

/// R5: `partial_cmp(..).unwrap()` (panics on NaN) and float sorts built
/// on `partial_cmp` (NaN makes the comparator non-total, and the
/// resulting order is allocation-dependent).
fn check_r5_nan(file: &str, toks: &[Token], in_test: &[bool], raw: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        // `.partial_cmp( … ).unwrap`
        if is_punct(toks, i, '.')
            && ident_at(toks, i + 1) == Some("partial_cmp")
            && is_punct(toks, i + 2, '(')
        {
            if let Some(close) = matching(toks, i + 2, '(', ')') {
                if is_punct(toks, close + 1, '.') && ident_at(toks, close + 2) == Some("unwrap") {
                    push(
                        raw,
                        RuleId::R5,
                        file,
                        t.line,
                        "partial_cmp(..).unwrap() panics on NaN".into(),
                    );
                }
            }
        }
        // `.sort_by( … partial_cmp … )` and friends
        if is_punct(toks, i, '.') {
            if let Some(
                name @ ("sort_by" | "sort_unstable_by" | "min_by" | "max_by" | "binary_search_by"),
            ) = ident_at(toks, i + 1)
            {
                if is_punct(toks, i + 2, '(') {
                    if let Some(close) = matching(toks, i + 2, '(', ')') {
                        let uses_partial = toks[i + 2..close]
                            .iter()
                            .any(|t| matches!(&t.tok, Tok::Ident(s) if s == "partial_cmp"));
                        if uses_partial {
                            push(
                                raw,
                                RuleId::R5,
                                file,
                                t.line,
                                format!(
                                    "{name} comparator built on partial_cmp is not total under NaN"
                                ),
                            );
                        }
                    }
                }
            }
        }
    }
}

/// R8: heap allocation in a tick-path module (`policy::TICK_PATH_MODULES`).
/// Tick-path state lives in containers allocated at setup and reused
/// across ticks (DESIGN.md §11) — per-bank queues, the ring's heap,
/// scratch buffers — so a `Vec::new`/`vec![..]`/`Box::new`/
/// `.collect::<Vec<..>>()` reappearing here is per-tick churn until a
/// reasoned pragma says otherwise. Bodies of `fn new` are exempt: that is
/// where pool allocation belongs.
fn check_r8_tick_alloc(file: &str, toks: &[Token], in_test: &[bool], raw: &mut Vec<Finding>) {
    if !policy::is_tick_path_module(file) {
        return;
    }
    let in_ctor = ctor_mask(toks);
    for (i, t) in toks.iter().enumerate() {
        if in_test[i] || in_ctor[i] {
            continue;
        }
        let what = if path_step(toks, i, "Vec", "new") {
            Some("Vec::new()")
        } else if path_step(toks, i, "Box", "new") {
            Some("Box::new(..)")
        } else if ident_at(toks, i) == Some("vec")
            && is_punct(toks, i + 1, '!')
            && (is_punct(toks, i + 2, '[') || is_punct(toks, i + 2, '('))
        {
            Some("vec![..]")
        } else if is_punct(toks, i, '.')
            && ident_at(toks, i + 1) == Some("collect")
            && is_punct(toks, i + 2, ':')
            && is_punct(toks, i + 3, ':')
            && is_punct(toks, i + 4, '<')
            && ident_at(toks, i + 5) == Some("Vec")
        {
            Some(".collect::<Vec<..>>()")
        } else {
            None
        };
        if let Some(what) = what {
            push(
                raw,
                RuleId::R8,
                file,
                t.line,
                format!("per-tick heap allocation ({what}) in a tick-path module"),
            );
        }
    }
}

/// R12: one expression mixing cycle-domain and millisecond-domain values.
/// `Cycle` is a plain `u64` alias, so `deadline_cycles + budget_ms`
/// compiles clean and corrupts the timeline silently. The matcher splits
/// the token stream into expression segments at `; , ( ) { }` and flags
/// a segment containing a cycle-flavoured ident AND a millis-flavoured
/// ident AND an additive/comparison operator. Multiplicative operators
/// are deliberately excluded — `cycles_per_ms * budget_ms` is the
/// *conversion* idiom, not the bug.
fn check_r12_unit_mix(file: &str, toks: &[Token], in_test: &[bool], raw: &mut Vec<Finding>) {
    let mut seg_start = 0usize;
    let mut i = 0usize;
    while i <= toks.len() {
        let boundary =
            i == toks.len() || matches!(toks[i].tok, Tok::Punct(';' | ',' | '(' | ')' | '{' | '}'));
        if boundary {
            scan_segment(file, toks, in_test, seg_start, i, raw);
            seg_start = i + 1;
        }
        i += 1;
    }
}

fn is_cycle_ident(name: &str) -> bool {
    matches!(name, "Cycle" | "cycle" | "cycles")
        || name.ends_with("_cycle")
        || name.ends_with("_cycles")
}

fn is_millis_ident(name: &str) -> bool {
    matches!(
        name,
        "ms" | "millis" | "Duration" | "as_millis" | "from_millis"
    ) || name.ends_with("_ms")
        || name.ends_with("_millis")
}

/// Can this token end/begin a value operand (rules out `Vec<T>` angle
/// brackets and `::<` turbofish masquerading as comparisons)?
fn is_value_operand(toks: &[Token], i: usize) -> bool {
    match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Num) => true,
        Some(Tok::Ident(s)) => !s.starts_with(char::is_uppercase),
        _ => false,
    }
}

fn scan_segment(
    file: &str,
    toks: &[Token],
    in_test: &[bool],
    start: usize,
    end: usize,
    raw: &mut Vec<Finding>,
) {
    let mut has_cycle = false;
    let mut has_ms = false;
    let mut op_line: Option<u32> = None;
    for k in start..end.min(toks.len()) {
        if in_test[k] {
            return;
        }
        match &toks[k].tok {
            Tok::Ident(name) => {
                has_cycle |= is_cycle_ident(name);
                has_ms |= is_millis_ident(name);
            }
            Tok::Punct('+') => op_line = op_line.or(Some(toks[k].line)),
            // `-` is additive unless it is half of a `->` return arrow.
            Tok::Punct('-') if !is_punct(toks, k + 1, '>') => {
                op_line = op_line.or(Some(toks[k].line));
            }
            // `<`/`>` count only between value operands, which excludes
            // generics (`Vec<Cycle>`), arrows and turbofish.
            Tok::Punct('<' | '>')
                if k > start && is_value_operand(toks, k - 1) && is_value_operand(toks, k + 1) =>
            {
                op_line = op_line.or(Some(toks[k].line));
            }
            _ => {}
        }
    }
    if has_cycle && has_ms {
        if let Some(line) = op_line {
            push(
                raw,
                RuleId::R12,
                file,
                line,
                "expression mixes cycle-domain and millisecond-domain values \
                 (Cycle is a bare u64 — the compiler cannot catch this)"
                    .into(),
            );
        }
    }
}

/// Per-token "is inside a `fn new` body" mask (R8's constructor
/// exemption). Scans for `fn new`, skips the signature to the opening
/// brace (or a terminating `;` for trait declarations), and masks the
/// braced body.
pub(crate) fn ctor_mask(toks: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if ident_at(toks, i) != Some("fn") || ident_at(toks, i + 1) != Some("new") {
            i += 1;
            continue;
        }
        let mut k = i + 2;
        let mut body_end = i + 1;
        // Depth guard: `;` inside `[u8; 4]`-style parameter types must
        // not terminate the signature scan early.
        let mut depth = 0i32;
        while k < toks.len() {
            match toks[k].tok {
                Tok::Punct('(' | '[') => depth += 1,
                Tok::Punct(')' | ']') => depth -= 1,
                Tok::Punct(';') if depth == 0 => {
                    body_end = k;
                    break;
                }
                Tok::Punct('{') if depth == 0 => {
                    body_end = matching(toks, k, '{', '}').unwrap_or(toks.len() - 1);
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        for m in mask.iter_mut().take(body_end + 1).skip(i) {
            *m = true;
        }
        i = body_end + 1;
    }
    mask
}

/// Sort by position and drop same-rule/same-line duplicates (a single
/// expression can trip one matcher several times).
fn dedupe(raw: &mut Vec<Finding>) {
    raw.sort_by(|a, b| {
        (a.line, a.rule, a.message.as_str()).cmp(&(b.line, b.rule, b.message.as_str()))
    });
    raw.dedup_by(|a, b| a.rule == b.rule && a.line == b.line);
}

/// Pull `--flag` words out of a string literal (usage text, match arms).
fn extract_flags(s: &str) -> Vec<String> {
    let b: Vec<char> = s.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 2 < b.len() {
        if b[i] == '-'
            && b[i + 1] == '-'
            && b[i + 2].is_ascii_lowercase()
            && (i == 0 || (b[i - 1] != '-' && !b[i - 1].is_ascii_alphanumeric()))
        {
            let mut j = i + 2;
            while j < b.len() && (b[j].is_ascii_lowercase() || b[j].is_ascii_digit() || b[j] == '-')
            {
                j += 1;
            }
            out.push(b[i..j].iter().collect());
            i = j;
        } else {
            i += 1;
        }
    }
    out
}

/// Is a string literal exactly a `GAT_*` knob name?
fn is_gat_knob_name(s: &str) -> bool {
    s.strip_prefix("GAT_").is_some_and(|rest| {
        !rest.is_empty()
            && rest
                .chars()
                .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(l: &FileLint) -> Vec<&'static str> {
        l.findings.iter().map(|f| f.rule.as_str()).collect()
    }

    const SIM_PATH: &str = "crates/cache/src/fixture.rs";

    #[test]
    fn flags_are_extracted_from_usage_strings_and_match_arms() {
        assert_eq!(
            extract_flags("usage: runsim [--scale N] [--gpu-ways K] -- --3d x--y"),
            vec!["--scale", "--gpu-ways"]
        );
        assert_eq!(extract_flags("--out"), vec!["--out"]);
        assert!(extract_flags("a - b -- c").is_empty());
    }

    #[test]
    fn gat_knob_names_are_exact_literals_only() {
        assert!(is_gat_knob_name("GAT_FAULTS"));
        assert!(is_gat_knob_name("GAT_PARANOIA"));
        assert!(!is_gat_knob_name("GAT_"));
        assert!(!is_gat_knob_name("GAT_lowercase"));
        assert!(!is_gat_knob_name("PREFIX_GAT_X"));
        assert!(!is_gat_knob_name("GAT_X extra words"));
    }

    #[test]
    fn pragma_on_preceding_line_suppresses_and_is_marked_used() {
        let src = "\
// gat-lint: allow(R5, \"test fixture\")
pub fn f(a: f64, b: f64) -> bool { a.partial_cmp(&b).unwrap().is_lt() }
";
        let l = lint_file(SIM_PATH, src);
        assert!(l.findings.is_empty(), "{:?}", l.findings);
        assert!(l.pragmas[0].used);
    }

    const TICK_PATH: &str = "crates/dram/src/channel.rs";

    #[test]
    fn r8_constructor_exemption_ends_with_the_body() {
        let src = r#"
            pub fn new(xs: [u8; 4]) -> Self { Self { xs, q: Vec::new() } }
            pub fn drain(&mut self) -> Vec<u64> { self.q.drain(..).collect::<Vec<_>>() }
        "#;
        let l = lint_file(TICK_PATH, src);
        assert_eq!(rules_of(&l), vec!["R8"], "{:?}", l.findings);
        assert_eq!(l.findings[0].line, 3);
    }
}
