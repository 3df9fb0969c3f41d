//! The determinism rules (R1–R5), the tick-path allocation rule (R8),
//! the panic-isolation rule (R9), the match-wildcard rule (R11) and the
//! unit-mixing rule (R12) over one file's token stream, plus the raw
//! material (flag and knob literals) for the cross-file rule R6.
//!
//! Every matcher works on the comment-free token stream from
//! [`crate::lexer`]; spans are line-granular, which is enough for a
//! clickable `file:line` and for line-scoped pragma suppression.
//!
//! Code under `#[test]` / `#[cfg(test)]` items is exempt from R1–R5:
//! the contract governs simulator state, and test harness code routinely
//! (and harmlessly) builds private RNGs or scratch hash sets. The
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
    /// R1–R5 findings surviving suppression, plus pragma-syntax errors.
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
        check_r1_hash_collections(rel_path, toks, &in_test, &mut raw);
        check_r2_ambient(rel_path, toks, &in_test, &mut raw);
        check_r3_rng(rel_path, toks, &in_test, &mut raw);
        check_r4_printing(rel_path, toks, &in_test, &mut raw);
        check_r5_nan(rel_path, toks, &in_test, &mut raw);
        check_r8_tick_alloc(rel_path, toks, &in_test, &mut raw);
        check_r12_unit_mix(rel_path, toks, &in_test, &mut raw);
    }
    // R9 runs for every scanned class — a stray catch_unwind in bench or
    // serve code hides job corruption just as well as one in a sim crate.
    check_r9_panic_capture(rel_path, toks, &in_test, &mut raw);
    // R11 covers library code (sim and tool libs); bench *binaries* may
    // wildcard freely — their match arms are CLI plumbing, and a missed
    // variant there fails loudly at the terminal.
    if matches!(class, FileClass::SimLib | FileClass::ToolLib) {
        check_r11_match_wildcard(rel_path, toks, &in_test, &mut raw);
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

/// R1: `HashMap`/`HashSet` anywhere in sim-state code. The names alone
/// are the violation — even `std::collections::HashMap` spelled out with
/// a deterministic-looking comment still iterates in hasher order.
fn check_r1_hash_collections(file: &str, toks: &[Token], in_test: &[bool], raw: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        if let Some(name @ ("HashMap" | "HashSet")) = ident_at(toks, i) {
            push(
                raw,
                RuleId::R1,
                file,
                t.line,
                format!("std {name} in sim-state code: iteration order is hasher-dependent"),
            );
        }
    }
}

/// R2: wall clocks, spawned threads, environment reads and the OS RNG.
fn check_r2_ambient(file: &str, toks: &[Token], in_test: &[bool], raw: &mut Vec<Finding>) {
    let env_ok = policy::is_env_knob_module(file);
    for (i, t) in toks.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        match ident_at(toks, i) {
            Some(name @ ("Instant" | "SystemTime")) => push(
                raw,
                RuleId::R2,
                file,
                t.line,
                format!("wall-clock type {name} in sim-state code"),
            ),
            Some("thread_rng") => push(
                raw,
                RuleId::R2,
                file,
                t.line,
                "ambient OS-seeded RNG (thread_rng)".into(),
            ),
            _ => {}
        }
        if path_step(toks, i, "std", "thread") {
            push(
                raw,
                RuleId::R2,
                file,
                t.line,
                "std::thread in sim-state code: scheduling order is ambient".into(),
            );
        }
        if !env_ok
            && (path_step(toks, i, "std", "env")
                || (path_step(toks, i, "env", "var")
                    || path_step(toks, i, "env", "var_os")
                    || path_step(toks, i, "env", "vars")
                    || path_step(toks, i, "env", "args")))
        {
            push(
                raw,
                RuleId::R2,
                file,
                t.line,
                "environment read outside the approved knob module (gat_sim::knobs)".into(),
            );
        }
    }
}

/// R3: `SimRng::new(..)` / `.fork(..)` outside approved modules.
fn check_r3_rng(file: &str, toks: &[Token], in_test: &[bool], raw: &mut Vec<Finding>) {
    if policy::is_rng_module(file) {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        if path_step(toks, i, "SimRng", "new") {
            push(
                raw,
                RuleId::R3,
                file,
                t.line,
                "SimRng constructed outside approved config/fault-plan modules".into(),
            );
        }
        if is_punct(toks, i, '.')
            && ident_at(toks, i + 1) == Some("fork")
            && is_punct(toks, i + 2, '(')
        {
            push(
                raw,
                RuleId::R3,
                file,
                t.line,
                "RNG stream forked outside approved config/fault-plan modules".into(),
            );
        }
    }
}

/// R4: direct terminal output from library code.
fn check_r4_printing(file: &str, toks: &[Token], in_test: &[bool], raw: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        if let Some(name @ ("println" | "print" | "eprintln" | "eprint" | "dbg")) =
            ident_at(toks, i)
        {
            if is_punct(toks, i + 1, '!') {
                push(
                    raw,
                    RuleId::R4,
                    file,
                    t.line,
                    format!("{name}! in a library crate"),
                );
            }
        }
    }
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
/// The busy-path overhaul (DESIGN.md §11) hoisted per-cycle allocation
/// into constructor-time pools — slabs, intrusive free lists, reused
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

/// R9: panic-flow capture outside the approved isolation boundary
/// (`policy::PANIC_ISOLATION_MODULES` — the serve supervisor). Matches
/// the `catch_unwind` ident anywhere (free fn, `panic::catch_unwind`,
/// future-style `.catch_unwind()`) plus `panic::set_hook` /
/// `panic::take_hook` path steps. Test-gated code is exempt: harnesses
/// legitimately observe panics (`#[should_panic]` machinery, proptest
/// shrinking), and the contract polices shipped behaviour.
fn check_r9_panic_capture(file: &str, toks: &[Token], in_test: &[bool], raw: &mut Vec<Finding>) {
    if policy::is_panic_isolation_module(file) {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        if ident_at(toks, i) == Some("catch_unwind") {
            push(
                raw,
                RuleId::R9,
                file,
                t.line,
                "catch_unwind outside the serve supervisor's isolation boundary".into(),
            );
        }
        if path_step(toks, i, "panic", "set_hook") || path_step(toks, i, "panic", "take_hook") {
            push(
                raw,
                RuleId::R9,
                file,
                t.line,
                "panic hook manipulation outside the serve supervisor".into(),
            );
        }
    }
}

/// R11: `_` arms in `match`es whose *patterns* name a guarded enum
/// (`policy::GUARDED_ENUMS`). Guardedness is read off the arm patterns —
/// `JobOutcome::Done => …` — not the scrutinee, whose type the linter
/// cannot see; a match that never names a guarded enum in a pattern is
/// left alone even if its arm bodies construct one.
fn check_r11_match_wildcard(file: &str, toks: &[Token], in_test: &[bool], raw: &mut Vec<Finding>) {
    let mut i = 0usize;
    while i < toks.len() {
        if in_test[i] || ident_at(toks, i) != Some("match") {
            i += 1;
            continue;
        }
        // The body is the first `{` after the scrutinee at bracket depth
        // 0 (struct literals inside the scrutinee are parenthesized by
        // rustfmt in match position, so depth-0 is the body in practice).
        let mut k = i + 1;
        let mut depth = 0i32;
        let mut open = None;
        while k < toks.len() {
            match toks[k].tok {
                Tok::Punct('(' | '[') => depth += 1,
                Tok::Punct(')' | ']') => depth -= 1,
                Tok::Punct('{') if depth <= 0 => {
                    open = Some(k);
                    break;
                }
                Tok::Punct(';') if depth <= 0 => break,
                _ => {}
            }
            k += 1;
        }
        let Some(open) = open else {
            i += 1;
            continue;
        };
        let close = matching(toks, open, '{', '}').unwrap_or(toks.len().saturating_sub(1));
        // Walk the arms: combined bracket depth starts at 1 inside the
        // body; `=>` at depth 1 enters the arm value, `,` at depth 1 (or
        // an arm block closing back to depth 1) returns to pattern
        // position.
        let mut d = 1i32;
        let mut in_pattern = true;
        let mut guarded = false;
        let mut wildcards: Vec<u32> = Vec::new();
        let mut k = open + 1;
        while k < close {
            match &toks[k].tok {
                Tok::Punct('{' | '(' | '[') => d += 1,
                Tok::Punct('}' | ')' | ']') => {
                    d -= 1;
                    if d == 1 {
                        in_pattern = true;
                    }
                }
                Tok::Punct('=') if d == 1 && is_punct(toks, k + 1, '>') => {
                    if in_pattern
                        && ident_at(toks, k - 1) == Some("_")
                        && !is_punct(toks, k.wrapping_sub(2), ':')
                    {
                        wildcards.push(toks[k - 1].line);
                    }
                    in_pattern = false;
                    k += 1; // consume the '>'
                }
                Tok::Punct(',') if d == 1 => in_pattern = true,
                Tok::Ident(name)
                    if in_pattern
                        && policy::GUARDED_ENUMS.contains(&name.as_str())
                        && is_punct(toks, k + 1, ':')
                        && is_punct(toks, k + 2, ':') =>
                {
                    guarded = true;
                }
                _ => {}
            }
            k += 1;
        }
        if guarded {
            for line in wildcards {
                push(
                    raw,
                    RuleId::R11,
                    file,
                    line,
                    "`_` arm in a match over a guarded enum (SimError/JobOutcome/QosEvent) \
                     swallows variants added later"
                        .into(),
                );
            }
        }
        i = open + 1; // nested matches inside arm bodies are scanned too
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
    fn test_gated_code_is_exempt() {
        let src = r#"
            pub fn prod() {}
            #[cfg(test)]
            mod tests {
                use std::collections::HashMap;
                #[test]
                fn t() {
                    let _ = std::time::Instant::now();
                }
            }
        "#;
        let l = lint_file(SIM_PATH, src);
        assert!(l.findings.is_empty(), "{:?}", l.findings);
    }

    #[test]
    fn the_same_code_outside_tests_is_flagged() {
        let src = r#"
            use std::collections::HashMap;
            pub fn prod() {
                let _ = std::time::Instant::now();
            }
        "#;
        let l = lint_file(SIM_PATH, src);
        assert_eq!(rules_of(&l), vec!["R1", "R2"]);
    }

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
// gat-lint: allow(R2, \"test fixture\")
pub fn f() -> std::time::Instant { std::time::Instant::now() }
";
        let l = lint_file(SIM_PATH, src);
        assert!(l.findings.is_empty(), "{:?}", l.findings);
        assert!(l.pragmas[0].used);
    }

    #[test]
    fn pragma_for_the_wrong_rule_does_not_suppress() {
        let src = "\
// gat-lint: allow(R1, \"wrong rule\")
pub fn f() -> std::time::Instant { std::time::Instant::now() }
";
        let l = lint_file(SIM_PATH, src);
        assert_eq!(rules_of(&l), vec!["R2"]);
        assert!(!l.pragmas[0].used);
    }

    #[test]
    fn unknown_rule_in_pragma_is_a_finding() {
        let l = lint_file(SIM_PATH, "// gat-lint: allow(R42, \"nope\")\n");
        assert_eq!(rules_of(&l), vec!["pragma"]);
    }

    const TICK_PATH: &str = "crates/dram/src/channel.rs";

    #[test]
    fn r8_flags_each_allocation_form_on_the_tick_path() {
        let src = r#"
            pub fn tick(&mut self) {
                let a: Vec<u64> = Vec::new();
                let b = vec![0u8; 4];
                let c = Box::new(7u64);
                let d = a.iter().copied().collect::<Vec<_>>();
            }
        "#;
        let l = lint_file(TICK_PATH, src);
        assert_eq!(
            rules_of(&l),
            vec!["R8", "R8", "R8", "R8"],
            "{:?}",
            l.findings
        );
    }

    #[test]
    fn r8_is_scoped_to_tick_path_modules_only() {
        let src =
            "pub fn tick(&mut self) { let _ = Vec::<u64>::new(); let x: Vec<u64> = Vec::new(); }";
        assert!(lint_file("crates/hetero/src/config.rs", src)
            .findings
            .is_empty());
        assert_eq!(rules_of(&lint_file(TICK_PATH, src)), vec!["R8"]);
    }

    #[test]
    fn r8_exempts_constructors_and_tests() {
        let src = r#"
            impl Pool {
                pub fn new(n: usize) -> Self {
                    Self { slots: vec![0; n], spill: Vec::new() }
                }
            }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() {
                    let _ = Vec::<u64>::new();
                    let _ = vec![1, 2, 3];
                }
            }
        "#;
        let l = lint_file(TICK_PATH, src);
        assert!(l.findings.is_empty(), "{:?}", l.findings);
    }

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

    #[test]
    fn r8_suppressible_with_a_reasoned_pragma() {
        let src = "\
// gat-lint: allow(R8, \"cold diagnostic path, runs once per dump\")
pub fn dump(&self) -> Vec<u64> { self.q.iter().copied().collect::<Vec<_>>() }
";
        let l = lint_file(TICK_PATH, src);
        assert!(l.findings.is_empty(), "{:?}", l.findings);
        assert!(l.pragmas[0].used);
    }

    #[test]
    fn r9_flags_panic_capture_in_every_scanned_class() {
        let src = r#"
            pub fn shield(f: impl FnOnce()) {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            }
        "#;
        for path in [
            "crates/hetero/src/fixture.rs",
            "crates/serve/src/pool.rs",
            "crates/bench/src/bin/fixture.rs",
        ] {
            let l = lint_file(path, src);
            assert!(
                l.findings.iter().any(|f| f.rule == RuleId::R9),
                "{path}: {:?}",
                l.findings
            );
        }
        let hooks = r#"
            pub fn install() {
                let prev = std::panic::take_hook();
                std::panic::set_hook(Box::new(move |i| prev(i)));
            }
        "#;
        let l = lint_file("crates/serve/src/pool.rs", hooks);
        assert_eq!(
            l.findings.iter().filter(|f| f.rule == RuleId::R9).count(),
            2,
            "{:?}",
            l.findings
        );
    }

    #[test]
    fn r9_exempts_the_supervisor_and_test_code() {
        let src = r#"
            pub fn isolate(f: impl FnOnce()) {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
                let prev = std::panic::take_hook();
                std::panic::set_hook(Box::new(move |i| prev(i)));
            }
        "#;
        let l = lint_file("crates/serve/src/supervisor.rs", src);
        assert!(l.findings.is_empty(), "{:?}", l.findings);
        let test_src = r#"
            #[cfg(test)]
            mod tests {
                #[test]
                fn observes_a_panic() {
                    let _ = std::panic::catch_unwind(|| panic!("x"));
                }
            }
        "#;
        let l = lint_file("crates/hetero/src/fixture.rs", test_src);
        assert!(l.findings.is_empty(), "{:?}", l.findings);
    }

    #[test]
    fn r9_suppressible_with_a_reasoned_pragma() {
        let src = "\
// gat-lint: allow(R9, \"FFI boundary must not unwind\")
pub fn guard(f: impl FnOnce()) { let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)); }
";
        let l = lint_file("crates/bench/src/lib.rs", src);
        assert!(l.findings.is_empty(), "{:?}", l.findings);
        assert!(l.pragmas[0].used);
    }
}
