//! A small hand-rolled Rust lexer.
//!
//! The linter's rules are all expressible over a comment-free token
//! stream with line spans: identifiers, punctuation, and the *contents*
//! of string literals (rule R6 scans those for `--flag` / `GAT_*`
//! mentions). The build environment has no crates-io access, so instead
//! of `syn` this module hand-rolls exactly the subset of Rust's lexical
//! grammar the rules need:
//!
//! * line comments (`//`, `///`, `//!`) and nested block comments are
//!   stripped — but line comments are first scanned for `gat-lint:`
//!   suppression pragmas (see [`Pragma`]);
//! * string literals (cooked, raw `r#"…"#`, byte) become [`Tok::Str`]
//!   tokens carrying their uninterpreted contents;
//! * char literals are distinguished from lifetimes so `'a'` never eats
//!   the rest of the file;
//! * numbers collapse to a single [`Tok::Num`] token (their value is
//!   irrelevant to every rule);
//! * everything else is an identifier or single-char punctuation —
//!   multi-char operators like `::` appear as consecutive punct tokens,
//!   which is what the rule matchers expect.
//!
//! The lexer never fails: unterminated constructs consume to end of file
//! and the rules simply see fewer tokens. A linter must not crash on the
//! code it polices.

/// One lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (`fn`, `HashMap`, `std`, …).
    Ident(String),
    /// String literal contents (quotes and `r#` fencing stripped, escape
    /// sequences left raw).
    Str(String),
    /// Single punctuation character.
    Punct(char),
    /// Numeric literal (value discarded).
    Num,
    /// Char literal (value discarded).
    Char,
    /// Lifetime (`'a`, `'static`; name discarded).
    Lifetime,
}

/// A token plus the 1-based source line it starts on.
#[derive(Debug, Clone)]
pub struct Token {
    pub tok: Tok,
    pub line: u32,
}

/// A parsed `gat-lint:` suppression pragma.
///
/// Grammar (inside a line comment):
///
/// ```text
/// // gat-lint: allow(R8, "why this allocation is off the hot path")
/// // gat-lint: allow-file(R12, "why the whole file is exempt")
/// ```
///
/// `allow` suppresses matches of the named rule on the pragma's own line
/// and on the line directly below it; `allow-file` suppresses the rule
/// for the entire file. The reason is mandatory — a suppression without
/// a recorded justification is exactly the kind of convention drift the
/// linter exists to prevent.
#[derive(Debug, Clone)]
pub struct Pragma {
    pub line: u32,
    pub rule: String,
    pub reason: String,
    pub file_level: bool,
}

/// Lexer output: the token stream, well-formed pragmas, and malformed
/// pragma comments (reported as findings by the rule engine).
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub pragmas: Vec<Pragma>,
    /// `(line, problem)` for comments that start with the pragma marker
    /// but do not parse.
    pub malformed: Vec<(u32, String)>,
}

/// Marker that introduces a pragma inside a line comment.
const PRAGMA_MARKER: &str = "gat-lint:";

/// Lex `source` into tokens + pragmas.
pub fn lex(source: &str) -> Lexed {
    let mut out = Lexed::default();
    let b: Vec<char> = source.chars().collect();
    let n = b.len();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < n {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && b[i + 1] == '/' => {
                let start = i + 2;
                let mut j = start;
                while j < n && b[j] != '\n' {
                    j += 1;
                }
                let text: String = b[start..j].iter().collect();
                scan_comment_for_pragma(&text, line, &mut out);
                i = j;
            }
            '/' if i + 1 < n && b[i + 1] == '*' => {
                // Nested block comment; pragmas are line-comment-only.
                let mut depth = 1u32;
                let mut j = i + 2;
                while j < n && depth > 0 {
                    if b[j] == '\n' {
                        line += 1;
                        j += 1;
                    } else if b[j] == '/' && j + 1 < n && b[j + 1] == '*' {
                        depth += 1;
                        j += 2;
                    } else if b[j] == '*' && j + 1 < n && b[j + 1] == '/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                i = j;
            }
            '"' => {
                let l = line;
                let (content, j) = cooked_string(&b, i + 1, &mut line);
                out.tokens.push(Token {
                    tok: Tok::Str(content),
                    line: l,
                });
                i = j;
            }
            'r' | 'b' if starts_raw_or_byte_string(&b, i) => {
                let l = line;
                let (content, j) = fenced_string(&b, i, &mut line);
                out.tokens.push(Token {
                    tok: Tok::Str(content),
                    line: l,
                });
                i = j;
            }
            '\'' => {
                let l = line;
                let (tok, j) = char_or_lifetime(&b, i, &mut line);
                out.tokens.push(Token { tok, line: l });
                i = j;
            }
            c if c.is_ascii_digit() => {
                let mut j = i + 1;
                while j < n {
                    let d = b[j];
                    if d.is_ascii_alphanumeric() || d == '_' {
                        j += 1;
                    } else if d == '.' && j + 1 < n && b[j + 1].is_ascii_digit() {
                        // Float like `1.25` — but leave `1..4` ranges alone.
                        j += 2;
                    } else {
                        break;
                    }
                }
                out.tokens.push(Token {
                    tok: Tok::Num,
                    line,
                });
                i = j;
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut j = i + 1;
                while j < n && (b[j].is_alphanumeric() || b[j] == '_') {
                    j += 1;
                }
                let ident: String = b[i..j].iter().collect();
                out.tokens.push(Token {
                    tok: Tok::Ident(ident),
                    line,
                });
                i = j;
            }
            c => {
                out.tokens.push(Token {
                    tok: Tok::Punct(c),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

/// Does `b[i..]` start a raw/byte string (`r"`, `r#`, `b"`, `br#`, …)?
/// Plain identifiers starting with `r`/`b` (like `rng`) must not match.
fn starts_raw_or_byte_string(b: &[char], i: usize) -> bool {
    let n = b.len();
    let mut j = i;
    if b[j] == 'b' {
        j += 1;
        if j < n && b[j] == '"' {
            return true; // b"…"
        }
        if j >= n || b[j] != 'r' {
            return false;
        }
    }
    // now b[j] == 'r'
    j += 1;
    while j < n && b[j] == '#' {
        j += 1;
    }
    j < n && b[j] == '"'
}

/// Consume a cooked string body starting just after the opening quote;
/// returns (contents, index just past the closing quote).
fn cooked_string(b: &[char], mut i: usize, line: &mut u32) -> (String, usize) {
    let n = b.len();
    let mut s = String::new();
    while i < n {
        match b[i] {
            '\\' if i + 1 < n => {
                // Keep the escape raw; R6's scanners treat contents as text.
                s.push(b[i]);
                s.push(b[i + 1]);
                if b[i + 1] == '\n' {
                    *line += 1;
                }
                i += 2;
            }
            '"' => return (s, i + 1),
            c => {
                if c == '\n' {
                    *line += 1;
                }
                s.push(c);
                i += 1;
            }
        }
    }
    (s, n) // unterminated: consume to EOF
}

/// Consume a raw or byte string starting at its `r`/`b`; returns
/// (contents, index past the closing fence).
fn fenced_string(b: &[char], mut i: usize, line: &mut u32) -> (String, usize) {
    let n = b.len();
    let mut raw = false;
    if b[i] == 'b' {
        i += 1;
    }
    if i < n && b[i] == 'r' {
        raw = true;
        i += 1;
    }
    let mut hashes = 0usize;
    while i < n && b[i] == '#' {
        hashes += 1;
        i += 1;
    }
    debug_assert!(i < n && b[i] == '"');
    i += 1; // opening quote
    if !raw {
        // b"…" cooked byte string
        return cooked_string(b, i, line);
    }
    let mut s = String::new();
    while i < n {
        if b[i] == '"' {
            // Candidate close: need `hashes` following '#'.
            let mut k = 0usize;
            while k < hashes && i + 1 + k < n && b[i + 1 + k] == '#' {
                k += 1;
            }
            if k == hashes {
                return (s, i + 1 + hashes);
            }
        }
        if b[i] == '\n' {
            *line += 1;
        }
        s.push(b[i]);
        i += 1;
    }
    (s, n)
}

/// Disambiguate `'a'` / `'\n'` (char literals) from `'a` / `'static`
/// (lifetimes) at a `'` in position `i`.
fn char_or_lifetime(b: &[char], i: usize, line: &mut u32) -> (Tok, usize) {
    let n = b.len();
    if i + 1 >= n {
        return (Tok::Punct('\''), n);
    }
    if b[i + 1] == '\\' {
        // Escaped char literal: skip to the closing quote.
        let mut j = i + 2;
        while j < n && b[j] != '\'' {
            if b[j] == '\n' {
                *line += 1;
            }
            j += 1;
        }
        return (Tok::Char, (j + 1).min(n));
    }
    if i + 2 < n && b[i + 2] == '\'' {
        return (Tok::Char, i + 3);
    }
    // Lifetime: consume the label.
    let mut j = i + 1;
    while j < n && (b[j].is_alphanumeric() || b[j] == '_') {
        j += 1;
    }
    (Tok::Lifetime, j.max(i + 1))
}

/// If a line comment carries the pragma marker, parse it; otherwise
/// ignore the comment. Comments that carry the marker but fail to parse
/// are recorded as malformed (the rule engine turns them into findings).
fn scan_comment_for_pragma(text: &str, line: u32, out: &mut Lexed) {
    // Strip doc-comment leaders and whitespace: `/ gat-lint: …`.
    let t = text.trim_start_matches(['/', '!']).trim_start();
    let Some(rest) = t.strip_prefix(PRAGMA_MARKER) else {
        return;
    };
    match parse_pragma_body(rest.trim()) {
        Ok((rule, reason, file_level)) => out.pragmas.push(Pragma {
            line,
            rule,
            reason,
            file_level,
        }),
        Err(problem) => out.malformed.push((line, problem)),
    }
}

/// Parse `allow(RULE, reason…)` / `allow-file(RULE, reason…)`.
fn parse_pragma_body(body: &str) -> Result<(String, String, bool), String> {
    let (file_level, rest) = if let Some(r) = body.strip_prefix("allow-file") {
        (true, r)
    } else if let Some(r) = body.strip_prefix("allow") {
        (false, r)
    } else {
        return Err(format!(
            "expected `allow(...)` or `allow-file(...)`, got {body:?}"
        ));
    };
    let rest = rest.trim_start();
    let inner = rest
        .strip_prefix('(')
        .and_then(|r| r.rfind(')').map(|e| &r[..e]))
        .ok_or_else(|| "missing parenthesized (rule, reason)".to_string())?;
    let (rule, reason) = inner
        .split_once(',')
        .ok_or_else(|| "missing reason: want allow(RULE, \"why\")".to_string())?;
    let rule = rule.trim().to_string();
    let reason = reason.trim().trim_matches('"').trim().to_string();
    if reason.is_empty() {
        return Err("empty reason: every suppression must say why".to_string());
    }
    Ok((rule, reason, file_level))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_are_not_code() {
        let src = r#"
            // HashMap in a comment
            /* HashMap in /* a nested */ block */
            let x = "HashMap in a string";
        "#;
        assert_eq!(idents(src), vec!["let", "x"]);
        let strs: Vec<String> = lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Str(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(strs, vec!["HashMap in a string"]);
    }

    #[test]
    fn raw_strings_and_escapes_terminate_correctly() {
        let src = r##"let a = r#"quote " inside"#; let b = "esc \" ape"; let c = b"bytes";"##;
        let strs: Vec<String> = lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Str(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(strs.len(), 3);
        assert_eq!(strs[0], "quote \" inside");
        assert_eq!(strs[1], "esc \\\" ape");
        assert_eq!(strs[2], "bytes");
    }

    #[test]
    fn lifetimes_do_not_eat_char_literals() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; }";
        let l = lex(src);
        let chars = l.tokens.iter().filter(|t| t.tok == Tok::Char).count();
        let lifetimes = l.tokens.iter().filter(|t| t.tok == Tok::Lifetime).count();
        assert_eq!(chars, 2);
        assert_eq!(lifetimes, 2);
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let src = "let a = 1;\nlet b = \"x\ny\";\nlet c = 2;";
        let l = lex(src);
        let c_line = l
            .tokens
            .iter()
            .find(|t| t.tok == Tok::Ident("c".into()))
            .unwrap()
            .line;
        assert_eq!(c_line, 3 + 1); // the embedded \n adds a source line
    }

    #[test]
    fn pragmas_parse_with_and_without_quotes() {
        let src = "\n// gat-lint: allow(R2, \"quoted reason\")\n// gat-lint: allow-file(R1, bare reason)\n";
        let l = lex(src);
        assert_eq!(l.pragmas.len(), 2);
        assert_eq!(l.pragmas[0].rule, "R2");
        assert_eq!(l.pragmas[0].reason, "quoted reason");
        assert!(!l.pragmas[0].file_level);
        assert_eq!(l.pragmas[0].line, 2);
        assert!(l.pragmas[1].file_level);
        assert_eq!(l.pragmas[1].reason, "bare reason");
    }

    #[test]
    fn malformed_pragmas_are_reported_not_ignored() {
        let src = "// gat-lint: allow(R2)\n// gat-lint: deny(R1, \"x\")\n";
        let l = lex(src);
        assert!(l.pragmas.is_empty());
        assert_eq!(l.malformed.len(), 2);
    }

    #[test]
    fn ordinary_comments_mentioning_the_linter_are_not_pragmas() {
        let l = lex("// see gat-lint rule R1 for why\nlet x = 1;");
        assert!(l.pragmas.is_empty());
        assert!(l.malformed.is_empty());
    }
}
