//! Finding model and rendering (text and JSONL).

use gat_sim::json::Obj;

/// The rule catalog. Ids are stable: they appear in pragmas, CI logs and
/// the JSONL export, so renaming one is a breaking change to suppression
/// comments across the tree. Clippy enforces R1–R4, R9 and R11
/// (`clippy.toml`, DESIGN.md §10), so those ids are not pragma names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// NaN-unsafe float comparison patterns.
    R5,
    /// CLI flags / `GAT_*` knobs missing from the documentation.
    R6,
    /// Per-tick heap allocation (`Vec::new`, `vec![..]`, `Box::new`,
    /// `.collect::<Vec<..>>()`) in a tick-path module. Tick-path state
    /// lives in containers allocated at setup and reused across ticks;
    /// a fresh allocation on the tick path silently re-opens a per-cycle
    /// cost. Constructors (`fn new`) are exempt —
    /// setup-time allocation is the point of a pool.
    R8,
    /// Unit confusion: one expression mixing `Cycle`-flavoured values
    /// with wall-clock milliseconds (`*_ms`, `Duration`) via `+ - < >`
    /// in sim crates. Cycles and milliseconds are both bare u64s, so the
    /// type system cannot catch the mix-up.
    R12,
    /// Pragma problems: malformed, unknown rule, or unused suppression.
    Pragma,
}

/// All catalog rules in order, for `--list-rules` and per-rule summary
/// counts. `Pragma` is included — its findings appear in exports and CI
/// logs like any other.
pub const ALL_RULES: &[RuleId] = &[
    RuleId::R5,
    RuleId::R6,
    RuleId::R8,
    RuleId::R12,
    RuleId::Pragma,
];

impl RuleId {
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::R5 => "R5",
            RuleId::R6 => "R6",
            RuleId::R8 => "R8",
            RuleId::R12 => "R12",
            RuleId::Pragma => "pragma",
        }
    }

    /// One-line summary for `--list-rules` and the DESIGN.md catalog.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::R5 => "no NaN-unsafe float comparisons",
            RuleId::R6 => "CLI flags and GAT_* knobs must be documented",
            RuleId::R8 => "no per-tick heap allocation in tick-path modules",
            RuleId::R12 => "no arithmetic mixing Cycle values with wall-clock milliseconds",
            RuleId::Pragma => "pragmas must be well-formed, known, and in active use",
        }
    }

    /// The id as written inside `allow(...)` pragmas. `Pragma` findings
    /// are not suppressible (a suppression of the suppression checker
    /// would be a hole in the gate), so it has no pragma name.
    pub fn from_pragma_name(name: &str) -> Option<Self> {
        let suppressible = ALL_RULES.iter().filter(|r| **r != RuleId::Pragma);
        suppressible.copied().find(|r| r.as_str() == name)
    }

    /// One-line fix hint attached to every finding of this rule.
    pub fn hint(self) -> &'static str {
        match self {
            RuleId::R5 => "use f64::total_cmp for ordering, or guard the comparison against NaN explicitly",
            RuleId::R6 => "document the name, or remove the dead flag/knob",
            RuleId::R8 => {
                "reuse a struct-owned container (clear it, keep its storage); allocation belongs in the constructor, not the tick"
            }
            RuleId::R12 => {
                "convert at the boundary (cycles_per_ms) and keep each expression in one unit; rename the variable if it is not milliseconds"
            }
            RuleId::Pragma => {
                "fix the pragma: gat-lint: allow(RULE, \"reason\") with a rule from --list-rules; delete it if the violation is gone"
            }
        }
    }
}

/// One linter finding, anchored to a file:line span.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: RuleId,
    pub file: String,
    pub line: u32,
    pub message: String,
}

impl Finding {
    /// Human-readable single line: `file:line: rule: message (hint: …)`.
    pub fn render_text(&self) -> String {
        format!(
            "{}:{}: {}: {} (hint: {})",
            self.file,
            self.line,
            self.rule.as_str(),
            self.message,
            self.rule.hint()
        )
    }

    /// One JSONL object, in the observability layer's output grammar.
    pub fn to_json(&self) -> String {
        Obj::new()
            .str("type", "lint_finding")
            .str("rule", self.rule.as_str())
            .str("file", &self.file)
            .u64("line", u64::from(self.line))
            .str("message", &self.message)
            .str("hint", self.rule.hint())
            .finish()
    }
}

/// The `{"type":"lint_summary",...}` trailer line, with per-rule counts
/// (every catalog rule appears, zero or not, so dashboards diffing two
/// runs never chase a missing key).
pub fn summary_json(files_scanned: usize, findings: &[Finding]) -> String {
    let mut by_rule = String::from("{");
    for (i, r) in ALL_RULES.iter().enumerate() {
        let n = findings.iter().filter(|f| f.rule == *r).count();
        if i > 0 {
            by_rule.push(',');
        }
        by_rule.push_str(&format!("\"{}\":{}", r.as_str(), n));
    }
    by_rule.push('}');
    Obj::new()
        .str("type", "lint_summary")
        .u64("files_scanned", files_scanned as u64)
        .u64("findings", findings.len() as u64)
        .raw("by_rule", &by_rule)
        .bool("clean", findings.is_empty())
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gat_sim::json::validate_json_line;

    #[test]
    fn text_rendering_is_clickable_and_tagged() {
        let f = Finding {
            rule: RuleId::R8,
            file: "crates/cache/src/mshr.rs".into(),
            line: 42,
            message: "per-tick heap allocation".into(),
        };
        let t = f.render_text();
        assert!(t.starts_with("crates/cache/src/mshr.rs:42: R8: "));
        assert!(t.contains("hint: "));
    }

    #[test]
    fn every_rule_id_round_trips_except_pragma() {
        for r in ALL_RULES.iter().copied() {
            if r == RuleId::Pragma {
                assert_eq!(RuleId::from_pragma_name(r.as_str()), None);
            } else {
                assert_eq!(RuleId::from_pragma_name(r.as_str()), Some(r));
            }
            // Catalog metadata exists for every rule.
            assert!(!r.summary().is_empty());
            assert!(!r.hint().is_empty());
        }
        for retired in ["R1", "R2", "R3", "R4", "R7", "R9", "R10", "R11", "R13"] {
            assert_eq!(RuleId::from_pragma_name(retired), None);
        }
    }

    #[test]
    fn summary_reports_per_rule_counts() {
        let f = Finding {
            rule: RuleId::R12,
            file: "crates/hetero/src/system.rs".into(),
            line: 9,
            message: "cycles mixed with milliseconds".into(),
        };
        let s = summary_json(5, &[f.clone(), f]);
        validate_json_line(&s).unwrap();
        assert!(s.contains("\"R12\":2"), "{s}");
        assert!(s.contains("\"R8\":0"), "{s}");
        assert!(!s.contains("\"R11\""), "{s}");
    }
}
