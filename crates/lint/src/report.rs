//! Finding model and rendering (text and JSONL).

use gat_sim::json::Obj;

/// The rule catalog. Ids are stable: they appear in pragmas, CI logs and
/// the JSONL export, so renaming one is a breaking change to suppression
/// comments across the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Unordered std hash collections in sim-state crates.
    R1,
    /// Ambient nondeterminism: wall clocks, threads, env reads, OS RNG.
    R2,
    /// `SimRng` construction/forking outside approved modules.
    R3,
    /// Direct stdout/stderr printing from library crates.
    R4,
    /// NaN-unsafe float comparison patterns.
    R5,
    /// CLI flags / `GAT_*` knobs missing from the documentation.
    R6,
    /// Per-tick heap allocation (`Vec::new`, `vec![..]`, `Box::new`,
    /// `.collect::<Vec<..>>()`) in a tick-path module. PR 8 moved the
    /// busy-path request state onto slabs, intrusive lists and reused
    /// scratch buffers; a fresh allocation on the tick path silently
    /// re-opens that per-cycle cost. Constructors (`fn new`) are exempt —
    /// setup-time allocation is the point of a pool.
    R8,
    /// Panic-flow capture (`catch_unwind`, `panic::set_hook`,
    /// `panic::take_hook`) outside the serve supervisor. The batch
    /// engine's job isolation boundary is the one sanctioned place to
    /// swallow a panic; anywhere else it converts an invariant violation
    /// into silently-wrong simulator state.
    R9,
    /// Match-exhaustiveness drift: a `_` arm in a `match` over a guarded
    /// enum (`SimError`, `JobOutcome`, `QosEvent`) inside library
    /// crates. Wildcards silently swallow variants added by later PRs;
    /// listing every variant makes the compiler flag each consumer.
    R11,
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
    RuleId::R1,
    RuleId::R2,
    RuleId::R3,
    RuleId::R4,
    RuleId::R5,
    RuleId::R6,
    RuleId::R8,
    RuleId::R9,
    RuleId::R11,
    RuleId::R12,
    RuleId::Pragma,
];

impl RuleId {
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::R1 => "R1",
            RuleId::R2 => "R2",
            RuleId::R3 => "R3",
            RuleId::R4 => "R4",
            RuleId::R5 => "R5",
            RuleId::R6 => "R6",
            RuleId::R8 => "R8",
            RuleId::R9 => "R9",
            RuleId::R11 => "R11",
            RuleId::R12 => "R12",
            RuleId::Pragma => "pragma",
        }
    }

    /// One-line summary for `--list-rules` and the DESIGN.md catalog.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::R1 => "no std HashMap/HashSet in sim-state crates",
            RuleId::R2 => "no ambient nondeterminism (clocks, threads, env, OS RNG)",
            RuleId::R3 => "SimRng construction/forking only in approved modules",
            RuleId::R4 => "no direct stdout/stderr printing from library crates",
            RuleId::R5 => "no NaN-unsafe float comparisons",
            RuleId::R6 => "CLI flags and GAT_* knobs must be documented",
            RuleId::R8 => "no per-tick heap allocation in tick-path modules",
            RuleId::R9 => "no panic capture outside the serve supervisor",
            RuleId::R11 => "no `_` arms in matches over SimError/JobOutcome/QosEvent",
            RuleId::R12 => "no arithmetic mixing Cycle values with wall-clock milliseconds",
            RuleId::Pragma => "pragmas must be well-formed, known, and in active use",
        }
    }

    /// The id as written inside `allow(...)` pragmas. `Pragma` findings
    /// are not suppressible (a suppression of the suppression checker
    /// would be a hole in the gate), so it has no pragma name.
    pub fn from_pragma_name(name: &str) -> Option<Self> {
        match name {
            "R1" => Some(RuleId::R1),
            "R2" => Some(RuleId::R2),
            "R3" => Some(RuleId::R3),
            "R4" => Some(RuleId::R4),
            "R5" => Some(RuleId::R5),
            "R6" => Some(RuleId::R6),
            "R8" => Some(RuleId::R8),
            "R9" => Some(RuleId::R9),
            "R11" => Some(RuleId::R11),
            "R12" => Some(RuleId::R12),
            _ => None,
        }
    }

    /// One-line fix hint attached to every finding of this rule.
    pub fn hint(self) -> &'static str {
        match self {
            RuleId::R1 => {
                "use gat_sim::hashing::{FastMap, FastSet} (deterministic hasher) or BTreeMap/BTreeSet (ordered iteration)"
            }
            RuleId::R2 => {
                "simulated behaviour may only depend on the config and the Cycle timeline; env knobs go through gat_sim::knobs"
            }
            RuleId::R3 => {
                "accept a SimRng (or a fork) as a constructor argument; streams are created in config/fault-plan modules only"
            }
            RuleId::R4 => "emit through the events/metrics layer (gat_sim::events, gat_sim::metrics)",
            RuleId::R5 => "use f64::total_cmp for ordering, or guard the comparison against NaN explicitly",
            RuleId::R6 => "document the name, or remove the dead flag/knob",
            RuleId::R8 => {
                "reuse a struct-owned scratch buffer or slab handle; allocation belongs in the constructor, not the tick"
            }
            RuleId::R9 => {
                "let the panic propagate (or return a typed error); per-job isolation lives in gat-serve's supervisor"
            }
            RuleId::R11 => {
                "list every variant explicitly so new variants are compile errors at each consumer, not silently swallowed"
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
            rule: RuleId::R1,
            file: "crates/cache/src/mshr.rs".into(),
            line: 42,
            message: "std HashMap".into(),
        };
        let t = f.render_text();
        assert!(t.starts_with("crates/cache/src/mshr.rs:42: R1: "));
        assert!(t.contains("hint: "));
    }

    #[test]
    fn json_lines_validate() {
        let f = Finding {
            rule: RuleId::R6,
            file: "crates/bench/src/bin/runsim.rs".into(),
            line: 7,
            message: "flag \"--weird\" not in README.md".into(),
        };
        validate_json_line(&f.to_json()).unwrap();
        validate_json_line(&summary_json(3, &[f])).unwrap();
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
        for retired in ["R7", "R10", "R13"] {
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
        assert!(s.contains("\"R11\":0"), "{s}");
    }
}
