//! The approved `GAT_*` environment-knob module.
//!
//! The determinism contract (DESIGN.md §10, rule R2, enforced by
//! clippy's `disallowed_methods`) forbids ambient-environment reads
//! inside simulator crates: an `std::env::var` call buried in a
//! component makes a run's behaviour depend on invisible process state,
//! which is exactly the class of bug the byte-identical golden snapshots
//! exist to catch. Every environment
//! knob the simulator honours therefore lives *here*, in one auditable
//! module, and nowhere else:
//!
//! | variable             | accessor            | effect                          |
//! |----------------------|---------------------|---------------------------------|
//! | `GAT_PARANOIA`       | [`paranoia`]        | per-tick invariant sweeps       |
//! | `GAT_FAULTS`         | [`faults_spec`]     | default fault-injection plan    |
//!
//! Knobs are read at system-construction time only — never per tick — so
//! a run's configuration is fixed the moment the machine is built. Adding
//! a knob means adding an accessor here *and* documenting it in DESIGN.md
//! (`tests/lint_rules.rs` checks every literal here against DESIGN.md).

#![expect(
    clippy::disallowed_methods,
    reason = "R2: the one module allowed to read GAT_* environment knobs"
)]

/// True when boolean knob `name` is set to a non-empty value other than
/// `"0"`. This is the shared on/off grammar for all `GAT_*` switches:
/// `GAT_PARANOIA=1` enables, `GAT_PARANOIA=0` / unset / empty disables.
fn switch(name: &str) -> bool {
    std::env::var_os(name).is_some_and(|v| !v.is_empty() && v != "0")
}

/// `GAT_PARANOIA`: enable per-tick structural invariant sweeps (MSHR
/// leaks, ATU token conservation, queue bounds, epoch monotonicity; see
/// DESIGN.md §9). Expensive; intended for CI sweeps and debugging.
pub fn paranoia() -> bool {
    switch("GAT_PARANOIA")
}

/// `GAT_FAULTS`: the default fault-injection spec applied when a binary
/// is not given an explicit `--faults` plan. `None` when unset or blank;
/// the raw spec string is returned unparsed so the fault-plan parser
/// (`crate::faults::FaultPlan::parse`) stays the single grammar owner.
pub fn faults_spec() -> Option<String> {
    match std::env::var("GAT_FAULTS") {
        Ok(spec) if !spec.trim().is_empty() => Some(spec),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The switch grammar is pinned here without mutating the process
    // environment (tests run multi-threaded; `set_var` would race other
    // tests that read the same knobs).
    #[test]
    fn switch_grammar_unset_means_off() {
        assert!(!switch("GAT_KNOB_THAT_IS_NEVER_SET"));
    }

    #[test]
    fn faults_spec_unset_means_none() {
        // Only valid when the suite runs without an ambient plan; guard so
        // a developer exporting GAT_FAULTS doesn't see a spurious failure.
        if std::env::var_os("GAT_FAULTS").is_none() {
            assert_eq!(faults_spec(), None);
        }
    }
}
