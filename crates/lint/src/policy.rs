//! What gets linted, and which modules are on the tick path.
//!
//! The source-level contract applies to *simulator state* — code whose
//! behaviour feeds the byte-identical exports. Tooling (the bench CLIs,
//! the serve engine, this linter, the proptest shim) is outside it. This module is the single place that boundary is drawn for the
//! gat-lint rules, so adding a crate to the contract is a one-line change
//! reviewed like any other. The clippy half of the contract (R1–R4, R9,
//! R11) draws the same boundary with crate-root opt-in lines instead
//! (DESIGN.md §10).

/// Crates whose `src/` trees hold simulator state and are subject to
/// rules R5, R8 and R12.
pub const SIM_CRATES: &[&str] = &[
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

/// Modules on the per-cycle tick path, subject to the allocation rule
/// R8. These layers keep their per-cycle state in containers allocated
/// at setup and reused across ticks (DESIGN.md §11); a fresh heap
/// allocation in one of them is per-tick cost until proven otherwise
/// with a reasoned pragma. Constructors (`fn new`) are exempt
/// inside these files — pools are *supposed* to allocate at setup.
pub const TICK_PATH_MODULES: &[&str] = &[
    "crates/cache/src/mshr.rs",
    "crates/cpu/src/hierarchy.rs",
    "crates/dram/src/channel.rs",
    "crates/dram/src/sched.rs",
    "crates/gpu/src/caches.rs",
    "crates/hetero/src/uncore.rs",
    "crates/ring/src/lib.rs",
];

/// Directory holding the bench binaries whose `--flag` vocabulary rule
/// R6 cross-checks against README.md.
pub const BENCH_BIN_DIR: &str = "crates/bench/src/bin";

/// How a file participates in linting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Simulator-state library code: rules R5, R8 and R12 apply, plus
    /// `GAT_*` literal collection for R6.
    SimLib,
    /// A bench CLI binary: source of R6's `--flag` and `GAT_*` inventory.
    BenchBin,
    /// Scanned for `GAT_*` literals only (bench and serve library code).
    ToolLib,
    /// Not linted at all: the linter and the proptest shim, whose contract
    /// requires an ambient read (it honours `PROPTEST_CASES`), and harness
    /// code outside `src/`.
    Skip,
}

/// Classify a workspace-relative path (`crates/<name>/src/...`).
pub fn classify(rel_path: &str) -> FileClass {
    let Some(rest) = rel_path.strip_prefix("crates/") else {
        return FileClass::Skip;
    };
    let Some((krate, tail)) = rest.split_once('/') else {
        return FileClass::Skip;
    };
    if !tail.starts_with("src/") || !tail.ends_with(".rs") {
        // benches/, tests/, examples/ inside a crate are harness code.
        return FileClass::Skip;
    }
    if rel_path.starts_with(BENCH_BIN_DIR) {
        return FileClass::BenchBin;
    }
    if SIM_CRATES.contains(&krate) {
        return FileClass::SimLib;
    }
    if krate == "bench" || krate == "serve" {
        return FileClass::ToolLib;
    }
    FileClass::Skip
}

/// Is this file on the per-cycle tick path (rule R8 applies)?
pub fn is_tick_path_module(rel_path: &str) -> bool {
    TICK_PATH_MODULES.contains(&rel_path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_draws_the_contract_boundary() {
        assert_eq!(classify("crates/cache/src/mshr.rs"), FileClass::SimLib);
        assert_eq!(classify("crates/sim/src/knobs.rs"), FileClass::SimLib);
        assert_eq!(
            classify("crates/bench/src/bin/runsim.rs"),
            FileClass::BenchBin
        );
        assert_eq!(classify("crates/bench/src/lib.rs"), FileClass::ToolLib);
        assert_eq!(
            classify("crates/serve/src/supervisor.rs"),
            FileClass::ToolLib
        );
        assert_eq!(classify("crates/lint/src/main.rs"), FileClass::Skip);
        assert_eq!(classify("crates/proptest/src/lib.rs"), FileClass::Skip);
        assert_eq!(classify("crates/bench/tests/cli.rs"), FileClass::Skip);
        assert_eq!(classify("tests/chaos.rs"), FileClass::Skip);
        assert_eq!(classify("crates/cache/src/cache.md"), FileClass::Skip);
    }

    #[test]
    fn tick_path_modules_are_inside_the_sim_boundary() {
        for m in TICK_PATH_MODULES {
            assert_eq!(classify(m), FileClass::SimLib, "{m} must be SimLib");
            assert!(is_tick_path_module(m));
        }
    }
}
