//! What gets linted, and which modules are approved exceptions.
//!
//! The determinism contract applies to *simulator state* — code whose
//! behaviour feeds the byte-identical exports. Tooling (the bench CLIs,
//! this linter, the proptest/criterion shims) may freely read clocks and
//! print to stdout; a cache model may not. This module is the single
//! place that boundary is drawn, so adding a crate to the contract is a
//! one-line change reviewed like any other.

/// Crates whose `src/` trees hold simulator state and are subject to the
/// determinism rules R1–R5.
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

/// Crates scanned for tokens but exempt from R1–R5: `bench` is CLI
/// tooling (it is still the source of R6's `--flag` inventory), `serve`
/// is the batch job engine (threads and wall deadlines are its job; its
/// determinism is pinned by output byte-identity tests, not by these
/// rules), and the shim crates reimplement external APIs whose contracts
/// require ambient reads (criterion times wall-clock by definition;
/// proptest honours `PROPTEST_CASES`). `lint` polices the others and is
/// not itself simulator state.
pub const TOOL_CRATES: &[&str] = &["bench", "serve", "lint", "proptest", "criterion"];

/// The one module allowed to read `GAT_*` environment knobs (rule R2).
pub const ENV_KNOB_MODULES: &[&str] = &["crates/sim/src/knobs.rs"];

/// Modules allowed to construct or fork [`SimRng`] streams (rule R3):
/// the RNG itself, the fault-plan module (forks per injection boundary),
/// and the system constructor (owns the root RNG derived from the
/// machine seed). Everything else must be *handed* its stream.
pub const RNG_MODULES: &[&str] = &[
    "crates/sim/src/rng.rs",
    "crates/sim/src/faults.rs",
    "crates/hetero/src/system.rs",
];

/// Modules on the per-cycle tick path, subject to the allocation rule
/// R8. These are the layers the busy-path overhaul (DESIGN.md §11) moved
/// onto slabs, intrusive lists and reused scratch buffers; a heap
/// allocation reappearing in one of them is per-tick cost until proven
/// otherwise with a reasoned pragma. Constructors (`fn new`) are exempt
/// inside these files — pools are *supposed* to allocate at setup.
pub const TICK_PATH_MODULES: &[&str] = &[
    "crates/cache/src/mshr.rs",
    "crates/cpu/src/hierarchy.rs",
    "crates/dram/src/channel.rs",
    "crates/dram/src/sched.rs",
    "crates/gpu/src/caches.rs",
    "crates/hetero/src/uncore.rs",
    "crates/ring/src/lib.rs",
    "crates/sim/src/slab.rs",
];

/// Enums whose `match`es may not use `_` arms in library crates (rule
/// R11): new variants added by later PRs must fail to compile at every
/// consumer, not be silently swallowed by a wildcard.
pub const GUARDED_ENUMS: &[&str] = &["SimError", "JobOutcome", "QosEvent"];

/// The one module allowed to capture panic flow — `catch_unwind`,
/// `panic::set_hook`, `panic::take_hook` (rule R9). The serve
/// supervisor's per-job isolation boundary is where a panicking job
/// becomes a typed `Panicked` outcome; everywhere else a swallowed panic
/// is silently-corrupt simulator state.
pub const PANIC_ISOLATION_MODULES: &[&str] = &["crates/serve/src/supervisor.rs"];

/// Directory holding the bench binaries whose `--flag` vocabulary rule
/// R6 cross-checks against README.md.
pub const BENCH_BIN_DIR: &str = "crates/bench/src/bin";

/// How a file participates in linting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Simulator-state library code: rules R1–R5 apply, plus `GAT_*`
    /// literal collection for R6.
    SimLib,
    /// A bench CLI binary: source of R6's `--flag` and `GAT_*` inventory.
    BenchBin,
    /// Scanned for `GAT_*` literals only (bench library code).
    ToolLib,
    /// Not linted at all.
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

/// Is this file the approved panic-isolation boundary (rule R9)?
pub fn is_panic_isolation_module(rel_path: &str) -> bool {
    PANIC_ISOLATION_MODULES.contains(&rel_path)
}

/// Is this file the approved environment-knob module?
pub fn is_env_knob_module(rel_path: &str) -> bool {
    ENV_KNOB_MODULES.contains(&rel_path)
}

/// Is this file approved to construct/fork `SimRng`?
pub fn is_rng_module(rel_path: &str) -> bool {
    RNG_MODULES.contains(&rel_path)
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
        assert_eq!(classify("crates/criterion/src/lib.rs"), FileClass::Skip);
        assert_eq!(classify("crates/bench/benches/figures.rs"), FileClass::Skip);
        assert_eq!(classify("tests/chaos.rs"), FileClass::Skip);
        assert_eq!(classify("crates/cache/src/cache.md"), FileClass::Skip);
    }

    #[test]
    fn approved_modules_are_inside_the_sim_boundary() {
        for m in ENV_KNOB_MODULES
            .iter()
            .chain(RNG_MODULES)
            .chain(TICK_PATH_MODULES)
        {
            assert_eq!(classify(m), FileClass::SimLib, "{m} must be SimLib");
        }
        // The panic-isolation exemption only means something if the
        // module is actually scanned.
        for m in PANIC_ISOLATION_MODULES {
            assert_eq!(classify(m), FileClass::ToolLib, "{m} must be scanned");
            assert!(is_panic_isolation_module(m));
        }
    }
}
