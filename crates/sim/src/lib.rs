//! `gat-sim` — foundational primitives for the heterogeneous-CMP simulator.
//!
//! This crate provides the small, dependency-free building blocks shared by
//! every other crate in the workspace:
//!
//! * [`Cycle`] arithmetic and [`clock::ClockDomain`] dividers that let the
//!   CPU (4 GHz), GPU (1 GHz) and DRAM command clock (DDR3-2133) coexist on
//!   one global timeline,
//! * deterministic, seedable random-number generation ([`rng::SimRng`])
//!   so that every simulation is bit-reproducible,
//! * lightweight statistics ([`stats`]) — counters, running means and
//!   log-scale histograms — used for every number reported in the paper's
//!   figures.
//!
//! Nothing in this crate knows about caches, DRAM or GPUs; it is the
//! substrate under the substrates.

#![warn(clippy::disallowed_types, clippy::disallowed_methods)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![warn(clippy::wildcard_enum_match_arm)]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod addr;
#[cfg(test)]
mod clippy_fixtures;
pub mod clock;
pub mod events;
pub mod faults;
pub mod hashing;
pub mod json;
pub mod knobs;
pub mod metrics;
pub mod rng;
pub mod stats;

/// Global simulation time, measured in CPU cycles at 4 GHz.
///
/// All components share this timeline; slower clock domains tick on a
/// divider of it (see [`clock::ClockDomain`]). A `u64` at 4 GHz wraps after
/// ~146 years of simulated time, so overflow is not a practical concern.
pub type Cycle = u64;

/// Nominal CPU core frequency (Table I of the paper): 4 GHz.
pub const CPU_FREQ_HZ: u64 = 4_000_000_000;

/// Nominal GPU frequency (Table I): 1 GHz, i.e. one GPU cycle every
/// [`GPU_CLOCK_DIVIDER`] CPU cycles.
pub const GPU_FREQ_HZ: u64 = 1_000_000_000;

/// CPU cycles per GPU cycle.
pub const GPU_CLOCK_DIVIDER: u64 = CPU_FREQ_HZ / GPU_FREQ_HZ;

/// CPU cycles per DRAM command-bus cycle.
///
/// DDR3-2133 has a 1066.5 MHz command clock (0.9375 ns ≈ 3.75 CPU cycles at
/// 4 GHz). We round to 4 for an integral divider; the rounding slows the
/// DRAM identically for the baseline and every proposal, so normalized
/// results are unaffected (documented in DESIGN.md §4).
pub const DRAM_CLOCK_DIVIDER: u64 = 4;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_ratios_match_table_one() {
        assert_eq!(GPU_CLOCK_DIVIDER, 4);
        assert_eq!(CPU_FREQ_HZ / GPU_FREQ_HZ, GPU_CLOCK_DIVIDER);
    }
}
