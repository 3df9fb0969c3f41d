//! `gat-cpu` — the CPU side of the heterogeneous CMP.
//!
//! The paper runs SPEC CPU 2006 applications on dynamically scheduled
//! out-of-order x86 cores modeled with Multi2Sim (Table I: 4 GHz, per-core
//! 32 KB L1s and a 256 KB unified L2). This crate provides the Rust
//! substitute (DESIGN.md §1):
//!
//! * [`profile::SpecProfile`] — a per-application synthetic memory profile
//!   (working-set size, memory-op fraction, stream/stride/pointer-chase
//!   mix, write fraction, base ILP),
//! * [`stream::StreamGen`] — a deterministic instruction-stream generator
//!   realizing a profile,
//! * [`hierarchy::CpuHierarchy`] — the private L1D + unified L2 pair with
//!   MSHRs, write-back buffers and back-invalidation support,
//! * [`core::Core`] — a compact out-of-order timing core: ROB,
//!   dispatch/commit widths, MSHR-limited memory-level parallelism, and
//!   pointer-chase serialization.
//!
//! What the reproduction needs from this model is *interval behaviour*:
//! IPC that degrades smoothly as LLC hit rates fall and DRAM queueing
//! grows, with per-application sensitivity controlled by the profile. ISA
//! semantics, wrong-path effects and instruction-fetch misses are folded
//! into the profile's base IPC (SPEC codes have small instruction
//! footprints).

#![warn(clippy::disallowed_types, clippy::disallowed_methods)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![warn(clippy::wildcard_enum_match_arm)]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod core;
pub mod hierarchy;
pub mod profile;
pub mod stream;
pub mod trace;

pub use crate::core::{Core, CoreConfig};
pub use hierarchy::{CpuHierarchy, HierarchyConfig, LoadOutcome, StallCause};
pub use profile::SpecProfile;
pub use stream::{InstructionStream, Op, StreamGen};
pub use trace::{TraceParseError, TraceStream};
