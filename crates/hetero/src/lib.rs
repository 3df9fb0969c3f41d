//! `gat-hetero` — the assembled heterogeneous chip-multiprocessor. The
//! figure drivers that run it live in `gat-bench`.
//!
//! * [`config`] — Table I machine configuration plus run parameters,
//! * [`uncore`] — the shared memory system: bidirectional ring, 16 MB
//!   SRRIP LLC (inclusive for CPU blocks, non-inclusive for GPU blocks,
//!   with back-invalidation), and two DDR3-2133 memory controllers,
//! * [`system`] — the cycle-driven top level tying CPU cores, the GPU
//!   pipeline, the QoS controller and the uncore together,
//! * [`metrics`] — per-run results (IPC, FPS, LLC misses, DRAM bandwidth),
//! * [`report`] — plain-text table rendering for the `figures` binary.

#![warn(clippy::disallowed_types, clippy::disallowed_methods)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![warn(clippy::wildcard_enum_match_arm)]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod config;
pub mod error;
pub mod events;
pub mod metrics;
pub mod report;
pub mod system;
pub mod uncore;

pub use config::{FillPolicyKind, MachineConfig, QosMode, RunLimits};
pub use error::SimError;
pub use events::RunEvent;
pub use gat_core::ConfigError;
pub use metrics::{CoreResult, DramResult, GpuResult, LlcResult, RunResult};
pub use report::ReportError;

pub use system::HeteroSystem;
