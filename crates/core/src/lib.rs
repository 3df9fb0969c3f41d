//! `gat-core` — the paper's contribution: QoS-driven dynamic GPU access
//! throttling for CPU–GPU heterogeneous processors.
//!
//! Three cooperating pieces implement the three-step algorithm of
//! §III:
//!
//! 1. [`frpu::FrameRateEstimator`] — the frame-rate prediction unit
//!    (FRPU of Fig. 7). It maintains the 64-entry RTP information table,
//!    runs the learning/prediction finite-state machine of Fig. 4, and
//!    evaluates Equations 1–3 to project the cycles the current frame
//!    will take. It requires no profile information and no assumption
//!    about the rendering algorithm — it only watches RTP boundaries.
//! 2. [`atu::AccessThrottler`] — the access throttling unit (ATU). It
//!    executes the flowchart of Fig. 6 to choose `W_G` (port-disable
//!    cycles) and `N_G` (accesses admitted per window), and implements the
//!    GTT gate: admit `N_G` GPU LLC accesses, then hold the port closed
//!    for `W_G` GPU cycles.
//! 3. [`controller::QosController`] — step 3: while the GPU is throttled,
//!    assert the CPU-priority line into the DRAM access scheduler; also
//!    exposes the frame-progress signal that the DynPrio comparison
//!    scheduler consumes.
//!
//! The total hardware state is the RTP table plus a handful of registers —
//! [`overhead::storage_overhead_bytes`] accounts for the "just over a
//! kilobyte" claimed in §III-D and VII.

#![warn(clippy::disallowed_types, clippy::disallowed_methods)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![warn(clippy::wildcard_enum_match_arm)]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod atu;
pub mod controller;
pub mod frpu;
pub mod overhead;

pub use atu::{AccessThrottler, ThrottleDecision};
pub use controller::{ConfigError, QosController, QosControllerConfig, QosEvent, QosSignals};
pub use frpu::{FrameRateEstimator, FrpuConfig, Phase};
