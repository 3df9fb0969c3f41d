//! `gat-dram` — DDR3-2133 main-memory model and access schedulers.
//!
//! This crate is the Rust stand-in for DRAMSim2 in the paper's
//! infrastructure (Table I): two on-die single-channel DDR3-2133 memory
//! controllers, 14-14-14 timing, 64-bit channels, BL = 8 (one 64 B cache
//! block per burst), one rank per channel, 8 banks per rank, 8 KB row
//! buffer per bank (1 KB per device × 8 devices), open-page policy.
//!
//! Besides the baseline FR-FCFS scheduler it implements every scheduler
//! the paper evaluates against, as the variants of [`SchedulerImpl`]:
//!
//! * `FrFcfs` — baseline first-ready, first-come-first-served,
//! * `FrFcfsCpuPrio` — FR-FCFS with the proposal's dynamic CPU priority
//!   boost (step 3 of the algorithm, §III-C),
//! * [`sched::Sms`] — the staged memory scheduler of Ausavarungnirun et
//!   al. (ISCA 2012), with the shortest-batch-first probability as a
//!   parameter (SMS-0.9 and SMS-0 in Fig. 12–14),
//! * `DynPrio` — the deadline-aware dynamic-priority scheduler of Jeong
//!   et al. (DAC 2012), driven by the frame-progress signal,
//! * `StaticCpuPrio` — static CPU-over-GPU priority (the ARM QoS scheme
//!   the paper cites).
//!
//! Every policy but SMS is FR-FCFS with at most one CPU/GPU class bit in
//! its pick key, so the channel serves them all through one walk of its
//! per-bank queues.
//!
//! Scheduling decisions are made per DRAM command cycle over a bounded
//! per-channel request queue; bank state machines enforce tRCD/tRP/tCL,
//! burst occupancy of the shared data bus, tCCD, tRAS and write-turnaround
//! penalties. Per-source byte counters feed the paper's bandwidth figures
//! (Fig. 11).

#![warn(clippy::disallowed_types, clippy::disallowed_methods)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![warn(clippy::wildcard_enum_match_arm)]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod channel;
pub mod energy;
pub mod mapping;
pub mod sched;
pub mod timing;

pub use channel::{Completion, DramChannel, DramRequest, DramStats};
pub use energy::{DramEnergy, DramEnergyModel};
pub use mapping::{ChannelInterleave, DramAddressMap};
pub use sched::{SchedCtx, SchedulerImpl, SchedulerKind, Sms};
pub use timing::DramTiming;
