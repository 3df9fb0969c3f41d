//! gat-serve: a budget-enforced batch job engine for the simulator.
//!
//! Input is a JSONL batch file — one job spec per line (machine /
//! experiment / QoS config + seed + budgets, [`spec`] module). Jobs run
//! on a sharded deterministic worker pool ([`pool`]) under per-job
//! supervision ([`supervisor`]): a cycle budget rides on the existing
//! `max_cycles` watchdog machinery, a wall-clock budget is a supervisor
//! deadline, and a memory budget is admission control against the
//! configuration's footprint estimate. Every job ends in exactly one
//! typed [`outcome::JobOutcome`]; panics are isolated per job and the
//! engine exits 0 as long as the *batch* ran — job failure is data, not
//! an exit code.
//!
//! Results stream in spec order to pluggable sinks ([`sink`]) with loss
//! accounting, a batch summary ([`summary`]) closes the stream, and a
//! content-addressed result cache ([`cache`]) keyed on
//! `(canonical spec, seed, code version)` makes repeated sweeps free and
//! killed batches resumable.
//!
//! Determinism contract: for a fixed batch file, every emitted byte —
//! job blocks, dumps, summary — is identical across reruns, shard
//! counts, and cache states, except blocks produced by the wall-clock
//! budget (inherently timing-dependent, and therefore never cached).
//! Healthy jobs' payload lines are byte-identical to what the one-shot
//! `runsim --json` CLI writes for the equivalent flags.

#![warn(clippy::disallowed_methods, clippy::wildcard_enum_match_arm)]

pub mod cache;
pub mod outcome;
pub mod pool;
pub mod sink;
pub mod spec;
pub mod summary;
pub mod supervisor;

pub use cache::ResultCache;
pub use outcome::{BudgetKind, JobOutcome};
pub use pool::{run_batch, EngineOptions};
pub use sink::{JsonlFileSink, Sink, SinkSlot, StdoutSink, VecSink};
pub use spec::{parse_batch, BatchItem, JobSpec};
pub use summary::BatchSummary;
pub use supervisor::{run_job, JobResult};
