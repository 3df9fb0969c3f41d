//! `gat-gpu` — a cycle-level 3D rendering-pipeline model.
//!
//! The paper drives its GPU with the Attila simulator replaying DirectX and
//! OpenGL API traces of fourteen games (Table II). This crate is the Rust
//! substitute (DESIGN.md §1): a rendering pipeline with the structure the
//! proposal observes —
//!
//! * a **command processor** sequencing frames into *render-target planes*
//!   (RTPs): batches of updates that cover all tiles of the render target
//!   (paper §III-A1, Fig. 5),
//! * a **rasterizer** walking t×t render-target tiles and emitting
//!   fragment quads,
//! * **shader cores** with an aggregate fragment-completion rate and a
//!   bounded in-flight thread pool, fed by **texture samplers** with the
//!   L1/L2 texture-cache hierarchy of Table I,
//! * **ROPs** performing depth test and color write through the depth and
//!   color cache hierarchies; color lines are created fully dirty without
//!   a fetch and flushed to the LLC later (the paper's footnote 6 — why
//!   GPU write bandwidth can exceed read bandwidth),
//! * a **vertex fetch** unit with its cache,
//! * the **memory interface for the GPU** (paper Fig. 7): a single bounded
//!   request queue through which every GPU LLC access flows — and the
//!   attachment point of the access-throttling gate. When the gate denies
//!   LLC access, requests are "held back inside the GPU and occupy GPU
//!   resources such as request buffers and MSHRs" (§III-B); the resulting
//!   back-pressure slows the pipeline, which is precisely the mechanism
//!   the QoS controller modulates.
//!
//! Per-game workloads are synthetic [`workload::GameProfile`]s calibrated
//! to the Table II standalone frame rates; `gat-workloads` instantiates
//! the fourteen titles.

#![warn(clippy::disallowed_types, clippy::disallowed_methods)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![warn(clippy::wildcard_enum_match_arm)]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod caches;
pub mod pipeline;
pub mod workload;

pub use caches::{GpuCaches, GpuCachesConfig};
pub use pipeline::{GpuConfig, GpuEvent, GpuPipeline, GpuStats};
pub use workload::{Api, GameProfile, WorkloadGen, TILE_PX};
