//! `gat-workloads` — the paper's workload matrix.
//!
//! * [`games`] — the fourteen DirectX/OpenGL titles of Table II as
//!   synthetic [`GameProfile`]s calibrated to the published standalone
//!   frame rates,
//! * [`mod@spec`] — the SPEC CPU 2006 applications appearing in Table III as
//!   synthetic [`SpecProfile`]s,
//! * [`mixes`] — the heterogeneous mixes: M1–M14 (four CPU applications +
//!   one GPU application, the main evaluation) and W1–W14 (one CPU
//!   application + one GPU application, the motivation study of §II).

#![warn(clippy::disallowed_types, clippy::disallowed_methods)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![warn(clippy::wildcard_enum_match_arm)]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod games;
pub mod mixes;
pub mod spec;

pub use games::{all_games, amenable_games, game, AMENABLE_NAMES};
pub use gat_cpu::SpecProfile;
pub use gat_gpu::GameProfile;
pub use mixes::{mix_m, mix_w, mixes_m, mixes_w, Mix};
pub use spec::{all_spec, spec};
