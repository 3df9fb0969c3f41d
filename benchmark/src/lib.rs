//! `gat-benchmark`: the repository benchmark.
//!
//! Four workloads (see [`workloads`]) measured end to end with tracing
//! off ([`measure`]) or broken down per layer by a traced replica of the
//! cycle loop ([`trace`], [`replica`], [`kernels`]). [`catalog`] lists
//! every metric; [`compare`] judges two sets of runs against each other.

pub mod catalog;
pub mod compare;
pub mod kernels;
pub mod measure;
pub mod replica;
pub mod stats;
pub mod trace;
pub mod workloads;
