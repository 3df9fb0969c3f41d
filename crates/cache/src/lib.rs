//! `gat-cache` — set-associative caches for the heterogeneous CMP.
//!
//! Every cache in Table I of the paper is an instance of
//! [`cache::SetAssocCache`]:
//!
//! * CPU per-core L1I/L1D (32 KB, 8-way, LRU) and unified L2 (256 KB,
//!   8-way, LRU),
//! * the GPU's internal texture (L0/L1/L2), depth, color, vertex, hier-Z
//!   and shader-instruction caches,
//! * the shared LLC (16 MB, 16-way, 2-bit SRRIP, inclusive for CPU blocks,
//!   non-inclusive for GPU blocks).
//!
//! The cache model is a *functional-timing hybrid*: tag arrays, replacement
//! state and dirty bits are exact, while latencies and bandwidth are
//! enforced by the surrounding pipeline stages (see `gat-hetero`), which is
//! where a cycle-driven simulator wants them. [`mshr::MshrFile`] provides
//! miss-status holding registers with same-block merging, used to bound
//! memory-level parallelism everywhere from the CPU L1 to the GPU texture
//! samplers — and, importantly for the paper, to model the back-pressure
//! that GPU access throttling exerts on the rendering pipeline.

#![warn(clippy::disallowed_types, clippy::disallowed_methods)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![warn(clippy::wildcard_enum_match_arm)]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod cache;
pub mod mshr;
pub mod port;
pub mod replacement;

pub use cache::{AccessKind, AccessOutcome, CacheConfig, Evicted, SetAssocCache};
pub use mshr::{MshrFile, MshrOutcome};
pub use port::{BlockReq, MemPort, SinkPort};
pub use replacement::ReplacementPolicy;

/// Identifies which agent a memory request (or a cached block) belongs to.
///
/// The LLC needs this for three paper-critical behaviours: per-source
/// statistics (Fig. 10), inclusivity that differs between CPU and GPU
/// blocks (Table I), and policies that treat GPU fills specially
/// (HeLM / bypass / throttling).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Source {
    /// A CPU core, by index.
    Cpu(u8),
    /// Any unit of the GPU (vertex fetch, sampler, ROP, …).
    Gpu,
}

impl Source {
    /// True when the request originates from the GPU.
    #[inline]
    pub fn is_gpu(self) -> bool {
        matches!(self, Source::Gpu)
    }

    /// Compact encoding used in per-line metadata.
    #[inline]
    pub fn encode(self) -> u8 {
        match self {
            Source::Cpu(c) => c,
            Source::Gpu => u8::MAX,
        }
    }

    /// Inverse of [`Source::encode`].
    #[inline]
    pub fn decode(v: u8) -> Self {
        if v == u8::MAX {
            Source::Gpu
        } else {
            Source::Cpu(v)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_encoding_round_trips() {
        for s in [Source::Cpu(0), Source::Cpu(3), Source::Gpu] {
            assert_eq!(Source::decode(s.encode()), s);
        }
        assert!(Source::Gpu.is_gpu());
        assert!(!Source::Cpu(1).is_gpu());
    }
}
