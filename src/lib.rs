//! # gat — GPU Access Throttling for CPU–GPU heterogeneous processors
//!
//! A from-scratch Rust reproduction of Rai & Chaudhuri, *"Improving CPU
//! Performance through Dynamic GPU Access Throttling in CPU-GPU
//! Heterogeneous Processors"* (IEEE IPDPSW 2017): a cycle-level
//! heterogeneous-CMP simulator (out-of-order CPU cores, a full 3D
//! rendering pipeline, shared SRRIP LLC, bidirectional ring, DDR3-2133
//! memory controllers) plus the paper's QoS machinery — profile-free
//! dynamic frame-rate estimation, GPU LLC access throttling, and dynamic
//! CPU priority in the DRAM scheduler — and every baseline it is compared
//! against (SMS, DynPrio, HeLM, bypass-all).
//!
//! ## Quick start
//!
//! ```
//! use gat::prelude::*;
//!
//! // The paper's machine (Table I) at work scale 256 with tiny budgets.
//! let mut cfg = MachineConfig::table_one(256, 42);
//! cfg.limits = RunLimits::smoke();
//! cfg.qos = QosMode::ThrotCpuPrio;               // the full proposal
//! cfg.sched = SchedulerKind::FrFcfsCpuPrio;
//!
//! let mix = mix_m(7);                            // M7: DOOM3 + 4 SPEC apps
//! let result = HeteroSystem::new(cfg, &mix.cpu, Some(mix.game.clone())).run();
//! println!("GPU: {:.1} FPS", result.gpu.as_ref().unwrap().fps);
//! for core in &result.cores {
//!     println!("CPU {} ({}): IPC {:.2}", core.core, core.name, core.ipc);
//! }
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`sim`] | clocks, deterministic RNG, statistics, fault plans |
//! | [`cache`] | set-associative caches (LRU/SRRIP), MSHRs |
//! | [`dram`] | DDR3-2133 model; FR-FCFS, CPU-priority, SMS, DynPrio |
//! | [`ring`] | bidirectional ring interconnect |
//! | [`cpu`] | mini-OOO cores + SPEC-like synthetic workloads |
//! | [`gpu`] | the rendering pipeline and per-game workload model |
//! | [`qos`] | **the contribution**: FRPU, ATU, QoS controller |
//! | [`policies`] | LLC fill policies: baseline, bypass-all, HeLM |
//! | [`workloads`] | Table II games, SPEC profiles, Table III mixes |
//! | [`hetero`] | the assembled machine and per-figure experiments |

pub use gat_cache as cache;
pub use gat_core as qos;
pub use gat_cpu as cpu;
pub use gat_dram as dram;
pub use gat_gpu as gpu;
pub use gat_hetero as hetero;
pub use gat_policies as policies;
pub use gat_ring as ring;
pub use gat_sim as sim;
pub use gat_workloads as workloads;

/// The names most programs need.
pub mod prelude {
    pub use gat_core::{
        AccessThrottler, FrameRateEstimator, FrpuConfig, QosController, QosControllerConfig,
    };
    pub use gat_dram::SchedulerKind;
    pub use gat_hetero::experiments::{self, ExpConfig};
    pub use gat_hetero::{
        ConfigError, FillPolicyKind, HeteroSystem, MachineConfig, QosMode, RunEvent, RunLimits,
        RunResult, SimError,
    };
    pub use gat_sim::faults::{FaultPlan, FaultSpecError};
    pub use gat_workloads::{
        all_games, all_spec, amenable_games, game, mix_m, mix_w, mixes_m, mixes_w, spec, Mix,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        use crate::prelude::*;
        let cfg = MachineConfig::table_one(64, 1);
        assert_eq!(cfg.num_cpus, 4);
        assert_eq!(mixes_m().len(), 14);
        let _ = spec(429);
        let _ = game("DOOM3");
    }
}
