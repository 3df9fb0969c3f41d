//! Machine and run configuration (Table I).

use gat_core::{ConfigError, QosControllerConfig};
use gat_cpu::{CoreConfig, HierarchyConfig};
use gat_dram::{DramAddressMap, DramTiming, SchedulerKind};
use gat_gpu::GpuConfig;
use gat_sim::faults::FaultPlan;
use gat_sim::Cycle;

/// Which LLC fill policy governs GPU read fills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillPolicyKind {
    /// Insert everything (baseline SRRIP).
    Baseline,
    /// Fig. 3: bypass all GPU read-miss fills.
    BypassAll,
    /// HeLM (Mekkat et al.): tolerance-driven selective bypass.
    Helm,
}

/// Which parts of the proposal are active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QosMode {
    /// No QoS hardware at all.
    Off,
    /// FRPU runs (frame-rate estimation and DynPrio's progress signal)
    /// but nothing is actuated.
    Observe,
    /// FRPU + GPU access throttling (the "Throttled" bars of Fig. 9).
    Throttle,
    /// Full proposal: throttling + CPU priority boost in the DRAM
    /// scheduler ("Throttled+CPUpriority" / "ThrotCPUprio").
    ThrotCpuPrio,
    /// Ablation: CPU priority boost without the access gate.
    CpuPrioOnly,
}

/// Stopping conditions for a run.
#[derive(Debug, Clone, Copy)]
pub struct RunLimits {
    /// Representative instructions each CPU core must commit (the paper
    /// uses 450 M; scaled runs use less).
    pub cpu_instructions: u64,
    /// Frames the GPU must complete (the Table II sequence length by
    /// default).
    pub gpu_frames: u32,
    /// Warm-up cycles before statistics are reset (the paper warms 200 M
    /// instructions; we warm by time).
    pub warmup_cycles: Cycle,
    /// Hard wall: abort the run after this many CPU cycles.
    pub max_cycles: Cycle,
    /// Liveness watchdog window: if the machine makes no goal-directed
    /// forward progress for this many cycles and no timed gate (a GPU
    /// stall burst or a closed ATU window) explains the wait, the run
    /// aborts with `SimError::Wedged` instead of spinning to `max_cycles`.
    /// `0` disables the watchdog.
    pub watchdog: Cycle,
}

impl Default for RunLimits {
    fn default() -> Self {
        Self {
            cpu_instructions: 3_000_000,
            gpu_frames: 6,
            warmup_cycles: 1_000_000,
            max_cycles: 2_000_000_000,
            watchdog: 50_000_000,
        }
    }
}

impl RunLimits {
    /// Tiny limits for unit/integration tests.
    pub fn smoke() -> Self {
        Self {
            cpu_instructions: 120_000,
            gpu_frames: 3,
            warmup_cycles: 60_000,
            max_cycles: 300_000_000,
            watchdog: 50_000_000,
        }
    }
}

/// Full machine + policy configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// CPU core slots: the most CPU apps a machine may run (Table I: 4).
    /// The §II one-CPU machine is this machine running one app.
    pub num_cpus: u8,
    /// GPU work scale (see DESIGN.md §4); also used by the QoS target.
    pub scale: u32,
    /// Experiment seed; all component streams fork from it.
    pub seed: u64,
    pub sched: SchedulerKind,
    pub fill_policy: FillPolicyKind,
    pub qos: QosMode,
    pub limits: RunLimits,

    // Geometry (defaults are Table I).
    pub core: CoreConfig,
    pub hierarchy: HierarchyConfig,
    pub gpu: GpuConfig,
    pub llc_bytes: u64,
    pub llc_ways: u32,
    pub llc_latency: u32,
    pub llc_lookups_per_cycle: u32,
    pub llc_mshrs: usize,
    pub llc_queue: usize,
    pub dram_timing: DramTiming,
    pub dram_map: DramAddressMap,
    pub mc_queue: usize,
    /// Bytes of private physical address space per CPU core.
    pub cpu_region_bytes: u64,
    /// LLC replacement policy (Table I: SRRIP; LRU for the ablation).
    pub llc_policy: gat_cache::ReplacementPolicy,
    /// Strict Fig. 6 W_G reset on overshoot (ablation; default gentle).
    pub strict_release: bool,
    /// Static LLC way partitioning (§IV's \[28]-style scheme, ablation):
    /// `Some(k)` confines GPU fills to `k` ways and CPU fills to the rest.
    pub gpu_llc_ways: Option<u32>,
    /// Static DRAM channel partitioning (ablation): GPU traffic on channel
    /// 1, CPU traffic on channel 0, instead of address interleaving.
    pub partition_channels: bool,
    /// QoS target frame rate (the paper uses 40 FPS = 30 FPS visual
    /// acceptability + a 10 FPS cushion, §II).
    pub target_fps: f64,
    /// Deterministic fault-injection plan (chaos testing; see
    /// `gat_sim::faults`). `FaultPlan::none()` — the default — is
    /// byte-identical to a build without the fault layer.
    pub faults: FaultPlan,
}

impl MachineConfig {
    /// The paper's 4-CPU + 1-GPU machine at a given work scale.
    pub fn table_one(scale: u32, seed: u64) -> Self {
        let gpu = GpuConfig {
            scale,
            mem_base: 4 * (256u64 << 20),
            ..GpuConfig::default()
        };
        Self {
            num_cpus: 4,
            scale,
            seed,
            sched: SchedulerKind::FrFcfs,
            fill_policy: FillPolicyKind::Baseline,
            qos: QosMode::Off,
            limits: RunLimits::default(),
            core: CoreConfig::default(),
            hierarchy: HierarchyConfig::default(),
            gpu,
            llc_bytes: 16 << 20,
            llc_ways: 16,
            llc_latency: 10,
            llc_lookups_per_cycle: 4,
            llc_mshrs: 64,
            llc_queue: 64,
            dram_timing: DramTiming::ddr3_2133(),
            dram_map: DramAddressMap::table_one(),
            mc_queue: 64,
            cpu_region_bytes: 256 << 20,
            llc_policy: gat_cache::ReplacementPolicy::Srrip,
            strict_release: false,
            gpu_llc_ways: None,
            partition_channels: false,
            target_fps: 40.0,
            faults: FaultPlan::none(),
        }
    }

    /// Reject degenerate configurations before they turn into mysterious
    /// hangs or divide-by-zero panics deep inside a run. Every binary
    /// calls this before constructing a [`crate::HeteroSystem`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.scale == 0 {
            return Err(ConfigError::new("machine.scale", "must be nonzero"));
        }
        if self.llc_ways == 0 {
            return Err(ConfigError::new("machine.llc_ways", "must be nonzero"));
        }
        if self.llc_bytes / (u64::from(self.llc_ways) * 64) == 0 {
            return Err(ConfigError::new(
                "machine.llc_bytes",
                format!(
                    "{} bytes with {} ways yields zero sets",
                    self.llc_bytes, self.llc_ways
                ),
            ));
        }
        if let Some(k) = self.gpu_llc_ways {
            if k == 0 || k >= self.llc_ways {
                return Err(ConfigError::new(
                    "machine.gpu_llc_ways",
                    format!(
                        "partition of {k} ways out of {} is degenerate",
                        self.llc_ways
                    ),
                ));
            }
        }
        if self.llc_mshrs == 0 {
            return Err(ConfigError::new("machine.llc_mshrs", "must be nonzero"));
        }
        if self.llc_queue == 0 {
            return Err(ConfigError::new("machine.llc_queue", "must be nonzero"));
        }
        if self.mc_queue == 0 {
            return Err(ConfigError::new("machine.mc_queue", "must be nonzero"));
        }
        if self.dram_map.channels == 0 {
            return Err(ConfigError::new(
                "machine.dram_map.channels",
                "must be nonzero",
            ));
        }
        if !self.target_fps.is_finite() || self.target_fps <= 0.0 {
            return Err(ConfigError::new(
                "machine.target_fps",
                format!("{} is not a positive finite rate", self.target_fps),
            ));
        }
        if self.limits.max_cycles == 0 {
            return Err(ConfigError::new("limits.max_cycles", "zero-cycle run"));
        }
        if self.limits.warmup_cycles >= self.limits.max_cycles {
            return Err(ConfigError::new(
                "limits.warmup_cycles",
                format!(
                    "warm-up of {} cycles leaves no budget under max_cycles {}",
                    self.limits.warmup_cycles, self.limits.max_cycles
                ),
            ));
        }
        // The derived QoS controller knobs must themselves be sane.
        QosControllerConfig::proposal(self.scale).validate()?;
        // A hand-built FaultPlan may bypass the parser's checks.
        self.faults
            .validate()
            .map_err(|e| ConfigError::new("machine.faults", e.to_string()))?;
        Ok(())
    }

    /// Coarse upper-bound estimate of the allocation high-water mark (in
    /// bytes) of one `HeteroSystem` built from this config.
    ///
    /// The batch job engine (`gat-serve`) uses this for *admission
    /// control* against a per-job memory budget: a deterministic
    /// reject-before-run beats an OOM kill mid-batch. The model is
    /// deliberately simple and conservative — tag/state arrays scale with
    /// cache geometry (the simulator stores metadata, not data lines),
    /// request structures with queue/MSHR depths, and the workload
    /// footprint with the GPU work scale. It only needs to be monotone in
    /// the config knobs and right to within a small factor.
    pub fn estimated_mem_bytes(&self) -> u64 {
        const BLOCK: u64 = 64;
        // ~32 bytes of tag + replacement + ownership state per block.
        let cache_blocks = self.llc_bytes / BLOCK
            + u64::from(self.num_cpus) * (self.hierarchy.l1_bytes + self.hierarchy.l2_bytes)
                / BLOCK;
        let cache_state = cache_blocks * 32;
        // In-flight transactions, MSHRs, DRAM queues, ring flights: each
        // entry is a few pointers plus timing state.
        let queue_state = (self.llc_mshrs as u64
            + self.llc_queue as u64
            + self.mc_queue as u64 * u64::from(self.dram_map.channels))
            * 256;
        // Per-frame GPU work lists and the synthetic workload tables grow
        // with the work scale.
        let workload = u64::from(self.scale) * 16 * 1024;
        // Event ring, metrics registry, per-core OOO windows: flat cost.
        let fixed = 16 << 20;
        cache_state + queue_state + workload + fixed
    }

    /// Ring stop index for CPU core `i` (cores, GPU, LLC, MC0, MC1).
    pub fn cpu_stop(&self, core: u8) -> u8 {
        assert!(core < self.num_cpus);
        core
    }

    pub fn gpu_stop(&self) -> u8 {
        4
    }

    pub fn llc_stop(&self) -> u8 {
        5
    }

    pub fn mc_stop(&self, ch: u32) -> u8 {
        6 + ch as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_one_geometry() {
        let c = MachineConfig::table_one(16, 1);
        assert_eq!(c.num_cpus, 4);
        assert_eq!(c.llc_bytes, 16 << 20);
        assert_eq!(c.llc_ways, 16);
        assert_eq!(c.llc_latency, 10);
        assert_eq!(c.dram_map.channels, 2);
        assert_eq!(c.dram_timing.t_cl, 14);
        assert_eq!(c.hierarchy.l1_bytes, 32 << 10);
        assert_eq!(c.hierarchy.l2_bytes, 256 << 10);
    }

    #[test]
    fn gpu_region_clears_cpu_regions() {
        let c = MachineConfig::table_one(16, 1);
        assert!(c.gpu.mem_base >= u64::from(c.num_cpus) * c.cpu_region_bytes);
    }

    #[test]
    fn stops_are_distinct() {
        let c = MachineConfig::table_one(16, 1);
        let mut stops = vec![c.gpu_stop(), c.llc_stop(), c.mc_stop(0), c.mc_stop(1)];
        for i in 0..c.num_cpus {
            stops.push(c.cpu_stop(i));
        }
        stops.sort_unstable();
        stops.dedup();
        assert_eq!(stops.len(), 4 + c.num_cpus as usize);
    }

    #[test]
    fn mem_estimate_is_monotone_in_the_big_knobs() {
        let base = MachineConfig::table_one(64, 1).estimated_mem_bytes();
        assert!(base > 16 << 20, "estimate below the fixed floor: {base}");

        let mut big_llc = MachineConfig::table_one(64, 1);
        big_llc.llc_bytes *= 4;
        assert!(big_llc.estimated_mem_bytes() > base);

        let big_scale = MachineConfig::table_one(1024, 1);
        assert!(big_scale.estimated_mem_bytes() > base);

        // Deterministic: same config, same estimate.
        assert_eq!(MachineConfig::table_one(64, 1).estimated_mem_bytes(), base);
    }

    #[test]
    fn default_configs_validate() {
        MachineConfig::table_one(256, 9).validate().unwrap();
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let base = || MachineConfig::table_one(64, 1);

        let mut c = base();
        c.scale = 0;
        assert!(c.validate().unwrap_err().to_string().contains("scale"));

        let mut c = base();
        c.llc_ways = 0;
        assert!(c.validate().is_err());

        let mut c = base();
        c.llc_bytes = 64; // one block, 16 ways: zero sets
        assert!(c.validate().unwrap_err().to_string().contains("zero sets"));

        let mut c = base();
        c.gpu_llc_ways = Some(16);
        assert!(c.validate().is_err());

        let mut c = base();
        c.llc_mshrs = 0;
        assert!(c.validate().is_err());

        let mut c = base();
        c.mc_queue = 0;
        assert!(c.validate().is_err());

        let mut c = base();
        c.target_fps = f64::NAN;
        assert!(c.validate().unwrap_err().to_string().contains("target_fps"));

        let mut c = base();
        c.limits.warmup_cycles = c.limits.max_cycles;
        assert!(c.validate().is_err());

        let mut c = base();
        c.faults.frpu_jitter = -1.0;
        assert!(c.validate().unwrap_err().to_string().contains("faults"));
    }
}
