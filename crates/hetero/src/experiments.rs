//! One driver per paper figure.
//!
//! Every driver takes an [`ExpConfig`] (scale, seed, run limits) so the
//! same code serves smoke tests (tiny budgets) and the full figure
//! regeneration in `gat-bench`. Drivers return plain data structs; call
//! `.table()` to render the paper-style text table.
//!
//! Run inventory per figure (see DESIGN.md §3):
//!
//! * Fig. 1/2 — W1–W14 on the 1-CPU+1-GPU machine: standalone CPU,
//!   standalone GPU, heterogeneous.
//! * Fig. 3 — W1–W14 heterogeneous, baseline vs bypass-all GPU read fills.
//! * Fig. 8 — M1–M14, observe-only QoS: frame-rate estimation error.
//! * Fig. 9/10/11 — amenable M mixes: baseline / throttled /
//!   throttled+CPU-priority.
//! * Fig. 12 — amenable M mixes across the six schedulers/policies.
//! * Fig. 13/14 — non-amenable M mixes across the same set.

use crate::config::{FillPolicyKind, MachineConfig, QosMode, RunLimits};
use crate::metrics::RunResult;
use crate::report::Table;
use crate::system::HeteroSystem;
use gat_core::ConfigError;
use gat_dram::SchedulerKind;
use gat_sim::faults::FaultPlan;
use gat_workloads::{mixes_m, mixes_w, Mix, AMENABLE_NAMES};
use std::collections::BTreeMap;

/// Parameters shared by all experiment drivers.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    pub scale: u32,
    pub seed: u64,
    pub limits: RunLimits,
    /// Worker threads for independent simulations.
    pub threads: usize,
    /// Fault-injection plan applied to every machine the drivers build
    /// (see [`FaultPlan`]); fault-free by default.
    pub faults: FaultPlan,
}

impl Default for ExpConfig {
    #[expect(
        clippy::disallowed_methods,
        reason = "R2: thread count tunes parallelism only; outputs are thread-count-invariant by test"
    )]
    fn default() -> Self {
        Self {
            scale: 64,
            seed: 0x2017_0529,
            limits: RunLimits {
                cpu_instructions: 1_500_000,
                gpu_frames: 5,
                warmup_cycles: 400_000,
                max_cycles: 4_000_000_000,
                watchdog: 50_000_000,
            },
            // The worker count is ambient (machine-dependent) but cannot
            // leak into results: par_run pins result order by job index and
            // tests/determinism.rs compares threads=1 vs 8 byte-for-byte.
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            faults: FaultPlan::none(),
        }
    }
}

impl ExpConfig {
    /// Tiny configuration for integration tests.
    pub fn smoke() -> Self {
        Self {
            scale: 256,
            limits: RunLimits::smoke(),
            ..Default::default()
        }
    }

    /// Validate by assembling (and checking) both machine shapes the
    /// drivers build; binaries call this before launching any runs.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.threads == 0 {
            return Err(ConfigError::new("exp.threads", "must be nonzero"));
        }
        self.machine(1).validate()?;
        self.machine(4).validate()
    }

    fn machine(&self, num_cpus: u8) -> MachineConfig {
        let mut m = if num_cpus == 1 {
            MachineConfig::motivation(self.scale, self.seed)
        } else {
            MachineConfig::table_one(self.scale, self.seed)
        };
        m.limits = self.limits;
        m.faults = self.faults.clone();
        m
    }
}

/// The six comparison configurations of Fig. 12–14, in paper order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proposal {
    Baseline,
    Sms09,
    Sms0,
    DynPrio,
    Helm,
    ThrotCpuPrio,
}

impl Proposal {
    pub const ALL: [Proposal; 6] = [
        Proposal::Baseline,
        Proposal::Sms09,
        Proposal::Sms0,
        Proposal::DynPrio,
        Proposal::Helm,
        Proposal::ThrotCpuPrio,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Proposal::Baseline => "Baseline",
            Proposal::Sms09 => "SMS-0.9",
            Proposal::Sms0 => "SMS-0",
            Proposal::DynPrio => "DynPrio",
            Proposal::Helm => "HeLM",
            Proposal::ThrotCpuPrio => "ThrotCPUprio",
        }
    }

    /// Apply this proposal to a machine config.
    pub fn apply(self, m: &mut MachineConfig) {
        match self {
            Proposal::Baseline => {}
            Proposal::Sms09 => m.sched = SchedulerKind::Sms(0.9),
            Proposal::Sms0 => m.sched = SchedulerKind::Sms(0.0),
            Proposal::DynPrio => m.sched = SchedulerKind::DynPrio,
            Proposal::Helm => m.fill_policy = FillPolicyKind::Helm,
            Proposal::ThrotCpuPrio => {
                m.sched = SchedulerKind::FrFcfsCpuPrio;
                m.qos = QosMode::ThrotCpuPrio;
            }
        }
    }
}

/// Run independent jobs on up to `threads` workers, preserving order.
///
/// Result order (and therefore every rendered table and JSONL export)
/// must be independent of `threads`; `tests/determinism.rs` pins this
/// at the byte level.
#[expect(
    clippy::disallowed_methods,
    reason = "R2: scoped worker pool; slot i holds job i's result, so completion order is unobservable"
)]
pub fn par_run<J, R>(jobs: Vec<J>, threads: usize, f: impl Fn(J) -> R + Sync) -> Vec<R>
where
    J: Send,
    R: Send,
{
    if threads <= 1 || jobs.len() <= 1 {
        return jobs.into_iter().map(f).collect();
    }
    let n = jobs.len();
    let jobs: Vec<std::sync::Mutex<Option<J>>> = jobs
        .into_iter()
        .map(|j| std::sync::Mutex::new(Some(j)))
        .collect();
    let results: Vec<std::sync::Mutex<Option<R>>> =
        (0..n).map(|_| std::sync::Mutex::new(None)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let f = &f;
    std::thread::scope(|s| {
        for _ in 0..threads.min(n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = jobs[i].lock().unwrap().take().unwrap();
                *results[i].lock().unwrap() = Some(f(job));
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("job completed"))
        .collect()
}

fn run_one(mut m: MachineConfig, mix: &Mix, with_cpu: bool, with_gpu: bool) -> RunResult {
    if !with_cpu {
        m.num_cpus = m.num_cpus.max(1);
    }
    let apps = if with_cpu {
        mix.cpu.clone()
    } else {
        Vec::new()
    };
    let game = with_gpu.then(|| mix.game.clone());
    HeteroSystem::new(m, &apps, game).run()
}

// ---------------------------------------------------------------------
// Fig. 1 + Fig. 2: the §II motivation study.
// ---------------------------------------------------------------------

/// Per-workload motivation results.
#[derive(Debug, Clone)]
pub struct MotivationRow {
    pub workload: String,
    pub game: &'static str,
    pub cpu_ratio: f64,
    pub gpu_ratio: f64,
    pub fps_alone: f64,
    pub fps_hetero: f64,
}

#[derive(Debug, Clone)]
pub struct Motivation {
    pub rows: Vec<MotivationRow>,
    /// CPU cycles simulated across all runs, warm-up included.
    pub sim_cycles: u64,
}

/// Run the W1–W14 motivation study (Fig. 1 and Fig. 2 share these runs).
pub fn motivation(cfg: &ExpConfig) -> Motivation {
    let mixes = mixes_w();
    let jobs: Vec<(usize, &Mix, u8)> = mixes
        .iter()
        .enumerate()
        .flat_map(|(i, m)| [(i, m, 0u8), (i, m, 1), (i, m, 2)])
        .collect();
    let results = par_run(jobs, cfg.threads, |(_, mix, kind)| match kind {
        0 => run_one(cfg.machine(1), mix, true, false),
        1 => run_one(cfg.machine(1), mix, false, true),
        _ => run_one(cfg.machine(1), mix, true, true),
    });
    let rows = mixes
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let cpu_alone = &results[i * 3];
            let gpu_alone = &results[i * 3 + 1];
            let hetero = &results[i * 3 + 2];
            let fps_alone = gpu_alone.gpu.as_ref().unwrap().fps;
            let fps_hetero = hetero.gpu.as_ref().unwrap().fps;
            MotivationRow {
                workload: format!("W{}", i + 1),
                game: m.game.name,
                cpu_ratio: hetero.cores[0].ipc / cpu_alone.cores[0].ipc,
                gpu_ratio: fps_hetero / fps_alone,
                fps_alone,
                fps_hetero,
            }
        })
        .collect();
    Motivation {
        rows,
        sim_cycles: results
            .iter()
            .map(|r| cfg.limits.warmup_cycles + r.cycles)
            .sum(),
    }
}

impl Motivation {
    /// Fig. 1: normalized CPU and GPU performance in heterogeneous mode.
    pub fn fig1_table(&self) -> Table {
        let mut t = Table::new(
            "Fig. 1: heterogeneous performance normalized to standalone",
            &["Workload", "CPU", "GPU"],
        );
        for r in &self.rows {
            t.row_f(&r.workload, &[r.cpu_ratio, r.gpu_ratio]);
        }
        t.gmean_row();
        t
    }

    /// Fig. 2: GPU FPS, standalone vs heterogeneous.
    pub fn fig2_table(&self) -> Table {
        let mut t = Table::new(
            "Fig. 2: GPU frame rate (FPS), standalone vs heterogeneous (30 FPS reference)",
            &["Workload", "Game", "Standalone", "Heterogeneous"],
        );
        for r in &self.rows {
            t.row(vec![
                r.workload.clone(),
                r.game.to_string(),
                format!("{:.1}", r.fps_alone),
                format!("{:.1}", r.fps_hetero),
            ]);
        }
        t.amean_row();
        t
    }
}

// ---------------------------------------------------------------------
// Fig. 3: bypass all GPU read-miss fills.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Fig3Row {
    pub workload: String,
    pub cpu_speedup: f64,
}

#[derive(Debug, Clone)]
pub struct Fig3 {
    pub rows: Vec<Fig3Row>,
}

/// CPU speedup when all GPU read misses bypass the LLC (W mixes).
pub fn fig3(cfg: &ExpConfig) -> Fig3 {
    let mixes = mixes_w();
    let jobs: Vec<(usize, &Mix, bool)> = mixes
        .iter()
        .enumerate()
        .flat_map(|(i, m)| [(i, m, false), (i, m, true)])
        .collect();
    let results = par_run(jobs, cfg.threads, |(_, mix, bypass)| {
        let mut m = cfg.machine(1);
        if bypass {
            m.fill_policy = FillPolicyKind::BypassAll;
        }
        run_one(m, mix, true, true)
    });
    let rows = (0..mixes.len())
        .map(|i| Fig3Row {
            workload: format!("W{}", i + 1),
            cpu_speedup: results[i * 2 + 1].cores[0].ipc / results[i * 2].cores[0].ipc,
        })
        .collect();
    Fig3 { rows }
}

impl Fig3 {
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Fig. 3: CPU speedup when all GPU read-miss fills bypass the LLC",
            &["Workload", "CPU speedup"],
        );
        for r in &self.rows {
            t.row_f(&r.workload, &[r.cpu_speedup]);
        }
        t.gmean_row();
        t
    }
}

// ---------------------------------------------------------------------
// Fig. 8: frame-rate estimation error.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Fig8Row {
    pub game: &'static str,
    pub error_mean: f64,
    pub error_min: f64,
    pub error_max: f64,
    pub predicted_frames: u64,
    pub relearn_events: u64,
}

#[derive(Debug, Clone)]
pub struct Fig8 {
    pub rows: Vec<Fig8Row>,
}

/// Percent error of dynamic frame-rate estimation across the M mixes.
pub fn fig8(cfg: &ExpConfig) -> Fig8 {
    let mixes = mixes_m();
    let results = par_run(mixes.iter().collect::<Vec<_>>(), cfg.threads, |mix| {
        let mut m = cfg.machine(4);
        m.qos = QosMode::Observe;
        run_one(m, mix, true, true)
    });
    let rows = mixes
        .iter()
        .zip(&results)
        .map(|(mix, r)| {
            let g = r.gpu.as_ref().unwrap();
            Fig8Row {
                game: mix.game.name,
                error_mean: g.est_error_mean,
                error_min: g.est_error_min,
                error_max: g.est_error_max,
                predicted_frames: g.predicted_frames,
                relearn_events: g.relearn_events,
            }
        })
        .collect();
    Fig8 { rows }
}

impl Fig8 {
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Fig. 8: percent error in dynamic frame rate estimation",
            &[
                "Game",
                "MeanErr%",
                "MinErr%",
                "MaxErr%",
                "PredFrames",
                "Relearns",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.game.to_string(),
                format!("{:.2}", r.error_mean),
                format!("{:.2}", r.error_min),
                format!("{:.2}", r.error_max),
                r.predicted_frames.to_string(),
                r.relearn_events.to_string(),
            ]);
        }
        t
    }

    /// Mean of the per-game mean absolute errors.
    pub fn average_abs_error(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(|r| r.error_mean.abs()).sum::<f64>() / self.rows.len() as f64
    }
}

// ---------------------------------------------------------------------
// Fig. 9/10/11: the throttling evaluation on amenable mixes.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct ThrottleRow {
    pub mix: String,
    pub game: &'static str,
    pub cpu_label: String,
    /// FPS under {baseline, throttled, throttled+CPU priority}.
    pub fps: [f64; 3],
    /// Weighted CPU speedup normalized to baseline for the two proposal
    /// configurations.
    pub ws_norm: [f64; 2],
    /// GPU LLC miss count normalized to baseline.
    pub gpu_llc_miss_norm: [f64; 2],
    /// CPU LLC miss count normalized to baseline.
    pub cpu_llc_miss_norm: [f64; 2],
    /// GPU DRAM read/write bytes normalized to baseline: [read_t, write_t,
    /// read_tp, write_tp].
    pub gpu_bw_norm: [f64; 4],
}

#[derive(Debug, Clone)]
pub struct ThrottleEval {
    pub rows: Vec<ThrottleRow>,
}

/// Compute per-application standalone IPCs (each app alone on the
/// machine) for the weighted-speedup denominators.
///
/// Keyed by `BTreeMap`, not a hash map: the map is only ever probed by
/// spec id today, but a `BTreeMap` makes any future iteration ordered by
/// construction, so the determinism contract (rule R1) cannot be
/// broken by a refactor that starts walking it.
fn alone_ipcs(cfg: &ExpConfig, mixes: &[Mix]) -> BTreeMap<u16, f64> {
    let mut ids: Vec<u16> = mixes
        .iter()
        .flat_map(|m| m.cpu.iter().map(|p| p.spec_id))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    let profiles: Vec<_> = ids.iter().map(|&id| gat_workloads::spec(id)).collect();
    let results = par_run(profiles, cfg.threads, |p| {
        let m = cfg.machine(4);
        HeteroSystem::new(m, &[p], None).run()
    });
    ids.into_iter()
        .zip(results.iter().map(|r| r.cores[0].ipc))
        .collect()
}

fn weighted_speedup(r: &RunResult, alone: &BTreeMap<u16, f64>) -> f64 {
    let ipcs: Vec<f64> = r
        .cores
        .iter()
        .map(|c| alone.get(&c.spec_id).copied().unwrap_or(1.0))
        .collect();
    r.weighted_speedup(&ipcs)
}

/// Guarded ratio: scaled runs can have a near-zero write baseline (the
/// whole dirty footprint fits the LLC for the measured window); a ratio
/// against it is meaningless, so report NaN and render "n/a".
fn ratio_or_nan(num: f64, den: f64) -> f64 {
    // Threshold: a thousandth of a byte per cycle.
    if den < 1e-3 {
        f64::NAN
    } else {
        num / den
    }
}

/// The amenable mixes (games whose standalone FPS exceeds 40).
pub fn amenable_mixes() -> Vec<Mix> {
    mixes_m()
        .into_iter()
        .filter(|m| AMENABLE_NAMES.contains(&m.game.name))
        .collect()
}

/// The remaining (non-amenable) mixes: M1–M6, M9, M14.
pub fn non_amenable_mixes() -> Vec<Mix> {
    mixes_m()
        .into_iter()
        .filter(|m| !AMENABLE_NAMES.contains(&m.game.name))
        .collect()
}

/// Run the Fig. 9/10/11 evaluation.
pub fn throttle_eval(cfg: &ExpConfig) -> ThrottleEval {
    let mixes = amenable_mixes();
    let alone = alone_ipcs(cfg, &mixes);
    let jobs: Vec<(usize, &Mix, QosMode)> = mixes
        .iter()
        .enumerate()
        .flat_map(|(i, m)| {
            [
                (i, m, QosMode::Off),
                (i, m, QosMode::Throttle),
                (i, m, QosMode::ThrotCpuPrio),
            ]
        })
        .collect();
    let results = par_run(jobs, cfg.threads, |(_, mix, qos)| {
        let mut m = cfg.machine(4);
        m.qos = qos;
        if qos == QosMode::ThrotCpuPrio {
            m.sched = SchedulerKind::FrFcfsCpuPrio;
        }
        run_one(m, mix, true, true)
    });
    let rows = mixes
        .iter()
        .enumerate()
        .map(|(i, mix)| {
            let base = &results[i * 3];
            let thr = &results[i * 3 + 1];
            let thrp = &results[i * 3 + 2];
            let ws_base = weighted_speedup(base, &alone);
            // The measurement windows differ in wall length (throttled
            // GPUs render fewer frames while the CPUs run their fixed
            // budget), so miss counts are normalized per unit of work:
            // per frame for the GPU, per retired instruction for the CPU.
            let gmiss = |r: &RunResult| {
                r.llc.gpu_misses.max(1) as f64
                    / r.gpu.as_ref().map(|g| g.frames.max(1)).unwrap_or(1) as f64
            };
            let cmiss = |r: &RunResult| {
                let retired: u64 = r.cores.iter().map(|c| c.retired).sum();
                r.llc.cpu_misses.max(1) as f64 / retired.max(1) as f64
            };
            // Bandwidth is traffic per unit time: the throttled GPU's
            // misses spread over a longer frame time (§VI discussion), so
            // normalize bytes by measured cycles.
            let bw = |bytes: u64, r: &RunResult| bytes as f64 / r.cycles.max(1) as f64;
            ThrottleRow {
                mix: mixes_m()[i].name.clone(),
                game: mix.game.name,
                cpu_label: mix.cpu_label(),
                fps: [
                    base.gpu.as_ref().unwrap().fps,
                    thr.gpu.as_ref().unwrap().fps,
                    thrp.gpu.as_ref().unwrap().fps,
                ],
                ws_norm: [
                    weighted_speedup(thr, &alone) / ws_base,
                    weighted_speedup(thrp, &alone) / ws_base,
                ],
                gpu_llc_miss_norm: [gmiss(thr) / gmiss(base), gmiss(thrp) / gmiss(base)],
                cpu_llc_miss_norm: [cmiss(thr) / cmiss(base), cmiss(thrp) / cmiss(base)],
                gpu_bw_norm: [
                    ratio_or_nan(
                        bw(thr.dram.gpu_read_bytes, thr),
                        bw(base.dram.gpu_read_bytes, base),
                    ),
                    ratio_or_nan(
                        bw(thr.dram.gpu_write_bytes, thr),
                        bw(base.dram.gpu_write_bytes, base),
                    ),
                    ratio_or_nan(
                        bw(thrp.dram.gpu_read_bytes, thrp),
                        bw(base.dram.gpu_read_bytes, base),
                    ),
                    ratio_or_nan(
                        bw(thrp.dram.gpu_write_bytes, thrp),
                        bw(base.dram.gpu_write_bytes, base),
                    ),
                ],
            }
        })
        .collect();
    ThrottleEval { rows }
}

impl ThrottleEval {
    /// Fig. 9 left panel: FPS per configuration.
    pub fn fig9_fps_table(&self) -> Table {
        let mut t = Table::new(
            "Fig. 9 (left): FPS of throttling-amenable GPU applications (target 40)",
            &["Game", "Baseline", "Throttled", "Throt+CPUprio"],
        );
        for r in &self.rows {
            t.row(vec![
                r.game.to_string(),
                format!("{:.1}", r.fps[0]),
                format!("{:.1}", r.fps[1]),
                format!("{:.1}", r.fps[2]),
            ]);
        }
        t
    }

    /// Fig. 9 right panel: weighted CPU speedup normalized to baseline.
    pub fn fig9_ws_table(&self) -> Table {
        let mut t = Table::new(
            "Fig. 9 (right): normalized weighted CPU speedup",
            &["CPU mix", "Throttled", "Throt+CPUprio"],
        );
        for r in &self.rows {
            t.row_f(&r.cpu_label, &[r.ws_norm[0], r.ws_norm[1]]);
        }
        t.gmean_row();
        t
    }

    /// Fig. 10: normalized LLC miss counts (GPU left, CPU right).
    pub fn fig10_table(&self) -> Table {
        let mut t = Table::new(
            "Fig. 10: normalized LLC miss count (GPU apps left, CPU mixes right)",
            &["Mix", "GPU thr", "GPU thr+p", "CPU thr", "CPU thr+p"],
        );
        for r in &self.rows {
            t.row_f(
                r.game,
                &[
                    r.gpu_llc_miss_norm[0],
                    r.gpu_llc_miss_norm[1],
                    r.cpu_llc_miss_norm[0],
                    r.cpu_llc_miss_norm[1],
                ],
            );
        }
        t.amean_row();
        t
    }

    /// Fig. 11: normalized GPU DRAM bandwidth (read and write).
    pub fn fig11_table(&self) -> Table {
        let mut t = Table::new(
            "Fig. 11: normalized GPU DRAM bandwidth",
            &["Game", "Rd thr", "Wr thr", "Rd thr+p", "Wr thr+p"],
        );
        for r in &self.rows {
            t.row_f(
                r.game,
                &[
                    r.gpu_bw_norm[0],
                    r.gpu_bw_norm[1],
                    r.gpu_bw_norm[2],
                    r.gpu_bw_norm[3],
                ],
            );
        }
        t.amean_row();
        t
    }
}

// ---------------------------------------------------------------------
// Fig. 12/13/14: comparison against SMS, DynPrio and HeLM.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct CompareRow {
    pub mix: String,
    pub game: &'static str,
    pub cpu_label: String,
    /// FPS per proposal (paper order, see [`Proposal::ALL`]).
    pub fps: [f64; 6],
    /// Weighted CPU speedup normalized to baseline.
    pub ws_norm: [f64; 6],
}

#[derive(Debug, Clone)]
pub struct Comparison {
    pub rows: Vec<CompareRow>,
    /// True when built on the amenable mixes (Fig. 12), false for the
    /// non-amenable set (Fig. 13/14).
    pub amenable: bool,
}

/// Run the proposal comparison on the given mixes.
pub fn comparison(cfg: &ExpConfig, amenable: bool) -> Comparison {
    let mixes = if amenable {
        amenable_mixes()
    } else {
        non_amenable_mixes()
    };
    let alone = alone_ipcs(cfg, &mixes);
    let jobs: Vec<(usize, &Mix, Proposal)> = mixes
        .iter()
        .enumerate()
        .flat_map(|(i, m)| Proposal::ALL.map(|p| (i, m, p)))
        .collect();
    let results = par_run(jobs, cfg.threads, |(_, mix, prop)| {
        let mut m = cfg.machine(4);
        prop.apply(&mut m);
        run_one(m, mix, true, true)
    });
    let w = Proposal::ALL.len();
    let rows = mixes
        .iter()
        .enumerate()
        .map(|(i, mix)| {
            let base = &results[i * w];
            let ws_base = weighted_speedup(base, &alone);
            let mut fps = [0.0; 6];
            let mut ws = [0.0; 6];
            for (j, _) in Proposal::ALL.iter().enumerate() {
                let r = &results[i * w + j];
                fps[j] = r.gpu.as_ref().unwrap().fps;
                ws[j] = weighted_speedup(r, &alone) / ws_base;
            }
            CompareRow {
                mix: mix.name.clone(),
                game: mix.game.name,
                cpu_label: mix.cpu_label(),
                fps,
                ws_norm: ws,
            }
        })
        .collect();
    Comparison { rows, amenable }
}

impl Comparison {
    fn headers() -> Vec<&'static str> {
        let mut h = vec!["Mix"];
        h.extend(Proposal::ALL.iter().map(|p| p.label()));
        h
    }

    /// FPS panel (Fig. 12 top shows raw FPS; Fig. 13 top shows FPS
    /// normalized to baseline).
    pub fn fps_table(&self) -> Table {
        let title = if self.amenable {
            "Fig. 12 (top): FPS of GPU applications (target 40)"
        } else {
            "Fig. 13 (top): GPU FPS normalized to baseline"
        };
        let mut t = Table::new(title, &Self::headers());
        for r in &self.rows {
            let vals: Vec<f64> = if self.amenable {
                r.fps.to_vec()
            } else {
                r.fps.iter().map(|f| f / r.fps[0].max(1e-9)).collect()
            };
            let label = format!("{}:{}", r.mix, r.game);
            let mut cells = vec![label];
            cells.extend(vals.iter().map(|v| format!("{v:.3}")));
            t.row(cells);
        }
        if !self.amenable {
            t.gmean_row();
        }
        t
    }

    /// Normalized weighted CPU speedup panel.
    pub fn ws_table(&self) -> Table {
        let title = if self.amenable {
            "Fig. 12 (bottom): normalized weighted CPU speedup"
        } else {
            "Fig. 13 (bottom): normalized weighted CPU speedup"
        };
        let mut t = Table::new(title, &Self::headers());
        for r in &self.rows {
            let mut cells = vec![format!("{}:{}", r.mix, r.cpu_label)];
            cells.extend(r.ws_norm.iter().map(|v| format!("{v:.3}")));
            t.row(cells);
        }
        t.gmean_row();
        t
    }

    /// Fig. 14: equal-weight combined CPU+GPU performance (geometric mean
    /// of the normalized GPU FPS and the normalized weighted CPU speedup)
    /// for the non-amenable mixes.
    pub fn fig14_table(&self) -> Table {
        assert!(!self.amenable, "Fig. 14 is defined on non-amenable mixes");
        let mut t = Table::new(
            "Fig. 14: combined CPU+GPU performance, equal weights",
            &Self::headers(),
        );
        for r in &self.rows {
            let combined: Vec<f64> = (0..Proposal::ALL.len())
                .map(|j| {
                    let fps_norm = r.fps[j] / r.fps[0].max(1e-9);
                    (fps_norm * r.ws_norm[j]).sqrt()
                })
                .collect();
            let mut cells = vec![r.mix.clone()];
            cells.extend(combined.iter().map(|v| format!("{v:.3}")));
            t.row(cells);
        }
        t.gmean_row();
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_run_preserves_order_and_runs_everything() {
        let jobs: Vec<u64> = (0..32).collect();
        let out = par_run(jobs, 4, |j| j * 2);
        assert_eq!(out, (0..32).map(|j| j * 2).collect::<Vec<_>>());
        let out1 = par_run(vec![1, 2, 3], 1, |j| j + 1);
        assert_eq!(out1, vec![2, 3, 4]);
    }

    #[test]
    fn proposal_labels_and_application() {
        let mut m = MachineConfig::table_one(64, 1);
        Proposal::ThrotCpuPrio.apply(&mut m);
        assert_eq!(m.qos, QosMode::ThrotCpuPrio);
        assert_eq!(m.sched, SchedulerKind::FrFcfsCpuPrio);
        let mut m2 = MachineConfig::table_one(64, 1);
        Proposal::Helm.apply(&mut m2);
        assert_eq!(m2.fill_policy, FillPolicyKind::Helm);
        assert_eq!(Proposal::ALL.len(), 6);
    }

    #[test]
    fn exp_config_validation_checks_both_machine_shapes() {
        assert!(ExpConfig::default().validate().is_ok());
        assert!(ExpConfig::smoke().validate().is_ok());
        let mut bad = ExpConfig::smoke();
        bad.threads = 0;
        assert!(bad.validate().is_err());
        let mut bad = ExpConfig::smoke();
        bad.limits.max_cycles = 0;
        assert!(bad.validate().is_err());
        let mut bad = ExpConfig::smoke();
        bad.faults.frpu_jitter = f64::NAN;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn mix_partitions_are_disjoint_and_complete() {
        let a = amenable_mixes();
        let n = non_amenable_mixes();
        assert_eq!(a.len() + n.len(), 14);
        for m in &a {
            assert!(!n.iter().any(|x| x.name == m.name));
        }
    }
}
