//! One driver per paper figure, each in two parts: `*_jobs(&base)` lists
//! the simulations the figure needs as gat-serve [`JobSpec`]s, and a pure
//! fold turns their results ([`Runs`]) into the figure's data struct;
//! call its `*_table` methods to render the paper-style text tables.
//!
//! Run inventory per figure (see DESIGN.md §3):
//!
//! * Fig. 1/2 — W1–W14: standalone CPU, standalone GPU, heterogeneous.
//! * Fig. 3 — W1–W14 heterogeneous, baseline vs bypass-all GPU read fills.
//! * Fig. 8 — M1–M14, observe-only QoS: frame-rate estimation error.
//! * Fig. 9/10/11 — amenable M mixes: baseline / throttled /
//!   throttled+CPU-priority.
//! * Fig. 12 — amenable M mixes across the six schedulers/policies.
//! * Fig. 13/14 — non-amenable M mixes across the same set.
//!
//! Identical configurations get identical job ids, so figures share
//! runs: `W3-both` is both Fig. 1/2's and Fig. 3's heterogeneous W3 run,
//! `M7-off` is Fig. 9's and Fig. 12's baseline, and every CPU-only
//! single-app run, a Fig. 1 standalone run or a weighted-speedup
//! denominator, is `alone-<spec id>`. [`run_distinct`] runs each id once.
//! The §II machine has one CPU; a 4-CPU machine running one app is the
//! same machine, since idle core slots are never built.

use std::collections::BTreeMap;

use gat_hetero::report::Table;
use gat_hetero::RunLimits;
use gat_serve::{run_batch, BatchItem, EngineOptions, JobSpec, ResultCache, SinkSlot, VecSink};
use gat_sim::json::{parse_json_value, JsonValue};
use gat_workloads::{mixes_m, mixes_w, Mix, AMENABLE_NAMES};

use crate::{with_mix, CliError};

/// All figure ids, in paper order.
pub const FIGURES: [&str; 10] = [
    "fig1", "fig2", "fig3", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
];

/// The ids `figures all` renders, in order: every figure once.
pub const ALL_FIGURES: [&str; 6] = ["fig1+2", "fig3", "fig8", "fig9+10+11", "fig12", "fig13+14"];

/// A figure driver: the jobs it needs on a base spec, and its fold from
/// their results to its tables.
pub type Driver = (fn(&JobSpec) -> Vec<JobSpec>, fn(&Runs) -> Vec<Table>);

/// Figure `id`'s driver, or `None` for an unknown id. Besides
/// [`FIGURES`], the combined ids `fig1+2` (alias `motivation`),
/// `fig9+10+11` (alias `throttle`) and `fig13+14` fold every table of
/// their shared jobs.
pub fn figure(id: &str) -> Option<Driver> {
    let amenable = |base: &JobSpec| comparison_jobs(base, true);
    let non_amenable = |base: &JobSpec| comparison_jobs(base, false);
    let driver: Driver = match id {
        "fig1" => (motivation_jobs, |r| vec![motivation(r).fig1_table()]),
        "fig2" => (motivation_jobs, |r| vec![motivation(r).fig2_table()]),
        "fig1+2" | "motivation" => (motivation_jobs, |r| {
            let m = motivation(r);
            vec![m.fig1_table(), m.fig2_table()]
        }),
        "fig3" => (fig3_jobs, |r| vec![fig3(r).table()]),
        "fig8" => (fig8_jobs, |r| vec![fig8(r).table()]),
        "fig9" => (throttle_jobs, |r| {
            let e = throttle_eval(r);
            vec![e.fig9_fps_table(), e.fig9_ws_table()]
        }),
        "fig10" => (throttle_jobs, |r| vec![throttle_eval(r).fig10_table()]),
        "fig11" => (throttle_jobs, |r| vec![throttle_eval(r).fig11_table()]),
        "fig9+10+11" | "throttle" => (throttle_jobs, |r| {
            let e = throttle_eval(r);
            vec![
                e.fig9_fps_table(),
                e.fig9_ws_table(),
                e.fig10_table(),
                e.fig11_table(),
            ]
        }),
        "fig12" => (amenable, |r| {
            let c = comparison(r, true);
            vec![c.fps_table(), c.ws_table()]
        }),
        "fig13" => (non_amenable, |r| {
            let c = comparison(r, false);
            vec![c.fps_table(), c.ws_table()]
        }),
        "fig14" => (non_amenable, |r| vec![comparison(r, false).fig14_table()]),
        "fig13+14" => (non_amenable, |r| {
            let c = comparison(r, false);
            vec![c.fps_table(), c.ws_table(), c.fig14_table()]
        }),
        _ => return None,
    };
    Some(driver)
}

/// The figures' base job spec: every run of every figure starts here.
pub fn figures_base() -> JobSpec {
    JobSpec {
        scale: 64,
        seed: 0x2017_0529,
        instr: 1_500_000,
        frames: 5,
        warmup: 400_000,
        max_cycles: Some(4_000_000_000),
        watchdog: Some(50_000_000),
        ..JobSpec::base("figures")
    }
}

type Name = &'static str;

/// A tiny base for tests: scale 256 and `RunLimits::smoke()`'s cycle
/// cap, with 60k instructions, 2 frames and 30k warm-up cycles.
pub fn smoke_base() -> JobSpec {
    JobSpec {
        scale: 256,
        instr: 60_000,
        frames: 2,
        warmup: 30_000,
        max_cycles: Some(RunLimits::smoke().max_cycles),
        ..figures_base()
    }
}

/// A memory-system configuration a figure runs a mix under: its column
/// label, the job-id tag, and the three spec keys it sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variant {
    pub label: Name,
    pub tag: Name,
    pub sched: Name,
    pub qos: Name,
    pub fill: Name,
}

impl Variant {
    const fn new(label: Name, tag: Name, sched: Name, qos: Name, fill: Name) -> Self {
        Self {
            label,
            tag,
            sched,
            qos,
            fill,
        }
    }

    /// `spec` under this variant: its scheduler, QoS mode and fill policy.
    pub fn spec(&self, spec: JobSpec) -> JobSpec {
        JobSpec {
            sched: self.sched.into(),
            qos: self.qos.into(),
            fill: self.fill.into(),
            ..spec
        }
    }
}

const BOTH: Variant = Variant::new("Heterogeneous", "both", "frfcfs", "off", "base");
const BYPASS: Variant = Variant::new("Bypass", "bypass", "frfcfs", "off", "bypass");
const OBSERVE: Variant = Variant::new("Observe", "observe", "frfcfs", "observe", "base");
const THROTTLE: Variant = Variant::new("Throttled", "throttle", "frfcfs", "throttle", "base");

/// The six comparison configurations of Fig. 12–14, in paper order.
pub const PROPOSALS: [Variant; 6] = [
    Variant::new("Baseline", "off", "frfcfs", "off", "base"),
    Variant::new("SMS-0.9", "sms09", "sms09", "off", "base"),
    Variant::new("SMS-0", "sms0", "sms0", "off", "base"),
    Variant::new("DynPrio", "dynprio", "dynprio", "off", "base"),
    Variant::new("HeLM", "helm", "frfcfs", "off", "helm"),
    Variant::new("ThrotCPUprio", "throtcpuprio", "cpuprio", "full", "base"),
];

/// Fig. 9–11's configurations: baseline, throttled, throttled+CPU priority.
const THROTTLE_EVAL: [Variant; 3] = [PROPOSALS[0], THROTTLE, PROPOSALS[5]];

fn alone_id(app: u16) -> String {
    format!("alone-{app}")
}

/// CPU app `app` alone on the machine.
fn alone_job(base: &JobSpec, app: u16) -> JobSpec {
    JobSpec {
        id: alone_id(app),
        game: None,
        cpus: vec![app],
        ..base.clone()
    }
}

fn gpu_alone_id(mix: &Mix) -> String {
    format!("alone-{}", mix.game.name)
}

/// `mix`'s game alone on the machine.
fn gpu_alone_job(base: &JobSpec, mix: &Mix) -> JobSpec {
    JobSpec {
        id: gpu_alone_id(mix),
        cpus: Vec::new(),
        ..with_mix(base.clone(), mix)
    }
}

fn mix_id(mix: &Mix, v: &Variant) -> String {
    format!("{}-{}", mix.name, v.tag)
}

/// `mix` under variant `v`.
fn mix_job(base: &JobSpec, mix: &Mix, v: &Variant) -> JobSpec {
    JobSpec {
        id: mix_id(mix, v),
        ..v.spec(with_mix(base.clone(), mix))
    }
}

/// One job's parsed `run_result` line (`RunResult::to_json`). Its
/// numbers are the run's exact values: the emitter writes each `f64` as
/// its shortest round-trip decimal.
pub struct Run(JsonValue);

impl Run {
    fn field(&self, path: &str) -> &JsonValue {
        path.split('.')
            .try_fold(&self.0, |v, key| v.get(key))
            .unwrap_or_else(|| panic!("run_result has no {path}"))
    }

    /// A float by dotted path (`"gpu.fps"`); `null`, which stands for a
    /// NaN, reads as NaN.
    pub fn num(&self, path: &str) -> f64 {
        let v = self.field(path);
        v.as_f64()
            .or((*v == JsonValue::Null).then_some(f64::NAN))
            .unwrap_or_else(|| panic!("{path} is not a number"))
    }

    /// An integer by dotted path (`"llc.gpu_misses"`).
    pub fn count(&self, path: &str) -> u64 {
        let v = self.field(path).as_u64();
        v.unwrap_or_else(|| panic!("{path} is not a count"))
    }

    /// `(spec id, IPC, instructions retired)` per core, in core order.
    pub fn cores(&self) -> Vec<(u16, f64, u64)> {
        let JsonValue::Arr(cores) = self.field("cores") else {
            panic!("run_result cores is not an array");
        };
        let core = |c: Run| (c.count("spec_id") as u16, c.num("ipc"), c.count("retired"));
        cores.iter().map(|c| core(Run(c.clone()))).collect()
    }

    fn ipc0(&self) -> f64 {
        self.cores()[0].1
    }

    fn fps(&self) -> f64 {
        self.num("gpu.fps")
    }
}

/// Run `jobs` in order as one gat-serve batch on `shards` workers, with
/// the result cache off, and return each job's `run_result` line. A job
/// that ends in any outcome but `ok` or `degraded` is a
/// [`CliError::Sim`] naming its id and outcome.
pub fn run_jobs(jobs: &[JobSpec], shards: usize) -> Result<Vec<Run>, CliError> {
    let items: Vec<BatchItem> = jobs.iter().cloned().map(BatchItem::Job).collect();
    let sink = VecSink::default();
    let opts = EngineOptions {
        shards,
        cache: ResultCache::disabled(),
        dump_dir: None,
    };
    run_batch(&items, &opts, &mut [SinkSlot::new(Box::new(sink.clone()))]);
    let parse = |line: Option<&str>| parse_json_value(line.unwrap_or_default());
    let blocks = sink.take();
    let mut runs = Vec::with_capacity(jobs.len());
    for (job, block) in jobs.iter().zip(&blocks) {
        let mut lines = block.lines();
        let outcome = parse(lines.next()).expect("gat-serve writes an outcome line");
        match outcome.get("outcome").and_then(JsonValue::as_str) {
            Some("ok" | "degraded") => runs.push(Run(parse(lines.next()).expect("a run_result"))),
            _ => return Err(CliError::Sim(format!("job {}: {}", job.id, block.trim()))),
        }
    }
    Ok(runs)
}

/// The results of a set of jobs, by job id.
pub type Runs = BTreeMap<String, Run>;

/// Run the distinct jobs of `jobs`, the first job of each id, as one
/// batch; see [`run_jobs`].
pub fn run_distinct(mut jobs: Vec<JobSpec>, shards: usize) -> Result<Runs, CliError> {
    let mut seen = std::collections::BTreeSet::new();
    jobs.retain(|j| seen.insert(j.id.clone()));
    let runs = run_jobs(&jobs, shards)?;
    Ok(jobs.into_iter().map(|j| j.id).zip(runs).collect())
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
}

/// The W1–W14 motivation runs (Fig. 1 and Fig. 2 share them): each W
/// mix's CPU app alone, its game alone, and both together.
pub fn motivation_jobs(base: &JobSpec) -> Vec<JobSpec> {
    mixes_w()
        .iter()
        .flat_map(|mix| {
            [
                alone_job(base, mix.cpu[0].spec_id),
                gpu_alone_job(base, mix),
                mix_job(base, mix, &BOTH),
            ]
        })
        .collect()
}

/// The W1–W14 motivation study, from [`motivation_jobs`]' runs.
pub fn motivation(runs: &Runs) -> Motivation {
    let rows = mixes_w()
        .iter()
        .map(|mix| {
            let cpu_alone = &runs[&alone_id(mix.cpu[0].spec_id)];
            let hetero = &runs[&mix_id(mix, &BOTH)];
            let fps_alone = runs[&gpu_alone_id(mix)].fps();
            let fps_hetero = hetero.fps();
            MotivationRow {
                workload: mix.name.clone(),
                game: mix.game.name,
                cpu_ratio: hetero.ipc0() / cpu_alone.ipc0(),
                gpu_ratio: fps_hetero / fps_alone,
                fps_alone,
                fps_hetero,
            }
        })
        .collect();
    Motivation { rows }
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

/// Each W mix heterogeneous, baseline and with all GPU read fills bypassed.
pub fn fig3_jobs(base: &JobSpec) -> Vec<JobSpec> {
    mixes_w()
        .iter()
        .flat_map(|mix| [mix_job(base, mix, &BOTH), mix_job(base, mix, &BYPASS)])
        .collect()
}

/// CPU speedup when all GPU read misses bypass the LLC (W mixes).
pub fn fig3(runs: &Runs) -> Fig3 {
    let rows = mixes_w()
        .iter()
        .map(|mix| Fig3Row {
            workload: mix.name.clone(),
            cpu_speedup: runs[&mix_id(mix, &BYPASS)].ipc0() / runs[&mix_id(mix, &BOTH)].ipc0(),
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

/// Each M mix with observe-only QoS.
pub fn fig8_jobs(base: &JobSpec) -> Vec<JobSpec> {
    mixes_m()
        .iter()
        .map(|mix| mix_job(base, mix, &OBSERVE))
        .collect()
}

/// Percent error of dynamic frame-rate estimation across the M mixes.
pub fn fig8(runs: &Runs) -> Fig8 {
    let rows = mixes_m()
        .iter()
        .map(|mix| {
            let r = &runs[&mix_id(mix, &OBSERVE)];
            Fig8Row {
                game: mix.game.name,
                error_mean: r.num("gpu.est_error_mean"),
                error_min: r.num("gpu.est_error_min"),
                error_max: r.num("gpu.est_error_max"),
                predicted_frames: r.count("gpu.predicted_frames"),
                relearn_events: r.count("gpu.relearn_events"),
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

/// Each app of `mixes` alone on the machine: the weighted-speedup
/// denominators.
fn alone_jobs(base: &JobSpec, mixes: &[Mix]) -> Vec<JobSpec> {
    let mut ids: Vec<u16> = mixes
        .iter()
        .flat_map(|m| m.cpu.iter().map(|p| p.spec_id))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids.into_iter().map(|id| alone_job(base, id)).collect()
}

/// Weighted speedup of `r` against each app's standalone IPC.
fn weighted_speedup(r: &Run, runs: &Runs) -> f64 {
    r.cores()
        .into_iter()
        .map(|(app, ipc, _)| {
            let alone = runs[&alone_id(app)].ipc0();
            if alone > 0.0 {
                ipc / alone
            } else {
                0.0
            }
        })
        .sum()
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

/// The amenable M mixes (games whose standalone FPS exceeds 40), or the
/// rest: M1–M6, M9, M14.
fn m_mixes(amenable: bool) -> Vec<Mix> {
    let keep = |m: &Mix| AMENABLE_NAMES.contains(&m.game.name) == amenable;
    mixes_m().into_iter().filter(keep).collect()
}

/// The Fig. 9/10/11 runs: the amenable apps alone, then each amenable
/// mix under the three throttling configurations.
pub fn throttle_jobs(base: &JobSpec) -> Vec<JobSpec> {
    let mixes = m_mixes(true);
    let mut jobs = alone_jobs(base, &mixes);
    for mix in &mixes {
        jobs.extend(THROTTLE_EVAL.iter().map(|v| mix_job(base, mix, v)));
    }
    jobs
}

/// The Fig. 9/10/11 evaluation.
pub fn throttle_eval(runs: &Runs) -> ThrottleEval {
    let rows = m_mixes(true)
        .iter()
        .map(|mix| {
            let [base, thr, thrp] = THROTTLE_EVAL.map(|v| &runs[&mix_id(mix, &v)]);
            let ws_base = weighted_speedup(base, runs);
            // The measurement windows differ in wall length (throttled
            // GPUs render fewer frames while the CPUs run their fixed
            // budget), so miss counts are normalized per unit of work:
            // per frame for the GPU, per retired instruction for the CPU.
            let gmiss = |r: &Run| {
                r.count("llc.gpu_misses").max(1) as f64 / r.count("gpu.frames").max(1) as f64
            };
            let cmiss = |r: &Run| {
                let retired: u64 = r.cores().iter().map(|c| c.2).sum();
                r.count("llc.cpu_misses").max(1) as f64 / retired.max(1) as f64
            };
            // Bandwidth is traffic per unit time: the throttled GPU's
            // misses spread over a longer frame time (§VI discussion), so
            // normalize bytes by measured cycles.
            let bw = |r: &Run, dir: &str| {
                r.count(&format!("dram.gpu_{dir}_bytes")) as f64 / r.count("cycles").max(1) as f64
            };
            ThrottleRow {
                mix: mix.name.clone(),
                game: mix.game.name,
                cpu_label: mix.cpu_label(),
                fps: [base.fps(), thr.fps(), thrp.fps()],
                ws_norm: [
                    weighted_speedup(thr, runs) / ws_base,
                    weighted_speedup(thrp, runs) / ws_base,
                ],
                gpu_llc_miss_norm: [gmiss(thr) / gmiss(base), gmiss(thrp) / gmiss(base)],
                cpu_llc_miss_norm: [cmiss(thr) / cmiss(base), cmiss(thrp) / cmiss(base)],
                gpu_bw_norm: [
                    ratio_or_nan(bw(thr, "read"), bw(base, "read")),
                    ratio_or_nan(bw(thr, "write"), bw(base, "write")),
                    ratio_or_nan(bw(thrp, "read"), bw(base, "read")),
                    ratio_or_nan(bw(thrp, "write"), bw(base, "write")),
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
    /// FPS per proposal (paper order, see [`PROPOSALS`]).
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

/// The proposal comparison runs: the mixes' apps alone, then each mix
/// under every proposal.
pub fn comparison_jobs(base: &JobSpec, amenable: bool) -> Vec<JobSpec> {
    let mixes = m_mixes(amenable);
    let mut jobs = alone_jobs(base, &mixes);
    for mix in &mixes {
        jobs.extend(PROPOSALS.iter().map(|p| mix_job(base, mix, p)));
    }
    jobs
}

/// The proposal comparison on the amenable or the non-amenable mixes.
pub fn comparison(runs: &Runs, amenable: bool) -> Comparison {
    let rows = m_mixes(amenable)
        .iter()
        .map(|mix| {
            let ws_base = weighted_speedup(&runs[&mix_id(mix, &PROPOSALS[0])], runs);
            let mut fps = [0.0; 6];
            let mut ws = [0.0; 6];
            for (j, p) in PROPOSALS.iter().enumerate() {
                let r = &runs[&mix_id(mix, p)];
                fps[j] = r.fps();
                ws[j] = weighted_speedup(r, runs) / ws_base;
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
        h.extend(PROPOSALS.iter().map(|p| p.label));
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
            let combined: Vec<f64> = (0..PROPOSALS.len())
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
    fn proposals_resolve_to_their_machines() {
        use gat_dram::SchedulerKind;
        use gat_hetero::{FillPolicyKind, QosMode};
        let on = |p: &Variant| p.spec(figures_base()).resolve().unwrap().cfg;
        let full = on(&PROPOSALS[5]);
        assert_eq!(full.qos, QosMode::ThrotCpuPrio);
        assert_eq!(full.sched, SchedulerKind::FrFcfsCpuPrio);
        assert_eq!(on(&PROPOSALS[4]).fill_policy, FillPolicyKind::Helm);
        assert_eq!(on(&PROPOSALS[1]).sched, SchedulerKind::Sms(0.9));
        assert_eq!(on(&BYPASS).fill_policy, FillPolicyKind::BypassAll);
        assert_eq!(on(&THROTTLE).qos, QosMode::Throttle);
    }

    #[test]
    fn figure_list_is_complete() {
        let known = FIGURES.iter().chain(&ALL_FIGURES).chain(&["throttle"]);
        assert!(known.copied().all(|id| figure(id).is_some()));
        assert!(figure("fig99").is_none());
    }

    #[test]
    fn run_fields_read_back_exactly() {
        let line = r#"{"cycles":7,"cores":[{"spec_id":470,"ipc":0.1,"retired":9}],"gpu":{"fps":41.25,"est_error_mean":null}}"#;
        let r = Run(parse_json_value(line).unwrap());
        assert_eq!(r.count("cycles"), 7);
        assert_eq!(r.cores(), [(470, 0.1, 9)]);
        assert_eq!(r.fps(), 41.25);
        assert!(r.num("gpu.est_error_mean").is_nan());
    }
}
