//! Every metric the benchmark reports: unit, direction, regression bound,
//! the layer it belongs to, and the end-to-end metric (and workloads) a
//! change to that layer should move. `BENCHMARK.json` lists the same
//! metrics; a test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
    pub layer: &'static str,
    /// The end-to-end metric a change in this layer should move.
    pub moves: &'static str,
    /// Where it should move, and where it should stay put.
    pub workloads: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        layer: "end-to-end",
        moves: "-",
        workloads: "all",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
    workloads: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        layer,
        moves,
        workloads,
    }
}

use crate::workloads::Workload;
use Better::{Higher, Lower};

/// Reported with `--trace 0`, tracing off (see `measure` for how the
/// times are taken). The bounds come from the run-to-run spread
/// (quartile distance over median, ten seeds per workload) in three sets
/// on a shared 2-vCPU host. The times spread 2–5% in most sets and at
/// most 8.3% (`serve`, one set), so 0.2; the three sets' medians agreed
/// within 3%. `setup_s` gets the widest bound, since `serve`'s
/// sub-millisecond set-up swings by 11–26%. Peak RSS spread at most 2%,
/// so 0.1.
pub const END_TO_END: &[Metric] = &[
    e2e("sim_cycles_per_s", "cycles/s", Higher, 0.2),
    e2e("jobs_per_s", "jobs/s", Higher, 0.2),
    e2e("job_latency_p50_s", "s", Lower, 0.2),
    e2e("job_latency_p90_s", "s", Lower, 0.2),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.1),
];

const SIM_WORK: &str = "all; a speed-only change leaves it identical";

/// Reported with `--trace 1`: one traced pass per workload.
pub const PER_LAYER: &[Metric] = &[
    layer(
        "engine.speedup_vs_plain_loop",
        "ratio",
        Higher,
        "engine",
        "sim_cycles_per_s",
        "motivation; about 1.0 on throttle, schedulers and serve",
    ),
    layer(
        "engine.skipped_share",
        "ratio",
        Higher,
        "engine",
        "sim_cycles_per_s",
        "motivation (about half) and serve; under 2% on throttle and schedulers",
    ),
    layer(
        "trace.overhead_ratio",
        "ratio",
        Lower,
        "trace",
        "none",
        "all; the cost of tracing itself",
    ),
    layer(
        "cpu.self_s",
        "s",
        Lower,
        "cpu",
        "sim_cycles_per_s",
        "throttle (four busy cores); small on motivation",
    ),
    layer(
        "cpu.ns_per_tick",
        "ns",
        Lower,
        "cpu",
        "sim_cycles_per_s",
        "throttle; small on motivation",
    ),
    layer("cpu.ticks", "count", Lower, "cpu", "none", SIM_WORK),
    layer(
        "gpu.self_s",
        "s",
        Lower,
        "gpu",
        "sim_cycles_per_s",
        "motivation (GPU-alone runs) and throttle",
    ),
    layer(
        "gpu.ns_per_tick",
        "ns",
        Lower,
        "gpu",
        "sim_cycles_per_s",
        "motivation and throttle",
    ),
    layer("gpu.ticks", "count", Lower, "gpu", "none", SIM_WORK),
    layer(
        "qos.self_s",
        "s",
        Lower,
        "qos",
        "sim_cycles_per_s",
        "throttle; not motivation, which has no controller",
    ),
    layer("qos.calls", "count", Lower, "qos", "none", SIM_WORK),
    layer(
        "uncore.self_s",
        "s",
        Lower,
        "uncore",
        "sim_cycles_per_s",
        "schedulers and throttle; little on motivation",
    ),
    layer(
        "uncore.ns_per_cycle",
        "ns",
        Lower,
        "uncore",
        "sim_cycles_per_s",
        "schedulers and throttle",
    ),
    layer(
        "uncore.ingress_s",
        "s",
        Lower,
        "uncore",
        "sim_cycles_per_s",
        "throttle and schedulers",
    ),
    layer(
        "uncore.ingress_attempts",
        "count",
        Lower,
        "uncore",
        "none",
        SIM_WORK,
    ),
    layer(
        "uncore.ingress_reject_ratio",
        "ratio",
        Lower,
        "uncore",
        "none",
        SIM_WORK,
    ),
    layer("sim.cycles", "count", Lower, "model", "none", SIM_WORK),
    layer(
        "llc.cpu_miss_ratio",
        "ratio",
        Lower,
        "model",
        "none",
        SIM_WORK,
    ),
    layer(
        "llc.gpu_miss_ratio",
        "ratio",
        Lower,
        "model",
        "none",
        SIM_WORK,
    ),
    layer("dram.reads", "count", Lower, "model", "none", SIM_WORK),
    layer(
        "dram.row_hit_rate",
        "ratio",
        Higher,
        "model",
        "none",
        SIM_WORK,
    ),
    layer(
        "serve.parse_ms",
        "ms",
        Lower,
        "serve",
        "setup_s",
        "serve; little elsewhere",
    ),
    layer(
        "job.run_s_p50",
        "s",
        Lower,
        "job",
        "job_latency_p50_s",
        "all; with jobs_per_s on serve",
    ),
    layer(
        "job.run_s_p90",
        "s",
        Lower,
        "job",
        "job_latency_p90_s",
        "all; with jobs_per_s on serve",
    ),
    layer(
        "serve.parallel_efficiency",
        "ratio",
        Higher,
        "serve",
        "jobs_per_s",
        "serve",
    ),
    layer(
        "serve.warm_replay_ms",
        "ms",
        Lower,
        "serve",
        "jobs_per_s",
        "serve (cache read path)",
    ),
    layer(
        "kernel.llc_access_hit_ns",
        "ns",
        Lower,
        "kernel",
        "sim_cycles_per_s",
        "throttle",
    ),
    layer(
        "kernel.llc_fill_evict_ns",
        "ns",
        Lower,
        "kernel",
        "sim_cycles_per_s",
        "throttle",
    ),
    layer(
        "kernel.dram_stream64_us",
        "us",
        Lower,
        "kernel",
        "sim_cycles_per_s",
        "schedulers",
    ),
    layer(
        "kernel.ring_send_drain_ns",
        "ns",
        Lower,
        "kernel",
        "sim_cycles_per_s",
        "throttle",
    ),
    layer(
        "kernel.frpu_rtp_ns",
        "ns",
        Lower,
        "kernel",
        "sim_cycles_per_s",
        "throttle",
    ),
    layer(
        "kernel.atu_gate_ns",
        "ns",
        Lower,
        "kernel",
        "sim_cycles_per_s",
        "throttle",
    ),
    layer(
        "kernel.rng_next_u64_ns",
        "ns",
        Lower,
        "kernel",
        "sim_cycles_per_s",
        "schedulers",
    ),
];

/// Look a metric up by name in either list.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Metric names are `[A-Za-z0-9_.-]+` and start with a letter or digit.
pub fn is_valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The `list` command's tables: the workloads, then every metric.
pub fn render_list() -> String {
    let mut out = String::new();
    for w in Workload::ALL {
        out.push_str(&format!("{:<11} {}\n", w.name(), w.why()));
    }
    out.push('\n');
    out.push_str(&format!(
        "{:<30} {:<9} {:<6} {:<6} {:<10} {:<18} {}\n",
        "metric", "unit", "better", "bound", "layer", "moves", "workloads"
    ));
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let bound = m.bound.map_or_else(|| "-".to_string(), |b| format!("{b}"));
        out.push_str(&format!(
            "{:<30} {:<9} {:<6} {:<6} {:<10} {:<18} {}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            bound,
            m.layer,
            m.moves,
            m.workloads
        ));
    }
    out
}
