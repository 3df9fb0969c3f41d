//! Ablation studies beyond the paper (DESIGN.md §3): decompose the
//! proposal and stress its design choices on one amenable mix.
//!
//! ```text
//! cargo run --release -p gat-bench --bin ablate -- [mix-number] [--scale N] [--json PATH]
//! ```
//!
//! `--json PATH` writes one JSONL object per variant wrapping the full
//! `RunResult`: `{"type":"ablation_variant","variant":...,"result":{...}}`.
//!
//! Variants:
//! * baseline            — FR-FCFS, no QoS
//! * throttle-only       — step 2 alone (Fig. 9 middle bars)
//! * prio-only           — step 3 alone (not in the paper)
//! * full                — the proposal
//! * full-strict         — full, with Fig. 6's hard W_G reset on overshoot
//! * full-llc-lru        — full, with an LRU LLC instead of SRRIP
//! * full-sms-dram       — full throttling over an SMS-0.9 DRAM scheduler

#![warn(clippy::disallowed_methods)]

use std::io::Write;

use gat_bench::{fail, parse_num, Args, CliError};
use gat_cache::ReplacementPolicy;
use gat_dram::SchedulerKind;
use gat_hetero::{HeteroSystem, MachineConfig, QosMode, RunLimits, RunResult};
use gat_sim::json::Obj;
use gat_workloads::mix_m;

fn main() {
    if let Err(e) = real_main() {
        fail("ablate", e);
    }
}

fn real_main() -> Result<(), CliError> {
    let args = Args::from_env("--scale --json", "")?;
    let k: usize = match args.positional().first() {
        Some(s) => parse_num("mix-number", s)?,
        None => 7,
    };
    if !(1..=14).contains(&k) {
        return Err(CliError::Usage(format!(
            "mix-number must be 1..=14, got {k}"
        )));
    }
    let scale: u32 = args.num("--scale", 128)?;
    let json_path = args.get("--json");
    let mut json = match json_path {
        Some(p) => Some(std::io::BufWriter::new(
            std::fs::File::create(p).map_err(|e| CliError::Io(format!("{p}: {e}")))?,
        )),
        None => None,
    };
    let mix = mix_m(k);
    println!(
        "ablation on M{k}: {} + CPUs {} (scale {scale})",
        mix.game.name,
        mix.cpu_label()
    );

    let limits = RunLimits {
        cpu_instructions: 400_000,
        gpu_frames: 4,
        warmup_cycles: 200_000,
        max_cycles: 4_000_000_000,
        watchdog: 50_000_000,
    };

    let base_cfg = || {
        let mut c = MachineConfig::table_one(scale, 77);
        c.limits = limits;
        c
    };
    base_cfg()
        .validate()
        .map_err(|e| CliError::Config(e.to_string()))?;
    let variants: Vec<(&str, MachineConfig)> = vec![
        ("baseline", base_cfg()),
        ("throttle-only", {
            let mut c = base_cfg();
            c.qos = QosMode::Throttle;
            c
        }),
        ("prio-only", {
            let mut c = base_cfg();
            c.qos = QosMode::CpuPrioOnly;
            c.sched = SchedulerKind::FrFcfsCpuPrio;
            c
        }),
        ("full", {
            let mut c = base_cfg();
            c.qos = QosMode::ThrotCpuPrio;
            c.sched = SchedulerKind::FrFcfsCpuPrio;
            c
        }),
        ("full-strict", {
            let mut c = base_cfg();
            c.qos = QosMode::ThrotCpuPrio;
            c.sched = SchedulerKind::FrFcfsCpuPrio;
            c.strict_release = true;
            c
        }),
        ("full-llc-lru", {
            let mut c = base_cfg();
            c.qos = QosMode::ThrotCpuPrio;
            c.sched = SchedulerKind::FrFcfsCpuPrio;
            c.llc_policy = ReplacementPolicy::Lru;
            c
        }),
        ("full-llc-drrip", {
            let mut c = base_cfg();
            c.qos = QosMode::ThrotCpuPrio;
            c.sched = SchedulerKind::FrFcfsCpuPrio;
            c.llc_policy = ReplacementPolicy::Drrip;
            c
        }),
        ("full-sms-dram", {
            let mut c = base_cfg();
            c.qos = QosMode::Throttle; // SMS has no CPU-prio line
            c.sched = SchedulerKind::Sms(0.9);
            c
        }),
        // §IV's static-partitioning comparisons ([28]-style): shown by a
        // later study (and by this ablation) to be sub-optimal.
        ("static-llc-4w", {
            let mut c = base_cfg();
            c.gpu_llc_ways = Some(4);
            c
        }),
        ("static-dram-ch", {
            let mut c = base_cfg();
            c.partition_channels = true;
            c
        }),
        ("static-prio", {
            let mut c = base_cfg();
            c.sched = SchedulerKind::StaticCpuPrio;
            c
        }),
    ];

    println!(
        "{:<15} {:>7} {:>8} {:>9} {:>9} {:>5}",
        "variant", "FPS", "ΣIPC", "gpuB/c", "cpuB/c", "WG"
    );
    let mut base_ipc = 0.0;
    for (label, cfg) in variants {
        let r: RunResult = HeteroSystem::new(cfg, &mix.cpu, Some(mix.game.clone())).try_run()?;
        let g = r.gpu.as_ref().unwrap();
        let sum_ipc: f64 = r.cores.iter().map(|c| c.ipc).sum();
        if label == "baseline" {
            base_ipc = sum_ipc;
        }
        println!(
            "{:<15} {:>7.1} {:>7.3}{:+5.1}% {:>9.3} {:>9.3} {:>5}",
            label,
            g.fps,
            sum_ipc,
            100.0 * (sum_ipc / base_ipc - 1.0),
            r.dram.gpu_bytes() as f64 / r.cycles as f64,
            r.dram.cpu_bytes() as f64 / r.cycles as f64,
            g.throttle_w_g,
        );
        if let Some(f) = json.as_mut() {
            let line = Obj::new()
                .str("type", "ablation_variant")
                .str("variant", label)
                .raw("result", &r.to_json())
                .finish();
            writeln!(f, "{line}").map_err(|e| CliError::Io(format!("--json: {e}")))?;
        }
    }
    if let Some(mut f) = json {
        f.flush()
            .map_err(|e| CliError::Io(format!("--json: {e}")))?;
        eprintln!("# wrote JSONL results to {}", json_path.unwrap());
    }
    Ok(())
}
