//! Calibration diagnostic: per-app standalone IPCs, per-game standalone
//! FPS vs Table II, and baseline-vs-throttled behaviour on one mix.
//!
//! ```text
//! cargo run --release -p gat-bench --bin calibrate -- [cpus|games|mix M7] [--scale N]
//! ```

#![warn(clippy::disallowed_methods)]

use gat_bench::{fail, Args, CliError};
use gat_dram::SchedulerKind;
use gat_hetero::{HeteroSystem, MachineConfig, QosMode, RunLimits};
use gat_workloads::{all_games, all_spec, mixes_m};

fn limits() -> RunLimits {
    RunLimits {
        cpu_instructions: 400_000,
        gpu_frames: 4,
        warmup_cycles: 200_000,
        max_cycles: 4_000_000_000,
        watchdog: 50_000_000,
    }
}

fn main() {
    if let Err(e) = real_main() {
        fail("calibrate", e);
    }
}

fn real_main() -> Result<(), CliError> {
    let args = Args::from_env("--scale", "")?;
    let words = args.positional();
    let what = words.first().map_or("cpus", String::as_str);
    let scale: u32 = args.num("--scale", 128)?;
    {
        let mut probe = MachineConfig::table_one(scale, 3);
        probe.limits = limits();
        probe
            .validate()
            .map_err(|e| CliError::Config(e.to_string()))?;
    }

    match what {
        "cpus" => {
            println!(
                "{:<12} {:>8} {:>9} {:>6} {:>8} {:>8} {:>8} {:>8}",
                "app", "baseIPC", "aloneIPC", "frac", "dramLat", "rowHit", "llcMiss%", "pf"
            );
            for p in all_spec() {
                let mut cfg = MachineConfig::table_one(scale, 3);
                cfg.limits = limits();
                let r = HeteroSystem::new(cfg, &[p], None).try_run()?;
                println!(
                    "{:<12} {:>8.2} {:>9.3} {:>5.0}% {:>8.0} {:>8.2} {:>8.2} {:>8}",
                    p.name,
                    p.base_ipc,
                    r.cores[0].ipc,
                    100.0 * r.cores[0].ipc / p.base_ipc,
                    r.dram.read_latency_mean,
                    r.dram.row_hit_rate,
                    100.0 * r.llc.cpu_miss_ratio(),
                    r.cores[0].prefetches,
                );
            }
        }
        "games" => {
            println!(
                "{:<14} {:>9} {:>9} {:>7}",
                "game", "tableFPS", "aloneFPS", "ratio"
            );
            for g in all_games() {
                let mut cfg = MachineConfig::table_one(scale, 3);
                cfg.limits = limits();
                let r = HeteroSystem::new(cfg, &[], Some(g.clone())).try_run()?;
                let fps = r.gpu.as_ref().unwrap().fps;
                println!(
                    "{:<14} {:>9.1} {:>9.1} {:>7.2}",
                    g.name,
                    g.table2_fps,
                    fps,
                    fps / g.table2_fps
                );
            }
        }
        "mix" => {
            let name = words.get(1).map_or("M7", String::as_str);
            let mix = mixes_m()
                .into_iter()
                .find(|m| m.name == name)
                .ok_or_else(|| CliError::Usage(format!("unknown mix {name:?} (M1..M14)")))?;
            println!(
                "== {} ({} + {}) scale {scale}",
                mix.name,
                mix.game.name,
                mix.cpu_label()
            );
            let mut rows = Vec::new();
            for (label, qos, sched) in [
                ("baseline", QosMode::Off, SchedulerKind::FrFcfs),
                ("throttle", QosMode::Throttle, SchedulerKind::FrFcfs),
                (
                    "throt+prio",
                    QosMode::ThrotCpuPrio,
                    SchedulerKind::FrFcfsCpuPrio,
                ),
            ] {
                let mut cfg = MachineConfig::table_one(scale, 3);
                cfg.limits = limits();
                cfg.qos = qos;
                cfg.sched = sched;
                let r = HeteroSystem::new(cfg, &mix.cpu, Some(mix.game.clone())).try_run()?;
                rows.push((label, r));
            }
            println!(
                "{:<11} {:>7} {:>8} {:>8} {:>8} {:>8} {:>8} {:>7} {:>7} {:>9} {:>4} {:>7}",
                "config",
                "FPS",
                "sumIPC",
                "gpuHit%",
                "cpuHit%",
                "gpuB/c",
                "cpuB/c",
                "gAcc/f",
                "gMis/f",
                "dramLat",
                "WG",
                "Mcycles"
            );
            for (label, r) in &rows {
                let g = r.gpu.as_ref().unwrap();
                let frames = g.frames.max(1);
                println!(
                    "{:<11} {:>7.1} {:>8.3} {:>8.1} {:>8.1} {:>8.3} {:>8.3} {:>7} {:>7} {:>9.0} {:>4} {:>7.1}",
                    label,
                    g.fps,
                    r.cores.iter().map(|c| c.ipc).sum::<f64>(),
                    100.0 * (1.0 - r.llc.gpu_miss_ratio()),
                    100.0 * (1.0 - r.llc.cpu_miss_ratio()),
                    r.dram.gpu_bytes() as f64 / r.cycles as f64,
                    r.dram.cpu_bytes() as f64 / r.cycles as f64,
                    (r.llc.gpu_hits + r.llc.gpu_misses) / frames,
                    r.llc.gpu_misses / frames,
                    r.dram.read_latency_mean,
                    g.throttle_w_g,
                    r.cycles as f64 / 1e6,
                );
            }
            println!("unit hit rates (tex1 tex2 depth color vtx):");
            for (label, r) in &rows {
                let g = r.gpu.as_ref().unwrap();
                let rate = |(h, m): (u64, u64)| {
                    if h + m == 0 {
                        0.0
                    } else {
                        h as f64 / (h + m) as f64
                    }
                };
                let us = g.unit_stats;
                println!(
                    "{:<11} {:.3} {:.3} {:.3} {:.3} {:.3}  misses: {} {} {} {} {}",
                    label,
                    rate(us[0]),
                    rate(us[1]),
                    rate(us[2]),
                    rate(us[3]),
                    rate(us[4]),
                    us[0].1,
                    us[1].1,
                    us[2].1,
                    us[3].1,
                    us[4].1,
                );
            }
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown mode {other:?} (expected cpus|games|mix)"
            )))
        }
    }
    Ok(())
}
