//! Per-frame timeline of one heterogeneous run: watch the QoS control
//! loop engage frame by frame (learning → prediction → throttling) and
//! the CPU recover.
//!
//! ```text
//! cargo run --release -p gat-bench --bin timeline -- [mix-number] [--scale N] [--frames N]
//!         [--epoch N] [--json PATH] [--faults SPEC]
//! ```
//!
//! The text table is driven by the structured run-event stream
//! (`HeteroSystem::subscribe_run_events`). With `--json PATH` every event
//! — frame boundaries, QoS transitions, DRAM priority flips, and one
//! registry snapshot every `--epoch` CPU cycles — is also written to
//! PATH as JSONL, followed by a final full registry snapshot.
//! `--faults SPEC` (or `GAT_FAULTS`) installs a deterministic
//! fault-injection plan; a run that stops making progress exits with
//! code 3 and a structured diagnostic instead of spinning.

#![warn(clippy::disallowed_methods)]

use std::io::Write;

use gat_bench::{fail, fault_plan_from, parse_num, Args, CliError};
use gat_dram::SchedulerKind;
use gat_hetero::{HeteroSystem, MachineConfig, QosMode, RunEvent, RunLimits, SimError};
use gat_workloads::mix_m;

fn main() {
    if let Err(e) = real_main() {
        fail("timeline", e);
    }
}

fn real_main() -> Result<(), CliError> {
    let args = Args::from_env("--scale --frames --epoch --json --faults", "")?;
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
    let frames: u32 = args.num("--frames", 12)?;
    let epoch: u64 = args.num("--epoch", 1_000_000)?;
    let json_path = args.get("--json");
    let mix = mix_m(k);
    println!(
        "timeline of M{k}: {} + CPUs {} (scale {scale}, {frames} frames, target 40 FPS)",
        mix.game.name,
        mix.cpu_label()
    );

    const MAX_CYCLES: u64 = 40_000_000_000;
    let mut cfg = MachineConfig::table_one(scale, 5);
    cfg.qos = QosMode::ThrotCpuPrio;
    cfg.sched = SchedulerKind::FrFcfsCpuPrio;
    cfg.limits = RunLimits {
        cpu_instructions: u64::MAX, // run until the GPU finishes
        gpu_frames: frames,
        warmup_cycles: 0,
        max_cycles: MAX_CYCLES,
        watchdog: 50_000_000,
    };
    cfg.faults = fault_plan_from(args.get("--faults"))?;
    cfg.validate()
        .map_err(|e| CliError::Config(e.to_string()))?;

    let mut sys = HeteroSystem::new(cfg, &mix.cpu, Some(mix.game.clone()));
    let sub = sys.subscribe_run_events();
    sys.set_epoch_sampling(if epoch > 0 { Some(epoch) } else { None });
    let mut json = match json_path {
        Some(p) => Some(std::io::BufWriter::new(
            std::fs::File::create(p).map_err(|e| CliError::Io(format!("{p}: {e}")))?,
        )),
        None => None,
    };
    let io_err = |e: std::io::Error| CliError::Io(format!("--json: {e}"));
    println!(
        "{:>5} {:>9} {:>7} {:>6} {:>5} {:>10} {:>10}",
        "frame", "cycles", "FPS", "WG", "boost", "gpu-sends", "retired"
    );
    let mut frame_count = 0u32;
    while frame_count < frames {
        sys.tick();
        for e in sys.poll_run_events(sub).events {
            if let Some(f) = json.as_mut() {
                writeln!(f, "{}", e.to_json()).map_err(io_err)?;
            }
            if let RunEvent::FrameBoundary {
                frame,
                frame_cycles,
                fps,
                w_g,
                cpu_prio_boost,
                gpu_llc_sends,
                cpu_retired,
                ..
            } = e
            {
                frame_count += 1;
                println!(
                    "{:>5} {:>9} {:>7.1} {:>6} {:>5} {:>10} {:>10}",
                    frame,
                    frame_cycles,
                    fps,
                    w_g,
                    if cpu_prio_boost { "yes" } else { "no" },
                    gpu_llc_sends,
                    cpu_retired,
                );
            }
        }
        if sys.now() >= MAX_CYCLES {
            return Err(CliError::Sim(SimError::MaxCycles {
                cycle: sys.now(),
                limit: MAX_CYCLES,
            }));
        }
    }
    if let Some(mut f) = json {
        writeln!(f, "{}", sys.registry_snapshot().to_json()).map_err(io_err)?;
        f.flush().map_err(io_err)?;
        eprintln!("# wrote JSONL timeline to {}", json_path.unwrap());
    }
    Ok(())
}
