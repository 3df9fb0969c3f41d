//! Per-frame timeline of one heterogeneous run: watch the QoS control
//! loop engage frame by frame (learning → prediction → throttling) and
//! the CPU recover.
//!
//! ```text
//! cargo run --release -p gat-bench --bin timeline -- [mix-number] [--scale N] [--frames N]
//!         [--epoch N] [--json PATH] [--faults SPEC]
//! ```
//!
//! The run is the proposal (FRPU/ATU throttling with CPU priority) on
//! one Table III mix, built through `JobSpec::resolve` like every other
//! simulation CLI, with no warm-up. It ends when the GPU has drawn
//! `--frames` frames, so the CPU instruction budget is 0 and the liveness
//! watchdog watches the frames alone.
//!
//! The text table is driven by the structured run-event stream
//! (`HeteroSystem::subscribe_run_events`). With `--json PATH` every event
//! — frame boundaries, QoS transitions, DRAM priority flips, and one
//! registry snapshot every `--epoch` CPU cycles — is also written to
//! PATH as JSONL, followed by a final full registry snapshot.
//!
//! Each cycle goes through `HeteroSystem::step`, which makes the same
//! checks as `try_run`: the `GAT_PARANOIA=1` invariant sweep, the
//! 40e9-cycle cap and the liveness watchdog. `--faults SPEC` (or
//! `GAT_FAULTS`) installs a deterministic fault-injection plan; a run
//! whose GPU stops making progress exits with code 3 and a
//! `watchdog_dump` diagnostic instead of spinning.

#![warn(clippy::disallowed_methods)]

use std::io::Write;

use gat_bench::{fail, fault_spec, mix_arg, with_mix, Args, CliError};
use gat_hetero::{HeteroSystem, RunEvent};
use gat_serve::JobSpec;

fn main() {
    if let Err(e) = real_main() {
        fail("timeline", e);
    }
}

fn real_main() -> Result<(), CliError> {
    let args = Args::from_env("--scale --frames --epoch --json --faults", "")?;
    let mix = mix_arg(&args)?;
    let mut spec = with_mix(JobSpec::base("timeline"), &mix);
    spec.seed = 5;
    spec.qos = "full".into();
    spec.sched = "cpuprio".into();
    spec.instr = 0;
    spec.warmup = 0;
    spec.max_cycles = Some(40_000_000_000);
    spec.scale = args.num("--scale", spec.scale)?;
    spec.frames = args.num("--frames", 12)?;
    spec.faults = fault_spec(&args);
    let epoch: u64 = args.num("--epoch", 1_000_000)?;
    let json_path = args.get("--json");
    println!(
        "timeline of {}: {} + CPUs {} (scale {}, {} frames, target 40 FPS)",
        mix.name,
        mix.game.name,
        mix.cpu_label(),
        spec.scale,
        spec.frames
    );

    let job = spec.resolve()?;
    let mut sys = HeteroSystem::new(job.cfg, &job.apps, job.game);
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
    while frame_count < spec.frames {
        sys.step()?;
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
    }
    if let Some(mut f) = json {
        writeln!(f, "{}", sys.registry_snapshot().to_json()).map_err(io_err)?;
        f.flush().map_err(io_err)?;
        eprintln!("# wrote JSONL timeline to {}", json_path.unwrap());
    }
    Ok(())
}
