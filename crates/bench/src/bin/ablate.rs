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
//! * full-llc-drrip      — full, with a DRRIP LLC instead of SRRIP
//! * full-sms-dram       — full throttling over an SMS-0.9 DRAM scheduler
//! * static-llc-4w       — 4 of the LLC's 16 ways reserved for the GPU
//! * static-dram-ch      — one DRAM channel each for the CPUs and the GPU
//! * static-prio         — CPU requests always first at DRAM

#![warn(clippy::disallowed_methods)]

use std::io::Write;

use gat_bench::{fail, mix_arg, with_mix, Args, CliError};
use gat_cache::ReplacementPolicy;
use gat_hetero::{HeteroSystem, RunResult};
use gat_serve::JobSpec;
use gat_sim::json::Obj;

fn main() {
    if let Err(e) = real_main() {
        fail("ablate", e);
    }
}

fn real_main() -> Result<(), CliError> {
    let args = Args::from_env("--scale --json", "")?;
    let mix = mix_arg(&args)?;
    let mut base = with_mix(JobSpec::base("ablate"), &mix);
    base.seed = 77;
    base.max_cycles = Some(4_000_000_000);
    base.scale = args.num("--scale", base.scale)?;
    let json_path = args.get("--json");
    let mut json = match json_path {
        Some(p) => Some(std::io::BufWriter::new(
            std::fs::File::create(p).map_err(|e| CliError::Io(format!("{p}: {e}")))?,
        )),
        None => None,
    };
    println!(
        "ablation on {}: {} + CPUs {} (scale {})",
        mix.name,
        mix.game.name,
        mix.cpu_label(),
        base.scale
    );

    let keep: fn(&mut JobSpec) = |_| {};
    let variants = [
        ("baseline", "off", "frfcfs", keep),
        ("throttle-only", "throttle", "frfcfs", keep),
        ("prio-only", "prioonly", "cpuprio", keep),
        ("full", "full", "cpuprio", keep),
        ("full-strict", "full", "cpuprio", keep),
        ("full-llc-lru", "full", "cpuprio", |s| s.llc_lru = true),
        ("full-llc-drrip", "full", "cpuprio", keep),
        // SMS has no CPU-prio line.
        ("full-sms-dram", "throttle", "sms09", keep),
        // §IV's static-partitioning comparisons ([28]-style): shown by a
        // later study (and by this ablation) to be sub-optimal.
        ("static-llc-4w", "off", "frfcfs", |s| s.gpu_ways = Some(4)),
        ("static-dram-ch", "off", "frfcfs", |s| {
            s.partition_channels = true
        }),
        ("static-prio", "off", "static", keep),
    ];
    let mut jobs = Vec::with_capacity(variants.len());
    for (label, qos, sched, edit) in variants {
        let mut spec = JobSpec {
            qos: qos.into(),
            sched: sched.into(),
            ..base.clone()
        };
        edit(&mut spec);
        let mut job = spec.resolve()?;
        // Two variants have no spec key: they edit the resolved machine.
        match label {
            "full-strict" => job.cfg.strict_release = true,
            "full-llc-drrip" => job.cfg.llc_policy = ReplacementPolicy::Drrip,
            _ => {}
        }
        jobs.push((label, job));
    }

    println!(
        "{:<15} {:>7} {:>8} {:>9} {:>9} {:>5}",
        "variant", "FPS", "ΣIPC", "gpuB/c", "cpuB/c", "WG"
    );
    let mut base_ipc = 0.0;
    for (label, job) in jobs {
        let r: RunResult = HeteroSystem::new(job.cfg, &job.apps, job.game).try_run()?;
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
