//! Run an arbitrary heterogeneous configuration and print the full report.
//!
//! ```text
//! runsim [--game DOOM3] [--cpus 470,410,433,462] [--sched frfcfs|cpuprio|sms09|sms0|dynprio|static]
//!        [--qos off|observe|throttle|full|prioonly] [--fill base|bypass|helm]
//!        [--scale N] [--instr N] [--frames N] [--warmup N] [--seed N]
//!        [--gpu-ways K] [--partition-channels] [--llc-lru] [--json PATH]
//!        [--faults SPEC] [--watchdog N]
//!
//! `--json PATH` additionally writes the machine-readable result as two
//! JSONL lines: the full `RunResult` and a final metrics-registry snapshot.
//! `--faults SPEC` (or the `GAT_FAULTS` environment variable) installs a
//! deterministic fault-injection plan (see `gat_sim::faults`); `--watchdog N`
//! tunes the liveness watchdog window in CPU cycles (0 disables it).
//! ```
//!
//! Each flag sets the `gat-serve` job-spec key of the same name on top
//! of `JobSpec::base`, and the run is what `JobSpec::resolve` builds, so
//! `--json` writes the payload a spec line with the same keys would
//! (DESIGN.md §12).
//!
//! Exit codes: 0 success, 1 I/O failure, 2 bad usage or configuration,
//! 3 simulation abort (watchdog / invariant violation).
//!
//! Examples:
//! * the paper's proposal on a custom mix:
//!   `runsim --game HL2 --cpus 429,470,462,401 --qos full --sched cpuprio`
//! * a CPU-only run: `runsim --cpus 429`
//! * a GPU-only run: `runsim --game CRYSIS --cpus ""`
//! * chaos smoke: `runsim --faults "dram.bounce=0.2,ring.drop=0.05"`

#![warn(clippy::disallowed_methods)]

use gat_bench::{fail, runsim_spec, Args, CliError};
use gat_hetero::HeteroSystem;

fn main() {
    if let Err(e) = real_main() {
        fail("runsim", e);
    }
}

fn real_main() -> Result<(), CliError> {
    let args = Args::from_env(
        "--game --cpus --sched --qos --fill --scale --instr --frames --warmup --seed --gpu-ways \
         --json --faults --watchdog",
        "--partition-channels --llc-lru",
    )?;

    let job = runsim_spec(&args)?.resolve()?;
    let mut sys = HeteroSystem::new(job.cfg, &job.apps, job.game);
    let result = sys.try_run()?;
    print!("{}", result.render_report());
    if let Some(path) = args.get("--json") {
        let mut out = result.to_json();
        out.push('\n');
        out.push_str(&sys.registry_snapshot().to_json());
        out.push('\n');
        std::fs::write(path, out).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
        eprintln!("# wrote JSONL result to {path}");
    }
    Ok(())
}
