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

use gat_bench::{fail, fault_plan_from, parse_num, Args, CliError};
use gat_cache::ReplacementPolicy;
use gat_dram::SchedulerKind;
use gat_hetero::{FillPolicyKind, HeteroSystem, MachineConfig, QosMode};
use gat_workloads::{all_games, all_spec};

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

    let mut cfg = MachineConfig::table_one(args.num("--scale", 128)?, args.num("--seed", 1)?);
    cfg.limits.cpu_instructions = args.num("--instr", 400_000)?;
    cfg.limits.gpu_frames = args.num("--frames", 4)?;
    cfg.limits.warmup_cycles = args.num("--warmup", 200_000)?;
    if let Some(w) = args.num_opt("--watchdog")? {
        cfg.limits.watchdog = w;
    }

    cfg.sched = match args.get("--sched") {
        None | Some("frfcfs") => SchedulerKind::FrFcfs,
        Some("cpuprio") => SchedulerKind::FrFcfsCpuPrio,
        Some("sms09") => SchedulerKind::Sms(0.9),
        Some("sms0") => SchedulerKind::Sms(0.0),
        Some("dynprio") => SchedulerKind::DynPrio,
        Some("static") => SchedulerKind::StaticCpuPrio,
        Some(o) => return Err(CliError::Usage(format!("unknown scheduler {o:?}"))),
    };
    cfg.qos = match args.get("--qos") {
        None | Some("off") => QosMode::Off,
        Some("observe") => QosMode::Observe,
        Some("throttle") => QosMode::Throttle,
        Some("full") => QosMode::ThrotCpuPrio,
        Some("prioonly") => QosMode::CpuPrioOnly,
        Some(o) => return Err(CliError::Usage(format!("unknown qos mode {o:?}"))),
    };
    cfg.fill_policy = match args.get("--fill") {
        None | Some("base") => FillPolicyKind::Baseline,
        Some("bypass") => FillPolicyKind::BypassAll,
        Some("helm") => FillPolicyKind::Helm,
        Some(o) => return Err(CliError::Usage(format!("unknown fill policy {o:?}"))),
    };
    cfg.gpu_llc_ways = args.num_opt("--gpu-ways")?;
    cfg.partition_channels = args.has("--partition-channels");
    if args.has("--llc-lru") {
        cfg.llc_policy = ReplacementPolicy::Lru;
    }
    cfg.faults = fault_plan_from(args.get("--faults"))?;
    cfg.validate()
        .map_err(|e| CliError::Config(e.to_string()))?;

    let mut apps = Vec::new();
    for id in args
        .get("--cpus")
        .unwrap_or("470,410,433,462")
        .split(',')
        .filter(|s| !s.is_empty())
    {
        let id: u16 = parse_num("--cpus", id.trim())?;
        let p = all_spec()
            .into_iter()
            .find(|p| p.spec_id == id)
            .ok_or_else(|| CliError::Usage(format!("unknown SPEC id {id}")))?;
        apps.push(p);
    }
    let g = match args.get("--game") {
        Some(n) => Some(
            all_games()
                .into_iter()
                .find(|g| g.name == n)
                .ok_or_else(|| CliError::Usage(format!("unknown game {n:?}")))?,
        ),
        None => None,
    };
    if g.is_none() && apps.is_empty() {
        return Err(CliError::Usage("need at least one of --game/--cpus".into()));
    }

    let mut sys = HeteroSystem::new(cfg, &apps, g);
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
