//! Regenerate the paper's figures as text tables.
//!
//! ```text
//! figures <fig1|fig2|fig3|fig8|fig9|fig10|fig11|fig12|fig13|fig14|all>
//!         [--scale N] [--frames N] [--instr N] [--warmup N] [--seed N] [--threads N]
//!         [--json PATH] [--faults SPEC] [--watchdog N]
//! ```
//!
//! The flags but `--threads` and `--json` set the spec keys of the same
//! name on the figures' base job spec (`gat_bench::drivers`). The
//! distinct jobs of every requested figure run as one gat-serve batch on
//! `--threads` workers (default: the host's core count), and each figure
//! is folded from the results. A job shared by several figures runs once:
//! `all` runs 159 simulations for the 223 its figures use. `--json PATH`
//! additionally writes every table as one JSONL `{"type":"table",...}`
//! object per line, from the same runs as the text output. `--faults
//! SPEC` (or `GAT_FAULTS`) injects deterministic faults into every run,
//! and `--watchdog N` sets every run's liveness watchdog window in CPU
//! cycles (default 50M, 0 disables it). The batch runs every job before
//! it exits, so a short window makes a wedged run fail fast.
//!
//! Exit codes: 0 success, 1 I/O failure, 2 bad usage or configuration,
//! 3 a job ended wedged, over its cycle cap, on a paranoia invariant or
//! in a panic (the message names the job and its outcome).

#![warn(clippy::disallowed_methods)]

use std::io::Write;

use gat_bench::drivers::{figure, figures_base, run_distinct, ALL_FIGURES, FIGURES};
use gat_bench::{fail, render_tables, spec_from_flags, tables_jsonl, Args, CliError};
use gat_serve::JobSpec;

const USAGE: &str = "figures <figN|all> [--scale N] [--frames N] [--instr N] [--warmup N] \
     [--seed N] [--threads N] [--json PATH] [--faults SPEC] [--watchdog N]";

fn main() {
    if let Err(e) = real_main() {
        fail("figures", e);
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "R2: the worker count tunes wall time only; tests/determinism.rs pins the tables at 1 and 8 shards"
)]
fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn real_main() -> Result<(), CliError> {
    let args = Args::from_env(
        "--scale --frames --instr --seed --warmup --threads --json --faults --watchdog",
        "",
    )?;
    let [which] = args.positional() else {
        return Err(CliError::Usage(USAGE.into()));
    };
    let base = spec_from_flags(figures_base(), &args, &["--threads", "--json"])?;
    let ids = if which == "all" {
        ALL_FIGURES.to_vec()
    } else {
        vec![which.as_str()]
    };
    let Some(drivers) = ids.iter().map(|id| figure(id)).collect::<Option<Vec<_>>>() else {
        return Err(CliError::Usage(format!(
            "unknown figure id {which:?}; known: {FIGURES:?} (or 'all')"
        )));
    };
    base.resolve()?;
    let threads = args.num("--threads", default_threads())?;
    if threads == 0 {
        return Err(CliError::Config("--threads must be nonzero".into()));
    }
    let json_path = args.get("--json");
    let mut json = match json_path {
        Some(p) => Some(std::io::BufWriter::new(
            std::fs::File::create(p).map_err(|e| CliError::Io(format!("{p}: {e}")))?,
        )),
        None => None,
    };
    eprintln!(
        "# scale={} frames={} instr={} seed={} threads={threads}",
        base.scale, base.frames, base.instr, base.seed
    );
    let start = std::time::Instant::now();
    let jobs: Vec<JobSpec> = drivers.iter().flat_map(|(jobs, _)| jobs(&base)).collect();
    let used = jobs.len();
    let runs = run_distinct(jobs, threads)?;
    eprintln!(
        "# ran {} distinct jobs for {used} uses in {:.1}s",
        runs.len(),
        start.elapsed().as_secs_f64()
    );
    for (_, fold) in drivers {
        let tables = fold(&runs);
        println!("{}", render_tables(&tables));
        if let Some(f) = json.as_mut() {
            write!(f, "{}", tables_jsonl(&tables))
                .map_err(|e| CliError::Io(format!("--json: {e}")))?;
        }
    }
    if let Some(mut f) = json {
        f.flush()
            .map_err(|e| CliError::Io(format!("--json: {e}")))?;
        eprintln!("# wrote JSONL tables to {}", json_path.unwrap());
    }
    eprintln!("# total {:.1}s", start.elapsed().as_secs_f64());
    Ok(())
}
