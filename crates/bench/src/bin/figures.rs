//! Regenerate the paper's figures as text tables.
//!
//! ```text
//! figures <fig1|fig2|fig3|fig8|fig9|fig10|fig11|fig12|fig13|fig14|all>
//!         [--scale N] [--frames N] [--instr N] [--seed N] [--threads N] [--json PATH]
//!         [--faults SPEC]
//! ```
//!
//! `all` shares runs between figures that use the same experiments
//! (Fig. 1+2, Fig. 9+10+11, Fig. 13+14), which roughly halves the wall
//! time of a full regeneration. `--json PATH` additionally writes every
//! table as one JSONL `{"type":"table",...}` object per line, from the
//! same simulation runs as the text output. `--faults SPEC` (or
//! `GAT_FAULTS`) injects deterministic faults into every run.
//!
//! Exit codes: 0 success, 1 I/O failure, 2 bad usage or configuration.

#![warn(clippy::disallowed_methods)]

use std::io::Write;

use gat_bench::{
    fail, fault_plan_from, figure_tables, is_known_figure, render_tables, tables_jsonl, Args,
    CliError, FIGURES,
};
use gat_hetero::experiments::ExpConfig;

const USAGE: &str = "figures <figN|all> [--scale N] [--frames N] [--instr N] [--seed N] \
     [--threads N] [--json PATH] [--faults SPEC]";

fn main() {
    if let Err(e) = real_main() {
        fail("figures", e);
    }
}

fn real_main() -> Result<(), CliError> {
    let args = Args::from_env(
        "--scale --frames --instr --seed --warmup --threads --json --faults",
        "",
    )?;
    let [which] = args.positional() else {
        return Err(CliError::Usage(USAGE.into()));
    };
    if which != "all" && !is_known_figure(which) {
        return Err(CliError::Usage(format!(
            "unknown figure id {which:?}; known: {FIGURES:?} (or 'all')"
        )));
    }
    let mut cfg = ExpConfig::default();
    cfg.scale = args.num("--scale", cfg.scale)?;
    cfg.limits.gpu_frames = args.num("--frames", cfg.limits.gpu_frames)?;
    cfg.limits.cpu_instructions = args.num("--instr", cfg.limits.cpu_instructions)?;
    cfg.seed = args.num("--seed", cfg.seed)?;
    cfg.limits.warmup_cycles = args.num("--warmup", cfg.limits.warmup_cycles)?;
    cfg.threads = args.num("--threads", cfg.threads)?;
    cfg.faults = fault_plan_from(args.get("--faults"))?;
    cfg.validate()
        .map_err(|e| CliError::Config(e.to_string()))?;
    let json_path = args.get("--json");
    let mut json = match json_path {
        Some(p) => Some(std::io::BufWriter::new(
            std::fs::File::create(p).map_err(|e| CliError::Io(format!("{p}: {e}")))?,
        )),
        None => None,
    };
    eprintln!(
        "# scale={} frames={} instr={} seed={} threads={}",
        cfg.scale, cfg.limits.gpu_frames, cfg.limits.cpu_instructions, cfg.seed, cfg.threads
    );
    let start = std::time::Instant::now();
    let mut emit = |id: &str| -> Result<(), CliError> {
        let tables = figure_tables(id, &cfg);
        println!("{}", render_tables(&tables));
        if let Some(f) = json.as_mut() {
            write!(f, "{}", tables_jsonl(&tables))
                .map_err(|e| CliError::Io(format!("--json: {e}")))?;
        }
        Ok(())
    };
    match which.as_str() {
        "all" => {
            for id in ["fig1+2", "fig3", "fig8", "fig9+10+11", "fig12", "fig13+14"] {
                let t = std::time::Instant::now();
                emit(id)?;
                eprintln!("# {id} took {:.1}s", t.elapsed().as_secs_f64());
            }
        }
        id => emit(id)?,
    }
    if let Some(mut f) = json {
        f.flush()
            .map_err(|e| CliError::Io(format!("--json: {e}")))?;
        eprintln!("# wrote JSONL tables to {}", json_path.unwrap());
    }
    eprintln!("# total {:.1}s", start.elapsed().as_secs_f64());
    Ok(())
}
