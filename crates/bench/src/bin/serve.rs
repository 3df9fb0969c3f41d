//! gat-serve: run a JSONL batch of simulation jobs under budget
//! enforcement with typed outcomes and a content-addressed result cache.
//!
//! ```text
//! gat-serve --jobs BATCH.jsonl [--out RESULTS.jsonl] [--stdout]
//!           [--cache DIR] [--shards N] [--dump-dir DIR]
//! ```
//!
//! * `--jobs` (required): JSONL batch file, one job spec per line
//!   (`#` comments and blank lines skipped). Spec keys are the
//!   `runsim` flags; see DESIGN.md §12 for the grammar and budgets.
//! * `--out`: stream job blocks + batch summary to this JSONL file.
//! * `--stdout`: also stream them to stdout.
//! * `--cache DIR`: content-addressed result cache; a rerun of the same
//!   batch against the same code is served entirely from cache.
//! * `--shards N`: worker threads (default 1). Output bytes are
//!   identical for every value.
//! * `--dump-dir DIR`: write per-job watchdog/paranoia dumps
//!   (`watchdog_dump.<id>.jsonl` / `paranoia_dump.<id>.jsonl`) here.
//!
//! Exit codes: 0 when the batch ran (even if individual jobs failed —
//! job failure is typed data in the output), 1 on I/O errors, 2 on bad
//! usage. The final line on stderr is the batch summary for humans.

#![warn(clippy::disallowed_methods)]

use gat_bench::{fail, Args, CliError};
use gat_serve::{
    parse_batch, run_batch, EngineOptions, JsonlFileSink, ResultCache, SinkSlot, StdoutSink,
};
use std::path::PathBuf;

fn main() {
    if let Err(e) = real_main() {
        fail("gat-serve", e);
    }
}

fn real_main() -> Result<(), CliError> {
    let args = Args::from_env("--jobs --out --cache --shards --dump-dir", "--stdout")?;
    let jobs_path = args
        .get("--jobs")
        .ok_or_else(|| CliError::Usage("--jobs BATCH.jsonl is required".into()))?;
    let text = std::fs::read_to_string(jobs_path)
        .map_err(|e| CliError::Io(format!("{jobs_path}: {e}")))?;
    let items = parse_batch(&text);
    if items.is_empty() {
        return Err(CliError::Usage(format!("{jobs_path}: no job specs")));
    }

    let cache = match args.get("--cache") {
        Some(dir) => ResultCache::open(PathBuf::from(dir).as_path())
            .map_err(|e| CliError::Io(format!("--cache {dir}: {e}")))?,
        None => ResultCache::disabled(),
    };
    let dump_dir = match args.get("--dump-dir") {
        Some(dir) => {
            let p = PathBuf::from(dir);
            std::fs::create_dir_all(&p)
                .map_err(|e| CliError::Io(format!("--dump-dir {dir}: {e}")))?;
            Some(p)
        }
        None => None,
    };
    let shards: usize = args.num("--shards", 1)?;

    let mut sinks: Vec<SinkSlot> = Vec::new();
    if let Some(out) = args.get("--out") {
        sinks.push(SinkSlot::new(Box::new(JsonlFileSink::create(
            PathBuf::from(out).as_path(),
        ))));
    }
    if args.has("--stdout") || sinks.is_empty() {
        sinks.push(SinkSlot::new(Box::new(StdoutSink)));
    }

    let opts = EngineOptions {
        shards,
        cache,
        dump_dir,
    };
    let summary = run_batch(&items, &opts, &mut sinks);
    eprintln!(
        "# gat-serve: {} jobs — {} ok, {} degraded, {} budget_exceeded, {} wedged, \
         {} invariant, {} panicked, {} spec errors; cache {} hits / {} stores; {} retries",
        summary.jobs + summary.spec_errors,
        summary.ok,
        summary.degraded,
        summary.budget_exceeded,
        summary.wedged,
        summary.invariant,
        summary.panicked,
        summary.spec_errors,
        summary.cache_hits,
        summary.cache_stores,
        summary.retries,
    );
    Ok(())
}
