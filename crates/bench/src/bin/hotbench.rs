//! The CI perf gate: time one figure driver at one fixed config and fail
//! when its throughput falls too far below the recorded anchor.
//!
//! ```text
//! hotbench
//! ```
//!
//! It takes no flags. It runs the 42 jobs of the fig1+2 driver, repeats
//! included, as one gat-serve batch at scale 256 with 60k CPU
//! instructions, 2 GPU frames, 30k warm-up cycles, seed 538379561, on
//! one shard so cycles/s measures the simulator loop, not thread
//! scheduling. It prints one JSONL point to stdout: wall-clock seconds,
//! CPU cycles simulated (warm-up included) and cycles per second.
//!
//! The anchor is `BENCH_hotpath.json` in the working directory: the
//! `bench_meta` line of this config, then one point. The gate fails when
//! cycles/s falls more than 35% below the anchor's; the band is that
//! wide because wall-clock throughput on a shared small host swings well
//! past 10% from steal time alone. The gate never writes the anchor: a
//! new one is recorded deliberately, by replacing the point line with
//! one this binary printed, and saying why in CHANGES.md.
//!
//! Exit codes: 0 pass, 1 the anchor file cannot be read, 2 a stray
//! argument or an anchor recorded at another config, 3 the gate tripped.

#![warn(clippy::disallowed_methods)]

use std::time::Instant;

use gat_bench::drivers::{figures_base, motivation_jobs, run_jobs};
use gat_bench::{fail, Args, CliError};
use gat_serve::JobSpec;
use gat_sim::json::{parse_json_object, JsonValue, Obj};

const ANCHOR_PATH: &str = "BENCH_hotpath.json";

/// Largest tolerated relative drop in cycles/s below the anchor.
const BAND: f64 = 0.35;

/// Worker shards of the measured batch.
const SHARDS: usize = 1;

/// The measured config: the fig1+2 jobs are built on this base.
fn config() -> JobSpec {
    JobSpec {
        scale: 256,
        seed: 538_379_561,
        instr: 60_000,
        frames: 2,
        warmup: 30_000,
        ..figures_base()
    }
}

/// The anchor file's first line for `base`. It keeps `"quick":true` so
/// that the tracked anchor's meta line matches it byte for byte.
fn meta_line(base: &JobSpec) -> String {
    Obj::new()
        .str("type", "bench_meta")
        .str("bench", "hotbench")
        .u64("scale", u64::from(base.scale))
        .u64("frames", u64::from(base.frames))
        .u64("instr", base.instr)
        .u64("seed", base.seed)
        .u64("threads", SHARDS as u64)
        .bool("quick", true)
        .finish()
}

/// The anchor's cycles/s, if `text` was recorded at the config whose meta
/// line is `meta`.
fn anchor_cycles_per_s(text: &str, meta: &str) -> Result<f64, CliError> {
    let mut lines = text.lines();
    let recorded = lines.next().unwrap_or_default();
    if recorded != meta {
        return Err(CliError::Config(format!(
            "{ANCHOR_PATH}: meta line {recorded} is not this gate's config {meta}"
        )));
    }
    lines
        .next()
        .and_then(|line| parse_json_object(line).ok())
        .and_then(|point| JsonValue::Obj(point).get("cycles_per_s")?.as_f64())
        .ok_or_else(|| CliError::Config(format!("{ANCHOR_PATH}: no cycles_per_s point")))
}

fn main() {
    if let Err(e) = real_main() {
        fail("hotbench", e);
    }
}

fn real_main() -> Result<(), CliError> {
    Args::from_env("", "")?.reject_positional()?;
    let base = config();
    let text = std::fs::read_to_string(ANCHOR_PATH)
        .map_err(|e| CliError::Io(format!("{ANCHOR_PATH}: {e}")))?;
    let anchor = anchor_cycles_per_s(&text, &meta_line(&base))?;

    let start = Instant::now();
    let runs = run_jobs(&motivation_jobs(&base), SHARDS)?;
    let cycles: u64 = runs.iter().map(|r| base.warmup + r.count("cycles")).sum();
    let wall_s = start.elapsed().as_secs_f64();
    let cps = cycles as f64 / wall_s;
    println!(
        "{}",
        Obj::new()
            .str("type", "hotbench")
            .str("driver", "fig1+2")
            .f64("wall_s", wall_s)
            .u64("cycles_simulated", cycles)
            .f64("cycles_per_s", cps)
            .finish()
    );
    eprintln!(
        "# fig1+2: {cps:.0} cycles/s vs anchor {anchor:.0} ({:.2}x, band -{:.0}%)",
        cps / anchor,
        BAND * 100.0
    );
    if cps < anchor * (1.0 - BAND) {
        return Err(CliError::Gate(format!(
            "fig1+2: cycles_per_s {cps:.0} below anchor {anchor:.0} minus {:.0}% band",
            BAND * 100.0
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tracked_anchor_is_recorded_at_this_config() {
        let text = include_str!("../../../../BENCH_hotpath.json");
        let meta = meta_line(&config());
        assert!(anchor_cycles_per_s(text, &meta).unwrap() > 0.0);
        let elsewhere = text.replacen("\"scale\":256", "\"scale\":128", 1);
        let err = anchor_cycles_per_s(&elsewhere, &meta).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
    }
}
