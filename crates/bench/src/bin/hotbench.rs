//! Hot-path benchmark: time the figure drivers and record the
//! simulator's throughput trajectory.
//!
//! ```text
//! hotbench [--quick] [--gate] [--out PATH] [--baseline PATH] [--band F]
//!          [--drivers a,b,c] [--scale N] [--frames N] [--instr N] [--seed N]
//! ```
//!
//! Each driver runs once at `threads = 1`. Results are written as JSONL
//! (default `BENCH_hotpath.json`): one meta line, then one line per
//! driver with wall-clock seconds, CPU cycles simulated (warm-up
//! included) and cycles per second. The out file is a *trajectory*: an
//! existing file is appended to, not overwritten, so successive runs
//! accumulate one meta+rows block each.
//!
//! `--gate` turns the run into a pass/fail check: each driver's
//! `cycles_per_s` must stay within `--band` (default ±10%) of the last
//! trajectory point recorded at the same config in the `--baseline` file
//! (default `BENCH_hotpath.json`). A regression exits with code 3 (a
//! typed [`CliError::Gate`]) after writing the JSONL, so CI can fail and
//! keep the evidence. Drivers with no matching recorded point are
//! reported and skipped, so the gate degrades gracefully on fresh
//! checkouts and config sweeps. The gate never writes the baseline: a
//! new anchor point is recorded deliberately, by running without `--gate`
//! and `--out` pointed at the baseline file.

#![warn(clippy::disallowed_methods)]

use std::time::Instant;

use gat_bench::{fail, figure_run, is_known_figure, Args, CliError};
use gat_hetero::experiments::ExpConfig;
use gat_sim::json::{parse_json_object, validate_json_line, JsonValue, Obj};

const USAGE: &str = "hotbench [--quick] [--gate] [--out PATH] [--baseline PATH] [--band F] \
     [--drivers a,b,c] [--scale N] [--frames N] [--instr N] [--seed N]";

/// `--gate` trajectory band: default relative slack when comparing a
/// driver's `cycles_per_s` against the last recorded trajectory point
/// at the same config. Overridable with `--band` because wall-clock
/// throughput on a shared 1-vCPU box can swing well past 10% from
/// hypervisor steal time alone.
const GATE_TRAJECTORY_BAND: f64 = 0.10;

/// Parse one trajectory line; `None` for a line that is not a JSON object.
fn parse_line(line: &str) -> Option<JsonValue> {
    parse_json_object(line).ok().map(JsonValue::Obj)
}

/// Config fingerprint of a parsed `bench_meta` line, used to decide
/// whether a recorded trajectory block is comparable to the current run.
fn meta_fingerprint(meta: &JsonValue) -> Option<String> {
    let mut fp = String::new();
    for key in ["scale", "frames", "instr", "seed", "threads", "quick"] {
        fp.push_str(&format!("{:?};", meta.get(key)?));
    }
    Some(fp)
}

/// Scan a trajectory file (JSONL: repeated meta+rows blocks) and return
/// the *last* recorded `cycles_per_s` per driver among blocks whose
/// meta matches `want_fp`. Later blocks shadow earlier ones, so the map
/// is "the most recent trajectory point at this config".
fn last_recorded_point(text: &str, want_fp: &str) -> std::collections::BTreeMap<String, f64> {
    let mut out = std::collections::BTreeMap::new();
    let mut block_matches = false;
    for line in text.lines().filter_map(parse_line) {
        match line.get("type").and_then(JsonValue::as_str) {
            Some("bench_meta") => {
                block_matches = meta_fingerprint(&line).as_deref() == Some(want_fp);
            }
            Some("hotbench") if block_matches => {
                if let (Some(driver), Some(cps)) = (
                    line.get("driver").and_then(JsonValue::as_str),
                    line.get("cycles_per_s").and_then(JsonValue::as_f64),
                ) {
                    out.insert(driver.to_string(), cps);
                }
            }
            _ => {}
        }
    }
    out
}

fn main() {
    if let Err(e) = real_main() {
        fail("hotbench", e);
    }
}

fn real_main() -> Result<(), CliError> {
    let args = Args::from_env(
        "--out --baseline --band --drivers --scale --frames --instr --seed",
        "--quick --gate",
    )?;
    if let Some(word) = args.positional().first() {
        return Err(CliError::Usage(format!(
            "unexpected argument {word:?}\n{USAGE}"
        )));
    }
    let mut cfg = ExpConfig {
        // Fixed measurement config: single worker so cycles/s measures
        // the simulator loop, not thread scheduling.
        threads: 1,
        scale: args.num("--scale", 128)?,
        seed: args.num("--seed", 538_379_561)?,
        ..ExpConfig::default()
    };
    cfg.limits.gpu_frames = args.num("--frames", 4)?;
    cfg.limits.cpu_instructions = args.num("--instr", 200_000)?;
    let out_path = args.get("--out").unwrap_or("BENCH_hotpath.json");
    let baseline_path = args.get("--baseline").unwrap_or("BENCH_hotpath.json");
    let band: f64 = args.num("--band", GATE_TRAJECTORY_BAND)?;
    if !(0.0..1.0).contains(&band) {
        return Err(CliError::Usage(format!(
            "--band must be in [0, 1), got {band}"
        )));
    }
    let mut drivers: Vec<String> = args
        .get("--drivers")
        .unwrap_or("fig1+2,fig3,fig8,fig9+10+11,fig12,fig13+14")
        .split(',')
        .map(|s| s.trim().to_string())
        .collect();
    let (quick, gate) = (args.has("--quick"), args.has("--gate"));
    for id in &drivers {
        if !is_known_figure(id) {
            return Err(CliError::Usage(format!("unknown driver {id:?}")));
        }
    }
    cfg.validate()
        .map_err(|e| CliError::Config(e.to_string()))?;
    if quick {
        // CI smoke: one small driver, seconds not minutes.
        cfg.scale = 256;
        cfg.limits.cpu_instructions = 60_000;
        cfg.limits.gpu_frames = 2;
        cfg.limits.warmup_cycles = 30_000;
        drivers = vec!["fig1+2".to_string()];
    }

    let mut lines = Vec::new();
    let mut regressions: Vec<String> = Vec::new();
    lines.push(
        Obj::new()
            .str("type", "bench_meta")
            .str("bench", "hotbench")
            .u64("scale", u64::from(cfg.scale))
            .u64("frames", u64::from(cfg.limits.gpu_frames))
            .u64("instr", cfg.limits.cpu_instructions)
            .u64("seed", cfg.seed)
            .u64("threads", cfg.threads as u64)
            .bool("quick", quick)
            .finish(),
    );
    // Trajectory gate reference: the last recorded point per driver at
    // exactly this config (empty when the baseline file is absent or has
    // no comparable block — the gate then has nothing to compare).
    let recorded_points = if gate {
        let meta = parse_line(&lines[0]).expect("hotbench meta line must parse");
        let fp = meta_fingerprint(&meta).expect("hotbench meta line must fingerprint");
        match std::fs::read_to_string(baseline_path) {
            Ok(text) => last_recorded_point(&text, &fp),
            Err(_) => {
                eprintln!("# gate: no baseline trajectory at {baseline_path}; skipping cycles/s comparison");
                std::collections::BTreeMap::new()
            }
        }
    } else {
        std::collections::BTreeMap::new()
    };

    for id in &drivers {
        eprintln!("# {id} ...");
        let start = Instant::now();
        let (_, cycles) = figure_run(id, &cfg);
        let wall_s = start.elapsed().as_secs_f64();
        let cps = cycles as f64 / wall_s;
        eprintln!("# {id}: {wall_s:.2}s, {cycles} cycles, {cps:.0} cycles/s");
        lines.push(
            Obj::new()
                .str("type", "hotbench")
                .str("driver", id)
                .f64("wall_s", wall_s)
                .u64("cycles_simulated", cycles)
                .f64("cycles_per_s", cps)
                .finish(),
        );
        if gate {
            match recorded_points.get(id.as_str()) {
                Some(&rec) => {
                    eprintln!(
                        "# {id}: trajectory {cps:.0} cycles/s vs recorded {rec:.0} ({:.2}x, band -{:.0}%)",
                        cps / rec,
                        band * 100.0
                    );
                    if cps < rec * (1.0 - band) {
                        regressions.push(format!(
                            "{id}: cycles_per_s {cps:.0} below recorded {rec:.0} minus {:.0}% band",
                            band * 100.0
                        ));
                    }
                }
                None => eprintln!("# {id}: no recorded trajectory point at this config"),
            }
        }
    }

    append_trajectory(out_path, &lines)?;
    eprintln!("# appended trajectory point to {out_path}");
    if !regressions.is_empty() {
        return Err(CliError::Gate(regressions.join("; ")));
    }
    Ok(())
}

/// Append one meta+rows block to a trajectory file: keep every
/// previously recorded block and add this run's as a new one.
fn append_trajectory(path: &str, lines: &[String]) -> Result<(), CliError> {
    let mut out = match std::fs::read_to_string(path) {
        Ok(prev) if !prev.is_empty() => {
            let mut p = prev;
            if !p.ends_with('\n') {
                p.push('\n');
            }
            p
        }
        _ => String::new(),
    };
    for line in lines {
        validate_json_line(line).expect("hotbench emitted invalid JSON");
        out.push_str(line);
        out.push('\n');
    }
    std::fs::write(path, &out).map_err(|e| CliError::Io(format!("{path}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_last_point_at_the_same_config_wins() {
        let meta = |scale: u32| {
            format!(
                r#"{{"type":"bench_meta","scale":{scale},"frames":4,"instr":9,"seed":1,"threads":1,"quick":false}}"#
            )
        };
        let row = |driver: &str, cps: f64| {
            format!(r#"{{"type":"hotbench","driver":"{driver}","cycles_per_s":{cps}}}"#)
        };
        let text = [
            meta(128),
            row("fig3", 1.0),
            meta(256),
            row("fig3", 9.0),
            "not JSON".into(),
        ]
        .into_iter()
        .chain([meta(128), row("fig3", 2.0), row("fig8", 3.5)])
        .collect::<Vec<_>>()
        .join("\n");
        let fp = meta_fingerprint(&parse_line(&meta(128)).unwrap()).unwrap();
        let points = last_recorded_point(&text, &fp);
        assert_eq!(points.len(), 2, "{points:?}");
        assert_eq!((points["fig3"], points["fig8"]), (2.0, 3.5));
    }
}
