//! `gat-benchmark` command line.

use gat_benchmark::measure::RUN_SECONDS;
use gat_benchmark::workloads::{Workload, DEFAULT_SEED};
use gat_benchmark::{catalog, compare, measure, trace};
use gat_sim::json::Obj;
use std::process::{Command, Stdio};

/// `run` takes the flags a harness appends to BENCHMARK.json's command:
/// `--seconds` sets the number of timed passes, and `run --trace 1` is
/// `trace`.
const USAGE: &str = "\
gat-benchmark run     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
gat-benchmark trace   [--workload NAME] [--seed N]
gat-benchmark list
gat-benchmark compare PARENT.jsonl CHANGE.jsonl";

struct RunArgs {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = real_main(&args).unwrap_or_else(|e| {
        eprintln!("gat-benchmark: {e}");
        2
    });
    std::process::exit(code);
}

fn real_main(args: &[String]) -> Result<i32, String> {
    match args.first().map(String::as_str) {
        Some("run") => run(&parse_run(&args[1..], false)?),
        Some("trace") => run(&parse_run(&args[1..], true)?),
        Some("list") if args.len() == 1 => {
            print!("{}", catalog::render_list());
            Ok(0)
        }
        Some("compare") if args.len() == 3 => compare_files(&args[1], &args[2]),
        _ => Err(format!("usage:\n{USAGE}")),
    }
}

fn parse_run(args: &[String], trace: bool) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                out.workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => out.seed = number()?,
            "--seconds" => {
                out.seconds = number()?;
                if out.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}\n{USAGE}")),
        }
    }
    Ok(out)
}

/// One workload in this process, or each workload in a fresh child
/// process (so `peak_rss_mb` is the workload's own).
fn run(a: &RunArgs) -> Result<i32, String> {
    if let Some(w) = a.workload {
        return run_one(w, a);
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut code = 0;
    for w in Workload::ALL {
        let out = Command::new(&exe)
            .arg(if a.trace { "trace" } else { "run" })
            .args(["--workload", w.name()])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        print!("{}", String::from_utf8_lossy(&out.stdout));
        code = code.max(out.status.code().unwrap_or(2));
    }
    Ok(code)
}

fn run_one(w: Workload, a: &RunArgs) -> Result<i32, String> {
    let root = std::env::current_dir()
        .map_err(|e| format!("current_dir: {e}"))?
        .join(".bench_work");
    let work = root.join(format!("{}-{}", w.name(), std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let report = if a.trace {
        trace::trace(w, a.seed, &work)
    } else {
        measure::measure(w, a.seed, a.seconds, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    // Fails harmlessly while another run still uses the directory.
    let _ = std::fs::remove_dir(&root);
    let report = report?;
    let listed = if a.trace {
        catalog::PER_LAYER
    } else {
        catalog::END_TO_END
    };
    let names: Vec<&str> = report.metrics.iter().map(|(n, _)| *n).collect();
    if names != listed.iter().map(|m| m.name).collect::<Vec<_>>() {
        return Err(format!(
            "reported metrics {names:?} differ from the catalog"
        ));
    }
    for p in &report.problems {
        eprintln!("gat-benchmark: {}: {p}", w.name());
    }
    let digest_check = match w.recorded_digest(a.seed) {
        None => "unrecorded",
        Some(d) if d == report.digest => "match",
        Some(_) => "mismatch",
    };
    println!(
        "{}",
        Obj::new()
            .str("type", "bench_run")
            .str("workload", w.name())
            .u64("seed", a.seed)
            .u64("trace", u64::from(a.trace))
            .u64("passes", report.passes as u64)
            .f64("slowdown", report.slowdown)
            .str("digest", &format!("{:016x}", report.digest))
            .str("digest_check", digest_check)
            .finish()
    );
    println!("{}", report.to_json());
    Ok(if report.correct { 0 } else { 1 })
}

fn compare_files(parent: &str, change: &str) -> Result<i32, String> {
    let read = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        compare::parse_runs(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare::compare(&read(parent)?, &read(change)?);
    print!("{}", compare::render(&rows));
    Ok(i32::from(rows.iter().any(|r| r.verdict == "regression")))
}
