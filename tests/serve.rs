//! gat-serve integration contracts (DESIGN.md §12).
//!
//! Pinned here:
//!
//! 1. **One-shot equivalence** — a healthy job's payload lines are
//!    byte-identical to what `runsim --json` writes for the same flags
//!    (same constructor, same `try_run`, same serialization).
//! 2. **Per-job state reconstruction** — running a job after a
//!    degrading/wedging job in the same process yields the same bytes as
//!    running it in isolation: sticky QoS degradation and watchdog state
//!    live in the per-job `HeteroSystem`, not the process.
//! 3. **Cache** — a rerun against a warm cache is served entirely from
//!    it, byte-identically, including re-materialised dump files.
//! 4. **Retry** — fault-plan retries are bounded, deterministic, and
//!    visible in the outcome line and summary.
//! 5. **One config path** — `runsim`'s flags fill the same `JobSpec` as
//!    the equivalent spec line, and bad names fail with exit code 2.
//! 6. **Cache key stability** — the content hash of a fixed spec is
//!    pinned, so a drift in `canonical()` cannot orphan every cached
//!    result unnoticed.

use gat::prelude::*;
use gat_bench::{runsim_spec, Args, CliError};
use gat_serve::spec::parse_spec_line;
use gat_serve::{
    parse_batch, run_batch, BatchSummary, EngineOptions, JobSpec, ResultCache, SinkSlot,
};
use std::path::{Path, PathBuf};

const HEALTHY: &str =
    r#"{"id":"solo","game":"DOOM3","cpus":[470],"instr":20000,"frames":1,"warmup":10000}"#;
// Mirrors chaos.rs's frpu_noise_degrades_qos_instead_of_failing (M7 at
// scale 64, seed 11): completes, but latches the QoS degraded fallback.
const DEGRADING: &str = r#"{"id":"noisy","game":"DOOM3","cpus":[410,433,462,471],"scale":64,"seed":11,"qos":"full","sched":"cpuprio","instr":0,"frames":24,"warmup":20000,"faults":"frpu.jitter=0.8"}"#;
// Mirrors chaos.rs's seeded-wedge fixture.
const WEDGING: &str = r#"{"id":"stuck","game":"DOOM3","cpus":[],"scale":64,"seed":3,"frames":50,"instr":0,"warmup":0,"faults":"wedge=100000","watchdog":50000}"#;

/// Run a batch text through the engine, capturing every emitted block.
fn run_capture(
    text: &str,
    shards: usize,
    cache_dir: Option<&Path>,
    dump_dir: Option<&Path>,
) -> (Vec<String>, BatchSummary) {
    struct Tap(std::rc::Rc<std::cell::RefCell<Vec<String>>>);
    impl gat_serve::Sink for Tap {
        fn name(&self) -> &str {
            "tap"
        }
        fn emit(&mut self, block: &str) -> bool {
            self.0.borrow_mut().push(block.to_string());
            true
        }
        fn flush(&mut self) -> bool {
            true
        }
    }
    let captured = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let items = parse_batch(text);
    let opts = EngineOptions {
        shards,
        cache: match cache_dir {
            Some(d) => ResultCache::open(d).expect("cache dir"),
            None => ResultCache::disabled(),
        },
        dump_dir: dump_dir.map(Path::to_path_buf),
    };
    let mut sinks = vec![SinkSlot::new(Box::new(Tap(captured.clone())))];
    let summary = run_batch(&items, &opts, &mut sinks);
    let blocks = captured.borrow().clone();
    (blocks, summary)
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("gat_serve_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn healthy_job_payload_matches_the_one_shot_cli() {
    let (blocks, summary) = run_capture(HEALTHY, 1, None, None);
    assert!(summary.all_healthy(), "{summary:?}");
    let block = &blocks[0];
    let (outcome_line, payload) = block.split_once('\n').unwrap();
    assert!(
        outcome_line.contains("\"outcome\":\"ok\""),
        "{outcome_line}"
    );

    // The machine `--game DOOM3 --cpus 470 --instr 20000 --frames 1
    // --warmup 10000` describes, built by hand rather than by `resolve`.
    let mut cfg = MachineConfig::table_one(128, 1);
    cfg.limits.cpu_instructions = 20_000;
    cfg.limits.gpu_frames = 1;
    cfg.limits.warmup_cycles = 10_000;
    cfg.validate().unwrap();
    let app = gat_workloads::all_spec()
        .into_iter()
        .find(|p| p.spec_id == 470)
        .unwrap();
    let game = gat_workloads::all_games()
        .into_iter()
        .find(|g| g.name == "DOOM3")
        .unwrap();
    let mut sys = HeteroSystem::new(cfg, &[app], Some(game));
    let result = sys.try_run().expect("one-shot run completes");
    let mut expected = result.to_json();
    expected.push('\n');
    expected.push_str(&sys.registry_snapshot().to_json());
    expected.push('\n');
    assert_eq!(
        payload,
        &expected[..],
        "serve payload diverged from the CLI bytes"
    );
}

#[test]
fn jobs_are_reconstructed_not_inherited_across_a_batch() {
    // In isolation.
    let (solo_blocks, _) = run_capture(HEALTHY, 1, None, None);
    // After a QoS-degrading job in the same process: the degraded latch
    // must not leak into the next job's system.
    let batch = format!("{DEGRADING}\n{HEALTHY}\n");
    let (blocks, summary) = run_capture(&batch, 1, None, None);
    assert_eq!(
        summary.degraded, 1,
        "fixture must latch degradation: {summary:?}"
    );
    assert_eq!(summary.ok, 1);
    assert!(blocks[0]
        .starts_with("{\"type\":\"job_outcome\",\"id\":\"noisy\",\"outcome\":\"degraded\""));
    assert_eq!(
        blocks[1], solo_blocks[0],
        "healthy job bytes changed because a degraded job ran first"
    );
    // After a wedged job: watchdog fingerprint state must likewise be
    // per-job.
    let batch = format!("{WEDGING}\n{HEALTHY}\n");
    let (blocks, summary) = run_capture(&batch, 1, None, None);
    assert_eq!(summary.wedged, 1, "{summary:?}");
    assert_eq!(
        blocks[1], solo_blocks[0],
        "healthy job bytes changed because a wedged job ran first"
    );
}

#[test]
fn warm_cache_serves_the_identical_batch_for_free() {
    let cache = tmpdir("cache");
    let dumps1 = tmpdir("dumps1");
    let batch = format!("{HEALTHY}\n{WEDGING}\n");
    let (cold, s1) = run_capture(&batch, 2, Some(&cache), Some(&dumps1));
    assert_eq!(s1.cache_hits, 0);
    assert_eq!(s1.cache_stores, 2);
    assert!(dumps1.join("watchdog_dump.stuck.jsonl").is_file());

    // Rerun with a different dump dir: everything from cache, dump
    // re-materialised at the new location, bytes identical.
    let dumps2 = tmpdir("dumps2");
    let (warm, s2) = run_capture(&batch, 2, Some(&cache), Some(&dumps2));
    assert_eq!(s2.cache_hits, 2, "{s2:?}");
    assert_eq!(s2.cache_stores, 0);
    // Job blocks are byte-identical; only the trailing batch_summary is
    // allowed to differ (its cache counters describe this run).
    assert_eq!(
        cold[..cold.len() - 1],
        warm[..warm.len() - 1],
        "cached blocks diverged from the original run"
    );
    let dump = std::fs::read_to_string(dumps2.join("watchdog_dump.stuck.jsonl")).unwrap();
    assert!(dump.contains("\"type\":\"watchdog_dump\""));
    assert_eq!(
        dump,
        std::fs::read_to_string(dumps1.join("watchdog_dump.stuck.jsonl")).unwrap()
    );
    for d in [cache, dumps1, dumps2] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn fault_plan_retries_are_bounded_and_visible() {
    let stubborn = r#"{"id":"stubborn","game":"DOOM3","cpus":[],"scale":64,"seed":3,"frames":50,"instr":0,"warmup":0,"faults":"wedge=100000","watchdog":50000,"retry":{"max":2}}"#;
    let (blocks, summary) = run_capture(stubborn, 1, None, None);
    assert_eq!(summary.wedged, 1, "{summary:?}");
    assert_eq!(summary.retries, 2, "two retries beyond the first attempt");
    assert!(
        blocks[0].contains("\"attempts\":3"),
        "outcome line must record all attempts: {}",
        blocks[0]
    );
    // Determinism of the whole retry ladder.
    let (again, _) = run_capture(stubborn, 1, None, None);
    assert_eq!(blocks, again);
}

#[test]
fn malformed_lines_are_typed_records_not_batch_failures() {
    let batch = format!("not json\n{HEALTHY}\n{{\"game\":\"PONG\"}}\n");
    let (blocks, summary) = run_capture(&batch, 1, None, None);
    assert_eq!(summary.spec_errors, 2, "{summary:?}");
    assert_eq!(summary.ok, 1);
    assert!(blocks[0].starts_with("{\"type\":\"job_spec_error\",\"line\":1,"));
    assert!(blocks[2].starts_with("{\"type\":\"job_spec_error\",\"line\":3,"));
    assert!(blocks[2].contains("unknown game"));
    // The summary line is the last sink block.
    assert!(blocks[3].starts_with("{\"type\":\"batch_summary\""));
}

#[test]
fn memory_budget_is_admission_control() {
    let fat = r#"{"id":"fat","game":"DOOM3","budget":{"mem_mb":1}}"#;
    let (blocks, summary) = run_capture(fat, 1, None, None);
    assert_eq!(summary.budget_exceeded, 1, "{summary:?}");
    assert!(blocks[0].contains("\"budget\":\"mem\""), "{}", blocks[0]);
    assert!(
        blocks[0].contains("\"attempts\":0"),
        "rejected without running"
    );
}

/// `runsim`'s path from argv to a checked spec: its flag declaration, its
/// flag→spec mapping and the resolve step that precedes the run.
fn runsim_job(words: &[&str]) -> Result<JobSpec, CliError> {
    let args = Args::parse(
        words.iter().map(|w| w.to_string()),
        "--game --cpus --sched --qos --fill --scale --instr --frames --warmup --seed --gpu-ways \
         --json --faults --watchdog",
        "--partition-channels --llc-lru",
    )?;
    let spec = runsim_spec(&args)?;
    spec.resolve()?;
    Ok(spec)
}

#[test]
fn runsim_flags_fill_the_same_spec_as_the_spec_line() {
    let cases = [
        (
            &[
                "--game",
                "HL2",
                "--cpus",
                "429,470,462,401",
                "--qos",
                "full",
                "--sched",
                "cpuprio",
            ][..],
            r#"{"game":"HL2","cpus":[429,470,462,401],"qos":"full","sched":"cpuprio"}"#,
        ),
        (
            &[
                "--gpu-ways",
                "4",
                "--partition-channels",
                "--llc-lru",
                "--fill",
                "helm",
                "--json",
                "x",
            ],
            r#"{"gpu_ways":4,"partition_channels":true,"llc_lru":true,"fill":"helm"}"#,
        ),
    ];
    for (words, line) in cases {
        let mut flags = runsim_job(words).unwrap();
        let spec = parse_spec_line(line, 1).unwrap();
        flags.id.clone_from(&spec.id);
        assert_eq!(flags, spec, "{words:?}");
    }
}

#[test]
fn runsim_rejects_bad_names_and_empty_workloads_with_exit_code_2() {
    for words in [
        &["--sched", "bogus"][..],
        &["--game", "PONG"],
        &["--cpus", ""],
        &["--scale", "lots"],
        // A stray word, and a flag where a value belongs.
        &["stray"],
        &["--json", "--game", "DOOM3", "--cpus", "470"],
    ] {
        let err = runsim_job(words).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{words:?}: {err}");
    }
    // The spec-line grammar drops empty `cpus` entries; so does runsim.
    assert_eq!(runsim_job(&["--cpus", "470, "]).unwrap().cpus, vec![470]);
}

#[test]
fn content_hash_of_a_fixed_spec_is_pinned() {
    let spec = parse_spec_line(
        r#"{"id":"pinned","game":"HL2","cpus":[429,470,462,401],"qos":"full","sched":"cpuprio","seed":7,"budget":{"cycles":90000000}}"#,
        1,
    )
    .unwrap();
    assert_eq!(
        spec.content_hash(),
        "93c210bf2edb5896",
        "the result-cache key moved: every cached result is orphaned; \
         if that is intended, bump SPEC_SCHEMA and re-pin"
    );
}
