//! Golden-snapshot tests: byte-exact fixtures for the observability
//! exports, committed under `tests/golden/`.
//!
//! A smoke-scale M7 run (DOOM3 + 4 SPEC cores, the full proposal) is
//! captured three ways — the structured run-event JSONL stream, the final
//! `RunResult` JSON object, and the human-readable report — and each is
//! diffed against its committed fixture. Two more runs of the same mix
//! with a DRRIP LLC, and two under the static-priority and DynPrio DRAM
//! schedulers, pin the `RunResult` JSON alone. Any change to event
//! emission, metric keys, JSON formatting, or simulator behaviour shows
//! up as a golden diff and must be reviewed deliberately.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_snapshot
//! ```

use std::path::PathBuf;

use gat::cache::ReplacementPolicy;
use gat::prelude::*;
use gat::sim::json::validate_json_line;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compare `actual` against the committed fixture, or rewrite the fixture
/// when `UPDATE_GOLDEN` is set. On mismatch, report the first differing
/// line rather than dumping both multi-kilobyte blobs.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden fixture {name} ({e}); regenerate with UPDATE_GOLDEN=1")
    });
    if expected == actual {
        return;
    }
    for (i, (exp, act)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(
            exp,
            act,
            "golden {name} differs at line {} (regenerate with UPDATE_GOLDEN=1 if intended)",
            i + 1
        );
    }
    panic!(
        "golden {name}: line count differs, {} expected vs {} actual \
         (regenerate with UPDATE_GOLDEN=1 if intended)",
        expected.lines().count(),
        actual.lines().count()
    );
}

/// One smoke-scale run of the paper's canonical amenable mix with the
/// full proposal enabled — the same configuration as the determinism test,
/// so the two suites cross-check each other.
fn m7_smoke_artifacts() -> (String, String, String) {
    let mix = mix_m(7);
    let mut cfg = MachineConfig::table_one(256, 9);
    cfg.limits = RunLimits::smoke();
    cfg.qos = QosMode::ThrotCpuPrio;
    cfg.sched = SchedulerKind::FrFcfsCpuPrio;
    let mut sys = HeteroSystem::new(cfg, &mix.cpu, Some(mix.game.clone()));
    let sub = sys.subscribe_run_events();
    sys.set_epoch_sampling(Some(250_000));
    let result = sys.run();
    let poll = sys.poll_run_events(sub);
    assert_eq!(poll.missed, 0, "smoke run overflowed the event ring");
    let mut events = String::new();
    for e in &poll.events {
        let line = e.to_json();
        validate_json_line(&line).unwrap();
        events.push_str(&line);
        events.push('\n');
    }
    events.push_str(&sys.registry_snapshot().to_json());
    events.push('\n');
    let mut result_json = result.to_json();
    validate_json_line(&result_json).unwrap();
    result_json.push('\n');
    (events, result_json, result.render_report())
}

#[test]
fn m7_smoke_run_matches_goldens() {
    let (events, result_json, report) = m7_smoke_artifacts();
    // The stream must actually exercise the interesting event types before
    // we freeze it — a golden of an empty stream would guard nothing.
    for needle in [
        "\"type\":\"frame_boundary\"",
        "\"type\":\"qos\"",
        "\"type\":\"registry_snapshot\"",
        "\"kind\":\"throttle_engage\"",
    ] {
        assert!(events.contains(needle), "missing {needle} in event stream");
    }
    check_golden("m7_smoke_events.jsonl", &events);
    check_golden("m7_smoke_result.json", &result_json);
    check_golden("m7_smoke_report.txt", &report);
}

/// The full proposal on the M7 mix with a DRRIP LLC, at the default 64
/// LLC MSHRs and at 32, where the MSHR file is full for longer stretches.
/// DRRIP's set-dueling selector moves on every LLC miss, including a
/// lookup that re-fails on a full MSHR file, so these runs pin that the
/// parked-retry fast path replays those updates (DESIGN.md §11).
#[test]
fn m7_drrip_runs_match_goldens() {
    for mshrs in [64, 32] {
        let mix = mix_m(7);
        let mut cfg = MachineConfig::table_one(256, 9);
        cfg.limits = RunLimits::smoke();
        cfg.qos = QosMode::ThrotCpuPrio;
        cfg.sched = SchedulerKind::FrFcfsCpuPrio;
        cfg.llc_policy = ReplacementPolicy::Drrip;
        cfg.llc_mshrs = mshrs;
        let result = HeteroSystem::new(cfg, &mix.cpu, Some(mix.game.clone())).run();
        let mut json = result.to_json();
        validate_json_line(&json).unwrap();
        json.push('\n');
        check_golden(&format!("m7_drrip_mshr{mshrs}_result.json"), &json);
    }
}

/// The M7 smoke run under the two comparison priority schedulers of
/// Figs. 12–14: static CPU priority with no QoS hardware, and DynPrio
/// with the FRPU observing (its progress signals need the FRPU). Both
/// put a CPU/GPU class bit in the DRAM pick key, so these pin the
/// channel's class-keyed walk, which no other golden runs.
#[test]
fn m7_priority_scheduler_runs_match_goldens() {
    for (sched, qos, name) in [
        (SchedulerKind::StaticCpuPrio, QosMode::Off, "static"),
        (SchedulerKind::DynPrio, QosMode::Observe, "dynprio"),
    ] {
        let mix = mix_m(7);
        let mut cfg = MachineConfig::table_one(256, 9);
        cfg.limits = RunLimits::smoke();
        cfg.qos = qos;
        cfg.sched = sched;
        let result = HeteroSystem::new(cfg, &mix.cpu, Some(mix.game.clone())).run();
        let mut json = result.to_json();
        validate_json_line(&json).unwrap();
        json.push('\n');
        check_golden(&format!("m7_{name}_result.json"), &json);
    }
}
