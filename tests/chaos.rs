//! Chaos suite: the deterministic fault-injection harness, the liveness
//! watchdog, and graceful QoS degradation (DESIGN.md §9).
//!
//! Three contracts are pinned here:
//!
//! 1. **Zero-fault transparency** — a run with an explicitly parsed empty
//!    `FaultPlan` is byte-identical to the committed golden fixtures: the
//!    chaos layer is invisible until asked for.
//! 2. **Fault determinism** — for any plan, same seed + same plan produce
//!    byte-identical exports across repeated runs.
//! 3. **Liveness** — a seeded wedge is converted by the watchdog into a
//!    structured `SimError::Wedged` carrying a JSONL diagnostic at a pinned
//!    cycle, instead of a silent hang, while a long injected stall burst
//!    (a timed gate) is legitimate waiting, not a wedge.

use gat::prelude::*;
use gat::sim::json::validate_json_line;
use proptest::prelude::*;

/// Run one system and capture everything an observer could see.
fn run_artifacts(cfg: MachineConfig, mix: &Mix) -> (String, String, String) {
    let mut sys = HeteroSystem::new(cfg, &mix.cpu, Some(mix.game.clone()));
    let sub = sys.subscribe_run_events();
    sys.set_epoch_sampling(Some(250_000));
    let result = sys.run();
    let poll = sys.poll_run_events(sub);
    assert_eq!(poll.missed, 0, "event ring overflowed");
    let mut events = String::new();
    for e in &poll.events {
        events.push_str(&e.to_json());
        events.push('\n');
    }
    (events, sys.registry_snapshot().to_json(), result.to_json())
}

fn tiny_limits() -> RunLimits {
    RunLimits {
        cpu_instructions: 30_000,
        gpu_frames: 2,
        warmup_cycles: 10_000,
        max_cycles: 300_000_000,
        watchdog: 50_000_000,
    }
}

/// The golden-snapshot run with an explicitly parsed empty fault spec must
/// reproduce the committed fixtures byte-for-byte: installing the chaos
/// layer with nothing enabled is not observable.
#[test]
fn zero_fault_plan_matches_the_goldens() {
    let mix = mix_m(7);
    let mut cfg = MachineConfig::table_one(256, 9);
    cfg.limits = RunLimits::smoke();
    cfg.qos = QosMode::ThrotCpuPrio;
    cfg.sched = SchedulerKind::FrFcfsCpuPrio;
    cfg.faults = FaultPlan::parse("").expect("empty spec parses");
    assert!(cfg.faults.is_none());
    let (mut events, snapshot, mut result_json) = run_artifacts(cfg, &mix);
    events.push_str(&snapshot);
    events.push('\n');
    result_json.push('\n');

    let golden = |name: &str| {
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(name);
        std::fs::read_to_string(&path).expect("golden fixture present")
    };
    assert_eq!(
        events,
        golden("m7_smoke_events.jsonl"),
        "event stream diverged"
    );
    assert_eq!(
        result_json,
        golden("m7_smoke_result.json"),
        "result JSON diverged"
    );
}

/// A heavy plan visibly perturbs the run (no silent no-op injectors), and
/// identically seeded faulted runs are byte-identical.
#[test]
fn heavy_faults_perturb_deterministically() {
    let mix = mix_m(7);
    let mut cfg = MachineConfig::table_one(128, 21);
    cfg.limits = tiny_limits();
    let clean = run_artifacts(cfg.clone(), &mix);
    cfg.faults = FaultPlan::parse(
        "dram.bounce=1.0,dram.backoff=16,dram.retries=2,ring.drop=0.5,ring.replay=64",
    )
    .unwrap();
    let a = run_artifacts(cfg.clone(), &mix);
    let b = run_artifacts(cfg, &mix);
    assert_eq!(a, b, "same seed + same plan must be byte-identical");
    assert_ne!(a.2, clean.2, "a p=1 bounce plan must perturb the result");
}

/// The seeded wedge fixture: the GPU scheduler stops making progress at a
/// known cycle and the watchdog must convert that into a structured error
/// with a machine-readable diagnostic at a pinned cycle.
#[test]
fn watchdog_converts_a_seeded_wedge_into_a_structured_error() {
    const WEDGE_AT: u64 = 100_000;
    const WINDOW: u64 = 50_000;
    const TRIP_AT: u64 = 150_000;
    let mut cfg = MachineConfig::table_one(64, 3);
    cfg.limits = RunLimits {
        cpu_instructions: 0,
        gpu_frames: 50,
        warmup_cycles: 0,
        max_cycles: 1_000_000_000,
        watchdog: WINDOW,
    };
    cfg.faults = FaultPlan::parse(&format!("wedge={WEDGE_AT}")).unwrap();
    let game = mix_m(7).game;
    let mut sys = HeteroSystem::new(cfg, &[], Some(game));
    match sys.try_run() {
        Err(SimError::Wedged {
            cycle,
            window,
            diagnostic,
        }) => {
            assert_eq!(window, WINDOW);
            assert_eq!(
                cycle, TRIP_AT,
                "watchdog fired at {cycle}, wedge at {WEDGE_AT}"
            );
            assert!(diagnostic.contains("\"type\":\"watchdog_dump\""));
            for line in diagnostic.lines() {
                validate_json_line(line).expect("diagnostic lines are JSONL");
            }
        }
        other => panic!("expected SimError::Wedged, got {other:?}"),
    }
}

/// A driver loop that advances the machine itself, as `timeline` does,
/// gets `try_run`'s liveness guarantee through `HeteroSystem::step`. With
/// a CPU budget of 0 the watchdog watches the GPU frames alone, so a
/// wedged GPU trips it even while the four cores keep retiring.
#[test]
fn stepping_a_wedged_machine_trips_the_watchdog() {
    const WINDOW: u64 = 50_000;
    let mix = mix_m(7);
    let mut cfg = MachineConfig::table_one(1024, 5);
    cfg.qos = QosMode::ThrotCpuPrio;
    cfg.sched = SchedulerKind::FrFcfsCpuPrio;
    cfg.limits = RunLimits {
        cpu_instructions: 0,
        gpu_frames: 3,
        warmup_cycles: 0,
        max_cycles: 1_000_000,
        watchdog: WINDOW,
    };
    cfg.faults = FaultPlan::parse("wedge=20000").unwrap();
    let mut sys = HeteroSystem::new(cfg, &mix.cpu, Some(mix.game.clone()));
    let err = loop {
        if let Err(e) = sys.step() {
            break e;
        }
    };
    match err {
        SimError::Wedged {
            cycle,
            window,
            diagnostic,
        } => {
            assert_eq!(window, WINDOW);
            // The first window sees the GPU's sends before the wedge.
            assert_eq!(cycle, 2 * WINDOW, "watchdog fired at {cycle}");
            assert!(diagnostic.contains("\"type\":\"watchdog_dump\""));
        }
        other => panic!("expected SimError::Wedged, got {other:?}"),
    }
    assert!(sys.total_retired() > 0, "the cores kept running");
}

/// A stall burst longer than the watchdog window holds the GPU's LLC port
/// shut on a timer: the silent window is legitimate waiting, so the run
/// completes instead of tripping the watchdog.
#[test]
fn stall_burst_longer_than_the_watchdog_window_is_not_a_wedge() {
    const WINDOW: u64 = 20_000;
    // Stall length in GPU cycles; four CPU cycles each.
    const STALL_LEN: u64 = 8_000;
    const { assert!(STALL_LEN * 4 > WINDOW) };
    let mut cfg = MachineConfig::table_one(256, 5);
    cfg.limits = RunLimits {
        cpu_instructions: 0,
        gpu_frames: 2,
        warmup_cycles: 0,
        max_cycles: 300_000_000,
        watchdog: WINDOW,
    };
    cfg.faults = FaultPlan::parse(&format!(
        "gpu.stall.period={},gpu.stall.len={STALL_LEN}",
        STALL_LEN + 2_000
    ))
    .unwrap();
    let mut sys = HeteroSystem::new(cfg, &[], Some(mix_m(7).game));
    let r = sys.try_run().expect("a timed stall is not a wedge");
    assert!(r.gpu.unwrap().frames >= 2);
}

/// FRPU sensor noise must degrade the controller gracefully: the run
/// completes, QoS latches the safe throttle-off fallback, and a
/// `degraded` event is published — no panic, no wedge.
#[test]
fn frpu_noise_degrades_qos_instead_of_failing() {
    let mix = mix_m(7);
    let mut cfg = MachineConfig::table_one(64, 11);
    cfg.qos = QosMode::ThrotCpuPrio;
    cfg.sched = SchedulerKind::FrFcfsCpuPrio;
    cfg.limits = RunLimits {
        cpu_instructions: 0,
        gpu_frames: 24,
        warmup_cycles: 20_000,
        max_cycles: 300_000_000,
        watchdog: 50_000_000,
    };
    cfg.faults = FaultPlan::parse("frpu.jitter=0.8").unwrap();
    let mut sys = HeteroSystem::new(cfg, &mix.cpu, Some(mix.game.clone()));
    let sub = sys.subscribe_run_events();
    let result = sys.try_run().expect("degraded run still completes");
    assert!(result.gpu.as_ref().unwrap().frames >= 24);
    assert!(sys.qos_degraded(), "relearn storm must latch degradation");
    let events: String = sys
        .poll_run_events(sub)
        .events
        .iter()
        .map(|e| e.to_json() + "\n")
        .collect();
    assert!(
        events.contains("\"kind\":\"degraded\""),
        "no degraded event:\n{events}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Randomized fault plans: byte-identical across reruns, for any
    /// mix/seed/plan drawn here.
    #[test]
    fn faulted_runs_are_reproducible(
        seed in 1u64..1_000_000,
        mix_idx in 1usize..=14,
        bounce in 0.0f64..0.4,
        drop in 0.0f64..0.3,
        jitter in 0.0f64..0.5,
        stall_period in 0u64..4000,
    ) {
        let mut spec = format!(
            "dram.bounce={bounce:.3},ring.drop={drop:.3},frpu.jitter={jitter:.3}"
        );
        // Periods under 500 mean "no stall window" so the sweep also
        // covers plans without one.
        if stall_period >= 500 {
            spec.push_str(&format!(
                ",gpu.stall.period={stall_period},gpu.stall.len={}",
                (stall_period / 4).max(1)
            ));
        }
        let mix = mix_m(mix_idx);
        let mut cfg = MachineConfig::table_one(128, seed);
        cfg.limits = tiny_limits();
        cfg.qos = QosMode::ThrotCpuPrio;
        cfg.sched = SchedulerKind::FrFcfsCpuPrio;
        cfg.faults = FaultPlan::parse(&spec).unwrap();
        let first = run_artifacts(cfg.clone(), &mix);
        let rerun = run_artifacts(cfg, &mix);
        prop_assert_eq!(&first.2, &rerun.2, "RunResult diverged on rerun");
        prop_assert_eq!(&first.1, &rerun.1, "registry snapshot diverged on rerun");
        prop_assert_eq!(&first.0, &rerun.0, "event stream diverged on rerun");
    }
}

/// Serve-layer chaos (DESIGN.md §12): a batch mixing healthy, faulted,
/// budget-exhausted and panicking jobs must yield exactly one expected
/// typed `JobOutcome` per job, with byte-identical emission across
/// reruns and across worker shard counts. The engine's job is to turn
/// every kind of trouble into ordered, typed, reproducible data.
#[test]
fn serve_batch_types_every_failure_and_stays_byte_identical() {
    const BATCH: &str = concat!(
        r#"{"id":"healthy","game":"DOOM3","cpus":[470],"instr":20000,"frames":1,"warmup":10000}"#,
        "\n",
        r#"{"id":"wedge","game":"DOOM3","cpus":[],"scale":64,"seed":3,"frames":50,"instr":0,"warmup":0,"faults":"wedge=100000","watchdog":50000}"#,
        "\n",
        r#"{"id":"overbudget","game":"DOOM3","cpus":[470],"warmup":0,"budget":{"cycles":30000}}"#,
        "\n",
        r#"{"id":"toobig","game":"DOOM3","budget":{"mem_mb":1}}"#,
        "\n",
        r#"{"id":"boom","game":"DOOM3","fixture":"panic"}"#,
        "\n",
    );
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
    let run = |shards: usize| -> Vec<String> {
        let captured = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let items = gat_serve::parse_batch(BATCH);
        let opts = gat_serve::EngineOptions {
            shards,
            cache: gat_serve::ResultCache::disabled(),
            dump_dir: None,
        };
        let mut sinks = vec![gat_serve::SinkSlot::new(Box::new(Tap(captured.clone())))];
        let summary = gat_serve::run_batch(&items, &opts, &mut sinks);
        assert_eq!(summary.jobs, 5);
        assert_eq!(
            (
                summary.ok,
                summary.wedged,
                summary.budget_exceeded,
                summary.panicked
            ),
            (1, 1, 2, 1),
            "outcome histogram drifted: {summary:?}"
        );
        let blocks = captured.borrow().clone();
        blocks
    };

    let one = run(1);
    // Exactly one typed outcome line per job, in spec order.
    let expect = [
        ("healthy", "\"outcome\":\"ok\""),
        ("wedge", "\"outcome\":\"wedged\""),
        ("overbudget", "\"outcome\":\"budget_exceeded\""),
        ("toobig", "\"outcome\":\"budget_exceeded\""),
        ("boom", "\"outcome\":\"panicked\""),
    ];
    for (block, (id, outcome)) in one.iter().zip(expect) {
        let first = block.lines().next().unwrap();
        assert!(first.contains(&format!("\"id\":\"{id}\"")), "{first}");
        assert!(first.contains(outcome), "{first}");
        validate_json_line(first).expect("outcome lines are JSONL");
    }
    assert!(one[2].contains("\"budget\":\"cycles\""));
    assert!(one[3].contains("\"budget\":\"mem\""));
    assert!(one[4].contains("\"message\""));
    assert!(one
        .last()
        .unwrap()
        .starts_with("{\"type\":\"batch_summary\""));

    // Byte-identity: rerun, and every shard count.
    assert_eq!(one, run(1), "rerun diverged");
    assert_eq!(one, run(2), "2-shard run diverged");
    assert_eq!(one, run(3), "3-shard run diverged");
}
