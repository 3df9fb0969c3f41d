//! Determinism guards: results must not depend on the figure batch's
//! shard count or on re-running the same seeded configuration.
//!
//! The paper's tables are regenerated on developer machines with whatever
//! core count is available; if a simulation result ever depended on the
//! thread count, every figure would silently stop being reproducible.
//! These tests pin that down at the byte level: rendered text tables and
//! JSONL exports from 1-shard and 8-shard batches of the Fig. 1/2
//! motivation driver must be identical.

use gat::prelude::*;
use gat::sim::json::validate_json_line;
use gat_bench::drivers::{self, run_distinct, smoke_base, Motivation};

fn tiny(shards: usize) -> Motivation {
    let jobs = drivers::motivation_jobs(&smoke_base());
    drivers::motivation(&run_distinct(jobs, shards).unwrap())
}

#[test]
fn fig1_2_exports_are_byte_identical_across_thread_counts() {
    let m1 = tiny(1);
    let m8 = tiny(8);
    for (a, b) in [
        (m1.fig1_table(), m8.fig1_table()),
        (m1.fig2_table(), m8.fig2_table()),
    ] {
        assert_eq!(
            a.render(),
            b.render(),
            "rendered table differs between threads=1 and threads=8"
        );
        let (ja, jb) = (a.to_json(), b.to_json());
        validate_json_line(&ja).unwrap();
        assert_eq!(
            ja, jb,
            "JSONL export differs between threads=1 and threads=8"
        );
    }
}

#[test]
fn same_seed_reruns_produce_identical_event_streams() {
    let run = || {
        let mix = mix_m(7);
        let mut cfg = MachineConfig::table_one(256, 9);
        cfg.limits = RunLimits::smoke();
        cfg.qos = QosMode::ThrotCpuPrio;
        cfg.sched = SchedulerKind::FrFcfsCpuPrio;
        let mut sys = HeteroSystem::new(cfg, &mix.cpu, Some(mix.game.clone()));
        let sub = sys.subscribe_run_events();
        sys.set_epoch_sampling(Some(250_000));
        let result = sys.run();
        let mut jsonl = String::new();
        for e in sys.poll_run_events(sub).events {
            jsonl.push_str(&e.to_json());
            jsonl.push('\n');
        }
        jsonl.push_str(&sys.registry_snapshot().to_json());
        jsonl.push('\n');
        jsonl.push_str(&result.to_json());
        jsonl.push('\n');
        jsonl
    };
    let first = run();
    assert!(!first.is_empty());
    assert_eq!(first, run(), "seeded run is not reproducible");
}
