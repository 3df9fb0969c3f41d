//! Output digests are reproducible: the figure-driver runs across two
//! passes, and the serve batch across shard counts and cache states.

use gat_benchmark::measure::{digest, resolve_all, serve_pass, sim_run};
use gat_benchmark::workloads::{Workload, DEFAULT_SEED};
use gat_hetero::RunLimits;
use std::path::PathBuf;

fn sim_digest(w: Workload) -> u64 {
    let mut jobs = resolve_all(&w.specs(DEFAULT_SEED)[..4]).unwrap();
    for job in &mut jobs {
        job.cfg.limits = RunLimits::smoke();
    }
    let lines: Vec<String> = jobs.iter().map(|j| sim_run(j).result.unwrap()).collect();
    digest(lines.iter().map(String::as_str))
}

#[test]
fn sim_digest_repeats_across_runs() {
    for w in [
        Workload::Motivation,
        Workload::Throttle,
        Workload::Schedulers,
    ] {
        assert_eq!(sim_digest(w), sim_digest(w), "{}", w.name());
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("digest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn serve_digest_is_shard_and_cache_invariant() {
    let batch: String = Workload::Serve
        .batch(DEFAULT_SEED)
        .lines()
        .take(12)
        .map(|l| format!("{l}\n"))
        .collect();
    let (dir1, dir2) = (scratch("shards1"), scratch("shards2"));
    let one = serve_pass(&batch, 1, &dir1).unwrap();
    let two = serve_pass(&batch, 2, &dir2).unwrap();
    let warm = serve_pass(&batch, 2, &dir2).unwrap();
    let d = |p: &gat_benchmark::measure::ServePass| digest(p.blocks.iter().map(String::as_str));
    assert_eq!(one.unhealthy, 0);
    assert_eq!(one.summary.cache_stores, 12, "cold batch stores every job");
    assert_eq!(d(&one), d(&two), "shards 1 vs 2");
    assert_eq!(warm.summary.cache_hits, 12, "warm batch hits every job");
    assert_eq!(d(&two), d(&warm), "cold vs warm cache");
    assert_eq!(one.cycles, warm.cycles);
    for dir in [dir1, dir2] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}
