//! The traced run: per-layer numbers for one workload, in one process.
//!
//! Every job runs three times in turn: (a) production `try_run`, (b) the
//! plain replica, (c) the traced replica. (b) and (c) must reproduce (a)
//! exactly. The workload's batch then goes through `gat-serve` twice (cold
//! on two shards, then an all-hit warm replay), and the sub-uncore
//! kernels are timed on their own.

use crate::kernels;
use crate::measure::{digest, resolve_all, serve_pass, Report, SERVE_SHARDS};
use crate::replica::{Fingerprint, Layer, Replica, Trace};
use crate::stats::{median, p90};
use crate::workloads::Workload;
use gat_serve::parse_batch;
use gat_sim::metrics::MetricValue;
use std::path::Path;
use std::time::Instant;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn trace(w: Workload, seed: u64, work_dir: &Path) -> Result<Report, String> {
    let batch = w.batch(seed);
    let jobs = resolve_all(&w.specs(seed))?;
    let mut problems = Vec::new();
    let mut failed = 0u64;
    let mut tr = Trace::default();
    let (mut prod_s, mut plain_s, mut traced_s) = (0.0, 0.0, 0.0);
    let mut job_s = Vec::new();
    let mut results = Vec::new();
    let mut cycles = 0u64;
    let mut skipped = 0u64;
    // CPU hits, CPU misses, GPU hits, GPU misses; DRAM reads, row hits,
    // row misses.
    let mut llc = [0u64; 4];
    let mut dram = [0u64; 3];
    for job in &jobs {
        let t0 = Instant::now();
        let mut sys = job.build();
        let t1 = Instant::now();
        let res = sys.try_run();
        let t2 = Instant::now();
        let r = match res {
            Ok(r) => r,
            Err(e) => {
                failed += 1;
                problems.push(format!("{}: {e}", job.id));
                continue;
            }
        };
        results.push(r.to_json());
        let snap = sys.registry_snapshot();
        job_s.push(t0.elapsed().as_secs_f64());
        prod_s += (t2 - t1).as_secs_f64();
        cycles += sys.now();
        skipped += sys.ff_skipped();
        let want = Fingerprint::of_production(&r, &snap, job.cfg.dram_map.channels);
        for (sum, v) in llc.iter_mut().zip(want.llc) {
            *sum += v;
        }
        dram[0] += want.dram_reads.iter().sum::<u64>();
        for ch in 0..job.cfg.dram_map.channels {
            for (i, key) in [(1, "row_hits"), (2, "row_misses")] {
                if let Some(MetricValue::Count(v)) = snap.get(&format!("dram.ch{ch}.{key}")) {
                    dram[i] += v;
                }
            }
        }

        let mut plain = Replica::new(&job.cfg, &job.apps, job.game.clone())?;
        let t = Instant::now();
        let got_plain = plain.run();
        plain_s += t.elapsed().as_secs_f64();
        let mut traced = Replica::new(&job.cfg, &job.apps, job.game.clone())?;
        let t = Instant::now();
        let got_traced = traced.run_traced(&mut tr);
        traced_s += t.elapsed().as_secs_f64();
        let mut reproduced = true;
        for (kind, got) in [("plain", got_plain), ("traced", got_traced)] {
            let diff = match got {
                Ok(fp) => want.first_difference(&fp),
                Err(e) => Some(e),
            };
            if let Some(d) = diff {
                reproduced = false;
                problems.push(format!("{} {kind} replica: {d}", job.id));
            }
        }
        failed += u64::from(!reproduced);
    }
    let run_digest = digest(results.iter().map(String::as_str));

    // The serve layer on the same jobs.
    let t = Instant::now();
    let items = parse_batch(&batch);
    let parse_ms = t.elapsed().as_secs_f64() * 1e3;
    let cache_dir = work_dir.join("trace-cache");
    let cold = serve_pass(&batch, SERVE_SHARDS, &cache_dir)?;
    let warm = serve_pass(&batch, SERVE_SHARDS, &cache_dir)?;
    std::fs::remove_dir_all(&cache_dir).map_err(|e| format!("{}: {e}", cache_dir.display()))?;
    let n = items.len() as u64;
    failed += cold.unhealthy;
    if cold.unhealthy > 0 || cold.summary.cache_stores != n {
        problems.push(format!(
            "cold batch: {} unhealthy, {} of {n} stored",
            cold.unhealthy, cold.summary.cache_stores
        ));
    }
    if warm.summary.cache_hits != n || warm.blocks != cold.blocks {
        problems.push(format!(
            "warm replay: {} of {n} hits, blocks {}",
            warm.summary.cache_hits,
            if warm.blocks == cold.blocks {
                "identical"
            } else {
                "differ"
            }
        ));
    }
    let serve_digest = digest(cold.blocks.iter().map(String::as_str));
    let digest_value = if w.is_sim() { run_digest } else { serve_digest };
    if let Some(want) = w.recorded_digest(seed) {
        if want != digest_value {
            problems.push(format!(
                "digest {digest_value:016x} differs from the recorded {want:016x}"
            ));
        }
    }

    let uncore_s = tr.seconds(Layer::Uncore) + tr.seconds(Layer::Ingress);
    let secs = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let mut metrics = vec![
        ("engine.speedup_vs_plain_loop", ratio(plain_s, prod_s)),
        ("engine.skipped_share", ratio(skipped as f64, cycles as f64)),
        ("trace.overhead_ratio", ratio(traced_s, plain_s)),
        ("cpu.self_s", tr.seconds(Layer::Cpu)),
        (
            "cpu.ns_per_tick",
            ratio(tr.seconds(Layer::Cpu) * 1e9, tr.cpu_ticks as f64),
        ),
        ("cpu.ticks", tr.cpu_ticks as f64),
        ("gpu.self_s", tr.seconds(Layer::Gpu)),
        (
            "gpu.ns_per_tick",
            ratio(tr.seconds(Layer::Gpu) * 1e9, tr.gpu_ticks as f64),
        ),
        ("gpu.ticks", tr.gpu_ticks as f64),
        ("qos.self_s", tr.seconds(Layer::Qos)),
        ("qos.calls", tr.qos_calls as f64),
        ("uncore.self_s", uncore_s),
        ("uncore.ns_per_cycle", ratio(uncore_s * 1e9, cycles as f64)),
        ("uncore.ingress_s", tr.seconds(Layer::Ingress)),
        ("uncore.ingress_attempts", tr.ingress_attempts as f64),
        (
            "uncore.ingress_reject_ratio",
            ratio(tr.ingress_rejects as f64, tr.ingress_attempts as f64),
        ),
        ("sim.cycles", cycles as f64),
        (
            "llc.cpu_miss_ratio",
            ratio(llc[1] as f64, (llc[0] + llc[1]) as f64),
        ),
        (
            "llc.gpu_miss_ratio",
            ratio(llc[3] as f64, (llc[2] + llc[3]) as f64),
        ),
        ("dram.reads", dram[0] as f64),
        (
            "dram.row_hit_rate",
            ratio(dram[1] as f64, (dram[1] + dram[2]) as f64),
        ),
        ("serve.parse_ms", parse_ms),
        ("job.run_s_p50", secs(&job_s)),
        (
            "job.run_s_p90",
            if job_s.len() < 2 {
                secs(&job_s)
            } else {
                p90(&job_s)
            },
        ),
        (
            "serve.parallel_efficiency",
            ratio(job_s.iter().sum::<f64>(), SERVE_SHARDS as f64 * cold.wall_s),
        ),
        ("serve.warm_replay_ms", warm.wall_s * 1e3),
    ];
    metrics.extend(kernels::measure());
    Ok(Report {
        correct: failed == 0 && problems.is_empty(),
        // Each job runs once through production and the replicas, and
        // once through the batch engine.
        attempted: 2 * jobs.len() as u64,
        failed,
        metrics,
        passes: 1,
        slowdown: 1.0,
        digest: digest_value,
        problems,
    })
}
