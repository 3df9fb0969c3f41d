//! Sub-uncore kernels. `Uncore::tick` cannot be split from outside, so the
//! trace times the uncore's building blocks on their own. The loops are
//! those of `crates/bench/benches/components.rs`; each is reported as the
//! median cost per operation over [`REPS`] repetitions.

use crate::stats::median;
use gat_cache::{AccessKind, CacheConfig, ReplacementPolicy, SetAssocCache, Source};
use gat_core::{AccessThrottler, FrameRateEstimator, FrpuConfig};
use gat_dram::{DramAddressMap, DramChannel, DramRequest, DramTiming, SchedCtx, SchedulerKind};
use gat_ring::{Ring, RingTopology, StopId};
use gat_sim::rng::SimRng;
use std::hint::black_box;
use std::time::Instant;

pub const REPS: usize = 5;

/// Median ns per `step` over [`REPS`] runs of `ops` steps, each on fresh
/// state from `setup` (not timed).
fn ns_per_op<S>(ops: u64, mut setup: impl FnMut() -> S, mut step: impl FnMut(&mut S)) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut state = setup();
            let t = Instant::now();
            for _ in 0..ops {
                step(&mut state);
            }
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

fn llc() -> SetAssocCache {
    let mut cfg = CacheConfig::new("LLC", 16 << 20, 16, 10, ReplacementPolicy::Srrip);
    cfg.hashed_index = true;
    SetAssocCache::new(cfg)
}

/// One channel streaming 64 sequential reads to completion.
fn dram_stream64(map: &DramAddressMap) -> usize {
    let mut ch = DramChannel::new(
        DramTiming::ddr3_2133(),
        8,
        64,
        SchedulerKind::FrFcfs.build(0),
    );
    let mut out = Vec::new();
    let mut now = 0u64;
    for i in 0..64u64 {
        let addr = i * 128;
        while !ch.can_accept() {
            ch.tick(now, SchedCtx::default());
            ch.drain_completions(now, &mut out);
            now += 1;
        }
        ch.enqueue(
            DramRequest {
                id: i,
                addr,
                write: false,
                source: Source::Cpu(0),
            },
            map.decompose(addr),
            now,
        );
    }
    while ch.busy() {
        ch.tick(now, SchedCtx::default());
        ch.drain_completions(now, &mut out);
        now += 1;
    }
    out.len()
}

/// `(metric name, value)` for every kernel, in catalog order.
pub fn measure() -> Vec<(&'static str, f64)> {
    let llc_hit = ns_per_op(
        1_000_000,
        || {
            let mut c = llc();
            c.fill(0x1000, Source::Cpu(0), false);
            c
        },
        |c| {
            black_box(c.access(0x1000, AccessKind::Read, Source::Cpu(0)));
        },
    );
    let llc_fill = ns_per_op(
        500_000,
        || (llc(), 0u64),
        |(c, addr)| {
            *addr = addr.wrapping_add(64);
            black_box(c.fill(*addr, Source::Gpu, false));
        },
    );
    let map = DramAddressMap::table_one();
    let dram = ns_per_op(
        200,
        || (),
        |_| {
            black_box(dram_stream64(&map));
        },
    );
    let ring = ns_per_op(
        1_000_000,
        || (Ring::new(RingTopology::table_one()), Vec::new(), 0u64),
        |(ring, out, now)| {
            ring.send(*now, StopId(0), StopId(5), *now);
            *now += 1;
            out.clear();
            ring.drain_delivered(*now, out);
            black_box(out.len());
        },
    );
    let frpu = ns_per_op(
        1_000_000,
        || {
            let mut f = FrameRateEstimator::new(FrpuConfig::default());
            // Learn a frame first so the prediction path is exercised.
            for _ in 0..4 {
                f.on_rtp_complete(1000, 2500, 100, 400);
            }
            f.on_frame_complete(10_000);
            (f, 0u32)
        },
        |(f, i)| {
            f.on_rtp_complete(1000, 2500, 100, 400);
            *i += 1;
            if i.is_multiple_of(4) {
                f.on_frame_complete(10_000);
            }
            black_box(f.predicted_cycles_per_frame());
        },
    );
    let atu = ns_per_op(
        1_000_000,
        || (AccessThrottler::new(), 0u64),
        |(atu, now)| {
            atu.update(2000.0, 1000.0, 100.0);
            let q = atu.quota(*now);
            if q > 0 {
                atu.note_sends(*now, 1);
            }
            *now += 1;
            black_box(q);
        },
    );
    let rng = ns_per_op(
        2_000_000,
        || SimRng::new(1),
        |r| {
            black_box(r.next_u64());
        },
    );
    vec![
        ("kernel.llc_access_hit_ns", llc_hit),
        ("kernel.llc_fill_evict_ns", llc_fill),
        ("kernel.dram_stream64_us", dram / 1e3),
        ("kernel.ring_send_drain_ns", ring),
        ("kernel.frpu_rtp_ns", frpu),
        ("kernel.atu_gate_ns", atu),
        ("kernel.rng_next_u64_ns", rng),
    ]
}
