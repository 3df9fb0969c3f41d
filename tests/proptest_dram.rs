//! Property tests on the DRAM channel: conservation (every request
//! completes exactly once), timing sanity, scheduler-independence of
//! conservation, and per-bank queue bookkeeping after every tick.

use gat::cache::Source;
use gat::dram::{
    Completion, DramAddressMap, DramChannel, DramRequest, DramTiming, SchedCtx, SchedulerImpl,
    SchedulerKind,
};
use proptest::prelude::*;
use std::collections::HashSet;

const MAP: DramAddressMap = DramAddressMap::table_one();

/// One channel cycle: tick, check the queue bookkeeping (so removal from
/// the middle of a bank queue is checked under every scheduler), drain.
fn step(ch: &mut DramChannel, now: u64, ctx: SchedCtx, out: &mut Vec<Completion>) {
    ch.tick(now, ctx);
    ch.check_queue_invariants();
    ch.drain_completions(now, out);
}

fn drive(
    kind: SchedulerKind,
    reqs: &[(u64, bool, bool)], // (addr seed, write, is_gpu)
    ctx: SchedCtx,
) -> Vec<(u64, u64)> {
    // Returns (id, done_at) in completion order.
    let mut ch = DramChannel::new(DramTiming::ddr3_2133(), 8, 32, kind.build(5));
    let mut out = Vec::new();
    let mut done = Vec::new();
    let mut now = 0u64;
    for (i, &(seed, write, gpu)) in reqs.iter().enumerate() {
        let addr = (seed % (1 << 20)) * 64;
        // Keep requests on this channel.
        let addr = if MAP.decompose(addr).channel == 0 {
            addr
        } else {
            addr + 64
        };
        while !ch.can_accept() {
            step(&mut ch, now, ctx, &mut out);
            now += 1;
            assert!(now < 1_000_000, "wedged while enqueuing");
        }
        ch.enqueue(
            DramRequest {
                id: i as u64,
                addr,
                write,
                source: if gpu { Source::Gpu } else { Source::Cpu(0) },
            },
            MAP.decompose(addr),
            now,
        );
    }
    while ch.busy() {
        step(&mut ch, now, ctx, &mut out);
        now += 1;
        assert!(now < 10_000_000, "wedged while draining");
    }
    for c in out {
        done.push((c.id, c.done_at));
    }
    done
}

/// Drive a channel through `reqs` with enqueue gaps (so starved windows
/// actually form) and return every completion as `(id, done_at)`.
fn drive_gapped(
    sched: SchedulerImpl,
    reqs: &[(u64, bool, bool, u8)], // (addr seed, write, is_gpu, gap)
) -> Vec<(u64, u64)> {
    let mut ch = DramChannel::new(DramTiming::ddr3_2133(), 8, 32, sched);
    let mut out = Vec::new();
    let mut now = 0u64;
    for (i, &(seed, write, gpu, gap)) in reqs.iter().enumerate() {
        let addr = (seed % (1 << 20)) * 64;
        let addr = if MAP.decompose(addr).channel == 0 {
            addr
        } else {
            addr + 64
        };
        // The gap lets in-flight bursts land and banks go cold, so the
        // next arrivals hit genuine starved stretches (tRP/tRCD waits).
        for _ in 0..gap {
            step(&mut ch, now, SchedCtx::default(), &mut out);
            now += 1;
        }
        while !ch.can_accept() {
            step(&mut ch, now, SchedCtx::default(), &mut out);
            now += 1;
            assert!(now < 1_000_000, "wedged while enqueuing");
        }
        ch.enqueue(
            DramRequest {
                id: i as u64,
                addr,
                write,
                source: if gpu { Source::Gpu } else { Source::Cpu(0) },
            },
            MAP.decompose(addr),
            now,
        );
    }
    while ch.busy() {
        step(&mut ch, now, SchedCtx::default(), &mut out);
        now += 1;
        assert!(now < 10_000_000, "wedged while draining");
    }
    out.into_iter().map(|c| (c.id, c.done_at)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The starved-skip fast path must be invisible: SMS with
    /// `pure_when_starved` (channel skips starved cycles) and the same
    /// SMS forced to tick every cycle see identical RNG streams and
    /// produce byte-identical completion schedules.
    #[test]
    fn sms_starved_skip_is_equivalent(
        reqs in prop::collection::vec(
            (any::<u64>(), any::<bool>(), any::<bool>(), 0u8..120), 1..60),
        p in prop::sample::select(vec![0.0, 0.5, 0.9, 1.0]),
        seed in any::<u64>(),
    ) {
        let skipped = drive_gapped(SchedulerKind::Sms(p).build(seed), &reqs);
        let unskipped = drive_gapped(SchedulerImpl::sms_unskipped(p, seed), &reqs);
        prop_assert_eq!(skipped, unskipped, "starved-skip changed the schedule");
    }

    /// FR-FCFS: every request completes exactly once, at a time that is
    /// at least the minimum service latency.
    #[test]
    fn conservation_frfcfs(reqs in prop::collection::vec((any::<u64>(), any::<bool>(), any::<bool>()), 1..80)) {
        let done = drive(SchedulerKind::FrFcfs, &reqs, SchedCtx::default());
        prop_assert_eq!(done.len(), reqs.len());
        let ids: HashSet<u64> = done.iter().map(|d| d.0).collect();
        prop_assert_eq!(ids.len(), reqs.len(), "duplicate completion");
        let t = DramTiming::ddr3_2133();
        for &(_, at) in &done {
            prop_assert!(at >= t.t_burst, "implausibly early completion {at}");
        }
    }

    /// Conservation holds under every scheduler, including priority modes.
    #[test]
    fn conservation_all_schedulers(
        reqs in prop::collection::vec((any::<u64>(), any::<bool>(), any::<bool>()), 1..60),
        boost in any::<bool>(),
        urgent in any::<bool>(),
        ahead in any::<bool>(),
    ) {
        let ctx = SchedCtx { cpu_prio_boost: boost, gpu_urgent: urgent, gpu_ahead: ahead };
        for kind in [
            SchedulerKind::FrFcfs,
            SchedulerKind::FrFcfsCpuPrio,
            SchedulerKind::Sms(0.9),
            SchedulerKind::Sms(0.0),
            SchedulerKind::DynPrio,
            SchedulerKind::StaticCpuPrio,
        ] {
            let done = drive(kind, &reqs, ctx);
            prop_assert_eq!(done.len(), reqs.len(), "{:?} lost requests", kind);
        }
    }

    /// With the CPU-priority boost asserted, a CPU read enqueued together
    /// with a backlog of GPU reads is serviced earlier than without.
    #[test]
    fn cpu_prio_boost_helps_cpu(seed in 0u64..1000) {
        // A burst of GPU requests followed by one CPU request.
        let mut reqs: Vec<(u64, bool, bool)> = (0..24).map(|i| (seed + i * 7919, false, true)).collect();
        reqs.push((seed + 13, false, false));
        let plain = drive(SchedulerKind::FrFcfsCpuPrio, &reqs, SchedCtx::default());
        let boosted = drive(
            SchedulerKind::FrFcfsCpuPrio,
            &reqs,
            SchedCtx { cpu_prio_boost: true, gpu_urgent: false, gpu_ahead: false },
        );
        let cpu_id = (reqs.len() - 1) as u64;
        let at = |v: &[(u64, u64)]| v.iter().find(|d| d.0 == cpu_id).unwrap().1;
        prop_assert!(at(&boosted) <= at(&plain),
            "boost must not delay the CPU request: {} vs {}", at(&boosted), at(&plain));
    }
}
