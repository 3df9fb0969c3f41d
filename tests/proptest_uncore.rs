//! Property tests on the assembled uncore (ring + LLC + MSHRs + two DRAM
//! channels): request conservation under random interleaved CPU/GPU
//! traffic with back-pressure, across every scheduler. Some cases shrink
//! the LLC MSHR file to 1–4 entries so reads queue up as MSHR-full
//! retries, and every tick re-checks the uncore's invariants.

use gat::cache::{BlockReq, Source};
use gat::dram::{SchedCtx, SchedulerKind};
use gat::hetero::uncore::Uncore;
use gat::hetero::{FillPolicyKind, MachineConfig};
use proptest::prelude::*;
use std::collections::HashSet;

/// LLC MSHR counts to draw from: the Table I 64, or 1–4 so the MSHR
/// file fills and reads take the retry path.
fn llc_mshrs() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![64, 1, 2, 3, 4])
}

/// One uncore cycle, with the invariant sweep paranoia mode runs.
fn tick(u: &mut Uncore, now: u64, ctx: SchedCtx) {
    u.tick(now, ctx);
    if let Err(e) = u.check_invariants() {
        panic!("cycle {now}: {e}");
    }
}

/// Push every request through (retrying on back-pressure), then drain the
/// machine dry; returns the set of completed read tokens.
fn drive(
    kind: SchedulerKind,
    fill: FillPolicyKind,
    mshrs: usize,
    reqs: &[(bool, bool, u64)], // (is_gpu, write, addr seed)
    ctx: SchedCtx,
) -> HashSet<u64> {
    let mut cfg = MachineConfig::table_one(64, 3);
    cfg.sched = kind;
    cfg.fill_policy = fill;
    cfg.llc_mshrs = mshrs;
    let mut u = Uncore::new(&cfg);
    let mut now = 0u64;
    let mut done = Vec::new();
    let mut completions = Vec::new();
    for (i, &(gpu, write, seed)) in reqs.iter().enumerate() {
        let source = if gpu {
            Source::Gpu
        } else {
            Source::Cpu((seed % 4) as u8)
        };
        let addr = if gpu {
            (1u64 << 40) + (seed % (1 << 22)) * 64
        } else {
            (seed % (1 << 22)) * 64
        };
        let req = BlockReq {
            token: i as u64,
            addr,
            write,
        };
        while !u.try_request(now, source, req) {
            tick(&mut u, now, ctx);
            u.drain_completions(&mut completions);
            now += 1;
            assert!(now < 10_000_000, "wedged while injecting");
        }
    }
    while u.busy() {
        tick(&mut u, now, ctx);
        u.drain_completions(&mut completions);
        now += 1;
        assert!(now < 50_000_000, "wedged while draining");
    }
    for c in completions {
        assert!(done.iter().all(|&d| d != c.token), "duplicate completion");
        done.push(c.token);
    }
    done.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every read completes exactly once; writes are posted (no response);
    /// nothing wedges — under each scheduler, priority signal and LLC
    /// fill policy (a bypassed GPU fill releases its MSHR without filling
    /// the LLC).
    #[test]
    fn uncore_conserves_requests(
        reqs in prop::collection::vec((any::<bool>(), any::<bool>(), any::<u64>()), 1..120),
        sched_ix in 0usize..4,
        boost in any::<bool>(),
        fill in prop::sample::select(vec![
            FillPolicyKind::Baseline,
            FillPolicyKind::BypassAll,
            FillPolicyKind::Helm,
        ]),
        mshrs in llc_mshrs(),
    ) {
        let kind = [
            SchedulerKind::FrFcfs,
            SchedulerKind::FrFcfsCpuPrio,
            SchedulerKind::DynPrio,
            SchedulerKind::StaticCpuPrio,
        ][sched_ix];
        let ctx = SchedCtx { cpu_prio_boost: boost, gpu_urgent: false, gpu_ahead: false };
        let done = drive(kind, fill, mshrs, &reqs, ctx);
        // Distinct read tokens: merged same-block reads each get their own
        // completion because tokens differ per request.
        let expected: HashSet<u64> = reqs
            .iter()
            .enumerate()
            .filter(|(_, &(_, write, _))| !write)
            .map(|(i, _)| i as u64)
            .collect();
        prop_assert_eq!(done, expected);
    }

    /// Determinism at the uncore level: identical storms give identical
    /// LLC statistics.
    #[test]
    fn uncore_is_deterministic(
        reqs in prop::collection::vec((any::<bool>(), any::<bool>(), any::<u64>()), 1..60),
        mshrs in llc_mshrs(),
    ) {
        let run = || {
            let mut cfg = MachineConfig::table_one(64, 9);
            cfg.llc_mshrs = mshrs;
            let mut u = Uncore::new(&cfg);
            let mut now = 0u64;
            let mut buf = Vec::new();
            for (i, &(gpu, write, seed)) in reqs.iter().enumerate() {
                let source = if gpu { Source::Gpu } else { Source::Cpu(0) };
                let addr = (seed % (1 << 20)) * 64 + if gpu { 1 << 40 } else { 0 };
                let req = BlockReq { token: i as u64, addr, write };
                while !u.try_request(now, source, req) {
                    tick(&mut u, now, SchedCtx::default());
                    now += 1;
                }
            }
            while u.busy() {
                tick(&mut u, now, SchedCtx::default());
                u.drain_completions(&mut buf);
                now += 1;
            }
            (now, u.llc.stats.hits.get(), u.llc.stats.misses.get(), buf.len())
        };
        prop_assert_eq!(run(), run());
    }
}
