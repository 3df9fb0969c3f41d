//! Core-level reference test for per-core inert-tick skipping (DESIGN.md
//! §8). The plain `Core::tick` is the reference: whenever
//! `Core::next_wake(now)` certifies a wake `w`, ticking the core through
//! the span `[now, end)` must be inert — every tick returns `false` and
//! no request reaches the port — and must leave the same counters,
//! hierarchy counters and dispatch credit as `Core::fast_forward(now,
//! end)` on an identical core.
//!
//! The span ends where the system would wake the core: at `w`, or for a
//! blocked core (`w == Cycle::MAX`) at the next due response. A core
//! whose front is a port-refused memoized stall is certified only while
//! the port keeps refusing: the reference ticks through its span with the
//! port rejecting, and the span ends by `w` or at a drawn cycle, which
//! stands for the cycle after the uncore can accept again. After a span
//! the core ticks, as a woken core does.
//!
//! Two cores built from the same profile and seed run in lockstep on the
//! same response stream. At a certified span the reference ticks through
//! it while the other core fast-forwards; responses due inside the span
//! are held until its end, which is just another response timing.

use gat::cache::SinkPort;
use gat::cpu::{
    Core, CoreConfig, CpuHierarchy, HierarchyConfig, SpecProfile, StallCause, StreamGen,
};
use gat::sim::rng::SimRng;
use proptest::prelude::*;

const CYCLES: u64 = 6_000;

fn core(p: SpecProfile, seed: u64) -> Core {
    Core::new(
        CoreConfig::default(),
        StreamGen::new(p, 0, SimRng::new(seed)),
        CpuHierarchy::new(0, HierarchyConfig::default()),
    )
}

/// Everything `Core::fast_forward` replays, as seen from outside.
fn replayed_state(c: &Core) -> [u64; 12] {
    let h = &c.hierarchy;
    [
        c.cycles.get(),
        c.commit_stall_cycles.get(),
        c.retired.get(),
        c.branch_mispredicts.get(),
        c.dispatch_credit().to_bits(),
        h.loads.get(),
        h.stores.get(),
        h.l1d.stats.misses.get(),
        h.l1d.stats.cpu_misses.get(),
        h.l2.stats.misses.get(),
        h.l2.stats.cpu_misses.get(),
        h.mshr_stalls(),
    ]
}

/// Longest span the harness lets a port-refused stall sleep before the
/// port accepts again.
const PORT_SPAN: u64 = 64;

/// Certified spans checked, in all and by what the core slept on.
#[derive(Debug, Default)]
struct Spans {
    all: u32,
    /// `next_wake` gave `Cycle::MAX`.
    blocked: u32,
    /// The front was a memoized stall on a full MSHR file.
    mshr: u32,
    /// The front was a memoized stall the port refused.
    port: u32,
}

/// Run a reference core and a skipping core in lockstep for [`CYCLES`],
/// checking every certified span; returns the spans checked.
fn lockstep(
    p: SpecProfile,
    seed: u64,
    lat_lo: u64,
    lat_spread: u64,
    reject_p: f64,
) -> Result<Spans, String> {
    let mut reference = core(p, seed);
    let mut skipper = core(p, seed);
    let (mut ref_port, mut skip_port) = (SinkPort::default(), SinkPort::default());
    let mut timing = SimRng::new(seed ^ 0x5eed);
    let mut inflight: Vec<(u64, u64)> = Vec::new();
    let mut now = 0u64;
    let mut spans = Spans::default();
    // A woken core ticks before it may sleep again.
    let mut woken = false;
    while now < CYCLES {
        inflight.sort_unstable();
        let due = inflight.partition_point(|&(t, _)| t <= now);
        for (_, tok) in inflight.drain(..due) {
            reference.on_mem_response(now, tok, &mut ref_port);
            skipper.on_mem_response(now, tok, &mut skip_port);
        }
        if let Some(w) = skipper.next_wake(now).filter(|_| !woken) {
            prop_assert!(w > now, "wake {w} not after {now}");
            let port_stalled = skipper.port_stalled();
            let mut end = w;
            if port_stalled {
                end = end.min(now + 1 + timing.below(PORT_SPAN));
            }
            if end == u64::MAX {
                // Blocked on memory: the next response wakes the core.
                end = inflight.iter().map(|&(t, _)| t).min().unwrap_or(u64::MAX);
                prop_assert!(
                    end != u64::MAX,
                    "core blocked at {now} with nothing in flight"
                );
            }
            ref_port.reject_all = port_stalled;
            for t in now..end {
                prop_assert!(
                    !reference.tick(t, &mut ref_port),
                    "tick at {t} in certified span [{now}, {end}) did work"
                );
                prop_assert!(ref_port.accepted.is_empty(), "request in span at {t}");
            }
            skipper.fast_forward(now, end);
            prop_assert_eq!(replayed_state(&reference), replayed_state(&skipper));
            spans.all += 1;
            spans.blocked += u32::from(w == u64::MAX);
            match skipper.hierarchy.stall_cause() {
                Some(StallCause::Mshr) => spans.mshr += 1,
                Some(StallCause::Port) => spans.port += 1,
                None => {}
            }
            now = end;
            woken = true;
            continue;
        }
        woken = false;
        let reject = timing.chance(reject_p);
        ref_port.reject_all = reject;
        skip_port.reject_all = reject;
        let worked = reference.tick(now, &mut ref_port);
        prop_assert_eq!(worked, skipper.tick(now, &mut skip_port));
        prop_assert_eq!(&ref_port.accepted, &skip_port.accepted);
        skip_port.accepted.clear();
        for (t, req) in ref_port.accepted.drain(..) {
            if !req.write {
                inflight.push((t + lat_lo + timing.below(lat_spread + 1), req.token));
            }
        }
        now += 1;
    }
    prop_assert_eq!(replayed_state(&reference), replayed_state(&skipper));
    Ok(spans)
}

/// A low-IPC, mispredicting profile certifies spans all the time, so the
/// property below is not vacuous.
#[test]
fn low_ipc_profile_certifies_spans() {
    let mut p = gat::workloads::spec(429);
    p.base_ipc = 0.4;
    p.branch_mpki = 5.0;
    let spans = lockstep(p, 7, 100, 100, 0.1).unwrap();
    assert!(spans.all > 100, "only {spans:?} certified spans");
}

/// A memory-bound core behind a slow, often-refusing port sleeps on each
/// kind of stall: blocked, on a full MSHR file and on a refused request.
#[test]
fn stalled_fronts_certify_spans() {
    let mut p = gat::workloads::spec(429);
    p.mem_fraction = 0.5;
    p.working_set = 64 << 20;
    // Uniform cold misses: no chase serializes them and no stream
    // prefetch hides them, so they fill the MSHR file.
    p.stream_fraction = 0.0;
    p.stride_fraction = 0.0;
    p.chase_fraction = 0.0;
    p.hot_fraction = 0.0;
    let spans = lockstep(p, 11, 400, 400, 0.3).unwrap();
    assert!(
        spans.blocked > 20 && spans.mshr > 20 && spans.port > 20,
        "{spans:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn certified_spans_are_inert_and_fast_forward_exactly(
        seed in 1u64..1_000_000,
        mem in 0.0f64..0.6,
        writes in 0.0f64..0.6,
        mix in prop::collection::vec(0.0f64..1.0, 3),
        chains in 1u8..4,
        branch_mpki in 0.0f64..10.0,
        base_ipc in 0.1f64..3.5,
        lat_lo in 1u64..300,
        lat_spread in 0u64..300,
        reject_p in 0.0f64..0.3,
    ) {
        let total: f64 = mix.iter().sum::<f64>().max(1.0);
        let p = SpecProfile {
            spec_id: 999,
            name: "prop",
            working_set: 4 << 20,
            mem_fraction: mem,
            write_fraction: writes,
            stream_fraction: mix[0] / total,
            stride_fraction: mix[1] / total,
            chase_fraction: mix[2] / total,
            stride_bytes: 256,
            hot_fraction: 0.8,
            chase_chains: chains,
            branch_mpki,
            base_ipc,
        };
        p.validate();
        lockstep(p, seed, lat_lo, lat_spread, reject_p)?;
    }
}
