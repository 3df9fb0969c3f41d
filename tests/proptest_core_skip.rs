//! Core-level reference test for per-core inert-tick skipping (DESIGN.md
//! §8). The plain `Core::tick` is the reference: whenever
//! `Core::next_wake(now)` certifies a finite wake `w`, ticking the core
//! through `[now, w)` must be inert — every tick returns `false` and no
//! request reaches the port — and must leave the same counters and
//! dispatch credit as `Core::fast_forward(now, w)` on an identical core.
//!
//! Two cores built from the same profile and seed run in lockstep on the
//! same response stream. At a certified span the reference ticks through
//! it while the other core fast-forwards; responses due inside the span
//! are held until its end, which is just another response timing.

use gat::cache::SinkPort;
use gat::cpu::{Core, CoreConfig, CpuHierarchy, HierarchyConfig, SpecProfile, StreamGen};
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
fn replayed_state(c: &Core) -> (u64, u64, u64, u64, u64) {
    (
        c.cycles.get(),
        c.commit_stall_cycles.get(),
        c.retired.get(),
        c.branch_mispredicts.get(),
        c.dispatch_credit().to_bits(),
    )
}

/// Run a reference core and a skipping core in lockstep for [`CYCLES`],
/// checking every certified span; returns how many spans were checked.
fn lockstep(
    p: SpecProfile,
    seed: u64,
    lat_lo: u64,
    lat_spread: u64,
    reject_p: f64,
) -> Result<u32, String> {
    let mut reference = core(p, seed);
    let mut skipper = core(p, seed);
    let (mut ref_port, mut skip_port) = (SinkPort::default(), SinkPort::default());
    let mut timing = SimRng::new(seed ^ 0x5eed);
    let mut inflight: Vec<(u64, u64)> = Vec::new();
    let mut now = 0u64;
    let mut spans = 0u32;
    while now < CYCLES {
        inflight.sort_unstable();
        let due = inflight.partition_point(|&(t, _)| t <= now);
        for (_, tok) in inflight.drain(..due) {
            reference.on_mem_response(now, tok, &mut ref_port);
            skipper.on_mem_response(now, tok, &mut skip_port);
        }
        if let Some(w) = skipper.next_wake(now).filter(|&w| w != u64::MAX) {
            prop_assert!(w > now, "wake {w} not after {now}");
            ref_port.reject_all = false;
            for t in now..w {
                prop_assert!(
                    !reference.tick(t, &mut ref_port),
                    "tick at {t} in certified span [{now}, {w}) did work"
                );
                prop_assert!(ref_port.accepted.is_empty(), "request in span at {t}");
            }
            skipper.fast_forward(now, w);
            prop_assert_eq!(replayed_state(&reference), replayed_state(&skipper));
            spans += 1;
            now = w;
            continue;
        }
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
    assert!(spans > 100, "only {spans} certified spans");
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
