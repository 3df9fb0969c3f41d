//! Rule R8 (no per-tick heap allocation, DESIGN.md §10) as a run-time
//! check. A counting global allocator counts this thread's allocations
//! while a benchmark-sized machine (scale 512, 25k instructions, one
//! frame) steps a window of cycles after a warm-up. Every shipped
//! scheduler, QoS mode and LLC fill policy is covered, plus the machine
//! variants and the CPU-only and GPU-only jobs.
//!
//! The bound is small, not zero. What survives in the counted window is
//! `Vec`s growing to their high-water marks: the DRAM bank queues that
//! `Uncore::send_to_dram` pushes into, and the completion and event
//! buffers. Add about two per GPU frame (`next_frame` and `rtp_tracks`).
//! A fresh allocation on any per-cycle path costs thousands per window.
//!
//! `unsafe impl GlobalAlloc` makes this file the workspace's one
//! `unsafe_code` exception (see `[workspace.lints.rust]` in Cargo.toml).

#![allow(unsafe_code)]

use gat_hetero::HeteroSystem;
use gat_serve::JobSpec;
use gat_workloads::mix_m;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations made by this thread. Each test runs on its own libtest
    /// thread, so the harness and concurrent tests stay out of the count.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// The default `alloc_zeroed` and `realloc` go through `alloc`, so every
// allocation and every `Vec` growth is counted once.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Cycles stepped before counting, and cycles counted.
const WARM: u64 = 300_000;
const WINDOW: u64 = 300_000;
/// Allocations allowed per counted window (see the module doc).
const MAX_ALLOCS: u64 = 64;

/// The benchmark's job size on mix M7 (DOOM3 + four SPEC apps).
fn m7() -> JobSpec {
    let mix = mix_m(7);
    let mut spec = JobSpec::base("m7");
    spec.game = Some(mix.game.name.to_string());
    spec.cpus = mix.cpu.iter().map(|p| p.spec_id).collect();
    spec.scale = 512;
    spec.instr = 25_000;
    spec.frames = 1;
    spec.warmup = 300_000;
    spec
}

/// Allocations made while `spec`'s machine steps [`WINDOW`] cycles
/// after [`WARM`] cycles of warm-up.
fn window_allocs(spec: &JobSpec) -> u64 {
    assert!(
        !gat_sim::knobs::paranoia(),
        "unset GAT_PARANOIA: its per-tick invariant sweep allocates by design"
    );
    let job = spec
        .resolve()
        .unwrap_or_else(|e| panic!("{}: {}", spec.id, e.detail));
    let mut sys = HeteroSystem::new(job.cfg, &job.apps, job.game);
    let mut step = |cycles: u64| {
        for _ in 0..cycles {
            sys.step().unwrap_or_else(|e| panic!("{}: {e}", spec.id));
        }
    };
    step(WARM);
    let before = ALLOCS.with(Cell::get);
    step(WINDOW);
    ALLOCS.with(Cell::get) - before
}

/// Assert every variant of M7 that `edit` makes of `names` stays within
/// budget.
fn check(names: &[&str], edit: fn(&mut JobSpec, &str)) {
    let mut over = String::new();
    for &name in names {
        let mut spec = m7();
        edit(&mut spec, name);
        let n = window_allocs(&spec);
        if n > MAX_ALLOCS {
            over += &format!("\n{name}: {n} allocations");
        }
    }
    assert!(
        over.is_empty(),
        "per-tick heap allocation: over {MAX_ALLOCS} in {WINDOW} cycles:{over}"
    );
}

#[test]
fn schedulers_tick_without_allocating() {
    let scheds = ["frfcfs", "cpuprio", "sms09", "sms0", "dynprio", "static"];
    check(&scheds, |s, v| s.sched = v.into());
}

#[test]
fn qos_modes_tick_without_allocating() {
    // `off` is the scheduler test's `frfcfs` job.
    let modes = ["observe", "throttle", "full", "prioonly"];
    check(&modes, |s, v| s.qos = v.into());
}

#[test]
fn fills_tick_without_allocating() {
    // `base` is the scheduler test's `frfcfs` job.
    check(&["bypass", "helm"], |s, v| s.fill = v.into());
}

#[test]
fn machine_variants_tick_without_allocating() {
    let variants = [
        "channels", "gpu_ways", "lru", "faults", "cpu_only", "gpu_only",
    ];
    check(&variants, |s, v| match v {
        "channels" => s.partition_channels = true,
        "gpu_ways" => s.gpu_ways = Some(4),
        "lru" => s.llc_lru = true,
        "faults" => {
            s.faults =
                "dram.bounce=0.01,ring.drop=0.01,gpu.stall.period=9000,gpu.stall.len=900".into()
        }
        "cpu_only" => s.game = None,
        "gpu_only" => s.cpus.clear(),
        other => unreachable!("{other}"),
    });
}
