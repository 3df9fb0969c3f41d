//! `gat-ring` — the bidirectional ring interconnect of Table I.
//!
//! The CPU cores (through their L2s), the GPU, the shared LLC and the two
//! memory controllers sit on a bidirectional ring with a single-cycle hop
//! time. Messages travel the shorter direction; each link moves one
//! message per cycle per direction, and contention shows up as queueing at
//! injection.
//!
//! The model is intentionally lean: the paper's results are driven by LLC
//! and DRAM behaviour, with the ring contributing a small, mostly constant
//! latency. We model exact hop latencies and per-direction link occupancy
//! (so heavy GPU fill traffic does add cycles), but not flit-level
//! wormhole detail.

#![warn(clippy::disallowed_types, clippy::disallowed_methods)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![warn(clippy::wildcard_enum_match_arm)]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

use gat_sim::{faults::DelayInjector, stats::Counter, Cycle};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A stop (agent attachment point) on the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StopId(pub u8);

/// Static ring topology: `n` stops, `hop_cycles` per hop.
#[derive(Debug, Clone, Copy)]
pub struct RingTopology {
    pub stops: u8,
    pub hop_cycles: u32,
}

impl RingTopology {
    /// The simulated machine's ring: 4 CPU stops, 1 GPU stop, 1 LLC stop,
    /// 2 memory-controller stops, single-cycle hops (Table I).
    pub const fn table_one() -> Self {
        Self {
            stops: 8,
            hop_cycles: 1,
        }
    }

    /// Hop count in the shorter direction.
    pub fn hops(&self, a: StopId, b: StopId) -> u32 {
        assert!(a.0 < self.stops && b.0 < self.stops, "stop out of range");
        let n = u32::from(self.stops);
        let d = u32::from(a.0.abs_diff(b.0));
        d.min(n - d)
    }

    /// Uncontended latency in cycles between two stops.
    pub fn latency(&self, a: StopId, b: StopId) -> Cycle {
        Cycle::from(self.hops(a, b) * self.hop_cycles)
    }

    /// Direction (+1 clockwise, -1 counter-clockwise, 0 same stop) of the
    /// shorter path from `a` to `b`; ties go clockwise.
    pub fn direction(&self, a: StopId, b: StopId) -> i8 {
        if a == b {
            return 0;
        }
        let n = i32::from(self.stops);
        let fwd = (i32::from(b.0) - i32::from(a.0)).rem_euclid(n);
        if fwd <= n - fwd {
            1
        } else {
            -1
        }
    }
}

/// An in-flight message `(deliver_at, seq, token)`, min-ordered through
/// the [`Reverse`] wrapper — the sequence tie-break fixes delivery order
/// for same-cycle arrivals.
type Flight = Reverse<(Cycle, u64, u64)>;

/// A ring instance that transports opaque tokens with hop latency plus
/// injection serialization per (stop, direction).
///
/// Stops default to one injection per cycle per direction; a banked agent
/// (the multi-bank LLC) can be given a wider port with
/// [`Ring::set_stop_width`].
///
/// ```
/// use gat_ring::{Ring, RingTopology, StopId};
///
/// let mut ring = Ring::new(RingTopology::table_one());
/// // Core 0 → LLC (stop 5): 3 hops on an 8-stop ring.
/// let arrives = ring.send(100, StopId(0), StopId(5), 42);
/// assert_eq!(arrives, 103);
/// let mut out = Vec::new();
/// ring.drain_delivered(103, &mut out);
/// assert_eq!(out, vec![42]);
/// ```
#[derive(Debug)]
pub struct Ring {
    topo: RingTopology,
    /// Next free injection slot per (stop, direction∈{0:cw,1:ccw}),
    /// in units of 1/width cycles (fixed-point per stop).
    inject_free: Vec<[Cycle; 2]>,
    /// Injections permitted per cycle per direction, per stop.
    widths: Vec<u32>,
    /// Messages in flight, popped in `(deliver_at, seq)` order
    /// (DESIGN.md §11). The heap keeps its storage across the run.
    in_flight: BinaryHeap<Flight>,
    seq: u64,
    /// Optional chaos injector: a dropped message is replayed after a NACK
    /// round-trip, which we model as an added delivery delay.
    fault: Option<DelayInjector>,
    pub sent: Counter,
    pub delivered: Counter,
    /// Total queueing cycles spent waiting for injection slots.
    pub inject_wait: Counter,
}

impl Ring {
    pub fn new(topo: RingTopology) -> Self {
        Self {
            topo,
            inject_free: vec![[0, 0]; usize::from(topo.stops)],
            widths: vec![1; usize::from(topo.stops)],
            in_flight: BinaryHeap::new(),
            seq: 0,
            fault: None,
            sent: Counter::new(),
            delivered: Counter::new(),
            inject_wait: Counter::new(),
        }
    }

    /// Give `stop` a wider injection port (`width` messages per cycle per
    /// direction) — used for the banked LLC stop.
    pub fn set_stop_width(&mut self, stop: StopId, width: u32) {
        assert!(width >= 1);
        self.widths[usize::from(stop.0)] = width;
    }

    pub fn topology(&self) -> RingTopology {
        self.topo
    }

    /// Install a chaos injector: each send is dropped with the injector's
    /// probability and replayed after its delay (NACK + retransmit).
    pub fn set_fault_injector(&mut self, inj: DelayInjector) {
        self.fault = Some(inj);
    }

    /// Messages dropped-and-replayed by the chaos injector so far.
    pub fn faults_injected(&self) -> u64 {
        self.fault.as_ref().map_or(0, |f| f.injected)
    }

    /// Send `token` from `src` to `dst` at time `now`; returns the delivery
    /// time. Up to the stop's width messages per cycle may inject at each
    /// (stop, direction); later messages queue.
    pub fn send(&mut self, now: Cycle, src: StopId, dst: StopId, token: u64) -> Cycle {
        let dir = self.topo.direction(src, dst);
        let lane = usize::from(dir < 0);
        let width = Cycle::from(self.widths[usize::from(src.0)]);
        // Fixed-point slots: `width` sub-slots per cycle.
        let slot = &mut self.inject_free[usize::from(src.0)][lane];
        let start_fp = (now * width).max(*slot);
        *slot = start_fp + 1;
        let start = start_fp / width;
        self.inject_wait.add(start - now);
        let mut deliver_at = start + self.topo.latency(src, dst);
        if let Some(inj) = self.fault.as_mut() {
            // A drop surfaces as a NACK + replay: the message still arrives,
            // just later. Link/injection bookkeeping stays physical.
            deliver_at += inj.delay();
        }
        self.seq += 1;
        self.in_flight.push(Reverse((deliver_at, self.seq, token)));
        self.sent.inc();
        deliver_at
    }

    /// Pop every message due at or before `now`, in delivery order
    /// (`(deliver_at, seq)`-ascending). A message sent for a cycle that
    /// was already drained (a same-stop send) goes out on the next drain.
    pub fn drain_delivered(&mut self, now: Cycle, out: &mut Vec<u64>) {
        while let Some(&Reverse((at, _, token))) = self.in_flight.peek() {
            if at > now {
                break;
            }
            self.in_flight.pop();
            out.push(token);
            self.delivered.inc();
        }
    }

    pub fn idle(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// Current injection width of a stop.
    pub fn stop_width(&self, stop: StopId) -> u32 {
        self.widths[usize::from(stop.0)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOPO: RingTopology = RingTopology::table_one();

    #[test]
    fn hop_counts_take_shorter_direction() {
        assert_eq!(TOPO.hops(StopId(0), StopId(1)), 1);
        assert_eq!(TOPO.hops(StopId(0), StopId(7)), 1, "wraps around");
        assert_eq!(TOPO.hops(StopId(0), StopId(4)), 4, "diameter");
        assert_eq!(TOPO.hops(StopId(2), StopId(2)), 0);
        assert_eq!(TOPO.hops(StopId(1), StopId(6)), 3);
    }

    #[test]
    fn latency_is_hops_times_hop_cycles() {
        let t = RingTopology {
            stops: 8,
            hop_cycles: 2,
        };
        assert_eq!(t.latency(StopId(0), StopId(3)), 6);
    }

    #[test]
    fn direction_is_shorter_way() {
        assert_eq!(TOPO.direction(StopId(0), StopId(1)), 1);
        assert_eq!(TOPO.direction(StopId(0), StopId(7)), -1);
        assert_eq!(TOPO.direction(StopId(3), StopId(3)), 0);
    }

    #[test]
    fn message_arrives_after_latency() {
        let mut r = Ring::new(TOPO);
        let t = r.send(100, StopId(0), StopId(3), 42);
        assert_eq!(t, 103);
        let mut out = Vec::new();
        r.drain_delivered(102, &mut out);
        assert!(out.is_empty());
        r.drain_delivered(103, &mut out);
        assert_eq!(out, vec![42]);
        assert!(r.idle());
    }

    #[test]
    fn same_stop_delivery_is_immediate() {
        let mut r = Ring::new(TOPO);
        assert_eq!(r.send(5, StopId(2), StopId(2), 1), 5);
    }

    #[test]
    fn injection_serializes_per_stop_and_direction() {
        let mut r = Ring::new(TOPO);
        // Three same-cycle messages clockwise from stop 0: injections at
        // cycles 0,1,2.
        let t1 = r.send(0, StopId(0), StopId(2), 1);
        let t2 = r.send(0, StopId(0), StopId(2), 2);
        let t3 = r.send(0, StopId(0), StopId(2), 3);
        assert_eq!((t1, t2, t3), (2, 3, 4));
        assert_eq!(r.inject_wait.get(), 3);
        // The counter-clockwise lane is independent.
        let t4 = r.send(0, StopId(0), StopId(7), 4);
        assert_eq!(t4, 1);
    }

    #[test]
    fn drain_is_in_delivery_order() {
        let mut r = Ring::new(TOPO);
        r.send(0, StopId(0), StopId(4), 10); // arrives 4
        r.send(0, StopId(1), StopId(2), 20); // arrives 1
        r.send(0, StopId(6), StopId(5), 30); // arrives 1 (different stop)
        let mut out = Vec::new();
        r.drain_delivered(10, &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[2], 10, "longest path arrives last");
    }

    #[test]
    fn wide_stop_injects_multiple_per_cycle() {
        let mut r = Ring::new(TOPO);
        r.set_stop_width(StopId(5), 4);
        assert_eq!(r.stop_width(StopId(5)), 4);
        // Four same-cycle messages all inject at cycle 0.
        let ts: Vec<Cycle> = (0..4).map(|i| r.send(0, StopId(5), StopId(6), i)).collect();
        assert!(ts.iter().all(|&t| t == 1), "all inject at cycle 0: {ts:?}");
        // The fifth slips to the next cycle.
        assert_eq!(r.send(0, StopId(5), StopId(6), 9), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_stop_panics() {
        let _ = TOPO.hops(StopId(8), StopId(0));
    }

    #[test]
    fn long_idle_gap_then_delivery() {
        let mut r = Ring::new(TOPO);
        r.send(0, StopId(0), StopId(2), 1); // arrives 2
        let mut out = Vec::new();
        r.drain_delivered(10, &mut out);
        assert_eq!(out, vec![1]);
        out.clear();
        // A send far past the last drained cycle: the drain must not
        // release it early and must deliver it once its cycle comes.
        let t = r.send(1_000_000, StopId(0), StopId(3), 2);
        assert_eq!(t, 1_000_003);
        r.drain_delivered(t - 1, &mut out);
        assert!(out.is_empty());
        r.drain_delivered(t, &mut out);
        assert_eq!(out, vec![2]);
        assert!(r.idle());
    }

    #[test]
    fn beyond_horizon_spill_keeps_delivery_order() {
        use gat_sim::rng::SimRng;
        let mut r = Ring::new(TOPO);
        // Chaos delay of 400 pushes the first message more than 256
        // cycles out, well past every uncontended delivery.
        r.set_fault_injector(DelayInjector::new(1.0, 400, 1, SimRng::new(1).fork("ring")));
        let far = r.send(0, StopId(0), StopId(1), 10);
        assert!(far >= 256, "test must send a long-delayed message");
        r.fault = None;
        // A same-cycle near delivery and the delayed one must both come
        // out, ordered by (deliver_at, seq).
        let near = r.send(0, StopId(0), StopId(2), 20);
        assert!(near < far);
        let mut out = Vec::new();
        r.drain_delivered(far, &mut out);
        assert_eq!(out, vec![20, 10]);
        assert!(r.idle());
        // Same delivery cycle, long-delayed message sent first.
        r.set_fault_injector(DelayInjector::new(1.0, 400, 1, SimRng::new(1).fork("ring")));
        let a = r.send(far, StopId(0), StopId(1), 30); // delayed, seq first
        r.fault = None;
        let b = r.send(a - 1, StopId(0), StopId(1), 40); // near, arrives a
        assert_eq!(a, b);
        out.clear();
        r.drain_delivered(a, &mut out);
        assert_eq!(out, vec![30, 40], "same-cycle delayed send must win by seq");
    }

    #[test]
    fn past_due_same_stop_send_arrives_next_drain() {
        let mut r = Ring::new(TOPO);
        let mut out = Vec::new();
        r.send(0, StopId(0), StopId(1), 1);
        r.drain_delivered(5, &mut out);
        out.clear();
        // Same-stop message dated at an already-drained cycle: delivered
        // on the next drain even of the same cycle.
        let t = r.send(5, StopId(2), StopId(2), 7);
        assert_eq!(t, 5);
        r.drain_delivered(5, &mut out);
        assert_eq!(out, vec![7]);
        assert!(r.idle());
    }

    #[test]
    fn fault_injector_replays_deterministically() {
        use gat_sim::rng::SimRng;
        let run = || {
            let mut r = Ring::new(TOPO);
            // p=1, base=16, retries=1 → every message is delayed exactly 16.
            r.set_fault_injector(DelayInjector::new(1.0, 16, 1, SimRng::new(3).fork("ring")));
            (0..8)
                .map(|i| r.send(i, StopId(0), StopId(3), i))
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run(), "same seed, same replays");
        let mut clean = Ring::new(TOPO);
        for (i, &t) in a.iter().enumerate() {
            let base = clean.send(i as Cycle, StopId(0), StopId(3), i as u64);
            assert_eq!(t, base + 16, "replay adds exactly the NACK delay");
        }
    }

    #[test]
    fn fault_delay_postpones_delivery() {
        use gat_sim::rng::SimRng;
        let mut r = Ring::new(TOPO);
        r.set_fault_injector(DelayInjector::new(1.0, 50, 1, SimRng::new(3).fork("ring")));
        let t = r.send(0, StopId(0), StopId(1), 7);
        assert_eq!(t, 51, "one hop plus the replay delay");
        assert_eq!(r.faults_injected(), 1);
        let mut out = Vec::new();
        r.drain_delivered(t - 1, &mut out);
        assert!(out.is_empty(), "not delivered before the replayed time");
        r.drain_delivered(t, &mut out);
        assert_eq!(out, vec![7]);
    }
}
