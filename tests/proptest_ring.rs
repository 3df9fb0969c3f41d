//! Property tests on the ring interconnect: delivery conservation,
//! delivery order, latency bounds, and injection fairness.

use gat::ring::{Ring, RingTopology, StopId};
use gat::sim::faults::DelayInjector;
use gat::sim::rng::SimRng;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every message sent is delivered exactly once, no earlier than its
    /// uncontended latency and no later than latency + queued-injection
    /// delay.
    #[test]
    fn delivery_conservation(mut msgs in prop::collection::vec((0u8..8, 0u8..8, 0u64..64), 1..200)) {
        // Real senders advance in time; injection accounting assumes
        // monotone sends per stop.
        msgs.sort_by_key(|&(_, _, when)| when);
        let topo = RingTopology::table_one();
        let mut ring = Ring::new(topo);
        let mut expected = Vec::new();
        for (i, &(src, dst, when)) in msgs.iter().enumerate() {
            let t = ring.send(when, StopId(src), StopId(dst), i as u64);
            let min = when + topo.latency(StopId(src), StopId(dst));
            prop_assert!(t >= min, "early delivery {t} < {min}");
            // Injection can defer by at most the number of same-stop sends.
            prop_assert!(t <= min + msgs.len() as u64, "late delivery");
            expected.push(i as u64);
        }
        let mut got = Vec::new();
        ring.drain_delivered(u64::MAX / 2, &mut got);
        got.sort_unstable();
        prop_assert_eq!(got, expected);
        prop_assert!(ring.idle());
    }

    /// Sending and draining one cycle at a time, every token drains at
    /// exactly the cycle `send` returned, and tokens come out in
    /// ascending (that cycle, send order). Same-stop sends are due at
    /// once; replay delays of 300 cycles and more land far past every
    /// uncontended delivery.
    #[test]
    fn delivery_order_is_cycle_then_send_order(
        steps in prop::collection::vec(prop::collection::vec((0u8..8, 0u8..8), 0..4), 1..200),
        p in prop::sample::select(vec![0.0, 0.3, 1.0]),
        base in prop::sample::select(vec![1u64, 40, 300]),
        seed in any::<u64>(),
    ) {
        let mut ring = Ring::new(RingTopology::table_one());
        ring.set_fault_injector(DelayInjector::new(p, base, 3, SimRng::new(seed).fork("ring")));
        let mut due = Vec::new(); // indexed by token = send order
        let mut got = Vec::new(); // (token, drain cycle)
        let mut out = Vec::new();
        let mut now = 0u64;
        for sends in &steps {
            for &(src, dst) in sends {
                let token = due.len() as u64;
                due.push(ring.send(now, StopId(src), StopId(dst), token));
            }
            ring.drain_delivered(now, &mut out);
            got.extend(out.drain(..).map(|t| (t, now)));
            now += 1;
        }
        while !ring.idle() {
            ring.drain_delivered(now, &mut out);
            got.extend(out.drain(..).map(|t| (t, now)));
            now += 1;
            prop_assert!(now < 1_000_000, "ring never drained");
        }
        prop_assert_eq!(got.len(), due.len());
        for &(t, at) in &got {
            prop_assert_eq!(due[t as usize], at, "token {} drained at the wrong cycle", t);
        }
        let keys: Vec<(u64, u64)> = got.iter().map(|&(t, _)| (due[t as usize], t)).collect();
        prop_assert!(keys.windows(2).all(|w| w[0] < w[1]), "out of (cycle, send) order: {:?}", keys);
    }

    /// Hop counts are symmetric and bounded by the ring diameter.
    #[test]
    fn hops_symmetric_and_bounded(a in 0u8..8, b in 0u8..8) {
        let topo = RingTopology::table_one();
        let h1 = topo.hops(StopId(a), StopId(b));
        let h2 = topo.hops(StopId(b), StopId(a));
        prop_assert_eq!(h1, h2);
        prop_assert!(h1 <= 4, "diameter of an 8-stop ring is 4");
        if a == b {
            prop_assert_eq!(h1, 0);
        }
    }

    /// A wide stop is never slower than a narrow one for the same traffic.
    #[test]
    fn wider_ports_never_hurt(n in 1usize..40) {
        let topo = RingTopology::table_one();
        let mut narrow = Ring::new(topo);
        let mut wide = Ring::new(topo);
        wide.set_stop_width(StopId(5), 4);
        let mut worst_narrow = 0;
        let mut worst_wide = 0;
        for i in 0..n as u64 {
            worst_narrow = worst_narrow.max(narrow.send(0, StopId(5), StopId(6), i));
            worst_wide = worst_wide.max(wide.send(0, StopId(5), StopId(6), i));
        }
        prop_assert!(worst_wide <= worst_narrow);
    }
}
