//! Hierarchically keyed metrics registry.
//!
//! Components register named [`Counter`]/[`RunningStat`]/[`Log2Histogram`]
//! handles under dot-separated keys (`llc.cpu_misses`, `dram.ch0.row_hits`,
//! `frpu.relearn_events`) and get back a cheap integer id. The registry can
//! be snapshotted at any cycle; a snapshot is an ordered list of
//! `(key, value)` pairs — ordering comes from a `BTreeMap` index, so two
//! snapshots of registries built in any registration order serialize to
//! byte-identical JSON.
//!
//! The registry does not own the simulator's hot-loop counters (those stay
//! embedded in their components for cache locality); instead components
//! either update registry handles directly on slow paths, or sync their
//! internal stats into the registry right before a snapshot is taken (see
//! `HeteroSystem::sync_registry` in `gat-hetero`).

use crate::json::Obj;
use crate::stats::{Counter, Log2Histogram, RunningStat};
use crate::Cycle;
use std::collections::BTreeMap;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered running statistic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatId(usize);

/// Handle to a registered log2 histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(usize);

#[derive(Debug, Clone, Copy)]
enum Slot {
    Counter(usize),
    Stat(usize),
    Hist(usize),
}

/// Registry of named metrics; see the module docs.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Vec<Counter>,
    stats: Vec<RunningStat>,
    hists: Vec<Log2Histogram>,
    index: BTreeMap<String, Slot>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or re-open) a counter under `key`.
    ///
    /// Registering the same key twice returns the same handle, so two
    /// components can share a metric; a key collision across *kinds*
    /// (counter vs stat vs histogram) is a wiring bug and panics.
    pub fn counter(&mut self, key: &str) -> CounterId {
        if let Some(slot) = self.index.get(key) {
            let Slot::Counter(i) = *slot else {
                panic!("metric key {key:?} already registered with a different kind");
            };
            return CounterId(i);
        }
        let i = self.counters.len();
        self.counters.push(Counter::new());
        self.index.insert(key.to_string(), Slot::Counter(i));
        CounterId(i)
    }

    /// Register (or re-open) a running statistic under `key`.
    pub fn stat(&mut self, key: &str) -> StatId {
        if let Some(slot) = self.index.get(key) {
            let Slot::Stat(i) = *slot else {
                panic!("metric key {key:?} already registered with a different kind");
            };
            return StatId(i);
        }
        let i = self.stats.len();
        self.stats.push(RunningStat::new());
        self.index.insert(key.to_string(), Slot::Stat(i));
        StatId(i)
    }

    /// Register (or re-open) a log2 histogram under `key`.
    pub fn hist(&mut self, key: &str) -> HistId {
        if let Some(slot) = self.index.get(key) {
            let Slot::Hist(i) = *slot else {
                panic!("metric key {key:?} already registered with a different kind");
            };
            return HistId(i);
        }
        let i = self.hists.len();
        self.hists.push(Log2Histogram::new());
        self.index.insert(key.to_string(), Slot::Hist(i));
        HistId(i)
    }

    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0].inc();
    }

    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].add(n);
    }

    /// Overwrite a counter with an externally maintained total (used when a
    /// component keeps its own hot counter and syncs before snapshots).
    #[inline]
    pub fn set_counter(&mut self, id: CounterId, v: u64) {
        self.counters[id.0] = Counter::new_with(v);
    }

    #[inline]
    pub fn push(&mut self, id: StatId, x: f64) {
        self.stats[id.0].push(x);
    }

    /// Replace a running stat wholesale (sync-before-snapshot path).
    #[inline]
    pub fn set_stat(&mut self, id: StatId, s: RunningStat) {
        self.stats[id.0] = s;
    }

    #[inline]
    pub fn record(&mut self, id: HistId, v: u64) {
        self.hists[id.0].record(v);
    }

    /// Replace a histogram wholesale (sync-before-snapshot path).
    #[inline]
    pub fn set_hist(&mut self, id: HistId, h: Log2Histogram) {
        self.hists[id.0] = h;
    }

    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].get()
    }

    /// Number of registered metrics across all kinds.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Capture every metric at `cycle`, in key order.
    pub fn snapshot(&self, cycle: Cycle) -> RegistrySnapshot {
        let entries = self
            .index
            .iter()
            .map(|(key, slot)| {
                let value = match *slot {
                    Slot::Counter(i) => MetricValue::Count(self.counters[i].get()),
                    Slot::Stat(i) => {
                        let s = &self.stats[i];
                        MetricValue::Stat {
                            count: s.count(),
                            mean: s.mean(),
                            stddev: s.stddev(),
                            min: s.min(),
                            max: s.max(),
                        }
                    }
                    Slot::Hist(i) => {
                        let h = &self.hists[i];
                        MetricValue::Hist {
                            total: h.total(),
                            p50_ub: h.quantile_upper_bound(0.5),
                            p95_ub: h.quantile_upper_bound(0.95),
                            p99_ub: h.quantile_upper_bound(0.99),
                        }
                    }
                };
                (key.clone(), value)
            })
            .collect();
        RegistrySnapshot { cycle, entries }
    }
}

/// One captured metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Count(u64),
    Stat {
        count: u64,
        mean: f64,
        stddev: f64,
        min: f64,
        max: f64,
    },
    Hist {
        total: u64,
        p50_ub: u64,
        p95_ub: u64,
        p99_ub: u64,
    },
}

impl MetricValue {
    fn to_json(&self) -> String {
        match self {
            MetricValue::Count(v) => format!("{v}"),
            MetricValue::Stat {
                count,
                mean,
                stddev,
                min,
                max,
            } => Obj::new()
                .u64("count", *count)
                .f64("mean", *mean)
                .f64("stddev", *stddev)
                .f64("min", *min)
                .f64("max", *max)
                .finish(),
            MetricValue::Hist {
                total,
                p50_ub,
                p95_ub,
                p99_ub,
            } => Obj::new()
                .u64("total", *total)
                .u64("p50_ub", *p50_ub)
                .u64("p95_ub", *p95_ub)
                .u64("p99_ub", *p99_ub)
                .finish(),
        }
    }
}

/// Point-in-time capture of a [`MetricsRegistry`], ordered by key.
#[derive(Debug, Clone, PartialEq)]
pub struct RegistrySnapshot {
    pub cycle: Cycle,
    pub entries: Vec<(String, MetricValue)>,
}

impl RegistrySnapshot {
    /// Render as one JSONL line:
    /// `{"type":"registry_snapshot","cycle":N,"metrics":{...}}`.
    pub fn to_json(&self) -> String {
        let mut metrics = Obj::new();
        for (key, value) in &self.entries {
            metrics = metrics.raw(key, &value.to_json());
        }
        Obj::new()
            .str("type", "registry_snapshot")
            .u64("cycle", self.cycle)
            .raw("metrics", &metrics.finish())
            .finish()
    }

    /// Look up a captured value by key.
    pub fn get(&self, key: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Keys only, for quick membership assertions in tests.
    pub fn keys(&self) -> Vec<&str> {
        self.entries.iter().map(|(k, _)| k.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_update_snapshot_roundtrip() {
        let mut reg = MetricsRegistry::new();
        let hits = reg.counter("llc.cpu_hits");
        let lat = reg.stat("dram.ch0.read_latency");
        let hist = reg.hist("dram.ch0.read_latency_hist");
        reg.add(hits, 7);
        reg.inc(hits);
        reg.push(lat, 100.0);
        reg.push(lat, 300.0);
        reg.record(hist, 128);
        let snap = reg.snapshot(4096);
        assert_eq!(snap.cycle, 4096);
        assert_eq!(snap.get("llc.cpu_hits"), Some(&MetricValue::Count(8)));
        match snap.get("dram.ch0.read_latency") {
            Some(MetricValue::Stat { count, mean, .. }) => {
                assert_eq!(*count, 2);
                assert!((mean - 200.0).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
        let line = snap.to_json();
        crate::json::validate_json_line(&line).unwrap();
        assert!(line.contains("\"type\":\"registry_snapshot\""));
        assert!(line.contains("\"cycle\":4096"));
        assert!(line.contains("\"llc.cpu_hits\":8"));
    }

    #[test]
    fn snapshot_order_is_registration_order_independent() {
        let mut a = MetricsRegistry::new();
        a.counter("z.last");
        a.counter("a.first");
        a.counter("m.middle");
        let mut b = MetricsRegistry::new();
        b.counter("m.middle");
        b.counter("a.first");
        b.counter("z.last");
        assert_eq!(a.snapshot(0).to_json(), b.snapshot(0).to_json());
        let keys: Vec<_> = a
            .snapshot(0)
            .entries
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        assert_eq!(keys, ["a.first", "m.middle", "z.last"]);
    }

    #[test]
    fn duplicate_key_same_kind_shares_handle() {
        let mut reg = MetricsRegistry::new();
        let first = reg.counter("shared.total");
        let second = reg.counter("shared.total");
        assert_eq!(first, second);
        reg.inc(first);
        reg.inc(second);
        assert_eq!(reg.counter_value(first), 2);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn duplicate_key_cross_kind_panics() {
        let mut reg = MetricsRegistry::new();
        reg.counter("bad.key");
        reg.stat("bad.key");
    }

    #[test]
    fn set_paths_overwrite_for_sync_before_snapshot() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("ext.total");
        reg.set_counter(c, 41);
        reg.inc(c);
        assert_eq!(reg.counter_value(c), 42);
        let s = reg.stat("ext.stat");
        let mut external = RunningStat::new();
        external.push(9.0);
        reg.set_stat(s, external);
        match reg.snapshot(1).get("ext.stat") {
            Some(MetricValue::Stat { count: 1, .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
