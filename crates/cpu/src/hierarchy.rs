//! Per-core private cache hierarchy: L1D + unified L2 (Table I), with
//! MSHRs, a write-back buffer, and back-invalidation from the inclusive
//! LLC.
//!
//! Timing contract: a hit returns its total load-to-use latency; a miss
//! allocates an MSHR and goes to the [`MemPort`] (the uncore). The
//! hierarchy is the unit that enforces the core's memory-level-parallelism
//! bound — when its MSHRs are full the core cannot start new misses, which
//! is how DRAM queueing delay turns into lost IPC.

use gat_cache::{
    AccessKind, BlockReq, CacheConfig, MemPort, MshrFile, MshrOutcome, ReplacementPolicy,
    SetAssocCache, Source,
};
use gat_sim::addr::line_of;
use gat_sim::hashing::FastMap;
use gat_sim::stats::Counter;
use gat_sim::Cycle;

/// Geometry/latency knobs; defaults are Table I.
#[derive(Debug, Clone)]
pub struct HierarchyConfig {
    pub l1_bytes: u64,
    pub l1_ways: u32,
    /// L1 load-to-use latency (cycles).
    pub l1_latency: u32,
    pub l2_bytes: u64,
    pub l2_ways: u32,
    /// Additional L2 lookup latency on an L1 miss.
    pub l2_latency: u32,
    /// Outstanding L2 miss blocks (MLP bound).
    pub mshrs: usize,
    /// Waiters per MSHR entry.
    pub mshr_waiters: usize,
    /// Maximum run-ahead depth (in blocks) of the L2 stream prefetcher
    /// (0 disables it). Real cores rely on stream prefetchers; without
    /// one the synthetic streamers would expose full memory latency on
    /// every new block.
    pub prefetch_degree: u64,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self {
            l1_bytes: 32 << 10,
            l1_ways: 8,
            l1_latency: 2,
            l2_bytes: 256 << 10,
            l2_ways: 8,
            l2_latency: 3,
            mshrs: 32,
            mshr_waiters: 8,
            prefetch_degree: 24,
        }
    }
}

/// Result of presenting a load to the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadOutcome {
    /// Data available after `latency` cycles.
    Hit { latency: u32 },
    /// L2 miss sent (or merged) below; completion will deliver the seq.
    Pending,
    /// Structural stall (MSHRs or downstream queue full); retry later.
    Stall,
}

/// Why the last stalled access could not start its miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// The MSHR file had no room ([`MshrOutcome::Full`]).
    Mshr,
    /// The port refused the primary miss, and the MSHR entry was rolled
    /// back.
    Port,
}

#[derive(Debug, Default)]
struct PendingBlock {
    /// A store is waiting: fill dirty.
    any_store: bool,
    /// A demand access is waiting (prefetch-only fills skip the L1).
    demand: bool,
}

/// One detected sequential stream in the prefetcher table.
#[derive(Debug, Clone, Copy, Default)]
struct StreamEntry {
    valid: bool,
    /// Block address expected next if the stream continues.
    next_expected: u64,
    /// Saturating confidence; run-ahead depth grows with it.
    confidence: u8,
    /// Highest block already prefetched for this stream.
    last_prefetched: u64,
    /// LRU stamp for victim selection.
    stamp: u64,
}

const STREAM_TABLE: usize = 8;

/// Per-core L1D + L2 with miss tracking.
pub struct CpuHierarchy {
    core_id: u8,
    cfg: HierarchyConfig,
    pub l1d: SetAssocCache,
    pub l2: SetAssocCache,
    mshr: MshrFile,
    pending: FastMap<u64, PendingBlock>,
    streams: [StreamEntry; STREAM_TABLE],
    stream_stamp: u64,
    last_block: u64,
    /// Posted write-backs that could not enter the uncore yet (FIFO).
    writeback_buf: std::collections::VecDeque<u64>,
    /// The block of the last access that stalled, and why. Only
    /// `on_response`, `back_invalidate` or an access to another block can
    /// change what a lookup of that block finds, so until one of them
    /// drops it a retry replays the failed attempt's counters instead of
    /// redoing the L1, L2 and MSHR lookups (DESIGN.md §11).
    stalled: Option<(u64, StallCause)>,
    pub loads: Counter,
    pub stores: Counter,
    pub wb_sent: Counter,
    pub prefetches: Counter,
}

/// Marker appended to MSHR waiter lists for store (write-allocate) misses;
/// real load seqs are even (`seq << 1`), stores odd.
const STORE_WAITER: u64 = 1;
/// Marker for prefetch-initiated misses (also odd, so filtered out of the
/// load-seq list on completion).
const PREFETCH_WAITER: u64 = 3;

impl CpuHierarchy {
    pub fn new(core_id: u8, cfg: HierarchyConfig) -> Self {
        let l1d = SetAssocCache::new(CacheConfig::new(
            &format!("dL1#{core_id}"),
            cfg.l1_bytes,
            cfg.l1_ways,
            cfg.l1_latency,
            ReplacementPolicy::Lru,
        ));
        let l2 = SetAssocCache::new(CacheConfig::new(
            &format!("L2#{core_id}"),
            cfg.l2_bytes,
            cfg.l2_ways,
            cfg.l2_latency,
            ReplacementPolicy::Lru,
        ));
        let mshr = MshrFile::new(cfg.mshrs, cfg.mshr_waiters);
        Self {
            core_id,
            cfg,
            l1d,
            l2,
            mshr,
            pending: FastMap::default(),
            streams: [StreamEntry::default(); STREAM_TABLE],
            stream_stamp: 0,
            last_block: u64::MAX,
            writeback_buf: std::collections::VecDeque::new(),
            stalled: None,
            loads: Counter::new(),
            stores: Counter::new(),
            wb_sent: Counter::new(),
            prefetches: Counter::new(),
        }
    }

    pub fn core_id(&self) -> u8 {
        self.core_id
    }

    fn source(&self) -> Source {
        Source::Cpu(self.core_id)
    }

    /// Can the hierarchy accept a new miss right now?
    pub fn can_miss(&self) -> bool {
        !self.mshr.is_full()
    }

    /// The cause of the memoized stall, if `addr` is in its block: a
    /// `load`/`store` of `addr` is then a retry that replays counters.
    pub(crate) fn stalled_on(&self, addr: u64) -> Option<StallCause> {
        match self.stalled {
            Some((block, cause)) if block == line_of(addr) => Some(cause),
            _ => None,
        }
    }

    /// The cause of the memoized stall, whatever its block.
    pub fn stall_cause(&self) -> Option<StallCause> {
        self.stalled.map(|(_, cause)| cause)
    }

    /// Present a load for ROB entry `seq`.
    pub fn load(&mut self, now: Cycle, addr: u64, seq: u64, port: &mut dyn MemPort) -> LoadOutcome {
        if self.stalled_on(addr).is_some() {
            return self.retry(now, seq << 1, false, port);
        }
        self.stalled = None;
        self.loads.inc();
        self.train_prefetcher(now, addr, port);
        let src = self.source();
        if self.l1d.access(addr, AccessKind::Read, src) {
            return LoadOutcome::Hit {
                latency: self.cfg.l1_latency,
            };
        }
        if self.l2.access(addr, AccessKind::Read, src) {
            // L1 refill from L2.
            self.fill_l1(addr, false, port);
            return LoadOutcome::Hit {
                latency: self.cfg.l1_latency + self.cfg.l2_latency,
            };
        }
        self.miss(now, addr, seq << 1, false, port)
    }

    /// Present a store. Stores are non-blocking: `Pending` means the miss
    /// traffic was generated but the core does not wait; `Stall` means the
    /// store could not even be accepted (MSHRs full) and dispatch must
    /// retry.
    pub fn store(&mut self, now: Cycle, addr: u64, port: &mut dyn MemPort) -> LoadOutcome {
        if self.stalled_on(addr).is_some() {
            return self.retry(now, STORE_WAITER, true, port);
        }
        self.stalled = None;
        self.stores.inc();
        self.train_prefetcher(now, addr, port);
        let src = self.source();
        if self.l1d.access(addr, AccessKind::Write, src) {
            return LoadOutcome::Hit {
                latency: self.cfg.l1_latency,
            };
        }
        if self.l2.access(addr, AccessKind::Write, src) {
            self.fill_l1(addr, true, port);
            return LoadOutcome::Hit {
                latency: self.cfg.l1_latency + self.cfg.l2_latency,
            };
        }
        // Write-allocate: fetch the block, fill dirty.
        self.miss(now, addr, STORE_WAITER, true, port)
    }

    fn miss(
        &mut self,
        now: Cycle,
        addr: u64,
        waiter: u64,
        is_store: bool,
        port: &mut dyn MemPort,
    ) -> LoadOutcome {
        let block = line_of(addr);
        match self.mshr.allocate(block, waiter) {
            MshrOutcome::Primary => {
                if self.send_demand(now, block, is_store, port) {
                    LoadOutcome::Pending
                } else {
                    // Downstream full: roll back the MSHR. The file is
                    // left exactly as it was (same free list, same probe
                    // table; `peak` is idempotent).
                    self.mshr.cancel(block);
                    self.stalled = Some((block, StallCause::Port));
                    LoadOutcome::Stall
                }
            }
            MshrOutcome::Merged => {
                if let Some(p) = self.pending.get_mut(&block) {
                    p.any_store |= is_store;
                    p.demand = true;
                }
                LoadOutcome::Pending
            }
            MshrOutcome::Full => {
                self.stalled = Some((block, StallCause::Mshr));
                LoadOutcome::Stall
            }
        }
    }

    /// Send the primary demand miss for `block` below and record it as
    /// pending; `false` if the port refused it.
    fn send_demand(
        &mut self,
        now: Cycle,
        block: u64,
        is_store: bool,
        port: &mut dyn MemPort,
    ) -> bool {
        let sent = port.try_request(
            now,
            BlockReq {
                token: block,
                addr: block,
                write: false,
            },
        );
        if sent {
            self.pending.insert(
                block,
                PendingBlock {
                    any_store: is_store,
                    demand: true,
                },
            );
        }
        sent
    }

    /// A retry of the memoized stall. It replays what the L1, L2 and MSHR
    /// lookups did on the failed attempt; the prefetcher needs nothing,
    /// as a same-block access does not train it. A port-refused miss
    /// asks the port again and, if accepted, allocates its MSHR entry as
    /// `miss` would have.
    fn retry(
        &mut self,
        now: Cycle,
        waiter: u64,
        is_store: bool,
        port: &mut dyn MemPort,
    ) -> LoadOutcome {
        self.replay_retries(is_store, 1);
        let Some((block, StallCause::Port)) = self.stalled else {
            return LoadOutcome::Stall;
        };
        if !self.send_demand(now, block, is_store, port) {
            return LoadOutcome::Stall;
        }
        let outcome = self.mshr.allocate(block, waiter);
        debug_assert_eq!(outcome, MshrOutcome::Primary);
        self.stalled = None;
        LoadOutcome::Pending
    }

    /// Replay the counters of `n` retries of the memoized stall that
    /// fail again (a `load`, or a `store` if `is_store`): the access
    /// count, one CPU miss each in L1 and L2, and for an MSHR stall the
    /// MSHR stall count. [`crate::Core::fast_forward`] replays a sleeping
    /// core's retries with one call; does nothing without a memo.
    pub(crate) fn replay_retries(&mut self, is_store: bool, n: u64) {
        let Some((block, cause)) = self.stalled else {
            return;
        };
        if is_store {
            self.stores.add(n);
        } else {
            self.loads.add(n);
        }
        let src = self.source();
        self.l1d.replay_misses(block, src, n);
        self.l2.replay_misses(block, src, n);
        if cause == StallCause::Mshr {
            self.mshr.replay_stalls(n);
        }
    }

    /// Paranoia check of the stall memo: its block must still miss L1
    /// and L2, and the MSHR file must still refuse it exactly when the
    /// cause is [`StallCause::Mshr`].
    pub fn check_stall_memo(&self) -> Result<(), String> {
        let Some((block, cause)) = self.stalled else {
            return Ok(());
        };
        let core = self.core_id;
        if self.l1d.probe(block) || self.l2.probe(block) {
            return Err(format!("core {core}: stall memo {block:#x} now hits L1/L2"));
        }
        if (cause == StallCause::Mshr) == self.mshr.can_allocate(block) {
            return Err(format!(
                "core {core}: stall memo {block:#x} cause {cause:?} disagrees with the MSHR file"
            ));
        }
        Ok(())
    }

    /// Train the stream prefetcher on a demand access and run ahead of
    /// confirmed streams. Prefetches only use the spare half of the MSHR
    /// file so they can never starve demand misses.
    fn train_prefetcher(&mut self, now: Cycle, addr: u64, port: &mut dyn MemPort) {
        if self.cfg.prefetch_degree == 0 {
            return;
        }
        let block = line_of(addr);
        if block == self.last_block {
            return; // same-block accesses carry no stream information
        }
        self.last_block = block;
        self.stream_stamp += 1;
        let stamp = self.stream_stamp;

        let confirmed = self
            .streams
            .iter()
            .position(|e| e.valid && e.next_expected == block);
        if let Some(i) = confirmed {
            // Stream confirmed: advance and run ahead.
            let e = &mut self.streams[i];
            e.confidence = e.confidence.saturating_add(1);
            e.next_expected = block + 64;
            e.stamp = stamp;
            let depth = (2 + 4 * u64::from(e.confidence)).min(self.cfg.prefetch_degree);
            let target = block + depth * 64;
            let from = (e.last_prefetched + 64).max(block + 64);
            // Issue up to 4 prefetches per access, [from ..= target].
            let mut pb = from;
            let mut issued = 0;
            while pb <= target && issued < 8 {
                if !self.try_prefetch(now, pb, port) {
                    break;
                }
                self.streams[i].last_prefetched = pb;
                pb += 64;
                issued += 1;
            }
        } else if let Some(e) = self
            .streams
            .iter_mut()
            .find(|e| e.valid && e.next_expected == block + 64)
        {
            // Re-access inside a tracked block (interleaved streams touch
            // each block several times): refresh, don't duplicate.
            e.stamp = stamp;
        } else {
            // Allocate a tracker expecting the next sequential block.
            let victim = self
                .streams
                .iter_mut()
                .min_by_key(|e| if e.valid { e.stamp } else { 0 })
                .expect("table nonempty");
            *victim = StreamEntry {
                valid: true,
                next_expected: block + 64,
                confidence: 0,
                last_prefetched: block,
                stamp,
            };
        }
    }

    /// Issue one prefetch for `block` if resources allow. Returns `false`
    /// on structural stall (stop running ahead this access).
    fn try_prefetch(&mut self, now: Cycle, block: u64, port: &mut dyn MemPort) -> bool {
        if self.mshr.occupancy() * 4 >= self.cfg.mshrs * 3 {
            return false;
        }
        if self.l2.probe(block) || self.mshr.contains(block) {
            return true; // nothing to do, keep going
        }
        if !port.try_request(
            now,
            BlockReq {
                token: block,
                addr: block,
                write: false,
            },
        ) {
            return false;
        }
        self.mshr.allocate(block, PREFETCH_WAITER);
        self.pending.insert(
            block,
            PendingBlock {
                any_store: false,
                demand: false,
            },
        );
        self.prefetches.inc();
        true
    }

    /// L1 fill with inclusion maintenance (dirty L1 victims propagate to
    /// L2; L2 victims go to the write-back buffer).
    fn fill_l1(&mut self, addr: u64, dirty: bool, port: &mut dyn MemPort) {
        let src = self.source();
        if let Some(ev) = self.l1d.fill(addr, src, dirty) {
            if ev.dirty {
                // Dirty L1 victim lands in L2 (it is inclusive of L1).
                if !self.l2.access(ev.addr, AccessKind::Write, src) {
                    // Not in L2 (back-invalidated earlier): write back.
                    self.queue_writeback(ev.addr);
                }
            }
        }
        let _ = port;
    }

    fn queue_writeback(&mut self, addr: u64) {
        self.writeback_buf.push_back(line_of(addr));
    }

    /// The block read for `token` returned. Fills L2 then L1 and appends
    /// the load seqs now complete to `out` (in waiter order).
    pub fn on_response(
        &mut self,
        _now: Cycle,
        token: u64,
        port: &mut dyn MemPort,
        out: &mut Vec<u64>,
    ) {
        let block = token;
        let start = out.len();
        self.stalled = None;
        self.mshr.complete_into(block, out);
        let pend = self.pending.remove(&block).unwrap_or_default();
        let src = self.source();
        if let Some(ev) = self.l2.fill(block, src, pend.any_store) {
            // Maintain L1 ⊆ L2.
            if let Some(l1v) = self.l1d.invalidate(ev.addr) {
                if l1v.dirty || ev.dirty {
                    self.queue_writeback(ev.addr);
                }
            } else if ev.dirty {
                self.queue_writeback(ev.addr);
            }
        }
        if pend.demand {
            self.fill_l1(block, pend.any_store, port);
        }
        // In place over the appended waiters: drop prefetch sentinels
        // (odd tokens) and decode load seqs, preserving waiter order.
        let mut w = start;
        for i in start..out.len() {
            let t = out[i];
            if t & 1 == 0 {
                out[w] = t >> 1;
                w += 1;
            }
        }
        out.truncate(w);
    }

    /// Back-invalidation from the inclusive LLC: drop our copies; dirty
    /// data is written back to memory.
    pub fn back_invalidate(&mut self, addr: u64) {
        self.stalled = None;
        let mut dirty = false;
        if let Some(ev) = self.l1d.invalidate(addr) {
            dirty |= ev.dirty;
        }
        if let Some(ev) = self.l2.invalidate(addr) {
            dirty |= ev.dirty;
        }
        if dirty {
            self.queue_writeback(addr);
        }
    }

    /// Retry queued write-backs into the uncore; call once per cycle.
    pub fn flush_writebacks(&mut self, now: Cycle, port: &mut dyn MemPort) {
        while let Some(&addr) = self.writeback_buf.front() {
            let ok = port.try_request(
                now,
                BlockReq {
                    token: 0,
                    addr,
                    write: true,
                },
            );
            if ok {
                self.writeback_buf.pop_front();
                self.wb_sent.inc();
            } else {
                break;
            }
        }
    }

    /// Misses refused for a full MSHR file (or a full waiter list).
    pub fn mshr_stalls(&self) -> u64 {
        self.mshr.stall_count()
    }

    pub fn outstanding_misses(&self) -> usize {
        self.mshr.occupancy()
    }

    pub fn writebacks_queued(&self) -> usize {
        self.writeback_buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gat_cache::SinkPort;

    fn hier() -> CpuHierarchy {
        // Tests that count downstream requests disable prefetching.
        CpuHierarchy::new(
            0,
            HierarchyConfig {
                prefetch_degree: 0,
                ..Default::default()
            },
        )
    }

    /// Collect completed-load seqs into a fresh vector (test convenience).
    fn resp(h: &mut CpuHierarchy, now: u64, token: u64, port: &mut SinkPort) -> Vec<u64> {
        let mut out = Vec::new();
        h.on_response(now, token, port, &mut out);
        out
    }

    #[test]
    fn l1_hit_after_fill() {
        let mut h = hier();
        let mut port = SinkPort::default();
        assert_eq!(h.load(0, 0x1000, 1, &mut port), LoadOutcome::Pending);
        assert_eq!(port.accepted.len(), 1);
        assert_eq!(port.accepted[0].1.addr, 0x1000);
        let done = resp(&mut h, 100, 0x1000, &mut port);
        assert_eq!(done, vec![1]);
        assert_eq!(
            h.load(101, 0x1008, 2, &mut port),
            LoadOutcome::Hit { latency: 2 },
            "same block now hits in L1"
        );
    }

    #[test]
    fn l2_hit_refills_l1() {
        let mut h = hier();
        let mut port = SinkPort::default();
        h.load(0, 0x2000, 1, &mut port);
        resp(&mut h, 10, 0x2000, &mut port);
        // Evict from L1 only (fill 8 conflicting blocks: L1 32KB/8w/64B =
        // 64 sets; stride 64*64 = 4096 hits the same L1 set).
        for i in 1..=8u64 {
            let a = 0x2000 + i * 4096;
            h.load(20, a, 10 + i, &mut port);
            resp(&mut h, 30, a, &mut port);
        }
        assert!(!h.l1d.probe(0x2000), "L1 victimized");
        // L2 (256KB/8w = 512 sets, stride 32768 maps same set) still has it.
        assert!(h.l2.probe(0x2000));
        assert_eq!(
            h.load(40, 0x2000, 99, &mut port),
            LoadOutcome::Hit { latency: 5 }
        );
    }

    #[test]
    fn mshr_merges_same_block() {
        let mut h = hier();
        let mut port = SinkPort::default();
        assert_eq!(h.load(0, 0x3000, 1, &mut port), LoadOutcome::Pending);
        assert_eq!(h.load(0, 0x3008, 2, &mut port), LoadOutcome::Pending);
        assert_eq!(port.accepted.len(), 1, "one downstream request");
        let done = resp(&mut h, 50, 0x3000, &mut port);
        assert_eq!(done, vec![1, 2]);
    }

    #[test]
    fn mshr_full_stalls() {
        let mut h = CpuHierarchy::new(
            0,
            HierarchyConfig {
                mshrs: 2,
                ..Default::default()
            },
        );
        let mut port = SinkPort::default();
        assert_eq!(h.load(0, 0x0000, 1, &mut port), LoadOutcome::Pending);
        assert_eq!(h.load(0, 0x1000, 2, &mut port), LoadOutcome::Pending);
        assert_eq!(h.load(0, 0x2000, 3, &mut port), LoadOutcome::Stall);
        assert!(!h.can_miss());
        resp(&mut h, 10, 0x0000, &mut port);
        assert!(h.can_miss());
    }

    #[test]
    fn downstream_rejection_rolls_back() {
        let mut h = hier();
        let mut port = SinkPort {
            reject_all: true,
            ..Default::default()
        };
        assert_eq!(h.load(0, 0x100, 1, &mut port), LoadOutcome::Stall);
        assert_eq!(h.outstanding_misses(), 0, "MSHR rolled back");
        // After the port opens up, the retry succeeds.
        let mut open = SinkPort::default();
        assert_eq!(h.load(1, 0x100, 1, &mut open), LoadOutcome::Pending);
    }

    /// Every counter a stalled access moves.
    fn stall_counters(h: &CpuHierarchy) -> [u64; 8] {
        [
            h.loads.get(),
            h.stores.get(),
            h.l1d.stats.misses.get(),
            h.l1d.stats.cpu_misses.get(),
            h.l2.stats.misses.get(),
            h.l2.stats.cpu_misses.get(),
            h.mshr.stall_count(),
            h.l1d.stats.hits.get() + h.l2.stats.hits.get(),
        ]
    }

    fn delta(before: [u64; 8], after: [u64; 8]) -> [u64; 8] {
        std::array::from_fn(|i| after[i] - before[i])
    }

    #[test]
    fn mshr_full_retry_replays_the_lookup_counters() {
        let mut h = CpuHierarchy::new(
            0,
            HierarchyConfig {
                mshrs: 2,
                prefetch_degree: 0,
                ..Default::default()
            },
        );
        let mut port = SinkPort::default();
        h.load(0, 0x0000, 1, &mut port);
        h.load(0, 0x1000, 2, &mut port);
        let c0 = stall_counters(&h);
        assert_eq!(h.load(1, 0x2000, 3, &mut port), LoadOutcome::Stall);
        let c1 = stall_counters(&h);
        assert_eq!(h.stalled_on(0x2008), Some(StallCause::Mshr));
        assert_eq!(h.load(2, 0x2000, 3, &mut port), LoadOutcome::Stall);
        let c2 = stall_counters(&h);
        assert_eq!(delta(c0, c1), [1, 0, 1, 1, 1, 1, 1, 0], "a real MSHR stall");
        assert_eq!(delta(c1, c2), delta(c0, c1), "the retry replays it");
        // A batch replay of 5 retries adds 5 of each.
        h.replay_retries(false, 5);
        assert_eq!(delta(c2, stall_counters(&h)), [5, 0, 5, 5, 5, 5, 5, 0]);
        // Stores replay into `stores`.
        let mut s = CpuHierarchy::new(
            0,
            HierarchyConfig {
                mshrs: 1,
                prefetch_degree: 0,
                ..Default::default()
            },
        );
        s.load(0, 0x0000, 1, &mut port);
        s.store(1, 0x4000, &mut port);
        let c3 = stall_counters(&s);
        assert_eq!(s.store(2, 0x4000, &mut port), LoadOutcome::Stall);
        assert_eq!(delta(c3, stall_counters(&s)), [0, 1, 1, 1, 1, 1, 1, 0]);
    }

    #[test]
    fn port_refused_retry_replays_the_lookup_counters() {
        let mut h = hier();
        let mut closed = SinkPort {
            reject_all: true,
            ..Default::default()
        };
        let c0 = stall_counters(&h);
        assert_eq!(h.load(0, 0x100, 1, &mut closed), LoadOutcome::Stall);
        let c1 = stall_counters(&h);
        assert_eq!(h.stalled_on(0x100), Some(StallCause::Port));
        assert_eq!(h.load(1, 0x100, 1, &mut closed), LoadOutcome::Stall);
        let c2 = stall_counters(&h);
        assert_eq!(delta(c0, c1), [1, 0, 1, 1, 1, 1, 0, 0], "a real port stall");
        assert_eq!(delta(c1, c2), delta(c0, c1), "the retry replays it");
        assert_eq!(h.outstanding_misses(), 0);
    }

    #[test]
    fn accepted_port_retry_leaves_a_first_time_miss() {
        for store in [false, true] {
            let access = |h: &mut CpuHierarchy, now, port: &mut SinkPort| {
                if store {
                    h.store(now, 0x7000, port)
                } else {
                    h.load(now, 0x7000, 9, port)
                }
            };
            let mut retried = hier();
            let mut closed = SinkPort {
                reject_all: true,
                ..Default::default()
            };
            assert_eq!(access(&mut retried, 0, &mut closed), LoadOutcome::Stall);
            assert_eq!(access(&mut retried, 1, &mut closed), LoadOutcome::Stall);
            let mut open = SinkPort::default();
            assert_eq!(access(&mut retried, 2, &mut open), LoadOutcome::Pending);
            assert_eq!(retried.stall_cause(), None, "acceptance drops the memo");

            let mut first = hier();
            let mut port = SinkPort::default();
            assert_eq!(access(&mut first, 2, &mut port), LoadOutcome::Pending);

            assert_eq!(open.accepted, port.accepted);
            assert_eq!(
                format!("{:?}", retried.mshr),
                format!("{:?}", first.mshr),
                "same MSHR entries, free list and probe table"
            );
            let pend = |h: &CpuHierarchy| {
                let p = &h.pending[&0x7000];
                (h.pending.len(), p.any_store, p.demand)
            };
            assert_eq!(pend(&retried), pend(&first));
            assert_eq!(
                resp(&mut retried, 50, 0x7000, &mut open),
                resp(&mut first, 50, 0x7000, &mut port)
            );
        }
    }

    #[test]
    fn response_and_back_invalidation_drop_the_memo() {
        let mut h = CpuHierarchy::new(
            0,
            HierarchyConfig {
                mshrs: 1,
                prefetch_degree: 0,
                ..Default::default()
            },
        );
        let mut port = SinkPort::default();
        h.load(0, 0x0000, 1, &mut port);
        assert_eq!(h.load(1, 0x2000, 2, &mut port), LoadOutcome::Stall);
        assert_eq!(h.stall_cause(), Some(StallCause::Mshr));
        resp(&mut h, 5, 0x0000, &mut port);
        assert_eq!(h.stall_cause(), None, "a response frees an MSHR");
        assert_eq!(h.load(6, 0x2000, 2, &mut port), LoadOutcome::Pending);
        resp(&mut h, 7, 0x2000, &mut port);

        let mut closed = SinkPort {
            reject_all: true,
            ..Default::default()
        };
        assert_eq!(h.load(7, 0x3000, 3, &mut closed), LoadOutcome::Stall);
        assert_eq!(h.stall_cause(), Some(StallCause::Port));
        h.back_invalidate(0x9000);
        assert_eq!(h.stall_cause(), None, "a back-invalidation drops it");
        // An access to another block drops it too.
        assert_eq!(h.load(8, 0x3000, 3, &mut closed), LoadOutcome::Stall);
        h.load(9, 0x0000, 4, &mut port);
        assert_eq!(h.stall_cause(), None);
    }

    #[test]
    fn store_miss_write_allocates_dirty() {
        let mut h = hier();
        let mut port = SinkPort::default();
        assert_eq!(h.store(0, 0x4000, &mut port), LoadOutcome::Pending);
        let done = resp(&mut h, 10, 0x4000, &mut port);
        assert!(done.is_empty(), "stores deliver no load seqs");
        // The block must be dirty: back-invalidate and expect a write-back.
        h.back_invalidate(0x4000);
        assert_eq!(h.writebacks_queued(), 1);
        h.flush_writebacks(20, &mut port);
        assert_eq!(h.writebacks_queued(), 0);
        let wb = port.accepted.last().unwrap().1;
        assert!(wb.write);
        assert_eq!(wb.addr, 0x4000);
    }

    #[test]
    fn back_invalidate_clean_block_is_silent() {
        let mut h = hier();
        let mut port = SinkPort::default();
        h.load(0, 0x5000, 1, &mut port);
        resp(&mut h, 10, 0x5000, &mut port);
        h.back_invalidate(0x5000);
        assert_eq!(h.writebacks_queued(), 0);
        assert!(!h.l1d.probe(0x5000));
        assert!(!h.l2.probe(0x5000));
    }

    #[test]
    fn stream_prefetcher_runs_ahead_after_confirmation() {
        let mut h = CpuHierarchy::new(0, HierarchyConfig::default());
        let mut port = SinkPort::default();
        // First access allocates a tracker; second (sequential) confirms it.
        h.load(0, 0x8000, 1, &mut port);
        assert_eq!(h.prefetches.get(), 0, "unconfirmed stream: no prefetch");
        h.load(1, 0x8040, 2, &mut port);
        assert!(h.prefetches.get() >= 2, "confirmed stream runs ahead");
        // Prefetched blocks land beyond the demand accesses.
        let pf_addrs: Vec<u64> = port
            .accepted
            .iter()
            .map(|(_, r)| r.addr)
            .filter(|&a| a > 0x8040)
            .collect();
        assert!(pf_addrs.contains(&0x8080));
        // Deliver a prefetch: it fills L2 but not L1.
        resp(&mut h, 10, 0x8080, &mut port);
        assert!(h.l2.probe(0x8080));
        assert!(!h.l1d.probe(0x8080), "prefetch must not pollute L1");
        assert_eq!(
            h.load(20, 0x8080, 3, &mut port),
            LoadOutcome::Hit { latency: 5 }
        );
    }

    #[test]
    fn steady_stream_mostly_hits_after_warmup() {
        let mut h = CpuHierarchy::new(0, HierarchyConfig::default());
        let mut port = SinkPort::default();
        let mut seq = 0u64;
        let mut demand_misses = 0;
        for i in 0..256u64 {
            let addr = 0x10000 + i * 64;
            seq += 1;
            match h.load(i, addr, seq, &mut port) {
                LoadOutcome::Pending => demand_misses += 1,
                LoadOutcome::Stall => {}
                LoadOutcome::Hit { .. } => {}
            }
            // Answer everything immediately (zero-latency memory).
            let outstanding: Vec<u64> = port
                .accepted
                .drain(..)
                .filter(|(_, r)| !r.write)
                .map(|(_, r)| r.token)
                .collect();
            for tok in outstanding {
                resp(&mut h, i, tok, &mut port);
            }
        }
        assert!(
            demand_misses < 32,
            "run-ahead must hide most of a pure stream: {demand_misses} misses"
        );
    }

    #[test]
    fn demand_merge_onto_prefetch_fills_l1() {
        let mut h = CpuHierarchy::new(0, HierarchyConfig::default());
        let mut port = SinkPort::default();
        h.load(0, 0x8000, 1, &mut port);
        h.load(1, 0x8040, 2, &mut port); // confirms; prefetches 0x8080+
        assert!(h.mshr.contains(0x8080), "prefetch in flight");
        // Demand load merges onto the in-flight prefetch of 0x8080.
        assert_eq!(h.load(2, 0x8080, 3, &mut port), LoadOutcome::Pending);
        resp(&mut h, 10, 0x8080, &mut port);
        assert!(h.l1d.probe(0x8080), "demand-merged fill reaches L1");
    }

    #[test]
    fn writebacks_retry_until_port_opens() {
        let mut h = hier();
        let mut port = SinkPort::default();
        h.store(0, 0x6000, &mut port);
        resp(&mut h, 5, 0x6000, &mut port);
        h.back_invalidate(0x6000);
        let mut closed = SinkPort {
            reject_all: true,
            ..Default::default()
        };
        h.flush_writebacks(10, &mut closed);
        assert_eq!(h.writebacks_queued(), 1);
        h.flush_writebacks(11, &mut port);
        assert_eq!(h.writebacks_queued(), 0);
        assert_eq!(h.wb_sent.get(), 1);
    }
}
