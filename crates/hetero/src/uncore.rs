//! The shared memory system: ring ⇄ LLC ⇄ memory controllers.
//!
//! Every L2/GPU miss becomes a *transaction* that travels the bidirectional
//! ring to the LLC stop, spends the 10-cycle lookup there, and either
//! returns with data (hit) or continues over the ring to one of the two
//! memory controllers and comes back through an LLC fill. Posted writes
//! (write-backs from the CPU L2s, dirty flushes from the GPU's ROP caches)
//! take the same paths but never generate a response.
//!
//! Paper-critical behaviours implemented here:
//!
//! * the LLC is **inclusive for CPU blocks** — evicting a CPU-owned block
//!   back-invalidates that core's L1/L2 — and **non-inclusive for GPU
//!   blocks** (Table I),
//! * GPU read fills follow the configured [`FillPolicyKind`] (baseline
//!   insert, Fig. 3 bypass-all, or HeLM),
//! * GPU write misses allocate directly in the LLC without a DRAM read
//!   (footnote 6),
//! * the DRAM scheduler receives the QoS controller's `cpu_prio_boost` /
//!   `gpu_urgent` signals through [`SchedCtx`].

use crate::config::{FillPolicyKind, MachineConfig};
use gat_cache::{
    AccessKind, BlockReq, CacheConfig, MemPort, MshrFile, MshrOutcome, SetAssocCache, Source,
};
use gat_dram::{Completion, DramChannel, DramRequest, SchedCtx};
use gat_policies::Helm;
use gat_ring::{Ring, RingTopology, StopId};
use gat_sim::addr::line_of;
use gat_sim::faults::DelayInjector;
use gat_sim::stats::Counter;
use gat_sim::{Cycle, DRAM_CLOCK_DIVIDER};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Travelling requester → LLC.
    ToLlc,
    /// Waiting in the LLC MSHR (merged) or travelling LLC → MC.
    ToMc,
    /// Travelling LLC → requester with data.
    Resp,
}

#[derive(Debug, Clone, Copy)]
struct Txn {
    requester: Source,
    token: u64,
    addr: u64,
    write: bool,
    stage: Stage,
}

/// Low bits of a transaction id that address the slab slot; the high bits
/// carry a monotonic allocation sequence number.
const SLOT_BITS: u32 = 16;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

/// Slab of in-flight transactions, keyed by the ids that travel the ring
/// and the DRAM queues. Replaces a hash map on the hottest uncore path:
/// a lookup is one bounds-checked index plus an id compare.
///
/// Ids are `seq << SLOT_BITS | slot` with `seq` incremented per insert, so
/// they remain strictly increasing in allocation order — every id-order
/// tie-break downstream (e.g. DRAM completion sorting) sees exactly the
/// order the old monotonic-counter ids produced. The stored full id makes
/// stale lookups (a slot reused after removal) miss instead of aliasing.
#[derive(Debug, Default)]
struct TxnSlab {
    slots: Vec<Option<(u64, Txn)>>,
    free: Vec<u32>,
    seq: u64,
    len: usize,
}

impl TxnSlab {
    fn insert(&mut self, txn: Txn) -> u64 {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                let s = self.slots.len();
                assert!(s as u64 <= SLOT_MASK, "transaction slab overflow");
                self.slots.push(None);
                s as u32
            }
        };
        let id = (self.seq << SLOT_BITS) | u64::from(slot);
        self.seq += 1;
        self.slots[slot as usize] = Some((id, txn));
        self.len += 1;
        id
    }

    fn get(&self, id: u64) -> Option<&Txn> {
        match self.slots.get((id & SLOT_MASK) as usize) {
            Some(Some((sid, txn))) if *sid == id => Some(txn),
            _ => None,
        }
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut Txn> {
        match self.slots.get_mut((id & SLOT_MASK) as usize) {
            Some(Some((sid, txn))) if *sid == id => Some(txn),
            _ => None,
        }
    }

    fn remove(&mut self, id: u64) -> Option<Txn> {
        let s = (id & SLOT_MASK) as usize;
        let cell = self.slots.get_mut(s)?;
        if cell.as_ref().is_some_and(|(sid, _)| *sid == id) {
            let (_, txn) = cell.take().unwrap();
            self.free.push(s as u32);
            self.len -= 1;
            Some(txn)
        } else {
            None
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A finished read delivered back to its requester.
#[derive(Debug, Clone, Copy)]
pub struct UncoreCompletion {
    pub source: Source,
    pub token: u64,
}

/// A back-invalidation the system must forward to a CPU core.
#[derive(Debug, Clone, Copy)]
pub struct BackInval {
    pub core: u8,
    pub addr: u64,
}

/// Aggregate uncore statistics beyond what LLC/DRAM keep themselves.
#[derive(Debug, Default, Clone)]
pub struct UncoreStats {
    pub back_invalidations: Counter,
    pub gpu_fills_bypassed: Counter,
    pub gpu_fills_inserted: Counter,
}

/// The shared uncore.
pub struct Uncore {
    cfg: MachineConfig,
    ring: Ring,
    pub llc: SetAssocCache,
    llc_mshr: MshrFile,
    llc_queue: std::collections::VecDeque<u64>,
    /// Reads whose lookup found the LLC MSHR file full, in retry order.
    llc_retry: std::collections::VecDeque<u64>,
    /// Length of the prefix of `llc_retry` still worth a lookup. The rest
    /// are parked: they failed, and neither an LLC fill nor an MSHR
    /// release has happened since, so they would fail again (DESIGN.md
    /// §11).
    fresh_retries: usize,
    /// Requests accepted but not yet past their LLC lookup (ring transit +
    /// queue + retry); bounds acceptance in [`Self::try_request`].
    to_llc_count: usize,
    /// (due cycle, txn id) — LLC lookup completions for hits/misses.
    resp_due: Vec<(Cycle, u64)>,
    miss_due: Vec<(Cycle, u64)>,
    /// (due cycle, txn id) — DRAM data arriving back at the LLC stop.
    fill_due: Vec<(Cycle, u64)>,
    /// Exact earliest due cycle per list (`Cycle::MAX` when empty): the
    /// per-cycle sweep consults these instead of scanning the lists on
    /// cycles where nothing can be due.
    resp_min: Cycle,
    miss_min: Cycle,
    fill_min: Cycle,
    pub channels: Vec<DramChannel>,
    mc_retry: Vec<std::collections::VecDeque<u64>>,
    /// Entries across all `mc_retry` queues; the per-cycle retry sweep is
    /// skipped entirely while this is zero (the common case).
    mc_retry_total: usize,
    txns: TxnSlab,
    /// HeLM's bypass state; consulted only under `FillPolicyKind::Helm`.
    helm: Helm,
    /// GPU latency tolerance sampled by the system each cycle (HeLM).
    pub gpu_tolerance: f64,
    completions: Vec<UncoreCompletion>,
    back_invals: Vec<BackInval>,
    drain_buf: Vec<u64>,
    comp_buf: Vec<Completion>,
    /// Reused MSHR waiter scratch for `finish_fill` (restored empty).
    waiter_buf: Vec<u64>,
    pub stats: UncoreStats,
}

impl Uncore {
    pub fn new(cfg: &MachineConfig) -> Self {
        let mut llc_cfg = CacheConfig::new(
            "LLC",
            cfg.llc_bytes,
            cfg.llc_ways,
            cfg.llc_latency,
            cfg.llc_policy,
        );
        llc_cfg.hashed_index = true;
        let llc = SetAssocCache::new(llc_cfg);
        let llc_mshr = MshrFile::new(cfg.llc_mshrs, 16);
        let mut channels: Vec<DramChannel> = (0..cfg.dram_map.channels)
            .map(|ch| {
                DramChannel::new(
                    cfg.dram_timing,
                    cfg.dram_map.banks_per_channel,
                    cfg.mc_queue,
                    cfg.sched.build(cfg.seed ^ u64::from(ch) << 17),
                )
            })
            .collect();
        let mc_retry = (0..cfg.dram_map.channels)
            .map(|_| std::collections::VecDeque::new())
            .collect();
        let mut ring = Ring::new(RingTopology::table_one());
        // The LLC is banked (Table I geometry supports 4 lookups/cycle);
        // give its ring stop matching injection width so responses,
        // MC-forwards and write-backs do not serialize behind one port.
        ring.set_stop_width(StopId(cfg.llc_stop()), cfg.llc_lookups_per_cycle.max(1));
        // Install chaos injectors (DESIGN.md §9). The fault-free plan
        // installs nothing, so a clean run draws no extra random numbers.
        if !cfg.faults.is_none() {
            let froot = cfg.faults.rng_root(cfg.seed);
            #[expect(
                clippy::disallowed_methods,
                reason = "R3: construction-time fork from the fault-plan root; one stream per channel"
            )]
            if cfg.faults.dram.bounce > 0.0 {
                for (i, ch) in channels.iter_mut().enumerate() {
                    ch.set_fault_injector(DelayInjector::new(
                        cfg.faults.dram.bounce,
                        cfg.faults.dram.backoff,
                        cfg.faults.dram.retries,
                        froot.fork(&format!("dram.ch{i}")),
                    ));
                }
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "R3: construction-time fork from the fault-plan root for the ring injector"
            )]
            if cfg.faults.ring.drop > 0.0 {
                ring.set_fault_injector(DelayInjector::new(
                    cfg.faults.ring.drop,
                    cfg.faults.ring.replay,
                    1,
                    froot.fork("ring"),
                ));
            }
        }
        Self {
            ring,
            llc,
            llc_mshr,
            llc_queue: std::collections::VecDeque::new(),
            llc_retry: std::collections::VecDeque::new(),
            fresh_retries: 0,
            to_llc_count: 0,
            resp_due: Vec::new(),
            miss_due: Vec::new(),
            fill_due: Vec::new(),
            resp_min: Cycle::MAX,
            miss_min: Cycle::MAX,
            fill_min: Cycle::MAX,
            channels,
            mc_retry,
            mc_retry_total: 0,
            txns: TxnSlab::default(),
            helm: Helm::default(),
            gpu_tolerance: 0.0,
            completions: Vec::new(),
            back_invals: Vec::new(),
            drain_buf: Vec::new(),
            comp_buf: Vec::new(),
            waiter_buf: Vec::new(),
            stats: UncoreStats::default(),
            cfg: cfg.clone(),
        }
    }

    fn stop_of(&self, s: Source) -> StopId {
        match s {
            Source::Cpu(c) => StopId(self.cfg.cpu_stop(c)),
            Source::Gpu => StopId(self.cfg.gpu_stop()),
        }
    }

    /// Present a request from `source`. Returns `false` (back-pressure)
    /// when the LLC input queue is saturated.
    pub fn try_request(&mut self, now: Cycle, source: Source, req: BlockReq) -> bool {
        // Bound transactions between acceptance and their LLC lookup.
        if self.to_llc_count >= self.cfg.llc_queue {
            return false;
        }
        self.to_llc_count += 1;
        let id = self.txns.insert(Txn {
            requester: source,
            token: req.token,
            addr: line_of(req.addr),
            write: req.write,
            stage: Stage::ToLlc,
        });
        self.ring
            .send(now, self.stop_of(source), StopId(self.cfg.llc_stop()), id);
        true
    }

    /// Advance one CPU cycle.
    pub fn tick(&mut self, now: Cycle, ctx: SchedCtx) {
        self.drain_ring(now);
        self.retry_mc(now);
        self.llc_service(now);
        self.process_due(now);
        self.dram_tick(now, ctx);
    }

    fn drain_ring(&mut self, now: Cycle) {
        // Reused buffer: restored empty below (see the invariant note in
        // `system.rs`), so no clear is needed before the take.
        let mut buf = std::mem::take(&mut self.drain_buf);
        self.ring.drain_delivered(now, &mut buf);
        for &id in &buf {
            let Some(txn) = self.txns.get(id).copied() else {
                continue;
            };
            match txn.stage {
                Stage::ToLlc => self.llc_queue.push_back(id),
                Stage::ToMc => self.send_to_dram(now, id, txn),
                Stage::Resp => {
                    self.completions.push(UncoreCompletion {
                        source: txn.requester,
                        token: txn.token,
                    });
                    self.txns.remove(id);
                }
            }
        }
        buf.clear();
        self.drain_buf = buf;
    }

    fn send_to_dram(&mut self, now: Cycle, id: u64, txn: Txn) {
        let mut coord = self.cfg.dram_map.decompose(txn.addr);
        if self.cfg.partition_channels {
            // Static channel partitioning: GPU on channel 1, CPU on 0.
            coord.channel = u32::from(txn.requester.is_gpu());
        }
        let ch = coord.channel as usize;
        if self.channels[ch].can_accept() {
            let dram_now = now / DRAM_CLOCK_DIVIDER;
            self.channels[ch].enqueue(
                DramRequest {
                    id,
                    addr: txn.addr,
                    write: txn.write,
                    source: txn.requester,
                },
                coord,
                dram_now,
            );
        } else {
            self.mc_retry[ch].push_back(id);
            self.mc_retry_total += 1;
        }
    }

    /// Channel a transaction is routed to (address-interleaved, or
    /// source-partitioned under the static-partitioning ablation).
    fn channel_of(&self, txn: &Txn) -> u32 {
        if self.cfg.partition_channels {
            u32::from(txn.requester.is_gpu())
        } else {
            self.cfg.dram_map.decompose(txn.addr).channel
        }
    }

    fn retry_mc(&mut self, now: Cycle) {
        if self.mc_retry_total == 0 {
            return;
        }
        for ch in 0..self.channels.len() {
            while let Some(&id) = self.mc_retry[ch].front() {
                if !self.channels[ch].can_accept() {
                    break;
                }
                self.mc_retry[ch].pop_front();
                self.mc_retry_total -= 1;
                if let Some(txn) = self.txns.get(id).copied() {
                    self.send_to_dram(now, id, txn);
                }
            }
        }
    }

    fn llc_service(&mut self, now: Cycle) {
        let slots = self.cfg.llc_lookups_per_cycle;
        let mut served = 0;
        while served < slots {
            // Retries (MSHR-full misses) go first so they cannot starve.
            let id = if self.fresh_retries > 0 {
                self.fresh_retries -= 1;
                self.llc_retry
                    .pop_front()
                    .expect("fresh retries are queued")
            } else if !self.llc_retry.is_empty() {
                // Every queued retry is parked: the cycle's remaining
                // slots would re-fail them while `llc_queue` waits. The
                // next cycle looks nothing up unless a fill or release
                // wakes them, so nothing is worth prefetching.
                self.refail_parked(slots - served);
                return;
            } else {
                match self.llc_queue.pop_front() {
                    Some(id) => id,
                    None => break,
                }
            };
            served += 1;
            self.to_llc_count = self.to_llc_count.saturating_sub(1);
            let Some(txn) = self.txns.get(id).copied() else {
                continue;
            };
            if txn.write {
                self.llc_write(now, id, txn);
            } else {
                self.llc_read(now, id, txn);
            }
        }
        // Next cycle's lookups: start pulling their tag sets into the
        // host cache now, so the LLC metadata's memory latency overlaps a
        // full simulated cycle of core/GPU work instead of stalling the
        // lookup itself.
        for &id in self
            .llc_retry
            .iter()
            .take(self.fresh_retries)
            .chain(self.llc_queue.iter())
            .take(self.cfg.llc_lookups_per_cycle as usize)
        {
            if let Some(t) = self.txns.get(id) {
                self.llc.prefetch(t.addr);
            }
        }
    }

    /// Spend `rest` lookup slots on parked retries without looking them
    /// up. Each slot would re-fail the next parked entry in order and put
    /// it at the back, leaving the stats, the MSHR file and `to_llc_count`
    /// as they were. The only lasting effect is DRRIP's set-dueling update
    /// on each miss, which is replayed.
    fn refail_parked(&mut self, rest: u32) {
        let rest = rest as usize;
        for &id in self.llc_retry.iter().cycle().take(rest) {
            if let Some(t) = self.txns.get(id) {
                self.llc.replay_miss(t.addr);
            }
        }
        let len = self.llc_retry.len();
        self.llc_retry.rotate_left(rest % len);
    }

    fn llc_write(&mut self, now: Cycle, id: u64, txn: Txn) {
        // Posted write-back: hit updates in place; miss allocates the
        // block dirty with no DRAM read (CPU write-backs of
        // back-invalidated blocks, and GPU ROP flushes — footnote 6).
        if !self.llc.access(txn.addr, AccessKind::Write, txn.requester) {
            let evicted = self.llc_fill(txn.addr, txn.requester, true);
            self.handle_eviction(now, evicted);
        }
        self.txns.remove(id);
    }

    /// LLC fill honouring the static way-partitioning ablation. A fill
    /// can turn a parked retry into a hit, so every retry becomes fresh.
    fn llc_fill(&mut self, addr: u64, source: Source, dirty: bool) -> Option<gat_cache::Evicted> {
        self.fresh_retries = self.llc_retry.len();
        match self.cfg.gpu_llc_ways {
            Some(k) => {
                let ways = self.cfg.llc_ways;
                let k = k.clamp(1, ways - 1);
                if source.is_gpu() {
                    self.llc.fill_in_ways(addr, source, dirty, 0, k)
                } else {
                    self.llc.fill_in_ways(addr, source, dirty, k, ways)
                }
            }
            None => self.llc.fill(addr, source, dirty),
        }
    }

    fn llc_read(&mut self, now: Cycle, id: u64, txn: Txn) {
        if self.llc.access(txn.addr, AccessKind::Read, txn.requester) {
            self.txns.get_mut(id).unwrap().stage = Stage::Resp;
            let due = now + Cycle::from(self.cfg.llc_latency);
            self.resp_due.push((due, id));
            self.resp_min = self.resp_min.min(due);
            return;
        }
        match self.llc_mshr.allocate(txn.addr, id) {
            MshrOutcome::Primary => {
                self.txns.get_mut(id).unwrap().stage = Stage::ToMc;
                let due = now + Cycle::from(self.cfg.llc_latency);
                self.miss_due.push((due, id));
                self.miss_min = self.miss_min.min(due);
            }
            MshrOutcome::Merged => {
                // Parked on the primary; response comes with the fill.
            }
            MshrOutcome::Full => {
                // The lookup will be re-presented; undo the recorded miss
                // so retries don't inflate the Fig. 10 counters.
                self.llc.stats.undo_miss(txn.requester.is_gpu());
                self.llc_retry.push_back(id);
                self.to_llc_count += 1;
            }
        }
    }

    fn process_due(&mut self, now: Cycle) {
        let llc_stop = StopId(self.cfg.llc_stop());
        // Each sweep runs only when its earliest entry is due; it then
        // recomputes the exact minimum of what it keeps. Entries appended
        // mid-sweep are visited by the same sweep (the bound is re-read),
        // so their dues are folded in too.
        if self.resp_min <= now {
            let mut remaining = Cycle::MAX;
            let mut i = 0;
            while i < self.resp_due.len() {
                if self.resp_due[i].0 <= now {
                    let (_, id) = self.resp_due.swap_remove(i);
                    if let Some(txn) = self.txns.get(id).copied() {
                        self.ring
                            .send(now, llc_stop, self.stop_of(txn.requester), id);
                    }
                } else {
                    remaining = remaining.min(self.resp_due[i].0);
                    i += 1;
                }
            }
            self.resp_min = remaining;
        }
        if self.miss_min <= now {
            let mut remaining = Cycle::MAX;
            let mut i = 0;
            while i < self.miss_due.len() {
                if self.miss_due[i].0 <= now {
                    let (_, id) = self.miss_due.swap_remove(i);
                    if let Some(txn) = self.txns.get(id).copied() {
                        let ch = self.channel_of(&txn);
                        self.ring
                            .send(now, llc_stop, StopId(self.cfg.mc_stop(ch)), id);
                    }
                } else {
                    remaining = remaining.min(self.miss_due[i].0);
                    i += 1;
                }
            }
            self.miss_min = remaining;
        }
        if self.fill_min <= now {
            let mut remaining = Cycle::MAX;
            let mut i = 0;
            while i < self.fill_due.len() {
                if self.fill_due[i].0 <= now {
                    let (_, id) = self.fill_due.swap_remove(i);
                    self.finish_fill(now, id);
                } else {
                    remaining = remaining.min(self.fill_due[i].0);
                    i += 1;
                }
            }
            self.fill_min = remaining;
        }
    }

    fn dram_tick(&mut self, now: Cycle, ctx: SchedCtx) {
        if !now.is_multiple_of(DRAM_CLOCK_DIVIDER) {
            return;
        }
        let dram_now = now / DRAM_CLOCK_DIVIDER;
        // Reused buffer, restored empty below — no clear before the take.
        let mut buf = std::mem::take(&mut self.comp_buf);
        for ch in 0..self.channels.len() {
            self.channels[ch].tick(dram_now, ctx);
            self.channels[ch].drain_completions(dram_now, &mut buf);
        }
        for c in &buf {
            if c.write {
                self.txns.remove(c.id);
                continue;
            }
            // Data returns to the LLC stop over the ring (MC → LLC hop).
            let ch = self.txns.get(c.id).map(|t| self.channel_of(t)).unwrap_or(0);
            let hop = self
                .ring
                .topology()
                .latency(StopId(self.cfg.mc_stop(ch)), StopId(self.cfg.llc_stop()));
            self.fill_due.push((now + hop, c.id));
            self.fill_min = self.fill_min.min(now + hop);
        }
        buf.clear();
        self.comp_buf = buf;
    }

    fn finish_fill(&mut self, now: Cycle, id: u64) {
        let Some(txn) = self.txns.get(id).copied() else {
            return;
        };
        // Fill decision: CPU fills always insert; GPU fills follow the
        // configured fill policy.
        let insert = match txn.requester {
            Source::Cpu(_) => true,
            Source::Gpu => {
                let bypass = match self.cfg.fill_policy {
                    FillPolicyKind::Baseline => false,
                    FillPolicyKind::BypassAll => true,
                    FillPolicyKind::Helm => self.helm.bypass(self.gpu_tolerance),
                };
                if bypass {
                    self.stats.gpu_fills_bypassed.inc();
                } else {
                    self.stats.gpu_fills_inserted.inc();
                }
                !bypass
            }
        };
        if insert {
            let evicted = self.llc_fill(txn.addr, txn.requester, false);
            self.handle_eviction(now, evicted);
        }
        // Wake all waiters (primary included). Reused scratch, restored
        // empty below — the per-fill `Vec` this replaces was the last
        // steady-state allocation on the fill path.
        let mut waiters = std::mem::take(&mut self.waiter_buf);
        self.llc_mshr.complete_into(txn.addr, &mut waiters);
        // The released entry can take a parked retry's miss.
        self.fresh_retries = self.llc_retry.len();
        let llc_stop = StopId(self.cfg.llc_stop());
        for &wid in &waiters {
            let requester = match self.txns.get_mut(wid) {
                Some(wtxn) => {
                    wtxn.stage = Stage::Resp;
                    wtxn.requester
                }
                None => continue,
            };
            let dst = self.stop_of(requester);
            self.ring.send(now, llc_stop, dst, wid);
        }
        waiters.clear();
        self.waiter_buf = waiters;
    }

    fn handle_eviction(&mut self, now: Cycle, evicted: Option<gat_cache::Evicted>) {
        let Some(ev) = evicted else {
            return;
        };
        // Inclusive for CPU blocks: back-invalidate the owner core.
        if let Source::Cpu(core) = ev.owner {
            self.back_invals.push(BackInval {
                core,
                addr: ev.addr,
            });
            self.stats.back_invalidations.inc();
        }
        if ev.dirty {
            // Dirty victim goes to DRAM as a write.
            let txn = Txn {
                requester: ev.owner,
                token: 0,
                addr: ev.addr,
                write: true,
                stage: Stage::ToMc,
            };
            let ch = self.channel_of(&txn);
            let id = self.txns.insert(txn);
            self.ring.send(
                now,
                StopId(self.cfg.llc_stop()),
                StopId(self.cfg.mc_stop(ch)),
                id,
            );
        }
    }

    /// Deliver all finished reads to the system.
    pub fn drain_completions(&mut self, out: &mut Vec<UncoreCompletion>) {
        out.append(&mut self.completions);
    }

    /// Deliver pending back-invalidations.
    pub fn drain_back_invals(&mut self, out: &mut Vec<BackInval>) {
        out.append(&mut self.back_invals);
    }

    /// Anything still in flight?
    pub fn busy(&self) -> bool {
        !self.txns.is_empty()
            || !self.llc_queue.is_empty()
            || self.channels.iter().any(|c| c.busy())
            || !self.ring.idle()
    }

    /// Outstanding transactions (diagnostics).
    pub fn in_flight(&self) -> usize {
        self.txns.len()
    }

    /// Total faulted events across the DRAM and ring injectors
    /// (diagnostics; 0 without a fault plan).
    pub fn faults_injected(&self) -> u64 {
        self.channels
            .iter()
            .map(|c| c.faults_injected())
            .sum::<u64>()
            + self.ring.faults_injected()
    }

    /// Paranoia-mode structural checks (`GAT_PARANOIA=1`): bounds the
    /// allocate/complete protocol guarantees. A violation means a
    /// transaction or MSHR leak rather than a modelling inaccuracy.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.llc_mshr.check_invariants()?;
        if self.txns.is_empty() && self.llc_mshr.occupancy() != 0 {
            return Err(format!(
                "MSHR leak: {} entries live with no transactions in flight",
                self.llc_mshr.occupancy()
            ));
        }
        if self.to_llc_count > self.cfg.llc_queue {
            return Err(format!(
                "LLC input accounting leak: {} accepted vs queue bound {}",
                self.to_llc_count, self.cfg.llc_queue
            ));
        }
        if self.llc_queue.len() + self.llc_retry.len() > self.to_llc_count {
            return Err(format!(
                "LLC queue underflow: {} queued + {} retrying vs {} accounted",
                self.llc_queue.len(),
                self.llc_retry.len(),
                self.to_llc_count
            ));
        }
        if self.fresh_retries > self.llc_retry.len() {
            return Err(format!(
                "{} fresh LLC retries but only {} queued",
                self.fresh_retries,
                self.llc_retry.len()
            ));
        }
        for &id in self.llc_retry.iter().skip(self.fresh_retries) {
            let Some(txn) = self.txns.get(id) else {
                return Err(format!("parked LLC retry {id:#x} has no transaction"));
            };
            if self.llc.probe(txn.addr) || self.llc_mshr.can_allocate(txn.addr) {
                return Err(format!(
                    "parked LLC retry {id:#x} (block {:#x}) would no longer fail",
                    txn.addr
                ));
            }
        }
        for (i, ch) in self.channels.iter().enumerate() {
            if ch.queue_len() > ch.queue_capacity() {
                return Err(format!(
                    "DRAM ch{i} queue overflow: {} of {}",
                    ch.queue_len(),
                    ch.queue_capacity()
                ));
            }
            // Per-bank queue structural sweep (panics on violation).
            ch.check_queue_invariants();
        }
        Ok(())
    }

    /// Reset statistics at the warm-up boundary (state is kept).
    pub fn reset_stats(&mut self) {
        self.llc.stats.reset();
        for ch in &mut self.channels {
            ch.stats.reset();
            ch.energy.reset();
        }
        self.stats = UncoreStats::default();
    }
}

/// A [`MemPort`] view of the uncore bound to one requester.
pub struct UncorePort<'a> {
    pub uncore: &'a mut Uncore,
    pub source: Source,
}

impl MemPort for UncorePort<'_> {
    fn try_request(&mut self, now: Cycle, req: BlockReq) -> bool {
        self.uncore.try_request(now, self.source, req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uncore() -> Uncore {
        let mut cfg = MachineConfig::table_one(16, 7);
        cfg.llc_latency = 10;
        Uncore::new(&cfg)
    }

    fn run_for(u: &mut Uncore, start: Cycle, cycles: Cycle) -> Vec<UncoreCompletion> {
        let mut out = Vec::new();
        for now in start..start + cycles {
            u.tick(now, SchedCtx::default());
            u.drain_completions(&mut out);
        }
        out
    }

    #[test]
    fn read_miss_round_trip_through_dram() {
        let mut u = uncore();
        assert!(u.try_request(
            0,
            Source::Cpu(0),
            BlockReq {
                token: 42,
                addr: 0x1000,
                write: false
            }
        ));
        let done = run_for(&mut u, 0, 2000);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].token, 42);
        assert_eq!(done[0].source, Source::Cpu(0));
        assert!(u.llc.probe(0x1000), "block filled into LLC");
        assert!(!u.busy());
    }

    #[test]
    fn second_read_hits_and_is_much_faster() {
        let mut u = uncore();
        u.try_request(
            0,
            Source::Cpu(0),
            BlockReq {
                token: 1,
                addr: 0x2000,
                write: false,
            },
        );
        let mut out = Vec::new();
        let mut miss_done = 0;
        for now in 0..3000 {
            u.tick(now, SchedCtx::default());
            u.drain_completions(&mut out);
            if !out.is_empty() && miss_done == 0 {
                miss_done = now;
                out.clear();
                u.try_request(
                    now,
                    Source::Cpu(0),
                    BlockReq {
                        token: 2,
                        addr: 0x2000,
                        write: false,
                    },
                );
            } else if !out.is_empty() {
                // Hit latency ≈ ring + LLC lookup, far below miss latency.
                let hit_latency = now - miss_done;
                assert!(
                    hit_latency < miss_done / 2,
                    "hit {hit_latency} vs miss {miss_done}"
                );
                return;
            }
        }
        panic!("requests did not complete");
    }

    #[test]
    fn mshr_merges_cross_core_requests() {
        let mut u = uncore();
        u.try_request(
            0,
            Source::Cpu(0),
            BlockReq {
                token: 10,
                addr: 0x3000,
                write: false,
            },
        );
        u.try_request(
            0,
            Source::Cpu(1),
            BlockReq {
                token: 20,
                addr: 0x3000,
                write: false,
            },
        );
        let done = run_for(&mut u, 0, 2000);
        assert_eq!(done.len(), 2, "both requesters answered");
        // Only one DRAM read happened.
        let reads: u64 = u.channels.iter().map(|c| c.stats.reads.get()).sum();
        assert_eq!(reads, 1);
    }

    #[test]
    fn cpu_eviction_back_invalidates_owner() {
        let mut cfg = MachineConfig::table_one(16, 7);
        // Shrink the LLC so eviction is easy: 2 sets × 16 ways.
        cfg.llc_bytes = 2 * 16 * 64;
        let mut u = Uncore::new(&cfg);
        // 64 distinct blocks from core 0 guarantee evictions.
        let mut now = 0;
        for i in 0..64u64 {
            while !u.try_request(
                now,
                Source::Cpu(0),
                BlockReq {
                    token: i,
                    addr: i * 64,
                    write: false,
                },
            ) {
                u.tick(now, SchedCtx::default());
                now += 1;
            }
            for _ in 0..300 {
                u.tick(now, SchedCtx::default());
                now += 1;
            }
        }
        let mut invals = Vec::new();
        u.drain_back_invals(&mut invals);
        assert!(!invals.is_empty(), "inclusive LLC must back-invalidate");
        assert!(invals.iter().all(|b| b.core == 0));
    }

    #[test]
    fn gpu_fills_do_not_back_invalidate() {
        let mut cfg = MachineConfig::table_one(16, 7);
        cfg.llc_bytes = 2 * 16 * 64;
        let mut u = Uncore::new(&cfg);
        let mut now = 0;
        for i in 0..64u64 {
            while !u.try_request(
                now,
                Source::Gpu,
                BlockReq {
                    token: i,
                    addr: (1 << 41) + i * 64,
                    write: false,
                },
            ) {
                u.tick(now, SchedCtx::default());
                now += 1;
            }
            for _ in 0..300 {
                u.tick(now, SchedCtx::default());
                now += 1;
            }
        }
        let mut invals = Vec::new();
        u.drain_back_invals(&mut invals);
        assert!(invals.is_empty(), "GPU blocks are non-inclusive");
    }

    #[test]
    fn gpu_write_allocates_without_dram_read() {
        let mut u = uncore();
        u.try_request(
            0,
            Source::Gpu,
            BlockReq {
                token: 0,
                addr: 1 << 41,
                write: true,
            },
        );
        let _ = run_for(&mut u, 0, 500);
        assert!(u.llc.probe(1 << 41), "write-allocated in LLC");
        let reads: u64 = u.channels.iter().map(|c| c.stats.reads.get()).sum();
        assert_eq!(reads, 0, "footnote 6: no DRAM read for GPU write fill");
    }

    #[test]
    fn bypass_all_policy_skips_gpu_fills() {
        let mut cfg = MachineConfig::table_one(16, 7);
        cfg.fill_policy = FillPolicyKind::BypassAll;
        let mut u = Uncore::new(&cfg);
        u.try_request(
            0,
            Source::Gpu,
            BlockReq {
                token: 5,
                addr: 1 << 41,
                write: false,
            },
        );
        let done = run_for(&mut u, 0, 2000);
        assert_eq!(done.len(), 1, "data still delivered");
        assert!(!u.llc.probe(1 << 41), "fill bypassed the LLC");
        assert_eq!(u.stats.gpu_fills_bypassed.get(), 1);
    }

    #[test]
    fn dirty_eviction_reaches_dram_as_write() {
        let mut cfg = MachineConfig::table_one(16, 7);
        cfg.llc_bytes = 2 * 16 * 64; // tiny LLC
        let mut u = Uncore::new(&cfg);
        let mut now = 0;
        // GPU dirty writes fill the tiny LLC, then keep evicting.
        for i in 0..128u64 {
            while !u.try_request(
                now,
                Source::Gpu,
                BlockReq {
                    token: 0,
                    addr: (1 << 41) + i * 64,
                    write: true,
                },
            ) {
                u.tick(now, SchedCtx::default());
                now += 1;
            }
            for _ in 0..100 {
                u.tick(now, SchedCtx::default());
                now += 1;
            }
        }
        for _ in 0..5000 {
            u.tick(now, SchedCtx::default());
            now += 1;
        }
        let writes: u64 = u.channels.iter().map(|c| c.stats.writes.get()).sum();
        assert!(writes > 0, "dirty victims must be written to DRAM");
        let gpu_wb: u64 = u
            .channels
            .iter()
            .map(|c| c.stats.gpu_write_bytes.get())
            .sum();
        assert!(gpu_wb > 0, "and attributed to the GPU");
    }

    #[test]
    fn way_partitioning_caps_gpu_llc_occupancy() {
        let mut cfg = MachineConfig::table_one(16, 7);
        cfg.llc_bytes = 2 * 16 * 64; // 2 sets × 16 ways
        cfg.gpu_llc_ways = Some(4);
        let mut u = Uncore::new(&cfg);
        let mut now = 0;
        for i in 0..128u64 {
            while !u.try_request(
                now,
                Source::Gpu,
                BlockReq {
                    token: i,
                    addr: (1 << 41) + i * 64,
                    write: false,
                },
            ) {
                u.tick(now, SchedCtx::default());
                now += 1;
            }
            for _ in 0..200 {
                u.tick(now, SchedCtx::default());
                now += 1;
            }
        }
        let gpu_lines = u.llc.count_lines_where(|s, _| s.is_gpu());
        assert!(
            gpu_lines <= 2 * 4,
            "GPU confined to 4 ways/set: {gpu_lines}"
        );
    }

    #[test]
    fn channel_partitioning_separates_traffic() {
        let mut cfg = MachineConfig::table_one(16, 7);
        cfg.partition_channels = true;
        let mut u = Uncore::new(&cfg);
        let mut now = 0;
        for i in 0..16u64 {
            let (src, addr) = if i % 2 == 0 {
                (Source::Cpu(0), i * 64)
            } else {
                (Source::Gpu, (1 << 41) + i * 64)
            };
            while !u.try_request(
                now,
                src,
                BlockReq {
                    token: i,
                    addr,
                    write: false,
                },
            ) {
                u.tick(now, SchedCtx::default());
                now += 1;
            }
        }
        for _ in 0..3000 {
            u.tick(now, SchedCtx::default());
            now += 1;
        }
        assert_eq!(
            u.channels[0].stats.gpu_read_bytes.get(),
            0,
            "channel 0 is CPU-only"
        );
        assert_eq!(
            u.channels[1].stats.cpu_read_bytes.get(),
            0,
            "channel 1 is GPU-only"
        );
        assert!(u.channels[0].stats.cpu_read_bytes.get() > 0);
        assert!(u.channels[1].stats.gpu_read_bytes.get() > 0);
    }

    #[test]
    fn fault_plan_delays_completions_deterministically() {
        use gat_sim::faults::FaultPlan;
        let run = |faults: FaultPlan| {
            let mut cfg = MachineConfig::table_one(16, 7);
            cfg.faults = faults;
            let mut u = Uncore::new(&cfg);
            u.try_request(
                0,
                Source::Cpu(0),
                BlockReq {
                    token: 1,
                    addr: 0x1000,
                    write: false,
                },
            );
            let mut out = Vec::new();
            for now in 0..20_000 {
                u.tick(now, SchedCtx::default());
                u.drain_completions(&mut out);
                if !out.is_empty() {
                    return (now, u.faults_injected());
                }
            }
            panic!("request never completed");
        };
        let (clean, f0) = run(FaultPlan::none());
        assert_eq!(f0, 0, "fault-free plan must not install injectors");
        let plan = FaultPlan::parse(
            "dram.bounce=1.0,dram.backoff=64,dram.retries=1,ring.drop=1.0,ring.replay=32",
        )
        .unwrap();
        let (faulted, finj) = run(plan.clone());
        let (faulted2, finj2) = run(plan);
        assert!(finj > 0, "injectors must fire at p=1");
        assert_eq!((faulted, finj), (faulted2, finj2), "same seed, same plan");
        assert!(faulted > clean, "faulted {faulted} vs clean {clean}");
    }

    #[test]
    fn invariants_hold_through_a_busy_run() {
        let mut u = uncore();
        u.check_invariants().unwrap();
        let mut now = 0;
        for i in 0..32u64 {
            while !u.try_request(
                now,
                Source::Cpu((i % 4) as u8),
                BlockReq {
                    token: i,
                    addr: i * 4096,
                    write: false,
                },
            ) {
                u.tick(now, SchedCtx::default());
                now += 1;
            }
            u.tick(now, SchedCtx::default());
            u.check_invariants().unwrap();
            now += 1;
        }
        for _ in 0..3000 {
            u.tick(now, SchedCtx::default());
            now += 1;
            u.check_invariants().unwrap();
        }
        let mut out = Vec::new();
        u.drain_completions(&mut out);
        assert_eq!(out.len(), 32);
        assert_eq!(u.in_flight(), 0);
    }

    #[test]
    fn back_pressure_when_llc_queue_full() {
        let mut cfg = MachineConfig::table_one(16, 7);
        cfg.llc_queue = 4;
        cfg.llc_lookups_per_cycle = 0; // freeze the LLC
        let mut u = Uncore::new(&cfg);
        let mut accepted = 0;
        for i in 0..64u64 {
            if u.try_request(
                0,
                Source::Cpu(0),
                BlockReq {
                    token: i,
                    addr: i * 4096,
                    write: false,
                },
            ) {
                accepted += 1;
            }
            // Deliver ring messages into the queue.
            u.tick(0, SchedCtx::default());
        }
        assert!(accepted < 64, "queue must eventually refuse");
    }

    /// With two LLC MSHRs, misses beyond the second re-fail every cycle
    /// until a fill or MSHR release, and the retry queue is served first:
    /// a read of a block that is already in the LLC waits behind them.
    /// The completion sequence is pinned.
    #[test]
    fn hit_waits_behind_mshr_full_retries() {
        let mut cfg = MachineConfig::table_one(16, 7);
        cfg.llc_latency = 10;
        cfg.llc_mshrs = 2;
        let mut u = Uncore::new(&cfg);
        let read = |token, addr| BlockReq {
            token,
            addr,
            write: false,
        };
        // Warm one block into the LLC and drain the machine.
        assert!(u.try_request(0, Source::Cpu(0), read(99, 0x7000)));
        let warm = run_for(&mut u, 0, 2000);
        assert_eq!(warm.len(), 1);
        assert!(u.llc.probe(0x7000) && !u.busy());
        let start = 2000;
        for i in 0..6u64 {
            let source = Source::Cpu((i % 4) as u8);
            assert!(u.try_request(start, source, read(i, 0x10_0000 + i * 4096)));
        }
        assert!(u.try_request(start, Source::Cpu(0), read(6, 0x7000)));
        let mut seq = Vec::new();
        let mut out = Vec::new();
        for now in start..start + 4000 {
            u.tick(now, SchedCtx::default());
            u.check_invariants().unwrap();
            u.drain_completions(&mut out);
            seq.extend(out.drain(..).map(|c| (c.token, now - start)));
        }
        assert!(!u.busy());
        // Recorded when every retry still repeated its lookup: the hit
        // (token 6) lands after four of the misses.
        assert_eq!(
            seq,
            [
                (3, 147),
                (0, 164),
                (2, 236),
                (1, 253),
                (6, 263),
                (4, 436),
                (5, 453)
            ]
        );
    }
}
