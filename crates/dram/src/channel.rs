//! One DDR3 channel: bounded request queue, 8 bank state machines, shared
//! data bus, and a pluggable scheduler.
//!
//! The channel is ticked once per DRAM command cycle. Each tick the
//! scheduler may start *one* request; the channel then programs the bank
//! through its command sequence (row hit: CAS; closed row: ACT→CAS; row
//! conflict: PRE→ACT→CAS) and registers the completion time. Bank-level
//! constraints (tRCD, tRP, tCCD, tRAS, write recovery/turnaround, tRRD
//! across banks) and single-burst occupancy of the 64-bit data bus are all
//! enforced through ready-time bookkeeping.
//!
//! Queue organization (DESIGN.md §11): each bank keeps its pending
//! requests in a plain `Vec`, in insertion order. Every policy but SMS
//! is served by one walk over those queues (`pick_walk`) that skips whole
//! banks whose earliest command time has not arrived, scans only the
//! issuable banks, and keeps the request with the smallest key under the
//! policy's `PickOrder`. SMS keeps its stage-1 batches across cycles,
//! re-forming them from the queues only when the queue, bank timing or
//! write eligibility changes, and runs stage 2 off those batches on every
//! cycle. Note that insertion order is *not* arrival-stamp order at the
//! rare points where the stamp's 12-bit per-cycle sequence wraps, so pick
//! logic always compares stamps rather than trusting queue position.

use crate::energy::{DramEnergy, DramEnergyModel};
use crate::mapping::DramCoord;
use crate::sched::{PickOrder, SchedCtx, SchedulerImpl, Slot, SmsBatch, SmsPick, SmsReq};
use crate::timing::DramTiming;
use gat_cache::Source;
use gat_sim::faults::DelayInjector;
use gat_sim::stats::{Counter, Log2Histogram, RunningStat};

/// A block-granular memory request entering the controller.
#[derive(Debug, Clone, Copy)]
pub struct DramRequest {
    /// Caller-chosen token returned with the completion.
    pub id: u64,
    pub addr: u64,
    pub write: bool,
    pub source: Source,
}

/// A finished request.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    pub id: u64,
    pub write: bool,
    pub source: Source,
    /// DRAM cycle at which the last data beat transferred.
    pub done_at: u64,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    req: DramRequest,
    coord: DramCoord,
    /// Arrival stamp: cycle × 4096 plus a 12-bit per-arrival sequence.
    /// Stamps along a bank queue are *almost* monotonic but can dip where
    /// the sequence field wraps (see `enqueue`), so consumers compare
    /// stamps.
    arrival: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    /// Earliest cycle the bank accepts its next command (tCCD spacing).
    cmd_ready: u64,
    /// Earliest cycle a PRE may close the open row (last ACT + tRAS).
    pre_ready: u64,
    /// Earliest cycle a read CAS may follow the last write (tWTR).
    read_after_write_ready: u64,
    /// Earliest cycle a PRE may follow the last write (write recovery).
    pre_after_write_ready: u64,
}

/// Aggregate channel statistics; the per-source byte counters feed the
/// paper's Fig. 11 (normalized GPU DRAM bandwidth, read and write).
#[derive(Debug, Default, Clone)]
pub struct DramStats {
    pub reads: Counter,
    pub writes: Counter,
    pub row_hits: Counter,
    pub row_misses: Counter,
    /// Row was closed (neither hit nor conflict).
    pub row_empty: Counter,
    pub cpu_read_bytes: Counter,
    pub cpu_write_bytes: Counter,
    pub gpu_read_bytes: Counter,
    pub gpu_write_bytes: Counter,
    /// Read queueing+service latency in DRAM cycles.
    pub read_latency: RunningStat,
    pub read_latency_hist: Log2Histogram,
    /// Cycles with at least one pending request.
    pub busy_cycles: Counter,
    pub ticks: Counter,
    /// REF commands issued.
    pub refreshes: Counter,
    /// CPU-priority line transitions observed by this channel (each
    /// engage or release of the boost is one flip; §III-C actuation).
    pub prio_boost_flips: Counter,
    /// Ticks spent with the CPU-priority line asserted.
    pub prio_boost_ticks: Counter,
}

impl DramStats {
    pub fn reset(&mut self) {
        *self = DramStats::default();
    }

    /// Row-hit fraction among all serviced requests.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits.get() + self.row_misses.get() + self.row_empty.get();
        if total == 0 {
            0.0
        } else {
            self.row_hits.get() as f64 / total as f64
        }
    }
}

/// Earliest cycle `p`'s first command can start on `bank`: a row hit
/// waits for the bank (and, for a read, tWTR); a conflict also for the
/// PRE's tRAS and write recovery; a closed bank also for the cross-bank
/// tRRD window (`act_any_ready`).
fn issuable_at(bank: &Bank, act_any_ready: u64, p: &Pending) -> u64 {
    match bank.open_row {
        Some(r) if r == p.coord.row => {
            if p.req.write {
                bank.cmd_ready
            } else {
                bank.cmd_ready.max(bank.read_after_write_ready)
            }
        }
        Some(_) => bank
            .cmd_ready
            .max(bank.pre_ready)
            .max(bank.pre_after_write_ready),
        None => bank.cmd_ready.max(act_any_ready),
    }
}

/// Write-buffering watermarks: writes are withheld from scheduling until
/// their count crosses `WRITE_DRAIN_HI`, then drained in a burst down to
/// `WRITE_DRAIN_LO` (or opportunistically when no reads are pending) —
/// standard memory-controller behaviour that protects read row locality
/// from write-back interference.
const WRITE_DRAIN_HI: usize = 24;
const WRITE_DRAIN_LO: usize = 8;

/// One DDR3 channel with its scheduler.
pub struct DramChannel {
    timing: DramTiming,
    banks: Vec<Bank>,
    /// Per-bank pending requests in insertion order (parallel to `banks`).
    bank_q: Vec<Vec<Pending>>,
    /// Live queued requests across all banks.
    len: usize,
    capacity: usize,
    bus_free_at: u64,
    /// Earliest cycle the next ACT on any bank may issue (tRRD spacing).
    act_any_ready: u64,
    scheduler: SchedulerImpl,
    completions: Vec<Completion>,
    /// Exact earliest `done_at` over `completions` (`u64::MAX` when
    /// empty) — O(1) drain early-out.
    done_min: u64,
    /// SMS stage-1 batches, kept across ticks (unused by other policies).
    sms_batches: Vec<SmsBatch>,
    /// [`Self::eligible_ready`] when `sms_batches` were formed.
    sms_eligible_ready: u64,
    /// The write eligibility `sms_batches` were formed under; `None` once
    /// an enqueue, a removal or a REF has made them (or
    /// `sms_eligible_ready`) stale.
    sms_formed: Option<bool>,
    /// Scratch for SMS's stage-1 input (never read across formations).
    sms_reqs: Vec<SmsReq>,
    arrivals: u64,
    /// Queued writes (kept in lockstep with the queue so the per-tick
    /// write-drain hysteresis needs no queue pass).
    queued_writes: usize,
    /// The scheduler is known to return `None` before this cycle: no
    /// eligible request's bank can start a first command earlier, the
    /// queue is unchanged, and the policy is
    /// [`SchedulerImpl::pure_when_starved`]. Cleared on enqueue, refresh,
    /// and reset; never set for impure policies, so they still see every
    /// cycle.
    starved_until: u64,
    /// Cached [`SchedulerImpl::pure_when_starved`] for the installed policy.
    sched_starved_skip: bool,
    /// Currently in a write-drain burst.
    draining_writes: bool,
    /// Next cycle at which a REF command is due.
    next_refresh: u64,
    energy_model: DramEnergyModel,
    pub energy: DramEnergy,
    pub stats: DramStats,
    /// Last observed state of the CPU-priority line (flip detection).
    last_prio_boost: bool,
    /// Seeded response-delay/retry fault injector (chaos harness). When
    /// armed, a completion may be bounced: its visible `done_at` is pushed
    /// out by an exponential-backoff delay while bank/bus timing is
    /// unaffected (the data moved; the response got lost and replayed).
    fault: Option<DelayInjector>,
}

impl DramChannel {
    pub fn new(
        timing: DramTiming,
        banks: u32,
        queue_capacity: usize,
        scheduler: SchedulerImpl,
    ) -> Self {
        let sched_starved_skip = scheduler.pure_when_starved();
        Self {
            timing,
            banks: vec![Bank::default(); banks as usize],
            bank_q: vec![Vec::new(); banks as usize],
            len: 0,
            capacity: queue_capacity,
            bus_free_at: 0,
            act_any_ready: 0,
            scheduler,
            completions: Vec::new(),
            done_min: u64::MAX,
            sms_batches: Vec::new(),
            sms_eligible_ready: u64::MAX,
            sms_formed: None,
            sms_reqs: Vec::new(),
            arrivals: 0,
            queued_writes: 0,
            starved_until: 0,
            sched_starved_skip,
            draining_writes: false,
            next_refresh: timing.t_refi,
            energy_model: DramEnergyModel::ddr3_2133(),
            energy: DramEnergy::default(),
            stats: DramStats::default(),
            last_prio_boost: false,
            fault: None,
        }
    }

    /// Arm the response-delay fault injector (chaos harness; see
    /// `gat_sim::faults`). Draws happen only at issue time, which the
    /// starved-span skip never elides, so faulted runs stay
    /// byte-deterministic.
    pub fn set_fault_injector(&mut self, inj: DelayInjector) {
        self.fault = Some(inj);
    }

    /// Completions bounced by the fault injector so far.
    pub fn faults_injected(&self) -> u64 {
        self.fault.as_ref().map(|f| f.injected).unwrap_or(0)
    }

    /// Request-queue capacity (paranoia invariant checks).
    pub fn queue_capacity(&self) -> usize {
        self.capacity
    }

    /// Room for another request?
    pub fn can_accept(&self) -> bool {
        self.len < self.capacity
    }

    pub fn queue_len(&self) -> usize {
        self.len
    }

    /// Any queued work or undelivered completions?
    pub fn busy(&self) -> bool {
        self.len > 0 || !self.completions.is_empty()
    }

    /// Accept a request (caller must have checked [`Self::can_accept`]).
    ///
    /// # Panics
    /// Panics if the queue is full.
    pub fn enqueue(&mut self, req: DramRequest, coord: DramCoord, now: u64) {
        assert!(self.can_accept(), "DRAM queue overflow");
        // The low 12 bits sequence same-cycle pushes. The field wraps mod
        // 4096, so once per 4096 enqueues a later same-cycle push can get
        // a *smaller* stamp than its predecessor — the historical tie
        // order the goldens pin. Pick logic therefore compares stamps and
        // never assumes queue position implies stamp order.
        let arrival = now * 4096 + (self.arrivals & 0xFFF);
        self.arrivals += 1;
        self.queued_writes += usize::from(req.write);
        // A new arrival can change the starved verdict (it may be
        // issuable at once, or flip write eligibility) and SMS's batches.
        self.starved_until = 0;
        self.sms_formed = None;
        self.bank_q[coord.bank as usize].push(Pending {
            req,
            coord,
            arrival,
        });
        self.len += 1;
    }

    /// Take the request at `(bank, index)` off its bank queue, keeping
    /// the rest in insertion order. The shift is bounded by the bank's
    /// queue length (short: the whole channel holds at most `capacity`
    /// requests across all banks).
    fn remove(&mut self, (bank, index): Slot) -> Pending {
        let p = self.bank_q[bank].remove(index);
        self.sms_formed = None;
        self.len -= 1;
        self.queued_writes -= usize::from(p.req.write);
        p
    }

    /// Every non-SMS policy's pick, straight off the per-bank queues: the
    /// issuable, eligible request with the smallest `(class, arrival)`
    /// under `order`. Banks where no command class can start this cycle
    /// are skipped in O(1) (`cmd_ready` gates every class); issuable
    /// banks are walked in full, comparing keys directly. The walk must
    /// NOT stop at the first candidate: the per-cycle sequence bits of
    /// the arrival stamp wrap every 4096 arrivals, so a bank queue is
    /// insertion-ordered but not strictly stamp-ordered across a wrap,
    /// and the pick contract is "smallest key", not "first queued".
    fn pick_walk(&self, now: u64, writes_eligible: bool, order: PickOrder) -> Option<Slot> {
        let mut best: Option<((u8, u64), Slot)> = None;
        let mut offer = |p: &Pending, row_miss: bool, slot: Slot| {
            let class = order.class(p.req.source.is_gpu(), row_miss, p.arrival, now);
            let key = (class, p.arrival);
            if best.is_none_or(|(k, _)| key < k) {
                best = Some((key, slot));
            }
        };
        for (bi, q) in self.bank_q.iter().enumerate() {
            if q.is_empty() {
                continue;
            }
            let bank = &self.banks[bi];
            if bank.cmd_ready > now {
                continue;
            }
            match bank.open_row {
                None => {
                    // Closed bank: every request is an ACT→CAS, gated by
                    // the cross-bank tRRD window.
                    if self.act_any_ready > now {
                        continue;
                    }
                    for (i, p) in q.iter().enumerate() {
                        if !p.req.write || writes_eligible {
                            offer(p, true, (bi, i));
                        }
                    }
                }
                Some(open) => {
                    // Row hit: writes wait only on cmd_ready (checked
                    // above); reads also on tWTR. Conflicts additionally
                    // wait on tRAS and write recovery before the PRE.
                    let hit_read_ok = bank.read_after_write_ready <= now;
                    let conflict_ok = bank.pre_ready.max(bank.pre_after_write_ready) <= now;
                    if !conflict_ok && !hit_read_ok && !writes_eligible {
                        // Reads: hits blocked by tWTR, conflicts by PRE
                        // gating; writes ineligible — nothing can issue.
                        continue;
                    }
                    for (i, p) in q.iter().enumerate() {
                        if !p.req.write || writes_eligible {
                            if p.coord.row == open {
                                if p.req.write || hit_read_ok {
                                    offer(p, false, (bi, i));
                                }
                            } else if conflict_ok {
                                offer(p, true, (bi, i));
                            }
                        }
                    }
                }
            }
        }
        best.map(|(_, slot)| slot)
    }

    /// Earliest `issuable_at` over eligible queued requests (`u64::MAX`
    /// if none is eligible). Only consulted on the tick that enters a
    /// starved span, so the full walk amortizes over the skipped cycles.
    fn eligible_ready(&self, writes_eligible: bool) -> u64 {
        let mut ready = u64::MAX;
        for (q, bank) in self.bank_q.iter().zip(&self.banks) {
            for p in q {
                if !p.req.write || writes_eligible {
                    ready = ready.min(issuable_at(bank, self.act_any_ready, p));
                }
            }
        }
        ready
    }

    /// SMS stage-1 input: every eligible queued request into `out`.
    /// Returns [`Self::eligible_ready`] from the same walk.
    fn sms_reqs(&self, writes_eligible: bool, out: &mut Vec<SmsReq>) -> u64 {
        out.clear();
        let mut ready = u64::MAX;
        for (bi, (q, bank)) in self.bank_q.iter().zip(&self.banks).enumerate() {
            for (i, p) in q.iter().enumerate() {
                if !p.req.write || writes_eligible {
                    let at = issuable_at(bank, self.act_any_ready, p);
                    ready = ready.min(at);
                    out.push(SmsReq {
                        source: p.req.source.encode(),
                        arrival: p.arrival,
                        bank: p.coord.bank,
                        row: p.coord.row,
                        issuable_at: at,
                        slot: (bi, i),
                    });
                }
            }
        }
        ready
    }

    /// SMS's pick for this cycle. The batches are re-formed only when
    /// stale or formed under the other write eligibility; they (and
    /// `sms_eligible_ready`) depend on nothing else, since bank timing
    /// moves only on an issue (which removes a request) or a REF.
    fn sms_pick(&mut self, now: u64, writes_eligible: bool) -> Option<Slot> {
        if self.sms_formed != Some(writes_eligible) {
            let mut reqs = std::mem::take(&mut self.sms_reqs);
            self.sms_eligible_ready = self.sms_reqs(writes_eligible, &mut reqs);
            let sms = self.scheduler.sms_mut()?;
            sms.form_batches(&mut reqs, &mut self.sms_batches);
            self.sms_reqs = reqs;
            self.sms_formed = Some(writes_eligible);
        }
        // Starved: no eligible request can start a first command, so the
        // policy coin and the round-robin cursor must not move, or the
        // RNG stream would depend on how many starved cycles the channel
        // ticked through (see `pure_when_starved`).
        if now < self.sms_eligible_ready {
            return None;
        }
        match self
            .scheduler
            .sms_mut()?
            .pick(&self.sms_batches, now, self.len)
        {
            SmsPick::Head(slot) => Some(slot),
            SmsPick::FrFcfs => self.pick_walk(now, writes_eligible, PickOrder::RowHitFirst),
            SmsPick::Idle => None,
        }
    }

    /// Issue a REF when due: precharge all banks and hold the rank for
    /// tRFC. Simplification vs a real controller: REF is not deferred
    /// behind in-flight bursts (it lands on bank ready-times, so overlap
    /// resolves through the max), and the 8×-postponement window of DDR3
    /// is not modeled — both affect baseline and proposals identically.
    fn refresh_if_due(&mut self, now: u64) {
        if now < self.next_refresh {
            return;
        }
        let end = now + self.timing.t_rfc;
        for b in &mut self.banks {
            b.open_row = None;
            b.cmd_ready = b.cmd_ready.max(end);
            b.pre_ready = 0;
        }
        self.act_any_ready = self.act_any_ready.max(end);
        // REF rewrites bank timing, so any cached starved verdict (and
        // SMS's cached head and eligible readiness) is stale.
        self.starved_until = 0;
        self.sms_formed = None;
        self.next_refresh += self.timing.t_refi;
        self.stats.refreshes.inc();
        self.energy.refresh_pj += self.energy_model.refresh_pj;
    }

    /// Advance one DRAM command cycle: let the scheduler start at most one
    /// request.
    pub fn tick(&mut self, now: u64, ctx: SchedCtx) {
        self.stats.ticks.inc();
        if ctx.cpu_prio_boost != self.last_prio_boost {
            self.stats.prio_boost_flips.inc();
            self.last_prio_boost = ctx.cpu_prio_boost;
        }
        if ctx.cpu_prio_boost {
            self.stats.prio_boost_ticks.inc();
        }
        self.energy.background_pj += self.energy_model.background_pj_per_cycle;
        self.refresh_if_due(now);
        if self.len == 0 {
            return;
        }
        self.stats.busy_cycles.inc();
        // Known-starved span: nothing new arrived, no bank timing moved,
        // and no eligible request's first command is ready yet, so a
        // pure-when-starved scheduler would pick nothing again. Skip
        // straight out (bookkeeping above still ran).
        if now < self.starved_until {
            return;
        }
        let writes_eligible = self.writes_eligible();
        // `ready` is the earliest `issuable_at` over eligible requests,
        // needed only when nothing is picked.
        let (picked, ready) = match self.scheduler.pick_order(ctx) {
            Some(order) => match self.pick_walk(now, writes_eligible, order) {
                Some(slot) => (Some(slot), 0),
                None => (None, self.eligible_ready(writes_eligible)),
            },
            None => (self.sms_pick(now, writes_eligible), self.sms_eligible_ready),
        };
        match picked {
            Some(slot) => {
                let p = self.remove(slot);
                self.issue(p, now);
            }
            None if self.sched_starved_skip => {
                // If nothing was issuable+eligible, that verdict holds
                // until the earliest bank-ready time (enqueue/REF clear
                // it sooner); otherwise `ready <= now` and this is a
                // no-op.
                self.starved_until = ready;
            }
            None => {}
        }
    }

    /// Update the write-drain hysteresis and return whether writes may
    /// issue this cycle: while draining, or when no reads are waiting
    /// (the queue is all writes). The incrementally tracked write count
    /// settles it without a queue pass; with the count unchanged, a
    /// second call returns the same answer.
    fn writes_eligible(&mut self) -> bool {
        debug_assert_eq!(
            self.queued_writes,
            self.bank_q.iter().flatten().filter(|p| p.req.write).count()
        );
        let writes = self.queued_writes;
        if writes >= WRITE_DRAIN_HI {
            self.draining_writes = true;
        } else if writes <= WRITE_DRAIN_LO {
            self.draining_writes = false;
        }
        self.draining_writes || writes == self.len
    }

    fn issue(&mut self, p: Pending, now: u64) {
        let t = self.timing;
        let bank_idx = p.coord.bank as usize;
        let bank = &mut self.banks[bank_idx];
        let row_state = bank.open_row;

        // First-command time and resulting CAS time.
        let cas_at = match row_state {
            Some(r) if r == p.coord.row => {
                self.stats.row_hits.inc();
                let mut at = now.max(bank.cmd_ready);
                if !p.req.write {
                    at = at.max(bank.read_after_write_ready);
                }
                at
            }
            Some(_) => {
                self.stats.row_misses.inc();
                self.energy.act_pre_pj += self.energy_model.act_pre_pj;
                let pre_at = now
                    .max(bank.cmd_ready)
                    .max(bank.pre_ready)
                    .max(bank.pre_after_write_ready);
                let act_at = pre_at + t.t_rp;
                bank.pre_ready = act_at + t.t_ras;
                self.act_any_ready = act_at + t.t_rrd;
                act_at + t.t_rcd
            }
            None => {
                self.stats.row_empty.inc();
                self.energy.act_pre_pj += self.energy_model.act_pre_pj;
                let act_at = now.max(bank.cmd_ready).max(self.act_any_ready);
                bank.pre_ready = act_at + t.t_ras;
                self.act_any_ready = act_at + t.t_rrd;
                act_at + t.t_rcd
            }
        };

        let cas_delay = if p.req.write { t.t_cwl } else { t.t_cl };
        // The data burst may have to wait for the shared bus; model the
        // wait by pushing the burst start out (equivalent to delaying CAS).
        let data_start = (cas_at + cas_delay).max(self.bus_free_at);
        let burst_done = data_start + t.t_burst;
        self.bus_free_at = burst_done;
        // A bounced completion is re-queued with exponential backoff: the
        // data moved (bank/bus timing above is final), but the response is
        // observed late. Bank ready-times stay on the physical burst end.
        let done_at = match self.fault.as_mut() {
            Some(inj) => burst_done + inj.delay(),
            None => burst_done,
        };

        bank.open_row = Some(p.coord.row);
        bank.cmd_ready = cas_at + t.t_ccd;
        if p.req.write {
            bank.read_after_write_ready = burst_done + t.t_wtr;
            bank.pre_after_write_ready = burst_done + t.t_wr;
            self.stats.writes.inc();
            self.energy.write_pj += self.energy_model.write_pj;
            match p.req.source {
                Source::Gpu => self.stats.gpu_write_bytes.add(64),
                Source::Cpu(_) => self.stats.cpu_write_bytes.add(64),
            }
        } else {
            self.stats.reads.inc();
            self.energy.read_pj += self.energy_model.read_pj;
            let lat = done_at.saturating_sub(p.arrival / 4096);
            self.stats.read_latency.push(lat as f64);
            self.stats.read_latency_hist.record(lat);
            match p.req.source {
                Source::Gpu => self.stats.gpu_read_bytes.add(64),
                Source::Cpu(_) => self.stats.cpu_read_bytes.add(64),
            }
        }
        self.completions.push(Completion {
            id: p.req.id,
            write: p.req.write,
            source: p.req.source,
            done_at,
        });
        self.done_min = self.done_min.min(done_at);
    }

    /// Remove and return all completions due at or before `now`.
    pub fn drain_completions(&mut self, now: u64, out: &mut Vec<Completion>) {
        if now < self.done_min {
            // Nothing due: `out` is left exactly as-is (any earlier
            // channel's drain already sorted it, so re-sorting is a no-op).
            return;
        }
        let mut remaining = u64::MAX;
        let mut i = 0;
        while i < self.completions.len() {
            if self.completions[i].done_at <= now {
                out.push(self.completions.swap_remove(i));
            } else {
                remaining = remaining.min(self.completions[i].done_at);
                i += 1;
            }
        }
        self.done_min = remaining;
        // Deterministic delivery order regardless of swap_remove shuffling.
        out.sort_by_key(|c| (c.done_at, c.id));
    }

    /// Validate queue bookkeeping (GAT_PARANOIA sweeps): every entry is
    /// on its own bank's queue, each queue is ordered by arrival *cycle*
    /// (stamps themselves may dip within a cycle where the 12-bit
    /// sequence field wraps), and the counts agree.
    pub fn check_queue_invariants(&self) {
        let mut queued = 0usize;
        let mut writes = 0usize;
        for (bi, q) in self.bank_q.iter().enumerate() {
            let mut last_cycle = 0u64;
            for p in q {
                assert_eq!(p.coord.bank as usize, bi, "request on wrong bank queue");
                assert!(
                    p.arrival / 4096 >= last_cycle,
                    "bank queue out of arrival-cycle order"
                );
                last_cycle = p.arrival / 4096;
                writes += usize::from(p.req.write);
            }
            queued += q.len();
        }
        assert_eq!(queued, self.len, "queue length drift");
        assert_eq!(writes, self.queued_writes, "queued-write count drift");
        // SMS's kept batches must be what a fresh formation would give.
        // Forming into a local buffer leaves the coin and cursor alone.
        if let (Some(formed), SchedulerImpl::Sms(sms) | SchedulerImpl::SmsUnskipped(sms)) =
            (self.sms_formed, &self.scheduler)
        {
            let writes_eligible = self.draining_writes || self.queued_writes == self.len;
            assert_eq!(
                formed, writes_eligible,
                "SMS batches kept across a write-eligibility flip"
            );
            // Paranoia-only, so these buffers are never on the production tick.
            let (mut reqs, mut fresh) = (Vec::new(), Vec::new());
            let ready = self.sms_reqs(writes_eligible, &mut reqs);
            sms.form_batches(&mut reqs, &mut fresh);
            assert_eq!(fresh, self.sms_batches, "stale SMS batches");
            assert_eq!(
                ready, self.sms_eligible_ready,
                "stale SMS eligible-ready cycle"
            );
            assert_eq!(ready, self.eligible_ready(writes_eligible));
        }
    }
}

impl std::fmt::Debug for DramChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DramChannel")
            .field("queue", &self.len)
            .field("scheduler", &self.scheduler)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::DramAddressMap;
    use crate::sched::SchedulerKind;
    use proptest::prelude::*;

    const MAP: DramAddressMap = DramAddressMap::table_one();

    fn channel() -> DramChannel {
        DramChannel::new(
            DramTiming::ddr3_2133(),
            8,
            64,
            SchedulerKind::FrFcfs.build(0),
        )
    }

    fn read(id: u64, addr: u64) -> DramRequest {
        DramRequest {
            id,
            addr,
            write: false,
            source: Source::Cpu(0),
        }
    }

    /// Run the channel until all completions drain; returns them in
    /// completion order.
    fn run_until_idle(ch: &mut DramChannel, start: u64) -> Vec<Completion> {
        let mut out = Vec::new();
        let mut now = start;
        while ch.busy() {
            ch.tick(now, SchedCtx::default());
            ch.drain_completions(now, &mut out);
            now += 1;
            assert!(now < start + 100_000, "channel wedged");
        }
        ch.check_queue_invariants();
        out
    }

    #[test]
    fn single_read_takes_act_plus_cas_latency() {
        let mut ch = channel();
        let addr = 0u64;
        ch.enqueue(read(1, addr), MAP.decompose(addr), 0);
        let done = run_until_idle(&mut ch, 0);
        assert_eq!(done.len(), 1);
        let t = DramTiming::ddr3_2133();
        // Closed row: ACT at 0, CAS at tRCD, data done at +tCL+tBURST.
        assert_eq!(done[0].done_at, t.t_rcd + t.t_cl + t.t_burst);
    }

    #[test]
    fn row_hit_is_faster_than_conflict() {
        let t = DramTiming::ddr3_2133();
        // Two reads to the same row.
        let mut ch = channel();
        let a = 0u64;
        let b = 128; // same channel (0), same row, next column
        assert_eq!(MAP.decompose(a).row, MAP.decompose(b).row);
        ch.enqueue(read(1, a), MAP.decompose(a), 0);
        ch.enqueue(read(2, b), MAP.decompose(b), 0);
        let done = run_until_idle(&mut ch, 0);
        let hit_gap = done[1].done_at - done[0].done_at;
        assert_eq!(hit_gap, t.t_burst, "back-to-back hits stream at burst rate");
        assert_eq!(ch.stats.row_hits.get(), 1);

        // Two reads to different rows of the same bank.
        let mut ch = channel();
        let row_span = u64::from(MAP.channels) * MAP.row_bytes; // next row, same raw bank
                                                                // Find an address pair in the same bank, different row.
        let mut conflict_addr = None;
        for k in 1..64u64 {
            let cand = k * row_span;
            let (d0, dk) = (MAP.decompose(0), MAP.decompose(cand));
            if d0.channel == dk.channel && d0.bank == dk.bank && d0.row != dk.row {
                conflict_addr = Some(cand);
                break;
            }
        }
        let cand = conflict_addr.expect("bank-conflicting pair exists");
        ch.enqueue(read(1, 0), MAP.decompose(0), 0);
        ch.enqueue(read(2, cand), MAP.decompose(cand), 0);
        let done = run_until_idle(&mut ch, 0);
        let conflict_gap = done[1].done_at - done[0].done_at;
        assert!(
            conflict_gap > hit_gap,
            "conflict gap {conflict_gap} must exceed hit gap {hit_gap}"
        );
        assert_eq!(ch.stats.row_misses.get(), 1);
    }

    #[test]
    fn bank_parallelism_overlaps_activations() {
        // Reads to two different banks finish sooner than two conflicting
        // reads to one bank.
        let mut ch = channel();
        let a = 0u64;
        // 256 within channel 0 walks columns; pick an address in another bank:
        let mut other_bank = None;
        for k in 1..256u64 {
            let cand = k * 128;
            let (d0, dk) = (MAP.decompose(a), MAP.decompose(cand));
            if d0.channel == dk.channel && d0.bank != dk.bank {
                other_bank = Some(cand);
                break;
            }
        }
        let b = other_bank.unwrap();
        ch.enqueue(read(1, a), MAP.decompose(a), 0);
        ch.enqueue(read(2, b), MAP.decompose(b), 0);
        let done = run_until_idle(&mut ch, 0);
        let t = DramTiming::ddr3_2133();
        // Second ACT is only tRRD behind the first; bursts serialize on the
        // bus, so the second finishes ≥ tBURST after the first but well
        // before a serialized conflict would.
        let gap = done[1].done_at - done[0].done_at;
        assert!(gap >= t.t_burst);
        assert!(
            gap <= t.t_rrd + t.t_burst,
            "gap {gap} too large for bank overlap"
        );
    }

    #[test]
    fn writes_count_bytes_per_source() {
        let mut ch = channel();
        ch.enqueue(
            DramRequest {
                id: 1,
                addr: 0,
                write: true,
                source: Source::Gpu,
            },
            MAP.decompose(0),
            0,
        );
        ch.enqueue(
            DramRequest {
                id: 2,
                addr: 128,
                write: false,
                source: Source::Gpu,
            },
            MAP.decompose(128),
            0,
        );
        ch.enqueue(
            DramRequest {
                id: 3,
                addr: 256,
                write: false,
                source: Source::Cpu(1),
            },
            MAP.decompose(256),
            0,
        );
        let done = run_until_idle(&mut ch, 0);
        assert_eq!(done.len(), 3);
        assert_eq!(ch.stats.gpu_write_bytes.get(), 64);
        assert_eq!(ch.stats.gpu_read_bytes.get(), 64);
        assert_eq!(ch.stats.cpu_read_bytes.get(), 64);
        assert_eq!(ch.stats.cpu_write_bytes.get(), 0);
    }

    #[test]
    fn write_to_read_turnaround_enforced() {
        let t = DramTiming::ddr3_2133();
        let mut ch = channel();
        // Write issues first (no reads pending ⇒ eligible); once its burst
        // is in flight, a read to the same bank must respect tWTR.
        ch.enqueue(
            DramRequest {
                id: 1,
                addr: 0,
                write: true,
                source: Source::Cpu(0),
            },
            MAP.decompose(0),
            0,
        );
        // Let the write get scheduled before the read arrives.
        let mut out = Vec::new();
        ch.tick(0, SchedCtx::default());
        ch.drain_completions(0, &mut out);
        ch.enqueue(read(2, 128), MAP.decompose(128), 1);
        let mut now = 1;
        while ch.busy() {
            ch.tick(now, SchedCtx::default());
            ch.drain_completions(now, &mut out);
            now += 1;
        }
        let write_done = out.iter().find(|c| c.write).unwrap().done_at;
        let read_done = out.iter().find(|c| !c.write).unwrap().done_at;
        assert!(
            read_done >= write_done + t.t_wtr,
            "read {read_done} ignored tWTR after write {write_done}"
        );
    }

    #[test]
    fn writes_buffered_behind_reads_until_watermark() {
        let mut ch = channel();
        // One read plus a few writes: the read must be served first even
        // though the writes are older.
        for i in 0..4u64 {
            ch.enqueue(
                DramRequest {
                    id: i,
                    addr: i * 131 * 128,
                    write: true,
                    source: Source::Cpu(0),
                },
                MAP.decompose(i * 131 * 128),
                0,
            );
        }
        ch.enqueue(read(99, 777 * 128), MAP.decompose(777 * 128), 0);
        let done = run_until_idle(&mut ch, 0);
        assert!(!done[0].write, "the read outruns the buffered writes");
    }

    #[test]
    fn queue_capacity_enforced() {
        let mut ch = DramChannel::new(
            DramTiming::ddr3_2133(),
            8,
            2,
            SchedulerKind::FrFcfs.build(0),
        );
        assert!(ch.can_accept());
        ch.enqueue(read(1, 0), MAP.decompose(0), 0);
        ch.enqueue(read(2, 64), MAP.decompose(64), 0);
        assert!(!ch.can_accept());
    }

    #[test]
    fn streaming_row_hit_rate_is_high() {
        let mut ch = channel();
        let mut now = 0u64;
        let mut out = Vec::new();
        // Stream 512 consecutive channel-0 blocks through the controller.
        for i in 0..512u64 {
            let addr = i * 128;
            while !ch.can_accept() {
                ch.tick(now, SchedCtx::default());
                ch.drain_completions(now, &mut out);
                now += 1;
            }
            ch.enqueue(read(i, addr), MAP.decompose(addr), now);
        }
        while ch.busy() {
            ch.tick(now, SchedCtx::default());
            ch.drain_completions(now, &mut out);
            now += 1;
        }
        assert_eq!(out.len(), 512);
        assert!(
            ch.stats.row_hit_rate() > 0.9,
            "streaming row-hit rate {} too low",
            ch.stats.row_hit_rate()
        );
    }

    #[test]
    fn energy_accrues_per_command_class() {
        let mut ch = channel();
        ch.enqueue(read(1, 0), MAP.decompose(0), 0);
        ch.enqueue(
            DramRequest {
                id: 2,
                addr: 128,
                write: true,
                source: Source::Cpu(0),
            },
            MAP.decompose(128),
            0,
        );
        let _ = run_until_idle(&mut ch, 0);
        let m = DramEnergyModel::ddr3_2133();
        assert_eq!(ch.energy.read_pj, m.read_pj, "one read burst");
        assert_eq!(ch.energy.write_pj, m.write_pj, "one write burst");
        assert_eq!(ch.energy.act_pre_pj, m.act_pre_pj, "one row activation");
        assert!(ch.energy.background_pj > 0.0);
        assert!(ch.energy.total_pj() > 0.0);
    }

    #[test]
    fn refresh_closes_rows_and_stalls_the_rank() {
        let t = DramTiming::ddr3_2133();
        let mut ch = channel();
        // Open a row well before the refresh boundary.
        ch.enqueue(read(1, 0), MAP.decompose(0), 0);
        let _ = run_until_idle(&mut ch, 0);
        assert_eq!(ch.stats.refreshes.get(), 0);
        // A read issued right at tREFI pays the tRFC penalty and loses the
        // open row.
        let due = t.t_refi;
        ch.enqueue(read(2, 128), MAP.decompose(128), due);
        let mut out = Vec::new();
        let mut now = due;
        while ch.busy() {
            ch.tick(now, SchedCtx::default());
            ch.drain_completions(now, &mut out);
            now += 1;
        }
        assert_eq!(ch.stats.refreshes.get(), 1);
        // Row was closed by REF: the access is an ACT+CAS after tRFC.
        let done = out[0].done_at;
        assert!(
            done >= due + t.t_rfc + t.t_rcd + t.t_cl,
            "completion {done} ignored the refresh stall"
        );
    }

    #[test]
    fn refreshes_recur_every_trefi() {
        let t = DramTiming::ddr3_2133();
        let mut ch = channel();
        // Idle-tick across four refresh windows (queue must be non-empty
        // for tick to do work? refresh runs regardless).
        for now in 0..4 * t.t_refi + 10 {
            ch.tick(now, SchedCtx::default());
        }
        assert_eq!(ch.stats.refreshes.get(), 4);
    }

    #[test]
    fn prio_boost_flips_are_counted() {
        let mut ch = channel();
        let boosted = SchedCtx {
            cpu_prio_boost: true,
            ..SchedCtx::default()
        };
        // off → on → on → off → on: three transitions, two boosted ticks
        // before the final one.
        ch.tick(0, SchedCtx::default());
        ch.tick(1, boosted);
        ch.tick(2, boosted);
        ch.tick(3, SchedCtx::default());
        ch.tick(4, boosted);
        assert_eq!(ch.stats.prio_boost_flips.get(), 3);
        assert_eq!(ch.stats.prio_boost_ticks.get(), 3);
    }

    #[test]
    fn fault_injector_delays_only_the_visible_completion() {
        use gat_sim::rng::SimRng;
        let run = |fault: bool| {
            let mut ch = channel();
            if fault {
                // p=1, retries=1: every completion bounced exactly once,
                // +backoff*(2^1-1) = +8 DRAM cycles.
                ch.set_fault_injector(DelayInjector::new(1.0, 8, 1, SimRng::new(3)));
            }
            ch.enqueue(read(1, 0), MAP.decompose(0), 0);
            (run_until_idle(&mut ch, 0), ch.faults_injected())
        };
        let (clean, n0) = run(false);
        let (faulted, n1) = run(true);
        assert_eq!(n0, 0);
        assert_eq!(n1, 1);
        assert_eq!(faulted[0].done_at, clean[0].done_at + 8);
        // Deterministic: the same seed bounces identically.
        assert_eq!(run(true).0[0].done_at, faulted[0].done_at);
    }

    #[test]
    fn completions_drain_in_time_order() {
        let mut ch = channel();
        for i in 0..8u64 {
            ch.enqueue(read(i, i * 128), MAP.decompose(i * 128), 0);
        }
        let done = run_until_idle(&mut ch, 0);
        for w in done.windows(2) {
            assert!(w[0].done_at <= w[1].done_at);
        }
    }

    /// The four policies the walk serves.
    const WALKED: [SchedulerKind; 4] = [
        SchedulerKind::FrFcfs,
        SchedulerKind::FrFcfsCpuPrio,
        SchedulerKind::DynPrio,
        SchedulerKind::StaticCpuPrio,
    ];

    /// The `SchedCtx` whose three signals are the low bits of `b`.
    fn ctx_of(b: u64) -> SchedCtx {
        SchedCtx {
            cpu_prio_boost: b & 1 != 0,
            gpu_urgent: b & 2 != 0,
            gpu_ahead: b & 4 != 0,
        }
    }

    /// `p`'s pick key under the installed policy and `ctx`, spelled out
    /// from each policy's definition rather than through `PickOrder`:
    /// (class bit before the row-miss bit, row miss, class bit after it,
    /// arrival stamp).
    fn reference_key(
        sched: &SchedulerImpl,
        ctx: SchedCtx,
        p: &Pending,
        miss: bool,
        now: u64,
    ) -> (bool, bool, bool, u64) {
        let gpu = p.req.source.is_gpu();
        let young_gpu = gpu && now.saturating_sub(p.arrival / 4096) < 256;
        match sched {
            SchedulerImpl::FrFcfsCpuPrio if ctx.cpu_prio_boost => {
                (false, miss, young_gpu, p.arrival)
            }
            SchedulerImpl::DynPrio if ctx.gpu_urgent => (!gpu, miss, false, p.arrival),
            SchedulerImpl::DynPrio if ctx.gpu_ahead => (gpu, miss, false, p.arrival),
            SchedulerImpl::StaticCpuPrio => (gpu, miss, false, p.arrival),
            SchedulerImpl::FrFcfs
            | SchedulerImpl::FrFcfsCpuPrio
            | SchedulerImpl::DynPrio
            | SchedulerImpl::Sms(_)
            | SchedulerImpl::SmsUnskipped(_) => (false, miss, false, p.arrival),
        }
    }

    /// The pick from scratch: the smallest reference key over every
    /// eligible request whose `issuable_at` has come.
    fn reference_pick(
        ch: &DramChannel,
        now: u64,
        writes_eligible: bool,
        ctx: SchedCtx,
    ) -> Option<Slot> {
        let queued = ch.bank_q.iter().zip(&ch.banks).enumerate();
        queued
            .flat_map(|(bi, (q, bank))| q.iter().enumerate().map(move |(i, p)| (bank, p, (bi, i))))
            .filter(|&(bank, p, _)| {
                (!p.req.write || writes_eligible) && issuable_at(bank, ch.act_any_ready, p) <= now
            })
            .min_by_key(|&(bank, p, _)| {
                let miss = bank.open_row != Some(p.coord.row);
                reference_key(&ch.scheduler, ctx, p, miss, now)
            })
            .map(|(_, _, slot)| slot)
    }

    /// One channel cycle whose issue is checked against the reference
    /// pick: the tick must take exactly that request off the queue, or
    /// nothing when the reference finds nothing.
    fn checked_step(ch: &mut DramChannel, now: u64, ctx: SchedCtx, out: &mut Vec<Completion>) {
        // A REF due now lands before the tick's pick; the tick's own call
        // then finds it done.
        ch.refresh_if_due(now);
        let writes_eligible = ch.writes_eligible();
        let want =
            reference_pick(ch, now, writes_eligible, ctx).map(|(b, i)| ch.bank_q[b][i].req.id);
        let before = ch.queue_len();
        ch.tick(now, ctx);
        let queued = |id| ch.bank_q.iter().flatten().any(|p| p.req.id == id);
        match want {
            Some(id) => assert!(
                ch.queue_len() + 1 == before && !queued(id),
                "cycle {now}: the tick did not issue the reference pick {id}"
            ),
            None => assert_eq!(ch.queue_len(), before, "cycle {now}: issued with no pick"),
        }
        ch.drain_completions(now, out);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over drawn bank queues (stamps unique, queue order unrelated to
        /// stamp order as across a sequence wrap), bank timing around
        /// `now` (so banks are blocked by each constraint in turn), write
        /// eligibility and request ages (both sides of the boost's age
        /// cap), the walk equals the from-scratch minimum of the key for
        /// every policy under every `SchedCtx`.
        #[test]
        fn walk_is_the_minimum_key_over_issuable_requests(
            banks in prop::collection::vec(
                (0u64..4, 280u64..320, 280u64..320, 280u64..320, 280u64..320), 8..9),
            act_any_ready in 280u64..320,
            reqs in prop::collection::vec(
                (0u32..8, 0u64..3, any::<bool>(), any::<bool>(), 0u64..301), 0..40),
            writes_eligible in any::<bool>(),
        ) {
            let now = 300;
            for kind in WALKED {
                let mut ch = DramChannel::new(DramTiming::ddr3_2133(), 8, 64, kind.build(0));
                for (i, &(bank, row, write, gpu, cycle)) in reqs.iter().enumerate() {
                    let source = if gpu { Source::Gpu } else { Source::Cpu(0) };
                    let req = DramRequest { id: i as u64, addr: 0, write, source };
                    ch.enqueue(req, DramCoord { channel: 0, bank, row, col: 0 }, cycle);
                }
                for (b, &(row, cmd, pre, raw, paw)) in ch.banks.iter_mut().zip(&banks) {
                    *b = Bank {
                        // Row 3 stands for a closed bank.
                        open_row: (row < 3).then_some(row),
                        cmd_ready: cmd,
                        pre_ready: pre,
                        read_after_write_ready: raw,
                        pre_after_write_ready: paw,
                    };
                }
                ch.act_any_ready = act_any_ready;
                for ctx in (0..8).map(ctx_of) {
                    let order = ch.scheduler.pick_order(ctx).unwrap();
                    prop_assert_eq!(
                        ch.pick_walk(now, writes_eligible, order),
                        reference_pick(&ch, now, writes_eligible, ctx),
                        "{:?} under {:?}", kind, ctx
                    );
                }
            }
        }
    }

    /// Over a mixed CPU/GPU stream with every fifth request a write, and
    /// the `SchedCtx` signals stepping through every combination, each
    /// walked policy's channel issues exactly the reference pick on every
    /// cycle, starved spans included.
    #[test]
    fn walk_matches_the_reference_pick_on_every_cycle() {
        for kind in WALKED {
            let mut ch = DramChannel::new(DramTiming::ddr3_2133(), 8, 64, kind.build(0));
            let mut out = Vec::new();
            let mut now = 0u64;
            for i in 0..200u64 {
                let addr = (i * 3571 % 4096) * 128;
                while !ch.can_accept() {
                    checked_step(&mut ch, now, ctx_of(now / 50), &mut out);
                    now += 1;
                }
                let source = if i % 3 == 0 {
                    Source::Gpu
                } else {
                    Source::Cpu((i % 4) as u8)
                };
                let req = DramRequest {
                    id: i,
                    addr,
                    write: i % 5 == 0,
                    source,
                };
                ch.enqueue(req, MAP.decompose(addr), now);
                ch.check_queue_invariants();
            }
            while ch.busy() {
                checked_step(&mut ch, now, ctx_of(now / 50), &mut out);
                now += 1;
                assert!(now < 1_000_000, "wedged");
            }
            assert_eq!(out.len(), 200, "{kind:?}");
        }
    }

    /// The arrival stamp's 12-bit sequence field wraps every 4096
    /// enqueues, so a burst straddling the wrap gives a later-enqueued
    /// request a *smaller* stamp than its same-cycle predecessors. The
    /// historical FR-FCFS order is min-stamp, not queue position — pin
    /// that order, and that every walked policy issues the reference
    /// pick through the wrap.
    #[test]
    fn arrival_sequence_wrap_keeps_min_stamp_order() {
        let drive = |kind: SchedulerKind| {
            let mut ch = DramChannel::new(DramTiming::ddr3_2133(), 8, 64, kind.build(0));
            let coord = |row: u64| DramCoord {
                channel: 0,
                bank: 0,
                row,
                col: 0,
            };
            let mut out = Vec::new();
            let mut now = 0u64;
            // Burn the arrivals counter up to 4094 with row-hit filler so
            // the interesting burst straddles the 4095 -> 0 wrap.
            let mut sent = 0u64;
            while sent < 4094 {
                while sent < 4094 && ch.can_accept() {
                    ch.enqueue(read(1000 + sent, 0), coord(0), now);
                    sent += 1;
                }
                while ch.busy() {
                    checked_step(&mut ch, now, SchedCtx::default(), &mut out);
                    now += 1;
                    assert!(now < 1_000_000, "wedged");
                }
            }
            out.clear();
            // Same-cycle burst of three row conflicts on one bank with
            // sequence numbers 4094, 4095, 0 — the last enqueue carries
            // the smallest stamp.
            for (id, row) in [(0u64, 1u64), (1, 2), (2, 3)] {
                ch.enqueue(read(id, 0), coord(row), now);
            }
            ch.check_queue_invariants();
            while ch.busy() {
                checked_step(&mut ch, now, SchedCtx::default(), &mut out);
                now += 1;
                assert!(now < 1_000_000, "wedged");
            }
            out.iter().map(|c| c.id).collect::<Vec<_>>()
        };
        for kind in WALKED {
            assert_eq!(
                drive(kind),
                vec![2, 0, 1],
                "{kind:?}: wrapped-stamp request must issue first (oldest by stamp)"
            );
        }
    }

    /// SMS's anti-deadlock fallback: with 56 requests queued and no batch
    /// ready, it serves like FR-FCFS instead of idling until a batch ages.
    #[test]
    fn sms_serves_frfcfs_when_nearly_full_and_no_batch_is_ready() {
        let mut ch = DramChannel::new(
            DramTiming::ddr3_2133(),
            8,
            64,
            SchedulerKind::Sms(0.9).build(7),
        );
        // 7 same-row reads from each of 8 CPU sources, one bank per
        // source, all in cycle 0: every batch is one short of full,
        // unbroken and young, so none is ready before cycle 8.
        for src in 0..8u8 {
            for k in 0..7u64 {
                let id = u64::from(src) * 7 + k;
                let coord = DramCoord {
                    channel: 0,
                    bank: u32::from(src),
                    row: 1,
                    col: k as u32,
                };
                let req = DramRequest {
                    id,
                    addr: 0,
                    write: false,
                    source: Source::Cpu(src),
                };
                ch.enqueue(req, coord, 0);
            }
        }
        assert_eq!(ch.queue_len(), 56);
        let mut issued_at = Vec::new();
        let mut out = Vec::new();
        let mut now = 0;
        while ch.busy() {
            let before = ch.queue_len();
            ch.tick(now, SchedCtx::default());
            ch.check_queue_invariants();
            if ch.queue_len() < before {
                issued_at.push(now);
            }
            ch.drain_completions(now, &mut out);
            now += 1;
            assert!(now < 100_000, "wedged");
        }
        // The oldest request (a closed-bank ACT, done at tRCD + tCL +
        // tBURST) issues at cycle 0 through the fallback; the queue then
        // drops below 56 and SMS waits for its batches to age.
        assert_eq!(issued_at[..3], [0, 15, 18]);
        let first: Vec<(u64, u64)> = out.iter().take(3).map(|c| (c.id, c.done_at)).collect();
        assert_eq!(first, [(0, 32), (7, 47), (1, 51)]);
    }

    /// A REF rewrites bank timing under SMS's kept batches, so it must
    /// mark them stale: the head's `issuable_at` and the eligible-ready
    /// cycle both move out to the end of tRFC.
    #[test]
    fn sms_batches_reform_after_refresh() {
        let t = DramTiming::ddr3_2133();
        let mut ch = DramChannel::new(
            DramTiming::ddr3_2133(),
            8,
            64,
            SchedulerKind::Sms(0.9).build(7),
        );
        // Two young same-row reads just before the REF: their batch waits
        // to age, so the batches formed at `start` are live when it lands.
        let start = t.t_refi - 4;
        ch.enqueue(read(1, 0), MAP.decompose(0), start);
        ch.enqueue(read(2, 128), MAP.decompose(128), start);
        let mut out = Vec::new();
        let mut now = start;
        while ch.busy() {
            ch.tick(now, SchedCtx::default());
            ch.check_queue_invariants();
            ch.drain_completions(now, &mut out);
            now += 1;
        }
        assert_eq!(ch.stats.refreshes.get(), 1);
        assert!(out[0].done_at >= t.t_refi + t.t_rfc + t.t_rcd + t.t_cl);
    }
}
