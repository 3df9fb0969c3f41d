//! The mini out-of-order core.
//!
//! A compact interval-style timing model with the structures that matter
//! for memory-system studies: a reorder buffer, bounded dispatch and
//! commit widths, bounded L1 ports, MSHR-limited miss parallelism (via
//! [`CpuHierarchy`]), and pointer-chase serialization. With a perfect
//! memory system the core sustains exactly the profile's `base_ipc`;
//! cache misses and DRAM queueing push it down from there, which is the
//! entire CPU-side story of the paper.

use crate::hierarchy::{CpuHierarchy, LoadOutcome, StallCause};
#[cfg(test)]
use crate::stream::StreamGen;
use crate::stream::{InstructionStream, Op};
use gat_cache::MemPort;
use gat_sim::stats::Counter;
use gat_sim::Cycle;
use std::collections::VecDeque;

/// Core microarchitecture parameters (defaults sized like a Haswell-class
/// core, matching the "dynamically scheduled out-of-order issue x86" of
/// Table I).
#[derive(Debug, Clone)]
pub struct CoreConfig {
    pub rob_size: usize,
    /// Instructions dispatched into the ROB per cycle.
    pub dispatch_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Loads/stores that can start a cache access per cycle.
    pub l1_ports: usize,
    /// Front-end refill penalty after a branch misprediction (cycles of
    /// frozen dispatch).
    pub branch_penalty: u32,
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self {
            rob_size: 192,
            dispatch_width: 4,
            commit_width: 4,
            l1_ports: 2,
            branch_penalty: 14,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    /// Completes at the contained cycle.
    Timed(Cycle),
    /// Waiting to start its cache access (in `access_queue`).
    WaitingAccess,
    /// Cache miss outstanding.
    WaitingData,
    Done,
}

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    seq: u64,
    state: EntryState,
}

/// One simulated CPU core bound to its instruction stream and hierarchy.
pub struct Core {
    cfg: CoreConfig,
    stream: InstructionStream,
    pub hierarchy: CpuHierarchy,
    rob: VecDeque<RobEntry>,
    next_seq: u64,
    /// Loads/stores waiting for an L1 port, oldest first:
    /// `(seq, addr, is_store, serialized)`.
    access_queue: VecDeque<(u64, u64, bool, bool)>,
    /// Loads issued below and not yet complete.
    outstanding_loads: usize,
    /// Outstanding *serialized* (pointer-chase) loads: a chase load cannot
    /// issue while another chase load is in flight — one dependence chain,
    /// while independent loads overlap freely around it.
    outstanding_chases: gat_sim::hashing::FastSet<u64>,
    dispatch_credit: f64,
    /// Dispatch is frozen until this cycle (branch-misprediction refill).
    frontend_stall_until: Cycle,
    /// Instructions until the next (deterministically spaced) mispredict.
    instrs_to_misp: u64,
    pub branch_mispredicts: Counter,
    pub retired: Counter,
    pub cycles: Counter,
    /// Cycles in which nothing could be committed.
    pub commit_stall_cycles: Counter,
    /// Retired count / cycle count at the last `mark()` call.
    mark_retired: u64,
    mark_cycles: u64,
    /// Fixed measurement window: IPC is reported over exactly this many
    /// retired instructions after `mark()`, making runs of different wall
    /// length comparable (weighted-speedup inputs must share a window).
    measure_budget: Option<u64>,
    /// Cycles it took to retire the budget, once reached.
    budget_cycles: Option<u64>,
    /// Scratch for completed-load seqs (kept empty between responses).
    resp_seqs: Vec<u64>,
}

impl Core {
    pub fn new(
        cfg: CoreConfig,
        stream: impl Into<InstructionStream>,
        hierarchy: CpuHierarchy,
    ) -> Self {
        Self {
            cfg,
            stream: stream.into(),
            hierarchy,
            rob: VecDeque::new(),
            next_seq: 0,
            access_queue: VecDeque::new(),
            outstanding_loads: 0,
            outstanding_chases: gat_sim::hashing::FastSet::default(),
            dispatch_credit: 0.0,
            frontend_stall_until: 0,
            instrs_to_misp: u64::MAX,
            branch_mispredicts: Counter::new(),
            retired: Counter::new(),
            cycles: Counter::new(),
            commit_stall_cycles: Counter::new(),
            mark_retired: 0,
            mark_cycles: 0,
            measure_budget: None,
            budget_cycles: None,
            resp_seqs: Vec::new(),
        }
    }

    pub fn core_id(&self) -> u8 {
        self.hierarchy.core_id()
    }

    /// Start a measurement window at the current instant.
    pub fn mark(&mut self) {
        self.mark_retired = self.retired.get();
        self.mark_cycles = self.cycles.get();
        self.budget_cycles = None;
    }

    /// Fix the IPC measurement window to `n` retired instructions after
    /// the mark.
    pub fn set_measure_budget(&mut self, n: u64) {
        self.measure_budget = Some(n);
    }

    /// Instructions retired since the last [`Core::mark`].
    pub fn retired_since_mark(&self) -> u64 {
        self.retired.get() - self.mark_retired
    }

    /// IPC over the measurement window: the fixed instruction budget if it
    /// was set and reached, otherwise everything since the last mark.
    pub fn ipc_since_mark(&self) -> f64 {
        if let (Some(b), Some(bc)) = (self.measure_budget, self.budget_cycles) {
            return b as f64 / bc.max(1) as f64;
        }
        let c = self.cycles.get() - self.mark_cycles;
        if c == 0 {
            0.0
        } else {
            self.retired_since_mark() as f64 / c as f64
        }
    }

    /// Advance one CPU cycle. Returns `true` when the core must tick
    /// again next cycle: it flushed a write-back, committed, started an
    /// access (a hit or a miss sent below) or dispatched. `false` leaves
    /// that to [`Core::next_wake`]`(now + 1)`: the tick was inert, or its
    /// only hierarchy call stalled. A first stall is work (it looks up
    /// L1, L2 and the MSHRs), but it leaves the memo that makes the next
    /// retry inert, so the core may sleep from the next cycle on. The
    /// system uses a `false` as the (cheap) signal to compute this core's
    /// wake and skip its ticks until then, instead of probing every cycle.
    pub fn tick(&mut self, now: Cycle, port: &mut dyn MemPort) -> bool {
        self.cycles.inc();
        let flushed = self.hierarchy.writebacks_queued() > 0;
        if flushed {
            self.hierarchy.flush_writebacks(now, port);
        }
        let committed = self.commit(now);
        let started = self.start_accesses(now, port);
        let dispatched = self.dispatch(now, port);
        flushed || committed || started || dispatched
    }

    fn commit(&mut self, now: Cycle) -> bool {
        let mut committed = 0;
        while committed < self.cfg.commit_width {
            match self.rob.front() {
                Some(e) => {
                    let done = match e.state {
                        EntryState::Done => true,
                        EntryState::Timed(at) => at <= now,
                        EntryState::WaitingAccess | EntryState::WaitingData => false,
                    };
                    if done {
                        self.rob.pop_front();
                        self.retired.inc();
                        committed += 1;
                        if self.budget_cycles.is_none() {
                            if let Some(b) = self.measure_budget {
                                if self.retired_since_mark() >= b {
                                    self.budget_cycles = Some(self.cycles.get() - self.mark_cycles);
                                }
                            }
                        }
                    } else {
                        break;
                    }
                }
                None => break,
            }
        }
        if committed == 0 && !self.rob.is_empty() {
            self.commit_stall_cycles.inc();
        }
        committed > 0
    }

    fn set_state(&mut self, seq: u64, state: EntryState) {
        let head_seq = match self.rob.front() {
            Some(e) => e.seq,
            None => return,
        };
        if seq < head_seq {
            return; // already committed (stores commit early)
        }
        let idx = (seq - head_seq) as usize;
        if let Some(e) = self.rob.get_mut(idx) {
            debug_assert_eq!(e.seq, seq);
            e.state = state;
        }
    }

    /// Returns `true` when an access started (hit, or miss sent below).
    /// A stall, first or memoized, returns `false`: the first one leaves
    /// the memo, so from the next cycle on the retry only bumps counters,
    /// which [`Core::fast_forward`] replays.
    fn start_accesses(&mut self, now: Cycle, port: &mut dyn MemPort) -> bool {
        let mut ports_used = 0;
        while ports_used < self.cfg.l1_ports {
            let Some(&(seq, addr, is_store, serialized)) = self.access_queue.front() else {
                break;
            };
            // Pointer-chase loads serialize against the available chains:
            // at most `chase_chains` dependent walks overlap.
            if self.chase_blocked(serialized) {
                break;
            }
            let outcome = if is_store {
                self.hierarchy.store(now, addr, port)
            } else {
                self.hierarchy.load(now, addr, seq, port)
            };
            match outcome {
                LoadOutcome::Hit { latency } => {
                    self.access_queue.pop_front();
                    if is_store {
                        self.set_state(seq, EntryState::Done);
                    } else {
                        self.set_state(seq, EntryState::Timed(now + Cycle::from(latency)));
                    }
                    ports_used += 1;
                }
                LoadOutcome::Pending => {
                    self.access_queue.pop_front();
                    if is_store {
                        // Stores retire without waiting for the fill.
                        self.set_state(seq, EntryState::Done);
                    } else {
                        self.outstanding_loads += 1;
                        if serialized {
                            self.outstanding_chases.insert(seq);
                        }
                        self.set_state(seq, EntryState::WaitingData);
                    }
                    ports_used += 1;
                }
                LoadOutcome::Stall => break,
            }
        }
        ports_used > 0
    }

    fn dispatch(&mut self, now: Cycle, _port: &mut dyn MemPort) -> bool {
        if now < self.frontend_stall_until {
            return false; // refilling after a mispredicted branch
        }
        let profile = *self.stream.profile();
        if self.instrs_to_misp == u64::MAX && profile.branch_mpki > 0.0 {
            self.instrs_to_misp = (1000.0 / profile.branch_mpki) as u64;
        }
        let base_ipc = profile.base_ipc;
        self.dispatch_credit =
            (self.dispatch_credit + base_ipc).min(self.cfg.dispatch_width as f64);
        let mut dispatched = false;
        while self.dispatch_credit >= 1.0 && self.rob.len() < self.cfg.rob_size {
            // Bound the access queue so a long stall doesn't pile up
            // unbounded un-started memory ops.
            if self.access_queue.len() >= self.cfg.rob_size / 2 {
                break;
            }
            let seq = self.next_seq;
            let op = self.stream.next_op();
            let state = match op {
                Op::Alu => EntryState::Timed(now + 1),
                Op::Load { addr, serialized } => {
                    self.access_queue.push_back((seq, addr, false, serialized));
                    EntryState::WaitingAccess
                }
                Op::Store { addr } => {
                    self.access_queue.push_back((seq, addr, true, false));
                    EntryState::WaitingAccess
                }
            };
            self.rob.push_back(RobEntry { seq, state });
            self.next_seq += 1;
            self.dispatch_credit -= 1.0;
            dispatched = true;
            // Deterministically spaced branch mispredictions freeze the
            // front end for the refill penalty.
            if profile.branch_mpki > 0.0 {
                self.instrs_to_misp -= 1;
                if self.instrs_to_misp == 0 {
                    self.instrs_to_misp = (1000.0 / profile.branch_mpki) as u64;
                    self.frontend_stall_until = now + Cycle::from(self.cfg.branch_penalty);
                    self.branch_mispredicts.inc();
                    break;
                }
            }
        }
        dispatched
    }

    /// Earliest cycle at or after `now` at which ticking this core could
    /// do observable work. `None` means the core is active *at* `now` and
    /// must be ticked normally; `Some(w)` means every tick in `[now, w)`
    /// is inert (only per-cycle counters advance, replayed exactly by
    /// [`Core::fast_forward`]); `Some(Cycle::MAX)` means the core is fully
    /// blocked on an external event (a memory response, or for a
    /// port-stalled front the uncore accepting again).
    ///
    /// "Inert" is strict: any tick that would look something up in the
    /// cache hierarchy, pop the ROB, or dispatch an op counts as active.
    /// A retry of the hierarchy's memoized stall is the one hierarchy call
    /// that stays inert: it only bumps counters, which `fast_forward`
    /// replays. Such a front sets no self-wake. An MSHR stall clears on
    /// this core's own memory response, which wakes it; a port stall
    /// holds only while the port refuses, so the system wakes a sleeping
    /// [`Core::port_stalled`] core on the cycle after the uncore can
    /// accept again (DESIGN.md §8).
    pub fn next_wake(&self, now: Cycle) -> Option<Cycle> {
        // Pending write-backs drain to the port every tick.
        if self.hierarchy.writebacks_queued() > 0 {
            return None;
        }
        let mut wake = Cycle::MAX;
        // Commit: a Done/expired-Timed front retires now; a future Timed
        // front fixes a wake cycle.
        if let Some(e) = self.rob.front() {
            match e.state {
                EntryState::Done => return None,
                EntryState::Timed(at) => {
                    if at <= now {
                        return None;
                    }
                    wake = wake.min(at);
                }
                EntryState::WaitingAccess | EntryState::WaitingData => {}
            }
        }
        // Access queue: an attemptable front means `start_accesses` calls
        // into the hierarchy this cycle (side effects even on Stall),
        // unless the call is a memoized retry. A chase-blocked front only
        // unblocks on a memory response, which is delivered by an active
        // uncore — no self-wake needed; nor for a memoized front.
        if let Some(&(_, addr, _, serialized)) = self.access_queue.front() {
            if !self.chase_blocked(serialized) && self.hierarchy.stalled_on(addr).is_none() {
                return None;
            }
        }
        // Dispatch: emits an op once the front end has refilled, credit
        // reaches 1.0 and there is structural room. Credit accrual alone
        // (and its min-cap) is replayed by `fast_forward`.
        let b = self.stream.profile().base_ipc;
        let rob_open =
            self.rob.len() < self.cfg.rob_size && self.access_queue.len() < self.cfg.rob_size / 2;
        if rob_open && b > 0.0 {
            if now < self.frontend_stall_until {
                wake = wake.min(self.frontend_stall_until);
            } else if self.dispatch_credit + b >= 1.0 {
                return None;
            } else {
                // Find the exact tick whose accrual lifts credit to 1.0 by
                // replaying the rounded float sequence (an analytic ceil
                // can be off by one ULP-induced cycle). The loop is short:
                // at most ~1/base_ipc iterations.
                let cap = self.cfg.dispatch_width as f64;
                let mut c = self.dispatch_credit;
                let mut m: Cycle = 0;
                loop {
                    let next = (c + b).min(cap);
                    m += 1;
                    if next >= 1.0 {
                        wake = wake.min(now + m - 1);
                        break;
                    }
                    if next == c {
                        break; // saturated below 1.0: never dispatches
                    }
                    c = next;
                }
            }
        }
        Some(wake)
    }

    /// A chase load cannot issue while every chain has one in flight.
    fn chase_blocked(&self, serialized: bool) -> bool {
        serialized
            && self.outstanding_chases.len() >= usize::from(self.stream.profile().chase_chains)
    }

    /// Is this core's access front a memoized stall that the port refused?
    /// It clears only once the port accepts again, which is no event of
    /// this core's own, so the system wakes the core for it.
    pub fn port_stalled(&self) -> bool {
        self.hierarchy.stall_cause() == Some(StallCause::Port)
    }

    /// Accrued dispatch credit: the one piece of non-counter state that
    /// [`Core::fast_forward`] replays.
    pub fn dispatch_credit(&self) -> f64 {
        self.dispatch_credit
    }

    /// Batch-advance the per-cycle state over the inert span `[from, to)`
    /// (every cycle in it was certified inert by [`Core::next_wake`]).
    /// Counter sums, a memoized stall's `to - from` retries and the
    /// dispatch-credit float sequence are replayed so results stay
    /// bit-identical to per-cycle ticking.
    pub fn fast_forward(&mut self, from: Cycle, to: Cycle) {
        let k = to - from;
        if k == 0 {
            return;
        }
        self.cycles.add(k);
        if !self.rob.is_empty() {
            self.commit_stall_cycles.add(k);
        }
        if let Some(&(_, addr, is_store, serialized)) = self.access_queue.front() {
            if !self.chase_blocked(serialized) && self.hierarchy.stalled_on(addr).is_some() {
                self.hierarchy.replay_retries(is_store, k);
            }
        }
        // Dispatch-credit accrues on every tick at/after the front-end
        // refill point, even when dispatch is structurally blocked. Replay
        // the exact `(c + b).min(cap)` sequence; once it reaches a fixed
        // point (saturated at the cap) further additions are no-ops.
        let b = self.stream.profile().base_ipc;
        let cap = self.cfg.dispatch_width as f64;
        let accrue_from = from.max(self.frontend_stall_until);
        if accrue_from < to {
            let mut d = to - accrue_from;
            while d > 0 {
                let next = (self.dispatch_credit + b).min(cap);
                if next == self.dispatch_credit {
                    break;
                }
                self.dispatch_credit = next;
                d -= 1;
            }
        }
    }

    /// A read the hierarchy sent below has completed (`token` is the block
    /// address used in the request).
    pub fn on_mem_response(&mut self, now: Cycle, token: u64, port: &mut dyn MemPort) {
        let mut seqs = std::mem::take(&mut self.resp_seqs);
        self.hierarchy.on_response(now, token, port, &mut seqs);
        for &seq in &seqs {
            self.outstanding_loads = self.outstanding_loads.saturating_sub(1);
            self.outstanding_chases.remove(&seq);
            self.set_state(seq, EntryState::Done);
        }
        seqs.clear();
        self.resp_seqs = seqs;
    }

    /// Back-invalidation from the inclusive LLC.
    pub fn back_invalidate(&mut self, addr: u64) {
        self.hierarchy.back_invalidate(addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::HierarchyConfig;
    use crate::profile::SpecProfile;
    use gat_cache::{BlockReq, SinkPort};
    use gat_sim::rng::SimRng;

    fn profile(mem_fraction: f64, base_ipc: f64) -> SpecProfile {
        SpecProfile {
            spec_id: 999,
            name: "synthetic",
            working_set: 1 << 20,
            mem_fraction,
            write_fraction: 0.3,
            stream_fraction: 0.5,
            stride_fraction: 0.2,
            chase_fraction: 0.1,
            stride_bytes: 256,
            hot_fraction: 0.8,
            chase_chains: 1,
            branch_mpki: 0.0,
            base_ipc,
        }
    }

    #[test]
    fn branch_mispredictions_cost_ipc() {
        let mut clean = profile(0.0, 2.0);
        clean.branch_mpki = 0.0;
        let mut noisy = profile(0.0, 2.0);
        noisy.branch_mpki = 10.0; // 10 MPKI × 14 cycles = 0.14 CPI extra
        let mut a = core(clean);
        run(&mut a, 20_000, 10);
        let mut b = core(noisy);
        run(&mut b, 20_000, 10);
        let (ipc_a, ipc_b) = (
            a.retired.get() as f64 / 20_000.0,
            b.retired.get() as f64 / 20_000.0,
        );
        assert!(
            ipc_b < ipc_a * 0.92,
            "mispredicts must cost: {ipc_a} vs {ipc_b}"
        );
        assert!(ipc_b > ipc_a * 0.6, "but not cripple: {ipc_a} vs {ipc_b}");
        assert!(b.branch_mispredicts.get() > 100);
        assert_eq!(a.branch_mispredicts.get(), 0);
    }

    fn core(p: SpecProfile) -> Core {
        Core::new(
            CoreConfig::default(),
            StreamGen::new(p, 0, SimRng::new(1)),
            CpuHierarchy::new(0, HierarchyConfig::default()),
        )
    }

    /// Respond to every downstream read after a fixed latency.
    fn run(core: &mut Core, cycles: u64, mem_latency: u64) {
        run_span(core, 0, cycles, mem_latency);
    }

    fn run_span(core: &mut Core, start: u64, end: u64, mem_latency: u64) {
        let mut port = SinkPort::default();
        let mut inflight: Vec<(Cycle, u64)> = Vec::new();
        for now in start..end {
            let due: Vec<u64> = inflight
                .iter()
                .filter(|(t, _)| *t <= now)
                .map(|&(_, tok)| tok)
                .collect();
            inflight.retain(|(t, _)| *t > now);
            for tok in due {
                core.on_mem_response(now, tok, &mut port);
            }
            core.tick(now, &mut port);
            for (t, req) in port.accepted.drain(..) {
                if !req.write {
                    inflight.push((t + mem_latency, req.token));
                }
            }
        }
    }

    #[test]
    fn alu_only_stream_hits_base_ipc() {
        let mut c = core(profile(0.0, 2.0));
        run(&mut c, 10_000, 100);
        let ipc = c.retired.get() as f64 / 10_000.0;
        assert!((ipc - 2.0).abs() < 0.05, "ALU-only IPC {ipc}");
    }

    #[test]
    fn base_ipc_above_one_requires_superscalar_commit() {
        let mut c = core(profile(0.0, 3.5));
        run(&mut c, 10_000, 100);
        let ipc = c.retired.get() as f64 / 10_000.0;
        assert!((ipc - 3.5).abs() < 0.1, "IPC {ipc}");
    }

    #[test]
    fn memory_latency_reduces_ipc() {
        let p = profile(0.4, 2.0);
        let mut fast = core(p);
        run(&mut fast, 50_000, 20);
        let mut slow = core(p);
        run(&mut slow, 50_000, 400);
        let (ipc_f, ipc_s) = (
            fast.retired.get() as f64 / 50_000.0,
            slow.retired.get() as f64 / 50_000.0,
        );
        assert!(
            ipc_s < ipc_f * 0.8,
            "long memory latency must hurt: fast {ipc_f} slow {ipc_s}"
        );
    }

    #[test]
    fn pointer_chasing_hurts_more_than_streaming() {
        let mut chase_p = profile(0.4, 2.0);
        chase_p.stream_fraction = 0.0;
        chase_p.stride_fraction = 0.0;
        chase_p.chase_fraction = 1.0;
        chase_p.write_fraction = 0.0;
        chase_p.working_set = 64 << 20; // thrash private caches

        let mut stream_p = chase_p;
        stream_p.chase_fraction = 0.0;
        stream_p.stream_fraction = 1.0;

        let mut chase = core(chase_p);
        run(&mut chase, 50_000, 200);
        let mut stream = core(stream_p);
        run(&mut stream, 50_000, 200);
        let ipc_chase = chase.retired.get() as f64 / 50_000.0;
        let ipc_stream = stream.retired.get() as f64 / 50_000.0;
        assert!(
            ipc_chase < ipc_stream * 0.6,
            "serialized chases must crater IPC: chase {ipc_chase} stream {ipc_stream}"
        );
    }

    #[test]
    fn mark_window_accounting() {
        let mut c = core(profile(0.0, 1.0));
        run(&mut c, 1000, 10);
        c.mark();
        let r0 = c.retired.get();
        run_span(&mut c, 1000, 2000, 10);
        assert_eq!(c.retired_since_mark(), c.retired.get() - r0);
        let ipc = c.ipc_since_mark();
        assert!((ipc - 1.0).abs() < 0.05, "window IPC {ipc}");
    }

    #[test]
    fn rejected_port_stalls_but_recovers() {
        let p = profile(0.5, 2.0);
        let mut c = core(p);
        let mut port = SinkPort {
            reject_all: true,
            ..Default::default()
        };
        for now in 0..5000 {
            c.tick(now, &mut port);
        }
        let retired_blocked = c.retired.get();
        // With the port closed, the core wedges once the ROB fills with
        // un-startable memory ops.
        assert!(retired_blocked < 2000, "should have stalled hard");
        // Open the port; progress resumes.
        port.reject_all = false;
        let mut inflight: Vec<(Cycle, u64)> = Vec::new();
        for now in 5000..15_000 {
            let due: Vec<u64> = inflight
                .iter()
                .filter(|(t, _)| *t <= now)
                .map(|&(_, tok)| tok)
                .collect();
            inflight.retain(|(t, _)| *t > now);
            for tok in due {
                c.on_mem_response(now, tok, &mut port);
            }
            c.tick(now, &mut port);
            for (t, req) in port.accepted.drain(..) {
                if !req.write {
                    inflight.push((t + 50, req.token));
                }
            }
        }
        assert!(c.retired.get() > retired_blocked + 1000, "must recover");
    }

    #[test]
    fn writes_eventually_reach_the_port() {
        let mut p = profile(0.6, 2.0);
        p.write_fraction = 0.5;
        p.working_set = 8 << 20; // exceed L2 to force dirty evictions
        let mut c = core(p);
        let mut port = SinkPort::default();
        let mut inflight: Vec<(Cycle, u64)> = Vec::new();
        let mut wrote = false;
        for now in 0..200_000u64 {
            let due: Vec<u64> = inflight
                .iter()
                .filter(|(t, _)| *t <= now)
                .map(|&(_, tok)| tok)
                .collect();
            inflight.retain(|(t, _)| *t > now);
            for tok in due {
                c.on_mem_response(now, tok, &mut port);
            }
            c.tick(now, &mut port);
            for (t, req) in port.accepted.drain(..) {
                if req.write {
                    wrote = true;
                } else {
                    inflight.push((t + 30, req.token));
                }
            }
            if wrote {
                break;
            }
        }
        assert!(wrote, "dirty evictions must produce write-backs");
        let _ = BlockReq {
            token: 0,
            addr: 0,
            write: false,
        };
    }
}
