//! DRAM access schedulers: the baseline and every comparison policy in the
//! paper's Fig. 12–14.
//!
//! The channel asks its installed policy for at most one request to
//! service per DRAM command cycle, in one of two ways:
//!
//! * FR-FCFS, FR-FCFS+CPUprio, DynPrio and static CPU priority each name
//!   a `PickOrder` for the cycle's [`SchedCtx`] signals from the QoS
//!   controller; the channel walks its per-bank queues once and issues
//!   the issuable, eligible request with the smallest key under it.
//! * SMS picks in two stages straight off the per-bank queues: stage 1
//!   (`Sms::form_batches`) when the queue changes, stage 2 (`Sms::pick`)
//!   on every cycle.
//!
//! Dispatch is a closed [`SchedulerImpl`] enum rather than a
//! `Box<dyn Scheduler>` (DESIGN.md §11): the policy set is fixed by the
//! paper, the channel tick is the hottest loop in the simulator, and the
//! enum lets the channel ask *which* policy is installed.

use gat_sim::rng::SimRng;

/// Dynamic inputs to scheduling decisions, recomputed by the uncore every
/// cycle.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedCtx {
    /// The proposal's step 3 (§III-C): while the GPU is being throttled,
    /// CPU requests get elevated priority.
    pub cpu_prio_boost: bool,
    /// DynPrio's deadline signal: the GPU is in the last 10 % of its frame
    /// time budget and lagging, so GPU requests get elevated priority.
    pub gpu_urgent: bool,
    /// DynPrio's progress signal: the GPU is ahead of its frame deadline,
    /// so CPU requests take priority (GPU gets *equal* priority only while
    /// it lags — the scheduler's published behaviour).
    pub gpu_ahead: bool,
}

/// Which scheduler to construct (plumbing for experiment configs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerKind {
    FrFcfs,
    FrFcfsCpuPrio,
    /// SMS with the given shortest-job-first probability.
    Sms(f64),
    DynPrio,
    /// Static priority: CPU always beats GPU (the ARM QoS white paper’s
    /// scheme, \[37] in the paper; DynPrio's study shows its inefficiency
    /// — reproduced by our ablation).
    StaticCpuPrio,
}

impl SchedulerKind {
    /// Instantiate the scheduler; `seed` feeds SMS's policy coin.
    pub fn build(self, seed: u64) -> SchedulerImpl {
        match self {
            SchedulerKind::FrFcfs => SchedulerImpl::FrFcfs,
            SchedulerKind::FrFcfsCpuPrio => SchedulerImpl::FrFcfsCpuPrio,
            SchedulerKind::Sms(p) => SchedulerImpl::Sms(Sms::new(p, seed)),
            SchedulerKind::DynPrio => SchedulerImpl::DynPrio,
            SchedulerKind::StaticCpuPrio => SchedulerImpl::StaticCpuPrio,
        }
    }

    pub fn label(&self) -> String {
        match self {
            SchedulerKind::FrFcfs => "FR-FCFS".into(),
            SchedulerKind::FrFcfsCpuPrio => "FR-FCFS+CPUprio".into(),
            SchedulerKind::Sms(p) => format!("SMS-{p}"),
            SchedulerKind::DynPrio => "DynPrio".into(),
            SchedulerKind::StaticCpuPrio => "StaticCPUprio".into(),
        }
    }
}

/// A constructed DRAM scheduling policy, dispatched by `match` instead of
/// a vtable. The set is closed (the paper's comparison policies), so enum
/// dispatch costs one predictable branch where `Box<dyn Scheduler>` paid
/// an indirect call plus a pointer chase on every channel tick. Only SMS
/// carries state; every other policy is a `PickOrder` per cycle.
#[derive(Debug)]
pub enum SchedulerImpl {
    /// Baseline first-ready, first-come-first-served (Table I).
    FrFcfs,
    /// FR-FCFS that serves CPU requests ahead of young GPU requests while
    /// the QoS controller asserts `cpu_prio_boost` (the proposal, §III-C).
    /// Without the boost it is identical to the baseline.
    FrFcfsCpuPrio,
    Sms(Sms),
    /// DynPrio (Jeong et al., DAC 2012): equal priority while the GPU
    /// lags, the CPU first while the GPU is ahead of its frame deadline,
    /// and the GPU first while the frame-progress estimator flags the
    /// deadline as endangered (last 10 % of the frame-time budget).
    DynPrio,
    /// Static priority (ARM QoS white paper): CPU requests
    /// unconditionally beat GPU requests, regardless of frame progress.
    /// Row hits are still preferred within each class.
    StaticCpuPrio,
    /// Test-harness variant: SMS with its starved-skip claim stripped, so
    /// the channel runs the SMS path on every busy cycle. Exists for the
    /// starved-skip equivalence property test (`tests/proptest_dram.rs`);
    /// never constructed by [`SchedulerKind::build`].
    SmsUnskipped(Sms),
}

impl SchedulerImpl {
    /// SMS without the starved-skip (see the variant docs).
    pub fn sms_unskipped(p_sjf: f64, seed: u64) -> Self {
        SchedulerImpl::SmsUnskipped(Sms::new(p_sjf, seed))
    }

    /// How the policy orders the issuable requests under `ctx`, or `None`
    /// under SMS, which picks off its batches instead (`Sms::form_batches`,
    /// `Sms::pick`).
    #[inline]
    pub(crate) fn pick_order(&self, ctx: SchedCtx) -> Option<PickOrder> {
        match self {
            SchedulerImpl::FrFcfs => Some(PickOrder::RowHitFirst),
            SchedulerImpl::FrFcfsCpuPrio if ctx.cpu_prio_boost => Some(PickOrder::BoostCpu),
            SchedulerImpl::FrFcfsCpuPrio => Some(PickOrder::RowHitFirst),
            SchedulerImpl::DynPrio if ctx.gpu_urgent => Some(PickOrder::GpuFirst),
            SchedulerImpl::DynPrio if ctx.gpu_ahead => Some(PickOrder::CpuFirst),
            SchedulerImpl::DynPrio => Some(PickOrder::RowHitFirst),
            SchedulerImpl::StaticCpuPrio => Some(PickOrder::CpuFirst),
            SchedulerImpl::Sms(_) | SchedulerImpl::SmsUnskipped(_) => None,
        }
    }

    /// The installed SMS policy, if any.
    pub(crate) fn sms_mut(&mut self) -> Option<&mut Sms> {
        match self {
            SchedulerImpl::Sms(s) | SchedulerImpl::SmsUnskipped(s) => Some(s),
            SchedulerImpl::FrFcfs
            | SchedulerImpl::FrFcfsCpuPrio
            | SchedulerImpl::DynPrio
            | SchedulerImpl::StaticCpuPrio => None,
        }
    }

    /// True when the policy is *inert under starvation*: on any cycle
    /// where no request is both issuable and eligible, it picks nothing
    /// without mutating internal state (no RNG draws, no cursors). The
    /// channel uses this to skip whole starved spans (no bank can start
    /// a first command yet and the queue is unchanged). Work conservation
    /// is *not* required: SMS still idles through batch formation on
    /// non-starved cycles, but the channel runs its stage 2 (and so its
    /// policy coin) only once a request is actually issuable, so starved
    /// cycles are pure for every shipped policy.
    pub fn pure_when_starved(&self) -> bool {
        !matches!(self, SchedulerImpl::SmsUnskipped(_))
    }
}

/// Anti-starvation: a GPU request older than this many DRAM cycles is
/// promoted back to CPU class even while the boost is asserted, so
/// deprioritized GPU traffic cannot pile up and clog the queue.
const BOOST_AGE_CAP: u64 = 256;

/// The order in which a non-SMS policy picks among the issuable, eligible
/// requests: the smallest `(class, arrival stamp)` wins. Every such
/// policy is FR-FCFS with at most one CPU/GPU class bit, placed before or
/// after the row-miss bit. Stamps are unique per channel, so each order
/// is total.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum PickOrder {
    /// (row miss, stamp): FR-FCFS, and the other policies when neutral.
    RowHitFirst,
    /// (row miss, GPU request younger than `BOOST_AGE_CAP`, stamp): the
    /// CPU-priority boost keeps row-buffer locality first (losing it
    /// would cost more than the priority gains), then serves CPU first.
    BoostCpu,
    /// (is GPU, row miss, stamp): static priority, DynPrio while the GPU
    /// is ahead.
    CpuFirst,
    /// (is CPU, row miss, stamp): DynPrio's express lane while the GPU
    /// deadline is endangered.
    GpuFirst,
}

impl PickOrder {
    /// The class a request sorts by before its arrival stamp: a row miss
    /// (or closed row) and the policy's class bit packed most significant
    /// first. `now` and `arrival` are in DRAM cycles and stamps.
    #[inline]
    pub(crate) fn class(self, is_gpu: bool, row_miss: bool, arrival: u64, now: u64) -> u8 {
        let miss = u8::from(row_miss);
        match self {
            PickOrder::RowHitFirst => miss,
            PickOrder::BoostCpu => {
                let young_gpu = is_gpu && now.saturating_sub(arrival / 4096) < BOOST_AGE_CAP;
                miss << 1 | u8::from(young_gpu)
            }
            PickOrder::CpuFirst => u8::from(is_gpu) << 1 | miss,
            PickOrder::GpuFirst => u8::from(!is_gpu) << 1 | miss,
        }
    }
}

/// Position of a queued request in the channel: `(bank, index in that
/// bank's queue)`.
pub(crate) type Slot = (usize, usize);

/// One eligible queued request as SMS stage 1 sees it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SmsReq {
    /// Source id: CPU core index, or `u8::MAX` for the GPU.
    pub source: u8,
    /// Arrival stamp: DRAM cycles × 4096 plus a per-channel sequence, so
    /// unique per channel.
    pub arrival: u64,
    pub bank: u32,
    pub row: u64,
    /// Earliest cycle the request's first command can start.
    pub issuable_at: u64,
    pub slot: Slot,
}

/// One leading same-row batch in SMS stage 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SmsBatch {
    src: u8,
    /// Queue position of the batch head (the source's oldest request).
    head: Slot,
    len: usize,
    head_arrival: u64,
    /// Earliest cycle the head's first command can start.
    head_issuable_at: u64,
    /// First cycle the batch is ready: 0 once it is full or its source's
    /// row run has broken, else when its head ages past the limit.
    ready_at: u64,
}

/// Stage 2's verdict for one cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SmsPick {
    /// Issue the chosen batch head.
    Head(Slot),
    /// No ready batch and a nearly full queue: serve like FR-FCFS.
    FrFcfs,
    /// Idle this cycle.
    Idle,
}

/// Staged memory scheduler (Ausavarungnirun et al., ISCA 2012).
///
/// Stage 1 groups each source's requests into row-local batches; a batch
/// becomes *ready* when it reaches `batch_cap` requests or its head has
/// aged past `age_limit` cycles. Stage 2 picks among ready batches: with
/// probability `p_sjf` the shortest batch (favoring latency-sensitive CPU
/// jobs), otherwise round-robin across sources (favoring bandwidth
/// fairness). The formation delay is real — and is exactly why SMS loses
/// GPU FPS in the paper's Fig. 13.
///
/// The stages are separate calls because the batches change only with the
/// queue, the write eligibility and bank timing: the channel forms them
/// when one of those changes and runs stage 2 alone on every other cycle
/// (DESIGN.md §11).
#[derive(Debug)]
pub struct Sms {
    p_sjf: f64,
    batch_cap: usize,
    age_limit: u64,
    rr_next: u8,
    rng: SimRng,
}

impl Sms {
    #[expect(
        clippy::disallowed_methods,
        reason = "R3: config-time seeding of the SMS policy coin; stream is namespaced by fork label"
    )]
    pub fn new(p_sjf: f64, seed: u64) -> Self {
        Self {
            p_sjf,
            batch_cap: 8,
            age_limit: 8,
            rr_next: 0,
            // Constructed once from the machine seed at config time; the
            // "sms" fork label keeps the policy coin's stream disjoint from
            // every other consumer of the same seed.
            rng: SimRng::new(seed).fork("sms"),
        }
    }

    /// Stage 1: build the leading same-row batch for each distinct source
    /// in `reqs` (the eligible requests, in any order) into `out`, ordered
    /// by source id. Sorts `reqs` by (source, arrival); arrivals are
    /// unique, so the order is total. Touches neither the coin nor the
    /// round-robin cursor.
    pub(crate) fn form_batches(&self, reqs: &mut [SmsReq], out: &mut Vec<SmsBatch>) {
        reqs.sort_unstable_by_key(|r| (r.source, r.arrival));
        out.clear();
        for group in reqs.chunk_by(|a, b| a.source == b.source) {
            let head = group[0];
            let len = group
                .iter()
                .take(self.batch_cap)
                .take_while(|r| r.bank == head.bank && r.row == head.row)
                .count();
            // Full, or closed by a request to another row behind it.
            let ready_at = if len >= self.batch_cap || group.len() > len {
                0
            } else {
                head.arrival / 4096 + self.age_limit
            };
            out.push(SmsBatch {
                src: head.source,
                head: head.slot,
                len,
                head_arrival: head.arrival,
                head_issuable_at: head.issuable_at,
                ready_at,
            });
        }
    }

    /// Stage 2 over `batches` (from [`Sms::form_batches`]) at cycle `now`
    /// with `queue_len` requests queued. The caller must not call it on a
    /// starved cycle (no eligible request issuable): the coin and the
    /// round-robin cursor move whenever a batch is ready.
    pub(crate) fn pick(&mut self, batches: &[SmsBatch], now: u64, queue_len: usize) -> SmsPick {
        let ready = || batches.iter().filter(|b| b.ready_at <= now);
        let Some(first) = ready().next() else {
            // Anti-deadlock: with a nearly full queue, serve like FR-FCFS.
            return if queue_len >= 56 {
                SmsPick::FrFcfs
            } else {
                SmsPick::Idle
            };
        };
        let choice = if self.rng.chance(self.p_sjf) {
            // Shortest batch first; ties to the oldest head.
            ready()
                .min_by_key(|b| (b.len, b.head_arrival))
                .unwrap_or(first)
        } else {
            // Round-robin over source ids: the first ready source at or
            // after the cursor, wrapping (batches are in source order).
            let pick = ready().find(|b| b.src >= self.rr_next).unwrap_or(first);
            self.rr_next = pick.src.wrapping_add(1);
            pick
        };
        if choice.head_issuable_at <= now {
            SmsPick::Head(choice.head)
        } else {
            SmsPick::Idle
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The request `kind` picks under `ctx` at DRAM cycle `now` among
    /// `reqs`, all issuable and eligible: `(is_gpu, arrival stamp,
    /// row_hit)`. The channel's walk takes the same minimum over the
    /// issuable, eligible requests (`channel::tests`).
    fn pick(kind: SchedulerKind, ctx: SchedCtx, now: u64, reqs: &[(bool, u64, bool)]) -> usize {
        let order = kind
            .build(0)
            .pick_order(ctx)
            .expect("SMS has no pick order");
        (0..reqs.len())
            .min_by_key(|&i| {
                let (is_gpu, arrival, row_hit) = reqs[i];
                (order.class(is_gpu, !row_hit, arrival, now), arrival)
            })
            .expect("no request")
    }

    const NEUTRAL: SchedCtx = SchedCtx {
        cpu_prio_boost: false,
        gpu_urgent: false,
        gpu_ahead: false,
    };
    const BOOSTED: SchedCtx = SchedCtx {
        cpu_prio_boost: true,
        ..NEUTRAL
    };
    const URGENT: SchedCtx = SchedCtx {
        gpu_urgent: true,
        ..NEUTRAL
    };
    const AHEAD: SchedCtx = SchedCtx {
        gpu_ahead: true,
        ..NEUTRAL
    };

    #[test]
    fn frfcfs_prefers_row_hits_then_age() {
        let reqs = [(false, 10, false), (true, 20, true), (false, 5, true)];
        assert_eq!(pick(SchedulerKind::FrFcfs, NEUTRAL, 100, &reqs), 2);
    }

    #[test]
    fn cpu_prio_boost_breaks_ties_cpu_first() {
        let kind = SchedulerKind::FrFcfsCpuPrio;
        // Same row-hit class: CPU beats the older GPU request.
        let reqs = [(true, 1, true), (false, 50, true)];
        assert_eq!(pick(kind, BOOSTED, 100, &reqs), 1);
        // Row locality is preserved across classes: a GPU row hit still
        // beats a CPU row miss (losing the open row would cost everyone).
        let reqs2 = [(true, 1, true), (false, 50, false)];
        assert_eq!(pick(kind, BOOSTED, 100, &reqs2), 0);
        // Without the boost, pure FR-FCFS.
        assert_eq!(pick(kind, NEUTRAL, 100, &reqs2), 0);
        // A GPU request 256 cycles old is back in the CPU class: the
        // oldest row hit wins again. One cycle younger, it still waits.
        let aged = [(true, 500 * 4096, true), (false, 700 * 4096, true)];
        assert_eq!(pick(kind, BOOSTED, 756, &aged), 0);
        assert_eq!(pick(kind, BOOSTED, 755, &aged), 1);
    }

    #[test]
    fn static_prio_always_prefers_cpu() {
        // GPU row hit, much older, vs a young CPU row miss: CPU wins
        // unconditionally (that unconditionality is its flaw).
        let reqs = [(true, 1, true), (false, 90, false)];
        assert_eq!(pick(SchedulerKind::StaticCpuPrio, NEUTRAL, 100, &reqs), 1);
        // With only GPU requests present, they are served normally.
        let gpu_only = [(true, 5, false)];
        assert_eq!(
            pick(SchedulerKind::StaticCpuPrio, NEUTRAL, 100, &gpu_only),
            0
        );
    }

    #[test]
    fn dynprio_boosts_gpu_when_urgent() {
        let reqs = [(false, 1, true), (true, 50, false)];
        assert_eq!(pick(SchedulerKind::DynPrio, URGENT, 100, &reqs), 1);
        assert_eq!(pick(SchedulerKind::DynPrio, NEUTRAL, 100, &reqs), 0);
    }

    #[test]
    fn dynprio_prefers_cpu_while_gpu_is_ahead() {
        // GPU row hit (older) vs CPU row miss: with the GPU ahead of its
        // deadline, the CPU goes first.
        let reqs = [(true, 1, true), (false, 50, false)];
        assert_eq!(pick(SchedulerKind::DynPrio, AHEAD, 100, &reqs), 1);
        // Lagging (neither flag): equal priority, the GPU row hit wins.
        assert_eq!(pick(SchedulerKind::DynPrio, NEUTRAL, 100, &reqs), 0);
    }

    /// One request on bank 0 as SMS stage 1 sees it; `slot` is `(0, i)`.
    fn sms_req(i: usize, source: u8, arrival: u64, row: u64) -> SmsReq {
        SmsReq {
            source,
            arrival,
            bank: 0,
            row,
            issuable_at: 0,
            slot: (0, i),
        }
    }

    /// Both SMS stages over `reqs` at cycle `now`.
    fn sms_pick(s: &mut Sms, reqs: &[SmsReq], now: u64) -> SmsPick {
        let mut reqs = reqs.to_vec();
        let mut batches = Vec::new();
        s.form_batches(&mut reqs, &mut batches);
        s.pick(&batches, now, reqs.len())
    }

    #[test]
    fn sms_waits_for_batch_formation() {
        let mut s = Sms::new(1.0, 1);
        // A single young CPU request (arrival stamps carry ×4096 sequence
        // bits): batch not full, not closed, not aged → idle.
        let reqs = [sms_req(0, 0, 100 * 4096, 0)];
        assert_eq!(sms_pick(&mut s, &reqs, 104), SmsPick::Idle);
        // Once aged past the limit, it is served.
        assert_eq!(sms_pick(&mut s, &reqs, 109), SmsPick::Head((0, 0)));
    }

    #[test]
    fn sms_row_break_closes_batch_early() {
        let mut s = Sms::new(1.0, 1);
        // Two young same-source requests to different rows: the head's
        // batch is closed by the row break and serves without aging.
        let reqs = [sms_req(0, 0, 100, 1), sms_req(1, 0, 101, 2)];
        assert_eq!(sms_pick(&mut s, &reqs, 105), SmsPick::Head((0, 0)));
    }

    #[test]
    fn sms_full_batch_is_ready_immediately() {
        let mut s = Sms::new(1.0, 1);
        let reqs: Vec<SmsReq> = (0..8).map(|i| sms_req(i, 0, i as u64, 0)).collect();
        assert_eq!(sms_pick(&mut s, &reqs, 8), SmsPick::Head((0, 0)));
    }

    #[test]
    fn sms_head_must_be_issuable() {
        let mut s = Sms::new(1.0, 1);
        let mut head = sms_req(0, 0, 0, 0);
        head.issuable_at = 1001;
        assert_eq!(sms_pick(&mut s, &[head], 1000), SmsPick::Idle);
        assert_eq!(sms_pick(&mut s, &[head], 1001), SmsPick::Head((0, 0)));
    }

    #[test]
    fn sms_anti_deadlock_needs_a_nearly_full_queue() {
        let mut s = Sms::new(1.0, 1);
        // 7 young same-row requests from each of 8 sources: every batch
        // is one short of full, so none is ready.
        let reqs: Vec<SmsReq> = (0..56).map(|i| sms_req(i, (i / 7) as u8, 0, 0)).collect();
        assert_eq!(sms_pick(&mut s, &reqs[..55], 0), SmsPick::Idle);
        assert_eq!(sms_pick(&mut s, &reqs, 0), SmsPick::FrFcfs);
    }

    #[test]
    fn sms_sjf_prefers_shorter_batch() {
        let mut s = Sms::new(1.0, 1);
        // GPU has 8 same-row requests (a full batch); the CPU's one
        // request is a batch of length 1. Both are aged past the limit.
        let mut reqs: Vec<SmsReq> = (0..8).map(|i| sms_req(i, u8::MAX, i as u64, 0)).collect();
        reqs.push(sms_req(8, 0, 0, 7));
        assert_eq!(
            sms_pick(&mut s, &reqs, 1000),
            SmsPick::Head((0, 8)),
            "SJF must pick the short CPU batch"
        );
    }

    #[test]
    fn sms_round_robin_alternates_sources() {
        let mut s = Sms::new(0.0, 1);
        // Aged single-request batches from sources 0, 1 and the GPU: the
        // cursor walks them in source order and wraps.
        let reqs = [
            sms_req(0, 0, 0, 0),
            sms_req(1, 1, 0, 1),
            sms_req(2, u8::MAX, 0, 2),
        ];
        let picks: Vec<SmsPick> = (0..4).map(|_| sms_pick(&mut s, &reqs, 1000)).collect();
        assert_eq!(
            picks,
            [(0, 0), (0, 1), (0, 2), (0, 0)].map(SmsPick::Head),
            "round-robin must alternate"
        );
    }

    #[test]
    fn sms_is_pure_when_starved() {
        assert!(SchedulerKind::Sms(0.9).build(1).pure_when_starved());
        assert!(!SchedulerImpl::sms_unskipped(0.9, 1).pure_when_starved());
    }

    #[test]
    fn scheduler_kind_builds_and_labels() {
        for k in [
            SchedulerKind::FrFcfs,
            SchedulerKind::FrFcfsCpuPrio,
            SchedulerKind::Sms(0.9),
            SchedulerKind::DynPrio,
            SchedulerKind::StaticCpuPrio,
        ] {
            let is_sms = matches!(k, SchedulerKind::Sms(_));
            assert_eq!(k.build(7).pick_order(NEUTRAL).is_none(), is_sms);
            assert!(!k.label().is_empty());
        }
    }

    #[test]
    fn pick_order_tracks_ctx() {
        use PickOrder::*;
        let order = |k: SchedulerKind, ctx| k.build(1).pick_order(ctx);
        assert_eq!(order(SchedulerKind::FrFcfs, BOOSTED), Some(RowHitFirst));
        assert_eq!(
            order(SchedulerKind::FrFcfsCpuPrio, NEUTRAL),
            Some(RowHitFirst)
        );
        assert_eq!(order(SchedulerKind::FrFcfsCpuPrio, BOOSTED), Some(BoostCpu));
        assert_eq!(order(SchedulerKind::DynPrio, NEUTRAL), Some(RowHitFirst));
        assert_eq!(order(SchedulerKind::DynPrio, BOOSTED), Some(RowHitFirst));
        assert_eq!(order(SchedulerKind::DynPrio, URGENT), Some(GpuFirst));
        assert_eq!(order(SchedulerKind::DynPrio, AHEAD), Some(CpuFirst));
        // The deadline signal outranks the progress signal.
        let both = SchedCtx {
            gpu_ahead: true,
            ..URGENT
        };
        assert_eq!(order(SchedulerKind::DynPrio, both), Some(GpuFirst));
        assert_eq!(order(SchedulerKind::StaticCpuPrio, NEUTRAL), Some(CpuFirst));
        assert_eq!(order(SchedulerKind::Sms(0.5), NEUTRAL), None);
    }
}
