//! The assembled heterogeneous CMP: CPU cores + GPU + QoS controller +
//! uncore, advanced one CPU cycle at a time.
//!
//! Run protocol (mirroring §V-B): warm up for a configured number of
//! cycles, reset statistics, then run until every CPU application has
//! committed its representative instruction budget *and* the GPU has
//! rendered its assigned frame sequence; early finishers keep running so
//! contention stays realistic.

#![expect(
    clippy::disallowed_methods,
    reason = "R3: the system constructor owns the root RNG derived from the machine seed"
)]

use crate::config::{MachineConfig, QosMode};
use crate::error::SimError;
use crate::events::RunEvent;
use crate::metrics::{CoreResult, DramResult, GpuResult, LlcResult, RunResult};
use crate::uncore::{BackInval, Uncore, UncoreCompletion, UncorePort};
use gat_cache::Source;
use gat_core::{QosController, QosControllerConfig, QosEvent};
use gat_cpu::stream::Op;
use gat_cpu::{Core, CpuHierarchy, InstructionStream, SpecProfile, StreamGen, TraceStream};
use gat_dram::{SchedCtx, SchedulerKind};
use gat_gpu::{GameProfile, GpuEvent, GpuPipeline, WorkloadGen};
use gat_sim::events::{EventBus, Poll, SubscriberId};
use gat_sim::faults::StallWindow;
use gat_sim::json::{Arr, Obj};
use gat_sim::metrics::{MetricsRegistry, RegistrySnapshot};
use gat_sim::rng::SimRng;
use gat_sim::{Cycle, GPU_CLOCK_DIVIDER};
use std::sync::Arc;

/// Capacity of the system's [`RunEvent`] ring. Sized for the densest
/// stream — per-evaluation throttle adjustments plus frame boundaries —
/// between two polls of a per-frame consumer.
const RUN_EVENT_RING: usize = 1 << 16;

/// The machine.
pub struct HeteroSystem {
    cfg: MachineConfig,
    profiles: Vec<SpecProfile>,
    cores: Vec<Core>,
    gpu: Option<GpuPipeline>,
    game_name: &'static str,
    qos: Option<QosController>,
    uncore: Uncore,
    now: Cycle,
    mark_cycle: Cycle,
    // Reused scratch buffers. Invariant: every one of these is *restored
    // empty* by the code that borrows it (drain loops clear before putting
    // the buffer back), so no take/borrow site ever needs a defensive
    // `clear()` first. The same invariant holds for the uncore's internal
    // drain/completion buffers.
    comp_buf: Vec<UncoreCompletion>,
    inval_buf: Vec<BackInval>,
    event_buf: Vec<GpuEvent>,
    qos_event_buf: Vec<QosEvent>,
    label: String,
    /// Structured run events (frame boundaries, QoS transitions, DRAM
    /// priority flips, epoch snapshots) on a bounded ring.
    run_events: EventBus<RunEvent>,
    /// Our subscription to the QoS controller's transition stream.
    qos_sub: Option<SubscriberId>,
    /// Named metrics, synced from component stats before each snapshot.
    registry: MetricsRegistry,
    /// Emit an [`RunEvent::EpochSnapshot`] every this many CPU cycles.
    epoch_interval: Option<Cycle>,
    next_epoch: Cycle,
    /// Last CPU-priority state handed to the DRAM scheduler (flip events).
    last_sched_boost: bool,
    /// Per-core inert-tick skipping (DESIGN.md §8): each core's next
    /// cycle of possible work. A core whose wake lies in the future skips
    /// its tick; an inert tick re-arms it from `Core::next_wake`, a
    /// completion or back-invalidation resets it to 0, and a port-stalled
    /// core is woken for the cycle after the uncore can accept again.
    core_wake: Vec<Cycle>,
    /// Next cycle each core must actually execute. `Core::fast_forward`
    /// replays the skipped gap before the core's next delivery, tick or
    /// measurement.
    core_synced: Vec<Cycle>,
    // Chaos-plan pieces copied out of `cfg.faults` (borrow-friendly in
    // `tick`). All `None`/zero for the fault-free plan.
    /// Periodic GPU frame-stall bursts: quota forced to 0 while stalled.
    stall: Option<StallWindow>,
    /// Wedge the GPU scheduler from this CPU cycle on (watchdog fixture).
    wedge: Option<Cycle>,
    /// FRPU sensor noise: relative stddev on the event copies the QoS
    /// controller observes (architectural state always sees the truth).
    frpu_jitter: f64,
    /// Dedicated noise stream; draws happen only on GPU ticks that
    /// produced events, so nothing else can perturb it.
    frpu_rng: Option<SimRng>,
    /// Scratch for the jittered event copies (restored empty).
    jitter_buf: Vec<GpuEvent>,
    /// Invariant checking after each [`Self::step`] (`GAT_PARANOIA=1`).
    paranoia: bool,
    /// Liveness watchdog window (`limits.watchdog`; 0 disables).
    wd_window: Cycle,
    /// The watchdog's next deadline and the progress fingerprint it
    /// compares against; `None` until the first [`Self::step`] arms it.
    wd: Option<(Cycle, u64)>,
}

/// Apply multiplicative noise to the sensor-visible fields of a GPU event
/// (RTP retirement timestamps and work counters). The noise floor keeps
/// the jittered values positive so Eq. 1–3 never observe zero work.
fn jitter_gpu_event(e: &GpuEvent, stddev: f64, rng: &mut SimRng) -> GpuEvent {
    let mut scale = |v: u64| ((v as f64) * rng.jitter(stddev, 0.05)).round().max(1.0) as u64;
    match *e {
        GpuEvent::RtpComplete {
            frame,
            rtp,
            updates,
            cycles,
            tiles,
            llc_accesses,
        } => GpuEvent::RtpComplete {
            frame,
            rtp,
            updates: scale(updates),
            cycles: scale(cycles),
            tiles,
            llc_accesses: scale(llc_accesses),
        },
        GpuEvent::FrameComplete { frame, cycles } => GpuEvent::FrameComplete {
            frame,
            cycles: scale(cycles),
        },
    }
}

/// External input (a completion or a back-invalidation) reached a core:
/// make its next tick due and replay any skipped inert ticks up to `now`.
fn wake_core(core: &mut Core, wake: &mut Cycle, synced: &mut Cycle, now: Cycle) {
    *wake = 0;
    if *synced < now {
        core.fast_forward(*synced, now);
        *synced = now;
    }
}

impl HeteroSystem {
    /// Build a machine running `cpu_apps` (one per core, at most
    /// `cfg.num_cpus`) and optionally a GPU workload.
    pub fn new(cfg: MachineConfig, cpu_apps: &[SpecProfile], game: Option<GameProfile>) -> Self {
        let sources: Vec<(SpecProfile, Option<Arc<Vec<Op>>>)> =
            cpu_apps.iter().map(|p| (*p, None)).collect();
        Self::new_with_sources(cfg, &sources, game)
    }

    /// Like [`Self::new`], but each core may replay a memory trace instead
    /// of the synthetic stream: `(profile, Some(ops))` replays `ops`
    /// (region-relative addresses, looping), `(profile, None)` synthesizes
    /// from the profile. The profile still supplies the core's ILP
    /// parameters (base IPC, chase chains, branch MPKI) in both cases.
    pub fn new_with_sources(
        cfg: MachineConfig,
        cpu_apps: &[(SpecProfile, Option<Arc<Vec<Op>>>)],
        game: Option<GameProfile>,
    ) -> Self {
        assert!(
            cpu_apps.len() <= cfg.num_cpus as usize,
            "more CPU apps than cores"
        );
        let root = SimRng::new(cfg.seed);
        let cores: Vec<Core> = cpu_apps
            .iter()
            .enumerate()
            .map(|(i, (p, trace))| {
                let base = i as u64 * cfg.cpu_region_bytes;
                assert!(
                    p.working_set <= cfg.cpu_region_bytes,
                    "{} exceeds its address region",
                    p.name
                );
                let stream: InstructionStream = match trace {
                    Some(ops) => TraceStream::from_ops(*p, ops.clone(), base).into(),
                    None => StreamGen::new(*p, base, root.fork(&format!("cpu{i}"))).into(),
                };
                Core::new(
                    cfg.core.clone(),
                    stream,
                    CpuHierarchy::new(i as u8, cfg.hierarchy.clone()),
                )
            })
            .collect();
        let game_name = game.as_ref().map(|g| g.name).unwrap_or("");
        let gpu = game.map(|g| {
            let wl = WorkloadGen::new(g, root.fork("gpu-workload"));
            let mut pl = GpuPipeline::new(cfg.gpu.clone(), wl, root.fork("gpu-pipeline"));
            pl.set_frame_budget(cfg.limits.gpu_frames + 1_000_000); // effectively unbounded
            pl
        });
        // The QoS controller exists whenever the proposal is active or the
        // DynPrio scheduler needs the frame-progress estimate.
        let needs_observer = cfg.sched == SchedulerKind::DynPrio;
        let qcfg = match (gpu.is_some(), cfg.qos, needs_observer) {
            (false, _, _) => None,
            (true, QosMode::Off, false) => None,
            (true, QosMode::Off, true) | (true, QosMode::Observe, _) => {
                Some(QosControllerConfig::observe_only(cfg.scale))
            }
            (true, QosMode::Throttle, _) => Some(QosControllerConfig::throttle_only(cfg.scale)),
            (true, QosMode::ThrotCpuPrio, _) => Some(QosControllerConfig::proposal(cfg.scale)),
            (true, QosMode::CpuPrioOnly, _) => Some(QosControllerConfig::prio_only(cfg.scale)),
        };
        let mut qos = qcfg.map(|mut q| {
            q.strict_release = cfg.strict_release;
            q.target_fps = cfg.target_fps;
            QosController::new(q)
        });
        let qos_sub = qos.as_mut().map(|q| q.subscribe_events());
        let uncore = Uncore::new(&cfg);
        // Environment knobs come only from the approved module (rule
        // R2): GAT_PARANOIA enables the per-tick invariant sweeps.
        let paranoia = gat_sim::knobs::paranoia();
        let frpu_jitter = cfg.faults.frpu_jitter;
        let frpu_rng = (frpu_jitter > 0.0).then(|| cfg.faults.rng_root(cfg.seed).fork("frpu"));
        let label = format!("{}+{:?}+{:?}", cfg.sched.label(), cfg.fill_policy, cfg.qos);
        let num_cores = cores.len();
        Self {
            profiles: cpu_apps.iter().map(|(p, _)| *p).collect(),
            cores,
            gpu,
            game_name,
            qos,
            uncore,
            now: 0,
            mark_cycle: 0,
            comp_buf: Vec::new(),
            inval_buf: Vec::new(),
            event_buf: Vec::new(),
            qos_event_buf: Vec::new(),
            label,
            run_events: EventBus::new(RUN_EVENT_RING),
            qos_sub,
            registry: MetricsRegistry::new(),
            epoch_interval: None,
            next_epoch: 0,
            last_sched_boost: false,
            core_wake: vec![0; num_cores],
            core_synced: vec![0; num_cores],
            stall: cfg.faults.gpu_stall,
            wedge: cfg.faults.wedge,
            frpu_jitter,
            frpu_rng,
            jitter_buf: Vec::new(),
            paranoia,
            wd_window: cfg.limits.watchdog,
            wd: None,
            cfg,
        }
    }

    /// Machine cycles skipped outright. Always 0: there is no machine-wide
    /// jump; only individual cores skip inert ticks, and every machine
    /// cycle still executes.
    pub fn ff_skipped(&self) -> Cycle {
        0
    }

    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Register a consumer of the structured [`RunEvent`] stream.
    pub fn subscribe_run_events(&mut self) -> SubscriberId {
        self.run_events.subscribe()
    }

    /// Deliver all run events published since this subscriber's last poll.
    pub fn poll_run_events(&mut self, sub: SubscriberId) -> Poll<RunEvent> {
        self.run_events.poll(sub)
    }

    /// Emit a [`RunEvent::EpochSnapshot`] every `interval` CPU cycles
    /// (`None` disables, the default). The first sample fires on the next
    /// tick, then every `interval` cycles after.
    pub fn set_epoch_sampling(&mut self, interval: Option<Cycle>) {
        self.epoch_interval = interval.filter(|&i| i > 0);
        self.next_epoch = self.now;
    }

    /// Sync component statistics into the metrics registry under the
    /// hierarchical key namespace (`llc.*`, `dram.chN.*`, `frpu.*`,
    /// `atu.*`, `gpu.*`, `cpu.*`; see DESIGN.md "Observability").
    pub fn sync_registry(&mut self) {
        fn set(reg: &mut MetricsRegistry, key: &str, v: u64) {
            let id = reg.counter(key);
            reg.set_counter(id, v);
        }
        let reg = &mut self.registry;
        let ls = &self.uncore.llc.stats;
        set(reg, "llc.cpu_hits", ls.cpu_hits.get());
        set(reg, "llc.cpu_misses", ls.cpu_misses.get());
        set(reg, "llc.gpu_hits", ls.gpu_hits.get());
        set(reg, "llc.gpu_misses", ls.gpu_misses.get());
        set(
            reg,
            "llc.back_invalidations",
            self.uncore.stats.back_invalidations.get(),
        );
        set(
            reg,
            "llc.gpu_fills_bypassed",
            self.uncore.stats.gpu_fills_bypassed.get(),
        );
        for (i, ch) in self.uncore.channels.iter().enumerate() {
            let p = format!("dram.ch{i}");
            set(reg, &format!("{p}.reads"), ch.stats.reads.get());
            set(reg, &format!("{p}.writes"), ch.stats.writes.get());
            set(reg, &format!("{p}.row_hits"), ch.stats.row_hits.get());
            set(reg, &format!("{p}.row_misses"), ch.stats.row_misses.get());
            set(reg, &format!("{p}.refreshes"), ch.stats.refreshes.get());
            set(
                reg,
                &format!("{p}.prio_boost_flips"),
                ch.stats.prio_boost_flips.get(),
            );
            set(
                reg,
                &format!("{p}.prio_boost_ticks"),
                ch.stats.prio_boost_ticks.get(),
            );
            let lat = reg.stat(&format!("{p}.read_latency"));
            reg.set_stat(lat, ch.stats.read_latency);
            let hist = reg.hist(&format!("{p}.read_latency_hist"));
            reg.set_hist(hist, ch.stats.read_latency_hist.clone());
        }
        let retired: u64 = self.cores.iter().map(|c| c.retired.get()).sum();
        set(reg, "cpu.retired", retired);
        for c in &self.cores {
            set(
                reg,
                &format!("cpu.core{}.retired", c.core_id()),
                c.retired.get(),
            );
        }
        if let Some(g) = self.gpu.as_ref() {
            set(reg, "gpu.frames", g.stats.frames.get());
            set(reg, "gpu.llc_reads", g.stats.llc_reads_sent.get());
            set(reg, "gpu.llc_writes", g.stats.llc_writes_sent.get());
            set(reg, "gpu.gated_cycles", g.stats.gated_cycles.get());
            let fc = reg.stat("gpu.frame_cycles");
            reg.set_stat(fc, g.stats.frame_cycles);
        }
        if let Some(q) = self.qos.as_ref() {
            set(reg, "frpu.relearn_events", q.frpu.relearn_events);
            set(reg, "frpu.predicted_frames", q.frpu.predicted_frames);
            set(reg, "frpu.learning_frames", q.frpu.learning_frames);
            let err = reg.stat("frpu.error_percent");
            reg.set_stat(err, q.frpu.error_percent);
            set(reg, "atu.evaluations", q.atu.evaluations);
            set(reg, "atu.closed_cycles", q.atu.closed_cycles);
            set(reg, "atu.w_g", q.atu.decision().w_g);
        }
    }

    /// Sync and capture every registered metric at the current cycle.
    pub fn registry_snapshot(&mut self) -> RegistrySnapshot {
        self.sync_registry();
        self.registry.snapshot(self.now)
    }

    /// Current `(W_G, cpu_prio_boost)` of the QoS controller.
    pub fn qos_snapshot(&self) -> (u64, bool) {
        match self.qos.as_ref() {
            Some(q) => {
                let gpu_now = self.now / GPU_CLOCK_DIVIDER;
                (q.atu.decision().w_g, q.signals(gpu_now).cpu_prio_boost)
            }
            None => (0, false),
        }
    }

    /// Total GPU requests sent to the LLC so far.
    pub fn gpu_llc_sends(&self) -> u64 {
        self.gpu
            .as_ref()
            .map(|g| g.stats.llc_reads_sent.get() + g.stats.llc_writes_sent.get())
            .unwrap_or(0)
    }

    /// Instructions retired across all cores.
    pub fn total_retired(&self) -> u64 {
        self.cores.iter().map(|c| c.retired.get()).sum()
    }

    /// Advance one CPU cycle.
    pub fn tick(&mut self) {
        let now = self.now;

        // One port for the whole tick; only the requester source changes
        // between uses (hoisting the construction off the per-core loop).
        let mut port = UncorePort {
            uncore: &mut self.uncore,
            source: Source::Cpu(0),
        };

        // 1. Deliver finished reads. (`comp_buf` is restored empty — see
        // the invariant on the scratch-buffer fields.) A skipped core is
        // woken and caught up to `now` before it observes the response.
        let mut comp = std::mem::take(&mut self.comp_buf);
        port.uncore.drain_completions(&mut comp);
        for c in &comp {
            match c.source {
                Source::Cpu(i) => {
                    let i = i as usize;
                    wake_core(
                        &mut self.cores[i],
                        &mut self.core_wake[i],
                        &mut self.core_synced[i],
                        now,
                    );
                    port.source = c.source;
                    self.cores[i].on_mem_response(now, c.token, &mut port);
                }
                Source::Gpu => {
                    if let Some(gpu) = self.gpu.as_mut() {
                        gpu.on_mem_response(now / GPU_CLOCK_DIVIDER, c.token);
                    }
                }
            }
        }
        comp.clear();
        self.comp_buf = comp;

        // 2. Back-invalidations from the inclusive LLC.
        let mut invals = std::mem::take(&mut self.inval_buf);
        port.uncore.drain_back_invals(&mut invals);
        for b in &invals {
            let i = b.core as usize;
            if let Some(core) = self.cores.get_mut(i) {
                wake_core(core, &mut self.core_wake[i], &mut self.core_synced[i], now);
                core.back_invalidate(b.addr);
            }
        }
        invals.clear();
        self.inval_buf = invals;

        // 3. CPU cores. A core whose wake is still in the future is inert
        // this cycle and skips its tick; the skipped gap is replayed
        // before it next ticks, receives input, or is measured. An inert
        // tick re-arms the wake from `Core::next_wake`; a working tick
        // leaves it due.
        for (i, core) in self.cores.iter_mut().enumerate() {
            if self.core_wake[i] > now {
                continue;
            }
            let s = self.core_synced[i];
            if s < now {
                core.fast_forward(s, now);
            }
            self.core_synced[i] = now + 1;
            port.source = Source::Cpu(core.core_id());
            if !core.tick(now, &mut port) {
                self.core_wake[i] = core.next_wake(now + 1).unwrap_or(0);
            }
        }

        // 4. GPU on its clock divider.
        let mut gpu_now = 0;
        if let Some(gpu) = self.gpu.as_mut() {
            gpu_now = now / GPU_CLOCK_DIVIDER;
            if now.is_multiple_of(GPU_CLOCK_DIVIDER) {
                let mut quota = self
                    .qos
                    .as_ref()
                    .map(|q| q.quota(gpu_now))
                    .unwrap_or(u32::MAX);
                // Injected frame-stall bursts and the wedge fixture force
                // the LLC port shut, exactly like an ATU-closed gate.
                if self.stall.is_some_and(|s| s.stalled(gpu_now))
                    || self.wedge.is_some_and(|w| now >= w)
                {
                    quota = 0;
                }
                port.source = Source::Gpu;
                let sends = gpu.tick(gpu_now, quota, &mut port);
                gpu.drain_events(&mut self.event_buf);
                if let Some(q) = self.qos.as_mut() {
                    q.note_sends(gpu_now, sends);
                    match self.frpu_rng.as_mut() {
                        Some(rng) if !self.event_buf.is_empty() => {
                            // FRPU sensor noise: the controller observes
                            // jittered copies; frame-boundary run events
                            // and collected stats keep the true values.
                            // Draws happen only on event-bearing GPU
                            // ticks.
                            let mut jbuf = std::mem::take(&mut self.jitter_buf);
                            for e in &self.event_buf {
                                jbuf.push(jitter_gpu_event(e, self.frpu_jitter, rng));
                            }
                            q.on_gpu_events(gpu_now, &jbuf);
                            jbuf.clear();
                            self.jitter_buf = jbuf;
                        }
                        _ => q.on_gpu_events(gpu_now, &self.event_buf),
                    }
                    // Forward the controller's transitions onto the run
                    // stream, stamped with the global CPU cycle
                    // (allocation-free: the scratch buffer is reused).
                    if let Some(sub) = self.qos_sub {
                        let mut qev = std::mem::take(&mut self.qos_event_buf);
                        q.poll_events_into(sub, &mut qev);
                        for &event in &qev {
                            self.run_events.publish(RunEvent::Qos { cycle: now, event });
                        }
                        qev.clear();
                        self.qos_event_buf = qev;
                    }
                }
                // Total retired is re-used by every frame boundary in this
                // tick; sum it at most once.
                let mut retired_memo: Option<u64> = None;
                for e in &self.event_buf {
                    if let GpuEvent::FrameComplete { frame, cycles } = *e {
                        let (w_g, boost) = match self.qos.as_ref() {
                            Some(q) => (q.atu.decision().w_g, q.signals(gpu_now).cpu_prio_boost),
                            None => (0, false),
                        };
                        let cpu_retired = *retired_memo.get_or_insert_with(|| {
                            self.cores.iter().map(|c| c.retired.get()).sum()
                        });
                        self.run_events.publish(RunEvent::FrameBoundary {
                            cycle: now,
                            frame: frame.into(),
                            frame_cycles: cycles,
                            fps: gpu.fps_of_cycles(cycles as f64),
                            w_g,
                            cpu_prio_boost: boost,
                            gpu_llc_sends: gpu.stats.llc_reads_sent.get()
                                + gpu.stats.llc_writes_sent.get(),
                            cpu_retired,
                        });
                    }
                }
                self.event_buf.clear();
                self.uncore.gpu_tolerance = gpu.latency_tolerance();
            }
        }

        // 5. Uncore with the QoS signals.
        let ctx = match self.qos.as_ref() {
            Some(q) => {
                let s = q.signals(gpu_now);
                SchedCtx {
                    cpu_prio_boost: s.cpu_prio_boost,
                    gpu_urgent: s.gpu_urgent,
                    gpu_ahead: s.gpu_above_target,
                }
            }
            None => SchedCtx::default(),
        };
        if ctx.cpu_prio_boost != self.last_sched_boost {
            self.last_sched_boost = ctx.cpu_prio_boost;
            self.run_events.publish(RunEvent::DramPrioFlip {
                cycle: now,
                boost: ctx.cpu_prio_boost,
            });
        }
        self.uncore.tick(now, ctx);
        // A port-stalled core sleeps until the uncore can take its retry.
        // Only the uncore tick frees ingress slots, so if it cannot accept
        // now, every try before the next uncore tick fails too; if it can,
        // the cores retry next cycle, in core order as always.
        if self.uncore.accepting() {
            for (i, core) in self.cores.iter().enumerate() {
                if self.core_wake[i] > now + 1 && core.port_stalled() {
                    self.core_wake[i] = now + 1;
                }
            }
        }

        // 6. Epoch sampler.
        if let Some(interval) = self.epoch_interval {
            if now >= self.next_epoch {
                self.next_epoch = now + interval;
                let snap = self.registry_snapshot();
                self.run_events.publish(RunEvent::EpochSnapshot(snap));
            }
        }
        self.now += 1;
    }

    /// Replay every skipped core tick up to `self.now` (before the
    /// measurement mark and result collection, which read cycle counts).
    fn sync_cores(&mut self) {
        let now = self.now;
        for (i, core) in self.cores.iter_mut().enumerate() {
            let s = self.core_synced[i];
            if s < now {
                core.fast_forward(s, now);
                self.core_synced[i] = now;
            }
        }
    }

    /// Liveness vouch for the watchdog: is the silent window explained by
    /// a timed gate holding the GPU's LLC port shut at its last tick — an
    /// injected stall burst or a closed ATU window? Both reopen on their
    /// own; any other silent window (the wedge fixture included) is a
    /// wedge.
    fn gpu_port_timed_shut(&self) -> bool {
        if self.gpu.is_none() || self.wedge.is_some_and(|w| self.now >= w) {
            return false;
        }
        let g = self.now.saturating_sub(1) / GPU_CLOCK_DIVIDER;
        self.stall.is_some_and(|s| s.stalled(g))
            || self
                .qos
                .as_ref()
                .is_some_and(|q| q.atu.gate_reopens_at(g).is_some())
    }

    /// Warm up, reset statistics, and mark the measurement start.
    fn warm_up(&mut self) {
        let end = self.now + self.cfg.limits.warmup_cycles;
        while self.now < end {
            self.tick();
        }
        self.sync_cores();
        for core in &mut self.cores {
            core.mark();
            core.set_measure_budget(self.cfg.limits.cpu_instructions);
        }
        if let Some(gpu) = self.gpu.as_mut() {
            gpu.reset_stats();
        }
        self.uncore.reset_stats();
        self.mark_cycle = self.now;
    }

    fn goals_met(&self) -> bool {
        let cpus_done = self
            .cores
            .iter()
            .all(|c| c.retired_since_mark() >= self.cfg.limits.cpu_instructions);
        let gpu_done = self
            .gpu
            .as_ref()
            .map(|g| g.stats.frames.get() >= u64::from(self.cfg.limits.gpu_frames))
            .unwrap_or(true);
        cpus_done && gpu_done
    }

    /// Run to completion and collect results.
    ///
    /// # Panics
    /// Panics on any [`SimError`] — see [`Self::try_run`] for the
    /// fallible form the binaries use.
    pub fn run(&mut self) -> RunResult {
        match self.try_run() {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Goal-directed progress digest for the liveness watchdog: retired
    /// instructions clamped at each core's budget, frames clamped at the
    /// frame goal, plus GPU LLC sends while the frame goal is unmet.
    /// Work past a met goal deliberately does not count — early finishers
    /// keep running, but the machine only "makes progress" while it moves
    /// toward ending the run.
    fn progress_fingerprint(&self) -> u64 {
        let mut fp = 0xcbf2_9ce4_8422_2325u64;
        let budget = self.cfg.limits.cpu_instructions;
        for c in &self.cores {
            fp ^= c.retired_since_mark().min(budget);
            fp = fp.wrapping_mul(0x1000_0000_01b3);
        }
        if let Some(g) = self.gpu.as_ref() {
            let goal = u64::from(self.cfg.limits.gpu_frames);
            let frames = g.stats.frames.get();
            fp ^= frames.min(goal);
            fp = fp.wrapping_mul(0x1000_0000_01b3);
            if frames < goal {
                fp ^= g.stats.llc_reads_sent.get() + g.stats.llc_writes_sent.get();
                fp = fp.wrapping_mul(0x1000_0000_01b3);
            }
        }
        fp
    }

    /// Build the structured watchdog diagnostic: publish a registry
    /// snapshot on the run-event stream and return a `Wedged` error whose
    /// dump is two JSONL lines (summary object + full snapshot).
    fn wedged_error(&mut self) -> SimError {
        let mut cores = Arr::new();
        for c in &self.cores {
            cores = cores.u64(c.retired_since_mark());
        }
        let snap = self.registry_snapshot();
        let summary = Obj::new()
            .str("type", "watchdog_dump")
            .u64("cycle", self.now)
            .u64("window", self.wd_window)
            .raw("cores_retired", &cores.finish())
            .u64(
                "gpu_frames",
                self.gpu.as_ref().map(|g| g.stats.frames.get()).unwrap_or(0),
            )
            .u64("uncore_in_flight", self.uncore.in_flight() as u64)
            .u64("faults_injected", self.uncore.faults_injected())
            .finish();
        let diagnostic = format!("{summary}\n{}", snap.to_json());
        self.run_events.publish(RunEvent::EpochSnapshot(snap));
        SimError::Wedged {
            cycle: self.now,
            window: self.wd_window,
            diagnostic,
        }
    }

    /// Paranoia-mode invariant sweep (`GAT_PARANOIA=1`): structural
    /// checks across the QoS hardware, GPU pipeline, uncore, the CPU
    /// stall memos and port-stall wakes, and the epoch sampler, run after
    /// every tick of [`Self::step`].
    fn check_invariants(&self) -> Result<(), SimError> {
        let err = |component: &'static str, detail: String| SimError::Invariant {
            cycle: self.now,
            component,
            detail,
        };
        if let Some(q) = self.qos.as_ref() {
            q.atu.check_invariants().map_err(|d| err("atu", d))?;
        }
        if let Some(g) = self.gpu.as_ref() {
            g.check_invariants().map_err(|d| err("gpu", d))?;
        }
        self.uncore
            .check_invariants()
            .map_err(|d| err("uncore", d))?;
        for (i, core) in self.cores.iter().enumerate() {
            core.hierarchy
                .check_stall_memo()
                .map_err(|d| err("cpu", d))?;
            if self.core_wake[i] > self.now && core.port_stalled() && self.uncore.accepting() {
                return Err(err(
                    "cpu",
                    format!(
                        "core {i} sleeps on a port stall until {} while the uncore accepts",
                        self.core_wake[i]
                    ),
                ));
            }
        }
        if let Some(i) = self.epoch_interval {
            // Epoch monotonicity: the next sample is never scheduled more
            // than one interval out.
            if self.next_epoch > self.now.saturating_add(i) {
                return Err(err(
                    "epoch",
                    format!(
                        "next epoch {} is more than one interval ({i}) past cycle {}",
                        self.next_epoch, self.now
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Has the QoS controller latched its degraded fallback?
    pub fn qos_degraded(&self) -> bool {
        self.qos.as_ref().is_some_and(|q| q.is_degraded())
    }

    /// Advance one cycle and make the per-tick checks: [`Self::tick`],
    /// then under `GAT_PARANOIA=1` the invariant sweep, then the
    /// `max_cycles` cap, then the liveness watchdog, which the first call
    /// arms. Every driver loop advances the machine through this.
    pub fn step(&mut self) -> Result<(), SimError> {
        let (deadline, print) = match self.wd {
            Some(wd) => wd,
            None => {
                let wd = (
                    self.now.saturating_add(self.wd_window.max(1)),
                    self.progress_fingerprint(),
                );
                self.wd = Some(wd);
                wd
            }
        };
        self.tick();
        if self.paranoia {
            self.check_invariants()?;
        }
        if self.now >= self.cfg.limits.max_cycles {
            return Err(SimError::MaxCycles {
                cycle: self.now,
                limit: self.cfg.limits.max_cycles,
            });
        }
        if self.wd_window > 0 && self.now >= deadline {
            // Progress, or a wait on a timed gate, earns a fresh window;
            // a silent window without either is a wedge.
            let fp = self.progress_fingerprint();
            if fp == print && !self.gpu_port_timed_shut() {
                return Err(self.wedged_error());
            }
            self.wd = Some((self.now.saturating_add(self.wd_window), fp));
        }
        Ok(())
    }

    /// Run to completion, converting the failure modes into typed
    /// [`SimError`]s: cycle-budget exhaustion, a liveness-watchdog trip
    /// (with a JSONL diagnostic dump), or — under `GAT_PARANOIA=1` — an
    /// invariant violation.
    pub fn try_run(&mut self) -> Result<RunResult, SimError> {
        self.warm_up();
        // One goal check per step: a finished machine never ticks again
        // (same exit cycle as checking up front).
        while !self.goals_met() {
            self.step()?;
        }
        self.sync_cores();
        Ok(self.collect())
    }

    fn collect(&self) -> RunResult {
        let cores = self
            .cores
            .iter()
            .zip(&self.profiles)
            .map(|(c, p)| CoreResult {
                core: c.core_id(),
                spec_id: p.spec_id,
                name: p.name,
                ipc: c.ipc_since_mark(),
                retired: c.retired_since_mark(),
                prefetches: c.hierarchy.prefetches.get(),
                loads: c.hierarchy.loads.get(),
            })
            .collect();
        let gpu = self.gpu.as_ref().map(|g| {
            let (err_mean, err_min, err_max, predicted, relearn) = match self.qos.as_ref() {
                Some(q) => (
                    q.frpu.error_percent.mean(),
                    q.frpu.error_percent.min(),
                    q.frpu.error_percent.max(),
                    q.frpu.predicted_frames,
                    q.frpu.relearn_events,
                ),
                None => (0.0, 0.0, 0.0, 0, 0),
            };
            GpuResult {
                game: self.game_name,
                fps: g.fps(),
                fps_min: g.fps_of_cycles(g.stats.frame_cycles.max()),
                frames: g.stats.frames.get(),
                llc_reads: g.stats.llc_reads_sent.get(),
                llc_writes: g.stats.llc_writes_sent.get(),
                est_error_mean: err_mean,
                est_error_min: err_min,
                est_error_max: err_max,
                predicted_frames: predicted,
                relearn_events: relearn,
                throttle_w_g: self.qos.as_ref().map(|q| q.atu.decision().w_g).unwrap_or(0),
                gated_cycles: g.stats.gated_cycles.get(),
                unit_stats: g.unit_stats(),
            }
        });
        let ls = &self.uncore.llc.stats;
        let llc = LlcResult {
            cpu_hits: ls.cpu_hits.get(),
            cpu_misses: ls.cpu_misses.get(),
            gpu_hits: ls.gpu_hits.get(),
            gpu_misses: ls.gpu_misses.get(),
            back_invalidations: self.uncore.stats.back_invalidations.get(),
            gpu_fills_bypassed: self.uncore.stats.gpu_fills_bypassed.get(),
        };
        let mut dram = DramResult::default();
        let mut hit_weight = 0.0;
        let mut lat_sum = 0.0;
        let mut lat_n = 0u64;
        for ch in &self.uncore.channels {
            dram.cpu_read_bytes += ch.stats.cpu_read_bytes.get();
            dram.cpu_write_bytes += ch.stats.cpu_write_bytes.get();
            dram.gpu_read_bytes += ch.stats.gpu_read_bytes.get();
            dram.gpu_write_bytes += ch.stats.gpu_write_bytes.get();
            dram.reads += ch.stats.reads.get();
            dram.writes += ch.stats.writes.get();
            hit_weight += ch.stats.row_hit_rate();
            lat_sum += ch.stats.read_latency.mean() * ch.stats.read_latency.count() as f64;
            lat_n += ch.stats.read_latency.count();
        }
        dram.row_hit_rate = hit_weight / self.uncore.channels.len() as f64;
        dram.read_latency_mean = if lat_n == 0 {
            0.0
        } else {
            lat_sum / lat_n as f64
        };
        dram.energy_pj = self
            .uncore
            .channels
            .iter()
            .map(|ch| ch.energy.total_pj())
            .sum();
        let dram_cycles = (self.now - self.mark_cycle) / gat_sim::DRAM_CLOCK_DIVIDER;
        dram.power_mw = self
            .uncore
            .channels
            .iter()
            .map(|ch| ch.energy.average_power_mw(dram_cycles))
            .sum();
        RunResult {
            cores,
            gpu,
            llc,
            dram,
            cycles: self.now - self.mark_cycle,
            label: self.label.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunLimits;
    use gat_workloads::{game, spec};

    fn smoke_cfg(num_cpus: u8) -> MachineConfig {
        let mut cfg = MachineConfig::table_one(256, 42);
        cfg.num_cpus = num_cpus;
        cfg.limits = RunLimits::smoke();
        cfg
    }

    #[test]
    fn cpu_only_run_produces_ipc() {
        let cfg = smoke_cfg(1);
        let mut sys = HeteroSystem::new(cfg, &[spec(403)], None);
        let r = sys.run();
        assert_eq!(r.cores.len(), 1);
        assert!(r.cores[0].ipc > 0.1, "ipc {}", r.cores[0].ipc);
        assert!(r.gpu.is_none());
        assert!(r.llc.cpu_misses > 0);
    }

    #[test]
    fn gpu_only_run_produces_fps() {
        let cfg = smoke_cfg(4);
        let mut sys = HeteroSystem::new(cfg, &[], Some(game("UT2004")));
        let r = sys.run();
        let g = r.gpu.expect("gpu result");
        assert!(g.frames >= 3);
        assert!(g.fps > 0.0, "fps {}", g.fps);
        assert!(r.llc.gpu_misses > 0);
        assert!(r.dram.gpu_bytes() > 0);
    }

    #[test]
    fn heterogeneous_run_degrades_both_sides() {
        let cfg = smoke_cfg(1);
        let apps = [spec(470)];
        let game_p = game("DOOM3");

        let alone_cpu = HeteroSystem::new(cfg.clone(), &apps, None).run();
        let alone_gpu = HeteroSystem::new(cfg.clone(), &[], Some(game_p.clone())).run();
        let both = HeteroSystem::new(cfg, &apps, Some(game_p)).run();

        let cpu_ratio = both.cores[0].ipc / alone_cpu.cores[0].ipc;
        let gpu_ratio = both.gpu.as_ref().unwrap().fps / alone_gpu.gpu.as_ref().unwrap().fps;
        assert!(cpu_ratio < 1.02, "co-run CPU ratio {cpu_ratio}");
        assert!(gpu_ratio < 1.02, "co-run GPU ratio {gpu_ratio}");
        assert!(cpu_ratio > 0.2 && gpu_ratio > 0.2, "sane degradation");
    }

    #[test]
    fn run_event_stream_and_registry_cover_a_qos_run() {
        let mut cfg = smoke_cfg(1);
        cfg.qos = QosMode::ThrotCpuPrio;
        let mut sys = HeteroSystem::new(cfg, &[spec(403)], Some(game("NFS")));
        let sub = sys.subscribe_run_events();
        sys.set_epoch_sampling(Some(100_000));
        let _ = sys.run();
        let p = sys.poll_run_events(sub);
        assert!(!p.events.is_empty(), "no run events published");
        let frames = p
            .events
            .iter()
            .filter(|e| matches!(e, RunEvent::FrameBoundary { .. }))
            .count();
        assert!(frames >= 3, "expected frame boundaries, got {frames}");
        let epochs = p
            .events
            .iter()
            .filter(|e| matches!(e, RunEvent::EpochSnapshot(_)))
            .count();
        assert!(epochs >= 2, "expected epoch snapshots, got {epochs}");
        // Every event serializes to a valid JSONL line.
        for e in &p.events {
            gat_sim::json::validate_json_line(&e.to_json()).unwrap();
        }
        // The registry snapshot carries the documented key namespace.
        let snap = sys.registry_snapshot();
        for key in [
            "llc.cpu_misses",
            "dram.ch0.row_hits",
            "frpu.relearn_events",
            "atu.w_g",
            "gpu.frames",
            "cpu.retired",
        ] {
            assert!(snap.get(key).is_some(), "registry key {key} missing");
        }
        // Frame boundaries ride the same stream the timeline binary uses.
        let fb = p.events.iter().find_map(|e| match e {
            RunEvent::FrameBoundary { fps, .. } => Some(*fps),
            RunEvent::Qos { .. } | RunEvent::DramPrioFlip { .. } | RunEvent::EpochSnapshot(_) => {
                None
            }
        });
        assert!(fb.unwrap() > 0.0);
    }

    #[test]
    fn watchdog_catches_a_wedged_scheduler() {
        use gat_sim::faults::FaultPlan;
        let mut cfg = smoke_cfg(4);
        // Wedge the GPU scheduler from cycle 0: quota stays 0 and no
        // timed gate explains the silence.
        cfg.faults = FaultPlan::parse("wedge=0").unwrap();
        cfg.limits.watchdog = 50_000;
        let mut sys = HeteroSystem::new(cfg, &[], Some(game("NFS")));
        let err = sys.try_run().unwrap_err();
        let SimError::Wedged {
            cycle,
            window,
            diagnostic,
        } = &err
        else {
            panic!("expected Wedged, got {err}");
        };
        assert_eq!(*window, 50_000);
        // Warm-up ends at 60_000; the first deadline after it finds no
        // progress and trips.
        assert_eq!(*cycle, 110_000, "tripped at {cycle}");
        assert!(diagnostic.contains("watchdog_dump"), "{diagnostic}");
        for line in diagnostic.lines() {
            gat_sim::json::validate_json_line(line).unwrap();
        }
    }

    #[test]
    fn stall_bursts_slow_the_gpu_deterministically() {
        use gat_sim::faults::FaultPlan;
        let run = |plan: FaultPlan| {
            let mut cfg = smoke_cfg(4);
            cfg.faults = plan;
            HeteroSystem::new(cfg, &[], Some(game("NFS"))).run()
        };
        let clean = run(FaultPlan::none());
        let plan = FaultPlan::parse("gpu.stall.period=2000,gpu.stall.len=1000").unwrap();
        let a = run(plan.clone());
        let b = run(plan);
        assert_eq!(a.cycles, b.cycles, "same plan, same seed");
        assert_eq!(
            a.gpu.as_ref().unwrap().gated_cycles,
            b.gpu.as_ref().unwrap().gated_cycles
        );
        assert!(
            a.cycles > clean.cycles,
            "stalled {} vs clean {}",
            a.cycles,
            clean.cycles
        );
        assert!(a.gpu.unwrap().gated_cycles > clean.gpu.unwrap().gated_cycles);
    }

    #[test]
    fn frpu_sensor_noise_degrades_the_controller_gracefully() {
        use gat_sim::faults::FaultPlan;
        let mut cfg = MachineConfig::table_one(64, 11);
        cfg.qos = QosMode::ThrotCpuPrio;
        cfg.limits = RunLimits {
            cpu_instructions: 0,
            gpu_frames: 24,
            warmup_cycles: 20_000,
            max_cycles: 300_000_000,
            watchdog: 50_000_000,
        };
        cfg.faults = FaultPlan::parse("frpu.jitter=0.8").unwrap();
        let mut sys = HeteroSystem::new(cfg, &[], Some(game("NFS")));
        let sub = sys.subscribe_run_events();
        let r = sys.try_run().expect("degraded run still completes");
        assert!(r.gpu.unwrap().frames >= 24, "frames still render");
        assert!(sys.qos_degraded(), "relearn storm must latch the fallback");
        // Degraded holds the throttle off: gate open, no boost.
        let (w_g, boost) = sys.qos_snapshot();
        assert_eq!(w_g, 0, "throttle released");
        assert!(!boost, "no CPU priority boost while degraded");
        let p = sys.poll_run_events(sub);
        assert!(
            p.events.iter().any(|e| matches!(
                e,
                RunEvent::Qos {
                    event: QosEvent::Degraded { .. },
                    ..
                }
            )),
            "Degraded event published"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = smoke_cfg(2);
        let apps = [spec(403), spec(482)];
        let a = HeteroSystem::new(cfg.clone(), &apps, Some(game("NFS"))).run();
        let b = HeteroSystem::new(cfg, &apps, Some(game("NFS"))).run();
        assert_eq!(a.cores[0].retired, b.cores[0].retired);
        assert_eq!(a.llc.cpu_misses, b.llc.cpu_misses);
        assert_eq!(
            a.gpu.as_ref().unwrap().frames,
            b.gpu.as_ref().unwrap().frames
        );
        assert_eq!(a.cycles, b.cycles);
    }
}
