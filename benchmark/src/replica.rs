//! A bench-side replica of `HeteroSystem`'s cycle loop, assembled from the
//! layers' public types (`Core`, `GpuPipeline`, `QosController`,
//! `Uncore`), so the benchmark can time each call into a layer without
//! touching simulator code.
//!
//! The loop mirrors steps 1–5 of `HeteroSystem::tick` for fault-free runs
//! without an epoch sampler, and has no fast-forward: every component
//! ticks every cycle. Run-event publication is left out; nothing it does
//! feeds back into the machine. The replica must reproduce production
//! exactly ([`Fingerprint`]); the trace refuses to report layer times for
//! a run it does not reproduce.
//!
//! [`Replica::run`] is the plain loop. [`Replica::run_traced`] marks the
//! layer the loop is in at every layer boundary of every cycle, while a
//! sampler thread reads the mark every [`SAMPLE_PERIOD`]; a layer's time
//! is the run's wall time times its share of the samples. Uncore ingress
//! (`Uncore::try_request`) is marked through a wrapping [`MemPort`] as a
//! child of the CPU or GPU call that made the request. Work is counted
//! exactly on every cycle.
//!
//! Sampling replaces clock-read spans on purpose: a clock read costs
//! 40–50 ns on a shared 2-vCPU Xeon VM, more than most layer calls, and
//! it serialises the pipeline, so per-call spans on sampled cycles
//! inflated those cycles and over-attributed time (the layer sums
//! exceeded the plain loop's wall by up to half).

use gat_cache::{BlockReq, MemPort, Source};
use gat_core::{QosController, QosControllerConfig, QosEvent};
use gat_cpu::{Core, CpuHierarchy, SpecProfile, StreamGen};
use gat_dram::{SchedCtx, SchedulerKind};
use gat_gpu::{GameProfile, GpuEvent, GpuPipeline, WorkloadGen};
use gat_hetero::uncore::{BackInval, Uncore, UncoreCompletion};
use gat_hetero::{MachineConfig, QosMode, RunResult};
use gat_sim::events::SubscriberId;
use gat_sim::metrics::{MetricValue, RegistrySnapshot};
use gat_sim::rng::SimRng;
use gat_sim::{Cycle, GPU_CLOCK_DIVIDER};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// What the replica must reproduce of a production run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub cycles: u64,
    pub retired: Vec<u64>,
    /// CPU hits, CPU misses, GPU hits, GPU misses.
    pub llc: [u64; 4],
    pub frames: Option<u64>,
    pub dram_reads: Vec<u64>,
}

impl Fingerprint {
    /// The production side, from the run result and a registry snapshot
    /// (which carries the per-channel DRAM reads).
    pub fn of_production(r: &RunResult, snap: &RegistrySnapshot, channels: u32) -> Self {
        let dram_reads = (0..channels)
            .map(|ch| match snap.get(&format!("dram.ch{ch}.reads")) {
                Some(MetricValue::Count(n)) => *n,
                _ => u64::MAX,
            })
            .collect();
        Fingerprint {
            cycles: r.cycles,
            retired: r.cores.iter().map(|c| c.retired).collect(),
            llc: [
                r.llc.cpu_hits,
                r.llc.cpu_misses,
                r.llc.gpu_hits,
                r.llc.gpu_misses,
            ],
            frames: r.gpu.as_ref().map(|g| g.frames),
            dram_reads,
        }
    }

    /// The first field where `self` (production) and `other` (replica)
    /// differ, if any.
    pub fn first_difference(&self, other: &Fingerprint) -> Option<String> {
        let fields: [(&str, String, String); 5] = [
            ("cycles", self.cycles.to_string(), other.cycles.to_string()),
            (
                "retired",
                format!("{:?}", self.retired),
                format!("{:?}", other.retired),
            ),
            (
                "llc hits/misses",
                format!("{:?}", self.llc),
                format!("{:?}", other.llc),
            ),
            (
                "gpu frames",
                format!("{:?}", self.frames),
                format!("{:?}", other.frames),
            ),
            (
                "dram reads per channel",
                format!("{:?}", self.dram_reads),
                format!("{:?}", other.dram_reads),
            ),
        ];
        fields
            .into_iter()
            .find(|(_, a, b)| a != b)
            .map(|(name, a, b)| format!("{name}: production {a}, replica {b}"))
    }
}

/// The layer the machine is in, as the traced loop marks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// The run loop around the tick (goal checks, warm-up bookkeeping).
    Loop = 0,
    Cpu = 1,
    Gpu = 2,
    Qos = 3,
    /// Uncore tick and its completion/back-invalidation drains.
    Uncore = 4,
    /// `Uncore::try_request`, nested inside a CPU or GPU call.
    Ingress = 5,
}

pub const LAYERS: usize = 6;

/// How often the sampler reads the layer mark.
pub const SAMPLE_PERIOD: Duration = Duration::from_micros(50);

/// Everything traced runs record, summed over runs.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    /// Host seconds per [`Layer`]: each run's wall time split by the share
    /// of samples that found the machine in the layer.
    pub seconds: [f64; LAYERS],
    pub samples: u64,
    /// Exact counts, every cycle.
    pub cpu_ticks: u64,
    pub gpu_ticks: u64,
    pub qos_calls: u64,
    pub ingress_attempts: u64,
    pub ingress_rejects: u64,
}

impl Trace {
    pub fn seconds(&self, layer: Layer) -> f64 {
        self.seconds[layer as usize]
    }
}

/// Run `f` while a second thread reads `mark` every [`SAMPLE_PERIOD`];
/// returns `f`'s result and the samples per layer.
fn sample_while<R>(mark: &AtomicU8, f: impl FnOnce() -> R) -> (R, [u64; LAYERS]) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut counts = [0u64; LAYERS];
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(SAMPLE_PERIOD);
                counts[usize::from(mark.load(Ordering::Relaxed))] += 1;
            }
            counts
        });
        let out = f();
        stop.store(true, Ordering::Relaxed);
        (out, sampler.join().expect("sampler thread panicked"))
    })
}

/// The uncore seen by the requester `source`. In a traced run it marks
/// the current layer for the sampler (a relaxed store: no clock read and
/// no fence on the simulated path) and counts requests; a request marks
/// ingress for its duration, as a child of the calling CPU or GPU layer.
struct Port<'a, const TRACE: bool> {
    uncore: &'a mut Uncore,
    source: Source,
    mark: &'a AtomicU8,
    tr: &'a mut Trace,
}

impl<const TRACE: bool> Port<'_, TRACE> {
    #[inline]
    fn enter(&self, layer: Layer) {
        if TRACE {
            self.mark.store(layer as u8, Ordering::Relaxed);
        }
    }
}

impl<const TRACE: bool> MemPort for Port<'_, TRACE> {
    fn try_request(&mut self, now: Cycle, req: BlockReq) -> bool {
        if !TRACE {
            return self.uncore.try_request(now, self.source, req);
        }
        self.enter(Layer::Ingress);
        let accepted = self.uncore.try_request(now, self.source, req);
        self.enter(match self.source {
            Source::Cpu(_) => Layer::Cpu,
            Source::Gpu => Layer::Gpu,
        });
        self.tr.ingress_attempts += 1;
        self.tr.ingress_rejects += u64::from(!accepted);
        accepted
    }
}

pub struct Replica {
    cfg: MachineConfig,
    cores: Vec<Core>,
    gpu: Option<GpuPipeline>,
    qos: Option<QosController>,
    qos_sub: Option<SubscriberId>,
    uncore: Uncore,
    now: Cycle,
    comp_buf: Vec<UncoreCompletion>,
    inval_buf: Vec<BackInval>,
    event_buf: Vec<GpuEvent>,
    qos_event_buf: Vec<QosEvent>,
}

impl Replica {
    /// Assemble the machine exactly as `HeteroSystem::new` does for
    /// synthetic CPU streams.
    pub fn new(
        cfg: &MachineConfig,
        apps: &[SpecProfile],
        game: Option<GameProfile>,
    ) -> Result<Self, String> {
        if !cfg.faults.is_none() {
            return Err("the replica covers fault-free runs only".into());
        }
        let root = SimRng::new(cfg.seed);
        let cores = apps
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let base = i as u64 * cfg.cpu_region_bytes;
                Core::new(
                    cfg.core.clone(),
                    StreamGen::new(*p, base, root.fork(&format!("cpu{i}"))),
                    CpuHierarchy::new(i as u8, cfg.hierarchy.clone()),
                )
            })
            .collect();
        let gpu = game.map(|g| {
            let wl = WorkloadGen::new(g, root.fork("gpu-workload"));
            let mut pl = GpuPipeline::new(cfg.gpu.clone(), wl, root.fork("gpu-pipeline"));
            pl.set_frame_budget(cfg.limits.gpu_frames + 1_000_000);
            pl
        });
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
        Ok(Replica {
            cfg: cfg.clone(),
            cores,
            gpu,
            qos,
            qos_sub,
            uncore: Uncore::new(cfg),
            now: 0,
            comp_buf: Vec::new(),
            inval_buf: Vec::new(),
            event_buf: Vec::new(),
            qos_event_buf: Vec::new(),
        })
    }

    /// Cycles simulated so far (production's `HeteroSystem::now`).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The plain loop: `HeteroSystem::try_run` without the watchdog,
    /// paranoia sweeps and fast-forward.
    pub fn run(&mut self) -> Result<Fingerprint, String> {
        self.run_loop::<false>(&AtomicU8::new(0), &mut Trace::default())
    }

    /// The same loop, marking layers for a sampler thread and counting
    /// work; adds this run's layer times and counts to `tr`.
    pub fn run_traced(&mut self, tr: &mut Trace) -> Result<Fingerprint, String> {
        let mark = AtomicU8::new(Layer::Loop as u8);
        let start = Instant::now();
        let (out, counts) = sample_while(&mark, || self.run_loop::<true>(&mark, tr));
        let wall = start.elapsed().as_secs_f64();
        let total: u64 = counts.iter().sum();
        if total > 0 {
            for (s, c) in tr.seconds.iter_mut().zip(counts) {
                *s += wall * c as f64 / total as f64;
            }
        }
        tr.samples += total;
        out
    }

    fn run_loop<const TRACE: bool>(
        &mut self,
        mark: &AtomicU8,
        tr: &mut Trace,
    ) -> Result<Fingerprint, String> {
        let limits = self.cfg.limits;
        while self.now < limits.warmup_cycles {
            self.tick::<TRACE>(mark, tr);
        }
        for core in &mut self.cores {
            core.mark();
            core.set_measure_budget(limits.cpu_instructions);
        }
        if let Some(gpu) = self.gpu.as_mut() {
            gpu.reset_stats();
        }
        self.uncore.reset_stats();
        let mark_cycle = self.now;
        if !self.goals_met() {
            loop {
                self.tick::<TRACE>(mark, tr);
                if self.now >= limits.max_cycles {
                    return Err(format!("replica hit max_cycles at {}", self.now));
                }
                if self.goals_met() {
                    break;
                }
            }
        }
        let stats = &self.uncore.llc.stats;
        Ok(Fingerprint {
            cycles: self.now - mark_cycle,
            retired: self.cores.iter().map(Core::retired_since_mark).collect(),
            llc: [
                stats.cpu_hits.get(),
                stats.cpu_misses.get(),
                stats.gpu_hits.get(),
                stats.gpu_misses.get(),
            ],
            frames: self.gpu.as_ref().map(|g| g.stats.frames.get()),
            dram_reads: self
                .uncore
                .channels
                .iter()
                .map(|ch| ch.stats.reads.get())
                .collect(),
        })
    }

    fn goals_met(&self) -> bool {
        let limits = self.cfg.limits;
        self.cores
            .iter()
            .all(|c| c.retired_since_mark() >= limits.cpu_instructions)
            && self
                .gpu
                .as_ref()
                .is_none_or(|g| g.stats.frames.get() >= u64::from(limits.gpu_frames))
    }

    /// One CPU cycle: steps 1–5 of `HeteroSystem::tick`.
    fn tick<const TRACE: bool>(&mut self, mark: &AtomicU8, tr: &mut Trace) {
        let now = self.now;
        let mut port = Port::<TRACE> {
            uncore: &mut self.uncore,
            source: Source::Cpu(0),
            mark,
            tr,
        };

        // 1. Deliver finished reads.
        port.enter(Layer::Uncore);
        port.uncore.drain_completions(&mut self.comp_buf);
        for c in &self.comp_buf {
            match c.source {
                Source::Cpu(i) => {
                    port.enter(Layer::Cpu);
                    port.source = c.source;
                    self.cores[i as usize].on_mem_response(now, c.token, &mut port);
                }
                Source::Gpu => {
                    if let Some(gpu) = self.gpu.as_mut() {
                        port.enter(Layer::Gpu);
                        gpu.on_mem_response(now / GPU_CLOCK_DIVIDER, c.token);
                    }
                }
            }
        }
        self.comp_buf.clear();

        // 2. Back-invalidations from the inclusive LLC.
        port.enter(Layer::Uncore);
        port.uncore.drain_back_invals(&mut self.inval_buf);
        port.enter(Layer::Cpu);
        for b in &self.inval_buf {
            if let Some(core) = self.cores.get_mut(b.core as usize) {
                core.back_invalidate(b.addr);
            }
        }
        self.inval_buf.clear();

        // 3. CPU cores.
        for core in &mut self.cores {
            port.source = Source::Cpu(core.core_id());
            core.tick(now, &mut port);
        }
        if TRACE {
            port.tr.cpu_ticks += self.cores.len() as u64;
        }

        // 4. GPU on its clock divider, gated by the QoS controller.
        let mut gpu_now = 0;
        if let Some(gpu) = self.gpu.as_mut() {
            gpu_now = now / GPU_CLOCK_DIVIDER;
            if now.is_multiple_of(GPU_CLOCK_DIVIDER) {
                port.enter(Layer::Qos);
                let quota = self.qos.as_ref().map_or(u32::MAX, |q| q.quota(gpu_now));
                port.enter(Layer::Gpu);
                port.source = Source::Gpu;
                let sends = gpu.tick(gpu_now, quota, &mut port);
                gpu.drain_events(&mut self.event_buf);
                port.uncore.gpu_tolerance = gpu.latency_tolerance();
                port.enter(Layer::Qos);
                if let Some(q) = self.qos.as_mut() {
                    q.note_sends(gpu_now, sends);
                    q.on_gpu_events(gpu_now, &self.event_buf);
                    if let Some(sub) = self.qos_sub {
                        q.poll_events_into(sub, &mut self.qos_event_buf);
                        self.qos_event_buf.clear();
                    }
                    if TRACE {
                        // quota, note_sends, on_gpu_events, poll
                        port.tr.qos_calls += 4;
                    }
                }
                self.event_buf.clear();
                if TRACE {
                    port.tr.gpu_ticks += 1;
                }
            }
        }

        // 5. Uncore with the QoS signals.
        port.enter(Layer::Qos);
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
        if TRACE && self.qos.is_some() {
            port.tr.qos_calls += 1;
        }
        port.enter(Layer::Uncore);
        port.uncore.tick(now, ctx);
        port.enter(Layer::Loop);
        self.now += 1;
    }
}
