//! The QoS controller: glue between the FRPU, the ATU and the DRAM
//! scheduler (steps 1–3 of §III).
//!
//! Per RTP boundary the controller refreshes the ATU policy with the
//! FRPU's projection; per GPU cycle it answers "how many LLC accesses may
//! the GPU make" and "should CPU priority be boosted in the DRAM
//! scheduler". It also derives the frame-deadline urgency signal that the
//! DynPrio comparison scheduler consumes (the DynPrio study uses this
//! paper's frame-rate estimator for progress, §IV/§VI).

use crate::atu::AccessThrottler;
use crate::frpu::{FrameRateEstimator, FrpuConfig, Phase};
use gat_gpu::GpuEvent;
use gat_sim::events::{EventBus, Poll, SubscriberId};
use gat_sim::{Cycle, GPU_FREQ_HZ};
use std::collections::VecDeque;
use std::fmt;

/// A configuration value that would make the simulated machine degenerate
/// (division by zero, empty structures, dead control loops). Returned by
/// the `validate()` methods on the config structs so binaries can reject
/// bad inputs before constructing a system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending field, dotted-path style (e.g. `qos.target_fps`).
    pub field: &'static str,
    /// Human-readable explanation of why the value is rejected.
    pub reason: String,
}

impl ConfigError {
    pub fn new(field: &'static str, reason: impl Into<String>) -> Self {
        Self {
            field,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid config: {}: {}", self.field, self.reason)
    }
}

impl std::error::Error for ConfigError {}

/// Structured QoS transitions published by the controller on a bounded
/// ring ([`gat_sim::events::EventBus`]); consumers subscribe via
/// [`QosController::subscribe_events`]. Cycles are GPU cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QosEvent {
    /// FRPU FSM transition (Fig. 4): learning ↔ prediction.
    FrpuPhase {
        cycle: Cycle,
        from: Phase,
        to: Phase,
    },
    /// The FRPU discarded its model (point B of Fig. 4); `total` is the
    /// cumulative re-learn count.
    FrpuRelearn { cycle: Cycle, total: u64 },
    /// The ATU gate went from open to closed (`W_G` 0 → nonzero).
    ThrottleEngage { cycle: Cycle, w_g: u64 },
    /// The gate window changed while engaged.
    ThrottleAdjust {
        cycle: Cycle,
        from_w_g: u64,
        w_g: u64,
    },
    /// The gate fully opened (`W_G` → 0).
    ThrottleRelease { cycle: Cycle },
    /// The controller entered the safe throttle-off fallback: the FRPU
    /// signal became implausible (relearn storm or non-finite prediction),
    /// so actuating on it would throttle on garbage. `relearns` is the
    /// cumulative re-learn count at the time of degradation. Latched for
    /// the rest of the run.
    Degraded { cycle: Cycle, relearns: u64 },
}

/// Capacity of the controller's event ring. Evaluations run ~64× per
/// frame and most produce no transition; consumers polling once per frame
/// stay far below this bound.
const QOS_EVENT_RING: usize = 4096;

/// Controller policy knobs.
#[derive(Debug, Clone)]
pub struct QosControllerConfig {
    /// Target QoS threshold; the paper uses 40 FPS (30 FPS acceptability
    /// plus a 10 FPS cushion, §II).
    pub target_fps: f64,
    /// Work scale of the GPU pipeline (converts real frame budgets into
    /// measured cycles; see `gat-gpu`).
    pub scale: u32,
    /// Step 2 (GPU LLC access throttling) enabled.
    pub enable_throttle: bool,
    /// Step 3 (CPU priority boost in the DRAM scheduler) enabled.
    pub enable_cpu_prio: bool,
    /// Use Fig. 6's strict W_G reset on overshoot instead of the default
    /// gentle release (ablation knob; DESIGN.md §5).
    pub strict_release: bool,
    /// Degrade (latch throttle-off) once this many FRPU re-learns land
    /// within [`Self::degrade_window_frames`] frames — a relearn storm
    /// means the estimator never holds a model long enough to trust.
    pub degrade_relearn_limit: u64,
    /// Sliding window, in completed frames, over which the relearn storm
    /// threshold is measured.
    pub degrade_window_frames: usize,
    pub frpu: FrpuConfig,
}

impl QosControllerConfig {
    /// The full proposal ("ThrotCPUprio" in Fig. 12).
    pub fn proposal(scale: u32) -> Self {
        Self {
            target_fps: 40.0,
            scale,
            enable_throttle: true,
            enable_cpu_prio: true,
            strict_release: false,
            // The Fig. 4 FSM relearns at most once per two frames
            // (discard → skip partial → learn a full frame), so 3-in-8 is
            // already ~75% of the maximum churn rate: the model is being
            // discarded nearly as fast as it can be rebuilt.
            degrade_relearn_limit: 3,
            degrade_window_frames: 8,
            frpu: FrpuConfig::default(),
        }
    }

    /// Throttling only ("Throttled" in Fig. 9).
    pub fn throttle_only(scale: u32) -> Self {
        Self {
            enable_cpu_prio: false,
            ..Self::proposal(scale)
        }
    }

    /// CPU-priority boost only (ablation): the FRPU decides when the GPU
    /// is above target, but the gate never closes.
    pub fn prio_only(scale: u32) -> Self {
        Self {
            enable_throttle: false,
            enable_cpu_prio: true,
            ..Self::proposal(scale)
        }
    }

    /// Estimation only — FRPU runs (for Fig. 8 error measurements and for
    /// DynPrio's progress signal) but nothing is actuated.
    pub fn observe_only(scale: u32) -> Self {
        Self {
            enable_throttle: false,
            enable_cpu_prio: false,
            ..Self::proposal(scale)
        }
    }

    /// Reject degenerate controller parameters (satellite of the chaos
    /// harness: every binary validates before running).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.target_fps.is_finite() || self.target_fps <= 0.0 {
            return Err(ConfigError::new(
                "qos.target_fps",
                format!("must be finite and positive, got {}", self.target_fps),
            ));
        }
        if self.scale == 0 {
            return Err(ConfigError::new("qos.scale", "must be nonzero"));
        }
        if self.degrade_relearn_limit == 0 {
            return Err(ConfigError::new(
                "qos.degrade_relearn_limit",
                "must be at least 1 (0 would degrade on the first relearn window)",
            ));
        }
        if self.degrade_window_frames < 2 {
            return Err(ConfigError::new(
                "qos.degrade_window_frames",
                "needs at least 2 frames to measure a relearn rate",
            ));
        }
        Ok(())
    }
}

/// Dynamic outputs consumed by the uncore each cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QosSignals {
    /// GPU access throttling currently active.
    pub throttling: bool,
    /// Assert elevated CPU priority in the DRAM scheduler (§III-C).
    pub cpu_prio_boost: bool,
    /// DynPrio's deadline signal: inside the last 10% of the frame budget.
    pub gpu_urgent: bool,
    /// The frame-rate estimator projects the GPU ahead of its deadline.
    pub gpu_above_target: bool,
}

/// The controller.
pub struct QosController {
    cfg: QosControllerConfig,
    pub frpu: FrameRateEstimator,
    pub atu: AccessThrottler,
    /// GPU cycle at which the current frame started.
    frame_start: Cycle,
    /// Target cycles per frame, in measured (scaled) units.
    c_t: f64,
    /// Latest evaluation found the GPU faster than the target.
    above_target: bool,
    /// Periodic policy evaluation (the paper reads the RTPi table "only
    /// periodically at a certain interval", §III-D): next due cycle.
    next_eval: Cycle,
    /// Evaluation interval in GPU cycles (C_T / 64).
    eval_interval: Cycle,
    /// Latched safe fallback: the FRPU signal went implausible, so the
    /// ATU is held open and CPU-prio actuation is suppressed.
    degraded: bool,
    /// Cumulative relearn count sampled at each frame boundary; the
    /// newest-minus-oldest delta over the window is the storm detector.
    relearn_history: VecDeque<u64>,
    /// Structured transition stream; see [`QosEvent`].
    events: EventBus<QosEvent>,
}

impl QosController {
    pub fn new(cfg: QosControllerConfig) -> Self {
        assert!(cfg.target_fps > 0.0);
        let c_t = GPU_FREQ_HZ as f64 / cfg.target_fps / f64::from(cfg.scale.max(1));
        let frpu = FrameRateEstimator::new(cfg.frpu.clone());
        let mut atu = AccessThrottler::new();
        atu.gentle_release = !cfg.strict_release;
        let eval_interval = ((c_t / 64.0) as Cycle).max(1);
        Self {
            cfg,
            frpu,
            atu,
            frame_start: 0,
            c_t,
            above_target: false,
            next_eval: 0,
            eval_interval,
            degraded: false,
            relearn_history: VecDeque::new(),
            events: EventBus::new(QOS_EVENT_RING),
        }
    }

    /// Register a consumer of the [`QosEvent`] stream.
    pub fn subscribe_events(&mut self) -> SubscriberId {
        self.events.subscribe()
    }

    /// Deliver all transitions published since this subscriber's last poll.
    pub fn poll_events(&mut self, sub: SubscriberId) -> Poll<QosEvent> {
        self.events.poll(sub)
    }

    /// Allocation-free [`Self::poll_events`]: appends the pending events to
    /// `out` and returns the missed count.
    pub fn poll_events_into(&mut self, sub: SubscriberId, out: &mut Vec<QosEvent>) -> u64 {
        self.events.poll_into(sub, out)
    }

    /// The underlying event ring (published/dropped accounting).
    pub fn event_bus(&self) -> &EventBus<QosEvent> {
        &self.events
    }

    pub fn config(&self) -> &QosControllerConfig {
        &self.cfg
    }

    /// Target cycles per frame in measured units (`C_T`).
    pub fn target_cycles(&self) -> f64 {
        self.c_t
    }

    /// Feed the GPU's milestone events observed up to GPU cycle `now`.
    pub fn on_gpu_events(&mut self, now: Cycle, events: &[GpuEvent]) {
        for e in events {
            let prev_phase = self.frpu.phase();
            let prev_relearns = self.frpu.relearn_events;
            match *e {
                GpuEvent::RtpComplete {
                    updates,
                    cycles,
                    tiles,
                    llc_accesses,
                    ..
                } => {
                    self.frpu
                        .on_rtp_complete(updates, cycles, tiles, llc_accesses);
                    self.publish_frpu_transitions(now, prev_phase, prev_relearns);
                    self.evaluate(now);
                }
                GpuEvent::FrameComplete { cycles, .. } => {
                    self.frpu.on_frame_complete(cycles);
                    self.publish_frpu_transitions(now, prev_phase, prev_relearns);
                    self.frame_start = now;
                    self.note_frame_relearns(now);
                    self.evaluate(now);
                }
            }
        }
    }

    /// Publish FRPU FSM transitions by diffing against the state captured
    /// before the estimator was fed.
    fn publish_frpu_transitions(&mut self, now: Cycle, prev_phase: Phase, prev_relearns: u64) {
        let total = self.frpu.relearn_events;
        if total > prev_relearns {
            self.events
                .publish(QosEvent::FrpuRelearn { cycle: now, total });
        }
        let phase = self.frpu.phase();
        if phase != prev_phase {
            self.events.publish(QosEvent::FrpuPhase {
                cycle: now,
                from: prev_phase,
                to: phase,
            });
        }
    }

    /// Sample the cumulative relearn count at a frame boundary and trip
    /// the degradation latch if the windowed rate crosses the limit — an
    /// estimator that keeps discarding its model (e.g. under injected
    /// sensor noise) is not a signal worth actuating on.
    fn note_frame_relearns(&mut self, now: Cycle) {
        self.relearn_history.push_back(self.frpu.relearn_events);
        if self.relearn_history.len() > self.cfg.degrade_window_frames {
            self.relearn_history.pop_front();
        }
        if let (Some(&oldest), Some(&newest)) =
            (self.relearn_history.front(), self.relearn_history.back())
        {
            if newest - oldest >= self.cfg.degrade_relearn_limit {
                self.enter_degraded(now);
            }
        }
    }

    /// Latch the safe throttle-off fallback and publish [`QosEvent::Degraded`]
    /// (once). The ATU is forced open here and held open by every later
    /// evaluation.
    fn enter_degraded(&mut self, now: Cycle) {
        if !self.degraded {
            self.degraded = true;
            self.events.publish(QosEvent::Degraded {
                cycle: now,
                relearns: self.frpu.relearn_events,
            });
        }
    }

    /// The controller has latched its safe fallback (see [`QosEvent::Degraded`]).
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Run one Fig. 6 evaluation from the current FRPU state, using the
    /// live (elapsed-floored) projection so fast periodic ramping cannot
    /// outrun stale per-RTP feedback.
    fn evaluate(&mut self, now: Cycle) {
        let prev_w_g = self.atu.decision().w_g;
        let elapsed = now.saturating_sub(self.frame_start);
        let live = self.frpu.live_prediction(elapsed);
        if live.is_some_and(|c_p| !c_p.is_finite() || c_p <= 0.0) {
            // Non-finite or non-positive frame projection: garbage in, no
            // actuation out.
            self.enter_degraded(now);
        }
        if self.degraded {
            self.above_target = false;
            self.atu.disable();
        } else {
            self.above_target = live.is_some_and(|c_p| c_p < self.c_t);
            if self.cfg.enable_throttle {
                match (live, self.frpu.accesses_per_frame()) {
                    (Some(c_p), Some(a)) => {
                        self.atu.update(self.c_t, c_p, a);
                    }
                    _ => self.atu.disable(), // learning phase: run unthrottled
                }
            } else {
                self.atu.disable();
            }
        }
        let w_g = self.atu.decision().w_g;
        if w_g != prev_w_g {
            let ev = if prev_w_g == 0 {
                QosEvent::ThrottleEngage { cycle: now, w_g }
            } else if w_g == 0 {
                QosEvent::ThrottleRelease { cycle: now }
            } else {
                QosEvent::ThrottleAdjust {
                    cycle: now,
                    from_w_g: prev_w_g,
                    w_g,
                }
            };
            self.events.publish(ev);
        }
    }

    /// LLC send quota for the GPU at GPU cycle `now`.
    pub fn quota(&self, now: Cycle) -> u32 {
        self.atu.quota(now)
    }

    /// Report the sends the GPU actually made. Also drives the periodic
    /// policy evaluation (W_G ramps between RTP boundaries too, so fast
    /// renderers converge within a frame or two).
    pub fn note_sends(&mut self, now: Cycle, sends: u32) {
        self.atu.note_sends(now, sends);
        if now >= self.next_eval {
            self.next_eval = now + self.eval_interval;
            self.evaluate(now);
        }
    }

    /// Cycle-level signals for the DRAM scheduler.
    pub fn signals(&self, now: Cycle) -> QosSignals {
        let throttling = self.atu.is_throttling();
        let elapsed = now.saturating_sub(self.frame_start) as f64;
        // DynPrio: urgent when ≥90% of the frame budget elapsed and the
        // frame is still rendering.
        let gpu_urgent = self.frpu.phase() == Phase::Predicting && elapsed >= 0.9 * self.c_t;
        // With throttling enabled, the boost rides the gate; in the
        // prio-only ablation it rides the above-target estimate directly.
        let engaged = if self.cfg.enable_throttle {
            throttling
        } else {
            self.above_target
        };
        QosSignals {
            throttling,
            cpu_prio_boost: self.cfg.enable_cpu_prio && engaged,
            gpu_urgent,
            gpu_above_target: self.above_target,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rtp(updates: u64, cycles: u64, llc: u64) -> GpuEvent {
        GpuEvent::RtpComplete {
            frame: 0,
            rtp: 0,
            updates,
            cycles,
            tiles: 10,
            llc_accesses: llc,
        }
    }

    fn frame(cycles: u64) -> GpuEvent {
        GpuEvent::FrameComplete { frame: 0, cycles }
    }

    /// Learn a 4-RTP frame with the given per-RTP cycles.
    fn learn(ctrl: &mut QosController, cycles_per_rtp: u64) {
        let evs: Vec<GpuEvent> = (0..4)
            .map(|_| rtp(1000, cycles_per_rtp, 250))
            .chain(std::iter::once(frame(4 * cycles_per_rtp)))
            .collect();
        ctrl.on_gpu_events(cycles_per_rtp * 4, &evs);
    }

    #[test]
    fn target_cycles_reflect_scale() {
        let c = QosController::new(QosControllerConfig::proposal(16));
        // 1 GHz / 40 FPS / 16 = 1.5625 M measured cycles.
        assert!((c.target_cycles() - 1_562_500.0).abs() < 1.0);
    }

    #[test]
    fn fast_gpu_gets_throttled_and_boosts_cpu_prio() {
        let mut c = QosController::new(QosControllerConfig::proposal(16));
        // Learned frame far faster than target (4×2000 cycles vs 1.5M).
        learn(&mut c, 2000);
        // Next RTP in prediction phase triggers an evaluation.
        c.on_gpu_events(10_000, &[rtp(1000, 2000, 250)]);
        assert!(c.atu.is_throttling());
        let s = c.signals(10_000);
        assert!(s.throttling && s.cpu_prio_boost);
        assert!(c.quota(10_000) < u32::MAX);
    }

    #[test]
    fn slow_gpu_is_left_alone() {
        let mut c = QosController::new(QosControllerConfig::proposal(1));
        // 1 GHz / 40 FPS = 25 M cycles budget; frame takes 40 M.
        learn(&mut c, 10_000_000);
        c.on_gpu_events(50_000_000, &[rtp(1000, 10_000_000, 250)]);
        assert!(!c.atu.is_throttling());
        assert_eq!(c.quota(50_000_000), u32::MAX);
        assert!(!c.signals(50_000_000).cpu_prio_boost);
    }

    #[test]
    fn throttle_only_never_boosts_cpu_prio() {
        let mut c = QosController::new(QosControllerConfig::throttle_only(16));
        learn(&mut c, 2000);
        c.on_gpu_events(10_000, &[rtp(1000, 2000, 250)]);
        assert!(c.atu.is_throttling());
        assert!(!c.signals(10_000).cpu_prio_boost);
    }

    #[test]
    fn observe_only_never_throttles() {
        let mut c = QosController::new(QosControllerConfig::observe_only(16));
        learn(&mut c, 2000);
        c.on_gpu_events(10_000, &[rtp(1000, 2000, 250)]);
        assert!(!c.atu.is_throttling());
        assert_eq!(c.quota(10_000), u32::MAX);
        // The FRPU still runs (Fig. 8 needs it).
        assert_eq!(c.frpu.phase(), Phase::Predicting);
    }

    #[test]
    fn gpu_urgent_in_last_tenth_of_budget() {
        let mut c = QosController::new(QosControllerConfig::observe_only(16));
        learn(&mut c, 2000);
        let budget = c.target_cycles();
        // Frame started at the last FrameComplete (8000 in `learn`).
        let start = 8000u64;
        assert!(!c.signals(start + (0.5 * budget) as u64).gpu_urgent);
        assert!(c.signals(start + (0.95 * budget) as u64).gpu_urgent);
    }

    #[test]
    fn event_stream_reports_phase_engage_and_release() {
        let mut c = QosController::new(QosControllerConfig::proposal(16));
        let sub = c.subscribe_events();
        learn(&mut c, 2000);
        // Learning → Predicting transition is published, and the fast
        // learned frame engages the gate in the same evaluation.
        let p = c.poll_events(sub);
        assert!(p.events.contains(&QosEvent::FrpuPhase {
            cycle: 8000,
            from: Phase::Learning,
            to: Phase::Predicting,
        }));
        assert!(p
            .events
            .iter()
            .any(|e| matches!(e, QosEvent::ThrottleEngage { w_g: 2, .. })));
        // The next fast RTP ramps the window: adjust, not engage.
        c.on_gpu_events(10_000, &[rtp(1000, 2000, 250)]);
        let p = c.poll_events(sub);
        assert!(p.events.iter().any(|e| matches!(
            e,
            QosEvent::ThrottleAdjust {
                from_w_g: 2,
                w_g: 4,
                ..
            }
        )));
        // A scene cut (work deviation) re-learns, releasing the gate.
        c.on_gpu_events(14_000, &[rtp(50_000, 2000, 250)]);
        let p = c.poll_events(sub);
        assert!(p
            .events
            .iter()
            .any(|e| matches!(e, QosEvent::FrpuRelearn { total: 1, .. })));
        assert!(p
            .events
            .iter()
            .any(|e| matches!(e, QosEvent::ThrottleRelease { .. })));
        assert_eq!(c.event_bus().dropped(), 0);
    }

    #[test]
    fn relearn_storm_latches_degraded_and_holds_throttle_off() {
        let mut cfg = QosControllerConfig::proposal(16);
        cfg.degrade_relearn_limit = 2;
        cfg.degrade_window_frames = 4;
        let mut c = QosController::new(cfg);
        let sub = c.subscribe_events();
        learn(&mut c, 2000);
        c.on_gpu_events(10_000, &[rtp(1000, 2000, 250)]);
        assert!(c.atu.is_throttling(), "healthy signal throttles first");
        // Alternate the per-RTP work wildly: every frame relearns.
        let mut now = 10_000;
        for i in 0..6u64 {
            let updates = if i % 2 == 0 { 100_000 } else { 500 };
            now += 8000;
            c.on_gpu_events(now, &[rtp(updates, 2000, 250), frame(8000)]);
        }
        assert!(c.is_degraded(), "storm of relearns must trip the latch");
        assert!(!c.atu.is_throttling(), "fallback is throttle-off");
        assert_eq!(c.quota(now), u32::MAX);
        let s = c.signals(now);
        assert!(!s.cpu_prio_boost && !s.gpu_above_target);
        let p = c.poll_events(sub);
        assert_eq!(
            p.events
                .iter()
                .filter(|e| matches!(e, QosEvent::Degraded { .. }))
                .count(),
            1,
            "Degraded is published exactly once"
        );
        // Later healthy frames do not re-arm the throttle: latched.
        for _ in 0..4 {
            now += 8000;
            let evs: Vec<GpuEvent> = (0..4)
                .map(|_| rtp(1000, 2000, 250))
                .chain(std::iter::once(frame(8000)))
                .collect();
            c.on_gpu_events(now, &evs);
        }
        assert!(c.is_degraded() && !c.atu.is_throttling());
    }

    #[test]
    fn stable_workload_never_degrades() {
        let mut c = QosController::new(QosControllerConfig::proposal(16));
        learn(&mut c, 2000);
        let mut now = 8000;
        for _ in 0..32 {
            now += 8000;
            let evs: Vec<GpuEvent> = (0..4)
                .map(|_| rtp(1000, 2000, 250))
                .chain(std::iter::once(frame(8000)))
                .collect();
            c.on_gpu_events(now, &evs);
        }
        assert!(!c.is_degraded());
        assert!(c.atu.is_throttling(), "fast stable GPU stays throttled");
    }

    #[test]
    fn validate_rejects_degenerate_knobs() {
        assert!(QosControllerConfig::proposal(16).validate().is_ok());
        let mut bad = QosControllerConfig::proposal(16);
        bad.target_fps = 0.0;
        assert_eq!(bad.validate().unwrap_err().field, "qos.target_fps");
        let mut bad = QosControllerConfig::proposal(16);
        bad.target_fps = f64::NAN;
        assert!(bad.validate().is_err());
        let mut bad = QosControllerConfig::proposal(0);
        bad.scale = 0;
        assert_eq!(bad.validate().unwrap_err().field, "qos.scale");
        let mut bad = QosControllerConfig::proposal(16);
        bad.degrade_relearn_limit = 0;
        assert!(bad.validate().is_err());
        let mut bad = QosControllerConfig::proposal(16);
        bad.degrade_window_frames = 1;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn learning_phase_runs_unthrottled() {
        let mut c = QosController::new(QosControllerConfig::proposal(16));
        c.on_gpu_events(100, &[rtp(1000, 2000, 250)]);
        assert!(!c.atu.is_throttling());
        assert_eq!(c.quota(100), u32::MAX);
    }
}
