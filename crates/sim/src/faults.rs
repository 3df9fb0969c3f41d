//! Deterministic fault injection: the chaos layer under the robustness
//! harness (DESIGN.md §9).
//!
//! A [`FaultPlan`] describes which boundaries of the simulated machine
//! misbehave and how hard. Every injector draws from a [`SimRng`] forked
//! off the plan's seed with a stable per-component label, so a faulted run
//! is exactly as reproducible as a clean one: same seed + same plan →
//! byte-identical exports on every rerun, independent of the experiment
//! harness's thread count.
//!
//! The plan is parsed from a compact `key=value[,key=value...]` spec
//! (CLI `--faults`, environment `GAT_FAULTS`):
//!
//! | key               | meaning                                          |
//! |-------------------|--------------------------------------------------|
//! | `seed=N`          | injector seed (default: the machine seed)        |
//! | `dram.bounce=P`   | probability a DRAM completion is bounced         |
//! | `dram.backoff=N`  | base re-queue delay, DRAM cycles (default 32)    |
//! | `dram.retries=K`  | max bounce retries per completion (default 3)    |
//! | `ring.drop=P`     | probability a ring message is dropped + NACKed   |
//! | `ring.replay=N`   | replay delay after a drop, CPU cycles (def. 64)  |
//! | `gpu.stall.period=N` | GPU frame-stall burst period, GPU cycles      |
//! | `gpu.stall.len=N` | stall-burst length, GPU cycles (`len < period`)  |
//! | `frpu.jitter=F`   | FRPU sensor noise: relative stddev on RTP        |
//! |                   | retirement timestamps and work counters          |
//! | `wedge=CYCLE`     | wedge the GPU scheduler at this CPU cycle        |
//!                       (liveness-watchdog fixture)
//!
//! Fault-free is the default: [`FaultPlan::none`] installs no injector and
//! draws no random numbers, so a zero-fault run is byte-identical to a
//! build without this module.

#![expect(
    clippy::disallowed_methods,
    reason = "R3: the fault plan owns the injector root stream and forks one per boundary"
)]

use crate::rng::SimRng;
use crate::Cycle;

/// DRAM response-delay/retry bursts: a completion is bounced and re-queued
/// with exponential backoff (`backoff * (2^r - 1)` extra DRAM cycles for
/// `r` uniform in `1..=retries`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramFaults {
    /// Probability a completion is bounced at issue time.
    pub bounce: f64,
    /// Base re-queue delay in DRAM command-clock cycles.
    pub backoff: u64,
    /// Maximum number of consecutive bounces of one completion.
    pub retries: u32,
}

impl Default for DramFaults {
    fn default() -> Self {
        Self {
            bounce: 0.0,
            backoff: 32,
            retries: 3,
        }
    }
}

/// Ring message drop + NACK/replay: a dropped message is re-injected after
/// a fixed replay delay (the NACK round trip), modelled as extra delivery
/// latency on the original flight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingFaults {
    /// Probability a message is dropped on injection.
    pub drop: f64,
    /// Replay delay in CPU cycles added when a drop occurs.
    pub replay: u64,
}

impl Default for RingFaults {
    fn default() -> Self {
        Self {
            drop: 0.0,
            replay: 64,
        }
    }
}

/// Periodic GPU frame-stall bursts: for `len` GPU cycles out of every
/// `period`, the GPU's LLC port quota is forced to zero (the pipeline
/// backs up exactly as under ATU throttling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallWindow {
    /// Burst period in GPU cycles.
    pub period: Cycle,
    /// Burst length in GPU cycles (strictly less than `period`).
    pub len: Cycle,
}

impl StallWindow {
    /// Is the GPU stalled at GPU cycle `g`?
    #[inline]
    pub fn stalled(&self, g: Cycle) -> bool {
        g % self.period < self.len
    }
}

/// The full chaos configuration for one run. `Default` is fault-free.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Injector seed override; `None` uses the machine seed. All injector
    /// streams fork from `SimRng::new(seed).fork("faults")`.
    pub seed: Option<u64>,
    pub dram: DramFaults,
    pub ring: RingFaults,
    pub gpu_stall: Option<StallWindow>,
    /// Relative stddev of the multiplicative noise applied to the GPU
    /// events the FRPU observes (RTP retirement timestamps and work
    /// counters). `0.0` disables.
    pub frpu_jitter: f64,
    /// Wedge the GPU scheduler (quota 0, no forward progress, and no timed
    /// gate to explain it) from this CPU cycle on: the liveness-watchdog
    /// test fixture.
    pub wedge: Option<Cycle>,
}

impl FaultPlan {
    /// The fault-free plan: no injectors installed, no RNG draws.
    pub fn none() -> Self {
        Self::default()
    }

    /// Does this plan inject anything at all?
    pub fn is_none(&self) -> bool {
        *self == Self::none()
    }

    /// Root RNG for the injectors of a run with machine seed
    /// `machine_seed`. Forked off a dedicated label so installing fault
    /// streams never perturbs the workload/pipeline streams.
    pub fn rng_root(&self, machine_seed: u64) -> SimRng {
        SimRng::new(self.seed.unwrap_or(machine_seed)).fork("faults")
    }

    /// Parse a `key=value[,key=value...]` spec (see the module table).
    /// The empty spec is the fault-free plan.
    pub fn parse(spec: &str) -> Result<Self, FaultSpecError> {
        let mut plan = Self::none();
        let mut stall_period: Option<Cycle> = None;
        let mut stall_len: Option<Cycle> = None;
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| FaultSpecError::MissingValue(part.to_string()))?;
            let (key, value) = (key.trim(), value.trim());
            let bad = |reason: &str| FaultSpecError::BadValue {
                key: key.to_string(),
                value: value.to_string(),
                reason: reason.to_string(),
            };
            match key {
                "seed" => plan.seed = Some(value.parse().map_err(|_| bad("expected u64"))?),
                "dram.bounce" => {
                    plan.dram.bounce = parse_probability(value)
                        .ok_or_else(|| bad("expected probability in [0,1]"))?;
                }
                "dram.backoff" => {
                    plan.dram.backoff = value.parse().map_err(|_| bad("expected u64"))?;
                }
                "dram.retries" => {
                    plan.dram.retries = value.parse().map_err(|_| bad("expected u32"))?;
                }
                "ring.drop" => {
                    plan.ring.drop = parse_probability(value)
                        .ok_or_else(|| bad("expected probability in [0,1]"))?;
                }
                "ring.replay" => {
                    plan.ring.replay = value.parse().map_err(|_| bad("expected u64"))?;
                }
                "gpu.stall.period" => {
                    stall_period = Some(value.parse().map_err(|_| bad("expected u64"))?);
                }
                "gpu.stall.len" => {
                    stall_len = Some(value.parse().map_err(|_| bad("expected u64"))?);
                }
                "frpu.jitter" => {
                    let f: f64 = value.parse().map_err(|_| bad("expected f64"))?;
                    if !f.is_finite() || f < 0.0 {
                        return Err(bad("expected finite jitter >= 0"));
                    }
                    plan.frpu_jitter = f;
                }
                "wedge" => plan.wedge = Some(value.parse().map_err(|_| bad("expected u64 cycle"))?),
                _ => return Err(FaultSpecError::UnknownKey(key.to_string())),
            }
        }
        match (stall_period, stall_len) {
            (None, None) => {}
            (Some(period), Some(len)) => plan.gpu_stall = Some(StallWindow { period, len }),
            _ => return Err(FaultSpecError::IncompleteStallWindow),
        }
        plan.validate()?;
        Ok(plan)
    }

    /// Reject degenerate plans. `parse` calls this, but a plan built
    /// directly in code may bypass the parser; config validation re-checks.
    pub fn validate(&self) -> Result<(), FaultSpecError> {
        let bad = |key: &str, value: f64| FaultSpecError::BadValue {
            key: key.to_string(),
            value: format!("{value}"),
            reason: "expected probability in [0,1]".to_string(),
        };
        if !self.dram.bounce.is_finite() || !(0.0..=1.0).contains(&self.dram.bounce) {
            return Err(bad("dram.bounce", self.dram.bounce));
        }
        if !self.ring.drop.is_finite() || !(0.0..=1.0).contains(&self.ring.drop) {
            return Err(bad("ring.drop", self.ring.drop));
        }
        if !self.frpu_jitter.is_finite() || self.frpu_jitter < 0.0 {
            return Err(FaultSpecError::BadValue {
                key: "frpu.jitter".to_string(),
                value: format!("{}", self.frpu_jitter),
                reason: "expected finite jitter >= 0".to_string(),
            });
        }
        if let Some(StallWindow { period, len }) = self.gpu_stall {
            if period == 0 || len == 0 || len >= period {
                return Err(FaultSpecError::BadStallWindow { period, len });
            }
        }
        if self.dram.bounce > 0.0 && (self.dram.backoff == 0 || self.dram.retries == 0) {
            return Err(FaultSpecError::DegenerateDram);
        }
        if self.ring.drop > 0.0 && self.ring.replay == 0 {
            return Err(FaultSpecError::DegenerateRing);
        }
        Ok(())
    }
}

fn parse_probability(value: &str) -> Option<f64> {
    let p: f64 = value.parse().ok()?;
    (p.is_finite() && (0.0..=1.0).contains(&p)).then_some(p)
}

/// Typed error for an invalid `--faults` / `GAT_FAULTS` spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpecError {
    /// A spec item had no `=`.
    MissingValue(String),
    /// An unrecognized key.
    UnknownKey(String),
    /// A value failed to parse or was out of range.
    BadValue {
        key: String,
        value: String,
        reason: String,
    },
    /// `gpu.stall.period`/`gpu.stall.len` must both be given.
    IncompleteStallWindow,
    /// Stall window needs `0 < len < period`.
    BadStallWindow { period: Cycle, len: Cycle },
    /// `dram.bounce > 0` needs nonzero backoff and retries.
    DegenerateDram,
    /// `ring.drop > 0` needs a nonzero replay delay.
    DegenerateRing,
}

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MissingValue(part) => write!(f, "fault spec item {part:?} is missing '=value'"),
            Self::UnknownKey(key) => write!(f, "unknown fault spec key {key:?}"),
            Self::BadValue { key, value, reason } => {
                write!(f, "bad value {value:?} for fault key {key:?}: {reason}")
            }
            Self::IncompleteStallWindow => {
                write!(
                    f,
                    "gpu.stall.period and gpu.stall.len must be given together"
                )
            }
            Self::BadStallWindow { period, len } => write!(
                f,
                "gpu stall window needs 0 < len < period (got period={period}, len={len})"
            ),
            Self::DegenerateDram => {
                write!(
                    f,
                    "dram.bounce > 0 needs dram.backoff > 0 and dram.retries > 0"
                )
            }
            Self::DegenerateRing => write!(f, "ring.drop > 0 needs ring.replay > 0"),
        }
    }
}

impl std::error::Error for FaultSpecError {}

/// A seeded bounce/retry injector: with probability `p` per event, delay
/// it by `base * (2^r - 1)` for `r` uniform in `1..=retries` (exponential
/// backoff over a random number of bounces). Serves both the DRAM
/// completion path (delays in DRAM cycles) and the ring injection path
/// (`retries = 1`, so the delay is exactly the replay latency).
#[derive(Debug, Clone)]
pub struct DelayInjector {
    p: f64,
    base: u64,
    retries: u32,
    rng: SimRng,
    /// Events delayed so far (observability; not exported by default).
    pub injected: u64,
}

impl DelayInjector {
    pub fn new(p: f64, base: u64, retries: u32, rng: SimRng) -> Self {
        Self {
            p,
            base,
            retries: retries.max(1),
            rng,
            injected: 0,
        }
    }

    /// Extra delay for the next event (0 when the event is not faulted).
    #[inline]
    pub fn delay(&mut self) -> u64 {
        if !self.rng.chance(self.p) {
            return 0;
        }
        self.injected += 1;
        let r = self.rng.range(1, u64::from(self.retries));
        self.base.saturating_mul((1u64 << r.min(62)) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_is_none() {
        let p = FaultPlan::parse("").unwrap();
        assert!(p.is_none());
        assert_eq!(p, FaultPlan::none());
        assert!(FaultPlan::parse("  ,  ,").unwrap().is_none());
    }

    #[test]
    fn full_spec_round_trip() {
        let p = FaultPlan::parse(
            "seed=7, dram.bounce=0.25, dram.backoff=16, dram.retries=2, \
             ring.drop=0.1, ring.replay=48, gpu.stall.period=1000, gpu.stall.len=100, \
             frpu.jitter=0.5, wedge=123456",
        )
        .unwrap();
        assert_eq!(p.seed, Some(7));
        assert_eq!(p.dram.bounce, 0.25);
        assert_eq!(p.dram.backoff, 16);
        assert_eq!(p.dram.retries, 2);
        assert_eq!(p.ring.drop, 0.1);
        assert_eq!(p.ring.replay, 48);
        assert_eq!(
            p.gpu_stall,
            Some(StallWindow {
                period: 1000,
                len: 100
            })
        );
        assert_eq!(p.frpu_jitter, 0.5);
        assert_eq!(p.wedge, Some(123_456));
        assert!(!p.is_none());
    }

    #[test]
    fn bad_specs_are_typed_errors() {
        assert!(matches!(
            FaultPlan::parse("bogus=1"),
            Err(FaultSpecError::UnknownKey(_))
        ));
        assert!(matches!(
            FaultPlan::parse("dram.bounce"),
            Err(FaultSpecError::MissingValue(_))
        ));
        assert!(matches!(
            FaultPlan::parse("dram.bounce=1.5"),
            Err(FaultSpecError::BadValue { .. })
        ));
        assert!(matches!(
            FaultPlan::parse("ring.drop=nan"),
            Err(FaultSpecError::BadValue { .. })
        ));
        assert!(matches!(
            FaultPlan::parse("gpu.stall.period=100"),
            Err(FaultSpecError::IncompleteStallWindow)
        ));
        assert!(matches!(
            FaultPlan::parse("gpu.stall.period=100,gpu.stall.len=100"),
            Err(FaultSpecError::BadStallWindow { .. })
        ));
        assert!(matches!(
            FaultPlan::parse("dram.bounce=0.5,dram.backoff=0"),
            Err(FaultSpecError::DegenerateDram)
        ));
        assert!(matches!(
            FaultPlan::parse("ring.drop=0.5,ring.replay=0"),
            Err(FaultSpecError::DegenerateRing)
        ));
        // Errors render without panicking.
        let e = FaultPlan::parse("frpu.jitter=-1").unwrap_err();
        assert!(e.to_string().contains("frpu.jitter"));
        // Hand-built plans that bypass the parser are still caught.
        let hand_built = FaultPlan {
            frpu_jitter: f64::NAN,
            ..FaultPlan::none()
        };
        assert!(hand_built.validate().is_err());
        assert!(FaultPlan::none().validate().is_ok());
    }

    #[test]
    fn stall_window_boundaries() {
        let w = StallWindow {
            period: 100,
            len: 10,
        };
        assert!(w.stalled(0));
        assert!(w.stalled(9));
        assert!(!w.stalled(10));
        assert!(!w.stalled(99));
        assert!(w.stalled(100));
    }

    #[test]
    fn delay_injector_is_deterministic_and_bounded() {
        let mk = || DelayInjector::new(0.5, 8, 3, SimRng::new(11).fork("faults"));
        let (mut a, mut b) = (mk(), mk());
        let mut fired = 0;
        for _ in 0..1000 {
            let d = a.delay();
            assert_eq!(d, b.delay());
            if d > 0 {
                fired += 1;
                // base * (2^r - 1) for r in 1..=3.
                assert!([8, 24, 56].contains(&d), "delay {d}");
            }
        }
        assert!(fired > 300 && fired < 700, "fired {fired}");
        assert_eq!(a.injected, fired);
    }

    #[test]
    fn zero_probability_injector_never_fires() {
        let mut i = DelayInjector::new(0.0, 8, 3, SimRng::new(1));
        for _ in 0..100 {
            assert_eq!(i.delay(), 0);
        }
        assert_eq!(i.injected, 0);
    }

    #[test]
    fn rng_root_is_stable_and_seed_overridable() {
        let plan = FaultPlan::none();
        let mut a = plan.rng_root(5);
        let mut b = FaultPlan::none().rng_root(5);
        assert_eq!(a.next_u64(), b.next_u64());
        let over = FaultPlan {
            seed: Some(9),
            ..FaultPlan::none()
        };
        let mut c = over.rng_root(5);
        let mut d = over.rng_root(77); // machine seed ignored when overridden
        assert_eq!(c.next_u64(), d.next_u64());
    }
}
