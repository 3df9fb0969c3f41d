//! `gat-policies` — HeLM, the LLC fill policy the paper compares against.
//!
//! When a GPU read returns from DRAM the shared LLC either inserts the
//! block or hands the data to the GPU without caching it (*bypass*). The
//! uncore dispatches on `FillPolicyKind` itself: the baseline inserts
//! every fill, Fig. 3's bypass-all bypasses every GPU read fill, and only
//! HeLM keeps state, so only HeLM lives here.
//!
//! [`Helm`] (Mekkat et al., PACT 2013) bypasses GPU fills while the GPU
//! is latency-tolerant. Our tolerance signal is the one HeLM's threading
//! argument appeals to — the fraction of shader work that is ready to run
//! while memory is outstanding — smoothed with an EMA and compared
//! against a threshold with hysteresis.
//!
//! CPU fills are never bypassed.

#![warn(clippy::disallowed_types, clippy::disallowed_methods)]
#![warn(clippy::print_stdout, clippy::print_stderr)]
#![warn(clippy::wildcard_enum_match_arm)]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

/// HeLM: threshold-based latency-tolerance bypass with EMA smoothing and
/// hysteresis.
#[derive(Debug)]
pub struct Helm {
    /// Bypass while smoothed tolerance is above this.
    threshold: f64,
    /// Hysteresis width to avoid flapping.
    hysteresis: f64,
    ema: f64,
    alpha: f64,
    bypassing: bool,
}

impl Helm {
    pub fn new(threshold: f64) -> Self {
        assert!((0.0..=1.0).contains(&threshold));
        Self {
            threshold,
            hysteresis: 0.05,
            ema: 0.0,
            alpha: 0.05,
            bypassing: false,
        }
    }

    /// Should this GPU read fill bypass the LLC? `tolerance` is the GPU's
    /// current latency tolerance in `[0, 1]`: the fraction of shader
    /// thread-context capacity that has ready work queued behind the
    /// outstanding memory accesses (sampled by the uncore from the
    /// pipeline each time a fill returns).
    pub fn bypass(&mut self, tolerance: f64) -> bool {
        self.ema = self.alpha * tolerance.clamp(0.0, 1.0) + (1.0 - self.alpha) * self.ema;
        if self.bypassing {
            if self.ema < self.threshold - self.hysteresis {
                self.bypassing = false;
            }
        } else if self.ema > self.threshold + self.hysteresis {
            self.bypassing = true;
        }
        self.bypassing
    }
}

impl Default for Helm {
    fn default() -> Self {
        // The threshold the calibration in EXPERIMENTS.md settled on:
        // bypass when over ~35% of shader capacity has ready work queued.
        Self::new(0.35)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helm_starts_inserting_then_bypasses_tolerant_gpu() {
        let mut p = Helm::new(0.4);
        // Cold start: EMA at 0, inserts.
        assert!(!p.bypass(1.0));
        // Sustained high tolerance flips it to bypassing.
        assert!(
            (0..200).any(|_| p.bypass(1.0)),
            "EMA must cross the threshold"
        );
    }

    #[test]
    fn helm_reverts_when_tolerance_collapses() {
        let mut p = Helm::new(0.4);
        for _ in 0..300 {
            p.bypass(1.0);
        }
        assert!(p.bypass(1.0));
        for _ in 0..300 {
            p.bypass(0.0);
        }
        assert!(!p.bypass(0.0));
    }

    #[test]
    fn helm_hysteresis_prevents_flapping_at_threshold() {
        let mut p = Helm::new(0.4);
        // Drive the EMA to exactly the threshold region.
        for _ in 0..2000 {
            p.bypass(0.4);
        }
        let state_a = p.bypass(0.4);
        // Small oscillation around the threshold must not flip the state.
        for _ in 0..20 {
            p.bypass(0.42);
            p.bypass(0.38);
        }
        assert_eq!(p.bypass(0.4), state_a);
    }
}
