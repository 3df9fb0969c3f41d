//! Typed simulation failures.
//!
//! `HeteroSystem::try_run` converts the three ways a run can go wrong into
//! structured errors instead of panics: exhausting the cycle budget, the
//! liveness watchdog detecting a wedged machine (components claim to be
//! active but no architectural progress is made for a full window), and a
//! paranoia-mode invariant check failing. The wedged variant carries a
//! JSONL diagnostic dump (one summary object plus a registry snapshot) so
//! a failing CI run leaves forensics behind rather than a bare timeout.

use gat_sim::Cycle;
use std::fmt;

/// A simulation run failed in a detectable, structural way.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The run hit `RunLimits::max_cycles` before meeting its goals.
    MaxCycles { cycle: Cycle, limit: Cycle },
    /// The liveness watchdog saw no forward progress for a full window
    /// while nothing timed (a GPU stall burst or a closed ATU window) held
    /// the machine back. `diagnostic` is a JSONL dump: one summary
    /// object followed by a full registry snapshot.
    Wedged {
        cycle: Cycle,
        window: Cycle,
        diagnostic: String,
    },
    /// A paranoia-mode invariant check (`GAT_PARANOIA=1`) failed.
    Invariant {
        cycle: Cycle,
        component: &'static str,
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MaxCycles { cycle, limit } => {
                write!(
                    f,
                    "run exceeded max_cycles at cycle {cycle} (limit {limit})"
                )
            }
            SimError::Wedged {
                cycle,
                window,
                diagnostic,
            } => {
                write!(
                    f,
                    "watchdog: no forward progress for {window} cycles (wedged at cycle \
                     {cycle}); diagnostic:\n{diagnostic}"
                )
            }
            SimError::Invariant {
                cycle,
                component,
                detail,
            } => {
                write!(
                    f,
                    "invariant violated at cycle {cycle} in {component}: {detail}"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_the_essentials() {
        let e = SimError::Wedged {
            cycle: 1000,
            window: 50,
            diagnostic: "{\"type\":\"watchdog_dump\"}".into(),
        };
        let s = e.to_string();
        assert!(s.contains("watchdog"), "{s}");
        assert!(s.contains("1000"), "{s}");
        assert!(s.contains("watchdog_dump"), "{s}");

        let e = SimError::Invariant {
            cycle: 7,
            component: "atu",
            detail: "token leak".into(),
        };
        assert!(e.to_string().contains("atu: token leak"));

        let e = SimError::MaxCycles {
            cycle: 10,
            limit: 10,
        };
        assert!(e.to_string().contains("max_cycles"));
    }
}
