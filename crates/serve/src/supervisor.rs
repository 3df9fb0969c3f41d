//! Per-job supervision: budget enforcement, panic isolation, and the
//! bounded deterministic retry loop.
//!
//! This module is the **only** place in the workspace allowed to touch
//! `std::panic` (`catch_unwind` / `set_hook` / `take_hook`) — rule R9,
//! enforced by clippy's `disallowed_methods`. The rest of the engine
//! treats a panicking job exactly like a wedging one: as data.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::OnceLock;
use std::time::Duration;

use crate::outcome::{BudgetKind, JobOutcome};
use crate::spec::JobSpec;
use gat_hetero::{HeteroSystem, SimError};

/// Panic payloads starting with this prefix come from the `"panic"` test
/// fixture and are silenced by the filter hook (they would otherwise spam
/// every chaos batch with backtrace noise). Real panics still print.
pub const FIXTURE_SENTINEL: &str = "gat-serve-fixture:";

/// Everything one job produced: its typed outcome, how many attempts it
/// took, the result payload (Ok/Degraded only — the exact bytes
/// `runsim --json` would have written), and any diagnostic dump contents
/// the emitter should persist under the job's dump name.
#[derive(Debug, Clone)]
pub struct JobResult {
    pub id: String,
    pub outcome: JobOutcome,
    pub attempts: u32,
    pub payload: Option<String>,
    pub diagnostic: Option<String>,
}

/// Per-job dump file name (`watchdog_dump.<id>.jsonl`). The name — not a
/// full path — is what the outcome line records, so cached blocks stay
/// valid when the engine is pointed at a different dump directory.
pub fn dump_name(job_id: &str) -> String {
    format!("watchdog_dump.{job_id}.jsonl")
}

/// Per-job paranoia dump file name for invariant failures.
pub fn paranoia_dump_name(job_id: &str) -> String {
    format!("paranoia_dump.{job_id}.jsonl")
}

/// Install the process panic hook that silences fixture-sentinel panics
/// and delegates everything else to the previous hook. Idempotent; the
/// supervisor calls it before the first `catch_unwind`.
#[expect(
    clippy::disallowed_methods,
    reason = "R9: the per-job isolation boundary filters fixture panics out of the process hook"
)]
pub fn install_panic_filter() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| info.payload().downcast_ref::<String>().map(String::as_str));
            if msg.is_some_and(|m| m.starts_with(FIXTURE_SENTINEL)) {
                return;
            }
            prev(info);
        }));
    });
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one job under full supervision. Deterministic for every outcome
/// except `BudgetExceeded{wall}` (which is why wall outcomes are never
/// cached).
pub fn run_job(spec: &JobSpec) -> JobResult {
    install_panic_filter();

    // Memory budget is admission control: the footprint estimate is a
    // pure function of the configuration, so an over-budget job is
    // rejected before it allocates anything — deterministically.
    if let Some(mem_mb) = spec.budget_mem_mb {
        match spec.resolve() {
            Ok(resolved) => {
                let est = resolved.cfg.estimated_mem_bytes();
                if est > mem_mb.saturating_mul(1 << 20) {
                    return JobResult {
                        id: spec.id.clone(),
                        outcome: JobOutcome::BudgetExceeded {
                            which: BudgetKind::Mem,
                            detail: format!("estimated {est} bytes exceeds budget {mem_mb} MiB"),
                        },
                        attempts: 0,
                        payload: None,
                        diagnostic: None,
                    };
                }
            }
            Err(_) => {
                // Resolution errors fall through to the attempt loop so
                // they surface through the normal path.
            }
        }
    }

    match spec.budget_wall_ms {
        None => run_attempt_loop(spec),
        Some(ms) => {
            // Wall-clock enforcement needs a thread we can walk away
            // from, so this is a detached `thread::spawn`, not a scoped
            // one (a scope would block on join and defeat the deadline).
            let (tx, rx) = mpsc::channel();
            let owned = spec.clone();
            #[expect(
                clippy::disallowed_methods,
                reason = "R2: wall deadline needs a detached worker; the result is only read via the channel"
            )]
            std::thread::spawn(move || {
                let _ = tx.send(run_attempt_loop(&owned));
            });
            match rx.recv_timeout(Duration::from_millis(ms)) {
                Ok(result) => result,
                Err(_) => JobResult {
                    id: spec.id.clone(),
                    outcome: JobOutcome::BudgetExceeded {
                        which: BudgetKind::Wall,
                        detail: format!("missed {ms} ms wall deadline"),
                    },
                    attempts: 1,
                    payload: None,
                    diagnostic: None,
                },
            }
        }
    }
}

/// The bounded retry loop. Retries apply only to fault-plan jobs whose
/// failure is plausibly fault-induced (`Wedged` or the cycle budget);
/// each retry re-salts the fault seed and doubles the watchdog window —
/// a deterministic backoff with no clocks involved.
fn run_attempt_loop(spec: &JobSpec) -> JobResult {
    let retryable = !spec.faults.is_empty() && spec.retry_max > 0;
    let mut attempt: u32 = 0;
    loop {
        let (outcome, payload, diagnostic) = run_one_attempt(spec, attempt);
        attempt += 1;
        let transient = matches!(
            outcome,
            JobOutcome::Wedged { .. }
                | JobOutcome::BudgetExceeded {
                    which: BudgetKind::Cycles,
                    ..
                }
        );
        if retryable && transient && attempt <= spec.retry_max {
            continue;
        }
        return JobResult {
            id: spec.id.clone(),
            outcome,
            attempts: attempt,
            payload,
            diagnostic,
        };
    }
}

/// Deterministic per-attempt fault-seed salt (attempt 0 keeps the spec's
/// own seeding so a no-retry run is bit-identical to the one-shot CLI).
fn retry_salt(base_seed: u64, attempt: u32) -> u64 {
    base_seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(attempt))
}

/// One attempt: resolve, build, run, classify — inside the panic
/// isolation boundary. Returns `(outcome, payload, diagnostic)`.
#[expect(
    clippy::disallowed_methods,
    reason = "R9: the per-job isolation boundary: a panicking job becomes a typed Panicked outcome"
)]
fn run_one_attempt(spec: &JobSpec, attempt: u32) -> (JobOutcome, Option<String>, Option<String>) {
    let id = spec.id.clone();
    let run = AssertUnwindSafe(|| -> (JobOutcome, Option<String>, Option<String>) {
        if spec.fixture.as_deref() == Some("panic") {
            panic!("{FIXTURE_SENTINEL} deliberate fixture panic in job {id}");
        }
        let mut resolved = match spec.resolve() {
            Ok(r) => r,
            Err(e) => {
                // Unresolvable specs normally die in the parser; reaching
                // here means a name went stale between parse and run.
                return (
                    JobOutcome::Invariant {
                        component: "spec".into(),
                        detail: e.detail,
                    },
                    None,
                    None,
                );
            }
        };
        if attempt > 0 {
            resolved.cfg.faults.seed = Some(retry_salt(
                resolved.cfg.faults.seed.unwrap_or(spec.seed),
                attempt,
            ));
            if resolved.cfg.limits.watchdog > 0 {
                resolved.cfg.limits.watchdog = resolved
                    .cfg
                    .limits
                    .watchdog
                    .saturating_mul(1 << attempt.min(16));
            }
        }
        let mut sys = HeteroSystem::new(resolved.cfg, &resolved.apps, resolved.game);
        match sys.try_run() {
            Ok(result) => {
                let mut payload = result.to_json();
                payload.push('\n');
                payload.push_str(&sys.registry_snapshot().to_json());
                payload.push('\n');
                let outcome = if sys.qos_degraded() {
                    JobOutcome::Degraded
                } else {
                    JobOutcome::Ok
                };
                (outcome, Some(payload), None)
            }
            Err(SimError::MaxCycles { cycle, limit }) => (
                JobOutcome::BudgetExceeded {
                    which: BudgetKind::Cycles,
                    detail: format!("cycle {cycle} hit limit {limit}"),
                },
                None,
                None,
            ),
            Err(SimError::Wedged {
                cycle,
                window,
                diagnostic,
            }) => (
                JobOutcome::Wedged {
                    cycle,
                    window,
                    dump: dump_name(&id),
                },
                None,
                Some(diagnostic),
            ),
            Err(SimError::Invariant {
                cycle,
                component,
                detail,
            }) => (
                JobOutcome::Invariant {
                    component: component.to_string(),
                    detail: format!("cycle {cycle}: {detail}"),
                },
                None,
                Some(format!(
                    "{}\n",
                    gat_sim::json::Obj::new()
                        .str("type", "paranoia_dump")
                        .str("id", &id)
                        .u64("cycle", cycle)
                        .str("component", component)
                        .str("detail", &detail)
                        .finish()
                )),
            ),
        }
    });
    match panic::catch_unwind(run) {
        Ok(triple) => triple,
        Err(payload) => (
            JobOutcome::Panicked {
                message: panic_message(payload),
            },
            None,
            None,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_spec_line;

    #[test]
    fn fixture_panic_is_isolated_and_typed() {
        let spec = parse_spec_line(r#"{"game":"DOOM3","fixture":"panic","id":"boom"}"#, 1).unwrap();
        let r = run_job(&spec);
        assert_eq!(r.attempts, 1);
        let JobOutcome::Panicked { message } = &r.outcome else {
            panic!("expected Panicked, got {:?}", r.outcome);
        };
        assert!(message.starts_with(FIXTURE_SENTINEL), "{message}");
    }

    #[test]
    fn mem_admission_rejects_before_running() {
        let spec =
            parse_spec_line(r#"{"game":"DOOM3","budget":{"mem_mb":1},"id":"fat"}"#, 1).unwrap();
        let r = run_job(&spec);
        assert_eq!(r.attempts, 0, "admission must reject without an attempt");
        assert!(matches!(
            r.outcome,
            JobOutcome::BudgetExceeded {
                which: BudgetKind::Mem,
                ..
            }
        ));
    }

    #[test]
    fn cycle_budget_maps_to_typed_outcome() {
        let spec = parse_spec_line(
            r#"{"game":"DOOM3","warmup":0,"budget":{"cycles":5000},"id":"slow"}"#,
            1,
        )
        .unwrap();
        let r = run_job(&spec);
        assert!(matches!(
            r.outcome,
            JobOutcome::BudgetExceeded {
                which: BudgetKind::Cycles,
                ..
            }
        ));
        assert!(r.payload.is_none());
    }

    #[test]
    fn generous_wall_deadline_changes_nothing() {
        let base =
            parse_spec_line(r#"{"game":"DOOM3","instr":2000,"frames":1,"warmup":0}"#, 1).unwrap();
        let mut timed = base.clone();
        timed.budget_wall_ms = Some(600_000);
        let a = run_job(&base);
        let b = run_job(&timed);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(
            a.payload, b.payload,
            "wall supervision must not perturb results"
        );
    }

    #[test]
    fn retry_salts_are_deterministic_and_distinct() {
        assert_eq!(retry_salt(7, 1), retry_salt(7, 1));
        assert_ne!(retry_salt(7, 1), retry_salt(7, 2));
        assert_eq!(retry_salt(7, 0), 7, "attempt 0 keeps the base seed");
    }
}
