//! Structured run events: the machine-readable narrative of a simulation.
//!
//! [`RunEvent`] is the one observable stream of a run: frame
//! boundaries, QoS controller transitions (FRPU phase changes and
//! re-learns, throttle engage/adjust/release), DRAM CPU-priority flips,
//! and periodic registry snapshots all flow through one bounded ring ([`gat_sim::events::EventBus`]) with a
//! subscriber API on [`crate::HeteroSystem`]. Every event serializes to one
//! JSONL object via [`RunEvent::to_json`]; the `type` field discriminates.

use gat_core::{Phase, QosEvent};
use gat_sim::json::Obj;
use gat_sim::metrics::RegistrySnapshot;
use gat_sim::Cycle;

/// One observable occurrence during a run. `cycle` is always the global
/// CPU-cycle timeline; QoS sub-events additionally carry their native
/// GPU-cycle timestamp.
#[derive(Debug, Clone, PartialEq)]
pub enum RunEvent {
    /// The GPU finished rendering a frame.
    FrameBoundary {
        cycle: Cycle,
        frame: u64,
        /// GPU cycles the frame took (measured, scaled units).
        frame_cycles: u64,
        /// Frame rate of this single frame, rescaled to natural units.
        fps: f64,
        /// ATU gate window at the boundary.
        w_g: u64,
        /// CPU-priority line state at the boundary.
        cpu_prio_boost: bool,
        /// Cumulative GPU LLC sends.
        gpu_llc_sends: u64,
        /// Cumulative instructions retired across all CPU cores.
        cpu_retired: u64,
    },
    /// A QoS controller transition, forwarded from
    /// [`gat_core::QosController`]'s event stream.
    Qos { cycle: Cycle, event: QosEvent },
    /// The CPU-priority line into the DRAM scheduler flipped (§III-C).
    DramPrioFlip { cycle: Cycle, boost: bool },
    /// Periodic metrics sample (see `HeteroSystem::set_epoch_sampling`).
    EpochSnapshot(RegistrySnapshot),
}

fn phase_name(p: Phase) -> &'static str {
    match p {
        Phase::Learning => "learning",
        Phase::Predicting => "predicting",
    }
}

impl RunEvent {
    /// Render as one JSONL object; the `type` field discriminates.
    pub fn to_json(&self) -> String {
        match self {
            RunEvent::FrameBoundary {
                cycle,
                frame,
                frame_cycles,
                fps,
                w_g,
                cpu_prio_boost,
                gpu_llc_sends,
                cpu_retired,
            } => Obj::new()
                .str("type", "frame_boundary")
                .u64("cycle", *cycle)
                .u64("frame", *frame)
                .u64("frame_cycles", *frame_cycles)
                .f64("fps", *fps)
                .u64("w_g", *w_g)
                .bool("boost", *cpu_prio_boost)
                .u64("gpu_llc_sends", *gpu_llc_sends)
                .u64("cpu_retired", *cpu_retired)
                .finish(),
            RunEvent::Qos { cycle, event } => {
                let o = Obj::new().str("type", "qos").u64("cycle", *cycle);
                match *event {
                    QosEvent::FrpuPhase {
                        cycle: gpu_cycle,
                        from,
                        to,
                    } => o
                        .str("kind", "frpu_phase")
                        .u64("gpu_cycle", gpu_cycle)
                        .str("from", phase_name(from))
                        .str("to", phase_name(to))
                        .finish(),
                    QosEvent::FrpuRelearn {
                        cycle: gpu_cycle,
                        total,
                    } => o
                        .str("kind", "frpu_relearn")
                        .u64("gpu_cycle", gpu_cycle)
                        .u64("total", total)
                        .finish(),
                    QosEvent::ThrottleEngage {
                        cycle: gpu_cycle,
                        w_g,
                    } => o
                        .str("kind", "throttle_engage")
                        .u64("gpu_cycle", gpu_cycle)
                        .u64("w_g", w_g)
                        .finish(),
                    QosEvent::ThrottleAdjust {
                        cycle: gpu_cycle,
                        from_w_g,
                        w_g,
                    } => o
                        .str("kind", "throttle_adjust")
                        .u64("gpu_cycle", gpu_cycle)
                        .u64("from_w_g", from_w_g)
                        .u64("w_g", w_g)
                        .finish(),
                    QosEvent::ThrottleRelease { cycle: gpu_cycle } => o
                        .str("kind", "throttle_release")
                        .u64("gpu_cycle", gpu_cycle)
                        .finish(),
                    QosEvent::Degraded {
                        cycle: gpu_cycle,
                        relearns,
                    } => o
                        .str("kind", "degraded")
                        .u64("gpu_cycle", gpu_cycle)
                        .u64("relearns", relearns)
                        .finish(),
                }
            }
            RunEvent::DramPrioFlip { cycle, boost } => Obj::new()
                .str("type", "dram_prio_flip")
                .u64("cycle", *cycle)
                .bool("boost", *boost)
                .finish(),
            RunEvent::EpochSnapshot(snap) => snap.to_json(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gat_sim::json::validate_json_line;

    #[test]
    fn every_variant_serializes_to_valid_json() {
        let events = [
            RunEvent::FrameBoundary {
                cycle: 100,
                frame: 3,
                frame_cycles: 4000,
                fps: 58.5,
                w_g: 2,
                cpu_prio_boost: true,
                gpu_llc_sends: 1234,
                cpu_retired: 9999,
            },
            RunEvent::Qos {
                cycle: 104,
                event: QosEvent::FrpuPhase {
                    cycle: 26,
                    from: Phase::Learning,
                    to: Phase::Predicting,
                },
            },
            RunEvent::Qos {
                cycle: 108,
                event: QosEvent::ThrottleAdjust {
                    cycle: 27,
                    from_w_g: 2,
                    w_g: 4,
                },
            },
            RunEvent::DramPrioFlip {
                cycle: 112,
                boost: false,
            },
            RunEvent::Qos {
                cycle: 116,
                event: QosEvent::Degraded {
                    cycle: 29,
                    relearns: 5,
                },
            },
        ];
        for e in &events {
            let line = e.to_json();
            validate_json_line(&line).unwrap();
            assert!(line.contains("\"type\":\""), "{line}");
        }
        let fb = events[0].to_json();
        for needle in ["\"fps\":58.5", "\"w_g\":2", "\"boost\":true"] {
            assert!(fb.contains(needle), "{fb}");
        }
    }
}
