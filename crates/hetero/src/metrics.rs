//! Per-run results: the raw numbers behind every figure.

use gat_sim::json::{Arr, Obj};

/// One CPU application's outcome.
#[derive(Debug, Clone)]
pub struct CoreResult {
    pub core: u8,
    pub spec_id: u16,
    pub name: &'static str,
    /// IPC over the measurement window.
    pub ipc: f64,
    pub retired: u64,
    /// Stream-prefetcher requests issued (whole run, incl. warm-up).
    pub prefetches: u64,
    /// Demand loads observed by the hierarchy (whole run).
    pub loads: u64,
}

/// The GPU's outcome.
#[derive(Debug, Clone)]
pub struct GpuResult {
    pub game: &'static str,
    /// Average frames per second (rescaled to natural units).
    pub fps: f64,
    /// Minimum single-frame FPS over the measured sequence (the paper
    /// verifies each frame meets the target, §VI).
    pub fps_min: f64,
    pub frames: u64,
    pub llc_reads: u64,
    pub llc_writes: u64,
    /// Mean percent error of the frame-rate estimator (Fig. 8).
    pub est_error_mean: f64,
    pub est_error_min: f64,
    pub est_error_max: f64,
    /// Fraction of frames spent in the FRPU's prediction phase.
    pub predicted_frames: u64,
    pub relearn_events: u64,
    /// Throttling engagement.
    pub throttle_w_g: u64,
    pub gated_cycles: u64,
    /// (hits, misses) for texL1, texL2, depthL2, colorL2, vertex.
    pub unit_stats: [(u64, u64); 5],
}

/// Shared-LLC outcome.
#[derive(Debug, Clone, Default)]
pub struct LlcResult {
    pub cpu_hits: u64,
    pub cpu_misses: u64,
    pub gpu_hits: u64,
    pub gpu_misses: u64,
    pub back_invalidations: u64,
    pub gpu_fills_bypassed: u64,
}

impl LlcResult {
    pub fn cpu_miss_ratio(&self) -> f64 {
        let a = self.cpu_hits + self.cpu_misses;
        if a == 0 {
            0.0
        } else {
            self.cpu_misses as f64 / a as f64
        }
    }

    pub fn gpu_miss_ratio(&self) -> f64 {
        let a = self.gpu_hits + self.gpu_misses;
        if a == 0 {
            0.0
        } else {
            self.gpu_misses as f64 / a as f64
        }
    }
}

/// DRAM outcome (bytes are per-source data-bus traffic).
#[derive(Debug, Clone, Default)]
pub struct DramResult {
    pub cpu_read_bytes: u64,
    pub cpu_write_bytes: u64,
    pub gpu_read_bytes: u64,
    pub gpu_write_bytes: u64,
    pub row_hit_rate: f64,
    pub reads: u64,
    pub writes: u64,
    /// Mean DRAM read latency (queueing + service), in DRAM cycles.
    pub read_latency_mean: f64,
    /// Total DRAM energy over the measurement window, picojoules.
    pub energy_pj: f64,
    /// Average DRAM power over the window, milliwatts.
    pub power_mw: f64,
}

impl DramResult {
    pub fn gpu_bytes(&self) -> u64 {
        self.gpu_read_bytes + self.gpu_write_bytes
    }

    pub fn cpu_bytes(&self) -> u64 {
        self.cpu_read_bytes + self.cpu_write_bytes
    }
}

/// Everything measured in one simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub cores: Vec<CoreResult>,
    pub gpu: Option<GpuResult>,
    pub llc: LlcResult,
    pub dram: DramResult,
    /// Measured CPU cycles (after warm-up).
    pub cycles: u64,
    /// Configuration label for reports.
    pub label: String,
}

impl RunResult {
    /// Weighted speedup against per-application standalone IPCs:
    /// `Σᵢ IPCᵢ(shared) / IPCᵢ(alone)`.
    pub fn weighted_speedup(&self, alone_ipc: &[f64]) -> f64 {
        assert_eq!(alone_ipc.len(), self.cores.len());
        self.cores
            .iter()
            .zip(alone_ipc)
            .map(|(c, &a)| if a > 0.0 { c.ipc / a } else { 0.0 })
            .sum()
    }
}

impl RunResult {
    /// Render as one JSONL object:
    /// `{"type":"run_result","label":...,"cycles":...,"cores":[...],
    /// "gpu":{...}|null,"llc":{...},"dram":{...}}`.
    pub fn to_json(&self) -> String {
        let mut cores = Arr::new();
        for c in &self.cores {
            cores = cores.raw(
                &Obj::new()
                    .u64("core", u64::from(c.core))
                    .u64("spec_id", u64::from(c.spec_id))
                    .str("name", c.name)
                    .f64("ipc", c.ipc)
                    .u64("retired", c.retired)
                    .u64("prefetches", c.prefetches)
                    .u64("loads", c.loads)
                    .finish(),
            );
        }
        let gpu = match &self.gpu {
            Some(g) => Obj::new()
                .str("game", g.game)
                .f64("fps", g.fps)
                .f64("fps_min", g.fps_min)
                .u64("frames", g.frames)
                .u64("llc_reads", g.llc_reads)
                .u64("llc_writes", g.llc_writes)
                .f64("est_error_mean", g.est_error_mean)
                .f64("est_error_min", g.est_error_min)
                .f64("est_error_max", g.est_error_max)
                .u64("predicted_frames", g.predicted_frames)
                .u64("relearn_events", g.relearn_events)
                .u64("throttle_w_g", g.throttle_w_g)
                .u64("gated_cycles", g.gated_cycles)
                .finish(),
            None => "null".to_string(),
        };
        let llc = Obj::new()
            .u64("cpu_hits", self.llc.cpu_hits)
            .u64("cpu_misses", self.llc.cpu_misses)
            .u64("gpu_hits", self.llc.gpu_hits)
            .u64("gpu_misses", self.llc.gpu_misses)
            .u64("back_invalidations", self.llc.back_invalidations)
            .u64("gpu_fills_bypassed", self.llc.gpu_fills_bypassed)
            .finish();
        let dram = Obj::new()
            .u64("cpu_read_bytes", self.dram.cpu_read_bytes)
            .u64("cpu_write_bytes", self.dram.cpu_write_bytes)
            .u64("gpu_read_bytes", self.dram.gpu_read_bytes)
            .u64("gpu_write_bytes", self.dram.gpu_write_bytes)
            .f64("row_hit_rate", self.dram.row_hit_rate)
            .u64("reads", self.dram.reads)
            .u64("writes", self.dram.writes)
            .f64("read_latency_mean", self.dram.read_latency_mean)
            .f64("energy_pj", self.dram.energy_pj)
            .f64("power_mw", self.dram.power_mw)
            .finish();
        Obj::new()
            .str("type", "run_result")
            .str("label", &self.label)
            .u64("cycles", self.cycles)
            .raw("cores", &cores.finish())
            .raw("gpu", &gpu)
            .raw("llc", &llc)
            .raw("dram", &dram)
            .finish()
    }

    /// Render a full hierarchical report of this run (the `runsim`
    /// binary's output; handy when exploring configurations by hand).
    pub fn render_report(&self) -> String {
        use std::fmt::Write;
        let mut o = String::new();
        let _ = writeln!(o, "=== run report: {} ===", self.label);
        let _ = writeln!(
            o,
            "measured cycles: {} ({:.3} ms at 4 GHz)",
            self.cycles,
            self.cycles as f64 / 4e6
        );
        let _ = writeln!(
            o,
            "
-- CPU cores --"
        );
        for c in &self.cores {
            let _ = writeln!(
                o,
                "  core {} {:>3}.{:<10} IPC {:>6.3}  retired {:>10}  prefetches {:>9}",
                c.core, c.spec_id, c.name, c.ipc, c.retired, c.prefetches
            );
        }
        if let Some(g) = &self.gpu {
            let _ = writeln!(
                o,
                "
-- GPU --"
            );
            let _ = writeln!(
                o,
                "  frames {:>6}   avg FPS {:>7.1}   min-frame FPS {:>7.1}",
                g.frames, g.fps, g.fps_min
            );
            let _ = writeln!(
                o,
                "  LLC sends: {} reads, {} writes; gated cycles {}",
                g.llc_reads, g.llc_writes, g.gated_cycles
            );
            let _ = writeln!(o, "  estimator: mean err {:+.2}% (min {:+.2}%, max {:+.2}%), {} predicted frames, {} re-learns",
                g.est_error_mean, g.est_error_min, g.est_error_max,
                g.predicted_frames, g.relearn_events);
            let _ = writeln!(o, "  throttle: W_G = {}", g.throttle_w_g);
        }
        let _ = writeln!(
            o,
            "
-- shared LLC --"
        );
        let _ = writeln!(
            o,
            "  CPU: {:>10} hits {:>10} misses ({:>5.1}% hit)",
            self.llc.cpu_hits,
            self.llc.cpu_misses,
            100.0 * (1.0 - self.llc.cpu_miss_ratio())
        );
        let _ = writeln!(
            o,
            "  GPU: {:>10} hits {:>10} misses ({:>5.1}% hit)",
            self.llc.gpu_hits,
            self.llc.gpu_misses,
            100.0 * (1.0 - self.llc.gpu_miss_ratio())
        );
        let _ = writeln!(
            o,
            "  back-invalidations {:>10}   GPU fills bypassed {:>10}",
            self.llc.back_invalidations, self.llc.gpu_fills_bypassed
        );
        let _ = writeln!(
            o,
            "
-- DRAM --"
        );
        let bw = |b: u64| b as f64 * 4.0 / self.cycles.max(1) as f64; // GB/s at 4 GHz
        let _ = writeln!(
            o,
            "  CPU: {:>7.2} GB/s read  {:>7.2} GB/s write",
            bw(self.dram.cpu_read_bytes),
            bw(self.dram.cpu_write_bytes)
        );
        let _ = writeln!(
            o,
            "  GPU: {:>7.2} GB/s read  {:>7.2} GB/s write",
            bw(self.dram.gpu_read_bytes),
            bw(self.dram.gpu_write_bytes)
        );
        let _ = writeln!(
            o,
            "  row-hit rate {:>5.1}%   mean read latency {:.0} DRAM cycles",
            100.0 * self.dram.row_hit_rate,
            self.dram.read_latency_mean
        );
        let _ = writeln!(
            o,
            "  energy {:>10.1} µJ   average power {:>7.1} mW",
            self.dram.energy_pj / 1e6,
            self.dram.power_mw
        );
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_with_ipcs(ipcs: &[f64]) -> RunResult {
        RunResult {
            cores: ipcs
                .iter()
                .enumerate()
                .map(|(i, &ipc)| CoreResult {
                    core: i as u8,
                    spec_id: 400 + i as u16,
                    name: "t",
                    ipc,
                    retired: 1000,
                    prefetches: 0,
                    loads: 0,
                })
                .collect(),
            gpu: None,
            llc: LlcResult::default(),
            dram: DramResult::default(),
            cycles: 1,
            label: "test".into(),
        }
    }

    #[test]
    fn weighted_speedup_definition() {
        let r = run_with_ipcs(&[1.0, 2.0]);
        let ws = r.weighted_speedup(&[2.0, 2.0]);
        assert!((ws - 1.5).abs() < 1e-12);
    }

    #[test]
    fn miss_ratios() {
        let l = LlcResult {
            cpu_hits: 75,
            cpu_misses: 25,
            gpu_hits: 0,
            gpu_misses: 0,
            ..Default::default()
        };
        assert!((l.cpu_miss_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(l.gpu_miss_ratio(), 0.0);
    }

    #[test]
    fn report_renders_all_sections() {
        let mut r = run_with_ipcs(&[1.0]);
        r.gpu = Some(GpuResult {
            game: "t",
            fps: 40.0,
            fps_min: 35.0,
            frames: 5,
            llc_reads: 100,
            llc_writes: 50,
            est_error_mean: 1.0,
            est_error_min: -2.0,
            est_error_max: 3.0,
            predicted_frames: 4,
            relearn_events: 0,
            throttle_w_g: 2,
            gated_cycles: 10,
            unit_stats: [(0, 0); 5],
        });
        let rep = r.render_report();
        for needle in [
            "CPU cores",
            "GPU",
            "shared LLC",
            "DRAM",
            "W_G = 2",
            "avg FPS",
        ] {
            assert!(rep.contains(needle), "missing {needle} in report");
        }
    }

    #[test]
    fn json_export_covers_all_sections() {
        let mut r = run_with_ipcs(&[1.25]);
        r.gpu = Some(GpuResult {
            game: "UT2004",
            fps: 40.0,
            fps_min: 35.0,
            frames: 5,
            llc_reads: 100,
            llc_writes: 50,
            est_error_mean: f64::NAN, // no predictions: must emit null
            est_error_min: 0.0,
            est_error_max: 0.0,
            predicted_frames: 0,
            relearn_events: 0,
            throttle_w_g: 2,
            gated_cycles: 10,
            unit_stats: [(0, 0); 5],
        });
        let line = r.to_json();
        gat_sim::json::validate_json_line(&line).unwrap();
        for needle in [
            "\"type\":\"run_result\"",
            "\"ipc\":1.25",
            "\"game\":\"UT2004\"",
            "\"est_error_mean\":null",
            "\"llc\":{",
            "\"dram\":{",
        ] {
            assert!(line.contains(needle), "missing {needle} in {line}");
        }
        // CPU-only runs export "gpu":null.
        let cpu_only = run_with_ipcs(&[1.0]);
        assert!(cpu_only.to_json().contains("\"gpu\":null"));
    }
}
