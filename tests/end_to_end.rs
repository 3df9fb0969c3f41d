//! Cross-crate integration tests: the full machine, the QoS mechanism,
//! and the comparison policies, exercised end-to-end at smoke scale.

use gat::prelude::*;

fn smoke(num_cpus: u8, seed: u64) -> MachineConfig {
    let mut cfg = MachineConfig::table_one(256, seed);
    cfg.num_cpus = num_cpus;
    cfg.limits = RunLimits::smoke();
    cfg
}

#[test]
fn throttling_holds_fps_near_target_and_helps_cpu() {
    // M7 (DOOM3, standalone > 40 FPS) is the paper's canonical amenable
    // mix: the full proposal must pull FPS to ~40 and improve CPU IPC.
    let mix = mix_m(7);
    let base = HeteroSystem::new(smoke(4, 9), &mix.cpu, Some(mix.game.clone())).run();

    let mut prop_cfg = smoke(4, 9);
    prop_cfg.qos = QosMode::ThrotCpuPrio;
    prop_cfg.sched = SchedulerKind::FrFcfsCpuPrio;
    let prop = HeteroSystem::new(prop_cfg, &mix.cpu, Some(mix.game.clone())).run();

    let fps_base = base.gpu.as_ref().unwrap().fps;
    let fps_prop = prop.gpu.as_ref().unwrap().fps;
    assert!(
        fps_base > 45.0,
        "baseline hetero DOOM3 ≈ 60-90 FPS, got {fps_base}"
    );
    assert!(
        fps_prop > 30.0 && fps_prop < fps_base,
        "throttled FPS {fps_prop} must sit near the 40 target, below {fps_base}"
    );
    let ipc = |r: &RunResult| r.cores.iter().map(|c| c.ipc).sum::<f64>();
    assert!(
        ipc(&prop) > ipc(&base) * 1.01,
        "proposal must improve CPU throughput: {} vs {}",
        ipc(&prop),
        ipc(&base)
    );
}

#[test]
fn throttling_reduces_gpu_bandwidth_and_inflates_gpu_misses() {
    // The Fig. 10/11 signature: more GPU LLC misses, less GPU DRAM
    // bandwidth per cycle.
    let mix = mix_m(7);
    let base = HeteroSystem::new(smoke(4, 10), &mix.cpu, Some(mix.game.clone())).run();
    let mut cfg = smoke(4, 10);
    cfg.qos = QosMode::Throttle;
    let thr = HeteroSystem::new(cfg, &mix.cpu, Some(mix.game.clone())).run();

    // Miss *rate* per frame rises (Fig. 10 left).
    let mpf =
        |r: &RunResult| r.llc.gpu_misses as f64 / r.gpu.as_ref().unwrap().frames.max(1) as f64;
    assert!(
        mpf(&thr) > mpf(&base) * 1.05,
        "throttling must age GPU blocks out of the LLC: {} vs {}",
        mpf(&thr),
        mpf(&base)
    );
    // Bandwidth per cycle falls (Fig. 11).
    let bw = |r: &RunResult| r.dram.gpu_bytes() as f64 / r.cycles as f64;
    assert!(
        bw(&thr) < bw(&base) * 0.95,
        "throttling must shed GPU DRAM bandwidth: {} vs {}",
        bw(&thr),
        bw(&base)
    );
}

#[test]
fn slow_gpu_mix_is_left_untouched() {
    // M6 (Crysis, 6.6 FPS standalone) never reaches the 40 FPS target:
    // the proposal must stay disengaged and match the baseline closely.
    let mix = mix_m(6);
    let base = HeteroSystem::new(smoke(4, 11), &mix.cpu, Some(mix.game.clone())).run();
    let mut cfg = smoke(4, 11);
    cfg.qos = QosMode::ThrotCpuPrio;
    cfg.sched = SchedulerKind::FrFcfsCpuPrio;
    let prop = HeteroSystem::new(cfg, &mix.cpu, Some(mix.game.clone())).run();
    let (fb, fp) = (
        base.gpu.as_ref().unwrap().fps,
        prop.gpu.as_ref().unwrap().fps,
    );
    assert!(fb < 40.0, "Crysis must miss the target: {fb}");
    let ratio = fp / fb;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "disabled proposal must track baseline FPS: ratio {ratio}"
    );
    assert_eq!(
        prop.gpu.as_ref().unwrap().throttle_w_g,
        0,
        "W_G must be zero for a below-target GPU"
    );
}

#[test]
fn per_frame_minimum_respects_the_visual_cushion() {
    // §VI: the paper verifies each frame within the sequence meets the
    // target; the 40 FPS target leaves a 10 FPS cushion over the 30 FPS
    // visual-acceptability line precisely so momentary dips stay above
    // it. Check the worst single frame of a throttled run.
    let mix = mix_m(7);
    let mut cfg = smoke(4, 21);
    cfg.qos = QosMode::ThrotCpuPrio;
    cfg.sched = SchedulerKind::FrFcfsCpuPrio;
    cfg.limits.gpu_frames = 5;
    let r = HeteroSystem::new(cfg, &mix.cpu, Some(mix.game.clone())).run();
    let g = r.gpu.as_ref().unwrap();
    assert!(
        g.fps_min > 25.0,
        "worst frame {:.1} FPS fell through the cushion (avg {:.1})",
        g.fps_min,
        g.fps
    );
}

#[test]
fn frame_rate_estimation_is_accurate_in_situ() {
    // Fig. 8: the FRPU's mid-frame projection lands within a few percent
    // on a real heterogeneous run.
    let mix = mix_m(11); // Quake4: lean renderer, no scene cuts
    let mut cfg = smoke(4, 12);
    cfg.qos = QosMode::Observe;
    cfg.limits.gpu_frames = 6;
    let r = HeteroSystem::new(cfg, &mix.cpu, Some(mix.game.clone())).run();
    let g = r.gpu.as_ref().unwrap();
    assert!(g.predicted_frames >= 2, "estimator must reach prediction");
    assert!(
        g.est_error_mean.abs() < 20.0,
        "mean estimation error {}% too large",
        g.est_error_mean
    );
}

#[test]
fn bypass_all_delivers_data_without_caching() {
    let mix = mix_w(7);
    let mut cfg = smoke(1, 13);
    cfg.fill_policy = FillPolicyKind::BypassAll;
    let r = HeteroSystem::new(cfg, &mix.cpu, Some(mix.game.clone())).run();
    let g = r.gpu.as_ref().unwrap();
    assert!(g.frames >= 3, "GPU must still make progress");
    assert!(r.llc.gpu_fills_bypassed > 0, "fills must be bypassed");
    // With no GPU fills cached, GPU hit rate collapses toward zero.
    assert!(
        r.llc.gpu_miss_ratio() > 0.9,
        "bypass-all must kill GPU LLC reuse: miss ratio {}",
        r.llc.gpu_miss_ratio()
    );
}

#[test]
fn all_comparison_schedulers_complete_and_render() {
    use gat_bench::{drivers::PROPOSALS, with_mix};
    use gat_serve::JobSpec;
    let limits = RunLimits::smoke();
    let base = JobSpec {
        scale: 256,
        seed: 14,
        instr: limits.cpu_instructions,
        frames: limits.gpu_frames,
        warmup: limits.warmup_cycles,
        max_cycles: Some(limits.max_cycles),
        ..with_mix(JobSpec::base("m7"), &mix_m(7))
    };
    for prop in PROPOSALS {
        let job = prop.spec(base.clone()).resolve().unwrap();
        let r = HeteroSystem::new(job.cfg, &job.apps, job.game).run();
        let g = r.gpu.as_ref().unwrap();
        assert!(g.frames >= 3, "{}: no GPU progress", prop.label);
        assert!(g.fps > 1.0, "{}: implausible FPS {}", prop.label, g.fps);
        for c in &r.cores {
            assert!(
                c.retired >= RunLimits::smoke().cpu_instructions,
                "{}: core {} under budget",
                prop.label,
                c.core
            );
        }
    }
}

#[test]
fn full_system_determinism_across_policies() {
    let mix = mix_m(10);
    for qos in [QosMode::Off, QosMode::ThrotCpuPrio] {
        let mk = || {
            let mut cfg = smoke(4, 15);
            cfg.qos = qos;
            HeteroSystem::new(cfg, &mix.cpu, Some(mix.game.clone())).run()
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.cycles, b.cycles, "{qos:?}");
        assert_eq!(a.llc.cpu_misses, b.llc.cpu_misses, "{qos:?}");
        assert_eq!(a.dram.gpu_read_bytes, b.dram.gpu_read_bytes, "{qos:?}");
    }
}

#[test]
fn weighted_speedup_is_sane() {
    // Co-running apps each run at most as fast as alone (within noise),
    // so weighted speedup ≤ N.
    let mix = mix_m(8);
    let alone: Vec<f64> = mix
        .cpu
        .iter()
        .map(|p| HeteroSystem::new(smoke(4, 16), &[*p], None).run().cores[0].ipc)
        .collect();
    let hetero = HeteroSystem::new(smoke(4, 16), &mix.cpu, Some(mix.game.clone())).run();
    let ws = hetero.weighted_speedup(&alone);
    assert!(ws > 0.2 && ws < 4.2, "weighted speedup {ws} out of range");
}
