//! Smoke tests of the figure-regeneration drivers: each driver must run
//! end-to-end at tiny scale and produce structurally correct tables, and
//! `figures all` must share its runs between figures.
//!
//! The heavyweight multi-configuration drivers (Fig. 9–14) are `#[ignore]`
//! by default — `cargo test -- --ignored` runs them (minutes); the full
//! regeneration lives in `cargo run -p gat-bench --bin figures`.

use std::collections::BTreeSet;

use gat_bench::drivers::smoke_base as tiny;
use gat_bench::drivers::{self, figure, figures_base, run_distinct, run_jobs, Runs, ALL_FIGURES};
use gat_serve::JobSpec;

/// Run `jobs` (each distinct id once) on every host core.
fn run(jobs: Vec<JobSpec>) -> Runs {
    let shards = std::thread::available_parallelism().map_or(1, |n| n.get());
    run_distinct(jobs, shards).unwrap()
}

#[test]
fn all_runs_each_distinct_config_once() {
    let all = ALL_FIGURES
        .iter()
        .map(|id| figure(id).unwrap().0(&figures_base()));
    let jobs: Vec<JobSpec> = all.flatten().collect();
    assert_eq!(jobs.len(), 223, "simulations the figures use");
    // Identical configurations, and only they, share an id: the specs,
    // the ids, and the specs stripped of their ids all count 159.
    let count = |key: fn(&JobSpec) -> String| jobs.iter().map(key).collect::<BTreeSet<_>>().len();
    let unnamed = |j: &JobSpec| {
        JobSpec {
            id: String::new(),
            ..j.clone()
        }
        .canonical()
    };
    let counts = [
        count(JobSpec::canonical),
        count(|j| j.id.clone()),
        count(unnamed),
    ];
    assert_eq!(
        counts, [159; 3],
        "distinct canonical specs, ids, id-free specs"
    );
}

#[test]
fn a_failed_job_is_exit_code_3_naming_it() {
    let mut base = tiny();
    base.faults = "wedge=20000".into();
    base.watchdog = Some(50_000);
    let jobs = drivers::fig3_jobs(&base);
    let err = run_jobs(&jobs[..1], 1).err().expect("a wedged job fails");
    assert_eq!(err.exit_code(), 3, "{err}");
    let msg = err.to_string();
    assert!(msg.contains("W1-both") && msg.contains("wedged"), "{msg}");
}

#[test]
fn motivation_driver_covers_w1_to_w14() {
    let m = drivers::motivation(&run(drivers::motivation_jobs(&tiny())));
    assert_eq!(m.rows.len(), 14);
    for r in &m.rows {
        assert!(r.fps_alone > 0.0, "{}: no standalone FPS", r.workload);
        assert!(r.fps_hetero > 0.0, "{}: no hetero FPS", r.workload);
        assert!(
            r.cpu_ratio > 0.05 && r.cpu_ratio < 1.3,
            "{}: CPU ratio {} out of range",
            r.workload,
            r.cpu_ratio
        );
        assert!(
            r.gpu_ratio > 0.05 && r.gpu_ratio < 1.3,
            "{}: GPU ratio {} out of range",
            r.workload,
            r.gpu_ratio
        );
    }
    let t1 = m.fig1_table().render();
    assert!(t1.contains("GMEAN"));
    assert!(t1.contains("W14"));
    let t2 = m.fig2_table().render();
    assert!(t2.contains("DOOM3"));
}

#[test]
fn fig3_driver_produces_speedups() {
    let f = drivers::fig3(&run(drivers::fig3_jobs(&tiny())));
    assert_eq!(f.rows.len(), 14);
    for r in &f.rows {
        assert!(
            r.cpu_speedup > 0.3 && r.cpu_speedup < 2.0,
            "{}: bypass speedup {} implausible",
            r.workload,
            r.cpu_speedup
        );
    }
    assert!(f.table().render().contains("bypass"));
}

#[test]
fn fig8_driver_reports_errors_for_all_games() {
    let mut base = tiny();
    base.frames = 4; // the estimator needs frames to predict
    let f = drivers::fig8(&run(drivers::fig8_jobs(&base)));
    assert_eq!(f.rows.len(), 14);
    for r in &f.rows {
        assert!(
            r.error_mean.abs() < 50.0,
            "{}: estimation error {}%",
            r.game,
            r.error_mean
        );
    }
    assert!(
        f.average_abs_error() < 25.0,
        "avg error {}",
        f.average_abs_error()
    );
    assert!(f.table().render().contains("UT2004"));
}

#[test]
#[ignore = "runs 18 smoke simulations plus standalone calibration"]
fn fig9_10_11_driver_full_shape() {
    let mut base = tiny();
    base.frames = 3;
    let e = drivers::throttle_eval(&run(drivers::throttle_jobs(&base)));
    assert_eq!(e.rows.len(), 6, "six amenable mixes");
    for r in &e.rows {
        assert!(r.fps[0] > 0.0);
        // Throttled FPS never above baseline.
        assert!(r.fps[1] <= r.fps[0] * 1.1, "{}: {:?}", r.game, r.fps);
        for w in r.ws_norm {
            assert!(w > 0.5 && w < 2.0, "{}: ws {w}", r.game);
        }
    }
    for t in [
        e.fig9_fps_table(),
        e.fig9_ws_table(),
        e.fig10_table(),
        e.fig11_table(),
    ] {
        assert!(!t.render().is_empty());
    }
}

#[test]
#[ignore = "runs 36 smoke simulations plus standalone calibration"]
fn fig12_comparison_driver() {
    let mut base = tiny();
    base.frames = 3;
    let c = drivers::comparison(&run(drivers::comparison_jobs(&base, true)), true);
    assert_eq!(c.rows.len(), 6);
    for r in &c.rows {
        for f in r.fps {
            assert!(f > 0.0, "{}: zero FPS", r.mix);
        }
        assert!(
            (r.ws_norm[0] - 1.0).abs() < 1e-9,
            "baseline normalizes to 1"
        );
    }
    assert!(c.fps_table().render().contains("ThrotCPUprio"));
}

#[test]
#[ignore = "runs 48 smoke simulations plus standalone calibration"]
fn fig13_14_non_amenable_driver() {
    let base = tiny();
    let c = drivers::comparison(&run(drivers::comparison_jobs(&base, false)), false);
    assert_eq!(c.rows.len(), 8, "M1-M6, M9, M14");
    let t = c.fig14_table().render();
    assert!(t.contains("GMEAN"));
    assert!(t.contains("M14"));
}
