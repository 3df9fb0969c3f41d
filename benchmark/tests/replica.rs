//! The replica reproduces production, plain and traced, on one run of
//! each figure-driver workload's shape (at smoke limits).

use gat_benchmark::measure::SimJob;
use gat_benchmark::replica::{Fingerprint, Layer, Replica, Trace};
use gat_benchmark::workloads::{Workload, DEFAULT_SEED};
use gat_hetero::RunLimits;

fn smoke_job(w: Workload, id: &str) -> SimJob {
    let spec = w
        .specs(DEFAULT_SEED)
        .into_iter()
        .find(|s| s.id == id)
        .unwrap_or_else(|| panic!("{} has no job {id}", w.name()));
    let mut job = SimJob::resolve(&spec).unwrap();
    job.cfg.limits = RunLimits::smoke();
    job
}

#[test]
fn replica_matches_production_on_each_workload_shape() {
    for (w, id) in [
        (Workload::Motivation, "W7-gpu"),
        (Workload::Motivation, "W7-both"),
        (Workload::Throttle, "M7-throtcpuprio"),
        (Workload::Schedulers, "M4-sms09"),
    ] {
        let job = smoke_job(w, id);
        let mut sys = job.build();
        let r = sys.try_run().unwrap();
        let want =
            Fingerprint::of_production(&r, &sys.registry_snapshot(), job.cfg.dram_map.channels);

        let mut plain = Replica::new(&job.cfg, &job.apps, job.game.clone()).unwrap();
        let got = plain.run().unwrap();
        assert_eq!(want.first_difference(&got), None, "{id} plain");
        assert_eq!(plain.now(), sys.now(), "{id} plain cycles");

        let mut tr = Trace::default();
        let mut traced = Replica::new(&job.cfg, &job.apps, job.game.clone()).unwrap();
        let got = traced.run_traced(&mut tr).unwrap();
        assert_eq!(want.first_difference(&got), None, "{id} traced");
        assert_eq!(
            tr.gpu_ticks,
            sys.now().div_ceil(4),
            "{id}: one GPU tick per 4 cycles"
        );
        assert_eq!(
            tr.cpu_ticks,
            sys.now() * job.apps.len() as u64,
            "{id}: every core ticks every cycle"
        );
        assert!(tr.seconds(Layer::Uncore) > 0.0, "{id}: no uncore samples");
    }
}

#[test]
fn a_different_run_is_reported_by_field() {
    let job = smoke_job(Workload::Throttle, "M7-off");
    let mut sys = job.build();
    let r = sys.try_run().unwrap();
    let want = Fingerprint::of_production(&r, &sys.registry_snapshot(), 2);
    let mut other = want.clone();
    other.llc[1] += 1;
    let diff = want.first_difference(&other).unwrap();
    assert!(diff.starts_with("llc hits/misses"), "{diff}");
}

#[test]
fn faulted_runs_are_outside_the_replica() {
    let mut job = smoke_job(Workload::Throttle, "M7-off");
    job.cfg.faults = gat_sim::faults::FaultPlan::parse("ring.drop=0.1").unwrap();
    assert!(Replica::new(&job.cfg, &job.apps, job.game.clone()).is_err());
}
