//! Compare every memory-system proposal the paper evaluates — baseline
//! FR-FCFS, SMS-0.9, SMS-0, DynPrio, HeLM, and the paper's
//! ThrotCPUprio — on one heterogeneous mix (the unit of Fig. 12).
//!
//! ```text
//! cargo run --release --example scheduler_shootout [mix-number 1..14]
//! ```

use gat::prelude::*;
use gat_bench::{drivers::PROPOSALS, with_mix};
use gat_serve::JobSpec;

fn main() {
    let k: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    let mix = mix_m(k);
    println!(
        "mix M{k}: {} ({} FPS standalone in Table II) + CPUs {}",
        mix.game.name,
        mix.game.table2_fps,
        mix.cpu_label()
    );
    println!(
        "{:<14} {:>8} {:>10} {:>12}",
        "proposal", "GPU FPS", "ΣIPC", "vs baseline"
    );

    let base = JobSpec {
        scale: 128,
        seed: 99,
        instr: 300_000,
        frames: 4,
        warmup: 150_000,
        ..with_mix(JobSpec::base("shootout"), &mix)
    };

    let mut base_sum_ipc = 0.0;
    for (i, prop) in PROPOSALS.iter().enumerate() {
        let job = prop
            .spec(base.clone())
            .resolve()
            .expect("a valid proposal spec");
        let r = HeteroSystem::new(job.cfg, &job.apps, job.game).run();
        let sum_ipc: f64 = r.cores.iter().map(|c| c.ipc).sum();
        if i == 0 {
            base_sum_ipc = sum_ipc;
        }
        println!(
            "{:<14} {:>8.1} {:>10.3} {:>11.1}%",
            prop.label,
            r.gpu.as_ref().unwrap().fps,
            sum_ipc,
            100.0 * (sum_ipc / base_sum_ipc - 1.0)
        );
    }
}
