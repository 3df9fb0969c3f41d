//! The four benchmark workloads, each a JSONL batch of job specs built
//! from the seed.
//!
//! Every workload is expressed in the `gat-serve` job-spec grammar, so
//! the same list feeds the direct `HeteroSystem` runs, the batch engine
//! and the replica. A spec has no CPU-count field and resolves to the
//! 4-CPU machine; `num_cpus` only bounds how many cores a config may
//! instantiate, so the motivation runs behave exactly like the 1-CPU
//! machine of the figure driver.

use gat_serve::{parse_batch, BatchItem, JobSpec};
use gat_sim::json::{Arr, Obj};
use gat_sim::rng::splitmix64;
use gat_workloads::{mixes_m, mixes_w, Mix, AMENABLE_NAMES};

/// The seed the recorded digests were taken at.
pub const DEFAULT_SEED: u64 = 538_379_561;

/// Run size of one job.
#[derive(Debug, Clone, Copy)]
struct Size {
    scale: u32,
    instr: u64,
    frames: u32,
    warmup: u64,
}

/// The figure-driver workloads: a quarter of hotbench's GPU work per
/// frame and cut instruction and frame budgets, so that one pass takes a
/// few seconds. The warm-up still spans a whole frame, so the FRPU has
/// learned one and throttling engages in the measured window. At this
/// size fast-forward skips 49% of `motivation`'s cycles, 1.6% of
/// `throttle`'s and 1.2% of `schedulers'` (`engine.skipped_share`).
const SIM_SIZE: Size = Size {
    scale: 512,
    instr: 25_000,
    frames: 1,
    warmup: 300_000,
};

/// Small jobs, so per-job engine costs are a visible share of a batch.
const SERVE_SIZE: Size = Size {
    scale: 2048,
    instr: 10_000,
    frames: 1,
    warmup: 10_000,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Motivation,
    Throttle,
    Schedulers,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Motivation,
        Workload::Throttle,
        Workload::Schedulers,
        Workload::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Motivation => "motivation",
            Workload::Throttle => "throttle",
            Workload::Schedulers => "schedulers",
            Workload::Serve => "serve",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Motivation => {
                "fig1+2 runs on the 1-CPU machine: idle-heavy (fast-forward skips 49% \
                 of cycles), no QoS controller, so the wake calendar and fast-forward \
                 do the most work"
            }
            Workload::Throttle => {
                "fig9 runs on amenable mixes: FRPU and ATU act on every GPU tick \
                 and four busy cores keep cpu, qos and uncore hot (2% of cycles skipped)"
            }
            Workload::Schedulers => {
                "SMS, DynPrio and HeLM on M4 and M14: the DRAM scheduler's generic \
                 pick and the selective-bypass fill path instead of FR-FCFS"
            }
            Workload::Serve => {
                "seeded batch of small jobs through gat-serve: per-job engine costs \
                 (resolve, pool, result cache stores, ordered emission)"
            }
        }
    }

    /// Does the workload time `HeteroSystem::try_run` directly (as
    /// opposed to a `gat-serve` batch)?
    pub fn is_sim(self) -> bool {
        self != Workload::Serve
    }

    /// The recorded digest of the workload's results, at [`DEFAULT_SEED`]
    /// only: `stable_hash64` over every `RunResult::to_json()` line in run
    /// order, or over every serve job block in spec order.
    pub fn recorded_digest(self, seed: u64) -> Option<u64> {
        (seed == DEFAULT_SEED).then_some(match self {
            Workload::Motivation => 0x9d2e_8499_fa4c_5de4,
            Workload::Throttle => 0x5848_549f_977e_8615,
            Workload::Schedulers => 0x5b2a_6726_052d_3e73,
            Workload::Serve => 0x591b_88b0_457f_c77b,
        })
    }

    /// The workload's job specs as a JSONL batch.
    pub fn batch(self, seed: u64) -> String {
        let mut lines = Vec::new();
        match self {
            Workload::Motivation => {
                // CPU alone, GPU alone, CPU+GPU per W mix (fig1+2 order).
                for mix in mixes_w() {
                    let cpus = ids(&mix);
                    let game = mix.game.name;
                    let run = |tag: &str, game: Option<&'static str>, cpus: &[u16]| Job {
                        id: format!("{}-{tag}", mix.name),
                        game,
                        cpus: cpus.to_vec(),
                        ..Job::sim(seed)
                    };
                    lines.push(run("cpu", None, &cpus).line());
                    lines.push(run("gpu", Some(game), &[]).line());
                    lines.push(run("both", Some(game), &cpus).line());
                }
            }
            Workload::Throttle => {
                for mix in mixes_m()
                    .into_iter()
                    .filter(|m| AMENABLE_NAMES.contains(&m.game.name))
                {
                    for (tag, sched, qos) in [
                        ("off", "frfcfs", "off"),
                        ("throttle", "frfcfs", "throttle"),
                        ("throtcpuprio", "cpuprio", "full"),
                    ] {
                        lines.push(
                            Job {
                                id: format!("{}-{tag}", mix.name),
                                game: Some(mix.game.name),
                                cpus: ids(&mix),
                                sched,
                                qos,
                                ..Job::sim(seed)
                            }
                            .line(),
                        );
                    }
                }
            }
            Workload::Schedulers => {
                for mix in mixes_m()
                    .into_iter()
                    .filter(|m| m.name == "M4" || m.name == "M14")
                {
                    for (tag, sched, fill) in [
                        ("sms09", "sms09", "base"),
                        ("sms0", "sms0", "base"),
                        ("dynprio", "dynprio", "base"),
                        ("helm", "frfcfs", "helm"),
                    ] {
                        lines.push(
                            Job {
                                id: format!("{}-{tag}", mix.name),
                                game: Some(mix.game.name),
                                cpus: ids(&mix),
                                sched,
                                fill,
                                ..Job::sim(seed)
                            }
                            .line(),
                        );
                    }
                }
            }
            Workload::Serve => {
                // Every (game, CPU set, QoS mode) combination once, each
                // with its own simulation seed drawn from the run's seed.
                // The order is fixed: job lengths are heavy-tailed, and a
                // seeded order that puts a long job last leaves one shard
                // idle for most of it (measured: up to 18% of the batch's
                // wall time), which would make the seed, not the code,
                // move jobs_per_s. No job has a wall budget: each would
                // run on a detached deadline thread, and the per-thread
                // allocator arenas made the batch's peak RSS swing between
                // 37 and 65 MiB from run to run (19 MiB, within 1%,
                // without).
                let mut state = seed;
                for (w, m) in mixes_w().into_iter().zip(mixes_m()) {
                    for cpus in [ids(&m), ids(&w), Vec::new()] {
                        for qos in ["off", "observe", "throttle", "full"] {
                            let job = Job {
                                id: format!("s{:03}", lines.len()),
                                game: Some(m.game.name),
                                cpus: cpus.clone(),
                                qos,
                                size: SERVE_SIZE,
                                seed: splitmix64(&mut state),
                                ..Job::sim(seed)
                            };
                            lines.push(job.line());
                        }
                    }
                }
            }
        }
        let mut text = lines.join("\n");
        text.push('\n');
        text
    }

    /// The parsed job specs, in batch order.
    pub fn specs(self, seed: u64) -> Vec<JobSpec> {
        parse_batch(&self.batch(seed))
            .into_iter()
            .map(|item| match item {
                BatchItem::Job(spec) => spec,
                BatchItem::Bad(e) => panic!("{} workload emitted a bad spec: {e}", self.name()),
            })
            .collect()
    }
}

fn ids(mix: &Mix) -> Vec<u16> {
    mix.cpu.iter().map(|p| p.spec_id).collect()
}

/// One spec line under construction.
struct Job {
    id: String,
    game: Option<&'static str>,
    cpus: Vec<u16>,
    sched: &'static str,
    qos: &'static str,
    fill: &'static str,
    size: Size,
    seed: u64,
}

impl Job {
    /// Defaults of the figure-driver workloads.
    fn sim(seed: u64) -> Self {
        Job {
            id: String::new(),
            game: None,
            cpus: Vec::new(),
            sched: "frfcfs",
            qos: "off",
            fill: "base",
            size: SIM_SIZE,
            seed,
        }
    }

    fn line(&self) -> String {
        let mut cpus = Arr::new();
        for &c in &self.cpus {
            cpus = cpus.u64(u64::from(c));
        }
        Obj::new()
            .str("id", &self.id)
            .str("game", self.game.unwrap_or(""))
            .raw("cpus", &cpus.finish())
            .str("sched", self.sched)
            .str("qos", self.qos)
            .str("fill", self.fill)
            .u64("scale", u64::from(self.size.scale))
            .u64("seed", self.seed)
            .u64("instr", self.size.instr)
            .u64("frames", u64::from(self.size.frames))
            .u64("warmup", self.size.warmup)
            .finish()
    }
}
