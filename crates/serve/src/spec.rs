//! The JSONL job-spec grammar: one JSON object per line, each describing
//! one simulation job (machine/experiment/QoS config + seed + budgets).
//!
//! This is the one config path per job: the `runsim` one-shot CLI fills
//! a [`JobSpec`] from [`JobSpec::base`] through [`apply_field`] and
//! runs what [`JobSpec::resolve`] returns, so a spec line and the
//! equivalent `runsim` flags produce the same `MachineConfig` — and
//! therefore byte-identical results. Unknown keys are rejected (a typo'd
//! budget silently defaulting to "unlimited" is the failure mode this
//! grammar exists to prevent).

use gat_cache::ReplacementPolicy;
use gat_dram::SchedulerKind;
use gat_hetero::{FillPolicyKind, MachineConfig, QosMode};
use gat_sim::faults::FaultPlan;
use gat_sim::hashing::stable_hash64;
use gat_sim::json::{parse_json_object, Arr, JsonValue, Obj};
use gat_workloads::{all_games, all_spec, GameProfile, SpecProfile};

/// Cache-key schema version. Bump when the canonical spec encoding, the
/// job-block format, or anything else that changes cached bytes changes.
pub const SPEC_SCHEMA: u32 = 1;

/// Code-version component of the result-cache key: a cache entry is only
/// valid for the code that wrote it.
pub const CODE_VERSION: &str = concat!("gat-serve/", env!("CARGO_PKG_VERSION"));

/// One job: what to simulate, under which budgets, with which retry
/// allowance. `runsim` builds one of these from its flags.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Job id: unique within a batch (used for dump-file suffixes and
    /// result correlation). Defaults to `job<line-index>`.
    pub id: String,
    /// Game name (Table II) or `None` for a CPU-only run.
    pub game: Option<String>,
    /// SPEC app ids for the CPU cores (may be empty for GPU-only).
    pub cpus: Vec<u16>,
    pub sched: String,
    pub qos: String,
    pub fill: String,
    pub scale: u32,
    pub seed: u64,
    pub instr: u64,
    pub frames: u32,
    pub warmup: u64,
    pub max_cycles: Option<u64>,
    pub watchdog: Option<u64>,
    pub gpu_ways: Option<u32>,
    pub partition_channels: bool,
    pub llc_lru: bool,
    /// Fault-plan spec string (`gat_sim::faults` grammar); empty = none.
    pub faults: String,
    /// Cycle budget: caps `limits.max_cycles`.
    pub budget_cycles: Option<u64>,
    /// Wall-clock budget in milliseconds, enforced by a supervisor
    /// deadline. Outcomes produced by this budget are inherently
    /// wall-clock dependent and are never cached.
    pub budget_wall_ms: Option<u64>,
    /// Memory budget in MiB, enforced by admission control against
    /// [`MachineConfig::estimated_mem_bytes`].
    pub budget_mem_mb: Option<u64>,
    /// Maximum retries for fault-plan-transient failures (0 = none).
    pub retry_max: u32,
    /// Test fixture hook: `"panic"` makes the job panic inside the
    /// supervisor's isolation boundary (exercises `Panicked`).
    pub fixture: Option<String>,
}

impl JobSpec {
    /// The all-defaults spec, which is also `runsim` with no flags,
    /// including its default CPU mix. A GPU-only job states `"cpus": []`
    /// exactly like `runsim --cpus ""`.
    pub fn base(id: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            game: None,
            cpus: vec![470, 410, 433, 462],
            sched: "frfcfs".into(),
            qos: "off".into(),
            fill: "base".into(),
            scale: 128,
            seed: 1,
            instr: 400_000,
            frames: 4,
            warmup: 200_000,
            max_cycles: None,
            watchdog: None,
            gpu_ways: None,
            partition_channels: false,
            llc_lru: false,
            faults: String::new(),
            budget_cycles: None,
            budget_wall_ms: None,
            budget_mem_mb: None,
            retry_max: 0,
            fixture: None,
        }
    }

    /// Canonical encoding: every field, resolved, in a fixed order. Two
    /// specs that mean the same job produce the same canonical string
    /// regardless of key order or formatting in the source line.
    pub fn canonical(&self) -> String {
        let opt_u64 = |o: Option<u64>| o.map_or_else(|| "null".into(), |v| v.to_string());
        let mut cpus = Arr::new();
        for c in &self.cpus {
            cpus = cpus.u64(u64::from(*c));
        }
        Obj::new()
            .u64("schema", u64::from(SPEC_SCHEMA))
            .str("id", &self.id)
            .str("game", self.game.as_deref().unwrap_or(""))
            .raw("cpus", &cpus.finish())
            .str("sched", &self.sched)
            .str("qos", &self.qos)
            .str("fill", &self.fill)
            .u64("scale", u64::from(self.scale))
            .u64("seed", self.seed)
            .u64("instr", self.instr)
            .u64("frames", u64::from(self.frames))
            .u64("warmup", self.warmup)
            .raw("max_cycles", &opt_u64(self.max_cycles))
            .raw("watchdog", &opt_u64(self.watchdog))
            .raw("gpu_ways", &opt_u64(self.gpu_ways.map(u64::from)))
            .bool("partition_channels", self.partition_channels)
            .bool("llc_lru", self.llc_lru)
            .str("faults", &self.faults)
            .raw("budget_cycles", &opt_u64(self.budget_cycles))
            .raw("budget_wall_ms", &opt_u64(self.budget_wall_ms))
            .raw("budget_mem_mb", &opt_u64(self.budget_mem_mb))
            .u64("retry_max", u64::from(self.retry_max))
            .str("fixture", self.fixture.as_deref().unwrap_or(""))
            .finish()
    }

    /// Content hash of `(canonical spec, code version)` — the result-cache
    /// key. The seed participates via the canonical encoding; the code
    /// version guarantees a rebuilt engine never serves stale bytes.
    pub fn content_hash(&self) -> String {
        let mut keyed = self.canonical();
        keyed.push('\0');
        keyed.push_str(CODE_VERSION);
        format!("{:016x}", stable_hash64(keyed.as_bytes()))
    }

    /// Resolve the spec into a validated machine configuration plus its
    /// workloads. The only place the scheduler, QoS and fill names map to
    /// their enums; `runsim` and the batch engine both run through it.
    pub fn resolve(&self) -> Result<ResolvedJob, SpecError> {
        let bad = |what: &str, detail: String| SpecError {
            line: 0,
            detail: format!("{what}: {detail}"),
        };
        let mut cfg = MachineConfig::table_one(self.scale, self.seed);
        cfg.limits.cpu_instructions = self.instr;
        cfg.limits.gpu_frames = self.frames;
        cfg.limits.warmup_cycles = self.warmup;
        if let Some(m) = self.max_cycles {
            cfg.limits.max_cycles = m;
        }
        if let Some(w) = self.watchdog {
            cfg.limits.watchdog = w;
        }
        if let Some(b) = self.budget_cycles {
            cfg.limits.max_cycles = cfg.limits.max_cycles.min(b);
        }
        cfg.sched = match self.sched.as_str() {
            "frfcfs" => SchedulerKind::FrFcfs,
            "cpuprio" => SchedulerKind::FrFcfsCpuPrio,
            "sms09" => SchedulerKind::Sms(0.9),
            "sms0" => SchedulerKind::Sms(0.0),
            "dynprio" => SchedulerKind::DynPrio,
            "static" => SchedulerKind::StaticCpuPrio,
            o => return Err(bad("sched", format!("unknown scheduler {o:?}"))),
        };
        cfg.qos = match self.qos.as_str() {
            "off" => QosMode::Off,
            "observe" => QosMode::Observe,
            "throttle" => QosMode::Throttle,
            "full" => QosMode::ThrotCpuPrio,
            "prioonly" => QosMode::CpuPrioOnly,
            o => return Err(bad("qos", format!("unknown qos mode {o:?}"))),
        };
        cfg.fill_policy = match self.fill.as_str() {
            "base" => FillPolicyKind::Baseline,
            "bypass" => FillPolicyKind::BypassAll,
            "helm" => FillPolicyKind::Helm,
            o => return Err(bad("fill", format!("unknown fill policy {o:?}"))),
        };
        cfg.gpu_llc_ways = self.gpu_ways;
        cfg.partition_channels = self.partition_channels;
        if self.llc_lru {
            cfg.llc_policy = ReplacementPolicy::Lru;
        }
        if !self.faults.is_empty() {
            cfg.faults =
                FaultPlan::parse(&self.faults).map_err(|e| bad("faults", e.to_string()))?;
        }
        cfg.validate().map_err(|e| bad("config", e.to_string()))?;

        let catalog = all_spec();
        let mut apps = Vec::with_capacity(self.cpus.len());
        for id in &self.cpus {
            let p = catalog
                .iter()
                .find(|p| p.spec_id == *id)
                .ok_or_else(|| bad("cpus", format!("unknown SPEC id {id}")))?;
            apps.push(*p);
        }
        let game = match &self.game {
            Some(n) => Some(
                all_games()
                    .into_iter()
                    .find(|g| g.name == n.as_str())
                    .ok_or_else(|| bad("game", format!("unknown game {n:?}")))?,
            ),
            None => None,
        };
        if game.is_none() && apps.is_empty() {
            return Err(bad("workload", "need at least one of game/cpus".into()));
        }
        Ok(ResolvedJob { cfg, apps, game })
    }
}

/// A spec resolved into something a `HeteroSystem` can be built from.
#[derive(Debug)]
pub struct ResolvedJob {
    pub cfg: MachineConfig,
    pub apps: Vec<SpecProfile>,
    pub game: Option<GameProfile>,
}

/// A rejected spec line: 1-based line number plus what was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    pub line: usize,
    pub detail: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "spec line {}: {}", self.line, self.detail)
    }
}

impl std::error::Error for SpecError {}

/// One item of a parsed batch: a runnable job or a typed rejection. Bad
/// lines are *data*, not batch-fatal errors — the engine reports them as
/// `job_spec_error` records and keeps going.
// A batch is a short Vec of these; the size skew between a full spec and
// a rejection is irrelevant next to boxing every job at parse time.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum BatchItem {
    Job(JobSpec),
    Bad(SpecError),
}

/// Parse a whole JSONL batch. Blank lines and `#` comment lines are
/// skipped; every other line must be one job-spec object. Item order is
/// line order — the engine emits results in exactly this order.
pub fn parse_batch(text: &str) -> Vec<BatchItem> {
    let mut out = Vec::new();
    let mut job_counter = 0usize;
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        job_counter += 1;
        match parse_spec_line(trimmed, job_counter) {
            Ok(spec) => out.push(BatchItem::Job(spec)),
            Err(detail) => out.push(BatchItem::Bad(SpecError {
                line: line_no,
                detail,
            })),
        }
    }
    out
}

/// Parse one spec line; `ordinal` seeds the default id (`job<ordinal>`).
pub fn parse_spec_line(line: &str, ordinal: usize) -> Result<JobSpec, String> {
    let fields = parse_json_object(line).map_err(|e| e.to_string())?;
    let mut spec = JobSpec::base(format!("job{ordinal}"));
    for (key, value) in &fields {
        apply_field(&mut spec, key, value)?;
    }
    if !spec
        .id
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
        || spec.id.is_empty()
    {
        return Err(format!(
            "id {:?} must be non-empty [A-Za-z0-9._-] (it names dump files)",
            spec.id
        ));
    }
    // Resolve eagerly so unknown names and invalid configurations become
    // typed `job_spec_error` records instead of mid-batch surprises.
    spec.resolve().map_err(|e| e.detail)?;
    Ok(spec)
}

/// Set one spec key from its JSON value: the key table shared by spec
/// lines and `runsim` flags. The error names the key.
pub fn apply_field(spec: &mut JobSpec, key: &str, value: &JsonValue) -> Result<(), String> {
    let str_of = |v: &JsonValue| {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("field {key:?} wants a string"))
    };
    let u64_of = |v: &JsonValue| {
        v.as_u64()
            .ok_or_else(|| format!("field {key:?} wants a non-negative integer"))
    };
    let u32_of = |v: &JsonValue| {
        u32::try_from(u64_of(v)?).map_err(|_| format!("field {key:?} is out of range"))
    };
    let bool_of = |v: &JsonValue| {
        v.as_bool()
            .ok_or_else(|| format!("field {key:?} wants true/false"))
    };
    match key {
        "id" => spec.id = str_of(value)?,
        "game" => {
            let g = str_of(value)?;
            spec.game = (!g.is_empty()).then_some(g);
        }
        "cpus" => {
            // Either the runsim-style comma string ("470,410") or a JSON
            // array of ids.
            spec.cpus = match value {
                JsonValue::Str(s) => s
                    .split(',')
                    .filter(|p| !p.trim().is_empty())
                    .map(|p| {
                        p.trim()
                            .parse::<u16>()
                            .map_err(|_| format!("cpus entry {p:?} is not a SPEC id"))
                    })
                    .collect::<Result<_, _>>()?,
                JsonValue::Arr(items) => items
                    .iter()
                    .map(|v| {
                        v.as_u64()
                            .and_then(|n| u16::try_from(n).ok())
                            .ok_or_else(|| "cpus array entries must be SPEC ids".to_string())
                    })
                    .collect::<Result<_, _>>()?,
                JsonValue::Null | JsonValue::Bool(_) | JsonValue::Num(_) | JsonValue::Obj(_) => {
                    return Err("field \"cpus\" wants a string or array".into())
                }
            };
        }
        "sched" => spec.sched = str_of(value)?,
        "qos" => spec.qos = str_of(value)?,
        "fill" => spec.fill = str_of(value)?,
        "scale" => spec.scale = u32_of(value)?,
        "seed" => spec.seed = u64_of(value)?,
        "instr" => spec.instr = u64_of(value)?,
        "frames" => spec.frames = u32_of(value)?,
        "warmup" => spec.warmup = u64_of(value)?,
        "max_cycles" => spec.max_cycles = Some(u64_of(value)?),
        "watchdog" => spec.watchdog = Some(u64_of(value)?),
        "gpu_ways" => spec.gpu_ways = Some(u32_of(value)?),
        "partition_channels" => spec.partition_channels = bool_of(value)?,
        "llc_lru" => spec.llc_lru = bool_of(value)?,
        "faults" => spec.faults = str_of(value)?,
        "budget" => {
            let JsonValue::Obj(fields) = value else {
                return Err("field \"budget\" wants an object".into());
            };
            for (k, v) in fields {
                let n = v
                    .as_u64()
                    .ok_or_else(|| format!("budget.{k} wants a non-negative integer"))?;
                match k.as_str() {
                    "cycles" => spec.budget_cycles = Some(n),
                    "wall_ms" => spec.budget_wall_ms = Some(n),
                    "mem_mb" => spec.budget_mem_mb = Some(n),
                    other => return Err(format!("unknown budget key {other:?}")),
                }
            }
        }
        "retry" => {
            let JsonValue::Obj(fields) = value else {
                return Err("field \"retry\" wants an object".into());
            };
            for (k, v) in fields {
                match k.as_str() {
                    "max" => {
                        let n = v
                            .as_u64()
                            .ok_or_else(|| "retry.max wants a non-negative integer".to_string())?;
                        spec.retry_max =
                            u32::try_from(n).map_err(|_| "retry.max too large".to_string())?;
                        if spec.retry_max > 8 {
                            return Err("retry.max is capped at 8".into());
                        }
                    }
                    other => return Err(format!("unknown retry key {other:?}")),
                }
            }
        }
        "fixture" => {
            let f = str_of(value)?;
            if f != "panic" {
                return Err(format!("unknown fixture {f:?} (known: \"panic\")"));
            }
            spec.fixture = Some(f);
        }
        other => return Err(format!("unknown spec key {other:?}")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_is_runsim_without_flags() {
        let s = parse_spec_line(r#"{"game":"DOOM3"}"#, 1).unwrap();
        assert_eq!(s.id, "job1");
        assert_eq!(s.scale, 128);
        assert_eq!(s.seed, 1);
        assert_eq!(s.instr, 400_000);
        assert_eq!(s.frames, 4);
        assert_eq!(s.warmup, 200_000);
        let r = s.resolve().unwrap();
        assert_eq!(r.cfg.limits.cpu_instructions, 400_000);
        assert!(r.game.is_some());
        let ids: Vec<u16> = r.apps.iter().map(|a| a.spec_id).collect();
        assert_eq!(ids, vec![470, 410, 433, 462], "runsim's default mix");
    }

    #[test]
    fn cpus_accepts_both_grammars() {
        let a = parse_spec_line(r#"{"cpus":"470, 410"}"#, 1).unwrap();
        let b = parse_spec_line(r#"{"cpus":[470,410]}"#, 1).unwrap();
        assert_eq!(a.cpus, vec![470, 410]);
        assert_eq!(a.cpus, b.cpus);
    }

    #[test]
    fn unknown_keys_and_bad_values_are_rejected() {
        assert!(parse_spec_line(r#"{"budgets":{}}"#, 1).is_err());
        assert!(parse_spec_line(r#"{"budget":{"cycels":5}}"#, 1).is_err());
        assert!(parse_spec_line(r#"{"seed":"seven"}"#, 1).is_err());
        assert!(parse_spec_line(r#"{"fixture":"explode"}"#, 1).is_err());
        assert!(parse_spec_line(r#"{"id":"a/b"}"#, 1).is_err());
        assert!(parse_spec_line(r#"{"retry":{"max":99}}"#, 1).is_err());
        for key in ["scale", "frames", "gpu_ways"] {
            let line = format!(r#"{{"{key}":5000000000}}"#);
            let err = parse_spec_line(&line, 1).unwrap_err();
            assert_eq!(err, format!("field {key:?} is out of range"));
        }
    }

    #[test]
    fn resolve_rejects_unknown_names_and_empty_workloads() {
        let mut s = JobSpec::base("x");
        s.cpus.clear();
        assert!(s.resolve().unwrap_err().detail.contains("workload"));
        s.game = Some("PONG".into());
        assert!(s.resolve().unwrap_err().detail.contains("game"));
        s.game = Some("DOOM3".into());
        s.cpus = vec![9999];
        assert!(s.resolve().unwrap_err().detail.contains("SPEC id"));
        s.cpus = vec![470];
        s.sched = "rr".into();
        assert!(s.resolve().unwrap_err().detail.contains("sched"));
        // parse_spec_line resolves eagerly, so these die at parse time.
        assert!(parse_spec_line(r#"{"game":"PONG"}"#, 1).is_err());
        assert!(parse_spec_line(r#"{"cpus":[]}"#, 1).is_err());
    }

    #[test]
    fn content_hash_tracks_meaning_not_formatting() {
        let a = parse_spec_line(r#"{"game":"DOOM3","seed":7}"#, 1).unwrap();
        let b = parse_spec_line(r#"{ "seed": 7, "game": "DOOM3" }"#, 1).unwrap();
        assert_eq!(a.content_hash(), b.content_hash());
        let c = parse_spec_line(r#"{"game":"DOOM3","seed":8}"#, 1).unwrap();
        assert_ne!(a.content_hash(), c.content_hash());
        // The id names dump files and appears in result blocks, so it is
        // part of the key.
        let d = parse_spec_line(r#"{"game":"DOOM3","seed":7,"id":"other"}"#, 1).unwrap();
        assert_ne!(a.content_hash(), d.content_hash());
    }

    #[test]
    fn batch_parser_keeps_order_and_types_bad_lines() {
        let items = parse_batch(
            "# comment\n\n{\"game\":\"DOOM3\"}\nnot json\n{\"game\":\"DOOM3\",\"id\":\"z\"}\n",
        );
        assert_eq!(items.len(), 3);
        assert!(matches!(&items[0], BatchItem::Job(s) if s.id == "job1"));
        assert!(matches!(&items[1], BatchItem::Bad(e) if e.line == 4));
        assert!(matches!(&items[2], BatchItem::Job(s) if s.id == "z"));
    }

    #[test]
    fn budget_cycles_clamps_max_cycles() {
        let s =
            parse_spec_line(r#"{"game":"DOOM3","warmup":0,"budget":{"cycles":1000}}"#, 1).unwrap();
        assert_eq!(s.resolve().unwrap().cfg.limits.max_cycles, 1000);
        let s = parse_spec_line(
            r#"{"game":"DOOM3","warmup":0,"max_cycles":500,"budget":{"cycles":1000}}"#,
            1,
        )
        .unwrap();
        assert_eq!(s.resolve().unwrap().cfg.limits.max_cycles, 500);
        // A cycle budget below the warm-up would make the config invalid;
        // eager resolution turns that into a parse-time rejection.
        assert!(parse_spec_line(r#"{"game":"DOOM3","budget":{"cycles":1000}}"#, 1).is_err());
    }
}
