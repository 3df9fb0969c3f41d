//! `gat-bench` — figure regeneration and performance benchmarks.
//!
//! The [`figures`](crate::run_figure) entry points drive the experiment
//! harness in `gat-hetero` to regenerate each paper figure as a text
//! table; the `figures` binary wraps them in a CLI:
//!
//! ```text
//! cargo run --release -p gat-bench --bin figures -- all
//! cargo run --release -p gat-bench --bin figures -- fig9 --scale 64 --frames 5
//! ```
//!
//! Criterion benches (`benches/`) cover the hot simulator kernels
//! (components) and one representative run per figure family (figures).

use gat_hetero::experiments::{self, ExpConfig};
use gat_hetero::report::Table;
use gat_hetero::SimError;
use gat_serve::spec::{apply_field, SpecError};
use gat_serve::JobSpec;
use gat_sim::faults::FaultPlan;
use gat_sim::json::JsonValue;

/// All known figure ids, in paper order.
pub const FIGURES: [&str; 10] = [
    "fig1", "fig2", "fig3", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
];

/// Combined ids accepted by [`figure_tables`] that share runs between
/// figures built from the same experiment.
pub const FIGURE_COMBOS: [&str; 5] = ["fig1+2", "motivation", "fig9+10+11", "throttle", "fig13+14"];

/// Is `id` something [`figure_tables`] accepts?
pub fn is_known_figure(id: &str) -> bool {
    FIGURES.contains(&id) || FIGURE_COMBOS.contains(&id)
}

/// Typed failure for the CLI binaries. Every user-reachable error path
/// maps to a stable nonzero exit code (see [`CliError::exit_code`])
/// instead of a panic backtrace.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line (unknown flag or value, malformed number): exit 2.
    Usage(String),
    /// The assembled configuration or fault spec is invalid: exit 2.
    Config(String),
    /// An output artifact could not be written: exit 1.
    Io(String),
    /// The simulation itself aborted (liveness watchdog, paranoia
    /// invariant check, cycle-limit overrun): exit 3.
    Sim(SimError),
    /// A performance gate tripped (`hotbench --gate`: cycles/s below the
    /// recorded anchor beyond the band): exit 3.
    Gate(String),
}

impl CliError {
    /// The process exit code this error maps to.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) | CliError::Config(_) => 2,
            CliError::Io(_) => 1,
            CliError::Sim(_) | CliError::Gate(_) => 3,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage: {msg}"),
            CliError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            CliError::Io(msg) => write!(f, "io: {msg}"),
            CliError::Sim(e) => write!(f, "simulation failed: {e}"),
            CliError::Gate(msg) => write!(f, "performance gate: {msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<SimError> for CliError {
    fn from(e: SimError) -> Self {
        CliError::Sim(e)
    }
}

/// Print a binary's error to stderr and exit with its code.
pub fn fail(bin: &str, e: CliError) -> ! {
    eprintln!("{bin}: error: {e}");
    std::process::exit(e.exit_code());
}

/// Parse a flag value, mapping failure to a usage error naming the flag.
pub fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, CliError> {
    value
        .parse()
        .map_err(|_| CliError::Usage(format!("{flag} expects a number, got {value:?}")))
}

/// A bench binary's parsed command line: positional words, the switches
/// present, and `--flag VALUE` pairs. Every flag must be declared, so a
/// misspelled one is a usage error instead of a silently ignored word.
#[derive(Debug, Default)]
pub struct Args {
    positional: Vec<String>,
    switches: Vec<String>,
    values: Vec<(String, String)>,
}

impl Args {
    /// Parse the process arguments; see [`Args::parse`].
    pub fn from_env(valued: &str, switches: &str) -> Result<Self, CliError> {
        Self::parse(std::env::args().skip(1), valued, switches)
    }

    /// Parse `argv` (program name excluded) against the binary's `valued`
    /// flags, which take the next word as their value, and its `switches`,
    /// which take none (both whitespace-separated lists). Any other
    /// `--word` is an unknown flag, and a valued flag with no word after
    /// it is missing its value: both are [`CliError::Usage`].
    pub fn parse(
        argv: impl IntoIterator<Item = String>,
        valued: &str,
        switches: &str,
    ) -> Result<Self, CliError> {
        let declared = |list: &str, arg: &str| list.split_whitespace().any(|f| f == arg);
        let mut out = Self::default();
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            if declared(valued, &arg) {
                let value = argv
                    .next()
                    .ok_or_else(|| CliError::Usage(format!("{arg} needs a value")))?;
                out.values.push((arg, value));
            } else if declared(switches, &arg) {
                out.switches.push(arg);
            } else if arg.starts_with("--") {
                return Err(CliError::Usage(format!("unknown flag {arg:?}")));
            } else {
                out.positional.push(arg);
            }
        }
        Ok(out)
    }

    /// The value of the first occurrence of a valued flag.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// Was this switch given?
    pub fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    /// The non-flag words, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// A numeric flag's value, if given.
    pub fn num_opt<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, CliError> {
        self.get(flag).map(|v| parse_num(flag, v)).transpose()
    }

    /// A numeric flag's value, or `default` when absent.
    pub fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, CliError> {
        Ok(self.num_opt(flag)?.unwrap_or(default))
    }
}

/// Resolve the run's fault plan: an explicit `--faults SPEC` wins,
/// otherwise the `GAT_FAULTS` environment variable, otherwise fault-free.
pub fn fault_plan_from(cli_spec: Option<&str>) -> Result<FaultPlan, CliError> {
    if let Some(spec) = cli_spec {
        return FaultPlan::parse(spec).map_err(|e| CliError::Config(format!("--faults: {e}")));
    }
    FaultPlan::from_env()
        .map(|opt| opt.unwrap_or_default())
        .map_err(|e| CliError::Config(format!("GAT_FAULTS: {e}")))
}

/// `runsim`'s command line as a job spec. Starting from
/// [`JobSpec::base`], every flag but `--json` sets the spec key of the
/// same name (`--gpu-ways N` is `"gpu_ways": N`, a switch is `true`),
/// and `GAT_FAULTS` stands in for an absent `--faults`. Names are checked
/// when the spec is resolved.
pub fn runsim_spec(args: &Args) -> Result<JobSpec, CliError> {
    let mut spec = JobSpec::base("runsim");
    spec.faults = gat_sim::knobs::faults_spec().unwrap_or_default();
    let mut set = |flag: &str, value: JsonValue| {
        let key = flag.trim_start_matches("--").replace('-', "_");
        apply_field(&mut spec, &key, &value).map_err(|e| CliError::Usage(format!("{flag}: {e}")))
    };
    // Reversed so that, as with `Args::get`, a repeated flag's first value wins.
    for (flag, v) in args.values.iter().rev() {
        match flag.as_str() {
            "--json" => {}
            "--game" | "--cpus" | "--sched" | "--qos" | "--fill" | "--faults" => {
                set(flag, JsonValue::Str(v.clone()))?;
            }
            _ => set(flag, JsonValue::Num(v.clone()))?,
        }
    }
    for switch in &args.switches {
        set(switch, JsonValue::Bool(true))?;
    }
    Ok(spec)
}

impl From<SpecError> for CliError {
    fn from(e: SpecError) -> Self {
        CliError::Config(e.detail)
    }
}

/// Regenerate one figure as structured [`Table`]s. Both the text and the
/// JSONL output of the `figures` binary derive from this single run.
///
/// # Panics
/// Panics on an unknown figure id.
pub fn figure_tables(id: &str, cfg: &ExpConfig) -> Vec<Table> {
    figure_run(id, cfg).0
}

/// Like [`figure_tables`], plus the CPU cycles the figure's runs
/// simulated (warm-up included), for throughput accounting.
///
/// # Panics
/// Panics on an unknown figure id.
pub fn figure_run(id: &str, cfg: &ExpConfig) -> (Vec<Table>, u64) {
    match id {
        "fig1" => {
            let m = experiments::motivation(cfg);
            (vec![m.fig1_table()], m.sim_cycles)
        }
        "fig2" => {
            let m = experiments::motivation(cfg);
            (vec![m.fig2_table()], m.sim_cycles)
        }
        "fig1+2" | "motivation" => {
            let m = experiments::motivation(cfg);
            (vec![m.fig1_table(), m.fig2_table()], m.sim_cycles)
        }
        "fig3" => {
            let f = experiments::fig3(cfg);
            (vec![f.table()], f.sim_cycles)
        }
        "fig8" => {
            let f = experiments::fig8(cfg);
            (vec![f.table()], f.sim_cycles)
        }
        "fig9" => {
            let e = experiments::throttle_eval(cfg);
            (vec![e.fig9_fps_table(), e.fig9_ws_table()], e.sim_cycles)
        }
        "fig9+10+11" | "throttle" => {
            let e = experiments::throttle_eval(cfg);
            let tables = vec![
                e.fig9_fps_table(),
                e.fig9_ws_table(),
                e.fig10_table(),
                e.fig11_table(),
            ];
            (tables, e.sim_cycles)
        }
        "fig10" => {
            let e = experiments::throttle_eval(cfg);
            (vec![e.fig10_table()], e.sim_cycles)
        }
        "fig11" => {
            let e = experiments::throttle_eval(cfg);
            (vec![e.fig11_table()], e.sim_cycles)
        }
        "fig12" => {
            let c = experiments::comparison(cfg, true);
            (vec![c.fps_table(), c.ws_table()], c.sim_cycles)
        }
        "fig13" => {
            let c = experiments::comparison(cfg, false);
            (vec![c.fps_table(), c.ws_table()], c.sim_cycles)
        }
        "fig13+14" => {
            let c = experiments::comparison(cfg, false);
            (
                vec![c.fps_table(), c.ws_table(), c.fig14_table()],
                c.sim_cycles,
            )
        }
        "fig14" => {
            let c = experiments::comparison(cfg, false);
            (vec![c.fig14_table()], c.sim_cycles)
        }
        other => panic!("unknown figure id {other:?}; known: {FIGURES:?}"),
    }
}

/// Render a figure's tables as text, separated by blank lines (each
/// [`Table::render`] already ends in a newline).
pub fn render_tables(tables: &[Table]) -> String {
    tables
        .iter()
        .map(Table::render)
        .collect::<Vec<_>>()
        .join("\n")
}

/// Render a figure's tables as JSONL: one `{"type":"table",...}` object
/// per line, trailing newline included.
pub fn tables_jsonl(tables: &[Table]) -> String {
    let mut out = String::new();
    for t in tables {
        out.push_str(&t.to_json());
        out.push('\n');
    }
    out
}

/// Regenerate one figure; returns the rendered table(s).
///
/// # Panics
/// Panics on an unknown figure id.
pub fn run_figure(id: &str, cfg: &ExpConfig) -> String {
    render_tables(&figure_tables(id, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "unknown figure id")]
    fn unknown_figure_panics() {
        let _ = run_figure("fig99", &ExpConfig::smoke());
    }

    #[test]
    fn figure_list_is_complete() {
        assert_eq!(FIGURES.len(), 10);
        assert!(FIGURES.contains(&"fig14"));
        assert!(is_known_figure("fig9+10+11"));
        assert!(!is_known_figure("fig99"));
    }

    #[test]
    fn cli_errors_map_to_stable_exit_codes() {
        assert_eq!(CliError::Usage("x".into()).exit_code(), 2);
        assert_eq!(CliError::Config("x".into()).exit_code(), 2);
        assert_eq!(CliError::Io("x".into()).exit_code(), 1);
        let sim = CliError::from(SimError::MaxCycles {
            cycle: 10,
            limit: 10,
        });
        assert_eq!(sim.exit_code(), 3);
        assert!(sim.to_string().contains("simulation failed"));
        let gate = CliError::Gate("fig8 regressed".into());
        assert_eq!(gate.exit_code(), 3);
        assert!(gate.to_string().contains("performance gate"));
    }

    fn parse(words: &[&str], valued: &str, switches: &str) -> Result<Args, CliError> {
        Args::parse(words.iter().map(|w| w.to_string()), valued, switches)
    }

    fn usage_message(r: Result<Args, CliError>) -> String {
        match r {
            Err(CliError::Usage(m)) => m,
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn args_reject_an_unknown_flag() {
        let m = usage_message(parse(&["--sceduler", "bogus"], "--sched", ""));
        assert!(m.contains("unknown flag \"--sceduler\""), "{m}");
    }

    #[test]
    fn args_tell_switches_from_valued_flags() {
        let words = ["fig9", "--llc-lru", "--scale", "64", "--cpus", ""];
        let a = parse(&words, "--scale --cpus", "--llc-lru --quick").unwrap();
        assert!(a.has("--llc-lru") && !a.has("--quick"));
        assert_eq!((a.get("--scale"), a.get("--cpus")), (Some("64"), Some("")));
        assert_eq!(a.positional(), ["fig9"]);
        assert_eq!(
            (
                a.num("--scale", 1u32).unwrap(),
                a.num("--frames", 4u32).unwrap()
            ),
            (64, 4)
        );
        // A switch never swallows the next word.
        assert_eq!(
            parse(&["--llc-lru", "7"], "", "--llc-lru")
                .unwrap()
                .positional(),
            ["7"]
        );
    }

    #[test]
    fn args_reject_a_missing_value() {
        let m = usage_message(parse(&["--scale", "64", "--json"], "--scale --json", ""));
        assert!(m.contains("--json needs a value"), "{m}");
        let a = parse(&["--scale", "lots"], "--scale", "").unwrap();
        assert!(matches!(a.num("--scale", 1u32), Err(CliError::Usage(_))));
    }

    #[test]
    fn fault_plan_resolution_prefers_the_cli_spec() {
        let p = fault_plan_from(Some("dram.bounce=0.5")).unwrap();
        assert_eq!(p.dram.bounce, 0.5);
        assert!(matches!(
            fault_plan_from(Some("bogus=1")),
            Err(CliError::Config(_))
        ));
        // No spec anywhere: fault-free.
        assert!(
            fault_plan_from(None).map(|p| p.is_none()).unwrap_or(false)
                || std::env::var("GAT_FAULTS").is_ok()
        );
    }

    #[test]
    fn tables_jsonl_is_one_object_per_line() {
        let mut t = Table::new("t", &["w", "x"]);
        t.row_f("a", &[1.0]);
        let jsonl = tables_jsonl(&[t.clone(), t]);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            gat_sim::json::validate_json_line(line).unwrap();
        }
        assert!(jsonl.ends_with('\n'));
    }
}
