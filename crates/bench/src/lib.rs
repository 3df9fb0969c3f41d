//! `gat-bench` — figure regeneration and the command-line binaries.
//!
//! [`drivers`] holds one driver per paper figure: the gat-serve job specs
//! the figure needs and a pure fold from their results to its tables.
//! [`drivers::figure`] dispatches on figure ids, and the `figures` binary
//! wraps it in a CLI that runs the distinct jobs of every requested
//! figure as one batch:
//!
//! ```text
//! cargo run --release -p gat-bench --bin figures -- all
//! cargo run --release -p gat-bench --bin figures -- fig9 --scale 64 --frames 5
//! ```
//!
//! The other binaries (`runsim`, `timeline`, `calibrate`, `ablate`,
//! `gat-serve` and the `hotbench` CI perf gate) share [`Args`] and
//! [`CliError`]. Every simulation CLI is a front end for
//! `gat_serve::JobSpec`: [`spec_from_flags`], [`fault_spec`],
//! [`mix_arg`] and [`with_mix`] fill the spec from their shared flags,
//! and each run goes through `JobSpec::resolve`. Performance is measured
//! by the repository benchmark (`benchmark/README.md`), not here.

pub mod drivers;

use gat_hetero::report::Table;
use gat_hetero::SimError;
use gat_serve::spec::{apply_field, SpecError};
use gat_serve::JobSpec;
use gat_sim::json::JsonValue;
use gat_workloads::{mix_m, Mix};

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
    /// A simulation aborted (liveness watchdog, paranoia invariant
    /// check, cycle-limit overrun), or a batch job ended in an outcome
    /// other than `ok`/`degraded`: exit 3.
    Sim(String),
    /// The performance gate tripped (`hotbench`: cycles/s below the
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
        CliError::Sim(e.to_string())
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
    /// it, or with a `--word` after it, is missing its value: both are
    /// [`CliError::Usage`]. An empty value (`--cpus ""`) is a value.
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
                    .filter(|v| !v.starts_with("--"))
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

    /// For a binary that takes flags only: a stray word is a usage error.
    pub fn reject_positional(&self) -> Result<(), CliError> {
        match self.positional.first() {
            Some(word) => Err(CliError::Usage(format!("unexpected argument {word:?}"))),
            None => Ok(()),
        }
    }

    /// A numeric flag's value, or `default` when absent.
    pub fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, CliError> {
        self.get(flag).map_or(Ok(default), |v| parse_num(flag, v))
    }
}

/// The run's fault-plan spec string: an explicit `--faults SPEC` wins,
/// otherwise the `GAT_FAULTS` environment variable, otherwise empty
/// (fault-free). The one place either source is read.
pub fn fault_spec(args: &Args) -> String {
    match args.get("--faults") {
        Some(spec) => spec.to_string(),
        None => gat_sim::knobs::faults_spec().unwrap_or_default(),
    }
}

/// The Table III mix named by the first positional word (`1..=14`,
/// default 7), for the binaries that study one mix.
pub fn mix_arg(args: &Args) -> Result<Mix, CliError> {
    let k: usize = match args.positional().first() {
        Some(s) => parse_num("mix-number", s)?,
        None => 7,
    };
    if !(1..=14).contains(&k) {
        return Err(CliError::Usage(format!(
            "mix-number must be 1..=14, got {k}"
        )));
    }
    Ok(mix_m(k))
}

/// `spec` running `mix`: its game and its CPU apps' SPEC ids.
pub fn with_mix(spec: JobSpec, mix: &Mix) -> JobSpec {
    JobSpec {
        game: Some(mix.game.name.to_string()),
        cpus: mix.cpu.iter().map(|p| p.spec_id).collect(),
        ..spec
    }
}

/// `runsim`'s command line as a job spec: [`spec_from_flags`] over
/// [`JobSpec::base`]. A positional word is a usage error.
pub fn runsim_spec(args: &Args) -> Result<JobSpec, CliError> {
    args.reject_positional()?;
    spec_from_flags(JobSpec::base("runsim"), args, &["--json"])
}

/// `spec` with the command line applied: every valued flag but the
/// binary's `own` ones sets the spec key of the same name (`--gpu-ways N`
/// is `"gpu_ways": N`), a switch sets its key to `true`, and the faults
/// come from [`fault_spec`]. Names are checked when the spec is resolved.
pub fn spec_from_flags(mut spec: JobSpec, args: &Args, own: &[&str]) -> Result<JobSpec, CliError> {
    spec.faults = fault_spec(args);
    let mut set = |flag: &str, value: JsonValue| {
        let key = flag.trim_start_matches("--").replace('-', "_");
        apply_field(&mut spec, &key, &value).map_err(|e| CliError::Usage(format!("{flag}: {e}")))
    };
    // Reversed so that, as with `Args::get`, a repeated flag's first value wins.
    for (flag, v) in args.values.iter().rev() {
        match flag.as_str() {
            "--faults" => {}
            f if own.contains(&f) => {}
            "--game" | "--cpus" | "--sched" | "--qos" | "--fill" => {
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

#[cfg(test)]
mod tests {
    use super::*;

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
        // A flag is never taken as the value of the flag before it.
        let words = ["--json", "--game", "DOOM3"];
        let m = usage_message(parse(&words, "--json --game", ""));
        assert!(m.contains("--json needs a value"), "{m}");
        let m = usage_message(parse(&["--scale", "--llc-lru"], "--scale", "--llc-lru"));
        assert!(m.contains("--scale needs a value"), "{m}");
        let a = parse(&["--scale", "lots"], "--scale", "").unwrap();
        assert!(matches!(a.num("--scale", 1u32), Err(CliError::Usage(_))));
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
