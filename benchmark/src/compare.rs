//! `gat-benchmark compare PARENT.jsonl CHANGE.jsonl`: paired comparison of
//! two sets of runs.
//!
//! Each file holds what `gat-benchmark run` printed: a `bench_run` line
//! naming the workload, then that run's result line. The i-th run of a
//! workload in one file is paired with the i-th run of it in the other,
//! so alternate the two commits when collecting them.
//!
//! Verdicts, per workload and metric:
//! * `gain`: at least 10 pairs, the change wins at least 9 in 10 of them
//!   (ties count for neither side), and the medians differ by more than
//!   the parent's interquartile range;
//! * `unresolved`: the spread (interquartile range over median, the wider
//!   of the two sides) exceeds the metric's bound, unless every change run
//!   beats every parent run;
//! * `regression`: the change's median is worse than the parent's by more
//!   than the bound;
//! * `loss`: a per-layer metric (no bound) that meets the gain rule the
//!   other way round;
//! * `same` otherwise.

use crate::catalog::{find, Better};
use crate::stats::{median, quartiles};
use gat_sim::json::{parse_json_value, JsonValue};
use std::collections::BTreeMap;

/// Runs per workload, each a map of metric name to value.
pub type Runs = BTreeMap<String, Vec<BTreeMap<String, f64>>>;

/// Read the runs of one file.
pub fn parse_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let mut workload: Option<String> = None;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if !line.starts_with('{') {
            continue;
        }
        let v = parse_json_value(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if v.get("type").and_then(JsonValue::as_str) == Some("bench_run") {
            workload = v
                .get("workload")
                .and_then(JsonValue::as_str)
                .map(String::from);
            continue;
        }
        let Some(JsonValue::Obj(metrics)) = v.get("metrics") else {
            continue;
        };
        let name = workload
            .take()
            .ok_or_else(|| format!("line {}: result without a bench_run line", i + 1))?;
        let values = metrics
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect();
        runs.entry(name).or_default().push(values);
    }
    Ok(runs)
}

/// One metric on one workload.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub parent: Summary,
    pub change: Summary,
    pub pairs: usize,
    pub wins: usize,
    pub losses: usize,
    pub verdict: &'static str,
}

#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

fn summarize(v: &[f64]) -> Summary {
    let m = median(v);
    let (q1, q3) = if v.len() >= 2 { quartiles(v) } else { (m, m) };
    Summary { median: m, q1, q3 }
}

/// Classify one metric from its paired values.
pub fn verdict(
    better: Better,
    bound: Option<f64>,
    parent: &[f64],
    change: &[f64],
) -> (&'static str, usize, usize) {
    // Orient every value so that larger is better.
    let sign = if better == Better::Higher { 1.0 } else { -1.0 };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs)
        .filter(|&i| sign * change[i] > sign * parent[i])
        .count();
    let losses = (0..pairs)
        .filter(|&i| sign * change[i] < sign * parent[i])
        .count();
    let (p, c) = (summarize(parent), summarize(change));
    let gap = sign * (c.median - p.median);
    let parent_iqr = p.q3 - p.q1;
    let rel_spread = |s: Summary| {
        if s.median == 0.0 {
            0.0
        } else {
            (s.q3 - s.q1) / s.median.abs()
        }
    };
    let spread = rel_spread(p).max(rel_spread(c));
    let all_better = change
        .iter()
        .all(|&x| parent.iter().all(|&y| sign * x > sign * y));
    let decisive = |n: usize| pairs >= 10 && n * 10 >= pairs * 9;
    let v = if decisive(wins) && gap > parent_iqr {
        "gain"
    } else if let Some(b) = bound {
        if spread > b && !all_better {
            "unresolved"
        } else if -gap > b * p.median.abs() {
            "regression"
        } else {
            "same"
        }
    } else if decisive(losses) && -gap > parent_iqr {
        "loss"
    } else {
        "same"
    };
    (v, wins, losses)
}

pub fn compare(parent: &Runs, change: &Runs) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, p_runs) in parent {
        let Some(c_runs) = change.get(workload) else {
            continue;
        };
        let mut names: Vec<&String> = p_runs.iter().flat_map(|r| r.keys()).collect();
        names.sort();
        names.dedup();
        for name in names {
            let Some(m) = find(name) else {
                continue;
            };
            let values = |runs: &[BTreeMap<String, f64>]| -> Vec<f64> {
                runs.iter().filter_map(|r| r.get(name).copied()).collect()
            };
            let (pv, cv) = (values(p_runs), values(c_runs));
            if pv.is_empty() || cv.is_empty() {
                continue;
            }
            let (verdict, wins, losses) = verdict(m.better, m.bound, &pv, &cv);
            rows.push(Row {
                workload: workload.clone(),
                metric: name.clone(),
                parent: summarize(&pv),
                change: summarize(&cv),
                pairs: pv.len().min(cv.len()),
                wins,
                losses,
                verdict,
            });
        }
    }
    rows
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<11} {:<29} {:>36} {:>36} {:>9} {}\n",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "won", "verdict"
    );
    let cell = |s: Summary| format!("{:.5e} [{:.3e}, {:.3e}]", s.median, s.q1, s.q3);
    for r in rows {
        out.push_str(&format!(
            "{:<11} {:<29} {:>36} {:>36} {:>9} {}\n",
            r.workload,
            r.metric,
            cell(r.parent),
            cell(r.change),
            format!("{}/{}", r.wins, r.pairs),
            r.verdict
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_pair_and_spread_rules() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let faster: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        assert_eq!(
            verdict(Better::Higher, Some(0.1), &parent, &faster).0,
            "gain"
        );
        let slower: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        assert_eq!(
            verdict(Better::Higher, Some(0.1), &parent, &slower).0,
            "regression"
        );
        assert_eq!(verdict(Better::Higher, None, &parent, &slower).0, "loss");
        assert_eq!(
            verdict(Better::Higher, Some(0.1), &parent, &parent).0,
            "same"
        );
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 50.0 } else { 150.0 })
            .collect();
        assert_eq!(
            verdict(Better::Higher, Some(0.1), &parent, &noisy).0,
            "unresolved"
        );
        // Lower-is-better metrics flip the orientation.
        assert_eq!(
            verdict(Better::Lower, Some(0.1), &parent, &slower).0,
            "gain"
        );
    }

    #[test]
    fn runs_are_keyed_by_the_preceding_bench_run_line() {
        let text = "{\"type\":\"bench_run\",\"workload\":\"serve\",\"seed\":1}\n\
                    {\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"jobs_per_s\":{\"value\":2.5,\"unit\":\"jobs/s\"}}}\n";
        let runs = parse_runs(text).unwrap();
        assert_eq!(runs["serve"][0]["jobs_per_s"], 2.5);
        assert!(parse_runs("{\"correct\":true,\"metrics\":{}}").is_err());
    }
}
