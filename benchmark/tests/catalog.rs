//! BENCHMARK.json and the benchmark's own metric catalog and workload list
//! say the same thing.

use gat_benchmark::catalog::{is_valid_name, render_list, END_TO_END, PER_LAYER};
use gat_benchmark::measure::RUN_SECONDS;
use gat_benchmark::workloads::Workload;
use gat_sim::json::{parse_json_value, JsonValue};

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    parse_json_value(&text).unwrap()
}

fn list<'a>(v: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    match v.get(key) {
        Some(JsonValue::Arr(items)) => items,
        other => panic!("BENCHMARK.json {key}: {other:?}"),
    }
}

fn text<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("missing {key} in {v:?}"))
}

#[test]
fn metrics_match_the_catalog() {
    let b = benchmark_json();
    let e2e = list(&b, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (j, m) in e2e.iter().zip(END_TO_END) {
        assert_eq!(text(j, "name"), m.name);
        assert_eq!(text(j, "unit"), m.unit, "{}", m.name);
        assert_eq!(text(j, "better"), m.better.as_str(), "{}", m.name);
        assert_eq!(
            j.get("bound").and_then(JsonValue::as_f64),
            m.bound,
            "{}",
            m.name
        );
    }
    let layers = list(&b, "per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (j, m) in layers.iter().zip(PER_LAYER) {
        assert_eq!(text(j, "name"), m.name);
        assert_eq!(text(j, "unit"), m.unit, "{}", m.name);
        assert_eq!(text(j, "better"), m.better.as_str(), "{}", m.name);
        assert!(m.bound.is_none(), "{} is per-layer: no bound", m.name);
    }
}

#[test]
fn workloads_and_run_length_match() {
    let b = benchmark_json();
    let listed: Vec<(&str, &str)> = list(&b, "workloads")
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    let ours: Vec<(&str, &str)> = Workload::ALL.iter().map(|w| (w.name(), w.why())).collect();
    assert_eq!(listed, ours);
    assert_eq!(
        b.get("run_seconds").and_then(JsonValue::as_u64),
        Some(RUN_SECONDS)
    );
}

#[test]
fn names_are_well_formed_and_unique() {
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|m| m.name)
        .chain(Workload::ALL.iter().map(|w| w.name()))
        .collect();
    for n in &names {
        assert!(is_valid_name(n), "{n}");
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
    let table = render_list();
    for name in &names {
        assert!(table.contains(name), "list omits {name}");
    }
    // Every end-to-end metric is bounded, setup_s most loosely.
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    for m in END_TO_END {
        let b = m.bound.unwrap();
        assert!(b > 0.0 && b <= setup.bound.unwrap(), "{}", m.name);
    }
}
