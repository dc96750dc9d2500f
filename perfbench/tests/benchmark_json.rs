//! `BENCHMARK.json` at the repository root declares what the benchmark
//! emits: its names must be well formed and match the catalogue in
//! `report.rs` and the workloads in `workload.rs`.

use mate_obs::json::{parse, JsonValue};
use mate_perfbench::report::{END_TO_END, PER_LAYER};
use mate_perfbench::workload::Workload;

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(json: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    json.get(key)
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| panic!("{key} is a list"))
}

fn str_of<'a>(entry: &'a JsonValue, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("{key} is a string"))
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_name_is_well_formed_and_used_once() {
    let json = benchmark_json();
    let mut seen = Vec::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for entry in list(&json, key) {
            let name = str_of(entry, "name");
            assert!(well_formed(name), "{key}: bad name {name:?}");
            assert!(!seen.contains(&name), "{name} used twice");
            seen.push(name);
        }
    }
}

#[test]
fn declared_metrics_match_the_catalogue() {
    let json = benchmark_json();
    for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let declared: Vec<(&str, &str)> = list(&json, key)
            .iter()
            .map(|m| (str_of(m, "name"), str_of(m, "unit")))
            .collect();
        assert_eq!(declared, catalogue.to_vec(), "{key}");
    }
    for m in list(&json, "end_to_end") {
        let bound = m.get("bound").and_then(JsonValue::as_f64).expect("bound");
        assert!(
            bound > 0.0 && bound <= 0.25,
            "{}: bound {bound}",
            str_of(m, "name")
        );
    }
    let setup = list(&json, "end_to_end")
        .iter()
        .find(|m| str_of(m, "name") == "setup_s")
        .expect("setup_s is declared");
    assert_eq!(
        (str_of(setup, "unit"), str_of(setup, "better")),
        ("s", "lower")
    );
}

#[test]
fn declared_workloads_are_the_ones_the_benchmark_runs() {
    let json = benchmark_json();
    let declared: Vec<&str> = list(&json, "workloads")
        .iter()
        .map(|w| str_of(w, "name"))
        .collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared, known);
}
