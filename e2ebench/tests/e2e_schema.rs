//! `BENCHMARK.json`, the metric tables in `src/metrics.rs` and what the
//! binary prints must name the same things.

use securetf_e2e::json::{self, Json};
use securetf_e2e::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn field<'a>(item: &'a Json, key: &str) -> &'a str {
    item.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {item:?}"))
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_lists_exactly_the_tables() {
    let spec = benchmark_json();
    let Json::Obj(fields) = &spec else {
        panic!("not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let workloads = spec.get("workloads").and_then(Json::as_arr).unwrap();
    let listed: Vec<(&str, &str)> = workloads
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    assert_eq!(listed, WORKLOADS);
    assert!(listed
        .iter()
        .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

    let end_to_end = spec.get("end_to_end").and_then(Json::as_arr).unwrap();
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (item, def) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(
            (
                field(item, "name"),
                field(item, "unit"),
                field(item, "better")
            ),
            (def.name, def.unit, def.better.as_str())
        );
        let bound = item.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", def.name);
    }
    assert_eq!(field(&end_to_end[0], "name"), "setup_s");

    let per_layer = spec.get("per_layer").and_then(Json::as_arr).unwrap();
    assert!(per_layer.len() <= 128);
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (item, def) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(
            (
                field(item, "name"),
                field(item, "unit"),
                field(item, "better")
            ),
            (def.name, def.unit, def.better.as_str())
        );
    }

    let mut seen = BTreeMap::new();
    for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_name(def.name), "bad name {}", def.name);
        assert!(def.unit.len() <= 16, "bad unit {}", def.unit);
        assert!(
            seen.insert(def.name, ()).is_none(),
            "{} listed twice",
            def.name
        );
    }
}

#[test]
fn smoke_run_prints_every_name_once_with_its_unit_and_nothing_fails() {
    let out = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .args(["--smoke", "--seed", "11"])
        .output()
        .expect("e2e runs");
    assert!(
        out.status.success(),
        "e2e --smoke exited with {}",
        out.status
    );
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = text.lines().collect();

    // The table: one row per metric, after the header row.
    let header = lines
        .iter()
        .position(|l| l.starts_with("metric "))
        .expect("table header");
    let rows = &lines[header + 1..lines.len() - 1];
    let defs: Vec<_> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
    assert_eq!(rows.len(), defs.len(), "one row per metric and no other");
    for (row, def) in rows.iter().zip(&defs) {
        let mut cells = row.split_whitespace();
        assert_eq!(cells.next(), Some(def.name));
        assert_eq!(cells.next(), Some(def.unit));
        assert_eq!(
            cells.count(),
            WORKLOADS.len(),
            "{}: one value per workload",
            def.name
        );
    }

    // The last line: every workload, every metric, nothing failed.
    let summary = json::parse(lines[lines.len() - 1]).expect("last line is JSON");
    let workloads = summary.get("workloads").expect("workloads");
    for (name, _) in WORKLOADS {
        let w = workloads
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(
            w.get("correct"),
            Some(&Json::Bool(true)),
            "{name} outputs wrong"
        );
        assert_eq!(
            w.get("fail_ratio").and_then(Json::as_f64),
            Some(0.0),
            "{name} failed ops"
        );
        assert!(w.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let Some(Json::Obj(metrics)) = w.get("metrics") else {
            panic!("{name}: no metrics")
        };
        let mut printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let mut expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
        printed.sort_unstable();
        expected.sort_unstable();
        assert_eq!(printed, expected, "{name}: names printed");
        for def in &END_TO_END {
            let value = w
                .get("metrics")
                .and_then(|m| m.get(def.name))
                .and_then(Json::as_f64);
            assert!(
                value.is_some_and(|v| v > 0.0),
                "{name}: {} must never be 0",
                def.name
            );
        }
    }
}
