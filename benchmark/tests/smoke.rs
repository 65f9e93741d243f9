//! A short run of all seven workloads, untraced and traced: outputs are
//! correct and the metrics emitted are exactly the ones `BENCHMARK.json`
//! names.
//!
//! One test per file on purpose: the workloads read process-wide counters
//! and keep two threads busy, so they must not overlap.

use csds_benchmark::json::Json;
use csds_benchmark::{run_one, suite, workloads::NAMES, RunSpec, END_TO_END, PER_LAYER};

fn names_and_units(list: &Json) -> Vec<(String, String, String)> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_owned();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn owned(table: &[(&str, &str, &str)]) -> Vec<(String, String, String)> {
    table
        .iter()
        .map(|&(n, u, b)| (n.into(), u.into(), b.into()))
        .collect()
}

#[test]
fn every_workload_emits_every_metric_the_manifest_names() {
    let manifest = suite::benchmark_json().expect("BENCHMARK.json");
    let listed: Vec<&str> = manifest
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(listed, NAMES);
    assert_eq!(
        names_and_units(manifest.get("end_to_end").unwrap()),
        owned(&END_TO_END)
    );
    assert_eq!(
        names_and_units(manifest.get("per_layer").unwrap()),
        owned(&PER_LAYER)
    );

    let valid = |name: &str| {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    for (i, name) in NAMES.iter().enumerate() {
        for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let exe = std::path::Path::new(env!("CARGO_BIN_EXE_csds-benchmark"));
            let spec = RunSpec {
                workload: name,
                seed: 7 + i as u64,
                seconds: 0.1,
                trace,
            };
            let out = run_one(exe, spec).expect("runs");
            assert!(out.correct, "{name}: {:?}", out.errors);
            assert!(out.attempted >= 1 && out.failed == 0, "{name}");
            let emitted: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.0, m.2)).collect();
            let wanted: Vec<(&str, &str)> = table.iter().map(|m| (m.0, m.1)).collect();
            assert_eq!(emitted, wanted, "{name} trace={trace}");
            for &(metric, value, _) in &out.metrics {
                assert!(valid(metric), "{metric}");
                assert!(value.is_finite(), "{name}: {metric} = {value}");
                // End-to-end metrics are never 0.
                assert!(trace || value > 0.0, "{name}: {metric} = {value}");
            }
            // The result line is one JSON object with exactly four keys.
            let line = out.to_json().render();
            let doc = Json::parse(&line).expect("result line parses");
            let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert!(!line.contains('\n'));
        }
        let trace_file = csds_benchmark::manifest_dir()
            .join("out")
            .join(format!("{name}.trace.json"));
        let text = std::fs::read_to_string(&trace_file).expect("trace file written");
        let doc = Json::parse(&text).expect("trace file is JSON");
        assert!(
            doc.get("traceEvents").and_then(Json::as_arr).unwrap().len() > 1,
            "{name}"
        );
    }
}
