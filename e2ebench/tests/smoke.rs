//! Each workload at a tiny size, untraced and traced: the run exits 0,
//! prints every metric `BENCHMARK.json` names, with its unit, on the last
//! line, passes its output checks (including the bit-exact stage replay)
//! and fails no operation.

use bluefi_core::json::Json;
use std::process::Command;

/// `(name, unit)` of every metric in `BENCHMARK.json`'s `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn check(workload: &str, trace: &str, section: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_bluefi-e2ebench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{workload} trace {trace}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let j = Json::parse(stdout.lines().last().expect("a result line")).expect("last line is JSON");
    assert_eq!(
        j.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: {stdout}"
    );
    assert_eq!(
        j.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{workload}: failed_ratio must be 0"
    );
    assert!(j.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
    let metrics = j.get("metrics").expect("metrics object");
    for (name, unit) in declared(section) {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{workload} trace {trace}: metric {name} missing"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{workload}: unit of {name}"
        );
        let v = m
            .get("value")
            .and_then(Json::as_f64)
            .expect("numeric value");
        assert!(v.is_finite(), "{workload}: {name} = {v}");
    }
    stdout
}

fn smoke(workload: &str) {
    let out = check(workload, "0", "end_to_end");
    assert!(out.contains("failed_ratio = 0 "), "{out}");
    let traced = check(workload, "1", "per_layer");
    assert!(
        traced.contains("bit-exact against the pipeline"),
        "{traced}"
    );
}

#[test]
fn fleet_daemon_smoke() {
    smoke("fleet_daemon");
}

#[test]
fn a2dp_stream_smoke() {
    smoke("a2dp_stream");
}

#[test]
fn cold_batch_smoke() {
    smoke("cold_batch");
}
