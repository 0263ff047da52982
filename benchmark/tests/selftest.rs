//! Runs every workload at `--smoke` size, untraced and traced, and holds
//! what is printed against `BENCHMARK.json`; then checks that `compare`
//! passes equal results and rejects a regression beyond a bound.

use pgc_benchmark::json::Json;
use pgc_benchmark::workloads::Workload;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf()
}

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pgc-benchmark"))
        .current_dir(repo_root())
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

fn names(spec: &Json, key: &str) -> Vec<String> {
    spec.get(key)
        .expect("key present")
        .as_array()
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn smoke_prints_every_declared_metric_once_and_nothing_fails() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    let declared: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names(&spec, "workloads"), declared);

    for workload in declared {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = benchmark(&[
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            let context = format!(
                "{workload} --trace {trace}\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(out.status.success(), "{context}");

            let metrics = names(&spec, key);
            for name in &metrics {
                assert!(
                    name.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "bad metric name {name}"
                );
                let printed = stdout
                    .lines()
                    .filter(|line| line.split_whitespace().next() == Some(name))
                    .count();
                assert_eq!(printed, 1, "{name} printed {printed} times: {context}");
            }

            let result = Json::parse(stdout.lines().last().expect("a result line"))
                .unwrap_or_else(|e| panic!("result line: {e}: {context}"));
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{context}");
            assert_eq!(
                result.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{context}"
            );
            assert!(
                result.get("attempted").and_then(Json::as_f64) >= Some(1.0),
                "{context}"
            );
            let reported: Vec<&str> = result
                .get("metrics")
                .expect("metrics")
                .members()
                .iter()
                .map(|(name, _)| name.as_str())
                .collect();
            assert_eq!(reported, metrics, "{context}");
        }
    }
}

#[test]
fn compare_passes_equal_results_and_rejects_a_regression() {
    let result = |events_per_s: f64| {
        format!(
            "{{\"workloads\": {{\"churn_durable\": {{\"end_to_end\": {{\
             \"events_per_s\": {{\"value\": {events_per_s}}}, \
             \"recover_events_per_s\": {{\"value\": 5.0}}, \
             \"replay_events_per_s\": {{\"value\": 7.0}}, \
             \"disk_bytes_per_event\": {{\"value\": 12.0}}, \
             \"peak_rss_mib\": {{\"value\": 100.0}}, \
             \"setup_s\": {{\"value\": 2.0}}}}}}}}}}"
        )
    };
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let (base, slower) = (dir.join("base.json"), dir.join("slower.json"));
    std::fs::write(&base, result(1000.0)).expect("write");
    std::fs::write(&slower, result(500.0)).expect("write");
    let (base, slower) = (
        base.to_str().expect("utf-8"),
        slower.to_str().expect("utf-8"),
    );

    let same = benchmark(&["compare", base, base]);
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stderr)
    );
    let worse = benchmark(&["compare", base, slower]);
    assert!(!worse.status.success());
    assert!(String::from_utf8_lossy(&worse.stdout).contains("OVER"));
    // Faster is not a regression.
    assert!(benchmark(&["compare", slower, base]).status.success());
}
