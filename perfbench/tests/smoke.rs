//! Smoke test of the benchmark itself: every workload at a tiny size, in
//! both modes, prints every metric `BENCHMARK.json` lists with its unit,
//! verifies its outputs and fails no operation.

use std::path::Path;
use std::process::Command;

/// `(name, unit)` of every entry of one metric list of `BENCHMARK.json`,
/// or the names of its workloads (unit empty).
fn listed(doc: &str, section: &str) -> Vec<(String, String)> {
    let start = doc
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &doc[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |entry: &str, key: &str| -> String {
        let tag = format!("\"{key}\": \"");
        entry.find(&tag).map_or(String::new(), |i| {
            let rest = &entry[i + tag.len()..];
            rest[..rest.find('"').expect("string closes")].to_string()
        })
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

/// The value printed for `name` with `unit` in the result line.
fn value(line: &str, name: &str, unit: &str) -> Option<f64> {
    let tag = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&tag)? + tag.len()..];
    let (num, rest) = rest.split_once(", \"unit\": \"")?;
    rest.starts_with(&format!("{unit}\"}}"))
        .then(|| num.parse().ok())?
}

#[test]
fn every_workload_prints_every_metric() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(manifest.join("../BENCHMARK.json")).expect("BENCHMARK.json");
    let workloads = listed(&doc, "workloads");
    let end_to_end = listed(&doc, "end_to_end");
    let per_layer = listed(&doc, "per_layer");
    assert_eq!(workloads.len(), 4);
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));

    let trace_out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-trace.json");
    for (workload, _) in &workloads {
        for (trace, metrics) in [("0", &end_to_end), ("1", &per_layer)] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "0.2"])
                .args(["--trace", trace, "--size", "tiny", "--trace-out"])
                .arg(&trace_out)
                .output()
                .expect("run the benchmark");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{workload} --trace {trace}: {stderr}");
            let line = stdout.lines().last().expect("a result line");
            assert!(
                line.starts_with("{\"correct\": true, ") && line.contains("\"failed\": 0, "),
                "{workload} --trace {trace}: {line}\n{stderr}"
            );
            for (name, unit) in metrics.iter() {
                let v = value(line, name, unit)
                    .unwrap_or_else(|| panic!("{workload}: no {name} in {unit}: {line}"));
                if trace == "0" {
                    assert!(v > 0.0, "{workload}: {name} = {v}");
                }
            }
            if trace == "1" {
                assert_eq!(value(line, "failed_ratio", "ratio"), Some(0.0));
                let spans = std::fs::read_to_string(&trace_out).expect("trace written");
                for span in ["\"pass\"", "\"run\"", "\"verify\"", "\"self_us\""] {
                    let span = if workload == "serve-mixed" && span == "\"run\"" {
                        "\"request:delete\""
                    } else {
                        span
                    };
                    assert!(spans.contains(span), "{workload}: no {span} span");
                }
            }
        }
    }
}
