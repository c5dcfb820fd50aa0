//! Every workload at its shrunken size, in a debug build: each must report
//! every metric `BENCHMARK.json` names, finite and non-negative, with no
//! failed round. (That a wrong digest or a panic counts as a failed round is
//! tested beside the harness, on a fake workload.)

use painter_obs::json::{self, JsonValue};
use painter_perf::harness::{RunOptions, END_TO_END, PER_LAYER};
use painter_perf::{run_workload, Size, WORKLOADS};

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid json")
}

fn names(doc: &JsonValue, key: &str) -> Vec<String> {
    let list = doc.get(key).and_then(JsonValue::as_array).expect(key);
    list.iter()
        .map(|e| e.get("name").and_then(JsonValue::as_str).expect("name").to_string())
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_names_what_the_code_reports() {
    let doc = benchmark_json();
    assert_eq!(names(&doc, "workloads"), WORKLOADS);
    assert_eq!(names(&doc, "per_layer"), PER_LAYER.map(|(n, _)| n));
    assert_eq!(names(&doc, "end_to_end"), END_TO_END.map(|(n, ..)| n));
    for (entry, (name, unit, better, bound)) in doc
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .expect("end_to_end")
        .iter()
        .zip(END_TO_END)
    {
        assert_eq!(entry.get("unit").and_then(JsonValue::as_str), Some(unit), "{name}");
        assert_eq!(entry.get("better").and_then(JsonValue::as_str), Some(better), "{name}");
        assert_eq!(entry.get("bound").and_then(JsonValue::as_f64), Some(bound), "{name}");
    }
    for name in names(&doc, "workloads").iter().chain(&names(&doc, "per_layer")) {
        assert!(well_formed(name), "{name}");
    }
    assert_eq!(doc.get("paths").and_then(JsonValue::as_array).map(<[_]>::len), Some(1));
}

#[test]
fn every_workload_reports_every_metric_at_smoke_size() {
    let opts = RunOptions { seed: 1, seconds: 0.3, trace: true };
    for name in WORKLOADS {
        let report = run_workload(name, Size::Smoke, &opts).expect("known workload");
        assert_eq!(report.failed, 0, "{name}: {:?}", report.failures);
        assert!(report.attempted >= 3, "{name}: warm-up, a timed and a traced round");
        assert_eq!(report.end_to_end.len(), END_TO_END.len(), "{name}");
        assert_eq!(report.per_layer.len(), PER_LAYER.len(), "{name}");
        for m in report.end_to_end.iter().chain(&report.per_layer) {
            assert!(m.value.is_finite() && m.value >= 0.0, "{name} {} = {}", m.name, m.value);
            assert!(well_formed(m.name), "{}", m.name);
        }
        for m in &report.end_to_end {
            assert!(m.value > 0.0, "{name} {} must never read 0", m.name);
        }
        let quality = report.end_to_end.iter().find(|m| m.name == "quality").expect("quality");
        assert!(quality.value <= 1.0, "{name} quality {}", quality.value);
        let trace =
            json::parse(report.chrome_trace.as_deref().expect("trace")).expect("trace json");
        let spans = trace.get("traceEvents").and_then(JsonValue::as_array).expect("events");
        assert!(spans.iter().any(|s| s.get("name").and_then(JsonValue::as_str) == Some("round")));

        let again =
            run_workload(name, Size::Smoke, &RunOptions { trace: false, ..opts }).expect("known");
        assert_eq!(again.digest, report.digest, "{name}: same seed, same digest");
        assert!(again.per_layer.is_empty(), "{name}: untraced runs report end-to-end only");
    }
}

#[test]
fn unknown_workload_is_refused() {
    let opts = RunOptions { seed: 1, seconds: 0.1, trace: false };
    assert!(run_workload("plan-hot", Size::Smoke, &opts).is_none());
}
