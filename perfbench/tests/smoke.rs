//! Every workload at a tiny size: no failed or wrong answer, every
//! metric `BENCHMARK.json` names is reported, and the virtual window
//! repeats byte for byte for a seed.

use std::path::PathBuf;

use perfbench::{run, Config, Outcome, Workload};

fn tiny(workload: Workload, seed: u64, trace: bool, test: &str) -> Config {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    let mut cfg = Config::new(workload, seed, 0.2, trace);
    cfg.keys = 2_000;
    cfg.window_ops = if workload.clients() > 1 { 0 } else { 20_000 };
    cfg.setups = 1;
    cfg.work_dir = scratch.join("data");
    cfg.trace_dir = scratch.join("traces");
    cfg
}

fn run_ok(cfg: &Config) -> Outcome {
    let out = run(cfg).expect("run completes");
    assert_eq!(
        out.failed,
        0,
        "{}: first failure: {:?}",
        cfg.workload.name(),
        out.first_error
    );
    assert!(out.attempted > 0);
    out
}

/// Metric names listed under `key` in the repository's BENCHMARK.json.
fn listed(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{key}\"")).expect("section present");
    let section = &text[start..];
    let section = &section[..section.find(']').expect("section closes")];
    section
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn assert_reports_all(out: &Outcome, key: &str) {
    for name in listed(key) {
        let value = out.metrics.get(&name);
        assert!(value.is_some(), "{key} metric {name} missing");
    }
}

fn clean(workload: Workload, test: &str) {
    let out = run_ok(&tiny(workload, 7, false, test));
    assert_reports_all(&out, "end_to_end");
    // Latencies are reported for exactly the op kinds in the mix.
    let has_scans = workload.mix()[2] > 0;
    assert_eq!(out.metrics.get("scan_p99_us").is_some(), has_scans);
    for m in &out.metrics.0 {
        assert!(
            m.value > 0.0,
            "{}: {} is {}",
            workload.name(),
            m.name,
            m.value
        );
    }
}

#[test]
fn readmostly_runs_clean() {
    clean(Workload::ReadMostly, "readmostly_runs_clean");
}

#[test]
fn write_durable_runs_clean() {
    clean(Workload::WriteDurable, "write_durable_runs_clean");
}

#[test]
fn scan_mixed_runs_clean() {
    clean(Workload::ScanMixed, "scan_mixed_runs_clean");
}

#[test]
fn wire_mixed_runs_clean() {
    clean(Workload::WireMixed, "wire_mixed_runs_clean");
}

#[test]
fn benchmark_json_names_only_known_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let section = &text[text.find("\"workloads\"").expect("workloads")..];
    let section = &section[..section.find(']').expect("list closes")];
    let names: Vec<&str> = section
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name"))
        .collect();
    assert!(names.len() >= 2);
    for name in names {
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }
}

#[test]
fn traced_runs_report_every_layer_metric_and_a_trace() {
    for workload in [Workload::WriteDurable, Workload::WireMixed] {
        let cfg = tiny(workload, 7, true, "traced_runs");
        let out = run_ok(&cfg);
        assert_reports_all(&out, "per_layer");
        assert_eq!(out.metrics.get("trace.span_violations"), Some(0.0));
        let trace = std::fs::read_to_string(out.trace_file.expect("trace written"))
            .expect("trace readable");
        assert!(trace.starts_with("{\"displayTimeUnit\""));
        assert!(
            trace.contains("\"cat\": \"stage\""),
            "engine stages in the trace"
        );
    }
}

#[test]
fn virtual_window_repeats_for_a_seed() {
    for workload in [
        Workload::ReadMostly,
        Workload::WriteDurable,
        Workload::ScanMixed,
    ] {
        // Two set-ups, so the first one's reopen round runs too.
        let twice = |test| Config {
            setups: 2,
            ..tiny(workload, 11, false, test)
        };
        let first = run(&twice("repeat_a")).expect("run");
        let second = run(&twice("repeat_b")).expect("run");
        assert!(
            first.fingerprint.starts_with("ops=20000 "),
            "{}",
            first.fingerprint
        );
        assert_eq!(first.fingerprint, second.fingerprint, "{}", workload.name());
        for name in ["virt_ops_s", "write_amp", "space_amp"] {
            let (a, b) = (first.metrics.get(name), second.metrics.get(name));
            assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits), "{name}");
        }
    }
    // Tracing observes the engine's clock and never charges it.
    let plain = run(&tiny(Workload::ReadMostly, 11, false, "repeat_c")).expect("run");
    let traced = run(&tiny(Workload::ReadMostly, 11, true, "repeat_d")).expect("run");
    assert_eq!(plain.fingerprint, traced.fingerprint);
}
