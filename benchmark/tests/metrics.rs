//! The metrics the benchmark prints are exactly the ones `BENCHMARK.json`
//! lists, and every workload passes its checks at small quotas.

use tla_benchmark::compare::BenchmarkFile;
use tla_benchmark::measure::{measure, traced, Plan};
use tla_benchmark::metrics::{Outcome, END_TO_END, PER_LAYER};
use tla_benchmark::workload::Workload;

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn benchmark_json_lists_the_defined_workloads_and_metrics() {
    let bench = BenchmarkFile::load().expect("BENCHMARK.json parses");
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(bench.workloads, names);
    for (listed, defs) in [
        (&bench.end_to_end, &END_TO_END[..]),
        (&bench.per_layer, &PER_LAYER[..]),
    ] {
        let listed: Vec<_> = listed
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str(), m.better))
            .collect();
        let defined: Vec<_> = defs.iter().map(|d| (d.name, d.unit, d.better)).collect();
        assert_eq!(listed, defined);
    }
    for m in bench.end_to_end.iter().chain(&bench.per_layer) {
        assert!(valid_name(&m.name), "bad metric name {:?}", m.name);
    }
    for m in &bench.end_to_end {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
    }
    assert!(names.iter().all(|n| valid_name(n)));
}

/// A plan at 20k + 20k instructions per thread with the minimum number
/// of timed repetitions.
fn small_plan(w: Workload) -> Plan {
    Plan {
        workload: w,
        cfg: w.config_with(7, 20_000, 20_000),
        setup_cfg: w.config_with(7, 0, 1),
        seconds: 0.0,
    }
}

/// Metric names in the printed `workload metric value unit` lines, which
/// must also be the result line's keys.
fn printed_names(o: &Outcome, w: Workload) -> Vec<String> {
    let names: Vec<String> = o
        .lines()
        .lines()
        .filter(|l| !l.contains("sim.stats_digest"))
        .map(|l| {
            let fields: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(fields[0], w.name(), "{l}");
            assert!(fields[2].parse::<f64>().is_ok_and(f64::is_finite), "{l}");
            fields[1].to_string()
        })
        .collect();
    let json = o.result_json();
    let keys: Vec<String> = match json.get("metrics") {
        Some(tla::telemetry::json::JsonValue::Obj(pairs)) => {
            pairs.iter().map(|(k, _)| k.clone()).collect()
        }
        other => panic!("metrics is not an object: {other:?}"),
    };
    assert_eq!(names, keys);
    names
}

fn check_workload(w: Workload) {
    let bench = BenchmarkFile::load().expect("BENCHMARK.json parses");
    let plan = small_plan(w);
    for (outcome, listed) in [
        (measure(&plan), &bench.end_to_end),
        (traced(&plan), &bench.per_layer),
    ] {
        assert!(outcome.correct(), "{:?}", outcome.checks.problems());
        assert!(outcome.checks.attempted() > 0);
        let expected: Vec<&str> = listed.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(printed_names(&outcome, w), expected);
    }
}

#[test]
fn thrash_8c_prints_every_metric_and_passes_its_checks() {
    check_workload(Workload::Thrash8c);
}

#[test]
fn ccf_warm_2c_prints_every_metric_and_passes_its_checks() {
    check_workload(Workload::CcfWarm2c);
}

#[test]
fn analyze_4c_prints_every_metric_and_passes_its_checks() {
    check_workload(Workload::Analyze4c);
}

#[test]
fn io_sweep_1c_prints_every_metric_and_passes_its_checks() {
    check_workload(Workload::IoSweep1c);
}
