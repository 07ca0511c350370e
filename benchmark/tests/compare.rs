//! `compare`'s verdicts on hand-built result files.

use tla::telemetry::json::JsonValue;
use tla_benchmark::compare::{compare, format_rows, BenchmarkFile, ListedMetric};
use tla_benchmark::stats::{verdict, Better, Verdict};

/// A result file with one workload whose `sim_mips` took `samples`.
fn result(samples: &[f64]) -> JsonValue {
    JsonValue::object([(
        "workloads",
        JsonValue::array([JsonValue::object([
            ("name", JsonValue::from("w")),
            (
                "end_to_end",
                JsonValue::object([(
                    "sim_mips",
                    JsonValue::object([(
                        "samples",
                        JsonValue::array(samples.iter().map(|&x| JsonValue::Num(x))),
                    )]),
                )]),
            ),
        ])]),
    )])
}

fn bench() -> BenchmarkFile {
    BenchmarkFile {
        run_seconds: 1,
        workloads: vec!["w".into()],
        end_to_end: vec![ListedMetric {
            name: "sim_mips".into(),
            unit: "Minstr/s".into(),
            better: Better::Higher,
            bound: Some(0.10),
        }],
        per_layer: Vec::new(),
    }
}

fn verdict_of(base: &[f64], cand: &[f64]) -> Verdict {
    let rows = compare(&bench(), &result(base), &result(cand)).expect("well-formed files");
    assert_eq!(rows.len(), 1);
    assert!(format_rows(&rows).contains(&rows[0].verdict.to_string()));
    rows[0].verdict
}

const BASE: [f64; 5] = [10.0, 10.1, 9.9, 10.05, 9.95];

#[test]
fn a_clear_gain_is_better() {
    assert_eq!(
        verdict_of(&BASE, &[11.0, 11.1, 10.9, 11.05, 10.95]),
        Verdict::Better
    );
}

#[test]
fn a_loss_beyond_the_bound_is_worse() {
    assert_eq!(
        verdict_of(&BASE, &[8.5, 8.6, 8.4, 8.55, 8.45]),
        Verdict::Worse
    );
}

#[test]
fn a_loss_within_the_bound_or_noise_is_same() {
    assert_eq!(
        verdict_of(&BASE, &[9.6, 9.7, 9.5, 9.65, 9.55]),
        Verdict::Same
    );
    assert_eq!(verdict_of(&BASE, &BASE), Verdict::Same);
    // One sample a side is too few pairs to claim a gain.
    assert_eq!(verdict_of(&[10.0], &[10.5]), Verdict::Same);
}

#[test]
fn a_spread_wider_than_the_bound_is_unresolved() {
    let noisy = [7.0, 13.0, 8.0, 12.0, 10.0];
    assert_eq!(verdict_of(&BASE, &noisy), Verdict::Unresolved);
    // ... unless every candidate run beats every base run.
    assert_eq!(
        verdict_of(&BASE, &[11.0, 16.0, 12.0, 15.0, 13.0]),
        Verdict::Better
    );
    // ... or every base run beats every candidate run by more than the bound.
    assert_eq!(
        verdict_of(&BASE, &[4.0, 7.0, 5.0, 6.5, 5.5]),
        Verdict::Worse
    );
}

#[test]
fn lower_is_better_flips_the_direction() {
    let slow = [1.2, 1.21, 1.19, 1.2, 1.2];
    let fast = [1.0, 1.01, 0.99, 1.0, 1.0];
    assert_eq!(verdict(&fast, &slow, Better::Lower, 0.1), Verdict::Worse);
    assert_eq!(verdict(&slow, &fast, Better::Lower, 0.1), Verdict::Better);
}

#[test]
fn a_missing_workload_is_an_error() {
    let empty = JsonValue::object([("workloads", JsonValue::array([]))]);
    assert!(compare(&bench(), &empty, &result(&BASE)).is_err());
}
