//! `BENCHMARK.json`, the result files `run` writes, and `compare`'s
//! per-metric verdicts between two of them.

use crate::stats::{gain, verdict, Better, Summary, Verdict};
use std::fmt::Write as _;
use tla::telemetry::json::JsonValue;

/// The benchmark definition at the repository root.
pub const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// Result-file schema tag.
pub const RESULT_SCHEMA: &str = "tla-benchmark-result-v1";

/// A metric as `BENCHMARK.json` lists it.
#[derive(Debug, Clone, PartialEq)]
pub struct ListedMetric {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound as a share of the base median (end-to-end only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the harness reads.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkFile {
    /// Seconds one measurement runs.
    pub run_seconds: u64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics with bounds.
    pub end_to_end: Vec<ListedMetric>,
    /// Per-layer metrics.
    pub per_layer: Vec<ListedMetric>,
}

fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("missing key {key:?}"))
}

fn string(v: &JsonValue, key: &str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{key:?} is not a string"))
}

fn array<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], String> {
    field(v, key)?
        .as_array()
        .ok_or_else(|| format!("{key:?} is not an array"))
}

fn listed(v: &JsonValue, with_bound: bool) -> Result<ListedMetric, String> {
    let better = string(v, "better")?;
    Ok(ListedMetric {
        name: string(v, "name")?,
        unit: string(v, "unit")?,
        better: Better::parse(&better).ok_or_else(|| format!("bad direction {better:?}"))?,
        bound: if with_bound {
            Some(
                field(v, "bound")?
                    .as_f64()
                    .ok_or("\"bound\" is not a number")?,
            )
        } else {
            None
        },
    })
}

impl BenchmarkFile {
    /// Parses `BENCHMARK.json` text.
    ///
    /// # Errors
    ///
    /// A message naming the first missing or malformed field.
    pub fn parse(text: &str) -> Result<BenchmarkFile, String> {
        let doc = JsonValue::parse(text).map_err(|e| e.to_string())?;
        Ok(BenchmarkFile {
            run_seconds: field(&doc, "run_seconds")?
                .as_u64()
                .ok_or("\"run_seconds\" is not a whole number")?,
            workloads: array(&doc, "workloads")?
                .iter()
                .map(|w| string(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: array(&doc, "end_to_end")?
                .iter()
                .map(|m| listed(m, true))
                .collect::<Result<_, _>>()?,
            per_layer: array(&doc, "per_layer")?
                .iter()
                .map(|m| listed(m, false))
                .collect::<Result<_, _>>()?,
        })
    }

    /// Reads and parses the repository's `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// When the file is unreadable or malformed.
    pub fn load() -> Result<BenchmarkFile, String> {
        let text = std::fs::read_to_string(BENCHMARK_JSON)
            .map_err(|e| format!("cannot read {BENCHMARK_JSON}: {e}"))?;
        BenchmarkFile::parse(&text).map_err(|e| format!("{BENCHMARK_JSON}: {e}"))
    }
}

fn pairs<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [(String, JsonValue)], String> {
    match field(v, key)? {
        JsonValue::Obj(pairs) => Ok(pairs),
        _ => Err(format!("{key:?} is not an object")),
    }
}

/// One workload's entry in a result file, merged from the detail records
/// of its untraced invocations (`runs`, one per seed, the first under the
/// traced seed) and its traced one (`layers`).
///
/// Each end-to-end metric's samples are the runs' medians, so a result
/// file's spread is the run-to-run spread `compare` judges by. The first
/// run and the traced pass used the same seed, so their stats digests
/// must agree; a mismatch counts as one more failed run.
///
/// # Errors
///
/// When a detail record lacks a field, or `runs` is empty.
pub fn workload_result(runs: &[JsonValue], layers: &JsonValue) -> Result<JsonValue, String> {
    let first = runs.first().ok_or("no untraced runs")?;
    let count = |v: &JsonValue, key: &str| {
        field(v, key)?
            .as_u64()
            .ok_or_else(|| format!("{key:?} is not a count"))
    };
    let digest = string(first, "stats_digest")?;
    let mismatch = digest != string(layers, "stats_digest")?;
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (1, u64::from(mismatch));
    for detail in runs.iter().chain([layers]) {
        problems.extend(array(detail, "problems")?.iter().cloned());
        attempted += count(detail, "attempted")?;
        failed += count(detail, "failed")?;
    }
    if mismatch {
        problems.push(JsonValue::from(
            "stats digest differs between the untraced and traced processes",
        ));
    }

    let mut end_to_end = Vec::new();
    for (name, m) in pairs(first, "metrics")? {
        let medians = runs
            .iter()
            .map(|r| {
                field(field(field(r, "metrics")?, name)?, "median")?
                    .as_f64()
                    .ok_or_else(|| format!("{name}: median is not a number"))
            })
            .collect::<Result<Vec<f64>, String>>()?;
        let s = Summary::of(&medians);
        end_to_end.push((
            name.clone(),
            JsonValue::object([
                ("unit", field(m, "unit")?.clone()),
                ("median", JsonValue::Num(s.median)),
                ("q1", JsonValue::Num(s.q1)),
                ("q3", JsonValue::Num(s.q3)),
                ("n", JsonValue::Int(s.n as u64)),
                (
                    "samples",
                    JsonValue::array(medians.into_iter().map(JsonValue::Num)),
                ),
            ]),
        ));
    }
    let per_layer = pairs(layers, "metrics")?
        .iter()
        .map(|(name, m)| {
            Ok((
                name.clone(),
                JsonValue::object([
                    ("value", field(m, "median")?.clone()),
                    ("unit", field(m, "unit")?.clone()),
                ]),
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    // Each run's own summaries, without its thousands of raw samples.
    let run_metrics = runs
        .iter()
        .map(|r| {
            Ok(JsonValue::Obj(
                pairs(r, "metrics")?
                    .iter()
                    .map(|(name, m)| {
                        let kept = ["median", "q1", "q3", "n"]
                            .into_iter()
                            .map(|k| Ok((k, field(m, k)?.clone())))
                            .collect::<Result<Vec<_>, String>>()?;
                        Ok((name.clone(), JsonValue::object(kept)))
                    })
                    .collect::<Result<_, String>>()?,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(JsonValue::object([
        ("name", field(first, "workload")?.clone()),
        ("correct", JsonValue::Bool(failed == 0)),
        ("attempted", JsonValue::Int(attempted)),
        ("failed", JsonValue::Int(failed)),
        ("problems", JsonValue::Arr(problems)),
        ("stats_digest", JsonValue::from(digest.as_str())),
        ("end_to_end", JsonValue::Obj(end_to_end)),
        ("per_layer", JsonValue::Obj(per_layer)),
        ("runs", JsonValue::Arr(run_metrics)),
    ]))
}

/// A result file: the settings (runs used seeds `seed`, `seed + 1`, …),
/// the host, and every workload's entry.
pub fn result_document(seed: u64, seconds: u64, runs: u64, workloads: Vec<JsonValue>) -> JsonValue {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    JsonValue::object([
        ("schema", JsonValue::from(RESULT_SCHEMA)),
        ("seed", JsonValue::Int(seed)),
        ("run_seconds", JsonValue::Int(seconds)),
        ("runs", JsonValue::Int(runs)),
        (
            "host",
            JsonValue::object([
                ("threads", JsonValue::Int(threads as u64)),
                ("probe_kernel", JsonValue::from(tla::cache::kernel_name())),
            ]),
        ),
        ("workloads", JsonValue::Arr(workloads)),
    ])
}

/// One row of `compare`'s table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Metric unit.
    pub unit: String,
    /// The base run set's summary.
    pub base: Summary,
    /// The candidate run set's summary.
    pub cand: Summary,
    /// Signed gain of the candidate, as a share of the base median.
    pub gain: f64,
    /// The verdict under the metric's bound.
    pub verdict: Verdict,
}

fn samples(result: &JsonValue, workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    let w = array(result, "workloads")?
        .iter()
        .find(|w| w.get("name").and_then(JsonValue::as_str) == Some(workload))
        .ok_or_else(|| format!("no workload {workload:?}"))?;
    let values = array(field(field(w, "end_to_end")?, metric)?, "samples")?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| format!("{workload} {metric}: bad sample"))
        })
        .collect::<Result<Vec<f64>, String>>()?;
    if values.is_empty() {
        return Err(format!("{workload} {metric}: no samples"));
    }
    Ok(values)
}

/// Compares every workload × end-to-end metric of `bench` between a base
/// and a candidate result file.
///
/// # Errors
///
/// When either file lacks a workload or metric `bench` lists.
pub fn compare(
    bench: &BenchmarkFile,
    base: &JsonValue,
    cand: &JsonValue,
) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for workload in &bench.workloads {
        for m in &bench.end_to_end {
            let (a, b) = (
                samples(base, workload, &m.name).map_err(|e| format!("base: {e}"))?,
                samples(cand, workload, &m.name).map_err(|e| format!("candidate: {e}"))?,
            );
            let (sa, sb) = (Summary::of(&a), Summary::of(&b));
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name.clone(),
                unit: m.unit.clone(),
                base: sa,
                cand: sb,
                gain: gain(&sa, &sb, m.better),
                verdict: verdict(&a, &b, m.better, m.bound.unwrap_or(0.0)),
            });
        }
    }
    Ok(rows)
}

/// `compare`'s table: one row per workload × metric with each side's
/// median and quartiles, the signed gain and the verdict.
pub fn format_rows(rows: &[Row]) -> String {
    let side = |s: &Summary| format!("{:.4} [{:.4}, {:.4}] n={}", s.median, s.q1, s.q3, s.n);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:<12} {:<9} {:<40} {:<40} {:>8}  verdict",
        "workload", "metric", "unit", "base median [q1, q3]", "candidate median [q1, q3]", "gain"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<12} {:<12} {:<9} {:<40} {:<40} {:>+7.2}%  {}",
            r.workload,
            r.metric,
            r.unit,
            side(&r.base),
            side(&r.cand),
            r.gain * 100.0,
            r.verdict
        );
    }
    out
}
