//! `tla-benchmark`: the repository benchmark's command line.
//!
//! ```text
//! tla-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--detail <path>]
//! tla-benchmark run [--seed <n>] [--seconds <s>] [--runs <n>] [--json <path>] [--trace <path>]
//! tla-benchmark compare <base.json> <candidate.json>
//! ```

use std::path::Path;
use std::process::{Command, ExitCode};
use tla::telemetry::json::JsonValue;
use tla_benchmark::compare::{
    compare, format_rows, result_document, workload_result, BenchmarkFile,
};
use tla_benchmark::measure::{measure, traced, Plan};
use tla_benchmark::spans::chrome_trace;
use tla_benchmark::stats::Verdict;
use tla_benchmark::workload::Workload;
use tla_benchmark::OUT_DIR;

/// `run`'s default seed.
const DEFAULT_SEED: u64 = 0xC0FFEE;

fn usage() -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage:\n\
         \x20 tla-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--detail <path>]\n\
         \x20     measure one workload: end-to-end metrics with --trace 0, per-layer\n\
         \x20     metrics with --trace 1; prints `workload metric value unit` lines,\n\
         \x20     then a one-line JSON result (--detail also writes samples and spans)\n\
         \x20 tla-benchmark run [--seed <n>] [--seconds <s>] [--runs <n>] [--json <path>] [--trace <path>]\n\
         \x20     every workload, each untraced (--runs times, seeds n, n+1, ...) then\n\
         \x20     traced, every invocation in its own child process; writes the result\n\
         \x20     file (default {OUT_DIR}/result.json) and a Chrome trace of the traced\n\
         \x20     passes (default {OUT_DIR}/trace.json)\n\
         \x20 tla-benchmark compare <base.json> <candidate.json>\n\
         \x20     verdict per workload and end-to-end metric under BENCHMARK.json's\n\
         \x20     bounds; exits non-zero when any is worse\n\
         workloads: {}",
        names.join(", ")
    );
    ExitCode::from(2)
}

/// Writes `text` to `path`, creating missing parent directories.
fn write_file(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = Path::new(path).parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

fn read_json(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Pulls `--flag value` pairs out of `args`, rejecting unknown flags.
fn flags<'a>(args: &'a [String], known: &[&str]) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag:?}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.push((flag.as_str(), value.as_str()));
    }
    Ok(out)
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{flag}: bad value {v:?}"))
}

fn cmd_measure(args: &[String]) -> Result<ExitCode, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut detail) =
        (None, None, None, None, None);
    for (flag, v) in flags(
        args,
        &["--workload", "--seed", "--seconds", "--trace", "--detail"],
    )? {
        match flag {
            "--workload" => {
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?)
            }
            "--seed" => seed = Some(parse_num::<u64>(flag, v)?),
            "--seconds" => seconds = Some(parse_num::<f64>(flag, v)?),
            "--trace" => {
                trace = Some(match v {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            _ => detail = Some(v),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return Err("--workload, --seed, --seconds and --trace are required".into());
    };
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let plan = Plan::new(workload, seed, seconds);
    let outcome = if trace { traced(&plan) } else { measure(&plan) };
    for p in outcome.checks.problems() {
        eprintln!("check failed: {p}");
    }
    print!("{}", outcome.lines());
    if trace {
        let path = format!("{OUT_DIR}/trace-{}.json", workload.name());
        let doc = chrome_trace(outcome.trace_events.clone());
        write_file(&path, &doc.to_string())?;
    }
    if let Some(path) = detail {
        write_file(path, &outcome.detail_json().to_string())?;
    }
    println!("{}", outcome.result_json());
    Ok(ExitCode::SUCCESS)
}

/// Sets every trace event's process lane to `pid`.
fn on_lane(event: &JsonValue, pid: u64) -> JsonValue {
    match event {
        JsonValue::Obj(pairs) => JsonValue::Obj(
            pairs
                .iter()
                .map(|(k, v)| {
                    let v = if k == "pid" {
                        JsonValue::Int(pid)
                    } else {
                        v.clone()
                    };
                    (k.clone(), v)
                })
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Runs one invocation of this program as a child process and returns
/// the detail record it wrote.
fn child(w: Workload, seed: u64, seconds: u64, trace: &str) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this program: {e}"))?;
    let detail = format!("{OUT_DIR}/{}-{seed}-trace{trace}.json", w.name());
    let status = Command::new(&exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", trace])
        .args(["--detail", &detail])
        .status()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    if !status.success() {
        return Err(format!("{} --trace {trace} exited with {status}", w.name()));
    }
    read_json(&detail)
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let bench = BenchmarkFile::load()?;
    let (mut seed, mut seconds, mut runs) = (DEFAULT_SEED, bench.run_seconds, 1);
    let mut json = format!("{OUT_DIR}/result.json");
    let mut trace = format!("{OUT_DIR}/trace.json");
    for (flag, v) in flags(
        args,
        &["--seed", "--seconds", "--runs", "--json", "--trace"],
    )? {
        match flag {
            "--seed" => seed = parse_num(flag, v)?,
            "--seconds" => seconds = parse_num(flag, v)?,
            "--runs" => runs = parse_num(flag, v)?,
            "--json" => json = v.to_string(),
            _ => trace = v.to_string(),
        }
    }
    if runs == 0 {
        return Err("--runs must be positive".into());
    }
    let mut entries = Vec::new();
    let mut events = Vec::new();
    let mut all_correct = true;
    for (lane, w) in (1u64..).zip(Workload::ALL) {
        let untraced = (0..runs)
            .map(|i| child(w, seed.wrapping_add(i), seconds, "0"))
            .collect::<Result<Vec<_>, _>>()?;
        let layers = child(w, seed, seconds, "1")?;
        let entry = workload_result(&untraced, &layers)?;
        all_correct &= entry.get("correct").and_then(JsonValue::as_bool) == Some(true);
        if let Some(JsonValue::Arr(evs)) = layers.get("trace_events") {
            events.extend(evs.iter().map(|e| on_lane(e, lane)));
        }
        entries.push(entry);
    }
    let doc = result_document(seed, seconds, runs, entries);
    write_file(&json, &doc.to_pretty())?;
    write_file(&trace, &chrome_trace(events).to_string())?;
    eprintln!("results written to {json}, trace to {trace}");
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("some runs failed their checks; see \"problems\" in {json}");
        ExitCode::FAILURE
    })
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [base, cand] = args else {
        return Err("compare takes exactly two result files".into());
    };
    let bench = BenchmarkFile::load()?;
    let rows = compare(&bench, &read_json(base)?, &read_json(cand)?)?;
    print!("{}", format_rows(&rows));
    Ok(if rows.iter().any(|r| r.verdict == Verdict::Worse) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        None | Some("-h" | "--help") => return usage(),
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some(_) => cmd_measure(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        usage()
    })
}
