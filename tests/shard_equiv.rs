//! Shard equivalence: every `--shard-jobs` worker count produces
//! byte-identical artifacts.
//!
//! The set-sharded oracle replays per-set queues (optionally across worker
//! threads); that restructuring is a pure reordering of independent work,
//! so the exact JSON `tla-cli analyze` would write must not change by a
//! byte. (The batched engine is checked against the serial reference
//! loop in `tests/engine_equiv.rs`.) CI reruns this suite under
//! `TLA_FORCE_SCALAR=1`, which pins the portable probe kernels — the
//! equivalence must hold on either dispatch path.

use tla::sim::{optimal_llc, run_policy_reports_analyzed, OracleGap, PolicySpec, SimConfig};
use tla::telemetry::json::JsonValue;
use tla::workloads::SpecApp;

fn quick() -> SimConfig {
    SimConfig::scaled_down().instructions(10_000)
}

fn mix() -> [SpecApp; 2] {
    [SpecApp::Libquantum, SpecApp::Sjeng]
}

/// Renders the `tla-cli analyze --json` artifact (reports plus the
/// oracle-derived `opt_misses` / `gap_to_opt` / `inclusion_victim_rate`
/// fields) with the set-sharded oracle on `jobs` worker threads.
fn render_analyze(jobs: usize) -> String {
    let specs = [PolicySpec::baseline(), PolicySpec::qbs()];
    let cfg = quick().shard_jobs(jobs);
    let opt = optimal_llc(&cfg, &mix(), None);
    let results = run_policy_reports_analyzed(&cfg, &mix(), &specs, None, Some(2_500), 4);
    let docs: Vec<JsonValue> = results
        .into_iter()
        .map(|(r, mut report)| {
            OracleGap::new(&r, opt.misses).attach(&mut report);
            report.to_json()
        })
        .collect();
    JsonValue::array(docs).to_pretty()
}

#[test]
fn analyze_json_is_byte_identical_for_every_shard_job_count() {
    let reference = render_analyze(1);
    assert!(reference.contains("opt_misses"));
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    for jobs in [2, 7, cpus] {
        assert_eq!(
            render_analyze(jobs),
            reference,
            "analyze --json diverged at shard-jobs {jobs}"
        );
    }
}

#[test]
fn engine_and_sharding_compose() {
    // The oracle sharded across every core agrees with the single-worker
    // replay of the same mix.
    let cfg = quick();
    let wide = optimal_llc(&cfg.clone().shard_jobs(0), &mix(), None);
    let narrow = optimal_llc(&cfg, &mix(), None);
    assert_eq!(wide, narrow);
}
