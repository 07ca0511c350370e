//! Engine equivalence: the serial reference loop and the batched
//! run-extraction engine produce byte-identical artifacts —
//! `compare --json`, `analyze --json`, io-mix reports, and checkpoint
//! bytes, including save→resume across engine modes.
//!
//! Run extraction only commits a core's instructions back-to-back while
//! the serial loop would have re-picked that same core, so nothing
//! observable may change by a byte. Both loops share one trace type,
//! so the checkpoint wire format itself is pinned separately
//! (`tests/snapshot_resume.rs`). CI reruns this suite under
//! `TLA_FORCE_SCALAR=1`, which pins the portable probe kernels — the
//! equivalence must hold on either dispatch path.

use std::path::Path;

use tla::io::{IoAgentSpec, IoMixConfig};
use tla::sim::{optimal_llc, EngineMode, MixRun, OracleGap, PolicySpec, SimConfig};
use tla::telemetry::json::JsonValue;
use tla::workloads::SpecApp;

fn quick() -> SimConfig {
    SimConfig::scaled_down().instructions(10_000)
}

fn mix() -> [SpecApp; 2] {
    [SpecApp::Libquantum, SpecApp::Sjeng]
}

/// Renders the exact `tla-cli compare --json` artifact with every run
/// pinned to the given engine.
fn render_compare(mode: EngineMode) -> String {
    let specs = [
        PolicySpec::baseline(),
        PolicySpec::qbs(),
        PolicySpec::non_inclusive(),
    ];
    let cfg = quick();
    let reports: Vec<JsonValue> = specs
        .iter()
        .map(|spec| {
            let (_, report) = MixRun::new(&cfg, &mix())
                .spec(spec)
                .engine_mode(mode)
                .run_report(Some(2_500));
            report.to_json()
        })
        .collect();
    JsonValue::array(reports).to_pretty()
}

#[test]
fn compare_json_is_byte_identical_across_engines() {
    let reference = render_compare(EngineMode::Serial);
    assert!(!reference.is_empty());
    assert_eq!(
        render_compare(EngineMode::Batched),
        reference,
        "compare --json diverged under the batched engine"
    );
}

/// Renders the `tla-cli analyze --json` artifact (reports plus the
/// oracle-derived fields) under one engine pin. The policy fan-out
/// helper always runs the batched engine, so the suite is rebuilt per
/// report here with an explicit pin instead.
fn render_analyze(mode: EngineMode) -> String {
    let specs = [PolicySpec::baseline(), PolicySpec::qbs()];
    let cfg = quick();
    let opt = optimal_llc(&cfg, &mix(), None);
    let docs: Vec<JsonValue> = specs
        .iter()
        .map(|spec| {
            let (r, mut report) = MixRun::new(&cfg, &mix())
                .spec(spec)
                .engine_mode(mode)
                .run_report_analyzed(Some(2_500), 4);
            OracleGap::new(&r, opt.misses).attach(&mut report);
            report.to_json()
        })
        .collect();
    JsonValue::array(docs).to_pretty()
}

#[test]
fn analyze_json_is_byte_identical_across_engines() {
    let reference = render_analyze(EngineMode::Serial);
    assert!(reference.contains("opt_misses"));
    assert!(reference.contains("reuse"));
    assert_eq!(
        render_analyze(EngineMode::Batched),
        reference,
        "analyze --json diverged under the batched engine"
    );
}

/// Renders an `io-sweep`-style report with the per-agent breakdown that
/// `io-sweep --json` carries: three device scenarios (ring-buffer NIC +
/// leaky DMA way-limited, an unlimited leaky DMA stream, and a way-limited
/// DMA stream with app fills partitioned out of its ways) under two
/// policies each.
fn render_io(mode: EngineMode) -> String {
    let dma = || IoAgentSpec::dma().period(5);
    let scenarios = [
        IoMixConfig::none()
            .agent(IoAgentSpec::nic().period(3).lines(256))
            .agent(dma())
            .inject_ways(2),
        IoMixConfig::none().agent(dma()),
        IoMixConfig::none()
            .agent(dma())
            .inject_ways(2)
            .partition(true),
    ];
    let cfg = quick();
    let mut reports = Vec::new();
    for io in &scenarios {
        for spec in [PolicySpec::baseline(), PolicySpec::tlh_l1()] {
            let (_, report) = MixRun::new(&cfg, &mix())
                .spec(&spec)
                .io(io.clone())
                .engine_mode(mode)
                .run_report(Some(2_500));
            reports.push(report.to_json());
        }
    }
    JsonValue::array(reports).to_pretty()
}

#[test]
fn io_sweep_json_is_byte_identical_across_engines() {
    let reference = render_io(EngineMode::Serial);
    assert!(
        reference.contains("\"io\""),
        "io report key missing from the reference artifact"
    );
    assert_eq!(
        render_io(EngineMode::Batched),
        reference,
        "io report diverged under the batched engine"
    );
}

/// The device-agent scenarios of [`render_io`] must also render the
/// bytes blessed before device streams became closed-form and agents
/// left the batched scheduler's heap: engine equivalence alone cannot
/// see a change both engines share. Re-bless after an intentional
/// behaviour change with `TLA_BLESS=1 cargo test --test engine_equiv`.
#[test]
fn io_sweep_json_matches_committed_golden() {
    let rendered = render_io(EngineMode::Batched);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/io_agents.json");
    if std::env::var_os("TLA_BLESS").is_some() {
        std::fs::write(&path, rendered.as_bytes()).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden file missing");
    assert_eq!(
        rendered, golden,
        "device-agent reports drifted from the committed golden"
    );
}

#[test]
fn checkpoints_save_and_resume_across_engine_modes() {
    // Warm images must carry no trace of the engine that wrote them, and
    // any engine must finish any engine's image identically.
    let cfg = SimConfig::scaled_down().warmup(15_000).instructions(10_000);
    let mix = [SpecApp::Sjeng, SpecApp::Mcf];
    let reference = MixRun::new(&cfg, &mix)
        .engine_mode(EngineMode::Serial)
        .warm_checkpoint_instrumented(Some(5_000));
    let straight = {
        let (_, report) = MixRun::new(&cfg, &mix)
            .engine_mode(EngineMode::Serial)
            .spec(&PolicySpec::qbs())
            .run_report(Some(5_000));
        report.to_json_string()
    };
    let ck = MixRun::new(&cfg, &mix)
        .engine_mode(EngineMode::Batched)
        .warm_checkpoint_instrumented(Some(5_000));
    assert_eq!(
        ck.as_bytes(),
        reference.as_bytes(),
        "batched engine leaked into checkpoint bytes"
    );
    // Resume the serially-written image under the batched engine (whose
    // own image is identical anyway): the finished report must match the
    // straight-through serial run byte-for-byte.
    let (_, report) = MixRun::new(&cfg, &mix)
        .engine_mode(EngineMode::Batched)
        .spec(&PolicySpec::qbs())
        .resume_report(&reference, Some(5_000))
        .unwrap();
    assert_eq!(
        report.to_json_string(),
        straight,
        "resume under the batched engine diverged"
    );
}
