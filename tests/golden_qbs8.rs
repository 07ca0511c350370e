//! Golden pin for QBS on an 8-core inclusive LLC.
//!
//! The other goldens run two cores, where asking "every core" and asking
//! "the cores the directory names" differ by at most one query per
//! candidate. This matrix runs mcf,lib x4 so that QBS's queries, the
//! back-invalidates they avoid, and the directory bits that decide which
//! cores are asked all span eight cores. It covers each QBS variant the
//! hierarchy implements (L1+L2, L1-only, L2-only, a 2-query limit, the
//! invalidating "modified QBS", QBS on a non-inclusive base, QBS behind a
//! victim cache) plus one partitioned DMA run, so any change to which
//! cores QBS consults or to how LLC metadata is updated after a hit
//! shows up as a byte difference.
//!
//! The whole suite runs again under `TLA_FORCE_SCALAR=1`, so this one
//! file pins both probe kernels.
//!
//! To re-bless after an *intentional* behaviour change:
//! `TLA_BLESS=1 cargo test --test golden_qbs8`.

use std::path::Path;

use tla::core::TlaPolicy;
use tla::io::{IoAgentSpec, IoMixConfig};
use tla::sim::{MixRun, PolicySpec, SimConfig};
use tla::telemetry::json::JsonValue;
use tla::workloads::SpecApp;

fn mix() -> Vec<SpecApp> {
    [SpecApp::Mcf, SpecApp::Libquantum].repeat(4)
}

fn specs() -> Vec<PolicySpec> {
    vec![
        PolicySpec::qbs(),
        PolicySpec::qbs_l1(),
        PolicySpec::qbs_l2(),
        PolicySpec::qbs_limited(2),
        PolicySpec::qbs_invalidating(),
        PolicySpec::on_non_inclusive(TlaPolicy::qbs()),
        PolicySpec {
            name: "QBS+VC-32".to_string(),
            victim_cache: Some(32),
            ..PolicySpec::qbs()
        },
    ]
}

fn rendered() -> String {
    let cfg = SimConfig::scaled_down()
        .instructions(20_000)
        .warmup(20_000)
        .seed(7);
    let mix = mix();
    let mut reports: Vec<JsonValue> = specs()
        .iter()
        .map(|spec| {
            let (_, report) = MixRun::new(&cfg, &mix).spec(spec).run_report(Some(80_000));
            report.to_json()
        })
        .collect();
    let dma = IoMixConfig::none()
        .agent(IoAgentSpec::dma())
        .inject_ways(2)
        .partition(true);
    let (_, report) = MixRun::new(&cfg, &mix)
        .spec(&PolicySpec::qbs())
        .io(dma)
        .run_report(Some(80_000));
    reports.push(report.to_json());
    JsonValue::array(reports).to_pretty()
}

#[test]
fn qbs_8core_compare_json_matches_committed_golden() {
    let rendered = rendered();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/qbs8.json");
    if std::env::var_os("TLA_BLESS").is_some() {
        std::fs::write(&path, rendered.as_bytes()).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing — run TLA_BLESS=1 cargo test --test golden_qbs8");
    assert_eq!(
        rendered, golden,
        "8-core QBS output drifted from the committed golden; if the \
         change is intentional, re-bless with TLA_BLESS=1"
    );
}
