//! The golden pin again, with SIMD dispatch disabled.
//!
//! Runs in its own process (integration tests are separate binaries), sets
//! `TLA_FORCE_SCALAR` before the first probe-kernel use, and demands the
//! exact bytes of `tests/golden/compare_pr3.json` — the same file the
//! default-dispatch golden test pins. Together the two tests prove the
//! AVX2 and portable kernels drive bit-identical simulations: if either
//! kernel returned a different hit way anywhere in the matrix, one of the
//! two processes would drift from the shared golden.

use std::path::Path;

use tla::sim::{run_grid, Observe, PolicySpec, RunKey, SimConfig};
use tla::telemetry::json::JsonValue;
use tla::workloads::SpecApp;

#[test]
fn scalar_kernel_matches_committed_golden() {
    // Before any cache is built: kernel selection is per-process sticky.
    std::env::set_var("TLA_FORCE_SCALAR", "1");
    assert_eq!(
        tla::cache::kernel_name(),
        "scalar4",
        "TLA_FORCE_SCALAR must pin the portable kernel"
    );

    let cfg = SimConfig::scaled_down().instructions(25_000).seed(42);
    let mix = [SpecApp::Libquantum, SpecApp::Sjeng];
    let specs = [
        PolicySpec::baseline(),
        PolicySpec::tlh_l1(),
        PolicySpec::eci(),
        PolicySpec::qbs(),
        PolicySpec::non_inclusive(),
        PolicySpec::exclusive(),
    ];
    let keys: Vec<RunKey> = specs
        .iter()
        .map(|spec| RunKey::new(&cfg, &mix, spec).observe(Observe::Report(5_000)))
        .collect();
    let results = run_grid(&keys, cfg.effective_jobs());
    let doc = JsonValue::array(
        results
            .iter()
            .map(|(_, rep)| rep.as_ref().expect("window requested").to_json()),
    );

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/compare_pr3.json");
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing — run TLA_BLESS=1 cargo test --test golden");
    assert_eq!(
        doc.to_pretty(),
        golden,
        "scalar-kernel compare --json output drifted from the golden the \
         SIMD path pins — the two dispatch paths no longer agree"
    );
}
