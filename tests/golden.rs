//! Golden-output pin for the simulation core.
//!
//! Renders the exact JSON document `tla-cli compare --json` writes for a
//! fixed seed matrix and demands byte equality with the committed golden
//! file. The matrix spans every inclusion mode and TLA policy so any
//! behavioural drift in the hot path — intended or not — trips this test.
//! It was blessed immediately after the PR 3 correctness fixes and pins
//! the struct-of-arrays / scratch-buffer rewrite as simulation-invariant.
//!
//! To re-bless after an *intentional* behaviour change:
//! `TLA_BLESS=1 cargo test --test golden`.

use std::path::Path;

use tla::sim::{run_grid, Observe, PolicySpec, RunKey, SimConfig};
use tla::telemetry::json::JsonValue;
use tla::workloads::SpecApp;

#[test]
fn compare_json_matches_committed_golden() {
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
    let rendered = doc.to_pretty();

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/compare_pr3.json");
    if std::env::var_os("TLA_BLESS").is_some() {
        std::fs::write(&path, rendered.as_bytes()).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden file missing — run TLA_BLESS=1 cargo test --test golden");
    assert_eq!(
        rendered, golden,
        "compare --json output drifted from the committed golden; if the \
         change is intentional, re-bless with TLA_BLESS=1"
    );
}

/// A 256-entry victim cache scans its entries in four 64-entry probe
/// chunks. `tla-cli run --mix mcf --policy vc256` must print the bytes it
/// printed when one 256-way kernel call covered the whole cache, and its
/// `--json` report must keep the digest recorded then.
#[test]
fn vc256_run_output_is_pinned() {
    let cli = env!("CARGO_BIN_EXE_tla-cli");
    let run = |extra: &[&str]| {
        let out = std::process::Command::new(cli)
            .args(["run", "--mix", "mcf", "--policy", "vc256"])
            .args(extra)
            .output()
            .expect("tla-cli runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf-8 output")
    };

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/run_mcf_vc256.txt");
    let printed = run(&[]);
    if std::env::var_os("TLA_BLESS").is_some() {
        std::fs::write(&path, printed.as_bytes()).expect("write golden");
    } else {
        let golden = std::fs::read_to_string(&path).expect("golden file missing");
        assert_eq!(printed, golden, "vc256 run output drifted");
    }

    let dir = std::env::temp_dir().join(format!("tla-vc256-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join("vc256.json");
    run(&["--json", json.to_str().unwrap()]);
    let bytes = std::fs::read(&json).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let digest = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(
        format!("{digest:016x}"),
        "3204cfe0020afbe5",
        "vc256 report drifted"
    );
}
