//! Serial vs parallel determinism of the batch experiment runner.
//!
//! Every `MixRun` owns its whole simulated hierarchy and derives all
//! randomness from the configured seed, so fanning a suite out over the
//! `tla-pool` workers must change nothing but wall-clock time. These
//! tests pin that guarantee end to end: identical rows, identical
//! counters, byte-identical JSON reports for `--jobs 1` vs `--jobs 4`.

use tla::io::IoMixConfig;
use tla::sim::{
    run_grid, run_policy_reports_analyzed, run_policy_reports_io, run_suites, PolicySpec, RunKey,
    SimConfig, Suite, ThreadResult,
};
use tla::telemetry::json::JsonValue;
use tla::workloads::{table2_mixes, SpecApp};

fn quick() -> SimConfig {
    SimConfig::scaled_down().instructions(10_000)
}

/// `apps` each alone on one core, on a grid of `jobs` workers.
fn alone(cfg: &SimConfig, apps: &[SpecApp], jobs: usize) -> Vec<ThreadResult> {
    let keys: Vec<RunKey> = apps
        .iter()
        .map(|&app| RunKey::new(cfg, &[app], &PolicySpec::baseline()))
        .collect();
    run_grid(&keys, jobs)
        .into_iter()
        .map(|(mut r, _)| r.threads.remove(0))
        .collect()
}

#[test]
fn mpki_table_parallel_matches_serial_row_for_row() {
    // Table I's runs: every app alone, prefetcher off.
    let cfg = quick().prefetch(false);
    let serial = alone(&cfg, &SpecApp::ALL, 1);
    let parallel = alone(&cfg, &SpecApp::ALL, 4);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.app, p.app);
        // Bit-identical, not merely close: the runs are the same runs.
        assert_eq!(s.l1_mpki().to_bits(), p.l1_mpki().to_bits(), "{}", s.app);
        assert_eq!(s.l2_mpki().to_bits(), p.l2_mpki().to_bits(), "{}", s.app);
        assert_eq!(s.llc_mpki().to_bits(), p.llc_mpki().to_bits(), "{}", s.app);
    }
}

#[test]
fn mix_suite_parallel_matches_serial() {
    let suite = Suite {
        cfg: quick(),
        mixes: table2_mixes()[..3].to_vec(),
        specs: vec![PolicySpec::baseline(), PolicySpec::qbs(), PolicySpec::eci()],
        llc_capacity_full_scale: None,
    };
    let serial = run_suites(std::slice::from_ref(&suite), 1).remove(0);
    let parallel = run_suites(&[suite], 4).remove(0);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.spec.name, p.spec.name);
        assert_eq!(s.runs.len(), p.runs.len());
        for (sr, pr) in s.runs.iter().zip(&p.runs) {
            assert_eq!(sr.global, pr.global);
            for (st, pt) in sr.threads.iter().zip(&pr.threads) {
                assert_eq!(st.stats, pt.stats);
                assert_eq!(st.cycles, pt.cycles);
                assert_eq!(st.instructions, pt.instructions);
            }
        }
    }
}

#[test]
fn run_alone_many_parallel_matches_serial() {
    let apps: Vec<SpecApp> = SpecApp::ALL[..6].to_vec();
    let serial = alone(&quick(), &apps, 1);
    let parallel = alone(&quick(), &apps, 4);
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.app, p.app);
        assert_eq!(s.stats, p.stats);
        assert_eq!(s.cycles, p.cycles);
    }
}

#[test]
fn compare_reports_are_byte_identical_across_job_counts() {
    // The exact artifact `tla-cli compare --json` writes, at both job
    // counts: serialize each report list and demand byte equality.
    let mix = [SpecApp::Libquantum, SpecApp::Sjeng];
    let specs = [
        PolicySpec::baseline(),
        PolicySpec::qbs(),
        PolicySpec::non_inclusive(),
    ];
    let render = |jobs: usize| {
        let results = run_policy_reports_io(
            &quick().jobs(jobs),
            &mix,
            &specs,
            None,
            Some(2_500),
            &IoMixConfig::none(),
        );
        let doc = JsonValue::array(
            results
                .iter()
                .map(|(_, rep)| rep.as_ref().expect("window requested").to_json()),
        );
        doc.to_pretty()
    };
    let serial = render(1);
    let parallel = render(4);
    assert!(!serial.is_empty());
    assert_eq!(serial, parallel, "serial and parallel JSON diverged");
}

#[test]
fn analyzed_reports_are_byte_identical_across_job_counts_and_strides() {
    // `tla-cli analyze`'s reports, reuse profiles included, at one job
    // and at three (the caller and two spawned workers), for reuse
    // sampling strides 1, 3 and 4.
    let mix = [SpecApp::Libquantum, SpecApp::Sjeng];
    let specs = [
        PolicySpec::baseline(),
        PolicySpec::qbs(),
        PolicySpec::non_inclusive(),
    ];
    let cfg = quick().warmup(20_000);
    for sample_every in [1, 3, 4] {
        let render = |jobs: usize| {
            let results = run_policy_reports_analyzed(
                &cfg.clone().jobs(jobs),
                &mix,
                &specs,
                None,
                Some(5_000),
                sample_every,
            );
            JsonValue::array(results.iter().map(|(_, rep)| rep.to_json())).to_pretty()
        };
        let serial = render(1);
        assert!(
            serial.contains(&format!("\"sample_every\": {sample_every}")),
            "stride {sample_every} reaches the report"
        );
        assert_eq!(
            serial,
            render(3),
            "stride {sample_every}: serial and parallel JSON diverged"
        );
    }
}
