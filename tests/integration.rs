//! Cross-crate integration tests: full simulator runs exercising every
//! layer (workload generation -> core timing -> hierarchy -> metrics).
//!
//! Quotas are kept small so the suite stays fast in debug builds; the
//! steady-state performance claims live in the bench harness.

use tla::cache::Policy;
use tla::core::{InclusionPolicy, TlaPolicy};
use tla::sim::{run_grid, run_suites, MixRun, PolicySpec, RunKey, SimConfig, Suite, ThreadResult};
use tla::types::stats;
use tla::workloads::{all_two_core_mixes, random_mixes, table2_mixes, Category, Mix, SpecApp};

fn quick() -> SimConfig {
    SimConfig::scaled_down().warmup(40_000).instructions(40_000)
}

/// `app` alone on one core.
fn run_alone(cfg: &SimConfig, app: SpecApp) -> ThreadResult {
    MixRun::new(cfg, &[app]).run().threads.remove(0)
}

/// Every spec over every mix on one grid, `[spec][mix]`.
fn run_suite(cfg: &SimConfig, mixes: &[Mix], specs: &[PolicySpec]) -> Vec<tla::sim::SuiteResult> {
    let suite = Suite {
        cfg: cfg.clone(),
        mixes: mixes.to_vec(),
        specs: specs.to_vec(),
        llc_capacity_full_scale: None,
    };
    run_suites(&[suite], cfg.effective_jobs()).remove(0)
}

#[test]
fn full_run_is_deterministic_across_processes_shape() {
    let cfg = quick();
    let a = MixRun::new(&cfg, &[SpecApp::Povray, SpecApp::Libquantum]).run();
    let b = MixRun::new(&cfg, &[SpecApp::Povray, SpecApp::Libquantum]).run();
    assert_eq!(a.threads[0].cycles, b.threads[0].cycles);
    assert_eq!(a.threads[1].cycles, b.threads[1].cycles);
    assert_eq!(a.global, b.global);
}

#[test]
fn different_seeds_change_timing_but_not_structure() {
    let a = MixRun::new(&quick(), &[SpecApp::Gobmk]).run();
    let b = MixRun::new(&quick().seed(1234), &[SpecApp::Gobmk]).run();
    assert_ne!(a.threads[0].cycles, b.threads[0].cycles);
    // Same workload statistics regime though: MPKIs within 2x.
    let (ma, mb) = (a.threads[0].llc_mpki(), b.threads[0].llc_mpki());
    assert!(ma < 2.0 * mb + 1.0 && mb < 2.0 * ma + 1.0, "{ma} vs {mb}");
}

#[test]
fn ccf_apps_have_high_isolated_ipc() {
    for app in SpecApp::ALL {
        let t = run_alone(&quick(), app);
        match app.category() {
            Category::CoreCacheFitting => {
                assert!(t.ipc() > 1.5, "{app}: CCF IPC {}", t.ipc())
            }
            Category::LlcThrashing => {
                assert!(t.ipc() < 3.0, "{app}: LLCT IPC {}", t.ipc())
            }
            Category::LlcFitting => {}
        }
    }
}

#[test]
fn mpki_table_is_monotone_down_the_hierarchy() {
    // Table I's runs: every app alone with the prefetcher off.
    let cfg = quick().prefetch(false);
    let keys: Vec<RunKey> = SpecApp::ALL
        .iter()
        .map(|&app| RunKey::new(&cfg, &[app], &PolicySpec::baseline()))
        .collect();
    for (r, _) in run_grid(&keys, cfg.effective_jobs()) {
        let r = &r.threads[0];
        assert!(r.l1_mpki() >= r.l2_mpki() - 1e-9);
        assert!(r.l2_mpki() >= r.llc_mpki() - 1e-9);
    }
}

#[test]
fn qbs_never_collapses_relative_to_baseline() {
    // Over the showcase mixes, QBS must stay within noise of the baseline
    // or above it (the paper's worst case over 105 mixes is ~-1.6% for
    // ECI; QBS has no mechanism to lose much).
    let cfg = quick();
    let mixes = table2_mixes();
    let suites = run_suite(&cfg, &mixes, &[PolicySpec::baseline(), PolicySpec::qbs()]);
    for (mix, v) in mixes
        .iter()
        .zip(suites[1].normalized_throughput(&suites[0]))
    {
        assert!(v > 0.93, "{}: QBS at {v}", mix.name);
    }
}

#[test]
fn victim_heavy_mix_ranks_policies_correctly() {
    // lib+sje is the paper's canonical CCF-vs-thrasher mix; at steady
    // state QBS ~ non-inclusive > baseline.
    let cfg = SimConfig::scaled_down()
        .warmup(250_000)
        .instructions(80_000);
    let mix = [SpecApp::Libquantum, SpecApp::Sjeng];
    let base = MixRun::new(&cfg, &mix).run();
    let qbs = MixRun::new(&cfg, &mix).policy(TlaPolicy::qbs()).run();
    let ni = MixRun::new(&cfg, &mix)
        .inclusion(InclusionPolicy::NonInclusive)
        .run();
    assert!(base.inclusion_victims() > 0, "mix must create victims");
    assert_eq!(qbs.inclusion_victims(), 0);
    assert!(qbs.throughput() > base.throughput());
    assert!((qbs.throughput() - ni.throughput()).abs() / ni.throughput() < 0.05);
}

#[test]
fn homogeneous_ccf_mix_sees_no_effect() {
    let cfg = quick();
    let mix = [SpecApp::DealII, SpecApp::Povray]; // MIX_01
    let base = MixRun::new(&cfg, &mix).run();
    let qbs = MixRun::new(&cfg, &mix).policy(TlaPolicy::qbs()).run();
    assert_eq!(base.inclusion_victims(), 0);
    let delta = (qbs.throughput() / base.throughput() - 1.0).abs();
    assert!(delta < 0.01, "no-victim mix must be unaffected: {delta}");
}

#[test]
fn exclusive_beats_inclusive_on_capacity_bound_mix() {
    // Two LLC-fitting apps that together overflow the LLC: the exclusive
    // hierarchy's extra capacity must show.
    let cfg = SimConfig::scaled_down()
        .warmup(250_000)
        .instructions(80_000);
    let mix = [SpecApp::Bzip2, SpecApp::Calculix];
    let base = MixRun::new(&cfg, &mix).run();
    let excl = MixRun::new(&cfg, &mix)
        .inclusion(InclusionPolicy::Exclusive)
        .run();
    assert!(excl.llc_misses() < base.llc_misses());
}

#[test]
fn all_policy_specs_run_all_mixes() {
    // Smoke: every constructor x a few mixes completes and returns sane
    // numbers.
    let cfg = SimConfig::scaled_down().instructions(5_000);
    let mixes = &all_two_core_mixes()[..3];
    let specs = [
        PolicySpec::baseline(),
        PolicySpec::non_inclusive(),
        PolicySpec::exclusive(),
        PolicySpec::tlh_il1(),
        PolicySpec::tlh_dl1(),
        PolicySpec::tlh_l1(),
        PolicySpec::tlh_l2(),
        PolicySpec::tlh_l1_l2(),
        PolicySpec::tlh_l1_filtered(0.1),
        PolicySpec::eci(),
        PolicySpec::qbs(),
        PolicySpec::qbs_il1(),
        PolicySpec::qbs_dl1(),
        PolicySpec::qbs_l1(),
        PolicySpec::qbs_l2(),
        PolicySpec::qbs_limited(1),
        PolicySpec::qbs_invalidating(),
        PolicySpec::victim_cache_32(),
        PolicySpec::baseline().with_llc_replacement(Policy::Srrip),
        PolicySpec::on_non_inclusive(TlaPolicy::qbs()),
    ];
    let suites = run_suite(&cfg, mixes, &specs);
    for suite in &suites {
        for run in &suite.runs {
            assert!(run.throughput() > 0.0, "{}", suite.spec.name);
            for t in &run.threads {
                assert!(t.ipc() > 0.0 && t.ipc() <= 4.0);
            }
        }
    }
}

#[test]
fn four_and_eight_core_mixes_run() {
    let cfg = SimConfig::scaled_down().instructions(8_000);
    for cores in [4usize, 8] {
        let mix = &random_mixes(cores, 1, 42)[0];
        let r = MixRun::new(&cfg, &mix.apps).policy(TlaPolicy::qbs()).run();
        assert_eq!(r.threads.len(), cores);
        assert!(r.throughput() > 0.0);
    }
}

#[test]
fn weighted_speedup_consistent_with_throughput_direction() {
    let cfg = quick();
    let mix = [SpecApp::Libquantum, SpecApp::Sjeng];
    let alone: Vec<f64> = mix.iter().map(|&app| run_alone(&cfg, app).ipc()).collect();
    let base = MixRun::new(&cfg, &mix).run();
    let qbs = MixRun::new(&cfg, &mix).policy(TlaPolicy::qbs()).run();
    if qbs.throughput() > base.throughput() {
        assert!(qbs.weighted_speedup(&alone) >= base.weighted_speedup(&alone) * 0.99);
        assert!(qbs.hmean_fairness(&alone) >= base.hmean_fairness(&alone) * 0.99);
    }
}

#[test]
fn stats_helpers_round_trip() {
    // End-to-end: geomean of normalized series equals manual computation.
    let cfg = quick();
    let mixes = &table2_mixes()[..2];
    let suites = run_suite(&cfg, mixes, &[PolicySpec::baseline(), PolicySpec::eci()]);
    let series = suites[1].normalized_throughput(&suites[0]);
    let manual: f64 = series.iter().map(|v| v.ln()).sum::<f64>() / series.len() as f64;
    let g = suites[1].geomean_throughput(&suites[0]).unwrap();
    assert!((g - manual.exp()).abs() < 1e-12);
    assert!(stats::geomean(series.into_iter()).is_some());
}
