//! Experiment helpers behind `tla-cli` and the paper's figures: isolated
//! runs, Table I MPKI measurement, and policy suites over mix lists.
//!
//! Every helper that executes more than one [`MixRun`] fans the batch out
//! over [`tla_pool::scoped_map`] with [`SimConfig::effective_jobs`]
//! workers. Each run is self-contained and seeded, so results are
//! bit-identical to serial execution and outputs keep input order; the
//! job count only changes wall-clock time.

use crate::checkpoint::{Checkpoint, CheckpointInfo};
use crate::config::SimConfig;
use crate::policyspec::PolicySpec;
use crate::run::{MixRun, RunResult, ThreadResult};
use crate::warmcache::WarmCache;
use tla_io::IoMixConfig;
use tla_pool::scoped_map;
use tla_snapshot::SnapshotError;
use tla_telemetry::RunReport;
use tla_workloads::{Mix, SpecApp};

/// Runs `app` alone on a single core (for Table I and weighted speedups).
pub fn run_alone(cfg: &SimConfig, app: SpecApp) -> ThreadResult {
    MixRun::new(cfg, &[app]).run().threads.remove(0)
}

/// Runs several apps alone in parallel (the weighted-speedup / fairness
/// denominators), returning results in input order.
pub fn run_alone_many(cfg: &SimConfig, apps: &[SpecApp]) -> Vec<ThreadResult> {
    scoped_map(cfg.effective_jobs(), apps.to_vec(), |app| {
        run_alone(cfg, app)
    })
}

/// One row of Table I: isolated MPKI at each level.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// The benchmark.
    pub app: SpecApp,
    /// Combined L1 (I+D) misses per 1000 instructions.
    pub l1_mpki: f64,
    /// L2 MPKI.
    pub l2_mpki: f64,
    /// LLC MPKI.
    pub llc_mpki: f64,
}

/// Measures the isolated L1/L2/LLC MPKI of every benchmark with the
/// prefetcher off, reproducing Table I ("the MPKI numbers are reported in
/// the absence of a prefetcher").
pub fn mpki_table(cfg: &SimConfig) -> Vec<Table1Row> {
    let cfg = cfg.clone().prefetch(false);
    scoped_map(cfg.effective_jobs(), SpecApp::ALL.to_vec(), |app| {
        let t = run_alone(&cfg, app);
        Table1Row {
            app,
            l1_mpki: t.l1_mpki(),
            l2_mpki: t.l2_mpki(),
            llc_mpki: t.llc_mpki(),
        }
    })
}

/// Results of one policy over a list of mixes.
#[derive(Debug, Clone)]
pub struct SuiteResult {
    /// The policy that was run.
    pub spec: PolicySpec,
    /// Per-mix results, in the order of the input mix list.
    pub runs: Vec<RunResult>,
}

impl SuiteResult {
    /// Per-mix throughput normalized to the matching baseline run.
    pub fn normalized_throughput(&self, baseline: &SuiteResult) -> Vec<f64> {
        self.runs
            .iter()
            .zip(&baseline.runs)
            .map(|(r, b)| normalized_throughput(r, b))
            .collect()
    }

    /// Geometric-mean normalized throughput over all mixes, or `None` when
    /// the mean is undefined — no runs, or some run's throughput is zero
    /// (a frozen/empty measurement would otherwise panic the summary; the
    /// caller flags the entry instead, see `tla_types::stats::fmt_ratio`).
    pub fn geomean_throughput(&self, baseline: &SuiteResult) -> Option<f64> {
        tla_types::stats::geomean(self.normalized_throughput(baseline))
    }

    /// Per-mix LLC-miss reduction relative to the baseline, in percent
    /// (positive = fewer misses).
    pub fn miss_reduction_pct(&self, baseline: &SuiteResult) -> Vec<f64> {
        self.runs
            .iter()
            .zip(&baseline.runs)
            .map(|(r, b)| {
                let bm = b.llc_misses();
                if bm == 0 {
                    0.0
                } else {
                    (bm as f64 - r.llc_misses() as f64) / bm as f64 * 100.0
                }
            })
            .collect()
    }
}

/// Throughput of `run` normalized to `baseline` (1.0 = equal).
pub fn normalized_throughput(run: &RunResult, baseline: &RunResult) -> f64 {
    let b = baseline.throughput();
    if b == 0.0 {
        0.0
    } else {
        run.throughput() / b
    }
}

/// Runs every `spec` over every mix in `mixes`. Results are indexed
/// `[spec][mix]`.
///
/// `llc_capacity_full_scale` optionally overrides the LLC size (expressed
/// at scale 1) for ratio sweeps.
pub fn run_mix_suite(
    cfg: &SimConfig,
    mixes: &[Mix],
    specs: &[PolicySpec],
    llc_capacity_full_scale: Option<usize>,
) -> Vec<SuiteResult> {
    // Flatten the (spec, mix) grid into one job list so the pool
    // load-balances across both axes, then slice the ordered results
    // back into per-spec suites.
    let grid: Vec<(usize, usize)> = (0..specs.len())
        .flat_map(|s| (0..mixes.len()).map(move |m| (s, m)))
        .collect();
    let mut runs = scoped_map(cfg.effective_jobs(), grid, |(s, m)| {
        let mut run = MixRun::new(cfg, &mixes[m].apps).spec(&specs[s]);
        if let Some(bytes) = llc_capacity_full_scale {
            run = run.llc_capacity_full_scale(bytes);
        }
        run.run()
    })
    .into_iter();
    specs
        .iter()
        .map(|spec| SuiteResult {
            spec: spec.clone(),
            runs: runs.by_ref().take(mixes.len()).collect(),
        })
        .collect()
}

/// Runs every policy in `specs` on one mix in parallel, in `specs` order
/// — the engine behind `tla-cli compare`.
///
/// With `window = Some(w)` each run also produces a machine-readable
/// [`RunReport`] with a `w`-instruction time series; with `None` the runs
/// are plain (no telemetry). Like every batch helper, the output is
/// bit-identical for any job count.
pub fn run_policy_reports(
    cfg: &SimConfig,
    apps: &[SpecApp],
    specs: &[PolicySpec],
    llc_capacity_full_scale: Option<usize>,
    window: Option<u64>,
) -> Vec<(RunResult, Option<RunReport>)> {
    run_policy_reports_io(
        cfg,
        apps,
        specs,
        llc_capacity_full_scale,
        window,
        &IoMixConfig::none(),
    )
}

/// [`run_policy_reports`] with a device-I/O mix attached to every run —
/// the engine behind `tla-cli compare --io` and the `io-sweep` scenario
/// grid. A [trivial](IoMixConfig::is_trivial) `io` is exactly
/// [`run_policy_reports`], byte for byte.
pub fn run_policy_reports_io(
    cfg: &SimConfig,
    apps: &[SpecApp],
    specs: &[PolicySpec],
    llc_capacity_full_scale: Option<usize>,
    window: Option<u64>,
    io: &IoMixConfig,
) -> Vec<(RunResult, Option<RunReport>)> {
    scoped_map(cfg.effective_jobs(), specs.to_vec(), |spec| {
        let mut run = MixRun::new(cfg, apps).spec(&spec).io(io.clone());
        if let Some(bytes) = llc_capacity_full_scale {
            run = run.llc_capacity_full_scale(bytes);
        }
        match window {
            Some(w) => {
                let (result, report) = run.run_report(Some(w));
                (result, Some(report))
            }
            None => (run.run(), None),
        }
    })
}

/// The engine behind `tla-cli analyze`: every policy on one mix with the
/// analytics layer attached (reuse-distance profiler sampling every
/// `sample_every`-th LLC set, inclusion-victim attribution), in `specs`
/// order. Each report carries its [`tla_telemetry::ReuseReport`] and measured
/// inclusion-victim rate; the caller pairs them with the MIN oracle to
/// fill in `opt_misses` / `gap_to_opt`.
///
/// Like every batch helper, the output is bit-identical for any job
/// count, and each [`RunResult`] is bit-identical to a plain run (the
/// analytics stream is observation-only).
pub fn run_policy_reports_analyzed(
    cfg: &SimConfig,
    apps: &[SpecApp],
    specs: &[PolicySpec],
    llc_capacity_full_scale: Option<usize>,
    window: Option<u64>,
    sample_every: u32,
) -> Vec<(RunResult, RunReport)> {
    run_policy_reports_analyzed_io(
        cfg,
        apps,
        specs,
        llc_capacity_full_scale,
        window,
        sample_every,
        &IoMixConfig::none(),
    )
}

/// [`run_policy_reports_analyzed`] with a device-I/O mix attached to
/// every run, so `analyze --io` can put gap-to-opt and victim analytics
/// next to the I/O damage counters. A trivial `io` is exactly
/// [`run_policy_reports_analyzed`], byte for byte.
#[allow(clippy::too_many_arguments)]
pub fn run_policy_reports_analyzed_io(
    cfg: &SimConfig,
    apps: &[SpecApp],
    specs: &[PolicySpec],
    llc_capacity_full_scale: Option<usize>,
    window: Option<u64>,
    sample_every: u32,
    io: &IoMixConfig,
) -> Vec<(RunResult, RunReport)> {
    scoped_map(cfg.effective_jobs(), specs.to_vec(), |spec| {
        let mut run = MixRun::new(cfg, apps).spec(&spec).io(io.clone());
        if let Some(bytes) = llc_capacity_full_scale {
            run = run.llc_capacity_full_scale(bytes);
        }
        run.run_report_analyzed(window, sample_every)
    })
}

/// Builds one warm baseline checkpoint for `apps` under `cfg`.
fn warm_once(
    cfg: &SimConfig,
    apps: &[SpecApp],
    llc_capacity_full_scale: Option<usize>,
    window: Option<Option<u64>>,
) -> Checkpoint {
    let mut run = MixRun::new(cfg, apps).spec(&PolicySpec::baseline());
    if let Some(bytes) = llc_capacity_full_scale {
        run = run.llc_capacity_full_scale(bytes);
    }
    match window {
        Some(w) => run.warm_checkpoint_instrumented(w),
        None => run.warm_checkpoint(),
    }
}

/// The [`CheckpointInfo`] the baseline warm-up of this configuration will
/// produce, with `total_instr` still zero — everything [`WarmCache::key`]
/// needs, computable before any simulation runs.
fn prewarm_info(
    cfg: &SimConfig,
    apps: &[SpecApp],
    llc_capacity_full_scale: Option<usize>,
    window: Option<Option<u64>>,
) -> CheckpointInfo {
    CheckpointInfo::new(
        cfg,
        apps,
        llc_capacity_full_scale,
        &PolicySpec::baseline().name,
        window,
    )
}

/// [`warm_once`] with an optional on-disk cache in front: a valid cached
/// image is returned as-is, otherwise the warm-up runs and (best-effort)
/// populates the cache. A store failure is not fatal — the freshly warmed
/// checkpoint is correct either way, the next invocation just warms again.
fn warm_once_cached(
    cfg: &SimConfig,
    apps: &[SpecApp],
    llc_capacity_full_scale: Option<usize>,
    window: Option<Option<u64>>,
    cache: Option<&WarmCache>,
) -> Checkpoint {
    if let Some(cache) = cache {
        let expected = prewarm_info(cfg, apps, llc_capacity_full_scale, window);
        if let Some(ck) = cache.lookup(&expected) {
            return ck;
        }
        let ck = warm_once(cfg, apps, llc_capacity_full_scale, window);
        let _ = cache.store(&ck);
        ck
    } else {
        warm_once(cfg, apps, llc_capacity_full_scale, window)
    }
}

/// Warm-start variant of [`run_policy_reports`]: runs the warm-up phase
/// *once* (under the inclusive baseline), checkpoints it, then fans the
/// per-policy measured phases out over the pool, each resuming the same
/// warm image.
///
/// With `N` policies this does `warmup + N * measure` work instead of
/// `N * (warmup + measure)` — the paper's warm-once methodology. Note
/// the semantics differ subtly from the straight-through helper: every
/// policy sees a *baseline-warmed* hierarchy rather than warming under
/// itself (and a thread fast enough to retire its whole quota during
/// warm-up keeps its baseline-phase result). With `warmup == 0` there is
/// nothing to share and this falls back to [`run_policy_reports`]
/// exactly.
///
/// # Errors
///
/// Fails only if a resume rejects the just-written checkpoint, which
/// indicates a bug or an impossible configuration.
pub fn run_policy_reports_warm_start(
    cfg: &SimConfig,
    apps: &[SpecApp],
    specs: &[PolicySpec],
    llc_capacity_full_scale: Option<usize>,
    window: Option<u64>,
) -> Result<Vec<(RunResult, Option<RunReport>)>, SnapshotError> {
    run_policy_reports_warm_start_cached(cfg, apps, specs, llc_capacity_full_scale, window, None)
}

/// [`run_policy_reports_warm_start`] with an optional [`WarmCache`]: when a
/// cache directory is supplied and already holds the warm image for this
/// exact configuration, the warm-up phase is skipped entirely; otherwise
/// the warm-up runs once and its image is stored for next time. Results
/// are bit-identical with and without the cache (the image *is* the warm
/// state).
///
/// # Errors
///
/// Fails only if a resume rejects the warm checkpoint, which indicates a
/// bug or an impossible configuration (cache corruption is handled by
/// ignoring the bad file and re-warming).
pub fn run_policy_reports_warm_start_cached(
    cfg: &SimConfig,
    apps: &[SpecApp],
    specs: &[PolicySpec],
    llc_capacity_full_scale: Option<usize>,
    window: Option<u64>,
    warm_cache: Option<&WarmCache>,
) -> Result<Vec<(RunResult, Option<RunReport>)>, SnapshotError> {
    if cfg.warmup_quota() == 0 {
        return Ok(run_policy_reports(
            cfg,
            apps,
            specs,
            llc_capacity_full_scale,
            window,
        ));
    }
    let ck = warm_once_cached(
        cfg,
        apps,
        llc_capacity_full_scale,
        window.map(Some),
        warm_cache,
    );
    scoped_map(cfg.effective_jobs(), specs.to_vec(), |spec| {
        let mut run = MixRun::new(cfg, apps).spec(&spec);
        if let Some(bytes) = llc_capacity_full_scale {
            run = run.llc_capacity_full_scale(bytes);
        }
        match window {
            Some(w) => run
                .resume_report(&ck, Some(w))
                .map(|(result, report)| (result, Some(report))),
            None => run.resume(&ck).map(|result| (result, None)),
        }
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tla_workloads::table2_mixes;

    fn quick() -> SimConfig {
        SimConfig::scaled_down().instructions(15_000)
    }

    #[test]
    fn run_alone_returns_quota() {
        let t = run_alone(&quick(), SpecApp::DealII);
        assert_eq!(t.instructions, 15_000);
        assert_eq!(t.app, SpecApp::DealII);
    }

    #[test]
    fn mpki_table_covers_all_apps() {
        let cfg = quick().instructions(5_000);
        let rows = mpki_table(&cfg);
        assert_eq!(rows.len(), 15);
        for r in &rows {
            assert!(r.l1_mpki >= r.l2_mpki - 1e-9, "{}: L1 >= L2", r.app);
            assert!(r.l2_mpki >= r.llc_mpki - 1e-9, "{}: L2 >= LLC", r.app);
        }
    }

    #[test]
    fn run_alone_many_matches_individual_runs() {
        let cfg = quick().instructions(5_000);
        let apps = [SpecApp::DealII, SpecApp::Mcf, SpecApp::Sjeng];
        let many = run_alone_many(&cfg, &apps);
        assert_eq!(many.len(), 3);
        for (app, t) in apps.iter().zip(&many) {
            let solo = run_alone(&cfg, *app);
            assert_eq!(t.app, *app);
            assert_eq!(t.stats, solo.stats);
            assert_eq!(t.cycles, solo.cycles);
        }
    }

    #[test]
    fn policy_reports_keep_spec_order_and_windows() {
        let cfg = quick().instructions(5_000);
        let apps = [SpecApp::Libquantum, SpecApp::Sjeng];
        let specs = [PolicySpec::baseline(), PolicySpec::qbs()];
        let out = run_policy_reports(&cfg, &apps, &specs, None, Some(2_000));
        assert_eq!(out.len(), 2);
        for ((result, report), spec) in out.iter().zip(&specs) {
            assert_eq!(result.spec_name, spec.name);
            let report = report.as_ref().expect("window requested");
            assert_eq!(report.policy, spec.name);
            assert!(!report.windows.is_empty());
        }
        let plain = run_policy_reports(&cfg, &apps, &specs, None, None);
        assert!(plain.iter().all(|(_, rep)| rep.is_none()));
        assert_eq!(plain[1].0.global, out[1].0.global);
    }

    #[test]
    fn warm_start_reports_share_one_warmup() {
        let cfg = quick().warmup(20_000).instructions(5_000);
        let apps = [SpecApp::Mcf, SpecApp::Libquantum];
        let specs = [PolicySpec::baseline(), PolicySpec::qbs(), PolicySpec::eci()];
        let out = run_policy_reports_warm_start(&cfg, &apps, &specs, None, Some(5_000)).unwrap();
        assert_eq!(out.len(), 3);
        for ((result, report), spec) in out.iter().zip(&specs) {
            assert_eq!(result.spec_name, spec.name);
            assert_eq!(report.as_ref().unwrap().policy, spec.name);
        }
        // The baseline entry warmed under itself, so it must be
        // bit-identical to the straight-through baseline run.
        let straight = run_policy_reports(&cfg, &apps, &specs[..1], None, Some(5_000));
        assert_eq!(out[0].0.global, straight[0].0.global);
        assert_eq!(
            out[0].1.as_ref().unwrap().to_json_string(),
            straight[0].1.as_ref().unwrap().to_json_string()
        );
        // And the fan-out is deterministic.
        let again = run_policy_reports_warm_start(&cfg, &apps, &specs, None, Some(5_000)).unwrap();
        assert_eq!(out[2].0.global, again[2].0.global);
    }

    #[test]
    fn warm_start_without_warmup_falls_back_exactly() {
        let cfg = quick().instructions(5_000);
        let apps = [SpecApp::Libquantum, SpecApp::Sjeng];
        let specs = [PolicySpec::baseline(), PolicySpec::qbs()];
        let warm = run_policy_reports_warm_start(&cfg, &apps, &specs, None, None).unwrap();
        let straight = run_policy_reports(&cfg, &apps, &specs, None, None);
        for ((a, _), (b, _)) in warm.iter().zip(&straight) {
            assert_eq!(a.global, b.global);
            assert_eq!(a.threads[0].stats, b.threads[0].stats);
        }
    }

    #[test]
    fn warm_cache_hits_are_bit_identical() {
        let dir = std::env::temp_dir().join(format!("tla-runner-warmcache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = WarmCache::open(&dir).unwrap();
        let cfg = quick().warmup(20_000).instructions(5_000);
        let apps = [SpecApp::Mcf, SpecApp::Libquantum];
        let specs = [PolicySpec::baseline(), PolicySpec::qbs()];

        let uncached = run_policy_reports_warm_start(&cfg, &apps, &specs, None, None).unwrap();
        // First cached call warms and populates the directory...
        let first =
            run_policy_reports_warm_start_cached(&cfg, &apps, &specs, None, None, Some(&cache))
                .unwrap();
        let stored = cache.entries().unwrap();
        assert_eq!(stored.len(), 1, "one warm image per configuration");
        let expected = super::prewarm_info(&cfg, &apps, None, None);
        assert!(
            stored[0]
                .path
                .to_string_lossy()
                .contains(&WarmCache::key(&expected)),
            "file is named by the configuration key"
        );
        // ... second call resumes the stored image without re-warming.
        let second =
            run_policy_reports_warm_start_cached(&cfg, &apps, &specs, None, None, Some(&cache))
                .unwrap();
        for ((u, _), ((f, _), (s, _))) in uncached.iter().zip(first.iter().zip(&second)) {
            assert_eq!(u.global, f.global);
            assert_eq!(f.global, s.global);
            assert_eq!(f.threads[0].stats, s.threads[0].stats);
        }

        // A corrupt cache file is ignored, not fatal.
        std::fs::write(&stored[0].path, b"garbage").unwrap();
        let after =
            run_policy_reports_warm_start_cached(&cfg, &apps, &specs, None, None, Some(&cache))
                .unwrap();
        assert_eq!(after[1].0.global, second[1].0.global);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn analyzed_reports_keep_order_and_carry_analytics() {
        let cfg = quick().instructions(5_000);
        let apps = [SpecApp::Mcf, SpecApp::Libquantum];
        let specs = [PolicySpec::baseline(), PolicySpec::qbs()];
        let out = run_policy_reports_analyzed(&cfg, &apps, &specs, None, Some(2_000), 4);
        assert_eq!(out.len(), 2);
        for ((result, report), spec) in out.iter().zip(&specs) {
            assert_eq!(result.spec_name, spec.name);
            assert_eq!(report.policy, spec.name);
            let reuse = report.reuse.as_ref().expect("analytics attached");
            assert_eq!(reuse.sample_every, 4);
            let rate = report.inclusion_victim_rate.expect("victim rate attached");
            assert!((0.0..=1.0).contains(&rate));
        }
        // Observation-only: bit-identical to the plain suite.
        let plain = run_policy_reports(&cfg, &apps, &specs, None, None);
        for ((a, _), (p, _)) in out.iter().zip(&plain) {
            assert_eq!(a.global, p.global);
        }
    }

    #[test]
    fn suite_indexing_and_normalization() {
        let cfg = quick().instructions(5_000);
        let mixes = &table2_mixes()[..2];
        let specs = vec![PolicySpec::baseline(), PolicySpec::qbs()];
        let results = run_mix_suite(&cfg, mixes, &specs, None);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].runs.len(), 2);
        let base = &results[0];
        let norm = results[0].normalized_throughput(base);
        assert!(norm.iter().all(|&x| (x - 1.0).abs() < 1e-12));
        let g = results[1].geomean_throughput(base).unwrap();
        assert!(g > 0.5 && g < 2.0);
        let red = results[1].miss_reduction_pct(base);
        assert_eq!(red.len(), 2);
    }

    #[test]
    fn geomean_throughput_zero_ratio_is_none_not_panic() {
        // Regression: a suite containing a run with zero throughput (no
        // committed instructions — e.g. a frozen measurement window) made
        // `geomean_throughput` panic through `geomean(..).unwrap()`. The
        // undefined mean now propagates as `None` for the caller to flag.
        let zero_run = RunResult {
            threads: Vec::new(),
            global: Default::default(),
            io: None,
            spec_name: "frozen".into(),
        };
        let suite = SuiteResult {
            spec: PolicySpec::baseline(),
            runs: vec![zero_run],
        };
        assert_eq!(suite.normalized_throughput(&suite), vec![0.0]);
        assert_eq!(suite.geomean_throughput(&suite), None);
        assert_eq!(
            tla_types::stats::fmt_ratio(suite.geomean_throughput(&suite)),
            "n/a"
        );
    }
}
