//! The run grid behind `tla-cli` and the paper's figures.
//!
//! Every experiment is a list of [`RunKey`]s: one request per run, naming
//! everything that shapes its result and how it is observed.
//! [`run_grid`] runs each distinct key once, over a single
//! [`tla_pool::scoped_map`] fan-out, and hands every requester its
//! output. Each run is self-contained and seeded, so results are
//! bit-identical to serial execution and outputs keep input order; the
//! job count only changes wall-clock time.

use crate::checkpoint::CheckpointInfo;
use crate::config::SimConfig;
use crate::policyspec::PolicySpec;
use crate::run::{MixRun, RunResult};
use crate::warmcache::WarmCache;
use std::cmp::Reverse;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use tla_io::IoMixConfig;
use tla_pool::scoped_map;
use tla_snapshot::SnapshotError;
use tla_telemetry::RunReport;
use tla_workloads::{Mix, SpecApp};

/// How a run is observed: what it yields beside its [`RunResult`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Observe {
    /// Statistics only; no telemetry is collected.
    Plain,
    /// A [`RunReport`] with a time series closed every `window` committed
    /// instructions.
    Report(u64),
    /// A [`RunReport`] with the analytics layer attached
    /// ([`MixRun::run_report_analyzed`]): reuse distances sampled in every
    /// `sample_every`-th LLC set, and the inclusion-victim rate.
    Analyzed {
        /// The time-series window, if any.
        window: Option<u64>,
        /// The reuse profiler's set-sampling stride.
        sample_every: u32,
    },
}

/// What one run yields: its result, plus a report unless it was observed
/// [plain](Observe::Plain).
pub type RunOutput = (RunResult, Option<RunReport>);

/// One run request: the mix, the policy spec, the LLC override, the
/// device-I/O mix, every [`SimConfig`] field that shapes results, and the
/// [observation level](Observe).
///
/// Two keys are equal exactly when their runs are: the thread knobs
/// ([`SimConfig::jobs`], [`SimConfig::shard_jobs`]) are left out, and the
/// spec's name is kept because it flows into [`RunResult::spec_name`] and
/// every report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunKey {
    cfg: SimConfig,
    apps: Vec<SpecApp>,
    spec: PolicySpec,
    llc_capacity_full_scale: Option<usize>,
    io: IoMixConfig,
    observe: Observe,
}

impl RunKey {
    /// A plain run of `apps` (one per core) under `spec`, with no LLC
    /// override and no device I/O.
    pub fn new(cfg: &SimConfig, apps: &[SpecApp], spec: &PolicySpec) -> Self {
        RunKey {
            cfg: cfg.without_jobs(),
            apps: apps.to_vec(),
            spec: spec.clone(),
            llc_capacity_full_scale: None,
            io: IoMixConfig::none(),
            observe: Observe::Plain,
        }
    }

    /// Overrides the LLC capacity, expressed at full (scale 1) size, as
    /// [`MixRun::llc_capacity_full_scale`] does; `None` keeps the default.
    #[must_use]
    pub fn llc_override(mut self, bytes: Option<usize>) -> Self {
        self.llc_capacity_full_scale = bytes;
        self
    }

    /// Attaches a device-I/O mix ([`MixRun::io`]).
    #[must_use]
    pub fn io(mut self, io: IoMixConfig) -> Self {
        self.io = io;
        self
    }

    /// Sets the observation level.
    #[must_use]
    pub fn observe(mut self, observe: Observe) -> Self {
        self.observe = observe;
        self
    }

    /// Cores the run occupies.
    pub fn cores(&self) -> usize {
        self.apps.len()
    }

    /// The run this key requests, for what the grid does not do
    /// (checkpoints): the one place a [`MixRun`] is built from a request.
    pub fn mix_run(&self) -> MixRun<'_> {
        MixRun::borrowed(
            &self.cfg,
            &self.apps,
            &self.spec,
            self.llc_capacity_full_scale,
            &self.io,
        )
    }

    /// Runs this key alone (on the calling thread).
    pub fn run(&self) -> RunOutput {
        let run = self.mix_run();
        let (result, report) = match self.observe {
            Observe::Plain => return (run.run(), None),
            Observe::Report(window) => run.run_report(Some(window)),
            Observe::Analyzed {
                window,
                sample_every,
            } => run.run_report_analyzed(window, sample_every),
        };
        (result, Some(report))
    }
}

/// Hashes only the fields that tell most keys apart; equality still
/// compares every field. Hashing every field showed in the set-up time
/// of small grids, such as `io-sweep`'s four runs per device scenario.
impl Hash for RunKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (&self.apps, &self.spec.name, self.llc_capacity_full_scale).hash(state);
    }
}

/// The pool's job list for `keys`. The first vector holds the index of
/// each distinct key's first occurrence, widest mixes first (so long
/// many-core runs start early), otherwise in input order. The second maps
/// every key to the position of its job in the first.
pub fn grid_jobs(keys: &[RunKey]) -> (Vec<usize>, Vec<usize>) {
    // Visiting keys widest first (stably) meets each distinct key first
    // at its first occurrence, in the order its job should run.
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by_key(|&i| Reverse(keys[i].cores()));
    let mut position = HashMap::with_capacity(keys.len());
    let mut jobs = Vec::new();
    let mut slots = vec![0; keys.len()];
    for i in order {
        slots[i] = *position.entry(&keys[i]).or_insert_with(|| {
            jobs.push(i);
            jobs.len() - 1
        });
    }
    (jobs, slots)
}

/// Runs every distinct key of `keys` once on up to `jobs` threads and
/// returns one output per key, in input order; a repeated key gets a copy
/// of its run's output.
pub fn run_grid(keys: &[RunKey], jobs: usize) -> Vec<RunOutput> {
    let (order, slots) = grid_jobs(keys);
    let outputs = scoped_map(jobs, order, |i| keys[i].run());
    if slots.iter().enumerate().all(|(i, &slot)| slot == i) {
        // Every key is distinct and the jobs ran in input order.
        return outputs;
    }
    slots
        .into_iter()
        .map(|slot| outputs[slot].clone())
        .collect()
}

/// Every spec over every mix under one configuration and LLC override:
/// the unit the paper's figures read.
#[derive(Debug, Clone)]
pub struct Suite {
    /// The configuration every run uses.
    pub cfg: SimConfig,
    /// The mixes, in result order.
    pub mixes: Vec<Mix>,
    /// The specs, in result order.
    pub specs: Vec<PolicySpec>,
    /// The LLC capacity override, expressed at scale 1 (for ratio sweeps).
    pub llc_capacity_full_scale: Option<usize>,
}

impl Suite {
    /// The suite's plain runs, spec-major: `[spec][mix]`.
    pub fn keys(&self) -> impl Iterator<Item = RunKey> + '_ {
        self.specs.iter().flat_map(move |spec| {
            self.mixes.iter().map(move |mix| {
                RunKey::new(&self.cfg, &mix.apps, spec).llc_override(self.llc_capacity_full_scale)
            })
        })
    }
}

/// Runs every suite on one grid, so a run two suites share executes
/// once. Results are indexed `[suite][spec]`, each with its runs in mix
/// order.
pub fn run_suites(suites: &[Suite], jobs: usize) -> Vec<Vec<SuiteResult>> {
    let keys: Vec<RunKey> = suites.iter().flat_map(Suite::keys).collect();
    let mut runs = run_grid(&keys, jobs).into_iter().map(|(result, _)| result);
    suites
        .iter()
        .map(|suite| {
            suite
                .specs
                .iter()
                .map(|spec| SuiteResult {
                    spec: spec.clone(),
                    runs: runs.by_ref().take(suite.mixes.len()).collect(),
                })
                .collect()
        })
        .collect()
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
            .map(|(r, b)| {
                let b = b.throughput();
                if b == 0.0 {
                    0.0
                } else {
                    r.throughput() / b
                }
            })
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

/// Every spec in `specs` on one mix, one report per spec in `specs`
/// order — the benchmark's `io-sweep` job. With `window = Some(w)` each
/// run also yields a [`RunReport`] with a `w`-instruction time series;
/// with `None` the runs are plain. A [trivial](IoMixConfig::is_trivial)
/// `io` runs exactly as no I/O at all.
pub fn run_policy_reports_io(
    cfg: &SimConfig,
    apps: &[SpecApp],
    specs: &[PolicySpec],
    llc_capacity_full_scale: Option<usize>,
    window: Option<u64>,
    io: &IoMixConfig,
) -> Vec<RunOutput> {
    let observe = window.map_or(Observe::Plain, Observe::Report);
    let keys = policy_keys(cfg, apps, specs, llc_capacity_full_scale, io, observe);
    run_grid(&keys, cfg.effective_jobs())
}

/// Every spec in `specs` on one mix with the analytics layer attached
/// ([`Observe::Analyzed`]), in `specs` order — the benchmark's `analyze`
/// job. The caller pairs each report with the MIN oracle to fill in
/// `opt_misses` / `gap_to_opt`; each [`RunResult`] is bit-identical to a
/// plain run (the analytics stream is observation-only).
pub fn run_policy_reports_analyzed(
    cfg: &SimConfig,
    apps: &[SpecApp],
    specs: &[PolicySpec],
    llc_capacity_full_scale: Option<usize>,
    window: Option<u64>,
    sample_every: u32,
) -> Vec<(RunResult, RunReport)> {
    let (llc, none) = (llc_capacity_full_scale, IoMixConfig::none());
    let observe = Observe::Analyzed {
        window,
        sample_every,
    };
    let keys = policy_keys(cfg, apps, specs, llc, &none, observe);
    run_grid(&keys, cfg.effective_jobs())
        .into_iter()
        .map(|(result, report)| (result, report.expect("analyzed runs carry a report")))
        .collect()
}

/// One key per spec in `specs`, all on the same mix.
pub fn policy_keys(
    cfg: &SimConfig,
    apps: &[SpecApp],
    specs: &[PolicySpec],
    llc_capacity_full_scale: Option<usize>,
    io: &IoMixConfig,
    observe: Observe,
) -> Vec<RunKey> {
    let key = |spec| {
        RunKey::new(cfg, apps, spec)
            .llc_override(llc_capacity_full_scale)
            .io(io.clone())
            .observe(observe)
    };
    specs.iter().map(key).collect()
}

/// Warm-start variant of [`run_policy_reports_io`]: runs the warm-up phase
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
/// nothing to share and this falls back to [`run_policy_reports_io`]
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
) -> Result<Vec<RunOutput>, SnapshotError> {
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
) -> Result<Vec<RunOutput>, SnapshotError> {
    let llc = llc_capacity_full_scale;
    let none = IoMixConfig::none();
    if cfg.warmup_quota() == 0 {
        return Ok(run_policy_reports_io(cfg, apps, specs, llc, window, &none));
    }
    // One warm baseline image. A valid one in the cache is used as-is;
    // otherwise the warm-up runs and (best-effort) fills the cache. A
    // failed store is not fatal: the next invocation just warms again.
    let baseline = PolicySpec::baseline();
    let cached = warm_cache.and_then(|cache| {
        cache.lookup(&CheckpointInfo::new(
            cfg,
            apps,
            llc,
            &baseline.name,
            window.map(Some),
        ))
    });
    let ck = cached.unwrap_or_else(|| {
        let key = RunKey::new(cfg, apps, &baseline).llc_override(llc);
        let ck = match window {
            Some(w) => key.mix_run().warm_checkpoint_instrumented(Some(w)),
            None => key.mix_run().warm_checkpoint(),
        };
        if let Some(cache) = warm_cache {
            let _ = cache.store(&ck);
        }
        ck
    });
    let keys = policy_keys(cfg, apps, specs, llc, &none, Observe::Plain);
    scoped_map(cfg.effective_jobs(), keys.iter().collect(), |key| {
        let run = key.mix_run();
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
        let (r, report) = RunKey::new(&quick(), &[SpecApp::DealII], &PolicySpec::baseline()).run();
        assert!(report.is_none(), "a plain run has no report");
        assert_eq!(r.threads[0].instructions, 15_000);
        assert_eq!(r.threads[0].app, SpecApp::DealII);
    }

    /// Table I's runs: every app alone, prefetcher off.
    fn alone_keys(cfg: &SimConfig, apps: &[SpecApp]) -> Vec<RunKey> {
        let cfg = cfg.clone().prefetch(false);
        apps.iter()
            .map(|&app| RunKey::new(&cfg, &[app], &PolicySpec::baseline()))
            .collect()
    }

    #[test]
    fn mpki_table_covers_all_apps() {
        let cfg = quick().instructions(5_000);
        let rows = run_grid(&alone_keys(&cfg, &SpecApp::ALL), 2);
        assert_eq!(rows.len(), 15);
        for (r, _) in &rows {
            let t = &r.threads[0];
            assert!(t.l1_mpki() >= t.l2_mpki() - 1e-9, "{}: L1 >= L2", t.app);
            assert!(t.l2_mpki() >= t.llc_mpki() - 1e-9, "{}: L2 >= LLC", t.app);
        }
    }

    #[test]
    fn run_alone_many_matches_individual_runs() {
        let cfg = quick().instructions(5_000);
        let apps = [SpecApp::DealII, SpecApp::Mcf, SpecApp::Sjeng];
        let keys: Vec<RunKey> = apps
            .iter()
            .map(|&app| RunKey::new(&cfg, &[app], &PolicySpec::baseline()))
            .collect();
        let many = run_grid(&keys, 2);
        assert_eq!(many.len(), 3);
        for (app, (r, _)) in apps.iter().zip(&many) {
            let t = &r.threads[0];
            let solo = &MixRun::new(&cfg, &[*app]).run().threads[0];
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
        let none = IoMixConfig::none();
        let out = run_policy_reports_io(&cfg, &apps, &specs, None, Some(2_000), &none);
        assert_eq!(out.len(), 2);
        for ((result, report), spec) in out.iter().zip(&specs) {
            assert_eq!(result.spec_name, spec.name);
            let report = report.as_ref().expect("window requested");
            assert_eq!(report.policy, spec.name);
            assert!(!report.windows.is_empty());
        }
        let plain = run_policy_reports_io(&cfg, &apps, &specs, None, None, &none);
        assert!(plain.iter().all(|(_, rep)| rep.is_none()));
        assert_eq!(plain[1].0.global, out[1].0.global);
    }

    #[test]
    fn keys_ignore_thread_knobs_and_nothing_else() {
        let cfg = quick();
        let apps = [SpecApp::Libquantum, SpecApp::Sjeng];
        let key = |cfg: &SimConfig| RunKey::new(cfg, &apps, &PolicySpec::qbs());
        let base = key(&cfg);
        assert_eq!(key(&cfg.clone().jobs(3)), base);
        assert_eq!(key(&cfg.clone().shard_jobs(4)), base);
        assert_eq!(key(&cfg.clone().jobs(1).shard_jobs(0)), base);

        let slow_memory = tla_cpu::CoreModelConfig {
            latencies: tla_cpu::Latencies {
                memory: 300,
                ..cfg.core_config().latencies
            },
            ..*cfg.core_config()
        };
        let changed = [
            key(&cfg.clone().seed(1)),
            key(&cfg.clone().instructions(15_001)),
            key(&cfg.clone().warmup(1)),
            key(&cfg.clone().prefetch(false)),
            key(&cfg.clone().core_model(slow_memory)),
            key(&cfg.clone().with_scale(4)),
            base.clone().llc_override(Some(1 << 20)),
            base.clone()
                .io(IoMixConfig::none().agent(tla_io::IoAgentSpec::nic())),
            base.clone().observe(Observe::Report(1_000)),
            RunKey::new(&cfg, &apps, &PolicySpec::eci()),
            RunKey::new(&cfg, &apps[..1], &PolicySpec::qbs()),
            RunKey::new(&cfg, &apps, &PolicySpec::tlh_l1_filtered(0.1)),
        ];
        for (i, k) in changed.iter().enumerate() {
            assert_ne!(*k, base, "change {i} must change the key");
            for other in &changed[i + 1..] {
                assert_ne!(k, other);
            }
        }
        // A float field is keyed by its bits: equal values, equal keys.
        assert_eq!(
            RunKey::new(&cfg, &apps, &PolicySpec::tlh_l1_filtered(0.1)),
            changed[11]
        );
    }

    #[test]
    fn grid_runs_each_distinct_key_once_widest_first() {
        let cfg = quick().instructions(5_000);
        let pair = [SpecApp::Mcf, SpecApp::Libquantum];
        let quad = [
            SpecApp::Mcf,
            SpecApp::Libquantum,
            SpecApp::Sjeng,
            SpecApp::Astar,
        ];
        let keys = vec![
            RunKey::new(&cfg, &pair, &PolicySpec::baseline()),
            RunKey::new(&cfg, &quad, &PolicySpec::baseline()),
            RunKey::new(&cfg.clone().jobs(2), &pair, &PolicySpec::baseline()),
            RunKey::new(&cfg, &pair, &PolicySpec::qbs()),
            RunKey::new(&cfg, &quad, &PolicySpec::baseline()),
        ];
        let (jobs, slots) = grid_jobs(&keys);
        assert_eq!(jobs, vec![1, 0, 3], "distinct keys, most cores first");
        assert_eq!(slots, vec![1, 0, 1, 2, 0]);
        let out = run_grid(&keys, 2);
        assert_eq!(out.len(), keys.len());
        assert_eq!(out[0].0.global, out[2].0.global);
        assert_eq!(out[1].0.threads[3].stats, out[4].0.threads[3].stats);
        let solo = MixRun::new(&cfg, &pair).spec(&PolicySpec::qbs()).run();
        assert_eq!(out[3].0.global, solo.global);
        assert_eq!(out[3].0.spec_name, "QBS");
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
        let straight = run_policy_reports_io(
            &cfg,
            &apps,
            &specs[..1],
            None,
            Some(5_000),
            &IoMixConfig::none(),
        );
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
        let straight = run_policy_reports_io(&cfg, &apps, &specs, None, None, &IoMixConfig::none());
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
        let baseline = PolicySpec::baseline();
        let expected = CheckpointInfo::new(&cfg, &apps, None, &baseline.name, None);
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
        let plain = run_policy_reports_io(&cfg, &apps, &specs, None, None, &IoMixConfig::none());
        for ((a, _), (p, _)) in out.iter().zip(&plain) {
            assert_eq!(a.global, p.global);
        }
    }

    #[test]
    fn suite_indexing_and_normalization() {
        let cfg = quick().instructions(5_000);
        let suite = Suite {
            cfg,
            mixes: table2_mixes()[..2].to_vec(),
            specs: vec![PolicySpec::baseline(), PolicySpec::qbs()],
            llc_capacity_full_scale: None,
        };
        let results = run_suites(&[suite], 2).remove(0);
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
