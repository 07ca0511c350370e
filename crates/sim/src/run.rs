//! One multiprogrammed simulation run.

use crate::checkpoint::{self, Checkpoint, CheckpointInfo};
use crate::config::SimConfig;
use crate::policyspec::PolicySpec;
use crate::sched::CoreScheduler;
use std::borrow::Cow;
use tla_core::{
    CacheHierarchy, GlobalStats, HierarchyConfig, InclusionPolicy, IoInjectConfig, PerCoreStats,
    TlaPolicy, VictimCacheConfig,
};
use tla_cpu::CoreModel;
use tla_io::{IoMixConfig, IoStream};
use tla_snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use tla_telemetry::{
    ConfigEcho, CountingSink, EventKind, IoReport, MultiSink, PerSetHistogram, ReuseProfiler,
    ReuseReport, RunReport, SetHistogramReport, SharedSink, TelemetrySink, ThreadReport, Window,
    WindowedSeries, DEFAULT_REUSE_BUCKETS,
};
use tla_types::{stats, AccessKind, CoreId, Cycle, IoAgentStats, IoStats, LineAddr};
use tla_workloads::{SpecApp, SyntheticTrace, TraceSource};

/// Which execution loop drives the engine.
///
/// Both loops commit the same instructions in the same global order and
/// are byte-identical in every output (results, reports, checkpoints);
/// they differ only in wall-clock. Every run uses the batched loop unless
/// [`MixRun::engine_mode`] pins another; the serial loop is kept only as
/// the reference the equivalence tests check the batched loop against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Run extraction: pop a core once and commit a whole run of its
    /// instructions back-to-back (generator, core model and L1/L2 state
    /// hot) until its clock passes the scheduler horizon.
    Batched,
    /// The original loop: one heap pop, one instruction, one push.
    Serial,
}

/// Frozen results of one thread (statistics collected over exactly the
/// configured instruction quota, as in §IV-B).
#[derive(Debug, Clone)]
pub struct ThreadResult {
    /// The benchmark this thread ran.
    pub app: SpecApp,
    /// Instructions committed before the freeze.
    pub instructions: u64,
    /// Cycles elapsed when the quota retired.
    pub cycles: Cycle,
    /// Hierarchy counters attributed to this thread at the freeze point.
    pub stats: PerCoreStats,
}

impl ThreadResult {
    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Combined L1 misses per 1000 instructions.
    pub fn l1_mpki(&self) -> f64 {
        stats::mpki(self.stats.l1_misses(), self.instructions)
    }

    /// L2 misses per 1000 instructions.
    pub fn l2_mpki(&self) -> f64 {
        stats::mpki(self.stats.l2_misses, self.instructions)
    }

    /// LLC (demand) misses per 1000 instructions.
    pub fn llc_mpki(&self) -> f64 {
        stats::mpki(self.stats.llc_misses, self.instructions)
    }
}

/// The outcome of one [`MixRun`].
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Per-thread results in core order.
    pub threads: Vec<ThreadResult>,
    /// Whole-hierarchy message counters over the entire run (including the
    /// post-freeze tail of faster threads).
    pub global: GlobalStats,
    /// Device-injection counters (whole run) when I/O agents were
    /// configured: `(global totals, per-agent breakdown in spec order)`.
    /// `None` whenever the mix ran without I/O, so plain runs stay
    /// bit-identical to pre-I/O builds.
    pub io: Option<(IoStats, Vec<IoAgentStats>)>,
    /// The policy configuration that produced this result.
    pub spec_name: String,
}

impl RunResult {
    /// Throughput: the sum of per-thread IPCs (the paper's throughput
    /// metric, footnote 5).
    pub fn throughput(&self) -> f64 {
        self.threads.iter().map(ThreadResult::ipc).sum()
    }

    /// Weighted speedup given each thread's isolated IPC:
    /// `sum(IPC_shared / IPC_alone)`.
    ///
    /// # Panics
    ///
    /// Panics if `alone_ipc` has the wrong length.
    pub fn weighted_speedup(&self, alone_ipc: &[f64]) -> f64 {
        assert_eq!(alone_ipc.len(), self.threads.len());
        self.threads
            .iter()
            .zip(alone_ipc)
            .map(|(t, &a)| if a > 0.0 { t.ipc() / a } else { 0.0 })
            .sum()
    }

    /// Harmonic-mean fairness metric: `N / sum(IPC_alone / IPC_shared)`.
    ///
    /// # Panics
    ///
    /// Panics if `alone_ipc` has the wrong length.
    pub fn hmean_fairness(&self, alone_ipc: &[f64]) -> f64 {
        assert_eq!(alone_ipc.len(), self.threads.len());
        let inv: f64 = self
            .threads
            .iter()
            .zip(alone_ipc)
            .map(|(t, &a)| {
                let ipc = t.ipc();
                if ipc > 0.0 {
                    a / ipc
                } else {
                    f64::INFINITY
                }
            })
            .sum();
        self.threads.len() as f64 / inv
    }

    /// Total demand LLC misses across threads (within their quotas).
    pub fn llc_misses(&self) -> u64 {
        self.threads.iter().map(|t| t.stats.llc_misses).sum()
    }

    /// Total inclusion victims suffered across threads.
    pub fn inclusion_victims(&self) -> u64 {
        self.threads
            .iter()
            .map(|t| t.stats.inclusion_victims())
            .sum()
    }
}

/// Builder for one simulation run of a workload mix under one policy.
///
/// # Examples
///
/// ```
/// use tla_sim::{MixRun, SimConfig};
/// use tla_core::TlaPolicy;
/// use tla_workloads::SpecApp;
///
/// let cfg = SimConfig::scaled_down().instructions(5_000);
/// let r = MixRun::new(&cfg, &[SpecApp::DealII, SpecApp::Mcf])
///     .policy(TlaPolicy::eci())
///     .run();
/// assert_eq!(r.threads[0].app, SpecApp::DealII);
/// ```
#[derive(Debug, Clone)]
pub struct MixRun<'a> {
    cfg: &'a SimConfig,
    apps: Cow<'a, [SpecApp]>,
    spec: Cow<'a, PolicySpec>,
    llc_capacity_full_scale: Option<usize>,
    profile_llc: bool,
    engine: EngineMode,
    io: Cow<'a, IoMixConfig>,
}

impl<'a> MixRun<'a> {
    /// Prepares a run of `apps` (one per core) under the inclusive
    /// baseline.
    ///
    /// # Panics
    ///
    /// Panics if `apps` is empty.
    pub fn new(cfg: &'a SimConfig, apps: &[SpecApp]) -> Self {
        assert!(!apps.is_empty(), "a mix needs at least one app");
        MixRun {
            cfg,
            apps: Cow::Owned(apps.to_vec()),
            spec: Cow::Owned(PolicySpec::baseline()),
            llc_capacity_full_scale: None,
            profile_llc: false,
            engine: EngineMode::Batched,
            io: Cow::Owned(IoMixConfig::none()),
        }
    }

    /// The run a [`crate::RunKey`] requests, borrowing the key's parts
    /// instead of copying them.
    pub(crate) fn borrowed(
        cfg: &'a SimConfig,
        apps: &'a [SpecApp],
        spec: &'a PolicySpec,
        llc_capacity_full_scale: Option<usize>,
        io: &'a IoMixConfig,
    ) -> Self {
        assert!(!apps.is_empty(), "a mix needs at least one app");
        MixRun {
            cfg,
            apps: Cow::Borrowed(apps),
            spec: Cow::Borrowed(spec),
            llc_capacity_full_scale,
            profile_llc: false,
            engine: EngineMode::Batched,
            io: Cow::Borrowed(io),
        }
    }

    /// Attaches a device-I/O mix: agents injecting DMA traffic straight
    /// into the LLC (DDIO-style) alongside the cores, plus the
    /// injection-way limit / partition knobs. A [trivial](IoMixConfig::is_trivial)
    /// config leaves the run bit-identical to one built without this
    /// call.
    #[must_use]
    pub fn io(mut self, io: IoMixConfig) -> Self {
        self.io = Cow::Owned(io);
        self
    }

    /// Pins the execution loop for this run (batched by default). Output
    /// is byte-identical either way; the pin exists so the equivalence
    /// tests can check the batched loop against the serial reference.
    #[must_use]
    pub fn engine_mode(mut self, mode: EngineMode) -> Self {
        self.engine = mode;
        self
    }

    /// Sets the whole policy configuration at once.
    #[must_use]
    pub fn spec(mut self, spec: &PolicySpec) -> Self {
        self.spec = Cow::Owned(spec.clone());
        self
    }

    /// Sets just the TLA policy (keeping the inclusive base).
    #[must_use]
    pub fn policy(mut self, tla: TlaPolicy) -> Self {
        let spec = self.spec.to_mut();
        spec.name = tla.label();
        spec.tla = tla;
        self
    }

    /// Sets just the inclusion mode.
    #[must_use]
    pub fn inclusion(mut self, inclusion: InclusionPolicy) -> Self {
        self.spec.to_mut().inclusion = inclusion;
        self
    }

    /// Overrides the LLC capacity, expressed at full (scale 1) size — e.g.
    /// `8 * 1024 * 1024` for the paper's 8 MB point; the configured scale
    /// divisor is applied automatically.
    #[must_use]
    pub fn llc_capacity_full_scale(mut self, bytes: usize) -> Self {
        self.llc_capacity_full_scale = Some(bytes);
        self
    }

    /// Executes the run to completion.
    pub fn run(self) -> RunResult {
        self.execute(None, None).0
    }

    /// Executes the run with a caller-provided telemetry sink installed:
    /// every hierarchy event is delivered to `sink`, stamped with the
    /// committing instruction (1-based total across cores). Hand in a
    /// [`SharedSink`] clone to read the collector back afterwards.
    pub fn run_with_sink(self, sink: impl TelemetrySink + 'static) -> RunResult {
        self.execute(None, Some(Box::new(sink))).0
    }

    /// The hierarchy configuration this run would build.
    fn hierarchy_config(&self) -> HierarchyConfig {
        let scale = self.cfg.scale() as usize;
        let mut hcfg: HierarchyConfig = HierarchyConfig::scaled(self.apps.len(), scale)
            .inclusion_policy(self.spec.inclusion)
            .tla(self.spec.tla)
            .seed(self.cfg.seed_value());
        if let Some(entries) = self.spec.victim_cache {
            hcfg = hcfg.victim_cache(VictimCacheConfig { entries });
        }
        if let Some(policy) = self.spec.llc_replacement {
            hcfg = hcfg.llc_policy(policy);
        }
        if let Some(bytes) = self.llc_capacity_full_scale {
            hcfg = hcfg.llc_capacity(bytes / scale);
        }
        if !self.cfg.prefetch_enabled() {
            hcfg = hcfg.prefetcher(None);
        }
        if !self.io.is_trivial() {
            hcfg = hcfg.io(IoInjectConfig {
                agents: self.io.agents.len(),
                inject_ways: self.io.inject_ways,
                partition: self.io.partition,
            });
        }
        hcfg
    }

    fn execute(
        &self,
        telemetry: Option<Option<u64>>,
        extra_sink: Option<Box<dyn TelemetrySink>>,
    ) -> (RunResult, Option<RunTelemetry>) {
        let collect = telemetry.is_some();
        let spec_name = self.spec.name.clone();
        let mut engine = Engine::new(self, telemetry, extra_sink);
        engine.run_to_completion();
        engine.finish(collect, spec_name)
    }

    /// Label of this run's mix, e.g. `"lib+sje"`.
    pub fn mix_label(&self) -> String {
        let names: Vec<&str> = self.apps.iter().map(|a| a.short_name()).collect();
        names.join("+")
    }

    /// Executes the run with telemetry and packages everything into a
    /// machine-readable [`RunReport`] (config echo, final stats, time
    /// series, histograms) ready for JSON output: event totals, per-set
    /// eviction/inclusion-victim histograms and — when `window` is set — a
    /// windowed time series closed every `window` committed instructions
    /// (summed across cores).
    ///
    /// Collection spans the whole run including warm-up (the time series
    /// is precisely what makes the warm-up transient visible); the
    /// [`RunResult`] keeps its usual measured-phase semantics.
    pub fn run_report(self, window: Option<u64>) -> (RunResult, RunReport) {
        let (result, telemetry) = self.execute(Some(window), None);
        let report = self.report(&result, telemetry);
        (result, report)
    }

    /// [`run_report`](MixRun::run_report) with the analytics layer
    /// attached: the hierarchy emits per-access LLC telemetry into an
    /// online reuse-distance profiler sampling every `sample_every`-th
    /// LLC set, and the report carries the resulting [`ReuseReport`]
    /// plus the measured inclusion-victim rate (the fraction of L2
    /// misses the attribution hooks charged to LLC-caused kills).
    ///
    /// The per-access event stream is observation-only, so the
    /// [`RunResult`] is bit-identical to a plain [`run`](MixRun::run).
    ///
    /// A zero `sample_every` is clamped to 1 by the profiler (see
    /// [`ReuseProfiler::new`]).
    pub fn run_report_analyzed(
        mut self,
        window: Option<u64>,
        sample_every: u32,
    ) -> (RunResult, RunReport) {
        let llc_sets = self.hierarchy_config().llc().sets();
        let profiler = SharedSink::new(ReuseProfiler::new(
            llc_sets,
            sample_every,
            DEFAULT_REUSE_BUCKETS,
        ));
        self.profile_llc = true;
        let (result, telemetry) = self.execute(Some(window), Some(Box::new(profiler.clone())));
        let mut report = self.report(&result, telemetry);
        report.reuse = Some(profiler.with(|p| ReuseReport::from(p)));
        report.inclusion_victim_rate = Some(report.measured_victim_rate());
        (result, report)
    }

    /// Packages this finished run plus its telemetry as a [`RunReport`];
    /// the report has an `"io"` key only when the run had I/O agents.
    fn report(&self, result: &RunResult, telemetry: Option<RunTelemetry>) -> RunReport {
        let telemetry = telemetry.expect("telemetry was requested");
        RunReport {
            mix: self.mix_label(),
            policy: self.spec.name.clone(),
            config: self.config_echo(),
            threads: self
                .apps
                .iter()
                .zip(&result.threads)
                .map(|(app, t)| ThreadReport {
                    app: app.short_name().to_string(),
                    instructions: t.instructions,
                    cycles: t.cycles,
                    stats: t.stats,
                })
                .collect(),
            global: result.global,
            event_totals: telemetry.event_totals,
            window_size: telemetry.window_size,
            windows: telemetry.windows,
            set_histogram: Some(telemetry.set_histogram),
            opt_misses: None,
            gap_to_opt: None,
            inclusion_victim_rate: None,
            reuse: None,
            io: result.io.as_ref().map(|(stats, agents)| IoReport {
                stats: *stats,
                agents: self
                    .io
                    .agents
                    .iter()
                    .map(|a| a.label())
                    .zip(agents.iter().copied())
                    .collect(),
            }),
        }
    }

    /// Echo of every knob that shaped this run, for report provenance.
    fn config_echo(&self) -> ConfigEcho {
        let mut echo = ConfigEcho::new()
            .with("cores", self.apps.len())
            .with("scale", self.cfg.scale())
            .with("instructions", self.cfg.instruction_quota())
            .with("warmup", self.cfg.warmup_quota())
            .with("seed", self.cfg.seed_value())
            .with("prefetch", self.cfg.prefetch_enabled())
            .with("inclusion", format!("{:?}", self.spec.inclusion))
            .with("tla_policy", self.spec.tla.label());
        if let Some(entries) = self.spec.victim_cache {
            echo.set("victim_cache_entries", entries);
        }
        if let Some(policy) = self.spec.llc_replacement {
            echo.set("llc_replacement", format!("{policy:?}"));
        }
        if let Some(bytes) = self.llc_capacity_full_scale {
            echo.set("llc_capacity_full_scale", bytes);
        }
        if !self.io.is_trivial() {
            echo.set("io", self.io.label());
        }
        echo
    }

    /// Runs the warm-up phase only and freezes the complete simulator
    /// state into a [`Checkpoint`].
    ///
    /// Resuming the checkpoint (under this or any other policy spec)
    /// continues the run bit-exactly from the freeze point. With
    /// `warmup == 0` the checkpoint captures the pristine initial state.
    pub fn warm_checkpoint(self) -> Checkpoint {
        self.make_checkpoint(None)
    }

    /// Like [`warm_checkpoint`](MixRun::warm_checkpoint), but with
    /// telemetry collectors attached and serialized, so the resumed run
    /// can produce a [`RunReport`] identical to a straight-through
    /// [`run_report`](MixRun::run_report) with the same `window`.
    pub fn warm_checkpoint_instrumented(self, window: Option<u64>) -> Checkpoint {
        self.make_checkpoint(Some(window))
    }

    fn make_checkpoint(self, telemetry: Option<Option<u64>>) -> Checkpoint {
        assert!(
            self.io.is_trivial(),
            "checkpoints do not cover device I/O agents; run I/O mixes straight through"
        );
        let info = CheckpointInfo::new(
            self.cfg,
            &self.apps,
            self.llc_capacity_full_scale,
            &self.spec.name,
            telemetry,
        );
        let mut engine = Engine::new(&self, telemetry, None);
        engine.run_to_warm();
        let info = CheckpointInfo {
            total_instr: engine.total_instr,
            ..info
        };
        let mut w = SnapshotWriter::new();
        w.begin_section("meta");
        checkpoint::write_meta(&mut w, &info);
        w.end_section();
        w.begin_section("sim");
        engine.write_state(&mut w);
        w.end_section();
        if info.instrumented {
            w.begin_section("telemetry");
            engine.write_telemetry_state(&mut w);
            w.end_section();
        }
        Checkpoint::from_raw(w.finish())
    }

    /// Resumes `checkpoint` under this run's policy spec and executes the
    /// measured phase to completion.
    ///
    /// Everything but the policy spec must match the warming run: same
    /// mix, scale, seed, quotas, prefetch setting and LLC override.
    ///
    /// # Errors
    ///
    /// Fails with [`SnapshotError::Mismatch`] when this run's
    /// configuration differs from the checkpoint's on any pinned axis,
    /// or with a decode error when the bytes are corrupt.
    pub fn resume(self, checkpoint: &Checkpoint) -> Result<RunResult, SnapshotError> {
        Ok(self.resume_inner(checkpoint, None)?.0)
    }

    /// Resumes `checkpoint` and packages the result as a [`RunReport`],
    /// exactly like [`run_report`](MixRun::run_report) would have.
    ///
    /// Requires an instrumented checkpoint whose window matches `window`
    /// — the collectors span the whole run, so they must have been
    /// recording since instruction one.
    ///
    /// # Errors
    ///
    /// Fails like [`resume`](MixRun::resume), and additionally when the
    /// checkpoint carries no telemetry or was recorded with a different
    /// window size.
    pub fn resume_report(
        self,
        checkpoint: &Checkpoint,
        window: Option<u64>,
    ) -> Result<(RunResult, RunReport), SnapshotError> {
        let (result, telemetry) = self.resume_inner(checkpoint, Some(window))?;
        let report = self.report(&result, telemetry);
        Ok((result, report))
    }

    /// `want`: `None` resumes plain; `Some(window)` demands telemetry
    /// recorded with exactly that window.
    fn resume_inner(
        &self,
        checkpoint: &Checkpoint,
        want: Option<Option<u64>>,
    ) -> Result<(RunResult, Option<RunTelemetry>), SnapshotError> {
        let info = checkpoint.info()?;
        self.check_resume_compatible(&info)?;
        if let Some(window) = want {
            if !info.instrumented {
                return Err(SnapshotError::Mismatch(
                    "a report was requested but the checkpoint was saved without telemetry \
                     (re-save it instrumented)"
                        .into(),
                ));
            }
            if info.window != window {
                return Err(SnapshotError::Mismatch(format!(
                    "checkpoint telemetry uses window {:?}, this resume requested {:?}",
                    info.window, window
                )));
            }
        }
        // An instrumented checkpoint is resumed with matching collectors
        // even for a plain resume: the serialized telemetry state must be
        // consumed, and telemetry is observation-only, so the RunResult
        // is unaffected.
        let engine_telemetry = info.instrumented.then_some(info.window);
        let collect = want.is_some();
        let spec_name = self.spec.name.clone();
        let mut engine = Engine::new(self, engine_telemetry, None);
        let mut r = SnapshotReader::new(checkpoint.as_bytes())?;
        r.begin_section("meta")?;
        // Re-parsed only to advance the reader past the section.
        let _ = checkpoint::read_meta(&mut r)?;
        r.end_section()?;
        r.begin_section("sim")?;
        engine.read_state(&mut r)?;
        r.end_section()?;
        if info.instrumented {
            r.begin_section("telemetry")?;
            engine.read_telemetry_state(&mut r)?;
            r.end_section()?;
        }
        engine.run_to_completion();
        Ok(engine.finish(collect, spec_name))
    }

    /// Verifies every pinned configuration axis against the checkpoint.
    fn check_resume_compatible(&self, info: &CheckpointInfo) -> Result<(), SnapshotError> {
        if !self.io.is_trivial() {
            return Err(SnapshotError::Mismatch(
                "checkpoints do not cover device I/O agents; run I/O mixes straight through".into(),
            ));
        }
        let mismatch = |what: &str, ck: String, here: String| {
            Err(SnapshotError::Mismatch(format!(
                "checkpoint was warmed with {what} {ck}, this run is configured for {here}"
            )))
        };
        if info.apps[..] != self.apps[..] {
            return mismatch("mix", info.mix_label(), self.mix_label());
        }
        if info.scale != self.cfg.scale() {
            return mismatch(
                "scale",
                info.scale.to_string(),
                self.cfg.scale().to_string(),
            );
        }
        if info.seed != self.cfg.seed_value() {
            return mismatch(
                "seed",
                info.seed.to_string(),
                self.cfg.seed_value().to_string(),
            );
        }
        if info.warmup != self.cfg.warmup_quota() {
            return mismatch(
                "warm-up quota",
                info.warmup.to_string(),
                self.cfg.warmup_quota().to_string(),
            );
        }
        if info.instructions != self.cfg.instruction_quota() {
            return mismatch(
                "instruction quota",
                info.instructions.to_string(),
                self.cfg.instruction_quota().to_string(),
            );
        }
        if info.prefetch != self.cfg.prefetch_enabled() {
            return mismatch(
                "prefetch",
                info.prefetch.to_string(),
                self.cfg.prefetch_enabled().to_string(),
            );
        }
        if info.llc_capacity_full_scale != self.llc_capacity_full_scale {
            return mismatch(
                "LLC capacity override",
                format!("{:?}", info.llc_capacity_full_scale),
                format!("{:?}", self.llc_capacity_full_scale),
            );
        }
        if info.latencies != self.cfg.core_config().latencies {
            return mismatch(
                "latencies",
                format!("{:?}", info.latencies),
                format!("{:?}", self.cfg.core_config().latencies),
            );
        }
        Ok(())
    }
}

/// One device agent in flight: its deterministic line stream and its
/// own clock, injecting one line every `period` cycles. The serial loop
/// keeps agents in its scheduler heap after the cores (heap index
/// `n_cores + agent`); the batched loop drains them before each core
/// commit ([`Engine::drain_agents`]).
struct IoAgentRuntime {
    stream: IoStream,
    clock: Cycle,
    period: u64,
}

/// The complete state of one in-flight run: the hierarchy, the cores,
/// trace cursors, warm-up bookkeeping and (optionally) the telemetry
/// collectors.
///
/// [`MixRun::execute`] drives it straight to completion; the checkpoint
/// layer instead stops it at the warm-up boundary, serializes it, and
/// later thaws it — possibly under a different policy — to finish the
/// measured phase.
struct Engine {
    hier: CacheHierarchy,
    cores: Vec<CoreModel>,
    traces: Vec<SyntheticTrace>,
    io_agents: Vec<IoAgentRuntime>,
    mode: EngineMode,
    last_code_line: Vec<Option<LineAddr>>,
    frozen: Vec<Option<ThreadResult>>,
    /// Per-thread snapshot taken when the thread crosses the warm-up
    /// boundary: (cycles, stats). Consumed at the freeze.
    warm_mark: Vec<Option<(u64, PerCoreStats)>>,
    /// Threads neither warm-marked nor frozen: the run is warm at zero.
    unwarmed: usize,
    remaining: usize,
    total_instr: u64,
    sched: CoreScheduler,
    /// The smallest device-agent clock ([`Cycle::MAX`] without agents).
    next_io: Cycle,
    warmup: u64,
    quota: u64,
    apps: Vec<SpecApp>,
    /// The event counts and per-set histogram, built only when telemetry
    /// was requested.
    collectors: Option<Collectors>,
    series: Option<WindowedSeries>,
}

/// The collectors an instrumented engine hangs off the hierarchy's event
/// stream.
struct Collectors {
    counts: SharedSink<CountingSink>,
    histogram: SharedSink<PerSetHistogram>,
}

impl Engine {
    fn new(
        run: &MixRun<'_>,
        telemetry: Option<Option<u64>>,
        extra_sink: Option<Box<dyn TelemetrySink>>,
    ) -> Engine {
        let n_cores = run.apps.len();
        let scale = run.cfg.scale();
        let hcfg = run.hierarchy_config();
        let mut hier = CacheHierarchy::new(&hcfg);
        hier.set_access_profiling(run.profile_llc);

        // Telemetry collectors. The counting sink and histogram hang off
        // the hierarchy's event stream; the windowed series is driven from
        // the step loop off the cumulative counters.
        let collectors = telemetry.map(|_| Collectors {
            counts: SharedSink::new(CountingSink::default()),
            histogram: SharedSink::new(PerSetHistogram::new(hier.llc_sets())),
        });
        let series = telemetry.and_then(|w| w).map(WindowedSeries::new);
        if collectors.is_some() || extra_sink.is_some() {
            let mut multi = MultiSink::new();
            if let Some(c) = &collectors {
                multi = multi.with(c.counts.clone()).with(c.histogram.clone());
            }
            if let Some(extra) = extra_sink {
                multi = multi.with(extra);
            }
            hier.set_sink(multi);
        }

        let cores: Vec<CoreModel> = (0..n_cores)
            .map(|_| CoreModel::new(*run.cfg.core_config()))
            .collect();
        let traces: Vec<SyntheticTrace> = run
            .apps
            .iter()
            .enumerate()
            .map(|(i, app)| app.trace(scale, i as u64, run.cfg.seed_value()))
            .collect();
        let warmup = run.cfg.warmup_quota();
        let quota = warmup + run.cfg.instruction_quota();
        let warm_mark = vec![
            if warmup == 0 {
                Some((0, PerCoreStats::default()))
            } else {
                None
            };
            n_cores
        ];
        // Device agents start one period in, so at cycle 0 the cores win
        // and an empty agent list leaves the heap exactly as before. A
        // zero period would inject forever without a core moving.
        let io_agents: Vec<IoAgentRuntime> = run
            .io
            .agents
            .iter()
            .enumerate()
            .map(|(i, spec)| IoAgentRuntime {
                stream: spec.stream(i, scale, run.cfg.seed_value()),
                clock: spec.period.max(1),
                period: spec.period.max(1),
            })
            .collect();
        let sched = schedule(run.engine, &cores, &io_agents);
        let next_io = next_io(&io_agents);
        Engine {
            hier,
            cores,
            traces,
            io_agents,
            mode: run.engine,
            last_code_line: vec![None; n_cores],
            frozen: vec![None; n_cores],
            unwarmed: if warmup == 0 { 0 } else { n_cores },
            warm_mark,
            remaining: n_cores,
            total_instr: 0,
            sched,
            next_io,
            warmup,
            quota,
            apps: run.apps.to_vec(),
            collectors,
            series,
        }
    }

    /// The serial loop's step: commits one instruction on the core with
    /// the smallest local clock, so shared-LLC access order is
    /// timestamp-accurate (the heap picks exactly like the old linear
    /// scan, ties to the lowest core index), or injects one device line.
    /// Heap entries past the cores are device agents; cores win clock
    /// ties because they sit at lower indices.
    fn step(&mut self) {
        let i = self.sched.pick();
        self.step_index(i);
        self.sched.reinsert(i, self.clock_of(i));
    }

    /// The local clock behind heap entry `i` (core or device agent).
    fn clock_of(&self, i: usize) -> Cycle {
        if i < self.cores.len() {
            self.cores[i].now()
        } else {
            self.io_agents[i - self.cores.len()].clock
        }
    }

    /// Dispatches heap entry `i` to the matching step body.
    fn step_index(&mut self, i: usize) {
        if i < self.cores.len() {
            self.step_on(i);
        } else {
            self.io_step(i - self.cores.len());
        }
    }

    /// Injects device agent `a`'s next line into the LLC and advances
    /// its clock one period. Injections commit no instruction: the
    /// global instruction clock (and so every event stamp and window
    /// boundary) moves only when a core steps, and agents never warm or
    /// freeze — when the last core freezes, the run ends mid-stream.
    fn io_step(&mut self, a: usize) {
        let agent = &mut self.io_agents[a];
        let (line, write) = agent.stream.next_line();
        agent.clock += agent.period;
        self.hier.io_inject(a, line, write);
        self.next_io = next_io(&self.io_agents);
    }

    /// The batched loop's stand-in for agent heap entries: injects, in
    /// the serial loop's order, every device event due before a core
    /// commits at clock `now`. That order is `(clock, heap index)`, and
    /// agents sit after the cores, so an agent whose clock equals `now`
    /// waits for the core and, between agents, the lower index goes
    /// first.
    #[inline]
    fn drain_agents(&mut self, now: Cycle) {
        while self.next_io < now {
            let due = self.next_io;
            let a = self
                .io_agents
                .iter()
                .position(|agent| agent.clock == due)
                .expect("next_io is an agent's clock");
            self.io_step(a);
        }
    }

    /// Commits one instruction on core `i` — the whole per-instruction
    /// body except the scheduler bookkeeping, shared by the serial loop
    /// ([`step`](Engine::step)) and the batched run-extraction loop.
    fn step_on(&mut self, i: usize) {
        let core_id = CoreId::new(i);
        let instr = self.traces[i].next_instruction();

        // This iteration commits instruction number `total_instr + 1`;
        // advance the clock first — and unconditionally — so every
        // event the accesses below emit is stamped with the
        // instruction that caused it, sink or no sink.
        self.total_instr += 1;
        self.hier.set_now(self.total_instr);

        let ifetch = if self.last_code_line[i] != Some(instr.code_line) {
            self.last_code_line[i] = Some(instr.code_line);
            Some(
                self.hier
                    .access(core_id, instr.code_line, AccessKind::IFetch),
            )
        } else {
            None
        };
        let mem = instr
            .mem
            .map(|m| (m.kind, self.hier.access(core_id, m.addr, m.kind)));
        self.cores[i].step(ifetch, mem);

        if let Some(series) = self.series.as_mut() {
            // Snapshotting the counters is only useful at a window
            // boundary; between boundaries the whole series cost is
            // this one compare.
            if self.total_instr >= series.next_boundary() {
                series.observe(
                    self.total_instr,
                    self.hier.all_per_core_stats(),
                    self.hier.global_stats(),
                );
            }
        }

        if self.warm_mark[i].is_none() && self.cores[i].retired() >= self.warmup {
            // A frozen thread re-marks on its next commit; it was
            // counted warm at its first mark.
            if self.frozen[i].is_none() {
                self.unwarmed -= 1;
            }
            self.warm_mark[i] = Some((self.cores[i].cycles(), *self.hier.per_core_stats(core_id)));
        }
        if self.frozen[i].is_none() && self.cores[i].retired() >= self.quota {
            let (warm_cycles, warm_stats) =
                self.warm_mark[i].take().expect("warm mark precedes freeze");
            self.frozen[i] = Some(ThreadResult {
                app: self.apps[i],
                instructions: self.cores[i].retired() - self.warmup,
                cycles: self.cores[i].cycles() - warm_cycles,
                stats: self.hier.per_core_stats(core_id).since(&warm_stats),
            });
            self.remaining -= 1;
        }
    }

    /// Whether every live thread has crossed the warm-up boundary.
    ///
    /// A fast thread can freeze (retire its whole quota) before a slow one
    /// has even warmed, so "warm" means marked *or* already frozen. A
    /// thread's warm mark always precedes its freeze, so the count of
    /// unwarmed threads only drops at a first warm mark.
    fn is_warm(&self) -> bool {
        self.unwarmed == 0
    }

    fn run_to_warm(&mut self) {
        match self.mode {
            EngineMode::Batched => self.run_batched(true),
            EngineMode::Serial => {
                while self.remaining > 0 && !self.is_warm() {
                    self.step();
                }
            }
        }
    }

    fn run_to_completion(&mut self) {
        match self.mode {
            EngineMode::Batched => self.run_batched(false),
            EngineMode::Serial => {
                while self.remaining > 0 {
                    self.step();
                }
            }
        }
    }

    /// The batched engine loop: run extraction over the core scheduler,
    /// whose heap holds the cores only. Device agents are drained before
    /// each core commit ([`drain_agents`](Engine::drain_agents)), so a
    /// one-core run with agents is still a single run.
    ///
    /// Picks the lagging core once and keeps committing on it back-to-back
    /// while its updated `(clock, index)` stays lexicographically below the
    /// rest of the heap ([`CoreScheduler::horizon`], captured once — the
    /// other entries cannot change while their cores are not stepping).
    /// The picked core never leaves the top of the heap: its reinsertion
    /// overwrites the top and sifts down once.
    /// Over that span the serial loop would re-pick the same core every
    /// iteration, so the commit order — and therefore every `total_instr`
    /// event stamp, cache access, and stats update — is identical to
    /// [`step`](Engine::step)-ing in a loop. The win is locality: each
    /// run keeps one core's trace generator, core model, and L1/L2 state hot
    /// instead of round-robining through all of them.
    ///
    /// Warm/freeze checks stay per-instruction (inside
    /// [`step_on`](Engine::step_on) and the loop guards), so stopping
    /// points are also bit-exact.
    fn run_batched(&mut self, until_warm: bool) {
        loop {
            if self.remaining == 0 || (until_warm && self.is_warm()) {
                return;
            }
            let i = self.sched.pick();
            let horizon = self.sched.horizon();
            loop {
                self.drain_agents(self.cores[i].now());
                self.step_on(i);
                if self.remaining == 0 || (until_warm && self.is_warm()) {
                    self.sched.reinsert(i, self.cores[i].now());
                    return;
                }
                match horizon {
                    Some(h) if (self.cores[i].now(), i) < h => {}
                    Some(_) => break,
                    None => {}
                }
            }
            self.sched.reinsert(i, self.cores[i].now());
        }
    }

    /// Ends the run; `collect` packages the telemetry, which the engine
    /// must have been built with.
    fn finish(mut self, collect: bool, spec_name: String) -> (RunResult, Option<RunTelemetry>) {
        let collected = collect.then(|| {
            let c = self
                .collectors
                .as_ref()
                .expect("telemetry is collected only from an instrumented engine");
            if let Some(series) = self.series.as_mut() {
                series.finish(
                    self.total_instr,
                    self.hier.all_per_core_stats(),
                    self.hier.global_stats(),
                );
            }
            self.hier.take_sink();
            RunTelemetry {
                window_size: self.series.as_ref().map(WindowedSeries::window_size),
                windows: self
                    .series
                    .take()
                    .map(WindowedSeries::take)
                    .unwrap_or_default(),
                set_histogram: c.histogram.with(|h| SetHistogramReport::from(h)),
                event_totals: c.counts.with(CountingSink::nonzero),
            }
        });

        let io = self
            .hier
            .io_stats()
            .map(|s| (*s, self.hier.io_agent_stats().unwrap_or(&[]).to_vec()));
        let result = RunResult {
            threads: self
                .frozen
                .into_iter()
                .map(|t| t.expect("all frozen"))
                .collect(),
            global: *self.hier.global_stats(),
            io,
            spec_name,
        };
        (result, collected)
    }

    /// Serializes the telemetry collectors of an instrumented engine.
    fn write_telemetry_state(&self, w: &mut SnapshotWriter) {
        let c = self.collectors.as_ref().expect("an instrumented engine");
        c.counts.with(|c| c.write_state(w));
        c.histogram.with(|h| h.write_state(w));
        w.write_bool(self.series.is_some());
        if let Some(series) = self.series.as_ref() {
            series.write_state(w);
        }
    }

    fn read_telemetry_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let c = self.collectors.as_ref().expect("an instrumented engine");
        c.counts.with_mut(|c| c.read_state(r))?;
        c.histogram.with_mut(|h| h.read_state(r))?;
        let has_series = r.read_bool()?;
        match (has_series, self.series.as_mut()) {
            (true, Some(series)) => series.read_state(r)?,
            (false, None) => {}
            (true, None) => {
                return Err(SnapshotError::Mismatch(
                    "checkpoint telemetry has a time series, this run requested none".into(),
                ))
            }
            (false, Some(_)) => {
                return Err(SnapshotError::Mismatch(
                    "checkpoint telemetry has no time series, this run requested one".into(),
                ))
            }
        }
        Ok(())
    }
}

/// The scheduler of `mode`'s loop over fresh or restored clocks. The
/// serial loop's heap holds the cores and then the device agents; the
/// batched loop's holds the cores only.
fn schedule(mode: EngineMode, cores: &[CoreModel], agents: &[IoAgentRuntime]) -> CoreScheduler {
    let agents = match mode {
        EngineMode::Serial => agents,
        EngineMode::Batched => &[],
    };
    CoreScheduler::new(
        cores
            .iter()
            .map(CoreModel::now)
            .chain(agents.iter().map(|a| a.clock)),
    )
}

/// The smallest device-agent clock, [`Cycle::MAX`] without agents.
fn next_io(agents: &[IoAgentRuntime]) -> Cycle {
    agents.iter().map(|a| a.clock).min().unwrap_or(Cycle::MAX)
}

fn read_per_core_stats(r: &mut SnapshotReader<'_>) -> Result<PerCoreStats, SnapshotError> {
    let mut stats = PerCoreStats::default();
    stats.read_state(r)?;
    Ok(stats)
}

/// Checkpoint coverage: hierarchy, cores, trace cursors, instruction-
/// fetch dedup state, freeze/warm-mark bookkeeping and the global
/// instruction clock. The scheduler heap is rebuilt from the per-core
/// clocks; `remaining` and `unwarmed` are derived from the frozen and
/// warm-mark state. Device agents carry no state here: both checkpoint
/// entry points refuse I/O mixes.
impl Snapshot for Engine {
    fn write_state(&self, w: &mut SnapshotWriter) {
        self.hier.write_state(w);
        for core in &self.cores {
            core.write_state(w);
        }
        for trace in &self.traces {
            trace.write_state(w);
        }
        for line in &self.last_code_line {
            w.write_bool(line.is_some());
            if let Some(line) = line {
                w.write_u64(line.raw());
            }
        }
        for thread in &self.frozen {
            w.write_bool(thread.is_some());
            if let Some(t) = thread {
                w.write_u64(t.instructions);
                w.write_u64(t.cycles);
                t.stats.write_state(w);
            }
        }
        for mark in &self.warm_mark {
            w.write_bool(mark.is_some());
            if let Some((cycles, stats)) = mark {
                w.write_u64(*cycles);
                stats.write_state(w);
            }
        }
        w.write_u64(self.total_instr);
    }

    fn read_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.hier.read_state(r)?;
        for core in &mut self.cores {
            core.read_state(r)?;
        }
        for trace in &mut self.traces {
            trace.read_state(r)?;
        }
        for line in &mut self.last_code_line {
            *line = if r.read_bool()? {
                Some(LineAddr::new(r.read_u64()?))
            } else {
                None
            };
        }
        for i in 0..self.frozen.len() {
            self.frozen[i] = if r.read_bool()? {
                Some(ThreadResult {
                    app: self.apps[i],
                    instructions: r.read_u64()?,
                    cycles: r.read_u64()?,
                    stats: read_per_core_stats(r)?,
                })
            } else {
                None
            };
        }
        for mark in &mut self.warm_mark {
            *mark = if r.read_bool()? {
                let cycles = r.read_u64()?;
                let stats = read_per_core_stats(r)?;
                Some((cycles, stats))
            } else {
                None
            };
        }
        self.total_instr = r.read_u64()?;
        self.remaining = self.frozen.iter().filter(|f| f.is_none()).count();
        self.unwarmed = (self.warm_mark.iter().zip(&self.frozen))
            .filter(|(w, f)| w.is_none() && f.is_none())
            .count();
        self.sched = schedule(self.mode, &self.cores, &self.io_agents);
        Ok(())
    }
}

/// Telemetry collected by an instrumented run, before it is packaged as a
/// [`RunReport`].
#[derive(Debug, Clone)]
pub(crate) struct RunTelemetry {
    /// Window size in instructions, when a time series was requested.
    pub window_size: Option<u64>,
    /// Windowed counter deltas, oldest first (empty without a window).
    pub windows: Vec<Window>,
    /// Per-LLC-set eviction / inclusion-victim histograms.
    pub set_histogram: SetHistogramReport,
    /// Total events per kind over the whole run (kinds that fired).
    pub event_totals: Vec<(EventKind, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tla_io::IoAgentSpec;

    fn quick() -> SimConfig {
        SimConfig::scaled_down().instructions(20_000)
    }

    #[test]
    fn io_agents_are_deterministic_and_pollute() {
        let cfg = quick().instructions(60_000);
        let mix = [SpecApp::Sjeng];
        let plain = MixRun::new(&cfg, &mix).run();
        let io = IoMixConfig::none().agent(IoAgentSpec::dma().period(2));
        let a = MixRun::new(&cfg, &mix).io(io.clone()).run();
        let b = MixRun::new(&cfg, &mix).io(io).run();
        assert_eq!(a.threads[0].stats, b.threads[0].stats);
        assert_eq!(a.threads[0].cycles, b.threads[0].cycles);
        assert_eq!(a.global, b.global);
        assert_eq!(a.io, b.io);
        let (stats, agents) = a.io.as_ref().expect("io stats present");
        assert!(stats.injections > 0, "the dma agent never injected");
        assert_eq!(agents.len(), 1);
        assert_eq!(agents[0].injections, stats.injections);
        // Leaky DMA is pure pollution: the app must miss more than alone.
        assert!(
            a.threads[0].stats.llc_misses > plain.threads[0].stats.llc_misses,
            "dma pressure did not raise app LLC misses ({} vs {})",
            a.threads[0].stats.llc_misses,
            plain.threads[0].stats.llc_misses
        );
        assert!(plain.io.is_none());
    }

    /// Runs `io` on a two-core mix under both engines and demands equal
    /// per-thread, global and per-agent counters.
    fn assert_io_engines_match(io: &IoMixConfig) {
        let cfg = quick().warmup(5_000);
        let mix = [SpecApp::Sjeng, SpecApp::Mcf];
        let run = |mode| {
            MixRun::new(&cfg, &mix)
                .io(io.clone())
                .engine_mode(mode)
                .run()
        };
        let (b, s) = (run(EngineMode::Batched), run(EngineMode::Serial));
        for (tb, ts) in b.threads.iter().zip(&s.threads) {
            assert_eq!(tb.cycles, ts.cycles);
            assert_eq!(tb.stats, ts.stats);
        }
        assert_eq!(b.global, s.global);
        assert_eq!(b.io, s.io);
        let (_, agents) = b.io.expect("io stats present");
        assert!(agents.iter().all(|a| a.injections > 0), "{agents:?}");
    }

    #[test]
    fn io_serial_and_batched_engines_match() {
        assert_io_engines_match(
            &IoMixConfig::none()
                .agent(IoAgentSpec::nic().period(3).lines(256))
                .agent(IoAgentSpec::dma().period(7))
                .inject_ways(2),
        );
    }

    /// The batched loop's drain reproduces the serial heap's tie rules:
    /// a period-1 agent is due at every clock a core commits at (the
    /// core goes first), and two equal-period agents are always due
    /// together (the lower index goes first). Both share two injection
    /// ways, so a swapped order changes which lines survive.
    #[test]
    fn io_engines_match_under_clock_ties() {
        assert_io_engines_match(
            &IoMixConfig::none()
                .agent(IoAgentSpec::dma().period(1))
                .agent(IoAgentSpec::nic().period(4).lines(64))
                .agent(IoAgentSpec::dma().period(4))
                .inject_ways(2),
        );
    }

    #[test]
    fn trivial_io_config_is_bit_identical_to_none() {
        let cfg = quick();
        let mix = [SpecApp::Sjeng, SpecApp::Libquantum];
        let (pr, prep) = MixRun::new(&cfg, &mix).run_report(Some(5_000));
        // Zero agents + an unpartitioned way limit is trivial by
        // definition: no hierarchy I/O state, no report key, same bytes.
        let (tr, trep) = MixRun::new(&cfg, &mix)
            .io(IoMixConfig::none().inject_ways(4))
            .run_report(Some(5_000));
        assert!(pr.io.is_none() && tr.io.is_none());
        assert_eq!(prep.to_json_string(), trep.to_json_string());
    }

    #[test]
    fn injection_way_limit_recovers_app_performance() {
        let cfg = quick().instructions(60_000);
        let mix = [SpecApp::Sjeng];
        let agent = IoAgentSpec::dma().period(2);
        let unlimited = MixRun::new(&cfg, &mix)
            .io(IoMixConfig::none().agent(agent))
            .run();
        let limited = MixRun::new(&cfg, &mix)
            .io(IoMixConfig::none().agent(agent).inject_ways(2))
            .run();
        assert!(
            limited.threads[0].stats.llc_misses < unlimited.threads[0].stats.llc_misses,
            "a 2-way injection limit should confine DMA pollution ({} vs {})",
            limited.threads[0].stats.llc_misses,
            unlimited.threads[0].stats.llc_misses
        );
    }

    #[test]
    fn io_mix_refuses_resume() {
        let cfg = quick().warmup(1_000);
        let ck = MixRun::new(&cfg, &[SpecApp::Sjeng]).warm_checkpoint();
        let err = MixRun::new(&cfg, &[SpecApp::Sjeng])
            .io(IoMixConfig::none().agent(IoAgentSpec::dma()))
            .resume(&ck)
            .unwrap_err();
        assert!(matches!(err, SnapshotError::Mismatch(_)));
    }

    #[test]
    #[should_panic(expected = "checkpoints do not cover device I/O agents")]
    fn io_mix_refuses_warm_checkpoint() {
        let cfg = quick().warmup(1_000);
        let _ = MixRun::new(&cfg, &[SpecApp::Sjeng])
            .io(IoMixConfig::none().agent(IoAgentSpec::dma()))
            .warm_checkpoint();
    }

    #[test]
    fn single_core_run_completes() {
        let cfg = quick();
        let r = MixRun::new(&cfg, &[SpecApp::Sjeng]).run();
        assert_eq!(r.threads.len(), 1);
        let t = &r.threads[0];
        assert_eq!(t.instructions, 20_000);
        assert!(t.ipc() > 0.0 && t.ipc() <= 4.0);
        assert!(t.cycles > 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = quick();
        let a = MixRun::new(&cfg, &[SpecApp::Sjeng, SpecApp::Libquantum]).run();
        let b = MixRun::new(&cfg, &[SpecApp::Sjeng, SpecApp::Libquantum]).run();
        assert_eq!(a.threads[0].cycles, b.threads[0].cycles);
        assert_eq!(a.threads[1].stats, b.threads[1].stats);
        assert_eq!(a.global, b.global);
    }

    #[test]
    fn thrasher_has_lower_ipc_than_ccf_app() {
        let cfg = quick();
        let r = MixRun::new(&cfg, &[SpecApp::Sjeng, SpecApp::Libquantum]).run();
        let sje = r.threads[0].ipc();
        let lib = r.threads[1].ipc();
        assert!(sje > lib, "sjeng {sje} should outrun libquantum {lib}");
    }

    #[test]
    fn throughput_sums_ipcs() {
        let cfg = quick();
        let r = MixRun::new(&cfg, &[SpecApp::DealII, SpecApp::DealII]).run();
        let sum = r.threads[0].ipc() + r.threads[1].ipc();
        assert!((r.throughput() - sum).abs() < 1e-12);
    }

    #[test]
    fn weighted_speedup_and_fairness_bounds() {
        let cfg = quick();
        let alone = MixRun::new(&cfg, &[SpecApp::Sjeng]).run().threads[0].ipc();
        let r = MixRun::new(&cfg, &[SpecApp::Sjeng, SpecApp::Sjeng]).run();
        let ws = r.weighted_speedup(&[alone, alone]);
        assert!(ws > 0.0 && ws <= 2.2, "ws = {ws}");
        let hf = r.hmean_fairness(&[alone, alone]);
        assert!(hf > 0.0 && hf <= 1.2, "hf = {hf}");
    }

    #[test]
    fn llc_capacity_override_shrinks_cache() {
        // Needs enough instructions for calculix's LLC-sized loop to wrap
        // (capacity misses only appear after the first lap).
        let cfg = quick().instructions(300_000);
        // 1 MB (full-scale) LLC vs 8 MB: the smaller LLC must miss more for
        // an LLC-fitting app.
        let small = MixRun::new(&cfg, &[SpecApp::Calculix])
            .llc_capacity_full_scale(1024 * 1024)
            .run();
        let big = MixRun::new(&cfg, &[SpecApp::Calculix])
            .llc_capacity_full_scale(8 * 1024 * 1024)
            .run();
        assert!(small.llc_misses() > big.llc_misses());
    }

    #[test]
    fn policy_spec_plumbs_through() {
        // Long enough for mcf's streaming to fill the LLC and force
        // evictions (QBS only acts once victims must be chosen).
        let cfg = quick().instructions(150_000);
        let r = MixRun::new(&cfg, &[SpecApp::Povray, SpecApp::Mcf])
            .spec(&PolicySpec::qbs())
            .run();
        assert_eq!(r.spec_name, "QBS");
        assert!(r.global.qbs_queries > 0);
        let r = MixRun::new(&cfg, &[SpecApp::Povray, SpecApp::Mcf])
            .spec(&PolicySpec::non_inclusive())
            .run();
        assert_eq!(r.global.back_invalidates, 0);
        assert_eq!(r.inclusion_victims(), 0);
    }

    #[test]
    fn prefetch_toggle_changes_traffic() {
        let on = MixRun::new(&quick(), &[SpecApp::Libquantum]).run();
        let cfg_off = quick().prefetch(false);
        let off = MixRun::new(&cfg_off, &[SpecApp::Libquantum]).run();
        assert!(on.global.prefetches > 0);
        assert_eq!(off.global.prefetches, 0);
        // Streaming benefits from the stream prefetcher.
        assert!(on.threads[0].ipc() > off.threads[0].ipc());
    }

    #[test]
    fn warmup_excludes_cold_misses() {
        // dealII's working set fits its L1: with warm-up the measured LLC
        // MPKI is ~0; without it the cold fills dominate.
        let cold = MixRun::new(&quick(), &[SpecApp::DealII]).run();
        let cfg = quick().warmup(60_000);
        let warm = MixRun::new(&cfg, &[SpecApp::DealII]).run();
        assert!(warm.threads[0].llc_mpki() < cold.threads[0].llc_mpki());
        assert_eq!(warm.threads[0].instructions, 20_000);
    }

    #[test]
    fn warmup_preserves_determinism() {
        let cfg = quick().warmup(30_000);
        let a = MixRun::new(&cfg, &[SpecApp::Sjeng, SpecApp::Wrf]).run();
        let b = MixRun::new(&cfg, &[SpecApp::Sjeng, SpecApp::Wrf]).run();
        assert_eq!(a.threads[0].stats, b.threads[0].stats);
        assert_eq!(a.threads[1].cycles, b.threads[1].cycles);
    }

    #[test]
    fn batched_engine_emits_monotonic_event_stream() {
        use tla_telemetry::OrderCheckSink;
        // Run extraction reorders nothing: the global `instr` stamps on the
        // event stream stay non-decreasing (the sink panics otherwise).
        let cfg = quick().warmup(5_000);
        let shared = SharedSink::new(OrderCheckSink::new());
        let r = MixRun::new(&cfg, &[SpecApp::Sjeng, SpecApp::Mcf])
            .engine_mode(EngineMode::Batched)
            .run_with_sink(shared.clone());
        assert_eq!(r.threads.len(), 2);
        assert!(shared.with(|s| s.seen()) > 0, "no events reached the sink");
    }

    #[test]
    fn batched_engine_matches_serial_engine_exactly() {
        // A 3-core mix with warm-up exercises run extraction across freeze
        // and warm boundaries; every observable must be bit-identical.
        let cfg = quick().warmup(10_000);
        let mix = [SpecApp::Sjeng, SpecApp::Mcf, SpecApp::Libquantum];
        let b = MixRun::new(&cfg, &mix)
            .engine_mode(EngineMode::Batched)
            .run();
        let s = MixRun::new(&cfg, &mix)
            .engine_mode(EngineMode::Serial)
            .run();
        for (tb, ts) in b.threads.iter().zip(&s.threads) {
            assert_eq!(tb.instructions, ts.instructions);
            assert_eq!(tb.cycles, ts.cycles);
            assert_eq!(tb.stats, ts.stats);
        }
        assert_eq!(b.global, s.global);

        // Checkpoints too: the loop that wrote an image must leave no trace
        // in its wire bytes.
        let cb = MixRun::new(&cfg, &mix)
            .engine_mode(EngineMode::Batched)
            .warm_checkpoint();
        let cs = MixRun::new(&cfg, &mix)
            .engine_mode(EngineMode::Serial)
            .warm_checkpoint();
        assert_eq!(
            cb.as_bytes(),
            cs.as_bytes(),
            "engine mode leaked into checkpoint bytes"
        );

        // Cross-resume: each engine finishes the other's checkpoint.
        let rb = MixRun::new(&cfg, &mix)
            .engine_mode(EngineMode::Batched)
            .resume(&cs)
            .unwrap();
        let rs = MixRun::new(&cfg, &mix)
            .engine_mode(EngineMode::Serial)
            .resume(&cb)
            .unwrap();
        assert_eq!(rb.global, rs.global);
        assert_eq!(rb.threads[1].stats, rs.threads[1].stats);
    }

    #[test]
    #[should_panic(expected = "at least one app")]
    fn empty_mix_panics() {
        let cfg = quick();
        let _ = MixRun::new(&cfg, &[]);
    }

    #[test]
    fn instrumented_run_matches_plain_run() {
        // Telemetry must be observation-only: counters identical with the
        // sink installed and without.
        let cfg = quick();
        let plain = MixRun::new(&cfg, &[SpecApp::Sjeng, SpecApp::Mcf])
            .spec(&PolicySpec::qbs())
            .run();
        let (instr, telemetry) = MixRun::new(&cfg, &[SpecApp::Sjeng, SpecApp::Mcf])
            .spec(&PolicySpec::qbs())
            .run_report(Some(5_000));
        assert_eq!(plain.global, instr.global);
        assert_eq!(plain.threads[0].stats, instr.threads[0].stats);
        assert_eq!(plain.threads[1].cycles, instr.threads[1].cycles);
        assert!(
            telemetry.windows.len() >= 2,
            "got {}",
            telemetry.windows.len()
        );
        assert_eq!(telemetry.window_size, Some(5_000));

        // Event timestamps match the committing instruction: the clock is
        // 1-based and advances *before* the accesses, so the first
        // window's events start at instruction 1, not 0 (the historical
        // skew stamped every event one instruction early).
        let log = SharedSink::new(tla_telemetry::EventLog::new(1 << 17));
        let with_sink = MixRun::new(&cfg, &[SpecApp::Sjeng, SpecApp::Mcf])
            .spec(&PolicySpec::qbs())
            .run_with_sink(log.clone());
        assert_eq!(with_sink.global, plain.global);
        log.with(|l| {
            assert_eq!(l.dropped(), 0, "log capacity too small for this quota");
            assert!(!l.is_empty(), "the QBS mix must emit events");
            let stamps: Vec<u64> = l.events().map(|e| e.instr).collect();
            assert!(
                stamps[0] >= 1,
                "first event stamped {} — clock skew is back",
                stamps[0]
            );
            assert!(
                stamps.windows(2).all(|p| p[0] <= p[1]),
                "event timestamps must be non-decreasing"
            );
            let first_window_end = telemetry.windows[0].end_instr;
            assert!(
                stamps[0] <= first_window_end,
                "first event {} past the first window boundary {first_window_end}",
                stamps[0]
            );
        });
    }

    #[test]
    fn run_report_carries_windows_and_histograms() {
        // Long enough for libquantum's streaming to fill the scaled-down
        // LLC and force evictions into the histogram.
        let cfg = quick().instructions(300_000);
        let run =
            MixRun::new(&cfg, &[SpecApp::Libquantum, SpecApp::Sjeng]).spec(&PolicySpec::qbs());
        assert_eq!(run.mix_label(), "lib+sje");
        let (result, report) = run.run_report(Some(50_000));
        assert_eq!(report.mix, "lib+sje");
        assert_eq!(report.policy, "QBS");
        assert_eq!(report.threads.len(), 2);
        assert_eq!(report.global, result.global);
        assert_eq!(report.config.get("cores").and_then(|v| v.as_u64()), Some(2));
        assert!(report.windows.len() >= 2, "got {}", report.windows.len());
        // Windows are deltas: their instruction spans tile the run.
        for pair in report.windows.windows(2) {
            assert_eq!(pair[0].end_instr, pair[1].start_instr);
        }
        let hist = report.set_histogram.as_ref().unwrap();
        assert!(hist.evictions.iter().map(|&e| e as u64).sum::<u64>() > 0);
        // The report survives a JSON round trip byte-for-byte.
        let text = report.to_json_string();
        let back = RunReport::parse(&text).unwrap();
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn analyzed_report_carries_reuse_and_victim_rate() {
        let cfg = quick().instructions(100_000);
        let mix = [SpecApp::Libquantum, SpecApp::Sjeng];
        let (result, report) = MixRun::new(&cfg, &mix)
            .spec(&PolicySpec::qbs())
            .run_report_analyzed(Some(20_000), 4);
        // The analytics sinks are observation-only: the run result is
        // bit-identical to a plain run.
        let plain = MixRun::new(&cfg, &mix).spec(&PolicySpec::qbs()).run();
        assert_eq!(result.global, plain.global);
        assert_eq!(result.threads[0].stats, plain.threads[0].stats);

        let reuse = report.reuse.as_ref().expect("analyzed report has reuse");
        assert_eq!(reuse.sample_every, 4);
        assert!(
            reuse.global.total() + reuse.global.cold() > 0,
            "libquantum must drive LLC accesses into the sampled sets"
        );
        assert!(!reuse.per_set.is_empty());
        let rate = report.inclusion_victim_rate.expect("rate attached");
        assert!((0.0..=1.0).contains(&rate), "rate {rate}");
        // The attached rate is exactly the per-thread counters' quotient.
        assert_eq!(rate, report.measured_victim_rate());
        // The analyzed report still round-trips byte-for-byte.
        let text = report.to_json_string();
        let back = RunReport::parse(&text).unwrap();
        assert_eq!(back.to_json_string(), text);
    }

    fn warm_cfg() -> SimConfig {
        SimConfig::scaled_down().warmup(30_000).instructions(20_000)
    }

    #[test]
    fn checkpoint_resume_matches_straight_run() {
        // Warm and measure under the same spec: the resumed run must be
        // bit-identical to the straight-through run.
        let cfg = warm_cfg();
        let mix = [SpecApp::Sjeng, SpecApp::Mcf];
        let straight = MixRun::new(&cfg, &mix).spec(&PolicySpec::qbs()).run();
        let ck = MixRun::new(&cfg, &mix)
            .spec(&PolicySpec::qbs())
            .warm_checkpoint();
        let resumed = MixRun::new(&cfg, &mix)
            .spec(&PolicySpec::qbs())
            .resume(&ck)
            .unwrap();
        assert_eq!(resumed.global, straight.global);
        for (a, b) in resumed.threads.iter().zip(&straight.threads) {
            assert_eq!(a.app, b.app);
            assert_eq!(a.instructions, b.instructions);
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.stats, b.stats);
        }
        assert_eq!(resumed.spec_name, "QBS");
    }

    #[test]
    fn checkpoint_info_rebuilds_its_config() {
        // Every pinned axis off its default: the config read back from the
        // meta section must pass the resume check and replay the run.
        let base = warm_cfg().with_scale(4).seed(0xfeed).prefetch(false);
        let core = tla_cpu::CoreModelConfig {
            latencies: tla_cpu::Latencies {
                memory: 200,
                ..base.core_config().latencies
            },
            ..*base.core_config()
        };
        let cfg = base.core_model(core);
        let mix = [SpecApp::Sjeng, SpecApp::Mcf];
        let llc = 4 * 1024 * 1024;
        let build = |cfg| {
            MixRun::new(cfg, &mix)
                .spec(&PolicySpec::qbs())
                .llc_capacity_full_scale(llc)
        };
        let straight = build(&cfg).run();
        let ck = build(&cfg).warm_checkpoint();
        let info = ck.info().unwrap();
        assert_eq!(info.llc_capacity_full_scale, Some(llc));
        let rebuilt = info.sim_config();
        let resumed = build(&rebuilt).resume(&ck).unwrap();
        assert_eq!(resumed.global, straight.global);
        for (a, b) in resumed.threads.iter().zip(&straight.threads) {
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.stats, b.stats);
        }
    }

    #[test]
    fn instrumented_checkpoint_reports_byte_identically() {
        let cfg = warm_cfg();
        let mix = [SpecApp::Libquantum, SpecApp::Sjeng];
        let (_, straight) = MixRun::new(&cfg, &mix)
            .spec(&PolicySpec::eci())
            .run_report(Some(10_000));
        let ck = MixRun::new(&cfg, &mix)
            .spec(&PolicySpec::eci())
            .warm_checkpoint_instrumented(Some(10_000));
        let info = ck.info().unwrap();
        assert!(info.instrumented);
        assert_eq!(info.window, Some(10_000));
        assert_eq!(info.warm_spec, "ECI");
        assert_eq!(info.mix_label(), "lib+sje");
        let (_, resumed) = MixRun::new(&cfg, &mix)
            .spec(&PolicySpec::eci())
            .resume_report(&ck, Some(10_000))
            .unwrap();
        assert_eq!(resumed.to_json_string(), straight.to_json_string());
    }

    #[test]
    fn plain_resume_from_instrumented_checkpoint_matches() {
        // Telemetry is observation-only, so a plain resume of an
        // instrumented checkpoint still reproduces the plain run.
        let cfg = warm_cfg();
        let mix = [SpecApp::Sjeng, SpecApp::Wrf];
        let plain = MixRun::new(&cfg, &mix).run();
        let ck = MixRun::new(&cfg, &mix).warm_checkpoint_instrumented(Some(5_000));
        let resumed = MixRun::new(&cfg, &mix).resume(&ck).unwrap();
        assert_eq!(resumed.global, plain.global);
        assert_eq!(resumed.threads[0].stats, plain.threads[0].stats);
        assert_eq!(resumed.threads[1].cycles, plain.threads[1].cycles);
    }

    #[test]
    fn checkpoint_fans_out_across_policies() {
        // One baseline-warmed image, measured under every policy: the
        // whole point of the subsystem. Each resume must be deterministic
        // and carry its own spec name.
        let cfg = warm_cfg();
        let mix = [SpecApp::Mcf, SpecApp::Libquantum];
        let ck = MixRun::new(&cfg, &mix).warm_checkpoint();
        for spec in [
            PolicySpec::baseline(),
            PolicySpec::tlh_l1(),
            PolicySpec::eci(),
            PolicySpec::qbs(),
        ] {
            let a = MixRun::new(&cfg, &mix).spec(&spec).resume(&ck).unwrap();
            let b = MixRun::new(&cfg, &mix).spec(&spec).resume(&ck).unwrap();
            assert_eq!(a.spec_name, spec.name);
            assert_eq!(
                a.global, b.global,
                "{}: resume not deterministic",
                spec.name
            );
            assert_eq!(a.threads[0].stats, b.threads[0].stats);
        }
    }

    #[test]
    fn resume_rejects_mismatched_configuration() {
        let cfg = warm_cfg();
        let mix = [SpecApp::Sjeng, SpecApp::Mcf];
        let ck = MixRun::new(&cfg, &mix).warm_checkpoint();

        let expect_mismatch = |err: SnapshotError, needle: &str| match err {
            SnapshotError::Mismatch(msg) => {
                assert!(msg.contains(needle), "message {msg:?} lacks {needle:?}")
            }
            other => panic!("expected Mismatch, got {other:?}"),
        };

        let other_mix = [SpecApp::Sjeng, SpecApp::Wrf];
        expect_mismatch(
            MixRun::new(&cfg, &other_mix).resume(&ck).unwrap_err(),
            "mix",
        );
        let other_seed = warm_cfg().seed(99);
        expect_mismatch(
            MixRun::new(&other_seed, &mix).resume(&ck).unwrap_err(),
            "seed",
        );
        let other_quota = warm_cfg().instructions(10_000);
        expect_mismatch(
            MixRun::new(&other_quota, &mix).resume(&ck).unwrap_err(),
            "instruction quota",
        );
        let other_warm = warm_cfg().warmup(10_000);
        expect_mismatch(
            MixRun::new(&other_warm, &mix).resume(&ck).unwrap_err(),
            "warm-up",
        );
        let no_prefetch = warm_cfg().prefetch(false);
        expect_mismatch(
            MixRun::new(&no_prefetch, &mix).resume(&ck).unwrap_err(),
            "prefetch",
        );
        expect_mismatch(
            MixRun::new(&cfg, &mix)
                .llc_capacity_full_scale(1024 * 1024)
                .resume(&ck)
                .unwrap_err(),
            "LLC capacity",
        );
        let other_latency = warm_cfg().core_model(tla_cpu::CoreModelConfig {
            latencies: tla_cpu::Latencies {
                memory: 300,
                ..Default::default()
            },
            ..*cfg.core_config()
        });
        expect_mismatch(
            MixRun::new(&other_latency, &mix).resume(&ck).unwrap_err(),
            "latencies",
        );
        // A plain checkpoint cannot back a report.
        expect_mismatch(
            MixRun::new(&cfg, &mix)
                .resume_report(&ck, Some(5_000))
                .unwrap_err(),
            "telemetry",
        );
    }

    #[test]
    fn checkpoint_survives_serialization_and_rejects_corruption() {
        let cfg = warm_cfg();
        let mix = [SpecApp::Sjeng];
        let ck = MixRun::new(&cfg, &mix).warm_checkpoint();
        let bytes = ck.as_bytes().to_vec();

        // Round trip through raw bytes.
        let back = Checkpoint::from_bytes(bytes.clone()).unwrap();
        assert_eq!(back.info().unwrap(), ck.info().unwrap());
        let direct = MixRun::new(&cfg, &mix).resume(&ck).unwrap();
        let via_bytes = MixRun::new(&cfg, &mix).resume(&back).unwrap();
        assert_eq!(direct.global, via_bytes.global);

        // A flipped payload byte must be caught by the checksum.
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x40;
        assert!(matches!(
            Checkpoint::from_bytes(corrupt).unwrap_err(),
            SnapshotError::BadChecksum
        ));

        // Truncation.
        let cut = bytes[..bytes.len() / 2].to_vec();
        assert!(Checkpoint::from_bytes(cut).is_err());
    }
}
