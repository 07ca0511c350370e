//! The four benchmark workloads: the experiments the repository's users
//! run, each as the library calls its `tla-cli` subcommand makes.

use crate::checks::{oracle_digest, run_digest};
use crate::spans::Spans;
use tla::io::{IoAgentSpec, IoMixConfig};
use tla::sim::{
    optimal_llc, run_policy_reports_analyzed, run_policy_reports_io, run_policy_reports_warm_start,
    MixRun, OracleResult, PolicySpec, RunResult, SimConfig,
};
use tla::workloads::{table2_mixes, SpecApp};

/// `tla-cli`'s default quotas: warm-up and measured instructions per
/// thread.
const WARMUP: u64 = 800_000;
const MEASURE: u64 = 300_000;
/// `tla-cli analyze`'s default time-series window.
pub(crate) const ANALYZE_WINDOW: u64 = 100_000;
/// `tla-cli analyze`'s default reuse-profiler sampling.
pub(crate) const ANALYZE_SAMPLE_EVERY: u32 = 4;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Four single-policy runs of an 8-core LLC-thrashing mix.
    Thrash8c,
    /// A warm-start policy comparison on a 2-core core-cache-fitting mix.
    CcfWarm2c,
    /// The gap-to-optimal analysis of a 4-core mix on two workers.
    Analyze4c,
    /// The app-versus-device-I/O sweep on one core.
    IoSweep1c,
}

/// What one job produced: every simulator run, in job order, and the MIN
/// oracle's result when the job computes one.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// `(label, result)` per run.
    pub runs: Vec<(String, RunResult)>,
    /// The oracle's result, if the job runs it.
    pub oracle: Option<OracleResult>,
}

impl JobOutput {
    /// `(label, digest)` of every output the job produced: each run, then
    /// the oracle.
    pub fn digests(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .runs
            .iter()
            .map(|(label, r)| (label.clone(), run_digest(r)))
            .collect();
        if let Some(o) = &self.oracle {
            out.push(("oracle".to_string(), oracle_digest(o)));
        }
        out
    }
}

/// How a job's output for a run configuration relates to a plain
/// `MixRun::run` of that configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlainMatch {
    /// The job makes that very call.
    SameCall,
    /// The job takes another path that must give identical stats: an
    /// analyzed run (telemetry only observes), an empty I/O mix attached,
    /// or the baseline resumed from an image warmed under the baseline.
    OtherPath,
    /// Another policy resumed from the baseline-warmed image: it warmed
    /// differently from a straight run, so its stats may differ.
    Unrelated,
}

/// One straight-through run a job stands for: a device-I/O scenario and
/// a policy.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Device agents (trivial for no I/O).
    pub io: IoMixConfig,
    /// Management policy.
    pub spec: PolicySpec,
}

impl RunConfig {
    /// The label runs of this configuration carry in job outputs.
    pub fn label(&self) -> String {
        if self.io.is_trivial() {
            self.spec.name.clone()
        } else {
            format!("{}/{}", self.io.label(), self.spec.name)
        }
    }

    /// The plain `MixRun` of this configuration.
    pub fn run(&self, cfg: &SimConfig, apps: &[SpecApp]) -> RunResult {
        self.mix_run(cfg, apps).run()
    }

    /// The configured builder; device I/O is attached only when present,
    /// so a no-I/O configuration is the plainest possible run.
    pub fn mix_run<'a>(&self, cfg: &'a SimConfig, apps: &[SpecApp]) -> MixRun<'a> {
        let run = MixRun::new(cfg, apps).spec(&self.spec);
        if self.io.is_trivial() {
            run
        } else {
            run.io(self.io.clone())
        }
    }
}

/// The policies `compare` and `analyze` sweep.
fn compare_specs() -> Vec<PolicySpec> {
    vec![
        PolicySpec::baseline(),
        PolicySpec::tlh_l1(),
        PolicySpec::tlh_l2(),
        PolicySpec::eci(),
        PolicySpec::qbs(),
        PolicySpec::non_inclusive(),
        PolicySpec::exclusive(),
    ]
}

/// The policies `io-sweep` sweeps (and `thrash-8c` runs).
fn io_sweep_specs() -> Vec<PolicySpec> {
    vec![
        PolicySpec::baseline(),
        PolicySpec::tlh_l1(),
        PolicySpec::eci(),
        PolicySpec::qbs(),
    ]
}

/// The device scenarios of the full `io-sweep` grid.
fn io_sweep_scenarios() -> Vec<IoMixConfig> {
    let nic = || IoAgentSpec::nic().period(3).lines(512);
    let dma = || IoAgentSpec::dma().period(2);
    vec![
        IoMixConfig::none(),
        IoMixConfig::none().agent(nic()),
        IoMixConfig::none().agent(dma()),
        IoMixConfig::none().agent(nic()).agent(dma()),
        IoMixConfig::none().agent(dma()).inject_ways(2),
        IoMixConfig::none()
            .agent(dma())
            .inject_ways(2)
            .partition(true),
        IoMixConfig::none().agent(nic()).agent(dma()).inject_ways(2),
    ]
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Thrash8c,
        Workload::CcfWarm2c,
        Workload::Analyze4c,
        Workload::IoSweep1c,
    ];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Thrash8c => "thrash-8c",
            Workload::CcfWarm2c => "ccf-warm-2c",
            Workload::Analyze4c => "analyze-4c",
            Workload::IoSweep1c => "io-sweep-1c",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The mix, one app per core.
    pub fn apps(self) -> Vec<SpecApp> {
        use SpecApp::*;
        match self {
            Workload::Thrash8c => [Mcf, Libquantum].repeat(4),
            Workload::CcfWarm2c => {
                table2_mixes()
                    .into_iter()
                    .find(|m| m.name == "MIX_01")
                    .expect("Table II has MIX_01")
                    .apps
            }
            Workload::Analyze4c => vec![Mcf, Libquantum, Xalancbmk, Astar],
            Workload::IoSweep1c => vec![Sjeng],
        }
    }

    /// Worker threads the job uses (`--jobs`).
    pub fn threads(self) -> usize {
        match self {
            Workload::Analyze4c => 2,
            _ => 1,
        }
    }

    /// The configuration at the CLI's default quotas for `seed`.
    pub fn config(self, seed: u64) -> SimConfig {
        self.config_with(seed, WARMUP, MEASURE)
    }

    /// The configuration at explicit quotas (set-up timing and tests use
    /// small ones).
    pub fn config_with(self, seed: u64, warmup: u64, measure: u64) -> SimConfig {
        SimConfig::scaled_down()
            .warmup(warmup)
            .instructions(measure)
            .seed(seed)
            .prefetch(self != Workload::Analyze4c)
            .jobs(self.threads())
            .shard_jobs(1)
    }

    /// The straight-through runs the job stands for, in job order.
    pub fn run_configs(self) -> Vec<RunConfig> {
        let (scenarios, specs) = match self {
            Workload::Thrash8c => (vec![IoMixConfig::none()], io_sweep_specs()),
            Workload::CcfWarm2c | Workload::Analyze4c => {
                (vec![IoMixConfig::none()], compare_specs())
            }
            Workload::IoSweep1c => (io_sweep_scenarios(), io_sweep_specs()),
        };
        scenarios
            .iter()
            .flat_map(|io| {
                specs.iter().map(|spec| RunConfig {
                    io: io.clone(),
                    spec: spec.clone(),
                })
            })
            .collect()
    }

    /// Simulated instructions one job delivers results for: threads ×
    /// (warm-up + measured quota) per run configuration. `sim_mips` divides
    /// this fixed count by the job's wall time.
    pub fn delivered_instructions(self, cfg: &SimConfig) -> u64 {
        let per_run = self.apps().len() as u64 * (cfg.warmup_quota() + cfg.instruction_quota());
        per_run * self.run_configs().len() as u64
    }

    /// How the job's output for configuration `c` relates to a plain
    /// [`RunConfig::run`] of it.
    pub fn plain_match(self, c: &RunConfig) -> PlainMatch {
        match self {
            Workload::Thrash8c => PlainMatch::SameCall,
            Workload::CcfWarm2c if c.spec == PolicySpec::baseline() => PlainMatch::OtherPath,
            Workload::CcfWarm2c => PlainMatch::Unrelated,
            Workload::Analyze4c => PlainMatch::OtherPath,
            Workload::IoSweep1c if c.io.is_trivial() => PlainMatch::OtherPath,
            Workload::IoSweep1c => PlainMatch::SameCall,
        }
    }

    /// Runs one job: the same library calls as the CLI subcommand the
    /// workload stands for, without printing. Each call runs inside a
    /// span of `spans` (a disabled recorder keeps nothing).
    pub fn run_job(self, cfg: &SimConfig, spans: &mut Spans) -> JobOutput {
        let apps = self.apps();
        let configs = self.run_configs();
        let labels = configs.iter().map(RunConfig::label);
        let specs: Vec<PolicySpec> = configs
            .iter()
            .filter(|c| c.io.is_trivial())
            .map(|c| c.spec.clone())
            .collect();
        let oracle = |spans: &mut Spans| {
            spans
                .time("sim.optimal_llc", |_| optimal_llc(cfg, &apps, None))
                .0
        };
        let (results, oracle): (Vec<RunResult>, _) = match self {
            // ≡ tla-cli run --mix mcf,lib,... --policy p, once per policy.
            Workload::Thrash8c => (
                configs
                    .iter()
                    .map(|c| spans.time("sim.run", |_| c.run(cfg, &apps)).0)
                    .collect(),
                None,
            ),
            // ≡ tla-cli compare --mix MIX_01 --warm-start --jobs 1.
            Workload::CcfWarm2c => {
                let results = spans
                    .time("sim.warm_start_reports", |_| {
                        run_policy_reports_warm_start(cfg, &apps, &specs, None, None)
                            .expect("resuming a just-written checkpoint succeeds")
                    })
                    .0;
                (
                    results.into_iter().map(|(r, _)| r).collect(),
                    Some(oracle(spans)),
                )
            }
            // ≡ tla-cli analyze --mix mcf,lib,xal,ast --no-prefetch --jobs 2.
            Workload::Analyze4c => {
                let opt = oracle(spans);
                let results = spans
                    .time("sim.analyzed_reports", |_| {
                        run_policy_reports_analyzed(
                            cfg,
                            &apps,
                            &specs,
                            None,
                            Some(ANALYZE_WINDOW),
                            ANALYZE_SAMPLE_EVERY,
                        )
                    })
                    .0;
                (results.into_iter().map(|(r, _)| r).collect(), Some(opt))
            }
            // ≡ tla-cli io-sweep --mix sje --jobs 1.
            Workload::IoSweep1c => {
                let opt = oracle(spans);
                let specs = io_sweep_specs();
                let mut results = Vec::new();
                for io in io_sweep_scenarios() {
                    let reports = spans
                        .time("sim.io_reports", |_| {
                            run_policy_reports_io(cfg, &apps, &specs, None, None, &io)
                        })
                        .0;
                    results.extend(reports.into_iter().map(|(r, _)| r));
                }
                (results, Some(opt))
            }
        };
        JobOutput {
            runs: labels.zip(results).collect(),
            oracle,
        }
    }
}
