//! The two kinds of benchmark invocation: the untraced end-to-end
//! measurement and the traced per-layer pass.

use crate::calibrate::{kernel_secs, REFERENCE_SECS};
use crate::checks::{
    combine, digest_mismatch, invariant_problems, oracle_digest, run_digest, Checks,
};
use crate::metrics::{Measured, MetricDef, Outcome, END_TO_END, PER_LAYER};
use crate::replay::{
    access_hierarchy, generate, hierarchy_config, layer_problems, replay, step_cores,
};
use crate::spans::Spans;
use crate::stats::Summary;
use crate::workload::{
    JobOutput, PlainMatch, RunConfig, Workload, ANALYZE_SAMPLE_EVERY, ANALYZE_WINDOW,
};
use std::hint::black_box;
use std::time::Instant;
use tla::core::HierarchyConfig;
use tla::io::{IoAgentSpec, IoMixConfig};
use tla::sim::{
    belady_sharded, mix_reference_stream, Checkpoint, PolicySpec, RunResult, SimConfig,
};
use tla::types::IoStats;
use tla::workloads::SpecApp;

/// Minimal-quota jobs timed for `setup_s` before the first timed job and
/// after each one.
const SETUP_BATCH: usize = 40;
/// Timed repetitions a measurement makes even when they overrun its time
/// budget.
const MIN_REPS: usize = 3;
/// Untraced repetitions the traced pass times as its overhead baseline.
const TRACE_BASELINE_REPS: usize = 2;

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The measured configuration.
    pub cfg: SimConfig,
    /// The set-up configuration: the same job at minimal quotas.
    pub setup_cfg: SimConfig,
    /// Time budget for the timed repetitions, in seconds.
    pub seconds: f64,
}

impl Plan {
    /// The benchmark's plan: the CLI's default quotas under `seed`.
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Plan {
        Plan {
            workload,
            cfg: workload.config(seed),
            setup_cfg: workload.config_with(seed, 0, 1),
            seconds,
        }
    }
}

fn measured(defs: &'static [MetricDef], name: &str, samples: Vec<f64>) -> Measured {
    Measured {
        def: defs
            .iter()
            .find(|d| d.name == name)
            .expect("metric is defined"),
        samples,
    }
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Checks each output of `got` against the same output of `expected`.
pub fn check_job(checks: &mut Checks, what: &str, expected: &JobOutput, got: &JobOutput) {
    for ((label, want), (_, have)) in expected.digests().iter().zip(got.digests()) {
        checks.run(label, digest_mismatch(what, *want, have));
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
///
/// # Panics
///
/// Panics where `/proc/self/status` has no `VmHWM` (non-Linux hosts).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// The end-to-end measurement, tracing off: set-up time over minimal
/// jobs, one untimed reference job, then timed repetitions until the time
/// budget is spent. Every repetition must reproduce the reference job's
/// stats exactly; runs the job reaches by another path that must give the
/// same stats as a plain `MixRun::run` ([`PlainMatch::OtherPath`]) are
/// also checked once against that plain run.
pub fn measure(plan: &Plan) -> Outcome {
    let w = plan.workload;
    let mut checks = Checks::default();
    // Set-up jobs take well under a millisecond, so one batch would sample
    // a single moment of the host; batches between the timed jobs spread
    // the samples over the whole measurement instead. Both metrics are
    // scaled by the host's speed (`host`: kernel time over its reference
    // time) measured next to them.
    let mut setup = Vec::new();
    let time_setup = |setup: &mut Vec<f64>, host: f64| {
        for _ in 0..SETUP_BATCH {
            let secs = Spans::off()
                .time("job", |s| black_box(w.run_job(&plan.setup_cfg, s)))
                .1;
            setup.push(secs / host);
        }
    };
    time_setup(&mut setup, kernel_secs() / REFERENCE_SECS);

    let first = w.run_job(&plan.cfg, &mut Spans::off());
    // The peak of one job, as a user running the experiment once sees it;
    // read before the timed repetitions, whose count depends on the
    // host's speed and whose allocations fragment the heap further.
    let rss_mb = peak_rss_mb();
    let apps = w.apps();
    for (config, (label, result)) in w.run_configs().iter().zip(&first.runs) {
        if w.plain_match(config) == PlainMatch::OtherPath {
            let plain = config.run(&plan.cfg, &apps);
            checks.run(
                label,
                digest_mismatch(
                    "job run vs plain run",
                    run_digest(&plain),
                    run_digest(result),
                ),
            );
        }
    }

    let instructions = w.delivered_instructions(&plan.cfg) as f64;
    let mut walls = Vec::new();
    let mut mips = Vec::new();
    let start = Instant::now();
    let mut kernel_before = kernel_secs();
    loop {
        let (out, secs) = Spans::off().time("job", |s| w.run_job(&plan.cfg, s));
        let kernel_after = kernel_secs();
        check_job(&mut checks, "repetition vs first job", &first, &out);
        let host = (kernel_before + kernel_after) / 2.0 / REFERENCE_SECS;
        mips.push(instructions / secs * host / 1e6);
        walls.push(secs);
        time_setup(&mut setup, kernel_after / REFERENCE_SECS);
        kernel_before = kernel_after;
        let next = Summary::of(&walls).median;
        if walls.len() >= MIN_REPS && start.elapsed().as_secs_f64() + next > plan.seconds {
            break;
        }
    }

    Outcome {
        workload: w.name(),
        checks,
        metrics: vec![
            measured(&END_TO_END, "sim_mips", mips),
            measured(&END_TO_END, "setup_s", setup),
            measured(&END_TO_END, "peak_rss_mb", vec![rss_mb]),
        ],
        stats_digest: combine(first.digests().into_iter().map(|(_, d)| d)),
        trace_events: Vec::new(),
    }
}

/// Sums over a workload's runs, filled in by the traced pass.
#[derive(Debug, Default)]
struct Totals {
    instr: u64,
    accesses: u64,
    run_s: f64,
    replay_s: f64,
    gen_s: f64,
    cpu_s: f64,
    core_s: f64,
    analyzed_s: f64,
    events: u64,
    l1_accesses: u64,
    l1_misses: u64,
    l2_accesses: u64,
    l2_misses: u64,
    llc_accesses: u64,
    llc_misses: u64,
    back_invalidates: u64,
    qbs_queries: u64,
    qbs_rejections: u64,
    tlh_hints: u64,
    eci_invalidates: u64,
    eci_rescues: u64,
    victim_misses: u64,
    prefetches: u64,
    injections: u64,
    inject_hits: u64,
    io_victims: u64,
    /// Wall time of runs with device agents minus their no-I/O twins.
    io_extra_s: f64,
    oracle_refs: u64,
    oracle_stream_s: f64,
    oracle_replay_s: f64,
    /// Checkpoint round trips made, and their summed costs.
    snapshots: u64,
    checkpoint_s: f64,
    checkpoint_bytes: u64,
    from_bytes_s: f64,
    resume_s: f64,
}

impl Totals {
    fn add_io(&mut self, io: Option<&IoStats>, extra_s: f64) {
        if let Some(io) = io {
            self.injections += io.injections;
            self.inject_hits += io.inject_hits;
            self.io_victims += io.victim_misses_io;
            self.io_extra_s += extra_s;
        }
    }
}

/// State of one traced pass.
struct Pass<'a> {
    workload: Workload,
    cfg: &'a SimConfig,
    apps: Vec<SpecApp>,
    checks: Checks,
    t: Totals,
}

/// What the traced pass keeps of a configuration's plain `MixRun::run`.
struct Plain {
    secs: f64,
    digest: u64,
    io: Option<IoStats>,
}

impl Pass<'_> {
    /// Times one run configuration layer by layer: the plain run, the
    /// recording replay loop, then generation, the core model and the
    /// hierarchy each alone over the recording, and the analyzed run
    /// (telemetry sinks attached).
    fn layer_run(
        &mut self,
        spans: &mut Spans,
        config: &RunConfig,
        label: &str,
        job_result: &RunResult,
    ) -> Plain {
        let (cfg, apps) = (self.cfg, &self.apps);
        let (plain, run_s) = spans.time("sim.run", |_| config.run(cfg, apps));
        let digest = run_digest(&plain);
        if self.workload.plain_match(config) != PlainMatch::Unrelated {
            self.checks.run(
                label,
                digest_mismatch("job run vs plain run", digest, run_digest(job_result)),
            );
        }

        let (rp, replay_s) = spans.time("sim.replay", |_| {
            replay(cfg, apps, &config.spec, &config.io)
        });
        let rec = &rp.recording;
        let (_, gen_s) = spans.time("workloads.gen", |_| {
            black_box(generate(cfg, apps, &config.io, rec))
        });
        let (cores, cpu_s) = spans.time("cpu.step", |_| step_cores(cfg, rec));
        let hcfg = hierarchy_config(cfg, apps, &config.spec, &config.io);
        let (hier, core_s) = spans.time("core.access", |_| access_hierarchy(&hcfg, &rec.accesses));
        let mut problems: Vec<String> =
            digest_mismatch("replay vs plain run", digest, run_digest(&rp.result))
                .into_iter()
                .collect();
        problems.extend(layer_problems(&rp, &hier, &cores));
        problems.extend(invariant_problems(&hier));
        self.checks.run(&format!("replay {label}"), problems);

        let ((analyzed, report), analyzed_s) = spans.time("telemetry.analyzed", |_| {
            config
                .mix_run(cfg, apps)
                .run_report_analyzed(Some(ANALYZE_WINDOW), ANALYZE_SAMPLE_EVERY)
        });
        self.checks.run(
            &format!("analyzed {label}"),
            digest_mismatch("analyzed vs plain run", digest, run_digest(&analyzed)),
        );

        let t = &mut self.t;
        t.instr += rec.instructions();
        t.accesses += rec.accesses.len() as u64;
        t.run_s += run_s;
        t.replay_s += replay_s;
        t.gen_s += gen_s;
        t.cpu_s += cpu_s;
        t.core_s += core_s;
        t.analyzed_s += analyzed_s;
        t.events += report.event_totals.iter().map(|(_, n)| n).sum::<u64>();
        for s in hier.all_per_core_stats() {
            t.l1_accesses += s.l1_accesses();
            t.l1_misses += s.l1_misses();
            t.l2_accesses += s.l2_accesses;
            t.l2_misses += s.l2_misses;
            t.llc_accesses += s.llc_accesses;
            t.llc_misses += s.llc_misses;
        }
        let g = hier.global_stats();
        t.back_invalidates += g.back_invalidates;
        t.qbs_queries += g.qbs_queries;
        t.qbs_rejections += g.qbs_rejections;
        t.tlh_hints += g.tlh_hints;
        t.eci_invalidates += g.eci_invalidates;
        t.eci_rescues += g.eci_rescues;
        t.victim_misses += g.victim_misses();
        t.prefetches += g.prefetches;
        Plain {
            secs: run_s,
            digest,
            io: plain.io.map(|(s, _)| s),
        }
    }

    /// The MIN oracle's two halves on this mix: building the reference
    /// stream and the set-sharded replay at the LLC geometry.
    fn oracle(&mut self, spans: &mut Spans, job_oracle: Option<&tla::sim::OracleResult>) {
        let (cfg, apps) = (self.cfg, &self.apps);
        let ((refs, warm_len), stream_s) =
            spans.time("sim.oracle_stream", |_| mix_reference_stream(cfg, apps));
        let hcfg = HierarchyConfig::scaled(apps.len(), cfg.scale() as usize);
        let (sets, ways) = (hcfg.llc().sets(), hcfg.llc().ways());
        let (opt, replay_s) = spans.time("sim.oracle_replay", |_| {
            belady_sharded(&refs, warm_len, sets, ways, cfg.effective_shard_jobs())
        });
        if let Some(o) = job_oracle {
            self.checks.run(
                "oracle",
                digest_mismatch(
                    "oracle layers vs job oracle",
                    oracle_digest(o),
                    oracle_digest(&opt),
                ),
            );
        }
        self.t.oracle_refs = refs.len() as u64;
        self.t.oracle_stream_s = stream_s;
        self.t.oracle_replay_s = replay_s;
    }

    /// Checkpointing on this mix, per no-I/O policy: the warm-up frozen
    /// into a checkpoint, its bytes decoded, the measured phase resumed.
    /// Resuming an image under the policy that warmed it must reproduce
    /// the straight-through run exactly.
    fn snapshot(&mut self, spans: &mut Spans, plain: &[(RunConfig, Plain)]) {
        let (cfg, apps) = (self.cfg, &self.apps);
        for (config, p) in plain.iter().filter(|(c, _)| c.io.is_trivial()) {
            let (ck, checkpoint_s) = spans.time("snapshot.checkpoint", |_| {
                config.mix_run(cfg, apps).warm_checkpoint()
            });
            let bytes = ck.as_bytes().to_vec();
            let len = bytes.len() as u64;
            let (ck, from_bytes_s) =
                spans.time("snapshot.from_bytes", |_| Checkpoint::from_bytes(bytes));
            let (resumed, resume_s) = spans.time("snapshot.resume", |_| {
                ck.and_then(|ck| config.mix_run(cfg, apps).resume(&ck))
            });
            let problems = match resumed {
                Err(e) => Some(format!("checkpoint round trip failed: {e}")),
                Ok(r) => digest_mismatch("resume vs plain run", p.digest, run_digest(&r)),
            };
            self.checks
                .run(&format!("resume {}", config.label()), problems);
            let t = &mut self.t;
            t.snapshots += 1;
            t.checkpoint_s += checkpoint_s;
            t.checkpoint_bytes += len;
            t.from_bytes_s += from_bytes_s;
            t.resume_s += resume_s;
        }
    }

    /// Device injection on this mix: the job's own I/O scenarios when it
    /// has them, otherwise the first run configuration with a leaky-DMA
    /// agent attached. The injection cost is the wall time over the same
    /// policy's no-I/O run.
    fn io(&mut self, spans: &mut Spans, plain: &[(RunConfig, Plain)]) {
        let no_io_secs = |spec: &PolicySpec| {
            plain
                .iter()
                .find(|(c, _)| c.io.is_trivial() && c.spec == *spec)
                .map_or(0.0, |(_, p)| p.secs)
        };
        let with_io: Vec<_> = plain.iter().filter(|(c, _)| !c.io.is_trivial()).collect();
        if with_io.is_empty() {
            let (first, _) = &plain[0];
            let probe = RunConfig {
                io: IoMixConfig::none().agent(IoAgentSpec::dma().period(2)),
                spec: first.spec.clone(),
            };
            let (r, secs) = spans.time("io.probe", |_| probe.run(self.cfg, &self.apps));
            self.t.add_io(
                r.io.as_ref().map(|(s, _)| s),
                secs - no_io_secs(&first.spec),
            );
        }
        for (config, p) in with_io {
            self.t
                .add_io(p.io.as_ref(), p.secs - no_io_secs(&config.spec));
        }
    }
}

/// The traced pass: the job once more with a span around every library
/// call; then, per run configuration, each layer timed on its own over
/// inputs recorded by the outside-in replay; then the layers a job may
/// not exercise (MIN oracle, checkpoints, device injection) timed on this
/// workload's mix. Every run made along the way is checked.
pub fn traced(plan: &Plan) -> Outcome {
    let w = plan.workload;
    let cfg = &plan.cfg;
    let mut spans = Spans::new(w.name());
    let mut pass = Pass {
        workload: w,
        cfg,
        apps: w.apps(),
        checks: Checks::default(),
        t: Totals::default(),
    };

    let first = w.run_job(cfg, &mut Spans::off());
    let mut untraced = Vec::new();
    for _ in 0..TRACE_BASELINE_REPS {
        let (out, secs) = Spans::off().time("job", |s| w.run_job(cfg, s));
        check_job(&mut pass.checks, "repetition vs first job", &first, &out);
        untraced.push(secs);
    }
    let (job, job_s) = spans.time("job", |s| w.run_job(cfg, s));
    check_job(&mut pass.checks, "traced job vs first job", &first, &job);
    let oracle_in_job_s = spans.total_secs("sim.optimal_llc");

    spans.time("layers", |spans| {
        let plain: Vec<(RunConfig, Plain)> = w
            .run_configs()
            .into_iter()
            .zip(&first.runs)
            .map(|(config, (label, job_result))| {
                let p = spans
                    .time(&format!("run {label}"), |s| {
                        pass.layer_run(s, &config, label, job_result)
                    })
                    .0;
                (config, p)
            })
            .collect();
        spans.time("oracle", |s| pass.oracle(s, first.oracle.as_ref()));
        spans.time("snapshot", |s| pass.snapshot(s, &plain));
        spans.time("io", |s| pass.io(s, &plain));
    });

    let t = &pass.t;
    let instr = t.instr as f64;
    let per_instr = |secs: f64| ratio(secs * 1e9, instr);
    let per_snapshot = |x: f64| ratio(x, t.snapshots as f64);
    // The job's runs one at a time, to weigh its fan-out against.
    let serial_s = match w {
        Workload::Thrash8c | Workload::IoSweep1c => t.run_s,
        Workload::Analyze4c => t.analyzed_s,
        // One baseline warm-up, then a resume per policy.
        Workload::CcfWarm2c => per_snapshot(t.checkpoint_s) + t.resume_s,
    };
    let fanout_s = (job_s - oracle_in_job_s) * w.threads() as f64;
    let values = [
        ("workloads.gen_ns_per_instr", per_instr(t.gen_s)),
        ("workloads.instr", instr),
        ("cpu.step_ns_per_instr", per_instr(t.cpu_s)),
        ("core.access_ns", ratio(t.core_s * 1e9, t.accesses as f64)),
        ("core.accesses", t.accesses as f64),
        (
            "core.l1_miss_frac",
            ratio(t.l1_misses as f64, t.l1_accesses as f64),
        ),
        (
            "core.l2_miss_frac",
            ratio(t.l2_misses as f64, t.l2_accesses as f64),
        ),
        (
            "core.llc_miss_frac",
            ratio(t.llc_misses as f64, t.llc_accesses as f64),
        ),
        ("core.back_invalidates", t.back_invalidates as f64),
        ("core.qbs_queries", t.qbs_queries as f64),
        (
            "core.qbs_reject_frac",
            ratio(t.qbs_rejections as f64, t.qbs_queries as f64),
        ),
        ("core.tlh_hints", t.tlh_hints as f64),
        ("core.eci_invalidates", t.eci_invalidates as f64),
        (
            "core.eci_rescue_frac",
            ratio(t.eci_rescues as f64, t.eci_invalidates as f64),
        ),
        ("core.inclusion_victim_misses", t.victim_misses as f64),
        ("core.prefetches", t.prefetches as f64),
        (
            "sim.engine_ns_per_instr",
            per_instr(t.run_s - t.gen_s - t.core_s - t.cpu_s),
        ),
        ("sim.replay_ns_per_instr", per_instr(t.replay_s)),
        (
            "sim.oracle_stream_ns_per_ref",
            ratio(t.oracle_stream_s * 1e9, t.oracle_refs as f64),
        ),
        (
            "sim.oracle_replay_ns_per_ref",
            ratio(t.oracle_replay_s * 1e9, t.oracle_refs as f64),
        ),
        ("sim.oracle_refs", t.oracle_refs as f64),
        ("sim.oracle_share", ratio(oracle_in_job_s, job_s)),
        (
            "telemetry.overhead_frac",
            ratio(t.analyzed_s, t.run_s) - 1.0,
        ),
        ("telemetry.events", t.events as f64),
        (
            "telemetry.ns_per_event",
            ratio((t.analyzed_s - t.run_s) * 1e9, t.events as f64),
        ),
        ("snapshot.checkpoint_s", per_snapshot(t.checkpoint_s)),
        ("snapshot.bytes", per_snapshot(t.checkpoint_bytes as f64)),
        ("snapshot.from_bytes_s", per_snapshot(t.from_bytes_s)),
        ("snapshot.resume_s", per_snapshot(t.resume_s)),
        (
            "snapshot.warm_share",
            // Only the warm-start job warms once and resumes per policy.
            if w == Workload::CcfWarm2c {
                ratio(per_snapshot(t.checkpoint_s), job_s)
            } else {
                0.0
            },
        ),
        ("io.injections", t.injections as f64),
        (
            "io.inject_hit_frac",
            ratio(t.inject_hits as f64, t.injections as f64),
        ),
        ("io.victim_misses", t.io_victims as f64),
        (
            "io.ns_per_injection",
            ratio(t.io_extra_s * 1e9, t.injections as f64),
        ),
        ("pool.fanout_efficiency", ratio(serial_s, fanout_s)),
        (
            "bench.trace_overhead_frac",
            job_s / Summary::of(&untraced).median - 1.0,
        ),
    ];
    Outcome {
        workload: w.name(),
        metrics: values
            .into_iter()
            .map(|(name, v)| measured(&PER_LAYER, name, vec![v]))
            .collect(),
        checks: pass.checks,
        stats_digest: combine(first.digests().into_iter().map(|(_, d)| d)),
        trace_events: spans.trace_events(1),
    }
}
