//! The outside-in replay: a plain serial simulation loop built only from
//! the layers' public functions, which records each layer's inputs so the
//! layers can then be timed one at a time.
//!
//! The loop follows the simulator's scheduling contract: the core or I/O
//! agent with the lowest local clock commits next, ties go to the lowest
//! index (cores sit before agents, so cores win ties), statistics are
//! marked when a thread crosses its warm-up quota and frozen when it
//! retires its measured quota, and the run ends when the last thread
//! freezes. Its results must equal `MixRun::run`'s exactly, which makes
//! it an independent check of the batched engine as well as the source
//! of the per-layer split.

use std::hint::black_box;
use tla::core::{CacheHierarchy, HierarchyConfig, IoInjectConfig, PerCoreStats, VictimCacheConfig};
use tla::cpu::CoreModel;
use tla::io::IoMixConfig;
use tla::sim::{PolicySpec, RunResult, SimConfig, ThreadResult};
use tla::types::{AccessKind, CoreId, Cycle, DataSource, LineAddr};
use tla::workloads::{SpecApp, TraceSource};

/// Who issued one recorded hierarchy call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A demand access by a core.
    Demand {
        /// Core index.
        core: u8,
        /// Fetch, load or store.
        kind: AccessKind,
    },
    /// A device injection by an I/O agent.
    Inject {
        /// Agent index.
        agent: u8,
        /// Whether the injection writes the line.
        write: bool,
    },
}

/// One recorded hierarchy call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// The line touched.
    pub line: LineAddr,
    /// The instruction clock (`CacheHierarchy::set_now`) at the call.
    pub now: u64,
    /// The issuing core or agent.
    pub op: Op,
}

/// The inputs one `CoreModel::step` call received.
pub type Step = (Option<DataSource>, Option<(AccessKind, DataSource)>);

/// Each layer's inputs, as the replay loop fed them.
#[derive(Debug, Clone, Default)]
pub struct Recording {
    /// Instructions each core's trace generated (= committed).
    pub core_instr: Vec<u64>,
    /// Instructions each I/O agent's stream generated.
    pub agent_instr: Vec<u64>,
    /// Every hierarchy call, in commit order.
    pub accesses: Vec<Access>,
    /// Every core-model step, per core.
    pub steps: Vec<Vec<Step>>,
}

impl Recording {
    /// Instructions committed by all cores.
    pub fn instructions(&self) -> u64 {
        self.core_instr.iter().sum()
    }
}

/// Everything the replay loop leaves behind.
#[derive(Debug)]
pub struct Replay {
    /// The run's results, in `MixRun::run`'s shape.
    pub result: RunResult,
    /// The layers' recorded inputs.
    pub recording: Recording,
    /// The hierarchy in its final state.
    pub hierarchy: CacheHierarchy,
    /// The core models in their final state.
    pub cores: Vec<CoreModel>,
}

/// The hierarchy `MixRun` builds for this run.
pub fn hierarchy_config(
    cfg: &SimConfig,
    apps: &[SpecApp],
    spec: &PolicySpec,
    io: &IoMixConfig,
) -> HierarchyConfig {
    let mut h = HierarchyConfig::scaled(apps.len(), cfg.scale() as usize)
        .inclusion_policy(spec.inclusion)
        .tla(spec.tla)
        .seed(cfg.seed_value());
    if let Some(entries) = spec.victim_cache {
        h = h.victim_cache(VictimCacheConfig { entries });
    }
    if let Some(policy) = spec.llc_replacement {
        h = h.llc_policy(policy);
    }
    if !cfg.prefetch_enabled() {
        h = h.prefetcher(None);
    }
    if !io.is_trivial() {
        h = h.io(IoInjectConfig {
            agents: io.agents.len(),
            inject_ways: io.inject_ways,
            partition: io.partition,
        });
    }
    h
}

/// Runs `apps` under `spec` (with `io`'s device agents) through the
/// serial reference loop, recording every layer's inputs.
///
/// # Panics
///
/// Panics if there are more than 255 cores or agents.
pub fn replay(cfg: &SimConfig, apps: &[SpecApp], spec: &PolicySpec, io: &IoMixConfig) -> Replay {
    let (scale, seed) = (cfg.scale(), cfg.seed_value());
    let n = apps.len();
    let mut hier = CacheHierarchy::new(&hierarchy_config(cfg, apps, spec, io));
    let mut cores: Vec<CoreModel> = (0..n).map(|_| CoreModel::new(*cfg.core_config())).collect();
    let mut traces: Vec<_> = apps
        .iter()
        .enumerate()
        .map(|(i, app)| app.trace(scale, i as u64, seed))
        .collect();
    let mut agents: Vec<_> = io
        .agents
        .iter()
        .enumerate()
        .map(|(i, a)| (a.stream(i, scale, seed), a.period))
        .collect();
    // Agents inject one period in, like the engine's.
    let mut agent_clock: Vec<Cycle> = io.agents.iter().map(|a| a.period).collect();
    let mut rec = Recording {
        core_instr: vec![0; n],
        agent_instr: vec![0; agents.len()],
        accesses: Vec::new(),
        steps: vec![Vec::new(); n],
    };

    let warmup = cfg.warmup_quota();
    let quota = warmup + cfg.instruction_quota();
    let mut warm: Vec<Option<(Cycle, PerCoreStats)>> =
        vec![(warmup == 0).then(|| (0, PerCoreStats::default())); n];
    let mut frozen: Vec<Option<ThreadResult>> = vec![None; n];
    let mut last_code: Vec<Option<LineAddr>> = vec![None; n];
    let mut remaining = n;
    let mut total = 0u64;
    while remaining > 0 {
        let clock = |i: usize| {
            if i < n {
                cores[i].now()
            } else {
                agent_clock[i - n]
            }
        };
        let next = (0..n + agents.len())
            .min_by_key(|&i| (clock(i), i))
            .expect("at least one core");
        if next >= n {
            let a = next - n;
            let (stream, period) = &mut agents[a];
            let instr = stream.next_instruction();
            rec.agent_instr[a] += 1;
            if let Some(m) = instr.mem {
                let write = m.kind.is_write();
                rec.accesses.push(Access {
                    line: m.addr,
                    now: total,
                    op: Op::Inject {
                        agent: u8::try_from(a).expect("at most 255 agents"),
                        write,
                    },
                });
                hier.io_inject(a, m.addr, write);
            }
            agent_clock[a] += *period;
            continue;
        }

        let i = next;
        let core = CoreId::new(i);
        let core_u8 = u8::try_from(i).expect("at most 255 cores");
        let instr = traces[i].next_instruction();
        rec.core_instr[i] += 1;
        total += 1;
        hier.set_now(total);
        let ifetch = if last_code[i] != Some(instr.code_line) {
            last_code[i] = Some(instr.code_line);
            rec.accesses.push(Access {
                line: instr.code_line,
                now: total,
                op: Op::Demand {
                    core: core_u8,
                    kind: AccessKind::IFetch,
                },
            });
            Some(hier.access(core, instr.code_line, AccessKind::IFetch))
        } else {
            None
        };
        let mem = instr.mem.map(|m| {
            rec.accesses.push(Access {
                line: m.addr,
                now: total,
                op: Op::Demand {
                    core: core_u8,
                    kind: m.kind,
                },
            });
            (m.kind, hier.access(core, m.addr, m.kind))
        });
        rec.steps[i].push((ifetch, mem));
        cores[i].step(ifetch, mem);

        let retired = cores[i].retired();
        if warm[i].is_none() && retired >= warmup {
            warm[i] = Some((cores[i].cycles(), *hier.per_core_stats(core)));
        }
        if frozen[i].is_none() && retired >= quota {
            let (warm_cycles, warm_stats) = warm[i].take().expect("warm mark precedes freeze");
            frozen[i] = Some(ThreadResult {
                app: apps[i],
                instructions: retired - warmup,
                cycles: cores[i].cycles() - warm_cycles,
                stats: hier.per_core_stats(core).since(&warm_stats),
            });
            remaining -= 1;
        }
    }

    let io_stats = hier
        .io_stats()
        .map(|s| (*s, hier.io_agent_stats().unwrap_or(&[]).to_vec()));
    Replay {
        result: RunResult {
            threads: frozen
                .into_iter()
                .map(|t| t.expect("every thread froze"))
                .collect(),
            global: *hier.global_stats(),
            io: io_stats,
            spec_name: spec.name.clone(),
        },
        recording: rec,
        hierarchy: hier,
        cores,
    }
}

/// Trace generation alone: regenerates exactly the instructions each core
/// and agent consumed. Returns a value derived from every instruction so
/// the work cannot be optimized away.
pub fn generate(cfg: &SimConfig, apps: &[SpecApp], io: &IoMixConfig, rec: &Recording) -> u64 {
    let (scale, seed) = (cfg.scale(), cfg.seed_value());
    let mut sink = 0u64;
    for (i, app) in apps.iter().enumerate() {
        let mut trace = app.trace(scale, i as u64, seed);
        for _ in 0..rec.core_instr[i] {
            sink = sink.wrapping_add(black_box(trace.next_instruction()).code_line.raw());
        }
    }
    for (i, agent) in io.agents.iter().enumerate() {
        let mut stream = agent.stream(i, scale, seed);
        for _ in 0..rec.agent_instr[i] {
            sink = sink.wrapping_add(black_box(stream.next_instruction()).code_line.raw());
        }
    }
    sink
}

/// The core timing model alone: fresh cores stepped through the recorded
/// data sources.
pub fn step_cores(cfg: &SimConfig, rec: &Recording) -> Vec<CoreModel> {
    rec.steps
        .iter()
        .map(|steps| {
            let mut core = CoreModel::new(*cfg.core_config());
            for &(ifetch, mem) in steps {
                black_box(core.step(ifetch, mem));
            }
            core
        })
        .collect()
}

/// The cache hierarchy alone: a fresh hierarchy fed the recorded call
/// stream, instruction clock included.
pub fn access_hierarchy(hcfg: &HierarchyConfig, accesses: &[Access]) -> CacheHierarchy {
    let mut hier = CacheHierarchy::new(hcfg);
    for a in accesses {
        hier.set_now(a.now);
        match a.op {
            Op::Demand { core, kind } => {
                black_box(hier.access(CoreId::new(usize::from(core)), a.line, kind));
            }
            Op::Inject { agent, write } => hier.io_inject(usize::from(agent), a.line, write),
        }
    }
    hier
}

/// Problems when the isolated layer replays disagree with the loop that
/// recorded them: the hierarchy must end with the same counters, each
/// core with the same clock and retirement count.
pub fn layer_problems(
    replay: &Replay,
    hierarchy: &CacheHierarchy,
    cores: &[CoreModel],
) -> Vec<String> {
    let mut problems = Vec::new();
    if hierarchy.all_per_core_stats() != replay.hierarchy.all_per_core_stats()
        || hierarchy.global_stats() != replay.hierarchy.global_stats()
        || hierarchy.io_stats() != replay.hierarchy.io_stats()
    {
        problems.push("hierarchy replay counters differ from the recording loop's".to_string());
    }
    for (i, (a, b)) in cores.iter().zip(&replay.cores).enumerate() {
        if (a.cycles(), a.retired(), a.now()) != (b.cycles(), b.retired(), b.now()) {
            problems.push(format!("core {i} model replay ends at a different clock"));
        }
    }
    problems
}
