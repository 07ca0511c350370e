//! Command-line driver for the TLA simulator.
//!
//! ```text
//! tla-cli list                                   # apps, mixes, policies
//! tla-cli paper [--figure <id>] [options]        # the paper's tables/figures
//! tla-cli run --mix lib,sje --policy qbs [opts]  # one run
//! tla-cli compare --mix lib,sje [opts]           # all policies on one mix
//! tla-cli analyze --mix lib,sje [opts]           # compare + MIN oracle,
//!                                                # reuse and victim analytics
//! tla-cli bench [opts]                           # throughput benchmark
//! tla-cli io-sweep --mix sje [opts]              # app-vs-I/O pressure sweep
//! tla-cli snapshot save --mix a,b --out f.tlas   # warm once, checkpoint
//! tla-cli snapshot info f.tlas                   # inspect a checkpoint
//! tla-cli snapshot resume f.tlas --policy qbs    # measure from a checkpoint
//!
//! options: --scale <1|2|4|8>  --measure <n>  --warmup <n>  --seed <n>
//!          --llc-mb <n>  --no-prefetch  --json <path>  --window <n>
//!          --jobs <n>  --shard-jobs <n>  --figure <id>
//!          --baseline <path>  --gate <pct>  --target-ms <n>  --out <path>
//!          --warm-start  --warm-image <path>  --sample-every <n>
//!          --io <agents>  --io-ways <n>  --io-partition  --smoke
//! ```
//!
//! Each subcommand accepts only the flags it reads (`COMMAND_FLAGS`).

use std::process::ExitCode;
use tla::bench::paper::{self, Figure};
use tla::cache::CacheConfig;
use tla::core::HierarchyConfig;
use tla::io::{IoAgentSpec, IoMixConfig};
use tla::sim::{
    optimal_llc, run_policy_reports_analyzed_io, run_policy_reports_io,
    run_policy_reports_warm_start_cached, Checkpoint, MixRun, PolicySpec, RunReport, RunResult,
    SimConfig, Table, WarmCache,
};
use tla::telemetry::json::JsonValue;
use tla::telemetry::DEFAULT_SAMPLE_EVERY;
use tla::types::CoreId;
use tla::workloads::{table2_mixes, SpecApp};

fn usage() -> ExitCode {
    eprintln!(
        "usage: tla-cli <list|paper|run|compare|analyze|bench|io-sweep|snapshot> [options]\n\
         \n\
         commands:\n\
         \x20 list                    available apps, mixes and policies\n\
         \x20 paper [--figure <id>]   the paper's tables and figures, each\n\
         \x20                         suite run straight through (every\n\
         \x20                         figure in paper order without\n\
         \x20                         --figure; ids: table1 fig2 fig5 fig6\n\
         \x20                         fig7 fig8 fig9 fig10 fig11\n\
         \x20                         victim-cache qbs-variants\n\
         \x20                         replacement latency snoop-filter).\n\
         \x20                         At --scale 1, Figs 2 and 10 cover all\n\
         \x20                         105 mixes and Fig 11 100 random ones\n\
         \x20 run     --mix a,b ...   one simulation run\n\
         \x20 compare --mix a,b ...   every policy on one mix\n\
         \x20                         (--warm-start: warm once under the\n\
         \x20                         baseline, fan measurement per policy)\n\
         \x20 analyze --mix a,b ...   compare with the analytics layer:\n\
         \x20                         Belady MIN oracle gap, reuse-distance\n\
         \x20                         histograms, inclusion-victim rates\n\
         \x20 bench                   simulator throughput over a fixed\n\
         \x20                         policy x core-count matrix (plus the\n\
         \x20                         io/* injection entries)\n\
         \x20 io-sweep [--mix a,b]    app-vs-I/O pressure sweep: device\n\
         \x20                         scenarios (nic ring, leaky dma,\n\
         \x20                         injection-way limits, partitioning)\n\
         \x20                         x the four management policies\n\
         \x20                         (default mix: sje; --smoke for CI)\n\
         \x20 snapshot save --mix a,b --out <f.tlas>\n\
         \x20                         run the warm-up only and checkpoint it\n\
         \x20                         (--window instruments the checkpoint)\n\
         \x20 snapshot info <f.tlas>  describe a checkpoint\n\
         \x20 snapshot resume <f.tlas> [--policy p] [--json out]\n\
         \x20                         finish the measured phase from a\n\
         \x20                         checkpoint (config comes from the file)\n\
         \x20 snapshot cache-info <dir>\n\
         \x20                         list a --warm-cache directory (reads\n\
         \x20                         only; nothing is evicted or touched)\n\
         \n\
         options (each subcommand rejects the ones it does not read):\n\
         \x20 --mix <apps|MIX_nn>     comma-separated app names (see `list`)\n\
         \x20 --policy <name>         baseline, tlh-il1, tlh-dl1, tlh-l1, tlh-l2,\n\
         \x20                         tlh-l1-l2, eci, qbs, qbs-il1, qbs-dl1, qbs-l1,\n\
         \x20                         qbs-l2, non-inclusive, exclusive, vc<N>\n\
         \x20                         (vc32 = the paper's victim cache; any\n\
         \x20                         entry count up to 256 works, e.g. vc128)\n\
         \x20 --scale <1|2|4|8>       cache down-scaling (default 8)\n\
         \x20 --measure <n>           measured instructions/thread (default 300000)\n\
         \x20 --warmup <n>            warm-up instructions/thread (default 800000)\n\
         \x20 --seed <n>              master seed\n\
         \x20 --llc-mb <n>            LLC capacity in MB at full scale\n\
         \x20 --no-prefetch           disable the stream prefetcher\n\
         \x20 --json <path>           write a machine-readable run report\n\
         \x20 --window <n>            time-series window in instructions\n\
         \x20                         (with --json; default 100000)\n\
         \x20 --jobs <n>              worker threads for batch commands\n\
         \x20                         (default: all cores; results are\n\
         \x20                         bit-identical for any value)\n\
         \x20 --shard-jobs <n>        worker threads for set-sharded passes\n\
         \x20                         inside one run (the Belady oracle;\n\
         \x20                         default 1, 0 = all cores; results are\n\
         \x20                         bit-identical for any value)\n\
         \x20 --out <path>            checkpoint file for snapshot save\n\
         \x20 --warm-start            share one warm-up across compare's\n\
         \x20                         policies via an in-memory checkpoint\n\
         \x20 --warm-cache <dir>      persist compare's warm images to <dir>\n\
         \x20                         keyed by configuration; later runs with\n\
         \x20                         the same config skip the warm-up\n\
         \x20                         entirely (implies --warm-start)\n\
         \x20 --sample-every <n>      analyze: profile reuse distance in\n\
         \x20                         every n-th LLC set (default 4)\n\
         \x20 --io <a[,a...]>         run/compare/analyze: attach device\n\
         \x20                         I/O agents injecting into the LLC\n\
         \x20                         (DDIO-style). Agents: nic[:period\n\
         \x20                         [:lines]] (ring buffer), dma[:period]\n\
         \x20                         (leaky write-once stream); e.g.\n\
         \x20                         --io dma:2,nic:4:512. Incompatible\n\
         \x20                         with --warm-start/--warm-cache and\n\
         \x20                         snapshots (checkpoints do not cover\n\
         \x20                         device agents)\n\
         \x20 --io-ways <n>           limit device injections to the first\n\
         \x20                         n LLC ways (DDIO's inject-into-N-ways\n\
         \x20                         model; must fit the LLC associativity)\n\
         \x20 --io-partition          also keep app fills out of the device\n\
         \x20                         ways (static way partitioning;\n\
         \x20                         requires --io-ways)\n\
         \x20 --smoke                 io-sweep: small fixed sweep (CI mode)\n\
         \x20 --figure <id>           paper: run only this figure\n\
         \n\
         bench options:\n\
         \x20 --json <path>           write the BENCH_*.json report\n\
         \x20 --baseline <path>       committed BENCH_*.json to gate against\n\
         \x20 --gate <pct>            max %% regression of an entry's\n\
         \x20                         throughput ratio to 1core/baseline\n\
         \x20                         before failing (default 10)\n\
         \x20 --target-ms <n>         wall-clock budget per matrix entry\n\
         \x20                         (default 800)\n\
         \x20 --warm-image <f.tlas>   warm matching sim entries from a\n\
         \x20                         frozen committed checkpoint (made\n\
         \x20                         with `snapshot save`) instead of a\n\
         \x20                         cold run, so regressions stay\n\
         \x20                         bisectable across binary revisions\n\
         \x20                         with identical warm state; entries\n\
         \x20                         whose config does not match the\n\
         \x20                         image fall back to cold runs"
    );
    ExitCode::FAILURE
}

#[derive(Debug)]
struct Options {
    mix: Vec<SpecApp>,
    policy: Option<PolicySpec>,
    cfg: SimConfig,
    llc_mb: Option<usize>,
    json: Option<String>,
    window: Option<u64>,
    baseline: Option<String>,
    gate_pct: f64,
    target_ms: u64,
    out: Option<String>,
    warm_start: bool,
    warm_cache: Option<String>,
    warm_image: Option<String>,
    sample_every: u32,
    io: IoMixConfig,
    smoke: bool,
    figure: Option<Figure>,
    /// Every flag given, in order, for the per-subcommand check.
    given: Vec<String>,
}

fn parse_policy(name: &str) -> Option<PolicySpec> {
    // `vc<N>` is a family, not a fixed name: vc32 is the paper's §VI victim
    // cache, larger sizes (up to the 256-way structure limit) drive the
    // fully-associative probe sweeps.
    if let Some(n) = name.strip_prefix("vc") {
        let entries: usize = n.parse().ok()?;
        if !(1..=tla::cache::MAX_WAYS).contains(&entries) {
            return None;
        }
        return Some(PolicySpec::victim_cache(entries));
    }
    Some(match name {
        "baseline" | "inclusive" => PolicySpec::baseline(),
        "tlh-il1" => PolicySpec::tlh_il1(),
        "tlh-dl1" => PolicySpec::tlh_dl1(),
        "tlh-l1" => PolicySpec::tlh_l1(),
        "tlh-l2" => PolicySpec::tlh_l2(),
        "tlh-l1-l2" => PolicySpec::tlh_l1_l2(),
        "eci" => PolicySpec::eci(),
        "qbs" => PolicySpec::qbs(),
        "qbs-il1" => PolicySpec::qbs_il1(),
        "qbs-dl1" => PolicySpec::qbs_dl1(),
        "qbs-l1" => PolicySpec::qbs_l1(),
        "qbs-l2" => PolicySpec::qbs_l2(),
        "non-inclusive" => PolicySpec::non_inclusive(),
        "exclusive" => PolicySpec::exclusive(),
        _ => return None,
    })
}

fn parse_mix(spec: &str) -> Option<Vec<SpecApp>> {
    if let Some(mix) = table2_mixes().into_iter().find(|m| m.name == spec) {
        return Some(mix.apps);
    }
    spec.split(',')
        .map(|n| SpecApp::from_short_name(n.trim()))
        .collect()
}

/// Parses every flag any subcommand knows; [`validate`] then checks the
/// combinations.
fn parse_flags(args: &[String], base_cfg: SimConfig) -> Result<Options, String> {
    let mut opts = Options {
        mix: Vec::new(),
        policy: None,
        cfg: base_cfg,
        llc_mb: None,
        json: None,
        window: None,
        baseline: None,
        gate_pct: 10.0,
        target_ms: 800,
        out: None,
        warm_start: false,
        warm_cache: None,
        warm_image: None,
        sample_every: DEFAULT_SAMPLE_EVERY,
        io: IoMixConfig::none(),
        smoke: false,
        figure: None,
        given: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        opts.given.push(arg.clone());
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--mix" => {
                let v = value("--mix")?;
                opts.mix = parse_mix(&v).ok_or_else(|| format!("unknown mix '{v}'"))?;
                if opts.mix.len() > CoreId::MAX_CORES {
                    return Err(format!(
                        "--mix has {} apps; at most {} cores are supported",
                        opts.mix.len(),
                        CoreId::MAX_CORES
                    ));
                }
            }
            "--policy" => {
                let v = value("--policy")?;
                opts.policy =
                    Some(parse_policy(&v).ok_or_else(|| format!("unknown policy '{v}'"))?);
            }
            "--scale" => {
                let v: u64 = value("--scale")?.parse().map_err(|e| format!("{e}"))?;
                if !SimConfig::SCALES.contains(&v) {
                    return Err(format!("--scale must be 1, 2, 4 or 8, got {v}"));
                }
                opts.cfg = opts.cfg.with_scale(v);
            }
            "--measure" => {
                let v: u64 = value("--measure")?.parse().map_err(|e| format!("{e}"))?;
                if v == 0 {
                    return Err("--measure must be positive".into());
                }
                opts.cfg = opts.cfg.instructions(v);
            }
            "--warmup" => {
                let v: u64 = value("--warmup")?.parse().map_err(|e| format!("{e}"))?;
                opts.cfg = opts.cfg.warmup(v);
            }
            "--seed" => {
                let v: u64 = value("--seed")?.parse().map_err(|e| format!("{e}"))?;
                opts.cfg = opts.cfg.seed(v);
            }
            "--llc-mb" => {
                let v: usize = value("--llc-mb")?.parse().map_err(|e| format!("{e}"))?;
                opts.llc_mb = Some(v);
            }
            "--no-prefetch" => {
                opts.cfg = opts.cfg.prefetch(false);
            }
            "--json" => {
                opts.json = Some(value("--json")?);
            }
            "--window" => {
                let v: u64 = value("--window")?.parse().map_err(|e| format!("{e}"))?;
                if v == 0 {
                    return Err("--window must be positive".into());
                }
                opts.window = Some(v);
            }
            "--jobs" => {
                let v: usize = value("--jobs")?.parse().map_err(|e| format!("{e}"))?;
                if v == 0 {
                    return Err("--jobs must be positive".into());
                }
                opts.cfg = opts.cfg.jobs(v);
            }
            "--shard-jobs" => {
                let v: usize = value("--shard-jobs")?.parse().map_err(|e| format!("{e}"))?;
                // 0 is meaningful here: auto-detect the core count.
                opts.cfg = opts.cfg.shard_jobs(v);
            }
            "--baseline" => {
                opts.baseline = Some(value("--baseline")?);
            }
            "--gate" => {
                let v: f64 = value("--gate")?.parse().map_err(|e| format!("{e}"))?;
                if !v.is_finite() || v <= 0.0 {
                    return Err("--gate must be positive".into());
                }
                opts.gate_pct = v;
            }
            "--target-ms" => {
                let v: u64 = value("--target-ms")?.parse().map_err(|e| format!("{e}"))?;
                if v == 0 {
                    return Err("--target-ms must be positive".into());
                }
                opts.target_ms = v;
            }
            "--out" => {
                opts.out = Some(value("--out")?);
            }
            "--warm-start" => {
                opts.warm_start = true;
            }
            "--warm-cache" => {
                opts.warm_cache = Some(value("--warm-cache")?);
                // A persistent cache only makes sense on the warm-once
                // path, so asking for one opts into it.
                opts.warm_start = true;
            }
            "--warm-image" => {
                opts.warm_image = Some(value("--warm-image")?);
            }
            "--sample-every" => {
                let v: u32 = value("--sample-every")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                if v == 0 {
                    return Err("--sample-every must be positive".into());
                }
                opts.sample_every = v;
            }
            "--io" => {
                for part in value("--io")?.split(',') {
                    let spec = IoAgentSpec::parse(part.trim()).map_err(|e| format!("--io: {e}"))?;
                    opts.io = opts.io.clone().agent(spec);
                }
            }
            "--io-ways" => {
                let v: usize = value("--io-ways")?.parse().map_err(|e| format!("{e}"))?;
                if v == 0 {
                    return Err("--io-ways must be positive".into());
                }
                opts.io = opts.io.clone().inject_ways(v);
            }
            "--io-partition" => {
                opts.io = opts.io.clone().partition(true);
            }
            "--smoke" => {
                opts.smoke = true;
            }
            "--figure" => {
                opts.figure = Some(value("--figure")?.parse()?);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(opts)
}

/// Checks flag values that depend on each other.
fn validate(opts: &Options, window_needs_json: bool) -> Result<(), String> {
    if let Some(mb) = opts.llc_mb {
        // The same geometry `MixRun::llc_capacity_full_scale` builds, so
        // a bad size is an error here rather than a panic mid-run.
        let scale = opts.cfg.scale() as usize;
        let hcfg = HierarchyConfig::scaled(1, scale);
        let llc = hcfg.llc();
        mb.checked_mul(1024 * 1024)
            .ok_or_else(|| "overflows usize".to_string())
            .and_then(|bytes| {
                CacheConfig::new("LLC", bytes / scale, llc.ways(), llc.policy())
                    .map_err(|e| e.to_string())
            })
            .map_err(|e| {
                format!(
                    "--llc-mb {mb} gives no valid {}-way LLC at scale {scale}: {e}",
                    llc.ways()
                )
            })?;
    }
    if window_needs_json && opts.window.is_some() && opts.json.is_none() {
        return Err("--window only makes sense with --json".into());
    }
    if opts.io.partition && opts.io.inject_ways.is_none() {
        return Err("--io-partition requires --io-ways".into());
    }
    if !opts.io.is_trivial() && (opts.warm_start || opts.warm_cache.is_some()) {
        return Err("--io cannot be combined with --warm-start/--warm-cache \
             (checkpoints do not cover device I/O agents)"
            .into());
    }
    Ok(())
}

/// [`parse_flags`] then [`validate`], with no per-subcommand check.
#[cfg(test)]
fn parse_options(
    args: &[String],
    base_cfg: SimConfig,
    window_needs_json: bool,
) -> Result<Options, String> {
    let opts = parse_flags(args, base_cfg)?;
    validate(&opts, window_needs_json)?;
    Ok(opts)
}

/// The flags each subcommand reads. [`parse_flags`] knows every flag,
/// so [`parse_command`] checks this table to reject a flag the command
/// would otherwise parse and silently drop.
const COMMAND_FLAGS: &[(&str, &str)] = &[
    ("list", ""),
    ("paper", "--figure --scale --measure --warmup --seed --jobs"),
    (
        "run",
        "--mix --policy --scale --measure --warmup --seed --llc-mb --no-prefetch --json \
         --window --io --io-ways --io-partition",
    ),
    (
        "compare",
        "--mix --scale --measure --warmup --seed --llc-mb --no-prefetch --json --window \
         --jobs --shard-jobs --warm-start --warm-cache --io --io-ways --io-partition",
    ),
    (
        "analyze",
        "--mix --scale --measure --warmup --seed --llc-mb --no-prefetch --json --window \
         --jobs --shard-jobs --sample-every --io --io-ways --io-partition",
    ),
    (
        "bench",
        "--scale --measure --warmup --seed --no-prefetch --json --baseline --gate \
         --target-ms --warm-image",
    ),
    (
        "io-sweep",
        "--mix --scale --measure --warmup --seed --llc-mb --no-prefetch --json --window \
         --jobs --shard-jobs --smoke",
    ),
    (
        "snapshot save",
        "--mix --policy --scale --measure --warmup --seed --llc-mb --no-prefetch --window \
         --out",
    ),
    ("snapshot resume", "--policy --json --window"),
];

/// Whether subcommand `cmd` reads `flag`, per [`COMMAND_FLAGS`].
fn accepts(cmd: &str, flag: &str) -> Result<bool, String> {
    COMMAND_FLAGS
        .iter()
        .find(|(name, _)| *name == cmd)
        .map(|(_, flags)| flags.split_whitespace().any(|f| f == flag))
        .ok_or_else(|| format!("unknown command '{cmd}'"))
}

/// Parses `args` for subcommand `cmd`, rejecting any flag outside the
/// command's [`COMMAND_FLAGS`] entry.
fn parse_command(cmd: &str, args: &[String], base_cfg: SimConfig) -> Result<Options, String> {
    // An unknown command fails before its flags are parsed.
    accepts(cmd, "")?;
    // `analyze` always instruments and `snapshot save` instruments the
    // checkpoint, so a bare --window is live there; everywhere else it
    // only steers a --json report.
    let window_needs_json = !matches!(cmd, "analyze" | "snapshot save");
    let opts = parse_flags(args, base_cfg)?;
    for flag in &opts.given {
        if !accepts(cmd, flag)? {
            return Err(format!("{cmd} does not accept {flag}"));
        }
    }
    validate(&opts, window_needs_json)?;
    Ok(opts)
}

/// Time-series window used for `--json` when `--window` is not given.
const DEFAULT_WINDOW: u64 = 100_000;

fn print_run(opts: &Options, spec: &PolicySpec) -> (f64, Option<RunReport>) {
    let mut run = MixRun::new(&opts.cfg, &opts.mix)
        .spec(spec)
        .io(opts.io.clone());
    if let Some(mb) = opts.llc_mb {
        run = run.llc_capacity_full_scale(mb * 1024 * 1024);
    }
    let (r, report) = if opts.json.is_some() {
        let window = opts.window.unwrap_or(DEFAULT_WINDOW);
        let (r, report) = run.run_report(Some(window));
        (r, Some(report))
    } else {
        (run.run(), None)
    };
    print_result(&spec.name, &r);
    print_io_result(&r);
    (r.throughput(), report)
}

/// One-line device-I/O summary after a run's per-thread table; silent
/// for runs without I/O agents.
fn print_io_result(r: &RunResult) {
    if let Some((io, _)) = &r.io {
        println!(
            "io: {} injections ({} hits, {} fills), {} LLC evictions, \
             {} writebacks, {} io-induced victim misses\n",
            io.injections,
            io.inject_hits,
            io.inject_fills,
            io.llc_evictions,
            io.writebacks,
            io.victim_misses_io,
        );
    }
}

fn print_result(name: &str, r: &tla::sim::RunResult) {
    println!("policy: {name}");
    let mut t = Table::new(&[
        "core", "app", "IPC", "L1 MPKI", "L2 MPKI", "LLC MPKI", "victims",
    ]);
    for (i, th) in r.threads.iter().enumerate() {
        let row = vec![
            i.to_string(),
            th.app.short_name().to_string(),
            format!("{:.3}", th.ipc()),
            format!("{:.2}", th.l1_mpki()),
            format!("{:.2}", th.l2_mpki()),
            format!("{:.2}", th.llc_mpki()),
            th.stats.inclusion_victims().to_string(),
        ];
        if let Err(e) = t.try_add_row(row) {
            eprintln!("warning: dropping malformed report row: {e}");
        }
    }
    print!("{t}");
    println!(
        "throughput {:.3}; back-inv {}, ECI msgs {}, QBS queries {}, TLHs {}, snoops {}\n",
        r.throughput(),
        r.global.back_invalidates,
        r.global.eci_invalidates,
        r.global.qbs_queries,
        r.global.tlh_hints,
        r.global.snoop_probes,
    );
}

fn write_json(path: &str, text: &str) -> ExitCode {
    match std::fs::write(path, text) {
        Ok(()) => {
            eprintln!("report written to {path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot write {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_list() -> ExitCode {
    println!("apps (SPEC CPU2006 models):");
    for app in SpecApp::ALL {
        println!(
            "  {:4} {:10} ({})",
            app.short_name(),
            format!("{app:?}"),
            app.category()
        );
    }
    println!("\nmixes (Table II):");
    for m in table2_mixes() {
        println!("  {m}");
    }
    println!("\npolicies: baseline tlh-il1 tlh-dl1 tlh-l1 tlh-l2 tlh-l1-l2 eci qbs");
    println!("          qbs-il1 qbs-dl1 qbs-l1 qbs-l2 non-inclusive exclusive");
    println!(
        "          vc<N> (victim cache with N entries, 1..={}; vc32 = paper §VI)",
        tla::cache::MAX_WAYS
    );
    println!("\nprobe kernel: {}", tla::cache::kernel_name());
    ExitCode::SUCCESS
}

fn cmd_paper(opts: &Options) -> ExitCode {
    let cfg = &opts.cfg;
    println!(
        "paper: scale 1/{}, {} warm-up + {} measured instructions/thread, seed {:#x}\n",
        cfg.scale(),
        cfg.warmup_quota(),
        cfg.instruction_quota(),
        cfg.seed_value()
    );
    let figures = opts.figure.map_or(Figure::ALL.to_vec(), |f| vec![f]);
    for figure in figures {
        print!("{}", paper::run(figure, cfg));
    }
    ExitCode::SUCCESS
}

fn cmd_run(opts: &Options) -> ExitCode {
    if opts.mix.is_empty() {
        eprintln!("run: --mix is required");
        return ExitCode::FAILURE;
    }
    let spec = opts.policy.clone().unwrap_or_else(PolicySpec::baseline);
    let (_, report) = print_run(opts, &spec);
    if let (Some(path), Some(report)) = (&opts.json, report) {
        return write_json(path, &report.to_json_string());
    }
    ExitCode::SUCCESS
}

/// The 7-policy suite `compare` and `analyze` sweep: the paper's headline
/// policies plus the non-inclusive/exclusive reference points.
fn compare_specs() -> [PolicySpec; 7] {
    [
        PolicySpec::baseline(),
        PolicySpec::tlh_l1(),
        PolicySpec::tlh_l2(),
        PolicySpec::eci(),
        PolicySpec::qbs(),
        PolicySpec::non_inclusive(),
        PolicySpec::exclusive(),
    ]
}

/// Gap to the MIN oracle as a fraction of the optimal miss count:
/// `(measured - opt) / opt`. An oracle with zero misses divides by one
/// instead, so the gap degenerates to the absolute measured miss count
/// and the JSON stays finite.
fn gap_to_opt(measured_misses: u64, opt_misses: u64) -> f64 {
    (measured_misses as f64 - opt_misses as f64) / (opt_misses.max(1) as f64)
}

/// Fraction of L2 misses the attribution hooks charged to LLC-caused
/// back-invalidates (the paper's inclusion victims), summed over cores.
fn victim_rate(r: &RunResult) -> f64 {
    let victims: u64 = r
        .threads
        .iter()
        .map(|t| t.stats.misses_inclusion_victim)
        .sum();
    let l2_misses: u64 = r.threads.iter().map(|t| t.stats.l2_misses).sum();
    if l2_misses == 0 {
        0.0
    } else {
        victims as f64 / l2_misses as f64
    }
}

fn cmd_compare(opts: &Options) -> ExitCode {
    if opts.mix.is_empty() {
        eprintln!("compare: --mix is required");
        return ExitCode::FAILURE;
    }
    let specs = compare_specs();
    // All policies run in parallel (bit-identical to serial, `--jobs`
    // workers); printing happens afterwards, in spec order.
    let window = opts
        .json
        .as_ref()
        .map(|_| opts.window.unwrap_or(DEFAULT_WINDOW));
    let llc = opts.llc_mb.map(|mb| mb * 1024 * 1024);
    let warm_cache = match &opts.warm_cache {
        Some(dir) => match WarmCache::open(dir) {
            Ok(cache) => Some(cache),
            Err(e) => {
                eprintln!("error: cannot open warm cache {dir}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let results = if opts.warm_start {
        // Warm once under the baseline (or pull the warm image from the
        // cache directory), fan the measured phases out.
        match run_policy_reports_warm_start_cached(
            &opts.cfg,
            &opts.mix,
            &specs,
            llc,
            window,
            warm_cache.as_ref(),
        ) {
            Ok(results) => results,
            Err(e) => {
                eprintln!("error: warm-start resume failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        run_policy_reports_io(&opts.cfg, &opts.mix, &specs, llc, window, &opts.io)
    };
    // One MIN-oracle replay covers every policy: the oracle sees the same
    // reference stream whatever the hierarchy does with it.
    let opt = optimal_llc(&opts.cfg, &opts.mix, llc);
    let mut baseline = None;
    let mut reports = Vec::new();
    for (spec, (r, report)) in specs.iter().zip(results) {
        print_result(&spec.name, &r);
        print_io_result(&r);
        let tp = r.throughput();
        let base = *baseline.get_or_insert(tp);
        let gap = gap_to_opt(r.llc_misses(), opt.misses);
        println!(
            "  -> {:+.1}% vs baseline; gap-to-opt {:+.1}% ({} vs {} optimal), \
             inclusion-victim rate {:.2}%\n",
            (tp / base - 1.0) * 100.0,
            gap * 100.0,
            r.llc_misses(),
            opt.misses,
            victim_rate(&r) * 100.0,
        );
        if let Some(mut report) = report {
            report.opt_misses = Some(opt.misses);
            report.gap_to_opt = Some(gap);
            report.inclusion_victim_rate = Some(report.measured_victim_rate());
            reports.push(report);
        }
    }
    if let Some(path) = &opts.json {
        let doc = JsonValue::array(reports.iter().map(RunReport::to_json));
        return write_json(path, &doc.to_pretty());
    }
    ExitCode::SUCCESS
}

fn cmd_analyze(opts: &Options) -> ExitCode {
    if opts.mix.is_empty() {
        eprintln!("analyze: --mix is required");
        return ExitCode::FAILURE;
    }
    let specs = compare_specs();
    let llc = opts.llc_mb.map(|mb| mb * 1024 * 1024);
    // Analyze always instruments (the analytics ride on the telemetry
    // stream), so a window exists with or without --json.
    let window = opts.window.unwrap_or(DEFAULT_WINDOW);
    let opt = optimal_llc(&opts.cfg, &opts.mix, llc);
    let results = run_policy_reports_analyzed_io(
        &opts.cfg,
        &opts.mix,
        &specs,
        llc,
        Some(window),
        opts.sample_every,
        &opts.io,
    );
    println!(
        "MIN oracle (demand-fetch, LLC geometry): {} accesses, {} hits, {} misses",
        opt.accesses, opt.hits, opt.misses
    );
    if opts.cfg.prefetch_enabled() {
        println!(
            "note: MIN replays demand fetches only; with the stream prefetcher \
             on, measured demand misses can undercut it and gap-to-opt goes \
             negative. Use --no-prefetch for a true lower bound."
        );
    }
    let with_io = !opts.io.is_trivial();
    let mut headers = vec![
        "policy",
        "LLC misses",
        "opt misses",
        "gap-to-opt",
        "victim rate",
        "reuse p50",
        "reuse p90",
    ];
    if with_io {
        headers.push("io victims");
    }
    let mut table = Table::new(&headers);
    let pct = |p: Option<u64>| p.map_or_else(|| "-".into(), |v| v.to_string());
    let mut reports = Vec::new();
    for (r, mut report) in results {
        report.opt_misses = Some(opt.misses);
        report.gap_to_opt = Some(gap_to_opt(r.llc_misses(), opt.misses));
        let reuse = report.reuse.as_ref().expect("analyzed runs carry reuse");
        let mut row = vec![
            r.spec_name.clone(),
            r.llc_misses().to_string(),
            opt.misses.to_string(),
            format!("{:+.1}%", report.gap_to_opt.unwrap_or(0.0) * 100.0),
            format!(
                "{:.2}%",
                report.inclusion_victim_rate.unwrap_or(0.0) * 100.0
            ),
            pct(reuse.global.percentile(50.0)),
            pct(reuse.global.percentile(90.0)),
        ];
        if with_io {
            row.push(
                r.io.as_ref()
                    .map_or_else(|| "-".into(), |(s, _)| s.victim_misses_io.to_string()),
            );
        }
        table.add_row(row);
        reports.push(report);
    }
    print!("{table}");
    println!(
        "reuse distances sampled in every {}th LLC set; percentiles are \
         log-bucket upper bounds in lines",
        opts.sample_every
    );
    if let Some(path) = &opts.json {
        let doc = JsonValue::array(reports.iter().map(RunReport::to_json));
        return write_json(path, &doc.to_pretty());
    }
    ExitCode::SUCCESS
}

/// The policy axis of `io-sweep`: the inclusive LRU baseline plus the
/// paper's three management families (TLH, ECI, QBS), so the sweep shows
/// whether temporal-locality awareness recovers what device injection
/// costs the apps.
fn io_sweep_specs() -> [PolicySpec; 4] {
    [
        PolicySpec::baseline(),
        PolicySpec::tlh_l1(),
        PolicySpec::eci(),
        PolicySpec::qbs(),
    ]
}

/// The device axis of `io-sweep`. The full grid walks from no I/O through
/// each agent alone, both together, and then reins the leaky-DMA stream in
/// with an injection-way limit, with partitioning, and with the NIC riding
/// along; `--smoke` keeps the three-point subset CI diffs across kernels.
fn io_sweep_scenarios(smoke: bool) -> Vec<IoMixConfig> {
    let nic = || IoAgentSpec::nic().period(3).lines(512);
    let dma = || IoAgentSpec::dma().period(2);
    if smoke {
        return vec![
            IoMixConfig::none(),
            IoMixConfig::none().agent(dma()),
            IoMixConfig::none().agent(dma()).inject_ways(2),
        ];
    }
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

fn cmd_io_sweep(opts: &Options) -> ExitCode {
    let mix = if opts.mix.is_empty() {
        vec![SpecApp::Sjeng]
    } else {
        opts.mix.clone()
    };
    let cfg = if opts.smoke {
        // CI mode: tiny quotas, the point is exercising the whole grid
        // deterministically, not producing publishable numbers.
        opts.cfg.clone().warmup(20_000).instructions(60_000)
    } else {
        opts.cfg.clone()
    };
    let specs = io_sweep_specs();
    let scenarios = io_sweep_scenarios(opts.smoke);
    let llc = opts.llc_mb.map(|mb| mb * 1024 * 1024);
    let window = opts
        .json
        .as_ref()
        .map(|_| opts.window.unwrap_or(DEFAULT_WINDOW));
    // One MIN-oracle replay covers the whole grid: device traffic never
    // changes the app reference stream, so the optimum is I/O-invariant
    // and gap-to-opt directly measures I/O-induced damage.
    let opt = optimal_llc(&cfg, &mix, llc);
    let mix_label = mix
        .iter()
        .map(|a| a.short_name())
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "app-vs-I/O sweep: mix {mix_label}, {} device scenarios x {} policies \
         (MIN oracle: {} misses)",
        scenarios.len(),
        specs.len(),
        opt.misses
    );
    let mut table = Table::new(&[
        "io",
        "policy",
        "LLC misses",
        "gap-to-opt",
        "victim rate",
        "io victims",
        "injections",
        "throughput",
    ]);
    let mut reports = Vec::new();
    for io in &scenarios {
        let results = run_policy_reports_io(&cfg, &mix, &specs, llc, window, io);
        for (spec, (r, report)) in specs.iter().zip(results) {
            let gap = gap_to_opt(r.llc_misses(), opt.misses);
            let (io_victims, injections) = r.io.as_ref().map_or_else(
                || ("-".to_string(), "-".to_string()),
                |(s, _)| (s.victim_misses_io.to_string(), s.injections.to_string()),
            );
            table.add_row(vec![
                io.label(),
                spec.name.clone(),
                r.llc_misses().to_string(),
                format!("{:+.1}%", gap * 100.0),
                format!("{:.2}%", victim_rate(&r) * 100.0),
                io_victims,
                injections,
                format!("{:.3}", r.throughput()),
            ]);
            if let Some(mut report) = report {
                report.opt_misses = Some(opt.misses);
                report.gap_to_opt = Some(gap);
                report.inclusion_victim_rate = Some(report.measured_victim_rate());
                reports.push(report);
            }
        }
    }
    print!("{table}");
    if let Some(path) = &opts.json {
        let doc = JsonValue::array(reports.iter().map(RunReport::to_json));
        return write_json(path, &doc.to_pretty());
    }
    ExitCode::SUCCESS
}

/// One bench-matrix workload: a full hierarchy simulation of `apps` under
/// `spec`, optionally with device I/O agents injecting alongside (the
/// `io/*` entries). Its deterministic work-unit count (memory accesses) is
/// what the calibration-ratio gate divides by.
#[derive(Clone)]
struct BenchJob {
    apps: Vec<SpecApp>,
    spec: PolicySpec,
    io: IoMixConfig,
}

impl BenchJob {
    fn cores(&self) -> usize {
        self.apps.len()
    }

    /// Runs the entry to its result: resumed from the warm image when one
    /// is given and this entry's configuration matches it (policy is a
    /// free axis of a checkpoint, so every matching entry times the
    /// measured phase over identical warm state), cold otherwise. The bool
    /// reports whether the image was used.
    fn result(&self, cfg: &SimConfig, warm: Option<&Checkpoint>) -> (RunResult, bool) {
        let build = || {
            MixRun::new(cfg, &self.apps)
                .spec(&self.spec)
                .io(self.io.clone())
        };
        if let Some(ck) = warm {
            // Checkpoints never cover I/O mixes, so io entries go cold
            // without even asking.
            if self.io.is_trivial() {
                if let Ok(r) = build().resume(ck) {
                    return (r, true);
                }
            }
        }
        (build().run(), false)
    }

    /// Memory accesses of one run, plus whether the warm image was used.
    /// This costs one untimed run, which doubles as warm-up.
    fn accesses(&self, cfg: &SimConfig, warm: Option<&Checkpoint>) -> (u64, bool) {
        let (r, warmed) = self.result(cfg, warm);
        let accesses = r
            .threads
            .iter()
            .map(|t| t.stats.l1i_accesses + t.stats.l1d_accesses)
            .sum();
        (accesses, warmed)
    }

    /// Executes the job once, discarding results (timing-loop body).
    fn run_once(&self, cfg: &SimConfig, warm: Option<&Checkpoint>) {
        let _ = self.result(cfg, warm);
    }
}

/// The fixed bench matrix: the paper's four management policies crossed
/// with 1/2/4/8-core LLC-miss-heavy mixes (mcf and libquantum are the two
/// highest-LLC-MPKI apps of Table I, so every entry exercises the LLC miss
/// path the scratch-buffer rewrite targets; the 8-core mix stresses
/// scheduler-heap and sharer-bitmap scaling), plus the `io/*` entries that
/// time the device-injection path.
fn bench_matrix() -> Vec<(String, BenchJob)> {
    use SpecApp::{Libquantum, Mcf};
    let mixes: [(&str, Vec<SpecApp>); 4] = [
        ("1core", vec![Mcf]),
        ("2core", vec![Mcf, Libquantum]),
        ("4core-llcmiss", vec![Mcf, Mcf, Libquantum, Libquantum]),
        (
            "8core",
            vec![
                Mcf, Libquantum, Mcf, Libquantum, Mcf, Libquantum, Mcf, Libquantum,
            ],
        ),
    ];
    let policies = [
        ("baseline", PolicySpec::baseline()),
        ("tlh-l1", PolicySpec::tlh_l1()),
        ("eci", PolicySpec::eci()),
        ("qbs", PolicySpec::qbs()),
    ];
    let mut matrix = Vec::new();
    for (mix_name, apps) in &mixes {
        for (pol_name, spec) in &policies {
            matrix.push((
                format!("{mix_name}/{pol_name}"),
                BenchJob {
                    apps: apps.clone(),
                    spec: spec.clone(),
                    io: IoMixConfig::none(),
                },
            ));
        }
    }
    // Probe-heavy entry: a 128-entry fully-associative victim cache behind
    // the LLC makes the linear tag scan (the code the SIMD set-probe
    // kernels accelerate) the dominant cost of every LLC miss; mcf's
    // LLC-miss-heavy stream keeps that path hot.
    matrix.push((
        "1core-vc128/vc128".to_string(),
        BenchJob {
            apps: vec![Mcf],
            spec: PolicySpec::victim_cache(128),
            io: IoMixConfig::none(),
        },
    ));
    // Injection-path entries: a period-2 leaky-DMA agent keeps the
    // io_inject fast path (device fills, way-masked victim search,
    // IoInjection back-invalidates) hot alongside two demand-heavy cores
    // — once under plain LRU, once under the way-limited DDIO model.
    let dma = IoMixConfig::none().agent(IoAgentSpec::dma().period(2));
    matrix.push((
        "io/2core-dma/baseline".to_string(),
        BenchJob {
            apps: vec![Mcf, Libquantum],
            spec: PolicySpec::baseline(),
            io: dma.clone(),
        },
    ));
    matrix.push((
        "io/2core-dma-w2/baseline".to_string(),
        BenchJob {
            apps: vec![Mcf, Libquantum],
            spec: PolicySpec::baseline(),
            io: dma.inject_ways(2),
        },
    ));
    matrix
}

/// Peak resident set size of this process in kB (`VmHWM` from
/// `/proc/self/status`); `None` off Linux.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// One timed bench-matrix entry. `accesses_per_sec` comes from the fastest
/// measured batch (noise-robust); `accesses_per_sec_mean` from the whole
/// measured window; `calibration_ratio` is the median over rounds of the
/// entry's throughput divided by an *immediately adjacent* calibration
/// measurement (see `cmd_bench`) — the machine-independent number the gate
/// compares.
struct BenchEntry {
    name: String,
    cores: usize,
    accesses: u64,
    iters: u64,
    wall_s: f64,
    accesses_per_sec: f64,
    accesses_per_sec_mean: f64,
    calibration_ratio: f64,
    /// Probe kernel the run dispatched to (`avx2`, `scalar4`, ...), so a
    /// committed baseline records which kernel produced its numbers.
    kernel: &'static str,
    /// Whether the entry timed resumes from a `--warm-image` checkpoint
    /// instead of cold runs (only meaningful when one was given).
    warmed_from_image: bool,
}

impl BenchEntry {
    fn to_json(&self) -> JsonValue {
        let mut pairs = vec![
            ("name", JsonValue::Str(self.name.clone())),
            ("cores", JsonValue::Int(self.cores as u64)),
            ("accesses", JsonValue::Int(self.accesses)),
            ("iters", JsonValue::Int(self.iters)),
            ("wall_s", JsonValue::Num(self.wall_s)),
            ("accesses_per_sec", JsonValue::Num(self.accesses_per_sec)),
            (
                "accesses_per_sec_mean",
                JsonValue::Num(self.accesses_per_sec_mean),
            ),
            ("calibration_ratio", JsonValue::Num(self.calibration_ratio)),
            ("kernel", JsonValue::Str(self.kernel.into())),
        ];
        if self.warmed_from_image {
            pairs.push(("warmed_from_image", JsonValue::Bool(true)));
        }
        JsonValue::object(pairs)
    }
}

/// The entry every bench report must contain: all other entries gate on
/// their throughput *ratio* to it, so a committed baseline stays valid on
/// machines of any absolute speed.
const GATE_CALIBRATION_ENTRY: &str = "1core/baseline";

/// How many interleaved passes over the matrix the timing budget is split
/// into (see `cmd_bench`).
const BENCH_ROUNDS: u64 = 5;

/// Schema tag written into fresh bench reports. v3 adds the `rounds`
/// echo; entry-level fields are unchanged, so v2 baselines stay valid
/// gate inputs.
const BENCH_SCHEMA: &str = "tla-bench-report-v3";

/// Schema tags [`bench_gate`] accepts as baselines. The gate only reads
/// entry names and `calibration_ratio`, both of which mean the same
/// thing in v2 and v3.
const BENCH_SCHEMAS_ACCEPTED: [&str; 2] = ["tla-bench-report-v2", "tla-bench-report-v3"];

/// Compares fresh entries against a committed baseline report, failing on
/// any per-entry *relative* throughput regression beyond `gate_pct`.
///
/// The compared number is each entry's `calibration_ratio`: its throughput
/// divided by a calibration measurement (`1core/baseline`) taken
/// immediately before it in the same run. A uniformly faster or slower
/// machine — or a speed epoch that drifts across the run — shifts both
/// halves of every pair but no ratio, so the gate catches per-entry
/// regressions (an 8-core path getting slower relative to the 1-core
/// path) without re-blessing per machine.
fn bench_gate(entries: &[BenchEntry], baseline_path: &str, gate_pct: f64) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("baseline {baseline_path}: {e}"))?;
    // Baselines written before the schema tag existed are accepted as-is;
    // a *present* tag must be one this binary understands, so a future v4
    // fails loudly instead of gating on reinterpreted fields.
    if let Some(schema) = doc.get("schema").and_then(JsonValue::as_str) {
        if !BENCH_SCHEMAS_ACCEPTED.contains(&schema) {
            return Err(format!(
                "baseline {baseline_path}: unsupported schema '{schema}' \
                 (this binary reads {})",
                BENCH_SCHEMAS_ACCEPTED.join(", ")
            ));
        }
    }
    let base_entries = doc
        .get("entries")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("baseline {baseline_path}: no 'entries' array"))?;
    let mut failures = Vec::new();
    for e in entries {
        // The calibration entry's ratio is ~1 by construction; gating it
        // against itself would be meaningless.
        if e.name == GATE_CALIBRATION_ENTRY {
            continue;
        }
        let Some(base) = base_entries
            .iter()
            .find(|b| b.get("name").and_then(JsonValue::as_str) == Some(e.name.as_str()))
        else {
            eprintln!("gate: no baseline entry for {} — skipping", e.name);
            continue;
        };
        let Some(base_ratio) = base.get("calibration_ratio").and_then(JsonValue::as_f64) else {
            return Err(format!(
                "baseline {baseline_path}: entry {} has no 'calibration_ratio' — \
                 re-bless the baseline with this binary",
                e.name
            ));
        };
        if base_ratio <= 0.0 {
            return Err(format!(
                "baseline {baseline_path}: entry {} has non-positive calibration_ratio",
                e.name
            ));
        }
        let fresh_ratio = e.calibration_ratio;
        let delta_pct = (fresh_ratio / base_ratio - 1.0) * 100.0;
        let verdict = if delta_pct < -gate_pct {
            failures.push(format!(
                "{}: ratio {:.3} vs baseline ratio {:.3} ({:+.1}% < -{gate_pct}%)",
                e.name, fresh_ratio, base_ratio, delta_pct
            ));
            "FAIL"
        } else {
            "ok"
        };
        println!("gate {:20} {delta_pct:+7.1}%  {verdict}", e.name);
        if delta_pct > gate_pct {
            eprintln!(
                "gate: {} improved {delta_pct:+.1}% relative to '{GATE_CALIBRATION_ENTRY}' — \
                 consider re-blessing the baseline",
                e.name
            );
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "relative throughput regressed beyond {gate_pct}%:\n  {}",
            failures.join("\n  ")
        ))
    }
}

fn cmd_bench(opts: &Options) -> ExitCode {
    let cfg = &opts.cfg;
    eprintln!(
        "bench: measure={} warmup={} seed={} scale=1/{} target={}ms per entry, kernel={}",
        cfg.instruction_quota(),
        cfg.warmup_quota(),
        cfg.seed_value(),
        cfg.scale(),
        opts.target_ms,
        tla::cache::kernel_name(),
    );
    let t_total = std::time::Instant::now();
    let matrix = bench_matrix();

    // The optional frozen warm image: loaded once, resumed by every
    // matching sim entry (the whole point — identical warm state across
    // binary revisions, so relative regressions are bisectable).
    let warm_image = match &opts.warm_image {
        Some(path) => match Checkpoint::load(path) {
            Ok(ck) => Some(ck),
            Err(e) => {
                eprintln!("error: cannot load --warm-image {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let warm = warm_image.as_ref();

    // One untimed run per entry pins the deterministic access count,
    // doubles as warm-up before the timed rounds, and decides whether the
    // warm image covers the entry.
    let mut warmed = Vec::with_capacity(matrix.len());
    let accesses: Vec<u64> = matrix
        .iter()
        .map(|(name, job)| {
            let (accesses, from_image) = job.accesses(cfg, warm);
            if warm.is_some() {
                eprintln!(
                    "bench: {name}: {}",
                    if from_image {
                        "warmed from image"
                    } else {
                        "cold (image does not cover this entry)"
                    }
                );
            }
            warmed.push(from_image);
            accesses
        })
        .collect();

    // The timing budget is split into rounds interleaved across the whole
    // matrix rather than spent contiguously per entry, and inside each
    // round an entry is timed *alternating iteration-by-iteration* with
    // the calibration workload (`1core/baseline`). Host speed drifts on a
    // timescale of seconds to tens of seconds (frequency scaling,
    // co-tenants); the gate compares the entry/calibration *ratio*, and
    // with the two series interleaved at sub-second granularity their
    // minima land in the same speed epoch, so the ratio stays clean
    // however the run straddles epochs. The per-entry ratio is the median
    // over rounds; absolute throughput keeps the fastest iteration across
    // all rounds. A single run costs ≥25 ms, so per-iteration `Instant`
    // overhead is noise and no batching is needed.
    let cal = matrix
        .iter()
        .position(|(n, _)| n == GATE_CALIBRATION_ENTRY)
        .expect("bench matrix contains the calibration entry");
    let cal_job = matrix[cal].1.clone();
    let rounds = BENCH_ROUNDS.min(opts.target_ms.max(1));
    let per_round = std::time::Duration::from_millis((opts.target_ms / rounds).max(1));
    let mut best_npi = vec![f64::INFINITY; matrix.len()];
    let mut iters = vec![0u64; matrix.len()];
    let mut nanos = vec![0u128; matrix.len()];
    let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); matrix.len()];
    for _ in 0..rounds {
        for (i, (_, job)) in matrix.iter().enumerate() {
            let round_start = std::time::Instant::now();
            let mut best_entry = u128::MAX;
            let mut best_cal = u128::MAX;
            let mut pairs = 0u32;
            loop {
                let t0 = std::time::Instant::now();
                cal_job.run_once(cfg, warm);
                best_cal = best_cal.min(t0.elapsed().as_nanos());
                let t0 = std::time::Instant::now();
                job.run_once(cfg, warm);
                let entry_nanos = t0.elapsed().as_nanos();
                best_entry = best_entry.min(entry_nanos);
                iters[i] += 1;
                nanos[i] += entry_nanos;
                pairs += 1;
                // A min over one sample is no min at all — entries whose
                // single run overshoots the round budget (the 8-core mixes
                // at small --target-ms) still get two pairs.
                if round_start.elapsed() >= per_round && pairs >= 2 {
                    break;
                }
            }
            best_npi[i] = best_npi[i].min(best_entry as f64);
            let entry_aps = accesses[i] as f64 * 1e9 / best_entry as f64;
            let cal_aps = accesses[cal] as f64 * 1e9 / best_cal as f64;
            ratios[i].push(entry_aps / cal_aps);
        }
    }

    let mut entries = Vec::new();
    let mut table = Table::new(&["entry", "cores", "accesses", "iters", "Macc/s", "ratio"]);
    for (i, (name, job)) in matrix.into_iter().enumerate() {
        let accesses_per_sec = accesses[i] as f64 * 1e9 / best_npi[i];
        let accesses_per_sec_mean = accesses[i] as f64 * 1e9 * iters[i] as f64 / nanos[i] as f64;
        let calibration_ratio = {
            let r = &mut ratios[i];
            r.sort_by(f64::total_cmp);
            r[r.len() / 2]
        };
        table.add_row(vec![
            name.clone(),
            job.cores().to_string(),
            accesses[i].to_string(),
            iters[i].to_string(),
            format!("{:.2}", accesses_per_sec / 1e6),
            format!("{calibration_ratio:.3}"),
        ]);
        entries.push(BenchEntry {
            name,
            cores: job.cores(),
            accesses: accesses[i],
            iters: iters[i],
            wall_s: nanos[i] as f64 / 1e9,
            accesses_per_sec,
            accesses_per_sec_mean,
            calibration_ratio,
            kernel: tla::cache::kernel_name(),
            warmed_from_image: warmed[i],
        });
    }
    print!("{table}");
    let wall_total = t_total.elapsed().as_secs_f64();
    let rss = peak_rss_kb();
    println!(
        "total {wall_total:.1}s, peak RSS {}",
        rss.map_or_else(|| "n/a".into(), |kb| format!("{kb} kB"))
    );

    let mut code = ExitCode::SUCCESS;
    if let Some(path) = &opts.baseline {
        if let Err(e) = bench_gate(&entries, path, opts.gate_pct) {
            eprintln!("error: {e}");
            code = ExitCode::FAILURE;
        }
    }
    if let Some(path) = &opts.json {
        let doc = JsonValue::object([
            ("schema", JsonValue::Str(BENCH_SCHEMA.into())),
            (
                "config",
                JsonValue::object([
                    ("measure", JsonValue::Int(cfg.instruction_quota())),
                    ("warmup", JsonValue::Int(cfg.warmup_quota())),
                    ("seed", JsonValue::Int(cfg.seed_value())),
                    ("scale", JsonValue::Int(cfg.scale())),
                    ("target_ms", JsonValue::Int(opts.target_ms)),
                    (
                        "warm_image",
                        opts.warm_image
                            .as_deref()
                            .map_or(JsonValue::Null, |p| JsonValue::Str(p.into())),
                    ),
                ]),
            ),
            ("rounds", JsonValue::Int(rounds)),
            ("wall_s_total", JsonValue::Num(wall_total)),
            ("peak_rss_kb", rss.map_or(JsonValue::Null, JsonValue::Int)),
            (
                "entries",
                JsonValue::array(entries.iter().map(BenchEntry::to_json)),
            ),
        ]);
        match std::fs::write(path, doc.to_pretty()) {
            Ok(()) => eprintln!("report written to {path}"),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                code = ExitCode::FAILURE;
            }
        }
    }
    code
}

/// The paper-flavoured default config of the simulation commands.
fn sim_base_cfg() -> SimConfig {
    SimConfig::scaled_down()
        .warmup(800_000)
        .instructions(300_000)
}

/// Rebuilds the [`SimConfig`] a checkpoint was warmed under from its meta
/// section, so `snapshot resume` needs no re-typed flags.
fn cfg_from_info(info: &tla::sim::CheckpointInfo) -> SimConfig {
    let cfg = SimConfig::scaled_down()
        .with_scale(info.scale)
        .warmup(info.warmup)
        .instructions(info.instructions)
        .seed(info.seed)
        .prefetch(info.prefetch);
    let core = tla::cpu::CoreModelConfig {
        latencies: info.latencies,
        ..*cfg.core_config()
    };
    cfg.core_model(core)
}

fn cmd_snapshot_save(opts: &Options) -> ExitCode {
    if opts.mix.is_empty() {
        eprintln!("snapshot save: --mix is required");
        return ExitCode::FAILURE;
    }
    let Some(path) = &opts.out else {
        eprintln!("snapshot save: --out <path> is required");
        return ExitCode::FAILURE;
    };
    let spec = opts.policy.clone().unwrap_or_else(PolicySpec::baseline);
    let mut run = MixRun::new(&opts.cfg, &opts.mix).spec(&spec);
    if let Some(mb) = opts.llc_mb {
        run = run.llc_capacity_full_scale(mb * 1024 * 1024);
    }
    let checkpoint = match opts.window {
        Some(w) => run.warm_checkpoint_instrumented(Some(w)),
        None => run.warm_checkpoint(),
    };
    let info = match checkpoint.info() {
        Ok(info) => info,
        Err(e) => {
            eprintln!("error: just-written checkpoint is invalid: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = checkpoint.save(path) {
        eprintln!("error: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "checkpoint written to {path}: mix {} warmed {} instr/thread under {} \
         ({} global instr, {} bytes{})",
        info.mix_label(),
        info.warmup,
        info.warm_spec,
        info.total_instr,
        checkpoint.as_bytes().len(),
        if info.instrumented {
            ", instrumented"
        } else {
            ""
        },
    );
    ExitCode::SUCCESS
}

fn cmd_snapshot_info(path: &str) -> ExitCode {
    let checkpoint = match Checkpoint::load(path) {
        Ok(ck) => ck,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let info = match checkpoint.info() {
        Ok(info) => info,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("checkpoint: {path} ({} bytes)", checkpoint.as_bytes().len());
    println!("  mix:          {}", info.mix_label());
    println!("  cores:        {}", info.apps.len());
    println!("  scale:        1/{}", info.scale);
    println!("  seed:         {:#x}", info.seed);
    println!("  warmup:       {} instr/thread", info.warmup);
    println!("  measure:      {} instr/thread", info.instructions);
    println!("  prefetch:     {}", info.prefetch);
    if let Some(bytes) = info.llc_capacity_full_scale {
        println!("  llc override: {bytes} bytes (full scale)");
    }
    println!("  warm policy:  {}", info.warm_spec);
    println!("  frozen at:    {} global instr", info.total_instr);
    match (info.instrumented, info.window) {
        (true, Some(w)) => println!("  telemetry:    instrumented, window {w}"),
        (true, None) => println!("  telemetry:    instrumented, no time series"),
        _ => println!("  telemetry:    none"),
    }
    ExitCode::SUCCESS
}

fn cmd_snapshot_resume(path: &str, opts: &Options) -> ExitCode {
    let checkpoint = match Checkpoint::load(path) {
        Ok(ck) => ck,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let info = match checkpoint.info() {
        Ok(info) => info,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = cfg_from_info(&info);
    let spec = opts.policy.clone().unwrap_or_else(PolicySpec::baseline);
    let build = || {
        let mut run = MixRun::new(&cfg, &info.apps).spec(&spec);
        if let Some(bytes) = info.llc_capacity_full_scale {
            // The builder re-applies the scale divisor, so feed it the
            // full-scale figure the checkpoint recorded.
            run = run.llc_capacity_full_scale(bytes);
        }
        run
    };
    if let Some(json_path) = &opts.json {
        let window = opts.window.or(info.window);
        match build().resume_report(&checkpoint, window) {
            Ok((result, report)) => {
                print_result(&spec.name, &result);
                write_json(json_path, &report.to_json_string())
            }
            Err(e) => {
                eprintln!("error: cannot resume {path}: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        match build().resume(&checkpoint) {
            Ok(result) => {
                print_result(&spec.name, &result);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: cannot resume {path}: {e}");
                ExitCode::FAILURE
            }
        }
    }
}

/// Lists a warm-cache directory without modifying it (the cache never
/// evicts; this command never writes).
fn cmd_snapshot_cache_info(dir: &str) -> ExitCode {
    if !std::path::Path::new(dir).is_dir() {
        eprintln!("error: {dir}: not a directory");
        return ExitCode::FAILURE;
    }
    let cache = match WarmCache::open(dir) {
        Ok(cache) => cache,
        Err(e) => {
            eprintln!("error: {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let entries = match cache.entries() {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("error: {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if entries.is_empty() {
        println!("warm cache {dir}: empty");
        return ExitCode::SUCCESS;
    }
    let mut t = Table::new(&["file", "mix", "warmed under", "warmup", "seed", "size"]);
    let mut total = 0u64;
    for e in &entries {
        total += e.size_bytes;
        let file = e
            .path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let row = match &e.info {
            Some(info) => vec![
                file,
                info.mix_label(),
                info.warm_spec.clone(),
                format!("{} instr", info.warmup),
                format!("{:#x}", info.seed),
                format!("{} B", e.size_bytes),
            ],
            None => vec![
                file,
                "(not a checkpoint)".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                format!("{} B", e.size_bytes),
            ],
        };
        t.add_row(row);
    }
    print!("{t}");
    println!(
        "warm cache {dir}: {} image(s), {total} bytes total",
        entries.len()
    );
    ExitCode::SUCCESS
}

fn cmd_snapshot(rest: &[String]) -> ExitCode {
    let Some((sub, args)) = rest.split_first() else {
        eprintln!("error: snapshot needs a subcommand (save|info|resume|cache-info)");
        return usage();
    };
    match sub.as_str() {
        "save" => match parse_command("snapshot save", args, sim_base_cfg()) {
            Ok(opts) => cmd_snapshot_save(&opts),
            Err(e) => {
                eprintln!("error: {e}");
                usage()
            }
        },
        "cache-info" => {
            let Some((dir, extra)) = args.split_first() else {
                eprintln!("error: snapshot cache-info needs a cache directory");
                return usage();
            };
            if !extra.is_empty() {
                eprintln!("error: snapshot cache-info takes no options");
                return usage();
            }
            cmd_snapshot_cache_info(dir)
        }
        "info" | "resume" => {
            let Some((path, args)) = args.split_first() else {
                eprintln!("error: snapshot {sub} needs a checkpoint path");
                return usage();
            };
            if sub == "info" {
                if !args.is_empty() {
                    eprintln!("error: snapshot info takes no options");
                    return usage();
                }
                return cmd_snapshot_info(path);
            }
            match parse_command("snapshot resume", args, sim_base_cfg()) {
                Ok(opts) => cmd_snapshot_resume(path, &opts),
                Err(e) => {
                    eprintln!("error: {e}");
                    usage()
                }
            }
        }
        other => {
            eprintln!("error: unknown snapshot subcommand '{other}'");
            usage()
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    if cmd == "snapshot" {
        return cmd_snapshot(rest);
    }
    // `bench` wants long measured runs with no warm-up (throughput, not
    // policy fidelity); the simulation commands keep the paper-flavoured
    // warm-up defaults. Either way the flags can override.
    let base_cfg = if cmd == "bench" {
        SimConfig::scaled_down().warmup(0).instructions(1_000_000)
    } else {
        sim_base_cfg()
    };
    let opts = match parse_command(cmd, rest, base_cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    match cmd.as_str() {
        "list" => cmd_list(),
        "paper" => cmd_paper(&opts),
        "run" => cmd_run(&opts),
        "compare" => cmd_compare(&opts),
        "analyze" => cmd_analyze(&opts),
        "bench" => cmd_bench(&opts),
        "io-sweep" => cmd_io_sweep(&opts),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_options(args: &[String]) -> Result<Options, String> {
        super::parse_options(
            args,
            SimConfig::scaled_down()
                .warmup(800_000)
                .instructions(300_000),
            true,
        )
    }

    #[test]
    fn policy_names_parse() {
        for name in [
            "baseline",
            "tlh-il1",
            "tlh-dl1",
            "tlh-l1",
            "tlh-l2",
            "tlh-l1-l2",
            "eci",
            "qbs",
            "qbs-il1",
            "qbs-dl1",
            "qbs-l1",
            "qbs-l2",
            "non-inclusive",
            "exclusive",
            "vc32",
            "vc128",
            "vc256",
        ] {
            assert!(parse_policy(name).is_some(), "{name} must parse");
        }
        assert!(parse_policy("bogus").is_none());
        assert_eq!(parse_policy("inclusive").unwrap().name, "Inclusive");
        // The vc family is parameterized but bounded by the way-mask width.
        assert_eq!(parse_policy("vc32").unwrap().victim_cache, Some(32));
        assert_eq!(parse_policy("vc128").unwrap().name, "VC-128");
        assert!(parse_policy("vc0").is_none(), "empty victim cache");
        assert!(parse_policy("vc257").is_none(), "beyond MAX_WAYS");
        assert!(parse_policy("vcxyz").is_none());
    }

    #[test]
    fn mixes_parse_by_name_and_by_apps() {
        let m = parse_mix("MIX_10").unwrap();
        assert_eq!(m, vec![SpecApp::Libquantum, SpecApp::Sjeng]);
        let m = parse_mix("lib, sje").unwrap();
        assert_eq!(m, vec![SpecApp::Libquantum, SpecApp::Sjeng]);
        assert!(parse_mix("nope,sje").is_none());
    }

    #[test]
    fn options_parse_and_validate() {
        let args: Vec<String> = [
            "--mix",
            "MIX_00",
            "--policy",
            "qbs",
            "--scale",
            "4",
            "--measure",
            "1000",
            "--warmup",
            "2000",
            "--seed",
            "5",
            "--llc-mb",
            "4",
            "--no-prefetch",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = parse_options(&args).unwrap();
        assert_eq!(o.mix.len(), 2);
        assert_eq!(o.policy.as_ref().unwrap().name, "QBS");
        assert_eq!(o.cfg.scale(), 4);
        assert_eq!(o.cfg.instruction_quota(), 1000);
        assert_eq!(o.cfg.warmup_quota(), 2000);
        assert_eq!(o.cfg.seed_value(), 5);
        assert!(!o.cfg.prefetch_enabled());
        assert_eq!(o.llc_mb, Some(4));
    }

    #[test]
    fn bad_options_error() {
        let bad = |args: &[&str]| {
            let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            parse_options(&v).unwrap_err()
        };
        assert!(bad(&["--mix"]).contains("--mix"));
        assert!(bad(&["--policy", "bogus"]).contains("unknown policy"));
        assert!(bad(&["--whatever"]).contains("unknown option"));
        assert!(bad(&["--mix", "xyz"]).contains("unknown mix"));
        assert!(bad(&["--jobs", "0"]).contains("positive"));
        assert!(bad(&["--jobs"]).contains("--jobs"));
        // Both used to panic deep in the simulator's config builders.
        let too_many = vec!["lib"; CoreId::MAX_CORES + 1].join(",");
        assert!(bad(&["--mix", &too_many]).contains("at most 64 cores"));
        let max = vec!["lib"; CoreId::MAX_CORES].join(",");
        let v = ["--mix".to_string(), max];
        assert_eq!(parse_options(&v).unwrap().mix.len(), CoreId::MAX_CORES);
        assert!(bad(&["--measure", "0"]).contains("--measure must be positive"));
        // Geometry flags are checked up front instead of panicking in the
        // cache builders (384 sets at 3 MB / scale 8 is no power of two).
        let e = bad(&["--llc-mb", "3"]);
        assert!(
            e.contains("--llc-mb 3") && e.contains("not a power of two"),
            "{e}"
        );
        assert!(bad(&["--llc-mb", "0"]).contains("--llc-mb 0"));
        assert!(bad(&["--llc-mb", "100000"]).contains("--llc-mb 100000"));
        assert!(bad(&["--llc-mb", &usize::MAX.to_string()]).contains("overflows"));
        assert!(bad(&["--scale", "1", "--llc-mb", "3"]).contains("scale 1"));
        assert!(bad(&["--scale", "3"]).contains("--scale must be 1, 2, 4 or 8"));
        assert!(bad(&["--scale", "0"]).contains("--scale"));
        // The epoch-parallel engine and its worker knob are gone.
        assert!(bad(&["--engine-jobs", "2"]).contains("unknown option"));
        assert!(bad(&["--figure", "nope"]).contains("valid: table1, fig2"));

        // A flag the subcommand would parse and then ignore is an error.
        let rejected = |cmd: &str, args: &[&str]| {
            let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            parse_command(cmd, &v, sim_base_cfg()).unwrap_err()
        };
        assert!(rejected("table1", &["--mix", "lib,sje"]).contains("unknown command 'table1'"));
        assert_eq!(
            rejected("paper", &["--figure", "table1", "--mix", "lib,sje"]),
            "paper does not accept --mix"
        );
        assert_eq!(
            rejected("run", &["--mix", "lib,sje", "--warm-start"]),
            "run does not accept --warm-start"
        );
        assert_eq!(
            rejected("run", &["--mix", "lib,sje", "--out", "x"]),
            "run does not accept --out"
        );
        assert_eq!(
            rejected("io-sweep", &["--policy", "qbs"]),
            "io-sweep does not accept --policy"
        );
        for flag in [
            ["--mix", "lib"],
            ["--policy", "qbs"],
            ["--llc-mb", "2"],
            ["--io", "dma"],
            ["--io-ways", "2"],
            ["--json", "out.json"],
            ["--window", "5"],
            ["--warm-cache", "dir"],
        ] {
            let mut args = flag.to_vec();
            if flag[0] == "--window" {
                args.extend(["--json", "out.json"]);
            }
            let e = rejected("paper", &args);
            assert!(e.starts_with("paper does not accept"), "{e}");
        }
        for flag in ["--io-partition", "--warm-start"] {
            assert!(rejected("paper", &[flag]).contains("does not accept"));
        }
        assert_eq!(
            rejected("snapshot resume", &["--policy", "qbs", "--window", "5"]),
            "--window only makes sense with --json"
        );
    }

    /// Every `tla-cli` invocation in the CI workflow passes its
    /// subcommand's flag check.
    #[test]
    fn ci_flags_are_accepted() {
        let ci = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/.github/workflows/ci.yml"
        ))
        .unwrap();
        let joined = ci.replace("\\\n", " ");
        let mut checked = 0;
        for line in joined.lines() {
            let words: Vec<&str> = line.split_whitespace().collect();
            let Some(at) = words.iter().position(|w| w.ends_with("tla-cli")) else {
                continue;
            };
            let mut rest = words[at + 1..]
                .iter()
                .copied()
                .take_while(|w| *w != "|" && *w != ";")
                .skip_while(|w| *w == "--");
            let Some(cmd) = rest.next() else { continue };
            let cmd = match cmd {
                "snapshot" => match rest.next() {
                    Some(sub @ ("save" | "resume")) => format!("snapshot {sub}"),
                    _ => continue,
                },
                _ => cmd.to_string(),
            };
            for flag in rest.filter(|w| w.starts_with("--")) {
                assert!(
                    accepts(&cmd, flag).unwrap(),
                    "ci.yml: {cmd} does not accept {flag}"
                );
            }
            checked += 1;
        }
        assert!(checked >= 10, "only {checked} tla-cli invocations found");
    }

    #[test]
    fn io_options_parse() {
        let parse = |args: &[&str]| {
            let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            parse_options(&v)
        };
        let o = parse(&["--io", "dma:2,nic:4:512", "--io-ways", "2"]).unwrap();
        assert_eq!(o.io.agents.len(), 2);
        assert_eq!(o.io.label(), "dma:2+nic:4:512/w2");
        assert_eq!(o.io.inject_ways, Some(2));
        assert!(!o.io.partition);
        let o = parse(&["--io", "dma", "--io-ways", "4", "--io-partition"]).unwrap();
        assert!(o.io.partition);
        // No --io at all stays trivial, so non-io output is byte-identical.
        let o = parse(&[]).unwrap();
        assert!(o.io.is_trivial());
        assert!(!o.smoke);
        let o = parse(&["--smoke"]).unwrap();
        assert!(o.smoke);
    }

    #[test]
    fn io_options_validate() {
        let bad = |args: &[&str]| {
            let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            parse_options(&v).unwrap_err()
        };
        assert!(bad(&["--io", "tape:3"]).contains("--io"));
        assert!(bad(&["--io-ways", "0"]).contains("positive"));
        assert!(bad(&["--io-partition"]).contains("requires --io-ways"));
        assert!(bad(&["--io", "dma", "--warm-start"]).contains("warm-start"));
        assert!(bad(&["--io", "dma", "--warm-cache", "d"]).contains("warm"));
    }

    #[test]
    fn jobs_option_parses() {
        let args: Vec<String> = ["--jobs", "4"].iter().map(|s| s.to_string()).collect();
        let o = parse_options(&args).unwrap();
        assert_eq!(o.cfg.jobs_override(), Some(4));
        assert_eq!(o.cfg.effective_jobs(), 4);
        let o = parse_options(&[]).unwrap();
        assert_eq!(o.cfg.jobs_override(), None);
    }

    #[test]
    fn shard_jobs_option_parses() {
        let args: Vec<String> = ["--shard-jobs", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = parse_options(&args).unwrap();
        assert_eq!(o.cfg.shard_jobs_override(), Some(3));
        assert_eq!(o.cfg.effective_shard_jobs(), 3);
        // 0 opts into auto-detection rather than erroring.
        let args: Vec<String> = ["--shard-jobs", "0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = parse_options(&args).unwrap();
        assert_eq!(o.cfg.shard_jobs_override(), Some(0));
        assert!(o.cfg.effective_shard_jobs() >= 1);
        let o = parse_options(&[]).unwrap();
        assert_eq!(o.cfg.shard_jobs_override(), None);
    }

    #[test]
    fn json_and_window_options_parse() {
        let parse = |args: &[&str]| {
            let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            parse_options(&v)
        };
        let o = parse(&[
            "--mix", "lib,sje", "--json", "out.json", "--window", "50000",
        ])
        .unwrap();
        assert_eq!(o.json.as_deref(), Some("out.json"));
        assert_eq!(o.window, Some(50_000));
        let o = parse(&["--json", "out.json"]).unwrap();
        assert_eq!(o.window, None);
        let err = parse(&["--window", "50000"]).unwrap_err();
        assert!(err.contains("--json"));
        let err = parse(&["--json", "o", "--window", "0"]).unwrap_err();
        assert!(err.contains("positive"));
    }

    #[test]
    fn bench_options_parse() {
        let parse = |args: &[&str]| {
            let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            parse_options(&v)
        };
        let o = parse(&[
            "--baseline",
            "BENCH_pr3.json",
            "--gate",
            "5",
            "--target-ms",
            "100",
        ])
        .unwrap();
        assert_eq!(o.baseline.as_deref(), Some("BENCH_pr3.json"));
        assert_eq!(o.gate_pct, 5.0);
        assert_eq!(o.target_ms, 100);
        let o = parse(&[]).unwrap();
        assert_eq!(o.baseline, None);
        assert_eq!(o.gate_pct, 10.0);
        assert_eq!(o.target_ms, 800);
        assert!(parse(&["--gate", "0"]).unwrap_err().contains("positive"));
        assert!(parse(&["--gate", "nan"]).unwrap_err().contains("positive"));
        assert!(parse(&["--target-ms", "0"])
            .unwrap_err()
            .contains("positive"));
    }

    #[test]
    fn bench_matrix_shape() {
        let matrix = bench_matrix();
        assert_eq!(
            matrix.len(),
            19,
            "4 policies x 4 core counts + the probe-heavy vc128 entry \
             + 2 io injection entries"
        );
        // Names are unique (the gate matches entries by name).
        let mut names: Vec<&str> = matrix.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 19);
        // The probe-heavy entry runs a 128-entry victim cache on one core.
        assert!(matrix.iter().any(|(n, job)| n == "1core-vc128/vc128"
            && job.apps.len() == 1
            && job.spec.victim_cache == Some(128)));
        // The io entries time the device-injection path: the same 2-core
        // mix with a leaky-DMA agent, unlimited and way-limited.
        assert!(matrix.iter().any(|(n, job)| n == "io/2core-dma/baseline"
            && job.io.agents.len() == 1
            && job.io.inject_ways.is_none()));
        assert!(matrix.iter().any(|(n, job)| n == "io/2core-dma-w2/baseline"
            && job.io.agents.len() == 1
            && job.io.inject_ways == Some(2)));
        // Every non-io sim entry stays device-free, so bench numbers for
        // the classic entries are comparable against pre-io baselines.
        for (n, job) in &matrix {
            assert_eq!(!job.io.is_trivial(), n.contains("io/"), "{n}");
        }
        // The headline LLC-miss-heavy workload is present at 4 cores.
        assert!(matrix
            .iter()
            .any(|(n, job)| n == "4core-llcmiss/baseline" && job.cores() == 4));
        // The 8-core scaling point rides along at every policy.
        assert_eq!(
            matrix
                .iter()
                .filter(|(n, job)| n.starts_with("8core/") && job.cores() == 8)
                .count(),
            4
        );
        // The gate's calibration entry is part of the matrix.
        assert!(matrix.iter().any(|(n, _)| n == GATE_CALIBRATION_ENTRY));
    }

    #[test]
    fn bench_gate_compares_ratios_not_absolutes() {
        let dir = std::env::temp_dir().join(format!("tla-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("base.json");
        // Baseline machine: 8core/qbs ran at half the calibration entry's
        // throughput (ratio 0.5), at 0.5 Macc/s absolute.
        let base_entry = |name: &str, aps: f64, ratio: Option<f64>| {
            let mut fields = vec![
                ("name", JsonValue::Str(name.into())),
                ("accesses_per_sec", JsonValue::Num(aps)),
            ];
            if let Some(r) = ratio {
                fields.push(("calibration_ratio", JsonValue::Num(r)));
            }
            JsonValue::object(fields)
        };
        let baseline = JsonValue::object([(
            "entries",
            JsonValue::array([base_entry("8core/qbs", 500_000.0, Some(0.5))]),
        )]);
        std::fs::write(&path, baseline.to_pretty()).unwrap();
        let entry = |name: &str, aps: f64, ratio: f64| BenchEntry {
            name: name.into(),
            cores: 1,
            accesses: 1,
            iters: 1,
            wall_s: 1.0,
            accesses_per_sec: aps,
            accesses_per_sec_mean: aps,
            calibration_ratio: ratio,
            kernel: "scalar4",
            warmed_from_image: false,
        };
        let p = path.to_str().unwrap();
        // Same ratio passes, whatever the absolute numbers did: a 3x faster
        // and a 5x slower machine both keep ratio 0.5 (the portability
        // property the absolute gate lacked).
        for aps in [500_000.0, 1_500_000.0, 100_000.0] {
            assert!(bench_gate(&[entry("8core/qbs", aps, 0.5)], p, 10.0).is_ok());
        }
        // The entry slipping relative to calibration fails even though its
        // absolute throughput beats the baseline's.
        let err = bench_gate(&[entry("8core/qbs", 900_000.0, 0.3)], p, 10.0).unwrap_err();
        assert!(err.contains("8core/qbs"), "{err}");
        // Within the gate margin: ratio 0.46 vs 0.5 is an -8% slip.
        assert!(bench_gate(&[entry("8core/qbs", 460_000.0, 0.46)], p, 10.0).is_ok());
        // A big relative improvement still passes (one-sided gate).
        assert!(bench_gate(&[entry("8core/qbs", 900_000.0, 0.9)], p, 10.0).is_ok());
        // The calibration entry itself is never gated (its ratio is ~1 by
        // construction and it has no baseline counterpart here).
        assert!(bench_gate(&[entry(GATE_CALIBRATION_ENTRY, 1.0, 1.0)], p, 10.0).is_ok());
        // Entries unknown to the baseline are skipped, not failed.
        assert!(bench_gate(&[entry("no-such-entry", 1.0, 1.0)], p, 10.0).is_ok());
        // A pre-ratio baseline (no calibration_ratio field) demands a
        // re-bless instead of gating on garbage.
        let old = dir.join("old.json");
        let doc = JsonValue::object([(
            "entries",
            JsonValue::array([base_entry("8core/qbs", 500_000.0, None)]),
        )]);
        std::fs::write(&old, doc.to_pretty()).unwrap();
        let err =
            bench_gate(&[entry("8core/qbs", 1.0, 0.5)], old.to_str().unwrap(), 10.0).unwrap_err();
        assert!(err.contains("calibration_ratio"), "{err}");
        // Malformed baseline reports an error.
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{}").unwrap();
        assert!(bench_gate(&[entry("8core/qbs", 1.0, 0.5)], bad.to_str().unwrap(), 10.0).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sample_every_option_parses() {
        let parse = |args: &[&str]| {
            let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            parse_options(&v)
        };
        let o = parse(&[]).unwrap();
        assert_eq!(o.sample_every, DEFAULT_SAMPLE_EVERY);
        let o = parse(&["--sample-every", "8"]).unwrap();
        assert_eq!(o.sample_every, 8);
        assert!(parse(&["--sample-every", "0"])
            .unwrap_err()
            .contains("positive"));
        assert!(parse(&["--sample-every"])
            .unwrap_err()
            .contains("sample-every"));
    }

    #[test]
    fn gap_to_opt_is_relative_and_finite() {
        assert_eq!(gap_to_opt(100, 100), 0.0);
        assert!((gap_to_opt(150, 100) - 0.5).abs() < 1e-12);
        assert!((gap_to_opt(50, 100) + 0.5).abs() < 1e-12);
        // Zero-miss oracle: finite (absolute excess), never NaN/inf.
        assert_eq!(gap_to_opt(7, 0), 7.0);
        assert_eq!(gap_to_opt(0, 0), 0.0);
    }

    #[test]
    fn bench_gate_validates_baseline_schema() {
        let dir = std::env::temp_dir().join(format!("tla-gate-schema-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let entry = BenchEntry {
            name: "8core/qbs".into(),
            cores: 1,
            accesses: 1,
            iters: 1,
            wall_s: 1.0,
            accesses_per_sec: 1.0,
            accesses_per_sec_mean: 1.0,
            calibration_ratio: 0.5,
            kernel: "scalar4",
            warmed_from_image: false,
        };
        let write = |file: &str, schema: Option<&str>| {
            let mut fields = Vec::new();
            if let Some(s) = schema {
                fields.push(("schema", JsonValue::Str(s.into())));
            }
            fields.push((
                "entries",
                JsonValue::array([JsonValue::object([
                    ("name", JsonValue::Str("8core/qbs".into())),
                    ("calibration_ratio", JsonValue::Num(0.5)),
                ])]),
            ));
            let path = dir.join(file);
            std::fs::write(&path, JsonValue::object(fields).to_pretty()).unwrap();
            path
        };
        // Both tagged generations gate cleanly.
        for (file, schema) in [
            ("v2.json", Some("tla-bench-report-v2")),
            ("v3.json", Some("tla-bench-report-v3")),
            ("untagged.json", None),
        ] {
            let p = write(file, schema);
            assert!(
                bench_gate(std::slice::from_ref(&entry), p.to_str().unwrap(), 10.0).is_ok(),
                "{file} must be accepted"
            );
        }
        // An unknown tag is refused with the list of readable schemas.
        let p = write("v9.json", Some("tla-bench-report-v9"));
        let err = bench_gate(std::slice::from_ref(&entry), p.to_str().unwrap(), 10.0).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
        assert!(err.contains("tla-bench-report-v3"), "{err}");
        // The committed baseline itself stays readable by this binary.
        if std::path::Path::new("BENCH_pr16.json").exists() {
            assert!(
                bench_gate(std::slice::from_ref(&entry), "BENCH_pr16.json", 1e9).is_ok(),
                "BENCH_pr16.json must remain a valid gate baseline"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_options_parse() {
        let parse = |args: &[&str]| {
            let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            super::parse_options(&v, sim_base_cfg(), false)
        };
        let o = parse(&[
            "--mix",
            "lib,sje",
            "--out",
            "warm.tlas",
            "--window",
            "50000",
        ])
        .unwrap();
        assert_eq!(o.out.as_deref(), Some("warm.tlas"));
        // Without the json requirement, a bare --window instruments the
        // checkpoint.
        assert_eq!(o.window, Some(50_000));
        assert!(!o.warm_start);
        let o = parse(&["--mix", "lib,sje", "--warm-start"]).unwrap();
        assert!(o.warm_start);
        assert!(o.warm_cache.is_none());
        // --warm-cache carries the directory and opts into warm-start.
        let o = parse(&["--mix", "lib,sje", "--warm-cache", "/tmp/warm"]).unwrap();
        assert_eq!(o.warm_cache.as_deref(), Some("/tmp/warm"));
        assert!(o.warm_start, "--warm-cache implies --warm-start");
        assert!(parse(&["--warm-cache"]).unwrap_err().contains("warm-cache"));
    }
}
