//! Command-line driver for the TLA simulator.
//!
//! Every subcommand is one row of [`COMMANDS`] and every flag one row of
//! [`FLAGS`]. [`parse_command`] matches a command line against the two
//! tables, [`usage`] prints them, and each subcommand accepts only the
//! flags its row lists. `tla-cli` with no arguments prints the usage.

use std::process::ExitCode;
use tla::bench::paper::{self, Figure};
use tla::cache::CacheConfig;
use tla::core::{HierarchyConfig, TlaPolicy};
use tla::io::{IoAgentSpec, IoMixConfig};
use tla::sim::{
    optimal_llc, policy_keys, run_grid, run_policy_reports_io,
    run_policy_reports_warm_start_cached, Checkpoint, CheckpointInfo, Observe, OracleGap,
    PolicySpec, RunKey, RunReport, RunResult, SimConfig, Table, WarmCache,
};
use tla::telemetry::json::JsonValue;
use tla::telemetry::DEFAULT_SAMPLE_EVERY;
use tla::types::CoreId;
use tla::workloads::{table2_mixes, SpecApp};

#[derive(Debug, Default)]
struct Options {
    /// The command's positional argument (a checkpoint or a cache
    /// directory); empty for commands that take none.
    arg: String,
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
    io: IoMixConfig,
    smoke: bool,
    /// Whether a warm-up or measured quota was given explicitly.
    quotas_given: bool,
    figure: Option<Figure>,
}

/// One command-line flag.
#[derive(Clone, Copy)]
struct Flag {
    name: &'static str,
    /// Placeholder of the flag's value; `None` for a switch.
    value: Option<&'static str>,
    help: &'static str,
    /// Applies the value (`""` for a switch) to the options.
    set: fn(&mut Options, &str) -> Result<(), String>,
}

/// Parses a flag value, keeping the parser's own error text.
fn num<T: std::str::FromStr>(v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e: T::Err| e.to_string())
}

/// [`num`] for a flag whose value must be non-zero.
fn positive<T>(flag: &Flag, v: &str) -> Result<T, String>
where
    T: std::str::FromStr + Default + PartialEq,
    T::Err: std::fmt::Display,
{
    let n = num(v)?;
    if n == T::default() {
        return Err(format!("{} must be positive", flag.name));
    }
    Ok(n)
}

const MIX: Flag = Flag {
    name: "--mix",
    value: Some("<apps|MIX_nn>"),
    help: "comma-separated app names or a Table II mix (see `list`)",
    set: |o, v| {
        o.mix = parse_mix(v).ok_or_else(|| format!("unknown mix '{v}'"))?;
        if o.mix.len() > CoreId::MAX_CORES {
            return Err(format!(
                "--mix has {} apps; at most {} cores are supported",
                o.mix.len(),
                CoreId::MAX_CORES
            ));
        }
        Ok(())
    },
};
const POLICY: Flag = Flag {
    name: "--policy",
    value: Some("<name>"),
    help: "a policy named by `list`, or vc<N> for an N-entry victim cache (default baseline)",
    set: |o, v| {
        o.policy = Some(parse_policy(v).ok_or_else(|| format!("unknown policy '{v}'"))?);
        Ok(())
    },
};
const SCALE: Flag = Flag {
    name: "--scale",
    value: Some("<1|2|4|8>"),
    help: "cache down-scaling divisor (default 8)",
    set: |o, v| {
        let v = num(v)?;
        if !SimConfig::SCALES.contains(&v) {
            return Err(format!("--scale must be 1, 2, 4 or 8, got {v}"));
        }
        o.cfg = o.cfg.clone().with_scale(v);
        Ok(())
    },
};
const MEASURE: Flag = Flag {
    name: "--measure",
    value: Some("<n>"),
    help: "measured instructions per thread (default 300000)",
    set: |o, v| {
        o.cfg = o.cfg.clone().instructions(positive(&MEASURE, v)?);
        o.quotas_given = true;
        Ok(())
    },
};
const WARMUP: Flag = Flag {
    name: "--warmup",
    value: Some("<n>"),
    help: "warm-up instructions per thread (default 800000)",
    set: |o, v| {
        o.cfg = o.cfg.clone().warmup(num(v)?);
        o.quotas_given = true;
        Ok(())
    },
};
const SEED: Flag = Flag {
    name: "--seed",
    value: Some("<n>"),
    help: "master seed",
    set: |o, v| {
        o.cfg = o.cfg.clone().seed(num(v)?);
        Ok(())
    },
};
const LLC_MB: Flag = Flag {
    name: "--llc-mb",
    value: Some("<n>"),
    help: "LLC capacity in MB at full scale",
    set: |o, v| {
        o.llc_mb = Some(num(v)?);
        Ok(())
    },
};
const NO_PREFETCH: Flag = Flag {
    name: "--no-prefetch",
    value: None,
    help: "disable the stream prefetcher",
    set: |o, _| {
        o.cfg = o.cfg.clone().prefetch(false);
        Ok(())
    },
};
const JSON: Flag = Flag {
    name: "--json",
    value: Some("<path>"),
    help: "write a machine-readable report",
    set: |o, v| {
        o.json = Some(v.into());
        Ok(())
    },
};
const WINDOW: Flag = Flag {
    name: "--window",
    value: Some("<n>"),
    help: "time-series window in instructions (default 100000)",
    set: |o, v| {
        o.window = Some(positive(&WINDOW, v)?);
        Ok(())
    },
};
const JOBS: Flag = Flag {
    name: "--jobs",
    value: Some("<n>"),
    help: "worker threads for batch work (default all cores; any value gives the same bytes)",
    set: |o, v| {
        o.cfg = o.cfg.clone().jobs(positive(&JOBS, v)?);
        Ok(())
    },
};
const SHARD_JOBS: Flag = Flag {
    name: "--shard-jobs",
    value: Some("<n>"),
    help: "worker threads for the set-sharded MIN oracle (default 1, 0 = all cores)",
    set: |o, v| {
        // 0 is meaningful here: auto-detect the core count.
        o.cfg = o.cfg.clone().shard_jobs(num(v)?);
        Ok(())
    },
};
const OUT: Flag = Flag {
    name: "--out",
    value: Some("<f.tlas>"),
    help: "checkpoint file to write",
    set: |o, v| {
        o.out = Some(v.into());
        Ok(())
    },
};
const WARM_START: Flag = Flag {
    name: "--warm-start",
    value: None,
    help: "warm once under the baseline and resume every policy from that image",
    set: |o, _| {
        o.warm_start = true;
        Ok(())
    },
};
const WARM_CACHE: Flag = Flag {
    name: "--warm-cache",
    value: Some("<dir>"),
    help: "keep warm images in <dir>, keyed by configuration (implies a warm start)",
    set: |o, v| {
        o.warm_cache = Some(v.into());
        // A persistent cache only makes sense on the warm-once path, so
        // asking for one opts into it.
        o.warm_start = true;
        Ok(())
    },
};
const IO: Flag = Flag {
    name: "--io",
    value: Some("<a[,a...]>"),
    help: "DDIO-style device agents injecting into the LLC: nic[:period[:lines]], dma[:period]",
    set: |o, v| {
        for part in v.split(',') {
            let spec = IoAgentSpec::parse(part.trim()).map_err(|e| format!("--io: {e}"))?;
            o.io = o.io.clone().agent(spec);
        }
        Ok(())
    },
};
const IO_WAYS: Flag = Flag {
    name: "--io-ways",
    value: Some("<n>"),
    help: "limit device injections to the first n LLC ways",
    set: |o, v| {
        o.io = o.io.clone().inject_ways(positive(&IO_WAYS, v)?);
        Ok(())
    },
};
const IO_PARTITION: Flag = Flag {
    name: "--io-partition",
    value: None,
    help: "also keep app fills out of the device ways (static partitioning)",
    set: |o, _| {
        o.io = o.io.clone().partition(true);
        Ok(())
    },
};
const SMOKE: Flag = Flag {
    name: "--smoke",
    value: None,
    help: "three device scenarios at 20000 + 60000 instructions (CI mode)",
    set: |o, _| {
        o.smoke = true;
        Ok(())
    },
};
const FIGURE: Flag = Flag {
    name: "--figure",
    value: Some("<id>"),
    help: "only this table or figure: table1, fig2, fig5..fig11, victim-cache, \
           qbs-variants, replacement, latency, snoop-filter",
    set: |o, v| {
        o.figure = Some(v.parse()?);
        Ok(())
    },
};
const BASELINE: Flag = Flag {
    name: "--baseline",
    value: Some("<path>"),
    help: "committed BENCH_*.json report to gate against",
    set: |o, v| {
        o.baseline = Some(v.into());
        Ok(())
    },
};
const GATE: Flag = Flag {
    name: "--gate",
    value: Some("<pct>"),
    help: "max % drop of an entry's throughput ratio to 1core/baseline (default 10)",
    set: |o, v| {
        let v: f64 = num(v)?;
        if !v.is_finite() || v <= 0.0 {
            return Err("--gate must be positive".into());
        }
        o.gate_pct = v;
        Ok(())
    },
};
const TARGET_MS: Flag = Flag {
    name: "--target-ms",
    value: Some("<n>"),
    help: "wall-clock budget per matrix entry in ms (default 800)",
    set: |o, v| {
        o.target_ms = positive(&TARGET_MS, v)?;
        Ok(())
    },
};

/// Every flag, in usage order.
const FLAGS: &[Flag] = &[
    MIX,
    POLICY,
    SCALE,
    MEASURE,
    WARMUP,
    SEED,
    LLC_MB,
    NO_PREFETCH,
    JSON,
    WINDOW,
    JOBS,
    SHARD_JOBS,
    OUT,
    WARM_START,
    WARM_CACHE,
    IO,
    IO_WAYS,
    IO_PARTITION,
    SMOKE,
    FIGURE,
    BASELINE,
    GATE,
    TARGET_MS,
];

/// Flags several commands read together.
const QUOTAS: &[Flag] = &[SCALE, MEASURE, WARMUP, SEED];
const HIERARCHY: &[Flag] = &[LLC_MB, NO_PREFETCH];
const REPORT: &[Flag] = &[JSON, WINDOW];
const WORKERS: &[Flag] = &[JOBS, SHARD_JOBS];
const DEVICES: &[Flag] = &[IO, IO_WAYS, IO_PARTITION];

/// One subcommand; `name` is two words for the `snapshot` family.
struct Command {
    name: &'static str,
    /// Placeholder of the positional argument, if the command takes one.
    arg: Option<&'static str>,
    summary: &'static str,
    /// The flags the command reads, in groups; any other is an error.
    flags: &'static [&'static [Flag]],
    /// The configuration the flags start from.
    base: fn() -> SimConfig,
    needs_mix: bool,
    /// Whether a `--window` without `--json` is live (the command
    /// instruments anyway).
    bare_window: bool,
    run: fn(&Options) -> Result<(), String>,
}

impl Command {
    /// The flag called `name`, if this command reads it.
    fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.flags
            .iter()
            .copied()
            .flatten()
            .find(|f| f.name == name)
    }
}

/// The paper-flavoured default config of the simulation commands.
fn sim_base_cfg() -> SimConfig {
    SimConfig::scaled_down()
        .warmup(800_000)
        .instructions(300_000)
}

/// What a [`COMMANDS`] row does not say: no positional argument, no
/// flags, the paper-flavoured base config, `--mix` optional and
/// `--window` only with `--json`.
const DEFAULTS: Command = Command {
    name: "",
    arg: None,
    summary: "",
    flags: &[],
    base: sim_base_cfg,
    needs_mix: false,
    bare_window: false,
    run: |_| Ok(()),
};

/// Every subcommand, in usage order.
const COMMANDS: &[Command] = &[
    Command {
        name: "list",
        summary: "available apps, mixes and policies",
        run: cmd_list,
        ..DEFAULTS
    },
    Command {
        name: "paper",
        summary: "the paper's tables and figures, every suite simulated straight through \
                  (all, in order, by default; at scale 1, Figs 2 and 10 cover all 105 mixes \
                  and Fig 11 100 random ones)",
        flags: &[&[FIGURE, JOBS], QUOTAS],
        run: cmd_paper,
        ..DEFAULTS
    },
    Command {
        name: "run",
        summary: "simulate one mix under one policy",
        flags: &[&[MIX, POLICY], QUOTAS, HIERARCHY, REPORT, DEVICES],
        needs_mix: true,
        run: cmd_run,
        ..DEFAULTS
    },
    Command {
        name: "compare",
        summary: "every policy on one mix, with its gap to the Belady MIN oracle",
        flags: &[
            &[MIX, WARM_START, WARM_CACHE],
            QUOTAS,
            HIERARCHY,
            REPORT,
            WORKERS,
            DEVICES,
        ],
        needs_mix: true,
        run: cmd_compare,
        ..DEFAULTS
    },
    Command {
        name: "analyze",
        summary: "every policy with the analytics layer: MIN-oracle gap, reuse-distance \
                  histograms, inclusion-victim rates",
        flags: &[&[MIX], QUOTAS, HIERARCHY, REPORT, WORKERS, DEVICES],
        needs_mix: true,
        bare_window: true,
        run: cmd_analyze,
        ..DEFAULTS
    },
    Command {
        name: "bench",
        summary: "simulator throughput over a fixed policy x core-count matrix plus device \
                  injection entries (no warm-up, 1000000 measured instructions by default)",
        flags: &[&[NO_PREFETCH, JSON, BASELINE, GATE, TARGET_MS], QUOTAS],
        // Throughput, not policy fidelity: long measured runs, no warm-up.
        base: || SimConfig::scaled_down().warmup(0).instructions(1_000_000),
        run: cmd_bench,
        ..DEFAULTS
    },
    Command {
        name: "io-sweep",
        summary: "app-vs-I/O pressure sweep: device scenarios (nic ring, leaky dma, \
                  injection-way limits, partitioning) x four policies (default mix sje)",
        flags: &[&[MIX, SMOKE], QUOTAS, HIERARCHY, REPORT, WORKERS],
        run: cmd_io_sweep,
        ..DEFAULTS
    },
    Command {
        name: "snapshot save",
        summary: "warm up only and write a checkpoint (a window instruments it)",
        flags: &[&[MIX, POLICY, WINDOW, OUT], QUOTAS, HIERARCHY],
        needs_mix: true,
        bare_window: true,
        run: cmd_snapshot_save,
        ..DEFAULTS
    },
    Command {
        name: "snapshot info",
        arg: Some("<f.tlas>"),
        summary: "describe a checkpoint",
        run: cmd_snapshot_info,
        ..DEFAULTS
    },
    Command {
        name: "snapshot resume",
        arg: Some("<f.tlas>"),
        summary: "finish the measured phase from a checkpoint (the config comes from the file)",
        flags: &[&[POLICY], REPORT],
        run: cmd_snapshot_resume,
        ..DEFAULTS
    },
    Command {
        name: "snapshot cache-info",
        arg: Some("<dir>"),
        summary: "show the images of a warm-cache directory (read-only)",
        run: cmd_snapshot_cache_info,
        ..DEFAULTS
    },
];

/// The usage text, generated from [`COMMANDS`] and [`FLAGS`].
fn usage_text() -> String {
    // One row per entry: its name in a 29-column gutter, then its text
    // word-wrapped at 79 columns.
    let row = |head: String, text: &str| {
        let (mut out, mut line) = (String::new(), format!("  {head:27}"));
        for word in text.split(' ') {
            if line.len() + 1 + word.len() > 79 && line.len() > 29 {
                out += &line;
                out += "\n";
                line = " ".repeat(29);
            }
            line += " ";
            line += word;
        }
        out + &line + "\n"
    };
    let mut s = String::from("usage: tla-cli <command> [options]\n\ncommands:\n");
    for c in COMMANDS {
        s += &row(format!("{} {}", c.name, c.arg.unwrap_or("")), c.summary);
    }
    s += "\noptions (each command rejects the ones it does not read):\n";
    for f in FLAGS {
        s += &row(format!("{} {}", f.name, f.value.unwrap_or("")), f.help);
    }
    s
}

fn usage() -> ExitCode {
    eprint!("{}", usage_text());
    ExitCode::FAILURE
}

/// Largest `vc<N>` victim cache `--policy` accepts. The victim cache is
/// fully associative and keeps no per-set way masks, so this bounds the
/// probe sweeps, not a bitmap width.
const MAX_VICTIM_ENTRIES: usize = 256;

fn parse_policy(name: &str) -> Option<PolicySpec> {
    // `vc<N>` is a family, not a fixed name: vc32 is the paper's §VI victim
    // cache, larger sizes drive the fully-associative probe sweeps.
    if let Some(n) = name.strip_prefix("vc") {
        let entries: usize = n.parse().ok()?;
        if !(1..=MAX_VICTIM_ENTRIES).contains(&entries) {
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
        // Figure 9b's compositions: a TLA policy on a non-inclusive base.
        "ni+tlh-l1" => PolicySpec::on_non_inclusive(TlaPolicy::tlh_l1()),
        "ni+tlh-l2" => PolicySpec::on_non_inclusive(TlaPolicy::tlh_l2()),
        "ni+eci" => PolicySpec::on_non_inclusive(TlaPolicy::eci()),
        "ni+qbs" => PolicySpec::on_non_inclusive(TlaPolicy::qbs()),
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
    if opts.smoke && opts.quotas_given {
        return Err("--smoke fixes its own quotas; drop --warmup/--measure".into());
    }
    Ok(())
}

/// The [`COMMANDS`] row `args` starts with, and the arguments after its
/// name.
fn find_command(args: &[String]) -> Result<(&'static Command, &[String]), String> {
    let words = |n: usize| args.iter().take(n).cloned().collect::<Vec<_>>().join(" ");
    COMMANDS
        .iter()
        .find_map(|c| {
            let n = c.name.split(' ').count();
            (words(n) == c.name).then(|| (c, &args[n..]))
        })
        .ok_or_else(|| {
            // Name both words when the first one opens a command family.
            let first = words(1);
            let family = COMMANDS
                .iter()
                .any(|c| c.name.starts_with(&format!("{first} ")));
            format!("unknown command '{}'", words(if family { 2 } else { 1 }))
        })
}

/// Parses a command line (without the program name): matches the
/// command, takes its positional argument, applies each flag the command
/// reads, and checks the combination.
fn parse_command(args: &[String]) -> Result<(&'static Command, Options), String> {
    let (cmd, rest) = find_command(args)?;
    let mut opts = Options {
        cfg: (cmd.base)(),
        gate_pct: 10.0,
        target_ms: 800,
        ..Options::default()
    };
    let mut rest = rest.iter();
    if let Some(arg) = cmd.arg {
        opts.arg = rest
            .next()
            .ok_or_else(|| format!("{} needs {arg}", cmd.name))?
            .clone();
    }
    while let Some(name) = rest.next() {
        let Some(flag) = cmd.flag(name) else {
            return Err(if FLAGS.iter().any(|f| f.name == name) {
                format!("{} does not accept {name}", cmd.name)
            } else {
                format!("unknown option '{name}'")
            });
        };
        let value = match flag.value {
            Some(_) => rest.next().ok_or_else(|| format!("{name} needs a value"))?,
            None => "",
        };
        (flag.set)(&mut opts, value)?;
    }
    validate(&opts, !cmd.bare_window)?;
    if cmd.needs_mix && opts.mix.is_empty() {
        return Err(format!("{}: {} is required", cmd.name, MIX.name));
    }
    Ok((cmd, opts))
}

/// Time-series window used for `--json` when `--window` is not given.
const DEFAULT_WINDOW: u64 = 100_000;

impl Options {
    /// `--llc-mb` in full-scale bytes.
    fn llc(&self) -> Option<usize> {
        self.llc_mb.map(|mb| mb * 1024 * 1024)
    }

    /// The time-series window of a run whose report `--json` writes:
    /// `--window`, or the default; `None` without `--json`.
    fn report_window(&self) -> Option<u64> {
        self.json
            .as_ref()
            .map(|_| self.window.unwrap_or(DEFAULT_WINDOW))
    }
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

fn write_json(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("report written to {path}");
    Ok(())
}

/// Writes `reports` as one JSON array when `--json` asked for it.
fn write_reports(opts: &Options, reports: &[RunReport]) -> Result<(), String> {
    match &opts.json {
        Some(path) => {
            let doc = JsonValue::array(reports.iter().map(RunReport::to_json));
            write_json(path, &doc.to_pretty())
        }
        None => Ok(()),
    }
}

fn cmd_list(_: &Options) -> Result<(), String> {
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
    println!("          ni+tlh-l1 ni+tlh-l2 ni+eci ni+qbs (Figure 9b: TLA on a non-inclusive LLC)");
    println!(
        "          vc<N> (victim cache with N entries, 1..={MAX_VICTIM_ENTRIES}; vc32 = paper §VI)"
    );
    println!("\nprobe kernel: {}", tla::cache::kernel_name());
    Ok(())
}

fn cmd_paper(opts: &Options) -> Result<(), String> {
    let cfg = &opts.cfg;
    println!(
        "paper: scale 1/{}, {} warm-up + {} measured instructions/thread, seed {:#x}\n",
        cfg.scale(),
        cfg.warmup_quota(),
        cfg.instruction_quota(),
        cfg.seed_value()
    );
    let figures = opts.figure.map_or(Figure::ALL.to_vec(), |f| vec![f]);
    for report in paper::run(&figures, cfg) {
        print!("{report}");
    }
    Ok(())
}

fn cmd_run(opts: &Options) -> Result<(), String> {
    let spec = opts.policy.clone().unwrap_or_else(PolicySpec::baseline);
    let (r, report) = RunKey::new(&opts.cfg, &opts.mix, &spec)
        .llc_override(opts.llc())
        .io(opts.io.clone())
        .observe(opts.report_window().map_or(Observe::Plain, Observe::Report))
        .run();
    print_result(&spec.name, &r);
    print_io_result(&r);
    match (&opts.json, report) {
        (Some(path), Some(report)) => write_json(path, &report.to_json_string()),
        _ => Ok(()),
    }
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

fn cmd_compare(opts: &Options) -> Result<(), String> {
    let specs = compare_specs();
    // All policies run in parallel (bit-identical to serial, `--jobs`
    // workers); printing happens afterwards, in spec order.
    let window = opts.report_window();
    let llc = opts.llc();
    let warm_cache = opts
        .warm_cache
        .as_ref()
        .map(|dir| WarmCache::open(dir).map_err(|e| format!("cannot open warm cache {dir}: {e}")))
        .transpose()?;
    let results = if opts.warm_start {
        // Warm once under the baseline (or pull the warm image from the
        // cache directory), fan the measured phases out.
        run_policy_reports_warm_start_cached(
            &opts.cfg,
            &opts.mix,
            &specs,
            llc,
            window,
            warm_cache.as_ref(),
        )
        .map_err(|e| format!("warm-start resume failed: {e}"))?
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
        let gap = OracleGap::new(&r, opt.misses);
        println!(
            "  -> {:+.1}% vs baseline; gap-to-opt {:+.1}% ({} vs {} optimal), \
             inclusion-victim rate {:.2}%\n",
            (tp / base - 1.0) * 100.0,
            gap.gap_to_opt * 100.0,
            r.llc_misses(),
            opt.misses,
            gap.victim_rate * 100.0,
        );
        if let Some(mut report) = report {
            gap.attach(&mut report);
            reports.push(report);
        }
    }
    write_reports(opts, &reports)
}

fn cmd_analyze(opts: &Options) -> Result<(), String> {
    let specs = compare_specs();
    let llc = opts.llc();
    let opt = optimal_llc(&opts.cfg, &opts.mix, llc);
    // Analyze always instruments (the analytics ride on the telemetry
    // stream), so a window exists with or without --json.
    let observe = Observe::Analyzed {
        window: Some(opts.window.unwrap_or(DEFAULT_WINDOW)),
        sample_every: DEFAULT_SAMPLE_EVERY,
    };
    let keys = policy_keys(&opts.cfg, &opts.mix, &specs, llc, &opts.io, observe);
    let results = run_grid(&keys, opts.cfg.effective_jobs());
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
    for (r, report) in results {
        let mut report = report.expect("analyzed runs carry a report");
        let gap = OracleGap::new(&r, opt.misses);
        gap.attach(&mut report);
        let reuse = report.reuse.as_ref().expect("analyzed runs carry reuse");
        let mut row = vec![
            r.spec_name.clone(),
            r.llc_misses().to_string(),
            opt.misses.to_string(),
            format!("{:+.1}%", gap.gap_to_opt * 100.0),
            format!("{:.2}%", gap.victim_rate * 100.0),
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
        DEFAULT_SAMPLE_EVERY
    );
    write_reports(opts, &reports)
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

fn cmd_io_sweep(opts: &Options) -> Result<(), String> {
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
    let llc = opts.llc();
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
    // One grid over scenarios x specs, scenario-major.
    let observe = opts.report_window().map_or(Observe::Plain, Observe::Report);
    let keys: Vec<RunKey> = scenarios
        .iter()
        .flat_map(|io| policy_keys(&cfg, &mix, &specs, llc, io, observe))
        .collect();
    let mut results = run_grid(&keys, cfg.effective_jobs()).into_iter();
    let mut reports = Vec::new();
    for io in &scenarios {
        for (spec, (r, report)) in specs.iter().zip(results.by_ref()) {
            let gap = OracleGap::new(&r, opt.misses);
            let (io_victims, injections) = r.io.as_ref().map_or_else(
                || ("-".to_string(), "-".to_string()),
                |(s, _)| (s.victim_misses_io.to_string(), s.injections.to_string()),
            );
            table.add_row(vec![
                io.label(),
                spec.name.clone(),
                r.llc_misses().to_string(),
                format!("{:+.1}%", gap.gap_to_opt * 100.0),
                format!("{:.2}%", gap.victim_rate * 100.0),
                io_victims,
                injections,
                format!("{:.3}", r.throughput()),
            ]);
            if let Some(mut report) = report {
                gap.attach(&mut report);
                reports.push(report);
            }
        }
    }
    print!("{table}");
    write_reports(opts, &reports)
}

/// The fixed bench matrix: the paper's four management policies crossed
/// with 1/2/4/8-core LLC-miss-heavy mixes (mcf and libquantum are the two
/// highest-LLC-MPKI apps of Table I, so every entry exercises the LLC miss
/// path the scratch-buffer rewrite targets; the 8-core mix stresses
/// scheduler-heap and sharer-bitmap scaling), plus the `io/*` entries that
/// time the device-injection path. Each entry is a plain run under `cfg`.
fn bench_matrix(cfg: &SimConfig) -> Vec<(String, RunKey)> {
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
                RunKey::new(cfg, apps, spec),
            ));
        }
    }
    // Probe-heavy entry: a 128-entry fully-associative victim cache behind
    // the LLC makes the linear tag scan (the code the SIMD set-probe
    // kernels accelerate) the dominant cost of every LLC miss; mcf's
    // LLC-miss-heavy stream keeps that path hot.
    matrix.push((
        "1core-vc128/vc128".to_string(),
        RunKey::new(cfg, &[Mcf], &PolicySpec::victim_cache(128)),
    ));
    // Injection-path entries: a period-2 leaky-DMA agent keeps the
    // io_inject fast path (device fills, way-masked victim search,
    // IoInjection back-invalidates) hot alongside two demand-heavy cores
    // — once under plain LRU, once under the way-limited DDIO model.
    let dma = IoMixConfig::none().agent(IoAgentSpec::dma().period(2));
    let dma_run = RunKey::new(cfg, &[Mcf, Libquantum], &PolicySpec::baseline());
    matrix.push((
        "io/2core-dma/baseline".to_string(),
        dma_run.clone().io(dma.clone()),
    ));
    matrix.push((
        "io/2core-dma-w2/baseline".to_string(),
        dma_run.io(dma.inject_ways(2)),
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
}

impl BenchEntry {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
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
        ])
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

fn cmd_bench(opts: &Options) -> Result<(), String> {
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
    let matrix = bench_matrix(cfg);

    // One untimed run per entry pins its memory accesses (the deterministic
    // work-unit count the calibration-ratio gate divides by) and doubles as
    // warm-up before the timed rounds.
    let accesses: Vec<u64> = matrix
        .iter()
        .map(|(_, job)| {
            job.run()
                .0
                .threads
                .iter()
                .map(|t| t.stats.l1_accesses())
                .sum()
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
                cal_job.run();
                best_cal = best_cal.min(t0.elapsed().as_nanos());
                let t0 = std::time::Instant::now();
                job.run();
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
        });
    }
    print!("{table}");
    let wall_total = t_total.elapsed().as_secs_f64();
    let rss = peak_rss_kb();
    println!(
        "total {wall_total:.1}s, peak RSS {}",
        rss.map_or_else(|| "n/a".into(), |kb| format!("{kb} kB"))
    );

    // The report is written whatever the gate says, so a failing run
    // still leaves its numbers behind.
    let gate = opts
        .baseline
        .as_ref()
        .map_or(Ok(()), |path| bench_gate(&entries, path, opts.gate_pct));
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
        if let Err(e) = write_json(path, &doc.to_pretty()) {
            if let Err(g) = &gate {
                eprintln!("error: {g}");
            }
            return Err(e);
        }
    }
    gate
}

fn cmd_snapshot_save(opts: &Options) -> Result<(), String> {
    let path = opts
        .out
        .as_ref()
        .ok_or_else(|| format!("snapshot save: {} is required", OUT.name))?;
    let spec = opts.policy.clone().unwrap_or_else(PolicySpec::baseline);
    let key = RunKey::new(&opts.cfg, &opts.mix, &spec).llc_override(opts.llc());
    let run = key.mix_run();
    let checkpoint = match opts.window {
        Some(w) => run.warm_checkpoint_instrumented(Some(w)),
        None => run.warm_checkpoint(),
    };
    let info = checkpoint
        .info()
        .map_err(|e| format!("just-written checkpoint is invalid: {e}"))?;
    checkpoint
        .save(path)
        .map_err(|e| format!("cannot write {path}: {e}"))?;
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
    Ok(())
}

/// Loads and validates the checkpoint at `path`.
fn load_checkpoint(path: &str) -> Result<(Checkpoint, CheckpointInfo), String> {
    let checkpoint = Checkpoint::load(path).map_err(|e| format!("{path}: {e}"))?;
    let info = checkpoint.info().map_err(|e| format!("{path}: {e}"))?;
    Ok((checkpoint, info))
}

fn cmd_snapshot_info(opts: &Options) -> Result<(), String> {
    let path = &opts.arg;
    let (checkpoint, info) = load_checkpoint(path)?;
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
    Ok(())
}

fn cmd_snapshot_resume(opts: &Options) -> Result<(), String> {
    let path = &opts.arg;
    let (checkpoint, info) = load_checkpoint(path)?;
    let cfg = info.sim_config();
    let spec = opts.policy.clone().unwrap_or_else(PolicySpec::baseline);
    // The checkpoint records the override at full scale, as the key takes it.
    let key = RunKey::new(&cfg, &info.apps, &spec).llc_override(info.llc_capacity_full_scale);
    let failed = |e| format!("cannot resume {path}: {e}");
    if let Some(json_path) = &opts.json {
        let window = opts.window.or(info.window);
        let (result, report) = key
            .mix_run()
            .resume_report(&checkpoint, window)
            .map_err(failed)?;
        print_result(&spec.name, &result);
        write_json(json_path, &report.to_json_string())
    } else {
        print_result(
            &spec.name,
            &key.mix_run().resume(&checkpoint).map_err(failed)?,
        );
        Ok(())
    }
}

/// Lists a warm-cache directory without modifying it (the cache never
/// evicts; this command never writes).
fn cmd_snapshot_cache_info(opts: &Options) -> Result<(), String> {
    let dir = &opts.arg;
    if !std::path::Path::new(dir).is_dir() {
        return Err(format!("{dir}: not a directory"));
    }
    let entries = WarmCache::open(dir)
        .and_then(|cache| cache.entries())
        .map_err(|e| format!("{dir}: {e}"))?;
    if entries.is_empty() {
        println!("warm cache {dir}: empty");
        return Ok(());
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
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    let (cmd, opts) = match parse_command(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    match (cmd.run)(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tla::sim::gap_to_opt;

    /// Parses `tla-cli <cmd> <args...>`; `cmd` may be two words.
    fn parse(cmd: &str, args: &[&str]) -> Result<Options, String> {
        let argv: Vec<String> = cmd
            .split(' ')
            .chain(args.iter().copied())
            .map(String::from)
            .collect();
        parse_command(&argv).map(|(_, opts)| opts)
    }

    fn bad(cmd: &str, args: &[&str]) -> String {
        parse(cmd, args).unwrap_err()
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
            "ni+tlh-l1",
            "ni+tlh-l2",
            "ni+eci",
            "ni+qbs",
            "vc32",
            "vc128",
            "vc256",
        ] {
            assert!(parse_policy(name).is_some(), "{name} must parse");
        }
        // Figure 9b's compositions keep the figure's labels.
        for (name, label) in [
            ("ni+tlh-l1", "NI+TLH-L1"),
            ("ni+tlh-l2", "NI+TLH-L2"),
            ("ni+eci", "NI+ECI"),
            ("ni+qbs", "NI+QBS"),
        ] {
            let spec = parse_policy(name).unwrap();
            assert_eq!(spec.name, label);
            assert_eq!(spec.inclusion, tla::core::InclusionPolicy::NonInclusive);
        }
        assert!(parse_policy("bogus").is_none());
        assert_eq!(parse_policy("inclusive").unwrap().name, "Inclusive");
        // The vc family is parameterized and bounded by its own entry
        // limit, not by the 64-way set-bitmap width.
        assert_eq!(parse_policy("vc32").unwrap().victim_cache, Some(32));
        assert_eq!(parse_policy("vc128").unwrap().name, "VC-128");
        assert_eq!(parse_policy("vc256").unwrap().victim_cache, Some(256));
        assert!(parse_policy("vc0").is_none(), "empty victim cache");
        assert!(parse_policy("vc257").is_none(), "beyond MAX_VICTIM_ENTRIES");
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
        let o = parse(
            "run",
            &[
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
            ],
        )
        .unwrap();
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
        assert!(bad("run", &["--mix"]).contains("--mix"));
        assert!(bad("run", &["--policy", "bogus"]).contains("unknown policy"));
        assert!(bad("run", &["--whatever"]).contains("unknown option"));
        assert!(bad("run", &["--mix", "xyz"]).contains("unknown mix"));
        assert!(bad("compare", &["--jobs", "0"]).contains("positive"));
        assert!(bad("compare", &["--jobs"]).contains("--jobs"));
        // Both used to panic deep in the simulator's config builders.
        let too_many = vec!["lib"; CoreId::MAX_CORES + 1].join(",");
        assert!(bad("run", &["--mix", &too_many]).contains("at most 64 cores"));
        let max = vec!["lib"; CoreId::MAX_CORES].join(",");
        let o = parse("run", &["--mix", &max]).unwrap();
        assert_eq!(o.mix.len(), CoreId::MAX_CORES);
        assert!(bad("run", &["--measure", "0"]).contains("--measure must be positive"));
        // Geometry flags are checked up front instead of panicking in the
        // cache builders (384 sets at 3 MB / scale 8 is no power of two).
        let e = bad("run", &["--llc-mb", "3"]);
        assert!(
            e.contains("--llc-mb 3") && e.contains("not a power of two"),
            "{e}"
        );
        assert!(bad("run", &["--llc-mb", "0"]).contains("--llc-mb 0"));
        assert!(bad("run", &["--llc-mb", "100000"]).contains("--llc-mb 100000"));
        assert!(bad("run", &["--llc-mb", &usize::MAX.to_string()]).contains("overflows"));
        assert!(bad("run", &["--scale", "1", "--llc-mb", "3"]).contains("scale 1"));
        assert!(bad("run", &["--scale", "3"]).contains("--scale must be 1, 2, 4 or 8"));
        assert!(bad("run", &["--scale", "0"]).contains("--scale"));
        // The epoch-parallel engine and its worker knob are gone, and so
        // are the bench warm image and the reuse sampling knob.
        assert!(bad("compare", &["--engine-jobs", "2"]).contains("unknown option"));
        assert!(bad("bench", &["--warm-image", "w.tlas"]).contains("unknown option"));
        assert!(bad("analyze", &["--sample-every", "8"]).contains("unknown option"));
        assert!(bad("paper", &["--figure", "nope"]).contains("valid: table1, fig2"));
        // Commands that simulate a mix need one.
        assert_eq!(bad("run", &[]), "run: --mix is required");
        assert_eq!(
            bad("snapshot save", &[]),
            "snapshot save: --mix is required"
        );
        // --smoke fixes the quotas, so a given quota would be dropped.
        for quota in ["--warmup", "--measure"] {
            assert_eq!(
                bad("io-sweep", &["--smoke", quota, "1000"]),
                "--smoke fixes its own quotas; drop --warmup/--measure"
            );
        }
        assert!(parse("io-sweep", &["--smoke", "--seed", "3"]).is_ok());

        // A flag the subcommand would parse and then ignore is an error.
        assert!(bad("table1", &["--mix", "lib,sje"]).contains("unknown command 'table1'"));
        assert_eq!(bad("snapshot", &[]), "unknown command 'snapshot'");
        assert_eq!(
            bad("snapshot", &["nope"]),
            "unknown command 'snapshot nope'"
        );
        assert_eq!(bad("snapshot info", &[]), "snapshot info needs <f.tlas>");
        assert_eq!(
            bad("snapshot info", &["f.tlas", "--json", "x"]),
            "snapshot info does not accept --json"
        );
        assert_eq!(
            bad("paper", &["--figure", "table1", "--mix", "lib,sje"]),
            "paper does not accept --mix"
        );
        assert_eq!(
            bad("run", &["--mix", "lib,sje", "--warm-start"]),
            "run does not accept --warm-start"
        );
        assert_eq!(
            bad("run", &["--mix", "lib,sje", "--out", "x"]),
            "run does not accept --out"
        );
        assert_eq!(
            bad("io-sweep", &["--policy", "qbs"]),
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
            let e = bad("paper", &args);
            assert!(e.starts_with("paper does not accept"), "{e}");
        }
        for flag in ["--io-partition", "--warm-start"] {
            assert!(bad("paper", &[flag]).contains("does not accept"));
        }
        assert_eq!(
            bad(
                "snapshot resume",
                &["f.tlas", "--policy", "qbs", "--window", "5"]
            ),
            "--window only makes sense with --json"
        );
    }

    /// Every `tla-cli` invocation in the CI workflow parses, positional
    /// argument and values included; the ones CI runs under `if` (to
    /// check the error path) fail on a value, not on an unknown or
    /// unaccepted flag.
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
            let argv: Vec<String> = words[at + 1..]
                .iter()
                .skip_while(|w| **w == "--")
                .take_while(|w| !w.starts_with(['|', '>', ';']) && !w.starts_with("2>"))
                .map(|w| w.to_string())
                .collect();
            let expect_error = words[0] == "if";
            match parse_command(&argv) {
                Ok(_) => assert!(!expect_error, "ci.yml expects an error from: {line}"),
                Err(e) => assert!(
                    expect_error
                        && !e.contains("unknown option")
                        && !e.contains("unknown command")
                        && !e.contains("does not accept"),
                    "ci.yml: {e}: {line}"
                ),
            }
            checked += 1;
        }
        assert!(checked >= 10, "only {checked} tla-cli invocations found");
    }

    /// The two tables and the usage generated from them agree.
    #[test]
    fn flag_and_command_tables_agree() {
        let reads = |c: &Command, f: &Flag| c.flag(f.name).is_some();
        for f in FLAGS {
            assert!(
                COMMANDS.iter().any(|c| reads(c, f)),
                "no command reads {}",
                f.name
            );
        }
        for c in COMMANDS {
            for g in c.flags.iter().copied().flatten() {
                assert!(
                    FLAGS.iter().any(|f| f.name == g.name),
                    "{} reads {}, which is missing from FLAGS",
                    c.name,
                    g.name
                );
            }
        }
        let usage = usage_text();
        let tokens: Vec<&str> = usage.split_whitespace().collect();
        let count = |name: &str| {
            let n = name.split(' ').count();
            tokens.windows(n).filter(|w| w.join(" ") == name).count()
        };
        for name in COMMANDS
            .iter()
            .map(|c| c.name)
            .chain(FLAGS.iter().map(|f| f.name))
        {
            assert_eq!(count(name), 1, "{name} must appear once in the usage");
        }
        // Any flag a command does not read fails with the command's name.
        for c in COMMANDS {
            for f in FLAGS.iter().filter(|f| !reads(c, f)) {
                let mut argv: Vec<String> = c.name.split(' ').map(String::from).collect();
                argv.extend(c.arg.map(|_| "x".to_string()));
                argv.push(f.name.to_string());
                argv.extend(f.value.map(|_| "1".to_string()));
                assert_eq!(
                    parse_command(&argv).map(|_| ()).unwrap_err(),
                    format!("{} does not accept {}", c.name, f.name)
                );
            }
        }
    }

    #[test]
    fn io_options_parse() {
        let run = |args: &[&str]| parse("run", &[&["--mix", "lib"], args].concat());
        let o = run(&["--io", "dma:2,nic:4:512", "--io-ways", "2"]).unwrap();
        assert_eq!(o.io.agents.len(), 2);
        assert_eq!(o.io.label(), "dma:2+nic:4:512/w2");
        assert_eq!(o.io.inject_ways, Some(2));
        assert!(!o.io.partition);
        let o = run(&["--io", "dma", "--io-ways", "4", "--io-partition"]).unwrap();
        assert!(o.io.partition);
        // No --io at all stays trivial, so non-io output is byte-identical.
        let o = run(&[]).unwrap();
        assert!(o.io.is_trivial());
        assert!(!parse("io-sweep", &[]).unwrap().smoke);
        assert!(parse("io-sweep", &["--smoke"]).unwrap().smoke);
    }

    #[test]
    fn io_options_validate() {
        assert!(bad("run", &["--io", "tape:3"]).contains("--io"));
        assert!(bad("run", &["--io-ways", "0"]).contains("positive"));
        assert!(bad("run", &["--io-partition"]).contains("requires --io-ways"));
        assert!(bad("compare", &["--io", "dma", "--warm-start"]).contains("warm-start"));
        assert!(bad("compare", &["--io", "dma", "--warm-cache", "d"]).contains("warm"));
    }

    #[test]
    fn jobs_option_parses() {
        let o = parse("io-sweep", &["--jobs", "4"]).unwrap();
        assert_eq!(o.cfg.jobs_override(), Some(4));
        assert_eq!(o.cfg.effective_jobs(), 4);
        let o = parse("io-sweep", &[]).unwrap();
        assert_eq!(o.cfg.jobs_override(), None);
    }

    #[test]
    fn shard_jobs_option_parses() {
        let o = parse("io-sweep", &["--shard-jobs", "3"]).unwrap();
        assert_eq!(o.cfg.shard_jobs_override(), Some(3));
        assert_eq!(o.cfg.effective_shard_jobs(), 3);
        // 0 opts into auto-detection rather than erroring.
        let o = parse("io-sweep", &["--shard-jobs", "0"]).unwrap();
        assert_eq!(o.cfg.shard_jobs_override(), Some(0));
        assert!(o.cfg.effective_shard_jobs() >= 1);
        let o = parse("io-sweep", &[]).unwrap();
        assert_eq!(o.cfg.shard_jobs_override(), None);
    }

    #[test]
    fn json_and_window_options_parse() {
        let run = |args: &[&str]| parse("run", &[&["--mix", "lib,sje"], args].concat());
        let o = run(&["--json", "out.json", "--window", "50000"]).unwrap();
        assert_eq!(o.json.as_deref(), Some("out.json"));
        assert_eq!(o.window, Some(50_000));
        let o = run(&["--json", "out.json"]).unwrap();
        assert_eq!(o.window, None);
        let err = run(&["--window", "50000"]).unwrap_err();
        assert!(err.contains("--json"));
        let err = run(&["--json", "o", "--window", "0"]).unwrap_err();
        assert!(err.contains("positive"));
    }

    #[test]
    fn bench_options_parse() {
        let o = parse(
            "bench",
            &[
                "--baseline",
                "BENCH_pr3.json",
                "--gate",
                "5",
                "--target-ms",
                "100",
            ],
        )
        .unwrap();
        assert_eq!(o.baseline.as_deref(), Some("BENCH_pr3.json"));
        assert_eq!(o.gate_pct, 5.0);
        assert_eq!(o.target_ms, 100);
        let o = parse("bench", &[]).unwrap();
        assert_eq!(o.baseline, None);
        assert_eq!(o.gate_pct, 10.0);
        assert_eq!(o.target_ms, 800);
        // bench starts from its own base: no warm-up, long measured runs.
        assert_eq!(o.cfg.warmup_quota(), 0);
        assert_eq!(o.cfg.instruction_quota(), 1_000_000);
        assert!(bad("bench", &["--gate", "0"]).contains("positive"));
        assert!(bad("bench", &["--gate", "nan"]).contains("positive"));
        assert!(bad("bench", &["--target-ms", "0"]).contains("positive"));
    }

    #[test]
    fn bench_matrix_shape() {
        use SpecApp::{Libquantum, Mcf};
        let cfg = SimConfig::default();
        let matrix = bench_matrix(&cfg);
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
        let entry = |name: &str| &matrix.iter().find(|(n, _)| n == name).unwrap().1;
        // The probe-heavy entry runs a 128-entry victim cache on one core.
        assert_eq!(
            *entry("1core-vc128/vc128"),
            RunKey::new(&cfg, &[Mcf], &PolicySpec::victim_cache(128))
        );
        // The io entries time the device-injection path: the same 2-core
        // mix with a leaky-DMA agent, unlimited and way-limited.
        let dma = IoMixConfig::none().agent(IoAgentSpec::dma().period(2));
        let dma_run = RunKey::new(&cfg, &[Mcf, Libquantum], &PolicySpec::baseline());
        assert_eq!(
            *entry("io/2core-dma/baseline"),
            dma_run.clone().io(dma.clone())
        );
        assert_eq!(
            *entry("io/2core-dma-w2/baseline"),
            dma_run.io(dma.inject_ways(2))
        );
        // Every non-io sim entry stays device-free, so bench numbers for
        // the classic entries are comparable against pre-io baselines.
        for (n, job) in &matrix {
            let device_free = *job == job.clone().io(IoMixConfig::none());
            assert_eq!(!device_free, n.contains("io/"), "{n}");
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
        let o = parse(
            "snapshot save",
            &[
                "--mix",
                "lib,sje",
                "--out",
                "warm.tlas",
                "--window",
                "50000",
            ],
        )
        .unwrap();
        assert_eq!(o.out.as_deref(), Some("warm.tlas"));
        // Without the json requirement, a bare --window instruments the
        // checkpoint.
        assert_eq!(o.window, Some(50_000));
        let o = parse("snapshot resume", &["warm.tlas", "--policy", "qbs"]).unwrap();
        assert_eq!(o.arg, "warm.tlas");
        assert_eq!(o.policy.unwrap().name, "QBS");
        let compare = |args: &[&str]| parse("compare", &[&["--mix", "lib,sje"], args].concat());
        let o = compare(&[]).unwrap();
        assert!(!o.warm_start);
        let o = compare(&["--warm-start"]).unwrap();
        assert!(o.warm_start);
        assert!(o.warm_cache.is_none());
        // --warm-cache carries the directory and opts into warm-start.
        let o = compare(&["--warm-cache", "/tmp/warm"]).unwrap();
        assert_eq!(o.warm_cache.as_deref(), Some("/tmp/warm"));
        assert!(o.warm_start, "--warm-cache implies --warm-start");
        assert!(compare(&["--warm-cache"])
            .unwrap_err()
            .contains("warm-cache"));
    }
}
