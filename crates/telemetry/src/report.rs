//! Machine-readable run reports.
//!
//! A [`RunReport`] bundles everything one simulation run produced —
//! config echo, per-thread and global counters, the windowed time series
//! and per-set histograms — into a single value with a stable JSON
//! encoding, so benches and CI can diff runs instead of scraping tables.
//! Encoding and parsing use the bundled [`crate::json`] layer and
//! round-trip exactly ([`RunReport::to_json`] → [`RunReport::from_json`]
//! is the identity).

use crate::event::EventKind;
use crate::histogram::PerSetHistogram;
use crate::json::{JsonError, JsonValue};
use crate::reuse::{ReuseHistogram, ReuseProfiler};
use crate::window::Window;
use std::fmt;
use tla_types::counters::victim_rate;
use tla_types::{GlobalStats, IoAgentStats, IoStats, PerCoreStats};

/// Version stamp written into every report; bump on breaking schema
/// changes so downstream tooling can detect them.
///
/// v2: miss-classification counters (`misses_cold` / `misses_capacity` /
/// `misses_inclusion_victim`) joined the per-core stats, victim-cause
/// counters joined the global stats, and reports may carry optional
/// gap-to-optimal (`opt_misses`, `gap_to_opt`, `inclusion_victim_rate`),
/// reuse-distance (`reuse`) and device-injection (`io`) payloads (the
/// `io` block is a v2-compatible optional addition: reports without
/// device agents encode byte-identically to pre-`io` builds).
pub const SCHEMA_VERSION: u64 = 2;

/// Ordered key → value echo of the configuration a run used.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConfigEcho {
    entries: Vec<(String, JsonValue)>,
}

impl ConfigEcho {
    /// An empty echo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one entry (replacing any existing entry with the key).
    pub fn set(&mut self, key: &str, value: impl Into<JsonValue>) {
        let value = value.into();
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.entries.push((key.to_string(), value));
        }
    }

    /// Builder-style [`ConfigEcho::set`].
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<JsonValue>) -> Self {
        self.set(key, value);
        self
    }

    /// Looks up an entry.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// All entries in insertion order.
    pub fn entries(&self) -> &[(String, JsonValue)] {
        &self.entries
    }
}

/// Final statistics of one thread of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadReport {
    /// Workload name (e.g. `"libquantum"`).
    pub app: String,
    /// Instructions committed in the measured phase.
    pub instructions: u64,
    /// Cycles the measured phase took.
    pub cycles: u64,
    /// Demand-access counters over the measured phase.
    pub stats: PerCoreStats,
}

impl ThreadReport {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// Per-set histogram payload of a report (a plain snapshot of a
/// [`PerSetHistogram`], without its reservoir bookkeeping).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SetHistogramReport {
    /// LLC evictions per set.
    pub evictions: Vec<u32>,
    /// Inclusion victims (back-invalidates) per set.
    pub inclusion_victims: Vec<u32>,
}

impl SetHistogramReport {
    /// Refills this report from `h`, reusing the existing vector capacity
    /// (the scratch-buffer form of `SetHistogramReport::from`).
    pub fn refill(&mut self, h: &PerSetHistogram) {
        self.evictions.clear();
        self.evictions.extend_from_slice(h.evictions());
        self.inclusion_victims.clear();
        self.inclusion_victims
            .extend_from_slice(h.inclusion_victims());
    }
}

impl From<&PerSetHistogram> for SetHistogramReport {
    fn from(h: &PerSetHistogram) -> Self {
        let mut report = SetHistogramReport::default();
        report.refill(h);
        report
    }
}

/// Reuse-distance payload of a report: the profiler's global histogram
/// plus one histogram per sampled LLC set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReuseReport {
    /// The set-sampling stride the profiler used.
    pub sample_every: u32,
    /// Aggregate over every sampled set.
    pub global: ReuseHistogram,
    /// `(set index, histogram)` per sampled set, ascending.
    pub per_set: Vec<(u32, ReuseHistogram)>,
}

impl From<&ReuseProfiler> for ReuseReport {
    fn from(p: &ReuseProfiler) -> Self {
        ReuseReport {
            sample_every: p.sample_every(),
            global: p.global().clone(),
            per_set: p.per_set().map(|(s, h)| (s, h.clone())).collect(),
        }
    }
}

fn reuse_to_json(r: &ReuseReport) -> JsonValue {
    JsonValue::object([
        ("sample_every", JsonValue::from(r.sample_every)),
        ("global", r.global.to_json()),
        (
            "per_set",
            JsonValue::array(r.per_set.iter().map(|(set, h)| {
                let mut obj = vec![("set".to_string(), JsonValue::from(*set))];
                if let JsonValue::Obj(pairs) = h.to_json() {
                    obj.extend(pairs);
                }
                JsonValue::Obj(obj)
            })),
        ),
    ])
}

fn reuse_from_json(v: &JsonValue) -> Result<ReuseReport, ReportError> {
    let sample_every = field_u64(v, "sample_every")?;
    if sample_every == 0 || sample_every > u32::MAX as u64 {
        return Err(ReportError::new("bad 'sample_every'"));
    }
    let global = ReuseHistogram::from_json(field(v, "global")?)
        .ok_or_else(|| ReportError::new("bad 'global' reuse histogram"))?;
    let per_set = field(v, "per_set")?
        .as_array()
        .ok_or_else(|| ReportError::new("'per_set' is not an array"))?
        .iter()
        .map(|e| {
            let set = field_u64(e, "set")?;
            if set > u32::MAX as u64 {
                return Err(ReportError::new("bad per-set 'set' index"));
            }
            let h = ReuseHistogram::from_json(e)
                .ok_or_else(|| ReportError::new("bad per-set reuse histogram"))?;
            Ok((set as u32, h))
        })
        .collect::<Result<Vec<_>, ReportError>>()?;
    Ok(ReuseReport {
        sample_every: sample_every as u32,
        global,
        per_set,
    })
}

/// Device-injection payload of a report: the aggregate DDIO-style
/// injection counters plus one labelled counter block per I/O agent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoReport {
    /// Aggregate injection counters across all agents.
    pub stats: IoStats,
    /// `(agent label, counters)` in agent order, e.g. `("nic:4:512", …)`.
    pub agents: Vec<(String, IoAgentStats)>,
}

fn io_to_json(r: &IoReport) -> JsonValue {
    JsonValue::object([
        (
            "stats",
            JsonValue::object(
                IO_FIELDS
                    .iter()
                    .map(|(name, get, _)| (*name, JsonValue::from(get(&r.stats)))),
            ),
        ),
        (
            "agents",
            JsonValue::array(r.agents.iter().map(|(label, s)| {
                let mut obj = vec![("agent".to_string(), JsonValue::from(label.as_str()))];
                obj.extend(
                    IO_AGENT_FIELDS
                        .iter()
                        .map(|(name, get, _)| (name.to_string(), JsonValue::from(get(s)))),
                );
                JsonValue::Obj(obj)
            })),
        ),
    ])
}

fn io_from_json(v: &JsonValue) -> Result<IoReport, ReportError> {
    let stats_v = field(v, "stats")?;
    let mut stats = IoStats::default();
    for (name, _, get_mut) in &IO_FIELDS {
        *get_mut(&mut stats) = field_u64(stats_v, name)?;
    }
    let agents = field(v, "agents")?
        .as_array()
        .ok_or_else(|| ReportError::new("'agents' is not an array"))?
        .iter()
        .map(|a| {
            let label = field_str(a, "agent")?;
            let mut s = IoAgentStats::default();
            for (name, _, get_mut) in &IO_AGENT_FIELDS {
                *get_mut(&mut s) = field_u64(a, name)?;
            }
            Ok((label, s))
        })
        .collect::<Result<Vec<_>, ReportError>>()?;
    Ok(IoReport { stats, agents })
}

/// Everything one run produced, ready to serialize.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Mix label, e.g. `"lib+sje"`.
    pub mix: String,
    /// Policy label, e.g. `"QBS"`.
    pub policy: String,
    /// Echo of the configuration the run used.
    pub config: ConfigEcho,
    /// One entry per thread, in core order.
    pub threads: Vec<ThreadReport>,
    /// Whole-hierarchy counters over the measured phase.
    pub global: GlobalStats,
    /// Total telemetry events per kind (only kinds that fired).
    pub event_totals: Vec<(EventKind, u64)>,
    /// Window size in instructions, when a time series was collected.
    pub window_size: Option<u64>,
    /// Windowed counter deltas, oldest first.
    pub windows: Vec<Window>,
    /// Per-set histograms, when collected.
    pub set_histogram: Option<SetHistogramReport>,
    /// Belady MIN oracle miss count for this mix/config, when computed.
    pub opt_misses: Option<u64>,
    /// `(llc_misses - opt_misses) / opt_misses`, when the oracle ran.
    pub gap_to_opt: Option<f64>,
    /// Fraction of core-cache misses classified as inclusion-victim
    /// misses, when attribution was summarized into the report.
    pub inclusion_victim_rate: Option<f64>,
    /// Reuse-distance histograms, when the profiler was attached.
    pub reuse: Option<ReuseReport>,
    /// Device-injection counters, when I/O agents were configured.
    pub io: Option<IoReport>,
}

impl RunReport {
    /// Sum of thread throughputs (IPCs).
    pub fn throughput(&self) -> f64 {
        self.threads.iter().map(|t| t.ipc()).sum()
    }

    /// Fraction of L2 demand misses the attribution hooks classified as
    /// inclusion-victim misses, computed from the per-thread counters
    /// (the measured value behind the `inclusion_victim_rate` field).
    pub fn measured_victim_rate(&self) -> f64 {
        victim_rate(self.threads.iter().map(|t| &t.stats))
    }

    /// Encodes the report as a JSON tree.
    pub fn to_json(&self) -> JsonValue {
        let mut top = vec![
            (
                "schema_version".to_string(),
                JsonValue::from(SCHEMA_VERSION),
            ),
            ("mix".to_string(), JsonValue::from(self.mix.as_str())),
            ("policy".to_string(), JsonValue::from(self.policy.as_str())),
            (
                "config".to_string(),
                JsonValue::Obj(self.config.entries().to_vec()),
            ),
            (
                "threads".to_string(),
                JsonValue::array(self.threads.iter().map(|t| {
                    JsonValue::object([
                        ("app", JsonValue::from(t.app.as_str())),
                        ("instructions", JsonValue::from(t.instructions)),
                        ("cycles", JsonValue::from(t.cycles)),
                        ("ipc", JsonValue::from(t.ipc())),
                        ("stats", per_core_to_json(&t.stats)),
                    ])
                })),
            ),
            ("global".to_string(), global_to_json(&self.global)),
            (
                "event_totals".to_string(),
                JsonValue::object(
                    self.event_totals
                        .iter()
                        .map(|(k, n)| (k.name(), JsonValue::from(*n))),
                ),
            ),
        ];
        if let Some(size) = self.window_size {
            top.push(("window_size".to_string(), JsonValue::from(size)));
        }
        top.push((
            "windows".to_string(),
            JsonValue::array(self.windows.iter().map(window_to_json)),
        ));
        if let Some(h) = &self.set_histogram {
            top.push((
                "set_histogram".to_string(),
                JsonValue::object([
                    ("sets", JsonValue::from(h.evictions.len())),
                    (
                        "evictions",
                        JsonValue::array(h.evictions.iter().map(|&c| JsonValue::from(c))),
                    ),
                    (
                        "inclusion_victims",
                        JsonValue::array(h.inclusion_victims.iter().map(|&c| JsonValue::from(c))),
                    ),
                ]),
            ));
        }
        if let Some(n) = self.opt_misses {
            top.push(("opt_misses".to_string(), JsonValue::from(n)));
        }
        if let Some(g) = self.gap_to_opt {
            top.push(("gap_to_opt".to_string(), JsonValue::from(g)));
        }
        if let Some(r) = self.inclusion_victim_rate {
            top.push(("inclusion_victim_rate".to_string(), JsonValue::from(r)));
        }
        if let Some(r) = &self.reuse {
            top.push(("reuse".to_string(), reuse_to_json(r)));
        }
        if let Some(io) = &self.io {
            top.push(("io".to_string(), io_to_json(io)));
        }
        JsonValue::Obj(top)
    }

    /// Pretty-printed JSON document.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty()
    }

    /// Decodes a report from a JSON tree produced by
    /// [`RunReport::to_json`]. Derived fields (`ipc`, per-window rates)
    /// are ignored; unknown keys are ignored for forward compatibility.
    pub fn from_json(v: &JsonValue) -> Result<RunReport, ReportError> {
        let version = field_u64(v, "schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(ReportError::new(format!(
                "unsupported schema version {version} (expected {SCHEMA_VERSION})"
            )));
        }
        let threads = field(v, "threads")?
            .as_array()
            .ok_or_else(|| ReportError::new("'threads' is not an array"))?
            .iter()
            .map(|t| {
                Ok(ThreadReport {
                    app: field_str(t, "app")?,
                    instructions: field_u64(t, "instructions")?,
                    cycles: field_u64(t, "cycles")?,
                    stats: per_core_from_json(field(t, "stats")?)?,
                })
            })
            .collect::<Result<Vec<_>, ReportError>>()?;
        let event_totals = match field(v, "event_totals")? {
            JsonValue::Obj(pairs) => pairs
                .iter()
                .map(|(name, count)| {
                    let kind = EventKind::from_name(name)
                        .ok_or_else(|| ReportError::new(format!("unknown event kind '{name}'")))?;
                    let count = count
                        .as_u64()
                        .ok_or_else(|| ReportError::new(format!("bad count for '{name}'")))?;
                    Ok((kind, count))
                })
                .collect::<Result<Vec<_>, ReportError>>()?,
            _ => return Err(ReportError::new("'event_totals' is not an object")),
        };
        let windows = field(v, "windows")?
            .as_array()
            .ok_or_else(|| ReportError::new("'windows' is not an array"))?
            .iter()
            .map(window_from_json)
            .collect::<Result<Vec<_>, ReportError>>()?;
        let set_histogram = match v.get("set_histogram") {
            None => None,
            Some(h) => Some(SetHistogramReport {
                evictions: u32_array(field(h, "evictions")?)?,
                inclusion_victims: u32_array(field(h, "inclusion_victims")?)?,
            }),
        };
        Ok(RunReport {
            mix: field_str(v, "mix")?,
            policy: field_str(v, "policy")?,
            config: ConfigEcho {
                entries: match field(v, "config")? {
                    JsonValue::Obj(pairs) => pairs.clone(),
                    _ => return Err(ReportError::new("'config' is not an object")),
                },
            },
            threads,
            global: global_from_json(field(v, "global")?)?,
            event_totals,
            window_size: match v.get("window_size") {
                None => None,
                Some(s) => Some(
                    s.as_u64()
                        .ok_or_else(|| ReportError::new("bad 'window_size'"))?,
                ),
            },
            windows,
            set_histogram,
            opt_misses: match v.get("opt_misses") {
                None => None,
                Some(n) => Some(
                    n.as_u64()
                        .ok_or_else(|| ReportError::new("bad 'opt_misses'"))?,
                ),
            },
            gap_to_opt: match v.get("gap_to_opt") {
                None => None,
                Some(g) => Some(
                    g.as_f64()
                        .ok_or_else(|| ReportError::new("bad 'gap_to_opt'"))?,
                ),
            },
            inclusion_victim_rate: match v.get("inclusion_victim_rate") {
                None => None,
                Some(r) => Some(
                    r.as_f64()
                        .ok_or_else(|| ReportError::new("bad 'inclusion_victim_rate'"))?,
                ),
            },
            reuse: match v.get("reuse") {
                None => None,
                Some(r) => Some(reuse_from_json(r)?),
            },
            io: match v.get("io") {
                None => None,
                Some(io) => Some(io_from_json(io)?),
            },
        })
    }

    /// Parses a JSON document produced by [`RunReport::to_json_string`].
    pub fn parse(text: &str) -> Result<RunReport, ReportError> {
        RunReport::from_json(&JsonValue::parse(text)?)
    }
}

/// A report encode/decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportError {
    message: String,
}

impl ReportError {
    fn new(message: impl Into<String>) -> Self {
        ReportError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "run report error: {}", self.message)
    }
}

impl std::error::Error for ReportError {}

impl From<JsonError> for ReportError {
    fn from(e: JsonError) -> Self {
        ReportError::new(e.to_string())
    }
}

fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, ReportError> {
    v.get(key)
        .ok_or_else(|| ReportError::new(format!("missing field '{key}'")))
}

fn field_u64(v: &JsonValue, key: &str) -> Result<u64, ReportError> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| ReportError::new(format!("field '{key}' is not an integer")))
}

fn field_str(v: &JsonValue, key: &str) -> Result<String, ReportError> {
    Ok(field(v, key)?
        .as_str()
        .ok_or_else(|| ReportError::new(format!("field '{key}' is not a string")))?
        .to_string())
}

fn u32_array(v: &JsonValue) -> Result<Vec<u32>, ReportError> {
    v.as_array()
        .ok_or_else(|| ReportError::new("expected an array"))?
        .iter()
        .map(|x| {
            x.as_u64()
                .filter(|&n| n <= u32::MAX as u64)
                .map(|n| n as u32)
                .ok_or_else(|| ReportError::new("array element is not a u32"))
        })
        .collect()
}

/// A named counter field of `S`: `(name, getter, mut-getter)`.
type FieldTable<S, const N: usize> = [(&'static str, fn(&S) -> u64, fn(&mut S) -> &mut u64); N];

/// `(name, getter)` pairs for every [`PerCoreStats`] field, keeping the
/// JSON encoding and decoding in lockstep.
const PER_CORE_FIELDS: FieldTable<PerCoreStats, 15> = [
    ("l1i_accesses", |s| s.l1i_accesses, |s| &mut s.l1i_accesses),
    ("l1i_misses", |s| s.l1i_misses, |s| &mut s.l1i_misses),
    ("l1d_accesses", |s| s.l1d_accesses, |s| &mut s.l1d_accesses),
    ("l1d_misses", |s| s.l1d_misses, |s| &mut s.l1d_misses),
    ("l2_accesses", |s| s.l2_accesses, |s| &mut s.l2_accesses),
    ("l2_misses", |s| s.l2_misses, |s| &mut s.l2_misses),
    ("llc_accesses", |s| s.llc_accesses, |s| &mut s.llc_accesses),
    ("llc_misses", |s| s.llc_misses, |s| &mut s.llc_misses),
    (
        "memory_accesses",
        |s| s.memory_accesses,
        |s| &mut s.memory_accesses,
    ),
    (
        "inclusion_victims_l1",
        |s| s.inclusion_victims_l1,
        |s| &mut s.inclusion_victims_l1,
    ),
    (
        "inclusion_victims_l2",
        |s| s.inclusion_victims_l2,
        |s| &mut s.inclusion_victims_l2,
    ),
    ("tlh_hints", |s| s.tlh_hints, |s| &mut s.tlh_hints),
    ("misses_cold", |s| s.misses_cold, |s| &mut s.misses_cold),
    (
        "misses_capacity",
        |s| s.misses_capacity,
        |s| &mut s.misses_capacity,
    ),
    (
        "misses_inclusion_victim",
        |s| s.misses_inclusion_victim,
        |s| &mut s.misses_inclusion_victim,
    ),
];

/// Same for [`GlobalStats`].
const GLOBAL_FIELDS: FieldTable<GlobalStats, 16> = [
    (
        "llc_evictions",
        |s| s.llc_evictions,
        |s| &mut s.llc_evictions,
    ),
    (
        "llc_writebacks",
        |s| s.llc_writebacks,
        |s| &mut s.llc_writebacks,
    ),
    (
        "back_invalidates",
        |s| s.back_invalidates,
        |s| &mut s.back_invalidates,
    ),
    (
        "eci_invalidates",
        |s| s.eci_invalidates,
        |s| &mut s.eci_invalidates,
    ),
    ("eci_rescues", |s| s.eci_rescues, |s| &mut s.eci_rescues),
    ("qbs_queries", |s| s.qbs_queries, |s| &mut s.qbs_queries),
    (
        "qbs_rejections",
        |s| s.qbs_rejections,
        |s| &mut s.qbs_rejections,
    ),
    (
        "qbs_limit_hits",
        |s| s.qbs_limit_hits,
        |s| &mut s.qbs_limit_hits,
    ),
    ("tlh_hints", |s| s.tlh_hints, |s| &mut s.tlh_hints),
    ("prefetches", |s| s.prefetches, |s| &mut s.prefetches),
    (
        "victim_cache_rescues",
        |s| s.victim_cache_rescues,
        |s| &mut s.victim_cache_rescues,
    ),
    ("snoop_probes", |s| s.snoop_probes, |s| &mut s.snoop_probes),
    (
        "victim_misses_replacement",
        |s| s.victim_misses_replacement,
        |s| &mut s.victim_misses_replacement,
    ),
    (
        "victim_misses_qbs_limit",
        |s| s.victim_misses_qbs_limit,
        |s| &mut s.victim_misses_qbs_limit,
    ),
    (
        "victim_misses_eci",
        |s| s.victim_misses_eci,
        |s| &mut s.victim_misses_eci,
    ),
    (
        "victim_misses_vc",
        |s| s.victim_misses_vc,
        |s| &mut s.victim_misses_vc,
    ),
];

/// Same for the aggregate [`IoStats`] block of an [`IoReport`].
const IO_FIELDS: FieldTable<IoStats, 7> = [
    ("injections", |s| s.injections, |s| &mut s.injections),
    ("inject_hits", |s| s.inject_hits, |s| &mut s.inject_hits),
    ("inject_fills", |s| s.inject_fills, |s| &mut s.inject_fills),
    (
        "llc_evictions",
        |s| s.llc_evictions,
        |s| &mut s.llc_evictions,
    ),
    (
        "back_invalidates",
        |s| s.back_invalidates,
        |s| &mut s.back_invalidates,
    ),
    ("writebacks", |s| s.writebacks, |s| &mut s.writebacks),
    (
        "victim_misses_io",
        |s| s.victim_misses_io,
        |s| &mut s.victim_misses_io,
    ),
];

/// Same for the per-agent [`IoAgentStats`] blocks.
const IO_AGENT_FIELDS: FieldTable<IoAgentStats, 4> = [
    ("injections", |s| s.injections, |s| &mut s.injections),
    ("hits", |s| s.hits, |s| &mut s.hits),
    ("fills", |s| s.fills, |s| &mut s.fills),
    ("evictions", |s| s.evictions, |s| &mut s.evictions),
];

fn per_core_to_json(s: &PerCoreStats) -> JsonValue {
    JsonValue::object(
        PER_CORE_FIELDS
            .iter()
            .map(|(name, get, _)| (*name, JsonValue::from(get(s)))),
    )
}

fn per_core_from_json(v: &JsonValue) -> Result<PerCoreStats, ReportError> {
    let mut s = PerCoreStats::default();
    for (name, _, get_mut) in &PER_CORE_FIELDS {
        *get_mut(&mut s) = field_u64(v, name)?;
    }
    Ok(s)
}

fn global_to_json(s: &GlobalStats) -> JsonValue {
    JsonValue::object(
        GLOBAL_FIELDS
            .iter()
            .map(|(name, get, _)| (*name, JsonValue::from(get(s)))),
    )
}

fn global_from_json(v: &JsonValue) -> Result<GlobalStats, ReportError> {
    let mut s = GlobalStats::default();
    for (name, _, get_mut) in &GLOBAL_FIELDS {
        *get_mut(&mut s) = field_u64(v, name)?;
    }
    Ok(s)
}

fn window_to_json(w: &Window) -> JsonValue {
    JsonValue::object([
        ("index", JsonValue::from(w.index)),
        ("start_instr", JsonValue::from(w.start_instr)),
        ("end_instr", JsonValue::from(w.end_instr)),
        // Derived rates, for plotting without recomputation.
        ("llc_mpki", JsonValue::from(w.llc_mpki())),
        (
            "inclusion_victim_rate",
            JsonValue::from(w.inclusion_victim_rate()),
        ),
        (
            "qbs_rejection_rate",
            JsonValue::from(w.qbs_rejection_rate()),
        ),
        (
            "per_core",
            JsonValue::array(w.per_core.iter().map(per_core_to_json)),
        ),
        ("global", global_to_json(&w.global)),
    ])
}

fn window_from_json(v: &JsonValue) -> Result<Window, ReportError> {
    Ok(Window {
        index: field_u64(v, "index")? as usize,
        start_instr: field_u64(v, "start_instr")?,
        end_instr: field_u64(v, "end_instr")?,
        per_core: field(v, "per_core")?
            .as_array()
            .ok_or_else(|| ReportError::new("'per_core' is not an array"))?
            .iter()
            .map(per_core_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        global: global_from_json(field(v, "global")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        let stats = PerCoreStats {
            l1i_accesses: 100,
            l1d_accesses: 50,
            llc_accesses: 20,
            llc_misses: 7,
            inclusion_victims_l1: 2,
            tlh_hints: 1,
            ..Default::default()
        };
        let global = GlobalStats {
            llc_evictions: 9,
            back_invalidates: 4,
            qbs_queries: 6,
            qbs_rejections: 2,
            ..Default::default()
        };
        RunReport {
            mix: "lib+sje".to_string(),
            policy: "QBS".to_string(),
            config: ConfigEcho::new()
                .with("scale", 8u64)
                .with("instructions", 40_000u64)
                .with("prefetch", true)
                .with("note", "test"),
            threads: vec![
                ThreadReport {
                    app: "libquantum".to_string(),
                    instructions: 40_000,
                    cycles: 90_000,
                    stats,
                },
                ThreadReport {
                    app: "sjeng".to_string(),
                    instructions: 40_000,
                    cycles: 50_000,
                    stats: PerCoreStats::default(),
                },
            ],
            global,
            event_totals: vec![(EventKind::LlcEviction, 9), (EventKind::QbsQuery, 6)],
            window_size: Some(10_000),
            windows: vec![
                Window {
                    index: 0,
                    start_instr: 0,
                    end_instr: 10_000,
                    per_core: vec![stats, PerCoreStats::default()],
                    global,
                },
                Window {
                    index: 1,
                    start_instr: 10_000,
                    end_instr: 20_000,
                    per_core: vec![PerCoreStats::default(), stats],
                    global: GlobalStats::default(),
                },
            ],
            set_histogram: Some(SetHistogramReport {
                evictions: vec![3, 0, 6, 0],
                inclusion_victims: vec![1, 0, 3, 0],
            }),
            opt_misses: None,
            gap_to_opt: None,
            inclusion_victim_rate: None,
            reuse: None,
            io: None,
        }
    }

    #[test]
    fn json_round_trip_is_identity() {
        let report = sample_report();
        let text = report.to_json_string();
        let back = RunReport::parse(&text).unwrap();
        assert_eq!(report, back);
        // And a second trip through the compact encoding.
        let compact = report.to_json().to_string();
        assert_eq!(RunReport::parse(&compact).unwrap(), report);
    }

    #[test]
    fn round_trip_without_optionals() {
        let mut report = sample_report();
        report.window_size = None;
        report.windows.clear();
        report.set_histogram = None;
        report.event_totals.clear();
        let back = RunReport::parse(&report.to_json_string()).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn report_exposes_expected_json_shape() {
        let v = sample_report().to_json();
        assert_eq!(v.get("schema_version").and_then(|x| x.as_u64()), Some(2));
        assert_eq!(v.get("policy").and_then(|x| x.as_str()), Some("QBS"));
        assert_eq!(
            v.get("config")
                .and_then(|c| c.get("scale"))
                .and_then(|x| x.as_u64()),
            Some(8)
        );
        let windows = v.get("windows").and_then(|w| w.as_array()).unwrap();
        assert_eq!(windows.len(), 2);
        assert!(windows[0]
            .get("llc_mpki")
            .and_then(|x| x.as_f64())
            .is_some());
        let hist = v.get("set_histogram").unwrap();
        assert_eq!(hist.get("sets").and_then(|x| x.as_u64()), Some(4));
        assert_eq!(
            v.get("event_totals")
                .and_then(|t| t.get("llc_eviction"))
                .and_then(|x| x.as_u64()),
            Some(9)
        );
    }

    #[test]
    fn analytics_fields_round_trip() {
        let mut report = sample_report();
        report.opt_misses = Some(5);
        report.gap_to_opt = Some(0.4);
        report.inclusion_victim_rate = Some(0.125);
        let mut global = ReuseHistogram::new(8);
        global.record(3);
        global.record_cold();
        let mut set_hist = ReuseHistogram::new(8);
        set_hist.record(3);
        report.reuse = Some(ReuseReport {
            sample_every: 4,
            global,
            per_set: vec![(0, set_hist), (4, ReuseHistogram::new(8))],
        });
        let back = RunReport::parse(&report.to_json_string()).unwrap();
        assert_eq!(report, back);
        let v = report.to_json();
        assert_eq!(v.get("opt_misses").and_then(|x| x.as_u64()), Some(5));
        assert_eq!(v.get("gap_to_opt").and_then(|x| x.as_f64()), Some(0.4));
        let reuse = v.get("reuse").unwrap();
        assert_eq!(reuse.get("sample_every").and_then(|x| x.as_u64()), Some(4));
        assert_eq!(
            reuse
                .get("per_set")
                .and_then(|p| p.as_array())
                .map(|a| a.len()),
            Some(2)
        );
    }

    #[test]
    fn io_payload_round_trips() {
        let mut report = sample_report();
        report.io = Some(IoReport {
            stats: IoStats {
                injections: 100,
                inject_hits: 40,
                inject_fills: 60,
                llc_evictions: 55,
                back_invalidates: 9,
                writebacks: 30,
                victim_misses_io: 7,
            },
            agents: vec![
                (
                    "nic:4:512".to_string(),
                    IoAgentStats {
                        injections: 60,
                        hits: 40,
                        fills: 20,
                        evictions: 15,
                    },
                ),
                (
                    "dma:4".to_string(),
                    IoAgentStats {
                        injections: 40,
                        hits: 0,
                        fills: 40,
                        evictions: 40,
                    },
                ),
            ],
        });
        let back = RunReport::parse(&report.to_json_string()).unwrap();
        assert_eq!(report, back);
        let v = report.to_json();
        let io = v.get("io").unwrap();
        assert_eq!(
            io.get("stats")
                .and_then(|s| s.get("victim_misses_io"))
                .and_then(|x| x.as_u64()),
            Some(7)
        );
        let agents = io.get("agents").and_then(|a| a.as_array()).unwrap();
        assert_eq!(agents.len(), 2);
        assert_eq!(
            agents[0].get("agent").and_then(|x| x.as_str()),
            Some("nic:4:512")
        );
        // Without io the encoding is byte-identical to a pre-io report
        // (the differential-golden guarantee).
        let mut plain = sample_report();
        plain.io = None;
        assert!(plain.to_json_string() == sample_report().to_json_string());
    }

    #[test]
    fn measured_victim_rate_sums_threads() {
        let mut report = sample_report();
        report.threads[0].stats.l2_misses = 6;
        report.threads[0].stats.misses_inclusion_victim = 3;
        report.threads[1].stats.l2_misses = 2;
        assert!((report.measured_victim_rate() - 3.0 / 8.0).abs() < 1e-12);
        report.threads[0].stats.l2_misses = 0;
        report.threads[1].stats.l2_misses = 0;
        assert_eq!(report.measured_victim_rate(), 0.0);
    }

    #[test]
    fn thread_ipc() {
        let t = ThreadReport {
            app: "x".to_string(),
            instructions: 100,
            cycles: 50,
            stats: PerCoreStats::default(),
        };
        assert!((t.ipc() - 2.0).abs() < 1e-12);
        let z = ThreadReport { cycles: 0, ..t };
        assert_eq!(z.ipc(), 0.0);
        let r = sample_report();
        assert!(r.throughput() > 0.0);
    }

    #[test]
    fn bad_documents_are_rejected() {
        assert!(RunReport::parse("not json").is_err());
        assert!(RunReport::parse("{}").is_err());
        // Nesting a million levels deep is an error, not a stack overflow.
        assert!(RunReport::parse(&"[".repeat(1_000_000)).is_err());
        // Wrong schema version.
        let mut v = sample_report().to_json();
        if let JsonValue::Obj(pairs) = &mut v {
            pairs[0].1 = JsonValue::from(99u64);
        }
        let err = RunReport::from_json(&v).unwrap_err();
        assert!(err.to_string().contains("schema version"));
        // Unknown event kind.
        let mut v = sample_report().to_json();
        if let JsonValue::Obj(pairs) = &mut v {
            for (k, val) in pairs.iter_mut() {
                if k == "event_totals" {
                    *val = JsonValue::object([("bogus", JsonValue::from(1u64))]);
                }
            }
        }
        assert!(RunReport::from_json(&v).is_err());
    }

    #[test]
    fn config_echo_replaces_duplicates() {
        let mut echo = ConfigEcho::new();
        echo.set("k", 1u64);
        echo.set("k", 2u64);
        assert_eq!(echo.entries().len(), 1);
        assert_eq!(echo.get("k").and_then(|v| v.as_u64()), Some(2));
        assert!(echo.get("missing").is_none());
    }
}
