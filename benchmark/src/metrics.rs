//! Metric definitions and how one workload's measurements are printed.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units and
//! directions (a test keeps the two in step) plus each end-to-end metric's
//! regression bound, which only `compare` reads.

use crate::checks::Checks;
use crate::stats::{Better, Summary};
use std::fmt::Write as _;
use tla::telemetry::json::JsonValue;

/// A metric's fixed description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, e.g. `sim_mips`.
    pub name: &'static str,
    /// Unit, e.g. `Minstr/s`.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics a user of the simulator sees, measured with tracing off.
pub const END_TO_END: [MetricDef; 3] = [
    def("sim_mips", "Minstr/s", Higher),
    def("setup_s", "s", Lower),
    def("peak_rss_mb", "MB", Lower),
];

/// Metrics of single layers, measured by the traced pass.
pub const PER_LAYER: [MetricDef; 36] = [
    def("workloads.gen_ns_per_instr", "ns/instr", Lower),
    def("workloads.instr", "count", Lower),
    def("cpu.step_ns_per_instr", "ns/instr", Lower),
    def("core.access_ns", "ns/access", Lower),
    def("core.accesses", "count", Lower),
    def("core.l1_miss_frac", "fraction", Lower),
    def("core.l2_miss_frac", "fraction", Lower),
    def("core.llc_miss_frac", "fraction", Lower),
    def("core.back_invalidates", "count", Lower),
    def("core.qbs_queries", "count", Lower),
    def("core.qbs_reject_frac", "fraction", Higher),
    def("core.tlh_hints", "count", Lower),
    def("core.eci_invalidates", "count", Lower),
    def("core.eci_rescue_frac", "fraction", Higher),
    def("core.inclusion_victim_misses", "count", Lower),
    def("core.prefetches", "count", Lower),
    def("sim.engine_ns_per_instr", "ns/instr", Lower),
    def("sim.replay_ns_per_instr", "ns/instr", Lower),
    def("sim.oracle_stream_ns_per_ref", "ns/ref", Lower),
    def("sim.oracle_replay_ns_per_ref", "ns/ref", Lower),
    def("sim.oracle_refs", "count", Lower),
    def("sim.oracle_share", "fraction", Lower),
    def("telemetry.overhead_frac", "fraction", Lower),
    def("telemetry.events", "count", Lower),
    def("telemetry.ns_per_event", "ns/event", Lower),
    def("snapshot.checkpoint_s", "s", Lower),
    def("snapshot.bytes", "bytes", Lower),
    def("snapshot.from_bytes_s", "s", Lower),
    def("snapshot.resume_s", "s", Lower),
    def("snapshot.warm_share", "fraction", Lower),
    def("io.injections", "count", Lower),
    def("io.inject_hit_frac", "fraction", Higher),
    def("io.victim_misses", "count", Lower),
    def("io.ns_per_injection", "ns/injection", Lower),
    def("pool.fanout_efficiency", "fraction", Higher),
    def("bench.trace_overhead_frac", "fraction", Lower),
];

/// One metric's samples.
#[derive(Debug, Clone)]
pub struct Measured {
    /// What was measured.
    pub def: &'static MetricDef,
    /// Every sample, in measurement order.
    pub samples: Vec<f64>,
}

impl Measured {
    /// The samples' summary; the reported value is its median.
    pub fn summary(&self) -> Summary {
        Summary::of(&self.samples)
    }
}

/// Everything one benchmark invocation measured for one workload.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Output checks over every run made.
    pub checks: Checks,
    /// The metrics, in table order.
    pub metrics: Vec<Measured>,
    /// Digest of every run's stats in the workload's reference job.
    pub stats_digest: u64,
    /// Chrome trace events of the traced pass (empty when untraced).
    pub trace_events: Vec<JsonValue>,
}

impl Outcome {
    /// Whether every checked run passed.
    pub fn correct(&self) -> bool {
        self.checks.failed() == 0 && self.checks.attempted() > 0
    }

    /// Human-readable lines: `workload metric value unit`, with quartiles
    /// and sample count for repeated measurements, then the digest.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let s = m.summary();
            let _ = write!(
                out,
                "{} {} {} {}",
                self.workload, m.def.name, s.median, m.def.unit
            );
            if s.n > 1 {
                let _ = write!(out, " q1={} q3={} n={}", s.q1, s.q3, s.n);
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "{} sim.stats_digest {:016x} fnv1a64",
            self.workload, self.stats_digest
        );
        out
    }

    /// The one-line result object: correctness, run counts and every
    /// metric's median.
    pub fn result_json(&self) -> JsonValue {
        JsonValue::object([
            ("correct", JsonValue::Bool(self.correct())),
            ("attempted", JsonValue::Int(self.checks.attempted())),
            ("failed", JsonValue::Int(self.checks.failed())),
            (
                "metrics",
                JsonValue::object(self.metrics.iter().map(|m| {
                    (
                        m.def.name,
                        JsonValue::object([
                            ("value", JsonValue::Num(m.summary().median)),
                            ("unit", JsonValue::from(m.def.unit)),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// The full record `run` collects: samples, quartiles, problems,
    /// digest and trace events.
    pub fn detail_json(&self) -> JsonValue {
        let metric = |m: &Measured| {
            let s = m.summary();
            JsonValue::object([
                ("unit", JsonValue::from(m.def.unit)),
                ("median", JsonValue::Num(s.median)),
                ("q1", JsonValue::Num(s.q1)),
                ("q3", JsonValue::Num(s.q3)),
                ("n", JsonValue::Int(s.n as u64)),
                (
                    "samples",
                    JsonValue::array(m.samples.iter().map(|&x| JsonValue::Num(x))),
                ),
            ])
        };
        JsonValue::object([
            ("workload", JsonValue::from(self.workload)),
            ("correct", JsonValue::Bool(self.correct())),
            ("attempted", JsonValue::Int(self.checks.attempted())),
            ("failed", JsonValue::Int(self.checks.failed())),
            (
                "problems",
                JsonValue::array(
                    self.checks
                        .problems()
                        .iter()
                        .map(|p| JsonValue::from(p.as_str())),
                ),
            ),
            (
                "stats_digest",
                JsonValue::from(format!("{:016x}", self.stats_digest).as_str()),
            ),
            (
                "metrics",
                JsonValue::object(self.metrics.iter().map(|m| (m.def.name, metric(m)))),
            ),
            ("trace_events", JsonValue::Arr(self.trace_events.clone())),
        ])
    }
}
