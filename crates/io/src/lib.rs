//! DDIO-style device I/O agents for the TLA simulator.
//!
//! Emerging I/O devices (NICs, accelerators) DMA their payloads straight
//! into the LLC instead of memory — Intel's Data Direct I/O. That traffic
//! never touches the core caches, but it competes for LLC capacity and,
//! under an inclusive hierarchy, its evictions back-invalidate application
//! lines out of the core caches: the same inclusion-victim problem the TLA
//! paper solves, arriving from a new attacker. Real DDIO bounds the damage
//! by restricting injection fills to a small number of LLC ways.
//!
//! This crate defines the *workload side* of that scenario:
//!
//! * [`IoAgentSpec`] — one device agent, either a NIC ring buffer
//!   ([`IoAgentKind::NicRing`]: a bounded circular region with high
//!   short-term reuse) or a leaky-DMA stream
//!   ([`IoAgentKind::DmaStream`]: write-once lines that are never
//!   re-read), described by [`IoAgentSpec::params`] in the workload
//!   generator's terms and generated in closed form by [`IoStream`].
//! * [`IoMixConfig`] — the set of agents plus the hierarchy-level
//!   injection controls (injection-way limit, static app/I-O
//!   way-partitioning) that `tla-core` enforces against its `WayMask`
//!   replacement layer.
//!
//! Agents are scheduled alongside cores in the simulation engine (one
//! injection every [`IoAgentSpec::period`] cycles) and draw their line
//! streams from `tla-rng`-seeded generators, so runs with I/O agents are
//! exactly as deterministic — across engines, probe kernels and job
//! counts — as runs without them.

use tla_rng::SmallRng;
use tla_types::{AccessKind, LineAddr};
use tla_workloads::{
    Instruction, MemRef, PatternKind, SyntheticTrace, TraceSource, WorkloadParams,
};

/// Address-space instance slot of the first I/O agent.
///
/// Core traces occupy instances `0..64` ([`CoreId::MAX_CORES`] bounds the
/// core count); agents start above that, so device lines never collide
/// with any application's working set.
///
/// [`CoreId::MAX_CORES`]: https://docs.rs/tla-types
pub const IO_INSTANCE_BASE: u64 = 64;

/// References a NIC makes to each ring line before its pointer moves on.
const NIC_STAY: u64 = 2;
/// Fraction of a NIC's references that write.
const NIC_WRITE_RATIO: f64 = 0.5;

/// The traffic shape of one I/O agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoAgentKind {
    /// NIC receive/transmit ring: a bounded circular buffer the device
    /// wraps over, touching each descriptor line a couple of times in
    /// short order (high short-term reuse, working set = the ring).
    NicRing,
    /// Leaky DMA: an unbounded write-once stream (bulk transfers whose
    /// payload the CPU consumes from memory much later, or never) — pure
    /// LLC pollution with no reuse at all.
    DmaStream,
}

impl IoAgentKind {
    /// Every kind, in declaration order.
    pub const ALL: [IoAgentKind; 2] = [IoAgentKind::NicRing, IoAgentKind::DmaStream];

    /// Stable machine-readable name (CLI spelling and report column).
    pub const fn name(self) -> &'static str {
        match self {
            IoAgentKind::NicRing => "nic",
            IoAgentKind::DmaStream => "dma",
        }
    }

    /// Inverse of [`IoAgentKind::name`].
    pub fn parse(s: &str) -> Option<IoAgentKind> {
        IoAgentKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// One device agent: a traffic shape plus its intensity knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IoAgentSpec {
    /// The traffic shape.
    pub kind: IoAgentKind,
    /// Cycles between injections (smaller = more intense; the engine
    /// clamps it to at least 1).
    pub period: u64,
    /// Working-set size in lines (the ring size). Ignored by
    /// [`IoAgentKind::DmaStream`], which streams without bound.
    pub lines: u64,
}

impl IoAgentSpec {
    /// A NIC ring agent with default intensity: one injection every 4
    /// cycles over a 512-line (32 KB) ring.
    pub const fn nic() -> IoAgentSpec {
        IoAgentSpec {
            kind: IoAgentKind::NicRing,
            period: 4,
            lines: 512,
        }
    }

    /// A leaky-DMA streaming agent with default intensity: one write-once
    /// line every 4 cycles.
    pub const fn dma() -> IoAgentSpec {
        IoAgentSpec {
            kind: IoAgentKind::DmaStream,
            period: 4,
            lines: 0,
        }
    }

    /// Sets the injection period in cycles.
    #[must_use]
    pub const fn period(mut self, period: u64) -> IoAgentSpec {
        self.period = period;
        self
    }

    /// Sets the working-set size in lines.
    #[must_use]
    pub const fn lines(mut self, lines: u64) -> IoAgentSpec {
        self.lines = lines;
        self
    }

    /// Compact label, e.g. `"nic:4:512"` or `"dma:2"`.
    pub fn label(&self) -> String {
        match self.kind {
            IoAgentKind::NicRing => format!("{}:{}:{}", self.kind.name(), self.period, self.lines),
            IoAgentKind::DmaStream => format!("{}:{}", self.kind.name(), self.period),
        }
    }

    /// Parses `kind[:period[:lines]]` — e.g. `nic`, `dma:2`,
    /// `nic:4:1024`. Omitted fields keep the kind's defaults.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending field.
    pub fn parse(s: &str) -> Result<IoAgentSpec, String> {
        let mut parts = s.split(':');
        let kind = parts.next().unwrap_or_default();
        let mut spec = match IoAgentKind::parse(kind) {
            Some(IoAgentKind::NicRing) => IoAgentSpec::nic(),
            Some(IoAgentKind::DmaStream) => IoAgentSpec::dma(),
            None => {
                return Err(format!(
                    "unknown I/O agent kind {kind:?} (expected one of: nic, dma)"
                ))
            }
        };
        if let Some(p) = parts.next() {
            let period: u64 = p
                .parse()
                .map_err(|_| format!("bad I/O agent period {p:?} in {s:?}"))?;
            if period == 0 {
                return Err(format!("I/O agent period must be positive in {s:?}"));
            }
            spec = spec.period(period);
        }
        if let Some(l) = parts.next() {
            let lines: u64 = l
                .parse()
                .map_err(|_| format!("bad I/O agent line count {l:?} in {s:?}"))?;
            if lines == 0 {
                return Err(format!("I/O agent line count must be positive in {s:?}"));
            }
            spec = spec.lines(lines);
        }
        if parts.next().is_some() {
            return Err(format!(
                "too many fields in I/O agent spec {s:?} (expected kind[:period[:lines]])"
            ));
        }
        Ok(spec)
    }

    /// The statistical trace parameters of this agent at cache scale
    /// divisor `scale` (working sets shrink with the caches, like the
    /// SPEC-like app traces): the definition of the agent's traffic in
    /// the generic generator's terms, which [`IoAgentSpec::stream`]
    /// reproduces in closed form.
    pub fn params(&self, scale: u64) -> WorkloadParams {
        let pattern = match self.kind {
            // Each ring line is touched twice in short order (the device
            // writes the descriptor, then payload completion re-touches
            // it) before the ring pointer moves on.
            IoAgentKind::NicRing => PatternKind::Loop {
                lines: self.ring_lines(scale),
                stay: NIC_STAY,
            },
            IoAgentKind::DmaStream => PatternKind::Stream { stay: 1 },
        };
        WorkloadParams {
            // Minimal code footprint: agents have no instruction side; the
            // engine drops the code line and injects only the data line.
            code_footprint_bytes: 64,
            mem_ratio: 1.0,
            write_ratio: match self.kind {
                IoAgentKind::NicRing => NIC_WRITE_RATIO,
                IoAgentKind::DmaStream => 1.0,
            },
            patterns: vec![(1.0, pattern)],
        }
    }

    /// The NIC ring at cache scale divisor `scale`, in lines.
    fn ring_lines(&self, scale: u64) -> u64 {
        (self.lines / scale.max(1)).max(1)
    }

    /// The deterministic line stream of agent number `index` (0-based
    /// among the run's agents) at the given scale and seed: instruction
    /// for instruction the [`SyntheticTrace`] of [`IoAgentSpec::params`]
    /// in address-space slot `IO_INSTANCE_BASE + index`, generated in
    /// closed form.
    pub fn stream(&self, index: usize, scale: u64, seed: u64) -> IoStream {
        let instance = IO_INSTANCE_BASE + index as u64;
        let shape = match self.kind {
            IoAgentKind::NicRing => Shape::Ring {
                lines: self.ring_lines(scale),
                second: false,
                rng: SyntheticTrace::rng(instance, seed),
                branch_at: SyntheticTrace::branch_threshold(),
                write_at: SmallRng::bernoulli_threshold(NIC_WRITE_RATIO),
            },
            IoAgentKind::DmaStream => Shape::Stream,
        };
        IoStream {
            data_base: SyntheticTrace::data_base(instance),
            code_line: LineAddr::new(SyntheticTrace::code_base(instance)),
            pos: 0,
            shape,
        }
    }
}

/// The line stream of one device agent, in closed form.
///
/// [`IoAgentSpec::params`] describes an agent to the generic generator:
/// a one-line code footprint, a data reference on every instruction and
/// a single pattern. Under those parameters [`SyntheticTrace`] always
/// fetches the same code line and walks its one pattern, so the stream
/// reduces to a line counter:
///
/// * leaky DMA writes line `base + k` at step `k`. Every write draw has
///   probability 1, so no random draw decides anything and none is made;
/// * a NIC visits ring line `k` twice, wrapping at the ring size. Its
///   write bit is the only random output, but per line it makes exactly
///   the generic generator's draws, in its order: the branch draw (and
///   the code line and slot draws when the branch is taken), the pattern
///   draw and the write draw. So every write bit is unchanged.
///
/// Each step is one injection. [`TraceSource`] wraps the same step in an
/// [`Instruction`] for callers that replay agents like traces.
#[derive(Debug, Clone)]
pub struct IoStream {
    data_base: u64,
    code_line: LineAddr,
    /// Line index within the stream or ring.
    pos: u64,
    shape: Shape,
}

#[derive(Debug, Clone)]
enum Shape {
    Stream,
    Ring {
        lines: u64,
        /// Whether the next reference is the line's second.
        second: bool,
        rng: SmallRng,
        branch_at: u64,
        write_at: u64,
    },
}

impl IoStream {
    /// The next injected line and whether it is a write.
    #[inline]
    pub fn next_line(&mut self) -> (LineAddr, bool) {
        let line = LineAddr::new(self.data_base + self.pos);
        match &mut self.shape {
            Shape::Stream => {
                self.pos += 1;
                (line, true)
            }
            Shape::Ring {
                lines,
                second,
                rng,
                branch_at,
                write_at,
            } => {
                if *second {
                    self.pos += 1;
                    if self.pos == *lines {
                        self.pos = 0;
                    }
                }
                *second = !*second;
                if rng.gen_bernoulli(*branch_at) {
                    rng.next_u64();
                    rng.next_u64();
                }
                rng.next_u64();
                (line, rng.gen_bernoulli(*write_at))
            }
        }
    }
}

impl TraceSource for IoStream {
    #[inline]
    fn next_instruction(&mut self) -> Instruction {
        let (addr, write) = self.next_line();
        let kind = if write {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        Instruction {
            code_line: self.code_line,
            mem: Some(MemRef { addr, kind }),
        }
    }
}

/// The I/O side of one simulation run: which agents inject, and how the
/// LLC constrains them.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct IoMixConfig {
    /// The device agents, scheduled alongside the cores.
    pub agents: Vec<IoAgentSpec>,
    /// DDIO-style injection-way limit: device fills may only allocate
    /// (and therefore only evict) in the first `n` ways of each LLC set.
    /// `None` = unlimited (inject anywhere).
    pub inject_ways: Option<usize>,
    /// Static partitioning: when `true`, *app* fills stay out of the
    /// injection ways too, giving each side a private partition.
    /// Meaningless without an injection-way limit.
    pub partition: bool,
}

impl IoMixConfig {
    /// No agents, no limits — the degenerate config whose runs must be
    /// byte-identical to runs without any I/O configuration at all.
    pub fn none() -> IoMixConfig {
        IoMixConfig::default()
    }

    /// Adds an agent.
    #[must_use]
    pub fn agent(mut self, spec: IoAgentSpec) -> IoMixConfig {
        self.agents.push(spec);
        self
    }

    /// Sets the injection-way limit.
    #[must_use]
    pub fn inject_ways(mut self, ways: usize) -> IoMixConfig {
        self.inject_ways = Some(ways);
        self
    }

    /// Enables static app/I-O way-partitioning.
    #[must_use]
    pub fn partition(mut self, on: bool) -> IoMixConfig {
        self.partition = on;
        self
    }

    /// Whether this config changes nothing about a run: no agents to
    /// schedule and no constraint on app victim selection.
    pub fn is_trivial(&self) -> bool {
        self.agents.is_empty() && (self.inject_ways.is_none() || !self.partition)
    }

    /// Compact label for reports, e.g. `"nic:4:512+dma:4/w2p"`.
    pub fn label(&self) -> String {
        let agents: Vec<String> = self.agents.iter().map(IoAgentSpec::label).collect();
        let mut s = if agents.is_empty() {
            "none".to_string()
        } else {
            agents.join("+")
        };
        if let Some(w) = self.inject_ways {
            s.push_str(&format!("/w{w}"));
            if self.partition {
                s.push('p');
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for kind in IoAgentKind::ALL {
            assert_eq!(IoAgentKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(IoAgentKind::parse("ssd"), None);
    }

    #[test]
    fn spec_parse_accepts_defaults_and_overrides() {
        assert_eq!(IoAgentSpec::parse("nic").unwrap(), IoAgentSpec::nic());
        assert_eq!(IoAgentSpec::parse("dma").unwrap(), IoAgentSpec::dma());
        let s = IoAgentSpec::parse("nic:2:1024").unwrap();
        assert_eq!(s.kind, IoAgentKind::NicRing);
        assert_eq!(s.period, 2);
        assert_eq!(s.lines, 1024);
        let s = IoAgentSpec::parse("dma:8").unwrap();
        assert_eq!(s.period, 8);
    }

    #[test]
    fn spec_parse_rejects_bad_input() {
        for bad in ["", "ssd", "nic:x", "nic:0", "nic:4:0", "nic:4:8:9"] {
            let err = IoAgentSpec::parse(bad).unwrap_err();
            assert!(!err.is_empty(), "{bad:?}");
        }
    }

    #[test]
    fn labels_parse_back() {
        for spec in [
            IoAgentSpec::nic(),
            IoAgentSpec::nic().period(2).lines(64),
            IoAgentSpec::dma().period(16),
        ] {
            assert_eq!(IoAgentSpec::parse(&spec.label()).unwrap(), spec);
        }
    }

    #[test]
    fn nic_ring_stays_in_its_ring_and_reuses() {
        let spec = IoAgentSpec::nic().lines(64);
        let mut t = spec.stream(0, 1, 7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let m = t.next_instruction().mem.expect("mem_ratio is 1.0");
            seen.insert(m.addr.raw());
        }
        // Bounded circular region: exactly the ring, wrapped many times.
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn dma_stream_never_reuses() {
        let spec = IoAgentSpec::dma();
        let mut t = spec.stream(0, 1, 7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let m = t.next_instruction().mem.expect("mem_ratio is 1.0");
            assert!(m.kind.is_write(), "leaky DMA is write-once");
            assert!(seen.insert(m.addr.raw()), "stream must not revisit lines");
        }
    }

    #[test]
    fn agents_are_disjoint_from_cores_and_each_other() {
        let mut core = tla_workloads::SpecApp::Libquantum.trace(1, 0, 7);
        let mut a0 = IoAgentSpec::dma().stream(0, 1, 7);
        let mut a1 = IoAgentSpec::dma().stream(1, 1, 7);
        for _ in 0..500 {
            let c = core.next_instruction().mem.map(|m| m.addr);
            let x = a0.next_instruction().mem.unwrap().addr;
            let y = a1.next_instruction().mem.unwrap().addr;
            assert_ne!(x, y);
            if let Some(c) = c {
                assert_ne!(c, x);
                assert_ne!(c, y);
            }
        }
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let spec = IoAgentSpec::nic();
        let mut a = spec.stream(0, 2, 42);
        let mut b = spec.stream(0, 2, 42);
        for _ in 0..200 {
            assert_eq!(a.next_instruction(), b.next_instruction());
        }
    }

    /// The closed form against the generic generator it replaces: the
    /// same instructions, write bits included, for both kinds over
    /// several periods, ring sizes (a one-line ring, rings that divide
    /// by the scale and one that does not), scales and agent slots.
    #[test]
    fn closed_form_streams_match_the_generic_generator() {
        let specs = [
            IoAgentSpec::nic(),
            IoAgentSpec::nic().period(1).lines(1),
            IoAgentSpec::nic().period(3).lines(100),
            IoAgentSpec::nic().period(2).lines(4096),
            IoAgentSpec::dma(),
            IoAgentSpec::dma().period(7),
        ];
        for spec in specs {
            for scale in [1, 8] {
                for index in 0..3 {
                    let seed = 0x5EED + index as u64;
                    let mut closed = spec.stream(index, scale, seed);
                    let mut generic = SyntheticTrace::new(
                        &spec.params(scale),
                        IO_INSTANCE_BASE + index as u64,
                        seed,
                    );
                    for step in 0..200_000 {
                        assert_eq!(
                            closed.next_instruction(),
                            generic.next_instruction(),
                            "{} at scale {scale}, agent {index}, step {step}",
                            spec.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mix_config_trivial_and_label() {
        assert!(IoMixConfig::none().is_trivial());
        // A bare way limit without partitioning constrains only device
        // fills, of which there are none: still trivial.
        assert!(IoMixConfig::none().inject_ways(2).is_trivial());
        assert!(!IoMixConfig::none()
            .inject_ways(2)
            .partition(true)
            .is_trivial());
        assert!(!IoMixConfig::none().agent(IoAgentSpec::dma()).is_trivial());
        let cfg = IoMixConfig::none()
            .agent(IoAgentSpec::nic())
            .agent(IoAgentSpec::dma().period(2))
            .inject_ways(2)
            .partition(true);
        assert_eq!(cfg.label(), "nic:4:512+dma:2/w2p");
        assert_eq!(IoMixConfig::none().label(), "none");
    }
}
