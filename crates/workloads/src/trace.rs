//! Streaming instruction-trace generation.

use tla_rng::SmallRng;
use tla_snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use tla_types::{AccessKind, LineAddr, LINE_BYTES};

/// Bytes per (abstract) instruction for program-counter advancement.
const INSTR_BYTES: u64 = 4;
/// Average basic-block length in instructions; one in this many
/// instructions branches to a random spot in the code footprint.
const AVG_BASIC_BLOCK: f64 = 12.0;

/// One data reference of an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// The data line touched.
    pub addr: LineAddr,
    /// [`AccessKind::Load`] or [`AccessKind::Store`].
    pub kind: AccessKind,
}

/// One committed instruction of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instruction {
    /// The code line the instruction was fetched from.
    pub code_line: LineAddr,
    /// The data reference it performs, if any.
    pub mem: Option<MemRef>,
}

/// An infinite instruction stream.
///
/// Implementations must be deterministic for a fixed construction seed.
pub trait TraceSource {
    /// Produces the next committed instruction.
    fn next_instruction(&mut self) -> Instruction;
}

/// A reference-pattern primitive of the synthetic generator.
///
/// `stay` models sub-line spatial locality: a program walking an array of
/// 8-byte elements touches each 64 B line eight times before moving on, so
/// its line-granular miss rate is one per `stay` references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternKind {
    /// Cyclic sequential walk over `lines` lines, touching each line `stay`
    /// consecutive times: perfect spatial locality, reuse distance equal to
    /// the working set.
    Loop {
        /// Working-set size in cache lines.
        lines: u64,
        /// Consecutive references per line.
        stay: u64,
    },
    /// Uniform random references within `lines` lines (no spatial
    /// locality).
    Random {
        /// Working-set size in cache lines.
        lines: u64,
    },
    /// Infinite forward streaming with `stay` references per line: no reuse
    /// at all once a line is passed (libquantum-style).
    Stream {
        /// Consecutive references per line.
        stay: u64,
    },
    /// Pseudo-random permutation walk over `lines` lines (rounded up to a
    /// power of two): full-working-set reuse distance with no spatial
    /// locality, defeating the stream prefetcher (mcf-style pointer
    /// chasing).
    Chase {
        /// Working-set size in cache lines (rounded up to a power of two).
        lines: u64,
    },
}

#[derive(Debug, Clone)]
enum PatternState {
    Loop {
        lines: u64,
        stay: u64,
        pos: u64,
        rep: u64,
    },
    Random {
        lines: u64,
    },
    Stream {
        stay: u64,
        pos: u64,
        rep: u64,
    },
    /// Full-period LCG over 2^k lines: `pos' = (a * pos + c) mod 2^k`.
    Chase {
        mask: u64,
        pos: u64,
    },
}

impl PatternState {
    fn new(kind: &PatternKind) -> Self {
        match *kind {
            PatternKind::Loop { lines, stay } => PatternState::Loop {
                lines: lines.max(1),
                stay: stay.max(1),
                pos: 0,
                rep: 0,
            },
            PatternKind::Random { lines } => PatternState::Random {
                lines: lines.max(1),
            },
            PatternKind::Stream { stay } => PatternState::Stream {
                stay: stay.max(1),
                pos: 0,
                rep: 0,
            },
            PatternKind::Chase { lines } => PatternState::Chase {
                mask: lines.max(2).next_power_of_two() - 1,
                pos: 1,
            },
        }
    }

    #[inline]
    fn next_line(&mut self, rng: &mut SmallRng) -> u64 {
        match self {
            PatternState::Loop {
                lines,
                stay,
                pos,
                rep,
            } => {
                let l = *pos;
                *rep += 1;
                if *rep >= *stay {
                    *rep = 0;
                    *pos += 1;
                    if *pos == *lines {
                        *pos = 0;
                    }
                }
                l
            }
            PatternState::Random { lines } => rng.gen_range(0..*lines),
            PatternState::Stream { stay, pos, rep } => {
                let l = *pos;
                *rep += 1;
                if *rep >= *stay {
                    *rep = 0;
                    *pos += 1;
                }
                l
            }
            PatternState::Chase { mask, pos } => {
                // Multiplier ≡ 5 (mod 8) and odd increment give a
                // full-period LCG modulo a power of two, i.e. a fixed
                // pseudo-random permutation cycle of the working set.
                *pos = pos
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407)
                    & *mask;
                *pos
            }
        }
    }
}

/// Parameters of one synthetic benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadParams {
    /// Instruction footprint in bytes (drives L1I behaviour).
    pub code_footprint_bytes: u64,
    /// Fraction of instructions that reference data memory.
    pub mem_ratio: f64,
    /// Fraction of data references that are stores.
    pub write_ratio: f64,
    /// Weighted mixture of data reference patterns.
    pub patterns: Vec<(f64, PatternKind)>,
}

impl WorkloadParams {
    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics if ratios are outside `[0, 1]`, the pattern list is empty or
    /// any weight is non-positive.
    fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.mem_ratio),
            "mem_ratio out of range"
        );
        assert!(
            (0.0..=1.0).contains(&self.write_ratio),
            "write_ratio out of range"
        );
        assert!(!self.patterns.is_empty(), "need at least one pattern");
        assert!(
            self.patterns.iter().all(|(w, _)| *w > 0.0),
            "pattern weights must be positive"
        );
        assert!(
            self.code_footprint_bytes >= INSTR_BYTES,
            "empty code footprint"
        );
    }
}

/// The synthetic statistical trace generator.
///
/// Code behaviour: the program counter walks forward 4 bytes per
/// instruction and takes a branch to a uniformly random spot in the code
/// footprint on average every 12 instructions (one basic block); a footprint
/// that fits the L1I therefore always hits after warm-up, while a larger
/// footprint misses at a rate set by its size.
///
/// Data behaviour: each memory instruction draws one pattern from the
/// configured weighted mixture and takes that pattern's next line.
///
/// All addresses are offset by a per-instance base so co-running instances
/// never share lines (the paper's workloads are multiprogrammed, not
/// multithreaded).
#[derive(Debug, Clone)]
pub struct SyntheticTrace {
    /// Base line address of this instance's private data region.
    data_base: u64,
    /// Base line address of this instance's private code region.
    code_base: u64,
    code_lines: u64,
    pc_line: u64,
    /// Instruction slot within the current code line.
    pc_slot: u64,
    /// [`SmallRng::bernoulli_threshold`]s of the branch, memory-reference
    /// and store probabilities.
    branch_at: u64,
    mem_at: u64,
    write_at: u64,
    /// Cumulative pattern weights as 53-bit cut points
    /// (`floor(c·2^53)`), paired with states: a draw `m` of 53 random bits
    /// selects the first pattern with `m <= cut`, which is exactly
    /// `m·2^-53 <= c`.
    patterns: Vec<(u64, PatternState)>,
    rng: SmallRng,
    generated: u64,
}

/// Address-space stride between co-running instances, in lines
/// (2^36 lines = 4 TiB of address space each: far larger than any working
/// set).
pub(crate) const INSTANCE_STRIDE_LINES: u64 = 1 << 36;
/// Offset of the code region within an instance's address space, in lines.
const CODE_REGION_OFFSET: u64 = 1 << 35;
/// Instruction slots per code line.
const INSTR_PER_LINE: u64 = LINE_BYTES as u64 / INSTR_BYTES;
/// 2^53, the scale of a 53-bit uniform draw.
const TWO_POW_53: f64 = (1u64 << 53) as f64;

impl SyntheticTrace {
    /// Creates a deterministic trace.
    ///
    /// * `params` — the benchmark's statistical parameters.
    /// * `instance` — address-space slot (use the core index) so co-running
    ///   traces never collide.
    /// * `seed` — RNG seed; equal seeds give identical streams.
    ///
    /// # Panics
    ///
    /// Panics if `params` are invalid (see [`WorkloadParams`]).
    pub fn new(params: &WorkloadParams, instance: u64, seed: u64) -> Self {
        params.validate();
        let code_lines = (params.code_footprint_bytes / LINE_BYTES as u64).max(1);
        let mut cum = 0.0;
        let patterns = params
            .patterns
            .iter()
            .map(|(w, k)| {
                cum += w;
                (cum, PatternState::new(k))
            })
            .collect::<Vec<_>>();
        let total = cum;
        let patterns = patterns
            .into_iter()
            .map(|(c, s)| (((c / total) * TWO_POW_53).floor() as u64, s))
            .collect();
        SyntheticTrace {
            data_base: Self::data_base(instance),
            code_base: Self::code_base(instance),
            code_lines,
            pc_line: 0,
            pc_slot: 0,
            branch_at: Self::branch_threshold(),
            mem_at: SmallRng::bernoulli_threshold(params.mem_ratio),
            write_at: SmallRng::bernoulli_threshold(params.write_ratio),
            patterns,
            rng: Self::rng(instance, seed),
            generated: 0,
        }
    }

    /// First line of address-space slot `instance`'s private data region.
    pub const fn data_base(instance: u64) -> u64 {
        instance * INSTANCE_STRIDE_LINES
    }

    /// First line of slot `instance`'s private code region: the only
    /// code line a one-line footprint ever fetches.
    pub const fn code_base(instance: u64) -> u64 {
        Self::data_base(instance) + CODE_REGION_OFFSET
    }

    /// The generator a trace of slot `instance` under `seed` draws from.
    /// Generators written in closed form for one parameter set (the
    /// device streams of `tla-io`) seed theirs here so their draws stay
    /// those of the generic trace.
    pub fn rng(instance: u64, seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed ^ 0x5EED_7EA5_0000_0000 ^ instance)
    }

    /// The [`SmallRng::bernoulli_threshold`] of the branch draw every
    /// instruction makes first.
    pub fn branch_threshold() -> u64 {
        SmallRng::bernoulli_threshold(1.0 / AVG_BASIC_BLOCK)
    }

    /// Instructions generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }
}

impl PatternState {
    /// Tag byte identifying the variant on the wire.
    fn snapshot_tag(&self) -> u8 {
        match self {
            PatternState::Loop { .. } => 0,
            PatternState::Random { .. } => 1,
            PatternState::Stream { .. } => 2,
            PatternState::Chase { .. } => 3,
        }
    }
}

impl Snapshot for SyntheticTrace {
    // The statistical parameters (bases, ratios, cumulative weights, the
    // pattern shapes) are reconstructed from the workload spec; only the
    // cursors travel: PC position, per-pattern walk positions, the RNG and
    // the generated count. Pattern variant tags are checked so a snapshot
    // from a different benchmark is rejected.
    fn write_state(&self, w: &mut SnapshotWriter) {
        w.write_u64(self.pc_line);
        w.write_u64(self.pc_slot);
        w.write_u64(self.generated);
        self.rng.write_state(w);
        w.write_u64(self.patterns.len() as u64);
        for (_, p) in &self.patterns {
            w.write_u8(p.snapshot_tag());
            match p {
                PatternState::Loop { pos, rep, .. } => {
                    w.write_u64(*pos);
                    w.write_u64(*rep);
                }
                PatternState::Random { .. } => {}
                PatternState::Stream { pos, rep, .. } => {
                    w.write_u64(*pos);
                    w.write_u64(*rep);
                }
                PatternState::Chase { pos, .. } => w.write_u64(*pos),
            }
        }
    }

    // Cursors must lie in range: the generator wraps them with compares,
    // so an out-of-range value from a corrupt image would run away.
    fn read_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        self.pc_line = r.read_u64()?;
        self.pc_slot = r.read_u64()?;
        if self.pc_line >= self.code_lines || self.pc_slot >= INSTR_PER_LINE {
            return Err(SnapshotError::Corrupt(format!(
                "trace program counter line {} slot {} outside {} lines of {INSTR_PER_LINE} slots",
                self.pc_line, self.pc_slot, self.code_lines
            )));
        }
        self.generated = r.read_u64()?;
        self.rng.read_state(r)?;
        let n = r.read_usize()?;
        if n != self.patterns.len() {
            return Err(SnapshotError::Mismatch(format!(
                "trace patterns: snapshot has {n}, this workload has {}",
                self.patterns.len()
            )));
        }
        for (_, p) in &mut self.patterns {
            let tag = r.read_u8()?;
            if tag != p.snapshot_tag() {
                return Err(SnapshotError::Mismatch(format!(
                    "trace pattern kind tag {tag} does not match this workload (expected {})",
                    p.snapshot_tag()
                )));
            }
            let in_range = match p {
                PatternState::Loop {
                    lines,
                    stay,
                    pos,
                    rep,
                } => {
                    *pos = r.read_u64()?;
                    *rep = r.read_u64()?;
                    *pos < *lines && *rep < *stay
                }
                PatternState::Random { .. } => true,
                PatternState::Stream { stay, pos, rep } => {
                    *pos = r.read_u64()?;
                    *rep = r.read_u64()?;
                    *rep < *stay
                }
                PatternState::Chase { mask, pos } => {
                    *pos = r.read_u64()?;
                    *pos <= *mask
                }
            };
            if !in_range {
                return Err(SnapshotError::Corrupt(format!(
                    "trace pattern cursor out of range: {p:?}"
                )));
            }
        }
        Ok(())
    }
}

impl TraceSource for SyntheticTrace {
    #[inline]
    fn next_instruction(&mut self) -> Instruction {
        self.generated += 1;

        // Advance the program counter.
        let code_line = LineAddr::new(self.code_base + self.pc_line);
        if self.rng.gen_bernoulli(self.branch_at) {
            self.pc_line = self.rng.gen_range(0..self.code_lines);
            self.pc_slot = self.rng.gen_range(0..INSTR_PER_LINE);
        } else {
            self.pc_slot += 1;
            if self.pc_slot == INSTR_PER_LINE {
                self.pc_slot = 0;
                self.pc_line += 1;
                if self.pc_line == self.code_lines {
                    self.pc_line = 0;
                }
            }
        }

        // Data reference.
        let mem = if self.rng.gen_bernoulli(self.mem_at) {
            // The 53 bits behind `gen_f64`, compared against integer cuts.
            let m = self.rng.next_u64() >> 11;
            let idx = self
                .patterns
                .iter()
                .position(|(c, _)| m <= *c)
                .unwrap_or(self.patterns.len() - 1);
            let line = self.patterns[idx].1.next_line(&mut self.rng);
            let kind = if self.rng.gen_bernoulli(self.write_at) {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            Some(MemRef {
                addr: LineAddr::new(self.data_base + line),
                kind,
            })
        } else {
            None
        };

        Instruction { code_line, mem }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_params() -> WorkloadParams {
        WorkloadParams {
            code_footprint_bytes: 4096,
            mem_ratio: 0.4,
            write_ratio: 0.25,
            patterns: vec![
                (0.7, PatternKind::Loop { lines: 64, stay: 4 }),
                (0.3, PatternKind::Random { lines: 1024 }),
            ],
        }
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SyntheticTrace::new(&simple_params(), 0, 7);
        let mut b = SyntheticTrace::new(&simple_params(), 0, 7);
        for _ in 0..1000 {
            assert_eq!(a.next_instruction(), b.next_instruction());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SyntheticTrace::new(&simple_params(), 0, 1);
        let mut b = SyntheticTrace::new(&simple_params(), 0, 2);
        let differs = (0..100).any(|_| a.next_instruction() != b.next_instruction());
        assert!(differs);
    }

    #[test]
    fn instances_use_disjoint_address_spaces() {
        let mut a = SyntheticTrace::new(&simple_params(), 0, 7);
        let mut b = SyntheticTrace::new(&simple_params(), 1, 7);
        for _ in 0..1000 {
            let ia = a.next_instruction();
            let ib = b.next_instruction();
            if let (Some(ma), Some(mb)) = (ia.mem, ib.mem) {
                assert_ne!(ma.addr, mb.addr);
            }
            assert_ne!(ia.code_line, ib.code_line);
        }
    }

    #[test]
    fn mem_ratio_is_respected() {
        let mut t = SyntheticTrace::new(&simple_params(), 0, 7);
        let n = 100_000;
        let mems = (0..n)
            .filter(|_| t.next_instruction().mem.is_some())
            .count();
        let ratio = mems as f64 / n as f64;
        assert!((ratio - 0.4).abs() < 0.02, "ratio = {ratio}");
    }

    #[test]
    fn write_ratio_is_respected() {
        let mut t = SyntheticTrace::new(&simple_params(), 0, 7);
        let mut loads = 0u64;
        let mut stores = 0u64;
        for _ in 0..100_000 {
            if let Some(m) = t.next_instruction().mem {
                match m.kind {
                    AccessKind::Store => stores += 1,
                    AccessKind::Load => loads += 1,
                    _ => unreachable!(),
                }
            }
        }
        let wr = stores as f64 / (loads + stores) as f64;
        assert!((wr - 0.25).abs() < 0.02, "write ratio = {wr}");
    }

    #[test]
    fn loop_pattern_stays_in_working_set() {
        let params = WorkloadParams {
            code_footprint_bytes: 4096,
            mem_ratio: 1.0,
            write_ratio: 0.0,
            patterns: vec![(1.0, PatternKind::Loop { lines: 32, stay: 1 })],
        };
        let mut t = SyntheticTrace::new(&params, 0, 1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            seen.insert(t.next_instruction().mem.unwrap().addr.raw());
        }
        assert_eq!(seen.len(), 32);
    }

    #[test]
    fn chase_pattern_covers_power_of_two_set() {
        let params = WorkloadParams {
            code_footprint_bytes: 4096,
            mem_ratio: 1.0,
            write_ratio: 0.0,
            patterns: vec![(1.0, PatternKind::Chase { lines: 64 })],
        };
        let mut t = SyntheticTrace::new(&params, 0, 1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            seen.insert(t.next_instruction().mem.unwrap().addr.raw());
        }
        // Full-period LCG: 64 consecutive references cover all 64 lines.
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn stream_pattern_never_reuses() {
        let params = WorkloadParams {
            code_footprint_bytes: 4096,
            mem_ratio: 1.0,
            write_ratio: 0.0,
            patterns: vec![(1.0, PatternKind::Stream { stay: 1 })],
        };
        let mut t = SyntheticTrace::new(&params, 0, 1);
        let mut last = None;
        for _ in 0..1000 {
            let a = t.next_instruction().mem.unwrap().addr.raw();
            if let Some(l) = last {
                assert_eq!(a, l + 1, "stream must be strictly sequential");
            }
            last = Some(a);
        }
    }

    #[test]
    fn code_footprint_bounds_code_lines() {
        let params = WorkloadParams {
            code_footprint_bytes: 8 * LINE_BYTES as u64,
            mem_ratio: 0.0,
            write_ratio: 0.0,
            patterns: vec![(1.0, PatternKind::Stream { stay: 1 })],
        };
        let mut t = SyntheticTrace::new(&params, 0, 1);
        let mut lines = std::collections::HashSet::new();
        for _ in 0..10_000 {
            lines.insert(t.next_instruction().code_line.raw());
        }
        assert!(lines.len() <= 8);
        assert!(lines.len() >= 7, "nearly all code lines should be touched");
    }

    #[test]
    #[should_panic(expected = "mem_ratio")]
    fn invalid_mem_ratio_panics() {
        let params = WorkloadParams {
            mem_ratio: 1.5,
            ..simple_params()
        };
        let _ = SyntheticTrace::new(&params, 0, 1);
    }

    #[test]
    #[should_panic(expected = "pattern")]
    fn empty_patterns_panic() {
        let params = WorkloadParams {
            patterns: vec![],
            ..simple_params()
        };
        let _ = SyntheticTrace::new(&params, 0, 1);
    }

    #[test]
    fn snapshot_resumes_exact_stream() {
        let params = WorkloadParams {
            code_footprint_bytes: 4096,
            mem_ratio: 0.6,
            write_ratio: 0.3,
            patterns: vec![
                (0.4, PatternKind::Loop { lines: 64, stay: 4 }),
                (0.2, PatternKind::Random { lines: 1024 }),
                (0.2, PatternKind::Stream { stay: 2 }),
                (0.2, PatternKind::Chase { lines: 256 }),
            ],
        };
        let mut live = SyntheticTrace::new(&params, 1, 99);
        for _ in 0..5000 {
            live.next_instruction();
        }
        let mut w = tla_snapshot::SnapshotWriter::new();
        live.write_state(&mut w);
        let bytes = w.finish();

        let mut resumed = SyntheticTrace::new(&params, 1, 99);
        let mut r = tla_snapshot::SnapshotReader::new(&bytes).unwrap();
        resumed.read_state(&mut r).unwrap();
        assert_eq!(resumed.generated(), live.generated());
        for _ in 0..5000 {
            assert_eq!(resumed.next_instruction(), live.next_instruction());
        }
    }

    /// Checkpoint bytes of a fresh trace whose cursors were set by `edit`.
    fn checkpoint_with(params: &WorkloadParams, edit: impl FnOnce(&mut SyntheticTrace)) -> Vec<u8> {
        let mut t = SyntheticTrace::new(params, 0, 1);
        t.next_instruction();
        edit(&mut t);
        let mut w = tla_snapshot::SnapshotWriter::new();
        t.write_state(&mut w);
        w.finish()
    }

    #[test]
    fn snapshot_rejects_out_of_range_cursors() {
        let params = WorkloadParams {
            code_footprint_bytes: 4096,
            mem_ratio: 0.6,
            write_ratio: 0.3,
            patterns: vec![
                (0.4, PatternKind::Loop { lines: 64, stay: 4 }),
                (0.2, PatternKind::Stream { stay: 2 }),
                (0.4, PatternKind::Chase { lines: 256 }),
            ],
        };
        type Edit = fn(&mut SyntheticTrace);
        // 4096 B of code is 64 lines.
        let edits: [(&str, Edit); 6] = [
            ("pc_line", |t| t.pc_line = 64),
            ("pc_slot", |t| t.pc_slot = INSTR_PER_LINE),
            ("loop pos", |t| {
                if let PatternState::Loop { pos, .. } = &mut t.patterns[0].1 {
                    *pos = 64;
                }
            }),
            ("loop rep", |t| {
                if let PatternState::Loop { rep, .. } = &mut t.patterns[0].1 {
                    *rep = 4;
                }
            }),
            ("stream rep", |t| {
                if let PatternState::Stream { rep, .. } = &mut t.patterns[1].1 {
                    *rep = 2;
                }
            }),
            ("chase pos", |t| {
                if let PatternState::Chase { pos, .. } = &mut t.patterns[2].1 {
                    *pos = 256;
                }
            }),
        ];
        for (what, edit) in edits {
            let bytes = checkpoint_with(&params, edit);
            let mut fresh = SyntheticTrace::new(&params, 0, 1);
            let mut r = tla_snapshot::SnapshotReader::new(&bytes).unwrap();
            let err = fresh.read_state(&mut r).unwrap_err();
            assert!(matches!(err, SnapshotError::Corrupt(_)), "{what}: {err:?}");
        }
        // The largest in-range cursors still resume.
        let bytes = checkpoint_with(&params, |t| {
            t.pc_line = 63;
            t.pc_slot = INSTR_PER_LINE - 1;
        });
        let mut fresh = SyntheticTrace::new(&params, 0, 1);
        let mut r = tla_snapshot::SnapshotReader::new(&bytes).unwrap();
        fresh.read_state(&mut r).unwrap();
    }

    #[test]
    fn snapshot_rejects_different_pattern_mixture() {
        let mut a = SyntheticTrace::new(&simple_params(), 0, 1);
        let mut w = tla_snapshot::SnapshotWriter::new();
        a.next_instruction();
        a.write_state(&mut w);
        let bytes = w.finish();

        let other = WorkloadParams {
            patterns: vec![(1.0, PatternKind::Stream { stay: 1 })],
            ..simple_params()
        };
        let mut b = SyntheticTrace::new(&other, 0, 1);
        let mut r = tla_snapshot::SnapshotReader::new(&bytes).unwrap();
        let err = b.read_state(&mut r).unwrap_err();
        assert!(matches!(err, SnapshotError::Mismatch(_)), "{err:?}");
    }
}
