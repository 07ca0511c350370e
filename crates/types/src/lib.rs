//! Common value types shared by every crate in the TLA cache simulator.
//!
//! This crate defines the small, copyable vocabulary types the rest of the
//! workspace speaks: byte and line [`Addr`]esses, [`CoreId`]s, memory
//! [`AccessKind`]s, [`CacheLevel`]s and a handful of statistics helpers
//! (notably [`stats::geomean`], which the paper uses to aggregate the 105
//! workload mixes).
//!
//! # Examples
//!
//! ```
//! use tla_types::{Addr, LineAddr, LINE_BYTES};
//!
//! let a = Addr::new(0x1234);
//! let line = a.line();
//! assert_eq!(line.base().raw(), 0x1234 / LINE_BYTES as u64 * LINE_BYTES as u64);
//! assert_eq!(LineAddr::from(a), line);
//! ```

pub mod counters;
pub mod pages;
pub mod stats;

pub use counters::{GlobalStats, IoAgentStats, IoStats, PerCoreStats};
pub use pages::LinePages;

use std::fmt;

/// Cache line size in bytes. The paper uses 64 B lines at every level
/// (§IV-A); the whole simulator assumes this fixed geometry.
pub const LINE_BYTES: usize = 64;

/// log2 of [`LINE_BYTES`].
pub const LINE_SHIFT: u32 = LINE_BYTES.trailing_zeros();

/// A byte address in the simulated physical address space.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw byte value.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// The raw byte value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The cache line this byte falls in.
    pub const fn line(self) -> LineAddr {
        LineAddr(self.0 >> LINE_SHIFT)
    }

    /// Byte offset within the cache line.
    pub const fn line_offset(self) -> usize {
        (self.0 & (LINE_BYTES as u64 - 1)) as usize
    }

    /// The address `bytes` further on.
    #[must_use]
    pub const fn offset(self, bytes: u64) -> Self {
        Addr(self.0.wrapping_add(bytes))
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#x})", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

/// A cache-line address: a byte address with the low [`LINE_SHIFT`] bits
/// dropped. All cache state is keyed by `LineAddr`.
///
/// `repr(transparent)`: dense `LineAddr` arrays are guaranteed to have the
/// layout of `u64` arrays, which the SIMD set-probe kernels rely on to load
/// tags directly from per-set address slices.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from a raw line number (byte address divided
    /// by [`LINE_BYTES`]).
    pub const fn new(raw: u64) -> Self {
        LineAddr(raw)
    }

    /// The raw line number.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The byte address of the first byte of the line.
    pub const fn base(self) -> Addr {
        Addr(self.0 << LINE_SHIFT)
    }

    /// The line `n` lines further on (`n` may be negative).
    #[must_use]
    pub const fn step(self, n: i64) -> Self {
        LineAddr(self.0.wrapping_add(n as u64))
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LineAddr({:#x})", self.0)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<Addr> for LineAddr {
    fn from(a: Addr) -> Self {
        a.line()
    }
}

/// Identifier of a core in the simulated CMP (0-based, at most 64 cores so
/// the LLC directory fits in a single `u64` bitmap).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct CoreId(u8);

impl CoreId {
    /// Maximum number of cores supported by the directory bitmap.
    pub const MAX_CORES: usize = 64;

    /// Creates a core id.
    ///
    /// # Panics
    ///
    /// Panics if `id >= MAX_CORES`.
    #[inline]
    pub fn new(id: usize) -> Self {
        assert!(id < Self::MAX_CORES, "core id {id} out of range");
        CoreId(id as u8)
    }

    /// The 0-based index of the core.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// What a memory reference does.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum AccessKind {
    /// Instruction fetch (looks in the L1 instruction cache first).
    IFetch,
    /// Data read.
    Load,
    /// Data write (write-allocate, write-back).
    Store,
    /// Hardware prefetch issued by the L2 stream prefetcher.
    Prefetch,
}

impl AccessKind {
    /// Whether the access dirties the line it touches.
    pub const fn is_write(self) -> bool {
        matches!(self, AccessKind::Store)
    }

    /// Whether the access is a demand access (something the program asked
    /// for, as opposed to a hardware prefetch).
    pub const fn is_demand(self) -> bool {
        !matches!(self, AccessKind::Prefetch)
    }

    /// Whether the access targets the instruction side of the L1.
    pub const fn is_ifetch(self) -> bool {
        matches!(self, AccessKind::IFetch)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessKind::IFetch => "ifetch",
            AccessKind::Load => "load",
            AccessKind::Store => "store",
            AccessKind::Prefetch => "prefetch",
        };
        f.write_str(s)
    }
}

/// A level of the three-level hierarchy the paper models (per-core L1I/L1D,
/// per-core unified L2, shared LLC).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CacheLevel {
    /// Private L1 instruction cache.
    L1I,
    /// Private L1 data cache.
    L1D,
    /// Private unified L2 (non-inclusive with respect to the L1s).
    L2,
    /// Shared last-level cache.
    Llc,
}

impl CacheLevel {
    /// All levels, smallest first.
    pub const ALL: [CacheLevel; 4] = [
        CacheLevel::L1I,
        CacheLevel::L1D,
        CacheLevel::L2,
        CacheLevel::Llc,
    ];
}

impl fmt::Display for CacheLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CacheLevel::L1I => "L1I",
            CacheLevel::L1D => "L1D",
            CacheLevel::L2 => "L2",
            CacheLevel::Llc => "LLC",
        };
        f.write_str(s)
    }
}

/// Where a demand access was finally serviced from. Determines the
/// load-to-use latency the core model charges.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DataSource {
    /// Hit in the accessed L1 (instruction or data).
    L1,
    /// Hit in the private L2.
    L2,
    /// Hit in the shared LLC.
    Llc,
    /// Missed the whole hierarchy and was serviced from main memory.
    Memory,
}

impl fmt::Display for DataSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataSource::L1 => "L1",
            DataSource::L2 => "L2",
            DataSource::Llc => "LLC",
            DataSource::Memory => "memory",
        };
        f.write_str(s)
    }
}

impl DataSource {
    /// True when the access missed every on-chip cache.
    pub const fn is_memory(self) -> bool {
        matches!(self, DataSource::Memory)
    }
}

/// A simulated clock value in core cycles.
pub type Cycle = u64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_line_roundtrip() {
        let a = Addr::new(0x12345);
        assert_eq!(a.line().base().raw(), 0x12340);
        assert_eq!(a.line_offset(), 5);
        assert_eq!(a.line().step(1).base().raw(), 0x12380);
    }

    #[test]
    fn line_step_negative() {
        let l = LineAddr::new(10);
        assert_eq!(l.step(-3).raw(), 7);
    }

    #[test]
    fn addr_offset_wraps() {
        let a = Addr::new(u64::MAX);
        assert_eq!(a.offset(1).raw(), 0);
    }

    #[test]
    fn core_id_in_range() {
        assert_eq!(CoreId::new(7).index(), 7);
        assert_eq!(CoreId::new(0).to_string(), "core0");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn core_id_out_of_range() {
        let _ = CoreId::new(64);
    }

    #[test]
    fn access_kind_predicates() {
        assert!(AccessKind::Store.is_write());
        assert!(!AccessKind::Load.is_write());
        assert!(AccessKind::Load.is_demand());
        assert!(!AccessKind::Prefetch.is_demand());
        assert!(AccessKind::IFetch.is_ifetch());
    }

    #[test]
    fn data_source_ordering_matches_distance() {
        assert!(DataSource::L1 < DataSource::L2);
        assert!(DataSource::L2 < DataSource::Llc);
        assert!(DataSource::Llc < DataSource::Memory);
        assert!(DataSource::Memory.is_memory());
    }

    #[test]
    fn display_is_nonempty() {
        for lvl in CacheLevel::ALL {
            assert!(!lvl.to_string().is_empty());
        }
        assert_eq!(Addr::new(16).to_string(), "0x10");
    }
}

/// Randomized property checks, driven by a fixed-seed [`tla_rng::SmallRng`]
/// so every run explores the same cases deterministically.
#[cfg(test)]
mod proptests {
    use super::*;
    use tla_rng::SmallRng;

    const CASES: usize = 2000;

    /// Any byte address belongs to the line whose base is at or below
    /// it, less than one line away.
    #[test]
    fn addr_line_containment() {
        let mut rng = SmallRng::seed_from_u64(0x7A01);
        for _ in 0..CASES {
            let raw = rng.next_u64();
            let a = Addr::new(raw);
            let base = a.line().base();
            assert_eq!(raw - base.raw(), a.line_offset() as u64);
            assert!(a.line_offset() < LINE_BYTES);
        }
    }

    /// Line stepping is additive and invertible.
    #[test]
    fn line_step_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(0x7A02);
        for _ in 0..CASES {
            let raw = rng.next_u64();
            let n = rng.gen_range(0..2000u64) as i64 - 1000;
            let l = LineAddr::new(raw);
            assert_eq!(l.step(n).step(-n), l);
            assert_eq!(l.step(n).raw(), raw.wrapping_add(n as u64));
        }
    }

    fn random_values(rng: &mut SmallRng) -> Vec<f64> {
        let len = rng.gen_range(1..50usize);
        (0..len).map(|_| 0.01 + rng.gen_f64() * 99.99).collect()
    }

    /// geomean lies between min and max for positive inputs.
    #[test]
    fn geomean_between_extremes() {
        let mut rng = SmallRng::seed_from_u64(0x7A03);
        for _ in 0..500 {
            let values = random_values(&mut rng);
            let g = stats::geomean(values.iter().copied()).unwrap();
            let min = values.iter().cloned().fold(f64::MAX, f64::min);
            let max = values.iter().cloned().fold(f64::MIN, f64::max);
            assert!(g >= min - 1e-9 && g <= max + 1e-9);
        }
    }

    /// hmean <= geomean <= arithmetic mean (AM-GM-HM inequality).
    #[test]
    fn am_gm_hm_inequality() {
        let mut rng = SmallRng::seed_from_u64(0x7A04);
        for _ in 0..500 {
            let values = random_values(&mut rng);
            let am = stats::mean(values.iter().copied()).unwrap();
            let gm = stats::geomean(values.iter().copied()).unwrap();
            let hm = stats::hmean(values.iter().copied()).unwrap();
            assert!(hm <= gm + 1e-9);
            assert!(gm <= am + 1e-9);
        }
    }
}
