//! `tla-snapshot` — versioned binary checkpoint format for the TLA simulator.
//!
//! The paper's methodology warms the hierarchy before measuring, and every
//! policy comparison replays the *same* warm state under a different LLC
//! policy. This crate provides the wire format (`TLAS`) and the [`Snapshot`]
//! trait that let the simulator freeze that warm state once and resume it
//! any number of times, bit-exactly.
//!
//! # Format
//!
//! All integers are little-endian. A snapshot is:
//!
//! ```text
//! magic    4 bytes   b"TLAS"
//! version  1 byte    FORMAT_VERSION
//! sections ...       name-tagged, length-prefixed chunks
//! checksum 8 bytes   FNV-1a over everything above
//! ```
//!
//! Each section is `name_len: u8`, `name` bytes, `body_len: u64`, then the
//! body. Sections nest freely; readers must consume a section exactly — a
//! short or long read is reported as corruption, never silently tolerated.
//!
//! # Invariants
//!
//! Implementors of [`Snapshot`] overlay state onto an *already constructed*
//! value of the same configuration: geometry, policy tables and other
//! config-derived fields are rebuilt from the run configuration, not
//! serialized. `read_state` must verify that the serialized state fits the
//! receiver (lengths, presence flags) and fail with
//! [`SnapshotError::Mismatch`] otherwise.

use std::fmt;
use tla_rng::SmallRng;
use tla_types::{GlobalStats, IoAgentStats, IoStats, PerCoreStats};

/// Magic bytes identifying a TLAS snapshot.
pub const MAGIC: [u8; 4] = *b"TLAS";

/// Current format version. Bump on any wire-incompatible change.
///
/// Version history:
/// * 1 — initial format; per-set bitmaps are a single `u64`.
/// * 2 — multi-word set bitmaps (caches wider than 64 ways serialize
///   `ways.div_ceil(64)` words per set). For ≤ 64 ways the byte layout is
///   unchanged, so version-1 images decode through the same readers.
/// * 3 — checkpoint meta carries the core-model latency configuration
///   (four trailing `u64`s). Readers of older images substitute the
///   default latencies; see [`SnapshotReader::version`] for the gating
///   pattern.
pub const FORMAT_VERSION: u8 = 3;

/// Oldest format version this build still reads. Every version in
/// `MIN_SUPPORTED_VERSION..=FORMAT_VERSION` is accepted by
/// [`SnapshotReader::new`]; new snapshots are always written at
/// [`FORMAT_VERSION`].
pub const MIN_SUPPORTED_VERSION: u8 = 1;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Everything that can go wrong reading a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The first four bytes are not `TLAS`.
    BadMagic,
    /// The format version is one this build cannot read.
    BadVersion {
        /// Version byte found in the snapshot.
        found: u8,
        /// Newest version this build reads (and the one it writes).
        expected: u8,
    },
    /// The trailing checksum does not match the payload.
    BadChecksum,
    /// The snapshot ended before the expected data did.
    Truncated,
    /// The bytes are structurally invalid (bad section name, bad tag, ...).
    Corrupt(String),
    /// The snapshot is valid but does not fit the receiving configuration
    /// (different geometry, seed, workload, ...).
    Mismatch(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic => f.write_str("not a TLAS snapshot (bad magic)"),
            SnapshotError::BadVersion { found, expected } => write!(
                f,
                "unsupported snapshot version {found} (this build reads versions \
                 {MIN_SUPPORTED_VERSION}..={expected})"
            ),
            SnapshotError::BadChecksum => {
                f.write_str("snapshot checksum mismatch (file is corrupt)")
            }
            SnapshotError::Truncated => f.write_str("snapshot is truncated"),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            SnapshotError::Mismatch(msg) => {
                write!(f, "snapshot does not match this configuration: {msg}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Serializer building a TLAS byte stream.
///
/// Create one, write sections and primitives, then call [`finish`] to get
/// the checksummed byte vector.
///
/// [`finish`]: SnapshotWriter::finish
#[derive(Debug)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
    open_sections: Vec<usize>,
}

impl SnapshotWriter {
    /// Start a new snapshot: writes the magic and version header.
    #[must_use]
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&MAGIC);
        buf.push(FORMAT_VERSION);
        SnapshotWriter {
            buf,
            open_sections: Vec::new(),
        }
    }

    /// Open a named, length-prefixed section. Must be paired with
    /// [`end_section`](SnapshotWriter::end_section).
    pub fn begin_section(&mut self, name: &str) {
        assert!(
            name.len() <= u8::MAX as usize,
            "section name too long: {name}"
        );
        self.buf.push(name.len() as u8);
        self.buf.extend_from_slice(name.as_bytes());
        // Placeholder for the body length, backpatched in end_section.
        self.open_sections.push(self.buf.len());
        self.buf.extend_from_slice(&0u64.to_le_bytes());
    }

    /// Close the most recently opened section, backpatching its length.
    pub fn end_section(&mut self) {
        let at = self
            .open_sections
            .pop()
            .expect("end_section without begin_section");
        let body_len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&body_len.to_le_bytes());
    }

    /// Write one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a bool as one byte (0/1).
    pub fn write_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Write a little-endian u32.
    pub fn write_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian u64.
    pub fn write_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian i64.
    pub fn write_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a usize as a u64.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Write an f64 as its little-endian bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Write a length-prefixed byte string.
    pub fn write_bytes(&mut self, v: &[u8]) {
        self.write_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, v: &str) {
        self.write_bytes(v.as_bytes());
    }

    /// Write a length-prefixed slice of u64 values.
    pub fn write_u64_slice(&mut self, v: &[u64]) {
        self.write_u64(v.len() as u64);
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Append the trailing checksum and return the finished byte stream.
    /// Panics if any section is still open.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        assert!(
            self.open_sections.is_empty(),
            "finish with {} unclosed section(s)",
            self.open_sections.len()
        );
        let sum = fnv1a(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

impl Default for SnapshotWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// Deserializer over a TLAS byte stream.
///
/// The constructor validates magic, version and trailing checksum up front;
/// every read after that is bounds-checked and section-scoped.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Exclusive end positions of currently open sections, innermost last.
    section_ends: Vec<usize>,
    /// Format version from the header, for version-gated field reads.
    version: u8,
}

impl<'a> SnapshotReader<'a> {
    /// Validate the header and checksum and position the reader at the
    /// first section.
    pub fn new(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        // magic + version + checksum is the minimum possible snapshot.
        if bytes.len() < 4 + 1 + 8 {
            return Err(SnapshotError::Truncated);
        }
        if bytes[..4] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = bytes[4];
        if !(MIN_SUPPORTED_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(SnapshotError::BadVersion {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let body_end = bytes.len() - 8;
        let mut sum = [0u8; 8];
        sum.copy_from_slice(&bytes[body_end..]);
        if fnv1a(&bytes[..body_end]) != u64::from_le_bytes(sum) {
            return Err(SnapshotError::BadChecksum);
        }
        Ok(SnapshotReader {
            buf: &bytes[..body_end],
            pos: 5,
            section_ends: Vec::new(),
            version,
        })
    }

    /// The format version stamped in the snapshot header. Decoders use
    /// this to gate reads of fields newer formats appended (the section
    /// length check still verifies exact consumption either way).
    pub fn version(&self) -> u8 {
        self.version
    }

    fn limit(&self) -> usize {
        self.section_ends.last().copied().unwrap_or(self.buf.len())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.limit() {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Open a section and verify its name matches `name`.
    pub fn begin_section(&mut self, name: &str) -> Result<(), SnapshotError> {
        let n = self.read_u8()? as usize;
        let found = self.take(n)?;
        if found != name.as_bytes() {
            return Err(SnapshotError::Corrupt(format!(
                "expected section '{name}', found '{}'",
                String::from_utf8_lossy(found)
            )));
        }
        let body_len = self.read_u64()? as usize;
        let end = self
            .pos
            .checked_add(body_len)
            .ok_or(SnapshotError::Truncated)?;
        if end > self.limit() {
            return Err(SnapshotError::Truncated);
        }
        self.section_ends.push(end);
        Ok(())
    }

    /// Close the innermost section, verifying it was consumed exactly.
    pub fn end_section(&mut self) -> Result<(), SnapshotError> {
        let end = self
            .section_ends
            .pop()
            .ok_or_else(|| SnapshotError::Corrupt("end_section without begin_section".into()))?;
        if self.pos != end {
            return Err(SnapshotError::Corrupt(format!(
                "section length mismatch: {} byte(s) left unread",
                end - self.pos
            )));
        }
        Ok(())
    }

    /// True when the innermost open section (or the whole stream) has been
    /// fully consumed.
    #[must_use]
    pub fn at_section_end(&self) -> bool {
        self.pos == self.limit()
    }

    /// Read one byte.
    pub fn read_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool written by [`SnapshotWriter::write_bool`].
    pub fn read_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Corrupt(format!("invalid bool byte {b}"))),
        }
    }

    /// Read a little-endian u32.
    pub fn read_u32(&mut self) -> Result<u32, SnapshotError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b))
    }

    /// Read a little-endian u64.
    pub fn read_u64(&mut self) -> Result<u64, SnapshotError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    /// Read a little-endian i64.
    pub fn read_i64(&mut self) -> Result<i64, SnapshotError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(i64::from_le_bytes(b))
    }

    /// Read a usize written by [`SnapshotWriter::write_usize`].
    pub fn read_usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.read_u64()?;
        usize::try_from(v)
            .map_err(|_| SnapshotError::Corrupt(format!("value {v} does not fit usize")))
    }

    /// Read an f64 written by [`SnapshotWriter::write_f64`].
    pub fn read_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// Read a length-prefixed byte string.
    pub fn read_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.read_usize()?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn read_str(&mut self) -> Result<String, SnapshotError> {
        let b = self.read_bytes()?;
        String::from_utf8(b.to_vec())
            .map_err(|_| SnapshotError::Corrupt("invalid UTF-8 string".into()))
    }

    /// Read a length-prefixed slice of u64 values.
    pub fn read_u64_vec(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let n = self.read_usize()?;
        // Reserve no more than the bytes left could hold: the count is
        // untrusted until the reads succeed.
        let mut v = Vec::with_capacity(n.min((self.limit() - self.pos) / 8));
        for _ in 0..n {
            v.push(self.read_u64()?);
        }
        Ok(v)
    }

    /// Read a u64 slice whose length must equal `expected`, overwriting
    /// `dst`. Length disagreement is a [`SnapshotError::Mismatch`] tagged
    /// with `what`.
    pub fn read_u64_slice_into(
        &mut self,
        dst: &mut [u64],
        what: &str,
    ) -> Result<(), SnapshotError> {
        let n = self.read_usize()?;
        if n != dst.len() {
            return Err(SnapshotError::Mismatch(format!(
                "{what}: snapshot has {n} entries, this configuration has {}",
                dst.len()
            )));
        }
        for slot in dst.iter_mut() {
            *slot = self.read_u64()?;
        }
        Ok(())
    }
}

/// Bidirectional state capture for one simulator component.
///
/// `write_state` serializes the *mutable* state; `read_state` overlays it
/// onto a value that was freshly constructed with the same configuration.
/// Implementations must be exact inverses: a write/read round-trip through
/// a same-config value must reproduce bit-identical behaviour.
pub trait Snapshot {
    /// Serialize mutable state into `w`.
    fn write_state(&self, w: &mut SnapshotWriter);
    /// Overlay serialized state from `r`, verifying it fits `self`.
    fn read_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError>;
}

impl Snapshot for SmallRng {
    fn write_state(&self, w: &mut SnapshotWriter) {
        for word in self.state() {
            w.write_u64(word);
        }
    }

    fn read_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = r.read_u64()?;
        }
        *self = SmallRng::from_state(s);
        Ok(())
    }
}

impl Snapshot for PerCoreStats {
    fn write_state(&self, w: &mut SnapshotWriter) {
        w.write_u64(self.l1i_accesses);
        w.write_u64(self.l1i_misses);
        w.write_u64(self.l1d_accesses);
        w.write_u64(self.l1d_misses);
        w.write_u64(self.l2_accesses);
        w.write_u64(self.l2_misses);
        w.write_u64(self.llc_accesses);
        w.write_u64(self.llc_misses);
        w.write_u64(self.memory_accesses);
        w.write_u64(self.inclusion_victims_l1);
        w.write_u64(self.inclusion_victims_l2);
        w.write_u64(self.tlh_hints);
        w.write_u64(self.misses_cold);
        w.write_u64(self.misses_capacity);
        w.write_u64(self.misses_inclusion_victim);
    }

    fn read_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        self.l1i_accesses = r.read_u64()?;
        self.l1i_misses = r.read_u64()?;
        self.l1d_accesses = r.read_u64()?;
        self.l1d_misses = r.read_u64()?;
        self.l2_accesses = r.read_u64()?;
        self.l2_misses = r.read_u64()?;
        self.llc_accesses = r.read_u64()?;
        self.llc_misses = r.read_u64()?;
        self.memory_accesses = r.read_u64()?;
        self.inclusion_victims_l1 = r.read_u64()?;
        self.inclusion_victims_l2 = r.read_u64()?;
        self.tlh_hints = r.read_u64()?;
        self.misses_cold = r.read_u64()?;
        self.misses_capacity = r.read_u64()?;
        self.misses_inclusion_victim = r.read_u64()?;
        Ok(())
    }
}

impl Snapshot for GlobalStats {
    fn write_state(&self, w: &mut SnapshotWriter) {
        w.write_u64(self.llc_evictions);
        w.write_u64(self.llc_writebacks);
        w.write_u64(self.back_invalidates);
        w.write_u64(self.eci_invalidates);
        w.write_u64(self.eci_rescues);
        w.write_u64(self.qbs_queries);
        w.write_u64(self.qbs_rejections);
        w.write_u64(self.qbs_limit_hits);
        w.write_u64(self.tlh_hints);
        w.write_u64(self.prefetches);
        w.write_u64(self.victim_cache_rescues);
        w.write_u64(self.snoop_probes);
        w.write_u64(self.victim_misses_replacement);
        w.write_u64(self.victim_misses_qbs_limit);
        w.write_u64(self.victim_misses_eci);
        w.write_u64(self.victim_misses_vc);
    }

    fn read_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        self.llc_evictions = r.read_u64()?;
        self.llc_writebacks = r.read_u64()?;
        self.back_invalidates = r.read_u64()?;
        self.eci_invalidates = r.read_u64()?;
        self.eci_rescues = r.read_u64()?;
        self.qbs_queries = r.read_u64()?;
        self.qbs_rejections = r.read_u64()?;
        self.qbs_limit_hits = r.read_u64()?;
        self.tlh_hints = r.read_u64()?;
        self.prefetches = r.read_u64()?;
        self.victim_cache_rescues = r.read_u64()?;
        self.snoop_probes = r.read_u64()?;
        self.victim_misses_replacement = r.read_u64()?;
        self.victim_misses_qbs_limit = r.read_u64()?;
        self.victim_misses_eci = r.read_u64()?;
        self.victim_misses_vc = r.read_u64()?;
        Ok(())
    }
}

impl Snapshot for IoStats {
    fn write_state(&self, w: &mut SnapshotWriter) {
        w.write_u64(self.injections);
        w.write_u64(self.inject_hits);
        w.write_u64(self.inject_fills);
        w.write_u64(self.llc_evictions);
        w.write_u64(self.back_invalidates);
        w.write_u64(self.writebacks);
        w.write_u64(self.victim_misses_io);
    }

    fn read_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        self.injections = r.read_u64()?;
        self.inject_hits = r.read_u64()?;
        self.inject_fills = r.read_u64()?;
        self.llc_evictions = r.read_u64()?;
        self.back_invalidates = r.read_u64()?;
        self.writebacks = r.read_u64()?;
        self.victim_misses_io = r.read_u64()?;
        Ok(())
    }
}

impl Snapshot for IoAgentStats {
    fn write_state(&self, w: &mut SnapshotWriter) {
        w.write_u64(self.injections);
        w.write_u64(self.hits);
        w.write_u64(self.fills);
        w.write_u64(self.evictions);
    }

    fn read_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        self.injections = r.read_u64()?;
        self.hits = r.read_u64()?;
        self.fills = r.read_u64()?;
        self.evictions = r.read_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.begin_section("meta");
        w.write_u64(42);
        w.write_str("hello");
        w.begin_section("nested");
        w.write_i64(-7);
        w.write_bool(true);
        w.end_section();
        w.write_f64(0.25);
        w.end_section();
        w.begin_section("data");
        w.write_u64_slice(&[1, 2, 3]);
        w.end_section();
        w.finish()
    }

    #[test]
    fn roundtrip() {
        let bytes = sample();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        r.begin_section("meta").unwrap();
        assert_eq!(r.read_u64().unwrap(), 42);
        assert_eq!(r.read_str().unwrap(), "hello");
        r.begin_section("nested").unwrap();
        assert_eq!(r.read_i64().unwrap(), -7);
        assert!(r.read_bool().unwrap());
        r.end_section().unwrap();
        assert_eq!(r.read_f64().unwrap(), 0.25);
        r.end_section().unwrap();
        r.begin_section("data").unwrap();
        assert_eq!(r.read_u64_vec().unwrap(), vec![1, 2, 3]);
        r.end_section().unwrap();
        assert!(r.at_section_end());
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = sample();
        bytes[0] = b'X';
        assert!(matches!(
            SnapshotReader::new(&bytes),
            Err(SnapshotError::BadMagic)
        ));
    }

    /// Re-stamps a snapshot's version byte, fixing up the checksum so only
    /// the version differs.
    fn with_version(mut bytes: Vec<u8>, version: u8) -> Vec<u8> {
        bytes[4] = version;
        let end = bytes.len() - 8;
        let sum = fnv1a(&bytes[..end]).to_le_bytes();
        bytes[end..].copy_from_slice(&sum);
        bytes
    }

    #[test]
    fn rejects_bad_version() {
        for bad in [MIN_SUPPORTED_VERSION - 1, FORMAT_VERSION + 1] {
            let bytes = with_version(sample(), bad);
            match SnapshotReader::new(&bytes) {
                Err(SnapshotError::BadVersion { found, expected }) => {
                    assert_eq!(found, bad);
                    assert_eq!(expected, FORMAT_VERSION);
                    let msg = SnapshotError::BadVersion { found, expected }.to_string();
                    let range = format!("{MIN_SUPPORTED_VERSION}..={FORMAT_VERSION}");
                    assert!(msg.contains(&range), "range in message: {msg}");
                }
                other => panic!("expected BadVersion, got {other:?}"),
            }
        }
    }

    #[test]
    fn reads_all_supported_versions() {
        // A version-1 image (the pre-multi-word format) must still load:
        // for ≤ 64-way geometries the body layout is identical, so the same
        // readers decode it.
        for v in MIN_SUPPORTED_VERSION..=FORMAT_VERSION {
            let bytes = with_version(sample(), v);
            let mut r = SnapshotReader::new(&bytes).expect("supported version must parse");
            r.begin_section("meta").unwrap();
            assert_eq!(r.read_u64().unwrap(), 42);
        }
    }

    #[test]
    fn rejects_flipped_byte() {
        let mut bytes = sample();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            SnapshotReader::new(&bytes),
            Err(SnapshotError::BadChecksum)
        ));
    }

    #[test]
    fn rejects_truncation() {
        let bytes = sample();
        for cut in [0, 3, 5, bytes.len() - 1] {
            let err = SnapshotReader::new(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated | SnapshotError::BadChecksum),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn wrong_section_name_is_corrupt() {
        let bytes = sample();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        let err = r.begin_section("other").unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)));
    }

    #[test]
    fn underread_section_is_corrupt() {
        let bytes = sample();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        r.begin_section("meta").unwrap();
        assert_eq!(r.read_u64().unwrap(), 42);
        let err = r.end_section().unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)));
    }

    #[test]
    fn read_cannot_cross_section_boundary() {
        let mut w = SnapshotWriter::new();
        w.begin_section("a");
        w.write_u8(1);
        w.end_section();
        w.begin_section("b");
        w.write_u64(2);
        w.end_section();
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        r.begin_section("a").unwrap();
        // Asking for 8 bytes inside a 1-byte section must fail, not read
        // into section "b".
        assert!(matches!(r.read_u64(), Err(SnapshotError::Truncated)));
    }

    #[test]
    fn rng_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(0xDEAD_BEEF);
        for _ in 0..10 {
            rng.next_u64();
        }
        let mut w = SnapshotWriter::new();
        rng.write_state(&mut w);
        let bytes = w.finish();

        let mut restored = SmallRng::seed_from_u64(0);
        let mut r = SnapshotReader::new(&bytes).unwrap();
        restored.read_state(&mut r).unwrap();
        let mut rng2 = rng.clone();
        for _ in 0..100 {
            assert_eq!(restored.next_u64(), rng2.next_u64());
        }
    }

    #[test]
    fn stats_roundtrip() {
        let pcs = PerCoreStats {
            l1d_accesses: 5,
            tlh_hints: 9,
            ..PerCoreStats::default()
        };
        let gs = GlobalStats {
            qbs_queries: 3,
            snoop_probes: 11,
            ..GlobalStats::default()
        };

        let mut w = SnapshotWriter::new();
        pcs.write_state(&mut w);
        gs.write_state(&mut w);
        let bytes = w.finish();

        let mut r = SnapshotReader::new(&bytes).unwrap();
        let mut pcs2 = PerCoreStats::default();
        let mut gs2 = GlobalStats::default();
        pcs2.read_state(&mut r).unwrap();
        gs2.read_state(&mut r).unwrap();
        assert_eq!(pcs, pcs2);
        assert_eq!(gs, gs2);
    }

    #[test]
    fn mismatched_slice_len() {
        let mut w = SnapshotWriter::new();
        w.write_u64_slice(&[1, 2, 3]);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        let mut dst = [0u64; 4];
        let err = r.read_u64_slice_into(&mut dst, "repl stamps").unwrap_err();
        match err {
            SnapshotError::Mismatch(msg) => assert!(msg.contains("repl stamps")),
            other => panic!("expected Mismatch, got {other:?}"),
        }
    }
}
