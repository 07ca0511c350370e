//! Recorded traces: capture any [`TraceSource`] to memory or disk and
//! replay it deterministically.
//!
//! CMP$im consumes Pin-captured trace files; this module provides the
//! equivalent capability so experiments can be re-run bit-identically,
//! shared, or driven from externally produced traces. The on-disk format
//! is a simple little-endian binary stream (see [`RecordedTrace::write_to`]).

use crate::trace::{Instruction, MemRef, TraceSource};
use std::io::{self, Read, Write};
use tla_snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use tla_types::{AccessKind, LineAddr};

/// Magic bytes identifying a trace file ("TLAT" + version 1).
const MAGIC: [u8; 4] = *b"TLA\x01";

/// A finite instruction trace held in memory, replayable as a
/// [`TraceSource`] (it loops when exhausted, so runs longer than the
/// recording still work).
///
/// # Examples
///
/// ```
/// use tla_workloads::{RecordedTrace, SpecApp, TraceSource};
///
/// let mut live = SpecApp::Mcf.trace(8, 0, 1);
/// let recorded = RecordedTrace::record(&mut live, 1000);
/// assert_eq!(recorded.len(), 1000);
///
/// // Replay matches a fresh generator exactly.
/// let mut fresh = SpecApp::Mcf.trace(8, 0, 1);
/// let mut replay = recorded.clone();
/// for _ in 0..1000 {
///     assert_eq!(replay.next_instruction(), fresh.next_instruction());
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedTrace {
    instructions: Vec<Instruction>,
    cursor: usize,
    laps: u64,
}

impl RecordedTrace {
    /// Captures `n` instructions from `source`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero (an empty trace cannot be replayed).
    pub fn record<S: TraceSource + ?Sized>(source: &mut S, n: usize) -> Self {
        assert!(n > 0, "cannot record an empty trace");
        let instructions = (0..n).map(|_| source.next_instruction()).collect();
        RecordedTrace {
            instructions,
            cursor: 0,
            laps: 0,
        }
    }

    /// Builds a trace directly from instructions.
    ///
    /// # Panics
    ///
    /// Panics if `instructions` is empty.
    pub fn from_instructions(instructions: Vec<Instruction>) -> Self {
        assert!(!instructions.is_empty(), "cannot replay an empty trace");
        RecordedTrace {
            instructions,
            cursor: 0,
            laps: 0,
        }
    }

    /// Number of recorded instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the trace is empty (never true for constructed values; kept
    /// for API completeness).
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// How many times replay has wrapped around to the beginning.
    pub fn laps(&self) -> u64 {
        self.laps
    }

    /// The recorded instructions.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Iterates over one recording pass without touching the replay
    /// cursor — the second (and third, and n-th) pass an offline analysis
    /// like the Belady oracle makes over a trace that is simultaneously
    /// being replayed.
    pub fn iter(&self) -> std::slice::Iter<'_, Instruction> {
        self.instructions.iter()
    }

    /// Resets the replay cursor to the beginning.
    pub fn rewind(&mut self) {
        self.cursor = 0;
        self.laps = 0;
    }

    /// Serializes the trace. Format: magic, u64 count, then per
    /// instruction: u64 code line, u8 kind tag (0 = none, 1 = load,
    /// 2 = store), and for memory instructions a u64 data line. All
    /// little-endian.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from `w`.
    pub fn write_to<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(&MAGIC)?;
        w.write_all(&(self.instructions.len() as u64).to_le_bytes())?;
        for i in &self.instructions {
            w.write_all(&i.code_line.raw().to_le_bytes())?;
            match i.mem {
                None => w.write_all(&[0u8])?,
                Some(m) => {
                    let tag: u8 = if m.kind.is_write() { 2 } else { 1 };
                    w.write_all(&[tag])?;
                    w.write_all(&m.addr.raw().to_le_bytes())?;
                }
            }
        }
        Ok(())
    }

    /// Deserializes a trace written by [`RecordedTrace::write_to`].
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] on a bad magic, tag or an
    /// empty trace, and propagates I/O errors from `r`.
    pub fn read_from<R: Read>(mut r: R) -> io::Result<Self> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a TLA trace file",
            ));
        }
        let mut buf8 = [0u8; 8];
        r.read_exact(&mut buf8)?;
        let n = u64::from_le_bytes(buf8) as usize;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "trace file contains no instructions",
            ));
        }
        // The count is untrusted until the body backs it: preallocate at
        // most a bounded prefix and let the vector grow from there, so a
        // corrupt length fails on the short read instead of aborting on a
        // huge allocation.
        let mut instructions = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            r.read_exact(&mut buf8)?;
            let code_line = LineAddr::new(u64::from_le_bytes(buf8));
            let mut tag = [0u8; 1];
            r.read_exact(&mut tag)?;
            let mem = match tag[0] {
                0 => None,
                1 | 2 => {
                    r.read_exact(&mut buf8)?;
                    Some(MemRef {
                        addr: LineAddr::new(u64::from_le_bytes(buf8)),
                        kind: if tag[0] == 2 {
                            AccessKind::Store
                        } else {
                            AccessKind::Load
                        },
                    })
                }
                t => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("invalid instruction tag {t}"),
                    ))
                }
            };
            instructions.push(Instruction { code_line, mem });
        }
        Ok(Self::from_instructions(instructions))
    }
}

impl<'a> IntoIterator for &'a RecordedTrace {
    type Item = &'a Instruction;
    type IntoIter = std::slice::Iter<'a, Instruction>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl TraceSource for RecordedTrace {
    fn next_instruction(&mut self) -> Instruction {
        let i = self.instructions[self.cursor];
        self.cursor += 1;
        if self.cursor == self.instructions.len() {
            self.cursor = 0;
            self.laps += 1;
        }
        i
    }
}

impl Snapshot for RecordedTrace {
    // The instruction payload is the workload, not mutable state: a resume
    // reloads the same trace file and only the replay cursor travels. The
    // recorded length is written too so a cursor from a different trace is
    // rejected instead of replayed out of phase.
    fn write_state(&self, w: &mut SnapshotWriter) {
        w.write_usize(self.instructions.len());
        w.write_usize(self.cursor);
        w.write_u64(self.laps);
    }

    fn read_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        let len = r.read_usize()?;
        if len != self.instructions.len() {
            return Err(SnapshotError::Mismatch(format!(
                "recorded trace: snapshot was taken over {len} instructions, \
                 this trace has {}",
                self.instructions.len()
            )));
        }
        let cursor = r.read_usize()?;
        if cursor >= len {
            return Err(SnapshotError::Corrupt(format!(
                "replay cursor {cursor} out of range for {len} instructions"
            )));
        }
        self.cursor = cursor;
        self.laps = r.read_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecApp;

    #[test]
    fn record_and_replay_matches_generator() {
        let mut live = SpecApp::Sjeng.trace(8, 0, 3);
        let mut rec = RecordedTrace::record(&mut live, 500);
        let mut fresh = SpecApp::Sjeng.trace(8, 0, 3);
        for _ in 0..500 {
            assert_eq!(rec.next_instruction(), fresh.next_instruction());
        }
        assert_eq!(rec.laps(), 1);
    }

    #[test]
    fn replay_loops_and_rewinds() {
        let mut live = SpecApp::DealII.trace(8, 0, 1);
        let mut rec = RecordedTrace::record(&mut live, 10);
        let first: Vec<_> = (0..10).map(|_| rec.next_instruction()).collect();
        let second: Vec<_> = (0..10).map(|_| rec.next_instruction()).collect();
        assert_eq!(first, second);
        assert_eq!(rec.laps(), 2);
        rec.rewind();
        assert_eq!(rec.laps(), 0);
        assert_eq!(rec.next_instruction(), first[0]);
    }

    #[test]
    fn iter_does_not_disturb_replay() {
        let mut live = SpecApp::Mcf.trace(8, 0, 7);
        let mut rec = RecordedTrace::record(&mut live, 20);
        for _ in 0..5 {
            rec.next_instruction();
        }
        let pass: Vec<_> = rec.iter().copied().collect();
        assert_eq!(pass.as_slice(), rec.instructions());
        assert_eq!(rec.iter().count(), 20);
        // The replay cursor is where the 6th call expects it.
        assert_eq!(rec.next_instruction(), pass[5]);
        let via_ref: Vec<_> = (&rec).into_iter().copied().collect();
        assert_eq!(via_ref, pass);
    }

    #[test]
    fn binary_roundtrip() {
        let mut live = SpecApp::Mcf.trace(8, 1, 9);
        let rec = RecordedTrace::record(&mut live, 300);
        let mut bytes = Vec::new();
        rec.write_to(&mut bytes).unwrap();
        let back = RecordedTrace::read_from(bytes.as_slice()).unwrap();
        assert_eq!(rec, back);
    }

    #[test]
    fn rejects_bad_magic_and_tags() {
        let err = RecordedTrace::read_from(&b"NOPE"[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&42u64.to_le_bytes());
        bytes.push(9); // invalid tag
        let err = RecordedTrace::read_from(bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_empty_trace_file() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&0u64.to_le_bytes());
        let err = RecordedTrace::read_from(bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn zero_length_recording_panics() {
        let mut live = SpecApp::Wrf.trace(8, 0, 1);
        let _ = RecordedTrace::record(&mut live, 0);
    }

    #[test]
    fn rejects_wrong_version_byte() {
        // The magic embeds the version ("TLA" + 0x01); a future version
        // must not be parsed as the current format.
        let mut live = SpecApp::Mcf.trace(8, 0, 2);
        let rec = RecordedTrace::record(&mut live, 5);
        let mut bytes = Vec::new();
        rec.write_to(&mut bytes).unwrap();
        bytes[3] = 0x02;
        let err = RecordedTrace::read_from(bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("not a TLA trace file"), "{err}");
    }

    #[test]
    fn huge_length_field_is_an_error_not_an_allocation() {
        // A header claiming u64::MAX (or ~2^40) instructions over a body
        // of one instruction must fail on the short read.
        for n in [u64::MAX, 1 << 40] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&MAGIC);
            bytes.extend_from_slice(&n.to_le_bytes());
            bytes.extend_from_slice(&42u64.to_le_bytes());
            bytes.push(0);
            let err = RecordedTrace::read_from(bytes.as_slice()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "n = {n}");
        }
    }

    #[test]
    fn rejects_truncated_file() {
        let mut live = SpecApp::Mcf.trace(8, 0, 2);
        let rec = RecordedTrace::record(&mut live, 50);
        let mut bytes = Vec::new();
        rec.write_to(&mut bytes).unwrap();
        // Cut mid-header, mid-count, mid-instruction and one byte short.
        for cut in [2, 8, bytes.len() / 2, bytes.len() - 1] {
            let err = RecordedTrace::read_from(&bytes[..cut]).unwrap_err();
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::UnexpectedEof,
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn save_load_save_is_byte_identical() {
        let mut live = SpecApp::Libquantum.trace(8, 2, 11);
        let rec = RecordedTrace::record(&mut live, 400);
        let mut first = Vec::new();
        rec.write_to(&mut first).unwrap();
        let back = RecordedTrace::read_from(first.as_slice()).unwrap();
        let mut second = Vec::new();
        back.write_to(&mut second).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn snapshot_restores_cursor_and_laps() {
        let mut live = SpecApp::Sjeng.trace(8, 0, 4);
        let mut rec = RecordedTrace::record(&mut live, 30);
        for _ in 0..42 {
            rec.next_instruction();
        }
        let mut w = SnapshotWriter::new();
        rec.write_state(&mut w);
        let state = w.finish();

        let mut resumed = rec.clone();
        resumed.rewind();
        let mut r = SnapshotReader::new(&state).unwrap();
        resumed.read_state(&mut r).unwrap();
        assert_eq!(resumed.laps(), rec.laps());
        for _ in 0..60 {
            assert_eq!(resumed.next_instruction(), rec.next_instruction());
        }

        // A cursor from a different-length trace is rejected.
        let mut other = RecordedTrace::record(&mut SpecApp::Sjeng.trace(8, 0, 4), 10);
        let mut r = SnapshotReader::new(&state).unwrap();
        let err = other.read_state(&mut r).unwrap_err();
        assert!(matches!(err, SnapshotError::Mismatch(_)), "{err:?}");
    }
}
