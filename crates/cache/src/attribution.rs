//! Miss attribution: cold / capacity / inclusion-victim classification.
//!
//! The paper's central claim is that inclusion's cost is concentrated in
//! *inclusion victims* — lines the LLC forcibly removed from the core
//! caches that the core then missed on (§II). End-of-run victim counts
//! show how many lines were back-invalidated, but not how many of those
//! removals actually *cost a miss*. This module observes the cost at the
//! point it is paid: each core keeps a [`VictimTracker`] that remembers
//! which of its lines the LLC killed (and why), and every core-cache
//! demand miss is classified as
//!
//! * **cold** — the core never touched the line before;
//! * **capacity** — the line was touched before and aged out of the core
//!   caches on its own (capacity/conflict, a normal miss);
//! * **inclusion victim** — the line was last removed by the LLC
//!   (back-invalidate, ECI early invalidate, or a deferred victim-cache
//!   displacement), tagged with the [`VictimCause`] of that removal.
//!
//! The cause taxonomy distinguishes the LLC policy decision behind the
//! kill, so reports can show e.g. how many of QBS's residual victim
//! misses come from its query limit rather than from approved evictions.

use tla_snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use tla_types::{LineAddr, LinePages};

/// The LLC policy decision that removed a line from a core's caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VictimCause {
    /// An ordinary replacement decision back-invalidated the line
    /// (including a QBS-*approved* eviction and the baseline NRU/LRU
    /// victim picks).
    Replacement,
    /// QBS hit its query limit and evicted a line the core caches still
    /// held — the paper's residual-victim case (§V-C).
    QbsLimit,
    /// ECI invalidated the line early, ahead of its LLC eviction (§V-B).
    Eci,
    /// The line's deferred back-invalidate fired when it fell out of the
    /// victim cache while still core-resident (§VI).
    VictimCacheOverflow,
    /// A device (DDIO-style DMA) injection into the LLC evicted the line
    /// while the core caches still held it — app damage caused by I/O
    /// traffic, not by any core's demand stream.
    IoInjection,
}

impl VictimCause {
    /// Every cause, in declaration order (stable encode indices).
    pub const ALL: [VictimCause; 5] = [
        VictimCause::Replacement,
        VictimCause::QbsLimit,
        VictimCause::Eci,
        VictimCause::VictimCacheOverflow,
        VictimCause::IoInjection,
    ];

    /// Stable machine-readable name (used as a report column).
    pub const fn name(self) -> &'static str {
        match self {
            VictimCause::Replacement => "replacement",
            VictimCause::QbsLimit => "qbs_limit",
            VictimCause::Eci => "eci",
            VictimCause::VictimCacheOverflow => "victim_cache",
            VictimCause::IoInjection => "io_injection",
        }
    }

    /// Dense index into [`VictimCause::ALL`] (snapshot encoding).
    pub const fn index(self) -> u8 {
        self as u8
    }

    /// Inverse of [`VictimCause::index`].
    pub fn from_index(i: u8) -> Option<VictimCause> {
        VictimCause::ALL.get(i as usize).copied()
    }
}

/// Classification of one core-cache demand miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissClass {
    /// First touch of the line by this core.
    Cold,
    /// The line aged out of the core caches on its own.
    Capacity,
    /// The LLC removed the line; the cause of that removal.
    InclusionVictim(VictimCause),
}

/// Per-core miss-attribution state.
///
/// `note_kill` records that the LLC removed a line from this core's
/// caches (only called when the removal actually took something out);
/// `classify` consumes that record at the next demand miss on the line.
/// A kill that is never re-missed costs nothing and is simply overwritten
/// or left behind — the tracker charges misses, not messages.
///
/// The state lives in 64-line `TrackerPage`s of a [`LinePages`] table,
/// 32 bytes per page, so a core that sweeps its footprint pays under a
/// byte and a half per line it ever touched (`tests/tracker_memory.rs`).
#[derive(Debug, Clone, Default)]
pub struct VictimTracker {
    pages: LinePages<TrackerPage>,
    /// Lines with an outstanding kill.
    kills: usize,
    /// Lines with the first-touch mark.
    seen: usize,
}

/// The tracker's state for one aligned block of 64 lines.
#[derive(Debug, Clone, Copy, Default)]
struct TrackerPage {
    /// Bit `b`: the core has demand-missed on line `b` of the page.
    seen: u64,
    /// Bit `b` of plane `i` is bit `i` of line `b`'s kill code: 0 for no
    /// outstanding kill, else `1 +` the [`VictimCause::index`] of the kill.
    cause: [u64; 3],
}

impl TrackerPage {
    /// The cause of line `bit`'s outstanding kill, if any.
    fn kill(&self, bit: usize) -> Option<VictimCause> {
        let code = (0..3).fold(0u8, |code, i| {
            code | (((self.cause[i] >> bit) & 1) as u8) << i
        });
        code.checked_sub(1).and_then(VictimCause::from_index)
    }

    /// Sets line `bit`'s kill code (`None` clears it).
    fn set_kill(&mut self, bit: usize, cause: Option<VictimCause>) {
        let code = cause.map_or(0, |c| c.index() + 1);
        for (i, plane) in self.cause.iter_mut().enumerate() {
            *plane = (*plane & !(1 << bit)) | (u64::from(code >> i) & 1) << bit;
        }
    }

    /// Sets line `bit`'s first-touch mark and returns whether it was clear.
    fn mark_seen(&mut self, bit: usize) -> bool {
        let first = self.seen & 1 << bit == 0;
        self.seen |= 1 << bit;
        first
    }
}

impl VictimTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that the LLC removed `line` from this core's caches
    /// because of `cause`. A later kill of the same line overwrites the
    /// earlier cause (the most recent removal is the one the next miss
    /// pays for).
    #[inline]
    pub fn note_kill(&mut self, line: LineAddr, cause: VictimCause) {
        let (page, bit) = self.pages.page_mut(line);
        self.kills += usize::from(page.kill(bit).is_none());
        page.set_kill(bit, Some(cause));
    }

    /// Classifies a demand miss on `line`, updating the tracker: an
    /// outstanding kill makes it an inclusion-victim miss (consuming the
    /// kill), a previously-seen line is a capacity miss, a never-seen
    /// line is cold.
    #[inline]
    pub fn classify(&mut self, line: LineAddr) -> MissClass {
        let (page, bit) = self.pages.page_mut(line);
        let first = page.mark_seen(bit);
        self.seen += usize::from(first);
        if let Some(cause) = page.kill(bit) {
            page.set_kill(bit, None);
            self.kills -= 1;
            MissClass::InclusionVictim(cause)
        } else if first {
            MissClass::Cold
        } else {
            MissClass::Capacity
        }
    }

    /// Outstanding (unconsumed) kills.
    pub fn pending_kills(&self) -> usize {
        self.kills
    }

    /// Distinct lines this core has missed on.
    pub fn lines_seen(&self) -> usize {
        self.seen
    }
}

/// Reads a count-prefixed, strictly increasing list of lines, handing
/// each to `each` with the reader positioned after it. Nothing is sized
/// from the count: an inflated one runs out of bytes and fails there.
fn read_lines(
    r: &mut SnapshotReader,
    what: &str,
    mut each: impl FnMut(&mut SnapshotReader, LineAddr) -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError> {
    let n = r.read_u64()?;
    let mut prev = None;
    for _ in 0..n {
        let line = r.read_u64()?;
        if prev.is_some_and(|p| line <= p) {
            return Err(SnapshotError::Corrupt(format!(
                "victim tracker: {what} list is not strictly increasing at line {line:#x}"
            )));
        }
        prev = Some(line);
        each(r, LineAddr::new(line))?;
    }
    Ok(())
}

impl Snapshot for VictimTracker {
    // Pages are walked in line order and bits in ascending order, so the
    // kill and seen lists come out sorted: the same logical state always
    // serializes to the same bytes.
    fn write_state(&self, w: &mut SnapshotWriter) {
        let lines = |bits: fn(&TrackerPage) -> u64| {
            self.pages.iter_sorted().flat_map(move |(base, page)| {
                let set = bits(page);
                (0..64)
                    .filter(move |b| set >> b & 1 == 1)
                    .map(move |b| (base.step(b), page, b as usize))
            })
        };
        w.write_u64(self.kills as u64);
        for (line, page, bit) in lines(|p| p.cause[0] | p.cause[1] | p.cause[2]) {
            let cause = page.kill(bit).expect("a nonzero kill code names a cause");
            w.write_u64(line.raw());
            w.write_u64(u64::from(cause.index()));
        }
        w.write_u64(self.seen as u64);
        for (line, _, _) in lines(|p| p.seen) {
            w.write_u64(line.raw());
        }
    }

    /// Accepts only the canonical encoding `write_state` emits — each
    /// list strictly increasing, every cause index known — so the counts
    /// always match the contents and re-encoding an accepted image
    /// reproduces it byte for byte.
    fn read_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        let mut t = VictimTracker::new();
        read_lines(r, "kill", |r, line| {
            let raw = r.read_u64()?;
            let cause = u8::try_from(raw)
                .ok()
                .and_then(VictimCause::from_index)
                .ok_or_else(|| {
                    SnapshotError::Corrupt(format!("victim tracker: unknown cause index {raw}"))
                })?;
            t.note_kill(line, cause);
            Ok(())
        })?;
        read_lines(r, "seen", |_, line| {
            let (page, bit) = t.pages.page_mut(line);
            t.seen += usize::from(page.mark_seen(bit));
            Ok(())
        })?;
        *self = t;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_is_cold_then_capacity() {
        let mut t = VictimTracker::new();
        let line = LineAddr::new(7);
        assert_eq!(t.classify(line), MissClass::Cold);
        assert_eq!(t.classify(line), MissClass::Capacity);
        assert_eq!(t.lines_seen(), 1);
    }

    #[test]
    fn kill_turns_next_miss_into_inclusion_victim_once() {
        let mut t = VictimTracker::new();
        let line = LineAddr::new(9);
        assert_eq!(t.classify(line), MissClass::Cold);
        t.note_kill(line, VictimCause::Replacement);
        assert_eq!(t.pending_kills(), 1);
        assert_eq!(
            t.classify(line),
            MissClass::InclusionVictim(VictimCause::Replacement)
        );
        // The kill is consumed: the next miss is an ordinary capacity miss.
        assert_eq!(t.classify(line), MissClass::Capacity);
        assert_eq!(t.pending_kills(), 0);
    }

    #[test]
    fn later_kill_overwrites_cause() {
        let mut t = VictimTracker::new();
        let line = LineAddr::new(3);
        t.note_kill(line, VictimCause::Eci);
        t.note_kill(line, VictimCause::VictimCacheOverflow);
        assert_eq!(
            t.classify(line),
            MissClass::InclusionVictim(VictimCause::VictimCacheOverflow)
        );
    }

    #[test]
    fn kill_before_first_touch_still_counts_as_victim() {
        // A kill can only be noted for a line the core held, so by
        // construction the core has seen it — but the tracker itself does
        // not assume that ordering.
        let mut t = VictimTracker::new();
        let line = LineAddr::new(11);
        t.note_kill(line, VictimCause::QbsLimit);
        assert_eq!(
            t.classify(line),
            MissClass::InclusionVictim(VictimCause::QbsLimit)
        );
    }

    #[test]
    fn cause_indices_round_trip() {
        for cause in VictimCause::ALL {
            assert_eq!(VictimCause::from_index(cause.index()), Some(cause));
        }
        assert_eq!(VictimCause::from_index(5), None);
        let mut names: Vec<_> = VictimCause::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), VictimCause::ALL.len());
    }

    #[test]
    fn snapshot_is_sorted_and_round_trips() {
        let mut t = VictimTracker::new();
        for i in (0..50).rev() {
            t.classify(LineAddr::new(i * 3));
        }
        t.note_kill(LineAddr::new(9), VictimCause::Eci);
        t.note_kill(LineAddr::new(3), VictimCause::Replacement);
        t.note_kill(LineAddr::new(141), VictimCause::QbsLimit);

        let mut w = SnapshotWriter::new();
        t.write_state(&mut w);
        let bytes = w.finish();

        let mut fresh = VictimTracker::new();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        fresh.read_state(&mut r).unwrap();
        assert_eq!(fresh.pending_kills(), 3);
        assert_eq!(fresh.lines_seen(), 50);
        assert_eq!(
            fresh.classify(LineAddr::new(9)),
            MissClass::InclusionVictim(VictimCause::Eci)
        );

        // Same logical state, different insertion order → same bytes.
        let mut t2 = VictimTracker::new();
        for i in 0..50 {
            t2.classify(LineAddr::new(i * 3));
        }
        t2.note_kill(LineAddr::new(141), VictimCause::QbsLimit);
        t2.note_kill(LineAddr::new(3), VictimCause::Replacement);
        t2.note_kill(LineAddr::new(9), VictimCause::Eci);
        let mut w2 = SnapshotWriter::new();
        t2.write_state(&mut w2);
        assert_eq!(bytes, w2.finish());
    }

    /// Decodes one tracker section.
    fn decode(bytes: &[u8]) -> Result<VictimTracker, SnapshotError> {
        let mut t = VictimTracker::new();
        t.read_state(&mut SnapshotReader::new(bytes)?)?;
        Ok(t)
    }

    /// A tracker section: `kills` as `(line, cause index)` pairs, then
    /// `seen`, each behind the given count.
    fn section(kill_count: u64, kills: &[(u64, u64)], seen_count: u64, seen: &[u64]) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.write_u64(kill_count);
        for &(line, cause) in kills {
            w.write_u64(line);
            w.write_u64(cause);
        }
        w.write_u64(seen_count);
        for &line in seen {
            w.write_u64(line);
        }
        w.finish()
    }

    fn encode(t: &VictimTracker) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        t.write_state(&mut w);
        w.finish()
    }

    /// Inflated counts used to size a map up front: 2^40 aborted the
    /// process on allocation and 2^62 panicked on capacity overflow.
    #[test]
    fn inflated_counts_are_errors() {
        for n in [1u64 << 40, 1 << 62, u64::MAX] {
            assert!(
                decode(&section(n, &[(1, 0)], 0, &[])).is_err(),
                "kill count {n}"
            );
            assert!(
                decode(&section(0, &[], n, &[1, 2])).is_err(),
                "seen count {n}"
            );
        }
    }

    #[test]
    fn non_canonical_lists_are_corrupt() {
        let corrupt = |bytes: Vec<u8>| matches!(decode(&bytes), Err(SnapshotError::Corrupt(_)));
        assert!(
            corrupt(section(2, &[(5, 0), (5, 1)], 0, &[])),
            "repeated kill"
        );
        assert!(
            corrupt(section(2, &[(6, 0), (5, 1)], 0, &[])),
            "descending kills"
        );
        assert!(corrupt(section(0, &[], 2, &[9, 9])), "repeated seen line");
        assert!(
            corrupt(section(0, &[], 2, &[70, 3])),
            "descending seen lines"
        );
        for cause in [5u64, 255, 256, u64::MAX] {
            assert!(corrupt(section(1, &[(5, cause)], 0, &[])), "cause {cause}");
        }
        // A rejected image leaves the receiver untouched.
        let mut t = VictimTracker::new();
        t.note_kill(LineAddr::new(1), VictimCause::Eci);
        let bad = section(1, &[(5, 9)], 0, &[]);
        assert!(t
            .read_state(&mut SnapshotReader::new(&bad).unwrap())
            .is_err());
        assert_eq!(t.pending_kills(), 1);
    }

    /// Every image the decoder accepts re-encodes to the same bytes, and
    /// every image the encoder writes is accepted.
    #[test]
    fn accepted_images_re_encode_byte_identically() {
        use tla_rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(0xA771);
        let mut accepted = 0;
        for case in 0..2000 {
            let list = |rng: &mut SmallRng| -> Vec<u64> {
                let len = rng.gen_range(0..40usize);
                let span = [64u64, 4096, u64::MAX][case % 3];
                let mut v: Vec<u64> = (0..len).map(|_| rng.next_u64() % span).collect();
                if rng.gen_range(0..4u64) != 0 {
                    v.sort_unstable();
                    v.dedup();
                }
                v
            };
            let kill_lines = list(&mut rng);
            let seen = list(&mut rng);
            let kills: Vec<(u64, u64)> = kill_lines
                .iter()
                .map(|&l| {
                    // Now and then an unknown cause index.
                    let cause = if rng.gen_range(0..64u64) == 0 {
                        5
                    } else {
                        rng.gen_range(0..5u64)
                    };
                    (l, cause)
                })
                .collect();
            let bytes = section(kills.len() as u64, &kills, seen.len() as u64, &seen);
            if let Ok(t) = decode(&bytes) {
                accepted += 1;
                assert_eq!(encode(&t), bytes, "case {case}");
                assert_eq!(t.pending_kills(), kills.len());
                assert_eq!(t.lines_seen(), seen.len());
            }
        }
        assert!(accepted > 500, "only {accepted} images accepted");
    }
}
