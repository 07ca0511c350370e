//! A small fully-associative victim cache.
//!
//! §VI compares ECI/QBS against "an inclusive LLC backed by a 32-entry
//! victim cache" (the Fletcher et al. approach): lines evicted from the LLC
//! park here with their directory bits, inclusion back-invalidation is
//! deferred until a line falls out of the victim cache, and an LLC miss that
//! hits the victim cache is rescued back into the LLC.
//!
//! Entries are stored struct-of-arrays so the fully-associative address scan
//! runs over a dense `LineAddr` slice through [`probe::find_index`] — the
//! same SIMD-or-scalar kernel the set-associative caches use. At the
//! paper's 32 entries the scan is cheap either way; the >64-entry sweeps in
//! EXPERIMENTS.md are where the kernel pays.

use crate::line::CoreBitmap;
use crate::probe;
use tla_snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use tla_types::LineAddr;

/// One parked line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VictimEntry {
    /// The parked line.
    pub addr: LineAddr,
    /// Whether it is dirty.
    pub dirty: bool,
    /// Directory bits it carried when evicted from the LLC.
    pub cores: CoreBitmap,
}

/// Fully-associative LRU victim cache.
///
/// Parallel arrays indexed by entry slot; `addrs` is the dense probe target,
/// the other arrays carry the per-entry payload. All four always have the
/// same length.
#[derive(Debug, Clone)]
pub struct VictimCache {
    addrs: Vec<LineAddr>,
    dirty: Vec<bool>,
    cores: Vec<CoreBitmap>,
    stamps: Vec<u64>,
    capacity: usize,
    stamp: u64,
    hits: u64,
    lookups: u64,
}

impl VictimCache {
    /// Creates an empty victim cache holding up to `capacity` lines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "victim cache capacity must be at least 1");
        VictimCache {
            addrs: Vec::with_capacity(capacity),
            dirty: Vec::with_capacity(capacity),
            cores: Vec::with_capacity(capacity),
            stamps: Vec::with_capacity(capacity),
            capacity,
            stamp: 0,
            hits: 0,
            lookups: 0,
        }
    }

    /// Capacity in lines.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy in lines.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the victim cache is empty.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Lookups that hit.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    fn swap_remove(&mut self, i: usize) -> VictimEntry {
        let e = VictimEntry {
            addr: self.addrs.swap_remove(i),
            dirty: self.dirty.swap_remove(i),
            cores: self.cores.swap_remove(i),
        };
        self.stamps.swap_remove(i);
        e
    }

    /// Inserts a line evicted from the LLC. If the victim cache is full its
    /// LRU entry is displaced and returned — the caller must then perform
    /// the deferred inclusion back-invalidation for that entry.
    pub fn insert(&mut self, entry: VictimEntry) -> Option<VictimEntry> {
        debug_assert!(
            probe::find_index(&self.addrs, entry.addr).is_none(),
            "line already parked in victim cache"
        );
        self.stamp += 1;
        let displaced = if self.addrs.len() == self.capacity {
            // The stamps are unique, so the min-reduce kernel's
            // first-minimum pick is exactly the LRU entry.
            let lru = probe::min_index(&self.stamps).expect("full victim cache has entries");
            Some(self.swap_remove(lru))
        } else {
            None
        };
        self.addrs.push(entry.addr);
        self.dirty.push(entry.dirty);
        self.cores.push(entry.cores);
        self.stamps.push(self.stamp);
        displaced
    }

    /// Removes and returns `line` if parked here (an LLC miss rescuing the
    /// line back). Counts as a lookup.
    pub fn take(&mut self, line: LineAddr) -> Option<VictimEntry> {
        self.lookups += 1;
        let pos = probe::find_index(&self.addrs, line)?;
        self.hits += 1;
        Some(self.swap_remove(pos))
    }

    /// The directory bits `line` was parked with, if it is parked here;
    /// the entry stays put.
    pub fn sharers(&self, line: LineAddr) -> Option<CoreBitmap> {
        probe::find_index(&self.addrs, line).map(|i| self.cores[i])
    }

    /// Every core named by a parked entry's directory bits. A decoder
    /// checks it against the core count.
    pub fn directory_union(&self) -> CoreBitmap {
        CoreBitmap::from_raw(self.cores.iter().fold(0, |acc, c| acc | c.to_raw()))
    }

    /// Marks a parked line dirty (a core wrote back while the line was
    /// parked with deferred back-invalidation). Returns `true` if the line
    /// was present.
    pub fn mark_dirty(&mut self, line: LineAddr) -> bool {
        match probe::find_index(&self.addrs, line) {
            Some(i) => {
                self.dirty[i] = true;
                true
            }
            None => false,
        }
    }
}

impl Snapshot for VictimCache {
    // `swap_remove` makes entry order part of the state (it decides future
    // swap positions), so entries travel in slot order with their stamps.
    // The interleaved per-entry layout predates the struct-of-arrays
    // storage and is kept so existing images stay byte-compatible.
    fn write_state(&self, w: &mut SnapshotWriter) {
        w.write_u64(self.addrs.len() as u64);
        for i in 0..self.addrs.len() {
            w.write_u64(self.addrs[i].raw());
            w.write_bool(self.dirty[i]);
            w.write_u64(self.cores[i].to_raw());
            w.write_u64(self.stamps[i]);
        }
        w.write_u64(self.stamp);
        w.write_u64(self.hits);
        w.write_u64(self.lookups);
    }

    fn read_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        let n = r.read_usize()?;
        if n > self.capacity {
            return Err(SnapshotError::Mismatch(format!(
                "victim cache: snapshot has {n} entries, capacity is {}",
                self.capacity
            )));
        }
        self.addrs.clear();
        self.dirty.clear();
        self.cores.clear();
        self.stamps.clear();
        for _ in 0..n {
            self.addrs.push(LineAddr::new(r.read_u64()?));
            self.dirty.push(r.read_bool()?);
            self.cores.push(CoreBitmap::from_raw(r.read_u64()?));
            self.stamps.push(r.read_u64()?);
        }
        self.stamp = r.read_u64()?;
        self.hits = r.read_u64()?;
        self.lookups = r.read_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(n: u64) -> VictimEntry {
        VictimEntry {
            addr: LineAddr::new(n),
            dirty: n % 2 == 1,
            cores: CoreBitmap::EMPTY,
        }
    }

    #[test]
    fn insert_then_take() {
        let mut vc = VictimCache::new(4);
        assert!(vc.insert(entry(1)).is_none());
        assert_eq!(vc.len(), 1);
        let got = vc.take(LineAddr::new(1)).unwrap();
        assert_eq!(got.addr, LineAddr::new(1));
        assert!(got.dirty);
        assert!(vc.is_empty());
        assert_eq!(vc.hits(), 1);
        assert_eq!(vc.lookups(), 1);
    }

    #[test]
    fn take_missing_counts_lookup() {
        let mut vc = VictimCache::new(2);
        assert!(vc.take(LineAddr::new(9)).is_none());
        assert_eq!(vc.lookups(), 1);
        assert_eq!(vc.hits(), 0);
    }

    #[test]
    fn overflows_displace_lru() {
        let mut vc = VictimCache::new(2);
        vc.insert(entry(1));
        vc.insert(entry(2));
        let displaced = vc.insert(entry(3)).unwrap();
        assert_eq!(displaced.addr, LineAddr::new(1));
        assert!(vc.sharers(LineAddr::new(2)).is_some());
        assert!(vc.sharers(LineAddr::new(3)).is_some());
        assert_eq!(vc.len(), 2);
    }

    #[test]
    fn sharers_reports_parked_bits_without_removal() {
        let mut vc = VictimCache::new(2);
        let bits = CoreBitmap::from_raw(0b1010);
        vc.insert(VictimEntry {
            cores: bits,
            ..entry(6)
        });
        assert_eq!(vc.sharers(LineAddr::new(6)), Some(bits));
        assert_eq!(vc.len(), 1, "sharers must not remove the entry");
        assert_eq!(vc.lookups(), 0, "sharers is not a lookup");
    }

    #[test]
    fn take_refreshes_nothing_but_removal_order_respected() {
        let mut vc = VictimCache::new(2);
        vc.insert(entry(1));
        vc.insert(entry(2));
        // Rescue 1; inserting 3 then 4 should displace 2 first.
        vc.take(LineAddr::new(1));
        vc.insert(entry(3));
        let displaced = vc.insert(entry(4)).unwrap();
        assert_eq!(displaced.addr, LineAddr::new(2));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_panics() {
        let _ = VictimCache::new(0);
    }

    #[test]
    fn large_victim_cache_scans_correctly() {
        // 128 entries exercises the kernel's chunked scan well past one
        // 8-lane step (§VI high-associativity sweep geometry).
        let mut vc = VictimCache::new(128);
        for i in 0..128 {
            vc.insert(entry(i));
        }
        assert_eq!(vc.len(), 128);
        for i in [0u64, 7, 63, 64, 65, 127] {
            assert!(vc.sharers(LineAddr::new(i)).is_some(), "entry {i}");
        }
        assert!(vc.sharers(LineAddr::new(500)).is_none());
        // Full: next insert displaces the LRU entry (stamp 1 = line 0).
        let displaced = vc.insert(entry(200)).unwrap();
        assert_eq!(displaced.addr, LineAddr::new(0));
        let got = vc.take(LineAddr::new(127)).unwrap();
        assert_eq!(got.addr, LineAddr::new(127));
        assert!(got.dirty);
    }

    #[test]
    fn snapshot_roundtrip_preserves_slot_order() {
        let mut vc = VictimCache::new(8);
        for i in 0..8 {
            vc.insert(entry(i));
        }
        vc.take(LineAddr::new(3)); // swap_remove scrambles slot order
        vc.insert(entry(20));
        let mut w = SnapshotWriter::new();
        vc.write_state(&mut w);
        let bytes = w.finish();
        let mut fresh = VictimCache::new(8);
        let mut r = SnapshotReader::new(&bytes).unwrap();
        fresh.read_state(&mut r).unwrap();
        assert_eq!(fresh.addrs, vc.addrs);
        assert_eq!(fresh.stamps, vc.stamps);
        let mut w2 = SnapshotWriter::new();
        fresh.write_state(&mut w2);
        assert_eq!(
            bytes,
            w2.finish(),
            "restored state reserializes identically"
        );
    }
}

#[cfg(test)]
mod dirty_tests {
    use super::*;

    #[test]
    fn mark_dirty_on_parked_line() {
        let mut vc = VictimCache::new(2);
        vc.insert(VictimEntry {
            addr: LineAddr::new(4),
            dirty: false,
            cores: CoreBitmap::EMPTY,
        });
        assert!(vc.mark_dirty(LineAddr::new(4)));
        assert!(!vc.mark_dirty(LineAddr::new(5)));
        let e = vc.take(LineAddr::new(4)).unwrap();
        assert!(e.dirty, "dirty writeback must stick to the parked line");
    }
}
