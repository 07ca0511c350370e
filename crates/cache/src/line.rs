//! Per-line metadata: validity, dirtiness and the LLC's core-valid
//! directory bits.

use std::fmt;
use tla_types::{CoreId, LineAddr};

/// Bitmap of cores that may hold a copy of an LLC line.
///
/// The paper models a Core i7-style directory: "a directory is maintained
/// with each LLC line to determine the cores to which a back-invalidate must
/// be sent" (§III-B footnote 1). Bits are conservative — a core may have
/// silently dropped a clean line without clearing its bit, which is exactly
/// why QBS *queries* the core caches instead of trusting the directory.
/// Under inclusion the bits are a superset of the holders, so QBS queries
/// only the cores whose bits are set.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default)]
pub struct CoreBitmap(u64);

impl CoreBitmap {
    /// The empty bitmap.
    pub const EMPTY: CoreBitmap = CoreBitmap(0);

    /// Creates a bitmap with a single core set.
    pub fn single(core: CoreId) -> Self {
        CoreBitmap(1u64 << core.index())
    }

    /// Sets the bit for `core`.
    pub fn insert(&mut self, core: CoreId) {
        self.0 |= 1u64 << core.index();
    }

    /// Clears the bit for `core`.
    pub fn remove(&mut self, core: CoreId) {
        self.0 &= !(1u64 << core.index());
    }

    /// Whether the bit for `core` is set.
    pub fn contains(self, core: CoreId) -> bool {
        self.0 & (1u64 << core.index()) != 0
    }

    /// Whether no bits are set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of cores marked as possible holders.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// The raw bit pattern, for checkpointing.
    #[must_use]
    pub fn to_raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a bitmap from a raw pattern captured by
    /// [`to_raw`](CoreBitmap::to_raw).
    #[must_use]
    pub fn from_raw(bits: u64) -> Self {
        CoreBitmap(bits)
    }

    /// Iterates over the cores whose bit is set, in ascending order.
    pub fn iter(self) -> impl Iterator<Item = CoreId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let idx = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(CoreId::new(idx))
            }
        })
    }
}

impl fmt::Debug for CoreBitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CoreBitmap({:#b})", self.0)
    }
}

impl FromIterator<CoreId> for CoreBitmap {
    fn from_iter<I: IntoIterator<Item = CoreId>>(iter: I) -> Self {
        let mut bm = CoreBitmap::EMPTY;
        for c in iter {
            bm.insert(c);
        }
        bm
    }
}

/// State of one cache line slot, assembled by value.
///
/// [`SetAssocCache`](crate::SetAssocCache) stores line metadata
/// struct-of-arrays (packed per-set bitmaps plus flat per-way arrays); this
/// type is the gathered per-line view its `iter_valid` yields for tests and
/// invariant checks — it is not the storage format.
///
/// `repl` is policy-private replacement state managed by
/// [`Replacer`](crate::Replacer); callers should not interpret it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineState {
    /// Line address held by this slot (meaningful only when `valid`).
    pub addr: LineAddr,
    /// Whether the slot holds a line.
    pub valid: bool,
    /// Whether the held line is dirty (needs write-back on eviction).
    pub dirty: bool,
    /// Directory bits: cores that may hold this line (LLC only; unused in
    /// core caches).
    pub cores: CoreBitmap,
    /// One spare metadata bit for management policies (ECI uses it to mark
    /// early-invalidated lines so rescues can be counted).
    pub tag: bool,
    /// Replacement-policy private state.
    pub repl: u64,
}

impl LineState {
    /// An invalid (empty) slot.
    pub const INVALID: LineState = LineState {
        addr: LineAddr::new(0),
        valid: false,
        dirty: false,
        cores: CoreBitmap::EMPTY,
        tag: false,
        repl: 0,
    };
}

impl Default for LineState {
    fn default() -> Self {
        LineState::INVALID
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_insert_remove_contains() {
        let mut bm = CoreBitmap::EMPTY;
        assert!(bm.is_empty());
        bm.insert(CoreId::new(0));
        bm.insert(CoreId::new(5));
        assert!(bm.contains(CoreId::new(0)));
        assert!(bm.contains(CoreId::new(5)));
        assert!(!bm.contains(CoreId::new(1)));
        assert_eq!(bm.len(), 2);
        bm.remove(CoreId::new(0));
        assert!(!bm.contains(CoreId::new(0)));
        assert_eq!(bm.len(), 1);
    }

    #[test]
    fn bitmap_iter_ascending() {
        let bm: CoreBitmap = [CoreId::new(3), CoreId::new(1), CoreId::new(63)]
            .into_iter()
            .collect();
        let cores: Vec<usize> = bm.iter().map(|c| c.index()).collect();
        assert_eq!(cores, vec![1, 3, 63]);
    }

    #[test]
    fn bitmap_single() {
        let bm = CoreBitmap::single(CoreId::new(2));
        assert_eq!(bm.len(), 1);
        assert!(bm.contains(CoreId::new(2)));
    }

    #[test]
    fn invalid_line_is_default() {
        let l = LineState::default();
        assert!(!l.valid);
        assert!(!l.dirty);
        assert!(l.cores.is_empty());
    }
}
