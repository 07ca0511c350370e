//! Per-line state kept in 64-line pages.
//!
//! Simulator bookkeeping that remembers something about every line ever
//! touched (a core's first-touch and kill marks, the MIN oracle's latest
//! reference per line, the reuse profiler's previous-access clocks) would
//! cost a hash-map entry per line. Programs touch lines in runs, so
//! [`LinePages`] instead stores one page per aligned block of
//! [`PAGE_LINES`] lines and leaves the per-line layout to the page type:
//! a bitmap costs bits per line, a slot array a few bytes, a bitmap with
//! values packed by rank a word per present line.

use crate::LineAddr;

/// Lines per [`LinePages`] page.
pub const PAGE_LINES: usize = 64;

/// log2 of [`PAGE_LINES`].
const PAGE_SHIFT: u32 = PAGE_LINES.trailing_zeros();

/// 2^64 divided by the golden ratio. Multiplying by it carries every key
/// bit into the product's high bits, which the slot table indexes by.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// A map from line addresses to pages of per-line state: one `P` per
/// aligned block of [`PAGE_LINES`] lines, created on first use.
///
/// Pages live in a `Vec` in creation order, each beside its page number;
/// an open-addressed slot table (linear probing, Fibonacci hashing of
/// the page number, at most 3/4 full) maps page numbers to them. Growing
/// the table rebuilds it from the page numbers alone, so the old table
/// is freed before the new one is allocated and growth never holds two
/// tables at once. A page of `B` bytes therefore costs `B + 8` bytes plus
/// 4–5 bytes of slots, up to twice that while the `Vec` has just doubled.
#[derive(Debug, Clone)]
pub struct LinePages<P> {
    /// `0` is an empty slot; `i + 1` names page `i`.
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: a page number's home slot is the top
    /// bits of its product with [`GOLDEN`].
    shift: u32,
    /// Each page with its page number (`line >> 6`).
    pages: Vec<(u64, P)>,
}

impl<P> Default for LinePages<P> {
    fn default() -> Self {
        LinePages {
            slots: Vec::new(),
            shift: 64,
            pages: Vec::new(),
        }
    }
}

impl<P: Default> LinePages<P> {
    /// An empty table (allocates nothing until the first page).
    pub fn new() -> Self {
        Self::default()
    }

    /// The page holding `line`, created as `P::default()` if absent, and
    /// the line's index within it (`0..PAGE_LINES`).
    pub fn page_mut(&mut self, line: LineAddr) -> (&mut P, usize) {
        let key = line.raw() >> PAGE_SHIFT;
        let bit = (line.raw() % PAGE_LINES as u64) as usize;
        let page = match self.find(key) {
            Ok(page) => page,
            Err(slot) => self.insert(key, slot),
        };
        (&mut self.pages[page].1, bit)
    }

    /// The index of page number `key`, or the empty slot where it would
    /// go (`usize::MAX` when the table has no slots yet).
    fn find(&self, key: u64) -> Result<usize, usize> {
        if self.slots.is_empty() {
            return Err(usize::MAX);
        }
        let mask = self.slots.len() - 1;
        let mut s = self.home(key);
        loop {
            match self.slots[s] {
                0 => return Err(s),
                i if self.pages[i as usize - 1].0 == key => return Ok(i as usize - 1),
                _ => s = (s + 1) & mask,
            }
        }
    }

    fn home(&self, key: u64) -> usize {
        // `shift` is 64 only while `slots` is empty, and `find` never
        // hashes then.
        (key.wrapping_mul(GOLDEN) >> self.shift) as usize
    }

    /// Appends a default page for `key`, whose probe ended at empty
    /// `slot`, and returns its index.
    fn insert(&mut self, key: u64, mut slot: usize) -> usize {
        let page = self.pages.len();
        if 4 * (page + 1) > 3 * self.slots.len() {
            self.grow();
            slot = self.find(key).expect_err("a new page is absent");
        }
        self.slots[slot] = u32::try_from(page + 1).expect("fewer than 2^32 pages");
        self.pages.push((key, P::default()));
        page
    }

    /// Doubles the slot table (16 slots at first) and re-files every page.
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(16);
        // Free the old table before allocating the new one.
        self.slots = Vec::new();
        self.slots = vec![0; len];
        self.shift = 64 - len.trailing_zeros();
        let mask = len - 1;
        for (i, &(key, _)) in (1u32..).zip(&self.pages) {
            let mut s = self.home(key);
            while self.slots[s] != 0 {
                s = (s + 1) & mask;
            }
            self.slots[s] = i;
        }
    }
}

impl<P> LinePages<P> {
    /// Every page with the first line it covers, in ascending line order.
    pub fn iter_sorted(&self) -> impl Iterator<Item = (LineAddr, &P)> {
        let mut sorted: Vec<&(u64, P)> = self.pages.iter().collect();
        sorted.sort_unstable_by_key(|&&(key, _)| key);
        sorted
            .into_iter()
            .map(|(key, page)| (LineAddr::new(key << PAGE_SHIFT), page))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use tla_rng::SmallRng;

    #[test]
    fn pages_group_aligned_blocks_of_lines() {
        let mut t: LinePages<u64> = LinePages::new();
        for raw in [0u64, 63, 64, 130, 1 << 40] {
            let (page, bit) = t.page_mut(LineAddr::new(raw));
            assert_eq!(bit, (raw % 64) as usize);
            *page |= 1 << bit;
        }
        let pages: Vec<(u64, u64)> = t.iter_sorted().map(|(l, &p)| (l.raw(), p)).collect();
        assert_eq!(
            pages,
            vec![(0, 1 | 1 << 63), (64, 1), (128, 1 << 2), (1 << 40, 1),]
        );
    }

    /// The table agrees with an ordered map over dense, strided and
    /// sparse keys, across many slot-table growths.
    #[test]
    fn matches_an_ordered_map() {
        let mut rng = SmallRng::seed_from_u64(0x9A6E);
        for stride in [1u64, 64, 64 << 12, 0] {
            let mut t: LinePages<u32> = LinePages::new();
            let mut model: BTreeMap<u64, u32> = BTreeMap::new();
            for i in 0..20_000u64 {
                let raw = if stride == 0 {
                    rng.next_u64() >> rng.gen_range(0..64u64)
                } else {
                    i.wrapping_mul(stride)
                };
                let (page, _) = t.page_mut(LineAddr::new(raw));
                *page += 1;
                *model.entry(raw >> 6).or_default() += 1;
            }
            let pages: Vec<(u64, u32)> = t.iter_sorted().map(|(l, &p)| (l.raw() >> 6, p)).collect();
            let expect: Vec<(u64, u32)> = model.into_iter().collect();
            assert_eq!(pages, expect, "stride {stride}");
        }
    }
}
