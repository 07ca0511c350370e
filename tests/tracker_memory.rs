//! Heap bound of the per-core victim tracker.
//!
//! `VictimTracker` keeps a first-touch bit and a 3-bit kill code per line
//! in 32-byte pages of 64 lines, indexed by an open-addressed slot table.
//! A counting global allocator measures the peak live heap while a
//! tracker absorbs a stream and bounds it per distinct line: on a dense
//! stream the pages are full, and a hash-map entry per line (tens of
//! bytes) would break the bound; on a stream with one line per page the
//! bound stops a scattered recorded trace from costing more than a page
//! and its index per line. Each stream is measured at several lengths,
//! including just past the points where the page vector and the slot
//! table grow.
//!
//! The binary holds one test, so no other test allocates while the peak
//! is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use tla::cache::{VictimCause, VictimTracker};
use tla::types::LineAddr;

/// Counts live heap bytes and remembers their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Peak heap per distinct line when every page is full.
const MAX_BYTES_PER_DENSE_LINE: f64 = 2.0;
/// Peak heap per distinct line when every line has a page to itself.
const MAX_BYTES_PER_LONE_LINE: f64 = 96.0;

/// Peak heap of a tracker that misses on `lines` in order, with every
/// third line killed by the LLC and missed again.
fn peak_bytes(lines: impl Iterator<Item = u64>) -> usize {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let mut t = VictimTracker::new();
    for (i, raw) in lines.enumerate() {
        let line = LineAddr::new(raw);
        t.classify(line);
        if i % 3 == 0 {
            t.note_kill(line, VictimCause::ALL[i % VictimCause::ALL.len()]);
            t.classify(line);
        }
    }
    let peak = PEAK.load(Relaxed) - base;
    drop(t);
    peak
}

#[test]
fn tracker_peak_heap_per_line_is_bounded() {
    // Page counts: a power of two, just past one (the page vector has
    // just doubled) and just past three quarters of one (the slot table
    // has just doubled).
    for pages in [1u64 << 14, (1 << 14) + 1, (3 << 13) + 1] {
        let dense = pages * 64;
        let per_line = peak_bytes(0x10_0000..0x10_0000 + dense) as f64 / dense as f64;
        assert!(
            per_line <= MAX_BYTES_PER_DENSE_LINE,
            "dense stream of {dense} lines: {per_line:.2} B/line \
             (bound {MAX_BYTES_PER_DENSE_LINE})"
        );
        let per_line = peak_bytes((0..pages).map(|i| 5 + 64 * i)) as f64 / pages as f64;
        assert!(
            per_line <= MAX_BYTES_PER_LONE_LINE,
            "one line per page, {pages} lines: {per_line:.1} B/line \
             (bound {MAX_BYTES_PER_LONE_LINE})"
        );
    }
}
