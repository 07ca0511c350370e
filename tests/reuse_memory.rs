//! Heap bound of the reuse profiler's previous-access clocks.
//!
//! `ReuseProfiler` keeps each sampled line's previous-access clock in
//! set-major pages of 64 tags, each page a presence bitmap and the clocks
//! of its present lines packed by rank. A counting global allocator
//! measures the peak live heap a profiler adds while it absorbs a stream
//! and bounds it per distinct sampled line: on a dense footprint the
//! pages are full, and a hash-map entry per line (tens of bytes) would
//! break the bound; with one line per page the bound stops a scattered
//! footprint from costing more than a page entry, its index and one
//! clock per line (a page of 64 fixed slots would break it). Each
//! footprint is measured at several sizes, including just past the
//! points where the page vector and the slot table grow.
//!
//! The binary holds one test, so no other test allocates while the peak
//! is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use tla::telemetry::{
    EventKind, ReuseProfiler, TelemetryEvent, TelemetrySink, DEFAULT_REUSE_BUCKETS,
    DEFAULT_SAMPLE_EVERY,
};
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

/// Peak heap per distinct sampled line when every page is full.
const MAX_BYTES_PER_DENSE_LINE: f64 = 12.0;
/// Peak heap per distinct sampled line when every line has a page to
/// itself.
const MAX_BYTES_PER_LONE_LINE: f64 = 160.0;

/// LLC sets of the profiled cache (a power of two, as the hierarchy's).
const SETS: u64 = 1024;
const SET_BITS: u32 = SETS.trailing_zeros();

/// Peak heap a profiler adds while it sees every line of `tags` (tag
/// numbers within each set) in every set, twice over, and the number of
/// distinct lines it sampled.
fn peak_bytes(tags: impl Iterator<Item = u64> + Clone) -> (usize, usize) {
    let mut profiler =
        ReuseProfiler::new(SETS as usize, DEFAULT_SAMPLE_EVERY, DEFAULT_REUSE_BUCKETS);
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    for _ in 0..2 {
        for tag in tags.clone() {
            for set in 0..SETS {
                let line = LineAddr::new(tag << SET_BITS | set);
                profiler.record(
                    &TelemetryEvent::global(EventKind::LlcAccess, 0)
                        .with_set(set as u32)
                        .with_addr(line),
                );
            }
        }
    }
    let peak = PEAK.load(Relaxed) - base;
    let sampled = profiler.sampled_sets() * tags.count();
    assert_eq!(
        profiler.global().cold() as usize,
        sampled,
        "one first touch per sampled line"
    );
    (peak, sampled)
}

#[test]
fn profiler_peak_heap_per_sampled_line_is_bounded() {
    // Pages per sampled set, over 256 sampled sets: 16 (4096 pages, a
    // power of two), 17 (just past it: the page vector has just doubled)
    // and 25 (just past three quarters of 8192: the slot table has just
    // doubled).
    for pages_per_set in [16u64, 17, 25] {
        let (peak, lines) = peak_bytes(0x4000..0x4000 + 64 * pages_per_set);
        let per_line = peak as f64 / lines as f64;
        assert!(
            per_line <= MAX_BYTES_PER_DENSE_LINE,
            "dense footprint of {lines} sampled lines: {per_line:.2} B/line \
             (bound {MAX_BYTES_PER_DENSE_LINE})"
        );
        let (peak, lines) = peak_bytes((0..pages_per_set).map(|p| 5 + 64 * p));
        let per_line = peak as f64 / lines as f64;
        assert!(
            per_line <= MAX_BYTES_PER_LONE_LINE,
            "one sampled line per page, {lines} lines: {per_line:.1} B/line \
             (bound {MAX_BYTES_PER_LONE_LINE})"
        );
    }
}
