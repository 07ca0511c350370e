//! Heap bound of the Belady MIN oracle.
//!
//! `optimal_llc` builds per-set next-use lists while the mix is
//! generated, so its heap grows by one `u16` per *stored* reference (plus
//! at most one 512 B chunk per set and one 256 B page per 64-line block
//! the stream touches) and never holds the reference stream itself. A
//! reference that repeats its set's latest line is only counted, and most
//! references of a mix stream do. A counting global allocator measures
//! the peak live heap during one call and bounds it per reference of the
//! whole stream: about 1.6 B/ref on the four-core mix and 2.3 B/ref on
//! the eight-core one. Four-byte slots or lists that double as they grow
//! (2.6 and 3.8 B/ref), filing the repeats again, storing the stream
//! (8 B/ref) or keeping any other copy of it breaks the bounds.
//!
//! The binary holds one test, so no other test allocates while the peak
//! is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use tla_sim::{mix_reference_stream, optimal_llc, SimConfig};
use tla_workloads::SpecApp;

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

/// Peak heap of one `optimal_llc` call on `apps` at 100 k warm-up +
/// 100 k measured instructions, per reference of the mix's stream.
fn peak_bytes_per_ref(apps: &[SpecApp]) -> f64 {
    let cfg = SimConfig::scaled_down()
        .warmup(100_000)
        .instructions(100_000);
    let refs = mix_reference_stream(&cfg, apps).0.len();

    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let opt = optimal_llc(&cfg, apps, None);
    let peak = PEAK.load(Relaxed) - base;

    assert!(opt.accesses > 0 && opt.misses > 0, "{apps:?}: {opt:?}");
    peak as f64 / refs as f64
}

#[test]
fn oracle_peak_heap_per_reference_is_bounded() {
    use SpecApp::{Astar, Libquantum as Lib, Mcf, Xalancbmk};
    // Each mix with the peak heap per reference it is allowed.
    let cases = [
        (&[Mcf, Lib, Xalancbmk, Astar][..], 2.0),
        (&[Mcf, Lib, Mcf, Lib, Mcf, Lib, Mcf, Lib][..], 3.0),
    ];
    for (apps, bound) in cases {
        let per_ref = peak_bytes_per_ref(apps);
        assert!(
            per_ref < bound,
            "{apps:?}: oracle peak heap {per_ref:.2} B/ref (bound {bound} B/ref)"
        );
    }
}
