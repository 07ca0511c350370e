//! Seeded mutation sweep over the cache state of a real warm image.
//!
//! The image is the `sje,mcf` checkpoint `checkpoint_bytes_are_pinned`
//! pins (tests/snapshot_resume.rs). A walker finds each cache's state
//! inside the `sim` section — L1I, L1D and L2 per core, then the LLC —
//! and the sweep mutates it in four ways:
//!
//! * inflated length fields: every per-cache length prefix (addresses,
//!   replacement words, directory bits, the valid/dirty/tag bitmaps and
//!   the PLRU trees) raised by 1, by 2^24 and to `u64::MAX`;
//! * byte flips in those length prefixes, in bitmap bits past the
//!   cache's last way, and in LLC directory bits naming a core the mix
//!   does not have;
//! * truncations: the image cut at a seeded offset inside the cache;
//! * dropped words: eight bytes removed from inside the cache.
//!
//! Two more mutants move a valid LLC line: into a set its address does
//! not map to, and into a second way of its own set. Those must be
//! refused as `Corrupt`.
//!
//! Each mutant gets its `sim` length patched and its checksum re-sealed,
//! so the header checks pass and the section decoders do run. Every
//! mutant must be refused with an `Err`: no panic, and no allocation
//! larger than the largest one a clean resume makes (a decoder that
//! sized a buffer from a decoded count would exceed it). Flips elsewhere
//! in the payload (an address, a replacement word, a counter) decode to
//! a different but well-formed state, so they are not part of the sweep.
//!
//! A second sweep covers the `telemetry` section of an instrumented
//! `lib,mcf` image taken on a small LLC, so its per-set histogram has
//! evictions and a full reservoir, and with a window short enough for
//! several closed windows. A walker finds the event counts, the per-set
//! histogram with its reservoir of sampled events, and the windowed
//! series, and the sweep makes
//!
//! * inflated length fields: the count array's, the histogram's set
//!   count, the reservoir's, and the series' per-core, window and delta
//!   counts, each raised by 1, by 2^24 and to `u64::MAX`;
//! * byte flips in those lengths, in the series' window size, in each
//!   window's instruction span and delta placement, and in the high byte
//!   of each sampled event's set (a set past the LLC), and invalid values
//!   in every bool and in each sampled event's kind (out of range, or a
//!   kind the histogram never samples);
//! * truncations at seeded offsets inside the section.
//!
//! Each telemetry mutant has its `telemetry` length patched and its
//! checksum re-sealed, and is resumed for a report, so the read-out of
//! the restored collectors runs too. The same rules hold: `Err`, no
//! panic, no allocation above a clean resume's largest.
//!
//! Both sweeps hold one lock for their whole run, so no other test
//! allocates while the largest allocation is tracked.

use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;
use tla::rng::SmallRng;
use tla::sim::{Checkpoint, MixRun, SimConfig, SnapshotError};
use tla::telemetry::EventKind;
use tla::workloads::SpecApp;

/// Remembers the largest single allocation request.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter only
// observes sizes.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

/// Held by each sweep for its whole run.
static SWEEP: Mutex<()> = Mutex::new(());

const MIX: [SpecApp; 2] = [SpecApp::Sjeng, SpecApp::Mcf];

fn cfg() -> SimConfig {
    SimConfig::scaled_down().warmup(15_000).instructions(10_000)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn u64_at(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

fn put_u64(b: &mut [u8], at: usize, v: u64) {
    b[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// Where one cache's state sits in the image.
struct CacheLayout {
    name: String,
    start: usize,
    end: usize,
    ways: usize,
    /// Offsets of the length prefixes, in wire order.
    prefixes: Vec<(&'static str, usize)>,
    /// Offsets of the first word of the valid, dirty and tag bitmaps.
    masks: [(&'static str, usize); 3],
    sets: usize,
    /// Offset of the first directory word.
    directory: usize,
}

/// The image's `sim` section and its caches.
struct ImageLayout {
    /// Offset of the `sim` section's body length.
    sim_len_at: usize,
    caches: Vec<CacheLayout>,
}

/// Skips a length-prefixed `u64` slice at `*pos`, returning its length.
fn skip_vec(b: &[u8], pos: &mut usize) -> usize {
    let n = u64_at(b, *pos) as usize;
    *pos += 8 + 8 * n;
    n
}

/// Walks one `SetAssocCache` state: six length-prefixed slices (addresses,
/// replacement words, directory bits, valid/dirty/tag bitmaps), the
/// replacer (stamp, fill count, PSEL, PLRU trees, four RNG words) and
/// seven counters.
fn walk_cache(b: &[u8], pos: &mut usize, name: String) -> CacheLayout {
    let start = *pos;
    let mut prefixes = Vec::new();
    let mut lens = Vec::new();
    for field in [
        "addresses",
        "replacement",
        "directory",
        "valid",
        "dirty",
        "tag",
    ] {
        prefixes.push((field, *pos));
        lens.push(skip_vec(b, pos));
    }
    *pos += 3 * 8;
    prefixes.push(("trees", *pos));
    skip_vec(b, pos);
    *pos += 4 * 8 + 7 * 8;
    let sets = lens[3];
    CacheLayout {
        name,
        start,
        end: *pos,
        ways: lens[0] / sets,
        masks: [
            ("valid", prefixes[3].1 + 8),
            ("dirty", prefixes[4].1 + 8),
            ("tag", prefixes[5].1 + 8),
        ],
        prefixes,
        sets,
        directory: start + 8 + 8 * lens[0] + 8 + 8 * lens[1] + 8,
    }
}

fn walk(b: &[u8]) -> ImageLayout {
    // Header: magic and version, then the `meta` and `sim` sections.
    let mut pos = 5;
    let section = |pos: &mut usize, name: &str| {
        let n = b[*pos] as usize;
        assert_eq!(&b[*pos + 1..*pos + 1 + n], name.as_bytes());
        *pos += 1 + n;
        let len_at = *pos;
        *pos += 8;
        len_at
    };
    let meta_len_at = section(&mut pos, "meta");
    pos += u64_at(b, meta_len_at) as usize;
    let sim_len_at = section(&mut pos, "sim");
    assert_eq!(
        sim_len_at + 8 + u64_at(b, sim_len_at) as usize,
        b.len() - 8,
        "a plain checkpoint ends with its sim section"
    );
    let cores = u64_at(b, pos) as usize;
    pos += 8;
    let mut caches = Vec::new();
    for core in 0..cores {
        for level in ["L1I", "L1D", "L2"] {
            caches.push(walk_cache(b, &mut pos, format!("core {core} {level}")));
        }
        // The stream prefetcher: detectors of 33 bytes, three counters.
        let has_prefetcher = b[pos] == 1;
        pos += 1;
        if has_prefetcher {
            pos += 8 + 33 * u64_at(b, pos) as usize + 3 * 8;
        }
    }
    caches.push(walk_cache(b, &mut pos, "LLC".into()));
    ImageLayout { sim_len_at, caches }
}

/// Patches the length of the image's last section, at `len_at`, to the
/// image's new size and re-seals the checksum over everything before it.
fn reseal(mut body: Vec<u8>, len_at: usize) -> Vec<u8> {
    let len = body.len() - len_at - 8;
    put_u64(&mut body, len_at, len as u64);
    let sum = fnv1a(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    body
}

/// Resumes `bytes` as the pinned mix, catching panics; also returns the
/// largest single allocation made on the way.
fn resume(bytes: Vec<u8>) -> (std::thread::Result<Result<(), SnapshotError>>, usize) {
    LARGEST.store(0, Relaxed);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let checkpoint = Checkpoint::from_bytes(bytes)?;
        MixRun::new(&cfg(), &MIX).resume(&checkpoint).map(drop)
    }));
    (outcome, LARGEST.load(Relaxed))
}

#[test]
fn mutated_cache_sections_are_refused() {
    let _sweep = SWEEP.lock().unwrap_or_else(|e| e.into_inner());
    let image = MixRun::new(&cfg(), &MIX)
        .warm_checkpoint()
        .as_bytes()
        .to_vec();
    assert_eq!(
        format!("{:016x}", fnv1a(&image)),
        "59d4056219b9ab9b",
        "the sweep runs on the pinned image"
    );
    let layout = walk(&image);
    assert_eq!(
        layout.caches.len(),
        7,
        "three core caches per core and the LLC"
    );
    let body = &image[..image.len() - 8];

    // The clean image resumes, and bounds every mutant's allocations.
    let (clean, limit) = resume(reseal(body.to_vec(), layout.sim_len_at));
    assert!(matches!(clean, Ok(Ok(()))), "the clean image must resume");

    let mut rng = SmallRng::seed_from_u64(0x7a5_0f11e5);
    let mut mutants: Vec<(String, Vec<u8>)> = Vec::new();
    for cache in &layout.caches {
        for &(field, at) in &cache.prefixes {
            let n = u64_at(body, at);
            for inflated in [n + 1, n + (1 << 24), u64::MAX] {
                let mut m = body.to_vec();
                put_u64(&mut m, at, inflated);
                mutants.push((format!("{} {field} length {inflated}", cache.name), m));
            }
            let byte = at + rng.gen_range(0..8usize);
            let mut m = body.to_vec();
            m[byte] ^= rng.gen_range(1..=255u64) as u8;
            mutants.push((format!("{} {field} length byte {byte}", cache.name), m));
        }
        for &(field, first) in &cache.masks {
            for _ in 0..2 {
                let set = rng.gen_range(0..cache.sets);
                let bit = rng.gen_range(cache.ways..64);
                let mut m = body.to_vec();
                m[first + 8 * set + bit / 8] ^= 1 << (bit % 8);
                mutants.push((format!("{} {field} set {set} bit {bit}", cache.name), m));
            }
        }
        if cache.name == "LLC" {
            for _ in 0..4 {
                let slot = rng.gen_range(0..cache.sets * cache.ways);
                let bit = rng.gen_range(MIX.len()..64);
                let mut m = body.to_vec();
                m[cache.directory + 8 * slot + bit / 8] ^= 1 << (bit % 8);
                mutants.push((format!("LLC directory slot {slot} core {bit}"), m));
            }
        }
        for _ in 0..4 {
            let cut = rng.gen_range(cache.start..cache.end);
            mutants.push((
                format!("{} truncated at {cut}", cache.name),
                body[..cut].to_vec(),
            ));
        }
        for _ in 0..2 {
            let at = rng.gen_range(cache.start..cache.end - 8);
            let mut m = body.to_vec();
            m.drain(at..at + 8);
            mutants.push((format!("{} word dropped at {at}", cache.name), m));
        }
    }

    // Two well-formed placements no run makes: LLC set 0's first valid
    // line with address bit 0 flipped, so it maps to set 1, and that
    // line copied over the set's next valid way, so it is valid twice.
    // Both are corrupt state, not a misread length.
    let llc = layout.caches.last().expect("the LLC is walked last");
    let set0 = u64_at(body, llc.masks[0].1);
    let mut valid = (0..llc.ways).filter(|w| set0 >> w & 1 == 1);
    let (first, next) = (valid.next().unwrap(), valid.next().unwrap());
    // The address block: its length, then one word per slot.
    let slot = |way: usize| llc.start + 8 + 8 * way;
    let mut misfiled = body.to_vec();
    misfiled[slot(first)] ^= 1;
    let mut duplicated = body.to_vec();
    duplicated.copy_within(slot(first)..slot(first) + 8, slot(next));
    for (name, m) in [("misfiled", misfiled), ("duplicated", duplicated)] {
        let (outcome, _) = resume(reseal(m, layout.sim_len_at));
        assert!(
            matches!(outcome, Ok(Err(SnapshotError::Corrupt(_)))),
            "LLC set 0 {name} line: {outcome:?}"
        );
    }

    check_refused(&mutants, limit, |body| {
        resume(reseal(body, layout.sim_len_at))
    });
}

/// Asserts that every mutant is refused: `outcome` resumes one body and
/// returns its result with the largest allocation it made.
fn check_refused(
    mutants: &[(String, Vec<u8>)],
    limit: usize,
    outcome: impl Fn(Vec<u8>) -> (std::thread::Result<Result<(), SnapshotError>>, usize),
) {
    let mut failures = Vec::new();
    for (name, body) in mutants {
        let (outcome, largest) = outcome(body.clone());
        match outcome {
            Err(_) => failures.push(format!("{name}: panicked")),
            Ok(Ok(())) => failures.push(format!("{name}: resumed without an error")),
            Ok(Err(_)) if largest > limit => failures.push(format!(
                "{name}: allocated {largest} bytes at once, a clean resume at most {limit}"
            )),
            Ok(Err(_)) => {}
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} mutants misbehaved:\n{}",
        failures.len(),
        mutants.len(),
        failures.join("\n")
    );
}

const TELEMETRY_MIX: [SpecApp; 2] = [SpecApp::Libquantum, SpecApp::Mcf];
/// The instrumented image's window and (full-scale) LLC capacity.
const WINDOW: u64 = 4_000;
const SMALL_LLC: usize = 1 << 17;

fn telemetry_run() -> MixRun<'static> {
    static CFG: std::sync::OnceLock<SimConfig> = std::sync::OnceLock::new();
    let cfg = CFG.get_or_init(|| SimConfig::scaled_down().warmup(20_000).instructions(4_000));
    MixRun::new(cfg, &TELEMETRY_MIX).llc_capacity_full_scale(SMALL_LLC)
}

/// Where the `telemetry` section's fields sit in the image.
#[derive(Default)]
struct TelemetryLayout {
    /// Offset of the section's body length.
    len_at: usize,
    start: usize,
    end: usize,
    /// Length prefixes.
    lengths: Vec<(String, usize)>,
    /// Bool bytes.
    bools: Vec<(String, usize)>,
    /// Sampled events' kind bytes.
    kinds: Vec<usize>,
    /// Sampled events' set high bytes.
    set_highs: Vec<usize>,
    /// Other structural words: the window size, each window's span and
    /// delta placement.
    words: Vec<(String, usize)>,
}

/// Walks the `telemetry` section, the image's last: the count array,
/// the per-set histogram (set count, two `u32` arrays, the reservoir of
/// events, `seen` and the RNG word) and the windowed series.
fn walk_telemetry(b: &[u8]) -> TelemetryLayout {
    const PER_CORE: usize = 15 * 8;
    const GLOBAL: usize = 16 * 8;
    // Skip the header and every section before the last.
    let mut pos = 5;
    let mut t = TelemetryLayout::default();
    loop {
        let n = b[pos] as usize;
        let name = &b[pos + 1..pos + 1 + n];
        pos += 1 + n;
        let len = u64_at(b, pos) as usize;
        if name == b"telemetry" {
            t.len_at = pos;
            assert_eq!(pos + 8 + len, b.len() - 8, "telemetry is the last section");
            break;
        }
        pos += 8 + len;
    }
    pos += 8;
    t.start = pos;
    let length = |t: &mut TelemetryLayout, name: &str, pos: &mut usize| {
        t.lengths.push((name.to_string(), *pos));
        *pos += 8;
        u64_at(b, *pos - 8) as usize
    };
    let kinds = length(&mut t, "event counts", &mut pos);
    pos += 8 * kinds;
    let sets = length(&mut t, "histogram sets", &mut pos);
    pos += 2 * 4 * sets;
    let events = length(&mut t, "reservoir", &mut pos);
    for e in 0..events {
        t.kinds.push(pos);
        pos += 1;
        // Core (a byte), level (a byte), set (u32), address (u64).
        for (field, width) in [("core", 1), ("level", 1), ("set", 4), ("address", 8)] {
            t.bools.push((format!("event {e} {field} flag"), pos));
            let present = b[pos] == 1;
            pos += 1;
            if present {
                if field == "set" {
                    t.set_highs.push(pos + width - 1);
                }
                pos += width;
            }
        }
        pos += 8;
    }
    pos += 2 * 8;
    t.bools.push(("series flag".into(), pos));
    assert_eq!(b[pos], 1, "the image has a series");
    pos += 1;
    t.words.push(("window size".into(), pos));
    pos += 8;
    t.words.push(("next boundary".into(), pos));
    t.words.push(("last instruction".into(), pos + 8));
    pos += 2 * 8;
    let cores = length(&mut t, "series cores", &mut pos);
    pos += cores * PER_CORE + GLOBAL;
    let windows = length(&mut t, "windows", &mut pos);
    for w in 0..windows {
        t.words.push((format!("window {w} start"), pos));
        t.words.push((format!("window {w} end"), pos + 8));
        pos += 2 * 8 + GLOBAL;
        t.words.push((format!("window {w} deltas start"), pos));
        t.words.push((format!("window {w} cores"), pos + 8));
        pos += 2 * 8;
    }
    let deltas = length(&mut t, "deltas", &mut pos);
    pos += deltas * PER_CORE;
    assert_eq!(pos, b.len() - 8, "the walk ends at the checksum");
    assert!(
        windows >= 3 && events > 0,
        "{windows} windows, {events} sampled events"
    );
    t.end = pos;
    t
}

/// Resumes `bytes` for a report, catching panics; also returns the
/// largest single allocation made on the way.
fn resume_report(bytes: Vec<u8>) -> (std::thread::Result<Result<(), SnapshotError>>, usize) {
    LARGEST.store(0, Relaxed);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let checkpoint = Checkpoint::from_bytes(bytes)?;
        telemetry_run()
            .resume_report(&checkpoint, Some(WINDOW))
            .map(drop)
    }));
    (outcome, LARGEST.load(Relaxed))
}

#[test]
fn mutated_telemetry_sections_are_refused() {
    let _sweep = SWEEP.lock().unwrap_or_else(|e| e.into_inner());
    let image = telemetry_run()
        .warm_checkpoint_instrumented(Some(WINDOW))
        .as_bytes()
        .to_vec();
    let layout = walk_telemetry(&image);
    let body = &image[..image.len() - 8];

    let (clean, limit) = resume_report(reseal(body.to_vec(), layout.len_at));
    assert!(matches!(clean, Ok(Ok(()))), "the clean image must resume");

    let mut rng = SmallRng::seed_from_u64(0x7e1e_0f11e5);
    let mut mutants: Vec<(String, Vec<u8>)> = Vec::new();
    let mut flip = |name: String, at: usize, width: usize, mutants: &mut Vec<_>| {
        let byte = at + rng.gen_range(0..width);
        let mut m = body.to_vec();
        m[byte] ^= rng.gen_range(1..=255u64) as u8;
        mutants.push((format!("{name} byte {byte}"), m));
    };
    for (field, at) in &layout.lengths {
        let n = u64_at(body, *at);
        for inflated in [n + 1, n + (1 << 24), u64::MAX] {
            let mut m = body.to_vec();
            put_u64(&mut m, *at, inflated);
            mutants.push((format!("{field} length {inflated}"), m));
        }
        flip(format!("{field} length"), *at, 8, &mut mutants);
    }
    for (field, at) in &layout.words {
        flip(field.clone(), *at, 8, &mut mutants);
    }
    for (field, at) in &layout.bools {
        let mut m = body.to_vec();
        m[*at] = 2 + rng.gen_range(0..254u64) as u8;
        mutants.push((format!("{field} {}", m[*at]), m));
    }
    let unsampled = EventKind::ALL
        .iter()
        .position(|&k| k == EventKind::LlcAccess)
        .unwrap() as u8;
    for (i, &at) in layout.kinds.iter().enumerate() {
        for kind in [unsampled, EventKind::ALL.len() as u8, u8::MAX] {
            let mut m = body.to_vec();
            m[at] = kind;
            mutants.push((format!("event {i} kind {kind}"), m));
        }
    }
    for _ in 0..8 {
        let cut = rng.gen_range(layout.start..layout.end);
        mutants.push((format!("truncated at {cut}"), body[..cut].to_vec()));
    }
    // A flipped set high byte names a set far past the small LLC: one
    // mutant per sample of the full reservoir.
    assert_eq!(
        (layout.set_highs.len(), layout.kinds.len()),
        (64, 64),
        "every sample of the full reservoir has a set"
    );
    for (i, &at) in layout.set_highs.iter().enumerate() {
        let mut m = body.to_vec();
        m[at] ^= rng.gen_range(1..=255u64) as u8;
        mutants.push((format!("event {i} set high byte {at}"), m));
    }

    check_refused(&mutants, limit, |body| {
        resume_report(reseal(body, layout.len_at))
    });
}
