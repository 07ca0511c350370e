//! Host-speed calibration for `sim_mips`.
//!
//! Shared hosts drift: on the 2-vCPU machine this benchmark was defined
//! on, the simulator's throughput moved by up to ±10 % over tens of
//! seconds as other tenants came and went: the medians of ten 25-second
//! runs of the `ccf-warm-2c` job spread by 12 % (interquartile range over
//! median). A fixed kernel owned by this benchmark — a small
//! set-associative LRU cache fed a pseudo-random line stream, the same
//! kind of work the simulator does — is timed before and after every
//! timed job, and each job's throughput is scaled by how fast the host
//! ran the kernel around it; scaled, the same ten runs spread by 2.4 %.
//! `sim_mips` and `setup_s` therefore read as measured on a host that
//! runs the kernel in [`REFERENCE_SECS`]. Changes to the simulator cannot
//! move the kernel; only the host and the toolchain can. The scaling
//! follows slow drifts of the whole host; it cannot undo contention that
//! slows the simulator more than the kernel.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's wall time on the reference host, rounded (its median
/// there ranged from 27 to 33 ms as the host drifted).
pub const REFERENCE_SECS: f64 = 0.03;

/// Lookups per kernel run.
const LOOKUPS: u64 = 2_000_000;
const SETS: usize = 4096;
const WAYS: usize = 8;

/// One kernel run: `LOOKUPS` line lookups in a 4096-set, 8-way LRU cache,
/// five in eight drawn from a 16 K-line hot region and the rest from a
/// 1 M-line cold one. Returns the hit count.
fn kernel() -> u64 {
    let mut tags = vec![u64::MAX; SETS * WAYS];
    let mut stamps = vec![0u64; SETS * WAYS];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut hits = 0;
    for now in 1..=LOOKUPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let line = if x & 7 < 5 {
            (x >> 8) & 0x3FFF
        } else {
            (x >> 8) & 0xF_FFFF
        };
        let base = (line as usize & (SETS - 1)) * WAYS;
        let set_tags = &mut tags[base..base + WAYS];
        let set_stamps = &mut stamps[base..base + WAYS];
        let way = match set_tags.iter().position(|&t| t == line) {
            Some(w) => {
                hits += 1;
                w
            }
            None => {
                let lru = (0..WAYS)
                    .min_by_key(|&w| set_stamps[w])
                    .expect("ways is positive");
                set_tags[lru] = line;
                lru
            }
        };
        set_stamps[way] = now;
    }
    hits
}

/// Wall time of one kernel run, in seconds.
pub fn kernel_secs() -> f64 {
    let start = Instant::now();
    black_box(kernel());
    start.elapsed().as_secs_f64()
}
