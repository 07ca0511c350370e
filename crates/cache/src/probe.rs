//! Explicit SIMD set-probe kernels and the one-word way bitmap.
//!
//! Every simulated access funnels through a tag scan of one set's dense
//! address array. The scan used to be a scalar match-mask loop the compiler
//! *happened* to auto-vectorize; this module makes the vectorization a
//! guarantee: hand-written kernels compare tags against the needle and
//! return the hit-way mask, selected once per process by runtime feature
//! detection behind a [`ProbeKernel`] function-pointer table.
//!
//! * x86-64 with AVX2: [`probe_avx2`] compares 8 tags per step via
//!   `core::arch` intrinsics (`_mm256_cmpeq_epi64` over two 256-bit lanes).
//! * Everywhere else (and under `TLA_FORCE_SCALAR`): [`probe_portable`], a
//!   4-lane unrolled scalar kernel.
//!
//! Setting the `TLA_FORCE_SCALAR` environment variable (to anything but
//! `0` or the empty string) pins the portable kernel, which CI uses to
//! check both dispatch paths produce bit-identical simulations.
//!
//! The kernels return a [`WayMask`]: one `u64` with a bit per way, which
//! caps a set at [`MAX_WAYS`] = 64 ways.
//! [`SetAssocCache`](crate::SetAssocCache) and
//! [`Replacer`](crate::Replacer) store and exchange per-set state as
//! `WayMask`es; the fully-associative [`VictimCache`](crate::VictimCache)
//! reuses the kernels for its linear scans via [`find_index`], which walks
//! any number of entries in 64-entry chunks.

use crate::config::MAX_WAYS;
use std::sync::OnceLock;
use tla_types::LineAddr;

/// A bitmap over the ways of one set: bit `w` describes way `w`. One word,
/// so a set holds at most [`MAX_WAYS`] = 64 ways; presence scans walk set
/// bits and clearing a way is a single bit-and.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default)]
pub struct WayMask(u64);

impl WayMask {
    /// The empty mask.
    pub const EMPTY: WayMask = WayMask(0);

    /// A mask with bits `0..ways` set.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message if `ways` exceeds [`MAX_WAYS`]
    /// (silent truncation would make a too-wide config misbehave subtly).
    pub fn all(ways: usize) -> WayMask {
        assert!(
            ways <= MAX_WAYS,
            "WayMask::all({ways}): associativity exceeds the {MAX_WAYS}-way \
             limit of the one-word set bitmaps"
        );
        if ways == MAX_WAYS {
            WayMask(u64::MAX)
        } else {
            WayMask((1u64 << ways) - 1)
        }
    }

    /// A mask with only bit `way` set.
    pub fn single(way: usize) -> WayMask {
        let mut m = WayMask::EMPTY;
        m.set(way);
        m
    }

    /// A mask from its raw word (checkpoint decode).
    #[inline]
    pub const fn from_bits(bits: u64) -> WayMask {
        WayMask(bits)
    }

    /// The raw word, way 0 in the lowest bit (checkpointing).
    #[inline]
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// Sets bit `way`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `way >= MAX_WAYS`.
    #[inline]
    pub fn set(&mut self, way: usize) {
        debug_assert!(
            way < MAX_WAYS,
            "way {way} out of range for the {MAX_WAYS}-way bitmap"
        );
        self.0 |= 1u64 << way;
    }

    /// Clears bit `way`.
    #[inline]
    pub fn clear(&mut self, way: usize) {
        self.0 &= !(1u64 << way);
    }

    /// Whether bit `way` is set.
    #[inline]
    pub fn contains(self, way: usize) -> bool {
        self.0 & (1u64 << way) != 0
    }

    /// Whether no bit is set.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of set bits.
    #[inline]
    pub fn count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// The lowest set bit, if any — the hardware's left-to-right scan.
    #[inline]
    pub fn first(self) -> Option<usize> {
        (self.0 != 0).then(|| self.0.trailing_zeros() as usize)
    }

    /// Bitwise AND.
    #[inline]
    #[must_use]
    pub fn and(self, other: WayMask) -> WayMask {
        WayMask(self.0 & other.0)
    }

    /// `self & !other` — e.g. the invalid ways of a set as
    /// `WayMask::all(ways).and_not(valid)`.
    #[inline]
    #[must_use]
    pub fn and_not(self, other: WayMask) -> WayMask {
        WayMask(self.0 & !other.0)
    }

    /// Iterates the set bits in ascending way order.
    #[inline]
    pub fn iter(self) -> WayIter {
        WayIter(self.0)
    }
}

impl std::fmt::Debug for WayMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WayMask({:#x})", self.0)
    }
}

/// Iterator over the set bits of a [`WayMask`] in ascending way order.
pub struct WayIter(u64);

impl Iterator for WayIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let way = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(way)
    }
}

/// Signature of a probe kernel: compare every element of `addrs` (one set's
/// dense per-way address array, at most [`MAX_WAYS`] long) against `needle`
/// and return the match mask. Invalid slots may hold stale addresses — the
/// caller ANDs the result with the set's valid mask.
pub type ProbeFn = fn(addrs: &[LineAddr], needle: LineAddr) -> WayMask;

/// A named probe kernel, selected once per process by [`probe_kernel`].
pub struct ProbeKernel {
    /// Kernel name for reports (`"avx2"` / `"scalar4"`).
    pub name: &'static str,
    /// The kernel function.
    pub func: ProbeFn,
}

impl std::fmt::Debug for ProbeKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProbeKernel")
            .field("name", &self.name)
            .finish()
    }
}

/// Naive reference kernel: the obvious one-way-at-a-time loop. Only used by
/// the differential tests as ground truth.
pub fn probe_naive(addrs: &[LineAddr], needle: LineAddr) -> WayMask {
    debug_assert!(addrs.len() <= MAX_WAYS);
    let mut m = WayMask::EMPTY;
    for (w, &a) in addrs.iter().enumerate() {
        if a == needle {
            m.set(w);
        }
    }
    m
}

/// Portable kernel (reported as `scalar4`): a branchless 4-lane match-mask
/// loop. The default off x86-64 and under `TLA_FORCE_SCALAR`.
pub fn probe_portable(addrs: &[LineAddr], needle: LineAddr) -> WayMask {
    debug_assert!(addrs.len() <= MAX_WAYS);
    let mut m = 0u64;
    let n = addrs.len();
    let mut i = 0;
    while i + 4 <= n {
        let b0 = (addrs[i] == needle) as u64;
        let b1 = (addrs[i + 1] == needle) as u64;
        let b2 = (addrs[i + 2] == needle) as u64;
        let b3 = (addrs[i + 3] == needle) as u64;
        m |= (b0 | (b1 << 1) | (b2 << 2) | (b3 << 3)) << i;
        i += 4;
    }
    while i < n {
        m |= ((addrs[i] == needle) as u64) << i;
        i += 1;
    }
    WayMask(m)
}

/// AVX2 kernel: 8 tags per step via two 256-bit compares.
///
/// Safe wrapper — [`probe_kernel`] only selects it after
/// `is_x86_feature_detected!("avx2")` succeeded, so the `target_feature`
/// inner function is always called on capable hardware.
#[cfg(target_arch = "x86_64")]
pub fn probe_avx2(addrs: &[LineAddr], needle: LineAddr) -> WayMask {
    // SAFETY: only reachable when AVX2 was detected at dispatch time (or
    // explicitly, from tests that performed the same detection).
    unsafe { probe_avx2_impl(addrs, needle) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn probe_avx2_impl(addrs: &[LineAddr], needle: LineAddr) -> WayMask {
    #[cfg(target_arch = "x86_64")]
    use core::arch::x86_64::{
        __m256i, _mm256_castsi256_pd, _mm256_cmpeq_epi64, _mm256_loadu_si256, _mm256_movemask_pd,
        _mm256_set1_epi64x,
    };
    debug_assert!(addrs.len() <= MAX_WAYS);
    let mut m = 0u64;
    let n = addrs.len();
    let needle_v = _mm256_set1_epi64x(needle.raw() as i64);
    // `LineAddr` is repr(transparent) over u64, so the dense address slice
    // loads directly as packed 64-bit lanes.
    let base = addrs.as_ptr().cast::<u64>();
    let mut i = 0;
    // 8 tags per step: two unaligned 256-bit loads, compare, and pack the
    // two 4-bit movemasks into one byte at bit `i` of the mask.
    while i + 8 <= n {
        let lo = _mm256_loadu_si256(base.add(i).cast::<__m256i>());
        let hi = _mm256_loadu_si256(base.add(i + 4).cast::<__m256i>());
        let eq_lo = _mm256_cmpeq_epi64(lo, needle_v);
        let eq_hi = _mm256_cmpeq_epi64(hi, needle_v);
        // Each 64-bit lane of the compare result is all-ones or all-zeros;
        // movemask_pd extracts one bit per lane.
        let bits_lo = _mm256_movemask_pd(_mm256_castsi256_pd(eq_lo)) as u64;
        let bits_hi = _mm256_movemask_pd(_mm256_castsi256_pd(eq_hi)) as u64;
        m |= (bits_lo | (bits_hi << 4)) << i;
        i += 8;
    }
    while i < n {
        m |= ((addrs[i] == needle) as u64) << i;
        i += 1;
    }
    WayMask(m)
}

static SCALAR_KERNEL: ProbeKernel = ProbeKernel {
    name: "scalar4",
    func: probe_portable,
};

#[cfg(target_arch = "x86_64")]
static AVX2_KERNEL: ProbeKernel = ProbeKernel {
    name: "avx2",
    func: probe_avx2,
};

static SELECTED: OnceLock<&'static ProbeKernel> = OnceLock::new();

/// Whether `TLA_FORCE_SCALAR` requests the portable kernel.
fn force_scalar() -> bool {
    match std::env::var("TLA_FORCE_SCALAR") {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    }
}

/// The probe kernel for this process, selected once on first use:
/// `TLA_FORCE_SCALAR` pins the portable kernel; otherwise x86-64 with AVX2
/// gets the 8-wide intrinsics kernel and everything else the portable one.
pub fn probe_kernel() -> &'static ProbeKernel {
    SELECTED.get_or_init(|| {
        if force_scalar() {
            return &SCALAR_KERNEL;
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return &AVX2_KERNEL;
        }
        &SCALAR_KERNEL
    })
}

/// Name of the selected kernel (for run/bench reports).
pub fn kernel_name() -> &'static str {
    probe_kernel().name
}

/// Position of the first element of `addrs` equal to `needle`, scanning with
/// the selected kernel in [`MAX_WAYS`]-entry chunks. The fully-associative
/// victim cache's linear scans use this; `addrs` may be any length.
pub fn find_index(addrs: &[LineAddr], needle: LineAddr) -> Option<usize> {
    find_index_with(probe_kernel().func, addrs, needle)
}

/// [`find_index`] with an explicit kernel, so the differential tests can
/// drive every kernel in one process.
fn find_index_with(kernel: ProbeFn, addrs: &[LineAddr], needle: LineAddr) -> Option<usize> {
    for (chunk_idx, chunk) in addrs.chunks(MAX_WAYS).enumerate() {
        if let Some(w) = kernel(chunk, needle).first() {
            return Some(chunk_idx * MAX_WAYS + w);
        }
    }
    None
}

/// Signature of a min-reduce kernel: position of the smallest element of
/// `vals` (the first one on ties), or `None` when the slice is empty.
pub type MinIndexFn = fn(vals: &[u64]) -> Option<usize>;

/// Naive reference min-reduce: the obvious `min_by_key` scan. Ground truth
/// for the differential tests.
pub fn min_index_naive(vals: &[u64]) -> Option<usize> {
    vals.iter()
        .enumerate()
        .min_by_key(|(_, v)| **v)
        .map(|(i, _)| i)
}

/// Portable min-reduce: 4 independent strided lanes, reduced at the end.
///
/// Each lane keeps its first minimum (strict `<`), and the final reduce
/// breaks value ties by the lower index, so the result is always the
/// *first* global minimum — the same element `min_by_key` picks.
pub fn min_index_portable(vals: &[u64]) -> Option<usize> {
    if vals.is_empty() {
        return None;
    }
    let n = vals.len();
    let mut lane_val = [u64::MAX; 4];
    let mut lane_idx = [0usize; 4];
    let mut i = 0;
    while i + 4 <= n {
        for j in 0..4 {
            if vals[i + j] < lane_val[j] {
                lane_val[j] = vals[i + j];
                lane_idx[j] = i + j;
            }
        }
        i += 4;
    }
    let mut best = u64::MAX;
    let mut best_i = 0usize;
    for j in 0..4 {
        if lane_val[j] < best || (lane_val[j] == best && lane_idx[j] < best_i) {
            best = lane_val[j];
            best_i = lane_idx[j];
        }
    }
    while i < n {
        if vals[i] < best {
            best = vals[i];
            best_i = i;
        }
        i += 1;
    }
    Some(best_i)
}

/// AVX2 min-reduce: 4 lanes per step via sign-biased signed compares
/// (AVX2 has no unsigned 64-bit compare; XOR-ing both operands with the
/// sign bit makes `_mm256_cmpgt_epi64` order unsigned values correctly).
///
/// Safe wrapper — dispatch only selects it after AVX2 detection.
#[cfg(target_arch = "x86_64")]
pub fn min_index_avx2(vals: &[u64]) -> Option<usize> {
    // SAFETY: only reachable when AVX2 was detected at dispatch time (or
    // explicitly, from tests that performed the same detection).
    unsafe { min_index_avx2_impl(vals) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn min_index_avx2_impl(vals: &[u64]) -> Option<usize> {
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_blendv_epi8, _mm256_cmpgt_epi64, _mm256_loadu_si256,
        _mm256_set1_epi64x, _mm256_setr_epi64x, _mm256_storeu_si256, _mm256_xor_si256,
    };
    let n = vals.len();
    if n < 8 {
        return min_index_portable(vals);
    }
    let bias = _mm256_set1_epi64x(i64::MIN);
    let step = _mm256_set1_epi64x(4);
    // Lane j tracks the first minimum over the stride-4 column j, j+4, ...
    // (strict less-than keeps the earliest occurrence within a lane).
    let mut min_v = _mm256_xor_si256(_mm256_loadu_si256(vals.as_ptr().cast::<__m256i>()), bias);
    let mut min_i = _mm256_setr_epi64x(0, 1, 2, 3);
    let mut cur_i = _mm256_add_epi64(min_i, step);
    let mut i = 4;
    while i + 4 <= n {
        let v = _mm256_xor_si256(
            _mm256_loadu_si256(vals.as_ptr().add(i).cast::<__m256i>()),
            bias,
        );
        let lt = _mm256_cmpgt_epi64(min_v, v);
        min_v = _mm256_blendv_epi8(min_v, v, lt);
        min_i = _mm256_blendv_epi8(min_i, cur_i, lt);
        cur_i = _mm256_add_epi64(cur_i, step);
        i += 4;
    }
    let mut lane_val = [0u64; 4];
    let mut lane_idx = [0u64; 4];
    _mm256_storeu_si256(lane_val.as_mut_ptr().cast::<__m256i>(), min_v);
    _mm256_storeu_si256(lane_idx.as_mut_ptr().cast::<__m256i>(), min_i);
    let mut best = u64::MAX;
    let mut best_i = 0usize;
    for j in 0..4 {
        let v = lane_val[j] ^ (1u64 << 63);
        let idx = lane_idx[j] as usize;
        if v < best || (v == best && idx < best_i) {
            best = v;
            best_i = idx;
        }
    }
    // Tail elements sit past every vector-processed index, so on a value
    // tie the vector candidate (lower index) must win: strict less-than.
    while i < n {
        if vals[i] < best {
            best = vals[i];
            best_i = i;
        }
        i += 1;
    }
    Some(best_i)
}

static MIN_SELECTED: OnceLock<MinIndexFn> = OnceLock::new();

/// Position of the smallest element of `vals` (first on ties), computed
/// with the min-reduce kernel selected once per process under the same
/// rules as [`probe_kernel`] (`TLA_FORCE_SCALAR` pins the portable lanes).
/// The victim cache's LRU displacement scan uses this.
pub fn min_index(vals: &[u64]) -> Option<usize> {
    let f = MIN_SELECTED.get_or_init(|| {
        if force_scalar() {
            return min_index_portable as MinIndexFn;
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return min_index_avx2 as MinIndexFn;
        }
        min_index_portable
    });
    f(vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tla_rng::SmallRng;

    #[test]
    fn waymask_all_and_edges() {
        assert!(WayMask::all(0).is_empty());
        assert_eq!(WayMask::all(1).bits(), 1);
        assert_eq!(WayMask::all(63).bits(), u64::MAX >> 1);
        assert_eq!(WayMask::all(64).bits(), u64::MAX);
        assert_eq!(WayMask::all(64).count(), 64);
    }

    #[test]
    #[should_panic(expected = "exceeds the 64-way limit")]
    fn waymask_all_rejects_too_wide() {
        let _ = WayMask::all(65);
    }

    #[test]
    fn waymask_set_clear_contains_iter() {
        let mut m = WayMask::EMPTY;
        for w in [0, 1, 31, 32, 62, 63] {
            m.set(w);
        }
        assert_eq!(m.count(), 6);
        assert!(m.contains(63) && m.contains(32) && !m.contains(2));
        assert_eq!(m.first(), Some(0));
        let ways: Vec<usize> = m.iter().collect();
        assert_eq!(ways, vec![0, 1, 31, 32, 62, 63]);
        m.clear(0);
        m.clear(1);
        assert_eq!(m.first(), Some(31));
        assert_eq!(m.count(), 4);
        assert_eq!(WayMask::from_bits(m.bits()), m);
    }

    #[test]
    fn waymask_bit_algebra() {
        let a = WayMask::all(40);
        let b = WayMask::all(30);
        assert_eq!(a.and(b), b);
        let inv = a.and_not(b);
        assert_eq!(inv.count(), 10);
        assert_eq!(inv.first(), Some(30));
        assert_eq!(WayMask::single(63).first(), Some(63));
        assert_eq!(WayMask::all(64).and_not(WayMask::all(64)), WayMask::EMPTY);
    }

    /// Every kernel this host can run: the portable one always, AVX2 when
    /// detected, and the dispatched one.
    fn kernels() -> Vec<(&'static str, ProbeFn)> {
        let mut out: Vec<(&'static str, ProbeFn)> = vec![("scalar4", probe_portable)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            out.push(("avx2", probe_avx2));
        }
        out.push(("dispatched", probe_kernel().func));
        out
    }

    /// The differential sweep: for every edge associativity up to the
    /// 64-way cap, on random address streams, the naive reference, the
    /// portable kernel, the AVX2 kernel (when the host supports it) and
    /// the dispatched kernel agree way-for-way on the full match mask.
    #[test]
    fn kernels_agree_on_random_streams() {
        let mut rng = SmallRng::seed_from_u64(0x5e7_980be);
        for &ways in &[1usize, 2, 6, 7, 8, 16, 63, 64] {
            for round in 0..200 {
                // A small address universe makes multi-way duplicate
                // matches common (stale-tag territory the valid mask
                // normally hides — the kernels must still report them all).
                let universe = 1 + (round % 8) as u64;
                let addrs: Vec<LineAddr> = (0..ways)
                    .map(|_| LineAddr::new(rng.gen_range(0..=universe)))
                    .collect();
                let needle = LineAddr::new(rng.gen_range(0..=universe));
                let expect = probe_naive(&addrs, needle);
                for (name, kernel) in kernels() {
                    assert_eq!(
                        kernel(&addrs, needle),
                        expect,
                        "{name} kernel diverges at ways={ways}"
                    );
                }
            }
        }
    }

    #[test]
    fn kernels_handle_empty_and_no_match() {
        let empty: Vec<LineAddr> = Vec::new();
        let addrs: Vec<LineAddr> = (0..16).map(LineAddr::new).collect();
        for (name, kernel) in kernels() {
            assert!(kernel(&empty, LineAddr::new(1)).is_empty(), "{name}");
            assert!(kernel(&addrs, LineAddr::new(99)).is_empty(), "{name}");
        }
    }

    /// `find_index` walks arrays of any length in 64-entry kernel chunks;
    /// against a naive `position` scan it must return the same first match
    /// at every length around and past the chunk width (the victim cache
    /// goes up to 256 entries), under every kernel.
    #[test]
    fn find_index_matches_a_naive_scan() {
        let mut rng = SmallRng::seed_from_u64(0xf1d_1dec5);
        for &len in &[1usize, 63, 64, 65, 128, 256, 600] {
            for round in 0..100 {
                // Mostly distinct entries (victim-cache contents), with a
                // small universe every fourth round to force duplicates.
                let universe = if round % 4 == 0 { 8 } else { 4 * len as u64 };
                let addrs: Vec<LineAddr> = (0..len)
                    .map(|_| LineAddr::new(rng.gen_range(0..universe)))
                    .collect();
                // Alternate needles drawn from the array (hits anywhere,
                // including past the first chunk) with random ones.
                let needle = if round % 2 == 0 {
                    addrs[rng.gen_range(0..len)]
                } else {
                    LineAddr::new(rng.gen_range(0..universe))
                };
                let expect = addrs.iter().position(|&a| a == needle);
                for (name, kernel) in kernels() {
                    assert_eq!(
                        find_index_with(kernel, &addrs, needle),
                        expect,
                        "{name} find_index diverges at len={len}"
                    );
                }
                assert_eq!(find_index(&addrs, needle), expect, "len={len}");
            }
        }
        assert_eq!(find_index(&[], LineAddr::new(7)), None);
    }

    /// Differential sweep for the min-reduce kernels: on random streams —
    /// including heavy-duplicate streams where the first-minimum tie-break
    /// is load-bearing — the portable lanes, the AVX2 kernel (when the
    /// host supports it) and the dispatched kernel all agree with the
    /// naive `min_by_key` reference, index for index.
    #[test]
    fn min_kernels_agree_on_random_streams() {
        let mut rng = SmallRng::seed_from_u64(0x31171dec);
        for &len in &[0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 31, 32, 100, 257] {
            for round in 0..200 {
                // Small value universes force duplicate minima.
                let universe = 1 + (round % 6) as u64;
                let vals: Vec<u64> = (0..len).map(|_| rng.gen_range(0..=universe)).collect();
                let expect = min_index_naive(&vals);
                assert_eq!(
                    min_index_portable(&vals),
                    expect,
                    "portable min-reduce diverges at len={len}: {vals:?}"
                );
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("avx2") {
                    assert_eq!(
                        min_index_avx2(&vals),
                        expect,
                        "avx2 min-reduce diverges at len={len}: {vals:?}"
                    );
                }
                assert_eq!(
                    min_index(&vals),
                    expect,
                    "dispatched min-reduce diverges at len={len}: {vals:?}"
                );
            }
        }
    }

    #[test]
    fn min_index_edge_cases() {
        assert_eq!(min_index(&[]), None);
        assert_eq!(min_index(&[7]), Some(0));
        assert_eq!(min_index(&[5, 5, 5, 5, 5, 5, 5, 5, 5]), Some(0));
        assert_eq!(min_index(&[u64::MAX; 12]), Some(0));
        let mut v = vec![u64::MAX; 33];
        v[32] = 0;
        assert_eq!(min_index(&v), Some(32));
        // First-minimum semantics across lane and tail boundaries.
        let mut v = vec![9u64; 21];
        v[6] = 2;
        v[13] = 2;
        v[20] = 2;
        assert_eq!(min_index(&v), Some(6));
        assert_eq!(min_index_portable(&v), Some(6));
        assert_eq!(min_index_naive(&v), Some(6));
    }

    #[test]
    fn kernel_is_selected_and_named() {
        let k = probe_kernel();
        assert!(k.name == "avx2" || k.name == "scalar4");
        assert_eq!(kernel_name(), k.name);
        // Selection is per-process sticky.
        assert!(std::ptr::eq(k, probe_kernel()));
    }
}
