//! Explicit SIMD set-probe kernels and the multi-word way bitmap.
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
//! The kernels return a [`WayMask`]: a `[u64; 4]` multi-word bitmap that
//! lifts the associativity ceiling from 64 to [`MAX_WAYS`] = 256 ways.
//! [`SetAssocCache`](crate::SetAssocCache) and
//! [`Replacer`](crate::Replacer) store and exchange per-set state as
//! `WayMask`es; the fully-associative [`VictimCache`](crate::VictimCache)
//! reuses the kernels for its linear scans via [`find_index`].

use crate::config::MAX_WAYS;
use std::sync::OnceLock;
use tla_types::LineAddr;

/// Words in a [`WayMask`] (`MAX_WAYS / 64`).
pub const WAY_WORDS: usize = MAX_WAYS / 64;

/// A bitmap over the ways of one set: bit `w` of word `w / 64` describes
/// way `w`. Supports up to [`MAX_WAYS`] ways.
///
/// The single-`u64` per-set bitmaps this replaces capped associativity at
/// 64; `WayMask` keeps the packed-bitmap layout (presence scans walk set
/// bits, clearing a way is a bit-and) while widening it to four words.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Default)]
pub struct WayMask {
    words: [u64; WAY_WORDS],
}

impl WayMask {
    /// The empty mask.
    pub const EMPTY: WayMask = WayMask {
        words: [0; WAY_WORDS],
    };

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
             limit of the multi-word set bitmaps"
        );
        let mut words = [0u64; WAY_WORDS];
        for (i, word) in words.iter_mut().enumerate() {
            let lo = i * 64;
            if ways >= lo + 64 {
                *word = u64::MAX;
            } else if ways > lo {
                *word = (1u64 << (ways - lo)) - 1;
            }
        }
        WayMask { words }
    }

    /// A mask with only bit `way` set.
    pub fn single(way: usize) -> WayMask {
        let mut m = WayMask::EMPTY;
        m.set(way);
        m
    }

    /// Sets bit `way`.
    ///
    /// # Panics
    ///
    /// Panics if `way >= MAX_WAYS`.
    #[inline]
    pub fn set(&mut self, way: usize) {
        debug_assert!(
            way < MAX_WAYS,
            "way {way} out of range for the {MAX_WAYS}-way bitmap"
        );
        self.words[way >> 6] |= 1u64 << (way & 63);
    }

    /// Clears bit `way`.
    #[inline]
    pub fn clear(&mut self, way: usize) {
        self.words[way >> 6] &= !(1u64 << (way & 63));
    }

    /// Whether bit `way` is set.
    #[inline]
    pub fn contains(&self, way: usize) -> bool {
        self.words[way >> 6] & (1u64 << (way & 63)) != 0
    }

    /// Whether no bit is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of set bits.
    #[inline]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The lowest set bit, if any — the hardware's left-to-right scan.
    #[inline]
    pub fn first(&self) -> Option<usize> {
        for (i, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(i * 64 + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Bitwise AND.
    #[inline]
    #[must_use]
    pub fn and(&self, other: &WayMask) -> WayMask {
        let mut words = self.words;
        for (a, b) in words.iter_mut().zip(other.words) {
            *a &= b;
        }
        WayMask { words }
    }

    /// Bitwise OR.
    #[inline]
    #[must_use]
    pub fn or(&self, other: &WayMask) -> WayMask {
        let mut words = self.words;
        for (a, b) in words.iter_mut().zip(other.words) {
            *a |= b;
        }
        WayMask { words }
    }

    /// `self & !other` — e.g. the invalid ways of a set as
    /// `WayMask::all(ways).and_not(valid)`.
    #[inline]
    #[must_use]
    pub fn and_not(&self, other: &WayMask) -> WayMask {
        let mut words = self.words;
        for (a, b) in words.iter_mut().zip(other.words) {
            *a &= !b;
        }
        WayMask { words }
    }

    /// Iterates the set bits in ascending way order.
    #[inline]
    pub fn iter(&self) -> WayIter {
        WayIter {
            words: self.words,
            word: 0,
        }
    }

    /// The raw words, lowest ways first (for checkpointing; callers decide
    /// how many words a given associativity needs).
    #[inline]
    pub fn words(&self) -> &[u64; WAY_WORDS] {
        &self.words
    }

    /// Mutable raw-word access (checkpoint decode).
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64; WAY_WORDS] {
        &mut self.words
    }
}

impl std::fmt::Debug for WayMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "WayMask({:#x},{:#x},{:#x},{:#x})",
            self.words[0], self.words[1], self.words[2], self.words[3]
        )
    }
}

/// Iterator over the set bits of a [`WayMask`] in ascending way order.
pub struct WayIter {
    words: [u64; WAY_WORDS],
    word: usize,
}

impl Iterator for WayIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word < WAY_WORDS {
            let w = self.words[self.word];
            if w != 0 {
                let bit = w.trailing_zeros() as usize;
                self.words[self.word] &= w - 1;
                return Some(self.word * 64 + bit);
            }
            self.word += 1;
        }
        None
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

/// Arrays at least this long take the 8-lane portable tier; shorter ones
/// keep the 4-lane loop, whose lighter prologue wins at common (≤ 16-way)
/// associativities.
const PORTABLE_WIDE_THRESHOLD: usize = 64;

/// The width tier [`probe_portable`] picks for an array of `len` tags:
/// `"lanes4"` below [`PORTABLE_WIDE_THRESHOLD`], `"lanes8"` at or above
/// it. Exposed so the differential tests can assert the tier actually
/// exercised at each associativity.
pub fn portable_tier(len: usize) -> &'static str {
    if len >= PORTABLE_WIDE_THRESHOLD {
        "lanes8"
    } else {
        "lanes4"
    }
}

/// Portable kernel (reported as `scalar4`): a branchless match-mask loop,
/// width-tiered by array length. The default off x86-64 and under
/// `TLA_FORCE_SCALAR`.
///
/// Short arrays use a 4-lane unroll; arrays of [`PORTABLE_WIDE_THRESHOLD`]
/// tags or more use an 8-lane unroll whole-word accumulator, which closes
/// the gap to the naive loop at 128/256 ways (the 4-lane loop's
/// per-chunk word-indexed read-modify-write stalled there). Both tiers
/// never straddle a mask word inside a chunk (64 is a multiple of 4 and
/// of 8), so each chunk's bits land in a single word.
pub fn probe_portable(addrs: &[LineAddr], needle: LineAddr) -> WayMask {
    debug_assert!(addrs.len() <= MAX_WAYS);
    if addrs.len() >= PORTABLE_WIDE_THRESHOLD {
        return probe_portable_wide(addrs, needle);
    }
    let mut m = WayMask::EMPTY;
    let n = addrs.len();
    let mut i = 0;
    while i + 4 <= n {
        let b0 = (addrs[i] == needle) as u64;
        let b1 = (addrs[i + 1] == needle) as u64;
        let b2 = (addrs[i + 2] == needle) as u64;
        let b3 = (addrs[i + 3] == needle) as u64;
        let bits = b0 | (b1 << 1) | (b2 << 2) | (b3 << 3);
        m.words[i >> 6] |= bits << (i & 63);
        i += 4;
    }
    while i < n {
        m.words[i >> 6] |= ((addrs[i] == needle) as u64) << (i & 63);
        i += 1;
    }
    m
}

/// Wide tier of the portable kernel: 8 lanes per step, accumulating each
/// mask word in a register across its eight chunks and storing it once.
fn probe_portable_wide(addrs: &[LineAddr], needle: LineAddr) -> WayMask {
    debug_assert!(addrs.len() <= MAX_WAYS);
    let mut m = WayMask::EMPTY;
    let n = addrs.len();
    let mut i = 0;
    let mut word = 0u64;
    while i + 8 <= n {
        let b0 = (addrs[i] == needle) as u64;
        let b1 = (addrs[i + 1] == needle) as u64;
        let b2 = (addrs[i + 2] == needle) as u64;
        let b3 = (addrs[i + 3] == needle) as u64;
        let b4 = (addrs[i + 4] == needle) as u64;
        let b5 = (addrs[i + 5] == needle) as u64;
        let b6 = (addrs[i + 6] == needle) as u64;
        let b7 = (addrs[i + 7] == needle) as u64;
        let bits =
            b0 | (b1 << 1) | (b2 << 2) | (b3 << 3) | (b4 << 4) | (b5 << 5) | (b6 << 6) | (b7 << 7);
        word |= bits << (i & 63);
        i += 8;
        if i & 63 == 0 {
            m.words[(i - 1) >> 6] = word;
            word = 0;
        }
    }
    while i < n {
        word |= ((addrs[i] == needle) as u64) << (i & 63);
        i += 1;
        if i & 63 == 0 {
            m.words[(i - 1) >> 6] = word;
            word = 0;
        }
    }
    if i & 63 != 0 {
        m.words[i >> 6] = word;
    }
    m
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
    let mut m = WayMask::EMPTY;
    let n = addrs.len();
    let needle_v = _mm256_set1_epi64x(needle.raw() as i64);
    // `LineAddr` is repr(transparent) over u64, so the dense address slice
    // loads directly as packed 64-bit lanes.
    let base = addrs.as_ptr().cast::<u64>();
    let mut i = 0;
    // 8 tags per step: two unaligned 256-bit loads, compare, and pack the
    // two 4-bit movemasks into one byte. 64 is a multiple of 8, so a step's
    // bits always land in a single mask word.
    while i + 8 <= n {
        let lo = _mm256_loadu_si256(base.add(i).cast::<__m256i>());
        let hi = _mm256_loadu_si256(base.add(i + 4).cast::<__m256i>());
        let eq_lo = _mm256_cmpeq_epi64(lo, needle_v);
        let eq_hi = _mm256_cmpeq_epi64(hi, needle_v);
        // Each 64-bit lane of the compare result is all-ones or all-zeros;
        // movemask_pd extracts one bit per lane.
        let bits_lo = _mm256_movemask_pd(_mm256_castsi256_pd(eq_lo)) as u64;
        let bits_hi = _mm256_movemask_pd(_mm256_castsi256_pd(eq_hi)) as u64;
        let bits = bits_lo | (bits_hi << 4);
        m.words[i >> 6] |= bits << (i & 63);
        i += 8;
    }
    while i < n {
        m.words[i >> 6] |= ((addrs[i] == needle) as u64) << (i & 63);
        i += 1;
    }
    m
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
/// the selected kernel in [`MAX_WAYS`]-wide chunks. The fully-associative
/// victim cache's linear scans use this; `addrs` may be any length.
pub fn find_index(addrs: &[LineAddr], needle: LineAddr) -> Option<usize> {
    let kernel = probe_kernel().func;
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
        assert_eq!(WayMask::all(1).count(), 1);
        assert_eq!(WayMask::all(64).count(), 64);
        assert_eq!(WayMask::all(65).count(), 65);
        assert_eq!(WayMask::all(256).count(), 256);
        assert_eq!(WayMask::all(64).words()[0], u64::MAX);
        assert_eq!(WayMask::all(64).words()[1], 0);
        assert_eq!(WayMask::all(65).words()[1], 1);
    }

    #[test]
    #[should_panic(expected = "exceeds the 256-way limit")]
    fn waymask_all_rejects_too_wide() {
        let _ = WayMask::all(257);
    }

    #[test]
    fn waymask_set_clear_contains_iter() {
        let mut m = WayMask::EMPTY;
        for w in [0, 63, 64, 127, 128, 255] {
            m.set(w);
        }
        assert_eq!(m.count(), 6);
        assert!(m.contains(64) && m.contains(255) && !m.contains(1));
        assert_eq!(m.first(), Some(0));
        let ways: Vec<usize> = m.iter().collect();
        assert_eq!(ways, vec![0, 63, 64, 127, 128, 255]);
        m.clear(0);
        assert_eq!(m.first(), Some(63));
        assert_eq!(m.count(), 5);
    }

    #[test]
    fn waymask_bit_algebra() {
        let a = WayMask::all(100);
        let b = WayMask::all(70);
        assert_eq!(a.and(&b), b);
        assert_eq!(a.or(&b), a);
        let inv = a.and_not(&b);
        assert_eq!(inv.count(), 30);
        assert_eq!(inv.first(), Some(70));
        assert_eq!(WayMask::single(199).first(), Some(199));
    }

    /// The satellite differential sweep: for every edge associativity, on
    /// random address streams, the naive reference, the portable kernel
    /// (both width tiers), the AVX2 kernel (when the host supports it) and
    /// the dispatched kernel agree way-for-way on the full match mask —
    /// and the width tier the portable kernel picks at each associativity
    /// is the expected one.
    #[test]
    fn kernels_agree_on_random_streams() {
        let mut rng = SmallRng::seed_from_u64(0x5e7_980be);
        for &ways in &[1usize, 7, 8, 63, 64, 65, 128, 256] {
            // The tier choice is a pure function of the array length:
            // 4-lane below the 64-way threshold, 8-lane at or above it.
            let expect_tier = if ways >= 64 { "lanes8" } else { "lanes4" };
            assert_eq!(
                portable_tier(ways),
                expect_tier,
                "wrong portable width tier at ways={ways}"
            );
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
                assert_eq!(
                    probe_portable(&addrs, needle),
                    expect,
                    "portable kernel diverges at ways={ways}"
                );
                // The wide tier must agree even below its dispatch
                // threshold (its tail loop handles any length).
                assert_eq!(
                    probe_portable_wide(&addrs, needle),
                    expect,
                    "wide portable tier diverges at ways={ways}"
                );
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("avx2") {
                    assert_eq!(
                        probe_avx2(&addrs, needle),
                        expect,
                        "avx2 kernel diverges at ways={ways}"
                    );
                }
                assert_eq!(
                    (probe_kernel().func)(&addrs, needle),
                    expect,
                    "dispatched kernel diverges at ways={ways}"
                );
            }
        }
    }

    #[test]
    fn kernels_handle_empty_and_no_match() {
        let empty: Vec<LineAddr> = Vec::new();
        assert!(probe_portable(&empty, LineAddr::new(1)).is_empty());
        let addrs: Vec<LineAddr> = (0..16).map(LineAddr::new).collect();
        assert!(probe_portable(&addrs, LineAddr::new(99)).is_empty());
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            assert!(probe_avx2(&empty, LineAddr::new(1)).is_empty());
            assert!(probe_avx2(&addrs, LineAddr::new(99)).is_empty());
        }
    }

    #[test]
    fn find_index_scans_beyond_a_chunk() {
        // 600 entries spans three MAX_WAYS-wide kernel chunks.
        let addrs: Vec<LineAddr> = (0..600).map(|i| LineAddr::new(i + 1000)).collect();
        assert_eq!(find_index(&addrs, LineAddr::new(1000)), Some(0));
        assert_eq!(find_index(&addrs, LineAddr::new(1255)), Some(255));
        assert_eq!(find_index(&addrs, LineAddr::new(1256)), Some(256));
        assert_eq!(find_index(&addrs, LineAddr::new(1599)), Some(599));
        assert_eq!(find_index(&addrs, LineAddr::new(7)), None);
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
