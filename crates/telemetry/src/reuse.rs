//! Online reuse-distance profiling.
//!
//! The reuse-distance distribution of the LLC access stream is the lens
//! the Belady/EHC line of work reads cache behaviour through: a policy
//! only has headroom where reuse distances cluster just beyond the
//! associativity. This module provides the two pieces the `analyze`
//! pipeline composes:
//!
//! * [`ReuseHistogram`] — a log-bucketed distance histogram with
//!   saturating counters, merge and percentile queries.
//! * [`ReuseProfiler`] — a [`TelemetrySink`] that samples a configurable
//!   subset of LLC sets (every `sample_every`-th set), maintains one
//!   histogram per sampled set plus a global aggregate, and feeds on
//!   [`EventKind::LlcAccess`] events.
//!
//! Distance here is the *access-count* reuse distance within a set: the
//! number of other accesses the sampled set served between two touches of
//! the same line. First touches are counted separately as cold.
//!
//! The profiler remembers each line's previous-access clock in one
//! [`LinePages`] table keyed by the line rotated right by the set-index
//! width, so a page holds 64 consecutive tags of a single set and sets
//! that are not sampled cost nothing. A page stores only the lines
//! present in it: a presence bitmap and their `u64` clocks packed by
//! rank, so a lone line does not pay for 63 absent ones.

use std::collections::BTreeMap;
use std::fmt;
use tla_types::{LineAddr, LinePages};

use crate::event::{EventKind, TelemetryEvent};
use crate::json::JsonValue;
use crate::sink::TelemetrySink;

/// Default number of log buckets (covers distances up to 2^18 exactly,
/// with a final catch-all bucket).
pub const DEFAULT_REUSE_BUCKETS: usize = 20;

/// Default set-sampling stride: profile one in every four LLC sets.
pub const DEFAULT_SAMPLE_EVERY: u32 = 4;

/// A merge or query failure on a [`ReuseHistogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReuseError {
    /// Two histograms with different bucket configurations cannot merge.
    BucketMismatch {
        /// Bucket count of the receiving histogram.
        ours: usize,
        /// Bucket count of the incoming histogram.
        theirs: usize,
    },
}

impl fmt::Display for ReuseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReuseError::BucketMismatch { ours, theirs } => write!(
                f,
                "cannot merge reuse histograms with different bucket configurations: \
                 this histogram has {ours} buckets, the other has {theirs}"
            ),
        }
    }
}

impl std::error::Error for ReuseError {}

/// A log-bucketed reuse-distance histogram.
///
/// Bucket 0 counts distance 0 (back-to-back reuse); bucket `k >= 1`
/// counts distances in `[2^(k-1), 2^k)`; the last bucket additionally
/// absorbs everything beyond its range. All counters saturate at
/// `u64::MAX` instead of wrapping, so a merged fleet of histograms can
/// never corrupt totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReuseHistogram {
    buckets: Vec<u64>,
    cold: u64,
    total: u64,
}

impl ReuseHistogram {
    /// An empty histogram with `num_buckets` log buckets.
    ///
    /// # Panics
    ///
    /// Panics if `num_buckets` is zero.
    pub fn new(num_buckets: usize) -> Self {
        assert!(num_buckets > 0, "reuse histogram needs at least one bucket");
        ReuseHistogram {
            buckets: vec![0; num_buckets],
            cold: 0,
            total: 0,
        }
    }

    /// The bucket index a distance falls into.
    fn bucket_of(&self, distance: u64) -> usize {
        let b = match distance {
            0 => 0,
            d => d.ilog2() as usize + 1,
        };
        b.min(self.buckets.len() - 1)
    }

    /// Largest distance bucket `k` covers exactly (the last bucket is a
    /// catch-all and reports `u64::MAX`).
    pub fn bucket_bound(&self, k: usize) -> u64 {
        if k + 1 >= self.buckets.len() {
            u64::MAX
        } else if k == 0 {
            0
        } else {
            (1u64 << k) - 1
        }
    }

    /// Records one finite reuse distance.
    pub fn record(&mut self, distance: u64) {
        self.record_many(distance, 1);
    }

    /// Records `n` observations of `distance` at once (the merge path for
    /// pre-aggregated samples). Counters saturate.
    pub fn record_many(&mut self, distance: u64, n: u64) {
        let b = self.bucket_of(distance);
        self.buckets[b] = self.buckets[b].saturating_add(n);
        self.total = self.total.saturating_add(n);
    }

    /// Records a first touch (infinite distance).
    pub fn record_cold(&mut self) {
        self.cold = self.cold.saturating_add(1);
    }

    /// Per-bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// First-touch (cold) count.
    pub fn cold(&self) -> u64 {
        self.cold
    }

    /// Finite distances recorded (sum of bucket counts, pre-saturation).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Whether nothing was recorded (neither finite distances nor colds).
    pub fn is_empty(&self) -> bool {
        self.total == 0 && self.cold == 0
    }

    /// Adds `other` into `self`, saturating.
    ///
    /// # Errors
    ///
    /// [`ReuseError::BucketMismatch`] when the bucket configurations
    /// differ — merging histograms of different resolutions would silently
    /// misfile counts.
    pub fn merge(&mut self, other: &ReuseHistogram) -> Result<(), ReuseError> {
        if self.buckets.len() != other.buckets.len() {
            return Err(ReuseError::BucketMismatch {
                ours: self.buckets.len(),
                theirs: other.buckets.len(),
            });
        }
        for (b, &o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b = b.saturating_add(o);
        }
        self.cold = self.cold.saturating_add(other.cold);
        self.total = self.total.saturating_add(other.total);
        Ok(())
    }

    /// The distance below which fraction `p` (in `[0, 1]`) of the *finite*
    /// recorded distances fall, as the upper bound of the bucket the rank
    /// lands in. `None` when no finite distance was recorded.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let p = p.clamp(0.0, 1.0);
        let rank = ((p * self.total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            cum = cum.saturating_add(c);
            if cum >= rank {
                return Some(self.bucket_bound(k));
            }
        }
        Some(self.bucket_bound(self.buckets.len() - 1))
    }

    /// JSON encoding: `{"cold": n, "total": n, "buckets": [...]}`.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("cold", JsonValue::from(self.cold)),
            ("total", JsonValue::from(self.total)),
            (
                "buckets",
                JsonValue::array(self.buckets.iter().map(|&c| JsonValue::from(c))),
            ),
        ])
    }

    /// Inverse of [`ReuseHistogram::to_json`].
    pub fn from_json(v: &JsonValue) -> Option<ReuseHistogram> {
        let cold = v.get("cold")?.as_u64()?;
        let total = v.get("total")?.as_u64()?;
        let buckets = v
            .get("buckets")?
            .as_array()?
            .iter()
            .map(|b| b.as_u64())
            .collect::<Option<Vec<u64>>>()?;
        if buckets.is_empty() {
            return None;
        }
        Some(ReuseHistogram {
            buckets,
            cold,
            total,
        })
    }
}

/// Per-set profiling state.
#[derive(Debug, Clone)]
struct SetState {
    /// The LLC set this state profiles.
    set: u32,
    /// Accesses this set has served (the set-local clock).
    clock: u64,
    hist: ReuseHistogram,
}

/// Previous-access clocks of the lines present among one page's 64 tags:
/// bit `b` of `present` says whether tag `b` was seen, and its clock is
/// `clocks[rank]`, `rank` being the number of present tags below `b`.
#[derive(Debug, Clone, Default)]
struct ClockPage {
    present: u64,
    clocks: Vec<u64>,
}

impl ClockPage {
    /// Sets tag `bit`'s clock to `now`, returning its previous clock, or
    /// `None` at its first touch.
    #[inline]
    fn swap(&mut self, bit: usize, now: u64) -> Option<u64> {
        let rank = (self.present & ((1 << bit) - 1)).count_ones() as usize;
        if self.present >> bit & 1 == 1 {
            return Some(std::mem::replace(&mut self.clocks[rank], now));
        }
        self.present |= 1 << bit;
        // Grow 1, 2, 4, …, 64: a lone line costs one word.
        if self.clocks.len() == self.clocks.capacity() {
            self.clocks.reserve_exact(self.clocks.len().max(1));
        }
        self.clocks.insert(rank, now);
        None
    }
}

/// A [`TelemetrySink`] computing reuse-distance histograms over a sampled
/// subset of LLC sets.
///
/// Feeds on [`EventKind::LlcAccess`] events carrying a set index and a
/// line address; every other event is ignored, so the profiler composes
/// freely inside a [`crate::MultiSink`] with counting sinks and windowed
/// series. Sets with index divisible by `sample_every` are profiled;
/// memory is bounded by the sampled sets' footprints.
#[derive(Debug, Clone)]
pub struct ReuseProfiler {
    sample_every: u32,
    /// Width of the set index: `llc_sets` rounded up to a power of two.
    set_bits: u32,
    sets: Vec<SetState>,
    /// Previous-access clocks of lines seen in the set their low
    /// `set_bits` bits name, keyed by the line rotated right by
    /// `set_bits` (a bijection, so no two lines share a slot).
    pages: LinePages<ClockPage>,
    /// Previous-access clocks of `(set, line)` pairs whose event named
    /// another set than the line's own. The hierarchy never emits one;
    /// they are kept apart so a line seen in two sets has two clocks.
    strays: BTreeMap<(u32, u64), u64>,
    global: ReuseHistogram,
}

impl ReuseProfiler {
    /// A profiler over an LLC with `llc_sets` sets, sampling every
    /// `sample_every`-th set into histograms of `num_buckets` buckets.
    ///
    /// A zero `sample_every` is clamped to 1 (profile every set): the
    /// stride feeds `step_by`, and a panic deep inside a long analyzed
    /// run is a far worse failure mode than a thorough profile, as in
    /// [`WindowedSeries::new`](crate::WindowedSeries::new)'s window
    /// handling.
    ///
    /// # Panics
    ///
    /// Panics if `num_buckets` or `llc_sets` is zero.
    pub fn new(llc_sets: usize, sample_every: u32, num_buckets: usize) -> Self {
        let sample_every = sample_every.max(1);
        assert!(llc_sets > 0, "profiler needs at least one LLC set");
        let sets = (0..llc_sets as u32)
            .step_by(sample_every as usize)
            .map(|set| SetState {
                set,
                clock: 0,
                hist: ReuseHistogram::new(num_buckets),
            })
            .collect::<Vec<_>>();
        ReuseProfiler {
            sample_every,
            set_bits: llc_sets.next_power_of_two().trailing_zeros(),
            sets,
            pages: LinePages::new(),
            strays: BTreeMap::new(),
            global: ReuseHistogram::new(num_buckets),
        }
    }

    /// The sampling stride.
    pub fn sample_every(&self) -> u32 {
        self.sample_every
    }

    /// Number of sets being profiled.
    pub fn sampled_sets(&self) -> usize {
        self.sets.len()
    }

    /// The aggregate histogram over every sampled set.
    pub fn global(&self) -> &ReuseHistogram {
        &self.global
    }

    /// Per-set histograms, in ascending set order.
    pub fn per_set(&self) -> impl Iterator<Item = (u32, &ReuseHistogram)> {
        self.sets.iter().map(|s| (s.set, &s.hist))
    }
}

impl TelemetrySink for ReuseProfiler {
    fn record(&mut self, event: &TelemetryEvent) {
        if event.kind != EventKind::LlcAccess {
            return;
        }
        let (Some(set), Some(addr)) = (event.set, event.addr) else {
            return;
        };
        if set % self.sample_every != 0 {
            return;
        }
        let idx = (set / self.sample_every) as usize;
        let Some(state) = self.sets.get_mut(idx) else {
            return;
        };
        let now = state.clock;
        state.clock += 1;
        let line = addr.raw();
        let own_set = line & ((1 << self.set_bits) - 1);
        let prev = if own_set == u64::from(set) {
            let (page, bit) = self
                .pages
                .page_mut(LineAddr::new(line.rotate_right(self.set_bits)));
            page.swap(bit, now)
        } else {
            self.strays.insert((set, line), now)
        };
        match prev {
            Some(prev) => {
                let d = now - prev - 1;
                state.hist.record(d);
                self.global.record(d);
            }
            None => {
                state.hist.record_cold();
                self.global.record_cold();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tla_types::LineAddr;

    fn access(set: u32, addr: u64) -> TelemetryEvent {
        TelemetryEvent::global(EventKind::LlcAccess, 0)
            .with_set(set)
            .with_addr(LineAddr::new(addr))
    }

    #[test]
    fn empty_histogram_serializes_and_round_trips() {
        let h = ReuseHistogram::new(6);
        assert!(h.is_empty());
        let j = h.to_json();
        assert_eq!(j.get("cold").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(j.get("total").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(
            j.get("buckets").and_then(|v| v.as_array()).map(|a| a.len()),
            Some(6)
        );
        let text = j.to_pretty();
        let back = ReuseHistogram::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.percentile(0.5), None);
    }

    #[test]
    fn bucket_boundaries_are_log2() {
        let mut h = ReuseHistogram::new(5);
        // Bucket 0: d = 0. Bucket k: [2^(k-1), 2^k). Last bucket catches all.
        for (d, b) in [
            (0u64, 0usize),
            (1, 1),
            (2, 2),
            (3, 2),
            (4, 3),
            (7, 3),
            (8, 4),
            (1 << 40, 4),
        ] {
            h = ReuseHistogram::new(5);
            h.record(d);
            assert_eq!(h.buckets()[b], 1, "distance {d} must land in bucket {b}");
        }
        assert_eq!(h.bucket_bound(0), 0);
        assert_eq!(h.bucket_bound(1), 1);
        assert_eq!(h.bucket_bound(2), 3);
        assert_eq!(h.bucket_bound(3), 7);
        assert_eq!(h.bucket_bound(4), u64::MAX);
    }

    #[test]
    fn bucket_counts_saturate_instead_of_wrapping() {
        let mut h = ReuseHistogram::new(4);
        h.record_many(1, u64::MAX - 2);
        h.record_many(1, 5);
        assert_eq!(h.buckets()[1], u64::MAX);
        assert_eq!(h.total(), u64::MAX);
        // A saturated histogram keeps absorbing merges without wrapping.
        let mut other = ReuseHistogram::new(4);
        other.record_many(1, 100);
        h.merge(&other).unwrap();
        assert_eq!(h.buckets()[1], u64::MAX);
    }

    #[test]
    fn merge_of_mismatched_bucket_configs_is_a_descriptive_error() {
        let mut a = ReuseHistogram::new(8);
        let b = ReuseHistogram::new(12);
        let err = a.merge(&b).unwrap_err();
        assert_eq!(
            err,
            ReuseError::BucketMismatch {
                ours: 8,
                theirs: 12
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("8 buckets"), "got: {msg}");
        assert!(msg.contains("12"), "got: {msg}");
    }

    #[test]
    fn merge_accumulates_counts_and_colds() {
        let mut a = ReuseHistogram::new(6);
        a.record(0);
        a.record(5);
        a.record_cold();
        let mut b = ReuseHistogram::new(6);
        b.record(5);
        b.record_cold();
        a.merge(&b).unwrap();
        assert_eq!(a.total(), 3);
        assert_eq!(a.cold(), 2);
        assert_eq!(a.buckets()[0], 1);
    }

    #[test]
    fn percentile_on_single_bucket_data() {
        // Histogram with one bucket: every distance is the catch-all.
        let mut h = ReuseHistogram::new(1);
        h.record(0);
        h.record(123);
        assert_eq!(h.percentile(0.0), Some(u64::MAX));
        assert_eq!(h.percentile(1.0), Some(u64::MAX));
        // Multi-bucket histogram whose data sits in a single bucket: every
        // percentile reports that bucket's bound.
        let mut h = ReuseHistogram::new(8);
        for _ in 0..10 {
            h.record(5); // bucket 3, bound 7
        }
        assert_eq!(h.percentile(0.01), Some(7));
        assert_eq!(h.percentile(0.5), Some(7));
        assert_eq!(h.percentile(1.0), Some(7));
    }

    #[test]
    fn percentile_walks_cumulative_mass() {
        let mut h = ReuseHistogram::new(8);
        for _ in 0..90 {
            h.record(0); // bucket 0
        }
        for _ in 0..10 {
            h.record(100); // bucket 7 (catch-all at 8 buckets? 100 -> ilog2=6 -> bucket 7)
        }
        assert_eq!(h.percentile(0.5), Some(0));
        assert_eq!(h.percentile(0.9), Some(0));
        assert_eq!(h.percentile(0.95), Some(u64::MAX));
    }

    #[test]
    fn profiler_measures_set_local_distances() {
        let mut p = ReuseProfiler::new(8, 1, 8);
        p.record(&access(0, 10)); // cold
        p.record(&access(0, 11)); // cold
        p.record(&access(0, 10)); // one intervening access -> d = 1
        p.record(&access(0, 10)); // back-to-back -> d = 0
        assert_eq!(p.global().cold(), 2);
        assert_eq!(p.global().total(), 2);
        assert_eq!(p.global().buckets()[0], 1); // d = 0
        assert_eq!(p.global().buckets()[1], 1); // d = 1
        let (set, h) = p.per_set().next().unwrap();
        assert_eq!(set, 0);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn profiler_skips_unsampled_sets_and_foreign_events() {
        let mut p = ReuseProfiler::new(8, 4, 8);
        assert_eq!(p.sampled_sets(), 2); // sets 0 and 4
        p.record(&access(1, 10));
        p.record(&access(3, 10));
        assert!(p.global().is_empty());
        p.record(&access(4, 10));
        p.record(&access(4, 10));
        assert_eq!(p.global().total(), 1);
        // Events without addr or of other kinds are ignored.
        p.record(&TelemetryEvent::global(EventKind::LlcAccess, 0).with_set(0));
        p.record(&TelemetryEvent::global(EventKind::LlcEviction, 0).with_set(0));
        assert_eq!(p.global().total() + p.global().cold(), 2);
    }

    #[test]
    fn distances_are_per_set_not_global() {
        let mut p = ReuseProfiler::new(8, 1, 8);
        p.record(&access(0, 10));
        // A storm of accesses to *other* sets must not widen set 0's
        // distances.
        for i in 0..100 {
            p.record(&access(1, 1000 + i));
        }
        p.record(&access(0, 10)); // d = 0 within set 0
        let (_, h) = p.per_set().next().unwrap();
        assert_eq!(h.buckets()[0], 1);
    }

    #[test]
    fn zero_sample_every_clamps_to_every_set() {
        // Regression: a zero stride used to assert; it now clamps to 1
        // (profile every set), mirroring `WindowedSeries::new`'s zero-
        // window handling, and behaves identically to stride 1.
        let mut clamped = ReuseProfiler::new(8, 0, 8);
        assert_eq!(clamped.sample_every(), 1);
        let mut full = ReuseProfiler::new(8, 1, 8);
        for p in [&mut clamped, &mut full] {
            p.record(&access(3, 42));
            p.record(&access(3, 42));
        }
        assert_eq!(clamped.global().buckets(), full.global().buckets());
        assert_eq!(clamped.per_set().count(), full.per_set().count());
    }
}
