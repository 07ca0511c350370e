//! Per-set histograms: where in the LLC do evictions and inclusion
//! victims land?
//!
//! Hot-set skew is invisible in run totals: a policy can look harmless on
//! aggregate MPKI while hammering a handful of sets. This collector
//! resolves the two events the paper cares most about — LLC evictions and
//! the back-invalidates they trigger — per LLC set, plus a bounded
//! reservoir sample of concrete events for drill-down.

use crate::event::{EventKind, TelemetryEvent};
use crate::sink::TelemetrySink;
use tla_snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use tla_types::{CacheLevel, CoreId, LineAddr};

/// Default capacity of the example-event reservoir.
pub const DEFAULT_RESERVOIR: usize = 64;

/// Counts LLC evictions and inclusion back-invalidates per LLC set.
///
/// Implements [`TelemetrySink`]; install it (usually behind a
/// [`crate::SharedSink`]) and read it back after the run. Events of other
/// kinds, or without a set index, are ignored.
///
/// Memory is bounded: per-set counters saturate at `u32::MAX` and the
/// example reservoir holds at most its configured capacity, replacing
/// entries by uniform reservoir sampling so the examples stay an unbiased
/// draw from the whole run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerSetHistogram {
    evictions: Vec<u32>,
    inclusion_victims: Vec<u32>,
    reservoir: Vec<TelemetryEvent>,
    reservoir_cap: usize,
    seen: u64,
    rng: u64,
}

impl PerSetHistogram {
    /// A histogram over `sets` LLC sets with the default reservoir size.
    pub fn new(sets: usize) -> Self {
        Self::with_reservoir(sets, DEFAULT_RESERVOIR)
    }

    /// A histogram over `sets` LLC sets keeping at most `reservoir_cap`
    /// example events.
    pub fn with_reservoir(sets: usize, reservoir_cap: usize) -> Self {
        assert!(sets > 0, "histogram needs at least one set");
        PerSetHistogram {
            evictions: vec![0; sets],
            inclusion_victims: vec![0; sets],
            reservoir: Vec::with_capacity(reservoir_cap),
            reservoir_cap,
            seen: 0,
            rng: 0x5EED_u64,
        }
    }

    /// Number of LLC sets tracked.
    pub fn sets(&self) -> usize {
        self.evictions.len()
    }

    /// Eviction count per set.
    pub fn evictions(&self) -> &[u32] {
        &self.evictions
    }

    /// Inclusion-victim (back-invalidate) count per set.
    pub fn inclusion_victims(&self) -> &[u32] {
        &self.inclusion_victims
    }

    /// Events counted (evictions + inclusion victims, pre-saturation).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The reservoir of example events (unordered).
    pub fn samples(&self) -> &[TelemetryEvent] {
        &self.reservoir
    }

    /// Aggregate skew figures for quick inspection.
    pub fn summary(&self) -> SetHistogramSummary {
        let total_evictions: u64 = self.evictions.iter().map(|&c| c as u64).sum();
        let total_victims: u64 = self.inclusion_victims.iter().map(|&c| c as u64).sum();
        let (hottest_set, max) = self
            .evictions
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, &c)| (i, c))
            .unwrap_or((0, 0));
        let mean = total_evictions as f64 / self.sets() as f64;
        SetHistogramSummary {
            sets: self.sets(),
            total_evictions,
            total_inclusion_victims: total_victims,
            hottest_set,
            hottest_set_evictions: max,
            eviction_skew: if mean > 0.0 { max as f64 / mean } else { 0.0 },
        }
    }

    /// xorshift64 step for reservoir replacement decisions; keeping the
    /// generator inline avoids a dependency edge back onto `tla-rng`.
    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }
}

fn write_event(w: &mut SnapshotWriter, e: &TelemetryEvent) {
    w.write_u8(e.kind.index() as u8);
    w.write_bool(e.core.is_some());
    if let Some(c) = e.core {
        w.write_u8(c.index() as u8);
    }
    w.write_bool(e.level.is_some());
    if let Some(l) = e.level {
        let idx = CacheLevel::ALL
            .iter()
            .position(|&x| x == l)
            .expect("level in ALL");
        w.write_u8(idx as u8);
    }
    w.write_bool(e.set.is_some());
    if let Some(s) = e.set {
        w.write_u32(s);
    }
    w.write_bool(e.addr.is_some());
    if let Some(a) = e.addr {
        w.write_u64(a.raw());
    }
    w.write_u64(e.instr);
}

fn read_event(r: &mut SnapshotReader) -> Result<TelemetryEvent, SnapshotError> {
    let kind_idx = r.read_u8()? as usize;
    let kind = *EventKind::ALL.get(kind_idx).ok_or_else(|| {
        SnapshotError::Corrupt(format!(
            "telemetry event kind index {kind_idx} out of range"
        ))
    })?;
    let core = if r.read_bool()? {
        let idx = r.read_u8()? as usize;
        if idx >= CoreId::MAX_CORES {
            return Err(SnapshotError::Corrupt(format!(
                "telemetry event core index {idx} out of range"
            )));
        }
        Some(CoreId::new(idx))
    } else {
        None
    };
    let level = if r.read_bool()? {
        let idx = r.read_u8()? as usize;
        Some(*CacheLevel::ALL.get(idx).ok_or_else(|| {
            SnapshotError::Corrupt(format!("telemetry event level index {idx} out of range"))
        })?)
    } else {
        None
    };
    let set = if r.read_bool()? {
        Some(r.read_u32()?)
    } else {
        None
    };
    let addr = if r.read_bool()? {
        Some(LineAddr::new(r.read_u64()?))
    } else {
        None
    };
    let instr = r.read_u64()?;
    Ok(TelemetryEvent {
        kind,
        core,
        level,
        set,
        addr,
        instr,
    })
}

/// Checkpoint coverage: both per-set count arrays, the reservoir with its
/// sampling state (`seen` and the inline RNG), so a resumed run keeps
/// drawing an unbiased sample. The set count and reservoir capacity are
/// configuration and must match the receiver's. Decoding refuses a
/// sampled event this collector would not have kept (another kind, no
/// set, or a set past the LLC) and a sample count other than
/// `min(seen, capacity)`.
impl Snapshot for PerSetHistogram {
    fn write_state(&self, w: &mut SnapshotWriter) {
        w.write_usize(self.evictions.len());
        for &c in &self.evictions {
            w.write_u32(c);
        }
        for &c in &self.inclusion_victims {
            w.write_u32(c);
        }
        w.write_usize(self.reservoir.len());
        for e in &self.reservoir {
            write_event(w, e);
        }
        w.write_u64(self.seen);
        w.write_u64(self.rng);
    }

    fn read_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        let sets = r.read_usize()?;
        if sets != self.evictions.len() {
            return Err(SnapshotError::Mismatch(format!(
                "set histogram: snapshot covers {sets} LLC sets, this LLC has {}",
                self.evictions.len()
            )));
        }
        for c in &mut self.evictions {
            *c = r.read_u32()?;
        }
        for c in &mut self.inclusion_victims {
            *c = r.read_u32()?;
        }
        let n = r.read_usize()?;
        if n > self.reservoir_cap {
            return Err(SnapshotError::Mismatch(format!(
                "set histogram: snapshot reservoir has {n} samples, \
                 this collector's capacity is {}",
                self.reservoir_cap
            )));
        }
        self.reservoir.clear();
        for _ in 0..n {
            let e = read_event(r)?;
            if !matches!(e.kind, EventKind::LlcEviction | EventKind::BackInvalidate)
                || e.set.is_none()
            {
                return Err(SnapshotError::Corrupt(format!(
                    "set histogram: a sampled {:?} event{} is none this collector records",
                    e.kind,
                    if e.set.is_none() {
                        " without a set"
                    } else {
                        ""
                    }
                )));
            }
            if let Some(set) = e.set.filter(|&s| s as usize >= sets) {
                return Err(SnapshotError::Corrupt(format!(
                    "set histogram: a sampled event names set {set} of an LLC with {sets}"
                )));
            }
            self.reservoir.push(e);
        }
        self.seen = r.read_u64()?;
        self.rng = r.read_u64()?;
        // Algorithm R keeps every event until the reservoir fills.
        if n as u64 != self.seen.min(self.reservoir_cap as u64) {
            return Err(SnapshotError::Corrupt(format!(
                "set histogram: {n} samples kept of {} events seen, capacity {}",
                self.seen, self.reservoir_cap
            )));
        }
        Ok(())
    }
}

impl TelemetrySink for PerSetHistogram {
    fn record(&mut self, event: &TelemetryEvent) {
        let Some(set) = event.set else { return };
        let set = set as usize % self.evictions.len();
        match event.kind {
            EventKind::LlcEviction => self.evictions[set] = self.evictions[set].saturating_add(1),
            EventKind::BackInvalidate => {
                self.inclusion_victims[set] = self.inclusion_victims[set].saturating_add(1)
            }
            _ => return,
        }
        self.seen += 1;
        if self.reservoir_cap == 0 {
            return;
        }
        // Algorithm R: keep each of the `seen` events with equal
        // probability, filed under the set it was counted in.
        let sample = event.with_set(set as u32);
        if self.reservoir.len() < self.reservoir_cap {
            self.reservoir.push(sample);
        } else {
            let slot = self.next_rand() % self.seen;
            if (slot as usize) < self.reservoir_cap {
                self.reservoir[slot as usize] = sample;
            }
        }
    }
}

/// Aggregates of a [`PerSetHistogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetHistogramSummary {
    /// Number of LLC sets.
    pub sets: usize,
    /// Total LLC evictions counted.
    pub total_evictions: u64,
    /// Total inclusion victims counted.
    pub total_inclusion_victims: u64,
    /// Set with the most evictions.
    pub hottest_set: usize,
    /// Evictions in that set.
    pub hottest_set_evictions: u32,
    /// Hottest set's evictions relative to the per-set mean (1.0 = flat).
    pub eviction_skew: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evict(set: u32) -> TelemetryEvent {
        TelemetryEvent::global(EventKind::LlcEviction, 0).with_set(set)
    }

    fn back_inv(set: u32) -> TelemetryEvent {
        TelemetryEvent::global(EventKind::BackInvalidate, 0).with_set(set)
    }

    #[test]
    fn counts_land_in_their_sets() {
        let mut h = PerSetHistogram::new(8);
        h.record(&evict(3));
        h.record(&evict(3));
        h.record(&evict(5));
        h.record(&back_inv(3));
        assert_eq!(h.evictions()[3], 2);
        assert_eq!(h.evictions()[5], 1);
        assert_eq!(h.inclusion_victims()[3], 1);
        assert_eq!(h.inclusion_victims()[5], 0);
        assert_eq!(h.seen(), 4);
    }

    #[test]
    fn other_kinds_and_setless_events_are_ignored() {
        let mut h = PerSetHistogram::new(4);
        h.record(&TelemetryEvent::global(EventKind::QbsQuery, 0).with_set(1));
        h.record(&TelemetryEvent::global(EventKind::LlcEviction, 0));
        assert_eq!(h.seen(), 0);
        assert!(h.evictions().iter().all(|&c| c == 0));
    }

    #[test]
    fn reservoir_is_capped_and_samples_whole_run() {
        let mut h = PerSetHistogram::with_reservoir(16, 10);
        for i in 0..1000u64 {
            h.record(&TelemetryEvent::global(EventKind::LlcEviction, i).with_set(i as u32 % 16));
        }
        assert_eq!(h.samples().len(), 10);
        assert_eq!(h.seen(), 1000);
        // With uniform sampling over 1000 events it is astronomically
        // unlikely that every retained sample comes from the first ten.
        assert!(h.samples().iter().any(|e| e.instr >= 10));
    }

    #[test]
    fn summary_reports_skew() {
        let mut h = PerSetHistogram::new(4);
        for _ in 0..9 {
            h.record(&evict(2));
        }
        h.record(&evict(0));
        h.record(&back_inv(1));
        let s = h.summary();
        assert_eq!(s.total_evictions, 10);
        assert_eq!(s.total_inclusion_victims, 1);
        assert_eq!(s.hottest_set, 2);
        assert_eq!(s.hottest_set_evictions, 9);
        assert!((s.eviction_skew - 9.0 / 2.5).abs() < 1e-12);
    }

    #[test]
    fn snapshot_round_trip_preserves_counts_and_reservoir() {
        let mut h = PerSetHistogram::with_reservoir(16, 8);
        for i in 0..500u64 {
            h.record(
                &TelemetryEvent::global(EventKind::LlcEviction, i)
                    .with_core(CoreId::new((i % 3) as usize))
                    .with_set(i as u32 % 16),
            );
            if i % 5 == 0 {
                h.record(&TelemetryEvent::global(EventKind::BackInvalidate, i).with_set(2));
            }
        }
        let mut w = SnapshotWriter::new();
        h.write_state(&mut w);
        let bytes = w.finish();

        let mut restored = PerSetHistogram::with_reservoir(16, 8);
        let mut r = SnapshotReader::new(&bytes).unwrap();
        restored.read_state(&mut r).unwrap();
        assert_eq!(restored, h);

        // Continued recording stays identical (sampling RNG restored too).
        for i in 500..600u64 {
            let e = TelemetryEvent::global(EventKind::LlcEviction, i).with_set(i as u32 % 16);
            h.record(&e);
            restored.record(&e);
        }
        assert_eq!(restored, h);

        // Set-count mismatch is rejected.
        let mut wrong = PerSetHistogram::with_reservoir(8, 8);
        let mut r = SnapshotReader::new(&bytes).unwrap();
        let err = wrong.read_state(&mut r).unwrap_err();
        assert!(err.to_string().contains("LLC sets"), "got: {err}");
    }

    #[test]
    fn out_of_range_sets_fold_in() {
        let mut h = PerSetHistogram::new(4);
        h.record(&evict(6)); // 6 % 4 == 2
        assert_eq!(h.evictions()[2], 1);
        assert_eq!(h.samples()[0].set, Some(2), "sampled under its counted set");

        // A snapshot of it restores; one naming a set past the LLC does not.
        let mut w = SnapshotWriter::new();
        h.write_state(&mut w);
        let bytes = w.finish();
        let mut restored = PerSetHistogram::new(4);
        restored
            .read_state(&mut SnapshotReader::new(&bytes).unwrap())
            .unwrap();
        assert_eq!(restored, h);
        let mut bad = PerSetHistogram::new(4);
        bad.reservoir.push(evict(6));
        bad.evictions[2] = 1;
        bad.seen = 1;
        let mut w = SnapshotWriter::new();
        bad.write_state(&mut w);
        let bytes = w.finish();
        let err = PerSetHistogram::new(4)
            .read_state(&mut SnapshotReader::new(&bytes).unwrap())
            .unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "got: {err}");
    }
}
