//! Windowed time-series collection over the hierarchy's counters.

use tla_snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use tla_types::{GlobalStats, PerCoreStats};

/// Counter deltas for one window of execution.
///
/// `per_core` and `global` hold the *difference* over the window
/// (computed with [`PerCoreStats::since`] / [`GlobalStats::since`]), not
/// cumulative totals, so windows can be plotted or diffed directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Window {
    /// 0-based position in the series.
    pub index: usize,
    /// Total committed instructions (across all cores) when the window
    /// opened.
    pub start_instr: u64,
    /// Total committed instructions when the window closed.
    pub end_instr: u64,
    /// Per-core counter deltas over the window.
    pub per_core: Vec<PerCoreStats>,
    /// Global counter deltas over the window.
    pub global: GlobalStats,
}

impl Window {
    /// Instructions committed inside the window.
    pub fn instructions(&self) -> u64 {
        self.end_instr - self.start_instr
    }

    /// LLC misses per thousand instructions inside the window.
    pub fn llc_mpki(&self) -> f64 {
        per_kilo_instr(self.per_core.iter().map(|c| c.llc_misses).sum(), self)
    }

    /// Inclusion victims (L1 + L2) per thousand instructions.
    pub fn inclusion_victim_rate(&self) -> f64 {
        per_kilo_instr(
            self.per_core.iter().map(|c| c.inclusion_victims()).sum(),
            self,
        )
    }

    /// Fraction of QBS queries inside the window that rejected their
    /// candidate (`0.0` when no queries were made).
    pub fn qbs_rejection_rate(&self) -> f64 {
        if self.global.qbs_queries == 0 {
            0.0
        } else {
            self.global.qbs_rejections as f64 / self.global.qbs_queries as f64
        }
    }
}

fn per_kilo_instr(count: u64, w: &Window) -> f64 {
    if w.instructions() == 0 {
        0.0
    } else {
        count as f64 * 1000.0 / w.instructions() as f64
    }
}

/// Closes a [`Window`] every `window` committed instructions.
///
/// Drive it with [`WindowedSeries::observe`] from the simulation loop
/// (any granularity at or finer than the window size works; windows close
/// at the first observation at or past each boundary) and call
/// [`WindowedSeries::finish`] once at the end to flush the final partial
/// window.
#[derive(Debug, Clone)]
pub struct WindowedSeries {
    window: u64,
    next_boundary: u64,
    last_instr: u64,
    last_per_core: Vec<PerCoreStats>,
    last_global: GlobalStats,
    // Closed windows live in flat storage — one `WindowMeta` per window,
    // its per-core deltas at `deltas[meta.deltas_start..][..meta.n_cores]`
    // — so closing a window costs amortized zero allocations (both
    // vectors grow geometrically), the same reusable-buffer treatment the
    // LLC miss path's `order_buf` got. [`Window`] values are only
    // materialized on read-out.
    meta: Vec<WindowMeta>,
    deltas: Vec<PerCoreStats>,
}

/// Flat-storage record of one closed window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WindowMeta {
    start_instr: u64,
    end_instr: u64,
    global: GlobalStats,
    deltas_start: usize,
    n_cores: usize,
}

impl WindowedSeries {
    /// A collector closing a window every `window` instructions.
    ///
    /// A zero `window` is clamped to 1 (a window per instruction): the
    /// boundary arithmetic divides by the window size, and a panic deep
    /// inside a long run is a far worse failure mode than a very chatty
    /// series. Front ends reject 0 with a proper error before it gets
    /// here (see `tla-cli`'s `--window` validation).
    pub fn new(window: u64) -> Self {
        let window = window.max(1);
        WindowedSeries {
            window,
            next_boundary: window,
            last_instr: 0,
            last_per_core: Vec::new(),
            last_global: GlobalStats::default(),
            meta: Vec::new(),
            deltas: Vec::new(),
        }
    }

    /// Window size in instructions.
    pub fn window_size(&self) -> u64 {
        self.window
    }

    /// The instruction count at which the next window closes.
    ///
    /// Observations strictly before this boundary cannot close a window,
    /// so a driver committing one instruction at a time may skip
    /// [`WindowedSeries::observe`] (and the counter snapshotting feeding
    /// it) until `instr >= next_boundary()` — the whole telemetry cost
    /// between boundaries collapses to one integer compare.
    pub fn next_boundary(&self) -> u64 {
        self.next_boundary
    }

    /// Offers the current cumulative counters at `instr` total committed
    /// instructions. Closes (possibly several) windows if `instr` crossed
    /// their boundaries.
    pub fn observe(&mut self, instr: u64, per_core: &[PerCoreStats], global: &GlobalStats) {
        if self.last_per_core.len() != per_core.len() {
            self.last_per_core = vec![PerCoreStats::default(); per_core.len()];
        }
        if instr >= self.next_boundary {
            self.close(instr, per_core, global);
            // Re-align so boundaries stay multiples of the window size even
            // when one observation jumps several windows ahead.
            self.next_boundary = (instr / self.window + 1) * self.window;
        }
    }

    /// Flushes the final partial window, if any instructions were
    /// committed since the last closed window.
    pub fn finish(&mut self, instr: u64, per_core: &[PerCoreStats], global: &GlobalStats) {
        if self.last_per_core.len() != per_core.len() {
            self.last_per_core = vec![PerCoreStats::default(); per_core.len()];
        }
        if instr > self.last_instr {
            self.close(instr, per_core, global);
        }
    }

    fn close(&mut self, instr: u64, per_core: &[PerCoreStats], global: &GlobalStats) {
        let deltas_start = self.deltas.len();
        self.deltas.extend(
            per_core
                .iter()
                .zip(&self.last_per_core)
                .map(|(now, then)| now.since(then)),
        );
        self.meta.push(WindowMeta {
            start_instr: self.last_instr,
            end_instr: instr,
            global: global.since(&self.last_global),
            deltas_start,
            n_cores: self.deltas.len() - deltas_start,
        });
        self.last_instr = instr;
        self.last_per_core.copy_from_slice(per_core);
        self.last_global = *global;
    }

    /// Number of closed windows so far.
    pub fn window_count(&self) -> usize {
        self.meta.len()
    }

    /// Materializes one closed window out of the flat storage.
    fn window_at(&self, index: usize) -> Window {
        let m = &self.meta[index];
        Window {
            index,
            start_instr: m.start_instr,
            end_instr: m.end_instr,
            per_core: self.deltas[m.deltas_start..][..m.n_cores].to_vec(),
            global: m.global,
        }
    }

    /// Closed windows so far, materialized (allocates; read-out path, not
    /// the hot loop).
    pub fn windows(&self) -> Vec<Window> {
        (0..self.meta.len()).map(|i| self.window_at(i)).collect()
    }

    /// Consumes the collector, returning its windows.
    pub fn take(self) -> Vec<Window> {
        self.windows()
    }
}

/// Checkpoint coverage: the boundary clocks, the last-seen cumulative
/// counters and every closed window. The window *size* is configuration
/// and must match the receiver's — resuming a run under a different
/// window size would splice incompatible series. Decoding refuses a
/// series whose windows do not tile the instructions from zero with one
/// delta per core each, or whose boundary clocks disagree with them.
impl Snapshot for WindowedSeries {
    fn write_state(&self, w: &mut SnapshotWriter) {
        w.write_u64(self.window);
        w.write_u64(self.next_boundary);
        w.write_u64(self.last_instr);
        w.write_usize(self.last_per_core.len());
        for s in &self.last_per_core {
            s.write_state(w);
        }
        self.last_global.write_state(w);
        w.write_usize(self.meta.len());
        for m in &self.meta {
            w.write_u64(m.start_instr);
            w.write_u64(m.end_instr);
            m.global.write_state(w);
            w.write_usize(m.deltas_start);
            w.write_usize(m.n_cores);
        }
        w.write_usize(self.deltas.len());
        for s in &self.deltas {
            s.write_state(w);
        }
    }

    fn read_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        let window = r.read_u64()?;
        if window != self.window {
            return Err(SnapshotError::Mismatch(format!(
                "windowed series: snapshot uses a {window}-instruction window, \
                 this run is configured for {}",
                self.window
            )));
        }
        let next_boundary = r.read_u64()?;
        let last_instr = r.read_u64()?;
        let cores = r.read_usize()?;
        let last_per_core = read_per_core(r, cores)?;
        let mut last_global = GlobalStats::default();
        last_global.read_state(r)?;
        let n_meta = r.read_usize()?;
        let mut meta = Vec::new();
        for index in 0..n_meta {
            let start_instr = r.read_u64()?;
            let end_instr = r.read_u64()?;
            let mut global = GlobalStats::default();
            global.read_state(r)?;
            let deltas_start = r.read_usize()?;
            let n_cores = r.read_usize()?;
            let follows = meta.last().map_or(0, |m: &WindowMeta| m.end_instr);
            if start_instr != follows
                || end_instr <= start_instr
                || deltas_start != index * cores
                || n_cores != cores
            {
                return Err(SnapshotError::Corrupt(format!(
                    "windowed series: window {index} does not follow its predecessor"
                )));
            }
            meta.push(WindowMeta {
                start_instr,
                end_instr,
                global,
                deltas_start,
                n_cores,
            });
        }
        let n_deltas = r.read_usize()?;
        let deltas = read_per_core(r, n_deltas)?;
        let closed = meta.last().map_or(0, |m| m.end_instr);
        if n_deltas != n_meta * cores
            || last_instr != closed
            || next_boundary != (last_instr / window + 1) * window
        {
            return Err(SnapshotError::Corrupt(
                "windowed series: the deltas or boundary clocks disagree with the windows"
                    .to_string(),
            ));
        }
        *self = WindowedSeries {
            window,
            next_boundary,
            last_instr,
            last_per_core,
            last_global,
            meta,
            deltas,
        };
        Ok(())
    }
}

/// Decodes `n` per-core counter sets. The vector grows only as records
/// decode, so an inflated `n` fails at the end of the input instead of
/// sizing an allocation.
fn read_per_core(r: &mut SnapshotReader, n: usize) -> Result<Vec<PerCoreStats>, SnapshotError> {
    let mut out = Vec::new();
    for _ in 0..n {
        let mut s = PerCoreStats::default();
        s.read_state(r)?;
        out.push(s);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core_stats(llc_misses: u64, victims: u64) -> PerCoreStats {
        PerCoreStats {
            llc_misses,
            inclusion_victims_l1: victims,
            ..Default::default()
        }
    }

    #[test]
    fn windows_hold_exact_since_deltas_at_boundaries() {
        let mut series = WindowedSeries::new(100);
        let g1 = GlobalStats {
            qbs_queries: 10,
            qbs_rejections: 4,
            ..Default::default()
        };
        series.observe(100, &[core_stats(5, 2)], &g1);
        let g2 = GlobalStats {
            qbs_queries: 30,
            qbs_rejections: 5,
            ..Default::default()
        };
        series.observe(200, &[core_stats(9, 2)], &g2);

        let w = series.windows();
        assert_eq!(w.len(), 2);
        // First window: deltas from zero.
        assert_eq!(w[0].start_instr, 0);
        assert_eq!(w[0].end_instr, 100);
        assert_eq!(w[0].per_core[0].llc_misses, 5);
        assert_eq!(w[0].global.qbs_queries, 10);
        // Second window: exactly the difference of the cumulative stats.
        assert_eq!(w[1].start_instr, 100);
        assert_eq!(w[1].end_instr, 200);
        assert_eq!(w[1].per_core[0].llc_misses, 4);
        assert_eq!(w[1].per_core[0].inclusion_victims_l1, 0);
        assert_eq!(w[1].global.qbs_queries, 20);
        assert_eq!(w[1].global.qbs_rejections, 1);
        // The two windows sum back to the cumulative totals.
        assert_eq!(w[0].per_core[0].llc_misses + w[1].per_core[0].llc_misses, 9);
    }

    #[test]
    fn observations_between_boundaries_do_not_close() {
        let mut series = WindowedSeries::new(1000);
        for instr in (100..=900).step_by(100) {
            series.observe(
                instr,
                &[core_stats(instr / 100, 0)],
                &GlobalStats::default(),
            );
        }
        assert!(series.windows().is_empty());
        series.observe(1000, &[core_stats(10, 0)], &GlobalStats::default());
        assert_eq!(series.windows().len(), 1);
        assert_eq!(series.windows()[0].per_core[0].llc_misses, 10);
    }

    #[test]
    fn late_observation_closes_one_window_and_realigns() {
        let mut series = WindowedSeries::new(100);
        // First observation lands far past several boundaries: one window
        // covers the whole span, and the next boundary re-aligns.
        series.observe(350, &[core_stats(7, 0)], &GlobalStats::default());
        assert_eq!(series.windows().len(), 1);
        assert_eq!(series.windows()[0].end_instr, 350);
        series.observe(399, &[core_stats(8, 0)], &GlobalStats::default());
        assert_eq!(series.windows().len(), 1);
        series.observe(400, &[core_stats(9, 0)], &GlobalStats::default());
        assert_eq!(series.windows().len(), 2);
        assert_eq!(series.windows()[1].start_instr, 350);
        assert_eq!(series.windows()[1].end_instr, 400);
        assert_eq!(series.windows()[1].per_core[0].llc_misses, 2);
    }

    #[test]
    fn finish_flushes_partial_window() {
        let mut series = WindowedSeries::new(100);
        series.observe(100, &[core_stats(3, 1)], &GlobalStats::default());
        series.finish(140, &[core_stats(5, 1)], &GlobalStats::default());
        let w = series.windows();
        assert_eq!(w.len(), 2);
        assert_eq!(w[1].start_instr, 100);
        assert_eq!(w[1].end_instr, 140);
        assert_eq!(w[1].instructions(), 40);
        assert_eq!(w[1].per_core[0].llc_misses, 2);
    }

    #[test]
    fn finish_with_no_progress_adds_nothing() {
        let mut series = WindowedSeries::new(100);
        series.observe(100, &[core_stats(3, 0)], &GlobalStats::default());
        series.finish(100, &[core_stats(3, 0)], &GlobalStats::default());
        assert_eq!(series.windows().len(), 1);
    }

    #[test]
    fn derived_rates() {
        let w = Window {
            index: 0,
            start_instr: 0,
            end_instr: 2000,
            per_core: vec![core_stats(10, 4), core_stats(6, 0)],
            global: GlobalStats {
                qbs_queries: 8,
                qbs_rejections: 2,
                ..Default::default()
            },
        };
        assert!((w.llc_mpki() - 8.0).abs() < 1e-12);
        assert!((w.inclusion_victim_rate() - 2.0).abs() < 1e-12);
        assert!((w.qbs_rejection_rate() - 0.25).abs() < 1e-12);
        let empty = Window {
            end_instr: 0,
            global: GlobalStats::default(),
            ..w
        };
        assert_eq!(empty.llc_mpki(), 0.0);
        assert_eq!(empty.qbs_rejection_rate(), 0.0);
    }

    #[test]
    fn zero_window_clamps_to_one() {
        let mut series = WindowedSeries::new(0);
        assert_eq!(series.window_size(), 1);
        assert_eq!(series.next_boundary(), 1);
        // No division-by-zero on the realignment path.
        series.observe(3, &[core_stats(1, 0)], &GlobalStats::default());
        assert_eq!(series.windows().len(), 1);
        assert_eq!(series.next_boundary(), 4);
    }

    #[test]
    fn snapshot_round_trip_preserves_series_state() {
        let mut series = WindowedSeries::new(100);
        series.observe(100, &[core_stats(5, 2)], &GlobalStats::default());
        series.observe(
            200,
            &[core_stats(9, 2)],
            &GlobalStats {
                qbs_queries: 3,
                ..Default::default()
            },
        );
        let mut w = SnapshotWriter::new();
        series.write_state(&mut w);
        let bytes = w.finish();

        let mut restored = WindowedSeries::new(100);
        let mut r = SnapshotReader::new(&bytes).unwrap();
        restored.read_state(&mut r).unwrap();
        assert_eq!(restored.window_count(), 2);
        assert_eq!(restored.next_boundary(), series.next_boundary());
        assert_eq!(restored.windows(), series.windows());

        // Both continue identically.
        let g = GlobalStats {
            qbs_queries: 5,
            ..Default::default()
        };
        series.finish(250, &[core_stats(11, 3)], &g);
        restored.finish(250, &[core_stats(11, 3)], &g);
        assert_eq!(series.take(), restored.take());

        // Window-size mismatch is rejected with a descriptive error.
        let mut wrong = WindowedSeries::new(50);
        let mut r = SnapshotReader::new(&bytes).unwrap();
        let err = wrong.read_state(&mut r).unwrap_err();
        assert!(err.to_string().contains("window"), "got: {err}");
    }

    #[test]
    fn boundary_only_observation_matches_per_instruction_driving() {
        // The hot loop may consult `next_boundary` and skip observe()
        // between boundaries; the resulting series must be identical to
        // observing after every instruction.
        let drive = |skip: bool| {
            let mut series = WindowedSeries::new(50);
            for instr in 1..=237u64 {
                if skip && instr < series.next_boundary() {
                    continue;
                }
                series.observe(
                    instr,
                    &[core_stats(instr / 3, instr / 7)],
                    &GlobalStats {
                        qbs_queries: instr,
                        ..Default::default()
                    },
                );
            }
            series.finish(
                237,
                &[core_stats(237 / 3, 237 / 7)],
                &GlobalStats {
                    qbs_queries: 237,
                    ..Default::default()
                },
            );
            series.take()
        };
        assert_eq!(drive(false), drive(true));
    }
}
