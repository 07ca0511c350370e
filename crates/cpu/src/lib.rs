//! Trace-driven out-of-order core timing model.
//!
//! Reimplements CMP$im's simplified core (§IV-A): each core is a 4-way
//! out-of-order processor with a 128-entry reorder buffer, load-to-use
//! latencies of 1 / 10 / 24 cycles for L1 / L2 / LLC, a 150-cycle memory
//! penalty and 32 outstanding misses to memory.
//!
//! Instead of simulating cycle by cycle, [`CoreModel`] is an O(1)-per-
//! instruction analytic model:
//!
//! * an instruction enters the ROB no earlier than one fetch slot after its
//!   predecessor (width-limited) and no earlier than the retirement of the
//!   instruction `ROB` entries before it (occupancy-limited);
//! * loads complete `latency(source)` cycles after entry; memory-sourced
//!   loads additionally contend for the MSHR pool;
//! * retirement is in order;
//! * an instruction-fetch miss stalls the front end until the fetch
//!   completes.
//!
//! The model advances monotonically, so multiple cores can be interleaved
//! by always stepping the core with the smallest [`CoreModel::now`].
//!
//! # Examples
//!
//! ```
//! use tla_cpu::{CoreModel, CoreModelConfig};
//! use tla_types::{AccessKind, DataSource};
//!
//! let mut core = CoreModel::new(CoreModelConfig::default());
//! for _ in 0..1000 {
//!     core.step(None, None); // 1000 non-memory instructions
//! }
//! let ipc = core.ipc();
//! assert!(ipc > 3.5 && ipc <= 4.0); // 4-wide core, no stalls
//! ```

use tla_cache::MshrFile;
use tla_snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use tla_types::{AccessKind, Cycle, DataSource};

/// Load-to-use latencies of the hierarchy (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Latencies {
    /// L1 hit latency in cycles.
    pub l1: Cycle,
    /// L2 hit latency.
    pub l2: Cycle,
    /// LLC hit latency.
    pub llc: Cycle,
    /// Main-memory penalty.
    pub memory: Cycle,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            l1: 1,
            l2: 10,
            llc: 24,
            memory: 150,
        }
    }
}

impl Latencies {
    /// The load-to-use latency for data arriving from `source`.
    pub fn of(&self, source: DataSource) -> Cycle {
        match source {
            DataSource::L1 => self.l1,
            DataSource::L2 => self.l2,
            DataSource::Llc => self.llc,
            DataSource::Memory => self.memory,
        }
    }
}

/// Configuration of one modelled core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoreModelConfig {
    /// Fetch/retire width (instructions per cycle).
    pub width: usize,
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// Outstanding misses to memory.
    pub mshrs: usize,
    /// Hierarchy latencies.
    pub latencies: Latencies,
}

impl Default for CoreModelConfig {
    fn default() -> Self {
        CoreModelConfig {
            width: 4,
            rob_entries: 128,
            mshrs: 32,
            latencies: Latencies::default(),
        }
    }
}

/// The analytic core model. Feed it one call to [`CoreModel::step`] per
/// committed instruction.
#[derive(Debug, Clone)]
pub struct CoreModel {
    cfg: CoreModelConfig,
    /// Ring buffer of the retire times of the last `rob_entries`
    /// instructions.
    rob: Vec<Cycle>,
    rob_idx: usize,
    retired: u64,
    /// Cycle in which the next instruction will be fetched.
    fetch_cycle: Cycle,
    /// Instructions already fetched in `fetch_cycle`.
    fetch_slot: usize,
    last_retire: Cycle,
    mshr: MshrFile,
}

impl CoreModel {
    /// Creates an idle core at cycle zero.
    ///
    /// # Panics
    ///
    /// Panics if `width`, `rob_entries` or `mshrs` is zero.
    pub fn new(cfg: CoreModelConfig) -> Self {
        assert!(cfg.width > 0, "width must be at least 1");
        assert!(cfg.rob_entries > 0, "ROB must have at least 1 entry");
        CoreModel {
            rob: vec![0; cfg.rob_entries],
            rob_idx: 0,
            retired: 0,
            fetch_cycle: 0,
            fetch_slot: 0,
            last_retire: 0,
            mshr: MshrFile::new(cfg.mshrs),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CoreModelConfig {
        &self.cfg
    }

    /// The core's current front-end time — the cycle the next instruction
    /// would be fetched. Multi-core drivers step the core with the smallest
    /// `now()` to keep shared-cache access order timestamp-accurate.
    #[inline]
    pub fn now(&self) -> Cycle {
        self.fetch_cycle
    }

    /// Instructions retired so far.
    #[inline]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Cycles elapsed from cycle 0 to the last retirement.
    #[inline]
    pub fn cycles(&self) -> Cycle {
        self.last_retire
    }

    /// Retired instructions per cycle so far (0 if nothing retired).
    pub fn ipc(&self) -> f64 {
        if self.last_retire == 0 {
            0.0
        } else {
            self.retired as f64 / self.last_retire as f64
        }
    }

    /// MSHR occupancy stalls observed (transactions that waited).
    pub fn mshr_stalls(&self) -> u64 {
        self.mshr.stalls()
    }

    /// Accounts for one committed instruction and returns its retire time.
    ///
    /// * `ifetch` — where the instruction's code line came from, if this
    ///   instruction touched a new code line (most instructions fetch from
    ///   the already-resident line and pass `None`).
    /// * `mem` — the data access the instruction performed, if any, with
    ///   the level that serviced it.
    #[inline]
    pub fn step(
        &mut self,
        ifetch: Option<DataSource>,
        mem: Option<(AccessKind, DataSource)>,
    ) -> Cycle {
        // Front-end: an instruction-cache miss stalls fetch until the line
        // arrives (memory-sourced fetches also hold an MSHR).
        if let Some(src) = ifetch {
            if src != DataSource::L1 {
                let lat = self.cfg.latencies.of(src);
                let done = if src == DataSource::Memory {
                    self.mshr.issue(self.fetch_cycle, lat)
                } else {
                    self.fetch_cycle + lat
                };
                if done > self.fetch_cycle {
                    self.fetch_cycle = done;
                    self.fetch_slot = 0;
                }
            }
        }

        // ROB occupancy: cannot enter until the instruction `rob_entries`
        // ago has retired.
        let rob_free = self.rob[self.rob_idx];
        if rob_free > self.fetch_cycle {
            self.fetch_cycle = rob_free;
            self.fetch_slot = 0;
        }
        let enter = self.fetch_cycle;

        // Width limit: `width` instructions per fetch cycle.
        self.fetch_slot += 1;
        if self.fetch_slot >= self.cfg.width {
            self.fetch_cycle += 1;
            self.fetch_slot = 0;
        }

        // Execute.
        let complete = match mem {
            None => enter + 1,
            Some((kind, src)) => {
                let lat = self.cfg.latencies.of(src);
                if kind.is_write() {
                    // Stores retire without waiting for the line, but a
                    // memory-bound store still occupies an MSHR; when the
                    // pool is full the store buffer backs up and stalls the
                    // front end until a register frees.
                    if src == DataSource::Memory {
                        let done = self.mshr.issue(enter, lat);
                        let start = done - lat;
                        if start > enter {
                            self.fetch_cycle = self.fetch_cycle.max(start);
                            self.fetch_slot = 0;
                        }
                        start.max(enter) + 1
                    } else {
                        enter + 1
                    }
                } else if src == DataSource::Memory {
                    self.mshr.issue(enter, lat)
                } else {
                    enter + lat
                }
            }
        };

        // In-order retirement.
        let retire = complete.max(self.last_retire);
        self.last_retire = retire;
        self.rob[self.rob_idx] = retire;
        self.rob_idx += 1;
        if self.rob_idx == self.cfg.rob_entries {
            self.rob_idx = 0;
        }
        self.retired += 1;
        retire
    }
}

impl Snapshot for CoreModel {
    fn write_state(&self, w: &mut SnapshotWriter) {
        w.write_u64_slice(&self.rob);
        w.write_usize(self.rob_idx);
        w.write_u64(self.retired);
        w.write_u64(self.fetch_cycle);
        w.write_usize(self.fetch_slot);
        w.write_u64(self.last_retire);
        self.mshr.write_state(w);
    }

    fn read_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        r.read_u64_slice_into(&mut self.rob, "ROB ring buffer")?;
        let rob_idx = r.read_usize()?;
        if rob_idx >= self.cfg.rob_entries {
            return Err(SnapshotError::Mismatch(format!(
                "ROB index {rob_idx} out of range for {} entries",
                self.cfg.rob_entries
            )));
        }
        self.rob_idx = rob_idx;
        self.retired = r.read_u64()?;
        self.fetch_cycle = r.read_u64()?;
        self.fetch_slot = r.read_usize()?;
        self.last_retire = r.read_u64()?;
        self.mshr.read_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> CoreModel {
        CoreModel::new(CoreModelConfig::default())
    }

    #[test]
    fn ideal_ipc_is_width() {
        let mut c = core();
        for _ in 0..100_000 {
            c.step(None, None);
        }
        assert!((c.ipc() - 4.0).abs() < 0.01, "ipc = {}", c.ipc());
    }

    #[test]
    fn l1_loads_barely_slow_retirement() {
        let mut c = core();
        for _ in 0..10_000 {
            c.step(None, Some((AccessKind::Load, DataSource::L1)));
        }
        assert!(c.ipc() > 3.5, "ipc = {}", c.ipc());
    }

    #[test]
    fn serial_memory_misses_overlap_in_rob_window() {
        // 1 memory load per 32 instructions: the 128-entry ROB lets four
        // such loads overlap, so throughput is far better than serialized
        // 150-cycle stalls.
        let mut c = core();
        let n = 32_000u64;
        for i in 0..n {
            if i % 32 == 0 {
                c.step(None, Some((AccessKind::Load, DataSource::Memory)));
            } else {
                c.step(None, None);
            }
        }
        let serial_cycles = (n / 32) * 150;
        assert!(
            c.cycles() < serial_cycles,
            "ROB must overlap misses: {} vs serial {}",
            c.cycles(),
            serial_cycles
        );
        // But it cannot beat the width limit either.
        assert!(c.cycles() >= n / 4);
    }

    #[test]
    fn rob_limits_overlap() {
        // Two memory loads 200 instructions apart cannot overlap (ROB is
        // 128): with a 128-gap they can.
        let run = |gap: u64| {
            let mut c = core();
            c.step(None, Some((AccessKind::Load, DataSource::Memory)));
            for _ in 0..gap {
                c.step(None, None);
            }
            c.step(None, Some((AccessKind::Load, DataSource::Memory)));
            c.cycles()
        };
        let tight = run(100); // second load enters while first in flight
        let loose = run(200); // ROB drained: no overlap
        assert!(tight < loose, "tight {tight} vs loose {loose}");
    }

    #[test]
    fn stores_do_not_stall_retirement() {
        // A sparse memory store is invisible to timing; a sparse memory
        // load pays the full 150-cycle penalty.
        let run = |kind: AccessKind| {
            let mut c = core();
            c.step(None, Some((kind, DataSource::Memory)));
            for _ in 0..200 {
                c.step(None, None);
            }
            c.cycles()
        };
        let store_time = run(AccessKind::Store);
        let load_time = run(AccessKind::Load);
        assert!(store_time < 70, "store_time = {store_time}");
        assert!(load_time >= 150, "load_time = {load_time}");
    }

    #[test]
    fn store_bursts_exhaust_mshrs() {
        // Back-to-back memory stores fill the 32 MSHRs and throttle.
        let mut c = core();
        for _ in 0..10_000 {
            c.step(None, Some((AccessKind::Store, DataSource::Memory)));
        }
        assert!(c.mshr_stalls() > 0);
        // Sustained rate is bounded by 32 outstanding / 150 cycles.
        let max_rate = 32.0 / 150.0;
        assert!(c.ipc() < max_rate * 1.1, "ipc = {}", c.ipc());
    }

    #[test]
    fn ifetch_miss_stalls_frontend() {
        let mut hit = core();
        let mut miss = core();
        for i in 0..1000u64 {
            let src = if i % 16 == 0 {
                Some(DataSource::Memory)
            } else {
                None
            };
            miss.step(src, None);
            hit.step(None, None);
        }
        assert!(miss.cycles() > hit.cycles() * 5);
    }

    #[test]
    fn ifetch_l1_hits_cost_nothing_extra() {
        let mut a = core();
        let mut b = core();
        for _ in 0..1000 {
            a.step(Some(DataSource::L1), None);
            b.step(None, None);
        }
        assert_eq!(a.cycles(), b.cycles());
    }

    /// DESIGN §7's closed form for a stream that hits the L1 throughout
    /// (data and code): nothing stalls, so instruction `i` enters at cycle
    /// `i / width` and completes `l1` (loads) or 1 (ALU ops, stores)
    /// cycles later. The last of `n` instructions, a load, retires at
    /// `(n - 1) / width + l1`: the stream retires at the issue width.
    #[test]
    fn all_l1_hit_stream_retires_at_the_issue_width() {
        for width in [1usize, 2, 4, 8] {
            for l1 in [1u64, 2, 4] {
                let mut c = CoreModel::new(CoreModelConfig {
                    width,
                    latencies: Latencies {
                        l1,
                        ..Latencies::default()
                    },
                    ..CoreModelConfig::default()
                });
                let n = 3 * 2000 + 2;
                for i in 0..n {
                    let ifetch = (i % 16 == 0).then_some(DataSource::L1);
                    let mem = match i % 3 {
                        0 => None,
                        1 => Some((AccessKind::Load, DataSource::L1)),
                        _ => Some((AccessKind::Store, DataSource::L1)),
                    };
                    c.step(ifetch, mem);
                }
                let ctx = format!("width {width}, l1 {l1}");
                assert_eq!(c.cycles(), (n - 1) / width as u64 + l1, "{ctx}");
                assert_eq!(c.retired(), n, "{ctx}");
                assert_eq!(c.mshr_stalls(), 0, "{ctx}");
            }
        }
    }

    /// DESIGN §7's ROB/MSHR bound for a stream of independent memory
    /// loads: misses overlap until `b = min(rob, mshrs)` are in flight, so
    /// the loads run in groups of `b`, one memory latency apart, each
    /// group entering over `b / width` cycles. The last of `n` loads (`n`
    /// a multiple of `b`) completes at `lat * n / b + b / width - 1`, and
    /// the IPC tends to `b / lat`.
    #[test]
    fn independent_misses_match_the_rob_mshr_bound() {
        for (rob, mshrs) in [(128, 32), (128, 16), (64, 128), (128, 128)] {
            for memory in [150u64, 200] {
                let cfg = CoreModelConfig {
                    rob_entries: rob,
                    mshrs,
                    latencies: Latencies {
                        memory,
                        ..Latencies::default()
                    },
                    ..CoreModelConfig::default()
                };
                let mut c = CoreModel::new(cfg);
                let b = rob.min(mshrs) as u64;
                let width = cfg.width as u64;
                let n = 64 * b;
                for _ in 0..n {
                    c.step(None, Some((AccessKind::Load, DataSource::Memory)));
                }
                let ctx = format!("rob {rob}, mshrs {mshrs}, memory {memory}");
                assert_eq!(c.cycles(), memory * n / b + b / width - 1, "{ctx}");
                let bound = b as f64 / memory as f64;
                assert!((c.ipc() - bound).abs() < 0.01 * bound, "{ctx}: {}", c.ipc());
            }
        }
    }

    #[test]
    fn latency_ordering_respected() {
        let run = |src: DataSource| {
            let mut c = core();
            for _ in 0..1000 {
                c.step(None, Some((AccessKind::Load, src)));
            }
            c.cycles()
        };
        let l1 = run(DataSource::L1);
        let l2 = run(DataSource::L2);
        let llc = run(DataSource::Llc);
        let mem = run(DataSource::Memory);
        assert!(l1 < l2 && l2 < llc && llc < mem);
    }

    #[test]
    fn now_is_monotonic() {
        let mut c = core();
        let mut last = 0;
        for i in 0..5000u64 {
            let mem = if i % 7 == 0 {
                Some((AccessKind::Load, DataSource::Memory))
            } else {
                None
            };
            c.step(None, mem);
            assert!(c.now() >= last);
            last = c.now();
        }
    }

    #[test]
    fn retire_times_are_monotonic() {
        let mut c = core();
        let mut last = 0;
        for i in 0..5000u64 {
            let mem = match i % 11 {
                0 => Some((AccessKind::Load, DataSource::Memory)),
                5 => Some((AccessKind::Load, DataSource::L2)),
                _ => None,
            };
            let r = c.step(None, mem);
            assert!(r >= last);
            last = r;
        }
    }

    #[test]
    fn default_config_matches_paper() {
        let cfg = CoreModelConfig::default();
        assert_eq!(cfg.width, 4);
        assert_eq!(cfg.rob_entries, 128);
        assert_eq!(cfg.mshrs, 32);
        assert_eq!(
            cfg.latencies,
            Latencies {
                l1: 1,
                l2: 10,
                llc: 24,
                memory: 150
            }
        );
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_panics() {
        let _ = CoreModel::new(CoreModelConfig {
            width: 0,
            ..Default::default()
        });
    }
}

// Randomized invariant tests: deterministic seeded streams stand in for
// the proptest strategies the offline workspace cannot depend on.
#[cfg(test)]
mod randomized_tests {
    use super::*;
    use tla_rng::SmallRng;

    const SOURCES: [DataSource; 4] = [
        DataSource::L1,
        DataSource::L2,
        DataSource::Llc,
        DataSource::Memory,
    ];

    fn mem_op(rng: &mut SmallRng) -> Option<(AccessKind, DataSource)> {
        // 3:1 in favour of non-memory instructions, like real traces.
        if rng.gen_range(0u32..4) < 3 {
            return None;
        }
        let kind = if rng.gen_bool(0.5) {
            AccessKind::Load
        } else {
            AccessKind::Store
        };
        Some((kind, SOURCES[rng.gen_range(0usize..4)]))
    }

    fn ifetch(rng: &mut SmallRng) -> Option<DataSource> {
        if rng.gen_range(0u32..9) < 8 {
            None
        } else {
            Some(SOURCES[rng.gen_range(0usize..4)])
        }
    }

    /// Retire times never go backwards and `now()` is monotone for any
    /// instruction stream.
    #[test]
    fn timing_is_monotone() {
        for case in 0..48u64 {
            let mut rng = SmallRng::seed_from_u64(0xC0DE_0000 + case);
            let len = rng.gen_range(1usize..500);
            let mut c = CoreModel::new(CoreModelConfig::default());
            let mut last_retire = 0;
            let mut last_now = 0;
            for _ in 0..len {
                let (f, m) = (ifetch(&mut rng), mem_op(&mut rng));
                let r = c.step(f, m);
                assert!(r >= last_retire, "case {case}: retire went backwards");
                assert!(c.now() >= last_now, "case {case}: now went backwards");
                last_retire = r;
                last_now = c.now();
            }
        }
    }

    /// IPC is bounded by the fetch width for any stream.
    #[test]
    fn ipc_bounded_by_width() {
        for case in 0..48u64 {
            let mut rng = SmallRng::seed_from_u64(0xC0DE_1000 + case);
            let len = rng.gen_range(50usize..500);
            let mut c = CoreModel::new(CoreModelConfig::default());
            for _ in 0..len {
                let (f, m) = (ifetch(&mut rng), mem_op(&mut rng));
                c.step(f, m);
            }
            assert!(c.ipc() <= c.config().width as f64 + 1e-9, "case {case}");
            assert!(c.retired() > 0, "case {case}");
        }
    }

    /// Inserting extra memory loads can only slow a stream down.
    #[test]
    fn extra_misses_never_speed_up() {
        for case in 0..48u64 {
            let mut rng = SmallRng::seed_from_u64(0xC0DE_2000 + case);
            let n = rng.gen_range(50usize..300);
            let every = rng.gen_range(2usize..20);
            let mut fast = CoreModel::new(CoreModelConfig::default());
            let mut slow = CoreModel::new(CoreModelConfig::default());
            for i in 0..n {
                fast.step(None, None);
                let m = if i % every == 0 {
                    Some((AccessKind::Load, DataSource::Memory))
                } else {
                    None
                };
                slow.step(None, m);
            }
            assert!(
                slow.cycles() >= fast.cycles(),
                "case {case}: n={n} every={every}"
            );
        }
    }
}
