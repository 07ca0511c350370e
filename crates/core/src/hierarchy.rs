//! The three-level CMP cache hierarchy and the TLA management flows.
//!
//! Per core: private L1I, L1D and a unified non-inclusive L2. Shared: the
//! LLC, whose inclusion behaviour and TLA policy this module implements.
//! The simulator is trace-driven and functional — state changes happen at
//! access time and timing is recovered analytically by the CPU model from
//! the [`DataSource`] each access reports.

use std::collections::HashMap;

use crate::config::{HierarchyConfig, InclusionPolicy};
use crate::policy::{QbsConfig, TlaPolicy};
use crate::stats::{GlobalStats, PerCoreStats};
use tla_cache::{
    CoreBitmap, MissClass, SetAssocCache, StreamPrefetcher, VictimCache, VictimCause, VictimEntry,
    VictimTracker, WayMask,
};
use tla_rng::SmallRng;
use tla_snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use tla_telemetry::{EventKind, TelemetryEvent, TelemetrySink};
use tla_types::{AccessKind, CacheLevel, CoreId, DataSource, LineAddr};
use tla_types::{IoAgentStats, IoStats};

/// The hierarchy's (optional) telemetry sink.
///
/// A newtype so [`CacheHierarchy`] keeps its derived `Debug`/`Clone`:
/// clones of a hierarchy start with no sink (collectors are run-scoped,
/// not state), and `Debug` shows only whether a sink is installed.
#[derive(Default)]
struct SinkSlot(Option<Box<dyn TelemetrySink>>);

impl std::fmt::Debug for SinkSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(_) => f.write_str("SinkSlot(installed)"),
            None => f.write_str("SinkSlot(none)"),
        }
    }
}

impl Clone for SinkSlot {
    fn clone(&self) -> Self {
        SinkSlot(None)
    }
}

/// DDIO-style device-injection state: the way masks derived from the
/// configuration and the injection counters.
///
/// Present iff the hierarchy was configured with
/// [`HierarchyConfig::io`](crate::HierarchyConfig::io); with it absent the
/// demand path is bit-for-bit identical to a hierarchy built without the
/// feature (the masks degenerate to the full way set and no counter is
/// touched).
#[derive(Debug, Clone)]
struct IoState {
    /// Ways device fills may allocate into (full mask when unlimited).
    io_ways: WayMask,
    /// Ways demand fills may allocate into (full mask unless partitioned).
    app_ways: WayMask,
    /// Whether `app_ways` excludes the injection ways.
    partitioned: bool,
    /// Aggregate injection counters.
    stats: IoStats,
    /// Per-agent injection counters, indexed by agent id.
    per_agent: Vec<IoAgentStats>,
}

/// The private caches and prefetcher of one core.
#[derive(Debug, Clone)]
struct CoreCaches {
    l1i: SetAssocCache,
    l1d: SetAssocCache,
    l2: SetAssocCache,
    prefetcher: Option<StreamPrefetcher>,
}

impl CoreCaches {
    /// Whether any of the selected levels holds `line` — the answer a QBS
    /// query gets back from this core.
    fn holds(&self, line: LineAddr, l1i: bool, l1d: bool, l2: bool) -> bool {
        (l1i && self.l1i.probe(line))
            || (l1d && self.l1d.probe(line))
            || (l2 && self.l2.probe(line))
    }
}

/// A multi-core cache hierarchy under a chosen inclusion and TLA policy.
///
/// Drive it with [`CacheHierarchy::access`] per demand reference; read
/// results from [`CacheHierarchy::per_core_stats`] and
/// [`CacheHierarchy::global_stats`].
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    cores: Vec<CoreCaches>,
    llc: SetAssocCache,
    victim: Option<VictimCache>,
    inclusion: InclusionPolicy,
    tla: TlaPolicy,
    per_core: Vec<PerCoreStats>,
    global: GlobalStats,
    rng: SmallRng,
    /// Reusable buffer for prefetcher output.
    pf_buf: Vec<LineAddr>,
    /// Reusable victim-order buffer so the LLC miss path allocates nothing.
    order_buf: Vec<(usize, LineAddr)>,
    /// Installed telemetry sink, if any.
    sink: SinkSlot,
    /// Global instruction clock stamped onto telemetry events; advanced by
    /// the driver via [`CacheHierarchy::set_now`].
    now_instr: u64,
    /// Per-core miss-attribution trackers (cold / capacity /
    /// inclusion-victim classification with the causing policy decision).
    trackers: Vec<VictimTracker>,
    /// Whether to emit [`EventKind::LlcAccess`] events (the reuse-distance
    /// profiler's input stream). Off by default so the demand hot path
    /// stays a single branch.
    profile_accesses: bool,
    /// Device-injection state; `None` unless configured.
    io: Option<IoState>,
}

impl CacheHierarchy {
    /// Builds an empty hierarchy from a configuration.
    pub fn new(cfg: &HierarchyConfig) -> Self {
        let cores = (0..cfg.num_cores())
            .map(|i| CoreCaches {
                l1i: SetAssocCache::with_seed(
                    cfg.l1i().clone(),
                    cfg.seed_value() ^ (i as u64) << 1,
                ),
                l1d: SetAssocCache::with_seed(
                    cfg.l1d().clone(),
                    cfg.seed_value() ^ (i as u64) << 2,
                ),
                l2: SetAssocCache::with_seed(cfg.l2().clone(), cfg.seed_value() ^ (i as u64) << 3),
                prefetcher: cfg.prefetcher_config().map(StreamPrefetcher::new),
            })
            .collect();
        CacheHierarchy {
            cores,
            llc: SetAssocCache::with_seed(cfg.llc().clone(), cfg.seed_value()),
            victim: cfg
                .victim_cache_config()
                .map(|vc| VictimCache::new(vc.entries)),
            inclusion: cfg.inclusion(),
            tla: cfg.tla_policy(),
            per_core: vec![PerCoreStats::default(); cfg.num_cores()],
            global: GlobalStats::default(),
            rng: SmallRng::seed_from_u64(cfg.seed_value().wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            pf_buf: Vec::with_capacity(8),
            order_buf: Vec::with_capacity(cfg.llc().ways()),
            sink: SinkSlot::default(),
            now_instr: 0,
            trackers: vec![VictimTracker::new(); cfg.num_cores()],
            profile_accesses: false,
            io: cfg.io_config().map(|ioc| {
                let full = WayMask::all(cfg.llc().ways());
                let io_ways = match ioc.inject_ways {
                    Some(n) => WayMask::all(n),
                    None => full,
                };
                let app_ways = if ioc.partition {
                    full.and_not(io_ways)
                } else {
                    full
                };
                IoState {
                    io_ways,
                    app_ways,
                    partitioned: ioc.partition,
                    stats: IoStats::default(),
                    per_agent: vec![IoAgentStats::default(); ioc.agents],
                }
            }),
        }
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// The inclusion policy in force.
    pub fn inclusion(&self) -> InclusionPolicy {
        self.inclusion
    }

    /// The TLA policy in force.
    pub fn tla_policy(&self) -> TlaPolicy {
        self.tla
    }

    /// Demand counters attributed to `core`.
    #[inline]
    pub fn per_core_stats(&self, core: CoreId) -> &PerCoreStats {
        &self.per_core[core.index()]
    }

    /// Whole-hierarchy message/event counters.
    pub fn global_stats(&self) -> &GlobalStats {
        &self.global
    }

    /// Demand counters of every core, in core order (for telemetry
    /// snapshots).
    pub fn all_per_core_stats(&self) -> &[PerCoreStats] {
        &self.per_core
    }

    /// Whether `line` is currently resident in the LLC (tests/inspection).
    pub fn llc_holds(&self, line: LineAddr) -> bool {
        self.llc.probe(line)
    }

    /// Number of sets in the LLC (for sizing set-resolved telemetry
    /// collectors).
    pub fn llc_sets(&self) -> usize {
        self.llc.config().sets()
    }

    /// Installs a telemetry sink; every policy-relevant event is delivered
    /// to it until [`CacheHierarchy::take_sink`] removes it. With no sink
    /// installed the event path is a single branch.
    pub fn set_sink(&mut self, sink: impl TelemetrySink + 'static) {
        self.sink = SinkSlot(Some(Box::new(sink)));
    }

    /// Removes and returns the installed sink, if any.
    pub fn take_sink(&mut self) -> Option<Box<dyn TelemetrySink>> {
        self.sink.0.take()
    }

    /// Whether a telemetry sink is installed.
    pub fn has_sink(&self) -> bool {
        self.sink.0.is_some()
    }

    /// Enables (or disables) LLC access profiling: with a sink installed,
    /// every demand access that reaches the LLC emits an
    /// [`EventKind::LlcAccess`] event carrying its set and line address —
    /// the reuse-distance profiler's input. Off by default.
    pub fn set_access_profiling(&mut self, on: bool) {
        self.profile_accesses = on;
    }

    /// Whether LLC access profiling is enabled.
    pub fn access_profiling(&self) -> bool {
        self.profile_accesses
    }

    /// Advances the instruction clock stamped onto telemetry events.
    /// Drivers call this with the total instructions committed across all
    /// cores; standalone use of the hierarchy can ignore it (events are
    /// then stamped 0).
    #[inline]
    pub fn set_now(&mut self, instr: u64) {
        self.now_instr = instr;
    }

    /// Delivers `event` to the sink, if one is installed. Call sites that
    /// must *compute* context (e.g. a set index) guard on
    /// [`CacheHierarchy::has_sink`] first so disabled telemetry stays free.
    #[inline]
    fn emit(&mut self, event: TelemetryEvent) {
        if let Some(sink) = self.sink.0.as_mut() {
            sink.record(&event);
        }
    }

    /// A [`TelemetryEvent`] stamped with the current instruction clock.
    #[inline]
    fn event(&self, kind: EventKind) -> TelemetryEvent {
        TelemetryEvent::global(kind, self.now_instr)
    }

    /// Whether `line` is currently resident in any cache of `core`.
    pub fn core_holds(&self, core: CoreId, line: LineAddr) -> bool {
        self.cores[core.index()].holds(line, true, true, true)
    }

    /// Runs one demand access from `core` for the line containing nothing
    /// but `line` (the simulator is line-granular) and returns where the
    /// data came from.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is [`AccessKind::Prefetch`] (prefetches are
    /// generated internally by the L2 stream prefetcher) or if `core` is out
    /// of range.
    #[inline]
    pub fn access(&mut self, core: CoreId, line: LineAddr, kind: AccessKind) -> DataSource {
        assert!(
            kind.is_demand(),
            "prefetches are issued internally, not via access()"
        );
        let ci = core.index();
        let is_ifetch = kind.is_ifetch();
        let write = kind.is_write();

        // L1 lookup.
        {
            let cc = &mut self.cores[ci];
            let pc = &mut self.per_core[ci];
            let l1 = if is_ifetch { &mut cc.l1i } else { &mut cc.l1d };
            if is_ifetch {
                pc.l1i_accesses += 1;
            } else {
                pc.l1d_accesses += 1;
            }
            if let Some(way) = l1.touch(line) {
                if write {
                    let set = l1.set_of(line);
                    l1.mark_dirty_way(set, way);
                }
                self.send_tlh(core, line, is_ifetch, false);
                return DataSource::L1;
            }
            if is_ifetch {
                pc.l1i_misses += 1;
            } else {
                pc.l1d_misses += 1;
            }
        }

        // L2 lookup.
        self.per_core[ci].l2_accesses += 1;
        if self.cores[ci].l2.touch(line).is_some() {
            self.send_tlh(core, line, is_ifetch, true);
            self.fill_l1(core, line, is_ifetch, write);
            return DataSource::L2;
        }
        self.per_core[ci].l2_misses += 1;

        // Attribute the core-cache miss: cold, capacity, or an inclusion
        // victim the LLC created — and if the latter, charge the policy
        // decision that killed the line.
        match self.trackers[ci].classify(line) {
            MissClass::Cold => self.per_core[ci].misses_cold += 1,
            MissClass::Capacity => self.per_core[ci].misses_capacity += 1,
            MissClass::InclusionVictim(cause) => {
                self.per_core[ci].misses_inclusion_victim += 1;
                match cause {
                    VictimCause::Replacement => self.global.victim_misses_replacement += 1,
                    VictimCause::QbsLimit => self.global.victim_misses_qbs_limit += 1,
                    VictimCause::Eci => self.global.victim_misses_eci += 1,
                    VictimCause::VictimCacheOverflow => self.global.victim_misses_vc += 1,
                    VictimCause::IoInjection => {
                        // Charged to the injection subsystem, not to the
                        // per-policy global counters (those sum to the
                        // app-side victim_misses() the reports pin).
                        if let Some(io) = self.io.as_mut() {
                            io.stats.victim_misses_io += 1;
                        }
                    }
                }
            }
        }

        // Train the stream prefetcher on the L2 demand miss; prefetches are
        // issued after the demand miss completes (they ride in its shadow).
        let mut pf_lines = std::mem::take(&mut self.pf_buf);
        pf_lines.clear();
        if let Some(pf) = self.cores[ci].prefetcher.as_mut() {
            pf.on_l2_miss(line, &mut pf_lines);
        }

        // LLC and beyond. An exclusive-LLC hit surrenders the line to the
        // core caches along with its dirty bit: the upward fill must carry
        // that dirtiness or the eventual writeback is silently lost.
        let (src, dirty_up) = self.llc_demand(core, line);

        // Fill the private caches. In the exclusive hierarchy new lines are
        // "inserted into the core caches first" (§IV-A): they go to the L1
        // and reach the L2 and LLC only as victims of the level above.
        if self.inclusion != InclusionPolicy::Exclusive {
            self.fill_l2(core, line);
        }
        self.fill_l1(core, line, is_ifetch, write || dirty_up);

        // Issue the prefetches into the L2 (accounting lives in
        // `prefetch`, which knows whether a request actually went out).
        for pl in pf_lines.drain(..) {
            self.prefetch(core, pl);
        }
        self.pf_buf = pf_lines;

        src
    }

    // ------------------------------------------------------------------
    // LLC demand path
    // ------------------------------------------------------------------

    /// Returns where the data came from and whether a dirty copy moved up
    /// out of the LLC with it (exclusive hits only): the caller must fill
    /// the L1 dirty in that case, mirroring how `handle_l1_victim` keeps
    /// dirtiness alive on the way down.
    fn llc_demand(&mut self, core: CoreId, line: LineAddr) -> (DataSource, bool) {
        let ci = core.index();
        self.per_core[ci].llc_accesses += 1;
        let set = self.llc.set_of(line);

        if self.profile_accesses && self.has_sink() {
            self.emit(
                self.event(EventKind::LlcAccess)
                    .with_core(core)
                    .with_set(set as u32)
                    .with_addr(line),
            );
        }

        if self.inclusion == InclusionPolicy::Exclusive {
            if let Some(way) = self.llc.touch(line) {
                // Exclusive hit: the line moves up into the core caches and
                // leaves the LLC, taking its dirty bit with it.
                let dirty = self.llc.evict_way(set, way).is_some_and(|ev| ev.dirty);
                return (DataSource::Llc, dirty);
            }
            self.per_core[ci].llc_misses += 1;
            self.per_core[ci].memory_accesses += 1;
            // Without the inclusion guarantee, an LLC miss says nothing
            // about the other cores' caches: coherence must probe them.
            self.global.snoop_probes += self.cores.len() as u64 - 1;
            // Exclusive miss: memory data bypasses the LLC.
            return (DataSource::Memory, false);
        }

        if let Some(way) = self.llc.touch(line) {
            if self.llc.take_tag(set, way) {
                // An early-invalidated line was re-referenced in time: ECI
                // derived its temporal locality (a "hot line rescue").
                self.global.eci_rescues += 1;
                self.emit(
                    self.event(EventKind::EciRescue)
                        .with_core(core)
                        .with_set(set as u32),
                );
            }
            self.llc.add_sharer(set, way, core);
            return (DataSource::Llc, false);
        }
        self.per_core[ci].llc_misses += 1;
        if self.inclusion == InclusionPolicy::NonInclusive {
            // The non-inclusive LLC is no snoop filter: every miss must
            // probe the other cores (§II — the cost the TLA policies avoid
            // by keeping inclusion).
            self.global.snoop_probes += self.cores.len() as u64 - 1;
        }

        // Victim-cache rescue (§VI comparison).
        if let Some(vc) = self.victim.as_mut() {
            if let Some(entry) = vc.take(line) {
                self.global.victim_cache_rescues += 1;
                self.emit(self.event(EventKind::VictimCacheRescue).with_core(core));
                let mut cores = entry.cores;
                cores.insert(core);
                self.insert_into_llc(line, entry.dirty, cores);
                return (DataSource::Llc, false);
            }
        }

        self.per_core[ci].memory_accesses += 1;
        self.insert_into_llc(line, false, CoreBitmap::single(core));
        (DataSource::Memory, false)
    }

    /// Inserts `line` into the LLC, running the configured TLA victim
    /// selection and the configured inclusion behaviour on the eviction.
    fn insert_into_llc(&mut self, line: LineAddr, dirty: bool, sharers: CoreBitmap) {
        let set = self.llc.set_of(line);

        // Under a static app/IO way partition demand fills stay out of the
        // injection ways. `None` (the io-disabled and unpartitioned cases)
        // takes the unmasked path, keeping it bit-identical to a hierarchy
        // built without the feature.
        let allowed = match self.io.as_ref() {
            Some(io) if io.partitioned => Some(io.app_ways),
            _ => None,
        };

        let invalid = match allowed {
            Some(m) => self.llc.invalid_way_in(set, m),
            None => self.llc.invalid_way(set),
        };
        if let Some(way) = invalid {
            self.llc.fill_way(set, way, line, dirty, sharers);
            // ECI fires on every LLC miss: with an invalid victim the "next
            // LRU line" is the set's current replacement victim (Fig. 3c —
            // 'I' is evicted, 'a' is early-invalidated).
            if self.tla == TlaPolicy::Eci {
                let next = match allowed {
                    Some(m) => self.llc.victim_way_in(set, m),
                    None => self.llc.victim_way(set),
                };
                if let Some((next_way, target)) = next {
                    if target != line {
                        self.eci_invalidate(set, next_way, target);
                    }
                }
            }
            return;
        }

        let mut order = std::mem::take(&mut self.order_buf);
        match allowed {
            Some(m) => self.llc.victim_order_in_into(set, m, &mut order),
            None => self.llc.victim_order_into(set, &mut order),
        }
        debug_assert!(!order.is_empty());

        let (chosen, cause) = match self.tla {
            TlaPolicy::Qbs(cfg) => {
                let (i, limit_forced) = self.qbs_select(&order, cfg);
                let cause = if limit_forced {
                    VictimCause::QbsLimit
                } else {
                    VictimCause::Replacement
                };
                (i, cause)
            }
            _ => (0, VictimCause::Replacement),
        };
        let (way, _) = order[chosen];

        let ev = self
            .llc
            .evict_way(set, way)
            .expect("victim way must be valid");
        self.global.llc_evictions += 1;
        self.emit(
            self.event(EventKind::LlcEviction)
                .with_level(CacheLevel::Llc)
                .with_set(set as u32),
        );
        if ev.dirty {
            self.global.llc_writebacks += 1;
        }
        self.handle_llc_eviction(ev, cause);

        self.llc.fill_way(set, way, line, dirty, sharers);

        // ECI: pick the *next* potential victim and invalidate it early in
        // the core caches, keeping it in the LLC (§III-B). `order` was
        // computed before the fill, so order[chosen] was the victim and
        // order[chosen + 1] is the next LRU line.
        if self.tla == TlaPolicy::Eci {
            if let Some(&(next_way, target)) = order.get(chosen + 1) {
                self.eci_invalidate(set, next_way, target);
            }
        }

        self.order_buf = order;
    }

    // ------------------------------------------------------------------
    // Device (DDIO-style) injection path
    // ------------------------------------------------------------------

    /// Runs one device injection from I/O `agent` for `line`: the line
    /// allocates directly in the LLC (never in the core caches), constrained
    /// to the configured injection ways. A `write` deposits DMA data and
    /// leaves the line dirty; evicting a core-resident victim back-invalidates
    /// it like any other inclusive eviction, attributed to
    /// [`VictimCause::IoInjection`].
    ///
    /// Injections are plain LLC fills, not demand misses: they never train
    /// the prefetcher, trigger ECI early-invalidation, consult the victim
    /// cache, or touch the per-core demand counters.
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy was built without an I/O configuration.
    #[inline]
    pub fn io_inject(&mut self, agent: usize, line: LineAddr, write: bool) {
        let io_ways = {
            let io = self
                .io
                .as_mut()
                .expect("io_inject requires an io configuration");
            io.stats.injections += 1;
            if let Some(a) = io.per_agent.get_mut(agent) {
                a.injections += 1;
            }
            io.io_ways
        };

        let set = self.llc.set_of(line);
        if let Some(way) = self.llc.touch(line) {
            if write {
                self.llc.mark_dirty_way(set, way);
            }
            let io = self.io.as_mut().expect("checked above");
            io.stats.inject_hits += 1;
            if let Some(a) = io.per_agent.get_mut(agent) {
                a.hits += 1;
            }
            return;
        }

        {
            let io = self.io.as_mut().expect("checked above");
            io.stats.inject_fills += 1;
            if let Some(a) = io.per_agent.get_mut(agent) {
                a.fills += 1;
            }
        }

        if let Some(way) = self.llc.invalid_way_in(set, io_ways) {
            self.llc.fill_way(set, way, line, write, CoreBitmap::EMPTY);
            return;
        }

        // Every injection way is valid: evict within the injection ways
        // under the LLC's replacement order (DDIO behaviour — device fills
        // recycle the device ways before touching app ways).
        let (way, _) = self
            .llc
            .victim_way_in(set, io_ways)
            .expect("non-empty injection mask with no invalid way has a victim");
        let ev = self
            .llc
            .evict_way(set, way)
            .expect("victim way must be valid");
        self.global.llc_evictions += 1;
        {
            let io = self.io.as_mut().expect("checked above");
            io.stats.llc_evictions += 1;
            if let Some(a) = io.per_agent.get_mut(agent) {
                a.evictions += 1;
            }
        }
        self.emit(
            self.event(EventKind::LlcEviction)
                .with_level(CacheLevel::Llc)
                .with_set(set as u32),
        );
        if ev.dirty {
            self.global.llc_writebacks += 1;
            if let Some(io) = self.io.as_mut() {
                io.stats.writebacks += 1;
            }
        }
        self.handle_llc_eviction(ev, VictimCause::IoInjection);
        self.llc.fill_way(set, way, line, write, CoreBitmap::EMPTY);
    }

    /// Aggregate device-injection counters, if injection is configured.
    pub fn io_stats(&self) -> Option<&IoStats> {
        self.io.as_ref().map(|io| &io.stats)
    }

    /// Per-agent device-injection counters, if injection is configured.
    pub fn io_agent_stats(&self) -> Option<&[IoAgentStats]> {
        self.io.as_ref().map(|io| io.per_agent.as_slice())
    }

    /// QBS victim selection: walk candidates in replacement order,
    /// querying the core caches; rejected candidates are promoted to
    /// MRU. Returns the index into `order` of the line to evict, and whether
    /// the pick was *limit-forced* — evicted despite (possibly) being
    /// core-resident because the query budget ran out (attribution tags
    /// such kills [`VictimCause::QbsLimit`]).
    ///
    /// A query goes only to the cores that can hold the candidate. Under
    /// inclusion the directory bits are a superset of the holders (the
    /// LLC is a snoop filter), so those are the cores asked; a
    /// non-inclusive LLC's bits say nothing about core copies, so there
    /// every core is asked. Either way the answer — and so every count —
    /// is the one asking all cores would give.
    fn qbs_select(&mut self, order: &[(usize, LineAddr)], cfg: QbsConfig) -> (usize, bool) {
        // All candidates share one set.
        let set = self.llc.set_of(order[0].1);
        let tele_set = self.has_sink().then_some(set as u32);
        let filtered = self.inclusion == InclusionPolicy::Inclusive;
        let every_core: CoreBitmap = (0..self.cores.len()).map(CoreId::new).collect();
        let holds =
            |cc: &CoreCaches, line| cc.holds(line, cfg.check_l1i, cfg.check_l1d, cfg.check_l2);
        for (i, &(way, cand)) in order.iter().enumerate() {
            // `i` queries have been issued so far, one per prior candidate.
            if i >= cfg.max_queries {
                // Query budget exhausted: evict this candidate unqueried.
                self.global.qbs_limit_hits += 1;
                if let Some(s) = tele_set {
                    self.emit(self.event(EventKind::QbsLimitHit).with_set(s));
                }
                return (i, true);
            }
            self.global.qbs_queries += 1;
            if let Some(s) = tele_set {
                self.emit(self.event(EventKind::QbsQuery).with_set(s));
            }
            let ask = if filtered {
                self.llc.sharers(set, way)
            } else {
                every_core
            };
            let resident = ask.iter().any(|c| holds(&self.cores[c.index()], cand));
            debug_assert_eq!(
                resident,
                self.cores.iter().any(|cc| holds(cc, cand)),
                "directory bits {ask:?} of {cand:?} miss a core that holds it"
            );
            if !resident {
                return (i, false);
            }
            self.global.qbs_rejections += 1;
            if let Some(s) = tele_set {
                self.emit(self.event(EventKind::QbsRejection).with_set(s));
            }
            self.llc.promote_way(set, way);
            if cfg.invalidate_on_query {
                // "Modified QBS" (§V-E footnote 6): also evict the rejected
                // candidate from the core caches, like ECI would.
                self.eci_invalidate(set, way, cand);
            }
        }
        // Every line in the set is resident in a core cache (only possible
        // when the core caches cover the set, i.e. toy geometries or very
        // low associativity). Evict the *last* candidate: the walk just
        // re-promoted every line in walk order, so the recency stack now
        // mirrors the old victim order and the last candidate was the
        // set's most-recently-used line before the miss. Evicting it is
        // the same call a thrash-protecting policy makes when a working
        // set exceeds the cache — sacrifice the newest line, keep the
        // established ones — and, unlike evicting candidate 0, it does not
        // throw away the coldest line QBS queried first and deliberately
        // protected (§III-C keeps query-rejected LRU lines resident).
        self.global.qbs_limit_hits += 1;
        if let Some(s) = tele_set {
            self.emit(self.event(EventKind::QbsLimitHit).with_set(s));
        }
        (order.len() - 1, true)
    }

    /// Sends an early invalidation for `target`, the valid line in LLC
    /// (`set`, `way`), to the cores in its directory bits; the line stays
    /// in the LLC (tagged so a rescue can be counted) and its directory
    /// bits are cleared.
    fn eci_invalidate(&mut self, set: usize, way: usize, target: LineAddr) {
        let sharers = self.llc.sharers(set, way);
        let tele_set = self.has_sink().then_some(set as u32);
        for c in sharers.iter() {
            self.global.eci_invalidates += 1;
            if let Some(s) = tele_set {
                self.emit(
                    self.event(EventKind::EciInvalidate)
                        .with_core(c)
                        .with_set(s),
                );
            }
            if self.invalidate_in_core(c, target, false) {
                self.trackers[c.index()].note_kill(target, VictimCause::Eci);
            }
        }
        self.llc.clear_sharers(set, way);
        self.llc.set_tag(set, way);
    }

    /// Applies the configured inclusion behaviour to an LLC eviction.
    /// `cause` is the policy decision that picked the victim, carried into
    /// the attribution trackers by the back-invalidates it triggers.
    fn handle_llc_eviction(&mut self, ev: tla_cache::Evicted, cause: VictimCause) {
        match self.inclusion {
            InclusionPolicy::Inclusive => {
                if let Some(vc) = self.victim.as_mut() {
                    // Park in the victim cache; inclusion back-invalidation
                    // is deferred until the line leaves the victim cache —
                    // so a kill that does fire is charged to the
                    // displacement, not to the original eviction decision.
                    let displaced = vc.insert(VictimEntry {
                        addr: ev.addr,
                        dirty: ev.dirty,
                        cores: ev.cores,
                    });
                    if let Some(d) = displaced {
                        self.back_invalidate(d.addr, d.cores, VictimCause::VictimCacheOverflow);
                    }
                } else {
                    self.back_invalidate(ev.addr, ev.cores, cause);
                }
            }
            // Non-inclusive / exclusive: core-cache copies survive.
            InclusionPolicy::NonInclusive | InclusionPolicy::Exclusive => {}
        }
    }

    /// Back-invalidates `line` from the caches of every core in `cores`,
    /// counting inclusion victims and recording `cause` against each core
    /// the removal actually took a copy from.
    fn back_invalidate(&mut self, line: LineAddr, cores: CoreBitmap, cause: VictimCause) {
        // `set_of` is pure index arithmetic, valid even though the line has
        // already left the LLC.
        let set = if self.has_sink() {
            Some(self.llc.set_of(line) as u32)
        } else {
            None
        };
        for c in cores.iter() {
            self.global.back_invalidates += 1;
            if cause == VictimCause::IoInjection {
                if let Some(io) = self.io.as_mut() {
                    io.stats.back_invalidates += 1;
                }
            }
            if let Some(s) = set {
                self.emit(
                    self.event(EventKind::BackInvalidate)
                        .with_core(c)
                        .with_set(s),
                );
            }
            if self.invalidate_in_core(c, line, true) {
                self.trackers[c.index()].note_kill(line, cause);
            }
        }
    }

    /// Removes `line` from one core's caches, returning whether any copy
    /// was actually removed. `count_victims` distinguishes inclusion
    /// back-invalidation (counted as inclusion victims) from ECI early
    /// invalidation (counted separately by the caller).
    fn invalidate_in_core(&mut self, core: CoreId, line: LineAddr, count_victims: bool) -> bool {
        let ci = core.index();
        let cc = &mut self.cores[ci];
        let mut in_l1 = false;
        let mut dirty = false;
        if let Some(e) = cc.l1i.invalidate(line) {
            in_l1 = true;
            dirty |= e.dirty;
        }
        if let Some(e) = cc.l1d.invalidate(line) {
            in_l1 = true;
            dirty |= e.dirty;
        }
        let mut in_l2 = false;
        if let Some(e) = cc.l2.invalidate(line) {
            in_l2 = true;
            dirty |= e.dirty;
        }
        if count_victims {
            if in_l1 {
                self.per_core[ci].inclusion_victims_l1 += 1;
            }
            if in_l2 {
                self.per_core[ci].inclusion_victims_l2 += 1;
            }
        }
        if dirty {
            // The dirty core copy is written back to memory on its way out.
            self.global.llc_writebacks += 1;
        }
        in_l1 || in_l2
    }

    // ------------------------------------------------------------------
    // Private-cache fills and victim handling
    // ------------------------------------------------------------------

    fn fill_l1(&mut self, core: CoreId, line: LineAddr, is_ifetch: bool, write: bool) {
        let ci = core.index();
        let cc = &mut self.cores[ci];
        let l1 = if is_ifetch { &mut cc.l1i } else { &mut cc.l1d };
        // The L1 lookup at the top of `access` missed, and nothing on the
        // way here fills this L1.
        debug_assert!(!l1.probe(line), "L1 refill of a resident line");
        let ev = l1.fill(line, write);
        if let Some(e) = ev {
            self.handle_l1_victim(core, e);
        }
    }

    fn fill_l2(&mut self, core: CoreId, line: LineAddr) {
        let l2 = &mut self.cores[core.index()].l2;
        // The L2 lookup at the top of `access` missed, and the LLC path
        // never fills an L2.
        debug_assert!(!l2.probe(line), "L2 refill of a resident line");
        let ev = l2.fill(line, false);
        if let Some(e) = ev {
            self.handle_l2_victim(core, e);
        }
    }

    /// A line displaced from an L1.
    ///
    /// Inclusive/non-inclusive: clean victims are dropped (the L2 is
    /// non-inclusive); dirty victims are written into the L2, allocating on
    /// an L2 miss. Exclusive: *every* L1 victim moves into the L2 — the
    /// lower levels are the victim store of the level above, which is what
    /// gives the exclusive hierarchy its sum-of-all-caches capacity (and its
    /// extra write bandwidth, §II).
    fn handle_l1_victim(&mut self, core: CoreId, ev: tla_cache::Evicted) {
        let ci = core.index();
        if self.inclusion == InclusionPolicy::Exclusive {
            if self.cores[ci].l2.probe(ev.addr) {
                if ev.dirty {
                    self.cores[ci].l2.mark_dirty(ev.addr);
                }
                return;
            }
            let l2ev = self.cores[ci].l2.fill(ev.addr, ev.dirty);
            if let Some(e) = l2ev {
                self.handle_l2_victim(core, e);
            }
            return;
        }
        if !ev.dirty {
            return;
        }
        if self.cores[ci].l2.mark_dirty(ev.addr) {
            return;
        }
        let l2ev = self.cores[ci].l2.fill(ev.addr, true);
        if let Some(e) = l2ev {
            self.handle_l2_victim(core, e);
        }
    }

    /// A line displaced from an L2; behaviour depends on the inclusion
    /// policy (§II / §IV-A).
    fn handle_l2_victim(&mut self, core: CoreId, ev: tla_cache::Evicted) {
        match self.inclusion {
            InclusionPolicy::Inclusive => {
                // Inclusion guarantees the line is still in the LLC — or
                // parked in the victim cache with its back-invalidation
                // deferred.
                if ev.dirty {
                    let present = self.llc.mark_dirty(ev.addr)
                        || self
                            .victim
                            .as_mut()
                            .is_some_and(|vc| vc.mark_dirty(ev.addr));
                    debug_assert!(present, "inclusion violated: dirty L2 victim not in LLC/VC");
                    if !present {
                        self.global.llc_writebacks += 1;
                    }
                }
            }
            InclusionPolicy::NonInclusive => {
                // The paper's non-inclusive model differs from inclusive
                // only by not sending back-invalidates (§IV-A): dirty L2
                // victims update a surviving LLC copy, or write through to
                // memory without re-allocating.
                let _ = core;
                if ev.dirty && !self.llc.mark_dirty(ev.addr) {
                    self.global.llc_writebacks += 1;
                }
            }
            InclusionPolicy::Exclusive => {
                // Exclusive LLC is the victim store for the core caches:
                // clean and dirty L2 victims insert once the line has left
                // the core caches entirely. If any core cache still holds
                // the line (this core's L1s — the L2 is non-inclusive of
                // them — or, for shared lines, another core) it stays
                // core-side; dirtiness transfers to a surviving copy.
                if self
                    .cores
                    .iter()
                    .any(|cc| cc.holds(ev.addr, true, true, true))
                {
                    if ev.dirty {
                        let ci = core.index();
                        let cc = &mut self.cores[ci];
                        if !cc.l1d.mark_dirty(ev.addr) && !cc.l1i.mark_dirty(ev.addr) {
                            for other in self.cores.iter_mut() {
                                if other.l1d.mark_dirty(ev.addr)
                                    || other.l1i.mark_dirty(ev.addr)
                                    || other.l2.mark_dirty(ev.addr)
                                {
                                    break;
                                }
                            }
                        }
                    }
                    return;
                }
                if self.llc.probe(ev.addr) {
                    if ev.dirty {
                        self.llc.mark_dirty(ev.addr);
                    }
                } else {
                    self.insert_into_llc(ev.addr, ev.dirty, CoreBitmap::EMPTY);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Prefetch path
    // ------------------------------------------------------------------

    /// Runs one hardware prefetch: fills the L2 (not the L1s), going through
    /// the LLC like any other request but without touching demand counters.
    /// Prefetches that find the line already L2-resident are dropped here
    /// and never counted: `global.prefetches` is lines actually requested
    /// below the L2, not lines the prefetcher nominated.
    fn prefetch(&mut self, core: CoreId, line: LineAddr) {
        let ci = core.index();
        if self.cores[ci].l2.touch_prefetch(line).is_some() {
            return;
        }
        self.global.prefetches += 1;
        self.emit(
            self.event(EventKind::Prefetch)
                .with_core(core)
                .with_level(CacheLevel::L2),
        );
        let mut dirty = false;
        let set = self.llc.set_of(line);
        match self.inclusion {
            InclusionPolicy::Exclusive => {
                if let Some(way) = self.llc.touch_prefetch(line) {
                    // The line leaves the LLC for the L2; keep its dirty
                    // bit alive in the upward fill.
                    dirty = self.llc.evict_way(set, way).is_some_and(|ev| ev.dirty);
                }
                // On LLC miss the prefetched data bypasses the LLC.
            }
            InclusionPolicy::Inclusive | InclusionPolicy::NonInclusive => {
                if let Some(way) = self.llc.touch_prefetch(line) {
                    self.llc.add_sharer(set, way, core);
                } else {
                    let rescued = self.victim.as_mut().and_then(|vc| vc.take(line));
                    if let Some(entry) = rescued {
                        self.global.victim_cache_rescues += 1;
                        self.emit(self.event(EventKind::VictimCacheRescue).with_core(core));
                        let mut cores = entry.cores;
                        cores.insert(core);
                        self.insert_into_llc(line, entry.dirty, cores);
                    } else {
                        self.insert_into_llc(line, false, CoreBitmap::single(core));
                    }
                }
            }
        }
        let ev = self.cores[ci].l2.fill(line, dirty);
        if let Some(e) = ev {
            self.handle_l2_victim(core, e);
        }
    }

    // ------------------------------------------------------------------
    // Temporal Locality Hints
    // ------------------------------------------------------------------

    /// Sends a TLH to the LLC for a core-cache hit, subject to the policy's
    /// level selection and filtering probability.
    fn send_tlh(&mut self, core: CoreId, line: LineAddr, is_ifetch: bool, from_l2: bool) {
        let TlaPolicy::Tlh(cfg) = self.tla else {
            return;
        };
        let eligible = if from_l2 {
            cfg.from_l2
        } else if is_ifetch {
            cfg.from_l1i
        } else {
            cfg.from_l1d
        };
        if !eligible {
            return;
        }
        if cfg.probability < 1.0 && self.rng.gen_f64() >= cfg.probability {
            return;
        }
        self.per_core[core.index()].tlh_hints += 1;
        self.global.tlh_hints += 1;
        let level = if from_l2 {
            CacheLevel::L2
        } else if is_ifetch {
            CacheLevel::L1I
        } else {
            CacheLevel::L1D
        };
        self.emit(
            self.event(EventKind::TlhHint)
                .with_core(core)
                .with_level(level),
        );
        self.llc.promote(line);
    }

    // ------------------------------------------------------------------
    // Inspection helpers for tests and invariant checks
    // ------------------------------------------------------------------

    /// Verifies the inclusion invariant: in inclusive mode every line in a
    /// core cache must be present in the LLC (or parked in the victim
    /// cache). Returns the first violating line, if any. O(cache size).
    pub fn find_inclusion_violation(&self) -> Option<(CoreId, LineAddr)> {
        if self.inclusion != InclusionPolicy::Inclusive {
            return None;
        }
        for (i, cc) in self.cores.iter().enumerate() {
            for cache in [&cc.l1i, &cc.l1d, &cc.l2] {
                for l in cache.iter_valid() {
                    let in_vc = self
                        .victim
                        .as_ref()
                        .is_some_and(|vc| vc.sharers(l.addr).is_some());
                    if !self.llc.probe(l.addr) && !in_vc {
                        return Some((CoreId::new(i), l.addr));
                    }
                }
            }
        }
        None
    }

    /// Verifies the directory invariant QBS's query filter relies on: in
    /// inclusive mode every line a core holds carries that core's bit in
    /// its LLC entry — or, while the line is parked in the victim cache, in
    /// its victim-cache entry. Returns the first violating line, if any.
    /// O(cache size).
    pub fn find_directory_violation(&self) -> Option<(CoreId, LineAddr)> {
        if self.inclusion != InclusionPolicy::Inclusive {
            return None;
        }
        let llc: HashMap<LineAddr, CoreBitmap> =
            self.llc.iter_valid().map(|l| (l.addr, l.cores)).collect();
        for (i, cc) in self.cores.iter().enumerate() {
            let core = CoreId::new(i);
            for cache in [&cc.l1i, &cc.l1d, &cc.l2] {
                for l in cache.iter_valid() {
                    let bits = llc
                        .get(&l.addr)
                        .copied()
                        .or_else(|| self.victim.as_ref()?.sharers(l.addr));
                    if !bits.is_some_and(|b| b.contains(core)) {
                        return Some((core, l.addr));
                    }
                }
            }
        }
        None
    }

    /// Verifies the exclusion invariant: in exclusive mode no line may be in
    /// both the LLC and any core cache. Returns the first violating line.
    pub fn find_exclusion_violation(&self) -> Option<(CoreId, LineAddr)> {
        if self.inclusion != InclusionPolicy::Exclusive {
            return None;
        }
        for (i, cc) in self.cores.iter().enumerate() {
            for cache in [&cc.l1i, &cc.l1d, &cc.l2] {
                for l in cache.iter_valid() {
                    if self.llc.probe(l.addr) {
                        return Some((CoreId::new(i), l.addr));
                    }
                }
            }
        }
        None
    }

    /// Read-only view of one core's L1 data cache (for white-box tests).
    pub fn l1d(&self, core: CoreId) -> &SetAssocCache {
        &self.cores[core.index()].l1d
    }

    /// Read-only view of one core's L1 instruction cache.
    pub fn l1i(&self, core: CoreId) -> &SetAssocCache {
        &self.cores[core.index()].l1i
    }

    /// Read-only view of one core's L2 cache.
    pub fn l2(&self, core: CoreId) -> &SetAssocCache {
        &self.cores[core.index()].l2
    }

    /// Read-only view of the shared LLC.
    pub fn llc(&self) -> &SetAssocCache {
        &self.llc
    }
}

/// Checkpoint coverage for the whole hierarchy.
///
/// Serialized: every cache array, the victim cache, the prefetchers, the
/// per-core and global counters, the TLH filtering RNG, the telemetry
/// instruction clock, the per-core attribution trackers (sorted, so
/// identical logical state always produces identical bytes) and — only when
/// device injection is configured — the injection counters. Transient
/// (rebuilt from configuration or run scoped): `inclusion`, `tla`, the
/// `pf_buf`/`order_buf` scratch buffers, the `profile_accesses` flag and
/// the telemetry sink. The policy fields are deliberately *not*
/// pinned: warm-start fan-out resumes one warmed image under several TLA
/// policies, which is exactly a change of `tla`/LLC replacement on an
/// otherwise identical state.
impl Snapshot for CacheHierarchy {
    fn write_state(&self, w: &mut SnapshotWriter) {
        w.write_usize(self.cores.len());
        for cc in &self.cores {
            cc.l1i.write_state(w);
            cc.l1d.write_state(w);
            cc.l2.write_state(w);
            w.write_bool(cc.prefetcher.is_some());
            if let Some(pf) = cc.prefetcher.as_ref() {
                pf.write_state(w);
            }
        }
        self.llc.write_state(w);
        w.write_bool(self.victim.is_some());
        if let Some(vc) = self.victim.as_ref() {
            vc.write_state(w);
        }
        for pc in &self.per_core {
            pc.write_state(w);
        }
        self.global.write_state(w);
        self.rng.write_state(w);
        w.write_u64(self.now_instr);
        for t in &self.trackers {
            t.write_state(w);
        }
        // Injection state rides at the tail, gated on configuration: a
        // hierarchy built without it writes nothing here, so io-disabled
        // snapshots stay byte-identical to pre-io builds. The way masks are
        // config-derived and not serialized.
        if let Some(io) = self.io.as_ref() {
            io.stats.write_state(w);
            w.write_usize(io.per_agent.len());
            for a in &io.per_agent {
                a.write_state(w);
            }
        }
    }

    fn read_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        let n = r.read_usize()?;
        if n != self.cores.len() {
            return Err(SnapshotError::Mismatch(format!(
                "hierarchy: snapshot has {n} cores, this configuration has {}",
                self.cores.len()
            )));
        }
        for cc in &mut self.cores {
            cc.l1i.read_state(r)?;
            cc.l1d.read_state(r)?;
            cc.l2.read_state(r)?;
            let has_pf = r.read_bool()?;
            match (has_pf, cc.prefetcher.as_mut()) {
                (true, Some(pf)) => pf.read_state(r)?,
                (false, None) => {}
                (snap, _) => {
                    return Err(SnapshotError::Mismatch(format!(
                        "hierarchy: snapshot was taken {} a prefetcher, \
                         this configuration runs {} one",
                        if snap { "with" } else { "without" },
                        if snap { "without" } else { "with" },
                    )));
                }
            }
        }
        self.llc.read_state(r)?;
        let has_vc = r.read_bool()?;
        match (has_vc, self.victim.as_mut()) {
            (true, Some(vc)) => vc.read_state(r)?,
            (false, None) => {}
            (snap, _) => {
                return Err(SnapshotError::Mismatch(format!(
                    "hierarchy: snapshot was taken {} a victim cache, \
                     this configuration runs {} one",
                    if snap { "with" } else { "without" },
                    if snap { "without" } else { "with" },
                )));
            }
        }
        // Directory bits steer back-invalidates and QBS queries into
        // `self.cores`; a bit past the last core would index out of range.
        let mut named = self.llc.directory_union().to_raw();
        if let Some(vc) = &self.victim {
            named |= vc.directory_union().to_raw();
        }
        let cores = self.cores.len();
        if CoreBitmap::from_raw(named)
            .iter()
            .any(|c| c.index() >= cores)
        {
            return Err(SnapshotError::Corrupt(format!(
                "hierarchy: a directory names a core past the {cores} this configuration has"
            )));
        }
        for pc in &mut self.per_core {
            pc.read_state(r)?;
        }
        self.global.read_state(r)?;
        self.rng.read_state(r)?;
        self.now_instr = r.read_u64()?;
        for t in &mut self.trackers {
            t.read_state(r)?;
        }
        if let Some(io) = self.io.as_mut() {
            io.stats.read_state(r)?;
            let n = r.read_usize()?;
            if n != io.per_agent.len() {
                return Err(SnapshotError::Mismatch(format!(
                    "hierarchy: snapshot has {n} io agents, this \
                     configuration has {}",
                    io.per_agent.len()
                )));
            }
            for a in &mut io.per_agent {
                a.read_state(r)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VictimCacheConfig;

    fn load(h: &mut CacheHierarchy, core: usize, line: u64) -> DataSource {
        h.access(CoreId::new(core), LineAddr::new(line), AccessKind::Load)
    }

    fn store(h: &mut CacheHierarchy, core: usize, line: u64) -> DataSource {
        h.access(CoreId::new(core), LineAddr::new(line), AccessKind::Store)
    }

    /// 1-core tiny hierarchy (Fig. 3 geometry), configurable policy.
    fn tiny(tla: TlaPolicy) -> CacheHierarchy {
        CacheHierarchy::new(&HierarchyConfig::tiny_fig3().tla(tla))
    }

    fn tiny_mode(inclusion: InclusionPolicy) -> CacheHierarchy {
        CacheHierarchy::new(&HierarchyConfig::tiny_fig3().inclusion_policy(inclusion))
    }

    /// Runs the paper's Figure 3 reference pattern a,b,a,c,a,d,a,e,a,f,a.
    fn fig3_pattern(h: &mut CacheHierarchy) {
        for x in [1u64, 2, 1, 3, 1, 4, 1, 5, 1, 6, 1] {
            load(h, 0, x);
        }
    }

    #[test]
    fn miss_hit_latency_sources() {
        let mut h = tiny(TlaPolicy::Baseline);
        assert_eq!(load(&mut h, 0, 1), DataSource::Memory);
        assert_eq!(load(&mut h, 0, 1), DataSource::L1);
        // Sequence 1,2,1,3 leaves L1 = {1,3} and L2 = {2,3}: line 2 misses
        // the L1 but hits the 2-entry L2.
        load(&mut h, 0, 2);
        load(&mut h, 0, 1);
        load(&mut h, 0, 3);
        assert_eq!(load(&mut h, 0, 2), DataSource::L2);
    }

    #[test]
    fn baseline_fig3_pattern_creates_inclusion_victims() {
        let mut h = tiny(TlaPolicy::Baseline);
        fig3_pattern(&mut h);
        let s = h.per_core_stats(CoreId::new(0));
        assert!(
            s.inclusion_victims_l1 > 0,
            "hot line 'a' must be victimized"
        );
        assert!(h.global_stats().back_invalidates > 0);
        assert_eq!(h.find_inclusion_violation(), None);
    }

    #[test]
    fn fig3_misses_are_attributed() {
        let mut h = tiny(TlaPolicy::Baseline);
        fig3_pattern(&mut h);
        let s = h.per_core_stats(CoreId::new(0));
        // Every L2 miss is classified exactly once.
        assert_eq!(
            s.misses_cold + s.misses_capacity + s.misses_inclusion_victim,
            s.l2_misses
        );
        // Lines a..f are cold once each; the hot line's re-misses are the
        // LLC's fault.
        assert_eq!(s.misses_cold, 6);
        assert!(
            s.misses_inclusion_victim > 0,
            "hot line re-misses must be charged to inclusion"
        );
        // Baseline kills come from ordinary replacement decisions only.
        let g = h.global_stats();
        assert_eq!(g.victim_misses_replacement, s.misses_inclusion_victim);
        assert_eq!(g.victim_misses(), s.misses_inclusion_victim);
        assert_eq!(g.victim_misses_eci, 0);
        assert_eq!(g.victim_misses_qbs_limit, 0);
        assert_eq!(g.victim_misses_vc, 0);
    }

    #[test]
    fn eci_victim_misses_are_tagged_with_eci() {
        let mut h = tiny(TlaPolicy::eci());
        fig3_pattern(&mut h);
        let g = h.global_stats();
        assert!(
            g.victim_misses_eci > 0,
            "re-reference to an early-invalidated line is an ECI-caused miss"
        );
        let s = h.per_core_stats(CoreId::new(0));
        assert_eq!(g.victim_misses(), s.misses_inclusion_victim);
        assert_eq!(
            s.misses_cold + s.misses_capacity + s.misses_inclusion_victim,
            s.l2_misses
        );
    }

    #[test]
    fn qbs_limit_victim_misses_are_tagged() {
        // Two hot lines pinned in the L1s (line 1 in the L1D, line 2 in
        // the L1I) stay LLC-LRU while a stream forces evictions. With a
        // 1-query budget QBS rejects the first hot candidate but must
        // evict the second unqueried — a limit-forced kill of a resident
        // line, whose next miss is charged to the query limit.
        let mut h =
            CacheHierarchy::new(&HierarchyConfig::tiny_fig3().tla(TlaPolicy::qbs_limited(1)));
        for i in 0..30u64 {
            load(&mut h, 0, 1);
            h.access(CoreId::new(0), LineAddr::new(2), AccessKind::IFetch);
            load(&mut h, 0, 10 + i);
        }
        let g = h.global_stats();
        assert!(g.qbs_limit_hits > 0);
        assert!(
            g.victim_misses_qbs_limit > 0,
            "limit-forced evictions of resident lines must surface as \
             qbs_limit victim misses"
        );
        let s = h.per_core_stats(CoreId::new(0));
        assert_eq!(g.victim_misses(), s.misses_inclusion_victim);
    }

    #[test]
    fn victim_cache_overflow_misses_are_tagged() {
        let mut h = CacheHierarchy::new(
            &HierarchyConfig::tiny_fig3().victim_cache(VictimCacheConfig { entries: 2 }),
        );
        // Keep line 1 hot in the L1 while streaming pushes it out of the
        // LLC and through the 2-entry victim cache: the deferred
        // back-invalidate fires on victim-cache displacement.
        for i in 0..20u64 {
            load(&mut h, 0, 1);
            load(&mut h, 0, 10 + i);
        }
        let g = h.global_stats();
        assert!(
            g.victim_misses_vc > 0,
            "hot-line misses after a victim-cache displacement must be \
             charged to the displacement"
        );
        let s = h.per_core_stats(CoreId::new(0));
        assert_eq!(g.victim_misses(), s.misses_inclusion_victim);
        assert_eq!(h.find_inclusion_violation(), None);
    }

    #[test]
    fn non_inclusive_and_exclusive_have_no_victim_misses() {
        for mode in [InclusionPolicy::NonInclusive, InclusionPolicy::Exclusive] {
            let mut h = tiny_mode(mode);
            fig3_pattern(&mut h);
            let s = h.per_core_stats(CoreId::new(0));
            assert_eq!(s.misses_inclusion_victim, 0, "{mode:?}");
            assert_eq!(h.global_stats().victim_misses(), 0, "{mode:?}");
            assert_eq!(
                s.misses_cold + s.misses_capacity,
                s.l2_misses,
                "{mode:?}: every miss is cold or capacity"
            );
        }
    }

    #[test]
    fn llc_access_events_require_profiling_flag() {
        use tla_telemetry::{CountingSink, SharedSink};
        let shared = SharedSink::new(CountingSink::default());
        let mut h = tiny(TlaPolicy::Baseline);
        h.set_sink(shared.clone());
        fig3_pattern(&mut h);
        assert_eq!(
            shared.with(|c| c.count(EventKind::LlcAccess)),
            0,
            "no LlcAccess events while profiling is off"
        );

        let shared = SharedSink::new(CountingSink::default());
        let mut h = tiny(TlaPolicy::Baseline);
        h.set_sink(shared.clone());
        h.set_access_profiling(true);
        assert!(h.access_profiling());
        fig3_pattern(&mut h);
        let llc_accesses = h.per_core_stats(CoreId::new(0)).llc_accesses;
        assert_eq!(
            shared.with(|c| c.count(EventKind::LlcAccess)),
            llc_accesses,
            "one LlcAccess event per LLC demand access"
        );
    }

    #[test]
    fn tlh_prevents_fig3_inclusion_victims() {
        let mut h = tiny(TlaPolicy::tlh_l1());
        fig3_pattern(&mut h);
        let s = h.per_core_stats(CoreId::new(0));
        assert_eq!(s.inclusion_victims_l1, 0, "TLH keeps 'a' MRU in the LLC");
        assert!(s.tlh_hints > 0);
        assert_eq!(h.global_stats().tlh_hints, s.tlh_hints);
    }

    #[test]
    fn qbs_prevents_fig3_inclusion_victims() {
        let mut h = tiny(TlaPolicy::qbs());
        fig3_pattern(&mut h);
        assert_eq!(h.per_core_stats(CoreId::new(0)).inclusion_victims_l1, 0);
        let g = h.global_stats();
        assert!(g.qbs_queries > 0);
        assert!(g.qbs_rejections > 0);
        assert_eq!(h.find_inclusion_violation(), None);
    }

    #[test]
    fn eci_rescues_hot_line_via_llc_hit() {
        let mut h = tiny(TlaPolicy::eci());
        fig3_pattern(&mut h);
        let g = h.global_stats();
        assert!(g.eci_invalidates > 0, "ECI must early-invalidate");
        assert!(g.eci_rescues > 0, "re-reference to 'a' must rescue it");
        // ECI converts some L1 hits into LLC hits but must avoid most
        // memory misses for 'a': fewer memory accesses than baseline.
        let mut base = tiny(TlaPolicy::Baseline);
        fig3_pattern(&mut base);
        assert!(
            h.per_core_stats(CoreId::new(0)).memory_accesses
                <= base.per_core_stats(CoreId::new(0)).memory_accesses
        );
    }

    #[test]
    fn non_inclusive_sends_no_back_invalidates() {
        let mut h = tiny_mode(InclusionPolicy::NonInclusive);
        fig3_pattern(&mut h);
        let g = h.global_stats();
        assert_eq!(g.back_invalidates, 0);
        assert_eq!(h.per_core_stats(CoreId::new(0)).inclusion_victims(), 0);
        // 'a' stays in the L1 throughout: after warm-up every access hits.
        assert!(h.l1d(CoreId::new(0)).probe(LineAddr::new(1)));
    }

    #[test]
    fn non_inclusive_line_survives_llc_eviction() {
        let mut h = tiny_mode(InclusionPolicy::NonInclusive);
        load(&mut h, 0, 1);
        // Evict 1 from the 4-entry LLC with 4 more lines.
        for x in 10..14 {
            load(&mut h, 0, x);
        }
        assert!(!h.llc_holds(LineAddr::new(1)));
        // The L1 copy (if capacity allowed) was not invalidated; with a
        // 2-entry L1 line 1 fell out by capacity, but no back-invalidate
        // message was ever sent.
        assert_eq!(h.global_stats().back_invalidates, 0);
    }

    #[test]
    fn exclusive_hit_moves_line_up_and_invalidates_llc() {
        let mut h = tiny_mode(InclusionPolicy::Exclusive);
        load(&mut h, 0, 1); // memory -> L1 only (bypasses L2 and LLC)
        assert!(!h.llc_holds(LineAddr::new(1)));
        assert!(h.l1d(CoreId::new(0)).probe(LineAddr::new(1)));
        // Walk 1 down the victim chain: L1 -> L2 -> LLC.
        for x in 2..=5 {
            load(&mut h, 0, x);
        }
        assert!(h.llc_holds(LineAddr::new(1)));
        assert_eq!(h.find_exclusion_violation(), None);
        // Re-access: LLC hit moves it up and removes the LLC copy.
        assert_eq!(load(&mut h, 0, 1), DataSource::Llc);
        assert!(!h.llc_holds(LineAddr::new(1)));
        assert!(h.core_holds(CoreId::new(0), LineAddr::new(1)));
        assert_eq!(h.find_exclusion_violation(), None);
    }

    #[test]
    fn exclusive_capacity_exceeds_inclusive() {
        // Working set of 6 lines: inclusive capacity = LLC = 4 lines, so it
        // thrashes; exclusive capacity = L2 + LLC = 6 lines, so after
        // warm-up it fits (2-entry L1 + 2-entry L2 + 4-entry LLC).
        let ws: Vec<u64> = (0..6).collect();
        let mut incl = tiny_mode(InclusionPolicy::Inclusive);
        let mut excl = tiny_mode(InclusionPolicy::Exclusive);
        for _ in 0..50 {
            for &x in &ws {
                load(&mut incl, 0, x);
                load(&mut excl, 0, x);
            }
        }
        let mi = incl.per_core_stats(CoreId::new(0)).memory_accesses;
        let me = excl.per_core_stats(CoreId::new(0)).memory_accesses;
        assert!(me < mi, "exclusive ({me}) must out-cache inclusive ({mi})");
    }

    #[test]
    fn qbs_query_limit_forces_eviction() {
        let mut h =
            CacheHierarchy::new(&HierarchyConfig::tiny_fig3().tla(TlaPolicy::qbs_limited(1)));
        fig3_pattern(&mut h);
        let g = h.global_stats();
        // With a 1-query limit QBS sometimes evicts unqueried candidates.
        assert!(g.qbs_queries > 0);
        assert!(g.qbs_queries <= g.qbs_rejections + g.llc_evictions);
    }

    #[test]
    fn modified_qbs_invalidates_rejected_candidates() {
        let mut h = tiny(TlaPolicy::qbs_invalidating());
        fig3_pattern(&mut h);
        let g = h.global_stats();
        assert!(g.qbs_rejections > 0);
        // Each rejection back-invalidated the candidate from the cores.
        assert!(g.eci_invalidates > 0);
        // Hot line is preserved in the LLC, so misses stay low, like QBS.
        let mut plain = tiny(TlaPolicy::qbs());
        fig3_pattern(&mut plain);
        assert_eq!(
            h.per_core_stats(CoreId::new(0)).llc_misses,
            plain.per_core_stats(CoreId::new(0)).llc_misses
        );
    }

    #[test]
    fn victim_cache_rescues_llc_victims() {
        let mut h = CacheHierarchy::new(
            &HierarchyConfig::tiny_fig3().victim_cache(VictimCacheConfig { entries: 4 }),
        );
        load(&mut h, 0, 1);
        for x in 10..14 {
            load(&mut h, 0, x); // evicts 1 from the LLC into the VC
        }
        assert!(!h.llc_holds(LineAddr::new(1)));
        // Re-access: rescued from the victim cache, not memory.
        assert_eq!(load(&mut h, 0, 1), DataSource::Llc);
        assert_eq!(h.global_stats().victim_cache_rescues, 1);
        assert_eq!(h.find_inclusion_violation(), None);
    }

    #[test]
    fn dirty_l1_victim_written_into_l2() {
        let mut h = tiny(TlaPolicy::Baseline);
        store(&mut h, 0, 1);
        // Push 1 out of the 2-entry L1D.
        load(&mut h, 0, 2);
        load(&mut h, 0, 3);
        assert!(!h.l1d(CoreId::new(0)).probe(LineAddr::new(1)));
        // The dirty copy must survive in L2 (or deeper) — re-store and
        // evict everything; the writeback chain must reach the LLC.
        assert_eq!(load(&mut h, 0, 1), DataSource::L2);
    }

    #[test]
    fn dirty_eviction_reaches_memory_counter() {
        let mut h = tiny(TlaPolicy::Baseline);
        store(&mut h, 0, 1);
        // Thrash everything out of the whole hierarchy.
        for x in 10..30 {
            load(&mut h, 0, x);
        }
        assert!(h.global_stats().llc_writebacks > 0);
    }

    #[test]
    fn two_core_inclusion_victims_cross_core() {
        // Core 0 keeps a hot line in its L1; core 1 thrashes the LLC.
        let cfg = HierarchyConfig::tiny_fig3().cores(2);
        let mut h = CacheHierarchy::new(&cfg);
        load(&mut h, 0, 1);
        for i in 0..20u64 {
            load(&mut h, 0, 1); // hot in core 0's L1, invisible to LLC
            load(&mut h, 1, 100 + i); // streaming in core 1
        }
        let s0 = h.per_core_stats(CoreId::new(0));
        assert!(
            s0.inclusion_victims_l1 > 0,
            "core 1's streaming must victimize core 0's hot line"
        );
        // And QBS protects it.
        let mut h = CacheHierarchy::new(&cfg.clone().tla(TlaPolicy::qbs()));
        load(&mut h, 0, 1);
        for i in 0..20u64 {
            load(&mut h, 0, 1);
            load(&mut h, 1, 100 + i);
        }
        assert_eq!(h.per_core_stats(CoreId::new(0)).inclusion_victims_l1, 0);
    }

    #[test]
    fn directory_filters_back_invalidates() {
        let cfg = HierarchyConfig::tiny_fig3().cores(2);
        let mut h = CacheHierarchy::new(&cfg);
        // Only core 1 streams; core 0 never touches those lines, so no
        // back-invalidate should ever be sent to core 0.
        for i in 0..50u64 {
            load(&mut h, 1, i);
        }
        // Back-invalidates were sent (to core 1) but none created victims
        // in core 0.
        assert_eq!(h.per_core_stats(CoreId::new(0)).inclusion_victims(), 0);
    }

    #[test]
    fn prefetch_panics_via_access() {
        let mut h = tiny(TlaPolicy::Baseline);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            h.access(CoreId::new(0), LineAddr::new(1), AccessKind::Prefetch);
        }));
        assert!(r.is_err());
    }

    #[test]
    fn ifetch_uses_l1i() {
        let mut h = tiny(TlaPolicy::Baseline);
        h.access(CoreId::new(0), LineAddr::new(7), AccessKind::IFetch);
        assert!(h.l1i(CoreId::new(0)).probe(LineAddr::new(7)));
        assert!(!h.l1d(CoreId::new(0)).probe(LineAddr::new(7)));
        let s = h.per_core_stats(CoreId::new(0));
        assert_eq!(s.l1i_accesses, 1);
        assert_eq!(s.l1d_accesses, 0);
    }

    #[test]
    fn prefetcher_fills_l2_not_l1() {
        // Scaled-down realistic hierarchy with the prefetcher on.
        let cfg = HierarchyConfig::scaled(1, 8);
        let mut h = CacheHierarchy::new(&cfg);
        // Sequential streaming trains the prefetcher.
        for i in 0..64u64 {
            load(&mut h, 0, i); // consecutive lines
        }
        assert!(h.global_stats().prefetches > 0);
        assert_eq!(h.find_inclusion_violation(), None);
    }

    #[test]
    fn tlh_probability_filters_hints() {
        let cfg = HierarchyConfig::tiny_fig3().tla(TlaPolicy::tlh_l1_filtered(0.0));
        let mut h = CacheHierarchy::new(&cfg);
        fig3_pattern(&mut h);
        assert_eq!(h.global_stats().tlh_hints, 0);

        let cfg = HierarchyConfig::tiny_fig3().tla(TlaPolicy::tlh_l1_filtered(1.0));
        let mut h = CacheHierarchy::new(&cfg);
        fig3_pattern(&mut h);
        let all = h.global_stats().tlh_hints;
        assert!(all > 0);
    }

    #[test]
    fn tlh_l2_only_hints_on_l2_hits() {
        let mut h = tiny(TlaPolicy::tlh_l2());
        load(&mut h, 0, 1);
        load(&mut h, 0, 1); // L1 hit: no hint under TLH-L2
        assert_eq!(h.global_stats().tlh_hints, 0);
        // Sequence leaves L1 = {1,3}, L2 = {2,3}; line 2 then hits the L2.
        load(&mut h, 0, 2);
        load(&mut h, 0, 1);
        load(&mut h, 0, 3);
        load(&mut h, 0, 2); // L2 hit: hint
        assert_eq!(h.global_stats().tlh_hints, 1);
    }

    #[test]
    fn stats_snapshot_since() {
        let mut h = tiny(TlaPolicy::Baseline);
        load(&mut h, 0, 1);
        let snap = *h.per_core_stats(CoreId::new(0));
        load(&mut h, 0, 2);
        let delta = h.per_core_stats(CoreId::new(0)).since(&snap);
        assert_eq!(delta.l1d_accesses, 1);
        assert_eq!(delta.memory_accesses, 1);
    }

    #[test]
    fn eci_line_stays_in_llc_after_early_invalidation() {
        let mut h = tiny(TlaPolicy::eci());
        // Fill the LLC: 1,2,3,4. Then miss on 5: victim is 1 (LRU),
        // ECI target is 2.
        for x in 1..=4 {
            load(&mut h, 0, x);
        }
        load(&mut h, 0, 5);
        // Target 2 was early-invalidated from the cores but kept in LLC.
        assert!(h.llc_holds(LineAddr::new(2)));
        assert!(!h.core_holds(CoreId::new(0), LineAddr::new(2)));
        assert!(h.global_stats().eci_invalidates > 0);
    }

    #[test]
    fn inclusive_invariant_random_storm() {
        let mut rng = tla_rng::SmallRng::seed_from_u64(42);
        for tla in [
            TlaPolicy::baseline(),
            TlaPolicy::tlh_l1(),
            TlaPolicy::eci(),
            TlaPolicy::qbs(),
            TlaPolicy::qbs_invalidating(),
        ] {
            for vc in [None, Some(VictimCacheConfig { entries: 2 })] {
                let mut cfg = HierarchyConfig::tiny_fig3().cores(2).tla(tla);
                if let Some(vc) = vc {
                    cfg = cfg.victim_cache(vc);
                }
                let mut h = CacheHierarchy::new(&cfg);
                for _ in 0..500 {
                    let core = rng.gen_range(0usize..2);
                    let line = rng.gen_range(0..16u64);
                    let kind = if rng.gen_bool(0.3) {
                        AccessKind::Store
                    } else {
                        AccessKind::Load
                    };
                    h.access(CoreId::new(core), LineAddr::new(line), kind);
                    assert_eq!(h.find_inclusion_violation(), None, "policy {tla}, {vc:?}");
                    assert_eq!(h.find_directory_violation(), None, "policy {tla}, {vc:?}");
                }
            }
        }
    }

    #[test]
    fn directory_check_catches_a_missing_bit() {
        let cfg = HierarchyConfig::tiny_fig3().cores(2);
        let mut h = CacheHierarchy::new(&cfg);
        let line = LineAddr::new(3);
        h.access(CoreId::new(1), line, AccessKind::Load);
        assert_eq!(h.find_directory_violation(), None);
        let set = h.llc.set_of(line);
        let way = h.llc.touch(line).expect("line was just filled");
        h.llc.clear_sharers(set, way);
        assert_eq!(
            h.find_inclusion_violation(),
            None,
            "the line is still in the LLC"
        );
        assert_eq!(h.find_directory_violation(), Some((CoreId::new(1), line)));
    }

    #[test]
    fn tla_on_non_inclusive_base_is_nearly_inert() {
        // Figure 9b: applying TLA policies on a non-inclusive hierarchy
        // must change little (no inclusion victims to avoid).
        let run = |tla: TlaPolicy| {
            let cfg = HierarchyConfig::tiny_fig3()
                .cores(2)
                .inclusion_policy(InclusionPolicy::NonInclusive)
                .tla(tla);
            let mut h = CacheHierarchy::new(&cfg);
            for i in 0..200u64 {
                load(&mut h, 0, i % 3); // hot in core 0
                load(&mut h, 1, 100 + i); // streaming in core 1
            }
            (
                h.per_core_stats(CoreId::new(0)).memory_accesses,
                h.per_core_stats(CoreId::new(1)).memory_accesses,
            )
        };
        let base = run(TlaPolicy::baseline());
        let qbs = run(TlaPolicy::qbs());
        assert_eq!(
            base, qbs,
            "QBS on a non-inclusive base changes nothing here"
        );
    }

    #[test]
    fn victim_cache_composes_with_qbs() {
        let cfg = HierarchyConfig::tiny_fig3()
            .cores(2)
            .tla(TlaPolicy::qbs())
            .victim_cache(VictimCacheConfig { entries: 4 });
        let mut h = CacheHierarchy::new(&cfg);
        for i in 0..300u64 {
            load(&mut h, 0, i % 3);
            load(&mut h, 1, 100 + i);
        }
        assert_eq!(h.find_inclusion_violation(), None);
        // QBS protects core 0's hot lines even before the victim cache.
        assert_eq!(h.per_core_stats(CoreId::new(0)).inclusion_victims_l1, 0);
    }

    #[test]
    fn exclusive_mode_with_prefetcher_keeps_invariant() {
        let cfg = HierarchyConfig::scaled(2, 8).inclusion_policy(InclusionPolicy::Exclusive);
        let mut h = CacheHierarchy::new(&cfg);
        for i in 0..2000u64 {
            load(&mut h, (i % 2) as usize, i / 2); // two interleaved streams
        }
        assert!(h.global_stats().prefetches > 0);
        assert_eq!(h.find_exclusion_violation(), None);
    }

    #[test]
    fn eight_core_qbs_protects_everyone() {
        // A 64-entry fully-associative LLC over 8 cores' tiny caches, with
        // a query budget wide enough to walk past every hot line (the
        // paper's unlimited-query configuration).
        let line = tla_types::LINE_BYTES;
        let fa = |name: &str, lines: usize| {
            tla_cache::CacheConfig::new(name, lines * line, lines, tla_cache::Policy::Lru)
                .expect("valid geometry")
        };
        let cfg = HierarchyConfig::tiny_fig3()
            .cores(8)
            .geometries(fa("L1I", 2), fa("L1D", 2), fa("L2", 2), fa("LLC", 64))
            .expect("valid geometries")
            .tla(TlaPolicy::Qbs(crate::policy::QbsConfig {
                max_queries: 64,
                ..crate::policy::QbsConfig::L1_L2
            }));
        let mut h = CacheHierarchy::new(&cfg);
        for i in 0..500u64 {
            for c in 0..7 {
                load(&mut h, c, (c as u64) * 1000 + i % 2); // hot pairs
            }
            load(&mut h, 7, 100_000 + i); // one thrasher
        }
        for c in 0..7 {
            let v = h.per_core_stats(CoreId::new(c)).inclusion_victims();
            assert_eq!(v, 0, "core {c} suffered {v} victims under QBS");
        }
        assert_eq!(h.find_inclusion_violation(), None);
    }

    #[test]
    fn dirty_writeback_to_line_parked_in_victim_cache() {
        // Regression (found by proptest): under QBS + victim cache, a
        // core-resident line can be evicted from the LLC into the victim
        // cache (QBS's query-limit fallback) with its back-invalidation
        // deferred; a later dirty L2 writeback of that line must land in
        // the victim cache, not violate inclusion.
        let cfg = HierarchyConfig::tiny_fig3()
            .cores(2)
            .tla(TlaPolicy::qbs())
            .victim_cache(VictimCacheConfig { entries: 4 });
        let mut h = CacheHierarchy::new(&cfg);
        store(&mut h, 0, 16);
        load(&mut h, 0, 0);
        store(&mut h, 0, 0);
        load(&mut h, 1, 1);
        store(&mut h, 0, 2);
        load(&mut h, 0, 47);
        assert_eq!(h.find_inclusion_violation(), None);
        // The parked line (now held only by the victim cache) is rescued
        // on re-access without a memory trip.
        assert_eq!(load(&mut h, 0, 16), DataSource::Llc);
        assert_eq!(h.find_inclusion_violation(), None);
    }

    #[test]
    fn snoop_filter_accounting() {
        // Inclusive: LLC misses need no core snoops. Non-inclusive and
        // exclusive: every demand LLC miss broadcasts to the other cores.
        let runs = [
            (InclusionPolicy::Inclusive, false),
            (InclusionPolicy::NonInclusive, true),
            (InclusionPolicy::Exclusive, true),
        ];
        for (mode, snoops_expected) in runs {
            let cfg = HierarchyConfig::tiny_fig3().cores(2).inclusion_policy(mode);
            let mut h = CacheHierarchy::new(&cfg);
            for i in 0..50u64 {
                load(&mut h, 0, i);
            }
            let probes = h.global_stats().snoop_probes;
            if snoops_expected {
                assert!(probes > 0, "{mode:?} must pay snoop broadcasts");
                // One probe per other core per demand LLC miss.
                assert_eq!(probes, h.per_core_stats(CoreId::new(0)).llc_misses);
            } else {
                assert_eq!(probes, 0, "{mode:?} is a natural snoop filter");
            }
        }
    }

    #[test]
    fn exclusive_llc_hit_preserves_dirty_bit() {
        // Regression: an exclusive-LLC hit used to discard the `Evicted`
        // returned by `invalidate`, so a dirty line moved up *clean* and
        // its writeback vanished. The dirty bit must survive the full
        // round trip L1 -> L2 -> LLC -> L1 and still reach the writeback
        // counter when the line finally dies.
        let mut h = tiny_mode(InclusionPolicy::Exclusive);
        store(&mut h, 0, 1); // the only store in this test
        for x in 2..=5 {
            load(&mut h, 0, x); // walk line 1 down: L1 -> L2 -> LLC (dirty)
        }
        assert!(h.llc_holds(LineAddr::new(1)));
        // Exclusive hit: the line moves back up and must come up dirty.
        assert_eq!(load(&mut h, 0, 1), DataSource::Llc);
        assert!(!h.llc_holds(LineAddr::new(1)));
        assert_eq!(h.find_exclusion_violation(), None);
        // Thrash the whole hierarchy with clean lines: the one dirty line
        // must be written back exactly once on its way out.
        for x in 10..30 {
            load(&mut h, 0, x);
        }
        assert!(!h.core_holds(CoreId::new(0), LineAddr::new(1)));
        assert!(!h.llc_holds(LineAddr::new(1)));
        assert_eq!(
            h.global_stats().llc_writebacks,
            1,
            "the dirty bit was lost on the upward move"
        );
    }

    #[test]
    fn qbs_exhausted_set_evicts_last_candidate() {
        // Regression: when every candidate in the set is core-resident the
        // fallback used to return index 0 — evicting the coldest line the
        // walk had just promoted to MRU. It must evict the *last*
        // candidate instead.
        let cfg = HierarchyConfig::tiny_fig3().cores(2).tla(TlaPolicy::qbs());
        let mut h = CacheHierarchy::new(&cfg);
        load(&mut h, 0, 1);
        load(&mut h, 0, 2);
        load(&mut h, 1, 3);
        load(&mut h, 1, 4);
        // LLC (LRU, 4-entry) holds 1,2,3,4 in that recency order, and
        // every line is still resident in a core cache: the QBS walk
        // rejects all four candidates.
        load(&mut h, 0, 5);
        let g = h.global_stats();
        assert_eq!(g.qbs_limit_hits, 1, "full-set rejection must fall back");
        assert_eq!(g.qbs_rejections, 4);
        assert!(g.qbs_queries <= g.qbs_rejections + g.llc_evictions);
        // Victim order was [1, 2, 3, 4]: the last candidate (4) dies, the
        // first (1) survives with the MRU grant the walk gave it.
        assert!(h.llc_holds(LineAddr::new(1)), "candidate 0 must survive");
        assert!(!h.llc_holds(LineAddr::new(4)), "last candidate must die");
        assert_eq!(h.find_inclusion_violation(), None);
    }

    #[test]
    fn prefetch_counter_skips_l2_resident_lines() {
        // Regression: `access()` used to count a prefetch (and emit its
        // event) before `prefetch()` noticed the line was already in the
        // L2. The counter must equal lines actually requested below the
        // L2, i.e. the L2's prefetch *misses*, not its prefetch lookups.
        let cfg = HierarchyConfig::scaled(1, 8);
        let mut h = CacheHierarchy::new(&cfg);
        for i in 0..64u64 {
            load(&mut h, 0, i); // sequential stream: windows overlap
        }
        let l2 = h.l2(CoreId::new(0)).stats();
        assert!(
            l2.prefetch_accesses > l2.prefetch_misses,
            "stream overlap must nominate some already-resident lines"
        );
        assert_eq!(h.global_stats().prefetches, l2.prefetch_misses);
    }

    #[test]
    fn snapshot_round_trip_resumes_identically() {
        // Warm a hierarchy, snapshot it, restore into a freshly built twin,
        // then drive both with the same tail: every counter must agree.
        let cfg = HierarchyConfig::scaled(2, 8).tla(TlaPolicy::tlh_l1_filtered(0.5));
        let mut h = CacheHierarchy::new(&cfg);
        let mut rng = tla_rng::SmallRng::seed_from_u64(7);
        let drive = |h: &mut CacheHierarchy, rng: &mut tla_rng::SmallRng, n: usize| {
            for _ in 0..n {
                let core = rng.gen_range(0usize..2);
                let line = rng.gen_range(0..4096u64);
                let kind = if rng.gen_bool(0.3) {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                h.access(CoreId::new(core), LineAddr::new(line), kind);
            }
        };
        drive(&mut h, &mut rng, 3000);
        h.set_now(3000);

        let mut w = SnapshotWriter::new();
        h.write_state(&mut w);
        let bytes = w.finish();

        let mut twin = CacheHierarchy::new(&cfg);
        let mut r = SnapshotReader::new(&bytes).expect("valid snapshot");
        twin.read_state(&mut r).expect("restore succeeds");

        let mut rng_a = rng.clone();
        let mut rng_b = rng;
        drive(&mut h, &mut rng_a, 2000);
        drive(&mut twin, &mut rng_b, 2000);
        for c in 0..2 {
            assert_eq!(
                h.per_core_stats(CoreId::new(c)),
                twin.per_core_stats(CoreId::new(c)),
                "core {c} counters diverged after resume"
            );
        }
        assert_eq!(h.global_stats(), twin.global_stats());
        assert_eq!(h.find_inclusion_violation(), None);
        assert_eq!(twin.find_inclusion_violation(), None);
    }

    #[test]
    fn snapshot_rejects_mismatched_configuration() {
        let mut h = CacheHierarchy::new(&HierarchyConfig::tiny_fig3().cores(2));
        fig3_pattern(&mut h);
        let mut w = SnapshotWriter::new();
        h.write_state(&mut w);
        let bytes = w.finish();

        // Wrong core count.
        let mut one = CacheHierarchy::new(&HierarchyConfig::tiny_fig3());
        let mut r = SnapshotReader::new(&bytes).expect("valid snapshot");
        let err = one.read_state(&mut r).unwrap_err();
        assert!(matches!(err, tla_snapshot::SnapshotError::Mismatch(_)));
        assert!(err.to_string().contains("cores"), "got: {err}");

        // Victim-cache presence differs.
        let mut vc = CacheHierarchy::new(
            &HierarchyConfig::tiny_fig3()
                .cores(2)
                .victim_cache(VictimCacheConfig { entries: 4 }),
        );
        let mut r = SnapshotReader::new(&bytes).expect("valid snapshot");
        let err = vc.read_state(&mut r).unwrap_err();
        assert!(err.to_string().contains("victim cache"), "got: {err}");
    }

    #[test]
    fn snapshot_rejects_directories_naming_absent_cores() {
        // A directory bit for core 5 of a two-core hierarchy, in the LLC
        // or in a parked victim-cache entry, would send a back-invalidate
        // to a core that does not exist once the line leaves.
        let cfg = HierarchyConfig::tiny_fig3()
            .cores(2)
            .victim_cache(VictimCacheConfig { entries: 4 });
        let stray = CoreBitmap::single(CoreId::new(5));
        let decode = |h: &CacheHierarchy| {
            let mut w = SnapshotWriter::new();
            h.write_state(&mut w);
            let bytes = w.finish();
            let mut r = SnapshotReader::new(&bytes).expect("valid snapshot");
            CacheHierarchy::new(&cfg).read_state(&mut r)
        };

        let mut h = CacheHierarchy::new(&cfg);
        fig3_pattern(&mut h);
        assert!(decode(&h).is_ok());
        let line = LineAddr::new(0x7777);
        let set = h.llc.set_of(line);
        let way = h.llc.invalid_way(set).unwrap_or(0);
        h.llc.evict_way(set, way);
        h.llc.fill_way(set, way, line, false, stray);
        let err = decode(&h).unwrap_err();
        assert!(err.to_string().contains("past the 2"), "got: {err}");

        let mut h = CacheHierarchy::new(&cfg);
        fig3_pattern(&mut h);
        h.victim.as_mut().unwrap().insert(VictimEntry {
            addr: line,
            dirty: false,
            cores: stray,
        });
        let err = decode(&h).unwrap_err();
        assert!(err.to_string().contains("past the 2"), "got: {err}");
    }

    #[test]
    fn snapshot_resumes_across_policies() {
        // The fan-out contract: a baseline-warmed image restores into a
        // hierarchy running a different TLA policy.
        let warm_cfg = HierarchyConfig::tiny_fig3().cores(2);
        let mut h = CacheHierarchy::new(&warm_cfg);
        fig3_pattern(&mut h);
        let mut w = SnapshotWriter::new();
        h.write_state(&mut w);
        let bytes = w.finish();

        for tla in [TlaPolicy::tlh_l1(), TlaPolicy::eci(), TlaPolicy::qbs()] {
            let mut t = CacheHierarchy::new(&warm_cfg.clone().tla(tla));
            let mut r = SnapshotReader::new(&bytes).expect("valid snapshot");
            t.read_state(&mut r).expect("cross-policy restore succeeds");
            // The restored image carries the warm contents.
            assert!(
                t.llc_holds(LineAddr::new(1)) || t.core_holds(CoreId::new(0), LineAddr::new(1))
            );
            fig3_pattern(&mut t);
            assert_eq!(t.find_inclusion_violation(), None, "policy {tla}");
        }
    }

    #[test]
    fn io_injection_fills_llc_not_core_caches() {
        let cfg = HierarchyConfig::tiny_fig3().io(crate::config::IoInjectConfig {
            agents: 1,
            inject_ways: None,
            partition: false,
        });
        let mut h = CacheHierarchy::new(&cfg);
        h.io_inject(0, LineAddr::new(100), true);
        assert!(h.llc_holds(LineAddr::new(100)));
        assert!(!h.core_holds(CoreId::new(0), LineAddr::new(100)));
        let io = h.io_stats().unwrap();
        assert_eq!(io.injections, 1);
        assert_eq!(io.inject_fills, 1);
        assert_eq!(io.inject_hits, 0);
        // Re-injection of the same line hits in place.
        h.io_inject(0, LineAddr::new(100), false);
        assert_eq!(h.io_stats().unwrap().inject_hits, 1);
        let agents = h.io_agent_stats().unwrap();
        assert_eq!(agents[0].injections, 2);
        assert_eq!(agents[0].fills, 1);
        assert_eq!(agents[0].hits, 1);
    }

    #[test]
    fn io_injection_creates_attributed_inclusion_victims() {
        // Keep line 1 hot in core 0's L1 while unlimited injections thrash
        // the 4-entry LLC: the back-invalidates and the hot line's re-misses
        // must be charged to the injection subsystem.
        let cfg = HierarchyConfig::tiny_fig3().io(crate::config::IoInjectConfig {
            agents: 1,
            inject_ways: None,
            partition: false,
        });
        let mut h = CacheHierarchy::new(&cfg);
        for i in 0..20u64 {
            load(&mut h, 0, 1);
            h.io_inject(0, LineAddr::new(1000 + i), true);
        }
        let io = *h.io_stats().unwrap();
        assert!(io.llc_evictions > 0, "injections must evict");
        assert!(io.back_invalidates > 0, "evicting the hot line must b-inv");
        assert!(
            io.victim_misses_io > 0,
            "hot-line re-misses must be charged to injection"
        );
        let s = h.per_core_stats(CoreId::new(0));
        assert!(s.misses_inclusion_victim >= io.victim_misses_io);
        // The app-policy attribution counters stay clear of io damage.
        assert_eq!(h.global_stats().victim_misses(), 0);
        assert!(io.writebacks > 0, "dirty DMA lines write back on eviction");
        assert_eq!(h.find_inclusion_violation(), None);
    }

    #[test]
    fn io_injection_way_limit_confines_device_fills() {
        // 4-way LLC, injections limited to way 0: device traffic recycles
        // one way and never evicts the app's lines in ways 1..3.
        let cfg = HierarchyConfig::tiny_fig3().io(crate::config::IoInjectConfig {
            agents: 1,
            inject_ways: Some(1),
            partition: false,
        });
        let mut h = CacheHierarchy::new(&cfg);
        // Device traffic claims way 0 first; the app's lines then fill the
        // remaining invalid ways and stay out of the device's reach.
        h.io_inject(0, LineAddr::new(999), true);
        load(&mut h, 0, 1);
        load(&mut h, 0, 2);
        for i in 0..50u64 {
            h.io_inject(0, LineAddr::new(1000 + i), true);
        }
        assert!(h.llc_holds(LineAddr::new(1)), "app line survives");
        assert!(h.llc_holds(LineAddr::new(2)), "app line survives");
        let io = h.io_stats().unwrap();
        assert_eq!(io.back_invalidates, 0);
        assert_eq!(h.per_core_stats(CoreId::new(0)).inclusion_victims(), 0);
        assert_eq!(h.find_inclusion_violation(), None);
    }

    #[test]
    fn io_partition_keeps_app_out_of_device_ways() {
        // Partitioned: app fills avoid injection way 0, so a device line
        // parked there survives arbitrary app streaming.
        let cfg = HierarchyConfig::tiny_fig3().io(crate::config::IoInjectConfig {
            agents: 1,
            inject_ways: Some(1),
            partition: true,
        });
        let mut h = CacheHierarchy::new(&cfg);
        h.io_inject(0, LineAddr::new(500), true);
        for i in 0..50u64 {
            load(&mut h, 0, i);
        }
        assert!(
            h.llc_holds(LineAddr::new(500)),
            "app streaming must not evict the partitioned device line"
        );
        assert_eq!(h.find_inclusion_violation(), None);
    }

    #[test]
    fn io_disabled_hierarchy_is_bit_identical() {
        // A hierarchy with the io feature compiled in but not configured
        // must produce byte-identical snapshots to one that never heard of
        // it (the feature is presence-gated everywhere).
        let cfg = HierarchyConfig::tiny_fig3().cores(2);
        let mut a = CacheHierarchy::new(&cfg);
        let mut b = CacheHierarchy::new(&cfg);
        fig3_pattern(&mut a);
        fig3_pattern(&mut b);
        let bytes = |h: &CacheHierarchy| {
            let mut w = SnapshotWriter::new();
            h.write_state(&mut w);
            w.finish()
        };
        assert_eq!(bytes(&a), bytes(&b));
        assert!(a.io_stats().is_none());
    }

    #[test]
    fn io_snapshot_round_trips_counters() {
        let cfg = HierarchyConfig::tiny_fig3().io(crate::config::IoInjectConfig {
            agents: 2,
            inject_ways: Some(2),
            partition: true,
        });
        let mut h = CacheHierarchy::new(&cfg);
        for i in 0..10u64 {
            load(&mut h, 0, i % 3);
            h.io_inject((i % 2) as usize, LineAddr::new(2000 + i), true);
        }
        let mut w = SnapshotWriter::new();
        h.write_state(&mut w);
        let bytes = w.finish();

        let mut twin = CacheHierarchy::new(&cfg);
        let mut r = SnapshotReader::new(&bytes).expect("valid snapshot");
        twin.read_state(&mut r).expect("restore succeeds");
        assert_eq!(twin.io_stats(), h.io_stats());
        assert_eq!(twin.io_agent_stats(), h.io_agent_stats());
    }

    #[test]
    fn exclusive_invariant_random_storm() {
        let mut rng = tla_rng::SmallRng::seed_from_u64(43);
        let cfg = HierarchyConfig::tiny_fig3()
            .cores(2)
            .inclusion_policy(InclusionPolicy::Exclusive);
        let mut h = CacheHierarchy::new(&cfg);
        for _ in 0..500 {
            let core = rng.gen_range(0usize..2);
            let line = rng.gen_range(0..16u64);
            h.access(CoreId::new(core), LineAddr::new(line), AccessKind::Load);
            assert_eq!(h.find_exclusion_violation(), None);
        }
    }
}
