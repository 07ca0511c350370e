//! Hierarchy statistics counters.
//!
//! Per-core counters cover everything the paper's metrics need (MPKI per
//! level, LLC miss reduction, inclusion-victim counts); global counters
//! cover the message-traffic claims (back-invalidates, ECI invalidations,
//! QBS queries, TLH volume). They live in `tla-types` (rather than
//! `tla-core`, which maintains them) so the telemetry layer can snapshot
//! and serialize them without depending on the hierarchy itself.

/// Demand-access counters attributed to one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerCoreStats {
    /// L1 instruction-cache demand accesses.
    pub l1i_accesses: u64,
    /// L1 instruction-cache demand misses.
    pub l1i_misses: u64,
    /// L1 data-cache demand accesses.
    pub l1d_accesses: u64,
    /// L1 data-cache demand misses.
    pub l1d_misses: u64,
    /// L2 demand accesses.
    pub l2_accesses: u64,
    /// L2 demand misses.
    pub l2_misses: u64,
    /// LLC demand accesses made on behalf of this core.
    pub llc_accesses: u64,
    /// LLC demand misses made on behalf of this core.
    pub llc_misses: u64,
    /// Demand requests serviced by main memory.
    pub memory_accesses: u64,
    /// Lines this core lost from an L1 to inclusion back-invalidation.
    pub inclusion_victims_l1: u64,
    /// Lines this core lost from its L2 to inclusion back-invalidation.
    pub inclusion_victims_l2: u64,
    /// Temporal locality hints this core sent to the LLC.
    pub tlh_hints: u64,
    /// L2 demand misses to lines this core had never touched (cold).
    pub misses_cold: u64,
    /// L2 demand misses to previously-seen lines that aged out of the
    /// core caches on their own (capacity/conflict).
    pub misses_capacity: u64,
    /// L2 demand misses to lines an inclusion back-invalidate (or ECI)
    /// forcibly removed from this core's caches — the paper's inclusion
    /// victims, observed at their point of cost.
    pub misses_inclusion_victim: u64,
}

impl PerCoreStats {
    /// Combined L1 demand accesses.
    pub fn l1_accesses(&self) -> u64 {
        self.l1i_accesses + self.l1d_accesses
    }

    /// Combined L1 demand misses.
    pub fn l1_misses(&self) -> u64 {
        self.l1i_misses + self.l1d_misses
    }

    /// Total inclusion victims suffered (L1 + L2).
    pub fn inclusion_victims(&self) -> u64 {
        self.inclusion_victims_l1 + self.inclusion_victims_l2
    }

    /// Per-field difference `self - earlier`, for freezing statistics at an
    /// instruction boundary.
    #[must_use]
    pub fn since(&self, earlier: &PerCoreStats) -> PerCoreStats {
        PerCoreStats {
            l1i_accesses: self.l1i_accesses - earlier.l1i_accesses,
            l1i_misses: self.l1i_misses - earlier.l1i_misses,
            l1d_accesses: self.l1d_accesses - earlier.l1d_accesses,
            l1d_misses: self.l1d_misses - earlier.l1d_misses,
            l2_accesses: self.l2_accesses - earlier.l2_accesses,
            l2_misses: self.l2_misses - earlier.l2_misses,
            llc_accesses: self.llc_accesses - earlier.llc_accesses,
            llc_misses: self.llc_misses - earlier.llc_misses,
            memory_accesses: self.memory_accesses - earlier.memory_accesses,
            inclusion_victims_l1: self.inclusion_victims_l1 - earlier.inclusion_victims_l1,
            inclusion_victims_l2: self.inclusion_victims_l2 - earlier.inclusion_victims_l2,
            tlh_hints: self.tlh_hints - earlier.tlh_hints,
            misses_cold: self.misses_cold - earlier.misses_cold,
            misses_capacity: self.misses_capacity - earlier.misses_capacity,
            misses_inclusion_victim: self.misses_inclusion_victim - earlier.misses_inclusion_victim,
        }
    }
}

/// Fraction of L2 demand misses the attribution hooks classified as
/// inclusion-victim misses, summed over `threads` (0 without L2 misses):
/// a run's inclusion-victim rate.
pub fn victim_rate<'a>(threads: impl IntoIterator<Item = &'a PerCoreStats>) -> f64 {
    let (victims, misses) = threads.into_iter().fold((0u64, 0u64), |(v, m), s| {
        (v + s.misses_inclusion_victim, m + s.l2_misses)
    });
    if misses == 0 {
        0.0
    } else {
        victims as f64 / misses as f64
    }
}

/// Whole-hierarchy message and event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GlobalStats {
    /// Lines evicted from the LLC.
    pub llc_evictions: u64,
    /// Dirty LLC evictions written back to memory.
    pub llc_writebacks: u64,
    /// Inclusion back-invalidate messages sent to core caches (one per
    /// core-and-line notified).
    pub back_invalidates: u64,
    /// Early-invalidate messages sent by ECI.
    pub eci_invalidates: u64,
    /// ECI'd lines later rescued by an LLC hit before eviction.
    pub eci_rescues: u64,
    /// QBS queries issued to the core caches.
    pub qbs_queries: u64,
    /// QBS candidates rejected (resident in a core cache and re-promoted).
    pub qbs_rejections: u64,
    /// LLC misses where QBS hit its query limit and evicted unconditionally.
    pub qbs_limit_hits: u64,
    /// Total temporal locality hints received by the LLC.
    pub tlh_hints: u64,
    /// Prefetch requests issued by the stream prefetchers.
    pub prefetches: u64,
    /// Victim-cache rescues (LLC misses satisfied from the victim cache).
    pub victim_cache_rescues: u64,
    /// Coherence snoop probes broadcast to other cores on LLC misses.
    /// Zero under inclusion — the inclusive LLC is a natural snoop filter
    /// (§I/§II); non-inclusive and exclusive hierarchies must check the
    /// other cores' caches on every LLC demand miss.
    pub snoop_probes: u64,
    /// Inclusion-victim misses caused by an ordinary LLC replacement
    /// decision (including a QBS-approved eviction).
    pub victim_misses_replacement: u64,
    /// Inclusion-victim misses caused by QBS hitting its query limit and
    /// evicting a line the core caches still held.
    pub victim_misses_qbs_limit: u64,
    /// Inclusion-victim misses caused by an ECI early invalidate.
    pub victim_misses_eci: u64,
    /// Inclusion-victim misses caused by a victim-cache displacement
    /// (line fell out of the victim cache while still core-resident).
    pub victim_misses_vc: u64,
}

impl GlobalStats {
    /// Per-field difference `self - earlier`.
    #[must_use]
    pub fn since(&self, earlier: &GlobalStats) -> GlobalStats {
        GlobalStats {
            llc_evictions: self.llc_evictions - earlier.llc_evictions,
            llc_writebacks: self.llc_writebacks - earlier.llc_writebacks,
            back_invalidates: self.back_invalidates - earlier.back_invalidates,
            eci_invalidates: self.eci_invalidates - earlier.eci_invalidates,
            eci_rescues: self.eci_rescues - earlier.eci_rescues,
            qbs_queries: self.qbs_queries - earlier.qbs_queries,
            qbs_rejections: self.qbs_rejections - earlier.qbs_rejections,
            qbs_limit_hits: self.qbs_limit_hits - earlier.qbs_limit_hits,
            tlh_hints: self.tlh_hints - earlier.tlh_hints,
            prefetches: self.prefetches - earlier.prefetches,
            victim_cache_rescues: self.victim_cache_rescues - earlier.victim_cache_rescues,
            snoop_probes: self.snoop_probes - earlier.snoop_probes,
            victim_misses_replacement: self.victim_misses_replacement
                - earlier.victim_misses_replacement,
            victim_misses_qbs_limit: self.victim_misses_qbs_limit - earlier.victim_misses_qbs_limit,
            victim_misses_eci: self.victim_misses_eci - earlier.victim_misses_eci,
            victim_misses_vc: self.victim_misses_vc - earlier.victim_misses_vc,
        }
    }

    /// Total inclusion-victim misses across all causes (should equal the
    /// sum of the per-core `misses_inclusion_victim` counters).
    pub fn victim_misses(&self) -> u64 {
        self.victim_misses_replacement
            + self.victim_misses_qbs_limit
            + self.victim_misses_eci
            + self.victim_misses_vc
    }
}

/// Hierarchy-wide counters for device (DDIO-style) LLC injection traffic.
///
/// Maintained by the hierarchy's I/O injection path and only present when
/// I/O agents are configured; all counters stay zero otherwise so reports
/// can gate the whole block on activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Device lines injected into the LLC (hit or fill).
    pub injections: u64,
    /// Injections that hit a line already LLC-resident.
    pub inject_hits: u64,
    /// Injections that allocated a new LLC line.
    pub inject_fills: u64,
    /// LLC evictions forced by injection fills.
    pub llc_evictions: u64,
    /// Back-invalidate messages those evictions sent to core caches.
    pub back_invalidates: u64,
    /// Dirty lines written back to memory on injection evictions.
    pub writebacks: u64,
    /// App demand misses attributed to an injection-caused kill — the
    /// `io_injection` victim class, the I/O share of
    /// `misses_inclusion_victim`.
    pub victim_misses_io: u64,
}

impl IoStats {
    /// Per-field difference `self - earlier`.
    #[must_use]
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            injections: self.injections - earlier.injections,
            inject_hits: self.inject_hits - earlier.inject_hits,
            inject_fills: self.inject_fills - earlier.inject_fills,
            llc_evictions: self.llc_evictions - earlier.llc_evictions,
            back_invalidates: self.back_invalidates - earlier.back_invalidates,
            writebacks: self.writebacks - earlier.writebacks,
            victim_misses_io: self.victim_misses_io - earlier.victim_misses_io,
        }
    }
}

/// Injection counters attributed to one I/O agent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoAgentStats {
    /// Lines this agent injected (hit or fill).
    pub injections: u64,
    /// Injections that hit an LLC-resident line (ring-buffer reuse).
    pub hits: u64,
    /// Injections that allocated a new LLC line.
    pub fills: u64,
    /// LLC evictions this agent's fills forced.
    pub evictions: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_core_aggregates() {
        let s = PerCoreStats {
            l1i_accesses: 10,
            l1i_misses: 1,
            l1d_accesses: 20,
            l1d_misses: 2,
            inclusion_victims_l1: 3,
            inclusion_victims_l2: 4,
            ..Default::default()
        };
        assert_eq!(s.l1_accesses(), 30);
        assert_eq!(s.l1_misses(), 3);
        assert_eq!(s.inclusion_victims(), 7);
    }

    #[test]
    fn since_subtracts_fieldwise() {
        let a = PerCoreStats {
            l1d_accesses: 100,
            llc_misses: 10,
            tlh_hints: 5,
            ..Default::default()
        };
        let b = PerCoreStats {
            l1d_accesses: 40,
            llc_misses: 4,
            tlh_hints: 5,
            ..Default::default()
        };
        let d = a.since(&b);
        assert_eq!(d.l1d_accesses, 60);
        assert_eq!(d.llc_misses, 6);
        assert_eq!(d.tlh_hints, 0);

        let g = GlobalStats {
            qbs_queries: 9,
            ..Default::default()
        };
        let d = g.since(&GlobalStats::default());
        assert_eq!(d.qbs_queries, 9);
    }
}
