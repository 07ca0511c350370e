//! The set-associative cache structure.

use crate::config::{CacheConfig, MAX_WAYS};
use crate::line::{CoreBitmap, LineState};
use crate::probe::{self, ProbeKernel, WayMask};
use crate::replacement::Replacer;
use tla_snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use tla_types::{CoreId, LineAddr};

/// A line displaced from a cache by a fill or an explicit eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Address of the displaced line.
    pub addr: LineAddr,
    /// Whether it was dirty (needs a write-back to the next level).
    pub dirty: bool,
    /// Directory bits the line carried (meaningful for the LLC).
    pub cores: CoreBitmap,
}

/// Hit/miss counters for one cache, split by demand vs. prefetch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand lookups (ifetch/load/store).
    pub demand_accesses: u64,
    /// Demand lookups that missed.
    pub demand_misses: u64,
    /// Prefetch lookups.
    pub prefetch_accesses: u64,
    /// Prefetch lookups that missed.
    pub prefetch_misses: u64,
    /// Lines filled.
    pub fills: u64,
    /// Valid lines displaced (by fills or invalidations).
    pub evictions: u64,
    /// Displaced lines that were dirty.
    pub writebacks: u64,
}

impl CacheStats {
    /// Demand hit count.
    pub fn demand_hits(&self) -> u64 {
        self.demand_accesses - self.demand_misses
    }
}

/// Up to this associativity `find` compares inline into one mask word
/// instead of calling the dispatched kernel: the L1s (4-way) and L2 (8-way)
/// probe sets too small for a call to pay off, while the LLC (16-way) and
/// the high-associativity victim experiments go through the SIMD kernel.
const INLINE_PROBE_WAYS: usize = 8;

/// A set-associative cache holding line metadata only (the simulator is
/// trace-driven; no data payloads are modelled).
///
/// Line metadata is stored struct-of-arrays: the single-bit fields (valid,
/// dirty, policy tag) live in a one-word [`WayMask`] bitmap per set —
/// bit `w` describes way `w` — while addresses, replacement words and
/// directory bits are flat per-way arrays. Presence scans (`find`,
/// [`SetAssocCache::probe`], the QBS residency queries) compare the dense
/// per-set address array against the needle — inline for sets of up to
/// `INLINE_PROBE_WAYS` ways, otherwise with the process-wide
/// [`probe::probe_kernel`] (AVX2 on capable x86-64, a 4-lane scalar kernel
/// elsewhere) — and mask by validity; clearing a way is one bit-and. The
/// layout caps associativity at [`MAX_WAYS`](crate::config::MAX_WAYS) =
/// 64, which [`CacheConfig`](crate::config::CacheConfig) enforces.
///
/// Replacement bookkeeping is delegated to a [`Replacer`]; the hierarchy
/// layer drives inclusion, back-invalidation and the TLA policies through
/// the explicit [`SetAssocCache::victim_order_into`] /
/// [`SetAssocCache::evict_way`] / [`SetAssocCache::fill_way`] API, while
/// simple uses go through [`SetAssocCache::touch`] and
/// [`SetAssocCache::fill`].
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    /// Cached `cfg.ways()` (hot-path stride).
    ways: usize,
    /// Line address per way slot (meaningful only when the valid bit is
    /// set); indexed `set * ways + way`.
    addrs: Vec<LineAddr>,
    /// Replacement-policy word per way slot.
    repl: Vec<u64>,
    /// Directory bits per way slot (LLC only).
    cores: Vec<CoreBitmap>,
    /// Valid bitmap, one mask per set.
    valid: Vec<WayMask>,
    /// Dirty bitmap, one mask per set.
    dirty: Vec<WayMask>,
    /// Policy-tag bitmap, one mask per set (ECI's early-invalidate mark).
    tag: Vec<WayMask>,
    /// Probe kernel selected once per process (see [`probe::probe_kernel`]).
    kernel: &'static ProbeKernel,
    /// Bits `0..ways` set — the mask of ways that exist.
    full_mask: WayMask,
    replacer: Replacer,
    /// Reusable way-index buffer so [`SetAssocCache::victim_order_into`]
    /// allocates nothing in steady state.
    way_scratch: Vec<usize>,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache with deterministic replacement seeded from the
    /// cache name.
    pub fn new(cfg: CacheConfig) -> Self {
        let seed = cfg.name().bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        });
        Self::with_seed(cfg, seed)
    }

    /// Creates an empty cache with an explicit replacement seed (only the
    /// Random policy consumes it).
    pub fn with_seed(cfg: CacheConfig, seed: u64) -> Self {
        let ways = cfg.ways();
        debug_assert!(
            ways <= MAX_WAYS,
            "{}: {ways} ways exceeds MAX_WAYS = {MAX_WAYS} (CacheConfig should have rejected this)",
            cfg.name()
        );
        let replacer = Replacer::new(cfg.policy(), cfg.sets(), ways, seed);
        let slots = cfg.sets() * ways;
        SetAssocCache {
            ways,
            addrs: vec![LineAddr::new(0); slots],
            repl: vec![0; slots],
            cores: vec![CoreBitmap::EMPTY; slots],
            valid: vec![WayMask::EMPTY; cfg.sets()],
            dirty: vec![WayMask::EMPTY; cfg.sets()],
            tag: vec![WayMask::EMPTY; cfg.sets()],
            kernel: probe::probe_kernel(),
            full_mask: WayMask::all(ways),
            replacer,
            way_scratch: Vec::with_capacity(ways),
            stats: CacheStats::default(),
            cfg,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated hit/miss counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the hit/miss counters (cache contents are kept). Used when
    /// freezing per-thread statistics after warm-up.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// The set index `line` maps to.
    #[inline]
    pub fn set_of(&self, line: LineAddr) -> usize {
        self.cfg.set_of(line)
    }

    /// The way holding `line`, if any.
    ///
    /// Narrow sets compare inline into one bitmask word; wider sets go
    /// through the probe kernel. Invalid slots may hold stale addresses, so
    /// ANDing with the set's valid mask is what makes a match real. Both
    /// paths return the lowest matching way.
    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        let set = self.set_of(line);
        let base = set * self.ways;
        let addrs = &self.addrs[base..base + self.ways];
        let hits = if self.ways <= INLINE_PROBE_WAYS {
            let mut hits = 0u64;
            for (w, &a) in addrs.iter().enumerate() {
                hits |= u64::from(a == line) << w;
            }
            WayMask::from_bits(hits)
        } else {
            (self.kernel.func)(addrs, line)
        };
        hits.and(self.valid[set]).first()
    }

    /// Checks for presence without touching replacement state or counters —
    /// the primitive a QBS query uses.
    #[inline]
    pub fn probe(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Looks `line` up as a demand access, updating replacement state and
    /// counters. Returns the hit way, so follow-up metadata updates on the
    /// line ([`SetAssocCache::add_sharer`] and friends) skip a second probe.
    #[inline]
    pub fn touch(&mut self, line: LineAddr) -> Option<usize> {
        self.lookup(line, true)
    }

    /// Looks `line` up as a prefetch access (counted separately). Returns
    /// the hit way.
    #[inline]
    pub fn touch_prefetch(&mut self, line: LineAddr) -> Option<usize> {
        self.lookup(line, false)
    }

    #[inline]
    fn lookup(&mut self, line: LineAddr, demand: bool) -> Option<usize> {
        let set = self.set_of(line);
        let hit_way = self.find(line);
        if demand {
            self.stats.demand_accesses += 1;
        } else {
            self.stats.prefetch_accesses += 1;
        }
        match hit_way {
            Some(way) => {
                let base = set * self.ways;
                self.replacer.on_hit(
                    set,
                    self.valid[set],
                    &mut self.repl[base..base + self.ways],
                    way,
                );
            }
            None => {
                if demand {
                    self.stats.demand_misses += 1;
                } else {
                    self.stats.prefetch_misses += 1;
                }
                self.replacer.on_miss(set);
            }
        }
        hit_way
    }

    /// Promotes `line` toward MRU if present (a TLH replacement-state
    /// update). Returns `true` if the line was present.
    #[inline]
    pub fn promote(&mut self, line: LineAddr) -> bool {
        let Some(way) = self.find(line) else {
            return false;
        };
        self.promote_way(self.set_of(line), way);
        true
    }

    /// Promotes the valid line in (`set`, `way`) toward MRU (a QBS
    /// rejection).
    #[inline]
    pub fn promote_way(&mut self, set: usize, way: usize) {
        debug_assert!(self.valid[set].contains(way), "promote of invalid way");
        let base = set * self.ways;
        self.replacer.promote(
            set,
            self.valid[set],
            &mut self.repl[base..base + self.ways],
            way,
        );
    }

    /// Marks `line` dirty if present. Returns `true` if the line was present.
    #[inline]
    pub fn mark_dirty(&mut self, line: LineAddr) -> bool {
        let Some(way) = self.find(line) else {
            return false;
        };
        self.mark_dirty_way(self.set_of(line), way);
        true
    }

    /// Marks the valid line in (`set`, `way`) dirty.
    #[inline]
    pub fn mark_dirty_way(&mut self, set: usize, way: usize) {
        debug_assert!(self.valid[set].contains(way), "mark_dirty of invalid way");
        self.dirty[set].set(way);
    }

    /// Fills `line` choosing the victim with the cache's own policy
    /// (invalid ways first). Returns the displaced line, if any.
    ///
    /// The hierarchy uses this for core caches; the LLC under TLA policies
    /// uses the explicit [`SetAssocCache::victim_order_into`] path instead.
    #[inline]
    pub fn fill(&mut self, line: LineAddr, dirty: bool) -> Option<Evicted> {
        self.fill_with_cores(line, dirty, CoreBitmap::EMPTY)
    }

    /// [`SetAssocCache::fill`] that also sets the LLC directory bits of the
    /// new line.
    #[inline]
    pub fn fill_with_cores(
        &mut self,
        line: LineAddr,
        dirty: bool,
        cores: CoreBitmap,
    ) -> Option<Evicted> {
        debug_assert!(
            self.find(line).is_none(),
            "fill of already-present line {line:?}"
        );
        let set = self.set_of(line);
        let way = match self.invalid_way(set) {
            Some(w) => w,
            None => {
                let base = set * self.ways;
                self.replacer
                    .victim(set, self.valid[set], &self.repl[base..base + self.ways])
                    .expect("full set must have a victim")
            }
        };
        let evicted = self.evict_way(set, way);
        self.fill_way(set, way, line, dirty, cores);
        evicted
    }

    /// First invalid way of `set`, if any.
    #[inline]
    pub fn invalid_way(&self, set: usize) -> Option<usize> {
        self.full_mask.and_not(self.valid[set]).first()
    }

    /// First invalid way of `set` within `allowed`, if any.
    ///
    /// The way-partitioned variant of [`SetAssocCache::invalid_way`]:
    /// DDIO-style injection limits constrain device fills to a subset of
    /// ways, and the partitioned app path avoids the device ways in turn.
    #[inline]
    pub fn invalid_way_in(&self, set: usize, allowed: WayMask) -> Option<usize> {
        self.full_mask.and(allowed).and_not(self.valid[set]).first()
    }

    /// Valid ways of `set` in eviction-priority order (element 0 = victim,
    /// element 1 = ECI's "next LRU line", ...), with their line addresses.
    ///
    /// Allocating convenience wrapper around
    /// [`SetAssocCache::victim_order_into`]; tests use it, the hierarchy's
    /// miss path reuses a scratch buffer instead.
    pub fn victim_order(&mut self, set: usize) -> Vec<(usize, LineAddr)> {
        let mut out = Vec::new();
        self.victim_order_into(set, &mut out);
        out
    }

    /// Writes the valid ways of `set` in eviction-priority order into `out`
    /// (cleared first). With a reused buffer the call is allocation-free in
    /// steady state.
    #[inline]
    pub fn victim_order_into(&mut self, set: usize, out: &mut Vec<(usize, LineAddr)>) {
        out.clear();
        let base = set * self.ways;
        let mut ways = std::mem::take(&mut self.way_scratch);
        self.replacer.order_into(
            set,
            self.valid[set],
            &self.repl[base..base + self.ways],
            &mut ways,
        );
        out.extend(ways.iter().map(|&w| (w, self.addrs[base + w])));
        self.way_scratch = ways;
    }

    /// [`SetAssocCache::victim_order_into`] restricted to the ways in
    /// `allowed`: the policy ranks only the permitted valid ways, so every
    /// candidate a partitioned caller walks (QBS, ECI next-target) stays
    /// inside its partition.
    #[inline]
    pub fn victim_order_in_into(
        &mut self,
        set: usize,
        allowed: WayMask,
        out: &mut Vec<(usize, LineAddr)>,
    ) {
        out.clear();
        let base = set * self.ways;
        let mut ways = std::mem::take(&mut self.way_scratch);
        self.replacer.order_into(
            set,
            self.valid[set].and(allowed),
            &self.repl[base..base + self.ways],
            &mut ways,
        );
        out.extend(ways.iter().map(|&w| (w, self.addrs[base + w])));
        self.way_scratch = ways;
    }

    /// The way the policy would evict next and its line address, without
    /// materializing the full order. Returns `None` if the set is empty.
    #[inline]
    pub fn victim_way(&mut self, set: usize) -> Option<(usize, LineAddr)> {
        let base = set * self.ways;
        let w = self
            .replacer
            .victim(set, self.valid[set], &self.repl[base..base + self.ways])?;
        Some((w, self.addrs[base + w]))
    }

    /// [`SetAssocCache::victim_way`] restricted to the ways in `allowed`.
    /// Returns `None` if no permitted way holds a valid line.
    #[inline]
    pub fn victim_way_in(&mut self, set: usize, allowed: WayMask) -> Option<(usize, LineAddr)> {
        let base = set * self.ways;
        let w = self.replacer.victim(
            set,
            self.valid[set].and(allowed),
            &self.repl[base..base + self.ways],
        )?;
        Some((w, self.addrs[base + w]))
    }

    /// Evicts the line in (`set`, `way`) if valid, returning it. Updates
    /// eviction/writeback counters and lets the policy age the set.
    #[inline]
    pub fn evict_way(&mut self, set: usize, way: usize) -> Option<Evicted> {
        if !self.valid[set].contains(way) {
            return None;
        }
        let base = set * self.ways;
        self.replacer.on_evict(
            set,
            self.valid[set],
            &mut self.repl[base..base + self.ways],
            way,
        );
        let idx = base + way;
        let dirty = self.dirty[set].contains(way);
        let ev = Evicted {
            addr: self.addrs[idx],
            dirty,
            cores: self.cores[idx],
        };
        self.valid[set].clear(way);
        self.dirty[set].clear(way);
        self.tag[set].clear(way);
        self.repl[idx] = 0;
        self.cores[idx] = CoreBitmap::EMPTY;
        self.stats.evictions += 1;
        if dirty {
            self.stats.writebacks += 1;
        }
        Some(ev)
    }

    /// Fills `line` into an explicit (`set`, `way`) slot, which must be
    /// invalid (evict first).
    ///
    /// # Panics
    ///
    /// Panics (debug) if the slot is still valid or the line maps elsewhere.
    #[inline]
    pub fn fill_way(
        &mut self,
        set: usize,
        way: usize,
        line: LineAddr,
        dirty: bool,
        cores: CoreBitmap,
    ) {
        debug_assert_eq!(self.set_of(line), set, "line filled into wrong set");
        debug_assert!(!self.valid[set].contains(way), "fill into occupied way");
        let base = set * self.ways;
        let idx = base + way;
        self.addrs[idx] = line;
        self.repl[idx] = 0;
        self.cores[idx] = cores;
        self.valid[set].set(way);
        if dirty {
            self.dirty[set].set(way);
        } else {
            self.dirty[set].clear(way);
        }
        self.tag[set].clear(way);
        self.stats.fills += 1;
        self.replacer.on_fill(
            set,
            self.valid[set],
            &mut self.repl[base..base + self.ways],
            way,
        );
    }

    /// Invalidates `line` if present, returning its state (dirtiness matters
    /// to the caller: back-invalidated dirty lines must be written back).
    #[inline]
    pub fn invalidate(&mut self, line: LineAddr) -> Option<Evicted> {
        let set = self.set_of(line);
        let way = self.find(line)?;
        self.evict_way(set, way)
    }

    /// Sets the policy tag bit of the valid line in (`set`, `way`) (ECI's
    /// early-invalidate mark).
    #[inline]
    pub fn set_tag(&mut self, set: usize, way: usize) {
        debug_assert!(self.valid[set].contains(way), "set_tag of invalid way");
        self.tag[set].set(way);
    }

    /// Reads and clears the policy tag bit of the valid line in (`set`,
    /// `way`), returning its previous value.
    #[inline]
    pub fn take_tag(&mut self, set: usize, way: usize) -> bool {
        debug_assert!(self.valid[set].contains(way), "take_tag of invalid way");
        let old = self.tag[set].contains(way);
        self.tag[set].clear(way);
        old
    }

    /// Adds `core` to the directory bits of the valid line in (`set`,
    /// `way`) (LLC bookkeeping).
    #[inline]
    pub fn add_sharer(&mut self, set: usize, way: usize, core: CoreId) {
        debug_assert!(self.valid[set].contains(way), "add_sharer of invalid way");
        self.cores[set * self.ways + way].insert(core);
    }

    /// Clears the directory bits of the valid line in (`set`, `way`) (after
    /// the cores were invalidated, e.g. by an ECI message).
    #[inline]
    pub fn clear_sharers(&mut self, set: usize, way: usize) {
        debug_assert!(
            self.valid[set].contains(way),
            "clear_sharers of invalid way"
        );
        self.cores[set * self.ways + way] = CoreBitmap::EMPTY;
    }

    /// Directory bits of the valid line in (`set`, `way`).
    #[inline]
    pub fn sharers(&self, set: usize, way: usize) -> CoreBitmap {
        debug_assert!(self.valid[set].contains(way), "sharers of invalid way");
        self.cores[set * self.ways + way]
    }

    /// Every core named by any slot's directory bits (invalid slots hold
    /// none). A decoder checks it against the core count.
    pub fn directory_union(&self) -> CoreBitmap {
        CoreBitmap::from_raw(self.cores.iter().fold(0, |acc, c| acc | c.to_raw()))
    }

    /// Number of valid lines currently held (O(sets); for tests and
    /// reports, not the hot path).
    pub fn occupancy(&self) -> usize {
        self.valid.iter().map(|m| m.count()).sum()
    }

    /// Name of the probe kernel this cache scans with (for reports).
    pub fn probe_kernel_name(&self) -> &'static str {
        self.kernel.name
    }

    /// Iterates over all valid lines (for invariant checks in tests),
    /// assembling a by-value [`LineState`] view per line.
    pub fn iter_valid(&self) -> impl Iterator<Item = LineState> + '_ {
        self.valid.iter().enumerate().flat_map(move |(set, v)| {
            let base = set * self.ways;
            v.iter().map(move |w| LineState {
                addr: self.addrs[base + w],
                valid: true,
                dirty: self.dirty[set].contains(w),
                cores: self.cores[base + w],
                tag: self.tag[set].contains(w),
                repl: self.repl[base + w],
            })
        })
    }
}

impl Snapshot for CacheStats {
    fn write_state(&self, w: &mut SnapshotWriter) {
        w.write_u64(self.demand_accesses);
        w.write_u64(self.demand_misses);
        w.write_u64(self.prefetch_accesses);
        w.write_u64(self.prefetch_misses);
        w.write_u64(self.fills);
        w.write_u64(self.evictions);
        w.write_u64(self.writebacks);
    }

    fn read_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        self.demand_accesses = r.read_u64()?;
        self.demand_misses = r.read_u64()?;
        self.prefetch_accesses = r.read_u64()?;
        self.prefetch_misses = r.read_u64()?;
        self.fills = r.read_u64()?;
        self.evictions = r.read_u64()?;
        self.writebacks = r.read_u64()?;
        Ok(())
    }
}

/// Serializes per-set [`WayMask`]es as a length-prefixed `u64` slice, one
/// word per set — the layout every TLAS version has used for caches of up
/// to 64 ways.
fn write_mask_slice(w: &mut SnapshotWriter, masks: &[WayMask]) {
    w.write_u64(masks.len() as u64);
    for m in masks {
        w.write_u64(m.bits());
    }
}

/// Decodes [`write_mask_slice`]'s output into `masks`, rejecting a word
/// count other than one per set and any bit at or past `full` (a way the
/// set does not have, which every per-way array would index out of range).
fn read_mask_slice(
    r: &mut SnapshotReader,
    masks: &mut [WayMask],
    full: WayMask,
    name: &str,
    what: &str,
) -> Result<(), SnapshotError> {
    let n = r.read_usize()?;
    if n != masks.len() {
        return Err(SnapshotError::Mismatch(format!(
            "{name} {what}: snapshot has {n} words, this geometry has {}",
            masks.len()
        )));
    }
    for (set, m) in masks.iter_mut().enumerate() {
        *m = WayMask::from_bits(r.read_u64()?);
        if !m.and_not(full).is_empty() {
            return Err(SnapshotError::Corrupt(format!(
                "{name} {what}: set {set} marks ways past the {} it has",
                full.count()
            )));
        }
    }
    Ok(())
}

impl Snapshot for SetAssocCache {
    // Geometry (sets, ways, the config, the scratch buffer, the probe
    // kernel) is rebuilt from the run configuration; only line metadata,
    // replacement state and counters travel. All slice lengths are verified
    // against the receiving geometry so a snapshot from a different cache
    // shape is rejected. Bitmaps serialize one word per set.
    fn write_state(&self, w: &mut SnapshotWriter) {
        w.write_u64(self.addrs.len() as u64);
        for a in &self.addrs {
            w.write_u64(a.raw());
        }
        w.write_u64_slice(&self.repl);
        w.write_u64(self.cores.len() as u64);
        for c in &self.cores {
            w.write_u64(c.to_raw());
        }
        write_mask_slice(w, &self.valid);
        write_mask_slice(w, &self.dirty);
        write_mask_slice(w, &self.tag);
        self.replacer.write_state(w);
        self.stats.write_state(w);
    }

    fn read_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        let name = self.cfg.name().to_string();
        let check = |n: usize, have: usize, what: &str| {
            if n != have {
                Err(SnapshotError::Mismatch(format!(
                    "{name} {what}: snapshot has {n} entries, this geometry has {have}"
                )))
            } else {
                Ok(())
            }
        };
        let n = r.read_usize()?;
        check(n, self.addrs.len(), "line addresses")?;
        for a in &mut self.addrs {
            *a = LineAddr::new(r.read_u64()?);
        }
        r.read_u64_slice_into(&mut self.repl, "replacement words")?;
        let n = r.read_usize()?;
        check(n, self.cores.len(), "directory bits")?;
        for c in &mut self.cores {
            *c = CoreBitmap::from_raw(r.read_u64()?);
        }
        let full = self.full_mask;
        read_mask_slice(r, &mut self.valid, full, &name, "valid bitmaps")?;
        // Lookups scan only the set a line maps to and stop at its first
        // valid copy, so a line filed in another set, or valid twice in
        // one, would silently run a different cache.
        for (set, &valid) in self.valid.iter().enumerate() {
            for way in valid.iter() {
                let line = self.addrs[set * self.ways + way];
                if self.set_of(line) != set {
                    return Err(SnapshotError::Corrupt(format!(
                        "{name} set {set} way {way}: line {:#x} maps to set {}",
                        line.raw(),
                        self.set_of(line)
                    )));
                }
                if let Some(first) = self.find(line).filter(|&first| first != way) {
                    return Err(SnapshotError::Corrupt(format!(
                        "{name} set {set}: line {:#x} is valid in ways {first} and {way}",
                        line.raw()
                    )));
                }
            }
        }
        read_mask_slice(r, &mut self.dirty, full, &name, "dirty bitmaps")?;
        read_mask_slice(r, &mut self.tag, full, &name, "tag bitmaps")?;
        self.replacer.read_state(r)?;
        // The `repl` words are the serialized replacement state; rebuild
        // what the replacer derives from them.
        for (set, &valid) in self.valid.iter().enumerate() {
            let base = set * self.ways;
            self.replacer
                .sync_set(set, valid, &self.repl[base..base + self.ways]);
        }
        self.stats.read_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::Policy;

    fn small(policy: Policy, sets: usize, ways: usize) -> SetAssocCache {
        SetAssocCache::new(CacheConfig::with_sets("t", sets, ways, policy).unwrap())
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small(Policy::Lru, 4, 2);
        let l = LineAddr::new(5);
        assert_eq!(c.touch(l), None);
        c.fill(l, false);
        assert_eq!(c.touch(l), Some(0));
        assert_eq!(c.stats().demand_accesses, 2);
        assert_eq!(c.stats().demand_misses, 1);
        assert_eq!(c.stats().demand_hits(), 1);
    }

    #[test]
    fn fill_evicts_lru_line() {
        let mut c = small(Policy::Lru, 1, 2);
        c.fill(LineAddr::new(0), false);
        c.fill(LineAddr::new(1), false);
        c.touch(LineAddr::new(0)); // 1 is now LRU
        let ev = c.fill(LineAddr::new(2), false).unwrap();
        assert_eq!(ev.addr, LineAddr::new(1));
        assert!(!ev.dirty);
        assert!(c.probe(LineAddr::new(0)));
        assert!(c.probe(LineAddr::new(2)));
        assert!(!c.probe(LineAddr::new(1)));
    }

    #[test]
    fn dirty_line_reports_writeback() {
        let mut c = small(Policy::Lru, 1, 1);
        c.fill(LineAddr::new(0), true);
        let ev = c.fill(LineAddr::new(1), false).unwrap();
        assert!(ev.dirty);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn mark_dirty_after_fill() {
        let mut c = small(Policy::Lru, 1, 1);
        c.fill(LineAddr::new(0), false);
        assert!(c.mark_dirty(LineAddr::new(0)));
        assert!(!c.mark_dirty(LineAddr::new(9)));
        let ev = c.fill(LineAddr::new(1), false).unwrap();
        assert!(ev.dirty);
        // The way-resolved form marks the slot a lookup returned.
        let way = c.touch(LineAddr::new(1)).unwrap();
        c.mark_dirty_way(0, way);
        assert!(c.fill(LineAddr::new(2), false).unwrap().dirty);
    }

    #[test]
    fn probe_does_not_count_or_touch() {
        let mut c = small(Policy::Lru, 1, 2);
        c.fill(LineAddr::new(0), false);
        c.fill(LineAddr::new(1), false);
        // Probing 0 must not protect it.
        assert!(c.probe(LineAddr::new(0)));
        assert_eq!(c.stats().demand_accesses, 0);
        let ev = c.fill(LineAddr::new(2), false).unwrap();
        assert_eq!(ev.addr, LineAddr::new(0));
    }

    #[test]
    fn promote_protects_line() {
        let mut c = small(Policy::Lru, 1, 2);
        c.fill(LineAddr::new(0), false);
        c.fill(LineAddr::new(1), false);
        assert!(c.promote(LineAddr::new(0)));
        let ev = c.fill(LineAddr::new(2), false).unwrap();
        assert_eq!(ev.addr, LineAddr::new(1));
        assert!(!c.promote(LineAddr::new(42)));
        // 0 is now LRU; promoting its way protects it again.
        let way = c.victim_order(0)[0].0;
        c.promote_way(0, way);
        let ev = c.fill(LineAddr::new(4), false).unwrap();
        assert_eq!(ev.addr, LineAddr::new(2));
    }

    #[test]
    fn victim_order_matches_policy() {
        let mut c = small(Policy::Lru, 1, 4);
        for i in 0..4 {
            c.fill(LineAddr::new(i), false);
        }
        c.touch(LineAddr::new(0));
        let order = c.victim_order(0);
        let addrs: Vec<u64> = order.iter().map(|(_, a)| a.raw()).collect();
        assert_eq!(addrs, vec![1, 2, 3, 0]);
    }

    #[test]
    fn victim_order_into_reuses_buffer() {
        let mut c = small(Policy::Lru, 1, 4);
        for i in 0..4 {
            c.fill(LineAddr::new(i), false);
        }
        let mut buf = Vec::with_capacity(4);
        c.victim_order_into(0, &mut buf);
        let first: Vec<u64> = buf.iter().map(|(_, a)| a.raw()).collect();
        c.touch(LineAddr::new(0));
        c.victim_order_into(0, &mut buf);
        let second: Vec<u64> = buf.iter().map(|(_, a)| a.raw()).collect();
        assert_eq!(first, vec![0, 1, 2, 3]);
        assert_eq!(second, vec![1, 2, 3, 0]);
        assert!(buf.capacity() >= 4, "buffer survives across calls");
    }

    #[test]
    fn victim_way_matches_order_head() {
        let mut c = small(Policy::Nru, 1, 4);
        for i in 0..4 {
            c.fill(LineAddr::new(i), false);
        }
        c.touch(LineAddr::new(2));
        let order = c.victim_order(0);
        assert_eq!(c.victim_way(0), order.first().copied());
        // Empty set has no victim.
        let mut e = small(Policy::Nru, 1, 2);
        assert_eq!(e.victim_way(0), None);
    }

    #[test]
    fn explicit_evict_fill_roundtrip() {
        let mut c = small(Policy::Nru, 1, 2);
        c.fill(LineAddr::new(0), false);
        c.fill(LineAddr::new(1), true);
        let set = c.set_of(LineAddr::new(1));
        let order = c.victim_order(set);
        let (way, addr) = order[0];
        let ev = c.evict_way(set, way).unwrap();
        assert_eq!(ev.addr, addr);
        c.fill_way(set, way, LineAddr::new(3), false, CoreBitmap::EMPTY);
        assert!(c.probe(LineAddr::new(3)));
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn invalidate_returns_state() {
        let mut c = small(Policy::Lru, 2, 2);
        c.fill(LineAddr::new(4), true);
        let ev = c.invalidate(LineAddr::new(4)).unwrap();
        assert!(ev.dirty);
        assert!(c.invalidate(LineAddr::new(4)).is_none());
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn sharer_tracking() {
        let mut c = small(Policy::Nru, 1, 2);
        let l = LineAddr::new(0);
        c.fill_with_cores(l, false, CoreBitmap::single(CoreId::new(0)));
        let way = c.touch(l).unwrap();
        c.add_sharer(0, way, CoreId::new(1));
        let s = c.sharers(0, way);
        assert!(s.contains(CoreId::new(0)) && s.contains(CoreId::new(1)));
        assert_eq!(s.len(), 2);
        // Eviction carries the bits out.
        c.fill(LineAddr::new(2), false);
        let ev = c.fill(LineAddr::new(4), false).unwrap();
        assert!(!ev.cores.is_empty() || ev.addr != l || c.probe(l));
    }

    #[test]
    fn tag_bit_set_and_take() {
        let mut c = small(Policy::Lru, 1, 2);
        let l = LineAddr::new(0);
        c.fill(l, false);
        let way = c.touch(l).unwrap();
        assert!(!c.take_tag(0, way), "a fill starts untagged");
        c.set_tag(0, way);
        assert!(c.take_tag(0, way));
        assert!(!c.take_tag(0, way), "take clears the bit");
    }

    #[test]
    fn tag_bit_cleared_by_refill() {
        let mut c = small(Policy::Lru, 1, 1);
        c.fill(LineAddr::new(0), false);
        c.set_tag(0, 0);
        c.fill(LineAddr::new(1), false); // evicts 0
        c.fill(LineAddr::new(0), false); // wait: set full; evicts 1
        assert!(!c.take_tag(0, 0));
    }

    #[test]
    fn clear_sharers_empties_directory() {
        let mut c = small(Policy::Nru, 1, 2);
        let l = LineAddr::new(0);
        c.fill_with_cores(l, false, CoreBitmap::single(CoreId::new(3)));
        let way = c.touch(l).unwrap();
        assert!(!c.sharers(0, way).is_empty());
        c.clear_sharers(0, way);
        assert!(c.sharers(0, way).is_empty());
    }

    #[test]
    fn prefetch_counted_separately() {
        let mut c = small(Policy::Lru, 1, 2);
        assert_eq!(c.touch_prefetch(LineAddr::new(0)), None);
        c.fill(LineAddr::new(0), false);
        assert_eq!(c.touch_prefetch(LineAddr::new(0)), Some(0));
        assert_eq!(c.stats().prefetch_accesses, 2);
        assert_eq!(c.stats().prefetch_misses, 1);
        assert_eq!(c.stats().demand_accesses, 0);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = small(Policy::Lru, 1, 2);
        c.fill(LineAddr::new(0), false);
        c.touch(LineAddr::new(0));
        c.reset_stats();
        assert_eq!(c.stats().demand_accesses, 0);
        assert!(c.probe(LineAddr::new(0)));
    }

    #[test]
    fn lines_map_to_correct_sets() {
        let mut c = small(Policy::Lru, 4, 2);
        for i in 0..8u64 {
            c.fill(LineAddr::new(i), false);
        }
        assert_eq!(c.occupancy(), 8);
        for l in c.iter_valid() {
            assert_eq!(c.set_of(l.addr), (l.addr.raw() % 4) as usize);
        }
    }

    #[test]
    fn sixty_four_way_set_works() {
        // The single-word edge case: a full 64-way set (way 63's bit is the
        // top bit of the mask's first word).
        let mut c = small(Policy::Lru, 1, 64);
        for i in 0..64u64 {
            c.fill(LineAddr::new(i), false);
        }
        assert_eq!(c.occupancy(), 64);
        assert_eq!(c.invalid_way(0), None);
        assert!(c.probe(LineAddr::new(63)));
        let ev = c.fill(LineAddr::new(64), false).unwrap();
        assert_eq!(ev.addr, LineAddr::new(0));
        assert!(c.probe(LineAddr::new(64)));
    }

    #[test]
    fn narrow_snapshot_matches_single_word_layout() {
        // The bitmap encoding is one word per set, the layout of every
        // TLAS image: check the valid bitmap words appear verbatim
        // (single-word stride) in the byte stream.
        let mut c = small(Policy::Lru, 2, 4);
        for i in 0..6u64 {
            c.fill(LineAddr::new(i), false);
        }
        let mut w = SnapshotWriter::new();
        c.write_state(&mut w);
        let bytes = w.finish();
        // Expected prefix of the valid-bitmap block: len = 2 (sets * 1
        // word), then the two packed words. Set 0 holds lines 0,2,4 (ways
        // 0..3 partially filled): its exact pattern comes from occupancy.
        let sets_words: Vec<u8> = 2u64
            .to_le_bytes()
            .iter()
            .copied()
            .chain(c.valid.iter().flat_map(|m| m.bits().to_le_bytes().to_vec()))
            .collect();
        let found = bytes
            .windows(sets_words.len())
            .any(|win| win == &sets_words[..]);
        assert!(found, "single-word bitmap layout not found in stream");
    }

    #[test]
    fn snapshot_rejects_bits_past_the_last_way() {
        // A 4-way cache's bitmaps may only use bits 0..4; a decoded bit 4
        // names a way whose per-way slots belong to the next set.
        let mut c = small(Policy::Nru, 2, 4);
        c.fill(LineAddr::new(0), true);
        let mut w = SnapshotWriter::new();
        c.write_state(&mut w);
        let bytes = w.finish();
        // The valid block: its length (2 sets), then set 0's word (way 0).
        let block: Vec<u8> = [2u64, 1, 0].iter().flat_map(|v| v.to_le_bytes()).collect();
        let at = bytes
            .windows(block.len())
            .position(|win| win == block)
            .unwrap()
            + 8;
        for bit in [4, 63] {
            let mut bad = bytes.clone();
            bad[at + bit / 8] |= 1 << (bit % 8);
            let body = bad.len() - 8;
            let sum = bad[..body].iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            });
            bad[body..].copy_from_slice(&sum.to_le_bytes());
            let mut fresh = small(Policy::Nru, 2, 4);
            let err = fresh
                .read_state(&mut SnapshotReader::new(&bad).unwrap())
                .unwrap_err();
            assert!(err.to_string().contains("past the 4"), "bit {bit}: {err}");
        }
    }

    #[test]
    fn snapshot_rejects_misfiled_and_duplicated_lines() {
        // Two sets of two ways: lines 0 and 2 fill set 0. Each edit
        // leaves a well-formed image of a state no fill sequence makes.
        let resume = |edit: fn(&mut SetAssocCache)| {
            let mut c = small(Policy::Lru, 2, 2);
            c.fill(LineAddr::new(0), false);
            c.fill(LineAddr::new(2), false);
            edit(&mut c);
            let mut w = SnapshotWriter::new();
            c.write_state(&mut w);
            let bytes = w.finish();
            let mut fresh = small(Policy::Lru, 2, 2);
            fresh.read_state(&mut SnapshotReader::new(&bytes).unwrap())
        };
        assert!(resume(|_| {}).is_ok());
        // Line 1 maps to set 1.
        let misfiled = resume(|c| c.addrs[0] = LineAddr::new(1));
        assert!(
            matches!(misfiled, Err(SnapshotError::Corrupt(_))),
            "{misfiled:?}"
        );
        // Line 0 in both ways of set 0.
        let duplicated = resume(|c| c.addrs[1] = LineAddr::new(0));
        assert!(
            matches!(duplicated, Err(SnapshotError::Corrupt(_))),
            "{duplicated:?}"
        );
    }

    #[test]
    fn probe_kernel_name_is_reported() {
        let c = small(Policy::Lru, 1, 2);
        assert_eq!(c.probe_kernel_name(), crate::probe::kernel_name());
    }
}

#[cfg(test)]
mod nru_differential {
    //! NRU's per-set candidate masks against the per-way scan they replaced.
    //! A shadow model keeps its own valid masks and `repl` words under the
    //! scan code; every victim, order, hit and word must agree with it.
    use super::*;
    use crate::replacement::Policy;
    use tla_rng::SmallRng;

    /// The per-way NRU reference-bit update. Returns whether the set ran
    /// out of candidates and was refilled.
    fn scan_touch(valid: WayMask, repl: &mut [u64], way: usize) -> bool {
        repl[way] = 0;
        if valid.iter().all(|w| repl[w] == 0) {
            for w in valid.iter() {
                if w != way {
                    repl[w] = 1;
                }
            }
            return true;
        }
        false
    }

    /// The per-way NRU victim scan.
    fn scan_victim(valid: WayMask, repl: &[u64]) -> Option<usize> {
        let mut first = None;
        for w in valid.iter() {
            if repl[w] != 0 {
                return Some(w);
            }
            if first.is_none() {
                first = Some(w);
            }
        }
        first
    }

    /// The per-way NRU order: candidates first, each group in way order.
    fn scan_order(valid: WayMask, repl: &[u64]) -> Vec<usize> {
        let mut out: Vec<usize> = valid.iter().filter(|&w| repl[w] != 0).collect();
        out.extend(valid.iter().filter(|&w| repl[w] == 0));
        out
    }

    /// Line metadata and NRU words maintained by the scan code alone.
    struct Shadow {
        ways: usize,
        valid: Vec<WayMask>,
        repl: Vec<u64>,
        addrs: Vec<Option<LineAddr>>,
        refills: u64,
    }

    impl Shadow {
        fn new(sets: usize, ways: usize) -> Self {
            Shadow {
                ways,
                valid: vec![WayMask::EMPTY; sets],
                repl: vec![0; sets * ways],
                addrs: vec![None; sets * ways],
                refills: 0,
            }
        }

        fn slots(&self, set: usize) -> std::ops::Range<usize> {
            set * self.ways..(set + 1) * self.ways
        }

        fn find(&self, set: usize, line: LineAddr) -> Option<usize> {
            self.addrs[self.slots(set)]
                .iter()
                .position(|&a| a == Some(line))
        }

        fn touch(&mut self, set: usize, way: usize) {
            let slots = self.slots(set);
            self.refills += u64::from(scan_touch(self.valid[set], &mut self.repl[slots], way));
        }

        fn fill(&mut self, set: usize, way: usize, line: LineAddr) {
            let i = set * self.ways + way;
            self.addrs[i] = Some(line);
            self.repl[i] = 0;
            self.valid[set].set(way);
            self.touch(set, way);
        }

        fn evict(&mut self, set: usize, way: usize) -> Option<LineAddr> {
            if !self.valid[set].contains(way) {
                return None;
            }
            let i = set * self.ways + way;
            self.valid[set].clear(way);
            self.repl[i] = 0;
            self.addrs[i].take()
        }

        fn victim(&self, set: usize, allowed: WayMask) -> Option<(usize, LineAddr)> {
            let w = scan_victim(self.valid[set].and(allowed), &self.repl[self.slots(set)])?;
            Some((w, self.addrs[set * self.ways + w].unwrap()))
        }

        fn order(&self, set: usize, allowed: WayMask) -> Vec<(usize, LineAddr)> {
            scan_order(self.valid[set].and(allowed), &self.repl[self.slots(set)])
                .into_iter()
                .map(|w| (w, self.addrs[set * self.ways + w].unwrap()))
                .collect()
        }
    }

    /// A uniformly random subset of the ways `0..ways`.
    fn random_mask(rng: &mut SmallRng, ways: usize) -> WayMask {
        let mut m = WayMask::EMPTY;
        for w in 0..ways {
            if rng.gen_range(0..2u32) == 1 {
                m.set(w);
            }
        }
        m
    }

    /// Round-trips `cache` through its checkpoint bytes into a fresh cache.
    fn round_trip(cache: &SetAssocCache) -> SetAssocCache {
        let mut w = SnapshotWriter::new();
        cache.write_state(&mut w);
        let bytes = w.finish();
        let mut fresh = SetAssocCache::new(cache.config().clone());
        fresh
            .read_state(&mut SnapshotReader::new(&bytes).unwrap())
            .unwrap();
        let mut again = SnapshotWriter::new();
        fresh.write_state(&mut again);
        assert_eq!(again.finish(), bytes, "restored cache re-serializes");
        fresh
    }

    #[test]
    fn candidate_masks_match_the_per_way_scan() {
        const SETS: usize = 2;
        for ways in [1usize, 2, 6, 7, 8, 16, 63, 64] {
            for seed in 0..3u64 {
                let cfg = CacheConfig::with_sets("nru", SETS, ways, Policy::Nru).unwrap();
                let mut cache = SetAssocCache::new(cfg);
                let mut shadow = Shadow::new(SETS, ways);
                let mut rng = SmallRng::seed_from_u64(seed << 16 | ways as u64);
                // A line pool half again the associativity keeps sets
                // mostly full, so touches often exhaust the candidates.
                let pool = ways + ways / 2 + 1;
                let steps = 40 * ways + 400;
                let mut out = Vec::new();
                for step in 0..steps {
                    if step == steps / 2 {
                        cache = round_trip(&cache);
                    }
                    let set = rng.gen_range(0..SETS);
                    let line = LineAddr::new((rng.gen_range(0..pool) * SETS + set) as u64);
                    let ctx = format!("{ways} ways, seed {seed}, step {step}");
                    match rng.gen_range(0..10u32) {
                        0..=2 => {
                            let invalid = WayMask::all(ways).and_not(shadow.valid[set]);
                            if shadow.find(set, line).is_none() && !invalid.is_empty() {
                                let k = rng.gen_range(0..invalid.count());
                                let way = invalid.iter().nth(k).unwrap();
                                let dirty = rng.gen_range(0..2u32) == 1;
                                cache.fill_way(set, way, line, dirty, CoreBitmap::EMPTY);
                                shadow.fill(set, way, line);
                            }
                        }
                        op @ (3 | 4) => {
                            let way = shadow.find(set, line);
                            if op == 3 {
                                assert_eq!(cache.touch(line), way, "{ctx}");
                            } else {
                                assert_eq!(cache.promote(line), way.is_some(), "{ctx}");
                            }
                            if let Some(way) = way {
                                shadow.touch(set, way);
                            }
                        }
                        5 => {
                            let way = rng.gen_range(0..ways);
                            let ev = cache.evict_way(set, way).map(|e| e.addr);
                            assert_eq!(ev, shadow.evict(set, way), "{ctx}");
                        }
                        6 => {
                            let ev = cache.invalidate(line).map(|e| e.addr);
                            let want = shadow.find(set, line).and_then(|w| shadow.evict(set, w));
                            assert_eq!(ev, want, "{ctx}");
                        }
                        7 => {
                            let all = WayMask::all(ways);
                            assert_eq!(cache.victim_way(set), shadow.victim(set, all), "{ctx}");
                            let allowed = random_mask(&mut rng, ways);
                            assert_eq!(
                                cache.victim_way_in(set, allowed),
                                shadow.victim(set, allowed),
                                "{ctx}"
                            );
                        }
                        _ => {
                            cache.victim_order_into(set, &mut out);
                            assert_eq!(out, shadow.order(set, WayMask::all(ways)), "{ctx}");
                            let allowed = random_mask(&mut rng, ways);
                            cache.victim_order_in_into(set, allowed, &mut out);
                            assert_eq!(out, shadow.order(set, allowed), "{ctx}");
                        }
                    }
                    assert_eq!(cache.valid, shadow.valid, "{ctx}");
                    assert_eq!(cache.repl, shadow.repl, "{ctx}");
                }
                assert!(shadow.refills > 0, "{ways} ways, seed {seed}: no refill");
            }
        }
    }
}
