//! Offline Belady MIN oracle: per-configuration optimal LLC hit counts.
//!
//! The TLA policies close part of the gap between inclusive and
//! non-inclusive hierarchies; this module measures how much room is left
//! above *any* replacement policy. [`belady`] replays a finite reference
//! stream against an idealized set-associative cache with future
//! knowledge (Belady's MIN: on a miss, evict the resident line whose
//! next use lies farthest in the future) and reports the optimal hit and
//! miss counts. `gap_to_opt` in reports is then
//! `(measured_misses - opt_misses) / opt_misses`.
//!
//! The oracle is demand-fetch MIN, not OPT-with-bypass: every referenced
//! line is installed, exactly like the simulated LLC. It sees the
//! [`mix_reference_stream`] — the interleaved L1-access stream with
//! consecutive instruction fetches to the same line deduplicated — so
//! its bound is "one shared cache of LLC geometry with perfect
//! replacement serving every reference". The real hierarchy filters
//! most references through the core caches and interleaves cores by
//! cycle rather than round-robin, so the bound is an approximation:
//! tight enough to rank policies against, not a per-access replay.
//!
//! There is one MIN implementation, `NextUseLists`, and it never
//! stores the stream. A forward pass files each reference into its set's
//! next-use list as one `u16` slot; a paged line table patches the
//! previous occurrence's slot with the distance to the new reference. The
//! per-set replay turns each slot back into the set-local index of the
//! next use and then needs no addresses at all, because a resident line's
//! key *is* that index: reference `k` hits exactly when some way's key
//! equals `k`.
//!
//! A reference to the line its set saw last (a *run*: consecutive
//! fetches and data accesses often stay on one line) is counted and not
//! filed. Nothing else touched the set since that line was installed, so
//! the repeat hits under MIN and under every demand-fetch policy, and MIN
//! makes no eviction decision between the two references. Dropping it
//! only renumbers the later references of its set, in order: every key
//! comparison, every [`NEVER`] tie and so every count stays the same. A
//! measured repeat adds one access and one hit; a warm-up repeat adds
//! nothing.
//!
//! A slot is the distance `k_next - k` within the set, 0 for "never
//! again". Almost every distance of a mix stream is under 256 and none
//! reaches 65 535; one that does stores an escape value, and its absolute
//! next index goes into a side map keyed by `(set, k)`. Slots live in
//! 512 B chunks of 256 that each set appends to, so no list ever doubles
//! and a set wastes at most one chunk. The lists then cost 2 B per
//! *stored* reference (under half of a mix stream's references) plus that
//! chunk tail and one 256 B page of latest indices per 64-line block the
//! stream touches (4 B per line of a dense footprint), where a stored
//! stream alone would cost 8 B per reference. [`optimal_llc`] runs the
//! pass while the mix is generated; [`belady`] and [`belady_sharded`]
//! feed it a slice.

use crate::config::SimConfig;
use crate::run::RunResult;
use std::collections::BTreeMap;
use tla_core::HierarchyConfig;
use tla_telemetry::RunReport;
use tla_types::counters::victim_rate;
use tla_types::pages::PAGE_LINES;
use tla_types::{LineAddr, LinePages};
use tla_workloads::{SpecApp, TraceSource};

/// Sentinel next-use key: the line is never referenced again (or the way
/// is free — under MIN the two are interchangeable, see [`replay_set`]).
const NEVER: u32 = u32::MAX;

/// Hit/miss counts of an optimal-replacement replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleResult {
    /// References replayed in the measured phase (after the warm prefix).
    pub accesses: u64,
    /// Measured-phase hits under MIN.
    pub hits: u64,
    /// Measured-phase misses under MIN.
    pub misses: u64,
}

impl OracleResult {
    /// Measured-phase hit rate in `[0, 1]` (0 when nothing was measured).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// Slots per chunk of a set's next-use list: 512 B, one allocation.
const CHUNK: usize = 256;

/// Slot of a reference whose line is never referenced again.
const NO_NEXT: u16 = 0;

/// Slot of a reference whose next use lies `ESCAPE` or more set-local
/// references ahead; the absolute index is in the escape map.
const ESCAPE: u16 = u16::MAX;

/// Per-set next-use lists of a reference stream, built in one forward
/// pass.
///
/// LLC sets are independent under MIN: a reference only competes with
/// residents of its own set, and a line's next use is in the same set.
/// So each set keeps its own list, indexed by the set-local position `k`
/// of each reference. Its slot holds the distance to the next reference
/// to the same line (`k_next - k`), [`NO_NEXT`] for none, or [`ESCAPE`]
/// with `k_next` in `escapes` under `(set, k)`.
struct NextUseLists {
    mask: u64,
    ways: usize,
    sets: Vec<SetList>,
    /// Absolute next uses of the [`ESCAPE`] slots, by `(set, k)`.
    escapes: BTreeMap<(u32, u32), u32>,
    /// Each line's latest set-local index, so its slot can be patched.
    last: LinePages<LastUse>,
    /// Measured references that repeated their set's latest line: each
    /// is one access and one hit.
    repeats: u64,
}

/// One set's next-use list: `len` slots in fixed-size chunks, so no
/// slot is ever copied and the list wastes at most one chunk.
#[derive(Default)]
struct SetList {
    /// Each `CHUNK` slots long.
    chunks: Vec<Box<[u16]>>,
    len: u32,
    /// How many of its references fall in the warm-up prefix.
    warm: u32,
    /// The line of its latest reference (`None` before the first), so a
    /// run of references to it is counted, not filed.
    latest: Option<LineAddr>,
}

impl SetList {
    /// The set's slots in stream order, one chunk at a time.
    fn slots(&self) -> impl Iterator<Item = &[u16]> {
        let len = self.len as usize;
        (0..len)
            .step_by(CHUNK)
            .zip(&self.chunks)
            .map(move |(base, chunk)| &chunk[..(len - base).min(CHUNK)])
    }
}

/// The set-local index of the next use that `slot`, the slot of
/// reference `k` of set `set`, encodes: [`NEVER`] for none.
fn next_use(slot: u16, set: u32, k: u32, escapes: &BTreeMap<(u32, u32), u32>) -> u32 {
    match slot {
        NO_NEXT => NEVER,
        ESCAPE => escaped(escapes, set, k),
        gap => k + u32::from(gap),
    }
}

/// The next use of an [`ESCAPE`] slot. Out of line: inlined, the map
/// lookup slows the replay loop it never runs in on a mix stream.
#[cold]
#[inline(never)]
fn escaped(escapes: &BTreeMap<(u32, u32), u32>, set: u32, k: u32) -> u32 {
    escapes[&(set, k)]
}

/// The latest set-local reference index of each line of a page,
/// [`NEVER`] for a line not referenced yet.
struct LastUse([u32; PAGE_LINES]);

impl Default for LastUse {
    fn default() -> Self {
        LastUse([NEVER; PAGE_LINES])
    }
}

impl NextUseLists {
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two (set indexing is a mask, as
    /// in the simulated caches) or `ways` is zero.
    fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        assert!(ways > 0, "ways must be positive");
        NextUseLists {
            mask: sets as u64 - 1,
            ways,
            sets: (0..sets).map(|_| SetList::default()).collect(),
            escapes: BTreeMap::new(),
            last: LinePages::new(),
            repeats: 0,
        }
    }

    /// Files the next reference of the stream. Warm-up references
    /// (`measured == false`) must form a prefix: they shape the cache
    /// state but are left out of the counts, the freeze semantics the
    /// simulator uses. A repeat of the set's latest line is only counted
    /// (see the module docs).
    fn push(&mut self, line: LineAddr, measured: bool) {
        let set = (line.raw() & self.mask) as usize;
        let list = &mut self.sets[set];
        if list.latest.replace(line) == Some(line) {
            self.repeats += u64::from(measured);
            return;
        }
        let k = list.len;
        assert!(k < NEVER, "a set's references fit in u32 keys below NEVER");
        let (page, i) = self.last.page_mut(line);
        let prev = std::mem::replace(&mut page.0[i], k);
        if prev != NEVER {
            let slot = match u16::try_from(k - prev) {
                Ok(gap) if gap < ESCAPE => gap,
                _ => {
                    self.escapes.insert((set as u32, prev), k);
                    ESCAPE
                }
            };
            let prev = prev as usize;
            list.chunks[prev / CHUNK][prev % CHUNK] = slot;
        }
        if (k as usize).is_multiple_of(CHUNK) {
            list.chunks.push(vec![NO_NEXT; CHUNK].into_boxed_slice());
        }
        list.len = k + 1;
        if !measured {
            debug_assert_eq!(list.warm, k, "warm-up must be a prefix");
            list.warm = k + 1;
        }
    }

    /// Replays every set under MIN on up to `jobs` worker threads and
    /// sums the measured counts. Sets merge in set order, so the result
    /// is identical for every `jobs` value.
    fn replay(self, jobs: usize) -> OracleResult {
        // The line map is only needed while building; free it first.
        drop(self.last);
        let (ways, escapes) = (self.ways, &self.escapes);
        let accesses = self.repeats
            + (self.sets.iter())
                .map(|list| u64::from(list.len - list.warm))
                .sum::<u64>();
        // A set with no measured reference has no measured hit to count.
        let measured = (0u32..)
            .zip(&self.sets)
            .filter(|(_, list)| list.len > list.warm)
            .collect();
        let per_set = tla_pool::scoped_map(jobs, measured, |(set, list)| {
            replay_set(list, set, escapes, ways)
        });
        let hits = self.repeats + per_set.iter().sum::<u64>();
        OracleResult {
            accesses,
            hits,
            misses: accesses - hits,
        }
    }
}

/// Replays set `set`'s next-use list under MIN on `ways` ways and
/// returns its measured hits (local indices at or past its `warm`).
///
/// `keys[w]` is the next use of the line in way `w`. Next uses of
/// resident lines are distinct, so reference `k` hits exactly when some
/// key equals `k`, and the way that matches takes the reference's own
/// next use. A miss evicts the first way with the largest key. Free ways
/// start at [`NEVER`] too: a free way and a line that is never used
/// again are equally useless to MIN, so filling one or evicting the
/// other leaves the same useful residents and the same counts.
fn replay_set(list: &SetList, set: u32, escapes: &BTreeMap<(u32, u32), u32>, ways: usize) -> u64 {
    let mut keys = vec![NEVER; ways];
    let mut hits = 0;
    let mut k = 0;
    for slots in list.slots() {
        for &slot in slots {
            let way = match keys.iter().position(|&key| key == k) {
                Some(w) => {
                    hits += u64::from(k >= list.warm);
                    w
                }
                None => {
                    let mut far = 0;
                    for w in 1..ways {
                        if keys[w] > keys[far] {
                            far = w;
                        }
                    }
                    far
                }
            };
            keys[way] = next_use(slot, set, k, escapes);
            k += 1;
        }
    }
    hits
}

/// Replays `refs` under Belady's MIN on a `sets x ways` cache and counts
/// hits and misses, skipping the first `warm_len` references (the warm-up
/// prefix participates in cache state but not in the counts — the same
/// freeze semantics the simulator uses).
///
/// # Panics
///
/// Panics if `sets` is not a power of two (set indexing is a mask, as in
/// the simulated caches) or `ways` is zero.
pub fn belady(refs: &[LineAddr], warm_len: usize, sets: usize, ways: usize) -> OracleResult {
    belady_sharded(refs, warm_len, sets, ways, 1)
}

/// [`belady`] with the per-set replays spread over `jobs` worker threads.
/// The counts are identical for every `jobs` value; only wall-clock
/// changes. `jobs <= 1` runs inline on the caller.
///
/// # Panics
///
/// Panics like [`belady`].
pub fn belady_sharded(
    refs: &[LineAddr],
    warm_len: usize,
    sets: usize,
    ways: usize,
    jobs: usize,
) -> OracleResult {
    let mut lists = NextUseLists::new(sets, ways);
    for (i, &r) in refs.iter().enumerate() {
        lists.push(r, i >= warm_len);
    }
    lists.replay(jobs)
}

/// Reference implementation of [`belady`]: no precomputation, on every
/// eviction the next use of each resident line is found by a forward
/// scan of the remaining references — O(n^2) and only suitable for
/// tests, where it pins the next-use oracle's counts.
///
/// # Panics
///
/// Panics like [`belady`].
pub fn belady_bruteforce(
    refs: &[LineAddr],
    warm_len: usize,
    sets: usize,
    ways: usize,
) -> OracleResult {
    assert!(sets.is_power_of_two(), "sets must be a power of two");
    assert!(ways > 0, "ways must be positive");
    let mask = sets as u64 - 1;
    let mut cache: Vec<Vec<u64>> = vec![Vec::with_capacity(ways); sets];
    let mut hits = 0u64;
    let mut misses = 0u64;
    for (i, r) in refs.iter().enumerate() {
        let a = r.raw();
        let set = (a & mask) as usize;
        let lines = &mut cache[set];
        let measured = i >= warm_len;
        if lines.contains(&a) {
            if measured {
                hits += 1;
            }
        } else {
            if measured {
                misses += 1;
            }
            if lines.len() < ways {
                lines.push(a);
            } else {
                let next_of = |t: u64| {
                    refs[i + 1..]
                        .iter()
                        .position(|r| r.raw() == t)
                        .map_or(usize::MAX, |d| i + 1 + d)
                };
                let mut far = 0;
                let mut far_next = next_of(lines[0]);
                for (w, &t) in lines.iter().enumerate().skip(1) {
                    let next = next_of(t);
                    if next > far_next {
                        far = w;
                        far_next = next;
                    }
                }
                lines[far] = a;
            }
        }
    }
    OracleResult {
        accesses: refs.len().saturating_sub(warm_len) as u64,
        hits,
        misses,
    }
}

/// Generates a mix's reference stream (see [`mix_reference_stream`]) and
/// hands each reference to `emit` with whether it is measured.
fn for_each_mix_reference(cfg: &SimConfig, apps: &[SpecApp], mut emit: impl FnMut(LineAddr, bool)) {
    assert!(!apps.is_empty(), "a mix needs at least one app");
    let mut traces: Vec<_> = apps
        .iter()
        .enumerate()
        .map(|(i, app)| app.trace(cfg.scale(), i as u64, cfg.seed_value()))
        .collect();
    let warmup = cfg.warmup_quota();
    let total = warmup + cfg.instruction_quota();
    let mut last_code: Vec<Option<LineAddr>> = vec![None; apps.len()];
    for n in 0..total {
        let measured = n >= warmup;
        for (i, trace) in traces.iter_mut().enumerate() {
            let instr = trace.next_instruction();
            if last_code[i] != Some(instr.code_line) {
                last_code[i] = Some(instr.code_line);
                emit(instr.code_line, measured);
            }
            if let Some(m) = instr.mem {
                emit(m.addr, measured);
            }
        }
    }
}

/// The reference stream a mix presents to the memory hierarchy, plus the
/// index where the warm-up prefix ends.
///
/// Cores are interleaved round-robin, one instruction each, for
/// `warmup + quota` instructions per core. Each instruction contributes
/// its instruction-fetch line when it differs from the core's previous
/// one (the same dedup the simulator's fetch path applies) followed by
/// its data line, if any. The cut index marks the first measured-phase
/// reference (0 when `warmup` is zero).
pub fn mix_reference_stream(cfg: &SimConfig, apps: &[SpecApp]) -> (Vec<LineAddr>, usize) {
    let mut refs = Vec::new();
    let mut warm_len = 0;
    for_each_mix_reference(cfg, apps, |line, measured| {
        warm_len += usize::from(!measured);
        refs.push(line);
    });
    (refs, warm_len)
}

/// The MIN oracle's measured-phase result for a mix under `cfg`'s LLC
/// geometry (honoring an `llc_capacity_full_scale` override, like
/// [`crate::MixRun::llc_capacity_full_scale`]). This is the `opt_misses`
/// denominator behind `gap_to_opt`.
///
/// The next-use lists are built while the mix is generated, so the
/// stream itself is never stored; the per-set replay runs on
/// [`SimConfig::effective_shard_jobs`] worker threads (serial unless
/// `shard_jobs`/`TLA_SHARD_JOBS` opts in) with identical counts for
/// every job count. Equal to [`belady`] on [`mix_reference_stream`].
pub fn optimal_llc(
    cfg: &SimConfig,
    apps: &[SpecApp],
    llc_capacity_full_scale: Option<usize>,
) -> OracleResult {
    let scale = cfg.scale() as usize;
    let mut hcfg = HierarchyConfig::scaled(apps.len(), scale);
    if let Some(bytes) = llc_capacity_full_scale {
        hcfg = hcfg.llc_capacity(bytes / scale);
    }
    let llc = hcfg.llc();
    let mut lists = NextUseLists::new(llc.sets(), llc.ways());
    for_each_mix_reference(cfg, apps, |line, measured| lists.push(line, measured));
    lists.replay(cfg.effective_shard_jobs())
}

/// Gap to the MIN oracle as a fraction of the optimal miss count:
/// `(measured - opt) / opt`. An oracle with zero misses divides by one
/// instead, so the gap degenerates to the absolute measured miss count
/// and reports stay finite.
pub fn gap_to_opt(measured_misses: u64, opt_misses: u64) -> f64 {
    (measured_misses as f64 - opt_misses as f64) / (opt_misses.max(1) as f64)
}

/// One run measured against the MIN oracle: the three numbers a report
/// carries beside the run's own statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleGap {
    /// The oracle's measured-phase LLC misses.
    pub opt_misses: u64,
    /// [`gap_to_opt`] of the run's LLC misses.
    pub gap_to_opt: f64,
    /// The run's inclusion-victim rate
    /// ([`tla_types::counters::victim_rate`] over its threads).
    pub victim_rate: f64,
}

impl OracleGap {
    /// Measures `run` against an oracle that missed `opt_misses` times.
    pub fn new(run: &RunResult, opt_misses: u64) -> OracleGap {
        OracleGap {
            opt_misses,
            gap_to_opt: gap_to_opt(run.llc_misses(), opt_misses),
            victim_rate: victim_rate(run.threads.iter().map(|t| &t.stats)),
        }
    }

    /// Fills the report's `opt_misses`, `gap_to_opt` and
    /// `inclusion_victim_rate` fields.
    pub fn attach(&self, report: &mut RunReport) {
        report.opt_misses = Some(self.opt_misses);
        report.gap_to_opt = Some(self.gap_to_opt);
        report.inclusion_victim_rate = Some(self.victim_rate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(raw: &[u64]) -> Vec<LineAddr> {
        raw.iter().map(|&a| LineAddr::new(a)).collect()
    }

    #[test]
    fn belady_on_classic_sequence() {
        // Fully-associative (1 set), 3 ways, the textbook example:
        // a b c d a b e a b c d e, all mapping to set 0.
        let refs = addrs(&[0, 8, 16, 24, 0, 8, 32, 0, 8, 16, 24, 32]);
        let r = belady(&refs, 0, 1, 3);
        assert_eq!(r.accesses, 12);
        // MIN with 3 frames: cold a b c, d evicts c, e evicts d, then c
        // and d miss again and the final e hits — 7 faults, 5 hits.
        assert_eq!(r.misses, 7, "{r:?}");
        assert_eq!(r.hits, 5);
        assert_eq!(belady_bruteforce(&refs, 0, 1, 3), r);
    }

    #[test]
    fn next_use_lists_point_at_each_lines_next_reference() {
        // Two sets; set 0 sees lines 0, 2, 0 and set 1 sees 1, 1. Set 1's
        // second reference repeats its latest line, so it is counted as a
        // measured hit and not filed.
        let mut lists = NextUseLists::new(2, 1);
        for (i, a) in [0u64, 1, 2, 1, 0].into_iter().enumerate() {
            lists.push(LineAddr::new(a), i >= 2);
        }
        let next: Vec<Vec<u32>> = (0u32..)
            .zip(&lists.sets)
            .map(|(set, list)| {
                let slots = list.slots().flatten();
                let next = (0..)
                    .zip(slots)
                    .map(|(k, &slot)| next_use(slot, set, k, &lists.escapes));
                next.collect()
            })
            .collect();
        assert_eq!(next, vec![vec![2, NEVER, NEVER], vec![NEVER]]);
        let warm: Vec<u32> = lists.sets.iter().map(|list| list.warm).collect();
        assert_eq!(warm, vec![1, 1]);
        assert_eq!(lists.repeats, 1);
        // Set 0: miss, miss (evicts 0), miss; set 1: miss, hit. Only the
        // last three references are measured.
        let r = lists.replay(1);
        assert_eq!((r.accesses, r.hits, r.misses), (3, 1, 2));
    }

    #[test]
    fn warm_prefix_is_excluded_from_counts() {
        let refs = addrs(&[0, 8, 0, 8, 0, 8]);
        let all = belady(&refs, 0, 1, 2);
        assert_eq!(all.accesses, 6);
        assert_eq!(all.misses, 2); // two cold fills
        let warm = belady(&refs, 2, 1, 2);
        assert_eq!(warm.accesses, 4);
        assert_eq!(warm.misses, 0, "cold fills fall in the warm prefix");
        assert_eq!(warm.hits, 4);
        // A cut past the end measures nothing.
        assert_eq!(belady(&refs, 9, 1, 2), belady_bruteforce(&refs, 9, 1, 2));
        assert_eq!(belady_sharded(&[], 0, 8, 2, 4), belady(&[], 0, 8, 2));
    }

    #[test]
    fn oracle_never_misses_more_than_lru_would() {
        // A cyclic scan over ways+1 lines is LRU's worst case (0% hits);
        // MIN keeps ways-1 of them resident.
        let mut refs = Vec::new();
        for _ in 0..50 {
            for a in 0..5u64 {
                refs.push(LineAddr::new(a * 8)); // all in set 0 of an 8-set cache
            }
        }
        let r = belady(&refs, 0, 8, 4);
        assert!(
            r.hit_rate() > 0.7,
            "MIN must rescue most of a cyclic scan: {r:?}"
        );
    }

    #[test]
    fn mix_reference_stream_is_deterministic_and_cut_correctly() {
        let cfg = SimConfig::scaled_down().warmup(1_000).instructions(2_000);
        let apps = [SpecApp::Sjeng, SpecApp::Libquantum];
        let (a, cut_a) = mix_reference_stream(&cfg, &apps);
        let (b, cut_b) = mix_reference_stream(&cfg, &apps);
        assert_eq!(a, b);
        assert_eq!(cut_a, cut_b);
        assert!(cut_a > 0 && cut_a < a.len());
        // Without warm-up the cut is at the start.
        let cold = SimConfig::scaled_down().instructions(1_000);
        let (_, cut) = mix_reference_stream(&cold, &apps);
        assert_eq!(cut, 0);
    }

    #[test]
    fn optimal_llc_lower_bounds_a_single_core_run() {
        use crate::{MixRun, PolicySpec};
        // Single core, prefetch off, no warm-up: the oracle's stream is
        // exactly the hierarchy's access sequence, and an inclusive
        // hierarchy's contents are a subset of its LLC frames — so the
        // whole hierarchy acts as one demand-fetch cache of LLC geometry
        // and MIN bounds its misses from below. (With the prefetcher on,
        // prefetch hits can beat a demand-fetch oracle; with multiple
        // cores the interleavings diverge — both make this a heuristic
        // rather than a bound, which is why reports label it `gap_to_opt`
        // against an approximation.)
        let cfg = SimConfig::scaled_down()
            .instructions(30_000)
            .prefetch(false);
        let apps = [SpecApp::Mcf];
        let opt = optimal_llc(&cfg, &apps, None);
        assert!(opt.accesses > 0 && opt.misses > 0);
        let run = MixRun::new(&cfg, &apps).spec(&PolicySpec::baseline()).run();
        assert!(
            opt.misses <= run.llc_misses(),
            "opt {} > measured {}",
            opt.misses,
            run.llc_misses()
        );
    }
}
