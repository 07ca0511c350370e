//! Replacement policies.
//!
//! The paper's baseline uses LRU in the core caches and NRU in the LLC
//! (§IV-A). Footnote 4 notes the inclusion problem is independent of the LLC
//! replacement policy and was verified with LRU and RRIP as well — this
//! module provides all of those plus FIFO, Random and tree-PLRU so the
//! `ablation_replacement` bench can reproduce that claim.
//!
//! A [`Replacer`] owns any cross-set policy state (LRU stamps, the DRRIP
//! PSEL counter, the Random policy's RNG) and operates on one set's packed
//! state: a `valid` [`WayMask`] plus the slice of per-way `repl` words (the
//! struct-of-arrays layout [`SetAssocCache`](crate::SetAssocCache) keeps).
//! Beyond the usual hit/fill/victim operations it exposes
//! [`Replacer::order_into`], the full eviction-priority ordering of a set,
//! because the TLA policies need it: ECI picks "the *next* LRU line" and QBS
//! walks victim candidates until the cores approve one. Both
//! [`Replacer::victim`] and [`Replacer::order_into`] are allocation-free —
//! victim selection scans the set directly and ordering fills a
//! caller-provided buffer — because they sit on the LLC miss path.
//!
//! NRU, the paper's LLC policy, runs without per-way loops: the replacer
//! keeps one candidate [`WayMask`] per set mirroring the set's valid ways
//! whose `repl` word is non-zero, so touches, victims and orders are a few
//! bit operations. The `repl` words stay the serialized form; callers that
//! write them directly (checkpoint decode) call [`Replacer::sync_set`].

use crate::probe::WayMask;
use std::fmt;
use tla_rng::SmallRng;
use tla_snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

/// Maximum re-reference prediction value for the 2-bit RRIP policies.
const RRPV_MAX: u64 = 3;
/// BRRIP inserts at "long" (RRPV_MAX-1) rather than "distant" (RRPV_MAX)
/// once every this many fills.
const BRRIP_LONG_INTERVAL: u64 = 32;
/// DRRIP set-dueling: one in `DUEL_MODULUS` sets leads for SRRIP, one for
/// BRRIP.
const DUEL_MODULUS: usize = 32;
/// Saturation bound for the DRRIP PSEL counter.
const PSEL_MAX: i32 = 1 << 9;

/// A cache replacement policy.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum Policy {
    /// Least recently used. The paper's core-cache policy.
    Lru,
    /// Not recently used (single reference bit per line). The paper's
    /// baseline LLC policy.
    #[default]
    Nru,
    /// First-in first-out.
    Fifo,
    /// Uniform random victim.
    Random,
    /// Tree pseudo-LRU (requires power-of-two associativity).
    Plru,
    /// Static RRIP with 2-bit re-reference prediction values.
    Srrip,
    /// Bimodal RRIP (thrash-resistant insertion).
    Brrip,
    /// Dynamic RRIP: set-dueling between SRRIP and BRRIP.
    Drrip,
    /// LRU-Insertion Policy: fills enter at the LRU position and are only
    /// promoted on a subsequent hit (thrash protection).
    Lip,
    /// Bimodal Insertion Policy: LIP, except a small fraction of fills
    /// enters at MRU.
    Bip,
    /// Dynamic Insertion Policy: set-dueling between plain LRU and BIP
    /// (Qureshi et al. / the adaptive-insertion work the paper compares
    /// against in SVI).
    Dip,
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Policy::Lru => "LRU",
            Policy::Nru => "NRU",
            Policy::Fifo => "FIFO",
            Policy::Random => "Random",
            Policy::Plru => "PLRU",
            Policy::Srrip => "SRRIP",
            Policy::Brrip => "BRRIP",
            Policy::Drrip => "DRRIP",
            Policy::Lip => "LIP",
            Policy::Bip => "BIP",
            Policy::Dip => "DIP",
        };
        f.write_str(s)
    }
}

/// Runtime state for a [`Policy`] over one cache.
///
/// All operations take one set's `valid` [`WayMask`] and its `repl` slice
/// (one policy word per way) plus the set's index; the caller owns that
/// storage in struct-of-arrays form. NRU mirrors each set's candidates in
/// a mask of its own, so `repl` words change only through these
/// operations or are followed by [`Replacer::sync_set`].
#[derive(Debug, Clone)]
pub struct Replacer {
    policy: Policy,
    /// Monotonic stamp source for LRU/FIFO.
    stamp: u64,
    /// Fill counter driving BRRIP's bimodal insertion.
    fills: u64,
    /// DRRIP policy-selection counter; >= 0 favours SRRIP.
    psel: i32,
    /// PLRU tree bits, one word per set (internal nodes 1..ways fit in
    /// `ways` <= 64 bits); empty for every policy but PLRU.
    trees: Vec<u64>,
    /// NRU candidate mask per set (empty for every other policy): always
    /// the set's valid ways whose `repl` word is non-zero.
    cand: Vec<WayMask>,
    /// Reusable shuffle buffer for the Random policy's victim selection
    /// (keeps `victim` allocation-free while consuming the RNG stream
    /// exactly like a full set shuffle).
    scratch: Vec<usize>,
    rng: SmallRng,
}

impl Replacer {
    /// Creates replacement state for a cache with `sets` sets of `ways`
    /// ways (at most [`MAX_WAYS`](crate::MAX_WAYS), the width of a PLRU
    /// tree word).
    ///
    /// `seed` feeds the Random policy (and BRRIP/DRRIP tie-breaking); runs
    /// with equal seeds are fully deterministic.
    pub fn new(policy: Policy, sets: usize, ways: usize, seed: u64) -> Self {
        debug_assert!(ways <= crate::MAX_WAYS, "{ways} ways exceed one tree word");
        Replacer {
            policy,
            stamp: 0,
            fills: 0,
            psel: 0,
            trees: if policy == Policy::Plru {
                vec![0; sets]
            } else {
                Vec::new()
            },
            cand: if policy == Policy::Nru {
                vec![WayMask::EMPTY; sets]
            } else {
                Vec::new()
            },
            scratch: Vec::new(),
            rng: SmallRng::seed_from_u64(seed ^ 0xA5A5_5A5A_71A5_EED0),
        }
    }

    /// The policy this replacer implements.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Rebuilds the derived per-set state (NRU's candidate mask) of
    /// `set_idx` from its `valid` mask and `repl` words. Callers that write
    /// `repl` words other than through this replacer — checkpoint decode —
    /// call it afterwards; every other policy keeps no derived state.
    pub fn sync_set(&mut self, set_idx: usize, valid: WayMask, repl: &[u64]) {
        if self.policy == Policy::Nru {
            let mut cand = WayMask::EMPTY;
            for w in valid.iter().filter(|&w| repl[w] != 0) {
                cand.set(w);
            }
            self.cand[set_idx] = cand;
        }
    }

    /// Records a demand hit on `way`.
    #[inline]
    pub fn on_hit(&mut self, set_idx: usize, valid: WayMask, repl: &mut [u64], way: usize) {
        match self.policy {
            Policy::Lru => {
                self.stamp += 1;
                repl[way] = self.stamp;
            }
            Policy::Nru => self.nru_touch(set_idx, valid, repl, way),
            Policy::Fifo | Policy::Random => {}
            Policy::Plru => self.plru_touch(set_idx, repl.len(), way),
            Policy::Srrip | Policy::Brrip | Policy::Drrip => repl[way] = 0,
            Policy::Lip | Policy::Bip | Policy::Dip => {
                self.stamp += 1;
                repl[way] = self.stamp;
            }
        }
    }

    /// Promotes `way` to the most-protected position without it being a
    /// demand hit — the operation Temporal Locality Hints and QBS perform on
    /// the LLC ("update its replacement state [to MRU]", §III-A/C).
    ///
    /// For every policy here promotion coincides with the hit update.
    #[inline]
    pub fn promote(&mut self, set_idx: usize, valid: WayMask, repl: &mut [u64], way: usize) {
        self.on_hit(set_idx, valid, repl, way);
    }

    /// Records a fill into `way` (whose `repl` word the caller has reset to
    /// zero and whose `valid` bit is already set in the bitmap).
    #[inline]
    pub fn on_fill(&mut self, set_idx: usize, valid: WayMask, repl: &mut [u64], way: usize) {
        match self.policy {
            Policy::Lru | Policy::Fifo => {
                self.stamp += 1;
                repl[way] = self.stamp;
            }
            Policy::Nru => self.nru_touch(set_idx, valid, repl, way),
            Policy::Random => {}
            Policy::Plru => self.plru_touch(set_idx, repl.len(), way),
            Policy::Srrip => repl[way] = RRPV_MAX - 1,
            Policy::Brrip => repl[way] = self.brrip_insert_rrpv(),
            Policy::Drrip => {
                let srrip_mode = match set_idx % DUEL_MODULUS {
                    0 => true,           // SRRIP leader set
                    1 => false,          // BRRIP leader set
                    _ => self.psel >= 0, // follower sets
                };
                repl[way] = if srrip_mode {
                    RRPV_MAX - 1
                } else {
                    self.brrip_insert_rrpv()
                };
            }
            Policy::Lip => self.lru_insert(valid, repl, way, false),
            Policy::Bip => {
                let mru = self.bip_fill_is_mru();
                self.lru_insert(valid, repl, way, mru);
            }
            Policy::Dip => {
                let lru_mode = match set_idx % DUEL_MODULUS {
                    0 => true,           // LRU leader set
                    1 => false,          // BIP leader set
                    _ => self.psel >= 0, // follower sets
                };
                let mru = lru_mode || self.bip_fill_is_mru();
                self.lru_insert(valid, repl, way, mru);
            }
        }
    }

    /// Records a demand miss in `set_idx` (used by DRRIP's set dueling; a
    /// miss in a leader set votes against that leader's policy).
    #[inline]
    pub fn on_miss(&mut self, set_idx: usize) {
        if matches!(self.policy, Policy::Drrip | Policy::Dip) {
            match set_idx % DUEL_MODULUS {
                // A miss in a leader set votes against that leader's
                // policy (SRRIP/LRU lead even sets, BRRIP/BIP odd ones).
                0 => self.psel = (self.psel - 1).max(-PSEL_MAX),
                1 => self.psel = (self.psel + 1).min(PSEL_MAX),
                _ => {}
            }
        }
    }

    /// Notifies the policy that `way` is being evicted. RRIP ages the set so
    /// the victim's RRPV reaches the distant value, mirroring the hardware
    /// "increment all until a distant line exists" loop even when the TLA
    /// policy skipped over better candidates.
    #[inline]
    pub fn on_evict(&mut self, set_idx: usize, valid: WayMask, repl: &mut [u64], way: usize) {
        match self.policy {
            Policy::Srrip | Policy::Brrip | Policy::Drrip => {
                let delta = RRPV_MAX.saturating_sub(repl[way]);
                if delta > 0 {
                    for w in valid.iter() {
                        repl[w] = (repl[w] + delta).min(RRPV_MAX);
                    }
                }
            }
            // The caller zeroes the evicted way's word and valid bit.
            Policy::Nru => self.cand[set_idx].clear(way),
            _ => {}
        }
    }

    /// The way the policy would evict next, considering only valid ways.
    /// Allocation-free: a direct scan of the set (the Random policy runs
    /// its shuffle in a persistent internal buffer so the RNG stream is
    /// identical to a full [`Replacer::order_into`] call).
    ///
    /// Returns `None` if the set has no valid line.
    #[inline]
    pub fn victim(&mut self, set_idx: usize, valid: WayMask, repl: &[u64]) -> Option<usize> {
        match self.policy {
            // Lowest stamp wins; ties (possible via LIP's saturating
            // LRU-end insertion) go to the lowest way, like the stable
            // sort in `order_into`.
            Policy::Lru | Policy::Fifo | Policy::Lip | Policy::Bip | Policy::Dip => {
                let mut best: Option<(u64, usize)> = None;
                for w in valid.iter() {
                    if best.is_none_or(|(k, _)| repl[w] < k) {
                        best = Some((repl[w], w));
                    }
                }
                best.map(|(_, w)| w)
            }
            // First candidate (bit set) in way order, else first valid way.
            Policy::Nru => self.cand[set_idx]
                .and(valid)
                .first()
                .or_else(|| valid.first()),
            Policy::Random => {
                self.scratch.clear();
                self.scratch.extend(valid.iter());
                for i in (1..self.scratch.len()).rev() {
                    let j = self.rng.gen_range(0..=i);
                    self.scratch.swap(i, j);
                }
                self.scratch.first().copied()
            }
            Policy::Plru => plru_first_valid(self.trees[set_idx], 1, repl.len(), valid),
            // Highest RRPV is evicted first; ties go to the lowest way
            // (the hardware's left-to-right scan).
            Policy::Srrip | Policy::Brrip | Policy::Drrip => {
                let mut best: Option<(u64, usize)> = None;
                for w in valid.iter() {
                    if best.is_none_or(|(k, _)| repl[w] > k) {
                        best = Some((repl[w], w));
                    }
                }
                best.map(|(_, w)| w)
            }
        }
    }

    /// Writes all valid ways of the set into `out` in eviction-priority
    /// order: element 0 is the victim, element 1 the "next LRU line" ECI
    /// would pick, and so on. `out` is cleared first; with a reused buffer
    /// the call performs no allocation in steady state.
    ///
    /// The ordering is a snapshot; it does not age or otherwise mutate
    /// per-way state (aging happens in [`Replacer::on_evict`]).
    #[inline]
    pub fn order_into(
        &mut self,
        set_idx: usize,
        valid: WayMask,
        repl: &[u64],
        out: &mut Vec<usize>,
    ) {
        out.clear();
        match self.policy {
            Policy::Lru | Policy::Fifo | Policy::Lip | Policy::Bip | Policy::Dip => {
                out.extend(valid.iter());
                // Way index in the key reproduces the stable scan order on
                // equal stamps.
                out.sort_unstable_by_key(|&w| (repl[w], w));
            }
            Policy::Nru => {
                // Candidates (bit == 1, stored as repl == 1) first, each
                // group in way order — the hardware scan order.
                let cand = self.cand[set_idx].and(valid);
                out.extend(cand.iter());
                out.extend(valid.and_not(cand).iter());
            }
            Policy::Random => {
                // Fisher-Yates over the valid ways.
                out.extend(valid.iter());
                for i in (1..out.len()).rev() {
                    let j = self.rng.gen_range(0..=i);
                    out.swap(i, j);
                }
            }
            Policy::Plru => {
                // The tree walk emits leaves in eviction-rank order;
                // filtering to valid ways preserves it.
                plru_walk_into(self.trees[set_idx], 1, repl.len(), valid, out);
            }
            Policy::Srrip | Policy::Brrip | Policy::Drrip => {
                // Higher RRPV is evicted sooner; ties broken by way index
                // (the hardware's left-to-right scan).
                out.extend(valid.iter());
                out.sort_unstable_by_key(|&w| (std::cmp::Reverse(repl[w]), w));
            }
        }
    }

    // --- NRU ---------------------------------------------------------

    /// NRU reference-bit update: `repl == 1` means "not recently used"
    /// (eviction candidate); touching clears the bit, and when no candidate
    /// remains all *other* valid lines become candidates again. `way` is
    /// valid, so the candidate mask alone tells whether any remain.
    fn nru_touch(&mut self, set_idx: usize, valid: WayMask, repl: &mut [u64], way: usize) {
        repl[way] = 0;
        let cand = &mut self.cand[set_idx];
        cand.clear(way);
        if cand.is_empty() {
            *cand = valid;
            cand.clear(way);
            for w in cand.iter() {
                repl[w] = 1;
            }
        }
    }

    // --- BRRIP -------------------------------------------------------

    fn brrip_insert_rrpv(&mut self) -> u64 {
        self.fills += 1;
        if self.fills.is_multiple_of(BRRIP_LONG_INTERVAL) {
            RRPV_MAX - 1
        } else {
            RRPV_MAX
        }
    }

    // --- LIP / BIP / DIP ----------------------------------------------

    /// Inserts `way` into the LRU stack: at MRU (fresh stamp) or at the
    /// LRU end (just below the current set minimum, so the line is the
    /// next victim unless it gets a hit first).
    fn lru_insert(&mut self, valid: WayMask, repl: &mut [u64], way: usize, mru: bool) {
        if mru {
            self.stamp += 1;
            repl[way] = self.stamp;
        } else {
            let min = valid
                .iter()
                .filter(|&w| w != way)
                .map(|w| repl[w])
                .min()
                .unwrap_or(1);
            repl[way] = min.saturating_sub(1);
        }
    }

    /// BIP inserts at MRU once every [`BRRIP_LONG_INTERVAL`] fills.
    fn bip_fill_is_mru(&mut self) -> bool {
        self.fills += 1;
        self.fills.is_multiple_of(BRRIP_LONG_INTERVAL)
    }

    // --- PLRU --------------------------------------------------------
    //
    // Classic binary-tree PLRU: node bits select the colder child
    // (0 = left, 1 = right). Nodes are stored heap-style in one word per
    // set: node 1 is the root, node n has children 2n and 2n+1; for `ways`
    // leaves, nodes 1..ways are internal and leaf w corresponds to heap
    // position ways + w. Internal-node bits fit in `ways` <= 64 bits.

    fn plru_touch(&mut self, set_idx: usize, ways: usize, way: usize) {
        let tree = &mut self.trees[set_idx];
        let mut node = ways + way;
        while node > 1 {
            let parent = node / 2;
            let came_from_right = node & 1 == 1;
            // Point the bit away from the touched leaf.
            if came_from_right {
                *tree &= !(1u64 << parent);
            } else {
                *tree |= 1u64 << parent;
            }
            node = parent;
        }
    }
}

impl Snapshot for Replacer {
    // The policy itself and the scratch buffer are configuration/transient
    // state: the receiver is constructed with its own policy (the warm-start
    // fan-out deliberately resumes one warm state under *different* LLC
    // policies), and scratch contents never outlive a call. The PLRU trees
    // travel as one word per set.
    fn write_state(&self, w: &mut SnapshotWriter) {
        w.write_u64(self.stamp);
        w.write_u64(self.fills);
        w.write_i64(i64::from(self.psel));
        w.write_u64_slice(&self.trees);
        self.rng.write_state(w);
    }

    fn read_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        self.stamp = r.read_u64()?;
        self.fills = r.read_u64()?;
        let psel = r.read_i64()?;
        self.psel = i32::try_from(psel)
            .map_err(|_| SnapshotError::Corrupt(format!("PSEL value {psel} out of range")))?;
        // PLRU keeps a tree word per set, every other policy keeps none.
        // A PLRU replacer can only resume a snapshot taken under PLRU with
        // the same geometry; non-PLRU replacers interchange freely. The
        // words are read in place: nothing is sized from the decoded count.
        let n = r.read_usize()?;
        if self.trees.is_empty() {
            // Resuming a PLRU snapshot under another policy: skip them.
            for _ in 0..n {
                r.read_u64()?;
            }
        } else if n == 0 {
            // Resuming a non-PLRU snapshot under PLRU: start from the
            // freshly constructed (all-zero) trees.
            self.trees.fill(0);
        } else if n == self.trees.len() {
            for tree in &mut self.trees {
                *tree = r.read_u64()?;
            }
        } else {
            return Err(SnapshotError::Mismatch(format!(
                "PLRU trees: snapshot has {n} words, this cache has {}",
                self.trees.len()
            )));
        }
        self.rng.read_state(r)
    }
}

/// Reads bit `node` of a PLRU tree word.
#[inline]
fn tree_bit(tree: u64, node: usize) -> usize {
    ((tree >> node) & 1) as usize
}

/// Walks the PLRU tree emitting *valid* leaves in eviction-rank order:
/// within a subtree, the pointed-to child's leaves all come before the
/// other child's leaves. Recursion depth is log2(ways) <= 6.
fn plru_walk_into(tree: u64, node: usize, ways: usize, valid: WayMask, out: &mut Vec<usize>) {
    if node >= ways {
        let w = node - ways;
        if valid.contains(w) {
            out.push(w);
        }
        return;
    }
    let bit = tree_bit(tree, node);
    plru_walk_into(tree, 2 * node + bit, ways, valid, out);
    plru_walk_into(tree, 2 * node + 1 - bit, ways, valid, out);
}

/// The first valid leaf the PLRU tree walk reaches — the victim — without
/// materializing the full order.
fn plru_first_valid(tree: u64, node: usize, ways: usize, valid: WayMask) -> Option<usize> {
    if node >= ways {
        let w = node - ways;
        return valid.contains(w).then_some(w);
    }
    let bit = tree_bit(tree, node);
    plru_first_valid(tree, 2 * node + bit, ways, valid)
        .or_else(|| plru_first_valid(tree, 2 * node + 1 - bit, ways, valid))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A full set of `n` ways with zeroed policy words.
    fn set_of(n: usize) -> (WayMask, Vec<u64>) {
        (WayMask::all(n), vec![0; n])
    }

    /// A way mask from a low-word bit pattern (test shorthand).
    fn mask(bits_pattern: u64) -> WayMask {
        let mut m = WayMask::EMPTY;
        let mut v = bits_pattern;
        while v != 0 {
            let w = v.trailing_zeros() as usize;
            v &= v - 1;
            m.set(w);
        }
        m
    }

    /// Convenience wrapper collecting `order_into` output.
    fn order(r: &mut Replacer, set_idx: usize, valid: WayMask, repl: &[u64]) -> Vec<usize> {
        let mut out = Vec::new();
        r.order_into(set_idx, valid, repl, &mut out);
        out
    }

    #[test]
    fn lru_orders_by_recency() {
        let mut r = Replacer::new(Policy::Lru, 1, 4, 0);
        let (valid, mut repl) = set_of(4);
        for w in 0..4 {
            r.on_fill(0, valid, &mut repl, w);
        }
        // Touch way 0 -> it becomes MRU, way 1 is now LRU.
        r.on_hit(0, valid, &mut repl, 0);
        assert_eq!(order(&mut r, 0, valid, &repl), vec![1, 2, 3, 0]);
        assert_eq!(r.victim(0, valid, &repl), Some(1));
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut r = Replacer::new(Policy::Fifo, 1, 3, 0);
        let (valid, mut repl) = set_of(3);
        for w in 0..3 {
            r.on_fill(0, valid, &mut repl, w);
        }
        r.on_hit(0, valid, &mut repl, 0);
        assert_eq!(r.victim(0, valid, &repl), Some(0)); // still oldest fill
    }

    #[test]
    fn nru_scan_order_and_refresh() {
        let mut r = Replacer::new(Policy::Nru, 1, 4, 0);
        let (valid, mut repl) = set_of(4);
        repl.fill(1); // all candidates initially
        r.sync_set(0, valid, &repl);
        r.on_hit(0, valid, &mut repl, 2);
        // way 2 is protected; scan finds way 0 first.
        assert_eq!(r.victim(0, valid, &repl), Some(0));
        // Touch everything: last touch refreshes others back to candidates.
        for w in 0..4 {
            r.on_hit(0, valid, &mut repl, w);
        }
        // way 3 touched last, so ways 0..=2 are candidates again.
        assert_eq!(repl[3], 0);
        assert_eq!(r.victim(0, valid, &repl), Some(0));
    }

    #[test]
    fn nru_order_puts_candidates_first() {
        let mut r = Replacer::new(Policy::Nru, 1, 4, 0);
        let (valid, mut repl) = set_of(4);
        repl.fill(1);
        r.sync_set(0, valid, &repl);
        r.on_hit(0, valid, &mut repl, 0);
        r.on_hit(0, valid, &mut repl, 1);
        assert_eq!(order(&mut r, 0, valid, &repl), vec![2, 3, 0, 1]);
    }

    #[test]
    fn nru_order_matches_sorted_reference_exhaustively() {
        // Every 6-way valid mask x every reference-bit pattern, written
        // directly and synced: the candidate-mask order equals the
        // (candidate first, way) sort, and so does the victim.
        let mut r = Replacer::new(Policy::Nru, 1, 6, 0);
        for valid_bits in 0..64u64 {
            let valid = mask(valid_bits);
            for ref_bits in 0..64u64 {
                let repl: Vec<u64> = (0..6).map(|w| (ref_bits >> w) & 1).collect();
                r.sync_set(0, valid, &repl);
                let mut reference: Vec<usize> = valid.iter().collect();
                reference.sort_unstable_by_key(|&w| (repl[w] == 0, w));
                assert_eq!(r.victim(0, valid, &repl), reference.first().copied());
                assert_eq!(order(&mut r, 0, valid, &repl), reference);
            }
        }
    }

    #[test]
    fn srrip_inserts_long_hits_reset() {
        let mut r = Replacer::new(Policy::Srrip, 1, 2, 0);
        let (valid, mut repl) = set_of(2);
        r.on_fill(0, valid, &mut repl, 0);
        assert_eq!(repl[0], RRPV_MAX - 1);
        r.on_hit(0, valid, &mut repl, 0);
        assert_eq!(repl[0], 0);
        r.on_fill(0, valid, &mut repl, 1);
        // way 1 (rrpv 2) evicts before way 0 (rrpv 0).
        assert_eq!(r.victim(0, valid, &repl), Some(1));
    }

    #[test]
    fn srrip_eviction_ages_set() {
        let mut r = Replacer::new(Policy::Srrip, 1, 2, 0);
        let (valid, mut repl) = set_of(2);
        r.on_fill(0, valid, &mut repl, 0);
        r.on_fill(0, valid, &mut repl, 1);
        r.on_hit(0, valid, &mut repl, 0); // rrpv 0
        r.on_evict(0, valid, &mut repl, 1); // rrpv 2 -> ages by 1
        assert_eq!(repl[0], 1);
        assert_eq!(repl[1], RRPV_MAX);
    }

    #[test]
    fn brrip_mostly_inserts_distant() {
        let mut r = Replacer::new(Policy::Brrip, 1, 1, 0);
        let (valid, mut repl) = set_of(1);
        let mut distant = 0;
        for _ in 0..BRRIP_LONG_INTERVAL {
            r.on_fill(0, valid, &mut repl, 0);
            if repl[0] == RRPV_MAX {
                distant += 1;
            }
        }
        assert_eq!(distant, BRRIP_LONG_INTERVAL - 1);
    }

    #[test]
    fn drrip_leader_sets_vote() {
        let mut r = Replacer::new(Policy::Drrip, DUEL_MODULUS * 2, 1, 0);
        // Misses in the SRRIP leader set push PSEL negative -> BRRIP wins.
        for _ in 0..10 {
            r.on_miss(0);
        }
        assert!(r.psel < 0);
        let (valid, mut repl) = set_of(1);
        // Follower set now inserts with BRRIP (distant most of the time).
        let mut saw_distant = false;
        for _ in 0..4 {
            r.on_fill(5, valid, &mut repl, 0);
            saw_distant |= repl[0] == RRPV_MAX;
        }
        assert!(saw_distant);
        // Misses in the BRRIP leader set push back toward SRRIP.
        for _ in 0..30 {
            r.on_miss(1);
        }
        assert!(r.psel > 0);
    }

    #[test]
    fn random_orders_every_valid_way_exactly_once() {
        let mut r = Replacer::new(Policy::Random, 1, 8, 42);
        let (valid, repl) = set_of(8);
        let mut o = order(&mut r, 0, valid, &repl);
        o.sort_unstable();
        assert_eq!(o, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn random_is_seed_deterministic() {
        let (valid, repl) = set_of(8);
        let mut a = Replacer::new(Policy::Random, 1, 8, 7);
        let mut b = Replacer::new(Policy::Random, 1, 8, 7);
        assert_eq!(
            order(&mut a, 0, valid, &repl),
            order(&mut b, 0, valid, &repl)
        );
    }

    #[test]
    fn random_victim_consumes_rng_like_order() {
        // `victim` must draw from the RNG exactly as `order_into` does so
        // that mixing the two calls keeps runs deterministic.
        let (valid, repl) = set_of(8);
        let mut a = Replacer::new(Policy::Random, 1, 8, 9);
        let mut b = Replacer::new(Policy::Random, 1, 8, 9);
        let v = a.victim(0, valid, &repl);
        let o = order(&mut b, 0, valid, &repl);
        assert_eq!(v, o.first().copied());
        // Both replacers drew the same amount: their next picks agree too.
        assert_eq!(a.victim(0, valid, &repl), b.victim(0, valid, &repl));
    }

    #[test]
    fn plru_victim_avoids_recent_touch() {
        let mut r = Replacer::new(Policy::Plru, 1, 4, 0);
        let (valid, mut repl) = set_of(4);
        for w in 0..4 {
            r.on_fill(0, valid, &mut repl, w);
        }
        let v = r.victim(0, valid, &repl).unwrap();
        // The just-touched way 3 must not be the victim.
        assert_ne!(v, 3);
        // Touch the victim; the next victim differs.
        r.on_hit(0, valid, &mut repl, v);
        assert_ne!(r.victim(0, valid, &repl), Some(v));
    }

    #[test]
    fn plru_order_is_a_permutation() {
        let mut r = Replacer::new(Policy::Plru, 1, 8, 0);
        let (valid, mut repl) = set_of(8);
        for w in [0, 3, 5, 1, 7] {
            r.on_fill(0, valid, &mut repl, w);
        }
        let mut o = order(&mut r, 0, valid, &repl);
        o.sort_unstable();
        assert_eq!(o, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn plru_victim_matches_order_head_with_invalid_ways() {
        let mut r = Replacer::new(Policy::Plru, 1, 8, 0);
        let (_, mut repl) = set_of(8);
        let valid = mask(0b1011_0101); // holes in the leaf row
        for w in valid.iter() {
            r.on_fill(0, valid, &mut repl, w);
        }
        let o = order(&mut r, 0, valid, &repl);
        assert_eq!(o.len(), valid.count());
        assert_eq!(r.victim(0, valid, &repl), o.first().copied());
    }

    #[test]
    fn plru_works_at_64_ways() {
        // 64 leaves -> internal nodes 1..63, the whole tree word.
        let mut r = Replacer::new(Policy::Plru, 2, 64, 0);
        let (valid, mut repl) = set_of(64);
        for set in 0..2 {
            for w in 0..64 {
                r.on_fill(set, valid, &mut repl, w);
            }
            let mut o = order(&mut r, set, valid, &repl);
            assert_eq!(o.len(), 64);
            // The last touch (way 63) must be deepest in the order.
            assert_eq!(*o.last().unwrap(), 63);
            assert_eq!(r.victim(set, valid, &repl), o.first().copied());
            o.sort_unstable();
            assert_eq!(o, (0..64).collect::<Vec<_>>());
        }
        // Touching the victim moves it off the head.
        let v = r.victim(0, valid, &repl).unwrap();
        r.on_hit(0, valid, &mut repl, v);
        assert_ne!(r.victim(0, valid, &repl), Some(v));
    }

    #[test]
    fn order_skips_invalid_ways() {
        let mut r = Replacer::new(Policy::Lru, 1, 4, 0);
        let (_, mut repl) = set_of(4);
        let valid = mask(0b1011); // way 2 invalid
        for w in [0, 1, 3] {
            r.on_fill(0, valid, &mut repl, w);
        }
        let o = order(&mut r, 0, valid, &repl);
        assert_eq!(o.len(), 3);
        assert!(!o.contains(&2));
    }

    #[test]
    fn victim_none_when_all_invalid() {
        let mut r = Replacer::new(Policy::Nru, 1, 2, 0);
        let (_, repl) = set_of(2);
        assert_eq!(r.victim(0, WayMask::EMPTY, &repl), None);
    }

    #[test]
    fn promote_equals_hit_for_lru() {
        let mut a = Replacer::new(Policy::Lru, 1, 4, 0);
        let mut b = Replacer::new(Policy::Lru, 1, 4, 0);
        let (valid, mut ra) = set_of(4);
        let (_, mut rb) = set_of(4);
        for w in 0..4 {
            a.on_fill(0, valid, &mut ra, w);
            b.on_fill(0, valid, &mut rb, w);
        }
        a.on_hit(0, valid, &mut ra, 1);
        b.promote(0, valid, &mut rb, 1);
        assert_eq!(order(&mut a, 0, valid, &ra), order(&mut b, 0, valid, &rb));
    }
}

#[cfg(test)]
mod lip_tests {
    use super::*;
    use tla_types::LineAddr;

    fn set_of(n: usize) -> (WayMask, Vec<u64>) {
        (WayMask::all(n), vec![0; n])
    }

    #[test]
    fn lip_inserts_at_lru_end() {
        let mut r = Replacer::new(Policy::Lip, 1, 4, 0);
        let (valid, mut repl) = set_of(4);
        for w in 0..3 {
            r.on_hit(0, valid, &mut repl, w); // establish an LRU stack 0 < 1 < 2
        }
        r.on_fill(0, valid, &mut repl, 3);
        // The fresh fill must be the first victim.
        assert_eq!(r.victim(0, valid, &repl), Some(3));
        // A hit promotes it to MRU.
        r.on_hit(0, valid, &mut repl, 3);
        assert_eq!(r.victim(0, valid, &repl), Some(0));
    }

    #[test]
    fn bip_occasionally_inserts_at_mru() {
        let mut r = Replacer::new(Policy::Bip, 1, 2, 0);
        let (valid, mut repl) = set_of(2);
        r.on_hit(0, valid, &mut repl, 0);
        let mut saw_mru = false;
        for _ in 0..64 {
            r.on_fill(0, valid, &mut repl, 1);
            if r.victim(0, valid, &repl) == Some(0) {
                saw_mru = true; // the fill landed above way 0
            }
        }
        assert!(saw_mru, "BIP must sometimes insert at MRU");
    }

    #[test]
    fn dip_follows_the_winning_leader() {
        let mut r = Replacer::new(Policy::Dip, DUEL_MODULUS * 2, 4, 0);
        // Misses in the LRU leader set push PSEL negative -> BIP mode.
        for _ in 0..20 {
            r.on_miss(0);
        }
        assert!(r.psel < 0);
        let (valid, mut repl) = set_of(4);
        for w in 0..3 {
            r.on_hit(5, valid, &mut repl, w);
        }
        r.on_fill(5, valid, &mut repl, 3); // follower set, BIP mode, non-MRU fill
        assert_eq!(r.victim(5, valid, &repl), Some(3));
        // Misses in the BIP leader set vote back toward LRU.
        for _ in 0..40 {
            r.on_miss(1);
        }
        assert!(r.psel > 0);
        r.on_fill(5, valid, &mut repl, 3);
        assert_eq!(r.victim(5, valid, &repl), Some(0), "LRU mode fills at MRU");
    }

    #[test]
    fn lip_resists_thrash_where_lru_fails() {
        // Cyclic access to 5 lines through a 4-way set: LRU misses every
        // time; LIP retains a stable subset and hits.
        let run = |policy: Policy| {
            let cfg = crate::CacheConfig::with_sets("t", 1, 4, policy).unwrap();
            let mut cache = crate::SetAssocCache::new(cfg);
            let mut hits = 0;
            for i in 0..400u64 {
                let line = LineAddr::new(i % 5);
                if cache.touch(line).is_some() {
                    hits += 1;
                } else {
                    cache.fill(line, false);
                }
            }
            hits
        };
        assert_eq!(run(Policy::Lru), 0, "LRU thrashes the cycle");
        assert!(run(Policy::Lip) > 200, "LIP must retain a working subset");
    }
}
