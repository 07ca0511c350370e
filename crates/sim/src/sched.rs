//! Core interleaving: pick the core with the smallest local clock.
//!
//! The run loop steps one core per iteration, always the one whose local
//! cycle clock is furthest behind, so shared-LLC access order is
//! timestamp-accurate (§IV-B). A linear `min_by_key` scan costs
//! O(n_cores) per committed instruction — quadratic in total work for the
//! 8-core Figure 11 sweeps — so the scheduler keeps the clocks in a
//! binary min-heap instead: O(log n) per step and exactly the same pick
//! order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tla_types::Cycle;

/// Index min-heap over per-core clocks.
///
/// The top is the core with the smallest `(clock, index)` pair, which
/// matches the tie-break of `(0..n).min_by_key(|i| clock[i])` exactly:
/// among equal clocks the lowest core index runs first. Every core keeps
/// exactly one heap entry. The picked core stays at the top while it
/// steps ([`CoreScheduler::pick`] only reads it), and
/// [`CoreScheduler::reinsert`] overwrites the top with the updated clock
/// and sifts it down once — one sift instead of a pop plus a push.
#[derive(Debug, Clone)]
pub(crate) struct CoreScheduler {
    heap: BinaryHeap<Reverse<(Cycle, usize)>>,
}

impl CoreScheduler {
    /// A scheduler over cores with the given initial clocks.
    pub fn new(clocks: impl IntoIterator<Item = Cycle>) -> Self {
        CoreScheduler {
            heap: clocks
                .into_iter()
                .enumerate()
                .map(|(i, c)| Reverse((c, i)))
                .collect(),
        }
    }

    /// The index of the core that must step next (smallest clock, ties to
    /// the lowest index). It stays at the top of the heap until
    /// [`CoreScheduler::reinsert`] updates its clock.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler has no cores.
    pub fn pick(&self) -> usize {
        let Reverse((_, i)) = self.heap.peek().expect("scheduler has a core");
        *i
    }

    /// The smallest `(clock, index)` pair below the picked core — the
    /// run-extraction horizon: the picked core may keep committing
    /// back-to-back while its updated `(clock, index)` stays
    /// lexicographically below this pair, because every other core's entry
    /// is at least this large and unchanged. In a binary heap that pair is
    /// the smaller of the top's two children.
    ///
    /// `None` when the picked core is the only entry (single-core runs).
    pub fn horizon(&self) -> Option<(Cycle, usize)> {
        let children = self.heap.as_slice().iter().skip(1).take(2);
        children.map(|&Reverse(pair)| pair).min()
    }

    /// Returns the picked core `i` to the schedule with its updated clock:
    /// overwrites the top entry and sifts it down.
    pub fn reinsert(&mut self, i: usize, clock: Cycle) {
        let mut top = self.heap.peek_mut().expect("scheduler has a core");
        debug_assert_eq!(top.0 .1, i, "reinsert of a core that was not picked");
        *top = Reverse((clock, i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact pick the run loop used before the heap existed.
    fn scan_pick(clocks: &[Cycle]) -> usize {
        (0..clocks.len())
            .min_by_key(|&i| clocks[i])
            .expect("at least one core")
    }

    #[test]
    fn matches_linear_scan_including_ties() {
        // Deterministic pseudo-random clock advances (no external RNG):
        // exercise long tie runs and uneven progress over many steps.
        let n = 8;
        let mut clocks: Vec<Cycle> = vec![0; n];
        let mut sched = CoreScheduler::new(clocks.iter().copied());
        let mut state: u64 = 0x1234_5678_9ABC_DEF0;
        for step in 0..10_000 {
            let expected = scan_pick(&clocks);
            let picked = sched.pick();
            assert_eq!(picked, expected, "step {step}: clocks {clocks:?}");
            // xorshift64 advance; frequent zero increments create ties.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            clocks[picked] += state % 4;
            sched.reinsert(picked, clocks[picked]);
        }
    }

    #[test]
    fn ties_break_toward_lowest_index() {
        let mut sched = CoreScheduler::new([5, 5, 5, 5]);
        assert_eq!(sched.pick(), 0);
        sched.reinsert(0, 5);
        // Core 0 re-enters at the same clock: it still wins the tie.
        assert_eq!(sched.pick(), 0);
        sched.reinsert(0, 6);
        assert_eq!(sched.pick(), 1);
        sched.reinsert(1, 9);
        assert_eq!(sched.pick(), 2);
        sched.reinsert(2, 9);
        assert_eq!(sched.pick(), 3);
        sched.reinsert(3, 9);
        // 0 at 6 now leads 1..3 at 9.
        assert_eq!(sched.pick(), 0);
    }

    #[test]
    fn single_core_always_picks_zero() {
        let mut sched = CoreScheduler::new([0]);
        for c in 1..100 {
            assert_eq!(sched.pick(), 0);
            sched.reinsert(0, c);
        }
    }

    #[test]
    fn horizon_is_the_next_minimum_and_pick_does_not_remove() {
        let mut sched = CoreScheduler::new([7, 3, 5]);
        assert_eq!(sched.pick(), 1);
        // Below the picked core the horizon is the next-smallest entry.
        assert_eq!(sched.horizon(), Some((5, 2)));
        assert_eq!(sched.pick(), 1, "pick must not consume");
        assert_eq!(sched.horizon(), Some((5, 2)), "horizon must not consume");
        sched.reinsert(1, 9);
        // Core 1 sank below core 2; core 0 at 7 is now the horizon.
        assert_eq!(sched.pick(), 2);
        assert_eq!(sched.horizon(), Some((7, 0)));
        // Two entries: the horizon is the single child.
        let pair = CoreScheduler::new([4, 2]);
        assert_eq!(pair.pick(), 1);
        assert_eq!(pair.horizon(), Some((4, 0)));
        // A single-core scheduler has no horizon.
        let solo = CoreScheduler::new([0]);
        assert_eq!(solo.pick(), 0);
        assert_eq!(solo.horizon(), None);
    }

    /// The batched engine's run extraction: pick a core, keep committing
    /// on it while its updated `(clock, index)` stays below the
    /// [`horizon`], then reinsert. The commit order must equal the serial
    /// pick-one-reinsert loop's order exactly, ties included. With nine
    /// entries the horizon is read from a heap three levels deep.
    ///
    /// [`horizon`]: CoreScheduler::horizon
    #[test]
    fn run_extraction_matches_serial_commit_order() {
        let n = 9;
        // Clock advance as a pure function of (core, per-core commit
        // count), so both schedules see identical advances. Zero advances
        // are frequent, exercising tie territory.
        let adv = |i: usize, k: u64| {
            let mut s = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k;
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % 4
        };
        let total = 20_000;

        // Serial reference order.
        let mut clocks: Vec<Cycle> = vec![0; n];
        let mut count = vec![0u64; n];
        let mut serial = Vec::with_capacity(total);
        for _ in 0..total {
            let i = scan_pick(&clocks);
            clocks[i] += adv(i, count[i]);
            count[i] += 1;
            serial.push(i);
        }

        // Run-extraction order.
        let mut clocks: Vec<Cycle> = vec![0; n];
        let mut count = vec![0u64; n];
        let mut extracted = Vec::with_capacity(total);
        let mut sched = CoreScheduler::new(clocks.iter().copied());
        while extracted.len() < total {
            let i = sched.pick();
            let horizon = sched.horizon();
            let others = (0..n).filter(|&j| j != i).map(|j| (clocks[j], j));
            assert_eq!(horizon, others.min(), "horizon is the smallest other entry");
            loop {
                clocks[i] += adv(i, count[i]);
                count[i] += 1;
                extracted.push(i);
                if extracted.len() == total {
                    break;
                }
                match horizon {
                    Some(h) if (clocks[i], i) < h => {}
                    Some(_) => break,
                    None => {}
                }
            }
            sched.reinsert(i, clocks[i]);
        }
        assert_eq!(serial, extracted);
    }
}
