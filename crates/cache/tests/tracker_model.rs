//! Differential test of [`VictimTracker`] against a hash-map model.
//!
//! The model is the straightforward implementation: a map from line to
//! its outstanding kill cause and a set of every line ever missed on,
//! serialized by sorting both. Seeded random sequences of `note_kill` and
//! `classify` drive the tracker and the model side by side over dense,
//! 64-line-strided and sparse random lines; every classification, both
//! counts and the serialized bytes must agree.

use std::collections::{HashMap, HashSet};
use tla_cache::{MissClass, VictimCause, VictimTracker};
use tla_rng::SmallRng;
use tla_snapshot::{Snapshot, SnapshotWriter};
use tla_types::LineAddr;

#[derive(Default)]
struct Model {
    killed: HashMap<u64, VictimCause>,
    seen: HashSet<u64>,
}

impl Model {
    fn note_kill(&mut self, line: u64, cause: VictimCause) {
        self.killed.insert(line, cause);
    }

    fn classify(&mut self, line: u64) -> MissClass {
        let first = self.seen.insert(line);
        match self.killed.remove(&line) {
            Some(cause) => MissClass::InclusionVictim(cause),
            None if first => MissClass::Cold,
            None => MissClass::Capacity,
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        let mut killed: Vec<(u64, u8)> = self.killed.iter().map(|(&l, c)| (l, c.index())).collect();
        killed.sort_unstable();
        w.write_u64(killed.len() as u64);
        for (line, cause) in killed {
            w.write_u64(line);
            w.write_u64(u64::from(cause));
        }
        let mut seen: Vec<u64> = self.seen.iter().copied().collect();
        seen.sort_unstable();
        w.write_u64(seen.len() as u64);
        for line in seen {
            w.write_u64(line);
        }
        w.finish()
    }
}

fn encode(t: &VictimTracker) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    t.write_state(&mut w);
    w.finish()
}

/// Drives both sides with `ops` random operations on lines drawn by
/// `line`, checking as it goes.
fn run(seed: u64, ops: usize, mut line: impl FnMut(&mut SmallRng) -> u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut tracker = VictimTracker::new();
    let mut model = Model::default();
    for op in 0..ops {
        let l = line(&mut rng);
        if rng.gen_range(0..3u64) == 0 {
            let cause = VictimCause::ALL[rng.gen_range(0..VictimCause::ALL.len())];
            tracker.note_kill(LineAddr::new(l), cause);
            model.note_kill(l, cause);
        } else {
            assert_eq!(
                tracker.classify(LineAddr::new(l)),
                model.classify(l),
                "seed {seed:#x}, op {op}, line {l:#x}"
            );
        }
        assert_eq!(tracker.pending_kills(), model.killed.len());
        assert_eq!(tracker.lines_seen(), model.seen.len());
        if op % 5_000 == 0 {
            assert_eq!(encode(&tracker), model.encode(), "seed {seed:#x}, op {op}");
        }
    }
    assert_eq!(encode(&tracker), model.encode(), "seed {seed:#x}");
}

#[test]
fn dense_lines_match_the_model() {
    // A few thousand consecutive lines, revisited often.
    run(0xD0, 40_000, |rng| 0x4_0000 + rng.gen_range(0..3_000u64));
}

#[test]
fn strided_lines_match_the_model() {
    // One line per 64-line page: every line has a page to itself.
    run(0x51, 40_000, |rng| 7 + 64 * rng.gen_range(0..2_000u64));
}

#[test]
fn sparse_lines_match_the_model() {
    // Random lines across the whole address space, plus a small hot set
    // so some of them recur.
    let mut hot = Vec::new();
    run(0x5A, 40_000, move |rng| {
        if hot.len() < 500 || rng.gen_range(0..2u64) == 0 {
            let l = rng.next_u64() >> rng.gen_range(0..58u64);
            if hot.len() < 500 {
                hot.push(l);
            }
            l
        } else {
            hot[rng.gen_range(0..hot.len())]
        }
    });
}
