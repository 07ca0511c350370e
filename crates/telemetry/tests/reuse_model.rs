//! Differential test of [`ReuseProfiler`] against an ordered-map model.
//!
//! The model is the straightforward implementation: a clock per sampled
//! set and a `BTreeMap` from `(set, line)` to the clock of the pair's
//! previous access. Seeded streams drive the profiler and the model side
//! by side over dense, strided, same-set, diagonal (stride `sets + 1`)
//! and near-2^64 lines, and over events whose set disagrees with the
//! line, at several sampling strides and set counts from 1 to 4096;
//! the global and every per-set histogram must agree.

use std::collections::BTreeMap;
use tla_rng::SmallRng;
use tla_telemetry::{EventKind, ReuseHistogram, ReuseProfiler, TelemetryEvent, TelemetrySink};
use tla_types::LineAddr;

const BUCKETS: usize = 20;

struct Model {
    sets: u32,
    sample_every: u32,
    clocks: BTreeMap<u32, u64>,
    last: BTreeMap<(u32, u64), u64>,
    per_set: BTreeMap<u32, ReuseHistogram>,
    global: ReuseHistogram,
}

impl Model {
    fn new(sets: u32, sample_every: u32) -> Model {
        Model {
            sets,
            sample_every,
            clocks: BTreeMap::new(),
            last: BTreeMap::new(),
            per_set: (0..sets)
                .step_by(sample_every as usize)
                .map(|s| (s, ReuseHistogram::new(BUCKETS)))
                .collect(),
            global: ReuseHistogram::new(BUCKETS),
        }
    }

    fn record(&mut self, set: u32, line: u64) {
        if set >= self.sets || !set.is_multiple_of(self.sample_every) {
            return;
        }
        let clock = self.clocks.entry(set).or_default();
        let now = *clock;
        *clock += 1;
        let hist = self.per_set.get_mut(&set).unwrap();
        match self.last.insert((set, line), now) {
            Some(prev) => {
                hist.record(now - prev - 1);
                self.global.record(now - prev - 1);
            }
            None => {
                hist.record_cold();
                self.global.record_cold();
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    Dense,
    Strided,
    SameSet,
    Diagonal,
    NearTop,
    /// Dense lines, each event naming a random set (a few past the last).
    Disagreeing,
}

/// `n` distinct lines of `shape` over `sets` sets, starting at a line of
/// set `home` (so a stride of `sets` keeps to it) or, for `NearTop`,
/// at the last such line below 2^64.
fn footprint(shape: Shape, sets: u64, home: u64, n: u64, rng: &mut SmallRng) -> Vec<u64> {
    let base = rng.gen_range(0..1u64 << 40) / sets * sets + home;
    let top = u64::MAX - (u64::MAX % sets + sets - home) % sets;
    (0..n)
        .map(|i| match shape {
            Shape::Dense | Shape::Disagreeing => base + i,
            Shape::Strided => base + i * [2, 64, 1000, 1 << 20][(base / sets % 4) as usize],
            Shape::SameSet => base + i * sets,
            Shape::Diagonal => base + i * (sets + 1),
            Shape::NearTop => top - i * [1, sets][(base / sets % 2) as usize],
        })
        .collect()
}

fn access(set: u32, line: u64) -> TelemetryEvent {
    TelemetryEvent::global(EventKind::LlcAccess, 0)
        .with_set(set)
        .with_addr(LineAddr::new(line))
}

#[test]
fn profiler_matches_an_ordered_map_model() {
    let mut rng = SmallRng::seed_from_u64(0x5e75_a7e5);
    let shapes = [
        Shape::Dense,
        Shape::Strided,
        Shape::SameSet,
        Shape::Diagonal,
        Shape::NearTop,
        Shape::Disagreeing,
    ];
    for sets in [1u32, 3, 8, 64, 100, 4096] {
        for sample_every in [1u32, 3, 4, 7, sets + 1] {
            for shape in shapes {
                let home = (sets - 1) / sample_every * sample_every;
                let n = 300 + 2 * u64::from(sets);
                let lines = footprint(shape, u64::from(sets), u64::from(home), n, &mut rng);
                let mut profiler = ReuseProfiler::new(sets as usize, sample_every, BUCKETS);
                let mut model = Model::new(sets, sample_every);
                let mut recent = Vec::new();
                for _ in 0..5_000 {
                    // Mostly re-touch a recent line, so distances spread
                    // over many buckets; sometimes reach anywhere.
                    let line = if !recent.is_empty() && rng.gen_bool(0.7) {
                        recent[rng.gen_range(0..recent.len())]
                    } else {
                        lines[rng.gen_range(0..lines.len())]
                    };
                    if recent.len() < 64 {
                        recent.push(line);
                    } else {
                        recent[rng.gen_range(0..64usize)] = line;
                    }
                    let set = match shape {
                        Shape::Disagreeing => rng.gen_range(0..sets + 2),
                        _ => (line % u64::from(sets)) as u32,
                    };
                    profiler.record(&access(set, line));
                    model.record(set, line);
                }
                let what = format!("{sets} sets, every {sample_every}, {shape:?}");
                assert_eq!(profiler.global(), &model.global, "{what}");
                assert!(
                    model.global.total() > 0 || sample_every > sets,
                    "{what}: no reuse"
                );
                let per_set: Vec<(u32, &ReuseHistogram)> = profiler.per_set().collect();
                let expect: Vec<(u32, &ReuseHistogram)> =
                    model.per_set.iter().map(|(&s, h)| (s, h)).collect();
                assert_eq!(per_set, expect, "{what}");
            }
        }
    }
}
