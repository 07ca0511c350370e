//! Golden pin of the Belady MIN oracle.
//!
//! The acceptance bar for the analytics layer: on a recorded trace the
//! next-use oracle must agree exactly with the O(n^2) brute-force
//! reference, and its hit count is pinned as a literal so any change to
//! the replay (set mapping, tie-breaking, warm-cut semantics) fails
//! loudly instead of silently shifting every `gap_to_opt` column.

use tla_sim::{
    belady, belady_bruteforce, belady_sharded, mix_reference_stream, optimal_llc, SimConfig,
};
use tla_types::LineAddr;
use tla_workloads::{RecordedTrace, SpecApp, TraceSource};

/// The LLC-bound reference stream of one recorded thread: instruction
/// fetches deduplicated against the previous instruction's code line
/// (exactly like the simulator's fetch path), then the data reference.
fn reference_stream(trace: &RecordedTrace) -> Vec<LineAddr> {
    let mut refs = Vec::new();
    let mut last_code = None;
    for instr in trace.iter() {
        if last_code != Some(instr.code_line) {
            last_code = Some(instr.code_line);
            refs.push(instr.code_line);
        }
        if let Some(m) = instr.mem {
            refs.push(m.addr);
        }
    }
    refs
}

#[test]
fn min_oracle_hit_count_is_pinned_against_bruteforce() {
    // mcf at scale 64, instance 0, seed 1: pointer chasing with enough
    // reuse that MIN has real eviction decisions to make.
    let mut live = SpecApp::Mcf.trace(64, 0, 1);
    let trace = RecordedTrace::record(&mut live, 4_000);
    let refs = reference_stream(&trace);

    for (sets, ways, warm) in [(64usize, 4usize, 0usize), (16, 8, 0), (64, 4, 1_000)] {
        let fast = belady(&refs, warm, sets, ways);
        let slow = belady_bruteforce(&refs, warm, sets, ways);
        assert_eq!(
            fast, slow,
            "two-pass vs brute-force diverge at sets={sets} ways={ways} warm={warm}"
        );
        assert_eq!(fast.accesses, (refs.len() - warm) as u64);
        assert_eq!(fast.hits + fast.misses, fast.accesses);
    }

    // Golden pin: the exact MIN hit count on this recorded trace. If this
    // moves, the oracle's decisions moved — re-derive, don't re-bless.
    let pinned = belady(&refs, 0, 64, 4);
    assert_eq!(
        (pinned.accesses, pinned.hits, pinned.misses),
        (2010, 1912, 98)
    );
}

#[test]
fn replaying_the_recording_matches_the_live_stream() {
    // The recorded second pass sees the same instructions replay does.
    let mut live = SpecApp::Libquantum.trace(64, 0, 1);
    let mut trace = RecordedTrace::record(&mut live, 500);
    let via_iter: Vec<_> = trace.iter().copied().collect();
    let via_replay: Vec<_> = (0..500).map(|_| trace.next_instruction()).collect();
    assert_eq!(via_iter, via_replay);
}

#[test]
fn mix_oracle_is_pinned() {
    // The full analyze-path oracle: interleaved two-core stream replayed
    // against the scaled-down LLC geometry.
    let cfg = SimConfig::scaled_down().warmup(2_000).instructions(8_000);
    let apps = [SpecApp::Mcf, SpecApp::Libquantum];
    let (refs, warm_len) = mix_reference_stream(&cfg, &apps);
    assert!(warm_len > 0 && warm_len < refs.len());
    let opt = optimal_llc(&cfg, &apps, None);
    assert_eq!((opt.accesses, opt.hits, opt.misses), (8153, 7668, 485));
    // Replaying the same stream by hand agrees with the packaged helper.
    let hcfg = tla_core::HierarchyConfig::scaled(apps.len(), cfg.scale() as usize);
    let direct = belady(&refs, warm_len, hcfg.llc().sets(), hcfg.llc().ways());
    assert_eq!(
        (direct.accesses, direct.hits, direct.misses),
        (8153, 7668, 485)
    );
}

/// A seeded xorshift64 stream for a `sets x ways` cache: three quarters
/// of the references land in the first two sets, each over a pool of
/// about 1.5x `ways` lines, so even the widest geometry fills and evicts
/// within a few hundred references per way.
fn random_stream(seed: u64, sets: usize, ways: usize) -> Vec<LineAddr> {
    let mut state = seed;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let hot_sets = sets.min(2) as u64;
    let pool = (ways + ways / 2 + 2) as u64;
    (0..6 * ways + 200)
        .map(|_| {
            let r = next();
            let set = if r % 4 == 0 {
                (r >> 8) % sets as u64
            } else {
                (r >> 8) % hot_sets
            };
            LineAddr::new((r >> 32) % pool * sets as u64 + set)
        })
        .collect()
}

#[test]
fn next_use_replay_matches_bruteforce_on_random_streams() {
    for ways in [1usize, 2, 3, 16, 64, 256] {
        for sets in [1usize, 4, 64] {
            let refs = random_stream(0x9e37_79b9 ^ (ways * 131 + sets) as u64, sets, ways);
            for warm in [0, refs.len() / 2, refs.len()] {
                let slow = belady_bruteforce(&refs, warm, sets, ways);
                assert_eq!(
                    belady(&refs, warm, sets, ways),
                    slow,
                    "sets={sets} ways={ways} warm={warm}"
                );
                assert_eq!(
                    belady_sharded(&refs, warm, sets, ways, 3),
                    slow,
                    "sets={sets} ways={ways} warm={warm} jobs=3"
                );
            }
        }
    }
}

#[test]
fn mix_oracle_matches_bruteforce_over_the_stored_stream() {
    let apps = [SpecApp::Mcf, SpecApp::Libquantum];
    for scale in [1u64, 8] {
        let cfg = SimConfig::scaled_down()
            .with_scale(scale)
            .warmup(200)
            .instructions(500);
        let (refs, warm_len) = mix_reference_stream(&cfg, &apps);
        // The default LLC, then a 64 KB one (8 sets at scale 8) that evicts.
        for capacity in [None, Some(64 * 1024)] {
            let mut hcfg = tla_core::HierarchyConfig::scaled(apps.len(), scale as usize);
            if let Some(bytes) = capacity {
                hcfg = hcfg.llc_capacity(bytes / scale as usize);
            }
            let (sets, ways) = (hcfg.llc().sets(), hcfg.llc().ways());
            let slow = belady_bruteforce(&refs, warm_len, sets, ways);
            for jobs in [1, 2, 7] {
                let opt = optimal_llc(&cfg.clone().shard_jobs(jobs), &apps, capacity);
                assert_eq!(opt, slow, "scale={scale} capacity={capacity:?} jobs={jobs}");
            }
        }
    }
}
