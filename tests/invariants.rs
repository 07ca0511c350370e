//! Randomized invariant tests over the full hierarchy and its
//! substrates, driven by deterministic seeded access streams.
//!
//! Each test replays `CASES` independent streams from fixed seeds, so a
//! failure names the exact case to replay — the offline stand-in for the
//! proptest strategies this suite originally used.

use tla::cache::{CacheConfig, Policy, SetAssocCache};
use tla::core::{CacheHierarchy, HierarchyConfig, InclusionPolicy, TlaPolicy, VictimCacheConfig};
use tla::rng::SmallRng;
use tla::types::{AccessKind, CoreId, DataSource, LineAddr};

const CASES: u64 = 64;

/// A compact encoding of one access: (core, line, is_store).
type Access = (u8, u64, bool);

fn accesses(rng: &mut SmallRng, max_line: u64, max_len: usize) -> Vec<Access> {
    let len = rng.gen_range(1..max_len);
    (0..len)
        .map(|_| {
            (
                rng.gen_range(0u32..2) as u8,
                rng.gen_range(0..max_line),
                rng.gen_bool(0.5),
            )
        })
        .collect()
}

fn tla_policy(rng: &mut SmallRng) -> TlaPolicy {
    let all = [
        TlaPolicy::baseline(),
        TlaPolicy::tlh_l1(),
        TlaPolicy::tlh_l2(),
        TlaPolicy::eci(),
        TlaPolicy::qbs(),
        TlaPolicy::qbs_limited(1),
        TlaPolicy::qbs_invalidating(),
    ];
    all[rng.gen_range(0..all.len())]
}

fn drive(h: &mut CacheHierarchy, stream: &[Access]) {
    for &(core, line, store) in stream {
        let kind = if store {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        h.access(CoreId::new(core as usize), LineAddr::new(line), kind);
    }
}

/// The inclusion property, and the directory property QBS's query filter
/// relies on, hold after any access stream, under every TLA policy
/// (modified QBS included), with and without a victim cache.
#[test]
fn inclusion_invariant_holds() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1A_0000 + case);
        let stream = accesses(&mut rng, 64, 300);
        let tla = tla_policy(&mut rng);
        let mut cfg = HierarchyConfig::tiny_fig3().cores(2).tla(tla);
        if rng.gen_bool(0.5) {
            cfg = cfg.victim_cache(VictimCacheConfig { entries: 4 });
        }
        let mut h = CacheHierarchy::new(&cfg);
        drive(&mut h, &stream);
        assert_eq!(h.find_inclusion_violation(), None, "case {case}");
        assert_eq!(h.find_directory_violation(), None, "case {case}");
    }
}

/// The exclusion property (no line both LLC- and core-resident) holds
/// after any access stream.
#[test]
fn exclusion_invariant_holds() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1A_1000 + case);
        let stream = accesses(&mut rng, 64, 300);
        let cfg = HierarchyConfig::tiny_fig3()
            .cores(2)
            .inclusion_policy(InclusionPolicy::Exclusive);
        let mut h = CacheHierarchy::new(&cfg);
        drive(&mut h, &stream);
        assert_eq!(h.find_exclusion_violation(), None, "case {case}");
    }
}

/// Immediately after any access, re-accessing the same line from the
/// same core hits the L1 (coherence of the fill path).
#[test]
fn reaccess_is_always_an_l1_hit() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1A_2000 + case);
        let stream = accesses(&mut rng, 48, 200);
        let tla = tla_policy(&mut rng);
        let cfg = HierarchyConfig::tiny_fig3().cores(2).tla(tla);
        let mut h = CacheHierarchy::new(&cfg);
        for &(core, line, store) in &stream {
            let kind = if store {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            let core = CoreId::new(core as usize);
            h.access(core, LineAddr::new(line), kind);
            let again = h.access(core, LineAddr::new(line), AccessKind::Load);
            assert_eq!(again, DataSource::L1, "case {case}");
        }
    }
}

/// Per-core counters are internally consistent: misses never exceed
/// accesses at any level, and deeper levels see at most the misses of
/// the level above.
#[test]
fn stats_are_consistent() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1A_3000 + case);
        let stream = accesses(&mut rng, 96, 400);
        let tla = tla_policy(&mut rng);
        let cfg = HierarchyConfig::tiny_fig3().cores(2).tla(tla);
        let mut h = CacheHierarchy::new(&cfg);
        drive(&mut h, &stream);
        for c in 0..2 {
            let s = h.per_core_stats(CoreId::new(c));
            assert!(s.l1i_misses <= s.l1i_accesses, "case {case}");
            assert!(s.l1d_misses <= s.l1d_accesses, "case {case}");
            assert!(s.l2_misses <= s.l2_accesses, "case {case}");
            assert!(s.llc_misses <= s.llc_accesses, "case {case}");
            assert_eq!(s.l2_accesses, s.l1_misses(), "case {case}");
            assert_eq!(s.llc_accesses, s.l2_misses, "case {case}");
            assert!(s.memory_accesses <= s.llc_misses, "case {case}");
        }
    }
}

/// The hierarchy is deterministic: identical configurations and
/// streams produce identical statistics.
#[test]
fn hierarchy_is_deterministic() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1A_4000 + case);
        let stream = accesses(&mut rng, 64, 200);
        let tla = tla_policy(&mut rng);
        let cfg = HierarchyConfig::tiny_fig3().cores(2).tla(tla);
        let mut a = CacheHierarchy::new(&cfg);
        let mut b = CacheHierarchy::new(&cfg);
        drive(&mut a, &stream);
        drive(&mut b, &stream);
        for c in 0..2 {
            assert_eq!(
                a.per_core_stats(CoreId::new(c)),
                b.per_core_stats(CoreId::new(c)),
                "case {case}"
            );
        }
        assert_eq!(a.global_stats(), b.global_stats(), "case {case}");
    }
}

/// QBS only ever creates an inclusion victim by exhausting its query
/// budget (§III-C: "when the maximum is reached, the next victim line
/// is selected for replacement"). In this toy geometry every LLC way
/// can be core-resident, so the fallback does fire — but victims
/// without a recorded limit event would be a bug.
#[test]
fn qbs_victims_only_at_query_limit() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1A_5000 + case);
        let stream = accesses(&mut rng, 64, 400);
        let cfg = HierarchyConfig::tiny_fig3().cores(2).tla(TlaPolicy::qbs());
        let mut h = CacheHierarchy::new(&cfg);
        drive(&mut h, &stream);
        let victims: u64 = (0..2)
            .map(|c| h.per_core_stats(CoreId::new(c)).inclusion_victims())
            .sum();
        if victims > 0 {
            assert!(
                h.global_stats().qbs_limit_hits > 0,
                "case {case}: victims without a query-limit event"
            );
        }
    }
}

/// With a query budget covering the whole set, QBS creates no
/// inclusion victims as long as the LLC set is wide enough to hold
/// every core-resident line mapping to it (here: one core, 4-way LLC,
/// at most 2+2+2 core-resident lines but only 2 L1D + 2 L2 distinct
/// data lines per set in the worst case).
#[test]
fn qbs_protects_when_budget_allows() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1A_6000 + case);
        let stream = accesses(&mut rng, 16, 300);
        let cfg = HierarchyConfig::tiny_fig3().tla(TlaPolicy::qbs());
        let mut h = CacheHierarchy::new(&cfg);
        for &(_, line, store) in &stream {
            let kind = if store {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            h.access(CoreId::new(0), LineAddr::new(line), kind);
        }
        let s = h.per_core_stats(CoreId::new(0));
        if h.global_stats().qbs_limit_hits == 0 {
            assert_eq!(s.inclusion_victims(), 0, "case {case}");
        }
    }
}

/// Cache occupancy never exceeds capacity and probe/touch agree.
#[test]
fn cache_occupancy_bounded() {
    const POLICIES: [Policy; 8] = [
        Policy::Lru,
        Policy::Nru,
        Policy::Fifo,
        Policy::Random,
        Policy::Plru,
        Policy::Srrip,
        Policy::Brrip,
        Policy::Drrip,
    ];
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1A_7000 + case);
        let len = rng.gen_range(1usize..400);
        let lines: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..256)).collect();
        let policy = POLICIES[rng.gen_range(0..POLICIES.len())];
        let cfg = CacheConfig::with_sets("rand", 4, 4, policy).unwrap();
        let mut cache = SetAssocCache::new(cfg);
        for &l in &lines {
            let line = LineAddr::new(l);
            let probed = cache.probe(line);
            let touched = cache.touch(line).is_some();
            assert_eq!(probed, touched, "case {case}");
            if !touched {
                cache.fill(line, false);
            }
            assert!(cache.occupancy() <= 16, "case {case}");
            assert!(cache.probe(line), "case {case}");
        }
        let s = cache.stats();
        assert_eq!(s.demand_accesses, lines.len() as u64, "case {case}");
        assert_eq!(s.fills, s.demand_misses, "case {case}");
    }
}

/// The LRU policy implements stack inclusion: a hit under a smaller
/// LRU cache implies a hit under a bigger one (same set count).
#[test]
fn lru_is_a_stack_algorithm() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1A_8000 + case);
        let len = rng.gen_range(1usize..300);
        let lines: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..64)).collect();
        let mut small =
            SetAssocCache::new(CacheConfig::with_sets("small", 2, 2, Policy::Lru).unwrap());
        let mut big = SetAssocCache::new(CacheConfig::with_sets("big", 2, 4, Policy::Lru).unwrap());
        for &l in &lines {
            let line = LineAddr::new(l);
            let hit_small = small.touch(line).is_some();
            let hit_big = big.touch(line).is_some();
            assert!(
                !hit_small || hit_big,
                "case {case}: stack property violated at {l}"
            );
            if !hit_small {
                small.fill(line, false);
            }
            if !hit_big {
                big.fill(line, false);
            }
        }
    }
}
