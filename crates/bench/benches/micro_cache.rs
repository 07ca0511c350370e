//! Micro-benchmarks of the simulator's hot paths: raw cache access
//! throughput per replacement policy, hierarchy access under each TLA
//! policy (with and without a telemetry sink), and end-to-end simulation
//! rate. Timed with the in-repo [`tla_bench::time_it`] harness.
//!
//! `TLA_BENCH_MS=<n>` sets the per-benchmark measuring time
//! (default 200 ms).

use std::hint::black_box;
use tla_bench::{time_it, Measurement};
use tla_cache::{CacheConfig, Policy, SetAssocCache};
use tla_core::{CacheHierarchy, HierarchyConfig, TlaPolicy};
use tla_sim::{MixRun, SimConfig};
use tla_telemetry::NullSink;
use tla_types::{AccessKind, CoreId, LineAddr};
use tla_workloads::SpecApp;

fn target_millis() -> u64 {
    std::env::var("TLA_BENCH_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200)
}

fn bench_cache_access(ms: u64) -> Vec<Measurement> {
    [
        Policy::Lru,
        Policy::Nru,
        Policy::Srrip,
        Policy::Plru,
        Policy::Random,
    ]
    .iter()
    .map(|&policy| {
        let cfg = CacheConfig::new("bench", 256 * 1024, 16, policy).unwrap();
        let mut cache = SetAssocCache::new(cfg);
        let mut i = 0u64;
        let m = time_it(&format!("cache_access/touch_fill/{policy}"), ms, || {
            let line = LineAddr::new(i.wrapping_mul(0x9E37_79B9) % 8192);
            if cache.touch(line).is_none() {
                cache.fill(line, false);
            }
            i += 1;
        });
        black_box(cache.occupancy());
        m
    })
    .collect()
}

fn bench_hierarchy_access(ms: u64, with_sink: bool) -> Vec<Measurement> {
    let suffix = if with_sink { "+sink" } else { "" };
    [
        ("baseline", TlaPolicy::baseline()),
        ("tlh_l1", TlaPolicy::tlh_l1()),
        ("eci", TlaPolicy::eci()),
        ("qbs", TlaPolicy::qbs()),
    ]
    .iter()
    .map(|&(label, tla)| {
        let cfg = HierarchyConfig::scaled(2, 8).tla(tla);
        let mut h = CacheHierarchy::new(&cfg);
        if with_sink {
            h.set_sink(NullSink);
        }
        let mut i = 0u64;
        let m = time_it(
            &format!("hierarchy_access/policy/{label}{suffix}"),
            ms,
            || {
                let core = CoreId::new((i % 2) as usize);
                let line = LineAddr::new(i.wrapping_mul(0x9E37_79B9) % 16384);
                h.access(core, line, AccessKind::Load);
                i += 1;
            },
        );
        black_box(h.global_stats().back_invalidates);
        m
    })
    .collect()
}

/// Per-scan cost of each probe kernel at representative widths: the L2's
/// 8 ways, the LLC's 16 ways and the 64-way cap of the one-word masks
/// (wider victim-cache scans are 64-entry chunks of these). The needle
/// mostly misses (as real probes do); `black_box` on both inputs keeps the
/// compiler from specializing a kernel to the fixed array.
fn bench_probe_kernels(ms: u64) -> Vec<Measurement> {
    use tla_cache::probe::{probe_naive, probe_portable, ProbeFn};
    let mut out = Vec::new();
    for &ways in &[8usize, 16, 64] {
        let addrs: Vec<LineAddr> = (0..ways as u64)
            .map(|i| LineAddr::new(i * 64 + 7))
            .collect();
        let mut kernels: Vec<(&str, ProbeFn)> =
            vec![("naive", probe_naive), ("scalar4", probe_portable)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            kernels.push(("avx2", tla_cache::probe::probe_avx2));
        }
        for (name, func) in kernels {
            let mut i = 0u64;
            let m = time_it(&format!("probe/{name}/ways{ways}"), ms, || {
                let needle = LineAddr::new(i.wrapping_mul(0x9E37_79B9) % (ways as u64 * 64));
                black_box(func(black_box(&addrs), needle));
                i += 1;
            });
            out.push(m);
        }
    }
    out
}

fn bench_end_to_end(ms: u64) -> Measurement {
    let cfg = SimConfig::scaled_down().instructions(25_000);
    time_it("end_to_end/mix_25k_instr_per_thread", ms, || {
        let r = MixRun::new(&cfg, &[SpecApp::Sjeng, SpecApp::Libquantum])
            .policy(TlaPolicy::qbs())
            .run();
        black_box(r.throughput());
    })
}

fn main() {
    let ms = target_millis();
    eprintln!("[micro_cache] measuring {ms} ms per benchmark");
    let mut results = bench_cache_access(ms);
    results.extend(bench_probe_kernels(ms));
    results.extend(bench_hierarchy_access(ms, false));
    results.extend(bench_hierarchy_access(ms, true));
    results.push(bench_end_to_end(ms));
    for m in &results {
        println!("{}", m.line());
    }
}
