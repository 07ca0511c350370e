//! Hierarchy configuration.

use crate::policy::TlaPolicy;
use std::fmt;
use tla_cache::{CacheConfig, ConfigError, Policy, StreamPrefetcherConfig};

/// Inclusion relationship between the core caches and the LLC.
///
/// The L2 is always non-inclusive with respect to the L1s, as in the Intel
/// Core i7 the paper models (§IV-A footnote 3); this enum controls the
/// LLC's behaviour only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InclusionPolicy {
    /// Core-cache contents must be a subset of the LLC; LLC evictions
    /// back-invalidate the core caches.
    #[default]
    Inclusive,
    /// LLC evictions leave core-cache copies alone; dirty core-cache
    /// victims re-allocate in the LLC.
    NonInclusive,
    /// Lines live in the core caches *or* the LLC: fills bypass the LLC,
    /// LLC hits move the line up and invalidate the LLC copy, and core
    /// victims (clean or dirty) are inserted into the LLC.
    Exclusive,
}

impl fmt::Display for InclusionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InclusionPolicy::Inclusive => "inclusive",
            InclusionPolicy::NonInclusive => "non-inclusive",
            InclusionPolicy::Exclusive => "exclusive",
        };
        f.write_str(s)
    }
}

/// Configuration of the optional LLC victim cache (§VI comparison).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VictimCacheConfig {
    /// Entries in the fully-associative victim cache (paper: 32).
    pub entries: usize,
}

impl Default for VictimCacheConfig {
    fn default() -> Self {
        VictimCacheConfig { entries: 32 }
    }
}

/// Configuration of DDIO-style device injection into the LLC.
///
/// Device (DMA) traffic allocates directly in the LLC without touching the
/// core caches. `inject_ways` bounds which ways device fills may claim
/// (Intel DDIO restricts injection to 2 of the LLC's ways by default);
/// `partition` additionally excludes those ways from demand fills, giving a
/// static app/IO way partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoInjectConfig {
    /// Number of I/O agents injecting traffic (stats are tracked per agent).
    pub agents: usize,
    /// If set, device fills may only allocate into the first `n` LLC ways.
    pub inject_ways: Option<usize>,
    /// If `true`, demand (app) fills are excluded from the injection ways,
    /// making the way split a hard partition. Requires `inject_ways`.
    pub partition: bool,
}

/// Full configuration of a [`CacheHierarchy`](crate::CacheHierarchy).
///
/// Construct with a preset ([`HierarchyConfig::paper_baseline`] or
/// [`HierarchyConfig::scaled`]) and refine with the chainable setters.
///
/// # Examples
///
/// ```
/// use tla_core::{HierarchyConfig, InclusionPolicy, TlaPolicy};
///
/// let cfg = HierarchyConfig::paper_baseline(2)
///     .tla(TlaPolicy::qbs())
///     .llc_capacity(4 * 1024 * 1024);
/// assert_eq!(cfg.num_cores(), 2);
/// assert_eq!(cfg.inclusion(), InclusionPolicy::Inclusive);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyConfig {
    num_cores: usize,
    l1i: CacheConfig,
    l1d: CacheConfig,
    l2: CacheConfig,
    llc: CacheConfig,
    inclusion: InclusionPolicy,
    tla: TlaPolicy,
    victim_cache: Option<VictimCacheConfig>,
    prefetcher: Option<StreamPrefetcherConfig>,
    io: Option<IoInjectConfig>,
    seed: u64,
}

const KB: usize = 1024;
const MB: usize = 1024 * 1024;

impl HierarchyConfig {
    /// The paper's baseline (§IV-A): per-core 4-way 32 KB L1I and L1D,
    /// 8-way 256 KB unified L2; shared 16-way 2 MB NRU LLC; stream
    /// prefetcher on.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero or exceeds
    /// [`CoreId::MAX_CORES`](tla_types::CoreId::MAX_CORES).
    pub fn paper_baseline(num_cores: usize) -> Self {
        Self::scaled(num_cores, 1)
    }

    /// The paper's baseline with every capacity divided by `scale`
    /// (associativities, line size and all capacity *ratios* unchanged).
    /// `scale = 8` is the configuration `tla-cli` uses by default.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is out of range or `scale` does not evenly
    /// divide the geometries (use powers of two up to 8).
    pub fn scaled(num_cores: usize, scale: usize) -> Self {
        assert!(
            (1..=tla_types::CoreId::MAX_CORES).contains(&num_cores),
            "core count {num_cores} out of range"
        );
        let geom = |name: &str, capacity: usize, ways: usize, policy: Policy| {
            CacheConfig::new(name, capacity, ways, policy)
                .unwrap_or_else(|e| panic!("invalid scaled geometry for {name}: {e}"))
        };
        HierarchyConfig {
            num_cores,
            l1i: geom("L1I", 32 * KB / scale, 4, Policy::Lru),
            l1d: geom("L1D", 32 * KB / scale, 4, Policy::Lru),
            l2: geom("L2", 256 * KB / scale, 8, Policy::Lru),
            llc: geom("LLC", 2 * MB / scale, 16, Policy::Nru),
            inclusion: InclusionPolicy::Inclusive,
            tla: TlaPolicy::Baseline,
            victim_cache: None,
            prefetcher: Some(StreamPrefetcherConfig::default()),
            io: None,
            seed: 0x71a_cafe,
        }
    }

    /// The Figure 3 teaching configuration: a single core with a 2-entry
    /// fully-associative L1 (I and D), a 2-entry L2 and a 4-entry
    /// fully-associative LRU LLC, no prefetcher. Small enough to trace by
    /// hand.
    pub fn tiny_fig3() -> Self {
        let line = tla_types::LINE_BYTES;
        let fa = |name: &str, lines: usize| {
            CacheConfig::new(name, lines * line, lines, Policy::Lru).expect("valid tiny geometry")
        };
        HierarchyConfig {
            num_cores: 1,
            l1i: fa("L1I", 2),
            l1d: fa("L1D", 2),
            l2: fa("L2", 2),
            llc: fa("LLC", 4),
            inclusion: InclusionPolicy::Inclusive,
            tla: TlaPolicy::Baseline,
            victim_cache: None,
            prefetcher: None,
            io: None,
            seed: 0x71a_cafe,
        }
    }

    /// Sets the number of cores sharing the LLC.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds
    /// [`CoreId::MAX_CORES`](tla_types::CoreId::MAX_CORES).
    #[must_use]
    pub fn cores(mut self, n: usize) -> Self {
        assert!(
            (1..=tla_types::CoreId::MAX_CORES).contains(&n),
            "core count {n} out of range"
        );
        self.num_cores = n;
        self
    }

    /// Sets the inclusion policy.
    #[must_use]
    pub fn inclusion_policy(mut self, inclusion: InclusionPolicy) -> Self {
        self.inclusion = inclusion;
        self
    }

    /// Sets the TLA management policy.
    #[must_use]
    pub fn tla(mut self, tla: TlaPolicy) -> Self {
        self.tla = tla;
        self
    }

    /// Replaces the LLC capacity (keeping 16 ways and the NRU policy) —
    /// used by the Figure 2 / Figure 10 cache-ratio sweeps.
    ///
    /// # Panics
    ///
    /// Panics if the capacity does not form a valid 16-way geometry.
    #[must_use]
    pub fn llc_capacity(mut self, bytes: usize) -> Self {
        self.llc = CacheConfig::new("LLC", bytes, self.llc.ways(), self.llc.policy())
            .expect("invalid LLC capacity");
        self
    }

    /// Replaces the LLC replacement policy (footnote-4 ablation).
    ///
    /// # Panics
    ///
    /// Panics if the policy is incompatible with the LLC geometry.
    #[must_use]
    pub fn llc_policy(mut self, policy: Policy) -> Self {
        self.llc = self.llc.with_policy(policy).expect("invalid LLC policy");
        self
    }

    /// Attaches a victim cache behind the LLC.
    #[must_use]
    pub fn victim_cache(mut self, vc: VictimCacheConfig) -> Self {
        self.victim_cache = Some(vc);
        self
    }

    /// Enables or disables the L2 stream prefetcher (Table I is measured
    /// with it off).
    #[must_use]
    pub fn prefetcher(mut self, pf: Option<StreamPrefetcherConfig>) -> Self {
        self.prefetcher = pf;
        self
    }

    /// Enables DDIO-style device injection into the LLC.
    ///
    /// # Panics
    ///
    /// Panics if `inject_ways` is zero or exceeds the LLC associativity, or
    /// if `partition` is requested without an injection-way limit.
    #[must_use]
    pub fn io(mut self, io: IoInjectConfig) -> Self {
        if let Some(w) = io.inject_ways {
            assert!(
                (1..=self.llc.ways()).contains(&w),
                "inject_ways {w} out of range for a {}-way LLC",
                self.llc.ways()
            );
            assert!(
                !io.partition || w < self.llc.ways(),
                "partitioning all {w} LLC ways to I/O leaves no app ways"
            );
        } else {
            assert!(!io.partition, "partition requires an injection-way limit");
        }
        self.io = Some(io);
        self
    }

    /// Sets the deterministic seed for policy randomness (TLH filtering,
    /// Random replacement).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides all four cache geometries.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] among the arguments (none can
    /// occur — geometries are validated at construction — but the method
    /// revalidates PLRU compatibility).
    pub fn geometries(
        mut self,
        l1i: CacheConfig,
        l1d: CacheConfig,
        l2: CacheConfig,
        llc: CacheConfig,
    ) -> Result<Self, ConfigError> {
        self.l1i = l1i;
        self.l1d = l1d;
        self.l2 = l2;
        self.llc = llc;
        Ok(self)
    }

    /// Number of cores sharing the LLC.
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// L1 instruction-cache geometry.
    pub fn l1i(&self) -> &CacheConfig {
        &self.l1i
    }

    /// L1 data-cache geometry.
    pub fn l1d(&self) -> &CacheConfig {
        &self.l1d
    }

    /// L2 geometry.
    pub fn l2(&self) -> &CacheConfig {
        &self.l2
    }

    /// LLC geometry.
    pub fn llc(&self) -> &CacheConfig {
        &self.llc
    }

    /// Inclusion policy.
    pub fn inclusion(&self) -> InclusionPolicy {
        self.inclusion
    }

    /// TLA policy.
    pub fn tla_policy(&self) -> TlaPolicy {
        self.tla
    }

    /// Victim-cache configuration, if enabled.
    pub fn victim_cache_config(&self) -> Option<VictimCacheConfig> {
        self.victim_cache
    }

    /// Prefetcher configuration, if enabled.
    pub fn prefetcher_config(&self) -> Option<StreamPrefetcherConfig> {
        self.prefetcher
    }

    /// Device-injection configuration, if enabled.
    pub fn io_config(&self) -> Option<IoInjectConfig> {
        self.io
    }

    /// Policy randomness seed.
    pub fn seed_value(&self) -> u64 {
        self.seed
    }

    /// Total core-cache bytes per core (L1I + L1D + L2).
    pub fn core_cache_bytes(&self) -> usize {
        self.l1i.capacity_bytes() + self.l1d.capacity_bytes() + self.l2.capacity_bytes()
    }

    /// The paper's "cache ratio": total core-cache capacity across all
    /// cores over LLC capacity (e.g. 1:4 for the 2-core baseline).
    pub fn cache_ratio(&self) -> f64 {
        self.num_cores as f64 * self.core_cache_bytes() as f64 / self.llc.capacity_bytes() as f64
    }
}

impl fmt::Display for HierarchyConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cores, {} / {} / {} / {}, {} LLC, {}",
            self.num_cores, self.l1i, self.l1d, self.l2, self.llc, self.inclusion, self.tla
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_baseline_matches_section_iv() {
        let cfg = HierarchyConfig::paper_baseline(2);
        assert_eq!(cfg.l1i().capacity_bytes(), 32 * KB);
        assert_eq!(cfg.l1i().ways(), 4);
        assert_eq!(cfg.l1d().capacity_bytes(), 32 * KB);
        assert_eq!(cfg.l2().capacity_bytes(), 256 * KB);
        assert_eq!(cfg.l2().ways(), 8);
        assert_eq!(cfg.llc().capacity_bytes(), 2 * MB);
        assert_eq!(cfg.llc().ways(), 16);
        assert_eq!(cfg.llc().policy(), Policy::Nru);
        assert!(cfg.prefetcher_config().is_some());
    }

    #[test]
    fn scaled_preserves_ratios() {
        let full = HierarchyConfig::paper_baseline(2);
        let eighth = HierarchyConfig::scaled(2, 8);
        assert!((full.cache_ratio() - eighth.cache_ratio()).abs() < 1e-12);
        assert_eq!(eighth.llc().capacity_bytes(), 256 * KB);
        assert_eq!(eighth.l1d().capacity_bytes(), 4 * KB);
    }

    #[test]
    fn baseline_cache_ratio_is_one_quarter() {
        // 2 cores x (32+32+256) KB = 640 KB vs 2 MB LLC ~ 0.31 (the paper
        // rounds the L2:LLC ratio to 1:4).
        let cfg = HierarchyConfig::paper_baseline(2);
        let r = cfg.cache_ratio();
        assert!(r > 0.25 && r < 0.35, "ratio {r}");
    }

    #[test]
    fn llc_capacity_override() {
        let cfg = HierarchyConfig::paper_baseline(2).llc_capacity(8 * MB);
        assert_eq!(cfg.llc().capacity_bytes(), 8 * MB);
        assert_eq!(cfg.llc().ways(), 16);
    }

    #[test]
    fn tiny_fig3_geometry() {
        let cfg = HierarchyConfig::tiny_fig3();
        assert_eq!(cfg.l1d().sets(), 1);
        assert_eq!(cfg.l1d().ways(), 2);
        assert_eq!(cfg.llc().ways(), 4);
        assert!(cfg.prefetcher_config().is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_cores_panics() {
        let _ = HierarchyConfig::paper_baseline(0);
    }

    #[test]
    fn io_config_round_trips() {
        let cfg = HierarchyConfig::paper_baseline(2);
        assert!(cfg.io_config().is_none());
        let io = IoInjectConfig {
            agents: 2,
            inject_ways: Some(2),
            partition: true,
        };
        assert_eq!(cfg.io(io).io_config(), Some(io));
    }

    #[test]
    #[should_panic(expected = "inject_ways 17 out of range")]
    fn io_inject_ways_beyond_llc_panics() {
        let _ = HierarchyConfig::paper_baseline(2).io(IoInjectConfig {
            agents: 1,
            inject_ways: Some(17),
            partition: false,
        });
    }

    #[test]
    #[should_panic(expected = "partition requires")]
    fn io_partition_without_limit_panics() {
        let _ = HierarchyConfig::paper_baseline(2).io(IoInjectConfig {
            agents: 1,
            inject_ways: None,
            partition: true,
        });
    }

    #[test]
    fn setters_chain() {
        let cfg = HierarchyConfig::scaled(4, 8)
            .inclusion_policy(InclusionPolicy::Exclusive)
            .tla(TlaPolicy::eci())
            .victim_cache(VictimCacheConfig::default())
            .prefetcher(None)
            .seed(99);
        assert_eq!(cfg.inclusion(), InclusionPolicy::Exclusive);
        assert_eq!(cfg.tla_policy(), TlaPolicy::Eci);
        assert_eq!(cfg.victim_cache_config().unwrap().entries, 32);
        assert!(cfg.prefetcher_config().is_none());
        assert_eq!(cfg.seed_value(), 99);
        assert!(!cfg.to_string().is_empty());
    }
}
