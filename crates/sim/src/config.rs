//! Simulation configuration.

use tla_cpu::CoreModelConfig;

/// Top-level simulation parameters shared by every run of an experiment.
///
/// `scale` divides every cache capacity (and, through
/// [`tla_workloads::SpecApp::params`], every working set) by the same
/// factor, preserving all capacity ratios — the quantity the paper's
/// results depend on — while letting laptop-scale sweeps finish.
///
/// # Examples
///
/// ```
/// use tla_sim::SimConfig;
///
/// let cfg = SimConfig::paper();         // full-size §IV-A hierarchy
/// assert_eq!(cfg.scale(), 1);
/// let fast = SimConfig::scaled_down();  // 1/8-size, same ratios
/// assert_eq!(fast.scale(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SimConfig {
    scale: u64,
    instructions: u64,
    warmup: u64,
    core: CoreModelConfig,
    seed: u64,
    prefetch: bool,
    jobs: Option<usize>,
    shard_jobs: Option<usize>,
}

impl SimConfig {
    /// The paper's full-size configuration (§IV-A) with a default quota of
    /// 1 M instructions per thread (the paper simulates 250 M; raise with
    /// [`SimConfig::instructions`] when time allows).
    pub fn paper() -> Self {
        SimConfig {
            scale: 1,
            instructions: 1_000_000,
            warmup: 0,
            core: CoreModelConfig::default(),
            seed: 0xC0FFEE,
            prefetch: true,
            jobs: None,
            shard_jobs: None,
        }
    }

    /// The 1/8-scaled configuration `tla-cli` and the paper figures default to:
    /// 4 KB L1I/D, 32 KB L2, 256 KB LLC — identical ratios, ~8x less work
    /// to exercise the same number of sets.
    pub fn scaled_down() -> Self {
        SimConfig {
            scale: 8,
            ..Self::paper()
        }
    }

    /// The cache scale divisors that keep every geometry valid.
    pub const SCALES: [u64; 4] = [1, 2, 4, 8];

    /// Sets the cache scale divisor explicitly (one of [`Self::SCALES`]).
    #[must_use]
    pub fn with_scale(mut self, scale: u64) -> Self {
        assert!(
            Self::SCALES.contains(&scale),
            "scale must be 1, 2, 4 or 8 to keep geometries valid"
        );
        self.scale = scale;
        self
    }

    /// Sets the per-thread instruction quota.
    #[must_use]
    pub fn instructions(mut self, n: u64) -> Self {
        assert!(n > 0, "instruction quota must be positive");
        self.instructions = n;
        self
    }

    /// Sets a warm-up phase: each thread first commits this many
    /// instructions with statistics discarded, then the measured quota
    /// starts. Inclusion-victim dynamics only reach steady state once the
    /// slower thread has cycled the LLC a few times; the paper's 250 M
    /// instruction runs amortize warm-up implicitly, shorter runs should
    /// set it explicitly.
    #[must_use]
    pub fn warmup(mut self, n: u64) -> Self {
        self.warmup = n;
        self
    }

    /// Warm-up instructions per thread.
    pub fn warmup_quota(&self) -> u64 {
        self.warmup
    }

    /// Replaces the core timing model configuration.
    #[must_use]
    pub fn core_model(mut self, core: CoreModelConfig) -> Self {
        self.core = core;
        self
    }

    /// Sets the master seed (workload streams and policy randomness derive
    /// from it deterministically).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables or disables the L2 stream prefetcher (Table I measures MPKI
    /// without prefetching).
    #[must_use]
    pub fn prefetch(mut self, on: bool) -> Self {
        self.prefetch = on;
        self
    }

    /// Cache scale divisor.
    pub fn scale(&self) -> u64 {
        self.scale
    }

    /// Per-thread instruction quota.
    pub fn instruction_quota(&self) -> u64 {
        self.instructions
    }

    /// Core timing model configuration.
    pub fn core_config(&self) -> &CoreModelConfig {
        &self.core
    }

    /// Master seed.
    pub fn seed_value(&self) -> u64 {
        self.seed
    }

    /// Whether the prefetcher is enabled.
    pub fn prefetch_enabled(&self) -> bool {
        self.prefetch
    }

    /// Caps the worker threads a run grid ([`crate::run_grid`] and the
    /// helpers built on it) may use.
    /// `0` means "use every available core" (the default). A single
    /// [`crate::MixRun`] is always single-threaded; this knob only fans
    /// out *batches* of independent runs, and results are bit-identical
    /// for every value — only wall-clock changes.
    #[must_use]
    pub fn jobs(mut self, n: usize) -> Self {
        self.jobs = Some(n);
        self
    }

    /// The explicit jobs override, if one was set.
    pub fn jobs_override(&self) -> Option<usize> {
        self.jobs
    }

    /// Worker threads the batch helpers will actually use: the explicit
    /// [`SimConfig::jobs`] override if set (and nonzero), else the
    /// `TLA_JOBS` environment variable, else every available core.
    pub fn effective_jobs(&self) -> usize {
        let requested = self
            .jobs
            .filter(|&n| n > 0)
            .or_else(|| std::env::var("TLA_JOBS").ok().and_then(|v| v.parse().ok()));
        tla_pool::resolve_jobs(requested)
    }

    /// Caps the worker threads used to shard *one* run's set-indexed work
    /// (currently the Belady oracle replay, [`crate::optimal_llc`]) by LLC
    /// set index. `0` means "use every available core"; unset means
    /// serial. Per-set work is order-independent across sets, so results
    /// are bit-identical for every value — only wall-clock changes.
    #[must_use]
    pub fn shard_jobs(mut self, n: usize) -> Self {
        self.shard_jobs = Some(n);
        self
    }

    /// The explicit shard-jobs override, if one was set.
    pub fn shard_jobs_override(&self) -> Option<usize> {
        self.shard_jobs
    }

    /// Worker threads the set-sharded passes will actually use: the
    /// explicit [`SimConfig::shard_jobs`] override if set (`0` meaning
    /// auto-detect), else the `TLA_SHARD_JOBS` environment variable, else
    /// `1` (serial — sharding is opt-in, unlike [`SimConfig::jobs`]).
    pub fn effective_shard_jobs(&self) -> usize {
        match self.shard_jobs.or_else(|| {
            std::env::var("TLA_SHARD_JOBS")
                .ok()
                .and_then(|v| v.parse().ok())
        }) {
            Some(0) => tla_pool::resolve_jobs(None),
            Some(n) => n,
            None => 1,
        }
    }

    /// This configuration with the thread knobs cleared: the part of it a
    /// [`crate::RunKey`] compares, since `jobs` and `shard_jobs` never
    /// change a result.
    pub(crate) fn without_jobs(&self) -> SimConfig {
        SimConfig {
            jobs: None,
            shard_jobs: None,
            ..self.clone()
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::scaled_down()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert_eq!(SimConfig::paper().scale(), 1);
        assert_eq!(SimConfig::scaled_down().scale(), 8);
        assert_eq!(SimConfig::default(), SimConfig::scaled_down());
        assert!(SimConfig::paper().prefetch_enabled());
    }

    #[test]
    fn setters() {
        let cfg = SimConfig::paper()
            .with_scale(4)
            .instructions(42)
            .seed(9)
            .prefetch(false);
        assert_eq!(cfg.scale(), 4);
        assert_eq!(cfg.instruction_quota(), 42);
        assert_eq!(cfg.seed_value(), 9);
        assert!(!cfg.prefetch_enabled());
    }

    #[test]
    fn jobs_resolution() {
        // No override: at least one worker, whatever the host offers.
        assert!(SimConfig::paper().effective_jobs() >= 1);
        assert_eq!(SimConfig::paper().jobs_override(), None);
        // Explicit override wins.
        assert_eq!(SimConfig::paper().jobs(3).effective_jobs(), 3);
        // Zero falls back to auto-detection.
        assert!(SimConfig::paper().jobs(0).effective_jobs() >= 1);
    }

    #[test]
    fn shard_jobs_resolution() {
        // Sharding is opt-in: the unset default is serial (the TLA_SHARD_JOBS
        // env fallback cannot be exercised here without racing other tests).
        assert_eq!(SimConfig::paper().shard_jobs_override(), None);
        // Explicit override wins; zero auto-detects.
        assert_eq!(SimConfig::paper().shard_jobs(7).effective_shard_jobs(), 7);
        assert!(SimConfig::paper().shard_jobs(0).effective_shard_jobs() >= 1);
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn bad_scale_panics() {
        let _ = SimConfig::paper().with_scale(3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_quota_panics() {
        let _ = SimConfig::paper().instructions(0);
    }
}
