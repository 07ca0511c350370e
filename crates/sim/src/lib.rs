//! The CMP simulator: multiprogrammed runs, metrics and experiment
//! harness.
//!
//! This crate glues the substrates together exactly as §IV describes:
//! one [`tla_cpu::CoreModel`] per core driven by a
//! [`tla_workloads::SyntheticTrace`], all sharing one
//! [`tla_core::CacheHierarchy`]. Cores are interleaved in timestamp order
//! (the core with the smallest local clock issues next), per-thread
//! statistics freeze when the thread commits its instruction quota, and
//! faster threads keep running to compete for cache space, as in §IV-B.
//!
//! # Examples
//!
//! ```
//! use tla_sim::{MixRun, PolicySpec, SimConfig};
//! use tla_workloads::SpecApp;
//!
//! let cfg = SimConfig::scaled_down().instructions(10_000);
//! let mix = [SpecApp::Sjeng, SpecApp::Libquantum];
//! let result = MixRun::new(&cfg, &mix).spec(&PolicySpec::qbs()).run();
//! assert_eq!(result.threads.len(), 2);
//! assert!(result.throughput() > 0.0);
//! ```

mod checkpoint;
mod config;
mod oracle;
mod policyspec;
mod report;
mod run;
mod runner;
mod sched;
mod warmcache;

pub use checkpoint::{Checkpoint, CheckpointInfo};
pub use config::SimConfig;
pub use oracle::{
    belady, belady_bruteforce, belady_sharded, gap_to_opt, mix_reference_stream, optimal_llc,
    OracleGap, OracleResult,
};
pub use policyspec::PolicySpec;
pub use report::{Table, TableError};
pub use run::{EngineMode, MixRun, RunResult, ThreadResult};
pub use runner::{
    grid_jobs, policy_keys, run_grid, run_policy_reports_analyzed, run_policy_reports_io,
    run_policy_reports_warm_start, run_policy_reports_warm_start_cached, run_suites, Observe,
    RunKey, RunOutput, Suite, SuiteResult,
};
pub use tla_snapshot::SnapshotError;
pub use tla_telemetry::{RunReport, Window};
pub use warmcache::{WarmCache, WarmCacheEntry};
