//! # tla — Temporal Locality Aware cache management
//!
//! A faithful reproduction of *"Achieving Non-Inclusive Cache Performance
//! with Inclusive Caches: Temporal Locality Aware (TLA) Cache Management
//! Policies"* (Jaleel, Borch, Bhandaru, Steely, Emer — MICRO 2010), built as
//! a complete multi-core cache-hierarchy simulator in Rust.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`types`] — addresses, core ids, access kinds ([`tla_types`]).
//! * [`cache`] — set-associative caches, replacement policies, MSHRs,
//!   victim cache, stream prefetcher ([`tla_cache`]).
//! * [`core`] — the paper's contribution: inclusive / non-inclusive /
//!   exclusive hierarchies and the TLH / ECI / QBS policies ([`tla_core`]).
//! * [`cpu`] — the trace-driven out-of-order core timing model
//!   ([`tla_cpu`]).
//! * [`workloads`] — synthetic SPEC CPU2006-like benchmarks and the paper's
//!   workload mixes ([`tla_workloads`]).
//! * [`io`] — DDIO-style device I/O agents (NIC rings, leaky-DMA streams)
//!   that inject directly into the LLC, with injection-way limit and
//!   way-partitioning configuration ([`tla_io`]).
//! * [`sim`] — the CMP simulator, metrics and experiment runner
//!   ([`tla_sim`]).
//! * [`telemetry`] — event sinks, windowed time series and machine-readable
//!   run reports ([`tla_telemetry`]).
//! * [`pool`] — the dependency-free scoped thread pool behind the parallel
//!   experiment runner ([`tla_pool`]).
//! * [`bench`] — every table and figure of the paper's evaluation as
//!   data (printed by `tla-cli paper`) and the offline micro-benchmark
//!   timer ([`tla_bench`]).
//!
//! # Quickstart
//!
//! ```
//! use tla::sim::{MixRun, SimConfig};
//! use tla::core::TlaPolicy;
//! use tla::workloads::SpecApp;
//!
//! // Run a tiny 2-core mix under the inclusive baseline and under QBS.
//! let cfg = SimConfig::scaled_down().instructions(20_000);
//! let mix = [SpecApp::Sjeng, SpecApp::Libquantum];
//! let base = MixRun::new(&cfg, &mix).policy(TlaPolicy::baseline()).run();
//! let qbs = MixRun::new(&cfg, &mix).policy(TlaPolicy::qbs()).run();
//! // QBS never loses throughput on this CCF+LLCT mix.
//! assert!(qbs.throughput() >= base.throughput() * 0.95);
//! ```

pub use tla_bench as bench;
pub use tla_cache as cache;
pub use tla_core as core;
pub use tla_cpu as cpu;
pub use tla_io as io;
pub use tla_pool as pool;
pub use tla_rng as rng;
pub use tla_sim as sim;
pub use tla_telemetry as telemetry;
pub use tla_types as types;
pub use tla_workloads as workloads;
