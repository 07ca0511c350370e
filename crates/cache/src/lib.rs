//! Cache building blocks for the TLA simulator.
//!
//! This crate implements every hardware structure the paper's evaluation
//! platform (CMP$im) provides, re-built from scratch:
//!
//! * [`SetAssocCache`] — a set-associative cache with per-line dirty bits
//!   and an LLC directory ([`CoreBitmap`]) recording which cores may hold a
//!   copy, as in the Core i7 the paper models.
//! * [`Policy`] — replacement policies: LRU (core caches), NRU (the paper's
//!   baseline LLC policy), FIFO, Random, tree PLRU, and the RRIP family
//!   (SRRIP/BRRIP/DRRIP) used for the footnote-4 ablation.
//! * [`MshrFile`] — the fixed pool of miss-status holding registers that
//!   models interconnect bandwidth (§IV-A: "bandwidth onto the interconnect
//!   is modeled using a fixed number of MSHRs").
//! * [`VictimCache`] — the 32-entry victim cache the paper compares ECI/QBS
//!   against in §VI.
//! * [`StreamPrefetcher`] — the 16-detector stream prefetcher that trains on
//!   L2 misses and fills the L2.
//! * [`probe`] — the set-probe kernels behind every tag scan: an AVX2 path
//!   comparing 8 tags per step on capable x86-64, a 4-lane portable scalar
//!   path elsewhere, selected once per process at first use
//!   (`TLA_FORCE_SCALAR=1` pins the scalar path for byte-for-byte
//!   reproducibility checks). The one-word [`WayMask`] the kernels return
//!   is also the per-set valid/dirty/tag storage, capping associativity at
//!   [`MAX_WAYS`] = 64; the victim cache scans any length in 64-entry
//!   chunks.
//!
//! # Examples
//!
//! ```
//! use tla_cache::{CacheConfig, Policy, SetAssocCache};
//! use tla_types::LineAddr;
//!
//! let cfg = CacheConfig::new("L1D", 32 * 1024, 4, Policy::Lru)?;
//! let mut cache = SetAssocCache::new(cfg);
//! let line = LineAddr::new(0x40);
//! assert_eq!(cache.touch(line), None);  // cold miss
//! cache.fill(line, false);              // bring the line in
//! assert!(cache.touch(line).is_some()); // now it hits, at some way
//! # Ok::<(), tla_cache::ConfigError>(())
//! ```

mod attribution;
mod config;
mod line;
mod mshr;
mod prefetch;
pub mod probe;
mod replacement;
mod set_assoc;
mod victim;

pub use attribution::{MissClass, VictimCause, VictimTracker};
pub use config::{CacheConfig, ConfigError, MAX_WAYS};
pub use line::{CoreBitmap, LineState};
pub use mshr::MshrFile;
pub use prefetch::{StreamPrefetcher, StreamPrefetcherConfig};
pub use probe::{kernel_name, min_index, ProbeKernel, WayMask};
pub use replacement::{Policy, Replacer};
pub use set_assoc::{CacheStats, Evicted, SetAssocCache};
pub use victim::{VictimCache, VictimEntry};
