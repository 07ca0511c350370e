//! Synthetic SPEC CPU2006-like workloads for the TLA simulator.
//!
//! The paper drives CMP$im with PinPoint traces of 15 SPEC CPU2006
//! benchmarks, classified by where their working set fits (§IV-B):
//!
//! * **CCF** — core cache fitting (dealII, h264ref, perlbench, povray,
//!   sjeng);
//! * **LLCF** — LLC fitting (astar, bzip2, calculix, hmmer, xalancbmk);
//! * **LLCT** — LLC thrashing (gobmk, libquantum, mcf, sphinx3, wrf).
//!
//! SPEC traces cannot be redistributed, so each benchmark is modelled as a
//! seeded statistical address-stream generator ([`SyntheticTrace`]) whose
//! cache-relevant parameters — instruction footprint, data working-set
//! sizes, access-pattern mixture, memory-op density — place it in the same
//! category with a qualitatively matching L1/L2/LLC MPKI profile (Table I).
//! Inclusion victims arise from the *interaction* of working-set size with
//! cache capacity and from L1 filtering of temporal locality, both of which
//! these streams exercise exactly like real traces.
//!
//! # Examples
//!
//! ```
//! use tla_workloads::{SpecApp, TraceSource};
//!
//! // A deterministic trace of sjeng scaled to 1/8-size caches.
//! let mut trace = SpecApp::Sjeng.trace(8, /*address base*/ 0, /*seed*/ 1);
//! let instr = trace.next_instruction();
//! assert!(instr.mem.is_none() || instr.mem.is_some()); // stream is infinite
//! assert_eq!(SpecApp::ALL.len(), 15);
//! ```

mod mix;
mod recorded;
mod spec;
mod trace;

pub use mix::{all_two_core_mixes, random_mixes, table2_mixes, Mix};
pub use recorded::RecordedTrace;
pub use spec::{Category, SpecApp};
pub use trace::{Instruction, MemRef, PatternKind, SyntheticTrace, TraceSource, WorkloadParams};
