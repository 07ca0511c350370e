//! The repository benchmark: host time and memory of four simulator
//! experiments, split by layer from outside the simulator, with every
//! run's output checked. See `README.md` in this directory.

pub mod calibrate;
pub mod checks;
pub mod compare;
pub mod measure;
pub mod metrics;
pub mod replay;
pub mod spans;
pub mod stats;
pub mod workload;

/// Where invocations write their trace and detail files.
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
