//! Output checks and the stats digest.
//!
//! Every simulator run the benchmark makes is checked against an
//! independent expectation (an earlier repetition, a straight-through
//! run, the outside-in replay, the hierarchy's own invariants). A run
//! that fails any of its checks counts once as failed.

use tla::core::CacheHierarchy;
use tla::sim::{OracleResult, RunResult};

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of everything a run measured: per-thread instructions, cycles
/// and hierarchy counters, the whole-run counters and the device-I/O
/// counters. A change that only speeds the simulator up must leave it
/// unchanged.
pub fn run_digest(r: &RunResult) -> u64 {
    let threads: Vec<_> = r
        .threads
        .iter()
        .map(|t| (t.instructions, t.cycles, t.stats))
        .collect();
    fnv1a(format!("{threads:?}|{:?}|{:?}", r.global, r.io).as_bytes())
}

/// Digest of a MIN-oracle result.
pub fn oracle_digest(o: &OracleResult) -> u64 {
    fnv1a(format!("{o:?}").as_bytes())
}

/// Folds a sequence of digests into one.
pub fn combine(digests: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = digests.into_iter().flat_map(u64::to_le_bytes).collect();
    fnv1a(&bytes)
}

/// A problem description when two digests differ.
pub fn digest_mismatch(what: &str, expected: u64, got: u64) -> Option<String> {
    (expected != got).then(|| format!("{what}: digest {got:016x}, expected {expected:016x}"))
}

/// Problems with the hierarchy's structural invariants: inclusion for
/// inclusive hierarchies, exclusion for exclusive ones (each check passes
/// trivially under the other modes).
pub fn invariant_problems(hier: &CacheHierarchy) -> Vec<String> {
    let mut problems = Vec::new();
    if let Some((core, line)) = hier.find_inclusion_violation() {
        problems.push(format!(
            "inclusion violated: {core:?} holds {line:?}, the LLC does not"
        ));
    }
    if let Some((core, line)) = hier.find_exclusion_violation() {
        problems.push(format!(
            "exclusion violated: {core:?} and the LLC both hold {line:?}"
        ));
    }
    problems
}

/// Tally of checked runs.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checks {
    /// Records one checked run; it failed if `problems` is non-empty.
    pub fn run(&mut self, label: &str, problems: impl IntoIterator<Item = String>) {
        self.attempted += 1;
        let before = self.problems.len();
        self.problems
            .extend(problems.into_iter().map(|p| format!("{label}: {p}")));
        if self.problems.len() > before {
            self.failed += 1;
        }
    }

    /// Runs checked.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Runs that failed a check.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Every problem found, prefixed with its run's label.
    pub fn problems(&self) -> &[String] {
        &self.problems
    }
}
