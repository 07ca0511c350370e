//! The paper's evaluation and the offline timing harness.
//!
//! * [`paper`] regenerates every table and figure of the paper's
//!   evaluation as data; `tla-cli paper` prints it.
//! * [`time_it`] is the criterion-free micro-benchmark timer behind the
//!   `micro_cache` bench target.

pub mod paper;

/// One timed micro-benchmark result from [`time_it`].
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name.
    pub name: String,
    /// Iterations actually executed during the measured phase.
    pub iters: u64,
    /// Wall-clock nanoseconds spent in the measured phase.
    pub nanos: u128,
    /// Iterations per measured batch.
    pub batch: u64,
    /// Nanoseconds of the fastest measured batch. The minimum over batches
    /// is the standard noise-robust cost estimator: preemption and
    /// frequency dips only ever add time, so the fastest batch is the one
    /// closest to the true cost.
    pub best_batch_nanos: u128,
}

impl Measurement {
    /// Mean cost of one iteration in nanoseconds.
    pub fn nanos_per_iter(&self) -> f64 {
        if self.iters == 0 {
            0.0
        } else {
            self.nanos as f64 / self.iters as f64
        }
    }

    /// Cost of one iteration in the fastest batch, in nanoseconds — the
    /// noise-robust counterpart of [`Measurement::nanos_per_iter`].
    pub fn best_nanos_per_iter(&self) -> f64 {
        if self.batch == 0 {
            0.0
        } else {
            self.best_batch_nanos as f64 / self.batch as f64
        }
    }

    /// Iterations per second (millions).
    pub fn m_iters_per_sec(&self) -> f64 {
        let ns = self.nanos_per_iter();
        if ns == 0.0 {
            0.0
        } else {
            1e3 / ns
        }
    }

    /// One `name  ns/iter  Miter/s` report line.
    pub fn line(&self) -> String {
        format!(
            "{:<40} {:>12.1} ns/iter {:>10.2} Miter/s",
            self.name,
            self.nanos_per_iter(),
            self.m_iters_per_sec()
        )
    }
}

/// Times `op` for roughly `target_millis` of wall clock and returns a
/// [`Measurement`] — the offline stand-in for criterion.
///
/// The batch size is first calibrated (doubling until one batch costs a
/// measurable slice of the target) so `Instant` overhead stays far below
/// the work being timed; the calibration doubles as warm-up.
pub fn time_it(name: &str, target_millis: u64, mut op: impl FnMut()) -> Measurement {
    let target = std::time::Duration::from_millis(target_millis.max(1));
    let mut batch: u64 = 1;
    loop {
        let t0 = std::time::Instant::now();
        for _ in 0..batch {
            op();
        }
        if t0.elapsed() * 20 >= target || batch >= 1 << 30 {
            break;
        }
        batch *= 2;
    }
    let mut iters = 0u64;
    let mut nanos = 0u128;
    let mut best_batch_nanos = u128::MAX;
    let start = std::time::Instant::now();
    while start.elapsed() < target {
        let t0 = std::time::Instant::now();
        for _ in 0..batch {
            op();
        }
        let batch_nanos = t0.elapsed().as_nanos();
        nanos += batch_nanos;
        iters += batch;
        best_batch_nanos = best_batch_nanos.min(batch_nanos);
    }
    if best_batch_nanos == u128::MAX {
        best_batch_nanos = 0;
    }
    Measurement {
        name: name.to_string(),
        iters,
        nanos,
        batch,
        best_batch_nanos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_it_counts_iterations() {
        let mut n = 0u64;
        let m = time_it("noop", 5, || n += 1);
        // Calibration/warm-up runs `op` too, so n counts at least iters.
        assert!(n >= m.iters);
        assert!(m.iters > 0);
        assert!(m.nanos_per_iter() >= 0.0);
        assert!(m.line().contains("noop"));
    }
}
