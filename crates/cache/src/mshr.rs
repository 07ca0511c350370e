//! Miss-status holding registers.
//!
//! The paper models interconnect bandwidth solely through contention for a
//! fixed number of MSHRs (§IV-A): a core supports 32 outstanding misses to
//! memory, and extra traffic manifests as increased latency when the pool is
//! full. [`MshrFile`] implements that as an analytic model over completion
//! timestamps — no event queue needed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tla_snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use tla_types::Cycle;

/// A fixed pool of miss-status holding registers tracked by completion time.
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    /// Completion times of in-flight transactions (min-heap).
    inflight: BinaryHeap<Reverse<Cycle>>,
    /// Transactions that had to wait for a free register.
    stalls: u64,
    /// Total cycles transactions spent waiting for a register.
    stall_cycles: u64,
    issued: u64,
}

impl MshrFile {
    /// Creates a pool with `capacity` registers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be at least 1");
        MshrFile {
            capacity,
            inflight: BinaryHeap::with_capacity(capacity + 1),
            stalls: 0,
            stall_cycles: 0,
            issued: 0,
        }
    }

    /// Number of registers.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Issues a transaction at time `now` with service time `latency`,
    /// returning its completion time. If all registers are busy at `now`,
    /// the transaction waits for the earliest in-flight completion.
    #[inline]
    pub fn issue(&mut self, now: Cycle, latency: Cycle) -> Cycle {
        self.drain(now);
        let start = if self.inflight.len() >= self.capacity {
            let earliest = self
                .inflight
                .pop()
                .expect("full MSHR pool must have entries")
                .0;
            let start = earliest.max(now);
            self.stalls += 1;
            self.stall_cycles += start - now;
            start
        } else {
            now
        };
        let done = start + latency;
        self.inflight.push(Reverse(done));
        self.issued += 1;
        done
    }

    /// Number of transactions still in flight at `now`.
    pub fn in_flight(&mut self, now: Cycle) -> usize {
        self.drain(now);
        self.inflight.len()
    }

    /// Transactions that waited for a free register.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Total cycles spent waiting for a free register.
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Total transactions issued.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    fn drain(&mut self, now: Cycle) {
        while let Some(&Reverse(t)) = self.inflight.peek() {
            if t <= now {
                self.inflight.pop();
            } else {
                break;
            }
        }
    }
}

impl Snapshot for MshrFile {
    fn write_state(&self, w: &mut SnapshotWriter) {
        // The heap is serialized sorted ascending so byte streams are
        // independent of BinaryHeap's internal layout.
        let mut inflight: Vec<Cycle> = self.inflight.iter().map(|r| r.0).collect();
        inflight.sort_unstable();
        w.write_u64_slice(&inflight);
        w.write_u64(self.stalls);
        w.write_u64(self.stall_cycles);
        w.write_u64(self.issued);
    }

    fn read_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        let inflight = r.read_u64_vec()?;
        if inflight.len() > self.capacity {
            return Err(SnapshotError::Mismatch(format!(
                "MSHR pool: snapshot has {} in-flight entries, capacity is {}",
                inflight.len(),
                self.capacity
            )));
        }
        self.inflight.clear();
        self.inflight.extend(inflight.into_iter().map(Reverse));
        self.stalls = r.read_u64()?;
        self.stall_cycles = r.read_u64()?;
        self.issued = r.read_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_issue_adds_latency() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.issue(100, 150), 250);
        assert_eq!(m.in_flight(100), 1);
        assert_eq!(m.in_flight(250), 0);
    }

    #[test]
    fn full_pool_delays_to_earliest_completion() {
        let mut m = MshrFile::new(2);
        let a = m.issue(0, 100); // done 100
        let b = m.issue(10, 100); // done 110
        assert_eq!((a, b), (100, 110));
        // Pool full at t=20: must wait for t=100, then takes 100 cycles.
        let c = m.issue(20, 100);
        assert_eq!(c, 200);
        assert_eq!(m.stalls(), 1);
        assert_eq!(m.stall_cycles(), 80);
    }

    #[test]
    fn registers_free_over_time() {
        let mut m = MshrFile::new(1);
        m.issue(0, 50);
        // At t=60 the register is free again: no stall.
        assert_eq!(m.issue(60, 50), 110);
        assert_eq!(m.stalls(), 0);
    }

    #[test]
    fn serial_when_capacity_one() {
        let mut m = MshrFile::new(1);
        let mut t = 0;
        for _ in 0..5 {
            t = m.issue(0, 100);
        }
        assert_eq!(t, 500);
        assert_eq!(m.stalls(), 4);
        assert_eq!(m.issued(), 5);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_panics() {
        let _ = MshrFile::new(0);
    }

    #[test]
    fn out_of_order_now_is_tolerated() {
        // Cross-core sharing can present non-monotonic `now` values.
        let mut m = MshrFile::new(2);
        m.issue(100, 10);
        let done = m.issue(50, 10);
        assert_eq!(done, 60);
    }
}
