//! Self-contained batch parallelism for the experiment harness.
//!
//! The workspace builds in fully offline environments, so instead of
//! depending on `rayon` this small crate provides the only piece the
//! suites need: a scoped fork/join map over a list of independent jobs,
//! built directly on [`std::thread::scope`]. Following the `tla-rng`
//! precedent it has no dependencies at all.
//!
//! Guarantees, in the order the simulator cares about them:
//!
//! * **Input order is preserved.** `scoped_map(jobs, items, f)` returns
//!   `f(items[0]), f(items[1]), …` regardless of which worker finished
//!   first — suite outputs stay row-for-row comparable with serial runs.
//! * **Determinism.** Every job is a pure function of its input (each
//!   `MixRun` carries its own seed and owns its whole simulated
//!   hierarchy), so the result vector is bit-identical for any `jobs`
//!   value; only wall-clock changes.
//! * **Panics propagate.** A panicking job does not poison or hang the
//!   batch silently: the original panic payload is re-raised on the
//!   calling thread once every spawned worker has been joined.
//! * **The caller works.** A fan-out over `jobs` threads spawns
//!   `jobs - 1` and the calling thread takes items from the same queue,
//!   so it reuses its own warm heap instead of idling in a join.
//! * **`jobs == 1` degenerates to serial.** No threads are spawned; the
//!   jobs run inline on the caller in input order.
//!
//! # Examples
//!
//! ```
//! let squares = tla_pool::scoped_map(4, (0u64..8).collect(), |x| x * x);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// The machine's available parallelism (the `--jobs` default), falling
/// back to 1 when it cannot be determined.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolves an optional job-count override against the machine default:
/// `None` (and `Some(0)`) mean "use every core".
pub fn resolve_jobs(requested: Option<usize>) -> usize {
    match requested {
        Some(n) if n > 0 => n,
        _ => available_jobs(),
    }
}

/// Applies `f` to every item on up to `jobs` threads, the caller
/// included, returning the results in input order.
///
/// The caller and `jobs - 1` spawned workers pull items from a shared
/// queue, so uneven job costs balance automatically. With `jobs <= 1`
/// (or fewer than two items) everything runs inline on the caller — the
/// degenerate case is exactly the serial loop it replaces.
///
/// # Panics
///
/// Re-raises the first panic raised by `f` (the caller's own, else the
/// first worker's in spawn order) after every spawned worker has been
/// joined.
pub fn scoped_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = jobs.max(1).min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }

    let queue = Mutex::new(items.into_iter().enumerate());
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let work = || loop {
        // Hold the queue lock only while pulling the next item; a panic
        // inside `f` can never poison it.
        let next = queue.lock().expect("job queue poisoned").next();
        let Some((idx, item)) = next else { break };
        let result = f(item);
        *slots[idx].lock().expect("result slot poisoned") = Some(result);
    };

    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        // The caller drains the queue beside the workers; its panic is
        // held until they are joined, so none is left running.
        let mut first_panic = catch_unwind(AssertUnwindSafe(work)).err();
        // Join explicitly so the original panic payload (not a generic
        // "a scoped thread panicked") reaches the caller.
        for handle in handles {
            if let Err(payload) = handle.join() {
                first_panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
    });

    slots
        .into_iter()
        .enumerate()
        .map(|(idx, slot)| {
            slot.into_inner()
                .expect("result slot poisoned")
                .unwrap_or_else(|| unreachable!("job {idx} produced no result"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn preserves_input_order() {
        // Stagger costs so completion order differs from input order.
        let out = scoped_map(4, (0u64..64).collect(), |x| {
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x * 10
        });
        assert_eq!(out, (0u64..64).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_one_runs_inline_serially() {
        // Inline execution is observable: the worker closure sees the
        // caller's thread id for every item.
        let caller = std::thread::current().id();
        let ids = scoped_map(1, vec![(); 8], |()| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn single_item_runs_inline() {
        let caller = std::thread::current().id();
        let ids = scoped_map(8, vec![()], |()| std::thread::current().id());
        assert_eq!(ids, vec![caller]);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = scoped_map(4, Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_jobs_than_items_works() {
        let out = scoped_map(64, (0u32..3).collect(), |x| x + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = scoped_map(3, (0usize..100).collect(), |x| {
            calls.fetch_add(1, Ordering::SeqCst);
            x
        });
        assert_eq!(calls.load(Ordering::SeqCst), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn panic_payload_propagates() {
        let err = std::panic::catch_unwind(|| {
            scoped_map(4, (0u32..16).collect(), |x| {
                if x == 5 {
                    panic!("job five exploded");
                }
                x
            })
        })
        .unwrap_err();
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("job five exploded"), "got: {msg}");
    }

    #[test]
    fn panic_in_serial_path_propagates_too() {
        let err = std::panic::catch_unwind(|| {
            scoped_map(1, vec![0u32], |_| -> u32 { panic!("serial boom") })
        })
        .unwrap_err();
        assert!(err
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("serial boom")));
    }

    #[test]
    fn caller_takes_items_from_the_queue() {
        // Two threads in all: the first two items meet at a two-party
        // barrier, which can release only if the caller took one.
        let caller = std::thread::current().id();
        let barrier = Barrier::new(2);
        let ids = scoped_map(2, (0..6).collect(), |i| {
            if i < 2 {
                barrier.wait();
            }
            std::thread::current().id()
        });
        assert!(ids[..2].contains(&caller), "the caller ran neither item");
    }

    #[test]
    fn panic_in_the_callers_item_waits_for_the_workers() {
        // The caller and one worker meet at the barrier in items 0 and 1;
        // the caller then panics while the worker still has its item and
        // two more to finish. The payload must surface only after them.
        let caller = std::thread::current().id();
        let barrier = Barrier::new(2);
        let done = AtomicUsize::new(0);
        let err = std::panic::catch_unwind(|| {
            scoped_map(2, (0u32..4).collect(), |i| {
                if i < 2 {
                    barrier.wait();
                }
                if std::thread::current().id() == caller {
                    panic!("caller's item {i} exploded");
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
                done.fetch_add(1, Ordering::SeqCst);
            })
        })
        .unwrap_err();
        assert_eq!(done.load(Ordering::SeqCst), 3, "the worker ran the rest");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.starts_with("caller's item"), "got: {msg}");
    }

    #[test]
    fn resolve_jobs_semantics() {
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert_eq!(resolve_jobs(None), available_jobs());
        assert_eq!(resolve_jobs(Some(0)), available_jobs());
        assert!(available_jobs() >= 1);
    }
}
