//! A fan-out over `jobs` threads spawns exactly `jobs - 1` of them.
//!
//! Linux lists a process's threads under `/proc/self/task`. Every item
//! of a `jobs`-item fan-out waits at a `jobs`-party barrier, so all the
//! fan-out's threads are alive at once; one of them counts the process's
//! threads there before any is let go. A joined thread can stay listed
//! for a moment, so each fan-out starts once the count is back to where
//! the test began. The binary holds one test, so no other test thread
//! comes or goes while it counts.

#![cfg(target_os = "linux")]

use std::sync::{Barrier, Mutex};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("a Linux process lists its threads")
        .count()
}

#[test]
fn a_fan_out_spawns_one_thread_fewer_than_jobs() {
    let before = threads();
    for jobs in [2usize, 3, 5] {
        for _ in 0..1000 {
            if threads() == before {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let gathered = Barrier::new(jobs);
        let counted = Barrier::new(jobs);
        let during = Mutex::new(None);
        tla_pool::scoped_map(jobs, vec![(); jobs], |()| {
            if gathered.wait().is_leader() {
                *during.lock().unwrap() = Some(threads());
            }
            counted.wait();
        });
        let during = during.into_inner().unwrap().expect("the leader counted");
        assert_eq!(during - before, jobs - 1, "jobs {jobs}");
    }
}
