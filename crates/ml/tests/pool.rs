//! The process-wide worker pool behind `run_indexed`.
//!
//! These tests live in their own binary so no other suite's calls grow or
//! occupy the pool while they count its threads. They also serialize on
//! one lock, so no test's own threads appear while another is counting.
//! Thread counts skip the test harness's threads, which start and exit
//! on their own schedule, and are taken only after [`settle`].

use coloc_ml::parallel::{resolve_threads, run_indexed};
use std::sync::{Barrier, Mutex, MutexGuard};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Names of this process's threads, from `/proc/self/task/*/comm`.
/// Listing that directory can miss a live thread while another thread
/// exits, as the harness's threads for finished tests do, so it is read
/// until two listings agree.
#[cfg(target_os = "linux")]
fn thread_names() -> Vec<String> {
    let list = || {
        let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
            .expect("procfs is mounted")
            .filter_map(|e| std::fs::read_to_string(e.ok()?.path().join("comm")).ok())
            .map(|s| s.trim_end().to_string())
            .collect();
        names.sort();
        names
    };
    let mut last = list();
    loop {
        std::thread::sleep(std::time::Duration::from_millis(1));
        let next = list();
        if next == last {
            return next;
        }
        last = next;
    }
}

#[cfg(target_os = "linux")]
fn pool_helpers() -> usize {
    thread_names()
        .iter()
        .filter(|n| n.starts_with("coloc-pool-"))
        .count()
}

/// Threads a call from this thread could have started: pool helpers,
/// and unnamed threads, which inherit their creator's name.
#[cfg(target_os = "linux")]
fn threads_near_caller() -> usize {
    let me = std::fs::read_to_string("/proc/thread-self/comm").expect("procfs is mounted");
    let me = me.trim_end();
    thread_names()
        .iter()
        .filter(|n| n.as_str() == me || n.starts_with("coloc-pool-"))
        .count()
}

/// The most threads any test here asks `run_indexed` for.
fn most_threads() -> usize {
    2 * resolve_threads(0, usize::MAX) + 1
}

/// Grow the pool to [`most_threads`] helpers and have every one of them
/// work on one call. A helper names itself `coloc-pool-N` only when it
/// first runs; until then it carries the name of the thread that started
/// it, which may be another test's. After this, counts by name are exact.
fn settle() {
    let helpers = most_threads();
    let all_inside = Barrier::new(helpers);
    run_indexed(helpers, helpers, |_| {
        all_inside.wait();
    });
}

fn mix(i: usize) -> u64 {
    (i as u64 + 1)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .rotate_left(17)
}

#[derive(Debug, PartialEq)]
struct Marker(u32);

#[test]
fn panic_payload_reaches_the_caller_and_the_helper_survives() {
    let _guard = serial();
    settle();
    #[cfg(target_os = "linux")]
    let helpers = pool_helpers();

    let caught = std::panic::catch_unwind(|| {
        run_indexed(16, 2, |i| {
            if i == 5 {
                std::panic::panic_any(Marker(7));
            }
            mix(i)
        })
    })
    .expect_err("the task's panic must reach the caller");
    assert_eq!(
        caught.downcast_ref::<Marker>(),
        Some(&Marker(7)),
        "the original payload, not a wrapper"
    );

    // The next call completes on the same helpers.
    assert_eq!(run_indexed(16, 2, mix), run_indexed(16, 1, mix));
    #[cfg(target_os = "linux")]
    assert_eq!(pool_helpers(), helpers, "no helper died or was replaced");
}

#[test]
fn nested_calls_above_the_cpu_count_complete() {
    let _guard = serial();
    let threads = most_threads();
    let flat: Vec<u64> = (0..12)
        .map(|i| (0..9).map(|j| mix(i * 9 + j)).fold(0, u64::wrapping_add))
        .collect();
    let nested = run_indexed(12, threads, |i| {
        run_indexed(9, threads, |j| mix(i * 9 + j))
            .into_iter()
            .fold(0, u64::wrapping_add)
    });
    assert_eq!(nested, flat);
}

#[test]
fn concurrent_callers_each_get_index_ordered_results() {
    let _guard = serial();
    let callers = 4;
    let start = Barrier::new(callers);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..callers)
            .map(|c| {
                let start = &start;
                s.spawn(move || {
                    let f = |i: usize| mix(c * 1000 + i);
                    let want = run_indexed(200, 1, f);
                    start.wait();
                    for _ in 0..20 {
                        assert_eq!(run_indexed(200, 3, f), want, "caller {c}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("caller thread");
        }
    });
}

#[cfg(target_os = "linux")]
#[test]
fn thread_count_is_steady_after_warm_up() {
    let _guard = serial();
    settle();
    let threads = resolve_threads(0, usize::MAX).max(2);
    let want = run_indexed(8, 1, mix);
    let before = threads_near_caller();
    for _ in 0..1000 {
        assert_eq!(run_indexed(8, threads, mix), want);
    }
    assert_eq!(threads_near_caller(), before, "calls spawned threads");
}
