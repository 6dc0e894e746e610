//! Deterministic work-stealing fan-out on one process-wide worker pool.
//!
//! The validation and sweep layers both run many independent, *unevenly
//! priced* tasks: training partitions whose cost depends on the split, and
//! co-location scenarios whose segment count varies by an order of
//! magnitude with the workload mix. Static chunking (`chunks_mut` over a
//! pre-split range) strands whole chunks on one worker when costs skew;
//! here workers instead pull the next index from a shared atomic cursor,
//! so load balance is automatic and the idle tail is at most one task per
//! worker.
//!
//! Determinism: each task is keyed by its index. A worker keeps each batch
//! of indices it claims as one run of results in index order, tagged with
//! the batch's start, and the merged output concatenates the batches in
//! start order — index order. The values produced are whatever `f(i)`
//! returns — bit-wise independent of thread count or scheduling, provided
//! `f` itself is a pure function of `i`.
//!
//! # The pool
//!
//! Workers are helper threads of one pool per process, so a call pays a
//! hand-off, never a thread spawn. Helpers start on the first call that
//! needs them and live until the process exits; the pool only grows, to
//! the largest worker count any call has asked for. An idle helper parks
//! on a condvar and never spins, so an idle pool costs no CPU time.
//!
//! Which threads work on a call depends on who makes it:
//!
//! - a thread outside the pool hands the whole call to `threads` helpers
//!   and blocks until they are done;
//! - a helper (a task that itself calls [`run_indexed`]) works on its own
//!   call, joined by up to `threads - 1` idle helpers. It never waits for
//!   a helper to become free, so nested fan-out cannot deadlock even when
//!   every helper is busy.
//!
//! A panic in a task stops the call from handing out further indices.
//! Once every worker has left the call, the first panic's payload is
//! re-raised on the caller; the helper that caught it stays in the pool.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

/// Resolve a requested worker count: `0` means one per available CPU, and
/// the count is clamped to the task count (never below 1). The CPU count
/// is read once per process.
pub fn resolve_threads(requested: usize, tasks: usize) -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    let t = if requested == 0 {
        *AVAILABLE.get_or_init(|| std::thread::available_parallelism().map_or(4, |n| n.get()))
    } else {
        requested
    };
    t.clamp(1, tasks.max(1))
}

/// Claim granularity for the shared cursor, sized so each worker makes
/// `O(chunks-per-worker)` atomic RMW operations instead of one per task.
///
/// On small plans (a few hundred tasks of tens of microseconds each) the
/// per-task `fetch_add` was measurable: every claim is a contended RMW
/// that bounces the cursor's cache line across workers, and on an
/// oversubscribed host each bounce can cost a context switch. Claiming a
/// small batch amortizes that while keeping the idle tail bounded at one
/// batch per worker. The batch is capped so skewed task costs still
/// balance: with `n / (threads * CHUNKS_PER_WORKER)` tasks per claim,
/// every worker gets ~`CHUNKS_PER_WORKER` steals' worth of re-balancing
/// opportunities.
const CHUNKS_PER_WORKER: usize = 8;

/// Run `f(0..n)` across `threads` workers with work stealing and return
/// the results in index order.
///
/// Workers claim contiguous index batches from a shared atomic cursor
/// (batch size `n / (threads * 8)`, min 1), which bounds cursor
/// contention on small plans without giving up dynamic load balance.
///
/// `threads` is the number of threads working on this call; `0` means
/// one per available CPU. With one worker (or `n <= 1`) the loop runs
/// inline on the calling thread, with no hand-off and the same results.
/// Otherwise the call runs on the process-wide pool (see the module
/// docs). A panic in `f` is re-raised on the caller with its original
/// payload.
pub fn run_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = resolve_threads(threads, n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }

    let batch = (n / (threads * CHUNKS_PER_WORKER)).max(1);
    let cursor = AtomicUsize::new(0);
    // Claimed batches, each as (start index, results in index order).
    let results: Mutex<Vec<(usize, Vec<T>)>> = Mutex::new(Vec::with_capacity(n.div_ceil(batch)));
    let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    // One worker's share of the call. It never unwinds: a task's panic is
    // caught here, so the pool's bookkeeping always sees the worker leave.
    let work = || {
        let mut acc: Vec<(usize, Vec<T>)> = Vec::new();
        let claimed = panic::catch_unwind(AssertUnwindSafe(|| loop {
            let start = cursor.fetch_add(batch, Ordering::Relaxed);
            if start >= n {
                break;
            }
            acc.push((start, (start..(start + batch).min(n)).map(&f).collect()));
        }));
        match claimed {
            Ok(()) => results.lock().expect("results lock").append(&mut acc),
            Err(payload) => {
                cursor.store(n, Ordering::Relaxed);
                panicked
                    .lock()
                    .expect("panic slot lock")
                    .get_or_insert(payload);
            }
        }
    };
    POOL.run(threads, &work);

    if let Some(payload) = panicked.into_inner().expect("panic slot lock") {
        panic::resume_unwind(payload);
    }
    let mut batches = results.into_inner().expect("results lock");
    batches.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(n);
    for (_, b) in batches {
        out.extend(b);
    }
    debug_assert_eq!(out.len(), n, "every index must be executed exactly once");
    out
}

/// The process-wide pool behind [`run_indexed`].
static POOL: Pool = Pool {
    state: Mutex::new(State {
        calls: Vec::new(),
        helpers: 0,
        next_id: 0,
    }),
    work_ready: Condvar::new(),
    call_done: Condvar::new(),
};

thread_local! {
    /// True on the pool's own helper threads.
    static IS_HELPER: Cell<bool> = const { Cell::new(false) };
}

struct Pool {
    state: Mutex<State>,
    /// Idle helpers park here until a call has a free seat.
    work_ready: Condvar,
    /// Callers park here until their call is empty.
    call_done: Condvar,
}

struct State {
    /// Open calls, oldest first.
    calls: Vec<Call>,
    /// Helper threads started so far.
    helpers: usize,
    next_id: u64,
}

/// The pool's bookkeeping for one [`run_indexed`] call.
struct Call {
    id: u64,
    /// One worker's share of the call, borrowed from the caller's stack;
    /// see [`Pool::run`] for why the `'static` lifetime is sound.
    work: &'static (dyn Fn() + Sync),
    /// Helpers that may still join.
    seats: usize,
    /// Workers currently inside `work`.
    inside: usize,
    /// Some worker has returned from `work`. Workers return only once the
    /// cursor is exhausted, so from then on every unfinished index belongs
    /// to a worker still inside.
    drained: bool,
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, State> {
        // No task runs under this lock, so a task's panic cannot poison it.
        self.state.lock().expect("worker pool lock poisoned")
    }

    /// Run `work` on `threads` workers and return once every worker has
    /// left it.
    fn run(&'static self, threads: usize, work: &(dyn Fn() + Sync)) {
        let on_helper = IS_HELPER.with(Cell::get);
        let mut st = self.lock();
        self.grow(&mut st, threads);
        if st.helpers == 0 {
            // No helper could be started: the caller does the work alone.
            drop(st);
            work();
            return;
        }
        // SAFETY: helpers call `work` only while they are counted in its
        // call's `inside`, and they join only a call still listed in
        // `calls`, both under the pool lock. Below, this function removes
        // the call from `calls` — under the same lock, after seeing
        // `inside == 0` — before it returns, so no helper calls `work`
        // after the borrow it was made from ends.
        let work =
            unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(work) };
        let id = st.next_id;
        st.next_id += 1;
        let seats = if on_helper { threads - 1 } else { threads };
        st.calls.push(Call {
            id,
            work,
            seats,
            inside: usize::from(on_helper),
            drained: false,
        });
        for _ in 0..seats {
            self.work_ready.notify_one();
        }
        if on_helper {
            drop(st);
            work();
            st = self.lock();
            st.leave(id);
        }
        loop {
            let pos = st.position(id);
            let call = &st.calls[pos];
            if call.drained && call.inside == 0 {
                st.calls.remove(pos);
                return;
            }
            st = self.call_done.wait(st).expect("worker pool lock poisoned");
        }
    }

    /// Start helpers until there are `want` (or the OS refuses one).
    ///
    /// Helpers are never joined: they live until the process exits, and
    /// a task's panic is caught and re-raised on its caller, so a
    /// detached helper hides nothing.
    fn grow(&'static self, st: &mut State, want: usize) {
        while st.helpers < want {
            let spawned = std::thread::Builder::new()
                .name(format!("coloc-pool-{}", st.helpers))
                .spawn(move || self.helper_loop());
            if spawned.is_err() {
                break;
            }
            st.helpers += 1;
        }
    }

    fn helper_loop(&self) {
        IS_HELPER.with(|h| h.set(true));
        let mut st = self.lock();
        loop {
            let Some(call) = st.calls.iter_mut().find(|c| c.seats > 0) else {
                st = self.work_ready.wait(st).expect("worker pool lock poisoned");
                continue;
            };
            call.seats -= 1;
            call.inside += 1;
            let (id, work) = (call.id, call.work);
            drop(st);
            work();
            st = self.lock();
            if st.leave(id) {
                self.call_done.notify_all();
            }
        }
    }
}

impl State {
    fn position(&self, id: u64) -> usize {
        self.calls
            .iter()
            .position(|c| c.id == id)
            .expect("a call stays listed while a worker is inside it")
    }

    /// Record a worker leaving call `id`; true when it was the last inside.
    fn leave(&mut self, id: u64) -> bool {
        let pos = self.position(id);
        let call = &mut self.calls[pos];
        call.inside -= 1;
        call.drained = true;
        call.inside == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_are_in_index_order() {
        let out = run_indexed(100, 8, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn identical_across_thread_counts() {
        let baseline = run_indexed(64, 1, |i| (i as f64).sqrt().sin());
        for threads in [2, 3, 8] {
            let out = run_indexed(64, threads, |i| (i as f64).sqrt().sin());
            assert_eq!(out, baseline, "threads = {threads}");
        }
        // 203 tasks is no multiple of the claim batch at any of these
        // counts (12, 8 and 3 tasks), so every call ends on a short batch;
        // every 17th task costs ~1000 times the rest, so workers can
        // finish their batches out of start order.
        let skewed = |i: usize| {
            let spins = if i.is_multiple_of(17) { 200_000 } else { 200 };
            let mut acc = i as u64;
            for k in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            (i, acc)
        };
        let baseline = run_indexed(203, 1, skewed);
        for threads in [2, 3, 8] {
            let batch = 203 / (threads * CHUNKS_PER_WORKER);
            assert!(!203usize.is_multiple_of(batch), "threads = {threads}");
            assert_eq!(
                run_indexed(203, threads, skewed),
                baseline,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn skewed_costs_fill_every_slot() {
        // Task 0 dwarfs the rest: under static chunking its whole chunk
        // would lag; stealing lets other workers drain the tail.
        let done = AtomicUsize::new(0);
        let out = run_indexed(33, 4, |i| {
            let spins = if i == 0 { 2_000_000 } else { 50 };
            let mut acc = 0u64;
            for k in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            done.fetch_add(1, Ordering::Relaxed);
            (i, acc)
        });
        assert_eq!(done.load(Ordering::Relaxed), 33);
        assert_eq!(out.len(), 33);
        for (idx, (i, _)) in out.iter().enumerate() {
            assert_eq!(idx, *i);
        }
    }

    #[test]
    fn zero_and_one_tasks() {
        assert!(run_indexed(0, 4, |i| i).is_empty());
        assert_eq!(run_indexed(1, 4, |i| i + 7), vec![7]);
    }

    #[test]
    fn zero_threads_means_auto() {
        assert!(resolve_threads(0, 1000) >= 1);
        assert_eq!(resolve_threads(16, 3), 3);
        assert_eq!(resolve_threads(2, 1000), 2);
        let out = run_indexed(10, 0, |i| i);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }
}
