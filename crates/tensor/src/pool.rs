//! A dependency-free, fixed-size thread pool with a **deterministic
//! fork-join** contract — the parallel substrate behind sweep-grid
//! dispatch, intra-run replica ticking and the quantized-kernel row blocks.
//!
//! The determinism rule is structural, not statistical: [`Pool::par_map`]
//! returns results **in submission order** regardless of which worker ran
//! which item or in what order items finished, and no API on this type ever
//! exposes completion order. A caller that partitions work into
//! independently-computed items and combines them by index therefore gets
//! bit-identical output at every thread count — the contract the golden
//! CSVs and the `serve_paged` equivalence tests lean on.
//!
//! Scheduling is work-stealing over a shared claim counter: each fork
//! publishes one task closure plus an atomic next-index, and every
//! participating worker steals the next unclaimed item when it finishes its
//! current one — so a worker stuck on a slow item never idles the rest of
//! the pool, and item→worker assignment is free to vary run to run without
//! observable effect.
//!
//! Sizing: [`Pool::new`] takes an explicit thread count (`0` means the
//! machine's available parallelism); the process-wide [`global`] pool reads
//! `QSERVE_THREADS` once (this module is the only library code allowed to
//! touch the environment — enforced by `qserve-lint`'s `wall-clock` rule).
//! A 1-thread pool runs every fork inline on the caller with no worker
//! threads at all, which is what the golden suite pins (`QSERVE_THREADS=1`
//! in `ci.sh`).
//!
//! Nesting: a fork issued *from inside* a pool task runs inline on that
//! worker instead of re-entering the queue. This keeps one blocked-waiter
//! level from ever deadlocking the fixed-size pool (a sweep cell that
//! parallelizes its replicas which parallelize their kernels would
//! otherwise have every worker waiting on a queue only they can drain),
//! and it changes nothing observable: inline execution is the same
//! index-ordered combine.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

/// One queued unit: run task indices until the claim counter drains.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// State shared between the pool handle and its workers.
struct Shared {
    queue: Mutex<QueueState>,
    /// Signals workers that a job (or shutdown) is available.
    available: Condvar,
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

thread_local! {
    /// True while the current thread is executing a pool task — the nesting
    /// guard that turns inner forks into inline execution.
    static IN_POOL_TASK: Cell<bool> = const { Cell::new(false) };
}

/// A fixed-size fork-join thread pool. See the module docs for the
/// determinism contract. Dropping the pool joins every worker.
pub struct Pool {
    /// Empty for a 1-thread pool: everything runs inline on the caller.
    shared: Option<Arc<Shared>>,
    workers: Vec<thread::JoinHandle<()>>,
    threads: usize,
}

/// Collects the results of one fork: a panic payload from any task (the
/// first one wins; the fork re-raises it on the forking thread) and the
/// count of finished workers the forking thread blocks on.
struct ForkState {
    finished: Mutex<ForkProgress>,
    done: Condvar,
}

struct ForkProgress {
    workers_done: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl Pool {
    /// A pool with `threads` workers; `0` asks for the machine's available
    /// parallelism. `threads == 1` spawns no OS threads — every fork runs
    /// inline on the caller, the mode the golden suite pins.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 { default_parallelism() } else { threads };
        if threads == 1 {
            return Self { shared: None, workers: Vec::new(), threads: 1 };
        }
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState { jobs: VecDeque::new(), shutdown: false }),
            available: Condvar::new(),
        });
        let workers = (0..threads - 1)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("qserve-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared: Some(shared), workers, threads }
    }

    /// The configured thread count (callers + workers).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items`, returning results **in submission order** —
    /// `out[i] == f(i, &items[i])` exactly as the sequential loop would
    /// produce, whatever the execution interleaving was.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
        out.resize_with(items.len(), || None);
        {
            let slots = SyncSlice::new(&mut out);
            self.par_run(items.len(), &|i| {
                let r = f(i, &items[i]);
                // Safety: par_run hands each index to exactly one task
                // invocation, so this is the only writer of slot `i`.
                unsafe { *slots.get_mut(i) = Some(r) };
            });
        }
        out.into_iter()
            .map(|r| r.expect("par_map task completed without a result"))
            .collect()
    }

    /// [`Pool::par_map`] over mutable items: each task gets exclusive
    /// access to its own element. Results still come back in submission
    /// order.
    pub fn par_map_mut<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
        out.resize_with(items.len(), || None);
        {
            let slots = SyncSlice::new(&mut out);
            let cells = SyncSlice::new(items);
            self.par_run(items.len(), &|i| {
                // Safety: index exclusivity (par_run) makes this the only
                // live reference to `items[i]` and the only writer of slot
                // `i`.
                let item = unsafe { cells.get_mut(i) };
                let r = f(i, item);
                unsafe { *slots.get_mut(i) = Some(r) };
            });
        }
        out.into_iter()
            .map(|r| r.expect("par_map_mut task completed without a result"))
            .collect()
    }

    /// Runs `task(0..n)` across the pool, returning when every index has
    /// completed. Each index is claimed by exactly one worker. Panics from
    /// any task are re-raised here after the fork drains.
    fn par_run(&self, n: usize, task: &(dyn Fn(usize) + Sync)) {
        let inline = n <= 1
            || self.shared.is_none()
            || IN_POOL_TASK.with(|t| t.get());
        if inline {
            for i in 0..n {
                task(i);
            }
            return;
        }
        let shared = self.shared.as_ref().expect("checked above");
        // Workers to enlist: no point waking more than there are items.
        // The caller itself is one of them, so only `helpers` jobs queue.
        let participants = self.threads.min(n);
        let helpers = participants - 1;
        let next = AtomicUsize::new(0);
        let fork = ForkState {
            finished: Mutex::new(ForkProgress { workers_done: 0, panic: None }),
            done: Condvar::new(),
        };
        {
            // Safety: the fork does not return until every participant has
            // reported done (see the wait loop below), so the borrows of
            // `task`, `next` and `fork` outlive every queued job even
            // though the queue's type says 'static.
            let job_data: (&(dyn Fn(usize) + Sync), &AtomicUsize, &ForkState) =
                (task, &next, &fork);
            let job_data: (
                &'static (dyn Fn(usize) + Sync),
                &'static AtomicUsize,
                &'static ForkState,
            ) = unsafe { std::mem::transmute(job_data) };
            let mut q = shared.queue.lock().expect("pool queue poisoned");
            for _ in 0..helpers {
                let (task, next, fork) = job_data;
                q.jobs.push_back(Box::new(move || run_claims(n, task, next, fork)));
            }
            drop(q);
            shared.available.notify_all();
        }
        // The forking thread participates too — inline, claiming from the
        // same counter (nested forks from these claims run inline via the
        // worker guard set here).
        IN_POOL_TASK.with(|t| t.set(true));
        let caller = catch_unwind(AssertUnwindSafe(|| claim_loop(n, task, &next)));
        IN_POOL_TASK.with(|t| t.set(false));
        // Wait for every helper to finish before looking at panics or
        // letting the borrows expire.
        let mut progress = fork.finished.lock().expect("fork state poisoned");
        while progress.workers_done < helpers {
            progress = fork.done.wait(progress).expect("fork state poisoned");
        }
        if let Err(payload) = caller {
            resume_unwind(payload);
        }
        if let Some(payload) = progress.panic.take() {
            drop(progress);
            resume_unwind(payload);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        if let Some(shared) = &self.shared {
            shared.queue.lock().expect("pool queue poisoned").shutdown = true;
            shared.available.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Claims and runs task indices until the counter drains.
fn claim_loop(n: usize, task: &(dyn Fn(usize) + Sync), next: &AtomicUsize) {
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            return;
        }
        task(i);
    }
}

/// One helper's share of a fork: claim indices, record completion (and the
/// first panic) in the fork state.
fn run_claims(n: usize, task: &(dyn Fn(usize) + Sync), next: &AtomicUsize, fork: &ForkState) {
    IN_POOL_TASK.with(|t| t.set(true));
    let result = catch_unwind(AssertUnwindSafe(|| claim_loop(n, task, next)));
    IN_POOL_TASK.with(|t| t.set(false));
    let mut progress = fork.finished.lock().expect("fork state poisoned");
    if let Err(payload) = result {
        progress.panic.get_or_insert(payload);
    }
    progress.workers_done += 1;
    fork.done.notify_all();
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.shutdown {
                    return;
                }
                q = shared.available.wait(q).expect("pool queue poisoned");
            }
        };
        job();
    }
}

/// `&mut [T]` sharable across tasks under the per-index exclusivity
/// guarantee of [`Pool::par_run`].
struct SyncSlice<T> {
    ptr: *mut T,
}

// Safety: every access goes through `get_mut(i)` with a distinct `i` per
// task (the claim counter hands out each index once), so no two threads
// ever touch the same element.
unsafe impl<T: Send> Sync for SyncSlice<T> {}

impl<T> SyncSlice<T> {
    fn new(slice: &mut [T]) -> Self {
        Self { ptr: slice.as_mut_ptr() }
    }

    /// # Safety
    /// The caller must guarantee `i` is in bounds and accessed by at most
    /// one thread at a time.
    #[allow(clippy::mut_from_ref)]
    unsafe fn get_mut(&self, i: usize) -> &mut T {
        &mut *self.ptr.add(i)
    }
}

/// The machine's available parallelism (1 if the query fails).
fn default_parallelism() -> usize {
    thread::available_parallelism().map_or(1, usize::from)
}

/// The thread count the process-wide pool was (or will be) built with:
/// `QSERVE_THREADS` when set to a positive integer, otherwise the machine's
/// available parallelism.
fn configured_threads() -> usize {
    match std::env::var("QSERVE_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => default_parallelism(),
        },
        Err(_) => default_parallelism(),
    }
}

/// The process-wide pool, built on first use from [`configured_threads`].
/// All production call sites (sweep grids, replica ticking, kernel row
/// blocks) share this pool; tests that need a specific width build their
/// own [`Pool`].
pub fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(|| Pool::new(configured_threads()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props;

    #[test]
    fn par_map_matches_sequential_map() {
        let pool = Pool::new(4);
        let items: Vec<u64> = (0..257).collect();
        let got = pool.par_map(&items, |i, &x| x * x + i as u64);
        let want: Vec<u64> =
            items.iter().enumerate().map(|(i, &x)| x * x + i as u64).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn one_thread_pool_runs_inline_without_workers() {
        let pool = Pool::new(1);
        assert_eq!(pool.threads(), 1);
        assert!(pool.workers.is_empty());
        let got = pool.par_map(&[1u32, 2, 3], |_, &x| x + 1);
        assert_eq!(got, vec![2, 3, 4]);
    }

    #[test]
    fn zero_asks_for_available_parallelism() {
        let pool = Pool::new(0);
        assert_eq!(pool.threads(), default_parallelism());
    }

    #[test]
    fn par_map_mut_gives_exclusive_element_access() {
        let pool = Pool::new(3);
        let mut items: Vec<Vec<u32>> = (0..64).map(|i| vec![i]).collect();
        let lens = pool.par_map_mut(&mut items, |i, v| {
            v.push(i as u32 * 2);
            v.len()
        });
        assert!(lens.iter().all(|&l| l == 2));
        for (i, v) in items.iter().enumerate() {
            assert_eq!(v, &[i as u32, i as u32 * 2]);
        }
    }

    #[test]
    fn nested_forks_run_inline_and_stay_ordered() {
        let pool = Pool::new(4);
        let outer: Vec<usize> = (0..16).collect();
        let got = pool.par_map(&outer, |_, &row| {
            let inner: Vec<usize> = (0..8).map(|c| row * 8 + c).collect();
            // This inner fork lands on a worker thread and must run inline
            // (same pool, no fresh queue capacity) yet keep its order.
            pool.par_map(&inner, |_, &x| x * 3)
        });
        for (row, inner) in got.iter().enumerate() {
            let want: Vec<usize> = (0..8).map(|c| (row * 8 + c) * 3).collect();
            assert_eq!(inner, &want);
        }
    }

    #[test]
    fn panics_propagate_to_the_forking_thread() {
        let pool = Pool::new(4);
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(&items, |_, &x| {
                assert!(x != 40, "task 40 exploded");
                x
            })
        }));
        assert!(result.is_err(), "the fork must re-raise the task panic");
        // The pool survives a panicked fork and serves the next one.
        let got = pool.par_map(&[5u32, 6], |_, &x| x);
        assert_eq!(got, vec![5, 6]);
    }

    props! {
        /// The headline determinism property: at any thread count, over
        /// random item counts and workloads, par_map preserves submission
        /// order exactly — `out[i]` is `f(i, items[i])`, bit for bit.
        fn par_map_preserves_submission_order(rng, cases = 24) {
            let threads = rng.int_in(1, 8) as usize;
            let n = rng.int_in(0, 200) as usize;
            let items: Vec<f64> = (0..n).map(|_| rng.normal(1.0) as f64).collect();
            let pool = Pool::new(threads);
            let got = pool.par_map(&items, |i, &x| (x * i as f64).to_bits());
            let want: Vec<u64> =
                items.iter().enumerate().map(|(i, &x)| (x * i as f64).to_bits()).collect();
            assert_eq!(got, want, "threads={threads} n={n}");
        }
    }
}
