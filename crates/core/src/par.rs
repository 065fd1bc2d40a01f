//! A small scoped-thread work-stealing job pool.
//!
//! The full reproduction is a 25-trace × 3-scheme sweep in which every
//! replay is independent: same seeds, fresh device per run. That makes the
//! harness embarrassingly parallel — but the build environment is offline,
//! so instead of rayon this module implements the minimum that the sweep
//! needs on plain `std`:
//!
//! * [`par_map`] — apply a function to every item of a `Vec`, spreading the
//!   work over scoped worker threads, and return the results **in input
//!   order**. Parallelism only reorders *execution* of independent jobs,
//!   never results, so a parallel sweep is byte-identical to a serial one.
//! * An *injector/steal* scheduler: jobs are dealt round-robin into one
//!   deque per worker; each worker pops its own deque from the back (LIFO,
//!   cache-warm) and steals from the fronts of the others (FIFO, oldest
//!   first) when its own runs dry.
//! * A process-wide job-count knob ([`set_jobs`]/[`jobs`]) so binaries can
//!   expose `--jobs N`; the default is [`available_parallelism`].
//!
//! With one worker (or one item) no threads are spawned at all — the map
//! degenerates to a plain serial loop, so single-core hosts pay nothing.
//!
//! Worker-thread panics are caught, the pool drains, and the first panic's
//! original payload is re-raised on the caller's thread.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide worker count; `0` means "unset, use the hardware".
static JOBS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// `true` while this thread is a pool worker. Nested [`par_map`] calls
    /// (e.g. the per-scheme fan-out inside an already-parallel per-trace
    /// sweep) run inline instead of spawning a second generation of
    /// threads, which would oversubscribe the machine.
    static IN_POOL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Number of hardware threads, with a floor of one.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Sets the process-wide worker count used by [`par_map`]. `0` resets to
/// the hardware default.
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// The worker count [`par_map`] will use: the last [`set_jobs`] value, or
/// [`available_parallelism`] when unset.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => available_parallelism(),
        n => n,
    }
}

/// Maps `f` over `items` on the process-wide worker count, returning
/// results in input order. See [`par_map_jobs`].
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_jobs(jobs(), items, f)
}

/// Maps `f` over `items` using at most `jobs` worker threads, returning
/// results in input order.
///
/// Every job runs exactly once: each item is dealt into exactly one deque
/// and popped by exactly one worker. With `jobs <= 1` or fewer than two
/// items the map runs inline on the caller's thread.
///
/// # Panics
///
/// Propagates the first panic raised by `f` on any worker.
pub fn par_map_jobs<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = jobs.max(1).min(n);
    if workers <= 1 || IN_POOL.with(std::cell::Cell::get) {
        return items.into_iter().map(f).collect();
    }

    // Injector: deal jobs round-robin into one deque per worker.
    let queues: Vec<Mutex<VecDeque<(usize, T)>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, item) in items.into_iter().enumerate() {
        queues[i % workers]
            .lock()
            // lint: allow(no-unwrap) -- a poisoned lock means a worker panicked; propagate it
            .expect("job queue poisoned")
            .push_back((i, item));
    }
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // First panic payload raised by `f`; re-raised on the caller's thread so
    // the original message survives (a bare scope panic would replace it
    // with "a scoped thread panicked").
    let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for w in 0..workers {
            let queues = &queues;
            let results = &results;
            let f = &f;
            let panic_payload = &panic_payload;
            let stop = &stop;
            scope.spawn(move || {
                IN_POOL.with(|flag| flag.set(true));
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    // Own deque first (back: most recently dealt,
                    // cache-warm), then steal from the fronts of the
                    // others. The own-deque guard is dropped before
                    // stealing: a worker holding its lock while taking
                    // another's deadlocks against that worker doing the
                    // same.
                    let own = queues[w]
                        .lock()
                        // lint: allow(no-unwrap) -- a poisoned lock means a worker panicked; propagate it
                        .expect("job queue poisoned")
                        .pop_back();
                    let job = own.or_else(|| {
                        (1..workers).find_map(|d| {
                            queues[(w + d) % workers]
                                .lock()
                                // lint: allow(no-unwrap) -- a poisoned lock means a worker panicked; propagate it
                                .expect("job queue poisoned")
                                .pop_front()
                        })
                    });
                    match job {
                        Some((i, item)) => match catch_unwind(AssertUnwindSafe(|| f(item))) {
                            Ok(result) => {
                                // lint: allow(no-unwrap) -- a poisoned lock means a worker panicked; propagate it
                                *results[i].lock().expect("result slot poisoned") = Some(result);
                            }
                            Err(payload) => {
                                panic_payload
                                    .lock()
                                    // lint: allow(no-unwrap) -- a poisoned lock means a worker panicked; propagate it
                                    .expect("panic slot poisoned")
                                    .get_or_insert(payload);
                                stop.store(true, Ordering::Relaxed);
                                break;
                            }
                        },
                        None => break,
                    }
                }
            });
        }
    });

    // lint: allow(no-unwrap) -- a poisoned lock means a worker panicked; propagate it
    if let Some(payload) = panic_payload.into_inner().expect("panic slot poisoned") {
        resume_unwind(payload);
    }

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                // lint: allow(no-unwrap) -- a poisoned lock means a worker panicked; propagate it
                .expect("result slot poisoned")
                // lint: allow(no-unwrap) -- infallible by construction; the message documents the invariant
                .expect("every dealt job runs exactly once")
        })
        .collect()
}

/// Maps `f` over `items` in fixed-size batches on the process-wide worker
/// count, returning results in input order. See [`par_map_batched_jobs`].
pub fn par_map_batched<T, R, F>(batch: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_batched_jobs(jobs(), batch, items, f)
}

/// Maps `f` over `items` using at most `jobs` workers, but schedules the
/// work in contiguous batches of `batch` items instead of one job per
/// item.
///
/// [`par_map_jobs`] pays one queue entry and one result slot per item,
/// which is the right trade for a 75-replay sweep and the wrong one for a
/// 100 000-device fleet fan-out: the per-item bookkeeping (deque churn,
/// one `Mutex<Option<R>>` lock per result) starts to rival the work.
/// Batching amortizes that bookkeeping over `batch` items while keeping
/// every guarantee of [`par_map_jobs`]: batches are dealt in order, run
/// exactly once, and results come back flattened **in input order** — the
/// batch size changes scheduling granularity, never results.
///
/// # Panics
///
/// Panics if `batch` is zero; propagates the first panic raised by `f`.
pub fn par_map_batched_jobs<T, R, F>(jobs: usize, batch: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    assert!(batch > 0, "batch size must be positive");
    let n = items.len();
    let mut batches: Vec<Vec<T>> = Vec::with_capacity(n.div_ceil(batch.max(1)));
    let mut it = items.into_iter();
    loop {
        let chunk: Vec<T> = it.by_ref().take(batch).collect();
        if chunk.is_empty() {
            break;
        }
        batches.push(chunk);
    }
    par_map_jobs(jobs, batches, |chunk| {
        chunk.into_iter().map(&f).collect::<Vec<R>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map_jobs(8, items.clone(), |x| x * 3);
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_fallback_matches() {
        let items: Vec<u64> = (0..17).collect();
        let serial = par_map_jobs(1, items.clone(), |x| x + 1);
        let parallel = par_map_jobs(4, items, |x| x + 1);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(par_map_jobs(4, Vec::<u64>::new(), |x| x), Vec::<u64>::new());
        assert_eq!(par_map_jobs(4, vec![9u64], |x| x * 2), vec![18]);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = AtomicU64::new(0);
        let out = par_map_jobs(3, (0..50u64).collect(), |x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 50);
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn workers_running_dry_together_do_not_deadlock() {
        // Both workers empty their deques at about the same moment and go
        // stealing from each other, over and over. A lock-order deadlock
        // would hang, so a watchdog turns it into a failure.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for _ in 0..10_000 {
                assert_eq!(par_map_jobs(2, vec![1u64, 2], |x| x), vec![1, 2]);
            }
            let _ = done.send(());
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("par_map_jobs deadlocked (or panicked)");
    }

    #[test]
    fn jobs_knob_round_trips() {
        // Other tests share the process; restore the default afterwards.
        set_jobs(3);
        assert_eq!(jobs(), 3);
        set_jobs(0);
        assert_eq!(jobs(), available_parallelism());
        assert!(available_parallelism() >= 1);
    }

    #[test]
    fn nested_par_map_runs_inline_and_stays_correct() {
        let out = par_map_jobs(4, (0..4u64).collect(), |x| {
            par_map_jobs(4, (0..3u64).collect(), move |y| x * 10 + y)
                .into_iter()
                .sum::<u64>()
        });
        assert_eq!(out, vec![3, 33, 63, 93]);
    }

    #[test]
    fn batched_map_matches_unbatched_for_any_batch_size() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 7 + 1).collect();
        for batch in [1, 2, 3, 64, 256, 257, 1000] {
            let out = par_map_batched_jobs(4, batch, items.clone(), |x| x * 7 + 1);
            assert_eq!(out, expected, "batch={batch} changed results");
        }
    }

    #[test]
    fn batched_map_runs_every_item_once() {
        let counter = AtomicU64::new(0);
        let out = par_map_batched_jobs(3, 16, (0..1000u64).collect(), |x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 1000);
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn batched_map_handles_empty_input() {
        assert_eq!(
            par_map_batched_jobs(4, 64, Vec::<u64>::new(), |x| x),
            Vec::<u64>::new()
        );
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_panics() {
        let _ = par_map_batched_jobs(2, 0, vec![1u64], |x| x);
    }

    #[test]
    #[should_panic(expected = "job boom")]
    fn worker_panic_propagates() {
        let _ = par_map_jobs(2, (0..8u64).collect(), |x| {
            if x == 5 {
                panic!("job boom");
            }
            x
        });
    }
}
