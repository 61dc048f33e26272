//! # ius-exec — the workspace's one thread executor
//!
//! The server runs an acceptor plus a worker pool, and the live index
//! builds segments in parallel and compacts off-lock. This crate holds the
//! two shapes they reduce to, so there is exactly one executor
//! implementation to audit:
//!
//! * [`Executor`] — a fixed-width **scoped fan-out** for finite task
//!   lists. `N` tasks are split into at most `threads` contiguous chunks,
//!   one scoped thread per chunk; results come back **in input order**,
//!   and a panicking task poisons **only its own slot** with a typed
//!   [`TaskPanic`] (the same isolation contract the PR-4 server worker
//!   loop established for connections). With one worker (or one task) the
//!   tasks run inline on the caller's thread — no spawn, no overhead —
//!   which is what makes `threads = 1` behave identically to a serial
//!   loop.
//! * [`WorkerPool`] — a bag of **named, long-running** threads (a server
//!   acceptor, protocol workers, a background compactor) with an explicit
//!   join. Unlike the fan-out these outlive the function that spawned
//!   them, so they are `'static` and non-scoped; the pool only tracks and
//!   joins them.
//!
//! Determinism is the point, not an accident: the parallel construction
//! path in the workspace (live segment builds) is required to produce
//! **byte-identical** output at every thread count, and the executor's
//! contribution is that task `i`'s result always lands in slot `i`
//! regardless of which worker ran it or when it finished.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::JoinHandle;

/// A task panicked. Only that task's slot is poisoned; every other task
/// of the same [`Executor::run`] call completes and reports normally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// Index of the panicking task (its position in the input order).
    pub task: usize,
    /// The panic payload, stringified (`&str` and `String` payloads are
    /// carried verbatim; anything else is summarised).
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task {} panicked: {}", self.task, self.message)
    }
}

impl std::error::Error for TaskPanic {}

/// Stringifies a caught panic payload (the two payload types `panic!`
/// actually produces, with a fallback for exotic ones).
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A fixed-width scoped-thread executor for finite task lists.
///
/// Cloning is free (the executor is just a thread count); every call to
/// [`Executor::run`] spawns its own scoped threads and joins them before
/// returning, so the executor holds no threads, no queues and no state
/// between calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    fn default() -> Self {
        Self::new()
    }
}

impl Executor {
    /// An executor over all available CPUs.
    pub fn new() -> Self {
        Self {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// An executor over exactly `threads` workers (`0` means all
    /// available CPUs).
    pub fn with_threads(threads: usize) -> Self {
        if threads == 0 {
            Self::new()
        } else {
            Self { threads }
        }
    }

    /// The configured worker count (at least 1).
    pub fn threads(&self) -> usize {
        self.threads.max(1)
    }

    /// Runs tasks `0..count` and returns the results **in input order**:
    /// slot `i` holds task `i`'s result.
    ///
    /// Tasks are split into at most [`Executor::threads`] contiguous
    /// chunks, one scoped thread per chunk — the same static schedule at
    /// every thread count, which is what parallel construction paths rely
    /// on for byte-identical output. With one worker (or fewer than two
    /// tasks) everything runs inline on the caller's thread.
    ///
    /// A panicking task poisons only its own slot (a typed
    /// [`TaskPanic`]); its worker keeps running the remaining tasks of its
    /// chunk.
    pub fn run<T, F>(&self, count: usize, task: F) -> Vec<Result<T, TaskPanic>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut slots: Vec<Option<Result<T, TaskPanic>>> = Vec::with_capacity(count);
        slots.resize_with(count, || None);
        let workers = self.threads().min(count.max(1));
        let fill = |base: usize, chunk_slots: &mut [Option<Result<T, TaskPanic>>]| {
            for (j, slot) in chunk_slots.iter_mut().enumerate() {
                let index = base + j;
                *slot = Some(
                    catch_unwind(AssertUnwindSafe(|| task(index))).map_err(|payload| TaskPanic {
                        task: index,
                        message: payload_message(payload.as_ref()),
                    }),
                );
            }
        };
        if workers <= 1 {
            fill(0, &mut slots);
        } else {
            let chunk = count.div_ceil(workers);
            std::thread::scope(|scope| {
                for (w, chunk_slots) in slots.chunks_mut(chunk).enumerate() {
                    let fill = &fill;
                    scope.spawn(move || fill(w * chunk, chunk_slots));
                }
            });
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every task slot is filled"))
            .collect()
    }
}

/// A bag of named, long-running threads with an explicit join — the
/// shape of the server's acceptor + worker pool and the live index's
/// background compactor.
///
/// Dropping the pool does **not** stop or join the threads (they detach),
/// matching the serving layer's contract that only an explicit shutdown
/// tears a server down; call [`WorkerPool::join_all`] after signalling
/// the threads to stop.
#[derive(Debug, Default)]
pub struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Spawns a named thread into the pool.
    ///
    /// # Panics
    ///
    /// If the OS refuses to spawn a thread.
    pub fn spawn<F>(&mut self, name: &str, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        let handle = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(f)
            .unwrap_or_else(|e| panic!("spawning thread {name}: {e}"));
        self.handles.push(handle);
    }

    /// Number of threads spawned and not yet joined.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// `true` iff no thread is tracked.
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// Joins every tracked thread, returning how many of them had
    /// panicked (their panics are swallowed — a crashed worker must not
    /// take the joining thread down with it).
    pub fn join_all(&mut self) -> usize {
        let mut panicked = 0usize;
        for handle in self.handles.drain(..) {
            if handle.join().is_err() {
                panicked += 1;
            }
        }
        panicked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order_for_any_thread_count() {
        for threads in [1usize, 2, 3, 8, 64] {
            let executor = Executor::with_threads(threads);
            assert_eq!(executor.threads(), threads);
            let results = executor.run(37, |i| i * i);
            let values: Vec<usize> = results.into_iter().map(|r| r.unwrap()).collect();
            let expected: Vec<usize> = (0..37).map(|i| i * i).collect();
            assert_eq!(values, expected, "threads = {threads}");
        }
    }

    #[test]
    fn a_panicking_task_poisons_only_its_own_slot_and_surfaces_typed() {
        for threads in [1usize, 2, 8] {
            let executor = Executor::with_threads(threads);
            let results = executor.run(10, |i| {
                if i == 4 {
                    panic!("task four exploded");
                }
                i + 100
            });
            for (i, result) in results.iter().enumerate() {
                if i == 4 {
                    let err = result.as_ref().unwrap_err();
                    assert_eq!(err.task, 4);
                    assert!(err.message.contains("task four exploded"));
                    assert!(err.to_string().contains("task 4 panicked"));
                } else {
                    assert_eq!(*result.as_ref().unwrap(), i + 100, "threads = {threads}");
                }
            }
        }
    }

    #[test]
    fn non_string_panic_payloads_are_summarised() {
        let results = Executor::with_threads(1).run(1, |_| {
            std::panic::panic_any(42usize);
        });
        assert_eq!(
            results[0].as_ref().unwrap_err().message,
            "non-string panic payload"
        );
    }

    #[test]
    fn zero_tasks_and_single_worker_edge_cases() {
        let executor = Executor::with_threads(8);
        let results: Vec<Result<usize, TaskPanic>> = executor.run(0, |i| i);
        assert!(results.is_empty());
        // 0 threads means "all CPUs", never 0 workers.
        let all = Executor::with_threads(0);
        assert!(all.threads() >= 1);
        assert_eq!(Executor::default().threads(), all.threads());
        let one = Executor::with_threads(1);
        let results = one.run(5, |i| i * 2);
        assert_eq!(
            results.into_iter().map(|r| r.unwrap()).collect::<Vec<_>>(),
            vec![0, 2, 4, 6, 8]
        );
        // A single task never spawns: it runs inline even on a wide
        // executor (count caps the worker count).
        let results = executor.run(1, |i| i + 9);
        assert_eq!(results[0], Ok(9));
    }

    #[test]
    fn worker_pool_joins_and_reports_panics() {
        let mut pool = WorkerPool::new();
        assert!(pool.is_empty());
        pool.spawn("ius-test-ok", || {});
        pool.spawn("ius-test-panic", || panic!("worker down"));
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.join_all(), 1);
        assert!(pool.is_empty());
        // Joining an empty pool is a no-op.
        assert_eq!(pool.join_all(), 0);
    }
}
