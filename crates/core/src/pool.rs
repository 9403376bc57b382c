//! A persistent worker pool with scoped, deterministic-merge execution.
//!
//! The sharded coordinator used to spawn one OS thread per shard per
//! tick (`std::thread::scope`), which at huge scale means millions of
//! short-lived spawns. This module keeps a small set of **long-lived
//! workers** alive for the whole process and hands them closures over
//! a queue, so a tick fan-out costs one enqueue per shard instead of
//! one `clone(2)`.
//!
//! ## Determinism
//!
//! The pool executes closures; it never merges results. Callers write
//! into pre-allocated, index-addressed slots (one `&mut` slot per
//! task, exactly like the `thread::scope` pattern it replaces) and
//! read them back in index order after [`WorkerPool::scope`] returns,
//! so the *schedule* of workers is invisible: outputs are a pure
//! function of the inputs regardless of interleaving. DESIGN.md §14
//! carries the full argument.
//!
//! ## Scoped borrows
//!
//! [`WorkerPool::scope`] mirrors [`std::thread::scope`]: closures may
//! borrow from the caller's stack (`'env`), and the scope joins every
//! submitted task before returning. Internally the closure is
//! lifetime-erased to sit in the shared queue; the join barrier is
//! what makes that sound (no task can outlive the borrows it captured,
//! because `scope` does not return until all tasks ran).
//!
//! ## Nested scopes
//!
//! A task may itself open a scope on the same pool. A waiting scope
//! **helps**: while its tasks are pending it drains the shared queue
//! and runs tasks inline, so the caller's thread works during a
//! fan-out and the pool cannot deadlock even when every worker is
//! blocked inside a nested wait. (The sharded tick fan-out, the one
//! caller in the tree, does not nest; the unit tests below do.)
//!
//! ## One-core behavior
//!
//! With one available core the pool spawns **zero** workers and
//! `execute` runs closures inline in submission order — byte-for-byte
//! the serial path, with no threads to coordinate. Callers that want
//! to skip building per-task state entirely can gate on
//! [`WorkerPool::workers`]` >= 2`.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A type-erased unit of work. Tasks are wrapped in `catch_unwind`
/// before they reach the queue, so running one never unwinds into a
/// worker's loop.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The queue shared by workers and helping scopes.
struct Queue {
    state: Mutex<QueueState>,
    /// Signaled when a job is pushed, when the pool closes, and when a
    /// scope's last task finishes (so a helping waiter re-checks).
    ready: Condvar,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl Queue {
    /// Lock the queue state, treating a poisoned mutex as usable:
    /// tasks run under `catch_unwind`, so a panic can only poison the
    /// lock between balanced push/pop operations that leave the state
    /// consistent.
    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Per-scope join state: how many submitted tasks have not finished,
/// and the first captured panic (re-raised at scope exit).
struct ScopeSync {
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// A persistent pool of worker threads. See the module docs.
pub struct WorkerPool {
    queue: Arc<Queue>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// Upper bound on spawned workers: fan-outs in this workspace are
/// shard- or probe-sized, far below large host core counts.
const MAX_WORKERS: usize = 16;

impl WorkerPool {
    /// A pool with `threads` long-lived workers. `threads <= 1` spawns
    /// no workers at all: with no parallelism to win, `execute` runs
    /// inline and the pool is a zero-thread pass-through.
    pub fn new(threads: usize) -> WorkerPool {
        let queue = Arc::new(Queue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        });
        let workers = if threads <= 1 { 0 } else { threads };
        let handles = (0..workers)
            .map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("dfrs-pool-{i}"))
                    .spawn(move || worker_loop(&queue))
                    .expect("spawning a pool worker thread")
            })
            .collect();
        WorkerPool { queue, handles }
    }

    /// A pool sized to the machine: one worker per available core,
    /// capped, and zero workers on a single-core host.
    pub fn sized_for_machine() -> WorkerPool {
        WorkerPool::new(available_threads())
    }

    /// Number of live workers (0 means `execute` runs inline).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Run `f` with a [`Scope`] whose tasks may borrow from the
    /// caller's stack; returns only after every submitted task ran.
    /// The first panicking task's payload is re-raised here (after the
    /// join barrier), matching `std::thread::scope` semantics.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        let scope = Scope {
            pool: self,
            sync: Arc::new(ScopeSync {
                pending: AtomicUsize::new(0),
                panic: Mutex::new(None),
            }),
            env: std::marker::PhantomData,
        };
        let result = f(&scope);
        self.wait(&scope.sync);
        let panic = scope
            .sync
            .panic
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        result
    }

    /// The join barrier: run queued tasks (ours or anyone's — that is
    /// what makes nested scopes deadlock-free) until this scope's
    /// pending count reaches zero.
    fn wait(&self, sync: &ScopeSync) {
        loop {
            let job = {
                let mut q = self.queue.lock();
                loop {
                    if let Some(job) = q.jobs.pop_front() {
                        break Some(job);
                    }
                    if sync.pending.load(Ordering::Acquire) == 0 {
                        break None;
                    }
                    // The last-task notification takes the queue lock
                    // before signaling, so this wait cannot miss it.
                    q = self.queue.ready.wait(q).unwrap_or_else(|e| e.into_inner());
                }
            };
            match job {
                Some(job) => job(),
                None => return,
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.queue.lock().closed = true;
        self.queue.ready.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

fn worker_loop(queue: &Queue) {
    loop {
        let job = {
            let mut q = queue.lock();
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.closed {
                    return;
                }
                q = queue.ready.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        job();
    }
}

/// Handle for submitting borrowed tasks to a [`WorkerPool`]; created
/// by [`WorkerPool::scope`] and joined before `scope` returns.
pub struct Scope<'scope, 'env: 'scope> {
    pool: &'scope WorkerPool,
    sync: Arc<ScopeSync>,
    /// Invariant over `'env`, like `std::thread::scope`'s marker: the
    /// environment lifetime must not be shortened behind the borrows
    /// the tasks captured.
    env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Submit a task. With zero workers it runs inline immediately
    /// (the serial path); otherwise it is queued for the workers and
    /// joined at scope exit. Panics are captured and re-raised by
    /// `scope` after the barrier.
    pub fn execute<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        if self.pool.workers() == 0 {
            f();
            return;
        }
        self.sync.pending.fetch_add(1, Ordering::AcqRel);
        let sync = Arc::clone(&self.sync);
        let queue = Arc::clone(&self.pool.queue);
        let wrapped = move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                let mut slot = sync.panic.lock().unwrap_or_else(|e| e.into_inner());
                slot.get_or_insert(payload);
            }
            if sync.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Wake the scope's waiter under the queue lock so the
                // wake cannot race its pending-count check.
                drop(queue.lock());
                queue.ready.notify_all();
            }
        };
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(wrapped);
        // SAFETY: the queue requires 'static, but every task submitted
        // through this scope is joined by `WorkerPool::scope` before it
        // returns (the `wait` barrier runs until pending == 0), so no
        // task — nor anything it borrows from 'env — outlives the
        // scope body. This is the same argument `std::thread::scope`
        // makes for its own lifetime erasure.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(job)
        };
        let mut q = self.pool.queue.lock();
        q.jobs.push_back(job);
        drop(q);
        self.pool.queue.ready.notify_one();
    }
}

/// Worker count a machine-sized pool would use: available parallelism,
/// capped at `MAX_WORKERS` (16), and 0 on a single-core host (see
/// [`WorkerPool::new`]).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_WORKERS)
}

/// The process-wide pool behind the sharded tick fan-out. Initialized
/// on first use, sized by [`available_threads`], and never torn down
/// (workers park on the condvar when idle).
pub fn global() -> &'static WorkerPool {
    static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
    GLOBAL.get_or_init(WorkerPool::sized_for_machine)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_worker_pool_runs_inline_in_submission_order() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.workers(), 0);
        let order = Mutex::new(Vec::new());
        pool.scope(|s| {
            for i in 0..8 {
                let order = &order;
                s.execute(move || order.lock().unwrap().push(i));
            }
        });
        assert_eq!(order.into_inner().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn scoped_tasks_fill_index_addressed_slots() {
        let pool = WorkerPool::new(4);
        let inputs: Vec<u64> = (0..64).collect();
        let mut out = vec![0u64; inputs.len()];
        pool.scope(|s| {
            for (slot, &x) in out.iter_mut().zip(&inputs) {
                s.execute(move || *slot = x * x);
            }
        });
        assert!(out.iter().zip(&inputs).all(|(&o, &x)| o == x * x));
    }

    #[test]
    fn scope_joins_before_returning() {
        use std::sync::atomic::AtomicU64;
        let pool = WorkerPool::new(3);
        let done = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..32 {
                s.execute(|| {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(done.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        // More outer tasks than workers, each opening an inner scope:
        // without the helping waiter this configuration deadlocks.
        let pool = WorkerPool::new(2);
        let inputs: Vec<u64> = (0..8).collect();
        let mut out = vec![0u64; inputs.len()];
        pool.scope(|s| {
            for (slot, &x) in out.iter_mut().zip(&inputs) {
                s.execute(move || {
                    let mut inner = [0u64; 3];
                    global_free_scope(&mut inner, x);
                    *slot = inner.iter().sum();
                });
            }
        });
        assert!(out.iter().zip(&inputs).all(|(&o, &x)| o == 3 * x));

        fn global_free_scope(slots: &mut [u64; 3], x: u64) {
            // Re-enter the *global* pool pattern via a local pool would
            // spawn threads; nested scopes must work on the same pool,
            // which the helper in `wait` guarantees. Use the global
            // pool here so the nesting is real when cores allow.
            global().scope(|s| {
                for slot in slots.iter_mut() {
                    s.execute(move || *slot = x);
                }
            });
        }
    }

    #[test]
    fn task_panic_is_reraised_at_scope_exit() {
        let pool = WorkerPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.execute(|| panic!("probe exploded"));
            });
        }));
        let payload = caught.expect_err("the task panic must re-raise");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(msg.contains("probe exploded"), "{msg}");
        // The pool survives a panicking task.
        let mut x = 0;
        pool.scope(|s| s.execute(|| x = 7));
        assert_eq!(x, 7);
    }

    #[test]
    fn global_pool_matches_machine_sizing() {
        let pool = global();
        let threads = available_threads();
        let expected = if threads <= 1 { 0 } else { threads };
        assert_eq!(pool.workers(), expected);
    }
}
