//! Worker pool on plain `std::thread`: one FIFO task queue behind a
//! `Mutex`, one `Condvar` to wake idle workers (the build is std-only,
//! so no crossbeam). Workers pop from the front and sleep without a
//! timeout; every push notifies one sleeper, and shutdown is published
//! under the queue lock, so no wakeup can be lost. Dropping the pool
//! drains the queue before the workers exit.
//!
//! Fault containment, in two layers:
//!
//! * every task runs under `catch_unwind`; a panicking task increments a
//!   counter and kills nothing but itself. Callers that need failure
//!   semantics (the job scheduler) layer their own `catch_unwind` inside
//!   the task to capture the payload;
//! * if a panic nonetheless escapes the containment and unwinds the
//!   worker thread itself (exercised by [`WorkerPool::inject_worker_fault`]),
//!   a drop sentinel respawns a replacement worker, so capacity is never
//!   silently lost. Poisoned mutexes are recovered rather than propagated:
//!   the queue holds only owned task boxes, which stay structurally valid
//!   across an unwind.

use crate::lock;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

enum Task {
    /// A normal unit of work.
    Run(Job),
    /// A worker-killing fault: panics *outside* the per-task containment,
    /// unwinding the worker thread. Only injectable through
    /// [`WorkerPool::inject_worker_fault`]; exists to prove the respawn
    /// path works.
    Poison,
}

#[derive(Default)]
struct Shared {
    queue: Mutex<VecDeque<Task>>,
    available: Condvar,
    /// Only ever set while `queue` is locked, so a worker that saw it
    /// clear under the lock is already waiting when the final notify
    /// comes.
    shutdown: AtomicBool,
    queued: AtomicUsize,
    in_flight: AtomicUsize,
    panics: AtomicU64,
    executed: AtomicU64,
    respawned: AtomicU64,
}

impl Shared {
    fn spawn(&self, task: Task) {
        self.queued.fetch_add(1, Ordering::SeqCst);
        lock(&self.queue).push_back(task);
        self.available.notify_one();
    }

    /// Block until a task is queued; `None` once the pool is shutting
    /// down and the queue has drained.
    fn next_task(&self) -> Option<Task> {
        let mut queue = lock(&self.queue);
        loop {
            if let Some(task) = queue.pop_front() {
                return Some(task);
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            queue = self
                .available
                .wait(queue)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Submission handle detached from the pool's lifetime; see
/// [`WorkerPool::remote`].
#[derive(Clone)]
pub struct PoolRemote {
    shared: std::sync::Weak<Shared>,
}

impl PoolRemote {
    /// Enqueue a task if the pool is still alive; returns whether it was
    /// accepted.
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) -> bool {
        match self.shared.upgrade() {
            Some(shared) => {
                shared.spawn(Task::Run(Box::new(task)));
                true
            }
            None => false,
        }
    }
}

/// A fixed-size pool of worker threads executing `FnOnce` tasks.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> WorkerPool {
        let shared = Arc::new(Shared::default());
        let handles = (0..workers.max(1))
            .filter_map(|me| spawn_worker(&shared, me).ok())
            .collect();
        WorkerPool { shared, handles }
    }

    /// Enqueue a task. Never blocks; the queue is unbounded.
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) {
        self.shared.spawn(Task::Run(Box::new(task)));
    }

    /// Enqueue a worker-killing fault: whichever worker dequeues it
    /// panics outside its task containment and is replaced by a fresh
    /// thread (counted in [`WorkerPool::respawned`]). Test/diagnostic
    /// surface for the respawn path.
    pub fn inject_worker_fault(&self) {
        self.shared.spawn(Task::Poison);
    }

    /// A cloneable submission handle that can outlive borrows of the pool
    /// — in particular, tasks running *on* the pool capture one to spawn
    /// follow-up work. It deliberately does not keep workers alive: after
    /// the pool is dropped, remote spawns are silently dropped.
    pub fn remote(&self) -> PoolRemote {
        PoolRemote {
            shared: Arc::downgrade(&self.shared),
        }
    }

    /// Worker thread count.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Tasks enqueued but not yet started.
    pub fn queue_depth(&self) -> usize {
        self.shared.queued.load(Ordering::SeqCst)
    }

    /// Tasks currently executing.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::SeqCst)
    }

    /// Tasks that panicked (and were contained).
    pub fn panics(&self) -> u64 {
        self.shared.panics.load(Ordering::SeqCst)
    }

    /// Tasks fully executed (panicked or not).
    pub fn executed(&self) -> u64 {
        self.shared.executed.load(Ordering::SeqCst)
    }

    /// Workers that died to an escaped panic and were replaced.
    pub fn respawned(&self) -> u64 {
        self.shared.respawned.load(Ordering::SeqCst)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Set under the queue lock: a worker either sees the flag before
        // it waits, or is already waiting and receives this notify.
        {
            let _queue = lock(&self.shared.queue);
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.available.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        // Respawned replacements are detached; they wake on the same
        // notify, drain what is left, see the flag and exit.
    }
}

fn spawn_worker(shared: &Arc<Shared>, me: usize) -> std::io::Result<JoinHandle<()>> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("splendid-worker-{me}"))
        .spawn(move || {
            let sentinel = RespawnSentinel {
                shared: Arc::clone(&shared),
                me,
            };
            worker_loop(&shared);
            std::mem::forget(sentinel); // normal exit: no respawn
        })
}

/// Armed for the lifetime of a worker thread; if the thread unwinds (a
/// panic escaped the per-task containment), the sentinel's drop runs
/// during that unwind and spawns a replacement so the pool keeps its
/// capacity. Normal shutdown forgets the sentinel instead.
struct RespawnSentinel {
    shared: Arc<Shared>,
    me: usize,
}

impl Drop for RespawnSentinel {
    fn drop(&mut self) {
        if std::thread::panicking() && !self.shared.shutdown.load(Ordering::SeqCst) {
            self.shared.respawned.fetch_add(1, Ordering::SeqCst);
            // The replacement is detached: WorkerPool::drop joins only the
            // original handles, and replacements exit on the shutdown flag.
            let _ = spawn_worker(&self.shared, self.me);
        }
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(task) = shared.next_task() {
        shared.queued.fetch_sub(1, Ordering::SeqCst);
        match task {
            Task::Run(job) => {
                shared.in_flight.fetch_add(1, Ordering::SeqCst);
                if catch_unwind(AssertUnwindSafe(job)).is_err() {
                    shared.panics.fetch_add(1, Ordering::SeqCst);
                }
                shared.in_flight.fetch_sub(1, Ordering::SeqCst);
                shared.executed.fetch_add(1, Ordering::SeqCst);
            }
            // Deliberately outside catch_unwind: unwinds this worker
            // thread; the RespawnSentinel replaces it.
            Task::Poison => std::panic::panic_any("injected worker fault"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn executes_all_tasks_across_workers() {
        let pool = WorkerPool::new(4);
        let (tx, rx) = mpsc::channel();
        for i in 0..100u32 {
            let tx = tx.clone();
            pool.spawn(move || tx.send(i).unwrap());
        }
        drop(tx);
        let mut got: Vec<u32> = rx.into_iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert_eq!(pool.executed(), 100);
        assert_eq!(pool.panics(), 0);
        assert_eq!(pool.respawned(), 0);
    }

    #[test]
    fn panic_does_not_poison_the_pool() {
        let pool = WorkerPool::new(2);
        for _ in 0..8 {
            pool.spawn(|| panic!("deliberate"));
        }
        let (tx, rx) = mpsc::channel();
        for i in 0..16u32 {
            let tx = tx.clone();
            pool.spawn(move || tx.send(i).unwrap());
        }
        drop(tx);
        assert_eq!(rx.into_iter().count(), 16, "pool must survive panics");
        // The normal tasks can drain before the panicking ones run; wait
        // for the full 24 to execute before checking the panic counter.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while pool.executed() < 24 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(pool.panics(), 8);
        assert_eq!(
            pool.respawned(),
            0,
            "contained panics must not kill workers"
        );
    }

    #[test]
    fn two_workers_run_tasks_at_the_same_time() {
        // Each task blocks on a two-party barrier until the other one
        // arrives, so both finish only if two workers run them at once.
        let pool = WorkerPool::new(2);
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let (tx, rx) = mpsc::channel();
        for _ in 0..2 {
            let (barrier, tx) = (Arc::clone(&barrier), tx.clone());
            pool.spawn(move || {
                barrier.wait();
                tx.send(()).unwrap();
            });
        }
        for _ in 0..2 {
            if rx.recv_timeout(Duration::from_secs(10)).is_err() {
                // A task waits on the barrier for good, and dropping the
                // pool would join its worker: leak the pool, fail instead.
                std::mem::forget(pool);
                panic!("the two tasks never ran at the same time on a 2-worker pool");
            }
        }
    }

    #[test]
    fn single_worker_pool_runs_tasks_in_submission_order() {
        // Park the only worker on a gate, queue ten tasks behind it, then
        // open the gate: a FIFO queue must run them exactly in order.
        let pool = WorkerPool::new(1);
        let (parked_tx, parked_rx) = mpsc::channel();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        pool.spawn(move || {
            parked_tx.send(()).unwrap();
            let _ = gate_rx.recv();
        });
        parked_rx.recv().unwrap();
        let (tx, rx) = mpsc::channel();
        for i in 0..10u32 {
            let tx = tx.clone();
            pool.spawn(move || tx.send(i).unwrap());
        }
        drop(tx);
        gate_tx.send(()).unwrap();
        let got: Vec<u32> = rx.into_iter().collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn repeated_pool_shutdown_never_hangs() {
        // A shutdown notify that a worker misses would hang `Drop` for
        // good (workers wait without a timeout), so run the loop on a
        // helper thread and fail instead of hanging the suite.
        let (done_tx, done_rx) = mpsc::channel();
        let helper = std::thread::spawn(move || {
            for round in 0..200u64 {
                let pool = WorkerPool::new(2);
                let (tx, rx) = mpsc::channel();
                for i in 0..4 {
                    let tx = tx.clone();
                    pool.spawn(move || tx.send(round + i).unwrap());
                }
                drop(tx);
                assert_eq!(rx.into_iter().count(), 4);
                drop(pool);
            }
            done_tx.send(()).unwrap();
        });
        match done_rx.recv_timeout(Duration::from_secs(10)) {
            Err(mpsc::RecvTimeoutError::Timeout) => {
                panic!("200 build/use/drop rounds of a 2-worker pool did not finish in 10 s")
            }
            // Finished, or the loop itself failed: join to surface that.
            _ => {
                if let Err(payload) = helper.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }

    #[test]
    fn poisoned_worker_is_respawned_not_lost() {
        let pool = WorkerPool::new(1);
        pool.inject_worker_fault();
        // Work submitted after the fault must still execute — on the
        // replacement worker, since the pool only ever had one.
        let (tx, rx) = mpsc::channel();
        for i in 0..8u32 {
            let tx = tx.clone();
            pool.spawn(move || tx.send(i).unwrap());
        }
        drop(tx);
        let mut got: Vec<u32> = rx.into_iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        assert!(pool.respawned() >= 1, "fault must trigger a respawn");
    }
}
