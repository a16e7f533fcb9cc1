//! Work-stealing worker pool on plain `std::thread` + mutex-guarded
//! deques (the sandbox build is std-only, so no crossbeam).
//!
//! Topology: one global injector queue fed by [`WorkerPool::spawn`], plus
//! one local deque per worker. A worker that drains the injector takes a
//! small batch — one task to run now, the rest parked in its local deque —
//! and idle workers steal from the *front* of other workers' deques while
//! owners pop from the *back* (classic Chase-Lev discipline, here under
//! short mutex-protected critical sections).
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
//!   the queues hold only owned task boxes, which stay structurally valid
//!   across an unwind.

use crate::lock;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

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

/// How many tasks a worker grabs from the injector at once; the surplus
/// lands in its local deque where peers can steal it.
const INJECTOR_BATCH: usize = 4;

struct Shared {
    injector: Mutex<VecDeque<Task>>,
    available: Condvar,
    locals: Vec<Mutex<VecDeque<Task>>>,
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
        lock(&self.injector).push_back(task);
        self.available.notify_one();
    }

    /// Next task for worker `me`: local back → injector batch → steal.
    fn find_task(&self, me: usize) -> Option<Task> {
        if let Some(t) = lock(&self.locals[me]).pop_back() {
            return Some(t);
        }
        {
            let mut inj = lock(&self.injector);
            if !inj.is_empty() {
                let task = inj.pop_front();
                let surplus: Vec<Task> = (1..INJECTOR_BATCH)
                    .filter_map(|_| inj.pop_front())
                    .collect();
                drop(inj);
                if !surplus.is_empty() {
                    lock(&self.locals[me]).extend(surplus);
                    // Peers may be asleep; the surplus is stealable.
                    self.available.notify_all();
                }
                return task;
            }
        }
        for victim in (0..self.locals.len()).filter(|&v| v != me) {
            if let Some(t) = lock(&self.locals[victim]).pop_front() {
                return Some(t);
            }
        }
        None
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
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            shutdown: AtomicBool::new(false),
            queued: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            panics: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            respawned: AtomicU64::new(0),
        });
        let handles = (0..workers)
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
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.available.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        // Respawned replacements are detached; they observe the shutdown
        // flag within one nap interval and exit, dropping their `Arc`.
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
            worker_loop(&shared, me);
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

fn worker_loop(shared: &Shared, me: usize) {
    loop {
        if let Some(task) = shared.find_task(me) {
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
            continue;
        }
        let inj = lock(&shared.injector);
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if !inj.is_empty() {
            continue; // raced with a producer; go take it
        }
        // Steals have no dedicated wakeup, so cap the nap: a sleeping
        // worker re-scans peers' deques at worst every 20ms.
        let _ = shared
            .available
            .wait_timeout(inj, Duration::from_millis(20))
            .unwrap_or_else(|e| e.into_inner());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

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
    fn single_worker_pool_drains_serially() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = mpsc::channel();
        for i in 0..10u32 {
            let tx = tx.clone();
            pool.spawn(move || tx.send(i).unwrap());
        }
        drop(tx);
        // Injector batching reorders within a batch, but nothing is lost.
        let mut got: Vec<u32> = rx.into_iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
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
