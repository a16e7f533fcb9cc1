#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! `splendid-serve`: the batch-decompilation service layer.
//!
//! The core crate exposes a single-threaded library call; this crate
//! turns it into a service that schedules whole suites of decompilation
//! requests in parallel (the paper's §5 evaluation workload):
//!
//! * [`pool`] — a worker pool on `std::thread` over one FIFO queue, with
//!   per-task panic isolation (a panicking task fails its job, not the
//!   service);
//! * [`scheduler`] — the job scheduler: requests (textual IR or parsed
//!   modules + [`splendid_core::SplendidOptions`]) are split into
//!   per-function work items, with per-job deadlines/cancellation;
//! * [`cache`] — one bounded, content-addressed LRU type for function
//!   results and validation certificates, keyed by a stable FNV-1a 64
//!   digest ([`splendid_ir::hash`]) of (module context, canonically
//!   printed function IR, options fingerprint), so re-decompiling
//!   unchanged functions is a lookup;
//! * [`admission`] — overload protection in front of the scheduler:
//!   bounded admission, per-tenant fairness/quotas, and the
//!   admit → degrade → shed ladder with typed [`admission::Busy`]
//!   refusals;
//! * [`stats`] — service observability: per-stage wall time, queue
//!   depth, cache hit rate, job counts, snapshotable and pretty-printable.
//!
//! The `splendid` binary (`src/bin/splendid.rs`) wires this up as a CLI
//! with `decompile`, `batch`, `validate` and `difftest` subcommands.

pub mod admission;
pub mod cache;
pub mod codec;
pub mod pool;
pub mod scheduler;
pub mod stats;
pub mod validate;

pub use admission::{AdmissionTicket, Busy, ShedReason};
pub use cache::{
    BlobTiers, CacheCounters, CacheTier, DiskTier, FunctionCache, LruCache, TierCounters,
};
pub use pool::{PoolRemote, WorkerPool};
pub use scheduler::{
    function_cache_key, module_cache_key, JobError, JobHandle, JobInput, JobRequest, JobResult,
    Scheduler, ServeConfig,
};
pub use stats::{ServeStats, StatsSnapshot};
pub use validate::{cert_cache_key, Certificate, ValidateOutcome};

/// Poison-recovering lock. Every mutex in the service guards state that is
/// valid at each instruction boundary — LRU links, task queues, token
/// buckets, job slots, the disk store — so a panic elsewhere carries no
/// information a later holder needs, and must not wedge the service.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod send_sync_assertions {
    //! Compile-time proof that everything crossing the pool is `Send +
    //! Sync` (the thread-safety audit of the service layer).
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn service_types_are_thread_safe() {
        assert_send_sync::<splendid_ir::Module>();
        assert_send_sync::<splendid_core::SplendidOptions>();
        assert_send_sync::<splendid_core::DecompileOutput>();
        assert_send_sync::<splendid_core::PreparedModule>();
        assert_send_sync::<splendid_core::FunctionOutput>();
        assert_send_sync::<splendid_core::StageTimings>();
        assert_send_sync::<FunctionCache>();
        assert_send_sync::<WorkerPool>();
        assert_send_sync::<Scheduler>();
        assert_send_sync::<ServeStats>();
        assert_send_sync::<JobRequest>();
        assert_send_sync::<JobResult>();
        assert_send_sync::<JobError>();
        assert_send_sync::<AdmissionTicket>();
        assert_send_sync::<Busy>();
    }
}
