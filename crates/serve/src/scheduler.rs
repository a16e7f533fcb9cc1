//! The job scheduler: batches of decompilation requests, split into
//! per-function work items on the worker pool, with per-job deadlines,
//! panic isolation, and the content-addressed function cache in the
//! middle.
//!
//! Execution model: `submit` enqueues one *job task* (parse + module-wide
//! detransformation). The job task fans its functions out as independent
//! work items onto the same pool; the last item to finish assembles the
//! final translation unit and completes the job, so no worker ever blocks
//! waiting for another — a batch cannot deadlock even on a 1-worker pool.
//!
//! Fault containment (see `DESIGN.md`, "Fault containment & fidelity
//! tiers"):
//!
//! * deadlines are enforced in two places only: [`JobHandle::wait`]
//!   stops waiting when the deadline passes, and every handoff (job
//!   start, each work item, assembly, validation) checks it before doing
//!   more work; timeouts carry the stage the job was in when its
//!   deadline expired;
//! * transient preparation errors (injected timeouts, allocation-cap
//!   trips) are retried with short bounded backoff before failing the job;
//! * a work item that panics is retried once at the `Literal` fidelity
//!   floor with the cache bypassed; a second failure quarantines the job
//!   (counted, reported as [`JobError::Panicked`]).

use crate::admission::{AdmissionController, AdmissionLease, AdmissionTicket, Busy, ShedReason};
use crate::cache::{BlobTiers, FunctionCache, LruCache};
use crate::pool::{PoolRemote, WorkerPool};
use crate::stats::{ServeStats, StatsSnapshot};
use crate::validate::Certificate;
use crate::{codec, lock};
use splendid_core::{
    assemble_output, decompile_function, panic_message, prepare_module, DecompileOutput,
    FidelityTier, FunctionOutput, PreparedModule, SplendidError, SplendidOptions, StageTimings,
    Variant,
};
use splendid_ir::hash::Fnv64;
use splendid_ir::{parser::parse_module, FuncId, Module};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads; 0 means one per available core.
    pub workers: usize,
    /// Capacity, in entries, of each in-memory LRU (functions and
    /// certificates); 0 disables both.
    pub cache_capacity: usize,
    /// Deadline applied to every job; `None` means jobs never time out.
    pub job_timeout: Option<Duration>,
    /// Admission bound on pending (admitted, not yet completed) jobs;
    /// requests past the bound are shed with a typed [`Busy`]. 0
    /// disables the bound (the pre-admission-control behavior).
    pub max_pending_jobs: usize,
    /// Pending-job level past which admitted requests are degraded to
    /// the `Quick` fidelity tier instead of running at full fidelity
    /// (the middle rung of the admission ladder). 0 disables.
    pub degrade_pending_jobs: usize,
    /// Per-tenant token-bucket burst; 0 disables quotas.
    pub quota_burst: u32,
    /// Per-tenant token-bucket refill rate, requests/second.
    pub quota_per_sec: u32,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 0,
            cache_capacity: 4096,
            job_timeout: None,
            max_pending_jobs: 0,
            degrade_pending_jobs: 0,
            quota_burst: 0,
            quota_per_sec: 0,
        }
    }
}

/// What a request decompiles.
#[derive(Debug, Clone)]
pub enum JobInput {
    /// Textual IR, parsed on a worker.
    Text(String),
    /// An already-parsed module.
    Module(Module),
    /// An already-prepared module (parsed + detransformed). The daemon's
    /// interactive sessions prepare once per UPDATE (they need the
    /// prepared functions for fingerprinting anyway) and submit this, so
    /// an incremental decompile skips straight to the per-function
    /// fan-out instead of re-running the module-wide detransform. `Arc`
    /// so resubmitting a resident module never copies it.
    Prepared(Arc<PreparedModule>),
}

/// One decompilation request.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Caller-chosen label, echoed in the result.
    pub name: String,
    /// Module to decompile.
    pub input: JobInput,
    /// Pipeline options.
    pub options: SplendidOptions,
}

impl JobRequest {
    /// Request over a parsed module with default options.
    pub fn from_module(name: impl Into<String>, module: Module) -> JobRequest {
        JobRequest {
            name: name.into(),
            input: JobInput::Module(module),
            options: SplendidOptions::default(),
        }
    }

    /// Request over textual IR with default options.
    pub fn from_text(name: impl Into<String>, text: impl Into<String>) -> JobRequest {
        JobRequest {
            name: name.into(),
            input: JobInput::Text(text.into()),
            options: SplendidOptions::default(),
        }
    }
}

/// Why a job produced no output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The textual IR did not parse.
    Parse(String),
    /// Module-wide detransformation failed (after transient retries).
    Prepare(String),
    /// The fidelity ladder bottomed out: even the `Literal` tier failed.
    Decompile(String),
    /// A work item panicked twice (original + `Literal`-floor retry); the
    /// payload is preserved, the pool is not harmed.
    Panicked(String),
    /// The job's deadline expired; `stage` is where it was at the time.
    TimedOut {
        /// Pipeline stage the job was in when the deadline fired.
        stage: &'static str,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Parse(e) => write!(f, "parse error: {e}"),
            JobError::Prepare(e) => write!(f, "detransform error: {e}"),
            JobError::Decompile(e) => write!(f, "decompile error: {e}"),
            JobError::Panicked(e) => write!(f, "job panicked: {e}"),
            JobError::TimedOut { stage } => write!(f, "job timed out during {stage}"),
        }
    }
}

impl std::error::Error for JobError {}

/// Successful decompilation of one job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Label from the request.
    pub name: String,
    /// The decompiled translation unit.
    pub output: DecompileOutput,
    /// Functions in the module.
    pub functions: usize,
    /// Of those, how many came out of the cache.
    pub cached_functions: usize,
    /// Of those, how many were emitted below the `Natural` tier.
    pub degraded_functions: usize,
    /// Functions carrying a `Verified` annotation (0 unless the job ran
    /// with [`SplendidOptions::validate`]).
    pub verified_functions: usize,
    /// Functions carrying an `UNVERIFIED` annotation.
    pub unverified_functions: usize,
    /// Submit-to-completion wall time.
    pub wall: Duration,
}

/// Job lifecycle stages, for timeout attribution. Stored as an `AtomicU8`
/// on the job state so a timed-out waiter can read it without locking.
mod job_stage {
    pub const QUEUED: u8 = 0;
    pub const PARSE: u8 = 1;
    pub const PREPARE: u8 = 2;
    pub const FUNCTIONS: u8 = 3;
    pub const ASSEMBLE: u8 = 4;

    pub fn label(stage: u8) -> &'static str {
        match stage {
            QUEUED => "queue",
            PARSE => "parse",
            PREPARE => "prepare",
            FUNCTIONS => "functions",
            _ => "assemble",
        }
    }
}

/// Fan-out target for service counters: every job records into the
/// scheduler-wide [`ServeStats`], and — when submitted through
/// [`Scheduler::submit_ticketed`] with session stats — into a second
/// per-caller instance (the daemon gives each session its own, so the
/// STATS surface can attribute work per session without the scheduler
/// knowing about sessions).
#[derive(Clone)]
pub(crate) struct StatsSink {
    primary: Arc<ServeStats>,
    extra: Option<Arc<ServeStats>>,
}

impl StatsSink {
    fn each(&self, f: impl Fn(&ServeStats)) {
        f(&self.primary);
        if let Some(extra) = &self.extra {
            f(extra);
        }
    }

    pub(crate) fn add(&self, counter: impl Fn(&ServeStats) -> &AtomicU64, n: u64) {
        self.each(|s| {
            counter(s).fetch_add(n, Ordering::Relaxed);
        });
    }

    pub(crate) fn record_timings(&self, t: &StageTimings) {
        self.each(|s| s.record_timings(t));
    }

    fn record_parse(&self, d: Duration) {
        self.each(|s| s.record_parse(d));
    }
}

pub(crate) struct JobState {
    name: String,
    started: Instant,
    deadline: Option<Instant>,
    stage: AtomicU8,
    cancelled: AtomicBool,
    remaining: AtomicUsize,
    cached: AtomicUsize,
    degraded: AtomicUsize,
    verified: AtomicUsize,
    unverified: AtomicUsize,
    slots: Mutex<Vec<Option<FunctionOutput>>>,
    done: Mutex<Option<Result<JobResult, JobError>>>,
    cv: Condvar,
    stats: StatsSink,
    /// Cache layers shared with the scheduler.
    caches: Arc<Caches>,
    /// Whole-module record key, set by the job task for fault-free
    /// `Text` jobs so the last work item can persist the assembled
    /// output on its way out.
    module_key: std::sync::OnceLock<u64>,
    /// Admission lease, released on completion so the pending gauge
    /// (and the tenant's in-flight share) frees exactly when the job's
    /// capacity does — not when the handle is dropped.
    lease: Mutex<Option<AdmissionLease>>,
}

impl JobState {
    fn expired(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    fn enter(&self, stage: u8) {
        self.stage.store(stage, Ordering::SeqCst);
    }

    fn timeout_error(&self) -> JobError {
        JobError::TimedOut {
            stage: job_stage::label(self.stage.load(Ordering::SeqCst)),
        }
    }

    /// First completion wins; later attempts are no-ops.
    fn complete(&self, result: Result<JobResult, JobError>) {
        let mut done = lock(&self.done);
        if done.is_none() {
            match &result {
                Ok(r) => {
                    self.stats.add(|s| &s.jobs_completed, 1);
                    // Service-time estimate feed for admission's queue-wait
                    // and retry-after hints.
                    self.stats.add(
                        |s| &s.ns_jobs_wall,
                        u64::try_from(r.wall.as_nanos()).unwrap_or(u64::MAX),
                    );
                }
                Err(JobError::TimedOut { .. }) => self.stats.add(|s| &s.jobs_timed_out, 1),
                Err(_) => self.stats.add(|s| &s.jobs_failed, 1),
            };
            // Free the admission slot BEFORE publishing the result: the
            // waiter's very next request must not be refused by tenant
            // fairness because this finished job still holds its lease.
            lock(&self.lease).take();
            *done = Some(result);
            self.cv.notify_all();
        }
    }
}

/// Handle to an in-flight job.
pub struct JobHandle {
    state: Arc<JobState>,
}

impl JobHandle {
    /// Block until the job completes, fails, or hits its deadline.
    pub fn wait(self) -> Result<JobResult, JobError> {
        let state = &self.state;
        let mut done = lock(&state.done);
        loop {
            if let Some(r) = done.take() {
                return r;
            }
            match state.deadline {
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        // Deadline passed with no result: cancel pending
                        // items and report the timeout ourselves.
                        state.cancelled.store(true, Ordering::SeqCst);
                        let timeout = state.timeout_error();
                        drop(done);
                        state.complete(Err(timeout.clone()));
                        return lock(&state.done).take().unwrap_or(Err(timeout));
                    }
                    done = state
                        .cv
                        .wait_timeout(done, d - now)
                        .unwrap_or_else(|e| e.into_inner())
                        .0;
                }
                None => done = state.cv.wait(done).unwrap_or_else(|e| e.into_inner()),
            }
        }
    }
}

fn options_fingerprint(o: &SplendidOptions) -> u64 {
    let start_tier = match o.start_tier {
        FidelityTier::Natural => 1u8,
        FidelityTier::Structured => 2,
        FidelityTier::Literal => 3,
        // Quick results must never alias Natural/Structured/Literal ones.
        FidelityTier::Quick => 4,
    };
    let mut h = Fnv64::new();
    h.write(&[
        o.variant as u8,
        o.guard_elimination as u8,
        o.inline_expressions as u8,
        start_tier,
        // Fault plans make outputs depend on injection state; keep those
        // keys from ever colliding with clean-run keys (the scheduler
        // additionally bypasses the cache entirely under faults).
        o.faults.is_some() as u8,
        // Validated jobs annotate their assembled output, so module
        // records from validated and unvalidated runs must never alias.
        o.validate as u8,
    ]);
    h.finish()
}

/// Content-address of one *whole module text* under one option set: the
/// key for module-level cache records.
///
/// Module records answer a `Text` job before the IR is even parsed —
/// that is what makes a warm daemon restart fast, because module
/// preparation (parse + detransform + fingerprinting) costs several
/// times a single cached-function lookup. The key hashes the raw text,
/// so any byte of drift (even whitespace) misses and falls through to
/// the normal pipeline; correctness never depends on this tier.
pub fn module_cache_key(text: &str, opts: &SplendidOptions) -> u64 {
    let mut h = Fnv64::new();
    h.write(b"module:");
    h.write(text.as_bytes());
    h.write_u64(options_fingerprint(opts));
    h.finish()
}

/// Content-address of one function under one option set: the cache key.
///
/// The function-body and module-context components are the stable
/// fingerprints core memoizes on the [`PreparedModule`] — the same
/// digests the daemon's incremental dirty tracking compares — so
/// "dirty" and "cache miss" agree by construction, and a fully-cached
/// lookup never re-prints IR.
pub fn function_cache_key(prepared: &PreparedModule, fid: FuncId, opts: &SplendidOptions) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(prepared.context_fingerprint());
    h.write_u64(prepared.function_fingerprint(fid));
    h.write_u64(options_fingerprint(opts));
    h.finish()
}

/// Transient-error retry schedule for module preparation: total attempts
/// = 1 + `PREPARE_BACKOFF.len()`.
const PREPARE_BACKOFF: [Duration; 2] = [Duration::from_millis(1), Duration::from_millis(2)];

/// The cache layers every function result and certificate goes
/// through: the in-memory function LRU, the certificate LRU, and the
/// blob-tier chain (disk store, peer daemon, ...) under both. One per
/// scheduler, shared by all of its jobs.
pub(crate) struct Caches {
    pub(crate) functions: FunctionCache,
    pub(crate) certs: LruCache<Certificate>,
    pub(crate) tiers: BlobTiers,
}

/// Where [`Caches::fetch_function`] got a function's output.
pub(crate) enum Fetched {
    /// From the LRU or a blob tier.
    Cached(FunctionOutput),
    /// From a fresh ladder run; a keyed success was written to the LRU
    /// and the tiers.
    Decompiled(Result<FunctionOutput, SplendidError>),
    /// The ladder run panicked; the payload is the caller's to handle.
    Panicked(Box<dyn std::any::Any + Send>),
    /// Nothing was cached and the job expired before the ladder started.
    Expired,
}

impl Caches {
    /// One function through the cache layers: the LRU, then the blob
    /// tiers, then the fidelity ladder, whose success fills the LRU and
    /// the tiers. `key` is `None` for results that must not be cached.
    /// With a `job`, its deadline rides along: a tier whose worst-case
    /// cost (e.g. a peer round-trip timeout) would overrun it is skipped,
    /// not waited on, and an expired job never starts the ladder.
    pub(crate) fn fetch_function(
        &self,
        prepared: &PreparedModule,
        fid: FuncId,
        options: &SplendidOptions,
        key: Option<u64>,
        job: Option<&JobState>,
        stats: &StatsSink,
    ) -> Fetched {
        if let Some(k) = key {
            let deadline = job.and_then(|j| j.deadline);
            let tiers = || self.tiers.get_function_before(k, deadline).map(Arc::new);
            if let Some(hit) = self.functions.read_through(k, tiers) {
                stats.add(|s| &s.functions_from_cache, 1);
                return Fetched::Cached((*hit).clone());
            }
        }
        if job.is_some_and(JobState::expired) {
            return Fetched::Expired;
        }
        match attempt_decompile(prepared, fid, options, stats) {
            Ok(Ok(out)) => {
                if let Some(k) = key {
                    self.functions.insert(k, Arc::new(out.clone()));
                    self.tiers.put_function(k, &out);
                }
                Fetched::Decompiled(Ok(out))
            }
            Ok(Err(e)) => Fetched::Decompiled(Err(e)),
            Err(payload) => Fetched::Panicked(payload),
        }
    }
}

/// The cache key of one function, or `None` when `options` carry a fault
/// plan: injected faults make outputs depend on hidden injection state,
/// so cached entries would alias distinct outcomes. Keying runs under
/// `catch_unwind` because malformed IR can defeat the printer.
pub(crate) fn cache_key(
    prepared: &PreparedModule,
    fid: FuncId,
    options: &SplendidOptions,
) -> Option<std::thread::Result<u64>> {
    options.faults.is_none().then(|| {
        catch_unwind(AssertUnwindSafe(|| {
            function_cache_key(prepared, fid, options)
        }))
    })
}

/// The batch-decompilation service.
pub struct Scheduler {
    pool: WorkerPool,
    caches: Arc<Caches>,
    stats: Arc<ServeStats>,
    admission: Arc<AdmissionController>,
    config: ServeConfig,
}

impl Scheduler {
    /// Start a service with the given configuration and no persistent
    /// tiers (in-memory LRU only).
    pub fn new(config: ServeConfig) -> Scheduler {
        Scheduler::new_with_tiers(config, BlobTiers::default())
    }

    /// Start a service with a blob-tier chain under the LRU (disk
    /// store, peer daemon, ...). Tier construction — and its error
    /// handling — stays with the caller; a default chain is empty.
    pub fn new_with_tiers(config: ServeConfig, tiers: BlobTiers) -> Scheduler {
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.workers
        };
        Scheduler {
            pool: WorkerPool::new(workers),
            caches: Arc::new(Caches {
                functions: FunctionCache::new(config.cache_capacity),
                certs: LruCache::new(config.cache_capacity),
                tiers,
            }),
            stats: Arc::new(ServeStats::default()),
            admission: Arc::new(AdmissionController::new(
                config.max_pending_jobs,
                config.degrade_pending_jobs,
                config.quota_burst,
                config.quota_per_sec,
                workers,
            )),
            config,
        }
    }

    /// Worker thread count.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Accept a job; returns immediately with a waitable handle.
    ///
    /// This path bypasses the admission *checks* (batch/CLI callers have
    /// no tenant and no wire deadline) but still occupies the pending
    /// gauge, so the daemon's admission decisions see batch load too.
    pub fn submit(&self, request: JobRequest) -> JobHandle {
        self.submit_inner(self.admission.bypass_ticket(), request, None)
    }

    /// Average observed job service time, in ms, for admission's queue
    /// estimates. Defaults to a conservative 50 ms before any job has
    /// completed.
    fn avg_job_ms(&self) -> u64 {
        let completed = self.stats.jobs_completed.load(Ordering::Relaxed);
        if completed == 0 {
            return 50;
        }
        let wall_ns = self.stats.ns_jobs_wall.load(Ordering::Relaxed);
        (wall_ns / completed / 1_000_000).max(1)
    }

    /// Walk the admission ladder for one prospective request (see
    /// `crate::admission`). `tenant` is the caller's fairness key — the
    /// daemon passes the session's module-context digest — and
    /// `deadline` the request's absolute budget, if it carries one.
    ///
    /// On success the returned ticket *reserves* queue capacity; pass it
    /// to [`Scheduler::submit_ticketed`] (or drop it to release the
    /// reservation). On refusal the typed [`Busy`] carries a
    /// `retry_after_ms` hint sized from the current queue and observed
    /// job service times. Sheds and degradations are counted in the
    /// scheduler-wide stats by reason.
    pub fn admit(
        &self,
        tenant: Option<u64>,
        deadline: Option<Instant>,
    ) -> Result<AdmissionTicket, Busy> {
        match self.admission.admit(tenant, deadline, self.avg_job_ms()) {
            Ok(ticket) => {
                if ticket.degraded() {
                    self.stats
                        .jobs_degraded_admission
                        .fetch_add(1, Ordering::Relaxed);
                }
                Ok(ticket)
            }
            Err(busy) => {
                let counter = match busy.reason {
                    ShedReason::QueueFull => &self.stats.jobs_shed_queue,
                    ShedReason::QuotaExhausted => &self.stats.jobs_shed_quota,
                    ShedReason::DeadlineDoomed => &self.stats.jobs_shed_deadline,
                };
                counter.fetch_add(1, Ordering::Relaxed);
                Err(busy)
            }
        }
    }

    /// Submit a job under an admission ticket: the ticket's degrade
    /// decision rewrites the request's start tier to `Quick`, and its
    /// deadline rides the job state through every handoff (combined with
    /// the scheduler's own `job_timeout`, whichever is earlier).
    ///
    /// With `session_stats`, every counter and stage timing this job
    /// produces is also recorded there (on top of the scheduler-wide
    /// stats): the daemon gives each session its own [`ServeStats`]
    /// while sharing one scheduler and one cache across all sessions.
    pub fn submit_ticketed(
        &self,
        ticket: AdmissionTicket,
        mut request: JobRequest,
        session_stats: Option<Arc<ServeStats>>,
    ) -> JobHandle {
        if ticket.degrade {
            request.options.start_tier = FidelityTier::Quick;
        }
        self.submit_inner(ticket, request, session_stats)
    }

    fn submit_inner(
        &self,
        ticket: AdmissionTicket,
        request: JobRequest,
        session_stats: Option<Arc<ServeStats>>,
    ) -> JobHandle {
        let AdmissionTicket {
            lease, deadline, ..
        } = ticket;
        let sink = StatsSink {
            primary: Arc::clone(&self.stats),
            extra: session_stats,
        };
        sink.add(|s| &s.jobs_submitted, 1);
        // A request can carry its own deadline *and* run under a
        // scheduler-wide timeout: the earlier one wins.
        let config_deadline = self.config.job_timeout.map(|t| Instant::now() + t);
        let deadline = match (deadline, config_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let state = Arc::new(JobState {
            name: request.name.clone(),
            started: Instant::now(),
            deadline,
            stage: AtomicU8::new(job_stage::QUEUED),
            cancelled: AtomicBool::new(false),
            remaining: AtomicUsize::new(0),
            cached: AtomicUsize::new(0),
            degraded: AtomicUsize::new(0),
            verified: AtomicUsize::new(0),
            unverified: AtomicUsize::new(0),
            slots: Mutex::new(Vec::new()),
            done: Mutex::new(None),
            cv: Condvar::new(),
            stats: sink,
            caches: Arc::clone(&self.caches),
            module_key: std::sync::OnceLock::new(),
            lease: Mutex::new(lease),
        });
        let job_state = Arc::clone(&state);
        let remote = self.pool.remote();
        self.pool.spawn(move || run_job(request, job_state, remote));
        JobHandle { state }
    }

    /// Submit every request, then wait for them all (in order).
    pub fn decompile_batch(&self, requests: Vec<JobRequest>) -> Vec<Result<JobResult, JobError>> {
        let handles: Vec<JobHandle> = requests.into_iter().map(|r| self.submit(r)).collect();
        handles.into_iter().map(JobHandle::wait).collect()
    }

    /// Decompile one module synchronously through the service.
    pub fn decompile_module(
        &self,
        name: impl Into<String>,
        module: &Module,
        options: &SplendidOptions,
    ) -> Result<JobResult, JobError> {
        self.submit(JobRequest {
            name: name.into(),
            input: JobInput::Module(module.clone()),
            options: options.clone(),
        })
        .wait()
    }

    /// Snapshot the observability counters.
    pub fn stats(&self) -> StatsSnapshot {
        let mut snap = self.stats.snapshot(
            self.caches.functions.counters(),
            self.pool.queue_depth(),
            self.pool.in_flight(),
            self.pool.workers(),
            self.pool.respawned(),
        );
        snap.tiers = self.caches.tiers.counters();
        snap.admission_pending = self.admission.pending();
        snap
    }

    /// The blob-tier chain under the LRU (empty when none configured).
    pub fn tiers(&self) -> &BlobTiers {
        &self.caches.tiers
    }

    /// Serve a raw record blob from the *disk tier only* — the daemon's
    /// `CACHE_GET` handler. Never consults peer tiers, so two daemons
    /// feeding each other cannot loop a lookup.
    pub fn cache_blob_get(&self, key: u64) -> Option<Vec<u8>> {
        self.caches.tiers.disk().and_then(|d| d.get(key))
    }

    /// Accept a raw record blob into the disk tier — the daemon's
    /// `CACHE_PUT` handler (after the daemon validates that the blob
    /// decodes). Returns false when no disk tier is configured.
    pub fn cache_blob_put(&self, key: u64, blob: &[u8]) -> bool {
        match self.caches.tiers.disk() {
            Some(d) => {
                d.put(key, blob);
                true
            }
            None => false,
        }
    }

    /// Flush every blob tier (drain write-behind queues, make the disk
    /// store durable and its index clean).
    pub fn flush_cache(&self) {
        self.caches.tiers.flush();
    }

    /// Enqueue a worker-killing fault (see
    /// [`WorkerPool::inject_worker_fault`]).
    pub fn inject_worker_fault(&self) {
        self.pool.inject_worker_fault();
    }
}

/// Job task: parse + prepare (with transient retry), then fan out
/// per-function items.
fn run_job(request: JobRequest, state: Arc<JobState>, remote: PoolRemote) {
    if state.expired() {
        state.complete(Err(state.timeout_error()));
        return;
    }
    let stats = state.stats.clone();
    let JobRequest { input, options, .. } = request;

    // Whole-module fast path: a fault-free Text job whose exact text ×
    // options was decompiled before (possibly by a previous process —
    // that's the warm restart) completes here, skipping parse, prepare,
    // and the per-function fan-out entirely. Fault-injected runs never
    // consult or populate persistent tiers (degraded output must not
    // outlive the process).
    let input = if let JobInput::Text(text) = input {
        let tiers = &state.caches.tiers;
        if options.faults.is_none() && !tiers.is_empty() {
            let key = module_cache_key(&text, &options);
            let _ = state.module_key.set(key);
            let hit = tiers
                .get(key)
                .and_then(|blob| codec::decode_module_record(&blob).ok());
            if let Some(output) = hit {
                let functions = output.program.functions.len();
                stats.add(|s| &s.functions_from_cache, functions as u64);
                // Verdict annotations are baked into the record; report
                // them as certificate hits (no check ran this process).
                let verdicts = crate::validate::count_annotations(&output.program);
                let tagged = (verdicts.verified + verdicts.unverified) as u64;
                if tagged > 0 {
                    stats.add(|s| &s.certs_from_cache, tagged);
                    stats.add(|s| &s.functions_verified, verdicts.verified as u64);
                    stats.add(|s| &s.functions_unverified, verdicts.unverified as u64);
                }
                state.complete(Ok(JobResult {
                    name: state.name.clone(),
                    output,
                    functions,
                    cached_functions: functions,
                    degraded_functions: 0,
                    verified_functions: verdicts.verified,
                    unverified_functions: verdicts.unverified,
                    wall: state.started.elapsed(),
                }));
                return;
            }
        }
        JobInput::Text(text)
    } else {
        input
    };

    let prepared = match catch_unwind(AssertUnwindSafe(
        || -> Result<Arc<PreparedModule>, JobError> {
            let module = match input {
                JobInput::Prepared(p) => return Ok(p),
                JobInput::Module(m) => m,
                JobInput::Text(text) => {
                    state.enter(job_stage::PARSE);
                    let start = Instant::now();
                    let parsed = parse_module(&text).map_err(|e| JobError::Parse(e.to_string()))?;
                    stats.record_parse(start.elapsed());
                    parsed
                }
            };
            state.enter(job_stage::PREPARE);
            prepare_with_retry(&module, &options, &state, &stats).map(Arc::new)
        },
    )) {
        Ok(Ok(p)) => p,
        Ok(Err(e)) => return state.complete(Err(e)),
        Err(payload) => return state.complete(Err(JobError::Panicked(panic_message(payload)))),
    };

    let fids: Vec<FuncId> = prepared.module.func_ids().collect();
    if fids.is_empty() {
        state.enter(job_stage::ASSEMBLE);
        let mut timings = StageTimings::default();
        let output = assemble_output(&prepared, Vec::new(), &mut timings);
        stats.record_timings(&timings);
        finish(&state, &prepared, output);
        return;
    }

    state.enter(job_stage::FUNCTIONS);
    *lock(&state.slots) = vec![None; fids.len()];
    state.remaining.store(fids.len(), Ordering::SeqCst);
    for (slot, fid) in fids.into_iter().enumerate() {
        let item_state = Arc::clone(&state);
        let prepared = Arc::clone(&prepared);
        let options = options.clone();
        let accepted = remote.spawn(move || {
            let stats = item_state.stats.clone();
            run_function_item(&item_state, &prepared, fid, slot, &options, &stats)
        });
        if !accepted {
            // Pool already shut down; the job can never finish normally.
            state.complete(Err(state.timeout_error()));
            return;
        }
    }
}

/// Module preparation with bounded exponential backoff on *transient*
/// errors (deterministic fault injection marks timeouts as transient;
/// real services map I/O flakes the same way). Non-transient errors fail
/// immediately — retrying a deterministic failure only burns the deadline.
fn prepare_with_retry(
    module: &Module,
    options: &SplendidOptions,
    state: &JobState,
    stats: &StatsSink,
) -> Result<PreparedModule, JobError> {
    let mut backoff = PREPARE_BACKOFF.iter();
    loop {
        let mut timings = StageTimings::default();
        match prepare_module(module, options, &mut timings) {
            Ok(prepared) => {
                stats.record_timings(&timings);
                let (loops, reds) = prepared
                    .simd_loops
                    .iter()
                    .fold((0u64, 0u64), |(l, r), rep| {
                        (l + rep.loops as u64, r + rep.reductions as u64)
                    });
                if loops > 0 {
                    stats.add(|s| &s.simd_loops_devectorized, loops);
                }
                if reds > 0 {
                    stats.add(|s| &s.simd_reductions, reds);
                }
                return Ok(prepared);
            }
            Err(e) if e.transient => match backoff.next() {
                Some(delay) if !state.expired() => {
                    stats.add(|s| &s.prepare_retries, 1);
                    std::thread::sleep(*delay);
                }
                _ => return Err(JobError::Prepare(e.to_string())),
            },
            Err(e) => return Err(JobError::Prepare(e.to_string())),
        }
    }
}

/// Per-function work item: cache lookup, decompile on miss (retrying once
/// at the `Literal` floor if the attempt panics), and — as the last item
/// standing — assembly of the whole translation unit.
fn run_function_item(
    state: &JobState,
    prepared: &Arc<PreparedModule>,
    fid: FuncId,
    slot: usize,
    options: &SplendidOptions,
    stats: &StatsSink,
) {
    if !state.expired() {
        match decompile_item(state, prepared, fid, options, stats) {
            Ok(out) => {
                // A Quick emit that was *requested* is the job's contract,
                // not a degradation; anything below the requested rung is.
                let requested_quick =
                    options.start_tier == FidelityTier::Quick && out.tier == FidelityTier::Quick;
                if out.tier > FidelityTier::Natural && !requested_quick {
                    state.degraded.fetch_add(1, Ordering::Relaxed);
                }
                lock(&state.slots)[slot] = Some(out);
            }
            Err(e) => {
                state.cancelled.store(true, Ordering::SeqCst);
                state.complete(Err(e));
            }
        }
    }

    if state.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
        // Last item: assemble, unless the job already failed or expired.
        if state.expired() {
            state.complete(Err(state.timeout_error()));
            return;
        }
        state.enter(job_stage::ASSEMBLE);
        let functions: Option<Vec<FunctionOutput>> = lock(&state.slots).drain(..).collect();
        match functions {
            Some(mut functions) => {
                if options.validate {
                    let start = Instant::now();
                    let outcome = crate::validate::run_validation(
                        prepared,
                        &mut functions,
                        options,
                        &state.caches,
                        stats,
                        &|| state.expired(),
                    );
                    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    stats.add(|s| &s.ns_validate, ns);
                    state.verified.store(outcome.verified, Ordering::Relaxed);
                    state
                        .unverified
                        .store(outcome.unverified, Ordering::Relaxed);
                    if state.expired() {
                        state.complete(Err(state.timeout_error()));
                        return;
                    }
                }
                let mut timings = StageTimings::default();
                let output = assemble_output(prepared, functions, &mut timings);
                stats.record_timings(&timings);
                finish(state, prepared, output);
            }
            // A slot stayed empty without tripping cancellation: treat it
            // like the panic it must have been.
            None => state.complete(Err(JobError::Panicked("lost work item".into()))),
        }
    }
}

/// One function through the cache layers + ladder + panic-retry.
fn decompile_item(
    state: &JobState,
    prepared: &Arc<PreparedModule>,
    fid: FuncId,
    options: &SplendidOptions,
    stats: &StatsSink,
) -> Result<FunctionOutput, JobError> {
    let key = match cache_key(prepared, fid, options) {
        // Keying panicked: go straight to the Literal-floor recovery
        // attempt.
        Some(Err(payload)) => return attempt_retry(prepared, fid, stats, payload),
        Some(Ok(k)) => Some(k),
        None => None,
    };
    match state
        .caches
        .fetch_function(prepared, fid, options, key, Some(state), stats)
    {
        Fetched::Cached(out) => {
            state.cached.fetch_add(1, Ordering::Relaxed);
            Ok(out)
        }
        Fetched::Decompiled(Ok(out)) => Ok(out),
        // Expired work is cancelled at the handoff into the ladder
        // instead of burning a worker.
        Fetched::Expired => Err(state.timeout_error()),
        // The ladder itself reported failure: even `Literal` could not
        // emit this function. Deterministic — no point retrying.
        Fetched::Decompiled(Err(e)) => Err(JobError::Decompile(e.to_string())),
        // The attempt panicked past the ladder's own containment: retry
        // once at the Literal floor, uncached.
        Fetched::Panicked(payload) => attempt_retry(prepared, fid, stats, payload),
    }
}

/// Run one ladder attempt under `catch_unwind`, recording timings.
fn attempt_decompile(
    prepared: &PreparedModule,
    fid: FuncId,
    options: &SplendidOptions,
    stats: &StatsSink,
) -> std::thread::Result<Result<FunctionOutput, SplendidError>> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut timings = StageTimings::default();
        let fresh = decompile_function(prepared, fid, options, &mut timings);
        stats.record_timings(&timings);
        if fresh.is_ok() {
            stats.add(|s| &s.functions_decompiled, 1);
        }
        fresh
    }))
}

/// Panic recovery: one more attempt, pinned to the `Literal` tier (the
/// statement-per-instruction emitter shares no code with the passes that
/// just blew up), with variant `V1` so naming/pragma stay out of the way
/// and faults disabled. Success resumes the job at degraded fidelity;
/// failure quarantines the item.
fn attempt_retry(
    prepared: &PreparedModule,
    fid: FuncId,
    stats: &StatsSink,
    first_payload: Box<dyn std::any::Any + Send>,
) -> Result<FunctionOutput, JobError> {
    stats.add(|s| &s.functions_retried, 1);
    let floor = SplendidOptions {
        variant: Variant::V1,
        start_tier: FidelityTier::Literal,
        faults: None,
        ..SplendidOptions::default()
    };
    match attempt_decompile(prepared, fid, &floor, stats) {
        Ok(Ok(out)) => Ok(out),
        Ok(Err(e)) => {
            stats.add(|s| &s.functions_quarantined, 1);
            Err(JobError::Panicked(format!(
                "{} (Literal-floor retry failed: {e})",
                panic_message(first_payload)
            )))
        }
        Err(second) => {
            stats.add(|s| &s.functions_quarantined, 1);
            Err(JobError::Panicked(format!(
                "{} (Literal-floor retry also panicked: {})",
                panic_message(first_payload),
                panic_message(second)
            )))
        }
    }
}

fn finish(state: &JobState, prepared: &PreparedModule, output: DecompileOutput) {
    // Fault-free Text jobs persist the assembled unit as a module
    // record, so the next process (or a peer) answers the identical
    // request without parsing. Write-behind: the put enqueues and the
    // job completes immediately.
    if let Some(&key) = state.module_key.get() {
        state
            .caches
            .tiers
            .put(key, &codec::encode_module_record(&output));
    }
    let functions = prepared.module.functions.len();
    state.complete(Ok(JobResult {
        name: state.name.clone(),
        output,
        functions,
        cached_functions: state.cached.load(Ordering::Relaxed),
        degraded_functions: state.degraded.load(Ordering::Relaxed),
        verified_functions: state.verified.load(Ordering::Relaxed),
        unverified_functions: state.unverified.load(Ordering::Relaxed),
        wall: state.started.elapsed(),
    }));
}
