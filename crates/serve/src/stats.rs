//! Service observability: lock-free counters updated by workers, plus a
//! plain snapshot struct the CLI pretty-prints.

use crate::cache::{CacheCounters, TierCounters};
use splendid_core::StageTimings;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Shared, atomically-updated service counters.
///
/// Workers record into this through an `Arc`; readers take a coherent
/// enough view via [`ServeStats::snapshot`] (individual counters are
/// relaxed — the stats surface is diagnostic, not transactional).
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Jobs accepted by the scheduler.
    pub jobs_submitted: AtomicU64,
    /// Jobs that produced output.
    pub jobs_completed: AtomicU64,
    /// Jobs that failed (parse/prepare errors or a panicking function).
    pub jobs_failed: AtomicU64,
    /// Jobs cancelled by their deadline.
    pub jobs_timed_out: AtomicU64,
    /// Requests shed at admission because the pending-job queue was full.
    pub jobs_shed_queue: AtomicU64,
    /// Requests shed at admission because the estimated queue wait
    /// already exceeded their deadline (doomed work, never started).
    pub jobs_shed_deadline: AtomicU64,
    /// Requests admitted but degraded to the `Quick` tier by pressure.
    pub jobs_degraded_admission: AtomicU64,
    /// Cumulative wall time of completed jobs, ns — admission's
    /// service-time estimate (`/ jobs_completed`).
    pub ns_jobs_wall: AtomicU64,
    /// Per-function work items decompiled (cache misses that ran).
    pub functions_decompiled: AtomicU64,
    /// Per-function work items served from the cache.
    pub functions_from_cache: AtomicU64,
    /// Functions that fell back to the `Structured` fidelity tier.
    pub functions_degraded_structured: AtomicU64,
    /// Functions that fell back to the `Literal` fidelity tier.
    pub functions_degraded_literal: AtomicU64,
    /// Per-function work items retried after a contained panic.
    pub functions_retried: AtomicU64,
    /// Retried work items that panicked again and were given up on.
    pub functions_quarantined: AtomicU64,
    /// Module preparations retried after a transient fault.
    pub prepare_retries: AtomicU64,
    /// Vector loops devectorized to `#pragma omp simd` form during
    /// module preparation.
    pub simd_loops_devectorized: AtomicU64,
    /// Reduction clauses recovered across those loops.
    pub simd_reductions: AtomicU64,
    /// Functions whose output carries a `Verified` certificate.
    pub functions_verified: AtomicU64,
    /// Functions whose output carries an `Unverified` certificate.
    pub functions_unverified: AtomicU64,
    /// Validation checks actually executed (cold certificates).
    pub validations_run: AtomicU64,
    /// Verdicts answered from a cached certificate (memory or tier).
    pub certs_from_cache: AtomicU64,
    /// Validation mismatches that fell one fidelity rung and re-ran.
    pub validate_fallbacks: AtomicU64,
    /// Functions still mismatching at the `Literal` floor (quarantined:
    /// served, but flagged as known-wrong).
    pub validate_quarantined: AtomicU64,
    /// Wall time in translation validation, ns.
    pub ns_validate: AtomicU64,
    /// Wall time in module parsing (batch text inputs), ns.
    pub ns_parse: AtomicU64,
    /// Wall time in parallel-region detransformation, ns.
    pub ns_detransform: AtomicU64,
    /// Wall time in variable-name restoration, ns.
    pub ns_naming: AtomicU64,
    /// Wall time in control-flow structuring, ns.
    pub ns_structure: AtomicU64,
    /// Wall time in C emission, ns.
    pub ns_emit: AtomicU64,
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl ServeStats {
    /// Fold one pipeline timing record into the stage counters.
    pub fn record_timings(&self, t: &StageTimings) {
        self.ns_detransform
            .fetch_add(ns(t.detransform), Ordering::Relaxed);
        self.ns_naming.fetch_add(ns(t.naming), Ordering::Relaxed);
        self.ns_structure
            .fetch_add(ns(t.structure), Ordering::Relaxed);
        self.ns_emit.fetch_add(ns(t.emit), Ordering::Relaxed);
        self.functions_degraded_structured
            .fetch_add(u64::from(t.degraded_structured), Ordering::Relaxed);
        self.functions_degraded_literal
            .fetch_add(u64::from(t.degraded_literal), Ordering::Relaxed);
    }

    /// Record time spent parsing textual IR.
    pub fn record_parse(&self, d: Duration) {
        self.ns_parse.fetch_add(ns(d), Ordering::Relaxed);
    }

    /// Materialize the counters, combining in cache and pool gauges.
    pub fn snapshot(
        &self,
        cache: CacheCounters,
        queue_depth: usize,
        in_flight: usize,
        workers: usize,
        workers_respawned: u64,
    ) -> StatsSnapshot {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        StatsSnapshot {
            workers,
            queue_depth,
            in_flight,
            workers_respawned,
            jobs_submitted: get(&self.jobs_submitted),
            jobs_completed: get(&self.jobs_completed),
            jobs_failed: get(&self.jobs_failed),
            jobs_timed_out: get(&self.jobs_timed_out),
            jobs_shed_queue: get(&self.jobs_shed_queue),
            jobs_shed_deadline: get(&self.jobs_shed_deadline),
            jobs_degraded_admission: get(&self.jobs_degraded_admission),
            admission_pending: 0,
            functions_decompiled: get(&self.functions_decompiled),
            functions_from_cache: get(&self.functions_from_cache),
            functions_degraded_structured: get(&self.functions_degraded_structured),
            functions_degraded_literal: get(&self.functions_degraded_literal),
            functions_retried: get(&self.functions_retried),
            functions_quarantined: get(&self.functions_quarantined),
            prepare_retries: get(&self.prepare_retries),
            simd_loops_devectorized: get(&self.simd_loops_devectorized),
            simd_reductions: get(&self.simd_reductions),
            functions_verified: get(&self.functions_verified),
            functions_unverified: get(&self.functions_unverified),
            validations_run: get(&self.validations_run),
            certs_from_cache: get(&self.certs_from_cache),
            validate_fallbacks: get(&self.validate_fallbacks),
            validate_quarantined: get(&self.validate_quarantined),
            validate: Duration::from_nanos(get(&self.ns_validate)),
            parse: Duration::from_nanos(get(&self.ns_parse)),
            detransform: Duration::from_nanos(get(&self.ns_detransform)),
            naming: Duration::from_nanos(get(&self.ns_naming)),
            structure: Duration::from_nanos(get(&self.ns_structure)),
            emit: Duration::from_nanos(get(&self.ns_emit)),
            cache,
            tiers: Vec::new(),
        }
    }
}

/// Point-in-time view of the service, pretty-printable via `Display`.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Work items enqueued but not started.
    pub queue_depth: usize,
    /// Work items currently executing.
    pub in_flight: usize,
    /// Workers that died to an escaped panic and were replaced.
    pub workers_respawned: u64,
    /// Jobs accepted.
    pub jobs_submitted: u64,
    /// Jobs that produced output.
    pub jobs_completed: u64,
    /// Jobs that failed.
    pub jobs_failed: u64,
    /// Jobs cancelled by deadline.
    pub jobs_timed_out: u64,
    /// Requests shed at admission: queue bound.
    pub jobs_shed_queue: u64,
    /// Requests shed at admission: doomed deadline.
    pub jobs_shed_deadline: u64,
    /// Requests admitted at the `Quick` tier under pressure.
    pub jobs_degraded_admission: u64,
    /// Jobs admitted but not yet completed (gauge). Populated by
    /// [`crate::scheduler::Scheduler::stats`].
    pub admission_pending: usize,
    /// Functions decompiled from scratch.
    pub functions_decompiled: u64,
    /// Functions served from the cache.
    pub functions_from_cache: u64,
    /// Functions emitted at the `Structured` fidelity tier.
    pub functions_degraded_structured: u64,
    /// Functions emitted at the `Literal` fidelity tier.
    pub functions_degraded_literal: u64,
    /// Work items retried after a contained panic.
    pub functions_retried: u64,
    /// Retried work items that failed again (quarantined).
    pub functions_quarantined: u64,
    /// Module preparations retried after a transient fault.
    pub prepare_retries: u64,
    /// Vector loops devectorized to `#pragma omp simd` form.
    pub simd_loops_devectorized: u64,
    /// Reduction clauses recovered across those loops.
    pub simd_reductions: u64,
    /// Functions carrying a `Verified` certificate.
    pub functions_verified: u64,
    /// Functions carrying an `Unverified` certificate.
    pub functions_unverified: u64,
    /// Validation checks actually executed.
    pub validations_run: u64,
    /// Verdicts answered from cached certificates.
    pub certs_from_cache: u64,
    /// Mismatches that fell one fidelity rung and re-ran.
    pub validate_fallbacks: u64,
    /// Functions still mismatching at the `Literal` floor.
    pub validate_quarantined: u64,
    /// Cumulative translation-validation wall time.
    pub validate: Duration,
    /// Cumulative parse wall time (sum over workers).
    pub parse: Duration,
    /// Cumulative detransform wall time.
    pub detransform: Duration,
    /// Cumulative naming wall time.
    pub naming: Duration,
    /// Cumulative structuring wall time.
    pub structure: Duration,
    /// Cumulative emission wall time.
    pub emit: Duration,
    /// Cache counters.
    pub cache: CacheCounters,
    /// Blob-tier counters (disk, ...), nearest tier first. Empty
    /// when no persistent tier is configured. Populated by
    /// [`crate::scheduler::Scheduler::stats`].
    pub tiers: Vec<TierCounters>,
}

impl StatsSnapshot {
    /// Total functions that landed below the `Natural` tier.
    pub fn functions_degraded(&self) -> u64 {
        self.functions_degraded_structured + self.functions_degraded_literal
    }

    /// Total requests shed at admission, across all reasons.
    pub fn jobs_shed(&self) -> u64 {
        self.jobs_shed_queue + self.jobs_shed_deadline
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "serve stats")?;
        writeln!(
            f,
            "  pool       {} workers, queue depth {}, in flight {}, {} respawned",
            self.workers, self.queue_depth, self.in_flight, self.workers_respawned
        )?;
        writeln!(
            f,
            "  jobs       {} submitted / {} completed / {} failed / {} timed out",
            self.jobs_submitted, self.jobs_completed, self.jobs_failed, self.jobs_timed_out
        )?;
        writeln!(
            f,
            "  admission  {} pending, {} shed ({} queue-full / {} doomed), {} degraded to quick",
            self.admission_pending,
            self.jobs_shed(),
            self.jobs_shed_queue,
            self.jobs_shed_deadline,
            self.jobs_degraded_admission
        )?;
        writeln!(
            f,
            "  functions  {} decompiled, {} from cache",
            self.functions_decompiled, self.functions_from_cache
        )?;
        writeln!(
            f,
            "  fidelity   {} degraded ({} structured, {} literal), {} retried, {} quarantined, {} prepare retries",
            self.functions_degraded(),
            self.functions_degraded_structured,
            self.functions_degraded_literal,
            self.functions_retried,
            self.functions_quarantined,
            self.prepare_retries
        )?;
        writeln!(
            f,
            "  simd       {} loops devectorized, {} reductions recovered",
            self.simd_loops_devectorized, self.simd_reductions
        )?;
        writeln!(
            f,
            "  cache      {}/{} entries, {} hits / {} misses / {} evictions ({:.1}% hit rate)",
            self.cache.entries,
            self.cache.capacity,
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            100.0 * self.cache.hit_rate()
        )?;
        writeln!(
            f,
            "  validate   {} verified / {} unverified, {} checks run, {} certs from cache, {} fallbacks, {} quarantined",
            self.functions_verified,
            self.functions_unverified,
            self.validations_run,
            self.certs_from_cache,
            self.validate_fallbacks,
            self.validate_quarantined
        )?;
        for tier in &self.tiers {
            writeln!(
                f,
                "  tier:{:<5} {} hits / {} misses / {} fills / {} errors ({:.1}% hit rate)",
                tier.name,
                tier.hits,
                tier.misses,
                tier.fills,
                tier.errors,
                100.0 * tier.hit_rate()
            )?;
        }
        writeln!(
            f,
            "  stages     parse {:.3?}, detransform {:.3?}, naming {:.3?}, structure {:.3?}, emit {:.3?}, validate {:.3?}",
            self.parse, self.detransform, self.naming, self.structure, self.emit, self.validate
        )
    }
}
