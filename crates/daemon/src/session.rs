//! Interactive decompilation sessions: retained module text, span
//! fingerprints, and the incremental re-decompilation logic.
//!
//! Invalidation rules (see DESIGN.md, "Allocation-free hot path"):
//!
//! * OPEN parses and prepares the module eagerly (the reply reports the
//!   function count) and span-fingerprints the text
//!   ([`splendid_core::fingerprint::span_fingerprints_into`]: one linear
//!   pass, no parsing). Everything starts dirty.
//! * UPDATE never parses. It re-hashes the function spans of the new
//!   text into warm buffers and diffs them against the previous scan —
//!   microseconds, allocation-free in steady state. A changed function
//!   body marks its *root* dirty ([`splendid_core::incremental::root_of`]
//!   folds outlined `_polly_parN` regions into the kernel they are
//!   inlined back into); a preamble change or any added/removed/renamed
//!   function marks everything dirty. Parse errors in the new text are
//!   deliberately not detected here — they surface at the next
//!   DECOMPILE, which is the first request that needs the IR.
//! * DECOMPILE re-prepares lazily. When only a minority of roots is
//!   dirty it builds a *mini-module* (preamble + dirty-root spans) and
//!   [`splendid_core::incremental::reprepare`]s just those bytes,
//!   transplanting the prepared functions into a clone of the previous
//!   prepared module — parse + detransform cost tracks the edit, not the
//!   module. Any structural surprise falls back to a full prepare;
//!   correctness never depends on the incremental path. Unchanged
//!   functions keep their content fingerprints and come back from the
//!   content-addressed serve cache; with nothing dirty at all, the
//!   retained last result answers without touching the scheduler.

use splendid_core::fingerprint::{span_fingerprints_into, SpanFingerprints};
use splendid_core::incremental::{reprepare, root_of};
use splendid_core::{prepare_module, PreparedModule, SplendidOptions, StageTimings, Variant};
use splendid_ir::{parser::parse_module, ModuleSpans};
use splendid_serve::{Busy, JobError, JobInput, JobRequest, Scheduler, ServeStats};
use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Why a DECOMPILE produced no reply: refused at admission (the caller
/// should back off and retry) or accepted-but-failed (a job error).
#[derive(Debug)]
pub enum SessionError {
    /// Shed at admission; carries the retry hint for the BUSY frame.
    Busy(Busy),
    /// The job ran (or tried to) and failed.
    Job(JobError),
}

impl From<JobError> for SessionError {
    fn from(e: JobError) -> SessionError {
        SessionError::Job(e)
    }
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Busy(b) => b.fmt(f),
            SessionError::Job(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SessionError {}

/// Decode the wire variant byte; `None` for out-of-range values.
pub fn variant_from_wire(v: u8) -> Option<Variant> {
    match v {
        1 => Some(Variant::V1),
        2 => Some(Variant::Portable),
        3 => Some(Variant::Full),
        _ => None,
    }
}

/// What a session's UPDATE returns to the connection handler.
#[derive(Debug, Clone, Copy)]
pub struct UpdateOutcome {
    /// Root functions dirty after this update (accumulated since the
    /// last successful decompile).
    pub dirty: u32,
    /// Total root functions in the module text.
    pub total: u32,
    /// Time spent span-scanning and hashing the new text.
    pub fingerprint_nanos: u64,
    /// Time spent diffing fingerprints and updating session state.
    pub bookkeeping_nanos: u64,
}

/// What a session's DECOMPILE returns to the connection handler.
#[derive(Debug, Clone)]
pub struct DecompileReply {
    /// The decompiled C translation unit.
    pub source: String,
    /// Functions in the module.
    pub functions: u32,
    /// Functions answered from the shared serve cache.
    pub cached: u32,
    /// Functions emitted below the `Natural` tier.
    pub degraded: u32,
    /// Functions that were dirty going into this request.
    pub dirty: u32,
    /// Whole request answered from the session's retained result.
    pub fast_path: bool,
}

/// Retained result of the last successful decompile.
struct LastResult {
    source: String,
    functions: u32,
    degraded: u32,
}

/// One client's interactive session: module state + incremental bookkeeping.
pub struct Session {
    /// Daemon-wide session id (assigned by the server).
    pub id: u32,
    /// Caller-chosen module label.
    pub name: String,
    options: SplendidOptions,
    /// Per-session serve counters, teed from the shared scheduler.
    pub stats: Arc<ServeStats>,
    /// Retained module text — the source of truth between UPDATEs.
    text: String,
    /// Span scan of `text` (byte ranges of the preamble and every `func`
    /// definition). Warm buffer: reused across updates.
    spans: ModuleSpans,
    /// Span fingerprints of `text`, parallel to `spans`.
    span_fps: SpanFingerprints,
    /// Scratch buffers the next UPDATE scans into before the diff (then
    /// swapped with `spans`/`span_fps`, so both stay warm).
    scratch_spans: ModuleSpans,
    scratch_fps: SpanFingerprints,
    /// Distinct root functions in `spans` (outlined regions folded into
    /// their kernels) — the `total` every UPDATE reply reports.
    roots_total: u32,
    /// Roots whose span hash changed since the last successful decompile.
    dirty_roots: BTreeSet<String>,
    /// Everything is dirty (fresh OPEN, preamble edit, or any
    /// added/removed/renamed function).
    all_dirty: bool,
    /// The prepared (parsed + detransformed) module, submitted as
    /// [`JobInput::Prepared`] behind an `Arc` so DECOMPILE skips straight
    /// to the per-function fan-out without copying it.
    prepared: Arc<PreparedModule>,
    /// `prepared` no longer reflects `text`; the next DECOMPILE must
    /// re-prepare (incrementally when it can) before submitting.
    prepared_stale: bool,
    last: Option<LastResult>,
    /// Request counters for the stats surface.
    opens: u64,
    updates: u64,
    decompiles: u64,
    fast_path_decompiles: u64,
    /// Creation time, for the stats dump.
    started: Instant,
}

/// Distinct root-function count of a span scan.
fn count_roots(spans: &ModuleSpans, text: &str) -> u32 {
    let mut roots: Vec<&str> = spans
        .funcs
        .iter()
        .map(|f| root_of(f.name_str(text)))
        .collect();
    roots.sort_unstable();
    roots.dedup();
    roots.len() as u32
}

/// Parse and prepare module text from scratch (the non-incremental path).
fn full_prepare(text: &str, opts: &SplendidOptions) -> Result<PreparedModule, JobError> {
    let module = parse_module(text).map_err(|e| JobError::Parse(e.to_string()))?;
    let mut timings = StageTimings::default();
    let prepared = prepare_module(&module, opts, &mut timings)
        .map_err(|e| JobError::Prepare(e.to_string()))?;
    // Populate the memoized digests before sharing: every later consumer
    // (cache keys, dirty diffs) reads the same computed-once values.
    prepared.digests();
    Ok(prepared)
}

impl Session {
    /// Open a session over parsed module text. Every function starts dirty.
    pub fn open(id: u32, name: String, variant: Variant, text: &str) -> Result<Session, String> {
        let options = SplendidOptions {
            variant,
            ..SplendidOptions::default()
        };
        let prepared = full_prepare(text, &options).map_err(|e| e.to_string())?;
        let mut spans = ModuleSpans::default();
        let mut span_fps = SpanFingerprints::default();
        span_fingerprints_into(text, &mut spans, &mut span_fps);
        let roots_total = count_roots(&spans, text);
        Ok(Session {
            id,
            name,
            options,
            stats: Arc::new(ServeStats::default()),
            text: text.to_string(),
            spans,
            span_fps,
            scratch_spans: ModuleSpans::default(),
            scratch_fps: SpanFingerprints::default(),
            roots_total,
            dirty_roots: BTreeSet::new(),
            all_dirty: true,
            prepared: Arc::new(prepared),
            prepared_stale: false,
            last: None,
            opens: 1,
            updates: 0,
            decompiles: 0,
            fast_path_decompiles: 0,
            started: Instant::now(),
        })
    }

    /// Functions in the current prepared module (outlined parallel
    /// regions are inlined away) — the unit of incremental
    /// re-decompilation, and the count the OPENED frame reports.
    pub fn functions(&self) -> u32 {
        self.prepared.digests().functions.len() as u32
    }

    /// Root functions dirty right now.
    fn dirty_count(&self) -> u32 {
        if self.all_dirty {
            self.roots_total
        } else {
            self.dirty_roots.len() as u32
        }
    }

    /// Replace the module text, dirty-diffing span fingerprints against
    /// the previous scan. No parsing happens here — this is the hot
    /// path an editor hits on every keystroke burst.
    pub fn update(&mut self, text: &str) -> UpdateOutcome {
        self.updates += 1;
        let t0 = Instant::now();
        span_fingerprints_into(text, &mut self.scratch_spans, &mut self.scratch_fps);
        let fingerprint_nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);

        let t1 = Instant::now();
        let mut structural = self.scratch_fps.preamble != self.span_fps.preamble
            || self.scratch_fps.funcs.len() != self.span_fps.funcs.len();
        let mut changed = structural;
        if !structural {
            for (i, f) in self.scratch_fps.funcs.iter().enumerate() {
                match self.span_fps.position_of(f.name_hash) {
                    None => {
                        // Renamed (or hash-colliding) function: be safe.
                        structural = true;
                        changed = true;
                        break;
                    }
                    Some(j) => {
                        if self.span_fps.funcs[j].body_hash != f.body_hash {
                            changed = true;
                            let name = self.scratch_spans.funcs[i].name_str(text);
                            self.dirty_roots.insert(root_of(name).to_string());
                        }
                    }
                }
            }
        }
        if changed {
            // Keep both buffer pairs warm by swapping rather than moving.
            std::mem::swap(&mut self.spans, &mut self.scratch_spans);
            std::mem::swap(&mut self.span_fps, &mut self.scratch_fps);
            self.text.clear();
            self.text.push_str(text);
            self.roots_total = count_roots(&self.spans, &self.text);
            self.prepared_stale = true;
            // The retained result no longer matches the module text.
            self.last = None;
            if structural {
                self.all_dirty = true;
                self.dirty_roots.clear();
            }
        }
        UpdateOutcome {
            dirty: self.dirty_count(),
            total: self.roots_total,
            fingerprint_nanos,
            bookkeeping_nanos: u64::try_from(t1.elapsed().as_nanos()).unwrap_or(u64::MAX),
        }
    }

    /// Bring `prepared` back in sync with `text`: incrementally when a
    /// strict minority of roots is dirty, from scratch otherwise (or
    /// whenever the incremental path declines).
    fn refresh_prepared(&mut self) -> Result<(), JobError> {
        if !self.all_dirty
            && !self.dirty_roots.is_empty()
            && (self.dirty_roots.len() as u32) < self.roots_total
        {
            let mut mini = String::new();
            for &(a, b) in &self.spans.preamble {
                mini.push_str(&self.text[a..b]);
            }
            for f in &self.spans.funcs {
                if self.dirty_roots.contains(root_of(f.name_str(&self.text))) {
                    mini.push_str(f.body_str(&self.text));
                }
            }
            let roots: Vec<&str> = self.dirty_roots.iter().map(|s| s.as_str()).collect();
            let mut timings = StageTimings::default();
            if let Ok(p) = reprepare(&self.prepared, &mini, &roots, &self.options, &mut timings) {
                self.prepared = Arc::new(p);
                self.prepared_stale = false;
                return Ok(());
            }
            // Recoverable by design: fall through to the full prepare.
        }
        self.prepared = Arc::new(full_prepare(&self.text, &self.options)?);
        self.prepared_stale = false;
        Ok(())
    }

    /// Decompile the current module incrementally through the shared
    /// scheduler (or from the retained result when nothing is dirty).
    pub fn decompile(&mut self, scheduler: &Scheduler) -> Result<DecompileReply, JobError> {
        self.decompile_with(scheduler, None).map_err(|e| match e {
            // Budget-less callers (tests, legacy paths) never configure
            // admission bounds, but map a refusal defensively anyway.
            SessionError::Busy(b) => JobError::Decompile(b.to_string()),
            SessionError::Job(e) => e,
        })
    }

    /// [`Session::decompile`] with overload protection: the request
    /// passes through scheduler admission before any work happens, and
    /// `deadline` — the wire budget, made absolute — rides the job
    /// through the scheduler. The fast path is exempt from admission: answering
    /// from the retained result costs nanoseconds and touches no queue.
    pub fn decompile_with(
        &mut self,
        scheduler: &Scheduler,
        deadline: Option<Instant>,
    ) -> Result<DecompileReply, SessionError> {
        self.decompiles += 1;
        let dirty = self.dirty_count();
        if dirty == 0 {
            if let Some(last) = &self.last {
                self.fast_path_decompiles += 1;
                return Ok(DecompileReply {
                    source: last.source.clone(),
                    functions: last.functions,
                    cached: last.functions,
                    degraded: last.degraded,
                    dirty: 0,
                    fast_path: true,
                });
            }
        }
        // Admit before re-preparing: a to-be-shed request must not burn
        // CPU on parse/detransform first. The ticket holds the queue
        // slot through the prepare (dropped on the error path).
        let ticket = scheduler.admit(deadline).map_err(SessionError::Busy)?;
        if self.prepared_stale {
            self.refresh_prepared()?;
        }
        let request = JobRequest {
            name: self.name.clone(),
            input: JobInput::Prepared(Arc::clone(&self.prepared)),
            options: self.options.clone(),
        };
        let result = scheduler
            .submit_ticketed(ticket, request, Some(Arc::clone(&self.stats)))
            .wait()
            .map_err(SessionError::Job)?;
        self.all_dirty = false;
        self.dirty_roots.clear();
        let reply = DecompileReply {
            source: result.output.source.clone(),
            functions: result.functions as u32,
            cached: result.cached_functions as u32,
            degraded: result.degraded_functions as u32,
            dirty,
            fast_path: false,
        };
        self.last = Some(LastResult {
            source: result.output.source,
            functions: reply.functions,
            degraded: reply.degraded,
        });
        Ok(reply)
    }

    /// Stable, line-oriented session stats: request counters plus the
    /// session-scoped serve counters teed by `submit_ticketed`.
    pub fn stats_text(&self) -> String {
        let get = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
        let s = &self.stats;
        let mut out = String::new();
        out.push_str(&format!(
            "session {} ({}): up {}s, {} function(s), {} dirty\n",
            self.id,
            self.name,
            self.started.elapsed().as_secs(),
            self.functions(),
            self.dirty_count()
        ));
        out.push_str(&format!(
            "  requests   {} open / {} update / {} decompile ({} fast-path)\n",
            self.opens, self.updates, self.decompiles, self.fast_path_decompiles
        ));
        out.push_str(&format!(
            "  jobs       {} submitted / {} completed / {} failed / {} timed out\n",
            get(&s.jobs_submitted),
            get(&s.jobs_completed),
            get(&s.jobs_failed),
            get(&s.jobs_timed_out)
        ));
        out.push_str(&format!(
            "  functions  {} decompiled, {} from cache\n",
            get(&s.functions_decompiled),
            get(&s.functions_from_cache)
        ));
        out.push_str(&format!(
            "  fidelity   {} degraded ({} structured, {} literal), {} retried, {} quarantined\n",
            get(&s.functions_degraded_structured) + get(&s.functions_degraded_literal),
            get(&s.functions_degraded_structured),
            get(&s.functions_degraded_literal),
            get(&s.functions_retried),
            get(&s.functions_quarantined)
        ));
        out.push_str(&format!(
            "  stages     parse {:?}, detransform {:?}, naming {:?}, structure {:?}, emit {:?}\n",
            std::time::Duration::from_nanos(get(&s.ns_parse)),
            std::time::Duration::from_nanos(get(&s.ns_detransform)),
            std::time::Duration::from_nanos(get(&s.ns_naming)),
            std::time::Duration::from_nanos(get(&s.ns_structure)),
            std::time::Duration::from_nanos(get(&s.ns_emit)),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splendid_cfront::{lower_program, parse_program, LowerOptions};
    use splendid_ir::printer::module_str;
    use splendid_parallel::{parallelize_module, ParallelizeOptions};
    use splendid_serve::ServeConfig;
    use splendid_transforms::{optimize_module, O2Options};

    fn module_text(consts: &[f64]) -> String {
        let mut src = String::new();
        for (i, c) in consts.iter().enumerate() {
            src.push_str(&format!("double A{i}[64];\ndouble B{i}[64];\n"));
            src.push_str(&format!(
                "void kernel{i}() {{ int j; for (j = 1; j < 63; j++) {{ \
                 B{i}[j] = (A{i}[j-1] + A{i}[j+1]) * {c:?}; }} }}\n"
            ));
        }
        let prog = parse_program(&src).unwrap();
        let mut m = lower_program(&prog, "sess", &LowerOptions::default()).unwrap();
        optimize_module(&mut m, &O2Options::default());
        parallelize_module(&mut m, &ParallelizeOptions::default());
        module_str(&m)
    }

    #[test]
    fn update_diffs_only_edited_functions() {
        let scheduler = Scheduler::new(ServeConfig {
            workers: 2,
            ..Default::default()
        });
        let base = module_text(&[0.25, 0.5, 0.75]);
        let mut session = Session::open(1, "t".into(), Variant::Full, &base).unwrap();
        assert_eq!(session.functions(), 3);

        let first = session.decompile(&scheduler).unwrap();
        assert_eq!(first.dirty, 3);
        assert!(!first.fast_path);

        // Edit only the middle kernel's constant.
        let edited = module_text(&[0.25, 0.625, 0.75]);
        let u = session.update(&edited);
        assert_eq!((u.dirty, u.total), (1, 3), "exactly one function is dirty");

        let second = session.decompile(&scheduler).unwrap();
        assert_eq!(second.dirty, 1);
        assert_eq!(
            second.cached, 2,
            "unchanged functions come from the serve cache"
        );
        assert_ne!(first.source, second.source);

        // Identical text: nothing dirty, fast path answers in-session.
        let u = session.update(&edited);
        assert_eq!(u.dirty, 0);
        let third = session.decompile(&scheduler).unwrap();
        assert!(third.fast_path);
        assert_eq!(third.source, second.source);
    }

    #[test]
    fn incremental_output_matches_full_reprepare() {
        // The decompiled source after an incremental re-prepare must be
        // byte-identical to what a fresh session over the same text
        // produces — the transplant path must never change the output.
        let scheduler = Scheduler::new(ServeConfig {
            workers: 2,
            ..Default::default()
        });
        let base = module_text(&[0.25, 0.5, 0.75]);
        let edited = module_text(&[0.25, 0.625, 0.75]);

        let mut session = Session::open(1, "t".into(), Variant::Full, &base).unwrap();
        session.decompile(&scheduler).unwrap();
        session.update(&edited);
        let incremental = session.decompile(&scheduler).unwrap();

        let mut fresh = Session::open(2, "t".into(), Variant::Full, &edited).unwrap();
        let full = fresh.decompile(&scheduler).unwrap();
        assert_eq!(incremental.source, full.source);
    }

    #[test]
    fn preamble_edits_dirty_everything() {
        let scheduler = Scheduler::new(ServeConfig {
            workers: 2,
            ..Default::default()
        });
        let base = module_text(&[0.25, 0.5]);
        let mut session = Session::open(1, "t".into(), Variant::Full, &base).unwrap();
        session.decompile(&scheduler).unwrap();

        // Rename a global: the preamble hash shifts, so every function's
        // context — and hence every cache key — is suspect.
        let edited = base.replace("@A0", "@Z0");
        let u = session.update(&edited);
        assert_eq!(u.dirty, u.total, "preamble edits must dirty everything");
    }

    #[test]
    fn update_reports_timing_split() {
        let base = module_text(&[0.25]);
        let mut session = Session::open(1, "t".into(), Variant::Full, &base).unwrap();
        let u = session.update(&module_text(&[0.375]));
        assert_eq!(u.dirty, 1);
        assert!(u.fingerprint_nanos > 0, "scan+hash time must be measured");
    }

    #[test]
    fn garbage_update_fails_at_decompile_not_update() {
        let scheduler = Scheduler::new(ServeConfig {
            workers: 1,
            ..Default::default()
        });
        let base = module_text(&[0.25]);
        let mut session = Session::open(1, "t".into(), Variant::Full, &base).unwrap();
        session.decompile(&scheduler).unwrap();
        // UPDATE is validation-free by design (it never parses); the
        // error surfaces at the next DECOMPILE, and a corrective UPDATE
        // heals the session.
        session.update("this is not ir");
        let err = session.decompile(&scheduler).unwrap_err();
        assert!(matches!(err, JobError::Parse(_)), "{err:?}");
        session.update(&base);
        assert!(session.decompile(&scheduler).is_ok());
    }

    #[test]
    fn open_rejects_garbage_text() {
        assert!(Session::open(1, "g".into(), Variant::Full, "not ir at all").is_err());
    }
}
