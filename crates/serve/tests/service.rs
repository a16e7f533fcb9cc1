//! End-to-end tests for the batch-decompilation service: cache
//! correctness against the single-threaded pipeline (golden outputs),
//! panic isolation at the scheduler level, deadlines, and parse errors.

use splendid_core::{decompile, SplendidOptions};
use splendid_ir::{printer::module_str, Inst, InstId, InstKind, Module, Type, Value};
use splendid_polybench::Harness;
use splendid_serve::{JobError, JobRequest, Scheduler, ServeConfig};
use std::time::{Duration, Instant};

/// The three-kernel golden workload (compiled to parallel IR once).
fn golden_suite() -> Vec<(String, Module)> {
    ["gemm", "jacobi-1d-imper", "atax"]
        .iter()
        .map(|name| {
            let b = splendid_polybench::kernels::benchmark(name)
                .unwrap_or_else(|| panic!("unknown benchmark {name}"));
            let (m, _) = Harness::polly(b.sequential).unwrap();
            (name.to_string(), m)
        })
        .collect()
}

/// Every PolyBench job succeeds through the scheduler and matches the
/// library's output byte for byte.
#[test]
fn batch_matches_single_threaded_pipeline() {
    let suite = Harness::polly_suite().unwrap();
    let golden: Vec<String> = suite
        .iter()
        .map(|(_, m)| decompile(m, &SplendidOptions::default()).unwrap().source)
        .collect();

    let scheduler = Scheduler::new(ServeConfig {
        workers: 4,
        ..Default::default()
    });
    let requests: Vec<JobRequest> = suite
        .iter()
        .map(|(n, m)| JobRequest::from_module(n.clone(), m.clone()))
        .collect();
    let results = scheduler.decompile_batch(requests);
    for ((name, _), (res, want)) in suite.iter().zip(results.iter().zip(&golden)) {
        let got = &res
            .as_ref()
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .output
            .source;
        assert_eq!(
            got, want,
            "{name}: service output diverged from library output"
        );
    }
}

#[test]
fn warm_cache_rerun_is_byte_identical() {
    let suite = golden_suite();
    let scheduler = Scheduler::new(ServeConfig {
        workers: 4,
        ..Default::default()
    });
    let requests: Vec<JobRequest> = suite
        .iter()
        .map(|(n, m)| JobRequest::from_module(n.clone(), m.clone()))
        .collect();

    let cold = scheduler.decompile_batch(requests.clone());
    let cold_sources: Vec<String> = cold
        .iter()
        .map(|r| r.as_ref().unwrap().output.source.clone())
        .collect();
    let cold_cached: usize = cold
        .iter()
        .map(|r| r.as_ref().unwrap().cached_functions)
        .sum();
    assert_eq!(cold_cached, 0, "first run must not hit the cache");

    let warm = scheduler.decompile_batch(requests);
    for ((name, _), (r, want)) in suite.iter().zip(warm.iter().zip(&cold_sources)) {
        let r = r.as_ref().unwrap();
        assert_eq!(
            &r.output.source, want,
            "{name}: warm output differs from cold"
        );
        assert_eq!(
            r.cached_functions, r.functions,
            "{name}: every function must come from the cache on the rerun"
        );
    }
    let stats = scheduler.stats();
    assert!(
        stats.cache.hit_rate() > 0.4,
        "half the lookups were reruns, hit rate should reflect it: {stats}"
    );
}

#[test]
fn identical_text_submissions_share_cache_entries() {
    // The cache is content-addressed: two textual submissions with the
    // same bytes (under different job names) must share entries, and the
    // second must be served entirely from cache, byte-identically.
    let (_, module) = golden_suite().remove(0);
    let text = module_str(&module);
    let scheduler = Scheduler::new(ServeConfig {
        workers: 2,
        ..Default::default()
    });
    let first = scheduler
        .submit(JobRequest::from_text("first", text.clone()))
        .wait()
        .unwrap();
    let second = scheduler
        .submit(JobRequest::from_text("second", text))
        .wait()
        .unwrap();
    assert_eq!(first.output.source, second.output.source);
    assert_eq!(first.cached_functions, 0);
    assert_eq!(
        second.cached_functions, second.functions,
        "identical bytes must be served entirely from cache"
    );
}

/// A module whose only function references an instruction outside its
/// arena — every fidelity tier must refuse it, bottoming the ladder out.
fn poisoned_module() -> Module {
    let mut m = Module::new("poisoned");
    let mut f = splendid_ir::Function::new(&mut m.symbols, "boom", &[], Type::I64);
    let entry = f.entry;
    f.append_inst(
        entry,
        Inst::new(
            InstKind::Ret {
                val: Some(Value::Inst(InstId(4242))),
            },
            Type::I64,
        ),
    );
    m.push_function(f);
    m
}

#[test]
fn panicking_job_fails_alone_without_poisoning_the_service() {
    let scheduler = Scheduler::new(ServeConfig {
        workers: 2,
        ..Default::default()
    });
    let bad = scheduler
        .submit(JobRequest::from_module("bad", poisoned_module()))
        .wait();
    // The fidelity ladder contains what used to be a raw panic: the job
    // fails with a structured error naming the stage and function.
    assert!(
        matches!(
            &bad,
            Err(JobError::Decompile(msg) | JobError::Panicked(msg)) if msg.contains("boom")
        ),
        "poisoned module must fail with a contained error, got {bad:?}"
    );

    // The pool must keep serving healthy jobs afterwards.
    let (name, module) = golden_suite().remove(0);
    let good = scheduler
        .decompile_module(&name, &module, &SplendidOptions::default())
        .unwrap();
    assert!(good.output.source.contains("#pragma omp parallel"));

    let stats = scheduler.stats();
    assert_eq!(stats.jobs_failed, 1, "{stats}");
    assert_eq!(stats.jobs_completed, 1, "{stats}");
}

#[test]
fn deadline_cancels_a_job() {
    let scheduler = Scheduler::new(ServeConfig {
        workers: 1,
        job_timeout: Some(Duration::ZERO),
        ..Default::default()
    });
    let (name, module) = golden_suite().remove(0);
    let r = scheduler
        .submit(JobRequest::from_module(name, module))
        .wait();
    let err = r.unwrap_err();
    assert!(
        matches!(err, JobError::TimedOut { .. }),
        "expected timeout, got {err:?}"
    );
    assert_eq!(scheduler.stats().jobs_timed_out, 1);
}

#[test]
fn parse_errors_are_reported_not_fatal() {
    let scheduler = Scheduler::new(ServeConfig {
        workers: 1,
        ..Default::default()
    });
    let r = scheduler
        .submit(JobRequest::from_text("garbage", "this is not IR"))
        .wait();
    assert!(matches!(r, Err(JobError::Parse(_))), "{r:?}");
    assert_eq!(scheduler.stats().jobs_failed, 1);
}

#[test]
fn injected_pipeline_fault_degrades_in_stats_and_source() {
    use splendid_core::{FaultKind, FaultPlan, Stage};
    use std::sync::Arc;
    let (name, module) = golden_suite().remove(0);
    let scheduler = Scheduler::new(ServeConfig {
        workers: 2,
        ..Default::default()
    });
    let opts = SplendidOptions {
        faults: Some(Arc::new(FaultPlan::single(
            Stage::Structure,
            1,
            FaultKind::Fail,
        ))),
        ..Default::default()
    };
    let res = scheduler.decompile_module(&name, &module, &opts).unwrap();
    assert_eq!(
        res.degraded_functions, 1,
        "exactly one function fell down the ladder"
    );
    assert!(
        res.output.source.contains("splendid: degraded to"),
        "degraded function must be annotated:\n{}",
        res.output.source
    );
    assert_eq!(
        res.cached_functions, 0,
        "fault-injected runs must bypass the cache"
    );
    let stats = scheduler.stats();
    assert_eq!(stats.functions_degraded_structured, 1, "{stats}");
    assert_eq!(stats.functions_degraded_literal, 0, "{stats}");

    // The same module decompiled WITHOUT faults must come out clean and
    // undegraded — the plan is per-request, not service state.
    let clean = scheduler
        .decompile_module(&name, &module, &SplendidOptions::default())
        .unwrap();
    assert_eq!(clean.degraded_functions, 0);
    assert!(!clean.output.source.contains("splendid: degraded"));
}

#[test]
fn injected_worker_fault_respawns_the_worker() {
    let scheduler = Scheduler::new(ServeConfig {
        workers: 1,
        ..Default::default()
    });
    scheduler.inject_worker_fault();
    // The replacement worker must pick up real jobs afterwards.
    let (name, module) = golden_suite().remove(0);
    let res = scheduler
        .decompile_module(&name, &module, &SplendidOptions::default())
        .unwrap();
    assert!(res.output.source.contains("#pragma omp parallel"));
    let stats = scheduler.stats();
    assert!(
        stats.workers_respawned >= 1,
        "poisoned worker must be replaced: {stats}"
    );
}

#[test]
fn timeout_errors_name_a_pipeline_stage() {
    let scheduler = Scheduler::new(ServeConfig {
        workers: 1,
        job_timeout: Some(Duration::ZERO),
        ..Default::default()
    });
    let (name, module) = golden_suite().remove(0);
    let err = scheduler
        .submit(JobRequest::from_module(name, module))
        .wait()
        .unwrap_err();
    let JobError::TimedOut { stage } = err else {
        panic!("expected timeout, got {err:?}")
    };
    assert!(
        ["queue", "parse", "prepare", "functions", "assemble"].contains(&stage),
        "stage attribution must name a known stage, got {stage:?}"
    );
}

/// A request's own deadline is enforced without any scheduler-wide
/// `job_timeout`: the job expires in the queue, is counted once, and
/// frees its admission slot.
#[test]
fn request_deadline_times_out_without_a_job_timeout() {
    let scheduler = Scheduler::new(ServeConfig {
        workers: 1,
        job_timeout: None,
        ..Default::default()
    });
    let ticket = scheduler
        .admit(Some(Instant::now() + Duration::from_millis(1)))
        .expect("an idle scheduler admits a 1 ms budget");
    std::thread::sleep(Duration::from_millis(5));
    let (name, module) = golden_suite().remove(0);
    let err = scheduler
        .submit_ticketed(ticket, JobRequest::from_module(name, module), None)
        .wait()
        .unwrap_err();
    assert_eq!(err, JobError::TimedOut { stage: "queue" });
    let stats = scheduler.stats();
    assert_eq!(stats.jobs_timed_out, 1, "{stats}");
    assert_eq!(stats.admission_pending, 0, "{stats}");
}

#[test]
fn options_partition_the_cache() {
    use splendid_core::Variant;
    let (name, module) = golden_suite().remove(0);
    let scheduler = Scheduler::new(ServeConfig {
        workers: 2,
        ..Default::default()
    });
    let full = scheduler
        .decompile_module(&name, &module, &SplendidOptions::default())
        .unwrap();
    let v1 = scheduler
        .decompile_module(
            &name,
            &module,
            &SplendidOptions {
                variant: Variant::V1,
                ..Default::default()
            },
        )
        .unwrap();
    assert_eq!(
        v1.cached_functions, 0,
        "different options must not share entries"
    );
    assert_ne!(full.output.source, v1.output.source);
}

#[test]
fn devectorized_simd_loops_are_counted_in_stats() {
    // A vectorized module submitted to the service is devectorized
    // during preparation; the recovered loop/reduction counts must land
    // in the service counters (and the pretty-printed stats surface).
    use splendid_cfront::OmpRuntime;
    use splendid_transforms::vectorize::{vectorize_module, VectorizeOptions};

    let b = splendid_polybench::kernels::benchmark("jacobi-1d-imper").unwrap();
    let mut module = Harness::compile(b.sequential, OmpRuntime::LibOmp).unwrap();
    let widened = vectorize_module(&mut module, &VectorizeOptions::default());
    assert_eq!(
        widened.vectorized_loops, 2,
        "jacobi widens both inner loops"
    );

    let scheduler = Scheduler::new(ServeConfig {
        workers: 2,
        ..Default::default()
    });
    let res = scheduler
        .submit(JobRequest::from_module("jacobi".to_string(), module))
        .wait()
        .unwrap();
    assert_eq!(
        res.output.source.matches("#pragma omp simd").count(),
        2,
        "both widened loops must come back as simd pragmas:\n{}",
        res.output.source
    );

    let stats = scheduler.stats();
    assert_eq!(stats.simd_loops_devectorized, 2, "{stats}");
    assert_eq!(stats.simd_reductions, 0, "{stats}");
    let text = stats.to_string();
    assert!(
        text.contains("simd       2 loops devectorized, 0 reductions recovered"),
        "stats display must surface the simd line:\n{text}"
    );
}

/// A function whose only act is to call itself.
const DOWN: &str = r#"module "down"

func @down($0:x i64) -> i64 {
bb0 entry:
  %0 = call i64 @down($0)
  ret %0
}
"#;

#[test]
fn unbounded_ir_recursion_is_unverified_on_a_default_worker_stack() {
    // The interpreter runs IR calls on its own frame stack, bounded like
    // the stack region, so the probes end in `stack overflow` instead of
    // overflowing the worker thread's native stack.
    let scheduler = Scheduler::new(ServeConfig {
        workers: 1,
        ..Default::default()
    });
    let request = JobRequest {
        options: SplendidOptions {
            validate: true,
            ..Default::default()
        },
        ..JobRequest::from_text("down", DOWN)
    };
    let res = scheduler.submit(request).wait().unwrap();
    assert_eq!((res.verified_functions, res.unverified_functions), (0, 1));
    assert!(
        res.output
            .source
            .contains("splendid: UNVERIFIED: inconclusive: probe 0: source side: execution error: stack overflow"),
        "{}",
        res.output.source
    );
}
