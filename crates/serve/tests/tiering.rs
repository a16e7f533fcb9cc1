//! End-to-end tests for the persistent cache tier under the scheduler:
//! warm restarts served from disk (whole-module and per-function), the
//! fault-injection bypass (degraded output must never be persisted), and
//! tier visibility in the stats text.

use splendid_cachestore::StoreConfig;
use splendid_core::{FidelityTier, SplendidOptions};
use splendid_ir::printer::module_str;
use splendid_polybench::Harness;
use splendid_serve::{BlobTiers, DiskTier, JobRequest, Scheduler, ServeConfig};
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "splendid-tiering-{}-{}-{}",
        std::process::id(),
        tag,
        n
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn scheduler_with_disk(dir: &std::path::Path, workers: usize) -> Scheduler {
    let disk = DiskTier::open(dir, StoreConfig::default()).expect("open disk tier");
    Scheduler::new_with_tiers(
        ServeConfig {
            workers,
            ..Default::default()
        },
        BlobTiers::new(vec![Arc::new(disk)]),
    )
}

fn kernel_text(name: &str) -> String {
    let b = splendid_polybench::kernels::benchmark(name)
        .unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let (m, _) = Harness::polly(b.sequential).unwrap();
    module_str(&m)
}

#[test]
fn warm_restart_serves_the_whole_module_from_disk() {
    let dir = temp_dir("warm");
    let text = kernel_text("gemm");

    // Cold process: decompiles for real, persists to disk, shuts down.
    let cold_source = {
        let scheduler = scheduler_with_disk(&dir, 2);
        let res = scheduler
            .submit(JobRequest::from_text("gemm", &text))
            .wait()
            .unwrap();
        assert_eq!(res.cached_functions, 0, "cold run must not hit any tier");
        scheduler.flush_cache();
        res.output.source
    };

    // Warm "restart": a fresh scheduler (empty LRU) over the same
    // directory answers the job wholesale from the persistent tier.
    let scheduler = scheduler_with_disk(&dir, 2);
    let res = scheduler
        .submit(JobRequest::from_text("gemm", &text))
        .wait()
        .unwrap();
    assert_eq!(
        res.output.source, cold_source,
        "warm output must be byte-identical"
    );
    assert!(res.functions > 0);
    assert_eq!(
        res.cached_functions, res.functions,
        "warm restart must be answered entirely from the disk tier"
    );

    let stats = scheduler.stats();
    let disk = stats
        .tiers
        .iter()
        .find(|t| t.name == "disk")
        .expect("disk tier counters in snapshot");
    assert!(disk.hits >= 1, "module record must be a disk hit: {stats}");
    assert!(
        stats.to_string().contains("tier:disk"),
        "STATS_TEXT must attribute the disk tier:\n{stats}"
    );
}

#[test]
fn warm_restart_serves_functions_from_disk_for_module_inputs() {
    // Module (pre-parsed) inputs skip the whole-module fast path; the
    // per-function read-through must still cover the restart.
    let dir = temp_dir("warm-fn");
    let b = splendid_polybench::kernels::benchmark("atax").unwrap();
    let (module, _) = Harness::polly(b.sequential).unwrap();

    {
        let scheduler = scheduler_with_disk(&dir, 2);
        scheduler
            .decompile_module("atax", &module, &SplendidOptions::default())
            .unwrap();
        scheduler.flush_cache();
    }

    let scheduler = scheduler_with_disk(&dir, 2);
    let res = scheduler
        .decompile_module("atax", &module, &SplendidOptions::default())
        .unwrap();
    assert!(res.functions > 0);
    assert_eq!(
        res.cached_functions, res.functions,
        "every function must read through from disk on restart"
    );
    let stats = scheduler.stats();
    let disk = stats.tiers.iter().find(|t| t.name == "disk").unwrap();
    assert_eq!(disk.fills, 0, "nothing new to persist on a pure warm run");
    assert!(disk.hits as usize >= res.functions, "{stats}");
}

#[test]
fn faulted_runs_never_persist_degraded_output() {
    use splendid_core::{FaultKind, FaultPlan, Stage};
    let dir = temp_dir("faults");
    let text = kernel_text("gemm");
    let faulty = SplendidOptions {
        faults: Some(Arc::new(FaultPlan::single(
            Stage::Structure,
            1,
            FaultKind::Fail,
        ))),
        ..Default::default()
    };

    {
        let scheduler = scheduler_with_disk(&dir, 2);
        let mut req = JobRequest::from_text("gemm", &text);
        req.options = faulty.clone();
        let res = scheduler.submit(req).wait().unwrap();
        assert_eq!(res.degraded_functions, 1, "the fault must land");
        scheduler.flush_cache();
        let stats = scheduler.stats();
        let disk = stats.tiers.iter().find(|t| t.name == "disk").unwrap();
        assert_eq!(
            (disk.hits, disk.misses, disk.fills),
            (0, 0, 0),
            "a --faults run must never touch the persistent tier: {stats}"
        );
    }

    // The store on disk must be empty: a later fault-free process may
    // trust everything it finds there.
    let disk = DiskTier::open(&dir, StoreConfig::default()).unwrap();
    let persisted = disk.store_counters();
    assert_eq!(persisted.rebuilds, 0, "clean shutdown expected");
    {
        let scheduler = Scheduler::new_with_tiers(
            ServeConfig {
                workers: 2,
                ..Default::default()
            },
            BlobTiers::new(vec![Arc::new(disk)]),
        );
        let res = scheduler
            .submit(JobRequest::from_text("gemm", &text))
            .wait()
            .unwrap();
        assert_eq!(
            res.cached_functions, 0,
            "nothing from the faulted run may be served back"
        );
        assert!(!res.output.source.contains("splendid: degraded"));
        scheduler.flush_cache();
        let stats = scheduler.stats();
        let disk = stats.tiers.iter().find(|t| t.name == "disk").unwrap();
        assert!(disk.fills > 0, "the clean run does persist: {stats}");
    }
}

#[test]
fn warm_restart_answers_verdicts_from_disk() {
    // Certificates ride the same blob tiers as function records: a
    // fresh process over the same directory must re-annotate every
    // function from persisted certificates without re-running the
    // checker even once.
    let dir = temp_dir("certs");
    let b = splendid_polybench::kernels::benchmark("gemm").unwrap();
    let (module, _) = Harness::polly(b.sequential).unwrap();
    let opts = SplendidOptions {
        validate: true,
        ..Default::default()
    };

    let cold_source = {
        let scheduler = scheduler_with_disk(&dir, 2);
        let res = scheduler.decompile_module("gemm", &module, &opts).unwrap();
        assert!(res.verified_functions > 0, "gemm must verify");
        assert_eq!(
            res.verified_functions + res.unverified_functions,
            res.functions,
            "every function gets a verdict"
        );
        assert!(res.output.source.contains("splendid: verified"));
        let stats = scheduler.stats();
        assert!(stats.validations_run > 0, "cold run proves for real");
        assert_eq!(stats.certs_from_cache, 0);
        scheduler.flush_cache();
        res.output.source
    };

    let scheduler = scheduler_with_disk(&dir, 2);
    let res = scheduler.decompile_module("gemm", &module, &opts).unwrap();
    assert_eq!(
        res.output.source, cold_source,
        "warm verdict annotations must be byte-identical"
    );
    assert!(res.verified_functions > 0);
    let stats = scheduler.stats();
    assert_eq!(
        stats.validations_run, 0,
        "warm restart must answer every verdict from disk: {stats}"
    );
    assert!(stats.certs_from_cache as usize >= res.functions, "{stats}");
    assert!(
        stats.to_string().contains("certs from cache"),
        "STATS_TEXT must surface the certificate counters:\n{stats}"
    );
}

#[test]
fn faulted_runs_never_persist_certificates() {
    // Verdicts observed under fault injection are still computed and
    // annotated (that is the point of a --faults run), but they must
    // never outlive the process: no certificate may be read or written.
    use splendid_core::{FaultKind, FaultPlan, Stage};
    let dir = temp_dir("cert-faults");
    let b = splendid_polybench::kernels::benchmark("gemm").unwrap();
    let (module, _) = Harness::polly(b.sequential).unwrap();
    let faulty = SplendidOptions {
        validate: true,
        faults: Some(Arc::new(FaultPlan::single(
            Stage::Structure,
            1,
            FaultKind::Fail,
        ))),
        ..Default::default()
    };

    {
        let scheduler = scheduler_with_disk(&dir, 2);
        let res = scheduler
            .decompile_module("gemm", &module, &faulty)
            .unwrap();
        assert_eq!(res.degraded_functions, 1, "the fault must land");
        assert_eq!(
            res.verified_functions + res.unverified_functions,
            res.functions,
            "faulted runs still annotate verdicts"
        );
        scheduler.flush_cache();
        let stats = scheduler.stats();
        assert!(stats.validations_run > 0, "checks run in-process: {stats}");
        assert_eq!(stats.certs_from_cache, 0);
        let disk = stats.tiers.iter().find(|t| t.name == "disk").unwrap();
        assert_eq!(
            (disk.hits, disk.misses, disk.fills),
            (0, 0, 0),
            "a --faults run must never touch the persistent tier: {stats}"
        );
    }

    // A later fault-free validated process finds no certificates to
    // trust: every verdict is proven from scratch.
    let scheduler = scheduler_with_disk(&dir, 2);
    let clean = SplendidOptions {
        validate: true,
        ..Default::default()
    };
    let res = scheduler.decompile_module("gemm", &module, &clean).unwrap();
    assert!(res.functions > 0);
    let stats = scheduler.stats();
    assert!(
        stats.validations_run > 0,
        "nothing from the faulted run may answer verdicts: {stats}"
    );
    assert_eq!(stats.certs_from_cache, 0, "{stats}");
}

#[test]
fn degraded_but_fault_free_output_is_persisted_and_reannotated() {
    // Degradation without fault injection (if it happens organically) is
    // deterministic, so persisting it is sound; this pins down that the
    // bypass keys off `options.faults`, not off degradation itself.
    let dir = temp_dir("clean-degrade");
    let text = kernel_text("jacobi-1d-imper");
    {
        let scheduler = scheduler_with_disk(&dir, 2);
        scheduler
            .submit(JobRequest::from_text("jacobi", &text))
            .wait()
            .unwrap();
        scheduler.flush_cache();
        let stats = scheduler.stats();
        let disk = stats.tiers.iter().find(|t| t.name == "disk").unwrap();
        assert!(disk.fills > 0, "fault-free runs persist: {stats}");
    }

    // Every function of a Structured-tier job is degraded. After a
    // restart the whole-module hit must report the cold run's counts and
    // print the same C, annotations included.
    let request = JobRequest {
        options: SplendidOptions {
            start_tier: FidelityTier::Structured,
            validate: true,
            ..Default::default()
        },
        ..JobRequest::from_text("jacobi", &text)
    };
    let run = || {
        let scheduler = scheduler_with_disk(&dir, 2);
        let res = scheduler.submit(request.clone()).wait().unwrap();
        scheduler.flush_cache();
        res
    };
    let (cold, warm) = (run(), run());
    assert_eq!(cold.cached_functions, 0, "the cold run decompiles");
    assert_eq!(warm.cached_functions, warm.functions, "the warm run hits");
    assert_eq!(cold.degraded_functions, cold.functions);
    assert!(cold.verified_functions > 0);
    assert_eq!(warm.output.source, cold.output.source);
    assert_eq!(
        (
            warm.functions,
            warm.degraded_functions,
            warm.verified_functions,
            warm.unverified_functions
        ),
        (
            cold.functions,
            cold.degraded_functions,
            cold.verified_functions,
            cold.unverified_functions
        )
    );
}

#[test]
fn replayed_certificate_serves_the_output_it_proved() {
    // A certificate recording a fallback to Structured replays on a job
    // whose slots are Natural: the function must be served at the tier
    // the certificate proved, not at the tier a previous run found
    // mismatching.
    use splendid_core::{decompile_function, prepare_module, print_unit, StageTimings};
    use splendid_serve::codec::encode_cert_record;
    use splendid_serve::{cert_cache_key, function_cache_key, CacheTier, Certificate};

    let dir = temp_dir("cert-replay");
    let b = splendid_polybench::kernels::benchmark("gemm").unwrap();
    let (module, _) = Harness::polly(b.sequential).unwrap();
    let opts = SplendidOptions {
        validate: true,
        ..Default::default()
    };
    let structured = SplendidOptions {
        start_tier: FidelityTier::Structured,
        ..opts.clone()
    };
    let prepared = prepare_module(&module, &opts, &mut StageTimings::default()).unwrap();

    let disk = Arc::new(DiskTier::open(&dir, StoreConfig::default()).expect("open disk tier"));
    let scheduler = Scheduler::new_with_tiers(
        ServeConfig {
            workers: 2,
            ..Default::default()
        },
        BlobTiers::new(vec![Arc::clone(&disk) as Arc<dyn CacheTier>]),
    );
    let cert = Certificate {
        verified: true,
        tier: FidelityTier::Structured,
        mismatch: false,
        reason: String::new(),
    };
    let mut expected = Vec::new();
    for fid in prepared.module.func_ids() {
        let key = cert_cache_key(function_cache_key(&prepared, fid, &opts));
        disk.put(key, &encode_cert_record(&cert));
        let mut out =
            decompile_function(&prepared, fid, &structured, &mut StageTimings::default()).unwrap();
        assert_eq!(out.tier, FidelityTier::Structured);
        out.annotate("splendid: verified");
        expected.push(out);
    }
    scheduler.flush_cache();

    let res = scheduler.decompile_module("gemm", &module, &opts).unwrap();
    assert_eq!(res.output.source, print_unit(&prepared, &expected));
    assert_eq!(res.verified_functions, res.functions);
    let stats = scheduler.stats();
    assert_eq!(stats.validations_run, 0, "every verdict replays: {stats}");
    assert_eq!(stats.certs_from_cache as usize, res.functions, "{stats}");
}
