//! `splendid` — the decompilation-service CLI.
//!
//! Run it with no arguments for the usage text. That text is generated
//! from the [`COMMANDS`] and [`FLAGS`] tables below, which are also what
//! dispatches commands and parses flags, so it cannot fall behind.
//!
//! `.ir` inputs are parsed as textual SPLENDID IR; `.c` inputs run the
//! full substrate (cfront → -O2 → Polly-sim) first, so the service sees
//! the same parallel IR the paper's pipeline produces. `daemon` keeps a
//! decompiler resident for interactive sessions (see `splendid-daemon`);
//! `connect` and `bench-daemon` talk to one.

use splendid_cachestore::{CacheStore, StoreConfig};
use splendid_cfront::{lower_program, parse_program, LowerOptions};
use splendid_core::{FidelityTier, SplendidOptions, Variant};
use splendid_daemon::{
    cache_tiers, percentiles, BenchConfig, Daemon, DaemonClient, DaemonConfig, DEFAULT_PEER_TIMEOUT,
};
use splendid_ir::{printer::module_str, Module};
use splendid_parallel::{parallelize_module, ParallelizeOptions};
use splendid_polybench::Harness;
use splendid_serve::{cache, JobInput, JobRequest, JobResult, Scheduler, ServeConfig};
use splendid_transforms::{optimize_module, O2Options};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::{Duration, Instant};

/// One command: its name, its handler, and its synopsis. In a synopsis a
/// `--flag` token renders as `[--flag META]` (META from [`FLAGS`]), a
/// `!--flag` token as a required `--flag META`, and any other token
/// verbatim.
struct Command(&'static str, fn(Cli), &'static str);

/// Every command, in usage order.
const COMMANDS: &[Command] = &[
    Command(
        "decompile",
        cmd_decompile,
        "<file.{ir,c}> --variant --quick --stats",
    ),
    Command(
        "batch",
        cmd_batch,
        "<dir> --jobs --rounds --variant --quick --stats",
    ),
    Command("bench-serve", cmd_bench_serve, "--jobs --rounds --json"),
    Command(
        "daemon",
        cmd_daemon,
        "--addr --unix --jobs --max-connections --idle-timeout --deadline --cache-dir \
         --cache-budget-mb --peer --peer-timeout-ms --max-pending --degrade-pending \
         --quota-burst --quota-rps",
    ),
    Command(
        "connect",
        cmd_connect,
        "--addr --unix [file.{ir,c}] --variant --stats --malformed",
    ),
    Command(
        "bench-daemon",
        cmd_bench_daemon,
        "--connections --rounds --functions --addr --json --min-speedup --max-update-p50-ms",
    ),
    Command(
        "bench-overload",
        cmd_bench_overload,
        "--jobs --rounds --functions --addr --json",
    ),
    Command(
        "difftest",
        cmd_difftest,
        "--seed --cases --case --shrink --corpus --validate --vectorize --jobs --stats",
    ),
    Command(
        "difftest",
        cmd_difftest,
        "!--faults --fault-cases --seed --stats",
    ),
    Command(
        "validate",
        cmd_validate,
        "<file.{ir,c}> --variant --quick --stats --addr --unix",
    ),
    Command(
        "bench-validate",
        cmd_bench_validate,
        "--jobs --rounds --json --min-verified",
    ),
    Command(
        "cache",
        cmd_cache,
        "<stat|verify|compact> !--cache-dir --cache-budget-mb",
    ),
    Command(
        "bench-cache",
        cmd_bench_cache,
        "--jobs --rounds --json --min-speedup",
    ),
    Command("dump-polybench", cmd_dump_polybench, "<dir>"),
];

/// What a flag's value must parse as; checked when the command line is
/// read, so a malformed value fails every command alike.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// No value: the flag is a switch.
    Switch,
    Text,
    Variant,
    Uint,
    U32,
    Float,
}

/// One flag: its spelling, its value's kind, its placeholder in the usage
/// text, and the hint appended to its "not a number" error.
struct Flag(&'static str, Kind, &'static str, &'static str);

/// Every flag any command reads (`-j` is accepted for `--jobs`).
const FLAGS: &[Flag] = &[
    Flag("--jobs", Kind::Uint, "N", ""),
    Flag("--rounds", Kind::Uint, "N", ""),
    Flag("--variant", Kind::Variant, "v1|portable|full", ""),
    Flag("--quick", Kind::Switch, "", ""),
    Flag("--stats", Kind::Switch, "", ""),
    Flag("--json", Kind::Switch, "", ""),
    Flag("--seed", Kind::Text, "S", ""),
    Flag("--cases", Kind::Uint, "N", ""),
    Flag("--case", Kind::Uint, "I", ""),
    Flag("--shrink", Kind::Switch, "", ""),
    Flag("--corpus", Kind::Text, "<dir>", ""),
    Flag("--validate", Kind::Switch, "", ""),
    Flag("--vectorize", Kind::Switch, "", ""),
    Flag("--faults", Kind::Uint, "N", ""),
    Flag("--fault-cases", Kind::Uint, "M", ""),
    Flag("--addr", Kind::Text, "A", ""),
    Flag("--unix", Kind::Text, "PATH", ""),
    Flag("--max-connections", Kind::Uint, "N", ""),
    Flag(
        "--idle-timeout",
        Kind::Uint,
        "SECS",
        " (seconds, 0 = never)",
    ),
    Flag("--deadline", Kind::Uint, "SECS", " (seconds, 0 = none)"),
    Flag("--connections", Kind::Uint, "N", ""),
    Flag("--functions", Kind::Uint, "F", ""),
    Flag("--malformed", Kind::Text, "<dir>", ""),
    Flag("--min-speedup", Kind::Float, "X", ""),
    Flag("--max-update-p50-ms", Kind::Float, "MS", ""),
    Flag("--min-verified", Kind::Float, "X", " in [0, 1]"),
    Flag("--cache-dir", Kind::Text, "DIR", ""),
    Flag("--cache-budget-mb", Kind::Uint, "N", ""),
    Flag("--peer", Kind::Text, "ADDR", ""),
    Flag("--peer-timeout-ms", Kind::Uint, "MS", " (0 = default 2000)"),
    Flag("--max-pending", Kind::Uint, "N", " (0 = unbounded)"),
    Flag("--degrade-pending", Kind::Uint, "N", " (0 = off)"),
    Flag("--quota-burst", Kind::U32, "N", " (0 = no quotas)"),
    Flag("--quota-rps", Kind::U32, "N", " (0 = no quotas)"),
];

fn find_flag(name: &str) -> Option<&'static Flag> {
    FLAGS.iter().find(|f| f.0 == name)
}

impl Flag {
    fn not_a_number(&self) -> ! {
        fail(&format!("{}: not a number{}", self.0, self.3))
    }

    fn check(&self, value: &str) {
        let ok = match self.1 {
            Kind::Switch | Kind::Text => true,
            Kind::Variant => {
                parse_variant(value);
                true
            }
            Kind::Uint => value.parse::<u64>().is_ok(),
            Kind::U32 => value.parse::<u32>().is_ok(),
            Kind::Float => value.parse::<f64>().is_ok(),
        };
        if !ok {
            self.not_a_number();
        }
    }
}

fn parse_variant(v: &str) -> Variant {
    match v {
        "v1" => Variant::V1,
        "portable" => Variant::Portable,
        "full" => Variant::Full,
        v => fail(&format!("unknown variant {v:?} (v1|portable|full)")),
    }
}

fn usage() -> ! {
    let mut text = String::from("usage:");
    for Command(name, _, synopsis) in COMMANDS {
        text.push_str(&format!("\n  splendid {name}"));
        for token in synopsis.split_whitespace() {
            let required = token.strip_prefix('!');
            let rendered = match find_flag(required.unwrap_or(token)) {
                Some(Flag(flag, Kind::Switch, ..)) => flag.to_string(),
                Some(Flag(flag, _, meta, _)) => format!("{flag} {meta}"),
                None => token.to_string(),
            };
            if required.is_some() || !token.starts_with("--") {
                text.push_str(&format!(" {rendered}"));
            } else {
                text.push_str(&format!(" [{rendered}]"));
            }
        }
    }
    eprintln!("{text}");
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("splendid: {msg}");
    std::process::exit(1);
}

/// A parsed command line: the command's name, its positionals, and the
/// last value given for each flag (switches map to an empty string).
struct Cli {
    cmd: &'static str,
    positional: Vec<String>,
    values: HashMap<&'static str, String>,
}

impl Cli {
    fn parse(cmd: &'static str, argv: &[String]) -> Cli {
        let mut cli = Cli {
            cmd,
            positional: Vec::new(),
            values: HashMap::new(),
        };
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            let spelled = if arg == "-j" { "--jobs" } else { arg.as_str() };
            let Some(flag) = find_flag(spelled) else {
                if arg.starts_with('-') {
                    fail(&format!("unknown flag {arg}"));
                }
                cli.positional.push(arg.clone());
                continue;
            };
            let value = if flag.1 == Kind::Switch {
                String::new()
            } else {
                let v = it
                    .next()
                    .unwrap_or_else(|| fail(&format!("{} needs a value", flag.0)));
                flag.check(v);
                v.clone()
            };
            cli.values.insert(flag.0, value);
        }
        cli
    }

    fn on(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    fn text(&self, name: &str) -> Option<String> {
        self.values.get(name).cloned()
    }

    /// The flag's value as a `T`, or `default` when it was not given.
    fn num<T: FromStr>(&self, name: &str, default: T) -> T {
        match self.values.get(name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| match find_flag(name) {
                Some(f) => f.not_a_number(),
                None => fail(&format!("unknown flag {name}")),
            }),
        }
    }

    /// `--jobs`: worker threads, 0 (the default) for one per core.
    fn jobs(&self) -> usize {
        self.num("--jobs", 0)
    }

    /// `--rounds`, where an absent or zero count means one round.
    fn rounds(&self) -> usize {
        self.num("--rounds", 0usize).max(1)
    }

    fn variant(&self) -> Variant {
        self.values
            .get("--variant")
            .map_or(Variant::Full, |v| parse_variant(v))
    }

    /// A scheduler with `workers` threads (0 = one per core), reading
    /// through the disk store at `store` and then the peer at `peer`,
    /// each when given. A store that will not open fails this command.
    fn scheduler(&self, workers: usize, store: Option<&Path>, peer: Option<&str>) -> Scheduler {
        let tiers = cache_tiers(store, None, peer, DEFAULT_PEER_TIMEOUT).unwrap_or_else(|e| {
            let dir = store.unwrap_or(Path::new("")).display();
            fail(&format!("{}: open {dir}: {e}", self.cmd))
        });
        Scheduler::new_with_tiers(
            ServeConfig {
                workers,
                ..Default::default()
            },
            tiers,
        )
    }

    /// Pipeline options from `--variant` and `--quick`.
    fn options(&self) -> SplendidOptions {
        SplendidOptions {
            variant: self.variant(),
            start_tier: if self.on("--quick") {
                FidelityTier::Quick
            } else {
                FidelityTier::Natural
            },
            ..SplendidOptions::default()
        }
    }
}

/// Stem name and text of one input file.
fn read_input(path: &Path) -> (String, String) {
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string());
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
    (name, text)
}

fn is_c(path: &Path) -> bool {
    path.extension().and_then(|e| e.to_str()) == Some("c")
}

/// Load one input file as a decompilation request.
fn load_request(path: &Path, cli: &Cli) -> JobRequest {
    let (name, text) = read_input(path);
    let input = if is_c(path) {
        JobInput::Module(compile_c(&text, &name))
    } else {
        JobInput::Text(text)
    };
    JobRequest {
        name,
        input,
        options: cli.options(),
    }
}

/// Stem name and textual IR of one input file, for the wire.
fn load_ir_text(path: &Path) -> (String, String) {
    let (name, text) = read_input(path);
    if is_c(path) {
        let ir = module_str(&compile_c(&text, &name));
        (name, ir)
    } else {
        (name, text)
    }
}

/// Files directly under `dir` with one of the given extensions, sorted
/// for determinism.
fn files_in(dir: &Path, extensions: &[&str]) -> Vec<PathBuf> {
    let entries =
        std::fs::read_dir(dir).unwrap_or_else(|e| fail(&format!("{}: {e}", dir.display())));
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.extension()
                .and_then(|e| e.to_str())
                .is_some_and(|e| extensions.contains(&e))
        })
        .collect();
    files.sort();
    files
}

/// C source → optimized, auto-parallelized IR (the paper's pipeline input).
fn compile_c(src: &str, name: &str) -> Module {
    let prog = parse_program(src).unwrap_or_else(|e| fail(&format!("{name}: C parse error: {e}")));
    let mut m = lower_program(&prog, name, &LowerOptions::default())
        .unwrap_or_else(|e| fail(&format!("{name}: lowering error: {e}")));
    optimize_module(&mut m, &O2Options::default());
    parallelize_module(&mut m, &ParallelizeOptions::default());
    m
}

fn cmd_decompile(cli: Cli) {
    decompile_one(&cli, false);
}

/// One local decompilation of the command's input file, printed to
/// stdout; with `validate` the equivalence checker runs too, and any
/// unverified function fails the command.
fn decompile_one(cli: &Cli, validate: bool) {
    let [path] = cli.positional.as_slice() else {
        usage()
    };
    let mut request = load_request(Path::new(path), cli);
    request.options.validate = validate;
    let scheduler = cli.scheduler(cli.jobs(), None, None);
    let result = scheduler
        .submit(request)
        .wait()
        .unwrap_or_else(|e| fail(&e.to_string()));
    print!("{}", result.output.source);
    if validate {
        eprintln!(
            "# validate: {} function(s), {} verified, {} unverified in {:?}",
            result.functions, result.verified_functions, result.unverified_functions, result.wall
        );
    } else if cli.on("--stats") {
        eprintln!(
            "# {} function(s) in {:?}, {} restored vars of {}",
            result.functions,
            result.wall,
            result.output.naming.restored_vars,
            result.output.naming.total_vars
        );
    }
    if cli.on("--stats") {
        eprint!("{}", scheduler.stats());
    }
    if result.unverified_functions > 0 {
        std::process::exit(1);
    }
}

fn cmd_batch(cli: Cli) {
    let [dir] = cli.positional.as_slice() else {
        usage()
    };
    let files = files_in(Path::new(dir), &["ir", "c"]);
    if files.is_empty() {
        fail(&format!("no .ir or .c files in {dir}"));
    }
    let requests: Vec<JobRequest> = files.iter().map(|p| load_request(p, &cli)).collect();
    let scheduler = cli.scheduler(cli.jobs(), None, None);
    let rounds = cli.rounds();
    println!(
        "batch: {} module(s), {} worker(s), {} round(s)",
        requests.len(),
        scheduler.workers(),
        rounds
    );
    for round in 1..=rounds {
        let start = Instant::now();
        let results = scheduler.decompile_batch(requests.clone());
        let wall = start.elapsed();
        let mut ok = 0usize;
        let mut failed = 0usize;
        let mut functions = 0usize;
        let mut cached = 0usize;
        for (path, r) in files.iter().zip(&results) {
            match r {
                Ok(res) => {
                    ok += 1;
                    functions += res.functions;
                    cached += res.cached_functions;
                }
                Err(e) => {
                    failed += 1;
                    eprintln!("  {}: {e}", path.display());
                }
            }
        }
        let throughput = ok as f64 / wall.as_secs_f64().max(1e-9);
        println!(
            "round {round}: {ok} ok / {failed} failed, {functions} function(s) \
             ({cached} cached) in {wall:.3?} — {throughput:.1} modules/s"
        );
    }
    if cli.on("--stats") {
        print!("{}", scheduler.stats());
    }
}

fn cmd_dump_polybench(cli: Cli) {
    let [dir] = cli.positional.as_slice() else {
        usage()
    };
    let dir = Path::new(dir);
    std::fs::create_dir_all(dir).unwrap_or_else(|e| fail(&format!("{}: {e}", dir.display())));
    let suite = Harness::polly_suite().unwrap_or_else(|e| fail(&e.to_string()));
    for (name, module) in &suite {
        let path = dir.join(format!("{name}.ir"));
        std::fs::write(&path, module_str(module))
            .unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
    }
    println!("wrote {} modules to {}", suite.len(), dir.display());
}

/// The PolyBench suite as default-option requests, each module handed
/// over as `input` makes it.
fn suite_requests(input: fn(Module) -> JobInput) -> Vec<JobRequest> {
    let suite = Harness::polly_suite().unwrap_or_else(|e| fail(&e.to_string()));
    suite
        .into_iter()
        .map(|(name, m)| JobRequest {
            name,
            input: input(m),
            options: SplendidOptions::default(),
        })
        .collect()
}

/// One measured batch pass of a benchmark command; returns the pass wall
/// seconds and every job's result. A failed job fails the command.
fn run_pass(cli: &Cli, scheduler: &Scheduler, requests: &[JobRequest]) -> (f64, Vec<JobResult>) {
    let start = Instant::now();
    let results = scheduler.decompile_batch(requests.to_vec());
    let wall = start.elapsed().as_secs_f64();
    let results = results
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| fail(&format!("{} job failed: {e}", cli.cmd))))
        .collect();
    (wall, results)
}

fn cmd_bench_serve(cli: Cli) {
    let rounds = cli.rounds();
    let requests = suite_requests(JobInput::Module);
    let modules = requests.len();

    // Serial baseline: one worker, cold cache each round.
    let mut serial = f64::MAX;
    for _ in 0..rounds {
        let s = cli.scheduler(1, None, None);
        serial = serial.min(run_pass(&cli, &s, &requests).0);
    }

    // Parallel: N workers, cold cache each round; keep the last scheduler
    // warm for the cache pass. Per-job latencies across all cold parallel
    // rounds feed the percentile report (mean-only reporting hides tail
    // latency).
    let mut parallel = f64::MAX;
    let mut parallel_jobs = 0;
    let mut warm = f64::MAX;
    let mut hit_rate = 0.0;
    let mut job_latencies: Vec<Duration> = Vec::new();
    for _ in 0..rounds {
        let s = cli.scheduler(cli.jobs(), None, None);
        parallel_jobs = s.workers();
        let (pass_wall, results) = run_pass(&cli, &s, &requests);
        parallel = parallel.min(pass_wall);
        job_latencies.extend(results.iter().map(|r| r.wall));
        let before = s.stats().cache;
        warm = warm.min(run_pass(&cli, &s, &requests).0);
        let after = s.stats().cache;
        hit_rate = cache::hit_rate(after.hits - before.hits, after.misses - before.misses);
        if !cli.on("--json") {
            print!("{}", s.stats());
        }
    }

    let speedup = serial / parallel.max(1e-9);
    let warm_speedup = serial / warm.max(1e-9);
    let p = percentiles(&job_latencies);
    if cli.on("--json") {
        // Hand-rolled JSON: the offline build has no serde.
        println!("{{");
        println!("  \"benchmark\": \"bench-serve\",");
        println!("  \"modules\": {modules},");
        println!("  \"workers\": {parallel_jobs},");
        // A serial run still records honest numbers, but its "parallel
        // speedup" is scheduler overhead, not parallelism — annotate so
        // downstream gates (scripts/bench_serve.sh) skip it explicitly
        // instead of blessing a meaningless ratio.
        let gate = if parallel_jobs <= 1 {
            "skipped: workers=1, parallel speedup is not meaningful on a serial run"
        } else {
            "enforced"
        };
        println!("  \"parallel_gate\": \"{gate}\",");
        println!("  \"rounds\": {rounds},");
        println!("  \"serial_seconds\": {serial:.6},");
        println!("  \"parallel_seconds\": {parallel:.6},");
        println!("  \"warm_cache_seconds\": {warm:.6},");
        println!("  \"job_latency\": {},", p.json());
        println!("  \"parallel_speedup\": {speedup:.3},");
        println!("  \"warm_speedup\": {warm_speedup:.3},");
        println!("  \"warm_cache_hit_rate\": {hit_rate:.4},");
        println!(
            "  \"serial_modules_per_sec\": {:.3},",
            modules as f64 / serial.max(1e-9)
        );
        println!(
            "  \"parallel_modules_per_sec\": {:.3}",
            modules as f64 / parallel.max(1e-9)
        );
        println!("}}");
    } else {
        println!("bench-serve: {modules} polybench modules, best of {rounds} round(s)");
        println!(
            "  serial   (1 worker)   {serial:.3}s  ({:.1} modules/s)",
            modules as f64 / serial
        );
        println!(
            "  parallel ({parallel_jobs} workers)  {parallel:.3}s  ({:.1} modules/s, {speedup:.2}x)",
            modules as f64 / parallel
        );
        println!(
            "  warm cache            {warm:.3}s  ({:.1} modules/s, {warm_speedup:.2}x, {:.1}% hits)",
            modules as f64 / warm,
            100.0 * hit_rate
        );
        println!(
            "  job latency           p50 {:.3}ms  p95 {:.3}ms  p99 {:.3}ms  ({} samples)",
            p.p50_ms, p.p95_ms, p.p99_ms, p.samples
        );
    }
}

/// Decompilation backend for the differential oracle that routes every
/// request through the service scheduler. The oracle decompiles each
/// module twice (for its stability route), so the second decompilation of
/// every function exercises the function cache's hit path — the campaign
/// differential-tests the cache along with the pipeline.
struct SchedulerDecompiler<'a> {
    scheduler: &'a Scheduler,
}

impl splendid_difftest::Decompiler for SchedulerDecompiler<'_> {
    fn decompile(&self, module: &Module, opts: &SplendidOptions) -> Result<String, String> {
        let request = JobRequest {
            name: "difftest".into(),
            input: JobInput::Module(module.clone()),
            options: opts.clone(),
        };
        self.scheduler
            .submit(request)
            .wait()
            .map(|result| result.output.source)
            .map_err(|e| e.to_string())
    }
}

fn cmd_difftest(cli: Cli) {
    use splendid_difftest::{
        parse_seed, replay_corpus_source, run_difftest, run_fault_campaign, DifftestConfig,
        FaultCampaignConfig, Oracle,
    };

    // Fault-injection mode: a dedicated seeded campaign proving every
    // injected pipeline fault yields degraded-but-checksum-correct output.
    let seed = parse_seed(&cli.text("--seed").unwrap_or_else(|| "0xSPLENDID".into()));
    let faults = cli.num("--faults", 0);
    if faults > 0 {
        let cfg = FaultCampaignConfig {
            seed,
            faults,
            cases: cli.num("--fault-cases", 8),
        };
        let start = Instant::now();
        let report = run_fault_campaign(&cfg);
        print!("{report}");
        if cli.on("--stats") {
            eprintln!("# wall: {:?}", start.elapsed());
        }
        if !report.all_passed() {
            std::process::exit(1);
        }
        return;
    }

    let scheduler = cli.scheduler(cli.jobs(), None, None);
    let dec = SchedulerDecompiler {
        scheduler: &scheduler,
    };
    let mut oracle = Oracle::new(&dec);
    oracle.vectorize = cli.on("--vectorize");

    // Corpus replay first, if requested: every checked-in program must
    // keep agreeing on every route.
    if let Some(dir) = cli.text("--corpus") {
        let files = files_in(Path::new(&dir), &["c"]);
        if files.is_empty() {
            fail(&format!("no .c files in {dir}"));
        }
        for path in &files {
            let src = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
            if let Err(f) = replay_corpus_source(&oracle, &src) {
                eprintln!("corpus FAIL {}:\n  {f}", path.display());
                std::process::exit(1);
            }
        }
        println!("corpus: {} program(s) ok", files.len());
    }

    let cfg = DifftestConfig {
        seed,
        cases: cli.num("--cases", 100),
        shrink: cli.on("--shrink"),
        only_case: cli.on("--case").then(|| cli.num("--case", 0)),
        min_work: 0,
        validate: cli.on("--validate"),
    };
    let start = Instant::now();
    let report = run_difftest(&oracle, &cfg);
    // Report to stdout (byte-deterministic); timing and service stats to
    // stderr so two runs' stdout can be diffed.
    print!("{report}");
    if cli.on("--stats") {
        eprintln!("# wall: {:?}", start.elapsed());
        eprint!("{}", scheduler.stats());
    }
    if !report.validator_sound() {
        eprintln!("difftest: validator certified a decompilation the oracle refuted");
        std::process::exit(1);
    }
    if !report.all_passed() {
        std::process::exit(1);
    }
}

/// `splendid validate` — one validated decompilation, local or against a
/// daemon. Local runs submit through a scheduler with the equivalence
/// checker enabled; remote runs use the stateless VALIDATE frame. Either
/// way the printed source carries the per-function `/* splendid:
/// verified */` / `/* splendid: UNVERIFIED: ... */` annotations.
fn cmd_validate(cli: Cli) {
    if !cli.on("--addr") && !cli.on("--unix") {
        return decompile_one(&cli, true);
    }
    let [path] = cli.positional.as_slice() else {
        usage()
    };
    // Remote: hand the module to a daemon over the VALIDATE frame.
    let (name, ir_text) = load_ir_text(Path::new(path));
    let mut client = connect_client(&cli);
    match client.validate(&name, cli.variant() as u8, &ir_text) {
        Ok(splendid_daemon::Response::Validated {
            functions,
            verified,
            unverified,
            wall_micros,
            source,
        }) => {
            print!("{source}");
            eprintln!(
                "# validate: {functions} function(s), {verified} verified, \
                 {unverified} unverified, {wall_micros}us server-side"
            );
            if unverified > 0 {
                std::process::exit(1);
            }
        }
        Ok(_) => fail("validate: unexpected response kind"),
        Err(e) => fail(&format!("validate: {e}")),
    }
}

/// `splendid bench-validate` — the cost and coverage of translation
/// validation over the PolyBench suite: an unvalidated baseline, a cold
/// validated pass (every certificate proven from scratch), and a
/// warm-restart validated pass (a fresh scheduler over the persisted
/// store, so verdicts replay from disk certificates instead of probe
/// runs). Gated on the fraction of functions proven `Verified`.
fn cmd_bench_validate(cli: Cli) {
    let rounds = cli.rounds();
    let min_verified = cli.num("--min-verified", 0.9);

    let plain = suite_requests(JobInput::Module);
    let mut validated = plain.clone();
    for r in &mut validated {
        r.options.validate = true;
    }
    let modules = plain.len();

    let base = std::env::temp_dir().join(format!("splendid-bench-validate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let store = base.join("store");

    // Unvalidated baseline: same modules, checker off, no persistence.
    let mut baseline = f64::MAX;
    let mut workers = 0;
    for _ in 0..rounds {
        let s = cli.scheduler(cli.jobs(), None, None);
        workers = s.workers();
        baseline = baseline.min(run_pass(&cli, &s, &plain).0);
    }

    // Validated cold and warm-restart passes over a persistent store.
    let mut cold = f64::MAX;
    let mut warm = f64::MAX;
    let mut functions = 0u64;
    let mut verified = 0u64;
    let mut unverified = 0u64;
    let mut cold_checks = 0u64;
    let mut warm_certs = 0u64;
    for _ in 0..rounds {
        let _ = std::fs::remove_dir_all(&store);
        let s = cli.scheduler(workers, Some(&store), None);
        let (pass, results) = run_pass(&cli, &s, &validated);
        if pass < cold {
            cold = pass;
            let total = |count: fn(&JobResult) -> usize| -> u64 {
                results.iter().map(|r| count(r) as u64).sum()
            };
            functions = total(|r| r.functions);
            verified = total(|r| r.verified_functions);
            unverified = total(|r| r.unverified_functions);
            cold_checks = s.stats().validations_run;
        }
        s.flush_cache();
        drop(s);

        // Warm restart: fresh scheduler, same store — certificates must
        // answer from disk without re-running probes.
        let s = cli.scheduler(workers, Some(&store), None);
        let pass = run_pass(&cli, &s, &validated).0;
        if pass < warm {
            warm = pass;
            warm_certs = s.stats().certs_from_cache;
        }
        drop(s);
    }
    let _ = std::fs::remove_dir_all(&base);

    let verified_fraction = if functions == 0 {
        0.0
    } else {
        verified as f64 / functions as f64
    };
    let overhead = cold / baseline.max(1e-9);
    let warm_speedup = cold / warm.max(1e-9);
    if cli.on("--json") {
        // Hand-rolled JSON: the offline build has no serde.
        println!("{{");
        println!("  \"benchmark\": \"bench-validate\",");
        println!("  \"modules\": {modules},");
        println!("  \"workers\": {workers},");
        println!("  \"rounds\": {rounds},");
        println!("  \"functions\": {functions},");
        println!("  \"verified\": {verified},");
        println!("  \"unverified\": {unverified},");
        println!("  \"verified_fraction\": {verified_fraction:.4},");
        println!("  \"baseline_seconds\": {baseline:.6},");
        println!("  \"validate_cold_seconds\": {cold:.6},");
        println!("  \"validate_warm_seconds\": {warm:.6},");
        println!("  \"validate_overhead\": {overhead:.3},");
        println!("  \"cold_checks_run\": {cold_checks},");
        println!("  \"warm_certs_from_cache\": {warm_certs},");
        println!("  \"warm_speedup\": {warm_speedup:.3}");
        println!("}}");
    } else {
        println!(
            "bench-validate: {modules} polybench modules, best of {rounds} round(s), {workers} worker(s)"
        );
        println!(
            "  verdicts              {verified} verified / {unverified} unverified of {functions} \
             ({:.1}% verified)",
            100.0 * verified_fraction
        );
        println!("  baseline (no checks)  {baseline:.3}s");
        println!(
            "  validate cold         {cold:.3}s  ({overhead:.2}x baseline, {cold_checks} checks run)"
        );
        println!(
            "  validate warm restart {warm:.3}s  ({warm_speedup:.2}x vs cold, {warm_certs} certs from disk)"
        );
    }

    if verified_fraction < min_verified {
        eprintln!(
            "bench-validate: verified fraction {:.1}% is below the required {:.1}%",
            100.0 * verified_fraction,
            100.0 * min_verified
        );
        std::process::exit(1);
    }
    if warm_certs == 0 {
        eprintln!("bench-validate: warm restart replayed no certificates from disk");
        std::process::exit(1);
    }
}

/// SIGTERM/SIGINT handling for daemon mode, via direct libc FFI (the
/// offline build has no signal crate). The handler only flips an atomic;
/// the daemon main loop notices and drains.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    /// Install the handlers; returns false if the libc call failed.
    pub fn install() {
        // SAFETY: `signal` with an async-signal-safe handler (a single
        // relaxed-to-seqcst atomic store) is the classic minimal setup.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    pub fn requested() -> bool {
        SHUTDOWN.load(Ordering::SeqCst)
    }
}

fn cmd_daemon(cli: Cli) {
    let secs = |name: &str, default: u64| match cli.num(name, default) {
        0 => None,
        s => Some(Duration::from_secs(s)),
    };
    let config = DaemonConfig {
        addr: cli
            .text("--addr")
            .unwrap_or_else(|| "127.0.0.1:7777".into()),
        unix_path: cli.text("--unix").map(PathBuf::from),
        max_connections: cli.num("--max-connections", 32usize).max(1),
        idle_timeout: secs("--idle-timeout", 300),
        drain_timeout: Duration::from_secs(30),
        serve: ServeConfig {
            workers: cli.jobs(),
            job_timeout: secs("--deadline", 30),
            max_pending_jobs: cli.num("--max-pending", 0),
            degrade_pending_jobs: cli.num("--degrade-pending", 0),
            quota_burst: cli.num("--quota-burst", 0),
            quota_per_sec: cli.num("--quota-rps", 0),
            ..Default::default()
        },
        cache_dir: cli.text("--cache-dir").map(PathBuf::from),
        cache_budget_bytes: match cli.num("--cache-budget-mb", 0u64) {
            0 => None,
            mb => Some(mb * 1024 * 1024),
        },
        peer: cli.text("--peer"),
        peer_timeout: match cli.num("--peer-timeout-ms", 0) {
            0 => DEFAULT_PEER_TIMEOUT,
            ms => Duration::from_millis(ms),
        },
    };
    let daemon = Daemon::start(config.clone()).unwrap_or_else(|e| fail(&format!("daemon: {e}")));
    eprintln!(
        "splendid daemon listening on {}{} ({} worker(s), {} connection cap)",
        daemon.local_addr(),
        config
            .unix_path
            .as_ref()
            .map(|p| format!(" and {}", p.display()))
            .unwrap_or_default(),
        daemon.serve_stats().workers,
        config.max_connections
    );
    #[cfg(unix)]
    {
        sig::install();
        while !sig::requested() {
            std::thread::sleep(Duration::from_millis(100));
        }
        eprintln!("splendid daemon: signal received, draining...");
    }
    #[cfg(not(unix))]
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
    #[cfg(unix)]
    {
        let stats = daemon.stats_text();
        let clean = daemon.drain();
        eprint!("{stats}");
        if clean {
            eprintln!("splendid daemon: drained cleanly");
            std::process::exit(0);
        }
        eprintln!("splendid daemon: drain timed out with connections still open");
        std::process::exit(1);
    }
}

fn connect_client(cli: &Cli) -> DaemonClient {
    #[cfg(unix)]
    if let Some(path) = cli.text("--unix") {
        return DaemonClient::connect_unix(&path)
            .unwrap_or_else(|e| fail(&format!("connect {path}: {e}")));
    }
    let addr = cli
        .text("--addr")
        .unwrap_or_else(|| "127.0.0.1:7777".into());
    DaemonClient::connect_tcp(&addr).unwrap_or_else(|e| fail(&format!("connect {addr}: {e}")))
}

/// Parse a `.hex` corpus file: whitespace-separated hex bytes, `#`
/// comments. Returns the raw bytes to hurl at the daemon.
fn parse_hex_corpus(text: &str) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("");
        for tok in line.split_whitespace() {
            out.push(u8::from_str_radix(tok, 16).map_err(|_| format!("bad hex byte {tok:?}"))?);
        }
    }
    Ok(out)
}

/// Replay a directory of `.hex` malformed-frame files against the
/// daemon: each file gets a fresh connection; after every replay a new
/// connection must still PING — the daemon never dies to bad input.
fn cmd_connect_malformed(cli: &Cli, dir: &str) {
    let files = files_in(Path::new(dir), &["hex"]);
    if files.is_empty() {
        fail(&format!("no .hex files in {dir}"));
    }
    for path in &files {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
        let bytes =
            parse_hex_corpus(&text).unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
        let mut client = connect_client(cli);
        client
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap_or_else(|e| fail(&e.to_string()));
        client
            .send_raw(&bytes)
            .unwrap_or_else(|e| fail(&format!("{}: send: {e}", path.display())));
        // Drain whatever (typed errors, usually) the daemon says back.
        let mut responses = 0usize;
        while client.read_response().is_ok() {
            responses += 1;
        }
        drop(client);
        // Liveness proof on a fresh connection.
        let mut probe = connect_client(cli);
        probe
            .ping()
            .unwrap_or_else(|e| fail(&format!("{}: daemon died: {e}", path.display())));
        println!(
            "malformed {}: {} byte(s), {} response(s), daemon alive",
            path.file_name()
                .map(|f| f.to_string_lossy())
                .unwrap_or_default(),
            bytes.len(),
            responses
        );
    }
    println!("malformed corpus: {} file(s) survived", files.len());
}

fn cmd_connect(cli: Cli) {
    if let Some(dir) = cli.text("--malformed") {
        cmd_connect_malformed(&cli, &dir);
        return;
    }
    match cli.positional.as_slice() {
        [] => {
            if !cli.on("--stats") {
                fail("connect: give a file to decompile, --stats, or --malformed <dir>");
            }
            let mut client = connect_client(&cli);
            let text = client
                .stats(true)
                .unwrap_or_else(|e| fail(&format!("stats: {e}")));
            print!("{text}");
        }
        [path] => {
            let (name, ir_text) = load_ir_text(Path::new(path));
            let mut client = connect_client(&cli);
            let (session, functions) = client
                .open(&name, cli.variant() as u8, &ir_text)
                .unwrap_or_else(|e| fail(&format!("open: {e}")));
            match client.decompile() {
                Ok(splendid_daemon::Response::Result {
                    source,
                    cached,
                    wall_micros,
                    ..
                }) => {
                    print!("{source}");
                    if cli.on("--stats") {
                        eprintln!(
                            "# session {session}: {functions} function(s), {cached} cached, \
                             {wall_micros}us server-side"
                        );
                        let stats = client
                            .stats(false)
                            .unwrap_or_else(|e| fail(&format!("stats: {e}")));
                        eprint!("{stats}");
                    }
                }
                Ok(_) => fail("decompile: unexpected response kind"),
                Err(e) => fail(&format!("decompile: {e}")),
            }
            client
                .close()
                .unwrap_or_else(|e| fail(&format!("close: {e}")));
        }
        _ => usage(),
    }
}

fn cmd_bench_daemon(cli: Cli) {
    let cfg = BenchConfig {
        connections: cli.num("--connections", 4usize).max(1),
        rounds: match cli.num("--rounds", 0) {
            0 => 8,
            r => r,
        },
        functions: cli.num("--functions", 16usize).max(1),
        addr: cli.text("--addr"),
    };
    let report =
        splendid_daemon::run_bench(&cfg).unwrap_or_else(|e| fail(&format!("bench-daemon: {e}")));
    if cli.on("--json") {
        print!("{}", report.json());
    } else {
        print!("{}", report.text());
    }
    let min_speedup = cli.num("--min-speedup", 0.0);
    if min_speedup > 0.0 && report.incremental_speedup < min_speedup {
        eprintln!(
            "bench-daemon: incremental speedup {:.2}x is below the required {:.2}x",
            report.incremental_speedup, min_speedup
        );
        std::process::exit(1);
    }
    let max_update_p50_ms = cli.num("--max-update-p50-ms", 0.0);
    if max_update_p50_ms > 0.0 && report.update.p50_ms > max_update_p50_ms {
        eprintln!(
            "bench-daemon: UPDATE p50 {:.3}ms exceeds the allowed {:.3}ms",
            report.update.p50_ms, max_update_p50_ms
        );
        std::process::exit(1);
    }
}

/// `splendid bench-overload` — behavior past saturation: dead-peer
/// breaker cost, baseline vs 4×-overloaded goodput, shed rate, and p99
/// under overload. In-process mode (no `--addr`) starts a daemon with a
/// deliberately small admission queue and gates on the report; attach
/// mode drives an external daemon and only gates the breaker phase (the
/// smoke script asserts sheds from the daemon's own STATS text).
fn cmd_bench_overload(cli: Cli) {
    let cfg = splendid_daemon::OverloadConfig {
        workers: match cli.jobs() {
            0 => 2,
            j => j,
        },
        rounds: match cli.num("--rounds", 0) {
            0 => 8,
            r => r,
        },
        functions: cli.num("--functions", 16usize).clamp(1, 8),
        addr: cli.text("--addr"),
        ..Default::default()
    };
    let report = splendid_daemon::run_overload_bench(&cfg)
        .unwrap_or_else(|e| fail(&format!("bench-overload: {e}")));
    if cli.on("--json") {
        print!("{}", report.json());
    } else {
        print!("{}", report.text());
    }
    if !report.gates.passed() {
        eprintln!("bench-overload: gates failed: {:?}", report.gates);
        std::process::exit(1);
    }
}

/// `splendid cache <stat|verify|compact>` — offline administration of a
/// persistent cache directory. Opening the store already performs crash
/// recovery (rescanning segments and truncating any torn tail), so
/// `verify` on a previously crashed store reports what recovery dropped
/// and then checks the repaired invariants.
fn cmd_cache(cli: Cli) {
    let [action] = cli.positional.as_slice() else {
        usage()
    };
    let dir = cli
        .text("--cache-dir")
        .unwrap_or_else(|| fail("cache: --cache-dir <dir> is required"));
    let mut config = StoreConfig::default();
    let budget_mb: u64 = cli.num("--cache-budget-mb", 0);
    if budget_mb > 0 {
        config.budget_bytes = budget_mb * 1024 * 1024;
    }
    let mut store = CacheStore::open(Path::new(&dir), config)
        .unwrap_or_else(|e| fail(&format!("cache: open {dir}: {e}")));
    match action.as_str() {
        "stat" => {
            let stat = store
                .stat()
                .unwrap_or_else(|e| fail(&format!("cache stat: {e}")));
            let c = store.counters();
            println!("cache store {dir}");
            println!(
                "  segments   {} file(s), {} bytes on disk (budget {})",
                stat.segments, stat.total_bytes, stat.budget_bytes
            );
            println!(
                "  records    {} live ({} live bytes), {} index slots",
                stat.live_records, stat.live_bytes, stat.index_slots
            );
            println!(
                "  recovery   {} rebuild(s), {} torn byte(s) dropped, {} crc drop(s)",
                c.rebuilds, c.torn_bytes, c.crc_drops
            );
        }
        "verify" => {
            let report = store
                .verify()
                .unwrap_or_else(|e| fail(&format!("cache verify: {e}")));
            let c = store.counters();
            println!("cache verify {dir}");
            println!(
                "  {} segment(s), {} intact record(s) on disk, {} live index entries",
                report.segments, report.disk_records, report.index_entries
            );
            println!(
                "  {} torn byte(s), {} dangling index entr(ies)",
                report.torn_bytes, report.index_dangling
            );
            if c.rebuilds > 0 {
                println!(
                    "  recovery at open: {} rebuild(s), {} torn byte(s) dropped",
                    c.rebuilds, c.torn_bytes
                );
            }
            if report.ok() {
                println!("  ok");
            } else {
                fail("cache verify: store is inconsistent");
            }
        }
        "compact" => {
            let stats = store
                .compact()
                .unwrap_or_else(|e| fail(&format!("cache compact: {e}")));
            println!("cache compact {dir}");
            println!(
                "  kept {} record(s), dropped {} superseded/dead",
                stats.kept_records, stats.dropped_records
            );
            println!(
                "  {} bytes -> {} bytes",
                stats.bytes_before, stats.bytes_after
            );
        }
        other => fail(&format!(
            "cache: unknown action {other:?} (stat|verify|compact)"
        )),
    }
}

/// `splendid bench-cache` — cold vs warm-restart vs peer-fed over the
/// PolyBench suite, gated: a warm restart must be at least `--min-speedup`
/// (default 5) times faster than cold, the warm disk hit rate must
/// exceed 90%, and a peer-fed fresh store must beat cold.
fn cmd_bench_cache(cli: Cli) {
    let rounds = cli.rounds();
    let min_speedup = match cli.num("--min-speedup", 0.0) {
        x if x > 0.0 => x,
        _ => 5.0,
    };

    // Text inputs: the persistent tier answers whole modules by content
    // key before parse, which is exactly the warm-restart path a daemon
    // reopening its store takes.
    let requests = suite_requests(|m| JobInput::Text(module_str(&m)));
    let modules = requests.len();

    let base = std::env::temp_dir().join(format!("splendid-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let store_a = base.join("store-a");

    let mut cold = f64::MAX;
    let mut warm = f64::MAX;
    let mut hit_rate = 0.0f64;
    let mut workers = 0;
    for _ in 0..rounds {
        // Cold: empty store, everything decompiles for real.
        let _ = std::fs::remove_dir_all(&store_a);
        let s = cli.scheduler(cli.jobs(), Some(&store_a), None);
        workers = s.workers();
        cold = cold.min(run_pass(&cli, &s, &requests).0);
        s.flush_cache();
        drop(s);

        // Warm restart: new process image (fresh scheduler, empty LRU)
        // over the persisted store.
        let s = cli.scheduler(workers, Some(&store_a), None);
        warm = warm.min(run_pass(&cli, &s, &requests).0);
        if let Some(disk) = s.stats().tiers.iter().find(|t| t.name == "disk") {
            hit_rate = hit_rate.max(disk.hit_rate());
        }
        s.flush_cache();
        drop(s);
    }

    // Peer-fed: a daemon serves the warm store over CACHE_GET; a fresh
    // empty store fills from it instead of decompiling.
    let daemon = Daemon::start(DaemonConfig {
        addr: "127.0.0.1:0".into(),
        cache_dir: Some(store_a.clone()),
        ..Default::default()
    })
    .unwrap_or_else(|e| fail(&format!("bench-cache: peer daemon: {e}")));
    let peer_addr = daemon.local_addr().to_string();
    let mut peer_fed = f64::MAX;
    for round in 0..rounds {
        let store_b = base.join(format!("store-b-{round}"));
        let s = cli.scheduler(workers, Some(&store_b), Some(&peer_addr));
        peer_fed = peer_fed.min(run_pass(&cli, &s, &requests).0);
        drop(s);
    }
    daemon.drain();
    let _ = std::fs::remove_dir_all(&base);

    let warm_speedup = cold / warm.max(1e-9);
    let peer_speedup = cold / peer_fed.max(1e-9);
    if cli.on("--json") {
        // Hand-rolled JSON: the offline build has no serde.
        println!("{{");
        println!("  \"benchmark\": \"bench-cache\",");
        println!("  \"modules\": {modules},");
        println!("  \"workers\": {workers},");
        println!("  \"rounds\": {rounds},");
        println!("  \"cold_seconds\": {cold:.6},");
        println!("  \"warm_restart_seconds\": {warm:.6},");
        println!("  \"peer_fed_seconds\": {peer_fed:.6},");
        println!("  \"warm_speedup\": {warm_speedup:.3},");
        println!("  \"peer_speedup\": {peer_speedup:.3},");
        println!("  \"warm_disk_hit_rate\": {hit_rate:.4}");
        println!("}}");
    } else {
        println!("bench-cache: {modules} polybench modules, best of {rounds} round(s), {workers} worker(s)");
        println!(
            "  cold (empty store)    {cold:.3}s  ({:.1} modules/s)",
            modules as f64 / cold
        );
        println!(
            "  warm restart          {warm:.3}s  ({:.1} modules/s, {warm_speedup:.2}x, {:.1}% disk hits)",
            modules as f64 / warm,
            100.0 * hit_rate
        );
        println!(
            "  peer-fed fresh store  {peer_fed:.3}s  ({:.1} modules/s, {peer_speedup:.2}x)",
            modules as f64 / peer_fed
        );
    }

    if warm_speedup < min_speedup {
        eprintln!(
            "bench-cache: warm restart speedup {warm_speedup:.2}x is below the required {min_speedup:.2}x"
        );
        std::process::exit(1);
    }
    if hit_rate <= 0.9 {
        eprintln!(
            "bench-cache: warm disk hit rate {:.1}% is not above 90%",
            100.0 * hit_rate
        );
        std::process::exit(1);
    }
    if peer_fed >= cold {
        eprintln!("bench-cache: peer-fed run ({peer_fed:.3}s) did not beat cold ({cold:.3}s)");
        std::process::exit(1);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        usage()
    };
    let command = COMMANDS.iter().find(|c| c.0 == cmd);
    // Flags are read (and checked) before an unknown command is reported,
    // so a malformed value fails every command line alike.
    let cli = Cli::parse(command.map_or("", |c| c.0), rest);
    match command {
        Some(Command(_, run, _)) => run(cli),
        None => usage(),
    }
}
