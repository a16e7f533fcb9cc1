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
//! `connect` and `validate --addr` talk to one.

use splendid_cachestore::{CacheStore, StoreConfig};
use splendid_cfront::{lower_program, parse_program, LowerOptions};
use splendid_core::{FidelityTier, SplendidOptions, Variant};
use splendid_daemon::{Daemon, DaemonClient, DaemonConfig};
use splendid_ir::{printer::module_str, Module};
use splendid_parallel::{parallelize_module, ParallelizeOptions};
use splendid_polybench::Harness;
use splendid_serve::{JobInput, JobRequest, Scheduler, ServeConfig};
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
    Command(
        "daemon",
        cmd_daemon,
        "--addr --unix --jobs --max-connections --idle-timeout --deadline --cache-dir \
         --cache-budget-mb --max-pending --degrade-pending",
    ),
    Command(
        "connect",
        cmd_connect,
        "--addr --unix [file.{ir,c}] --variant --stats --malformed",
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
        "cache",
        cmd_cache,
        "<stat|verify|compact> !--cache-dir --cache-budget-mb",
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
    Flag("--malformed", Kind::Text, "<dir>", ""),
    Flag("--cache-dir", Kind::Text, "DIR", ""),
    Flag("--cache-budget-mb", Kind::Uint, "N", ""),
    Flag("--max-pending", Kind::Uint, "N", " (0 = unbounded)"),
    Flag("--degrade-pending", Kind::Uint, "N", " (0 = off)"),
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

/// A parsed command line: its positionals and the last value given for
/// each flag (switches map to an empty string).
struct Cli {
    positional: Vec<String>,
    values: HashMap<&'static str, String>,
}

impl Cli {
    fn parse(argv: &[String]) -> Cli {
        let mut cli = Cli {
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

    /// A scheduler with `--jobs` workers.
    fn scheduler(&self) -> Scheduler {
        Scheduler::new(ServeConfig {
            workers: self.jobs(),
            ..Default::default()
        })
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
    let scheduler = cli.scheduler();
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
    let scheduler = cli.scheduler();
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

    let scheduler = cli.scheduler();
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
            ..Default::default()
        },
        cache_dir: cli.text("--cache-dir").map(PathBuf::from),
        cache_budget_bytes: match cli.num("--cache-budget-mb", 0u64) {
            0 => None,
            mb => Some(mb * 1024 * 1024),
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

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        usage()
    };
    let command = COMMANDS.iter().find(|c| c.0 == cmd);
    // Flags are read (and checked) before an unknown command is reported,
    // so a malformed value fails every command line alike.
    let cli = Cli::parse(rest);
    match command {
        Some(Command(_, run, _)) => run(cli),
        None => usage(),
    }
}
