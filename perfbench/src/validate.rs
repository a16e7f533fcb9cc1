//! `validate-cold`: one PolyBench module per op, decompiled with
//! `SplendidOptions::validate` on a scheduler whose certificate and
//! function caches have never seen it (each op is a fresh variant).
//! This is the cold `--validate` path and the only workload that runs
//! interp, validate and cfront.

use crate::batch::{replay_functions, tag, ServeCounts};
use crate::inputs::{self, variant, Kernel, Rng};
use crate::layers::{self, TracedOp};
use crate::trace::{Kind, Tracer};
use crate::{env, Args, Report};
use splendid_cfront::{lower_program, parse_program, LowerOptions};
use splendid_core::{assemble_output, FidelityTier, SplendidOptions, StageTimings};
use splendid_interp::{CompilerProfile, MachineConfig, RtVal, Vm};
use splendid_ir::{Module, Type};
use splendid_serve::{JobInput, JobRequest, JobResult, Scheduler, ServeConfig};
use splendid_validate::ValidateConfig;
use std::time::Instant;

/// The kernels validated, chosen to fit a run: three of the cheapest to
/// validate (0.3–0.4 s each on a 2-core box), close enough in cost that
/// the tail percentile sits inside the costliest kernel's cluster rather
/// than on a boundary between clusters. Every run visits each equally.
pub const KERNELS: [&str; 3] = ["jacobi-1d-imper", "mvt", "atax"];

/// Ops per window: every kernel twice. Each window opens with a set-up,
/// a scheduler start plus one validated warm-up op. Every window counts
/// towards the end-to-end metrics: ops are long, and a run holds only
/// about ten windows.
const WINDOW_OPS: usize = 2 * KERNELS.len();

fn options() -> SplendidOptions {
    SplendidOptions {
        validate: true,
        ..SplendidOptions::default()
    }
}

fn request(k: &Kernel, tag: &str) -> JobRequest {
    JobRequest {
        name: k.name.clone(),
        input: JobInput::Text(variant(&k.text, tag)),
        options: options(),
    }
}

fn check(r: &Result<JobResult, splendid_serve::JobError>) -> Result<(), String> {
    let r = r.as_ref().map_err(|e| format!("job error: {e}"))?;
    if r.verified_functions != r.functions || r.unverified_functions != 0 {
        return Err(format!(
            "{}: {}/{} functions verified",
            r.name, r.verified_functions, r.functions
        ));
    }
    if r.degraded_functions != 0 || r.cached_functions != 0 {
        return Err(format!(
            "{}: {} degraded, {} cached; want a cold, natural decompile",
            r.name, r.degraded_functions, r.cached_functions
        ));
    }
    Ok(())
}

pub fn run(args: &Args, rep: &mut Report) -> Result<(), String> {
    let suite = inputs::suite()?;
    let kernels: Vec<&Kernel> = KERNELS
        .iter()
        .map(|n| {
            suite
                .iter()
                .find(|k| k.name == *n)
                .ok_or(format!("no kernel {n}"))
        })
        .collect::<Result<_, _>>()?;
    let mut rng = Rng::new(args.seed);
    // Seeded order in rounds: every kernel once per round, shuffled.
    let mut queue: Vec<usize> = Vec::new();
    let mut next_kernel = move || {
        if queue.is_empty() {
            queue = (0..KERNELS.len()).collect();
            rng.shuffle(&mut queue);
        }
        queue.pop().unwrap_or(0)
    };
    let mut next = 0u64;
    let mut tracer = Tracer::default();
    let mut ops: Vec<(TracedOp, usize)> = Vec::new();
    let mut counts = ServeCounts::default();
    let mut verified = 0usize;

    let end = Instant::now() + crate::timed(args);
    while Instant::now() < end {
        next += 1;
        let warm = request(kernels[0], &tag(args.seed, next));
        let (sched, out) = rep.setup(|| {
            let s = Scheduler::new(ServeConfig::default());
            let out = s.submit(warm).wait();
            (s, out)
        });
        check(&out).map_err(|e| format!("warm-up: {e}"))?;
        rep.workers = sched.workers();

        // A traced run traces each kernel's first op in a window and not
        // its second, so traced and untraced ops cover the same kernels.
        let mut seen = [false; KERNELS.len()];
        for _ in 0..WINDOW_OPS {
            if Instant::now() >= end {
                break;
            }
            next += 1;
            let (id, k) = (next, next_kernel());
            let req = request(kernels[k], &tag(args.seed, id));
            let traced = args.trace && !std::mem::replace(&mut seen[k], true);
            let before = traced.then(|| sched.stats());
            let cpu = env::cpu_ns();
            let start = Instant::now();
            let out = if traced {
                tracer.span("op", Kind::Frame, id, |_| sched.submit(req).wait())
            } else {
                sched.submit(req).wait()
            };
            let elapsed = start.elapsed();
            let cpu_ms = env::cpu_ns().saturating_sub(cpu) as f64 / 1e6;
            rep.op(elapsed, 1, check(&out));
            if let Some(before) = before {
                counts.add(&before, &sched.stats());
                verified += out.as_ref().map_or(0, |r| r.verified_functions);
                let o = TracedOp {
                    id,
                    base_ms: cpu_ms,
                    cpu_ms,
                    wall_ms: elapsed.as_secs_f64() * 1e3,
                };
                ops.push((o, k));
            } else if args.trace {
                rep.untraced_ms.push(elapsed.as_secs_f64() * 1e3);
            }
        }
    }
    if !args.trace {
        return Ok(());
    }

    let cfg = ValidateConfig::default();
    let mut insts = 0u64;
    let mut degraded = 0usize;
    for (o, k) in &ops {
        let text = variant(&kernels[*k].text, &tag(args.seed, o.id));
        tracer.span("replay", Kind::Frame, o.id, |tr| {
            let (prepared, outs) = replay_functions(tr, o.id, &text, &options())?;
            degraded += outs
                .iter()
                .filter(|f| f.tier > FidelityTier::Natural)
                .count();
            let source = tr.call("core.assemble", o.id, || {
                assemble_output(&prepared, outs, &mut StageTimings::default()).source
            });
            let relowered = tr.span("validate.relower", Kind::Layer, o.id, |tr| {
                let prog = tr
                    .call("cfront.parse", o.id, || parse_program(&source))
                    .map_err(|e| format!("replay relower parse: {e}"))?;
                tr.call("cfront.lower", o.id, || {
                    lower_program(&prog, "validate", &LowerOptions::default())
                })
                .map_err(|e| format!("replay relower lower: {e}"))
            })?;
            for fid in prepared.module.func_ids() {
                let name = prepared.module.name_of(prepared.module.func(fid).name);
                let ok = tr.span("validate.check", Kind::Layer, o.id, |tr| {
                    replay_check(
                        tr,
                        o.id,
                        &prepared.module,
                        &relowered,
                        name,
                        &cfg,
                        &mut insts,
                    )
                })?;
                if !ok {
                    return Err(format!("replayed probes disagree on {name}"));
                }
            }
            Ok::<(), String>(())
        })?;
    }
    let exec_s: f64 = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "interp.exec")
        .map(|s| s.dur().as_secs_f64())
        .sum();
    let n = ops.len().max(1) as f64;
    let mut extras = counts.extras(ops.len());
    extras.extend([
        ("validate.verified", verified as f64 / n),
        ("interp.insts", insts as f64 / n),
        (
            "interp.minst_per_s",
            if exec_s > 0.0 {
                insts as f64 / exec_s / 1e6
            } else {
                0.0
            },
        ),
        ("core.degraded_functions", degraded as f64),
    ]);
    let traced_ops: Vec<TracedOp> = ops.into_iter().map(|(o, _)| o).collect();
    rep.layers = layers::summarize(&tracer, &traced_ops, &extras, &rep.untraced_ms);
    rep.tracer = Some(tracer);
    Ok(())
}

/// The validator's per-(seed, function, probe) value stream, restated so
/// the replay can seed both sides exactly as `splendid_validate` does.
struct ProbeRng(u64);

impl ProbeRng {
    fn new(seed: u64, fname: &str, probe: u32) -> ProbeRng {
        let mut h = 0xCBF2_9CE4_8422_2325u64 ^ seed;
        for b in fname.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h ^= (probe as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ProbeRng(h | 1)
    }

    fn next_f64(&mut self) -> f64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        let raw = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % 512) as i64 - 256;
        raw as f64 / 128.0
    }
}

fn machine(cfg: &ValidateConfig, fuel: u64) -> MachineConfig {
    MachineConfig {
        cores: cfg.cores,
        fuel,
        ..MachineConfig::xeon_28core(CompilerProfile::clang())
    }
}

fn seed_globals(vm: &mut Vm<'_>, src: &Module, re: &Module, rng: &mut ProbeRng) {
    for g in src.globals.iter().filter(|g| g.mem.elem() == Type::F64) {
        let name = src.name_of(g.name);
        let shared = re.globals.iter().any(|r| re.name_of(r.name) == name);
        for k in 0..g.mem.num_elems() {
            let v = rng.next_f64();
            if shared {
                let _ = vm.write_global_f64(name, k, v);
            }
        }
    }
}

fn same_return(a: Option<RtVal>, b: Option<RtVal>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(RtVal::Int(x)), Some(RtVal::Int(y))) => x == y,
        (Some(RtVal::F64(x)), Some(RtVal::F64(y))) => x.to_bits() == y.to_bits(),
        (Some(RtVal::Ptr(_)), Some(RtVal::Ptr(_))) => true,
        _ => false,
    }
}

/// The validator's probe loop for one parameterless function, through
/// the interpreter's public API with a span around every VM construction
/// and run: source and re-lowered sides, compared bitwise on the return
/// value and every global word. Returns whether every probe agreed.
fn replay_check(
    tr: &mut Tracer,
    id: u64,
    src: &Module,
    re: &Module,
    name: &str,
    cfg: &ValidateConfig,
    insts: &mut u64,
) -> Result<bool, String> {
    let params = src
        .functions
        .iter()
        .find(|f| src.name_of(f.name) == name)
        .map(|f| f.params.len());
    if params != Some(0) {
        return Err(format!(
            "replay covers parameterless functions only, not {name}"
        ));
    }
    for probe in 0..cfg.probes.max(1) {
        let mut vm_src = tr.call("interp.vm_new", id, || Vm::new(src, machine(cfg, cfg.fuel)));
        if probe > 0 {
            seed_globals(
                &mut vm_src,
                src,
                re,
                &mut ProbeRng::new(cfg.seed, name, probe),
            );
        }
        let Ok(src_ret) = tr.call("interp.exec", id, || vm_src.call_by_name(name, &[])) else {
            return Ok(false);
        };
        let re_fuel = vm_src.insts_executed().saturating_mul(64).max(100_000);
        let mut vm_re = tr.call("interp.vm_new", id, || Vm::new(re, machine(cfg, re_fuel)));
        if probe > 0 {
            seed_globals(
                &mut vm_re,
                src,
                re,
                &mut ProbeRng::new(cfg.seed, name, probe),
            );
        }
        let Ok(re_ret) = tr.call("interp.exec", id, || vm_re.call_by_name(name, &[])) else {
            return Ok(false);
        };
        *insts += vm_src.insts_executed() + vm_re.insts_executed();
        if !same_return(src_ret, re_ret) {
            return Ok(false);
        }
        for g in &src.globals {
            let gname = src.name_of(g.name);
            for k in 0..g.mem.num_elems() {
                let (a, b) = (
                    vm_src.read_global_f64(gname, k),
                    vm_re.read_global_f64(gname, k),
                );
                match (a, b) {
                    (Ok(a), Ok(b)) if a.to_bits() == b.to_bits() => {}
                    _ => return Ok(false),
                }
            }
        }
    }
    Ok(true)
}
