//! One function per evaluated table/figure.

use crate::tables::render_table;
use splendid_cfront::OmpRuntime;
use splendid_core::{decompile, SplendidOptions, Variant};
use splendid_interp::{CompilerProfile, MachineConfig};
use splendid_metrics::{bleu4, loc, parallel_representation_loc};
use splendid_polybench::{benchmarks, Benchmark, Harness};

/// Row of Table 3.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Loops the Polly-sim parallelized (measured).
    pub compiler: usize,
    /// Loops the programmer parallelizes (spec).
    pub programmer: usize,
    /// Union of both.
    pub total: usize,
    /// Manual parallelizations eliminated by the compiler (overlap).
    pub eliminated: usize,
}

/// Table 3: loops parallelized by compiler vs programmer.
pub fn table3() -> (Vec<Table3Row>, String) {
    let mut rows = Vec::new();
    for b in benchmarks() {
        let (_, report) = Harness::polly(b.sequential).expect(b.name);
        let compiler = report.parallelized_count();
        let programmer = b.manual_loops;
        let eliminated = b.overlap_loops.min(compiler).min(programmer);
        let total = compiler + programmer - eliminated;
        rows.push(Table3Row {
            benchmark: b.name.to_string(),
            compiler,
            programmer,
            total,
            eliminated,
        });
    }
    let totals = (
        rows.iter().map(|r| r.compiler).sum::<usize>(),
        rows.iter().map(|r| r.programmer).sum::<usize>(),
        rows.iter().map(|r| r.total).sum::<usize>(),
        rows.iter().map(|r| r.eliminated).sum::<usize>(),
    );
    let mut table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.clone(),
                r.compiler.to_string(),
                r.programmer.to_string(),
                r.total.to_string(),
                r.eliminated.to_string(),
            ]
        })
        .collect();
    table.push(vec![
        "Total".into(),
        totals.0.to_string(),
        totals.1.to_string(),
        totals.2.to_string(),
        totals.3.to_string(),
    ]);
    let text = render_table(
        &[
            "Benchmark",
            "Compiler",
            "Programmer",
            "TotalParallelizable",
            "EliminatedManual",
        ],
        &table,
    );
    (rows, text)
}

/// Row of Table 4.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Benchmark name.
    pub benchmark: String,
    /// LoC of each system's output and the reference.
    pub ghidra: usize,
    /// Rellic-like output LoC.
    pub rellic: usize,
    /// SPLENDID output LoC.
    pub splendid: usize,
    /// Reference LoC.
    pub reference: usize,
    /// Parallel-representation LoC per system.
    pub par_ghidra: usize,
    /// Rellic parallel-representation LoC.
    pub par_rellic: usize,
    /// SPLENDID parallel-representation LoC.
    pub par_splendid: usize,
}

/// Table 4: LoC similarity to the reference.
pub fn table4() -> (Vec<Table4Row>, String) {
    let mut rows = Vec::new();
    for b in benchmarks() {
        let art = Harness::pipeline(&b).expect(b.name);
        rows.push(Table4Row {
            benchmark: b.name.to_string(),
            ghidra: loc(&art.ghidra.source),
            rellic: loc(&art.rellic.source),
            splendid: loc(&art.splendid.source),
            reference: loc(b.reference),
            par_ghidra: parallel_representation_loc(&art.ghidra.source),
            par_rellic: parallel_representation_loc(&art.rellic.source),
            par_splendid: parallel_representation_loc(&art.splendid.source),
        });
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let ratio = |x: usize| format!("{} ({:.1}x)", x, x as f64 / r.reference as f64);
            vec![
                r.benchmark.clone(),
                ratio(r.ghidra),
                ratio(r.rellic),
                ratio(r.splendid),
                r.reference.to_string(),
                r.par_ghidra.to_string(),
                r.par_rellic.to_string(),
                r.par_splendid.to_string(),
            ]
        })
        .collect();
    let text = render_table(
        &[
            "Benchmark",
            "Ghidra",
            "Rellic",
            "SPLENDID",
            "Ref",
            "Par(G)",
            "Par(R)",
            "Par(S)",
        ],
        &table,
    );
    (rows, text)
}

/// Row of Figure 6.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Polly binary speedup over sequential (Clang profile).
    pub polly: f64,
    /// Polly → SPLENDID → Clang (libomp) speedup.
    pub splendid_clang: f64,
    /// Polly → SPLENDID → GCC (libgomp) speedup.
    pub splendid_gcc: f64,
}

/// Figure 6: portability — speedups of Polly vs SPLENDID-recompiled code.
pub fn fig6() -> (Vec<Fig6Row>, String) {
    let mut rows = Vec::new();
    for b in benchmarks() {
        let art = Harness::pipeline(&b).expect(b.name);
        let seq_clang = Harness::run_source(
            b.sequential,
            OmpRuntime::LibOmp,
            CompilerProfile::clang(),
            b.check_globals,
        )
        .expect(b.name);
        let seq_gcc = Harness::run_source(
            b.sequential,
            OmpRuntime::LibGomp,
            CompilerProfile::gcc(),
            b.check_globals,
        )
        .expect(b.name);
        let polly = Harness::run(
            &art.parallel_module,
            MachineConfig::xeon_28core(CompilerProfile::clang()),
            b.check_globals,
        )
        .expect(b.name);
        let re_clang = Harness::recompile_and_run(
            &art.splendid.source,
            OmpRuntime::LibOmp,
            CompilerProfile::clang(),
            b.check_globals,
        )
        .expect(b.name);
        let re_gcc = Harness::recompile_and_run(
            &art.splendid.source,
            OmpRuntime::LibGomp,
            CompilerProfile::gcc(),
            b.check_globals,
        )
        .expect(b.name);
        assert_eq!(seq_clang.0, polly.0, "{}: polly semantics", b.name);
        assert_eq!(
            seq_clang.0, re_clang.0,
            "{}: clang recompile semantics",
            b.name
        );
        assert_eq!(seq_clang.0, re_gcc.0, "{}: gcc recompile semantics", b.name);
        rows.push(Fig6Row {
            benchmark: b.name.to_string(),
            polly: seq_clang.1 as f64 / polly.1 as f64,
            splendid_clang: seq_clang.1 as f64 / re_clang.1 as f64,
            splendid_gcc: seq_gcc.1 as f64 / re_gcc.1 as f64,
        });
    }
    let geomean = |f: &dyn Fn(&Fig6Row) -> f64| -> f64 {
        (rows.iter().map(|r| f(r).ln()).sum::<f64>() / rows.len() as f64).exp()
    };
    let mut table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.clone(),
                format!("{:.2}x", r.polly),
                format!("{:.2}x", r.splendid_clang),
                format!("{:.2}x", r.splendid_gcc),
            ]
        })
        .collect();
    table.push(vec![
        "geomean".into(),
        format!("{:.2}x", geomean(&|r| r.polly)),
        format!("{:.2}x", geomean(&|r| r.splendid_clang)),
        format!("{:.2}x", geomean(&|r| r.splendid_gcc)),
    ]);
    let text = render_table(
        &[
            "Benchmark",
            "Polly",
            "Polly->SPLENDID->Clang",
            "Polly->SPLENDID->GCC",
        ],
        &table,
    );
    (rows, text)
}

/// Row of Figure 7.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Benchmark name.
    pub benchmark: String,
    /// BLEU-4 (0..100) per system.
    pub rellic: f64,
    /// Ghidra-like baseline.
    pub ghidra: f64,
    /// SPLENDID v1 (control flow only).
    pub v1: f64,
    /// Portable SPLENDID (control flow + explicit parallelism).
    pub portable: f64,
    /// Full SPLENDID (+ variable renaming).
    pub full: f64,
}

/// Figure 7: BLEU-4 scores against the reference code.
pub fn fig7() -> (Vec<Fig7Row>, String) {
    let mut rows = Vec::new();
    for b in benchmarks() {
        let art = Harness::pipeline(&b).expect(b.name);
        let v1 = decompile(
            &art.parallel_module,
            &SplendidOptions {
                variant: Variant::V1,
                ..Default::default()
            },
        )
        .expect(b.name);
        let portable = decompile(
            &art.parallel_module,
            &SplendidOptions {
                variant: Variant::Portable,
                ..Default::default()
            },
        )
        .expect(b.name);
        let score = |src: &str| 100.0 * bleu4(src, b.reference);
        rows.push(Fig7Row {
            benchmark: b.name.to_string(),
            rellic: score(&art.rellic.source),
            ghidra: score(&art.ghidra.source),
            v1: score(&v1.source),
            portable: score(&portable.source),
            full: score(&art.splendid.source),
        });
    }
    let avg = |f: &dyn Fn(&Fig7Row) -> f64| rows.iter().map(f).sum::<f64>() / rows.len() as f64;
    let mut table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.clone(),
                format!("{:.2}", r.rellic),
                format!("{:.2}", r.ghidra),
                format!("{:.2}", r.v1),
                format!("{:.2}", r.portable),
                format!("{:.2}", r.full),
            ]
        })
        .collect();
    table.push(vec![
        "average".into(),
        format!("{:.2}", avg(&|r| r.rellic)),
        format!("{:.2}", avg(&|r| r.ghidra)),
        format!("{:.2}", avg(&|r| r.v1)),
        format!("{:.2}", avg(&|r| r.portable)),
        format!("{:.2}", avg(&|r| r.full)),
    ]);
    let text = render_table(
        &[
            "Benchmark",
            "Rellic",
            "Ghidra",
            "SPLENDID-v1",
            "Portable",
            "SPLENDID",
        ],
        &table,
    );
    (rows, text)
}

/// Row of Figure 8.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Percentage of variables restored from source metadata.
    pub restored_pct: f64,
}

/// Figure 8: variable-name reconstruction rate.
pub fn fig8() -> (Vec<Fig8Row>, String) {
    let mut rows = Vec::new();
    for b in benchmarks() {
        let art = Harness::pipeline(&b).expect(b.name);
        rows.push(Fig8Row {
            benchmark: b.name.to_string(),
            restored_pct: art.splendid.naming.restored_pct(),
        });
    }
    let avg = rows.iter().map(|r| r.restored_pct).sum::<f64>() / rows.len() as f64;
    let mut table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.benchmark.clone(), format!("{:.1}%", r.restored_pct)])
        .collect();
    table.push(vec!["average".into(), format!("{avg:.1}%")]);
    let text = render_table(&["Benchmark", "Restored"], &table);
    (rows, text)
}

/// Row of Figure 9.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Manual-only speedup.
    pub manual: f64,
    /// Compiler-only speedup.
    pub compiler: f64,
    /// Compiler + manual collaboration speedup.
    pub collab: f64,
    /// Hand-edited LoC on top of SPLENDID output.
    pub loc_changed: usize,
}

/// Figure 9: collaborative parallelization on the seven-benchmark subset.
pub fn fig9() -> (Vec<Fig9Row>, String) {
    let mut rows = Vec::new();
    for b in benchmarks() {
        let (Some(manual_src), Some(collab_src)) = (b.manual, b.collab) else {
            continue;
        };
        let seq = Harness::run_source(
            b.sequential,
            OmpRuntime::LibOmp,
            CompilerProfile::gcc(),
            b.check_globals,
        )
        .expect(b.name);
        let run = |src: &str| {
            let r = Harness::run_source(
                src,
                OmpRuntime::LibGomp,
                CompilerProfile::gcc(),
                b.check_globals,
            )
            .expect(b.name);
            assert_eq!(r.0, seq.0, "{}: fig9 semantics", b.name);
            seq.1 as f64 / r.1 as f64
        };
        let art = Harness::pipeline(&b).expect(b.name);
        let compiler_run = Harness::recompile_and_run(
            &art.splendid.source,
            OmpRuntime::LibGomp,
            CompilerProfile::gcc(),
            b.check_globals,
        )
        .expect(b.name);
        assert_eq!(compiler_run.0, seq.0, "{}: compiler semantics", b.name);
        rows.push(Fig9Row {
            benchmark: b.name.to_string(),
            manual: run(manual_src),
            compiler: seq.1 as f64 / compiler_run.1 as f64,
            collab: run(collab_src),
            loc_changed: b.collab_loc_changed,
        });
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.clone(),
                format!("{:.2}x", r.manual),
                format!("{:.2}x", r.compiler),
                format!("{:.2}x", r.collab),
                format!("+{}", r.loc_changed),
            ]
        })
        .collect();
    let text = render_table(
        &[
            "Benchmark",
            "ManualOnly",
            "CompilerOnly",
            "Compiler+Manual",
            "LoC",
        ],
        &table,
    );
    (rows, text)
}

/// Figure 1: the motivating example — jacobi-1d's hot loop through Rellic
/// and SPLENDID side by side.
pub fn fig1() -> String {
    let b = benchmarks()
        .into_iter()
        .find(|b| b.name == "jacobi-1d-imper")
        .unwrap();
    let art = Harness::pipeline(&b).unwrap();
    format!(
        "==== Rellic-like ====\n{}\n==== SPLENDID ====\n{}",
        art.rellic.source, art.splendid.source
    )
}

/// Figure 2: the MayAlias case study — runtime aliasing checks decompiled
/// into an if/else with pragmas.
pub fn fig2() -> String {
    let src = r#"
void may_alias(double* A, double* B, double* C) {
  int i;
  for (i = 0; i < 999; i++) {
    A[i+1] = M_PI * B[i] + exp(C[i]);
  }
}
void kernel() {
}
"#;
    let mut m = Harness::compile(src, OmpRuntime::LibOmp).unwrap();
    let opts = splendid_parallel::ParallelizeOptions::default();
    splendid_parallel::parallelize_module(&mut m, &opts);
    let out = decompile(&m, &SplendidOptions::default()).unwrap();
    out.source
}

/// Figure 3: preserved aggressive optimizations — unrolling and
/// distribution decompile naturally.
pub fn fig3() -> String {
    use splendid_transforms::{distribute, unroll};
    // Unrolling.
    let src_unroll = r#"
double A[1000];
double B[1000];
double C[1000];
void kernel() {
  int i;
  for (i = 0; i < 1000; i++) {
    A[i] = B[i] + C[i];
  }
}
"#;
    // Unroll on the un-simplified loop shape (separate body/latch), then
    // run the usual pipeline.
    let prog = splendid_cfront::parse_program(src_unroll).unwrap();
    let mut m =
        splendid_cfront::lower_program(&prog, "fig3", &splendid_cfront::LowerOptions::default())
            .unwrap();
    let kid = m.func_by_name("kernel").unwrap();
    splendid_transforms::mem2reg::promote_allocas(m.func_mut(kid));
    {
        let splendid_ir::Module {
            symbols, functions, ..
        } = &mut m;
        unroll::unroll_innermost(&mut functions[kid.index()], symbols, 4).unwrap();
    }
    splendid_transforms::optimize_module(&mut m, &splendid_transforms::O2Options::default());
    let unrolled = decompile(&m, &SplendidOptions::default()).unwrap();

    // Distribution.
    let src_dist = r#"
double A[100][100];
double B[100][100];
void kernel() {
  int i;
  int j;
  for (i = 0; i < 99; i++) {
    for (j = 0; j < 100; j++) {
      A[i][j] = (double)(i + j);
      B[i][j] = (double)(i * j);
    }
  }
}
"#;
    let prog = splendid_cfront::parse_program(src_dist).unwrap();
    let mut md =
        splendid_cfront::lower_program(&prog, "fig3b", &splendid_cfront::LowerOptions::default())
            .unwrap();
    let opts = splendid_transforms::O2Options {
        rotate_loops: false,
        licm: true,
    };
    splendid_transforms::optimize_module(&mut md, &opts);
    let kid = md.func_by_name("kernel").unwrap();
    {
        let splendid_ir::Module {
            symbols, functions, ..
        } = &mut md;
        distribute::distribute_outermost(&mut functions[kid.index()], symbols).unwrap();
    }
    let distributed = decompile(&md, &SplendidOptions::default()).unwrap();
    format!(
        "==== loop unrolling, decompiled ====\n{}\n==== loop distribution, decompiled ====\n{}",
        unrolled.source, distributed.source
    )
}

/// Figure 5: the worked variable-conflict example (Algorithms 1 and 2).
pub fn fig5() -> String {
    use splendid_ir::builder::FuncBuilder;
    use splendid_ir::{BinOp, Module, Type, Value};
    let mut m = Module::new("fig5");
    let var = m.intern_di_var("var", "f");
    let mut bld = FuncBuilder::new(&mut m, "f", &[("x", Type::I64)], Type::Void);
    let v1 = bld.bin(BinOp::Add, Type::I64, bld.arg(0), Value::i64(1), "");
    bld.dbg_value(v1, var);
    let _c = bld.bin(BinOp::Mul, Type::I64, v1, Value::i64(2), "");
    let v2 = bld.bin(BinOp::Add, Type::I64, bld.arg(0), Value::i64(2), "");
    bld.dbg_value(v2, var);
    let _f = bld.bin(BinOp::Mul, Type::I64, v1, Value::i64(3), "");
    let v3 = bld.bin(BinOp::Add, Type::I64, bld.arg(0), Value::i64(3), "");
    bld.dbg_value(v3, var);
    let _i = bld.bin(BinOp::Mul, Type::I64, v3, Value::i64(4), "");
    bld.ret(None);
    let fid = bld.finish();
    let naming = splendid_core::naming::assign_names(&m, fid);
    let mut out = String::new();
    out.push_str("IR-Variable map after conflict removal:\n");
    let mut entries: Vec<_> = naming.names.iter().collect();
    entries.sort_by_key(|(id, _)| id.0);
    for (id, (name, origin)) in entries {
        out.push_str(&format!("  %{} -> {} ({:?})\n", id.0, name, origin));
    }
    out
}

/// Figure 10/11: BLEU mechanics on the appendix examples.
pub fn fig10_11() -> String {
    let reference = r#"
for (i = 1; i < N - 1; i++)
  B[i] = (A[i-1] + A[i] + A[i+1]) / 3.0;
"#;
    let obfuscated = r#"
for (var0 = 1; var0 < N - 1; var0++)
  var1[var0] = (var2[var0-1] + var2[var0] + var2[var0+1]) / 3.0;
"#;
    let unnatural_cf = r#"
if (N - 1 > 0) {
  i = 1;
  do {
    B[i] = (A[i-1] + A[i] + A[i+1]) / 3.0;
    i += 1;
  } while (i < N - 1);
}
"#;
    let runtime_soup = r#"
__kmpc_fork_call(param1, param2, param3, 4, forked_function, param5, A, B, lb, ub);
void forked_function(long arg1, long arg2, double* A, double* B, long lb, long ub) {
  __kmpc_for_static_init_8(arg1, arg2, 33, lb, ub, 1, 1);
  for (i = lb; i < ub; i++)
    B[i] = (A[i-1] + A[i] + A[i+1]) / 3.0;
  __kmpc_for_static_fini(arg1, arg2);
}
"#;
    format!(
        "BLEU-4 against the reference loop (x100):\n\
         (identity)              {:6.2}\n\
         (a) obfuscated names    {:6.2}\n\
         (b) unnatural control   {:6.2}\n\
         (c) runtime soup        {:6.2}\n",
        100.0 * bleu4(reference, reference),
        100.0 * bleu4(obfuscated, reference),
        100.0 * bleu4(unnatural_cf, reference),
        100.0 * bleu4(runtime_soup, reference),
    )
}

/// A single benchmark's full pipeline demo (used by examples).
pub fn demo(bench_name: &str) -> Option<String> {
    let b: Benchmark = benchmarks().into_iter().find(|b| b.name == bench_name)?;
    let art = Harness::pipeline(&b).ok()?;
    Some(art.splendid.source)
}

/// DESIGN.md ablations: BLEU-4 averages with individual decompiler design
/// choices disabled (guard elimination, expression folding).
pub fn ablations() -> String {
    let mut full = 0.0;
    let mut no_guard = 0.0;
    let mut no_fold = 0.0;
    let mut n = 0.0;
    for b in benchmarks() {
        let (m, _) = Harness::polly(b.sequential).expect(b.name);
        let score = |opts: &SplendidOptions| {
            100.0 * bleu4(&decompile(&m, opts).expect(b.name).source, b.reference)
        };
        full += score(&SplendidOptions::default());
        no_guard += score(&SplendidOptions {
            guard_elimination: false,
            ..Default::default()
        });
        no_fold += score(&SplendidOptions {
            inline_expressions: false,
            ..Default::default()
        });
        n += 1.0;
    }
    format!(
        "average BLEU-4 (x100) across the 16 benchmarks:\n\
         full SPLENDID            {:6.2}\n\
         - guard elimination      {:6.2}\n\
         - expression folding     {:6.2}\n",
        full / n,
        no_guard / n,
        no_fold / n
    )
}
