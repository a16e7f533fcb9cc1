//! The interpreter's observable behaviour, pinned: cycle counts,
//! instruction counts and checksum bits of every PolyBench kernel on the
//! three routes the evaluation runs, and the exact text of every
//! execution error path.
//!
//! The Fig. 6 cost model, difftest's stdout and the validator's verdicts
//! are all read off these numbers and strings, so a change to how the
//! interpreter executes must leave every one of them as it is.

use splendid_cfront::OmpRuntime;
use splendid_interp::{CompilerProfile, MachineConfig, RtVal, Vm};
use splendid_ir::Module;
use splendid_polybench::{benchmarks, Benchmark, Harness};

/// `(cycles, instructions executed, bits of Σ checksum_global)` after
/// `init` and `kernel`.
type Observed = (u64, u64, u64);

fn observe(module: &Module, config: MachineConfig, b: &Benchmark) -> Observed {
    let mut vm = Vm::new(module, config);
    vm.call_by_name("init", &[]).unwrap();
    vm.call_by_name("kernel", &[]).unwrap();
    let sum: f64 = b
        .check_globals
        .iter()
        .map(|g| vm.checksum_global(g).unwrap())
        .sum();
    (vm.cycles(), vm.insts_executed(), sum.to_bits())
}

/// Per kernel: the parallel module under the default machine, then the
/// decompiled C recompiled under each OpenMP runtime with the GCC
/// profile (the routes of `end_to_end::full_roundtrip_*`).
const PINS: [(&str, [Observed; 3]); 16] = [
    (
        "2mm",
        [
            (472410, 2892849, 4730063326258764183),
            (445995, 2892849, 4730063326258764183),
            (445995, 2892793, 4730063326258764183),
        ],
    ),
    (
        "3mm",
        [
            (432987, 2403281, 4734656943486861312),
            (395611, 2403281, 4734656943486861312),
            (395011, 2403197, 4734656943486861312),
        ],
    ),
    (
        "adi",
        [
            (452894, 1010250, 4693401930342858244),
            (426154, 1010250, 4693401930342858244),
            (425354, 1010138, 4693401930342858244),
        ],
    ),
    (
        "atax",
        [
            (698241, 507642, 4715068285092265984),
            (625519, 507642, 4715068285092265984),
            (625519, 507614, 4715068285092265984),
        ],
    ),
    (
        "bicg",
        [
            (1044124, 450362, 4676082035054346240),
            (942602, 450362, 4676082035054346240),
            (942602, 450362, 4676082035054346240),
        ],
    ),
    (
        "doitgen",
        [
            (744990, 4385554, 4695298082198257664),
            (714940, 4385554, 4695298082198257664),
            (714940, 4385498, 4695298082198257664),
        ],
    ),
    (
        "fdtd-2d",
        [
            (572252, 1516870, 4686083988852143921),
            (534102, 1516870, 4686083988852143921),
            (533986, 1516534, 4686083988852143921),
        ],
    ),
    (
        "floyd-warshall",
        [
            (6506184, 2713431, 4688865996620955648),
            (5612048, 2713431, 4688865996620955648),
            (5612048, 2713431, 4688865996620955648),
        ],
    ),
    (
        "gemm",
        [
            (279989, 1526057, 4698766878792535249),
            (255782, 1526057, 4698766878792535249),
            (255782, 1526029, 4698766878792535249),
        ],
    ),
    (
        "gemver",
        [
            (806058, 773723, 4696908047379733875),
            (712975, 773723, 4696908047379733875),
            (712775, 773667, 4696908047379733875),
        ],
    ),
    (
        "gesummv",
        [
            (513839, 565961, 4673796794021314560),
            (470278, 565961, 4673796794021314560),
            (470278, 565933, 4673796794021314560),
        ],
    ),
    (
        "jacobi-1d-imper",
        [
            (322152, 325412, 4684713320212840651),
            (305712, 325412, 4684713320212840651),
            (304512, 325244, 4684713320212840651),
        ],
    ),
    (
        "jacobi-2d-imper",
        [
            (453788, 1338458, 4690184746441775885),
            (424138, 1338458, 4690184746441775885),
            (423338, 1338234, 4690184746441775885),
        ],
    ),
    (
        "mvt",
        [
            (343036, 524481, 4680148969785917440),
            (313515, 524481, 4680148969785917440),
            (313515, 524425, 4680148969785917440),
        ],
    ),
    (
        "syr2k",
        [
            (381413, 2300249, 4700735550013413768),
            (339551, 2300249, 4700735550013413768),
            (339351, 2300221, 4700735550013413768),
        ],
    ),
    (
        "syrk",
        [
            (250037, 1509929, 4693551901799192990),
            (228134, 1509929, 4693551901799192990),
            (228134, 1509901, 4693551901799192990),
        ],
    ),
];

#[test]
fn polybench_cycles_instructions_and_checksums_are_pinned() {
    let mut observed = Vec::new();
    for b in benchmarks() {
        let art = Harness::pipeline(&b).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let mut routes = vec![observe(&art.parallel_module, MachineConfig::default(), &b)];
        for rt in [OmpRuntime::LibOmp, OmpRuntime::LibGomp] {
            let m = Harness::compile(&art.splendid.source, rt).unwrap();
            let gcc = MachineConfig::xeon_28core(CompilerProfile::gcc());
            routes.push(observe(&m, gcc, &b));
        }
        observed.push((b.name, routes));
    }
    let table: String = observed
        .iter()
        .map(|(n, r)| format!("    (\"{n}\", {r:?}),\n"))
        .collect();
    assert_eq!(observed.len(), PINS.len(), "observed:\n{table}");
    for ((name, routes), (pin_name, pins)) in observed.iter().zip(PINS) {
        assert_eq!(*name, pin_name);
        assert_eq!(routes[..], pins[..], "{name}; observed:\n{table}");
    }
}

fn run_ir(text: &str, fuel: u64) -> (String, u64, u64) {
    let m = splendid_ir::parser::parse_module(text).unwrap();
    let config = MachineConfig {
        fuel,
        cores: 2,
        ..MachineConfig::default()
    };
    let mut vm = Vm::new(&m, config);
    let e = vm.call_by_name("f", &[RtVal::F64(1.5)]).unwrap_err();
    (e.0, vm.cycles(), vm.insts_executed())
}

/// `(IR of @f($0 f64), exact error text, cycles, instructions)`; the
/// counts are those at the moment the error stopped the run.
const ERRORS: &[(&str, &str, u64, u64)] = &[
    // fuel exhausted
    (
        r#"module "fuel_exhausted"

func @f($0:x f64) -> void {
bb0 entry:
  br bb1
bb1 spin:
  br bb1
}
"#,
        "fuel exhausted",
        102,
        51,
    ),
    // out of bounds past the last global
    (
        r#"module "out_of_bounds_past_the_last_global"

global @A : [4 x f64] = zero

func @f($0:x f64) -> f64 {
bb0 entry:
  %0 = gep [4 x f64], @A, i64 0, i64 9
  %1 = load f64, %0
  ret %1
}
"#,
        "out-of-bounds access at 0x801048 (+8)",
        5,
        2,
    ),
    // out of bounds below 8
    (
        r#"module "out_of_bounds_below_8"

func @f($0:x f64) -> void {
bb0 entry:
  store $0, undef ptr
  ret void
}
"#,
        "out-of-bounds access at 0x0 (+8)",
        4,
        1,
    ),
    // stack overflow
    (
        r#"module "stack_overflow"

func @f($0:x f64) -> void {
bb0 entry:
  %0 = alloca [2000000 x f64]
  ret void
}
"#,
        "stack overflow",
        0,
        0,
    ),
    // use of unset value
    (
        r#"module "use_of_unset_value"

func @f($0:x f64) -> f64 {
bb0 entry:
  br bb2
bb1 dead:
  %0 = fadd f64 $0, f64 1.0
  br bb2
bb2 join:
  %1 = fadd f64 %0, f64 1.0
  ret %1
}
"#,
        "use of unset value v1",
        2,
        1,
    ),
    // argument out of range
    (
        r#"module "argument_out_of_range"

func @f($0:x f64) -> f64 {
bb0 entry:
  %0 = fadd f64 $3, f64 1.0
  ret %0
}
"#,
        "argument $3 out of range",
        0,
        0,
    ),
    // phi with no incoming edge
    (
        r#"module "phi_with_no_incoming_edge"

func @f($0:x f64) -> f64 {
bb0 entry:
  br bb2
bb1 other:
  br bb2
bb2 join:
  %0 = phi f64 [bb1: $0]
  ret %0
}
"#,
        "phi v2 missing incoming for bb0",
        2,
        1,
    ),
    // phi in the entry block
    (
        r#"module "phi_in_the_entry_block"

func @f($0:x f64) -> f64 {
bb0 entry:
  %0 = phi f64 [bb0: $0]
  ret %0
}
"#,
        "phi in entry block has no predecessor",
        0,
        0,
    ),
    // block fell through
    (
        r#"module "block_fell_through"

func @f($0:x f64) -> f64 {
bb0 entry:
  %0 = fadd f64 $0, f64 1.0
}
"#,
        "block bb0 fell through",
        4,
        1,
    ),
    // unreachable
    (
        r#"module "unreachable"

func @f($0:x f64) -> void {
bb0 entry:
  unreachable
}
"#,
        "reached unreachable",
        0,
        0,
    ),
    // unknown external
    (
        r#"module "unknown_external"

func @f($0:x f64) -> void {
bb0 entry:
  call void ext "nosuch"($0)
  ret void
}
"#,
        "call to unknown external 'nosuch'",
        0,
        0,
    ),
    // pow arity
    (
        r#"module "pow_arity"

func @f($0:x f64) -> f64 {
bb0 entry:
  %0 = call f64 ext "pow"($0)
  ret %0
}
"#,
        "pow needs two arguments, got 1",
        0,
        0,
    ),
    // math function without an argument
    (
        r#"module "math_function_without_an_argument"

func @f($0:x f64) -> f64 {
bb0 entry:
  %0 = call f64 ext "exp"()
  ret %0
}
"#,
        "exp needs an argument",
        0,
        0,
    ),
    // nested parallel regions
    (
        r#"module "nested_parallel_regions"

func @inner($0:tid i64) -> void {
bb0 entry:
  ret void
}

func @outer($0:tid i64) -> void {
bb0 entry:
  call void ext "__kmpc_fork_call"(@inner)
  ret void
}

func @f($0:x f64) -> void {
bb0 entry:
  call void ext "GOMP_parallel"(@outer)
  ret void
}
"#,
        "nested parallel regions are not supported",
        0,
        0,
    ),
    // fork without a region
    (
        r#"module "fork_without_a_region"

func @f($0:x f64) -> void {
bb0 entry:
  call void ext "__kmpc_fork_call"(i64 0)
  ret void
}
"#,
        "fork call must take a function as first operand",
        0,
        0,
    ),
    // static-init arity
    (
        r#"module "static_init_arity"

func @f($0:x f64) -> void {
bb0 entry:
  call void ext "__kmpc_for_static_init_8"(i64 0)
  ret void
}
"#,
        "static init expects 7 operands, got 1",
        0,
        0,
    ),
    // static-init step
    (
        r#"module "static_init_step"

func @f($0:x f64) -> void {
bb0 entry:
  %0 = alloca [2 x i64]
  call void ext "GOMP_loop_static_bounds"(i64 0, %0, %0, i64 0, i64 1, i64 0, i64 9)
  ret void
}
"#,
        "static init requires a positive step",
        1,
        1,
    ),
    // call arity
    (
        r#"module "call_arity"

func @g($0:y f64) -> void {
bb0 entry:
  ret void
}

func @f($0:x f64) -> void {
bb0 entry:
  call void @g()
  ret void
}
"#,
        "call to @g with 0 args, expected 1",
        20,
        1,
    ),
    // store type mismatch
    (
        r#"module "store_type_mismatch"

func @f($0:x f64) -> void {
bb0 entry:
  %0 = alloca i64
  %1 = cast bitcast $0 to i64
  store %1, %0
  ret void
}
"#,
        "store type mismatch: i64 vs F64(1.5)",
        6,
        3,
    ),
    // scalar cast of the wrong kind
    (
        r#"module "scalar_cast_of_the_wrong_kind"

func @f($0:x f64) -> i64 {
bb0 entry:
  %0 = cast trunc $0 to i64
  ret %0
}
"#,
        "expected int, got F64(1.5)",
        1,
        1,
    ),
    // division by zero
    (
        r#"module "division_by_zero"

func @f($0:x f64) -> i64 {
bb0 entry:
  %0 = sdiv i64 i64 7, i64 0
  ret %0
}
"#,
        "division by zero",
        0,
        0,
    ),
    // lane out of range
    (
        r#"module "lane_out_of_range"

func @f($0:x f64) -> f64 {
bb0 entry:
  %0 = splat v2f64 $0
  %1 = extractlane f64 %0, 5
  ret %1
}
"#,
        "lane 5 out of range",
        2,
        1,
    ),
    // insert lane out of range
    (
        r#"module "insert_lane_out_of_range"

func @f($0:x f64) -> void {
bb0 entry:
  %0 = splat v2f64 $0
  %1 = insertlane v2f64 %0, $0, 2
  ret void
}
"#,
        "lane 2 out of range",
        2,
        1,
    ),
    // splat to non-vector
    (
        r#"module "splat_to_non_vector"

func @f($0:x f64) -> f64 {
bb0 entry:
  %0 = splat f64 $0
  ret %0
}
"#,
        "splat to non-vector",
        0,
        0,
    ),
    // float opcode on an int vector
    (
        r#"module "float_opcode_on_an_int_vector"

func @f($0:x f64) -> void {
bb0 entry:
  %0 = splat v2i64 i64 1
  %1 = fadd v2i64 %0, %0
  ret void
}
"#,
        "float opcode fadd on int vector",
        2,
        1,
    ),
    // unsupported vector cast
    (
        r#"module "unsupported_vector_cast"

func @f($0:x f64) -> void {
bb0 entry:
  %0 = splat v2i64 i64 1
  %1 = cast trunc %0 to v2i64
  ret void
}
"#,
        "unsupported vector cast trunc",
        2,
        1,
    ),
];

#[test]
fn every_execution_error_keeps_its_text() {
    let mut observed = String::new();
    let mut ok = true;
    for (ir, text, cycles, insts) in ERRORS {
        let got = run_ir(ir, 50);
        observed.push_str(&format!("{got:?}\n"));
        ok &= got == (text.to_string(), *cycles, *insts);
    }
    assert!(ok, "observed:\n{observed}");
}
