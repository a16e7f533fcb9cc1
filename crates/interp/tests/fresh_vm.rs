//! A fresh VM costs its globals plus the stack it actually uses, not the
//! whole 8 MiB stack region, while the region's limits stay where they
//! were: recursion still overflows at the same depth, and untouched stack
//! memory still reads as zero.
//!
//! The test lives in its own integration-test binary so the counting
//! `#[global_allocator]` sees only this binary's allocations; each test
//! holds `SERIAL` so no other test allocates while one is measuring.

use splendid_cfront::{lower_program, parse_program, LowerOptions};
use splendid_interp::{MachineConfig, RtVal, Vm};
use splendid_ir::parser::parse_module;
use splendid_ir::Module;
use splendid_parallel::{parallelize_module, ParallelizeOptions};
use splendid_transforms::{optimize_module, O2Options};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// System allocator that adds up every requested size. `realloc` and
/// `alloc_zeroed` default to `alloc`, so they count too.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);
static SERIAL: Mutex<()> = Mutex::new(());

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// PolyBench's jacobi-1d-imper, through the pipeline the evaluation
/// runs: cfront, -O2, then the Polly-style parallelizer on `kernel`.
const JACOBI_1D: &str = r#"
#define N 2000
#define TSTEPS 6
double A[2000];
double B[2000];

void init() {
  int i;
  for (i = 0; i < N; i++) {
    A[i] = (i % 17 + 2) * 0.25;
    B[i] = 0.0;
  }
}

void kernel() {
  int t;
  int i;
  for (t = 0; t < TSTEPS; t++) {
    for (i = 1; i < N - 1; i++) {
      B[i] = (A[i-1] + A[i] + A[i+1]) / 3.0;
    }
    for (i = 1; i < N - 1; i++) {
      A[i] = B[i];
    }
  }
}
"#;

fn jacobi_1d() -> Module {
    let prog = parse_program(JACOBI_1D).unwrap();
    let mut m = lower_program(&prog, "bench", &LowerOptions::default()).unwrap();
    optimize_module(&mut m, &O2Options::default());
    let opts = ParallelizeOptions {
        version_aliasing: true,
        min_work: 20_000,
        only_functions: vec!["kernel".into()],
    };
    assert_eq!(parallelize_module(&mut m, &opts).parallelized_count(), 1);
    m
}

#[test]
fn a_fresh_vm_allocates_its_globals_not_the_stack_region() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let m = jacobi_1d();
    ALLOCATED.store(0, Ordering::Relaxed);
    let mut vm = Vm::new(&m, MachineConfig::default());
    vm.call_by_name("kernel", &[]).unwrap();
    let allocated = ALLOCATED.load(Ordering::Relaxed);
    // Two 16 KB globals, a few hundred bytes of stack, the lowered code.
    assert!(allocated < 256 << 10, "allocated {allocated} bytes");
    assert!(vm.insts_executed() > 100_000);
}

/// `@rec` takes 64 KiB of stack per level and counts its depth in `@D`.
const RECURSION: &str = r#"module "rec"
global @D : f64 = zero

func @rec() -> void {
bb0 entry:
  %0 = alloca [8192 x f64]
  %1 = load f64, @D
  %2 = fadd f64 %1, f64 1.0
  store %2, @D
  call void @rec()
  ret void
}
"#;

#[test]
fn recursion_overflows_the_stack_at_the_same_depth() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let m = parse_module(RECURSION).unwrap();
    // IR calls run on the VM's own frame stack, so the test thread's
    // native stack does not grow with the depth.
    let mut vm = Vm::new(&m, MachineConfig::default());
    let e = vm.call_by_name("rec", &[]).unwrap_err();
    let depth = vm.read_global_f64("D", 0).unwrap();
    let (cycles, insts) = (vm.cycles(), vm.insts_executed());
    assert_eq!(e.0, "stack overflow");
    // 0x1000 + 128 * 64 KiB is the first address past the region.
    assert_eq!(depth, 127.0);
    assert_eq!((cycles, insts), (4191, 635));
}

/// `@top` reads the last word of the stack region, `@poke` writes it,
/// and `@straddle` reads the word whose low half is the region's last
/// four bytes and whose high half the first global's first four.
const STACK_TOP: &str = r#"module "top"
global @G : [2 x f64] = splat 1.1

func @top() -> f64 {
bb0 entry:
  %0 = gep f64, undef ptr, i64 1049087
  %1 = load f64, %0
  ret %1
}

func @poke($0:x f64) -> void {
bb0 entry:
  %0 = gep f64, undef ptr, i64 1049087
  store $0, %0
  ret void
}

func @straddle() -> i64 {
bb0 entry:
  %0 = gep i32, undef ptr, i64 2098175
  %1 = load i64, %0
  ret %1
}
"#;

#[test]
fn untouched_stack_memory_reads_zero() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let m = parse_module(STACK_TOP).unwrap();
    let mut vm = Vm::new(&m, MachineConfig::default());
    assert_eq!(vm.call_by_name("top", &[]).unwrap(), Some(RtVal::F64(0.0)));
    assert_eq!(
        vm.call_by_name("straddle", &[]).unwrap(),
        Some(RtVal::Int((1.1f64.to_bits() as i64) << 32))
    );
    vm.call_by_name("poke", &[RtVal::F64(-1.0)]).unwrap();
    assert_eq!(vm.call_by_name("top", &[]).unwrap(), Some(RtVal::F64(-1.0)));
}
