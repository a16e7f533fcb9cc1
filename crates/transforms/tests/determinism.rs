//! Same input, same bytes: compiling a PolyBench kernel (cfront → -O2 →
//! Polly-sim) twice in one process must print identical IR. Every std
//! `HashSet` draws its own random hash keys, so a pass whose output
//! follows set iteration order fails here, not only across processes.

use splendid_ir::printer::module_str;
use splendid_polybench::{benchmarks, Harness};

#[test]
fn polybench_ir_is_identical_across_compiles() {
    for b in benchmarks() {
        let print = || module_str(&Harness::polly(b.sequential).unwrap().0);
        assert_eq!(print(), print(), "{}: IR differs between compiles", b.name);
    }
}
