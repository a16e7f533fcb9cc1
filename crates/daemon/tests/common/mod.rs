//! Helpers shared by the daemon's socket-level test suites.

use splendid_cfront::{lower_program, parse_program, LowerOptions};
use splendid_daemon::{Daemon, DaemonClient};
use splendid_ir::Module;
use splendid_parallel::{parallelize_module, ParallelizeOptions};
use splendid_transforms::{optimize_module, O2Options};
use std::time::Duration;

/// A small parallelized module with one kernel per constant; editing one
/// constant dirties exactly one prepared function.
pub fn test_module(consts: &[f64]) -> Module {
    let mut src = String::new();
    for (i, c) in consts.iter().enumerate() {
        src.push_str(&format!("double A{i}[64];\ndouble B{i}[64];\n"));
        src.push_str(&format!(
            "void kernel{i}() {{ int j; for (j = 1; j < 63; j++) {{ \
             B{i}[j] = (A{i}[j-1] + A{i}[j+1]) * {c:?}; }} }}\n"
        ));
    }
    let prog = parse_program(&src).unwrap();
    let mut m = lower_program(&prog, "itest", &LowerOptions::default()).unwrap();
    optimize_module(&mut m, &O2Options::default());
    parallelize_module(&mut m, &ParallelizeOptions::default());
    m
}

/// [`test_module`] as textual IR.
pub fn module_text(consts: &[f64]) -> String {
    splendid_ir::printer::module_str(&test_module(consts))
}

/// A TCP client of `daemon` with a generous read timeout.
pub fn connect(daemon: &Daemon) -> DaemonClient {
    let client = DaemonClient::connect_tcp(daemon.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    client
}
