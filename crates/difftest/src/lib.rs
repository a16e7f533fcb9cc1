//! Deterministic differential testing for the SPLENDID pipeline.
//!
//! Four pieces, zero external dependencies:
//!
//! - [`gen`]: a seeded program generator emitting well-typed C in the
//!   cfront subset — nested and downward loops, guarded control flow,
//!   multi-dimensional subscripts, scalar reductions, helper calls —
//!   in-bounds and NaN-free by construction.
//! - [`oracle`]: runs each program through every pipeline route (direct
//!   interpretation at `-O0` and `-O2`, the Polly-sim parallelizer, and
//!   decompile→recompile under both OpenMP runtimes) and fails on any
//!   checksum divergence, pipeline error, or unstable decompilation.
//! - [`mod@shrink`]: a delta-debugging minimizer that preserves the exact
//!   `(route, failure kind)` while cutting the program down.
//! - [`runner`]: the campaign driver behind `splendid difftest`, with a
//!   byte-deterministic report and corpus replay.
//! - [`faults`]: the seeded fault-injection campaign behind
//!   `splendid difftest --faults N`, proving every injected pipeline
//!   fault yields degraded-but-checksum-correct output.
//!
//! Everything is a pure function of the `(seed, case)` pair: no clocks,
//! no OS entropy, no filesystem state. Two runs of the same campaign
//! print identical bytes.

pub mod faults;
pub mod gen;
pub mod oracle;
pub mod prog;
pub mod runner;
pub mod shrink;

pub use faults::{run_fault_campaign, FaultCampaignConfig, FaultCampaignReport, FaultFailure};
pub use gen::{generate, GenConfig};
pub use oracle::{CaseFailure, CaseReport, Decompiler, FailureKind, InProcessDecompiler, Oracle};
pub use prog::TestProgram;
pub use runner::{
    parse_seed, replay_command, replay_corpus_source, run_difftest, validate_source,
    DifftestConfig, DifftestReport, ValidationReport,
};
pub use shrink::{shrink, ShrinkResult};
