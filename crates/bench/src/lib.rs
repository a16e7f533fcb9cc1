//! Experiment implementations: one function per table/figure of the paper.
//!
//! Each function returns structured rows plus a pretty-printed table, so
//! the `experiments` binary, the integration tests, and EXPERIMENTS.md all
//! consume the same code path.

pub mod experiments;
pub mod tables;

pub use experiments::*;
