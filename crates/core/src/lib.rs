#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! SPLENDID: a parallel-IR-to-C/OpenMP decompiler.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Figure 4's architecture). Given IR that has been optimized and
//! automatically parallelized (by `splendid-parallel`, standing in for
//! Polly over libomp), it produces portable, natural C with OpenMP pragmas:
//!
//! * [`analyzer`] — the **Parallel Semantic Analyzer**: finds
//!   `__kmpc_fork_call` sites and resolves their outlined regions;
//! * [`detransform`] — the **Parallel Region Detransformer** and **Loop
//!   Inliner**: recovers the parallelized loop between
//!   `__kmpc_for_static_init_8`/`__kmpc_for_static_fini`, restores the
//!   original loop parameters from the init call's operands, strips every
//!   parallelization-setup instruction, and inlines the region back into
//!   the sequential code (substituting fork-call arguments for region
//!   parameters — which also transfers debug-name information, §3.3);
//! * [`naming`] — the **Variable Proposer / Metadata Interpreter /
//!   Conflicting Definition Detection / Variable Generator** (Algorithms 1
//!   and 2): restores source variable names from `dbg` metadata, collapsing
//!   phi webs and rejecting lifetime-conflicting mappings;
//! * [`structure`] — **Natural Control-Flow Generation** including the
//!   **Loop-Rotate Detransformer**: rebuilds canonical `for` loops from
//!   rotated (guarded do-while) loops, proving guard checks redundant; plus
//!   expression reconstruction and statement emission;
//! * [`pragma`] — the **Pragma Generator**: maps runtime-call patterns to
//!   `#pragma omp parallel` / `omp for schedule(static) [nowait]`,
//!   minimizing clauses (private variables are declared inside the region);
//! * [`pipeline`] — ties everything together and exposes the three
//!   evaluation variants: `V1` (control flow only), `Portable` (+ explicit
//!   parallelism), and `Full` (+ variable renaming) — plus the fidelity
//!   ladder `Natural → Structured → Literal` for fault containment;
//! * [`error`] / [`fault`] / [`literal`] — the fault-containment layer:
//!   the workspace-wide [`error::SplendidError`] taxonomy, deterministic
//!   seeded fault injection ([`fault::FaultPlan`]), and the
//!   always-available statement-per-instruction emitter.

pub mod analyzer;
pub mod cmap;
pub mod detransform;
pub mod devectorize;
pub mod error;
pub mod fault;
pub mod fingerprint;
pub mod incremental;
pub mod literal;
pub mod naming;
pub mod pipeline;
pub mod pragma;
pub mod structure;

pub use error::{panic_message, Severity, SplendidError, Stage};
pub use fault::{FaultKind, FaultPlan, FaultSpec};
pub use fingerprint::{function_fingerprint, module_fingerprints};
pub use pipeline::{
    assemble_output, decompile, decompile_function, decompile_timed, prepare_module, print_unit,
    DecompileOutput, FidelityTier, FunctionOutput, NamingStats, PreparedModule, SplendidOptions,
    StageTimings, Variant,
};
