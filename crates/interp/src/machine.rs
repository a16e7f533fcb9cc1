//! Machine and host-compiler cost models.

/// Per-instruction cycle costs attributed to a host compiler's code
/// generation. Two stock profiles simulate Clang and GCC; they differ
/// slightly in scalar float and loop-overhead costs, which is what makes
/// some benchmarks (e.g. `mvt` in the paper's Figure 6) favor one compiler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompilerProfile {
    /// Profile name (reported in experiment output).
    pub name: &'static str,
    /// Integer ALU op cost.
    pub int_cost: u64,
    /// Floating-point op cost.
    pub flop_cost: u64,
    /// Float division cost (div is much slower than mul everywhere).
    pub fdiv_cost: u64,
    /// Load/store cost.
    pub mem_cost: u64,
    /// Branch cost (loop backedge overhead).
    pub branch_cost: u64,
    /// Call overhead (user calls and math externals).
    pub call_cost: u64,
    /// Math-library function cost (exp, sqrt, ...).
    pub mathfn_cost: u64,
    /// Lane-wise SIMD ALU op cost (one issue covers all lanes).
    pub vec_op_cost: u64,
    /// Wide (vector) load/store cost.
    pub vec_mem_cost: u64,
    /// Cross-lane shuffle cost (splat/extract/insert/reduce).
    pub vec_shuffle_cost: u64,
}

impl CompilerProfile {
    /// A Clang-flavored profile.
    pub fn clang() -> CompilerProfile {
        CompilerProfile {
            name: "clang",
            int_cost: 1,
            flop_cost: 4,
            fdiv_cost: 20,
            mem_cost: 4,
            branch_cost: 2,
            call_cost: 20,
            mathfn_cost: 40,
            vec_op_cost: 4,
            vec_mem_cost: 5,
            vec_shuffle_cost: 2,
        }
    }

    /// A GCC-flavored profile: marginally cheaper loop overhead and scalar
    /// float ops (GCC's scalar codegen on the paper's Xeon), slightly more
    /// expensive calls.
    pub fn gcc() -> CompilerProfile {
        CompilerProfile {
            name: "gcc",
            int_cost: 1,
            flop_cost: 3,
            fdiv_cost: 22,
            mem_cost: 4,
            branch_cost: 1,
            call_cost: 24,
            mathfn_cost: 40,
            vec_op_cost: 4,
            vec_mem_cost: 6,
            vec_shuffle_cost: 3,
        }
    }
}

/// Shared-memory machine configuration, defaulting to the paper's testbed
/// shape: 28 cores, turbo off.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of cores a parallel region fans out to.
    pub cores: u32,
    /// Cycles charged per `fork_call` (thread pool wake + join).
    pub fork_overhead: u64,
    /// Cycles charged per barrier.
    pub barrier_overhead: u64,
    /// Cycles charged per static-init/fini runtime call.
    pub sched_overhead: u64,
    /// Aggregate memory bandwidth in bytes per cycle; caps parallel-region
    /// throughput (streaming kernels stop scaling here).
    pub mem_bandwidth: f64,
    /// Host-compiler profile.
    pub profile: CompilerProfile,
    /// Execution fuel: maximum number of interpreted instructions.
    pub fuel: u64,
}

impl MachineConfig {
    /// The paper's evaluation machine shape with a given profile.
    pub fn xeon_28core(profile: CompilerProfile) -> MachineConfig {
        MachineConfig {
            cores: 28,
            fork_overhead: 12_000,
            barrier_overhead: 2_000,
            sched_overhead: 200,
            mem_bandwidth: 24.0,
            profile,
            fuel: 5_000_000_000,
        }
    }

    /// Single-core variant (used for sequential baselines).
    pub fn single_core(profile: CompilerProfile) -> MachineConfig {
        MachineConfig {
            cores: 1,
            ..MachineConfig::xeon_28core(profile)
        }
    }
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig::xeon_28core(CompilerProfile::clang())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_differ_where_expected() {
        let c = CompilerProfile::clang();
        let g = CompilerProfile::gcc();
        assert_ne!(c, g);
        assert!(g.branch_cost < c.branch_cost);
        assert!(g.flop_cost < c.flop_cost);
    }

    #[test]
    fn default_machine_matches_paper_shape() {
        let m = MachineConfig::default();
        assert_eq!(m.cores, 28);
        assert!(m.fork_overhead > 0);
    }

    #[test]
    fn single_core() {
        let m = MachineConfig::single_core(CompilerProfile::gcc());
        assert_eq!(m.cores, 1);
        assert_eq!(m.profile.name, "gcc");
    }
}
