//! Synthetic inputs shared with perfbench and the daemon's tests: a
//! module of independent stencil kernels, one per constant, built
//! through the in-tree pipeline so its IR looks like a real workload's.

use splendid_ir::printer::module_str;

/// Build the textual IR of a synthetic module with one stencil kernel
/// per constant, through the in-tree pipeline (cfront → O2 →
/// auto-parallelize → print). Each kernel works its own global arrays,
/// so editing one constant dirties exactly one function.
pub fn synthetic_module(consts: &[f64]) -> Result<String, String> {
    synthetic_module_tagged("", consts)
}

/// [`synthetic_module`] with `tag` (a C-identifier fragment) spliced
/// into every global and kernel name. Tagged modules have *distinct
/// module contexts*, so no two tags ever share a function cache key,
/// where untagged ones all share one context fingerprint (globals and
/// debug vars are the context; constants are not): load from many
/// clients at once then misses the cache as separate programs would.
pub fn synthetic_module_tagged(tag: &str, consts: &[f64]) -> Result<String, String> {
    use splendid_cfront::{lower_program, parse_program, LowerOptions};
    use splendid_parallel::{parallelize_module, ParallelizeOptions};
    use splendid_transforms::{optimize_module, O2Options};

    let mut src = String::new();
    for (i, c) in consts.iter().enumerate() {
        // Shadow the index with its tagged form: `i` below only ever
        // appears inside identifiers.
        let i = format!("{tag}{i}");
        // PolyBench-weight kernels (gemm plus a 5-point stencil sweep):
        // enough loop nests and statements that decompiling one function
        // dominates the fixed per-request costs, as real modules do.
        // Decompile cost tracks IR size (statements and loop nests, not
        // trip counts), so weight comes from the number of nests: three
        // gemm-style triple nests plus two 5-point stencil sweeps per
        // kernel, about the shape of a mid-sized PolyBench kernel.
        src.push_str(&format!(
            "double A{i}[40][40];\ndouble B{i}[40][40];\ndouble C{i}[40][40];\n\
             double D{i}[40][40];\ndouble E{i}[40][40];\n"
        ));
        src.push_str(&format!(
            "void kernel{i}() {{\n  int r;\n  int c;\n  int k;\n  \
             for (r = 0; r < 40; r++) {{\n    for (c = 0; c < 40; c++) {{\n      \
             C{i}[r][c] = C{i}[r][c] * 0.75;\n      \
             for (k = 0; k < 40; k++) {{\n        \
             C{i}[r][c] = C{i}[r][c] + {c:?} * A{i}[r][k] * B{i}[k][c];\n      }}\n    }}\n  }}\n  \
             for (r = 0; r < 40; r++) {{\n    for (c = 0; c < 40; c++) {{\n      \
             D{i}[r][c] = D{i}[r][c] * 0.5;\n      \
             for (k = 0; k < 40; k++) {{\n        \
             D{i}[r][c] = D{i}[r][c] + {c:?} * B{i}[r][k] * C{i}[k][c];\n      }}\n    }}\n  }}\n  \
             for (r = 0; r < 40; r++) {{\n    for (c = 0; c < 40; c++) {{\n      \
             E{i}[r][c] = E{i}[r][c] * 0.25;\n      \
             for (k = 0; k < 40; k++) {{\n        \
             E{i}[r][c] = E{i}[r][c] + {c:?} * C{i}[r][k] * D{i}[k][c];\n      }}\n    }}\n  }}\n  \
             for (r = 1; r < 39; r++) {{\n    for (c = 1; c < 39; c++) {{\n      \
             A{i}[r][c] = (B{i}[r-1][c] + B{i}[r+1][c] + B{i}[r][c-1] + B{i}[r][c+1]) * {c:?};\n    \
             }}\n  }}\n  \
             for (r = 1; r < 39; r++) {{\n    for (c = 1; c < 39; c++) {{\n      \
             B{i}[r][c] = (E{i}[r-1][c] + E{i}[r+1][c] + E{i}[r][c-1] + E{i}[r][c+1]) * {c:?};\n    \
             }}\n  }}\n}}\n"
        ));
    }
    let prog = parse_program(&src).map_err(|e| e.to_string())?;
    let mut m =
        lower_program(&prog, "bench", &LowerOptions::default()).map_err(|e| e.to_string())?;
    optimize_module(&mut m, &O2Options::default());
    parallelize_module(&mut m, &ParallelizeOptions::default());
    Ok(module_str(&m))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_module_has_requested_function_count() {
        let text = synthetic_module(&[0.5, 1.5]).unwrap();
        let m = splendid_ir::parser::parse_module(&text).unwrap();
        // Kernels plus their outlined parallel-region functions; the
        // latter are inlined away by prepare_module.
        let kernels = m.functions.iter().filter(|f| !f.is_outlined).count();
        assert_eq!(kernels, 2);
    }
}
