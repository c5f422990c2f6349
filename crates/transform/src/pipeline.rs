//! The pass pipeline (paper Section VI, Fig. 8a).
//!
//! The three passes are independent source-to-source stages and can be
//! composed in any order; the default order is thresholding → coarsening →
//! aggregation, for the reasons the paper gives:
//!
//! - thresholding before coarsening, because coarsening rewrites the grid
//!   dimension and would obscure the ceiling-division pattern;
//! - thresholding before aggregation, because small grids are easier to
//!   isolate before they are combined into larger ones;
//! - coarsening before aggregation, so the disaggregation logic lands
//!   outside the coarsening loop and is amortized across original blocks.

use crate::config::OptConfig;
use crate::manifest::TransformManifest;
use crate::{aggregation, coarsening, thresholding};
use dp_frontend::ast::Program;

/// Applies the configured passes in the paper's default order.
///
/// # Examples
///
/// ```
/// use dp_transform::{apply_pipeline, OptConfig};
/// let mut program = dp_frontend::parse(
///     "__global__ void c(int* d, int n) { if (blockIdx.x < n) { d[blockIdx.x] = n; } }\n\
///      __global__ void p(int* d, int n) { c<<<(n + 31) / 32, 32>>>(d, n); }",
/// ).unwrap();
/// let manifest = apply_pipeline(&mut program, &OptConfig::all());
/// assert_eq!(manifest.threshold_sites.len(), 1);
/// assert_eq!(manifest.coarsen_sites.len(), 1);
/// assert_eq!(manifest.agg_sites.len(), 1);
/// ```
pub fn apply_pipeline(program: &mut Program, config: &OptConfig) -> TransformManifest {
    let mut manifest = TransformManifest::new();
    if let Some(threshold) = config.threshold {
        manifest.merge(thresholding::apply(program, threshold));
    }
    if let Some(factor) = config.coarsen_factor {
        manifest.merge(coarsening::apply(program, factor));
    }
    if let Some(agg) = &config.aggregation {
        manifest.merge(aggregation::apply(program, agg));
    }
    manifest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AggConfig, AggGranularity};
    use dp_frontend::ast::Stmt;
    use dp_frontend::printer::print_program;
    use dp_frontend::visit::{for_each_stmt, for_each_stmt_expr};

    const BASIC: &str = "\
__global__ void child(int* data, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        data[i] = data[i] + 1;
    }
}

__global__ void parent(int* data, int* offsets, int numV) {
    int v = blockIdx.x * blockDim.x + threadIdx.x;
    if (v < numV) {
        int count = offsets[v + 1] - offsets[v];
        child<<<(count + 31) / 32, 32>>>(data, count);
    }
}
";

    #[test]
    fn full_pipeline_composes() {
        let mut p = dp_frontend::parse(BASIC).unwrap();
        let m = apply_pipeline(
            &mut p,
            &OptConfig::none()
                .threshold(64)
                .coarsen_factor(4)
                .aggregation(AggConfig::new(AggGranularity::MultiBlock(8))),
        );
        assert_eq!(m.threshold_sites.len(), 1);
        assert_eq!(m.coarsen_sites.len(), 1);
        assert_eq!(m.agg_sites.len(), 1);

        let out = print_program(&p);
        // Thresholding artifacts.
        assert!(out.contains("_THRESHOLD"), "{out}");
        assert!(out.contains("child_serial"), "{out}");
        // Coarsening artifacts.
        assert!(out.contains("_CFACTOR"), "{out}");
        assert!(out.contains("_c_bx"), "{out}");
        // Aggregation artifacts on the *coarsened* child.
        assert!(out.contains("child_agg"), "{out}");
        assert!(out.contains("_AGG_GRANULARITY"), "{out}");
        // The aggregated child carries the coarsening parameter array
        // (coarsened child has 3 params, so 3 argument arrays).
        let agg = p.function("child_agg").unwrap();
        assert_eq!(
            agg.params.len(),
            3 + 3, // 3 arg arrays + scan + bArr + np
        );
        dp_frontend::parse(&out).unwrap();
    }

    /// Every node a pass generates carries `Span::SYNTH`: only code the
    /// user wrote points into the source. With an early `return` in the
    /// child, the serial child, the coarsened child and the aggregated
    /// child are generated code all through.
    #[test]
    fn generated_code_carries_synthetic_spans() {
        let src = BASIC.replace(
            "    if (i < n) {\n        data[i] = data[i] + 1;\n    }\n",
            "    if (i >= n) {\n        return;\n    }\n    data[i] = i;\n",
        );
        let mut p = dp_frontend::parse(&src).unwrap();
        apply_pipeline(
            &mut p,
            &OptConfig::none()
                .threshold(64)
                .coarsen_factor(4)
                .aggregation(AggConfig::new(AggGranularity::MultiBlock(8))),
        );
        let synthetic = |stmts: &[Stmt]| {
            let mut all = true;
            for stmt in stmts {
                for_each_stmt(stmt, &mut |s| all &= s.span.is_synthetic());
                for_each_stmt_expr(stmt, &mut |e| all &= e.span.is_synthetic());
            }
            all
        };
        for name in [
            "child_serial",
            "child_serial_body",
            "_child_coarsen_body",
            "child_agg",
        ] {
            assert!(p.function(name).unwrap().span.is_synthetic(), "{name}");
        }
        for name in ["child_serial", "child", "child_agg"] {
            assert!(synthetic(&p.function(name).unwrap().body), "{name}");
        }
        // Hoisted participation variables, the user's two statements, then
        // the aggregation epilogue.
        let parent = &p.function("parent").unwrap().body;
        assert!(synthetic(&parent[..5]) && synthetic(&parent[7..]));
        assert!(!synthetic(&parent[5..7]));
    }

    #[test]
    fn pipeline_with_no_passes_is_identity() {
        let mut p = dp_frontend::parse(BASIC).unwrap();
        let before = print_program(&p);
        let m = apply_pipeline(&mut p, &OptConfig::none());
        assert_eq!(m, TransformManifest::new());
        assert_eq!(print_program(&p), before);
    }

    #[test]
    fn passes_commute_without_errors() {
        // The paper: "any combination of them could be applied in any order
        // while generating correct code." Apply C then T (reverse order) and
        // check both still fire.
        let mut p = dp_frontend::parse(BASIC).unwrap();
        let mc = coarsening::apply(&mut p, 4);
        assert_eq!(mc.coarsen_sites.len(), 1);
        let mt = thresholding::apply(&mut p, 64);
        assert_eq!(mt.threshold_sites.len(), 1, "diags: {:?}", mt.diagnostics);
        let out = print_program(&p);
        // The serial function now serializes the *coarsened* child.
        let serial = p.function("child_serial").unwrap();
        assert_eq!(serial.params.len(), 3 + 2); // coarsened params + dims
        dp_frontend::parse(&out).unwrap();
    }

    #[test]
    fn aggregation_after_thresholding_sees_guarded_launch() {
        let mut p = dp_frontend::parse(BASIC).unwrap();
        apply_pipeline(
            &mut p,
            &OptConfig::none()
                .threshold(64)
                .aggregation(AggConfig::new(AggGranularity::Block)),
        );
        let out = print_program(&p);
        // The launch inside the threshold's then-branch became
        // participation assignments.
        assert!(out.contains("_a_g0 = "), "{out}");
        // The serial path remains.
        assert!(out.contains("child_serial("), "{out}");
    }
}
