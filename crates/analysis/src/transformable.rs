//! Transformability analysis for the thresholding pass (paper Section III-C).
//!
//! A child kernel can be serialized in its parent thread only if it
//! (transitively) performs no barrier/warp synchronization and uses no
//! shared memory. Kernels that fail the check are left untouched and the
//! reason is reported as a [`Blocker`].

use crate::registry::reachable_functions;
use dp_frontend::ast::*;
use dp_frontend::visit::{for_each_stmt, for_each_stmt_expr};
use std::fmt;

/// Why a child kernel cannot be serialized by thresholding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Blocker {
    /// The kernel (or a device function it calls) uses a synchronization
    /// intrinsic such as `__syncthreads` or a warp-level primitive.
    SyncIntrinsic {
        /// The intrinsic name.
        intrinsic: Name,
        /// The function that contains the call.
        in_function: Name,
    },
    /// The kernel (or a device function it calls) declares `__shared__`
    /// memory.
    SharedMemory {
        /// The function that declares it.
        in_function: Name,
    },
    /// The kernel definition was not found in the translation unit.
    MissingDefinition {
        /// The missing kernel name.
        kernel: Name,
    },
}

impl fmt::Display for Blocker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Blocker::SyncIntrinsic {
                intrinsic,
                in_function,
            } => write!(f, "uses `{intrinsic}` in `{in_function}`"),
            Blocker::SharedMemory { in_function } => {
                write!(f, "declares __shared__ memory in `{in_function}`")
            }
            Blocker::MissingDefinition { kernel } => {
                write!(
                    f,
                    "kernel `{kernel}` is not defined in this translation unit"
                )
            }
        }
    }
}

/// Collects every reason `kernel` cannot be serialized (empty means
/// transformable).
///
/// The check is transitive through direct device-function calls, matching
/// the paper's restriction: serializing a kernel that synchronizes between
/// its threads (directly or in a callee) is rejected, as is one that uses
/// shared memory.
///
/// # Examples
///
/// ```
/// use dp_analysis::transformable::serialization_blockers;
/// let p = dp_frontend::parse(
///     "__global__ void c(int* d) { __syncthreads(); d[0] = 1; }").unwrap();
/// let blockers = serialization_blockers(&p, "c");
/// assert_eq!(blockers.len(), 1);
/// ```
pub fn serialization_blockers(program: &Program, kernel: &str) -> Vec<Blocker> {
    if program.function(kernel).is_none() {
        return vec![Blocker::MissingDefinition {
            kernel: Name::new(kernel),
        }];
    }
    let mut blockers = Vec::new();
    for func in reachable_functions(program, kernel) {
        for stmt in &func.body {
            for_each_stmt(stmt, &mut |s| {
                if let StmtKind::Decl(decl) = &s.kind {
                    if decl.shared {
                        let blocker = Blocker::SharedMemory {
                            in_function: func.name.clone(),
                        };
                        if !blockers.contains(&blocker) {
                            blockers.push(blocker);
                        }
                    }
                }
            });
            for_each_stmt_expr(stmt, &mut |e| {
                if let ExprKind::Call(name, _) = &e.kind {
                    if SYNC_INTRINSICS.contains(&name.as_str()) {
                        let blocker = Blocker::SyncIntrinsic {
                            intrinsic: name.clone(),
                            in_function: func.name.clone(),
                        };
                        if !blockers.contains(&blocker) {
                            blockers.push(blocker);
                        }
                    }
                }
            });
        }
    }
    blockers
}

/// `true` when [`serialization_blockers`] finds nothing.
pub fn is_serializable(program: &Program, kernel: &str) -> bool {
    serialization_blockers(program, kernel).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_frontend::parse;

    #[test]
    fn plain_kernel_is_serializable() {
        let p = parse(
            "__global__ void c(int* d, int n) { \
                 int i = blockIdx.x * blockDim.x + threadIdx.x; \
                 if (i < n) { d[i] = i; } }",
        )
        .unwrap();
        assert!(is_serializable(&p, "c"));
    }

    #[test]
    fn syncthreads_blocks() {
        let p = parse("__global__ void c(int* d) { __syncthreads(); }").unwrap();
        let b = serialization_blockers(&p, "c");
        assert_eq!(
            b,
            vec![Blocker::SyncIntrinsic {
                intrinsic: "__syncthreads".into(),
                in_function: "c".into()
            }]
        );
    }

    #[test]
    fn warp_primitives_block() {
        for intr in ["__syncwarp", "__shfl_down_sync", "__ballot_sync"] {
            let src = format!("__global__ void c(int* d) {{ int x = {intr}(); d[0] = x; }}");
            let p = parse(&src).unwrap();
            assert!(!is_serializable(&p, "c"), "{intr} should block");
        }
    }

    #[test]
    fn shared_memory_blocks() {
        let p = parse("__global__ void c(int* d) { __shared__ int tile[32]; d[0] = tile[0]; }")
            .unwrap();
        assert_eq!(
            serialization_blockers(&p, "c"),
            vec![Blocker::SharedMemory {
                in_function: "c".into()
            }]
        );
    }

    #[test]
    fn blocker_in_callee_is_transitive() {
        let p = parse(
            "__device__ void helper() { __syncthreads(); }\n\
             __global__ void c(int* d) { helper(); d[0] = 1; }",
        )
        .unwrap();
        let b = serialization_blockers(&p, "c");
        assert_eq!(b.len(), 1);
        assert!(
            matches!(&b[0], Blocker::SyncIntrinsic { in_function, .. } if in_function == "helper")
        );
    }

    #[test]
    fn missing_definition_is_reported() {
        let p = parse("__global__ void p(int n) { c<<<n, 32>>>(n); }").unwrap();
        assert_eq!(
            serialization_blockers(&p, "c"),
            vec![Blocker::MissingDefinition { kernel: "c".into() }]
        );
    }

    #[test]
    fn multiple_blockers_are_deduplicated() {
        let p = parse(
            "__global__ void c(int* d) { \
                 __syncthreads(); __syncthreads(); \
                 __shared__ int t[4]; d[0] = t[0]; }",
        )
        .unwrap();
        let b = serialization_blockers(&p, "c");
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn blocker_display_is_informative() {
        let b = Blocker::SyncIntrinsic {
            intrinsic: "__syncwarp".into(),
            in_function: "k".into(),
        };
        assert_eq!(b.to_string(), "uses `__syncwarp` in `k`");
    }
}
