//! Kernel registry, launch-site discovery, and the device call graph.

use dp_frontend::ast::*;
use dp_frontend::visit::{for_each_stmt, for_each_stmt_expr};
use std::collections::{HashMap, HashSet};

/// A dynamic-parallelism launch site found in a function body.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchSite {
    /// Function containing the launch.
    pub parent: Name,
    /// Kernel being launched.
    pub kernel: Name,
    /// Whether the parent is itself a `__global__` kernel (a *dynamic*
    /// launch) as opposed to a host-side launch.
    pub from_device: bool,
    /// Source span of the launch statement.
    pub span: dp_frontend::Span,
}

/// Finds every launch statement in the program.
///
/// # Examples
///
/// ```
/// use dp_analysis::registry::launch_sites;
/// let p = dp_frontend::parse(
///     "__global__ void c(int n) { }\n\
///      __global__ void p(int n) { c<<<n, 32>>>(n); }").unwrap();
/// let sites = launch_sites(&p);
/// assert_eq!(sites.len(), 1);
/// assert!(sites[0].from_device);
/// assert_eq!(sites[0].kernel, "c");
/// ```
pub fn launch_sites(program: &Program) -> Vec<LaunchSite> {
    let mut sites = Vec::new();
    for func in program.functions() {
        for stmt in &func.body {
            for_each_stmt(stmt, &mut |s| {
                if let StmtKind::Launch(launch) = &s.kind {
                    sites.push(LaunchSite {
                        parent: func.name.clone(),
                        kernel: launch.kernel.clone(),
                        from_device: func.qual == FnQual::Global || func.qual == FnQual::Device,
                        span: s.span,
                    });
                }
            });
        }
    }
    sites
}

/// Returns the set of function names `func` calls directly (plain calls,
/// not launches), restricted to functions defined in the program.
pub fn direct_callees(program: &Program, func: &Function) -> HashSet<Name> {
    let defined: HashSet<&str> = program.functions().map(|f| f.name.as_str()).collect();
    let mut callees = HashSet::new();
    for stmt in &func.body {
        for_each_stmt_expr(stmt, &mut |e| {
            if let ExprKind::Call(name, _) = &e.kind {
                if defined.contains(name.as_str()) {
                    callees.insert(name.clone());
                }
            }
        });
    }
    callees
}

/// The call graph over functions defined in the program (direct calls only;
/// launches are not edges).
pub fn call_graph(program: &Program) -> HashMap<Name, HashSet<Name>> {
    program
        .functions()
        .map(|f| (f.name.clone(), direct_callees(program, f)))
        .collect()
}

/// All functions transitively reachable from `root` through direct calls,
/// including `root` itself.
pub fn reachable_functions<'p>(program: &'p Program, root: &str) -> Vec<&'p Function> {
    let graph = call_graph(program);
    let mut seen = HashSet::new();
    let mut stack = vec![Name::new(root)];
    let mut result = Vec::new();
    while let Some(name) = stack.pop() {
        if !seen.insert(name.clone()) {
            continue;
        }
        if let Some(func) = program.function(&name) {
            result.push(func);
            if let Some(callees) = graph.get(&name) {
                stack.extend(callees.iter().cloned());
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_frontend::parse;

    const SRC: &str = "\
__device__ int helper(int x) { return x + 1; }
__device__ int chain(int x) { return helper(x); }
__global__ void child(int* d, int n) { d[0] = chain(n); }
__global__ void parent(int* d, int n) {
    child<<<n, 32>>>(d, n);
}
void host_main(int* d, int n) {
    parent<<<1, 1>>>(d, n);
}
";

    #[test]
    fn finds_device_and_host_launches() {
        let p = parse(SRC).unwrap();
        let sites = launch_sites(&p);
        assert_eq!(sites.len(), 2);
        let device = sites.iter().find(|s| s.parent == "parent").unwrap();
        assert!(device.from_device);
        assert_eq!(device.kernel, "child");
        let host = sites.iter().find(|s| s.parent == "host_main").unwrap();
        assert!(!host.from_device);
    }

    #[test]
    fn call_graph_has_direct_edges_only() {
        let p = parse(SRC).unwrap();
        let g = call_graph(&p);
        assert!(g["chain"].contains("helper"));
        assert!(g["child"].contains("chain"));
        assert!(
            !g["child"].contains("helper"),
            "transitive edge should be absent"
        );
        // Launches are not call edges.
        assert!(g["parent"].is_empty());
    }

    #[test]
    fn reachability_is_transitive() {
        let p = parse(SRC).unwrap();
        let names: Vec<&str> = reachable_functions(&p, "child")
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        assert!(names.contains(&"child"));
        assert!(names.contains(&"chain"));
        assert!(names.contains(&"helper"));
        assert!(!names.contains(&"parent"));
    }

    #[test]
    fn unknown_root_yields_empty() {
        let p = parse(SRC).unwrap();
        assert!(reachable_functions(&p, "nope").is_empty());
    }

    #[test]
    fn nested_launches_are_found() {
        let p = parse(
            "__global__ void c(int n) { }\n\
             __global__ void p(int n) { if (n > 0) { for (int i = 0; i < n; ++i) { c<<<i, 32>>>(i); } } }",
        )
        .unwrap();
        assert_eq!(launch_sites(&p).len(), 1);
    }
}
