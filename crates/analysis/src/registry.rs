//! Launch-site discovery.

use dp_frontend::ast::*;
use dp_frontend::visit::for_each_stmt;

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
/// use dp_analysis::launch_sites;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::ProgramFacts;
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
        let facts = ProgramFacts::of(&p);
        assert_eq!(facts.direct_callees("chain"), ["helper"]);
        assert_eq!(facts.direct_callees("child"), ["chain"]);
        assert!(
            !facts.direct_callees("child").contains(&"helper"),
            "transitive edge should be absent"
        );
        // Launches are not call edges.
        assert!(facts.direct_callees("parent").is_empty());
    }

    #[test]
    fn reachability_is_transitive() {
        let p = parse(SRC).unwrap();
        let facts = ProgramFacts::of(&p);
        let names: Vec<&str> = facts
            .reachable("child")
            .iter()
            .map(|f| f.name().as_str())
            .collect();
        assert_eq!(names, ["child", "chain", "helper"]);
        // Summarizing what `child` reaches walks nothing else.
        let reached = ProgramFacts::reachable_from(&p, "child");
        assert!(reached.get("helper").is_some());
        assert!(reached.get("parent").is_none() && reached.get("host_main").is_none());
    }

    #[test]
    fn unknown_root_yields_empty() {
        let p = parse(SRC).unwrap();
        assert!(ProgramFacts::of(&p).reachable("nope").is_empty());
        assert!(ProgramFacts::reachable_from(&p, "nope")
            .get("nope")
            .is_none());
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
