//! An allocation budget for one compile — the gate that catches a copy
//! creeping back into the miss path.
//!
//! This binary holds a single `#[test]` so nothing else allocates while it
//! counts, and it asserts a *count*, which repeats exactly run to run; it
//! cannot flake the way a timing would.
//!
//! BFS's `cdp_source()` under T=128, C=16, `multiblock:8`:
//!
//! | | allocations per compile | of which `print_program` |
//! |---|---|---|
//! | program copied per function | 5 255 | 1 341 |
//! | passes stopped copying the program | 2 085 | 11 |
//! | generated code built as syntax, not parsed from text | 1 771 | 11 |
//! | identifiers are inline `Name`s, not heap `String`s | 934 | 11 |
//!
//! The budget is the last row: a pass that went back to lexing and parsing
//! template text, to copying a body into place, or to formatting a fresh
//! name into a `String` would exceed it. If a change needs more, find the
//! copy before raising it.
//!
//! Parsing alone has its own budget. It made 173 allocations while each of
//! BFS's 73 identifiers was a `String`; a name stored inline makes 100,
//! the token vector and the tree's own vectors and boxes.
//!
//! The same test counts the frees of dropping that compile's `Compiled`,
//! which in a daemon happens when the cache evicts it, on a later request's
//! path:
//!
//! | | blocks freed when a `Compiled` drops |
//! |---|---|
//! | it holds the transformed tree | 650 |
//! | the tree is freed inside `compile` | 69 |
//!
//! The bound is the last row: a `Compiled` that held the tree again would
//! free it (some 500 to 1 000 blocks) wherever it was evicted.
//!
//! Running the program has its own row. The first `executor()` builds what
//! every executor shares (the bytecode with its dispatch tables, and the
//! manifest); a second builds nothing of the program:
//!
//! | | allocations per second `executor()` |
//! |---|---|
//! | each executor clones the module and builds its tables | 181 |
//! | executors share the first one's image and manifest | 1 |
//!
//! The one is the empty machine's operand stack. A count above it means an
//! executor copies or rebuilds the program again.

use dpopt::core::{AggConfig, AggGranularity, Compiler, OptConfig};
use dpopt::workloads::benchmarks::{bfs::Bfs, Benchmark};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are relaxed statistics on the side.
// (`realloc` keeps its default, which calls `alloc` and `dealloc`, so a
// growing `Vec` or `String` counts once per growth in each.)
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let value = f();
    (value, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

fn frees_during(f: impl FnOnce()) -> u64 {
    let before = FREES.load(Ordering::Relaxed);
    f();
    FREES.load(Ordering::Relaxed) - before
}

const COMPILE_ALLOCATIONS: u64 = 934;
const PARSE_ALLOCATIONS: u64 = 100;
const COMPILED_FREES: u64 = 69;
const SECOND_EXECUTOR_ALLOCATIONS: u64 = 1;

#[test]
fn one_compile_stays_inside_its_allocation_budget() {
    let compiler = Compiler::new().config(
        OptConfig::none()
            .threshold(128)
            .coarsen_factor(16)
            .aggregation(AggConfig::new(AggGranularity::MultiBlock(8))),
    );
    let source = Bfs.cdp_source();

    let (_, parse) = allocations_during(|| dpopt::frontend::parse(source).expect("parses"));
    let (compiled, compile) = allocations_during(|| compiler.compile(source).expect("compiles"));
    let (program, _) = compiler.transform(source).expect("transforms");
    let (printed, print) = allocations_during(|| dpopt::frontend::print_program(&program));
    assert_eq!(printed, compiled.transformed_source());
    let dropped = frees_during(|| drop(compiled));
    let compiled = compiler.compile(source).expect("compiles");
    let (_, first) = allocations_during(|| compiled.executor());
    let (_, second) = allocations_during(|| compiled.executor());
    println!(
        "compile: {compile} allocations, parse: {parse}, print_program: {print}; \
         dropping the compiled program: {dropped} frees; executor: {first} the first, \
         {second} the second"
    );

    assert!(
        compile <= COMPILE_ALLOCATIONS,
        "one compile made {compile} allocations; the budget is {COMPILE_ALLOCATIONS}"
    );
    assert!(
        parse <= PARSE_ALLOCATIONS,
        "parsing made {parse} allocations; the budget is {PARSE_ALLOCATIONS}: \
         is an identifier a heap string again?"
    );
    assert!(
        print <= 32,
        "print_program made {print} allocations for {} bytes; it should only grow its output",
        printed.len()
    );
    assert!(
        dropped <= COMPILED_FREES,
        "dropping the compiled program made {dropped} frees; the bound is \
         {COMPILED_FREES}: does a `Compiled` hold the tree again?"
    );
    assert_eq!(
        second, SECOND_EXECUTOR_ALLOCATIONS,
        "a second executor made {second} allocations: does it copy or rebuild the program?"
    );
}
