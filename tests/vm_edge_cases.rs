//! Edge-case and failure-injection tests for the GPU VM through the
//! public `dp-core` API: unusual control flow, value semantics, and the
//! error paths a robust runtime must take instead of panicking.

use dpopt::core::{Compiler, Error, OptConfig};
use dpopt::vm::Value;

fn run_kernel(
    src: &str,
    kernel: &str,
    grid: i64,
    block: i64,
    words: usize,
    args: &[i64],
) -> Vec<i64> {
    let compiled = Compiler::new().compile(src).expect("compiles");
    let mut exec = compiled.executor();
    let buf = exec.alloc(words);
    let mut full = vec![Value::Int(buf)];
    full.extend(args.iter().map(|&a| Value::Int(a)));
    exec.launch(kernel, grid, block, &full).expect("launches");
    exec.sync().expect("runs");
    exec.read_i64s(buf, words).expect("reads")
}

#[test]
fn do_while_executes_at_least_once() {
    let out = run_kernel(
        "__global__ void k(int* d, int n) { \
             int i = 0; int steps = 0; \
             do { steps = steps + 1; i = i + 1; } while (i < n); \
             d[0] = steps; }",
        "k",
        1,
        1,
        1,
        &[0],
    );
    assert_eq!(out[0], 1, "do-while with a false condition runs once");
}

#[test]
fn break_and_continue_in_nested_loops() {
    let out = run_kernel(
        "__global__ void k(int* d, int n) { \
             int total = 0; \
             for (int i = 0; i < 10; ++i) { \
                 if (i == 7) { break; } \
                 for (int j = 0; j < 10; ++j) { \
                     if (j % 2 == 1) { continue; } \
                     if (j == 8) { break; } \
                     total = total + 1; \
                 } \
             } \
             d[0] = total; }",
        "k",
        1,
        1,
        1,
        &[0],
    );
    // i in 0..7, j in {0, 2, 4, 6}: 7 * 4 = 28.
    assert_eq!(out[0], 28);
}

#[test]
fn while_loop_with_compound_conditions() {
    let out = run_kernel(
        "__global__ void k(int* d, int n) { \
             int a = 0; int b = 100; \
             while (a < n && b > 0) { a = a + 1; b = b - 3; } \
             d[0] = a; d[1] = b; }",
        "k",
        1,
        1,
        2,
        &[50],
    );
    assert_eq!(out, vec![34, 100 - 34 * 3]); // b hits <= 0 first
}

#[test]
fn compound_assignment_to_memory_and_incdec() {
    let out = run_kernel(
        "__global__ void k(int* d, int n) { \
             d[0] = 10; \
             d[0] += 5; \
             d[0] *= 2; \
             d[0] -= 3; \
             d[1] = d[0]++; \
             d[2] = ++d[0]; \
             d[3] = d[0]--; \
             d[4] = n; }",
        "k",
        1,
        1,
        5,
        &[9],
    );
    // d[0]: 10 +5=15 *2=30 -3=27; post-inc stores 27 and leaves 28;
    // pre-inc makes 29 (stored); post-dec stores 29 and leaves 28.
    assert_eq!(out, vec![28, 27, 29, 29, 9]);
}

#[test]
fn assignment_chains_and_ternary_values() {
    let out = run_kernel(
        "__global__ void k(int* d, int n) { \
             int a; int b; int c; \
             a = b = c = n + 1; \
             d[0] = a; d[1] = b; d[2] = c; \
             d[3] = (n > 5 ? a : -a) + (n % 2 == 0 ? 100 : 200); }",
        "k",
        1,
        1,
        4,
        &[7],
    );
    assert_eq!(out, vec![8, 8, 8, 8 + 200]);
}

#[test]
fn dim3_member_assignment_round_trips() {
    let out = run_kernel(
        "__global__ void k(int* d, int n) { \
             dim3 v = dim3(1, 2, 3); \
             v.x = n; \
             v.y += 10; \
             d[0] = v.x; d[1] = v.y; d[2] = v.z; }",
        "k",
        1,
        1,
        3,
        &[42],
    );
    assert_eq!(out, vec![42, 12, 3]);
}

#[test]
fn integer_division_truncates_like_c() {
    let out = run_kernel(
        "__global__ void k(int* d, int n) { \
             d[0] = 7 / 2; \
             d[1] = -7 / 2; \
             d[2] = 7 % 3; \
             d[3] = -7 % 3; \
             d[4] = (int)((float)7 / 2.0); }",
        "k",
        1,
        1,
        5,
        &[0],
    );
    assert_eq!(out, vec![3, -3, 1, -1, 3]);
}

#[test]
fn float_math_matches_host() {
    let compiled = Compiler::new()
        .compile(
            "__global__ void k(double* d) { \
                 d[0] = sqrt(2.0); \
                 d[1] = ceil(1.2) + floor(1.8); \
                 d[2] = exp(1.0); \
                 d[3] = log(exp(3.0)); \
                 d[4] = pow(2.0, 10.0); \
                 d[5] = fabs(-2.5); }",
        )
        .unwrap();
    let mut exec = compiled.executor();
    let buf = exec.alloc(6);
    exec.launch("k", 1, 1, &[Value::Int(buf)]).unwrap();
    exec.sync().unwrap();
    let out = exec.read_f64s(buf, 6).unwrap();
    assert!((out[0] - 2.0f64.sqrt()).abs() < 1e-15);
    assert_eq!(out[1], 3.0);
    assert!((out[2] - 1.0f64.exp()).abs() < 1e-15);
    assert!((out[3] - 3.0).abs() < 1e-12);
    assert_eq!(out[4], 1024.0);
    assert_eq!(out[5], 2.5);
}

#[test]
fn shared_memory_reduction_with_barriers() {
    // Tree reduction with __syncthreads between levels.
    let out = run_kernel(
        "__global__ void k(int* d, int n) { \
             __shared__ int tile[64]; \
             tile[threadIdx.x] = threadIdx.x; \
             __syncthreads(); \
             for (int s = 32; s > 0; s = s / 2) { \
                 if (threadIdx.x < s) { \
                     tile[threadIdx.x] = tile[threadIdx.x] + tile[threadIdx.x + s]; \
                 } \
                 __syncthreads(); \
             } \
             if (threadIdx.x == 0) { d[0] = tile[0]; } }",
        "k",
        1,
        64,
        1,
        &[0],
    );
    assert_eq!(out[0], (0..64).sum::<i64>());
}

#[test]
fn grandchild_launch_chain_with_arguments() {
    let out = run_kernel(
        "__global__ void leaf(int* d, int v) { atomicAdd(&d[0], v); }\n\
         __global__ void mid(int* d, int v) { leaf<<<1, 2>>>(d, v * 10); }\n\
         __global__ void k(int* d, int n) { mid<<<1, 3>>>(d, n); }",
        "k",
        1,
        1,
        1,
        &[4],
    );
    // 3 mid threads × 2 leaf threads × 40 = 240.
    assert_eq!(out[0], 240);
}

#[test]
fn launching_with_wrong_arity_is_an_error() {
    let compiled = Compiler::new()
        .compile("__global__ void k(int* d, int n) { d[0] = n; }")
        .unwrap();
    let mut exec = compiled.executor();
    let buf = exec.alloc(1);
    let err = exec.launch("k", 1, 1, &[Value::Int(buf)]).unwrap_err();
    assert!(matches!(err, Error::Exec(_)));
    assert!(err.to_string().contains("takes 2 arguments"));
}

#[test]
fn launching_unknown_kernel_is_an_error() {
    let compiled = Compiler::new()
        .compile("__global__ void k(int* d) { d[0] = 1; }")
        .unwrap();
    let mut exec = compiled.executor();
    let err = exec.launch("nope", 1, 1, &[]).unwrap_err();
    assert!(err.to_string().contains("unknown kernel"));
}

#[test]
fn negative_index_store_is_an_error_not_a_panic() {
    let compiled = Compiler::new()
        .compile("__global__ void k(int* d, int i) { d[i] = 1; }")
        .unwrap();
    let mut exec = compiled.executor();
    let buf = exec.alloc(4);
    exec.launch("k", 1, 1, &[Value::Int(buf), Value::Int(-100)])
        .unwrap();
    let err = exec.sync().unwrap_err();
    assert!(err.to_string().contains("out of bounds"), "{err}");
}

#[test]
fn runaway_recursion_is_an_error() {
    let compiled = Compiler::new()
        .compile(
            "__device__ int f(int n) { return f(n + 1); }\n\
             __global__ void k(int* d) { d[0] = f(0); }",
        )
        .unwrap();
    let mut exec = compiled.executor();
    let buf = exec.alloc(1);
    exec.launch("k", 1, 1, &[Value::Int(buf)]).unwrap();
    let err = exec.sync().unwrap_err();
    assert!(err.to_string().contains("stack overflow"), "{err}");
}

#[test]
fn zero_block_grid_runs_no_threads() {
    let compiled = Compiler::new()
        .compile("__global__ void k(int* d) { atomicAdd(&d[0], 1); }")
        .unwrap();
    let mut exec = compiled.executor();
    let buf = exec.alloc(1);
    exec.launch("k", 0, 32, &[Value::Int(buf)]).unwrap();
    exec.sync().unwrap();
    assert_eq!(exec.read_i64s(buf, 1).unwrap()[0], 0);
}

#[test]
fn transformed_code_handles_all_parents_empty() {
    // Aggregation with *no* participating parents must not launch and must
    // not corrupt memory.
    let src = "\
__global__ void child(int* d, int n) { d[0] = n; }
__global__ void parent(int* d, int n) {
    int v = blockIdx.x * blockDim.x + threadIdx.x;
    if (v < n) {
        child<<<(n + 31) / 32, 32>>>(d, n);
    }
}
";
    for config in [
        OptConfig::none().aggregation(dpopt::core::AggConfig::new(
            dpopt::core::AggGranularity::MultiBlock(2),
        )),
        OptConfig::none().aggregation(dpopt::core::AggConfig::new(
            dpopt::core::AggGranularity::Grid,
        )),
    ] {
        let compiled = Compiler::new().config(config).compile(src).unwrap();
        let mut exec = compiled.executor();
        let buf = exec.alloc(1);
        // n = 0: the guard is false for every thread.
        exec.launch("parent", 2, 32, &[Value::Int(buf), Value::Int(0)])
            .unwrap();
        exec.sync().unwrap();
        assert_eq!(exec.read_i64s(buf, 1).unwrap()[0], 0);
        assert_eq!(exec.stats().device_launches, 0);
    }
}

#[test]
fn hex_and_char_literals_compute() {
    let out = run_kernel(
        "__global__ void k(int* d, int n) { \
             d[0] = 0xFF & n; \
             d[1] = 'A'; \
             d[2] = (1 << 10) | 0x0F; }",
        "k",
        1,
        1,
        3,
        &[0x1234],
    );
    assert_eq!(out, vec![0x34, 65, 1024 + 15]);
}

#[test]
fn logical_operators_short_circuit() {
    // The right operand would trap (division by zero) if evaluated.
    let out = run_kernel(
        "__global__ void k(int* d, int n) { \
             int zero = n - n; \
             if (n == 0 && 1 / zero > 0) { d[0] = 1; } else { d[0] = 2; } \
             if (n > 0 || 1 / zero > 0) { d[1] = 3; } }",
        "k",
        1,
        1,
        2,
        &[5],
    );
    assert_eq!(out, vec![2, 3]);
}

#[test]
fn a_dim3_survives_locals_memory_an_atomic_and_a_kernel_argument() {
    // A `dim3` word travels: constructor → local → member update → global
    // store → load back → `atomicCAS` against an equal triple (equal
    // triples must compare equal wherever they were made) → a kernel
    // argument of a child → its members, and a launch configuration.
    let out = run_kernel(
        "__global__ void leaf(int* d, int at) { atomicAdd(&d[at], 1); }\n\
         __global__ void child(int* d, dim3 g) { \
             d[0] = g.x; d[1] = g.y; d[2] = g.z; \
             leaf<<<g, 1>>>(d, 3); }\n\
         __global__ void k(int* d, int n) { \
             dim3 a = dim3(2, n, 4); \
             a.y = a.y + 2; \
             d[8] = a; \
             dim3 same = dim3(2, n + 2, 4); \
             dim3 other = dim3(2, 4, n + 2); \
             d[4] = atomicCAS(&d[8], other, 77) == a; \
             d[5] = atomicCAS(&d[8], same, blockDim) == same; \
             dim3 b = d[8]; \
             d[6] = b.x * 100 + b.y * 10 + b.z; \
             d[8] = 0; \
             child<<<1, 1>>>(d, a); }",
        "k",
        1,
        1,
        9,
        &[3],
    );
    // `child` saw (2, 5, 4) and launched 2 * 5 * 4 leaf blocks.
    assert_eq!(out[..4], [2, 5, 4, 40]);
    // The CAS against a permutation of the triple failed (and returned the
    // stored triple); the one against an equal triple made elsewhere
    // succeeded and stored `blockDim`, which reads back as (1, 1, 1).
    assert_eq!(out[4..7], [1, 1, 111]);
}

#[test]
fn integer_negate_and_abs_wrap_like_every_other_integer_op() {
    // `-x` and `abs(x)` of `i64::MIN` have no `i64` result. `+ - * / %`
    // wrap; these two panicked in a debug build and wrapped in a release
    // one. The expectation below is the same under both profiles.
    use dpopt::core::DispatchMode;
    let src = "__global__ void k(long long* d) { \
                   long long x = d[0]; \
                   d[1] = -x; d[2] = abs(x); d[3] = -(x + 1); d[4] = abs(x + 1); }";
    for dispatch in [DispatchMode::Match, DispatchMode::Threaded] {
        let compiled = Compiler::new()
            .dispatch(dispatch)
            .compile(src)
            .expect("compiles");
        let mut exec = compiled.executor();
        let buf = exec.alloc_i64s(&[i64::MIN, 0, 0, 0, 0]);
        exec.launch("k", 1, 1, &[Value::Int(buf)])
            .expect("launches");
        exec.sync().expect("runs");
        assert_eq!(
            exec.read_i64s(buf, 5).expect("reads"),
            [i64::MIN, i64::MIN, i64::MIN, i64::MAX, i64::MAX],
            "{dispatch:?}"
        );
    }
}

#[test]
fn launch_dimensions_that_overflow_are_an_error_not_a_wrap() {
    // 2^32 * 2^32 wraps to 0 in release and panics in debug when
    // multiplied unchecked; under both dispatchers it is the same error.
    let src = "__global__ void c(int* d) { d[0] = 1; }\n\
               __global__ void grid(int* d, int n) { dim3 g = dim3(n, n, 1); c<<<g, 1>>>(d); }\n\
               __global__ void block(int* d, int n) { dim3 b = dim3(n, n, 1); c<<<1, b>>>(d); }";
    for (kernel, what) in [("grid", "grid"), ("block", "block")] {
        let mut messages = Vec::new();
        for dispatch in [
            dpopt::core::DispatchMode::Threaded,
            dpopt::core::DispatchMode::Match,
        ] {
            let compiled = Compiler::new()
                .dispatch(dispatch)
                .compile(src)
                .expect("compiles");
            let mut exec = compiled.executor();
            let buf = exec.alloc(1);
            exec.launch(kernel, 1, 1, &[Value::Int(buf), Value::Int(1 << 32)])
                .expect("launches");
            messages.push(exec.sync().unwrap_err().to_string());
        }
        assert_eq!(messages[0], messages[1]);
        assert!(
            messages[0].contains(&format!(
                "{what} size [4294967296, 4294967296, 1] overflows"
            )),
            "{}",
            messages[0]
        );
    }
    // From the host, too.
    let compiled = Compiler::new().compile(src).expect("compiles");
    let mut exec = compiled.executor();
    let buf = exec.alloc(1);
    let err = exec
        .launch("c", [i64::MAX, 2, 1], 1, &[Value::Int(buf)])
        .and_then(|()| exec.sync())
        .unwrap_err();
    assert!(err.to_string().contains("overflows"), "{err}");
}

/// The table the threaded loop charges from, checked against the ops it
/// summarises: for all seven benchmarks × the nine sweep variants, fused
/// and unfused, every place a thread can (re-)enter a function is a block
/// leader, blocks tile the code, a `Launch` stands alone, and each block's
/// `{cycles, width, origin}` is the sum over its instructions.
#[test]
fn block_charges_summarise_the_ops_they_cover() {
    use dpopt::core::{AggConfig, AggGranularity};
    use dpopt::vm::bytecode::Instr;
    use dpopt::vm::{compile_program_unfused, CostModel, OriginCycles};
    use dpopt::workloads::benchmarks::all_benchmarks;

    // Distinct primes, so a cycle charged to the wrong class shows.
    let cost = CostModel {
        alu: 2,
        mul: 3,
        div: 5,
        mem: 7,
        branch: 11,
        call: 13,
        launch: 17,
        sync: 19,
        fence: 23,
        atomic: 29,
        intrinsic: 31,
        launch_presence_overhead: 37,
    };
    let agg = || AggConfig::new(AggGranularity::MultiBlock(8));
    let none = OptConfig::none;
    let variants = [
        None, // the No-CDP source
        Some(none()),
        Some(none().threshold(128)),
        Some(none().coarsen_factor(16)),
        Some(none().aggregation(agg())),
        Some(none().threshold(128).coarsen_factor(16)),
        Some(none().threshold(128).aggregation(agg())),
        Some(none().coarsen_factor(16).aggregation(agg())),
        Some(none().threshold(128).coarsen_factor(16).aggregation(agg())),
    ];
    let (mut functions, mut blocks_seen, mut launches) = (0, 0, 0);
    for bench in all_benchmarks() {
        for variant in &variants {
            let (compiler, source) = match variant {
                None => (Compiler::new(), bench.no_cdp_source()),
                Some(config) => (Compiler::new().config(*config), bench.cdp_source()),
            };
            let compiled = compiler.compile(source).expect("benchmark compiles");
            let (program, _) = compiler.transform(source).expect("benchmark transforms");
            let unfused = compile_program_unfused(&program).expect("lowers");
            for f in compiled.module().functions.iter().chain(&unfused.functions) {
                functions += 1;
                let blocks = f.block_charges(&cost);
                let is_leader =
                    |pc: usize| pc >= f.code.len() || blocks.iter().any(|b| b.start as usize == pc);
                let mut next = 0;
                for b in &blocks {
                    blocks_seen += 1;
                    assert_eq!(b.start, next, "{}: blocks tile the code", f.name);
                    assert!(b.len > 0);
                    next += b.len;
                    let range = b.start as usize..next as usize;
                    let (mut cycles, mut width) = (0, 0);
                    let mut origin = OriginCycles::default();
                    for (instr, og) in f.code[range.clone()].iter().zip(&f.origins[range]) {
                        cycles += instr.cost(&cost);
                        width += instr.width() as u64;
                        origin.add(*og, instr.cost(&cost));
                    }
                    assert_eq!((b.cycles, b.width, b.origin), (cycles, width, origin));
                    assert_eq!(b.origin.total(), b.cycles);
                }
                assert_eq!(next as usize, f.code.len());
                for (pc, instr) in f.code.iter().enumerate() {
                    match *instr {
                        Instr::Jump(t)
                        | Instr::JumpIfZero(t)
                        | Instr::JumpIfNonZero(t)
                        | Instr::CmpBranchLocals(_, _, _, t)
                        | Instr::CmpBranch(_, t) => {
                            assert!(is_leader(t as usize), "{}: target {t}", f.name);
                            assert!(is_leader(pc + 1), "{}: after branch {pc}", f.name);
                        }
                        Instr::Call(..) | Instr::Ret | Instr::RetVoid | Instr::Sync => {
                            assert!(is_leader(pc + 1), "{}: after {instr:?} at {pc}", f.name);
                        }
                        Instr::Launch(..) => {
                            launches += 1;
                            let own = blocks.iter().find(|b| b.start as usize == pc);
                            assert_eq!(own.map(|b| b.len), Some(1), "{}: launch {pc}", f.name);
                            assert!(is_leader(pc + 1));
                        }
                        _ => {}
                    }
                }
            }
        }
    }
    assert!(functions >= 7 * 9 * 2 && blocks_seen > 1_000 && launches > 50);
}
