//! The VM determinism contract, property-tested: for random programs
//! with device launches — disjoint writes, cross-block atomic conflicts,
//! or a mix — the threaded dispatcher must produce **bit-identical**
//! `ExecutionTrace` + `MachineStats` + memory to the reference `match`
//! dispatcher, with superinstruction fusion on or off.

use dpopt::vm::lower::{compile_program, compile_program_unfused};
use dpopt::vm::machine::{DispatchMode, Machine, MachineStats};
use dpopt::vm::{ExecutionTrace, Value};
use proptest::prelude::*;

/// Builds a parent/child program over a random degree sequence. Parent
/// threads expand their vertex's slice of `out` serially (disjoint) and
/// launch a child grid over the same slice; children optionally also bump
/// a shared counter with an atomic (`conflict`), which couples blocks
/// through memory in linear block order.
fn program(conflict: bool, child_block: i64) -> String {
    let atomic = if conflict {
        "atomicAdd(&counters[0], 1); atomicMax(&counters[1], base + e);"
    } else {
        ""
    };
    format!(
        "__global__ void child(int* out, int* counters, int base, int count) {{ \
             int e = blockIdx.x * blockDim.x + threadIdx.x; \
             if (e < count) {{ \
                 out[base + e] = out[base + e] * 3 + e; \
                 {atomic} \
             }} }}\n\
         __global__ void parent(int* offsets, int* out, int* counters, int numV) {{ \
             int v = blockIdx.x * blockDim.x + threadIdx.x; \
             if (v < numV) {{ \
                 int begin = offsets[v]; \
                 int count = offsets[v + 1] - begin; \
                 for (int e = 0; e < count; ++e) {{ out[begin + e] = begin + e; }} \
                 if (count > 0) {{ \
                     child<<<(count + {cb} - 1) / {cb}, {cb}>>>(out, counters, begin, count); \
                 }} }} }}",
        cb = child_block
    )
}

struct Observed {
    memory: Vec<i64>,
    stats: MachineStats,
    trace: ExecutionTrace,
}

fn run(
    src: &str,
    degrees: &[i64],
    fuse: bool,
    dispatch: DispatchMode,
    parent_block: i64,
) -> Observed {
    let p = dpopt::frontend::parse(src).unwrap_or_else(|e| panic!("{}\n{src}", e.render(src)));
    let module = if fuse {
        compile_program(&p).unwrap()
    } else {
        compile_program_unfused(&p).unwrap()
    };
    let mut m = Machine::new(module);
    m.set_dispatch(dispatch);
    let mut offsets = vec![0i64];
    for d in degrees {
        offsets.push(offsets.last().unwrap() + d);
    }
    let total: i64 = degrees.iter().sum();
    let offsets_ptr = m.alloc_i64s(&offsets);
    let out = m.alloc((total as usize).max(1));
    let counters = m.alloc_i64s(&[0, -1]);
    let num_v = degrees.len() as i64;
    m.launch_host(
        "parent",
        (num_v + parent_block - 1) / parent_block,
        parent_block,
        &[
            Value::Int(offsets_ptr),
            Value::Int(out),
            Value::Int(counters),
            Value::Int(num_v),
        ],
    )
    .unwrap();
    m.run_to_quiescence().unwrap();
    let words = m.mem.allocated_words();
    Observed {
        memory: m.read_i64s(1, words - 1).unwrap(),
        stats: m.stats(),
        trace: m.take_trace(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The threaded and match dispatchers, with fusion on and off, are
    /// bit-identical on random launch-generating programs — whether blocks
    /// are disjoint or conflict through cross-block atomics.
    #[test]
    fn dispatch_and_fusion_traces_are_bit_identical(
        degrees in prop::collection::vec(0i64..40, 4..24),
        conflict in (0i64..2).prop_map(|v| v == 1),
        parent_block in 1i64..5,
        child_block in 2i64..9,
    ) {
        let src = program(conflict, child_block);
        let reference = run(&src, &degrees, true, DispatchMode::Match, parent_block);
        prop_assert!(reference.stats.instructions > 0);

        for (fuse, dispatch) in [
            (true, DispatchMode::Threaded),
            (false, DispatchMode::Threaded),
            (false, DispatchMode::Match),
        ] {
            let got = run(&src, &degrees, fuse, dispatch, parent_block);
            prop_assert_eq!(
                &got.memory, &reference.memory,
                "memory diverged (fuse={}, {:?})", fuse, dispatch
            );
            prop_assert_eq!(got.stats, reference.stats);
            prop_assert_eq!(
                &got.trace, &reference.trace,
                "trace diverged (fuse={}, {:?})", fuse, dispatch
            );
        }
    }
}
