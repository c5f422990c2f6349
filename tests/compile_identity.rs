//! Pins what "byte-identical compiler output" means.
//!
//! `transform_golden.rs` checks the *shape* of the generated code with
//! `contains`; it cannot see a reordered statement, a changed origin tag or
//! a different instruction. This suite pins every byte the compiler hands
//! on — transformed source, transformed AST (spans and origin tags),
//! manifest and bytecode — for the 14 workload sources under a 17-config
//! matrix, as one digest per (source, config), and pins the full output text
//! for recursive dynamic parallelism, where a pass reads the definition of
//! the very function it is rewriting.
//!
//! The digests were generated from the commit *before* the passes stopped
//! copying the program, so they hold any refactor of the compile path to
//! the old output. A failure prints the whole fresh table; paste it only
//! when the output is *meant* to change.

use dpopt::core::{AggConfig, AggGranularity, Compiler, OptConfig};
use dpopt::sweep::key::fnv1a;
use dpopt::workloads::benchmarks::all_benchmarks;

/// none, T, C, all, then A / T+A / T+C+A at each granularity, then block
/// granularity with an aggregation threshold.
fn configs() -> Vec<(String, OptConfig)> {
    let mut out = vec![
        ("none".to_string(), OptConfig::none()),
        ("T".to_string(), OptConfig::none().threshold(128)),
        ("C".to_string(), OptConfig::none().coarsen_factor(16)),
        ("all".to_string(), OptConfig::all()),
    ];
    let granularities = [
        ("warp", AggGranularity::Warp),
        ("block", AggGranularity::Block),
        ("mb8", AggGranularity::MultiBlock(8)),
        ("grid", AggGranularity::Grid),
    ];
    for (tag, g) in granularities {
        let agg = AggConfig::new(g);
        out.push((format!("A-{tag}"), OptConfig::none().aggregation(agg)));
        out.push((
            format!("TA-{tag}"),
            OptConfig::none().threshold(128).aggregation(agg),
        ));
        out.push((
            format!("TCA-{tag}"),
            OptConfig::none()
                .threshold(128)
                .coarsen_factor(16)
                .aggregation(agg),
        ));
    }
    out.push((
        "TCA-block-at32".to_string(),
        OptConfig::none()
            .threshold(128)
            .coarsen_factor(16)
            .aggregation(AggConfig {
                granularity: AggGranularity::Block,
                agg_threshold: Some(32),
            }),
    ));
    out
}

/// Everything a compile hands on, as one digest. `Module` itself is not
/// `{:?}`-ed: its `by_name` is a `HashMap` and prints in a per-process order.
fn digest(source: &str, config: OptConfig) -> u64 {
    let compiled = Compiler::new()
        .config(config)
        .compile(source)
        .expect("workload source compiles");
    let text = format!(
        "{}\u{0}{:?}\u{0}{:?}\u{0}{:?}",
        compiled.transformed_source(),
        compiled.program(),
        compiled.module().functions,
        compiled.manifest(),
    );
    fnv1a(text.as_bytes())
}

/// One row per workload source, one digest per entry of [`configs`].
#[rustfmt::skip]
const EXPECTED: &[(&str, [u64; 17])] = &[
    ("BFS/cdp", [0xe72cce1b1af57c04, 0x59f2f1a5ee09a56b, 0x10ba603feb683090, 0x3881572dfecdb9d2, 0xc3d0f5b47d7c48d4, 0xe24e8379da1bc19c, 0x976e3a57d45197e5, 0x04b572fccad29a8c, 0x1413a2e8fec6e44e, 0xb19ec26b442b2948, 0xa3059311225914db, 0x4f76421cddb30f77, 0x6ec0efefe8a1bcf7, 0xda146b39046bbcf8, 0x353aab3ae5a1d3b9, 0x3fae4f2e5cdd26e1, 0x7a53fdadb720aeab]),
    ("BFS/nocdp", [0x9b594f97f9bf9e0a, 0xc2ce7d5d10810415, 0x4aaacf7143b7d015, 0x2b69c1889d34fc67, 0x9b594f97f9bf9e0a, 0xc2ce7d5d10810415, 0x7a5c721ee8fa4c20, 0x9b594f97f9bf9e0a, 0xc2ce7d5d10810415, 0x7a5c721ee8fa4c20, 0x92618de33946aa93, 0x0e122929acc1fc1e, 0x6a939b136e29d5f3, 0x9b594f97f9bf9e0a, 0xc2ce7d5d10810415, 0x7a5c721ee8fa4c20, 0xf368311009b73331]),
    ("BT/cdp", [0x16017031de752857, 0xeadfd6d2970ccf87, 0x2222946d39d151e0, 0xb76f92d02a2b300d, 0xc744d9995811ae15, 0x54d190e747d07a36, 0xccd73a70291e7b84, 0xde730893a3014426, 0xe740659fd5854f9d, 0xa9272cc218578e13, 0x4338034f1dcd3500, 0xadd61f5559aa3557, 0xc4e3e2dfd6e01644, 0x46ad9345bfb1ef46, 0xbbe2f596ef3cd4b9, 0x1e0e788af23c0957, 0xa1cdb02ec84f55ef]),
    ("BT/nocdp", [0xa9879a4d8b4f0c8e, 0xac4cb28252e3d3fb, 0x427aded091c9f3b5, 0x57afbe18bae7f9b5, 0xa9879a4d8b4f0c8e, 0xac4cb28252e3d3fb, 0xce49eec8adc7ac6a, 0xa9879a4d8b4f0c8e, 0xac4cb28252e3d3fb, 0xce49eec8adc7ac6a, 0xbea4a03a6646dab5, 0x541b00c72dd43f32, 0x0f6813268ccf90b3, 0xa9879a4d8b4f0c8e, 0xac4cb28252e3d3fb, 0xce49eec8adc7ac6a, 0x9af022ad736fac93]),
    ("MSTF/cdp", [0xd9df355ae6aaeb97, 0xfe9300e6a990f5d3, 0x465898f61434d42c, 0x6393e8860e828649, 0xfce78a0ae9c9d83e, 0x12a7c7b7a19bf0d5, 0xed7becdfd788e639, 0x02f009ff674e8156, 0x7fc2ee431a22ff91, 0x5f3049ec0705e6f4, 0xe734e48e58b6a4c8, 0x52ea987a8f26838e, 0xa15e6203ce9f75e0, 0xdfaf4a82a4c39e8b, 0xe8ca0c4c4093de8a, 0x6728362e42878702, 0x0a9307c938b9963e]),
    ("MSTF/nocdp", [0x81ed3b26d085b023, 0x6b5e70ff455cf198, 0x1ac5dadfe611af9c, 0x7a0c0eb9a8fccb5e, 0x81ed3b26d085b023, 0x6b5e70ff455cf198, 0x59aa5df39349b529, 0x81ed3b26d085b023, 0x6b5e70ff455cf198, 0x59aa5df39349b529, 0x746309a1d95c3692, 0x514799891480a117, 0x43bf1ec56311c8be, 0x81ed3b26d085b023, 0x6b5e70ff455cf198, 0x59aa5df39349b529, 0xec00a8f4292f1c80]),
    ("MSTV/cdp", [0x804ce51bf6a9db51, 0x08344e8218b873a4, 0x83de8ceadd38dbde, 0x0c92c89b21b05592, 0x20bdacf2b0e2c60a, 0x2b50b2bfe2315f2d, 0x162ff03136664d0e, 0x7700ca791d0df250, 0x0a5e92694ddf9275, 0x4c2f133a0d1cdfb2, 0xf4658f61198c536b, 0x774b99fe3b639d30, 0x94d3dbb60b216903, 0xcbe728abe49abe11, 0xec847aa5b4cfe5eb, 0x59286f9d15c582d6, 0x4458069b93e6b84f]),
    ("MSTV/nocdp", [0xf342efb68d5d5c69, 0x581e9de0360aa50e, 0x97ba2e780e9f9734, 0x723a264e47690e80, 0xf342efb68d5d5c69, 0x581e9de0360aa50e, 0x1a73e4ab18b343e9, 0xf342efb68d5d5c69, 0x581e9de0360aa50e, 0x1a73e4ab18b343e9, 0xc4b545b87f6df43c, 0xa2a23dc282963b01, 0x48fc5e885eb5ca7e, 0xf342efb68d5d5c69, 0x581e9de0360aa50e, 0x1a73e4ab18b343e9, 0xde48738e3614de36]),
    ("SP/cdp", [0xbf37eb50d3ded7aa, 0x43220353219761df, 0x62b1797ffad90d18, 0xb8f7b408c5140972, 0x40804bf44019a09d, 0xa0f9558bf28bc0a7, 0xa69b451d0a48443d, 0x20c75ac0b063be52, 0x5c9cae20c62ce45e, 0x1aa4148180f7d0d8, 0x04dcd3b983ee555d, 0xf1300afbc32df987, 0xdd85be352cc33288, 0x1be3bb833576b56e, 0xa575baa45def610b, 0x8dee5cff1a455334, 0x627132b33912e398]),
    ("SP/nocdp", [0x41b34ebf71dc55cf, 0xee2c4874f3e4359a, 0x9758b4457bbbd328, 0xcd39ff3f19b7a984, 0x41b34ebf71dc55cf, 0xee2c4874f3e4359a, 0x4098e8acfba7ca8b, 0x41b34ebf71dc55cf, 0xee2c4874f3e4359a, 0x4098e8acfba7ca8b, 0x4cb7b6531bd0ef48, 0x164f879a88878bf7, 0x07e22da54afaac26, 0x41b34ebf71dc55cf, 0xee2c4874f3e4359a, 0x4098e8acfba7ca8b, 0x1245ed507c839c1e]),
    ("SSSP/cdp", [0x24c6f861d81045dc, 0xd11dde72c9aad43c, 0xf935d4c540caa2ae, 0x96a40a1e4afd94fb, 0xa8ed47580d23f89c, 0x43491f63c0b25fb5, 0x882558fcaf8b6d2d, 0x22dc5d1bd9218e6c, 0x3fb75c66a781803f, 0x73563b64e17d81fb, 0xb4197c42f046f4fb, 0x1329b8bca6aacfb0, 0x739c4ef211c25b96, 0xa8fe816009768db6, 0x07500081a4267259, 0xceccc74a15d413b5, 0xf2189d47859c589a]),
    ("SSSP/nocdp", [0x7cc5762e93c892e9, 0xe559bebd93aef136, 0x718b3ce7e2e2ccc2, 0x41dcd5ffcec87b5c, 0x7cc5762e93c892e9, 0xe559bebd93aef136, 0x03bbec0b4750fc6f, 0x7cc5762e93c892e9, 0xe559bebd93aef136, 0x03bbec0b4750fc6f, 0x1dcaa2bf1bc14dcc, 0x964cd59f163bae89, 0xc098eb885d6dbb80, 0x7cc5762e93c892e9, 0xe559bebd93aef136, 0x03bbec0b4750fc6f, 0x9e78670381939512]),
    ("TC/cdp", [0x04f0bd26188048d4, 0x5c66c8a4a5c6ea28, 0xc485ed2c33ab1504, 0xf85b5974d96c93fc, 0x332df8d3fb3489b3, 0x3807624f8329335b, 0x25fa3fd71fb37a20, 0x7d1a26de8199f905, 0xaea3c87d2e960f49, 0x07ea25ff4addbca3, 0xb2c12c55f1fb4564, 0x34288cfbc73faa92, 0x6c1c955da93f0041, 0xf058240973c9f62c, 0x90fb4001998eb893, 0x3f57ddcf2b906183, 0x390c124b7da1ad58]),
    ("TC/nocdp", [0x2e314fe6fec8a858, 0xf7fdb3a92bccbb67, 0xed7efb97ef432223, 0x78bd573381cd36c9, 0x2e314fe6fec8a858, 0xf7fdb3a92bccbb67, 0x3f1fdb621bc3a266, 0x2e314fe6fec8a858, 0xf7fdb3a92bccbb67, 0x3f1fdb621bc3a266, 0x0e871ae4ca0ce145, 0x9cf5872b930eb5a4, 0x59f2f1b885017e55, 0x2e314fe6fec8a858, 0xf7fdb3a92bccbb67, 0x3f1fdb621bc3a266, 0x0f97c2a10fb50f35]),
];

#[test]
fn workload_sources_compile_to_the_pinned_bytes() {
    let configs = configs();
    assert_eq!(configs.len(), 17);
    let mut fresh = Vec::new();
    for bench in all_benchmarks() {
        for (kind, source) in [
            ("cdp", bench.cdp_source()),
            ("nocdp", bench.no_cdp_source()),
        ] {
            let row: Vec<u64> = configs.iter().map(|(_, c)| digest(source, *c)).collect();
            fresh.push((format!("{}/{kind}", bench.name()), row));
        }
    }

    let mut table = String::new();
    let mut mismatches = Vec::new();
    for (i, (name, row)) in fresh.iter().enumerate() {
        table.push_str(&format!("    (\"{name}\", ["));
        for (j, d) in row.iter().enumerate() {
            table.push_str(&format!("{d:#018x}, "));
            match EXPECTED.get(i) {
                Some((exp_name, exp)) if exp_name == name && exp[j] == *d => {}
                _ => mismatches.push(format!("{name} under {}", configs[j].0)),
            }
        }
        table.push_str("]),\n");
    }
    assert!(
        mismatches.is_empty() && fresh.len() == EXPECTED.len(),
        "compiler output changed for: {mismatches:?}\nfresh table:\n{table}"
    );
}

// ---------------------------------------------------------------------
// Recursive dynamic parallelism: full expected text.
// ---------------------------------------------------------------------

/// Runs the pipeline and checks the printed text and the `{:?}` of the AST
/// (the printer braces every body, so only the AST shows whether a spliced
/// copy was taken before or after block normalisation).
fn check(what: &str, source: &str, config: OptConfig, want_text: &str, want_ast: u64) {
    let mut program = dpopt::frontend::parse(source).expect("parses");
    dpopt::transform::apply_pipeline(&mut program, &config);
    let got = dpopt::frontend::print_program(&program);
    dpopt::frontend::parse(&got).expect("transformed source re-parses");
    assert!(
        got == want_text,
        "{what}: transformed source changed\n--- got ---\n{got}\n--- want ---\n{want_text}"
    );
    let ast = fnv1a(format!("{program:?}").as_bytes());
    assert!(
        ast == want_ast,
        "{what}: transformed AST changed under the same text: {ast:#018x}"
    );
}

/// A kernel that launches itself: the serial / aggregated version of the
/// child must be built from the definition the parent had *before* the pass
/// touched it.
const SELF_LAUNCH: &str = "\
__global__ void rec(int* data, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        data[i] = data[i] + 1;
        int half = n / 2;
        if (i == 0)
            rec<<<(half + 31) / 32, 32>>>(data, half);
    }
}
";

#[test]
fn self_launching_kernel_under_thresholding() {
    check(
        "self-launch, T",
        SELF_LAUNCH,
        OptConfig::none().threshold(64),
        SELF_T,
        0xb7ec511d714f783f,
    );
}

#[test]
fn self_launching_kernel_under_aggregation() {
    check(
        "self-launch, A",
        SELF_LAUNCH,
        OptConfig::none().aggregation(AggConfig::new(AggGranularity::Block)),
        SELF_A,
        0x24ae928c5ee85509,
    );
}

#[test]
fn self_launching_kernel_under_the_full_pipeline() {
    check(
        "self-launch, T+C+A",
        SELF_LAUNCH,
        OptConfig::none()
            .threshold(64)
            .coarsen_factor(4)
            .aggregation(AggConfig::new(AggGranularity::MultiBlock(4))),
        SELF_TCA,
        0xe4e73478da0900d4,
    );
}

/// Two kernels that launch each other: the second parent's child is the
/// first parent *as already rewritten*.
const MUTUAL: &str = "\
__global__ void ping(int* data, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        data[i] = data[i] + 1;
        if (i == 0) {
            pong<<<(n / 2 + 31) / 32, 32>>>(data, n / 2);
        }
    }
}

__global__ void pong(int* data, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        data[i] = data[i] * 2;
        if (i == 0) {
            ping<<<(n - 1 + 63) / 64, 64>>>(data, n - 1);
        }
    }
}
";

#[test]
fn mutually_launching_kernels_under_thresholding_and_aggregation() {
    check(
        "mutual launch, T+A",
        MUTUAL,
        OptConfig::none()
            .threshold(64)
            .aggregation(AggConfig::new(AggGranularity::Block)),
        MUTUAL_TA,
        0x03c9ae36d4781cb6,
    );
}

/// A `__device__` function that launches a kernel which calls that same
/// function: the serializability check walks from the child back into the
/// parent being rewritten.
const DEVICE_PARENT: &str = "\
__device__ void spread(int* data, int n) {
    int half = n / 2;
    if (half > 0) {
        work<<<(half + 31) / 32, 32>>>(data, half);
    }
}

__global__ void work(int* data, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        data[i] = data[i] + 1;
        if (i == 0) {
            spread(data, n);
        }
    }
}
";

#[test]
fn device_parent_called_back_by_its_child_is_thresholded() {
    check(
        "device parent, T",
        DEVICE_PARENT,
        OptConfig::none().threshold(64),
        DEVICE_PARENT_T,
        0xee43667714091b75,
    );
}

/// `__shared__` in the device parent: the child reaches it through the call
/// back, so the child is not serializable and the launch stays as written.
#[test]
fn shared_memory_in_a_device_parent_still_blocks_serialization() {
    let source = DEVICE_PARENT.replace(
        "    int half = n / 2;\n",
        "    __shared__ int scratch[32];\n    scratch[0] = n;\n    int half = scratch[0] / 2;\n",
    );
    let mut program = dpopt::frontend::parse(&source).expect("parses");
    let manifest = dpopt::transform::apply_pipeline(&mut program, &OptConfig::none().threshold(64));
    assert!(manifest.threshold_sites.is_empty(), "{manifest:?}");
    assert_eq!(manifest.diagnostics.len(), 1, "{manifest:?}");
    assert!(
        manifest.diagnostics[0].message.contains("not serializable"),
        "{manifest:?}"
    );
    assert_eq!(
        dpopt::frontend::print_program(&program),
        format!("#define _THRESHOLD 64\n\n{source}")
    );
}

const SELF_T: &str = "\
#define _THRESHOLD 64

__global__ void rec(int* data, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        data[i] = data[i] + 1;
        int half = n / 2;
        if (i == 0) {
            int _threads0 = half;
            if (_threads0 >= _THRESHOLD) {
                rec<<<(_threads0 + 31) / 32, 32>>>(data, half);
            }
            else {
                rec_serial(data, half, (_threads0 + 31) / 32, 32);
            }
        }
    }
}

__device__ void rec_serial(int* data, int n, dim3 _s_gDim, dim3 _s_bDim) {
    for (int _s_bz = 0; _s_bz < _s_gDim.z; ++_s_bz) {
        for (int _s_by = 0; _s_by < _s_gDim.y; ++_s_by) {
            for (int _s_bx = 0; _s_bx < _s_gDim.x; ++_s_bx) {
                for (int _s_tz = 0; _s_tz < _s_bDim.z; ++_s_tz) {
                    for (int _s_ty = 0; _s_ty < _s_bDim.y; ++_s_ty) {
                        for (int _s_tx = 0; _s_tx < _s_bDim.x; ++_s_tx) {
                            int i = _s_bx * _s_bDim.x + _s_tx;
                            if (i < n) {
                                data[i] = data[i] + 1;
                                int half = n / 2;
                                if (i == 0) {
                                    rec<<<(half + 31) / 32, 32>>>(data, half);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
";

const SELF_A: &str = "\
__global__ void rec(int* data, int n, int** _a_arr0_0, int* _a_arr0_1, int* _a_scan0, int* _a_bArr0, long long* _a_ctr0, int* _a_maxB0, int _a_slots0) {
    int _a_g0 = 0;
    int _a_b0 = 0;
    int* _a_arg0_0;
    int _a_arg0_1;
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        data[i] = data[i] + 1;
        int half = n / 2;
        if (i == 0) {
            {
                _a_g0 = (half + 31) / 32;
                _a_b0 = 32;
                _a_arg0_0 = data;
                _a_arg0_1 = half;
            }
        }
    }
    int _a_grp0 = blockIdx.x;
    int _a_base0 = _a_grp0 * _a_slots0;
    if (_a_g0 > 0) {
        long long _a_pk0 = atomicAdd(&_a_ctr0[_a_grp0], ((long long)1 << 32) + (long long)_a_g0);
        int _a_pi0 = (int)(_a_pk0 >> 32);
        int _a_sp0 = (int)(_a_pk0 & 4294967295);
        _a_arr0_0[_a_base0 + _a_pi0] = _a_arg0_0;
        _a_arr0_1[_a_base0 + _a_pi0] = _a_arg0_1;
        _a_scan0[_a_base0 + _a_pi0] = _a_sp0 + _a_g0;
        _a_bArr0[_a_base0 + _a_pi0] = _a_b0;
        atomicMax(&_a_maxB0[_a_grp0], _a_b0);
    }
    __syncthreads();
    if (threadIdx.x == 0) {
        long long _a_pkf0 = _a_ctr0[_a_grp0];
        int _a_np0 = (int)(_a_pkf0 >> 32);
        int _a_tot0 = (int)(_a_pkf0 & 4294967295);
        if (_a_np0 > 0) {
            rec_agg<<<_a_tot0, _a_maxB0[_a_grp0]>>>(_a_arr0_0 + _a_base0, _a_arr0_1 + _a_base0, _a_scan0 + _a_base0, _a_bArr0 + _a_base0, _a_np0);
        }
    }
}

__global__ void rec_agg(int** _da_arr0, int* _da_arr1, int* _da_scan, int* _da_bArr, int _da_np) {
    int _da_lo = 0;
    int _da_hi = _da_np - 1;
    while (_da_lo < _da_hi) {
        int _da_mid = (_da_lo + _da_hi) / 2;
        if (_da_scan[_da_mid] > blockIdx.x) {
            _da_hi = _da_mid;
        }
        else {
            _da_lo = _da_mid + 1;
        }
    }
    int _da_pi = _da_lo;
    int _da_prev = 0;
    if (_da_pi > 0) {
        _da_prev = _da_scan[_da_pi - 1];
    }
    int* data = _da_arr0[_da_pi];
    int n = _da_arr1[_da_pi];
    int _da_gd = _da_scan[_da_pi] - _da_prev;
    int _da_bx = blockIdx.x - _da_prev;
    int _da_bd = _da_bArr[_da_pi];
    if (threadIdx.x < _da_bd) {
        int i = _da_bx * _da_bd + threadIdx.x;
        if (i < n) {
            data[i] = data[i] + 1;
            int half = n / 2;
            if (i == 0) {
                rec<<<(half + 31) / 32, 32>>>(data, half);
            }
        }
    }
}
";

const SELF_TCA: &str = "\
#define _AGG_GRANULARITY 4
#define _CFACTOR 4
#define _THRESHOLD 64

__global__ void rec(int* data, int n, int _c_gDim) {
    for (int _c_bx = blockIdx.x; _c_bx < _c_gDim; _c_bx += gridDim.x) {
        int i = _c_bx * blockDim.x + threadIdx.x;
        if (i < n) {
            data[i] = data[i] + 1;
            int half = n / 2;
            if (i == 0) {
                int _threads0 = half;
                if (_threads0 >= _THRESHOLD) {
                    {
                        int _c_gDim0 = (_threads0 + 31) / 32;
                        int _c_cgDim0 = (_c_gDim0 + _CFACTOR - 1) / _CFACTOR;
                        rec<<<_c_cgDim0, 32>>>(data, half, _c_gDim0);
                    }
                }
                else {
                    rec_serial(data, half, (_threads0 + 31) / 32, 32);
                }
            }
        }
    }
}

__device__ void rec_serial(int* data, int n, dim3 _s_gDim, dim3 _s_bDim) {
    for (int _s_bz = 0; _s_bz < _s_gDim.z; ++_s_bz) {
        for (int _s_by = 0; _s_by < _s_gDim.y; ++_s_by) {
            for (int _s_bx = 0; _s_bx < _s_gDim.x; ++_s_bx) {
                for (int _s_tz = 0; _s_tz < _s_bDim.z; ++_s_tz) {
                    for (int _s_ty = 0; _s_ty < _s_bDim.y; ++_s_ty) {
                        for (int _s_tx = 0; _s_tx < _s_bDim.x; ++_s_tx) {
                            int i = _s_bx * _s_bDim.x + _s_tx;
                            if (i < n) {
                                data[i] = data[i] + 1;
                                int half = n / 2;
                                if (i == 0) {
                                    int _c_gDim1 = (half + 31) / 32;
                                    int _c_cgDim1 = (_c_gDim1 + _CFACTOR - 1) / _CFACTOR;
                                    rec<<<_c_cgDim1, 32>>>(data, half, _c_gDim1);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
";

const MUTUAL_TA: &str = "\
#define _THRESHOLD 64

__global__ void ping(int* data, int n, int** _a_arr0_0, int* _a_arr0_1, int* _a_scan0, int* _a_bArr0, long long* _a_ctr0, int* _a_maxB0, int _a_slots0) {
    int _a_g0 = 0;
    int _a_b0 = 0;
    int* _a_arg0_0;
    int _a_arg0_1;
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        data[i] = data[i] + 1;
        if (i == 0) {
            int _threads0 = n / 2;
            if (_threads0 >= _THRESHOLD) {
                {
                    _a_g0 = (_threads0 + 31) / 32;
                    _a_b0 = 32;
                    _a_arg0_0 = data;
                    _a_arg0_1 = n / 2;
                }
            }
            else {
                pong_serial(data, n / 2, (_threads0 + 31) / 32, 32);
            }
        }
    }
    int _a_grp0 = blockIdx.x;
    int _a_base0 = _a_grp0 * _a_slots0;
    if (_a_g0 > 0) {
        long long _a_pk0 = atomicAdd(&_a_ctr0[_a_grp0], ((long long)1 << 32) + (long long)_a_g0);
        int _a_pi0 = (int)(_a_pk0 >> 32);
        int _a_sp0 = (int)(_a_pk0 & 4294967295);
        _a_arr0_0[_a_base0 + _a_pi0] = _a_arg0_0;
        _a_arr0_1[_a_base0 + _a_pi0] = _a_arg0_1;
        _a_scan0[_a_base0 + _a_pi0] = _a_sp0 + _a_g0;
        _a_bArr0[_a_base0 + _a_pi0] = _a_b0;
        atomicMax(&_a_maxB0[_a_grp0], _a_b0);
    }
    __syncthreads();
    if (threadIdx.x == 0) {
        long long _a_pkf0 = _a_ctr0[_a_grp0];
        int _a_np0 = (int)(_a_pkf0 >> 32);
        int _a_tot0 = (int)(_a_pkf0 & 4294967295);
        if (_a_np0 > 0) {
            pong_agg<<<_a_tot0, _a_maxB0[_a_grp0]>>>(_a_arr0_0 + _a_base0, _a_arr0_1 + _a_base0, _a_scan0 + _a_base0, _a_bArr0 + _a_base0, _a_np0);
        }
    }
}

__device__ void ping_serial(int* data, int n, dim3 _s_gDim, dim3 _s_bDim) {
    for (int _s_bz = 0; _s_bz < _s_gDim.z; ++_s_bz) {
        for (int _s_by = 0; _s_by < _s_gDim.y; ++_s_by) {
            for (int _s_bx = 0; _s_bx < _s_gDim.x; ++_s_bx) {
                for (int _s_tz = 0; _s_tz < _s_bDim.z; ++_s_tz) {
                    for (int _s_ty = 0; _s_ty < _s_bDim.y; ++_s_ty) {
                        for (int _s_tx = 0; _s_tx < _s_bDim.x; ++_s_tx) {
                            int i = _s_bx * _s_bDim.x + _s_tx;
                            if (i < n) {
                                data[i] = data[i] + 1;
                                if (i == 0) {
                                    int _threads0 = n / 2;
                                    if (_threads0 >= _THRESHOLD) {
                                        pong<<<(_threads0 + 31) / 32, 32>>>(data, n / 2);
                                    }
                                    else {
                                        pong_serial(data, n / 2, (_threads0 + 31) / 32, 32);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

__global__ void pong(int* data, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        data[i] = data[i] * 2;
        if (i == 0) {
            int _threads1 = n;
            if (_threads1 >= _THRESHOLD) {
                ping<<<(_threads1 - 1 + 63) / 64, 64>>>(data, n - 1);
            }
            else {
                ping_serial(data, n - 1, (_threads1 - 1 + 63) / 64, 64);
            }
        }
    }
}

__global__ void pong_agg(int** _da_arr0, int* _da_arr1, int* _da_scan, int* _da_bArr, int _da_np) {
    int _da_lo = 0;
    int _da_hi = _da_np - 1;
    while (_da_lo < _da_hi) {
        int _da_mid = (_da_lo + _da_hi) / 2;
        if (_da_scan[_da_mid] > blockIdx.x) {
            _da_hi = _da_mid;
        }
        else {
            _da_lo = _da_mid + 1;
        }
    }
    int _da_pi = _da_lo;
    int _da_prev = 0;
    if (_da_pi > 0) {
        _da_prev = _da_scan[_da_pi - 1];
    }
    int* data = _da_arr0[_da_pi];
    int n = _da_arr1[_da_pi];
    int _da_gd = _da_scan[_da_pi] - _da_prev;
    int _da_bx = blockIdx.x - _da_prev;
    int _da_bd = _da_bArr[_da_pi];
    if (threadIdx.x < _da_bd) {
        int i = _da_bx * _da_bd + threadIdx.x;
        if (i < n) {
            data[i] = data[i] * 2;
            if (i == 0) {
                int _threads1 = n;
                if (_threads1 >= _THRESHOLD) {
                    ping<<<(_threads1 - 1 + 63) / 64, 64>>>(data, n - 1);
                }
                else {
                    ping_serial(data, n - 1, (_threads1 - 1 + 63) / 64, 64);
                }
            }
        }
    }
}

__device__ void pong_serial(int* data, int n, dim3 _s_gDim, dim3 _s_bDim) {
    for (int _s_bz = 0; _s_bz < _s_gDim.z; ++_s_bz) {
        for (int _s_by = 0; _s_by < _s_gDim.y; ++_s_by) {
            for (int _s_bx = 0; _s_bx < _s_gDim.x; ++_s_bx) {
                for (int _s_tz = 0; _s_tz < _s_bDim.z; ++_s_tz) {
                    for (int _s_ty = 0; _s_ty < _s_bDim.y; ++_s_ty) {
                        for (int _s_tx = 0; _s_tx < _s_bDim.x; ++_s_tx) {
                            int i = _s_bx * _s_bDim.x + _s_tx;
                            if (i < n) {
                                data[i] = data[i] * 2;
                                if (i == 0) {
                                    ping<<<(n - 1 + 63) / 64, 64>>>(data, n - 1);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
";

const DEVICE_PARENT_T: &str = "\
#define _THRESHOLD 64

__device__ void spread(int* data, int n) {
    int half = n / 2;
    if (half > 0) {
        int _threads0 = half;
        if (_threads0 >= _THRESHOLD) {
            work<<<(_threads0 + 31) / 32, 32>>>(data, half);
        }
        else {
            work_serial(data, half, (_threads0 + 31) / 32, 32);
        }
    }
}

__global__ void work(int* data, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        data[i] = data[i] + 1;
        if (i == 0) {
            spread(data, n);
        }
    }
}

__device__ void work_serial(int* data, int n, dim3 _s_gDim, dim3 _s_bDim) {
    for (int _s_bz = 0; _s_bz < _s_gDim.z; ++_s_bz) {
        for (int _s_by = 0; _s_by < _s_gDim.y; ++_s_by) {
            for (int _s_bx = 0; _s_bx < _s_gDim.x; ++_s_bx) {
                for (int _s_tz = 0; _s_tz < _s_bDim.z; ++_s_tz) {
                    for (int _s_ty = 0; _s_ty < _s_bDim.y; ++_s_ty) {
                        for (int _s_tx = 0; _s_tx < _s_bDim.x; ++_s_tx) {
                            int i = _s_bx * _s_bDim.x + _s_tx;
                            if (i < n) {
                                data[i] = data[i] + 1;
                                if (i == 0) {
                                    spread(data, n);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
";
