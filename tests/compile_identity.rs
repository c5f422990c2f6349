//! Pins what "byte-identical compiler output" means.
//!
//! `transform_golden.rs` checks the *shape* of the generated code with
//! `contains`; it cannot see a reordered statement, a changed origin tag or
//! a different instruction. This suite pins every byte the compiler hands
//! on for the 14 workload sources under a 17-config matrix, as two digests
//! per (source, config) — the passes' output (transformed source,
//! transformed AST with spans and origin tags, manifest) and the bytecode —
//! and pins the full output text for recursive dynamic parallelism, where a
//! pass reads the definition of the very function it is rewriting.
//!
//! The two columns are apart so that a change to the VM's instruction set
//! re-pins the bytecode and cannot move the half that guards the passes:
//! `EXPECTED_PASSES` is what this file printed on the commit before the
//! count-picked superinstructions (PR 24's parent), which compiled every
//! source to the bytes pinned before the passes stopped copying the
//! program, re-pinned once when template-generated nodes began to carry
//! `Span::SYNTH` instead of offsets into the template's text (the printed
//! text and the bytecode did not move). A failure prints every fresh table;
//! paste one only when that output is *meant* to change.

use dpopt::core::{AggConfig, AggGranularity, Compiler, OptConfig};
use dpopt::frontend::ast::{FnQual, Program};
use dpopt::sweep::key::fnv1a;
use dpopt::vm::bytecode::CompiledFunction;
use dpopt::vm::lower::fuse_module;
use dpopt::vm::{compile_program_unfused, Value};
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

/// The two halves of what a compile hands on, digested apart: what the
/// passes made (transformed source, AST, manifest) and what the lowerer and
/// the fuser made of it (the executable bytecode). A change to the VM's
/// instruction set re-pins the second column and must leave the first
/// alone. A `Compiled` keeps primitive bytecode and its first executor
/// fuses it, so the second column digests `fuse_module` of the compiled
/// module: what executors run. `Module` itself is not `{:?}`-ed: its
/// `by_name` is a `HashMap` and prints in a per-process order. A `Compiled`
/// holds no tree, so the AST and manifest come from `Compiler::transform`,
/// the path `compile` itself takes.
fn digests(source: &str, config: OptConfig) -> (u64, u64) {
    let compiler = Compiler::new().config(config);
    let (program, manifest) = compiler
        .transform(source)
        .expect("workload source transforms");
    let compiled = compiler.compile(source).expect("workload source compiles");
    assert_eq!(
        format!("{manifest:?}"),
        format!("{:?}", compiled.manifest())
    );
    let passes = format!(
        "{}\u{0}{:?}\u{0}{:?}",
        compiled.transformed_source(),
        program,
        manifest,
    );
    let primitive = &compiled.module().functions;
    compiled_module_is_primitive(&program, primitive, config);
    let fused = fuse_module(compiled.module()).functions;
    widths_conserve_the_unfused_count(&fused, primitive, config);
    kernels_are_the_global_functions(&program, &fused, config);
    (
        fnv1a(passes.as_bytes()),
        fnv1a(format!("{fused:?}").as_bytes()),
    )
}

/// What `compile` keeps is the lowerer's primitive bytecode of the
/// transformed tree: no superinstruction, and nothing else changed.
fn compiled_module_is_primitive(
    program: &Program,
    primitive: &[CompiledFunction],
    config: OptConfig,
) {
    for f in primitive {
        assert!(
            f.code.iter().all(|i| i.width() == 1),
            "`{}` under {config:?} holds a superinstruction",
            f.name
        );
    }
    let unfused = compile_program_unfused(program).expect("lowers unfused");
    assert_eq!(
        format!("{primitive:?}"),
        format!("{:?}", unfused.functions),
        "under {config:?}"
    );
}

/// Fusion is accounting-transparent on every workload source under every
/// config: a function's widths sum to the length of its unfused code.
fn widths_conserve_the_unfused_count(
    fused: &[CompiledFunction],
    unfused: &[CompiledFunction],
    config: OptConfig,
) {
    assert_eq!(fused.len(), unfused.len());
    for (f, u) in fused.iter().zip(unfused) {
        let widths: u32 = f.code.iter().map(|i| i.width()).sum();
        assert_eq!(
            widths as usize,
            u.code.len(),
            "`{}` under {config:?}",
            f.name
        );
        assert_eq!(f.code.len(), f.origins.len(), "`{}`", f.name);
    }
}

/// The `compile` op of a daemon lists the module's `__global__` functions
/// as the program's kernels: they are the tree's kernels, in program order.
fn kernels_are_the_global_functions(
    program: &Program,
    functions: &[CompiledFunction],
    config: OptConfig,
) {
    let from_module: Vec<&str> = functions
        .iter()
        .filter(|f| f.qual == FnQual::Global)
        .map(|f| f.name.as_str())
        .collect();
    let from_tree: Vec<&str> = program
        .functions()
        .filter(|f| f.is_kernel())
        .map(|f| f.name.as_str())
        .collect();
    assert_eq!(from_module, from_tree, "under {config:?}");
}

/// The passes' output — transformed source, AST (spans and origin tags) and
/// manifest: one row per workload source, one digest per entry of
/// [`configs`]. These are what item 10 of the roadmap is held to; a change
/// that touches only the VM leaves them as they are.
#[rustfmt::skip]
const EXPECTED_PASSES: &[(&str, [u64; 17])] = &[
    ("BFS/cdp", [0x1c1150256e807f6e, 0xfb9d249f38131a70, 0x0cda13a505c1d156, 0x827631b07101a6f4, 0x97af079281841dc2, 0x12529a7cc3a622f8, 0x13a4231285d9c026, 0x76cdf851834c216e, 0xebd85104d0746470, 0x8e7ceacf2a9d67fe, 0x7b353a24a07d458f, 0xdfb98259e684693f, 0x13d948c67fa573f3, 0xa564373b65926361, 0x3ed5be42e483eb69, 0x018d48038fc08f4a, 0xb18138abd6795e9a]),
    ("BFS/nocdp", [0xe4907a7737dfcfe4, 0x677af2c1c83534f3, 0x2e194763a2e0c0f3, 0x48c540b1d092cb29, 0xe4907a7737dfcfe4, 0x677af2c1c83534f3, 0x54aa799e8700ec36, 0xe4907a7737dfcfe4, 0x677af2c1c83534f3, 0x54aa799e8700ec36, 0x5ed14d7fd3e6a1ed, 0xba94832c34923830, 0x984a8f2c67fc8c4d, 0xe4907a7737dfcfe4, 0x677af2c1c83534f3, 0x54aa799e8700ec36, 0x6f442dfa87f24707]),
    ("BT/cdp", [0xce7243de4cacc0b7, 0xd2e4358f4db5999f, 0x53a0ed1ac470b130, 0xf8e1fd5dc6c95bfe, 0x5ca85abc5c61e581, 0x2f920f519ddb3fa7, 0xef9face72bc5545c, 0xb1181bbd2492f787, 0x6f5e1f8f107fd8db, 0xd2eec4163b99bb36, 0x21da88b48687f85a, 0x20be5fbcae39906c, 0xf661736707750597, 0xb6d0f7229cdbb902, 0x93f6014ba69f42e6, 0xe1ab54b20a056e3c, 0xe503c5a43eb7973a]),
    ("BT/nocdp", [0x98c5b568bb3118ae, 0x3b429d1adaba4809, 0xdf7288906bbb6827, 0xde30a9f3ad139a27, 0x98c5b568bb3118ae, 0x3b429d1adaba4809, 0xf47abbbbe587d3a2, 0x98c5b568bb3118ae, 0x3b429d1adaba4809, 0xf47abbbbe587d3a2, 0xdedcb7d70a19ed27, 0x1a3baf36034656aa, 0x2c0ec5d23d9c6de1, 0x98c5b568bb3118ae, 0x3b429d1adaba4809, 0xf47abbbbe587d3a2, 0xbc5ee3faacbdfcc1]),
    ("MSTF/cdp", [0xe7e901f6adf73a54, 0x2d24ba695656cb66, 0x1abc0ee8e1791ae1, 0xd0eae57caca3cccb, 0x31c8fd7123ebc05e, 0xe7c15b10d581a702, 0x71a6e3fee92c79fd, 0x2545fa1b036ab782, 0x872a1688999734ce, 0x988c76a4ff63662d, 0x65328823bc4aadcf, 0xd71973f19ef5277f, 0x0d93499a49d43250, 0x5b2e022c1bf5a269, 0x43599ead55982bd1, 0x139b79ab4a0e9d0d, 0x5f8bea8b5a954cb7]),
    ("MSTF/nocdp", [0x78d21c6dd7e490fc, 0x83795afaad6601bf, 0xc7962c18538cf243, 0x86964f972f854725, 0x78d21c6dd7e490fc, 0x83795afaad6601bf, 0xa85823efa369c94a, 0x78d21c6dd7e490fc, 0x83795afaad6601bf, 0xa85823efa369c94a, 0x0533241ad501a669, 0x60a08629f6c533c0, 0x25874e75dc863ec5, 0x78d21c6dd7e490fc, 0x83795afaad6601bf, 0xa85823efa369c94a, 0xa822307cd1457f27]),
    ("MSTV/cdp", [0x5d88c9455cf60979, 0xb3db4cc7283b32c9, 0xb2347859ff08e5a8, 0x15780b03dce68f11, 0x5cc1868a342ae83f, 0x705890f1277d9d37, 0xb611e95b96af0c37, 0x20fdfdb813bf526b, 0xbedd700ec8d56b29, 0x703f4c604537ba2b, 0x01eeac566b3321f2, 0x55c49fdf9d382cfa, 0x727420beac89be88, 0x600135f07d411c8b, 0x44398b80d6530d89, 0x3ed877668b8e3d44, 0xc66cf897ac3439c5]),
    ("MSTV/nocdp", [0xae9c5375ddd2bf89, 0xe25bf7aaea3ae056, 0xbd910d76b362d020, 0xde39d71fe6669a9c, 0xae9c5375ddd2bf89, 0xe25bf7aaea3ae056, 0xe25cbd6c795a5b09, 0xae9c5375ddd2bf89, 0xe25bf7aaea3ae056, 0xe25cbd6c795a5b09, 0x601b0b681fe60948, 0x360f76ee663a7dc1, 0xdbc0d65707ecdc06, 0xae9c5375ddd2bf89, 0xe25bf7aaea3ae056, 0xe25cbd6c795a5b09, 0xf2f1a254328889fe]),
    ("SP/cdp", [0x3dd85d2a278daa41, 0xf0c6950418d4713f, 0x088c5b5000740287, 0x6f1707ca46e94fb8, 0x4a72c66a96d9e409, 0xaf4c2d3a94041aab, 0x686f9134db92cd7f, 0xc446d825508f471f, 0x50502b10f7d786ef, 0xcb68a4111b48fbf5, 0x063a187fbb46c308, 0x6fef356f1824c50c, 0x72039834f549e1ca, 0xf31bd3f154866bdd, 0x57b83b1912c27e25, 0x93041b85cf113411, 0xd29bc39ad1ddcd26]),
    ("SP/nocdp", [0x782eea427f222752, 0xf44620230ce7992b, 0xe5b87284c7033f35, 0x61b3ef704dae46f1, 0x782eea427f222752, 0xf44620230ce7992b, 0x01c4f4dfeefe5a9e, 0x782eea427f222752, 0xf44620230ce7992b, 0x01c4f4dfeefe5a9e, 0xa21be7557f565015, 0x8158e301ce83c3da, 0x10b4eee3059da3c7, 0x782eea427f222752, 0xf44620230ce7992b, 0x01c4f4dfeefe5a9e, 0x678b169dbef8b51f]),
    ("SSSP/cdp", [0xb1986ef7ce7a9b39, 0x39a70787695190ef, 0x7ce981f17781dad7, 0x95d3a4af0dd9d73c, 0xa11986a95dc05560, 0x94d97a47fffb8422, 0x8fc19e4f4be61944, 0x1adce6e4c444ff40, 0x6052f55a1c230e5e, 0x5dc0d82cdd14f090, 0x22e255388fcf01e3, 0x7d0859e461115c97, 0x447794c5f99c55c5, 0xd8b3298a5ec0375b, 0xd08917607774000b, 0xcbb41e8244679c92, 0x26452090bc74c71a]),
    ("SSSP/nocdp", [0xff9d4b7778892312, 0xe065ddf06b98cefd, 0x7fedeb7aa1d32ee9, 0xd634134b8864fc1f, 0xff9d4b7778892312, 0xe065ddf06b98cefd, 0xd92d2b2f45b38eac, 0xff9d4b7778892312, 0xe065ddf06b98cefd, 0xd92d2b2f45b38eac, 0x8edf19d79983fd8f, 0x667694fbb09c5132, 0x51f51fb20daecce3, 0xff9d4b7778892312, 0xe065ddf06b98cefd, 0xd92d2b2f45b38eac, 0xd83318674275b5b9]),
    ("TC/cdp", [0x00b2a77e818b66d6, 0x9cafea610fe45e88, 0x35845c2a4493de1d, 0xa8fb93e0d3fd6ffc, 0xbd1fe8539f1675f4, 0xcb06cd3143e5ca0e, 0xfeace3bc54e134a4, 0xffd8243b448b6da4, 0x6c30d1914533b19a, 0xbfe871dc57b3706c, 0xeb09f3ca66c596d7, 0x080b40cc2066aedd, 0x45e2b8448fa91fdb, 0xe43bbf2f90fb0ce8, 0x6d765718c6431970, 0xbd71d06f1a0e0db1, 0xcc75c78aaa35136e]),
    ("TC/nocdp", [0xd84c4df6885e949a, 0xcff3b55693ee2c49, 0x4953803a5f635555, 0x1b9786bb686af657, 0xd84c4df6885e949a, 0xcff3b55693ee2c49, 0x4448af131155291c, 0xd84c4df6885e949a, 0xcff3b55693ee2c49, 0x4448af131155291c, 0x2e9073e123c9bad3, 0x663f400b3f923f76, 0x8e7e9e17250a3783, 0xd84c4df6885e949a, 0xcff3b55693ee2c49, 0x4448af131155291c, 0x77f7675715731c63]),
];

/// The fused bytecode of the same compiles. Re-pinned whenever the lowerer
/// or the fuser is meant to emit something else.
#[rustfmt::skip]
const EXPECTED_BYTECODE: &[(&str, [u64; 17])] = &[
    ("BFS/cdp", [0xab7cf2ad0286ba20, 0x06a9ec21abcc2082, 0x7136d4a8c2718ad6, 0x4406f52fce9d634e, 0xc60e41f2d3b9c04c, 0xf4f54fb2cc418223, 0x0c30f19cd130a339, 0xf957a1e5eb302867, 0x4cbe94418fb13892, 0x7c846a5a5b84598e, 0x8fe89797450cf576, 0x7a193a3f6f9356f0, 0xd19bcaeec7ec1f38, 0x1a933f56ebb8e0a2, 0x427ac10f39d9bf88, 0xb51831b054d1b471, 0xf24998fb8f6de712]),
    ("BFS/nocdp", [0x7a57d079eb982b45, 0x7a57d079eb982b45, 0x7a57d079eb982b45, 0x7a57d079eb982b45, 0x7a57d079eb982b45, 0x7a57d079eb982b45, 0x7a57d079eb982b45, 0x7a57d079eb982b45, 0x7a57d079eb982b45, 0x7a57d079eb982b45, 0x7a57d079eb982b45, 0x7a57d079eb982b45, 0x7a57d079eb982b45, 0x7a57d079eb982b45, 0x7a57d079eb982b45, 0x7a57d079eb982b45, 0x7a57d079eb982b45]),
    ("BT/cdp", [0xeff2617307d59096, 0x63ebe6facb35499f, 0xc7ec27c00345de06, 0x75224068ee04440f, 0x0b5b0b9fb8dee8a2, 0x652e58b8d4d63599, 0x36d9fd4346a358c5, 0xfe1937a240d17c58, 0x4c3d5ee9fb6a7b07, 0x92aa319d2584f67a, 0xe6cdfa9a9f502170, 0x5055e22cb599b2bd, 0x888fd3caf8ef9d85, 0x0df6d5126bb2fb7b, 0xeb917845e21bb2e6, 0x314ed37664101ffd, 0xfaf77f55f62924aa]),
    ("BT/nocdp", [0x4deba4bd5a7c068c, 0x4deba4bd5a7c068c, 0x4deba4bd5a7c068c, 0x4deba4bd5a7c068c, 0x4deba4bd5a7c068c, 0x4deba4bd5a7c068c, 0x4deba4bd5a7c068c, 0x4deba4bd5a7c068c, 0x4deba4bd5a7c068c, 0x4deba4bd5a7c068c, 0x4deba4bd5a7c068c, 0x4deba4bd5a7c068c, 0x4deba4bd5a7c068c, 0x4deba4bd5a7c068c, 0x4deba4bd5a7c068c, 0x4deba4bd5a7c068c, 0x4deba4bd5a7c068c]),
    ("MSTF/cdp", [0xfd44b5740cad105e, 0xdacfe4de2600a2a2, 0xc1257a2a2a69a88f, 0x81b99fc5eb5f1043, 0xd5add67790f9064e, 0xdd64521e2ad905db, 0x7dd426849e0e68d8, 0xd74c23ccd713ca10, 0xb979131e55f2ecb3, 0x15e8b9fce21e4085, 0xd9d2e886e060379f, 0xee6ab85cadebab42, 0x81bbdec7cad2e5d9, 0xa1fde9580564b7ec, 0x3f431a6509e8bc01, 0xb60c7f6b3abe1158, 0xde637c41292ece4e]),
    ("MSTF/nocdp", [0x3c49ed19d40c97e9, 0x3c49ed19d40c97e9, 0x3c49ed19d40c97e9, 0x3c49ed19d40c97e9, 0x3c49ed19d40c97e9, 0x3c49ed19d40c97e9, 0x3c49ed19d40c97e9, 0x3c49ed19d40c97e9, 0x3c49ed19d40c97e9, 0x3c49ed19d40c97e9, 0x3c49ed19d40c97e9, 0x3c49ed19d40c97e9, 0x3c49ed19d40c97e9, 0x3c49ed19d40c97e9, 0x3c49ed19d40c97e9, 0x3c49ed19d40c97e9, 0x3c49ed19d40c97e9]),
    ("MSTV/cdp", [0x68ca41a2b01c6ec9, 0x802a588eaae221ef, 0x982aaf4edec3e71d, 0xaf371b97b27d33eb, 0x8b510993d86b6d0d, 0x764ec18b2a05fba2, 0xbec1886fe2423679, 0x150b8dd3a5ccadf9, 0xf8af6e0ebea08105, 0xa68078bcb7bb843b, 0xd964770c23f123dc, 0xbe7979627009e218, 0xafa827e6ba1ddf5d, 0xcaeadb977bd64d17, 0x8e182f517c532b64, 0x975e2189a08527d7, 0x34245f0c276e6a90]),
    ("MSTV/nocdp", [0x3dfcdd0a9580b5c7, 0x3dfcdd0a9580b5c7, 0x3dfcdd0a9580b5c7, 0x3dfcdd0a9580b5c7, 0x3dfcdd0a9580b5c7, 0x3dfcdd0a9580b5c7, 0x3dfcdd0a9580b5c7, 0x3dfcdd0a9580b5c7, 0x3dfcdd0a9580b5c7, 0x3dfcdd0a9580b5c7, 0x3dfcdd0a9580b5c7, 0x3dfcdd0a9580b5c7, 0x3dfcdd0a9580b5c7, 0x3dfcdd0a9580b5c7, 0x3dfcdd0a9580b5c7, 0x3dfcdd0a9580b5c7, 0x3dfcdd0a9580b5c7]),
    ("SP/cdp", [0x0efe422c5059b379, 0x64c08e6de5e39f9f, 0xf48a99282c4997fa, 0x6e8675d1ebfe9f4c, 0x6c5ec0b8ed0bd311, 0xb4e9490359c3c946, 0x668e5e4daa353b90, 0x1736b517af29548b, 0xf22a0e96c73af39e, 0xac6d483110db672e, 0x0ed9000eb3c2436b, 0x54649c80aa9ed6a6, 0x8828758d6db63758, 0x63054430a1d682bc, 0x76d584d9c40a5af4, 0xdd3cb5b109144c74, 0x3ff5311616f49ff2]),
    ("SP/nocdp", [0x2818eb0cf3c3a74a, 0x2818eb0cf3c3a74a, 0x2818eb0cf3c3a74a, 0x2818eb0cf3c3a74a, 0x2818eb0cf3c3a74a, 0x2818eb0cf3c3a74a, 0x2818eb0cf3c3a74a, 0x2818eb0cf3c3a74a, 0x2818eb0cf3c3a74a, 0x2818eb0cf3c3a74a, 0x2818eb0cf3c3a74a, 0x2818eb0cf3c3a74a, 0x2818eb0cf3c3a74a, 0x2818eb0cf3c3a74a, 0x2818eb0cf3c3a74a, 0x2818eb0cf3c3a74a, 0x2818eb0cf3c3a74a]),
    ("SSSP/cdp", [0x6d293b22d9bc0f8b, 0x743e0d1bb572ae8b, 0xf241f8b3be54223e, 0xb3d79bf3eae11979, 0x72adb50d2f44c3c2, 0x55b0aff3e50ce721, 0x4eabe12f68a952ec, 0x6f1dce462342c574, 0x340f16280be2099a, 0x3e75737ce00d219b, 0xab6852aeff5eba4f, 0x2131c604c281e52e, 0x7f22b4d320f97447, 0x19e5931e6d60a94e, 0xee0acace097ef120, 0x978e7bd04e22f51a, 0x92f392440d96cb6c]),
    ("SSSP/nocdp", [0x89d46d658e45b85c, 0x89d46d658e45b85c, 0x89d46d658e45b85c, 0x89d46d658e45b85c, 0x89d46d658e45b85c, 0x89d46d658e45b85c, 0x89d46d658e45b85c, 0x89d46d658e45b85c, 0x89d46d658e45b85c, 0x89d46d658e45b85c, 0x89d46d658e45b85c, 0x89d46d658e45b85c, 0x89d46d658e45b85c, 0x89d46d658e45b85c, 0x89d46d658e45b85c, 0x89d46d658e45b85c, 0x89d46d658e45b85c]),
    ("TC/cdp", [0xc4ffe95b60247e96, 0xc756ad0df22ebc7b, 0x26757bb358014125, 0xae114f79d4575e53, 0x532895cd513538cf, 0xd6ac548383979b96, 0xb49c962af3293d71, 0x7b3babef0c16acd7, 0x1bb26132bb6075b8, 0xfdc4ebecbba6388b, 0x673eaa32e2b73c4d, 0x30d9231efbe0c8e5, 0x3f4687e896653fdd, 0x676c9a44ede7a4b5, 0x443933459eac9809, 0x4f11dc6dccf48745, 0x454b6f022f9d6537]),
    ("TC/nocdp", [0x450fafca6b2eeffd, 0x450fafca6b2eeffd, 0x450fafca6b2eeffd, 0x450fafca6b2eeffd, 0x450fafca6b2eeffd, 0x450fafca6b2eeffd, 0x450fafca6b2eeffd, 0x450fafca6b2eeffd, 0x450fafca6b2eeffd, 0x450fafca6b2eeffd, 0x450fafca6b2eeffd, 0x450fafca6b2eeffd, 0x450fafca6b2eeffd, 0x450fafca6b2eeffd, 0x450fafca6b2eeffd, 0x450fafca6b2eeffd, 0x450fafca6b2eeffd]),
];

#[test]
fn workload_sources_compile_to_the_pinned_bytes() {
    let configs = configs();
    assert_eq!(configs.len(), 17);
    let (mut passes, mut bytecode) = (Vec::new(), Vec::new());
    for bench in all_benchmarks() {
        for (kind, source) in [
            ("cdp", bench.cdp_source()),
            ("nocdp", bench.no_cdp_source()),
        ] {
            let name = format!("{}/{kind}", bench.name());
            let (p, b): (Vec<u64>, Vec<u64>) =
                configs.iter().map(|(_, c)| digests(source, *c)).unzip();
            passes.push((name.clone(), p));
            bytecode.push((name, b));
        }
    }

    // Both columns are checked before either fails, so one run prints
    // every table that needs pasting.
    let mut report = String::new();
    for (what, fresh, expected) in [
        ("EXPECTED_PASSES", &passes, EXPECTED_PASSES),
        ("EXPECTED_BYTECODE", &bytecode, EXPECTED_BYTECODE),
    ] {
        let mut table = String::new();
        let mut mismatches = Vec::new();
        for (i, (name, row)) in fresh.iter().enumerate() {
            table.push_str(&format!("    (\"{name}\", ["));
            for (j, d) in row.iter().enumerate() {
                table.push_str(&format!("{d:#018x}, "));
                match expected.get(i) {
                    Some((exp_name, exp)) if exp_name == name && exp[j] == *d => {}
                    _ => mismatches.push(format!("{name} under {}", configs[j].0)),
                }
            }
            table.push_str("]),\n");
        }
        if !mismatches.is_empty() || fresh.len() != expected.len() {
            report.push_str(&format!(
                "{what} changed for: {mismatches:?}\nfresh {what}:\n{table}"
            ));
        }
    }
    assert!(report.is_empty(), "{report}");
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
        0xab47c059519afb84,
    );
}

#[test]
fn self_launching_kernel_under_aggregation() {
    check(
        "self-launch, A",
        SELF_LAUNCH,
        OptConfig::none().aggregation(AggConfig::new(AggGranularity::Block)),
        SELF_A,
        0x31feebbe0a521caa,
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
        0x0da534ba69333620,
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
        0x49dd2932e96db16f,
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
        0x244ea1cad7791ab9,
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

// ---------------------------------------------------------------------
// Generated-code paths no workload source reaches: full expected text.
// ---------------------------------------------------------------------

/// A child that returns early: thresholding moves its body into a
/// `_serial_body` function and coarsening into a `_coarsen_body` function,
/// so that `return` ends one virtual thread, not the loop around them all.
const EARLY_RETURN: &str = "\
__global__ void child(int* data, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) {
        return;
    }
    data[i] = data[i] + 1;
}

__global__ void parent(int* data, int* offsets, int numV) {
    int v = blockIdx.x * blockDim.x + threadIdx.x;
    if (v < numV) {
        int count = offsets[v + 1] - offsets[v];
        child<<<(count + 31) / 32, 32>>>(data, count);
    }
}
";

/// A child whose parameters are neither `int` nor `int*`: the generated
/// signatures, argument buffers and disaggregated parameter loads must
/// carry each type through unchanged.
const MIXED_PARAMS: &str = "\
__global__ void scale(float* out, long long base, int** rows, unsigned int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        int* row = rows[i];
        out[i] = out[i] * 2.0 + row[0] + base;
    }
}

__global__ void parent(float* out, int** rows, int* counts, int numV) {
    int v = blockIdx.x * blockDim.x + threadIdx.x;
    if (v < numV) {
        long long base = v;
        scale<<<(counts[v] + 31) / 32, 32>>>(out, base, rows, counts[v]);
    }
}
";

fn tca(granularity: AggGranularity, agg_threshold: Option<i64>) -> OptConfig {
    OptConfig::none()
        .threshold(128)
        .coarsen_factor(16)
        .aggregation(AggConfig {
            granularity,
            agg_threshold,
        })
}

#[test]
fn early_return_child_under_thresholding() {
    check(
        "early return, T",
        EARLY_RETURN,
        OptConfig::none().threshold(128),
        EARLY_RETURN_T,
        0x596cbd73d3450bec,
    );
}

#[test]
fn early_return_child_under_coarsening() {
    check(
        "early return, C",
        EARLY_RETURN,
        OptConfig::none().coarsen_factor(16),
        EARLY_RETURN_C,
        0x6f85755a35c235c1,
    );
}

#[test]
fn early_return_child_under_the_full_pipeline() {
    check(
        "early return, T+C+A",
        EARLY_RETURN,
        tca(AggGranularity::MultiBlock(8), None),
        EARLY_RETURN_TCA,
        0x0cc85aa36c5a2a4f,
    );
}

#[test]
fn mixed_parameter_types_under_the_full_pipeline() {
    check(
        "mixed params, T+C+A",
        MIXED_PARAMS,
        tca(AggGranularity::MultiBlock(8), None),
        MIXED_PARAMS_TCA,
        0x7546b204d1063034,
    );
}

#[test]
fn early_return_child_with_an_aggregation_threshold() {
    check(
        "early return, T+C+A block at 32",
        EARLY_RETURN,
        tca(AggGranularity::Block, Some(32)),
        EARLY_RETURN_TCA_AT32,
        0x60c1d4fad512bcf9,
    );
}

#[test]
fn mixed_parameter_types_with_an_aggregation_threshold() {
    check(
        "mixed params, T+C+A block at 32",
        MIXED_PARAMS,
        tca(AggGranularity::Block, Some(32)),
        MIXED_PARAMS_TCA_AT32,
        0x30e86bfb430665b9,
    );
}

const EARLY_RETURN_T: &str = "\
#define _THRESHOLD 128

__global__ void child(int* data, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) {
        return;
    }
    data[i] = data[i] + 1;
}

__device__ void child_serial(int* data, int n, dim3 _s_gDim, dim3 _s_bDim) {
    for (int _s_bz = 0; _s_bz < _s_gDim.z; ++_s_bz) {
        for (int _s_by = 0; _s_by < _s_gDim.y; ++_s_by) {
            for (int _s_bx = 0; _s_bx < _s_gDim.x; ++_s_bx) {
                for (int _s_tz = 0; _s_tz < _s_bDim.z; ++_s_tz) {
                    for (int _s_ty = 0; _s_ty < _s_bDim.y; ++_s_ty) {
                        for (int _s_tx = 0; _s_tx < _s_bDim.x; ++_s_tx) {
                            child_serial_body(data, n, _s_gDim, _s_bDim, _s_bz, _s_by, _s_bx, _s_tz, _s_ty, _s_tx);
                        }
                    }
                }
            }
        }
    }
}

__device__ void child_serial_body(int* data, int n, dim3 _s_gDim, dim3 _s_bDim, int _s_bz, int _s_by, int _s_bx, int _s_tz, int _s_ty, int _s_tx) {
    int i = _s_bx * _s_bDim.x + _s_tx;
    if (i >= n) {
        return;
    }
    data[i] = data[i] + 1;
}

__global__ void parent(int* data, int* offsets, int numV) {
    int v = blockIdx.x * blockDim.x + threadIdx.x;
    if (v < numV) {
        int count = offsets[v + 1] - offsets[v];
        int _threads0 = count;
        if (_threads0 >= _THRESHOLD) {
            child<<<(_threads0 + 31) / 32, 32>>>(data, count);
        }
        else {
            child_serial(data, count, (_threads0 + 31) / 32, 32);
        }
    }
}
";
const EARLY_RETURN_C: &str = "\
#define _CFACTOR 16

__device__ void _child_coarsen_body(int* data, int n, int _c_gDim, int _c_bx) {
    int i = _c_bx * blockDim.x + threadIdx.x;
    if (i >= n) {
        return;
    }
    data[i] = data[i] + 1;
}

__global__ void child(int* data, int n, int _c_gDim) {
    for (int _c_bx = blockIdx.x; _c_bx < _c_gDim; _c_bx += gridDim.x) {
        _child_coarsen_body(data, n, _c_gDim, _c_bx);
    }
}

__global__ void parent(int* data, int* offsets, int numV) {
    int v = blockIdx.x * blockDim.x + threadIdx.x;
    if (v < numV) {
        int count = offsets[v + 1] - offsets[v];
        {
            int _c_gDim0 = (count + 31) / 32;
            int _c_cgDim0 = (_c_gDim0 + _CFACTOR - 1) / _CFACTOR;
            child<<<_c_cgDim0, 32>>>(data, count, _c_gDim0);
        }
    }
}
";
const EARLY_RETURN_TCA: &str = "\
#define _AGG_GRANULARITY 8
#define _CFACTOR 16
#define _THRESHOLD 128

__device__ void _child_coarsen_body(int* data, int n, int _c_gDim, int _c_bx) {
    int i = _c_bx * blockDim.x + threadIdx.x;
    if (i >= n) {
        return;
    }
    data[i] = data[i] + 1;
}

__global__ void child(int* data, int n, int _c_gDim) {
    for (int _c_bx = blockIdx.x; _c_bx < _c_gDim; _c_bx += gridDim.x) {
        _child_coarsen_body(data, n, _c_gDim, _c_bx);
    }
}

__global__ void child_agg(int** _da_arr0, int* _da_arr1, int* _da_arr2, int* _da_scan, int* _da_bArr, int _da_np) {
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
    int _c_gDim = _da_arr2[_da_pi];
    int _da_gd = _da_scan[_da_pi] - _da_prev;
    int _da_bx = blockIdx.x - _da_prev;
    int _da_bd = _da_bArr[_da_pi];
    if (threadIdx.x < _da_bd) {
        for (int _c_bx = _da_bx; _c_bx < _c_gDim; _c_bx += _da_gd) {
            _child_coarsen_body(data, n, _c_gDim, _c_bx);
        }
    }
}

__device__ void child_serial(int* data, int n, dim3 _s_gDim, dim3 _s_bDim) {
    for (int _s_bz = 0; _s_bz < _s_gDim.z; ++_s_bz) {
        for (int _s_by = 0; _s_by < _s_gDim.y; ++_s_by) {
            for (int _s_bx = 0; _s_bx < _s_gDim.x; ++_s_bx) {
                for (int _s_tz = 0; _s_tz < _s_bDim.z; ++_s_tz) {
                    for (int _s_ty = 0; _s_ty < _s_bDim.y; ++_s_ty) {
                        for (int _s_tx = 0; _s_tx < _s_bDim.x; ++_s_tx) {
                            child_serial_body(data, n, _s_gDim, _s_bDim, _s_bz, _s_by, _s_bx, _s_tz, _s_ty, _s_tx);
                        }
                    }
                }
            }
        }
    }
}

__device__ void child_serial_body(int* data, int n, dim3 _s_gDim, dim3 _s_bDim, int _s_bz, int _s_by, int _s_bx, int _s_tz, int _s_ty, int _s_tx) {
    int i = _s_bx * _s_bDim.x + _s_tx;
    if (i >= n) {
        return;
    }
    data[i] = data[i] + 1;
}

__global__ void parent(int* data, int* offsets, int numV, int** _a_arr0_0, int* _a_arr0_1, int* _a_arr0_2, int* _a_scan0, int* _a_bArr0, long long* _a_ctr0, int* _a_maxB0, int* _a_fin0, int _a_slots0) {
    int _a_g0 = 0;
    int _a_b0 = 0;
    int* _a_arg0_0;
    int _a_arg0_1;
    int _a_arg0_2;
    int v = blockIdx.x * blockDim.x + threadIdx.x;
    if (v < numV) {
        int count = offsets[v + 1] - offsets[v];
        int _threads0 = count;
        if (_threads0 >= _THRESHOLD) {
            {
                int _c_gDim0 = (_threads0 + 31) / 32;
                int _c_cgDim0 = (_c_gDim0 + _CFACTOR - 1) / _CFACTOR;
                {
                    _a_g0 = _c_cgDim0;
                    _a_b0 = 32;
                    _a_arg0_0 = data;
                    _a_arg0_1 = count;
                    _a_arg0_2 = _c_gDim0;
                }
            }
        }
        else {
            child_serial(data, count, (_threads0 + 31) / 32, 32);
        }
    }
    int _a_grp0 = blockIdx.x / _AGG_GRANULARITY;
    int _a_base0 = _a_grp0 * _a_slots0;
    if (_a_g0 > 0) {
        long long _a_pk0 = atomicAdd(&_a_ctr0[_a_grp0], ((long long)1 << 32) + (long long)_a_g0);
        int _a_pi0 = (int)(_a_pk0 >> 32);
        int _a_sp0 = (int)(_a_pk0 & 4294967295);
        _a_arr0_0[_a_base0 + _a_pi0] = _a_arg0_0;
        _a_arr0_1[_a_base0 + _a_pi0] = _a_arg0_1;
        _a_arr0_2[_a_base0 + _a_pi0] = _a_arg0_2;
        _a_scan0[_a_base0 + _a_pi0] = _a_sp0 + _a_g0;
        _a_bArr0[_a_base0 + _a_pi0] = _a_b0;
        atomicMax(&_a_maxB0[_a_grp0], _a_b0);
    }
    __threadfence();
    __syncthreads();
    if (threadIdx.x == 0) {
        int _a_nfb0 = atomicAdd(&_a_fin0[_a_grp0], 1) + 1;
        int _a_gb0 = min(_AGG_GRANULARITY, gridDim.x - _a_grp0 * _AGG_GRANULARITY);
        if (_a_nfb0 == _a_gb0) {
            long long _a_pkf0 = _a_ctr0[_a_grp0];
            int _a_np0 = (int)(_a_pkf0 >> 32);
            int _a_tot0 = (int)(_a_pkf0 & 4294967295);
            if (_a_np0 > 0) {
                child_agg<<<_a_tot0, _a_maxB0[_a_grp0]>>>(_a_arr0_0 + _a_base0, _a_arr0_1 + _a_base0, _a_arr0_2 + _a_base0, _a_scan0 + _a_base0, _a_bArr0 + _a_base0, _a_np0);
            }
        }
    }
}
";
const MIXED_PARAMS_TCA: &str = "\
#define _AGG_GRANULARITY 8
#define _CFACTOR 16
#define _THRESHOLD 128

__global__ void scale(float* out, long long base, int** rows, unsigned int n, int _c_gDim) {
    for (int _c_bx = blockIdx.x; _c_bx < _c_gDim; _c_bx += gridDim.x) {
        int i = _c_bx * blockDim.x + threadIdx.x;
        if (i < n) {
            int* row = rows[i];
            out[i] = out[i] * 2.0 + row[0] + base;
        }
    }
}

__global__ void scale_agg(float** _da_arr0, long long* _da_arr1, int*** _da_arr2, unsigned int* _da_arr3, int* _da_arr4, int* _da_scan, int* _da_bArr, int _da_np) {
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
    float* out = _da_arr0[_da_pi];
    long long base = _da_arr1[_da_pi];
    int** rows = _da_arr2[_da_pi];
    unsigned int n = _da_arr3[_da_pi];
    int _c_gDim = _da_arr4[_da_pi];
    int _da_gd = _da_scan[_da_pi] - _da_prev;
    int _da_bx = blockIdx.x - _da_prev;
    int _da_bd = _da_bArr[_da_pi];
    if (threadIdx.x < _da_bd) {
        for (int _c_bx = _da_bx; _c_bx < _c_gDim; _c_bx += _da_gd) {
            int i = _c_bx * _da_bd + threadIdx.x;
            if (i < n) {
                int* row = rows[i];
                out[i] = out[i] * 2.0 + row[0] + base;
            }
        }
    }
}

__device__ void scale_serial(float* out, long long base, int** rows, unsigned int n, dim3 _s_gDim, dim3 _s_bDim) {
    for (int _s_bz = 0; _s_bz < _s_gDim.z; ++_s_bz) {
        for (int _s_by = 0; _s_by < _s_gDim.y; ++_s_by) {
            for (int _s_bx = 0; _s_bx < _s_gDim.x; ++_s_bx) {
                for (int _s_tz = 0; _s_tz < _s_bDim.z; ++_s_tz) {
                    for (int _s_ty = 0; _s_ty < _s_bDim.y; ++_s_ty) {
                        for (int _s_tx = 0; _s_tx < _s_bDim.x; ++_s_tx) {
                            int i = _s_bx * _s_bDim.x + _s_tx;
                            if (i < n) {
                                int* row = rows[i];
                                out[i] = out[i] * 2.0 + row[0] + base;
                            }
                        }
                    }
                }
            }
        }
    }
}

__global__ void parent(float* out, int** rows, int* counts, int numV, float** _a_arr0_0, long long* _a_arr0_1, int*** _a_arr0_2, unsigned int* _a_arr0_3, int* _a_arr0_4, int* _a_scan0, int* _a_bArr0, long long* _a_ctr0, int* _a_maxB0, int* _a_fin0, int _a_slots0) {
    int _a_g0 = 0;
    int _a_b0 = 0;
    float* _a_arg0_0;
    long long _a_arg0_1;
    int** _a_arg0_2;
    unsigned int _a_arg0_3;
    int _a_arg0_4;
    int v = blockIdx.x * blockDim.x + threadIdx.x;
    if (v < numV) {
        long long base = v;
        int _threads0 = counts[v];
        if (_threads0 >= _THRESHOLD) {
            {
                int _c_gDim0 = (_threads0 + 31) / 32;
                int _c_cgDim0 = (_c_gDim0 + _CFACTOR - 1) / _CFACTOR;
                {
                    _a_g0 = _c_cgDim0;
                    _a_b0 = 32;
                    _a_arg0_0 = out;
                    _a_arg0_1 = base;
                    _a_arg0_2 = rows;
                    _a_arg0_3 = counts[v];
                    _a_arg0_4 = _c_gDim0;
                }
            }
        }
        else {
            scale_serial(out, base, rows, counts[v], (_threads0 + 31) / 32, 32);
        }
    }
    int _a_grp0 = blockIdx.x / _AGG_GRANULARITY;
    int _a_base0 = _a_grp0 * _a_slots0;
    if (_a_g0 > 0) {
        long long _a_pk0 = atomicAdd(&_a_ctr0[_a_grp0], ((long long)1 << 32) + (long long)_a_g0);
        int _a_pi0 = (int)(_a_pk0 >> 32);
        int _a_sp0 = (int)(_a_pk0 & 4294967295);
        _a_arr0_0[_a_base0 + _a_pi0] = _a_arg0_0;
        _a_arr0_1[_a_base0 + _a_pi0] = _a_arg0_1;
        _a_arr0_2[_a_base0 + _a_pi0] = _a_arg0_2;
        _a_arr0_3[_a_base0 + _a_pi0] = _a_arg0_3;
        _a_arr0_4[_a_base0 + _a_pi0] = _a_arg0_4;
        _a_scan0[_a_base0 + _a_pi0] = _a_sp0 + _a_g0;
        _a_bArr0[_a_base0 + _a_pi0] = _a_b0;
        atomicMax(&_a_maxB0[_a_grp0], _a_b0);
    }
    __threadfence();
    __syncthreads();
    if (threadIdx.x == 0) {
        int _a_nfb0 = atomicAdd(&_a_fin0[_a_grp0], 1) + 1;
        int _a_gb0 = min(_AGG_GRANULARITY, gridDim.x - _a_grp0 * _AGG_GRANULARITY);
        if (_a_nfb0 == _a_gb0) {
            long long _a_pkf0 = _a_ctr0[_a_grp0];
            int _a_np0 = (int)(_a_pkf0 >> 32);
            int _a_tot0 = (int)(_a_pkf0 & 4294967295);
            if (_a_np0 > 0) {
                scale_agg<<<_a_tot0, _a_maxB0[_a_grp0]>>>(_a_arr0_0 + _a_base0, _a_arr0_1 + _a_base0, _a_arr0_2 + _a_base0, _a_arr0_3 + _a_base0, _a_arr0_4 + _a_base0, _a_scan0 + _a_base0, _a_bArr0 + _a_base0, _a_np0);
            }
        }
    }
}
";
const EARLY_RETURN_TCA_AT32: &str = "\
#define _AGG_THRESHOLD 32
#define _CFACTOR 16
#define _THRESHOLD 128

__device__ void _child_coarsen_body(int* data, int n, int _c_gDim, int _c_bx) {
    int i = _c_bx * blockDim.x + threadIdx.x;
    if (i >= n) {
        return;
    }
    data[i] = data[i] + 1;
}

__global__ void child(int* data, int n, int _c_gDim) {
    for (int _c_bx = blockIdx.x; _c_bx < _c_gDim; _c_bx += gridDim.x) {
        _child_coarsen_body(data, n, _c_gDim, _c_bx);
    }
}

__global__ void child_agg(int** _da_arr0, int* _da_arr1, int* _da_arr2, int* _da_scan, int* _da_bArr, int _da_np) {
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
    int _c_gDim = _da_arr2[_da_pi];
    int _da_gd = _da_scan[_da_pi] - _da_prev;
    int _da_bx = blockIdx.x - _da_prev;
    int _da_bd = _da_bArr[_da_pi];
    if (threadIdx.x < _da_bd) {
        for (int _c_bx = _da_bx; _c_bx < _c_gDim; _c_bx += _da_gd) {
            _child_coarsen_body(data, n, _c_gDim, _c_bx);
        }
    }
}

__device__ void child_serial(int* data, int n, dim3 _s_gDim, dim3 _s_bDim) {
    for (int _s_bz = 0; _s_bz < _s_gDim.z; ++_s_bz) {
        for (int _s_by = 0; _s_by < _s_gDim.y; ++_s_by) {
            for (int _s_bx = 0; _s_bx < _s_gDim.x; ++_s_bx) {
                for (int _s_tz = 0; _s_tz < _s_bDim.z; ++_s_tz) {
                    for (int _s_ty = 0; _s_ty < _s_bDim.y; ++_s_ty) {
                        for (int _s_tx = 0; _s_tx < _s_bDim.x; ++_s_tx) {
                            child_serial_body(data, n, _s_gDim, _s_bDim, _s_bz, _s_by, _s_bx, _s_tz, _s_ty, _s_tx);
                        }
                    }
                }
            }
        }
    }
}

__device__ void child_serial_body(int* data, int n, dim3 _s_gDim, dim3 _s_bDim, int _s_bz, int _s_by, int _s_bx, int _s_tz, int _s_ty, int _s_tx) {
    int i = _s_bx * _s_bDim.x + _s_tx;
    if (i >= n) {
        return;
    }
    data[i] = data[i] + 1;
}

__global__ void parent(int* data, int* offsets, int numV, int** _a_arr0_0, int* _a_arr0_1, int* _a_arr0_2, int* _a_scan0, int* _a_bArr0, long long* _a_ctr0, int* _a_maxB0, int* _a_part0, int _a_slots0) {
    int _a_g0 = 0;
    int _a_b0 = 0;
    int* _a_arg0_0;
    int _a_arg0_1;
    int _a_arg0_2;
    int v = blockIdx.x * blockDim.x + threadIdx.x;
    if (v < numV) {
        int count = offsets[v + 1] - offsets[v];
        int _threads0 = count;
        if (_threads0 >= _THRESHOLD) {
            {
                int _c_gDim0 = (_threads0 + 31) / 32;
                int _c_cgDim0 = (_c_gDim0 + _CFACTOR - 1) / _CFACTOR;
                {
                    _a_g0 = _c_cgDim0;
                    _a_b0 = 32;
                    _a_arg0_0 = data;
                    _a_arg0_1 = count;
                    _a_arg0_2 = _c_gDim0;
                }
            }
        }
        else {
            child_serial(data, count, (_threads0 + 31) / 32, 32);
        }
    }
    int _a_grp0 = blockIdx.x;
    int _a_base0 = _a_grp0 * _a_slots0;
    if (_a_g0 > 0) {
        atomicAdd(&_a_part0[_a_grp0], 1);
    }
    __syncthreads();
    if (_a_part0[_a_grp0] >= _AGG_THRESHOLD) {
        if (_a_g0 > 0) {
            long long _a_pk0 = atomicAdd(&_a_ctr0[_a_grp0], ((long long)1 << 32) + (long long)_a_g0);
            int _a_pi0 = (int)(_a_pk0 >> 32);
            int _a_sp0 = (int)(_a_pk0 & 4294967295);
            _a_arr0_0[_a_base0 + _a_pi0] = _a_arg0_0;
            _a_arr0_1[_a_base0 + _a_pi0] = _a_arg0_1;
            _a_arr0_2[_a_base0 + _a_pi0] = _a_arg0_2;
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
                child_agg<<<_a_tot0, _a_maxB0[_a_grp0]>>>(_a_arr0_0 + _a_base0, _a_arr0_1 + _a_base0, _a_arr0_2 + _a_base0, _a_scan0 + _a_base0, _a_bArr0 + _a_base0, _a_np0);
            }
        }
    }
    else {
        if (_a_g0 > 0) {
            child<<<_a_g0, _a_b0>>>(_a_arg0_0, _a_arg0_1, _a_arg0_2);
        }
    }
}
";
const MIXED_PARAMS_TCA_AT32: &str = "\
#define _AGG_THRESHOLD 32
#define _CFACTOR 16
#define _THRESHOLD 128

__global__ void scale(float* out, long long base, int** rows, unsigned int n, int _c_gDim) {
    for (int _c_bx = blockIdx.x; _c_bx < _c_gDim; _c_bx += gridDim.x) {
        int i = _c_bx * blockDim.x + threadIdx.x;
        if (i < n) {
            int* row = rows[i];
            out[i] = out[i] * 2.0 + row[0] + base;
        }
    }
}

__global__ void scale_agg(float** _da_arr0, long long* _da_arr1, int*** _da_arr2, unsigned int* _da_arr3, int* _da_arr4, int* _da_scan, int* _da_bArr, int _da_np) {
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
    float* out = _da_arr0[_da_pi];
    long long base = _da_arr1[_da_pi];
    int** rows = _da_arr2[_da_pi];
    unsigned int n = _da_arr3[_da_pi];
    int _c_gDim = _da_arr4[_da_pi];
    int _da_gd = _da_scan[_da_pi] - _da_prev;
    int _da_bx = blockIdx.x - _da_prev;
    int _da_bd = _da_bArr[_da_pi];
    if (threadIdx.x < _da_bd) {
        for (int _c_bx = _da_bx; _c_bx < _c_gDim; _c_bx += _da_gd) {
            int i = _c_bx * _da_bd + threadIdx.x;
            if (i < n) {
                int* row = rows[i];
                out[i] = out[i] * 2.0 + row[0] + base;
            }
        }
    }
}

__device__ void scale_serial(float* out, long long base, int** rows, unsigned int n, dim3 _s_gDim, dim3 _s_bDim) {
    for (int _s_bz = 0; _s_bz < _s_gDim.z; ++_s_bz) {
        for (int _s_by = 0; _s_by < _s_gDim.y; ++_s_by) {
            for (int _s_bx = 0; _s_bx < _s_gDim.x; ++_s_bx) {
                for (int _s_tz = 0; _s_tz < _s_bDim.z; ++_s_tz) {
                    for (int _s_ty = 0; _s_ty < _s_bDim.y; ++_s_ty) {
                        for (int _s_tx = 0; _s_tx < _s_bDim.x; ++_s_tx) {
                            int i = _s_bx * _s_bDim.x + _s_tx;
                            if (i < n) {
                                int* row = rows[i];
                                out[i] = out[i] * 2.0 + row[0] + base;
                            }
                        }
                    }
                }
            }
        }
    }
}

__global__ void parent(float* out, int** rows, int* counts, int numV, float** _a_arr0_0, long long* _a_arr0_1, int*** _a_arr0_2, unsigned int* _a_arr0_3, int* _a_arr0_4, int* _a_scan0, int* _a_bArr0, long long* _a_ctr0, int* _a_maxB0, int* _a_part0, int _a_slots0) {
    int _a_g0 = 0;
    int _a_b0 = 0;
    float* _a_arg0_0;
    long long _a_arg0_1;
    int** _a_arg0_2;
    unsigned int _a_arg0_3;
    int _a_arg0_4;
    int v = blockIdx.x * blockDim.x + threadIdx.x;
    if (v < numV) {
        long long base = v;
        int _threads0 = counts[v];
        if (_threads0 >= _THRESHOLD) {
            {
                int _c_gDim0 = (_threads0 + 31) / 32;
                int _c_cgDim0 = (_c_gDim0 + _CFACTOR - 1) / _CFACTOR;
                {
                    _a_g0 = _c_cgDim0;
                    _a_b0 = 32;
                    _a_arg0_0 = out;
                    _a_arg0_1 = base;
                    _a_arg0_2 = rows;
                    _a_arg0_3 = counts[v];
                    _a_arg0_4 = _c_gDim0;
                }
            }
        }
        else {
            scale_serial(out, base, rows, counts[v], (_threads0 + 31) / 32, 32);
        }
    }
    int _a_grp0 = blockIdx.x;
    int _a_base0 = _a_grp0 * _a_slots0;
    if (_a_g0 > 0) {
        atomicAdd(&_a_part0[_a_grp0], 1);
    }
    __syncthreads();
    if (_a_part0[_a_grp0] >= _AGG_THRESHOLD) {
        if (_a_g0 > 0) {
            long long _a_pk0 = atomicAdd(&_a_ctr0[_a_grp0], ((long long)1 << 32) + (long long)_a_g0);
            int _a_pi0 = (int)(_a_pk0 >> 32);
            int _a_sp0 = (int)(_a_pk0 & 4294967295);
            _a_arr0_0[_a_base0 + _a_pi0] = _a_arg0_0;
            _a_arr0_1[_a_base0 + _a_pi0] = _a_arg0_1;
            _a_arr0_2[_a_base0 + _a_pi0] = _a_arg0_2;
            _a_arr0_3[_a_base0 + _a_pi0] = _a_arg0_3;
            _a_arr0_4[_a_base0 + _a_pi0] = _a_arg0_4;
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
                scale_agg<<<_a_tot0, _a_maxB0[_a_grp0]>>>(_a_arr0_0 + _a_base0, _a_arr0_1 + _a_base0, _a_arr0_2 + _a_base0, _a_arr0_3 + _a_base0, _a_arr0_4 + _a_base0, _a_scan0 + _a_base0, _a_bArr0 + _a_base0, _a_np0);
            }
        }
    }
    else {
        if (_a_g0 > 0) {
            scale<<<_a_g0, _a_b0>>>(_a_arg0_0, _a_arg0_1, _a_arg0_2, _a_arg0_3, _a_arg0_4);
        }
    }
}
";

// ---------------------------------------------------------------------
// Hygiene: a generated name never captures or rebinds a user's name.
// ---------------------------------------------------------------------

/// The parent every hygiene counter-example shares: each vertex's child
/// grid adds one to its own slice of `data`, so the final memory does not
/// depend on the order the grids run in.
const HYGIENE_PARENT: &str = "
__global__ void parent(int* data, int* offsets, int numV) {
    int v = blockIdx.x * blockDim.x + threadIdx.x;
    if (v < numV) {
        int count = offsets[v + 1] - offsets[v];
        child<<<(count + 31) / 32, 32>>>(data + offsets[v], count);
    }
}
";

/// A child local named like the disaggregated block index.
const CHILD_LOCAL_DA_BX: &str = "\
__global__ void child(int* data, int n) {
    int _da_bx = 0;
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        data[i] = data[i] + 1 + _da_bx;
    }
}
";

/// A child parameter named like the binary search's result.
const CHILD_PARAM_DA_PI: &str = "\
__global__ void child(int* data, int _da_pi) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < _da_pi) {
        data[i] = data[i] + 1;
    }
}
";

/// A parent local named like the participation count.
const PARENT_LOCAL_A_G0: &str = "\
__global__ void child(int* data, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        data[i] = data[i] + 1;
    }
}

__global__ void parent(int* data, int* offsets, int numV) {
    int _a_g0 = blockIdx.x * blockDim.x + threadIdx.x;
    if (_a_g0 < numV) {
        int count = offsets[_a_g0 + 1] - offsets[_a_g0];
        child<<<(count + 31) / 32, 32>>>(data + offsets[_a_g0], count);
    }
}
";

fn agg_block() -> OptConfig {
    OptConfig::none().aggregation(AggConfig::new(AggGranularity::Block))
}

#[test]
fn a_child_local_does_not_capture_the_disaggregated_block_index() {
    check(
        "child local _da_bx",
        &format!("{CHILD_LOCAL_DA_BX}{HYGIENE_PARENT}"),
        agg_block(),
        HYGIENE_DA_BX,
        0xe056152c166c0ae5,
    );
}

#[test]
fn a_child_parameter_does_not_rebind_the_search_result() {
    check(
        "child parameter _da_pi",
        &format!("{CHILD_PARAM_DA_PI}{HYGIENE_PARENT}"),
        agg_block(),
        HYGIENE_DA_PI,
        0xedd79478136b6ade,
    );
}

#[test]
fn a_parent_local_does_not_rebind_the_participation_count() {
    check(
        "parent local _a_g0",
        PARENT_LOCAL_A_G0,
        agg_block(),
        HYGIENE_A_G0,
        0xdf85ac314525d85c,
    );
}

/// A user function named like thresholding's serial child.
const USER_CHILD_SERIAL: &str = "\
__global__ void child(int* data, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        data[i] = data[i] + 1;
    }
}

__device__ void child_serial(int* data, int n) {
    data[0] = n;
}
";

/// A user function named like coarsening's body function, beside a child
/// that returns early (so the pass generates one).
const USER_COARSEN_BODY: &str = "\
__global__ void child(int* data, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) {
        return;
    }
    data[i] = data[i] + 1;
}

__device__ void _child_coarsen_body(int* data, int n) {
    data[0] = n;
}
";

/// A user kernel named like the aggregated child, taking as many
/// arguments as the aggregated launch passes.
const USER_CHILD_AGG: &str = "\
__global__ void child(int* data, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        data[i] = data[i] + 1;
    }
}

__global__ void child_agg(int* a, int* b, int* c, int* d, int e) {
    a[threadIdx.x] = e;
}
";

fn threshold_64() -> OptConfig {
    OptConfig::none().threshold(64)
}

fn coarsen_2() -> OptConfig {
    OptConfig::none().coarsen_factor(2)
}

/// Each function a pass generates is named fresh against the program's
/// functions: the serial child is `child_serial_2` beside the user's
/// `child_serial`, which nothing calls.
#[test]
fn a_user_child_serial_keeps_its_name() {
    check(
        "user child_serial",
        &format!("{USER_CHILD_SERIAL}{HYGIENE_PARENT}"),
        threshold_64(),
        HYGIENE_CHILD_SERIAL,
        0x9a5aecfff1262eb6,
    );
}

/// Likewise coarsening's body function.
#[test]
fn a_user_coarsen_body_keeps_its_name() {
    check(
        "user _child_coarsen_body",
        &format!("{USER_COARSEN_BODY}{HYGIENE_PARENT}"),
        coarsen_2(),
        HYGIENE_COARSEN_BODY,
        0xb9ef08ea185acbda,
    );
}

/// And the aggregated child: the parent launches the generated
/// `child_agg_2`, not the user's `child_agg`.
#[test]
fn a_user_child_agg_is_not_taken_for_the_aggregated_child() {
    check(
        "user child_agg",
        &format!("{USER_CHILD_AGG}{HYGIENE_PARENT}"),
        agg_block(),
        HYGIENE_CHILD_AGG,
        0x6f35bb1a1ffb65cd,
    );
}

/// Runs `parent` over four vertices whose child grids are 40, 5, 65 and
/// 40 threads wide, from two blocks of four parent threads (the second
/// block has no vertex), and returns `data`.
fn run_hygiene_case(source: &str, config: OptConfig) -> Vec<i64> {
    let compiled = Compiler::new()
        .config(config)
        .compile(source)
        .expect("compiles");
    let mut exec = compiled.executor();
    let data = exec.alloc(150);
    let offsets = exec.alloc_i64s(&[0, 40, 45, 110, 150]);
    let args = [Value::Int(data), Value::Int(offsets), Value::Int(4)];
    exec.launch("parent", 2, 4, &args).expect("launches");
    exec.sync().expect("runs");
    exec.read_i64s(data, 150).expect("reads")
}

#[test]
fn each_capture_counter_example_runs_as_written() {
    let with_parent = |child: &str| format!("{child}{HYGIENE_PARENT}");
    for (what, source, config) in [
        (
            "child local _da_bx",
            with_parent(CHILD_LOCAL_DA_BX),
            agg_block(),
        ),
        (
            "child parameter _da_pi",
            with_parent(CHILD_PARAM_DA_PI),
            agg_block(),
        ),
        (
            "parent local _a_g0",
            PARENT_LOCAL_A_G0.to_string(),
            agg_block(),
        ),
        (
            "user child_serial",
            with_parent(USER_CHILD_SERIAL),
            threshold_64(),
        ),
        (
            "user _child_coarsen_body",
            with_parent(USER_COARSEN_BODY),
            coarsen_2(),
        ),
        ("user child_agg", with_parent(USER_CHILD_AGG), agg_block()),
    ] {
        let untransformed = run_hygiene_case(&source, OptConfig::none());
        assert_eq!(untransformed, vec![1; 150], "{what}: untransformed");
        assert_eq!(
            run_hygiene_case(&source, config),
            untransformed,
            "{what}: transformed"
        );
    }
}

const HYGIENE_DA_BX: &str = "\
__global__ void child(int* data, int n) {
    int _da_bx = 0;
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        data[i] = data[i] + 1 + _da_bx;
    }
}

__global__ void child_agg(int** _da_arr0, int* _da_arr1, int* _da_scan, int* _da_bArr, int _da_np) {
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
    int _da_bx_2 = blockIdx.x - _da_prev;
    int _da_bd = _da_bArr[_da_pi];
    if (threadIdx.x < _da_bd) {
        int _da_bx = 0;
        int i = _da_bx_2 * _da_bd + threadIdx.x;
        if (i < n) {
            data[i] = data[i] + 1 + _da_bx;
        }
    }
}

__global__ void parent(int* data, int* offsets, int numV, int** _a_arr0_0, int* _a_arr0_1, int* _a_scan0, int* _a_bArr0, long long* _a_ctr0, int* _a_maxB0, int _a_slots0) {
    int _a_g0 = 0;
    int _a_b0 = 0;
    int* _a_arg0_0;
    int _a_arg0_1;
    int v = blockIdx.x * blockDim.x + threadIdx.x;
    if (v < numV) {
        int count = offsets[v + 1] - offsets[v];
        {
            _a_g0 = (count + 31) / 32;
            _a_b0 = 32;
            _a_arg0_0 = data + offsets[v];
            _a_arg0_1 = count;
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
            child_agg<<<_a_tot0, _a_maxB0[_a_grp0]>>>(_a_arr0_0 + _a_base0, _a_arr0_1 + _a_base0, _a_scan0 + _a_base0, _a_bArr0 + _a_base0, _a_np0);
        }
    }
}
";
const HYGIENE_DA_PI: &str = "\
__global__ void child(int* data, int _da_pi) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < _da_pi) {
        data[i] = data[i] + 1;
    }
}

__global__ void child_agg(int** _da_arr0, int* _da_arr1, int* _da_scan, int* _da_bArr, int _da_np) {
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
    int _da_pi_2 = _da_lo;
    int _da_prev = 0;
    if (_da_pi_2 > 0) {
        _da_prev = _da_scan[_da_pi_2 - 1];
    }
    int* data = _da_arr0[_da_pi_2];
    int _da_pi = _da_arr1[_da_pi_2];
    int _da_gd = _da_scan[_da_pi_2] - _da_prev;
    int _da_bx = blockIdx.x - _da_prev;
    int _da_bd = _da_bArr[_da_pi_2];
    if (threadIdx.x < _da_bd) {
        int i = _da_bx * _da_bd + threadIdx.x;
        if (i < _da_pi) {
            data[i] = data[i] + 1;
        }
    }
}

__global__ void parent(int* data, int* offsets, int numV, int** _a_arr0_0, int* _a_arr0_1, int* _a_scan0, int* _a_bArr0, long long* _a_ctr0, int* _a_maxB0, int _a_slots0) {
    int _a_g0 = 0;
    int _a_b0 = 0;
    int* _a_arg0_0;
    int _a_arg0_1;
    int v = blockIdx.x * blockDim.x + threadIdx.x;
    if (v < numV) {
        int count = offsets[v + 1] - offsets[v];
        {
            _a_g0 = (count + 31) / 32;
            _a_b0 = 32;
            _a_arg0_0 = data + offsets[v];
            _a_arg0_1 = count;
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
            child_agg<<<_a_tot0, _a_maxB0[_a_grp0]>>>(_a_arr0_0 + _a_base0, _a_arr0_1 + _a_base0, _a_scan0 + _a_base0, _a_bArr0 + _a_base0, _a_np0);
        }
    }
}
";
const HYGIENE_A_G0: &str = "\
__global__ void child(int* data, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        data[i] = data[i] + 1;
    }
}

__global__ void child_agg(int** _da_arr0, int* _da_arr1, int* _da_scan, int* _da_bArr, int _da_np) {
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
        }
    }
}

__global__ void parent(int* data, int* offsets, int numV, int** _a_arr0_0, int* _a_arr0_1, int* _a_scan0, int* _a_bArr0, long long* _a_ctr0, int* _a_maxB0, int _a_slots0) {
    int _a_g0_2 = 0;
    int _a_b0 = 0;
    int* _a_arg0_0;
    int _a_arg0_1;
    int _a_g0 = blockIdx.x * blockDim.x + threadIdx.x;
    if (_a_g0 < numV) {
        int count = offsets[_a_g0 + 1] - offsets[_a_g0];
        {
            _a_g0_2 = (count + 31) / 32;
            _a_b0 = 32;
            _a_arg0_0 = data + offsets[_a_g0];
            _a_arg0_1 = count;
        }
    }
    int _a_grp0 = blockIdx.x;
    int _a_base0 = _a_grp0 * _a_slots0;
    if (_a_g0_2 > 0) {
        long long _a_pk0 = atomicAdd(&_a_ctr0[_a_grp0], ((long long)1 << 32) + (long long)_a_g0_2);
        int _a_pi0 = (int)(_a_pk0 >> 32);
        int _a_sp0 = (int)(_a_pk0 & 4294967295);
        _a_arr0_0[_a_base0 + _a_pi0] = _a_arg0_0;
        _a_arr0_1[_a_base0 + _a_pi0] = _a_arg0_1;
        _a_scan0[_a_base0 + _a_pi0] = _a_sp0 + _a_g0_2;
        _a_bArr0[_a_base0 + _a_pi0] = _a_b0;
        atomicMax(&_a_maxB0[_a_grp0], _a_b0);
    }
    __syncthreads();
    if (threadIdx.x == 0) {
        long long _a_pkf0 = _a_ctr0[_a_grp0];
        int _a_np0 = (int)(_a_pkf0 >> 32);
        int _a_tot0 = (int)(_a_pkf0 & 4294967295);
        if (_a_np0 > 0) {
            child_agg<<<_a_tot0, _a_maxB0[_a_grp0]>>>(_a_arr0_0 + _a_base0, _a_arr0_1 + _a_base0, _a_scan0 + _a_base0, _a_bArr0 + _a_base0, _a_np0);
        }
    }
}
";
const HYGIENE_CHILD_SERIAL: &str = "\
#define _THRESHOLD 64

__global__ void child(int* data, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        data[i] = data[i] + 1;
    }
}

__device__ void child_serial_2(int* data, int n, dim3 _s_gDim, dim3 _s_bDim) {
    for (int _s_bz = 0; _s_bz < _s_gDim.z; ++_s_bz) {
        for (int _s_by = 0; _s_by < _s_gDim.y; ++_s_by) {
            for (int _s_bx = 0; _s_bx < _s_gDim.x; ++_s_bx) {
                for (int _s_tz = 0; _s_tz < _s_bDim.z; ++_s_tz) {
                    for (int _s_ty = 0; _s_ty < _s_bDim.y; ++_s_ty) {
                        for (int _s_tx = 0; _s_tx < _s_bDim.x; ++_s_tx) {
                            int i = _s_bx * _s_bDim.x + _s_tx;
                            if (i < n) {
                                data[i] = data[i] + 1;
                            }
                        }
                    }
                }
            }
        }
    }
}

__device__ void child_serial(int* data, int n) {
    data[0] = n;
}

__global__ void parent(int* data, int* offsets, int numV) {
    int v = blockIdx.x * blockDim.x + threadIdx.x;
    if (v < numV) {
        int count = offsets[v + 1] - offsets[v];
        int _threads0 = count;
        if (_threads0 >= _THRESHOLD) {
            child<<<(_threads0 + 31) / 32, 32>>>(data + offsets[v], count);
        }
        else {
            child_serial_2(data + offsets[v], count, (_threads0 + 31) / 32, 32);
        }
    }
}
";
const HYGIENE_COARSEN_BODY: &str = "\
#define _CFACTOR 2

__device__ void _child_coarsen_body_2(int* data, int n, int _c_gDim, int _c_bx) {
    int i = _c_bx * blockDim.x + threadIdx.x;
    if (i >= n) {
        return;
    }
    data[i] = data[i] + 1;
}

__global__ void child(int* data, int n, int _c_gDim) {
    for (int _c_bx = blockIdx.x; _c_bx < _c_gDim; _c_bx += gridDim.x) {
        _child_coarsen_body_2(data, n, _c_gDim, _c_bx);
    }
}

__device__ void _child_coarsen_body(int* data, int n) {
    data[0] = n;
}

__global__ void parent(int* data, int* offsets, int numV) {
    int v = blockIdx.x * blockDim.x + threadIdx.x;
    if (v < numV) {
        int count = offsets[v + 1] - offsets[v];
        {
            int _c_gDim0 = (count + 31) / 32;
            int _c_cgDim0 = (_c_gDim0 + _CFACTOR - 1) / _CFACTOR;
            child<<<_c_cgDim0, 32>>>(data + offsets[v], count, _c_gDim0);
        }
    }
}
";
const HYGIENE_CHILD_AGG: &str = "\
__global__ void child(int* data, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        data[i] = data[i] + 1;
    }
}

__global__ void child_agg_2(int** _da_arr0, int* _da_arr1, int* _da_scan, int* _da_bArr, int _da_np) {
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
        }
    }
}

__global__ void child_agg(int* a, int* b, int* c, int* d, int e) {
    a[threadIdx.x] = e;
}

__global__ void parent(int* data, int* offsets, int numV, int** _a_arr0_0, int* _a_arr0_1, int* _a_scan0, int* _a_bArr0, long long* _a_ctr0, int* _a_maxB0, int _a_slots0) {
    int _a_g0 = 0;
    int _a_b0 = 0;
    int* _a_arg0_0;
    int _a_arg0_1;
    int v = blockIdx.x * blockDim.x + threadIdx.x;
    if (v < numV) {
        int count = offsets[v + 1] - offsets[v];
        {
            _a_g0 = (count + 31) / 32;
            _a_b0 = 32;
            _a_arg0_0 = data + offsets[v];
            _a_arg0_1 = count;
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
            child_agg_2<<<_a_tot0, _a_maxB0[_a_grp0]>>>(_a_arr0_0 + _a_base0, _a_arr0_1 + _a_base0, _a_scan0 + _a_base0, _a_bArr0 + _a_base0, _a_np0);
        }
    }
}
";
