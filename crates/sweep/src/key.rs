//! Content-addressed cache keys — the **single definition** of how a unit
//! of work is hashed, shared by the on-disk sweep result cache
//! ([`crate::cache`]) and the in-memory compiled-program cache of the
//! `dp-serve` daemon. Both subsystems key by the same canonical strings and
//! the same [`CACHE_FORMAT_VERSION`], so their notions of "identical work"
//! can never drift apart.
//!
//! A key hashes, via stable 64-bit FNV-1a:
//!
//! - the cache **format version** ([`CACHE_FORMAT_VERSION`] — bump when the
//!   summary schema, the VM/simulator semantics, or the cost-model meaning
//!   changes),
//! - the **source text** the variant executes (editing a kernel invalidates
//!   exactly its cells),
//! - the **variant configuration** (thresholding/coarsening/aggregation),
//! - for full sweep cells, additionally the **dataset identity**
//!   (Table-I id + scale + seed, or a content digest for caller-provided
//!   inputs), the **timing parameters**, and the **instruction cost model**
//!   (every field value participates, so any recalibration recomputes).
//!
//! The digests are pinned by unit tests below: changing any canonical
//! string or the hash function is a format break and must come with a
//! [`CACHE_FORMAT_VERSION`] bump.

use crate::DatasetSpec;
use dp_core::{AggGranularity, OptConfig, TimingParams};
use dp_vm::bytecode::CostModel;
use dp_workloads::benchmarks::Variant;
use dp_workloads::BenchInput;
use std::fmt::{self, Write as _};

/// Bump to invalidate every cached summary and compiled-program cache entry
/// (schema or semantics change).
pub const CACHE_FORMAT_VERSION: u32 = 2;

/// 64-bit FNV-1a over a byte string — stable across builds and platforms.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::default();
    hash.update(bytes);
    hash.0
}

/// FNV-1a fed piecewise. As a [`fmt::Write`] it hashes a canonical string
/// while `write!` renders it, so a key never builds the string it digests:
/// the digest of the pieces is the digest of their concatenation.
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest of what `args` renders.
    fn of(args: fmt::Arguments) -> u64 {
        let mut hash = Fnv1a::default();
        // Writing to a hasher cannot fail.
        let _ = hash.write_fmt(args);
        hash.0
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Content digest of a caller-provided input (used when a sweep runs on an
/// in-memory dataset rather than a Table-I id).
pub fn digest_input(input: &BenchInput) -> u64 {
    // Each vector is written as `len[v0,v1,...];` so field boundaries are
    // unambiguous — without the length prefix, moving an element between
    // adjacent vectors would collide.
    fn field(canon: &mut String, values: &[i64]) {
        canon.push_str(&format!("{}[", values.len()));
        for v in values {
            canon.push_str(&format!("{v},"));
        }
        canon.push_str("];");
    }
    let mut canon = String::new();
    match input {
        BenchInput::Graph(g) => {
            canon.push_str("graph;");
            field(&mut canon, &g.offsets);
            field(&mut canon, &g.edges);
            field(&mut canon, &g.weights);
        }
        BenchInput::Sat(f) => {
            canon.push_str(&format!("sat;vars={};", f.num_vars));
            field(&mut canon, &f.clause_offsets);
            field(&mut canon, &f.lits);
            field(&mut canon, &f.signs);
            field(&mut canon, &f.var_offsets);
            field(&mut canon, &f.occ_clauses);
        }
        BenchInput::Bezier(b) => {
            canon.push_str(&format!(
                "bezier;tess={};curv={};",
                b.max_tess,
                b.curvature_scale.to_bits()
            ));
            canon.push_str(&format!("{}[", b.control_points.len()));
            for p in &b.control_points {
                canon.push_str(&format!("{},", p.to_bits()));
            }
            canon.push_str("];");
        }
    }
    fnv1a(canon.as_bytes())
}

/// Canonical string for an aggregation granularity — also the wire format
/// of the serve protocol's `agg` member (one definition, guarded by the
/// pinned-digest tests below).
pub fn canonical_granularity(g: AggGranularity) -> String {
    Granularity(g).to_string()
}

/// Canonical string for an optimization configuration.
pub fn canonical_config(config: &OptConfig) -> String {
    Config(config).to_string()
}

/// Canonical string for a variant (No-CDP, or CDP with a configuration).
pub fn canonical_variant(variant: &Variant) -> String {
    VariantCanon(variant).to_string()
}

// The canonical strings above as `Display`, so a key renders them straight
// into its hasher.

struct Granularity(AggGranularity);

impl fmt::Display for Granularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            AggGranularity::Warp => f.write_str("warp"),
            AggGranularity::Block => f.write_str("block"),
            AggGranularity::MultiBlock(n) => write!(f, "multiblock:{n}"),
            AggGranularity::Grid => f.write_str("grid"),
        }
    }
}

/// A setting, or `none` when it is off.
struct OrNone<T>(Option<T>);

impl<T: fmt::Display> fmt::Display for OrNone<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(v) => write!(f, "{v}"),
            None => f.write_str("none"),
        }
    }
}

struct Config<'a>(&'a OptConfig);

impl fmt::Display for Config<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let config = self.0;
        write!(
            f,
            "t={};c={};a=",
            OrNone(config.threshold),
            OrNone(config.coarsen_factor)
        )?;
        match &config.aggregation {
            None => f.write_str("none"),
            Some(a) => write!(
                f,
                "{}/{}",
                Granularity(a.granularity),
                OrNone(a.agg_threshold)
            ),
        }
    }
}

struct VariantCanon<'a>(&'a Variant);

impl fmt::Display for VariantCanon<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Variant::NoCdp => f.write_str("nocdp"),
            Variant::Cdp(config) => write!(f, "cdp[{}]", Config(config)),
        }
    }
}

/// Canonical string for the timing parameters (public so callers can
/// compare models for equality — `TimingParams` has no `PartialEq`).
pub fn canonical_timing(t: &TimingParams) -> String {
    Timing(t).to_string()
}

/// Canonical string for the instruction cost model (public for the same
/// reason as [`canonical_timing`]).
pub fn canonical_cost(c: &CostModel) -> String {
    Cost(c).to_string()
}

/// Canonical identity of a dataset spec (used both in cell keys and for
/// engine-side dataset dedup — one definition so they can never diverge).
pub fn canonical_dataset(dataset: &DatasetSpec) -> String {
    Dataset(dataset).to_string()
}

struct Timing<'a>(&'a TimingParams);

impl fmt::Display for Timing<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.0;
        write!(
            f,
            "sms={};bps={};tps={};ghz={};issue={};hll={};hso={};pipe={};bd={}",
            t.num_sms,
            t.max_blocks_per_sm,
            t.max_threads_per_sm,
            t.clock_ghz,
            t.issue_slots_per_sm,
            t.host_launch_latency_us,
            t.host_sync_overhead_us,
            t.device_launch_pipe_us,
            t.block_dispatch_us
        )
    }
}

struct Cost<'a>(&'a CostModel);

impl fmt::Display for Cost<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.0;
        write!(
            f,
            "alu={};mul={};div={};mem={};br={};call={};launch={};sync={};fence={};atomic={};intr={};lpo={}",
            c.alu,
            c.mul,
            c.div,
            c.mem,
            c.branch,
            c.call,
            c.launch,
            c.sync,
            c.fence,
            c.atomic,
            c.intrinsic,
            c.launch_presence_overhead
        )
    }
}

struct Dataset<'a>(&'a DatasetSpec);

impl fmt::Display for Dataset<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            DatasetSpec::Table { id, scale, seed } => {
                write!(f, "table[{};scale={scale};seed={seed}]", id.name())
            }
            DatasetSpec::Provided { digest, .. } => write!(f, "provided[{digest:016x}]"),
        }
    }
}

/// The part of a cell's canonical string that every cell of a series
/// shares: its dataset, timing and cost model.
pub fn series_tail(dataset: &DatasetSpec, timing: &TimingParams, cost: &CostModel) -> String {
    // Room for the default models' ~230 bytes, so it is allocated once.
    let mut tail = String::with_capacity(320);
    let _ = write!(
        tail,
        "|dataset={}|timing={}|cost={}",
        Dataset(dataset),
        Timing(timing),
        Cost(cost),
    );
    tail
}

/// [`cell_key`] from its parts: the [`fnv1a`] digest of the source text
/// and the series' [`series_tail`]. A sweep hashes each source and builds
/// each tail once, then keys every cell from them.
pub fn cell_key_from(benchmark: &str, source_digest: u64, variant: &Variant, tail: &str) -> u64 {
    Fnv1a::of(format_args!(
        "v{CACHE_FORMAT_VERSION}|bench={benchmark}|src={source_digest:016x}|variant={}{tail}",
        VariantCanon(variant),
    ))
}

/// Computes the content-addressed key of one sweep cell.
pub fn cell_key(
    benchmark: &str,
    source: &str,
    variant: &Variant,
    dataset: &DatasetSpec,
    timing: &TimingParams,
    cost: &CostModel,
) -> u64 {
    cell_key_from(
        benchmark,
        fnv1a(source.as_bytes()),
        variant,
        &series_tail(dataset, timing, cost),
    )
}

/// Computes the content-addressed key of one **compilation**: source text +
/// optimization configuration + [`CACHE_FORMAT_VERSION`]. This is the key
/// of the `dp-serve` in-memory compiled-program cache — a strict prefix of
/// the axes [`cell_key`] hashes, so a compilation shared by many cells is
/// keyed identically everywhere.
pub fn compiled_key(source: &str, config: &OptConfig) -> u64 {
    Fnv1a::of(format_args!(
        "v{CACHE_FORMAT_VERSION}|src={:016x}|config={}",
        fnv1a(source.as_bytes()),
        Config(config),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_core::AggConfig;
    use dp_workloads::datasets::DatasetId;

    #[test]
    fn fnv_is_stable() {
        // Reference vectors for 64-bit FNV-1a.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn canonical_strings_are_pinned() {
        // These strings are the cache key *format*: any change here must
        // come with a CACHE_FORMAT_VERSION bump.
        assert_eq!(canonical_config(&OptConfig::none()), "t=none;c=none;a=none");
        assert_eq!(
            canonical_config(
                &OptConfig::none()
                    .threshold(128)
                    .coarsen_factor(8)
                    .aggregation(AggConfig {
                        granularity: AggGranularity::MultiBlock(8),
                        agg_threshold: Some(4),
                    })
            ),
            "t=128;c=8;a=multiblock:8/4"
        );
        assert_eq!(canonical_variant(&Variant::NoCdp), "nocdp");
        assert_eq!(
            canonical_variant(&Variant::Cdp(OptConfig::none())),
            "cdp[t=none;c=none;a=none]"
        );
        assert_eq!(
            canonical_dataset(&DatasetSpec::Table {
                id: DatasetId::Kron,
                scale: 0.01,
                seed: 42,
            }),
            "table[KRON;scale=0.01;seed=42]"
        );
    }

    #[test]
    fn compiled_key_digests_are_pinned() {
        // Serve and sweep must agree on these forever (or bump the format
        // version): the digests are data, not an implementation detail.
        assert_eq!(
            compiled_key("src", &OptConfig::none()),
            0xe2f4_0892_0104_11b0
        );
        assert_eq!(
            compiled_key("src", &OptConfig::none().threshold(8)),
            0x5329_ab93_4ebe_6992
        );
    }

    fn sample_dataset() -> DatasetSpec {
        DatasetSpec::Table {
            id: DatasetId::Kron,
            scale: 0.01,
            seed: 42,
        }
    }

    #[test]
    fn cell_key_digest_is_pinned() {
        assert_eq!(
            cell_key(
                "BFS",
                "src",
                &Variant::Cdp(OptConfig::none()),
                &sample_dataset(),
                &TimingParams::default(),
                &CostModel::default(),
            ),
            0xa79c_ea14_91ee_b854
        );
    }

    #[test]
    fn keys_separate_every_axis() {
        let base = cell_key(
            "BFS",
            "src",
            &Variant::Cdp(OptConfig::none()),
            &sample_dataset(),
            &TimingParams::default(),
            &CostModel::default(),
        );
        let variants: Vec<u64> = vec![
            cell_key(
                "BFS",
                "src2",
                &Variant::Cdp(OptConfig::none()),
                &sample_dataset(),
                &TimingParams::default(),
                &CostModel::default(),
            ),
            cell_key(
                "BFS",
                "src",
                &Variant::Cdp(OptConfig::none().threshold(8)),
                &sample_dataset(),
                &TimingParams::default(),
                &CostModel::default(),
            ),
            cell_key(
                "BFS",
                "src",
                &Variant::Cdp(OptConfig::none()),
                &DatasetSpec::Table {
                    id: DatasetId::Kron,
                    scale: 0.01,
                    seed: 43,
                },
                &TimingParams::default(),
                &CostModel::default(),
            ),
            cell_key(
                "BFS",
                "src",
                &Variant::Cdp(OptConfig::none()),
                &sample_dataset(),
                &TimingParams {
                    device_launch_pipe_us: 0.0,
                    ..TimingParams::default()
                },
                &CostModel::default(),
            ),
            cell_key(
                "BFS",
                "src",
                &Variant::Cdp(OptConfig::none()),
                &sample_dataset(),
                &TimingParams::default(),
                &CostModel {
                    launch_presence_overhead: 0,
                    ..CostModel::default()
                },
            ),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base, *v, "axis {i} must invalidate the key");
        }
    }

    #[test]
    fn compiled_key_separates_source_and_config() {
        let base = compiled_key("src", &OptConfig::none());
        assert_ne!(base, compiled_key("src2", &OptConfig::none()));
        assert_ne!(base, compiled_key("src", &OptConfig::none().threshold(8)));
        assert_ne!(
            base,
            compiled_key(
                "src",
                &OptConfig::none().aggregation(AggConfig::new(AggGranularity::Block))
            )
        );
    }
}
