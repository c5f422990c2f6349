//! Declarative sweep-spec files for the `dpopt sweep` CLI subcommand.
//!
//! ```json
//! {
//!   "scale": 0.01,
//!   "seed": 42,
//!   "benchmarks": ["BFS", "SSSP"],
//!   "datasets": ["KRON"],
//!   "variants": [
//!     { "label": "No CDP", "no_cdp": true },
//!     { "label": "CDP" },
//!     { "label": "CDP+T+C+A", "threshold": 128, "coarsen": 16, "agg": "multiblock:8" }
//!   ]
//! }
//! ```
//!
//! - `benchmarks` — required; paper names (`BFS`, `BT`, `MSTF`, `MSTV`,
//!   `SP`, `SSSP`, `TC`).
//! - `datasets` — optional; defaults to each benchmark's Table-I datasets.
//! - `variants` — required; each entry is either `"no_cdp": true` or a CDP
//!   configuration built from optional `threshold` (int), `coarsen` (int),
//!   `agg` (`warp`|`block`|`multiblock:<K>`|`grid`), and `agg_threshold`
//!   (int). `label` is optional (defaults to the paper-style config label).
//! - `scale`/`seed` — optional (defaults 0.05 / 42).

use crate::{DatasetSpec, SeriesSpec, SweepSpec, VariantSpec};
use dp_core::{AggConfig, AggGranularity, OptConfig};
use dp_obs::json::{self, Json};
use dp_workloads::benchmarks::{all_benchmarks, benchmark_by_name, Variant};
use dp_workloads::{datasets_for, input_kind_for, DatasetId};

/// Parses an aggregation granularity spec (`warp`, `block`,
/// `multiblock:<K>`, `grid`) — the one parser for sweep specs, `dp-serve`
/// requests and the CLI's `--agg`. `K` becomes `_AGG_GRANULARITY`, which
/// every transformed parent divides by, so `K < 1` is not a granularity;
/// it is spelled `[1-9][0-9]*`, so `+8` and `08` are not `8`.
pub fn parse_granularity(spec: &str) -> Option<AggGranularity> {
    match spec {
        "warp" => Some(AggGranularity::Warp),
        "block" => Some(AggGranularity::Block),
        "grid" => Some(AggGranularity::Grid),
        other => {
            let k = other.strip_prefix("multiblock:")?;
            // `str::parse` alone would also take a sign and leading zeros.
            (!k.starts_with('0') && k.bytes().all(|b| b.is_ascii_digit())).then_some(())?;
            k.parse().ok().map(AggGranularity::MultiBlock)
        }
    }
}

/// Checks a coarsening factor read from outside the program: it becomes
/// `_CFACTOR`, which the rewritten launches divide by.
pub fn checked_coarsen_factor(factor: i64) -> Result<i64, String> {
    if factor < 1 {
        return Err(format!("`coarsen` must be at least 1, got {factor}"));
    }
    Ok(factor)
}

/// Parses the optimization-configuration members of a JSON object
/// (`threshold`, `coarsen`, `agg`, `agg_threshold`) — the shape used by
/// sweep-spec variants and by `dp-serve` `compile`/`transform` requests.
pub fn config_from_json(v: &Json) -> Result<OptConfig, String> {
    config_from_members(|name| v.get(name))
}

/// [`config_from_json`] over members looked up by `get`: the same rules,
/// for a reader that holds the members without a [`Json::Object`]
/// (`dp-serve`'s request line).
pub fn config_from_members<'a>(
    get: impl Fn(&str) -> Option<&'a Json>,
) -> Result<OptConfig, String> {
    let mut config = OptConfig::none();
    if let Some(t) = get("threshold") {
        config = config.threshold(t.as_i64().ok_or("`threshold` must be an integer")?);
    }
    if let Some(c) = get("coarsen") {
        let factor = c.as_i64().ok_or("`coarsen` must be an integer")?;
        config = config.coarsen_factor(checked_coarsen_factor(factor)?);
    }
    if let Some(a) = get("agg") {
        let spec = a.as_str().ok_or("`agg` must be a string")?;
        let granularity = parse_granularity(spec).ok_or_else(|| {
            format!("bad granularity `{spec}` (warp|block|multiblock:<K>|grid, K >= 1)")
        })?;
        let mut agg = AggConfig::new(granularity);
        if let Some(t) = get("agg_threshold") {
            agg.agg_threshold = Some(t.as_i64().ok_or("`agg_threshold` must be an integer")?);
        }
        config = config.aggregation(agg);
    } else if get("agg_threshold").is_some() {
        return Err("`agg_threshold` needs `agg` (it has no effect on its own)".to_string());
    }
    Ok(config)
}

/// A benchmark name read from outside the program, checked against the
/// registry.
fn checked_benchmark(name: &Json) -> Result<String, String> {
    let name = name.as_str().ok_or("benchmark names must be strings")?;
    if benchmark_by_name(name).is_none() {
        let known: Vec<&str> = all_benchmarks().iter().map(|b| b.name()).collect();
        return Err(format!(
            "unknown benchmark `{name}` (expected one of {})",
            known.join(", ")
        ));
    }
    Ok(name.to_string())
}

/// The optional `scale` and `seed` members of `v` (defaults 0.05 / 42).
fn scale_and_seed(v: &Json) -> Result<(f64, u64), String> {
    let scale = v
        .get("scale")
        .map(|v| v.as_f64().ok_or("`scale` must be a number"))
        .transpose()?
        .unwrap_or(0.05);
    if !(scale > 0.0 && scale <= 1.0) {
        return Err(format!("`scale` must be in (0, 1], got {scale}"));
    }
    let seed = v
        .get("seed")
        .map(|v| v.as_u64().ok_or("`seed` must be a non-negative integer"))
        .transpose()?
        .unwrap_or(42);
    Ok((scale, seed))
}

/// A Table-I dataset named from outside the program.
fn checked_dataset(name: &Json) -> Result<DatasetId, String> {
    let name = name.as_str().ok_or("dataset names must be strings")?;
    DatasetId::ALL
        .into_iter()
        .find(|id| id.name() == name)
        .ok_or_else(|| format!("unknown dataset `{name}`"))
}

/// Refuses to pair a benchmark with a dataset it cannot read: the driver
/// would panic on the input once the cell runs.
fn checked_pair(benchmark: &str, id: DatasetId) -> Result<(), String> {
    let reads = input_kind_for(benchmark);
    if id.kind() != reads {
        return Err(format!(
            "dataset `{}` is {}, but `{benchmark}` reads {reads}",
            id.name(),
            id.kind()
        ));
    }
    Ok(())
}

fn parse_variant(v: &Json) -> Result<VariantSpec, String> {
    let variant = if v.get("no_cdp") == Some(&Json::Bool(true)) {
        Variant::NoCdp
    } else {
        Variant::Cdp(config_from_json(v)?)
    };
    let label = match v.get("label").and_then(Json::as_str) {
        Some(label) => label.to_string(),
        None => variant.label(),
    };
    Ok(VariantSpec::new(label, variant))
}

/// One cell named from outside the program — the body of a `dp-serve`
/// `sweep-cell` request — with default timing and cost models (the
/// protocol deliberately has no knobs for them, so source + config fully
/// determine the compilation).
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Benchmark name ("BFS", "BT", …).
    pub benchmark: String,
    /// Table-I dataset, of the kind the benchmark reads.
    pub dataset: DatasetSpec,
    /// What to run, and the label of its summary.
    pub variant: VariantSpec,
}

/// Parses one cell: `benchmark`, `dataset` (`id`, optional `scale` and
/// `seed`) and `variant` (as in a spec's `variants`). Shares every check
/// with [`spec_from_json`].
pub fn cell_from_json(doc: &Json) -> Result<CellSpec, String> {
    let benchmark = checked_benchmark(doc.get("benchmark").ok_or("cell needs a `benchmark`")?)?;
    let d = doc.get("dataset").ok_or("cell needs a `dataset`")?;
    let id = checked_dataset(d.get("id").ok_or("dataset needs an `id`")?)?;
    checked_pair(&benchmark, id)?;
    let (scale, seed) = scale_and_seed(d)?;
    let variant = parse_variant(doc.get("variant").ok_or("cell needs a `variant`")?)?;
    Ok(CellSpec {
        benchmark,
        dataset: DatasetSpec::table(id, scale, seed),
        variant,
    })
}

/// Parses a sweep-spec JSON document into a [`SweepSpec`].
///
/// # Errors
///
/// Returns a human-readable message for syntax errors, unknown
/// benchmark/dataset names, a dataset its benchmark cannot read, or
/// malformed variant entries.
pub fn spec_from_json(text: &str) -> Result<SweepSpec, String> {
    let doc = json::parse(text)?;
    let (scale, seed) = scale_and_seed(&doc)?;

    let benchmarks: Vec<String> = doc
        .get("benchmarks")
        .and_then(Json::as_array)
        .ok_or("spec needs a `benchmarks` array")?
        .iter()
        .map(checked_benchmark)
        .collect::<Result<_, String>>()?;
    if benchmarks.is_empty() {
        return Err("`benchmarks` must not be empty".to_string());
    }

    let explicit_datasets: Option<Vec<DatasetId>> = doc
        .get("datasets")
        .and_then(Json::as_array)
        .map(|items| items.iter().map(checked_dataset).collect())
        .transpose()?;

    let variants: Vec<VariantSpec> = doc
        .get("variants")
        .and_then(Json::as_array)
        .ok_or("spec needs a `variants` array")?
        .iter()
        .map(parse_variant)
        .collect::<Result<_, String>>()?;
    if variants.is_empty() {
        return Err("`variants` must not be empty".to_string());
    }

    let mut series = Vec::new();
    for bench in &benchmarks {
        let datasets = match &explicit_datasets {
            Some(ids) => ids.clone(),
            None => datasets_for(bench),
        };
        for id in datasets {
            checked_pair(bench, id)?;
            series.push(SeriesSpec::new(
                bench.clone(),
                DatasetSpec::table(id, scale, seed),
                variants.clone(),
            ));
        }
    }
    Ok(SweepSpec { series })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_spec() {
        let spec = spec_from_json(
            r#"{
                "scale": 0.01, "seed": 7,
                "benchmarks": ["BFS", "SSSP"],
                "datasets": ["KRON"],
                "variants": [
                    {"no_cdp": true},
                    {"label": "CDP"},
                    {"threshold": 128, "coarsen": 16, "agg": "multiblock:8"}
                ]
            }"#,
        )
        .unwrap();
        assert_eq!(spec.series.len(), 2);
        assert_eq!(spec.series[0].benchmark, "BFS");
        assert_eq!(spec.series[0].dataset.name(), "KRON");
        assert_eq!(spec.series[0].variants.len(), 3);
        assert_eq!(spec.series[0].variants[0].label, "No CDP");
        assert_eq!(spec.series[0].variants[2].label, "CDP+T+C+A");
        assert!(matches!(
            spec.series[0].variants[2].variant,
            Variant::Cdp(c) if c.threshold == Some(128)
        ));
    }

    #[test]
    fn default_datasets_follow_table1() {
        let spec =
            spec_from_json(r#"{"benchmarks": ["BT"], "variants": [{"label": "CDP"}]}"#).unwrap();
        let names: Vec<String> = spec.series.iter().map(|s| s.dataset.name()).collect();
        assert_eq!(names, vec!["T0032-C16", "T2048-C64"]);
    }

    #[test]
    fn rejects_bad_specs() {
        assert!(spec_from_json("{").is_err());
        assert!(spec_from_json(r#"{"variants": []}"#).is_err());
        assert!(
            spec_from_json(r#"{"benchmarks": ["XXX"], "variants": [{}]}"#)
                .unwrap_err()
                .contains("unknown benchmark")
        );
        assert!(
            spec_from_json(r#"{"benchmarks": ["BFS"], "datasets": ["Y"], "variants": [{}]}"#)
                .unwrap_err()
                .contains("unknown dataset")
        );
        assert!(
            spec_from_json(r#"{"benchmarks": ["BFS"], "scale": 2.0, "variants": [{}]}"#).is_err()
        );
        assert!(
            spec_from_json(r#"{"benchmarks": ["BFS"], "variants": [{"agg": "galaxy"}]}"#)
                .unwrap_err()
                .contains("granularity")
        );
        // Values that would come back as a program dividing by zero.
        for (variant, needle) in [
            (r#"{"agg": "multiblock:0"}"#, "granularity"),
            (r#"{"agg": "multiblock:-2"}"#, "granularity"),
            (r#"{"agg": "multiblock:+8"}"#, "granularity"),
            (r#"{"agg": "multiblock:08"}"#, "granularity"),
            (r#"{"agg": "multiblock:"}"#, "granularity"),
            (r#"{"coarsen": 0}"#, "`coarsen` must be at least 1"),
            (r#"{"coarsen": -3}"#, "`coarsen` must be at least 1"),
        ] {
            let spec = format!(r#"{{"benchmarks": ["BFS"], "variants": [{variant}]}}"#);
            let err = spec_from_json(&spec).unwrap_err();
            assert!(err.contains(needle), "{variant}: {err}");
        }
        assert!(spec_from_json(
            r#"{"benchmarks": ["BFS"], "variants": [{"coarsen": 1, "agg": "multiblock:1"}]}"#
        )
        .is_ok());
        // A dataset the benchmark's driver would panic on, whether the spec
        // names it for one benchmark or for several.
        for benchmarks in [r#"["BFS"]"#, r#"["BT", "BFS"]"#] {
            let spec = format!(
                r#"{{"benchmarks": {benchmarks}, "datasets": ["T0032-C16"], "variants": [{{}}]}}"#
            );
            assert_eq!(
                spec_from_json(&spec).unwrap_err(),
                "dataset `T0032-C16` is Bézier lines, but `BFS` reads a graph"
            );
        }
        // A dangling agg_threshold would silently do nothing — reject it.
        assert!(
            spec_from_json(r#"{"benchmarks": ["BFS"], "variants": [{"agg_threshold": 4}]}"#)
                .unwrap_err()
                .contains("`agg_threshold` needs `agg`")
        );
    }
}
