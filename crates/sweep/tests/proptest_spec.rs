//! Property tests for the two parsers that turn outside bytes into cells:
//! `spec_from_json` (a `dpopt sweep` spec file) and `cell_from_json` (the
//! body of a `sweep-cell` request). Neither may panic on anything, every
//! refusal is a message, the two agree on what a cell is, and an accepted
//! spec holds only cells whose driver can read their dataset.

use dp_sweep::json::{self, object, Json};
use dp_sweep::key::canonical_dataset;
use dp_sweep::spec::cell_from_json;
use dp_sweep::{enumerate_cells, spec_from_json, DatasetSpec};
use dp_workloads::{datasets_for, input_kind_for};
use proptest::prelude::*;

/// A stream of generated numbers, spent one per choice.
struct Picks(std::vec::IntoIter<usize>);

impl Picks {
    fn next(&mut self) -> usize {
        self.0.next().unwrap_or(0)
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.next().is_multiple_of(n)
    }

    /// `good[..]` nineteen times in twenty, `bad[..]` otherwise.
    fn of(&mut self, good: &[Json], bad: &[Json]) -> Json {
        let pool = if self.one_in(20) { bad } else { good };
        pool[self.next() % pool.len()].clone()
    }

    /// Like [`Picks::of`], but half the time the member is left out.
    fn member(
        &mut self,
        name: &'static str,
        good: &[Json],
        bad: &[Json],
    ) -> Option<(&'static str, Json)> {
        self.one_in(2).then(|| (name, self.of(good, bad)))
    }
}

fn arb_picks() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..1000, 96..97)
}

fn strs(names: &[&str]) -> Vec<Json> {
    names.iter().map(|n| Json::Str(n.to_string())).collect()
}

fn benchmark(p: &mut Picks) -> Json {
    p.of(
        &strs(&["BFS", "BT", "MSTF", "MSTV", "SP", "SSSP", "TC"]),
        &[strs(&["NOPE", "bfs", ""]), vec![Json::Int(3), Json::Null]].concat(),
    )
}

fn dataset(p: &mut Picks) -> Json {
    p.of(
        &strs(&[
            "KRON",
            "CNR",
            "ROAD-NY",
            "RAND-3",
            "5-SAT",
            "T0032-C16",
            "T2048-C64",
        ]),
        &[strs(&["Y", "kron"]), vec![Json::Null, Json::Bool(true)]].concat(),
    )
}

/// The optional `scale` and `seed` members, of a spec or of a cell's
/// `dataset` object.
fn scale_and_seed(p: &mut Picks) -> Vec<(&'static str, Json)> {
    let scale = p.member(
        "scale",
        &[Json::Float(0.01), Json::Int(1), Json::Float(1e-300)],
        &[
            Json::Int(0),
            Json::Float(-0.5),
            Json::Int(2),
            Json::Str("0.1".to_string()),
        ],
    );
    let seed = p.member(
        "seed",
        &[Json::Int(0), Json::Int(42), Json::Int(i64::MAX)],
        &[Json::Int(-1), Json::Float(1.5), Json::Str("7".to_string())],
    );
    scale.into_iter().chain(seed).collect()
}

fn variant(p: &mut Picks) -> Json {
    let members = [
        p.member(
            "no_cdp",
            &[Json::Bool(true), Json::Bool(false)],
            &[Json::Int(1)],
        ),
        p.member("label", &strs(&["x", "", "CDP+é"]), &[Json::Int(3)]),
        p.member(
            "threshold",
            &[Json::Int(0), Json::Int(128), Json::Int(-5)],
            &[Json::Str("8".to_string()), Json::Float(1.5)],
        ),
        p.member(
            "coarsen",
            &[Json::Int(1), Json::Int(16)],
            &[Json::Int(0), Json::Int(-3), Json::Str("2".to_string())],
        ),
        p.member(
            "agg",
            &strs(&["warp", "block", "grid", "multiblock:8"]),
            &[strs(&["multiblock:0", "galaxy"]), vec![Json::Int(7)]].concat(),
        ),
        p.member(
            "agg_threshold",
            &[Json::Int(4)],
            &[Json::Str("4".to_string())],
        ),
    ];
    object(members.into_iter().flatten())
}

fn spec_doc(
    benchmarks: &[Json],
    datasets: Option<&[Json]>,
    variants: &[Json],
    p: &mut Picks,
) -> Json {
    let mut members = scale_and_seed(p);
    members.push(("benchmarks", Json::Array(benchmarks.to_vec())));
    if let Some(datasets) = datasets {
        members.push(("datasets", Json::Array(datasets.to_vec())));
    }
    members.push(("variants", Json::Array(variants.to_vec())));
    object(members)
}

/// Member names both parsers look for, so a random tree reaches past the
/// first check.
const KEYS: &[&str] = &[
    "benchmarks",
    "datasets",
    "variants",
    "scale",
    "seed",
    "benchmark",
    "dataset",
    "variant",
    "id",
    "no_cdp",
    "label",
    "threshold",
    "coarsen",
    "agg",
    "agg_threshold",
];

fn arb_tree() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        Just(Json::Bool(true)),
        (-3i64..200).prop_map(Json::Int),
        (-8i64..8).prop_map(|n| Json::Float(n as f64 / 4.0 + 0.125)),
        (0usize..7).prop_map(|i| Json::Str(
            ["BFS", "SP", "KRON", "5-SAT", "grid", "x", ""][i].to_string()
        )),
    ];
    leaf.prop_recursive(3, 48, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Json::Array),
            prop::collection::vec((0usize..KEYS.len(), inner), 0..6)
                .prop_map(|members| { object(members.into_iter().map(|(k, v)| (KEYS[k], v))) }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A spec assembled from mostly-valid members is accepted or refused
    /// with a message; an accepted one is the full cross product, every
    /// pair of it one the benchmark's driver can read.
    #[test]
    fn accepted_specs_hold_only_runnable_cells(picks in arb_picks()) {
        let mut p = Picks(picks.into_iter());
        let benchmarks: Vec<Json> = (0..p.next() % 4).map(|_| benchmark(&mut p)).collect();
        let datasets: Option<Vec<Json>> =
            p.one_in(3).then(|| (0..p.next() % 3).map(|_| dataset(&mut p)).collect());
        let variants: Vec<Json> = (0..p.next() % 4).map(|_| variant(&mut p)).collect();
        let text = spec_doc(&benchmarks, datasets.as_deref(), &variants, &mut p).to_string();
        match spec_from_json(&text) {
            Err(message) => prop_assert!(!message.is_empty(), "spec: {}", text),
            Ok(spec) => {
                let series: usize = benchmarks
                    .iter()
                    .map(|b| match &datasets {
                        Some(ids) => ids.len(),
                        None => datasets_for(b.as_str().unwrap()).len(),
                    })
                    .sum();
                prop_assert_eq!(spec.series.len(), series, "spec: {}", text);
                prop_assert_eq!(spec.cell_count(), series * variants.len(), "spec: {}", text);
                for s in &spec.series {
                    let DatasetSpec::Table { id, .. } = &s.dataset else {
                        panic!("a spec file names Table-I datasets only");
                    };
                    prop_assert_eq!(id.kind(), input_kind_for(&s.benchmark), "spec: {}", text);
                }
                let cells = enumerate_cells(&spec);
                prop_assert_eq!(cells.map(|c| c.len()), Ok(spec.cell_count()), "spec: {}", text);
            }
        }
    }

    /// A `sweep-cell` body and the one-cell spec made of the same members
    /// are accepted or refused together, and name the same cell.
    #[test]
    fn a_cell_and_its_one_cell_spec_agree(picks in arb_picks()) {
        let mut p = Picks(picks.into_iter());
        let (b, d, v) = (benchmark(&mut p), dataset(&mut p), variant(&mut p));
        let scale_seed = scale_and_seed(&mut p);
        let mut dataset_members = scale_seed.clone();
        dataset_members.push(("id", d.clone()));
        let cell_doc = object([
            ("benchmark", b.clone()),
            ("dataset", object(dataset_members)),
            ("variant", v.clone()),
        ]);
        let mut spec_members = scale_seed;
        spec_members.extend([
            ("benchmarks", Json::Array(vec![b])),
            ("datasets", Json::Array(vec![d])),
            ("variants", Json::Array(vec![v])),
        ]);
        let spec_text = object(spec_members).to_string();
        match (cell_from_json(&cell_doc), spec_from_json(&spec_text)) {
            (Ok(cell), Ok(spec)) => {
                let series = &spec.series[0];
                prop_assert_eq!(&cell.benchmark, &series.benchmark);
                prop_assert_eq!(canonical_dataset(&cell.dataset), canonical_dataset(&series.dataset));
                prop_assert_eq!(&cell.variant.label, &series.variants[0].label);
                prop_assert_eq!(cell.variant.variant, series.variants[0].variant);
            }
            (Err(cell), Err(spec)) => prop_assert!(!cell.is_empty() && !spec.is_empty()),
            (cell, spec) => prop_assert!(
                false,
                "cell {:?} but spec {:?}: {}",
                cell.map(|c| c.benchmark),
                spec.map(|s| s.cell_count()),
                spec_text
            ),
        }
    }

    /// Trees of the right member names and the wrong shapes never panic
    /// either parser.
    #[test]
    fn arbitrary_trees_never_panic(tree in arb_tree()) {
        if let Err(message) = spec_from_json(&tree.to_string()) {
            prop_assert!(!message.is_empty());
        }
        if let Err(message) = cell_from_json(&tree) {
            prop_assert!(!message.is_empty());
        }
    }

    /// A valid spec with bytes overwritten, inserted or removed — then made
    /// UTF-8 again the way `read_line_limited` does — parses or fails with
    /// a message, as a spec and (when it is still JSON) as a cell.
    #[test]
    fn mutated_specs_never_panic(
        picks in arb_picks(),
        edits in prop::collection::vec((0usize..3, 0usize..4096, 0u8..255), 1..6),
    ) {
        let mut p = Picks(picks.into_iter());
        let doc = spec_doc(
            &[benchmark(&mut p), benchmark(&mut p)],
            None,
            &[variant(&mut p), variant(&mut p)],
            &mut p,
        );
        let mut bytes = doc.to_string().into_bytes();
        for (kind, at, byte) in edits {
            let at = at % (bytes.len() + 1);
            match kind {
                0 if at < bytes.len() => bytes[at] = byte,
                1 if at < bytes.len() => { bytes.remove(at); }
                _ => bytes.insert(at, byte),
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        if let Err(message) = spec_from_json(&text) {
            prop_assert!(!message.is_empty());
        }
        if let Ok(tree) = json::parse(&text) {
            let _ = cell_from_json(&tree);
        }
    }
}
