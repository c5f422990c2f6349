//! Shape checks for the paper's qualitative claims, on inputs small enough
//! for debug-mode CI. The full quantitative reproduction lives in the
//! `dp-bench` binaries; these tests pin down the
//! *directions* the paper reports so a regression in the passes or the
//! timing model fails loudly.

use dpopt::core::{AggConfig, AggGranularity, OptConfig, TimingParams};
use dpopt::workloads::benchmarks::bfs::Bfs;
use dpopt::workloads::benchmarks::{run_variant, BenchInput, Variant};
use dpopt::workloads::datasets::graphs::{rmat, road};

fn time_of(variant: Variant, input: &BenchInput) -> (f64, u64) {
    let run = run_variant(&Bfs, variant, input).expect("run succeeds");
    let sim = run.report.simulate(&TimingParams::default());
    (sim.total_us, run.report.stats.device_launches)
}

fn kron_input() -> BenchInput {
    BenchInput::Graph(rmat(9, 12, 42))
}

#[test]
fn cdp_suffers_from_launch_congestion() {
    // Section I: "the large number of launches results in high launch
    // latency due to congestion".
    let input = kron_input();
    let (cdp, launches) = time_of(Variant::Cdp(OptConfig::none()), &input);
    let (no_cdp, _) = time_of(Variant::NoCdp, &input);
    assert!(launches > 200, "CDP should launch many grids: {launches}");
    assert!(
        cdp > 2.0 * no_cdp,
        "plain CDP should be much slower than No CDP: {cdp} vs {no_cdp}"
    );
}

#[test]
fn thresholding_reduces_launches_and_time() {
    let input = kron_input();
    let (cdp, cdp_launches) = time_of(Variant::Cdp(OptConfig::none()), &input);
    let (t, t_launches) = time_of(Variant::Cdp(OptConfig::none().threshold(64)), &input);
    assert!(
        t_launches < cdp_launches / 4,
        "{t_launches} vs {cdp_launches}"
    );
    assert!(
        t < cdp / 2.0,
        "thresholding should speed up CDP: {t} vs {cdp}"
    );
}

#[test]
fn excessive_threshold_degrades_performance_again() {
    // Fig. 11, observation 2: "increasing the threshold too much causes
    // performance to degrade again" (over-serialization → divergence).
    let input = kron_input();
    let (moderate, _) = time_of(Variant::Cdp(OptConfig::none().threshold(128)), &input);
    let (excessive, launches) = time_of(Variant::Cdp(OptConfig::none().threshold(1 << 20)), &input);
    assert_eq!(launches, 0, "a huge threshold serializes everything");
    assert!(
        excessive > moderate,
        "over-thresholding should cost time: {excessive} vs {moderate}"
    );
}

#[test]
fn aggregation_collapses_launch_count() {
    let input = kron_input();
    let (_, cdp_launches) = time_of(Variant::Cdp(OptConfig::none()), &input);
    for granularity in [
        AggGranularity::Block,
        AggGranularity::MultiBlock(8),
        AggGranularity::Grid,
    ] {
        let (_, agg_launches) = time_of(
            Variant::Cdp(OptConfig::none().aggregation(AggConfig::new(granularity))),
            &input,
        );
        assert!(
            agg_launches * 10 < cdp_launches,
            "{granularity:?}: {agg_launches} vs {cdp_launches}"
        );
    }
}

#[test]
fn coarser_granularity_means_fewer_launches() {
    // Section II-B: larger granularity reduces the number of launches.
    let input = kron_input();
    let count = |g| {
        time_of(
            Variant::Cdp(OptConfig::none().aggregation(AggConfig::new(g))),
            &input,
        )
        .1
    };
    let warp = count(AggGranularity::Warp);
    let block = count(AggGranularity::Block);
    let multi = count(AggGranularity::MultiBlock(8));
    let grid = count(AggGranularity::Grid);
    assert!(warp >= block, "warp {warp} >= block {block}");
    assert!(block >= multi, "block {block} >= multi {multi}");
    assert!(multi >= grid, "multi {multi} >= grid {grid}");
    assert_eq!(grid, 0, "grid granularity launches from the host");
}

#[test]
fn full_pipeline_beats_aggregation_alone() {
    // The headline claim: CDP+T+C+A over KLAP (CDP+A). Needs enough nested
    // parallelism for thresholding to pay off, so this test uses a larger
    // graph than the others.
    let input = BenchInput::Graph(rmat(10, 16, 42));
    let agg = AggConfig::new(AggGranularity::MultiBlock(8));
    let (klap, _) = time_of(Variant::Cdp(OptConfig::none().aggregation(agg)), &input);
    let (full, _) = time_of(
        Variant::Cdp(
            OptConfig::none()
                .threshold(128)
                .coarsen_factor(8)
                .aggregation(agg),
        ),
        &input,
    );
    assert!(
        full < klap,
        "T+C+A should beat aggregation alone: {full} vs {klap}"
    );
}

#[test]
fn road_graphs_punish_dynamic_parallelism() {
    // Section VIII-D: low nested parallelism (road networks) makes CDP
    // unprofitable, and even heavy thresholding cannot fully recover
    // because the launch's mere presence slows the kernel.
    let input = BenchInput::Graph(road(40, 32, 42));
    let (no_cdp, _) = time_of(Variant::NoCdp, &input);
    let (cdp, _) = time_of(Variant::Cdp(OptConfig::none()), &input);
    // Threshold beyond any degree: no launches execute, but the code keeps
    // its launch site.
    let (thresholded, launches) =
        time_of(Variant::Cdp(OptConfig::none().threshold(1 << 20)), &input);
    assert_eq!(launches, 0);
    assert!(
        cdp > no_cdp,
        "CDP should lose on road graphs: {cdp} vs {no_cdp}"
    );
    assert!(
        thresholded > no_cdp,
        "launch presence overhead must keep CDP+T above No CDP: {thresholded} vs {no_cdp}"
    );
    assert!(
        thresholded < cdp,
        "thresholding should still recover most of the gap: {thresholded} vs {cdp}"
    );
}

#[test]
fn breakdown_shifts_match_fig10() {
    // Fig. 10 observations: thresholding increases parent work, decreases
    // child work, and decreases aggregation/launch/disaggregation.
    let input = kron_input();
    let agg = AggConfig::new(AggGranularity::MultiBlock(8));
    let breakdown = |config: OptConfig| {
        let run = run_variant(&Bfs, Variant::Cdp(config), &input).unwrap();
        run.report.simulate(&TimingParams::default()).breakdown
    };
    let klap = breakdown(OptConfig::none().aggregation(agg));
    let ta = breakdown(OptConfig::none().threshold(128).aggregation(agg));
    assert!(ta.parent_us > klap.parent_us, "parent work should rise");
    assert!(ta.child_us < klap.child_us, "child work should fall");
    assert!(ta.launch_us < klap.launch_us, "launch overhead should fall");
    assert!(
        ta.disaggregation_us < klap.disaggregation_us,
        "disaggregation should fall"
    );

    // Coarsening decreases disaggregation further (amortization).
    let tca = breakdown(
        OptConfig::none()
            .threshold(128)
            .coarsen_factor(8)
            .aggregation(agg),
    );
    assert!(
        tca.disaggregation_us <= ta.disaggregation_us,
        "coarsening should amortize disaggregation: {} vs {}",
        tca.disaggregation_us,
        ta.disaggregation_us
    );
}
