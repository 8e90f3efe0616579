//! Checks of the benchmark itself, on small slices of its workloads.

use perfbench::json::Json;
use perfbench::{serve, sweep, Options, Report, TOP_LEVEL_SPANS};
use smallfloat_kernels::VecMode;
use smallfloat_sim::MemLevel;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One cheap `infer_sweep` point: MLP at binary8, auto-vectorized, L1.
fn one_point_sweep() -> sweep::Setup {
    let mut s = sweep::setup(1).expect("committed records parse");
    s.points.retain(|p| {
        p.net == 0 && p.precision == "binary8" && p.mode == VecMode::Auto && p.mem == MemLevel::L1
    });
    assert_eq!(s.points.len(), 1);
    s.order = vec![0];
    s
}

fn opts(trace: bool) -> Options {
    Options {
        seed: 1,
        seconds: 0.0,
        trace,
    }
}

fn declared(section: &str) -> Vec<String> {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    doc.arr(section)
        .expect("section present")
        .iter()
        .map(|m| m.str("name").expect("named metric").to_string())
        .collect()
}

fn names(r: &Report) -> Vec<String> {
    r.metrics.keys().cloned().collect()
}

#[test]
fn a_corrupted_expected_row_counts_as_a_failure() {
    let clean = sweep::run_with(&one_point_sweep(), &opts(false), || 0.0).unwrap();
    assert_eq!((clean.attempted, clean.failed), (1, 0));
    assert!(clean.correct());

    let mut s = one_point_sweep();
    s.points[0].expected.cycles += 1;
    let r = sweep::run_with(&s, &opts(false), || 0.0).unwrap();
    assert_eq!((r.attempted, r.failed), (1, 1));
    assert!(!r.correct());
    assert_eq!(r.value("success_rate"), 0.0);
}

#[test]
fn metric_names_are_well_formed_and_match_benchmark_json() {
    let ok = |n: &str| {
        !n.is_empty()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let untraced = sweep::run_with(&one_point_sweep(), &opts(false), || 0.0).unwrap();
    let traced = sweep::run_with(&one_point_sweep(), &opts(true), || 0.0).unwrap();
    for r in [&untraced, &traced] {
        for n in names(r) {
            assert!(ok(&n), "metric name `{n}`");
        }
    }
    let mut e2e = declared("end_to_end");
    let mut layers = declared("per_layer");
    e2e.sort();
    layers.sort();
    assert_eq!(names(&untraced), e2e);
    assert_eq!(names(&traced), layers);
}

/// The top-level spans plus the unattributed rest make up the traced
/// wall, and the spans do not overlap (the rest is not negative).
fn assert_partition(r: &Report) {
    let spans: f64 = TOP_LEVEL_SPANS.iter().map(|s| r.value(s)).sum();
    let rest = r.value("bench.unattributed_s");
    let wall = r.value("bench.traced_wall_s");
    assert!(wall > 0.0);
    assert!(
        (spans + rest - wall).abs() <= 1e-9 * wall,
        "{spans} + {rest} != {wall}"
    );
    assert!(
        rest >= -1e-9 * wall,
        "overlapping spans: unattributed {rest}"
    );
}

#[test]
fn traced_spans_plus_unattributed_equal_the_traced_wall() {
    let r = sweep::run_with(&one_point_sweep(), &opts(true), || 0.0).unwrap();
    assert!(r.correct(), "re-driven point must reproduce infer_sim");
    assert_partition(&r);
    assert!(r.value("kernels.launch_s") > r.value("sim.run_s"));

    let mut s = serve::setup(1, 2);
    let r = serve::run_with(&mut s, &opts(true), || 0.0).unwrap();
    assert!(r.correct(), "re-driven stages must reproduce Cluster::run");
    assert_partition(&r);
}

#[test]
fn exact_serve_metrics_do_not_depend_on_host_workers() {
    let exact = |workers: usize| {
        let mut s = serve::setup(7, 4);
        s.host_workers = workers;
        let r = serve::run_with(&mut s, &opts(false), || 0.0).unwrap();
        assert!(r.correct());
        ["sim_cycles", "sim_ops_per_s", "sim_p99_cycles"].map(|m| r.value(m).to_bits())
    };
    assert_eq!(exact(1), exact(2));
}
