//! Self-test of the benchmark's deterministic parts. Run with
//! `cargo test --manifest-path perfbench/Cargo.toml`.

use abcd_perfbench::{
    geomean, percentile, suite_order, unique_sources, zipf_sequence, Tracer, TAIL_SAMPLES,
};
use std::collections::HashSet;

#[test]
fn same_seed_gives_the_same_sequence() {
    assert_eq!(suite_order(7, 5, 15), suite_order(7, 5, 15));
    assert_eq!(zipf_sequence(7, 500), zipf_sequence(7, 500));
    assert_eq!(
        unique_sources(7, 50, &mut HashSet::new()),
        unique_sources(7, 50, &mut HashSet::new())
    );
}

#[test]
fn a_different_seed_gives_a_different_sequence() {
    assert_ne!(suite_order(7, 5, 15), suite_order(8, 5, 15));
    assert_ne!(zipf_sequence(7, 500), zipf_sequence(8, 500));
    assert_ne!(
        unique_sources(7, 50, &mut HashSet::new()),
        unique_sources(8, 50, &mut HashSet::new())
    );
}

#[test]
fn suite_rounds_keep_the_mix_fixed() {
    let order = suite_order(3, 4, 15);
    for round in order.chunks(15) {
        let mut r = round.to_vec();
        r.sort_unstable();
        assert_eq!(r, (0..15).collect::<Vec<_>>());
    }
}

#[test]
fn unique_sources_are_distinct_and_avoid_taken_ones() {
    let mut taken = HashSet::new();
    let warm = unique_sources(1, 20, &mut taken);
    let timed = unique_sources(2, 2000, &mut taken);
    let all: HashSet<&String> = warm.iter().chain(&timed).collect();
    assert_eq!(all.len(), 2020);
}

#[test]
fn percentiles_leave_ten_samples_beyond_the_reported_one() {
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), Some(500.0));
    assert_eq!(percentile(&v, 99.0), Some(990.0));
    let above = v.iter().filter(|&&x| x > 990.0).count();
    assert!(above >= TAIL_SAMPLES);
    // p99.9 of 1000 samples would leave one above it: refused.
    assert_eq!(percentile(&v, 99.9), None);
    // p99 needs at least 1000 samples.
    assert_eq!(percentile(&v[..999], 99.0), None);
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn geometric_mean_matches_a_hand_computed_value() {
    // (0.5 · 2 · 0.25 · 4 · 0.8)^(1/5) = 0.8^(1/5) = 0.956352499…
    let g = geomean(&[0.5, 2.0, 0.25, 4.0, 0.8]);
    assert!((g - 0.956_352_499_790_037).abs() < 1e-12, "{g}");
    assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
}

#[test]
fn self_time_subtracts_direct_children() {
    let mut t = Tracer::new();
    let root = t.open(0, None, "root");
    t.span(0, Some(root), "child", || {
        std::thread::sleep(std::time::Duration::from_millis(2))
    });
    t.close(root);
    let times = t.self_times();
    let get = |n: &str| times.iter().find(|(k, _)| *k == n).unwrap().1;
    let root_total = t.spans()[0].end_ns - t.spans()[0].start_ns;
    assert_eq!(get("root") + get("child"), root_total);
    assert!(get("child") >= 2_000_000);
}
