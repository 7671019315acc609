//! The arithmetic behind the reported numbers, on fixed inputs.

use sgmap_benchmark::compare::{claim, judge, Verdict};
use sgmap_benchmark::spec::{BenchSpec, Better};
use sgmap_benchmark::stats::{geomean, median, percentile, quartiles, relative_spread};
use sgmap_benchmark::trace::{self_times_ns, SpanRecord, Tracer};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12 * b.abs().max(1.0)
}

#[test]
fn percentiles_interpolate_between_ranks() {
    let v = [4.0, 1.0, 3.0, 2.0];
    assert_eq!(percentile(&v, 0.0), Some(1.0));
    assert_eq!(percentile(&v, 100.0), Some(4.0));
    assert_eq!(median(&v), Some(2.5));
    assert!(close(percentile(&v, 90.0).unwrap(), 3.7));
    assert_eq!(median(&[5.0]), Some(5.0));
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Expected values from `statistics.quantiles(data, n=4)`.
    assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), Some([1.25, 2.5, 3.75]));
    assert_eq!(
        quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]),
        Some([1.75, 3.5, 5.25])
    );
    assert_eq!(quartiles(&[7.0, 1.0]), Some([-0.5, 4.0, 8.5]));
    assert_eq!(quartiles(&[2.0, 8.0, 4.0]), Some([2.0, 4.0, 8.0]));
    assert_eq!(quartiles(&[6.0]), Some([6.0; 3]));
    assert_eq!(quartiles(&[]), None);
    assert!(close(relative_spread(&[1.0, 2.0, 3.0, 4.0]).unwrap(), 1.0));
}

#[test]
fn geomean_of_positive_values_only() {
    assert!(close(geomean(&[2.0, 8.0]).unwrap(), 4.0));
    assert!(close(geomean(&[1.0, 10.0, 100.0]).unwrap(), 10.0));
    assert_eq!(geomean(&[]), None);
    assert_eq!(geomean(&[1.0, 0.0]), None);
    assert_eq!(geomean(&[1.0, f64::NAN]), None);
}

fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> SpanRecord {
    SpanRecord {
        job: 1,
        parent,
        name: "s",
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_direct_children() {
    let spans = [
        span(None, 0, 100),
        span(Some(0), 10, 30),
        span(Some(0), 20, 50), // overlaps its sibling: 10..50 is covered once
        span(Some(1), 12, 15), // a grandchild only reduces its own parent
    ];
    assert_eq!(self_times_ns(&spans), vec![60, 17, 30, 3]);
}

#[test]
fn tracer_nests_spans_under_the_job_root() {
    let mut tracer = Tracer::new();
    let root = tracer.begin_job();
    let value = tracer.leaf("a", || 2 + 4);
    let inner = tracer.begin("b");
    tracer.leaf("c", || ());
    tracer.end(inner);
    tracer.end(root);
    assert_eq!(value, 6);
    let names: Vec<(&str, Option<usize>)> =
        tracer.spans().iter().map(|s| (s.name, s.parent)).collect();
    assert_eq!(
        names,
        vec![
            ("job", None),
            ("a", Some(0)),
            ("b", Some(0)),
            ("c", Some(2))
        ]
    );
    assert!(tracer.spans().iter().all(|s| s.end_ns >= s.start_ns));
    // A job root left open (a replay that panicked) is closed by the next.
    tracer.begin_job();
    tracer.begin("dangling");
    let next = tracer.begin_job();
    assert_eq!(tracer.spans()[next].parent, None);
    assert_eq!(tracer.spans()[next].job, 3);
}

#[test]
fn judge_applies_the_bound_and_the_spread_rule() {
    let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 0.1).collect();
    let scaled = |f: f64| parent.iter().map(|x| x * f).collect::<Vec<_>>();
    let ok = judge(&parent, &scaled(1.05), Better::Lower, 0.1).unwrap();
    assert_eq!(ok.verdict, Verdict::Ok);
    assert!(close(ok.worse_by, 0.05));
    assert_eq!(
        judge(&parent, &scaled(1.2), Better::Lower, 0.1)
            .unwrap()
            .verdict,
        Verdict::Worse
    );
    assert_eq!(
        judge(&parent, &scaled(0.8), Better::Higher, 0.1)
            .unwrap()
            .verdict,
        Verdict::Worse
    );
    // Runs spread wider than the bound decide nothing...
    let noisy: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 10.0).collect();
    assert_eq!(
        judge(&parent, &noisy, Better::Lower, 0.1).unwrap().verdict,
        Verdict::Unresolved
    );
    // ...unless every run of the change beats every run of the parent.
    let better_noisy: Vec<f64> = (0..10).map(|i| 50.0 - f64::from(i) * 4.0).collect();
    assert_eq!(
        judge(&parent, &better_noisy, Better::Lower, 0.1)
            .unwrap()
            .verdict,
        Verdict::Ok
    );
    assert_eq!(judge(&[], &parent, Better::Lower, 0.1), None);
}

#[test]
fn claims_need_nine_of_ten_pairs_and_a_gap_beyond_the_parent_iqr() {
    let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
    let faster: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
    let c = claim(&parent, &faster, Better::Lower).unwrap();
    assert_eq!((c.pairs, c.wins), (10, 10));
    assert!(c.met, "{c:?}");

    // Two lost pairs: 8 of 10 is not enough.
    let mut mixed = faster.clone();
    mixed[0] = 200.0;
    mixed[1] = 200.0;
    assert!(!claim(&parent, &mixed, Better::Lower).unwrap().met);

    // Every pair won, but by less than the parent's own spread.
    let barely: Vec<f64> = parent.iter().map(|x| x - 0.5).collect();
    let c = claim(&parent, &barely, Better::Lower).unwrap();
    assert_eq!(c.wins, 10);
    assert!(!c.met, "{c:?}");

    // Fewer than ten pairs never make a claim.
    assert!(
        !claim(&parent[..9], &faster[..9], Better::Lower)
            .unwrap()
            .met
    );
}

#[test]
fn the_metric_table_parses_and_bounds_every_end_to_end_metric() {
    let spec = BenchSpec::load().unwrap();
    assert_eq!(spec.workloads.len(), 4);
    assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
    assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    let setup = spec.end_to_end_metric("setup_s").unwrap();
    assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
    assert!(BenchSpec::parse("{}").is_err());
}

#[test]
fn geomean_does_not_depend_on_order() {
    let values = [0.1, 3.7, 12.5, 0.013, 7.0, 1e3, 2.2];
    let mut reversed = values;
    reversed.reverse();
    assert_eq!(
        geomean(&values).unwrap().to_bits(),
        geomean(&reversed).unwrap().to_bits()
    );
}
