//! Bitonic sorting networks (iterative `Bitonic` and recursive `BitonicRec`).
//!
//! Both applications sort `N` keys with a network of compare-exchange
//! filters. The iterative variant is a flat pipeline of `log²N` stages, each
//! a wide split-join over `N/2` comparators — it is the benchmark with "a
//! relatively high number of splitters and joiners" that Chapter V's
//! enhancement targets. The recursive variant builds the same network by the
//! classic recursive construction and therefore nests split-joins instead of
//! flattening them.

use sgmap_graph::{Filter, GraphBuilder, GraphError, JoinKind, SplitKind, StreamGraph, StreamSpec};

use crate::{unsupported_size, App};

/// Work estimate (abstract ops) of one compare-exchange of two keys.
pub const COMPARE_WORK: f64 = 3.0;

fn is_power_of_two(n: u32) -> bool {
    n >= 2 && n.is_power_of_two()
}

fn comparator(name: String) -> StreamSpec {
    StreamSpec::from_filter(Filter::new(name, 2, 2, COMPARE_WORK))
}

/// One stage of the iterative network: `n/2` comparators in a split-join.
fn comparator_stage(n: u32, stage: usize) -> StreamSpec {
    let branches = (0..n / 2)
        .map(|i| comparator(format!("cmp_s{stage}_{i}")))
        .collect::<Vec<_>>();
    let width = branches.len();
    StreamSpec::split_join(
        SplitKind::RoundRobin(vec![2; width]),
        branches,
        JoinKind::RoundRobin(vec![2; width]),
    )
}

/// Builds the iterative bitonic sorting network over `n` keys.
///
/// # Errors
///
/// Returns [`GraphError::UnsupportedSize`] if `n` is not a power of two of at
/// least 2 (mirroring the StreamIt program's requirement).
pub fn build_iterative(n: u32) -> Result<StreamGraph, GraphError> {
    if !is_power_of_two(n) {
        return Err(unsupported_size(App::Bitonic, n, "a power of two >= 2"));
    }
    let k = n.trailing_zeros() as usize; // log2(n)
    let mut stages = Vec::new();
    stages.push(StreamSpec::from_filter(Filter::new("source", 0, n, 1.0)));
    let mut stage_index = 0usize;
    for phase in 1..=k {
        for _pass in 0..phase {
            stages.push(comparator_stage(n, stage_index));
            stage_index += 1;
        }
    }
    stages.push(StreamSpec::from_filter(Filter::new("sink", n, 0, 1.0)));
    GraphBuilder::new(format!("Bitonic_N{n}")).build(StreamSpec::pipeline(stages))
}

/// Recursive bitonic merge of `n` keys.
fn bitonic_merge(n: u32, path: String) -> StreamSpec {
    if n == 2 {
        return comparator(format!("merge_cmp_{path}"));
    }
    // Compare element i with element i + n/2, then merge both halves.
    let compare_halves = StreamSpec::from_filter(Filter::new(
        format!("half_cmp_{path}"),
        n,
        n,
        COMPARE_WORK * f64::from(n / 2),
    ));
    let halves = StreamSpec::split_join(
        SplitKind::RoundRobin(vec![n / 2, n / 2]),
        vec![
            bitonic_merge(n / 2, format!("{path}l")),
            bitonic_merge(n / 2, format!("{path}r")),
        ],
        JoinKind::RoundRobin(vec![n / 2, n / 2]),
    );
    StreamSpec::pipeline(vec![compare_halves, halves])
}

/// Recursive bitonic sort of `n` keys.
fn bitonic_sort(n: u32, path: String) -> StreamSpec {
    if n == 2 {
        return comparator(format!("sort_cmp_{path}"));
    }
    let split = StreamSpec::split_join(
        SplitKind::RoundRobin(vec![n / 2, n / 2]),
        vec![
            bitonic_sort(n / 2, format!("{path}l")),
            bitonic_sort(n / 2, format!("{path}r")),
        ],
        JoinKind::RoundRobin(vec![n / 2, n / 2]),
    );
    StreamSpec::pipeline(vec![split, bitonic_merge(n, path)])
}

/// Builds the recursive bitonic sorting network over `n` keys.
///
/// # Errors
///
/// Returns [`GraphError::UnsupportedSize`] if `n` is not a power of two of at
/// least 2.
pub fn build_recursive(n: u32) -> Result<StreamGraph, GraphError> {
    if !is_power_of_two(n) {
        return Err(unsupported_size(App::BitonicRec, n, "a power of two >= 2"));
    }
    let spec = StreamSpec::pipeline(vec![
        StreamSpec::from_filter(Filter::new("source", 0, n, 1.0)),
        bitonic_sort(n, "t".to_string()),
        StreamSpec::from_filter(Filter::new("sink", n, 0, 1.0)),
    ]);
    GraphBuilder::new(format!("BitonicRec_N{n}")).build(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{behavior, Interpreter};
    use sgmap_graph::FilterKind;

    #[test]
    fn iterative_network_has_the_expected_stage_count() {
        for &n in &[2u32, 4, 8, 16] {
            let g = build_iterative(n).unwrap();
            let k = n.trailing_zeros();
            let stages = k * (k + 1) / 2;
            let comparators = g
                .filters()
                .filter(|(_, f)| f.name.starts_with("cmp_"))
                .count() as u32;
            assert_eq!(comparators, stages * (n / 2), "N={n}");
        }
    }

    #[test]
    fn iterative_has_many_splitters_recursive_fewer_per_comparator() {
        let it = build_iterative(16).unwrap();
        let rec = build_recursive(16).unwrap();
        let count_reorder = |g: &StreamGraph| {
            g.filters()
                .filter(|(_, f)| matches!(f.kind, FilterKind::Splitter(_) | FilterKind::Joiner(_)))
                .count()
        };
        assert!(count_reorder(&it) > 0);
        assert!(count_reorder(&rec) > 0);
        // The iterative flat form uses one splitter+joiner pair per stage.
        let k = 4;
        assert_eq!(count_reorder(&it), 2 * (k * (k + 1) / 2));
    }

    #[test]
    fn non_power_of_two_is_rejected() {
        assert!(build_iterative(12).is_err());
        assert!(build_recursive(3).is_err());
        assert!(build_iterative(1).is_err());
    }

    #[test]
    fn network_output_is_a_permutation_of_its_input() {
        // Attach real compare-exchange semantics and check that the network
        // neither loses nor duplicates keys.
        let n = 8u32;
        let g = build_iterative(n).unwrap();
        let mut interp = Interpreter::new(&g);
        let src = g.filter_by_name("source").unwrap();
        let sink = g.filter_by_name("sink").unwrap();
        let input: Vec<f64> = vec![5.0, 1.0, 7.0, 3.0, 2.0, 8.0, 6.0, 4.0];
        interp.set_source_data(src, input.clone());
        interp.set_behavior_by_prefix("cmp_", |_| {
            behavior(|inputs, outputs| {
                let (a, b) = (inputs[0][0], inputs[0][1]);
                outputs[0].push(a.min(b));
                outputs[0].push(a.max(b));
            })
        });
        interp.run(1).unwrap();
        let mut out = interp.sink_output(sink).to_vec();
        let mut expected = input;
        out.sort_by(f64::total_cmp);
        expected.sort_by(f64::total_cmp);
        assert_eq!(out, expected);
    }

    #[test]
    fn recursive_and_iterative_sort_the_same_sizes() {
        for &n in &[2u32, 4, 8, 16, 32, 64] {
            let it = build_iterative(n).unwrap();
            let rec = build_recursive(n).unwrap();
            assert!(it.filter_count() >= rec.filter_count() / 4);
            assert!(it.repetition_vector().is_ok());
            assert!(rec.repetition_vector().is_ok());
        }
    }
}
