//! Two-dimensional discrete cosine transform over `N × N` blocks
//! (compute-bound benchmark).
//!
//! The block is transformed row-wise by a split-join of `N` one-dimensional
//! DCT filters, transposed, transformed again column-wise, and quantised.
//! Every 1-D DCT filter performs `O(N²)` multiply-accumulates on `N` input
//! samples, giving the high compute-to-IO ratio that puts DCT in the paper's
//! compute-bound class.

use sgmap_graph::{GraphBuilder, GraphError, JoinKind, SplitKind, StreamGraph, StreamSpec};

use crate::{unsupported_size, App};

/// Work estimate of a 1-D DCT over `n` samples (direct `n²` formulation,
/// two ops per multiply-accumulate).
pub fn dct_1d_work(n: u32) -> f64 {
    2.0 * f64::from(n) * f64::from(n)
}

fn dct_pass(n: u32, axis: &str) -> StreamSpec {
    let lanes: Vec<StreamSpec> = (0..n)
        .map(|i| StreamSpec::filter(format!("dct_{axis}_{i}"), n, n, dct_1d_work(n)))
        .collect();
    StreamSpec::split_join(
        SplitKind::RoundRobin(vec![n; n as usize]),
        lanes,
        JoinKind::RoundRobin(vec![n; n as usize]),
    )
}

/// Builds the 2-D DCT graph for `n × n` blocks.
///
/// # Errors
///
/// Returns [`GraphError::UnsupportedSize`] if `n` is below 2.
pub fn build(n: u32) -> Result<StreamGraph, GraphError> {
    if n < 2 {
        return Err(unsupported_size(App::Dct, n, "at least 2"));
    }
    let block = n * n;
    let spec = StreamSpec::pipeline(vec![
        StreamSpec::filter("source", 0, block, f64::from(n)),
        dct_pass(n, "row"),
        StreamSpec::filter("transpose", block, block, f64::from(block)),
        dct_pass(n, "col"),
        StreamSpec::filter("quantize", block, block, 2.0 * f64::from(block)),
        StreamSpec::filter("sink", block, 0, f64::from(n)),
    ]);
    GraphBuilder::new(format!("DCT_N{n}")).build(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_dct_passes_of_n_lanes_each() {
        let g = build(8).unwrap();
        let rows = g
            .filters()
            .filter(|(_, f)| f.name.starts_with("dct_row_"))
            .count();
        let cols = g
            .filters()
            .filter(|(_, f)| f.name.starts_with("dct_col_"))
            .count();
        assert_eq!((rows, cols), (8, 8));
        // source, transpose, quantize, sink + 2*(split+join) = 8 extra.
        assert_eq!(g.filter_count(), 16 + 8);
    }

    #[test]
    fn work_grows_cubically_with_n() {
        let small = build(4).unwrap();
        let large = build(8).unwrap();
        let rs = small.repetition_vector().unwrap();
        let rl = large.repetition_vector().unwrap();
        let ratio = large.iteration_work(&rl) / small.iteration_work(&rs);
        assert!(ratio > 6.0, "doubling N should ~8x the work, got {ratio}");
    }

    #[test]
    fn compute_to_io_ratio_is_high() {
        let g = build(16).unwrap();
        let reps = g.repetition_vector().unwrap();
        let work = g.iteration_work(&reps);
        let io = (g.primary_input_bytes(&reps) + g.primary_output_bytes(&reps)) as f64;
        assert!(work / io > 5.0, "work/io = {}", work / io);
    }

    #[test]
    fn tiny_blocks_are_rejected() {
        assert!(build(1).is_err());
        assert!(build(0).is_err());
    }

    #[test]
    fn all_paper_sizes_build() {
        for n in [2u32, 6, 10, 14, 18, 22, 26, 30] {
            assert!(build(n).is_ok(), "N={n}");
        }
    }
}
