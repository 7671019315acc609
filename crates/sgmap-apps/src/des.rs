//! DES block cipher (compute-bound benchmark).
//!
//! `N` controls the number of Feistel rounds in the pipeline (the StreamIt
//! program's size parameter). Every round duplicates the block into a
//! "function" branch — expansion, S-box substitution and permutation, the
//! compute-heavy part — and a pass-through branch, XOR-ing the results back
//! together. The graph is therefore a long pipeline of small split-joins,
//! with a large amount of arithmetic per byte of stream data: the archetype
//! of the paper's compute-bound class.

use sgmap_graph::{GraphBuilder, GraphError, JoinKind, SplitKind, StreamGraph, StreamSpec};

use crate::{unsupported_size, App};

/// Work estimate of one S-box substitution pass over a half block.
pub const SBOX_WORK: f64 = 96.0;
/// Work estimate of the expansion permutation.
pub const EXPAND_WORK: f64 = 32.0;
/// Work estimate of the P permutation.
pub const PERMUTE_WORK: f64 = 24.0;
/// Work estimate of the round XOR.
pub const XOR_WORK: f64 = 8.0;

fn round(index: u32) -> StreamSpec {
    // The block is 2 tokens (two 32-bit halves). The function branch works on
    // the right half expanded with the round key; the other branch passes the
    // block through untouched.
    let f_branch = StreamSpec::pipeline(vec![
        StreamSpec::filter(format!("expand_r{index}"), 2, 2, EXPAND_WORK),
        StreamSpec::filter(format!("sbox_r{index}"), 2, 2, SBOX_WORK),
        StreamSpec::filter(format!("permute_r{index}"), 2, 2, PERMUTE_WORK),
    ]);
    let pass_branch = StreamSpec::filter(format!("pass_r{index}"), 2, 2, 2.0);
    StreamSpec::pipeline(vec![
        StreamSpec::split_join(
            SplitKind::Duplicate,
            vec![f_branch, pass_branch],
            JoinKind::RoundRobin(vec![2, 2]),
        ),
        StreamSpec::filter(format!("xor_r{index}"), 4, 2, XOR_WORK),
    ])
}

/// Builds a DES pipeline with `n` rounds.
///
/// # Errors
///
/// Returns [`GraphError::UnsupportedSize`] if `n` is zero.
pub fn build(n: u32) -> Result<StreamGraph, GraphError> {
    if n == 0 {
        return Err(unsupported_size(App::Des, n, "at least 1"));
    }
    let mut stages = Vec::new();
    stages.push(StreamSpec::filter("source", 0, 2, 2.0));
    stages.push(StreamSpec::filter(
        "initial_permutation",
        2,
        2,
        PERMUTE_WORK,
    ));
    for r in 0..n {
        stages.push(round(r));
    }
    stages.push(StreamSpec::filter("final_permutation", 2, 2, PERMUTE_WORK));
    stages.push(StreamSpec::filter("sink", 2, 0, 2.0));
    GraphBuilder::new(format!("DES_N{n}")).build(StreamSpec::pipeline(stages))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_count_grows_linearly_with_rounds() {
        let g4 = build(4).unwrap();
        let g8 = build(8).unwrap();
        let per_round = (g8.filter_count() - g4.filter_count()) / 4;
        assert_eq!(per_round, 7, "each round adds split, 4 filters, join, xor");
        assert_eq!(g4.filter_count(), 4 + 4 * per_round);
    }

    #[test]
    fn rounds_are_compute_heavy() {
        let g = build(8).unwrap();
        let reps = g.repetition_vector().unwrap();
        let work = g.iteration_work(&reps);
        let io = g.primary_input_bytes(&reps) + g.primary_output_bytes(&reps);
        // Far more than one op per byte of primary IO.
        assert!(work / io as f64 > 20.0, "work/io = {}", work / io as f64);
    }

    #[test]
    fn all_paper_sizes_build() {
        for n in [4u32, 8, 12, 16, 20, 24, 28, 32] {
            let g = build(n).unwrap();
            g.validate().unwrap();
            assert!(g.repetition_vector().is_ok());
        }
    }

    #[test]
    fn zero_rounds_is_rejected() {
        assert!(build(0).is_err());
    }
}
