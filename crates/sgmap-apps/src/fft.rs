//! Fast Fourier transform (the StreamIt coarse-grained FFT).
//!
//! An `N`-point FFT is expressed as a bit-reversal reorder stage, a single
//! split-join that processes the even/odd interleaved halves through chains
//! of `CombineDFT` butterfly filters, and a final combine of size `N`. The
//! graph deliberately contains exactly one splitter and one joiner,
//! matching the paper's observation ("FFT only has one splitter and one
//! joiner", Chapter V).

use sgmap_graph::{Filter, GraphBuilder, GraphError, JoinKind, SplitKind, StreamGraph, StreamSpec};

use crate::{unsupported_size, App};

/// Work estimate (abstract ops) per complex point of one butterfly stage.
pub const BUTTERFLY_WORK_PER_POINT: f64 = 6.0;

/// Builds the `n`-point FFT graph.
///
/// # Errors
///
/// Returns [`GraphError::UnsupportedSize`] if `n` is not a power of two of at
/// least 8.
pub fn build(n: u32) -> Result<StreamGraph, GraphError> {
    if n < 8 || !n.is_power_of_two() {
        return Err(unsupported_size(App::Fft, n, "a power of two >= 8"));
    }
    // Tokens are complex samples: 8 bytes each.
    let token_bytes = 8;
    let mk = |name: String, pop: u32, push: u32, work: f64| {
        StreamSpec::from_filter(Filter::new(name, pop, push, work).with_token_bytes(token_bytes))
    };

    let mut stages = Vec::new();
    stages.push(mk("source".to_string(), 0, n, f64::from(n) * 0.5));
    // Bit-reversal reorder, done in two passes as in the StreamIt program.
    stages.push(mk("reorder_coarse".to_string(), n, n, f64::from(n)));
    stages.push(mk("reorder_fine".to_string(), n, n, f64::from(n)));

    // One split-join whose two branches run the butterfly cascade over the
    // interleaved halves: CombineDFT_2, _4, ..., _{n/2}.
    let branch = |side: &str| {
        let mut chain = Vec::new();
        let mut k = 2u32;
        while k <= n / 2 {
            chain.push(mk(
                format!("combine_{side}_{k}"),
                k,
                k,
                BUTTERFLY_WORK_PER_POINT * f64::from(k),
            ));
            k *= 2;
        }
        StreamSpec::pipeline(chain)
    };
    stages.push(StreamSpec::split_join(
        SplitKind::RoundRobin(vec![2, 2]),
        vec![branch("even"), branch("odd")],
        JoinKind::RoundRobin(vec![2, 2]),
    ));

    // Final combine over the full transform size.
    stages.push(mk(
        format!("combine_final_{n}"),
        n,
        n,
        BUTTERFLY_WORK_PER_POINT * f64::from(n),
    ));
    stages.push(mk("sink".to_string(), n, 0, f64::from(n) * 0.5));

    GraphBuilder::new(format!("FFT_N{n}"))
        .token_bytes(token_bytes)
        .build(StreamSpec::pipeline(stages))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgmap_graph::FilterKind;

    #[test]
    fn fft_has_exactly_one_splitter_and_one_joiner() {
        for &n in &[8u32, 64, 1024] {
            let g = build(n).unwrap();
            let splitters = g
                .filters()
                .filter(|(_, f)| matches!(f.kind, FilterKind::Splitter(_)))
                .count();
            let joiners = g
                .filters()
                .filter(|(_, f)| matches!(f.kind, FilterKind::Joiner(_)))
                .count();
            assert_eq!((splitters, joiners), (1, 1), "N={n}");
        }
    }

    #[test]
    fn filter_count_grows_logarithmically() {
        let small = build(8).unwrap().filter_count();
        let large = build(1024).unwrap().filter_count();
        assert!(large > small);
        assert!(large < small + 20, "FFT grows with log2(N) only");
    }

    #[test]
    fn butterfly_stages_cover_all_sizes() {
        let g = build(64).unwrap();
        for k in [2u32, 4, 8, 16, 32] {
            assert!(
                g.filter_by_name(&format!("combine_even_{k}")).is_some(),
                "missing stage {k}"
            );
        }
        assert!(g.filter_by_name("combine_final_64").is_some());
    }

    #[test]
    fn invalid_sizes_are_rejected() {
        assert!(build(4).is_err());
        assert!(build(100).is_err());
    }

    #[test]
    fn complex_tokens_are_eight_bytes() {
        let g = build(8).unwrap();
        let src = g.filter_by_name("source").unwrap();
        assert_eq!(g.filter(src).token_bytes, 8);
    }
}
