//! FM radio receiver with a multi-band equaliser.
//!
//! The classic StreamIt FMRadio: a low-pass front end and an FM demodulator
//! feed an equaliser that duplicates the demodulated signal into `N` bands;
//! every band is itself a small split-join of two FIR low-pass filters whose
//! outputs are subtracted (a band-pass), and the bands are summed back
//! together. The FIR filters have large peek windows, which is what makes
//! this benchmark's buffers interesting for the shared-memory model.

use sgmap_graph::{Filter, GraphBuilder, GraphError, JoinKind, SplitKind, StreamGraph, StreamSpec};

use crate::{unsupported_size, App};

/// Number of taps of each FIR filter (the StreamIt program uses 64).
pub const FIR_TAPS: u32 = 64;
/// Work estimate of one FIR firing (one multiply-accumulate per tap).
pub const FIR_WORK: f64 = 2.0 * FIR_TAPS as f64;

fn fir(name: String) -> StreamSpec {
    StreamSpec::from_filter(Filter::new(name, 1, 1, FIR_WORK).with_peek(FIR_TAPS))
}

/// One equaliser band: a band-pass built from two low-pass FIRs and a
/// subtractor.
fn band(index: u32) -> StreamSpec {
    StreamSpec::pipeline(vec![
        StreamSpec::split_join(
            SplitKind::Duplicate,
            vec![
                fir(format!("band{index}_low")),
                fir(format!("band{index}_high")),
            ],
            JoinKind::RoundRobin(vec![1, 1]),
        ),
        StreamSpec::filter(format!("band{index}_subtract"), 2, 1, 4.0),
        StreamSpec::filter(format!("band{index}_gain"), 1, 1, 2.0),
    ])
}

/// Builds the FM radio graph with an `n`-band equaliser.
///
/// # Errors
///
/// Returns [`GraphError::UnsupportedSize`] if `n` is zero.
pub fn build(n: u32) -> Result<StreamGraph, GraphError> {
    if n == 0 {
        return Err(unsupported_size(App::FmRadio, n, "at least 1"));
    }
    let bands: Vec<StreamSpec> = (0..n).map(band).collect();
    let spec = StreamSpec::pipeline(vec![
        StreamSpec::filter("source", 0, 1, 2.0),
        fir("front_lowpass".to_string()),
        StreamSpec::from_filter(Filter::new("fm_demodulator", 1, 1, 24.0).with_peek(2)),
        StreamSpec::split_join(
            SplitKind::Duplicate,
            bands,
            JoinKind::RoundRobin(vec![1; n as usize]),
        ),
        StreamSpec::filter("adder", n, 1, f64::from(n)),
        StreamSpec::filter("sink", 1, 0, 2.0),
    ]);
    GraphBuilder::new(format!("FMRadio_N{n}")).build(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_count_scales_filter_count() {
        let g4 = build(4).unwrap();
        let g8 = build(8).unwrap();
        let per_band = (g8.filter_count() - g4.filter_count()) / 4;
        // splitter + 2 FIR + joiner + subtract + gain = 6 filters per band.
        assert_eq!(per_band, 6);
    }

    #[test]
    fn fir_filters_peek_beyond_their_pop_rate() {
        let g = build(4).unwrap();
        let f = g.filter_by_name("band0_low").unwrap();
        assert_eq!(g.filter(f).pop, 1);
        assert_eq!(g.filter(f).peek, FIR_TAPS);
    }

    #[test]
    fn all_paper_sizes_build_and_balance() {
        for n in [4u32, 8, 12, 16, 20, 24, 28, 32] {
            let g = build(n).unwrap();
            let reps = g.repetition_vector().unwrap();
            // Uniform rates: every filter fires once per iteration except the
            // sink side of the adder which also fires once.
            assert!(reps.iter().all(|&r| r == 1), "N={n}");
        }
    }

    #[test]
    fn zero_bands_is_rejected() {
        assert!(build(0).is_err());
    }
}
