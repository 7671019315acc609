//! The StreamIt benchmark applications used by the paper's evaluation.
//!
//! The paper evaluates its mapping technique on the eight applications of the
//! StreamIt distribution that the prior work [7] also uses: DES, FMRadio,
//! FFT, DCT, MatMul2, MatMul3, BitonicRec and Bitonic, each parameterised by
//! a size parameter `N`. This crate provides programmatic generators for all
//! eight as [`StreamGraph`]s — the same graphs the StreamIt compiler would
//! hand to the mapping back-end. The unit tests attach executable filter
//! semantics where exact functional checks are practical (matrix multiply,
//! bitonic compare-exchange networks) and run them on the stream-graph
//! interpreter of `sgmap-graph`'s test support.
//!
//! The generators are structurally faithful rather than line-by-line ports:
//! the composition of pipelines and split-joins, the relative weight of
//! compute versus re-ordering filters, and the way the graph grows with `N`
//! follow the StreamIt originals, which is what the partitioning and mapping
//! algorithms are sensitive to.
//!
//! # Example
//!
//! ```rust
//! use sgmap_apps::App;
//!
//! let graph = App::Fft.build(64).unwrap();
//! assert!(graph.filter_count() > 10);
//! assert!(graph.repetition_vector().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitonic;
pub mod dct;
pub mod des;
pub mod fft;
pub mod fmradio;
pub mod matmul;
pub mod synthetic;

#[cfg(test)]
#[path = "../../sgmap-graph/tests/support/interp.rs"]
mod interp;

use sgmap_graph::{GraphError, StreamGraph};

/// The eight benchmark applications of the paper's evaluation, plus the
/// seeded synthetic families used by the scaling experiments (see
/// [`synthetic`]). For the synthetic variants `n` is the target number of
/// leaf filters rather than a problem size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// DES block cipher (compute-bound).
    Des,
    /// FM radio with a multi-band equaliser.
    FmRadio,
    /// Fast Fourier transform.
    Fft,
    /// 2-D discrete cosine transform (compute-bound).
    Dct,
    /// Product of two matrices.
    MatMul2,
    /// Product of three matrices.
    MatMul3,
    /// Recursive bitonic sorting network.
    BitonicRec,
    /// Iterative bitonic sorting network.
    Bitonic,
    /// Seeded synthetic graph, pipeline-heavy (`n` ≈ leaf filter count).
    SynthPipe,
    /// Seeded synthetic graph, split-join-heavy (`n` ≈ leaf filter count).
    SynthFan,
    /// Seeded synthetic graph with feedback loops (`n` ≈ leaf filter count).
    SynthLoop,
}

impl App {
    /// All eight applications, in the order used by the paper's figures.
    pub fn all() -> [App; 8] {
        [
            App::Des,
            App::FmRadio,
            App::Fft,
            App::Dct,
            App::MatMul2,
            App::MatMul3,
            App::BitonicRec,
            App::Bitonic,
        ]
    }

    /// The five applications whose multi-GPU results are reported by the
    /// prior work [7] and therefore appear in the Figure 4.3 comparison.
    pub fn figure_4_3_subset() -> [App; 5] {
        [App::Des, App::Dct, App::Fft, App::MatMul3, App::Bitonic]
    }

    /// The synthetic scaling families ([`synthetic`]). Deliberately *not*
    /// part of [`App::all`]: the paper presets and their golden reports stay
    /// exactly as they were, and the synthetic apps opt in via the
    /// `synthetic` sweep preset or an explicit spec.
    pub fn synthetic() -> [App; 3] {
        [App::SynthPipe, App::SynthFan, App::SynthLoop]
    }

    /// Looks an application up by its display [`App::name`] (used by the
    /// `sweep --spec` loader). Covers the paper apps and the synthetic
    /// families.
    pub fn by_name(name: &str) -> Option<App> {
        App::all()
            .into_iter()
            .chain(App::synthetic())
            .find(|app| app.name() == name)
    }

    /// Short display name as used in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            App::Des => "DES",
            App::FmRadio => "FMRadio",
            App::Fft => "FFT",
            App::Dct => "DCT",
            App::MatMul2 => "MatMul2",
            App::MatMul3 => "MatMul3",
            App::BitonicRec => "BitonicRec",
            App::Bitonic => "Bitonic",
            App::SynthPipe => "SynthPipe",
            App::SynthFan => "SynthFan",
            App::SynthLoop => "SynthLoop",
        }
    }

    /// The values of the size parameter `N` swept in Figure 4.2.
    pub fn paper_n_values(&self) -> Vec<u32> {
        match self {
            App::Des => vec![4, 8, 12, 16, 20, 24, 28, 32],
            App::FmRadio => vec![4, 8, 12, 16, 20, 24, 28, 32],
            App::Fft => vec![8, 16, 32, 64, 128, 256, 512, 1024],
            App::Dct => vec![2, 6, 10, 14, 18, 22, 26, 30],
            App::MatMul2 => vec![2, 3, 4, 5, 6, 7, 8, 9],
            App::MatMul3 => vec![1, 2, 3, 4, 5, 6, 7],
            App::BitonicRec => vec![2, 4, 8, 16, 32, 64],
            App::Bitonic => vec![2, 4, 8, 16, 32, 64],
            App::SynthPipe | App::SynthFan | App::SynthLoop => {
                vec![1_000, 5_000, 10_000, 50_000]
            }
        }
    }

    /// A reduced sweep used by the default experiment harness so that the
    /// full evaluation completes quickly on one CPU core; pass `--full` to
    /// the harness binaries to run [`App::paper_n_values`] instead.
    pub fn quick_n_values(&self) -> Vec<u32> {
        match self {
            App::Des => vec![4, 12, 20, 32],
            App::FmRadio => vec![4, 12, 20, 32],
            App::Fft => vec![8, 32, 128, 512],
            App::Dct => vec![2, 10, 18, 30],
            App::MatMul2 => vec![2, 4, 6, 9],
            App::MatMul3 => vec![1, 3, 5, 7],
            App::BitonicRec => vec![2, 8, 16, 32],
            App::Bitonic => vec![2, 8, 16, 32],
            App::SynthPipe | App::SynthFan | App::SynthLoop => vec![1_000, 5_000],
        }
    }

    /// Builds the stream graph for the given size parameter.
    ///
    /// # Errors
    ///
    /// Returns an error if `n` is not supported by the application (e.g. a
    /// non-power-of-two FFT size) or if graph construction fails.
    pub fn build(&self, n: u32) -> Result<StreamGraph, GraphError> {
        match self {
            App::Des => des::build(n),
            App::FmRadio => fmradio::build(n),
            App::Fft => fft::build(n),
            App::Dct => dct::build(n),
            App::MatMul2 => matmul::build_matmul2(n),
            App::MatMul3 => matmul::build_matmul3(n),
            App::BitonicRec => bitonic::build_recursive(n),
            App::Bitonic => bitonic::build_iterative(n),
            App::SynthPipe => synthetic::build(synthetic::Family::Pipeline, n),
            App::SynthFan => synthetic::build(synthetic::Family::SplitJoin, n),
            App::SynthLoop => synthetic::build(synthetic::Family::Mixed, n),
        }
    }
}

/// The error a generator returns for a size parameter its application does
/// not support.
fn unsupported_size(app: App, n: u32, requirement: &'static str) -> GraphError {
    GraphError::UnsupportedSize {
        app: app.name(),
        n,
        requirement,
    }
}

impl std::fmt::Display for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_app_builds_and_validates_for_every_paper_n() {
        for app in App::all() {
            for n in app.paper_n_values() {
                let g = app
                    .build(n)
                    .unwrap_or_else(|e| panic!("{app} N={n} failed: {e}"));
                g.validate()
                    .unwrap_or_else(|e| panic!("{app} N={n} invalid: {e}"));
                let reps = g
                    .repetition_vector()
                    .unwrap_or_else(|e| panic!("{app} N={n} rates: {e}"));
                assert!(reps.iter().all(|&r| r >= 1), "{app} N={n} zero firing");
            }
        }
    }

    #[test]
    fn unsupported_sizes_name_the_app_and_n() {
        let cases = [
            (App::Des, 0),
            (App::FmRadio, 0),
            (App::Fft, 7),
            (App::Dct, 1),
            (App::MatMul2, 0),
            (App::MatMul3, 0),
            (App::BitonicRec, 6),
            (App::Bitonic, 6),
        ];
        for (app, n) in cases {
            let msg = app.build(n).unwrap_err().to_string();
            assert!(
                msg.starts_with(&format!("{app}: N must be "))
                    && msg.ends_with(&format!("got {n}")),
                "{app} N={n}: {msg}"
            );
        }
    }

    #[test]
    fn graphs_grow_with_n() {
        for app in App::all() {
            let ns = app.paper_n_values();
            let small = app.build(ns[0]).unwrap().filter_count();
            let large = app.build(*ns.last().unwrap()).unwrap().filter_count();
            assert!(
                large >= small,
                "{app}: filter count should not shrink with N ({small} -> {large})"
            );
        }
    }

    #[test]
    fn quick_sweeps_are_subsets_of_paper_sweeps() {
        for app in App::all() {
            let paper = app.paper_n_values();
            for n in app.quick_n_values() {
                assert!(paper.contains(&n), "{app}: {n} not a paper N value");
            }
        }
    }

    #[test]
    fn names_and_classification_match_the_paper() {
        assert_eq!(App::Des.name(), "DES");
        assert_eq!(App::figure_4_3_subset().len(), 5);
    }

    #[test]
    fn synthetic_apps_are_named_but_not_in_all() {
        for app in App::synthetic() {
            assert!(!App::all().contains(&app), "{app} must stay out of all()");
            assert_eq!(App::by_name(app.name()), Some(app));
            for n in app.quick_n_values() {
                assert!(app.paper_n_values().contains(&n));
            }
        }
        assert_eq!(App::by_name("DES"), Some(App::Des));
        assert_eq!(App::by_name("NoSuchApp"), None);
    }
}
