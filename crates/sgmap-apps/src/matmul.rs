//! Matrix multiplication benchmarks: `MatMul2` (A·B) and `MatMul3` (A·B·C).
//!
//! `N` is the matrix dimension. The product is computed by duplicating the
//! operand stream to `N` row-compute filters, each of which produces one row
//! of the result; the rows are joined back in order. `MatMul3` chains two
//! such stages, forwarding the third operand past the first stage through a
//! round-robin split-join.
//!
//! The tests attach executable semantics to `MatMul2` and check the
//! generated graph against a reference multiply.

use sgmap_graph::{Filter, GraphBuilder, GraphError, JoinKind, SplitKind, StreamGraph, StreamSpec};

use crate::{unsupported_size, App};

/// Work of one row of an `n × n` product: `n` dot products of length `n`.
pub fn row_work(n: u32) -> f64 {
    2.0 * f64::from(n) * f64::from(n)
}

/// A split-join computing `A · B` where the input stream carries the two
/// operands back to back (`2·n²` tokens) and the output is the product
/// row-major (`n²` tokens). `tag` keeps filter names unique across stages.
fn product_stage(n: u32, tag: &str) -> StreamSpec {
    let rows: Vec<StreamSpec> = (0..n)
        .map(|i| {
            StreamSpec::from_filter(Filter::new(
                format!("row_{tag}_{i}"),
                2 * n * n,
                n,
                row_work(n),
            ))
        })
        .collect();
    StreamSpec::split_join(
        SplitKind::Duplicate,
        rows,
        JoinKind::RoundRobin(vec![n; n as usize]),
    )
}

/// Builds the two-matrix product graph for `n × n` matrices.
///
/// # Errors
///
/// Returns [`GraphError::UnsupportedSize`] if `n` is zero.
pub fn build_matmul2(n: u32) -> Result<StreamGraph, GraphError> {
    if n == 0 {
        return Err(unsupported_size(App::MatMul2, n, "at least 1"));
    }
    let spec = StreamSpec::pipeline(vec![
        StreamSpec::filter("source", 0, 2 * n * n, f64::from(n)),
        product_stage(n, "ab"),
        StreamSpec::filter("sink", n * n, 0, f64::from(n)),
    ]);
    GraphBuilder::new(format!("MatMul2_N{n}")).build(spec)
}

/// Builds the three-matrix product graph `A · B · C` for `n × n` matrices.
///
/// # Errors
///
/// Returns [`GraphError::UnsupportedSize`] if `n` is zero.
pub fn build_matmul3(n: u32) -> Result<StreamGraph, GraphError> {
    if n == 0 {
        return Err(unsupported_size(App::MatMul3, n, "at least 1"));
    }
    let nn = n * n;
    // First stage consumes A and B (2n² tokens) and must forward C (n²
    // tokens) untouched; a round-robin split keeps the two lanes apart.
    let first = StreamSpec::split_join(
        SplitKind::RoundRobin(vec![2 * nn, nn]),
        vec![
            product_stage(n, "ab"),
            StreamSpec::filter("forward_c", nn, nn, f64::from(nn)),
        ],
        JoinKind::RoundRobin(vec![nn, nn]),
    );
    let spec = StreamSpec::pipeline(vec![
        StreamSpec::filter("source", 0, 3 * nn, f64::from(n)),
        first,
        product_stage(n, "abc"),
        StreamSpec::filter("sink", nn, 0, f64::from(n)),
    ]);
    GraphBuilder::new(format!("MatMul3_N{n}")).build(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{behavior, Interpreter};

    /// Attaches executable semantics to a `MatMul2` graph: each row filter
    /// computes its row of `A·B` from the duplicated operand stream.
    fn attach_matmul2_behaviors(interp: &mut Interpreter<'_>, graph: &StreamGraph, n: u32) {
        let n = n as usize;
        for (id, f) in graph.filters() {
            if let Some(rest) = f.name.strip_prefix("row_ab_") {
                let row: usize = rest.parse().expect("row index in filter name");
                interp.set_behavior(
                    id,
                    behavior(move |inputs, outputs| {
                        let data = &inputs[0];
                        let (a, b) = data.split_at(n * n);
                        for j in 0..n {
                            let mut acc = 0.0;
                            for k in 0..n {
                                acc += a[row * n + k] * b[k * n + j];
                            }
                            outputs[0].push(acc);
                        }
                    }),
                );
            }
        }
    }

    /// Reference row-major matrix multiply used by the functional tests.
    fn reference_matmul(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
        let mut c = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += a[i * n + k] * b[k * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    #[test]
    fn matmul2_computes_the_exact_product() {
        let n = 4u32;
        let g = build_matmul2(n).unwrap();
        let mut interp = Interpreter::new(&g);
        let a: Vec<f64> = (0..16).map(|i| f64::from(i) * 0.5).collect();
        let b: Vec<f64> = (0..16).map(|i| f64::from(15 - i)).collect();
        let mut input = a.clone();
        input.extend_from_slice(&b);
        let src = g.filter_by_name("source").unwrap();
        let sink = g.filter_by_name("sink").unwrap();
        interp.set_source_data(src, input);
        attach_matmul2_behaviors(&mut interp, &g, n);
        interp.run(1).unwrap();
        let expected = reference_matmul(&a, &b, n as usize);
        let got = interp.sink_output(sink);
        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            assert!((g - e).abs() < 1e-9, "{g} != {e}");
        }
    }

    #[test]
    fn matmul2_structure() {
        let g = build_matmul2(6).unwrap();
        let rows = g
            .filters()
            .filter(|(_, f)| f.name.starts_with("row_ab_"))
            .count();
        assert_eq!(rows, 6);
        // source, split, 6 rows, join, sink.
        assert_eq!(g.filter_count(), 10);
    }

    #[test]
    fn matmul3_chains_two_products() {
        let g = build_matmul3(3).unwrap();
        let ab = g
            .filters()
            .filter(|(_, f)| f.name.starts_with("row_ab_"))
            .count();
        let abc = g
            .filters()
            .filter(|(_, f)| f.name.starts_with("row_abc_"))
            .count();
        assert_eq!((ab, abc), (3, 3));
        assert!(g.filter_by_name("forward_c").is_some());
        g.validate().unwrap();
        assert!(g.repetition_vector().is_ok());
    }

    #[test]
    fn reference_multiply_identity() {
        let n = 3;
        let identity: Vec<f64> = (0..9)
            .map(|i| if i % (n + 1) == 0 { 1.0 } else { 0.0 })
            .collect();
        let m: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(reference_matmul(&identity, &m, n), m);
        assert_eq!(reference_matmul(&m, &identity, n), m);
    }

    #[test]
    fn zero_dimension_is_rejected() {
        assert!(build_matmul2(0).is_err());
        assert!(build_matmul3(0).is_err());
    }

    #[test]
    fn all_paper_sizes_build() {
        for n in 2..=9u32 {
            assert!(build_matmul2(n).is_ok());
        }
        for n in 1..=7u32 {
            assert!(build_matmul3(n).is_ok());
        }
    }
}
