//! Steady-state (SDF) rate analysis: the repetition vector.
//!
//! For every channel `(u, v)` with production rate `push` and consumption
//! rate `pop`, a consistent steady state requires
//! `rep[u] * push == rep[v] * pop`. The smallest positive integer solution of
//! this system is the *repetition vector*; it determines how many times each
//! filter fires per iteration and hence every buffer size and workload figure
//! used by the mapping flow.

use std::ops::Index;

use crate::error::GraphError;
use crate::graph::StreamGraph;
use crate::Result;

/// Greatest common divisor.
fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Least common multiple (panics on overflow, which would require graphs far
/// larger than anything the flow handles).
fn lcm(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        0
    } else {
        a / gcd(a, b) * b
    }
}

/// A non-negative rational number with a canonical (reduced) representation.
///
/// Used internally by the repetition-vector solver and exposed because the
/// performance model also works with fractional token ratios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: u64,
    den: u64,
}

impl Rational {
    /// Creates a rational `num / den` in reduced form.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: u64, den: u64) -> Self {
        assert!(den != 0, "rational with zero denominator");
        if num == 0 {
            return Rational { num: 0, den: 1 };
        }
        let g = gcd(num, den);
        Rational {
            num: num / g,
            den: den / g,
        }
    }

    /// The rational number one.
    pub fn one() -> Self {
        Rational { num: 1, den: 1 }
    }

    /// Numerator of the reduced form.
    pub fn numerator(self) -> u64 {
        self.num
    }

    /// Denominator of the reduced form.
    pub fn denominator(self) -> u64 {
        self.den
    }

    /// Multiplies by `num / den`.
    pub fn mul_ratio(self, num: u64, den: u64) -> Self {
        // Reduce cross-wise first to keep intermediate values small.
        let g1 = gcd(self.num, den.max(1));
        let g2 = gcd(num, self.den);
        Rational::new(
            (self.num / g1.max(1)) * (num / g2.max(1)),
            (self.den / g2.max(1)) * (den / g1.max(1)),
        )
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::one()
    }
}

/// The repetition vector of a stream graph: `reps[i]` is the number of times
/// filter `i` fires per steady-state iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepetitionVector {
    reps: Vec<u64>,
}

impl RepetitionVector {
    /// Number of firings of the filter at `index`.
    pub fn firings(&self, index: usize) -> u64 {
        self.reps[index]
    }

    /// Iterates over the firing counts in filter-id order.
    pub fn iter(&self) -> impl Iterator<Item = &u64> + '_ {
        self.reps.iter()
    }

    /// Number of entries (== number of filters).
    pub fn len(&self) -> usize {
        self.reps.len()
    }

    /// Returns `true` if the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.reps.is_empty()
    }

    /// Returns the underlying slice.
    pub fn as_slice(&self) -> &[u64] {
        &self.reps
    }
}

impl Index<usize> for RepetitionVector {
    type Output = u64;
    fn index(&self, index: usize) -> &u64 {
        &self.reps[index]
    }
}

impl std::ops::Deref for RepetitionVector {
    type Target = [u64];
    fn deref(&self) -> &[u64] {
        &self.reps
    }
}

/// Solves the balance equations of `graph`.
pub(crate) fn repetition_vector(graph: &StreamGraph) -> Result<RepetitionVector> {
    let n = graph.filter_count();
    if n == 0 {
        return Ok(RepetitionVector { reps: Vec::new() });
    }
    let mut assigned: Vec<Option<Rational>> = vec![None; n];

    // Breadth-first propagation over channels treated as undirected edges.
    for start in 0..n {
        if assigned[start].is_some() {
            continue;
        }
        assigned[start] = Some(Rational::one());
        let mut queue = vec![start];
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            let ru = assigned[u].expect("assigned before queueing");
            let uid = crate::filter::FilterId::from_index(u);
            // Outgoing: rep[dst] = rep[src] * push / pop.
            for &c in graph.out_channels(uid) {
                let ch = graph.channel(c);
                if ch.push == 0 && ch.pop == 0 {
                    continue;
                }
                if ch.push == 0 || ch.pop == 0 {
                    return Err(GraphError::ZeroRate {
                        src: ch.src,
                        dst: ch.dst,
                    });
                }
                let rv = ru.mul_ratio(u64::from(ch.push), u64::from(ch.pop));
                let v = ch.dst.index();
                match assigned[v] {
                    None => {
                        assigned[v] = Some(rv);
                        queue.push(v);
                    }
                    Some(existing) if existing != rv => {
                        return Err(GraphError::InconsistentRates {
                            src: ch.src,
                            dst: ch.dst,
                        });
                    }
                    Some(_) => {}
                }
            }
            // Incoming: rep[src] = rep[dst] * pop / push.
            for &c in graph.in_channels(uid) {
                let ch = graph.channel(c);
                if ch.push == 0 && ch.pop == 0 {
                    continue;
                }
                if ch.push == 0 || ch.pop == 0 {
                    return Err(GraphError::ZeroRate {
                        src: ch.src,
                        dst: ch.dst,
                    });
                }
                let rv = ru.mul_ratio(u64::from(ch.pop), u64::from(ch.push));
                let v = ch.src.index();
                match assigned[v] {
                    None => {
                        assigned[v] = Some(rv);
                        queue.push(v);
                    }
                    Some(existing) if existing != rv => {
                        return Err(GraphError::InconsistentRates {
                            src: ch.src,
                            dst: ch.dst,
                        });
                    }
                    Some(_) => {}
                }
            }
        }
    }

    // Scale each connected component independently to the smallest integers.
    // Components share no channels, so scaling them separately is sound.
    let rationals: Vec<Rational> = assigned
        .into_iter()
        .map(|r| r.expect("every node assigned"))
        .collect();
    let denom_lcm = rationals
        .iter()
        .fold(1u64, |acc, r| lcm(acc, r.denominator()));
    let scaled: Vec<u64> = rationals
        .iter()
        .map(|r| r.numerator() * (denom_lcm / r.denominator()))
        .collect();
    let num_gcd = scaled.iter().fold(0u64, |acc, &v| gcd(acc, v));
    let reps = scaled
        .iter()
        .map(|&v| v.checked_div(num_gcd).unwrap_or(1))
        .collect();
    Ok(RepetitionVector { reps })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::Filter;

    #[test]
    fn rational_reduces() {
        let r = Rational::new(6, 4);
        assert_eq!((r.numerator(), r.denominator()), (3, 2));
        assert_eq!(Rational::new(0, 7), Rational::new(0, 3));
        let r = Rational::new(2, 3).mul_ratio(3, 4);
        assert_eq!((r.numerator(), r.denominator()), (1, 2));
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn rational_zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn repetition_vector_of_rate_changing_pipeline() {
        // src(push 3) -> a(pop 2, push 1) -> sink(pop 3)
        let mut g = StreamGraph::new("t");
        let s = g.add_filter(Filter::new("s", 0, 3, 1.0));
        let a = g.add_filter(Filter::new("a", 2, 1, 1.0));
        let k = g.add_filter(Filter::new("k", 3, 0, 1.0));
        g.add_channel(s, a, 3, 2).unwrap();
        g.add_channel(a, k, 1, 3).unwrap();
        let reps = g.repetition_vector().unwrap();
        // s*3 == a*2 and a*1 == k*3  =>  s=2, a=3, k=1.
        assert_eq!(reps.as_slice(), &[2, 3, 1]);
    }

    #[test]
    fn inconsistent_rates_are_detected() {
        // Diamond with mismatched branch rates.
        let mut g = StreamGraph::new("t");
        let a = g.add_filter(Filter::new("a", 0, 2, 1.0));
        let b = g.add_filter(Filter::new("b", 1, 1, 1.0));
        let c = g.add_filter(Filter::new("c", 1, 2, 1.0));
        let d = g.add_filter(Filter::new("d", 2, 0, 1.0));
        g.add_channel(a, b, 1, 1).unwrap();
        g.add_channel(a, c, 1, 1).unwrap();
        g.add_channel(b, d, 1, 1).unwrap();
        g.add_channel(c, d, 2, 1).unwrap();
        assert!(matches!(
            g.repetition_vector(),
            Err(GraphError::InconsistentRates { .. })
        ));
    }

    #[test]
    fn zero_rate_on_one_side_is_an_error() {
        let mut g = StreamGraph::new("t");
        let a = g.add_filter(Filter::new("a", 0, 1, 1.0));
        let b = g.add_filter(Filter::new("b", 1, 0, 1.0));
        g.add_channel(a, b, 0, 1).unwrap();
        assert!(matches!(
            g.repetition_vector(),
            Err(GraphError::ZeroRate { .. })
        ));
    }

    #[test]
    fn uniform_graph_has_all_ones() {
        let mut g = StreamGraph::new("t");
        let a = g.add_filter(Filter::new("a", 0, 1, 1.0));
        let b = g.add_filter(Filter::new("b", 1, 1, 1.0));
        let c = g.add_filter(Filter::new("c", 1, 0, 1.0));
        g.add_channel(a, b, 1, 1).unwrap();
        g.add_channel(b, c, 1, 1).unwrap();
        let reps = g.repetition_vector().unwrap();
        assert_eq!(reps.as_slice(), &[1, 1, 1]);
    }
}
