//! Seeded synthetic stream-graph generator for scaling experiments.
//!
//! The eight paper applications top out at ~100 filters, which says nothing
//! about how the compiler behaves at production scale. This module generates
//! StreamIt-shaped programs — pipelines, split-joins and feedback loops — at
//! parameterised sizes from a few hundred to 100k+ filters, deterministically
//! from a seed: the same `(family, n, seed)` always flattens to the same
//! [`StreamGraph`], so synthetic apps can participate in sweeps, goldens and
//! byte-identity gates exactly like the hand-written benchmarks.
//!
//! Three [`Family`] shapes are exposed as first-class [`App`](crate::App)
//! variants (`SynthPipe` / `SynthFan` / `SynthLoop`), with `n` interpreted as
//! the target number of *leaf* compute filters (flattening adds splitters and
//! joiners on top, so `filter_count() >= n`).
//!
//! Every generated construct has an aggregate rate ratio of 1:1 — duplicate
//! split-joins are followed by a reducing filter, round-robin split-joins are
//! rate-neutral by construction — which keeps the repetition vector small no
//! matter how deep the nesting goes. Filter work values are drawn from a
//! small palette so singleton estimates dedupe well in the shared estimate
//! cache, mirroring real programs where many filters share a kernel shape.

use sgmap_graph::{GraphBuilder, GraphError, JoinKind, SplitKind, StreamGraph, StreamSpec};

/// Shape family of a synthetic program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Deep pipelines with occasional narrow split-joins.
    Pipeline,
    /// Wide split-joins with shallow branches (fan-out-heavy).
    SplitJoin,
    /// Pipelines, split-joins and feedback loops mixed.
    Mixed,
}

impl Family {
    fn tag(self) -> u64 {
        match self {
            Family::Pipeline => 1,
            Family::SplitJoin => 2,
            Family::Mixed => 3,
        }
    }

    /// Short lowercase tag used in generated graph names.
    pub fn name(self) -> &'static str {
        match self {
            Family::Pipeline => "pipe",
            Family::SplitJoin => "fan",
            Family::Mixed => "loop",
        }
    }
}

/// The default generator seed used by the `App` variants.
pub const DEFAULT_SEED: u64 = 0x5347_4d41_5053_594e; // "SGMAPSYN"

/// Work values (per token) filters draw from. A small palette keeps the
/// number of distinct partition characteristics low, so the shared estimate
/// cache dedupes singleton estimates the way it does for real programs.
const WORK_PALETTE: [f64; 8] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// Deterministic splitmix64 generator (no external RNG dependency).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish draw in `0..n` (modulo bias is irrelevant here).
    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next() % n
    }
}

struct Gen {
    rng: Rng,
    family: Family,
    next_id: u64,
}

impl Gen {
    fn filter(&mut self, pop: u32, push: u32) -> StreamSpec {
        let work = WORK_PALETTE[self.rng.below(WORK_PALETTE.len() as u64) as usize];
        let id = self.next_id;
        self.next_id += 1;
        StreamSpec::filter(format!("syn{id}"), pop, push, work)
    }

    /// A chain of `len` rate-neutral filters.
    fn chain(&mut self, len: usize) -> Vec<StreamSpec> {
        (0..len).map(|_| self.filter(1, 1)).collect()
    }

    /// A rate-neutral segment using at most `budget` leaf filters.
    fn segment(&mut self, budget: usize, depth: u32) -> StreamSpec {
        if budget < 6 || depth == 0 {
            return StreamSpec::pipeline(self.chain(budget.max(1)));
        }
        let roll = self.rng.below(100);
        match self.family {
            Family::Pipeline => {
                if roll < 70 {
                    self.run(budget)
                } else {
                    self.split_join(budget, depth, 3)
                }
            }
            Family::SplitJoin => {
                if roll < 25 {
                    self.run(budget)
                } else {
                    self.split_join(budget, depth, 8)
                }
            }
            Family::Mixed => {
                if roll < 40 {
                    self.run(budget)
                } else if roll < 75 {
                    self.split_join(budget, depth, 4)
                } else {
                    self.feedback(budget)
                }
            }
        }
    }

    /// A short plain pipeline run.
    fn run(&mut self, budget: usize) -> StreamSpec {
        let len = (2 + self.rng.below(6) as usize).min(budget);
        StreamSpec::pipeline(self.chain(len))
    }

    /// A split-join of 2..=`max_k` balanced branches. Duplicate splits are
    /// followed by a `k -> 1` reducer so the construct stays rate-neutral;
    /// round-robin splits already are.
    fn split_join(&mut self, budget: usize, depth: u32, max_k: u64) -> StreamSpec {
        let k = (2 + self.rng.below(max_k - 1)) as usize;
        let per = ((budget - 1) / k).max(1);
        let branches: Vec<StreamSpec> = (0..k).map(|_| self.segment(per, depth - 1)).collect();
        let duplicate = self.rng.below(2) == 0;
        let join = JoinKind::round_robin_uniform(k);
        if duplicate {
            let sj = StreamSpec::split_join(SplitKind::Duplicate, branches, join);
            let reducer = self.filter(k as u32, 1);
            StreamSpec::pipeline(vec![sj, reducer])
        } else {
            StreamSpec::split_join(SplitKind::round_robin_uniform(k), branches, join)
        }
    }

    /// A feedback loop around a short pipeline body.
    fn feedback(&mut self, budget: usize) -> StreamSpec {
        let body_len = (2 + self.rng.below(4) as usize).min(budget - 1);
        let body = StreamSpec::pipeline(self.chain(body_len));
        let loopback = self.filter(1, 1);
        let delay = 1 + self.rng.below(4) as u32;
        StreamSpec::feedback_loop(body, loopback, delay)
    }
}

/// Builds the specification for a synthetic program with ~`n` leaf filters.
///
/// Deterministic: the same `(family, n, seed)` yields the same spec (and
/// therefore, through the deterministic flattener, the same graph).
pub fn spec(family: Family, n: u32, seed: u64) -> StreamSpec {
    let mut gen = Gen {
        rng: Rng::new(seed ^ family.tag().wrapping_mul(0x9E37_79B9) ^ u64::from(n)),
        family,
        next_id: 0,
    };
    let mut stages = vec![StreamSpec::filter("synth_source", 0, 1, 1.0)];
    let mut remaining = n.max(2) as usize;
    while remaining > 0 {
        let chunk = (8 + gen.rng.below(56) as usize).min(remaining);
        let seg = gen.segment(chunk, 3);
        remaining -= seg.leaf_count().min(remaining);
        stages.push(seg);
    }
    stages.push(StreamSpec::filter("synth_sink", 1, 0, 1.0));
    StreamSpec::pipeline(stages)
}

/// Builds the flattened stream graph for a synthetic program, tracing graph
/// construction like every other app generator.
pub fn build(family: Family, n: u32) -> Result<StreamGraph, GraphError> {
    let program = spec(family, n, DEFAULT_SEED);
    GraphBuilder::new(format!("synth_{}_{n}", family.name())).build(program)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn families() -> [Family; 3] {
        [Family::Pipeline, Family::SplitJoin, Family::Mixed]
    }

    #[test]
    fn every_family_builds_and_balances() {
        for family in families() {
            let g = build(family, 500).unwrap();
            g.validate().unwrap();
            let reps = g.repetition_vector().unwrap();
            assert!(reps.iter().all(|&r| r >= 1));
            // The target counts leaves; flattening only adds filters.
            assert!(
                g.filter_count() >= 500,
                "{family:?}: {} filters",
                g.filter_count()
            );
            // ... but not unboundedly many (splitters/joiners stay a
            // fraction of the leaves).
            assert!(g.filter_count() < 1000, "{family:?}: {}", g.filter_count());
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        for family in families() {
            let a = build(family, 300).unwrap();
            let b = build(family, 300).unwrap();
            assert_eq!(a.filter_count(), b.filter_count());
            assert_eq!(a.channel_count(), b.channel_count());
            for (ia, ib) in a.filter_ids().zip(b.filter_ids()) {
                assert_eq!(a.filter(ia).name, b.filter(ib).name);
            }
            for ((_, ca), (_, cb)) in a.channels().zip(b.channels()) {
                assert_eq!(
                    (ca.src, ca.dst, ca.push, ca.pop),
                    (cb.src, cb.dst, cb.push, cb.pop)
                );
            }
            // A different seed produces a different program.
            let c = GraphBuilder::new("reseed")
                .build(spec(family, 300, DEFAULT_SEED ^ 1))
                .unwrap();
            assert!(
                c.filter_count() != a.filter_count()
                    || c.channels()
                        .zip(a.channels())
                        .any(|((_, x), (_, y))| (x.src, x.dst) != (y.src, y.dst)),
                "{family:?}: reseeding changed nothing"
            );
        }
    }

    #[test]
    fn mixed_family_contains_feedback_loops() {
        let g = build(Family::Mixed, 1000).unwrap();
        let feedback = g.channels().filter(|(_, c)| c.feedback).count();
        assert!(feedback > 0, "mixed family should generate feedback loops");
    }

    #[test]
    fn scales_to_ten_thousand_filters() {
        let g = build(Family::Pipeline, 10_000).unwrap();
        assert!(g.filter_count() >= 10_000);
        g.repetition_vector().unwrap();
    }
}
