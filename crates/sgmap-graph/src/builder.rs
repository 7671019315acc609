//! Hierarchical, StreamIt-style construction of stream graphs.
//!
//! StreamIt programs are written as a hierarchy of three composition
//! operators — pipeline, split-join and feedback loop — over filters.
//! [`StreamSpec`] mirrors that hierarchy and [`GraphBuilder`] flattens it into
//! the flat [`StreamGraph`] consumed by the mapping flow, inserting explicit
//! splitter and joiner filters exactly as the StreamIt compiler does.

use crate::error::GraphError;
use crate::filter::{Filter, FilterId, FilterKind, JoinKind, SplitKind};
use crate::graph::StreamGraph;
use crate::Result;

/// Work charged to splitters and joiners per token moved. They do no real
/// computation, only shared-memory re-arrangement, but the paper observes
/// (Chapter V) that their runtime contribution is significant; this constant
/// models that cost.
pub const REORDER_WORK_PER_TOKEN: f64 = 1.0;

/// A hierarchical stream program specification.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamSpec {
    /// A leaf filter.
    Filter(Filter),
    /// Consecutive stages; the output of stage `i` feeds stage `i + 1`.
    Pipeline(Vec<StreamSpec>),
    /// Fan-out to parallel branches through a splitter, fan-in through a
    /// joiner.
    SplitJoin {
        /// How the splitter distributes tokens.
        split: SplitKind,
        /// The parallel branches.
        branches: Vec<StreamSpec>,
        /// How the joiner collects tokens.
        join: JoinKind,
    },
    /// A cyclic structure: `body` feeds forward, `loopback` feeds a delayed
    /// copy of the body output back to the body input.
    FeedbackLoop {
        /// Forward path.
        body: Box<StreamSpec>,
        /// Backward path.
        loopback: Box<StreamSpec>,
        /// Tokens initially present on the feedback channel.
        delay_tokens: u32,
    },
}

impl StreamSpec {
    /// Convenience constructor for a leaf compute filter.
    pub fn filter(name: impl Into<String>, pop: u32, push: u32, work: f64) -> Self {
        StreamSpec::Filter(Filter::new(name, pop, push, work))
    }

    /// Wraps an existing [`Filter`] as a leaf.
    pub fn from_filter(filter: Filter) -> Self {
        StreamSpec::Filter(filter)
    }

    /// Convenience constructor for a pipeline.
    pub fn pipeline(stages: Vec<StreamSpec>) -> Self {
        StreamSpec::Pipeline(stages)
    }

    /// Convenience constructor for a split-join.
    pub fn split_join(split: SplitKind, branches: Vec<StreamSpec>, join: JoinKind) -> Self {
        StreamSpec::SplitJoin {
            split,
            branches,
            join,
        }
    }

    /// Convenience constructor for a feedback loop.
    pub fn feedback_loop(body: StreamSpec, loopback: StreamSpec, delay_tokens: u32) -> Self {
        StreamSpec::FeedbackLoop {
            body: Box::new(body),
            loopback: Box::new(loopback),
            delay_tokens,
        }
    }

    /// Number of leaf filters in the specification (excluding the splitters
    /// and joiners that flattening will add).
    pub fn leaf_count(&self) -> usize {
        match self {
            StreamSpec::Filter(_) => 1,
            StreamSpec::Pipeline(stages) => stages.iter().map(StreamSpec::leaf_count).sum(),
            StreamSpec::SplitJoin { branches, .. } => {
                branches.iter().map(StreamSpec::leaf_count).sum()
            }
            StreamSpec::FeedbackLoop { body, loopback, .. } => {
                body.leaf_count() + loopback.leaf_count()
            }
        }
    }
}

/// Endpoints of a flattened sub-structure: the filter that receives the
/// structure's input and the filter that produces its output.
#[derive(Debug, Clone, Copy)]
struct Ports {
    entry: FilterId,
    exit: FilterId,
}

/// Flattens [`StreamSpec`] hierarchies into [`StreamGraph`]s.
#[derive(Debug)]
pub struct GraphBuilder {
    graph: StreamGraph,
    split_counter: usize,
    join_counter: usize,
    token_bytes: u32,
}

impl GraphBuilder {
    /// Creates a builder for a graph with the given application name.
    pub fn new(name: impl Into<String>) -> Self {
        GraphBuilder {
            graph: StreamGraph::new(name),
            split_counter: 0,
            join_counter: 0,
            token_bytes: 4,
        }
    }

    /// Sets the token size (bytes) used for generated splitters and joiners.
    pub fn token_bytes(mut self, bytes: u32) -> Self {
        self.token_bytes = bytes;
        self
    }

    /// Flattens `spec` and returns the resulting graph.
    ///
    /// The flatten-and-validate step runs under a `graph.build` span
    /// annotated with the graph name, and filter / channel counts are
    /// recorded as `graph.filters` / `graph.channels` counters.
    ///
    /// # Errors
    ///
    /// Returns an error if the specification contains an empty pipeline or
    /// split-join, mismatched round-robin weights, or produces an invalid
    /// graph.
    pub fn build(mut self, spec: StreamSpec) -> Result<StreamGraph> {
        let mut span = sgmap_trace::span("graph.build");
        span.arg("graph", self.graph.name().to_string());
        self.flatten(&spec)?;
        self.graph.validate()?;
        span.arg("filters", self.graph.filter_count());
        span.arg("channels", self.graph.channel_count());
        sgmap_trace::add("graph.filters", self.graph.filter_count() as u64);
        sgmap_trace::add("graph.channels", self.graph.channel_count() as u64);
        Ok(self.graph)
    }

    fn flatten(&mut self, spec: &StreamSpec) -> Result<Ports> {
        match spec {
            StreamSpec::Filter(f) => {
                let id = self.graph.add_filter(f.clone());
                Ok(Ports {
                    entry: id,
                    exit: id,
                })
            }
            StreamSpec::Pipeline(stages) => {
                if stages.is_empty() {
                    return Err(GraphError::EmptyPipeline);
                }
                let mut ports: Option<Ports> = None;
                for stage in stages {
                    let p = self.flatten(stage)?;
                    if let Some(prev) = ports {
                        self.connect(prev.exit, p.entry)?;
                        ports = Some(Ports {
                            entry: prev.entry,
                            exit: p.exit,
                        });
                    } else {
                        ports = Some(p);
                    }
                }
                Ok(ports.expect("non-empty pipeline"))
            }
            StreamSpec::SplitJoin {
                split,
                branches,
                join,
            } => self.flatten_split_join(split, branches, join),
            StreamSpec::FeedbackLoop {
                body,
                loopback,
                delay_tokens,
            } => {
                let body_ports = self.flatten(body)?;
                let loop_ports = self.flatten(loopback)?;
                // Forward: body exit -> loopback entry; backward: loopback
                // exit -> body entry with delay tokens.
                self.connect(body_ports.exit, loop_ports.entry)?;
                let push = self.graph.filter(loop_ports.exit).push;
                let pop = self.graph.filter(body_ports.entry).pop;
                self.graph.add_feedback_channel(
                    loop_ports.exit,
                    body_ports.entry,
                    push,
                    pop.max(1),
                    *delay_tokens,
                )?;
                Ok(Ports {
                    entry: body_ports.entry,
                    exit: body_ports.exit,
                })
            }
        }
    }

    fn flatten_split_join(
        &mut self,
        split: &SplitKind,
        branches: &[StreamSpec],
        join: &JoinKind,
    ) -> Result<Ports> {
        if branches.is_empty() {
            return Err(GraphError::EmptySplitJoin);
        }
        let n = branches.len();
        // Splitter rates.
        let (split_pop, split_push, split_out_rates) = match split {
            SplitKind::Duplicate => (1u32, n as u32, vec![1u32; n]),
            SplitKind::RoundRobin(weights) => {
                if weights.len() != n {
                    return Err(GraphError::WeightMismatch {
                        branches: n,
                        weights: weights.len(),
                    });
                }
                let total: u32 = weights.iter().sum();
                (total, total, weights.clone())
            }
        };
        let (join_pop, join_in_rates) = match join {
            JoinKind::RoundRobin(weights) => {
                if weights.len() != n {
                    return Err(GraphError::WeightMismatch {
                        branches: n,
                        weights: weights.len(),
                    });
                }
                let total: u32 = weights.iter().sum();
                (total, weights.clone())
            }
        };

        self.split_counter += 1;
        let split_name = format!("split_{}", self.split_counter);
        let splitter = self.graph.add_filter(
            Filter::new(
                split_name,
                split_pop,
                split_push,
                REORDER_WORK_PER_TOKEN * f64::from(split_push),
            )
            .with_kind(FilterKind::Splitter(split.clone()))
            .with_token_bytes(self.token_bytes),
        );

        self.join_counter += 1;
        let join_name = format!("join_{}", self.join_counter);
        let joiner = self.graph.add_filter(
            Filter::new(
                join_name,
                join_pop,
                join_pop,
                REORDER_WORK_PER_TOKEN * f64::from(join_pop),
            )
            .with_kind(FilterKind::Joiner(join.clone()))
            .with_token_bytes(self.token_bytes),
        );

        for (i, branch) in branches.iter().enumerate() {
            let ports = self.flatten(branch)?;
            let entry_pop = self.graph.filter(ports.entry).pop.max(1);
            self.graph
                .add_channel(splitter, ports.entry, split_out_rates[i], entry_pop)?;
            let exit_push = self.graph.filter(ports.exit).push.max(1);
            self.graph
                .add_channel(ports.exit, joiner, exit_push, join_in_rates[i])?;
        }

        Ok(Ports {
            entry: splitter,
            exit: joiner,
        })
    }

    /// Connects two already-flattened structures with a channel whose rates
    /// follow from the endpoint filters' declared total rates.
    fn connect(&mut self, from: FilterId, to: FilterId) -> Result<()> {
        let push = self.graph.filter(from).push.max(1);
        let pop = self.graph.filter(to).pop.max(1);
        self.graph.add_channel(from, to, push, pop)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_pipeline_flattens_to_a_chain() {
        let spec = StreamSpec::pipeline(vec![
            StreamSpec::filter("src", 0, 1, 1.0),
            StreamSpec::filter("mid", 1, 1, 2.0),
            StreamSpec::filter("sink", 1, 0, 1.0),
        ]);
        let g = GraphBuilder::new("p").build(spec).unwrap();
        assert_eq!(g.filter_count(), 3);
        assert_eq!(g.channel_count(), 2);
        let reps = g.repetition_vector().unwrap();
        assert_eq!(reps.as_slice(), &[1, 1, 1]);
    }

    #[test]
    fn empty_pipeline_is_rejected() {
        assert_eq!(
            GraphBuilder::new("e")
                .build(StreamSpec::pipeline(vec![]))
                .unwrap_err(),
            GraphError::EmptyPipeline
        );
    }

    #[test]
    fn duplicate_split_join_has_consistent_rates() {
        let spec = StreamSpec::pipeline(vec![
            StreamSpec::filter("src", 0, 1, 1.0),
            StreamSpec::split_join(
                SplitKind::Duplicate,
                vec![
                    StreamSpec::filter("b0", 1, 1, 4.0),
                    StreamSpec::filter("b1", 1, 1, 4.0),
                    StreamSpec::filter("b2", 1, 1, 4.0),
                ],
                JoinKind::round_robin_uniform(3),
            ),
            StreamSpec::filter("sink", 3, 0, 1.0),
        ]);
        let g = GraphBuilder::new("sj").build(spec).unwrap();
        // src, splitter, 3 branches, joiner, sink.
        assert_eq!(g.filter_count(), 7);
        let reps = g.repetition_vector().unwrap();
        // Every branch fires once per splitter firing; sink consumes 3.
        let split_id = g.filter_by_name("split_1").unwrap();
        let sink_id = g.filter_by_name("sink").unwrap();
        assert_eq!(reps[split_id.index()], 1);
        assert_eq!(reps[sink_id.index()], 1);
        g.validate().unwrap();
    }

    #[test]
    fn round_robin_split_join_with_weights() {
        let spec = StreamSpec::pipeline(vec![
            StreamSpec::filter("src", 0, 3, 1.0),
            StreamSpec::split_join(
                SplitKind::RoundRobin(vec![2, 1]),
                vec![
                    StreamSpec::filter("heavy", 2, 2, 8.0),
                    StreamSpec::filter("light", 1, 1, 2.0),
                ],
                JoinKind::RoundRobin(vec![2, 1]),
            ),
            StreamSpec::filter("sink", 3, 0, 1.0),
        ]);
        let g = GraphBuilder::new("rr").build(spec).unwrap();
        let reps = g.repetition_vector().unwrap();
        assert!(reps.iter().all(|&r| r >= 1));
        g.validate().unwrap();
    }

    #[test]
    fn weight_mismatch_is_rejected() {
        let spec = StreamSpec::split_join(
            SplitKind::RoundRobin(vec![1, 1, 1]),
            vec![
                StreamSpec::filter("a", 1, 1, 1.0),
                StreamSpec::filter("b", 1, 1, 1.0),
            ],
            JoinKind::round_robin_uniform(2),
        );
        assert!(matches!(
            GraphBuilder::new("w").build(spec),
            Err(GraphError::WeightMismatch { .. })
        ));
    }

    #[test]
    fn feedback_loop_produces_a_feedback_channel() {
        let spec = StreamSpec::pipeline(vec![
            StreamSpec::filter("src", 0, 1, 1.0),
            StreamSpec::feedback_loop(
                StreamSpec::filter("body", 1, 1, 4.0),
                StreamSpec::filter("back", 1, 1, 1.0),
                1,
            ),
            StreamSpec::filter("sink", 1, 0, 1.0),
        ]);
        let g = GraphBuilder::new("fb").build(spec).unwrap();
        let feedback_count = g.channels().filter(|(_, c)| c.feedback).count();
        assert_eq!(feedback_count, 1);
        assert!(g.topological_order().is_ok());
    }

    #[test]
    fn leaf_count_counts_only_declared_filters() {
        let spec = StreamSpec::pipeline(vec![
            StreamSpec::filter("src", 0, 1, 1.0),
            StreamSpec::split_join(
                SplitKind::Duplicate,
                vec![
                    StreamSpec::filter("a", 1, 1, 1.0),
                    StreamSpec::filter("b", 1, 1, 1.0),
                ],
                JoinKind::round_robin_uniform(2),
            ),
        ]);
        assert_eq!(spec.leaf_count(), 3);
    }
}
