//! A functional interpreter for stream graphs — test support.
//!
//! The mapping flow itself only needs the *structure* and *rates* of a stream
//! graph, but the tests of the benchmark applications in `sgmap-apps` attach
//! real filter semantics so that the generated graphs can be checked against
//! reference implementations (a bitonic network must permute its keys, a
//! matrix-multiply graph must compute the product, and so on). This file is
//! that execution engine. It ships in no crate: `sgmap-graph` and
//! `sgmap-apps` include it by `#[path]` in their unit tests, and it uses
//! only the public API of `sgmap-graph`.
//!
//! Each filter firing consumes exactly `pop` tokens from every input channel
//! and must produce exactly `push` tokens on every output channel (per-channel
//! rates, as recorded on the `sgmap_graph::Channel`s). Splitters,
//! joiners, sources and sinks have built-in behaviours derived from their
//! `FilterKind`; compute filters use behaviours
//! registered by the application, falling back to a pass-through behaviour.

#![allow(dead_code)] // each including crate uses a different part

use std::collections::{HashMap, VecDeque};

use sgmap_graph::{ChannelId, FilterId, FilterKind, GraphError, JoinKind, SplitKind, StreamGraph};

/// Why a run stopped.
#[derive(Debug, Clone, PartialEq)]
pub enum InterpError {
    /// The graph cannot be scheduled: cyclic over forward channels, or
    /// inconsistent balance equations.
    Graph(GraphError),
    /// A filter found too few tokens on an input channel, or its behaviour
    /// produced the wrong number of tokens on an output channel.
    RateViolation {
        /// The filter whose firing misbehaved.
        filter: FilterId,
        /// Expected number of tokens.
        expected: usize,
        /// Number of tokens actually available or produced.
        actual: usize,
    },
}

impl From<GraphError> for InterpError {
    fn from(e: GraphError) -> Self {
        InterpError::Graph(e)
    }
}

type Result<T> = std::result::Result<T, InterpError>;

/// A filter behaviour: consumes the popped tokens of every input channel and
/// produces the pushed tokens of every output channel.
///
/// `inputs[i]` holds the tokens popped from the i-th input channel (in
/// channel-creation order); the behaviour must append exactly the per-channel
/// push count of tokens to `outputs[j]` for every output channel `j`.
pub trait FilterBehavior {
    /// Fires the filter once.
    fn fire(&mut self, inputs: &[Vec<f64>], outputs: &mut [Vec<f64>]);
}

/// Wraps a closure as a [`FilterBehavior`].
pub struct FnBehavior<F>(pub F);

impl<F> FilterBehavior for FnBehavior<F>
where
    F: FnMut(&[Vec<f64>], &mut [Vec<f64>]),
{
    fn fire(&mut self, inputs: &[Vec<f64>], outputs: &mut [Vec<f64>]) {
        (self.0)(inputs, outputs)
    }
}

/// Creates a behaviour from a closure.
pub fn behavior<F>(f: F) -> Box<dyn FilterBehavior>
where
    F: FnMut(&[Vec<f64>], &mut [Vec<f64>]) + 'static,
{
    Box::new(FnBehavior(f))
}

/// Executes a stream graph on concrete data.
pub struct Interpreter<'g> {
    graph: &'g StreamGraph,
    behaviors: HashMap<FilterId, Box<dyn FilterBehavior>>,
    /// Tokens fed to each source filter (consumed `push` at a time per
    /// firing); when exhausted the source produces an increasing ramp.
    source_data: HashMap<FilterId, VecDeque<f64>>,
    sink_data: HashMap<FilterId, Vec<f64>>,
    queues: Vec<VecDeque<f64>>,
    ramp_counter: f64,
}

impl<'g> Interpreter<'g> {
    /// Creates an interpreter for `graph` with no registered behaviours.
    pub fn new(graph: &'g StreamGraph) -> Self {
        let queues = (0..graph.channel_count())
            .map(|i| {
                let ch = graph.channel(ChannelId::from_index(i));
                let mut q = VecDeque::new();
                for _ in 0..ch.initial_tokens {
                    q.push_back(0.0);
                }
                q
            })
            .collect();
        Interpreter {
            graph,
            behaviors: HashMap::new(),
            source_data: HashMap::new(),
            sink_data: HashMap::new(),
            queues,
            ramp_counter: 0.0,
        }
    }

    /// Registers a behaviour for a compute filter.
    pub fn set_behavior(&mut self, id: FilterId, b: Box<dyn FilterBehavior>) -> &mut Self {
        self.behaviors.insert(id, b);
        self
    }

    /// Registers the same behaviour constructor for every filter whose name
    /// starts with `prefix`.
    pub fn set_behavior_by_prefix<F>(&mut self, prefix: &str, mut make: F) -> &mut Self
    where
        F: FnMut(FilterId) -> Box<dyn FilterBehavior>,
    {
        let ids: Vec<FilterId> = self
            .graph
            .filters()
            .filter(|(_, f)| f.name.starts_with(prefix))
            .map(|(id, _)| id)
            .collect();
        for id in ids {
            let b = make(id);
            self.behaviors.insert(id, b);
        }
        self
    }

    /// Supplies the input stream for a source filter. When the supplied data
    /// runs out the source falls back to producing a ramp `0, 1, 2, ...`.
    pub fn set_source_data(&mut self, id: FilterId, data: impl IntoIterator<Item = f64>) {
        self.source_data.insert(id, data.into_iter().collect());
    }

    /// Returns the tokens consumed so far by the given sink filter.
    pub fn sink_output(&self, id: FilterId) -> &[f64] {
        self.sink_data.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Runs `iterations` steady-state iterations of the whole graph.
    ///
    /// # Errors
    ///
    /// Returns an error if the graph is cyclic (over forward channels), if the
    /// balance equations are inconsistent, or if a registered behaviour
    /// produces the wrong number of tokens.
    pub fn run(&mut self, iterations: u64) -> Result<()> {
        let order = self.graph.topological_order()?;
        let reps = self.graph.repetition_vector()?;
        for _ in 0..iterations {
            for &u in &order {
                for _ in 0..reps[u.index()] {
                    self.fire(u)?;
                }
            }
        }
        Ok(())
    }

    fn fire(&mut self, id: FilterId) -> Result<()> {
        let filter = self.graph.filter(id);
        let in_channels: Vec<_> = self.graph.in_channels(id).to_vec();
        let out_channels: Vec<_> = self.graph.out_channels(id).to_vec();

        // Pop inputs per channel.
        let mut inputs: Vec<Vec<f64>> = Vec::with_capacity(in_channels.len());
        for &cid in &in_channels {
            let ch = self.graph.channel(cid);
            let need = ch.pop as usize;
            let q = &mut self.queues[cid.index()];
            if q.len() < need {
                return Err(InterpError::RateViolation {
                    filter: id,
                    expected: need,
                    actual: q.len(),
                });
            }
            inputs.push(q.drain(..need).collect());
        }

        let mut outputs: Vec<Vec<f64>> = vec![Vec::new(); out_channels.len()];
        match &filter.kind {
            FilterKind::Source => {
                let total: usize = out_channels
                    .iter()
                    .map(|&c| self.graph.channel(c).push as usize)
                    .sum();
                // Fill from the supplied data queue first, then from the ramp.
                let mut produced = Vec::with_capacity(total);
                for _ in 0..total {
                    let v = match self.source_data.get_mut(&id) {
                        Some(q) if !q.is_empty() => q.pop_front().unwrap_or(0.0),
                        _ => {
                            let v = self.ramp_counter;
                            self.ramp_counter += 1.0;
                            v
                        }
                    };
                    produced.push(v);
                }
                let mut offset = 0;
                for (j, &c) in out_channels.iter().enumerate() {
                    let n = self.graph.channel(c).push as usize;
                    outputs[j].extend_from_slice(&produced[offset..offset + n]);
                    offset += n;
                }
            }
            FilterKind::Sink => {
                let collected: Vec<f64> = inputs.iter().flatten().copied().collect();
                self.sink_data.entry(id).or_default().extend(collected);
            }
            FilterKind::Splitter(kind) => {
                let flat: Vec<f64> = inputs.iter().flatten().copied().collect();
                match kind {
                    SplitKind::Duplicate => {
                        for out in outputs.iter_mut() {
                            out.extend_from_slice(&flat);
                        }
                    }
                    SplitKind::RoundRobin(weights) => {
                        let mut offset = 0;
                        for (j, &w) in weights.iter().enumerate() {
                            let w = w as usize;
                            outputs[j].extend_from_slice(&flat[offset..offset + w]);
                            offset += w;
                        }
                    }
                }
            }
            FilterKind::Joiner(JoinKind::RoundRobin(weights)) => {
                // Inputs arrive in channel order; interleave them according to
                // the weights to reconstruct the joined stream.
                debug_assert_eq!(weights.len(), inputs.len());
                let mut joined = Vec::new();
                for (input, &w) in inputs.iter().zip(weights.iter()) {
                    debug_assert_eq!(input.len(), w as usize);
                    joined.extend_from_slice(input);
                }
                if let Some(out) = outputs.first_mut() {
                    out.extend_from_slice(&joined);
                }
            }
            FilterKind::Compute => {
                if let Some(b) = self.behaviors.get_mut(&id) {
                    b.fire(&inputs, &mut outputs);
                } else {
                    // Default pass-through: replicate/truncate the popped
                    // tokens to each output channel's push count.
                    let flat: Vec<f64> = inputs.iter().flatten().copied().collect();
                    for (j, &c) in out_channels.iter().enumerate() {
                        let n = self.graph.channel(c).push as usize;
                        for k in 0..n {
                            let v = if flat.is_empty() {
                                0.0
                            } else {
                                flat[k % flat.len()]
                            };
                            outputs[j].push(v);
                        }
                    }
                }
            }
        }

        // Push outputs, verifying counts.
        for (j, &cid) in out_channels.iter().enumerate() {
            let ch = self.graph.channel(cid);
            let expected = ch.push as usize;
            if outputs[j].len() != expected {
                return Err(InterpError::RateViolation {
                    filter: id,
                    expected,
                    actual: outputs[j].len(),
                });
            }
            self.queues[cid.index()].extend(outputs[j].iter().copied());
        }
        Ok(())
    }
}

impl std::fmt::Debug for Interpreter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interpreter")
            .field("graph", &self.graph.name())
            .field("behaviors", &self.behaviors.len())
            .field("channels", &self.queues.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgmap_graph::{GraphBuilder, StreamSpec};

    #[test]
    fn pipeline_with_custom_behaviour_doubles_values() {
        let spec = StreamSpec::pipeline(vec![
            StreamSpec::filter("src", 0, 1, 1.0),
            StreamSpec::filter("double", 1, 1, 1.0),
            StreamSpec::filter("sink", 1, 0, 1.0),
        ]);
        let g = GraphBuilder::new("t").build(spec).unwrap();
        let src = g.filter_by_name("src").unwrap();
        let dbl = g.filter_by_name("double").unwrap();
        let sink = g.filter_by_name("sink").unwrap();
        let mut interp = Interpreter::new(&g);
        interp.set_source_data(src, vec![1.0, 2.0, 3.0, 4.0]);
        interp.set_behavior(
            dbl,
            behavior(|inputs, outputs| {
                outputs[0].push(inputs[0][0] * 2.0);
            }),
        );
        interp.run(4).unwrap();
        assert_eq!(interp.sink_output(sink), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn duplicate_split_and_round_robin_join_interleave() {
        let spec = StreamSpec::pipeline(vec![
            StreamSpec::filter("src", 0, 1, 1.0),
            StreamSpec::split_join(
                SplitKind::Duplicate,
                vec![
                    StreamSpec::filter("ida", 1, 1, 1.0),
                    StreamSpec::filter("neg", 1, 1, 1.0),
                ],
                JoinKind::round_robin_uniform(2),
            ),
            StreamSpec::filter("sink", 2, 0, 1.0),
        ]);
        let g = GraphBuilder::new("t").build(spec).unwrap();
        let src = g.filter_by_name("src").unwrap();
        let neg = g.filter_by_name("neg").unwrap();
        let sink = g.filter_by_name("sink").unwrap();
        let mut interp = Interpreter::new(&g);
        interp.set_source_data(src, vec![1.0, 2.0]);
        interp.set_behavior(
            neg,
            behavior(|inputs, outputs| {
                outputs[0].push(-inputs[0][0]);
            }),
        );
        interp.run(2).unwrap();
        assert_eq!(interp.sink_output(sink), &[1.0, -1.0, 2.0, -2.0]);
    }

    #[test]
    fn round_robin_split_distributes_in_order() {
        let spec = StreamSpec::pipeline(vec![
            StreamSpec::filter("src", 0, 2, 1.0),
            StreamSpec::split_join(
                SplitKind::RoundRobin(vec![1, 1]),
                vec![
                    StreamSpec::filter("a", 1, 1, 1.0),
                    StreamSpec::filter("b", 1, 1, 1.0),
                ],
                JoinKind::RoundRobin(vec![1, 1]),
            ),
            StreamSpec::filter("sink", 2, 0, 1.0),
        ]);
        let g = GraphBuilder::new("t").build(spec).unwrap();
        let src = g.filter_by_name("src").unwrap();
        let sink = g.filter_by_name("sink").unwrap();
        let mut interp = Interpreter::new(&g);
        interp.set_source_data(src, vec![10.0, 20.0, 30.0, 40.0]);
        interp.run(2).unwrap();
        // Round-robin split then round-robin join is the identity.
        assert_eq!(interp.sink_output(sink), &[10.0, 20.0, 30.0, 40.0]);
    }

    #[test]
    fn default_source_produces_a_ramp() {
        let spec = StreamSpec::pipeline(vec![
            StreamSpec::filter("src", 0, 1, 1.0),
            StreamSpec::filter("sink", 1, 0, 1.0),
        ]);
        let g = GraphBuilder::new("t").build(spec).unwrap();
        let sink = g.filter_by_name("sink").unwrap();
        let mut interp = Interpreter::new(&g);
        interp.run(3).unwrap();
        assert_eq!(interp.sink_output(sink), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn bad_behaviour_is_reported() {
        let spec = StreamSpec::pipeline(vec![
            StreamSpec::filter("src", 0, 1, 1.0),
            StreamSpec::filter("broken", 1, 2, 1.0),
            StreamSpec::filter("sink", 2, 0, 1.0),
        ]);
        let g = GraphBuilder::new("t").build(spec).unwrap();
        let broken = g.filter_by_name("broken").unwrap();
        let mut interp = Interpreter::new(&g);
        interp.set_behavior(
            broken,
            behavior(|_inputs, outputs| {
                outputs[0].push(1.0); // should push 2 tokens
            }),
        );
        assert!(matches!(
            interp.run(1),
            Err(InterpError::RateViolation { .. })
        ));
    }
}
