//! The flat stream graph: filters connected by channels.

use std::fmt;

use crate::algo;
use crate::error::GraphError;
use crate::filter::{Filter, FilterId};
use crate::rates::{self, RepetitionVector};
use crate::Result;

/// Identifier of a channel (edge) within a [`StreamGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(pub(crate) u32);

impl ChannelId {
    /// Returns the zero-based index of this channel inside its graph.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a channel id from a raw index (test helper).
    pub fn from_index(index: usize) -> Self {
        ChannelId(index as u32)
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A FIFO channel between two filters.
#[derive(Debug, Clone, PartialEq)]
pub struct Channel {
    /// Producing filter.
    pub src: FilterId,
    /// Consuming filter.
    pub dst: FilterId,
    /// Tokens pushed onto this channel per firing of `src`.
    pub push: u32,
    /// Tokens popped from this channel per firing of `dst`.
    pub pop: u32,
    /// Tokens present on the channel before the first firing (used by
    /// feedback loops to break the cyclic dependency).
    pub initial_tokens: u32,
    /// `true` if this is the back edge of a feedback loop; such channels are
    /// excluded from the acyclicity check and from topological ordering.
    pub feedback: bool,
}

/// A flat stream graph: a directed graph whose nodes are [`Filter`]s and
/// whose edges are FIFO [`Channel`]s.
///
/// The graph must be acyclic once feedback channels are removed; this is the
/// form produced by flattening StreamIt programs and the form consumed by
/// every later stage of the mapping flow.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamGraph {
    name: String,
    filters: Vec<Filter>,
    channels: Vec<Channel>,
    out_edges: Vec<Vec<ChannelId>>,
    in_edges: Vec<Vec<ChannelId>>,
}

impl StreamGraph {
    /// Creates an empty stream graph with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        StreamGraph {
            name: name.into(),
            filters: Vec::new(),
            channels: Vec::new(),
            out_edges: Vec::new(),
            in_edges: Vec::new(),
        }
    }

    /// Returns the name of the graph (usually the application name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a filter and returns its id.
    pub fn add_filter(&mut self, filter: Filter) -> FilterId {
        let id = FilterId(self.filters.len() as u32);
        self.filters.push(filter);
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        id
    }

    /// Adds a forward channel from `src` to `dst`.
    ///
    /// `push` is the number of tokens `src` puts on this channel per firing
    /// and `pop` the number `dst` removes per firing.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint does not exist or if the channel
    /// would be a self-loop.
    pub fn add_channel(
        &mut self,
        src: FilterId,
        dst: FilterId,
        push: u32,
        pop: u32,
    ) -> Result<ChannelId> {
        self.add_channel_inner(src, dst, push, pop, 0, false)
    }

    /// Adds a feedback (back-edge) channel carrying `initial_tokens` delay
    /// tokens. Feedback channels are ignored by the acyclicity check.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint does not exist or if the channel
    /// would be a self-loop.
    pub fn add_feedback_channel(
        &mut self,
        src: FilterId,
        dst: FilterId,
        push: u32,
        pop: u32,
        initial_tokens: u32,
    ) -> Result<ChannelId> {
        self.add_channel_inner(src, dst, push, pop, initial_tokens, true)
    }

    fn add_channel_inner(
        &mut self,
        src: FilterId,
        dst: FilterId,
        push: u32,
        pop: u32,
        initial_tokens: u32,
        feedback: bool,
    ) -> Result<ChannelId> {
        self.check_filter(src)?;
        self.check_filter(dst)?;
        if src == dst {
            return Err(GraphError::SelfLoop(src));
        }
        let id = ChannelId(self.channels.len() as u32);
        self.channels.push(Channel {
            src,
            dst,
            push,
            pop,
            initial_tokens,
            feedback,
        });
        self.out_edges[src.index()].push(id);
        self.in_edges[dst.index()].push(id);
        Ok(id)
    }

    fn check_filter(&self, id: FilterId) -> Result<()> {
        if id.index() < self.filters.len() {
            Ok(())
        } else {
            Err(GraphError::UnknownFilter(id))
        }
    }

    /// Number of filters in the graph.
    pub fn filter_count(&self) -> usize {
        self.filters.len()
    }

    /// Number of channels in the graph.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Returns the filter with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn filter(&self, id: FilterId) -> &Filter {
        &self.filters[id.index()]
    }

    /// Returns the channel with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn channel(&self, id: ChannelId) -> &Channel {
        &self.channels[id.index()]
    }

    /// Iterates over `(FilterId, &Filter)` pairs in id order.
    pub fn filters(&self) -> impl Iterator<Item = (FilterId, &Filter)> + '_ {
        self.filters
            .iter()
            .enumerate()
            .map(|(i, f)| (FilterId(i as u32), f))
    }

    /// Iterates over all filter ids in id order.
    pub fn filter_ids(&self) -> impl Iterator<Item = FilterId> + '_ {
        (0..self.filters.len()).map(|i| FilterId(i as u32))
    }

    /// Iterates over `(ChannelId, &Channel)` pairs in id order.
    pub fn channels(&self) -> impl Iterator<Item = (ChannelId, &Channel)> + '_ {
        self.channels
            .iter()
            .enumerate()
            .map(|(i, c)| (ChannelId(i as u32), c))
    }

    /// Channels leaving `id`.
    pub fn out_channels(&self, id: FilterId) -> &[ChannelId] {
        &self.out_edges[id.index()]
    }

    /// Channels entering `id`.
    pub fn in_channels(&self, id: FilterId) -> &[ChannelId] {
        &self.in_edges[id.index()]
    }

    /// Direct successors of `id` over forward channels (deduplicated order of
    /// appearance).
    pub fn successors(&self, id: FilterId) -> Vec<FilterId> {
        let mut out = Vec::new();
        for &c in &self.out_edges[id.index()] {
            let dst = self.channels[c.index()].dst;
            if !self.channels[c.index()].feedback && !out.contains(&dst) {
                out.push(dst);
            }
        }
        out
    }

    /// Direct predecessors of `id` over forward channels (deduplicated order
    /// of appearance).
    pub fn predecessors(&self, id: FilterId) -> Vec<FilterId> {
        let mut out = Vec::new();
        for &c in &self.in_edges[id.index()] {
            let src = self.channels[c.index()].src;
            if !self.channels[c.index()].feedback && !out.contains(&src) {
                out.push(src);
            }
        }
        out
    }

    /// Neighbours of `id` over forward channels, predecessors then successors.
    pub fn neighbors(&self, id: FilterId) -> Vec<FilterId> {
        let mut out = self.predecessors(id);
        for s in self.successors(id) {
            if !out.contains(&s) {
                out.push(s);
            }
        }
        out
    }

    /// Filters with no incoming forward channel (primary inputs).
    pub fn sources(&self) -> Vec<FilterId> {
        self.filter_ids()
            .filter(|&id| {
                self.in_edges[id.index()]
                    .iter()
                    .all(|&c| self.channels[c.index()].feedback)
            })
            .collect()
    }

    /// Filters with no outgoing forward channel (primary outputs).
    pub fn sinks(&self) -> Vec<FilterId> {
        self.filter_ids()
            .filter(|&id| {
                self.out_edges[id.index()]
                    .iter()
                    .all(|&c| self.channels[c.index()].feedback)
            })
            .collect()
    }

    /// Topological order of the filters over forward channels.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::CyclicGraph`] if the forward channels form a
    /// cycle.
    pub fn topological_order(&self) -> Result<Vec<FilterId>> {
        algo::topological_order(self)
    }

    /// Checks structural invariants: acyclicity of forward channels and weak
    /// connectivity (every filter reachable from some other filter unless the
    /// graph has a single node).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<()> {
        self.topological_order()?;
        if self.filters.len() > 1 {
            for id in self.filter_ids() {
                if self.in_edges[id.index()].is_empty() && self.out_edges[id.index()].is_empty() {
                    return Err(GraphError::Disconnected(id));
                }
            }
        }
        Ok(())
    }

    /// Solves the SDF balance equations and returns the repetition vector:
    /// the number of firings of each filter per steady-state iteration.
    ///
    /// # Errors
    ///
    /// Returns an error if a channel has a zero rate on one side only or if
    /// the balance equations are inconsistent.
    pub fn repetition_vector(&self) -> Result<RepetitionVector> {
        rates::repetition_vector(self)
    }

    /// Tokens that cross channel `id` during one steady-state iteration.
    pub fn channel_iteration_tokens(&self, id: ChannelId, reps: &RepetitionVector) -> u64 {
        let ch = &self.channels[id.index()];
        reps[ch.src.index()] * u64::from(ch.push)
    }

    /// Bytes that cross channel `id` during one steady-state iteration.
    pub fn channel_iteration_bytes(&self, id: ChannelId, reps: &RepetitionVector) -> u64 {
        let ch = &self.channels[id.index()];
        let token_bytes = u64::from(self.filters[ch.src.index()].token_bytes);
        self.channel_iteration_tokens(id, reps) * token_bytes
    }

    /// Total work (abstract operations) per steady-state iteration.
    pub fn iteration_work(&self, reps: &RepetitionVector) -> f64 {
        self.filters()
            .map(|(id, f)| f.work * reps[id.index()] as f64)
            .sum()
    }

    /// Total bytes entering the graph from the host per steady-state
    /// iteration (tokens produced by source filters).
    pub fn primary_input_bytes(&self, reps: &RepetitionVector) -> u64 {
        self.sources()
            .iter()
            .map(|&id| {
                let f = &self.filters[id.index()];
                reps[id.index()] * u64::from(f.push) * u64::from(f.token_bytes)
            })
            .sum()
    }

    /// Total bytes leaving the graph to the host per steady-state iteration
    /// (tokens consumed by sink filters).
    pub fn primary_output_bytes(&self, reps: &RepetitionVector) -> u64 {
        self.sinks()
            .iter()
            .map(|&id| {
                let f = &self.filters[id.index()];
                reps[id.index()] * u64::from(f.pop) * u64::from(f.token_bytes)
            })
            .sum()
    }

    /// Finds the first filter whose name equals `name`.
    pub fn filter_by_name(&self, name: &str) -> Option<FilterId> {
        self.filters()
            .find(|(_, f)| f.name == name)
            .map(|(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> StreamGraph {
        let mut g = StreamGraph::new("chain");
        let ids: Vec<_> = (0..n)
            .map(|i| {
                g.add_filter(Filter::new(
                    format!("f{i}"),
                    if i == 0 { 0 } else { 1 },
                    if i + 1 == n { 0 } else { 1 },
                    1.0,
                ))
            })
            .collect();
        for w in ids.windows(2) {
            g.add_channel(w[0], w[1], 1, 1).unwrap();
        }
        g
    }

    #[test]
    fn add_and_query_filters_and_channels() {
        let g = chain(4);
        assert_eq!(g.filter_count(), 4);
        assert_eq!(g.channel_count(), 3);
        assert_eq!(g.sources(), vec![FilterId(0)]);
        assert_eq!(g.sinks(), vec![FilterId(3)]);
        assert_eq!(g.successors(FilterId(1)), vec![FilterId(2)]);
        assert_eq!(g.predecessors(FilterId(1)), vec![FilterId(0)]);
        g.validate().unwrap();
    }

    #[test]
    fn self_loops_are_rejected() {
        let mut g = StreamGraph::new("t");
        let a = g.add_filter(Filter::new("a", 1, 1, 1.0));
        assert_eq!(g.add_channel(a, a, 1, 1), Err(GraphError::SelfLoop(a)));
    }

    #[test]
    fn unknown_endpoint_is_rejected() {
        let mut g = StreamGraph::new("t");
        let a = g.add_filter(Filter::new("a", 0, 1, 1.0));
        let bogus = FilterId::from_index(42);
        assert_eq!(
            g.add_channel(a, bogus, 1, 1),
            Err(GraphError::UnknownFilter(bogus))
        );
    }

    #[test]
    fn cycle_detection_ignores_feedback_edges() {
        let mut g = StreamGraph::new("loop");
        let a = g.add_filter(Filter::new("a", 1, 1, 1.0));
        let b = g.add_filter(Filter::new("b", 1, 1, 1.0));
        g.add_channel(a, b, 1, 1).unwrap();
        g.add_feedback_channel(b, a, 1, 1, 1).unwrap();
        assert!(g.topological_order().is_ok());

        let mut bad = StreamGraph::new("bad");
        let a = bad.add_filter(Filter::new("a", 1, 1, 1.0));
        let b = bad.add_filter(Filter::new("b", 1, 1, 1.0));
        bad.add_channel(a, b, 1, 1).unwrap();
        bad.add_channel(b, a, 1, 1).unwrap();
        assert_eq!(bad.topological_order(), Err(GraphError::CyclicGraph));
    }

    #[test]
    fn disconnected_filters_fail_validation() {
        let mut g = chain(3);
        g.add_filter(Filter::new("orphan", 1, 1, 1.0));
        assert!(matches!(g.validate(), Err(GraphError::Disconnected(_))));
    }

    #[test]
    fn iteration_quantities() {
        let mut g = StreamGraph::new("updown");
        let src = g.add_filter(Filter::new("src", 0, 2, 1.0));
        let up = g.add_filter(Filter::new("up", 1, 3, 2.0));
        let sink = g.add_filter(Filter::new("sink", 3, 0, 1.0));
        let c0 = g.add_channel(src, up, 2, 1).unwrap();
        let c1 = g.add_channel(up, sink, 3, 3).unwrap();
        let reps = g.repetition_vector().unwrap();
        // src fires 1, up fires 2, sink fires 2.
        assert_eq!(reps.as_slice(), &[1, 2, 2]);
        assert_eq!(g.channel_iteration_tokens(c0, &reps), 2);
        assert_eq!(g.channel_iteration_tokens(c1, &reps), 6);
        assert_eq!(g.iteration_work(&reps), 1.0 + 2.0 * 2.0 + 2.0 * 1.0);
        assert_eq!(g.primary_input_bytes(&reps), 2 * 4);
        assert_eq!(g.primary_output_bytes(&reps), 6 * 4);
    }

    #[test]
    fn filter_by_name_finds_first_match() {
        let g = chain(3);
        assert_eq!(g.filter_by_name("f1"), Some(FilterId(1)));
        assert_eq!(g.filter_by_name("nope"), None);
    }
}
