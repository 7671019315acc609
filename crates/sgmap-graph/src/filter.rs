//! Filters (actors) of a stream graph.

use std::fmt;

/// Identifier of a filter (node) within a [`StreamGraph`](crate::StreamGraph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FilterId(pub(crate) u32);

impl FilterId {
    /// Creates a filter id from a raw index.
    ///
    /// Mostly useful in tests; regular code receives ids from
    /// [`StreamGraph::add_filter`](crate::StreamGraph::add_filter).
    pub fn from_index(index: usize) -> Self {
        FilterId(index as u32)
    }

    /// Returns the zero-based index of this filter inside its graph.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FilterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// How a splitter distributes its input tokens across its output channels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SplitKind {
    /// Every output channel receives a copy of every input token.
    Duplicate,
    /// Tokens are dealt out to the output channels according to the given
    /// weights: `weights[i]` consecutive tokens go to branch `i`, then the
    /// splitter moves on to branch `i + 1`, wrapping around.
    RoundRobin(Vec<u32>),
}

impl SplitKind {
    /// Uniform round-robin split over `n` branches, one token each.
    pub fn round_robin_uniform(n: usize) -> Self {
        SplitKind::RoundRobin(vec![1; n])
    }
}

/// How a joiner gathers tokens from its input channels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinKind {
    /// Tokens are collected from the input channels according to the given
    /// weights, analogous to [`SplitKind::RoundRobin`].
    RoundRobin(Vec<u32>),
}

impl JoinKind {
    /// Uniform round-robin join over `n` branches, one token each.
    pub fn round_robin_uniform(n: usize) -> Self {
        JoinKind::RoundRobin(vec![1; n])
    }
}

/// The structural role of a filter.
///
/// Regular compute filters do real work; splitters and joiners only
/// re-arrange data and are the target of the splitter/joiner elimination
/// optimisation of the paper's Chapter V.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FilterKind {
    /// An ordinary computation filter.
    Compute,
    /// A source filter: produces the primary input stream (pop rate 0).
    Source,
    /// A sink filter: consumes the primary output stream (push rate 0).
    Sink,
    /// A data-distributing splitter.
    Splitter(SplitKind),
    /// A data-consolidating joiner.
    Joiner(JoinKind),
}

impl FilterKind {
    /// Returns `true` for splitters and joiners, the "non-data-manipulating"
    /// filters of Chapter V.
    pub fn is_reorder_only(&self) -> bool {
        matches!(self, FilterKind::Splitter(_) | FilterKind::Joiner(_))
    }
}

/// A filter (actor) of a stream graph.
///
/// Rates are expressed in tokens per firing on the *aggregate* of all input
/// (respectively output) channels; the per-channel breakdown lives on the
/// channels themselves so that round-robin splitters and joiners can have
/// asymmetric channel rates.
#[derive(Debug, Clone, PartialEq)]
pub struct Filter {
    /// Human-readable name, unique within the graph by convention but not
    /// enforced.
    pub name: String,
    /// Structural role.
    pub kind: FilterKind,
    /// Tokens consumed per firing (sum over all input channels).
    pub pop: u32,
    /// Tokens inspected per firing without being consumed. Always `>= pop`
    /// for StreamIt semantics; only the excess over `pop` occupies extra
    /// buffer space.
    pub peek: u32,
    /// Tokens produced per firing (sum over all output channels).
    pub push: u32,
    /// Abstract work estimate per firing, in arithmetic-operation units. The
    /// GPU profiler converts this into a per-firing execution time.
    pub work: f64,
    /// Size in bytes of one token on this filter's channels.
    pub token_bytes: u32,
    /// Bytes of per-filter persistent state (stateful filters cannot be
    /// data-parallelised across executions).
    pub state_bytes: u32,
}

impl Filter {
    /// Creates a compute filter with the given rates and work estimate.
    pub fn new(name: impl Into<String>, pop: u32, push: u32, work: f64) -> Self {
        let pop_rate = pop;
        Filter {
            name: name.into(),
            kind: if pop == 0 {
                FilterKind::Source
            } else if push == 0 {
                FilterKind::Sink
            } else {
                FilterKind::Compute
            },
            pop,
            peek: pop_rate,
            push,
            work,
            token_bytes: 4,
            state_bytes: 0,
        }
    }

    /// Sets the peek rate (tokens inspected per firing).
    ///
    /// # Panics
    ///
    /// Panics if `peek < self.pop`.
    pub fn with_peek(mut self, peek: u32) -> Self {
        assert!(peek >= self.pop, "peek rate must be >= pop rate");
        self.peek = peek;
        self
    }

    /// Sets the token size in bytes.
    pub fn with_token_bytes(mut self, bytes: u32) -> Self {
        self.token_bytes = bytes;
        self
    }

    /// Overrides the structural kind of the filter.
    pub fn with_kind(mut self, kind: FilterKind) -> Self {
        self.kind = kind;
        self
    }

    /// Returns `true` if this filter only re-orders data (splitter/joiner).
    pub fn is_reorder_only(&self) -> bool {
        self.kind.is_reorder_only()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_kind_is_inferred_from_rates() {
        assert_eq!(Filter::new("src", 0, 4, 1.0).kind, FilterKind::Source);
        assert_eq!(Filter::new("sink", 4, 0, 1.0).kind, FilterKind::Sink);
        assert_eq!(Filter::new("mid", 2, 2, 1.0).kind, FilterKind::Compute);
    }

    #[test]
    fn peek_defaults_to_pop() {
        let f = Filter::new("fir", 1, 1, 10.0);
        assert_eq!(f.peek, 1);
        let f = f.with_peek(8);
        assert_eq!(f.peek, 8);
    }

    #[test]
    #[should_panic(expected = "peek rate must be >= pop rate")]
    fn peek_below_pop_panics() {
        let _ = Filter::new("bad", 4, 1, 1.0).with_peek(2);
    }

    #[test]
    fn reorder_only_detection() {
        let split =
            Filter::new("split", 2, 2, 0.5).with_kind(FilterKind::Splitter(SplitKind::Duplicate));
        assert!(split.is_reorder_only());
        assert!(!Filter::new("work", 1, 1, 1.0).is_reorder_only());
    }

    #[test]
    fn filter_id_round_trips_through_index() {
        let id = FilterId::from_index(17);
        assert_eq!(id.index(), 17);
        assert_eq!(id.to_string(), "f17");
    }
}
