//! Graph algorithms shared by the rest of the crate: topological ordering,
//! connectivity and convexity over forward (non-feedback) channels.
//!
//! The connectivity and convexity checks are *local*: they touch a node set,
//! its incident channels and (for convexity) the non-members inside the set's
//! topological window, never the whole graph. The partition search runs one
//! per candidate merge, so their cost is what bounds coarsening at scale.
//! Both walk on a per-thread `Scratch` of epoch-stamped member and visit
//! marks and a stack, instead of allocating their buffers and binary-searching
//! the members on every call: the partition search runs them on its scoped
//! worker threads, each of which keeps one scratch for the search.

use std::cell::RefCell;

use crate::error::GraphError;
use crate::filter::FilterId;
use crate::graph::StreamGraph;
use crate::Result;

/// Kahn's algorithm over forward channels.
pub(crate) fn topological_order(graph: &StreamGraph) -> Result<Vec<FilterId>> {
    let n = graph.filter_count();
    let mut indegree = vec![0usize; n];
    for (_, ch) in graph.channels() {
        if !ch.feedback {
            indegree[ch.dst.index()] += 1;
        }
    }
    let mut queue: Vec<FilterId> = (0..n)
        .filter(|&i| indegree[i] == 0)
        .map(FilterId::from_index)
        .collect();
    let mut order = Vec::with_capacity(n);
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        order.push(u);
        for &c in graph.out_channels(u) {
            let ch = graph.channel(c);
            if ch.feedback {
                continue;
            }
            let d = ch.dst.index();
            indegree[d] -= 1;
            if indegree[d] == 0 {
                queue.push(ch.dst);
            }
        }
    }
    if order.len() == n {
        Ok(order)
    } else {
        Err(GraphError::CyclicGraph)
    }
}

/// Every filter's position in [`StreamGraph::topological_order`], computed
/// once per graph.
///
/// A graph whose forward channels form a cycle has no topological order; its
/// positions are then the filter ids, and [`TopoIndex::is_acyclic`] reports
/// `false` so that nothing relies on them being ordered.
#[derive(Debug, Clone)]
pub struct TopoIndex {
    positions: Vec<u32>,
    acyclic: bool,
}

impl TopoIndex {
    /// Builds the index of `graph` (one topological sort).
    pub fn new(graph: &StreamGraph) -> Self {
        let mut positions: Vec<u32> = (0..graph.filter_count() as u32).collect();
        let acyclic = match topological_order(graph) {
            Ok(order) => {
                for (pos, id) in order.into_iter().enumerate() {
                    positions[id.index()] = pos as u32;
                }
                true
            }
            Err(_) => false,
        };
        TopoIndex { positions, acyclic }
    }

    /// Position of `id` in the topological order (its index when the graph
    /// is cyclic).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to the indexed graph.
    pub fn position(&self, id: FilterId) -> usize {
        self.positions[id.index()] as usize
    }

    /// `true` if the forward channels are acyclic, so that every forward
    /// channel goes from a lower position to a higher one.
    pub fn is_acyclic(&self) -> bool {
        self.acyclic
    }
}

/// Forward (non-feedback) successors of `u`, one per channel.
fn forward_successors(graph: &StreamGraph, u: FilterId) -> impl Iterator<Item = FilterId> + '_ {
    graph
        .out_channels(u)
        .iter()
        .map(|&c| graph.channel(c))
        .filter(|ch| !ch.feedback)
        .map(|ch| ch.dst)
}

/// The buffers of one feasibility walk, reused across calls on a thread.
/// Marks are epoch stamps indexed by filter id, so starting a walk clears
/// nothing: a filter belongs to the walked set exactly when its `member`
/// stamp holds the current epoch, and is visited exactly when its `seen`
/// stamp does. Membership is then one load instead of a binary search.
#[derive(Debug, Default)]
struct Scratch {
    member: Vec<u32>,
    seen: Vec<u32>,
    epoch: u32,
    stack: Vec<FilterId>,
}

impl Scratch {
    /// Starts a walk over `members` of a graph of `filters` filters: the
    /// members are marked, nothing is visited and the stack is empty.
    fn begin(&mut self, filters: usize, members: &[FilterId]) {
        if self.member.len() < filters {
            self.member.resize(filters, 0);
            self.seen.resize(filters, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // The stamps wrapped: clear them once and start over.
            self.member.fill(0);
            self.seen.fill(0);
            self.epoch = 1;
        }
        for &m in members {
            self.member[m.index()] = self.epoch;
        }
        self.stack.clear();
    }

    fn is_member(&self, id: FilterId) -> bool {
        self.member[id.index()] == self.epoch
    }

    /// Marks `id` visited and queues it, unless it already was.
    fn visit(&mut self, id: FilterId) {
        if self.seen[id.index()] != self.epoch {
            self.seen[id.index()] = self.epoch;
            self.stack.push(id);
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Runs `walk` on this thread's scratch, begun over `members` of `graph`.
fn with_scratch<T>(
    graph: &StreamGraph,
    members: &[FilterId],
    walk: impl FnOnce(&mut Scratch) -> T,
) -> T {
    SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        scratch.begin(graph.filter_count(), members);
        walk(&mut scratch)
    })
}

/// Returns `true` if `members` (sorted ascending, no duplicates) form a
/// non-empty weakly connected sub-graph, treating forward channels as
/// undirected and ignoring feedback channels. Walks the members and their
/// incident channels only.
pub(crate) fn is_weakly_connected(graph: &StreamGraph, members: &[FilterId]) -> bool {
    if members.is_empty() {
        return false;
    }
    with_scratch(graph, members, |scratch| {
        scratch.visit(members[0]);
        let mut visited = 0usize;
        while let Some(u) = scratch.stack.pop() {
            visited += 1;
            for &c in graph.out_channels(u).iter().chain(graph.in_channels(u)) {
                let ch = graph.channel(c);
                if ch.feedback {
                    continue;
                }
                let v = if ch.src == u { ch.dst } else { ch.src };
                if scratch.is_member(v) {
                    scratch.visit(v);
                }
            }
        }
        visited == members.len()
    })
}

/// Returns `true` if `members` (sorted ascending, no duplicates) is convex:
/// no forward path leaves the set and comes back into it.
///
/// A forward search starts at the members' non-member successors and walks
/// non-members only; the set is non-convex exactly when it reaches a member.
/// In an acyclic graph no member lies past the set's last topological
/// position, so the search is pruned there and visits only non-members
/// between the set's first and last positions. Without a topological order
/// nothing is pruned.
pub(crate) fn is_convex(graph: &StreamGraph, topo: &TopoIndex, members: &[FilterId]) -> bool {
    if members.len() <= 1 {
        return true;
    }
    let hi = if topo.is_acyclic() {
        members.iter().map(|&m| topo.position(m)).max().unwrap_or(0)
    } else {
        graph.filter_count() - 1
    };
    with_scratch(graph, members, |scratch| {
        for &m in members {
            for v in forward_successors(graph, m) {
                if !scratch.is_member(v) && topo.position(v) <= hi {
                    scratch.visit(v);
                }
            }
        }
        while let Some(u) = scratch.stack.pop() {
            for v in forward_successors(graph, u) {
                if scratch.is_member(v) {
                    return false;
                }
                if topo.position(v) <= hi {
                    scratch.visit(v);
                }
            }
        }
        true
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::Filter;

    fn diamond() -> (StreamGraph, Vec<FilterId>) {
        // a -> b -> d, a -> c -> d
        let mut g = StreamGraph::new("diamond");
        let a = g.add_filter(Filter::new("a", 0, 2, 1.0));
        let b = g.add_filter(Filter::new("b", 1, 1, 1.0));
        let c = g.add_filter(Filter::new("c", 1, 1, 1.0));
        let d = g.add_filter(Filter::new("d", 2, 0, 1.0));
        g.add_channel(a, b, 1, 1).unwrap();
        g.add_channel(a, c, 1, 1).unwrap();
        g.add_channel(b, d, 1, 1).unwrap();
        g.add_channel(c, d, 1, 1).unwrap();
        (g, vec![a, b, c, d])
    }

    #[test]
    fn topological_order_respects_edges() {
        let (g, ids) = diamond();
        let order = topological_order(&g).unwrap();
        let pos: Vec<usize> = ids
            .iter()
            .map(|id| order.iter().position(|x| x == id).unwrap())
            .collect();
        assert!(pos[0] < pos[1] && pos[0] < pos[2]);
        assert!(pos[1] < pos[3] && pos[2] < pos[3]);
        let topo = TopoIndex::new(&g);
        assert!(topo.is_acyclic());
        for (id, p) in ids.iter().zip(pos) {
            assert_eq!(topo.position(*id), p);
        }
    }

    #[test]
    fn weak_connectivity() {
        let (g, ids) = diamond();
        // b and c are not connected to each other without a or d.
        assert!(!is_weakly_connected(&g, &[ids[1], ids[2]]));
        assert!(is_weakly_connected(&g, &[ids[0], ids[1], ids[2]]));
        assert!(!is_weakly_connected(&g, &[]));
    }

    #[test]
    fn walks_on_reused_scratch_answer_alike_across_the_epoch_wrap() {
        let (g, ids) = diamond();
        let topo = TopoIndex::new(&g);
        // Start two walks short of the wrap; every answer must stay put
        // while the stamps wrap and are cleared.
        SCRATCH.with(|scratch| scratch.borrow_mut().epoch = u32::MAX - 2);
        for _ in 0..6 {
            assert!(!is_weakly_connected(&g, &[ids[1], ids[2]]));
            assert!(is_weakly_connected(&g, &ids));
            assert!(!is_convex(&g, &topo, &[ids[0], ids[3]]));
            assert!(is_convex(&g, &topo, &[ids[0], ids[1]]));
        }
        SCRATCH.with(|scratch| assert!(scratch.borrow().epoch < 100));
    }

    #[test]
    fn convexity_without_a_topological_order_searches_unpruned() {
        // a -> b -> c -> a is a forward cycle: {a, c} is left through b and
        // re-entered, {a, b, c} is closed.
        let mut g = StreamGraph::new("cycle");
        let a = g.add_filter(Filter::new("a", 1, 1, 1.0));
        let b = g.add_filter(Filter::new("b", 1, 1, 1.0));
        let c = g.add_filter(Filter::new("c", 1, 1, 1.0));
        g.add_channel(a, b, 1, 1).unwrap();
        g.add_channel(b, c, 1, 1).unwrap();
        g.add_channel(c, a, 1, 1).unwrap();
        let topo = TopoIndex::new(&g);
        assert!(!topo.is_acyclic());
        assert!(!is_convex(&g, &topo, &[a, c]));
        assert!(is_convex(&g, &topo, &[a, b, c]));
    }
}
