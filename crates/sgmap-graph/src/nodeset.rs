//! Sub-graphs of a stream graph: the candidate partitions of the mapping
//! flow.
//!
//! A [`NodeSet`] is an arbitrary subset of the filters of a [`StreamGraph`].
//! The partitioning heuristic only ever keeps node sets that are *connected*
//! and *convex* (no path between two members passes through a non-member),
//! so both predicates are provided here, together with the boundary/interior
//! channel queries needed to compute workloads, IO volumes and inter-partition
//! traffic.

use std::sync::Arc;

use crate::algo::{self, TopoIndex};
use crate::error::GraphError;
use crate::filter::FilterId;
use crate::graph::{ChannelId, StreamGraph};
use crate::rates::RepetitionVector;
use crate::Result;

/// A set of filters of a stream graph, kept sorted by filter id.
///
/// The members are stored behind an [`Arc`], so cloning a node set — which
/// the partition search and the estimator caches do constantly — is a
/// reference-count bump rather than a vector copy, and the hash of the
/// member list is precomputed at construction so hash-map lookups keyed by
/// node sets do not re-walk the members.
#[derive(Debug, Clone)]
pub struct NodeSet {
    members: Arc<Vec<FilterId>>,
    /// FNV-1a over the member ids; maintained on every mutation.
    hash: u64,
}

/// FNV-1a over the member ids. Deterministic across runs and platforms, so
/// anything derived from the hash (bucket order never is) stays stable.
fn members_hash(members: &[FilterId]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for id in members {
        h ^= id.index() as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl NodeSet {
    fn from_sorted(members: Vec<FilterId>) -> Self {
        let hash = members_hash(&members);
        NodeSet {
            members: Arc::new(members),
            hash,
        }
    }

    /// Creates an empty node set.
    pub fn new() -> Self {
        NodeSet::from_sorted(Vec::new())
    }

    /// Creates a node set containing a single filter.
    pub fn singleton(id: FilterId) -> Self {
        NodeSet::from_sorted(vec![id])
    }

    /// Creates a node set containing every filter of `graph`.
    pub fn all(graph: &StreamGraph) -> Self {
        NodeSet::from_sorted(graph.filter_ids().collect())
    }

    /// Creates a node set from an iterator of filter ids (duplicates are
    /// removed).
    pub fn from_ids(ids: impl IntoIterator<Item = FilterId>) -> Self {
        let mut members: Vec<FilterId> = ids.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        NodeSet::from_sorted(members)
    }

    /// Number of filters in the set.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if the set contains no filter.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Returns `true` if `id` belongs to the set.
    pub fn contains(&self, id: FilterId) -> bool {
        self.members.binary_search(&id).is_ok()
    }

    /// Inserts a filter; returns `true` if it was not already present.
    pub fn insert(&mut self, id: FilterId) -> bool {
        match self.members.binary_search(&id) {
            Ok(_) => false,
            Err(pos) => {
                Arc::make_mut(&mut self.members).insert(pos, id);
                self.hash = members_hash(&self.members);
                true
            }
        }
    }

    /// Iterates over the member filter ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = FilterId> + '_ {
        self.members.iter().copied()
    }

    /// Returns the members as a slice, sorted ascending.
    pub fn as_slice(&self) -> &[FilterId] {
        &self.members
    }

    /// Returns a new set that is the union of `self` and `other`.
    pub fn union(&self, other: &NodeSet) -> NodeSet {
        let mut members = Vec::with_capacity(self.members.len() + other.members.len());
        let (mut i, mut j) = (0, 0);
        while i < self.members.len() && j < other.members.len() {
            match self.members[i].cmp(&other.members[j]) {
                std::cmp::Ordering::Less => {
                    members.push(self.members[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    members.push(other.members[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    members.push(self.members[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        members.extend_from_slice(&self.members[i..]);
        members.extend_from_slice(&other.members[j..]);
        NodeSet::from_sorted(members)
    }

    /// Returns a new set with the members of `self` that are not in `other`.
    pub fn difference(&self, other: &NodeSet) -> NodeSet {
        let mut members = Vec::with_capacity(self.members.len());
        let (mut i, mut j) = (0, 0);
        while i < self.members.len() && j < other.members.len() {
            match self.members[i].cmp(&other.members[j]) {
                std::cmp::Ordering::Less => {
                    members.push(self.members[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        members.extend_from_slice(&self.members[i..]);
        NodeSet::from_sorted(members)
    }

    /// Returns `true` if the members form a non-empty weakly connected
    /// sub-graph of `graph` over forward channels. Walks the members and
    /// their incident channels only.
    pub fn is_connected(&self, graph: &StreamGraph) -> bool {
        algo::is_weakly_connected(graph, &self.members)
    }

    /// Returns `true` if the set is convex in `graph`: no directed path
    /// between two members passes through a non-member.
    ///
    /// Sorts `graph` topologically first; a caller checking many sets of one
    /// graph builds a [`TopoIndex`] once and uses [`NodeSet::is_convex_in`].
    pub fn is_convex(&self, graph: &StreamGraph) -> bool {
        self.is_convex_in(graph, &TopoIndex::new(graph))
    }

    /// [`NodeSet::is_convex`] against a precomputed [`TopoIndex`] of `graph`.
    /// Visits the members' forward successors and the non-members between
    /// the set's first and last topological positions, not the whole graph.
    pub fn is_convex_in(&self, graph: &StreamGraph, topo: &TopoIndex) -> bool {
        algo::is_convex(graph, topo, &self.members)
    }

    /// Channels whose endpoints are both members.
    pub fn internal_channels(&self, graph: &StreamGraph) -> Vec<ChannelId> {
        graph
            .channels()
            .filter(|(_, ch)| self.contains(ch.src) && self.contains(ch.dst))
            .map(|(id, _)| id)
            .collect()
    }

    /// Channels entering the set from outside.
    pub fn input_channels(&self, graph: &StreamGraph) -> Vec<ChannelId> {
        graph
            .channels()
            .filter(|(_, ch)| !self.contains(ch.src) && self.contains(ch.dst))
            .map(|(id, _)| id)
            .collect()
    }

    /// Channels leaving the set to the outside.
    pub fn output_channels(&self, graph: &StreamGraph) -> Vec<ChannelId> {
        graph
            .channels()
            .filter(|(_, ch)| self.contains(ch.src) && !self.contains(ch.dst))
            .map(|(id, _)| id)
            .collect()
    }

    /// Total work (abstract operations) of the members per steady-state
    /// iteration.
    pub fn iteration_work(&self, graph: &StreamGraph, reps: &RepetitionVector) -> f64 {
        self.iter()
            .map(|id| graph.filter(id).work * reps[id.index()] as f64)
            .sum()
    }

    /// Checks that the set is non-empty and that every member exists in
    /// `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EmptyNodeSet`] or
    /// [`GraphError::UnknownFilter`].
    pub fn validate(&self, graph: &StreamGraph) -> Result<()> {
        if self.is_empty() {
            return Err(GraphError::EmptyNodeSet);
        }
        for id in self.iter() {
            if id.index() >= graph.filter_count() {
                return Err(GraphError::UnknownFilter(id));
            }
        }
        Ok(())
    }
}

impl Default for NodeSet {
    fn default() -> Self {
        NodeSet::new()
    }
}

impl PartialEq for NodeSet {
    fn eq(&self, other: &Self) -> bool {
        // Shared storage (the common case after a cheap clone) and the
        // precomputed hash both short-circuit the member comparison.
        Arc::ptr_eq(&self.members, &other.members)
            || (self.hash == other.hash && self.members == other.members)
    }
}

impl Eq for NodeSet {}

impl std::hash::Hash for NodeSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl FromIterator<FilterId> for NodeSet {
    fn from_iter<T: IntoIterator<Item = FilterId>>(iter: T) -> Self {
        NodeSet::from_ids(iter)
    }
}

impl Extend<FilterId> for NodeSet {
    fn extend<T: IntoIterator<Item = FilterId>>(&mut self, iter: T) {
        for id in iter {
            self.insert(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::Filter;

    /// a -> b -> c -> d plus a -> e -> d (a diamond with a long arm).
    fn fixture() -> (StreamGraph, Vec<FilterId>) {
        let mut g = StreamGraph::new("fixture");
        let a = g.add_filter(Filter::new("a", 0, 2, 1.0));
        let b = g.add_filter(Filter::new("b", 1, 1, 2.0));
        let c = g.add_filter(Filter::new("c", 1, 1, 3.0));
        let d = g.add_filter(Filter::new("d", 2, 0, 4.0));
        let e = g.add_filter(Filter::new("e", 1, 1, 5.0));
        g.add_channel(a, b, 1, 1).unwrap();
        g.add_channel(b, c, 1, 1).unwrap();
        g.add_channel(c, d, 1, 1).unwrap();
        g.add_channel(a, e, 1, 1).unwrap();
        g.add_channel(e, d, 1, 1).unwrap();
        (g, vec![a, b, c, d, e])
    }

    #[test]
    fn set_operations() {
        let s1 = NodeSet::from_ids([FilterId::from_index(0), FilterId::from_index(2)]);
        let s2 = NodeSet::from_ids([FilterId::from_index(2), FilterId::from_index(3)]);
        assert_eq!(s1.difference(&s2).len(), 1); // they share filter 2
        let u = s1.union(&s2);
        assert_eq!(u.len(), 3);
        assert!(u.contains(FilterId::from_index(0)));
        assert!(u.contains(FilterId::from_index(3)));
        let mut s = NodeSet::singleton(FilterId::from_index(1));
        assert!(s.insert(FilterId::from_index(0)));
        assert!(!s.insert(FilterId::from_index(0)));
        assert_eq!(s.as_slice()[0], FilterId::from_index(0));
        let d = u.difference(&s2);
        assert_eq!(d, NodeSet::singleton(FilterId::from_index(0)));
        assert_eq!(s1.difference(&s1), NodeSet::new());
        assert_eq!(u.difference(&NodeSet::new()), u);
        // Hashes of derived sets match freshly built ones (cache-key contract).
        assert_eq!(d, NodeSet::from_ids([FilterId::from_index(0)]));
    }

    #[test]
    fn connectivity_and_convexity() {
        let (g, ids) = fixture();
        let (a, b, c, d, e) = (ids[0], ids[1], ids[2], ids[3], ids[4]);
        // {b, c} is connected and convex.
        let bc = NodeSet::from_ids([b, c]);
        assert!(bc.is_connected(&g));
        assert!(bc.is_convex(&g));
        // {b, d} is not connected directly... b->c->d exists, but c is missing:
        // not connected as an undirected induced subgraph, and not convex.
        let bd = NodeSet::from_ids([b, d]);
        assert!(!bd.is_connected(&g));
        assert!(!bd.is_convex(&g));
        // {a, d} plus the arm e: convex only if both arms are included.
        let ad = NodeSet::from_ids([a, d]);
        assert!(!ad.is_convex(&g));
        let abcde = NodeSet::from_ids([a, b, c, d, e]);
        assert!(abcde.is_convex(&g));
        assert!(abcde.is_connected(&g));
        // {a, b, e}: the path a->b does not leave the set, and no path between
        // members goes through an outsider (c is only on a path from b to d,
        // and d is not a member), so this is convex.
        let abe = NodeSet::from_ids([a, b, e]);
        assert!(abe.is_convex(&g));
        // {b, e, d}: a path e->d stays inside, but b reaches d only through c
        // which is outside: not convex.
        let bed = NodeSet::from_ids([b, e, d]);
        assert!(!bed.is_convex(&g));
    }

    #[test]
    fn boundary_channels_and_io() {
        let (g, ids) = fixture();
        let reps = g.repetition_vector().unwrap();
        let bc = NodeSet::from_ids([ids[1], ids[2]]);
        assert_eq!(bc.internal_channels(&g).len(), 1);
        assert_eq!(bc.input_channels(&g).len(), 1);
        assert_eq!(bc.output_channels(&g).len(), 1);
        // one token in + one token out, 4 bytes per token.
        let boundary = bc
            .input_channels(&g)
            .into_iter()
            .chain(bc.output_channels(&g));
        let io: u64 = boundary
            .map(|id| g.channel_iteration_bytes(id, &reps))
            .sum();
        assert_eq!(io, 8);
        assert_eq!(bc.iteration_work(&g, &reps), 2.0 + 3.0);
        // The whole graph has no boundary channels.
        let all = NodeSet::all(&g);
        assert!(all.input_channels(&g).is_empty() && all.output_channels(&g).is_empty());
    }

    #[test]
    fn clones_share_storage_and_mutation_keeps_hash_consistent() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};

        let hash_of = |s: &NodeSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        let a = NodeSet::from_ids([FilterId::from_index(3), FilterId::from_index(1)]);
        let clone = a.clone();
        assert!(Arc::ptr_eq(&a.members, &clone.members));
        assert_eq!(a, clone);
        assert_eq!(hash_of(&a), hash_of(&clone));
        // Mutating the clone must not disturb the original (copy-on-write)
        // and must keep hash consistent with an equal set built from scratch.
        let mut grown = clone;
        assert!(grown.insert(FilterId::from_index(2)));
        assert_eq!(a.len(), 2);
        assert_eq!(grown.len(), 3);
        let rebuilt = NodeSet::from_ids((1..4).map(FilterId::from_index));
        assert_eq!(grown, rebuilt);
        assert_eq!(hash_of(&grown), hash_of(&rebuilt));
        assert_ne!(hash_of(&a), hash_of(&grown));
        // Empty sets built any way agree too.
        assert_eq!(hash_of(&NodeSet::new()), hash_of(&NodeSet::default()));
        assert_eq!(hash_of(&NodeSet::new()), hash_of(&NodeSet::from_ids([])));
    }

    #[test]
    fn validate_rejects_empty_and_foreign_sets() {
        let (g, _) = fixture();
        assert_eq!(NodeSet::new().validate(&g), Err(GraphError::EmptyNodeSet));
        let foreign = NodeSet::singleton(FilterId::from_index(99));
        assert!(matches!(
            foreign.validate(&g),
            Err(GraphError::UnknownFilter(_))
        ));
        assert!(NodeSet::all(&g).validate(&g).is_ok());
    }
}
