//! The local connectivity and convexity checks of `NodeSet` against the
//! global algorithms they replaced, kept here as the oracle: a membership
//! vector over the whole graph, a weak-connectivity flood over it, and for
//! convexity a forward flood from every member plus a reverse-topological
//! "can reach a member" pass.
//!
//! Graphs are random DAGs with feedback edges. Sets include the empty set,
//! singletons, random subsets (mostly disconnected), sets grown along
//! channels (mostly connected, often non-convex), and the endpoints of each
//! feedback channel, which are adjacent only through that channel when no
//! forward channel joins them and must then stay rejected.

use proptest::prelude::*;

use sgmap_graph::{Filter, FilterId, NodeSet, StreamGraph, TopoIndex};

/// SplitMix64, so one drawn seed expands into a whole graph and its sets.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

/// A random DAG over `n` filters whose forward channels run from a lower to
/// a higher position of a shuffled order (so ids are not topological), plus
/// feedback channels running the other way.
fn random_graph(n: usize, density: u64, rng: &mut Mix) -> StreamGraph {
    let mut g = StreamGraph::new("random");
    let ids: Vec<FilterId> = (0..n)
        .map(|i| g.add_filter(Filter::new(format!("f{i}"), 1, 1, 1.0)))
        .collect();
    let mut order = ids.clone();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    for i in 0..n {
        for j in i + 1..n {
            // Short hops are likelier, so long chains and diamonds appear.
            let percent = if j - i <= 2 { density * 3 } else { density };
            if rng.chance(percent) {
                g.add_channel(order[i], order[j], 1, 1).unwrap();
            }
        }
    }
    for _ in 0..rng.below(4) {
        let (i, j) = (rng.below(n), rng.below(n));
        if i < j {
            g.add_feedback_channel(order[j], order[i], 1, 1, 1).unwrap();
        }
    }
    g
}

/// A connected-ish set: start anywhere and add neighbours (feedback
/// channels included) until `size` members or no neighbour is left.
fn grown_set(g: &StreamGraph, size: usize, rng: &mut Mix) -> NodeSet {
    let start = FilterId::from_index(rng.below(g.filter_count()));
    let mut set = NodeSet::singleton(start);
    while set.len() < size {
        let frontier: Vec<FilterId> = set
            .iter()
            .flat_map(|u| g.in_channels(u).iter().chain(g.out_channels(u)))
            .map(|&c| g.channel(c))
            .flat_map(|ch| [ch.src, ch.dst])
            .filter(|&v| !set.contains(v))
            .collect();
        if frontier.is_empty() {
            break;
        }
        set.insert(frontier[rng.below(frontier.len())]);
    }
    set
}

fn membership(g: &StreamGraph, set: &NodeSet) -> Vec<bool> {
    let mut m = vec![false; g.filter_count()];
    for id in set.iter() {
        m[id.index()] = true;
    }
    m
}

fn oracle_connected(g: &StreamGraph, set: &NodeSet) -> bool {
    let members = membership(g, set);
    let count = members.iter().filter(|&&m| m).count();
    let Some(start) = members.iter().position(|&m| m) else {
        return false;
    };
    let mut seen = vec![false; g.filter_count()];
    let mut stack = vec![FilterId::from_index(start)];
    seen[start] = true;
    let mut visited = 0usize;
    while let Some(u) = stack.pop() {
        visited += 1;
        let incident = g.out_channels(u).iter().chain(g.in_channels(u));
        for ch in incident.map(|&c| g.channel(c)).filter(|ch| !ch.feedback) {
            let v = if ch.src == u { ch.dst } else { ch.src };
            if members[v.index()] && !seen[v.index()] {
                seen[v.index()] = true;
                stack.push(v);
            }
        }
    }
    visited == count
}

fn oracle_convex(g: &StreamGraph, set: &NodeSet) -> bool {
    if set.len() <= 1 {
        return true;
    }
    let members = membership(g, set);
    let mut reachable_from_set = members.clone();
    let mut stack: Vec<FilterId> = set.iter().collect();
    while let Some(u) = stack.pop() {
        for v in g.successors(u) {
            if !reachable_from_set[v.index()] {
                reachable_from_set[v.index()] = true;
                stack.push(v);
            }
        }
    }
    // Reverse topological order: a node reaches the set iff it is a member
    // or one of its forward successors reaches it.
    let order = g.topological_order().expect("forward channels are acyclic");
    let mut reaches_set = members.clone();
    for &u in order.iter().rev() {
        if !reaches_set[u.index()] {
            reaches_set[u.index()] = g.successors(u).iter().any(|s| reaches_set[s.index()]);
        }
    }
    (0..g.filter_count()).all(|i| members[i] || !(reachable_from_set[i] && reaches_set[i]))
}

fn check(g: &StreamGraph, topo: &TopoIndex, set: &NodeSet) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        set.is_connected(g),
        oracle_connected(g, set),
        "connectivity of {:?}",
        set.as_slice()
    );
    let convex = oracle_convex(g, set);
    prop_assert_eq!(
        set.is_convex_in(g, topo),
        convex,
        "convexity of {:?}",
        set.as_slice()
    );
    prop_assert_eq!(set.is_convex(g), convex);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn local_checks_agree_with_the_global_oracle(
        n in 1usize..40,
        density in 2u64..30,
        seed in any::<u64>(),
    ) {
        let mut rng = Mix(seed);
        let g = random_graph(n, density, &mut rng);
        let topo = TopoIndex::new(&g);
        prop_assert!(topo.is_acyclic());

        let mut sets = vec![NodeSet::new(), NodeSet::all(&g)];
        sets.extend(g.filter_ids().map(NodeSet::singleton));
        for _ in 0..20 {
            let keep = 10 + rng.next() % 60;
            sets.push(g.filter_ids().filter(|_| rng.chance(keep)).collect());
            let size = 2 + rng.below(n.max(2));
            sets.push(grown_set(&g, size, &mut rng));
        }
        for (_, ch) in g.channels().filter(|(_, ch)| ch.feedback) {
            let pair = NodeSet::from_ids([ch.src, ch.dst]);
            let forward_link = g.successors(ch.src).contains(&ch.dst)
                || g.successors(ch.dst).contains(&ch.src);
            if !forward_link {
                prop_assert!(!pair.is_connected(&g), "feedback-only pair {:?}", pair.as_slice());
            }
            sets.push(pair);
        }
        for set in &sets {
            check(&g, &topo, set)?;
        }
    }
}

#[test]
fn a_feedback_only_pair_stays_rejected() {
    // a -> b -> c with a feedback channel c -> a: {a, c} touches only
    // through the feedback channel (and is not convex either, via b).
    let mut g = StreamGraph::new("loop");
    let a = g.add_filter(Filter::new("a", 1, 1, 1.0));
    let b = g.add_filter(Filter::new("b", 1, 1, 1.0));
    let c = g.add_filter(Filter::new("c", 1, 1, 1.0));
    g.add_channel(a, b, 1, 1).unwrap();
    g.add_channel(b, c, 1, 1).unwrap();
    g.add_feedback_channel(c, a, 1, 1, 1).unwrap();
    let pair = NodeSet::from_ids([a, c]);
    assert!(!pair.is_connected(&g));
    assert!(!pair.is_convex(&g));
    let all = NodeSet::from_ids([a, b, c]);
    assert!(all.is_connected(&g));
    assert!(all.is_convex(&g));
}
