//! Property tests over random topology trees: every precomputed route is a
//! contiguous up-then-down walk from the source's tree node to the
//! destination's, as long as the generator's own tree path through the
//! lowest common ancestor, and the per-link `dtlist` tables are exactly the
//! inversion of the route table.

use proptest::prelude::*;

use sgmap_gpusim::{Endpoint, LinkClass, LinkId, Topology, TopologyBuilder};

/// A random topology plus the tree the generator built it from, recorded
/// independently of the topology's own tables.
struct Tree {
    topo: Topology,
    /// `parent[n]` is the parent of tree node `n` (`None` for the host).
    parent: Vec<Option<usize>>,
    /// `gpu_nodes[g]` is the tree node of GPU `g`.
    gpu_nodes: Vec<usize>,
}

impl Tree {
    fn node(&self, e: Endpoint) -> usize {
        match e {
            Endpoint::Host => 0,
            Endpoint::Gpu(g) => self.gpu_nodes[g],
        }
    }

    /// `n` and its ancestors, up to and including the host.
    fn ancestors(&self, mut n: usize) -> Vec<usize> {
        let mut path = vec![n];
        while let Some(p) = self.parent[n] {
            path.push(p);
            n = p;
        }
        path
    }

    /// Number of tree edges between two nodes, through their lowest common
    /// ancestor.
    fn path_len(&self, a: usize, b: usize) -> usize {
        let (up, down) = (self.ancestors(a), self.ancestors(b));
        let lca = up.iter().position(|n| down.contains(n)).expect("one root");
        let lca_in_down = down.iter().position(|&n| n == up[lca]).expect("common");
        lca + lca_in_down
    }
}

/// Random well-formed trees: a host root, then a mix of switches and GPU
/// leaves each attached to a random existing non-leaf node over a random
/// link class (so NVLink islands, PCIe fabrics and network uplinks mix
/// freely in one tree).
fn tree_strategy() -> BoxedStrategy<Tree> {
    prop::collection::vec((0u32..1024, 0u32..3, 0u32..3), 1..24)
        .prop_map(|nodes| {
            let mut b = TopologyBuilder::new();
            let host = b.host();
            let mut parent = vec![None];
            let mut gpu_nodes = Vec::new();
            let mut attach_points = vec![host];
            for (pick, kind, class) in nodes {
                let at = attach_points[pick as usize % attach_points.len()];
                let class = match class {
                    0 => LinkClass::Pcie,
                    1 => LinkClass::NvLink,
                    _ => LinkClass::Network,
                };
                let node = if kind == 0 {
                    let sw = b.switch_via(at, class);
                    attach_points.push(sw);
                    sw
                } else {
                    let gpu = b.gpu_via(at, class);
                    gpu_nodes.push(gpu);
                    gpu
                };
                assert_eq!(node, parent.len(), "builder numbers nodes densely");
                parent.push(Some(at));
            }
            if gpu_nodes.is_empty() {
                gpu_nodes.push(b.gpu(host));
                parent.push(Some(host));
            }
            let topo = b.finish().expect("a tree with a GPU builds");
            Tree {
                topo,
                parent,
                gpu_nodes,
            }
        })
        .boxed()
}

fn endpoints(topo: &Topology) -> Vec<Endpoint> {
    std::iter::once(Endpoint::Host)
        .chain((0..topo.gpu_count()).map(Endpoint::Gpu))
        .collect()
}

/// `dtlist(l)` rebuilt from the public route table: every ordered GPU pair
/// whose route crosses `l`, in ascending `(i, j)` order.
fn dtlist_scan(topo: &Topology, l: LinkId) -> Vec<(usize, usize)> {
    let g = topo.gpu_count();
    (0..g)
        .flat_map(|i| (0..g).map(move |j| (i, j)))
        .filter(|&(i, j)| i != j && topo.route(Endpoint::Gpu(i), Endpoint::Gpu(j)).contains(&l))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn routes_go_up_then_down_through_the_lca(tree in tree_strategy()) {
        let topo = &tree.topo;
        for &from in &endpoints(topo) {
            for &to in &endpoints(topo) {
                let route = topo.route(from, to);
                if from == to {
                    prop_assert!(route.is_empty());
                    continue;
                }
                prop_assert!(!route.is_empty(), "{from:?}->{to:?}");
                // Contiguous walk: each hop starts where the previous ended.
                for pair in route.windows(2) {
                    prop_assert_eq!(
                        topo.link_nodes(pair[0]).1,
                        topo.link_nodes(pair[1]).0,
                        "route {from:?}->{to:?} is not contiguous"
                    );
                }
                // Up-links first, down-links after — never up again once the
                // walk has turned at the LCA.
                let ups: Vec<bool> = route.iter().map(|&l| topo.link_is_up(l)).collect();
                let turn = ups.iter().filter(|&&u| u).count();
                prop_assert!(
                    ups[..turn].iter().all(|&u| u) && ups[turn..].iter().all(|&u| !u),
                    "route {from:?}->{to:?} interleaves up and down hops: {ups:?}"
                );
                // The walk runs from the source's tree node to the
                // destination's along the generator's tree path, and the
                // reverse route mirrors it hop for hop.
                let (src, dst) = (tree.node(from), tree.node(to));
                prop_assert_eq!(topo.link_nodes(route[0]).0, src, "route {from:?}->{to:?} start");
                prop_assert_eq!(
                    topo.link_nodes(route[route.len() - 1]).1,
                    dst,
                    "route {from:?}->{to:?} end"
                );
                prop_assert_eq!(route.len(), tree.path_len(src, dst), "route {from:?}->{to:?} length");
                prop_assert_eq!(route.len(), topo.route(to, from).len());
            }
        }
    }

    #[test]
    fn dtlists_invert_the_route_table_exactly(tree in tree_strategy()) {
        let topo = &tree.topo;
        let g = topo.gpu_count();
        let mut route_hops = 0usize;
        for i in 0..g {
            for j in 0..g {
                if i != j {
                    route_hops += topo.route(Endpoint::Gpu(i), Endpoint::Gpu(j)).len();
                }
            }
        }
        let mut dtlist_pairs = 0usize;
        for l in topo.link_ids() {
            let dtlist = topo.dtlist(l);
            dtlist_pairs += dtlist.len();
            // The table matches a rescan of the route table, in ascending
            // (i, j) order with no duplicates.
            prop_assert_eq!(dtlist, &dtlist_scan(topo, l)[..]);
            for pair in dtlist.windows(2) {
                prop_assert!(pair[0] < pair[1], "dtlist out of order: {pair:?}");
            }
        }
        // Every hop of every GPU-to-GPU route is charged to exactly one
        // (link, pair) entry.
        prop_assert_eq!(dtlist_pairs, route_hops);
    }
}
