//! The interconnect of a multi-GPU platform.
//!
//! The topology is a tree with the host at the root, switches as inner nodes
//! and GPUs as leaves (Figure 3.3 of the paper is the reference instance).
//! Every tree edge is a full-duplex link and is therefore modelled as two
//! directed [`LinkId`]s, each carrying its own bandwidth, latency and
//! [`LinkClass`] — so one tree can mix NVLink islands, PCIe switch fabrics
//! and network links between nodes. Peer-to-peer traffic from GPU *i* to GPU
//! *j* climbs up-links to the lowest common ancestor and then descends
//! down-links to the destination; the set of GPU pairs whose traffic crosses
//! a given link — `dtlist(l)` in the ILP formulation — is derived from the
//! routing function.
//!
//! Routing and `dtlist` tables are precomputed once in
//! [`TopologyBuilder::finish`], so [`Topology::route`] and
//! [`Topology::dtlist`] are O(1) lookups returning slices. This matters
//! because both sit inside the ILP's constraint generation, which queries
//! them once per (link, partition-pair) combination.

use std::fmt;

/// Default effective bandwidth of one PCIe link direction, in GB/s.
///
/// PCIe 2.0 x16 peaks at 8 GB/s; sustained DMA throughput on Fermi-class
/// systems is closer to 6 GB/s.
pub const DEFAULT_LINK_BANDWIDTH_GBS: f64 = 6.0;

/// Default one-hop latency of a PCIe transfer, in microseconds.
pub const DEFAULT_LINK_LATENCY_US: f64 = 8.0;

/// The technology class of a link, determining its bandwidth and latency
/// (scaled for a whole topology by [`Topology::with_scaled_links`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// An NVLink-style point-to-point GPU interconnect: high bandwidth, very
    /// low latency.
    NvLink,
    /// A PCI Express lane bundle (the paper's interconnect).
    Pcie,
    /// An inter-node network link (e.g. InfiniBand between cluster nodes):
    /// low bandwidth, high latency.
    Network,
}

impl LinkClass {
    /// Default per-direction bandwidth of this link class, in GB/s.
    pub fn default_bandwidth_gbs(self) -> f64 {
        match self {
            // First-generation NVLink sustains ~20 GB/s per direction.
            LinkClass::NvLink => 20.0,
            LinkClass::Pcie => DEFAULT_LINK_BANDWIDTH_GBS,
            // FDR InfiniBand-class fabric: ~10 Gb/s effective per flow.
            LinkClass::Network => 1.25,
        }
    }

    /// Default per-hop latency of this link class, in microseconds.
    pub fn default_latency_us(self) -> f64 {
        match self {
            LinkClass::NvLink => 1.0,
            LinkClass::Pcie => DEFAULT_LINK_LATENCY_US,
            LinkClass::Network => 25.0,
        }
    }

    /// A short lowercase name (for reports and platform-spec files).
    pub fn name(self) -> &'static str {
        match self {
            LinkClass::NvLink => "nvlink",
            LinkClass::Pcie => "pcie",
            LinkClass::Network => "network",
        }
    }
}

/// One endpoint of a data transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// The host CPU / system memory.
    Host,
    /// GPU with the given index (0-based).
    Gpu(usize),
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Host => write!(f, "host"),
            Endpoint::Gpu(i) => write!(f, "gpu{i}"),
        }
    }
}

/// Identifier of a directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(usize);

impl LinkId {
    /// Zero-based index of the link.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Errors produced when constructing a [`Topology`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The tree has no GPU leaves.
    NoGpus,
    /// A preset was asked for an unsupported GPU count or shape.
    UnsupportedShape(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::NoGpus => write!(f, "topology has no GPUs"),
            TopologyError::UnsupportedShape(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for TopologyError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeKind {
    Host,
    Switch,
    Gpu(usize),
}

/// A directed link of the interconnect tree.
#[derive(Debug, Clone, PartialEq)]
struct Link {
    from: usize,
    to: usize,
    /// `true` if the link points towards the root (an "up-link").
    up: bool,
    class: LinkClass,
    bandwidth_gbs: f64,
    latency_us: f64,
}

/// A tree-shaped, possibly heterogeneous interconnect with per-link
/// bandwidth, latency and class.
///
/// Construct one through a preset ([`Topology::switch_tree`],
/// [`Topology::flat`], [`Topology::nvlink_islands`], [`Topology::cluster`])
/// or a custom [`TopologyBuilder`].
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    kinds: Vec<NodeKind>,
    parent: Vec<Option<usize>>,
    links: Vec<Link>,
    /// `gpu_nodes[g]` is the tree node of GPU `g`.
    gpu_nodes: Vec<usize>,
    /// Precomputed routes for every ordered endpoint pair; indexed by
    /// `endpoint_index(from) * (gpu_count + 1) + endpoint_index(to)`.
    routes: Vec<Vec<LinkId>>,
    /// Precomputed `dtlist(l)` for every directed link, pairs in ascending
    /// `(i, j)` order.
    dtlists: Vec<Vec<(usize, usize)>>,
}

impl Topology {
    /// Builds the reference switch tree of Figure 3.3, truncated to
    /// `gpu_count` GPUs: host — SW1 — {SW2 — {GPU0, GPU1}, SW3 — {GPU2,
    /// GPU3}}. All links are PCIe class.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnsupportedShape`] if `gpu_count` is zero or
    /// greater than four.
    pub fn switch_tree(gpu_count: usize) -> Result<Self, TopologyError> {
        if !(1..=4).contains(&gpu_count) {
            return Err(TopologyError::UnsupportedShape(format!(
                "the reference switch tree hosts 1 to 4 GPUs, got {gpu_count}"
            )));
        }
        let mut t = TopologyBuilder::new();
        let host = t.host();
        let sw1 = t.switch(host);
        let sw2 = t.switch(sw1);
        let mut remaining = gpu_count;
        let first_half = remaining.min(2);
        for _ in 0..first_half {
            t.gpu(sw2);
        }
        remaining -= first_half;
        if remaining > 0 {
            let sw3 = t.switch(sw1);
            for _ in 0..remaining {
                t.gpu(sw3);
            }
        }
        t.finish()
    }

    /// Builds a flat topology where every GPU hangs directly off a single
    /// root switch (a symmetric interconnect, useful for ablations). All
    /// links are PCIe class.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnsupportedShape`] if `gpu_count` is zero.
    pub fn flat(gpu_count: usize) -> Result<Self, TopologyError> {
        if gpu_count == 0 {
            return Err(TopologyError::UnsupportedShape(
                "a flat topology needs at least one GPU".to_string(),
            ));
        }
        let mut t = TopologyBuilder::new();
        let host = t.host();
        let sw = t.switch(host);
        for _ in 0..gpu_count {
            t.gpu(sw);
        }
        t.finish()
    }

    /// Builds an NVLink-island box: `islands` switches behind one PCIe root
    /// switch, each island holding `gpus_per_island` GPUs attached by NVLink.
    /// Traffic inside an island crosses two NVLink hops; traffic between
    /// islands additionally crosses the PCIe fabric.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnsupportedShape`] if either count is zero.
    pub fn nvlink_islands(islands: usize, gpus_per_island: usize) -> Result<Self, TopologyError> {
        if islands == 0 || gpus_per_island == 0 {
            return Err(TopologyError::UnsupportedShape(format!(
                "an NVLink-island box needs at least one island and one GPU per island, \
                 got {islands} x {gpus_per_island}"
            )));
        }
        let mut t = TopologyBuilder::new();
        let host = t.host();
        let root = t.switch(host);
        for _ in 0..islands {
            let island = t.switch(root);
            for _ in 0..gpus_per_island {
                t.gpu_via(island, LinkClass::NvLink);
            }
        }
        t.finish()
    }

    /// Builds an `nodes`-node cluster: every node is a PCIe switch with
    /// `gpus_per_node` GPU leaves; node 0 holds the host, and every other
    /// node's switch attaches to node 0's switch over a network-class link.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnsupportedShape`] if either count is zero.
    pub fn cluster(nodes: usize, gpus_per_node: usize) -> Result<Self, TopologyError> {
        if nodes == 0 || gpus_per_node == 0 {
            return Err(TopologyError::UnsupportedShape(format!(
                "a cluster needs at least one node and one GPU per node, \
                 got {nodes} x {gpus_per_node}"
            )));
        }
        let mut t = TopologyBuilder::new();
        let host = t.host();
        let head = t.switch(host);
        for _ in 0..gpus_per_node {
            t.gpu(head);
        }
        for _ in 1..nodes {
            let remote = t.switch_via(head, LinkClass::Network);
            for _ in 0..gpus_per_node {
                t.gpu(remote);
            }
        }
        t.finish()
    }

    /// Number of GPUs (leaves).
    pub fn gpu_count(&self) -> usize {
        self.gpu_nodes.len()
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Iterates over all directed link ids.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.links.len()).map(LinkId)
    }

    /// The technology class of a link.
    pub fn link_class(&self, link: LinkId) -> LinkClass {
        self.links[link.0].class
    }

    /// Per-direction bandwidth of a link, in GB/s.
    pub fn link_bandwidth_gbs(&self, link: LinkId) -> f64 {
        self.links[link.0].bandwidth_gbs
    }

    /// Per-direction bandwidth of a link, in bytes per microsecond (the unit
    /// the cost models divide by).
    pub fn link_bytes_per_us(&self, link: LinkId) -> f64 {
        self.links[link.0].bandwidth_gbs * 1000.0
    }

    /// Per-hop latency of a link, in microseconds.
    pub fn link_latency_us(&self, link: LinkId) -> f64 {
        self.links[link.0].latency_us
    }

    /// A copy of this topology with every link's bandwidth and latency
    /// multiplied by the given factors — the knob robustness sweeps turn to
    /// perturb the calibrated interconnect model. A factor of exactly `1.0`
    /// leaves that parameter bit-identical (no multiplication is applied),
    /// and routing is untouched either way.
    ///
    /// # Panics
    ///
    /// Panics if either factor is not finite and positive.
    #[must_use]
    pub fn with_scaled_links(mut self, bandwidth_factor: f64, latency_factor: f64) -> Self {
        let valid = |factor: f64| factor.is_finite() && factor > 0.0;
        assert!(
            valid(bandwidth_factor) && valid(latency_factor),
            "link scale factors must be finite and positive: bandwidth {bandwidth_factor}, \
             latency {latency_factor}"
        );
        for link in &mut self.links {
            if bandwidth_factor != 1.0 {
                link.bandwidth_gbs *= bandwidth_factor;
            }
            if latency_factor != 1.0 {
                link.latency_us *= latency_factor;
            }
        }
        self
    }

    /// `true` if the link points towards the root.
    pub fn link_is_up(&self, link: LinkId) -> bool {
        self.links[link.0].up
    }

    /// The `(from, to)` tree nodes of a directed link (for tests and
    /// diagnostics).
    pub fn link_nodes(&self, link: LinkId) -> (usize, usize) {
        let l = &self.links[link.0];
        (l.from, l.to)
    }

    fn endpoint_node(&self, e: Endpoint) -> usize {
        match e {
            Endpoint::Host => 0,
            Endpoint::Gpu(g) => self.gpu_nodes[g],
        }
    }

    /// Index of an endpoint in the precomputed route table: host is 0, GPU
    /// `g` is `g + 1`.
    fn endpoint_index(&self, e: Endpoint) -> usize {
        match e {
            Endpoint::Host => 0,
            Endpoint::Gpu(g) => {
                assert!(g < self.gpu_count(), "GPU index {g} out of range");
                g + 1
            }
        }
    }

    fn path_to_root(&self, mut node: usize) -> Vec<usize> {
        let mut path = vec![node];
        while let Some(p) = self.parent[node] {
            path.push(p);
            node = p;
        }
        path
    }

    /// Returns the directed links traversed by a transfer from `from` to
    /// `to`, in traversal order (up-links to the lowest common ancestor, then
    /// down-links). Returns an empty route if source and destination
    /// coincide. This is an O(1) lookup into a table precomputed at build
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if a GPU index is out of range.
    pub fn route(&self, from: Endpoint, to: Endpoint) -> &[LinkId] {
        let stride = self.gpu_count() + 1;
        &self.routes[self.endpoint_index(from) * stride + self.endpoint_index(to)]
    }

    /// Computes a route by walking the tree (with linear `find_link` scans):
    /// how [`TopologyBuilder::finish`] fills the route table.
    fn route_scan(&self, from: Endpoint, to: Endpoint) -> Vec<LinkId> {
        let src = self.endpoint_node(from);
        let dst = self.endpoint_node(to);
        if src == dst {
            return Vec::new();
        }
        let up_path = self.path_to_root(src);
        let down_path = self.path_to_root(dst);
        // Find the lowest common ancestor.
        let lca = *up_path
            .iter()
            .find(|n| down_path.contains(n))
            .expect("tree has a common root");
        let mut route = Vec::new();
        // Up-links from src to the LCA.
        for w in up_path.iter().take_while(|&&n| n != lca) {
            let parent = self.parent[*w].expect("non-root node has a parent");
            route.push(self.find_link(*w, parent));
        }
        // Down-links from the LCA to dst (collect then reverse).
        let mut down = Vec::new();
        for w in down_path.iter().take_while(|&&n| n != lca) {
            let parent = self.parent[*w].expect("non-root node has a parent");
            down.push(self.find_link(parent, *w));
        }
        down.reverse();
        route.extend(down);
        route
    }

    fn find_link(&self, from: usize, to: usize) -> LinkId {
        LinkId(
            self.links
                .iter()
                .position(|l| l.from == from && l.to == to)
                .expect("adjacent nodes are linked"),
        )
    }

    /// The `dtlist(l)` of the ILP formulation: all ordered GPU pairs `(i, j)`
    /// whose peer-to-peer traffic crosses the given directed link, in
    /// ascending `(i, j)` order. This is an O(1) lookup into a table
    /// precomputed at build time.
    pub fn dtlist(&self, link: LinkId) -> &[(usize, usize)] {
        &self.dtlists[link.0]
    }

    /// Transfer time for `bytes` over one directed link, in microseconds:
    /// `latency + bytes / bandwidth` with that link's own parameters.
    pub fn link_transfer_us(&self, link: LinkId, bytes: f64) -> f64 {
        let l = &self.links[link.0];
        l.latency_us + bytes / (l.bandwidth_gbs * 1000.0)
    }
}

/// Incremental construction of a [`Topology`]: add the host first, then
/// switches and GPUs each attached to an existing parent node, then call
/// [`TopologyBuilder::finish`] to validate the tree and precompute the
/// routing tables.
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    kinds: Vec<NodeKind>,
    parent: Vec<Option<usize>>,
    gpu_nodes: Vec<usize>,
    /// `edges[n]` is the class of the link between node `n` and its parent.
    edges: Vec<Option<LinkClass>>,
}

impl TopologyBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        TopologyBuilder::default()
    }

    /// Adds the host as the tree root and returns its node id (always 0).
    ///
    /// # Panics
    ///
    /// Panics if any node was added before the host.
    pub fn host(&mut self) -> usize {
        assert!(self.kinds.is_empty(), "host must be the first node");
        self.kinds.push(NodeKind::Host);
        self.parent.push(None);
        self.edges.push(None);
        0
    }

    /// Adds a switch under `parent`, connected by a PCIe-class link.
    pub fn switch(&mut self, parent: usize) -> usize {
        self.switch_via(parent, LinkClass::Pcie)
    }

    /// Adds a switch under `parent`, connected by a link of the given class
    /// (with the class's default bandwidth and latency).
    pub fn switch_via(&mut self, parent: usize, class: LinkClass) -> usize {
        self.add_node(NodeKind::Switch, parent, class)
    }

    /// Adds a GPU leaf under `parent`, connected by a PCIe-class link.
    pub fn gpu(&mut self, parent: usize) -> usize {
        self.gpu_via(parent, LinkClass::Pcie)
    }

    /// Adds a GPU leaf under `parent`, connected by a link of the given class
    /// (with the class's default bandwidth and latency).
    pub fn gpu_via(&mut self, parent: usize, class: LinkClass) -> usize {
        let gpu_index = self.gpu_nodes.len();
        let id = self.add_node(NodeKind::Gpu(gpu_index), parent, class);
        self.gpu_nodes.push(id);
        id
    }

    fn add_node(&mut self, kind: NodeKind, parent: usize, class: LinkClass) -> usize {
        assert!(parent < self.kinds.len(), "parent node does not exist");
        assert!(
            !matches!(self.kinds[parent], NodeKind::Gpu(_)),
            "GPUs are leaves"
        );
        let id = self.kinds.len();
        self.kinds.push(kind);
        self.parent.push(Some(parent));
        self.edges.push(Some(class));
        id
    }

    /// Validates the tree and precomputes the routing and `dtlist` tables.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::NoGpus`] if the tree has no GPU leaves.
    pub fn finish(self) -> Result<Topology, TopologyError> {
        if self.gpu_nodes.is_empty() {
            return Err(TopologyError::NoGpus);
        }
        let mut links = Vec::new();
        for (node, parent) in self.parent.iter().enumerate() {
            if let Some(p) = parent {
                let class = self.edges[node].expect("non-root node has an edge");
                for (from, to, up) in [(node, *p, true), (*p, node, false)] {
                    links.push(Link {
                        from,
                        to,
                        up,
                        class,
                        bandwidth_gbs: class.default_bandwidth_gbs(),
                        latency_us: class.default_latency_us(),
                    });
                }
            }
        }
        let mut topo = Topology {
            kinds: self.kinds,
            parent: self.parent,
            links,
            gpu_nodes: self.gpu_nodes,
            routes: Vec::new(),
            dtlists: Vec::new(),
        };
        // Precompute the route table for every ordered endpoint pair (host is
        // endpoint index 0, GPU g is g + 1) ...
        let g = topo.gpu_count();
        let endpoint = |idx: usize| -> Endpoint {
            if idx == 0 {
                Endpoint::Host
            } else {
                Endpoint::Gpu(idx - 1)
            }
        };
        let mut routes = Vec::with_capacity((g + 1) * (g + 1));
        for from in 0..=g {
            for to in 0..=g {
                routes.push(topo.route_scan(endpoint(from), endpoint(to)));
            }
        }
        // ... and invert the GPU-to-GPU routes into per-link dtlists. Pairs
        // land in ascending (i, j) order because the loops ascend.
        let mut dtlists = vec![Vec::new(); topo.links.len()];
        for i in 0..g {
            for j in 0..g {
                if i == j {
                    continue;
                }
                for link in &routes[(i + 1) * (g + 1) + (j + 1)] {
                    dtlists[link.index()].push((i, j));
                }
            }
        }
        topo.routes = routes;
        topo.dtlists = dtlists;
        Ok(topo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Store-and-forward time for `bytes` over every hop of a route.
    fn route_us(t: &Topology, from: Endpoint, to: Endpoint, bytes: f64) -> f64 {
        t.route(from, to)
            .iter()
            .map(|&l| t.link_transfer_us(l, bytes))
            .sum()
    }

    #[test]
    fn four_gpu_tree_matches_figure_3_3() {
        let t = Topology::switch_tree(4).unwrap();
        assert_eq!(t.gpu_count(), 4);
        // Nodes: host, sw1, sw2, gpu0, gpu1, sw3, gpu2, gpu3 -> 7 edges, 14
        // directed links.
        assert_eq!(t.link_count(), 14);
        // GPU0 -> GPU1 shares SW2: 2 links. GPU1 -> GPU2 crosses SW1: 4 links.
        assert_eq!(t.route(Endpoint::Gpu(0), Endpoint::Gpu(1)).len(), 2);
        assert_eq!(t.route(Endpoint::Gpu(1), Endpoint::Gpu(2)).len(), 4);
        // Host -> GPU0 goes host->sw1->sw2->gpu0: 3 links.
        assert_eq!(t.route(Endpoint::Host, Endpoint::Gpu(0)).len(), 3);
        assert!(t.route(Endpoint::Gpu(2), Endpoint::Gpu(2)).is_empty());
        // All reference links are PCIe class with the default parameters.
        for l in t.link_ids() {
            assert_eq!(t.link_class(l), LinkClass::Pcie);
            assert_eq!(t.link_bandwidth_gbs(l), DEFAULT_LINK_BANDWIDTH_GBS);
            assert_eq!(t.link_latency_us(l), DEFAULT_LINK_LATENCY_US);
        }
    }

    #[test]
    fn dtlist_matches_the_paper_example() {
        // "the link SW2 -> SW1 will be used only by the communication between
        //  these GPUs: (1,3), (1,4), (2,3), (2,4)" — with 1-based GPU ids.
        let t = Topology::switch_tree(4).unwrap();
        // Find the up-link whose dtlist is {(0,2),(0,3),(1,2),(1,3)} 0-based.
        let expected = vec![(0, 2), (0, 3), (1, 2), (1, 3)];
        let found = t.link_ids().any(|l| t.dtlist(l) == expected);
        assert!(found, "no link carries exactly the SW2->SW1 traffic");
    }

    #[test]
    fn dtlist_is_empty_for_leaf_links_of_other_gpus() {
        let t = Topology::switch_tree(2).unwrap();
        // Total pair-link incidences: each of the 2 ordered pairs uses 2
        // links.
        let total: usize = t.link_ids().map(|l| t.dtlist(l).len()).sum();
        assert_eq!(total, 2 * 2);
    }

    #[test]
    fn memoized_tables_match_the_scan_algorithms() {
        for t in [
            Topology::switch_tree(4).unwrap(),
            Topology::flat(3).unwrap(),
            Topology::nvlink_islands(2, 4).unwrap(),
            Topology::cluster(2, 4).unwrap(),
        ] {
            let g = t.gpu_count();
            for i in 0..g {
                for j in 0..g {
                    assert_eq!(
                        t.route(Endpoint::Gpu(i), Endpoint::Gpu(j)),
                        t.route_scan(Endpoint::Gpu(i), Endpoint::Gpu(j)).as_slice()
                    );
                }
                assert_eq!(
                    t.route(Endpoint::Host, Endpoint::Gpu(i)),
                    t.route_scan(Endpoint::Host, Endpoint::Gpu(i)).as_slice()
                );
                assert_eq!(
                    t.route(Endpoint::Gpu(i), Endpoint::Host),
                    t.route_scan(Endpoint::Gpu(i), Endpoint::Host).as_slice()
                );
            }
            for l in t.link_ids() {
                let scan: Vec<(usize, usize)> = (0..g)
                    .flat_map(|i| (0..g).map(move |j| (i, j)))
                    .filter(|&(i, j)| t.route(Endpoint::Gpu(i), Endpoint::Gpu(j)).contains(&l))
                    .collect();
                assert_eq!(t.dtlist(l), scan.as_slice());
            }
        }
    }

    #[test]
    fn transfer_times_scale_with_bytes_and_hops() {
        let t = Topology::switch_tree(4).unwrap();
        let link = t.link_ids().next().unwrap();
        let one_hop = t.link_transfer_us(link, 6_000_000.0);
        assert!((one_hop - (DEFAULT_LINK_LATENCY_US + 1000.0)).abs() < 1e-9);
        let p2p_far = route_us(&t, Endpoint::Gpu(0), Endpoint::Gpu(3), 6_000_000.0);
        let p2p_near = route_us(&t, Endpoint::Gpu(0), Endpoint::Gpu(1), 6_000_000.0);
        assert!(p2p_far > p2p_near);
        assert!((p2p_far / p2p_near - 2.0).abs() < 1e-9);
    }

    #[test]
    fn flat_topology_is_symmetric() {
        let t = Topology::flat(3).unwrap();
        assert_eq!(t.gpu_count(), 3);
        let a = t.route(Endpoint::Gpu(0), Endpoint::Gpu(1)).len();
        let b = t.route(Endpoint::Gpu(0), Endpoint::Gpu(2)).len();
        assert_eq!(a, b);
    }

    #[test]
    fn oversized_switch_tree_is_an_error_not_a_panic() {
        let err = Topology::switch_tree(9).unwrap_err();
        assert!(err.to_string().contains("1 to 4 GPUs"), "{err}");
        assert!(Topology::switch_tree(0).is_err());
        assert!(Topology::flat(0).is_err());
        assert!(Topology::nvlink_islands(0, 2).is_err());
        assert!(Topology::cluster(2, 0).is_err());
    }

    #[test]
    fn nvlink_islands_mix_link_classes() {
        let t = Topology::nvlink_islands(2, 4).unwrap();
        assert_eq!(t.gpu_count(), 8);
        // Intra-island: two NVLink hops.
        let near = t.route(Endpoint::Gpu(0), Endpoint::Gpu(1));
        assert_eq!(near.len(), 2);
        assert!(near.iter().all(|&l| t.link_class(l) == LinkClass::NvLink));
        // Cross-island: NVLink up, PCIe across, NVLink down.
        let far: Vec<LinkClass> = t
            .route(Endpoint::Gpu(0), Endpoint::Gpu(4))
            .iter()
            .map(|&l| t.link_class(l))
            .collect();
        assert_eq!(
            far,
            vec![
                LinkClass::NvLink,
                LinkClass::Pcie,
                LinkClass::Pcie,
                LinkClass::NvLink
            ]
        );
        // NVLink hops are faster than PCIe hops for the same payload.
        let nv = t.link_transfer_us(near[0], 1_000_000.0);
        let pcie_link = t
            .link_ids()
            .find(|&l| t.link_class(l) == LinkClass::Pcie)
            .unwrap();
        let pcie = t.link_transfer_us(pcie_link, 1_000_000.0);
        assert!(nv < pcie);
    }

    #[test]
    fn cluster_crosses_a_network_link_between_nodes() {
        let t = Topology::cluster(2, 4).unwrap();
        assert_eq!(t.gpu_count(), 8);
        // Intra-node traffic never touches the network.
        let near = t.route(Endpoint::Gpu(0), Endpoint::Gpu(3));
        assert!(near.iter().all(|&l| t.link_class(l) == LinkClass::Pcie));
        // Inter-node traffic crosses exactly one network hop.
        let far = t.route(Endpoint::Gpu(0), Endpoint::Gpu(4));
        let network_hops = far
            .iter()
            .filter(|&&l| t.link_class(l) == LinkClass::Network)
            .count();
        assert_eq!(network_hops, 1);
        // The network hop dominates the transfer time.
        let inter = route_us(&t, Endpoint::Gpu(0), Endpoint::Gpu(4), 1_000_000.0);
        let intra = route_us(&t, Endpoint::Gpu(0), Endpoint::Gpu(3), 1_000_000.0);
        assert!(inter > 3.0 * intra);
    }

    #[test]
    fn empty_tree_is_an_error() {
        let mut b = TopologyBuilder::new();
        b.host();
        assert_eq!(b.finish().unwrap_err(), TopologyError::NoGpus);
    }
}
