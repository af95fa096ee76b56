//! Property-based tests for the graph substrate.

use proptest::prelude::*;

use tdmatch_graph::traverse::{all_shortest_paths, bfs_distances, connected_components, shortest_path_len};
use tdmatch_graph::{CorpusSide, CsrGraph, EdgeKind, Graph, MetaKind, NodeId, NodeKind};

/// Builds a graph from `n` nodes and arbitrary edge pairs (mod n).
fn build(n: usize, edges: &[(usize, usize)]) -> Graph {
    let mut g = Graph::new();
    let ids: Vec<NodeId> = (0..n).map(|i| g.intern_data(&format!("n{i}"))).collect();
    for &(a, b) in edges {
        g.add_edge(ids[a % n], ids[b % n]);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Edge count equals the number of distinct undirected pairs.
    #[test]
    fn edge_count_matches_distinct_pairs(
        n in 2usize..20,
        edges in prop::collection::vec((0usize..20, 0usize..20), 0..60),
    ) {
        let g = build(n, &edges);
        let mut set = std::collections::HashSet::new();
        for &(a, b) in &edges {
            let (a, b) = (a % n, b % n);
            if a != b {
                set.insert((a.min(b), a.max(b)));
            }
        }
        prop_assert_eq!(g.edge_count(), set.len());
        prop_assert_eq!(g.edges().count(), set.len());
    }

    /// Adjacency is symmetric.
    #[test]
    fn adjacency_is_symmetric(
        n in 2usize..15,
        edges in prop::collection::vec((0usize..15, 0usize..15), 0..40),
    ) {
        let g = build(n, &edges);
        for a in g.nodes() {
            for &b in g.neighbors(a) {
                prop_assert!(g.neighbors(b).contains(&a));
            }
        }
    }

    /// BFS distances satisfy the triangle property along edges:
    /// |d(u) − d(v)| ≤ 1 for every edge (u, v) reachable from the source.
    #[test]
    fn bfs_distances_are_lipschitz(
        n in 2usize..15,
        edges in prop::collection::vec((0usize..15, 0usize..15), 0..40),
    ) {
        let g = build(n, &edges);
        let start = g.nodes().next().unwrap();
        let dist = bfs_distances(&g, start);
        for (a, b) in g.edges() {
            let (da, db) = (dist[a.index()], dist[b.index()]);
            if da != u32::MAX && db != u32::MAX {
                prop_assert!(da.abs_diff(db) <= 1, "edge ({a},{b}): {da} vs {db}");
            } else {
                prop_assert_eq!(da, db, "one endpoint reachable, the other not");
            }
        }
    }

    /// Every enumerated shortest path has the BFS-optimal length and is a
    /// valid edge sequence.
    #[test]
    fn enumerated_paths_are_shortest(
        n in 2usize..12,
        edges in prop::collection::vec((0usize..12, 0usize..12), 1..40),
        pick in (0usize..12, 0usize..12),
    ) {
        let g = build(n, &edges);
        let a = NodeId((pick.0 % n) as u32);
        let b = NodeId((pick.1 % n) as u32);
        let paths = all_shortest_paths(&g, a, b, 32);
        match shortest_path_len(&g, a, b) {
            None => prop_assert!(paths.is_empty()),
            Some(len) => {
                prop_assert!(!paths.is_empty());
                for p in &paths {
                    prop_assert_eq!(p.len() as u32, len + 1);
                    prop_assert_eq!(p[0], a);
                    prop_assert_eq!(*p.last().unwrap(), b);
                    for w in p.windows(2) {
                        prop_assert!(g.has_edge(w[0], w[1]));
                    }
                }
            }
        }
    }

    /// Components partition the live nodes.
    #[test]
    fn components_partition(
        n in 1usize..15,
        edges in prop::collection::vec((0usize..15, 0usize..15), 0..30),
    ) {
        let g = build(n, &edges);
        let comps = connected_components(&CsrGraph::from_graph(&g));
        let total: usize = comps.iter().map(|c| c.len()).sum();
        prop_assert_eq!(total, g.node_count());
        let mut seen = std::collections::HashSet::new();
        for c in &comps {
            for &x in c {
                prop_assert!(seen.insert(x), "node in two components");
            }
        }
    }

    /// Removing a node never leaves dangling adjacency entries.
    #[test]
    fn removal_is_clean(
        n in 2usize..12,
        edges in prop::collection::vec((0usize..12, 0usize..12), 0..30),
        victim in 0usize..12,
    ) {
        let mut g = build(n, &edges);
        let v = NodeId((victim % n) as u32);
        g.remove_node(v);
        for a in g.nodes() {
            prop_assert!(!g.neighbors(a).contains(&v));
        }
        prop_assert_eq!(g.edges().count(), g.edge_count());
    }

    /// Under an arbitrary sequence of typed edge insertions and node
    /// removals, the adjacency and edge-kind tables stay parallel and the
    /// kind reported from both endpoints agrees.
    #[test]
    fn edge_kinds_stay_consistent_under_edits(
        n in 2usize..12,
        ops in prop::collection::vec(
            // (op, a, b, kind index): op 0..=3 add edge, 4 remove node.
            (0u8..5, 0usize..12, 0usize..12, 0usize..5),
            1..60,
        ),
    ) {
        let mut g = Graph::new();
        let ids: Vec<NodeId> = (0..n).map(|i| g.intern_data(&format!("n{i}"))).collect();
        for &(op, a, b, k) in &ops {
            let (a, b) = (ids[a % n], ids[b % n]);
            if op < 4 {
                g.add_edge_typed(a, b, EdgeKind::ALL[k]);
            } else {
                g.remove_node(a);
            }
        }
        let mut live_edges = 0usize;
        for u in g.nodes() {
            prop_assert_eq!(g.neighbors(u).len(), g.neighbor_kinds(u).len());
            for (&v, &kind) in g.neighbors(u).iter().zip(g.neighbor_kinds(u)) {
                prop_assert!(!g.is_removed(v), "edge to removed node");
                prop_assert_eq!(g.edge_kind(u, v), Some(kind));
                prop_assert_eq!(g.edge_kind(v, u), Some(kind));
                live_edges += 1;
            }
        }
        prop_assert_eq!(live_edges, 2 * g.edge_count());
        let hist = CsrGraph::from_graph(&g).edge_kind_histogram();
        prop_assert_eq!(hist.iter().sum::<usize>(), g.edge_count());
    }

    /// Merging preserves the union of neighborhoods (minus the pair).
    #[test]
    fn merge_preserves_neighbors(
        n in 3usize..12,
        edges in prop::collection::vec((0usize..12, 0usize..12), 0..30),
    ) {
        let mut g = build(n, &edges);
        let keep = NodeId(0);
        let remove = NodeId(1);
        let mut expected: std::collections::HashSet<NodeId> = g
            .neighbors(keep)
            .iter()
            .chain(g.neighbors(remove))
            .copied()
            .filter(|&x| x != keep && x != remove)
            .collect();
        g.merge_nodes(keep, remove);
        let actual: std::collections::HashSet<NodeId> =
            g.neighbors(keep).iter().copied().collect();
        expected.remove(&remove);
        prop_assert_eq!(actual, expected);
    }

    /// Saving any graph and loading it back preserves node labels, kinds,
    /// degrees, and edge kinds — and the loaded adjacency *order* is that
    /// of the source replayed under the dense renumbering: live nodes in
    /// ascending id order, then `edges_with_kinds()` in order. Walks pick
    /// neighbours by position, so this order is what makes a resumed fit
    /// a function of the saved graph alone.
    #[test]
    fn graph_snapshot_roundtrip_preserves_structure_and_order(
        n in 1usize..12,
        edges in prop::collection::vec((0usize..12, 0usize..12, 0usize..5), 0..40),
        removals in prop::collection::vec(0usize..12, 0..4),
    ) {
        let mut g = Graph::new();
        let ids: Vec<NodeId> = (0..n)
            .map(|i| match i % 3 {
                0 => g.add_meta(&format!("n{i}"), CorpusSide::First, MetaKind::Tuple, i as u32),
                1 => g.intern_external(&format!("n{i}")),
                _ => g.intern_data(&format!("n{i}")),
            })
            .collect();
        for &(a, b, k) in &edges {
            g.add_edge_typed(ids[a % n], ids[b % n], EdgeKind::ALL[k]);
        }
        for &r in &removals {
            g.remove_node(ids[r % n]);
        }
        let path = std::env::temp_dir()
            .join(format!("tdmatch-graph-prop-{}.tdz", std::process::id()));
        g.save_snapshot(&path).unwrap();
        let h = Graph::load_snapshot(&path);
        std::fs::remove_file(&path).ok();
        let h = h.unwrap();

        let find = |x: &Graph, label: &str, kind: NodeKind| match kind {
            NodeKind::Meta { .. } => x.meta_node(label),
            _ => x.data_node(label),
        };
        prop_assert_eq!(g.node_count(), h.node_count());
        prop_assert_eq!(g.edge_count(), h.edge_count());
        prop_assert_eq!(h.id_bound(), h.node_count(), "loaded ids are dense");
        for u in g.nodes() {
            let hu = find(&h, g.label(u), g.kind(u)).expect("node survives");
            prop_assert_eq!(g.kind(u), h.kind(hu));
            prop_assert_eq!(g.degree(u), h.degree(hu));
            for (&v, &kind) in g.neighbors(u).iter().zip(g.neighbor_kinds(u)) {
                let hv = find(&h, g.label(v), g.kind(v)).unwrap();
                prop_assert_eq!(h.edge_kind(hu, hv), Some(kind));
            }
        }

        // The oracle: replay the source under the dense renumbering.
        let mut replay = Graph::new();
        let mut dense = vec![None; g.id_bound()];
        for u in g.nodes() {
            dense[u.index()] = Some(match g.kind(u) {
                NodeKind::Data => replay.intern_data(g.label(u)),
                NodeKind::External => replay.intern_external(g.label(u)),
                NodeKind::Meta { side, kind, index } => {
                    replay.add_meta(g.label(u), side, kind, index)
                }
            });
        }
        for (a, b, kind) in g.edges_with_kinds() {
            replay.add_edge_typed(dense[a.index()].unwrap(), dense[b.index()].unwrap(), kind);
        }
        for u in replay.nodes() {
            prop_assert_eq!(replay.label(u), h.label(u));
            prop_assert_eq!(replay.neighbors(u), h.neighbors(u));
            prop_assert_eq!(replay.neighbor_kinds(u), h.neighbor_kinds(u));
        }
    }
}
