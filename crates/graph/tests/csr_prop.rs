//! Property tests pinning the [`CsrGraph`] snapshot to its source
//! [`Graph`], edge for edge. The walks over the snapshot are held to a
//! serial reference over the source graph in `tdmatch-embed`'s
//! `tests/flat_prop.rs`.

use proptest::prelude::*;

use tdmatch_graph::{CsrGraph, EdgeKind, Graph, NodeId};

/// Builds a graph from arbitrary typed edge pairs (mod `n`), optionally
/// tombstoning some nodes afterwards.
fn build(n: usize, edges: &[(usize, usize, u8)], removals: &[usize]) -> Graph {
    let mut g = Graph::new();
    let ids: Vec<NodeId> = (0..n).map(|i| g.intern_data(&format!("n{i}"))).collect();
    for &(a, b, k) in edges {
        let kind = EdgeKind::ALL[k as usize % EdgeKind::ALL.len()];
        g.add_edge_typed(ids[a % n], ids[b % n], kind);
    }
    for &r in removals {
        g.remove_node(ids[r % n]);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The snapshot reproduces neighbors, kinds, degrees, node kinds,
    /// liveness, and the edge relation exactly.
    #[test]
    fn snapshot_is_edge_for_edge_equivalent(
        n in 2usize..16,
        edges in prop::collection::vec((0usize..16, 0usize..16, 0u8..8), 0..50),
        removals in prop::collection::vec(0usize..16, 0..4),
    ) {
        let g = build(n, &edges, &removals);
        let csr = CsrGraph::from_graph(&g);

        prop_assert_eq!(csr.id_bound(), g.id_bound());
        prop_assert_eq!(csr.node_count(), g.node_count());
        prop_assert_eq!(csr.edge_count(), g.edge_count());
        prop_assert_eq!(
            csr.nodes().collect::<Vec<_>>(),
            g.nodes().collect::<Vec<_>>()
        );
        for id in 0..g.id_bound() as u32 {
            let id = NodeId(id);
            prop_assert_eq!(csr.is_removed(id), g.is_removed(id));
            prop_assert_eq!(csr.kind(id), g.kind(id));
            prop_assert_eq!(csr.degree(id), g.degree(id));
            prop_assert_eq!(csr.neighbors(id), g.neighbors(id));
            prop_assert_eq!(csr.neighbor_kinds(id), g.neighbor_kinds(id));
        }
        for a in 0..g.id_bound() as u32 {
            for b in 0..g.id_bound() as u32 {
                let (a, b) = (NodeId(a), NodeId(b));
                prop_assert_eq!(csr.has_edge(a, b), g.has_edge(a, b));
                prop_assert_eq!(csr.edge_kind(a, b), g.edge_kind(a, b));
            }
        }
    }
}
