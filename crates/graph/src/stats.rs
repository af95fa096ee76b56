//! Graph composition statistics.
//!
//! The paper's evaluation reports graph sizes and density continuously
//! (Table VIII's #N/#E, §V-F1's "most sparse graph with an average of
//! four edges per node", "IMDb graph is the biggest…"). This module
//! computes those numbers for a frozen graph, so experiments and the CLI
//! can print them without ad-hoc counting.

use crate::csr::CsrGraph;
use crate::edge::EdgeKind;
use crate::node::NodeKind;
use crate::traverse::connected_components;

/// A composition summary of one graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Live nodes.
    pub nodes: usize,
    /// Live undirected edges.
    pub edges: usize,
    /// Term (data) nodes.
    pub data_nodes: usize,
    /// Nodes added by expansion.
    pub external_nodes: usize,
    /// Metadata nodes (tuples, attributes, documents, taxonomy).
    pub meta_nodes: usize,
    /// Edge counts per [`EdgeKind`], indexed by [`EdgeKind::index`].
    pub edges_by_kind: [usize; EdgeKind::ALL.len()],
    /// Mean degree over live nodes (`2·|E| / |V|`).
    pub mean_degree: f64,
    /// Maximum degree.
    pub max_degree: usize,
    /// Number of connected components.
    pub components: usize,
    /// Size of the largest component.
    pub largest_component: usize,
}

impl GraphStats {
    /// Computes statistics for `g`. Cost: `O(|V| + |E|)`.
    pub fn of(g: &CsrGraph) -> Self {
        let mut data_nodes = 0usize;
        let mut external_nodes = 0usize;
        let mut meta_nodes = 0usize;
        let mut max_degree = 0usize;
        for n in g.nodes() {
            match g.kind(n) {
                NodeKind::Data => data_nodes += 1,
                NodeKind::External => external_nodes += 1,
                NodeKind::Meta { .. } => meta_nodes += 1,
            }
            max_degree = max_degree.max(g.degree(n));
        }
        let comps = connected_components(g);
        let nodes = g.node_count();
        let edges = g.edge_count();
        Self {
            nodes,
            edges,
            data_nodes,
            external_nodes,
            meta_nodes,
            edges_by_kind: g.edge_kind_histogram(),
            mean_degree: if nodes == 0 {
                0.0
            } else {
                2.0 * edges as f64 / nodes as f64
            },
            max_degree,
            components: comps.len(),
            largest_component: comps.iter().map(|c| c.len()).max().unwrap_or(0),
        }
    }

    /// True when every live node is reachable from every other (or the
    /// graph is empty) — the state MSP compression must preserve for
    /// metadata nodes.
    pub fn is_connected(&self) -> bool {
        self.components <= 1
    }
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} nodes ({} data, {} external, {} metadata), {} edges",
            self.nodes, self.data_nodes, self.external_nodes, self.meta_nodes, self.edges
        )?;
        write!(f, "edges by kind:")?;
        for kind in EdgeKind::ALL {
            let count = self.edges_by_kind[kind.index()];
            if count > 0 {
                write!(f, " {kind}={count}")?;
            }
        }
        writeln!(f)?;
        write!(
            f,
            "degree mean {:.2} max {}; {} component(s), largest {}",
            self.mean_degree, self.max_degree, self.components, self.largest_component
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::node::{CorpusSide, MetaKind};

    fn stats(g: &Graph) -> GraphStats {
        GraphStats::of(&CsrGraph::from_graph(g))
    }

    fn sample() -> Graph {
        let mut g = Graph::new();
        let t = g.add_meta("t0", CorpusSide::First, MetaKind::Tuple, 0);
        let p = g.add_meta("p0", CorpusSide::Second, MetaKind::TextDoc, 0);
        let w = g.intern_data("willis");
        let x = g.intern_external("pulp");
        g.add_edge_typed(t, w, EdgeKind::Contains);
        g.add_edge_typed(p, w, EdgeKind::Contains);
        g.add_edge_typed(w, x, EdgeKind::External);
        // An isolated data node makes a second component.
        g.intern_data("island");
        g
    }

    #[test]
    fn counts_by_node_and_edge_kind() {
        let s = stats(&sample());
        assert_eq!(s.nodes, 5);
        assert_eq!(s.edges, 3);
        assert_eq!(s.data_nodes, 2);
        assert_eq!(s.external_nodes, 1);
        assert_eq!(s.meta_nodes, 2);
        assert_eq!(s.edges_by_kind[EdgeKind::Contains.index()], 2);
        assert_eq!(s.edges_by_kind[EdgeKind::External.index()], 1);
    }

    #[test]
    fn degree_and_component_stats() {
        let s = stats(&sample());
        assert_eq!(s.max_degree, 3); // "willis" touches t, p, pulp
        assert!((s.mean_degree - 6.0 / 5.0).abs() < 1e-12);
        assert_eq!(s.components, 2);
        assert_eq!(s.largest_component, 4);
        assert!(!s.is_connected());
    }

    #[test]
    fn empty_graph_stats_are_zero() {
        let s = stats(&Graph::new());
        assert_eq!(s.nodes, 0);
        assert_eq!(s.mean_degree, 0.0);
        assert_eq!(s.components, 0);
        assert!(s.is_connected());
    }

    #[test]
    fn display_mentions_all_sections() {
        let text = stats(&sample()).to_string();
        assert!(text.contains("5 nodes"));
        assert!(text.contains("contains=2"));
        assert!(text.contains("external=1"));
        assert!(text.contains("component"));
    }

    #[test]
    fn stats_track_removal() {
        let mut g = sample();
        let island = g.data_node("island").unwrap();
        g.remove_node(island);
        let s = stats(&g);
        assert_eq!(s.nodes, 4);
        assert_eq!(s.components, 1);
        assert!(s.is_connected());
    }
}
