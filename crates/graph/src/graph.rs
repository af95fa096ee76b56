//! The undirected graph with label interning and tombstone removal.

use std::collections::{HashMap, HashSet};

use crate::edge::EdgeKind;
use crate::node::{CorpusSide, MetaKind, NodeId, NodeKind};

/// Packs an undirected pair into one key (smaller id in the high half),
/// for the O(1) edge-membership set.
#[inline]
fn edge_key(a: NodeId, b: NodeId) -> u64 {
    let (lo, hi) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
    ((lo as u64) << 32) | hi as u64
}

/// An undirected, unweighted graph over data and metadata nodes.
///
/// * Data nodes are interned by label: adding the same term twice yields the
///   same [`NodeId`] (§II: "If a term is contained in multiple documents
///   across the corpora, it still appears as a single node").
/// * Metadata nodes carry a unique label (e.g. `t1`, `p3`) plus their
///   [`NodeKind`].
/// * Edges are deduplicated, carry an [`EdgeKind`] label (the typed-edge
///   extension from the paper's future work), and self-loops are rejected.
/// * Node removal (needed by expansion's sink-cleanup and by compression)
///   uses tombstones: ids of removed nodes are never reused, and iteration
///   skips them.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    labels: Vec<String>,
    kinds: Vec<NodeKind>,
    adj: Vec<Vec<NodeId>>,
    /// Edge kinds, parallel to `adj`: `akind[u][i]` labels the edge
    /// `u — adj[u][i]`. Every mutation of `adj` mirrors into `akind`.
    akind: Vec<Vec<EdgeKind>>,
    removed: Vec<bool>,
    /// label → id for data/external nodes (the interning table).
    data_index: HashMap<String, NodeId>,
    /// label → id for metadata nodes (kept separate: a metadata label may
    /// coincide with a term).
    meta_index: HashMap<String, NodeId>,
    /// Packed undirected pairs of every live edge. Makes the duplicate
    /// probe in [`add_edge_typed`](Graph::add_edge_typed) and
    /// [`has_edge`](Graph::has_edge) O(1): the old adjacency-list
    /// `contains` scan made construction quadratic around hub terms.
    edge_set: HashSet<u64>,
    edge_count: usize,
    live_nodes: usize,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with room for `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> Self {
        Self {
            labels: Vec::with_capacity(nodes),
            kinds: Vec::with_capacity(nodes),
            adj: Vec::with_capacity(nodes),
            akind: Vec::with_capacity(nodes),
            removed: Vec::with_capacity(nodes),
            data_index: HashMap::with_capacity(nodes),
            meta_index: HashMap::new(),
            edge_set: HashSet::new(),
            edge_count: 0,
            live_nodes: 0,
        }
    }

    fn push_node(&mut self, label: String, kind: NodeKind) -> NodeId {
        let id = NodeId(self.labels.len() as u32);
        self.labels.push(label);
        self.kinds.push(kind);
        self.adj.push(Vec::new());
        self.akind.push(Vec::new());
        self.removed.push(false);
        self.live_nodes += 1;
        id
    }

    /// Interns a data node: returns the existing id for `label` or creates a
    /// new node. Revives a tombstoned node if its id is still in the index.
    pub fn intern_data(&mut self, label: &str) -> NodeId {
        if let Some(&id) = self.data_index.get(label) {
            if self.removed[id.index()] {
                self.removed[id.index()] = false;
                self.live_nodes += 1;
            }
            return id;
        }
        let id = self.push_node(label.to_string(), NodeKind::Data);
        self.data_index.insert(label.to_string(), id);
        id
    }

    /// Interns a node created by graph expansion (external resource).
    /// If the label already exists as a data node, that node is returned —
    /// external information attaches to the existing term.
    pub fn intern_external(&mut self, label: &str) -> NodeId {
        if let Some(&id) = self.data_index.get(label) {
            if self.removed[id.index()] {
                self.removed[id.index()] = false;
                self.live_nodes += 1;
            }
            return id;
        }
        let id = self.push_node(label.to_string(), NodeKind::External);
        self.data_index.insert(label.to_string(), id);
        id
    }

    /// Adds a metadata node. Labels must be unique among metadata nodes;
    /// adding a duplicate label returns the existing node.
    pub fn add_meta(&mut self, label: &str, side: CorpusSide, kind: MetaKind, index: u32) -> NodeId {
        if let Some(&id) = self.meta_index.get(label) {
            return id;
        }
        let id = self.push_node(
            label.to_string(),
            NodeKind::Meta { side, kind, index },
        );
        self.meta_index.insert(label.to_string(), id);
        id
    }

    /// Looks up a data/external node by label (live nodes only).
    pub fn data_node(&self, label: &str) -> Option<NodeId> {
        self.data_index
            .get(label)
            .copied()
            .filter(|id| !self.removed[id.index()])
    }

    /// Looks up a metadata node by label (live nodes only).
    pub fn meta_node(&self, label: &str) -> Option<NodeId> {
        self.meta_index
            .get(label)
            .copied()
            .filter(|id| !self.removed[id.index()])
    }

    /// Adds an undirected edge with the default [`EdgeKind::Generic`]
    /// label. Returns `true` if the edge is new; rejects self-loops and
    /// edges to removed nodes (returns `false`).
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        self.add_edge_typed(a, b, EdgeKind::Generic)
    }

    /// Adds an undirected edge carrying `kind`. Returns `true` if the edge
    /// is new; rejects self-loops, duplicates (the existing kind wins), and
    /// edges to removed nodes.
    pub fn add_edge_typed(&mut self, a: NodeId, b: NodeId, kind: EdgeKind) -> bool {
        if a == b || self.removed[a.index()] || self.removed[b.index()] {
            return false;
        }
        // O(1) duplicate probe; `insert` also registers the new edge.
        if !self.edge_set.insert(edge_key(a, b)) {
            return false;
        }
        self.adj[a.index()].push(b);
        self.akind[a.index()].push(kind);
        self.adj[b.index()].push(a);
        self.akind[b.index()].push(kind);
        self.edge_count += 1;
        true
    }

    /// True if the undirected edge `{a, b}` exists (O(1)).
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        !self.removed[a.index()]
            && !self.removed[b.index()]
            && self.edge_set.contains(&edge_key(a, b))
    }

    /// Removes a node and all its incident edges.
    pub fn remove_node(&mut self, id: NodeId) {
        if self.removed[id.index()] {
            return;
        }
        let neighbors = std::mem::take(&mut self.adj[id.index()]);
        self.akind[id.index()].clear();
        self.edge_count -= neighbors.len();
        for n in neighbors {
            self.edge_set.remove(&edge_key(id, n));
            // `adj` and `akind` are parallel; remove the same position from
            // both (swap_remove keeps them parallel and is O(1)).
            if let Some(pos) = self.adj[n.index()].iter().position(|&x| x == id) {
                self.adj[n.index()].swap_remove(pos);
                self.akind[n.index()].swap_remove(pos);
            }
        }
        self.removed[id.index()] = true;
        self.live_nodes -= 1;
    }

    /// The neighbors of a node. Empty for removed nodes.
    #[inline]
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        &self.adj[id.index()]
    }

    /// The edge kinds of a node's incident edges, parallel to
    /// [`neighbors`](Self::neighbors): `neighbor_kinds(u)[i]` labels the
    /// edge to `neighbors(u)[i]`.
    #[inline]
    pub fn neighbor_kinds(&self, id: NodeId) -> &[EdgeKind] {
        &self.akind[id.index()]
    }

    /// The kind of the undirected edge `{a, b}`, or `None` when absent.
    pub fn edge_kind(&self, a: NodeId, b: NodeId) -> Option<EdgeKind> {
        if self.removed[a.index()] || self.removed[b.index()] {
            return None;
        }
        let (probe, other) = if self.adj[a.index()].len() <= self.adj[b.index()].len() {
            (a, b)
        } else {
            (b, a)
        };
        self.adj[probe.index()]
            .iter()
            .position(|&x| x == other)
            .map(|pos| self.akind[probe.index()][pos])
    }

    /// Degree of a node (0 for removed nodes).
    #[inline]
    pub fn degree(&self, id: NodeId) -> usize {
        self.adj[id.index()].len()
    }

    /// The label of a node (also defined for removed nodes).
    #[inline]
    pub fn label(&self, id: NodeId) -> &str {
        &self.labels[id.index()]
    }

    /// The kind of a node.
    #[inline]
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.kinds[id.index()]
    }

    /// True if the node has been removed.
    #[inline]
    pub fn is_removed(&self, id: NodeId) -> bool {
        self.removed[id.index()]
    }

    /// Number of live nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.live_nodes
    }

    /// Number of live undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Upper bound of node ids ever allocated (including tombstones); use
    /// for sizing side tables indexed by [`NodeId`].
    #[inline]
    pub fn id_bound(&self) -> usize {
        self.labels.len()
    }

    /// Iterates over live node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.labels.len() as u32)
            .map(NodeId)
            .filter(move |id| !self.removed[id.index()])
    }

    /// Iterates over live undirected edges, each reported once with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |a| {
            self.adj[a.index()]
                .iter()
                .copied()
                .filter(move |&b| a < b)
                .map(move |b| (a, b))
        })
    }

    /// All live metadata nodes, optionally restricted to one corpus side.
    pub fn metadata_nodes(&self, side: Option<CorpusSide>) -> Vec<NodeId> {
        self.nodes()
            .filter(|&id| {
                let k = self.kinds[id.index()];
                k.is_metadata() && (side.is_none() || k.side() == side)
            })
            .collect()
    }

    /// All live *matchable* metadata nodes of one side (tuples, docs,
    /// taxonomy nodes — not attributes).
    pub fn matchable_nodes(&self, side: CorpusSide) -> Vec<NodeId> {
        self.nodes()
            .filter(|&id| {
                let k = self.kinds[id.index()];
                k.is_matchable() && k.side() == Some(side)
            })
            .collect()
    }

    /// Merges node `remove` into node `keep` (§II-C node merging): every
    /// neighbor of `remove` is connected to `keep` with the original edge's
    /// kind, then `remove` is deleted. No-op when the ids are equal or
    /// either is removed.
    pub fn merge_nodes(&mut self, keep: NodeId, remove: NodeId) {
        if keep == remove || self.removed[keep.index()] || self.removed[remove.index()] {
            return;
        }
        let neighbors: Vec<NodeId> = self.adj[remove.index()].clone();
        let kinds: Vec<EdgeKind> = self.akind[remove.index()].clone();
        self.remove_node(remove);
        for (n, kind) in neighbors.into_iter().zip(kinds) {
            if n != keep {
                self.add_edge_typed(keep, n, kind);
            }
        }
    }

    /// Removes every *non-metadata* node whose degree is ≤ 1 (the sink
    /// cleanup of Alg. 2), cascading since removals can create new sinks.
    /// Returns the number of removed nodes.
    ///
    /// Runs off a worklist seeded with the nodes currently at degree ≤ 1;
    /// each removal enqueues only the neighbors it just demoted. Total
    /// cost is O(removed + their degrees) — the previous implementation
    /// rescanned every live node per cascade round, which was quadratic on
    /// long chains. The fixpoint is order-independent (degree peeling is
    /// confluent), so the surviving graph is identical.
    pub fn remove_sinks(&mut self) -> usize {
        let is_sink = |g: &Self, id: NodeId| {
            !g.removed[id.index()]
                && !g.kinds[id.index()].is_metadata()
                && g.adj[id.index()].len() <= 1
        };
        let mut worklist: Vec<NodeId> = self.nodes().filter(|&id| is_sink(self, id)).collect();
        let mut removed_total = 0;
        while let Some(id) = worklist.pop() {
            // A queued node may have been removed since enqueueing (as the
            // sole neighbor of another sink); re-check before removing.
            if !is_sink(self, id) {
                continue;
            }
            let neighbors = self.adj[id.index()].clone();
            self.remove_node(id);
            removed_total += 1;
            for n in neighbors {
                if is_sink(self, n) {
                    worklist.push(n);
                }
            }
        }
        removed_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(g: &mut Graph, label: &str, side: CorpusSide) -> NodeId {
        g.add_meta(label, side, MetaKind::Tuple, 0)
    }

    #[test]
    fn interning_deduplicates_terms() {
        let mut g = Graph::new();
        let a = g.intern_data("willis");
        let b = g.intern_data("willis");
        assert_eq!(a, b);
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn edges_deduplicate_and_reject_self_loops() {
        let mut g = Graph::new();
        let a = g.intern_data("a");
        let b = g.intern_data("b");
        assert!(g.add_edge(a, b));
        assert!(!g.add_edge(a, b));
        assert!(!g.add_edge(b, a));
        assert!(!g.add_edge(a, a));
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(a, b) && g.has_edge(b, a));
    }

    #[test]
    fn removal_updates_counts_and_neighbors() {
        let mut g = Graph::new();
        let a = g.intern_data("a");
        let b = g.intern_data("b");
        let c = g.intern_data("c");
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.remove_node(b);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 0);
        assert!(g.neighbors(a).is_empty());
        assert!(g.data_node("b").is_none());
        // Removing twice is a no-op.
        g.remove_node(b);
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn interning_revives_removed_node() {
        let mut g = Graph::new();
        let a = g.intern_data("a");
        g.remove_node(a);
        let a2 = g.intern_data("a");
        assert_eq!(a, a2);
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn metadata_index_is_separate_from_data() {
        let mut g = Graph::new();
        let term = g.intern_data("audit");
        let m = g.add_meta("audit", CorpusSide::First, MetaKind::Taxonomy, 0);
        assert_ne!(term, m);
        assert_eq!(g.data_node("audit"), Some(term));
        assert_eq!(g.meta_node("audit"), Some(m));
    }

    #[test]
    fn metadata_queries_respect_side_and_kind() {
        let mut g = Graph::new();
        let t1 = meta(&mut g, "t1", CorpusSide::First);
        let p1 = meta(&mut g, "p1", CorpusSide::Second);
        let c1 = g.add_meta("c1", CorpusSide::First, MetaKind::Attribute, 0);
        assert_eq!(g.metadata_nodes(None).len(), 3);
        assert_eq!(g.metadata_nodes(Some(CorpusSide::First)), vec![t1, c1]);
        assert_eq!(g.matchable_nodes(CorpusSide::First), vec![t1]);
        assert_eq!(g.matchable_nodes(CorpusSide::Second), vec![p1]);
    }

    #[test]
    fn sink_removal_cascades() {
        // chain: m - a - b - c  (c is a sink; removing it makes b a sink...)
        let mut g = Graph::new();
        let m = meta(&mut g, "m", CorpusSide::First);
        let a = g.intern_data("a");
        let b = g.intern_data("b");
        let c = g.intern_data("c");
        g.add_edge(m, a);
        g.add_edge(a, b);
        g.add_edge(b, c);
        let removed = g.remove_sinks();
        // c, then b, then a all become degree-1 chains; metadata m stays.
        assert_eq!(removed, 3);
        assert_eq!(g.node_count(), 1);
        assert!(!g.is_removed(m));
    }

    #[test]
    fn sink_removal_keeps_hubs() {
        let mut g = Graph::new();
        let m1 = meta(&mut g, "m1", CorpusSide::First);
        let m2 = meta(&mut g, "m2", CorpusSide::Second);
        let hub = g.intern_data("hub");
        g.add_edge(m1, hub);
        g.add_edge(m2, hub);
        assert_eq!(g.remove_sinks(), 0);
        assert_eq!(g.node_count(), 3);
    }

    #[test]
    fn edge_membership_survives_remove_and_readd() {
        let mut g = Graph::new();
        let a = g.intern_data("a");
        let b = g.intern_data("b");
        let c = g.intern_data("c");
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.remove_node(b);
        assert!(!g.has_edge(a, b));
        // Revive b and re-add one edge: the stale pair must be gone from
        // the membership set, the new one present.
        let b2 = g.intern_data("b");
        assert_eq!(b, b2);
        assert!(!g.has_edge(b, c));
        assert!(g.add_edge(b, c));
        assert!(g.has_edge(b, c));
        assert!(!g.add_edge(c, b));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn sink_removal_clears_long_chain() {
        // A 500-node chain hanging off a metadata anchor: the worklist
        // must peel the whole chain in one pass.
        let mut g = Graph::new();
        let m = meta(&mut g, "m", CorpusSide::First);
        let mut prev = g.intern_data("c0");
        g.add_edge(m, prev);
        for i in 1..500 {
            let next = g.intern_data(&format!("c{i}"));
            g.add_edge(prev, next);
            prev = next;
        }
        assert_eq!(g.remove_sinks(), 500);
        assert_eq!(g.node_count(), 1);
        assert!(!g.is_removed(m));
    }

    #[test]
    fn merge_transfers_neighbors() {
        let mut g = Graph::new();
        let a = g.intern_data("bruce willis");
        let b = g.intern_data("b willis");
        let m1 = meta(&mut g, "t1", CorpusSide::First);
        let m2 = meta(&mut g, "p1", CorpusSide::Second);
        g.add_edge(a, m1);
        g.add_edge(b, m2);
        g.merge_nodes(a, b);
        assert!(g.data_node("b willis").is_none());
        assert!(g.has_edge(a, m1));
        assert!(g.has_edge(a, m2));
        assert_eq!(g.node_count(), 3);
    }

    #[test]
    fn merge_self_and_removed_are_noops() {
        let mut g = Graph::new();
        let a = g.intern_data("a");
        let b = g.intern_data("b");
        g.merge_nodes(a, a);
        assert_eq!(g.node_count(), 2);
        g.remove_node(b);
        g.merge_nodes(a, b);
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn merge_drops_edge_between_merged_pair() {
        let mut g = Graph::new();
        let a = g.intern_data("a");
        let b = g.intern_data("b");
        g.add_edge(a, b);
        g.merge_nodes(a, b);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.degree(a), 0);
    }

    #[test]
    fn typed_edges_report_their_kind_from_both_endpoints() {
        let mut g = Graph::new();
        let m = meta(&mut g, "t1", CorpusSide::First);
        let term = g.intern_data("willis");
        assert!(g.add_edge_typed(m, term, EdgeKind::Contains));
        assert_eq!(g.edge_kind(m, term), Some(EdgeKind::Contains));
        assert_eq!(g.edge_kind(term, m), Some(EdgeKind::Contains));
        let other = g.intern_data("pulp");
        assert_eq!(g.edge_kind(m, other), None);
    }

    #[test]
    fn duplicate_typed_edge_keeps_first_kind() {
        let mut g = Graph::new();
        let a = g.intern_data("a");
        let b = g.intern_data("b");
        assert!(g.add_edge_typed(a, b, EdgeKind::Hierarchy));
        assert!(!g.add_edge_typed(a, b, EdgeKind::External));
        assert_eq!(g.edge_kind(a, b), Some(EdgeKind::Hierarchy));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn untyped_add_edge_defaults_to_generic() {
        let mut g = Graph::new();
        let a = g.intern_data("a");
        let b = g.intern_data("b");
        g.add_edge(a, b);
        assert_eq!(g.edge_kind(a, b), Some(EdgeKind::Generic));
    }

    #[test]
    fn neighbor_kinds_stay_parallel_after_removal() {
        // star: hub connects to a (Contains), b (External), c (Hierarchy);
        // removing b must leave a and c with their original kinds.
        let mut g = Graph::new();
        let hub = g.intern_data("hub");
        let a = g.intern_data("a");
        let b = g.intern_data("b");
        let c = g.intern_data("c");
        g.add_edge_typed(hub, a, EdgeKind::Contains);
        g.add_edge_typed(hub, b, EdgeKind::External);
        g.add_edge_typed(hub, c, EdgeKind::Hierarchy);
        g.remove_node(b);
        assert_eq!(g.neighbors(hub).len(), g.neighbor_kinds(hub).len());
        assert_eq!(g.edge_kind(hub, a), Some(EdgeKind::Contains));
        assert_eq!(g.edge_kind(hub, c), Some(EdgeKind::Hierarchy));
    }

    #[test]
    fn merge_preserves_edge_kinds() {
        let mut g = Graph::new();
        let keep = g.intern_data("bruce willis");
        let remove = g.intern_data("b willis");
        let m = meta(&mut g, "p1", CorpusSide::Second);
        g.add_edge_typed(remove, m, EdgeKind::Contains);
        g.merge_nodes(keep, remove);
        assert_eq!(g.edge_kind(keep, m), Some(EdgeKind::Contains));
    }

    #[test]
    fn edge_iteration_reports_each_edge_once() {
        let mut g = Graph::new();
        let a = g.intern_data("a");
        let b = g.intern_data("b");
        let c = g.intern_data("c");
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.add_edge(a, c);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        assert_eq!(edges.len(), g.edge_count());
    }
}
