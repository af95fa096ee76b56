//! Breadth-first search, shortest paths, and connectivity.
//!
//! Compression (Alg. 3) needs *all* shortest paths between sampled metadata
//! pairs; expansion diagnostics and tests need distances and components.

use std::collections::VecDeque;

use crate::csr::CsrGraph;
use crate::graph::Graph;
use crate::node::NodeId;

/// BFS distances from `start` to every reachable node.
///
/// Returns a dense table indexed by node id; `u32::MAX` marks unreachable
/// (or removed) nodes.
pub fn bfs_distances(g: &Graph, start: NodeId) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.id_bound()];
    if g.is_removed(start) {
        return dist;
    }
    let mut queue = VecDeque::new();
    dist[start.index()] = 0;
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        for &v in g.neighbors(u) {
            if dist[v.index()] == u32::MAX {
                dist[v.index()] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Length (in edges) of the shortest path between `a` and `b`, or `None`
/// if disconnected. Early-exits once `b` is settled.
pub fn shortest_path_len(g: &Graph, a: NodeId, b: NodeId) -> Option<u32> {
    if g.is_removed(a) || g.is_removed(b) {
        return None;
    }
    if a == b {
        return Some(0);
    }
    let mut dist = vec![u32::MAX; g.id_bound()];
    let mut queue = VecDeque::new();
    dist[a.index()] = 0;
    queue.push_back(a);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        for &v in g.neighbors(u) {
            if dist[v.index()] == u32::MAX {
                if v == b {
                    return Some(du + 1);
                }
                dist[v.index()] = du + 1;
                queue.push_back(v);
            }
        }
    }
    None
}

/// All shortest paths from `a` to `b`, each as a node sequence including
/// both endpoints, capped at `max_paths` (shortest-path DAGs can encode
/// exponentially many paths; Alg. 3 only needs the nodes/edges, so a cap
/// is safe and keeps compression linear in practice).
pub fn all_shortest_paths(g: &Graph, a: NodeId, b: NodeId, max_paths: usize) -> Vec<Vec<NodeId>> {
    if g.is_removed(a) || g.is_removed(b) || max_paths == 0 {
        return Vec::new();
    }
    if a == b {
        return vec![vec![a]];
    }
    // Forward BFS from `a`, recording distances.
    let dist = bfs_distances(g, a);
    if dist[b.index()] == u32::MAX {
        return Vec::new();
    }
    // Walk backwards from `b` along strictly-decreasing distances,
    // enumerating paths depth-first with the cap.
    let mut paths = Vec::new();
    let mut stack: Vec<NodeId> = vec![b];
    collect_paths(g, &dist, a, &mut stack, &mut paths, max_paths);
    paths
}

fn collect_paths(
    g: &Graph,
    dist: &[u32],
    a: NodeId,
    stack: &mut Vec<NodeId>,
    paths: &mut Vec<Vec<NodeId>>,
    max_paths: usize,
) {
    if paths.len() >= max_paths {
        return;
    }
    let cur = *stack.last().expect("stack never empty");
    if cur == a {
        let mut path: Vec<NodeId> = stack.clone();
        path.reverse();
        paths.push(path);
        return;
    }
    let dcur = dist[cur.index()];
    for &prev in g.neighbors(cur) {
        if dist[prev.index()] + 1 == dcur {
            stack.push(prev);
            collect_paths(g, dist, a, stack, paths, max_paths);
            stack.pop();
            if paths.len() >= max_paths {
                return;
            }
        }
    }
}

/// Connected components over live nodes of a frozen graph. Returns one
/// `Vec<NodeId>` per component, in discovery order.
pub fn connected_components(g: &CsrGraph) -> Vec<Vec<NodeId>> {
    let mut seen = vec![false; g.id_bound()];
    let mut components = Vec::new();
    for start in g.nodes() {
        if seen[start.index()] {
            continue;
        }
        let mut comp = Vec::new();
        let mut queue = VecDeque::new();
        seen[start.index()] = true;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            comp.push(u);
            for &v in g.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    queue.push_back(v);
                }
            }
        }
        components.push(comp);
    }
    components
}

/// Count of paths between `a` and `b` whose node count is at most
/// `max_nodes` (the paper's §III-A discusses "paths with three or less
/// nodes"). Simple paths only; exponential in the limit, so keep
/// `max_nodes` small (≤ 5).
pub fn count_short_paths(g: &Graph, a: NodeId, b: NodeId, max_nodes: usize) -> usize {
    if g.is_removed(a) || g.is_removed(b) || max_nodes == 0 {
        return 0;
    }
    let mut count = 0;
    let mut on_path = vec![false; g.id_bound()];
    on_path[a.index()] = true;
    dfs_count(g, a, b, max_nodes - 1, &mut on_path, &mut count);
    count
}

fn dfs_count(
    g: &Graph,
    cur: NodeId,
    target: NodeId,
    budget: usize,
    on_path: &mut [bool],
    count: &mut usize,
) {
    for &n in g.neighbors(cur) {
        if n == target {
            *count += 1;
            continue;
        }
        if budget > 1 && !on_path[n.index()] {
            on_path[n.index()] = true;
            dfs_count(g, n, target, budget - 1, on_path, count);
            on_path[n.index()] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{CorpusSide, MetaKind};

    /// Builds the small Figure-4-like fixture:
    /// t1-w, t1-x; t2-w, t2-y; p1-w, p1-z.
    fn fixture() -> (Graph, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let t1 = g.add_meta("t1", CorpusSide::First, MetaKind::Tuple, 0);
        let t2 = g.add_meta("t2", CorpusSide::First, MetaKind::Tuple, 1);
        let p1 = g.add_meta("p1", CorpusSide::Second, MetaKind::TextDoc, 0);
        let w = g.intern_data("willis");
        let x = g.intern_data("thriller");
        let y = g.intern_data("tarantino");
        let z = g.intern_data("comedy");
        g.add_edge(t1, w);
        g.add_edge(t1, x);
        g.add_edge(t2, w);
        g.add_edge(t2, y);
        g.add_edge(p1, w);
        g.add_edge(p1, z);
        (g, t1, t2, p1)
    }

    #[test]
    fn bfs_distances_on_fixture() {
        let (g, t1, _, p1) = fixture();
        let d = bfs_distances(&g, p1);
        assert_eq!(d[p1.index()], 0);
        assert_eq!(d[t1.index()], 2); // p1 - willis - t1
        let z = g.data_node("comedy").unwrap();
        assert_eq!(d[z.index()], 1);
    }

    #[test]
    fn shortest_path_matches_bfs() {
        let (g, t1, t2, p1) = fixture();
        assert_eq!(shortest_path_len(&g, p1, t1), Some(2));
        assert_eq!(shortest_path_len(&g, p1, t2), Some(2));
        assert_eq!(shortest_path_len(&g, t1, t2), Some(2));
        assert_eq!(shortest_path_len(&g, p1, p1), Some(0));
    }

    #[test]
    fn disconnected_nodes_have_no_path() {
        let mut g = Graph::new();
        let a = g.intern_data("a");
        let b = g.intern_data("b");
        assert_eq!(shortest_path_len(&g, a, b), None);
        assert!(all_shortest_paths(&g, a, b, 10).is_empty());
    }

    #[test]
    fn all_shortest_paths_enumerates_parallel_routes() {
        // Diamond: s - {m1, m2} - t → two shortest paths of length 2.
        let mut g = Graph::new();
        let s = g.intern_data("s");
        let m1 = g.intern_data("m1");
        let m2 = g.intern_data("m2");
        let t = g.intern_data("t");
        g.add_edge(s, m1);
        g.add_edge(s, m2);
        g.add_edge(m1, t);
        g.add_edge(m2, t);
        let paths = all_shortest_paths(&g, s, t, 10);
        assert_eq!(paths.len(), 2);
        for p in &paths {
            assert_eq!(p.len(), 3);
            assert_eq!(p[0], s);
            assert_eq!(p[2], t);
        }
    }

    #[test]
    fn path_cap_is_respected() {
        let mut g = Graph::new();
        let s = g.intern_data("s");
        let t = g.intern_data("t");
        for i in 0..8 {
            let m = g.intern_data(&format!("m{i}"));
            g.add_edge(s, m);
            g.add_edge(m, t);
        }
        assert_eq!(all_shortest_paths(&g, s, t, 3).len(), 3);
        assert_eq!(all_shortest_paths(&g, s, t, 100).len(), 8);
    }

    #[test]
    fn paths_are_valid_edge_sequences() {
        let (g, _, t2, p1) = fixture();
        for p in all_shortest_paths(&g, p1, t2, 10) {
            for pair in p.windows(2) {
                assert!(g.has_edge(pair[0], pair[1]));
            }
        }
    }

    #[test]
    fn components_partition_nodes() {
        let (mut g, _, _, _) = fixture();
        let lonely = g.intern_data("island");
        let comps = connected_components(&CsrGraph::from_graph(&g));
        assert_eq!(comps.len(), 2);
        let total: usize = comps.iter().map(|c| c.len()).sum();
        assert_eq!(total, g.node_count());
        assert!(comps.iter().any(|c| c == &vec![lonely]));
    }

    #[test]
    fn short_path_counting() {
        let (g, _, t2, p1) = fixture();
        // p1 → willis → t2 is the only ≤3-node path (matches §III-A's
        // "only one of them has three or less nodes").
        assert_eq!(count_short_paths(&g, p1, t2, 3), 1);
    }
}
