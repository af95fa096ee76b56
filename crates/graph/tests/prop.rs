//! Property-based tests for the graph substrate.

use proptest::prelude::*;

use tdmatch_graph::codec::ByteReader;
use tdmatch_graph::container::{pod_bytes, ContainerWriter, Storage};
use tdmatch_graph::csr::{
    SEC_CSR_HEADER, SEC_CSR_KINDS, SEC_CSR_NODE_KINDS, SEC_CSR_OFFSETS, SEC_CSR_REMOVED,
    SEC_CSR_SORTED_KINDS, SEC_CSR_SORTED_TARGETS, SEC_CSR_TARGETS, SEC_GRAPH_LABELS,
};
use tdmatch_graph::traverse::{all_shortest_paths, bfs_distances, connected_components, shortest_path_len};
use tdmatch_graph::{CorpusSide, CsrGraph, DecodeError, EdgeKind, Graph, MetaKind, NodeId, NodeKind};

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

    /// Saving any graph and loading it back gives the source replayed
    /// under the dense renumbering — labels, kinds, edge kinds and the
    /// adjacency *order*: live nodes in ascending id order, then each
    /// node's edges to higher ids in row order. Walks pick
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
        let h = load(&saved_bytes(&g)).unwrap();
        prop_assert_eq!(g.node_count(), h.node_count());
        prop_assert_eq!(g.edge_count(), h.edge_count());
        prop_assert_eq!(h.id_bound(), h.node_count(), "loaded ids are dense");

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
        for a in g.nodes() {
            for (&b, &kind) in g.neighbors(a).iter().zip(g.neighbor_kinds(a)) {
                if a < b {
                    let (na, nb) = (dense[a.index()].unwrap(), dense[b.index()].unwrap());
                    replay.add_edge_typed(na, nb, kind);
                }
            }
        }
        let labels: Vec<(NodeId, &str)> = h.labels().collect();
        prop_assert_eq!(labels.len(), replay.node_count());
        for (u, label) in labels {
            prop_assert_eq!(replay.label(u), label);
            prop_assert_eq!(replay.kind(u), h.kind(u));
            prop_assert_eq!(replay.neighbors(u), h.neighbors(u));
            prop_assert_eq!(replay.neighbor_kinds(u), h.neighbor_kinds(u));
        }
    }
}

// ---- A saved graph's loader, held to a replay oracle ----------------------

/// SplitMix64: the generator behind the seed-driven loader property.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// The metadata kinds, in the order of their packed tags.
const META_KINDS: [MetaKind; 4] =
    [MetaKind::Tuple, MetaKind::Attribute, MetaKind::TextDoc, MetaKind::Taxonomy];

/// A random graph shaped like a fit's: metadata of every kind on both
/// sides, data and external nodes whose labels may repeat a metadata
/// label, typed edges, then merges, removals, sink peeling and more
/// edges, so rows are in no particular order and tombstones are common.
fn random_graph(rng: &mut Rng) -> Graph {
    let mut g = Graph::new();
    let n = 1 + rng.below(14);
    let mut ids = Vec::with_capacity(n);
    for i in 0..n {
        let label = format!("v{}", rng.below(n + 2));
        let side = if rng.below(2) == 0 { CorpusSide::First } else { CorpusSide::Second };
        ids.push(match rng.below(6) {
            k @ 0..=3 => g.add_meta(&label, side, META_KINDS[k], i as u32),
            4 => g.intern_external(&label),
            _ => g.intern_data(&label),
        });
    }
    let edges = |g: &mut Graph, rng: &mut Rng, count: usize| {
        for _ in 0..count {
            let kind = EdgeKind::ALL[rng.below(EdgeKind::ALL.len())];
            g.add_edge_typed(ids[rng.below(n)], ids[rng.below(n)], kind);
        }
    };
    let count = rng.below(3 * n + 1);
    edges(&mut g, rng, count);
    for _ in 0..rng.below(3) {
        g.merge_nodes(ids[rng.below(n)], ids[rng.below(n)]);
    }
    for _ in 0..rng.below(3) {
        g.remove_node(ids[rng.below(n)]);
    }
    if rng.below(2) == 0 {
        g.remove_sinks();
    }
    let count = rng.below(n + 1);
    edges(&mut g, rng, count);
    g
}

/// Every section of a saved graph, decoded by the test: the rows as
/// `(target, kind tag)` lists, so they can be edited and re-encoded with
/// every CRC valid.
#[derive(Clone)]
struct Saved {
    header: [u64; 3],
    rows: Vec<Vec<(u32, u8)>>,
    node_kinds: Vec<u64>,
    removed: Vec<u64>,
    labels: Vec<u8>,
}

impl Saved {
    fn parse(bytes: &[u8]) -> Saved {
        let storage = Storage::from_bytes(bytes);
        let c = storage.container().unwrap();
        let header = c.require(SEC_CSR_HEADER).unwrap().as_u64s().unwrap();
        let offsets = c.require(SEC_CSR_OFFSETS).unwrap().as_u32s().unwrap();
        let targets = c.require(SEC_CSR_TARGETS).unwrap().as_u32s().unwrap();
        let kinds = c.require(SEC_CSR_KINDS).unwrap().bytes();
        let rows = offsets
            .windows(2)
            .map(|w| (w[0] as usize..w[1] as usize).map(|e| (targets[e], kinds[e])).collect())
            .collect();
        Saved {
            header: [header[0], header[1], header[2]],
            rows,
            node_kinds: c.require(SEC_CSR_NODE_KINDS).unwrap().as_u64s().unwrap().to_vec(),
            removed: c.require(SEC_CSR_REMOVED).unwrap().as_u64s().unwrap().to_vec(),
            labels: c.require(SEC_GRAPH_LABELS).unwrap().bytes().to_vec(),
        }
    }

    /// The sections in the order a save writes them; the sorted index is
    /// each row sorted by target.
    fn encode(&self) -> Vec<u8> {
        let mut offsets = vec![0u32];
        let (mut targets, mut kinds, mut sorted_targets, mut sorted_kinds) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for row in &self.rows {
            targets.extend(row.iter().map(|e| e.0));
            kinds.extend(row.iter().map(|e| e.1));
            let mut sorted = row.clone();
            sorted.sort_by_key(|e| e.0);
            sorted_targets.extend(sorted.iter().map(|e| e.0));
            sorted_kinds.extend(sorted.iter().map(|e| e.1));
            offsets.push(targets.len() as u32);
        }
        let mut w = ContainerWriter::new();
        w.add(SEC_CSR_HEADER, pod_bytes(&self.header));
        w.add(SEC_CSR_OFFSETS, pod_bytes(&offsets));
        w.add(SEC_CSR_TARGETS, pod_bytes(&targets));
        w.add(SEC_CSR_KINDS, kinds);
        w.add(SEC_CSR_SORTED_TARGETS, pod_bytes(&sorted_targets));
        w.add(SEC_CSR_SORTED_KINDS, sorted_kinds);
        w.add(SEC_CSR_NODE_KINDS, pod_bytes(&self.node_kinds));
        w.add(SEC_CSR_REMOVED, pod_bytes(&self.removed));
        w.add(SEC_GRAPH_LABELS, self.labels.clone());
        w.finish()
    }

    fn live(&self) -> Vec<usize> {
        (0..self.rows.len()).filter(|&i| (self.removed[i / 64] >> (i % 64)) & 1 == 0).collect()
    }

    fn label_list(&self) -> Vec<String> {
        let mut r = ByteReader::new(&self.labels, 0);
        self.live().iter().map(|_| r.string().unwrap()).collect()
    }

    fn set_labels(&mut self, labels: &[String]) {
        self.labels.clear();
        for l in labels {
            tdmatch_graph::codec::put_str(&mut self.labels, l);
        }
    }

    fn is_meta(&self, id: usize) -> bool {
        self.node_kinds[id] & 0xFF == 2
    }
}

/// The loader's algorithm as it stood when the mutable graph still read
/// saved files, rebuilt here over `Graph`'s public mutators: intern the
/// live nodes in ascending id order (the interning tables catch a
/// repeated label), replay each live node's row entries to higher ids in
/// row order (the edge set drops duplicates and self-loops), then require
/// every degree and the edge count to agree with the rows.
fn replay(saved: &Saved) -> Result<Graph, DecodeError> {
    let live = saved.live();
    let mut labels = ByteReader::new(&saved.labels, 0);
    let mut g = Graph::with_capacity(live.len());
    let mut dense = vec![None; saved.rows.len()];
    for (i, &old) in live.iter().enumerate() {
        let label = labels.str().map_err(|e| match e {
            DecodeError::Corrupt => DecodeError::Invalid("fewer labels than live nodes"),
            other => other,
        })?;
        let packed = saved.node_kinds[old];
        let new = match packed & 0xFF {
            0 => g.intern_data(label),
            1 => g.intern_external(label),
            _ => {
                let side = [CorpusSide::First, CorpusSide::Second][(packed >> 8 & 0xFF) as usize];
                let kind = META_KINDS[(packed >> 16 & 0xFF) as usize];
                g.add_meta(label, side, kind, (packed >> 32) as u32)
            }
        };
        if new != NodeId(i as u32) {
            return Err(DecodeError::Invalid("duplicate node label"));
        }
        dense[old] = Some(new);
    }
    if labels.remaining() != 0 {
        return Err(DecodeError::Invalid("trailing bytes in graph label section"));
    }
    for (i, &a) in live.iter().enumerate() {
        for &(b, kind) in &saved.rows[a] {
            if a < b as usize {
                let nb = dense[b as usize]
                    .ok_or(DecodeError::Invalid("edge references a removed node"))?;
                g.add_edge_typed(NodeId(i as u32), nb, EdgeKind::ALL[kind as usize]);
            }
        }
    }
    let rows_agree = live
        .iter()
        .enumerate()
        .all(|(i, &a)| g.degree(NodeId(i as u32)) == saved.rows[a].len());
    if !rows_agree || g.edge_count() as u64 != saved.header[2] {
        return Err(DecodeError::Invalid("snapshot rows are not an undirected simple graph"));
    }
    Ok(g)
}

/// One CRC-valid edit of a clean saved graph, picked by `rng`; `None`
/// leaves the file as saved.
fn hostile(saved: &mut Saved, rng: &mut Rng) -> Option<&'static str> {
    let live = saved.live();
    let dead: Vec<usize> = (0..saved.rows.len()).filter(|i| !live.contains(i)).collect();
    if live.is_empty() {
        return None;
    }
    let x = live[rng.below(live.len())];
    let y = live[rng.below(live.len())];
    let kind = rng.below(EdgeKind::ALL.len()) as u8;
    let at = |rng: &mut Rng, row: &Vec<(u32, u8)>| rng.below(row.len() + 1);
    match rng.below(13) {
        0 if !saved.rows[x].is_empty() => {
            let pos = rng.below(saved.rows[x].len());
            saved.rows[x].remove(pos);
            Some("asymmetric: an entry dropped from one row")
        }
        1 if !saved.rows[x].iter().any(|e| e.0 as usize == y) && x != y => {
            let pos = at(rng, &saved.rows[x]);
            saved.rows[x].insert(pos, (y as u32, kind));
            Some("asymmetric: an entry added to one row")
        }
        2 if !saved.rows[x].is_empty() => {
            let copy = saved.rows[x][rng.below(saved.rows[x].len())];
            let pos = at(rng, &saved.rows[x]);
            saved.rows[x].insert(pos, copy);
            Some("duplicate entry")
        }
        3 => {
            let pos = at(rng, &saved.rows[x]);
            saved.rows[x].insert(pos, (x as u32, kind));
            Some("self-loop")
        }
        4 if !dead.is_empty() => {
            let t = dead[rng.below(dead.len())];
            let pos = at(rng, &saved.rows[x]);
            saved.rows[x].insert(pos, (t as u32, kind));
            saved.rows[t].push((x as u32, kind));
            saved.header[2] += 1;
            Some("edge to a tombstone")
        }
        5 if x != y && !saved.rows[x].iter().any(|e| e.0 as usize == y) => {
            // A new undirected edge, entered at random positions on both
            // sides: a simple graph the loader must accept.
            let pos = at(rng, &saved.rows[x]);
            saved.rows[x].insert(pos, (y as u32, kind));
            let pos = at(rng, &saved.rows[y]);
            saved.rows[y].insert(pos, (x as u32, kind));
            saved.header[2] += 1;
            Some("a valid edge added")
        }
        6 => {
            saved.header[2] ^= 1;
            Some("edge count off")
        }
        7 if x != y && saved.is_meta(x) == saved.is_meta(y) => {
            let mut labels = saved.label_list();
            let (ix, iy) = (live.binary_search(&x).unwrap(), live.binary_search(&y).unwrap());
            labels[ix] = labels[iy].clone();
            saved.set_labels(&labels);
            Some("repeated label")
        }
        8 => {
            let mut labels = saved.label_list();
            labels.pop();
            saved.set_labels(&labels);
            Some("one label short")
        }
        9 => {
            saved.labels.extend_from_slice(&[1, 0, 0, 0, b'z']);
            Some("one label extra")
        }
        10 => {
            let len = saved.labels.len();
            if len > 4 && rng.below(2) == 0 {
                saved.labels[len - 1] = 0xFF;
                Some("non-UTF-8 label")
            } else {
                saved.labels.push(0);
                Some("trailing byte")
            }
        }
        11 if !saved.rows[x].is_empty() => {
            // One edge entered twice from both ends, the count raised to
            // match: every degree and the count agree with the rows, so
            // only a duplicate check refuses it.
            let (b, kind) = saved.rows[x][rng.below(saved.rows[x].len())];
            let pos = at(rng, &saved.rows[x]);
            saved.rows[x].insert(pos, (b, kind));
            let pos = at(rng, &saved.rows[b as usize]);
            saved.rows[b as usize].insert(pos, (x as u32, kind));
            saved.header[2] += 1;
            Some("a duplicate entry, mirrored")
        }
        _ => None,
    }
}

/// A fresh temporary path: properties run in parallel.
fn temp_graph(name: &str) -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("tdmatch-graph-prop-{name}-{}-{n}.tdz", std::process::id()))
}

/// The bytes of `g` saved as a graph file.
fn saved_bytes(g: &Graph) -> Vec<u8> {
    resaved(&CsrGraph::from_graph(g))
}

/// The bytes of a frozen graph's save.
fn resaved(g: &CsrGraph) -> Vec<u8> {
    let path = temp_graph("save");
    g.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

/// Loads `bytes` as a graph file.
fn load(bytes: &[u8]) -> Result<CsrGraph, DecodeError> {
    let path = temp_graph("load");
    std::fs::write(&path, bytes).unwrap();
    let loaded = CsrGraph::load(&path);
    std::fs::remove_file(&path).ok();
    loaded
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    /// The saved-graph loader accepts exactly what the replay oracle
    /// accepts, refuses the rest with the oracle's error, and what it
    /// loads is the oracle's graph array for array and label for label
    /// (compared as the bytes each saves). Inputs are random graphs with
    /// merges, removals and sink peeling, saved, then half the time
    /// edited into a CRC-valid hostile file.
    #[test]
    fn the_graph_loader_matches_a_replay_of_the_saved_rows(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let g = random_graph(&mut rng);
        let clean = saved_bytes(&g);
        let mut saved = Saved::parse(&clean);
        prop_assert!(saved.encode() == clean, "the test's codec re-encodes a clean file exactly");
        let edit = if rng.below(2) == 0 { hostile(&mut saved, &mut rng) } else { None };
        let bytes = saved.encode();
        let got = load(&bytes).map(|h| resaved(&h));
        let want = replay(&saved).map(|oracle| saved_bytes(&oracle));
        match (got, want) {
            (Ok(got), Ok(want)) => {
                prop_assert!(got == want, "seed {seed}: {edit:?} loaded a different graph")
            }
            (Err(got), Err(want)) => {
                prop_assert_eq!(got.to_string(), want.to_string(), "seed {}: {:?}", seed, edit)
            }
            (got, want) => prop_assert!(
                false,
                "seed {seed}: {edit:?}: the loader says {:?}, the oracle {:?}",
                got.map(|b| b.len()),
                want.map(|b| b.len())
            ),
        }
    }
}
