//! Immutable compressed-sparse-row snapshot of a [`Graph`].
//!
//! The walk generator reads adjacency hundreds of times per node
//! (§IV-A / Alg. 4: 100 walks × length 30 from *every* node), which makes
//! the mutable graph's `Vec<Vec<NodeId>>` representation — one heap
//! allocation per node, pointer-chasing per step — the wrong layout for
//! the read phase. [`CsrGraph`] freezes a built graph into three flat
//! arrays (`offsets` / `targets` / `kinds`) built in one pass, so every
//! neighbor scan is a contiguous slice read.
//!
//! Two extra structures make the biased walks cheap:
//!
//! * a per-node **sorted neighbor index** turns [`has_edge`] into a binary
//!   search — node2vec's second-order bias probes `has_edge(prev, x)` for
//!   every candidate `x`, which was an O(degree) scan per candidate on the
//!   mutable graph;
//! * a per-node **cumulative edge-type weight table** ([`edge_type_cum`])
//!   lets edge-typed transitions sample in O(log degree) by binary search
//!   over prefix sums instead of rebuilding a weight buffer per step.
//!
//! `targets` deliberately preserves the mutable graph's insertion order
//! (the sorted copy is a *separate* index): random walks pick neighbors by
//! index, so a walk is a function of the graph as built and the seed.
//! The property tests in `tests/csr_prop.rs` pin the snapshot to its
//! source edge for edge.
//!
//! Lifecycle: mutate [`Graph`] (build → expand → merge → compress), then
//! freeze once via [`CsrGraph::from_graph`] and run all read-heavy work
//! (walk generation, embedding, [`GraphStats`](crate::stats::GraphStats))
//! against the snapshot. The snapshot does not observe later mutations —
//! re-freeze after further changes.
//!
//! # Persistence
//!
//! Every array in the snapshot is flat and typed, so the snapshot
//! serializes *as-is* into `TDZ1` container sections
//! ([`write_sections`]) and loads back zero-copy ([`from_sections`]):
//! the loaded arrays are views into the shared [`Storage`] buffer, and
//! loading is one linear validation pass with no per-element copies.
//! These sections are the body of a saved graph: a [`FrozenGraph`] (the
//! snapshot plus its node labels, what a fitted model keeps) writes them
//! plus one label section ([`SEC_GRAPH_LABELS`]) — the one writer, which
//! [`Graph::save_snapshot`] calls after freezing — and
//! [`Graph::load_snapshot`] rebuilds the mutable, label-indexed [`Graph`]
//! from them (`tdmatch run --save-graph` / `tdmatch resume`).
//!
//! [`has_edge`]: CsrGraph::has_edge
//! [`edge_type_cum`]: CsrGraph::edge_type_cum
//! [`write_sections`]: CsrGraph::write_sections
//! [`from_sections`]: CsrGraph::from_sections

use std::path::Path;

use crate::codec::{put_str, ByteReader, DecodeError};
use crate::container::{Container, ContainerWriter, FlatBuf, Pod, SectionTag, Storage};
use crate::edge::{EdgeKind, EdgeTypeWeights};
use crate::graph::Graph;
use crate::node::{CorpusSide, MetaKind, NodeId, NodeKind};

/// Section: `[id_bound, live_nodes, edge_count]` as `u64`s.
pub const SEC_CSR_HEADER: SectionTag = *b"CSRH";
/// Section: CSR `offsets` (`u32`, length `id_bound + 1`).
pub const SEC_CSR_OFFSETS: SectionTag = *b"COFF";
/// Section: neighbor ids in insertion order (`u32`).
pub const SEC_CSR_TARGETS: SectionTag = *b"CTGT";
/// Section: edge kinds parallel to targets (`u8`).
pub const SEC_CSR_KINDS: SectionTag = *b"CKND";
/// Section: per-node sorted neighbor ids (`u32`).
pub const SEC_CSR_SORTED_TARGETS: SectionTag = *b"CSTG";
/// Section: edge kinds parallel to the sorted ids (`u8`).
pub const SEC_CSR_SORTED_KINDS: SectionTag = *b"CSKD";
/// Section: packed node kinds (`u64`, length `id_bound`).
pub const SEC_CSR_NODE_KINDS: SectionTag = *b"CNKD";
/// Section: tombstone bitmap (`u64` words, bit `i` set ⇔ node `i` removed).
pub const SEC_CSR_REMOVED: SectionTag = *b"CRMV";

/// Section of a saved *graph* ([`FrozenGraph::save`]): the label of
/// every live node in ascending id order, each a `u32` length followed by
/// that many UTF-8 bytes. The count is the header's live-node count.
pub const SEC_GRAPH_LABELS: SectionTag = *b"GLBL";

/// A [`NodeKind`] packed into one `u64` for flat, zero-copy storage:
/// byte 0 = tag (0 data / 1 external / 2 meta), byte 1 = corpus side,
/// byte 2 = meta kind, bytes 4..8 = document index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
struct PackedNodeKind(u64);

// Safety: repr(transparent) over u64; every bit pattern is storable (the
// decoder validates semantics separately).
unsafe impl Pod for PackedNodeKind {}

impl PackedNodeKind {
    fn pack(kind: NodeKind) -> Self {
        PackedNodeKind(match kind {
            NodeKind::Data => 0,
            NodeKind::External => 1,
            NodeKind::Meta { side, kind, index } => {
                let side = match side {
                    CorpusSide::First => 0u64,
                    CorpusSide::Second => 1,
                };
                let kind = match kind {
                    MetaKind::Tuple => 0u64,
                    MetaKind::Attribute => 1,
                    MetaKind::TextDoc => 2,
                    MetaKind::Taxonomy => 3,
                };
                2 | (side << 8) | (kind << 16) | ((index as u64) << 32)
            }
        })
    }

    #[inline]
    fn unpack(self) -> NodeKind {
        match self.0 & 0xFF {
            0 => NodeKind::Data,
            1 => NodeKind::External,
            _ => NodeKind::Meta {
                side: if (self.0 >> 8) & 0xFF == 0 {
                    CorpusSide::First
                } else {
                    CorpusSide::Second
                },
                kind: match (self.0 >> 16) & 0xFF {
                    0 => MetaKind::Tuple,
                    1 => MetaKind::Attribute,
                    2 => MetaKind::TextDoc,
                    _ => MetaKind::Taxonomy,
                },
                index: (self.0 >> 32) as u32,
            },
        }
    }

    /// Validates a loaded value: known tags, no stray bits.
    fn validate(self) -> Result<(), DecodeError> {
        let tag = self.0 & 0xFF;
        let valid = match tag {
            0 | 1 => self.0 == tag,
            2 => {
                (self.0 >> 8) & 0xFF < 2
                    && (self.0 >> 16) & 0xFF < 4
                    && (self.0 >> 24) & 0xFF == 0
            }
            _ => false,
        };
        if valid {
            Ok(())
        } else {
            Err(DecodeError::Invalid("packed node kind"))
        }
    }
}

/// Reinterprets edge kinds as raw bytes (sound: `EdgeKind` is a fieldless
/// `repr(u8)` enum).
fn edge_kinds_as_bytes(kinds: &[EdgeKind]) -> &[u8] {
    unsafe { std::slice::from_raw_parts(kinds.as_ptr() as *const u8, kinds.len()) }
}

/// Zero-copy `FlatBuf<EdgeKind>` over a `u8` section, validating every
/// byte is a known kind tag first.
fn edge_kinds_from_section(
    storage: &Storage,
    view: crate::container::SectionView<'_>,
) -> Result<FlatBuf<EdgeKind>, DecodeError> {
    let bytes = FlatBuf::<u8>::from_section(storage, view)?;
    if bytes.iter().any(|&b| b as usize >= EdgeKind::ALL.len()) {
        return Err(DecodeError::Invalid("edge kind tag out of range"));
    }
    let (ptr, len) = (bytes.as_ptr(), bytes.len());
    // Safety: every byte was just validated as a legal EdgeKind
    // discriminant, and EdgeKind is repr(u8); the storage handle keeps
    // the buffer alive.
    Ok(unsafe { FlatBuf::from_raw_shared(storage.clone(), ptr as *const EdgeKind, len) })
}

/// An immutable CSR view of a [`Graph`], sharing its node ids.
///
/// Tombstoned nodes keep their id slot (with an empty adjacency range), so
/// any table indexed by [`NodeId`] works unchanged against the snapshot.
///
/// The flat arrays are [`FlatBuf`]s: owned when built by
/// [`from_graph`](CsrGraph::from_graph), zero-copy views into container
/// [`Storage`] when loaded by [`from_sections`](CsrGraph::from_sections).
#[derive(Debug, Clone)]
pub struct CsrGraph {
    /// `offsets[u] .. offsets[u + 1]` is node `u`'s range in `targets`,
    /// `kinds`, and the sorted index. Length `id_bound + 1`.
    offsets: FlatBuf<u32>,
    /// Neighbor ids in the *insertion order* of the source graph (walk
    /// compatibility; see module docs).
    targets: FlatBuf<NodeId>,
    /// Edge kinds parallel to `targets`.
    kinds: FlatBuf<EdgeKind>,
    /// Neighbor ids sorted ascending within each node's range, for binary
    /// search in [`has_edge`](CsrGraph::has_edge).
    sorted_targets: FlatBuf<NodeId>,
    /// Edge kinds parallel to `sorted_targets`.
    sorted_kinds: FlatBuf<EdgeKind>,
    /// Packed node kinds, indexed by id (tombstones keep their last kind).
    node_kinds: FlatBuf<PackedNodeKind>,
    /// Tombstone bitmap: bit `i` set ⇔ node `i` was removed.
    removed: FlatBuf<u64>,
    live_nodes: usize,
    edge_count: usize,
}

impl CsrGraph {
    /// Freezes `g` into a CSR snapshot in one pass over its adjacency.
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.id_bound();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut total = 0u64;
        for id in 0..n {
            total += g.neighbors(NodeId(id as u32)).len() as u64;
            assert!(
                total <= u32::MAX as u64,
                "graph too large for u32 CSR offsets ({total} directed edges)"
            );
            offsets.push(total as u32);
        }
        let mut targets = Vec::with_capacity(total as usize);
        let mut kinds = Vec::with_capacity(total as usize);
        let mut node_kinds = Vec::with_capacity(n);
        let mut removed = vec![0u64; n.div_ceil(64)];
        for id in 0..n {
            let id = NodeId(id as u32);
            targets.extend_from_slice(g.neighbors(id));
            kinds.extend_from_slice(g.neighbor_kinds(id));
            node_kinds.push(PackedNodeKind::pack(g.kind(id)));
            if g.is_removed(id) {
                removed[id.index() / 64] |= 1 << (id.index() % 64);
            }
        }

        // Sorted index: per-node (target, kind) pairs ordered by target.
        let mut sorted_targets = targets.clone();
        let mut sorted_kinds = kinds.clone();
        let mut pairs: Vec<(NodeId, EdgeKind)> = Vec::new();
        for u in 0..n {
            let (lo, hi) = (offsets[u] as usize, offsets[u + 1] as usize);
            pairs.clear();
            pairs.extend(targets[lo..hi].iter().copied().zip(kinds[lo..hi].iter().copied()));
            pairs.sort_unstable_by_key(|&(t, _)| t);
            for (i, &(t, k)) in pairs.iter().enumerate() {
                sorted_targets[lo + i] = t;
                sorted_kinds[lo + i] = k;
            }
        }

        Self {
            offsets: offsets.into(),
            targets: targets.into(),
            kinds: kinds.into(),
            sorted_targets: sorted_targets.into(),
            sorted_kinds: sorted_kinds.into(),
            node_kinds: node_kinds.into(),
            removed: removed.into(),
            live_nodes: g.node_count(),
            edge_count: g.edge_count(),
        }
    }

    /// Upper bound of node ids (including tombstones), as in
    /// [`Graph::id_bound`].
    #[inline]
    pub fn id_bound(&self) -> usize {
        self.node_kinds.len()
    }

    /// Number of live nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.live_nodes
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// True if the node was tombstoned at snapshot time.
    #[inline]
    pub fn is_removed(&self, id: NodeId) -> bool {
        (self.removed[id.index() / 64] >> (id.index() % 64)) & 1 == 1
    }

    /// The kind of a node.
    #[inline]
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.node_kinds[id.index()].unpack()
    }

    /// Iterates over live node ids in ascending order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.id_bound() as u32)
            .map(NodeId)
            .filter(move |&id| !self.is_removed(id))
    }

    /// The node's adjacency range in the flat arrays.
    #[inline]
    fn range(&self, id: NodeId) -> (usize, usize) {
        (
            self.offsets[id.index()] as usize,
            self.offsets[id.index() + 1] as usize,
        )
    }

    /// Neighbors in source-graph insertion order. Empty for removed nodes.
    #[inline]
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        let (lo, hi) = self.range(id);
        &self.targets[lo..hi]
    }

    /// Edge kinds parallel to [`neighbors`](CsrGraph::neighbors).
    #[inline]
    pub fn neighbor_kinds(&self, id: NodeId) -> &[EdgeKind] {
        let (lo, hi) = self.range(id);
        &self.kinds[lo..hi]
    }

    /// Degree of a node (0 for removed nodes).
    #[inline]
    pub fn degree(&self, id: NodeId) -> usize {
        let (lo, hi) = self.range(id);
        hi - lo
    }

    /// True if the undirected edge `{a, b}` exists — a binary search over
    /// the smaller endpoint's sorted neighbor index.
    #[inline]
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        let probe = if self.degree(a) <= self.degree(b) { a } else { b };
        let other = if probe == a { b } else { a };
        let (lo, hi) = self.range(probe);
        self.sorted_targets[lo..hi].binary_search(&other).is_ok()
    }

    /// The kind of the undirected edge `{a, b}`, or `None` when absent.
    pub fn edge_kind(&self, a: NodeId, b: NodeId) -> Option<EdgeKind> {
        let probe = if self.degree(a) <= self.degree(b) { a } else { b };
        let other = if probe == a { b } else { a };
        let (lo, hi) = self.range(probe);
        self.sorted_targets[lo..hi]
            .binary_search(&other)
            .ok()
            .map(|pos| self.sorted_kinds[lo + pos])
    }

    /// All live metadata nodes, optionally restricted to one corpus side
    /// (mirrors [`Graph::metadata_nodes`]).
    pub fn metadata_nodes(&self, side: Option<CorpusSide>) -> Vec<NodeId> {
        self.nodes()
            .filter(|&id| {
                let k = self.kind(id);
                k.is_metadata() && (side.is_none() || k.side() == side)
            })
            .collect()
    }

    /// Counts undirected edges per [`EdgeKind`], indexed by
    /// [`EdgeKind::index`]: each edge once, from its smaller endpoint.
    pub fn edge_kind_histogram(&self) -> [usize; EdgeKind::ALL.len()] {
        let mut hist = [0usize; EdgeKind::ALL.len()];
        for a in self.nodes() {
            for (&b, &kind) in self.neighbors(a).iter().zip(self.neighbor_kinds(a)) {
                if a < b {
                    hist[kind.index()] += 1;
                }
            }
        }
        hist
    }

    /// Per-edge cumulative transition weights for one [`EdgeTypeWeights`]
    /// configuration, aligned with [`neighbors`](CsrGraph::neighbors).
    ///
    /// For each node the table holds the running prefix sum of its
    /// incident edges' kind weights, accumulated in insertion order with
    /// plain `f32` addition — the *same* fold a per-step linear sampler
    /// would recompute, so sampling from the table picks what that linear
    /// sampler picks while costing O(log degree) per step.
    pub fn edge_type_cum(&self, weights: &EdgeTypeWeights) -> EdgeTypeCum {
        let mut cum = Vec::with_capacity(self.kinds.len());
        for u in 0..self.id_bound() {
            let (lo, hi) = (self.offsets[u] as usize, self.offsets[u + 1] as usize);
            let mut running = 0.0f32;
            for &kind in &self.kinds[lo..hi] {
                running += weights.get(kind);
                cum.push(running);
            }
        }
        EdgeTypeCum { cum }
    }

    /// The slice of an [`EdgeTypeCum`] table covering node `id`.
    #[inline]
    pub fn cum_slice<'a>(&self, cum: &'a EdgeTypeCum, id: NodeId) -> &'a [f32] {
        let (lo, hi) = self.range(id);
        &cum.cum[lo..hi]
    }

    /// Serializes the snapshot's flat arrays as `TDZ1` container
    /// sections. The large arrays are *borrowed* by the writer — saving
    /// streams them out without a second in-memory copy.
    pub fn write_sections<'a>(&'a self, w: &mut ContainerWriter<'a>) {
        w.add(
            SEC_CSR_HEADER,
            crate::container::pod_bytes(&[
                self.id_bound() as u64,
                self.live_nodes as u64,
                self.edge_count as u64,
            ]),
        );
        w.add_pod(SEC_CSR_OFFSETS, &self.offsets);
        w.add_pod(SEC_CSR_TARGETS, &self.targets);
        w.add(SEC_CSR_KINDS, edge_kinds_as_bytes(&self.kinds));
        w.add_pod(SEC_CSR_SORTED_TARGETS, &self.sorted_targets);
        w.add(SEC_CSR_SORTED_KINDS, edge_kinds_as_bytes(&self.sorted_kinds));
        w.add_pod(SEC_CSR_NODE_KINDS, &self.node_kinds);
        w.add_pod(SEC_CSR_REMOVED, &self.removed);
    }

    /// Reassembles a snapshot from container sections, zero-copy: every
    /// array is a validated view into `storage`'s buffer. `container`
    /// must have been parsed from the same storage
    /// (`storage.container()`).
    ///
    /// Validation is one O(V + E) pass (monotone offsets, in-range
    /// target ids, per-node sortedness of the sorted index, legal kind
    /// tags, bitmap consistency) so that later indexing is panic-free on
    /// any input that parses.
    pub fn from_sections(
        storage: &Storage,
        container: &Container<'_>,
    ) -> Result<Self, DecodeError> {
        let header = container.require(SEC_CSR_HEADER)?.as_u64s()?;
        let &[id_bound, live_nodes, edge_count] = header else {
            return Err(DecodeError::Invalid("CSR header shape"));
        };
        // Bound the header fields before any arithmetic on them: node ids
        // are u32, so a larger id bound (or a live count beyond it) can
        // only be hostile — reject it instead of risking overflow.
        if id_bound > u32::MAX as u64 {
            return Err(DecodeError::Invalid("CSR id bound exceeds u32 node ids"));
        }
        if live_nodes > id_bound {
            return Err(DecodeError::Invalid("CSR live count exceeds id bound"));
        }
        let id_bound = id_bound as usize;

        let offsets = FlatBuf::<u32>::from_section(storage, container.require(SEC_CSR_OFFSETS)?)?;
        if offsets.len() != id_bound + 1 || offsets.first() != Some(&0) {
            return Err(DecodeError::Invalid("CSR offsets shape"));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(DecodeError::Invalid("CSR offsets not monotone"));
        }
        let n_edges_directed = *offsets.last().unwrap() as usize;

        let targets =
            FlatBuf::<NodeId>::from_section(storage, container.require(SEC_CSR_TARGETS)?)?;
        let kinds = edge_kinds_from_section(storage, container.require(SEC_CSR_KINDS)?)?;
        let sorted_targets =
            FlatBuf::<NodeId>::from_section(storage, container.require(SEC_CSR_SORTED_TARGETS)?)?;
        let sorted_kinds =
            edge_kinds_from_section(storage, container.require(SEC_CSR_SORTED_KINDS)?)?;
        if targets.len() != n_edges_directed
            || kinds.len() != n_edges_directed
            || sorted_targets.len() != n_edges_directed
            || sorted_kinds.len() != n_edges_directed
        {
            return Err(DecodeError::Invalid("CSR adjacency array length mismatch"));
        }
        if targets.iter().any(|t| t.index() >= id_bound)
            || sorted_targets.iter().any(|t| t.index() >= id_bound)
        {
            return Err(DecodeError::Invalid("CSR target id out of range"));
        }
        for u in 0..id_bound {
            let (lo, hi) = (offsets[u] as usize, offsets[u + 1] as usize);
            if sorted_targets[lo..hi].windows(2).any(|w| w[0] > w[1]) {
                return Err(DecodeError::Invalid("CSR sorted index not sorted"));
            }
        }

        let node_kinds = FlatBuf::<PackedNodeKind>::from_section(
            storage,
            container.require(SEC_CSR_NODE_KINDS)?,
        )?;
        if node_kinds.len() != id_bound {
            return Err(DecodeError::Invalid("CSR node kind length mismatch"));
        }
        for &packed in node_kinds.iter() {
            packed.validate()?;
        }

        let removed = FlatBuf::<u64>::from_section(storage, container.require(SEC_CSR_REMOVED)?)?;
        if removed.len() != id_bound.div_ceil(64) {
            return Err(DecodeError::Invalid("CSR removed bitmap length mismatch"));
        }
        let tail_bits = id_bound % 64;
        if tail_bits != 0 {
            let last = removed.last().copied().unwrap_or(0);
            if last >> tail_bits != 0 {
                return Err(DecodeError::Invalid("CSR removed bitmap trailing bits"));
            }
        }
        // Both operands are ≤ id_bound ≤ u32::MAX: the sum cannot overflow.
        let removed_count: usize = removed.iter().map(|w| w.count_ones() as usize).sum();
        if removed_count + live_nodes as usize != id_bound {
            return Err(DecodeError::Invalid("CSR live node count mismatch"));
        }

        Ok(Self {
            offsets,
            targets,
            kinds,
            sorted_targets,
            sorted_kinds,
            node_kinds,
            removed,
            live_nodes: live_nodes as usize,
            edge_count: usize::try_from(edge_count).map_err(|_| DecodeError::Corrupt)?,
        })
    }
}

/// A frozen graph with its labels: the [`CsrGraph`] plus the
/// [`SEC_GRAPH_LABELS`] payload, which is what a saved graph file holds
/// ([`save`](FrozenGraph::save)). A fit keeps this, not the mutable
/// [`Graph`], once walks begin; it reads as its [`CsrGraph`] (`Deref`).
#[derive(Debug)]
pub struct FrozenGraph {
    csr: CsrGraph,
    /// The label of every live node in ascending id order, each a `u32`
    /// length and that many UTF-8 bytes.
    labels: Vec<u8>,
}

impl FrozenGraph {
    /// Freezes `g` and encodes its live nodes' labels.
    pub fn freeze(g: &Graph) -> Self {
        let mut labels = Vec::with_capacity(g.nodes().map(|n| 4 + g.label(n).len()).sum());
        for n in g.nodes() {
            put_str(&mut labels, g.label(n));
        }
        Self {
            csr: CsrGraph::from_graph(g),
            labels,
        }
    }

    /// Live nodes with their labels, in ascending id order.
    pub fn labels(&self) -> impl Iterator<Item = (NodeId, &str)> + '_ {
        let mut reader = ByteReader::new(&self.labels, 0);
        self.csr.nodes().map(move |n| {
            let label = reader
                .str()
                .expect("`freeze` encoded a label per live node");
            (n, label)
        })
    }

    /// Saves the snapshot — labels included — so a later process can
    /// resume training from it (`tdmatch run --save-graph` / `tdmatch
    /// resume`, through [`Graph::load_snapshot`]): the [`CsrGraph`]
    /// sections plus [`SEC_GRAPH_LABELS`], in one `TDZ1` container
    /// published crash-safely
    /// ([`publish_atomic`](crate::publish::publish_atomic)).
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), DecodeError> {
        let mut w = ContainerWriter::new();
        self.csr.write_sections(&mut w);
        w.add(SEC_GRAPH_LABELS, &self.labels[..]);
        crate::publish::publish_atomic(path.as_ref(), |f| w.write_to(f))
    }
}

impl std::ops::Deref for FrozenGraph {
    type Target = CsrGraph;

    fn deref(&self) -> &CsrGraph {
        &self.csr
    }
}

impl Graph {
    /// Saves the graph: [`FrozenGraph::freeze`], then
    /// [`FrozenGraph::save`].
    pub fn save_snapshot<P: AsRef<Path>>(&self, path: P) -> Result<(), DecodeError> {
        FrozenGraph::freeze(self).save(path)
    }

    /// Loads a graph saved by [`save_snapshot`](Graph::save_snapshot).
    ///
    /// Node ids are *not* preserved: tombstones are skipped and live
    /// nodes are renumbered densely, in ascending id order; every
    /// label-based lookup (`data_node`, `meta_node`) behaves as before
    /// the save. The graph is rebuilt through the public mutators — live
    /// nodes in ascending id order, then per node `a` its neighbours `b`
    /// with `a < b` in row order (the order of
    /// [`edges_with_kinds`](Graph::edges_with_kinds) on the saved graph)
    /// — so the result is a function of the saved graph alone, and a fit
    /// resumed from it is reproducible bit for bit.
    ///
    /// Any file that fails [`CsrGraph::from_sections`], or whose label
    /// section disagrees with the snapshot, is an error, never a panic.
    pub fn load_snapshot<P: AsRef<Path>>(path: P) -> Result<Self, DecodeError> {
        let storage = Storage::open(path)?;
        let container = storage.container()?;
        let csr = CsrGraph::from_sections(&storage, &container)?;
        let mut labels = container
            .section(SEC_GRAPH_LABELS)
            .ok_or(DecodeError::Invalid("snapshot has no graph label section"))?
            .reader();

        let mut g = Graph::with_capacity(csr.node_count());
        let mut dense: Vec<Option<NodeId>> = vec![None; csr.id_bound()];
        // The i-th live node becomes node i.
        for (i, old) in csr.nodes().enumerate() {
            // The section passed its CRC, so running out of bytes here is
            // a structural fault of the file, not bit rot.
            let label = labels.str().map_err(|e| match e {
                DecodeError::Corrupt => DecodeError::Invalid("fewer labels than live nodes"),
                other => other,
            })?;
            let expected = NodeId(i as u32);
            let new = match csr.kind(old) {
                NodeKind::Data => g.intern_data(label),
                NodeKind::External => g.intern_external(label),
                NodeKind::Meta { side, kind, index } => g.add_meta(label, side, kind, index),
            };
            // The interning mutators hand back the existing node for a
            // label they already hold.
            if new != expected {
                return Err(DecodeError::Invalid("duplicate node label"));
            }
            dense[old.index()] = Some(new);
        }
        if labels.remaining() != 0 {
            return Err(DecodeError::Invalid("trailing bytes in graph label section"));
        }

        for (i, a) in csr.nodes().enumerate() {
            let na = NodeId(i as u32);
            for (&b, &kind) in csr.neighbors(a).iter().zip(csr.neighbor_kinds(a)) {
                if a < b {
                    let nb = dense[b.index()]
                        .ok_or(DecodeError::Invalid("edge references a removed node"))?;
                    g.add_edge_typed(na, nb, kind);
                }
            }
        }
        // `add_edge_typed` drops self-loops and duplicates, and only the
        // `a < b` half of each row was replayed: the degrees agree with
        // the rows exactly when the rows describe a simple undirected
        // graph, which is what a genuine snapshot holds.
        let rows_agree = csr
            .nodes()
            .enumerate()
            .all(|(i, a)| g.degree(NodeId(i as u32)) == csr.degree(a));
        if !rows_agree || g.edge_count() != csr.edge_count() {
            return Err(DecodeError::Invalid("snapshot rows are not an undirected simple graph"));
        }
        Ok(g)
    }
}

/// Precomputed per-node cumulative edge-type weights; build once per
/// (snapshot, weight table) pair via [`CsrGraph::edge_type_cum`].
#[derive(Debug, Clone)]
pub struct EdgeTypeCum {
    cum: Vec<f32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::MetaKind;

    fn diamond() -> (Graph, NodeId, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let a = g.intern_data("a");
        let b = g.intern_data("b");
        let c = g.intern_data("c");
        let d = g.intern_data("d");
        g.add_edge_typed(a, b, EdgeKind::Contains);
        g.add_edge_typed(a, c, EdgeKind::External);
        g.add_edge_typed(b, d, EdgeKind::Hierarchy);
        g.add_edge_typed(c, d, EdgeKind::Generic);
        (g, a, b, c, d)
    }

    #[test]
    fn snapshot_mirrors_neighbors_and_kinds() {
        let (g, a, b, c, d) = diamond();
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.node_count(), 4);
        assert_eq!(csr.edge_count(), 4);
        for id in [a, b, c, d] {
            assert_eq!(csr.neighbors(id), g.neighbors(id));
            assert_eq!(csr.neighbor_kinds(id), g.neighbor_kinds(id));
            assert_eq!(csr.degree(id), g.degree(id));
            assert_eq!(csr.kind(id), g.kind(id));
        }
    }

    #[test]
    fn has_edge_and_kind_agree_with_source() {
        let (g, a, b, c, d) = diamond();
        let csr = CsrGraph::from_graph(&g);
        for x in [a, b, c, d] {
            for y in [a, b, c, d] {
                assert_eq!(csr.has_edge(x, y), g.has_edge(x, y), "{x} {y}");
                assert_eq!(csr.edge_kind(x, y), g.edge_kind(x, y));
            }
        }
    }

    #[test]
    fn tombstones_keep_id_slots() {
        let (mut g, a, b, _, d) = diamond();
        g.remove_node(b);
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.id_bound(), 4);
        assert_eq!(csr.node_count(), 3);
        assert!(csr.is_removed(b));
        assert!(csr.neighbors(b).is_empty());
        assert!(!csr.has_edge(a, b));
        assert!(csr.nodes().all(|n| n != b));
        assert_eq!(csr.degree(d), 1);
    }

    #[test]
    fn metadata_queries_match_source() {
        let mut g = Graph::new();
        let t = g.add_meta("t1", CorpusSide::First, MetaKind::Tuple, 0);
        let p = g.add_meta("p1", CorpusSide::Second, MetaKind::TextDoc, 0);
        let term = g.intern_data("term");
        g.add_edge(t, term);
        g.add_edge(p, term);
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.metadata_nodes(None), g.metadata_nodes(None));
        assert_eq!(
            csr.metadata_nodes(Some(CorpusSide::First)),
            g.metadata_nodes(Some(CorpusSide::First))
        );
    }

    #[test]
    fn edge_kind_histogram_counts_each_edge_once() {
        let (mut g, a, _, c, d) = diamond();
        g.add_edge_typed(a, d, EdgeKind::Contains);
        let csr = CsrGraph::from_graph(&g);
        let hist = csr.edge_kind_histogram();
        assert_eq!(hist[EdgeKind::Contains.index()], 2);
        assert_eq!(hist[EdgeKind::External.index()], 1);
        assert_eq!(hist.iter().sum::<usize>(), csr.edge_count());
        // A tombstone's edges leave the count.
        g.remove_node(c);
        let hist = CsrGraph::from_graph(&g).edge_kind_histogram();
        assert_eq!(hist[EdgeKind::External.index()], 0);
        assert_eq!(hist[EdgeKind::Generic.index()], 0);
        assert_eq!(hist.iter().sum::<usize>(), g.edge_count());
    }

    #[test]
    fn cum_table_is_per_node_prefix_sums() {
        let (g, a, ..) = diamond();
        let csr = CsrGraph::from_graph(&g);
        let weights = EdgeTypeWeights::uniform().with(EdgeKind::External, 3.0);
        let cum = csr.edge_type_cum(&weights);
        // a's edges in insertion order: Contains (1.0), External (3.0).
        assert_eq!(csr.cum_slice(&cum, a), &[1.0, 4.0]);
    }

    #[test]
    fn empty_graph_snapshots() {
        let g = Graph::new();
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.id_bound(), 0);
        assert_eq!(csr.nodes().count(), 0);
    }

    #[test]
    fn packed_node_kind_roundtrips_and_validates() {
        let kinds = [
            NodeKind::Data,
            NodeKind::External,
            NodeKind::Meta {
                side: CorpusSide::Second,
                kind: MetaKind::Taxonomy,
                index: u32::MAX,
            },
        ];
        for k in kinds {
            let p = PackedNodeKind::pack(k);
            p.validate().unwrap();
            assert_eq!(p.unpack(), k);
        }
        assert!(PackedNodeKind(3).validate().is_err()); // unknown tag
        assert!(PackedNodeKind(2 | (2 << 8)).validate().is_err()); // bad side
        assert!(PackedNodeKind(1 | (1 << 8)).validate().is_err()); // stray bits
    }

    fn snapshot_eq(a: &CsrGraph, b: &CsrGraph) {
        assert_eq!(a.id_bound(), b.id_bound());
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        for id in 0..a.id_bound() as u32 {
            let id = NodeId(id);
            assert_eq!(a.is_removed(id), b.is_removed(id));
            assert_eq!(a.kind(id), b.kind(id));
            assert_eq!(a.neighbors(id), b.neighbors(id));
            assert_eq!(a.neighbor_kinds(id), b.neighbor_kinds(id));
        }
    }

    /// True when every array borrows container storage.
    fn is_zero_copy(c: &CsrGraph) -> bool {
        c.offsets.is_shared()
            && c.targets.is_shared()
            && c.kinds.is_shared()
            && c.sorted_targets.is_shared()
            && c.sorted_kinds.is_shared()
            && c.node_kinds.is_shared()
            && c.removed.is_shared()
    }

    #[test]
    fn snapshot_roundtrips_through_container() {
        let (mut g, _, b, ..) = diamond();
        g.add_meta("m", CorpusSide::First, MetaKind::Tuple, 3);
        g.remove_node(b);
        let csr = CsrGraph::from_graph(&g);
        let mut w = ContainerWriter::new();
        csr.write_sections(&mut w);

        let storage = Storage::from_bytes(&w.finish());
        let container = storage.container().unwrap();
        let loaded = CsrGraph::from_sections(&storage, &container).unwrap();
        assert!(is_zero_copy(&loaded));
        snapshot_eq(&csr, &loaded);

        // The weight table built over the loaded arrays is the table
        // built over the original, bit for bit.
        let weights = EdgeTypeWeights::uniform().with(EdgeKind::External, 2.5);
        let (cum, loaded_cum) = (csr.edge_type_cum(&weights), loaded.edge_type_cum(&weights));
        for id in csr.nodes() {
            assert_eq!(csr.cum_slice(&cum, id), loaded.cum_slice(&loaded_cum, id));
        }
    }

    #[test]
    fn hostile_csr_header_is_rejected_not_panicking() {
        // A container whose CRCs are all valid (an attacker stamps them)
        // but whose CSRH header claims absurd counts must come back as a
        // decode error — in debug builds too, where unchecked arithmetic
        // on the header fields would panic on overflow.
        let (g, ..) = diamond();
        let csr = CsrGraph::from_graph(&g);
        for header in [
            [u64::MAX, 0, 0],          // id bound beyond u32 ids
            [4, 5, 4],                 // more live nodes than ids
            [u64::MAX, u64::MAX, 0],   // both hostile
        ] {
            let mut w = ContainerWriter::new();
            csr.write_sections(&mut w); // valid sections…
            let valid_storage = Storage::from_bytes(&w.finish());
            let valid = valid_storage.container().unwrap();
            let mut w2 = ContainerWriter::new();
            w2.add_pod(SEC_CSR_HEADER, &header); // …but a hostile header
            for tag in [
                SEC_CSR_OFFSETS,
                SEC_CSR_TARGETS,
                SEC_CSR_KINDS,
                SEC_CSR_SORTED_TARGETS,
                SEC_CSR_SORTED_KINDS,
                SEC_CSR_NODE_KINDS,
                SEC_CSR_REMOVED,
            ] {
                w2.add(tag, valid.section(tag).unwrap().bytes().to_vec());
            }
            let storage = Storage::from_bytes(&w2.finish());
            let c = storage.container().unwrap();
            assert!(
                CsrGraph::from_sections(&storage, &c).is_err(),
                "hostile header {header:?} loaded"
            );
        }
    }

    /// Metadata of every kind, a data and an external node, every edge
    /// kind but `Generic`, and a tombstone in the middle of the id range.
    fn labelled() -> Graph {
        let mut g = Graph::new();
        let t0 = g.add_meta("A:doc0", CorpusSide::First, MetaKind::Tuple, 0);
        let c0 = g.add_meta("A:col0", CorpusSide::First, MetaKind::Attribute, 0);
        let gone = g.intern_data("ephemeral");
        let p0 = g.add_meta("B:doc0", CorpusSide::Second, MetaKind::TextDoc, 0);
        let tax = g.add_meta("A:doc1", CorpusSide::First, MetaKind::Taxonomy, 1);
        let willis = g.intern_data("willis");
        let pulp = g.intern_external("pulp fiction");
        g.add_edge_typed(t0, willis, EdgeKind::Contains);
        g.add_edge_typed(c0, willis, EdgeKind::ColumnOf);
        g.add_edge(gone, willis);
        g.add_edge_typed(p0, willis, EdgeKind::Contains);
        g.add_edge_typed(willis, pulp, EdgeKind::External);
        g.add_edge_typed(t0, tax, EdgeKind::Hierarchy);
        g.remove_node(gone);
        g
    }

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("tdmatch-graph-{name}-{}.tdz", std::process::id()))
    }

    fn saved_bytes(g: &Graph, name: &str) -> Vec<u8> {
        let path = temp(name);
        g.save_snapshot(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    }

    fn load_bytes(bytes: &[u8], name: &str) -> Result<Graph, DecodeError> {
        let path = temp(name);
        std::fs::write(&path, bytes).unwrap();
        let loaded = Graph::load_snapshot(&path);
        std::fs::remove_file(&path).ok();
        loaded
    }

    #[test]
    fn graph_snapshot_roundtrips_labels_kinds_and_drops_tombstones() {
        let g = labelled();
        let bytes = saved_bytes(&g, "roundtrip");
        assert_eq!(&bytes[..4], b"TDZ1");
        let h = load_bytes(&bytes, "roundtrip").unwrap();
        assert_eq!((h.node_count(), h.edge_count()), (g.node_count(), g.edge_count()));
        assert_eq!(h.id_bound(), h.node_count(), "loaded ids are dense");
        assert!(h.data_node("ephemeral").is_none());
        for n in g.nodes() {
            let label = g.label(n);
            let m = match g.kind(n) {
                NodeKind::Meta { .. } => h.meta_node(label),
                _ => h.data_node(label),
            }
            .unwrap_or_else(|| panic!("node {label} missing after the round-trip"));
            assert_eq!(g.kind(n), h.kind(m), "kind of {label}");
            assert_eq!(g.degree(n), h.degree(m), "degree of {label}");
        }
        // Dense ids are canonical: a second save of the loaded graph is
        // byte-identical to a save of its own reload.
        let again = saved_bytes(&h, "roundtrip");
        assert_eq!(again, saved_bytes(&load_bytes(&again, "roundtrip").unwrap(), "roundtrip"));
        // An empty graph saves and loads too.
        let empty = load_bytes(&saved_bytes(&Graph::new(), "roundtrip"), "roundtrip").unwrap();
        assert_eq!((empty.node_count(), empty.edge_count()), (0, 0));
    }

    #[test]
    fn a_frozen_graph_keeps_the_live_labels_and_saves_without_its_source() {
        let g = labelled();
        let want: Vec<(NodeId, String)> = g.nodes().map(|n| (n, g.label(n).to_string())).collect();
        let graph_bytes = saved_bytes(&g, "frozen");
        let frozen = FrozenGraph::freeze(&g);
        drop(g);
        let got: Vec<(NodeId, String)> =
            frozen.labels().map(|(n, label)| (n, label.to_string())).collect();
        assert_eq!(got, want);
        let path = temp("frozen");
        frozen.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(bytes, graph_bytes);
    }

    #[test]
    fn saved_graph_opens_as_a_zero_copy_csr_snapshot() {
        let g = labelled();
        let path = temp("as-csr");
        g.save_snapshot(&path).unwrap();
        let storage = Storage::open(&path).unwrap();
        let csr = CsrGraph::from_sections(&storage, &storage.container().unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(is_zero_copy(&csr));
        snapshot_eq(&csr, &CsrGraph::from_graph(&g));
    }

    #[test]
    fn every_truncation_and_bit_flip_of_a_saved_graph_is_an_error() {
        let clean = saved_bytes(&labelled(), "damage");
        for cut in 0..clean.len() {
            assert!(load_bytes(&clean[..cut], "damage").is_err(), "truncation at {cut}");
        }
        for pos in 0..clean.len() {
            for bit in 0..8 {
                let mut bad = clean.clone();
                bad[pos] ^= 1 << bit;
                assert!(
                    load_bytes(&bad, "damage").is_err(),
                    "flipped bit {bit} of byte {pos} loaded silently"
                );
            }
        }
    }

    /// Rewrites one section of a saved graph (`None` drops it) through
    /// the writer, so every CRC is valid and only the structural checks
    /// stand between the file and the loader.
    fn with_section(clean: &[u8], tag: SectionTag, payload: Option<Vec<u8>>) -> Vec<u8> {
        let storage = Storage::from_bytes(clean);
        let container = storage.container().unwrap();
        let mut w = ContainerWriter::new();
        for t in container.tags() {
            if t != tag {
                w.add(t, container.section(t).unwrap().bytes().to_vec());
            } else if let Some(payload) = &payload {
                w.add(t, payload.clone());
            }
        }
        w.finish()
    }

    #[test]
    fn crc_valid_but_malformed_label_sections_are_invalid() {
        let clean = saved_bytes(&labelled(), "labels");
        let labels = {
            let storage = Storage::from_bytes(&clean);
            let container = storage.container().unwrap();
            container.require(SEC_GRAPH_LABELS).unwrap().bytes().to_vec()
        };
        let label = |text: &[u8]| {
            let mut out = (text.len() as u32).to_le_bytes().to_vec();
            out.extend_from_slice(text);
            out
        };
        let first = label(b"A:doc0");
        assert!(labels.starts_with(&first));
        let cases: Vec<(&str, Option<Vec<u8>>)> = vec![
            ("section missing", None),
            ("one label short", Some(labels[first.len()..].to_vec())),
            ("one label extra", Some([&labels[..], &label(b"extra")[..]].concat())),
            ("trailing byte", Some([&labels[..], &[0u8][..]].concat())),
            ("invalid UTF-8", Some([&label(b"A:d\xFFc0")[..], &labels[first.len()..]].concat())),
            // "A:col0" is the second metadata label; repeating it makes
            // two metadata nodes share a label.
            ("duplicate label", Some([&label(b"A:col0")[..], &labels[first.len()..]].concat())),
        ];
        for (what, payload) in cases {
            let bad = with_section(&clean, SEC_GRAPH_LABELS, payload);
            assert!(
                matches!(load_bytes(&bad, "labels"), Err(DecodeError::Invalid(_))),
                "{what} was not rejected as Invalid"
            );
            // The CSR half of the same file is untouched and still loads.
            let storage = Storage::from_bytes(&bad);
            CsrGraph::from_sections(&storage, &storage.container().unwrap()).unwrap();
        }
    }

    #[test]
    fn crc_valid_rows_that_are_not_a_simple_graph_are_invalid() {
        // Node 0's row names node 1, node 1's row is empty: every array
        // passes `from_sections`, but no undirected graph has these rows.
        let mut g = Graph::new();
        let a = g.intern_data("a");
        let b = g.intern_data("b");
        let c = g.intern_data("c");
        g.add_edge(a, b);
        g.add_edge(b, c);
        let clean = saved_bytes(&g, "rows");
        let u32s = |v: &[u32]| crate::container::pod_bytes(v);
        // Rows: a → [b], b → [], c → [b]; one directed entry each way short.
        let mut bad = with_section(&clean, SEC_CSR_OFFSETS, Some(u32s(&[0, 1, 1, 2])));
        for (tag, payload) in [
            (SEC_CSR_TARGETS, u32s(&[1, 1])),
            (SEC_CSR_SORTED_TARGETS, u32s(&[1, 1])),
            (SEC_CSR_KINDS, vec![0, 0]),
            (SEC_CSR_SORTED_KINDS, vec![0, 0]),
        ] {
            bad = with_section(&bad, tag, Some(payload));
        }
        let storage = Storage::from_bytes(&bad);
        CsrGraph::from_sections(&storage, &storage.container().unwrap()).unwrap();
        assert!(matches!(load_bytes(&bad, "rows"), Err(DecodeError::Invalid(_))));
    }
}
