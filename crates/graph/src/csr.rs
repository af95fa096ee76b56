//! The frozen graph: an immutable compressed-sparse-row form of a
//! [`Graph`] plus its node labels.
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
//! Lifecycle: mutate [`Graph`] (build → merge → expand → compress), then
//! freeze once via [`CsrGraph::from_graph`] and run all read-heavy work
//! (walk generation, embedding, [`GraphStats`](crate::stats::GraphStats))
//! against the frozen form. It does not observe later mutations. A fit
//! drops the `Graph` at the freeze; nothing reads a finished graph
//! through it.
//!
//! # Persistence
//!
//! Every array is flat and typed, so the frozen graph serializes *as-is*
//! into `TDZ1` container sections ([`write_sections`]: the CSR arrays
//! plus the [`SEC_GRAPH_LABELS`] label section) and loads back zero-copy
//! ([`from_sections`]): the loaded arrays are views into the shared
//! [`Storage`] buffer, and loading is one linear validation pass with no
//! per-element copies. [`save`] writes those sections as a saved graph
//! (`tdmatch run --save-graph`), and [`load`] reads one back for a
//! resumed fit (`tdmatch resume`), renumbering the live nodes densely.
//!
//! [`has_edge`]: CsrGraph::has_edge
//! [`edge_type_cum`]: CsrGraph::edge_type_cum
//! [`write_sections`]: CsrGraph::write_sections
//! [`from_sections`]: CsrGraph::from_sections
//! [`save`]: CsrGraph::save
//! [`load`]: CsrGraph::load

use std::collections::HashSet;
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

/// Section: the label of every live node in ascending id order, each a
/// `u32` length followed by that many UTF-8 bytes. The count is the
/// header's live-node count.
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

/// A frozen graph: an immutable CSR view of a [`Graph`], sharing its
/// node ids, plus the labels of its live nodes.
///
/// Tombstoned nodes keep their id slot (with an empty adjacency range), so
/// any table indexed by [`NodeId`] works unchanged against the snapshot.
///
/// The flat arrays are [`FlatBuf`]s: owned when built by
/// [`from_graph`](CsrGraph::from_graph) or [`load`](CsrGraph::load),
/// zero-copy views into container [`Storage`] when read by
/// [`from_sections`](CsrGraph::from_sections).
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
    /// The [`SEC_GRAPH_LABELS`] payload: each live node's label in
    /// ascending id order, a `u32` length and that many UTF-8 bytes.
    labels: FlatBuf<u8>,
    live_nodes: usize,
    edge_count: usize,
}

impl CsrGraph {
    /// Freezes `g` in one pass over its adjacency, and encodes its live
    /// nodes' labels.
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
        let mut labels = Vec::with_capacity(g.nodes().map(|n| 4 + g.label(n).len()).sum());
        for id in g.nodes() {
            put_str(&mut labels, g.label(id));
        }
        Self::from_rows(offsets, targets, kinds, node_kinds, removed, labels, g.edge_count())
    }

    /// Wraps owned rows and builds their sorted neighbor index: each
    /// node's `(target, kind)` pairs ordered by target.
    fn from_rows(
        offsets: Vec<u32>,
        targets: Vec<NodeId>,
        kinds: Vec<EdgeKind>,
        node_kinds: Vec<PackedNodeKind>,
        removed: Vec<u64>,
        labels: Vec<u8>,
        edge_count: usize,
    ) -> Self {
        let mut sorted_targets = targets.clone();
        let mut sorted_kinds = kinds.clone();
        let mut pairs: Vec<(NodeId, EdgeKind)> = Vec::new();
        for w in offsets.windows(2) {
            let (lo, hi) = (w[0] as usize, w[1] as usize);
            pairs.clear();
            pairs.extend(targets[lo..hi].iter().copied().zip(kinds[lo..hi].iter().copied()));
            pairs.sort_unstable_by_key(|&(t, _)| t);
            for (i, &(t, k)) in pairs.iter().enumerate() {
                sorted_targets[lo + i] = t;
                sorted_kinds[lo + i] = k;
            }
        }
        let removed_count: usize = removed.iter().map(|w| w.count_ones() as usize).sum();
        Self {
            live_nodes: node_kinds.len() - removed_count,
            offsets: offsets.into(),
            targets: targets.into(),
            kinds: kinds.into(),
            sorted_targets: sorted_targets.into(),
            sorted_kinds: sorted_kinds.into(),
            node_kinds: node_kinds.into(),
            removed: removed.into(),
            labels: labels.into(),
            edge_count,
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

    /// Serializes the frozen graph as `TDZ1` container sections: the CSR
    /// arrays, then the [`SEC_GRAPH_LABELS`] labels. The large arrays are
    /// *borrowed* by the writer — saving streams them out without a
    /// second in-memory copy.
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
        w.add(SEC_GRAPH_LABELS, &self.labels[..]);
    }

    /// Reassembles a frozen graph from container sections, zero-copy:
    /// every array is a validated view into `storage`'s buffer.
    /// `container` must have been parsed from the same storage
    /// (`storage.container()`).
    ///
    /// Validation is one O(V + E) pass (monotone offsets, in-range
    /// target ids, per-node sortedness of the sorted index, legal kind
    /// tags, bitmap consistency) so that later indexing is panic-free on
    /// any input that parses, then [`check_labels`](Self::check_labels).
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

        let labels = container
            .section(SEC_GRAPH_LABELS)
            .ok_or(DecodeError::Invalid("snapshot has no graph label section"))?;
        let graph = Self {
            offsets,
            targets,
            kinds,
            sorted_targets,
            sorted_kinds,
            node_kinds,
            removed,
            labels: FlatBuf::<u8>::from_section(storage, labels)?,
            live_nodes: live_nodes as usize,
            edge_count: usize::try_from(edge_count).map_err(|_| DecodeError::Corrupt)?,
        };
        graph.check_labels()?;
        Ok(graph)
    }

    /// One label per live node, valid UTF-8, nothing after the last, and
    /// none repeated within its family: the data and external nodes share
    /// one label space (a term is one node), the metadata nodes another.
    fn check_labels(&self) -> Result<(), DecodeError> {
        let mut reader = ByteReader::new(&self.labels, 0);
        let (mut terms, mut metadata) = (HashSet::new(), HashSet::new());
        for n in self.nodes() {
            // The section passed its CRC, so running out of bytes here is
            // a structural fault of the file, not bit rot.
            let label = reader.str().map_err(|e| match e {
                DecodeError::Corrupt => DecodeError::Invalid("fewer labels than live nodes"),
                other => other,
            })?;
            let family = if self.kind(n).is_metadata() { &mut metadata } else { &mut terms };
            if !family.insert(label) {
                return Err(DecodeError::Invalid("duplicate node label"));
            }
        }
        if reader.remaining() != 0 {
            return Err(DecodeError::Invalid("trailing bytes in graph label section"));
        }
        Ok(())
    }

    /// Live nodes with their labels, in ascending id order.
    pub fn labels(&self) -> impl Iterator<Item = (NodeId, &str)> + '_ {
        let mut reader = ByteReader::new(&self.labels, 0);
        self.nodes()
            .map(move |n| (n, reader.str().expect("a frozen graph holds a label per live node")))
    }

    /// Saves the frozen graph, labels included, as one `TDZ1` container
    /// ([`write_sections`](CsrGraph::write_sections)) published
    /// crash-safely: what `tdmatch run --save-graph` writes.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), DecodeError> {
        let mut w = ContainerWriter::new();
        self.write_sections(&mut w);
        crate::publish::publish_atomic(path.as_ref(), |f| w.write_to(f))
    }

    /// Loads a graph saved by [`save`](CsrGraph::save) for a resumed fit:
    /// [`from_sections`](CsrGraph::from_sections), then the live nodes
    /// renumbered densely into owned arrays. Live node `i` becomes node
    /// `i`, with its kind and label. Only each node's entries to higher
    /// ids are read as edges, and node `x`'s row becomes its lower
    /// neighbours in ascending order, each with the kind from that
    /// neighbour's row, then its upper neighbours in its saved order: a
    /// function of the file alone, so a resumed fit repeats bit for bit.
    ///
    /// Refused, besides what `from_sections` refuses: an entry to a
    /// tombstone, and rows that are not the simple undirected graph the
    /// read edges make — each node's degree must equal its saved row's
    /// length, which a repeated entry (read once) or a self-loop (never
    /// read) breaks, and the edge count the header's.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, DecodeError> {
        let storage = Storage::open(path)?;
        Self::from_sections(&storage, &storage.container()?)?.renumbered()
    }

    /// The dense renumbering of [`load`](CsrGraph::load).
    fn renumbered(&self) -> Result<Self, DecodeError> {
        let live: Vec<NodeId> = self.nodes().collect();
        let n = live.len();
        let mut dense = vec![u32::MAX; self.id_bound()];
        for (i, &old) in live.iter().enumerate() {
            dense[old.index()] = i as u32;
        }
        // The edges in the order they are met: live nodes in id order,
        // each one's entries to higher ids in row order. An edge `{a, b}`
        // is only met in `a`'s row, so `entered[b] == a` marks a repeat.
        let mut edges: Vec<(u32, u32, EdgeKind)> = Vec::new();
        let mut entered = vec![u32::MAX; n];
        for (a, &old) in live.iter().enumerate() {
            for (&b, &kind) in self.neighbors(old).iter().zip(self.neighbor_kinds(old)) {
                if old < b {
                    let b = dense[b.index()];
                    if b == u32::MAX {
                        return Err(DecodeError::Invalid("edge references a removed node"));
                    }
                    if entered[b as usize] != a as u32 {
                        entered[b as usize] = a as u32;
                        edges.push((a as u32, b, kind));
                    }
                }
            }
        }
        let mut degree = vec![0u32; n];
        for &(a, b, _) in &edges {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        let rows_agree = live
            .iter()
            .zip(&degree)
            .all(|(&old, &d)| d as usize == self.degree(old));
        if !rows_agree || edges.len() != self.edge_count {
            return Err(DecodeError::Invalid("snapshot rows are not an undirected simple graph"));
        }

        // The degrees are the saved rows' lengths, which fit `u32`
        // offsets. Placing the edges in the order they were met puts each
        // node's lower neighbours first, in ascending order, then its own
        // row's entries.
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        for &d in &degree {
            offsets.push(offsets[offsets.len() - 1] + d);
        }
        let total = offsets[n] as usize;
        let mut targets = vec![NodeId(0); total];
        let mut kinds = vec![EdgeKind::Generic; total];
        let mut cursor: Vec<usize> = offsets[..n].iter().map(|&o| o as usize).collect();
        for &(a, b, kind) in &edges {
            for (row, other) in [(a, b), (b, a)] {
                let at = &mut cursor[row as usize];
                targets[*at] = NodeId(other);
                kinds[*at] = kind;
                *at += 1;
            }
        }
        let node_kinds = live.iter().map(|&old| self.node_kinds[old.index()]).collect();
        let removed = vec![0u64; n.div_ceil(64)];
        let labels = self.labels.to_vec();
        Ok(Self::from_rows(offsets, targets, kinds, node_kinds, removed, labels, edges.len()))
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
        assert!(a.labels().eq(b.labels()));
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
            && c.labels.is_shared()
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
                SEC_GRAPH_LABELS,
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

    fn saved_bytes(g: &CsrGraph, name: &str) -> Vec<u8> {
        let path = temp(name);
        g.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    }

    fn load_bytes(bytes: &[u8], name: &str) -> Result<CsrGraph, DecodeError> {
        let path = temp(name);
        std::fs::write(&path, bytes).unwrap();
        let loaded = CsrGraph::load(&path);
        std::fs::remove_file(&path).ok();
        loaded
    }

    #[test]
    fn a_saved_graph_loads_with_dense_ids_and_its_labels_kinds_and_edges() {
        let g = labelled();
        let bytes = saved_bytes(&CsrGraph::from_graph(&g), "roundtrip");
        assert_eq!(&bytes[..4], b"TDZ1");
        let h = load_bytes(&bytes, "roundtrip").unwrap();
        assert_eq!((h.node_count(), h.edge_count()), (g.node_count(), g.edge_count()));
        assert_eq!(h.id_bound(), h.node_count(), "loaded ids are dense");
        // The i-th live node is node i, with its label and kind.
        let live: Vec<NodeId> = g.nodes().collect();
        let labels: Vec<(NodeId, &str)> = h.labels().collect();
        assert_eq!(labels.len(), live.len());
        for (i, (&old, &(new, label))) in live.iter().zip(&labels).enumerate() {
            assert_eq!((new, label), (NodeId(i as u32), g.label(old)));
            assert_eq!(h.kind(new), g.kind(old), "kind of {label}");
            assert_eq!(h.degree(new), g.degree(old), "degree of {label}");
        }
        // "ephemeral" (id 2) was removed: "B:doc0" (3) became 2, and so
        // on. "willis" (old 5, new 4) lists its lower neighbours in
        // ascending order, each with the kind from that neighbour's row,
        // then its upper neighbour "pulp fiction" (old 6).
        let willis = NodeId(4);
        assert_eq!(h.neighbors(willis), &[NodeId(0), NodeId(1), NodeId(2), NodeId(5)]);
        assert_eq!(
            h.neighbor_kinds(willis),
            &[EdgeKind::Contains, EdgeKind::ColumnOf, EdgeKind::Contains, EdgeKind::External]
        );
        // Dense ids are canonical: the loaded graph saves to a file that
        // loads back to itself.
        let again = saved_bytes(&h, "roundtrip");
        assert_eq!(again, saved_bytes(&load_bytes(&again, "roundtrip").unwrap(), "roundtrip"));
        // An empty graph saves and loads too.
        let empty = saved_bytes(&CsrGraph::from_graph(&Graph::new()), "roundtrip");
        let empty = load_bytes(&empty, "roundtrip").unwrap();
        assert_eq!((empty.node_count(), empty.edge_count()), (0, 0));
    }

    #[test]
    fn a_frozen_graph_keeps_the_live_labels_and_saves_without_its_source() {
        let g = labelled();
        let want: Vec<(NodeId, String)> = g.nodes().map(|n| (n, g.label(n).to_string())).collect();
        let frozen = CsrGraph::from_graph(&g);
        drop(g);
        let got: Vec<(NodeId, String)> =
            frozen.labels().map(|(n, label)| (n, label.to_string())).collect();
        assert_eq!(got, want);
        let bytes = saved_bytes(&frozen, "frozen");
        assert_eq!(bytes, saved_bytes(&CsrGraph::from_graph(&labelled()), "frozen"));
    }

    #[test]
    fn saved_graph_opens_as_a_zero_copy_csr_snapshot() {
        let g = labelled();
        let path = temp("as-csr");
        CsrGraph::from_graph(&g).save(&path).unwrap();
        let storage = Storage::open(&path).unwrap();
        let csr = CsrGraph::from_sections(&storage, &storage.container().unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(is_zero_copy(&csr));
        snapshot_eq(&csr, &CsrGraph::from_graph(&g));
    }

    #[test]
    fn every_truncation_and_bit_flip_of_a_saved_graph_is_an_error() {
        let clean = saved_bytes(&CsrGraph::from_graph(&labelled()), "damage");
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
        let clean = saved_bytes(&CsrGraph::from_graph(&labelled()), "labels");
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
            // The labels are part of the frozen graph: reading the
            // sections refuses them too, though the CSR half is intact.
            let storage = Storage::from_bytes(&bad);
            assert!(
                CsrGraph::from_sections(&storage, &storage.container().unwrap()).is_err(),
                "{what} was read"
            );
        }
        // A data label may repeat a metadata label ("audit" the term and
        // "audit" the taxonomy node), and an external node is a term.
        let mut g = Graph::new();
        g.intern_data("audit");
        g.add_meta("audit", CorpusSide::First, MetaKind::Taxonomy, 0);
        g.intern_external("pulp");
        let h = load_bytes(&saved_bytes(&CsrGraph::from_graph(&g), "labels"), "labels").unwrap();
        assert!(h.labels().map(|(_, l)| l).eq(["audit", "audit", "pulp"]));
        // …but a term and an external node may not share one.
        let clean = saved_bytes(&CsrGraph::from_graph(&g), "labels");
        let payload = [label(b"pulp"), label(b"audit"), label(b"pulp")].concat();
        let bad = with_section(&clean, SEC_GRAPH_LABELS, Some(payload));
        let refused = load_bytes(&bad, "labels");
        assert!(matches!(refused, Err(DecodeError::Invalid("duplicate node label"))));
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
        let clean = saved_bytes(&CsrGraph::from_graph(&g), "rows");
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
