//! Sub-linear candidate retrieval: a persisted HNSW index over
//! pre-normalized [`ScoreMatrix`] rows.
//!
//! Every query in the matching phase today scans all `T` target rows
//! (`O(T·dim)`). This module builds a Hierarchical Navigable Small World
//! graph (Malkov & Yashunin) over the *existing* rows — neighbor lists
//! store row indices, never vector copies — so a query can
//! ANN-retrieve a widened candidate pool in roughly `O(log T · pool)`
//! distance evaluations, and the engine then exact-rescores the pool
//! with the same [`dot_unrolled`]/`TopK` kernels it always used. The
//! published ranking therefore keeps the engine's exact total order
//! *over the pool*; widening the pool to the corpus size recovers the
//! exact scan bit-for-bit (pinned by property tests).
//!
//! # Determinism
//!
//! Construction is sequential over valid rows in ascending index order,
//! with layer assignment drawn from a seeded [`SmallRng`]
//! (`floor(-ln(u)·mL)`, `mL = 1/ln(M)`). All heap orderings break ties
//! on ascending row index via [`f32::total_cmp`], so the same matrix,
//! parameters, and seed always produce the same index — and the same
//! index always produces the same candidate pool for a query.
//!
//! # Distance
//!
//! Rows are L2-pre-normalized, so cosine distance is `1 − dot(a, b)`
//! with the engine's own [`dot_unrolled`] kernel, or four rows at a time
//! with [`dot_unrolled4`], which gives the same bits. Only *valid* rows
//! are inserted; invalid (missing) rows never appear in a pool — the
//! serving layer appends them separately so missing-target semantics
//! (score exactly `-1.0`) survive ANN retrieval.
//!
//! `dot_unrolled(a, b)` and `dot_unrolled(b, a)` are the same bits too:
//! each lane sums the same products in the same order (a NaN, which only
//! a non-finite row produces, is NaN both ways). So a distance
//! computed once from either end of an edge stays exact for the other,
//! and construction stores it with the edge instead of recomputing it.
//!
//! # Persistence
//!
//! The index serializes as four `TDZ1` sections per slot (tags
//! `ANH`/`ANS`/`ANO`/`ANE` + slot byte, mirroring the `SM?` family):
//! a header, per-layer segment starts into one concatenated neighbor
//! array, per-layer CSR offsets, and the neighbor array itself. All
//! arrays load as zero-copy [`FlatBuf`] views, and
//! [`from_sections`](HnswIndex::from_sections) fully validates the
//! structure against the target matrix (row count, monotone offsets,
//! neighbors and entry point in range and present) so search over a
//! mapped index is panic-free and pools no row twice; the sections'
//! CRCs are verified on that first access per the container's lazy-CRC
//! contract.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use tdmatch_graph::container::{Container, ContainerWriter, FlatBuf, SectionTag, Storage};
use tdmatch_graph::DecodeError;

use crate::score::{dot_unrolled, dot_unrolled4, ScoreMatrix};

/// Default widened candidate-pool size for ANN retrieval (~4k): a
/// recall-first default — recall@20 ≈ 1.0 on every benchmarked tier,
/// at worst break-even with the exact scan. Narrower pools buy the
/// speed (≈18× at 256k targets with pool 256); see `BENCH_ann.json`
/// for the measured recall/speedup curve.
pub const DEFAULT_POOL: usize = 4096;

/// HNSW construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HnswParams {
    /// Max neighbors per node on layers above 0 (layer 0 keeps `2·m`).
    pub m: usize,
    /// Size of the dynamic candidate list during construction.
    pub ef_construction: usize,
    /// Seed for the layer-assignment RNG.
    pub seed: u64,
}

impl Default for HnswParams {
    fn default() -> Self {
        HnswParams {
            m: 16,
            ef_construction: 100,
            seed: 42,
        }
    }
}

/// On-disk header version for the `ANH` section.
const ANN_VERSION: u64 = 1;

/// A built (or mapped) HNSW index over one [`ScoreMatrix`]'s rows.
///
/// Adjacency is flat: one concatenated `neighbors` array, per-layer
/// CSR `offsets` (length `layers·(rows+1)`, each layer's run starting
/// at 0), and per-layer `seg` starts (length `layers+1`) into
/// `neighbors`. Layer 0 holds every inserted node; higher layers thin
/// out geometrically, with `entry` the sole occupant of the top layer's
/// greedy-descent start.
#[derive(Debug, Clone, Default)]
pub struct HnswIndex {
    m: u64,
    ef_construction: u64,
    seed: u64,
    /// Row count of the source matrix (valid or not).
    rows: usize,
    /// Inserted (valid) rows.
    count: usize,
    /// Number of layers (0 for an empty index).
    layers: usize,
    /// Entry-point row index for greedy descent.
    entry: usize,
    /// Per-layer starts into `neighbors`; `seg[layers]` is its length.
    seg: FlatBuf<u64>,
    /// Per-layer CSR offsets, relative to the layer's segment start.
    offsets: FlatBuf<u32>,
    /// Concatenated neighbor row indices for every (layer, node).
    neighbors: FlatBuf<u32>,
}

impl PartialEq for HnswIndex {
    fn eq(&self, other: &Self) -> bool {
        self.m == other.m
            && self.ef_construction == other.ef_construction
            && self.seed == other.seed
            && self.rows == other.rows
            && self.count == other.count
            && self.layers == other.layers
            && self.entry == other.entry
            && self.seg[..] == other.seg[..]
            && self.offsets[..] == other.offsets[..]
            && self.neighbors[..] == other.neighbors[..]
    }
}

/// Max-heap entry ordered by distance, ties by ascending row index
/// (larger index compares greater, so ties evict the larger index
/// first — any consistent rule works; this one is deterministic).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cand {
    dist: f32,
    node: u32,
}

impl Eq for Cand {}

impl Ord for Cand {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist
            .total_cmp(&other.dist)
            .then_with(|| self.node.cmp(&other.node))
    }
}

impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// O(1)-reset visited set: one byte stamp per row (32 KB at 32k rows,
/// resident in L1), refilled with zeros once every 255 layer walks.
#[derive(Default)]
struct Visited {
    stamp: Vec<u8>,
    generation: u8,
}

impl Visited {
    /// Re-sizes (and clears) the set when the row count changes.
    fn fit(&mut self, rows: usize) {
        if self.stamp.len() != rows {
            self.stamp = vec![0; rows];
            self.generation = 0;
        }
    }

    fn next_generation(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamp.fill(0);
            self.generation = 1;
        }
    }

    /// True when `i` was not yet visited this generation (and marks it).
    fn insert(&mut self, i: u32) -> bool {
        let slot = &mut self.stamp[i as usize];
        if *slot == self.generation {
            false
        } else {
            *slot = self.generation;
            true
        }
    }
}

/// Reusable walk scratch: everything one graph walk needs besides the
/// index — the byte-per-row visited set, the frontier and best heaps,
/// the gather and score buffers, and the buffer that carries each
/// layer's result to the next layer as its entry points.
/// [`HnswIndex::search_with`], [`HnswIndex::build`] and
/// [`HnswIndex::insert`] all walk through one, which clears its buffers
/// between walks instead of reallocating them, so a warm scratch keeps
/// its capacity from walk to walk (`BENCH_ann.json` last measured the
/// saving, as `scratch_alloc`, at 6d7e77d). Reuse never changes results — the visited set is
/// logically cleared (by generation bump) at every layer walk — and a
/// scratch sized for one matrix re-sizes itself when handed a matrix
/// with a different row count.
#[derive(Default)]
pub struct SearchScratch {
    visited: Visited,
    frontier: BinaryHeap<Reverse<Cand>>,
    best: BinaryHeap<Cand>,
    /// Unvisited neighbours of the node being expanded.
    gathered: Vec<u32>,
    /// Their distances from the query, in `gathered` order.
    scores: Vec<f32>,
    /// A layer walk's entry points in, its result out.
    eps: Vec<Cand>,
}

impl SearchScratch {
    /// An empty scratch; sized lazily on first use.
    pub fn new() -> Self {
        SearchScratch::default()
    }

    /// Starts a walk over a `rows`-row matrix from the single entry
    /// point `entry`.
    fn start(&mut self, rows: usize, entry: Cand) {
        self.visited.fit(rows);
        self.eps.clear();
        self.eps.push(entry);
    }
}

/// Cosine distance between a query row and target row `t` (both
/// pre-normalized): `1 − dot`.
#[inline]
fn dist_to(matrix: &ScoreMatrix, qrow: &[f32], t: u32) -> f32 {
    1.0 - dot_unrolled(qrow, matrix.row(t as usize))
}

/// Loads one `f32` from each 64-byte line of `row` — every 16th, plus
/// the last for a row that does not start on a line — and folds them,
/// so the loads must happen. Issued for every gathered neighbour before
/// any is scored, the misses run in parallel instead of one after
/// another behind the heap's branches.
#[inline]
fn touch(row: &[f32]) -> u32 {
    let last = row.last().map_or(0, |x| x.to_bits());
    row.iter()
        .step_by(16)
        .fold(last, |acc, x| acc ^ x.to_bits())
}

/// Greedy beam search within one layer: starting from the entry points
/// in `s.eps`, expands the closest unexpanded candidate until the `ef`
/// best found can no longer improve, and leaves the best ≤`ef` nodes in
/// `s.eps`, sorted by ascending `(distance, index)`.
///
/// Each expansion gathers first — marks its unvisited neighbours and
/// touches their rows — then dots the gathered rows four at a time, then
/// runs the heap operations in list order. The visits, distances and
/// heap operations are those of a loop that scores each neighbour as it
/// marks it, in the same order.
fn search_layer<'a, F>(
    matrix: &ScoreMatrix,
    qrow: &[f32],
    ef: usize,
    s: &mut SearchScratch,
    neigh: F,
) where
    F: Fn(u32) -> &'a [u32],
{
    let SearchScratch {
        visited,
        frontier,
        best,
        gathered,
        scores,
        eps,
    } = s;
    visited.next_generation();
    frontier.clear();
    best.clear();
    for &ep in eps.iter() {
        if visited.insert(ep.node) {
            frontier.push(Reverse(ep));
            best.push(ep);
        }
    }
    while best.len() > ef {
        best.pop();
    }
    let mut touched = 0u32;
    while let Some(Reverse(c)) = frontier.pop() {
        if best.len() >= ef {
            if let Some(worst) = best.peek() {
                if c.dist > worst.dist {
                    break;
                }
            }
        }
        gathered.clear();
        for &nb in neigh(c.node) {
            if visited.insert(nb) {
                gathered.push(nb);
                touched ^= touch(matrix.row(nb as usize));
            }
        }
        scores.clear();
        let mut fours = gathered.chunks_exact(4);
        for g in &mut fours {
            let rows = [0, 1, 2, 3].map(|j| matrix.row(g[j] as usize));
            scores.extend(dot_unrolled4(qrow, rows).map(|d| 1.0 - d));
        }
        scores.extend(fours.remainder().iter().map(|&nb| dist_to(matrix, qrow, nb)));
        for (&nb, &dist) in gathered.iter().zip(scores.iter()) {
            let cand = Cand { dist, node: nb };
            if best.len() < ef || cand < *best.peek().expect("ef > 0") {
                frontier.push(Reverse(cand));
                best.push(cand);
                if best.len() > ef {
                    best.pop();
                }
            }
        }
    }
    std::hint::black_box(touched);
    eps.clear();
    eps.extend(best.drain());
    eps.sort_unstable();
}

/// The paper's `SELECT-NEIGHBORS-HEURISTIC`, with reusable buffers.
#[derive(Default)]
struct Selection {
    /// The selected neighbours, with their distances from the owner.
    kept: Vec<Cand>,
    pruned: Vec<Cand>,
}

impl Selection {
    /// From `cands` sorted by ascending distance, keeps one only when it
    /// is closer to the owner than to every already-kept neighbour
    /// (diversity), then backfills with the closest pruned candidates up
    /// to `m_max`. The result is left in `kept`.
    fn run(&mut self, matrix: &ScoreMatrix, cands: &[Cand], m_max: usize) {
        let Selection { kept, pruned } = self;
        kept.clear();
        pruned.clear();
        for c in cands {
            if kept.len() >= m_max {
                break;
            }
            if diverse(matrix, c, kept) {
                kept.push(*c);
            } else {
                pruned.push(*c);
            }
        }
        let room = m_max.saturating_sub(kept.len());
        kept.extend(pruned.iter().take(room));
    }
}

/// True when candidate `c` is farther from every `kept` neighbour than
/// from the owner (`c.dist`). The kept rows are dotted four at a time; a
/// group with a failure ends the check, so the answer is that of a
/// check that stops at the first failure.
fn diverse(matrix: &ScoreMatrix, c: &Cand, kept: &[Cand]) -> bool {
    let crow = matrix.row(c.node as usize);
    let mut fours = kept.chunks_exact(4);
    for g in &mut fours {
        let rows = [0, 1, 2, 3].map(|j| matrix.row(g[j].node as usize));
        if !dot_unrolled4(crow, rows).iter().all(|&d| 1.0 - d > c.dist) {
            return false;
        }
    }
    fours
        .remainder()
        .iter()
        .all(|s| 1.0 - dot_unrolled(crow, matrix.row(s.node as usize)) > c.dist)
}

/// One layer of the build-time adjacency: `rows × stride` node slots,
/// as many distance slots, and a length per node — the bounded per-node
/// edge set, edited in place. Each edge keeps its distance from its
/// owner, set when the edge is made (see the [module docs](self)), so an
/// overflowing list re-selects from stored distances.
struct Layer {
    /// Neighbour cap: `2·m` on layer 0, `m` above.
    m_max: usize,
    /// Slots per node: room for one edge past the cap.
    stride: usize,
    nodes: Vec<u32>,
    dists: Vec<f32>,
    len: Vec<u32>,
    /// Lists inflated from a persisted index, whose slots hold no
    /// distances until their first re-selection computes them.
    unscored: Vec<bool>,
}

impl Layer {
    /// An empty layer over `rows` nodes whose lists can hold `longest`
    /// edges as well as the cap. A list of distinct nodes never holds
    /// more than `rows`, so the slots count the cap at most that high.
    fn new(rows: usize, m_max: usize, longest: usize) -> Self {
        let stride = m_max.min(rows).max(longest) + 1;
        Layer {
            m_max,
            stride,
            nodes: vec![0; rows * stride],
            dists: vec![0.0; rows * stride],
            len: vec![0; rows],
            unscored: vec![false; rows],
        }
    }

    /// `n`'s slot range.
    #[inline]
    fn span(&self, n: usize) -> std::ops::Range<usize> {
        let s = n * self.stride;
        s..s + self.len[n] as usize
    }

    #[inline]
    fn neighbors(&self, n: u32) -> &[u32] {
        &self.nodes[self.span(n as usize)]
    }

    /// Replaces `n`'s list with `edges`, distances included.
    fn set(&mut self, n: usize, edges: &[Cand]) {
        let s = n * self.stride;
        for (j, e) in edges.iter().enumerate() {
            self.nodes[s + j] = e.node;
            self.dists[s + j] = e.dist;
        }
        self.len[n] = edges.len() as u32;
        self.unscored[n] = false;
    }

    /// Adds `edge` to `owner`'s list and, when that overflows the cap,
    /// re-selects the list from its stored distances (recomputed once
    /// for an [`unscored`](Layer::unscored) list). `owned` and `sel` are
    /// scratch.
    fn link(
        &mut self,
        matrix: &ScoreMatrix,
        owner: usize,
        edge: Cand,
        owned: &mut Vec<Cand>,
        sel: &mut Selection,
    ) {
        let at = owner * self.stride + self.len[owner] as usize;
        self.nodes[at] = edge.node;
        self.dists[at] = edge.dist;
        self.len[owner] += 1;
        // Only a hostile persisted list (one with repeats) can fill its
        // slots below `m_max`; capping at the slots keeps it in bounds.
        let cap = self.m_max.min(self.stride - 1);
        if self.len[owner] as usize <= cap {
            return;
        }
        let span = self.span(owner);
        owned.clear();
        if self.unscored[owner] {
            let orow = matrix.row(owner);
            owned.extend(self.nodes[span].iter().map(|&x| Cand {
                dist: dist_to(matrix, orow, x),
                node: x,
            }));
        } else {
            owned.extend(
                self.nodes[span.clone()]
                    .iter()
                    .zip(&self.dists[span])
                    .map(|(&node, &dist)| Cand { dist, node }),
            );
        }
        owned.sort_unstable();
        sel.run(matrix, owned, cap);
        self.set(owner, &sel.kept);
    }

    /// Drops every edge to a `dead` node, keeping the rest in order.
    fn retain_live(&mut self, n: usize, dead: &[bool]) {
        let s = n * self.stride;
        let mut kept = 0;
        for j in 0..self.len[n] as usize {
            let x = self.nodes[s + j];
            if !dead[x as usize] {
                self.nodes[s + kept] = x;
                self.dists[s + kept] = self.dists[s + j];
                kept += 1;
            }
        }
        self.len[n] = kept as u32;
    }
}

/// Build-time adjacency: one [`Layer`] per level, with the entry point
/// and member count. [`HnswIndex::build`] grows one from empty,
/// [`HnswIndex::insert`] inflates one from the persisted CSR, and both
/// flatten it back with [`Graph::store`].
struct Graph {
    rows: usize,
    m: usize,
    layers: Vec<Layer>,
    entry: usize,
    count: usize,
}

impl Graph {
    fn new(rows: usize, m: usize) -> Self {
        Graph {
            rows,
            m,
            layers: Vec::new(),
            entry: 0,
            count: 0,
        }
    }

    /// Adds an empty top layer whose lists can hold `longest` edges.
    fn push_layer(&mut self, longest: usize) {
        let m_max = if self.layers.is_empty() { 2 * self.m } else { self.m };
        self.layers.push(Layer::new(self.rows, m_max, longest));
    }

    /// Inflates `index` over a matrix of `rows ≥ index.rows` rows. Its
    /// lists start [`unscored`](Layer::unscored): a delta computes the
    /// distances of the few lists it re-selects, not of every edge.
    fn inflate(index: &HnswIndex, rows: usize, m: usize) -> Self {
        let mut g = Graph::new(rows, m);
        for l in 0..index.layers {
            let longest = (0..index.rows)
                .map(|n| index.neighbors_of(l, n).len())
                .max()
                .unwrap_or(0);
            g.push_layer(longest);
            let layer = g.layers.last_mut().expect("just pushed");
            for n in 0..index.rows {
                let adj = index.neighbors_of(l, n);
                let s = n * layer.stride;
                layer.nodes[s..s + adj.len()].copy_from_slice(adj);
                layer.len[n] = adj.len() as u32;
                layer.unscored[n] = !adj.is_empty();
            }
        }
        g.entry = index.entry;
        g.count = index.count;
        g
    }

    /// Writes the graph into `index` in the persisted per-layer CSR form.
    fn store(&self, index: &mut HnswIndex) {
        let mut seg: Vec<u64> = Vec::with_capacity(self.layers.len() + 1);
        let mut offsets: Vec<u32> = Vec::with_capacity(self.layers.len() * (self.rows + 1));
        let mut neighbors: Vec<u32> = Vec::new();
        seg.push(0);
        for layer in &self.layers {
            let base = neighbors.len();
            offsets.push(0);
            for n in 0..self.rows {
                neighbors.extend_from_slice(layer.neighbors(n as u32));
                offsets.push((neighbors.len() - base) as u32);
            }
            seg.push(neighbors.len() as u64);
        }
        index.rows = self.rows;
        index.count = self.count;
        index.layers = self.layers.len();
        index.entry = self.entry;
        index.seg = seg.into();
        index.offsets = offsets.into();
        index.neighbors = neighbors.into();
    }
}

/// Scratch one build or insert reuses across its insertions.
#[derive(Default)]
struct BuildScratch {
    walk: SearchScratch,
    /// The new node's neighbours.
    picked: Selection,
    /// An overflowing list's candidates and their re-selection.
    owned: Vec<Cand>,
    reselect: Selection,
}

/// Inserts node `i` at `level` into `graph`. The one insertion routine
/// shared by [`HnswIndex::build`] and [`HnswIndex::insert`], so the
/// incremental path connects nodes exactly like construction does.
fn insert_node(
    matrix: &ScoreMatrix,
    graph: &mut Graph,
    s: &mut BuildScratch,
    i: usize,
    level: usize,
    efc: usize,
) {
    let node = i as u32;
    let qrow = matrix.row(i);
    let top = graph.layers.len();

    if graph.count == 0 {
        graph.layers.clear();
        for _ in 0..=level {
            graph.push_layer(0);
        }
        graph.entry = i;
        graph.count = 1;
        return;
    }

    let entry = graph.entry as u32;
    s.walk.start(
        graph.rows,
        Cand {
            dist: dist_to(matrix, qrow, entry),
            node: entry,
        },
    );
    // Greedy descent (ef = 1) through layers above the node's.
    for l in ((level + 1)..top).rev() {
        let layer = &graph.layers[l];
        search_layer(matrix, qrow, 1, &mut s.walk, |n| layer.neighbors(n));
    }
    // Connect on every layer the node occupies; each layer's candidates
    // stay in `s.walk.eps` as the next layer's entry points. A candidate's
    // distance from the node is also the node's distance from it, so the
    // reverse edge stores it too.
    for l in (0..=level.min(top - 1)).rev() {
        let layer = &mut graph.layers[l];
        search_layer(matrix, qrow, efc, &mut s.walk, |n| layer.neighbors(n));
        s.picked.run(matrix, &s.walk.eps, graph.m);
        for c in &s.picked.kept {
            let back = Cand { dist: c.dist, node };
            layer.link(matrix, c.node as usize, back, &mut s.owned, &mut s.reselect);
        }
        layer.set(i, &s.picked.kept);
    }
    if level >= top {
        for _ in top..=level {
            graph.push_layer(0);
        }
        graph.entry = i;
    }
    graph.count += 1;
}

/// Deterministic layer assignment for one insertion draw `u ∈ [0, 1)`:
/// `floor(-ln(u)·mL)`, capped at 31.
#[inline]
fn level_from_draw(u: f64, ml: f64) -> usize {
    ((-u.max(f64::MIN_POSITIVE).ln() * ml).floor() as usize).min(31)
}

impl HnswIndex {
    /// Builds the index over `matrix`'s valid rows, sequentially and
    /// deterministically (see the [module docs](self)). `O(T·log T)`
    /// distance evaluations; intended for artifact build time, not the
    /// query path.
    pub fn build(matrix: &ScoreMatrix, params: &HnswParams) -> Self {
        let m = params.m.max(2);
        let efc = params.ef_construction.max(m);
        let mut index = HnswIndex {
            m: m as u64,
            ef_construction: efc as u64,
            seed: params.seed,
            ..HnswIndex::default()
        };
        Self::built_graph(matrix, m, efc, params.seed).store(&mut index);
        index
    }

    /// [`build`](HnswIndex::build)'s adjacency, before it is flattened.
    fn built_graph(matrix: &ScoreMatrix, m: usize, efc: usize, seed: u64) -> Graph {
        let ml = 1.0 / (m as f64).ln();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut graph = Graph::new(matrix.rows(), m);
        let mut scratch = BuildScratch::default();
        for i in 0..matrix.rows() {
            if !matrix.is_valid(i) {
                continue;
            }
            let u: f64 = rng.random();
            let level = level_from_draw(u, ml);
            insert_node(matrix, &mut graph, &mut scratch, i, level, efc);
        }
        graph
    }

    /// Incrementally applies a delta to the index — the ingest path, so
    /// a small corpus change survives without the full `O(T·log T)`
    /// rebuild of [`build`](HnswIndex::build).
    ///
    /// `matrix` is the **post-delta** matrix (its row count may have
    /// grown; never shrunk). `removed` lists nodes to take out of the
    /// adjacency (tombstoned targets, plus the old positions of updated
    /// rows); `added` lists valid rows of `matrix` to insert (appended
    /// targets, plus updated rows re-inserted against their new
    /// vectors). The caller keeps the lists duplicate-free and
    /// disjoint from the untouched membership: after the call the index
    /// covers exactly (old members − `removed`) ∪ `added`.
    ///
    /// Removed nodes disappear from every neighbor list, so a narrow
    /// pool can never surface a tombstoned row (which would duplicate
    /// the serving layer's separate invalid-row handling). If the entry
    /// point is removed, a new one is chosen deterministically (the
    /// deepest remaining node, ties to the smallest index) and empty
    /// top layers are dropped.
    ///
    /// New nodes connect through the **same** insertion routine as
    /// construction, with layer assignment drawn from a per-node seeded
    /// RNG (`seed ⊕ hash(row)`), so the result is deterministic and
    /// independent of how many deltas preceded it. The incremental
    /// index is *not* bit-identical to a fresh rebuild — HNSW adjacency
    /// is insertion-order-dependent — but retrieval exactness is
    /// unaffected: a pool ≥ the inserted-node count still returns every
    /// valid row (the exact scan's candidate set, property-pinned).
    pub fn insert(&mut self, matrix: &ScoreMatrix, added: &[usize], removed: &[usize]) {
        self.inserted_graph(matrix, added, removed).store(self);
    }

    /// [`insert`](HnswIndex::insert)'s adjacency, before it is flattened.
    fn inserted_graph(&self, matrix: &ScoreMatrix, added: &[usize], removed: &[usize]) -> Graph {
        let rows = matrix.rows();
        assert!(
            rows >= self.rows,
            "post-delta matrix cannot have fewer rows than the index"
        );
        let m = (self.m as usize).max(2);
        let efc = (self.ef_construction as usize).max(m);
        let ml = 1.0 / (m as f64).ln();

        // Re-inflate the flat CSR into build-time adjacency, grown to
        // the new row count.
        let mut graph = Graph::inflate(self, rows, m);

        // Drop removed nodes from the adjacency entirely.
        let mut dead = vec![false; rows];
        let mut dead_members = 0usize;
        for &r in removed {
            if r < self.rows && !dead[r] {
                dead[r] = true;
                dead_members += 1;
            }
        }
        if dead_members > 0 {
            for layer in &mut graph.layers {
                for n in 0..rows {
                    if dead[n] {
                        layer.len[n] = 0;
                    } else {
                        layer.retain_live(n, &dead);
                    }
                }
            }
            graph.count = graph.count.saturating_sub(dead_members);
            if graph.count == 0 {
                graph.layers.clear();
                graph.entry = 0;
            } else if dead[graph.entry] {
                // New entry: the deepest remaining node (highest layer
                // with any adjacency), ties to the smallest index.
                let deepest = graph
                    .layers
                    .iter()
                    .enumerate()
                    .rev()
                    .find_map(|(l, layer)| {
                        layer.len.iter().position(|&len| len > 0).map(|n| (l, n))
                    });
                match deepest {
                    Some((l, n)) => {
                        graph.entry = n;
                        graph.layers.truncate(l + 1);
                    }
                    None => {
                        // Members remain but no edges (e.g. one lone
                        // node): membership equals the matrix's valid
                        // rows minus the pending inserts.
                        let mut in_added = vec![false; rows];
                        for &a in added {
                            if a < rows {
                                in_added[a] = true;
                            }
                        }
                        graph.entry = (0..rows)
                            .find(|&n| matrix.is_valid(n) && !dead[n] && !in_added[n])
                            .unwrap_or(0);
                        graph.layers.truncate(1);
                    }
                }
            }
        }

        // Insert the delta rows through the construction routine, each
        // with an order-independent deterministic layer draw.
        let mut scratch = BuildScratch::default();
        let mut to_add: Vec<usize> = added
            .iter()
            .copied()
            .filter(|&a| a < rows && matrix.is_valid(a))
            .collect();
        to_add.sort_unstable();
        to_add.dedup();
        for i in to_add {
            let mut rng =
                SmallRng::seed_from_u64(self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let u: f64 = rng.random();
            let level = level_from_draw(u, ml);
            insert_node(matrix, &mut graph, &mut scratch, i, level, efc);
        }
        graph
    }

    /// Max neighbors per upper-layer node.
    pub fn m(&self) -> usize {
        self.m as usize
    }

    /// Construction-time beam width.
    pub fn ef_construction(&self) -> usize {
        self.ef_construction as usize
    }

    /// Layer-assignment seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Row count of the matrix the index was built over.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of inserted (valid) rows.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Number of layers (0 for an empty index).
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Total stored neighbor references across all layers.
    pub fn edges(&self) -> usize {
        self.neighbors.len()
    }

    /// True when the index holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Neighbor list of `node` on `layer`.
    #[inline]
    fn neighbors_of(&self, layer: usize, node: usize) -> &[u32] {
        let base = self.seg[layer] as usize;
        let row0 = layer * (self.rows + 1) + node;
        let s = self.offsets[row0] as usize;
        let e = self.offsets[row0 + 1] as usize;
        &self.neighbors[base + s..base + e]
    }

    /// Retrieves a widened candidate pool for `qrow` (length =
    /// `matrix.dim()`): up to `pool` valid row indices sorted by
    /// ascending `(cosine distance, index)`. `matrix` must be the
    /// matrix the index was built over.
    ///
    /// When `pool ≥` the inserted-node count the pool is simply every
    /// valid row — by construction the exact scan's candidate set, so a
    /// wide-open pool reproduces exact results bit-for-bit.
    pub fn search(&self, matrix: &ScoreMatrix, qrow: &[f32], pool: usize) -> Vec<usize> {
        self.search_with(matrix, qrow, pool, pool, &mut SearchScratch::new())
    }

    /// [`search`](HnswIndex::search) with an explicit layer-0 beam
    /// width and a caller-owned [`SearchScratch`].
    ///
    /// `ef` is the beam the graph walk explores; the best `pool` of
    /// the explored nodes are returned. `ef` below `pool` is clamped up
    /// to `pool` (a beam can't return more nodes than it explored), so
    /// `ef == pool` — the [`search`](HnswIndex::search) default — is
    /// the floor, and raising `ef` buys recall without widening the
    /// exact-rescore pool downstream. A `scratch` reused across queries
    /// keeps its buffers between walks, so the returned pool is the only
    /// buffer each call must create, and it is bit-identical to a fresh
    /// scratch per call, whatever `pool`, `ef` or matrix it walked before.
    pub fn search_with(
        &self,
        matrix: &ScoreMatrix,
        qrow: &[f32],
        pool: usize,
        ef: usize,
        scratch: &mut SearchScratch,
    ) -> Vec<usize> {
        assert_eq!(
            matrix.rows(),
            self.rows,
            "index was built over a different matrix shape"
        );
        if self.layers == 0 || pool == 0 {
            return Vec::new();
        }
        if pool >= self.count {
            return (0..self.rows).filter(|&i| matrix.is_valid(i)).collect();
        }
        let beam = ef.max(pool);
        scratch.start(
            self.rows,
            Cand {
                dist: dist_to(matrix, qrow, self.entry as u32),
                node: self.entry as u32,
            },
        );
        for l in (1..self.layers).rev() {
            search_layer(matrix, qrow, 1, scratch, |n| self.neighbors_of(l, n as usize));
        }
        search_layer(matrix, qrow, beam, scratch, |n| self.neighbors_of(0, n as usize));
        scratch.eps.iter().take(pool).map(|c| c.node as usize).collect()
    }

    /// Tag of this index's header section under `slot`.
    pub fn header_tag(slot: u8) -> SectionTag {
        [b'A', b'N', b'H', slot]
    }

    /// Tag of this index's per-layer segment-start section under `slot`.
    pub fn seg_tag(slot: u8) -> SectionTag {
        [b'A', b'N', b'S', slot]
    }

    /// Tag of this index's CSR-offsets section under `slot`.
    pub fn offsets_tag(slot: u8) -> SectionTag {
        [b'A', b'N', b'O', slot]
    }

    /// Tag of this index's neighbor-array section under `slot`.
    pub fn neighbors_tag(slot: u8) -> SectionTag {
        [b'A', b'N', b'E', slot]
    }

    /// True when `container` carries an index under `slot`.
    pub fn present(container: &Container<'_>, slot: u8) -> bool {
        container.section(Self::header_tag(slot)).is_some()
    }

    /// Serializes the index into `TDZ1` sections under `slot`. The
    /// adjacency arrays are borrowed by the writer — saving streams
    /// them without a second copy.
    pub fn write_sections<'a>(&'a self, slot: u8, w: &mut ContainerWriter<'a>) {
        w.add(
            Self::header_tag(slot),
            tdmatch_graph::container::pod_bytes(&[
                ANN_VERSION,
                self.m,
                self.ef_construction,
                self.seed,
                self.rows as u64,
                self.count as u64,
                self.layers as u64,
                self.entry as u64,
            ]),
        );
        w.add_pod(Self::seg_tag(slot), &self.seg);
        w.add_pod(Self::offsets_tag(slot), &self.offsets);
        w.add_pod(Self::neighbors_tag(slot), &self.neighbors);
    }

    /// Reassembles an index over `targets` from container sections under
    /// `slot`, zero-copy, and validates the whole structure — row count,
    /// segment starts, per-layer offset monotonicity, neighbor ranges,
    /// entry point — so [`search`](HnswIndex::search) over a mapped index
    /// cannot go out of bounds. The entry point and every neighbor must
    /// be a row `targets` holds: no build or insert links a missing row,
    /// and a walk that pooled one would rank it twice, once more among
    /// the missing rows a pool is extended with. Section CRCs are
    /// verified here, on first access.
    pub fn from_sections(
        storage: &Storage,
        container: &Container<'_>,
        slot: u8,
        targets: &ScoreMatrix,
    ) -> Result<Self, DecodeError> {
        let header = container.require(Self::header_tag(slot))?.as_u64s()?;
        let &[version, m, ef_construction, seed, rows, count, layers, entry] = header else {
            return Err(DecodeError::Invalid("ann header shape"));
        };
        if version != ANN_VERSION {
            return Err(DecodeError::Invalid("unsupported ann index version"));
        }
        let rows = usize::try_from(rows).map_err(|_| DecodeError::Corrupt)?;
        let count = usize::try_from(count).map_err(|_| DecodeError::Corrupt)?;
        let layers = usize::try_from(layers).map_err(|_| DecodeError::Corrupt)?;
        let entry = usize::try_from(entry).map_err(|_| DecodeError::Corrupt)?;
        if rows != targets.rows() {
            return Err(DecodeError::Invalid("ann index shape disagrees with matrix"));
        }
        if m < 2 || ef_construction < m || layers > 64 || count > rows {
            return Err(DecodeError::Invalid("ann header out of range"));
        }
        if (layers == 0) != (count == 0) {
            return Err(DecodeError::Invalid("ann layer/count mismatch"));
        }
        if layers > 0 && entry >= rows {
            return Err(DecodeError::Invalid("ann entry point out of range"));
        }
        if layers > 0 && !targets.is_valid(entry) {
            return Err(DecodeError::Invalid("ann entry point is a missing row"));
        }
        let seg = FlatBuf::<u64>::from_section(storage, container.require(Self::seg_tag(slot))?)?;
        let offsets =
            FlatBuf::<u32>::from_section(storage, container.require(Self::offsets_tag(slot))?)?;
        let neighbors =
            FlatBuf::<u32>::from_section(storage, container.require(Self::neighbors_tag(slot))?)?;
        if seg.len() != layers + 1 || seg[0] != 0 {
            return Err(DecodeError::Invalid("ann segment table shape"));
        }
        if *seg.last().expect("non-empty") != neighbors.len() as u64 {
            return Err(DecodeError::Invalid("ann segment/neighbor length mismatch"));
        }
        let per_layer = rows
            .checked_add(1)
            .and_then(|x| x.checked_mul(layers))
            .ok_or(DecodeError::Invalid("ann offsets shape overflows"))?;
        if offsets.len() != per_layer {
            return Err(DecodeError::Invalid("ann offsets length mismatch"));
        }
        for l in 0..layers {
            let lo = seg[l];
            let hi = seg[l + 1];
            if lo > hi {
                return Err(DecodeError::Invalid("ann segment table not monotone"));
            }
            let run = &offsets[l * (rows + 1)..(l + 1) * (rows + 1)];
            if run[0] != 0 || run[rows] as u64 != hi - lo {
                return Err(DecodeError::Invalid("ann layer offsets bounds"));
            }
            if run.windows(2).any(|w| w[0] > w[1]) {
                return Err(DecodeError::Invalid("ann layer offsets not monotone"));
            }
        }
        if let Some(&n) = neighbors
            .iter()
            .find(|&&n| n as usize >= rows || !targets.is_valid(n as usize))
        {
            return Err(DecodeError::Invalid(if n as usize >= rows {
                "ann neighbor index out of range"
            } else {
                "ann neighbor is a missing row"
            }));
        }
        Ok(HnswIndex {
            m,
            ef_construction,
            seed,
            rows,
            count,
            layers,
            entry,
            seg,
            offsets,
            neighbors,
        })
    }

    /// Converts the adjacency arrays into owned `Vec`s, detaching the
    /// index from container storage. No-op for built indexes.
    pub fn into_owned(mut self) -> Self {
        self.seg.make_mut();
        self.offsets.make_mut();
        self.neighbors.make_mut();
        self
    }

    /// True when the index still borrows container storage.
    pub fn is_zero_copy(&self) -> bool {
        self.seg.is_shared() || self.offsets.is_shared() || self.neighbors.is_shared()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::TopK;

    /// Deterministic pseudo-random unit-ish rows (normalized by the
    /// matrix on insert).
    fn random_matrix(rows: usize, dim: usize, seed: u64) -> ScoreMatrix {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1 << 24) as f32 - 0.5
        };
        let mut m = ScoreMatrix::invalid(rows, dim);
        for i in 0..rows {
            if i % 17 == 11 {
                continue; // leave some rows invalid
            }
            let row: Vec<f32> = (0..dim).map(|_| next()).collect();
            m.set_row(i, &row);
        }
        m
    }

    fn exact_top_k(matrix: &ScoreMatrix, qrow: &[f32], k: usize) -> Vec<(usize, f32)> {
        let mut top = TopK::new(k);
        for t in 0..matrix.rows() {
            let s = if matrix.is_valid(t) {
                dot_unrolled(qrow, matrix.row(t))
            } else {
                -1.0
            };
            top.push(t, s);
        }
        top.drain_sorted()
    }

    #[test]
    fn build_is_deterministic() {
        let m = random_matrix(400, 24, 7);
        let a = HnswIndex::build(&m, &HnswParams::default());
        let b = HnswIndex::build(&m, &HnswParams::default());
        assert_eq!(a, b);
        let c = HnswIndex::build(
            &m,
            &HnswParams {
                seed: 43,
                ..HnswParams::default()
            },
        );
        assert_ne!(a, c, "a different seed must change layer assignment");
    }

    #[test]
    fn empty_and_tiny_matrices() {
        let empty = ScoreMatrix::invalid(0, 8);
        let idx = HnswIndex::build(&empty, &HnswParams::default());
        assert!(idx.is_empty());
        assert_eq!(idx.search(&empty, &[0.0; 8], 10), Vec::<usize>::new());

        let all_invalid = ScoreMatrix::invalid(5, 8);
        let idx = HnswIndex::build(&all_invalid, &HnswParams::default());
        assert!(idx.is_empty());
        assert_eq!(idx.layers(), 0);

        let mut one = ScoreMatrix::invalid(3, 4);
        one.set_row(1, &[1.0, 0.0, 0.0, 0.0]);
        let idx = HnswIndex::build(&one, &HnswParams::default());
        assert_eq!(idx.count(), 1);
        assert_eq!(idx.search(&one, &[0.5, 0.5, 0.0, 0.0], 8), vec![1]);
    }

    #[test]
    fn wide_open_pool_is_every_valid_row() {
        let m = random_matrix(300, 16, 3);
        let idx = HnswIndex::build(&m, &HnswParams::default());
        let all: Vec<usize> = (0..m.rows()).filter(|&i| m.is_valid(i)).collect();
        let got = idx.search(&m, m.row(0), m.rows());
        assert_eq!(got, all);
    }

    #[test]
    fn pool_is_unique_valid_and_bounded() {
        let m = random_matrix(500, 16, 9);
        let idx = HnswIndex::build(&m, &HnswParams::default());
        let pool = idx.search(&m, m.row(2), 64);
        assert!(pool.len() <= 64);
        assert!(!pool.is_empty());
        let mut sorted = pool.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), pool.len(), "pool must be duplicate-free");
        assert!(pool.iter().all(|&t| m.is_valid(t)));
    }

    #[test]
    fn recall_is_high_on_a_small_corpus() {
        let m = random_matrix(1000, 16, 5);
        let idx = HnswIndex::build(&m, &HnswParams::default());
        let k = 10;
        let mut hit = 0usize;
        let mut total = 0usize;
        for q in (0..m.rows()).step_by(31) {
            if !m.is_valid(q) {
                continue;
            }
            let qrow = m.row(q);
            let truth: Vec<usize> = exact_top_k(&m, qrow, k)
                .into_iter()
                .filter(|&(_, s)| s > -1.0)
                .map(|(t, _)| t)
                .collect();
            let pool = idx.search(&m, qrow, 200);
            hit += truth.iter().filter(|t| pool.contains(t)).count();
            total += truth.len();
        }
        assert!(total > 0);
        let recall = hit as f64 / total as f64;
        assert!(recall >= 0.9, "recall@{k} = {recall:.3} below 0.9");
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch_bit_for_bit() {
        let m = random_matrix(600, 16, 21);
        let idx = HnswIndex::build(&m, &HnswParams::default());
        let m2 = random_matrix(150, 16, 22);
        let idx2 = HnswIndex::build(&m2, &HnswParams::default());
        // One scratch across both matrices and every width, for well
        // over 255 layer walks, so the byte stamps wrap and refill.
        let mut scratch = SearchScratch::new();
        let widths = [(48, 48), (8, 8), (32, 128), (1, 1), (64, 16)];
        for round in 0..3 {
            for q in (0..m.rows()).step_by(29) {
                for &(pool, ef) in &widths {
                    let (idx, m) = if (q + round) % 3 == 0 {
                        (&idx2, &m2)
                    } else {
                        (&idx, &m)
                    };
                    let qrow = m.row(q % m.rows());
                    let fresh = idx.search_with(m, qrow, pool, ef, &mut SearchScratch::new());
                    let reused = idx.search_with(m, qrow, pool, ef, &mut scratch);
                    assert_eq!(fresh, reused, "query {q}, pool {pool}, ef {ef}, round {round}");
                }
            }
        }
    }

    #[test]
    fn wider_ef_keeps_pool_bounded_and_helps_recall() {
        let m = random_matrix(1000, 16, 5);
        let idx = HnswIndex::build(&m, &HnswParams::default());
        let mut scratch = SearchScratch::new();
        let mut recall_at = |ef: usize| {
            let (mut hit, mut total) = (0usize, 0usize);
            for q in (0..m.rows()).step_by(31) {
                if !m.is_valid(q) {
                    continue;
                }
                let qrow = m.row(q);
                let truth: Vec<usize> = exact_top_k(&m, qrow, 10)
                    .into_iter()
                    .filter(|&(_, s)| s > -1.0)
                    .map(|(t, _)| t)
                    .collect();
                let pool = idx.search_with(&m, qrow, 32, ef, &mut scratch);
                assert!(pool.len() <= 32, "ef must not widen the pool");
                hit += truth.iter().filter(|t| pool.contains(t)).count();
                total += truth.len();
            }
            hit as f64 / total.max(1) as f64
        };
        let narrow = recall_at(32); // ef == pool: the `search` default
        let wide = recall_at(256);
        assert!(
            wide >= narrow,
            "widening the beam lost recall: ef 256 {wide:.3} < ef 32 {narrow:.3}"
        );
        // An ef below the pool is clamped up to it, not honored.
        assert_eq!(
            idx.search_with(&m, m.row(0), 64, 1, &mut scratch),
            idx.search(&m, m.row(0), 64),
        );
    }

    /// Asserts that every distance `g` stores equals a fresh `dist_to`
    /// from the list's owner, to the bit, and returns how many non-empty
    /// lists store distances. An unscored list stores none.
    fn assert_stored_distances_exact(m: &ScoreMatrix, g: &Graph) -> usize {
        let mut scored = 0;
        for (l, layer) in g.layers.iter().enumerate() {
            for n in (0..g.rows).filter(|&n| !layer.unscored[n]) {
                let span = layer.span(n);
                let edges = layer.nodes[span.clone()].iter().zip(&layer.dists[span]);
                for (&nb, &d) in edges {
                    let fresh = dist_to(m, m.row(n), nb);
                    assert_eq!(d.to_bits(), fresh.to_bits(), "layer {l}: {n} -> {nb}");
                }
                scored += usize::from(layer.len[n] > 0);
            }
        }
        scored
    }

    #[test]
    fn stored_edge_distances_are_fresh_distances() {
        let p = HnswParams::default();
        let m0 = random_matrix(500, 20, 31);
        let built = HnswIndex::built_graph(&m0, p.m, p.ef_construction, p.seed);
        assert!(built.layers.len() >= 2);
        assert!(assert_stored_distances_exact(&m0, &built) > m0.valid_rows());

        // Tombstone every 9th valid row, update every 13th other one and
        // append 20 rows, in one insert.
        let idx = HnswIndex::build(&m0, &p);
        let mut m = m0.clone();
        m.grow_rows(520);
        let valid: Vec<usize> = (0..500).filter(|&i| m0.is_valid(i)).collect();
        let dead: Vec<usize> = valid.iter().copied().step_by(9).collect();
        let updated: Vec<usize> = valid
            .iter()
            .copied()
            .filter(|i| !dead.contains(i))
            .step_by(13)
            .collect();
        for &d in &dead {
            m.clear_row(d);
        }
        let added: Vec<usize> = updated.iter().copied().chain(500..520).collect();
        for &i in &added {
            let row: Vec<f32> = (0..20).map(|d| ((i * 7 + d) as f32).sin()).collect();
            m.set_row(i, &row);
        }
        let removed: Vec<usize> = dead.iter().chain(&updated).copied().collect();
        let g = idx.inserted_graph(&m, &added, &removed);
        assert_stored_distances_exact(&m, &g);
        // The inserts re-selected (and so scored) some inflated lists,
        // and left the rest of them unscored.
        let layer = &g.layers[0];
        let inflated = (0..500).filter(|n| layer.len[*n] > 0 && !added.contains(n));
        let rescored = inflated.clone().filter(|&n| !layer.unscored[n]).count();
        assert!(rescored > 0 && rescored < inflated.count(), "{rescored} re-scored lists");
    }

    /// A CRC-valid file may hold lists no build writes: longer than
    /// `m_max`, or one neighbour repeated past the row count. `insert`
    /// keeps every list inside its slots, and the result validates.
    #[test]
    fn insert_keeps_hostile_persisted_lists_in_bounds() {
        // m 4: lists longer than the cap; m 16: a cap above the rows.
        for m in [4, 16] {
            let mut mat = random_matrix(24, 8, 41);
            let params = HnswParams {
                m,
                ..HnswParams::default()
            };
            let mut idx = HnswIndex::build(&mat, &params);
            let (rows, len) = (idx.rows, 30);
            idx.layers = 1;
            idx.seg = vec![0, (rows * len) as u64].into();
            idx.offsets = (0..=rows).map(|n| (n * len) as u32).collect::<Vec<_>>().into();
            idx.neighbors = vec![idx.entry as u32; rows * len].into();
            mat.grow_rows(30);
            for i in 24..30 {
                let row: Vec<f32> = (0..8).map(|d| ((i * 5 + d) as f32).cos()).collect();
                mat.set_row(i, &row);
            }
            let g = idx.inserted_graph(&mat, &(24..30).collect::<Vec<_>>(), &[]);
            for layer in &g.layers {
                assert!(layer.len.iter().all(|&l| (l as usize) < layer.stride), "m {m}");
            }
            g.store(&mut idx);
            let mut w = ContainerWriter::new();
            idx.write_sections(0, &mut w);
            let bytes = w.finish();
            let storage = Storage::from_bytes(&bytes);
            let container = storage.container().expect("parse");
            let loaded = HnswIndex::from_sections(&storage, &container, 0, &mat).expect("valid");
            assert_eq!(idx, loaded, "m {m}");
            assert!(!idx.search(&mat, mat.row(25), 4).is_empty());
        }
    }

    #[test]
    fn insert_appends_and_search_covers_them() {
        let mut m = random_matrix(300, 16, 3);
        let mut idx = HnswIndex::build(&m, &HnswParams::default());
        // Append 10 rows and insert them incrementally.
        m.grow_rows(310);
        let mut state = 77u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1 << 24) as f32 - 0.5
        };
        let added: Vec<usize> = (300..310).collect();
        for &i in &added {
            let row: Vec<f32> = (0..16).map(|_| next()).collect();
            m.set_row(i, &row);
        }
        idx.insert(&m, &added, &[]);
        assert_eq!(idx.rows(), 310);
        assert_eq!(idx.count(), m.valid_rows());
        // Wide-open pool is still every valid row (exact-scan candidate set).
        let all: Vec<usize> = (0..m.rows()).filter(|&i| m.is_valid(i)).collect();
        assert_eq!(idx.search(&m, m.row(0), m.rows()), all);
        // A narrow pool can reach an inserted node when queried by it.
        let pool = idx.search(&m, m.row(305), 32);
        assert!(pool.contains(&305), "inserted node unreachable: {pool:?}");
    }

    #[test]
    fn insert_is_deterministic_and_order_independent_per_node() {
        let mut m = random_matrix(200, 12, 9);
        let idx0 = HnswIndex::build(&m, &HnswParams::default());
        m.grow_rows(220);
        for i in 200..220 {
            let row: Vec<f32> = (0..12).map(|d| ((i * 31 + d) as f32).sin()).collect();
            m.set_row(i, &row);
        }
        let added: Vec<usize> = (200..220).collect();
        let mut a = idx0.clone();
        a.insert(&m, &added, &[]);
        let mut b = idx0.clone();
        b.insert(&m, &added, &[]);
        assert_eq!(a, b, "same delta must produce the same index");
    }

    #[test]
    fn insert_removes_tombstones_from_every_neighbor_list() {
        let m0 = random_matrix(400, 16, 5);
        let mut idx = HnswIndex::build(&m0, &HnswParams::default());
        let dead: Vec<usize> = (0..m0.rows()).filter(|&i| m0.is_valid(i)).step_by(7).collect();
        let mut m = m0.clone();
        for &d in &dead {
            m.clear_row(d);
        }
        idx.insert(&m, &[], &dead);
        assert_eq!(idx.count(), m.valid_rows());
        // No neighbor list anywhere references a removed node.
        for l in 0..idx.layers() {
            for n in 0..idx.rows() {
                for &nb in idx.neighbors_of(l, n) {
                    assert!(!dead.contains(&(nb as usize)), "layer {l} node {n} -> {nb}");
                }
            }
        }
        // Narrow pools never surface a tombstoned row.
        for q in (0..m.rows()).step_by(41) {
            if !m.is_valid(q) {
                continue;
            }
            let pool = idx.search(&m, m.row(q), 24);
            assert!(pool.iter().all(|&t| m.is_valid(t)));
        }
    }

    #[test]
    fn insert_survives_entry_removal_and_total_teardown() {
        let m0 = random_matrix(120, 8, 13);
        let idx0 = HnswIndex::build(&m0, &HnswParams::default());
        let entry_node = idx0.entry;

        // Remove the entry point: a new one is chosen and search works.
        let mut m = m0.clone();
        m.clear_row(entry_node);
        let mut idx = idx0.clone();
        idx.insert(&m, &[], &[entry_node]);
        assert_eq!(idx.count(), m.valid_rows());
        assert!(m.is_valid(idx.entry), "repaired entry must be a live row");
        let pool = idx.search(&m, m.row(idx.entry), 16);
        assert!(!pool.is_empty() && pool.iter().all(|&t| m.is_valid(t)));

        // Remove everything, then insert one fresh node: a fresh index.
        let all: Vec<usize> = (0..m0.rows()).filter(|&i| m0.is_valid(i)).collect();
        let mut empty = ScoreMatrix::invalid(m0.rows(), 8);
        let mut idx = idx0.clone();
        idx.insert(&empty, &[], &all);
        assert!(idx.is_empty());
        assert_eq!(idx.layers(), 0);
        empty.set_row(3, &[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        idx.insert(&empty, &[3], &[]);
        assert_eq!(idx.count(), 1);
        assert_eq!(idx.search(&empty, empty.row(3), 4), vec![3]);
    }

    #[test]
    fn inserted_index_roundtrips_through_sections() {
        let mut m = random_matrix(150, 12, 17);
        let mut idx = HnswIndex::build(&m, &HnswParams::default());
        m.grow_rows(160);
        for i in 150..160 {
            let row: Vec<f32> = (0..12).map(|d| ((i * 13 + d) as f32).cos()).collect();
            m.set_row(i, &row);
        }
        idx.insert(&m, &(150..160).collect::<Vec<_>>(), &[2, 5]);
        let mut w = ContainerWriter::new();
        idx.write_sections(0, &mut w);
        let bytes = w.finish();
        let storage = Storage::from_bytes(&bytes);
        let container = storage.container().expect("parse");
        let loaded = HnswIndex::from_sections(&storage, &container, 0, &m)
            .expect("post-insert index must satisfy full structural validation");
        assert_eq!(idx, loaded);
    }

    #[test]
    fn sections_roundtrip_bit_identical() {
        let m = random_matrix(300, 12, 11);
        let idx = HnswIndex::build(&m, &HnswParams::default());
        let mut w = ContainerWriter::new();
        idx.write_sections(0, &mut w);
        let bytes = w.finish();
        let storage = Storage::from_bytes(&bytes);
        let container = storage.container().expect("parse");
        let loaded = HnswIndex::from_sections(&storage, &container, 0, &m).expect("load");
        assert!(loaded.is_zero_copy());
        assert_eq!(idx, loaded);
        // A loaded index searches identically.
        assert_eq!(idx.search(&m, m.row(1), 50), loaded.search(&m, m.row(1), 50));
    }

    #[test]
    fn from_sections_rejects_structural_corruption() {
        let m = random_matrix(64, 8, 13);
        let idx = HnswIndex::build(&m, &HnswParams::default());

        // Out-of-range neighbor index.
        let mut bad = idx.clone();
        bad.neighbors.make_mut()[0] = bad.rows as u32;
        let mut w = ContainerWriter::new();
        bad.write_sections(0, &mut w);
        let bytes = w.finish();
        let storage = Storage::from_bytes(&bytes);
        let container = storage.container().expect("parse");
        assert!(HnswIndex::from_sections(&storage, &container, 0, &m).is_err());

        // Non-monotone offsets.
        let mut bad = idx.clone();
        let o = bad.offsets.make_mut();
        if o.len() > 2 {
            o[1] = u32::MAX;
        }
        let mut w = ContainerWriter::new();
        bad.write_sections(0, &mut w);
        let bytes = w.finish();
        let storage = Storage::from_bytes(&bytes);
        let container = storage.container().expect("parse");
        assert!(HnswIndex::from_sections(&storage, &container, 0, &m).is_err());

        // Missing section.
        let mut w = ContainerWriter::new();
        idx.write_sections(0, &mut w);
        let bytes = w.finish();
        let storage = Storage::from_bytes(&bytes);
        let container = storage.container().expect("parse");
        assert!(HnswIndex::from_sections(&storage, &container, 1, &m).is_err());
    }
}
