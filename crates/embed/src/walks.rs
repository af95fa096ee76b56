//! Random-walk corpus generation over the heterogeneous graph (Alg. 4).
//!
//! A walk starts from every live node; at each step the next node is chosen
//! among the current node's neighbors according to the configured
//! [`WalkStrategy`] — uniformly by default (the paper's Alg. 4), biased by
//! node2vec `p`/`q` parameters, or weighted by edge kind (the typed-edge
//! future-work extension). The resulting node-id sequences are the
//! "sentences" Word2Vec trains on. Each `(seed, start node, walk index)`
//! triple seeds its own RNG, so every walk is a pure function of it, and
//! the corpus can be walked again instead of stored.
//!
//! A fit never stores its corpus: a [`WalkStream`] walks it a chunk of
//! start nodes at a time, once to count it and once more per training
//! epoch, and each pass is the same sentences in the same order.
//! [`generate_walk_corpus`] is one such pass kept in a [`FlatCorpus`],
//! for what needs the walks at hand.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use tdmatch_graph::sample::{random_walk_edge_typed_csr_into, random_walk_node2vec_csr_into};
use tdmatch_graph::{CsrGraph, EdgeTypeCum, EdgeTypeWeights, NodeId};

use crate::corpus::{FlatCorpus, SentenceSource};
use crate::rows::RowLayout;

/// How the next node of a walk is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum WalkStrategy {
    /// Uniform neighbor choice — the paper's Algorithm 4 (DeepWalk-style).
    #[default]
    Uniform,
    /// node2vec second-order bias (Grover & Leskovec): `p` is the return
    /// parameter, `q` the in-out parameter; `p = q = 1` is equivalent to
    /// [`Uniform`](WalkStrategy::Uniform) in distribution.
    Node2Vec {
        /// Return parameter (likelihood of immediately revisiting the
        /// previous node scales with `1/p`).
        p: f32,
        /// In-out parameter (likelihood of moving further from the
        /// previous node scales with `1/q`).
        q: f32,
    },
    /// First-order walk where transition probability is proportional to
    /// the edge's [`EdgeKind`](tdmatch_graph::EdgeKind) weight.
    EdgeTyped(EdgeTypeWeights),
}

/// Parameters of walk generation. Paper defaults (§V): 100 walks of
/// length 30 per node. Scaled-down experiment presets use fewer.
#[derive(Debug, Clone, Copy)]
pub struct WalkConfig {
    /// Walks started from every node.
    pub walks_per_node: usize,
    /// Steps per walk (the sentence has `walk_len + 1` tokens).
    pub walk_len: usize,
    /// Seed for deterministic generation.
    pub seed: u64,
    /// Transition rule (uniform unless configured otherwise).
    pub strategy: WalkStrategy,
}

impl Default for WalkConfig {
    fn default() -> Self {
        Self {
            walks_per_node: 100,
            walk_len: 30,
            seed: 42,
            strategy: WalkStrategy::Uniform,
        }
    }
}

/// Mixes the walk identity into a per-walk RNG seed.
#[inline]
fn walk_seed(seed: u64, node: NodeId, walk: usize) -> u64 {
    let mut x = seed ^ (node.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= (walk as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 31)
}

/// Lanes interleaved per start node in the uniform fast path: walks are
/// serial pointer-chases, so stepping several *independent* walks in
/// lockstep overlaps their cache misses. Each lane owns its RNG (seeded
/// per walk index as always), keeping the corpus byte-identical to
/// sequential generation.
const WALK_LANES: usize = 8;

/// Steps up to [`WALK_LANES`] uniform walks from `start` in lockstep,
/// appending each finished walk (in walk-index order) to `tokens` /
/// `lens`. `scratch` is reused across calls, so the hot loop does not
/// allocate.
fn uniform_walks_interleaved(
    g: &CsrGraph,
    start: NodeId,
    seeds: &[u64],
    walk_len: usize,
    scratch: &mut Scratch,
    tokens: &mut Vec<u32>,
    lens: &mut Vec<u32>,
) {
    use rand::seq::IndexedRandom;
    let Scratch {
        rng_pool, lane_buf, ..
    } = scratch;
    let lanes = seeds.len();
    debug_assert!(lanes <= WALK_LANES);
    let stride = walk_len + 1;
    rng_pool.clear();
    for &s in seeds {
        rng_pool.push(SmallRng::seed_from_u64(s));
    }
    lane_buf.clear();
    lane_buf.resize(lanes * stride, 0);
    let mut lane_len = [0usize; WALK_LANES];
    let mut cur = [start; WALK_LANES];
    for (lane, len) in lane_len.iter_mut().take(lanes).enumerate() {
        lane_buf[lane * stride] = start.0;
        *len = 1;
    }
    let mut live = lanes;
    for step in 0..walk_len {
        if live == 0 {
            break;
        }
        for lane in 0..lanes {
            // A lane is active iff it has exactly `step + 1` tokens.
            if lane_len[lane] != step + 1 {
                continue;
            }
            match g.neighbors(cur[lane]).choose(&mut rng_pool[lane]) {
                Some(&next) => {
                    lane_buf[lane * stride + step + 1] = next.0;
                    lane_len[lane] = step + 2;
                    cur[lane] = next;
                }
                None => live -= 1,
            }
        }
    }
    for lane in 0..lanes {
        tokens.extend_from_slice(&lane_buf[lane * stride..lane * stride + lane_len[lane]]);
        lens.push(lane_len[lane] as u32);
    }
}

/// Runs `walk` once per `(start node, walk index)` of `starts`, in
/// order, each time with that walk's own RNG, and records each walk's
/// length.
fn walk_each(
    starts: &[NodeId],
    config: &WalkConfig,
    tokens: &mut Vec<u32>,
    lens: &mut Vec<u32>,
    mut walk: impl FnMut(NodeId, &mut SmallRng, &mut Vec<u32>),
) {
    for &node in starts {
        for w in 0..config.walks_per_node {
            let mut rng = SmallRng::seed_from_u64(walk_seed(config.seed, node, w));
            let start = tokens.len();
            walk(node, &mut rng, tokens);
            lens.push((tokens.len() - start) as u32);
        }
    }
}

/// Buffers a [`Walker`] reuses from one call to the next.
#[derive(Default)]
struct Scratch {
    rng_pool: Vec<SmallRng>,
    lane_buf: Vec<u32>,
    weights: Vec<f32>,
}

/// The one walker: a snapshot, the walk settings and, for edge-typed
/// walks, the cumulative weight table built once per (snapshot,
/// weights). The stream ([`WalkStream`]) and the stored corpus
/// ([`generate_walk_corpus`]) are its passes.
struct Walker<'a> {
    g: &'a CsrGraph,
    config: WalkConfig,
    cum: Option<EdgeTypeCum>,
}

/// Start nodes one [`Walker::walk`] call of a pass walks: as many as
/// fill this many tokens (64 KiB), at least one. Against a stored
/// corpus, walking one start node per call won 10 of 48 benchmark timing
/// pairs (`fit-table` 1.06× in its steadiest series); these chunks won
/// 20 of 44. Why is unverified (the measuring host has no cache
/// counters).
const STREAM_CHUNK_TOKENS: usize = 1 << 14;

impl<'a> Walker<'a> {
    fn new(g: &'a CsrGraph, config: &WalkConfig) -> Self {
        let cum = match config.strategy {
            WalkStrategy::EdgeTyped(weights) => Some(g.edge_type_cum(&weights)),
            _ => None,
        };
        Self {
            g,
            config: *config,
            cum,
        }
    }

    /// Appends the `walks_per_node` walks of every node of `starts`, in
    /// order, to `tokens`, and their lengths to `lens`; with `rows`, each
    /// token is the row `rows` gives its node id. Kept out of line so the
    /// trainers that consume a [`WalkStream`] call it rather than
    /// compiling a copy of it (and of the row map) into their own loops.
    #[inline(never)]
    fn walk(
        &self,
        starts: &[NodeId],
        rows: Option<&[u32]>,
        scratch: &mut Scratch,
        tokens: &mut Vec<u32>,
        lens: &mut Vec<u32>,
    ) {
        let (g, config, len) = (self.g, &self.config, self.config.walk_len);
        let from = tokens.len();
        match config.strategy {
            WalkStrategy::Uniform => {
                let mut seeds = [0u64; WALK_LANES];
                for &node in starts {
                    let mut w = 0;
                    while w < config.walks_per_node {
                        let lanes = WALK_LANES.min(config.walks_per_node - w);
                        for (lane, s) in seeds.iter_mut().take(lanes).enumerate() {
                            *s = walk_seed(config.seed, node, w + lane);
                        }
                        uniform_walks_interleaved(
                            g,
                            node,
                            &seeds[..lanes],
                            len,
                            scratch,
                            tokens,
                            lens,
                        );
                        w += lanes;
                    }
                }
            }
            WalkStrategy::Node2Vec { p, q } => {
                walk_each(starts, config, tokens, lens, |node, rng, out| {
                    random_walk_node2vec_csr_into(g, node, len, p, q, rng, &mut scratch.weights, out)
                });
            }
            WalkStrategy::EdgeTyped(weights) => {
                let cum = self.cum.as_ref().expect("cum table built for EdgeTyped");
                walk_each(starts, config, tokens, lens, |node, rng, out| {
                    random_walk_edge_typed_csr_into(g, node, len, &weights, cum, rng, out)
                });
            }
        }
        if let Some(rows) = rows {
            for t in &mut tokens[from..] {
                *t = rows[*t as usize];
            }
        }
    }

    /// One pass over the corpus: calls `f(node, tokens, lens)` for every
    /// live start node in `g.nodes()` order, with its walks back to back
    /// in `tokens` (node ids, or with `rows` their rows) and their
    /// lengths in `lens`. The walks are made a chunk of start nodes at a
    /// time into one reused buffer of about [`STREAM_CHUNK_TOKENS`]
    /// tokens (one node's `walks_per_node × (walk_len + 1)` if that is
    /// more).
    #[inline(always)]
    fn pass(&self, rows: Option<&[u32]>, mut f: impl FnMut(NodeId, &[u32], &[u32])) {
        let config = &self.config;
        let per_node = config.walks_per_node * (config.walk_len + 1);
        let chunk = (STREAM_CHUNK_TOKENS / per_node.max(1)).max(1);
        let mut starts = Vec::with_capacity(chunk);
        let mut tokens = Vec::with_capacity(chunk * per_node);
        let mut lens = Vec::with_capacity(chunk * config.walks_per_node);
        let mut scratch = Scratch::default();
        let mut nodes = self.g.nodes();
        loop {
            starts.clear();
            starts.extend(nodes.by_ref().take(chunk));
            if starts.is_empty() {
                return;
            }
            tokens.clear();
            lens.clear();
            self.walk(&starts, rows, &mut scratch, &mut tokens, &mut lens);
            // Every start node walks `walks_per_node` walks, in order.
            let mut at = 0;
            for (&node, lens) in starts.iter().zip(lens.chunks(config.walks_per_node.max(1))) {
                let len: usize = lens.iter().map(|&l| l as usize).sum();
                f(node, &tokens[at..at + len], lens);
                at += len;
            }
        }
    }
}

/// Generates the full walk corpus over a [`CsrGraph`] snapshot into a
/// [`FlatCorpus`] arena: `walks_per_node` walks from every live node, as
/// sentences of node-id tokens, in the order and with the bits of a
/// [`WalkStream`] pass. A fit does not call it: it streams the walks.
/// The stored corpus is for what needs the walks at hand (benches, the
/// benchmark's traced replay, the tests that pin the walks). Uniform
/// walks step `WALK_LANES` (8) independent walks per node in lockstep to
/// overlap their memory latencies — the corpus is unchanged because walk
/// RNG streams never interact.
pub fn generate_walk_corpus(g: &CsrGraph, config: &WalkConfig) -> FlatCorpus {
    let mut corpus = FlatCorpus::new();
    Walker::new(g, config).pass(None, |_, tokens, lens| corpus.append_parts(tokens, lens));
    corpus
}

/// The walk corpus of a [`CsrGraph`] snapshot, regenerated on every pass
/// instead of stored: the sentences of [`generate_walk_corpus`], in its
/// order and with its bits. This is what a fit trains on.
///
/// [`new`](WalkStream::new) makes one counting pass, which gives the
/// per-id counts, the total token count and the dense [`RowLayout`] of
/// the counts; a trainer then makes one pass per epoch. Memory is the
/// counts, the layout and one chunk's buffer, whatever the token count.
///
/// As a [`SentenceSource`], the stream's tokens are node ids, and the
/// document of start node `n` is its walks, indexed `n` among
/// `id_bound` documents; a tombstoned id's document is empty. That is
/// PV-DBOW's node document. [`rows`](WalkStream::rows) is the same
/// stream with each token replaced by its row, which Word2Vec trains on.
pub struct WalkStream<'a> {
    walker: Walker<'a>,
    counts: Vec<u64>,
    layout: RowLayout,
    total_tokens: u64,
}

impl<'a> WalkStream<'a> {
    /// The stream of `config`'s walks over `g`, after its counting pass.
    pub fn new(g: &'a CsrGraph, config: &WalkConfig) -> Self {
        let walker = Walker::new(g, config);
        let mut counts = vec![0u64; g.id_bound()];
        walker.pass(None, |_, tokens, _| {
            for &t in tokens {
                counts[t as usize] += 1;
            }
        });
        Self {
            walker,
            total_tokens: counts.iter().sum(),
            layout: RowLayout::dense(&counts),
            counts,
        }
    }

    /// How often each id occurs in one pass, indexed by id (`id_bound`
    /// entries, zero for ids no walk visits): the trainers' vocabulary
    /// counts.
    pub fn token_counts(&self) -> &[u64] {
        &self.counts
    }

    /// The ids that occur first, then the rest: [`RowLayout::dense`] of
    /// the counts.
    pub fn layout(&self) -> &RowLayout {
        &self.layout
    }

    /// The stream with its tokens in [`layout`](Self::layout)'s rows.
    pub fn rows(&self) -> RowWalks<'_, 'a> {
        RowWalks(self)
    }
}

impl SentenceSource for WalkStream<'_> {
    fn documents(&self) -> usize {
        self.walker.g.id_bound()
    }

    fn is_empty_document(&self, doc: usize) -> bool {
        self.walker.config.walks_per_node == 0 || self.walker.g.is_removed(NodeId(doc as u32))
    }

    fn total_tokens(&self) -> u64 {
        self.total_tokens
    }

    #[inline(always)]
    fn for_each_document(&self, mut f: impl FnMut(usize, &[u32], &[u32])) {
        self.walker.pass(None, |node, tokens, lens| f(node.index(), tokens, lens));
    }
}

/// A [`WalkStream`] whose tokens are rows of its
/// [`layout`](WalkStream::layout): each chunk of walks is mapped once,
/// as the walker makes it, so a trainer reads rows without a lookup.
pub struct RowWalks<'s, 'a>(&'s WalkStream<'a>);

impl SentenceSource for RowWalks<'_, '_> {
    fn documents(&self) -> usize {
        self.0.documents()
    }

    fn is_empty_document(&self, doc: usize) -> bool {
        self.0.is_empty_document(doc)
    }

    fn total_tokens(&self) -> u64 {
        self.0.total_tokens
    }

    #[inline(always)]
    fn for_each_document(&self, mut f: impl FnMut(usize, &[u32], &[u32])) {
        let rows = self.0.layout.rows_by_id();
        self.0.walker.pass(Some(rows), |node, tokens, lens| f(node.index(), tokens, lens));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdmatch_graph::{EdgeKind, Graph};

    fn ring(n: usize) -> Graph {
        let mut g = Graph::new();
        let ids: Vec<NodeId> = (0..n).map(|i| g.intern_data(&format!("n{i}"))).collect();
        for i in 0..n {
            g.add_edge(ids[i], ids[(i + 1) % n]);
        }
        g
    }

    fn path(n: usize) -> Graph {
        let mut g = Graph::new();
        let ids: Vec<NodeId> = (0..n).map(|i| g.intern_data(&format!("n{i}"))).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        g
    }

    fn walk(
        g: &Graph,
        walks_per_node: usize,
        walk_len: usize,
        strategy: WalkStrategy,
    ) -> FlatCorpus {
        let config = WalkConfig {
            walks_per_node,
            walk_len,
            seed: 7,
            strategy,
        };
        generate_walk_corpus(&CsrGraph::from_graph(g), &config)
    }

    fn strategies() -> [WalkStrategy; 3] {
        [
            WalkStrategy::Uniform,
            WalkStrategy::Node2Vec { p: 0.25, q: 4.0 },
            WalkStrategy::EdgeTyped(EdgeTypeWeights::uniform()),
        ]
    }

    #[test]
    fn walks_have_full_length_follow_edges_and_are_deterministic() {
        // A ring with chords: no dead ends, so every walk runs its length.
        let mut g = ring(10);
        for i in 0..10 {
            g.add_edge(NodeId(i), NodeId((i + 3) % 10));
        }
        for strategy in strategies() {
            // Eleven walks: a full batch of uniform lanes plus a tail.
            let corpus = walk(&g, 11, 20, strategy);
            assert_eq!(corpus.len(), 110, "{strategy:?}");
            for sent in corpus.sentences() {
                assert_eq!(sent.len(), 21, "{strategy:?}");
                for pair in sent.windows(2) {
                    assert!(g.has_edge(NodeId(pair[0]), NodeId(pair[1])), "{strategy:?}");
                }
            }
            assert_eq!(corpus, walk(&g, 11, 20, strategy), "{strategy:?} is not deterministic");
        }
    }

    #[test]
    fn an_isolated_start_walks_a_singleton() {
        let mut g = Graph::new();
        let a = g.intern_data("a");
        for strategy in strategies() {
            let corpus = walk(&g, 3, 5, strategy);
            assert!(corpus.sentences().all(|s| s == [a.0]), "{strategy:?}");
        }
    }

    #[test]
    fn counts_cover_all_visited_nodes() {
        let g = ring(5);
        let corpus = walk(&g, 4, 6, WalkStrategy::Uniform);
        let counts = corpus.token_counts(g.id_bound(), false);
        let total: u64 = counts.iter().sum();
        assert_eq!(total as usize, corpus.total_tokens());
        // Every node starts 4 walks, so every node appears.
        assert!(counts.iter().all(|&c| c >= 4));
    }

    #[test]
    fn floor_missing_gives_min_one() {
        assert_eq!(FlatCorpus::new().token_counts(3, true), vec![1, 1, 1]);
    }

    #[test]
    fn edge_typed_walks_never_cross_zero_weight_kinds() {
        // a —Contains— b —External— c. Forbidding External traps every
        // walk that starts on {a, b}.
        let mut g = Graph::new();
        let a = g.intern_data("a");
        let b = g.intern_data("b");
        let c = g.intern_data("c");
        g.add_edge_typed(a, b, EdgeKind::Contains);
        g.add_edge_typed(b, c, EdgeKind::External);
        let weights = EdgeTypeWeights::uniform().with(EdgeKind::External, 0.0);
        let corpus = walk(&g, 10, 12, WalkStrategy::EdgeTyped(weights));
        for sent in corpus.sentences() {
            let from_c = sent[0] == c.0;
            assert!(sent.iter().all(|&t| (t == c.0) == from_c), "crossed External: {sent:?}");
        }
    }

    #[test]
    fn forbidding_all_kinds_yields_singleton_walks() {
        // Ring edges are Generic; weight 0 strands every walker at start.
        let weights = EdgeTypeWeights::uniform().with(EdgeKind::Generic, 0.0);
        let corpus = walk(&ring(5), 1, 5, WalkStrategy::EdgeTyped(weights));
        assert_eq!(corpus.len(), 5);
        assert!(corpus.sentences().all(|w| w.len() == 1));
    }

    #[test]
    fn node2vec_low_p_returns_more_often() {
        // On a path, a walker either returns (weight 1/p) or moves on
        // (weight 1/q: the two ends of a path share no neighbors). With p
        // tiny, returning dominates.
        let g = path(30);
        let return_share = |p: f32| {
            let corpus = walk(&g, 2, 10, WalkStrategy::Node2Vec { p, q: 1.0 });
            let (mut returns, mut steps) = (0usize, 0usize);
            for sent in corpus.sentences() {
                for win in sent.windows(3) {
                    steps += 1;
                    returns += usize::from(win[0] == win[2]);
                }
            }
            returns as f64 / steps.max(1) as f64
        };
        let returny = return_share(0.05);
        let explorey = return_share(20.0);
        assert!(
            returny > explorey + 0.2,
            "low p should return far more often: {returny} vs {explorey}"
        );
    }

    #[test]
    fn removed_nodes_do_not_start_walks() {
        let mut g = ring(6);
        let victim = g.data_node("n0").unwrap();
        g.remove_node(victim);
        for strategy in strategies() {
            let corpus = walk(&g, 1, 3, strategy);
            assert_eq!(corpus.len(), 5, "{strategy:?}");
            assert!(corpus.tokens().iter().all(|&t| t != victim.0), "{strategy:?}");
        }
    }
}
