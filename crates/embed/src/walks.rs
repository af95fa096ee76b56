//! Random-walk corpus generation over the heterogeneous graph (Alg. 4).
//!
//! A walk starts from every live node; at each step the next node is chosen
//! among the current node's neighbors according to the configured
//! [`WalkStrategy`] — uniformly by default (the paper's Alg. 4), biased by
//! node2vec `p`/`q` parameters, or weighted by edge kind (the typed-edge
//! future-work extension). The resulting node-id sequences are the
//! "sentences" Word2Vec trains on. Generation is parallel *and*
//! deterministic: each `(seed, start node, walk index)` triple seeds its
//! own RNG, so the corpus does not depend on thread count.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use tdmatch_graph::sample::{random_walk_edge_typed_csr_into, random_walk_node2vec_csr_into};
use tdmatch_graph::{CsrGraph, EdgeTypeWeights, NodeId};

use crate::corpus::FlatCorpus;

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
    /// Worker threads. The corpus is the same at any count.
    pub threads: usize,
    /// Transition rule (uniform unless configured otherwise).
    pub strategy: WalkStrategy,
}

impl Default for WalkConfig {
    fn default() -> Self {
        Self {
            walks_per_node: 100,
            walk_len: 30,
            seed: 42,
            threads: default_threads(),
            strategy: WalkStrategy::Uniform,
        }
    }
}

/// Half the available parallelism, at least 1: the default walk-thread
/// count.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| (n.get() / 2).max(1))
        .unwrap_or(1)
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
/// `lens`. `rng_pool` and `lane_buf` are caller-owned scratch reused
/// across calls.
#[allow(clippy::too_many_arguments)] // all-scratch-by-ref keeps the hot loop allocation-free
fn uniform_walks_interleaved(
    g: &CsrGraph,
    start: NodeId,
    seeds: &[u64],
    walk_len: usize,
    rng_pool: &mut Vec<SmallRng>,
    lane_buf: &mut Vec<u32>,
    tokens: &mut Vec<u32>,
    lens: &mut Vec<u32>,
) {
    use rand::seq::IndexedRandom;
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

/// Runs `walk` once per `(start node, walk index)` of `chunk`, in order,
/// each time with that walk's own RNG, and records each walk's length.
fn walk_each(
    chunk: &[NodeId],
    config: &WalkConfig,
    tokens: &mut Vec<u32>,
    lens: &mut Vec<u32>,
    mut walk: impl FnMut(NodeId, &mut SmallRng, &mut Vec<u32>),
) {
    for &node in chunk {
        for w in 0..config.walks_per_node {
            let mut rng = SmallRng::seed_from_u64(walk_seed(config.seed, node, w));
            let start = tokens.len();
            walk(node, &mut rng, tokens);
            lens.push((tokens.len() - start) as u32);
        }
    }
}

/// Generates the full walk corpus over a [`CsrGraph`] snapshot into a
/// [`FlatCorpus`] arena: `walks_per_node` walks from every live node, as
/// sentences of node-id tokens — the one walk path a fit runs.
///
/// Each worker thread walks a contiguous chunk of start nodes and streams
/// tokens into one pre-reserved per-chunk buffer (no per-walk `Vec`);
/// chunks are then concatenated in node order. Because every walk's RNG is
/// seeded from `(seed, start node, walk index)`, the corpus is *identical*
/// for any thread count. Uniform walks additionally step `WALK_LANES` (8)
/// independent walks per node in lockstep to overlap their memory
/// latencies — the corpus is unchanged because walk RNG streams never
/// interact.
pub fn generate_walk_corpus(g: &CsrGraph, config: &WalkConfig) -> FlatCorpus {
    let nodes: Vec<NodeId> = g.nodes().collect();
    let threads = config.threads.max(1).min(nodes.len().max(1));
    let chunk_size = nodes.len().div_ceil(threads.max(1)).max(1);
    // Per-(snapshot, weights) cumulative tables, built once up front.
    let cum = match config.strategy {
        WalkStrategy::EdgeTyped(weights) => Some(g.edge_type_cum(&weights)),
        _ => None,
    };
    let mut corpus = FlatCorpus::with_capacity(
        nodes.len() * config.walks_per_node,
        nodes.len() * config.walks_per_node * (config.walk_len + 1),
    );

    crossbeam::thread::scope(|scope| {
        let cum = cum.as_ref();
        let handles: Vec<_> = nodes
            .chunks(chunk_size)
            .map(|chunk| {
                scope.spawn(move |_| {
                    let walks = chunk.len() * config.walks_per_node;
                    let mut tokens: Vec<u32> =
                        Vec::with_capacity(walks * (config.walk_len + 1));
                    let mut lens: Vec<u32> = Vec::with_capacity(walks);
                    let len = config.walk_len;
                    match config.strategy {
                        WalkStrategy::Uniform => {
                            let mut rng_pool: Vec<SmallRng> = Vec::with_capacity(WALK_LANES);
                            let mut lane_buf: Vec<u32> = Vec::new();
                            let mut seeds = [0u64; WALK_LANES];
                            for &node in chunk {
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
                                        &mut rng_pool,
                                        &mut lane_buf,
                                        &mut tokens,
                                        &mut lens,
                                    );
                                    w += lanes;
                                }
                            }
                        }
                        WalkStrategy::Node2Vec { p, q } => {
                            let mut scratch: Vec<f32> = Vec::new();
                            walk_each(chunk, config, &mut tokens, &mut lens, |node, rng, out| {
                                random_walk_node2vec_csr_into(
                                    g, node, len, p, q, rng, &mut scratch, out,
                                )
                            });
                        }
                        WalkStrategy::EdgeTyped(weights) => {
                            let cum = cum.expect("cum table built for EdgeTyped");
                            walk_each(chunk, config, &mut tokens, &mut lens, |node, rng, out| {
                                random_walk_edge_typed_csr_into(
                                    g, node, len, &weights, cum, rng, out,
                                )
                            });
                        }
                    }
                    (tokens, lens)
                })
            })
            .collect();
        for h in handles {
            let (tokens, lens) = h.join().expect("walk worker panicked");
            corpus.append_parts(&tokens, &lens);
        }
    })
    .expect("walk generation scope failed");

    corpus
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
            threads: 1,
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
    fn walks_are_thread_count_independent() {
        let g = ring(12);
        let csr = CsrGraph::from_graph(&g);
        for strategy in strategies() {
            let config = WalkConfig {
                walks_per_node: 2,
                walk_len: 4,
                seed: 9,
                threads: 1,
                strategy,
            };
            let one = generate_walk_corpus(&csr, &config);
            for threads in [2, 4, 12, 40] {
                let many = generate_walk_corpus(&csr, &WalkConfig { threads, ..config });
                assert_eq!(one, many, "{strategy:?} at {threads} threads");
            }
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
