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

use tdmatch_graph::sample::{
    random_walk, random_walk_csr_into, random_walk_edge_typed, random_walk_edge_typed_csr_into,
    random_walk_node2vec, random_walk_node2vec_csr_into,
};
use tdmatch_graph::{CsrGraph, EdgeTypeWeights, Graph, NodeId};

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

/// Generates the full walk corpus over a [`CsrGraph`] snapshot into a
/// [`FlatCorpus`] arena — the allocation-free hot path the pipeline uses.
///
/// Each worker thread walks a contiguous chunk of start nodes and streams
/// tokens into one pre-reserved per-chunk buffer (no per-walk `Vec`);
/// chunks are then concatenated in node order. Because every walk's RNG is
/// seeded from `(seed, start node, walk index)`, the corpus is *identical*
/// for any thread count, and byte-identical to [`generate_walks`] over the
/// graph the snapshot was frozen from. Uniform walks additionally step
/// `WALK_LANES` (8) independent walks per node in lockstep to overlap
/// their memory latencies — the corpus is unchanged because walk RNG
/// streams never interact.
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
                    let mut scratch: Vec<f32> = Vec::new();
                    if matches!(config.strategy, WalkStrategy::Uniform) {
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
                                    config.walk_len,
                                    &mut rng_pool,
                                    &mut lane_buf,
                                    &mut tokens,
                                    &mut lens,
                                );
                                w += lanes;
                            }
                        }
                        return (tokens, lens);
                    }
                    for &node in chunk {
                        for w in 0..config.walks_per_node {
                            let mut rng =
                                SmallRng::seed_from_u64(walk_seed(config.seed, node, w));
                            let start = tokens.len();
                            match config.strategy {
                                WalkStrategy::Uniform => random_walk_csr_into(
                                    g,
                                    node,
                                    config.walk_len,
                                    &mut rng,
                                    &mut tokens,
                                ),
                                WalkStrategy::Node2Vec { p, q } => {
                                    random_walk_node2vec_csr_into(
                                        g,
                                        node,
                                        config.walk_len,
                                        p,
                                        q,
                                        &mut rng,
                                        &mut scratch,
                                        &mut tokens,
                                    )
                                }
                                WalkStrategy::EdgeTyped(weights) => {
                                    random_walk_edge_typed_csr_into(
                                        g,
                                        node,
                                        config.walk_len,
                                        &weights,
                                        cum.expect("cum table built for EdgeTyped"),
                                        &mut rng,
                                        &mut tokens,
                                    )
                                }
                            }
                            lens.push((tokens.len() - start) as u32);
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

/// Generates the full walk corpus: `walks_per_node` walks from every live
/// node, as sentences of node-id tokens.
///
/// This is the nested-representation reference path, kept for baselines
/// and as the equivalence oracle for [`generate_walk_corpus`]; new code
/// should snapshot the graph and use the flat variant.
pub fn generate_walks(g: &Graph, config: &WalkConfig) -> Vec<Vec<u32>> {
    let nodes: Vec<NodeId> = g.nodes().collect();
    let threads = config.threads.max(1).min(nodes.len().max(1));
    let chunk_size = nodes.len().div_ceil(threads.max(1)).max(1);
    let mut corpus = Vec::with_capacity(nodes.len() * config.walks_per_node);

    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = nodes
            .chunks(chunk_size)
            .map(|chunk| {
                scope.spawn(move |_| {
                    let mut local =
                        Vec::with_capacity(chunk.len() * config.walks_per_node);
                    for &node in chunk {
                        for w in 0..config.walks_per_node {
                            let mut rng =
                                SmallRng::seed_from_u64(walk_seed(config.seed, node, w));
                            let walk = match config.strategy {
                                WalkStrategy::Uniform => {
                                    random_walk(g, node, config.walk_len, &mut rng)
                                }
                                WalkStrategy::Node2Vec { p, q } => random_walk_node2vec(
                                    g,
                                    node,
                                    config.walk_len,
                                    p,
                                    q,
                                    &mut rng,
                                ),
                                WalkStrategy::EdgeTyped(weights) => random_walk_edge_typed(
                                    g,
                                    node,
                                    config.walk_len,
                                    &weights,
                                    &mut rng,
                                ),
                            };
                            local.push(walk.into_iter().map(|n| n.0).collect::<Vec<u32>>());
                        }
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            corpus.extend(h.join().expect("walk worker panicked"));
        }
    })
    .expect("walk generation scope failed");

    corpus
}

/// Token frequencies over a walk corpus, sized to `id_bound` so the counts
/// can double as a Word2Vec "vocabulary" indexed by node id. Nodes that
/// never appear get count 0 and are excluded from negative sampling by
/// giving them a floor of 1 only when `floor_missing` is set.
pub fn walk_counts(corpus: &[Vec<u32>], id_bound: usize, floor_missing: bool) -> Vec<u64> {
    let mut counts = vec![0u64; id_bound];
    for sent in corpus {
        for &tok in sent {
            counts[tok as usize] += 1;
        }
    }
    if floor_missing {
        for c in &mut counts {
            if *c == 0 {
                *c = 1;
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> Graph {
        let mut g = Graph::new();
        let ids: Vec<NodeId> = (0..n).map(|i| g.intern_data(&format!("n{i}"))).collect();
        for i in 0..n {
            g.add_edge(ids[i], ids[(i + 1) % n]);
        }
        g
    }

    #[test]
    fn corpus_size_and_lengths() {
        let g = ring(10);
        let cfg = WalkConfig {
            walks_per_node: 3,
            walk_len: 5,
            seed: 1,
            threads: 2,
            strategy: WalkStrategy::Uniform,
        };
        let corpus = generate_walks(&g, &cfg);
        assert_eq!(corpus.len(), 30);
        assert!(corpus.iter().all(|w| w.len() == 6));
    }

    #[test]
    fn walks_are_thread_count_independent() {
        let g = ring(12);
        let mut c1 = generate_walks(
            &g,
            &WalkConfig {
                walks_per_node: 2,
                walk_len: 4,
                seed: 9,
                threads: 1,
                strategy: WalkStrategy::Uniform,
            },
        );
        let mut c4 = generate_walks(
            &g,
            &WalkConfig {
                walks_per_node: 2,
                walk_len: 4,
                seed: 9,
                threads: 4,
                strategy: WalkStrategy::Uniform,
            },
        );
        c1.sort();
        c4.sort();
        assert_eq!(c1, c4);
    }

    #[test]
    fn walk_steps_follow_edges() {
        let g = ring(6);
        let corpus = generate_walks(
            &g,
            &WalkConfig {
                walks_per_node: 1,
                walk_len: 8,
                seed: 2,
                threads: 1,
                strategy: WalkStrategy::Uniform,
            },
        );
        for sent in &corpus {
            for pair in sent.windows(2) {
                assert!(g.has_edge(NodeId(pair[0]), NodeId(pair[1])));
            }
        }
    }

    #[test]
    fn counts_cover_all_visited_nodes() {
        let g = ring(5);
        let corpus = generate_walks(
            &g,
            &WalkConfig {
                walks_per_node: 4,
                walk_len: 6,
                seed: 3,
                threads: 1,
                strategy: WalkStrategy::Uniform,
            },
        );
        let counts = walk_counts(&corpus, g.id_bound(), false);
        let total: u64 = counts.iter().sum();
        assert_eq!(total as usize, corpus.iter().map(|s| s.len()).sum::<usize>());
        // Every node starts 4 walks, so every node appears.
        assert!(counts.iter().all(|&c| c >= 4));
    }

    #[test]
    fn floor_missing_gives_min_one() {
        let counts = walk_counts(&[], 3, true);
        assert_eq!(counts, vec![1, 1, 1]);
    }

    #[test]
    fn node2vec_strategy_produces_valid_deterministic_corpus() {
        let g = ring(10);
        let cfg = WalkConfig {
            walks_per_node: 2,
            walk_len: 6,
            seed: 5,
            threads: 2,
            strategy: WalkStrategy::Node2Vec { p: 0.25, q: 4.0 },
        };
        let c1 = generate_walks(&g, &cfg);
        let c2 = generate_walks(&g, &cfg);
        assert_eq!(c1, c2, "node2vec corpus must be deterministic");
        assert_eq!(c1.len(), 20);
        for sent in &c1 {
            for pair in sent.windows(2) {
                assert!(g.has_edge(NodeId(pair[0]), NodeId(pair[1])));
            }
        }
    }

    #[test]
    fn edge_typed_strategy_with_uniform_weights_is_complete() {
        use tdmatch_graph::EdgeTypeWeights;
        let g = ring(8);
        let cfg = WalkConfig {
            walks_per_node: 2,
            walk_len: 5,
            seed: 6,
            threads: 1,
            strategy: WalkStrategy::EdgeTyped(EdgeTypeWeights::uniform()),
        };
        let corpus = generate_walks(&g, &cfg);
        assert_eq!(corpus.len(), 16);
        assert!(corpus.iter().all(|w| w.len() == 6));
    }

    #[test]
    fn forbidding_all_kinds_yields_singleton_walks() {
        use tdmatch_graph::{EdgeKind, EdgeTypeWeights};
        let g = ring(5);
        // Ring edges are Generic; weight 0 strands every walker at start.
        let weights = EdgeTypeWeights::uniform().with(EdgeKind::Generic, 0.0);
        let cfg = WalkConfig {
            walks_per_node: 1,
            walk_len: 5,
            seed: 7,
            threads: 1,
            strategy: WalkStrategy::EdgeTyped(weights),
        };
        let corpus = generate_walks(&g, &cfg);
        assert!(corpus.iter().all(|w| w.len() == 1));
    }

    #[test]
    fn flat_corpus_matches_nested_for_every_strategy() {
        use tdmatch_graph::{CsrGraph, EdgeKind, EdgeTypeWeights};
        let mut g = ring(14);
        // Add typed chords so the strategies actually diverge.
        for i in 0..14 {
            let a = g.data_node(&format!("n{i}")).unwrap();
            let b = g.data_node(&format!("n{}", (i + 4) % 14)).unwrap();
            g.add_edge_typed(a, b, EdgeKind::External);
        }
        let csr = CsrGraph::from_graph(&g);
        for strategy in [
            WalkStrategy::Uniform,
            WalkStrategy::Node2Vec { p: 0.5, q: 2.0 },
            WalkStrategy::EdgeTyped(EdgeTypeWeights::uniform().with(EdgeKind::External, 0.25)),
        ] {
            let cfg = WalkConfig {
                // Above WALK_LANES so uniform runs a full batch + tail.
                walks_per_node: 11,
                walk_len: 7,
                seed: 13,
                threads: 1,
                strategy,
            };
            let nested = generate_walks(&g, &cfg);
            for threads in [1, 2, 5] {
                let flat = generate_walk_corpus(&csr, &WalkConfig { threads, ..cfg });
                assert_eq!(flat.to_nested(), nested, "{strategy:?} threads={threads}");
            }
        }
    }

    #[test]
    fn flat_corpus_counts_match_nested_counts() {
        let g = ring(9);
        let cfg = WalkConfig {
            walks_per_node: 2,
            walk_len: 5,
            seed: 21,
            threads: 3,
            strategy: WalkStrategy::Uniform,
        };
        let nested = generate_walks(&g, &cfg);
        let flat =
            generate_walk_corpus(&tdmatch_graph::CsrGraph::from_graph(&g), &cfg);
        assert_eq!(
            flat.token_counts(g.id_bound(), false),
            walk_counts(&nested, g.id_bound(), false)
        );
    }

    #[test]
    fn removed_nodes_do_not_start_walks() {
        let mut g = ring(6);
        let victim = g.data_node("n0").unwrap();
        g.remove_node(victim);
        let corpus = generate_walks(
            &g,
            &WalkConfig {
                walks_per_node: 1,
                walk_len: 3,
                seed: 4,
                threads: 1,
                strategy: WalkStrategy::Uniform,
            },
        );
        assert_eq!(corpus.len(), 5);
        assert!(corpus.iter().all(|s| !s.contains(&victim.0)));
    }
}
