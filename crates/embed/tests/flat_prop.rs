//! Property tests pinning the CSR-backed walk generator to a serial
//! reference over the mutable graph: same seed ⇒ identical corpus, for
//! every strategy, at any thread count.
//!
//! The reference below is the walk definition written plainly — one walk
//! at a time, straight over [`Graph`]'s adjacency, biased steps drawn by
//! a linear scan of the running weight sum — with none of the generator's
//! machinery (thread chunks, lockstep lanes, prefix tables, the sorted
//! neighbor index).

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};

use tdmatch_embed::walks::{generate_walk_corpus, WalkConfig, WalkStrategy};
use tdmatch_graph::{CsrGraph, EdgeKind, EdgeTypeWeights, Graph, NodeId};

fn build(n: usize, edges: &[(usize, usize, u8)], removals: &[usize]) -> Graph {
    let mut g = Graph::new();
    let ids: Vec<NodeId> = (0..n).map(|i| g.intern_data(&format!("n{i}"))).collect();
    for &(a, b, k) in edges {
        let kind = EdgeKind::ALL[k as usize % EdgeKind::ALL.len()];
        g.add_edge_typed(ids[a % n], ids[b % n], kind);
    }
    for &r in removals {
        g.remove_node(ids[r % n]);
    }
    g
}

fn strategy_from(tag: u8, w_ext: f32) -> WalkStrategy {
    match tag % 3 {
        0 => WalkStrategy::Uniform,
        1 => WalkStrategy::Node2Vec { p: 0.35, q: 1.8 },
        _ => WalkStrategy::EdgeTyped(EdgeTypeWeights::uniform().with(EdgeKind::External, w_ext)),
    }
}

/// Each walk's RNG seed: the generator's mix of `(seed, start, walk)`.
fn walk_seed(seed: u64, node: NodeId, walk: usize) -> u64 {
    let mut x = seed ^ (node.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= (walk as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 31)
}

/// The first index whose running `f32` sum of `weights` exceeds
/// `r · total`, or — when round-off leaves none — the last positive one.
/// `None` when no weight is positive (no draw is made then).
fn sample_linear(weights: &[f32], rng: &mut SmallRng) -> Option<usize> {
    let total: f32 = weights.iter().fold(0.0, |acc, &w| acc + w);
    if total <= 0.0 || total.is_nan() {
        return None;
    }
    let target = rng.random::<f32>() * total;
    let mut running = 0.0f32;
    for (i, &w) in weights.iter().enumerate() {
        running += w;
        if running > target {
            return Some(i);
        }
    }
    weights.iter().rposition(|&w| w > 0.0)
}

/// `walks_per_node` walks of `walk_len` (≥ 1) steps from every live node
/// of `g`, in node order, one at a time. A step picks a uniform neighbor
/// (`Uniform`, and node2vec's first step), weighs each neighbor by
/// `1/p` / `1` / `1/q` (node2vec) or by its edge kind (`EdgeTyped`); a
/// walk stops early where no neighbor can be taken.
fn reference_corpus(g: &Graph, config: &WalkConfig) -> Vec<Vec<u32>> {
    let mut corpus = Vec::new();
    for start in g.nodes() {
        for w in 0..config.walks_per_node {
            let mut rng = SmallRng::seed_from_u64(walk_seed(config.seed, start, w));
            let mut walk = vec![start.0];
            let (mut prev, mut cur) = (None, start);
            for _ in 0..config.walk_len {
                let neighbors = g.neighbors(cur);
                let weights: Vec<f32> = match (config.strategy, prev) {
                    (WalkStrategy::Uniform, _) | (WalkStrategy::Node2Vec { .. }, None) => {
                        let Some(&next) = neighbors.choose(&mut rng) else {
                            break;
                        };
                        (prev, cur) = (Some(cur), next);
                        walk.push(next.0);
                        continue;
                    }
                    (WalkStrategy::Node2Vec { p, q }, Some(t)) => neighbors
                        .iter()
                        .map(|&x| match x {
                            x if x == t => 1.0 / p,
                            x if g.has_edge(t, x) => 1.0,
                            _ => 1.0 / q,
                        })
                        .collect(),
                    (WalkStrategy::EdgeTyped(kinds), _) => g
                        .neighbor_kinds(cur)
                        .iter()
                        .map(|&k| kinds.get(k))
                        .collect(),
                };
                let Some(i) = sample_linear(&weights, &mut rng) else {
                    break;
                };
                (prev, cur) = (Some(cur), neighbors[i]);
                walk.push(cur.0);
            }
            corpus.push(walk);
        }
    }
    corpus
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CSR-backed generation is corpus-identical to the serial reference
    /// and independent of thread count.
    #[test]
    fn corpus_equals_the_serial_reference(
        n in 2usize..14,
        edges in prop::collection::vec((0usize..14, 0usize..14, 0u8..8), 1..40),
        removals in prop::collection::vec(0usize..14, 0..3),
        seed in 0u64..1000,
        // Above WALK_LANES (8) so the interleaved uniform fast path runs
        // full batches plus a partial tail batch, not just one batch.
        walks_per_node in 1usize..12,
        walk_len in 1usize..12,
        w_ext in 0.0f32..3.0,
    ) {
        let g = build(n, &edges, &removals);
        let csr = CsrGraph::from_graph(&g);
        for tag in 0u8..3 {
            let strategy = strategy_from(tag, w_ext);
            let base = WalkConfig {
                walks_per_node,
                walk_len,
                seed,
                threads: 1,
                strategy,
            };
            let reference = reference_corpus(&g, &base);
            for threads in [1usize, 2, 3, 7] {
                let flat = generate_walk_corpus(&csr, &WalkConfig { threads, ..base });
                let got: Vec<&[u32]> = flat.sentences().collect();
                prop_assert_eq!(
                    got, reference.iter().map(Vec::as_slice).collect::<Vec<_>>(),
                    "strategy {:?} threads {}", strategy, threads
                );
            }
        }
    }

    /// Token counts equal a fold over the corpus's sentences.
    #[test]
    fn token_counts_equal_a_fold_over_sentences(
        n in 2usize..10,
        edges in prop::collection::vec((0usize..10, 0usize..10, 0u8..8), 1..25),
        seed in 0u64..200,
    ) {
        let g = build(n, &edges, &[]);
        let cfg = WalkConfig {
            walks_per_node: 2,
            walk_len: 5,
            seed,
            threads: 3,
            strategy: WalkStrategy::Uniform,
        };
        let flat = generate_walk_corpus(&CsrGraph::from_graph(&g), &cfg);
        let folded = flat.sentences().flatten().fold(vec![0u64; g.id_bound()], |mut c, &t| {
            c[t as usize] += 1;
            c
        });
        let floored: Vec<u64> = folded.iter().map(|&c| c.max(1)).collect();
        prop_assert_eq!(flat.token_counts(g.id_bound(), false), folded);
        prop_assert_eq!(flat.token_counts(g.id_bound(), true), floored);
    }
}
