//! Property tests pinning the CSR-backed walk generator to a serial
//! reference over the mutable graph: same seed ⇒ identical corpus, for
//! every strategy. The walk stream a fit trains on
//! is held to the same reference: the same sentences in the same order,
//! counts equal to the stored corpus's, node documents equal to ranges
//! of the stored arena, and the same trained bits.
//!
//! Training on dense rows — input rows only for the ids the walks
//! visit, tokens mapped to rows by the stream — is held to the id-order
//! trainer (`train_corpus` over the stored corpus, an input row per id,
//! whose trajectory `tests/train_bits.rs` pins) bit for bit, for every
//! id, on graphs where many ids are tombstoned or merged away.
//!
//! The reference below is the walk definition written plainly — one walk
//! at a time, straight over [`Graph`]'s adjacency, biased steps drawn by
//! a linear scan of the running weight sum — with none of the generator's
//! machinery (stream chunks, lockstep lanes, prefix tables, the sorted
//! neighbor index).

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::IndexedRandom;
use rand::{RngExt, SeedableRng};

use tdmatch_embed::corpus::{FlatCorpus, SentenceSource};
use tdmatch_embed::doc2vec::{train_pv_dbow, Doc2VecConfig};
use tdmatch_embed::walks::{generate_walk_corpus, WalkConfig, WalkStream, WalkStrategy};
use tdmatch_embed::word2vec::{train_corpus, train_rows, W2vMode, Word2VecConfig};
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

/// The sentences of one pass over `source`, in order.
fn sentences(source: &impl SentenceSource) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    source.for_each_document(|_, tokens, lens| {
        let mut at = 0;
        for &len in lens {
            out.push(tokens[at..at + len as usize].to_vec());
            at += len as usize;
        }
    });
    out
}

/// Node `n`'s document as a fit built it from a stored corpus, as
/// sentence `n` of a corpus of documents: the arena range its walks
/// occupy (they are contiguous), empty for ids that start no walk.
fn arena_documents(corpus: &FlatCorpus, id_bound: usize) -> FlatCorpus {
    let mut ranges: Vec<Option<(usize, usize)>> = vec![None; id_bound];
    let mut pos = 0usize;
    for sent in corpus.sentences() {
        let next = pos + sent.len();
        if let Some(&start) = sent.first() {
            let r = ranges[start as usize].get_or_insert((pos, pos));
            assert_eq!(r.1, pos, "walk corpus not contiguous per start node");
            r.1 = next;
        }
        pos = next;
    }
    let mut docs = FlatCorpus::new();
    for r in ranges {
        docs.push(r.map_or(&[][..], |(lo, hi)| &corpus.tokens()[lo..hi]));
    }
    docs
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CSR-backed generation is corpus-identical to the serial reference.
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
            let config = WalkConfig { walks_per_node, walk_len, seed, strategy };
            let flat = generate_walk_corpus(&csr, &config);
            let got: Vec<&[u32]> = flat.sentences().collect();
            prop_assert_eq!(
                got, reference_corpus(&g, &config).iter().map(Vec::as_slice).collect::<Vec<_>>(),
                "strategy {:?}", strategy
            );
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

/// The stream yields the reference corpus's sentences in order, twice;
/// its counting pass equals the stored corpus's counts and token total;
/// its node documents, in index order, equal the stored arena's ranges.
fn assert_stream_is_the_stored_corpus(g: &Graph, config: &WalkConfig) {
    let csr = CsrGraph::from_graph(g);
    let stream = WalkStream::new(&csr, config);
    let flat = generate_walk_corpus(&csr, config);
    let strategy = config.strategy;
    assert_eq!(sentences(&stream), reference_corpus(g, config), "{strategy:?}");
    assert_eq!(sentences(&stream), sentences(&flat), "{strategy:?}: second pass");
    assert_eq!(stream.token_counts(), &flat.token_counts(g.id_bound(), false)[..]);
    assert_eq!(stream.total_tokens(), flat.total_tokens() as u64);

    let arena = arena_documents(&flat, g.id_bound());
    let mut docs: Vec<Vec<u32>> = vec![Vec::new(); stream.documents()];
    let mut last = None;
    stream.for_each_document(|doc, tokens, lens| {
        assert!(last < Some(doc), "documents out of order");
        assert_eq!(lens.iter().map(|&l| l as usize).sum::<usize>(), tokens.len());
        last = Some(doc);
        docs[doc] = tokens.to_vec();
    });
    assert_eq!(docs.len(), arena.len());
    for (doc, (got, want)) in docs.iter().zip(arena.sentences()).enumerate() {
        assert_eq!(&got[..], want, "{strategy:?} document {doc}");
        assert_eq!(stream.is_empty_document(doc), want.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The stream is the stored corpus on graphs with tombstoned ids,
    /// isolated nodes and (for the biased strategies) dead ends, every
    /// start node in one chunk.
    #[test]
    fn the_stream_is_the_stored_corpus(
        n in 2usize..14,
        edges in prop::collection::vec((0usize..14, 0usize..14, 0u8..8), 0..40),
        removals in prop::collection::vec(0usize..14, 0..4),
        seed in 0u64..1000,
        walks_per_node in 0usize..12,
        walk_len in 1usize..12,
        w_ext in 0.0f32..3.0,
    ) {
        let g = build(n, &edges, &removals);
        for tag in 0u8..3 {
            let strategy = strategy_from(tag, w_ext);
            let config = WalkConfig { walks_per_node, walk_len, seed, strategy };
            assert_stream_is_the_stored_corpus(&g, &config);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Long walks: the stream walks from one start node per chunk to
    /// dozens, with a short last chunk, and is still the stored corpus.
    #[test]
    fn the_stream_is_the_stored_corpus_across_chunks(
        n in 2usize..30,
        edges in prop::collection::vec((0usize..30, 0usize..30, 0u8..8), 20..90),
        removals in prop::collection::vec(0usize..30, 0..4),
        seed in 0u64..1000,
        walks_per_node in 1usize..20,
        walk_len in 100usize..1200,
        tag in 0u8..3,
    ) {
        let g = build(n, &edges, &removals);
        let strategy = strategy_from(tag, 0.5);
        let config = WalkConfig { walks_per_node, walk_len, seed, strategy };
        assert_stream_is_the_stored_corpus(&g, &config);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Training on the stream gives the bits of training on the stored
    /// corpus, for both Word2Vec objectives and for PV-DBOW over the
    /// arena's node documents.
    #[test]
    fn training_on_the_stream_equals_training_on_the_stored_corpus(
        n in 2usize..14,
        edges in prop::collection::vec((0usize..14, 0usize..14, 0u8..8), 1..40),
        removals in prop::collection::vec(0usize..14, 0..3),
        seed in 0u64..1000,
        tag in 0u8..3,
    ) {
        let g = build(n, &edges, &removals);
        let csr = CsrGraph::from_graph(&g);
        let config = WalkConfig {
            walks_per_node: 5,
            walk_len: 6,
            seed,
            strategy: strategy_from(tag, 0.5),
        };
        let stream = WalkStream::new(&csr, &config);
        let flat = generate_walk_corpus(&csr, &config);
        let counts = flat.token_counts(g.id_bound(), false);
        for mode in [W2vMode::SkipGram, W2vMode::Cbow] {
            let w2v = Word2VecConfig { dim: 9, window: 3, epochs: 2, mode, seed, ..Default::default() };
            prop_assert_eq!(
                bits(&train_corpus(&stream, stream.token_counts(), &w2v)),
                bits(&train_corpus(&flat, &counts, &w2v)),
                "{:?}", mode
            );
        }
        let d2v = Doc2VecConfig { dim: 9, epochs: 2, seed, ..Default::default() };
        prop_assert_eq!(
            bits(&train_pv_dbow(&stream, stream.token_counts(), &d2v)),
            bits(&train_pv_dbow(&arena_documents(&flat, g.id_bound()), &counts, &d2v))
        );
    }
}

/// `build`'s graph, then each `(keep, remove)` of `merges` applied with
/// [`Graph::merge_nodes`] (a no-op on equal or removed ids): tombstones
/// between live ids, as §II-C similarity merging leaves them.
fn build_merged(
    n: usize,
    edges: &[(usize, usize, u8)],
    removals: &[usize],
    merges: &[(usize, usize)],
) -> Graph {
    let mut g = build(n, edges, removals);
    for &(keep, remove) in merges {
        g.merge_nodes(NodeId((keep % n) as u32), NodeId((remove % n) as u32));
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Word2Vec over the stream's dense rows gives every id the bits the
    /// id-order trainer gives it over the stored corpus: a walked id its
    /// trained row, a tombstoned one its untouched initialization. Both
    /// objectives, with and without frequency subsampling (which reads
    /// each row's count), on graphs with up to half their ids
    /// tombstoned or merged away.
    #[test]
    fn training_on_dense_rows_equals_the_id_order_trainer(
        n in 4usize..28,
        edges in prop::collection::vec((0usize..28, 0usize..28, 0u8..8), 1..60),
        removals in prop::collection::vec(0usize..28, 0..8),
        merges in prop::collection::vec((0usize..28, 0usize..28), 0..8),
        seed in 0u64..1000,
        tag in 0u8..3,
        subsample in prop::sample::select(vec![0.0f64, 0.02, 0.3]),
        dim in prop::sample::select(vec![9usize, 16]),
    ) {
        let g = build_merged(n, &edges, &removals, &merges);
        let csr = CsrGraph::from_graph(&g);
        let config = WalkConfig {
            walks_per_node: 4,
            walk_len: 7,
            seed,
            strategy: strategy_from(tag, 0.5),
        };
        let stream = WalkStream::new(&csr, &config);
        let flat = generate_walk_corpus(&csr, &config);
        if flat.is_empty() {
            // Every node removed: the id-order trainer returns nothing.
            return;
        }
        let counts = flat.token_counts(g.id_bound(), false);
        let layout = stream.layout();
        prop_assert_eq!(layout.live(), counts.iter().filter(|&&c| c > 0).count());
        for mode in [W2vMode::SkipGram, W2vMode::Cbow] {
            let w2v = Word2VecConfig {
                dim, window: 3, epochs: 2, mode, seed, subsample, ..Default::default()
            };
            let dense = train_rows(&stream.rows(), layout, &w2v);
            let by_id = train_corpus(&flat, &counts, &w2v);
            for id in 0..g.id_bound() {
                prop_assert_eq!(
                    bits(&dense.vector(id)),
                    bits(&by_id[id * dim..(id + 1) * dim]),
                    "{:?}, subsample {}, id {} (count {})", mode, subsample, id, counts[id]
                );
            }
        }
    }
}
