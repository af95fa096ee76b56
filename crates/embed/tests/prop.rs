//! Property-based tests for the embedding substrate.

use proptest::prelude::*;

use tdmatch_embed::neg_table::NegativeTable;
use tdmatch_embed::vectors::{cosine, mean_of, normalize};
use tdmatch_embed::vocab::Vocab;
use tdmatch_embed::walks::{generate_walk_corpus, WalkConfig, WalkStrategy};
use tdmatch_graph::{CsrGraph, Graph, NodeId};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cosine is bounded and symmetric.
    #[test]
    fn cosine_bounded_symmetric(
        a in prop::collection::vec(-10.0f32..10.0, 1..16),
        b in prop::collection::vec(-10.0f32..10.0, 1..16),
    ) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let s = cosine(a, b);
        prop_assert!((-1.0001..=1.0001).contains(&s), "s = {s}");
        prop_assert!((s - cosine(b, a)).abs() < 1e-6);
    }

    /// Normalization yields unit vectors (except the zero vector).
    #[test]
    fn normalize_unit(v in prop::collection::vec(-5.0f32..5.0, 1..16)) {
        let mut w = v.clone();
        normalize(&mut w);
        let norm: f32 = w.iter().map(|x| x * x).sum::<f32>().sqrt();
        if v.iter().any(|&x| x.abs() > 1e-3) {
            prop_assert!((norm - 1.0).abs() < 1e-3, "norm = {norm}");
        }
    }

    /// The mean vector lies inside the bounding box of the inputs.
    #[test]
    fn mean_in_bounding_box(
        vs in prop::collection::vec(prop::collection::vec(-5.0f32..5.0, 4), 1..6),
    ) {
        let refs: Vec<&[f32]> = vs.iter().map(|v| v.as_slice()).collect();
        let mean = mean_of(refs.iter().copied()).unwrap();
        for d in 0..4 {
            let lo = vs.iter().map(|v| v[d]).fold(f32::INFINITY, f32::min);
            let hi = vs.iter().map(|v| v[d]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(mean[d] >= lo - 1e-4 && mean[d] <= hi + 1e-4);
        }
    }

    /// Vocab ids are dense, frequency-ordered, and consistent.
    #[test]
    fn vocab_is_frequency_ordered(
        sentences in prop::collection::vec(
            prop::collection::vec("[a-d]{1,2}", 1..8),
            1..10,
        ),
    ) {
        let vocab = Vocab::build(&sentences, 1);
        for id in 1..vocab.len() as u32 {
            prop_assert!(vocab.count(id - 1) >= vocab.count(id));
        }
        for id in 0..vocab.len() as u32 {
            prop_assert_eq!(vocab.id(vocab.word(id)), Some(id));
        }
        let total: u64 = (0..vocab.len() as u32).map(|i| vocab.count(i)).sum();
        prop_assert_eq!(total, vocab.total());
    }

    /// Negative sampling only returns in-range ids.
    #[test]
    fn negative_samples_in_range(
        counts in prop::collection::vec(1u64..100, 1..20),
        seed in 0u64..1000,
    ) {
        use rand::SeedableRng;
        let table = NegativeTable::new(&counts, 4096);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        for _ in 0..100 {
            let s = table.sample(&mut rng) as usize;
            prop_assert!(s < counts.len());
        }
    }

    /// Walk corpora: correct count, valid steps, counts consistent.
    #[test]
    fn walk_corpus_consistent(
        n in 2usize..10,
        ring_extra in prop::collection::vec((0usize..10, 0usize..10), 0..10),
        walks in 1usize..4,
        len in 1usize..6,
    ) {
        let mut g = Graph::new();
        let ids: Vec<NodeId> = (0..n).map(|i| g.intern_data(&format!("n{i}"))).collect();
        for i in 0..n {
            g.add_edge(ids[i], ids[(i + 1) % n]);
        }
        for &(a, b) in &ring_extra {
            g.add_edge(ids[a % n], ids[b % n]);
        }
        let corpus = generate_walk_corpus(&CsrGraph::from_graph(&g), &WalkConfig {
            walks_per_node: walks,
            walk_len: len,
            seed: 11,
            strategy: WalkStrategy::Uniform,
        });
        prop_assert_eq!(corpus.len(), n * walks);
        for sent in corpus.sentences() {
            prop_assert_eq!(sent.len(), len + 1);
            for w in sent.windows(2) {
                prop_assert!(g.has_edge(NodeId(w[0]), NodeId(w[1])));
            }
        }
        let counts = corpus.token_counts(g.id_bound(), false);
        let total: u64 = counts.iter().sum();
        prop_assert_eq!(total as usize, corpus.sentences().map(<[u32]>::len).sum::<usize>());
    }
}
