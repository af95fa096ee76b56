//! Property-based tests for graph creation (Alg. 1) invariants, and for
//! the artifact's term table and file round trip.

use std::collections::HashMap;

use proptest::prelude::*;
use proptest::TestRng;

use tdmatch_core::artifact::MatchArtifact;
use tdmatch_core::builder::build_graph;
use tdmatch_core::config::{FilterMode, TdConfig};
use tdmatch_core::corpus::{Corpus, Table, TextCorpus};
use tdmatch_graph::container::Storage;
use tdmatch_graph::{CorpusSide, NodeKind};

/// A word pool small enough to force overlap between corpora.
fn word(i: usize) -> String {
    format!("w{}", i % 12)
}

fn table_from(rows_spec: &[Vec<usize>]) -> Corpus {
    let n_cols = rows_spec.iter().map(|r| r.len()).max().unwrap_or(1);
    let columns: Vec<String> = (0..n_cols).map(|j| format!("c{j}")).collect();
    let rows: Vec<Vec<String>> = rows_spec
        .iter()
        .map(|r| {
            (0..n_cols)
                .map(|j| word(r.get(j).copied().unwrap_or(j)))
                .collect()
        })
        .collect();
    Corpus::Table(Table::new("t", columns, rows))
}

fn text_from(docs_spec: &[Vec<usize>]) -> Corpus {
    Corpus::Text(TextCorpus::new(
        docs_spec
            .iter()
            .map(|d| {
                d.iter()
                    .map(|&i| word(i))
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect(),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Algorithm 1 invariants: every document gets a metadata node; no
    /// metadata-metadata edges cross corpora; every term node is reachable
    /// from at least one metadata node.
    #[test]
    fn builder_invariants(
        rows in prop::collection::vec(
            prop::collection::vec(0usize..12, 1..4),
            1..6,
        ),
        docs in prop::collection::vec(
            prop::collection::vec(0usize..12, 1..6),
            1..6,
        ),
        filtering in prop::sample::select(vec![
            FilterMode::None,
            FilterMode::Intersect,
            FilterMode::TfIdf { k: 3 },
        ]),
    ) {
        let first = table_from(&rows);
        let second = text_from(&docs);
        let config = TdConfig {
            filtering,
            ..TdConfig::for_tests()
        };
        let built = build_graph(&first, &second, &config, None);
        let g = &built.graph;

        // Every document has exactly one matchable metadata node, whose
        // `(side, index)` is how a fit finds it.
        for (side, len) in [(CorpusSide::First, first.len()), (CorpusSide::Second, second.len())] {
            let mut indices: Vec<u32> = g
                .matchable_nodes(side)
                .iter()
                .filter_map(|&n| match g.kind(n) {
                    NodeKind::Meta { index, .. } => Some(index),
                    _ => None,
                })
                .collect();
            indices.sort_unstable();
            prop_assert_eq!(indices, (0..len as u32).collect::<Vec<_>>());
        }

        // No cross-corpus metadata edges.
        for (a, b) in g.edges() {
            let (ka, kb) = (g.kind(a), g.kind(b));
            if ka.is_metadata() && kb.is_metadata() {
                prop_assert_eq!(ka.side(), kb.side());
            }
        }

        // Data nodes all touch at least one metadata node (rows/docs are
        // non-empty, so every term was introduced through a document).
        for n in g.nodes() {
            if !g.kind(n).is_metadata() {
                prop_assert!(
                    g.neighbors(n).iter().any(|&m| g.kind(m).is_metadata()),
                    "orphan term {:?}",
                    g.label(n)
                );
            }
        }
    }

    /// Intersect never yields *more* term nodes than no filtering.
    #[test]
    fn intersect_is_a_filter(
        rows in prop::collection::vec(prop::collection::vec(0usize..12, 1..4), 1..5),
        docs in prop::collection::vec(prop::collection::vec(0usize..12, 1..6), 1..5),
    ) {
        let first = table_from(&rows);
        let second = text_from(&docs);
        let base = TdConfig::for_tests();
        let none = build_graph(
            &first,
            &second,
            &TdConfig { filtering: FilterMode::None, ..base.clone() },
            None,
        );
        let inter = build_graph(
            &first,
            &second,
            &TdConfig { filtering: FilterMode::Intersect, ..base },
            None,
        );
        prop_assert!(inter.stats.terms_created <= none.stats.terms_created);
    }

    /// Graph creation is deterministic.
    #[test]
    fn builder_deterministic(
        rows in prop::collection::vec(prop::collection::vec(0usize..12, 1..3), 1..4),
        docs in prop::collection::vec(prop::collection::vec(0usize..12, 1..5), 1..4),
    ) {
        let first = table_from(&rows);
        let second = text_from(&docs);
        let config = TdConfig::for_tests();
        let a = build_graph(&first, &second, &config, None);
        let b = build_graph(&first, &second, &config, None);
        prop_assert_eq!(a.graph.node_count(), b.graph.node_count());
        prop_assert_eq!(a.graph.edge_count(), b.graph.edge_count());
    }

    /// Any artifact survives a serialize → deserialize roundtrip exactly,
    /// and its matching output is unchanged.
    #[test]
    fn artifact_roundtrip_is_lossless(
        dim in 1usize..6,
        n_terms in 0usize..8,
        n_first in 1usize..6,
        n_second in 1usize..4,
        fill in prop::collection::vec(-1.0f32..1.0, 0..400),
    ) {
        let mut it = fill.into_iter().cycle();
        let mut vec_of = |dim: usize| -> Vec<f32> {
            (0..dim).map(|_| it.next().unwrap_or(0.5)).collect()
        };
        let terms: Vec<(String, Vec<f32>)> = (0..n_terms)
            .map(|i| (format!("term{i}"), vec_of(dim)))
            .collect();
        let first: Vec<Option<Vec<f32>>> = (0..n_first)
            .map(|i| if i % 3 == 2 { None } else { Some(vec_of(dim)) })
            .collect();
        let second: Vec<Option<Vec<f32>>> = (0..n_second)
            .map(|_| Some(vec_of(dim)))
            .collect();
        let a = MatchArtifact::new(dim, terms, first, second);
        let mut buf = Vec::new();
        a.write_to(&mut buf).unwrap();
        let b = MatchArtifact::from_storage(&Storage::from_bytes(&buf)).unwrap();
        prop_assert_eq!(&a, &b);
        let (ra, rb) = (a.match_top_k(5), b.match_top_k(5));
        for (x, y) in ra.iter().zip(&rb) {
            prop_assert_eq!(x.target_indices(), y.target_indices());
        }
    }

    /// The zero-copy load path is ranking-identical to the live matcher:
    /// an artifact written and reloaded from bytes (borrowed matrices)
    /// returns exactly the rankings of matching the raw rows directly —
    /// which is what `TdModel::match_top_k` computes — with no per-call
    /// normalization.
    #[test]
    fn zero_copy_artifact_matches_like_live_model(
        dim in 1usize..8,
        n_first in 1usize..8,
        n_second in 1usize..6,
        k in 1usize..10,
        fill in prop::collection::vec(-1.0f32..1.0, 0..400),
        missing in prop::collection::vec(0usize..8, 0..4),
    ) {
        use tdmatch_core::matcher::top_k_matches_matrix;
        use tdmatch_embed::score::ScoreMatrix;

        let mut it = fill.into_iter().cycle();
        let mut vec_of = || -> Vec<f32> {
            (0..dim).map(|_| it.next().unwrap_or(0.5)).collect()
        };
        let first: Vec<Option<Vec<f32>>> = (0..n_first)
            .map(|i| (!missing.contains(&i)).then(&mut vec_of))
            .collect();
        let second: Vec<Option<Vec<f32>>> = (0..n_second)
            .map(|_| Some(vec_of()))
            .collect();

        // What the live model computes: normalize-once + dot-many over
        // the same raw rows.
        let live = top_k_matches_matrix(
            &ScoreMatrix::from_options(&second),
            &ScoreMatrix::from_options(&first),
            k,
            None,
            None,
        );

        let a = MatchArtifact::new(dim, Vec::new(), first, second);
        let mut buf = Vec::new();
        a.write_to(&mut buf).unwrap();
        let storage = Storage::from_bytes(&buf);
        let loaded = MatchArtifact::from_storage(&storage).unwrap();
        prop_assert!(loaded.is_zero_copy());

        let warm = loaded.match_top_k(k);
        prop_assert_eq!(live.len(), warm.len());
        for (l, w) in live.iter().zip(&warm) {
            // Indices and tie-breaks exact; scores bit-identical (both
            // paths run the same normalized dot kernel).
            prop_assert_eq!(l, w);
        }
    }

    /// Every corrupted byte of an artifact is detected at load time.
    #[test]
    fn artifact_corruption_never_loads_silently(
        flip_byte in 0usize..200,
        flip_bit in 0u8..8,
    ) {
        let a = MatchArtifact::new(
            2,
            vec![("x".to_string(), vec![0.25, -0.5])],
            vec![Some(vec![1.0, 0.0]), None],
            vec![Some(vec![0.0, 1.0])],
        );
        let mut buf = Vec::new();
        a.write_to(&mut buf).unwrap();
        let pos = flip_byte % buf.len();
        buf[pos] ^= 1 << flip_bit;
        match MatchArtifact::from_storage(&Storage::from_bytes(&buf)) {
            Err(_) => {}
            Ok(loaded) => prop_assert!(
                false,
                "corrupted byte {pos} loaded silently: {loaded:?}"
            ),
        }
    }
}

/// A stem and up to three letters, from an alphabet with non-ASCII
/// ones, so vocabularies hold the empty label, labels that are prefixes
/// of others, repeats, and labels that share their first 8 bytes.
fn label(rng: &mut TestRng) -> String {
    const STEMS: [&str; 3] = ["", "abcdefg", "日日日"];
    const LETTERS: [&str; 6] = ["a", "b", "é", "z", "ü", "日"];
    let stem = STEMS[rng.below(STEMS.len() as u64) as usize];
    let letters = (0..rng.below(4)).map(|_| LETTERS[rng.below(LETTERS.len() as u64) as usize]);
    std::iter::once(stem).chain(letters).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// A term's binary search over the ascending labels finds what a
    /// `HashMap` of the input finds (the first of repeated labels kept),
    /// built in memory and loaded from its bytes alike: every stored
    /// label, fresh labels, probes just past a stored label (between it
    /// and its successor), and probes below and above every label.
    #[test]
    fn term_lookup_matches_a_hash_map(seed in 0u64..u64::MAX) {
        let rng = &mut TestRng::new(seed);
        let dim = 1 + rng.below(3) as usize;
        let terms: Vec<(String, Vec<f32>)> = (0..rng.below(24) as usize)
            .map(|i| (label(rng), (0..dim).map(|j| (i * dim + j) as f32).collect()))
            .collect();
        let mut oracle: HashMap<&str, &[f32]> = HashMap::new();
        for (l, v) in &terms {
            oracle.entry(l.as_str()).or_insert(v.as_slice());
        }
        let built = MatchArtifact::new(dim, terms.clone(), Vec::new(), Vec::new());
        let mut buf = Vec::new();
        built.write_to(&mut buf).unwrap();
        let loaded = MatchArtifact::from_storage(&Storage::from_bytes(&buf)).unwrap();

        let mut probes: Vec<String> = terms.iter().map(|(l, _)| l.clone()).collect();
        probes.extend(terms.iter().map(|(l, _)| format!("{l}\0")));
        probes.extend((0..8).map(|_| label(rng)));
        probes.extend(["".to_string(), "\u{10FFFF}".to_string()]);
        for artifact in [&built, &loaded] {
            prop_assert_eq!(artifact.term_count(), oracle.len(), "seed {}", seed);
            let mut keys: Vec<&str> = oracle.keys().copied().collect();
            keys.sort_unstable();
            prop_assert_eq!(artifact.term_labels().collect::<Vec<_>>(), keys, "seed {}", seed);
            for probe in &probes {
                prop_assert_eq!(
                    artifact.term_vector(probe),
                    oracle.get(probe.as_str()).copied(),
                    "seed {} probe {:?}",
                    seed,
                    probe
                );
            }
        }
    }
}
