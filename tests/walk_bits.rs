//! Root-level contract: the walk corpus a fit trains on is a pinned
//! function of (graph, walk config), bit for bit, at any thread count.
//!
//! Training runs on one worker, so walk generation is the only stage a
//! fit runs on several threads. `fit_bits` holds a fit to the same bits
//! at any `threads`, but only through the two strategies its fits use;
//! this test pins each `WalkStrategy` directly: `generate_walk_corpus`
//! over one fixed built graph (imdb tiny, merged and expanded, so it
//! carries tombstones and external edges), at one thread and at three.
//!
//! The constants were recorded on 09f9d2e.

use tdmatch::core::builder::build_graph;
use tdmatch::core::expand::expand_graph;
use tdmatch::datasets::{imdb, Scale};
use tdmatch::embed::walks::{generate_walk_corpus, WalkConfig, WalkStrategy};
use tdmatch::graph::{CsrGraph, EdgeKind, EdgeTypeWeights, Graph};

/// FNV-1a over every walk's length and tokens, recorded on 09f9d2e.
const UNIFORM: u64 = 0x4051_27AF_807B_64F5;
const NODE2VEC: u64 = 0x7FFA_F8C4_4053_20D0;
const EDGE_TYPED: u64 = 0x1ECC_3FC8_368E_2CCB;

fn fixture() -> Graph {
    let scenario = imdb::generate(Scale::Tiny, 7, true);
    let merge = Some((&scenario.pretrained, scenario.gamma));
    let mut graph = build_graph(&scenario.first, &scenario.second, &scenario.config, merge).graph;
    expand_graph(
        &mut graph,
        scenario.kb.as_ref(),
        scenario.config.max_relations_per_node,
    );
    assert!(
        graph.id_bound() > graph.node_count(),
        "the fixture must carry tombstones: they start no walk"
    );
    graph
}

fn hash_walks<'a>(walks: impl Iterator<Item = &'a [u32]>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut mix = |x: u32| {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for walk in walks {
        mix(walk.len() as u32);
        walk.iter().for_each(|&t| mix(t));
    }
    h
}

fn assert_pinned(strategy: WalkStrategy, want: u64) {
    let graph = fixture();
    let csr = CsrGraph::from_graph(&graph);
    let base = WalkConfig {
        // Above the uniform path's eight lanes: a full batch and a tail.
        walks_per_node: 11,
        walk_len: 9,
        seed: 7,
        threads: 1,
        strategy,
    };
    for threads in [1, 3] {
        let corpus = generate_walk_corpus(&csr, &WalkConfig { threads, ..base });
        let got = hash_walks(corpus.sentences());
        assert_eq!(
            got, want,
            "{strategy:?} at {threads} threads: got {got:#018X}"
        );
    }
}

#[test]
fn uniform_walk_bits_are_pinned() {
    assert_pinned(WalkStrategy::Uniform, UNIFORM);
}

#[test]
fn node2vec_walk_bits_are_pinned() {
    assert_pinned(WalkStrategy::Node2Vec { p: 0.5, q: 2.0 }, NODE2VEC);
}

#[test]
fn edge_typed_walk_bits_are_pinned() {
    let weights = EdgeTypeWeights::uniform()
        .with(EdgeKind::External, 0.25)
        .with(EdgeKind::Contains, 2.0);
    assert_pinned(WalkStrategy::EdgeTyped(weights), EDGE_TYPED);
}
