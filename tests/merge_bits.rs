//! Root-level contract: the graph §II-C similarity merging leaves behind
//! is pinned, bit for bit, on both benchmark fit corpora.
//!
//! `fit_bits` reaches the merge only through imdb *tiny*'s trained
//! rankings, and nothing pinned the text scenario's merge at all. Here
//! `build_graph` runs with each scenario's pre-trained model and γ on
//! the corpora the `fit-text` (`sts2`) and `fit-table` (`imdb-wt`)
//! workloads fit (`Scale::Small`, corpus seed 11), and the result is
//! hashed whole: every label in id order, every removed flag, each
//! node's adjacency and edge kinds in order, and the `MergeStats`.
//!
//! The constants were recorded on ecdd4e1, where each candidate pair
//! still rebuilt both label vectors through
//! `PretrainedModel::label_similarity`, *before* `merging.rs` changed.

use tdmatch::core::builder::build_graph;
use tdmatch::core::merging::MergeStats;
use tdmatch::datasets::Scale;
use tdmatch::graph::{Graph, NodeId};
use tdmatch::scenarios::registry;

/// The corpus seed of the repository benchmark's fit workloads.
const CORPUS_SEED: u64 = 11;

/// `(graph hash, MergeStats)` for `sts2` at `Scale::Small`, seed 11,
/// recorded on ecdd4e1.
const STS2: (u64, MergeStats) = (
    0xCE76_BA97_C3F7_BF4B,
    MergeStats {
        pairs_compared: 66_322,
        merged: 2_669,
    },
);
/// The same for `imdb-wt`, recorded on ecdd4e1.
const IMDB_WT: (u64, MergeStats) = (
    0xDC55_F548_4D51_CFF3,
    MergeStats {
        pairs_compared: 179_987,
        merged: 6_735,
    },
);

/// FNV-1a over labels, removed flags, and adjacency with edge kinds.
fn graph_hash(g: &Graph) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    mix(&(g.id_bound() as u64).to_le_bytes());
    for id in (0..g.id_bound() as u32).map(NodeId) {
        let label = g.label(id);
        mix(&(label.len() as u64).to_le_bytes());
        mix(label.as_bytes());
        mix(&[g.is_removed(id) as u8]);
        mix(&(g.degree(id) as u64).to_le_bytes());
        for (n, kind) in g.neighbors(id).iter().zip(g.neighbor_kinds(id)) {
            mix(&n.0.to_le_bytes());
            mix(&[kind.index() as u8]);
        }
    }
    h
}

fn assert_pinned(key: &str, want: (u64, MergeStats)) {
    let scenario = registry::by_key(key)
        .expect("a registered scenario")
        .generate(Scale::Small, CORPUS_SEED);
    let merge = Some((&scenario.pretrained, scenario.gamma));
    let built = build_graph(&scenario.first, &scenario.second, &scenario.config, merge);
    assert!(built.stats.merge.merged > 0, "{key}: the fixture must merge");
    let got = (graph_hash(&built.graph), built.stats.merge);
    assert_eq!(got, want, "{key}: got ({:#018X}, {:?})", got.0, got.1);
}

#[test]
fn text_merge_bits_are_pinned() {
    assert_pinned("sts2", STS2);
}

#[test]
fn table_merge_bits_are_pinned() {
    assert_pinned("imdb-wt", IMDB_WT);
}
