//! Root-level contract: a fit under `EmbedMethod::WalkDoc2Vec` is pinned
//! bit for bit, rankings and artifact bytes, as `fit_bits.rs` pins the
//! two Word2Vec fits.
//!
//! PV-DBOW trains one row per node on that node's document, the walks
//! that start at it. The fit is `imdb-wt` with expansion and similarity
//! merging, so the graph has tombstoned ids, whose documents are empty
//! and whose rows must come out zero. The constants were recorded on
//! 5cb7814, where each document was a range of a stored walk corpus,
//! before the fit trained on walks regenerated every epoch.

mod common;

use common::{hash_results, Fnv};
use tdmatch::core::config::{EmbedMethod, TdConfig};
use tdmatch::core::pipeline::{FitOptions, TdMatch};
use tdmatch::datasets::{imdb, Scale};

/// imdb tiny, seed 7, W-RW-EX with merge, PV-DBOW:
/// `(ranking hash, artifact byte hash)`, recorded on 5cb7814.
const IMDB_DOC2VEC: (u64, u64) = (0x561D_8E17_7D83_400D, 0xBE5A_5A0B_F4AE_6C9E);

#[test]
fn walk_doc2vec_fit_bits_are_pinned() {
    let scenario = imdb::generate(Scale::Tiny, 7, true);
    let config = TdConfig {
        walks_per_node: 12,
        walk_len: 10,
        dim: 32,
        epochs: 2,
        seed: 7,
        embed_method: EmbedMethod::WalkDoc2Vec,
        ..scenario.config.clone()
    };
    let model = TdMatch::new(config)
        .fit_with(
            &scenario.first,
            &scenario.second,
            FitOptions {
                kb: Some(scenario.kb.as_ref()),
                compression: None,
                merge: Some((&scenario.pretrained, scenario.gamma)),
            },
        )
        .unwrap();
    assert!(model.graph.node_count() < model.graph.id_bound(), "the merge left no tombstone");
    let mut bytes = Vec::new();
    model.artifact().write_to(&mut bytes).unwrap();
    let mut h = Fnv::new();
    h.bytes(&bytes);
    let got = (hash_results(&model.match_top_k(5)), h.0);
    assert_eq!(got, IMDB_DOC2VEC, "got ({:#018X}, {:#018X})", got.0, got.1);
}
