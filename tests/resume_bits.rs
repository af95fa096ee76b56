//! Root-level contract: resuming a fit from a saved graph is a pinned
//! function of the graph, bit for bit.
//!
//! `run --save-graph` / `resume` exist because expansion is the most
//! expensive stage (the paper reports 79k s for IMDb + DBpedia): the
//! fitted graph is saved once and re-embedded many times. A resumed fit
//! walks and trains over the *reloaded* graph, so the node numbering and
//! adjacency order the loader produces decide every walk and every
//! weight. This test pins the rankings of
//! `fit_prebuilt(load(save(model.graph)))` absolutely, so tier-1 cannot
//! go green while the saved-graph format silently changes what a resume
//! computes.
//!
//! The expected values were recorded on the parent commit (bcffb6c)
//! through the `TDG1` stream (its `write_graph` → `read_graph`),
//! *before* that codec was deleted — the way `train_bits.rs` and
//! `crc_bits.rs` were pinned. The fitted graph comes from the expanded,
//! merged imdb-wt scenario, so it carries tombstones (merged terms,
//! removed sinks) and the dense renumbering on load is exercised.

use tdmatch::core::config::TdConfig;
use tdmatch::core::pipeline::{FitOptions, TdMatch};
use tdmatch::datasets::{imdb, Scale};
use tdmatch::graph::{FrozenGraph, Graph};

const K: usize = 5;

/// Node and edge counts of the reloaded graph, recorded on bcffb6c.
const RESUMED_GRAPH_SIZE: (usize, usize) = (319, 1163);
/// FNV-1a over `(query, target, score.to_bits())` of the resumed fit's
/// `match_top_k(K)`, recorded on bcffb6c.
const RESUMED_RANKING_HASH: u64 = 0x3E76_C846_8032_6AF0;

fn config(base: &TdConfig) -> TdConfig {
    TdConfig {
        walks_per_node: 12,
        walk_len: 10,
        dim: 32,
        epochs: 2,
        seed: 7,
        ..base.clone()
    }
}

fn save_then_load(graph: &FrozenGraph) -> Graph {
    let path = std::env::temp_dir().join(format!("tdmatch-resume-bits-{}.tdz", std::process::id()));
    graph.save(&path).unwrap();
    let loaded = Graph::load_snapshot(&path);
    std::fs::remove_file(&path).ok();
    loaded.unwrap()
}

#[test]
fn resumed_fit_bits_are_pinned() {
    let scenario = imdb::generate(Scale::Tiny, 7, true);
    let trainer = TdMatch::new(config(&scenario.config));
    let model = trainer
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
    assert!(
        model.graph.id_bound() > model.graph.node_count(),
        "the fitted graph must carry tombstones for the renumbering to matter"
    );

    let resumed = trainer.fit_prebuilt(save_then_load(&model.graph)).unwrap();
    assert_eq!(resumed.graph_size(), model.graph_size());

    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for result in resumed.match_top_k(K) {
        for (target, score) in result.ranked {
            mix(result.query as u64);
            mix(target as u64);
            mix(score.to_bits() as u64);
        }
    }
    assert_eq!(
        (resumed.graph_size(), h),
        (RESUMED_GRAPH_SIZE, RESUMED_RANKING_HASH),
        "got graph size {:?}, ranking hash {h:#018X}",
        resumed.graph_size()
    );
}
