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
use tdmatch::graph::CsrGraph;

const K: usize = 5;

/// Node and edge counts of the reloaded graph, recorded on bcffb6c.
const RESUMED_GRAPH_SIZE: (usize, usize) = (319, 1163);
/// FNV-1a over `(query, target, score.to_bits())` of the resumed fit's
/// `match_top_k(K)`, recorded on bcffb6c.
const RESUMED_RANKING_HASH: u64 = 0x3E76_C846_8032_6AF0;
/// FNV-1a over the bytes of the resumed model's own saved graph file —
/// every array of the reloaded graph, its labels and its sorted index,
/// which the rankings only sample. Recorded on ec0e2be, through the
/// loader that rebuilt a mutable graph and froze it again.
const RESUMED_GRAPH_FILE_HASH: u64 = 0xAFC6_A065_EA47_8522;

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

fn temp() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tdmatch-resume-bits-{}.tdz", std::process::id()))
}

fn save_then_load(graph: &CsrGraph) -> CsrGraph {
    let path = temp();
    graph.save(&path).unwrap();
    let loaded = CsrGraph::load(&path);
    std::fs::remove_file(&path).ok();
    loaded.unwrap()
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
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

    let mut h = Fnv::new();
    for result in resumed.match_top_k(K) {
        for (target, score) in result.ranked {
            h.bytes(&(result.query as u64).to_le_bytes());
            h.bytes(&(target as u64).to_le_bytes());
            h.bytes(&(score.to_bits() as u64).to_le_bytes());
        }
    }
    let path = temp();
    resumed.graph.save(&path).unwrap();
    let file = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let mut file_hash = Fnv::new();
    file_hash.bytes(&file);
    assert_eq!(
        (resumed.graph_size(), h.0, file_hash.0),
        (
            RESUMED_GRAPH_SIZE,
            RESUMED_RANKING_HASH,
            RESUMED_GRAPH_FILE_HASH
        ),
        "got graph size {:?}, ranking hash {:#018X}, graph file hash {:#018X}",
        resumed.graph_size(),
        h.0,
        file_hash.0
    );
}
