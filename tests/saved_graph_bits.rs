//! Root-level contract: the graph a fitted model saves (`run
//! --save-graph`) is byte for byte the snapshot of the graph it was
//! fitted on.
//!
//! A fit drops its mutable `Graph` at the freeze and keeps the frozen
//! CSR with its node labels; that is what `CsrGraph::save` writes. This
//! test rebuilds the same graph through the public stage functions
//! (`build_graph`, then `expand_graph`) and holds the model's file to
//! the save of that graph, frozen. The fit is
//! `imdb-wt` at `Scale::Small` with merge and expansion, as the
//! benchmark's `fit-table` fits it, so the snapshot carries tombstones,
//! external nodes and every document of both sides.

use tdmatch::core::builder::build_graph;
use tdmatch::core::config::TdConfig;
use tdmatch::core::expand::expand_graph;
use tdmatch::core::pipeline::{FitOptions, TdMatch};
use tdmatch::datasets::Scale;
use tdmatch::graph::CsrGraph;
use tdmatch::scenarios::lifecycle::conformance_config;
use tdmatch::scenarios::registry;

fn temp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "tdmatch-saved-graph-{name}-{}.tdz",
        std::process::id()
    ))
}

#[test]
fn a_models_saved_graph_equals_the_snapshot_of_the_rebuilt_graph() {
    let scenario = registry::by_key("imdb-wt")
        .expect("a registered scenario")
        .generate(Scale::Small, 11);
    // The graph does not depend on how long training runs.
    let config = TdConfig {
        walks_per_node: 1,
        epochs: 1,
        ..conformance_config(&scenario.config, Scale::Small, 100)
    };
    let merge = Some((&scenario.pretrained, scenario.gamma));
    let model = TdMatch::new(config.clone())
        .fit_with(
            &scenario.first,
            &scenario.second,
            FitOptions {
                kb: Some(scenario.kb.as_ref()),
                compression: None,
                merge,
            },
        )
        .unwrap();
    let mut graph = build_graph(&scenario.first, &scenario.second, &config, merge).graph;
    expand_graph(
        &mut graph,
        scenario.kb.as_ref(),
        config.max_relations_per_node,
    );
    assert!(
        graph.node_count() < graph.id_bound(),
        "the merge left no tombstone"
    );

    let (saved, rebuilt) = (temp("model"), temp("rebuilt"));
    model.graph.save(&saved).unwrap();
    CsrGraph::from_graph(&graph).save(&rebuilt).unwrap();
    let bytes = (
        std::fs::read(&saved).unwrap(),
        std::fs::read(&rebuilt).unwrap(),
    );
    std::fs::remove_file(&saved).ok();
    std::fs::remove_file(&rebuilt).ok();
    assert_eq!(&bytes.0[..4], b"TDZ1");
    assert!(
        bytes.0 == bytes.1,
        "the model saved {} bytes, the rebuilt graph {}",
        bytes.0.len(),
        bytes.1.len()
    );
}
