//! Cross-crate integration tests for the future-work extensions: typed
//! edges, biased walk strategies, persistence, and out-of-corpus
//! queries — all on real scenario data.

use tdmatch::core::artifact::MatchArtifact;
use tdmatch::core::config::TdConfig;
use tdmatch::core::pipeline::{FitOptions, TdMatch, TdModel};
use tdmatch::core::serving::Matcher;
use tdmatch::datasets::{audit, imdb, Scale, Scenario};
use tdmatch::embed::walks::WalkStrategy;
use tdmatch::graph::{EdgeKind, EdgeTypeWeights};
use tdmatch::text::Preprocessor;

fn test_config(base: &TdConfig) -> TdConfig {
    TdConfig {
        walks_per_node: 15,
        walk_len: 10,
        dim: 48,
        epochs: 3,
        threads: 2,
        ..base.clone()
    }
}

fn fit(scenario: &Scenario, config: TdConfig, expand: bool) -> TdModel {
    TdMatch::new(config)
        .fit_with(
            &scenario.first,
            &scenario.second,
            FitOptions {
                kb: expand.then_some(scenario.kb.as_ref()),
                compression: None,
                merge: Some((&scenario.pretrained, scenario.gamma)),
            },
        )
        .expect("fit")
}

fn top1_accuracy(model: &TdModel, scenario: &Scenario) -> f64 {
    let results = model.match_top_k(1);
    let truth = scenario.truth_sets();
    let mut hits = 0usize;
    let mut labeled = 0usize;
    for (r, t) in results.iter().zip(&truth) {
        if t.is_empty() {
            continue;
        }
        labeled += 1;
        if r.target_indices().first().is_some_and(|x| t.contains(x)) {
            hits += 1;
        }
    }
    hits as f64 / labeled.max(1) as f64
}

#[test]
fn built_scenario_graphs_have_typed_edges_only() {
    let scenario = imdb::generate(Scale::Tiny, 7, true);
    let model = fit(&scenario, test_config(&scenario.config), false);
    let hist = model.graph.edge_kind_histogram();
    assert!(hist[EdgeKind::Contains.index()] > 0, "no containment edges");
    assert!(hist[EdgeKind::ColumnOf.index()] > 0, "no column edges");
    assert_eq!(
        hist[EdgeKind::Generic.index()],
        0,
        "pipeline-built graph must not contain untyped edges"
    );
}

#[test]
fn expansion_adds_external_edges() {
    let scenario = imdb::generate(Scale::Tiny, 7, true);
    let model = fit(&scenario, test_config(&scenario.config), true);
    let hist = model.graph.edge_kind_histogram();
    assert!(
        hist[EdgeKind::External.index()] > 0,
        "expansion must tag its edges External"
    );
}

#[test]
fn taxonomy_scenario_has_hierarchy_edges() {
    let scenario = audit::generate(Scale::Tiny, 7);
    let model = fit(&scenario, test_config(&scenario.config), false);
    let hist = model.graph.edge_kind_histogram();
    assert!(hist[EdgeKind::Hierarchy.index()] > 0, "no hierarchy edges");
}

#[test]
fn every_walk_strategy_matches_reasonably() {
    let scenario = imdb::generate(Scale::Tiny, 7, true);
    let strategies = [
        WalkStrategy::Uniform,
        WalkStrategy::Node2Vec { p: 0.5, q: 2.0 },
        WalkStrategy::EdgeTyped(
            EdgeTypeWeights::uniform().with(EdgeKind::Contains, 2.0),
        ),
    ];
    for strategy in strategies {
        let config = TdConfig {
            walk_strategy: strategy,
            ..test_config(&scenario.config)
        };
        let model = fit(&scenario, config, false);
        let acc = top1_accuracy(&model, &scenario);
        assert!(
            acc >= 0.4,
            "strategy {strategy:?} collapsed: top-1 accuracy {acc}"
        );
    }
}

#[test]
fn artifact_survives_disk_roundtrip_on_scenario_data() {
    let scenario = imdb::generate(Scale::Tiny, 7, true);
    let model = fit(&scenario, test_config(&scenario.config), false);
    let path = std::env::temp_dir().join(format!("tdmatch-extensions-test-{}.tdm", std::process::id()));
    model.artifact().save(&path).expect("save");
    let loaded = MatchArtifact::load(&path).expect("load");
    std::fs::remove_file(&path).ok();
    for (live, cold) in model.match_top_k(5).iter().zip(loaded.match_top_k(5)) {
        assert_eq!(live.target_indices(), cold.target_indices());
    }
}

#[test]
fn out_of_corpus_query_finds_related_tuples() {
    let scenario = imdb::generate(Scale::Tiny, 7, true);
    let model = fit(&scenario, test_config(&scenario.config), false);
    let matcher = Matcher::new(model.artifact());
    // Build a fresh query from the first labeled query document's text —
    // the artifact has never seen it as a *new* query, but its tokens are
    // in vocabulary, so the ranking should hit that document's true match
    // within a small k.
    let qi = scenario
        .ground_truth
        .iter()
        .position(|g| !g.is_empty())
        .expect("some labeled query");
    let text = scenario.second.fields(qi).join(" ");
    let tokens = Preprocessor::default().base_tokens(&text);
    let ranked = matcher.query_by_tokens(&tokens, 10);
    assert!(!ranked.is_empty());
    let truth = &scenario.ground_truth[qi];
    assert!(
        ranked.iter().any(|(t, _)| truth.contains(t)),
        "true match not in top-10 for replayed query"
    );
}
