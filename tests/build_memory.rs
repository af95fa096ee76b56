//! Root-level contract: a fit's memory follows the live graph.
//!
//! `imdb-wt` at `Scale::Small` is fitted the way the benchmark's
//! `fit-table` fits it (W-RW-EX with §II-C similarity merging), one
//! stage at a time, under a global allocator that counts the live heap
//! bytes and their peak (`counting/mod.rs`). Three bounds, all above the
//! heap the scenario holds:
//!
//! * `build_graph`'s peak is at most [`BUILD_OVER_GRAPH`] times the heap
//!   of the graph it returns: the merge frees its scratch as it goes.
//!   (A build that keeps its token lists, a doubled label arena and
//!   24-byte candidates through a stable sort peaks at 5.3 times its
//!   graph.)
//! * The training stage (the expanded graph frozen and dropped, as a fit
//!   does, then `fit_prebuilt`: walk counts, Word2Vec, the artifact)
//!   peaks below
//!   `(live ids + id bound) × dim × 4` bytes of weights, plus the
//!   negative-sampling index, plus [`SLACK`]. Input rows exist only for
//!   the ids the walks visit (8,084 of 10,297 ids are merged away), and
//!   the mutable `Graph` is dropped at the freeze: measured
//!   from the scenario, a `Graph` kept alive through training counts,
//!   and a fit that keeps it (2.6 MB) fails the bound.
//! * The fitted model's heap is below that of the `Graph` it was fitted
//!   from: it keeps the frozen CSR and the labels, not the `Graph`.
//!
//! This file holds one test: the counter sees every thread, so nothing
//! else may allocate while it measures.

mod counting;

use tdmatch::core::builder::build_graph;
use tdmatch::core::config::TdConfig;
use tdmatch::core::expand::expand_graph;
use tdmatch::core::pipeline::TdMatch;
use tdmatch::datasets::Scale;
use tdmatch::graph::CsrGraph;
use tdmatch::scenarios::lifecycle::conformance_config;
use tdmatch::scenarios::registry;

use counting::{live, peak, reset_peak};

/// What the training stage holds besides the weights and the negative
/// index: the graph until the freeze drops it, then the frozen CSR and
/// its labels, the walk counts and their row layout, one chunk of walks
/// and the trainer's scratch.
const SLACK: usize = 1_500_000;

/// `build_graph`'s peak over the heap of the graph it returns (2.64 here).
const BUILD_OVER_GRAPH: usize = 3;

#[test]
fn the_build_peak_and_the_training_weights_follow_the_live_graph() {
    let scenario = registry::by_key("imdb-wt")
        .expect("a registered scenario")
        .generate(Scale::Small, 11);
    // `fit-table`'s configuration, but one walk per node and one epoch:
    // the heap does not depend on how long training runs, and an
    // unoptimized build trains slowly.
    let config = TdConfig {
        walks_per_node: 1,
        epochs: 1,
        ..conformance_config(&scenario.config, Scale::Small, 100)
    };

    let start = reset_peak();
    let built = build_graph(
        &scenario.first,
        &scenario.second,
        &config,
        Some((&scenario.pretrained, scenario.gamma)),
    );
    let build_peak = peak() - start;
    let built_graph = live() - start;
    let mut graph = built.graph;
    expand_graph(&mut graph, scenario.kb.as_ref(), config.max_relations_per_node);
    let (ids, live_ids) = (graph.id_bound(), graph.node_count());
    assert!(live_ids * 2 < ids, "{live_ids} live ids of {ids}: too few merged to see");

    let expanded_graph = reset_peak() - start;
    let frozen = CsrGraph::from_graph(&graph);
    drop(graph);
    let model = TdMatch::new(config.clone()).fit_prebuilt(frozen).unwrap();
    let training = peak() - start;
    let fitted_model = live() - start;
    assert!(model.timings.train_tokens > 0);
    drop(model);
    assert!(live() >= start);

    let mb = |b: usize| b as f64 / 1e6;
    let weights = (live_ids + ids) * config.dim * 4;
    // `NegativeTable`: a run (start, row) per id plus the sentinel, and a
    // word per 16 slots of the table `train_rows` sizes.
    let slots = (ids * 32).max(1 << 20);
    let negative_index = 8 * (ids + 1) + 4 * slots.div_ceil(16);
    eprintln!(
        "above the scenario: build_graph peak {:.2} MB for a {:.2} MB graph; expanded graph \
         {:.2} MB; training stage peak {:.2} MB (weights {:.2} MB, negative index {:.2} MB); \
         fitted model {:.2} MB",
        mb(build_peak),
        mb(built_graph),
        mb(expanded_graph),
        mb(training),
        mb(weights),
        mb(negative_index),
        mb(fitted_model)
    );
    assert!(
        build_peak <= BUILD_OVER_GRAPH * built_graph,
        "build_graph peaks at {:.2} MB above the scenario, over {BUILD_OVER_GRAPH} × its \
         {:.2} MB graph",
        mb(build_peak),
        mb(built_graph)
    );
    assert!(
        training < weights + negative_index + SLACK,
        "the training stage peaks {:.2} MB above the scenario, over {:.2} MB of weights for \
         {live_ids} live ids of {ids}, {:.2} MB of negative index and {:.2} MB of slack",
        mb(training),
        mb(weights),
        mb(negative_index),
        mb(SLACK)
    );
    assert!(
        fitted_model < expanded_graph,
        "the fitted model holds {:.2} MB, more than the {:.2} MB graph it was fitted from",
        mb(fitted_model),
        mb(expanded_graph)
    );
}
