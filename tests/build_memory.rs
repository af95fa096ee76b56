//! Root-level contract: a fit's memory follows the live graph.
//!
//! `imdb-wt` at `Scale::Small` is fitted the way the benchmark's
//! `fit-table` fits it (W-RW-EX with §II-C similarity merging), one
//! stage at a time, under a global allocator that counts the live heap
//! bytes and their peak (`counting/mod.rs`). Two bounds:
//!
//! * `build_graph`'s peak is no higher than the training stage's, both
//!   above the heap the scenario holds: the merge frees its scratch as it
//!   goes, so building a 2.6 MB graph does not cost more than training
//!   on it. (A build that keeps its token lists, a doubled label arena
//!   and 24-byte candidates through a stable sort peaks 13.2 MB above
//!   the scenario, against 10.2 MB for training.)
//! * The training stage (`fit_prebuilt` on the expanded graph: freeze,
//!   walk counts, Word2Vec, the artifact) needs input rows only for the
//!   ids its walks visit: its peak above its start stays below
//!   `(live ids + id bound) × dim × 4` bytes of weights, plus the
//!   negative-sampling index, plus [`SLACK`]. At 2,213 live ids of
//!   10,297, a trainer with an input row per id needs 2.6 MB more than
//!   that bound and fails it.
//!
//! This file holds one test: the counter sees every thread, so nothing
//! else may allocate while it measures.

mod counting;

use tdmatch::core::builder::build_graph;
use tdmatch::core::config::TdConfig;
use tdmatch::core::expand::expand_graph;
use tdmatch::core::pipeline::TdMatch;
use tdmatch::datasets::Scale;
use tdmatch::scenarios::lifecycle::conformance_config;
use tdmatch::scenarios::registry;

use counting::{live, peak, reset_peak};

/// What the training stage holds besides the weights and the negative
/// index: the frozen CSR snapshot, the walk counts and their row
/// layout, one chunk of walks and the trainer's scratch (0.8 MB here).
const SLACK: usize = 1_500_000;

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
    let mut graph = built.graph;
    expand_graph(&mut graph, scenario.kb.as_ref(), config.max_relations_per_node);
    let (ids, live_ids) = (graph.id_bound(), graph.node_count());
    assert!(live_ids * 2 < ids, "{live_ids} live ids of {ids}: too few merged to see");

    let before_training = reset_peak();
    let model = TdMatch::new(config.clone()).fit_prebuilt(graph).unwrap();
    let training_peak = peak();
    assert!(model.timings.train_tokens > 0);
    drop(model);
    assert!(live() >= start);

    let mb = |b: usize| b as f64 / 1e6;
    let (build, training) = (build_peak, training_peak - start);
    eprintln!(
        "above the scenario: build_graph peak {:.2} MB, training stage peak {:.2} MB",
        mb(build),
        mb(training)
    );
    assert!(
        build <= training,
        "build_graph peaks at {:.2} MB above the scenario, training at {:.2} MB",
        mb(build),
        mb(training)
    );

    let weights = (live_ids + ids) * config.dim * 4;
    // `NegativeTable`: a run (start, row) per id plus the sentinel, and a
    // word per 16 slots of the table `train_rows` sizes.
    let slots = (ids * 32).max(1 << 20);
    let negative_index = 8 * (ids + 1) + 4 * slots.div_ceil(16);
    let stage = training_peak - before_training;
    eprintln!(
        "training stage: {:.2} MB above its start; weights {:.2} MB, negative index {:.2} MB",
        mb(stage),
        mb(weights),
        mb(negative_index)
    );
    assert!(
        stage < weights + negative_index + SLACK,
        "the training stage peaks {:.2} MB above its start, over {:.2} MB of weights for \
         {live_ids} live ids of {ids}, {:.2} MB of negative index and {:.2} MB of slack",
        mb(stage),
        mb(weights),
        mb(negative_index),
        mb(SLACK)
    );
}
