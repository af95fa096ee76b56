//! Root-level contract: a fit's memory does not grow with its walk
//! corpus.
//!
//! A fit trains on walks regenerated every epoch and never stores them,
//! so ten times the walks per node must leave the fit's peak heap almost
//! where it was. A global allocator counts the live heap bytes and their
//! peak. `sts2` at `Scale::Tiny` is fitted at 4 and at 40 walks per
//! node, all else equal; the peak may grow by less than a tenth of what
//! storing the extra tokens would take (4 bytes each). A fit that stores
//! its corpus grows by at least the extra tokens' bytes.
//!
//! This file holds one test: the counter (`counting/mod.rs`) sees every
//! thread, so nothing else may allocate while it measures.

mod counting;

use tdmatch::core::config::TdConfig;
use tdmatch::core::pipeline::TdMatch;
use tdmatch::datasets::{sts, Scale};

use counting::{peak, reset_peak};

/// `(peak heap bytes above the start of the fit, walk tokens)` of one
/// `sts2` fit at `walks_per_node`.
fn fit_peak(walks_per_node: usize) -> (usize, u64) {
    let scenario = sts::generate(Scale::Tiny, 7, 2);
    let config = TdConfig {
        walks_per_node,
        walk_len: 20,
        dim: 32,
        epochs: 1,
        seed: 7,
        ..scenario.config.clone()
    };
    let trainer = TdMatch::new(config);
    let before = reset_peak();
    let model = trainer.fit(&scenario.first, &scenario.second).unwrap();
    (peak() - before, model.timings.train_tokens)
}

#[test]
fn peak_heap_does_not_grow_with_the_walk_corpus() {
    let (few_peak, few_tokens) = fit_peak(4);
    let (many_peak, many_tokens) = fit_peak(40);
    let extra_tokens = many_tokens - few_tokens;
    assert!(extra_tokens > 100_000, "too few tokens to see: {extra_tokens}");
    let growth = many_peak.saturating_sub(few_peak);
    eprintln!(
        "peak heap: {few_peak} B at {few_tokens} tokens, {many_peak} B at {many_tokens} tokens"
    );
    assert!(
        growth * 10 < extra_tokens as usize * 4,
        "the peak grew by {growth} B for {extra_tokens} extra tokens \
         ({few_peak} B → {many_peak} B)"
    );
}
