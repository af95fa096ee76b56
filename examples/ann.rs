//! Sub-linear retrieval end to end: fit a scenario, build the persisted
//! HNSW index inside the artifact, publish it, re-open it memory-mapped,
//! and answer ANN queries with exact widened-pool rescoring — verified
//! against the exact full scan.
//!
//! ```sh
//! cargo run --release --example ann
//! ```

use tdmatch::core::artifact::AnnSearch;
use tdmatch::core::pipeline::TdMatch;
use tdmatch::datasets::{imdb, Scale};
use tdmatch::embed::ann::HnswParams;

fn main() {
    // 1. Fit a small scenario and take its match artifact.
    let scenario = imdb::generate(Scale::Tiny, 42, true);
    let config = tdmatch::core::config::TdConfig {
        walks_per_node: 10,
        walk_len: 10,
        dim: 48,
        epochs: 3,
        ..scenario.config.clone()
    };
    let model = TdMatch::new(config)
        .fit(&scenario.first, &scenario.second)
        .expect("fit");
    let mut artifact = model.artifact();
    let (targets, queries) = artifact.corpus_sizes();
    println!("fitted artifact: {targets} targets, {queries} queries, dim {}", artifact.dim());

    // 2. Build the HNSW index over the target corpus and persist both.
    artifact.build_ann(&HnswParams::default());
    let index = artifact.ann().expect("index just built");
    println!(
        "index: {} rows, {} layers, {} edges (m {}, ef {})",
        index.count(),
        index.layers(),
        index.edges(),
        index.m(),
        index.ef_construction()
    );
    let dir = std::env::temp_dir().join(format!("tdmatch-ann-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("indexed.tdz");
    artifact.save(&path).expect("save");

    // 3. Re-open memory-mapped: the index loads zero-copy with the
    //    matrices; nothing is rebuilt.
    let mapped = tdmatch::core::artifact::MatchArtifact::load(&path).expect("mapped open");
    assert!(mapped.ann().is_some(), "index travels with the artifact");
    assert_eq!(&artifact, &mapped, "roundtrip is bit-identical");

    // 4. ANN retrieval with the pool widened to the corpus reproduces
    //    the exact scan bit for bit — the rerank uses the same kernels.
    let k = 5;
    let exact = mapped.match_top_k(k);
    let through_index = |pool: usize| {
        let search = Some(AnnSearch { pool, ef: pool });
        mapped.rank(mapped.second_matrix(), k, search).0
    };
    assert_eq!(exact, through_index(targets), "pool ≥ corpus must equal the exact scan");

    // 5. A narrow pool trades a little recall for sub-linear retrieval.
    let narrow = through_index(32);
    let mut hits = 0usize;
    let mut total = 0usize;
    for (e, n) in exact.iter().zip(&narrow) {
        let want: std::collections::HashSet<usize> =
            e.ranked.iter().map(|&(t, _)| t).collect();
        hits += n.ranked.iter().filter(|&&(t, _)| want.contains(&t)).count();
        total += want.len();
    }
    let recall = if total == 0 { 1.0 } else { hits as f64 / total as f64 };
    println!("pool 32 recall@{k}: {recall:.3} ({hits}/{total} exact top-{k} hits)");
    assert!(recall > 0.5, "a 32-wide pool should recover most of the top-{k}");

    for result in narrow.iter().take(3) {
        let ranked: Vec<String> = result
            .ranked
            .iter()
            .map(|(t, s)| format!("{t}:{s:.3}"))
            .collect();
        println!("query {:<3} -> {}", result.query, ranked.join(" "));
    }
    std::fs::remove_dir_all(&dir).ok();
    println!("ok: indexed, published, mapped, and verified against the exact scan");
}
