//! Property tests pinning ANN retrieval to the exact engine:
//!
//! * an ANN pool widened to the corpus size reproduces the exact scan
//!   **bit-for-bit** (indices, tie-breaks, score bits) — the
//!   widened-pool rerank is a pure candidate filter over the same
//!   kernels, never a different scorer;
//! * the ANN-off default path is bit-identical whether or not the
//!   artifact carries an index (the index is dormant until asked for);
//! * an indexed artifact round-trips through save → mapped load with
//!   the index (and every ANN answer) bit-identical.

use proptest::prelude::*;

use tdmatch_core::artifact::{AnnSearch, MatchArtifact};
use tdmatch_core::delta::DeltaBatch;
use tdmatch_core::matcher::MatchResult;
use tdmatch_core::serving::Matcher;
use tdmatch_embed::ann::HnswParams;

/// SplitMix64 — deterministic vector material from a proptest seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f32 {
    (splitmix(state) >> 40) as f32 / (1u64 << 23) as f32 - 1.0
}

/// Optional rows: ~1/5 missing, ~1/7 all-zero, rest random in [-1, 1).
fn gen_rows(n: usize, dim: usize, state: &mut u64) -> Vec<Option<Vec<f32>>> {
    (0..n)
        .map(|_| {
            let marker = splitmix(state) % 35;
            if marker % 5 == 4 {
                None
            } else if marker % 7 == 3 {
                Some(vec![0.0; dim])
            } else {
                Some((0..dim).map(|_| unit(state)).collect())
            }
        })
        .collect()
}

fn indexed_artifact(
    dim: usize,
    n_targets: usize,
    n_queries: usize,
    state: &mut u64,
) -> MatchArtifact {
    let first = gen_rows(n_targets, dim, state);
    let second = gen_rows(n_queries, dim, state);
    let terms = vec![
        ("a".to_string(), (0..dim).map(|_| unit(state)).collect()),
        ("b".to_string(), (0..dim).map(|_| unit(state)).collect()),
    ];
    let mut artifact = MatchArtifact::new(dim, terms, first, second);
    artifact.build_ann(&HnswParams::default());
    artifact
}

/// The stored queries ranked through the index at `pool` (beam = pool).
fn ann_ranked(artifact: &MatchArtifact, k: usize, pool: usize) -> Vec<MatchResult> {
    let search = Some(AnnSearch { pool, ef: pool });
    artifact.rank(artifact.second_matrix(), k, search).0
}

/// Rankings with scores demoted to bits, so equality is bit-exact.
fn result_bits(results: &[MatchResult]) -> Vec<(usize, Vec<(usize, u32)>)> {
    results
        .iter()
        .map(|r| {
            (
                r.query,
                r.ranked.iter().map(|&(t, s)| (t, s.to_bits())).collect(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pool ≥ corpus ⟹ ANN ≡ exact scan, bit for bit, at any beam.
    #[test]
    fn wide_pool_ann_reproduces_the_exact_scan(
        dim in 1usize..10,
        n_targets in 0usize..40,
        n_queries in 0usize..6,
        k in 0usize..12,
        seed in 0u64..1_000_000,
    ) {
        let mut state = seed ^ 0xA57;
        let artifact = indexed_artifact(dim, n_targets, n_queries, &mut state);

        let exact = artifact.match_top_k(k);
        let pool = n_targets.max(1);
        for ef in [0usize, pool, 4 * pool] {
            let (ranked, usage) =
                artifact.rank(artifact.second_matrix(), k, Some(AnnSearch { pool, ef }));
            prop_assert_eq!(result_bits(&exact), result_bits(&ranked), "ef = {}", ef);
            // One pool per valid query, every one as wide as the corpus.
            let valid = artifact.second_matrix().valid_rows() as u64;
            prop_assert_eq!(usage.queries, valid);
            prop_assert_eq!(usage.pooled, valid * n_targets as u64);
        }
    }

    /// With ANN off (the default), a matcher answers bit-identically
    /// whether or not the artifact carries an index.
    #[test]
    fn dormant_index_never_changes_the_default_path(
        dim in 1usize..10,
        n_targets in 1usize..30,
        n_queries in 1usize..5,
        k in 0usize..10,
        seed in 0u64..1_000_000,
    ) {
        let mut state = seed ^ 0xBEE;
        let indexed = indexed_artifact(dim, n_targets, n_queries, &mut state);
        let mut plain = indexed.clone();
        plain.clear_ann();

        let with_index = Matcher::new(indexed);
        let without = Matcher::new(plain);
        prop_assert!(with_index.ann_pool().is_none(), "ANN must default off");

        // One id past the corpus: both must refuse it alike.
        for id in 0..n_queries + 1 {
            match (with_index.query_by_id(id, k), without.query_by_id(id, k)) {
                (Ok(rx), Ok(ry)) => {
                    let bx: Vec<(usize, u32)> =
                        rx.iter().map(|&(t, s)| (t, s.to_bits())).collect();
                    let by: Vec<(usize, u32)> =
                        ry.iter().map(|&(t, s)| (t, s.to_bits())).collect();
                    prop_assert_eq!(bx, by);
                }
                (Err(_), Err(_)) => {}
                other => prop_assert!(false, "diverged: {:?}", other),
            }
        }
    }

    /// save → mapped load keeps the index and every ANN answer
    /// bit-identical.
    #[test]
    fn indexed_artifact_roundtrips_through_mapped_load(
        dim in 1usize..8,
        n_targets in 0usize..30,
        k in 0usize..8,
        seed in 0u64..1_000_000,
    ) {
        let mut state = seed ^ 0xD15C;
        let artifact = indexed_artifact(dim, n_targets, 3, &mut state);
        let dir = std::env::temp_dir().join(format!(
            "tdmatch-ann-prop-{}-{seed}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("indexed.tdz");
        artifact.save(&path).expect("save");
        let loaded = MatchArtifact::load(&path).expect("mapped load");
        prop_assert_eq!(&artifact, &loaded);
        for pool in [1usize, 7, n_targets.max(1)] {
            prop_assert_eq!(
                result_bits(&ann_ranked(&artifact, k, pool)),
                result_bits(&ann_ranked(&loaded, k, pool)),
                "pool = {}", pool
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A random delta batch against `indexed_artifact`'s two-term
    /// vocabulary: appends/updates of "a"/"b"/unknown token mixes plus
    /// tombstones, driving the incremental `HnswIndex::insert` path.
    #[test]
    fn incrementally_inserted_index_keeps_wide_pool_exactness(
        dim in 1usize..8,
        n_targets in 1usize..30,
        n_ops in 1usize..15,
        k in 0usize..8,
        seed in 0u64..1_000_000,
    ) {
        let mut state = seed ^ 0x1A5E;
        let mut artifact = indexed_artifact(dim, n_targets, 3, &mut state);
        let mut rows = n_targets;
        let mut batch = DeltaBatch::new();
        for _ in 0..n_ops {
            let tokens: Vec<&str> = match splitmix(&mut state) % 4 {
                0 => vec!["a"],
                1 => vec!["b"],
                2 => vec!["a", "b", "zz"],
                _ => vec!["zz"], // unknown-only → invalid row
            };
            match splitmix(&mut state) % 3 {
                0 => { batch = batch.append(tokens); rows += 1; }
                1 => batch = batch.update(splitmix(&mut state) as usize % rows, tokens),
                _ => batch = batch.tombstone(splitmix(&mut state) as usize % rows),
            }
        }
        artifact.apply_delta(&batch).expect("targets in bounds");
        prop_assert_eq!(artifact.ann().expect("index kept").rows(), rows);

        // Pool ≥ post-delta corpus ⟹ the inserted index reproduces the
        // exact scan bit for bit — insertion order, entry repairs, and
        // tombstone purges never leak into a widened pool.
        let exact = artifact.match_top_k(k);
        prop_assert_eq!(
            result_bits(&exact),
            result_bits(&ann_ranked(&artifact, k, rows.max(1)))
        );
        // Narrow pools still answer (no panics, no duplicate
        // candidates) and every ranked target is in range.
        for r in ann_ranked(&artifact, k, 3) {
            let mut seen: Vec<usize> = r.ranked.iter().map(|&(t, _)| t).collect();
            prop_assert!(seen.iter().all(|&t| t < rows));
            seen.sort_unstable();
            seen.dedup();
            prop_assert_eq!(seen.len(), r.ranked.len(), "duplicate candidate served");
        }
    }

    /// save → mapped load round-trips the *post-insert* adjacency: the
    /// incrementally-updated index passes full section validation and
    /// answers bit-identically after the round trip.
    #[test]
    fn inserted_index_roundtrips_through_mapped_load(
        dim in 1usize..8,
        n_targets in 1usize..25,
        k in 0usize..8,
        seed in 0u64..1_000_000,
    ) {
        let mut state = seed ^ 0x10AD;
        let mut artifact = indexed_artifact(dim, n_targets, 3, &mut state);
        let batch = DeltaBatch::new()
            .append(["a", "b"])
            .append(["b"])
            .tombstone(splitmix(&mut state) as usize % n_targets)
            .update(splitmix(&mut state) as usize % n_targets, ["a"]);
        artifact.apply_delta(&batch).expect("targets in bounds");

        let dir = std::env::temp_dir().join(format!(
            "tdmatch-ann-insert-prop-{}-{seed}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("inserted.tdz");
        artifact.save(&path).expect("save");
        let loaded = MatchArtifact::load(&path).expect("mapped load");
        prop_assert_eq!(&artifact, &loaded);
        let rows = n_targets + 2;
        for pool in [1usize, 7, rows] {
            prop_assert_eq!(
                result_bits(&ann_ranked(&artifact, k, pool)),
                result_bits(&ann_ranked(&loaded, k, pool)),
                "pool = {}", pool
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
