//! Root-level contract: the exact scan is pinned, bit for bit, where its
//! kernel has edges.
//!
//! `rank_bits.rs`' 64 × 8 fixture has no lane remainder (8 is one full
//! chunk of `dot_unrolled`'s eight lanes), fits in one target tile, and
//! puts no missing row inside a group of four consecutive rows. The tile
//! fill of the exact scan scores rows four at a time and falls back to
//! one at a time for a group that holds a missing row and for the tile
//! remainder, so each of those edges gets a fixture here:
//!
//! - 4,099 × 96 in the benchmark's clustered shape (`rows / 64` centres,
//!   each row its centre ± 0.3 per dimension, 2% of rows missing): the
//!   85-row tiles of a 96-dim matrix do not divide it, and missing rows
//!   land inside groups;
//! - 517 × 13 with 11 queries: five remainder lanes per dot, and more
//!   queries than one `QUERY_BLOCK`;
//! - an all-missing target matrix: every group falls back, every score
//!   is −1.0.
//!
//! Each hash is `MatchArtifact::rank(…, 20, None)` over the stored
//! queries. The constants were recorded on the parent commit (f3e3fbc),
//! *before* `score.rs` was touched — the way `rank_bits.rs` and
//! `ann_bits.rs` were pinned.

mod common;

use common::{hash_results, SplitMix};

use tdmatch::core::artifact::MatchArtifact;
use tdmatch::embed::score::QUERY_BLOCK;

const K: usize = 20;

const WIDE_HASH: u64 = 0xB17D_BCB2_4997_3A8C;
const NARROW_HASH: u64 = 0xBE45_2665_EF2C_AF4A;
const ALL_MISSING_HASH: u64 = 0xDB9A_8FE0_CF20_75BD;

/// `rows` clustered targets (2% missing) and `queries` queries, each a
/// valid target perturbed by the same noise; query 3 is missing.
fn clustered(seed: u64, rows: usize, dim: usize, queries: usize) -> MatchArtifact {
    let mut rng = SplitMix(seed);
    let terms = ["alpha", "beta", "gamma"]
        .iter()
        .map(|t| (t.to_string(), (0..dim).map(|_| rng.unit()).collect()))
        .collect();
    let first = rng.clustered(rows, dim);
    let second = (0..queries)
        .map(|q| {
            let row: Vec<f32> = loop {
                if let Some(row) = &first[rng.below(rows)] {
                    break row.iter().map(|x| x + 0.3 * rng.unit()).collect();
                }
            };
            (q != 3).then_some(row)
        })
        .collect();
    MatchArtifact::new(dim, terms, first, second)
}

fn scan_hash(a: &MatchArtifact) -> u64 {
    let (ranked, usage) = a.rank(a.second_matrix(), K, None);
    assert_eq!(usage.queries, 0, "the exact scan walks no index");
    hash_results(&ranked)
}

/// Missing rows whose aligned group of four lies wholly inside one
/// `tile`-row tile — the groups the four-row path must decline.
fn missing_inside_groups(a: &MatchArtifact, tile: usize) -> usize {
    let m = a.first_matrix();
    m.invalid_rows()
        .filter(|&i| {
            let start = i - i % tile;
            let group = start + (i - start) / 4 * 4;
            group + 4 <= (start + tile).min(m.rows())
        })
        .count()
}

#[test]
fn a_wide_clustered_scan_is_pinned() {
    let a = clustered(0x5CA7_0096, 4099, 96, 37);
    // 32 KiB tiles of 96-dim rows are 85 rows long.
    assert_ne!(4099 % 85, 0);
    assert!(missing_inside_groups(&a, 85) >= 40, "missing rows inside groups");
    assert_eq!(scan_hash(&a), WIDE_HASH);
}

#[test]
fn a_narrow_scan_with_lane_remainders_is_pinned() {
    let a = clustered(0x5CA7_0013, 517, 13, 11);
    assert!(a.second_matrix().rows() > QUERY_BLOCK);
    assert!(a.first_matrix().valid_rows() < 517, "some target is missing");
    assert_eq!(scan_hash(&a), NARROW_HASH);
}

#[test]
fn an_all_missing_target_matrix_is_pinned() {
    let mut rng = SplitMix(0x5CA7_0000);
    let dim = 13;
    let terms = vec![("alpha".to_string(), (0..dim).map(|_| rng.unit()).collect())];
    let second = (0..5)
        .map(|_| Some((0..dim).map(|_| rng.unit()).collect()))
        .collect();
    let a = MatchArtifact::new(dim, terms, vec![None; 37], second);
    let (ranked, _) = a.rank(a.second_matrix(), K, None);
    for r in &ranked {
        let want: Vec<(usize, f32)> = (0..K).map(|t| (t, -1.0)).collect();
        assert_eq!(r.ranked, want, "query {}", r.query);
    }
    assert_eq!(scan_hash(&a), ALL_MISSING_HASH);
}
