//! Root-level contract: the HNSW index and the walk over it are pinned,
//! bit for bit, at a size where both do real work.
//!
//! `rank_bits.rs`' 64 × 8 fixture builds a one- or two-layer index whose
//! layer-0 lists never fill, so it exercises neither neighbour
//! re-selection nor a multi-layer descent. This fixture is the
//! benchmark's corpus shape at 4,096 × 16 — `rows / 64` centres, each
//! row its centre ± 0.3 per dimension, 2% of rows missing — indexed with
//! `HnswParams::default()`: layer-0 lists overflow their `2·m` cap and
//! the index has at least three layers. Pinned: the saved bytes (HNSW
//! sections included), two narrow ANN rankings with their `AnnUsage`,
//! and the saved bytes after one delta batch (`HnswIndex::insert`).
//!
//! The constants were recorded on the parent commit (2b53f0a), *before*
//! `ann.rs` was touched — the way `train_bits.rs`, `delta_bits.rs` and
//! `rank_bits.rs` were pinned.

mod common;

use common::{hash_results, Fnv, SplitMix};

use tdmatch::core::artifact::{AnnSearch, MatchArtifact};
use tdmatch::core::delta::DeltaBatch;
use tdmatch::embed::ann::{HnswParams, SearchScratch};

const DIM: usize = 16;
const TARGETS: usize = 4096;
const QUERIES: usize = 64;
const K: usize = 10;

const INDEX_BYTES_HASH: u64 = 0x28F9_C5CE_406B_9DE0;
const POOL_32_EF_32_HASH: u64 = 0x10D8_14BA_6867_22DD;
const POOL_32_EF_128_HASH: u64 = 0x2F72_C9C4_6540_D658;
const DELTA_BYTES_HASH: u64 = 0x5CA5_D1F9_67B5_90F1;

/// Five terms, 4,096 clustered targets (2% missing) and 64 queries —
/// even ones a valid target perturbed by the same noise, odd ones a
/// uniform point between clusters where a narrow beam misses, query 5
/// missing — with the default index built over the targets.
fn fixture() -> MatchArtifact {
    let mut rng = SplitMix(0x0A77_B175);
    let terms = ["alpha", "beta", "gamma", "delta", "epsilon"]
        .iter()
        .map(|t| (t.to_string(), (0..DIM).map(|_| rng.unit()).collect()))
        .collect();
    let first = rng.clustered(TARGETS, DIM);
    let second = (0..QUERIES)
        .map(|q| {
            let row: Vec<f32> = if q % 2 == 1 {
                (0..DIM).map(|_| rng.unit()).collect()
            } else {
                loop {
                    let t = rng.below(TARGETS);
                    if let Some(row) = &first[t] {
                        break row.iter().map(|x| x + 0.3 * rng.unit()).collect();
                    }
                }
            };
            (q != 5).then_some(row)
        })
        .collect();
    let mut a = MatchArtifact::new(DIM, terms, first, second);
    a.build_ann(&HnswParams::default());
    a
}

fn bytes_hash(a: &MatchArtifact) -> u64 {
    let mut buf = Vec::new();
    a.write_to(&mut buf).expect("in-memory save");
    let mut h = Fnv::new();
    h.bytes(&buf);
    h.0
}

/// The stored queries ranked through the index at `pool`/`ef`, its
/// usage, then every valid query's raw pool in walk order. The clusters
/// are tight enough that both beams find each query's top `K`, so only
/// the pools tell the two beams apart.
fn ann_hash(a: &MatchArtifact, pool: usize, ef: usize) -> u64 {
    let queries = a.second_matrix();
    let (ranked, usage) = a.rank(queries, K, Some(AnnSearch { pool, ef }));
    let mut h = Fnv(hash_results(&ranked));
    h.word(usage.queries);
    h.word(usage.pooled);
    let mut scratch = SearchScratch::new();
    for q in (0..QUERIES).filter(|&q| queries.is_valid(q)) {
        let cands = a.ann_pool_with(queries.row(q), pool, ef, &mut scratch);
        for c in cands.expect("built above") {
            h.word(c as u64);
        }
    }
    h.0
}

#[test]
fn the_index_is_deep_enough_to_pin() {
    let a = fixture();
    let ann = a.ann().expect("built above");
    assert!(ann.layers() >= 3, "{} layers", ann.layers());
    let missing = TARGETS - a.first_matrix().valid_rows();
    assert!((40..=130).contains(&missing), "{missing} missing rows");
    assert_eq!(ann.count(), TARGETS - missing);
}

#[test]
fn index_bytes_are_pinned() {
    assert_eq!(bytes_hash(&fixture()), INDEX_BYTES_HASH);
}

#[test]
fn narrow_walks_are_pinned() {
    let a = fixture();
    assert_eq!(ann_hash(&a, 32, 32), POOL_32_EF_32_HASH, "pool 32, ef 32");
    assert_eq!(ann_hash(&a, 32, 128), POOL_32_EF_128_HASH, "ef 128");
}

/// Two appends (one with only unknown tokens, so its row is missing),
/// one update and one tombstone, through `HnswIndex::insert`.
#[test]
fn index_bytes_after_a_delta_are_pinned() {
    let mut a = fixture();
    let (update, tombstone) = (100, 2000);
    assert!(a.first_vector(update).is_some() && a.first_vector(tombstone).is_some());
    let batch = DeltaBatch::new()
        .append(["gamma", "alpha", "nope"])
        .update(update, ["epsilon", "beta"])
        .tombstone(tombstone)
        .append(["nope", "nada"]);
    a.apply_delta(&batch).expect("every target is in bounds");
    assert_eq!(bytes_hash(&a), DELTA_BYTES_HASH);
}
