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
//! Two more pins cover what the build and the walk do four rows at a
//! time: the same generator at dim 20, whose dots leave a four-lane
//! remainder after the eight-lane body (bytes and one narrow walk), and
//! a churn batch of 32 appends, 16 updates and 16 tombstones, so that
//! `insert` re-selects many neighbour lists it inflated from the saved
//! index.
//!
//! The first four constants were recorded on 2b53f0a and the last three
//! on 38190d7, each *before* `ann.rs` was touched — the way
//! `train_bits.rs`, `delta_bits.rs` and `rank_bits.rs` were pinned.

mod common;

use common::{hash_results, Fnv, SplitMix};

use tdmatch::core::artifact::{AnnSearch, MatchArtifact};
use tdmatch::core::delta::DeltaBatch;
use tdmatch::embed::ann::{HnswParams, SearchScratch};

const DIM: usize = 16;
/// Not a multiple of 8: every dot runs a four-element scalar remainder.
const REMAINDER_DIM: usize = 20;
const TARGETS: usize = 4096;
const QUERIES: usize = 64;
const K: usize = 10;

const INDEX_BYTES_HASH: u64 = 0x28F9_C5CE_406B_9DE0;
const POOL_32_EF_32_HASH: u64 = 0x10D8_14BA_6867_22DD;
const POOL_32_EF_128_HASH: u64 = 0x2F72_C9C4_6540_D658;
const DELTA_BYTES_HASH: u64 = 0x5CA5_D1F9_67B5_90F1;
const REMAINDER_BYTES_HASH: u64 = 0x4ADD_9FAA_D95D_4E10;
const REMAINDER_POOL_32_EF_64_HASH: u64 = 0x26F7_0905_B7FF_88B5;
const CHURN_BYTES_HASH: u64 = 0x16F5_54D7_219B_8CC5;

const TERMS: [&str; 5] = ["alpha", "beta", "gamma", "delta", "epsilon"];

/// Five terms, 4,096 clustered targets (2% missing) and 64 queries —
/// even ones a valid target perturbed by the same noise, odd ones a
/// uniform point between clusters where a narrow beam misses, query 5
/// missing — with the default index built over the targets.
fn fixture() -> MatchArtifact {
    fixture_at(DIM)
}

/// [`fixture`]'s generator at any `dim`.
fn fixture_at(dim: usize) -> MatchArtifact {
    let mut rng = SplitMix(0x0A77_B175);
    let terms = TERMS
        .iter()
        .map(|t| (t.to_string(), (0..dim).map(|_| rng.unit()).collect()))
        .collect();
    let first = rng.clustered(TARGETS, dim);
    let second = (0..QUERIES)
        .map(|q| {
            let row: Vec<f32> = if q % 2 == 1 {
                (0..dim).map(|_| rng.unit()).collect()
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
    let mut a = MatchArtifact::new(dim, terms, first, second);
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
    for dim in [DIM, REMAINDER_DIM] {
        let a = fixture_at(dim);
        let ann = a.ann().expect("built above");
        assert!(ann.layers() >= 3, "dim {dim}: {} layers", ann.layers());
        let missing = TARGETS - a.first_matrix().valid_rows();
        assert!((40..=130).contains(&missing), "dim {dim}: {missing} missing rows");
        assert_eq!(ann.count(), TARGETS - missing);
    }
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

#[test]
fn a_remainder_dim_index_and_walk_are_pinned() {
    let a = fixture_at(REMAINDER_DIM);
    assert_eq!(bytes_hash(&a), REMAINDER_BYTES_HASH, "index bytes");
    assert_eq!(ann_hash(&a, 32, 64), REMAINDER_POOL_32_EF_64_HASH, "pool 32, ef 64");
}

/// 32 appends, 16 updates and 16 tombstones of valid targets, spread
/// over the corpus, through one `HnswIndex::insert`.
#[test]
fn index_bytes_after_a_churn_batch_are_pinned() {
    let mut a = fixture();
    let mut rng = SplitMix(0xC4_0127);
    let tokens = |rng: &mut SplitMix| -> Vec<&str> {
        (0..1 + rng.below(3)).map(|_| TERMS[rng.below(TERMS.len())]).collect()
    };
    let mut batch = DeltaBatch::new();
    for _ in 0..32 {
        batch = batch.append(tokens(&mut rng));
    }
    let valid: Vec<usize> = (0..TARGETS).filter(|&t| a.first_vector(t).is_some()).collect();
    let touched: Vec<usize> = valid.iter().copied().step_by(valid.len() / 32).take(32).collect();
    for (i, &t) in touched.iter().enumerate() {
        batch = if i % 2 == 0 {
            batch.update(t, tokens(&mut rng))
        } else {
            batch.tombstone(t)
        };
    }
    a.apply_delta(&batch).expect("every target is in bounds");
    assert_eq!(bytes_hash(&a), CHURN_BYTES_HASH);
}
