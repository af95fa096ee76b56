//! Root-level contract: Word2Vec training (one worker) is a pinned
//! function of (corpus, config), bit for bit.
//!
//! Every golden, ranking metric and delta ≡ refit proof in this repo
//! rests on `train_corpus` producing the same matrix on every build.
//! The crate-level property tests compare one build's kernels with each
//! other; this test pins the *absolute* trajectory so
//! tier-1 cannot go green while a kernel change silently moves it.
//!
//! The expected hashes were recorded on the parent commit (9d58ffe, all
//! weights in atomic cells, scalar kernels), *before* the row
//! kernels were touched; the vectorized plain-`f32` path must reproduce
//! them. Dim 80 is what the benchmark fits use; dim 100 (100 % 8 = 4)
//! exercises the dot's scalar remainder loop and the 4-wide kernels'
//! chunk boundary.

use tdmatch::embed::corpus::FlatCorpus;
use tdmatch::embed::doc2vec::{train_pv_dbow, Doc2VecConfig};
use tdmatch::embed::word2vec::{train_corpus, W2vMode, Word2VecConfig};

const NODES: u32 = 300;
const HUBS: u32 = 12;
const WALKS: usize = 360;
const WALK_LEN: usize = 31;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *state;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A corpus shaped like the pipeline's random walks: fixed-length
/// sentences over node ids, each step moving to a near neighbour or —
/// one time in four — to one of a few hub ("metadata") nodes, so token
/// frequencies are as skewed as a real walk corpus's.
fn walk_corpus() -> FlatCorpus {
    let mut state = 0x7D_A7C4u64;
    let mut corpus = FlatCorpus::with_capacity(WALKS, WALKS * WALK_LEN);
    let mut walk = Vec::with_capacity(WALK_LEN);
    for w in 0..WALKS {
        walk.clear();
        let mut cur = (w as u32 * 7) % NODES;
        for _ in 0..WALK_LEN {
            walk.push(cur);
            let r = splitmix64(&mut state);
            cur = if r & 3 == 0 {
                ((r >> 8) % HUBS as u64) as u32
            } else {
                let step = 1 + ((r >> 8) % 8) as u32;
                if (r >> 32) & 1 == 0 {
                    (cur + step) % NODES
                } else {
                    (cur + NODES - step) % NODES
                }
            };
        }
        corpus.push(&walk);
    }
    corpus
}

/// FNV-1a over the little-endian bytes of every weight's bit pattern.
fn hash_bits(matrix: &[f32]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for x in matrix {
        for b in x.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

fn trained_hash(mode: W2vMode, window: usize, dim: usize) -> u64 {
    let corpus = walk_corpus();
    let counts = corpus.token_counts(NODES as usize, true);
    let config = Word2VecConfig {
        dim,
        window,
        negative: 5,
        epochs: 2,
        initial_lr: 0.025,
        min_count: 1,
        mode,
        seed: 7,
        subsample: 0.0,
    };
    let matrix = train_corpus(&corpus, &counts, &config);
    assert_eq!(matrix.len(), NODES as usize * dim);
    assert!(matrix.iter().all(|x| x.is_finite()));
    hash_bits(&matrix)
}

#[test]
fn cbow_window_15_dim_80_bits_are_pinned() {
    assert_eq!(
        trained_hash(W2vMode::Cbow, 15, 80),
        0xC7C9_7817_5C2D_117A,
        "CBOW w15 d80"
    );
}

#[test]
fn cbow_window_15_dim_100_bits_are_pinned() {
    assert_eq!(
        trained_hash(W2vMode::Cbow, 15, 100),
        0xBF01_7A5E_A7F1_4198,
        "CBOW w15 d100"
    );
}

#[test]
fn skipgram_window_3_dim_80_bits_are_pinned() {
    assert_eq!(
        trained_hash(W2vMode::SkipGram, 3, 80),
        0x975C_DF70_AD40_82C0,
        "SG w3 d80"
    );
}

#[test]
fn skipgram_window_3_dim_100_bits_are_pinned() {
    assert_eq!(
        trained_hash(W2vMode::SkipGram, 3, 100),
        0xDE09_29A0_3554_83C3,
        "SG w3 d100"
    );
}

/// PV-DBOW shares the row kernels and the negative sampler but keeps its
/// own exact sigmoid, so it has its own trajectory: the walks above as
/// documents. Recorded on e4f7e5a, before `doc2vec.rs` moved to the
/// fused update kernel.
#[test]
fn pv_dbow_dim_80_bits_are_pinned() {
    let corpus = walk_corpus();
    let counts = corpus.token_counts(NODES as usize, true);
    let config = Doc2VecConfig {
        dim: 80,
        negative: 5,
        epochs: 2,
        initial_lr: 0.025,
        min_count: 1,
        seed: 7,
    };
    let matrix = train_pv_dbow(&corpus, &counts, &config);
    assert_eq!(matrix.len(), WALKS * 80);
    assert!(matrix.iter().all(|x| x.is_finite()));
    assert_eq!(hash_bits(&matrix), 0xE593_BA1F_AA4A_B3E2, "PV-DBOW d80");
}
