//! Root-level contract: what a fit hands to matching — its rankings and
//! the artifact bytes it would save — is pinned, bit for bit.
//!
//! A fitted `TdModel` is a graph plus the `MatchArtifact` built from the
//! trained matrix; `match_top_k`, `artifact()`, `save_artifact` and the
//! vector accessors all read that one artifact. The crate-level tests
//! compare those views with each other inside one build; this test pins
//! the *absolute* answers of two tiny single-worker fits so tier-1 cannot
//! go green while the extraction (which rows, which term order, which
//! normalization, which section layout) silently moves.
//!
//! The constants were recorded on the parent commit (7d38f94), where the
//! model still kept its embeddings in five fields and rebuilt the
//! artifact on every `artifact()` call, *before* `pipeline.rs` was
//! touched — the way `train_bits.rs`, `crc_bits.rs`, `resume_bits.rs`
//! and `rank_bits.rs` were pinned.

use tdmatch::core::artifact::MatchArtifact;
use tdmatch::core::config::TdConfig;
use tdmatch::core::matcher::MatchResult;
use tdmatch::core::pipeline::{FitOptions, TdMatch, TdModel};
use tdmatch::datasets::{imdb, sts, Scale};
use tdmatch::graph::CorpusSide;

const K: usize = 5;

/// imdb tiny, seed 7, W-RW-EX with merge (Skip-gram window 3):
/// `(ranking hash, artifact byte hash)`, recorded on 7d38f94.
const IMDB_EXPANDED: (u64, u64) = (0x7096_CF1F_84FF_D200, 0xE2AF_BF4E_A1C3_73D3);
/// sts2 tiny, seed 7, plain `fit` (CBOW window 15), recorded on 7d38f94.
const STS2_PLAIN: (u64, u64) = (0xEA78_132C_723D_31EB, 0xDAA5_9A1E_61EF_3674);

/// `resume_bits.rs`'s configuration.
fn config(base: &TdConfig) -> TdConfig {
    TdConfig {
        walks_per_node: 12,
        walk_len: 10,
        dim: 32,
        epochs: 2,
        threads: 1,
        seed: 7,
        ..base.clone()
    }
}

/// FNV-1a, bytewise.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn word(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

fn ranking_hash(results: &[MatchResult]) -> u64 {
    let mut h = Fnv::new();
    for result in results {
        for &(target, score) in &result.ranked {
            h.word(result.query as u64);
            h.word(target as u64);
            h.word(score.to_bits() as u64);
        }
    }
    h.0
}

fn artifact_bytes(artifact: &MatchArtifact) -> Vec<u8> {
    let mut buf = Vec::new();
    artifact.write_to(&mut buf).unwrap();
    buf
}

/// `(ranking hash, artifact byte hash)` of a fitted model.
fn fit_hashes(model: &TdModel) -> (u64, u64) {
    let mut h = Fnv::new();
    h.bytes(&artifact_bytes(&model.artifact()));
    (ranking_hash(&model.match_top_k(K)), h.0)
}

/// The model, its exported artifact and that artifact reloaded from disk
/// are three views of one state.
fn assert_model_is_its_artifact(model: &TdModel, tag: &str) {
    let artifact = model.artifact();
    let ranked = model.match_top_k(K);
    assert!(ranked.iter().any(|r| !r.ranked.is_empty()), "{tag}: nothing ranked");
    assert_eq!(ranked, artifact.match_top_k(K), "{tag}: model vs artifact");

    let path = std::env::temp_dir().join(format!("tdmatch-fit-bits-{tag}-{}.tdz", std::process::id()));
    model.save_artifact(&path).unwrap();
    let saved = std::fs::read(&path);
    let loaded = MatchArtifact::load(&path);
    std::fs::remove_file(&path).ok();
    assert_eq!(saved.unwrap(), artifact_bytes(&artifact), "{tag}: save_artifact vs write_to");
    assert_eq!(ranked, loaded.unwrap().match_top_k(K), "{tag}: model vs reloaded artifact");

    assert!(artifact.term_count() > 0);
    for term in artifact.term_labels() {
        assert_eq!(model.term_vector(term), artifact.term_vector(term), "{tag}: term {term:?}");
    }
    assert_eq!(model.term_vector("no such term, surely"), None);

    let (first_len, second_len) = artifact.corpus_sizes();
    for (side, matrix, len) in [
        (CorpusSide::First, artifact.first_matrix(), first_len),
        (CorpusSide::Second, artifact.second_matrix(), second_len),
    ] {
        for i in 0..len {
            assert_eq!(
                model.doc_vector(side, i).is_some(),
                matrix.is_valid(i),
                "{tag}: {side:?} document {i}"
            );
        }
        assert!(model.doc_vector(side, len).is_none(), "{tag}: {side:?} out of range");
    }
}

#[test]
fn expanded_table_fit_bits_are_pinned() {
    let scenario = imdb::generate(Scale::Tiny, 7, true);
    let model = TdMatch::new(config(&scenario.config))
        .fit_with(
            &scenario.first,
            &scenario.second,
            FitOptions {
                kb: Some(scenario.kb.as_ref()),
                compression: None,
                merge: Some((&scenario.pretrained, scenario.gamma)),
            },
        )
        .unwrap();
    assert_model_is_its_artifact(&model, "imdb");
    let got = fit_hashes(&model);
    assert_eq!(got, IMDB_EXPANDED, "got ({:#018X}, {:#018X})", got.0, got.1);
}

#[test]
fn plain_text_fit_bits_are_pinned() {
    let scenario = sts::generate(Scale::Tiny, 7, 2);
    let model = TdMatch::new(config(&scenario.config))
        .fit(&scenario.first, &scenario.second)
        .unwrap();
    assert_model_is_its_artifact(&model, "sts2");
    let got = fit_hashes(&model);
    assert_eq!(got, STS2_PLAIN, "got ({:#018X}, {:#018X})", got.0, got.1);
}
