//! Root-level contract: what the one retrieval entry ranks is pinned,
//! bit for bit.
//!
//! `MatchArtifact::rank` is the single place that decides exact vs ANN,
//! builds the candidate pool and calls the engine; the stored-corpus
//! sweep, `tdmatch match --ann`, the facade and the daemon all reach the
//! engine's total order (score desc, index asc) through it. The
//! crate-level property suites compare those callers with each other
//! inside one build; this test pins the *absolute* answers on one tiny
//! fixed artifact so tier-1 cannot go green while they all move
//! together.
//!
//! The constants were recorded on the parent commit (f788250), *before*
//! `rank` existed, through the entry points it replaced: the artifact's
//! stored-corpus ANN sweep at an explicit pool and beam, the facade's
//! three batch calls (which agreed with each other there) and the
//! artifact's one-shot token query (which agreed with
//! `Matcher::query_by_tokens` there) — the way `train_bits.rs`,
//! `crc_bits.rs` and `resume_bits.rs` were pinned.

mod common;

use std::process::Command;

use common::{fixture_rows, hash_results, Fnv, DIM, K, QUERIES, TARGETS};

use tdmatch::core::artifact::{AnnSearch, AnnUsage, MatchArtifact};
use tdmatch::core::matcher::top_k_matches_naive;
use tdmatch::core::serving::{Matcher, Query, QueryError, Ranked};
use tdmatch::embed::ann::HnswParams;

/// Narrow enough that the index walks instead of returning every row.
const POOL: usize = 8;
/// Above `POOL`: the tail of each narrow ranking is the missing-row
/// appendix, in index order at exactly −1.0.
const NARROW_K: usize = 12;

const EXACT_HASH: u64 = 0xEFEF_D6CC_4CF8_937B;
const NARROW_HASH: u64 = 0x923A_CD29_60AC_675D;
const FACADE_HASH: u64 = 0x573C_3CFC_E223_ED32;
const TOKENS_HASH: u64 = 0x33B0_D40C_84D5_B6EB;

fn fixture() -> MatchArtifact {
    let (terms, first, second) = fixture_rows();
    let mut a = MatchArtifact::new(DIM, terms, first, second);
    a.build_ann(&HnswParams::default());
    a
}

fn narrow() -> Option<AnnSearch> {
    Some(AnnSearch { pool: POOL, ef: POOL })
}

/// Twelve requests — two chunks of the facade's 8-row block: every
/// stored query, an embedded-token vector, an unknown id, a wrong-dim
/// vector and a raw vector.
fn mixed_batch(a: &MatchArtifact) -> Vec<Query> {
    let mut batch: Vec<Query> = (0..QUERIES).map(Query::ById).collect();
    batch.push(Query::ByVector(a.embed_tokens(&["alpha", "gamma"]).unwrap()));
    batch.push(Query::ById(QUERIES + 3));
    batch.push(Query::ByVector(vec![1.0; DIM - 1]));
    batch.push(Query::ByVector((0..DIM).map(|d| d as f32 - 3.5).collect()));
    batch
}

fn hash_answers(h: &mut Fnv, answers: &[Result<Ranked, QueryError>]) {
    for (i, a) in answers.iter().enumerate() {
        match a {
            Ok(r) => h.ranked(i, r),
            Err(QueryError::UnknownId { id, rows }) => {
                h.word(u64::MAX);
                h.word(*id as u64);
                h.word(*rows as u64);
            }
            Err(QueryError::DimMismatch { got, want }) => {
                h.word(u64::MAX - 1);
                h.word(*got as u64);
                h.word(*want as u64);
            }
            // The pinned batch holds no non-finite vector.
            Err(QueryError::NonFinite) => h.word(u64::MAX - 2),
        }
    }
}

#[test]
fn exact_and_narrow_pool_rankings_are_pinned() {
    let a = fixture();
    assert_eq!(hash_results(&a.match_top_k(K)), EXACT_HASH, "exact scan, k = {K}");

    let (ranked, usage) = a.rank(a.second_matrix(), NARROW_K, narrow());
    assert_eq!(hash_results(&ranked), NARROW_HASH, "pool {POOL}, beam {POOL}, k = {NARROW_K}");
    // Seven valid queries, each offered its pool plus the six missing rows.
    assert_eq!(usage, AnnUsage { queries: 7, pooled: 7 * (POOL as u64 + 6) });
    assert_ne!(ranked, a.match_top_k(NARROW_K), "the narrow pool must be visible");
}

#[test]
fn a_mixed_facade_batch_is_pinned_in_both_modes() {
    let a = fixture();
    let batch = mixed_batch(&a);
    let m = Matcher::new(a).with_ann_pool(POOL).with_ann_ef(POOL);
    let mut block = m.query_block();
    let mut h = Fnv::new();
    for ann in [false, true] {
        let (answers, usage) = m.query_batch_with_mode(&mut block, &batch, K, ann);
        hash_answers(&mut h, &answers);
        h.word(usage.queries);
        h.word(usage.pooled);
    }
    assert_eq!(h.0, FACADE_HASH);
}

#[test]
fn token_queries_are_pinned() {
    let m = Matcher::new(fixture());
    let mut h = Fnv::new();
    let queries: [&[&str]; 4] = [
        &["alpha"],
        &["beta", "nope", "delta"],
        &["nope"],
        &["epsilon", "alpha", "beta"],
    ];
    for (i, tokens) in queries.iter().enumerate() {
        h.ranked(i, &m.query_by_tokens(tokens, K));
    }
    assert_eq!(h.0, TOKENS_HASH);
}

#[test]
fn full_pool_ann_equals_the_exact_scan() {
    let a = fixture();
    for k in [0, 1, K, TARGETS + 3] {
        let exact = a.match_top_k(k);
        for ef in [1, TARGETS, 4 * TARGETS] {
            let search = Some(AnnSearch { pool: TARGETS, ef });
            let (ranked, _) = a.rank(a.second_matrix(), k, search);
            assert_eq!(exact, ranked, "k = {k}, beam = {ef}");
        }
    }
}

#[test]
fn batched_answers_equal_one_at_a_time() {
    let a = fixture();
    let batch = mixed_batch(&a);
    let exact = Matcher::new(a.clone());
    let ann = Matcher::new(a).with_ann_pool(POOL).with_ann_ef(POOL);
    for m in [&exact, &ann] {
        let mode = m.ann_pool().is_some();
        let (batched, _) = m.query_batch_with_mode(&mut m.query_block(), &batch, K, mode);
        for (query, want) in batch.iter().zip(&batched) {
            let got = match query {
                Query::ById(id) => m.query_by_id(*id, K),
                Query::ByVector(v) => m.query_by_vector(v, K),
            };
            assert_eq!(&got, want, "{query:?}, ann = {mode}");
        }
    }
}

#[test]
fn the_engine_agrees_with_the_naive_oracle() {
    let (_, first, second) = fixture_rows();
    let naive = top_k_matches_naive(&second, &first, K, None, None);
    let engine = fixture().match_top_k(K);
    assert_eq!(naive.len(), engine.len());
    for (n, e) in naive.iter().zip(&engine) {
        assert_eq!(n.target_indices(), e.target_indices(), "query {}", n.query);
        for (a, b) in n.ranked.iter().zip(&e.ranked) {
            assert!((a.1 - b.1).abs() < 1e-5, "query {}: {a:?} vs {b:?}", n.query);
        }
    }
}

/// `tdmatch match --ann --pool 0` used to rank nothing but the missing
/// rows (every score −1.000); the clamp in `rank` makes it pool 1.
#[test]
fn cli_match_with_a_zero_pool_prints_real_scores() {
    let path = std::env::temp_dir().join(format!("tdmatch-rank-bits-{}.tdz", std::process::id()));
    fixture().save(&path).expect("save fixture");
    let run = |pool: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_tdmatch"))
            .args(["match", "--artifact"])
            .arg(&path)
            .args(["--ann", "--k", "3", "--pool", pool])
            .output()
            .expect("run tdmatch match");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).expect("utf-8 rankings")
    };
    let (zero, one) = (run("0"), run("1"));
    std::fs::remove_file(&path).ok();
    assert_eq!(zero, one, "pool 0 must rank like pool 1");
    let lines: Vec<&str> = zero.lines().collect();
    assert_eq!(lines.len(), QUERIES);
    for (q, line) in lines.iter().enumerate() {
        let best = line.split("-> ").nth(1).and_then(|r| r.split(' ').next());
        match best {
            // The missing query ranks empty.
            Some("") | None => assert_eq!(q, 5, "{line}"),
            Some(entry) => assert!(!entry.ends_with(":-1.000"), "{line}"),
        }
    }
}
