//! Property tests pinning the incremental-ingest delta path to a full
//! refit:
//!
//! * for **random delta sequences** (append / update / tombstone in any
//!   interleaving), the delta-updated artifact is bit-identical — matrix
//!   bits and top-k rankings — to a from-scratch
//!   assembly of the same *final* corpus under the same frozen
//!   vocabulary, where the reference embedding is an independent
//!   re-implementation of the mean-of-known-terms aggregation;
//! * delta application composes: one batch and the same ops split into
//!   two batches land on identical bits;
//! * a carried ANN index stays exact at wide pools through any delta
//!   sequence (the incremental insert path never breaks the
//!   widened-pool ≡ exact-scan contract).

use proptest::prelude::*;

use tdmatch_core::artifact::{AnnSearch, MatchArtifact};
use tdmatch_core::delta::{DeltaBatch, DeltaOp};
use tdmatch_embed::ann::HnswParams;

/// SplitMix64 — deterministic material from a proptest seed.
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

/// A frozen vocabulary of `v` random term vectors, labels `t0..t{v-1}`.
fn vocab(dim: usize, v: usize, state: &mut u64) -> Vec<(String, Vec<f32>)> {
    (0..v)
        .map(|i| (format!("t{i}"), (0..dim).map(|_| unit(state)).collect()))
        .collect()
}

/// A random token list: mostly vocabulary terms, ~1/6 unknown tokens,
/// sometimes empty (embeds to nothing → invalid row).
fn gen_tokens(v: usize, state: &mut u64) -> Vec<String> {
    let len = (splitmix(state) % 6) as usize;
    (0..len)
        .map(|_| {
            let r = splitmix(state);
            if r % 6 == 5 {
                format!("zz{}", r % 97) // never in the vocabulary
            } else {
                format!("t{}", r as usize % v)
            }
        })
        .collect()
}

/// Independent reference for the frozen-vocab aggregation: mean of the
/// known terms' vectors, summed in token order. Deliberately *not*
/// `MatchArtifact::embed_tokens` — the property must hold against a
/// second implementation, not against the code under test.
fn ref_embed(terms: &[(String, Vec<f32>)], dim: usize, tokens: &[String]) -> Option<Vec<f32>> {
    let mut sum = vec![0.0f32; dim];
    let mut hits = 0usize;
    for tok in tokens {
        if let Some((_, v)) = terms.iter().find(|(label, _)| label == tok) {
            for (s, x) in sum.iter_mut().zip(v) {
                *s += x;
            }
            hits += 1;
        }
    }
    (hits > 0).then(|| {
        let inv = 1.0 / hits as f32;
        sum.iter().map(|s| s * inv).collect()
    })
}

/// Rankings with scores demoted to bits, so equality is bit-exact.
fn result_bits(results: &[tdmatch_core::matcher::MatchResult]) -> Vec<(usize, Vec<(usize, u32)>)> {
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

/// One random op, applied in parallel to the batch under construction
/// and to the token-level corpus model the reference is built from.
fn push_random_op(
    batch: DeltaBatch,
    docs: &mut Vec<Option<Vec<String>>>,
    v: usize,
    state: &mut u64,
) -> DeltaBatch {
    match splitmix(state) % 3 {
        0 => {
            let tokens = gen_tokens(v, state);
            docs.push(Some(tokens.clone()));
            batch.append(tokens)
        }
        1 => {
            let target = splitmix(state) as usize % docs.len();
            let tokens = gen_tokens(v, state);
            docs[target] = Some(tokens.clone());
            batch.update(target, tokens)
        }
        _ => {
            let target = splitmix(state) as usize % docs.len();
            docs[target] = None;
            batch.tombstone(target)
        }
    }
}

/// The from-scratch reference: final token-level corpus → rows via the
/// independent aggregation, same frozen terms, same queries.
fn refit(
    dim: usize,
    terms: &[(String, Vec<f32>)],
    docs: &[Option<Vec<String>>],
    second: &[Option<Vec<f32>>],
) -> MatchArtifact {
    let rows: Vec<Option<Vec<f32>>> = docs
        .iter()
        .map(|d| d.as_ref().and_then(|t| ref_embed(terms, dim, t)))
        .collect();
    MatchArtifact::new(dim, terms.to_vec(), rows, second.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random delta sequences land bit-identically on a refit of the
    /// final corpus: matrix bits, exact rankings, and (when indexed)
    /// wide-pool ANN answers.
    #[test]
    fn random_delta_sequences_match_a_refit_of_the_final_corpus(
        dim in 1usize..8,
        n_targets in 1usize..20,
        n_vocab in 1usize..9,
        n_ops in 1usize..18,
        k in 0usize..8,
        seed in 0u64..1_000_000,
    ) {
        let with_ann = seed % 2 == 0;
        let mut state = seed ^ 0xDE17A;
        let terms = vocab(dim, n_vocab, &mut state);
        let mut docs: Vec<Option<Vec<String>>> = (0..n_targets)
            .map(|_| (splitmix(&mut state) % 5 != 4).then(|| gen_tokens(n_vocab, &mut state)))
            .collect();
        let second: Vec<Option<Vec<f32>>> = (0..3)
            .map(|_| Some((0..dim).map(|_| unit(&mut state)).collect()))
            .collect();

        let mut artifact = refit(dim, &terms, &docs, &second);
        if with_ann {
            artifact.build_ann(&HnswParams::default());
        }

        let mut batch = DeltaBatch::new();
        for _ in 0..n_ops {
            batch = push_random_op(batch, &mut docs, n_vocab, &mut state);
        }
        let summary = artifact.apply_delta(&batch).expect("targets generated in bounds");
        prop_assert_eq!(summary.rows, docs.len());
        prop_assert_eq!(
            summary.appended,
            batch.ops.iter().filter(|o| matches!(o, DeltaOp::Append { .. })).count()
        );

        let reference = refit(dim, &terms, &docs, &second);
        // Strongest form first: the target matrices agree bit for bit
        // (ScoreMatrix equality is bitwise over data and validity).
        prop_assert_eq!(artifact.first_matrix(), reference.first_matrix());
        prop_assert_eq!(
            result_bits(&artifact.match_top_k(k)),
            result_bits(&reference.match_top_k(k))
        );
        if with_ann {
            // The incrementally-updated index keeps the widened-pool ≡
            // exact-scan contract over the *post-delta* corpus.
            let pool = docs.len().max(1);
            let search = Some(AnnSearch { pool, ef: pool });
            prop_assert_eq!(
                result_bits(&artifact.match_top_k(k)),
                result_bits(&artifact.rank(artifact.second_matrix(), k, search).0)
            );
        }
    }

    /// Applying one batch equals applying the same ops as two batches:
    /// the delta path composes, so periodic ingest ticks are equivalent
    /// to one catch-up batch.
    #[test]
    fn delta_application_composes_across_batch_splits(
        dim in 1usize..6,
        n_targets in 1usize..15,
        n_vocab in 1usize..7,
        n_ops in 2usize..16,
        split in 1usize..15,
        seed in 0u64..1_000_000,
    ) {
        let mut state = seed ^ 0xC0DE;
        let terms = vocab(dim, n_vocab, &mut state);
        let mut docs: Vec<Option<Vec<String>>> = (0..n_targets)
            .map(|_| Some(gen_tokens(n_vocab, &mut state)))
            .collect();
        let second = vec![Some((0..dim).map(|_| unit(&mut state)).collect::<Vec<f32>>())];

        let base = refit(dim, &terms, &docs, &second);
        let mut batch = DeltaBatch::new();
        for _ in 0..n_ops {
            batch = push_random_op(batch, &mut docs, n_vocab, &mut state);
        }
        let split = split.min(n_ops - 1);
        let (head, tail) = (
            DeltaBatch { ops: batch.ops[..split].to_vec() },
            DeltaBatch { ops: batch.ops[split..].to_vec() },
        );

        let mut whole = base.clone();
        whole.apply_delta(&batch).unwrap();
        let mut stepped = base.clone();
        stepped.apply_delta(&head).unwrap();
        stepped.apply_delta(&tail).unwrap();
        prop_assert_eq!(&whole, &stepped);
    }
}
