//! Metadata matching (§IV-B): cosine top-k over metadata-node embeddings,
//! optionally combined with another method's scores (Fig. 10).
//!
//! [`top_k_matches_matrix`] is the one ranking call, a thin wrapper over
//! the flat similarity engine in [`tdmatch_embed::score`]: query/target
//! rows are packed into L2-pre-normalized [`ScoreMatrix`]es once
//! (normalize-once / dot-many), scored with unrolled dot kernels, and
//! ranked with a bounded top-k heap under one total order:
//!
//! * a missing (`None`) **query** yields an empty ranking;
//! * a missing **target** scores exactly `-1.0` (before any `extra_score`
//!   averaging), ranking behind every reachable cosine;
//! * ties break by ascending target index.
//!
//! Callers pre-normalize once ([`ScoreMatrix::from_options`] for rows
//! still held as `Option<Vec<f32>>`). [`top_k_matches_naive`] preserves
//! the legacy cosine-per-pair + full sort path as the equivalence oracle
//! for property tests.

use tdmatch_embed::score::{batch_top_k_seq, ScoreMatrix};
use tdmatch_embed::vectors::cosine;

/// Ranked matches for one query document: `(target index, score)` sorted
/// by decreasing score.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchResult {
    /// Index of the query document in its corpus.
    pub query: usize,
    /// Ranked target documents with scores.
    pub ranked: Vec<(usize, f32)>,
}

impl MatchResult {
    /// Just the ranked target indices.
    pub fn target_indices(&self) -> Vec<usize> {
        self.ranked.iter().map(|&(t, _)| t).collect()
    }
}

fn wrap_results(ranked: Vec<Vec<(usize, f32)>>) -> Vec<MatchResult> {
    ranked
        .into_iter()
        .enumerate()
        .map(|(query, ranked)| MatchResult { query, ranked })
        .collect()
}

/// Ranks the top-`k` targets for every query row of a pre-normalized
/// matrix pair — the normalize-once / dot-many entry point.
///
/// * `extra_score`, when given, is averaged with the cosine over the full
///   candidate pool — the Fig. 10 combination with SentenceBERT.
/// * `candidates`, when given, restricts scoring per query to the indices
///   it returns — the hook [`MatchArtifact::rank`] feeds each query's ANN
///   pool through for exact rescoring.
///
/// [`MatchArtifact::rank`]: crate::artifact::MatchArtifact::rank
pub fn top_k_matches_matrix(
    queries: &ScoreMatrix,
    targets: &ScoreMatrix,
    k: usize,
    extra_score: Option<&dyn Fn(usize, usize) -> f32>,
    candidates: Option<&dyn Fn(usize) -> Vec<usize>>,
) -> Vec<MatchResult> {
    wrap_results(batch_top_k_seq(queries, targets, k, extra_score, candidates))
}

/// The seed implementation — cosine recomputed per pair over nested
/// `Option` rows, full sort, truncate — kept verbatim as the equivalence
/// oracle for property tests. Not a hot path; do not use in new code.
#[doc(hidden)]
pub fn top_k_matches_naive(
    queries: &[Option<Vec<f32>>],
    targets: &[Option<Vec<f32>>],
    k: usize,
    extra_score: Option<&dyn Fn(usize, usize) -> f32>,
    candidates: Option<&dyn Fn(usize) -> Vec<usize>>,
) -> Vec<MatchResult> {
    let mut results = Vec::with_capacity(queries.len());
    for (qi, q) in queries.iter().enumerate() {
        let mut scored: Vec<(usize, f32)> = Vec::new();
        if let Some(qv) = q {
            let cand: Vec<usize> = match candidates {
                Some(f) => f(qi),
                None => (0..targets.len()).collect(),
            };
            scored.reserve(cand.len());
            for ti in cand {
                let base = match &targets[ti] {
                    Some(tv) => cosine(qv, tv),
                    None => -1.0,
                };
                let score = match extra_score {
                    Some(f) => (base + f(qi, ti)) / 2.0,
                    None => base,
                };
                scored.push((ti, score));
            }
            scored.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.0.cmp(&b.0))
            });
            scored.truncate(k);
        }
        results.push(MatchResult {
            query: qi,
            ranked: scored,
        });
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: f32, y: f32) -> Option<Vec<f32>> {
        Some(vec![x, y])
    }

    /// Packs `Option` rows and ranks them through the matrix entry point.
    fn top_k_matches(
        queries: &[Option<Vec<f32>>],
        targets: &[Option<Vec<f32>>],
        k: usize,
        extra_score: Option<&dyn Fn(usize, usize) -> f32>,
        candidates: Option<&dyn Fn(usize) -> Vec<usize>>,
    ) -> Vec<MatchResult> {
        let q = ScoreMatrix::from_options(queries);
        let t = ScoreMatrix::from_options(targets);
        top_k_matches_matrix(&q, &t, k, extra_score, candidates)
    }

    #[test]
    fn ranks_by_cosine() {
        let queries = vec![v(1.0, 0.0)];
        let targets = vec![v(0.0, 1.0), v(1.0, 0.1), v(0.7, 0.7)];
        let r = top_k_matches(&queries, &targets, 2, None, None);
        assert_eq!(r[0].target_indices(), vec![1, 2]);
        assert!(r[0].ranked[0].1 > r[0].ranked[1].1);
    }

    #[test]
    fn missing_query_gives_empty_ranking() {
        let queries = vec![None];
        let targets = vec![v(1.0, 0.0)];
        let r = top_k_matches(&queries, &targets, 5, None, None);
        assert!(r[0].ranked.is_empty());
    }

    #[test]
    fn missing_target_ranks_last() {
        let queries = vec![v(1.0, 0.0)];
        let targets = vec![None, v(1.0, 0.0)];
        let r = top_k_matches(&queries, &targets, 2, None, None);
        assert_eq!(r[0].target_indices(), vec![1, 0]);
    }

    #[test]
    fn all_targets_missing_still_rank_like_the_seed_path() {
        // Regression: every target None (e.g. aggressive compression
        // dropped all metadata nodes) infers a dim-0 target matrix; the
        // engine must score them all -1.0 like the seed path, not panic.
        let queries = vec![v(1.0, 0.0)];
        let targets: Vec<Option<Vec<f32>>> = vec![None, None];
        let naive = top_k_matches_naive(&queries, &targets, 2, None, None);
        let engine = top_k_matches(&queries, &targets, 2, None, None);
        assert_eq!(naive, engine);
        assert_eq!(engine[0].ranked, vec![(0, -1.0), (1, -1.0)]);
    }

    #[test]
    fn extra_score_can_flip_ranking() {
        let queries = vec![v(1.0, 0.0)];
        let targets = vec![v(1.0, 0.0), v(0.9, 0.1)];
        // Without combination target 0 wins…
        let plain = top_k_matches(&queries, &targets, 2, None, None);
        assert_eq!(plain[0].target_indices()[0], 0);
        // …but a strong external preference for target 1 flips it.
        let extra = |_q: usize, t: usize| if t == 1 { 1.0 } else { -1.0 };
        let combined = top_k_matches(&queries, &targets, 2, Some(&extra), None);
        assert_eq!(combined[0].target_indices()[0], 1);
    }

    #[test]
    fn candidates_restrict_scoring() {
        let queries = vec![v(1.0, 0.0)];
        let targets = vec![v(1.0, 0.0), v(1.0, 0.0), v(1.0, 0.0)];
        let cand = |_q: usize| vec![2usize];
        let r = top_k_matches(&queries, &targets, 3, None, Some(&cand));
        assert_eq!(r[0].target_indices(), vec![2]);
    }

    #[test]
    fn ties_break_by_index_for_determinism() {
        let queries = vec![v(1.0, 0.0)];
        let targets = vec![v(2.0, 0.0), v(1.0, 0.0)];
        let r = top_k_matches(&queries, &targets, 2, None, None);
        assert_eq!(r[0].target_indices(), vec![0, 1]);
    }

    #[test]
    fn scorers_and_candidates_see_the_query_index() {
        let queries: Vec<Option<Vec<f32>>> = (0..10).map(|_| v(1.0, 0.0)).collect();
        let targets: Vec<Option<Vec<f32>>> = (0..6).map(|_| v(1.0, 0.0)).collect();
        // Every cosine ties: query q prefers target q % 6 through the
        // extra scorer alone, out of two offered candidates.
        let extra = |q: usize, t: usize| if t == q % 6 { 1.0 } else { 0.0 };
        let cand = |q: usize| vec![q % 6, (q + 1) % 6];
        let got = top_k_matches(&queries, &targets, 1, Some(&extra), Some(&cand));
        for (q, r) in got.iter().enumerate() {
            assert_eq!(r.query, q);
            assert_eq!(r.target_indices()[0], q % 6);
        }
    }

    #[test]
    fn engine_agrees_with_naive_oracle() {
        let queries: Vec<Option<Vec<f32>>> = (0..19)
            .map(|i| {
                if i % 6 == 5 {
                    None
                } else {
                    Some(vec![
                        (i as f32 * 0.61).sin(),
                        (i as f32 * 1.27).cos(),
                        0.1 * i as f32 - 0.9,
                    ])
                }
            })
            .collect();
        let targets: Vec<Option<Vec<f32>>> = (0..31)
            .map(|i| {
                if i % 9 == 4 {
                    None
                } else {
                    Some(vec![
                        (i as f32 * 1.91).sin(),
                        (i as f32 * 0.43).cos(),
                        0.05 * i as f32 - 0.7,
                    ])
                }
            })
            .collect();
        let naive = top_k_matches_naive(&queries, &targets, 7, None, None);
        let engine = top_k_matches(&queries, &targets, 7, None, None);
        for (n, e) in naive.iter().zip(&engine) {
            assert_eq!(n.target_indices(), e.target_indices());
            for (a, b) in n.ranked.iter().zip(&e.ranked) {
                assert!((a.1 - b.1).abs() < 1e-5);
            }
        }
    }
}
