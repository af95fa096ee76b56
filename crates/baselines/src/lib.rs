//! Baseline matchers from the paper's evaluation (§V).
//!
//! Unsupervised, trained on the corpora at hand:
//! * [`w2vec`] — **W2VEC**: Word2Vec over serialized documents, mean
//!   pooling;
//! * [`d2vec`] — **D2VEC**: PV-DBOW document vectors;
//! * [`tfidf`] — TF-IDF cosine and BM25 (classic IR references).
//!
//! Unsupervised, pre-trained:
//! * [`sbe`] — **S-BE**: SentenceBERT stand-in (simulated pre-trained
//!   sentence encoder from `tdmatch-kb`).
//!
//! Supervised (starred in the paper; trained with 5-fold cross-validation
//! on the annotated pairs, as feature-based neural models — the
//! `tdmatch_nn` crate docs give the transformer-substitution rationale):
//! * [`rank`] — **RANK\***: pairwise learning-to-rank \[39\];
//! * [`supervised`] — **DITTO\***, **DEEP-M\***, **TAPAS\*** (binary
//!   match classifiers with per-system feature sets) and **L-BE\***
//!   (multi-label classifier over targets).
//!
//! Every matcher returns [`RankedMatches`]: per-query ranked target lists
//! plus train/test wall-clock seconds (Table VII).

use tdmatch_embed::score::{batch_top_k_seq, ScoreMatrix, TopK};

pub mod d2vec;
pub mod features;
pub mod rank;
pub mod sbe;
pub mod serialize;
pub mod supervised;
pub mod tfidf;
pub mod w2vec;

/// Output of every baseline: ranked targets per query document.
#[derive(Debug, Clone)]
pub struct RankedMatches {
    /// Baseline name as reported in the tables ("S-BE", "DITTO*", …).
    pub method: String,
    /// For each query: `(target index, score)` sorted by decreasing score,
    /// truncated at the caller's k.
    pub per_query: Vec<Vec<(usize, f32)>>,
    /// Training / fine-tuning seconds (0 for pure pre-trained methods).
    pub train_secs: f64,
    /// Total matching seconds over all queries.
    pub test_secs: f64,
}

impl RankedMatches {
    /// The ranked target indices for query `q`.
    pub fn indices(&self, q: usize) -> Vec<usize> {
        self.per_query[q].iter().map(|&(t, _)| t).collect()
    }

    /// All ranked lists as plain index vectors.
    pub fn all_indices(&self) -> Vec<Vec<usize>> {
        (0..self.per_query.len()).map(|q| self.indices(q)).collect()
    }
}

/// Ranks `targets` scored by `score(query, target)`, truncating at `k`.
/// Ties break by target index for determinism. Selection runs through the
/// engine's bounded [`TopK`] heap (`O(T log k)`, no full sort).
pub(crate) fn rank_all(
    n_queries: usize,
    n_targets: usize,
    k: usize,
    mut score: impl FnMut(usize, usize) -> f32,
) -> Vec<Vec<(usize, f32)>> {
    let mut top = TopK::new(k);
    (0..n_queries)
        .map(|q| {
            top.clear();
            for t in 0..n_targets {
                top.push(t, score(q, t));
            }
            top.drain_sorted()
        })
        .collect()
}

/// Ranks dense embedding rows by cosine through the flat similarity
/// engine: both sides are packed into pre-normalized [`ScoreMatrix`]es
/// once, then batch-scored with the tiled dot kernels — the §IV-B match
/// path the W2VEC / D2VEC / S-BE baselines share with the main method.
pub(crate) fn rank_dense<R: AsRef<[f32]>>(
    queries: &[R],
    targets: &[R],
    dim: usize,
    k: usize,
) -> Vec<Vec<(usize, f32)>> {
    let q = ScoreMatrix::from_rows(queries.iter().map(AsRef::as_ref), dim);
    let t = ScoreMatrix::from_rows(targets.iter().map(AsRef::as_ref), dim);
    batch_top_k_seq(&q, &t, k, None, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_all_orders_and_truncates() {
        let ranked = rank_all(2, 4, 2, |q, t| (q * 10 + t) as f32);
        assert_eq!(ranked[0], vec![(3, 3.0), (2, 2.0)]);
        assert_eq!(ranked[1].len(), 2);
        assert_eq!(ranked[1][0].0, 3);
    }

    #[test]
    fn indices_strips_scores() {
        let rm = RankedMatches {
            method: "test".into(),
            per_query: vec![vec![(2, 0.9), (0, 0.1)]],
            train_secs: 0.0,
            test_secs: 0.0,
        };
        assert_eq!(rm.indices(0), vec![2, 0]);
        assert_eq!(rm.all_indices(), vec![vec![2, 0]]);
    }
}
