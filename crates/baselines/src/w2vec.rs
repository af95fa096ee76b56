//! W2VEC — Word2Vec trained on the serialized documents (§V baselines).
//!
//! Both corpora are serialized (tables with `[COL]/[VAL]` markers),
//! Word2Vec is trained on the union, and each document embeds as the mean
//! of its token vectors \[38\]. Vector size 300 and Skip-gram in the paper;
//! dimensionality is configurable here for scaled-down runs.

use std::time::Instant;

use tdmatch_core::corpus::Corpus;
use tdmatch_embed::word2vec::{W2vMode, Word2Vec, Word2VecConfig};
use tdmatch_text::Preprocessor;

use crate::serialize::serialize_corpus;
use crate::{rank_dense, RankedMatches};

/// Options for the W2VEC baseline.
#[derive(Debug, Clone)]
pub struct W2vecOptions {
    /// Embedding dimensionality (paper: 300).
    pub dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for W2vecOptions {
    fn default() -> Self {
        Self {
            dim: 64,
            epochs: 5,
            seed: 42,
        }
    }
}

/// Runs the W2VEC baseline.
pub fn run(first: &Corpus, second: &Corpus, opts: &W2vecOptions, k: usize) -> RankedMatches {
    let pre = Preprocessor::default();
    let t0 = Instant::now();
    let docs_first = serialize_corpus(first, &pre);
    let docs_second = serialize_corpus(second, &pre);
    let mut training: Vec<Vec<String>> = docs_first.clone();
    training.extend(docs_second.iter().cloned());

    let model = Word2Vec::train(
        &training,
        Word2VecConfig {
            dim: opts.dim,
            window: 5,
            epochs: opts.epochs,
            mode: W2vMode::SkipGram,
            seed: opts.seed,
            ..Default::default()
        },
    );
    let emb = model.embeddings();
    let train_secs = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let zero = vec![0.0f32; opts.dim];
    let embed_docs = |docs: &[Vec<String>]| -> Vec<Vec<f32>> {
        docs.iter()
            .map(|d| emb.mean_vector(d).unwrap_or_else(|| zero.clone()))
            .collect()
    };
    let targets = embed_docs(&docs_first);
    let queries = embed_docs(&docs_second);
    let per_query = rank_dense(&queries, &targets, opts.dim, k);
    RankedMatches {
        method: "W2VEC".to_string(),
        per_query,
        train_secs,
        test_secs: t1.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdmatch_core::corpus::TextCorpus;

    #[test]
    fn lexical_overlap_ranks_first() {
        let first = Corpus::Text(TextCorpus::new(vec![
            "tarantino pulp fiction jackson".into(),
            "shyamalan sixth sense willis".into(),
        ]));
        let second = Corpus::Text(TextCorpus::new(vec![
            "a review about tarantino and jackson in pulp fiction".into(),
        ]));
        let r = run(&first, &second, &W2vecOptions::default(), 2);
        assert_eq!(r.indices(0)[0], 0);
        assert!(r.train_secs > 0.0);
    }

    #[test]
    fn handles_empty_overlap_gracefully() {
        let first = Corpus::Text(TextCorpus::new(vec!["alpha beta".into()]));
        let second = Corpus::Text(TextCorpus::new(vec!["gamma delta".into()]));
        let r = run(&first, &second, &W2vecOptions::default(), 1);
        assert_eq!(r.per_query.len(), 1);
        assert_eq!(r.per_query[0].len(), 1);
    }
}
