//! Doc2Vec PV-DBOW (Le & Mikolov, 2014) — the paper's D2VEC baseline.
//!
//! Distributed Bag of Words: each document owns a vector trained to predict
//! the words it contains via negative sampling. Word vectors live in the
//! output matrix only; the document vectors are the product.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::corpus::FlatCorpus;
use crate::neg_table::NegativeTable;
use crate::vocab::Vocab;
use crate::weights::OwnedMatrix;
use crate::word2vec::NegativeStep;

/// Hyper-parameters for PV-DBOW training.
#[derive(Debug, Clone)]
pub struct Doc2VecConfig {
    /// Document-vector dimensionality (paper baseline: 300).
    pub dim: usize,
    /// Negative samples per positive pair.
    pub negative: usize,
    /// Passes over the corpus.
    pub epochs: usize,
    /// Starting learning rate, linear decay.
    pub initial_lr: f32,
    /// Vocabulary pruning threshold.
    pub min_count: u64,
    /// RNG seed; training is single-threaded and fully deterministic.
    pub seed: u64,
}

impl Default for Doc2VecConfig {
    fn default() -> Self {
        Self {
            dim: 100,
            negative: 5,
            epochs: 10,
            initial_lr: 0.025,
            min_count: 1,
            seed: 42,
        }
    }
}

/// A trained PV-DBOW model: one vector per input document.
pub struct Doc2Vec {
    dim: usize,
    doc_vectors: Vec<f32>,
    vocab: Vocab,
}

impl Doc2Vec {
    /// Trains document vectors on tokenized `documents`.
    pub fn train<S: AsRef<str>>(documents: &[Vec<S>], config: Doc2VecConfig) -> Self {
        let vocab = Vocab::build(documents, config.min_count);
        let n_docs = documents.len();
        if vocab.is_empty() || n_docs == 0 {
            return Self {
                dim: config.dim,
                doc_vectors: vec![0.0; n_docs * config.dim],
                vocab,
            };
        }
        let mut encoded = FlatCorpus::with_capacity(
            n_docs,
            documents.iter().map(Vec::len).sum(),
        );
        for d in documents {
            encoded.push(&vocab.encode(d));
        }
        let doc_vectors = train_pv_dbow(&encoded, vocab.counts(), &config);
        Self {
            dim: config.dim,
            doc_vectors,
            vocab,
        }
    }

    /// The trained vector of document `i`.
    pub fn doc_vector(&self, i: usize) -> &[f32] {
        &self.doc_vectors[i * self.dim..(i + 1) * self.dim]
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.doc_vectors.len() / self.dim.max(1)
    }

    /// True when trained over zero documents.
    pub fn is_empty(&self) -> bool {
        self.doc_vectors.is_empty()
    }

    /// The training vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }
}

/// PV-DBOW core over pre-encoded id documents in a flat arena: document
/// `i` is `docs.sentence(i)`, token values index `counts`. Returns the
/// trained `docs.len() × config.dim` row-major document matrix.
pub fn train_pv_dbow(docs: &FlatCorpus, counts: &[u64], config: &Doc2VecConfig) -> Vec<f32> {
    let slices: Vec<&[u32]> = docs.sentences().collect();
    train_pv_dbow_docs(&slices, counts, config)
}

/// PV-DBOW core over document token slices (which may be zero-copy views
/// into a shared arena): document `i` is `docs[i]`, token values index
/// `counts`. Returns the trained `docs.len() × config.dim` row-major
/// document matrix; rows of empty documents are zero, not noise.
///
/// This is the entry point the pipeline's `WalkDoc2Vec` method uses, with
/// node ids as tokens — no string vocabulary round-trip.
pub fn train_pv_dbow_docs(docs: &[&[u32]], counts: &[u64], config: &Doc2VecConfig) -> Vec<f32> {
    let n_docs = docs.len();
    let total_tokens: usize = docs.iter().map(|d| d.len()).sum();
    if n_docs == 0 || counts.is_empty() || total_tokens == 0 {
        return vec![0.0; n_docs * config.dim];
    }
    // Training is single-threaded, so the weights are plain owned `f32`
    // and the row kernels vectorize (see `crate::weights`).
    let mut docs_mat = OwnedMatrix::uniform_init(n_docs, config.dim, config.seed);
    let mut words_mat = OwnedMatrix::zeroed(counts.len(), config.dim);
    let neg_table = NegativeTable::new(counts, (counts.len() * 32).max(1 << 18));
    let mut step = NegativeStep::new(&neg_table, config.negative);
    let mut rng = SmallRng::seed_from_u64(config.seed);
    // PV-DBOW evaluates the exact sigmoid, not Word2Vec's table.
    let sigmoid = |f: f32| 1.0 / (1.0 + (-f).exp());

    let total_pairs: u64 = total_tokens as u64 * config.epochs as u64;
    let mut done = 0u64;
    let mut buf = vec![0.0f32; config.dim];
    let mut err = vec![0.0f32; config.dim];

    for _ in 0..config.epochs {
        for (doc_id, &words) in docs.iter().enumerate() {
            for &word in words {
                let lr = (config.initial_lr
                    * (1.0 - done as f32 / total_pairs.max(1) as f32))
                    .max(config.initial_lr * 1e-4);
                done += 1;
                docs_mat.read_row(doc_id, &mut buf);
                step.run(&mut words_mat, &buf, &mut err, word as usize, lr, &mut rng, sigmoid);
                docs_mat.add_to_row(doc_id, &err);
            }
        }
    }
    let mut out = docs_mat.into_vec();
    // Empty documents never trained: return zeros, not the random init
    // (consumers reading the full matrix must not see noise rows).
    for (doc_id, &words) in docs.iter().enumerate() {
        if words.is_empty() {
            out[doc_id * config.dim..(doc_id + 1) * config.dim].fill(0.0);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectors::cosine;

    fn docs(data: &[&[&str]]) -> Vec<Vec<String>> {
        data.iter()
            .map(|d| d.iter().map(|w| w.to_string()).collect())
            .collect()
    }

    #[test]
    fn similar_docs_get_similar_vectors() {
        // Documents 0/1 share a vocabulary; 2/3 share another.
        let mut corpus = Vec::new();
        for _ in 0..40 {
            corpus.push(vec!["wine", "grape", "vineyard", "barrel"]);
            corpus.push(vec!["grape", "wine", "barrel", "cork"]);
            corpus.push(vec!["engine", "piston", "gear", "clutch"]);
            corpus.push(vec!["gear", "engine", "clutch", "valve"]);
        }
        let corpus = docs(&corpus.iter().map(|v| &v[..]).collect::<Vec<_>>());
        let model = Doc2Vec::train(
            &corpus,
            Doc2VecConfig {
                dim: 16,
                epochs: 12,
                seed: 5,
                ..Default::default()
            },
        );
        let same = cosine(model.doc_vector(0), model.doc_vector(1));
        let diff = cosine(model.doc_vector(0), model.doc_vector(2));
        assert!(same > diff, "same={same} diff={diff}");
    }

    #[test]
    fn deterministic_under_seed() {
        let corpus = docs(&[&["a", "b", "c"], &["b", "c", "d"]]);
        let cfg = Doc2VecConfig {
            dim: 8,
            epochs: 3,
            ..Default::default()
        };
        let m1 = Doc2Vec::train(&corpus, cfg.clone());
        let m2 = Doc2Vec::train(&corpus, cfg);
        assert_eq!(m1.doc_vector(0), m2.doc_vector(0));
    }

    #[test]
    fn empty_corpus() {
        let m = Doc2Vec::train::<String>(&[], Doc2VecConfig::default());
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn doc_count_matches() {
        let corpus = docs(&[&["x"], &["y"], &["z"]]);
        let m = Doc2Vec::train(&corpus, Doc2VecConfig { dim: 4, ..Default::default() });
        assert_eq!(m.len(), 3);
    }
}
