//! Doc2Vec PV-DBOW (Le & Mikolov, 2014) — the paper's D2VEC baseline.
//!
//! Distributed Bag of Words: each document owns a vector trained to predict
//! the words it contains via negative sampling. Word vectors live in the
//! output matrix only; the document vectors are the product.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::corpus::{FlatCorpus, SentenceSource};
use crate::neg_table::NegativeTable;
use crate::vocab::Vocab;
use crate::simd::{self, Kernel};
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

/// PV-DBOW core over the documents of `docs`, token values indexing
/// `counts`: one trained row per document, each predicting the tokens of
/// its sentences. Returns the `docs.documents() × config.dim` row-major
/// document matrix; rows of empty documents are zero, not noise.
///
/// For a [`FlatCorpus`] document `i` is `docs.sentence(i)`. A fit's
/// `WalkDoc2Vec` method passes its
/// [`WalkStream`](crate::walks::WalkStream): node `n`'s document is the
/// walks that start at it, node ids are the tokens, and the walks are
/// regenerated every epoch, never stored.
pub fn train_pv_dbow<S: SentenceSource>(
    docs: &S,
    counts: &[u64],
    config: &Doc2VecConfig,
) -> Vec<f32> {
    let n_docs = docs.documents();
    if n_docs == 0 || counts.is_empty() || docs.total_tokens() == 0 {
        return vec![0.0; n_docs * config.dim];
    }
    let neg_table = NegativeTable::new(counts, (counts.len() * 32).max(1 << 18));
    let mut out = trained(docs, counts, config, &neg_table).docs_mat.into_vec();
    // Empty documents never trained: return zeros, not the random init
    // (consumers reading the full matrix must not see noise rows).
    for doc_id in 0..n_docs {
        if docs.is_empty_document(doc_id) {
            out[doc_id * config.dim..(doc_id + 1) * config.dim].fill(0.0);
        }
    }
    out
}

/// A PV-DBOW model that has run every epoch, through the dispatched
/// instantiation of its loop (see `crate::simd`).
fn trained<'a, S: SentenceSource>(
    docs: &'a S,
    counts: &[u64],
    config: &'a Doc2VecConfig,
    neg_table: &'a NegativeTable,
) -> PvDbow<'a, S> {
    let mut model = PvDbow::new(docs, counts, config, neg_table);
    simd::dispatch(&mut model);
    model
}

/// PV-DBOW's training state. Training is single-threaded, so the weights
/// are plain owned `f32` and the row kernels vectorize.
struct PvDbow<'a, S> {
    docs: &'a S,
    config: &'a Doc2VecConfig,
    /// One row per document: the product.
    docs_mat: OwnedMatrix,
    /// One output row per word.
    words_mat: OwnedMatrix,
    step: NegativeStep<'a>,
    rng: SmallRng,
}

impl<'a, S: SentenceSource> PvDbow<'a, S> {
    fn new(
        docs: &'a S,
        counts: &[u64],
        config: &'a Doc2VecConfig,
        neg_table: &'a NegativeTable,
    ) -> Self {
        Self {
            docs,
            config,
            docs_mat: OwnedMatrix::uniform_init(docs.documents(), config.dim, config.seed),
            words_mat: OwnedMatrix::zeroed(counts.len(), config.dim),
            step: NegativeStep::new(neg_table, config.negative),
            rng: SmallRng::seed_from_u64(config.seed),
        }
    }
}

impl<S: SentenceSource> Kernel for PvDbow<'_, S> {
    /// Trains every epoch over every document.
    #[inline(always)]
    fn run(&mut self) {
        let (config, docs) = (self.config, self.docs);
        // PV-DBOW evaluates the exact sigmoid, not Word2Vec's table.
        let sigmoid = |f: f32| 1.0 / (1.0 + (-f).exp());
        let total_pairs: u64 = docs.total_tokens() * config.epochs as u64;
        let mut done = 0u64;
        let mut buf = vec![0.0f32; config.dim];
        let mut err = vec![0.0f32; config.dim];

        for _ in 0..config.epochs {
            docs.for_each_document(
                #[inline(always)]
                |doc_id, words, _| {
                    for &word in words {
                        let lr = (config.initial_lr
                            * (1.0 - done as f32 / total_pairs.max(1) as f32))
                            .max(config.initial_lr * 1e-4);
                        done += 1;
                        self.docs_mat.read_row(doc_id, &mut buf);
                        self.step.run(
                            &mut self.words_mat,
                            &buf,
                            &mut err,
                            word as usize,
                            lr,
                            &mut self.rng,
                            sigmoid,
                        );
                        self.docs_mat.add_to_row(doc_id, &err);
                    }
                },
            );
        }
    }
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

    /// On an AVX2 CPU, `train_bits` only ever runs PV-DBOW's AVX2
    /// instantiation; this holds the default-target body to it, in both
    /// matrices.
    #[test]
    fn dispatched_training_equals_the_plain_body() {
        if !simd::avx2_detected() {
            eprintln!("no AVX2 on this CPU: dispatch runs the plain body, comparison skipped");
            return;
        }
        // 30 documents of 0–11 word ids below 25, one of them empty.
        let docs: Vec<Vec<u32>> = (0..30u32)
            .map(|d| (0..(d * 5) % 12).map(|i| (d * 7 + i * i) % 25).collect())
            .collect();
        let mut corpus = FlatCorpus::new();
        for doc in &docs {
            corpus.push(doc);
        }
        let mut counts = vec![1u64; 25];
        for &w in docs.iter().flatten() {
            counts[w as usize] += 1;
        }
        let bits = |m: OwnedMatrix| m.into_vec().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for dim in [8, 80] {
            let config = Doc2VecConfig {
                dim,
                epochs: 3,
                seed: 4,
                ..Default::default()
            };
            let neg_table = NegativeTable::new(&counts, 1 << 12);
            let mut plain = PvDbow::new(&corpus, &counts, &config, &neg_table);
            plain.run();
            let dispatched = trained(&corpus, &counts, &config, &neg_table);
            assert!(bits(plain.docs_mat) == bits(dispatched.docs_mat), "dim {dim}: documents");
            assert!(bits(plain.words_mat) == bits(dispatched.words_mat), "dim {dim}: words");

            // A fit's source: node documents of walks regenerated every
            // epoch.
            use crate::word2vec::tests::{ring_with_chords, RING_WALKS};
            let graph = ring_with_chords(30);
            let walks = crate::walks::WalkStream::new(&graph, &RING_WALKS);
            let neg_table = NegativeTable::new(walks.token_counts(), 1 << 12);
            let mut plain = PvDbow::new(&walks, walks.token_counts(), &config, &neg_table);
            plain.run();
            let dispatched = trained(&walks, walks.token_counts(), &config, &neg_table);
            assert!(bits(plain.docs_mat) == bits(dispatched.docs_mat), "dim {dim}: walk documents");
            assert!(bits(plain.words_mat) == bits(dispatched.words_mat), "dim {dim}: walk words");
        }
    }

    #[test]
    fn doc_count_matches() {
        let corpus = docs(&[&["x"], &["y"], &["z"]]);
        let m = Doc2Vec::train(&corpus, Doc2VecConfig { dim: 4, ..Default::default() });
        assert_eq!(m.len(), 3);
    }
}
