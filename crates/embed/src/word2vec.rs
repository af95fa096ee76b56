//! Word2Vec from scratch: Skip-gram and CBOW with negative sampling.
//!
//! This is a faithful re-implementation of the word2vec.c / gensim training
//! procedure: random reduced windows, unigram^0.75 negative sampling, linear
//! learning-rate decay, and Hogwild multi-threading over a shared parameter
//! matrix (see [`crate::hogwild`]). TDmatch trains it on random-walk
//! "sentences" (Alg. 4); the W2VEC baseline trains it on serialized
//! documents.

use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::corpus::FlatCorpus;
use crate::hogwild::{OwnedMatrix, Rows, SharedMatrix};
use crate::neg_table::NegativeTable;
use crate::vectors::Embeddings;
use crate::vocab::Vocab;

/// Training objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum W2vMode {
    /// Skip-gram: predict contexts from the center word. The paper uses
    /// this with window 3 for the text-to-data task.
    SkipGram,
    /// CBOW: predict the center word from the mean of its context. The
    /// paper uses this with window 15 for text-oriented tasks.
    Cbow,
}

/// Hyper-parameters for Word2Vec training.
#[derive(Debug, Clone)]
pub struct Word2VecConfig {
    /// Embedding dimensionality (the paper uses 300 for baselines).
    pub dim: usize,
    /// Maximum context window; actual windows are sampled in `1..=window`
    /// per center word, as in word2vec.c.
    pub window: usize,
    /// Number of negative samples per positive pair.
    pub negative: usize,
    /// Passes over the corpus.
    pub epochs: usize,
    /// Starting learning rate; decays linearly to ~0.
    pub initial_lr: f32,
    /// Drop words with fewer occurrences from the vocabulary.
    pub min_count: u64,
    /// Skip-gram or CBOW.
    pub mode: W2vMode,
    /// Worker threads (1 = fully deterministic training).
    pub threads: usize,
    /// RNG seed (initialization is always deterministic; the training
    /// trajectory is deterministic when `threads == 1`).
    pub seed: u64,
    /// Frequency subsampling threshold (`0.0` disables it). Disabled by
    /// default: metadata nodes are deliberately frequent in walk corpora
    /// and must not be dropped.
    pub subsample: f64,
}

impl Default for Word2VecConfig {
    fn default() -> Self {
        Self {
            dim: 100,
            window: 5,
            negative: 5,
            epochs: 5,
            initial_lr: 0.025,
            min_count: 1,
            mode: W2vMode::SkipGram,
            threads: default_threads(),
            seed: 42,
            subsample: 0.0,
        }
    }
}

/// Half the available parallelism, at least 1 — training saturates memory
/// bandwidth before cores.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| (n.get() / 2).max(1))
        .unwrap_or(1)
}

/// Precomputed sigmoid, word2vec.c style: 512 buckets over `[-6, 6]`.
struct SigmoidTable {
    table: Vec<f32>,
}

const MAX_EXP: f32 = 6.0;
const SIGMOID_BUCKETS: usize = 512;

/// Tokens a worker trains between flushes of the shared progress counter.
const PROGRESS_FLUSH_TOKENS: u64 = 10_000;

impl SigmoidTable {
    fn new() -> Self {
        let table = (0..SIGMOID_BUCKETS)
            .map(|i| {
                let x = (i as f32 / SIGMOID_BUCKETS as f32 * 2.0 - 1.0) * MAX_EXP;
                1.0 / (1.0 + (-x).exp())
            })
            .collect();
        Self { table }
    }

    #[inline]
    fn get(&self, x: f32) -> f32 {
        if x >= MAX_EXP {
            1.0
        } else if x <= -MAX_EXP {
            0.0
        } else {
            let idx = ((x + MAX_EXP) / (2.0 * MAX_EXP) * SIGMOID_BUCKETS as f32) as usize;
            self.table[idx.min(SIGMOID_BUCKETS - 1)]
        }
    }
}

/// A trained Word2Vec model.
pub struct Word2Vec {
    vocab: Vocab,
    config: Word2VecConfig,
    /// Input-side vectors (`syn0`), the embeddings consumers use.
    matrix: Vec<f32>,
}

impl Word2Vec {
    /// Builds the vocabulary from `sentences` and trains the model.
    pub fn train<S: AsRef<str> + Sync>(sentences: &[Vec<S>], config: Word2VecConfig) -> Self {
        let vocab = Vocab::build(sentences, config.min_count);
        let mut encoded = FlatCorpus::with_capacity(
            sentences.len(),
            sentences.iter().map(Vec::len).sum(),
        );
        for s in sentences {
            encoded.push(&vocab.encode(s));
        }
        let matrix = train_corpus(&encoded, vocab.counts(), &config);
        Self {
            vocab,
            config,
            matrix,
        }
    }

    /// The vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Vector for `word`, if in vocabulary.
    pub fn vector(&self, word: &str) -> Option<&[f32]> {
        let id = self.vocab.id(word)? as usize;
        Some(&self.matrix[id * self.config.dim..(id + 1) * self.config.dim])
    }

    /// Copies the model into a generic [`Embeddings`] store.
    pub fn embeddings(&self) -> Embeddings {
        Embeddings::from_matrix(self.vocab.words(), self.matrix.clone(), self.config.dim)
    }
}

/// Trains over a flat token arena and returns the input matrix
/// (`counts.len() × config.dim`, row-major).
///
/// This is the entry point TDmatch uses for graph walks, where token ids
/// are node ids and no string vocabulary is needed. Workers stream
/// contiguous sentence ranges straight out of the arena — no per-sentence
/// pointer chasing.
///
/// When training resolves to one worker — the only configuration with a
/// determinism contract — the weights are plain `f32` the worker owns, so
/// the row kernels vectorize; several workers share atomic cells
/// Hogwild-style (see [`crate::hogwild`]). One worker produces the same
/// bits over either storage.
pub fn train_corpus(corpus: &FlatCorpus, counts: &[u64], config: &Word2VecConfig) -> Vec<f32> {
    if counts.is_empty() || corpus.is_empty() {
        return Vec::new();
    }
    let job = TrainJob::new(corpus, counts, config);
    match config.threads.max(1).min(corpus.len()) {
        1 => job.run_owned(),
        threads => job.run_shared(threads),
    }
}

/// Everything the workers of one training run read but never write, plus
/// the progress counter they share. All of it is small — the negative
/// sampler is a ~27 KB index, the sigmoid 2 KB — so what a step pulls
/// through the cache is the weight rows it trains and little else.
struct TrainJob<'a> {
    corpus: &'a FlatCorpus,
    counts: &'a [u64],
    config: &'a Word2VecConfig,
    neg_table: NegativeTable,
    sigmoid: SigmoidTable,
    total_count: u64,
    total_work: u64,
    processed: AtomicU64,
}

impl<'a> TrainJob<'a> {
    fn new(corpus: &'a FlatCorpus, counts: &'a [u64], config: &'a Word2VecConfig) -> Self {
        Self {
            corpus,
            counts,
            config,
            neg_table: NegativeTable::new(counts, (counts.len() * 32).max(1 << 20)),
            sigmoid: SigmoidTable::new(),
            total_count: counts.iter().sum(),
            total_work: ((corpus.total_tokens() as u64) * config.epochs as u64).max(1),
            processed: AtomicU64::new(0),
        }
    }

    /// One worker over weights it owns.
    fn run_owned(&self) -> Vec<f32> {
        let (rows, dim) = (self.counts.len(), self.config.dim);
        let mut worker = Worker::new(
            self,
            OwnedMatrix::uniform_init(rows, dim, self.config.seed),
            OwnedMatrix::zeroed(rows, dim),
        );
        worker.train_range(0, 0, self.corpus.len());
        worker.syn0.into_vec()
    }

    /// `threads` Hogwild workers, each over its own contiguous sentence
    /// range, sharing lock-free atomic weights.
    fn run_shared(&self, threads: usize) -> Vec<f32> {
        let (rows, dim) = (self.counts.len(), self.config.dim);
        let syn0 = SharedMatrix::uniform_init(rows, dim, self.config.seed);
        let syn1 = SharedMatrix::zeroed(rows, dim);
        let chunk_size = self.corpus.len().div_ceil(threads);
        crossbeam::thread::scope(|scope| {
            for tid in 0..threads {
                let (lo, hi) = (
                    tid * chunk_size,
                    ((tid + 1) * chunk_size).min(self.corpus.len()),
                );
                if lo >= hi {
                    continue;
                }
                let (syn0, syn1) = (&syn0, &syn1);
                scope.spawn(move |_| Worker::new(self, syn0, syn1).train_range(tid, lo, hi));
            }
        })
        .expect("word2vec worker thread panicked");
        syn0.to_vec()
    }
}

/// Per-thread training state (scratch buffers reused across pairs),
/// generic over the weight storage so the training step is written once.
struct Worker<'a, M> {
    job: &'a TrainJob<'a>,
    syn0: M,
    syn1: M,
    step: NegativeStep<'a>,
    buf_in: Vec<f32>,
    neu1: Vec<f32>,
    err: Vec<f32>,
}

impl<'a, M: Rows> Worker<'a, M> {
    fn new(job: &'a TrainJob<'a>, syn0: M, syn1: M) -> Self {
        let dim = job.config.dim;
        Self {
            job,
            syn0,
            syn1,
            step: NegativeStep::new(&job.neg_table, job.config.negative),
            buf_in: vec![0.0; dim],
            neu1: vec![0.0; dim],
            err: vec![0.0; dim],
        }
    }

    /// Trains every epoch over sentences `lo..hi` as worker `tid`.
    fn train_range(&mut self, tid: usize, lo: usize, hi: usize) {
        let TrainJob {
            corpus,
            config,
            total_work,
            processed,
            ..
        } = self.job;
        let mut rng = SmallRng::seed_from_u64(config.seed.wrapping_add(0x9E37 * (tid as u64 + 1)));
        // Batched progress accounting (word2vec.c style): a contended
        // fetch_add per sentence would bounce the counter's cache line
        // between workers, so each thread accumulates locally and flushes
        // every ~10k tokens. `base + local` never decreases (the global
        // counter only grows, and a flush folds `local` into `base`), so
        // the lr-decay schedule stays monotone per worker.
        let mut base = processed.load(Ordering::Relaxed);
        let mut local: u64 = 0;
        for _ in 0..config.epochs {
            for sent in corpus.sentences_range(lo, hi) {
                let progress = (base + local) as f32 / *total_work as f32;
                let lr = (config.initial_lr * (1.0 - progress)).max(config.initial_lr * 1e-4);
                self.train_sentence(sent, lr, &mut rng);
                local += sent.len() as u64;
                if local >= PROGRESS_FLUSH_TOKENS {
                    base = processed.fetch_add(local, Ordering::Relaxed) + local;
                    local = 0;
                }
            }
            // One draw between epochs, so the next pass over the same
            // sentences does not replay this one's window draws. The
            // value is unused; the draw itself is part of the pinned
            // single-worker trajectory.
            let _ = rng.random::<u64>();
        }
        if local > 0 {
            processed.fetch_add(local, Ordering::Relaxed);
        }
    }

    // Index loops: positions matter (skip `pos`) and this is the hot path.
    #[allow(clippy::needless_range_loop)]
    fn train_sentence(&mut self, sent: &[u32], lr: f32, rng: &mut SmallRng) {
        let TrainJob {
            counts,
            config,
            total_count,
            ..
        } = self.job;
        // Frequency subsampling (word2vec.c formula), if enabled. The
        // common no-subsampling path borrows the sentence straight from
        // the corpus arena — no per-sentence copy in the training loop.
        let subsampled: Vec<u32>;
        let kept: &[u32] = if config.subsample > 0.0 {
            subsampled = sent
                .iter()
                .copied()
                .filter(|&w| {
                    let f = counts[w as usize] as f64 / *total_count as f64;
                    let keep = ((config.subsample / f).sqrt() + config.subsample / f).min(1.0);
                    rng.random::<f64>() < keep
                })
                .collect();
            &subsampled
        } else {
            sent
        };
        if kept.len() < 2 {
            return;
        }
        let window = config.window.max(1);
        for pos in 0..kept.len() {
            let reduced = rng.random_range(0..window);
            let span = window - reduced;
            let lo = pos.saturating_sub(span);
            let hi = (pos + span).min(kept.len() - 1);
            match config.mode {
                W2vMode::SkipGram => {
                    for ctx in lo..=hi {
                        if ctx != pos {
                            self.train_pair(kept[ctx] as usize, kept[pos] as usize, lr, rng);
                        }
                    }
                }
                W2vMode::Cbow => {
                    self.train_cbow(kept, pos, lo, hi, lr, rng);
                }
            }
        }
    }

    /// One (input word, output word) update with negative sampling.
    fn train_pair(&mut self, input: usize, output: usize, lr: f32, rng: &mut SmallRng) {
        let sigmoid = |f| self.job.sigmoid.get(f);
        self.syn0.read_row(input, &mut self.buf_in);
        self.step.run(&mut self.syn1, &self.buf_in, &mut self.err, output, lr, rng, sigmoid);
        self.syn0.add_to_row(input, &self.err);
    }

    /// One CBOW update: mean of context predicts the center word.
    // Index loops: positions matter (skip `pos`) and this is the hot path.
    #[allow(clippy::needless_range_loop)]
    fn train_cbow(
        &mut self,
        sent: &[u32],
        pos: usize,
        lo: usize,
        hi: usize,
        lr: f32,
        rng: &mut SmallRng,
    ) {
        let mut count = 0usize;
        self.neu1.fill(0.0);
        for ctx in lo..=hi {
            if ctx == pos {
                continue;
            }
            self.syn0.axpy_row_into(sent[ctx] as usize, 1.0, &mut self.neu1);
            count += 1;
        }
        if count == 0 {
            return;
        }
        let inv = 1.0 / count as f32;
        for x in &mut self.neu1 {
            *x *= inv;
        }
        let output = sent[pos] as usize;
        let sigmoid = |f| self.job.sigmoid.get(f);
        self.step.run(&mut self.syn1, &self.neu1, &mut self.err, output, lr, rng, sigmoid);
        for ctx in lo..=hi {
            if ctx != pos {
                self.syn0.add_to_row(sent[ctx] as usize, &self.err);
            }
        }
    }
}

/// The one negative-sampling step: both Word2Vec objectives and PV-DBOW
/// run it, each with its own sigmoid, over a reused target buffer.
pub(crate) struct NegativeStep<'a> {
    table: &'a NegativeTable,
    negative: usize,
    /// This step's target rows: the true output, then every negative
    /// draw that is not the output, in draw order.
    targets: Vec<usize>,
    /// `input · row` per target, when the targets are distinct.
    dots: Vec<f32>,
}

impl<'a> NegativeStep<'a> {
    pub(crate) fn new(table: &'a NegativeTable, negative: usize) -> Self {
        Self {
            table,
            negative,
            targets: Vec::with_capacity(negative + 1),
            dots: Vec::with_capacity(negative + 1),
        }
    }

    /// `input` (a word's row for Skip-gram, the context mean for CBOW, a
    /// document's row for PV-DBOW) against the true `output` and then
    /// `negative` sampled words: each target row of `syn1` is updated in
    /// place and the input-side gradient is left in `err`.
    ///
    /// Every draw is taken first, one per negative and in order, as the
    /// pinned single-worker trajectory requires; nothing else draws from
    /// `rng` in between. When the targets are distinct, no update can
    /// reach another target's dot, so the dots are taken four rows at a
    /// time ([`Rows::dot_with_rows4`]) against the unchanged `input`
    /// before any update. A repeated target needs its second dot to see
    /// its first update, so such a step dots and updates one target at a
    /// time. Both orders give the same bits.
    // `syn1`, `input` and `err` are borrowed from disjoint worker fields.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn run<M: Rows>(
        &mut self,
        syn1: &mut M,
        input: &[f32],
        err: &mut [f32],
        output: usize,
        lr: f32,
        rng: &mut SmallRng,
        sigmoid: impl Fn(f32) -> f32,
    ) {
        self.targets.clear();
        self.targets.push(output);
        for _ in 0..self.negative {
            let t = self.table.sample(rng) as usize;
            if t != output {
                self.targets.push(t);
            }
        }
        let targets = &self.targets;
        let distinct = targets.iter().enumerate().all(|(i, t)| !targets[..i].contains(t));
        self.dots.clear();
        if distinct {
            let mut fours = targets.chunks_exact(4);
            for t in &mut fours {
                self.dots.extend(syn1.dot_with_rows4([t[0], t[1], t[2], t[3]], input));
            }
            self.dots.extend(fours.remainder().iter().map(|&t| syn1.dot_with_row(t, input)));
        }
        err.fill(0.0);
        for (i, &target) in targets.iter().enumerate() {
            let f = match self.dots.get(i) {
                Some(&f) => f,
                None => syn1.dot_with_row(target, input),
            };
            let label = if i == 0 { 1.0 } else { 0.0 };
            let g = (label - sigmoid(f)) * lr;
            syn1.update_row(target, g, input, err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectors::cosine;
    use proptest::prelude::*;

    /// Two disjoint "topics"; words within a topic must embed closer than
    /// words across topics.
    fn topic_corpus(sentences_per_topic: usize) -> Vec<Vec<String>> {
        let topic_a = ["apple", "banana", "cherry", "date", "elder"];
        let topic_b = ["bolt", "nut", "gear", "wrench", "screw"];
        let mut rng = SmallRng::seed_from_u64(11);
        let mut corpus = Vec::new();
        for _ in 0..sentences_per_topic {
            for topic in [&topic_a, &topic_b] {
                let mut sent = Vec::new();
                for _ in 0..8 {
                    sent.push(topic[rng.random_range(0..topic.len())].to_string());
                }
                corpus.push(sent);
            }
        }
        corpus
    }

    fn check_topics(mode: W2vMode) {
        let corpus = topic_corpus(300);
        let model = Word2Vec::train(
            &corpus,
            Word2VecConfig {
                dim: 24,
                window: 4,
                negative: 5,
                epochs: 8,
                mode,
                threads: 1,
                seed: 3,
                ..Default::default()
            },
        );
        let within = model
            .embeddings()
            .similarity("apple", "banana")
            .unwrap();
        let across = model.embeddings().similarity("apple", "bolt").unwrap();
        assert!(
            within > across + 0.2,
            "{mode:?}: within={within} across={across}"
        );
    }

    #[test]
    fn skipgram_separates_topics() {
        check_topics(W2vMode::SkipGram);
    }

    #[test]
    fn cbow_separates_topics() {
        check_topics(W2vMode::Cbow);
    }

    #[test]
    fn single_thread_training_is_deterministic() {
        let corpus = topic_corpus(20);
        let cfg = Word2VecConfig {
            dim: 8,
            epochs: 2,
            threads: 1,
            ..Default::default()
        };
        let m1 = Word2Vec::train(&corpus, cfg.clone());
        let m2 = Word2Vec::train(&corpus, cfg);
        assert_eq!(m1.vector("apple"), m2.vector("apple"));
    }

    #[test]
    fn empty_corpus_yields_empty_model() {
        let m = Word2Vec::train::<String>(&[], Word2VecConfig::default());
        assert!(m.embeddings().is_empty());
    }

    #[test]
    fn min_count_drops_rare_words() {
        let corpus = vec![
            vec!["a".to_string(), "b".to_string()],
            vec!["a".to_string(), "b".to_string()],
            vec!["a".to_string(), "rare".to_string()],
        ];
        let m = Word2Vec::train(
            &corpus,
            Word2VecConfig {
                min_count: 2,
                dim: 4,
                threads: 1,
                ..Default::default()
            },
        );
        assert!(m.vector("rare").is_none());
        assert!(m.vector("a").is_some());
    }

    #[test]
    fn multithreaded_training_runs() {
        let corpus = topic_corpus(50);
        let m = Word2Vec::train(
            &corpus,
            Word2VecConfig {
                dim: 8,
                epochs: 2,
                threads: 4,
                ..Default::default()
            },
        );
        assert_eq!(m.embeddings().len(), 10);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// One worker computes the same weights, bit for bit, whether it
        /// owns plain `f32` or goes through the Hogwild atomic cells — so
        /// choosing the storage by worker count cannot move a result.
        #[test]
        fn one_worker_is_bit_identical_over_either_storage(
            sentences in prop::collection::vec(prop::collection::vec(0u32..24, 0..20), 1..24),
            mode in prop::sample::select(vec![W2vMode::SkipGram, W2vMode::Cbow]),
            dim in prop::sample::select(vec![1usize, 7, 8, 9, 100]),
            subsample in prop::sample::select(vec![0.0f64, 5e-3]),
            window in 1usize..16,
            seed in 0u64..1000,
        ) {
            let corpus = FlatCorpus::from_nested(&sentences);
            let counts = corpus.token_counts(24, true);
            let config = Word2VecConfig {
                dim,
                window,
                epochs: 2,
                mode,
                threads: 1,
                seed,
                subsample,
                ..Default::default()
            };
            // A job per run: each carries its own progress counter.
            let owned = TrainJob::new(&corpus, &counts, &config).run_owned();
            let shared = TrainJob::new(&corpus, &counts, &config).run_shared(1);
            prop_assert_eq!(owned.len(), 24 * dim);
            let bits = |m: &[f32]| m.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&owned), bits(&shared));
        }
    }

    /// The negative-sampling loop as it was before targets were drawn
    /// up front and dotted in fours: draw, dot, update, one target at a
    /// time. The reference `NegativeStep::run` is held to.
    #[allow(clippy::too_many_arguments)]
    fn negative_step_sequential(
        syn1: &mut OwnedMatrix,
        table: &NegativeTable,
        negative: usize,
        input: &[f32],
        err: &mut [f32],
        output: usize,
        lr: f32,
        rng: &mut SmallRng,
    ) {
        let sigmoid = SigmoidTable::new();
        err.fill(0.0);
        for d in 0..=negative {
            let (target, label) = if d == 0 {
                (output, 1.0f32)
            } else {
                let t = table.sample(rng) as usize;
                if t == output {
                    continue;
                }
                (t, 0.0)
            };
            let f = syn1.dot_with_row(target, input);
            let g = (label - sigmoid.get(f)) * lr;
            syn1.update_row(target, g, input, err);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The batched step ≡ the sequential loop, bit for bit in both
        /// weight matrices, in `err` after every step and in the sampler's
        /// stream. Vocabularies of 2–6 words with up to 12 negatives make
        /// repeated targets (the sequential fallback) the common case;
        /// larger vocabularies with few negatives take the batched dots.
        #[test]
        fn batched_negative_step_equals_the_sequential_loop(
            vocab in 2usize..=6,
            negative in 1usize..=12,
            dim in prop::sample::select(vec![1usize, 7, 8, 9, 80]),
            mode in prop::sample::select(vec![W2vMode::SkipGram, W2vMode::Cbow]),
            seed in 0u64..1000,
        ) {
            let counts: Vec<u64> = (0..vocab as u64).map(|w| 1 + (w * 7 + seed) % 9).collect();
            let table = NegativeTable::new(&counts, 1 << 12);
            let sigmoid = SigmoidTable::new();
            let mut step = NegativeStep::new(&table, negative);
            let [mut syn0, mut syn0_ref] =
                [0, 0].map(|_| OwnedMatrix::uniform_init(vocab, dim, seed));
            let [mut syn1, mut syn1_ref] =
                [0, 0].map(|_| OwnedMatrix::uniform_init(vocab, dim, seed + 1));
            let [mut rng, mut rng_ref] = [0, 0].map(|_| SmallRng::seed_from_u64(seed));
            let mut plan = SmallRng::seed_from_u64(!seed);
            let [mut input, mut err, mut err_ref] = [0, 0, 0].map(|_| vec![0.0f32; dim]);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for _ in 0..24 {
                let output = plan.random_range(0..vocab);
                // Skip-gram's input is one word's row, CBOW's the mean
                // of its context rows, built the way `train_cbow` does.
                let context: Vec<usize> = match mode {
                    W2vMode::SkipGram => vec![plan.random_range(0..vocab)],
                    W2vMode::Cbow => (0..3).map(|_| plan.random_range(0..vocab)).collect(),
                };
                input.fill(0.0);
                for &c in &context {
                    syn0.axpy_row_into(c, 1.0, &mut input);
                }
                let inv = 1.0 / context.len() as f32;
                input.iter_mut().for_each(|x| *x *= inv);
                let lr = 0.05;
                step.run(&mut syn1, &input, &mut err, output, lr, &mut rng, |f| sigmoid.get(f));
                negative_step_sequential(
                    &mut syn1_ref, &table, negative, &input, &mut err_ref, output, lr, &mut rng_ref,
                );
                prop_assert_eq!(bits(&err), bits(&err_ref));
                for &c in &context {
                    syn0.add_to_row(c, &err);
                    syn0_ref.add_to_row(c, &err_ref);
                }
            }
            prop_assert_eq!(bits(&syn1.into_vec()), bits(&syn1_ref.into_vec()));
            prop_assert_eq!(bits(&syn0.into_vec()), bits(&syn0_ref.into_vec()));
            prop_assert_eq!(rng.random::<u64>(), rng_ref.random::<u64>());
        }
    }

    #[test]
    fn sigmoid_table_matches_exact() {
        let t = SigmoidTable::new();
        for x in [-5.5f32, -1.0, 0.0, 1.0, 5.5] {
            let exact = 1.0 / (1.0 + (-x).exp());
            assert!((t.get(x) - exact).abs() < 0.02, "x={x}");
        }
        assert_eq!(t.get(100.0), 1.0);
        assert_eq!(t.get(-100.0), 0.0);
    }

    #[test]
    fn subsampling_drops_ultra_frequent_words() {
        // "the" dominates; with subsampling its influence shrinks but the
        // model still trains.
        let mut corpus = topic_corpus(50);
        for sent in &mut corpus {
            for _ in 0..4 {
                sent.push("the".to_string());
            }
        }
        let m = Word2Vec::train(
            &corpus,
            Word2VecConfig {
                dim: 8,
                epochs: 2,
                threads: 1,
                subsample: 1e-3,
                ..Default::default()
            },
        );
        assert!(m.vector("the").is_some());
    }

    #[test]
    fn cosine_is_finite_after_training() {
        let corpus = topic_corpus(30);
        let m = Word2Vec::train(
            &corpus,
            Word2VecConfig {
                dim: 16,
                epochs: 3,
                threads: 2,
                ..Default::default()
            },
        );
        let e = m.embeddings();
        let v1 = e.get("apple").unwrap();
        let v2 = e.get("gear").unwrap();
        assert!(cosine(v1, v2).is_finite());
    }
}
