//! Word2Vec from scratch: Skip-gram and CBOW with negative sampling.
//!
//! This is a faithful re-implementation of the word2vec.c / gensim training
//! procedure: random reduced windows, unigram^0.75 negative sampling and
//! linear learning-rate decay. TDmatch trains it on random-walk
//! "sentences" (Alg. 4); the W2VEC baseline trains it on serialized
//! documents.
//!
//! Training runs on one worker over weights it owns (see
//! `crate::weights`), so the row kernels vectorize and the trained
//! matrix is a function of (corpus, counts, config) alone, bit for bit.
//! The worker's epoch loop runs through `simd::dispatch`: at AVX2
//! width on a CPU that has it, at the default target's SSE2 width
//! otherwise, with the same bits either way. What that loop calls per
//! token — `train_sentence`, `train_pair`, `train_cbow`,
//! `NegativeStep::run` and the row kernels — is `#[inline(always)]`,
//! so it is compiled into the AVX2 instantiation. The four-row dot is
//! the one exception (see `crate::simd`).

use std::borrow::Cow;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::corpus::{FlatCorpus, SentenceSource};
use crate::neg_table::NegativeTable;
use crate::rows::RowLayout;
use crate::vectors::Embeddings;
use crate::vocab::Vocab;
use crate::simd::{self, Kernel};
use crate::weights::{self, OwnedMatrix};

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
    /// RNG seed; training is single-threaded and fully deterministic.
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
            seed: 42,
            subsample: 0.0,
        }
    }
}

/// Precomputed sigmoid, word2vec.c style: 512 buckets over `[-6, 6]`.
struct SigmoidTable {
    table: Vec<f32>,
}

const MAX_EXP: f32 = 6.0;
const SIGMOID_BUCKETS: usize = 512;

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
    pub fn train<S: AsRef<str>>(sentences: &[Vec<S>], config: Word2VecConfig) -> Self {
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

/// Trains over the sentences of `corpus`, token values indexing
/// `counts`, and returns the input matrix (`counts.len() × config.dim`,
/// row-major, in id order). A corpus with no documents trains nothing
/// and returns an empty matrix.
///
/// Token ids need no string vocabulary: stored walk corpora and what
/// [`Word2Vec::train`] encodes ([`FlatCorpus`]) train here. Every id
/// gets an input row, so an id with count 0 keeps its initialization.
/// This is [`train_rows`] over [`RowLayout::identity`]; a fit trains
/// over its walk stream's dense layout instead, with the same bits for
/// every id.
pub fn train_corpus<S: SentenceSource>(
    corpus: &S,
    counts: &[u64],
    config: &Word2VecConfig,
) -> Vec<f32> {
    if counts.is_empty() || corpus.documents() == 0 {
        return Vec::new();
    }
    train_rows(corpus, &RowLayout::identity(counts), config).rows
}

/// Trains over the sentences of `corpus`, whose tokens are rows of
/// `layout`, and returns the input vectors: `layout.live()` rows.
///
/// A fit passes its [`WalkStream`](crate::walks::WalkStream)'s
/// [`rows`](crate::walks::WalkStream::rows), so it trains on walks that
/// are never stored, over input rows for the ids its walks visit only.
/// Every id keeps an output row: ids with count 0 are drawn as
/// negatives. Input row `r` starts from the cells its id has in the
/// id-order initialization, and subsampling reads each row's count, so
/// every id trains to the bits an id-order trainer gives it
/// (`tests/flat_prop.rs` holds the two to each other). The worker reads
/// each epoch's sentences in order, over plain `f32` weights it owns, so
/// the row kernels vectorize, at the widest width this CPU offers that
/// keeps the bits (see `crate::simd`).
pub fn train_rows<'a, S: SentenceSource>(
    corpus: &S,
    layout: &'a RowLayout,
    config: &Word2VecConfig,
) -> InputVectors<'a> {
    let rows = if layout.ids() == 0 {
        Vec::new()
    } else {
        let job = TrainJob::new(corpus, layout, config);
        trained(&job).syn0.into_vec()
    };
    InputVectors {
        layout,
        rows,
        dim: config.dim,
        seed: config.seed,
    }
}

/// The input vectors [`train_rows`] trained: one row per live id of its
/// layout, read back by id.
pub struct InputVectors<'a> {
    layout: &'a RowLayout,
    rows: Vec<f32>,
    dim: usize,
    seed: u64,
}

impl InputVectors<'_> {
    /// The input vector of `id`: its trained row, or, for an id without
    /// an input row (count 0 in a dense layout), the initialization no
    /// update ever reached — what an id-order trainer returns for it.
    pub fn vector(&self, id: usize) -> Cow<'_, [f32]> {
        let row = self.layout.row(id);
        if row < self.layout.live() {
            Cow::Borrowed(&self.rows[row * self.dim..(row + 1) * self.dim])
        } else {
            Cow::Owned(weights::init_row(self.seed, id, self.dim).collect())
        }
    }
}

/// A worker that has run every epoch of `job`, through the dispatched
/// instantiation of its loop.
fn trained<'a, S: SentenceSource>(job: &'a TrainJob<'a, S>) -> Worker<'a, S> {
    let mut worker = Worker::new(job);
    simd::dispatch(&mut worker);
    worker
}

/// Everything a training run reads but never writes. All of it is small
/// — the negative sampler is a ~340 KB index, the sigmoid 2 KB — so what
/// a step pulls through the cache is mostly the weight rows it trains.
struct TrainJob<'a, S> {
    corpus: &'a S,
    layout: &'a RowLayout,
    /// Each row's count, for subsampling.
    counts: &'a [u64],
    config: &'a Word2VecConfig,
    neg_table: NegativeTable,
    sigmoid: SigmoidTable,
    total_count: u64,
    total_work: u64,
}

impl<'a, S: SentenceSource> TrainJob<'a, S> {
    fn new(corpus: &'a S, layout: &'a RowLayout, config: &'a Word2VecConfig) -> Self {
        let counts = layout.counts_by_row();
        Self {
            corpus,
            layout,
            counts,
            config,
            neg_table: NegativeTable::over_rows(layout, (layout.ids() * 32).max(1 << 20)),
            sigmoid: SigmoidTable::new(),
            total_count: counts.iter().sum(),
            total_work: (corpus.total_tokens() * config.epochs as u64).max(1),
        }
    }
}

/// The training state: both weight matrices and the scratch buffers
/// reused across pairs. `syn0` has the layout's live rows only; `syn1`
/// has every row.
struct Worker<'a, S> {
    job: &'a TrainJob<'a, S>,
    syn0: OwnedMatrix,
    syn1: OwnedMatrix,
    step: NegativeStep<'a>,
    buf_in: Vec<f32>,
    neu1: Vec<f32>,
    err: Vec<f32>,
}

impl<'a, S> Worker<'a, S> {
    fn new(job: &'a TrainJob<'a, S>) -> Self {
        let (layout, dim, seed) = (job.layout, job.config.dim, job.config.seed);
        Self {
            job,
            syn0: OwnedMatrix::uniform_init_rows(layout.live_ids(), layout.live(), dim, seed),
            syn1: OwnedMatrix::zeroed(layout.ids(), dim),
            step: NegativeStep::new(&job.neg_table, job.config.negative),
            buf_in: vec![0.0; dim],
            neu1: vec![0.0; dim],
            err: vec![0.0; dim],
        }
    }
}

impl<S: SentenceSource> Kernel for Worker<'_, S> {
    /// Trains every epoch over the whole corpus.
    #[inline(always)]
    fn run(&mut self) {
        let TrainJob {
            corpus,
            config,
            total_work,
            ..
        } = self.job;
        // The seed offset is part of the pinned trajectory.
        let mut rng = SmallRng::seed_from_u64(config.seed.wrapping_add(0x9E37));
        // Tokens trained so far, for the linear lr decay.
        let mut done: u64 = 0;
        for _ in 0..config.epochs {
            corpus.for_each_document(
                #[inline(always)]
                |_, tokens, lens| {
                    let mut at = 0;
                    for &len in lens {
                        let sent = &tokens[at..at + len as usize];
                        at += len as usize;
                        let progress = done as f32 / *total_work as f32;
                        let lr =
                            (config.initial_lr * (1.0 - progress)).max(config.initial_lr * 1e-4);
                        self.train_sentence(sent, lr, &mut rng);
                        done += sent.len() as u64;
                    }
                },
            );
            // One draw between epochs, so the next pass over the same
            // sentences does not replay this one's window draws. The
            // value is unused; the draw itself is part of the pinned
            // trajectory.
            let _ = rng.random::<u64>();
        }
    }
}

impl<S> Worker<'_, S> {
    // Index loops: positions matter (skip `pos`) and this is the hot path.
    #[allow(clippy::needless_range_loop)]
    #[inline(always)]
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
    #[inline(always)]
    fn train_pair(&mut self, input: usize, output: usize, lr: f32, rng: &mut SmallRng) {
        let sigmoid = |f| self.job.sigmoid.get(f);
        self.syn0.read_row(input, &mut self.buf_in);
        self.step.run(&mut self.syn1, &self.buf_in, &mut self.err, output, lr, rng, sigmoid);
        self.syn0.add_to_row(input, &self.err);
    }

    /// One CBOW update: mean of context predicts the center word.
    // Index loops: positions matter (skip `pos`) and this is the hot path.
    #[allow(clippy::needless_range_loop)]
    #[inline(always)]
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
    /// pinned trajectory requires; nothing else draws from `rng` in
    /// between. When the targets are distinct, no update can reach
    /// another target's dot, so the dots are taken four rows at a time
    /// ([`OwnedMatrix::dot_with_rows4`]) against the unchanged `input`
    /// before any update. A repeated target needs its second dot to see
    /// its first update, so such a step dots and updates one target at a
    /// time. Both orders give the same bits.
    // `syn1`, `input` and `err` are borrowed from disjoint worker fields.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(crate) fn run(
        &mut self,
        syn1: &mut OwnedMatrix,
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
            // A plain loop, not `extend(map(..))`: that compiles to an
            // out-of-line `spec_extend`, which runs these dots at the
            // default target's width whatever the dispatch.
            for &t in fours.remainder() {
                self.dots.push(syn1.dot_with_row(t, input));
            }
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
pub(crate) mod tests {
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
    fn training_is_deterministic() {
        let corpus = topic_corpus(20);
        let cfg = Word2VecConfig {
            dim: 8,
            epochs: 2,
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
                ..Default::default()
            },
        );
        assert!(m.vector("rare").is_none());
        assert!(m.vector("a").is_some());
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

    /// `sentences` sentences of `len` word ids below `vocab`, skewed
    /// towards low ids as walk corpora skew towards hubs, with counts.
    fn id_corpus(vocab: u32, sentences: usize, len: usize, seed: u64) -> (FlatCorpus, Vec<u64>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut corpus = FlatCorpus::with_capacity(sentences, sentences * len);
        for _ in 0..sentences {
            let sent: Vec<u32> = (0..len)
                .map(|_| rng.random_range(0..vocab).min(rng.random_range(0..vocab)))
                .collect();
            corpus.push(&sent);
        }
        let counts = corpus.token_counts(vocab as usize, true);
        (corpus, counts)
    }

    /// Trains `config` over one corpus through the plain body, compiled
    /// for the default target, and through the dispatched entry
    /// `train_corpus` takes; both weight matrices must be the same bits.
    fn assert_dispatch_keeps_bits<S: SentenceSource>(
        corpus: &S,
        layout: &RowLayout,
        config: &Word2VecConfig,
    ) {
        let job = TrainJob::new(corpus, layout, config);
        let mut plain = Worker::new(&job);
        plain.run();
        let dispatched = trained(&job);
        let bits = |m: OwnedMatrix| m.into_vec().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let what = format!("{:?}, dim {}, negative {}", config.mode, config.dim, config.negative);
        assert!(bits(plain.syn0) == bits(dispatched.syn0), "{what}: syn0 differs");
        assert!(bits(plain.syn1) == bits(dispatched.syn1), "{what}: syn1 differs");
    }

    /// Short uniform walks over [`ring_with_chords`].
    pub(crate) const RING_WALKS: crate::walks::WalkConfig = crate::walks::WalkConfig {
        walks_per_node: 3,
        walk_len: 9,
        seed: 2,
        strategy: crate::walks::WalkStrategy::Uniform,
    };

    /// A `CsrGraph` of a ring of `n` nodes with a chord from every node.
    pub(crate) fn ring_with_chords(n: u32) -> tdmatch_graph::CsrGraph {
        use tdmatch_graph::{Graph, NodeId};
        let mut g = Graph::new();
        for i in 0..n {
            g.intern_data(&format!("n{i}"));
        }
        for i in 0..n {
            g.add_edge(NodeId(i), NodeId((i + 1) % n));
            g.add_edge(NodeId(i), NodeId((i * 7 + 3) % n));
        }
        tdmatch_graph::CsrGraph::from_graph(&g)
    }

    /// On an AVX2 CPU, `train_bits` and `fit_bits` only ever run the
    /// AVX2 instantiations; this holds the default-target body to them.
    #[test]
    fn dispatched_training_equals_the_plain_body() {
        if !simd::avx2_detected() {
            eprintln!("no AVX2 on this CPU: dispatch runs the plain body, comparison skipped");
            return;
        }
        let (corpus, counts) = id_corpus(40, 60, 12, 5);
        // Three words and eight negatives: nearly every step repeats a
        // target, so it dots and updates one target at a time.
        let (tiny, tiny_counts) = id_corpus(3, 20, 8, 6);
        let (counts, tiny_counts) = (RowLayout::identity(&counts), RowLayout::identity(&tiny_counts));
        let graph = ring_with_chords(30);
        for mode in [W2vMode::SkipGram, W2vMode::Cbow] {
            let config = |dim, negative| Word2VecConfig {
                dim,
                window: 4,
                negative,
                epochs: 2,
                mode,
                seed: 9,
                ..Default::default()
            };
            for dim in [1, 7, 8, 9, 17, 80, 96] {
                assert_dispatch_keeps_bits(&corpus, &counts, &config(dim, 5));
            }
            for dim in [8, 17] {
                assert_dispatch_keeps_bits(&tiny, &tiny_counts, &config(dim, 8));
            }
            let subsampled = Word2VecConfig {
                subsample: 1e-2,
                ..config(17, 5)
            };
            assert_dispatch_keeps_bits(&corpus, &counts, &subsampled);
            // A fit's source: walks regenerated every epoch, as rows.
            let walks = crate::walks::WalkStream::new(&graph, &RING_WALKS);
            assert_dispatch_keeps_bits(&walks.rows(), walks.layout(), &config(17, 5));
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
                ..Default::default()
            },
        );
        let e = m.embeddings();
        let v1 = e.get("apple").unwrap();
        let v2 = e.get("gear").unwrap();
        assert!(cosine(v1, v2).is_finite());
    }
}
