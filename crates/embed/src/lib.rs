//! Embedding substrate for TDmatch.
//!
//! The paper's default embedding generator (Alg. 4) runs `n` random walks of
//! length `l` from every graph node, treats each walk's label sequence as a
//! sentence, and trains a Word2Vec model — Skip-gram (window 3) for the
//! text-to-data task and CBOW (window 15) for text-oriented tasks (§V).
//!
//! Everything here is built from scratch:
//!
//! * [`vocab`] — frequency-ranked vocabulary construction;
//! * [`corpus`] — [`SentenceSource`], how trainers read a corpus once
//!   per epoch, and the [`FlatCorpus`] token arena that stores one;
//! * [`word2vec`] — Skip-gram & CBOW with negative sampling, trained by
//!   one worker over plain `f32` weights it owns (`weights`):
//!   vectorized (at AVX2 width when the CPU has it, chosen at run time,
//!   the same bits either way), and deterministic;
//! * [`doc2vec`] — PV-DBOW document embeddings (the D2VEC baseline);
//! * [`walks`] — random walks over a [`tdmatch_graph::CsrGraph`]
//!   snapshot, streamed ([`walks::WalkStream`]) or stored;
//! * [`rows`] — [`RowLayout`], where each token id's weights live during
//!   training;
//! * [`vectors`] — dense embedding stores and cosine similarity;
//! * [`score`] — the flat similarity engine: pre-normalized
//!   [`ScoreMatrix`] rows, unrolled dot kernels, and bounded top-k batch
//!   matching (the §IV-B hot path);
//! * [`ann`] — a persisted, deterministic HNSW index over
//!   [`ScoreMatrix`] rows for sub-linear candidate retrieval, paired
//!   with exact widened-pool rescoring.
//!
//! # Snapshot lifecycle (the hot path)
//!
//! The embedding phase is read-only over the graph, so the pipeline
//! freezes the built/expanded/merged [`tdmatch_graph::Graph`] into a
//! [`tdmatch_graph::CsrGraph`] once and then:
//!
//! 1. [`walks::WalkStream::new`] makes one counting pass over the
//!    walks: per-id counts and the total token count;
//! 2. [`word2vec::train_rows`] / [`doc2vec::train_pv_dbow`] train on
//!    the stream, which walks the corpus again for every epoch, a chunk
//!    of start nodes at a time into one reused buffer of about 16K
//!    tokens. Word2Vec reads the stream's tokens as rows of its dense
//!    [`RowLayout`] (ids the walks visit first), so it keeps input rows
//!    for those ids only.
//!
//! The corpus is never stored, so a fit's memory is the model and the
//! graph, whatever its token count. [`walks::generate_walk_corpus`]
//! keeps one pass of the same stream in a [`FlatCorpus`] arena for what
//! needs the walks at hand (benches, tests); the trainers read that
//! arena through the same [`SentenceSource`]. The property suite
//! `tests/flat_prop.rs` holds the stream to a serial reference over the
//! mutable graph, kept there as test code.

pub mod ann;
pub mod corpus;
pub mod doc2vec;
pub mod neg_table;
pub mod rows;
pub mod score;
pub mod vectors;
pub mod vocab;
pub mod walks;
mod simd;
mod weights;
pub mod word2vec;

pub use ann::{HnswIndex, HnswParams};
pub use corpus::{FlatCorpus, SentenceSource};
pub use rows::RowLayout;
pub use score::{QueryBlock, ScoreMatrix};
pub use vectors::{cosine, Embeddings};
pub use vocab::Vocab;
pub use word2vec::{W2vMode, Word2Vec, Word2VecConfig};
