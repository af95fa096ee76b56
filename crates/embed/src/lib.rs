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
//! * [`corpus`] — the [`FlatCorpus`] token arena all trainers consume;
//! * [`word2vec`] — Skip-gram & CBOW with negative sampling, trained by
//!   one worker over plain `f32` weights it owns (`weights`):
//!   vectorized (at AVX2 width when the CPU has it, chosen at run time,
//!   the same bits either way), and deterministic at any walk thread
//!   count;
//! * [`doc2vec`] — PV-DBOW document embeddings (the D2VEC baseline);
//! * [`walks`] — parallel random-walk corpus generation over a
//!   [`tdmatch_graph::CsrGraph`] snapshot;
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
//! 1. [`walks::generate_walk_corpus`] streams all random walks into one
//!    [`FlatCorpus`] arena (two allocations, the same corpus at any
//!    thread count);
//! 2. [`word2vec::train_corpus`] / [`doc2vec::train_pv_dbow`] train
//!    straight off the arena via sentence-slice iterators.
//!
//! That is the only walk path. The property suite
//! `tests/flat_prop.rs` holds it to a serial reference over the mutable
//! graph, kept there as test code.

pub mod ann;
pub mod corpus;
pub mod doc2vec;
pub mod neg_table;
pub mod score;
pub mod vectors;
pub mod vocab;
pub mod walks;
mod weights;
pub mod word2vec;

pub use ann::{HnswIndex, HnswParams};
pub use corpus::FlatCorpus;
pub use score::{QueryBlock, ScoreMatrix};
pub use vectors::{cosine, Embeddings};
pub use vocab::Vocab;
pub use word2vec::{W2vMode, Word2Vec, Word2VecConfig};
