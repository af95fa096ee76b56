//! Minimal neural-network substrate for the paper's supervised baselines.
//!
//! The paper fine-tunes transformer models (BERT-large, Ditto, DeepMatcher,
//! TAPAS) and trains a pairwise re-ranker \[39\] on 60 % of the annotated
//! pairs. We reproduce those baselines as feature-based neural models:
//! the workspace builds offline with no tensor runtime and no pre-trained
//! weights (README, "Workspace map"), so each system keeps its feature
//! set and training protocol over a shared small MLP. This crate supplies
//! the machinery:
//!
//! * [`mlp`] — multi-layer perceptrons with ReLU hidden layers, trained by
//!   backpropagation with Adam;
//! * [`ranker`] — a RankNet-style pairwise ranker on top of a scalar MLP;
//! * [`loss`] — sigmoid cross-entropy helpers for binary and multi-label
//!   objectives.

pub mod loss;
pub mod mlp;
pub mod ranker;

pub use mlp::{Mlp, TrainConfig};
pub use ranker::PairwiseRanker;
