//! # tdmatch-core
//!
//! The core of TDmatch — *Unsupervised Matching of Data and Text* (ICDE
//! 2022). Matches heterogeneous corpora (relational tables, structured
//! text / taxonomies, free text) without supervision:
//!
//! 1. [`builder`] jointly models both corpora as an undirected graph of
//!    data (term) and metadata (tuple / attribute / document / taxonomy)
//!    nodes — Algorithm 1 — with *Intersect* term filtering and the node
//!    merging of §II-C (stemming, numeric bucketing, pre-trained-embedding
//!    similarity);
//! 2. [`expand`] enriches the graph from an external knowledge base and
//!    prunes sink nodes — Algorithm 2;
//! 3. compression (from `tdmatch-compress`) optionally shrinks the graph
//!    while preserving metadata shortest paths — Algorithm 3;
//! 4. [`pipeline`] generates random walks, trains Word2Vec over them —
//!    Algorithm 4 — and keeps the result as one
//!    [`artifact::MatchArtifact`] inside the fitted model;
//! 5. [`matcher`] ranks cross-corpus documents by cosine similarity
//!    under one total order (score desc, index asc), with optional score
//!    combination (Fig. 10). The fitted model and a saved artifact reach
//!    that order through one retrieval entry,
//!    [`artifact::MatchArtifact::rank`] (exact scan, or — the one
//!    candidate generator — a persisted HNSW pool + exact rescore), which
//!    the CLI, the [`serving`] facade and the daemon all call.
//!
//! # Persistence lifecycle
//!
//! The pipeline is **fit-once / match-many**, and persistence follows
//! that shape end to end:
//!
//! 1. **Fit** — [`pipeline::TdMatch::fit`] builds the graph, runs walks,
//!    trains embeddings, and L2-normalizes both corpora's document
//!    vectors *once* into flat `ScoreMatrix`es (`tdmatch_embed::score`);
//!    those plus the term vectors are the [`artifact::MatchArtifact`]
//!    the returned [`pipeline::TdModel`] holds and matches through.
//! 2. **Export** — [`pipeline::TdModel::artifact`] is a clone of that
//!    artifact (to index, mutate or keep past the model);
//!    [`pipeline::TdModel::save_artifact`] saves it without the clone.
//! 3. **Save** — [`artifact::MatchArtifact::save`] writes a versioned
//!    `TDZ1` container (`tdmatch_graph::container`): 64-byte-aligned
//!    little-endian sections, each CRC-32 sealed.
//! 4. **Warm start** — [`artifact::MatchArtifact::from_storage`] maps
//!    the container back *zero-copy*: the document matrices are borrowed
//!    views into the shared storage buffer, so time-to-first-ranking is
//!    load + dot-many — no graph rebuild, no re-normalization, no
//!    per-row allocation. The root test `fit_bits` holds the loaded
//!    file to the fitted model bit for bit, and the repository
//!    benchmark's `ingest` workload times the load (`artifact.load_ms`).
//!    `TDZ1` is the only format read: any other file is
//!    [`artifact::PersistError::BadMagic`].
//! 5. **Delta ingest** — when the target corpus changes, a
//!    [`delta::DeltaBatch`] (append / update / tombstone ops) applied
//!    via [`artifact::MatchArtifact::apply_delta`] re-embeds only the
//!    touched rows against the frozen vocabulary, maintains the
//!    persisted HNSW index incrementally, and republishes atomically —
//!    bit-identical to a full refit of the final corpus
//!    (`crates/core/tests/delta_prop.rs`), at a fraction of the cost
//!    (1.25 ms delta-to-visible at the median: `op_p50_ms` of the
//!    repository benchmark's `ingest` workload).
//!
//! A heavier warm start complements the artifact, a `TDZ1` file too: a
//! mutable graph saved with `tdmatch_graph::Graph::save_snapshot`
//! resumes the *training* side via [`pipeline::TdMatch::fit_prebuilt`]
//! (walks + training, no graph build).
//!
//! Entry point: [`pipeline::TdMatch`].

pub mod artifact;
pub mod builder;
pub mod config;
pub mod corpus;
pub mod delta;
pub mod error;
pub mod expand;
pub mod matcher;
pub mod merging;
pub mod pipeline;
pub mod serving;

pub use config::{Compression, EmbedMethod, FilterMode, TdConfig};
pub use corpus::{Corpus, StructuredText, Table, TaxonomyNode, TextCorpus};
pub use artifact::{MatchArtifact, PersistError};
pub use delta::{DeltaBatch, DeltaOp, DeltaSummary};
pub use error::TdError;
pub use pipeline::{FitOptions, TdMatch, TdModel};
pub use serving::Matcher;
