//! Persistent match artifacts — save a fitted model's matching state to
//! disk and match from it later without re-training.
//!
//! The paper notes that "any downstream classifier can be trained using
//! the embeddings from our solution" (§I); that requires the embeddings
//! to outlive the fitting process. A [`MatchArtifact`] holds everything
//! matching needs: the term vectors and both corpora's document vectors,
//! the latter as pre-normalized [`ScoreMatrix`]es — the same
//! normalize-once / dot-many layout. A fitted
//! [`TdModel`](crate::pipeline::TdModel) holds one and matches through
//! it, so a loaded artifact *is* the live model's matching state, at
//! full engine speed with **no per-call re-normalization**.
//!
//! # Format (version 2, `TDZ1` container)
//!
//! Artifacts serialize into the shared zero-copy container
//! (`tdmatch_graph::container`): little-endian sections at 64-byte
//! aligned offsets, each CRC-32 sealed. Sections:
//!
//! ```text
//! AHDR   u64 × 3: format version (2), dim, term count
//! ALBL   per term: u32 label length, UTF-8 label (strictly ascending)
//! AVEC   term vectors, term-major f32, term count × dim
//! SMH0/SMD0/SMV0   first-corpus ScoreMatrix (header/rows/bitmap)
//! SMH1/SMD1/SMV1   second-corpus ScoreMatrix
//! ANH0/ANS0/ANO0/ANE0   optional HNSW index over the first corpus
//! ```
//!
//! The ANN sections are written only when the artifact carries an index
//! (see [`MatchArtifact::build_ann`]); artifacts without one are
//! byte-identical to before the sections existed, and loaders ignore
//! their absence.
//!
//! Loading via [`MatchArtifact::from_storage`] is zero-copy: both
//! document matrices and the term table (`ALBL`, `AVEC`) are views into
//! the container buffer, and a term is found by binary search over its
//! label, so a label section that is not strictly ascending (bytewise)
//! is refused. `TDZ1` is the only format read or written; anything
//! else — the retired `TDM1` stream included — is
//! [`PersistError::BadMagic`].
//!
//! # Cross-process serving
//!
//! [`MatchArtifact::load`] opens the file through
//! `tdmatch_graph::container::Storage::open`, which memory-maps it on
//! 64-bit unix: N serving processes loading the same artifact share
//! **one** physical copy of the matrices and the vocabulary through the
//! OS page cache
//! (private heap copies appear only on platforms without mmap, or when
//! mapping fails). The byte-level container spec lives in
//! `docs/FORMAT.md` at the repository root.

use std::cell::{Cell, RefCell};
use std::io::{self, Write};
use std::path::Path;

use tdmatch_embed::ann::{HnswIndex, HnswParams, SearchScratch};
use tdmatch_embed::score::ScoreMatrix;
use tdmatch_graph::codec::{put_str, ByteReader, DecodeError};
use tdmatch_graph::container::{pod_bytes, ContainerWriter, FlatBuf, SectionTag, Storage};

use crate::delta::{DeltaBatch, DeltaOp, DeltaSummary};
use crate::matcher::{top_k_matches_matrix, MatchResult};

/// Current on-disk format version (`TDZ1` container).
pub const FORMAT_VERSION: u32 = 2;

/// Largest embedding dimensionality the decoders accept. Far above any
/// real configuration; a header claiming more is hostile or corrupt.
pub const MAX_DIM: usize = 1 << 20;

/// Section: `[format_version, dim, term count]` as `u64`s.
pub const SEC_ARTIFACT_HEADER: SectionTag = *b"AHDR";
/// Section: length-prefixed term labels, strictly ascending.
pub const SEC_TERM_LABELS: SectionTag = *b"ALBL";
/// Section: flat term vectors (`f32`, term-major).
pub const SEC_TERM_VECTORS: SectionTag = *b"AVEC";

/// ScoreMatrix slot of the first corpus inside the container.
pub const FIRST_SLOT: u8 = 0;
/// ScoreMatrix slot of the second corpus inside the container.
pub const SECOND_SLOT: u8 = 1;

/// Errors raised when saving or loading a [`MatchArtifact`].
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the `TDZ1` container magic.
    BadMagic,
    /// The file's format version is not supported by this build.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
    },
    /// The checksum does not match: the file is truncated or corrupt.
    Corrupt,
    /// A label is not valid UTF-8 (implies corruption).
    BadLabel,
    /// Structurally invalid or implausible content (hostile header
    /// fields, section shape mismatches).
    Invalid(&'static str),
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "I/O error: {e}"),
            PersistError::BadMagic => write!(f, "not a TDmatch artifact (bad magic)"),
            PersistError::UnsupportedVersion { found } => {
                write!(f, "unsupported artifact version {found} (supported: {FORMAT_VERSION})")
            }
            PersistError::Corrupt => write!(f, "artifact checksum mismatch (corrupt file)"),
            PersistError::BadLabel => write!(f, "artifact contains a non-UTF-8 label"),
            PersistError::Invalid(what) => write!(f, "invalid artifact content: {what}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Maps shared decode errors into artifact persistence errors.
impl From<DecodeError> for PersistError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Io(io) => PersistError::Io(io),
            DecodeError::BadMagic => PersistError::BadMagic,
            DecodeError::UnsupportedVersion { found } => {
                PersistError::UnsupportedVersion { found }
            }
            DecodeError::Corrupt => PersistError::Corrupt,
            DecodeError::Invalid(what) => PersistError::Invalid(what),
        }
    }
}

/// How wide one ANN retrieval runs — the `ann` argument of
/// [`MatchArtifact::rank`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnnSearch {
    /// Candidates the index returns per query for exact rescoring
    /// (clamped up to 1).
    pub pool: usize,
    /// Layer-0 beam width of the graph walk (`ef_search`), clamped up to
    /// `pool`: a wider beam buys recall without widening the rescore.
    pub ef: usize,
}

/// How many ANN candidates a [`MatchArtifact::rank`] call actually
/// retrieved — the raw material for the daemon's `ann_queries` /
/// `mean_pool` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnnUsage {
    /// Queries whose candidates came from the ANN index.
    pub queries: u64,
    /// Total candidates offered to the exact rescorer across those
    /// queries (pool hits plus the invalid-row appendix).
    pub pooled: u64,
}

impl AnnUsage {
    /// Accumulates another call's usage.
    pub fn add(&mut self, other: AnnUsage) {
        self.queries += other.queries;
        self.pooled += other.pooled;
    }
}

thread_local! {
    /// The walk scratch every [`MatchArtifact::rank`] on this thread
    /// reuses; it re-sizes itself to each index it walks.
    static WALK: RefCell<SearchScratch> = RefCell::default();
}

/// A self-contained, persistable matching state: term embeddings plus
/// both corpora's document embeddings as pre-normalized score matrices.
///
/// Obtained from [`TdModel::artifact`](crate::pipeline::TdModel::artifact)
/// or loaded from disk with [`MatchArtifact::load`] /
/// [`MatchArtifact::from_storage`].
///
/// Document vectors are stored (and returned by
/// [`first_vector`](MatchArtifact::first_vector) /
/// [`second_vector`](MatchArtifact::second_vector)) **L2-normalized** —
/// cosine rankings are unchanged, and matching needs no per-call work.
/// Term vectors stay raw, so [`embed_tokens`](MatchArtifact::embed_tokens)
/// aggregates exactly like the fitted model's vocabulary.
#[derive(Debug, Clone)]
pub struct MatchArtifact {
    dim: usize,
    /// The frozen vocabulary's labels as the `ALBL` section holds them:
    /// per term a `u32` length and the UTF-8 label, strictly ascending
    /// bytewise. Owned when built, a view into the container when loaded.
    labels: FlatBuf<u8>,
    /// Per term, in term order: its label's `prefix_key` and where its
    /// length prefix starts in `labels`.
    term_keys: Vec<(u64, u32)>,
    /// The terms' raw vectors, term-major (`AVEC`), owned or a view.
    term_vecs: FlatBuf<f32>,
    first: ScoreMatrix,
    second: ScoreMatrix,
    /// Optional HNSW index over the first (target-side) corpus.
    ann: Option<HnswIndex>,
}

impl PartialEq for MatchArtifact {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim
            && self.labels == other.labels
            && self.term_vecs == other.term_vecs
            && self.first == other.first
            && self.second == other.second
            && self.ann == other.ann
    }
}

/// A label's first 8 bytes as a big-endian integer, zero-padded. Keys
/// order like their labels up to ties (a label and its extensions past
/// 8 bytes, or by a NUL), so a search compares labels only on a tie.
fn prefix_key(label: &[u8]) -> u64 {
    let mut key = [0u8; 8];
    let n = label.len().min(8);
    key[..n].copy_from_slice(&label[..n]);
    u64::from_be_bytes(key)
}

/// One pass over an `ALBL` payload of `n` labels: each label's key and
/// where its length prefix starts. Every label must be UTF-8 and
/// strictly greater than the one before it (bytewise), and the labels
/// must fill the payload exactly.
fn term_keys(labels: &[u8], n: usize) -> Result<Vec<(u64, u32)>, PersistError> {
    if u32::try_from(labels.len()).is_err() {
        return Err(PersistError::Invalid("label section too large"));
    }
    // Each label takes at least its 4-byte prefix, whatever `n` claims.
    let mut keys = Vec::with_capacity(n.min(labels.len() / 4));
    let mut reader = ByteReader::new(labels, 0);
    let mut prev: Option<&[u8]> = None;
    for _ in 0..n {
        let start = (labels.len() - reader.remaining()) as u32;
        let label = reader
            .str()
            .map_err(|e| match e {
                DecodeError::Invalid(_) => PersistError::BadLabel,
                other => other.into(),
            })?
            .as_bytes();
        if prev.is_some_and(|p| p >= label) {
            return Err(PersistError::Invalid("term labels not strictly ascending"));
        }
        prev = Some(label);
        keys.push((prefix_key(label), start));
    }
    if reader.remaining() != 0 {
        return Err(PersistError::Invalid("trailing bytes in label section"));
    }
    Ok(keys)
}

impl MatchArtifact {
    /// Assembles an artifact from raw (un-normalized) parts. Vectors must
    /// all have length `dim`; term labels must be unique (later
    /// duplicates are dropped). Document rows are normalized once, here.
    pub fn new(
        dim: usize,
        terms: Vec<(String, Vec<f32>)>,
        first: Vec<Option<Vec<f32>>>,
        second: Vec<Option<Vec<f32>>>,
    ) -> Self {
        debug_assert!(first.iter().flatten().all(|v| v.len() == dim));
        debug_assert!(second.iter().flatten().all(|v| v.len() == dim));
        Self::from_matrices(
            dim,
            terms,
            ScoreMatrix::from_options_dim(&first, dim),
            ScoreMatrix::from_options_dim(&second, dim),
        )
    }

    /// Assembles an artifact from already-normalized score matrices —
    /// the path a fit builds its model's artifact through, once. Panics
    /// if a term vector or a matrix is not `dim` wide: such an artifact
    /// would save a file no loader accepts.
    pub fn from_matrices(
        dim: usize,
        mut terms: Vec<(String, Vec<f32>)>,
        first: ScoreMatrix,
        second: ScoreMatrix,
    ) -> Self {
        for (label, v) in &terms {
            assert!(
                v.len() == dim,
                "term {label:?} has a vector of length {}, artifact dim is {dim}",
                v.len()
            );
        }
        assert_eq!(first.dim(), dim, "first matrix dim must equal artifact dim");
        assert_eq!(second.dim(), dim, "second matrix dim must equal artifact dim");
        // The file's order, ascending by label; the sort is stable, so
        // the first of equal labels is the one kept.
        terms.sort_by(|a, b| a.0.cmp(&b.0));
        terms.dedup_by(|b, a| a.0 == b.0);
        let mut labels = Vec::new();
        let mut term_vecs = Vec::with_capacity(terms.len() * dim);
        for (label, v) in &terms {
            put_str(&mut labels, label);
            term_vecs.extend_from_slice(v);
        }
        let term_keys = term_keys(&labels, terms.len())
            .expect("sorted, unique labels are refused only past 4 GiB");
        Self {
            dim,
            labels: labels.into(),
            term_keys,
            term_vecs: term_vecs.into(),
            first,
            second,
            ann: None,
        }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored term vectors.
    pub fn term_count(&self) -> usize {
        self.term_keys.len()
    }

    /// The frozen vocabulary's labels, in stored (sorted) order — the
    /// terms a delta batch can embed against.
    pub fn term_labels(&self) -> impl Iterator<Item = &str> {
        let mut reader = ByteReader::new(&self.labels, 0);
        self.term_keys.iter().map(move |_| {
            reader
                .str()
                .expect("labels are checked at load or built from strings")
        })
    }

    /// The label bytes after the length prefix at `start` in `labels`.
    fn label_at(&self, start: u32) -> &[u8] {
        let rest = &self.labels[start as usize..];
        let len = u32::from_le_bytes(rest[..4].try_into().expect("a 4-byte prefix")) as usize;
        &rest[4..4 + len]
    }

    /// `(first corpus size, second corpus size)`.
    pub fn corpus_sizes(&self) -> (usize, usize) {
        (self.first.rows(), self.second.rows())
    }

    /// The pre-normalized first-corpus (target-side) matrix.
    pub fn first_matrix(&self) -> &ScoreMatrix {
        &self.first
    }

    /// The pre-normalized second-corpus (query-side) matrix.
    pub fn second_matrix(&self) -> &ScoreMatrix {
        &self.second
    }

    /// True when the document matrices still borrow container storage
    /// (i.e. the artifact was loaded zero-copy).
    pub fn is_zero_copy(&self) -> bool {
        self.first.is_zero_copy() || self.second.is_zero_copy()
    }

    /// The stored (raw) embedding of a term, if present: a binary search
    /// over the ascending labels, by key first.
    pub fn term_vector(&self, term: &str) -> Option<&[f32]> {
        let (term, key) = (term.as_bytes(), prefix_key(term.as_bytes()));
        let i = self
            .term_keys
            .binary_search_by(|&(k, at)| k.cmp(&key).then_with(|| self.label_at(at).cmp(term)))
            .ok()?;
        Some(&self.term_vecs[i * self.dim..(i + 1) * self.dim])
    }

    /// The stored normalized embedding of document `idx` in the first
    /// corpus.
    pub fn first_vector(&self, idx: usize) -> Option<&[f32]> {
        (idx < self.first.rows() && self.first.is_valid(idx)).then(|| self.first.row(idx))
    }

    /// The stored normalized embedding of document `idx` in the second
    /// corpus.
    pub fn second_vector(&self, idx: usize) -> Option<&[f32]> {
        (idx < self.second.rows() && self.second.is_valid(idx)).then(|| self.second.row(idx))
    }

    /// Ranks the top-`k` first-corpus documents for every second-corpus
    /// document: [`rank`](MatchArtifact::rank)'s exact scan over the
    /// stored query matrix. This is what
    /// [`TdModel::match_top_k`](crate::pipeline::TdModel::match_top_k)
    /// calls.
    pub fn match_top_k(&self, k: usize) -> Vec<MatchResult> {
        self.rank(&self.second, k, None).0
    }

    /// The one retrieval entry: ranks the top-`k` first-corpus documents
    /// for every row of `queries` (pre-normalized, of the artifact's
    /// dimensionality) under the engine's total order — decreasing
    /// score, ties by ascending index, missing queries rank empty.
    ///
    /// `ann = None` scans every target exactly. `ann = Some(search)`
    /// retrieves each query's candidates from the stored HNSW index
    /// ([`ann_pool_with`](MatchArtifact::ann_pool_with)) and rescores
    /// them with the same kernels, so the published ranking is the exact
    /// order over the pool; an artifact without an index scans exactly
    /// instead. The walks run through the calling thread's one
    /// [`SearchScratch`], kept across calls — a daemon worker reuses it
    /// batch after batch — and re-sized when this artifact's row count
    /// differs from the last one it walked (another artifact, or this
    /// one after a delta). The returned [`AnnUsage`] counts what the
    /// index was asked for — zeros whenever the exact scan ran.
    pub fn rank(
        &self,
        queries: &ScoreMatrix,
        k: usize,
        ann: Option<AnnSearch>,
    ) -> (Vec<MatchResult>, AnnUsage) {
        assert_eq!(queries.dim(), self.dim, "query matrix dim must equal artifact dim");
        let (Some(AnnSearch { pool, ef }), true) = (ann, self.ann.is_some()) else {
            let ranked = top_k_matches_matrix(queries, &self.first, k, None, None);
            return (ranked, AnnUsage::default());
        };
        // A zero pool would rank nothing but the invalid-row appendix.
        let pool = pool.max(1);
        let (asked, pooled) = (Cell::new(0u64), Cell::new(0u64));
        let cand = |q: usize| {
            let c = WALK
                .with_borrow_mut(|scratch| self.ann_pool_with(queries.row(q), pool, ef, scratch))
                .expect("index presence checked above");
            asked.set(asked.get() + 1);
            pooled.set(pooled.get() + c.len() as u64);
            c
        };
        let ranked = top_k_matches_matrix(queries, &self.first, k, None, Some(&cand));
        let usage = AnnUsage {
            queries: asked.get(),
            pooled: pooled.get(),
        };
        (ranked, usage)
    }

    /// Builds (or rebuilds) the HNSW index over the first (target-side)
    /// corpus. `O(T log T)` distance evaluations — a build-time cost;
    /// queries afterwards retrieve candidate pools in ~`O(pool log T)`.
    pub fn build_ann(&mut self, params: &HnswParams) {
        self.ann = Some(HnswIndex::build(&self.first, params));
    }

    /// Drops the stored ANN index (subsequent saves omit its sections).
    pub fn clear_ann(&mut self) {
        self.ann = None;
    }

    /// The stored ANN index over the first corpus, when present.
    pub fn ann(&self) -> Option<&HnswIndex> {
        self.ann.as_ref()
    }

    /// The candidate pool for one query row: the best `pool` nodes of an
    /// `ef`-wide walk of the ANN index (`ef` clamped up to `pool`)
    /// **plus every invalid target row** — the exact scan offers invalid
    /// rows too (they score exactly `-1.0`), so appending them keeps
    /// missing-target semantics identical, and a pool widened to the
    /// corpus size reproduces the exact scan bit-for-bit. A `scratch`
    /// reused across queries keeps the walk's buffers between queries
    /// (see [`SearchScratch`]), bit-identical results either way.
    ///
    /// [`rank`](MatchArtifact::rank) is the caller, with its thread's
    /// scratch; public so a recorder can time the walk on its own.
    /// Returns `None` when no index is stored.
    pub fn ann_pool_with(
        &self,
        qrow: &[f32],
        pool: usize,
        ef: usize,
        scratch: &mut SearchScratch,
    ) -> Option<Vec<usize>> {
        let ann = self.ann.as_ref()?;
        let mut cands = ann.search_with(&self.first, qrow, pool, ef, scratch);
        cands.extend(self.first.invalid_rows());
        Some(cands)
    }

    /// Embeds an *unseen* document as the mean of its known terms' vectors
    /// (the standard aggregation the paper uses for its W2VEC baseline,
    /// §V: "We generate embeddings for longer texts with the mean of the
    /// vectors of their tokens"). Returns `None` when no token is in the
    /// stored vocabulary.
    ///
    /// Tokens should be pre-processed the same way the model was fitted
    /// (e.g. via `tdmatch-text`'s `Preprocessor::base_tokens`).
    pub fn embed_tokens<S: AsRef<str>>(&self, tokens: &[S]) -> Option<Vec<f32>> {
        let mut sum = vec![0.0f32; self.dim];
        let mut hits = 0usize;
        for tok in tokens {
            if let Some(v) = self.term_vector(tok.as_ref()) {
                for (s, x) in sum.iter_mut().zip(v) {
                    *s += x;
                }
                hits += 1;
            }
        }
        if hits == 0 {
            return None;
        }
        let inv = 1.0 / hits as f32;
        for s in &mut sum {
            *s *= inv;
        }
        Some(sum)
    }

    /// Applies a corpus delta in place: appends / re-embeds / tombstones
    /// target-side rows against the **frozen** vocabulary, and keeps a
    /// carried ANN index in sync through the incremental
    /// [`HnswIndex::insert`] path — no refit, no index rebuild.
    ///
    /// Untouched rows keep their exact bits, and every touched row runs
    /// the same [`embed_tokens`](MatchArtifact::embed_tokens) →
    /// normalize path a full re-export would, so the delta-updated
    /// artifact ranks **bit-identically** to a from-scratch export of
    /// the final corpus under the same vocabulary
    /// (`crates/core/tests/delta_prop.rs` pins this). A document with no
    /// known term gets an invalid row: still addressable, scores exactly
    /// −1.0 — identical to a fit that could not embed it.
    ///
    /// Ops apply in batch order; appends allocate row indices past the
    /// current corpus, so later ops may address rows appended earlier in
    /// the same batch. The whole batch is bounds-checked up front — an
    /// out-of-bounds target returns `PersistError::Invalid` *before any
    /// mutation*, leaving the artifact untouched.
    pub fn apply_delta(&mut self, batch: &DeltaBatch) -> Result<DeltaSummary, PersistError> {
        let old_rows = self.first.rows();
        let mut rows = old_rows;
        for op in &batch.ops {
            match op {
                DeltaOp::Append { .. } => rows += 1,
                DeltaOp::Update { target, .. } | DeltaOp::Tombstone { target } => {
                    if *target >= rows {
                        return Err(PersistError::Invalid("delta target out of bounds"));
                    }
                }
            }
        }

        // The index members this batch touches, in row order: the
        // pre-delta rows it updates or tombstones that are valid (= index
        // membership, the invariant the build and every previous delta
        // maintain), captured before any row changes, because
        // `HnswIndex::insert` wants `removed` to name *current* members.
        // A re-embedded member leaves and re-enters: its stored adjacency
        // described the old vector. O(batch), whatever the row count.
        let removed: Vec<usize> = if self.ann.is_some() {
            let mut rows: Vec<usize> = batch
                .ops
                .iter()
                .filter_map(|op| match op {
                    DeltaOp::Update { target, .. } | DeltaOp::Tombstone { target } => {
                        Some(*target)
                    }
                    DeltaOp::Append { .. } => None,
                })
                .filter(|&i| i < old_rows && self.first.is_valid(i))
                .collect();
            rows.sort_unstable();
            rows.dedup();
            rows
        } else {
            Vec::new()
        };

        let mut summary = DeltaSummary { rows, ..Default::default() };
        let mut touched: Vec<usize> = Vec::with_capacity(batch.ops.len());
        self.first.grow_rows(rows);
        let mut next = old_rows;
        for op in &batch.ops {
            match op {
                DeltaOp::Append { tokens } => {
                    if let Some(v) = self.embed_tokens(tokens) {
                        self.first.set_row(next, &v);
                    }
                    touched.push(next);
                    next += 1;
                    summary.appended += 1;
                }
                DeltaOp::Update { target, tokens } => {
                    match self.embed_tokens(tokens) {
                        Some(v) => self.first.set_row(*target, &v),
                        None => self.first.clear_row(*target),
                    }
                    touched.push(*target);
                    summary.updated += 1;
                }
                DeltaOp::Tombstone { target } => {
                    self.first.clear_row(*target);
                    touched.push(*target);
                    summary.tombstoned += 1;
                }
            }
        }

        if let Some(ann) = self.ann.as_mut() {
            touched.sort_unstable();
            touched.dedup();
            let added: Vec<usize> = touched
                .iter()
                .copied()
                .filter(|&i| self.first.is_valid(i))
                .collect();
            summary.ann_removed = removed.len();
            summary.ann_inserted = added.len();
            ann.insert(&self.first, &added, &removed);
        }
        Ok(summary)
    }

    /// Serializes into any writer as a `TDZ1` container (format v2). See
    /// the module docs for the section layout. The term table and the
    /// document matrices are borrowed by the writer and streamed out — no
    /// assembled copy.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), PersistError> {
        let mut cw = ContainerWriter::new();
        cw.add(
            SEC_ARTIFACT_HEADER,
            pod_bytes(&[
                FORMAT_VERSION as u64,
                self.dim as u64,
                self.term_count() as u64,
            ]),
        );
        cw.add(SEC_TERM_LABELS, &self.labels[..]);
        cw.add_pod(SEC_TERM_VECTORS, &self.term_vecs);
        self.first.write_sections(FIRST_SLOT, &mut cw);
        self.second.write_sections(SECOND_SLOT, &mut cw);
        if let Some(ann) = &self.ann {
            ann.write_sections(FIRST_SLOT, &mut cw);
        }
        cw.write_to(w).map_err(PersistError::from)
    }

    /// Loads from container storage, zero-copy: the term table and both
    /// document matrices become views into `storage`'s buffer (kept alive
    /// by the artifact). This is the warm-start path: one
    /// [`Storage::container`] parse, which checks every section's CRC,
    /// plus one pass over the labels (UTF-8, strictly ascending, a key
    /// and a start each) and the structural validators — no term, label
    /// or row is copied, re-allocated, or re-normalized. A label section
    /// out of order or with a repeated label is [`PersistError::Invalid`],
    /// and so is an ANN index whose entry point or any neighbor is a row
    /// the first matrix marks missing.
    pub fn from_storage(storage: &Storage) -> Result<Self, PersistError> {
        let container = storage.container()?;
        let header = container.require(SEC_ARTIFACT_HEADER)?.as_u64s()?;
        let &[version, dim, n_terms] = header else {
            return Err(PersistError::Invalid("artifact header shape"));
        };
        if version != FORMAT_VERSION as u64 {
            return Err(PersistError::UnsupportedVersion {
                found: version.min(u32::MAX as u64) as u32,
            });
        }
        let dim = usize::try_from(dim).map_err(|_| PersistError::Corrupt)?;
        if dim > MAX_DIM {
            return Err(PersistError::Invalid("implausible dimensionality"));
        }
        let n_terms = usize::try_from(n_terms).map_err(|_| PersistError::Corrupt)?;

        let term_vecs =
            FlatBuf::<f32>::from_section(storage, container.require(SEC_TERM_VECTORS)?)?;
        let expect = n_terms
            .checked_mul(dim)
            .ok_or(PersistError::Invalid("term section shape overflows"))?;
        if term_vecs.len() != expect {
            return Err(PersistError::Invalid("term vector length mismatch"));
        }
        let labels = FlatBuf::<u8>::from_section(storage, container.require(SEC_TERM_LABELS)?)?;
        let term_keys = term_keys(&labels, n_terms)?;

        let first = ScoreMatrix::from_sections(storage, &container, FIRST_SLOT)?;
        let second = ScoreMatrix::from_sections(storage, &container, SECOND_SLOT)?;
        if first.dim() != dim || second.dim() != dim {
            return Err(PersistError::Invalid("matrix dim disagrees with header"));
        }
        let ann = if HnswIndex::present(&container, FIRST_SLOT) {
            Some(HnswIndex::from_sections(storage, &container, FIRST_SLOT, &first)?)
        } else {
            None
        };
        Ok(Self {
            dim,
            labels,
            term_keys,
            term_vecs,
            first,
            second,
            ann,
        })
    }

    /// Saves to a file path (format v2), crash-safely: the container is
    /// written to a same-directory temp file, fsynced, and renamed over
    /// `path` ([`publish_atomic`](tdmatch_graph::publish::publish_atomic)).
    /// A publisher killed at any byte offset — `kill -9` included —
    /// leaves `path` pointing at the previous complete artifact (or
    /// still absent), never at a torn file; daemons mapping the old
    /// inode keep serving it untouched. This *is* the rename-to-publish
    /// discipline `docs/SERVING.md` specifies.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), PersistError> {
        tdmatch_graph::publish::publish_atomic(path.as_ref(), |f| self.write_to(f))
    }

    /// Loads from a file path, zero-copy.
    ///
    /// The container is **memory-mapped** where the platform allows
    /// ([`Storage::open`]; heap read elsewhere or when mapping fails):
    /// every serving process that loads the same artifact file shares one
    /// physical copy of the matrices through the OS page cache, and the
    /// mapping stays alive for as long as the artifact does. Opening
    /// only maps the file; this call then parses the container once,
    /// which checks every CRC (sections no reader knows included), so
    /// corruption anywhere fails the load.
    ///
    /// ```
    /// use tdmatch_core::artifact::MatchArtifact;
    ///
    /// let artifact = MatchArtifact::new(
    ///     2,
    ///     vec![("tarantino".into(), vec![1.0, 0.0])],
    ///     vec![Some(vec![1.0, 0.0]), Some(vec![0.0, 1.0])], // targets
    ///     vec![Some(vec![0.9, 0.1])],                       // queries
    /// );
    /// let path = std::env::temp_dir().join("tdmatch-doc-artifact.tdm");
    /// artifact.save(&path)?;
    ///
    /// // A serving process maps the file and matches immediately:
    /// let served = MatchArtifact::load(&path)?;
    /// assert!(served.is_zero_copy());
    /// let top = served.match_top_k(1);
    /// assert_eq!(top[0].ranked[0].0, 0); // query [0.9, 0.1] → target 0
    /// # std::fs::remove_file(&path).ok();
    /// # Ok::<(), tdmatch_core::artifact::PersistError>(())
    /// ```
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, PersistError> {
        Self::from_storage(&Storage::open(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MatchArtifact {
        MatchArtifact::new(
            2,
            vec![
                ("tarantino".into(), vec![1.0, 0.0]),
                ("willis".into(), vec![0.5, 0.5]),
            ],
            vec![Some(vec![1.0, 0.0]), None, Some(vec![0.0, 1.0])],
            vec![Some(vec![0.9, 0.1])],
        )
    }

    fn roundtrip(a: &MatchArtifact) -> MatchArtifact {
        let mut buf = Vec::new();
        a.write_to(&mut buf).unwrap();
        MatchArtifact::from_storage(&Storage::from_bytes(&buf)).unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let a = sample();
        let b = roundtrip(&a);
        assert_eq!(a, b);
        assert_eq!(b.term_vector("tarantino"), Some(&[1.0f32, 0.0][..]));
        assert_eq!(b.first_vector(1), None);
        assert_eq!(b.corpus_sizes(), (3, 1));
        // Unit rows round-trip exactly.
        assert_eq!(b.first_vector(0), Some(&[1.0f32, 0.0][..]));
    }

    #[test]
    #[should_panic(expected = "term \"t\" has a vector of length 3, artifact dim is 2")]
    fn term_vector_of_the_wrong_length_is_rejected_at_construction() {
        // Accepted, this saved a file `from_storage` refuses to load.
        MatchArtifact::new(2, vec![("t".into(), vec![1.0, 2.0, 3.0])], vec![], vec![]);
    }

    #[test]
    fn loaded_artifact_is_zero_copy() {
        let a = sample();
        let mut buf = Vec::new();
        a.write_to(&mut buf).unwrap();
        let storage = Storage::from_bytes(&buf);
        let b = MatchArtifact::from_storage(&storage).unwrap();
        assert!(b.is_zero_copy());
        assert!(!a.is_zero_copy());
        assert_eq!(a, b);
        // The streaming entry point takes the same zero-copy path after
        // its one buffer read.
        assert!(roundtrip(&a).is_zero_copy());
    }

    #[test]
    fn matching_from_artifact_ranks_by_cosine() {
        let a = sample();
        let r = a.match_top_k(3);
        assert_eq!(r.len(), 1);
        // Query [0.9, 0.1]: closest is first doc [1,0], then [0,1]; the
        // None doc ranks last with score -1.
        assert_eq!(r[0].target_indices(), vec![0, 2, 1]);
    }

    #[test]
    fn embed_tokens_averages_known_vectors() {
        let a = sample();
        // "tarantino" = [1,0], "willis" = [0.5,0.5]; mean = [0.75, 0.25].
        let v = a.embed_tokens(&["tarantino", "willis", "unknown"]).unwrap();
        assert!((v[0] - 0.75).abs() < 1e-6 && (v[1] - 0.25).abs() < 1e-6);
        // All-unknown queries embed to nothing.
        assert!(a.embed_tokens(&["zzz", "yyy"]).is_none());
        assert!(a.embed_tokens::<&str>(&[]).is_none());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        // The retired `TDM1` magic is what any other non-container is.
        for magic in [b"XDZ1", b"TDM1"] {
            buf[..4].copy_from_slice(magic);
            let err = MatchArtifact::from_storage(&Storage::from_bytes(&buf)).unwrap_err();
            assert!(matches!(err, PersistError::BadMagic));
        }
    }

    #[test]
    fn bit_flip_anywhere_is_detected() {
        let mut clean = Vec::new();
        sample().write_to(&mut clean).unwrap();
        // Flip one bit in every byte position past the magic; each must
        // fail (checksum, version, or structure) — never load silently.
        for pos in 4..clean.len() {
            let mut buf = clean.clone();
            buf[pos] ^= 0x01;
            match MatchArtifact::from_storage(&Storage::from_bytes(&buf)) {
                Err(_) => {}
                Ok(loaded) => panic!(
                    "bit flip at {pos} loaded successfully (CRC missed it): {loaded:?}"
                ),
            }
        }
    }

    #[test]
    fn truncation_is_detected() {
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        for cut in [1usize, 4, buf.len() / 2, buf.len() - 1] {
            let short = &buf[..cut];
            assert!(
                MatchArtifact::from_storage(&Storage::from_bytes(short)).is_err(),
                "truncated file of {cut} bytes loaded"
            );
        }
    }

    #[test]
    fn future_container_version_is_rejected() {
        let a = sample();
        let mut buf = Vec::new();
        a.write_to(&mut buf).unwrap();
        // Bump the *artifact* format version inside the header section.
        // Rather than hand-patching CRCs, rebuild a container with a bad
        // header through the writer.
        let mut cw = ContainerWriter::new();
        cw.add(SEC_ARTIFACT_HEADER, pod_bytes(&[99u64, 2, 0]));
        cw.add(SEC_TERM_LABELS, Vec::new());
        cw.add_pod(SEC_TERM_VECTORS, &[] as &[f32]);
        a.first.write_sections(FIRST_SLOT, &mut cw);
        a.second.write_sections(SECOND_SLOT, &mut cw);
        let bytes = cw.finish();
        let err = MatchArtifact::from_storage(&Storage::from_bytes(&bytes)).unwrap_err();
        assert!(matches!(err, PersistError::UnsupportedVersion { found: 99 }));
    }

    #[test]
    fn duplicate_terms_keep_first_occurrence_after_sort() {
        let a = MatchArtifact::new(
            1,
            vec![("b".into(), vec![2.0]), ("a".into(), vec![1.0]), ("a".into(), vec![9.0])],
            vec![],
            vec![],
        );
        assert_eq!(a.term_count(), 2);
        assert_eq!(a.term_vector("a"), Some(&[1.0f32][..]));
        assert_eq!(a.term_labels().collect::<Vec<_>>(), ["a", "b"]);
    }

    /// A container whose term table holds `labels` in the given order,
    /// one 1-wide vector each, over an empty corpus.
    fn with_labels(labels: &[&str]) -> Vec<u8> {
        let mut albl = Vec::new();
        for label in labels {
            put_str(&mut albl, label);
        }
        let vecs: Vec<f32> = (0..labels.len()).map(|i| i as f32).collect();
        let empty = ScoreMatrix::invalid(0, 1);
        let mut cw = ContainerWriter::new();
        cw.add(
            SEC_ARTIFACT_HEADER,
            pod_bytes(&[FORMAT_VERSION as u64, 1, labels.len() as u64]),
        );
        cw.add(SEC_TERM_LABELS, albl);
        cw.add_pod(SEC_TERM_VECTORS, &vecs);
        empty.write_sections(FIRST_SLOT, &mut cw);
        empty.write_sections(SECOND_SLOT, &mut cw);
        cw.finish()
    }

    #[test]
    fn a_file_with_two_equal_labels_fails_the_load() {
        let load = |labels: &[&str]| {
            MatchArtifact::from_storage(&Storage::from_bytes(&with_labels(labels)))
        };
        let ok = load(&["a", "ab", "b", "ü"]).expect("strictly ascending labels load");
        assert_eq!(ok.term_vector("b"), Some(&[2.0f32][..]));
        // Repeated, swapped and out of order (a longer label before its
        // prefix): a binary search over these could miss or mis-serve.
        let refused: [&[&str]; 5] = [
            &["a", "a"],
            &["a", "b", "b"],
            &["b", "a"],
            &["ab", "a"],
            &["ü", "z"],
        ];
        for labels in refused {
            let err = load(labels).expect_err("a label section not strictly ascending");
            assert!(
                matches!(err, PersistError::Invalid(what) if what.contains("strictly ascending")),
                "{labels:?}: {err}"
            );
        }
    }

    fn sample_with_ann(targets: usize, dim: usize) -> MatchArtifact {
        let mut state = 0x5EEDu64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1 << 24) as f32 - 0.5
        };
        let first: Vec<Option<Vec<f32>>> = (0..targets)
            .map(|i| (i % 11 != 7).then(|| (0..dim).map(|_| next()).collect()))
            .collect();
        let second: Vec<Option<Vec<f32>>> =
            (0..4).map(|_| Some((0..dim).map(|_| next()).collect())).collect();
        let terms = ["alpha", "beta"]
            .iter()
            .map(|t| (t.to_string(), (0..dim).map(|_| next()).collect()))
            .collect();
        let mut a = MatchArtifact::new(dim, terms, first, second);
        a.build_ann(&HnswParams::default());
        a
    }

    /// The stored queries through the index at `pool` (beam = pool).
    fn ann_ranked(a: &MatchArtifact, k: usize, pool: usize) -> Vec<MatchResult> {
        a.rank(a.second_matrix(), k, Some(AnnSearch { pool, ef: pool })).0
    }

    #[test]
    fn ann_index_roundtrips_bit_identical() {
        let a = sample_with_ann(120, 8);
        assert!(a.ann().is_some());
        let b = roundtrip(&a);
        assert_eq!(a, b);
        assert_eq!(b.ann().map(|i| i.layers()), a.ann().map(|i| i.layers()));
        // An artifact without an index stays index-less through a save.
        let mut plain = sample();
        plain.clear_ann();
        assert!(roundtrip(&plain).ann().is_none());
    }

    #[test]
    fn ann_match_rescores_exactly_over_a_wide_pool() {
        let a = sample_with_ann(120, 8);
        // Pool as wide as the corpus ⇒ identical to the exact scan,
        // indices, tie-breaks, and score bits alike.
        assert_eq!(a.match_top_k(5), ann_ranked(&a, 5, 120));
        // Without an index a requested ANN ranking is the exact scan,
        // and reports that the index was never asked.
        let mut plain = sample_with_ann(120, 8);
        plain.clear_ann();
        let search = Some(AnnSearch { pool: 16, ef: 16 });
        let (ranked, usage) = plain.rank(plain.second_matrix(), 5, search);
        assert_eq!(plain.match_top_k(5), ranked);
        assert_eq!(usage, AnnUsage::default());
    }

    #[test]
    fn rank_clamps_a_zero_pool_and_counts_what_it_pooled() {
        let a = sample_with_ann(120, 8);
        let queries = a.second_matrix();
        // Pool 0 is pool 1, not "rank the missing rows only".
        let zero = a.rank(queries, 3, Some(AnnSearch { pool: 0, ef: 0 }));
        let one = a.rank(queries, 3, Some(AnnSearch { pool: 1, ef: 1 }));
        assert_eq!(zero, one);
        assert!(zero.0.iter().all(|r| r.ranked[0].1 > -1.0), "{:?}", zero.0);
        // Four valid queries, each offered its one hit plus the 11
        // missing rows (i % 11 == 7 below 120).
        assert_eq!(zero.1, AnnUsage { queries: 4, pooled: 4 * 12 });
        // The exact scan never touches the index.
        assert_eq!(a.rank(queries, 3, None).1, AnnUsage::default());
    }

    #[test]
    fn the_threads_walk_scratch_follows_the_artifact() {
        use crate::delta::DeltaBatch;
        let search = Some(AnnSearch { pool: 8, ef: 16 });
        let here = |x: &MatchArtifact| x.rank(x.second_matrix(), 5, search);
        let on_a_fresh_thread =
            |x: &MatchArtifact| std::thread::scope(|s| s.spawn(|| here(x)).join().unwrap());
        let mut a = sample_with_ann(120, 8);
        let b = sample_with_ann(300, 8);
        for x in [&a, &b, &a] {
            assert_eq!(here(x), on_a_fresh_thread(x), "{} rows", x.corpus_sizes().0);
        }
        let batch = DeltaBatch::new()
            .append(["alpha"])
            .append(["beta", "alpha"])
            .tombstone(3);
        a.apply_delta(&batch).unwrap();
        assert_eq!(a.corpus_sizes().0, 122);
        assert_eq!(here(&a), on_a_fresh_thread(&a), "after the delta");
    }

    #[test]
    fn ann_bit_flip_anywhere_is_detected() {
        // Same everywhere-flip coverage as the plain artifact, over a
        // file that carries the four ANN sections.
        let mut clean = Vec::new();
        sample_with_ann(40, 4).write_to(&mut clean).unwrap();
        for pos in 4..clean.len() {
            let mut buf = clean.clone();
            buf[pos] ^= 0x01;
            assert!(
                MatchArtifact::from_storage(&Storage::from_bytes(&buf)).is_err(),
                "bit flip at {pos} loaded silently"
            );
        }
    }

    #[test]
    fn ann_shape_mismatch_is_rejected() {
        // An index over a different row count must not pair with the
        // matrices it did not come from.
        let a = sample_with_ann(40, 4);
        let mut cw = ContainerWriter::new();
        cw.add(
            SEC_ARTIFACT_HEADER,
            pod_bytes(&[FORMAT_VERSION as u64, 4, 0]),
        );
        cw.add(SEC_TERM_LABELS, Vec::new());
        cw.add_pod(SEC_TERM_VECTORS, &[] as &[f32]);
        let small = ScoreMatrix::invalid(3, 4);
        small.write_sections(FIRST_SLOT, &mut cw);
        small.write_sections(SECOND_SLOT, &mut cw);
        let ann = a.ann().unwrap();
        ann.write_sections(FIRST_SLOT, &mut cw);
        let bytes = cw.finish();
        let err = MatchArtifact::from_storage(&Storage::from_bytes(&bytes)).unwrap_err();
        assert!(matches!(err, PersistError::Invalid(_)), "got {err:?}");
    }

    #[test]
    fn apply_delta_bounds_check_rejects_before_mutating() {
        use crate::delta::DeltaBatch;
        let mut a = sample();
        let before = a.clone();
        // Op 1 is fine, op 2 addresses a row that never exists.
        let batch = DeltaBatch::new().update(0, ["tarantino"]).tombstone(99);
        let err = a.apply_delta(&batch).unwrap_err();
        assert!(matches!(err, PersistError::Invalid(_)));
        assert_eq!(a, before, "failed delta must leave the artifact untouched");
        // …but a target appended earlier in the same batch is in bounds.
        let batch = DeltaBatch::new().append(["willis"]).tombstone(3);
        a.apply_delta(&batch).unwrap();
        assert_eq!(a.corpus_sizes().0, 4);
    }

    #[test]
    fn apply_delta_mirrors_a_fresh_export_of_the_final_corpus() {
        use crate::delta::DeltaBatch;
        let mut a = sample();
        let batch = DeltaBatch::new()
            .append(["willis"])               // row 3
            .update(2, ["tarantino", "willis"])
            .tombstone(0)
            .append(["zzz", "unknown"]);      // row 4: embeds to nothing
        let s = a.apply_delta(&batch).unwrap();
        assert_eq!((s.appended, s.updated, s.tombstoned, s.rows), (2, 1, 1, 5));

        // Reference: assemble the final corpus from scratch over the
        // same frozen terms. Rows must agree bit-for-bit.
        let terms = vec![
            ("tarantino".to_string(), vec![1.0, 0.0]),
            ("willis".to_string(), vec![0.5, 0.5]),
        ];
        let refit = MatchArtifact::new(
            2,
            terms,
            vec![
                None,                         // tombstoned
                None,                         // was None at fit time
                a.embed_tokens(&["tarantino", "willis"]),
                a.embed_tokens(&["willis"]),
                None,                         // unknown-only append
            ],
            vec![Some(vec![0.9, 0.1])],
        );
        assert_eq!(a, refit);
        assert_eq!(a.match_top_k(5), refit.match_top_k(5));
    }

    #[test]
    fn apply_delta_keeps_a_carried_ann_index_exact_at_wide_pools() {
        use crate::delta::DeltaBatch;
        let mut a = sample_with_ann(120, 8);
        let batch = DeltaBatch::new()
            .tombstone(3)
            .update(10, Vec::<String>::new()) // no tokens → row invalidated
            .append(Vec::<String>::new())     // row 120, invalid
            .tombstone(120);
        let s = a.apply_delta(&batch).unwrap();
        assert_eq!(s.rows, 121);
        assert!(s.ann_removed >= 2 && s.ann_inserted == 0);
        let ann = a.ann().unwrap();
        assert_eq!(ann.rows(), 121, "index must track the grown matrix");
        // Wide-pool ANN rescoring stays the exact scan, bit-for-bit.
        assert_eq!(a.match_top_k(6), ann_ranked(&a, 6, 121));

        // The delta-updated artifact still saves and reloads: the
        // from_storage shape check (index rows == matrix rows) passes.
        let mut buf = Vec::new();
        a.write_to(&mut buf).unwrap();
        let b = MatchArtifact::from_storage(&Storage::from_bytes(&buf)).unwrap();
        assert_eq!(a, b);
        assert_eq!(b.match_top_k(6), ann_ranked(&b, 6, 121));
    }

    #[test]
    fn save_and_load_via_files() {
        let dir = std::env::temp_dir().join("tdmatch-artifact-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.tdm");
        let a = sample();
        a.save(&path).unwrap();
        let b = MatchArtifact::load(&path).unwrap();
        assert_eq!(a, b);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = MatchArtifact::load("/nonexistent/path/model.tdm").unwrap_err();
        assert!(matches!(err, PersistError::Io(_)));
        assert!(err.to_string().contains("I/O"));
    }
}
