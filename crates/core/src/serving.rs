//! Serving facade: a long-lived, thread-safe matcher over a loaded
//! [`MatchArtifact`].
//!
//! The pipeline is fit-once / match-many, and on the "many" side a
//! resident process (the `tdmatch serve` daemon, or any embedding
//! application) answers a *stream* of requests against one artifact. The
//! [`Matcher`] wraps the artifact behind exactly the request shapes a
//! server needs:
//!
//! * **query-by-id** — rank targets for a document already in the
//!   artifact's query corpus ([`Matcher::query_by_id`]);
//! * **query-by-vector** — rank targets for an out-of-corpus embedding
//!   ([`Matcher::query_by_vector`]);
//! * **query-by-tokens** — embed pre-processed tokens first
//!   ([`Matcher::query_by_tokens`]), the same aggregation as
//!   [`MatchArtifact::embed_tokens`];
//! * **batches** — several concurrent requests coalesced into **one**
//!   scoring call over the pre-normalized matrices
//!   ([`Matcher::query_batch_with_mode`]), so N clients ride the tiled
//!   batch kernel instead of issuing N scalar scans.
//!
//! Every shape gathers its rows into a [`QueryBlock`] and hands the
//! block's matrix to [`MatchArtifact::rank`] — the facade validates and
//! embeds, the artifact ranks.
//!
//! # Bit-identical batching
//!
//! By-id queries are gathered **verbatim** out of the artifact's
//! pre-normalized query matrix
//! ([`QueryBlock::push_unit`]), and every query's
//! ranking in the tiled kernel is computed independently of its batch
//! neighbours — so a batched response is *bit-identical* to the serial
//! [`MatchArtifact::match_top_k`] ranking for the same document, at any
//! batch composition. The protocol tests in `crates/serve` pin this.

use tdmatch_embed::score::{dot_unrolled, QueryBlock};

use crate::artifact::{AnnSearch, AnnUsage, MatchArtifact, PersistError};

/// One serving request: which query row to rank against the artifact's
/// target corpus.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// A document of the artifact's query (second) corpus, by index.
    ById(usize),
    /// An out-of-corpus raw (un-normalized) embedding of the artifact's
    /// dimensionality.
    ByVector(Vec<f32>),
}

/// Why a single request inside a batch could not be scored. The rest of
/// the batch is unaffected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// A [`Query::ById`] index at or beyond the query-corpus size.
    UnknownId {
        /// The requested document index.
        id: usize,
        /// Number of documents in the query corpus.
        rows: usize,
    },
    /// A [`Query::ByVector`] whose length is not the artifact dim.
    DimMismatch {
        /// The vector length received.
        got: usize,
        /// The artifact's embedding dimensionality.
        want: usize,
    },
    /// A [`Query::ByVector`] whose squared norm is not finite: an
    /// infinite or NaN element, or finite elements whose squares
    /// overflow `f32`. It has no direction to rank by; scored, it would
    /// give every target NaN or `0.0`.
    NonFinite,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::UnknownId { id, rows } => {
                write!(f, "unknown query id {id} (corpus holds {rows} documents)")
            }
            QueryError::DimMismatch { got, want } => {
                write!(f, "query vector has dim {got}, artifact expects {want}")
            }
            QueryError::NonFinite => {
                write!(f, "query vector's squared norm is not a finite f32")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// A ranked answer: `(target index, score)` by decreasing score, ties by
/// ascending index — the engine's standard ordering.
pub type Ranked = Vec<(usize, f32)>;

/// A long-lived matcher over one loaded artifact.
///
/// `Matcher` is `Send + Sync` and interior-mutability-free: any number
/// of threads can query it concurrently; batch state lives in a
/// caller-owned [`QueryBlock`] (see
/// [`query_batch_with_mode`](Matcher::query_batch_with_mode)).
///
/// ```
/// use tdmatch_core::artifact::MatchArtifact;
/// use tdmatch_core::serving::{Matcher, Query};
///
/// let artifact = MatchArtifact::new(
///     2,
///     vec![("tarantino".into(), vec![1.0, 0.0])],
///     vec![Some(vec![1.0, 0.0]), Some(vec![0.0, 1.0])], // targets
///     vec![Some(vec![0.9, 0.1]), Some(vec![0.2, 0.8])], // queries
/// );
/// let matcher = Matcher::new(artifact);
///
/// // Two concurrent requests coalesce into one batched kernel call…
/// let mut block = matcher.query_block(); // allocate once, reuse per batch
/// let (batch, _) = matcher.query_batch_with_mode(
///     &mut block,
///     &[Query::ById(0), Query::ByVector(vec![0.0, 3.0])],
///     1,
///     false, // exact scan
/// );
/// assert_eq!(batch[0].as_ref().unwrap()[0].0, 0); // [0.9,0.1] → target 0
/// assert_eq!(batch[1].as_ref().unwrap()[0].0, 1); // [0,3]    → target 1
///
/// // …and a by-id answer is bit-identical to the one-shot path.
/// let serial = matcher.artifact().match_top_k(1);
/// assert_eq!(batch[0].as_ref().unwrap(), &serial[0].ranked);
/// ```
#[derive(Debug, Clone)]
pub struct Matcher {
    artifact: MatchArtifact,
    /// `Some(pool)` ⇒ queries default to ANN retrieval with this pool
    /// width (when the artifact carries an index); `None` ⇒ exact scan.
    ann_pool: Option<usize>,
    /// ANN search beam width (`ef_search`); `None` follows the pool
    /// width (the historical coupling). Clamped up to the pool at use.
    ann_ef: Option<usize>,
}

impl Matcher {
    /// Wraps a loaded (or freshly exported) artifact. ANN retrieval
    /// starts **off** — the default path is the exact scan.
    pub fn new(artifact: MatchArtifact) -> Self {
        Self {
            artifact,
            ann_pool: None,
            ann_ef: None,
        }
    }

    /// Enables ANN retrieval by default, with `pool` candidates per
    /// query (builder form of [`set_ann_pool`](Matcher::set_ann_pool)).
    pub fn with_ann_pool(mut self, pool: usize) -> Self {
        self.ann_pool = Some(pool);
        self
    }

    /// Sets the ANN search beam width (builder form of
    /// [`set_ann_ef`](Matcher::set_ann_ef)).
    pub fn with_ann_ef(mut self, ef: usize) -> Self {
        self.ann_ef = Some(ef);
        self
    }

    /// Sets (or clears) the default retrieval mode: `Some(pool)` routes
    /// queries through the ANN index with that pool width, `None`
    /// restores the exact scan. Has no effect on artifacts without an
    /// index — those always scan exactly.
    pub fn set_ann_pool(&mut self, pool: Option<usize>) {
        self.ann_pool = pool;
    }

    /// Sets (or clears) the ANN search beam width (`ef_search`) —
    /// how many nodes the layer-0 graph walk explores per query.
    /// `None` (the default) keeps the beam at the pool width; wider
    /// beams buy recall without widening the exact-rescore pool.
    /// Values below the pool are clamped up to it at search time (a
    /// beam can't return more nodes than it explored).
    pub fn set_ann_ef(&mut self, ef: Option<usize>) {
        self.ann_ef = ef;
    }

    /// The configured default pool width, when ANN mode is on.
    pub fn ann_pool(&self) -> Option<usize> {
        self.ann_pool
    }

    /// The configured ANN search beam width, when decoupled from the
    /// pool.
    pub fn ann_ef(&self) -> Option<usize> {
        self.ann_ef
    }

    /// True when the wrapped artifact carries an ANN index.
    pub fn ann_ready(&self) -> bool {
        self.artifact.ann().is_some()
    }

    /// Loads an artifact file and wraps it — the daemon's startup path.
    /// Mapped zero-copy where the platform allows, exactly like
    /// [`MatchArtifact::load`].
    pub fn load<P: AsRef<std::path::Path>>(path: P) -> Result<Self, PersistError> {
        Ok(Self::new(MatchArtifact::load(path)?))
    }

    /// The wrapped artifact.
    pub fn artifact(&self) -> &MatchArtifact {
        &self.artifact
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.artifact.dim()
    }

    /// Number of target (first-corpus) documents answers rank over.
    pub fn targets(&self) -> usize {
        self.artifact.first_matrix().rows()
    }

    /// Number of query (second-corpus) documents addressable by id.
    pub fn queries(&self) -> usize {
        self.artifact.second_matrix().rows()
    }

    /// A [`QueryBlock`] of the artifact's dimensionality at the engine's
    /// default coalescing width — allocate once per worker, reuse via
    /// [`query_batch_with_mode`](Matcher::query_batch_with_mode).
    pub fn query_block(&self) -> QueryBlock {
        QueryBlock::new(self.dim())
    }

    /// Ranks the top-`k` targets for query document `id`. A present id
    /// whose embedding is missing yields an empty ranking (the engine's
    /// missing-query semantics); an out-of-range id is an error.
    pub fn query_by_id(&self, id: usize, k: usize) -> Result<Ranked, QueryError> {
        self.query_one(Query::ById(id), k)
    }

    /// Ranks the top-`k` targets for a raw out-of-corpus vector
    /// (normalized on entry, like every scored row).
    pub fn query_by_vector(&self, v: &[f32], k: usize) -> Result<Ranked, QueryError> {
        self.query_one(Query::ByVector(v.to_vec()), k)
    }

    /// One request through a fresh block, in the configured default mode.
    fn query_one(&self, query: Query, k: usize) -> Result<Ranked, QueryError> {
        let (mut out, _) = self.query_batch_with_mode(
            &mut self.query_block(),
            &[query],
            k,
            self.ann_pool.is_some(),
        );
        out.pop().expect("one query in, one answer out")
    }

    /// Embeds pre-processed tokens (mean of known term vectors, as in
    /// [`MatchArtifact::embed_tokens`]) and ranks the top-`k` targets.
    /// All-unknown tokens yield an empty ranking, and so does an
    /// embedding that is not finite ([`QueryError::NonFinite`], which
    /// only an artifact with huge term vectors can produce). Tokenize
    /// with `tdmatch-text`'s `Preprocessor::base_tokens` to match the
    /// fitted vocabulary.
    pub fn query_by_tokens<S: AsRef<str>>(&self, tokens: &[S], k: usize) -> Ranked {
        match self.artifact.embed_tokens(tokens) {
            // `embed_tokens` returns artifact-dim vectors, so the only
            // possible error is `NonFinite`.
            Some(v) => self.query_by_vector(&v, k).unwrap_or_default(),
            None => Vec::new(),
        }
    }

    /// Scores a coalesced batch of requests through a caller-owned
    /// (reusable) [`QueryBlock`], chunking by the block's capacity.
    /// Each chunk is **one** [`MatchArtifact::rank`] call: the per-scan
    /// fixed costs and every streamed target block are shared by the
    /// whole chunk.
    ///
    /// Results come back in request order. A request that fails
    /// validation gets its `Err` slot; the others are unaffected.
    ///
    /// The retrieval mode is chosen per call: `ann = true` routes every
    /// query in the batch through the ANN index at the configured pool
    /// and beam (falling back to the exact scan when the artifact has
    /// no index), `ann = false` forces the exact scan regardless of the
    /// configured default. The daemon's workers use this to honour
    /// the protocol's per-request `ann` flag.
    ///
    /// The returned [`AnnUsage`] reports how many queries actually
    /// pooled through the index and how many candidates they offered —
    /// zeros whenever the exact path ran.
    pub fn query_batch_with_mode(
        &self,
        block: &mut QueryBlock,
        queries: &[Query],
        k: usize,
        ann: bool,
    ) -> (Vec<Result<Ranked, QueryError>>, AnnUsage) {
        let search = ann.then(|| {
            let pool = self.ann_pool.unwrap_or(tdmatch_embed::ann::DEFAULT_POOL);
            AnnSearch {
                pool,
                ef: self.ann_ef.unwrap_or(pool),
            }
        });
        let mut usage = AnnUsage::default();
        let second = self.artifact.second_matrix();
        let mut out: Vec<Result<Ranked, QueryError>> = Vec::with_capacity(queries.len());
        for chunk in queries.chunks(block.capacity().max(1)) {
            block.clear();
            let mut errs: Vec<Option<QueryError>> = Vec::with_capacity(chunk.len());
            for q in chunk {
                let err = match q {
                    Query::ById(id) => {
                        if *id >= second.rows() {
                            block.push_missing();
                            Some(QueryError::UnknownId {
                                id: *id,
                                rows: second.rows(),
                            })
                        } else {
                            if second.is_valid(*id) {
                                // Verbatim gather: batched scores stay
                                // bit-identical to the one-shot path.
                                block.push_unit(second.row(*id));
                            } else {
                                block.push_missing();
                            }
                            None
                        }
                    }
                    Query::ByVector(v) => {
                        if v.len() != self.dim() {
                            block.push_missing();
                            Some(QueryError::DimMismatch {
                                got: v.len(),
                                want: self.dim(),
                            })
                        } else if !dot_unrolled(v, v).is_finite() {
                            // The squared norm `push_raw` normalizes by.
                            block.push_missing();
                            Some(QueryError::NonFinite)
                        } else {
                            block.push_raw(v);
                            None
                        }
                    }
                };
                errs.push(err);
            }
            let (ranked, used) = self.artifact.rank(block.matrix(), k, search);
            usage.add(used);
            for (result, err) in ranked.into_iter().take(chunk.len()).zip(errs) {
                out.push(match err {
                    Some(e) => Err(e),
                    None => Ok(result.ranked),
                });
            }
        }
        (out, usage)
    }
}

/// A hot-swappable [`Matcher`] slot: the daemon's current snapshot.
///
/// Long-lived servers need to pick up a newly published artifact without
/// restarting. `MatcherCell` holds the *current* matcher behind an
/// [`Arc`](std::sync::Arc); readers grab a clone
/// ([`get`](MatcherCell::get)) and use it
/// for the whole of one request or batch, while a publisher installs a
/// replacement ([`replace`](MatcherCell::replace) /
/// [`reload_from`](MatcherCell::reload_from)) at any time. Consequences:
///
/// * every in-flight batch is answered **entirely** by the snapshot it
///   started with — queries never straddle two snapshots;
/// * the old artifact (and its memory mapping, for zero-copy loads) is
///   dropped — and unmapped — only when the last outstanding clone
///   drops, so a swap never invalidates memory a reader still scores
///   against;
/// * a **failed** reload changes nothing: the old snapshot keeps
///   serving ([`reload_from`](MatcherCell::reload_from) returns the
///   error and leaves the cell untouched) — a bad artifact on disk must
///   never take a healthy daemon down.
///
/// [`generation`](MatcherCell::generation) counts successful installs,
/// so observers can tell *which* snapshot answered.
#[derive(Debug)]
pub struct MatcherCell {
    current: std::sync::RwLock<std::sync::Arc<Matcher>>,
    generation: std::sync::atomic::AtomicU64,
}

impl MatcherCell {
    /// A cell serving `matcher` (generation 0).
    pub fn new(matcher: Matcher) -> Self {
        MatcherCell {
            current: std::sync::RwLock::new(std::sync::Arc::new(matcher)),
            generation: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The current snapshot. The returned handle stays valid (and its
    /// backing storage mapped) across any number of subsequent swaps.
    pub fn get(&self) -> std::sync::Arc<Matcher> {
        std::sync::Arc::clone(&self.current.read().expect("matcher cell poisoned"))
    }

    /// Installs `matcher` as the current snapshot and returns the
    /// previous one (still alive for any reader that grabbed it).
    pub fn replace(&self, matcher: Matcher) -> std::sync::Arc<Matcher> {
        let mut slot = self.current.write().expect("matcher cell poisoned");
        let old = std::mem::replace(&mut *slot, std::sync::Arc::new(matcher));
        self.generation
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        old
    }

    /// Loads an artifact file and installs it. On error the cell is
    /// **unchanged** — the previous snapshot keeps serving — making this
    /// the safe reload primitive for a live daemon.
    ///
    /// The outgoing snapshot's retrieval configuration (the ANN pool
    /// width and search beam, see [`Matcher::set_ann_pool`] /
    /// [`Matcher::set_ann_ef`]) carries over to the fresh matcher — a
    /// hot swap must not silently flip a daemon out of ANN mode.
    pub fn reload_from<P: AsRef<std::path::Path>>(&self, path: P) -> Result<(), PersistError> {
        let mut fresh = Matcher::load(path)?;
        let old = self.get();
        fresh.set_ann_pool(old.ann_pool());
        fresh.set_ann_ef(old.ann_ef());
        drop(old);
        drop(self.replace(fresh));
        Ok(())
    }

    /// Number of successful installs since construction.
    pub fn generation(&self) -> u64 {
        self.generation.load(std::sync::atomic::Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact() -> MatchArtifact {
        let targets: Vec<Option<Vec<f32>>> = (0..17)
            .map(|i| {
                if i % 5 == 3 {
                    None
                } else {
                    Some(vec![(i as f32 * 1.3).cos(), (i as f32 * 1.3).sin()])
                }
            })
            .collect();
        let queries: Vec<Option<Vec<f32>>> = (0..11)
            .map(|i| {
                if i == 4 {
                    None
                } else {
                    Some(vec![(i as f32 * 0.7).cos(), (i as f32 * 0.7).sin()])
                }
            })
            .collect();
        MatchArtifact::new(
            2,
            vec![("term".into(), vec![1.0, 0.0])],
            targets,
            queries,
        )
    }

    /// One batch through a fresh block, in the matcher's default mode.
    fn batch(m: &Matcher, queries: &[Query], k: usize) -> Vec<Result<Ranked, QueryError>> {
        let ann = m.ann_pool().is_some();
        m.query_batch_with_mode(&mut m.query_block(), queries, k, ann).0
    }

    #[test]
    fn by_id_is_bit_identical_to_one_shot_matching() {
        let m = Matcher::new(artifact());
        let serial = m.artifact().match_top_k(6);
        for (id, want) in serial.iter().enumerate() {
            let got = m.query_by_id(id, 6).unwrap();
            assert_eq!(got.len(), want.ranked.len());
            for (g, w) in got.iter().zip(&want.ranked) {
                assert_eq!(g.0, w.0);
                assert_eq!(g.1.to_bits(), w.1.to_bits(), "id {id}");
            }
        }
    }

    #[test]
    fn batches_of_any_shape_equal_serial_answers() {
        let m = Matcher::new(artifact());
        let serial = m.artifact().match_top_k(4);
        // 11 queries through a capacity-8 block: two kernel calls, mixed
        // with an out-of-corpus vector and two error slots.
        let mut queries: Vec<Query> = (0..m.queries()).map(Query::ById).collect();
        queries.push(Query::ByVector(vec![0.5, 0.5]));
        queries.push(Query::ById(999));
        queries.push(Query::ByVector(vec![1.0])); // wrong dim
        let got = batch(&m, &queries, 4);
        for id in 0..m.queries() {
            let ranked = got[id].as_ref().unwrap();
            assert_eq!(ranked.len(), serial[id].ranked.len(), "id {id}");
            for (g, w) in ranked.iter().zip(&serial[id].ranked) {
                assert_eq!((g.0, g.1.to_bits()), (w.0, w.1.to_bits()));
            }
        }
        let vec_answer = got[m.queries()].as_ref().unwrap();
        let direct = m.query_by_vector(&[0.5, 0.5], 4).unwrap();
        assert_eq!(vec_answer, &direct);
        assert_eq!(
            got[m.queries() + 1],
            Err(QueryError::UnknownId { id: 999, rows: 11 })
        );
        assert_eq!(
            got[m.queries() + 2],
            Err(QueryError::DimMismatch { got: 1, want: 2 })
        );
    }

    #[test]
    fn non_finite_vectors_are_rejected_and_the_batch_still_answers() {
        let m = Matcher::new(artifact());
        // `1e300` decodes from JSON to `inf`; `3e38` is finite, but its
        // square overflows, so the norm would be `inf` and every score 0.
        let overflowing = [
            vec![f32::INFINITY, 0.5],
            vec![f32::NAN, 0.5],
            vec![3e38, 3e38],
        ];
        let mut queries: Vec<Query> = overflowing.iter().cloned().map(Query::ByVector).collect();
        queries.push(Query::ById(0));
        queries.push(Query::ByVector(vec![1e19, 0.5])); // large, but its square is finite
        let got = batch(&m, &queries, 4);
        for r in &got[..3] {
            assert_eq!(r, &Err(QueryError::NonFinite));
        }
        assert_eq!(got[3], m.query_by_id(0, 4));
        let ranked = got[4].as_ref().unwrap();
        assert!(ranked.iter().all(|&(_, s)| s.is_finite()) && ranked[0].1 > 0.99);
        for v in &overflowing {
            assert_eq!(m.query_by_vector(v, 4), Err(QueryError::NonFinite));
        }
    }

    #[test]
    fn missing_query_embedding_ranks_empty_not_error() {
        let m = Matcher::new(artifact());
        assert_eq!(m.query_by_id(4, 5), Ok(Vec::new()));
    }

    #[test]
    fn tokens_route_through_embed_tokens() {
        let m = Matcher::new(artifact());
        let direct = {
            let v = m.artifact().embed_tokens(&["term"]).unwrap();
            m.query_by_vector(&v, 3).unwrap()
        };
        assert_eq!(m.query_by_tokens(&["term"], 3), direct);
        // "term" = [1, 0]: nearest is target 0, the same unit vector.
        assert_eq!(direct[0].0, 0);
        // An all-unknown query gets an empty ranking, not a panic.
        assert!(m.query_by_tokens(&["nope"], 3).is_empty());
    }

    #[test]
    fn reused_block_does_not_leak_state_between_batches() {
        let m = Matcher::new(artifact());
        let mut block = m.query_block();
        let full: Vec<Query> = (0..8).map(Query::ById).collect();
        let mut run = |queries: &[Query]| m.query_batch_with_mode(&mut block, queries, 3, false).0;
        let first = run(&full);
        // A smaller second batch through the same block must not see the
        // first batch's rows.
        let second = run(&[Query::ById(0)]);
        assert_eq!(second[0], first[0]);
        let errs = run(&[Query::ById(usize::MAX)]);
        assert!(errs[0].is_err());
    }

    #[test]
    fn matcher_cell_swaps_without_touching_outstanding_handles() {
        let cell = MatcherCell::new(Matcher::new(artifact()));
        assert_eq!(cell.generation(), 0);
        let before = cell.get();
        let answer_before = before.query_by_id(0, 3).unwrap();

        // Install a different snapshot (same corpus shape, scaled rows —
        // different scores) while `before` is still in use.
        let swapped = MatchArtifact::new(
            2,
            vec![("term".into(), vec![0.0, 1.0])],
            vec![Some(vec![0.0, 1.0]), Some(vec![1.0, 0.0])],
            vec![Some(vec![0.2, 0.8])],
        );
        let old = cell.replace(Matcher::new(swapped));
        assert_eq!(cell.generation(), 1);

        // The outstanding handle still answers from the old snapshot,
        // bit-identically.
        let again = before.query_by_id(0, 3).unwrap();
        assert_eq!(answer_before, again);
        assert_eq!(old.queries(), before.queries());

        // New readers see the new snapshot.
        assert_eq!(cell.get().queries(), 1);
    }

    #[test]
    fn failed_reload_leaves_the_cell_serving_the_old_snapshot() {
        let dir = std::env::temp_dir();
        let good = dir.join(format!("tdmatch-cell-good-{}.tdz", std::process::id()));
        let bad = dir.join(format!("tdmatch-cell-bad-{}.tdz", std::process::id()));
        artifact().save(&good).unwrap();
        std::fs::write(&bad, b"TDZ1 this is not a container").unwrap();

        let cell = MatcherCell::new(Matcher::load(&good).unwrap());
        let baseline = cell.get().query_by_id(0, 4).unwrap();

        assert!(cell.reload_from(&bad).is_err());
        assert_eq!(cell.generation(), 0, "failed reload must not bump the generation");
        assert_eq!(cell.get().query_by_id(0, 4).unwrap(), baseline);

        // A missing file is equally harmless.
        assert!(cell.reload_from(dir.join("tdmatch-cell-nope.tdz")).is_err());
        assert_eq!(cell.get().query_by_id(0, 4).unwrap(), baseline);

        // And a successful reload still works afterwards.
        cell.reload_from(&good).unwrap();
        assert_eq!(cell.generation(), 1);
        assert_eq!(cell.get().query_by_id(0, 4).unwrap(), baseline);
        std::fs::remove_file(&good).ok();
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn ann_mode_with_wide_pool_is_bit_identical_to_exact() {
        let mut a = artifact();
        a.build_ann(&tdmatch_embed::ann::HnswParams::default());
        let exact = Matcher::new(a.clone());
        // Pool ≥ corpus size ⇒ the widened pool is the whole corpus and
        // the rescorer reproduces the exact scan bit-for-bit.
        let ann = Matcher::new(a).with_ann_pool(1_000);
        let mut queries: Vec<Query> = (0..exact.queries()).map(Query::ById).collect();
        queries.push(Query::ByVector(vec![0.3, 0.7]));
        let want = batch(&exact, &queries, 6);
        let got = batch(&ann, &queries, 6);
        assert_eq!(want.len(), got.len());
        for (w, g) in want.iter().zip(&got) {
            let (w, g) = (w.as_ref().unwrap(), g.as_ref().unwrap());
            assert_eq!(w.len(), g.len());
            for (a, b) in w.iter().zip(g) {
                assert_eq!((a.0, a.1.to_bits()), (b.0, b.1.to_bits()));
            }
        }
    }

    #[test]
    fn per_batch_mode_overrides_the_default_and_reports_usage() {
        let mut a = artifact();
        a.build_ann(&tdmatch_embed::ann::HnswParams::default());
        let m = Matcher::new(a).with_ann_pool(4);
        let mut block = m.query_block();
        let batch = [Query::ById(0), Query::ById(4), Query::ById(2)];

        // Forced-exact batches never touch the index.
        let (_, usage) = m.query_batch_with_mode(&mut block, &batch, 3, false);
        assert_eq!(usage, AnnUsage::default());

        // ANN batches pool once per *valid* query (id 4 is missing).
        let (_, usage) = m.query_batch_with_mode(&mut block, &batch, 3, true);
        assert_eq!(usage.queries, 2);
        assert!(usage.pooled >= usage.queries);

        // Without an index, a requested-ANN batch falls back to exact.
        let plain = Matcher::new(artifact()).with_ann_pool(4);
        assert!(!plain.ann_ready());
        let (ranked, usage) = plain.query_batch_with_mode(&mut block, &batch, 3, true);
        assert_eq!(usage, AnnUsage::default());
        assert_eq!(ranked.len(), 3);
    }

    #[test]
    fn reload_preserves_the_ann_pool_configuration() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("tdmatch-cell-annpool-{}.tdz", std::process::id()));
        let mut a = artifact();
        a.build_ann(&tdmatch_embed::ann::HnswParams::default());
        a.save(&path).unwrap();

        let cell = MatcherCell::new(
            Matcher::load(&path).unwrap().with_ann_pool(128).with_ann_ef(512),
        );
        assert_eq!(cell.get().ann_pool(), Some(128));
        assert_eq!(cell.get().ann_ef(), Some(512));
        cell.reload_from(&path).unwrap();
        assert_eq!(
            cell.get().ann_pool(),
            Some(128),
            "hot swap must not drop ANN mode"
        );
        assert_eq!(
            cell.get().ann_ef(),
            Some(512),
            "hot swap must not drop the search beam"
        );
        assert!(cell.get().ann_ready());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wide_ef_with_wide_pool_stays_bit_identical_to_exact() {
        let mut a = artifact();
        a.build_ann(&tdmatch_embed::ann::HnswParams::default());
        let exact = Matcher::new(a.clone());
        // Pool ≥ corpus takes the all-valid-rows shortcut regardless of
        // ef — the decoupled beam must not break the exactness pin.
        let ann = Matcher::new(a).with_ann_pool(1_000).with_ann_ef(7);
        let queries: Vec<Query> = (0..exact.queries()).map(Query::ById).collect();
        let want = batch(&exact, &queries, 6);
        let got = batch(&ann, &queries, 6);
        for (w, g) in want.iter().zip(&got) {
            let (w, g) = (w.as_ref().unwrap(), g.as_ref().unwrap());
            assert_eq!(w.len(), g.len());
            for (a, b) in w.iter().zip(g) {
                assert_eq!((a.0, a.1.to_bits()), (b.0, b.1.to_bits()));
            }
        }
    }

    #[test]
    fn query_errors_format_usefully() {
        let e = QueryError::UnknownId { id: 9, rows: 2 }.to_string();
        assert!(e.contains('9') && e.contains('2'));
        let e = QueryError::DimMismatch { got: 3, want: 80 }.to_string();
        assert!(e.contains('3') && e.contains("80"));
        assert!(QueryError::NonFinite.to_string().contains("finite"));
    }
}
