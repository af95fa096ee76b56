//! Flat similarity engine for the matching phase (§IV-B): pre-normalized
//! score matrices, unrolled dot kernels, and bounded top-k selection.
//!
//! # The normalize-once / dot-many contract
//!
//! Every scoring call in the matching phase is a cosine between a query
//! row and a target row. Cosine is scale-invariant, so the engine
//! L2-normalizes each row **once** at [`ScoreMatrix`] construction and
//! afterwards scores pairs with a plain dot product — one fused
//! multiply-add stream per element instead of the three (dot, ‖a‖², ‖b‖²)
//! that a from-scratch cosine needs. Rows are stored in one flat,
//! row-major `Vec<f32>` so a batch scan streams targets linearly through
//! the cache instead of chasing `Option<Vec<f32>>` pointers.
//!
//! # Missing-row semantics
//!
//! A document's metadata node can vanish (e.g. dropped by aggressive
//! compression), which the legacy API modelled as `None` rows. The engine
//! keeps a validity bitmap instead of nested options:
//!
//! * a **missing query** row produces an *empty* ranking;
//! * a **missing target** row scores exactly `-1.0` (ranking last, below
//!   any reachable cosine), before any `extra_score` combination;
//! * a **present but all-zero** row stays a zero vector after
//!   normalization and therefore scores `0.0` against everything,
//!   matching `cosine`'s zero-vector convention.
//!
//! # Ranking semantics
//!
//! Top-k selection uses a bounded binary heap ([`TopK`]) — `O(T log k)`
//! per query instead of the `O(T log T)` full sort — with the same
//! ordering as the historical sort-and-truncate path: decreasing score,
//! ties broken by ascending target index. `-0.0` scores are canonicalized
//! to `+0.0` on push so the tie-break agrees with IEEE `==` comparisons.
//! Scores must be non-NaN (guaranteed for finite inputs; an `extra_score`
//! callback returning NaN gets an unspecified, but still deterministic,
//! rank).
//!
//! # Batch scoring
//!
//! [`batch_top_k_seq`] is the one scorer: it walks query blocks × target
//! blocks, so a block of target rows (sized to fit L1/L2) is scored
//! against up to [`QUERY_BLOCK`] queries before moving on and hot target
//! rows are reused from cache across the query block. Every query's
//! ranking is computed independently of its batch neighbours, so
//! however a caller groups queries into batches (the daemon's workers
//! each score whichever batch they take), the answers are bit-identical.

use tdmatch_graph::container::{Container, ContainerWriter, FlatBuf, SectionTag, Storage};
use tdmatch_graph::DecodeError;

use crate::vectors::cosine;

/// Queries scored together against one cached target block.
pub const QUERY_BLOCK: usize = 8;

/// Bytes of target rows to keep resident per block (~L1d sized).
const TARGET_BLOCK_BYTES: usize = 32 * 1024;

/// `Σ a[i] * b[i]` over equal-length slices, unrolled into 8 independent
/// accumulator lanes so the compiler can keep the loop in vector
/// registers (plain `mul`+`add`, auto-vectorizable without `-C
/// target-feature=+fma`).
///
/// This is the one-row reference every dot in the crate reproduces bit
/// for bit, [`dot_unrolled4`] included. At the default `x86_64` target
/// (SSE2, no flags), which is what the scan and the HNSW walk always
/// run, it is bound by its add chain, not by memory: each lane pair
/// lives in one `xmm` register, so a 96-dim dot is 12 dependent `addps`
/// and scans an L2-resident matrix no faster than one streamed from
/// memory. Training on a CPU with AVX2 runs it compiled for AVX2, where
/// the 8 lanes fill one `ymm` register; the lanes, the reduction tree
/// and the bits are the same (see `weights.rs`).
#[inline]
pub fn dot_unrolled(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; 8];
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for l in 0..8 {
            lanes[l] += xa[l] * xb[l];
        }
    }
    let mut acc = reduce_lanes(&lanes);
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        acc += x * y;
    }
    acc
}

/// `dot_unrolled`'s reduction tree over its eight lanes.
#[inline]
fn reduce_lanes(lanes: &[f32; 8]) -> f32 {
    ((lanes[0] + lanes[4]) + (lanes[1] + lanes[5]))
        + ((lanes[2] + lanes[6]) + (lanes[3] + lanes[7]))
}

/// Four dots of `a` against four equal-length `rows` in one pass over
/// `a`: `[dot_unrolled(a, rows[0]), …, dot_unrolled(a, rows[3])]`, each
/// result the same bits. (A NaN result, which only non-finite input
/// produces, is NaN in both, with the sign and payload Rust leaves
/// unspecified.) `tests/score_prop.rs` holds this at every dim from 0
/// to 130.
///
/// Each row keeps its own eight lanes, accumulated in the same order
/// and reduced by the same tree and scalar remainder loop as
/// [`dot_unrolled`]. The four rows' add chains are independent, so they
/// overlap where one row's chain runs alone: on this host a 96-dim
/// matrix scans four rows at a time 1.2× (12.6 MB, streamed from
/// memory) to 1.9× (L2-resident) faster than row by row. Below ~24 dims
/// the per-row kernel is faster; every dim the repository fits or
/// serves is 32 or more.
///
/// `black_box(lanes)` before the reductions is an optimization barrier,
/// not a benchmark artefact. Without it LLVM's SLP vectorizer packs the
/// four rows' reduction trees into shared vectors and rebuilds the
/// accumulation loop around them with shuffles, which measured slower
/// than the per-row kernel. Behind the barrier each row's lanes stay in
/// their own two registers. The barrier costs one 128-byte spill per
/// call and changes no result.
#[inline]
pub fn dot_unrolled4(a: &[f32], rows: [&[f32]; 4]) -> [f32; 4] {
    debug_assert!(rows.iter().all(|r| r.len() == a.len()));
    let body = a.len() / 8 * 8;
    let [r0, r1, r2, r3] = rows.map(|r| &r[..body]);
    let chunks = a[..body]
        .chunks_exact(8)
        .zip(r0.chunks_exact(8))
        .zip(r1.chunks_exact(8))
        .zip(r2.chunks_exact(8))
        .zip(r3.chunks_exact(8));
    let mut lanes = [[0.0f32; 8]; 4];
    for ((((xa, x0), x1), x2), x3) in chunks {
        for (lane, xb) in lanes.iter_mut().zip([x0, x1, x2, x3]) {
            for l in 0..8 {
                lane[l] += xa[l] * xb[l];
            }
        }
    }
    let lanes = std::hint::black_box(lanes);
    let mut out = [0.0f32; 4];
    for ((o, lane), row) in out.iter_mut().zip(&lanes).zip(rows) {
        let mut acc = reduce_lanes(lane);
        for (x, y) in a[body..].iter().zip(&row[body..]) {
            acc += x * y;
        }
        *o = acc;
    }
    out
}

/// A flat, row-major, L2-pre-normalized `rows × dim` f32 matrix with a
/// validity bitmap for missing rows — the engine-side replacement for
/// `Vec<Option<Vec<f32>>>` wherever vectors are *scored*.
///
/// Invalid (missing) rows are stored as zeros and flagged in the bitmap;
/// see the [module docs](self) for their scoring semantics.
///
/// Both arrays are [`FlatBuf`]s: owned when the matrix is built row by
/// row, zero-copy views into `TDZ1` container [`Storage`] when loaded by
/// [`from_sections`](ScoreMatrix::from_sections) — a persisted matrix
/// maps back at normalize-once speed with no per-row copies and no
/// re-normalization.
#[derive(Debug, Clone, Default)]
pub struct ScoreMatrix {
    /// Row-major normalized rows; invalid rows are all-zero.
    data: FlatBuf<f32>,
    /// Bit `i` set ⇔ row `i` is present.
    valid: FlatBuf<u64>,
    rows: usize,
    dim: usize,
}

impl PartialEq for ScoreMatrix {
    fn eq(&self, other: &Self) -> bool {
        // Bitwise comparison (f32 bits, not IEEE ==): persistence
        // round-trips must be exact, including NaN payloads and -0.0.
        self.rows == other.rows
            && self.dim == other.dim
            && self.valid[..] == other.valid[..]
            && self.data.len() == other.data.len()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl ScoreMatrix {
    /// An all-invalid matrix of the given shape.
    pub fn invalid(rows: usize, dim: usize) -> Self {
        Self {
            data: vec![0.0; rows * dim].into(),
            valid: vec![0; rows.div_ceil(64)].into(),
            rows,
            dim,
        }
    }

    /// Builds from legacy optional rows, inferring `dim` from the first
    /// present row (0 when every row is missing).
    pub fn from_options(rows: &[Option<Vec<f32>>]) -> Self {
        let dim = rows
            .iter()
            .find_map(|r| r.as_ref().map(Vec::len))
            .unwrap_or(0);
        Self::from_options_dim(rows, dim)
    }

    /// Builds from legacy optional rows with an explicit dimensionality
    /// (every present row must have length `dim`).
    pub fn from_options_dim(rows: &[Option<Vec<f32>>], dim: usize) -> Self {
        let mut m = Self::invalid(rows.len(), dim);
        for (i, r) in rows.iter().enumerate() {
            if let Some(v) = r {
                m.set_row(i, v);
            }
        }
        m
    }

    /// Builds an all-valid matrix from row slices of length `dim`.
    pub fn from_rows<'a, I>(rows: I, dim: usize) -> Self
    where
        I: IntoIterator<Item = &'a [f32]>,
        I::IntoIter: ExactSizeIterator,
    {
        let iter = rows.into_iter();
        let mut m = Self::invalid(iter.len(), dim);
        for (i, r) in iter.enumerate() {
            m.set_row(i, r);
        }
        m
    }

    /// Installs row `i` (copied, then L2-normalized in place) and marks it
    /// valid. Zero vectors stay zero. A zero-copy matrix is first
    /// detached from its storage (copy-on-write).
    pub fn set_row(&mut self, i: usize, v: &[f32]) {
        assert_eq!(v.len(), self.dim, "row length must equal matrix dim");
        let dim = self.dim;
        let row = &mut self.data.make_mut()[i * dim..(i + 1) * dim];
        row.copy_from_slice(v);
        let norm = dot_unrolled(row, row).sqrt();
        if norm > 0.0 {
            // True division, not multiply-by-reciprocal: `x / |x|` is
            // exactly ±1.0 in IEEE, which keeps degenerate (collinear)
            // rows tie-broken identically to the cosine oracle.
            for x in row.iter_mut() {
                *x /= norm;
            }
        }
        self.valid.make_mut()[i / 64] |= 1 << (i % 64);
    }

    /// Installs row `i` **verbatim** (no normalization) and marks it
    /// valid. For rows that are *already* unit-length — e.g. gathered out
    /// of another `ScoreMatrix` — this preserves every bit, so scores
    /// computed against the copy are bit-identical to scores against the
    /// source row. Passing a non-normalized row silently breaks the
    /// cosine semantics; use [`set_row`](ScoreMatrix::set_row) for raw
    /// vectors.
    pub fn set_row_prenormalized(&mut self, i: usize, v: &[f32]) {
        assert_eq!(v.len(), self.dim, "row length must equal matrix dim");
        let dim = self.dim;
        self.data.make_mut()[i * dim..(i + 1) * dim].copy_from_slice(v);
        self.valid.make_mut()[i / 64] |= 1 << (i % 64);
    }

    /// Grows the matrix to `new_rows` rows, carrying every existing row
    /// and validity bit **verbatim** (bit-for-bit — scores against the
    /// carried rows are unchanged). New rows start invalid (zeroed).
    /// The delta-ingest append path: a zero-copy matrix detaches from
    /// its storage first. Panics if `new_rows` shrinks the matrix.
    pub fn grow_rows(&mut self, new_rows: usize) {
        assert!(new_rows >= self.rows, "grow_rows cannot shrink the matrix");
        self.data.make_mut().resize(new_rows * self.dim, 0.0);
        self.valid.make_mut().resize(new_rows.div_ceil(64), 0);
        self.rows = new_rows;
    }

    /// Clears row `i`: zeroes its data and clears its validity bit, so
    /// the row scores exactly `-1.0` afterwards (the missing-target
    /// convention). The delta-ingest tombstone path.
    pub fn clear_row(&mut self, i: usize) {
        assert!(i < self.rows, "row index out of bounds");
        let dim = self.dim;
        self.data.make_mut()[i * dim..(i + 1) * dim].fill(0.0);
        self.valid.make_mut()[i / 64] &= !(1u64 << (i % 64));
    }

    /// Number of rows (valid or not).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// True when the matrix has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Whether row `i` is present.
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        (self.valid[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of present rows.
    pub fn valid_rows(&self) -> usize {
        self.valid.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The missing rows, ascending — `(0..rows).filter(|&i| !is_valid(i))`
    /// computed a bitmap word at a time, so a mostly-valid matrix costs
    /// one load per 64 rows instead of one bit test per row.
    pub fn invalid_rows(&self) -> impl Iterator<Item = usize> + '_ {
        let rows = self.rows;
        self.valid.iter().enumerate().flat_map(move |(w, &word)| {
            let live = (rows - w * 64).min(64);
            let mask = u64::MAX >> (64 - live);
            let mut missing = !word & mask;
            std::iter::from_fn(move || {
                (missing != 0).then(|| {
                    let bit = missing.trailing_zeros() as usize;
                    missing &= missing - 1;
                    w * 64 + bit
                })
            })
        })
    }

    /// The normalized row `i` (all-zero when invalid).
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Tag of this matrix's header section under `slot`.
    pub fn header_tag(slot: u8) -> SectionTag {
        [b'S', b'M', b'H', slot]
    }

    /// Tag of this matrix's row-data section under `slot`.
    pub fn data_tag(slot: u8) -> SectionTag {
        [b'S', b'M', b'D', slot]
    }

    /// Tag of this matrix's validity-bitmap section under `slot`.
    pub fn valid_tag(slot: u8) -> SectionTag {
        [b'S', b'M', b'V', slot]
    }

    /// Serializes the pre-normalized matrix into `TDZ1` container
    /// sections under `slot` (so several matrices — e.g. both corpus
    /// sides of an artifact — coexist in one container). The rows are
    /// written exactly as stored — loading never re-normalizes — and the
    /// writer *borrows* them, so saving streams without a second copy.
    pub fn write_sections<'a>(&'a self, slot: u8, w: &mut ContainerWriter<'a>) {
        w.add(
            Self::header_tag(slot),
            tdmatch_graph::container::pod_bytes(&[self.rows as u64, self.dim as u64]),
        );
        w.add_pod(Self::data_tag(slot), &self.data);
        w.add_pod(Self::valid_tag(slot), &self.valid);
    }

    /// Reassembles a matrix from container sections under `slot`,
    /// zero-copy: `data` and the validity bitmap are views into
    /// `storage`'s buffer (kept alive by the matrix). `container` must
    /// have been parsed from the same storage.
    ///
    /// With storage opened through `Storage::open`, the views point
    /// straight into a read-only file mapping — serving processes
    /// loading the same matrix share one physical copy of its rows. The
    /// sections' CRCs were checked when `container` was parsed
    /// (`tdmatch_graph::container`).
    pub fn from_sections(
        storage: &Storage,
        container: &Container<'_>,
        slot: u8,
    ) -> Result<Self, DecodeError> {
        let header = container.require(Self::header_tag(slot))?.as_u64s()?;
        let &[rows, dim] = header else {
            return Err(DecodeError::Invalid("score matrix header shape"));
        };
        let rows = usize::try_from(rows).map_err(|_| DecodeError::Corrupt)?;
        let dim = usize::try_from(dim).map_err(|_| DecodeError::Corrupt)?;
        let data = FlatBuf::<f32>::from_section(storage, container.require(Self::data_tag(slot))?)?;
        let expect = rows
            .checked_mul(dim)
            .ok_or(DecodeError::Invalid("score matrix shape overflows"))?;
        if data.len() != expect {
            return Err(DecodeError::Invalid("score matrix data length mismatch"));
        }
        let valid =
            FlatBuf::<u64>::from_section(storage, container.require(Self::valid_tag(slot))?)?;
        if valid.len() != rows.div_ceil(64) {
            return Err(DecodeError::Invalid("score matrix bitmap length mismatch"));
        }
        let tail_bits = rows % 64;
        if tail_bits != 0 && valid.last().copied().unwrap_or(0) >> tail_bits != 0 {
            return Err(DecodeError::Invalid("score matrix bitmap trailing bits"));
        }
        Ok(Self {
            data,
            valid,
            rows,
            dim,
        })
    }

    /// Converts both arrays into owned `Vec`s, detaching the matrix from
    /// container storage. No-op for built matrices.
    pub fn into_owned(mut self) -> Self {
        self.data.make_mut();
        self.valid.make_mut();
        self
    }

    /// True when the matrix still borrows container storage.
    pub fn is_zero_copy(&self) -> bool {
        self.data.is_shared() || self.valid.is_shared()
    }
}

/// A reusable query-gathering buffer sized for batch scoring — the
/// serving-side entry point to the tiled kernel.
///
/// A long-lived matcher (the `tdmatch serve` daemon) coalesces requests
/// arriving within its batching window into one scoring call. This
/// buffer is the coalescing surface: a small owned [`ScoreMatrix`] of
/// [`QUERY_BLOCK`] rows (the tile width [`batch_top_k_seq`] scores against
/// one cache-resident target block) that queries are pushed into and
/// that is [`clear`](QueryBlock::clear)ed and refilled batch after batch
/// without reallocating.
///
/// Rows enter three ways, matching the serving request kinds:
///
/// * [`push_unit`](QueryBlock::push_unit) — an already-normalized row
///   (e.g. gathered from a loaded artifact's query matrix), installed
///   verbatim so batched scores stay **bit-identical** to scoring the
///   source row directly;
/// * [`push_raw`](QueryBlock::push_raw) — an un-normalized vector (e.g.
///   an out-of-corpus query embedding), L2-normalized on entry exactly
///   like [`ScoreMatrix::set_row`];
/// * [`push_missing`](QueryBlock::push_missing) — a placeholder slot
///   that yields an empty ranking (used to keep batch positions aligned
///   with request order when a request fails validation).
///
/// ```
/// use tdmatch_embed::score::{batch_top_k_seq, QueryBlock, ScoreMatrix};
///
/// let targets = ScoreMatrix::from_rows([&[1.0f32, 0.0][..], &[0.0, 1.0]], 2);
/// let mut block = QueryBlock::new(2);
/// block.push_raw(&[2.0, 0.0]); // client A's query
/// block.push_raw(&[0.0, 5.0]); // client B's, coalesced into the same batch
/// let ranked = batch_top_k_seq(block.matrix(), &targets, 1, None, None);
/// assert_eq!(ranked[0][0].0, 0); // A matches target 0
/// assert_eq!(ranked[1][0].0, 1); // B matches target 1
/// block.clear(); // ready for the next batch, no reallocation
/// assert!(block.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct QueryBlock {
    m: ScoreMatrix,
    len: usize,
}

impl QueryBlock {
    /// An empty block of [`QUERY_BLOCK`] rows — the daemon's default
    /// coalescing width.
    pub fn new(dim: usize) -> Self {
        Self::with_capacity(QUERY_BLOCK, dim)
    }

    /// An empty block of `cap` rows (`cap ≥ 1`).
    pub fn with_capacity(cap: usize, dim: usize) -> Self {
        assert!(cap >= 1, "query block capacity must be at least 1");
        Self {
            m: ScoreMatrix::invalid(cap, dim),
            len: 0,
        }
    }

    /// Maximum number of queries one batch can hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.m.rows()
    }

    /// Queries pushed since the last [`clear`](QueryBlock::clear).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no query has been pushed yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when the block holds `capacity()` queries — time to score.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len == self.capacity()
    }

    /// Row dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.m.dim()
    }

    /// Resets the block for the next batch, keeping the allocation.
    /// All rows are re-zeroed and marked missing.
    pub fn clear(&mut self) {
        self.m.data.make_mut().fill(0.0);
        self.m.valid.make_mut().fill(0);
        self.len = 0;
    }

    /// Pushes an **already-normalized** row verbatim; returns its slot.
    /// Panics when full or on a length mismatch.
    pub fn push_unit(&mut self, row: &[f32]) -> usize {
        assert!(!self.is_full(), "query block is full");
        self.m.set_row_prenormalized(self.len, row);
        self.len += 1;
        self.len - 1
    }

    /// Pushes a raw vector, L2-normalizing it on entry; returns its slot.
    /// Panics when full or on a length mismatch.
    pub fn push_raw(&mut self, v: &[f32]) -> usize {
        assert!(!self.is_full(), "query block is full");
        self.m.set_row(self.len, v);
        self.len += 1;
        self.len - 1
    }

    /// Pushes a missing query (empty ranking); returns its slot.
    /// Panics when full.
    pub fn push_missing(&mut self) -> usize {
        assert!(!self.is_full(), "query block is full");
        self.len += 1;
        self.len - 1
    }

    /// The block as a scoring matrix: `capacity()` rows, of which the
    /// first [`len`](QueryBlock::len) are this batch's queries and the
    /// rest are missing (they rank empty and cost nothing to skip).
    #[inline]
    pub fn matrix(&self) -> &ScoreMatrix {
        &self.m
    }
}

/// `(score key, index)` entry ordering: `a` strictly better than `b`.
#[inline]
fn better(a: (i32, u32), b: (i32, u32)) -> bool {
    a.0 > b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// A score as an integer in IEEE `totalOrder`, `-0.0` made `0.0` first:
/// the IEEE order on numbers, ties included, and a NaN (only a non-finite
/// stored row scores one) above them all, or below if its sign bit is
/// set. Compared as a float, a NaN at the heap's root refused every score.
#[inline]
fn score_key(score: f32) -> i32 {
    let bits = (score + 0.0).to_bits() as i32;
    bits ^ (((bits >> 31) as u32) >> 1) as i32
}

/// The score of a [`score_key`] (the map is its own inverse).
#[inline]
fn key_score(key: i32) -> f32 {
    f32::from_bits((key ^ (((key >> 31) as u32) >> 1) as i32) as u32)
}

/// A bounded top-k accumulator: a binary max-heap *on badness*, so the
/// root is always the worst kept entry and a full push is one comparison
/// in the common (rejected) case. `O(T log k)` for a T-candidate scan,
/// with the same ordering as sort-by-score-desc / tie-break-by-index-asc
/// / truncate-at-k.
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    /// `heap[0]` is the worst kept `(score key, index)` entry.
    heap: Vec<(i32, u32)>,
}

impl TopK {
    /// An empty accumulator keeping at most `k` entries.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            heap: Vec::with_capacity(k.min(4096)),
        }
    }

    /// Drops all entries, keeping `k` and the allocation.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Entries currently kept.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing has been kept yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Offers `(idx, score)`; kept iff it beats the current worst (or the
    /// accumulator is not full). Duplicate offers are kept as duplicates,
    /// like the sort-based path did.
    #[inline]
    pub fn push(&mut self, idx: usize, score: f32) {
        let entry = (score_key(score), idx as u32);
        if self.heap.len() < self.k {
            self.heap.push(entry);
            self.sift_up(self.heap.len() - 1);
        } else if self.k > 0 && better(entry, self.heap[0]) {
            self.heap[0] = entry;
            self.sift_down();
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            // Max-heap on badness: a worse child bubbles above its parent.
            if better(self.heap[parent], self.heap[i]) {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self) {
        let n = self.heap.len();
        let mut i = 0;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut worst = i;
            if l < n && better(self.heap[worst], self.heap[l]) {
                worst = l;
            }
            if r < n && better(self.heap[worst], self.heap[r]) {
                worst = r;
            }
            if worst == i {
                break;
            }
            self.heap.swap(i, worst);
            i = worst;
        }
    }

    /// Empties the accumulator into a ranked `(index, score)` list:
    /// decreasing score as [`score_key`] orders it, ties by ascending
    /// index.
    pub fn drain_sorted(&mut self) -> Vec<(usize, f32)> {
        self.heap.sort_unstable_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        self.heap
            .drain(..)
            .map(|(key, i)| (i as usize, key_score(key)))
            .collect()
    }
}

/// Ranks the top `k` of an arbitrary `(index, score)` stream — the
/// bounded-heap replacement for collect / sort / truncate in scorers that
/// are not dot products (TF-IDF, MLP rankers, …).
pub fn select_top_k(scores: impl IntoIterator<Item = (usize, f32)>, k: usize) -> Vec<(usize, f32)> {
    let mut top = TopK::new(k);
    for (i, s) in scores {
        top.push(i, s);
    }
    top.drain_sorted()
}

/// Per-block target-row count: sized so one block of rows fits in
/// ~[`TARGET_BLOCK_BYTES`] of cache.
#[inline]
fn target_block_len(dim: usize) -> usize {
    (TARGET_BLOCK_BYTES / (dim.max(1) * std::mem::size_of::<f32>())).clamp(16, 1024)
}

/// Batch scorer over pre-normalized matrices; query `q`'s ranking lands
/// in `out[q]`.
fn score_queries_into(
    queries: &ScoreMatrix,
    targets: &ScoreMatrix,
    k: usize,
    extra: Option<&dyn Fn(usize, usize) -> f32>,
    candidates: Option<&dyn Fn(usize) -> Vec<usize>>,
    out: &mut [Vec<(usize, f32)>],
) {
    if extra.is_none() && candidates.is_none() {
        return score_dense_into(queries, targets, k, out);
    }
    let mut top = TopK::new(k);
    for (q, slot) in out.iter_mut().enumerate() {
        if !queries.is_valid(q) {
            continue; // missing query ⇒ empty ranking
        }
        let qrow = queries.row(q);
        top.clear();
        let mut offer = |t: usize| {
            let base = if targets.is_valid(t) {
                dot_unrolled(qrow, targets.row(t))
            } else {
                -1.0
            };
            let score = match extra {
                Some(f) => (base + f(q, t)) / 2.0,
                None => base,
            };
            top.push(t, score);
        };
        match candidates {
            Some(f) => {
                for t in f(q) {
                    offer(t);
                }
            }
            None => {
                for t in 0..targets.rows() {
                    offer(t);
                }
            }
        }
        *slot = top.drain_sorted();
    }
}

/// The tiled hot path (no candidate hook, no score combination): query blocks ×
/// target blocks, so each cache-resident target block is scored against
/// up to [`QUERY_BLOCK`] queries before the next block streams in.
///
/// A tile is filled four target rows at a time through
/// [`dot_unrolled4`] when all four are present, and row by row through
/// [`dot_unrolled`] otherwise and for the tile's last `len % 4` rows.
/// Both kernels give the same bits, so which rows go four at a time
/// never moves a score; the root `tests/scan_bits.rs` pins the scan at
/// the edges (lane remainders, tile ends, missing rows inside a group).
fn score_dense_into(
    queries: &ScoreMatrix,
    targets: &ScoreMatrix,
    k: usize,
    out: &mut [Vec<(usize, f32)>],
) {
    let t_rows = targets.rows();
    let dim = targets.dim();
    let (data, valid) = (&targets.data[..], &targets.valid[..]);
    let row = |t: usize| &data[t * dim..(t + 1) * dim];
    let is_valid = |t: usize| (valid[t / 64] >> (t % 64)) & 1 == 1;
    let block = target_block_len(dim);
    let mut scores = vec![0.0f32; block.min(t_rows.max(1))];
    let mut tops: Vec<TopK> = (0..QUERY_BLOCK.min(out.len())).map(|_| TopK::new(k)).collect();

    let mut qb = 0;
    while qb < out.len() {
        let qe = (qb + QUERY_BLOCK).min(out.len());
        for top in &mut tops[..qe - qb] {
            top.clear();
        }
        let mut tb = 0;
        while tb < t_rows {
            let te = (tb + block).min(t_rows);
            for (qi, top) in tops[..qe - qb].iter_mut().enumerate() {
                let q = qb + qi;
                if !queries.is_valid(q) {
                    continue;
                }
                let qrow = queries.row(q);
                let tile = &mut scores[..te - tb];
                // Fill the score tile, then feed the heap. The validity
                // branch is per-row (well-predicted) and must gate the
                // dot itself: an invalid row may belong to a matrix whose
                // inferred dim is 0 (every row missing), where a dot
                // against a nonzero-dim query would be a length mismatch.
                // A group only takes the four-row kernel when it is a
                // full four rows and every one of them is valid.
                for (s, t) in tile.chunks_mut(4).zip((tb..).step_by(4)) {
                    if s.len() == 4 && (t..t + 4).all(is_valid) {
                        let rows = [row(t), row(t + 1), row(t + 2), row(t + 3)];
                        s.copy_from_slice(&dot_unrolled4(qrow, rows));
                        continue;
                    }
                    for (s, t) in s.iter_mut().zip(t..) {
                        *s = if is_valid(t) { dot_unrolled(qrow, row(t)) } else { -1.0 };
                    }
                }
                for (j, &s) in tile.iter().enumerate() {
                    top.push(tb + j, s);
                }
            }
            tb = te;
        }
        for (qi, top) in tops[..qe - qb].iter_mut().enumerate() {
            if queries.is_valid(qb + qi) {
                out[qb + qi] = top.drain_sorted();
            }
        }
        qb = qe;
    }
}

/// Batch top-k: for every query row, the `k` best targets by
/// normalized dot product (= cosine of the original vectors), with the
/// missing-row and ranking semantics described in the [module
/// docs](self). `extra`, when given, is averaged with the base score over
/// the full candidate pool; `candidates` restricts scoring per query to
/// the indices it returns (how an ANN pool is rescored exactly).
pub fn batch_top_k_seq(
    queries: &ScoreMatrix,
    targets: &ScoreMatrix,
    k: usize,
    extra: Option<&dyn Fn(usize, usize) -> f32>,
    candidates: Option<&dyn Fn(usize) -> Vec<usize>>,
) -> Vec<Vec<(usize, f32)>> {
    let mut out = vec![Vec::new(); queries.rows()];
    score_queries_into(queries, targets, k, extra, candidates, &mut out);
    out
}

/// Reference scorer for one query against optional target rows — the
/// legacy cosine-per-pair path, kept as the property-test oracle.
#[doc(hidden)]
pub fn naive_rank(
    query: &[f32],
    targets: &[Option<Vec<f32>>],
    k: usize,
) -> Vec<(usize, f32)> {
    let mut scored: Vec<(usize, f32)> = targets
        .iter()
        .enumerate()
        .map(|(t, tv)| (t, tv.as_ref().map_or(-1.0, |tv| cosine(query, tv))))
        .collect();
    scored.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    scored.truncate(k);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: f32, y: f32) -> Option<Vec<f32>> {
        Some(vec![x, y])
    }

    #[test]
    fn dot_unrolled_matches_naive() {
        for len in [0usize, 1, 3, 7, 8, 9, 16, 31, 64, 100] {
            let a: Vec<f32> = (0..len).map(|i| (i as f32 * 0.7).sin()).collect();
            let b: Vec<f32> = (0..len).map(|i| (i as f32 * 1.3).cos()).collect();
            let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let fast = dot_unrolled(&a, &b);
            assert!((naive - fast).abs() < 1e-4, "len {len}: {naive} vs {fast}");
        }
    }

    #[test]
    fn matrix_normalizes_and_tracks_validity() {
        let rows = vec![v(3.0, 4.0), None, v(0.0, 0.0)];
        let m = ScoreMatrix::from_options(&rows);
        assert_eq!((m.rows(), m.dim()), (3, 2));
        assert_eq!(m.valid_rows(), 2);
        assert!(m.is_valid(0) && !m.is_valid(1) && m.is_valid(2));
        assert!((m.row(0)[0] - 0.6).abs() < 1e-6 && (m.row(0)[1] - 0.8).abs() < 1e-6);
        assert_eq!(m.row(1), &[0.0, 0.0]); // invalid rows are zeroed
        assert_eq!(m.row(2), &[0.0, 0.0]); // zero rows stay zero
    }

    #[test]
    fn all_missing_matrix_has_zero_dim() {
        let m = ScoreMatrix::from_options(&[None, None]);
        assert_eq!((m.rows(), m.dim(), m.valid_rows()), (2, 0, 0));
    }

    #[test]
    fn all_missing_targets_rank_by_index_without_dotting() {
        // Regression: an all-None target side infers dim 0; the dense
        // tile path must not dot a dim-0 row against a dim-2 query.
        let qm = ScoreMatrix::from_options(&[v(1.0, 0.0)]);
        let tm = ScoreMatrix::from_options(&[None, None]);
        let got = batch_top_k_seq(&qm, &tm, 5, None, None);
        assert_eq!(got[0], vec![(0, -1.0), (1, -1.0)]);
    }

    #[test]
    fn top_k_keeps_best_with_index_tiebreak() {
        let mut top = TopK::new(3);
        for (i, s) in [(0, 0.5), (1, 0.9), (2, 0.5), (3, 0.1), (4, 0.9)] {
            top.push(i, s);
        }
        // 0.9@1, 0.9@4, then the 0.5 tie keeps the lower index 0.
        assert_eq!(top.drain_sorted(), vec![(1, 0.9), (4, 0.9), (0, 0.5)]);
    }

    #[test]
    fn top_k_zero_capacity_keeps_nothing() {
        let mut top = TopK::new(0);
        top.push(0, 1.0);
        assert!(top.drain_sorted().is_empty());
    }

    #[test]
    fn negative_zero_ties_break_by_index() {
        let mut top = TopK::new(2);
        top.push(0, -0.0);
        top.push(1, 0.0);
        top.push(2, 0.0);
        assert_eq!(top.drain_sorted(), vec![(0, 0.0), (1, 0.0)]);
    }

    /// Regression: a NaN kept first compared false against every later
    /// score, so at the heap's root it refused them all, and the ranking
    /// kept whatever came before it.
    #[test]
    fn a_nan_at_the_root_does_not_refuse_later_scores() {
        let mut top = TopK::new(3);
        for (i, s) in [(0, f32::NAN), (1, 0.1), (2, 0.2), (3, 0.9), (4, 0.5), (5, -f32::NAN)] {
            top.push(i, s);
        }
        let ranked = top.drain_sorted();
        assert!(ranked[0].0 == 0 && ranked[0].1.is_nan());
        assert_eq!(ranked[1..], [(3, 0.9), (4, 0.5)]);
    }

    #[test]
    fn select_top_k_equals_sort_truncate() {
        let scores: Vec<(usize, f32)> =
            (0..50).map(|i| (i, ((i * 37) % 11) as f32 / 11.0)).collect();
        let mut sorted = scores.clone();
        sorted.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap()
                .then_with(|| a.0.cmp(&b.0))
        });
        sorted.truncate(7);
        assert_eq!(select_top_k(scores, 7), sorted);
    }

    /// Regression: a NaN score — a non-finite row in a CRC-valid file —
    /// made the final sort's comparator inconsistent, and the sort
    /// panicked. NaN now ranks above every number.
    #[test]
    fn nan_scores_rank_without_panicking() {
        let scores: Vec<(usize, f32)> = (0..40)
            .map(|i| (i, if i % 3 == 0 { f32::NAN } else { ((i * 7) % 13) as f32 / 13.0 }))
            .collect();
        let ranked = select_top_k(scores, 40);
        let ids: std::collections::BTreeSet<usize> = ranked.iter().map(|&(i, _)| i).collect();
        assert_eq!(ids.len(), 40);
        assert!(ranked[..14].iter().all(|&(_, s)| s.is_nan()));
        assert!(ranked[14..].windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn batch_matches_naive_oracle() {
        let queries: Vec<Option<Vec<f32>>> = (0..13)
            .map(|i| {
                if i % 5 == 4 {
                    None
                } else {
                    Some(vec![(i as f32 * 0.7).cos(), (i as f32 * 0.7).sin(), 0.3])
                }
            })
            .collect();
        let targets: Vec<Option<Vec<f32>>> = (0..37)
            .map(|i| {
                if i % 7 == 3 {
                    None
                } else {
                    Some(vec![(i as f32 * 1.3).cos(), (i as f32 * 1.3).sin(), -0.2])
                }
            })
            .collect();
        let qm = ScoreMatrix::from_options(&queries);
        let tm = ScoreMatrix::from_options(&targets);
        for k in [0usize, 1, 5, 37, 64] {
            let got = batch_top_k_seq(&qm, &tm, k, None, None);
            for (q, ranked) in got.iter().enumerate() {
                match &queries[q] {
                    None => assert!(ranked.is_empty()),
                    Some(qv) => {
                        let want = naive_rank(qv, &targets, k);
                        let got_idx: Vec<usize> = ranked.iter().map(|&(t, _)| t).collect();
                        let want_idx: Vec<usize> = want.iter().map(|&(t, _)| t).collect();
                        assert_eq!(got_idx, want_idx, "q={q} k={k}");
                        for (g, w) in ranked.iter().zip(&want) {
                            assert!((g.1 - w.1).abs() < 1e-5);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn matrix_roundtrips_through_container_zero_copy() {
        let rows: Vec<Option<Vec<f32>>> = (0..70)
            .map(|i| {
                if i % 9 == 5 {
                    None
                } else {
                    Some(vec![(i as f32).sin(), (i as f32).cos(), 0.1 * i as f32])
                }
            })
            .collect();
        let m = ScoreMatrix::from_options(&rows);
        let mut w = ContainerWriter::new();
        m.write_sections(3, &mut w);
        let storage = Storage::from_bytes(&w.finish());
        let c = storage.container().unwrap();
        let loaded = ScoreMatrix::from_sections(&storage, &c, 3).unwrap();
        assert!(loaded.is_zero_copy());
        assert_eq!(m, loaded);
        // Missing slot is an error, not a panic.
        assert!(ScoreMatrix::from_sections(&storage, &c, 4).is_err());
        // Rankings from the loaded matrix are bit-identical.
        assert_eq!(
            batch_top_k_seq(&m, &m, 7, None, None),
            batch_top_k_seq(&loaded, &loaded, 7, None, None),
        );
        // A mutated copy detaches from storage without touching the view.
        let mut cow = loaded.clone();
        cow.set_row(5, &[1.0, 0.0, 0.0]);
        assert!(!cow.is_zero_copy());
        assert!(loaded.is_zero_copy());
        assert_ne!(m.row(5), cow.row(5));
        let owned = loaded.clone().into_owned();
        assert!(!owned.is_zero_copy());
        assert_eq!(m, owned);
    }

    #[test]
    fn prenormalized_rows_install_verbatim() {
        let src = ScoreMatrix::from_options(&[v(3.0, 4.0)]);
        let mut dst = ScoreMatrix::invalid(1, 2);
        dst.set_row_prenormalized(0, src.row(0));
        assert!(dst.is_valid(0));
        // Bit-for-bit: no second normalization happened.
        for (a, b) in src.row(0).iter().zip(dst.row(0)) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn query_block_batches_score_bit_identical_to_direct_rows() {
        let queries: Vec<Option<Vec<f32>>> = (0..5)
            .map(|i| v((i as f32 * 0.7).cos(), (i as f32 * 0.7).sin()))
            .collect();
        let targets: Vec<Option<Vec<f32>>> = (0..29)
            .map(|i| {
                if i % 7 == 3 {
                    None
                } else {
                    v((i as f32 * 1.3).cos(), (i as f32 * 1.3).sin())
                }
            })
            .collect();
        let qm = ScoreMatrix::from_options(&queries);
        let tm = ScoreMatrix::from_options(&targets);
        let direct = batch_top_k_seq(&qm, &tm, 4, None, None);

        // Gather the same queries through a reused block, two batches.
        let mut block = QueryBlock::with_capacity(3, 2);
        let mut gathered: Vec<Vec<(usize, f32)>> = Vec::new();
        for chunk in (0..qm.rows()).collect::<Vec<_>>().chunks(block.capacity()) {
            block.clear();
            for &q in chunk {
                block.push_unit(qm.row(q));
            }
            let ranked = batch_top_k_seq(block.matrix(), &tm, 4, None, None);
            gathered.extend(ranked.into_iter().take(chunk.len()));
        }
        assert_eq!(gathered.len(), direct.len());
        for (g, d) in gathered.iter().zip(&direct) {
            assert_eq!(g.len(), d.len());
            for (a, b) in g.iter().zip(d) {
                assert_eq!(a.0, b.0);
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "scores must be bit-identical");
            }
        }
    }

    #[test]
    fn query_block_missing_and_unused_slots_rank_empty() {
        let tm = ScoreMatrix::from_options(&[v(1.0, 0.0)]);
        let mut block = QueryBlock::new(2);
        assert_eq!(block.capacity(), QUERY_BLOCK);
        block.push_raw(&[1.0, 0.0]);
        block.push_missing();
        assert_eq!(block.len(), 2);
        let ranked = batch_top_k_seq(block.matrix(), &tm, 3, None, None);
        assert_eq!(ranked.len(), QUERY_BLOCK);
        assert_eq!(ranked[0], vec![(0, 1.0)]);
        assert!(ranked[1].is_empty()); // pushed missing
        assert!(ranked[2..].iter().all(Vec::is_empty)); // never pushed
        // Clearing re-arms every slot.
        block.clear();
        assert!(block.is_empty() && !block.is_full());
        assert_eq!(block.matrix().valid_rows(), 0);
    }

    #[test]
    fn grow_rows_carries_bits_and_new_rows_start_invalid() {
        let m0 = ScoreMatrix::from_options(&(0..70).map(|i| v(i as f32, 1.0)).collect::<Vec<_>>());
        let mut m = m0.clone();
        m.grow_rows(131); // crosses a bitmap-word boundary
        assert_eq!((m.rows(), m.dim()), (131, 2));
        assert_eq!(m.valid_rows(), 70);
        for i in 0..70 {
            assert!(m.is_valid(i));
            for (a, b) in m0.row(i).iter().zip(m.row(i)) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        for i in 70..131 {
            assert!(!m.is_valid(i));
            assert_eq!(m.row(i), &[0.0, 0.0]);
        }
        // Growing a zero-copy matrix detaches it first.
        let mut w = ContainerWriter::new();
        m0.write_sections(0, &mut w);
        let storage = Storage::from_bytes(&w.finish());
        let c = storage.container().unwrap();
        let mut mapped = ScoreMatrix::from_sections(&storage, &c, 0).unwrap();
        assert!(mapped.is_zero_copy());
        mapped.grow_rows(71);
        assert!(!mapped.is_zero_copy());
        assert_eq!(mapped.valid_rows(), 70);
    }

    #[test]
    fn invalid_rows_equals_the_per_row_filter() {
        let mut state = 0x1D_5EEDu64;
        let mut coin = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 63 == 1
        };
        for rows in [0usize, 1, 63, 64, 65, 200] {
            let all_valid = vec![true; rows];
            let all_invalid = vec![false; rows];
            let random: Vec<bool> = (0..rows).map(|_| coin()).collect();
            for present in [all_valid, all_invalid, random] {
                let mut m = ScoreMatrix::invalid(rows, 2);
                for (i, _) in present.iter().enumerate().filter(|(_, &p)| p) {
                    m.set_row(i, &[1.0, i as f32]);
                }
                let expected: Vec<usize> = (0..rows).filter(|&i| !m.is_valid(i)).collect();
                assert_eq!(m.invalid_rows().collect::<Vec<_>>(), expected, "rows {rows}");
                assert_eq!(expected.len(), rows - m.valid_rows());
            }
        }
    }

    #[test]
    fn clear_row_tombstones_to_missing_semantics() {
        let mut tm = ScoreMatrix::from_options(&[v(1.0, 0.0), v(0.0, 1.0)]);
        tm.clear_row(0);
        assert!(!tm.is_valid(0) && tm.is_valid(1));
        assert_eq!(tm.row(0), &[0.0, 0.0]);
        let qm = ScoreMatrix::from_options(&[v(1.0, 0.0)]);
        let got = batch_top_k_seq(&qm, &tm, 2, None, None);
        // The cleared row ranks last at exactly -1.0, like a missing target.
        assert_eq!(got[0], vec![(1, 0.0), (0, -1.0)]);
    }

    #[test]
    fn extra_score_averages_and_missing_target_ranks_last() {
        let queries = vec![v(1.0, 0.0)];
        let targets = vec![None, v(1.0, 0.0)];
        let qm = ScoreMatrix::from_options(&queries);
        let tm = ScoreMatrix::from_options(&targets);
        let extra = |_q: usize, _t: usize| 1.0f32;
        let got = batch_top_k_seq(&qm, &tm, 2, Some(&extra), None);
        // Target 1: (1 + 1)/2 = 1; target 0 (missing): (-1 + 1)/2 = 0.
        assert_eq!(got[0][0], (1, 1.0));
        assert_eq!(got[0][1], (0, 0.0));
    }
}
