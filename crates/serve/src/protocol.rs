//! The wire protocol: length-prefixed JSON frames over a byte stream.
//!
//! Full operator-facing specification in `docs/SERVING.md`; this module
//! is the single implementation both ends share (daemon, client, tests).
//!
//! # Framing
//!
//! ```text
//! +----------------+---------------------------+
//! | length u32 LE  | payload (length bytes)    |
//! +----------------+---------------------------+
//! ```
//!
//! The payload is one UTF-8 JSON object, conventionally terminated by a
//! newline (writers append it, parsers ignore surrounding whitespace) so
//! captured traffic reads as JSON-lines. A length of zero or above
//! [`MAX_FRAME`] is a framing error; the receiver reports
//! [`ErrorCode::Oversized`] / [`ErrorCode::BadFrame`] and closes the
//! connection, since the stream can no longer be trusted.
//!
//! # Payloads
//!
//! Encoders stream through [`json::Writer`] and decoders pull through
//! [`json::Reader`]; no JSON tree is built either way.
//! Members are written in key order, so the bytes are the ones the tree
//! would print. A decoder accepts members in any order (the last
//! duplicate of a key wins), skips unknown members after checking their
//! syntax, and reads the whole document before judging its shape: any
//! syntax error is [`ErrorCode::BadJson`] with id 0, whatever else is
//! wrong with the message.
//!
//! # Score fidelity
//!
//! Scores are `f32`s widened to `f64` before encoding (exact) and
//! printed shortest-round-trip, so a client narrowing them back to
//! `f32` recovers the server's scores **bit-for-bit** — the protocol
//! never degrades the engine's bit-identical batching guarantee.

use std::io::{self, Read, Write};

use crate::json::{self, ParseError, Reader, Writer};

/// Hard ceiling on a frame's payload size (1 MiB). A `query_vector`
/// request for the largest supported artifact dim fits comfortably;
/// anything bigger is hostile or a desynchronized stream.
pub const MAX_FRAME: u32 = 1 << 20;

/// Default `k` when a query request omits it.
pub const DEFAULT_K: usize = 5;

/// Request ids must stay below 2^53, where JSON numbers stop being
/// exact integers; a request whose id is a number at or above it is
/// answered `bad_request` with id 0 rather than echoed rounded.
pub const ID_LIMIT: u64 = 1 << 53;

/// Machine-readable failure classes, carried in the `code` field of
/// error responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame itself was unreadable (truncated payload, zero length).
    BadFrame,
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized,
    /// The payload is not valid JSON.
    BadJson,
    /// The payload is JSON but not a valid request (missing/ill-typed
    /// fields).
    BadRequest,
    /// The `op` field names no known operation.
    UnknownOp,
    /// A `query_id` document index at or beyond the query corpus.
    UnknownId,
    /// A `query_vector` vector whose length is not the artifact dim, or
    /// whose squared norm is not a finite `f32` (an element beyond
    /// `f32`'s range decodes to infinity).
    BadVector,
    /// The daemon is draining and no longer accepts queries.
    ShuttingDown,
    /// The daemon is at its max-inflight limit and shed this request
    /// instead of queueing it. **Retryable**: back off and resend —
    /// [`Client`](crate::client::Client) does so automatically when
    /// given a retry policy.
    Overloaded,
    /// A `reload` request found no loadable artifact (no `--artifact`
    /// path, or the file is missing/torn/corrupt). The daemon keeps
    /// serving the previous snapshot.
    ReloadFailed,
}

impl ErrorCode {
    /// The wire spelling of this code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadFrame => "bad_frame",
            ErrorCode::Oversized => "oversized",
            ErrorCode::BadJson => "bad_json",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownOp => "unknown_op",
            ErrorCode::UnknownId => "unknown_id",
            ErrorCode::BadVector => "bad_vector",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ReloadFailed => "reload_failed",
        }
    }

    /// True when resending the same request later may succeed without
    /// any operator action — the client retry policy's gate.
    pub fn is_retryable(self) -> bool {
        matches!(self, ErrorCode::Overloaded | ErrorCode::ShuttingDown)
    }

    /// Parses the wire spelling.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "bad_frame" => ErrorCode::BadFrame,
            "oversized" => ErrorCode::Oversized,
            "bad_json" => ErrorCode::BadJson,
            "bad_request" => ErrorCode::BadRequest,
            "unknown_op" => ErrorCode::UnknownOp,
            "unknown_id" => ErrorCode::UnknownId,
            "bad_vector" => ErrorCode::BadVector,
            "shutting_down" => ErrorCode::ShuttingDown,
            "overloaded" => ErrorCode::Overloaded,
            "reload_failed" => ErrorCode::ReloadFailed,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What a client asks the daemon to do.
///
/// The three query operations carry an optional `ann` flag: `Some(true)`
/// requests ANN retrieval (widened pool + exact rerank), `Some(false)`
/// forces the exact scan, and `None` defers to the daemon's configured
/// default (`tdmatch serve --ann`). Daemons serving an artifact without
/// an index always scan exactly, whatever the flag says.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Rank targets for query-corpus document `doc`.
    QueryId {
        /// Index into the artifact's query (second) corpus.
        doc: usize,
        /// How many ranked targets to return.
        k: usize,
        /// Per-request retrieval mode override (`None` = daemon default).
        ann: Option<bool>,
    },
    /// Tokenize + embed `text` server-side, then rank targets.
    QueryText {
        /// Raw query text (pre-processed with the standard tokenizer).
        text: String,
        /// How many ranked targets to return.
        k: usize,
        /// Per-request retrieval mode override (`None` = daemon default).
        ann: Option<bool>,
    },
    /// Rank targets for a raw (un-normalized) embedding vector.
    QueryVector {
        /// The vector; must have the artifact's dimensionality.
        vector: Vec<f32>,
        /// How many ranked targets to return.
        k: usize,
        /// Per-request retrieval mode override (`None` = daemon default).
        ann: Option<bool>,
    },
    /// Liveness probe.
    Ping,
    /// Request a [`StatsSnapshot`].
    Stats,
    /// Ask the daemon to hot-swap in the artifact currently at its
    /// configured path (rename-to-publish makes that path always a
    /// complete snapshot). In-flight queries finish against the old
    /// snapshot; a failed load keeps the old snapshot serving.
    Reload,
    /// Ask the daemon to drain and exit.
    Shutdown,
}

/// One request frame: a client-chosen correlation id plus the body.
/// The id is echoed verbatim in the response.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id (0 if omitted). Must stay below
    /// [`ID_LIMIT`] (2^53): ids travel as JSON numbers, so larger values
    /// lose precision in any standards-conforming peer, and the daemon
    /// refuses them.
    pub id: u64,
    /// The operation.
    pub body: RequestBody,
}

/// Aggregate serving counters, as returned by [`RequestBody::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StatsSnapshot {
    /// Query requests answered (all kinds, including error answers).
    pub requests: u64,
    /// Queries that went through the batch queue.
    pub batched_requests: u64,
    /// Scoring batches executed.
    pub batches: u64,
    /// Requests that shared their batch with at least one other request.
    pub coalesced: u64,
    /// Error responses sent.
    pub errors: u64,
    /// Largest batch executed.
    pub max_batch: u64,
    /// Requests shed with `overloaded` at the max-inflight limit.
    pub shed: u64,
    /// Connections evicted for stalling past the I/O deadline.
    pub evicted: u64,
    /// Successful hot swaps since startup.
    pub reloads: u64,
    /// Reload attempts that failed (old snapshot kept serving).
    pub reload_failures: u64,
    /// Snapshot generation currently serving (counts successful swaps).
    pub generation: u64,
    /// Queries whose candidates came from the ANN index.
    pub ann_queries: u64,
    /// Queries answered by the exact full scan.
    pub exact_queries: u64,
    /// Total candidates offered to the exact rescorer by ANN queries
    /// (divide by `ann_queries` for the mean pool — see
    /// [`mean_pool`](StatsSnapshot::mean_pool)).
    pub pooled: u64,
    /// Worker threads the daemon runs with (configured workers).
    pub workers: u64,
    /// Engine calls executed: one per retrieval-mode partition of a
    /// batch that had anything to score.
    pub shards: u64,
    /// Admitted-but-unanswered queries right now (gauge, not a
    /// counter): queued plus being scored plus awaiting their response
    /// write. The `max_inflight` admission budget is enforced against
    /// exactly this number.
    pub inflight: u64,
    /// Queries waiting in the batch queue for a worker right now
    /// (gauge).
    pub queue_depth: u64,
    /// Seconds since the daemon started.
    pub uptime_secs: f64,
}

impl StatsSnapshot {
    /// Mean queries per executed batch (0 when nothing ran yet).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }

    /// Mean exact-rescored candidates per ANN query (0 when no query
    /// has pooled through the index yet).
    pub fn mean_pool(&self) -> f64 {
        if self.ann_queries == 0 {
            0.0
        } else {
            self.pooled as f64 / self.ann_queries as f64
        }
    }
}

/// What the daemon answers.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// A ranked answer to any `query_*` request.
    Matches {
        /// `(target index, score)` by decreasing score.
        matches: Vec<(usize, f32)>,
        /// Number of queries coalesced into the scoring call that
        /// answered this request (0 when answered without scoring, e.g.
        /// a text query with no known token).
        batch: usize,
    },
    /// Answer to `ping`.
    Pong,
    /// Answer to `stats`.
    Stats(StatsSnapshot),
    /// Answer to a successful `reload`: the generation now serving.
    Reloaded {
        /// Snapshot generation after the swap.
        generation: u64,
    },
    /// Acknowledgement of `shutdown`; the daemon drains and exits.
    Stopping,
    /// The request failed.
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-oriented detail.
        message: String,
    },
}

/// One response frame: the echoed request id plus the body.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's correlation id (0 when the request was unreadable).
    pub id: u64,
    /// The answer.
    pub body: ResponseBody,
}

impl Response {
    /// Shorthand for an error response.
    pub fn error(id: u64, code: ErrorCode, message: impl Into<String>) -> Self {
        Response {
            id,
            body: ResponseBody::Error {
                code,
                message: message.into(),
            },
        }
    }
}

/// Why a frame could not be read off the stream.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The length prefix exceeds [`MAX_FRAME`] (or is zero).
    Oversized {
        /// The length the prefix claimed.
        len: u32,
    },
    /// The stream ended mid-frame.
    Truncated,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "I/O error: {e}"),
            FrameError::Oversized { len } => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte limit")
            }
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Reads one frame's payload. `Ok(None)` is a clean end-of-stream (the
/// peer closed between frames); ending *inside* a frame is
/// [`FrameError::Truncated`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, FrameError> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(prefix);
    if len == 0 || len > MAX_FRAME {
        return Err(FrameError::Oversized { len });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e)
        }
    })?;
    Ok(Some(payload))
}

/// A *resumable* frame decoder for sockets with read deadlines.
///
/// [`read_frame`] assumes a blocking reader: a timeout mid-prefix would
/// lose the bytes already consumed and desynchronize the stream.
/// `FrameReader` keeps the partial state across calls instead, so a
/// server can read with `SO_RCVTIMEO` armed and distinguish the two
/// timeout cases:
///
/// * timeout **between** frames ([`in_frame`](FrameReader::in_frame) is
///   `false`) — an idle client; keep waiting;
/// * timeout **inside** a frame (`in_frame` is `true`) — a stalled or
///   half-dead client holding a reader thread hostage; evict it.
///
/// A successful [`next`](FrameReader::next) resets the state for the
/// following frame. Timeouts surface as [`FrameError::Io`] with kind
/// `WouldBlock` or `TimedOut` (platforms differ); every other error is
/// terminal exactly as with [`read_frame`].
#[derive(Debug, Default)]
pub struct FrameReader {
    prefix: [u8; 4],
    prefix_got: usize,
    payload: Vec<u8>,
    payload_got: usize,
}

impl FrameReader {
    /// A decoder at a frame boundary.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when some bytes of the current frame have been consumed but
    /// the frame is not complete — the eviction signal on timeout.
    pub fn in_frame(&self) -> bool {
        self.prefix_got > 0
    }

    /// Reads (or resumes reading) one frame. Same contract as
    /// [`read_frame`], except that `WouldBlock`/`TimedOut` I/O errors
    /// leave the decoder resumable: call `next` again to continue the
    /// same frame.
    pub fn next<R: Read>(&mut self, r: &mut R) -> Result<Option<Vec<u8>>, FrameError> {
        self.next_with(r, || {})
    }

    /// Like [`next`](FrameReader::next), but invokes `on_frame_start`
    /// exactly once per frame, when its first byte is consumed — the
    /// earliest moment the peer is known to have a request in flight.
    /// The hook does not re-fire when a `WouldBlock` interruption is
    /// resumed mid-frame. The server uses it to signal batching intent
    /// ([`BatchQueue::begin_intent`](crate::batch::BatchQueue::begin_intent))
    /// before the frame completes, so the coalescing window waits for
    /// requests that are demonstrably on their way and for nothing else.
    pub fn next_with<R: Read, F: FnMut()>(
        &mut self,
        r: &mut R,
        mut on_frame_start: F,
    ) -> Result<Option<Vec<u8>>, FrameError> {
        while self.prefix_got < 4 {
            match r.read(&mut self.prefix[self.prefix_got..]) {
                Ok(0) if self.prefix_got == 0 => return Ok(None),
                Ok(0) => return Err(FrameError::Truncated),
                Ok(n) => {
                    if self.prefix_got == 0 {
                        on_frame_start();
                    }
                    self.prefix_got += n;
                    if self.prefix_got == 4 {
                        let len = u32::from_le_bytes(self.prefix);
                        if len == 0 || len > MAX_FRAME {
                            return Err(FrameError::Oversized { len });
                        }
                        self.payload = vec![0u8; len as usize];
                        self.payload_got = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        while self.payload_got < self.payload.len() {
            match r.read(&mut self.payload[self.payload_got..]) {
                Ok(0) => return Err(FrameError::Truncated),
                Ok(n) => self.payload_got += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        self.prefix_got = 0;
        Ok(Some(std::mem::take(&mut self.payload)))
    }
}

/// Writes one frame: length prefix, the JSON text, a closing newline
/// (included in the length).
///
/// The frame is assembled in one buffer and handed over in a single
/// `write_all`: on an unbuffered socket, separate writes for prefix,
/// text and newline can each wake the peer's blocked reader. A frame
/// whose payload would exceed [`MAX_FRAME`] is refused with
/// `InvalidInput` before any byte is written, so the stream stays in
/// sync — the peer would reject it and lose its place.
pub fn write_frame<W: Write>(w: &mut W, json_text: &str) -> io::Result<()> {
    let len = json_text.len() + 1; // + trailing newline
    if len > MAX_FRAME as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"),
        ));
    }
    let mut frame = Vec::with_capacity(4 + len);
    frame.extend_from_slice(&(len as u32).to_le_bytes());
    frame.extend_from_slice(json_text.as_bytes());
    frame.push(b'\n');
    w.write_all(&frame)?;
    w.flush()
}

/// A payload that parsed as JSON but is not a valid message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MalformedMessage {
    /// The closest protocol error class ([`ErrorCode::BadJson`],
    /// [`ErrorCode::BadRequest`] or [`ErrorCode::UnknownOp`]).
    pub code: ErrorCode,
    /// The request id, when one could still be extracted (so the error
    /// response can be correlated).
    pub id: u64,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for MalformedMessage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for MalformedMessage {}

fn malformed(code: ErrorCode, id: u64, message: impl Into<String>) -> MalformedMessage {
    MalformedMessage {
        code,
        id,
        message: message.into(),
    }
}

/// Reads a whole payload with `read`, then checks that nothing follows
/// the document. Any syntax error anywhere is `bad_json` with id 0, so a
/// decoder makes no shape decision before the whole document is read.
fn read_payload<'a>(
    payload: &'a [u8],
    read: impl FnOnce(&mut Reader<'a>) -> Result<bool, ParseError>,
) -> Result<bool, MalformedMessage> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| malformed(ErrorCode::BadJson, 0, "payload is not UTF-8"))?;
    let mut r = Reader::new(text);
    read(&mut r)
        .and_then(|read_obj| r.end().map(|()| read_obj))
        .map_err(|e| malformed(ErrorCode::BadJson, 0, e.to_string()))
}

/// A `vector` member: `None` when it is not an array, `Some(None)` when
/// an element is not a number.
fn read_vector(r: &mut Reader) -> Result<Option<Option<Vec<f32>>>, ParseError> {
    let mut vector = Some(Vec::new());
    let read_arr = r.arr(|r| {
        match (r.num()?, &mut vector) {
            (Some(x), Some(v)) => v.push(x as f32),
            (None, _) => vector = None,
            (Some(_), None) => {}
        }
        Ok(())
    })?;
    Ok(read_arr.then_some(vector))
}

/// A ranking as read, or what is wrong with its first bad entry.
type Ranking = Result<Vec<(usize, f32)>, &'static str>;

/// A `matches` member: `None` when it is not an array.
fn read_matches(r: &mut Reader) -> Result<Option<Ranking>, ParseError> {
    let mut matches = Ok(Vec::new());
    let read_arr = r.arr(|r| {
        let (mut len, mut target, mut score) = (0, None, None);
        let pair = r.arr(|r| {
            match len {
                0 => target = r.num()?,
                1 => score = r.num()?,
                _ => r.skip()?,
            }
            len += 1;
            Ok(())
        })?;
        let entry = match (target.and_then(json::as_usize), score) {
            _ if !pair || len != 2 => Err("matches entries must be [target, score] pairs"),
            (None, _) => Err("bad target index"),
            (_, None) => Err("bad score"),
            (Some(t), Some(s)) => Ok((t, s as f32)),
        };
        if let Ok(list) = &mut matches {
            match entry {
                Ok(entry) => list.push(entry),
                Err(why) => matches = Err(why),
            }
        }
        Ok(())
    })?;
    Ok(read_arr.then_some(matches))
}

impl Request {
    /// Encodes to the wire JSON text.
    pub fn encode(&self) -> String {
        let (op, k, ann) = match &self.body {
            RequestBody::QueryId { k, ann, .. } => ("query_id", Some(*k), *ann),
            RequestBody::QueryText { k, ann, .. } => ("query_text", Some(*k), *ann),
            RequestBody::QueryVector { k, ann, .. } => ("query_vector", Some(*k), *ann),
            RequestBody::Ping => ("ping", None, None),
            RequestBody::Stats => ("stats", None, None),
            RequestBody::Reload => ("reload", None, None),
            RequestBody::Shutdown => ("shutdown", None, None),
        };
        let mut out = String::with_capacity(64);
        // Members in key order: ann, doc, id, k, op, text, vector.
        Writer::new(&mut out).obj(|w| {
            if let Some(ann) = ann {
                w.key("ann").bool(ann);
            }
            if let RequestBody::QueryId { doc, .. } = &self.body {
                w.key("doc").num(*doc as f64);
            }
            w.key("id").num(self.id as f64);
            if let Some(k) = k {
                w.key("k").num(k as f64);
            }
            w.key("op").str(op);
            match &self.body {
                RequestBody::QueryText { text, .. } => w.key("text").str(text),
                RequestBody::QueryVector { vector, .. } => w
                    .key("vector")
                    .arr(|w| vector.iter().for_each(|&x| w.num(x as f64))),
                _ => {}
            }
        });
        out
    }

    /// Decodes a request payload. On failure the error carries the best
    /// available correlation id and the protocol error class to answer
    /// with.
    pub fn decode(payload: &[u8]) -> Result<Self, MalformedMessage> {
        // Every member is read first (the last duplicate of a key wins,
        // unknown members are skipped); the shape is judged after.
        let (mut id, mut op, mut doc, mut text) = (None, None, None, None);
        let (mut k, mut ann, mut vector) = (None, None, None);
        let read_obj = read_payload(payload, |r| {
            r.obj(|r, key| {
                match &*key {
                    "id" => id = r.num()?,
                    "op" => op = r.str()?,
                    "doc" => doc = r.num()?,
                    "text" => text = r.str()?,
                    "k" => k = Some(r.num()?),
                    "ann" => ann = Some(r.bool()?),
                    "vector" => vector = read_vector(r)?,
                    _ => r.skip()?,
                }
                Ok(())
            })
        })?;
        if !read_obj {
            return Err(malformed(ErrorCode::BadRequest, 0, "request must be an object"));
        }
        if id.is_some_and(|n| n >= ID_LIMIT as f64) {
            return Err(malformed(ErrorCode::BadRequest, 0, "id must be below 2^53"));
        }
        let id = id.and_then(json::as_u64).unwrap_or(0);
        let bad = |message: &str| malformed(ErrorCode::BadRequest, id, message);
        let op = op.ok_or_else(|| bad("missing op field"))?;
        let k = || match k {
            None => Ok(DEFAULT_K),
            Some(k) => k
                .and_then(json::as_usize)
                .ok_or_else(|| bad("k must be a non-negative integer")),
        };
        let ann = || ann.map(|ann| ann.ok_or_else(|| bad("ann must be a boolean"))).transpose();
        let body = match &*op {
            "query_id" => RequestBody::QueryId {
                doc: doc
                    .and_then(json::as_usize)
                    .ok_or_else(|| bad("query_id requires a doc index"))?,
                k: k()?,
                ann: ann()?,
            },
            "query_text" => RequestBody::QueryText {
                text: text
                    .ok_or_else(|| bad("query_text requires a text string"))?
                    .into_owned(),
                k: k()?,
                ann: ann()?,
            },
            "query_vector" => RequestBody::QueryVector {
                vector: vector
                    .ok_or_else(|| bad("query_vector requires a vector array"))?
                    .ok_or_else(|| bad("vector elements must be numbers"))?,
                k: k()?,
                ann: ann()?,
            },
            "ping" => RequestBody::Ping,
            "stats" => RequestBody::Stats,
            "reload" => RequestBody::Reload,
            "shutdown" => RequestBody::Shutdown,
            other => {
                return Err(malformed(
                    ErrorCode::UnknownOp,
                    id,
                    format!("unknown op `{other}`"),
                ))
            }
        };
        Ok(Request { id, body })
    }
}

impl StatsSnapshot {
    /// The wire members, in key order.
    fn members(&self) -> [(&'static str, f64); 21] {
        [
            ("ann_queries", self.ann_queries as f64),
            ("batched_requests", self.batched_requests as f64),
            ("batches", self.batches as f64),
            ("coalesced", self.coalesced as f64),
            ("errors", self.errors as f64),
            ("evicted", self.evicted as f64),
            ("exact_queries", self.exact_queries as f64),
            ("generation", self.generation as f64),
            ("inflight", self.inflight as f64),
            ("max_batch", self.max_batch as f64),
            ("mean_batch", self.mean_batch()),
            ("mean_pool", self.mean_pool()),
            ("pooled", self.pooled as f64),
            ("queue_depth", self.queue_depth as f64),
            ("reload_failures", self.reload_failures as f64),
            ("reloads", self.reloads as f64),
            ("requests", self.requests as f64),
            ("shards", self.shards as f64),
            ("shed", self.shed as f64),
            ("uptime_secs", self.uptime_secs),
            ("workers", self.workers as f64),
        ]
    }

    /// Reads a snapshot object; `None` when the value is not one.
    fn read(r: &mut Reader) -> Result<Option<Self>, ParseError> {
        let mut seen = Vec::new();
        let read_obj = r.obj(|r, key| {
            seen.push((key, r.num()?));
            Ok(())
        })?;
        // The last duplicate of a key wins, as everywhere.
        let num = |key: &str| seen.iter().rev().find(|(k, _)| k == key).and_then(|(_, n)| *n);
        let count = |key: &str| num(key).and_then(json::as_u64);
        // Counters added after the first release (the ANN trio, then
        // the scoring-pool quartet) default to zero so snapshots
        // emitted by older daemons still parse.
        let count_or_zero = |key: &str| count(key).unwrap_or(0);
        let snapshot = || {
            Some(StatsSnapshot {
                requests: count("requests")?,
                batched_requests: count("batched_requests")?,
                batches: count("batches")?,
                coalesced: count("coalesced")?,
                errors: count("errors")?,
                max_batch: count("max_batch")?,
                shed: count("shed")?,
                evicted: count("evicted")?,
                reloads: count("reloads")?,
                reload_failures: count("reload_failures")?,
                generation: count("generation")?,
                ann_queries: count_or_zero("ann_queries"),
                exact_queries: count_or_zero("exact_queries"),
                pooled: count_or_zero("pooled"),
                workers: count_or_zero("workers"),
                shards: count_or_zero("shards"),
                inflight: count_or_zero("inflight"),
                queue_depth: count_or_zero("queue_depth"),
                uptime_secs: num("uptime_secs")?,
            })
        };
        Ok(if read_obj { snapshot() } else { None })
    }
}

impl Response {
    /// Encodes to the wire JSON text.
    pub fn encode(&self) -> String {
        let id = self.id as f64;
        let listed = match &self.body {
            ResponseBody::Matches { matches, .. } => matches.len(),
            _ => 0,
        };
        let mut out = String::with_capacity(64 + 28 * listed);
        // Members in key order: batch, code, error, generation, id,
        // matches, ok, pong, reloaded, stats, stopping.
        Writer::new(&mut out).obj(|w| match &self.body {
            ResponseBody::Matches { matches, batch } => {
                w.key("batch").num(*batch as f64);
                w.key("id").num(id);
                w.key("matches").arr(|w| {
                    for &(t, s) in matches {
                        w.arr(|w| {
                            w.num(t as f64);
                            w.num(s as f64);
                        });
                    }
                });
                w.key("ok").bool(true);
            }
            ResponseBody::Pong => {
                w.key("id").num(id);
                w.key("ok").bool(true);
                w.key("pong").bool(true);
            }
            ResponseBody::Stats(stats) => {
                w.key("id").num(id);
                w.key("ok").bool(true);
                w.key("stats").obj(|w| {
                    for (key, n) in stats.members() {
                        w.key(key).num(n);
                    }
                });
            }
            ResponseBody::Reloaded { generation } => {
                w.key("generation").num(*generation as f64);
                w.key("id").num(id);
                w.key("ok").bool(true);
                w.key("reloaded").bool(true);
            }
            ResponseBody::Stopping => {
                w.key("id").num(id);
                w.key("ok").bool(true);
                w.key("stopping").bool(true);
            }
            ResponseBody::Error { code, message } => {
                w.key("code").str(code.as_str());
                w.key("error").str(message);
                w.key("id").num(id);
                w.key("ok").bool(false);
            }
        });
        out
    }

    /// Decodes a response payload (the client side).
    pub fn decode(payload: &[u8]) -> Result<Self, MalformedMessage> {
        // As for requests: read every member, then judge the shape.
        let (mut id, mut ok, mut code, mut error) = (None, None, None, None);
        let (mut matches, mut batch, mut stats, mut generation) = (None, None, None, None);
        let (mut pong, mut reloaded, mut stopping) = (false, false, false);
        read_payload(payload, |r| {
            r.obj(|r, key| {
                match &*key {
                    "id" => id = r.num()?,
                    "ok" => ok = r.bool()?,
                    "code" => code = r.str()?,
                    "error" => error = r.str()?,
                    "matches" => matches = read_matches(r)?,
                    "batch" => batch = r.num()?,
                    "stats" => stats = Some(StatsSnapshot::read(r)?),
                    "generation" => generation = r.num()?,
                    // Presence alone marks these shapes.
                    "pong" => {
                        pong = true;
                        r.skip()?
                    }
                    "reloaded" => {
                        reloaded = true;
                        r.skip()?
                    }
                    "stopping" => {
                        stopping = true;
                        r.skip()?
                    }
                    _ => r.skip()?,
                }
                Ok(())
            })
        })?;
        let id = id.and_then(json::as_u64).unwrap_or(0);
        let bad = |message: &str| malformed(ErrorCode::BadRequest, id, message);
        let body = if !ok.ok_or_else(|| bad("missing ok field"))? {
            ResponseBody::Error {
                code: code
                    .as_deref()
                    .and_then(ErrorCode::parse)
                    .ok_or_else(|| bad("error response without a known code"))?,
                message: error.unwrap_or_default().into_owned(),
            }
        } else if let Some(matches) = matches {
            ResponseBody::Matches {
                matches: matches.map_err(bad)?,
                batch: batch
                    .and_then(json::as_usize)
                    .ok_or_else(|| bad("matches response without batch size"))?,
            }
        } else if pong {
            ResponseBody::Pong
        } else if let Some(stats) = stats {
            ResponseBody::Stats(stats.ok_or_else(|| bad("bad stats object"))?)
        } else if reloaded {
            ResponseBody::Reloaded {
                generation: generation
                    .and_then(json::as_u64)
                    .ok_or_else(|| bad("reloaded response without a generation"))?,
            }
        } else if stopping {
            ResponseBody::Stopping
        } else {
            return Err(bad("unrecognized response shape"));
        };
        Ok(Response { id, body })
    }
}

#[cfg(test)]
pub(crate) mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(r: Request) {
        let text = r.encode();
        let back = Request::decode(text.as_bytes()).unwrap();
        assert_eq!(r, back, "{text}");
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request {
            id: 7,
            body: RequestBody::QueryId {
                doc: 3,
                k: 20,
                ann: None,
            },
        });
        roundtrip_request(Request {
            id: u64::MAX >> 12,
            body: RequestBody::QueryText {
                text: "tarantino \"pulp\"\n".into(),
                k: 1,
                ann: Some(true),
            },
        });
        roundtrip_request(Request {
            id: 0,
            body: RequestBody::QueryVector {
                vector: vec![0.25, -1.5, 0.0],
                k: 5,
                ann: Some(false),
            },
        });
        for body in [
            RequestBody::Ping,
            RequestBody::Stats,
            RequestBody::Reload,
            RequestBody::Shutdown,
        ] {
            roundtrip_request(Request { id: 1, body });
        }
    }

    #[test]
    fn responses_roundtrip_with_bitexact_scores() {
        let scores: Vec<(usize, f32)> = (0..40)
            .map(|i| (i * 3, ((i as f32) * 0.37).sin()))
            .collect();
        let r = Response {
            id: 12,
            body: ResponseBody::Matches {
                matches: scores.clone(),
                batch: 8,
            },
        };
        let back = Response::decode(r.encode().as_bytes()).unwrap();
        let ResponseBody::Matches { matches, batch } = back.body else {
            panic!("wrong shape");
        };
        assert_eq!(batch, 8);
        for ((t, s), (bt, bs)) in scores.iter().zip(&matches) {
            assert_eq!(t, bt);
            assert_eq!(s.to_bits(), bs.to_bits());
        }

        for body in [
            ResponseBody::Pong,
            ResponseBody::Stopping,
            ResponseBody::Reloaded { generation: 3 },
            ResponseBody::Stats(StatsSnapshot {
                requests: 100,
                batched_requests: 90,
                batches: 20,
                coalesced: 72,
                errors: 3,
                max_batch: 8,
                shed: 11,
                evicted: 2,
                reloads: 4,
                reload_failures: 1,
                generation: 4,
                ann_queries: 40,
                exact_queries: 50,
                pooled: 5120,
                workers: 4,
                shards: 35,
                inflight: 6,
                queue_depth: 2,
                uptime_secs: 12.5,
            }),
            ResponseBody::Error {
                code: ErrorCode::UnknownId,
                message: "unknown query id 99".into(),
            },
        ] {
            let r = Response { id: 4, body };
            assert_eq!(Response::decode(r.encode().as_bytes()).unwrap(), r);
        }
    }

    #[test]
    fn request_default_k_applies() {
        let r = Request::decode(br#"{"op":"query_id","doc":0}"#).unwrap();
        assert_eq!(
            r.body,
            RequestBody::QueryId {
                doc: 0,
                k: DEFAULT_K,
                ann: None
            }
        );
        assert_eq!(r.id, 0);
    }

    #[test]
    fn ids_at_or_past_2_pow_53_are_refused_not_echoed_rounded() {
        for id in [
            "9007199254740992",
            "9007199254740993",
            "1152921504606846977",
            "18446744073709549568",
            "18446744073709551616",
            "1e300",
        ] {
            let payload = format!(r#"{{"id":{id},"op":"ping"}}"#);
            for err in [
                Request::decode(payload.as_bytes()).unwrap_err(),
                reference::decode_request(payload.as_bytes()).unwrap_err(),
            ] {
                assert_eq!((err.code, err.id), (ErrorCode::BadRequest, 0), "{payload}");
            }
        }
        // 2^53 − 1 is the largest id carried, and echoed verbatim.
        let r = Request::decode(br#"{"id":9007199254740991,"op":"ping"}"#).unwrap();
        assert_eq!(r.id, ID_LIMIT - 1);
        let echoed = Response { id: r.id, body: ResponseBody::Pong }.encode();
        assert_eq!(Response::decode(echoed.as_bytes()).unwrap().id, ID_LIMIT - 1);
        // Ids that are no unsigned integer at all still read as absent.
        for id in ["-1", "1.5", "\"7\"", "null"] {
            let payload = format!(r#"{{"id":{id},"op":"ping"}}"#);
            assert_eq!(Request::decode(payload.as_bytes()).unwrap().id, 0, "{payload}");
        }
    }

    #[test]
    fn ann_flag_parses_strictly_and_defaults_to_none() {
        let r = Request::decode(br#"{"op":"query_id","doc":0,"ann":true}"#).unwrap();
        assert!(matches!(r.body, RequestBody::QueryId { ann: Some(true), .. }));
        let r = Request::decode(br#"{"op":"query_text","text":"x","ann":false}"#).unwrap();
        assert!(matches!(r.body, RequestBody::QueryText { ann: Some(false), .. }));
        let err = Request::decode(br#"{"op":"query_id","doc":0,"ann":1}"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
    }

    #[test]
    fn pre_ann_stats_payloads_still_parse() {
        // A snapshot emitted before the ANN counters existed must
        // decode with the new fields zeroed.
        let old = br#"{"id":1,"ok":true,"stats":{"requests":5,"batched_requests":5,
            "batches":2,"coalesced":3,"errors":0,"max_batch":4,"mean_batch":2.5,
            "shed":0,"evicted":0,"reloads":0,"reload_failures":0,"generation":0,
            "uptime_secs":1.5}}"#;
        let r = Response::decode(old).unwrap();
        let ResponseBody::Stats(s) = r.body else { panic!("wrong shape") };
        assert_eq!((s.ann_queries, s.exact_queries, s.pooled), (0, 0, 0));
        assert_eq!(s.mean_pool(), 0.0);
        // Likewise the scoring-pool counters.
        assert_eq!((s.workers, s.shards, s.inflight, s.queue_depth), (0, 0, 0, 0));
    }

    #[test]
    fn malformed_requests_classify_precisely() {
        let cases: [(&[u8], ErrorCode, u64); 7] = [
            (b"not json", ErrorCode::BadJson, 0),
            (b"[1,2]", ErrorCode::BadRequest, 0),
            (br#"{"id":9}"#, ErrorCode::BadRequest, 9),
            (br#"{"id":9,"op":"warp"}"#, ErrorCode::UnknownOp, 9),
            (br#"{"id":2,"op":"query_id"}"#, ErrorCode::BadRequest, 2),
            (br#"{"id":2,"op":"query_id","doc":-1}"#, ErrorCode::BadRequest, 2),
            (
                br#"{"id":3,"op":"query_vector","vector":[1,"x"]}"#,
                ErrorCode::BadRequest,
                3,
            ),
        ];
        for (payload, code, id) in cases {
            let err = Request::decode(payload).unwrap_err();
            assert_eq!((err.code, err.id), (code, id), "{payload:?}");
        }
    }

    #[test]
    fn frames_roundtrip_and_reject_garbage() {
        let mut buf = Vec::new();
        write_frame(&mut buf, r#"{"op":"ping"}"#).unwrap();
        write_frame(&mut buf, r#"{"op":"stats"}"#).unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).unwrap().unwrap(),
            b"{\"op\":\"ping\"}\n"
        );
        assert_eq!(
            read_frame(&mut r).unwrap().unwrap(),
            b"{\"op\":\"stats\"}\n"
        );
        assert!(read_frame(&mut r).unwrap().is_none()); // clean EOF

        // Oversized length prefix.
        let bad = (MAX_FRAME + 1).to_le_bytes();
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(FrameError::Oversized { .. })
        ));
        // Zero-length frame.
        let zero = 0u32.to_le_bytes();
        assert!(matches!(
            read_frame(&mut &zero[..]),
            Err(FrameError::Oversized { len: 0 })
        ));
        // Truncated payload.
        let mut t = 10u32.to_le_bytes().to_vec();
        t.extend_from_slice(b"abc");
        assert!(matches!(read_frame(&mut &t[..]), Err(FrameError::Truncated)));
        // Truncated prefix.
        let p = [1u8, 0];
        assert!(matches!(read_frame(&mut &p[..]), Err(FrameError::Truncated)));
    }

    /// A writer that accepts everything and counts its `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_leaves_in_one_write() {
        let text = r#"{"id":1,"ok":true,"pong":true}"#;
        let mut w = CountingWriter::default();
        write_frame(&mut w, text).unwrap();
        assert_eq!(w.writes, 1, "prefix, text and newline in one write");
        let mut want = ((text.len() + 1) as u32).to_le_bytes().to_vec();
        want.extend_from_slice(text.as_bytes());
        want.push(b'\n');
        assert_eq!(w.bytes, want);
    }

    #[test]
    fn an_oversized_frame_is_refused_before_any_byte() {
        // Text plus newline exactly at the limit still goes out...
        let mut w = CountingWriter::default();
        write_frame(&mut w, &" ".repeat(MAX_FRAME as usize - 1)).unwrap();
        assert_eq!(w.bytes.len(), 4 + MAX_FRAME as usize);
        // ...one byte more is refused, and nothing reaches the writer.
        let mut w = CountingWriter::default();
        let err = write_frame(&mut w, &" ".repeat(MAX_FRAME as usize)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(w.writes, 0);
        assert!(w.bytes.is_empty());
    }

    /// A reader yielding its bytes in timed-out dribbles, to exercise
    /// FrameReader resumption at every split point.
    struct Dribble<'a> {
        chunks: Vec<&'a [u8]>,
        timeout_first: bool,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.timeout_first {
                self.timeout_first = false;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "rcvtimeo"));
            }
            self.timeout_first = true;
            match self.chunks.first().copied() {
                None => Ok(0),
                Some(chunk) => {
                    let n = chunk.len().min(buf.len()).min(3);
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n == chunk.len() {
                        self.chunks.remove(0);
                    } else {
                        self.chunks[0] = &chunk[n..];
                    }
                    Ok(n)
                }
            }
        }
    }

    #[test]
    fn frame_reader_resumes_across_timeouts_and_tracks_frame_state() {
        let mut wire = Vec::new();
        write_frame(&mut wire, r#"{"op":"ping"}"#).unwrap();
        write_frame(&mut wire, r#"{"op":"stats"}"#).unwrap();
        let mut src = Dribble {
            chunks: vec![&wire],
            timeout_first: false,
        };
        let mut fr = FrameReader::new();
        let mut frames = Vec::new();
        let mut timeouts = 0;
        loop {
            match fr.next(&mut src) {
                Ok(Some(p)) => frames.push(p),
                Ok(None) => break,
                Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::WouldBlock => {
                    timeouts += 1;
                    assert!(timeouts < 1000, "no progress");
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], b"{\"op\":\"ping\"}\n");
        assert_eq!(frames[1], b"{\"op\":\"stats\"}\n");
        assert!(timeouts > 0, "the dribbler should have timed out plenty");
        assert!(!fr.in_frame());

        // Mid-frame state is visible: feed half a frame, then time out.
        let mut partial = Dribble {
            chunks: vec![&wire[..7]],
            timeout_first: false,
        };
        let mut fr = FrameReader::new();
        loop {
            match fr.next(&mut partial) {
                Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::WouldBlock => {
                    if partial.chunks.is_empty() {
                        break;
                    }
                }
                Err(FrameError::Truncated) => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(fr.in_frame(), "a half-read frame must report in_frame");

        // Framing errors behave exactly like read_frame's.
        let bad = (MAX_FRAME + 1).to_le_bytes();
        assert!(matches!(
            FrameReader::new().next(&mut &bad[..]),
            Err(FrameError::Oversized { .. })
        ));
        assert!(FrameReader::new().next(&mut &[][..]).unwrap().is_none());
    }

    #[test]
    fn frame_start_hook_fires_once_per_frame_even_across_timeouts() {
        let mut wire = Vec::new();
        write_frame(&mut wire, r#"{"op":"ping"}"#).unwrap();
        write_frame(&mut wire, r#"{"op":"stats"}"#).unwrap();
        // The dribbler times out before every read and delivers at most
        // 3 bytes at a time, so every frame is resumed many times — the
        // hook must still fire exactly once per frame, at first byte.
        let mut src = Dribble {
            chunks: vec![&wire],
            timeout_first: false,
        };
        let mut fr = FrameReader::new();
        let mut frames = 0;
        let mut starts = 0;
        loop {
            match fr.next_with(&mut src, || starts += 1) {
                Ok(Some(_)) => {
                    frames += 1;
                    assert_eq!(starts, frames, "one start per completed frame");
                }
                Ok(None) => break,
                Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(frames, 2);
        assert_eq!(starts, 2);
    }

    #[test]
    fn retryable_codes_are_exactly_overloaded_and_shutting_down() {
        for code in [
            ErrorCode::BadFrame,
            ErrorCode::Oversized,
            ErrorCode::BadJson,
            ErrorCode::BadRequest,
            ErrorCode::UnknownOp,
            ErrorCode::UnknownId,
            ErrorCode::BadVector,
            ErrorCode::ReloadFailed,
        ] {
            assert!(!code.is_retryable(), "{code}");
        }
        assert!(ErrorCode::Overloaded.is_retryable());
        assert!(ErrorCode::ShuttingDown.is_retryable());
        // Every code's wire spelling round-trips.
        for code in [
            ErrorCode::BadFrame,
            ErrorCode::Oversized,
            ErrorCode::BadJson,
            ErrorCode::BadRequest,
            ErrorCode::UnknownOp,
            ErrorCode::UnknownId,
            ErrorCode::BadVector,
            ErrorCode::ShuttingDown,
            ErrorCode::Overloaded,
            ErrorCode::ReloadFailed,
        ] {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
    }
}
