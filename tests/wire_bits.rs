//! Root-level contract: what the daemon sends on the wire is what the
//! facade computes, bit for bit, however the daemon batches its queries.
//!
//! Two in-process daemons — two workers and one — serve
//! `tests/common`'s 64 × 8 fixture with its index, at the narrow pool
//! `rank_bits.rs` pins. Two clients each pipeline one mixed batch in
//! exact and in ANN mode: every stored query by id, a text query, a raw
//! vector, an unknown id and a wrong-dim vector. Pipelined frames
//! coalesce into wide batches, and each worker scores whole batches. Every
//! answer — scores by `to_bits`, errors by code — must equal
//! `Matcher::query_batch_with_mode` on the same artifact, and the two
//! daemons must agree. No constant: `rank_bits.rs` pins the facade.

#![cfg(unix)]

mod common;

use std::collections::HashMap;
use std::io::BufReader;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use common::{fixture_rows, DIM, QUERIES};

use tdmatch::core::artifact::MatchArtifact;
use tdmatch::core::serving::{Matcher, Query, QueryError};
use tdmatch::embed::ann::HnswParams;
use tdmatch::serve::batch::BatchOptions;
use tdmatch::serve::protocol::{
    read_frame, write_frame, ErrorCode, Request, RequestBody, Response, ResponseBody,
};
use tdmatch::serve::server::{ServeOptions, Server};
use tdmatch::text::Preprocessor;

/// Narrow enough that the index walks instead of returning every row.
const POOL: usize = 8;
/// Above `POOL`: an ANN answer's tail is the missing-row appendix, so
/// the two modes answer differently.
const K: usize = 12;
const TEXT: &str = "alpha gamma and the delta";

/// One answer as the wire carries it: `(target, score bits)` or an error.
type Answer = Result<Vec<(usize, u32)>, ErrorCode>;

fn fixture() -> MatchArtifact {
    let (terms, first, second) = fixture_rows();
    let mut a = MatchArtifact::new(DIM, terms, first, second);
    a.build_ann(&HnswParams::default());
    a
}

/// The mixed batch, as request bodies in `ann` mode.
fn requests(ann: bool) -> Vec<RequestBody> {
    let ann = Some(ann);
    let mut batch: Vec<RequestBody> = (0..QUERIES)
        .map(|doc| RequestBody::QueryId { doc, k: K, ann })
        .collect();
    batch.push(RequestBody::QueryText {
        text: TEXT.to_string(),
        k: K,
        ann,
    });
    let vector = (0..DIM).map(|d| d as f32 - 3.5).collect();
    batch.push(RequestBody::QueryVector { vector, k: K, ann });
    batch.push(RequestBody::QueryId {
        doc: QUERIES + 3,
        k: K,
        ann,
    });
    batch.push(RequestBody::QueryVector {
        vector: vec![1.0; DIM - 1],
        k: K,
        ann,
    });
    batch
}

/// The facade's answers to `requests(ann)`, text embedded the way the
/// daemon embeds it.
fn facade(a: &MatchArtifact, ann: bool) -> Vec<Answer> {
    let queries: Vec<Query> = requests(ann)
        .into_iter()
        .map(|body| match body {
            RequestBody::QueryId { doc, .. } => Query::ById(doc),
            RequestBody::QueryVector { vector, .. } => Query::ByVector(vector),
            RequestBody::QueryText { text, .. } => {
                let tokens = Preprocessor::default().base_tokens(&text);
                Query::ByVector(a.embed_tokens(&tokens).expect("a known token"))
            }
            other => unreachable!("{other:?}"),
        })
        .collect();
    let m = Matcher::new(a.clone()).with_ann_pool(POOL).with_ann_ef(POOL);
    let (answers, _) = m.query_batch_with_mode(&mut m.query_block(), &queries, K, ann);
    answers
        .into_iter()
        .map(|r| match r {
            Ok(ranked) => Ok(bits(&ranked)),
            Err(QueryError::UnknownId { .. }) => Err(ErrorCode::UnknownId),
            Err(QueryError::DimMismatch { .. } | QueryError::NonFinite) => {
                Err(ErrorCode::BadVector)
            }
        })
        .collect()
}

fn bits(ranked: &[(usize, f32)]) -> Vec<(usize, u32)> {
    ranked.iter().map(|&(t, s)| (t, s.to_bits())).collect()
}

/// Writes the mixed batch in exact then ANN mode as one burst of frames,
/// then reads every answer back, matched by id (a worker pool may answer
/// out of order). Returns `[exact answers, ANN answers]`.
fn pipeline(socket: &Path) -> [Vec<Answer>; 2] {
    let mut stream = UnixStream::connect(socket).expect("connect");
    let bodies: Vec<RequestBody> = [false, true].into_iter().flat_map(requests).collect();
    for (id, body) in bodies.iter().enumerate() {
        let request = Request {
            id: id as u64,
            body: body.clone(),
        };
        write_frame(&mut stream, &request.encode()).expect("write frame");
    }
    let mut reader = BufReader::new(stream);
    let mut by_id: HashMap<u64, Answer> = HashMap::new();
    for _ in 0..bodies.len() {
        let payload = read_frame(&mut reader).expect("read frame").expect("an answer");
        let response = Response::decode(&payload).expect("a response");
        let answer = match response.body {
            ResponseBody::Matches { matches, .. } => Ok(bits(&matches)),
            ResponseBody::Error { code, .. } => Err(code),
            other => panic!("unexpected response {other:?}"),
        };
        assert!(by_id.insert(response.id, answer).is_none(), "id {} twice", response.id);
    }
    let mut answers = (0..bodies.len() as u64).map(|id| by_id.remove(&id).expect("every id"));
    let exact = answers.by_ref().take(bodies.len() / 2).collect();
    [exact, answers.collect()]
}

fn socket_path(workers: usize) -> PathBuf {
    let name = format!("tdmatch-wire-bits-{workers}-{}.sock", std::process::id());
    let path = std::env::temp_dir().join(name);
    std::fs::remove_file(&path).ok();
    path
}

/// Starts a daemon with `workers` scoring workers and an ANN pool of
/// `POOL`, lets two clients pipeline the mixed batch at once, and
/// returns each client's answers.
fn serve(a: &MatchArtifact, workers: usize) -> Vec<[Vec<Answer>; 2]> {
    let socket = socket_path(workers);
    let options = ServeOptions::at(&socket)
        .workers(workers)
        .ann_pool(POOL)
        .ann_ef(POOL)
        .batch(BatchOptions {
            window: Duration::from_millis(2),
            max_batch: 64,
        });
    let server = Server::start(Matcher::new(a.clone()), options).expect("daemon starts");
    let clients: Vec<_> = (0..2)
        .map(|_| {
            let socket = socket.clone();
            std::thread::spawn(move || pipeline(&socket))
        })
        .collect();
    let answers = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();
    server.shutdown();
    let stats = server.join();
    assert_eq!(stats.workers, workers as u64);
    assert_eq!(stats.inflight, 0, "every admitted query was answered");
    answers
}

#[test]
fn wire_answers_equal_the_facade_bit_for_bit() {
    let a = fixture();
    let want = [facade(&a, false), facade(&a, true)];
    assert_ne!(want[0], want[1], "the narrow pool must be visible");
    assert_eq!(want[0].iter().filter(|r| r.is_err()).count(), 2);

    let pooled = serve(&a, 2);
    for (c, got) in pooled.iter().enumerate() {
        assert_eq!(got, &want, "two workers, client {c}");
    }
    let serial = serve(&a, 1);
    assert_eq!(serial, pooled, "one worker against two");
}
