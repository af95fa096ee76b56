//! End-to-end protocol tests against a live daemon on a temp socket:
//! hostile framing, per-request error codes, the drain lifecycle, and
//! the headline guarantee — batched responses bit-identical to serial
//! `top_k_matches_matrix` rankings.

#![cfg(unix)]

use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

use tdmatch_core::artifact::MatchArtifact;
use tdmatch_core::matcher::top_k_matches_matrix;
use tdmatch_core::serving::Matcher;
use tdmatch_serve::batch::BatchOptions;
use tdmatch_serve::client::{Client, ClientError};
use tdmatch_serve::protocol::{
    read_frame, write_frame, ErrorCode, Request, RequestBody, Response, ResponseBody, MAX_FRAME,
};
use tdmatch_serve::server::{ServeOptions, Server};

/// A deterministic artifact big enough that rankings are non-trivial.
fn artifact() -> MatchArtifact {
    let dim = 8;
    let vector = |seed: usize| -> Vec<f32> {
        (0..dim)
            .map(|d| ((seed * 31 + d * 7) as f32 * 0.37).sin())
            .collect()
    };
    let targets: Vec<Option<Vec<f32>>> = (0..120)
        .map(|i| if i % 11 == 7 { None } else { Some(vector(i)) })
        .collect();
    let queries: Vec<Option<Vec<f32>>> = (0..24)
        .map(|i| if i == 5 { None } else { Some(vector(1000 + i)) })
        .collect();
    MatchArtifact::new(
        dim,
        vec![
            ("tarantino".into(), vector(7)),
            ("thriller".into(), vector(8)),
        ],
        targets,
        queries,
    )
}

fn socket_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "tdmatch-proto-{tag}-{}.sock",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    path
}

fn start(tag: &str, batch: BatchOptions) -> (Server, PathBuf) {
    let socket = socket_path(tag);
    let server = Server::start(
        Matcher::new(artifact()),
        ServeOptions {
            batch,
            ..ServeOptions::at(socket.clone())
        },
    )
    .expect("daemon start");
    (server, socket)
}

fn assert_bit_identical(got: &[(usize, f32)], want: &[(usize, f32)], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: length");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.0, w.0, "{context}: target order");
        assert_eq!(
            g.1.to_bits(),
            w.1.to_bits(),
            "{context}: score bits for target {}",
            g.0
        );
    }
}

#[test]
fn batched_socket_answers_are_bit_identical_to_serial_matrix_scan() {
    // A long window so two synchronized clients reliably coalesce.
    let (server, socket) = start(
        "twoclients",
        BatchOptions {
            window: Duration::from_millis(300),
            max_batch: 8,
        },
    );
    let art = artifact();
    // The serial oracle: the exact one-shot path `tdmatch match` uses.
    let serial = top_k_matches_matrix(art.second_matrix(), art.first_matrix(), 7, None, None);

    let worker = |docs: Vec<usize>, socket: PathBuf| {
        std::thread::spawn(move || {
            let mut client = Client::connect(&socket).expect("connect");
            docs.into_iter()
                .map(|doc| {
                    let (ranked, batch) = client.query_id(doc, 7).expect("query");
                    (doc, ranked, batch)
                })
                .collect::<Vec<_>>()
        })
    };
    // Two clients, interleaved ids, issued in lockstep (each waits for
    // its response, so both requests of a round sit in one window).
    let a = worker((0..24).step_by(2).collect(), socket.clone());
    let b = worker((1..24).step_by(2).collect(), socket.clone());
    let mut coalesced = 0usize;
    for (doc, ranked, batch) in a.join().unwrap().into_iter().chain(b.join().unwrap()) {
        assert_bit_identical(&ranked, &serial[doc].ranked, &format!("doc {doc}"));
        assert!((1..=8).contains(&batch));
        coalesced += usize::from(batch >= 2);
    }
    // With a 300 ms window and lockstep clients, essentially every
    // round coalesces; require it happened at all (the bit-identity
    // above must hold at *any* batch composition).
    assert!(coalesced > 0, "no request was ever coalesced");
    let stats = server.stats();
    assert_eq!(stats.requests, 24);
    assert!(stats.max_batch >= 2);
    assert!(stats.batches < 24, "every request got its own batch");
    drop(server);
    assert!(!socket.exists());
}

#[test]
fn pipelined_bursts_coalesce_and_stay_bit_identical() {
    // A long window: it holds for every request already announced.
    let (server, socket) = start(
        "pipelined",
        BatchOptions {
            window: Duration::from_millis(300),
            max_batch: 8,
        },
    );
    let art = artifact();
    // The serial oracle: the exact one-shot path `tdmatch match` uses.
    let serial = top_k_matches_matrix(art.second_matrix(), art.first_matrix(), 7, None, None);

    // Two clients, interleaved ids, each pipelining its twelve requests
    // in one burst rather than waiting for each answer. A reader
    // announces each frame as its first byte arrives, so the window
    // holds for the rest of a burst and requests coalesce.
    let client = |docs: Vec<usize>, socket: PathBuf| {
        std::thread::spawn(move || {
            let mut stream = UnixStream::connect(&socket).expect("connect");
            let mut burst = Vec::new();
            for &doc in &docs {
                let request = Request {
                    id: doc as u64,
                    body: RequestBody::QueryId {
                        doc,
                        k: 7,
                        ann: None,
                    },
                };
                write_frame(&mut burst, &request.encode()).expect("frame");
            }
            stream.write_all(&burst).expect("write burst");
            docs.iter()
                .map(|_| {
                    let payload = read_frame(&mut stream).expect("readable").expect("answer");
                    let response = Response::decode(&payload).expect("decodable");
                    match response.body {
                        ResponseBody::Matches { matches, batch } => {
                            (response.id as usize, matches, batch)
                        }
                        other => panic!("expected matches, got {other:?}"),
                    }
                })
                .collect::<Vec<_>>()
        })
    };
    let a = client((0..24).step_by(2).collect(), socket.clone());
    let b = client((1..24).step_by(2).collect(), socket.clone());
    let mut coalesced = 0usize;
    for (doc, ranked, batch) in a.join().unwrap().into_iter().chain(b.join().unwrap()) {
        assert_bit_identical(&ranked, &serial[doc].ranked, &format!("doc {doc}"));
        assert!((1..=8).contains(&batch));
        coalesced += usize::from(batch >= 2);
    }
    // Require coalescing happened at all (the bit-identity above must
    // hold at *any* batch composition).
    assert!(coalesced > 0, "no request was ever coalesced");
    let stats = server.stats();
    assert_eq!(stats.requests, 24);
    assert!(stats.max_batch >= 2);
    assert!(stats.batches < 24, "every request got its own batch");
    drop(server);
    assert!(!socket.exists());
}

#[test]
fn text_and_vector_queries_match_the_one_shot_paths() {
    let (server, socket) = start("textvec", BatchOptions::default());
    let art = artifact();
    let mut client = Client::connect(&socket).expect("connect");

    let facade = Matcher::new(art);

    // query_text ≡ Matcher::query_by_tokens (same tokenizer) — what the
    // one-shot `tdmatch query --artifact` runs.
    let text = "A Tarantino THRILLER!";
    let tokens = tdmatch_text::Preprocessor::default().base_tokens(text);
    let want = facade.query_by_tokens(&tokens, 5);
    assert!(!want.is_empty(), "the text must hit the vocabulary");
    let (ranked, _) = client.query_text(text, 5).expect("text query");
    assert_bit_identical(&ranked, &want, "text query");

    // Unknown-vocabulary text: empty ranking, answered without scoring.
    let (ranked, batch) = client.query_text("zzz qqq", 5).expect("unknown text");
    assert!(ranked.is_empty());
    assert_eq!(batch, 0);

    // query_vector ≡ Matcher::query_by_vector.
    let v: Vec<f32> = (0..8).map(|d| (d as f32 * 0.9).cos()).collect();
    let want = facade.query_by_vector(&v, 4).unwrap();
    let (ranked, _) = client.query_vector(v, 4).expect("vector query");
    assert_bit_identical(&ranked, &want, "vector query");
    drop(server);
}

#[test]
fn per_request_errors_use_the_spec_codes_and_keep_the_connection() {
    let (server, socket) = start("errors", BatchOptions::default());
    let mut client = Client::connect(&socket).expect("connect");

    // Unknown query id.
    match client.query_id(24, 3) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::UnknownId);
            assert!(message.contains("24"), "{message}");
        }
        other => panic!("expected unknown_id, got {other:?}"),
    }
    // A valid-but-missing query embedding is NOT an error: empty rank.
    let (ranked, _) = client.query_id(5, 3).expect("missing row");
    assert!(ranked.is_empty());
    // Dim-mismatched vector.
    match client.query_vector(vec![1.0, 2.0], 3) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::BadVector),
        other => panic!("expected bad_vector, got {other:?}"),
    }
    // The same connection still serves good queries afterwards.
    let (ranked, _) = client.query_id(0, 3).expect("connection survived");
    assert_eq!(ranked.len(), 3);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.errors, 2);
    drop(server);
}

#[test]
fn non_finite_vectors_answer_bad_vector_and_keep_the_connection() {
    let (server, socket) = start("nonfinite", BatchOptions::default());
    let mut stream = UnixStream::connect(&socket).expect("connect");
    let mut exchange = |payload: &str| {
        stream.write_all(&frame(payload.as_bytes())).expect("write");
        let payload = read_frame(&mut stream).expect("readable").expect("answer");
        Response::decode(&payload).expect("a decodable response")
    };
    // `1e300` is past f32 range and decodes to `inf`; `3e38` is finite,
    // but its square overflows, so the norm would.
    let requests = [
        r#"{"id":1,"op":"query_vector","k":3,"vector":[1e300,0.5,0,0,0,0,0,0]}"#,
        r#"{"id":2,"op":"query_vector","k":3,"vector":[3e38,3e38,0,0,0,0,0,0]}"#,
    ];
    for (id, request) in (1..).zip(requests) {
        let r = exchange(request);
        assert_eq!(r.id, id);
        match r.body {
            ResponseBody::Error { code, .. } => assert_eq!(code, ErrorCode::BadVector),
            other => panic!("expected bad_vector, got {other:?}"),
        }
    }
    // The same connection still serves good queries afterwards.
    let r = exchange(r#"{"id":3,"op":"query_id","doc":0,"k":3}"#);
    assert_eq!(r.id, 3);
    match r.body {
        ResponseBody::Matches { matches, .. } => assert_eq!(matches.len(), 3),
        other => panic!("expected matches, got {other:?}"),
    }
    drop(server);
}

/// Writes raw bytes and reads one response frame off the same stream.
fn raw_exchange(socket: &PathBuf, bytes: &[u8]) -> Option<Response> {
    let mut stream = UnixStream::connect(socket).expect("connect");
    stream.write_all(bytes).expect("write");
    let payload = read_frame(&mut stream).ok()??;
    Some(Response::decode(&payload).expect("decodable error response"))
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(payload);
    out
}

#[test]
fn malformed_payloads_answer_with_codes_and_framing_errors_close() {
    let (server, socket) = start("malformed", BatchOptions::default());

    // Invalid JSON in a well-formed frame → bad_json, id 0.
    let r = raw_exchange(&socket, &frame(b"{not json")).expect("response");
    assert!(matches!(
        r.body,
        ResponseBody::Error { code: ErrorCode::BadJson, .. }
    ));
    // Well-formed JSON, ill-formed request → bad_request echoing the id.
    let r = raw_exchange(&socket, &frame(br#"{"id":42,"op":"query_id"}"#)).expect("response");
    assert_eq!(r.id, 42);
    assert!(matches!(
        r.body,
        ResponseBody::Error { code: ErrorCode::BadRequest, .. }
    ));
    // Unknown op.
    let r = raw_exchange(&socket, &frame(br#"{"id":1,"op":"teleport"}"#)).expect("response");
    assert!(matches!(
        r.body,
        ResponseBody::Error { code: ErrorCode::UnknownOp, .. }
    ));

    // Oversized length prefix → oversized error, then the server closes.
    let mut stream = UnixStream::connect(&socket).expect("connect");
    stream
        .write_all(&(MAX_FRAME + 1).to_le_bytes())
        .expect("write");
    let payload = read_frame(&mut stream).expect("readable").expect("present");
    let r = Response::decode(&payload).expect("decodable");
    assert!(matches!(
        r.body,
        ResponseBody::Error { code: ErrorCode::Oversized, .. }
    ));
    assert!(
        read_frame(&mut stream).expect("clean close").is_none(),
        "connection must close after a framing error"
    );

    // Truncated frame (length promises more than is sent, then EOF) →
    // bad_frame, then close.
    let mut stream = UnixStream::connect(&socket).expect("connect");
    stream.write_all(&100u32.to_le_bytes()).expect("write");
    stream.write_all(b"short").expect("write");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let payload = read_frame(&mut stream).expect("readable").expect("present");
    let r = Response::decode(&payload).expect("decodable");
    assert!(matches!(
        r.body,
        ResponseBody::Error { code: ErrorCode::BadFrame, .. }
    ));
    assert!(read_frame(&mut stream).expect("clean close").is_none());

    // A zero-length frame is also a framing error.
    let mut stream = UnixStream::connect(&socket).expect("connect");
    stream.write_all(&0u32.to_le_bytes()).expect("write");
    let payload = read_frame(&mut stream).expect("readable").expect("present");
    let r = Response::decode(&payload).expect("decodable");
    assert!(matches!(
        r.body,
        ResponseBody::Error { code: ErrorCode::Oversized, .. }
    ));
    drop(server);
}

#[test]
fn oversized_but_parseable_requests_never_reach_the_scheduler() {
    let (server, socket) = start("oversized", BatchOptions::default());
    // A frame just over MAX_FRAME full of spaces around a valid ping:
    // rejected at the framing layer by size alone.
    let mut payload = vec![b' '; (MAX_FRAME + 1) as usize - 13];
    payload.extend_from_slice(br#"{"op":"ping"}"#);
    let mut stream = UnixStream::connect(&socket).expect("connect");
    stream
        .write_all(&(payload.len() as u32).to_le_bytes())
        .expect("write prefix");
    // The server rejects on the prefix alone and may close before the
    // body is consumed, so a partial body write (EPIPE) is expected.
    let _ = stream.write_all(&payload);
    let frame_payload = read_frame(&mut stream).expect("readable").expect("present");
    let r = Response::decode(&frame_payload).expect("decodable");
    assert!(matches!(
        r.body,
        ResponseBody::Error { code: ErrorCode::Oversized, .. }
    ));
    assert_eq!(server.stats().requests, 0);
    drop(server);
}

#[test]
fn responses_over_the_frame_limit_become_errors_and_keep_the_connection() {
    // 45,000 targets: a full ranking encodes to ~1.28 MB, over MAX_FRAME.
    let (targets, dim) = (45_000, 4);
    let row = |i: usize| -> Vec<f32> { (0..dim).map(|d| ((i * 7 + d) as f32).sin()).collect() };
    let art = MatchArtifact::new(
        dim,
        vec![("tarantino".into(), row(1))],
        (0..targets).map(|i| Some(row(i))).collect(),
        vec![Some(row(3))],
    );
    let want = Matcher::new(art.clone())
        .query_by_id(0, 3)
        .expect("doc exists");
    let socket = socket_path("oversized-response");
    // A short deadline: a daemon that tries to push the oversized frame
    // into a connection nobody drains gives up quickly.
    let server = Server::start(
        Matcher::new(art),
        ServeOptions::at(&socket).io_timeout(Duration::from_millis(500)),
    )
    .expect("daemon start");
    let mut client = Client::connect(&socket).expect("connect");
    client
        .set_io_timeout(Some(Duration::from_secs(5)))
        .expect("client deadline");

    match client.query_id(0, targets) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::Oversized);
            assert!(message.contains(&MAX_FRAME.to_string()), "{message}");
            assert!(message.contains("smaller k"), "{message}");
        }
        other => panic!("expected an oversized error, got {other:?}"),
    }
    // The same connection is still in sync and answers a normal query.
    let (ranked, _) = client.query_id(0, 3).expect("connection survived");
    assert_bit_identical(&ranked, &want, "after the oversized response");
    assert_eq!(client.stats().expect("stats").errors, 1);
    drop(server);
}

#[test]
fn lifecycle_ping_stats_shutdown_drain() {
    let (server, socket) = start(
        "lifecycle",
        BatchOptions {
            window: Duration::from_millis(1),
            max_batch: 8,
        },
    );
    let mut client = Client::connect(&socket).expect("connect");
    client.ping().expect("ping");
    let (ranked, _) = client.query_id(3, 4).expect("query");
    assert_eq!(ranked.len(), 4);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.batches, 1);
    assert!(stats.uptime_secs >= 0.0);

    client.shutdown().expect("shutdown acknowledged");
    let stats = server.join();
    assert_eq!(stats.requests, 1);
    assert!(!socket.exists(), "socket file must be unlinked");
    // The daemon is gone: connecting fails.
    assert!(UnixStream::connect(&socket).is_err());
    // The drained client connection is severed.
    assert!(matches!(
        client.ping(),
        Err(ClientError::Io(_) | ClientError::Disconnected | ClientError::Frame(_))
    ));
}

#[test]
fn starting_on_an_existing_path_is_refused() {
    let socket = socket_path("inuse");
    std::fs::write(&socket, b"stale").expect("plant file");
    let err = Server::start(Matcher::new(artifact()), ServeOptions::at(&socket)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
    std::fs::remove_file(&socket).ok();
}

#[test]
fn responses_interleave_correctly_on_one_connection() {
    // Many sequential requests over one connection with a tiny window:
    // ids echo back in order and every answer matches the serial oracle.
    let (server, socket) = start(
        "sequential",
        BatchOptions {
            window: Duration::from_micros(100),
            max_batch: 4,
        },
    );
    let art = artifact();
    let serial = top_k_matches_matrix(art.second_matrix(), art.first_matrix(), 3, None, None);
    let mut client = Client::connect(&socket).expect("connect");
    for round in 0..3 {
        for (doc, want) in serial.iter().enumerate() {
            let (ranked, _) = client.query_id(doc, 3).expect("query");
            assert_bit_identical(&ranked, &want.ranked, &format!("round {round} doc {doc}"));
        }
    }
    assert_eq!(server.stats().requests, 72);
    drop(server);
}
