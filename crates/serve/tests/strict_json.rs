//! A live daemon holds the wire to strict JSON: numbers outside RFC
//! 8259's grammar are `bad_json`, ids at or above 2^53 are
//! `bad_request` with id 0 (never echoed rounded), and after either the
//! connection keeps serving.

#![cfg(unix)]

use std::io::Write;
use std::os::unix::net::UnixStream;

use tdmatch_core::artifact::MatchArtifact;
use tdmatch_core::serving::Matcher;
use tdmatch_serve::protocol::{read_frame, ErrorCode, Response, ResponseBody};
use tdmatch_serve::server::{ServeOptions, Server};

fn start(tag: &str) -> (Server, UnixStream) {
    let artifact = MatchArtifact::new(
        2,
        vec![("alpha".into(), vec![1.0, 0.0])],
        (0..6)
            .map(|i| Some(vec![(i as f32).cos(), (i as f32).sin()]))
            .collect(),
        (0..4)
            .map(|i| Some(vec![(i as f32 * 0.7).sin(), 1.0]))
            .collect(),
    );
    let socket =
        std::env::temp_dir().join(format!("tdmatch-strict-{tag}-{}.sock", std::process::id()));
    std::fs::remove_file(&socket).ok();
    let server =
        Server::start(Matcher::new(artifact), ServeOptions::at(&socket)).expect("daemon start");
    let stream = UnixStream::connect(&socket).expect("connect");
    (server, stream)
}

/// Sends one payload in a frame and reads the answer.
fn exchange(stream: &mut UnixStream, payload: &str) -> Response {
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(payload.as_bytes());
    stream.write_all(&frame).expect("write");
    let answer = read_frame(stream).expect("readable").expect("an answer");
    Response::decode(&answer).expect("a decodable response")
}

fn assert_error(r: &Response, code: ErrorCode, payload: &str) {
    assert_eq!(r.id, 0, "{payload}");
    match &r.body {
        ResponseBody::Error { code: got, .. } => assert_eq!(*got, code, "{payload}"),
        other => panic!("{payload}: expected {code}, got {other:?}"),
    }
}

#[test]
fn numbers_outside_rfc_8259_answer_bad_json_and_keep_the_connection() {
    let (server, mut stream) = start("numbers");
    let payloads = [
        r#"{"id":7,"op":"query_id","doc":03,"k":2.}"#,
        r#"{"id":7,"op":"query_id","doc":3,"k":-01}"#,
        r#"{"id":7,"op":"query_vector","vector":[1.e5,-.5],"k":2}"#,
    ];
    for payload in payloads {
        assert_error(&exchange(&mut stream, payload), ErrorCode::BadJson, payload);
    }
    let r = exchange(&mut stream, r#"{"id":8,"op":"query_id","doc":3,"k":2}"#);
    assert_eq!(r.id, 8);
    match r.body {
        ResponseBody::Matches { matches, .. } => assert_eq!(matches.len(), 2),
        other => panic!("expected matches, got {other:?}"),
    }
    assert_eq!(server.stats().errors, payloads.len() as u64);
    drop(server);
}

#[test]
fn ids_past_2_pow_53_answer_bad_request_and_keep_the_connection() {
    let (server, mut stream) = start("ids");
    let payloads = [
        r#"{"id":9007199254740992,"op":"ping"}"#,
        r#"{"id":9007199254740993,"op":"ping"}"#,
        r#"{"id":1152921504606846977,"op":"query_id","doc":0,"k":1}"#,
    ];
    for payload in payloads {
        assert_error(
            &exchange(&mut stream, payload),
            ErrorCode::BadRequest,
            payload,
        );
    }
    // 2^53 − 1 is still carried, and echoed verbatim.
    let r = exchange(&mut stream, r#"{"id":9007199254740991,"op":"ping"}"#);
    assert_eq!((r.id, r.body), ((1 << 53) - 1, ResponseBody::Pong));
    assert_eq!(server.stats().errors, payloads.len() as u64);
    drop(server);
}
