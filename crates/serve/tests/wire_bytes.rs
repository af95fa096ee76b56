//! Byte goldens of the wire encoders: the exact JSON text `encode()`
//! produces for every request and response variant.
//!
//! The strings below were recorded from the tree-based encoder
//! (`Json::Obj` printed key by key) before the streaming writer replaced
//! it, so any change to key order, number spelling or string escaping
//! fails here first. Edge cases covered: an empty ranking; scores −1,
//! −0, 0, 1 and a subnormal; ids 0, 2^53 − 1 and one in [9e15, 2^53),
//! which print with a trailing `.0`; a full stats snapshot; an error
//! message that needs `\u00xx` escapes; query text with quotes and
//! newlines.

use tdmatch_serve::protocol::{
    ErrorCode, Request, RequestBody, Response, ResponseBody, StatsSnapshot,
};

/// 2^53 − 1, the largest id the protocol carries exactly.
const MAX_ID: u64 = (1 << 53) - 1;

fn request(id: u64, body: RequestBody) -> String {
    Request { id, body }.encode()
}

fn response(id: u64, body: ResponseBody) -> String {
    Response { id, body }.encode()
}

#[test]
fn query_requests_encode_to_the_recorded_bytes() {
    assert_eq!(
        request(0, RequestBody::QueryId { doc: 0, k: 3, ann: None }),
        r#"{"doc":0,"id":0,"k":3,"op":"query_id"}"#
    );
    assert_eq!(
        request(MAX_ID, RequestBody::QueryId { doc: 7, k: 20, ann: Some(true) }),
        r#"{"ann":true,"doc":7,"id":9007199254740991.0,"k":20,"op":"query_id"}"#
    );
    assert_eq!(
        request(
            9_000_000_000_000_001,
            RequestBody::QueryText {
                text: "tarantino \"pulp\"\nfiction\r\tback\\slash \u{1} é🙂".into(),
                k: 5,
                ann: Some(false),
            }
        ),
        "{\"ann\":false,\"id\":9000000000000001.0,\"k\":5,\"op\":\"query_text\",\
         \"text\":\"tarantino \\\"pulp\\\"\\nfiction\\r\\tback\\\\slash \\u0001 é🙂\"}"
    );
    assert_eq!(
        request(
            12,
            RequestBody::QueryVector {
                vector: vec![0.25, -1.5, 0.0, -0.0, f32::from_bits(1), f32::MAX, 0.1],
                k: 0,
                ann: None,
            }
        ),
        "{\"id\":12,\"k\":0,\"op\":\"query_vector\",\"vector\":[0.25,-1.5,0,-0.0,\
         1.401298464324817e-45,3.4028234663852886e38,0.10000000149011612]}"
    );
    assert_eq!(
        request(3, RequestBody::QueryVector { vector: vec![], k: 1, ann: Some(true) }),
        r#"{"ann":true,"id":3,"k":1,"op":"query_vector","vector":[]}"#
    );
}

#[test]
fn control_requests_encode_to_the_recorded_bytes() {
    assert_eq!(request(1, RequestBody::Ping), r#"{"id":1,"op":"ping"}"#);
    assert_eq!(request(0, RequestBody::Stats), r#"{"id":0,"op":"stats"}"#);
    assert_eq!(
        request(9_000_000_000_000_000, RequestBody::Reload),
        r#"{"id":9000000000000000.0,"op":"reload"}"#
    );
    assert_eq!(request(MAX_ID, RequestBody::Shutdown), r#"{"id":9007199254740991.0,"op":"shutdown"}"#);
}

#[test]
fn matches_responses_encode_to_the_recorded_bytes() {
    assert_eq!(
        response(0, ResponseBody::Matches { matches: vec![], batch: 0 }),
        r#"{"batch":0,"id":0,"matches":[],"ok":true}"#
    );
    assert_eq!(
        response(
            MAX_ID,
            ResponseBody::Matches {
                matches: vec![
                    (5, 1.0),
                    (0, 0.70710677),
                    (1 << 32, 0.0),
                    (9, -0.0),
                    (3, f32::from_bits(1)),
                    (17, f32::MIN_POSITIVE),
                    (2, -1.0),
                ],
                batch: 8,
            }
        ),
        "{\"batch\":8,\"id\":9007199254740991.0,\"matches\":[[5,1],[0,0.7071067690849304],\
         [4294967296,0],[9,-0.0],[3,1.401298464324817e-45],[17,1.1754943508222875e-38],\
         [2,-1]],\"ok\":true}"
    );
}

#[test]
fn control_responses_encode_to_the_recorded_bytes() {
    assert_eq!(response(1, ResponseBody::Pong), r#"{"id":1,"ok":true,"pong":true}"#);
    assert_eq!(
        response(9_000_000_000_000_000, ResponseBody::Stopping),
        r#"{"id":9000000000000000.0,"ok":true,"stopping":true}"#
    );
    assert_eq!(
        response(4, ResponseBody::Reloaded { generation: 17 }),
        r#"{"generation":17,"id":4,"ok":true,"reloaded":true}"#
    );
}

#[test]
fn stats_responses_encode_to_the_recorded_bytes() {
    let full = StatsSnapshot {
        requests: 100,
        batched_requests: 90,
        batches: 21,
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
        pooled: 5123,
        workers: 4,
        shards: 35,
        inflight: 6,
        queue_depth: 2,
        uptime_secs: 12.345678,
    };
    assert_eq!(
        response(2, ResponseBody::Stats(full)),
        "{\"id\":2,\"ok\":true,\"stats\":{\"ann_queries\":40,\"batched_requests\":90,\
         \"batches\":21,\"coalesced\":72,\"errors\":3,\"evicted\":2,\"exact_queries\":50,\
         \"generation\":4,\"inflight\":6,\"max_batch\":8,\"mean_batch\":4.285714285714286,\
         \"mean_pool\":128.075,\"pooled\":5123,\"queue_depth\":2,\"reload_failures\":1,\
         \"reloads\":4,\"requests\":100,\"shards\":35,\"shed\":11,\"uptime_secs\":12.345678,\
         \"workers\":4}}"
    );
    assert_eq!(
        response(0, ResponseBody::Stats(StatsSnapshot::default())),
        "{\"id\":0,\"ok\":true,\"stats\":{\"ann_queries\":0,\"batched_requests\":0,\
         \"batches\":0,\"coalesced\":0,\"errors\":0,\"evicted\":0,\"exact_queries\":0,\
         \"generation\":0,\"inflight\":0,\"max_batch\":0,\"mean_batch\":0,\"mean_pool\":0,\
         \"pooled\":0,\"queue_depth\":0,\"reload_failures\":0,\"reloads\":0,\"requests\":0,\
         \"shards\":0,\"shed\":0,\"uptime_secs\":0,\"workers\":0}}"
    );
}

#[test]
fn error_responses_encode_to_the_recorded_bytes() {
    assert_eq!(
        Response::error(7, ErrorCode::BadJson, "bad \u{0} byte \u{1f} in \"x\"\n\t\\").encode(),
        "{\"code\":\"bad_json\",\"error\":\"bad \\u0000 byte \\u001f in \\\"x\\\"\\n\\t\\\\\",\
         \"id\":7,\"ok\":false}"
    );
    let codes = [
        (ErrorCode::BadFrame, "bad_frame"),
        (ErrorCode::Oversized, "oversized"),
        (ErrorCode::BadJson, "bad_json"),
        (ErrorCode::BadRequest, "bad_request"),
        (ErrorCode::UnknownOp, "unknown_op"),
        (ErrorCode::UnknownId, "unknown_id"),
        (ErrorCode::BadVector, "bad_vector"),
        (ErrorCode::ShuttingDown, "shutting_down"),
        (ErrorCode::Overloaded, "overloaded"),
        (ErrorCode::ReloadFailed, "reload_failed"),
    ];
    for (code, spelling) in codes {
        assert_eq!(
            Response::error(0, code, "").encode(),
            format!(r#"{{"code":"{spelling}","error":"","id":0,"ok":false}}"#)
        );
    }
}
