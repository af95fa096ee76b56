//! The tree-based decoders: parse the whole payload into a [`Json`]
//! value, then look members up in it. These are the bodies
//! `Request::decode` and `Response::decode` had before they read the
//! payload through [`Reader`](crate::json::Reader) directly, kept
//! verbatim (plus the 2^53 id bound both now share) so the codec suite
//! can hold the streaming decoders to them: on every payload, equal
//! values, or errors with equal code and id.

use super::{
    malformed, ErrorCode, MalformedMessage, Request, RequestBody, Response, ResponseBody,
    StatsSnapshot, DEFAULT_K, ID_LIMIT,
};
use crate::json::{parse, Json};

/// Extracts `id` (default 0) from a JSON message, if it is an object.
fn message_id(v: &Json) -> u64 {
    v.get("id").and_then(Json::as_u64).unwrap_or(0)
}

fn parse_payload(payload: &[u8]) -> Result<Json, MalformedMessage> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| malformed(ErrorCode::BadJson, 0, "payload is not UTF-8"))?;
    parse(text).map_err(|e| malformed(ErrorCode::BadJson, 0, e.to_string()))
}

fn field_k(v: &Json, id: u64) -> Result<usize, MalformedMessage> {
    match v.get("k") {
        None => Ok(DEFAULT_K),
        Some(k) => k
            .as_usize()
            .ok_or_else(|| malformed(ErrorCode::BadRequest, id, "k must be a non-negative integer")),
    }
}

fn field_ann(v: &Json, id: u64) -> Result<Option<bool>, MalformedMessage> {
    match v.get("ann") {
        None => Ok(None),
        Some(Json::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(malformed(ErrorCode::BadRequest, id, "ann must be a boolean")),
    }
}

/// The tree-based `Request::decode`.
pub fn decode_request(payload: &[u8]) -> Result<Request, MalformedMessage> {
    let v = parse_payload(payload)?;
    if !matches!(v, Json::Obj(_)) {
        return Err(malformed(ErrorCode::BadRequest, 0, "request must be an object"));
    }
    if v.get("id").and_then(Json::as_num).is_some_and(|n| n >= ID_LIMIT as f64) {
        return Err(malformed(ErrorCode::BadRequest, 0, "id must be below 2^53"));
    }
    let id = message_id(&v);
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| malformed(ErrorCode::BadRequest, id, "missing op field"))?;
    let body = match op {
        "query_id" => RequestBody::QueryId {
            doc: v
                .get("doc")
                .and_then(Json::as_usize)
                .ok_or_else(|| malformed(ErrorCode::BadRequest, id, "query_id requires a doc index"))?,
            k: field_k(&v, id)?,
            ann: field_ann(&v, id)?,
        },
        "query_text" => RequestBody::QueryText {
            text: v
                .get("text")
                .and_then(Json::as_str)
                .ok_or_else(|| malformed(ErrorCode::BadRequest, id, "query_text requires a text string"))?
                .to_string(),
            k: field_k(&v, id)?,
            ann: field_ann(&v, id)?,
        },
        "query_vector" => {
            let arr = v
                .get("vector")
                .and_then(Json::as_arr)
                .ok_or_else(|| malformed(ErrorCode::BadRequest, id, "query_vector requires a vector array"))?;
            let mut vector = Vec::with_capacity(arr.len());
            for x in arr {
                vector.push(x.as_num().ok_or_else(|| {
                    malformed(ErrorCode::BadRequest, id, "vector elements must be numbers")
                })? as f32);
            }
            RequestBody::QueryVector {
                vector,
                k: field_k(&v, id)?,
                ann: field_ann(&v, id)?,
            }
        }
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

/// The tree-based `StatsSnapshot` reader.
fn stats_from_json(v: &Json) -> Option<StatsSnapshot> {
    // Counters added after the first release (the ANN trio, then
    // the scoring-pool quartet) default to zero so snapshots
    // emitted by older daemons still parse.
    let u64_or_zero = |key: &str| v.get(key).and_then(Json::as_u64).unwrap_or(0);
    Some(StatsSnapshot {
        requests: v.get("requests")?.as_u64()?,
        batched_requests: v.get("batched_requests")?.as_u64()?,
        batches: v.get("batches")?.as_u64()?,
        coalesced: v.get("coalesced")?.as_u64()?,
        errors: v.get("errors")?.as_u64()?,
        max_batch: v.get("max_batch")?.as_u64()?,
        shed: v.get("shed")?.as_u64()?,
        evicted: v.get("evicted")?.as_u64()?,
        reloads: v.get("reloads")?.as_u64()?,
        reload_failures: v.get("reload_failures")?.as_u64()?,
        generation: v.get("generation")?.as_u64()?,
        ann_queries: u64_or_zero("ann_queries"),
        exact_queries: u64_or_zero("exact_queries"),
        pooled: u64_or_zero("pooled"),
        workers: u64_or_zero("workers"),
        shards: u64_or_zero("shards"),
        inflight: u64_or_zero("inflight"),
        queue_depth: u64_or_zero("queue_depth"),
        uptime_secs: v.get("uptime_secs")?.as_num()?,
    })
}

/// The tree-based `Response::decode`.
pub fn decode_response(payload: &[u8]) -> Result<Response, MalformedMessage> {
    let v = parse_payload(payload)?;
    let id = message_id(&v);
    let bad = |msg: &str| malformed(ErrorCode::BadRequest, id, msg);
    let ok = v
        .get("ok")
        .and_then(|b| match b {
            Json::Bool(b) => Some(*b),
            _ => None,
        })
        .ok_or_else(|| bad("missing ok field"))?;
    if !ok {
        let code = v
            .get("code")
            .and_then(Json::as_str)
            .and_then(ErrorCode::parse)
            .ok_or_else(|| bad("error response without a known code"))?;
        let message = v
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        return Ok(Response {
            id,
            body: ResponseBody::Error { code, message },
        });
    }
    if let Some(arr) = v.get("matches").and_then(Json::as_arr) {
        let mut matches = Vec::with_capacity(arr.len());
        for pair in arr {
            let pair = pair.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                bad("matches entries must be [target, score] pairs")
            })?;
            let t = pair[0].as_usize().ok_or_else(|| bad("bad target index"))?;
            let s = pair[1].as_num().ok_or_else(|| bad("bad score"))? as f32;
            matches.push((t, s));
        }
        let batch = v
            .get("batch")
            .and_then(Json::as_usize)
            .ok_or_else(|| bad("matches response without batch size"))?;
        return Ok(Response {
            id,
            body: ResponseBody::Matches { matches, batch },
        });
    }
    if v.get("pong").is_some() {
        return Ok(Response {
            id,
            body: ResponseBody::Pong,
        });
    }
    if let Some(stats) = v.get("stats") {
        let stats = stats_from_json(stats).ok_or_else(|| bad("bad stats object"))?;
        return Ok(Response {
            id,
            body: ResponseBody::Stats(stats),
        });
    }
    if v.get("reloaded").is_some() {
        let generation = v
            .get("generation")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("reloaded response without a generation"))?;
        return Ok(Response {
            id,
            body: ResponseBody::Reloaded { generation },
        });
    }
    if v.get("stopping").is_some() {
        return Ok(Response {
            id,
            body: ResponseBody::Stopping,
        });
    }
    Err(bad("unrecognized response shape"))
}
