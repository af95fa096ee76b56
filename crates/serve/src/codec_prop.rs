//! Generator-driven suite for the JSON codec and the protocol decoders,
//! on the vendored proptest shim.
//!
//! Each property draws one `u64` seed and builds its case from it, so a
//! failure names the seed; the shim does not shrink, so every assertion
//! also prints the offending bytes. What is held:
//!
//! * printed documents parse back to themselves (print∘parse is the
//!   identity), and so does every other spelling the grammar allows:
//!   whitespace, member order, duplicate keys (the last wins), escapes
//!   and number forms;
//! * the number scanner accepts exactly RFC 8259's grammar;
//! * `f32` scores survive the wire bit for bit;
//! * real frames, mutated by byte flips, inserts, deletions,
//!   truncations, splices and member reorders, and token soup: parsing
//!   never panics, and the streaming decoders agree with the tree-based
//!   reference decoders — equal values, or errors with equal code, id
//!   and message;
//! * the nesting limit holds (a value inside 64 containers is read,
//!   one inside 65 is refused), also inside a skipped unknown member.

use std::fmt::{Debug, Write as _};

use proptest::prelude::*;
use proptest::TestRng;

use crate::json::{parse, Json};
use crate::protocol::reference::{decode_request, decode_response};
use crate::protocol::{
    ErrorCode, MalformedMessage, Request, RequestBody, Response, ResponseBody, StatsSnapshot,
    ID_LIMIT,
};

/// The offending bytes, printable and exact.
fn shown(bytes: &[u8]) -> String {
    format!("{:?} = {bytes:?}", String::from_utf8_lossy(bytes))
}

fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
    from[rng.below(from.len() as u64) as usize]
}

/// A finite number of the kinds the wire carries: small integers, ids,
/// widened `f32` scores, and arbitrary `f64` bit patterns.
fn number(rng: &mut TestRng) -> f64 {
    loop {
        let n = match rng.below(5) {
            0 => rng.below(2000) as f64 - 1000.0,
            1 => f32::from_bits(rng.next_u64() as u32) as f64,
            2 => f64::from_bits(rng.next_u64()),
            3 => rng.unit_f64() * 2.0 - 1.0,
            _ => pick(
                rng,
                &[
                    0.0,
                    -0.0,
                    9e15,
                    (ID_LIMIT - 1) as f64,
                    ID_LIMIT as f64,
                    5e-324,
                    f64::MAX,
                ],
            ),
        };
        if n.is_finite() {
            return n;
        }
    }
}

fn finite_f32(rng: &mut TestRng) -> f32 {
    loop {
        let x = f32::from_bits(rng.next_u64() as u32);
        if x.is_finite() {
            return x;
        }
    }
}

fn string(rng: &mut TestRng) -> String {
    let len = rng.below(8);
    (0..len)
        .map(|_| {
            pick(
                rng,
                &[
                    'a', 'Z', '"', '\\', '/', '\n', '\u{1}', '\u{1f}', '\u{7f}', 'é', '🙂', ' ',
                ],
            )
        })
        .collect()
}

fn value(rng: &mut TestRng, depth: u32) -> Json {
    match rng.below(if depth == 0 { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.below(2) == 1),
        2 => Json::Num(number(rng)),
        3 => Json::Str(string(rng)),
        4 => Json::Arr((0..rng.below(4)).map(|_| value(rng, depth - 1)).collect()),
        _ => Json::Obj(
            (0..rng.below(4))
                .map(|_| (string(rng), value(rng, depth - 1)))
                .collect(),
        ),
    }
}

fn whitespace(rng: &mut TestRng, out: &mut String) {
    out.push_str(pick(rng, &["", "", "", " ", "\n", "\t", "\r\n  "]));
}

/// Prints `v` in a randomly chosen spelling the grammar allows: random
/// whitespace, members in random order, an overridden duplicate before
/// some members, escaped characters and alternative number forms.
fn loose(rng: &mut TestRng, v: &Json, out: &mut String) {
    whitespace(rng, out);
    match v {
        Json::Null | Json::Bool(_) => out.push_str(&v.encode()),
        Json::Num(n) => match rng.below(4) {
            0 => out.push_str(&v.encode()),
            1 => write!(out, "{n}").unwrap(),
            2 => write!(out, "{n:e}").unwrap(),
            _ => write!(out, "{n:E}").unwrap(),
        },
        Json::Str(s) => loose_str(rng, s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                loose(rng, item, out);
            }
            whitespace(rng, out);
            out.push(']');
        }
        Json::Obj(members) => {
            let mut order: Vec<_> = members.iter().collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i as u64 + 1) as usize);
            }
            out.push('{');
            let mut first = true;
            for (k, v) in order {
                let dup = rng.below(4) == 0;
                for v in [dup.then(|| value(rng, 1)), Some(v.clone())]
                    .into_iter()
                    .flatten()
                {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    whitespace(rng, out);
                    loose_str(rng, k, out);
                    whitespace(rng, out);
                    out.push(':');
                    loose(rng, &v, out);
                }
            }
            whitespace(rng, out);
            out.push('}');
        }
    }
    whitespace(rng, out);
}

fn loose_str(rng: &mut TestRng, s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        if rng.below(4) == 0 {
            for unit in c.encode_utf16(&mut [0; 2]) {
                if rng.below(2) == 0 {
                    write!(out, "\\u{unit:04x}").unwrap();
                } else {
                    write!(out, "\\u{unit:04X}").unwrap();
                }
            }
            continue;
        }
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '/' => out.push_str(pick(rng, &["/", "\\/"])),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn ann(rng: &mut TestRng) -> Option<bool> {
    pick(rng, &[None, Some(true), Some(false)])
}

fn id(rng: &mut TestRng) -> u64 {
    let any = rng.below(ID_LIMIT);
    pick(rng, &[0, 1, 9_000_000_000_000_000, ID_LIMIT - 1, any])
}

fn request(rng: &mut TestRng) -> Request {
    let k = rng.below(50) as usize;
    let body = match rng.below(7) {
        0 => RequestBody::QueryId {
            doc: rng.below(1000) as usize,
            k,
            ann: ann(rng),
        },
        1 => RequestBody::QueryText {
            text: string(rng),
            k,
            ann: ann(rng),
        },
        2 => RequestBody::QueryVector {
            vector: (0..rng.below(6)).map(|_| finite_f32(rng)).collect(),
            k,
            ann: ann(rng),
        },
        3 => RequestBody::Ping,
        4 => RequestBody::Stats,
        5 => RequestBody::Reload,
        _ => RequestBody::Shutdown,
    };
    Request { id: id(rng), body }
}

const CODES: [ErrorCode; 10] = [
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
];

fn response(rng: &mut TestRng) -> Response {
    let mut count = || rng.below(1 << 20);
    let stats = StatsSnapshot {
        requests: count(),
        batched_requests: count(),
        batches: count(),
        coalesced: count(),
        errors: count(),
        max_batch: count(),
        shed: count(),
        evicted: count(),
        reloads: count(),
        reload_failures: count(),
        generation: count(),
        ann_queries: count(),
        exact_queries: count(),
        pooled: count(),
        workers: count(),
        shards: count(),
        inflight: count(),
        queue_depth: count(),
        uptime_secs: rng.unit_f64() * 1e6,
    };
    let body = match rng.below(6) {
        0 => ResponseBody::Matches {
            matches: (0..rng.below(25))
                .map(|_| (rng.below(1 << 40) as usize, finite_f32(rng)))
                .collect(),
            batch: rng.below(64) as usize,
        },
        1 => ResponseBody::Pong,
        2 => ResponseBody::Stats(stats),
        3 => ResponseBody::Reloaded {
            generation: rng.below(1000),
        },
        4 => ResponseBody::Stopping,
        _ => ResponseBody::Error {
            code: pick(rng, &CODES),
            message: string(rng),
        },
    };
    Response { id: id(rng), body }
}

/// Holds a streaming decoder's answer to the reference decoder's:
/// equal values (compared bit for bit through `Debug`), or errors with
/// equal code, id and message.
fn agree<T: Debug>(
    seed: u64,
    bytes: &[u8],
    got: Result<T, MalformedMessage>,
    want: Result<T, MalformedMessage>,
) {
    match (&got, &want) {
        (Ok(g), Ok(w)) => assert_eq!(
            format!("{g:?}"),
            format!("{w:?}"),
            "seed {seed}: values differ on {}",
            shown(bytes)
        ),
        (Err(g), Err(w)) => assert_eq!(
            (g.code, g.id, &g.message),
            (w.code, w.id, &w.message),
            "seed {seed}: errors differ on {}",
            shown(bytes)
        ),
        _ => panic!(
            "seed {seed}: streaming {got:?} but reference {want:?} on {}",
            shown(bytes)
        ),
    }
}

/// Both decoders, streaming and reference, on any bytes.
fn decoders_agree(seed: u64, bytes: &[u8]) {
    if let Ok(text) = std::str::from_utf8(bytes) {
        let _ = parse(text); // must not panic
    }
    agree(seed, bytes, Request::decode(bytes), decode_request(bytes));
    agree(seed, bytes, Response::decode(bytes), decode_response(bytes));
}

/// One random edit of a frame's bytes.
fn mutate(rng: &mut TestRng, bytes: &mut Vec<u8>) {
    const NOTABLE: &[u8] = b"{}[],:\"\\ -+.0123456789eEtrufalsn\x00\x1f\xc3\xff";
    let at = |rng: &mut TestRng, len: usize| rng.below(len as u64 + 1) as usize;
    match rng.below(5) {
        0 if !bytes.is_empty() => {
            let i = at(rng, bytes.len() - 1);
            bytes[i] ^= 1 << rng.below(8);
        }
        1 => {
            let i = at(rng, bytes.len());
            bytes.insert(i, pick(rng, NOTABLE));
        }
        2 if !bytes.is_empty() => {
            let i = at(rng, bytes.len() - 1);
            bytes.remove(i);
        }
        3 => {
            let len = at(rng, bytes.len());
            bytes.truncate(len);
        }
        _ => {
            let (a, b) = (at(rng, bytes.len()), at(rng, bytes.len()));
            let piece = bytes[a.min(b)..a.max(b)].to_vec();
            let i = at(rng, bytes.len());
            bytes.splice(i..i, piece);
        }
    }
}

/// The frame with its members (at every level) reordered, respaced and
/// respelled, plus an unknown member the decoders must skip.
fn reordered(rng: &mut TestRng, frame: &str) -> String {
    let mut v = parse(frame).expect("an encoded frame parses");
    if let Json::Obj(members) = &mut v {
        let unknown = pick(rng, &["x", "extra", "Id", "OK", ""]);
        members.insert(unknown.to_string(), value(rng, 2));
    }
    let mut out = String::new();
    loose(rng, &v, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn documents_parse_back_to_themselves_in_every_spelling(seed in 0u64..u64::MAX) {
        let rng = &mut TestRng::new(seed);
        let v = value(rng, 4);
        let printed = v.encode();
        let back = parse(&printed)
            .unwrap_or_else(|e| panic!("seed {seed}: {e} on {}", shown(printed.as_bytes())));
        prop_assert_eq!(back.encode(), printed.clone(), "seed {}: print∘parse", seed);
        let mut spelled = String::new();
        loose(rng, &v, &mut spelled);
        let back = parse(&spelled)
            .unwrap_or_else(|e| panic!("seed {seed}: {e} on {}", shown(spelled.as_bytes())));
        prop_assert_eq!(back.encode(), printed, "seed {}: {}", seed, shown(spelled.as_bytes()));
    }

    #[test]
    fn the_number_scanner_accepts_exactly_rfc_8259(seed in 0u64..u64::MAX) {
        let rng = &mut TestRng::new(seed);
        let token: String = (0..1 + rng.below(8))
            .map(|_| pick(rng, &['-', '+', '.', 'e', 'E', '0', '0', '1', '5', '9']))
            .collect();
        let want = rfc_8259_number(&token)
            .then(|| token.parse::<f64>().unwrap())
            .filter(|n| n.is_finite());
        let got = parse(&token).ok().and_then(|v| v.as_num());
        prop_assert_eq!(
            got.map(f64::to_bits),
            want.map(f64::to_bits),
            "seed {}: {:?}",
            seed,
            token
        );
        // Inside a request, in a member nobody reads, it is the same verdict.
        let payload = format!(r#"{{"id":1,"op":"ping","x":{token}}}"#);
        let err = Request::decode(payload.as_bytes()).err().map(|e| (e.code, e.id));
        prop_assert_eq!(err, want.is_none().then_some((ErrorCode::BadJson, 0)), "seed {}", seed);
    }

    #[test]
    fn f32_scores_survive_the_wire_bit_for_bit(seed in 0u64..u64::MAX) {
        let rng = &mut TestRng::new(seed);
        let matches: Vec<(usize, f32)> = (0..1 + rng.below(30))
            .map(|i| (i as usize, finite_f32(rng)))
            .collect();
        let frame = Response { id: 1, body: ResponseBody::Matches { matches: matches.clone(), batch: 1 } }
            .encode();
        for decoded in [Response::decode(frame.as_bytes()), decode_response(frame.as_bytes())] {
            let Ok(Response { body: ResponseBody::Matches { matches: back, .. }, .. }) = decoded else {
                panic!("seed {seed}: {decoded:?} on {}", shown(frame.as_bytes()));
            };
            let bits = |m: &[(usize, f32)]| m.iter().map(|&(t, s)| (t, s.to_bits())).collect::<Vec<_>>();
            prop_assert_eq!(bits(&back), bits(&matches), "seed {}", seed);
        }
    }

    #[test]
    fn frames_decode_in_any_member_order_like_the_reference(seed in 0u64..u64::MAX) {
        let rng = &mut TestRng::new(seed);
        let (request, response) = (request(rng), response(rng));
        for frame in [request.encode(), response.encode()] {
            decoders_agree(seed, frame.as_bytes());
            let respelled = reordered(rng, &frame);
            decoders_agree(seed, respelled.as_bytes());
            // Order, spacing, escapes and unknown members change nothing.
            let bytes = respelled.as_bytes();
            agree(seed, bytes, Request::decode(bytes), Request::decode(frame.as_bytes()));
            agree(seed, bytes, Response::decode(bytes), Response::decode(frame.as_bytes()));
        }
        prop_assert_eq!(Request::decode(request.encode().as_bytes()), Ok(request), "seed {}", seed);
        prop_assert_eq!(Response::decode(response.encode().as_bytes()), Ok(response), "seed {}", seed);
    }

    #[test]
    fn mutated_frames_decode_like_the_reference(seed in 0u64..u64::MAX) {
        let rng = &mut TestRng::new(seed);
        let frame = if rng.below(2) == 0 { request(rng).encode() } else { response(rng).encode() };
        let mut bytes = if rng.below(4) == 0 {
            reordered(rng, &frame).into_bytes()
        } else {
            frame.into_bytes()
        };
        for _ in 0..1 + rng.below(3) {
            mutate(rng, &mut bytes);
        }
        decoders_agree(seed, &bytes);
    }

    #[test]
    fn token_soup_decodes_like_the_reference(seed in 0u64..u64::MAX) {
        let rng = &mut TestRng::new(seed);
        const TOKENS: &[&str] = &[
            "{", "}", "[", "]", ",", ":", "\"", " ", "\"id\"", "\"op\"", "\"ping\"", "\"ok\"",
            "\"matches\"", "\"stats\"", "\"batch\"", "\"x\"", "true", "false", "null", "0",
            "1", "-", ".", "e", "9007199254740993", "\\", "\\u", "d83d", "\"\\ud800\"",
        ];
        let soup: String = (0..1 + rng.below(24)).map(|_| pick(rng, TOKENS)).collect();
        decoders_agree(seed, soup.as_bytes());
    }
}

/// RFC 8259's number grammar, written out independently of the scanner.
fn rfc_8259_number(s: &str) -> bool {
    let digits = |t: &str| !t.is_empty() && t.bytes().all(|b| b.is_ascii_digit());
    let s = s.strip_prefix('-').unwrap_or(s);
    let (mantissa, exponent) = match s.find(['e', 'E']) {
        Some(i) => (&s[..i], Some(&s[i + 1..])),
        None => (s, None),
    };
    let (int, frac) = match mantissa.split_once('.') {
        Some((int, frac)) => (int, Some(frac)),
        None => (mantissa, None),
    };
    digits(int)
        && (int == "0" || !int.starts_with('0'))
        && frac.is_none_or(digits)
        && exponent.is_none_or(|e| digits(e.strip_prefix(['+', '-']).unwrap_or(e)))
}

#[test]
fn nesting_is_read_to_64_containers_and_refused_at_65_even_when_skipped() {
    let arrays = |n: usize| "[".repeat(n) + "1" + &"]".repeat(n);
    let objects = |n: usize| "{\"a\":".repeat(n) + "1" + &"}".repeat(n);
    for nest in [arrays, objects] {
        assert!(parse(&nest(64)).is_ok());
        assert_eq!(parse(&nest(65)).unwrap_err().what, "nesting too deep");
        // In an unknown member of a request the top-level object is one
        // more container around the skipped value.
        for (inner, ok) in [(63, true), (64, false)] {
            let payload = format!(r#"{{"id":5,"op":"ping","x":{}}}"#, nest(inner));
            let got = Request::decode(payload.as_bytes());
            match ok {
                true => assert_eq!(
                    got,
                    Ok(Request {
                        id: 5,
                        body: RequestBody::Ping
                    })
                ),
                false => {
                    let err = got.unwrap_err();
                    assert_eq!((err.code, err.id), (ErrorCode::BadJson, 0), "{payload}");
                    assert!(err.message.contains("nesting too deep"), "{}", err.message);
                }
            }
            decoders_agree(0, payload.as_bytes());
            let payload = format!(r#"{{"id":5,"ok":true,"pong":true,"x":{}}}"#, nest(inner));
            assert_eq!(
                Response::decode(payload.as_bytes()).is_ok(),
                ok,
                "{payload}"
            );
            decoders_agree(0, payload.as_bytes());
        }
    }
}
