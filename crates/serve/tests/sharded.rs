//! The scale-out serving path, pinned: several workers taking batches
//! at once must be invisible on the wire (bit-identical to a single
//! worker and to the facade), the TCP front
//! must speak the exact same protocol, and a saturated many-client run
//! must drain cleanly with sane backpressure accounting.

#![cfg(unix)]

use std::path::PathBuf;
use std::time::Duration;

use tdmatch_core::artifact::MatchArtifact;
use tdmatch_core::serving::Matcher;
use tdmatch_serve::batch::BatchOptions;
use tdmatch_serve::client::{Client, RetryPolicy};
use tdmatch_serve::server::{ServeOptions, Server};

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// A synthetic artifact: `targets` first-corpus rows (some missing) and
/// `queries` second-corpus documents.
fn artifact(targets: usize, queries: usize, dim: usize) -> MatchArtifact {
    let mut state = 0x5eed_cafe_u64;
    let row = |state: &mut u64| -> Vec<f32> {
        (0..dim)
            .map(|_| (xorshift(state) >> 40) as f32 / (1u64 << 24) as f32 - 0.5)
            .collect()
    };
    let first: Vec<Option<Vec<f32>>> = (0..targets)
        .map(|i| (i % 11 != 3).then(|| row(&mut state)))
        .collect();
    let second: Vec<Option<Vec<f32>>> = (0..queries).map(|_| Some(row(&mut state))).collect();
    let vocab = vec![
        ("alpha".to_string(), row(&mut state)),
        ("beta".to_string(), row(&mut state)),
    ];
    MatchArtifact::new(dim, vocab, first, second)
}

fn socket_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "tdmatch-sharded-{tag}-{}.sock",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    path
}

fn bits(ranked: &[(usize, f32)]) -> Vec<(usize, u32)> {
    ranked.iter().map(|&(t, s)| (t, s.to_bits())).collect()
}

/// Runs `clients` concurrent client threads against a daemon, each
/// issuing `per_client` queries with varying doc ids and k, and asserts
/// every wire answer bit-matches the facade oracle. Returns nothing —
/// failures panic in the client threads and propagate through join.
fn hammer_and_verify(
    socket: &std::path::Path,
    oracle: &[Vec<Vec<(usize, u32)>>], // oracle[q][k_idx]
    ks: &[usize],
    query_docs: usize,
    clients: usize,
    per_client: usize,
) {
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let socket = socket.to_path_buf();
            let oracle = oracle.to_vec();
            let ks = ks.to_vec();
            std::thread::spawn(move || {
                let mut client = Client::connect(&socket).expect("connect");
                client.set_retry_policy(RetryPolicy::with_retries(8));
                for i in 0..per_client {
                    let q = (c * 7 + i) % query_docs;
                    let k_idx = (c + i) % ks.len();
                    let (got, _batch) = client.query_id(q, ks[k_idx]).expect("query");
                    assert_eq!(
                        bits(&got),
                        oracle[q][k_idx],
                        "client {c} iter {i}: doc {q} k {}",
                        ks[k_idx]
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
}

/// Tentpole pin: four workers and one (wide batches either way)
/// produce byte-for-byte identical wire
/// rankings — both equal to the facade — even with heterogeneous k in
/// one batch.
#[test]
fn sharded_wire_output_is_bit_identical_to_single_thread_and_facade() {
    let art = artifact(500, 16, 12);
    let reference = Matcher::new(art.clone());
    let ks = [3usize, 7, 12];
    let oracle: Vec<Vec<Vec<(usize, u32)>>> = (0..16)
        .map(|q| {
            ks.iter()
                .map(|&k| bits(&reference.query_by_id(q, k).expect("doc exists")))
                .collect()
        })
        .collect();

    for (tag, workers) in [("serial", 1usize), ("pooled", 4usize)] {
        let socket = socket_path(tag);
        let server = Server::start(
            Matcher::new(art.clone()),
            ServeOptions::at(&socket).workers(workers).batch(BatchOptions {
                window: Duration::from_millis(2),
                max_batch: 32,
            }),
        )
        .expect("daemon starts");
        hammer_and_verify(&socket, &oracle, &ks, 16, 8, 24);
        let mut client = Client::connect(&socket).expect("connect");
        let stats = client.stats().expect("stats");
        assert_eq!(stats.workers, workers as u64);
        assert_eq!(stats.requests, 8 * 24, "24 queries × 8 clients");
        assert_eq!(stats.inflight, 0, "every admitted query was answered");
        assert_eq!(stats.queue_depth, 0, "nothing left queued");
        assert!(stats.shards >= stats.batches);
        client.shutdown().expect("shutdown");
        server.join();
    }
}

/// The TCP front speaks the identical protocol: queries, ping, stats,
/// and shutdown all work over `--tcp`, with answers bit-identical to
/// the facade (and therefore to the Unix socket).
#[test]
fn tcp_front_answers_bit_identically_over_the_same_protocol() {
    let art = artifact(300, 8, 8);
    let reference = Matcher::new(art.clone());
    let oracle: Vec<Vec<(usize, u32)>> = (0..8)
        .map(|q| bits(&reference.query_by_id(q, 5).expect("doc exists")))
        .collect();

    let socket = socket_path("tcp");
    // Port 0: the OS picks a free port, surfaced via Server::tcp_addr.
    let server = Server::start(
        Matcher::new(art),
        ServeOptions::at(&socket).workers(2).tcp("127.0.0.1:0"),
    )
    .expect("daemon starts");
    let addr = server.tcp_addr().expect("tcp listener bound");

    let mut tcp = Client::connect_tcp(addr.to_string()).expect("tcp connect");
    tcp.ping().expect("ping over tcp");
    let mut unix = Client::connect(&socket).expect("unix connect");
    for (q, want) in oracle.iter().enumerate() {
        let (over_tcp, _) = tcp.query_id(q, 5).expect("tcp query");
        let (over_unix, _) = unix.query_id(q, 5).expect("unix query");
        assert_eq!(&bits(&over_tcp), want, "tcp doc {q}");
        assert_eq!(&bits(&over_unix), want, "unix doc {q}");
    }
    let stats = tcp.stats().expect("stats over tcp");
    assert_eq!(stats.requests, 16);
    assert_eq!(stats.inflight, 0);

    tcp.shutdown().expect("shutdown over tcp");
    server.join();
}

/// Saturated smoke (also run in CI): 16 clients hammering a pooled
/// daemon with a tight inflight budget. Everything either answers
/// bit-correctly or sheds retryably, and the backpressure gauges settle
/// to zero.
#[test]
fn sixteen_saturating_clients_drain_cleanly_with_sane_accounting() {
    let art = artifact(400, 16, 8);
    let reference = Matcher::new(art.clone());
    let oracle: Vec<Vec<(usize, u32)>> = (0..16)
        .map(|q| bits(&reference.query_by_id(q, 4).expect("doc exists")))
        .collect();

    let socket = socket_path("saturated");
    let server = Server::start(
        Matcher::new(art),
        ServeOptions::at(&socket)
            .workers(4)
            .max_inflight(64)
            .batch(BatchOptions {
                window: Duration::from_micros(500),
                max_batch: 32,
            }),
    )
    .expect("daemon starts");

    let handles: Vec<_> = (0..16)
        .map(|c| {
            let socket = socket.clone();
            let oracle = oracle.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&socket).expect("connect");
                // Shed responses (`overloaded`) retry with backoff, so
                // saturation degrades to latency, never to errors.
                client.set_retry_policy(RetryPolicy::with_retries(10));
                for i in 0..25 {
                    let q = (c + i) % 16;
                    let (got, _) = client.query_id(q, 4).expect("query");
                    assert_eq!(bits(&got), oracle[q], "client {c} iter {i}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    let mut client = Client::connect(&socket).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.workers, 4);
    assert!(stats.shards >= stats.batches, "the pool scored every batch");
    assert_eq!(stats.inflight, 0, "no admitted query left unanswered");
    assert_eq!(stats.queue_depth, 0, "queues drained");
    assert_eq!(stats.errors, 0, "sheds are not errors");
    // 16×25 successes; sheds add retried requests on top.
    assert!(stats.requests >= 16 * 25);

    client.shutdown().expect("shutdown");
    server.join();
}
