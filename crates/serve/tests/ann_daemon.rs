//! End-to-end ANN serving: a daemon over an indexed artifact answers
//! ANN-mode queries bit-identically to the exact scan when the pool
//! covers the corpus, honors per-request mode overrides, counts
//! retrieval modes in its stats, and falls back to the exact scan when
//! the artifact carries no index.

#![cfg(unix)]

use std::path::PathBuf;

use tdmatch_core::artifact::MatchArtifact;
use tdmatch_core::serving::Matcher;
use tdmatch_embed::ann::HnswParams;
use tdmatch_serve::client::Client;
use tdmatch_serve::server::{ServeOptions, Server};

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// A synthetic artifact with `targets` first-corpus rows (some missing)
/// and a persisted HNSW index over them.
fn indexed_artifact(targets: usize, dim: usize) -> MatchArtifact {
    let mut state = 0x5eed_1234_u64;
    let row = |state: &mut u64| -> Vec<f32> {
        (0..dim)
            .map(|_| (xorshift(state) >> 40) as f32 / (1u64 << 24) as f32 - 0.5)
            .collect()
    };
    let first: Vec<Option<Vec<f32>>> = (0..targets)
        .map(|i| (i % 13 != 5).then(|| row(&mut state)))
        .collect();
    let second: Vec<Option<Vec<f32>>> = (0..4).map(|_| Some(row(&mut state))).collect();
    let vocab = vec![
        ("alpha".to_string(), row(&mut state)),
        ("beta".to_string(), row(&mut state)),
    ];
    let mut artifact = MatchArtifact::new(dim, vocab, first, second);
    artifact.build_ann(&HnswParams::default());
    artifact
}

fn socket_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "tdmatch-ann-{tag}-{}.sock",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    path
}

fn bits(ranked: &[(usize, f32)]) -> Vec<(usize, u32)> {
    ranked.iter().map(|&(t, s)| (t, s.to_bits())).collect()
}

#[test]
fn daemon_ann_mode_rescoring_overrides_and_counters() {
    let artifact = indexed_artifact(200, 8);
    let reference = Matcher::new(artifact.clone());
    let exact: Vec<_> = (0..2)
        .map(|q| reference.query_by_id(q, 5).expect("doc exists"))
        .collect();

    let socket = socket_path("modes");
    // ANN is the daemon default; the pool covers the whole corpus, so
    // every ANN answer must be bit-identical to the exact scan.
    let server = Server::start(
        Matcher::new(artifact),
        ServeOptions::at(&socket).ann_pool(1000),
    )
    .expect("daemon starts");

    let mut client = Client::connect(&socket).expect("connect");
    for (q, want) in exact.iter().enumerate() {
        let (got, _) = client.query_id(q, 5).expect("ann query");
        assert_eq!(bits(&got), bits(want), "query {q} under default ANN mode");
    }
    // Per-request override: force the exact path on an ANN daemon.
    client.set_ann(Some(false));
    let (got, _) = client.query_id(0, 5).expect("exact query");
    assert_eq!(bits(&got), bits(&exact[0]));
    // And opt back into ANN explicitly.
    client.set_ann(Some(true));
    let (got, _) = client.query_id(1, 5).expect("ann query");
    assert_eq!(bits(&got), bits(&exact[1]));

    let stats = client.stats().expect("stats");
    assert_eq!(stats.ann_queries, 3, "two defaulted + one explicit ANN");
    assert_eq!(stats.exact_queries, 1, "one forced-exact");
    // Each ANN query pooled every valid row (pool ≥ corpus).
    assert!(stats.mean_pool() > 100.0, "mean pool {}", stats.mean_pool());

    client.shutdown().expect("shutdown");
    server.join();
}

/// Coverage for several workers: batches that partition by retrieval
/// mode, taken by four workers at once, must still answer every
/// request bit-identically to the facade.
#[test]
fn mixed_mode_batches_under_a_worker_pool_stay_bit_identical() {
    use tdmatch_serve::batch::BatchOptions;

    let artifact = indexed_artifact(300, 8);
    let reference = Matcher::new(artifact.clone());
    // Pool covers the corpus, so ANN-mode answers are bit-identical to
    // exact answers — one oracle serves both partitions.
    let oracle: Vec<Vec<(usize, u32)>> = (0..4)
        .map(|q| bits(&reference.query_by_id(q, 7).expect("doc exists")))
        .collect();

    let socket = socket_path("sharded-mixed");
    let server = Server::start(
        Matcher::new(artifact),
        ServeOptions::at(&socket)
            .ann_pool(1000)
            .workers(4)
            .batch(BatchOptions {
                window: std::time::Duration::from_millis(2),
                max_batch: 32,
            }),
    )
    .expect("daemon starts");

    // 8 concurrent clients, each alternating the per-request mode so
    // coalesced batches partition by mode and shard across workers.
    let handles: Vec<_> = (0..8)
        .map(|c| {
            let socket = socket.clone();
            let oracle = oracle.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&socket).expect("connect");
                for i in 0..30 {
                    let q = (c + i) % 4;
                    client.set_ann(match i % 3 {
                        0 => None,        // daemon default (ANN)
                        1 => Some(true),  // explicit ANN
                        _ => Some(false), // forced exact
                    });
                    let (got, _) = client.query_id(q, 7).expect("query");
                    assert_eq!(bits(&got), oracle[q], "client {c} query {q} iter {i}");
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
    assert_eq!(stats.ann_queries + stats.exact_queries, 240);
    assert!(stats.exact_queries >= 80, "forced-exact partition scored");
    assert!(stats.shards >= stats.batches, "every batch ran ≥ 1 shard");
    assert_eq!(stats.inflight, 0, "all admitted queries answered");

    client.shutdown().expect("shutdown");
    server.join();
}

/// The per-snapshot guarantee survives a mid-batch `reload` under the
/// worker pool: every answer must bit-match one generation's oracle in
/// full — never a mix of old and new snapshots within one ranking.
#[test]
fn mid_batch_reload_answers_from_exactly_one_snapshot() {
    use tdmatch_serve::batch::BatchOptions;

    let dir = std::env::temp_dir().join(format!("tdmatch-reload-shard-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("artifact.tdm");

    // Generation 0 and its replacement: same dim, different corpora, so
    // their rankings differ and a mixed answer would match neither.
    let old = indexed_artifact(200, 8);
    let new = indexed_artifact(120, 8);
    let oracle_old = bits(&Matcher::new(old.clone()).query_by_id(0, 6).expect("doc"));
    let oracle_new = bits(&Matcher::new(new.clone()).query_by_id(0, 6).expect("doc"));
    assert_ne!(oracle_old, oracle_new, "the two snapshots must disagree");

    old.save(&path).expect("save generation 0");
    let socket = socket_path("sharded-reload");
    let server = Server::start(
        Matcher::new(old),
        ServeOptions::at(&socket)
            .artifact(&path)
            .ann_pool(1000)
            .workers(4)
            .batch(BatchOptions {
                window: std::time::Duration::from_millis(1),
                max_batch: 32,
            }),
    )
    .expect("daemon starts");
    new.save(&path).expect("publish generation 1");

    // Queriers race the reloader; each answer must equal one oracle.
    let queriers: Vec<_> = (0..4)
        .map(|c| {
            let socket = socket.clone();
            let (oracle_old, oracle_new) = (oracle_old.clone(), oracle_new.clone());
            std::thread::spawn(move || {
                let mut client = Client::connect(&socket).expect("connect");
                for i in 0..50 {
                    let (got, _) = client.query_id(0, 6).expect("query");
                    let got = bits(&got);
                    assert!(
                        got == oracle_old || got == oracle_new,
                        "client {c} iter {i}: answer mixes snapshots: {got:?}"
                    );
                }
            })
        })
        .collect();
    let reloader = {
        let socket = socket.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&socket).expect("connect");
            for _ in 0..10 {
                std::thread::sleep(std::time::Duration::from_millis(2));
                client.reload().expect("reload");
            }
        })
    };
    for h in queriers {
        h.join().expect("querier thread");
    }
    reloader.join().expect("reloader thread");

    let mut client = Client::connect(&socket).expect("connect");
    // After the last reload every answer comes from generation ≥ 1.
    let (got, _) = client.query_id(0, 6).expect("query");
    assert_eq!(bits(&got), oracle_new);
    client.shutdown().expect("shutdown");
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// `artifact`'s sections with the ANN sections of `index_from` in place
/// of its own, written as a fresh (CRC-valid) container.
fn with_index_of(artifact: &MatchArtifact, index_from: &MatchArtifact) -> Vec<u8> {
    use tdmatch_graph::container::{Container, ContainerWriter};
    let (mut a, mut b) = (Vec::new(), Vec::new());
    artifact.write_to(&mut a).expect("write");
    index_from.write_to(&mut b).expect("write");
    let (a, b) = (Container::parse(&a).unwrap(), Container::parse(&b).unwrap());
    let mut w = ContainerWriter::new();
    for tag in a.tags().filter(|t| !t.starts_with(b"AN")) {
        w.add(tag, a.require(tag).unwrap().payload().unwrap());
    }
    for tag in b.tags().filter(|t| t.starts_with(b"AN")) {
        w.add(tag, b.require(tag).unwrap().payload().unwrap());
    }
    w.finish()
}

/// Regression: a CRC-valid artifact whose index links rows the matrix
/// marks missing used to load, and its ANN rankings repeated those ids.
/// A `reload` of one must fail and keep the previous snapshot serving.
#[test]
fn reload_refuses_an_index_linking_missing_rows() {
    let dir = std::env::temp_dir().join(format!("tdmatch-reload-holed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("artifact.tdm");
    let served = indexed_artifact(60, 4);
    let reference = Matcher::new(served.clone()).with_ann_pool(50);
    let want = bits(&reference.query_by_id(0, 60).expect("doc"));
    served.save(&path).expect("save generation 0");

    let socket = socket_path("holed-reload");
    let server = Server::start(
        Matcher::new(served.clone()),
        ServeOptions::at(&socket).artifact(&path).ann_pool(50),
    )
    .expect("daemon starts");

    // The same rows with every third one missing, under the index of the
    // all-present rows.
    let every_third = (2..60)
        .step_by(3)
        .fold(tdmatch_core::delta::DeltaBatch::new(), |batch, i| batch.tombstone(i));
    let mut holed = served.clone();
    holed.apply_delta(&every_third).expect("tombstones apply");
    std::fs::write(&path, with_index_of(&holed, &served)).expect("publish the bad file");

    let mut client = Client::connect(&socket).expect("connect");
    assert!(client.reload().is_err(), "the bad index must be refused");
    let (got, _) = client.query_id(0, 60).expect("query");
    assert_eq!(bits(&got), want, "the previous snapshot keeps serving");
    let stats = client.stats().expect("stats");
    assert_eq!((stats.generation, stats.reload_failures), (0, 1));

    client.shutdown().expect("shutdown");
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ann_request_against_an_unindexed_daemon_scans_exactly() {
    let mut artifact = indexed_artifact(60, 4);
    artifact.clear_ann();
    let reference = Matcher::new(artifact.clone());
    let want = reference.query_by_id(0, 5).expect("doc exists");

    let socket = socket_path("noindex");
    let server =
        Server::start(Matcher::new(artifact), ServeOptions::at(&socket)).expect("daemon starts");
    let mut client = Client::connect(&socket).expect("connect");
    // The client asks for ANN but the artifact has no index: the
    // daemon answers with the exact scan rather than erroring.
    client.set_ann(Some(true));
    let (got, _) = client.query_id(0, 5).expect("query");
    assert_eq!(bits(&got), bits(&want));

    let stats = client.stats().expect("stats");
    assert_eq!(stats.ann_queries, 0);
    assert_eq!(stats.exact_queries, 1);
    assert_eq!(stats.pooled, 0);

    client.shutdown().expect("shutdown");
    server.join();
}
